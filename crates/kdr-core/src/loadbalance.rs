//! Dynamic load balancing (paper §6.3).
//!
//! The paper's experiment: CG on a 5-point stencil over a 2¹⁶×2¹⁶
//! grid, 64 domain pieces over 32 CPU nodes, matrix cut into 64×64
//! tiles. Each tile `A_{i,j}` has exactly two legal homes — the node
//! owning the input piece `D_j` or the node owning the output piece
//! `D_i` — and the *thermodynamic* mapper lets overloaded nodes give
//! tiles away: after every 10th iteration, a node whose iteration
//! time `T_i` exceeds a reference `T_0` gives each owned tile away
//! with probability `min(e^{β(T_i − T_0)} − 1, 1)` (β = 10⁻³ ms⁻¹ —
//! we read the paper's `min(e^{β·Δ}, 1)` as including the `−1`
//! baseline so the probability vanishes at `Δ = 0`; the printed form
//! would always fire for any overload). Since each tile has two
//! candidate owners, the receiver is determined and no global
//! communication occurs.
//!
//! Here the policy drives a model: `figure10` moves [`Tile`]s between
//! simulated nodes and times iterations with [`IterationModel`]. The
//! threaded runtime keeps colour `c` on worker `c % W` and never
//! moves it.

/// One movable matrix tile with its two candidate owners and cost.
#[derive(Clone, Debug)]
pub struct Tile {
    /// Node owning the output piece `D_i` (initial owner).
    pub out_owner: usize,
    /// Node owning the input piece `D_j`.
    pub in_owner: usize,
    /// Work in flops for `y_i += A_{i,j} x_j`.
    pub flops: f64,
    /// True while the tile sits at `out_owner`.
    pub at_out: bool,
}

impl Tile {
    /// A tile owned by `out_owner`, reading from `in_owner`, costing
    /// `flops`.
    pub fn new(out_owner: usize, in_owner: usize, flops: f64) -> Self {
        Tile {
            out_owner,
            in_owner,
            flops,
            at_out: true,
        }
    }

    /// The node currently executing this tile's task.
    pub fn current_owner(&self) -> usize {
        if self.at_out {
            self.out_owner
        } else {
            self.in_owner
        }
    }

    /// True if the two candidates differ (otherwise giving away is a
    /// no-op).
    pub fn movable(&self) -> bool {
        self.out_owner != self.in_owner
    }
}

/// The thermodynamic giveaway policy.
pub struct ThermoBalancer {
    /// Adaptation rate β in 1/ms (paper: 10⁻³).
    pub beta_per_ms: f64,
    /// Reference iteration time `T_0` in seconds (time under the
    /// average background load).
    pub t0: f64,
    /// Literal paper formula `min(e^{β(T−T0)}, 1)` — which is 1 for
    /// any overload, i.e. overloaded nodes shed everything — versus
    /// the smooth reading `min(e^{β(T−T0)} − 1, 1)` that vanishes at
    /// `T = T0`.
    pub literal: bool,
    rng_state: u64,
}

impl ThermoBalancer {
    /// Smooth variant (probability grows from 0 with the overload).
    pub fn new(beta_per_ms: f64, t0: f64, seed: u64) -> Self {
        ThermoBalancer {
            beta_per_ms,
            t0,
            literal: false,
            rng_state: seed.max(1),
        }
    }

    /// The paper's formula as printed: `min(e^{β(T−T0)}, 1)`.
    pub fn paper_literal(beta_per_ms: f64, t0: f64, seed: u64) -> Self {
        ThermoBalancer {
            beta_per_ms,
            t0,
            literal: true,
            rng_state: seed.max(1),
        }
    }

    fn next_unit(&mut self) -> f64 {
        self.rng_state ^= self.rng_state << 13;
        self.rng_state ^= self.rng_state >> 7;
        self.rng_state ^= self.rng_state << 17;
        (self.rng_state % (1 << 24)) as f64 / (1u64 << 24) as f64
    }

    /// Giveaway probability for a node with iteration time `t`
    /// seconds (zero at or below `T0`; see [`ThermoBalancer::literal`]).
    pub fn giveaway_probability(&self, t: f64) -> f64 {
        if t <= self.t0 {
            return 0.0;
        }
        let delta_ms = (t - self.t0) * 1e3;
        if self.literal {
            (self.beta_per_ms * delta_ms).exp().min(1.0)
        } else {
            (self.beta_per_ms * delta_ms).exp_m1().min(1.0)
        }
    }

    /// Apply one rebalancing round: each tile owned by an overloaded
    /// node flips to its other candidate with the node's giveaway
    /// probability. `node_times[n]` is node `n`'s last iteration time
    /// in seconds. Returns the number of tiles moved.
    pub fn rebalance(&mut self, tiles: &mut [Tile], node_times: &[f64]) -> usize {
        let mut moved = 0;
        for tile in tiles.iter_mut() {
            if !tile.movable() {
                continue;
            }
            let owner = tile.current_owner();
            let p = self.giveaway_probability(node_times[owner]);
            if p > 0.0 && self.next_unit() < p {
                tile.at_out = !tile.at_out;
                moved += 1;
            }
        }
        moved
    }
}

/// Per-iteration cost model for the §6.3 experiment: each node's time
/// is its owned tile flops plus its pinned per-piece vector work,
/// divided by its effective speed; the iteration ends at the slowest
/// node plus the dot-product collectives.
pub struct IterationModel {
    /// Immovable per-node work (vector ops, dots) in flops.
    pub pinned_flops: Vec<f64>,
    /// Sustained flop rate per fully-free node.
    pub flops_per_node: f64,
    /// Fixed per-iteration synchronization cost (collectives).
    pub sync_seconds: f64,
}

impl IterationModel {
    /// Per-node iteration times given tile ownership and per-node
    /// speed multipliers.
    pub fn node_times(&self, tiles: &[Tile], speeds: &[f64]) -> Vec<f64> {
        let mut flops = self.pinned_flops.clone();
        for t in tiles {
            flops[t.current_owner()] += t.flops;
        }
        flops
            .iter()
            .zip(speeds)
            .map(|(f, s)| f / (self.flops_per_node * s))
            .collect()
    }

    /// Iteration time: slowest node plus synchronization.
    pub fn iteration_time(&self, tiles: &[Tile], speeds: &[f64]) -> f64 {
        let times = self.node_times(tiles, speeds);
        times.iter().cloned().fold(0.0, f64::max) + self.sync_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn giveaway_probability_shape() {
        let b = ThermoBalancer::new(1e-3, 1.0, 1);
        assert_eq!(b.giveaway_probability(0.5), 0.0);
        assert_eq!(b.giveaway_probability(1.0), 0.0);
        let p_small = b.giveaway_probability(1.1); // 100 ms over
        let p_big = b.giveaway_probability(2.0); // 1000 ms over
        assert!(p_small > 0.0 && p_small < p_big);
        assert!((p_small - (0.1f64).exp_m1()).abs() < 1e-12);
        assert!(b.giveaway_probability(100.0) == 1.0);
    }

    #[test]
    fn overloaded_node_sheds_tiles() {
        let mut tiles: Vec<Tile> = (0..100).map(|_| Tile::new(0, 1, 1.0)).collect();
        let mut b = ThermoBalancer::new(1e-3, 1.0, 7);
        // Node 0 hugely overloaded: probability 1.
        let moved = b.rebalance(&mut tiles, &[10.0, 0.5]);
        assert_eq!(moved, 100);
        assert!(tiles.iter().all(|t| t.current_owner() == 1));
        // Now node 1 is overloaded; tiles flow back.
        let moved_back = b.rebalance(&mut tiles, &[0.5, 10.0]);
        assert_eq!(moved_back, 100);
    }

    #[test]
    fn immovable_tiles_stay() {
        let mut tiles = vec![Tile::new(0, 0, 1.0)];
        let mut b = ThermoBalancer::new(1e-3, 0.0, 3);
        assert_eq!(b.rebalance(&mut tiles, &[100.0]), 0);
        assert_eq!(tiles[0].current_owner(), 0);
    }

    #[test]
    fn iteration_model_tracks_slowest_node() {
        let model = IterationModel {
            pinned_flops: vec![100.0, 100.0],
            flops_per_node: 100.0,
            sync_seconds: 0.5,
        };
        let tiles = vec![Tile::new(0, 1, 100.0)];
        // Node 0: 200 flops at speed 1 -> 2 s; node 1: 100 at 0.5 -> 2 s.
        let t = model.iteration_time(&tiles, &[1.0, 0.5]);
        assert!((t - 2.5).abs() < 1e-12);
        // Move the tile: node 1 now has 200 flops at 0.5 -> 4 s.
        let mut moved = tiles.clone();
        moved[0].at_out = false;
        let t2 = model.iteration_time(&moved, &[1.0, 0.5]);
        assert!((t2 - 4.5).abs() < 1e-12);
    }

    #[test]
    fn balancing_beats_static_under_skewed_load() {
        // 4 nodes, pairwise-coupled tiles, one overloaded node.
        let model = IterationModel {
            pinned_flops: vec![10.0; 4],
            flops_per_node: 100.0,
            sync_seconds: 0.0,
        };
        let mut tiles: Vec<Tile> = (0..4)
            .flat_map(|n| (0..10).map(move |_| Tile::new(n, (n + 1) % 4, 10.0)))
            .collect();
        let speeds = [0.1, 1.0, 1.0, 1.0]; // node 0 nearly saturated
        let t_static = model.iteration_time(&tiles, &speeds);
        // Reference time just above the unloaded iteration time, so
        // only genuinely overloaded nodes shed tiles; a gentle rate
        // avoids thrashing.
        let mut b = ThermoBalancer::new(1e-4, 1.2, 11);
        let mut recent = Vec::new();
        for _ in 0..50 {
            let times = model.node_times(&tiles, &speeds);
            b.rebalance(&mut tiles, &times);
            recent.push(model.iteration_time(&tiles, &speeds));
        }
        let tail: f64 = recent[recent.len() - 10..].iter().sum::<f64>() / 10.0;
        assert!(
            tail < 0.6 * t_static,
            "dynamic tail {tail} vs static {t_static}"
        );
    }
}
