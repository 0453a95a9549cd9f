//! Weighted fair-share scheduling across tenants.
//!
//! Classic stride scheduling: each tenant carries a *pass* value; the
//! runnable tenant with the smallest pass runs next and its pass
//! advances by `STRIDE_ONE / weight`. Over any window, tenant `i`
//! receives slices in proportion to `w_i / Σw` — with equal weights,
//! slice counts across continuously-runnable tenants differ by at
//! most one.
//!
//! The scheduler is *deterministic*: picks depend only on the pass
//! table and the seed (which salts the tie-break hash), never on wall
//! time. Two services configured with the same seed and fed the same
//! submission sequence produce the same schedule — the property the
//! stress harness replays to prove determinism.

use std::collections::BTreeMap;

use crate::request::TenantId;

/// Pass increment corresponding to weight 1.
const STRIDE_ONE: u128 = 1 << 20;

/// Deterministic weighted fair-share (stride) scheduler.
pub struct FairScheduler {
    seed: u64,
    tenants: BTreeMap<TenantId, TenantSched>,
}

struct TenantSched {
    weight: u64,
    pass: u128,
    slices: u64,
}

/// SplitMix64: a tiny, high-quality deterministic hash for seeded
/// tie-breaking here and for the front door's hash ring.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl FairScheduler {
    /// A scheduler whose tie-breaks are salted with `seed`.
    pub fn new(seed: u64) -> Self {
        FairScheduler {
            seed,
            tenants: BTreeMap::new(),
        }
    }

    /// Register (or re-weight) a tenant. New tenants join at the
    /// current global minimum pass so they neither monopolize the
    /// service nor start in debt.
    pub fn register(&mut self, tenant: TenantId, weight: u64) {
        let weight = weight.max(1);
        let join_pass = self.tenants.values().map(|t| t.pass).min().unwrap_or(0);
        let e = self.tenants.entry(tenant).or_insert(TenantSched {
            weight,
            pass: join_pass,
            slices: 0,
        });
        e.weight = weight;
    }

    /// Remove a tenant (migration detach), returning its weight so
    /// the destination shard can re-register it identically. The
    /// tenant's pass value is deliberately *not* carried: passes are
    /// relative to one shard's pass table, so the tenant rejoins the
    /// destination at its minimum pass — the same late-joiner rule as
    /// [`FairScheduler::register`].
    pub fn unregister(&mut self, tenant: TenantId) -> Option<u64> {
        self.tenants.remove(&tenant).map(|t| t.weight)
    }

    /// A tenant's configured weight (`None` if unregistered).
    pub fn weight(&self, tenant: TenantId) -> Option<u64> {
        self.tenants.get(&tenant).map(|t| t.weight)
    }

    /// Slices granted to a tenant so far.
    pub fn slices(&self, tenant: TenantId) -> u64 {
        self.tenants.get(&tenant).map(|t| t.slices).unwrap_or(0)
    }

    /// Pick the next tenant among `runnable` (minimum pass, ties
    /// broken by seeded hash then id) and charge it one slice. The
    /// charge happens here so a picked tenant cannot starve others by
    /// repeatedly being runnable.
    pub fn pick(&mut self, runnable: &[TenantId]) -> Option<TenantId> {
        let chosen = runnable
            .iter()
            .filter(|t| self.tenants.contains_key(t))
            .min_by_key(|&&t| {
                let pass = self.tenants[&t].pass;
                (pass, splitmix64(self.seed ^ u64::from(t)), t)
            })
            .copied()?;
        let e = self.tenants.get_mut(&chosen).expect("filtered");
        e.pass += STRIDE_ONE / u128::from(e.weight);
        e.slices += 1;
        Some(chosen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_weights_round_robin_within_one() {
        let mut s = FairScheduler::new(42);
        for t in 0..4u32 {
            s.register(t, 1);
        }
        let runnable: Vec<TenantId> = (0..4).collect();
        for _ in 0..403 {
            s.pick(&runnable).unwrap();
        }
        let counts: Vec<u64> = (0..4).map(|t| s.slices(t)).collect();
        let (max, min) = (
            *counts.iter().max().unwrap(),
            *counts.iter().min().unwrap(),
        );
        assert!(max - min <= 1, "equal weights must stay within one: {counts:?}");
    }

    #[test]
    fn weights_split_proportionally() {
        let mut s = FairScheduler::new(0);
        s.register(1, 3);
        s.register(2, 1);
        let runnable = [1, 2];
        for _ in 0..400 {
            s.pick(&runnable).unwrap();
        }
        let (a, b) = (s.slices(1) as f64, s.slices(2) as f64);
        assert!((a / b - 3.0).abs() < 0.1, "3:1 split, got {a}:{b}");
    }

    #[test]
    fn same_seed_same_schedule() {
        let schedule = |seed: u64| {
            let mut s = FairScheduler::new(seed);
            for t in 0..5u32 {
                s.register(t, u64::from(t % 2) + 1);
            }
            let runnable: Vec<TenantId> = (0..5).collect();
            (0..200).map(|_| s.pick(&runnable).unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(schedule(7), schedule(7));
        assert_ne!(schedule(7), schedule(8), "different salt, different ties");
    }

    #[test]
    fn late_joiner_starts_at_min_pass() {
        let mut s = FairScheduler::new(1);
        s.register(1, 1);
        let runnable = [1];
        for _ in 0..100 {
            s.pick(&runnable).unwrap();
        }
        s.register(2, 1);
        // The newcomer must not get 100 consecutive slices of debt
        // repayment; it alternates fairly from here on.
        let both = [1, 2];
        let mut first_ten = Vec::new();
        for _ in 0..10 {
            first_ten.push(s.pick(&both).unwrap());
        }
        assert!(first_ten.contains(&1), "old tenant keeps running: {first_ten:?}");
        assert!(first_ten.contains(&2), "new tenant admitted: {first_ten:?}");
    }

    #[test]
    fn unregistered_tenants_are_ignored() {
        let mut s = FairScheduler::new(1);
        s.register(1, 1);
        assert_eq!(s.pick(&[9]), None);
        assert_eq!(s.pick(&[9, 1]), Some(1));
    }
}
