//! Partitions of index spaces.
//!
//! A partition is a function `P : C -> 2^I` from a finite *color
//! space* to subsets of an index space (paper §3.1). Partitions may be
//! incomplete (some points uncolored) and aliased (points colored more
//! than once); [`Partition::is_complete`] and
//! [`Partition::is_disjoint`] test the two properties the paper names.

use crate::interval::IntervalSet;

/// A coloring of an index space: one [`IntervalSet`] per color.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    space_size: u64,
    pieces: Vec<IntervalSet>,
}

impl Partition {
    /// Build from explicit pieces. Panics if any piece leaves the
    /// space.
    pub fn new(space_size: u64, pieces: Vec<IntervalSet>) -> Self {
        for (c, p) in pieces.iter().enumerate() {
            if let Some(m) = p.max() {
                assert!(m < space_size, "piece {c} exceeds space size {space_size}");
            }
        }
        Partition { space_size, pieces }
    }

    /// Partition `0..n` into `colors` nearly-equal contiguous blocks.
    pub fn equal_blocks(n: u64, colors: usize) -> Self {
        Partition::new(n, IntervalSet::full(n).split_equal(colors))
    }

    /// Cyclic (round-robin) partition: point `i` gets color
    /// `i % colors`. Maximally scattering — the worst case for
    /// interval-set compactness, useful for load-spreading and for
    /// stress-testing projection code.
    pub fn cyclic(n: u64, colors: usize) -> Self {
        Self::block_cyclic(n, colors, 1)
    }

    /// Block-cyclic partition with block size `b`: blocks of `b`
    /// consecutive points are dealt round-robin to colors.
    pub fn block_cyclic(n: u64, colors: usize, b: u64) -> Self {
        assert!(colors > 0 && b > 0);
        let mut pieces: Vec<Vec<crate::interval::Run>> = vec![Vec::new(); colors];
        let mut lo = 0u64;
        let mut color = 0usize;
        while lo < n {
            let hi = (lo + b).min(n);
            pieces[color].push(crate::interval::Run::new(lo, hi));
            color = (color + 1) % colors;
            lo = hi;
        }
        Partition::new(n, pieces.into_iter().map(IntervalSet::from_runs).collect())
    }

    /// Partition the `nx × ny` grid linearized row-major (point
    /// `(x, y)` is `x * ny + y`) into `tx × ty` rectangular tiles,
    /// colored row-major over tiles.
    pub fn grid2_tiles(nx: u64, ny: u64, tx: u64, ty: u64) -> Self {
        assert!(tx > 0 && ty > 0 && tx <= nx && ty <= ny, "bad tile grid");
        let mut pieces = Vec::with_capacity((tx * ty) as usize);
        for bx in 0..tx {
            let x0 = bx * nx / tx;
            let x1 = (bx + 1) * nx / tx;
            for by in 0..ty {
                let y0 = by * ny / ty;
                let y1 = (by + 1) * ny / ty;
                let runs = (x0..x1).map(|x| crate::interval::Run::new(x * ny + y0, x * ny + y1));
                pieces.push(IntervalSet::from_runs(runs));
            }
        }
        Partition::new(nx * ny, pieces)
    }

    /// Size of the partitioned space.
    pub fn space_size(&self) -> u64 {
        self.space_size
    }

    /// Number of colors.
    pub fn num_colors(&self) -> usize {
        self.pieces.len()
    }

    /// The subset assigned to color `c`.
    pub fn piece(&self, c: usize) -> &IntervalSet {
        &self.pieces[c]
    }

    /// All pieces in color order.
    pub fn pieces(&self) -> &[IntervalSet] {
        &self.pieces
    }

    /// Union of all pieces.
    pub fn union_all(&self) -> IntervalSet {
        self.pieces
            .iter()
            .fold(IntervalSet::empty(), |a, b| a.union(b))
    }

    /// True if every point of the space has at least one color.
    pub fn is_complete(&self) -> bool {
        self.union_all() == IntervalSet::full(self.space_size)
    }

    /// True if no point has more than one color.
    pub fn is_disjoint(&self) -> bool {
        // Sum of cardinalities equals cardinality of the union iff no
        // point is double-colored.
        let total: u64 = self.pieces.iter().map(IntervalSet::cardinality).sum();
        total == self.union_all().cardinality()
    }

    /// Pointwise intersection with another partition over the same
    /// space and color space — the coarsest common refinement used
    /// when combining constraints from several relations.
    pub fn intersect(&self, other: &Partition) -> Partition {
        assert_eq!(self.space_size, other.space_size);
        assert_eq!(self.num_colors(), other.num_colors());
        Partition::new(
            self.space_size,
            self.pieces
                .iter()
                .zip(&other.pieces)
                .map(|(a, b)| a.intersect(b))
                .collect(),
        )
    }

    /// Pointwise union with another partition over the same space and
    /// color space.
    pub fn union(&self, other: &Partition) -> Partition {
        assert_eq!(self.space_size, other.space_size);
        assert_eq!(self.num_colors(), other.num_colors());
        Partition::new(
            self.space_size,
            self.pieces
                .iter()
                .zip(&other.pieces)
                .map(|(a, b)| a.union(b))
                .collect(),
        )
    }

    /// True if `other` refines `self`: every piece of `other` is
    /// contained in the same-colored piece of `self`.
    pub fn refines(&self, other: &Partition) -> bool {
        self.num_colors() == other.num_colors()
            && other
                .pieces
                .iter()
                .zip(&self.pieces)
                .all(|(o, s)| o.is_subset_of(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_blocks_complete_disjoint() {
        let p = Partition::equal_blocks(10, 3);
        assert!(p.is_complete());
        assert!(p.is_disjoint());
        assert_eq!(p.num_colors(), 3);
        assert_eq!(p.piece(0).cardinality(), 4);
    }

    #[test]
    fn aliased_partition_detected() {
        let p = Partition::new(
            4,
            vec![IntervalSet::from_range(0, 3), IntervalSet::from_range(2, 4)],
        );
        assert!(p.is_complete());
        assert!(!p.is_disjoint());
    }

    #[test]
    fn incomplete_partition_detected() {
        let p = Partition::new(
            5,
            vec![IntervalSet::from_range(0, 2), IntervalSet::from_range(3, 5)],
        );
        assert!(!p.is_complete());
        assert!(p.is_disjoint());
    }

    /// Tiles of an `nx × ny` grid, as literal `[lo, hi)` runs per
    /// colour: one run per grid row a tile spans, merged where a tile
    /// spans whole rows.
    #[test]
    fn grid2_tiles_cover_grid() {
        let runs = |p: &Partition| -> Vec<Vec<(u64, u64)>> {
            let runs = |s: &IntervalSet| s.runs().iter().map(|r| (r.lo, r.hi)).collect();
            p.pieces().iter().map(runs).collect()
        };
        let p = Partition::grid2_tiles(8, 6, 2, 3);
        assert_eq!(p.space_size(), 48);
        assert!(p.is_complete() && p.is_disjoint());
        assert_eq!(
            runs(&p),
            [
                vec![(0, 2), (6, 8), (12, 14), (18, 20)],
                vec![(2, 4), (8, 10), (14, 16), (20, 22)],
                vec![(4, 6), (10, 12), (16, 18), (22, 24)],
                vec![(24, 26), (30, 32), (36, 38), (42, 44)],
                vec![(26, 28), (32, 34), (38, 40), (44, 46)],
                vec![(28, 30), (34, 36), (40, 42), (46, 48)],
            ]
        );
        let p = Partition::grid2_tiles(5, 7, 2, 3);
        assert!(p.is_complete() && p.is_disjoint());
        assert_eq!(
            runs(&p),
            [
                vec![(0, 2), (7, 9)],
                vec![(2, 4), (9, 11)],
                vec![(4, 7), (11, 14)],
                vec![(14, 16), (21, 23), (28, 30)],
                vec![(16, 18), (23, 25), (30, 32)],
                vec![(18, 21), (25, 28), (32, 35)],
            ]
        );
        assert_eq!(
            runs(&Partition::grid2_tiles(4, 3, 2, 1)),
            [vec![(0, 6)], vec![(6, 12)]]
        );
    }

    #[test]
    fn refinement_and_algebra() {
        let coarse = Partition::equal_blocks(12, 2);
        let mut halves = Vec::new();
        for piece in coarse.pieces() {
            let sub = piece.split_equal(2);
            halves.push(sub[0].clone());
        }
        let fine = Partition::new(12, halves);
        assert!(coarse.refines(&fine));
        assert!(!fine.refines(&coarse));
        let i = coarse.intersect(&fine);
        assert_eq!(i.piece(0), fine.piece(0));
        let u = coarse.union(&fine);
        assert_eq!(u.piece(0), coarse.piece(0));
    }

    #[test]
    #[should_panic(expected = "exceeds space size")]
    fn out_of_space_piece_rejected() {
        Partition::new(4, vec![IntervalSet::from_range(0, 5)]);
    }

    #[test]
    fn cyclic_partition_round_robins() {
        let p = Partition::cyclic(10, 3);
        assert!(p.is_complete() && p.is_disjoint());
        assert_eq!(
            p.piece(0).iter_points().collect::<Vec<_>>(),
            vec![0, 3, 6, 9]
        );
        assert_eq!(p.piece(1).iter_points().collect::<Vec<_>>(), vec![1, 4, 7]);
        assert_eq!(p.piece(2).iter_points().collect::<Vec<_>>(), vec![2, 5, 8]);
    }

    #[test]
    fn block_cyclic_deals_blocks() {
        let p = Partition::block_cyclic(14, 2, 3);
        assert!(p.is_complete() && p.is_disjoint());
        // Color 0: blocks [0,3), [6,9), [12,14).
        assert_eq!(p.piece(0).runs().len(), 3);
        assert!(p.piece(0).contains(0) && p.piece(0).contains(7) && p.piece(0).contains(13));
        assert!(p.piece(1).contains(3) && p.piece(1).contains(9));
    }

    #[test]
    fn block_cyclic_with_more_colors_than_blocks() {
        let p = Partition::block_cyclic(4, 8, 2);
        assert!(p.is_complete() && p.is_disjoint());
        assert_eq!(p.num_colors(), 8);
        assert_eq!(p.piece(0).cardinality(), 2);
        assert_eq!(p.piece(1).cardinality(), 2);
        assert!(p.piece(2).is_empty());
    }
}
