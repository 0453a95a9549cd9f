//! Universal co-partitioning operators (paper §3.1).
//!
//! Given a partition of any one of the three spaces `K`, `D`, `R` of a
//! sparse matrix, the four projections
//!
//! * `col_{K→D}[P]`, `row_{K→R}[P]` — images of a kernel partition,
//! * `col_{D→K}[Q]`, `row_{R→K}[Q]` — preimages of a vector partition,
//!
//! derive compatible partitions of the other spaces. Because they are
//! expressed purely through the [`Relation`] interface, they work for
//! every storage format — including user-defined ones — with a single
//! implementation.

use crate::partition::Partition;
use crate::relation::Relation;

/// Project a partition forward along a relation: color `c` of the
/// result is the image of color `c` of `p`. This is `col_{K→D}` /
/// `row_{K→R}` when `rel` is the column/row relation.
pub fn project(rel: &dyn Relation, p: &Partition) -> Partition {
    assert_eq!(
        p.space_size(),
        rel.source_size(),
        "partition space does not match relation source"
    );
    Partition::new(
        rel.target_size(),
        p.pieces().iter().map(|piece| rel.image(piece)).collect(),
    )
}

/// Project a partition backward along a relation: color `c` of the
/// result is the preimage of color `c` of `q`. This is `col_{D→K}` /
/// `row_{R→K}` when `rel` is the column/row relation.
pub fn project_back(rel: &dyn Relation, q: &Partition) -> Partition {
    assert_eq!(
        q.space_size(),
        rel.target_size(),
        "partition space does not match relation target"
    );
    Partition::new(
        rel.source_size(),
        q.pieces().iter().map(|piece| rel.preimage(piece)).collect(),
    )
}

/// The closure needed to compute one matrix-vector product `y = A x`
/// from a partition of the *range* space: returns
/// `(row_{R→K}[P], col_{K→D}[row_{R→K}[P]])` — the kernel pieces and
/// the finest domain partition from which each `y_c` can be computed
/// independently.
pub fn spmv_closure(
    row: &dyn Relation,
    col: &dyn Relation,
    range_part: &Partition,
) -> (Partition, Partition) {
    let k = project_back(row, range_part);
    let d = project(col, &k);
    (k, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::IntervalSet;
    use crate::relation::{FnRelation, IntervalMapRelation, TransposedRelation};

    /// CSR-ish tridiagonal 4x4 system:
    /// row 0: cols 0,1      (k 0..2)
    /// row 1: cols 0,1,2    (k 2..5)
    /// row 2: cols 1,2,3    (k 5..8)
    /// row 3: cols 2,3      (k 8..10)
    ///
    /// Relations in canonical K-first direction: row : K -> R is the
    /// transpose of the stored rowptr, col : K -> D is direct.
    fn tridiag() -> (TransposedRelation<'static>, FnRelation<'static>) {
        let rowptr = IntervalMapRelation::from_offsets(&[0, 2, 5, 8, 10], 10);
        let row = TransposedRelation::new(Box::new(rowptr));
        let col = FnRelation::new(vec![0, 1, 0, 1, 2, 1, 2, 3, 2, 3], 4);
        (row, col)
    }

    #[test]
    fn project_kernel_to_domain() {
        let (_, col) = tridiag();
        let kp = Partition::equal_blocks(10, 2);
        let dp = project(&col, &kp);
        assert_eq!(dp.num_colors(), 2);
        // First 5 kernel points touch cols {0, 1, 2}.
        assert_eq!(dp.piece(0), &IntervalSet::from_range(0, 3));
        // Last 5 touch cols {1, 2, 3}.
        assert_eq!(dp.piece(1), &IntervalSet::from_range(1, 4));
        assert!(dp.is_complete());
        assert!(!dp.is_disjoint()); // ghost overlap is expected
    }

    #[test]
    fn spmv_closure_matches_stencil_ghosts() {
        let (row, col) = tridiag();
        // Range split into rows {0,1} and {2,3}.
        let rp = Partition::equal_blocks(4, 2);
        let (kp, dp) = spmv_closure(&row, &col, &rp);
        // Kernel piece 0 = entries of rows 0..2 = k 0..5.
        assert_eq!(kp.piece(0), &IntervalSet::from_range(0, 5));
        assert_eq!(kp.piece(1), &IntervalSet::from_range(5, 10));
        assert!(kp.is_complete() && kp.is_disjoint());
        // Domain piece 0 needs cols 0..3 (one ghost), piece 1 cols 1..4.
        assert_eq!(dp.piece(0), &IntervalSet::from_range(0, 3));
        assert_eq!(dp.piece(1), &IntervalSet::from_range(1, 4));
    }

    #[test]
    fn square_closure_widens_by_two_ghosts() {
        let (row, col) = tridiag();
        let rp = Partition::equal_blocks(4, 2);
        // The paper's equation (5): the domain partition `A² x` needs
        // is two round trips, `col[row⁻¹[col[row⁻¹[P]]]]`. Each piece
        // needs two ghost layers; on a 4-point tridiagonal grid that is
        // the whole domain.
        let (_, d1) = spmv_closure(&row, &col, &rp);
        let (_, d2) = spmv_closure(&row, &col, &d1);
        assert_eq!(d2.piece(0), &IntervalSet::from_range(0, 4));
        assert_eq!(d2.piece(1), &IntervalSet::from_range(0, 4));
    }

    #[test]
    fn round_trip_preserves_coverage() {
        let (row, col) = tridiag();
        let rp = Partition::equal_blocks(4, 4);
        let (kp, dp) = spmv_closure(&row, &col, &rp);
        // Every kernel point is covered (complete), since the range
        // partition is complete and every kernel point has a row.
        assert!(kp.is_complete());
        assert!(dp.is_complete());
        // Projecting the kernel partition back to the range recovers a
        // partition refined by the original.
        let rp2 = project(&row, &kp);
        assert!(rp2.refines(&rp) || rp2 == rp);
    }

    #[test]
    #[should_panic(expected = "does not match relation source")]
    fn project_checks_space() {
        let (_, col) = tridiag();
        let bad = Partition::equal_blocks(7, 2);
        project(&col, &bad);
    }
}
