//! Universal operator tiling via dependent partitioning.
//!
//! This is where the paper's §3.1 does real work: given an operator
//! component `A_ℓ : D_{i} -> R_{j}` and the canonical partitions of
//! its domain and range components, the tiles that execute `y_j += A_ℓ
//! x_i` are derived *entirely from the operator's row and column
//! relations* — the same code path for CSR, COO, ELL, DIA, block
//! formats, matrix-free stencils, and user-defined formats:
//!
//! 1. kernel partition `KP = row_{R→K}[P_R]` (preimage of the range
//!    partition along the row relation);
//! 2. per range color `r`: output footprint `row_{K→R}[KP(r)]` and
//!    input footprint `col_{K→D}[KP(r)]`;
//! 3. the input footprint intersected with the domain partition gives
//!    the ghost regions each source piece must supply.
//!
//! No format-specific partitioning code exists anywhere in KDRSolvers.

use kdr_index::Partition;
use kdr_sparse::{Scalar, SparseMatrix};

use crate::backend::TileSpec;

/// Compute the tiles of one operator component.
///
/// `sol_part` partitions the component's domain space, `rhs_part` its
/// range space; both must be complete and disjoint (canonical
/// partitions, §5). Colors of `rhs_part` with no kernel points yield
/// no tile.
pub fn compute_tiles<T: Scalar>(
    matrix: &dyn SparseMatrix<T>,
    sol_part: &Partition,
    rhs_part: &Partition,
    sol_comp: usize,
    rhs_comp: usize,
) -> Vec<TileSpec> {
    assert_eq!(
        sol_part.space_size(),
        matrix.domain_space().size(),
        "domain partition does not match operator domain"
    );
    assert_eq!(
        rhs_part.space_size(),
        matrix.range_space().size(),
        "range partition does not match operator range"
    );
    assert!(
        sol_part.is_complete() && sol_part.is_disjoint(),
        "canonical domain partition must be complete and disjoint"
    );
    assert!(
        rhs_part.is_complete() && rhs_part.is_disjoint(),
        "canonical range partition must be complete and disjoint"
    );

    let row = matrix.row_relation();
    let col = matrix.col_relation();
    let kp = kdr_index::project_back(row.as_ref(), rhs_part);

    let mut tiles = Vec::new();
    for r in 0..kp.num_colors() {
        let kernel_piece = kp.piece(r).clone();
        if kernel_piece.is_empty() {
            continue;
        }
        let out_subset = row.image(&kernel_piece);
        let in_union = col.image(&kernel_piece);
        let mut in_by_color = Vec::new();
        for c in 0..sol_part.num_colors() {
            let ghost = in_union.intersect(sol_part.piece(c));
            if !ghost.is_empty() {
                in_by_color.push((c, ghost));
            }
        }
        let nnz = kernel_piece.cardinality();
        tiles.push(TileSpec {
            rhs_comp,
            sol_comp,
            range_color: r,
            kernel_piece,
            out_subset,
            in_union,
            in_by_color,
            nnz,
        });
    }
    tiles
}

/// One tile's extracted entries in component-local coordinates:
/// `(rows, cols, vals)` parallel arrays, unsorted.
pub type TileTriplets<T> = (Vec<u64>, Vec<u64>, Vec<T>);

/// Extract every tile's entries from one operator component in a
/// single pass over the matrix.
///
/// `tiles[i].kernel_piece` sets are disjoint (they come from a
/// partition of `K`), so each stored entry lands in at most one tile;
/// entries on kernel points outside every piece (format padding the
/// matrix skips or points of empty range colors) are dropped. The
/// result is the raw input to per-tile kernel lowering
/// ([`kdr_sparse::TileKernel::lower`]) — extraction is still fully
/// format-independent, only the *lowering* that follows is
/// format-specialized.
///
/// The pass remembers the kernel run it last hit: an enumeration in
/// kernel order — every library format's — searches once per run it
/// enters, not once per entry. Any other order is still placed
/// correctly, by the search.
pub fn extract_tile_triplets<T: Scalar>(
    matrix: &dyn SparseMatrix<T>,
    tiles: &[TileSpec],
) -> Vec<TileTriplets<T>> {
    // Map kernel point -> tile via the disjoint kernel-piece runs.
    let mut lookup: Vec<(u64, u64, usize)> = Vec::new(); // (lo, hi, tile)
    for (ti, t) in tiles.iter().enumerate() {
        for r in t.kernel_piece.runs() {
            lookup.push((r.lo, r.hi, ti));
        }
    }
    lookup.sort_unstable();
    // A piece's point count bounds its entries (padding is skipped).
    let mut out: Vec<TileTriplets<T>> = tiles
        .iter()
        .map(|t| {
            let n = t.nnz as usize;
            (
                Vec::with_capacity(n),
                Vec::with_capacity(n),
                Vec::with_capacity(n),
            )
        })
        .collect();
    let (mut lo, mut hi, mut ti) = (0, 0, 0); // the run last hit; none yet
    matrix.for_each_entry(&mut |k, i, j, v| {
        if k < lo || k >= hi {
            // Binary search the last run starting at or before `k`.
            let idx = lookup.partition_point(|&(lo, _, _)| lo <= k);
            if idx == 0 || k >= lookup[idx - 1].1 {
                return; // before the first piece, or in a gap
            }
            (lo, hi, ti) = lookup[idx - 1];
        }
        let (rows, cols, vals) = &mut out[ti];
        rows.push(i);
        cols.push(j);
        vals.push(v);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdr_sparse::{Csr, Stencil, StencilOperator};

    #[test]
    fn csr_row_slab_tiles() {
        let s = Stencil::lap2d(8, 8);
        let m: Csr<f64> = s.to_csr();
        let part = Partition::equal_blocks(64, 4);
        let tiles = compute_tiles(&m, &part, &part, 0, 0);
        assert_eq!(tiles.len(), 4);
        let total_nnz: u64 = tiles.iter().map(|t| t.nnz).sum();
        assert_eq!(total_nnz, s.nnz());
        for t in &tiles {
            // Output footprint is exactly this range piece (every row
            // of a Laplacian is non-empty).
            assert_eq!(&t.out_subset, part.piece(t.range_color));
            // Input footprint includes the piece plus ghost rows.
            assert!(part.piece(t.range_color).is_subset_of(&t.in_union));
            let ghosts: u64 = t
                .in_by_color
                .iter()
                .filter(|(c, _)| *c != t.range_color)
                .map(|(_, s)| s.cardinality())
                .sum();
            // Interior slabs touch one ghost row (ny = 8) on each
            // side; edge slabs one side only.
            assert!(ghosts == 8 || ghosts == 16, "ghosts = {ghosts}");
        }
    }

    #[test]
    fn matrix_free_stencil_tiles_match_csr_tiles() {
        let s = Stencil::lap2d(6, 6);
        let csr: Csr<f64> = s.to_csr();
        let op = StencilOperator::<f64>::new(s);
        let part = Partition::equal_blocks(36, 3);
        let a = compute_tiles(&csr, &part, &part, 0, 0);
        let b = compute_tiles(&op, &part, &part, 0, 0);
        assert_eq!(a.len(), b.len());
        for (ta, tb) in a.iter().zip(&b) {
            // Kernel spaces differ (CSR order vs DIA order) but the
            // derived vector footprints must agree.
            assert_eq!(ta.out_subset, tb.out_subset, "color {}", ta.range_color);
            assert_eq!(ta.in_union, tb.in_union, "color {}", ta.range_color);
        }
    }

    #[test]
    fn rectangular_component_tiles() {
        // A 4x8 operator mapping an 8-point domain to a 4-point range.
        let t = kdr_sparse::Triples::from_entries(
            4,
            8,
            vec![
                (0, 0, 1.0),
                (1, 5, 1.0),
                (2, 2, 1.0),
                (3, 7, 1.0),
                (3, 0, 1.0),
            ],
        );
        let m: Csr<f64> = Csr::from_triples(t);
        let dp = Partition::equal_blocks(8, 2);
        let rp = Partition::equal_blocks(4, 2);
        let tiles = compute_tiles(&m, &dp, &rp, 2, 5);
        assert_eq!(tiles.len(), 2);
        assert_eq!(tiles[0].sol_comp, 2);
        assert_eq!(tiles[0].rhs_comp, 5);
        // Tile 1 covers rows 2..4, reading domain points 2, 7, 0:
        // colors 0 (points 0, 2) and 1 (point 7).
        assert_eq!(tiles[1].in_by_color.len(), 2);
    }

    #[test]
    fn extracted_triplets_cover_every_entry_once() {
        let s = Stencil::lap2d(6, 6);
        let m: Csr<f64> = s.to_csr();
        let part = Partition::equal_blocks(36, 3);
        let tiles = compute_tiles(&m, &part, &part, 0, 0);
        let trips = extract_tile_triplets(&m, &tiles);
        let total: usize = trips.iter().map(|(r, _, _)| r.len()).sum();
        assert_eq!(total as u64, s.nnz());
        for (t, (rows, _, _)) in tiles.iter().zip(&trips) {
            // Every extracted row lies in the tile's output footprint.
            assert!(rows.iter().all(|&r| t.out_subset.contains(r)));
        }
    }

    /// A format described by the six required methods only, whose
    /// enumeration runs in *descending* kernel order.
    struct Backwards(Csr<f64>);

    impl SparseMatrix<f64> for Backwards {
        fn kernel_space(&self) -> kdr_index::IndexSpace {
            self.0.kernel_space()
        }
        fn domain_space(&self) -> kdr_index::IndexSpace {
            self.0.domain_space()
        }
        fn range_space(&self) -> kdr_index::IndexSpace {
            self.0.range_space()
        }
        fn col_relation(&self) -> Box<dyn kdr_index::Relation> {
            self.0.col_relation()
        }
        fn row_relation(&self) -> Box<dyn kdr_index::Relation> {
            self.0.row_relation()
        }
        fn for_each_entry(&self, f: &mut dyn FnMut(u64, u64, u64, f64)) {
            let mut entries = Vec::new();
            self.0
                .for_each_entry(&mut |k, i, j, v| entries.push((k, i, j, v)));
            for &(k, i, j, v) in entries.iter().rev() {
                f(k, i, j, v);
            }
        }
    }

    #[test]
    fn extraction_does_not_assume_kernel_order() {
        let m: Csr<f64> = Stencil::lap2d(6, 6).to_csr();
        let part = Partition::equal_blocks(36, 3);
        let tiles = compute_tiles(&m, &part, &part, 0, 0);
        // Values are not unique on a Laplacian; coordinates are.
        let sorted = |(rows, cols, vals): TileTriplets<f64>| {
            let mut es: Vec<(u64, u64, u64)> = rows
                .into_iter()
                .zip(cols)
                .zip(vals)
                .map(|((i, j), v)| (i, j, v.to_bits()))
                .collect();
            es.sort_unstable();
            es
        };
        let forwards = extract_tile_triplets(&m, &tiles);
        let backwards = extract_tile_triplets(&Backwards(m), &tiles);
        assert_eq!(forwards.len(), backwards.len());
        for (t, (f, b)) in tiles.iter().zip(forwards.into_iter().zip(backwards)) {
            assert_eq!(f.0.len() as u64, t.nnz);
            assert_ne!(f.0, b.0, "the enumeration order did not change");
            assert_eq!(sorted(f), sorted(b), "color {}", t.range_color);
        }
    }

    #[test]
    fn empty_range_pieces_yield_no_tiles() {
        let t = kdr_sparse::Triples::from_entries(4, 4, vec![(0, 0, 1.0)]);
        let m: Csr<f64> = Csr::from_triples(t);
        let part = Partition::equal_blocks(4, 4);
        let tiles = compute_tiles(&m, &part, &part, 0, 0);
        assert_eq!(tiles.len(), 1, "only row 0 has entries");
        assert_eq!(tiles[0].range_color, 0);
    }

    #[test]
    #[should_panic(expected = "complete and disjoint")]
    fn aliased_canonical_partition_rejected() {
        let t = kdr_sparse::Triples::from_entries(4, 4, vec![(0, 0, 1.0)]);
        let m: Csr<f64> = Csr::from_triples(t);
        let bad = Partition::new(
            4,
            vec![
                kdr_index::IntervalSet::from_range(0, 3),
                kdr_index::IntervalSet::from_range(2, 4),
            ],
        );
        let good = Partition::equal_blocks(4, 2);
        compute_tiles(&m, &bad, &good, 0, 0);
    }
}
