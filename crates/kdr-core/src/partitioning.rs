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
//!
//! [`lower_tiles`] then turns each tile into a kernel. Step 1 already
//! says which entries a tile holds — those of its output rows — so a
//! format that stores its rows in order lends them, one tile after
//! another, and each is lowered where it lies; any other format is
//! enumerated once. Only the lowering that follows is
//! format-specialized.

use kdr_index::{IntervalSet, Partition};
use kdr_sparse::{KernelChoice, Scalar, SparseMatrix, TileKernel, TileRows, TileStructure};

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

/// Lower every tile of one operator component, in tile order, handing
/// each kernel and the structure analysis it was chosen from to
/// `lowered` as soon as it is built.
///
/// A tile's kernel piece is the preimage of a range piece along the
/// row relation. Where that relation gives each entry its one row, a
/// tile's entries are exactly those of its `out_subset` rows, so a
/// format that stores its rows in canonical order
/// ([`SparseMatrix::lower_stored_rows`]: [`kdr_sparse::Csr`]) lowers
/// tile by tile from its own arrays, and no tile's entries are copied
/// but into its payload. Any other format is enumerated once
/// ([`SparseMatrix::for_each_entry`]) into one [`TileRows`] per tile,
/// each entry placed by its kernel point in the first tile whose piece
/// holds it; entries outside every piece (format padding, points of
/// empty range colors) are dropped. The pass remembers the kernel run
/// it last hit, so an enumeration in kernel order — every library
/// format's — searches once per run it enters. Either way the tiles
/// lower to the same bits ([`TileKernel::lower_rows`]); only lowering
/// is format-specialized.
pub fn lower_tiles<T: Scalar>(
    matrix: &dyn SparseMatrix<T>,
    tiles: &[TileSpec],
    choice: KernelChoice,
    lowered: &mut dyn FnMut(&TileSpec, TileKernel<T>, TileStructure),
) {
    for (n, t) in tiles.iter().enumerate() {
        let Some((kernel, structure)) = matrix.lower_stored_rows(&t.out_subset, choice) else {
            return enumerate_tiles(matrix, &tiles[n..], choice, lowered);
        };
        lowered(t, kernel, structure);
    }
}

/// [`lower_tiles`] for a format that does not hand over its rows.
fn enumerate_tiles<T: Scalar>(
    matrix: &dyn SparseMatrix<T>,
    tiles: &[TileSpec],
    choice: KernelChoice,
    lowered: &mut dyn FnMut(&TileSpec, TileKernel<T>, TileStructure),
) {
    // Map kernel point -> tile via the kernel-piece runs. A coarse row
    // relation (BCSR relates a whole block to each of its rows) gives
    // the tiles on either side of a block that straddles two range
    // pieces the same kernel points: those go to the first such tile,
    // whatever order the format enumerates in.
    let mut lookup: Vec<(u64, u64, usize)> = Vec::new(); // (lo, hi, tile)
    let mut claimed = IntervalSet::empty();
    for (ti, t) in tiles.iter().enumerate() {
        for r in t.kernel_piece.difference(&claimed).runs() {
            lookup.push((r.lo, r.hi, ti));
        }
        claimed = claimed.union(&t.kernel_piece);
    }
    lookup.sort_unstable();
    // Each builder is sized for its tile: its rows, and its kernel
    // points, which bound its entries.
    let mut entries: Vec<TileRows<T>> = tiles
        .iter()
        .map(|t| TileRows::with_capacity(t.out_subset.cardinality() as usize, t.nnz as usize))
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
        entries[ti].push(i, j, v);
    });
    for (t, rows) in tiles.iter().zip(entries) {
        let (kernel, structure) = rows.lower(choice);
        lowered(t, kernel, structure);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdr_sparse::{Csr, Stencil, StencilOperator};
    use proptest::prelude::*;

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

    /// Every tile `lower_tiles` lowers, in the order it hands them
    /// over, with its payload and structure key spelled out.
    fn lowered(m: &dyn SparseMatrix<f64>, tiles: &[TileSpec], choice: KernelChoice) -> Vec<String> {
        let mut out = Vec::new();
        lower_tiles(m, tiles, choice, &mut |t, k, s| {
            out.push(format!("{} {:?} {k:?}", t.range_color, s.key().to_bytes()));
        });
        out
    }

    #[test]
    fn extracted_triplets_cover_every_entry_once() {
        let s = Stencil::lap2d(6, 6);
        let m: Csr<f64> = s.to_csr();
        let part = Partition::equal_blocks(36, 3);
        let tiles = compute_tiles(&m, &part, &part, 0, 0);
        let mut total = 0;
        let mut colors = Vec::new();
        lower_tiles(
            &m,
            &tiles,
            KernelChoice::Force(kdr_sparse::KernelKind::Csr),
            &mut |t, k, _| {
                let kdr_sparse::TileKernel::Csr(csr) = &k else {
                    panic!("forced CSR lowered to {:?}", k.kind());
                };
                total += csr.vals.len() as u64;
                // Every lowered row lies in the tile's output footprint.
                assert!(csr.row_ids.iter().all(|&r| t.out_subset.contains(r)));
                colors.push(t.range_color);
            },
        );
        assert_eq!(total, s.nnz());
        assert_eq!(colors, [0, 1, 2]);
    }

    /// A format described by the six required methods only, whose
    /// enumeration runs in *descending* kernel order.
    struct Backwards<'a>(&'a dyn SparseMatrix<f64>);

    /// A format described by the six required methods only: it
    /// enumerates in kernel order and hands over no rows.
    struct Enumerated<'a>(&'a dyn SparseMatrix<f64>);

    macro_rules! described_by {
        ($wrapper:ident, |$m:ident, $f:ident| $each:expr) => {
            impl SparseMatrix<f64> for $wrapper<'_> {
                fn kernel_space(&self) -> kdr_index::IndexSpace {
                    self.0.kernel_space()
                }
                fn domain_space(&self) -> kdr_index::IndexSpace {
                    self.0.domain_space()
                }
                fn range_space(&self) -> kdr_index::IndexSpace {
                    self.0.range_space()
                }
                fn col_relation(&self) -> Box<dyn kdr_index::Relation + '_> {
                    self.0.col_relation()
                }
                fn row_relation(&self) -> Box<dyn kdr_index::Relation + '_> {
                    self.0.row_relation()
                }
                fn for_each_entry(&self, $f: &mut dyn FnMut(u64, u64, u64, f64)) {
                    let $m = self.0;
                    $each
                }
            }
        };
    }

    described_by!(Backwards, |m, f| {
        let mut entries = Vec::new();
        m.for_each_entry(&mut |k, i, j, v| entries.push((k, i, j, v)));
        for &(k, i, j, v) in entries.iter().rev() {
            f(k, i, j, v);
        }
    });
    described_by!(Enumerated, |m, f| m.for_each_entry(f));

    #[test]
    fn extraction_does_not_assume_kernel_order() {
        let m: Csr<f64> = Stencil::lap2d(6, 6).to_csr();
        let part = Partition::equal_blocks(36, 3);
        let tiles = compute_tiles(&m, &part, &part, 0, 0);
        let choices = std::iter::once(KernelChoice::Auto).chain(
            kdr_sparse::KernelKind::ALL
                .into_iter()
                .map(KernelChoice::Force),
        );
        for choice in choices {
            let handed_over = lowered(&m, &tiles, choice);
            assert_eq!(handed_over.len(), 3);
            assert_eq!(lowered(&Backwards(&m), &tiles, choice), handed_over);
            assert_eq!(lowered(&Enumerated(&m), &tiles, choice), handed_over);
        }
    }

    /// What `lower_tiles` must produce for `m`: the format's own
    /// enumeration, each entry in the first tile whose kernel piece
    /// holds it, stably sorted by `(row, col)` and lowered from those
    /// triplets.
    fn sorted_triplet_oracle(
        m: &dyn SparseMatrix<f64>,
        tiles: &[TileSpec],
        choice: KernelChoice,
    ) -> Vec<String> {
        let mut entries = Vec::new();
        m.for_each_entry(&mut |k, i, j, v| {
            if let Some(t) = tiles.iter().position(|t| t.kernel_piece.contains(k)) {
                entries.push((t, i, j, v));
            }
        });
        entries.sort_by_key(|&(_, i, j, _)| (i, j));
        tiles
            .iter()
            .enumerate()
            .map(|(n, t)| {
                let (mut rows, mut cols, mut vals) = (Vec::new(), Vec::new(), Vec::new());
                for &(_, i, j, v) in entries.iter().filter(|e| e.0 == n) {
                    rows.push(i);
                    cols.push(j);
                    vals.push(v);
                }
                let (k, s) =
                    kdr_sparse::TileKernel::lower_with_structure(&rows, &cols, &vals, choice);
                format!("{} {:?} {k:?}", t.range_color, s.key().to_bytes())
            })
            .collect()
    }

    /// `(rows, cols, entries, range pieces, domain pieces)`.
    type Component = (u64, u64, Vec<(u64, u64, f64)>, usize, usize);

    /// A random `rows × cols` matrix (even sides, for the 2×2 block
    /// formats) as entries in input order, duplicates and empty rows
    /// included, plus range and domain piece counts.
    fn arb_component() -> impl Strategy<Value = Component> {
        (1u64..10, 1u64..10, 0usize..90, 1usize..6, 1usize..4).prop_flat_map(
            |(rh, ch, len, rp, dp)| {
                let (rows, cols) = (2 * rh, 2 * ch);
                let entry = (0..rows, 0..cols, -8i32..8);
                prop::collection::vec(entry, len).prop_map(move |es| {
                    // -8 stands for `-0.0`: a signed zero must keep its bits.
                    let value = |v: i32| if v == -8 { -0.0 } else { f64::from(v) * 0.25 };
                    let es = es.into_iter().map(|(i, j, v)| (i, j, value(v))).collect();
                    (rows, cols, es, rp.min(rows as usize), dp.min(cols as usize))
                })
            },
        )
    }

    proptest! {
        /// One registration, every format, same bits: each format's
        /// tiles, from the CSR row hand-off or the single enumeration
        /// pass, equal its sorted-triplet oracle under `Auto` and every
        /// `Force`, and the formats that store exactly the given
        /// entries agree with each other. A `Csr::from_raw` with
        /// unsorted and duplicate columns in its rows takes the
        /// hand-off's out-of-order branch.
        #[test]
        fn every_format_lowers_every_tile_to_the_same_bits(
            (rows, cols, entries, rp, dp) in arb_component()
        ) {
            use kdr_sparse::{Bcsc, Bcsr, Coo, Csc, Dia, Ell, EllT, KernelKind, Triples};
            let mut distinct = entries.clone();
            distinct.sort_by_key(|&(i, j, _)| (i, j));
            distinct.dedup_by_key(|&mut (i, j, _)| (i, j));
            let t = Triples::from_entries(rows, cols, distinct);
            let csr: Csr<f64> = Csr::from_triples(t.clone());
            // The entries in input order, row by row, repeats kept.
            let mut rowptr = vec![0u64; rows as usize + 1];
            for &(i, _, _) in &entries {
                rowptr[i as usize + 1] += 1;
            }
            for r in 0..rows as usize {
                rowptr[r + 1] += rowptr[r];
            }
            let mut by_row: Vec<_> = entries.iter().enumerate().collect();
            by_row.sort_by_key(|&(n, &(i, _, _))| (i, n));
            let raw: Csr<f64> = Csr::from_raw(
                rowptr,
                by_row.iter().map(|(_, e)| e.1).collect(),
                by_row.iter().map(|(_, e)| e.2).collect(),
                cols,
            );
            let same_entries: Vec<(&str, Box<dyn SparseMatrix<f64>>)> = vec![
                ("csr u32", Box::new(Csr::<f64, u32>::from_triples(t.clone()))),
                ("coo", Box::new(Coo::<f64>::from_triples(t.clone()))),
                ("csc", Box::new(Csc::<f64>::from_triples(t.clone()))),
            ];
            let padded: Vec<(&str, Box<dyn SparseMatrix<f64>>)> = vec![
                ("dia", Box::new(Dia::from_triples(t.clone()))),
                ("ell", Box::new(Ell::<f64>::from_triples(t.clone()))),
                ("ellt", Box::new(EllT::<f64>::from_triples(t.clone()))),
                ("bcsr", Box::new(Bcsr::<f64>::from_triples(t.clone(), 2, 2))),
                ("bcsc", Box::new(Bcsc::<f64>::from_triples(t.clone(), 2, 2))),
            ];
            let range = Partition::equal_blocks(rows, rp);
            let domain = Partition::equal_blocks(cols, dp);
            let tiles = compute_tiles(&csr, &domain, &range, 0, 0);
            let choices = std::iter::once(KernelChoice::Auto)
                .chain(KernelKind::ALL.into_iter().map(KernelChoice::Force));
            for choice in choices {
                let reference = lowered(&csr, &tiles, choice);
                prop_assert_eq!(&reference, &sorted_triplet_oracle(&csr, &tiles, choice));
                prop_assert_eq!(&lowered(&Enumerated(&csr), &tiles, choice), &reference);
                prop_assert_eq!(&lowered(&Backwards(&csr), &tiles, choice), &reference);
                for (name, m) in &same_entries {
                    let got = lowered(m.as_ref(), &compute_tiles(m.as_ref(), &domain, &range, 0, 0), choice);
                    prop_assert_eq!(&got, &reference, "{} under {:?}", name, choice);
                }
                for (name, m) in &padded {
                    let tiles = compute_tiles(m.as_ref(), &domain, &range, 0, 0);
                    let got = lowered(m.as_ref(), &tiles, choice);
                    let want = sorted_triplet_oracle(m.as_ref(), &tiles, choice);
                    prop_assert_eq!(got, want, "{} under {:?}", name, choice);
                    // Where an entry lands does not hang on the order
                    // it is enumerated in (BCSR's straddling blocks).
                    let reversed = Backwards(m.as_ref());
                    let got = lowered(&reversed, &tiles, choice);
                    let want = sorted_triplet_oracle(&reversed, &tiles, choice);
                    prop_assert_eq!(got, want, "{} backwards under {:?}", name, choice);
                }
                let raw_tiles = compute_tiles(&raw, &domain, &range, 0, 0);
                let want = sorted_triplet_oracle(&raw, &raw_tiles, choice);
                prop_assert_eq!(&lowered(&raw, &raw_tiles, choice), &want, "raw under {:?}", choice);
                prop_assert_eq!(&lowered(&Enumerated(&raw), &raw_tiles, choice), &want);
            }
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
