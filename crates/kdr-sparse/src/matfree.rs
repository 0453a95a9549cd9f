//! Matrix-free stencil tiles: the banded kernel over a band that was
//! never assembled.
//!
//! Every other member of the [`crate::tile`] kernel family is lowered
//! from a tile's assembled entries and holds what it needs of them:
//! CSR/ELL/BCSR every value, DIA a dense column per diagonal — or, for
//! a diagonal whose entries are all the same bits, that one value. For
//! the paper's Laplacian workloads the values are a pure function of
//! the grid coordinate, so an assembled constant-coefficient band
//! already streams none of them through a product; what it still pays
//! is assembly — generating, extracting, sorting and lowering the
//! entries. A [`StencilTile`] skips that and arrives at the same place:
//! it is the [`DiaTile`] that a [`Stencil`] descriptor and the tile's
//! global row runs stand for — every diagonal a
//! [`crate::tile::DiaCoef::Const`], no value array — built from the grid's geometry
//! in time linear in the tile's *grid lines*, never per entry, and
//! keeping neither the descriptor nor the runs. Its
//! product is [`DiaTile::apply`] / [`DiaTile::apply_t`]; there is no
//! second kernel.
//!
//! Registration reaches it through the operator alone: a
//! [`crate::StencilOperator`] lowers each of its tiles to one
//! ([`crate::SparseMatrix::lower_tile`]) under `Auto` or
//! `Force(Stencil)`, however the operator was added. A forced
//! assembled kind asks for stored values, and the operator is
//! enumerated and lowered like any other format.
//!
//! # What a tile holds
//!
//! Nothing per entry and no operator value: the at most 27 constants on
//! the band's diagonals are the descriptor's weights. What it does hold
//! is where entries are — the tables an assembled constant band keeps,
//! bit for bit the same ones: per diagonal its runs of rows, and the
//! segment table, which for a stencil is up to three segments per grid
//! line (first row, interior, last row) each listing the diagonals
//! present. That is at most about 22 bytes × stencil points per grid
//! line: 1.1 KB for a 512-row lap2d piece, 176 KB for a 16 000-row
//! lap3d27 piece (1 200 segments, 24 780 segment–diagonal pairs, 7 143
//! runs) next to 128 KB for one of its vector pieces.
//!
//! # Building it
//!
//! Each row run is cut at grid-line boundaries (a *line* is a stretch
//! of rows sharing all but the innermost coordinate) and each piece of
//! a line into its first row, its interior and its last row. Within
//! such a group every row holds the entries of the group's first row,
//! shifted: the outer coordinates are the line's, and the innermost one
//! is at neither end or at the same end. So [`Stencil::row_entries`] of
//! a group's first row — the single canonical Dirichlet
//! boundary-clipping implementation shared with every assembled path,
//! so the implicit path cannot drift from what assembly stores — gives
//! the group's diagonals and their weights. The weights are the
//! entries', not [`Stencil::offset_table`]'s: on a grid with an axis of
//! extent 1 or 2 several points share an offset and only the in-grid
//! one is right. The groups are walked twice, once for the offsets
//! present and once for the tables, which follow by the extend-or-open
//! rule the assembled lowering applies row by row
//! (`tile::BandBuilder`, the one implementation of it).
//!
//! # Bitwise contract
//!
//! The band is field for field what [`crate::tile::TileKernel::lower`]
//! with `Force(Dia)` makes of the same rows' assembled entries — its
//! box-stencil descriptor included, decided by the one test both share
//! (`BandBuilder::finish`) — so a matrix-free tile and its assembled
//! twin compute the same bits, forward and transposed, whichever path
//! the band takes. Against the CSR chain, what [`crate::tile`] states
//! of a `DiaTile` holds here too:
//!
//! * a band that is not a box stencil, and the transpose of every
//!   band, accumulate in ascending column — the
//!   [`crate::tile::CsrTile::apply`] chain, bit for bit. That is every
//!   lap1d, lap2d and lap3d7 band, and a lap3d27 band whose rows
//!   between them hold fewer than the 27 box diagonals: always on a
//!   grid with an axis of extent 1, and on an axis of extent 2 when
//!   every row lies on one side of it. No single row has to hold all
//!   27: on lap3d27 2×5×7 no row holds more than 18, yet the middle of
//!   three pieces has rows in both `x` planes and is a box band
//!   (`a_band_across_both_planes_of_an_extent_two_axis_is_a_box_band`);
//! * the forward product of a lap3d27 box band is sum-factored: each
//!   row's bits are a function of the operator and `x` alone, the same
//!   whichever box tile computes the row, and within
//!   [`crate::tile::BOX_STENCIL_EPS_BOUND`]` · ε · (|y₀| + Σⱼ |aᵢⱼ|
//!   |xⱼ|)` of the CSR chain. `Force(Csr)` is the exact-bits override.
//!
//! Property tests in `tests/kernel_prop.rs` enforce the structural
//! equality, the bound and the tiling independence, and bit-equality
//! against forced-CSR lowering everywhere else, across random grid
//! shapes, all four stencils, both directions, and tile boundaries
//! straddling grid planes.

use std::collections::BTreeSet;

use crate::scalar::Scalar;
use crate::stencil::Stencil;
use crate::tile::{BandBuilder, DiaTile};

/// A matrix-free tile over a row slab of a [`Stencil`] operator: the
/// constant band the descriptor and the slab's global row runs stand
/// for — no stored operator value. [`crate::StencilOperator`]'s
/// [`crate::SparseMatrix::lower_tile`] builds one per tile.
///
/// The tile covers rows `rows` × *all* columns of the stencil's
/// square operator (a row-slab tile of a single-component system, the
/// shape dependent partitioning produces for every paper workload),
/// in global = component-local coordinates.
#[derive(Clone, Debug)]
pub struct StencilTile<T> {
    /// The rows' entries as a band of constants.
    band: DiaTile<T>,
}

/// Visit the row groups `[lo, hi)` of `rows`, ascending: each run cut
/// at grid-line boundaries, each piece of a line into first row /
/// interior / last row. Lines of extent 1 and 2 have no interior and
/// fall out of the same two clamps.
fn for_each_group(stencil: &Stencil, rows: &[(u64, u64)], mut f: impl FnMut(u64, u64)) {
    // The innermost (fastest-varying) axis; a "line" is one contiguous
    // stretch of rows sharing all outer coordinates.
    let inner_n = match stencil.kind.dims() {
        1 => stencil.nx,
        2 => stencil.ny,
        _ => stencil.nz,
    };
    for &(lo, hi) in rows {
        let mut r = lo;
        while r < hi {
            let line_lo = r / inner_n * inner_n;
            let line_hi = line_lo + inner_n;
            let piece_hi = hi.min(line_hi);
            let w0 = (line_lo + 1).clamp(r, piece_hi);
            let w1 = (line_hi - 1).clamp(w0, piece_hi);
            for (from, to) in [(r, w0), (w0, w1), (w1, piece_hi)] {
                if from < to {
                    f(from, to);
                }
            }
            r = piece_hi;
        }
    }
}

impl<T: Scalar> StencilTile<T> {
    /// A matrix-free tile applying `stencil` over the given global
    /// row runs (ascending, disjoint, within `stencil.unknowns()`).
    /// Builds the tile's band in time linear in the grid lines the
    /// runs touch. Panics when the runs span more rows than the band's
    /// `u32` local row indices reach.
    pub fn new(stencil: Stencil, rows: Vec<(u64, u64)>) -> Self {
        let n = stencil.unknowns();
        let mut prev = 0u64;
        for &(lo, hi) in &rows {
            assert!(lo <= hi && hi <= n, "row run [{lo}, {hi}) out of bounds");
            assert!(lo >= prev, "row runs must be ascending and disjoint");
            prev = hi;
        }
        let mut held = rows.iter().filter(|&&(lo, hi)| lo < hi);
        let (row_lo, first_hi) = held.next().copied().unwrap_or((0, 0));
        let nrows = held.next_back().map_or(first_hi, |&(_, hi)| hi) - row_lo;
        assert!(
            nrows <= u64::from(u32::MAX),
            "a stencil tile spanning {nrows} rows exceeds the band's u32 local rows (at most {})",
            u32::MAX
        );
        // The offsets present, then the tables: two walks over the
        // groups, the first row of each standing for all of its rows.
        let mut entries: Vec<(u64, T)> = Vec::new();
        let mut present = BTreeSet::new();
        for_each_group(&stencil, &rows, |lo, _| {
            stencil.row_entries(lo, &mut entries);
            present.extend(entries.iter().map(|&(col, _)| col as i64 - lo as i64));
        });
        let mut band = BandBuilder::new(row_lo, nrows as usize, present.into_iter().collect());
        for_each_group(&stencil, &rows, |lo, hi| {
            stencil.row_entries(lo, &mut entries);
            let shifted = entries.iter().map(|&(col, weight)| (col as i64 - lo as i64, weight));
            band.group(((lo - row_lo) as u32, (hi - row_lo) as u32), shifted);
        });
        StencilTile { band: band.finish() }
    }

    /// The band of constants the tile's product runs: what
    /// `Force(Dia)` lowering makes of the same rows' assembled entries.
    pub fn band(&self) -> &DiaTile<T> {
        &self.band
    }

    /// Entry count of the assembled equivalent (no entry is stored),
    /// off the band's runs.
    pub fn nnz(&self) -> usize {
        self.band.nnz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::rhs_vector;
    use crate::tile::{DiaCoef, KernelChoice, KernelKind, TileKernel, BOX_STENCIL_EPS_BOUND};
    use crate::triples::xorshift;

    /// The stencil's assembled rows restricted to `runs`, as triplets.
    fn triplets(s: Stencil, runs: &[(u64, u64)]) -> (Vec<u64>, Vec<u64>, Vec<f64>) {
        let (mut rows, mut cols, mut vals) = (Vec::new(), Vec::new(), Vec::new());
        let mut row = Vec::new();
        for &(lo, hi) in runs {
            for r in lo..hi {
                s.row_entries::<f64>(r, &mut row);
                for &(c, v) in &row {
                    rows.push(r);
                    cols.push(c);
                    vals.push(v);
                }
            }
        }
        (rows, cols, vals)
    }

    /// Forced lowering of the stencil's assembled rows restricted to
    /// `runs`: `Csr` is the bitwise ground truth.
    fn assembled(s: Stencil, runs: &[(u64, u64)], kind: KernelKind) -> TileKernel<f64> {
        let (rows, cols, vals) = triplets(s, runs);
        TileKernel::lower(&rows, &cols, &vals, KernelChoice::Force(kind))
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|v| v.to_bits()).collect()
    }

    /// `y + A x` (or `y + Aᵀ x`) by `apply`, from `0.25` everywhere.
    fn product(x: &[f64], transpose: bool, apply: impl Fn(&[f64], &mut [f64], bool)) -> Vec<f64> {
        let mut y = vec![0.25; x.len()];
        apply(x, &mut y, transpose);
        y
    }

    /// The tile of `runs` against the forced-CSR lowering of the same
    /// rows: bitwise, or — a box band's forward product — within the
    /// box bound and bitwise equal to the forced-DIA lowering's. Both
    /// on `rhs_vector` input and on input whose sums round.
    fn check(s: Stencil, runs: Vec<(u64, u64)>) {
        let n = s.unknowns() as usize;
        let tile = StencilTile::<f64>::new(s, runs.clone());
        let boxed = tile.band().box_stencil.is_some();
        let tile = TileKernel::Stencil(tile);
        let csr = assembled(s, &runs, KernelKind::Csr);
        let dia = assembled(s, &runs, KernelKind::Dia);
        assert_eq!(tile.nnz(), csr.nnz(), "nnz mismatch for {s:?}");
        let mut next = xorshift(n as u64);
        let rounding: Vec<f64> = (0..n).map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5).collect();
        for x in [rhs_vector::<f64>(n as u64, 3), rounding] {
            for transpose in [false, true] {
                let want = product(&x, transpose, |x, y, t| csr.apply_slices(x, y, t));
                let got = product(&x, transpose, |x, y, t| tile.apply_slices(x, y, t));
                if !boxed || transpose {
                    assert_eq!(bits(&got), bits(&want), "{s:?} transpose {transpose} differs");
                    continue;
                }
                let forced_dia = product(&x, false, |x, y, t| dia.apply_slices(x, y, t));
                assert_eq!(bits(&got), bits(&forced_dia), "{s:?}: box differs from forced DIA");
                let scale = product(&x.iter().map(|v| v.abs()).collect::<Vec<_>>(), false, |x, y, t| {
                    let abs = assembled_abs(s, &runs);
                    abs.apply_slices(x, y, t)
                });
                for (i, ((g, w), m)) in got.iter().zip(&want).zip(&scale).enumerate() {
                    let bound = BOX_STENCIL_EPS_BOUND * f64::EPSILON * m;
                    assert!((g - w).abs() <= bound, "{s:?} row {i}: {g:e} against {w:e}");
                }
            }
        }
    }

    /// [`assembled`] with every value made its magnitude: `|y₀| + |A| |x|`
    /// from `y₀ = 0.25` is the scale of the box bound.
    fn assembled_abs(s: Stencil, runs: &[(u64, u64)]) -> TileKernel<f64> {
        let (rows, cols, vals) = triplets(s, runs);
        let vals: Vec<f64> = vals.iter().map(|v| v.abs()).collect();
        TileKernel::lower(&rows, &cols, &vals, KernelChoice::Force(KernelKind::Csr))
    }

    /// Unpreconditioned CG on `apply` from zero to `‖r‖ ≤ tol · ‖b‖`:
    /// the iterations and the solution.
    fn cg(apply: impl Fn(&[f64]) -> Vec<f64>, b: &[f64], tol: f64) -> (usize, Vec<f64>) {
        let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(a, b)| a * b).sum::<f64>();
        let (mut x, mut r, mut p) = (vec![0.0; b.len()], b.to_vec(), b.to_vec());
        let (mut rr, stop) = (dot(b, b), tol * tol * dot(b, b));
        for iter in 1..=500 {
            let q = apply(&p);
            let alpha = rr / dot(&p, &q);
            for i in 0..b.len() {
                x[i] += alpha * p[i];
                r[i] -= alpha * q[i];
            }
            let next = dot(&r, &r);
            if next <= stop {
                return (iter, x);
            }
            for i in 0..b.len() {
                p[i] = r[i] + next / rr * p[i];
            }
            rr = next;
        }
        panic!("CG did not converge");
    }

    #[test]
    fn full_operator_matches_csr_all_kinds() {
        for s in [
            Stencil::lap1d(13),
            Stencil::lap2d(7, 5),
            Stencil::lap3d7(4, 3, 5),
            Stencil::lap3d27(3, 4, 3),
        ] {
            let n = s.unknowns();
            check(s, vec![(0, n)]);
        }
        // lap3d27 3×4×3 is a box band. Its rows keep their bits in 4 and
        // 7 pieces wherever a piece is a box band too, and CG on it takes
        // within one iteration of CG on the forced-CSR operator, to a
        // true residual (by the CSR product) within ten times `tol`.
        let s = Stencil::lap3d27(3, 4, 3);
        let n = s.unknowns();
        let whole = StencilTile::<f64>::new(s, vec![(0, n)]);
        assert!(whole.band().box_stencil.is_some());
        let x = rhs_vector::<f64>(n, 5).iter().map(|v| v / 3.0).collect::<Vec<_>>();
        let one = product(&x, false, |x, y, _| whole.band().apply(&x, &mut &mut *y));
        for pieces in [4, 7] {
            let bound = |p: u64| p * n / pieces;
            let tiles: Vec<_> = (0..pieces)
                .map(|p| StencilTile::<f64>::new(s, vec![(bound(p), bound(p + 1))]))
                .collect();
            let cut = product(&x, false, |x, y, _| {
                tiles.iter().for_each(|t| t.band().apply(&x, &mut &mut *y))
            });
            let boxed = (0..).zip(&tiles).filter(|(_, t)| t.band().box_stencil.is_some());
            for (p, _) in boxed {
                let rows = bound(p) as usize..bound(p + 1) as usize;
                assert_eq!(bits(&cut[rows.clone()]), bits(&one[rows]), "{pieces} pieces");
            }
        }
        let csr = assembled(s, &[(0, n)], KernelKind::Csr);
        let csr_apply = |x: &[f64]| {
            let mut y = vec![0.0; x.len()];
            csr.apply_slices(x, &mut y, false);
            y
        };
        let box_apply = |x: &[f64]| {
            let mut y = vec![0.0; x.len()];
            whole.band().apply(&x, &mut &mut y[..]);
            y
        };
        let tol = 1e-10;
        let b = rhs_vector::<f64>(n, 7);
        let ((box_iters, sol), (csr_iters, _)) = (cg(box_apply, &b, tol), cg(csr_apply, &b, tol));
        assert!(box_iters.abs_diff(csr_iters) <= 1, "{box_iters} iterations, CSR {csr_iters}");
        let resid: f64 = b.iter().zip(csr_apply(&sol)).map(|(b, a)| (b - a) * (b - a)).sum();
        assert!(resid.sqrt() / b.iter().map(|b| b * b).sum::<f64>().sqrt() <= 10.0 * tol);
    }

    #[test]
    fn partial_runs_straddling_grid_planes() {
        let s = Stencil::lap3d7(4, 4, 4);
        // Runs cutting mid-line, mid-plane, and across the x boundary.
        check(s, vec![(0, 3), (5, 21), (30, 47), (60, 64)]);
        let s2 = Stencil::lap2d(9, 6);
        check(s2, vec![(2, 11), (17, 40), (49, 54)]);
    }

    #[test]
    fn degenerate_extents_take_boundary_path() {
        // Axes of extent 1 or 2 leave no interior rows: every group is
        // a line's first or last row, and on such grids several stencil
        // points can share one offset. Still bitwise.
        for s in [
            Stencil::lap1d(2),
            Stencil::lap2d(1, 8),
            Stencil::lap2d(8, 2),
            Stencil::lap3d7(2, 5, 1),
            Stencil::lap3d27(1, 3, 3),
        ] {
            let n = s.unknowns();
            check(s, vec![(0, n)]);
        }
    }

    /// An axis of extent 2 does not keep a band off the box path: the
    /// middle of three pieces of lap3d27 2×5×7 holds rows of both
    /// `x` planes, so its rows hold every one of the 27 diagonals
    /// between them — none of them holds all 27 — and its forward
    /// product is sum-factored, as the whole grid's is. The outer
    /// pieces each lie in one plane, hold 18 diagonals and run the CSR
    /// chain's bits.
    #[test]
    fn a_band_across_both_planes_of_an_extent_two_axis_is_a_box_band() {
        let s = Stencil::lap3d27(2, 5, 7);
        let n = s.unknowns();
        let bound = |p: u64| p * n / 3;
        for (runs, boxed) in [
            ((bound(0), bound(1)), false),
            ((bound(1), bound(2)), true),
            ((bound(2), bound(3)), false),
            ((0, n), true),
        ] {
            let tile = StencilTile::<f64>::new(s, vec![runs]);
            let band = tile.band();
            assert_eq!(band.box_stencil.is_some(), boxed, "rows {runs:?}");
            assert_eq!(band.offsets.len(), if boxed { 27 } else { 18 }, "rows {runs:?}");
            let most = band.seg_ptr.windows(2).map(|w| w[1] - w[0]).max();
            assert_eq!(most, Some(18), "rows {runs:?}: no row holds all 27 diagonals");
            check(s, vec![runs]);
        }
    }

    #[test]
    fn empty_runs_are_noops() {
        let s = Stencil::lap2d(5, 5);
        let tile = StencilTile::<f64>::new(s, vec![(3, 3)]);
        assert_eq!(tile.nnz(), 0);
        let x = [1.0; 25];
        let mut y = [7.0; 25];
        TileKernel::Stencil(tile).apply_slices(&x, &mut y, false);
        assert!(y.iter().all(|&v| v == 7.0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_run_rejected() {
        StencilTile::<f64>::new(Stencil::lap1d(4), vec![(0, 5)]);
    }

    #[test]
    #[should_panic(expected = "exceeds the band's u32 local rows (at most 4294967295)")]
    fn row_span_past_u32_rejected() {
        // Two rows, 2^32 + 1 apart: the second has no u32 local index.
        let far = 1u64 << 32;
        StencilTile::<f64>::new(Stencil::lap1d(1 << 33), vec![(0, 1), (far + 1, far + 2)]);
    }

    #[test]
    fn band_grows_with_grid_lines_not_rows() {
        // What the tile holds is per grid line: at most three segments
        // a line and a run per stencil point a line, no value array.
        let s = Stencil::lap3d27(40, 40, 40);
        let piece = StencilTile::<f64>::new(s, vec![(16_000, 32_000)]);
        let (band, lines) = (piece.band(), 16_000 / 40);
        assert_eq!(piece.nnz() as u64, s.slab_nnz(16_000, 32_000));
        assert!(band.seg_rows.len() <= 3 * lines, "{} segments", band.seg_rows.len());
        assert!(band.runs.len() <= 27 * lines, "{} runs", band.runs.len());
        assert!(band.vals.is_empty());
        assert!(band.coefs.iter().all(|c| matches!(c, DiaCoef::Const(_))));

        // 128³ whole stands for 56 M entries over 2 M rows; building it
        // visits its 16 384 lines, and the tables show it.
        let s = Stencil::lap3d27(128, 128, 128);
        let whole = StencilTile::<f64>::new(s, vec![(0, s.unknowns())]);
        let (band, lines) = (whole.band(), 128 * 128);
        assert_eq!(whole.nnz() as u64, s.nnz());
        assert_eq!(band.offsets.len(), 27);
        assert!(band.seg_rows.len() <= 3 * lines, "{} segments", band.seg_rows.len());
        assert!(band.seg_diags.len() <= 27 * 3 * lines, "{} pairs", band.seg_diags.len());
        assert!(band.runs.len() <= 27 * lines, "{} runs", band.runs.len());
        assert!(band.vals.is_empty());
    }
}
