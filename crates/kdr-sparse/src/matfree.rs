//! Matrix-free stencil tile kernels: zero-storage operator apply.
//!
//! Every other member of the [`crate::tile`] kernel family is lowered
//! from a tile's assembled entries and holds what it needs of them:
//! CSR/ELL/BCSR every value, DIA a dense column per diagonal — or, for
//! a diagonal whose entries are all the same bits, that one value. For
//! the paper's Laplacian workloads the values are a pure function of
//! the grid coordinate, so an assembled constant-coefficient band
//! already streams none of them through a product; what it still pays
//! is assembly — generating, extracting, sorting and lowering the
//! entries — and the tables that say where entries are. A
//! [`StencilTile`] stores *nothing per entry*: just the [`Stencil`]
//! descriptor and the tile's global row runs. Its apply walks the grid
//! geometry directly — each grid line's interior is swept
//! *offset-major* (one stride-1 fused-`mul_add` sweep per stencil
//! point surviving the line's outer-boundary clip, the weight in a
//! register, `y` read and written once per point), and the remaining
//! inner-boundary rows delegate to [`Stencil::row_entries`], the
//! single canonical Dirichlet boundary-clipping implementation shared
//! with every assembled path.
//!
//! # Bitwise contract
//!
//! The module honors the family-wide reproducibility contract of
//! [`crate::tile`]: each output element accumulates its contributions
//! in exactly the CSR reference order. The offset table is sorted
//! ascending, and on a row-major grid ascending linear offset *is*
//! ascending column for interior rows — so per output row the forward
//! sweeps land contributions in exactly the order of the
//! [`crate::tile::CsrTile::apply`] `mul_add` chain (sweeping
//! temporally reorders *between* rows, never within one, and masking
//! only removes entries the assembled row never stored). The
//! transpose sweeps offsets **descending**, so each output column
//! receives its contributions in ascending source-row order,
//! matching [`crate::tile::CsrTile::apply_t`] — the same trick as
//! [`crate::tile::DiaTile::apply_t`]. Boundary rows replay
//! [`Stencil::row_entries`], which emits ascending columns with
//! off-grid neighbors dropped — identical to what the assembled CSR
//! stored in the first place. Property tests in
//! `tests/kernel_prop.rs` enforce bit-equality against forced-CSR
//! lowering across random grid shapes, all four stencils, both
//! directions, and tile boundaries straddling grid planes.

use crate::scalar::Scalar;
use crate::stencil::Stencil;
use crate::tile::{VecIn, VecOut};

/// A matrix-free tile over a row slab of a [`Stencil`] operator: the
/// descriptor plus global row runs, zero stored values.
///
/// The tile covers rows `rows` × *all* columns of the stencil's
/// square operator (a row-slab tile of a single-component system, the
/// shape dependent partitioning produces for every paper workload),
/// in global = component-local coordinates.
#[derive(Clone, Debug)]
pub struct StencilTile<T> {
    stencil: Stencil,
    /// Global row runs `[lo, hi)`, ascending and disjoint.
    rows: Vec<(u64, u64)>,
    /// Exact stored-entry count of the assembled equivalent.
    nnz: usize,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Scalar> StencilTile<T> {
    /// A matrix-free tile applying `stencil` over the given global
    /// row runs (ascending, disjoint, within `stencil.unknowns()`).
    pub fn new(stencil: Stencil, rows: Vec<(u64, u64)>) -> Self {
        let n = stencil.unknowns();
        let mut prev = 0u64;
        for &(lo, hi) in &rows {
            assert!(lo <= hi && hi <= n, "row run [{lo}, {hi}) out of bounds");
            assert!(lo >= prev, "row runs must be ascending and disjoint");
            prev = hi;
        }
        let nnz = rows
            .iter()
            .map(|&(lo, hi)| stencil.slab_nnz(lo, hi))
            .sum::<u64>() as usize;
        StencilTile {
            stencil,
            rows,
            nnz,
            _marker: std::marker::PhantomData,
        }
    }

    /// The stencil descriptor.
    pub fn stencil(&self) -> &Stencil {
        &self.stencil
    }

    /// The tile's global row runs.
    pub fn rows(&self) -> &[(u64, u64)] {
        &self.rows
    }

    /// Entry count of the assembled equivalent (nothing is stored).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Execute `y += A x` (or `y += Aᵀ x` when `transpose`), bitwise
    /// identical to the forced-CSR lowering of the same rows.
    #[inline]
    pub fn apply<X: VecIn<T>, Y: VecOut<T>>(&self, x: &X, y: &mut Y, transpose: bool) {
        let table = self.stencil.offset_table();
        let w = table.len();
        let mut offs = [0i64; 27];
        let mut wts = [T::ZERO; 27];
        let mut disp = [(0i64, 0i64, 0i64); 27];
        for (k, &(o, d)) in table.iter().enumerate() {
            offs[k] = o;
            wts[k] = self.stencil.point_weight(d);
            disp[k] = d;
        }
        let mut scratch: Vec<(u64, T)> = Vec::with_capacity(w);
        for &(lo, hi) in &self.rows {
            self.apply_run(
                lo,
                hi,
                &offs[..w],
                &wts[..w],
                &disp[..w],
                x,
                y,
                transpose,
                &mut scratch,
            );
        }
    }

    /// One row run, decomposed along innermost-axis grid lines. Each
    /// line keeps the stencil points whose *outer* coordinates stay
    /// in-grid (constant along the line); the line's inner-axis
    /// interior is then swept offset-major over that masked table,
    /// and only the ≤ 2 inner-boundary rows replay
    /// [`Stencil::row_entries`]. Lines are visited strictly
    /// ascending, which the transpose contract requires (each output
    /// column must see ascending source rows).
    #[allow(clippy::too_many_arguments)]
    fn apply_run<X: VecIn<T>, Y: VecOut<T>>(
        &self,
        lo: u64,
        hi: u64,
        offs: &[i64],
        wts: &[T],
        disp: &[(i64, i64, i64)],
        x: &X,
        y: &mut Y,
        transpose: bool,
        scratch: &mut Vec<(u64, T)>,
    ) {
        let s = &self.stencil;
        let dims = s.kind.dims();
        // The innermost (fastest-varying) axis; a "line" is one
        // contiguous stretch of rows sharing all outer coordinates.
        let inner_n = match dims {
            1 => s.nx,
            2 => s.ny,
            _ => s.nz,
        };
        let mut m_offs = [0i64; 27];
        let mut m_wts = [T::ZERO; 27];
        let mut r = lo;
        while r < hi {
            let line = r / inner_n;
            let line_lo = line * inner_n;
            let line_hi = line_lo + inner_n;
            let seg_hi = hi.min(line_hi);
            if inner_n >= 3 {
                // Outer-coordinate clip for this line: keep the points
                // whose x/y displacement stays in-grid (the inner
                // displacement is covered by the inner-interior split
                // below). Masking preserves ascending-offset order, so
                // the surviving contributions accumulate exactly as
                // the assembled row stores them.
                let (lx, ly) = match dims {
                    1 => (0i64, 0i64),
                    2 => (line as i64, 0),
                    _ => ((line / s.ny) as i64, (line % s.ny) as i64),
                };
                let mut m = 0usize;
                for (k, &(dx, dy, _)) in disp.iter().enumerate() {
                    let ok = match dims {
                        1 => true,
                        2 => (0..s.nx as i64).contains(&(lx + dx)),
                        _ => {
                            (0..s.nx as i64).contains(&(lx + dx))
                                && (0..s.ny as i64).contains(&(ly + dy))
                        }
                    };
                    if ok {
                        m_offs[m] = offs[k];
                        m_wts[m] = wts[k];
                        m += 1;
                    }
                }
                let w0 = (line_lo + 1).clamp(r, seg_hi);
                let w1 = (line_hi - 1).clamp(r, seg_hi);
                self.boundary_rows(r, w0, x, y, transpose, scratch);
                if transpose {
                    Self::interior_t(w0, w1, &m_offs[..m], &m_wts[..m], x, y);
                } else {
                    Self::interior_fwd(w0, w1, &m_offs[..m], &m_wts[..m], x, y);
                }
                self.boundary_rows(w1, seg_hi, x, y, transpose, scratch);
            } else {
                // Degenerate inner axis: every row clips.
                self.boundary_rows(r, seg_hi, x, y, transpose, scratch);
            }
            r = seg_hi;
        }
    }

    /// Interior forward rows, swept offset-major. Per output row the
    /// contributions still land in ascending-offset = ascending-column
    /// order, so the FP accumulation sequence is exactly the CSR
    /// chain; but where a row-at-a-time loop is a serial `mul_add`
    /// dependency chain (latency-bound at ~4–5 cycles per entry), each
    /// offset sweep here is an independent stride-1 loop with the
    /// weight in a register, so the hardware overlaps rows freely.
    #[inline]
    fn interior_fwd<X: VecIn<T>, Y: VecOut<T>>(
        lo: u64,
        hi: u64,
        offs: &[i64],
        wts: &[T],
        x: &X,
        y: &mut Y,
    ) {
        let n = (hi - lo) as usize;
        if n == 0 {
            return;
        }
        let row0 = lo as usize;
        for (k, &w) in wts.iter().enumerate() {
            let col0 = (lo as i64 + offs[k]) as usize;
            // Slice fast path: equal-length subslices let the
            // compiler drop per-element bounds checks and vectorize
            // the fused multiply-adds (packed FMA is the same
            // operation per element, so bit-equality is unaffected).
            if let Some(xs) = x.range(col0, n) {
                if let Some(ys) = y.range_mut(row0, n) {
                    for (yi, &xi) in ys.iter_mut().zip(xs) {
                        *yi = w.mul_add(xi, *yi);
                    }
                    continue;
                }
            }
            for i in 0..n {
                let r = row0 + i;
                y.store(r, w.mul_add(x.load(col0 + i), y.load(r)));
            }
        }
    }

    /// Interior transpose rows: offset sweeps **descending**, so each
    /// output column receives its contributions in ascending source
    /// row order — the CSR-transpose contract, same trick as
    /// [`crate::tile::DiaTile::apply_t`].
    #[inline]
    fn interior_t<X: VecIn<T>, Y: VecOut<T>>(
        lo: u64,
        hi: u64,
        offs: &[i64],
        wts: &[T],
        x: &X,
        y: &mut Y,
    ) {
        let n = (hi - lo) as usize;
        if n == 0 {
            return;
        }
        let row0 = lo as usize;
        for (k, &w) in wts.iter().enumerate().rev() {
            let col0 = (lo as i64 + offs[k]) as usize;
            if let Some(xs) = x.range(row0, n) {
                if let Some(ys) = y.range_mut(col0, n) {
                    for (yj, &xi) in ys.iter_mut().zip(xs) {
                        *yj = w.mul_add(xi, *yj);
                    }
                    continue;
                }
            }
            for i in 0..n {
                let j = col0 + i;
                y.store(j, w.mul_add(x.load(row0 + i), y.load(j)));
            }
        }
    }

    /// Boundary rows: replay [`Stencil::row_entries`] — the one
    /// canonical Dirichlet clipping implementation — so the implicit
    /// path cannot drift from what assembly would have stored.
    fn boundary_rows<X: VecIn<T>, Y: VecOut<T>>(
        &self,
        lo: u64,
        hi: u64,
        x: &X,
        y: &mut Y,
        transpose: bool,
        scratch: &mut Vec<(u64, T)>,
    ) {
        for r in lo..hi {
            self.stencil.row_entries(r, scratch);
            if transpose {
                let xv = x.load(r as usize);
                for &(j, v) in scratch.iter() {
                    y.store(j as usize, v.mul_add(xv, y.load(j as usize)));
                }
            } else {
                let mut acc = y.load(r as usize);
                for &(j, v) in scratch.iter() {
                    acc = v.mul_add(x.load(j as usize), acc);
                }
                y.store(r as usize, acc);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::rhs_vector;
    use crate::tile::{KernelChoice, KernelKind, TileKernel};

    /// Forced-CSR lowering of the stencil's assembled rows restricted
    /// to `runs` — the bitwise ground truth.
    fn assembled(s: Stencil, runs: &[(u64, u64)]) -> TileKernel<f64> {
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        let mut vals = Vec::new();
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
        TileKernel::lower(&rows, &cols, &vals, KernelChoice::Force(KernelKind::Csr))
    }

    fn check(s: Stencil, runs: Vec<(u64, u64)>) {
        let n = s.unknowns() as usize;
        let tile = StencilTile::<f64>::new(s, runs.clone());
        let csr = assembled(s, &runs);
        assert_eq!(tile.nnz(), csr.nnz(), "nnz mismatch for {s:?}");
        let x = rhs_vector::<f64>(n as u64, 3);
        for transpose in [false, true] {
            let mut want = vec![0.25; n];
            let mut got = vec![0.25; n];
            csr.apply_slices(&x, &mut want, transpose);
            {
                let mut yy = &mut got[..];
                tile.apply(&(&x[..]), &mut yy, transpose);
            }
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{s:?} transpose {transpose} differs"
            );
        }
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
        // Axes of extent 1 or 2 leave no interior rows; everything
        // must flow through the row_entries boundary path and still
        // match bitwise.
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

    #[test]
    fn empty_runs_are_noops() {
        let s = Stencil::lap2d(5, 5);
        let tile = StencilTile::<f64>::new(s, vec![(3, 3)]);
        assert_eq!(tile.nnz(), 0);
        let x = [1.0; 25];
        let mut y = [7.0; 25];
        {
            let mut yy = &mut y[..];
            tile.apply(&(&x[..]), &mut yy, false);
        }
        assert!(y.iter().all(|&v| v == 7.0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_run_rejected() {
        StencilTile::<f64>::new(Stencil::lap1d(4), vec![(0, 5)]);
    }
}
