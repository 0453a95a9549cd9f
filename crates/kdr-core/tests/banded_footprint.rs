//! The banded kernel stays inside its declared footprint.
//!
//! `DiaTile::apply` reads `x` and writes `y` through slices it borrows
//! from the task's views, a pass of rows at a time. In the dev profile
//! `ReadView::range` / `WriteView::range_mut` assert that every such
//! slice lies inside the subset the task declared, so running here is
//! the check: a *periodic* Laplacian's wrap-around entries give a
//! tile's column footprint gaps (the first tile of a 1-D ring reads
//! columns `0..=r` and column `n − 1`, nothing between), and a kernel
//! that sliced from a segment's first column to its last — instead of
//! only columns some entry of the pass reads — would step into one.
//! Results are held bit for bit to the forced-CSR lowering, per apply,
//! per transpose apply and over a CG solve.
//!
//! A matrix-free stencil tile runs the same kernel over a band built
//! from geometry, inside footprints dependent partitioning derived from
//! the operator's relations — two descriptions of one set of entries
//! that nothing else holds together at this level. Two tests are that
//! check, on pieces that cut grid lines and planes; a third cuts an
//! assembled 2-D band mid-line, where a pass joins the line ends on
//! both sides of a tile's first and last row. A lap3d27
//! piece is a box-stencil band, whose forward product sums its
//! neighbour lines first (`tile.rs`, "One exception"): it reads only
//! what the piece declares too, but its rows are held to the CSR chain
//! within the box bound, bitwise to the forced-DIA lowering and across
//! piece counts, and its CG to within one iteration of forced CSR.

use std::sync::Arc;

use kdr_core::{solve_traced, CgSolver, ExecBackend, Planner, SolveControl, SOL};
use kdr_index::Partition;
use kdr_sparse::tile::BOX_STENCIL_EPS_BOUND;
use kdr_sparse::{Csr, KernelChoice, KernelKind, SparseMatrix, Stencil, StencilTile, Triples};

/// The Laplacian of an `nx × ny` torus (`ny == 1`: a ring of `nx`),
/// row-major, with the diagonal raised by one so it is positive
/// definite and CG converges.
fn periodic_laplacian(nx: u64, ny: u64) -> Csr<f64> {
    let n = nx * ny;
    let mut entries = Vec::new();
    for x in 0..nx {
        for y in 0..ny {
            let at = |x: u64, y: u64| (x % nx) * ny + y % ny;
            let mut neighbours = vec![at(x + nx - 1, y), at(x + 1, y)];
            if ny > 1 {
                neighbours.extend([at(x, y + ny - 1), at(x, y + 1)]);
            }
            entries.push((at(x, y), at(x, y), neighbours.len() as f64 + 1.0));
            entries.extend(neighbours.into_iter().map(|j| (at(x, y), j, -1.0)));
        }
    }
    Csr::from_triples(Triples::from_entries(n, n, entries))
}

/// A planner over `n` unknowns in `pieces` equal blocks, its one
/// operator registered by `add` on the (sol, rhs) vector pair.
fn planner_with(
    n: u64,
    pieces: usize,
    choice: KernelChoice,
    add: impl FnOnce(&mut Planner<f64>, usize, usize),
) -> Planner<f64> {
    let mut p = Planner::new(Box::new(ExecBackend::<f64>::new(2)));
    p.set_kernel_choice(choice);
    let part = Partition::equal_blocks(n, pieces);
    let d = p.add_sol_vector(n, Some(part.clone()));
    let r = p.add_rhs_vector(n, Some(part));
    add(&mut p, d, r);
    p
}

fn planner(m: &Csr<f64>, pieces: usize, choice: KernelChoice) -> Planner<f64> {
    planner_with(m.range_space().size(), pieces, choice, |p, d, r| {
        let m: Arc<dyn SparseMatrix<f64>> = Arc::new(m.clone());
        p.add_operator(m, d, r);
    })
}

/// The stencil registered by descriptor: matrix-free under `Auto`,
/// assembled from the same descriptor under a forced assembled kind.
fn stencil_planner(s: Stencil, pieces: usize, choice: KernelChoice) -> Planner<f64> {
    planner_with(s.unknowns(), pieces, choice, |p, d, r| {
        p.add_stencil_operator(s, d, r);
    })
}

fn tiles_by_kernel(p: &mut Planner<f64>) -> std::collections::BTreeMap<&'static str, usize> {
    p.with_backend(|b| {
        b.as_any()
            .downcast_mut::<ExecBackend<f64>>()
            .expect("exec backend")
            .metrics()
            .tiles_by_kernel
    })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn apply_bits(p: &mut Planner<f64>, x: &[f64], transpose: bool) -> Vec<u64> {
    let w = p.allocate_workspace_vector();
    let y = p.allocate_workspace_vector();
    p.set_sol_data(0, x);
    p.copy(w, SOL);
    if transpose {
        p.matmul_transpose(y, w);
    } else {
        p.matmul(y, w);
    }
    p.fence();
    bits(&p.read_component(y, 0))
}

/// The tolerance [`cg_bits`] solves to.
const CG_TOL: f64 = 1e-10;

/// The right-hand side [`cg_bits`] solves for.
fn cg_rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + ((i * 5 + 2) % 11) as f64 * 0.25).collect()
}

/// CG to [`CG_TOL`]: the residual history and the solution, as bits.
fn cg_bits(p: &mut Planner<f64>, n: usize) -> (Vec<(usize, u64)>, Vec<u64>) {
    p.set_rhs_data(0, &cg_rhs(n));
    let mut solver = CgSolver::new(p);
    let control = SolveControl {
        max_iters: 300,
        tol: CG_TOL,
        check_every: 1,
        ..SolveControl::default()
    };
    let (outcome, trace) = solve_traced(p, &mut solver, control);
    assert!(outcome.expect("an SPD solve").converged);
    let history = trace
        .residual_history
        .iter()
        .map(|&(i, r)| (i, r.to_bits()))
        .collect();
    (history, bits(&p.read_component(SOL, 0)))
}

#[test]
fn periodic_bands_stay_inside_their_footprint_and_match_csr() {
    for (nx, ny) in [(101, 1), (12, 11)] {
        let m = periodic_laplacian(nx, ny);
        let n = (nx * ny) as usize;
        let x: Vec<f64> = (0..n).map(|i| 0.25 + ((i * 7 + 3) % 17) as f64 * 0.125).collect();
        for pieces in [4, 7] {
            let what = format!("{nx}x{ny} torus in {pieces} pieces");
            let mut dia = planner(&m, pieces, KernelChoice::Auto);
            let mut csr = planner(&m, pieces, KernelChoice::Force(KernelKind::Csr));
            for transpose in [false, true] {
                assert_eq!(
                    apply_bits(&mut dia, &x, transpose),
                    apply_bits(&mut csr, &x, transpose),
                    "{what}, transpose {transpose}"
                );
            }
            // Registration is lazy: the tiles exist once a product ran.
            let lowered = tiles_by_kernel(&mut dia);
            assert_eq!(lowered.get("dia"), Some(&pieces), "{what}: {lowered:?}");
            let (dia_history, dia_x) = cg_bits(&mut dia, n);
            let (csr_history, csr_x) = cg_bits(&mut csr, n);
            assert!(dia_history.len() > 5, "{what}: {} residuals", dia_history.len());
            assert_eq!(dia_history, csr_history, "{what}: residual histories");
            assert_eq!(dia_x, csr_x, "{what}: solutions");
        }
    }
}

#[test]
fn matrix_free_bands_stay_inside_their_footprint_and_match_csr() {
    let s = Stencil::lap2d(13, 11);
    let n = s.unknowns() as usize;
    let x: Vec<f64> = (0..n).map(|i| 0.25 + ((i * 7 + 3) % 17) as f64 * 0.125).collect();
    for pieces in [4, 7] {
        let what = format!("{s:?} in {pieces} pieces");
        let mut free = stencil_planner(s, pieces, KernelChoice::Auto);
        let mut csr = stencil_planner(s, pieces, KernelChoice::Force(KernelKind::Csr));
        for transpose in [false, true] {
            assert_eq!(
                apply_bits(&mut free, &x, transpose),
                apply_bits(&mut csr, &x, transpose),
                "{what}, transpose {transpose}"
            );
        }
        let built = tiles_by_kernel(&mut free);
        assert_eq!(built.get("stencil"), Some(&pieces), "{what}: {built:?}");
        let (free_history, free_x) = cg_bits(&mut free, n);
        let (csr_history, csr_x) = cg_bits(&mut csr, n);
        assert!(free_history.len() > 5, "{what}: {} residuals", free_history.len());
        assert_eq!(free_history, csr_history, "{what}: residual histories");
        assert_eq!(free_x, csr_x, "{what}: solutions");
    }
}

/// The lap2d operator of `s` assembled, its diagonal raised by
/// `(r mod 3) / 2` in row `r` when `varied` (a dense column; still
/// symmetric and diagonally dominant, so CG converges).
fn assembled_lap2d(s: Stencil, varied: bool) -> Csr<f64> {
    let n = s.unknowns();
    let mut entries = Vec::new();
    let mut row = Vec::new();
    for r in 0..n {
        s.row_entries::<f64>(r, &mut row);
        for &(c, v) in &row {
            let raise = if varied && c == r { (r % 3) as f64 * 0.5 } else { 0.0 };
            entries.push((r, c, v + raise));
        }
    }
    Csr::from_triples(Triples::from_entries(n, n, entries))
}

#[test]
fn assembled_2d_bands_cut_mid_line_stay_inside_their_footprint_and_match_csr() {
    // Lines of 11 rows; 3 and 5 equal pieces of 143 rows cut them
    // mid-line, so a tile's first and last rows are anywhere in a line
    // and its passes join line ends on both sides. Constant
    // coefficients run the pass loop, a varied diagonal the blocks.
    let s = Stencil::lap2d(13, 11);
    let n = s.unknowns() as usize;
    let x: Vec<f64> = (0..n).map(|i| 0.25 + ((i * 7 + 3) % 17) as f64 * 0.125).collect();
    for varied in [false, true] {
        let m = assembled_lap2d(s, varied);
        for pieces in [3, 5] {
            let what = format!("{s:?} (varied {varied}) in {pieces} pieces");
            let mut dia = planner(&m, pieces, KernelChoice::Auto);
            let mut csr = planner(&m, pieces, KernelChoice::Force(KernelKind::Csr));
            for transpose in [false, true] {
                assert_eq!(
                    apply_bits(&mut dia, &x, transpose),
                    apply_bits(&mut csr, &x, transpose),
                    "{what}, transpose {transpose}"
                );
            }
            let lowered = tiles_by_kernel(&mut dia);
            assert_eq!(lowered.get("dia"), Some(&pieces), "{what}: {lowered:?}");
            let (dia_history, dia_x) = cg_bits(&mut dia, n);
            let (csr_history, csr_x) = cg_bits(&mut csr, n);
            assert!(dia_history.len() > 5, "{what}: {} residuals", dia_history.len());
            assert_eq!(dia_history, csr_history, "{what}: residual histories");
            assert_eq!(dia_x, csr_x, "{what}: solutions");
        }
    }
}

/// The pieces of `n` rows in `pieces` equal blocks that are box-stencil
/// bands of `s`, as row ranges.
fn box_pieces(s: Stencil, pieces: usize) -> Vec<std::ops::Range<usize>> {
    let part = Partition::equal_blocks(s.unknowns(), pieces);
    let runs = part.pieces().iter().map(|piece| piece.runs()[0]);
    runs.filter(|run| {
        let tile = StencilTile::<f64>::new(s, vec![(run.lo, run.hi)]);
        tile.band().box_stencil.is_some()
    })
    .map(|run| run.lo as usize..run.hi as usize)
    .collect()
}

#[test]
fn matrix_free_box_bands_stay_inside_their_footprint_and_near_csr() {
    // lap3d27 7×6×5: a box band in every piece of 4, and in the five
    // interior planes of 7 (the first and last plane alone hold 18 of
    // the 27 diagonals, so they keep the DIA loop). The box rows are
    // held to the forced-CSR chain within the box bound, and bitwise to
    // the forced-DIA lowering and across the two piece counts; CG takes
    // within one iteration of forced CSR.
    let s = Stencil::lap3d27(7, 6, 5);
    let n = s.unknowns() as usize;
    let m: Csr<f64> = s.to_csr();
    let x: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 17) as f64 / 3.0 - 2.5).collect();
    let mut forward = Vec::new();
    for pieces in [4, 7] {
        let what = format!("{s:?} in {pieces} pieces");
        let mut free = stencil_planner(s, pieces, KernelChoice::Auto);
        let mut dia = stencil_planner(s, pieces, KernelChoice::Force(KernelKind::Dia));
        let mut csr = stencil_planner(s, pieces, KernelChoice::Force(KernelKind::Csr));
        let got = apply_bits(&mut free, &x, false);
        assert_eq!(got, apply_bits(&mut dia, &x, false), "{what}: forced DIA");
        let want = apply_bits(&mut csr, &x, false);
        let mut scale = vec![0.0; n];
        m.spmv(&x.iter().map(|v| v.abs()).collect::<Vec<_>>(), &mut scale);
        let boxes = box_pieces(s, pieces);
        assert_eq!(boxes.len(), if pieces == 4 { 4 } else { 5 }, "{what}: {boxes:?}");
        for i in 0..n {
            let (g, w) = (f64::from_bits(got[i]), f64::from_bits(want[i]));
            if boxes.iter().any(|b| b.contains(&i)) {
                let bound = BOX_STENCIL_EPS_BOUND * f64::EPSILON * scale[i].abs();
                assert!((g - w).abs() <= bound, "{what}: row {i}: {g:e} against {w:e}");
            } else {
                assert_eq!(got[i], want[i], "{what}: row {i} keeps the DIA loop");
            }
        }
        forward.push((got, boxes));
        assert_eq!(
            apply_bits(&mut free, &x, true),
            apply_bits(&mut csr, &x, true),
            "{what}, transpose"
        );
        let built = tiles_by_kernel(&mut free);
        assert_eq!(built.get("stencil"), Some(&pieces), "{what}: {built:?}");
        let (free_history, free_x) = cg_bits(&mut free, n);
        let (dia_history, dia_x) = cg_bits(&mut dia, n);
        assert_eq!((&free_history, &free_x), (&dia_history, &dia_x), "{what}: forced DIA CG");
        let (csr_history, _) = cg_bits(&mut csr, n);
        assert!(
            free_history.len().abs_diff(csr_history.len()) <= 1,
            "{what}: {} iterations, forced CSR {}",
            free_history.len(),
            csr_history.len()
        );
        let sol: Vec<f64> = free_x.iter().map(|&b| f64::from_bits(b)).collect();
        let b = cg_rhs(n);
        let mut ax = vec![0.0; n];
        m.spmv(&sol, &mut ax);
        let resid = b.iter().zip(&ax).map(|(b, a)| (b - a) * (b - a)).sum::<f64>().sqrt();
        let norm = b.iter().map(|b| b * b).sum::<f64>().sqrt();
        assert!(resid / norm <= 10.0 * CG_TOL, "{what}: true residual {:e}", resid / norm);
    }
    let [(four, four_boxes), (seven, seven_boxes)] = &forward[..] else { unreachable!() };
    for i in 0..n {
        let boxed = |b: &[std::ops::Range<usize>]| b.iter().any(|r| r.contains(&i));
        if boxed(four_boxes) && boxed(seven_boxes) {
            assert_eq!(four[i], seven[i], "row {i} in 4 and in 7 pieces");
        }
    }
}
