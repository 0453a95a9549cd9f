//! The banded kernel stays inside its declared footprint.
//!
//! `DiaTile::apply` reads `x` and writes `y` through slices it borrows
//! from the task's views, a block of rows at a time. In the dev profile
//! `ReadView::range` / `WriteView::range_mut` assert that every such
//! slice lies inside the subset the task declared, so running here is
//! the check: a *periodic* Laplacian's wrap-around entries give a
//! tile's column footprint gaps (the first tile of a 1-D ring reads
//! columns `0..=r` and column `n − 1`, nothing between), and a kernel
//! that sliced from a segment's first column to its last — instead of
//! only columns some entry of the block reads — would step into one.
//! Results are held bit for bit to the forced-CSR lowering, per apply,
//! per transpose apply and over a CG solve.
//!
//! A matrix-free stencil tile runs the same kernel over a band built
//! from geometry, inside footprints dependent partitioning derived from
//! the operator's relations — two descriptions of one set of entries
//! that nothing else holds together at this level. The second test is
//! that check, on pieces that cut grid lines and planes.

use std::sync::Arc;

use kdr_core::{solve_traced, CgSolver, ExecBackend, Planner, SolveControl, SOL};
use kdr_index::Partition;
use kdr_sparse::{Csr, KernelChoice, KernelKind, SparseMatrix, Stencil, Triples};

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

/// CG to 1e-10: the residual history and the solution, as bits.
fn cg_bits(p: &mut Planner<f64>, n: usize) -> (Vec<(usize, u64)>, Vec<u64>) {
    let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 5 + 2) % 11) as f64 * 0.25).collect();
    p.set_rhs_data(0, &b);
    let mut solver = CgSolver::new(p);
    let control = SolveControl {
        max_iters: 300,
        tol: 1e-10,
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
    for s in [Stencil::lap2d(13, 11), Stencil::lap3d27(7, 6, 5)] {
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
}
