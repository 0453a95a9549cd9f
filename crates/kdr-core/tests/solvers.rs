//! End-to-end solver tests on the execution backend: every KSM must
//! actually solve linear systems, through the full planner → tiles →
//! task runtime stack.

use std::sync::Arc;

use kdr_core::{
    precond, solve, solve_traced, BiCgSolver, BiCgStabSolver, CancelToken, CgSolver, CgsSolver,
    ChebyshevSolver, ExecBackend, FusedCgSolver, GmresSolver, MinresSolver, PipelinedCgSolver,
    PipelinedCrSolver, Planner, SStepCgSolver, SolveControl, SolveOutcome, SolveTrace, Solver,
    StepDriver, TfqmrSolver, RHS, SOL,
};
use kdr_index::Partition;
use kdr_sparse::stencil::rhs_vector;
use kdr_sparse::{Csr, SparseMatrix, Stencil, StencilOperator, Triples};

fn poisson_planner(nx: u64, ny: u64, pieces: usize, workers: usize) -> (Planner<f64>, Vec<f64>) {
    let s = Stencil::lap2d(nx, ny);
    let n = s.unknowns();
    let m: Arc<dyn SparseMatrix<f64>> = Arc::new(s.to_csr::<f64, u64>());
    let part = Partition::equal_blocks(n, pieces);
    let mut planner = Planner::new(Box::new(ExecBackend::<f64>::new(workers)));
    let d = planner.add_sol_vector(n, Some(part.clone()));
    let r = planner.add_rhs_vector(n, Some(part));
    planner.add_operator(m, d, r);
    let b = rhs_vector::<f64>(n, 42);
    planner.set_rhs_data(r, &b);
    (planner, b)
}

/// Residual of the current solution against the true operator.
fn residual_norm(planner: &mut Planner<f64>, s: &Stencil, b: &[f64]) -> f64 {
    let x = planner.read_component(SOL, 0);
    let m: Csr<f64> = s.to_csr();
    let mut ax = vec![0.0; x.len()];
    m.spmv(&x, &mut ax);
    ax.iter()
        .zip(b)
        .map(|(a, bb)| (a - bb) * (a - bb))
        .sum::<f64>()
        .sqrt()
}

fn run_to_tolerance(mut make: impl FnMut(&mut Planner<f64>) -> Box<dyn Solver<f64>>) {
    let s = Stencil::lap2d(16, 16);
    let (mut planner, b) = poisson_planner(16, 16, 4, 4);
    let mut solver = make(&mut planner);
    let report = solve(
        &mut planner,
        solver.as_mut(),
        SolveControl::to_tolerance(1e-10, 2000),
    )
    .expect("solve failed");
    assert!(
        report.converged,
        "{} did not converge: residual {}",
        solver.name(),
        report.final_residual
    );
    let true_res = residual_norm(&mut planner, &s, &b);
    assert!(
        true_res < 1e-8,
        "{}: true residual {true_res}",
        solver.name()
    );
}

#[test]
fn cg_converges() {
    run_to_tolerance(|p| Box::new(CgSolver::new(p)));
}

#[test]
fn bicgstab_converges() {
    run_to_tolerance(|p| Box::new(BiCgStabSolver::new(p)));
}

#[test]
fn bicg_converges() {
    run_to_tolerance(|p| Box::new(BiCgSolver::new(p)));
}

#[test]
fn cgs_converges() {
    run_to_tolerance(|p| Box::new(CgsSolver::new(p)));
}

#[test]
fn gmres_converges() {
    run_to_tolerance(|p| Box::new(GmresSolver::with_restart(p, 10)));
}

#[test]
fn minres_converges() {
    run_to_tolerance(|p| Box::new(MinresSolver::new(p)));
}

#[test]
fn tfqmr_converges() {
    run_to_tolerance(|p| Box::new(kdr_core::TfqmrSolver::new(p)));
}

#[test]
fn preconditioned_bicgstab_and_gmres_converge() {
    let s = Stencil::lap2d(12, 12);
    let n = s.unknowns();
    let m: Arc<dyn SparseMatrix<f64>> = Arc::new(s.to_csr::<f64, u64>());
    let b = rhs_vector::<f64>(n, 31);
    type Make = fn(&mut Planner<f64>) -> Box<dyn Solver<f64>>;
    let makes: Vec<(&str, Make)> = vec![
        ("pbicgstab", |p| Box::new(BiCgStabSolver::new(p))),
        ("pgmres", |p| Box::new(GmresSolver::with_restart(p, 10))),
    ];
    for (name, make) in makes {
        let part = Partition::equal_blocks(n, 4);
        let mut planner = Planner::new(Box::new(ExecBackend::<f64>::new(4)));
        let d = planner.add_sol_vector(n, Some(part.clone()));
        let r = planner.add_rhs_vector(n, Some(part));
        planner.add_operator(Arc::clone(&m), d, r);
        planner.add_preconditioner(Arc::new(precond::jacobi(m.as_ref())), d, r);
        planner.set_rhs_data(r, &b);
        let mut solver = make(&mut planner);
        let report = solve(
            &mut planner,
            solver.as_mut(),
            SolveControl::to_tolerance(1e-10, 5000),
        )
        .expect("solve failed");
        assert!(report.converged, "{name}");
        let res = residual_norm(&mut planner, &s, &b);
        assert!(res < 1e-8, "{name}: true residual {res}");
    }
}

#[test]
fn block_jacobi_pcg_beats_point_jacobi_on_block_structured_system() {
    // A system with strongly coupled 4x4 blocks: exact block inverses
    // capture the coupling that point Jacobi ignores.
    let n: u64 = 128;
    let mut t = Triples::new(n, n);
    for b in 0..n / 4 {
        for r in 0..4u64 {
            for c in 0..4u64 {
                let v = if r == c { 8.0 } else { -1.5 };
                t.push(b * 4 + r, b * 4 + c, v);
            }
        }
    }
    // Weak off-block coupling keeps it non-trivial.
    for i in 0..n - 4 {
        t.push(i, i + 4, -0.5);
        t.push(i + 4, i, -0.5);
    }
    let m: Arc<dyn SparseMatrix<f64>> = Arc::new(Csr::<f64>::from_triples(t));
    let b = rhs_vector::<f64>(n, 77);

    let run = |block: Option<u64>| -> usize {
        let part = Partition::equal_blocks(n, 4);
        let mut planner = Planner::new(Box::new(ExecBackend::<f64>::new(4)));
        let d = planner.add_sol_vector(n, Some(part.clone()));
        let r = planner.add_rhs_vector(n, Some(part));
        planner.add_operator(Arc::clone(&m), d, r);
        match block {
            Some(bs) => {
                planner.add_preconditioner(Arc::new(precond::block_jacobi(m.as_ref(), bs)), d, r)
            }
            None => planner.add_preconditioner(Arc::new(precond::jacobi(m.as_ref())), d, r),
        }
        planner.set_rhs_data(r, &b);
        let mut solver = CgSolver::new(&mut planner);
        let report = solve(
            &mut planner,
            &mut solver,
            SolveControl::to_tolerance(1e-10, 3000),
        )
        .expect("solve failed");
        assert!(report.converged);
        report.iters
    };
    let iters_point = run(None);
    let iters_block = run(Some(4));
    assert!(
        iters_block <= iters_point,
        "block Jacobi ({iters_block}) should not trail point Jacobi ({iters_point})"
    );
}

#[test]
fn pcg_converges_faster_than_unpreconditioned_iterations() {
    // A diagonally-scaled Laplacian where Jacobi actually helps.
    let s = Stencil::lap2d(12, 12);
    let n = s.unknowns();
    let base = s.to_triples::<f64>();
    // Scale row/col i by (1 + i mod 7), keeping symmetry: D A D.
    let scaled = Triples::from_entries(
        n,
        n,
        base.entries()
            .iter()
            .map(|&(i, j, v)| {
                let di = 1.0 + (i % 7) as f64;
                let dj = 1.0 + (j % 7) as f64;
                (i, j, di * v * dj)
            })
            .collect(),
    );
    let m: Arc<dyn SparseMatrix<f64>> = Arc::new(Csr::<f64>::from_triples(scaled));
    let b = rhs_vector::<f64>(n, 9);

    let run = |precondition: bool| -> (usize, f64) {
        let part = Partition::equal_blocks(n, 4);
        let mut planner = Planner::new(Box::new(ExecBackend::<f64>::new(4)));
        let d = planner.add_sol_vector(n, Some(part.clone()));
        let r = planner.add_rhs_vector(n, Some(part));
        planner.add_operator(Arc::clone(&m), d, r);
        if precondition {
            let p = precond::jacobi(m.as_ref());
            planner.add_preconditioner(Arc::new(p), d, r);
        }
        planner.set_rhs_data(r, &b);
        let mut s = CgSolver::new(&mut planner);
        let report = solve(&mut planner, &mut s, SolveControl::to_tolerance(1e-9, 3000))
            .expect("solve failed");
        assert!(report.converged);
        (report.iters, report.final_residual)
    };

    let (iters_plain, _) = run(false);
    let (iters_pcg, _) = run(true);
    assert!(
        iters_pcg < iters_plain,
        "PCG ({iters_pcg}) should beat CG ({iters_plain}) on a badly scaled system"
    );
}

#[test]
fn partitioning_does_not_change_the_answer() {
    // P3: swapping the partitioning strategy must not change results.
    let s = Stencil::lap2d(12, 12);
    let solutions: Vec<Vec<f64>> = [1usize, 3, 8]
        .iter()
        .map(|&pieces| {
            let (mut planner, _) = poisson_planner(12, 12, pieces, 3);
            let mut solver = CgSolver::new(&mut planner);
            solve(&mut planner, &mut solver, SolveControl::fixed(120)).unwrap();
            planner.read_component(SOL, 0)
        })
        .collect();
    let _ = s;
    for sol in &solutions[1..] {
        for (a, b) in solutions[0].iter().zip(sol) {
            assert!((a - b).abs() < 1e-8, "partitioning changed the solution");
        }
    }
}

#[test]
fn matrix_free_operator_solves() {
    // P2: a user-defined, matrix-free operator drops in with no
    // library changes.
    let s = Stencil::lap2d(10, 10);
    let n = s.unknowns();
    let op: Arc<dyn SparseMatrix<f64>> = Arc::new(StencilOperator::<f64>::new(s));
    let part = Partition::equal_blocks(n, 4);
    let mut planner = Planner::new(Box::new(ExecBackend::<f64>::new(4)));
    let d = planner.add_sol_vector(n, Some(part.clone()));
    let r = planner.add_rhs_vector(n, Some(part));
    planner.add_operator(op, d, r);
    let b = rhs_vector::<f64>(n, 5);
    planner.set_rhs_data(r, &b);
    let mut solver = CgSolver::new(&mut planner);
    let report = solve(
        &mut planner,
        &mut solver,
        SolveControl::to_tolerance(1e-10, 1000),
    )
    .expect("solve failed");
    assert!(report.converged);
    let res = residual_norm(&mut planner, &s, &b);
    assert!(res < 1e-8, "matrix-free residual {res}");
    // Matrix-free in execution too: every tile is a stencil tile and no
    // operator value is stored.
    let m = planner.with_backend(|b| {
        let exec = b.as_any().downcast_mut::<ExecBackend<f64>>();
        exec.expect("exec backend").metrics()
    });
    assert_eq!(m.tiles_by_kernel.keys().collect::<Vec<_>>(), [&"stencil"]);
    assert_eq!(m.operator_value_bytes, 0);
}

#[test]
fn multi_operator_system_matches_single_operator() {
    // The §6.2 formulation: one grid cut into two domain halves with
    // four CSR blocks must produce the same solution as the
    // single-operator system.
    let s = Stencil::lap2d(12, 12);
    let n = s.unknowns();
    let b = rhs_vector::<f64>(n, 13);
    let half = n / 2;

    // Single-operator reference.
    let (mut p1, _) = poisson_planner(12, 12, 4, 4);
    p1.set_rhs_data(0, &b);
    let mut s1 = BiCgStabSolver::new(&mut p1);
    solve(&mut p1, &mut s1, SolveControl::fixed(150)).unwrap();
    let x_single = p1.read_component(SOL, 0);

    // Multi-operator: two domain spaces, four blocks.
    let a11: Arc<dyn SparseMatrix<f64>> = Arc::new(s.tile_csr::<f64, u64>(0, half, 0, half));
    let a12: Arc<dyn SparseMatrix<f64>> = Arc::new(s.tile_csr::<f64, u64>(0, half, half, n));
    let a21: Arc<dyn SparseMatrix<f64>> = Arc::new(s.tile_csr::<f64, u64>(half, n, 0, half));
    let a22: Arc<dyn SparseMatrix<f64>> = Arc::new(s.tile_csr::<f64, u64>(half, n, half, n));
    let mut p2 = Planner::new(Box::new(ExecBackend::<f64>::new(4)));
    let part = Partition::equal_blocks(half, 2);
    let d1 = p2.add_sol_vector(half, Some(part.clone()));
    let d2 = p2.add_sol_vector(half, Some(part.clone()));
    let r1 = p2.add_rhs_vector(half, Some(part.clone()));
    let r2 = p2.add_rhs_vector(half, Some(part));
    p2.add_operator(a11, d1, r1);
    p2.add_operator(a12, d2, r1);
    p2.add_operator(a21, d1, r2);
    p2.add_operator(a22, d2, r2);
    p2.set_rhs_data(r1, &b[..half as usize]);
    p2.set_rhs_data(r2, &b[half as usize..]);
    let mut s2 = BiCgStabSolver::new(&mut p2);
    solve(&mut p2, &mut s2, SolveControl::fixed(150)).unwrap();
    let mut x_multi = p2.read_component(SOL, 0);
    x_multi.extend(p2.read_component(SOL, 1));

    for i in 0..n as usize {
        assert!(
            (x_single[i] - x_multi[i]).abs() < 1e-6,
            "row {i}: {} vs {}",
            x_single[i],
            x_multi[i]
        );
    }
}

#[test]
fn multiple_rhs_via_aliasing() {
    // §4.2: n systems sharing one stored matrix,
    // {(K, A, 1, 1), (K, A, 2, 2)} — the matrix Arc is added twice,
    // never copied.
    let s = Stencil::lap2d(8, 8);
    let n = s.unknowns();
    let m: Arc<dyn SparseMatrix<f64>> = Arc::new(s.to_csr::<f64, u64>());
    let b1 = rhs_vector::<f64>(n, 1);
    let b2 = rhs_vector::<f64>(n, 2);

    let mut planner = Planner::new(Box::new(ExecBackend::<f64>::new(4)));
    let part = Partition::equal_blocks(n, 2);
    let d1 = planner.add_sol_vector(n, Some(part.clone()));
    let d2 = planner.add_sol_vector(n, Some(part.clone()));
    let r1 = planner.add_rhs_vector(n, Some(part.clone()));
    let r2 = planner.add_rhs_vector(n, Some(part));
    planner.add_operator(Arc::clone(&m), d1, r1);
    planner.add_operator(Arc::clone(&m), d2, r2);
    planner.set_rhs_data(r1, &b1);
    planner.set_rhs_data(r2, &b2);
    // The shared matrix has three owners: two components + this test.
    assert_eq!(Arc::strong_count(&m), 3);

    let mut solver = CgSolver::new(&mut planner);
    let report = solve(
        &mut planner,
        &mut solver,
        SolveControl::to_tolerance(1e-10, 2000),
    )
    .expect("solve failed");
    assert!(report.converged);

    // Each component must solve its own system.
    let csr: Csr<f64> = s.to_csr();
    for (comp, b) in [(0usize, &b1), (1usize, &b2)] {
        let x = planner.read_component(SOL, comp);
        let mut ax = vec![0.0; n as usize];
        csr.spmv(&x, &mut ax);
        let res: f64 = ax
            .iter()
            .zip(b.iter())
            .map(|(a, bb)| (a - bb) * (a - bb))
            .sum::<f64>()
            .sqrt();
        assert!(res < 1e-8, "component {comp} residual {res}");
    }
}

#[test]
fn related_systems_share_base_matrix() {
    // §4.2: (A0 + ΔA_i) x_i = b_i with one stored A0.
    let s = Stencil::lap2d(8, 8);
    let n = s.unknowns();
    let a0: Arc<dyn SparseMatrix<f64>> = Arc::new(s.to_csr::<f64, u64>());
    // ΔA: bump two diagonal entries per system.
    let mk_delta = |rows: &[u64]| -> Arc<dyn SparseMatrix<f64>> {
        Arc::new(Csr::<f64>::from_triples(Triples::from_entries(
            n,
            n,
            rows.iter().map(|&r| (r, r, 1.5)).collect(),
        )))
    };
    let d1m = mk_delta(&[3, 17]);
    let d2m = mk_delta(&[40, 41]);
    let b1 = rhs_vector::<f64>(n, 21);
    let b2 = rhs_vector::<f64>(n, 22);

    let mut planner = Planner::new(Box::new(ExecBackend::<f64>::new(4)));
    let part = Partition::equal_blocks(n, 2);
    let d1 = planner.add_sol_vector(n, Some(part.clone()));
    let d2 = planner.add_sol_vector(n, Some(part.clone()));
    let r1 = planner.add_rhs_vector(n, Some(part.clone()));
    let r2 = planner.add_rhs_vector(n, Some(part));
    planner.add_operator(Arc::clone(&a0), d1, r1);
    planner.add_operator(Arc::clone(&d1m), d1, r1);
    planner.add_operator(Arc::clone(&a0), d2, r2);
    planner.add_operator(Arc::clone(&d2m), d2, r2);
    planner.set_rhs_data(r1, &b1);
    planner.set_rhs_data(r2, &b2);

    let mut solver = CgSolver::new(&mut planner);
    let report = solve(
        &mut planner,
        &mut solver,
        SolveControl::to_tolerance(1e-10, 2000),
    )
    .expect("solve failed");
    assert!(report.converged);

    // Verify against dense per-system references.
    for (comp, (delta_rows, b)) in [(0usize, (&[3u64, 17][..], &b1)), (1, (&[40, 41][..], &b2))] {
        let mut t = s.to_triples::<f64>();
        for &r in delta_rows {
            t.push(r, r, 1.5);
        }
        let full: Csr<f64> = Csr::from_triples(t);
        let x = planner.read_component(SOL, comp);
        let mut ax = vec![0.0; n as usize];
        full.spmv(&x, &mut ax);
        let res: f64 = ax
            .iter()
            .zip(b.iter())
            .map(|(a, bb)| (a - bb) * (a - bb))
            .sum::<f64>()
            .sqrt();
        assert!(res < 1e-8, "related system {comp} residual {res}");
    }
}

#[test]
fn solvers_are_drop_in_interchangeable() {
    // The same planner setup runs under every solver type.
    type MakeSolver = fn(&mut Planner<f64>) -> Box<dyn Solver<f64>>;
    let solvers: Vec<MakeSolver> = vec![
        |p| Box::new(CgSolver::new(p)),
        |p| Box::new(BiCgStabSolver::new(p)),
        |p| Box::new(BiCgSolver::new(p)),
        |p| Box::new(CgsSolver::new(p)),
        |p| Box::new(GmresSolver::new(p)),
        |p| Box::new(MinresSolver::new(p)),
    ];
    let s = Stencil::lap1d(64);
    for make in solvers {
        let n = s.unknowns();
        let m: Arc<dyn SparseMatrix<f64>> = Arc::new(s.to_csr::<f64, u64>());
        let mut planner = Planner::new(Box::new(ExecBackend::<f64>::new(2)));
        let d = planner.add_sol_vector(n, Some(Partition::equal_blocks(n, 2)));
        let r = planner.add_rhs_vector(n, Some(Partition::equal_blocks(n, 2)));
        planner.add_operator(m, d, r);
        planner.set_rhs_data(r, &rhs_vector::<f64>(n, 3));
        let mut solver = make(&mut planner);
        // GMRES(10) restarts stagnate on the ill-conditioned 1-D
        // Laplacian; give every method the same generous cap.
        let report = solve(
            &mut planner,
            solver.as_mut(),
            SolveControl::to_tolerance(1e-9, 3000),
        )
        .expect("solve failed");
        assert!(report.converged, "{} failed", solver.name());
    }
}

/// `solve_traced` is [`StepDriver::step`] called until it answers. A
/// solve driven by hand ends in the same report or error with the same
/// step outcomes and residual history, bit for bit, and it answers in
/// the call a time-sliced caller counts on: the first for a zero
/// right-hand side (the already-converged guard) and for a cancelled
/// token, the one whose check meets the tolerance for a converged run,
/// and the one after the last iteration for a capped run (GMRES, whose
/// deferred update the ending call applies).
#[test]
fn stepping_the_driver_by_hand_is_solve() {
    type MakeSolver = fn(&mut Planner<f64>) -> Box<dyn Solver<f64>>;
    let cg: MakeSolver = |p| Box::new(CgSolver::new(p));
    let gmres: MakeSolver = |p| Box::new(GmresSolver::with_restart(p, 5));
    let token = CancelToken::new();
    token.cancel();
    let cancelled = SolveControl {
        cancel_token: Some(token),
        ..SolveControl::to_tolerance(1e-10, 500)
    };
    let to_tol = SolveControl::to_tolerance(1e-10, 500);
    // (case, solver, zero right-hand side, control, calls past the
    // iterations run)
    let cases = [
        ("zero rhs", cg, true, to_tol.clone(), 1),
        ("capped", gmres, false, SolveControl::fixed(12), 1),
        ("converged", cg, false, to_tol, 0),
        ("cancelled", cg, false, cancelled, 1),
    ];
    for (case, make, zero_rhs, control, extra_calls) in cases {
        let planner = || {
            let (mut p, b) = poisson_planner(16, 16, 4, 2);
            if zero_rhs {
                p.set_rhs_data(0, &vec![0.0; b.len()]);
            }
            let solver = make(&mut p);
            (p, solver)
        };
        let (mut p, mut solver) = planner();
        let (want, want_trace) = solve_traced(&mut p, solver.as_mut(), control.clone());

        let (mut p, mut solver) = planner();
        let (mut driver, mut trace) = (StepDriver::new(control), SolveTrace::new());
        let mut calls = 0;
        let got = loop {
            calls += 1;
            match driver.step(&mut p, solver.as_mut(), Some(&mut trace)) {
                Ok(None) => {}
                Ok(Some(report)) => break Ok(report),
                Err(e) => break Err(e),
            }
        };

        let bits = |o: &SolveOutcome| {
            o.clone()
                .map(|r| (r.iters, r.final_residual.to_bits(), r.converged))
        };
        assert_eq!(bits(&got), bits(&want), "{case}");
        let history = |t: &SolveTrace| -> Vec<(usize, u64)> {
            t.residual_history
                .iter()
                .map(|&(i, r)| (i, r.to_bits()))
                .collect()
        };
        assert_eq!(history(&trace), history(&want_trace), "{case}");
        let outcomes =
            |t: &SolveTrace| -> Vec<_> { t.iterations.iter().map(|i| i.outcome).collect() };
        assert_eq!(outcomes(&trace), outcomes(&want_trace), "{case}");
        assert_eq!(calls, driver.iters() + extra_calls, "{case}: {got:?}");
        if let Ok(report) = got {
            assert_eq!(report.iters, driver.iters(), "{case}");
        }
    }
}

#[test]
fn nonzero_initial_guess_respected() {
    let s = Stencil::lap2d(8, 8);
    let (mut planner, b) = poisson_planner(8, 8, 2, 2);
    // Start from a wild guess; CG must still converge.
    let guess: Vec<f64> = (0..64).map(|i| (i as f64) - 32.0).collect();
    planner.set_sol_data(0, &guess);
    let mut solver = CgSolver::new(&mut planner);
    let report = solve(
        &mut planner,
        &mut solver,
        SolveControl::to_tolerance(1e-10, 1000),
    )
    .expect("solve failed");
    assert!(report.converged);
    assert!(residual_norm(&mut planner, &s, &b) < 1e-8);
}

#[test]
fn rhs_structured_workspace_and_copy() {
    let (mut planner, _) = poisson_planner(8, 8, 2, 2);
    planner.finalize();
    let w = planner.allocate_workspace_vector_rhs();
    planner.copy(w, RHS);
    let a = planner.read_component(w, 0);
    let b = planner.read_component(RHS, 0);
    assert_eq!(a, b);
}

#[test]
fn chebyshev_converges_with_spectral_bounds() {
    use kdr_core::ChebyshevSolver;
    let s = Stencil::lap2d(16, 16);
    let n = s.unknowns();
    let m: Arc<dyn SparseMatrix<f64>> = Arc::new(s.to_csr::<f64, u64>());
    let b = rhs_vector::<f64>(n, 12);
    let mut planner = Planner::new(Box::new(ExecBackend::<f64>::new(4)));
    let part = Partition::equal_blocks(n, 4);
    let d = planner.add_sol_vector(n, Some(part.clone()));
    let r = planner.add_rhs_vector(n, Some(part));
    planner.add_operator(Arc::clone(&m), d, r);
    planner.set_rhs_data(r, &b);
    // Bounds: Gershgorin upper (8 for the 5-point Laplacian) plus the
    // analytic lower bound 4 sin^2(pi / (2 (nx + 1))) per axis.
    let lmax = ChebyshevSolver::<f64>::gershgorin_upper_bound(m.as_ref());
    assert!((lmax - 8.0).abs() < 1e-12);
    let lmin = 2.0 * 4.0 * (std::f64::consts::PI / (2.0 * 17.0)).sin().powi(2);
    let mut solver = ChebyshevSolver::with_bounds(&mut planner, lmin, lmax);
    let report = solve(
        &mut planner,
        &mut solver,
        SolveControl::to_tolerance(1e-9, 5000),
    )
    .expect("solve failed");
    assert!(
        report.converged,
        "chebyshev residual {}",
        report.final_residual
    );
    let res = residual_norm(&mut planner, &s, &b);
    assert!(res < 1e-7, "true residual {res}");
}

#[test]
fn chebyshev_without_tracking_is_dot_free() {
    use kdr_core::ChebyshevSolver;
    let s = Stencil::lap1d(32);
    let n = s.unknowns();
    let m: Arc<dyn SparseMatrix<f64>> = Arc::new(s.to_csr::<f64, u64>());
    let mut planner = Planner::new(Box::new(ExecBackend::<f64>::new(2)));
    let d = planner.add_sol_vector(n, None);
    let r = planner.add_rhs_vector(n, None);
    planner.add_operator(m, d, r);
    planner.set_rhs_data(r, &rhs_vector::<f64>(n, 1));
    let mut solver =
        ChebyshevSolver::with_bounds(&mut planner, 0.01, 4.0).without_residual_tracking();
    assert!(solver.convergence_measure().is_none());
    for _ in 0..50 {
        solver.step(&mut planner);
    }
    planner.fence();
    // Iterations ran; no measure is maintained.
    assert!(solver.convergence_measure().is_none());
}

/// 64-bit FNV-1a over a stream of `u64` words (little-endian bytes).
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// lap2d 12² in 4 pieces on `workers` workers, with the point Jacobi
/// preconditioner and its right-hand side set.
fn jacobi_planner(workers: usize) -> Planner<f64> {
    let s = Stencil::lap2d(12, 12);
    let n = s.unknowns();
    let m: Arc<dyn SparseMatrix<f64>> = Arc::new(s.to_csr::<f64, u64>());
    let part = Partition::equal_blocks(n, 4);
    let mut planner = Planner::new(Box::new(ExecBackend::<f64>::new(workers)));
    let d = planner.add_sol_vector(n, Some(part.clone()));
    let r = planner.add_rhs_vector(n, Some(part));
    planner.add_operator(Arc::clone(&m), d, r);
    planner.add_preconditioner(Arc::new(precond::jacobi(m.as_ref())), d, r);
    planner.set_rhs_data(r, &rhs_vector::<f64>(n, 31));
    planner
}

type Make = fn(&mut Planner<f64>) -> Box<dyn Solver<f64>>;

/// CG, BiCGStab and GMRES(10) on a preconditioned planner run PCG,
/// right-preconditioned BiCGStab and right-preconditioned GMRES(10),
/// and these are their bits on [`jacobi_planner`], to tolerance
/// 1e-10: the iteration count, the final residual's bits, and FNV-1a
/// hashes of the residual history's bits and of `x`'s bits. They are
/// the same on one worker and on four.
#[test]
fn preconditioned_solves_keep_their_bits() {
    // (iterations, final residual, residual history, x) as bits.
    type Bits = (usize, u64, u64, u64);
    let pins: [(&str, Make, Bits); 3] = [
        (
            "pcg",
            |p| Box::new(CgSolver::new(p)),
            (
                46,
                0x3dc285612f24dc26,
                0x01cc7da79971bf54,
                0x23f6f64bfb0743c9,
            ),
        ),
        (
            "pbicgstab",
            |p| Box::new(BiCgStabSolver::new(p)),
            (
                33,
                0x3db7712399fa0398,
                0x4b67ff28175c00a0,
                0xfdf55495e9af02b5,
            ),
        ),
        (
            "gmres",
            |p| Box::new(GmresSolver::new(p)),
            (
                104,
                0x3dd7d7171cce3ebb,
                0x6d3ff4f3176eb8db,
                0x70501703c8f15c66,
            ),
        ),
    ];
    for (name, make, want) in pins {
        for workers in [1, 4] {
            let mut planner = jacobi_planner(workers);
            let mut solver = make(&mut planner);
            assert_eq!(solver.name(), name);
            let (outcome, trace) = solve_traced(
                &mut planner,
                solver.as_mut(),
                SolveControl::to_tolerance(1e-10, 5000),
            );
            let report = outcome.expect("solve failed");
            assert!(report.converged, "{name}");
            let history = fnv1a(trace.residual_history.iter().map(|&(_, r)| r.to_bits()));
            let x = fnv1a(planner.read_component(SOL, 0).iter().map(|v| v.to_bits()));
            let got = (report.iters, report.final_residual.to_bits(), history, x);
            assert_eq!(got, want, "{name} on {workers} workers");
        }
    }
}

/// A method that does not apply a preconditioner refuses a planner
/// that has one, instead of solving the system without it.
#[test]
fn solvers_that_do_not_apply_a_preconditioner_refuse_one() {
    let makes: [(&str, Make); 9] = [
        ("BiCG", |p| Box::new(BiCgSolver::new(p))),
        ("CGS", |p| Box::new(CgsSolver::new(p))),
        ("TFQMR", |p| Box::new(TfqmrSolver::new(p))),
        ("MINRES", |p| Box::new(MinresSolver::new(p))),
        ("Chebyshev", |p| {
            Box::new(ChebyshevSolver::with_bounds(p, 0.1, 8.0))
        }),
        ("fused CG", |p| Box::new(FusedCgSolver::new(p))),
        ("pipelined CG", |p| Box::new(PipelinedCgSolver::new(p))),
        ("pipelined CR", |p| Box::new(PipelinedCrSolver::new(p))),
        ("s-step CG", |p| Box::new(SStepCgSolver::new(p))),
    ];
    for (name, make) in makes {
        let mut planner = jacobi_planner(1);
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            make(&mut planner);
        }));
        let message = match built {
            Ok(()) => String::new(),
            Err(e) => e
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|m| m.to_string()))
                .unwrap_or_default(),
        };
        assert!(
            message.contains("preconditioner"),
            "{name} was built on a preconditioned planner: {message:?}"
        );
    }
}
