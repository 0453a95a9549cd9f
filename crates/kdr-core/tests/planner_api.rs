//! Unit tests for the planner's setup contract and error handling.

use std::sync::Arc;

use kdr_core::{
    solve_traced, BiCgSolver, BiCgStabSolver, CgSolver, CgsSolver, ExecBackend, ExecMetrics,
    FusedCgSolver, MinresSolver, PipelinedCgSolver, PipelinedCrSolver, Planner, SStepCgSolver,
    SolveControl, SolveTrace, Solver, StepDriver, StepOutcome, TfqmrSolver, RHS, SOL,
};
use kdr_index::{IntervalSet, Partition};
use kdr_sparse::{Csr, SparseMatrix, Stencil, Triples};

fn small_matrix(n: u64) -> Arc<dyn SparseMatrix<f64>> {
    Arc::new(Stencil::lap1d(n).to_csr::<f64, u64>())
}

fn planner() -> Planner<f64> {
    Planner::new(Box::new(ExecBackend::<f64>::new(2)))
}

#[test]
fn default_partition_is_single_piece() {
    let mut p = planner();
    let d = p.add_sol_vector(8, None);
    let r = p.add_rhs_vector(8, None);
    p.add_operator(small_matrix(8), d, r);
    p.finalize();
    assert_eq!(p.sol_partition(0).num_colors(), 1);
    assert!(p.is_square());
    assert!(!p.has_preconditioner());
}

/// Registration lowers the operators into the backend's tiles; after
/// `finalize` neither the planner nor the backend holds the caller's
/// matrices, so a solve keeps no assembled copy resident.
#[test]
fn finalize_keeps_no_operator_alive() {
    let mut p = planner();
    let d = p.add_sol_vector(8, None);
    let r = p.add_rhs_vector(8, None);
    let a = small_matrix(8);
    let jacobi: Arc<dyn SparseMatrix<f64>> = Arc::new(Csr::<f64>::from_triples(
        Triples::from_entries(8, 8, (0..8).map(|i| (i, i, 0.5)).collect()),
    ));
    p.add_operator(Arc::clone(&a), d, r);
    p.add_preconditioner(Arc::clone(&jacobi), d, r);
    assert_eq!((Arc::strong_count(&a), Arc::strong_count(&jacobi)), (2, 2));
    p.finalize();
    assert_eq!((Arc::strong_count(&a), Arc::strong_count(&jacobi)), (1, 1));
    assert!(p.has_preconditioner());
}

#[test]
#[should_panic(expected = "complete and disjoint")]
fn incomplete_canonical_partition_rejected() {
    let mut p = planner();
    let gap = Partition::new(
        8,
        vec![IntervalSet::from_range(0, 3), IntervalSet::from_range(5, 8)],
    );
    p.add_sol_vector(8, Some(gap));
}

#[test]
#[should_panic(expected = "does not match sol component")]
fn operator_dimension_mismatch_rejected() {
    let mut p = planner();
    let d = p.add_sol_vector(8, None);
    let r = p.add_rhs_vector(8, None);
    p.add_operator(small_matrix(10), d, r);
}

#[test]
#[should_panic(expected = "at least one operator")]
fn finalize_without_operator_panics() {
    let mut p = planner();
    p.add_sol_vector(8, None);
    p.add_rhs_vector(8, None);
    p.finalize();
}

#[test]
#[should_panic(expected = "already finalized")]
fn setup_after_finalize_panics() {
    let mut p = planner();
    let d = p.add_sol_vector(8, None);
    let r = p.add_rhs_vector(8, None);
    p.add_operator(small_matrix(8), d, r);
    p.finalize();
    p.add_sol_vector(4, None);
}

#[test]
#[should_panic(expected = "psolve requires add_preconditioner")]
fn psolve_without_preconditioner_panics() {
    let mut p = planner();
    let d = p.add_sol_vector(8, None);
    let r = p.add_rhs_vector(8, None);
    p.add_operator(small_matrix(8), d, r);
    p.finalize();
    let w = p.allocate_workspace_vector();
    p.psolve(w, RHS);
}

#[test]
fn is_square_detects_rectangular_structures() {
    // 2 sol components vs 1 rhs component of matching total size is
    // still not square (componentwise comparison).
    let mut p = planner();
    let d1 = p.add_sol_vector(4, None);
    let d2 = p.add_sol_vector(4, None);
    let r = p.add_rhs_vector(8, None);
    let wide: Arc<dyn SparseMatrix<f64>> = Arc::new(Csr::<f64>::from_triples(
        Triples::from_entries(8, 4, vec![(0, 0, 1.0)]),
    ));
    p.add_operator(Arc::clone(&wide), d1, r);
    p.add_operator(wide, d2, r);
    assert!(!p.is_square());
}

#[test]
fn pending_data_applied_at_finalize() {
    let mut p = planner();
    let d = p.add_sol_vector(8, None);
    // Data set during setup, interleaved with more setup calls.
    p.set_sol_data(d, &[7.0; 8]);
    let r = p.add_rhs_vector(8, None);
    p.set_rhs_data(r, &[3.0; 8]);
    p.add_operator(small_matrix(8), d, r);
    p.finalize();
    assert_eq!(p.read_component(SOL, 0), vec![7.0; 8]);
    assert_eq!(p.read_component(RHS, 0), vec![3.0; 8]);
}

#[test]
fn scalar_handle_arithmetic_chain() {
    let mut p = planner();
    let d = p.add_sol_vector(8, None);
    let r = p.add_rhs_vector(8, None);
    p.add_operator(small_matrix(8), d, r);
    p.finalize();
    let a = p.scalar(2.0);
    let b = p.scalar(3.0);
    let c = (&a + &b) * (&a - &b); // (5)(-1) = -5
    assert_eq!(c.get(), -5.0);
    assert_eq!((-&c).get(), 5.0);
    assert_eq!(c.abs().get(), 5.0);
    assert_eq!(p.scalar(16.0).sqrt().get(), 4.0);
    assert_eq!(p.scalar(8.0).recip().get(), 0.125);
    let chained = ((a / b.clone()) + b).sqrt(); // sqrt(2/3 + 3)
    assert!((chained.get() - (11.0f64 / 3.0).sqrt()).abs() < 1e-15);
}

#[test]
#[should_panic(expected = "scalars from different planners")]
fn a_step_end_refuses_a_scalar_of_another_planner() {
    let finalized = || {
        let mut p = planner();
        let d = p.add_sol_vector(8, None);
        let r = p.add_rhs_vector(8, None);
        p.add_operator(small_matrix(8), d, r);
        p.finalize();
        p
    };
    let (mut p, mut q) = (finalized(), finalized());
    // Slot 0 of `q`'s backend: in `p`'s it is another scalar, or none.
    let foreign = q.scalar(1.0);
    p.step_begin();
    let _ = p.scalar(2.0);
    let _ = p.step_end(&[&foreign]);
}

#[test]
fn workspace_vectors_are_zero_initialized() {
    let mut p = planner();
    let d = p.add_sol_vector(8, None);
    let r = p.add_rhs_vector(8, None);
    p.add_operator(small_matrix(8), d, r);
    p.finalize();
    let w = p.allocate_workspace_vector();
    assert_eq!(p.read_component(w, 0), vec![0.0; 8]);
}

#[test]
fn cyclic_canonical_partition_solves() {
    // A maximally scattered partition still produces a correct solve
    // (stress for interval-heavy tiles).
    let s = Stencil::lap1d(32);
    let n = s.unknowns();
    let mut p = planner();
    let part = Partition::cyclic(n, 4);
    let d = p.add_sol_vector(n, Some(part.clone()));
    let r = p.add_rhs_vector(n, Some(part));
    p.add_operator(Arc::new(s.to_csr::<f64, u64>()), d, r);
    let b = kdr_sparse::stencil::rhs_vector::<f64>(n, 8);
    p.set_rhs_data(r, &b);
    let mut solver = CgSolver::new(&mut p);
    let report = kdr_core::solve(
        &mut p,
        &mut solver,
        kdr_core::SolveControl::to_tolerance(1e-10, 2000),
    )
    .expect("solve failed");
    assert!(report.converged);
    let x = p.read_component(SOL, 0);
    let m: Csr<f64> = s.to_csr();
    let mut ax = vec![0.0; n as usize];
    m.spmv(&x, &mut ax);
    let res: f64 = ax
        .iter()
        .zip(&b)
        .map(|(a, bb)| (a - bb) * (a - bb))
        .sum::<f64>()
        .sqrt();
    assert!(res < 1e-8);
}

fn exec_metrics(p: &mut Planner<f64>) -> ExecMetrics {
    p.with_backend(|b| {
        b.as_any()
            .downcast_mut::<ExecBackend<f64>>()
            .expect("the planner runs on the exec backend")
            .metrics()
    })
}

/// Build, run and drop one CG solver inside a workspace mark, the way
/// sessions and the benchmark do; `(residual history bits, captured
/// steps so far, cached traces, vectors allocated, tasks lowered from
/// step operations so far)`.
fn marked_cg_solve(p: &mut Planner<f64>, d: usize) -> (Vec<(usize, u64)>, u64, usize, usize, u64) {
    let n = p.sol_partition(d).space_size();
    p.set_sol_data(d, &vec![0.0; n as usize]);
    let mark = p.workspace_mark();
    let mut solver = CgSolver::new(p);
    let (report, trace) = solve_traced(p, &mut solver, SolveControl::to_tolerance(1e-10, 400));
    assert!(report.expect("CG on a Laplacian does not break down").converged);
    drop(solver);
    p.release_workspace_from(mark.max(RHS + 1));
    let m = exec_metrics(p);
    let (captured, cached, lowered) = (m.steps_captured, m.trace_cache_len, m.step_tasks_lowered);
    let history = trace
        .residual_history
        .iter()
        .map(|&(i, r)| (i, r.to_bits()))
        .collect();
    (history, captured, cached, p.num_vectors(), lowered)
}

#[test]
fn twelve_solves_on_one_planner_do_not_age() {
    // Every solve takes its mark with the previous solver's vectors in
    // the pool. The mark used to sit above them, so every second
    // release returned nothing, the next solver allocated fresh
    // vectors with new buffer ids — new step shapes — and once the
    // trace cache was full every step was compiled afresh.
    let mut p = lap2d_planner(16, false);
    let first = marked_cg_solve(&mut p, 0);
    assert!(first.0.len() > 2, "the solve checks its residual as it goes");
    assert!(first.1 > 0, "the first solve captures its steps");
    let second = marked_cg_solve(&mut p, 0);
    for solve in 3..=12 {
        let again = marked_cg_solve(&mut p, 0);
        assert_eq!(again.0, first.0, "solve {solve}: residual history");
        assert_eq!(again.1, first.1, "solve {solve}: captured steps");
        assert_eq!(again.2, second.2, "solve {solve}: cached traces");
        assert_eq!(again.3, second.3, "solve {solve}: vectors allocated");
        // Every step replays its program: no task is built for it.
        assert_eq!(again.4, second.4, "solve {solve}: step tasks lowered");
    }
    assert_eq!(second.0, first.0);
    assert_eq!(second.3, first.3, "the pool serves the second solver already");
    // Tasks were built for the steps the first solve captured — a
    // tile task per piece, one task per lane (two pieces each, on two
    // workers) for each of the `p·q` partials, the `axpy+dot_partial`
    // of `r` and `r·r` and the `axpy+xpay` of `x` and `p`, and 5 scalar
    // ones each — and for no step since. The one cached program
    // no step built is the solver's preamble (`r = b − Ax`, `p = r`,
    // `(r, r)`), which every solve since replays too.
    assert_eq!(first.4, (first.2 as u64 - 1) * (4 + 2 * 3 + 5));
    assert_eq!(second.4, first.4, "the second solve replays every step");
    assert_eq!(second.1, first.1, "and captures none");
}

/// A planner over lap2d `side`² in 4 pieces with its right-hand side
/// set, and the Jacobi preconditioner when `preconditioned`.
fn lap2d_planner(side: u64, preconditioned: bool) -> Planner<f64> {
    let s = Stencil::lap2d(side, side);
    let n = s.unknowns();
    let m: Arc<dyn SparseMatrix<f64>> = Arc::new(s.to_csr::<f64, u64>());
    let mut p = planner();
    let part = Partition::equal_blocks(n, 4);
    let d = p.add_sol_vector(n, Some(part.clone()));
    let r = p.add_rhs_vector(n, Some(part));
    p.add_operator(Arc::clone(&m), d, r);
    if preconditioned {
        p.add_preconditioner(Arc::new(kdr_core::precond::jacobi(m.as_ref())), d, r);
    }
    p.set_rhs_data(r, &kdr_sparse::stencil::rhs_vector::<f64>(n, 5));
    p
}

/// Residual checked after every step, never met: `steps` steps.
fn fixed_steps(steps: usize) -> SolveControl {
    SolveControl {
        max_iters: steps,
        check_every: 1,
        ..SolveControl::default()
    }
}

#[test]
fn bicgstab_shape_cycle_fits_the_trace_cache() {
    // BiCGStab holds four scalars from one iteration into the next
    // (rho, the residual norm, the last (r0hat, v) and omega), and the
    // slots a step lands on are part of its shape. A step takes its
    // slots from a bank none of those four sit in, so the steps
    // alternate between two banks: the first step (which finds the
    // setup's scalars live) and the two banks of the steady state are
    // three shapes.
    let mut p = lap2d_planner(48, false);
    let mut solver = BiCgStabSolver::new(&mut p);
    // `solve_traced`, one iteration at a time: tasks lowered from step
    // operations so far, after each.
    let (mut driver, mut trace) = (StepDriver::new(fixed_steps(36)), SolveTrace::new());
    let mut lowered = Vec::new();
    for _ in 0..36 {
        driver
            .step(&mut p, &mut solver, Some(&mut trace))
            .expect("36 steps do not break down");
        lowered.push(exec_metrics(&mut p));
    }
    assert_eq!(driver.iters(), 36);
    let outcomes: Vec<StepOutcome> = trace.iterations.iter().map(|it| it.outcome).collect();
    assert!(
        outcomes[..3].iter().all(|&o| o == StepOutcome::Captured),
        "three shapes, each captured once: {outcomes:?}"
    );
    assert!(
        outcomes[3..].iter().all(|&o| o == StepOutcome::Replayed),
        "no step is captured or analysed again: {outcomes:?}"
    );
    assert_eq!(
        lowered[35].trace_cache_len,
        3 + 1,
        "and the set-up's program"
    );
    // Tasks are built for the three captured steps and for none after.
    let lowered: Vec<u64> = lowered.iter().map(|m| m.step_tasks_lowered).collect();
    assert!(lowered[..3].windows(2).all(|w| w[0] < w[1]), "{lowered:?}");
    assert!(lowered[2..].iter().all(|&l| l == lowered[2]), "{lowered:?}");
}

type Build = fn(&mut Planner<f64>) -> Box<dyn Solver<f64>>;

#[test]
fn every_traced_solver_captures_a_few_steps_then_only_replays() {
    // (solver, preconditioned, build, captured steps, programs kept).
    // A solver's set-up ops are one more program, run when the driver
    // first reads the convergence measure. s-step CG's host read of
    // the Gram matrix ends its step's first record there, so each of
    // its two step shapes is two programs; its first step allocates the
    // basis, zeroed as a pooled basis is, so that step's first record
    // is a shape of its own (a third capture, one more program). Left
    // out: GMRES(m), whose
    // Arnoldi step grows within a restart cycle, so every step of a
    // cycle is a new record (DESIGN §6b) — more than the cache holds.
    let table: [(&str, bool, Build, u64, usize); 12] = [
        ("CG", false, |p| Box::new(CgSolver::new(p)), 3, 1 + 3),
        ("PCG", true, |p| Box::new(CgSolver::new(p)), 3, 1 + 3),
        ("BiCG", false, |p| Box::new(BiCgSolver::new(p)), 3, 1 + 3),
        ("CGS", false, |p| Box::new(CgsSolver::new(p)), 3, 1 + 3),
        (
            "BiCGStab",
            false,
            |p| Box::new(BiCgStabSolver::new(p)),
            3,
            1 + 3,
        ),
        (
            "PBiCGStab",
            true,
            |p| Box::new(BiCgStabSolver::new(p)),
            3,
            1 + 3,
        ),
        ("TFQMR", false, |p| Box::new(TfqmrSolver::new(p)), 8, 1 + 8),
        (
            "MINRES",
            false,
            |p| Box::new(MinresSolver::new(p)),
            5,
            1 + 5,
        ),
        (
            "fused CG",
            false,
            |p| Box::new(FusedCgSolver::new(p)),
            6,
            1 + 6,
        ),
        (
            "pipe CG",
            false,
            |p| Box::new(PipelinedCgSolver::new(p)),
            6,
            1 + 6,
        ),
        (
            "pipe CR",
            false,
            |p| Box::new(PipelinedCrSolver::new(p)),
            6,
            1 + 6,
        ),
        (
            "s-step CG",
            false,
            |p| Box::new(SStepCgSolver::new(p)),
            3,
            1 + 2 * 2 + 1,
        ),
    ];
    for (name, preconditioned, build, captures, programs) in table {
        let mut p = lap2d_planner(24, preconditioned);
        let mut solver = build(&mut p);
        let (mut driver, mut trace) = (StepDriver::new(fixed_steps(40)), SolveTrace::new());
        for _ in 0..40 {
            driver
                .step(&mut p, solver.as_mut(), Some(&mut trace))
                .unwrap_or_else(|e| panic!("{name}: 40 steps do not break down: {e:?}"));
        }
        let outcomes: Vec<StepOutcome> = trace.iterations.iter().map(|it| it.outcome).collect();
        assert_eq!(outcomes.len(), 40, "{name}");
        let last_capture = outcomes
            .iter()
            .rposition(|&o| o == StepOutcome::Captured)
            .expect("a traced solver captures");
        assert!(
            outcomes[last_capture + 1..]
                .iter()
                .all(|&o| o == StepOutcome::Replayed),
            "{name}: only replays follow the last capture: {outcomes:?}"
        );
        let m = exec_metrics(&mut p);
        assert_eq!(
            (m.steps_captured, m.trace_cache_len),
            (captures, programs),
            "{name}: {outcomes:?}"
        );
    }
}

#[test]
fn a_solve_starts_in_the_bank_its_predecessor_started_in() {
    // The service's warm-session pattern: one planner, solver after
    // solver, each inside a workspace mark. The solves run 7, 8 and 7
    // steps, so a rule that flipped banks on every step would start the
    // second solve on the other bank, and its steps would be new
    // records; the bank a step takes depends only on which scalars are
    // live when it begins.
    let mut p = lap2d_planner(24, false);
    let n = p.sol_partition(0).space_size() as usize;
    let mut captured = Vec::new();
    for steps in [7, 8, 7] {
        p.set_sol_data(0, &vec![0.0; n]);
        let mark = p.workspace_mark();
        let mut solver = BiCgStabSolver::new(&mut p);
        let (report, trace) = solve_traced(&mut p, &mut solver, fixed_steps(steps));
        assert_eq!(report.expect("a few steps do not break down").iters, steps);
        drop(solver);
        p.release_workspace_from(mark.max(RHS + 1));
        let m = exec_metrics(&mut p);
        captured.push(m.steps_captured);
        let outcomes: Vec<StepOutcome> = trace.iterations.iter().map(|it| it.outcome).collect();
        if captured.len() > 1 {
            assert!(
                outcomes.iter().all(|&o| o == StepOutcome::Replayed),
                "a {steps}-step solve after the first replays every step: {outcomes:?}"
            );
        }
    }
    assert_eq!(captured, [3, 3, 3], "no capture after the first solve");
}

#[test]
fn workspace_mark_release_returns_pooled_and_fresh_vectors() {
    let mut p = planner();
    let d = p.add_sol_vector(8, None);
    let r = p.add_rhs_vector(8, None);
    p.add_operator(small_matrix(8), d, r);
    p.finalize();
    let held = p.allocate_workspace_vector();
    let outer = p.workspace_mark();
    let a = p.allocate_workspace_vector();
    p.release_workspace_from(outer);
    // One pooled vector at the mark; the next round takes it and a
    // fresh one, and the release must return both.
    let mark = p.workspace_mark();
    assert_eq!(mark, a);
    let again = p.allocate_workspace_vector();
    let fresh = p.allocate_workspace_vector();
    assert_eq!(again, a);
    p.release_workspace_from(mark);
    assert_eq!(p.workspace_mark(), a, "pooled and fresh are both back");
    assert_eq!(p.allocate_workspace_vector(), a);
    assert_eq!(p.allocate_workspace_vector(), fresh);
    assert_eq!(p.num_vectors(), fresh + 1);
    // The vector held since before the marks was never released.
    assert!(held < a);
    assert_ne!(p.allocate_workspace_vector(), held);
}
