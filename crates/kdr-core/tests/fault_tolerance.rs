//! Fault-tolerance tests: solver breakdown detection, panic isolation
//! through the execution backend, deterministic fault injection, and
//! checkpoint/restart recovery.

use std::sync::Arc;

use kdr_core::{
    solve, solve_recoverable, solve_traced, BiCgSolver, BiCgStabSolver, BreakdownKind, CgSolver,
    CgsSolver, ChebyshevSolver, ExecBackend, GmresSolver, MinresSolver, Planner, RecoveryPolicy,
    SolveControl, SolveError, Solver, StepOutcome, TfqmrSolver, RHS, SOL,
};
use kdr_index::Partition;
use kdr_runtime::{FaultKind, FaultPlan, FaultSpec, FireSchedule};
use kdr_sparse::stencil::rhs_vector;
use kdr_sparse::{Csr, SparseMatrix, Stencil, Triples};

/// A planner over an arbitrary square matrix given as triples.
fn triples_planner(
    n: u64,
    entries: &[(u64, u64, f64)],
    b: &[f64],
    pieces: usize,
    workers: usize,
) -> Planner<f64> {
    let mut t = Triples::new(n, n);
    for &(i, j, v) in entries {
        t.push(i, j, v);
    }
    let m: Arc<dyn SparseMatrix<f64>> = Arc::new(Csr::<f64, u64>::from_triples(t));
    let part = Partition::equal_blocks(n, pieces);
    let mut planner = Planner::new(Box::new(ExecBackend::<f64>::new(workers)));
    let d = planner.add_sol_vector(n, Some(part.clone()));
    let r = planner.add_rhs_vector(n, Some(part));
    planner.add_operator(m, d, r);
    planner.set_rhs_data(r, b);
    planner
}

/// A 2-D Poisson planner whose backend carries the given fault plan.
fn poisson_planner_with_faults(
    nx: u64,
    ny: u64,
    pieces: usize,
    workers: usize,
    plan: Option<FaultPlan>,
) -> (Planner<f64>, Stencil, Vec<f64>) {
    let s = Stencil::lap2d(nx, ny);
    let n = s.unknowns();
    let m: Arc<dyn SparseMatrix<f64>> = Arc::new(s.to_csr::<f64, u64>());
    let backend = ExecBackend::<f64>::new(workers);
    backend.set_fault_plan(plan);
    let part = Partition::equal_blocks(n, pieces);
    let mut planner = Planner::new(Box::new(backend));
    let d = planner.add_sol_vector(n, Some(part.clone()));
    let r = planner.add_rhs_vector(n, Some(part));
    planner.add_operator(m, d, r);
    let b = rhs_vector::<f64>(n, 42);
    planner.set_rhs_data(r, &b);
    (planner, s, b)
}

fn true_residual(planner: &mut Planner<f64>, s: &Stencil, b: &[f64]) -> f64 {
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

/// CG on an indefinite operator must report a structured breakdown —
/// not NaN convergence. On `diag(1, 1, 1, -5)` with `b = 1`, the very
/// first search direction gives `(p, Ap) = 3 - 5 = -2 < 0`.
#[test]
fn cg_reports_indefinite_breakdown() {
    let entries = [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0), (3, 3, -5.0)];
    let b = vec![1.0; 4];
    let mut planner = triples_planner(4, &entries, &b, 2, 2);
    let mut solver = CgSolver::new(&mut planner);
    let control = SolveControl {
        tol: 1e-10,
        check_every: 1,
        breakdown_eps: 1e-12,
        ..SolveControl::default()
    };
    let err = solve(&mut planner, &mut solver, control).unwrap_err();
    assert_eq!(
        err,
        SolveError::Breakdown {
            kind: BreakdownKind::IndefiniteOperator,
            iteration: 1,
        }
    );
    // The solution vector stays finite: the breakdown was detected
    // before any division by the offending quantity poisoned it.
    let x = planner.read_component(SOL, 0);
    assert!(x.iter().all(|v| v.is_finite()), "non-finite SOL: {x:?}");
}

/// BiCGStab with an exact Lanczos breakdown: on this 3×3 system the
/// shadow inner product `ρ₁ = (r̃₀, r₁)` vanishes identically after
/// one step while the residual itself is still nonzero and finite.
/// The driver must report `RhoZero` at the step that *divides* by ρ —
/// not NaN out.
#[test]
fn bicgstab_reports_rho_breakdown() {
    // A = [[2,1,1],[1,3,0],[-1,0,5]], b = [1,0,0], x0 = 0. Then
    // r1 = [0, -5/34, -3/34] and (r̃₀, r₁) = 0 exactly.
    let entries = [
        (0, 0, 2.0),
        (0, 1, 1.0),
        (0, 2, 1.0),
        (1, 0, 1.0),
        (1, 1, 3.0),
        (2, 0, -1.0),
        (2, 2, 5.0),
    ];
    let b = vec![1.0, 0.0, 0.0];
    let mut planner = triples_planner(3, &entries, &b, 1, 2);
    let mut solver = BiCgStabSolver::new(&mut planner);
    let control = SolveControl {
        tol: 1e-10,
        check_every: 1,
        breakdown_eps: 1e-12,
        ..SolveControl::default()
    };
    let err = solve(&mut planner, &mut solver, control).unwrap_err();
    match err {
        SolveError::Breakdown {
            kind: BreakdownKind::RhoZero,
            iteration,
        } => assert!(iteration <= 2, "late detection at iteration {iteration}"),
        other => panic!("expected RhoZero breakdown, got {other:?}"),
    }
    let x = planner.read_component(SOL, 0);
    assert!(x.iter().all(|v| v.is_finite()), "non-finite SOL: {x:?}");
}

/// Chebyshev iteration with bounds far inside the spectrum amplifies
/// every eigencomponent above them: on lap2d 16² (eigenvalues up to 8)
/// with `[0.1, 0.2]`, the sampled residual passes 10⁸ times its first
/// sample within a few iterations, and the driver stops with
/// `Diverged` at that check rather than running on to overflow.
#[test]
fn chebyshev_with_bounds_inside_the_spectrum_reports_divergence() {
    let (mut planner, _, _) = poisson_planner_with_faults(16, 16, 4, 4, None);
    let mut solver = ChebyshevSolver::with_bounds(&mut planner, 0.1, 0.2);
    let (outcome, trace) = solve_traced(
        &mut planner,
        &mut solver,
        SolveControl::to_tolerance(1e-10, 200),
    );
    let first = trace.residual_history[0].1;
    let (last, earlier) = trace.residual_history.split_last().expect("sampled");
    assert!(
        earlier.iter().all(|&(_, r)| r <= 1e8 * first),
        "{earlier:?}"
    );
    assert_eq!(
        outcome,
        Err(SolveError::Diverged {
            iteration: 6,
            residual: last.1,
        })
    );
    assert_eq!(last.0, 6);
    assert!(
        last.1.is_finite() && last.1 > 1e8 * first,
        "{last:?} vs {first}"
    );
}

/// An injected mid-solve panic surfaces as a structured `TaskFailed`
/// error — the process does not abort — and `solve_recoverable`
/// restarts from the last validated checkpoint and still converges.
#[test]
fn checkpoint_restart_recovers_from_injected_panic() {
    let plan = FaultPlan::seeded(7).with(FaultSpec {
        name_contains: "spmv".into(),
        kind: FaultKind::Panic,
        schedule: FireSchedule::Nth(40),
        max_fires: 1,
    });
    let (mut planner, s, b) = poisson_planner_with_faults(16, 16, 4, 4, Some(plan));

    // Plain solve on the same faulty backend fails with TaskFailed.
    let probe = FaultPlan::seeded(7).with(FaultSpec {
        name_contains: "spmv".into(),
        kind: FaultKind::Panic,
        schedule: FireSchedule::Nth(40),
        max_fires: 1,
    });
    let (mut plain, _, _) = poisson_planner_with_faults(16, 16, 4, 4, Some(probe));
    let mut solver = CgSolver::new(&mut plain);
    let err = solve(
        &mut plain,
        &mut solver,
        SolveControl::to_tolerance(1e-10, 2000),
    )
    .unwrap_err();
    assert!(
        matches!(err, SolveError::TaskFailed { .. } | SolveError::NonFinite { .. }),
        "expected task failure, got {err:?}"
    );

    // The recoverable driver retries from its checkpoint and converges.
    let report = solve_recoverable(
        &mut planner,
        CgSolver::new,
        SolveControl::to_tolerance(1e-10, 2000),
        RecoveryPolicy {
            checkpoint_every: 25,
            max_restarts: 3,
        },
    )
    .expect("recoverable solve failed");
    assert!(report.converged, "residual {}", report.final_residual);
    assert!(report.restarts >= 1, "fault never fired");
    assert!(report.checkpoints >= 1);
    let res = true_residual(&mut planner, &s, &b);
    assert!(res < 1e-8, "true residual {res}");
}

/// A panic injected while the backend is capturing/replaying step
/// programs must not wedge the solve: the failed run is kept as no
/// program, and the retry's rebuilt solver — new workspace vectors,
/// so new records — compiles its steps afresh, through dependence
/// analysis, then replays them and converges.
#[test]
fn traced_replay_panic_falls_back_analyzed() {
    let plan = FaultPlan::seeded(11).with(FaultSpec {
        name_contains: "dot_partial".into(),
        kind: FaultKind::Panic,
        schedule: FireSchedule::Nth(120),
        max_fires: 1,
    });
    let (mut planner, s, b) = poisson_planner_with_faults(16, 16, 4, 4, Some(plan));
    let report = solve_recoverable(
        &mut planner,
        CgSolver::new,
        SolveControl::to_tolerance(1e-10, 2000),
        RecoveryPolicy {
            checkpoint_every: 20,
            max_restarts: 3,
        },
    )
    .expect("recoverable solve failed");
    assert!(report.converged, "residual {}", report.final_residual);
    assert!(report.restarts >= 1, "fault never fired");
    let res = true_residual(&mut planner, &s, &b);
    assert!(res < 1e-8, "true residual {res}");
}

/// An injected panic that lands in a *replayed* step of a cached step
/// program. The replay goes in (the failure only exists once the body
/// runs); the next step finds the failure pending at its pre-replay
/// fence, takes it into the backend's fault slot and replays all the
/// same — nothing is lowered or analyzed; `take_fault` names the tile
/// task, once; and afterwards the same programs replay again, through
/// a solve that converges. Twice over, identically.
#[test]
fn panic_in_a_replayed_program_surfaces_once_and_the_program_survives() {
    fn exec_metrics(planner: &mut Planner<f64>) -> kdr_core::ExecMetrics {
        planner.with_backend(|b| {
            b.as_any()
                .downcast_mut::<ExecBackend<f64>>()
                .expect("the planner runs on the exec backend")
                .metrics()
        })
    }
    let run = || {
        // CG's constructor applies the operator once and every step
        // once, four tile tasks each: the 30th `spmv` body is the
        // second tile of step 7, which replays.
        let plan = FaultPlan::seeded(5).with(FaultSpec {
            name_contains: "spmv".into(),
            kind: FaultKind::Panic,
            schedule: FireSchedule::Nth(4 + 6 * 4 + 2),
            max_fires: 1,
        });
        let (mut planner, s, b) = poisson_planner_with_faults(16, 16, 4, 2, Some(plan));
        let mut solver = CgSolver::new(&mut planner);
        let workspace = planner.workspace_mark() - 3;
        let mut step = |planner: &mut Planner<f64>| {
            planner.step_begin();
            solver.step(planner);
            planner.step_end(&[]).0
        };
        let mut outcomes: Vec<StepOutcome> = (0..7).map(|_| step(&mut planner)).collect();
        assert_eq!(outcomes[6], StepOutcome::Replayed, "{outcomes:?}");
        let before = exec_metrics(&mut planner);
        assert_eq!(before.runtime.faults_injected, 1);

        // Step 8 waits for step 7 at its pre-replay fence (a backend
        // fence here would absorb the failure first): the replay is
        // refused, the failure goes to the fault slot, and the step
        // replays — none of its 4 + 2 · 5 + 5 tasks (a tile per piece,
        // a task per two-piece lane for each vector op and dot's
        // partials, 5 scalar) is lowered or analyzed.
        outcomes.push(step(&mut planner));
        assert_eq!(outcomes[7], StepOutcome::Replayed);
        let after = exec_metrics(&mut planner);
        assert_eq!(after.runtime.task_failures, 1);
        assert_eq!(after.steps_replayed, before.steps_replayed + 1);
        assert_eq!(after.steps_captured, before.steps_captured);
        assert_eq!(after.step_tasks_lowered, before.step_tasks_lowered);
        assert_eq!(after.runtime.tasks_analyzed, before.runtime.tasks_analyzed);
        assert_eq!(after.trace_cache_len, before.trace_cache_len);
        let fault = planner.take_fault().expect("the panic was absorbed");
        assert!(fault.task.contains("spmv"), "{fault:?}");
        assert!(fault.message.contains("injected fault"), "{fault:?}");
        assert!(planner.take_fault().is_none());

        // The cached programs are intact: a fresh solve over the same
        // workspace vectors replays them — nothing is captured — and
        // converges.
        let n = planner.read_component(SOL, 0).len();
        planner.set_sol_data(0, &vec![0.0; n]);
        drop(solver);
        planner.release_workspace_from(workspace);
        let mut solver = CgSolver::new(&mut planner);
        let report = solve(
            &mut planner,
            &mut solver,
            SolveControl::to_tolerance(1e-10, 2000),
        )
        .expect("post-fault solve failed");
        assert!(report.converged);
        let res = true_residual(&mut planner, &s, &b);
        assert!(res < 1e-8, "true residual {res}");
        let end = exec_metrics(&mut planner);
        assert!(end.steps_replayed > after.steps_replayed + report.iters as u64 / 2);
        assert_eq!(end.steps_captured, after.steps_captured, "no step is captured again");
        (outcomes, fault, report.iters, res.to_bits())
    };
    assert_eq!(run(), run(), "the fault path through a program is deterministic");
}

/// The same seeded fault plan produces byte-identical failures across
/// runs and across every solver: fault injection is deterministic, and
/// no injected panic ever aborts the process.
#[test]
fn fault_injection_is_deterministic_across_solvers() {
    type Make = fn(&mut Planner<f64>) -> Box<dyn Solver<f64>>;
    let makes: Vec<(&str, Make)> = vec![
        ("cg", |p| Box::new(CgSolver::new(p))),
        ("bicgstab", |p| Box::new(BiCgStabSolver::new(p))),
        ("bicg", |p| Box::new(BiCgSolver::new(p))),
        ("cgs", |p| Box::new(CgsSolver::new(p))),
        ("gmres", |p| Box::new(GmresSolver::with_restart(p, 10))),
        ("minres", |p| Box::new(MinresSolver::new(p))),
        ("tfqmr", |p| Box::new(TfqmrSolver::new(p))),
    ];
    // Step programs capturing and replaying around the fault.
    for (name, make) in makes {
        let run = |make: Make| -> Result<_, SolveError> {
            let plan = FaultPlan::seeded(2026).with(FaultSpec {
                name_contains: "dot_partial".into(),
                kind: FaultKind::Panic,
                schedule: FireSchedule::Nth(30),
                max_fires: 1,
            });
            let (mut planner, _, _) = poisson_planner_with_faults(12, 12, 2, 2, Some(plan));
            let mut solver = make(&mut planner);
            solve(
                &mut planner,
                solver.as_mut(),
                SolveControl::to_tolerance(1e-10, 500),
            )
        };
        let first = run(make);
        let second = run(make);
        assert!(
            first.is_err(),
            "{name}: injected panic did not surface as an error"
        );
        assert_eq!(first, second, "{name}: fault injection not deterministic");
        match first.unwrap_err() {
            SolveError::TaskFailed { task, message, .. } => {
                assert!(task.contains("dot_partial"), "{name}: wrong task {task}");
                assert!(
                    message.contains("fault"),
                    "{name}: unexpected message {message}"
                );
            }
            SolveError::NonFinite { .. } => {
                // Acceptable degradation: the poisoned partial turned
                // the sampled residual NaN before the fault check ran.
            }
            other => panic!("{name}: unexpected error {other:?}"),
        }
    }
}

/// The RHS side of panic isolation: after an absorbed failure the
/// planner (and its runtime) remain usable for a fresh, fault-free
/// solve in the same process.
#[test]
fn planner_survives_absorbed_fault() {
    let plan = FaultPlan::seeded(3).with(FaultSpec {
        name_contains: "axpy".into(),
        kind: FaultKind::Panic,
        schedule: FireSchedule::Nth(10),
        max_fires: 1,
    });
    let (mut planner, s, b) = poisson_planner_with_faults(12, 12, 2, 2, Some(plan));
    let mut solver = CgSolver::new(&mut planner);
    let err = solve(
        &mut planner,
        &mut solver,
        SolveControl::to_tolerance(1e-10, 500),
    );
    assert!(err.is_err(), "injected panic did not surface");

    // Reset SOL and solve again — the fault plan is exhausted
    // (max_fires = 1), so this run must succeed end-to-end.
    let n = planner.read_component(SOL, 0).len();
    planner.set_sol_data(0, &vec![0.0; n]);
    let mut solver = CgSolver::new(&mut planner);
    let report = solve(
        &mut planner,
        &mut solver,
        SolveControl::to_tolerance(1e-10, 2000),
    )
    .expect("post-fault solve failed");
    assert!(report.converged);
    let res = true_residual(&mut planner, &s, &b);
    assert!(res < 1e-8, "true residual {res}");
}

/// RHS is untouched by recovery: restarts restore `SOL` only.
#[test]
fn recovery_reports_zero_restarts_when_healthy() {
    let (mut planner, s, b) = poisson_planner_with_faults(16, 16, 4, 4, None);
    let report = solve_recoverable(
        &mut planner,
        CgSolver::new,
        SolveControl::to_tolerance(1e-10, 2000),
        RecoveryPolicy {
            checkpoint_every: 50,
            ..RecoveryPolicy::default()
        },
    )
    .expect("healthy recoverable solve failed");
    assert!(report.converged);
    assert_eq!(report.restarts, 0);
    assert!(report.checkpoints >= 1);
    let res = true_residual(&mut planner, &s, &b);
    assert!(res < 1e-8, "true residual {res}");
    let rhs = planner.read_component(RHS, 0);
    assert_eq!(rhs, b);
}

/// A scalar is read where it landed: no read task can be poisoned,
/// so it is the executor's poison set that tells the read a slot's
/// writer failed. A panicking `dot_partial` poisons the `dot_reduce`
/// that writes the slot: the read returns NaN and records a fault, on
/// 1 and 4 workers — outside a step (`get`), and at the end of one,
/// whose failed first run answers every read with NaN (the slots that
/// do hold their values too) — never a hang, and a failed first run
/// keeps no program. A failure the scalars do not depend on leaves
/// them readable and the fault for later only when it ran in another
/// record: within one record the failing task shares a node with the
/// reduction's body on its piece (the whole record, on one worker),
/// so the read is NaN and names that failure, once. Each plan fires
/// on the first task of its name: a vector op or a dot's partials is
/// one task per lane, so on one worker that is the op's only task and
/// on four the one of the first piece.
#[test]
fn a_failed_reduction_reads_as_nan_and_a_fault_never_a_hang() {
    let plan = |name: &str| {
        FaultPlan::seeded(5).with(FaultSpec {
            name_contains: name.into(),
            kind: FaultKind::Panic,
            schedule: FireSchedule::Nth(1),
            max_fires: 1,
        })
    };
    for (workers, in_step) in [(1, false), (1, true), (4, false), (4, true)] {
        let (mut planner, _, b) =
            poisson_planner_with_faults(12, 12, 4, workers, Some(plan("dot_partial")));
        let expect: f64 = b.iter().map(|v| v * v).sum();
        let programs = |planner: &mut Planner<f64>| {
            planner.with_backend(|b| {
                let exec = b.as_any().downcast_mut::<ExecBackend<f64>>();
                exec.expect("the planner runs on the exec backend")
                    .trace_cache_len()
            })
        };
        let kept = programs(&mut planner);
        if in_step {
            planner.step_begin();
        }
        let healthy = planner.scalar(3.0);
        let failed = planner.dot(RHS, RHS);
        let got = if in_step {
            let (outcome, got) = planner.step_end(&[&healthy, &failed]);
            assert_eq!(outcome, StepOutcome::Captured, "a first run");
            got
        } else {
            vec![failed.get()]
        };
        assert!(got.iter().all(|v| v.is_nan()), "{workers} workers: {got:?}");
        assert_eq!(
            programs(&mut planner),
            kept,
            "the failed first run is no program"
        );
        let fault = planner.take_fault().expect("the panic was absorbed");
        assert_eq!(fault.task, "dot_partial");
        assert!(planner.take_fault().is_none());
        // The plan is spent and the failure taken: the same slots'
        // successors read true values.
        let again = planner.dot(RHS, RHS);
        assert!((again.get() - expect).abs() <= 1e-12 * expect);
        assert_eq!(healthy.get(), 3.0);

        // A failed task off the scalars' chain: an `axpy` into SOL.
        // In the same record as the `dot` it shares a node with the
        // `dot_partial` of its piece (the whole record, on one
        // worker), so the panic drops that body unrun: the read is
        // NaN and names the `axpy`, once — never a hang.
        let (mut planner, _, _) =
            poisson_planner_with_faults(12, 12, 4, workers, Some(plan("axpy")));
        let one = planner.scalar(1.0);
        planner.axpy(SOL, &one, RHS);
        let d = planner.dot(RHS, RHS);
        assert!(d.get().is_nan(), "{workers} workers: one node, one failure");
        assert_eq!(planner.take_fault().expect("the read found it").task, "axpy");
        assert!(planner.take_fault().is_none(), "the failure surfaces once");
        let again = planner.dot(RHS, RHS);
        assert!((again.get() - expect).abs() <= 1e-12 * expect);

        // In a record of its own, the `axpy` fails apart from the
        // `dot`: isolation holds across records.
        let (mut planner, _, _) =
            poisson_planner_with_faults(12, 12, 4, workers, Some(plan("axpy")));
        let one = planner.scalar(1.0);
        planner.step_begin();
        planner.axpy(SOL, &one, RHS);
        planner.step_end(&[]);
        let d = planner.dot(RHS, RHS);
        assert!((d.get() - expect).abs() <= 1e-12 * expect, "an unrelated failure is not the read's");
        planner.fence();
        assert_eq!(planner.take_fault().expect("found at the fence").task, "axpy");
    }
}
