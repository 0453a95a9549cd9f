//! A replayed step hands nothing to another thread. On one worker a
//! step compiles to one node, and the driver that submits it and waits
//! for the step's convergence scalars takes that node itself (DESIGN
//! §6, "One node per step, run by the thread that waits"), so a warm
//! traced CG solve runs its iterations without waking the worker. A
//! step's first run and the ops outside any step are programs too
//! (DESIGN §6, "One route"), so neither does a warm job's preamble nor
//! a cold operation's first runs.
//!
//! The count is the kernel's: `voluntary_ctxt_switches` of every
//! thread of this process, read from `/proc/self/task/*/status` around
//! the solve, so the test is Linux-only. Only blocking (voluntary)
//! switches count — a worker parking, a driver waiting; each hand-off
//! makes at least one — so that preemptions on a loaded host, a
//! parallel `cargo test` say, do not count against the bounds.
//!
//! Readings of the warm solve, five runs each (lap2d 96² in 16 pieces,
//! one worker, dev profile, 2-vCPU host, unpinned; the solve is 330
//! iterations, every one replayed), counting both kinds of switch: with
//! a step compiled to five nodes and a submission that always woke the
//! worker, 1.46–1.49 switch pairs per iteration (961–982 switches), the
//! driver running 1 035–1 288 nodes; with one node per step run by the
//! waiting submitter, 0.011–0.023 pairs per iteration (7–15 switches),
//! the driver running 360–476 nodes. Counting blocking switches only
//! (dev profile, same host): 0.000–0.006 per iteration (0–2), with
//! another test binary running beside it too; a submission that always
//! wakes the worker, 1.006 (332). The bound is 0.2.
#![cfg(target_os = "linux")]

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use kdr_core::{
    solve, solve_traced, BiCgStabSolver, CgSolver, ExecBackend, ExecMetrics, Planner, SolveControl,
    RHS, SOL,
};
use kdr_index::Partition;
use kdr_runtime::Runtime;
use kdr_sparse::stencil::rhs_vector;
use kdr_sparse::{Csr, SparseMatrix, Stencil, Triples};

/// The counts are of the whole process: the tests take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Blocking context switches of every thread of this process so far,
/// by thread id: the switches a thread makes by blocking — a worker
/// parking, a driver waiting — which every hand-off takes at least one
/// of; a preemption by another process on a loaded host is not one.
fn blocking_switches() -> BTreeMap<u64, u64> {
    let mut counts = BTreeMap::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs is mounted") {
        let task = task.unwrap();
        let Some(tid) = task.file_name().to_str().and_then(|t| t.parse().ok()) else {
            continue;
        };
        // A thread that exited since the listing has no status left.
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        let count = status
            .lines()
            .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
            .expect("a thread's status counts its blocking switches");
        counts.insert(tid, count.trim().parse::<u64>().expect("a count"));
    }
    counts
}

/// Blocking switches since `before` of the threads alive now (a thread
/// that exited meanwhile — another test's, say — takes its count with
/// it).
fn switches_since(before: &BTreeMap<u64, u64>) -> u64 {
    let now = blocking_switches();
    now.iter()
        .map(|(tid, n)| n - before.get(tid).copied().unwrap_or(0))
        .sum()
}

fn exec_metrics(planner: &mut Planner<f64>) -> ExecMetrics {
    planner.with_backend(|b| {
        let exec = b.as_any().downcast_mut::<ExecBackend<f64>>();
        exec.expect("the planner runs on the exec backend")
            .metrics()
    })
}

fn nodes_run_by_drivers(planner: &mut Planner<f64>) -> u64 {
    exec_metrics(planner).runtime.nodes_run_by_drivers
}

#[test]
fn a_warm_traced_cg_solve_on_one_worker_hands_no_step_to_the_worker() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let stencil = Stencil::lap2d(96, 96);
    let n = stencil.unknowns();
    let matrix: Arc<dyn SparseMatrix<f64>> = Arc::new(stencil.to_csr::<f64, u64>());
    let mut planner = Planner::new(Box::new(ExecBackend::<f64>::new(1)));
    let part = Partition::equal_blocks(n, 16);
    let d = planner.add_sol_vector(n, Some(part.clone()));
    let r = planner.add_rhs_vector(n, Some(part));
    planner.add_operator(matrix, d, r);
    planner.set_rhs_data(r, &rhs_vector::<f64>(n, 7));
    let control = || SolveControl::to_tolerance(1e-8, 5000);

    // Cold: the first solve captures the step programs.
    let mark = planner.workspace_mark();
    let mut solver = CgSolver::new(&mut planner);
    solve(&mut planner, &mut solver, control()).expect("an SPD solve");
    drop(solver);
    planner.release_workspace_from(mark.max(RHS + 1));

    // Warm: the same solve again, every step a program hit.
    planner.zero(SOL);
    let mut solver = CgSolver::new(&mut planner);
    let driven = nodes_run_by_drivers(&mut planner);
    let switched = blocking_switches();
    let (outcome, trace) = solve_traced(&mut planner, &mut solver, control());
    let switched = switches_since(&switched);
    let driven = nodes_run_by_drivers(&mut planner) - driven;
    assert!(outcome.expect("an SPD solve").converged);

    let iters = trace.iterations.len() as f64;
    let replayed = trace.steps_replayed() as u64;
    assert!(
        replayed as f64 > 0.9 * iters,
        "{replayed} of {iters} steps replayed"
    );
    // A hand-off per iteration makes at least one blocking switch.
    let per_iter = switched as f64 / iters;
    assert!(
        per_iter <= 0.2,
        "{per_iter:.3} blocking switches per iteration ({switched} over {iters} iterations)"
    );
    assert!(
        driven >= replayed,
        "the driver ran {driven} nodes over {replayed} replayed steps"
    );
}

/// Twenty jobs on one warm planner, each as a service session runs
/// one (`Session::begin_solve`: the right-hand side installed, a
/// workspace mark, `SOL` zeroed, the solver built; then the solve and
/// the release of the mark): lap2d 24² in 4 pieces, CG, one worker.
/// The job's preamble — the zeroes and the solver's `r = b − Ax` — is
/// one program, which every job from the second on replays on the
/// thread that reads its residual. Readings before
/// preambles were programs: 76 switches per warm job, ≈ 40 of its
/// nodes analyzed; while a fresh workspace vector recorded no zeroing,
/// the second job compiled a preamble of its own.
#[test]
fn a_warm_job_replays_its_preamble_and_hands_nothing_to_the_worker() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let stencil = Stencil::lap2d(24, 24);
    let n = stencil.unknowns();
    let matrix: Arc<dyn SparseMatrix<f64>> = Arc::new(stencil.to_csr::<f64, u64>());
    let mut planner = Planner::new(Box::new(ExecBackend::<f64>::new(1)));
    let part = Partition::equal_blocks(n, 4);
    let d = planner.add_sol_vector(n, Some(part.clone()));
    let r = planner.add_rhs_vector(n, Some(part));
    planner.add_operator(matrix, d, r);
    // As a session's planner is when it is built.
    planner.finalize();
    let rhs = rhs_vector::<f64>(n, 7);
    let mut first = None;
    for job in 0..20 {
        let before = exec_metrics(&mut planner);
        let switched = blocking_switches();
        planner.set_rhs_data(r, &rhs);
        let mark = planner.workspace_mark();
        planner.zero(SOL);
        let mut solver = CgSolver::new(&mut planner);
        let report = solve(
            &mut planner,
            &mut solver,
            SolveControl::to_tolerance(1e-8, 500),
        );
        drop(solver);
        planner.release_workspace_from(mark);
        let switched = switches_since(&switched);
        let after = exec_metrics(&mut planner);
        let report = report.expect("an SPD solve");
        assert!(report.converged, "job {job}");
        let outcome = (report.iters, report.final_residual.to_bits());
        assert_eq!(
            *first.get_or_insert(outcome),
            outcome,
            "job {job} solves as job 0 did"
        );
        // The first job allocates the workspace, the second takes it
        // from the pool: each zeroes it, so both make one preamble,
        // which every job after the first replays.
        if job < 1 {
            continue;
        }
        let grew = |f: fn(&ExecMetrics) -> u64| f(&after) - f(&before);
        assert_eq!(
            grew(|m| m.runtime.tasks_analyzed),
            0,
            "job {job}: analyzed nodes"
        );
        assert_eq!(grew(|m| m.steps_captured), 0, "job {job}: captured steps");
        assert_eq!(
            after.trace_cache_len, before.trace_cache_len,
            "job {job}: programs"
        );
        assert_eq!(
            grew(|m| m.runtime.tasks_replayed),
            report.iters as u64 + 1,
            "job {job}: one node per step and one for the preamble"
        );
        assert!(
            switched <= 4,
            "job {job}: {switched} blocking context switches"
        );
    }
}

/// A `cold_irregular`-shaped operation: a fresh backend on a shared
/// one-worker runtime, a seeded scatter matrix (n = 16 384, one to
/// eight off-diagonal entries a row, in 8 pieces), BiCGStab for 24
/// iterations checked every one, the solution read back, everything
/// dropped. Each step's first run is a compiled program the reading
/// driver runs itself, so the operation hands its worker next to
/// nothing. Reading before first runs were programs: 664–738 switches.
#[test]
fn a_cold_operation_hands_its_first_runs_to_no_thread() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let n = 16_384u64;
    let mut state = 0x5ca7_7e12_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        state >> 33
    };
    let mut entries = Vec::new();
    for i in 0..n {
        let mut dominance = 1.0;
        for _ in 0..1 + next() % 8 {
            let j = next() % n;
            if j != i {
                let v = -((1 + next() % 8) as f64) / 8.0;
                entries.push((i, j, v));
                dominance -= v;
            }
        }
        entries.push((i, i, dominance));
    }
    let matrix: Arc<dyn SparseMatrix<f64>> = Arc::new(Csr::<f64, u64>::from_triples(
        Triples::from_entries(n, n, entries),
    ));
    let rt = Arc::new(Runtime::new(1));
    let b = rhs_vector::<f64>(n, 3);
    let operation = || {
        let backend = ExecBackend::<f64>::with_shared_runtime(Arc::clone(&rt), None);
        let mut planner = Planner::new(Box::new(backend));
        let part = Partition::equal_blocks(n, 8);
        let d = planner.add_sol_vector(n, Some(part.clone()));
        let r = planner.add_rhs_vector(n, Some(part));
        planner.add_operator(Arc::clone(&matrix), d, r);
        planner.set_rhs_data(r, &b);
        planner.finalize();
        let mut solver = BiCgStabSolver::new(&mut planner);
        let control = SolveControl {
            max_iters: 24,
            check_every: 1,
            ..SolveControl::default()
        };
        let report = solve(&mut planner, &mut solver, control).expect("a row-dominant system");
        let x = planner.read_component(SOL, 0);
        let m = exec_metrics(&mut planner);
        drop((solver, planner));
        (
            report.iters,
            x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            m,
        )
    };
    let first = operation();
    for _ in 0..2 {
        let switched = blocking_switches();
        let again = operation();
        let switched = switches_since(&switched);
        assert_eq!(
            (again.0, &again.1),
            (first.0, &first.1),
            "an operation repeats bit for bit"
        );
        let m = again.2;
        assert_eq!(m.steps_captured, 3, "{m:?}");
        assert!(
            switched <= 50,
            "{switched} blocking context switches in one operation"
        );
    }
}
