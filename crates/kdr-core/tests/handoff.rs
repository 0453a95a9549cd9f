//! A replayed step hands nothing to another thread. On one worker a
//! step compiles to one node, and the driver that submits it and waits
//! for the step's convergence scalars takes that node itself (DESIGN
//! §6, "One node per step, run by the thread that waits"), so a warm
//! traced CG solve runs its iterations without waking the worker.
//!
//! The count is the kernel's: `voluntary_ctxt_switches` and
//! `nonvoluntary_ctxt_switches` of every thread of this process, read
//! from `/proc/self/task/*/status` around the solve, so the test is
//! Linux-only. A hand-off is a pair of switches (the woken worker in,
//! and out again when it parks, or the driver out and back), so the
//! test reports switch pairs per iteration.
//!
//! Readings of this test, five runs each (lap2d 96² in 16 pieces, one
//! worker, dev profile, 2-vCPU host, unpinned; the warm solve is 330
//! iterations, every one replayed): with a step compiled to five nodes
//! and a submission that always woke the worker, 1.46–1.49 switch
//! pairs per iteration (961–982 switches), the driver running 1 035–
//! 1 288 nodes; with one node per step run by the waiting submitter,
//! 0.011–0.023 pairs per iteration (7–15 switches), the driver running
//! 360–476 nodes.
#![cfg(target_os = "linux")]

use std::sync::Arc;

use kdr_core::{solve, solve_traced, CgSolver, ExecBackend, Planner, SolveControl, RHS, SOL};
use kdr_index::Partition;
use kdr_sparse::stencil::rhs_vector;
use kdr_sparse::{SparseMatrix, Stencil};

/// Context switches of every thread of this process so far.
fn context_switches() -> u64 {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").expect("procfs is mounted") {
        // A thread that exited since the listing has no status left.
        let Ok(status) = std::fs::read_to_string(task.unwrap().path().join("status")) else {
            continue;
        };
        for line in status.lines() {
            if let Some(count) = line
                .strip_prefix("voluntary_ctxt_switches:")
                .or_else(|| line.strip_prefix("nonvoluntary_ctxt_switches:"))
            {
                total += count.trim().parse::<u64>().expect("a count");
            }
        }
    }
    total
}

fn nodes_run_by_drivers(planner: &mut Planner<f64>) -> u64 {
    planner.with_backend(|b| {
        let exec = b.as_any().downcast_mut::<ExecBackend<f64>>();
        exec.expect("the planner runs on the exec backend")
            .metrics()
            .runtime
            .nodes_run_by_drivers
    })
}

#[test]
fn a_warm_traced_cg_solve_on_one_worker_hands_no_step_to_the_worker() {
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
    let switched = context_switches();
    let (outcome, trace) = solve_traced(&mut planner, &mut solver, control());
    let switched = context_switches() - switched;
    let driven = nodes_run_by_drivers(&mut planner) - driven;
    assert!(outcome.expect("an SPD solve").converged);

    let iters = trace.iterations.len() as f64;
    let replayed = trace.steps_replayed() as u64;
    assert!(
        replayed as f64 > 0.9 * iters,
        "{replayed} of {iters} steps replayed"
    );
    let pairs = switched as f64 / 2.0 / iters;
    assert!(
        pairs <= 0.2,
        "{pairs:.3} switch pairs per iteration ({switched} switches over {iters} iterations)"
    );
    assert!(
        driven >= replayed,
        "the driver ran {driven} nodes over {replayed} replayed steps"
    );
}
