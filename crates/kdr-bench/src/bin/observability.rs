//! Observability demo: run traced CG with event logging enabled and
//! export everything the runtime saw.
//!
//! Produces:
//! * `results/cg_trace.json` — Chrome `trace_event` JSON; open it at
//!   <https://ui.perfetto.dev> or in `chrome://tracing` to see one
//!   lane per worker with a slice per task.
//! * stdout — the `MetricsSnapshot`/[`ExecMetrics`] counters, the
//!   per-phase summary table, the solver-level phase split, and the
//!   critical-path estimate with its parallelism bound.
//!
//! Usage: `cargo run --release -p kdr-bench --bin observability`
//!
//! `--ci-counts` runs the count-only gate on compiled traces instead
//! (no event log, no timing, nothing written): twelve CG solves of
//! lap2d 96² in 16 pieces on one planner must never run an analyzed
//! step, and from the second solve on must schedule at most 55 tasks
//! per iteration — 53 fused nodes for the step's 101 task bodies,
//! plus the one task that reads the convergence measure and the
//! breakdown guard together.

use std::sync::Arc;

use kdr_core::{
    solve, solve_traced, CgSolver, ExecBackend, ExecMetrics, PhaseSplit, Planner, SolveControl,
    RHS,
};
use kdr_index::Partition;
use kdr_runtime::{chrome_trace_json, critical_path, phase_summary, TaskSpan};
use kdr_sparse::stencil::rhs_vector;
use kdr_sparse::{SparseMatrix, Stencil};

/// The exec backend's counters behind a planner.
fn exec_metrics(planner: &mut Planner<f64>) -> ExecMetrics {
    planner.with_backend(|b| {
        b.as_any()
            .downcast_mut::<ExecBackend<f64>>()
            .expect("exec backend")
            .metrics()
    })
}

/// A planner for CG on the `nx`² 2-D Laplacian in `pieces` pieces,
/// right-hand side set; returns it with the solution component's id
/// and the unknown count.
fn lap2d_planner(nx: u64, pieces: usize, backend: ExecBackend<f64>) -> (Planner<f64>, usize, u64) {
    let stencil = Stencil::lap2d(nx, nx);
    let n = stencil.unknowns();
    let matrix: Arc<dyn SparseMatrix<f64>> = Arc::new(stencil.to_csr::<f64, u32>());
    let mut planner = Planner::new(Box::new(backend));
    let part = Partition::equal_blocks(n, pieces);
    let d = planner.add_sol_vector(n, Some(part.clone()));
    let r = planner.add_rhs_vector(n, Some(part));
    planner.add_operator(matrix, d, r);
    planner.set_rhs_data(r, &rhs_vector::<f64>(n, 42));
    (planner, d, n)
}

/// The `--ci-counts` leg; every figure it checks is an exact count.
fn ci_counts() {
    const SOLVES: u64 = 12;
    const MAX_TASKS_PER_ITER: f64 = 55.0;
    let (mut planner, d, n) = lap2d_planner(96, 16, ExecBackend::new(1));
    let zeros = vec![0.0; n as usize];
    let mut after_first = None;
    for k in 0..SOLVES {
        planner.set_sol_data(d, &zeros);
        let mark = planner.workspace_mark();
        let mut solver = CgSolver::new(&mut planner);
        let report = solve(
            &mut planner,
            &mut solver,
            SolveControl::to_tolerance(1e-10, 2000),
        )
        .expect("CG on a Laplacian does not break down");
        assert!(report.converged, "solve {k} did not converge");
        drop(solver);
        planner.release_workspace_from(mark.max(RHS + 1));
        if k == 0 {
            after_first = Some(exec_metrics(&mut planner));
        }
    }
    let first = after_first.expect("the first solve ran");
    let last = exec_metrics(&mut planner);
    assert_eq!(last.steps_analyzed, 0, "a step ran analyzed: {last:?}");
    assert_eq!(
        last.steps_captured, first.steps_captured,
        "a warm solve captured a new step shape"
    );
    let steps = last.steps_replayed - first.steps_replayed;
    let scheduled = last.runtime.tasks_submitted - first.runtime.tasks_submitted;
    let fused = last.runtime.tasks_fused - first.runtime.tasks_fused;
    let per_iter = scheduled as f64 / steps as f64;
    println!(
        "ci-counts: {SOLVES} solves, {steps} warm iterations: {per_iter:.2} scheduled tasks \
         and {:.2} task bodies per iteration, {} cached traces, 0 analyzed steps",
        (scheduled + fused) as f64 / steps as f64,
        last.trace_cache_len
    );
    assert!(
        per_iter <= MAX_TASKS_PER_ITER,
        "{per_iter:.2} scheduled tasks per iteration, at most {MAX_TASKS_PER_ITER} allowed"
    );
}

fn main() {
    if std::env::args().any(|a| a == "--ci-counts") {
        ci_counts();
        return;
    }
    let nx = 128;
    let pieces = 16;
    let backend = ExecBackend::<f64>::with_default_workers();
    backend.set_event_logging(true);
    let workers = backend.runtime().num_workers();
    let (mut planner, _, _) = lap2d_planner(nx, pieces, backend);

    let mut solver = CgSolver::new(&mut planner);
    let control = SolveControl {
        max_iters: 2000,
        tol: 1e-10,
        check_every: 25,
        ..SolveControl::default()
    };
    let (outcome, trace) = solve_traced(&mut planner, &mut solver, control);
    let report = outcome.expect("solve failed");

    let (spans, metrics): (Vec<TaskSpan>, ExecMetrics) = planner.with_backend(|b| {
        let exec = b
            .as_any()
            .downcast_mut::<ExecBackend<f64>>()
            .expect("exec backend");
        (exec.take_spans(), exec.metrics())
    });

    println!(
        "cg on lap2d {nx}x{nx}, {pieces} pieces, {workers} workers: \
         {} iters, converged={}, residual={:.3e}",
        report.iters, report.converged, report.final_residual
    );
    println!(
        "steps: analyzed={} captured={} replayed={} (trace hit rate {:.1}%)",
        metrics.steps_analyzed,
        metrics.steps_captured,
        metrics.steps_replayed,
        100.0 * metrics.trace_hit_rate()
    );
    println!(
        "tasks: scheduled={} (analyzed={} replayed={}) fused into them={} stolen={} | \
         scalar arena {}/{} slots live | events recorded={} dropped={}",
        metrics.runtime.tasks_submitted,
        metrics.runtime.tasks_analyzed,
        metrics.runtime.tasks_replayed,
        metrics.runtime.tasks_fused,
        metrics.runtime.tasks_stolen,
        metrics.scalar_slots - metrics.scalar_free,
        metrics.scalar_slots,
        metrics.runtime.events_recorded,
        metrics.runtime.events_dropped,
    );
    println!(
        "latency: queue-wait p50={}ns p99={}ns | execute p50={}ns p99={}ns",
        metrics.runtime.queue_wait_ns.quantile(0.5),
        metrics.runtime.queue_wait_ns.quantile(0.99),
        metrics.runtime.execute_ns.quantile(0.5),
        metrics.runtime.execute_ns.quantile(0.99),
    );

    println!("\nper-phase summary (from {} spans):", spans.len());
    print!("{}", phase_summary(&spans));

    let split = PhaseSplit::from_spans(&spans);
    println!("\nsolver phase split:");
    for (phase, frac) in split.fractions() {
        println!("  {:>13}: {:>5.1}%", format!("{phase:?}"), 100.0 * frac);
    }

    let cp = critical_path(&spans);
    println!(
        "\ncritical path: {:.3} ms of {:.3} ms total work -> parallelism {:.1} ({} tasks on path)",
        cp.length_ns as f64 / 1e6,
        cp.total_work_ns as f64 / 1e6,
        cp.parallelism(),
        cp.path.len()
    );

    if let Some((it, res)) = trace.residual_history.last() {
        println!(
            "residual history: {} checks, last at iter {} -> {:.3e}",
            trace.residual_history.len(),
            it,
            res
        );
    }

    let json = chrome_trace_json(&spans);
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/cg_trace.json", &json).expect("write trace");
    println!(
        "\nwrote results/cg_trace.json ({} bytes) — open in https://ui.perfetto.dev",
        json.len()
    );
}
