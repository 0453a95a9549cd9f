//! `cold_irregular`: the same layers used the other way round —
//! building instead of replaying. Every operation constructs a fresh
//! planner over a scattered nonsymmetric matrix, co-partitions, lowers
//! tiles and solves with BiCGStab; nothing it runs was captured before.

use std::sync::Arc;
use std::time::Instant;

use kdr_core::{solve, BiCgStabSolver, ExecBackend, ExecMetrics, Planner, SolveControl, SOL};
use kdr_index::Partition;
use kdr_runtime::Runtime;
use kdr_sparse::stencil::rhs_vector;
use kdr_sparse::{Csr, SparseMatrix};

use super::{
    exec_metrics, task_span_notes, timed_ms, ExecWindow, Notes, Round, RoundCtx, SolveCheck,
    Solved, Workload,
};
use crate::host;
use crate::inputs::{rhs_seed, scatter_matrix, RefCsr, Reference};
use crate::spans::Layer;
use crate::stats::Block;

/// Unknowns of the scatter matrix.
pub const N: usize = 16_384;
/// Pieces of the domain and range partitions.
pub const PIECES: usize = 8;
/// BiCGStab tolerance (absolute recurrence residual).
pub const TOL: f64 = 1e-8;
/// BiCGStab iterations of every operation, the residual checked after
/// each as a solve to tolerance checks it. Seeds 0..400 need 18 to 22
/// to reach [`TOL`], and one iteration more can be one more *analysed*
/// step: stopped at the tolerance, an operation took 80 ms on one seed
/// and 93 ms on another, and ten runs with ten seeds measured the
/// seeds. 24 reach the tolerance on every seed swept with two to
/// spare, and every operation does the same work.
const ITERS: usize = 24;

/// The cold-path workload with its generated inputs.
pub struct Cold {
    /// The generated operator.
    pub matrix: RefCsr,
    /// The run's correctness rule (reference operator, RHS, recorded
    /// iteration count).
    pub check: SolveCheck,
}

impl Cold {
    /// Generate the run's inputs.
    pub fn new(seed: u64) -> Self {
        Cold::with_unknowns(N, seed)
    }

    /// The workload over an `n`-row scatter matrix.
    pub fn with_unknowns(n: usize, seed: u64) -> Self {
        let matrix = scatter_matrix(n, seed);
        let b = rhs_vector::<f64>(n as u64, rhs_seed(seed, 0));
        Cold {
            check: SolveCheck::new(Reference::Arrays(matrix.clone()), b, TOL, ITERS..=ITERS),
            matrix,
        }
    }
}

/// What one operation leaves behind.
struct ColdOp {
    solved: Solved,
    finalize_ms: f64,
    /// Counters of the operation's own backend, read between its two
    /// timed windows.
    metrics: ExecMetrics,
}

/// One operation: planner, vectors, operator, finalize, [`ITERS`]
/// BiCGStab iterations, read the solution back, drop everything. Returns the
/// timed milliseconds and the result.
fn build_and_solve(
    rt: &Arc<Runtime>,
    matrix: &Arc<Csr<f64, u64>>,
    b: &[f64],
    ctx: &RoundCtx,
) -> (f64, ColdOp) {
    let rec = ctx.rec;
    let n = b.len() as u64;
    let (build_ms, (mut planner, solver, solved, finalize_ms)) = timed_ms(|| {
        let backend = rec.span(Layer::Core, "exec_backend_shared", || {
            ExecBackend::<f64>::with_shared_runtime(Arc::clone(rt), None)
        });
        let mut planner = Planner::new(Box::new(backend));
        let part = rec.span(Layer::Index, "equal_blocks", || {
            Partition::equal_blocks(n, PIECES)
        });
        let (finalize_ms, ()) = timed_ms(|| {
            rec.span(Layer::Core, "register", || {
                let d = planner.add_sol_vector(n, Some(part.clone()));
                let r = planner.add_rhs_vector(n, Some(part));
                let op: Arc<dyn SparseMatrix<f64>> = Arc::clone(matrix) as _;
                planner.add_operator(op, d, r);
                planner.set_rhs_data(r, b);
            });
            rec.span(Layer::Core, "finalize", || planner.finalize());
        });
        let mut solver = rec.span(Layer::Core, "bicgstab_new", || {
            BiCgStabSolver::new(&mut planner)
        });
        let report = rec
            .span(Layer::Core, "solve", || {
                solve(
                    &mut planner,
                    &mut solver,
                    SolveControl {
                        max_iters: ITERS,
                        check_every: 1,
                        ..SolveControl::default()
                    },
                )
            })
            .expect("a row-dominant system does not break BiCGStab down");
        let x = rec.span(Layer::Core, "read_component", || {
            planner.read_component(SOL, 0)
        });
        (planner, solver, Solved { report, x }, finalize_ms)
    });
    let metrics = exec_metrics(&mut planner);
    let (drop_ms, ()) =
        timed_ms(|| rec.span(Layer::Core, "drop_planner", || drop((solver, planner))));
    (
        build_ms + drop_ms,
        ColdOp {
            solved,
            finalize_ms,
            metrics,
        },
    )
}

impl Workload for Cold {
    fn round(&mut self, ctx: &RoundCtx) -> Round {
        let rec = ctx.rec;
        let mut notes = Notes::new();
        let b = self.check.b.clone();

        // Cold set-up: hand the generated arrays to the library, start
        // the round's one runtime, run one operation.
        let ((matrix, rt, first_ms, first, setup_s), host) = host::calibrated(|| {
            let t0 = Instant::now();
            let matrix = Arc::new(rec.span(Layer::Sparse, "csr_from_raw", || self.matrix.to_csr()));
            let rt = Arc::new(rec.span(Layer::Runtime, "runtime_new", || Runtime::new(1)));
            rt.enable_events(ctx.trace);
            let (first_ms, first) = build_and_solve(&rt, &matrix, &b, ctx);
            (matrix, rt, first_ms, first, t0.elapsed().as_secs_f64())
        });
        let setup_s = setup_s / host.slowdown;
        notes.insert("core.first_solve_ms", first_ms);
        notes.insert("core.iters_per_op", first.solved.report.iters as f64);
        let mut failed = u64::from(!self.check.passes(&first.solved));

        // Every operation has its own backend, so step counters add up
        // per operation and task counters come from the shared runtime.
        // Checks run after their block closes: neither its wall time
        // nor its CPU time contains them.
        let r0 = rt.metrics();
        let mut window = ExecWindow::default();
        let mut finalize_ms = Vec::new();
        // As the clock read them, for the runtime's own nanosecond
        // counters to be set against.
        let (mut window_ms, mut last_window_ns) = (0.0, 0.0);
        let mut blocks = Vec::with_capacity(ctx.blocks);
        for _ in 0..ctx.blocks {
            let mut pending = Vec::with_capacity(ctx.k);
            let mut block = Block::default();
            for _ in 0..ctx.k {
                rec.next_op();
                if ctx.trace {
                    // Keep only the last operation's task spans.
                    rt.take_spans();
                }
                let ((ms, cpu_ms, op), host) = host::calibrated(|| {
                    let cpu0 = host::process_cpu_ms();
                    let (ms, op) = build_and_solve(&rt, &matrix, &b, ctx);
                    (ms, host::process_cpu_ms() - cpu0, op)
                });
                finalize_ms.push(op.finalize_ms);
                window.add_backend(&op.metrics);
                window_ms += ms;
                last_window_ns = ms * 1e6;
                block.op_ms.push(ms / host.slowdown);
                block.cpu_ms += cpu_ms / host.slowdown;
                block.calib_ms += host.calib_ms / ctx.k as f64;
                pending.push(op.solved);
            }
            block.wall_s = block.op_ms.iter().sum::<f64>() / 1e3;
            blocks.push(block);
            for solved in &pending {
                failed += u64::from(!self.check.passes(solved));
            }
        }

        window.add_runtime(&r0, &rt.metrics());
        window.notes(&mut notes, window_ms / 1e3);
        notes.insert("core.finalize_ms", crate::stats::median(&finalize_ms));
        notes.insert("core.true_resid_rel", self.check.worst_resid);
        if ctx.trace {
            let spans = rt.take_spans();
            task_span_notes(&mut notes, rec, &spans, last_window_ns);
        }
        let attempted = 1 + (blocks.len() * ctx.k) as u64;
        rec.span(Layer::Runtime, "drop_runtime", || drop((matrix, rt)));
        Round {
            setups_s: vec![setup_s],
            blocks,
            attempted,
            failed,
            notes,
        }
    }
}
