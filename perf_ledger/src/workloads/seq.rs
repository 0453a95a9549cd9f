//! `seq_kernel` and `seq_tax`: warm sequences of identical CG solves
//! against a planner. The two differ only in where an iteration's
//! time goes — into the SpMV kernel, or into the task runtime.

use std::ops::RangeInclusive;
use std::sync::Arc;
use std::time::Instant;

use kdr_core::{solve, CgSolver, ExecBackend, Planner, SolveControl, RHS, SOL};
use kdr_index::Partition;
use kdr_sparse::stencil::rhs_vector;
use kdr_sparse::{SparseMatrix, Stencil, StencilKind};

use super::{
    exec_metrics, task_span_notes, timed_ms, with_exec, ExecWindow, Notes, Round, RoundCtx,
    SolveCheck, Solved, Workload,
};
use crate::host;
use crate::inputs::{rhs_seed, Reference};
use crate::spans::Layer;
use crate::stats::Block;

/// Timed solves per planner. The execution backend's trace cache holds
/// 8 step shapes and a rebuilt CG solver brings new ones: the set-up
/// solve and the next three replay, the fifth on one planner is half
/// analysed, and from the seventh on every step is re-analysed (2x to 15x slower
/// on `seq_tax`). Three stay in the replayed regime these workloads exist
/// to measure, so a block of `k` operations spans `k / 3` planners, each
/// with its own timed set-up; the ageing itself is what `fleet_mixed`
/// and `service.job_age_slope` watch.
pub const SOLVES_PER_PLANNER: usize = 3;

/// Shape of one warm-sequence workload.
#[derive(Clone, Debug)]
pub struct SeqSpec {
    /// The assembled operator.
    pub stencil: Stencil,
    /// Pieces of the domain and range partitions.
    pub pieces: usize,
    /// CG tolerance (absolute recurrence residual).
    pub tol: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// Iteration counts seen over the seeds swept when the workload was
    /// frozen ([`SolveCheck::iters_band`]).
    pub iters_band: RangeInclusive<usize>,
}

/// CG iterations to 1e-8: seeds 0..400 took 97 to 102 on the
/// `seq_kernel` problem and 319 to 331 on the `seq_tax` problem; the
/// bands add about 2 % either side for the seeds not swept.
const ITERS_KERNEL: RangeInclusive<usize> = 95..=104;
const ITERS_TAX: RangeInclusive<usize> = 312..=338;

/// Kernels do the work: 27-point 3-D Laplacian, 40³ unknowns, 13.8 MB
/// of DIA values — more than three times a core's private L2 — in 4
/// pieces on 1 worker. On this 2-CPU VM two workers made an iteration
/// 1.2 times faster for 1.4 times the CPU time, and twice slower
/// whenever the guest scheduler put both on one CPU.
pub const SEQ_KERNEL: SeqSpec = SeqSpec {
    stencil: Stencil {
        kind: StencilKind::Lap3D27,
        nx: 40,
        ny: 40,
        nz: 40,
    },
    pieces: 4,
    tol: 1e-8,
    max_iters: 2000,
    iters_band: ITERS_KERNEL,
};

/// The runtime does the work: 5-point 2-D Laplacian, 96² unknowns in
/// 16 pieces of 576 on 1 worker — ~103 tasks and two reduction waits
/// per iteration around 30 µs of kernel work.
pub const SEQ_TAX: SeqSpec = SeqSpec {
    stencil: Stencil {
        kind: StencilKind::Lap2D5,
        nx: 96,
        ny: 96,
        nz: 1,
    },
    pieces: 16,
    tol: 1e-8,
    max_iters: 5000,
    iters_band: ITERS_TAX,
};

/// A warm-sequence workload with its generated inputs.
pub struct Seq {
    spec: SeqSpec,
    /// The run's correctness rule (reference operator, RHS, recorded
    /// iteration count).
    pub check: SolveCheck,
}

impl Seq {
    /// Generate the run's inputs.
    pub fn new(spec: SeqSpec, seed: u64) -> Self {
        let b = rhs_vector::<f64>(spec.stencil.unknowns(), rhs_seed(seed, 0));
        let check = SolveCheck::new(
            Reference::Rows(spec.stencil),
            b,
            spec.tol,
            spec.iters_band.clone(),
        );
        Seq { spec, check }
    }

    /// The cold set-up: assemble, register, finalize, first solve.
    /// Returns the planner, the set-up's seconds and the first solve.
    fn set_up(&self, ctx: &RoundCtx, notes: &mut Notes) -> (Planner<f64>, f64, Solved) {
        let (spec, rec) = (&self.spec, ctx.rec);
        let n = spec.stencil.unknowns();
        let t0 = Instant::now();
        let matrix: Arc<dyn SparseMatrix<f64>> =
            Arc::new(rec.span(Layer::Sparse, "to_csr", || {
                spec.stencil.to_csr::<f64, u64>()
            }));
        let backend = rec.span(Layer::Core, "exec_backend_new", || {
            ExecBackend::<f64>::new(1)
        });
        backend.set_event_logging(ctx.trace);
        let mut planner = Planner::new(Box::new(backend));
        let part = rec.span(Layer::Index, "equal_blocks", || {
            Partition::equal_blocks(n, spec.pieces)
        });
        let (finalize_ms, ()) = timed_ms(|| {
            rec.span(Layer::Core, "register", || {
                let d = planner.add_sol_vector(n, Some(part.clone()));
                let r = planner.add_rhs_vector(n, Some(part));
                planner.add_operator(matrix, d, r);
            });
            rec.span(Layer::Core, "finalize", || planner.finalize());
        });
        let (first_ms, first) = solve_once(&mut planner, spec, &self.check.b, ctx);
        let setup_s = t0.elapsed().as_secs_f64();
        notes.insert("core.finalize_ms", finalize_ms);
        notes.insert("core.first_solve_ms", first_ms);
        notes.insert("core.iters_per_op", first.report.iters as f64);
        (planner, setup_s, first)
    }
}

/// One operation: install the RHS, zero the iterate, build a CG
/// solver, solve to tolerance, release the workspace. Returns the
/// timed window and the result (read back outside the window).
fn solve_once(
    planner: &mut Planner<f64>,
    spec: &SeqSpec,
    b: &[f64],
    ctx: &RoundCtx,
) -> (f64, Solved) {
    let rec = ctx.rec;
    let (ms, report) = timed_ms(|| {
        rec.span(Layer::Core, "set_rhs_data", || planner.set_rhs_data(0, b));
        let mark = planner.workspace_mark();
        rec.span(Layer::Core, "zero_sol", || planner.zero(SOL));
        let mut solver = rec.span(Layer::Core, "cg_new", || CgSolver::new(planner));
        let report = rec.span(Layer::Core, "solve", || {
            solve(
                planner,
                &mut solver,
                SolveControl::to_tolerance(spec.tol, spec.max_iters),
            )
        });
        rec.span(Layer::Core, "release_workspace", || {
            planner.release_workspace_from(mark.max(RHS + 1))
        });
        report.expect("a Laplacian CG solve does not break down")
    });
    let x = rec.span(Layer::Core, "read_component", || {
        planner.read_component(SOL, 0)
    });
    (ms, Solved { report, x })
}

impl Workload for Seq {
    fn round(&mut self, ctx: &RoundCtx) -> Round {
        let rec = ctx.rec;
        let mut round = Round::default();
        for _ in 0..ctx.blocks {
            let mut block = Block::default();
            let mut calib_ms = Vec::with_capacity(ctx.k);
            while block.op_ms.len() < ctx.k {
                let ((mut planner, setup_s, first), host) =
                    host::calibrated(|| self.set_up(ctx, &mut round.notes));
                round.setups_s.push(setup_s / host.slowdown);

                let solves = SOLVES_PER_PLANNER.min(ctx.k - block.op_ms.len());
                let mut pending = vec![first];
                // As the clock read them, for the runtime's own
                // nanosecond counters to be set against.
                let (mut window_ms, mut last_window_ns) = (0.0, 0.0);
                let m0 = exec_metrics(&mut planner);
                for _ in 0..solves {
                    rec.next_op();
                    if ctx.trace {
                        // Keep only the last operation's task spans.
                        with_exec(&mut planner, |e| e.take_spans());
                    }
                    let ((ms, cpu_ms, solved), host) = host::calibrated(|| {
                        let cpu0 = host::process_cpu_ms();
                        let (ms, solved) = solve_once(&mut planner, &self.spec, &self.check.b, ctx);
                        (ms, host::process_cpu_ms() - cpu0, solved)
                    });
                    block.op_ms.push(ms / host.slowdown);
                    block.cpu_ms += cpu_ms / host.slowdown;
                    calib_ms.push(host.calib_ms);
                    window_ms += ms;
                    last_window_ns = ms * 1e6;
                    pending.push(solved);
                }
                let m1 = exec_metrics(&mut planner);

                // Checks and per-layer figures stay outside the timed
                // windows; the figures are those of the round's last
                // planner.
                round.attempted += pending.len() as u64;
                for solved in &pending {
                    round.failed += u64::from(!self.check.passes(solved));
                }
                ExecWindow::between(&m0, &m1).notes(&mut round.notes, window_ms / 1e3);
                if ctx.trace {
                    let spans = with_exec(&mut planner, |e| e.take_spans());
                    task_span_notes(&mut round.notes, rec, &spans, last_window_ns);
                }
                rec.span(Layer::Core, "drop_planner", || drop(planner));
            }
            block.wall_s = block.op_ms.iter().sum::<f64>() / 1e3;
            block.calib_ms = calib_ms.iter().sum::<f64>() / calib_ms.len() as f64;
            round.blocks.push(block);
        }
        round
            .notes
            .insert("core.true_resid_rel", self.check.worst_resid);
        round
    }
}
