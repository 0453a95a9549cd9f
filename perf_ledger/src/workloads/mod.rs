//! The four workloads and the run shape they share.
//!
//! A run is a fixed number of rounds. A round drops the previous
//! round's state and times a fixed number of blocks of `k` identical
//! operations ([`crate::schema::Shape`]) on fresh state, whose cold
//! set-up it times separately: once per round, except in the warm
//! sequences, which set up a planner for every three operations. There
//! is no deadline anywhere, so a slow host phase makes a run longer,
//! never lighter.

pub mod cold;
pub mod fleet;
pub mod seq;

use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::time::Instant;

use kdr_core::{ExecBackend, ExecMetrics, Planner, SolveReport};
use kdr_runtime::MetricsSnapshot;

use crate::inputs::Reference;
use crate::spans::{Layer, Recorder};
use crate::stats::Block;

/// Per-layer figures a round observed, by metric name.
pub type Notes = BTreeMap<&'static str, f64>;

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Every cold set-up of the round, seconds.
    pub setups_s: Vec<f64>,
    /// The timed blocks.
    pub blocks: Vec<Block>,
    /// Operations run, set-up operations included.
    pub attempted: u64,
    /// Operations whose result failed a check.
    pub failed: u64,
    /// Per-layer figures observed during the round.
    pub notes: Notes,
}

/// What a round is run with.
pub struct RoundCtx<'a> {
    /// Timed blocks in the round.
    pub blocks: usize,
    /// Operations per block.
    pub k: usize,
    /// Span recorder; enabled only in the traced round.
    pub rec: &'a Recorder,
    /// Turn on the runtime's event log (the traced round).
    pub trace: bool,
}

/// A workload: inputs generated once per run, then any number of
/// identical rounds.
pub trait Workload {
    /// One round: fresh state, cold set-ups, timed blocks.
    fn round(&mut self, ctx: &RoundCtx) -> Round;
}

/// Build the named workload's inputs from `seed`.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "seq_kernel" => Box::new(seq::Seq::new(seq::SEQ_KERNEL, seed)),
        "seq_tax" => Box::new(seq::Seq::new(seq::SEQ_TAX, seed)),
        "cold_irregular" => Box::new(cold::Cold::new(seed)),
        "fleet_mixed" => Box::new(fleet::Fleet::new(seed)),
        _ => return None,
    })
}

/// Milliseconds `f` took, and its result.
pub fn timed_ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64() * 1e3, out)
}

/// A finished solve waiting for its check.
pub struct Solved {
    /// The solver's report.
    pub report: SolveReport,
    /// The solution it left behind.
    pub x: Vec<f64>,
}

/// The per-operation correctness rule of the planner-driven workloads.
pub struct SolveCheck {
    /// Harness copy of the operator.
    pub reference: Reference,
    /// The right-hand side every operation of the run solves.
    pub b: Vec<f64>,
    /// The solver's tolerance.
    pub tol: f64,
    /// Iteration counts recorded for the workload when it was frozen:
    /// the extremes over a sweep of seeds. A count outside is a changed
    /// solver, whichever seed the run was given.
    pub iters_band: RangeInclusive<usize>,
    /// Iteration count of the run's first solve; every later solve of
    /// the same system must repeat it exactly.
    pub first_iters: Option<usize>,
    /// Largest harness-side relative residual seen.
    pub worst_resid: f64,
}

impl SolveCheck {
    /// A check for `reference · x = b` solved to `tol` in a number of
    /// iterations inside `iters_band`.
    pub fn new(
        reference: Reference,
        b: Vec<f64>,
        tol: f64,
        iters_band: RangeInclusive<usize>,
    ) -> Self {
        SolveCheck {
            reference,
            b,
            tol,
            iters_band,
            first_iters: None,
            worst_resid: 0.0,
        }
    }

    /// Passed: the solver's final residual below the tolerance (what
    /// the converged flag of a solve to tolerance says, and what a solve
    /// of a fixed length must show), iteration count inside the
    /// recorded band and equal to the run's first, and `‖b − Ax‖/‖b‖`
    /// by the harness's own product within ten times the tolerance.
    pub fn passes(&mut self, s: &Solved) -> bool {
        let resid = self.reference.relative_residual(&s.x, &self.b);
        self.worst_resid = self.worst_resid.max(resid);
        let first = *self.first_iters.get_or_insert(s.report.iters);
        s.report.final_residual < self.tol
            && self.iters_band.contains(&s.report.iters)
            && s.report.iters == first
            && resid <= 10.0 * self.tol
    }
}

/// The execution backend's metrics snapshot.
pub fn exec_metrics(planner: &mut Planner<f64>) -> ExecMetrics {
    with_exec(planner, |b| b.metrics())
}

/// Reach the planner's concrete execution backend.
pub fn with_exec<R>(planner: &mut Planner<f64>, f: impl FnOnce(&mut ExecBackend<f64>) -> R) -> R {
    planner.with_backend(|b| {
        f(b.as_any()
            .downcast_mut::<ExecBackend<f64>>()
            .expect("workload planners run on the exec backend"))
    })
}

/// Counters of the execution backend and its runtime over the timed
/// operations of a round.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecWindow {
    pub tasks_submitted: u64,
    pub tasks_executed: u64,
    pub tasks_stolen: u64,
    pub steps_analyzed: u64,
    pub steps_captured: u64,
    pub steps_replayed: u64,
    pub reduction_stall_ns: u64,
    pub fences_per_iter: f64,
    pub value_bytes: u64,
}

impl ExecWindow {
    /// Counter differences between two snapshots of one backend.
    pub fn between(m0: &ExecMetrics, m1: &ExecMetrics) -> Self {
        let mut w = ExecWindow::default();
        w.add_runtime(&m0.runtime, &m1.runtime);
        w.add_backend(m1);
        w.steps_analyzed -= m0.steps_analyzed;
        w.steps_captured -= m0.steps_captured;
        w.steps_replayed -= m0.steps_replayed;
        w.reduction_stall_ns -= m0.reduction_stall_ns;
        w
    }

    /// Add the runtime's task counters between two snapshots.
    pub fn add_runtime(&mut self, r0: &MetricsSnapshot, r1: &MetricsSnapshot) {
        self.tasks_submitted += r1.tasks_submitted - r0.tasks_submitted;
        self.tasks_executed += r1.tasks_executed - r0.tasks_executed;
        self.tasks_stolen += r1.tasks_stolen - r0.tasks_stolen;
    }

    /// Add one backend's own step and stall counters.
    pub fn add_backend(&mut self, m: &ExecMetrics) {
        self.steps_analyzed += m.steps_analyzed;
        self.steps_captured += m.steps_captured;
        self.steps_replayed += m.steps_replayed;
        self.reduction_stall_ns += m.reduction_stall_ns;
        self.fences_per_iter = m.fences_per_iteration;
        self.value_bytes = m.operator_value_bytes;
    }

    /// The window as per-layer notes; `window_s` is its timed wall.
    pub fn notes(&self, notes: &mut Notes, window_s: f64) {
        let steps = (self.steps_analyzed + self.steps_captured + self.steps_replayed).max(1) as f64;
        notes.insert(
            "runtime.tasks_per_iter",
            self.tasks_submitted as f64 / steps,
        );
        notes.insert(
            "runtime.steal_frac",
            self.tasks_stolen as f64 / self.tasks_executed.max(1) as f64,
        );
        notes.insert("core.trace_hit_rate", self.steps_replayed as f64 / steps);
        notes.insert("core.analyzed_frac", self.steps_analyzed as f64 / steps);
        notes.insert("core.fences_per_iter", self.fences_per_iter);
        notes.insert(
            "core.reduction_stall_frac",
            self.reduction_stall_ns as f64 / 1e9 / window_s,
        );
        notes.insert("sparse.value_bytes", self.value_bytes as f64);
    }
}

/// Figures only the runtime's event log gives, from the task spans of
/// one traced window of `window_ns` on the runtime's one worker.
pub fn task_span_notes(
    notes: &mut Notes,
    rec: &Recorder,
    spans: &[kdr_runtime::TaskSpan],
    window_ns: f64,
) {
    if spans.is_empty() {
        return;
    }
    let waits: Vec<f64> = spans
        .iter()
        .map(|s| s.queue_wait_ns() as f64 / 1e3)
        .collect();
    let busy: u64 = spans.iter().map(|s| s.execute_ns()).sum();
    // A replayed step is fenced off from the one before it, so the
    // log holds one small DAG per step: a task submitted after every
    // earlier task had ended starts a new one, and the window's
    // critical path is the sum over them.
    let mut crit_ns = 0u64;
    let (mut first, mut latest_end) = (0usize, 0u64);
    for (i, s) in spans.iter().enumerate() {
        if i > first && s.submit_ns >= latest_end {
            crit_ns += rec
                .span(Layer::Runtime, "critical_path", || {
                    kdr_runtime::critical_path(&spans[first..i])
                })
                .length_ns;
            first = i;
        }
        latest_end = latest_end.max(s.end_ns);
    }
    crit_ns += rec
        .span(Layer::Runtime, "critical_path", || {
            kdr_runtime::critical_path(&spans[first..])
        })
        .length_ns;
    notes.insert("runtime.queue_wait_p50_us", crate::stats::median(&waits));
    notes.insert("runtime.worker_busy_frac", busy as f64 / window_ns);
    notes.insert("runtime.crit_path_frac", crit_ns as f64 / window_ns);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::scatter_matrix;
    use kdr_sparse::Stencil;

    /// A warm-sequence spec small enough for an unoptimised test build.
    const SMALL_SEQ: seq::SeqSpec = seq::SeqSpec {
        stencil: Stencil {
            kind: kdr_sparse::StencilKind::Lap2D5,
            nx: 24,
            ny: 24,
            nz: 1,
        },
        pieces: 4,
        tol: 1e-8,
        max_iters: 2000,
        iters_band: 1..=200,
    };

    fn one_round(w: &mut dyn Workload, blocks: usize, k: usize) -> Round {
        let rec = Recorder::new(false);
        w.round(&RoundCtx {
            blocks,
            k,
            rec: &rec,
            trace: false,
        })
    }

    const EXACT: [&str; 3] = [
        "core.iters_per_op",
        "runtime.tasks_per_iter",
        "sparse.value_bytes",
    ];

    #[test]
    fn same_seed_repeats_inputs_and_exact_counts_on_the_planner_workloads() {
        let (mut a, mut b) = (seq::Seq::new(SMALL_SEQ, 5), seq::Seq::new(SMALL_SEQ, 5));
        assert_eq!(a.check.b, b.check.b);
        assert_ne!(a.check.b, seq::Seq::new(SMALL_SEQ, 6).check.b);
        // Four operations: a planner of three, then a planner of one,
        // each with its set-up solve.
        let (ra, rb) = (one_round(&mut a, 1, 4), one_round(&mut b, 1, 4));
        assert_eq!((ra.attempted, ra.failed, rb.failed), (6, 0, 0));
        assert_eq!((ra.setups_s.len(), ra.blocks[0].op_ms.len()), (2, 4));
        for name in EXACT {
            assert!(ra.notes[name] > 0.0, "{name} was not observed");
            assert_eq!(ra.notes[name], rb.notes[name], "{name} must repeat exactly");
        }
        assert!(ra.notes["core.trace_hit_rate"] > 0.9);

        let (mut a, mut b) = (
            cold::Cold::with_unknowns(2048, 5),
            cold::Cold::with_unknowns(2048, 5),
        );
        assert_eq!(a.matrix, b.matrix);
        assert_ne!(a.matrix.colidx, scatter_matrix(2048, 6).colidx);
        let (ra, rb) = (one_round(&mut a, 1, 2), one_round(&mut b, 1, 2));
        assert_eq!((ra.attempted, ra.failed, rb.failed), (3, 0, 0));
        for name in EXACT {
            assert_eq!(ra.notes[name], rb.notes[name], "{name} must repeat exactly");
        }
        assert!(
            ra.notes["core.trace_hit_rate"] < 0.9,
            "a cold solve captures and analyses"
        );
    }

    #[test]
    fn same_seed_repeats_the_fleet_and_its_store() {
        let (mut a, mut b) = (fleet::Fleet::new(5), fleet::Fleet::new(5));
        assert_eq!(a.small.expected_iters, b.small.expected_iters);
        assert_eq!(a.large.expected_iters, b.large.expected_iters);
        let (ra, rb) = (one_round(&mut a, 1, 16), one_round(&mut b, 1, 16));
        assert_eq!((ra.attempted, ra.failed, rb.failed), (48, 0, 0));
        assert!(ra.notes["store.bytes"] > 0.0);
        for name in ["store.bytes", "core.iters_per_op", "service.rejects"] {
            assert_eq!(ra.notes[name], rb.notes[name], "{name} must repeat exactly");
        }

        // A job that does not reproduce the reference count fails.
        a.small.expected_iters += 1;
        let wrong = one_round(&mut a, 1, 16);
        let small_jobs = 2 * u64::from(fleet::SMALL_TENANTS)
            + fleet::quotas(16)
                .iter()
                .filter(|(&t, _)| t <= fleet::SMALL_TENANTS)
                .map(|(_, &q)| q as u64)
                .sum::<u64>();
        assert_eq!(wrong.failed, small_jobs);
    }

    #[test]
    fn a_wrong_iteration_count_or_residual_fails_the_operation() {
        let mut w = seq::Seq::new(SMALL_SEQ, 9);
        assert_eq!(one_round(&mut w, 1, 2).failed, 0);
        let first = w
            .check
            .first_iters
            .expect("the first solve records its count");
        w.check.first_iters = Some(first + 1);
        let wrong = one_round(&mut w, 1, 2);
        assert_eq!(wrong.failed, wrong.attempted);
        // A count that repeats but lies outside the recorded band.
        w.check.first_iters = None;
        w.check.iters_band = first + 1..=first + 9;
        let outside = one_round(&mut w, 1, 2);
        assert_eq!(outside.failed, outside.attempted);

        // The residual rule on its own: an exact solution passes, a
        // perturbed one does not, whatever the solver reports.
        let reference = scatter_matrix(256, 1);
        let x: Vec<f64> = (0..256).map(|i| 1.0 + (i % 5) as f64).collect();
        let b: Vec<f64> = (0..256)
            .map(|i| {
                (reference.rowptr[i] as usize..reference.rowptr[i + 1] as usize)
                    .map(|k| reference.values[k] * x[reference.colidx[k] as usize])
                    .sum()
            })
            .collect();
        let mut check = SolveCheck::new(Reference::Arrays(reference), b, 1e-8, 7..=7);
        let report = SolveReport {
            iters: 7,
            final_residual: 1e-9,
            converged: true,
            restarts: 0,
            checkpoints: 0,
        };
        assert!(check.passes(&Solved {
            report,
            x: x.clone()
        }));
        let mut off = x.clone();
        off[17] += 1e-5;
        assert!(!check.passes(&Solved { report, x: off }));
        let unconverged = SolveReport {
            final_residual: 1e-7,
            ..report
        };
        assert!(!check.passes(&Solved {
            report: unconverged,
            x
        }));
    }
}
