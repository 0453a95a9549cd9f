//! Solver-level instrumentation: per-iteration records, residual
//! history, and per-phase time splits.
//!
//! [`solve_traced`](crate::solvers::solve_traced) fills a
//! [`SolveTrace`] with one [`IterationRecord`] per iteration (wall
//! time plus the backend's [`StepOutcome`]) and the residual history
//! sampled at convergence checks. Combined with the runtime's task
//! spans (see [`kdr_runtime::Runtime::take_spans`]), the task-name
//! classifier here produces a [`PhaseSplit`] — the SpMV / dot /
//! vector-update / scalar breakdown that drives solver-variant
//! selection in hardware-oriented Krylov work.

use kdr_runtime::TaskSpan;

use crate::backend::StepOutcome;

/// Mathematical phase a backend task belongs to, classified from its
/// task name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SolverPhase {
    /// Operator application: the per-format `spmv_*` tile kernels and
    /// the fused/standalone zero-fill (`apply_zero`).
    SpMV,
    /// Inner products: `dot_partial` / `dot_reduce`.
    Dot,
    /// Vector updates: `axpy`, `xpay`, `scal`, `copy`, `set_zero`,
    /// and `axpy+dot_partial`, an `axpy` that yields the partials of
    /// the dot after it in the same pass (the dot runs under the
    /// update's loads and stores).
    VectorUpdate,
    /// Scalar arithmetic tasks (`scalar_*`).
    Scalar,
    /// Anything else (application tasks, preconditioner kernels).
    Other,
}

impl SolverPhase {
    /// Classify a backend task name (as emitted by
    /// [`ExecBackend`](crate::ExecBackend)) into its phase.
    pub fn of_task(name: &str) -> SolverPhase {
        match name {
            "apply_zero" => SolverPhase::SpMV,
            n if n.starts_with("spmv_") => SolverPhase::SpMV,
            "dot_partial" | "dot_reduce" => SolverPhase::Dot,
            "axpy" | "xpay" | "scal" | "copy" | "set_zero" | "axpy+dot_partial" => {
                SolverPhase::VectorUpdate
            }
            n if n.starts_with("scalar_") => SolverPhase::Scalar,
            _ => SolverPhase::Other,
        }
    }
}

/// Total execute time per [`SolverPhase`], in nanoseconds, summed
/// over task spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseSplit {
    /// Operator-application time (SpMV tiles + zero fills).
    pub spmv_ns: u64,
    /// Inner-product time (partials + reductions).
    pub dot_ns: u64,
    /// Vector-update time (axpy/xpay/scal/copy/set_zero).
    pub vector_update_ns: u64,
    /// Scalar-task time.
    pub scalar_ns: u64,
    /// Unclassified task time.
    pub other_ns: u64,
}

impl PhaseSplit {
    /// Sum the execute time of `spans` into per-phase buckets.
    pub fn from_spans(spans: &[TaskSpan]) -> PhaseSplit {
        let mut split = PhaseSplit::default();
        for s in spans {
            let ns = s.execute_ns();
            match SolverPhase::of_task(s.name) {
                SolverPhase::SpMV => split.spmv_ns += ns,
                SolverPhase::Dot => split.dot_ns += ns,
                SolverPhase::VectorUpdate => split.vector_update_ns += ns,
                SolverPhase::Scalar => split.scalar_ns += ns,
                SolverPhase::Other => split.other_ns += ns,
            }
        }
        split
    }

    /// Total execute time across all phases, ns.
    pub fn total_ns(&self) -> u64 {
        self.spmv_ns + self.dot_ns + self.vector_update_ns + self.scalar_ns + self.other_ns
    }
}

/// One solver iteration as observed by
/// [`solve_traced`](crate::solvers::solve_traced).
#[derive(Clone, Copy, Debug)]
pub struct IterationRecord {
    /// Iteration number (1-based, matching `SolveReport::iters`).
    pub iter: usize,
    /// Wall time from `step_begin` to the return of `step_end`, ns.
    /// On a convergence-check iteration `step_end` forces the check's
    /// scalars with the step, so the window includes running the step
    /// (a replayed step's submitter runs it while it waits). On the
    /// others execution overlaps across iterations, and the window
    /// measures submission cost, not task time.
    pub wall_ns: u64,
    /// How the backend handled the step (analyzed / captured /
    /// replayed).
    pub outcome: StepOutcome,
}

/// Everything [`solve_traced`](crate::solvers::solve_traced) records
/// about one solve.
#[derive(Clone, Debug, Default)]
pub struct SolveTrace {
    /// One record per iteration performed.
    pub iterations: Vec<IterationRecord>,
    /// `(iteration, residual)` samples taken at convergence checks
    /// (every `check_every` iterations, plus the final forced check).
    pub residual_history: Vec<(usize, f64)>,
}

impl SolveTrace {
    /// A trace with nothing recorded yet.
    pub fn new() -> Self {
        SolveTrace::default()
    }

    /// Iterations whose step was replayed from a captured trace.
    pub fn steps_replayed(&self) -> usize {
        self.iterations
            .iter()
            .filter(|r| r.outcome == StepOutcome::Replayed)
            .count()
    }

    /// Iterations that ran through full dependence analysis
    /// (including captures, which analyze while recording).
    pub fn steps_analyzed(&self) -> usize {
        self.iterations.len() - self.steps_replayed()
    }

    /// The last sampled residual, if any check ran.
    pub fn final_residual(&self) -> Option<f64> {
        self.residual_history.last().map(|&(_, r)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdr_runtime::Provenance;

    fn span(name: &'static str, exec_ns: u64) -> TaskSpan {
        TaskSpan {
            id: 0,
            name,
            provenance: Provenance::Analyzed,
            worker: 0,
            by_driver: false,
            submit_ns: 0,
            ready_ns: 0,
            start_ns: 0,
            end_ns: exec_ns,
            retire_ns: exec_ns,
            outcome: kdr_runtime::TaskOutcome::Completed,
            deps: Vec::new(),
        }
    }

    #[test]
    fn classifier_covers_backend_task_names() {
        for n in [
            "spmv_csr",
            "spmv_csr_z",
            "spmv_t_csr",
            "spmv_t_csr_z",
            "spmv_dia",
            "spmv_ell_z",
            "spmv_t_bcsr",
            "apply_zero",
        ] {
            assert_eq!(SolverPhase::of_task(n), SolverPhase::SpMV, "{n}");
        }
        assert_eq!(SolverPhase::of_task("dot_partial"), SolverPhase::Dot);
        assert_eq!(SolverPhase::of_task("dot_reduce"), SolverPhase::Dot);
        for n in [
            "axpy",
            "xpay",
            "scal",
            "copy",
            "set_zero",
            "axpy+dot_partial",
        ] {
            assert_eq!(SolverPhase::of_task(n), SolverPhase::VectorUpdate, "{n}");
        }
        for n in ["scalar_set", "scalar_binop", "scalar_unop"] {
            assert_eq!(SolverPhase::of_task(n), SolverPhase::Scalar, "{n}");
        }
        assert_eq!(SolverPhase::of_task("my_app_task"), SolverPhase::Other);
    }

    /// One checked step of each of the twelve solvers on the
    /// execution backend: every span the step records has a phase.
    #[test]
    fn no_solver_step_span_classifies_as_other() {
        use crate::solvers::*;
        use crate::{ExecBackend, Planner};
        use kdr_sparse::{SparseMatrix, Stencil};
        use std::sync::Arc;

        type Build = fn(&mut Planner<f64>) -> Box<dyn Solver<f64>>;
        let solvers: [(&str, Build); 12] = [
            ("cg", |p| Box::new(CgSolver::new(p))),
            ("bicg", |p| Box::new(BiCgSolver::new(p))),
            ("bicgstab", |p| Box::new(BiCgStabSolver::new(p))),
            ("cgs", |p| Box::new(CgsSolver::new(p))),
            ("minres", |p| Box::new(MinresSolver::new(p))),
            ("gmres", |p| Box::new(GmresSolver::with_restart(p, 4))),
            ("tfqmr", |p| Box::new(TfqmrSolver::new(p))),
            ("fusedcg", |p| Box::new(FusedCgSolver::new(p))),
            ("pipelinedcg", |p| Box::new(PipelinedCgSolver::new(p))),
            ("pipelinedcr", |p| Box::new(PipelinedCrSolver::new(p))),
            ("sstepcg", |p| Box::new(SStepCgSolver::with_s(p, 2))),
            ("chebyshev", |p| {
                Box::new(ChebyshevSolver::with_bounds(p, 0.1, 8.0))
            }),
        ];
        let stencil = Stencil::lap2d(8, 8);
        let n = stencil.unknowns();
        let matrix: Arc<dyn SparseMatrix<f64>> = Arc::new(stencil.to_csr::<f64, u64>());
        for (name, build) in solvers {
            let backend = ExecBackend::<f64>::new(2);
            backend.set_event_logging(true);
            let mut planner = Planner::new(Box::new(backend));
            let part = kdr_index::Partition::equal_blocks(n, 2);
            let d = planner.add_sol_vector(n, Some(part.clone()));
            let r = planner.add_rhs_vector(n, Some(part));
            planner.add_operator(Arc::clone(&matrix), d, r);
            planner.set_rhs_data(r, &kdr_sparse::stencil::rhs_vector::<f64>(n, 5));
            let mut solver = build(&mut planner);
            solve(
                &mut planner,
                solver.as_mut(),
                SolveControl::to_tolerance(1e-300, 1),
            )
            .expect("one step on a Laplacian does not break down");
            let spans = planner.with_backend(|b| {
                b.as_any()
                    .downcast_mut::<ExecBackend<f64>>()
                    .expect("built on the exec backend")
                    .take_spans()
            });
            assert!(!spans.is_empty(), "{name}: no spans recorded");
            for s in &spans {
                assert_ne!(
                    SolverPhase::of_task(s.name),
                    SolverPhase::Other,
                    "{name}: task `{}` has no phase",
                    s.name
                );
            }
        }
    }

    #[test]
    fn phase_split_sums_and_fractions() {
        let spans = vec![
            span("spmv_dia", 600),
            span("dot_partial", 200),
            span("dot_reduce", 100),
            span("axpy", 50),
            span("scalar_binop", 30),
            span("mystery", 20),
        ];
        let split = PhaseSplit::from_spans(&spans);
        assert_eq!(split.spmv_ns, 600);
        assert_eq!(split.dot_ns, 300);
        assert_eq!(split.vector_update_ns, 50);
        assert_eq!(split.scalar_ns, 30);
        assert_eq!(split.other_ns, 20);
        assert_eq!(split.total_ns(), 1000);
    }

    #[test]
    fn trace_counts_outcomes() {
        let mut t = SolveTrace::new();
        for (i, o) in [
            StepOutcome::Captured,
            StepOutcome::Replayed,
            StepOutcome::Replayed,
        ]
        .iter()
        .enumerate()
        {
            t.iterations.push(IterationRecord {
                iter: i + 1,
                wall_ns: 100,
                outcome: *o,
            });
        }
        t.residual_history.push((3, 1e-7));
        assert_eq!(t.steps_replayed(), 2);
        assert_eq!(t.steps_analyzed(), 1);
        assert_eq!(t.final_residual(), Some(1e-7));
    }
}
