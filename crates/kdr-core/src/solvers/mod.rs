//! Krylov subspace methods over the planner interface.
//!
//! Every solver follows the paper's contract (§5, Figure 7): it is
//! constructed from a mutable planner reference, exposes `step()`,
//! and optionally a `convergence_measure()` scalar. Solvers know
//! nothing about storage formats, operator multiplicity, partitioning
//! or data movement — they speak only the Figure 6 operation set —
//! so every solver works unchanged on single- and multi-operator
//! systems, on the threaded backend and on the simulator, and all are
//! drop-in interchangeable.

pub mod bicg;
pub mod bicgstab;
pub mod cg;
pub mod cgs;
pub mod chebyshev;
pub mod gmres;
pub mod minres;
pub mod pipelined;
pub mod recovery;
pub mod sstep;
pub mod tfqmr;

pub use bicg::BiCgSolver;
pub use bicgstab::{BiCgStabSolver, PBiCgStabSolver};
pub use cg::{CgSolver, PcgSolver};
pub use cgs::CgsSolver;
pub use chebyshev::ChebyshevSolver;
pub use gmres::GmresSolver;
pub use minres::MinresSolver;
pub use pipelined::{FusedCgSolver, PipelinedCgSolver, PipelinedCrSolver};
pub use recovery::{solve_recoverable, RecoveryPolicy};
pub use sstep::SStepCgSolver;
pub use tfqmr::TfqmrSolver;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use kdr_sparse::Scalar;

use crate::instrument::{IterationRecord, SolveTrace};
use crate::planner::Planner;
use crate::scalar_handle::ScalarHandle;

/// Cooperative cancellation (and deadline) token for a running solve.
///
/// Cloning shares the underlying flag, so a controller thread can
/// hold one clone while [`SolveControl::cancel_token`] carries
/// another into the solve loop. The driver polls the token once per
/// iteration (a superset of the `check_every` cadence) and stops with
/// [`SolveError::Cancelled`] when it fires — between iterations, so
/// the backend is left quiescent and reusable. A deadline, fixed at
/// construction, makes the token fire by itself once the instant
/// passes.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Debug, Default)]
struct CancelInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only fires when [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that additionally fires on its own once `deadline`
    /// passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// Request cancellation; every clone observes it.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether the token has fired (explicitly or via its deadline).
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
            || self.inner.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The deadline this token was built with, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }
}

/// Why a solve stopped making mathematical progress; carried by
/// [`SolveError::Breakdown`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BreakdownKind {
    /// A `ρ = (r̃, r)` style inner product collapsed to zero (Lanczos
    /// breakdown in the BiCG family).
    RhoZero,
    /// BiCGStab's stabilization parameter `ω` collapsed to zero.
    OmegaZero,
    /// A step-length denominator (`(p, Ap)`, `(r̃, Av)`, a Givens
    /// norm, …) collapsed to zero.
    AlphaZero,
    /// `(p, Ap) ≤ 0`: the operator is not positive definite along the
    /// search direction (CG/PCG applied outside their assumptions).
    IndefiniteOperator,
}

impl std::fmt::Display for BreakdownKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BreakdownKind::RhoZero => write!(f, "rho inner product collapsed to zero"),
            BreakdownKind::OmegaZero => {
                write!(f, "stabilization parameter omega collapsed to zero")
            }
            BreakdownKind::AlphaZero => write!(f, "step-length denominator collapsed to zero"),
            BreakdownKind::IndefiniteOperator => {
                write!(
                    f,
                    "operator is not positive definite along the search direction"
                )
            }
        }
    }
}

/// A structured solve failure, returned instead of NaN convergence or
/// a process abort. See [`solve`] and [`recovery::solve_recoverable`].
#[derive(Clone, Debug, PartialEq)]
pub enum SolveError {
    /// The method's recurrence broke down (detected by the solver's
    /// [`Solver::breakdown_guards`] at convergence-check cadence).
    Breakdown {
        /// Which quantity broke down.
        kind: BreakdownKind,
        /// Iterations completed when the breakdown was detected.
        iteration: usize,
    },
    /// A sampled residual grew past 10⁸ times the first sample.
    Diverged {
        /// Iterations completed when divergence was detected.
        iteration: usize,
        /// The diverged residual.
        residual: f64,
    },
    /// The residual (or a guard scalar) became NaN or infinite —
    /// typically silent data corruption or overflow.
    NonFinite {
        /// Iterations completed when the non-finite value surfaced.
        iteration: usize,
    },
    /// A runtime task panicked (or was fault-injected) during the
    /// solve; the backend absorbed it instead of aborting.
    TaskFailed {
        /// Iterations completed when the failure surfaced.
        iteration: usize,
        /// Kernel name of the failed task.
        task: String,
        /// Panic message.
        message: String,
    },
    /// The solve's [`SolveControl::cancel_token`] fired (explicit
    /// cancellation or a passed deadline). The backend was fenced
    /// before returning, so the planner remains reusable.
    Cancelled {
        /// Iterations completed when cancellation was observed.
        iteration: usize,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Breakdown { kind, iteration } => {
                write!(f, "breakdown at iteration {iteration}: {kind}")
            }
            SolveError::Diverged {
                iteration,
                residual,
            } => {
                write!(
                    f,
                    "diverged at iteration {iteration} (residual {residual:.3e})"
                )
            }
            SolveError::NonFinite { iteration } => {
                write!(f, "non-finite residual at iteration {iteration}")
            }
            SolveError::TaskFailed {
                iteration,
                task,
                message,
            } => write!(
                f,
                "task '{task}' failed at iteration {iteration}: {message}"
            ),
            SolveError::Cancelled { iteration } => {
                write!(f, "cancelled at iteration {iteration}")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// Result of [`solve`] / [`solve_traced`] /
/// [`recovery::solve_recoverable`].
pub type SolveOutcome = Result<SolveReport, SolveError>;

/// How a breakdown guard scalar signals failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GuardTrigger {
    /// `|v| < breakdown_eps` breaks (division by a vanishing scalar).
    NearZero,
    /// `v ≤ breakdown_eps` breaks (a quantity that must stay
    /// positive, e.g. CG's `(p, Ap)`).
    NonPositive,
}

/// One method-specific breakdown detector: a deferred scalar the
/// driver forces at convergence-check cadence, and how to interpret
/// it. Produced by [`Solver::breakdown_guards`].
#[derive(Clone)]
pub struct BreakdownGuard<T: Scalar> {
    /// What a trigger means for this method.
    pub kind: BreakdownKind,
    /// The guarded scalar (from the most recent step).
    pub value: ScalarHandle<T>,
    /// The trigger condition.
    pub trigger: GuardTrigger,
}

/// A Krylov subspace method driving a [`Planner`].
///
/// `Send` is required so boxed solvers can live inside state shared
/// across threads (e.g. a solve service's active jobs); methods hold
/// only vector ids and deferred-scalar handles, so this is free.
pub trait Solver<T: Scalar>: Send {
    /// Perform one iteration.
    fn step(&mut self, planner: &mut Planner<T>);

    /// A scalar whose square root tracks solve progress (typically
    /// the squared residual norm), if the method maintains one.
    fn convergence_measure(&self) -> Option<ScalarHandle<T>>;

    /// Method name for reporting.
    fn name(&self) -> &'static str;

    /// Apply any deferred solution update (e.g. GMRES's end-of-cycle
    /// least-squares step) so `SOL` reflects all iterations performed.
    /// Called by [`solve`] before returning; default is a no-op.
    fn finalize_solution(&mut self, planner: &mut Planner<T>) {
        let _ = planner;
    }

    /// Scalars from the most recent step whose collapse signals a
    /// method breakdown. Checked by the driver at convergence-check
    /// cadence, *after* the convergence test (quantities legitimately
    /// vanish as the residual does). Default: no guards.
    fn breakdown_guards(&self) -> Vec<BreakdownGuard<T>> {
        Vec::new()
    }
}

impl<T: Scalar> Solver<T> for Box<dyn Solver<T>> {
    fn step(&mut self, planner: &mut Planner<T>) {
        (**self).step(planner)
    }

    fn convergence_measure(&self) -> Option<ScalarHandle<T>> {
        (**self).convergence_measure()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn finalize_solution(&mut self, planner: &mut Planner<T>) {
        (**self).finalize_solution(planner)
    }

    fn breakdown_guards(&self) -> Vec<BreakdownGuard<T>> {
        (**self).breakdown_guards()
    }
}

/// Iteration control for [`solve`].
#[derive(Clone, Debug)]
pub struct SolveControl {
    /// Hard iteration cap.
    pub max_iters: usize,
    /// Stop when `sqrt(convergence_measure) < tol` (as `f64`);
    /// `0.0` disables the check (fixed-iteration runs, as in the
    /// paper's benchmarks).
    pub tol: f64,
    /// Force and test the measure every `check_every` iterations;
    /// checking blocks the pipeline, so benchmarks use large values.
    pub check_every: usize,
    /// Threshold for [`Solver::breakdown_guards`]: a guard scalar
    /// within this of zero (or below it, for
    /// [`GuardTrigger::NonPositive`]) is a breakdown.
    pub breakdown_eps: f64,
    /// Cooperative cancellation/deadline token, polled once per
    /// iteration; when it fires the solve stops with
    /// [`SolveError::Cancelled`]. `None` disables.
    pub cancel_token: Option<CancelToken>,
}

impl Default for SolveControl {
    fn default() -> Self {
        SolveControl {
            max_iters: 100,
            tol: 0.0,
            check_every: 0,
            breakdown_eps: 1e-30,
            cancel_token: None,
        }
    }
}

impl SolveControl {
    /// Run exactly `n` iterations with no convergence checks.
    pub fn fixed(n: usize) -> Self {
        SolveControl {
            max_iters: n,
            ..SolveControl::default()
        }
    }

    /// Iterate to tolerance, checking every iteration.
    pub fn to_tolerance(tol: f64, max_iters: usize) -> Self {
        SolveControl {
            max_iters,
            tol,
            check_every: 1,
            ..SolveControl::default()
        }
    }
}

/// Successful outcome of [`solve`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolveReport {
    /// Iterations performed.
    pub iters: usize,
    /// Final forced convergence measure (square root), `NaN` if never
    /// checked.
    pub final_residual: f64,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Restarts performed by [`recovery::solve_recoverable`]; always
    /// `0` from plain [`solve`].
    pub restarts: usize,
    /// Checkpoints taken by [`recovery::solve_recoverable`]; always
    /// `0` from plain [`solve`].
    pub checkpoints: usize,
}

/// Drive a solver until convergence or the iteration cap:
/// [`StepDriver::step`], called until it answers.
///
/// Each iteration is bracketed by `step_begin`/`step_end` so tracing
/// backends can replay the recorded dependence graph when the step
/// shape repeats. Use [`solve_traced`] to additionally record
/// per-iteration timing, step outcomes, and the residual history.
///
/// ```
/// use std::sync::Arc;
/// use kdr_core::{solve, CgSolver, ExecBackend, Planner, SolveControl, SOL};
/// use kdr_index::Partition;
/// use kdr_sparse::{stencil::rhs_vector, SparseMatrix, Stencil};
///
/// // An 8x8 Poisson problem, partitioned into 4 pieces.
/// let stencil = Stencil::lap2d(8, 8);
/// let n = stencil.unknowns();
/// let matrix: Arc<dyn SparseMatrix<f64>> = Arc::new(stencil.to_csr::<f64, u32>());
/// let mut planner = Planner::new(Box::new(ExecBackend::<f64>::new(2)));
/// let part = Partition::equal_blocks(n, 4);
/// let d = planner.add_sol_vector(n, Some(part.clone()));
/// let r = planner.add_rhs_vector(n, Some(part));
/// planner.add_operator(matrix, d, r);
/// planner.set_rhs_data(r, &rhs_vector::<f64>(n, 7));
///
/// let mut solver = CgSolver::new(&mut planner);
/// let report = solve(&mut planner, &mut solver, SolveControl::to_tolerance(1e-10, 500))
///     .expect("well-posed SPD solve");
/// assert!(report.converged);
/// let x = planner.read_component(SOL, 0);
/// assert_eq!(x.len(), n as usize);
/// ```
pub fn solve<T: Scalar>(
    planner: &mut Planner<T>,
    solver: &mut dyn Solver<T>,
    control: SolveControl,
) -> SolveOutcome {
    drive(planner, solver, control, None)
}

/// [`solve`], additionally recording a [`SolveTrace`]: one
/// [`IterationRecord`] per iteration (the wall time from `step_begin`
/// to the return of `step_end` — which on a convergence-check
/// iteration includes running the step, since the check's scalars are
/// forced with it — and the backend's analyzed/captured/replayed
/// [`StepOutcome`](crate::StepOutcome)) plus the `(iteration,
/// residual)` history sampled at convergence checks.
///
/// ```
/// use std::sync::Arc;
/// use kdr_core::{solve_traced, CgSolver, ExecBackend, Planner, SolveControl};
/// use kdr_index::Partition;
/// use kdr_sparse::{stencil::rhs_vector, SparseMatrix, Stencil};
///
/// let stencil = Stencil::lap2d(8, 8);
/// let n = stencil.unknowns();
/// let matrix: Arc<dyn SparseMatrix<f64>> = Arc::new(stencil.to_csr::<f64, u32>());
/// let mut planner = Planner::new(Box::new(ExecBackend::<f64>::new(2)));
/// let part = Partition::equal_blocks(n, 4);
/// let d = planner.add_sol_vector(n, Some(part.clone()));
/// let r = planner.add_rhs_vector(n, Some(part));
/// planner.add_operator(matrix, d, r);
/// planner.set_rhs_data(r, &rhs_vector::<f64>(n, 7));
///
/// let mut solver = CgSolver::new(&mut planner);
/// // Check every 10 iterations: the steps in between keep a stable
/// // shape, so the tracing backend replays most of them.
/// let control = SolveControl {
///     max_iters: 500,
///     tol: 1e-10,
///     check_every: 10,
///     ..SolveControl::default()
/// };
/// let (outcome, trace) = solve_traced(&mut planner, &mut solver, control);
/// let report = outcome.expect("well-posed SPD solve");
/// assert!(report.converged);
/// assert_eq!(trace.iterations.len(), report.iters);
/// assert!(trace.steps_replayed() > 0);
/// // The residual history is monotone enough to have converged.
/// assert!(trace.final_residual().unwrap() < 1e-10);
/// ```
pub fn solve_traced<T: Scalar>(
    planner: &mut Planner<T>,
    solver: &mut dyn Solver<T>,
    control: SolveControl,
) -> (SolveOutcome, SolveTrace) {
    let mut trace = SolveTrace::new();
    let outcome = drive(planner, solver, control, Some(&mut trace));
    (outcome, trace)
}

/// A sampled residual past this multiple of the first sample ends the
/// solve with [`SolveError::Diverged`].
const DIVERGENCE_FACTOR: f64 = 1e8;

/// The solve loop, one iteration per call.
///
/// [`solve`] and [`solve_traced`] call [`StepDriver::step`] until it
/// answers. Callers that interleave many solves on one runtime (the
/// solve service's fair-share scheduler) make the same calls a few at
/// a time and yield in between; the per-iteration semantics, including
/// error ordering, are those of a blocking [`solve`].
///
/// The first call runs the already-converged guard (a zero
/// right-hand side: stepping a Krylov method from an exactly zero
/// residual divides by zero) and answers at once when it holds. Each
/// call then performs one `step_begin`/`step`/`step_end` iteration —
/// forcing the convergence measure and the breakdown guards with the
/// step on check iterations — plus the cadence health checks. The call
/// whose check meets the tolerance ends the solve, and so does the
/// call after the iteration cap is reached: it applies deferred
/// solution updates, takes (or forces) the final residual, fences and
/// returns the report.
///
/// Health checks run at convergence-check cadence in a fixed order —
/// convergence first (quantities legitimately vanish as the residual
/// does), then absorbed task failures (the root cause behind any NaN
/// the backend substituted), then non-finite residuals, breakdown
/// guards and divergence. The cancellation token, when present, is
/// polled at the top of every iteration.
#[derive(Debug)]
pub struct StepDriver {
    control: SolveControl,
    started: bool,
    iters: usize,
    final_residual: f64,
    baseline: f64,
}

impl StepDriver {
    /// A fresh driver at iteration zero, stopping as `control` says.
    pub fn new(control: SolveControl) -> Self {
        StepDriver {
            control,
            started: false,
            iters: 0,
            final_residual: f64::NAN,
            baseline: f64::NAN,
        }
    }

    /// Iterations performed so far.
    pub fn iters(&self) -> usize {
        self.iters
    }

    /// One call of the solve loop (see the type docs): `Ok(None)`
    /// while the solve runs, the report or the error once it has
    /// ended. Once it has answered, the driver is spent: drop it.
    pub fn step<T: Scalar>(
        &mut self,
        planner: &mut Planner<T>,
        solver: &mut dyn Solver<T>,
        mut trace: Option<&mut SolveTrace>,
    ) -> Result<Option<SolveReport>, SolveError> {
        let control = &self.control;
        if !self.started {
            self.started = true;
            if control.tol > 0.0 && control.check_every > 0 {
                if let Some(m) = solver.convergence_measure() {
                    let r = m.get().to_f64().abs().sqrt();
                    if r < control.tol {
                        if let Some(t) = trace {
                            t.residual_history.push((0, r));
                        }
                        planner.fence();
                        take_fault(planner, 0)?;
                        return Ok(Some(SolveReport {
                            iters: 0,
                            final_residual: r,
                            converged: true,
                            restarts: 0,
                            checkpoints: 0,
                        }));
                    }
                }
            }
        }
        if self.iters >= control.max_iters {
            return self.finish(planner, solver, trace, false).map(Some);
        }
        if let Some(tok) = &control.cancel_token {
            if tok.is_cancelled() {
                // Leave the backend quiescent so the planner stays
                // reusable; an absorbed task failure is the root
                // cause and outranks the cancellation.
                planner.fence();
                take_fault(planner, self.iters)?;
                return Err(SolveError::Cancelled {
                    iteration: self.iters,
                });
            }
        }
        // Bracketing each iteration lets tracing backends defer its
        // tasks and replay the recorded dependence graph when the
        // step shape repeats (a scalar forced inside a step ends the
        // step's record there; the rest is a record of its own).
        let t0 = trace.as_ref().map(|_| Instant::now());
        planner.step_begin();
        solver.step(planner);
        let iters = self.iters + 1;
        // On a check iteration the convergence measure and every
        // breakdown guard are forced with the step — one wait on the
        // backend, which a replaying backend makes as it submits the
        // step, and runs it meanwhile; the checks below then run on
        // the values in the documented order.
        let checking = control.check_every > 0 && iters % control.check_every == 0;
        let (measure, guards) = if checking {
            (solver.convergence_measure(), solver.breakdown_guards())
        } else {
            (None, Vec::new())
        };
        let reads: Vec<&ScalarHandle<T>> =
            measure.iter().chain(guards.iter().map(|g| &g.value)).collect();
        let (outcome, forced) = planner.step_end(&reads);
        self.iters = iters;
        if let (Some(t), Some(t0)) = (trace.as_deref_mut(), t0) {
            t.iterations.push(IterationRecord {
                iter: iters,
                wall_ns: t0.elapsed().as_nanos() as u64,
                outcome,
            });
        }
        if !checking {
            return Ok(None);
        }
        let (measured, guard_values) = forced.split_at(measure.iter().count());
        let mut r = f64::NAN;
        if let Some(m) = measured.first() {
            r = m.to_f64().abs().sqrt();
            self.final_residual = r;
            if let Some(t) = trace.as_deref_mut() {
                t.residual_history.push((iters, r));
            }
            if control.tol > 0.0 && r < control.tol {
                return self.finish(planner, solver, trace, true).map(Some);
            }
        }
        // A failed task surfaces as NaN scalars; report the absorbed
        // root cause rather than the symptom.
        take_fault(planner, iters)?;
        if measure.is_some() && !r.is_finite() {
            return Err(SolveError::NonFinite { iteration: iters });
        }
        for (g, v) in guards.iter().zip(guard_values) {
            let v = v.to_f64();
            if !v.is_finite() {
                return Err(SolveError::NonFinite { iteration: iters });
            }
            let broke = match g.trigger {
                GuardTrigger::NearZero => v.abs() < control.breakdown_eps,
                GuardTrigger::NonPositive => v <= control.breakdown_eps,
            };
            if broke {
                return Err(SolveError::Breakdown {
                    kind: g.kind,
                    iteration: iters,
                });
            }
        }
        if !r.is_nan() {
            if self.baseline.is_nan() {
                self.baseline = r.max(f64::MIN_POSITIVE);
            } else if r > DIVERGENCE_FACTOR * self.baseline {
                return Err(SolveError::Diverged {
                    iteration: iters,
                    residual: r,
                });
            }
        }
        Ok(None)
    }

    /// The end of a solve that `converged` at a check or reached its
    /// cap: apply deferred solution updates, take (or force) the final
    /// residual, fence, and build the report.
    fn finish<T: Scalar>(
        &self,
        planner: &mut Planner<T>,
        solver: &mut dyn Solver<T>,
        trace: Option<&mut SolveTrace>,
        mut converged: bool,
    ) -> SolveOutcome {
        let iters = self.iters;
        let mut final_residual = self.final_residual;
        solver.finalize_solution(planner);
        let mut measured = !final_residual.is_nan();
        if !measured {
            if let Some(m) = solver.convergence_measure() {
                measured = true;
                final_residual = m.get().to_f64().abs().sqrt();
                converged = self.control.tol > 0.0 && final_residual < self.control.tol;
                if let Some(t) = trace {
                    t.residual_history.push((iters, final_residual));
                }
            }
        }
        planner.fence();
        take_fault(planner, iters)?;
        if measured && !final_residual.is_finite() {
            return Err(SolveError::NonFinite { iteration: iters });
        }
        Ok(SolveReport {
            iters,
            final_residual,
            converged,
            restarts: 0,
            checkpoints: 0,
        })
    }
}

/// The task failure the backend absorbed, if any, as the solve's
/// error at `iteration`.
fn take_fault<T: Scalar>(planner: &mut Planner<T>, iteration: usize) -> Result<(), SolveError> {
    match planner.take_fault() {
        Some(f) => Err(SolveError::TaskFailed {
            iteration,
            task: f.task,
            message: f.message,
        }),
        None => Ok(()),
    }
}

/// The common solve loop; `trace`, when present, receives
/// per-iteration records and residual samples.
fn drive<T: Scalar>(
    planner: &mut Planner<T>,
    solver: &mut dyn Solver<T>,
    control: SolveControl,
    mut trace: Option<&mut SolveTrace>,
) -> SolveOutcome {
    let mut driver = StepDriver::new(control);
    loop {
        if let Some(report) = driver.step(planner, solver, trace.as_deref_mut())? {
            return Ok(report);
        }
    }
}
