//! Request/response types at the service boundary.

use std::time::{Duration, Instant};

use kdr_core::SolveControl;

use crate::session::SolverKind;

/// Tenant identifier: one paying client of the service, with its own
/// fair-share weight, sessions, and metrics slice.
pub type TenantId = u32;

/// Session identifier: one plan-cached problem setup (operator,
/// partition, solver kind) owned by a tenant.
pub type SessionId = usize;

/// Job identifier: one admitted [`SolveRequest`], assigned at
/// admission in submission order.
pub type JobId = u64;

/// One solve job against a session's registered operator.
#[derive(Clone, Debug)]
pub struct SolveRequest {
    /// Which session (operator + solver plan) to solve against.
    pub session: SessionId,
    /// Right-hand sides, solved in order within the job. Each must
    /// match the session's unknown count.
    pub rhs_batch: Vec<Vec<f64>>,
    /// Iteration budget, tolerance, and guard thresholds. The
    /// service installs its own cancellation token (combining the
    /// request deadline with explicit [`cancel_job`]); a token
    /// already present in the control is honored too.
    ///
    /// [`cancel_job`]: crate::ShardedService::cancel_job
    pub control: SolveControl,
    /// Absolute completion deadline. Admission rejects deadlines the
    /// queue cannot plausibly meet; past admission, the deadline
    /// cancels the job cooperatively at iteration granularity.
    pub deadline: Option<Instant>,
    /// Record the `(iteration, residual)` samples taken at
    /// convergence checks and return them in
    /// [`SolveResponse::residual_history`]. Off by default (the
    /// history costs one record per check and a per-iteration
    /// timestamp). The migration tests use this to prove a migrated
    /// job's numerical trajectory matches an unmigrated restart's,
    /// sample for sample.
    pub capture_history: bool,
}

impl SolveRequest {
    /// A deadline-free request with one RHS.
    pub fn new(session: SessionId, rhs: Vec<f64>, control: SolveControl) -> Self {
        SolveRequest {
            session,
            rhs_batch: vec![rhs],
            control,
            deadline: None,
            capture_history: false,
        }
    }
}

/// Typed admission rejection: the request never became a job.
#[derive(Clone, Debug, PartialEq)]
pub enum RejectReason {
    /// The bounded admission queue is at capacity — backpressure;
    /// retry after draining responses.
    QueueFull {
        /// The queue's configured bound.
        capacity: usize,
    },
    /// The deadline cannot plausibly be met: it is already past, or
    /// earlier than the estimated start time given the current
    /// backlog.
    DeadlineUnmeetable {
        /// Time until the deadline (zero if already past).
        deadline_in: Duration,
        /// Estimated wait before this job would first be scheduled.
        estimated_start: Duration,
    },
    /// The named session does not exist or belongs to another tenant.
    UnknownSession {
        /// The offending session id.
        session: SessionId,
    },
    /// The tenant was never registered.
    UnknownTenant {
        /// The offending tenant id.
        tenant: TenantId,
    },
    /// The request carried no right-hand sides.
    EmptyBatch,
    /// A right-hand side's length does not match the session.
    BadRhsLength {
        /// The session's unknown count.
        expected: u64,
        /// The offending RHS length.
        got: usize,
    },
    /// The tenant's shard is quarantined or being replaced — typed
    /// backpressure from the shard supervisor. Transient: retry after
    /// the supervisor finishes evacuating the tenant to a healthy
    /// shard (usually one supervision round).
    ShardDegraded {
        /// The degraded shard's index.
        shard: usize,
    },
    /// The session spec's piece count is outside `1..=unknowns`: the
    /// partition would have no piece, or an empty one.
    BadPieceCount {
        /// The spec's piece count.
        pieces: usize,
        /// The spec's unknown count.
        unknowns: u64,
    },
    /// The session spec's operator is not square over its unknown
    /// count: its rows or columns (a stencil's grid points, for a
    /// matrix-free spec) differ from `unknowns`.
    NotSquareOverUnknowns {
        /// The operator's rows.
        rows: u64,
        /// The operator's columns.
        cols: u64,
        /// The spec's unknown count.
        unknowns: u64,
    },
    /// The session spec's solver carries a parameter its constructor
    /// rejects: GMRES `restart = 0`, s-step `s = 0`, or Chebyshev
    /// bounds outside `0 < lmin <= lmax`.
    BadSolverParameter {
        /// The offending solver.
        solver: SolverKind,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { capacity } => {
                write!(f, "admission queue full (capacity {capacity})")
            }
            RejectReason::DeadlineUnmeetable {
                deadline_in,
                estimated_start,
            } => write!(
                f,
                "deadline in {deadline_in:?} unmeetable (estimated start in {estimated_start:?})"
            ),
            RejectReason::UnknownSession { session } => write!(f, "unknown session {session}"),
            RejectReason::UnknownTenant { tenant } => write!(f, "unknown tenant {tenant}"),
            RejectReason::EmptyBatch => write!(f, "empty rhs batch"),
            RejectReason::BadRhsLength { expected, got } => {
                write!(f, "rhs length {got} != session unknowns {expected}")
            }
            RejectReason::ShardDegraded { shard } => {
                write!(f, "shard {shard} is quarantined (retry after evacuation)")
            }
            RejectReason::BadPieceCount { pieces, unknowns } => {
                write!(f, "{pieces} pieces outside 1..={unknowns} (the session's unknowns)")
            }
            RejectReason::NotSquareOverUnknowns {
                rows,
                cols,
                unknowns,
            } => write!(
                f,
                "a {rows}×{cols} operator is not square over {unknowns} unknowns"
            ),
            RejectReason::BadSolverParameter { solver } => {
                write!(f, "{solver:?} has a parameter its constructor rejects")
            }
        }
    }
}

/// How a job ended.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// Every RHS in the batch converged.
    Converged {
        /// Residual of the last RHS at its final check.
        final_residual: f64,
    },
    /// The iteration budget ran out before the tolerance was met.
    Capped {
        /// Residual of the last RHS when the budget ran out.
        final_residual: f64,
    },
    /// Cancelled (explicitly or by deadline) mid-iteration.
    Cancelled {
        /// Iteration count of the in-flight RHS at cancellation.
        iteration: usize,
    },
    /// The solve failed (task fault, breakdown, divergence, …).
    Failed {
        /// Human-readable failure description.
        message: String,
    },
    /// The front door's retry budget ran out: every attempt failed.
    /// Only the sharded supervisor emits this (with
    /// [`RetryPolicy::max_attempts`] > 0); an unsupervised failure
    /// surfaces as [`JobOutcome::Failed`] on the first attempt.
    ///
    /// [`RetryPolicy::max_attempts`]: crate::supervision::RetryPolicy::max_attempts
    RetryExhausted {
        /// Total failed attempts (first run + retries).
        attempts: u32,
        /// Failure description of the last attempt.
        message: String,
    },
}

impl JobOutcome {
    /// True for the fully-converged outcome.
    pub fn is_converged(&self) -> bool {
        matches!(self, JobOutcome::Converged { .. })
    }
}

/// Typed result of a cancellation request: what the cancel actually
/// did, instead of a silent no-op for unknown ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was found queued, in flight, or awaiting a front-door
    /// retry, and was cancelled. Its [`SolveResponse`] (with
    /// [`JobOutcome::Cancelled`]) arrives through the normal response
    /// channel — cancellation never loses the job.
    Cancelled,
    /// The job already completed: its response was (or is about to
    /// be) delivered, so there is nothing left to cancel.
    AlreadyDone,
    /// The job id was never admitted here.
    UnknownJob,
}

/// Completion record for one admitted job.
#[derive(Clone, Debug)]
pub struct SolveResponse {
    /// The job this response answers.
    pub job: JobId,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Session the job ran against.
    pub session: SessionId,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// Iterations executed across the whole batch.
    pub iterations: u64,
    /// Admission → first scheduling of the execution that produced
    /// this response. A retried or crash-resubmitted job keeps its
    /// admission instant, so its failed attempts and backoff count
    /// here and `queue_wait + turnaround` is the job's whole life at
    /// the service.
    pub queue_wait: Duration,
    /// First scheduling → first completed iteration. Cold sessions
    /// pay operator registration, tile lowering, and dependence
    /// analysis here; warm (plan-cached) sessions skip all three.
    pub time_to_first_iteration: Option<Duration>,
    /// First scheduling → completion (driver time, including yields
    /// to other tenants' slices).
    pub turnaround: Duration,
    /// Whether the session was warm (had completed a job before).
    pub warm: bool,
    /// `(iteration, residual)` samples from the solve's convergence
    /// checks, concatenated across right-hand sides (iteration
    /// numbering restarts per RHS, and per restart after a
    /// migration). Empty unless [`SolveRequest::capture_history`] was
    /// set.
    pub residual_history: Vec<(usize, f64)>,
    /// How many times the job was migrated between shards while in
    /// flight.
    pub migrations: u32,
    /// How many extra executions the front door gave this job: failed
    /// attempts consumed by retry-with-backoff plus from-scratch
    /// resubmissions after a shard crash.
    pub retries: u32,
}

impl SolveResponse {
    /// The response of a job cancelled before it ever ran.
    pub(crate) fn cancelled_unstarted(
        job: JobId,
        tenant: TenantId,
        session: SessionId,
        queue_wait: Duration,
    ) -> Self {
        SolveResponse {
            job,
            tenant,
            session,
            outcome: JobOutcome::Cancelled { iteration: 0 },
            iterations: 0,
            queue_wait,
            time_to_first_iteration: None,
            turnaround: Duration::ZERO,
            warm: false,
            residual_history: Vec::new(),
            migrations: 0,
            retries: 0,
        }
    }
}
