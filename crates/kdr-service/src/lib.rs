#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # kdr-service
//!
//! A multi-tenant solve service over shared KDRSolvers runtimes.
//!
//! The paper's runtime executes one application's solves; this crate
//! turns it into a *service*: many tenants submit [`SolveRequest`]s
//! against long-lived, plan-cached [`Session`]s. There is one service
//! type, [`ShardedService`]: N shard engines — each a runtime, a
//! worker pool, a fair scheduler, and the sessions of its resident
//! tenants — behind one admission front door. The single-runtime
//! service is `ShardConfig { shards: 1, .. }`. The front door owns
//! what clients name (tenants and their weights, session specs, job
//! and session ids, the ledger of admitted jobs) and hands a shard
//! everything it runs as one bundle per tenant (see the [`sharded`]
//! module docs); a [`ShardEngine`], reached through
//! [`ShardedService::shard`], only drives and observes. Together they
//! give
//!
//! - **admission control** — a bounded queue per shard with
//!   immediate, typed backpressure ([`RejectReason::QueueFull`]) and
//!   deadline screening ([`RejectReason::DeadlineUnmeetable`]);
//! - **weighted fair-share scheduling** — a deterministic, seeded
//!   stride scheduler time-slicing each pool across its tenants at
//!   iteration granularity (a slice is `slice_iters` calls of one
//!   tenant's [`kdr_core::StepDriver::step`]);
//! - **plan-cached sessions** — operator registration, dependent
//!   partitioning, tile-kernel lowering, and captured iteration
//!   traces persist across jobs, so warm solves skip the expensive
//!   prologue (measured as time-to-first-iteration, cold vs warm);
//! - **cooperative cancellation** — per-job [`kdr_core::CancelToken`]
//!   combining request deadlines with explicit
//!   [`ShardedService::cancel_job`], honored at iteration boundaries
//!   by every solver family;
//! - **per-tenant observability** — metrics-counter slices
//!   ([`TenantMetrics`]) and tenant-tagged Chrome-trace export (one
//!   Perfetto process per tenant);
//! - **scale-out** — consistent-hash tenant placement and live
//!   cross-shard migration built on the checkpoint/restart machinery;
//! - **supervision and self-healing** — the front door watches every
//!   shard's health (task failures, poison cascades, watchdog trips,
//!   injected faults, queue staleness), quarantines shards that blow
//!   their [`HealthBudget`] with typed
//!   [`RejectReason::ShardDegraded`] backpressure, evacuates tenants
//!   onto the surviving healthy shards, retries failed jobs
//!   with bounded backoff ([`RetryPolicy`], typed
//!   [`JobOutcome::RetryExhausted`] on exhaustion), and recovers
//!   shard crashes from its job ledger with exactly-once delivery
//!   (see the [`supervision`] module docs);
//! - **cost-model scheduling and warm restarts** — a shared cost
//!   catalogue ([`ServiceConfig::catalogue`], from `kdr-store`)
//!   prices jobs by the tiles each session lowered, for admission
//!   screening (it never picks a tile's kernel: the tile's structure
//!   does); [`ShardedService::save_store`] /
//!   [`ShardedService::open_store`] persist catalogue + tenants +
//!   sessions in a versioned, checksummed on-disk store so a
//!   restarted service starts warm with bit-identical residual
//!   histories.
//!
//! ```
//! use kdr_core::SolveControl;
//! use kdr_service::{SessionSpec, ShardConfig, ShardedService, SolveRequest, SolverKind};
//! use kdr_sparse::Stencil;
//! use kdr_sparse::stencil::rhs_vector;
//!
//! let svc = ShardedService::new(ShardConfig { shards: 1, ..ShardConfig::default() });
//! svc.register_tenant(1, 1);
//! let s = Stencil::lap2d(8, 8);
//! let n = s.unknowns();
//! // Stencil-described session: the operator is never assembled —
//! // every tile applies matrix-free from the descriptor. Assembled
//! // operators instead construct the spec literally with
//! // `matrix: ..., stencil: None`.
//! let sid = svc
//!     .create_session(1, SessionSpec::stencil(s, 2, SolverKind::Cg))
//!     .unwrap();
//! let job = svc
//!     .submit(1, SolveRequest::new(sid, rhs_vector::<f64>(n, 7),
//!         SolveControl::to_tolerance(1e-10, 500)))
//!     .unwrap();
//! svc.run_until_idle();
//! let responses = svc.take_responses();
//! assert_eq!(responses.len(), 1);
//! assert_eq!(responses[0].job, job);
//! assert!(responses[0].outcome.is_converged());
//! ```

pub mod metrics;
mod persist;
pub mod queue;
pub mod request;
pub mod scheduler;
pub mod service;
pub mod session;
pub mod sharded;
pub mod supervision;

pub use metrics::{ServiceMetrics, TenantMetrics};
pub use queue::{AdmissionQueue, QueuedJob};
pub use request::{
    CancelOutcome, JobId, JobOutcome, RejectReason, SessionId, SolveRequest, SolveResponse,
    TenantId,
};
pub use scheduler::FairScheduler;
pub use service::{ServiceConfig, ShardEngine, ShardLoad};
pub use session::{Session, SessionSpec, SolverKind};
pub use sharded::{ShardConfig, ShardedService};
pub use supervision::{
    HealthBudget, HealthReport, InFlightRecovery, RetryPolicy, ShardStatus, SupervisorConfig,
    SupervisorStats,
};
