#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # kdr-core
//!
//! The KDRSolvers framework: scalable, flexible, task-oriented Krylov
//! solvers (the paper's primary contribution).
//!
//! KDRSolvers represents a sparse linear system through three index
//! spaces — kernel `K`, domain `D`, range `R` — related by each
//! storage format's row and column relations. On top of that
//! representation this crate provides:
//!
//! * **Universal co-partitioning** ([`partitioning`]): operator tiles
//!   derived purely from relations, for any format including
//!   user-defined and matrix-free ones.
//! * **Multi-operator systems** ([`Planner`]): one logical system
//!   assembled from many `(K_ℓ, A_ℓ, i_ℓ, j_ℓ)` components over
//!   multiple domain/range spaces, with aliasing — a single stored
//!   matrix reused by many components (multiple right-hand sides,
//!   related systems, §4.2).
//! * **The planner/solver split** (§5, Figures 5–7): solvers speak a
//!   small mathematical operation set (`copy`/`scal`/`axpy`/`xpay`/
//!   `dot`/`matmul`/`psolve`) with deferred scalars, and never see
//!   formats, components, partitions, or data movement.
//! * **Interchangeable KSMs** ([`solvers`]): CG, BiCG, BiCGStab, CGS,
//!   GMRES(m), MINRES, TFQMR, Chebyshev, plus fence-minimal variants —
//!   fused-reduction CG, pipelined CG/CR, and s-step CG. CG, BiCGStab
//!   and GMRES apply the planner's preconditioner when it has one; the
//!   others refuse such a planner.
//! * **Two backends**: [`exec::ExecBackend`] executes for real on the
//!   `kdr-runtime` task runtime, whose one placement rule keeps every
//!   task of a piece on one worker (colour `c` on worker `c % W`);
//!   [`simbackend::SimBackend`] lowers
//!   the identical operation stream onto the `kdr-machine` cluster
//!   simulator for the paper's large-scale experiments.
//! * **Preconditioners** ([`precond`]) and the §6.3 thermodynamic
//!   **load balancer** ([`loadbalance`]), which the `figure10`
//!   experiment runs in the simulator; the threaded runtime never
//!   moves a colour.

pub mod backend;
pub mod exec;
pub mod instrument;
pub mod loadbalance;
pub mod partitioning;
pub mod planner;
pub mod precond;
pub mod scalar_handle;
pub mod simbackend;
pub mod solvers;

pub use backend::{Backend, BackendFault, CompSpec, OpSetSpec, StepOutcome, TileSpec};
pub use exec::{ExecBackend, ExecMetrics};
pub use instrument::{IterationRecord, PhaseSplit, SolveTrace, SolverPhase};
pub use loadbalance::{IterationModel, ThermoBalancer};
pub use kdr_sparse::{KernelChoice, KernelKind};
pub use planner::{Planner, VecId, RHS, SOL};
pub use scalar_handle::ScalarHandle;
pub use simbackend::SimBackend;
pub use solvers::{
    solve, solve_recoverable, solve_traced, BiCgSolver, BiCgStabSolver, BreakdownGuard,
    BreakdownKind, CancelToken, CgSolver, CgsSolver, ChebyshevSolver, FusedCgSolver, GmresSolver,
    GuardTrigger, MinresSolver, PipelinedCgSolver, PipelinedCrSolver, RecoveryPolicy,
    SStepCgSolver, SolveControl, SolveError, SolveOutcome, SolveReport, Solver, StepDriver,
    TfqmrSolver,
};
