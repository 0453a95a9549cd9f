//! Plan-cached sessions: one long-lived problem setup per session.
//!
//! A session owns a [`Planner`] built over the service's *shared*
//! runtime, finalized when the session is built: operator
//! registration, dependent partitioning and tile-kernel lowering
//! happen once, before any job, and the session keeps one
//! cost-catalogue key per tile it lowered. A session is *cold* until
//! its first job has run first-iteration dependence analysis and
//! captured its step programs; every later job reuses the registered
//! tiles and (via the planner's pooled workspace vectors, which keep
//! buffer ids stable across solver rebuilds) replays those programs.
//! That is the warm-path contract the service's cold-vs-warm
//! time-to-first-iteration numbers measure.

use std::sync::Arc;

use kdr_core::{
    BiCgSolver, BiCgStabSolver, CgSolver, CgsSolver, ChebyshevSolver, ExecBackend, FusedCgSolver,
    GmresSolver, MinresSolver, PipelinedCgSolver, PipelinedCrSolver, Planner, SStepCgSolver,
    Solver, TfqmrSolver, SOL,
};
use kdr_index::Partition;
use kdr_runtime::Runtime;
use kdr_sparse::{SparseMatrix, Stencil, StencilOperator};
use kdr_store::CatalogueKey;

use crate::request::{RejectReason, TenantId};

/// Which Krylov method a session's jobs run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SolverKind {
    /// Conjugate gradients (SPD operators).
    Cg,
    /// Biconjugate gradients.
    BiCg,
    /// BiCG-stabilized.
    BiCgStab,
    /// Conjugate gradients squared.
    Cgs,
    /// Minimum residual (symmetric indefinite).
    Minres,
    /// Restarted GMRES.
    Gmres {
        /// Restart length `m`.
        restart: usize,
    },
    /// Transpose-free QMR.
    Tfqmr,
    /// Chronopoulos–Gear CG: both per-iteration dots fused into one
    /// reduction stage.
    FusedCg,
    /// Ghysels–Vanroose pipelined CG: one reduction per iteration,
    /// overlapped with the matrix-vector product.
    PipelinedCg,
    /// Ghysels–Vanroose pipelined CR (symmetric systems).
    PipelinedCr,
    /// s-step CG: blocks of `s` iterations with a single fused Gram
    /// reduction per block.
    SStepCg {
        /// Iterations per block (`>= 1`).
        s: usize,
    },
    /// Chebyshev iteration with explicit spectral bounds.
    Chebyshev {
        /// Smallest eigenvalue bound (`> 0`).
        lmin: f64,
        /// Largest eigenvalue bound (`>= lmin`).
        lmax: f64,
    },
}

impl SolverKind {
    /// Construct the solver against a planner (finalizing it on first
    /// use).
    pub fn build(&self, planner: &mut Planner<f64>) -> Box<dyn Solver<f64>> {
        match *self {
            SolverKind::Cg => Box::new(CgSolver::new(planner)),
            SolverKind::BiCg => Box::new(BiCgSolver::new(planner)),
            SolverKind::BiCgStab => Box::new(BiCgStabSolver::new(planner)),
            SolverKind::Cgs => Box::new(CgsSolver::new(planner)),
            SolverKind::Minres => Box::new(MinresSolver::new(planner)),
            SolverKind::Gmres { restart } => Box::new(GmresSolver::with_restart(planner, restart)),
            SolverKind::Tfqmr => Box::new(TfqmrSolver::new(planner)),
            SolverKind::FusedCg => Box::new(FusedCgSolver::new(planner)),
            SolverKind::PipelinedCg => Box::new(PipelinedCgSolver::new(planner)),
            SolverKind::PipelinedCr => Box::new(PipelinedCrSolver::new(planner)),
            SolverKind::SStepCg { s } => Box::new(SStepCgSolver::with_s(planner, s)),
            SolverKind::Chebyshev { lmin, lmax } => {
                Box::new(ChebyshevSolver::with_bounds(planner, lmin, lmax))
            }
        }
    }
}

/// Everything needed to set a session up. Cloning is cheap (the
/// operator is behind an [`Arc`]); cross-shard migration clones the
/// spec to rebuild the session over the destination shard's runtime.
#[derive(Clone)]
pub struct SessionSpec {
    /// The operator (square, single-component).
    pub matrix: Arc<dyn SparseMatrix<f64>>,
    /// Unknown count (must match the matrix spaces).
    pub unknowns: u64,
    /// Domain/range pieces for dependent partitioning.
    pub pieces: usize,
    /// The method jobs against this session run.
    pub solver: SolverKind,
    /// When `Some`, the operator is registered *implicitly* from this
    /// stencil descriptor: the runtime applies it matrix-free (zero
    /// stored value bytes) and `matrix` is never read for entries.
    /// Build such specs with [`SessionSpec::stencil`].
    pub stencil: Option<Stencil>,
}

impl SessionSpec {
    /// Build a spec whose operator is described by a stencil
    /// descriptor alone — no assembly, no stored values. The session
    /// registers it through
    /// [`kdr_core::Planner::add_stencil_operator`], so every tile of
    /// the operator applies matrix-free, bitwise identical to the
    /// assembled equivalent.
    pub fn stencil(desc: Stencil, pieces: usize, solver: SolverKind) -> Self {
        SessionSpec {
            matrix: Arc::new(StencilOperator::<f64>::new(desc)),
            unknowns: desc.unknowns(),
            pieces,
            solver,
            stencil: Some(desc),
        }
    }

    /// Whether a session can be built from the spec and run its jobs:
    /// the partition can hold it (every one of its `pieces` needs at
    /// least one of the `unknowns`), its operator — the stencil when
    /// there is one — is square over the `unknowns`, and its solver's
    /// parameters are ones the solver's constructor accepts. The front
    /// door and the store both ask this, and nothing else.
    pub(crate) fn check(&self) -> Result<(), RejectReason> {
        let unknowns = self.unknowns;
        if self.pieces == 0 || self.pieces as u64 > unknowns {
            return Err(RejectReason::BadPieceCount {
                pieces: self.pieces,
                unknowns,
            });
        }
        let (rows, cols) = match self.stencil {
            Some(s) => {
                let grid = s.nx.checked_mul(s.ny).and_then(|n| n.checked_mul(s.nz));
                let grid = grid.unwrap_or(u64::MAX);
                (grid, grid)
            }
            None => (
                self.matrix.range_space().size(),
                self.matrix.domain_space().size(),
            ),
        };
        if rows != unknowns || cols != unknowns {
            return Err(RejectReason::NotSquareOverUnknowns {
                rows,
                cols,
                unknowns,
            });
        }
        let solver_ok = match self.solver {
            SolverKind::Gmres { restart } => restart >= 1,
            SolverKind::SStepCg { s } => s >= 1,
            SolverKind::Chebyshev { lmin, lmax } => lmin > 0.0 && lmax >= lmin,
            _ => true,
        };
        if !solver_ok {
            return Err(RejectReason::BadSolverParameter {
                solver: self.solver,
            });
        }
        Ok(())
    }
}

/// One tenant's long-lived, plan-cached problem setup.
pub struct Session {
    tenant: TenantId,
    spec: SessionSpec,
    planner: Planner<f64>,
    jobs_completed: u64,
    /// Catalogue key of every tile the operator lowered to, sorted
    /// (see [`tile_keys`]).
    keys: Vec<CatalogueKey>,
}

impl Session {
    /// Build a session over the service's shared runtime with its
    /// plan finalized: the operator is tiled, registered and lowered
    /// here, each tile to the kernel its structure selects. The
    /// session stays cold — no step programs captured — until its
    /// first job runs.
    pub fn new(rt: Arc<Runtime>, tenant: TenantId, spec: SessionSpec) -> Self {
        let backend = kdr_core::ExecBackend::<f64>::with_shared_runtime(rt, None);
        let mut planner = Planner::new(Box::new(backend));
        let part = Partition::equal_blocks(spec.unknowns, spec.pieces);
        let d = planner.add_sol_vector(spec.unknowns, Some(part.clone()));
        let r = planner.add_rhs_vector(spec.unknowns, Some(part));
        match spec.stencil {
            Some(desc) => planner.add_stencil_operator(desc, d, r),
            None => planner.add_operator(Arc::clone(&spec.matrix), d, r),
        }
        planner.finalize();
        let keys = tile_keys(&mut planner, spec.pieces);
        Session {
            tenant,
            spec,
            planner,
            jobs_completed: 0,
            keys,
        }
    }

    /// Catalogue key of every tile the session's operator lowered to,
    /// sorted, one entry per tile. Admission screening and online
    /// refinement read this list.
    pub(crate) fn catalogue_keys(&self) -> &[CatalogueKey] {
        &self.keys
    }

    /// Steps captured into the session's trace cache (0 until the
    /// first job runs). Persisted to the durable store as a
    /// diagnostic of how warm the session was at save time.
    pub fn steps_captured(&mut self) -> u64 {
        with_exec(&mut self.planner, |eb| eb.metrics().steps_captured)
    }

    /// Owning tenant.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The spec this session was built from. Migration clones it to
    /// rebuild an equivalent session over the destination shard's
    /// runtime (the cached plan and traces stay behind — the rebuilt
    /// session finalizes again when it is built and is cold until its
    /// first post-move job).
    pub fn spec(&self) -> &SessionSpec {
        &self.spec
    }

    /// The session's unknown count (RHS length contract).
    pub fn unknowns(&self) -> u64 {
        self.spec.unknowns
    }

    /// Whether the session has completed at least one job (warm: its
    /// step programs are captured).
    pub fn warm(&self) -> bool {
        self.jobs_completed > 0
    }

    /// Jobs completed against this session.
    pub fn jobs_completed(&self) -> u64 {
        self.jobs_completed
    }

    /// Mutable access to the session's planner (the service driver
    /// steps solvers through it).
    pub fn planner_mut(&mut self) -> &mut Planner<f64> {
        &mut self.planner
    }

    /// Start one solve within a job: install the RHS, zero the
    /// iterate, and build the solver. Returns the solver and the
    /// workspace mark to release in [`Session::end_solve`].
    pub fn begin_solve(&mut self, rhs: &[f64]) -> (Box<dyn Solver<f64>>, usize) {
        self.planner.set_rhs_data(0, rhs);
        let mark = self.planner.workspace_mark();
        self.planner.zero(SOL);
        let solver = self.solver_kind().build(&mut self.planner);
        (solver, mark)
    }

    /// [`Session::begin_solve`], but restart from a checkpointed
    /// iterate instead of zero: the migration restore path. `sol` is
    /// one slice per solution component, as produced by
    /// [`Session::snapshot_sol`] on the source shard. The rebuilt
    /// solver's constructor recomputes `r = b − A·x` from the restored
    /// iterate — the same restart contract as
    /// [`kdr_core::solve_recoverable`] — so a migrated continuation is
    /// numerically identical to a local checkpoint/restart at the same
    /// iteration.
    pub fn begin_solve_resumed(
        &mut self,
        rhs: &[f64],
        sol: &[Vec<f64>],
    ) -> (Box<dyn Solver<f64>>, usize) {
        self.planner.set_rhs_data(0, rhs);
        let mark = self.planner.workspace_mark();
        for (c, data) in sol.iter().enumerate() {
            self.planner.set_sol_data(c, data);
        }
        let solver = self.solver_kind().build(&mut self.planner);
        (solver, mark)
    }

    /// Snapshot the current iterate: one `Vec` per solution
    /// component, read back after a fence so every in-flight update
    /// has landed. This is the migration checkpoint (the same
    /// `SOL`-snapshot the PR's checkpoint/restart recovery takes);
    /// only call it while a solve is in flight or finished —
    /// on a never-started session there is nothing meaningful to
    /// snapshot.
    pub fn snapshot_sol(&mut self) -> Vec<Vec<f64>> {
        self.planner.fence();
        (0..self.planner.num_sol_components())
            .map(|c| self.planner.read_component(SOL, c))
            .collect()
    }

    fn solver_kind(&self) -> SolverKind {
        self.spec.solver
    }

    /// Finish one solve: release pooled workspace (keeping buffer
    /// ids stable for the next solver rebuild).
    pub fn end_solve(&mut self, mark: usize) {
        self.planner.release_workspace_from(mark);
        self.jobs_completed += 1;
    }
}

/// Run `f` on the planner's exec backend: every session runs on one.
fn with_exec<R>(planner: &mut Planner<f64>, f: impl FnOnce(&mut ExecBackend<f64>) -> R) -> R {
    planner.with_backend(|b| {
        f(b.as_any()
            .downcast_mut()
            .expect("a session's planner runs on the exec backend"))
    })
}

/// The catalogue key of every tile a finalized planner lowered — the
/// tile's structure and kernel, at the session's piece count — sorted.
/// The service derives catalogue keys here and nowhere else, so what
/// admission predicts and what a slice measures share one key.
fn tile_keys(planner: &mut Planner<f64>, pieces: usize) -> Vec<CatalogueKey> {
    let mut keys: Vec<CatalogueKey> = with_exec(planner, |eb| eb.operator_manifest())
        .into_iter()
        .map(|(structure, kernel)| CatalogueKey::new(structure, kernel, pieces))
        .collect();
    keys.sort_unstable();
    keys
}
