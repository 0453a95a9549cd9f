//! The backend abstraction separating solver logic from execution.
//!
//! The paper's planner/solver split lets solver implementations be
//! "written with no awareness of storage formats, multiple operators,
//! or data movement" (§5). We push the same split one level further:
//! the [`Planner`](crate::Planner) lowers every mathematical operation
//! onto this `Backend` trait, and two backends implement it —
//!
//! * [`ExecBackend`](crate::exec::ExecBackend): real execution on the
//!   `kdr-runtime` task runtime (shared-memory threads stand in for
//!   cluster nodes), used for correctness and small-scale benchmarks;
//! * [`SimBackend`](crate::simbackend::SimBackend): lowers the same
//!   operation stream into a `kdr-machine` task graph with flop/byte
//!   costs, used to reproduce the paper's 64–1,024 GPU experiments at
//!   full problem scale.
//!
//! Scalars are *futures in dataflow form*: every scalar lives in a
//! backend-managed cell, scalar arithmetic is itself a (tiny) task,
//! and vector operations take scalar references as coefficients. A
//! solver iteration therefore never blocks the driving thread — the
//! same property Legion futures give the paper's CG in Figure 7.

use std::sync::Arc;

use kdr_index::{IntervalSet, Partition};
use kdr_sparse::{KernelAdvisor, KernelChoice, Scalar, SparseMatrix, Stencil};

/// Backend vector handle (a multi-component vector instance).
pub type BVec = usize;

/// Backend scalar handle.
pub type SRef = usize;

/// Registered operator-set handle (the system matrix, or the
/// preconditioner).
pub type OpHandle = usize;

/// Binary scalar operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScalarOp {
    /// `a + b`.
    Add,
    /// `a - b`.
    Sub,
    /// `a * b`.
    Mul,
    /// `a / b`.
    Div,
}

/// Unary scalar operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScalarUnop {
    /// `-a`.
    Neg,
    /// `sqrt(a)`.
    Sqrt,
    /// `|a|`.
    Abs,
    /// `1 / a`.
    Recip,
}

/// How a backend executed the operations between
/// [`Backend::step_begin`] and [`Backend::step_end`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepOutcome {
    /// Tasks went through full dependence analysis (also reported by
    /// backends that do not trace, and for steps interrupted by a
    /// forcing operation such as `scalar_get`).
    Analyzed,
    /// The step was analyzed once and its trace was recorded for
    /// future replay.
    Captured,
    /// A previously captured trace was replayed; dependence analysis
    /// was skipped.
    Replayed,
}

impl ScalarOp {
    /// Evaluate on concrete values.
    pub fn eval<T: Scalar>(self, a: T, b: T) -> T {
        match self {
            ScalarOp::Add => a + b,
            ScalarOp::Sub => a - b,
            ScalarOp::Mul => a * b,
            ScalarOp::Div => a / b,
        }
    }
}

impl ScalarUnop {
    /// Evaluate on a concrete value.
    pub fn eval<T: Scalar>(self, a: T) -> T {
        match self {
            ScalarUnop::Neg => -a,
            ScalarUnop::Sqrt => a.sqrt(),
            ScalarUnop::Abs => a.abs(),
            ScalarUnop::Recip => T::ONE / a,
        }
    }
}

/// One component of a multi-component vector: its index-space size and
/// canonical partition (complete and disjoint, per §5).
#[derive(Clone, Debug)]
pub struct CompSpec {
    /// Index-space size of the component.
    pub len: u64,
    /// Canonical partition of the component's index space.
    pub partition: Partition,
}

impl CompSpec {
    /// A component with the trivial single-color partition.
    pub fn unpartitioned(len: u64) -> Self {
        CompSpec {
            len,
            partition: Partition::equal_blocks(len, 1),
        }
    }

    /// A component split into `pieces` equal blocks.
    pub fn blocks(len: u64, pieces: usize) -> Self {
        CompSpec {
            len,
            partition: Partition::equal_blocks(len, pieces),
        }
    }
}

/// One computational tile of one operator component: the work needed
/// to produce range color `range_color` of component `rhs_comp`,
/// derived entirely by dependent-partitioning projections (see
/// [`crate::partitioning`]).
#[derive(Clone, Debug)]
pub struct TileSpec {
    /// Output (range-side) component index.
    pub rhs_comp: usize,
    /// Input (domain-side) component index.
    pub sol_comp: usize,
    /// Color of the range partition this tile produces.
    pub range_color: usize,
    /// Kernel points of this tile (subset of the operator's `K`).
    pub kernel_piece: IntervalSet,
    /// Range points written: `row_{K→R}` image of the kernel piece.
    pub out_subset: IntervalSet,
    /// Domain points read: `col_{K→D}` image of the kernel piece.
    pub in_union: IntervalSet,
    /// `in_union` split by the domain partition's colors (ghost
    /// regions per source piece); empty intersections omitted.
    pub in_by_color: Vec<(usize, IntervalSet)>,
    /// Stored-entry count (cost model; includes format padding).
    pub nnz: u64,
}

/// One operator component `(K_ℓ, A_ℓ, i_ℓ, j_ℓ)` with its derived
/// tiles.
pub struct OpComponentSpec<T> {
    /// The component's matrix `A_ℓ`.
    pub matrix: Arc<dyn SparseMatrix<T>>,
    /// Domain-side (input) component index `j_ℓ`.
    pub sol_comp: usize,
    /// Range-side (output) component index `i_ℓ`.
    pub rhs_comp: usize,
    /// Tiles derived by dependent partitioning.
    pub tiles: Vec<TileSpec>,
    /// When `Some`, the component is *implicit*: a stencil descriptor
    /// fully determines every tile's entries, so execution backends
    /// build matrix-free kernels straight from each tile's
    /// `out_subset` row runs and **skip triplet extraction entirely**
    /// — zero value arrays, zero COO→CSR conversion. `matrix` is
    /// still present (it drives dependent partitioning and the
    /// simulator), but an execution backend never reads its entries.
    /// Zero-fill planning is unchanged: `out_subset`/`in_union`
    /// footprints are exact either way.
    pub stencil: Option<Stencil>,
}

/// A full operator set (all components of `A_total` or `P_total`).
pub struct OpSetSpec<T> {
    /// Every component of the operator set.
    pub components: Vec<OpComponentSpec<T>>,
    /// How execution backends pick each tile's specialized kernel
    /// (banded/DIA, padded-lane ELL, register-blocked BCSR, or CSR):
    /// [`KernelChoice::Auto`] lets per-tile structure analysis decide;
    /// [`KernelChoice::Force`] overrides it for every tile of the
    /// opset (falling back to CSR where unrepresentable). Ignored by
    /// backends that do not execute kernels (e.g. the simulator).
    pub kernel_choice: KernelChoice,
    /// Optional cost-model hook consulted per tile under
    /// [`KernelChoice::Auto`]: the advisor may override the structure
    /// heuristic with a predicted-cost argmin (see
    /// [`kdr_sparse::KernelAdvisor`]). `None` keeps the pure
    /// heuristic. The bitwise contract makes any advice
    /// result-neutral; it only moves time.
    pub advisor: Option<Arc<dyn KernelAdvisor>>,
}

/// A task-level failure the backend absorbed: some runtime task
/// panicked (or was fault-injected) and the backend substituted
/// placeholder values (NaN scalars) instead of aborting. Drained by
/// [`Backend::take_fault`]; solver drivers turn it into
/// [`SolveError::TaskFailed`](crate::SolveError::TaskFailed).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BackendFault {
    /// Kernel name of the first failed task.
    pub task: String,
    /// Panic message (or injected-fault description).
    pub message: String,
}

/// The execution backend interface the planner lowers onto.
pub trait Backend<T: Scalar>: Send {
    /// Allocate a zero-initialized multi-component vector.
    fn alloc_vector(&mut self, comps: &[CompSpec]) -> BVec;

    /// Overwrite one component's contents (no-op on the simulation
    /// backend). Quiesces the backend first.
    fn fill_component(&mut self, v: BVec, comp: usize, data: &[T]);

    /// Read one component's contents (panics on the simulation
    /// backend). Quiesces the backend first.
    fn read_component(&mut self, v: BVec, comp: usize) -> Vec<T>;

    /// Register an operator set for use with [`Backend::apply`].
    fn register_operator(&mut self, spec: OpSetSpec<T>) -> OpHandle;

    /// `dst ← src` componentwise.
    fn copy(&mut self, dst: BVec, src: BVec);

    /// `dst ← 0` componentwise. Unlike `scal` by a zero constant,
    /// this is a true overwrite: stale NaN/Inf contents (e.g. a
    /// pooled workspace vector from an aborted solve) do not survive
    /// via `0 · NaN = NaN`.
    fn set_zero(&mut self, dst: BVec);

    /// Stamp all subsequently issued tasks with a scheduling
    /// priority (`0` = normal; `>0` routes through the runtime's
    /// express lanes ahead of the normal backlog). Backends without
    /// a task runtime ignore it.
    fn set_task_priority(&mut self, _priority: u8) {}

    /// `dst ← alpha · dst`.
    fn scal(&mut self, dst: BVec, alpha: SRef);

    /// `dst ← dst + alpha · src`.
    fn axpy(&mut self, dst: BVec, alpha: SRef, src: BVec);

    /// `dst ← src + alpha · dst`.
    fn xpay(&mut self, dst: BVec, alpha: SRef, src: BVec);

    /// Inner product across all components: the one-pair case of
    /// [`Backend::dot_many`], so both share one partial order and one
    /// combine task.
    fn dot(&mut self, a: BVec, b: BVec) -> SRef {
        self.dot_many(&[(a, b)])[0]
    }

    /// Fused multi-reduction: all pairs' inner products launched as
    /// one DAG stage with a single combine, returning one scalar per
    /// pair (in order). The whole batch counts as one reduction
    /// stage, and a pair's partials are accumulated in the same order
    /// whatever else is in the batch, so each result is bitwise
    /// independent of its batch-mates.
    fn dot_many(&mut self, pairs: &[(BVec, BVec)]) -> Vec<SRef>;

    /// Materialize a scalar constant.
    fn scalar_const(&mut self, v: T) -> SRef;

    /// Deferred scalar arithmetic.
    fn scalar_binop(&mut self, op: ScalarOp, a: SRef, b: SRef) -> SRef;

    /// Deferred unary scalar arithmetic.
    fn scalar_unop(&mut self, op: ScalarUnop, a: SRef) -> SRef;

    /// Force a scalar to a concrete value (the driver waits for it on
    /// the execution backend, running ready tasks meanwhile; returns
    /// a placeholder `1.0` on the simulation backend, whose graphs
    /// are value-independent).
    fn scalar_get(&mut self, s: SRef) -> T;

    /// Force several scalars at once, values in argument order. The
    /// default forces them one by one; the execution backend waits
    /// once for the tasks writing any of them and reads them where
    /// they are, however many it is asked for.
    fn scalar_get_many(&mut self, scalars: &[SRef]) -> Vec<T> {
        scalars.iter().map(|&s| self.scalar_get(s)).collect()
    }

    /// `dst ← A(src)` (or `Aᵀ` when `transpose`), where `A` is the
    /// registered operator set: zero-fill then accumulate every tile.
    fn apply(&mut self, op: OpHandle, dst: BVec, src: BVec, transpose: bool);

    /// Mark the start of one solver iteration. Backends that trace may
    /// defer the iteration's tasks until [`Backend::step_end`] so a
    /// repeated iteration shape can skip dependence analysis. Default:
    /// no-op.
    fn step_begin(&mut self) {}

    /// Mark the end of one solver iteration; reports how the
    /// iteration's tasks were executed. Default: [`StepOutcome::Analyzed`].
    fn step_end(&mut self) -> StepOutcome {
        StepOutcome::Analyzed
    }

    /// Note an additional owner of scalar `s` (slot-pooling backends
    /// refcount their scalar arena). Default: no-op.
    fn scalar_retain(&mut self, s: SRef) {
        let _ = s;
    }

    /// Drop one owner of scalar `s`; the slot may be reused once the
    /// count reaches zero. Default: no-op.
    fn scalar_release(&mut self, s: SRef) {
        let _ = s;
    }

    /// Wait for all outstanding work (no-op on the simulation
    /// backend).
    fn fence(&mut self);

    /// Remove and return the first task failure absorbed since the
    /// last call, re-arming the backend for further work. Backends
    /// without a fault path (e.g. the simulator) return `None`.
    fn take_fault(&mut self) -> Option<BackendFault> {
        None
    }

    /// Enable or disable per-iteration step tracing (trace-replay of
    /// repeated iteration shapes). Recovery drivers turn this off
    /// when retrying after a fault to rule the replay path out.
    /// Default: no-op for backends that do not trace.
    fn set_step_tracing(&mut self, on: bool) {
        let _ = on;
    }

    /// Downcasting hook so callers holding a `dyn Backend` can reach
    /// backend-specific functionality (graph extraction, runtime
    /// statistics).
    fn as_any(&mut self) -> &mut dyn std::any::Any;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_ops_eval() {
        assert_eq!(ScalarOp::Add.eval(2.0, 3.0), 5.0);
        assert_eq!(ScalarOp::Sub.eval(2.0, 3.0), -1.0);
        assert_eq!(ScalarOp::Mul.eval(2.0, 3.0), 6.0);
        assert_eq!(ScalarOp::Div.eval(3.0, 2.0), 1.5);
        assert_eq!(ScalarUnop::Neg.eval(2.0), -2.0);
        assert_eq!(ScalarUnop::Sqrt.eval(9.0), 3.0);
        assert_eq!(ScalarUnop::Abs.eval(-4.0), 4.0);
        assert_eq!(ScalarUnop::Recip.eval(4.0), 0.25);
    }

    #[test]
    fn comp_spec_constructors() {
        let c = CompSpec::unpartitioned(10);
        assert_eq!(c.partition.num_colors(), 1);
        let c = CompSpec::blocks(10, 3);
        assert_eq!(c.partition.num_colors(), 3);
        assert!(c.partition.is_complete() && c.partition.is_disjoint());
    }
}
