//! The backend abstraction separating solver logic from execution.
//!
//! The paper's planner/solver split lets solver implementations be
//! "written with no awareness of storage formats, multiple operators,
//! or data movement" (§5). We push the same split one level further:
//! the [`Planner`](crate::Planner) lowers every mathematical operation
//! onto this `Backend` trait, and the trait turns every task-generating
//! call into data — one [`StepOp`] — before any backend sees it.
//!
//! **One op stream, two lowerings.** The per-op entry points (`copy` …
//! `xpay`, `dot_many`, the scalar operations, `apply`, and scalar
//! retain/release) are provided methods, written once here: they check
//! operand structure against [`Handles`], take result slots from its
//! one scalar slot arena, build the `StepOp` and hand it
//! to [`Backend::emit`]. A backend lowers that stream and nothing else:
//!
//! * [`ExecBackend`](crate::exec::ExecBackend) records each op and
//!   lowers it into `kdr-runtime` tasks (shared-memory threads stand in
//!   for cluster nodes), replaying a repeated step as a compiled
//!   program; used for correctness and small-scale benchmarks;
//! * [`SimBackend`](crate::simbackend::SimBackend) prices each op into
//!   a `kdr-machine` task graph with flop/byte costs, used to reproduce
//!   the paper's 64–1,024 GPU experiments at full problem scale.
//!
//! A new backend implements `emit` (one `match` over `StepOp`),
//! `handles`, and the non-stream half: allocation, component I/O,
//! operator registration, `scalar_get`, `fence` and `as_any`.
//!
//! Scalars are *futures in dataflow form*: every scalar lives in a
//! backend-managed cell, scalar arithmetic is itself a (tiny) task,
//! and vector operations take scalar references as coefficients. A
//! solver iteration therefore never blocks the driving thread — the
//! same property Legion futures give the paper's CG in Figure 7.

use std::collections::BTreeSet;
use std::sync::Arc;

use kdr_index::{IntervalSet, Partition};
use kdr_sparse::{KernelChoice, Scalar, SparseMatrix};

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
    /// Tasks went through dependence analysis one by one: reported by
    /// backends that do not trace (the trait's default `step_end`,
    /// the simulator); never by the execution backend.
    Analyzed,
    /// The step's tasks (or, when a forcing read split the step, those
    /// of one of its records) were analyzed once and compiled into a
    /// program, which ran as the step's first run and is kept for
    /// replay while the cache has room.
    Captured,
    /// Every record of the step ran a program compiled before;
    /// dependence analysis was skipped.
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

/// The elementwise vector operations: one task (or priced node) per
/// destination piece.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VecOp {
    /// `dst ← src`.
    Copy,
    /// `dst ← 0`.
    SetZero,
    /// `dst ← alpha · dst`.
    Scal,
    /// `dst ← dst + alpha · src`.
    Axpy,
    /// `dst ← src + alpha · dst`.
    Xpay,
}

impl VecOp {
    /// The operation's task name, and its node label in a priced graph.
    pub fn name(self) -> &'static str {
        match self {
            VecOp::Copy => "copy",
            VecOp::SetZero => "set_zero",
            VecOp::Scal => "scal",
            VecOp::Axpy => "axpy",
            VecOp::Xpay => "xpay",
        }
    }
}

/// One task-generating backend call, as its handles: what the provided
/// op methods of [`Backend`] build and hand to [`Backend::emit`]. A
/// scalar result's slot is taken when the op is built, so it is part
/// of the op.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepOp {
    /// An elementwise operation on `dst`.
    Vector {
        /// Which operation.
        op: VecOp,
        /// The vector written.
        dst: BVec,
        /// The vector read at the same pieces (`copy`, `axpy`,
        /// `xpay`); it may be `dst` itself.
        src: Option<BVec>,
        /// The coefficient (`scal`, `axpy`, `xpay`).
        alpha: Option<SRef>,
    },
    /// A `dot_many` of `pairs` pairs, handed to `emit` beside the op
    /// with their result slots.
    Dots {
        /// Number of pairs.
        pairs: usize,
    },
    /// A `scalar_const`, its value handed to `emit` beside the op.
    Const {
        /// Result slot.
        out: SRef,
    },
    /// `out ← a op b`.
    Binop {
        /// The operation.
        op: ScalarOp,
        /// Left operand.
        a: SRef,
        /// Right operand.
        b: SRef,
        /// Result slot.
        out: SRef,
    },
    /// `out ← op a`.
    Unop {
        /// The operation.
        op: ScalarUnop,
        /// Operand.
        a: SRef,
        /// Result slot.
        out: SRef,
    },
    /// `dst ← A(src)`, or `Aᵀ` when `transpose`.
    Apply {
        /// The registered operator set.
        op: OpHandle,
        /// The vector written.
        dst: BVec,
        /// The vector read.
        src: BVec,
        /// Apply the adjoint.
        transpose: bool,
    },
}

/// What the provided op methods know about a backend's handles: each
/// vector's component lengths, for the operand checks, and the scalar
/// slot arena.
///
/// A slot is refcounted by the handles that own it and belongs to one
/// *bank*, which reuses its released slots lowest-first. A step takes
/// its results from the lowest-numbered bank that held no live scalar
/// when it began (`Handles::begin_step`); anything allocated outside
/// a step comes from bank 0. So the slots a step's results land on
/// depend on what the step records, not on how many steps came before:
/// a step that retains nothing stays on one bank, and a solver that
/// carries scalars `d` steps ahead rotates through `d + 1` banks. The
/// arena is as large as the sum of each bank's peak number of live
/// scalars.
#[derive(Default, Debug)]
pub struct Handles {
    vectors: Vec<Vec<u64>>,
    refs: Vec<usize>,
    /// The bank each slot belongs to.
    bank_of: Vec<usize>,
    banks: Vec<Bank>,
    /// The bank new slots are taken from.
    current: usize,
}

/// One bank of scalar slots: the free ones, and how many have an owner.
#[derive(Default, Debug)]
struct Bank {
    free: BTreeSet<SRef>,
    live: usize,
}

impl Handles {
    /// Register a vector of `comps`, returning its handle: the
    /// backend's vectors are numbered in allocation order from 0.
    pub fn add_vector(&mut self, comps: &[CompSpec]) -> BVec {
        self.vectors.push(comps.iter().map(|c| c.len).collect());
        self.vectors.len() - 1
    }

    /// Scalar slots ever made (the arena's size).
    pub fn slots(&self) -> usize {
        self.refs.len()
    }

    /// Scalar slots currently free (no owner left).
    pub(crate) fn free_slots(&self) -> usize {
        self.banks.iter().map(|b| b.free.len()).sum()
    }

    /// Enter a step: its results come from the lowest-numbered bank
    /// that holds no live scalar, or from a new bank if every bank
    /// holds one.
    pub(crate) fn begin_step(&mut self) {
        self.current = self
            .banks
            .iter()
            .position(|b| b.live == 0)
            .unwrap_or(self.banks.len());
    }

    /// Leave a step: allocations go back to bank 0.
    pub(crate) fn end_step(&mut self) {
        self.current = 0;
    }

    /// A slot with one owner: the current bank's lowest free one, else
    /// a new one in that bank.
    fn alloc_slot(&mut self) -> SRef {
        let b = self.current;
        if b == self.banks.len() {
            self.banks.push(Bank::default());
        }
        let bank = &mut self.banks[b];
        bank.live += 1;
        if let Some(slot) = bank.free.pop_first() {
            self.refs[slot] = 1;
            slot
        } else {
            self.refs.push(1);
            self.bank_of.push(b);
            self.refs.len() - 1
        }
    }

    /// Drop one owner of slot `s`, returning it to its bank at zero.
    fn release(&mut self, s: SRef) {
        debug_assert!(self.refs[s] > 0, "double release of scalar {s}");
        self.refs[s] -= 1;
        if self.refs[s] == 0 {
            let bank = &mut self.banks[self.bank_of[s]];
            bank.live -= 1;
            bank.free.insert(s);
        }
    }

    /// Operations that pair pieces positionally need operands with the
    /// same components.
    fn check_same_shape(&self, a: BVec, b: BVec, what: &str) {
        assert_eq!(
            self.vectors[a], self.vectors[b],
            "{what} across vectors of different component lengths"
        );
    }
}

/// The one elementwise entry point behind `copy` … `xpay`.
fn emit_vector<T: Scalar, B: Backend<T> + ?Sized>(
    b: &mut B,
    op: VecOp,
    dst: BVec,
    src: Option<BVec>,
    alpha: Option<SRef>,
) {
    if let Some(s) = src.filter(|&s| s != dst) {
        b.handles().check_same_shape(dst, s, op.name());
    }
    b.emit(
        StepOp::Vector {
            op,
            dst,
            src,
            alpha,
        },
        &[],
        None,
    );
}

/// The scalar operations' entry point: take the result slot, emit.
fn emit_scalar<T: Scalar, B: Backend<T> + ?Sized>(
    b: &mut B,
    op: impl FnOnce(SRef) -> StepOp,
    value: Option<T>,
) -> SRef {
    let out = b.handles().alloc_slot();
    b.emit(op(out), &[], value);
    out
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
///
/// The matrix is all an execution backend is told of the format: it
/// lowers each tile through [`crate::partitioning::lower_tiles`], so a
/// format that lowers its own tiles — a
/// [`kdr_sparse::StencilOperator`]'s matrix-free ones — does so
/// however it was added.
pub struct OpComponentSpec<T> {
    /// The component's matrix `A_ℓ`.
    pub matrix: Arc<dyn SparseMatrix<T>>,
    /// Domain-side (input) component index `j_ℓ`.
    pub sol_comp: usize,
    /// Range-side (output) component index `i_ℓ`.
    pub rhs_comp: usize,
    /// Tiles derived by dependent partitioning.
    pub tiles: Vec<TileSpec>,
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
///
/// The task-generating half is written once, as provided methods: each
/// checks its operands, takes its result slots from [`Handles`], and
/// hands one [`StepOp`] to [`Backend::emit`]. A backend implements the
/// required methods only.
pub trait Backend<T: Scalar>: Send {
    /// Allocate a zero-initialized multi-component vector. Its handle
    /// is the one [`Handles::add_vector`] returns for `comps`.
    fn alloc_vector(&mut self, comps: &[CompSpec]) -> BVec;

    /// Allocate a solver's workspace vector, zero-initialized. The
    /// planner hands a pooled workspace vector out again by zeroing it
    /// ([`Backend::set_zero`]); a backend that keys programs by the
    /// ops it records makes a fresh one record that same op, so a
    /// job's set-up is one program whichever way its workspace came.
    /// The default is [`Backend::alloc_vector`].
    fn alloc_workspace_vector(&mut self, comps: &[CompSpec]) -> BVec {
        self.alloc_vector(comps)
    }

    /// Overwrite one component's contents (no-op on the simulation
    /// backend). Quiesces the backend first.
    fn fill_component(&mut self, v: BVec, comp: usize, data: &[T]);

    /// Read one component's contents (panics on the simulation
    /// backend). Quiesces the backend first.
    fn read_component(&mut self, v: BVec, comp: usize) -> Vec<T>;

    /// Register an operator set for use with [`Backend::apply`].
    fn register_operator(&mut self, spec: OpSetSpec<T>) -> OpHandle;

    /// The vector shapes and scalar slot arena the provided op methods
    /// share.
    fn handles(&mut self) -> &mut Handles;

    /// Take one task-generating call: record or lower `op`. A
    /// [`StepOp::Dots`] comes with its `(a, b, result slot)` triples
    /// in `dots` (empty otherwise), a [`StepOp::Const`] with its value
    /// in `value` (`None` otherwise). Its result slots exist in
    /// [`Backend::handles`] already.
    fn emit(&mut self, op: StepOp, dots: &[(BVec, BVec, SRef)], value: Option<T>);

    /// Force a scalar to a concrete value (the driver waits for it on
    /// the execution backend, running ready tasks meanwhile; returns
    /// a placeholder `1.0` on the simulation backend, whose graphs
    /// are value-independent).
    fn scalar_get(&mut self, s: SRef) -> T;

    /// Wait for all outstanding work (no-op on the simulation
    /// backend).
    fn fence(&mut self);

    /// Downcasting hook so callers holding a `dyn Backend` can reach
    /// backend-specific functionality (graph extraction, runtime
    /// statistics).
    fn as_any(&mut self) -> &mut dyn std::any::Any;

    /// `dst ← src` componentwise.
    fn copy(&mut self, dst: BVec, src: BVec) {
        emit_vector(self, VecOp::Copy, dst, Some(src), None);
    }

    /// `dst ← 0` componentwise. Unlike `scal` by a zero constant,
    /// this is a true overwrite: stale NaN/Inf contents (e.g. a
    /// pooled workspace vector from an aborted solve) do not survive
    /// via `0 · NaN = NaN`.
    fn set_zero(&mut self, dst: BVec) {
        emit_vector(self, VecOp::SetZero, dst, None, None);
    }

    /// `dst ← alpha · dst`.
    fn scal(&mut self, dst: BVec, alpha: SRef) {
        emit_vector(self, VecOp::Scal, dst, None, Some(alpha));
    }

    /// `dst ← dst + alpha · src`.
    fn axpy(&mut self, dst: BVec, alpha: SRef, src: BVec) {
        emit_vector(self, VecOp::Axpy, dst, Some(src), Some(alpha));
    }

    /// `dst ← src + alpha · dst`.
    fn xpay(&mut self, dst: BVec, alpha: SRef, src: BVec) {
        emit_vector(self, VecOp::Xpay, dst, Some(src), Some(alpha));
    }

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
    fn dot_many(&mut self, pairs: &[(BVec, BVec)]) -> Vec<SRef> {
        if pairs.is_empty() {
            return Vec::new();
        }
        let handles = self.handles();
        let dots: Vec<(BVec, BVec, SRef)> = pairs
            .iter()
            .map(|&(a, b)| {
                handles.check_same_shape(a, b, "dot");
                (a, b, handles.alloc_slot())
            })
            .collect();
        self.emit(StepOp::Dots { pairs: dots.len() }, &dots, None);
        dots.iter().map(|&(_, _, s)| s).collect()
    }

    /// Materialize a scalar constant.
    fn scalar_const(&mut self, v: T) -> SRef {
        emit_scalar(self, |out| StepOp::Const { out }, Some(v))
    }

    /// Deferred scalar arithmetic.
    fn scalar_binop(&mut self, op: ScalarOp, a: SRef, b: SRef) -> SRef {
        emit_scalar(self, |out| StepOp::Binop { op, a, b, out }, None)
    }

    /// Deferred unary scalar arithmetic.
    fn scalar_unop(&mut self, op: ScalarUnop, a: SRef) -> SRef {
        emit_scalar(self, |out| StepOp::Unop { op, a, out }, None)
    }

    /// Note an additional owner of scalar `s`.
    fn scalar_retain(&mut self, s: SRef) {
        self.handles().refs[s] += 1;
    }

    /// Drop one owner of scalar `s`; the slot is reused once the count
    /// reaches zero.
    fn scalar_release(&mut self, s: SRef) {
        self.handles().release(s);
    }

    /// `dst ← A(src)` (or `Aᵀ` when `transpose`), where `A` is the
    /// registered operator set: zero-fill then accumulate every tile.
    fn apply(&mut self, op: OpHandle, dst: BVec, src: BVec, transpose: bool) {
        // A tile reads its input while it accumulates its output; in
        // place they would be the same elements (and the fused
        // zero-fill would wipe the input first).
        assert_ne!(dst, src, "apply cannot run in place");
        let op = StepOp::Apply {
            op,
            dst,
            src,
            transpose,
        };
        self.emit(op, &[], None);
    }

    /// Force several scalars at once, values in argument order. The
    /// default forces them one by one; the execution backend waits
    /// once for the tasks writing any of them and reads them where
    /// they are, however many it is asked for.
    fn scalar_get_many(&mut self, scalars: &[SRef]) -> Vec<T> {
        scalars.iter().map(|&s| self.scalar_get(s)).collect()
    }

    /// Mark the start of one solver iteration. Backends that trace may
    /// defer the iteration's tasks until [`Backend::step_end`] so a
    /// repeated iteration shape can skip dependence analysis. Default:
    /// no-op.
    fn step_begin(&mut self) {}

    /// Mark the end of one solver iteration; reports how the
    /// iteration's tasks were executed, with the values of `reads` —
    /// the scalars the caller reads next, forced with the step, in
    /// argument order. Default: [`StepOutcome::Analyzed`] and
    /// [`Backend::scalar_get_many`] of `reads`; the execution backend
    /// runs a replayed step and waits for it in one call.
    fn step_end(&mut self, reads: &[SRef]) -> (StepOutcome, Vec<T>) {
        (StepOutcome::Analyzed, self.scalar_get_many(reads))
    }

    /// Remove and return the first task failure absorbed since the
    /// last call, re-arming the backend for further work. Backends
    /// without a fault path (e.g. the simulator) return `None`.
    fn take_fault(&mut self) -> Option<BackendFault> {
        None
    }
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
        let c = CompSpec::blocks(10, 3);
        assert_eq!(c.partition.num_colors(), 3);
        assert!(c.partition.is_complete() && c.partition.is_disjoint());
    }

    /// `y ← A·y` is refused before either lowering sees it, so both
    /// backends reject it with the same message.
    #[test]
    fn apply_in_place_panics_alike_on_both_backends() {
        use crate::simbackend::SimBackend;
        use crate::{ExecBackend, Planner, SOL};
        use kdr_sparse::{Stencil, StencilOperator};
        let s = Stencil::lap2d(8, 8);
        let n = s.unknowns();
        let machine = kdr_machine::MachineConfig::lassen(1);
        let backends: [Box<dyn Backend<f64>>; 2] = [
            Box::new(ExecBackend::<f64>::new(1)),
            Box::new(SimBackend::<f64>::new(machine)),
        ];
        for backend in backends {
            let mut planner = Planner::new(backend);
            let d = planner.add_sol_vector(n, Some(Partition::equal_blocks(n, 2)));
            let r = planner.add_rhs_vector(n, Some(Partition::equal_blocks(n, 2)));
            planner.add_operator(Arc::new(StencilOperator::<f64>::new(s)), d, r);
            let in_place = std::panic::AssertUnwindSafe(|| planner.matmul(SOL, SOL));
            let err = std::panic::catch_unwind(in_place).expect_err("an in-place apply must panic");
            let msg = err.downcast_ref::<String>().map_or("", String::as_str);
            assert!(msg.contains("apply cannot run in place"), "{msg}");
        }
    }
}
