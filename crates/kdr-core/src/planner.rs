//! The planner: problem setup and the solver-facing operation set
//! (the paper's Figures 5 and 6).
//!
//! A [`Planner`] is built in two phases. *Setup* (Figure 5): the user
//! supplies solution-vector components (`add_sol_vector`),
//! right-hand-side components (`add_rhs_vector`), operator components
//! (`add_operator`) and optionally preconditioner components
//! (`add_preconditioner`), each with an optional canonical partition.
//! *Solving* (Figure 6): solvers drive the planner through
//! format-agnostic mathematical operations — `copy`, `scal`, `axpy`,
//! `xpay`, `dot`, `matmul`, `psolve` — on opaque vector ids, with
//! `SOL` and `RHS` preallocated.
//!
//! The planner owns the dependent-partitioning step: on finalization
//! it derives every operator component's tiles from its row/column
//! relations (see [`crate::partitioning`]) and registers them with the
//! backend. Changing a partition changes *nothing else* in user or
//! solver code — the paper's P3.

use std::sync::Arc;

use parking_lot::Mutex;

use kdr_index::Partition;
use kdr_sparse::{KernelChoice, Scalar, SparseMatrix, Stencil, StencilOperator};

use crate::backend::{
    BVec, Backend, CompSpec, OpComponentSpec, OpHandle, OpSetSpec, SRef, StepOutcome,
};
use crate::partitioning::compute_tiles;
use crate::scalar_handle::{ScalarHandle, SharedBackend};

/// Planner-level vector identifier.
pub type VecId = usize;

/// The solution vector (always id 0).
pub const SOL: VecId = 0;

/// The right-hand-side vector (always id 1).
pub const RHS: VecId = 1;

/// Which multi-component structure a vector instance carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VecStructure {
    /// Indexed by the total domain space `D_total = D_1 ⊔ … ⊔ D_n`.
    Sol,
    /// Indexed by the total range space `R_total = R_1 ⊔ … ⊔ R_m`.
    Rhs,
}

/// An operator or preconditioner component before registration.
struct PendingOp<T> {
    matrix: Arc<dyn SparseMatrix<T>>,
    /// The component it reads: an operator's sol component, a
    /// preconditioner's rhs component.
    input: usize,
    /// The component it writes.
    output: usize,
}

/// The KDRSolvers planner.
pub struct Planner<T: Scalar> {
    backend: SharedBackend<T>,
    sol_comps: Vec<CompSpec>,
    rhs_comps: Vec<CompSpec>,
    /// Operator and preconditioner components added so far; `finalize`
    /// hands both lists to the backend and leaves them empty.
    ops: Vec<PendingOp<T>>,
    precs: Vec<PendingOp<T>>,
    vectors: Vec<(BVec, VecStructure)>,
    op_handle: Option<OpHandle>,
    prec_handle: Option<OpHandle>,
    /// Data supplied before finalization, applied when `SOL`/`RHS`
    /// are allocated: `(is_sol, component, data)`.
    pending_data: Vec<(bool, usize, Vec<T>)>,
    kernel_choice: KernelChoice,
    finalized: bool,
    /// Released workspace vectors by structure, reused
    /// lowest-id-first so a rebuilt solver sees the *same* backend
    /// buffer ids as its predecessor (and therefore the same trace
    /// shape signature — warm solves replay cached traces instead of
    /// re-analyzing).
    ws_free_sol: Vec<VecId>,
    ws_free_rhs: Vec<VecId>,
    /// The slots a `step_end` forces, kept from step to step.
    reads: Vec<SRef>,
}

/// The operator set of `ops`, each component tiled from its input
/// component's partition in `ins` to its output component's in `outs`.
fn opset<T: Scalar>(
    ops: Vec<PendingOp<T>>,
    ins: &[CompSpec],
    outs: &[CompSpec],
    kernel_choice: KernelChoice,
) -> OpSetSpec<T> {
    let components = ops
        .into_iter()
        .map(|op| OpComponentSpec {
            tiles: compute_tiles(
                op.matrix.as_ref(),
                &ins[op.input].partition,
                &outs[op.output].partition,
                op.input,
                op.output,
            ),
            matrix: op.matrix,
            sol_comp: op.input,
            rhs_comp: op.output,
        })
        .collect();
    OpSetSpec {
        components,
        kernel_choice,
    }
}

impl<T: Scalar> Planner<T> {
    /// Create a planner over a backend.
    pub fn new(backend: Box<dyn Backend<T>>) -> Self {
        Planner {
            backend: Arc::new(Mutex::new(backend)),
            sol_comps: Vec::new(),
            rhs_comps: Vec::new(),
            ops: Vec::new(),
            precs: Vec::new(),
            vectors: Vec::new(),
            op_handle: None,
            prec_handle: None,
            pending_data: Vec::new(),
            kernel_choice: KernelChoice::default(),
            finalized: false,
            ws_free_sol: Vec::new(),
            ws_free_rhs: Vec::new(),
            reads: Vec::new(),
        }
    }

    /// Override how the execution backend picks per-tile SpMV kernels
    /// (default: [`KernelChoice::Auto`], structure-driven selection).
    /// Must be called before the first solver-facing operation
    /// finalizes the planner. Applies to the operator set and the
    /// preconditioner set alike.
    pub fn set_kernel_choice(&mut self, choice: KernelChoice) {
        assert!(!self.finalized, "planner already finalized");
        self.kernel_choice = choice;
    }

    // ----- Setup API (paper Figure 5) -------------------------------

    /// Add a solution-vector component of `len` points with an
    /// optional canonical partition (complete and disjoint); defaults
    /// to a single piece. Returns the component's `sol_id`.
    pub fn add_sol_vector(&mut self, len: u64, partition: Option<Partition>) -> usize {
        assert!(!self.finalized, "planner already finalized");
        let partition = partition.unwrap_or_else(|| Partition::equal_blocks(len, 1));
        assert_eq!(partition.space_size(), len);
        assert!(
            partition.is_complete() && partition.is_disjoint(),
            "canonical partitions must be complete and disjoint"
        );
        self.sol_comps.push(CompSpec { len, partition });
        self.sol_comps.len() - 1
    }

    /// Add a right-hand-side component; see [`Planner::add_sol_vector`].
    pub fn add_rhs_vector(&mut self, len: u64, partition: Option<Partition>) -> usize {
        assert!(!self.finalized, "planner already finalized");
        let partition = partition.unwrap_or_else(|| Partition::equal_blocks(len, 1));
        assert_eq!(partition.space_size(), len);
        assert!(
            partition.is_complete() && partition.is_disjoint(),
            "canonical partitions must be complete and disjoint"
        );
        self.rhs_comps.push(CompSpec { len, partition });
        self.rhs_comps.len() - 1
    }

    /// Add an operator component `(K_ℓ, A_ℓ, i_ℓ, j_ℓ)`: `matrix` maps
    /// solution component `sol_id` to right-hand-side component
    /// `rhs_id`. The same `Arc` may be added many times (aliasing,
    /// §4.2) — its storage is shared, never duplicated.
    pub fn add_operator(&mut self, matrix: Arc<dyn SparseMatrix<T>>, sol_id: usize, rhs_id: usize) {
        assert!(!self.finalized, "planner already finalized");
        assert_eq!(
            matrix.domain_space().size(),
            self.sol_comps[sol_id].len,
            "operator domain does not match sol component {sol_id}"
        );
        assert_eq!(
            matrix.range_space().size(),
            self.rhs_comps[rhs_id].len,
            "operator range does not match rhs component {rhs_id}"
        );
        self.ops.push(PendingOp {
            matrix,
            input: sol_id,
            output: rhs_id,
        });
    }

    /// Add the matrix-free operator of a stencil descriptor: shorthand
    /// for [`Planner::add_operator`] of a [`StencilOperator`], which
    /// lowers each tile from its geometry on an execution backend —
    /// no stored value — unless [`KernelChoice::Force`] names an
    /// assembled kind, an explicit request for stored values.
    pub fn add_stencil_operator(&mut self, desc: Stencil, sol_id: usize, rhs_id: usize) {
        self.add_operator(Arc::new(StencilOperator::new(desc)), sol_id, rhs_id);
    }

    /// Add a preconditioner component: `matrix` maps right-hand-side
    /// component `rhs_id` to solution component `sol_id` (so that
    /// `P_total A_total ≈ I`). CG, BiCGStab and GMRES built on the
    /// planner apply it; every other solver refuses the planner.
    pub fn add_preconditioner(
        &mut self,
        matrix: Arc<dyn SparseMatrix<T>>,
        sol_id: usize,
        rhs_id: usize,
    ) {
        assert!(!self.finalized, "planner already finalized");
        assert_eq!(
            matrix.domain_space().size(),
            self.rhs_comps[rhs_id].len,
            "preconditioner domain does not match rhs component {rhs_id}"
        );
        assert_eq!(
            matrix.range_space().size(),
            self.sol_comps[sol_id].len,
            "preconditioner range does not match sol component {sol_id}"
        );
        self.precs.push(PendingOp {
            matrix,
            input: rhs_id,
            output: sol_id,
        });
    }

    /// Derive tiles for every operator component and allocate `SOL`
    /// and `RHS`. Invoked automatically by the first solver-facing
    /// call.
    pub fn finalize(&mut self) {
        if self.finalized {
            return;
        }
        assert!(
            !self.sol_comps.is_empty() && !self.rhs_comps.is_empty(),
            "planner needs at least one sol and one rhs component"
        );
        assert!(!self.ops.is_empty(), "planner needs at least one operator");
        // The operators go to the backend: the planner keeps none alive
        // past registration.
        let (sols, rhss, choice) = (&self.sol_comps, &self.rhs_comps, self.kernel_choice);
        let op_spec = opset(std::mem::take(&mut self.ops), sols, rhss, choice);
        let precs = std::mem::take(&mut self.precs);
        let prec_spec = (!precs.is_empty()).then(|| opset(precs, rhss, sols, choice));
        let mut b = self.backend.lock();
        self.op_handle = Some(b.register_operator(op_spec));
        self.prec_handle = prec_spec.map(|s| b.register_operator(s));
        let sol = b.alloc_vector(&self.sol_comps);
        let rhs = b.alloc_vector(&self.rhs_comps);
        drop(b);
        debug_assert!(self.vectors.is_empty());
        let (sol_id, _) = self.register_vec_id(sol, VecStructure::Sol);
        let (rhs_id, _) = self.register_vec_id(rhs, VecStructure::Rhs);
        assert_eq!(sol_id, SOL);
        assert_eq!(rhs_id, RHS);
        self.finalized = true;
        for (is_sol, comp, data) in std::mem::take(&mut self.pending_data) {
            let bv = self.vectors[if is_sol { SOL } else { RHS }].0;
            self.backend.lock().fill_component(bv, comp, &data);
        }
    }

    fn register_vec_id(&mut self, bvec: BVec, s: VecStructure) -> (VecId, BVec) {
        self.vectors.push((bvec, s));
        (self.vectors.len() - 1, bvec)
    }

    fn ensure_finalized(&mut self) {
        self.finalize();
    }

    /// Overwrite a solution component (initial guess). May be called
    /// during setup (applied at finalization) or after.
    pub fn set_sol_data(&mut self, comp: usize, data: &[T]) {
        assert_eq!(data.len() as u64, self.sol_comps[comp].len);
        if self.finalized {
            let bv = self.vectors[SOL].0;
            self.backend.lock().fill_component(bv, comp, data);
        } else {
            self.pending_data.push((true, comp, data.to_vec()));
        }
    }

    /// Overwrite a right-hand-side component. May be called during
    /// setup (applied at finalization) or after.
    pub fn set_rhs_data(&mut self, comp: usize, data: &[T]) {
        assert_eq!(data.len() as u64, self.rhs_comps[comp].len);
        if self.finalized {
            let bv = self.vectors[RHS].0;
            self.backend.lock().fill_component(bv, comp, data);
        } else {
            self.pending_data.push((false, comp, data.to_vec()));
        }
    }

    /// Read back a component of any planner vector (execution backend
    /// only).
    pub fn read_component(&mut self, vec: VecId, comp: usize) -> Vec<T> {
        self.ensure_finalized();
        let bv = self.vectors[vec].0;
        self.backend.lock().read_component(bv, comp)
    }

    // ----- Solver-facing API (paper Figure 6) ------------------------

    /// `D_i = R_i` for all `i` (componentwise sizes and counts).
    pub fn is_square(&self) -> bool {
        self.sol_comps.len() == self.rhs_comps.len()
            && self
                .sol_comps
                .iter()
                .zip(&self.rhs_comps)
                .all(|(d, r)| d.len == r.len)
    }

    /// Whether a preconditioner was supplied.
    pub fn has_preconditioner(&self) -> bool {
        // The list until `finalize` registers it, the handle after.
        !self.precs.is_empty() || self.prec_handle.is_some()
    }

    /// Allocate a workspace vector with the solution structure.
    ///
    /// Prefers a vector released via
    /// [`Planner::release_workspace_from`] (lowest id first, zeroed on
    /// reuse) over a fresh backend allocation, so repeated solver
    /// constructions see identical buffer ids.
    pub fn allocate_workspace_vector(&mut self) -> VecId {
        self.ensure_finalized();
        if let Some(v) = Self::pop_lowest(&mut self.ws_free_sol) {
            let bv = self.bvec(v);
            self.backend.lock().set_zero(bv);
            return v;
        }
        let bv = self
            .backend
            .lock()
            .alloc_workspace_vector(&self.sol_comps.clone());
        self.register_vec_id(bv, VecStructure::Sol).0
    }

    /// Allocate a workspace vector with the right-hand-side structure.
    /// Pools like [`Planner::allocate_workspace_vector`].
    pub fn allocate_workspace_vector_rhs(&mut self) -> VecId {
        self.ensure_finalized();
        if let Some(v) = Self::pop_lowest(&mut self.ws_free_rhs) {
            let bv = self.bvec(v);
            self.backend.lock().set_zero(bv);
            return v;
        }
        let bv = self
            .backend
            .lock()
            .alloc_workspace_vector(&self.rhs_comps.clone());
        self.register_vec_id(bv, VecStructure::Rhs).0
    }

    fn pop_lowest(pool: &mut Vec<VecId>) -> Option<VecId> {
        let (i, _) = pool.iter().enumerate().min_by_key(|&(_, v)| *v)?;
        Some(pool.swap_remove(i))
    }

    /// The lowest vector id a following workspace allocation could
    /// hand out: the lowest pooled id, or the next fresh one when the
    /// pools are empty. Pass it to
    /// [`Planner::release_workspace_from`] after a solve to return
    /// every workspace vector allocated since, pooled or fresh, to the
    /// reuse pool.
    ///
    /// The release takes every id at or above the mark, so a vector
    /// that was in use when the mark was taken keeps out of it only by
    /// having a lower id. Lowest-first reuse gives that unless a lower
    /// id of the *other* structure was still pooled at the mark.
    pub fn workspace_mark(&self) -> usize {
        let pooled = self.ws_free_sol.iter().chain(&self.ws_free_rhs).min();
        pooled.map_or(self.vectors.len(), |&v| v)
    }

    /// Vectors this planner has ever allocated from its backend,
    /// `SOL` and `RHS` included. Constant from solve to solve once
    /// the workspace pool serves every solver rebuild.
    pub fn num_vectors(&self) -> usize {
        self.vectors.len()
    }

    /// Return all workspace vectors with id `>= mark` to the reuse
    /// pool. Their backend buffers stay alive (the ids remain valid),
    /// but their contents are dead: the next
    /// [`Planner::allocate_workspace_vector`] hands the lowest id back
    /// zeroed. Releasing the same range twice is a no-op.
    pub fn release_workspace_from(&mut self, mark: usize) {
        for v in mark..self.vectors.len() {
            if v == SOL || v == RHS {
                continue;
            }
            let pool = match self.vectors[v].1 {
                VecStructure::Sol => &mut self.ws_free_sol,
                VecStructure::Rhs => &mut self.ws_free_rhs,
            };
            if !pool.contains(&v) {
                pool.push(v);
            }
        }
    }

    /// `dst ← 0` componentwise (a true overwrite — stale NaN/Inf from
    /// an aborted solve does not survive, unlike scaling by zero).
    pub fn zero(&mut self, dst: VecId) {
        self.ensure_finalized();
        let d = self.bvec(dst);
        self.backend.lock().set_zero(d);
    }

    fn bvec(&self, v: VecId) -> BVec {
        self.vectors[v].0
    }

    fn check_compatible(&self, a: VecId, b: VecId) {
        let (sa, sb) = (self.vectors[a].1, self.vectors[b].1);
        if sa != sb {
            assert!(
                self.is_square(),
                "mixing sol- and rhs-structured vectors requires a square system"
            );
        }
    }

    /// `dst ← src`.
    pub fn copy(&mut self, dst: VecId, src: VecId) {
        self.ensure_finalized();
        self.check_compatible(dst, src);
        let (d, s) = (self.bvec(dst), self.bvec(src));
        self.backend.lock().copy(d, s);
    }

    /// `dst ← alpha · dst`.
    pub fn scal(&mut self, dst: VecId, alpha: &ScalarHandle<T>) {
        self.ensure_finalized();
        let d = self.bvec(dst);
        self.backend.lock().scal(d, alpha.sref());
    }

    /// `dst ← dst + alpha · src`.
    pub fn axpy(&mut self, dst: VecId, alpha: &ScalarHandle<T>, src: VecId) {
        self.ensure_finalized();
        self.check_compatible(dst, src);
        let (d, s) = (self.bvec(dst), self.bvec(src));
        self.backend.lock().axpy(d, alpha.sref(), s);
    }

    /// `dst ← src + alpha · dst`.
    pub fn xpay(&mut self, dst: VecId, alpha: &ScalarHandle<T>, src: VecId) {
        self.ensure_finalized();
        self.check_compatible(dst, src);
        let (d, s) = (self.bvec(dst), self.bvec(src));
        self.backend.lock().xpay(d, alpha.sref(), s);
    }

    /// Deferred inner product `v · w`: the one-pair [`Planner::dots`].
    pub fn dot(&mut self, v: VecId, w: VecId) -> ScalarHandle<T> {
        let [d] = self.dots(&[(v, w)]);
        d
    }

    /// Fused multi-reduction of a fixed number of pairs: all pairs'
    /// inner products as one DAG stage with a single combine task — one
    /// global fence for the whole batch instead of one per dot. Results
    /// come back in pair order and are bitwise identical to separate
    /// [`Planner::dot`] calls; only the synchronization count changes.
    /// Solvers batch their per-iteration algorithmic and residual dots
    /// through this to halve (or better) their fences per iteration:
    /// `let [ts, tt] = planner.dots(&[(t, s), (t, t)]);`.
    pub fn dots<const N: usize>(&mut self, pairs: &[(VecId, VecId); N]) -> [ScalarHandle<T>; N] {
        self.ensure_finalized();
        let bpairs = pairs.map(|(v, w)| {
            self.check_compatible(v, w);
            (self.bvec(v), self.bvec(w))
        });
        let mut srefs = [0; N];
        let mut b = self.backend.lock();
        b.dot_many_into(&bpairs, &mut srefs);
        srefs.map(|s| ScalarHandle::adopt(&self.backend, &mut **b, s))
    }

    /// [`Planner::dots`] of a batch whose size is known only at run
    /// time (s-step CG's Gram matrix), the results in a new `Vec`.
    pub fn dot_many(&mut self, pairs: &[(VecId, VecId)]) -> Vec<ScalarHandle<T>> {
        self.ensure_finalized();
        for &(v, w) in pairs {
            self.check_compatible(v, w);
        }
        let bpairs: Vec<(usize, usize)> =
            pairs.iter().map(|&(v, w)| (self.bvec(v), self.bvec(w))).collect();
        let mut b = self.backend.lock();
        let srefs = b.dot_many(&bpairs);
        srefs
            .into_iter()
            .map(|s| ScalarHandle::adopt(&self.backend, &mut **b, s))
            .collect()
    }

    /// Materialize a scalar constant as a deferred scalar.
    pub fn scalar(&mut self, v: T) -> ScalarHandle<T> {
        self.ensure_finalized();
        let mut b = self.backend.lock();
        let sref = b.scalar_const(v);
        ScalarHandle::adopt(&self.backend, &mut **b, sref)
    }

    /// `dst ← A_total(src)`.
    pub fn matmul(&mut self, dst: VecId, src: VecId) {
        self.ensure_finalized();
        let op = self.op_handle.expect("finalized");
        let (d, s) = (self.bvec(dst), self.bvec(src));
        self.backend.lock().apply(op, d, s, false);
    }

    /// `dst ← A_totalᵀ(src)` (adjoint matrix-vector multiplication).
    pub fn matmul_transpose(&mut self, dst: VecId, src: VecId) {
        self.ensure_finalized();
        let op = self.op_handle.expect("finalized");
        let (d, s) = (self.bvec(dst), self.bvec(src));
        self.backend.lock().apply(op, d, s, true);
    }

    /// `dst ← P_total(src)`; panics without a preconditioner.
    pub fn psolve(&mut self, dst: VecId, src: VecId) {
        self.ensure_finalized();
        let op = self
            .prec_handle
            .expect("psolve requires add_preconditioner");
        let (d, s) = (self.bvec(dst), self.bvec(src));
        self.backend.lock().apply(op, d, s, false);
    }

    /// Block until all deferred work has completed (no-op on the
    /// simulation backend).
    pub fn fence(&mut self) {
        self.ensure_finalized();
        self.backend.lock().fence();
    }

    /// Mark the start of one solver iteration. Tracing backends defer
    /// the iteration's tasks so a repeated shape can replay its
    /// recorded dependence graph; see [`Backend::step_begin`].
    pub fn step_begin(&mut self) {
        self.ensure_finalized();
        self.backend.lock().step_begin();
    }

    /// Mark the end of one solver iteration and report how its tasks
    /// were executed; `values` (cleared first) receives the values of
    /// `reads` forced with the step, in order; see
    /// [`Backend::step_end`]. Panics if one of `reads` is a scalar of
    /// another planner. It allocates nothing once `values` and the
    /// planner's list of slots have grown to the step's reads, so the
    /// solve loop keeps `values` from step to step.
    pub fn step_end<'a>(
        &mut self,
        reads: impl IntoIterator<Item = &'a ScalarHandle<T>>,
        values: &mut Vec<T>,
    ) -> StepOutcome
    where
        T: 'a,
    {
        self.ensure_finalized();
        let mut srefs = std::mem::take(&mut self.reads);
        srefs.clear();
        srefs.extend(reads.into_iter().map(|h| h.sref_in(&self.backend)));
        values.clear();
        values.resize(srefs.len(), T::ZERO);
        let outcome = self.backend.lock().step_end(&srefs, values);
        self.reads = srefs;
        outcome
    }

    /// Number of solution components.
    pub fn num_sol_components(&self) -> usize {
        self.sol_comps.len()
    }

    /// The canonical partition of a solution component.
    pub fn sol_partition(&self, comp: usize) -> &Partition {
        &self.sol_comps[comp].partition
    }

    /// Remove and return the first task failure the backend absorbed
    /// since the last call; see [`Backend::take_fault`]. Solver
    /// drivers poll this at convergence-check cadence.
    pub fn take_fault(&mut self) -> Option<crate::backend::BackendFault> {
        self.backend.lock().take_fault()
    }

    /// Reach the concrete backend (for graph extraction or runtime
    /// statistics): `planner.with_backend(|b| { let sim = b.as_any()
    /// .downcast_mut::<SimBackend<f64>>()...; })`.
    pub fn with_backend<R>(&mut self, f: impl FnOnce(&mut dyn Backend<T>) -> R) -> R {
        f(&mut **self.backend.lock())
    }
}
