//! The simulation backend: the same operation stream, priced.
//!
//! `SimBackend` is the second lowering of the [`StepOp`] stream the
//! `Backend` trait's provided methods produce (see [`crate::backend`]):
//! where the execution backend turns an op into tasks, this one turns
//! it into `kdr-machine` [`TaskGraph`] nodes carrying flop/byte costs
//! and processor placements, without touching any data. Its
//! [`Backend::emit`] is one `match` over `StepOp`. Vector pieces are
//! assigned owners by a block distribution over the machine's
//! processors; cross-node ghost reads become `Copy` nodes; inner
//! products become partial-compute nodes plus a latency-bound
//! collective. Dependences (including write-after-read) are tracked
//! per piece, so the discrete-event scheduler sees exactly the
//! dataflow a task-oriented runtime would — in particular, ghost copies
//! for the next matvec float freely and overlap with unrelated compute,
//! which is the effect the paper's §6 measures. In bulk-synchronous
//! mode the same lowering closes every op with a phase barrier.
//!
//! Scalars have no values here: a scalar slot of the shared arena maps
//! to the graph node that produces it, and `scalar_get` returns `1.0`
//! (documented placeholder) — simulated solver runs must use fixed
//! iteration counts, exactly like the paper's fixed 500-iteration
//! benchmark protocol.

use std::marker::PhantomData;

use kdr_machine::{MachineConfig, ProcId, SimNodeId, TaskGraph};
use kdr_sparse::Scalar;

use crate::backend::{BVec, Backend, CompSpec, Handles, OpHandle, OpSetSpec, SRef, StepOp, VecOp};

#[derive(Default, Clone)]
struct PieceState {
    last_writer: Option<SimNodeId>,
    readers: Vec<SimNodeId>,
}

struct SimComp {
    piece_lens: Vec<u64>,
    owners: Vec<ProcId>,
    state: Vec<PieceState>,
}

struct SimVec {
    comps: Vec<SimComp>,
}

struct SimTile {
    rhs_comp: usize,
    sol_comp: usize,
    range_color: usize,
    nnz: u64,
    out_len: u64,
    in_total: u64,
    in_by_color: Vec<(usize, u64)>,
}

struct SimOpSet {
    tiles: Vec<SimTile>,
}

impl VecOp {
    /// `(flops, vector-stream accesses)` per element: the price of
    /// every elementwise op.
    fn cost(self) -> (f64, f64) {
        match self {
            VecOp::Copy => (0.0, 2.0),
            VecOp::SetZero => (0.0, 1.0),
            VecOp::Scal => (1.0, 2.0),
            VecOp::Axpy | VecOp::Xpay => (2.0, 3.0),
        }
    }
}

/// Graph-building backend for large-scale simulated experiments.
pub struct SimBackend<T> {
    machine: MachineConfig,
    graph: TaskGraph,
    vectors: Vec<SimVec>,
    handles: Handles,
    /// The node producing each slot's current scalar (`None` for a
    /// constant), by slot of the `handles` arena.
    scalars: Vec<Option<SimNodeId>>,
    opsets: Vec<SimOpSet>,
    /// Stored bytes per matrix entry beyond the value itself (CSR
    /// column index + amortized rowptr ≈ 4–8 B).
    index_bytes: f64,
    /// Graph sizes recorded at [`SimBackend::mark`] calls (iteration
    /// boundaries).
    marks: Vec<usize>,
    /// Bulk-synchronous mode: a global barrier closes every planner
    /// operation (and separates the halo-exchange and compute phases
    /// of `apply`), modeling MPI-style libraries. The default (false)
    /// is the task-oriented model: only dataflow orders work.
    bulk_sync: bool,
    /// Barrier closing the previous phase (bulk-sync mode).
    phase_barrier: Option<SimNodeId>,
    /// Nodes emitted during the current phase (bulk-sync mode).
    phase_nodes: Vec<SimNodeId>,
    _t: PhantomData<T>,
}

impl<T: Scalar> SimBackend<T> {
    /// A simulation backend lowering onto `machine`'s cost model.
    pub fn new(machine: MachineConfig) -> Self {
        SimBackend {
            machine,
            graph: TaskGraph::new(),
            vectors: Vec::new(),
            handles: Handles::default(),
            scalars: Vec::new(),
            opsets: Vec::new(),
            index_bytes: 8.0,
            _t: PhantomData,
            marks: Vec::new(),
            bulk_sync: false,
            phase_barrier: None,
            phase_nodes: Vec::new(),
        }
    }

    /// Override metadata bytes per stored entry (e.g. 4 for 32-bit
    /// column indices).
    pub fn with_index_bytes(mut self, b: f64) -> Self {
        self.index_bytes = b;
        self
    }

    /// Enable the bulk-synchronous (MPI-library-like) execution
    /// model: see the `bulk_sync` field.
    pub fn bulk_synchronous(mut self) -> Self {
        self.bulk_sync = true;
        self
    }

    /// Register a freshly emitted node with the current phase and
    /// return it.
    fn phase_node(&mut self, node: SimNodeId) -> SimNodeId {
        if self.bulk_sync {
            self.phase_nodes.push(node);
        }
        node
    }

    /// Close the current phase with a global barrier (bulk-sync mode
    /// only).
    fn close_phase(&mut self) {
        if !self.bulk_sync {
            return;
        }
        let nodes = std::mem::take(&mut self.phase_nodes);
        if nodes.is_empty() {
            return;
        }
        // An MPI phase boundary is a real collective: every rank
        // pays ~log(P) network latency, unlike the free dataflow
        // joins of the task-oriented model.
        let bar = self
            .graph
            .collective(self.machine.nodes, 0.0, "phase_barrier", nodes);
        self.phase_barrier = Some(bar);
    }

    /// Dependences every node must include in bulk-sync mode.
    fn phase_deps(&self) -> Vec<SimNodeId> {
        self.phase_barrier.into_iter().collect()
    }

    fn elem_bytes(&self) -> f64 {
        std::mem::size_of::<T>() as f64
    }

    /// Record an iteration boundary (current graph length).
    pub fn mark(&mut self) {
        self.marks.push(self.graph.len());
    }

    /// Recorded iteration boundaries.
    pub fn marks(&self) -> &[usize] {
        &self.marks
    }

    /// The machine this backend prices against.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Take the graph out of a backend reached through `dyn Backend`
    /// (see [`crate::Planner::with_backend`]). The backend must not
    /// be used afterwards: piece dependence state still refers to the
    /// extracted graph.
    pub fn take_graph(&mut self) -> (TaskGraph, Vec<usize>) {
        (
            std::mem::take(&mut self.graph),
            std::mem::take(&mut self.marks),
        )
    }

    /// Borrow the graph built so far.
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// Owner assignment: pieces are laid out consecutively per
    /// component and block-distributed over all processors.
    fn assign_owners(&self, comps: &[CompSpec]) -> Vec<Vec<ProcId>> {
        let total_pieces: usize = comps.iter().map(|c| c.partition.num_colors()).sum();
        let procs = self.machine.total_procs();
        let ppn = self.machine.procs_per_node;
        let mut out = Vec::with_capacity(comps.len());
        let mut linear = 0usize;
        for c in comps {
            let mut owners = Vec::with_capacity(c.partition.num_colors());
            for _ in 0..c.partition.num_colors() {
                let p = (linear * procs) / total_pieces.max(1);
                owners.push(ProcId {
                    node: p / ppn,
                    lane: p % ppn,
                });
                linear += 1;
            }
            out.push(owners);
        }
        out
    }

    /// Dependences for writing a piece: after its last writer and all
    /// readers since (WAW + WAR); resets reader list.
    fn write_deps(state: &mut PieceState) -> Vec<SimNodeId> {
        let mut deps: Vec<SimNodeId> = state.readers.drain(..).collect();
        if let Some(w) = state.last_writer {
            deps.push(w);
        }
        deps
    }

    /// Dependences for reading a piece (RAW).
    fn read_deps(state: &PieceState) -> Vec<SimNodeId> {
        state.last_writer.into_iter().collect()
    }

    /// `(component, colour, length, owner)` of every non-empty piece
    /// of `v`, in component-then-colour order.
    fn pieces(&self, v: BVec) -> Vec<(usize, usize, u64, ProcId)> {
        let mut out = Vec::new();
        for (ci, c) in self.vectors[v].comps.iter().enumerate() {
            for (color, (&len, &owner)) in c.piece_lens.iter().zip(&c.owners).enumerate() {
                if len > 0 {
                    out.push((ci, color, len, owner));
                }
            }
        }
        out
    }

    /// Price one elementwise op over `dst` (optionally reading `src`);
    /// `traffic` counts vector-stream accesses per element.
    fn elementwise(
        &mut self,
        label: &'static str,
        dst: BVec,
        src: Option<BVec>,
        alpha: Option<SRef>,
        flops_per_elem: f64,
        traffic: f64,
    ) {
        let eb = self.elem_bytes();
        let alpha_dep: Vec<SimNodeId> = alpha.and_then(|a| self.scalars[a]).into_iter().collect();
        if let Some(s) = src {
            // Elementwise ops pair pieces positionally; mixing vectors
            // with different piece structures would corrupt the
            // dependence bookkeeping (the provided op methods already
            // checked the component lengths).
            let comps = self.vectors[s].comps.iter().zip(&self.vectors[dst].comps);
            for (ci, (sc, dc)) in comps.enumerate() {
                assert_eq!(
                    sc.piece_lens, dc.piece_lens,
                    "elementwise op across mismatched partitions (component {ci})"
                );
            }
        }
        for (ci, color, len, owner) in self.pieces(dst) {
            let mut deps = alpha_dep.clone();
            deps.extend(self.phase_deps());
            if let Some(s) = src {
                deps.extend(Self::read_deps(&self.vectors[s].comps[ci].state[color]));
            }
            deps.extend(Self::write_deps(
                &mut self.vectors[dst].comps[ci].state[color],
            ));
            deps.sort_unstable();
            deps.dedup();
            let node = self.graph.compute(
                owner,
                flops_per_elem * len as f64,
                traffic * eb * len as f64,
                label,
                deps,
            );
            self.phase_node(node);
            self.vectors[dst].comps[ci].state[color].last_writer = Some(node);
            if let Some(s) = src {
                self.vectors[s].comps[ci].state[color].readers.push(node);
            }
        }
        self.close_phase();
    }

    /// A `dot_many`: one partial node per non-empty piece of every
    /// pair, each result slot produced by the batch's collective.
    fn price_dots(&mut self, dots: &[(BVec, BVec, SRef)]) {
        // All pairs' partial nodes feed ONE all-reduce collective —
        // the fused batch costs a single communication stage, which
        // is exactly what the fusion buys on real machines.
        let eb = self.elem_bytes();
        let mut partials = Vec::new();
        for &(a, b, _) in dots {
            for (ci, color, len, owner) in self.pieces(a) {
                let mut deps = Self::read_deps(&self.vectors[a].comps[ci].state[color]);
                deps.extend(Self::read_deps(&self.vectors[b].comps[ci].state[color]));
                deps.extend(self.phase_deps());
                deps.sort_unstable();
                deps.dedup();
                let node = self.graph.compute(
                    owner,
                    2.0 * len as f64,
                    2.0 * eb * len as f64,
                    "dot_partial",
                    deps,
                );
                self.vectors[a].comps[ci].state[color].readers.push(node);
                self.vectors[b].comps[ci].state[color].readers.push(node);
                partials.push(node);
            }
        }
        // The payload grows with the pair count, the latency is paid
        // once.
        let col = self.graph.collective(
            self.machine.nodes,
            eb * dots.len() as f64,
            "dot_allreduce",
            partials,
        );
        // In bulk-sync mode the blocking all-reduce *is* the phase
        // boundary: everything after the dot waits for it.
        if self.bulk_sync {
            self.phase_nodes.clear();
            self.phase_barrier = Some(col);
        }
        for &(_, _, s) in dots {
            self.scalars[s] = Some(col);
        }
    }

    /// `dst ← A(src)`: ghost copies and one node per tile, the fused
    /// zero-fill priced into each piece's first tile; `Aᵀ` computes
    /// at the rhs-side owner and scatters partial results back.
    fn price_apply(&mut self, op: OpHandle, dst: BVec, src: BVec, transpose: bool) {
        let eb = self.elem_bytes();
        // Out of the way of the graph and piece-state updates below.
        let tiles = std::mem::take(&mut self.opsets[op].tiles);
        if !transpose {
            // Zero-fill fusion: the first tile writing a piece carries
            // the β = 0 semantics (the standard fused SpMV kernel), so
            // no separate zero pass exists and its memory traffic is
            // one write of y instead of zero-write + read + write.
            // Pieces no tile touches still need an explicit zero (the
            // paper's eq. 8 empty sum).
            let mut first_write: std::collections::HashSet<(usize, usize)> =
                std::collections::HashSet::new();
            // Pass 1: ghost copies for every tile (the halo-exchange
            // phase of a bulk-synchronous library; free-floating
            // dataflow in the task-oriented model).
            let mut tile_deps: Vec<Vec<SimNodeId>> = Vec::with_capacity(tiles.len());
            for t in &tiles {
                let owner = self.vectors[dst].comps[t.rhs_comp].owners[t.range_color];
                let mut deps = self.phase_deps();
                for &(c, len) in &t.in_by_color {
                    let src_owner = self.vectors[src].comps[t.sol_comp].owners[c];
                    let mut rdeps = Self::read_deps(&self.vectors[src].comps[t.sol_comp].state[c]);
                    rdeps.extend(self.phase_deps());
                    if src_owner.node != owner.node {
                        let cp = self.graph.copy(
                            src_owner.node,
                            owner.node,
                            eb * len as f64,
                            "ghost_copy",
                            rdeps,
                        );
                        self.phase_node(cp);
                        self.vectors[src].comps[t.sol_comp].state[c]
                            .readers
                            .push(cp);
                        deps.push(cp);
                    } else {
                        deps.extend(rdeps);
                    }
                }
                tile_deps.push(deps);
            }
            self.close_phase();
            // Pass 2: tile computes.
            for (t, mut deps) in tiles.iter().zip(tile_deps) {
                let (rhs_comp, range_color) = (t.rhs_comp, t.range_color);
                let owner = self.vectors[dst].comps[rhs_comp].owners[range_color];
                deps.extend(self.phase_deps());
                deps.extend(Self::write_deps(
                    &mut self.vectors[dst].comps[rhs_comp].state[range_color],
                ));
                deps.sort_unstable();
                deps.dedup();
                // Fused first write (β = 0) avoids reading y back.
                let y_accesses = if first_write.insert((rhs_comp, range_color)) {
                    1
                } else {
                    2
                };
                let node = self.graph.compute(
                    owner,
                    2.0 * t.nnz as f64,
                    t.nnz as f64 * (eb + self.index_bytes)
                        + eb * (t.in_total + y_accesses * t.out_len) as f64,
                    "spmv_tile",
                    deps,
                );
                self.phase_node(node);
                self.vectors[dst].comps[rhs_comp].state[range_color].last_writer = Some(node);
                let sol = &mut self.vectors[src].comps[t.sol_comp];
                for &(c, _) in &t.in_by_color {
                    if sol.owners[c].node == owner.node {
                        sol.state[c].readers.push(node);
                    }
                }
            }
            // Pieces untouched by any tile are an empty sum: zero them
            // explicitly.
            for (ci, color, len, owner) in self.pieces(dst) {
                if first_write.contains(&(ci, color)) {
                    continue;
                }
                let mut deps = self.phase_deps();
                deps.extend(Self::write_deps(
                    &mut self.vectors[dst].comps[ci].state[color],
                ));
                let node = self
                    .graph
                    .compute(owner, 0.0, eb * len as f64, "apply_zero", deps);
                self.phase_node(node);
                self.vectors[dst].comps[ci].state[color].last_writer = Some(node);
            }
        } else {
            // Adjoint path: scatter-accumulation reads the destination,
            // so an explicit zero pass is required.
            self.elementwise("apply_zero", dst, None, None, 0.0, 1.0);
            for t in &tiles {
                // Adjoint: the tile computes at the matrix owner's
                // node (co-located with the rhs-side piece), then
                // scatters partial results back to each sol piece.
                let rhs_piece = &self.vectors[src].comps[t.rhs_comp];
                let owner = rhs_piece.owners[t.range_color];
                let mut deps = Self::read_deps(&rhs_piece.state[t.range_color]);
                deps.extend(self.phase_deps());
                deps.sort_unstable();
                deps.dedup();
                let compute = self.graph.compute(
                    owner,
                    2.0 * t.nnz as f64,
                    t.nnz as f64 * (eb + self.index_bytes) + eb * (t.in_total + t.out_len) as f64,
                    "spmv_t_tile",
                    deps,
                );
                self.vectors[src].comps[t.rhs_comp].state[t.range_color]
                    .readers
                    .push(compute);
                for &(c, len) in &t.in_by_color {
                    let dst_owner = self.vectors[dst].comps[t.sol_comp].owners[c];
                    let dep = if dst_owner.node != owner.node {
                        self.graph.copy(
                            owner.node,
                            dst_owner.node,
                            eb * len as f64,
                            "scatter_copy",
                            vec![compute],
                        )
                    } else {
                        compute
                    };
                    let mut wdeps =
                        Self::write_deps(&mut self.vectors[dst].comps[t.sol_comp].state[c]);
                    wdeps.push(dep);
                    wdeps.sort_unstable();
                    wdeps.dedup();
                    let accum = self.graph.compute(
                        dst_owner,
                        len as f64,
                        3.0 * eb * len as f64,
                        "scatter_accum",
                        wdeps,
                    );
                    self.phase_node(accum);
                    self.vectors[dst].comps[t.sol_comp].state[c].last_writer = Some(accum);
                }
            }
        }
        self.close_phase();
        self.opsets[op].tiles = tiles;
    }
}

impl<T: Scalar> Backend<T> for SimBackend<T> {
    fn alloc_vector(&mut self, comps: &[CompSpec]) -> BVec {
        let owners = self.assign_owners(comps);
        let v = SimVec {
            comps: comps
                .iter()
                .zip(owners)
                .map(|(c, owners)| SimComp {
                    piece_lens: (0..c.partition.num_colors())
                        .map(|col| c.partition.piece(col).cardinality())
                        .collect(),
                    state: vec![PieceState::default(); c.partition.num_colors()],
                    owners,
                })
                .collect(),
        };
        self.vectors.push(v);
        self.handles.add_vector(comps)
    }

    fn fill_component(&mut self, _v: BVec, _comp: usize, _data: &[T]) {
        // Simulated vectors carry no data.
    }

    fn read_component(&mut self, _v: BVec, _comp: usize) -> Vec<T> {
        panic!("SimBackend has no data to read; use ExecBackend for numerics");
    }

    fn register_operator(&mut self, spec: OpSetSpec<T>) -> OpHandle {
        let tiles = spec
            .components
            .iter()
            .flat_map(|c| {
                c.tiles.iter().map(|t| SimTile {
                    rhs_comp: t.rhs_comp,
                    sol_comp: t.sol_comp,
                    range_color: t.range_color,
                    nnz: t.nnz,
                    out_len: t.out_subset.cardinality(),
                    in_total: t.in_union.cardinality(),
                    in_by_color: t
                        .in_by_color
                        .iter()
                        .map(|(c, s)| (*c, s.cardinality()))
                        .collect(),
                })
            })
            .collect();
        self.opsets.push(SimOpSet { tiles });
        self.opsets.len() - 1
    }

    fn handles(&mut self) -> &mut Handles {
        &mut self.handles
    }

    /// Price one op: the simulator's whole lowering.
    fn emit(&mut self, op: StepOp, dots: &[(BVec, BVec, SRef)], _value: Option<T>) {
        self.scalars.resize(self.handles.slots(), None);
        match op {
            StepOp::Vector {
                op,
                dst,
                src,
                alpha,
            } => {
                let (flops, traffic) = op.cost();
                self.elementwise(op.name(), dst, src, alpha, flops, traffic);
            }
            StepOp::Dots { .. } => self.price_dots(dots),
            StepOp::Const { out } => self.scalars[out] = None,
            StepOp::Binop { a, b, out, .. } => {
                let deps: Vec<SimNodeId> = [self.scalars[a], self.scalars[b]]
                    .into_iter()
                    .flatten()
                    .collect();
                self.scalars[out] = if deps.is_empty() {
                    None
                } else {
                    Some(self.graph.barrier(deps, "scalar_op"))
                };
            }
            StepOp::Unop { a, out, .. } => self.scalars[out] = self.scalars[a],
            StepOp::Apply {
                op,
                dst,
                src,
                transpose,
            } => self.price_apply(op, dst, src, transpose),
        }
    }

    fn scalar_get(&mut self, _s: SRef) -> T {
        // Placeholder: simulated graphs are value-independent. Run
        // simulated solves with fixed iteration counts.
        T::ONE
    }

    fn fence(&mut self) {
        // Graph construction is synchronous; nothing to wait for.
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{OpComponentSpec, StepOutcome};
    use crate::partitioning::compute_tiles;
    use kdr_index::Partition;
    use kdr_machine::simulate;
    use kdr_sparse::{SparseMatrix, Stencil, StencilOperator};
    use std::sync::Arc;

    fn machine() -> MachineConfig {
        MachineConfig::lassen(4).legion_profile()
    }

    fn build_spmv_graph(pieces: usize) -> (TaskGraph, usize) {
        let s = Stencil::lap2d(1 << 11, 1 << 11);
        let op: Arc<dyn SparseMatrix<f64>> = Arc::new(StencilOperator::<f64>::new(s));
        let n = s.unknowns();
        let part = Partition::equal_blocks(n, pieces);
        let tiles = compute_tiles(op.as_ref(), &part, &part, 0, 0);
        let ntiles = tiles.len();
        let mut b = SimBackend::<f64>::new(machine());
        let h = b.register_operator(OpSetSpec {
            components: vec![OpComponentSpec {
                matrix: op,
                sol_comp: 0,
                rhs_comp: 0,
                tiles,
            }],
            kernel_choice: kdr_sparse::KernelChoice::Auto,
        });
        let cs = CompSpec {
            len: n,
            partition: part,
        };
        let x = b.alloc_vector(std::slice::from_ref(&cs));
        let y = b.alloc_vector(std::slice::from_ref(&cs));
        b.apply(h, y, x, false);
        let (g, _) = b.take_graph();
        (g, ntiles)
    }

    #[test]
    fn spmv_graph_shape() {
        let (g, ntiles) = build_spmv_graph(16);
        assert_eq!(ntiles, 16);
        // 16 zero nodes + 16 tiles + ghost copies (interior pieces
        // have 2 neighbors; same-node neighbors don't copy).
        let copies = g.nodes().iter().filter(|n| n.label == "ghost_copy").count();
        assert!(copies > 0 && copies < 32, "copies = {copies}");
        let r = simulate(&g, &machine(), None);
        assert!(r.makespan > 0.0);
    }

    #[test]
    fn more_pieces_scale_down_time() {
        let (g1, _) = build_spmv_graph(1);
        let (g16, _) = build_spmv_graph(16);
        let m = machine();
        let t1 = simulate(&g1, &m, None).makespan;
        let t16 = simulate(&g16, &m, None).makespan;
        // 16 pieces over 16 GPUs: bounded below by per-node dispatch
        // serialization, but still far faster than one processor.
        assert!(
            t16 < t1 / 3.0,
            "16-way partitioned SpMV must be much faster: {t1} vs {t16}"
        );
    }

    #[test]
    fn a_step_end_with_reads_is_the_step_end_then_get_many() {
        // The values and the priced graph, forcing two dots with the
        // step or after it.
        let run = |with_step: bool| {
            let mut b = SimBackend::<f64>::new(machine());
            let cs = CompSpec::blocks(1 << 12, 4);
            let x = b.alloc_vector(std::slice::from_ref(&cs));
            let y = b.alloc_vector(std::slice::from_ref(&cs));
            b.step_begin();
            let reads = [b.dot(x, y), b.dot(x, x)];
            let (outcome, values) = if with_step {
                let mut values = vec![0.0; 2];
                (b.step_end(&reads, &mut values), values)
            } else {
                (b.step_end(&[], &mut []), b.scalar_get_many(&reads))
            };
            let labels: Vec<&str> = b.graph().nodes().iter().map(|n| n.label).collect();
            (outcome, values, labels)
        };
        let forced = run(true);
        assert_eq!(forced, run(false));
        assert_eq!(
            (forced.0, forced.1),
            (StepOutcome::Analyzed, vec![1.0, 1.0])
        );
    }

    #[test]
    fn dot_emits_collective() {
        let mut b = SimBackend::<f64>::new(machine());
        let cs = CompSpec::blocks(1 << 16, 16);
        let x = b.alloc_vector(std::slice::from_ref(&cs));
        let y = b.alloc_vector(std::slice::from_ref(&cs));
        let d = b.dot(x, y);
        assert!(b.scalars[d].is_some());
        let g = b.graph();
        assert_eq!(
            g.nodes()
                .iter()
                .filter(|n| n.label == "dot_allreduce")
                .count(),
            1
        );
        assert_eq!(
            g.nodes()
                .iter()
                .filter(|n| n.label == "dot_partial")
                .count(),
            16
        );
    }

    #[test]
    fn war_dependences_tracked() {
        // axpy reading x, then a write to x, must be ordered.
        let mut b = SimBackend::<f64>::new(machine());
        let cs = CompSpec::blocks(1024, 2);
        let x = b.alloc_vector(std::slice::from_ref(&cs));
        let y = b.alloc_vector(std::slice::from_ref(&cs));
        let one = b.scalar_const(1.0);
        b.axpy(y, one, x); // reads x
        b.scal(x, one); // writes x -> must depend on the axpy reads
        let g = b.graph();
        let scal_nodes: Vec<_> = g.nodes().iter().filter(|n| n.label == "scal").collect();
        assert_eq!(scal_nodes.len(), 2);
        for n in scal_nodes {
            assert!(!n.deps.is_empty(), "WAR edge missing");
        }
    }

    #[test]
    fn bulk_sync_inserts_phase_barriers() {
        let build = |bulk: bool| {
            let mut b = SimBackend::<f64>::new(machine());
            if bulk {
                b = b.bulk_synchronous();
            }
            let cs = CompSpec::blocks(1 << 14, 16);
            let x = b.alloc_vector(std::slice::from_ref(&cs));
            let y = b.alloc_vector(std::slice::from_ref(&cs));
            let one = b.scalar_const(1.0);
            b.axpy(y, one, x);
            b.scal(x, one);
            let g = b.graph().clone();
            g
        };
        let async_g = build(false);
        let sync_g = build(true);
        assert_eq!(
            async_g
                .nodes()
                .iter()
                .filter(|n| n.label == "phase_barrier")
                .count(),
            0
        );
        assert!(
            sync_g
                .nodes()
                .iter()
                .filter(|n| n.label == "phase_barrier")
                .count()
                >= 2
        );
        // In bulk-sync mode the scal nodes must wait for the phase
        // barrier even on pieces the axpy never touched... (all
        // pieces are touched here; the point is the serialization).
        let m = machine();
        let t_async = simulate(&async_g, &m, None).makespan;
        let t_sync = simulate(&sync_g, &m, None).makespan;
        assert!(t_sync >= t_async);
    }

    /// The one cost table behind every elementwise op, in flops and
    /// vector accesses per element, on one non-empty piece.
    #[test]
    fn elementwise_cost_table() {
        use kdr_machine::SimWork;
        let n = 1000u64;
        let cases = [
            (VecOp::Copy, "copy", 0.0, 2.0),
            (VecOp::Scal, "scal", 1.0, 2.0),
            (VecOp::SetZero, "set_zero", 0.0, 1.0),
            (VecOp::Axpy, "axpy", 2.0, 3.0),
            (VecOp::Xpay, "xpay", 2.0, 3.0),
        ];
        for (op, label, flops_per_elem, accesses) in cases {
            let mut b = SimBackend::<f64>::new(machine());
            let cs = CompSpec::blocks(n, 1);
            let x = b.alloc_vector(std::slice::from_ref(&cs));
            let y = b.alloc_vector(std::slice::from_ref(&cs));
            let alpha = b.scalar_const(2.0);
            match op {
                VecOp::Copy => b.copy(y, x),
                VecOp::SetZero => b.set_zero(y),
                VecOp::Scal => b.scal(y, alpha),
                VecOp::Axpy => b.axpy(y, alpha, x),
                VecOp::Xpay => b.xpay(y, alpha, x),
            }
            let nodes = b.graph().nodes();
            assert_eq!(nodes.len(), 1, "{label}");
            assert_eq!(nodes[0].label, label);
            let SimWork::Compute { flops, bytes, .. } = nodes[0].work else {
                panic!("{label} is not a compute node");
            };
            assert_eq!(flops, flops_per_elem * n as f64, "{label} flops");
            assert_eq!(bytes, accesses * 8.0 * n as f64, "{label} bytes");
        }
    }

    #[test]
    fn scalar_get_returns_placeholder() {
        let mut b = SimBackend::<f64>::new(machine());
        let s = b.scalar_const(123.0);
        assert_eq!(b.scalar_get(s), 1.0);
    }
}
