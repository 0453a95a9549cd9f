//! A value-computing reference [`Backend`]: every op runs at once,
//! serially, over whole vectors, with nothing fused, grouped, recorded
//! or replayed.
//!
//! * an elementwise op writes its per-element expression element by
//!   element;
//! * a dot is one partial per piece of each component — the piece's
//!   runs' [`vecops::dot`]s added in run order from `+0` — and the
//!   partials are added in piece order from `+0`, empty pieces
//!   included as `+0`;
//! * an apply zeroes the destination, then runs tile by tile through
//!   the tile kernels registration lowers, each group of tiles with
//!   one write subset starting from `+0` when the groups are disjoint.
//!
//! The execution backend is checked against it bit for bit: which
//! body computes what, over which lanes, into which partial slots, is
//! what it pins. Kernel bits are `kdr-sparse`'s property tests' job.

use std::sync::Arc;

use kdr_core::backend::{BVec, Handles, OpHandle, SRef, StepOp, VecOp};
use kdr_core::partitioning::lower_tiles;
use kdr_core::{Backend, CompSpec, OpSetSpec};
use kdr_index::IntervalSet;
use kdr_sparse::{vecops, Scalar, TileKernel};

/// One registered tile, as the execution backend keeps it.
struct Tile<T> {
    rhs_comp: usize,
    sol_comp: usize,
    out_subset: IntervalSet,
    in_union: IntervalSet,
    kernel: Arc<TileKernel<T>>,
}

impl<T> Tile<T> {
    /// `(written component, written subset, read component)`.
    fn direction(&self, transpose: bool) -> (usize, &IntervalSet, usize) {
        if transpose {
            (self.sol_comp, &self.in_union, self.rhs_comp)
        } else {
            (self.rhs_comp, &self.out_subset, self.sol_comp)
        }
    }

    /// The subset written in component `comp`, if the tile writes it.
    fn writes(&self, transpose: bool, comp: usize) -> Option<&IntervalSet> {
        let (c, w, _) = self.direction(transpose);
        (c == comp).then_some(w)
    }
}

/// The reference backend over `T`.
pub struct Reference<T> {
    handles: Handles,
    /// Each vector's components.
    vectors: Vec<Vec<Vec<T>>>,
    /// Each vector's components' pieces, empty ones included.
    pieces: Vec<Vec<Vec<IntervalSet>>>,
    scalars: Vec<T>,
    opsets: Vec<Vec<Tile<T>>>,
}

impl<T: Scalar> Reference<T> {
    pub fn new() -> Self {
        Reference {
            handles: Handles::default(),
            vectors: Vec::new(),
            pieces: Vec::new(),
            scalars: Vec::new(),
            opsets: Vec::new(),
        }
    }

    /// `Σ a·b`: per-piece partials, added in piece order.
    fn dot_value(&self, a: BVec, b: BVec) -> T {
        let mut sum = T::ZERO;
        for (c, pieces) in self.pieces[a].iter().enumerate() {
            let (x, y) = (&self.vectors[a][c], &self.vectors[b][c]);
            for piece in pieces {
                let mut partial = T::ZERO;
                for run in piece.runs() {
                    let (lo, hi) = (run.lo as usize, run.hi as usize);
                    partial += vecops::dot(&x[lo..hi], &y[lo..hi]);
                }
                sum += partial;
            }
        }
        sum
    }

    fn elementwise(&mut self, op: VecOp, dst: BVec, src: Option<BVec>, alpha: Option<SRef>) {
        let a = alpha.map_or(T::ZERO, |s| self.scalars[s]);
        for c in 0..self.vectors[dst].len() {
            let s = src.map(|s| self.vectors[s][c].clone());
            let d = &mut self.vectors[dst][c];
            for i in 0..d.len() {
                let s = s.as_ref().map(|s| s[i]);
                d[i] = match (op, s) {
                    (VecOp::Copy, Some(s)) => s,
                    (VecOp::SetZero, _) => T::ZERO,
                    (VecOp::Scal, _) => a * d[i],
                    (VecOp::Axpy, Some(s)) => d[i] + a * s,
                    (VecOp::Xpay, Some(s)) => s + a * d[i],
                    (op, None) => panic!("{op:?} without a source"),
                };
            }
        }
    }

    fn apply(&mut self, op: OpHandle, dst: BVec, src: BVec, transpose: bool) {
        assert_ne!(dst, src, "apply in place");
        let x = self.vectors[src].clone();
        let y = &mut self.vectors[dst];
        for comp in y.iter_mut() {
            comp.fill(T::ZERO);
        }
        let tiles = &self.opsets[op];
        for (ti, tile) in tiles.iter().enumerate() {
            let (dc, ws, sc) = tile.direction(transpose);
            // The first tile of its write subset starts its rows from
            // `+0` when the component's distinct write subsets are
            // disjoint.
            let group: Vec<&IntervalSet> =
                tiles.iter().filter_map(|t| t.writes(transpose, dc)).collect();
            let disjoint = group
                .iter()
                .all(|a| group.iter().all(|b| a == b || a.is_disjoint(b)));
            let first = !tiles[..ti]
                .iter()
                .filter_map(|t| t.writes(transpose, dc))
                .any(|w| w == ws);
            let (xs, mut ys) = (x[sc].as_slice(), y[dc].as_mut_slice());
            if first && disjoint && tile.kernel.apply_from_zero(&xs, &mut ys, transpose) {
                continue;
            }
            tile.kernel.apply(&xs, &mut ys, transpose);
        }
    }
}

impl<T: Scalar> Backend<T> for Reference<T> {
    fn alloc_vector(&mut self, comps: &[CompSpec]) -> BVec {
        self.vectors
            .push(comps.iter().map(|c| vec![T::ZERO; c.len as usize]).collect());
        self.pieces
            .push(comps.iter().map(|c| c.partition.pieces().to_vec()).collect());
        self.handles.add_vector(comps)
    }

    fn fill_component(&mut self, v: BVec, comp: usize, data: &[T]) {
        self.vectors[v][comp].copy_from_slice(data);
    }

    fn read_component(&mut self, v: BVec, comp: usize) -> Vec<T> {
        self.vectors[v][comp].clone()
    }

    fn register_operator(&mut self, spec: OpSetSpec<T>) -> OpHandle {
        let mut tiles = Vec::new();
        for comp in &spec.components {
            lower_tiles(comp.matrix.as_ref(), &comp.tiles, spec.kernel_choice, &mut |t, kernel, _| {
                if !kernel.is_empty() {
                    tiles.push(Tile {
                        rhs_comp: t.rhs_comp,
                        sol_comp: t.sol_comp,
                        out_subset: t.out_subset.clone(),
                        in_union: t.in_union.clone(),
                        kernel: Arc::new(kernel),
                    });
                }
            });
        }
        self.opsets.push(tiles);
        self.opsets.len() - 1
    }

    fn handles(&mut self) -> &mut Handles {
        &mut self.handles
    }

    fn emit(&mut self, op: StepOp, dots: &[(BVec, BVec, SRef)], value: Option<T>) {
        self.scalars.resize(self.handles.slots(), T::ZERO);
        match op {
            StepOp::Vector {
                op,
                dst,
                src,
                alpha,
            } => self.elementwise(op, dst, src, alpha),
            StepOp::Dots { .. } => {
                let sums: Vec<T> = dots.iter().map(|&(a, b, _)| self.dot_value(a, b)).collect();
                for (&(_, _, out), sum) in dots.iter().zip(sums) {
                    self.scalars[out] = sum;
                }
            }
            StepOp::Const { out } => self.scalars[out] = value.expect("a constant's value"),
            StepOp::Binop { op, a, b, out } => {
                self.scalars[out] = op.eval(self.scalars[a], self.scalars[b])
            }
            StepOp::Unop { op, a, out } => self.scalars[out] = op.eval(self.scalars[a]),
            StepOp::Apply {
                op,
                dst,
                src,
                transpose,
            } => self.apply(op, dst, src, transpose),
        }
    }

    fn scalar_get(&mut self, s: SRef) -> T {
        self.scalars[s]
    }

    fn fence(&mut self) {}

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
