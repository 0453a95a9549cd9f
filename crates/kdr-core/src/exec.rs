//! The execution backend: real data, real threads.
//!
//! Vectors become `kdr-runtime` buffers (one per component); every
//! planner operation is an index launch over the canonical partition's
//! pieces, lowered to tasks whose subsets are declared so that the
//! runtime's dependence analysis extracts all available parallelism:
//! an operator apply to one task per registered tile, a vector
//! operation or a dot's partials to one task per worker *lane* (below).
//! Operator tiles are *lowered* once at registration
//! into format-specialized kernels ([`crate::partitioning::lower_tiles`]):
//! per-tile structure analysis picks banded/DIA, padded-lane ELL,
//! register-blocked BCSR, or the CSR fallback, rows stored by length (see
//! [`kdr_sparse::tile`]), overridable per opset through
//! [`OpSetSpec::kernel_choice`]. A [`kdr_sparse::StencilOperator`]
//! lowers its own tiles and is not enumerated at all: each is the
//! banded layout with every diagonal a constant, built from the grid's
//! geometry in time linear in the tile's grid lines and run by the
//! same banded kernel ([`kdr_sparse::matfree`]). Structurally empty
//! tiles are dropped at registration — they launch no tasks, and the
//! zero-fill plan covers their output rows.
//!
//! Vector tasks (`copy`, `set_zero`, `scal`, `axpy`, `xpay`,
//! `dot_partial`, the zero-fills of `apply`) run one
//! [`kdr_sparse::vecops`] slice kernel per contiguous run of what they
//! declare. The elementwise kernels write the bits of their
//! per-element expression, however the runs are cut; a dot partial is
//! one piece's, reduced in `vecops::dot`'s fixed eight-accumulator
//! order by whichever worker runs it, and the partials are added in
//! piece order, so no result depends on the worker count, on
//! stealing, or on whether the step was replayed. An operation whose
//! source is its destination declares the vector once and updates it
//! in place — a body never holds a shared and a mutable slice of the
//! same elements.
//!
//! Task placement is the runtime's one rule, color `c` on worker
//! `c % W`: every piece carries one color (`piece_color`), shared by
//! the tile tasks writing it and the vector tasks covering it, so a
//! tile's kernel payload and its vector piece stay hot in a single
//! worker's cache across traced iterations.
//!
//! ## Lanes
//!
//! A *lane* is the set of a component's non-empty pieces whose colors
//! have the same home, `piece_color(comp, color) % W` on a runtime of
//! `W` workers: the pieces whose tasks the runtime would queue on one
//! worker anyway. A vector operation is one task per lane, declaring
//! the union of its pieces (its *footprint*, built once per vector by
//! `alloc_vector` and shared by pointer) and running the kernel over
//! the footprint's runs; a dot's partials are one `dot_partial` task
//! per lane, writing one slot per piece, each the piece's runs'
//! `vecops::dot`s added in run order from `+0` — exactly the per-piece
//! partial. So the `dot_reduce` reads the same partials on any `W`,
//! and every residual history keeps its bits. With `W` at least the
//! piece count every lane is one piece and the tasks are the per-piece
//! ones; on one worker a component is one lane, and a replayed
//! 16-piece CG step runs 24 bodies — 16 tile tasks, the `p·q` partial
//! task, an `axpy+dot_partial` and an `axpy+xpay` (both below), 5
//! scalar tasks — where one task per piece ran 101. Tiles stay one
//! task each: each is its own kernel payload.
//!
//! **Chains four abreast.** Each run of each member piece is one dot
//! *chain*; `Lane::of` lists a lane's chains once, grouped by the
//! footprint run that holds them, in element order. A partial body
//! takes a footprint run's chains four at a time through the
//! four-chain kernels (`vecops::dot4`, `vecops::axpy_dot4`), which
//! sweep the four chains' common blocks in lockstep, each chain in
//! lanes of its own, so four independent `mul_add` chains share one
//! loop instead of one latency-bound chain at a time; the rest go one
//! by one. Each chain's sum is the single-chain kernel's bits, and a
//! piece's slot starts at `+0` and takes its chains' sums in run
//! order, so the partials do not move. The updated vector's slices
//! come from one `range_mut` per footprint run, split chain by chain.
//! A lane of one chain runs the same body.
//!
//! An `axpy` and a one-pair `dot_many` recorded right after it that
//! reads the updated vector — CG's `r −= αq` and `r·r` — lower to one
//! `axpy+dot_partial` task per lane when the pair's first operand has
//! the updated vector's lanes. Its body runs `vecops::axpy_dot` per
//! run, which updates a block of eight and adds it to `dot`'s lanes
//! before the next, so the dot's latency-bound `mul_add` chain runs
//! under the update's loads and stores and the vector is not read
//! back. The update writes `axpy`'s bits and the partials are `dot`'s
//! of the updated runs, so nothing moves a bit; the reference backend
//! in `tests/reference/`, which runs every op alone, is what that is
//! checked against. Any other pair or batch lowers after the `axpy`,
//! as its own tasks.
//!
//! An `axpy(x, α, p)` whose record later holds an `xpay(p, β, r)` is
//! *deferred* into it — CG's and PCG's `x += αp` and `p = r + βp` —
//! when no op in between reads or writes `x`, writes `p`, or writes
//! `α`'s slot (a slot released and taken again by a later constant,
//! scalar op or dot result counts as written), `r` is neither `x` nor
//! `p`, and `x`, `p` and `r` have the same lanes. The pair lowers, at
//! the `xpay`, to one `axpy+xpay` task per lane running
//! `vecops::axpy_xpay`, which reads `p` once and writes `x` and `p`:
//! five vector streams where the two tasks ran six. The `axpy` reads
//! the `p` and `α` it would have read at its own place, and nothing in
//! between sees `x`, so every bit is kept; the solver records its ops
//! in the order it always did.
//!
//! ## Step programs
//!
//! Every task-generating backend call — `copy` … `xpay`, `dot_many`,
//! the scalar operations, `apply` — reaches this backend as a
//! [`StepOp`] (an opcode and the handles it was called with), built by
//! the trait's provided methods in [`crate::backend`], which also take
//! its result slots from the shared [`Handles`] arena. This backend's
//! [`Backend::emit`] only *records* the op, and one function,
//! `ExecBackend::lower`, *lowers* records into tasks. A record closes
//! at the next call that is not an op: [`Backend::step_begin`] and
//! [`Backend::step_end`], a forcing read (`scalar_get*`,
//! `read_component`, `fill_component`), `fence`, `register_operator`,
//! `take_fault`, `as_any` — the one way from a planner to the runtime,
//! so an application's tasks come after the ops recorded before them
//! — and the backend's drop. A step's ops are one record (nine
//! entries for a CG step, whatever the piece count); so are the ops
//! between two such calls outside any step, like a solve's set-up. A
//! closed record is looked up in a cache of *step programs*:
//!
//! * a **hit** hands the program to the runtime
//!   ([`Runtime::run_program`]), which schedules the step's compiled
//!   graph with the task bodies and requirement lists the program
//!   already owns. Nothing is lowered, no task is built, no signature
//!   is computed; only the record's `scalar_const` values, which are
//!   *parameters* of a program and not part of what it is looked up
//!   by, are stored where its `scalar_set` bodies read them;
//! * a **miss** lowers the record, compiles the tasks
//!   ([`Runtime::compile_program`]: dependence analysis on an analyzer
//!   of the program's own, then the step graph) and runs the program
//!   the same way — the step's first run is a program run too — and,
//!   if the cache has room and the run did not fail, keeps it.
//!
//! Either way the caller's reads come along — what `step_end` forces,
//! the slots of a `scalar_get` — and the runtime submits the step and
//! waits for their writers in one call, so the waiting thread runs the
//! step. A forcing read inside a step ends the step's record there;
//! the rest of the step is a record of its own. A run refused because
//! a task failure is pending takes the failure into this backend's
//! fault slot and goes in again. So every step is
//! [`StepOutcome::Captured`] or [`StepOutcome::Replayed`]; what a run
//! is checked against bit for bit is the reference backend in
//! `tests/reference/`, which runs each op alone, serially.
//!
//! **Why the record is a sound key.** The tasks of a step are a
//! function of its record, of what each call's lowering reads from the
//! backend — the pieces and buffers of the vectors named, the scalar
//! slots named, the tiles and apply plans of the operator named — and
//! of the partials buffer each `dot_many` writes. The first are
//! reached through the handles in the record, and none is ever
//! *replaced* under a handle without ending the cache's **epoch** —
//! dropping every program (`ExecBackend::new_epoch`, called by
//! `register_operator` alone). The partials buffers are the program's
//! own: a lowering makes one per `dot_many`, and the program's tasks
//! hold it and write it on every run. Equal
//! records within an epoch, lowered against the same partials,
//! therefore lower to equal task lists, which is the signature
//! equality the runtime's replay requires. Debug builds check exactly
//! that on every hit: the record is lowered again against the cached
//! step's partials, and its [`kdr_runtime::ShapeSig`] must equal the
//! captured step's.
//!
//! A compiled step (see [`kdr_runtime::trace`]) fuses the step's
//! tasks per home worker: the colours this backend stamps for
//! affinity — one per `(component, piece)`, shared by the tile task
//! writing a piece and the lane task covering it — place a piece's
//! tasks on worker `colour % W`, and the runtime merges the tasks of
//! one home. On one worker every task, the colourless scalar ones
//! included, has that worker for its home, so a replayed 16-piece CG
//! step is one scheduled node for its 24 task bodies. On two, the
//! scalar tasks fuse into chains (a scalar task joins the most recent
//! scalar node when it waits on it), and the step is scheduled, per
//! home worker, as `[spmv × 8 + dot_partial]`, `[axpy+dot_partial]`
//! and `[axpy+xpay]` over the home's lane of eight pieces, plus
//! `[dot_reduce + alpha + −alpha]` and `[dot_reduce + beta]`: 8
//! nodes. Bodies run in
//! submission order inside a node, so a replay changes no bit of any
//! vector.
//! [`ExecMetrics::runtime`]
//! counts nodes in `tasks_submitted` / `tasks_replayed` /
//! `tasks_executed` and the folded bodies in `tasks_fused`; per-name
//! counts, per-name execute time and spans stay per body.
//!
//! Record stability across iterations is what makes the cache hit:
//! scalars live in the refcounted slot arena of [`Handles`] (a step
//! takes its results from the lowest bank of slots no live scalar
//! holds, reused lowest-first, so a solver that carries scalars one
//! step ahead alternates between two records), a `dot` partials
//! buffer is not part of the key, and the planner's workspace pool
//! hands a rebuilt solver the vectors its predecessor used. Pieces and
//! lane and tile footprints are held as shared `Arc<IntervalSet>`s made
//! once, so lowering a step copies no interval set; the one set it
//! builds is each `dot_partial` task's partial slots.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use kdr_index::interval::Run;
use kdr_index::IntervalSet;
#[cfg(test)]
use kdr_index::Partition;
#[cfg(debug_assertions)]
use kdr_runtime::ShapeSig;
use kdr_runtime::{
    Buffer, MetricsSnapshot, ReadView, Runtime, RuntimeError, StepProgram, TaskBuilder, TaskError,
    TaskMeta, TaskSpan, WriteView,
};
#[cfg(test)]
use kdr_sparse::SparseMatrix;
use kdr_sparse::{vecops, KernelKind, Scalar, StructureKey, TileKernel, VecIn, VecOut};
use parking_lot::Mutex;

use crate::backend::{
    BVec, Backend, BackendFault, CompSpec, Handles, OpHandle, OpSetSpec, SRef, StepOp, StepOutcome,
    TileSpec, VecOp,
};
use crate::partitioning::lower_tiles;

/// Stride separating component indices in piece-affinity color keys:
/// piece `(comp, color)` maps to affinity color `comp · STRIDE +
/// color`, so pieces of different components never collide below
/// 4096 colors per component (collisions would only blur locality,
/// never correctness).
const COLOR_STRIDE: usize = 4096;

/// Affinity color key of one `(component, partition color)` piece.
#[inline]
fn piece_color(comp: usize, color: usize) -> usize {
    comp * COLOR_STRIDE + color
}

/// Step programs kept per backend; a record whose program does not fit
/// is compiled and run once, and compiled again when it recurs. What
/// it holds: every step shape a solver captures before it only replays
/// (TFQMR's eight is the most, DESIGN §6; s-step CG's two shapes are
/// two records each), plus one record for the solver's set-up ops,
/// whether its workspace is fresh or pooled — nine for TFQMR, four for
/// CG — with room for a second solver on the same planner.
const TRACE_CACHE_CAP: usize = 16;

/// A [`MetricsSnapshot`] extended with the backend's own state:
/// scalar-arena occupancy, trace-cache fill, and step-level
/// captured/replayed counts. Returned by
/// [`ExecBackend::metrics`].
#[derive(Clone, Debug)]
pub struct ExecMetrics {
    /// Runtime-level counters.
    pub runtime: MetricsSnapshot,
    /// Scalar slot arena size: the sum over slot banks of each bank's
    /// peak simultaneous live scalars.
    pub scalar_slots: usize,
    /// Scalar slots currently free (zero refcount).
    pub scalar_free: usize,
    /// Step programs in the trace cache.
    pub trace_cache_len: usize,
    /// Trace cache capacity.
    pub trace_cache_cap: usize,
    /// Always 0: every step this backend runs is a step program's run,
    /// captured or replayed. The benchmark's ledger still reads it
    /// (`core.analyzed_frac`).
    pub steps_analyzed: u64,
    /// Steps with a record that was compiled into a program there: its
    /// first run.
    pub steps_captured: u64,
    /// Steps whose every record was served from the program cache.
    pub steps_replayed: u64,
    /// Tasks built from the operations of solver steps: a step that
    /// compiled a program lowers its operations into tasks, a replayed
    /// step lowers none. Ops outside any step are not counted, here or
    /// in the step counts.
    pub step_tasks_lowered: u64,
    /// Global reduction stages this backend launched (each
    /// `dot`/`dot_many` call counts once, however many scalars it
    /// fuses).
    pub reduction_stages: u64,
    /// Reduction stages launched inside `step_begin`/`step_end`
    /// brackets, i.e. per solver iteration.
    pub fences_per_iteration: f64,
    /// Nanoseconds the driver spent parked in `scalar_get`, with no
    /// ready task to run, waiting for reduction results — the fence
    /// tax, directly. What it spent running tasks there is not stall.
    pub reduction_stall_ns: u64,
    /// Registered tiles per lowered kernel kind (`"csr"`, `"dia"`,
    /// `"ell"`, `"bcsr"`, `"stencil"`), across all opsets. Empty
    /// tiles are dropped at registration and not counted.
    pub tiles_by_kernel: BTreeMap<&'static str, usize>,
    /// Bytes of operator *value* storage across all registered
    /// opsets, format padding included. Matrix-free stencil tiles
    /// contribute zero: they hold no value array, only the tables that
    /// say which diagonals each grid line has, and the constants on
    /// those diagonals are the descriptor's weights. An assembled
    /// constant band contributes one value per diagonal, so the
    /// matrix-free win is registration (nothing generated, extracted,
    /// sorted or lowered); the product is the same kernel
    /// (`sparse.spmv_stencil_us` next to `sparse.spmv_dia_us` on the
    /// perf ledger).
    pub operator_value_bytes: u64,
}

impl ExecMetrics {
    /// Fraction of steps served from the cache:
    /// `replayed / (captured + replayed)`; 0 before any step completes.
    pub fn trace_hit_rate(&self) -> f64 {
        let total = self.steps_captured + self.steps_replayed;
        if total == 0 {
            0.0
        } else {
            self.steps_replayed as f64 / total as f64
        }
    }
}

/// The non-empty pieces of one component whose colours have the same
/// home worker, `piece_color(comp, colour) % workers`: the unit a
/// vector task covers. With at least as many workers as pieces, a lane
/// is one piece.
#[derive(PartialEq)]
struct Lane {
    /// Affinity colour of the lane's first piece; every piece of the
    /// lane has its home.
    color: usize,
    /// The colour of each member, in colour order.
    members: Vec<usize>,
    /// Union of the members: what the lane's tasks declare, shared by
    /// every task that declares it, so a requirement costs a reference
    /// count and a rebuilt step's signature matches its cached one by
    /// pointer.
    footprint: Arc<IntervalSet>,
    /// The lane's dot chains, one per run of each member, grouped by
    /// the footprint run that holds them: `((lo, n), chains)` per
    /// footprint run, chains in element order, so a member's runs come
    /// in run order.
    chains: Vec<((usize, usize), Vec<Chain>)>,
}

/// One run of one member piece, `(colour, lo, n)`: the elements a dot
/// partial reduces as one [`vecops::dot`] chain.
type Chain = (usize, usize, usize);

impl Lane {
    /// The lanes of component `comp` partitioned into `pieces`, on a
    /// runtime of `workers` workers, in order of their first piece.
    fn of(comp: usize, pieces: &[IntervalSet], workers: usize) -> Vec<Arc<Lane>> {
        let home = |color: usize| piece_color(comp, color) % workers;
        let held: Vec<usize> = (0..pieces.len()).filter(|&c| !pieces[c].is_empty()).collect();
        let mut firsts: Vec<usize> = Vec::new();
        for &c in &held {
            if !firsts.iter().any(|&f| home(f) == home(c)) {
                firsts.push(c);
            }
        }
        firsts
            .into_iter()
            .map(|first| {
                let members: Vec<usize> = held
                    .iter()
                    .copied()
                    .filter(|&c| home(c) == home(first))
                    .collect();
                let runs = members.iter().flat_map(|&c| pieces[c].runs().iter().copied());
                let footprint = IntervalSet::from_runs(runs);
                // The members' runs tile each footprint run: walk it
                // from its start, taking the member whose next run
                // starts there.
                let mut next = vec![0usize; members.len()];
                let chains = runs_of(&footprint)
                    .map(|(lo, n)| {
                        let mut held = Vec::new();
                        let mut at = lo;
                        while at < lo + n {
                            let (k, run) = (0..members.len())
                                .find_map(|k| {
                                    let run = pieces[members[k]].runs().get(next[k])?;
                                    (run.lo as usize == at).then_some((k, run))
                                })
                                .expect("the members' runs tile the footprint");
                            let len = (run.hi - run.lo) as usize;
                            held.push((members[k], at, len));
                            next[k] += 1;
                            at += len;
                        }
                        ((lo, n), held)
                    })
                    .collect();
                Arc::new(Lane {
                    color: piece_color(comp, first),
                    members,
                    footprint: Arc::new(footprint),
                    chains,
                })
            })
            .collect()
    }

    /// The partial slots of the lane's pieces in a `dot` whose
    /// component's first piece takes slot `first`: one per piece.
    fn slots(&self, first: usize) -> IntervalSet {
        IntervalSet::from_runs(self.members.iter().map(|&color| {
            let slot = (first + color) as u64;
            Run::new(slot, slot + 1)
        }))
    }

    /// Start every member's partial slot, `base + colour`, at `+0`;
    /// [`add_sums`] then adds its chains' sums in run order.
    fn clear<T: Scalar>(&self, p: &WriteView<'_, T>, base: usize) {
        for &color in &self.members {
            p.set(base + color, T::ZERO);
        }
    }
}

/// The sums of one footprint run's `chains`, each added into its
/// piece's slot `base + colour` in chain order: `four` sums four
/// chains at once and `one` a single chain, both over `state` (what
/// the body reads the run through). The chains go four at a time, the
/// rest one by one, so a piece's partial is its runs' sums added in
/// run order however the chains were grouped.
fn add_sums<T: Scalar, S>(
    p: &WriteView<'_, T>,
    base: usize,
    chains: &[Chain],
    state: &mut S,
    four: impl Fn(&mut S, [Chain; 4]) -> [T; 4],
    one: impl Fn(&mut S, &Chain) -> T,
) {
    let add = |&(color, _, _): &Chain, sum: T| p.set(base + color, p.get(base + color) + sum);
    let mut groups = chains.chunks_exact(4);
    for group in &mut groups {
        let group: [Chain; 4] = group.try_into().expect("four chains");
        for (chain, sum) in group.iter().zip(four(state, group)) {
            add(chain, sum);
        }
    }
    for chain in groups.remainder() {
        add(chain, one(state, chain));
    }
}

/// Chain `(_, lo, n)`'s elements in `v`, the elements of a footprint
/// run starting at `at`.
#[inline]
fn chain_of<'a, T>(v: &'a [T], at: usize, &(_, lo, n): &Chain) -> &'a [T] {
    &v[lo - at..][..n]
}

/// [`chain_of`] of four chains.
#[inline]
fn chains4<'a, T>(v: &'a [T], at: usize, g: &[Chain; 4]) -> [&'a [T]; 4] {
    let [c0, c1, c2, c3] = g;
    [chain_of(v, at, c0), chain_of(v, at, c1), chain_of(v, at, c2), chain_of(v, at, c3)]
}

/// A footprint run's elements cut into its chains' mutable slices, in
/// chain order: each [`Carve::take`] splits the next chain off the
/// rest, so the chains of one run hold disjoint slices of one
/// `range_mut`.
struct Carve<'a, T> {
    rest: &'a mut [T],
    /// The element `rest` starts at.
    at: usize,
}

impl<'a, T> Carve<'a, T> {
    fn take(&mut self, &(_, lo, n): &Chain) -> &'a mut [T] {
        let (_, rest) = std::mem::take(&mut self.rest).split_at_mut(lo - self.at);
        let (chain, rest) = rest.split_at_mut(n);
        (self.rest, self.at) = (rest, lo + n);
        chain
    }
}

struct ExecComp<T> {
    buf: Buffer<T>,
    /// Pieces of the canonical partition, empty ones included: the
    /// partial slots a `dot` over the component takes.
    piece_count: usize,
    /// The component's lanes ([`Lane::of`]).
    lanes: Vec<Arc<Lane>>,
}

struct ExecVec<T> {
    comps: Vec<ExecComp<T>>,
}

/// The runs of a declared subset as `(first element, length)`, the
/// arguments of [`ReadView::range`] / [`WriteView::range_mut`]: a
/// vector task body runs one slice kernel per run.
fn runs_of(subset: &IntervalSet) -> impl Iterator<Item = (usize, usize)> + '_ {
    subset
        .runs()
        .iter()
        .map(|run| (run.lo as usize, (run.hi - run.lo) as usize))
}

/// `dst ← dst + alpha · src`, carried into the partial tasks of the
/// dot recorded right after it ([`ExecBackend::fuses`]).
#[derive(Clone, Copy)]
struct Axpy {
    dst: BVec,
    alpha: SRef,
    src: BVec,
}

/// Which `axpy`s of a record lower *into* a later `xpay`: an
/// `axpy(x, α, p)` (`x ≠ p`) whose record later holds an
/// `xpay(p, β, r)` (`r` neither `x` nor `p`), where no op in
/// between reads or writes `x`, writes `p`, or writes `α`'s slot,
/// and `x`, `p` and `r` have the same lanes (`same_lanes`). Such an
/// `axpy` runs at its `xpay`, in one `axpy+xpay` task per lane
/// ([`ExecBackend::axpy_xpay_tasks`]): it reads the `p` and `α` it would
/// have read at its own place, and nothing in between saw `x`.
/// Entry `j` holds the `axpy` op `j` (an `xpay`) takes along; an
/// `xpay` takes at most one, the first. CG's `x += αp` and
/// `p = r + βp` are such a pair.
fn deferrals(key: &StepKey, same_lanes: &dyn Fn(BVec, BVec) -> bool) -> Vec<Option<(usize, Axpy)>> {
    let ops = &key.ops;
    let mut into: Vec<Option<(usize, Axpy)>> = vec![None; ops.len()];
    // The first `dot_many` pair of each op.
    let mut pairs_at = Vec::with_capacity(ops.len());
    let mut at = 0;
    for op in ops {
        pairs_at.push(at);
        if let StepOp::Dots { pairs } = op {
            at += pairs;
        }
    }
    for (i, op) in ops.iter().enumerate() {
        let StepOp::Vector {
            op: VecOp::Axpy,
            dst: x,
            src: Some(p),
            alpha: Some(alpha),
        } = *op
        else {
            continue;
        };
        if x == p {
            continue;
        }
        for (j, later) in ops.iter().enumerate().skip(i + 1) {
            let stop = match *later {
                StepOp::Vector {
                    op: VecOp::Xpay,
                    dst,
                    src: Some(r),
                    alpha: Some(_),
                } if dst == p
                    && r != x
                    && r != p
                    && into[j].is_none()
                    && same_lanes(x, p)
                    && same_lanes(p, r) =>
                {
                    into[j] = Some((i, Axpy { dst: x, alpha, src: p }));
                    true
                }
                StepOp::Vector { dst, src, .. } => dst == x || dst == p || src == Some(x),
                StepOp::Apply { dst, src, .. } => dst == x || dst == p || src == x,
                StepOp::Dots { pairs } => key.dots[pairs_at[j]..pairs_at[j] + pairs]
                    .iter()
                    .any(|&(a, b, out)| a == x || b == x || out == alpha),
                StepOp::Const { out } | StepOp::Binop { out, .. } | StepOp::Unop { out, .. } => {
                    out == alpha
                }
            };
            if stop {
                break;
            }
        }
    }
    into
}

/// Sum of `partials` in ascending slot order from `+0` — the one
/// combine order behind `dot` and `dot_many`.
fn sum_in_order<T: Scalar>(partials: &[T]) -> T {
    partials.iter().fold(T::ZERO, |acc, &p| acc + p)
}

/// Drain `rt`'s recorded task failure (if any) into `fault`, keeping
/// the first.
fn absorb_failure(rt: &Runtime, fault: &mut Option<BackendFault>) {
    if let Some(e) = rt.take_failure() {
        if fault.is_none() {
            *fault = Some(BackendFault {
                task: e.name.to_string(),
                message: e.to_string(),
            });
        }
    }
}

/// Run `program` ([`Runtime::run_program`]). A run refused because a
/// task failure is pending takes the failure into `fault` — it is the
/// backend's to report, and no reason to leave the step unrun — and
/// goes in again; nothing ran in the refused attempt.
fn run_step(
    rt: &Runtime,
    fault: &mut Option<BackendFault>,
    program: &StepProgram,
    bind: impl Fn(),
    reads: impl IntoIterator<Item = u64> + Clone,
) -> Result<Duration, TaskError> {
    loop {
        match rt.run_program(program, &bind, reads.clone()) {
            Ok(waited) => return waited,
            Err(RuntimeError::TaskFailed(_)) => absorb_failure(rt, fault),
            Err(e) => panic!("a step cannot run inside this thread's own trace capture: {e}"),
        }
    }
}

/// Adapter giving tile kernels read access to a runtime buffer view.
struct RV<'a, T>(ReadView<'a, T>);

impl<T: Scalar> VecIn<T> for RV<'_, T> {
    #[inline(always)]
    fn load(&self, i: usize) -> T {
        self.0.get(i)
    }
    #[inline(always)]
    fn range(&self, lo: usize, n: usize) -> Option<&[T]> {
        Some(self.0.range(lo, n))
    }
}

/// Adapter giving tile kernels read-modify-write access to a runtime
/// buffer view.
struct WV<'a, T>(WriteView<'a, T>);

impl<T: Scalar> VecOut<T> for WV<'_, T> {
    #[inline(always)]
    fn load(&self, i: usize) -> T {
        self.0.get(i)
    }
    #[inline(always)]
    fn store(&mut self, i: usize, v: T) {
        self.0.set(i, v);
    }
    #[inline(always)]
    fn range_mut(&mut self, lo: usize, n: usize) -> Option<&mut [T]> {
        Some(self.0.range_mut(lo, n))
    }
}

/// One registered (non-empty) tile: footprints, the lowered kernel
/// payload, and the piece-affinity color shared with vector tasks on
/// the same range piece.
struct ExecTile<T> {
    rhs_comp: usize,
    sol_comp: usize,
    out_subset: Arc<IntervalSet>,
    in_union: Arc<IntervalSet>,
    /// Affinity color: `piece_color(rhs_comp, range_color)`.
    color: usize,
    kernel: Arc<TileKernel<T>>,
    /// Bucketed structural signature, the cost catalogue's key half
    /// (paired with the lowered kind in the operator manifest).
    key: StructureKey,
}

impl<T> ExecTile<T> {
    /// The registered form of tile `t` running `kernel`: the one place
    /// footprints and the affinity color are taken off a [`TileSpec`].
    fn new(t: &TileSpec, kernel: TileKernel<T>, key: StructureKey) -> Self {
        ExecTile {
            rhs_comp: t.rhs_comp,
            sol_comp: t.sol_comp,
            key,
            out_subset: Arc::new(t.out_subset.clone()),
            in_union: Arc::new(t.in_union.clone()),
            color: piece_color(t.rhs_comp, t.range_color),
            kernel: Arc::new(kernel),
        }
    }

    /// (output component, write subset, read subset) for a direction.
    fn direction(&self, transpose: bool) -> (usize, &Arc<IntervalSet>, &Arc<IntervalSet>) {
        if transpose {
            (self.sol_comp, &self.in_union, &self.out_subset)
        } else {
            (self.rhs_comp, &self.out_subset, &self.in_union)
        }
    }
}

/// Zero-fill fusion plan for one apply direction: which tiles zero
/// their write subset before accumulating, and, per destination
/// component whose tiles do, what they leave uncovered (that residual
/// still needs a standalone zero task; a component without an entry
/// is zeroed whole).
struct ApplyPlan {
    zero_first: Vec<bool>,
    residual: Vec<(usize, Arc<IntervalSet>)>,
}

/// `comp_len(c)` is the length of destination component `c`.
fn build_apply_plan<T: Scalar>(
    tiles: &[ExecTile<T>],
    transpose: bool,
    comp_len: impl Fn(usize) -> u64,
) -> ApplyPlan {
    // Registration drops structurally empty tiles, so every tile here
    // stores entries; the plan's residual zeroing covers whatever the
    // dropped tiles would have written.
    let mut zero_first = vec![false; tiles.len()];
    // Destination components with tiles, in tile order.
    let mut comps: Vec<usize> = Vec::new();
    for t in tiles.iter() {
        let (dcomp, _, _) = t.direction(transpose);
        if !comps.contains(&dcomp) {
            comps.push(dcomp);
        }
    }
    comps.sort_unstable();
    let mut residual = Vec::new();
    for &comp in &comps {
        // Group the component's tiles by equal write subset, first
        // appearance order.
        let mut groups: Vec<(&IntervalSet, usize)> = Vec::new(); // (subset, first tile)
        let mut fusable = true;
        for (i, t) in tiles.iter().enumerate() {
            let (dcomp, ws, _) = t.direction(transpose);
            let ws: &IntervalSet = ws;
            if dcomp != comp {
                continue;
            }
            if !groups.iter().any(|(g, _)| *g == ws) {
                // A new distinct subset must be disjoint from every
                // existing group, else zeroing one could wipe another
                // group's partial sums.
                fusable &= groups.iter().all(|(g, _)| g.is_disjoint(ws));
                groups.push((ws, i));
            }
        }
        if fusable {
            let mut union = IntervalSet::default();
            for (ws, first) in &groups {
                zero_first[*first] = true;
                union = union.union(ws);
            }
            let full = IntervalSet::full(comp_len(comp));
            residual.push((comp, Arc::new(full.difference(&union))));
        }
        // Not fusable: no tile zeroes, the whole component is zeroed
        // by the standalone task (residual entry absent).
    }
    // A banded forward tile that zeroes first, a box-stencil band
    // included, starts the rows it holds at `+0` itself
    // (`TileKernel::apply_from_zero`) instead of the filled write
    // subset, so those rows must be the whole subset: a row the band
    // does not hold would keep a stale `y`.
    for (t, _) in tiles.iter().zip(&zero_first).filter(|(_, &z)| z && !transpose) {
        let band = match &*t.kernel {
            TileKernel::Dia(band) => band,
            TileKernel::Stencil(stencil) => stencil.band(),
            _ => continue,
        };
        let rows: u64 = band.seg_rows.iter().map(|&(lo, hi)| u64::from(hi - lo)).sum();
        debug_assert_eq!(rows, t.out_subset.cardinality(), "a band's rows are its write subset");
    }
    ApplyPlan {
        zero_first,
        residual,
    }
}

struct ExecOpSet<T> {
    tiles: Vec<ExecTile<T>>,
    /// Fusion plans indexed by `transpose as usize`.
    plans: [ApplyPlan; 2],
}

impl VecOp {
    /// The slice kernel a task body calls once per run of its piece:
    /// that run of the destination, the coefficient (`0` without one)
    /// and the same run of the source — `None` when the source is the
    /// destination, updated in place.
    fn kernel<T: Scalar>(self) -> fn(/*dst*/ &mut [T], /*alpha*/ T, /*src*/ Option<&[T]>) {
        match self {
            // A vector copied onto itself already holds the result.
            VecOp::Copy => |d, _, s| {
                if let Some(s) = s {
                    vecops::copy(d, s);
                }
            },
            VecOp::SetZero => |d, _, _| vecops::fill(d, T::ZERO),
            VecOp::Scal => |d, a, _| vecops::scal(d, a),
            VecOp::Axpy => |d, a, s| match s {
                Some(s) => vecops::axpy(d, a, s),
                None => vecops::axpy_in_place(d, a),
            },
            VecOp::Xpay => |d, a, s| match s {
                Some(s) => vecops::xpay(d, a, s),
                None => vecops::axpy_in_place(d, a),
            },
        }
    }
}

/// What a step program is looked up by: the task-generating backend
/// calls of the step, in order. A [`StepOp`] is everything its tasks
/// are a function of, given the backend's registered vectors,
/// operators and scalar slots, and the partials buffer of each `Dots`,
/// which belongs to the program.
#[derive(Clone, Default, PartialEq)]
struct StepKey {
    /// Each call, in order.
    ops: Vec<StepOp>,
    /// `(a, b, result slot)` of every `dot_many` pair, in call order:
    /// a `Dots` covers the next `pairs` entries.
    dots: Vec<(BVec, BVec, SRef)>,
}

/// The backend calls recorded since the last lowering: the key, and
/// the value of every `scalar_const` in call order — the step's
/// parameters, bound into its program at replay.
struct StepRecord<T> {
    key: StepKey,
    consts: Vec<T>,
}

impl<T> StepRecord<T> {
    fn clear(&mut self) {
        self.key.ops.clear();
        self.key.dots.clear();
        self.consts.clear();
    }
}

/// Where the `scalar_set` bodies of one lowering read their values:
/// entry `k` belongs to the `k`-th `scalar_const` of the record.
type ConstCells<T> = Arc<Mutex<Vec<T>>>;

/// A recorded step lowered into tasks.
struct Lowered<T> {
    tasks: Vec<TaskBuilder>,
    /// Present when the record had a `scalar_const`.
    consts: Option<ConstCells<T>>,
    /// The partials buffer of each `Dots`, in call order.
    partials: Vec<Buffer<T>>,
}

/// A cached step: its key and the program a hit replays.
struct CachedStep<T> {
    key: StepKey,
    program: StepProgram,
    consts: Option<ConstCells<T>>,
    /// The partials buffers the program was compiled with (its tasks'
    /// requirements hold them too): what a hit's record is lowered
    /// against again (in debug builds).
    #[cfg(debug_assertions)]
    partials: Vec<Buffer<T>>,
    /// Signature of the tasks the program was captured from: what a
    /// hit's record must lower to again (checked in debug builds).
    #[cfg(debug_assertions)]
    sig: ShapeSig,
}

/// Threaded execution backend over `kdr-runtime`.
pub struct ExecBackend<T: Scalar> {
    rt: Arc<Runtime>,
    vectors: Vec<ExecVec<T>>,
    opsets: Vec<ExecOpSet<T>>,
    handles: Handles,
    /// One single-element buffer per slot of the `handles` arena.
    scalars: Vec<Buffer<T>>,
    /// The ops recorded since the last record closed.
    step: StepRecord<T>,
    /// The step programs of the current epoch (see
    /// [`ExecBackend::new_epoch`]), at most [`TRACE_CACHE_CAP`].
    programs: Vec<CachedStep<T>>,
    steps_captured: u64,
    steps_replayed: u64,
    step_tasks_lowered: u64,
    /// Inside a `step_begin`/`step_end` bracket — attributes reduction
    /// stages to iterations for the fences-per-iteration metric.
    in_step: bool,
    /// A record closed inside the current bracket was compiled: the
    /// step counts as captured.
    step_compiled: bool,
    /// Reduction stages launched, total and within steps.
    reduction_stages: u64,
    reductions_in_steps: u64,
    /// Nanoseconds spent parked in `scalar_get`.
    reduction_stall_ns: u64,
    /// First task failure absorbed since the last
    /// [`Backend::take_fault`]. Task panics never abort the backend;
    /// they surface here (and as NaN placeholder scalars).
    fault: Option<BackendFault>,
}

impl<T: Scalar> ExecBackend<T> {
    /// Create with `workers` runtime threads. The runtime queues a
    /// task of color `c` on worker `c % workers`, so each partition
    /// color's tile and vector tasks stay on one worker (idle workers
    /// still steal).
    pub fn new(workers: usize) -> Self {
        Self::build(Arc::new(Runtime::new(workers)))
    }

    /// Create sized to the machine.
    pub fn with_default_workers() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Self::new(n)
    }

    /// Create over an existing shared runtime (many backends, one
    /// worker pool — the multi-tenant service configuration). Buffer
    /// ids are globally unique, so backends sharing a runtime never
    /// alias each other's dependences.
    ///
    /// The second parameter is ignored and only `None` fits it; it
    /// stays until the callers that still pass `None` drop it
    /// (ROADMAP 6(a)).
    pub fn with_shared_runtime(rt: Arc<Runtime>, _: Option<std::convert::Infallible>) -> Self {
        Self::build(rt)
    }

    fn build(rt: Arc<Runtime>) -> Self {
        ExecBackend {
            rt,
            vectors: Vec::new(),
            opsets: Vec::new(),
            handles: Handles::default(),
            scalars: Vec::new(),
            step: StepRecord {
                key: StepKey::default(),
                consts: Vec::new(),
            },
            programs: Vec::new(),
            steps_captured: 0,
            steps_replayed: 0,
            step_tasks_lowered: 0,
            in_step: false,
            step_compiled: false,
            reduction_stages: 0,
            reductions_in_steps: 0,
            reduction_stall_ns: 0,
            fault: None,
        }
    }

    /// Count one launched reduction stage (a fused `dot_many` counts
    /// once), locally and on the shared runtime.
    fn note_reduction(&mut self) {
        self.reduction_stages += 1;
        if self.in_step {
            self.reductions_in_steps += 1;
        }
        self.rt.record_reduction_stage();
    }

    /// Arm (or disarm, with `None`) the runtime's deterministic fault
    /// injector. See [`kdr_runtime::FaultPlan`].
    pub fn set_fault_plan(&self, plan: Option<kdr_runtime::FaultPlan>) {
        self.rt.set_fault_plan(plan);
    }

    /// Set (or clear) the runtime watchdog's stall budget.
    pub fn set_stall_budget(&self, budget: Option<std::time::Duration>) {
        self.rt.set_stall_budget(budget);
    }

    /// The underlying task runtime. Applications may submit their own
    /// tasks here to interleave independent work with a running solve
    /// (the paper's P1): the dependence analysis keeps solver and
    /// application tasks ordered only where they actually share data.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// Size of the scalar slot arena (bounded by each slot bank's peak
    /// simultaneous live scalars, not by total scalars ever created).
    pub fn scalar_slots(&self) -> usize {
        self.handles.slots()
    }

    /// Number of step programs cached.
    pub fn trace_cache_len(&self) -> usize {
        self.programs.len()
    }

    /// `(captured, replayed)` step counts.
    pub fn step_counters(&self) -> (u64, u64) {
        (self.steps_captured, self.steps_replayed)
    }

    /// Enable or disable the runtime's structured event logging
    /// (one span per task body). Off by default; see
    /// [`Runtime::enable_events`].
    pub fn set_event_logging(&self, on: bool) {
        self.rt.enable_events(on);
    }

    /// Whether event logging is on.
    pub fn events_enabled(&self) -> bool {
        self.rt.events_enabled()
    }

    /// Drain recorded task spans (fences first). See
    /// [`Runtime::take_spans`].
    pub fn take_spans(&self) -> Vec<TaskSpan> {
        self.rt.take_spans()
    }

    /// Full observability snapshot: runtime metrics plus this
    /// backend's scalar-arena, trace-cache, and step-outcome state.
    pub fn metrics(&self) -> ExecMetrics {
        let mut tiles_by_kernel = BTreeMap::new();
        let mut operator_value_bytes = 0u64;
        for opset in &self.opsets {
            for tile in &opset.tiles {
                if let Some(kind) = tile.kernel.kind() {
                    *tiles_by_kernel.entry(kind.name()).or_insert(0) += 1;
                }
                operator_value_bytes += tile.kernel.value_bytes() as u64;
            }
        }
        ExecMetrics {
            runtime: self.rt.metrics(),
            scalar_slots: self.handles.slots(),
            scalar_free: self.handles.free_slots(),
            trace_cache_len: self.programs.len(),
            trace_cache_cap: TRACE_CACHE_CAP,
            steps_analyzed: 0,
            steps_captured: self.steps_captured,
            steps_replayed: self.steps_replayed,
            step_tasks_lowered: self.step_tasks_lowered,
            reduction_stages: self.reduction_stages,
            fences_per_iteration: {
                let steps = self.steps_captured + self.steps_replayed;
                if steps == 0 {
                    0.0
                } else {
                    self.reductions_in_steps as f64 / steps as f64
                }
            },
            reduction_stall_ns: self.reduction_stall_ns,
            tiles_by_kernel,
            operator_value_bytes,
        }
    }

    /// Per-tile manifest of every registered operator set:
    /// `(structure key, lowered kernel kind)`, one entry per tile. The
    /// service keys its cost catalogue by it.
    pub fn operator_manifest(&self) -> Vec<(StructureKey, KernelKind)> {
        let mut out = Vec::new();
        for opset in &self.opsets {
            for tile in &opset.tiles {
                if let Some(kind) = tile.kernel.kind() {
                    out.push((tile.key, kind));
                }
            }
        }
        out
    }

    /// The values of `scalars` once `waited`, a wait for the tasks
    /// writing their slots, has returned: each slot read where it is,
    /// the time parked timed as one reduction stall. If a writer (or a
    /// predecessor of one) failed, the failure is recorded and the
    /// driver gets NaN placeholders — its health checks turn that into
    /// a structured error.
    fn read_slots(&mut self, scalars: &[SRef], waited: Result<Duration, TaskError>) -> Vec<T> {
        match waited {
            Ok(parked) => {
                let stall = parked.as_nanos() as u64;
                self.reduction_stall_ns += stall;
                self.rt.record_reduction_stall_ns(stall);
                // Only this backend submits writers of its slots, and
                // it is in here: nothing writes them until it returns.
                scalars.iter().map(|&s| self.scalars[s].peek(0)).collect()
            }
            Err(_) => {
                let _ = self.rt.fence();
                absorb_failure(&self.rt, &mut self.fault);
                vec![T::from_f64(f64::NAN); scalars.len()]
            }
        }
    }

    /// Run the ops recorded since the last record closed as one step
    /// program: replay the record's program if the cache holds one,
    /// else lower the record, compile it and run that — keeping the
    /// program if the cache has room and the run did not fail. `reads`
    /// names the slots the caller reads next: the run waits for their
    /// writers as it submits the step, and returns what that wait
    /// returned. `None` when nothing was recorded.
    fn close_record(&mut self, reads: &[SRef]) -> Option<Result<Duration, TaskError>> {
        if self.step.key.ops.is_empty() {
            return None;
        }
        let step = &self.step;
        let slots = &self.scalars;
        let reads = reads.iter().map(|&s| slots[s].id());
        let waited = if let Some(cached) = self.programs.iter().find(|p| p.key == step.key) {
            // The invariant the lookup rests on: an equal record
            // lowers to the tasks the program holds.
            #[cfg(debug_assertions)]
            assert!(
                ShapeSig::of_tasks(&self.lower(step, &cached.partials).tasks) == cached.sig,
                "a cached step's record no longer lowers to its program's tasks: \
                 something its lowering reads was replaced without ending the epoch"
            );
            let bind = || {
                if let Some(cells) = &cached.consts {
                    cells.lock().copy_from_slice(&step.consts);
                }
            };
            run_step(&self.rt, &mut self.fault, &cached.program, bind, reads)
        } else {
            let lowered = self.lower(step, &[]);
            if self.in_step {
                self.step_tasks_lowered += lowered.tasks.len() as u64;
                self.step_compiled = true;
            }
            #[cfg(debug_assertions)]
            let sig = ShapeSig::of_tasks(&lowered.tasks);
            let program = self
                .rt
                .compile_program(lowered.tasks)
                .expect("backend tasks have shared bodies");
            // The lowering's cells already hold this record's constants.
            let waited = run_step(&self.rt, &mut self.fault, &program, || {}, reads);
            if waited.is_ok() && self.programs.len() < TRACE_CACHE_CAP {
                self.programs.push(CachedStep {
                    key: self.step.key.clone(),
                    program,
                    consts: lowered.consts,
                    #[cfg(debug_assertions)]
                    partials: lowered.partials,
                    #[cfg(debug_assertions)]
                    sig,
                });
            }
            waited
        };
        self.step.clear();
        Some(waited)
    }

    /// Close the record and wait until nothing is in flight: what
    /// every call that reads or writes vector contents directly starts
    /// with.
    fn quiesce(&mut self) {
        self.close_record(&[]);
        if self.rt.fence().is_err() {
            absorb_failure(&self.rt, &mut self.fault);
        }
    }

    /// End the current *epoch*: drop every cached step program. A
    /// program is looked up by its recorded calls alone, which is
    /// sound as long as nothing a call's lowering reads from this
    /// backend is replaced; whatever replaces such a thing calls this.
    /// That is `register_operator` (tiles and apply plans) alone.
    /// Vectors and scalar slots are only ever *added*, and a handle
    /// that did not exist when a program was recorded cannot occur in
    /// its key.
    fn new_epoch(&mut self) {
        self.programs.clear();
    }

    /// Partial slots one operand of a `dot` takes: one per piece,
    /// empty ones included.
    fn dot_slots(&self, v: BVec) -> usize {
        self.vectors[v].comps.iter().map(|c| c.piece_count).sum()
    }

    /// One `dot_partial` task per lane of `a · b`, writing the slots of
    /// `partials` from `first_slot` on (one slot per piece, empty ones
    /// included, in component-then-colour order). A piece's partial is
    /// its runs' [`vecops::dot`]s added in run order from `+0`, however
    /// many pieces its lane holds; this is the only place the backend
    /// multiplies two vectors, so `dot`, `dot_many` and every replayed,
    /// stolen or re-run copy of either agree bit for bit, on any number
    /// of workers.
    ///
    /// With an `update` ([`Self::fuses`]) the task is an
    /// `axpy+dot_partial`: it applies the `axpy` to each run before it
    /// takes the run's dot, in one pass ([`vecops::axpy_dot`]), which
    /// writes the `axpy`'s bits and reduces the updated run in `dot`'s
    /// order. The partials stay the task's first written requirement.
    ///
    /// Out of line, as [`Self::lower`] is: inlined into `dots` in each
    /// calling crate it cost 12 KB of text, and lowering is not on a
    /// replayed step's path.
    #[inline(never)]
    fn dot_partial_tasks(
        &self,
        (a, b): (BVec, BVec),
        partials: &Buffer<T>,
        first_slot: usize,
        update: Option<Axpy>,
        out: &mut Lowered<T>,
    ) {
        let (av, bv) = (&self.vectors[a], &self.vectors[b]);
        let name = if update.is_some() {
            "axpy+dot_partial"
        } else {
            "dot_partial"
        };
        // The slot of the component's first piece.
        let mut first = first_slot;
        for (ci, ac) in av.comps.iter().enumerate() {
            let bc = &bv.comps[ci];
            for lane in &ac.lanes {
                let (lane_in_body, base) = (Arc::clone(lane), first);
                let fp = || Arc::clone(&lane.footprint);
                let tb = TaskBuilder::new(name).meta(TaskMeta::new(name).with_color(lane.color));
                let Some(Axpy { dst, alpha, src }) = update else {
                    out.tasks.push(
                        tb.read(&ac.buf, fp())
                            .read(&bc.buf, fp())
                            .write(partials, lane.slots(first))
                            .shared_body(move |ctx| {
                                let x = ctx.read::<T>(0);
                                let y = ctx.read::<T>(1);
                                let p = ctx.write::<T>(2);
                                lane_in_body.clear(&p, base);
                                for &((lo, n), ref chains) in &lane_in_body.chains {
                                    let (x, y) = (x.range(lo, n), y.range(lo, n));
                                    add_sums(
                                        &p,
                                        base,
                                        chains,
                                        &mut (),
                                        |_, g| vecops::dot4(chains4(x, lo, &g), chains4(y, lo, &g)),
                                        |_, c| vecops::dot(chain_of(x, lo, c), chain_of(y, lo, c)),
                                    );
                                }
                            }),
                    );
                    continue;
                };
                // The pair's operand that is not `dst`, if any.
                let other = [a, b].into_iter().find(|&v| v != dst);
                let mut tb = tb
                    .read_all(&self.scalars[alpha])
                    .read(&self.vectors[src].comps[ci].buf, fp());
                if let Some(o) = other {
                    tb = tb.read(&self.vectors[o].comps[ci].buf, fp());
                }
                let has_other = other.is_some();
                let idx_p = 2 + usize::from(has_other);
                out.tasks.push(
                    tb.write(partials, lane.slots(first))
                        .write(&self.vectors[dst].comps[ci].buf, fp())
                        .shared_body(move |ctx| {
                            let a = ctx.read::<T>(0).get(0);
                            let s = ctx.read::<T>(1);
                            let y = has_other.then(|| ctx.read::<T>(2));
                            let p = ctx.write::<T>(idx_p);
                            let mut d = ctx.write::<T>(idx_p + 1);
                            lane_in_body.clear(&p, base);
                            for &((lo, n), ref chains) in &lane_in_body.chains {
                                // One `range_mut` per footprint run, cut
                                // into the chains' slices.
                                let mut run = Carve {
                                    rest: d.range_mut(lo, n),
                                    at: lo,
                                };
                                let s = s.range(lo, n);
                                let y = y.as_ref().map(|y| y.range(lo, n));
                                add_sums(
                                    &p,
                                    base,
                                    chains,
                                    &mut run,
                                    |run, g| {
                                        let [c0, c1, c2, c3] = &g;
                                        let d = [
                                            run.take(c0),
                                            run.take(c1),
                                            run.take(c2),
                                            run.take(c3),
                                        ];
                                        let y = y.map(|y| chains4(y, lo, &g));
                                        vecops::axpy_dot4(d, a, chains4(s, lo, &g), y)
                                    },
                                    |run, c| {
                                        let y = y.map(|y| chain_of(y, lo, c));
                                        vecops::axpy_dot(run.take(c), a, chain_of(s, lo, c), y)
                                    },
                                );
                            }
                        }),
                );
            }
            first += ac.piece_count;
        }
    }

    /// Whether an `axpy` of `dst` and the one-pair `dot_many` recorded
    /// right after it lower to one `axpy+dot_partial` task per lane:
    /// the pair reads `dst`, the `axpy` has a source other than `dst`,
    /// and `dst` has the pair's first operand's lanes, the ones the
    /// partial tasks run over. A pair of other lanes, or any other
    /// batch, lowers as it always has, after the `axpy`.
    fn fuses(&self, Axpy { dst, src, .. }: Axpy, (a, b, _): (BVec, BVec, SRef)) -> bool {
        src != dst && (a == dst || b == dst) && self.same_lanes(a, dst)
    }

    /// Whether vectors `a` and `b` have the same pieces and lanes in
    /// every component, so one lane task covers both.
    fn same_lanes(&self, a: BVec, b: BVec) -> bool {
        a == b
            || self.vectors[a].comps.iter().zip(&self.vectors[b].comps).all(|(ac, bc)| {
                ac.piece_count == bc.piece_count && ac.lanes == bc.lanes
            })
    }

    /// One `axpy+xpay` task per lane: `x ← x + α·p`, then
    /// `p ← r + β·p` with the old `p`, in one pass per run
    /// ([`vecops::axpy_xpay`]), which writes the bits of the `axpy`
    /// followed by the `xpay` and reads `p` once. `x`, `p` and `r` have
    /// the same lanes ([`deferrals`]).
    fn axpy_xpay_tasks(
        &self,
        Axpy { dst: x, alpha, src: p }: Axpy,
        beta: SRef,
        r: BVec,
        out: &mut Lowered<T>,
    ) {
        let name = "axpy+xpay";
        for (ci, xc) in self.vectors[x].comps.iter().enumerate() {
            let (pc, rc) = (&self.vectors[p].comps[ci], &self.vectors[r].comps[ci]);
            for lane in &xc.lanes {
                let fp = || Arc::clone(&lane.footprint);
                out.tasks.push(
                    TaskBuilder::new(name)
                        .meta(TaskMeta::new(name).with_color(lane.color))
                        .read_all(&self.scalars[alpha])
                        .read_all(&self.scalars[beta])
                        .read(&rc.buf, fp())
                        .write(&xc.buf, fp())
                        .write(&pc.buf, fp())
                        .shared_body(move |ctx| {
                            let a = ctx.read::<T>(0).get(0);
                            let b = ctx.read::<T>(1).get(0);
                            let r = ctx.read::<T>(2);
                            let mut x = ctx.write::<T>(3);
                            let mut p = ctx.write::<T>(4);
                            for (lo, n) in runs_of(ctx.subset(3)) {
                                let (x, p) = (x.range_mut(lo, n), p.range_mut(lo, n));
                                vecops::axpy_xpay(x, a, p, b, r.range(lo, n));
                            }
                        }),
                );
            }
        }
    }

    /// One task per lane for an elementwise operation on `dst`
    /// (optionally reading `src` at the same footprint and a scalar
    /// coefficient): the body calls the operation's [`VecOp::kernel`]
    /// once per run of the lane's footprint, which writes the bits of
    /// its per-element expression however the runs are cut.
    ///
    /// `src == dst` is an in-place update: the task declares the
    /// vector once, writable, and the kernel gets no source slice — a
    /// body never holds `&mut [T]` and `&[T]` over the same elements.
    fn elementwise(
        &self,
        op: VecOp,
        dst: BVec,
        src: Option<BVec>,
        alpha: Option<SRef>,
        out: &mut Lowered<T>,
    ) {
        let (name, kernel) = (op.name(), op.kernel::<T>());
        let src = src.filter(|&s| s != dst);
        let dvec = &self.vectors[dst];
        for (ci, dcomp) in dvec.comps.iter().enumerate() {
            let scomp = src.map(|s| &self.vectors[s].comps[ci]);
            for lane in &dcomp.lanes {
                // Same affinity colour as the tile tasks writing the
                // lane's pieces, so they stay on one worker's cache.
                let mut tb =
                    TaskBuilder::new(name).meta(TaskMeta::new(name).with_color(lane.color));
                let mut idx_alpha = None;
                let mut idx_src = None;
                if let Some(a) = alpha {
                    idx_alpha = Some(0usize);
                    tb = tb.read_all(&self.scalars[a]);
                }
                if let Some(sc) = scomp {
                    idx_src = Some(idx_alpha.map_or(0, |_| 1));
                    tb = tb.read(&sc.buf, Arc::clone(&lane.footprint));
                }
                let idx_dst = idx_alpha.iter().count() + idx_src.iter().count();
                tb = tb.write(&dcomp.buf, Arc::clone(&lane.footprint));
                out.tasks.push(tb.shared_body(move |ctx| {
                    let a = idx_alpha.map_or(T::ZERO, |i| ctx.read::<T>(i).get(0));
                    let s = idx_src.map(|i| ctx.read::<T>(i));
                    let mut d = ctx.write::<T>(idx_dst);
                    for (lo, n) in runs_of(ctx.subset(idx_dst)) {
                        kernel(d.range_mut(lo, n), a, s.as_ref().map(|s| s.range(lo, n)));
                    }
                }));
            }
        }
    }

    /// Every pair's partial tasks as one DAG stage sharing one
    /// partials buffer, and a single `dot_reduce` combine task that
    /// produces all result scalars — one reduction stage for the
    /// whole batch. Each pair's partials occupy a contiguous slot
    /// range and are summed in ascending slot order, so a result does
    /// not depend on which other pairs share its batch. The partials
    /// go into `partials` when given (a cached program's buffer), else
    /// into a fresh buffer; either way `out` lists the one used. An
    /// `update` goes into the partial tasks of a one-pair batch
    /// ([`Self::dot_partial_tasks`]).
    fn dots(
        &self,
        batch: &[(BVec, BVec, SRef)],
        partials: Option<&Buffer<T>>,
        update: Option<Axpy>,
        out: &mut Lowered<T>,
    ) {
        // Per-pair slot offsets into the shared partials buffer.
        let mut offsets = Vec::with_capacity(batch.len() + 1);
        let mut total_slots = 0usize;
        for &(a, _, _) in batch {
            offsets.push(total_slots);
            total_slots += self.dot_slots(a);
        }
        offsets.push(total_slots);
        let partials = partials.map_or_else(|| Buffer::filled(total_slots, T::ZERO), Buffer::clone);
        for (&(a, b, _), &first_slot) in batch.iter().zip(&offsets) {
            self.dot_partial_tasks((a, b), &partials, first_slot, update, out);
        }
        let mut combine = TaskBuilder::new("dot_reduce").read_all(&partials);
        for &(_, _, result) in batch {
            combine = combine.write_all(&self.scalars[result]);
        }
        out.tasks.push(combine.shared_body(move |ctx| {
            let p = ctx.read::<T>(0);
            for (j, w) in offsets.windows(2).enumerate() {
                let sum = sum_in_order(p.range(w[0], w[1] - w[0]));
                ctx.write::<T>(j + 1).set(0, sum);
            }
        }));
        out.partials.push(partials);
    }

    /// `dst ← A(src)` (or `Aᵀ`): the standalone zero tasks, then one
    /// task per registered tile.
    fn apply_tasks(
        &self,
        op: OpHandle,
        dst: BVec,
        src: BVec,
        transpose: bool,
        out: &mut Lowered<T>,
    ) {
        let opset = &self.opsets[op];
        let plan = &opset.plans[transpose as usize];
        // Standalone zero tasks first (eq. 8 treats missing
        // components as empty sums): whatever the fused tiles do
        // not cover, per destination component.
        for (ci, comp) in self.vectors[dst].comps.iter().enumerate() {
            let zero = TaskBuilder::new("apply_zero");
            let zero = match plan.residual.iter().find(|(c, _)| *c == ci) {
                Some((_, residual)) if residual.is_empty() => continue,
                Some((_, residual)) => zero.write(&comp.buf, Arc::clone(residual)),
                None => zero.write_all(&comp.buf),
            };
            out.tasks.push(zero.shared_body(move |ctx| {
                let mut d = ctx.write::<T>(0);
                for (lo, n) in runs_of(ctx.subset(0)) {
                    vecops::fill(d.range_mut(lo, n), T::ZERO);
                }
            }));
        }
        for (ti, tile) in opset.tiles.iter().enumerate() {
            let (dcomp, wsubset, rsubset) = tile.direction(transpose);
            let scomp = if transpose {
                tile.rhs_comp
            } else {
                tile.sol_comp
            };
            let dbuf = &self.vectors[dst].comps[dcomp].buf;
            let sbuf = &self.vectors[src].comps[scomp].buf;
            let data = Arc::clone(&tile.kernel);
            let zero = plan.zero_first[ti];
            let t = transpose;
            // Task names carry the lowered kind (metrics report
            // which kernels actually ran) and the zero/transpose
            // flags.
            let name = data
                .kind()
                .expect("registered tiles are non-empty")
                .task_name(t, zero);
            out.tasks.push(
                TaskBuilder::new(name)
                    .read(sbuf, Arc::clone(rsubset))
                    .write(dbuf, Arc::clone(wsubset))
                    .meta(TaskMeta::new(name).with_color(tile.color))
                    .shared_body(move |ctx| {
                        let x = RV(ctx.read::<T>(0));
                        let mut y = WV(ctx.write::<T>(1));
                        // A banded forward product starts its rows at
                        // `+0` itself; every other kernel, on the
                        // filled rows.
                        if zero && data.apply_from_zero(&x, &mut y, t) {
                            return;
                        }
                        if zero {
                            for (lo, n) in runs_of(ctx.subset(1)) {
                                vecops::fill(y.0.range_mut(lo, n), T::ZERO);
                            }
                        }
                        data.apply(&x, &mut y, t);
                    }),
            );
        }
    }

    /// Lower a record into its tasks, in call order: the one place a
    /// backend call becomes tasks. Every body is a shared one, so the
    /// result can be submitted as it is or kept as a step program.
    /// The `k`-th `Dots` writes its partials into `partials[k]` when
    /// there is one — a cached program's buffers, to lower its record
    /// again — and into a fresh buffer otherwise.
    ///
    /// Out of line: inlinable, it was instantiated in each calling
    /// crate (two copies in the ledger's binary). Lowering runs when a
    /// record is captured, never on a replayed step's path in release
    /// builds.
    #[inline(never)]
    fn lower(&self, step: &StepRecord<T>, partials: &[Buffer<T>]) -> Lowered<T> {
        let mut out = Lowered {
            tasks: Vec::new(),
            consts: None,
            partials: Vec::new(),
        };
        let (mut dots_at, mut consts_at) = (0, 0);
        let into = deferrals(&step.key, &|a, b| self.same_lanes(a, b));
        let deferred = |i: usize| into.iter().flatten().any(|&(at, _)| at == i);
        let mut ops = step.key.ops.iter().copied().enumerate().peekable();
        while let Some((i, op)) = ops.next() {
            match op {
                // Runs at the `xpay` it was deferred into.
                StepOp::Vector { .. } if deferred(i) => {}
                StepOp::Vector {
                    op: VecOp::Xpay,
                    src: Some(r),
                    alpha: Some(beta),
                    ..
                } if into[i].is_some() => {
                    let (_, axpy) = into[i].expect("a deferred axpy");
                    self.axpy_xpay_tasks(axpy, beta, r, &mut out);
                }
                StepOp::Vector {
                    op: VecOp::Axpy,
                    dst,
                    src: Some(src),
                    alpha: Some(alpha),
                } if matches!(ops.peek(), Some((_, StepOp::Dots { pairs: 1 })))
                    && self.fuses(Axpy { dst, alpha, src }, step.key.dots[dots_at]) =>
                {
                    ops.next();
                    let batch = &step.key.dots[dots_at..dots_at + 1];
                    let update = Some(Axpy { dst, alpha, src });
                    self.dots(batch, partials.get(out.partials.len()), update, &mut out);
                    dots_at += 1;
                }
                StepOp::Vector {
                    op,
                    dst,
                    src,
                    alpha,
                } => self.elementwise(op, dst, src, alpha, &mut out),
                StepOp::Dots { pairs } => {
                    let batch = &step.key.dots[dots_at..dots_at + pairs];
                    self.dots(batch, partials.get(out.partials.len()), None, &mut out);
                    dots_at += pairs;
                }
                StepOp::Const { out: slot } => {
                    // Reused slots may have in-flight readers, so the
                    // store is a task (ordered after them), not a
                    // direct buffer write. The value is read from the
                    // lowering's cells when the body runs: a program
                    // replays with this step's constants, whatever
                    // they were when it was captured.
                    let cells = out
                        .consts
                        .get_or_insert_with(|| Arc::new(Mutex::new(step.consts.clone())));
                    let (cells, k) = (Arc::clone(cells), consts_at);
                    consts_at += 1;
                    out.tasks.push(
                        TaskBuilder::new("scalar_set")
                            .write_all(&self.scalars[slot])
                            .shared_body(move |ctx| {
                                let v = cells.lock()[k];
                                ctx.write::<T>(0).set(0, v);
                            }),
                    );
                }
                StepOp::Binop {
                    op,
                    a,
                    b,
                    out: slot,
                } => out.tasks.push(
                    TaskBuilder::new("scalar_binop")
                        .read_all(&self.scalars[a])
                        .read_all(&self.scalars[b])
                        .write_all(&self.scalars[slot])
                        .shared_body(move |ctx| {
                            let x = ctx.read::<T>(0).get(0);
                            let y = ctx.read::<T>(1).get(0);
                            ctx.write::<T>(2).set(0, op.eval(x, y));
                        }),
                ),
                StepOp::Unop { op, a, out: slot } => out.tasks.push(
                    TaskBuilder::new("scalar_unop")
                        .read_all(&self.scalars[a])
                        .write_all(&self.scalars[slot])
                        .shared_body(move |ctx| {
                            let x = ctx.read::<T>(0).get(0);
                            ctx.write::<T>(1).set(0, op.eval(x));
                        }),
                ),
                StepOp::Apply {
                    op,
                    dst,
                    src,
                    transpose,
                } => self.apply_tasks(op, dst, src, transpose, &mut out),
            }
        }
        out
    }
}

impl<T: Scalar> Backend<T> for ExecBackend<T> {
    fn alloc_vector(&mut self, comps: &[CompSpec]) -> BVec {
        let workers = self.rt.num_workers();
        let v = ExecVec {
            comps: comps
                .iter()
                .enumerate()
                .map(|(ci, c)| ExecComp {
                    buf: Buffer::filled(c.len as usize, T::ZERO),
                    piece_count: c.partition.num_colors(),
                    lanes: Lane::of(ci, c.partition.pieces(), workers),
                })
                .collect(),
        };
        self.vectors.push(v);
        self.handles.add_vector(comps)
    }

    /// The new vector's zeroing is recorded as a pooled one's is, so
    /// both make the same record.
    fn alloc_workspace_vector(&mut self, comps: &[CompSpec]) -> BVec {
        let v = self.alloc_vector(comps);
        self.set_zero(v);
        v
    }

    fn fill_component(&mut self, v: BVec, comp: usize, data: &[T]) {
        self.quiesce();
        self.vectors[v].comps[comp].buf.fill_from(data);
    }

    fn read_component(&mut self, v: BVec, comp: usize) -> Vec<T> {
        self.quiesce();
        self.vectors[v].comps[comp].buf.snapshot()
    }

    fn register_operator(&mut self, spec: OpSetSpec<T>) -> OpHandle {
        // The record's ops were recorded against the epoch that ends
        // here.
        self.close_record(&[]);
        // Each tile lowers to the kernel its format and structure give
        // it; a structurally empty tile launches nothing, ever: its
        // output rows fall to the apply plan's residual zero task.
        let mut tiles: Vec<ExecTile<T>> = Vec::new();
        for comp in &spec.components {
            let matrix = comp.matrix.as_ref();
            let choice = spec.kernel_choice;
            lower_tiles(matrix, &comp.tiles, choice, &mut |t, kernel, key| {
                if !kernel.is_empty() {
                    tiles.push(ExecTile::new(t, kernel, key));
                }
            });
        }
        // A spec's matrices map its sol components to its rhs
        // components, so they give every tiled component's length.
        let comp_len = |transpose: bool, comp: usize| {
            spec.components
                .iter()
                .find_map(|c| match transpose {
                    false if c.rhs_comp == comp => Some(c.matrix.range_space().size()),
                    true if c.sol_comp == comp => Some(c.matrix.domain_space().size()),
                    _ => None,
                })
                .expect("a tiled component belongs to an operator component")
        };
        let plans = [
            build_apply_plan(&tiles, false, |c| comp_len(false, c)),
            build_apply_plan(&tiles, true, |c| comp_len(true, c)),
        ];
        self.opsets.push(ExecOpSet { tiles, plans });
        self.new_epoch();
        self.opsets.len() - 1
    }

    fn handles(&mut self) -> &mut Handles {
        &mut self.handles
    }

    /// Every task-generating backend call comes through here, and is
    /// only recorded, inside a step or not: it runs when the record
    /// closes. A `dot_many` is one reduction stage: every pair's
    /// partial tasks share one partials buffer, made when the call is
    /// lowered, and a single `dot_reduce` task combines them all. A
    /// reused result slot may still have readers in flight; the op's
    /// write task is ordered after them by the step's compiled graph.
    fn emit(&mut self, op: StepOp, dots: &[(BVec, BVec, SRef)], value: Option<T>) {
        if let StepOp::Dots { .. } = op {
            self.note_reduction();
        }
        let slots = self.handles.slots();
        self.scalars
            .resize_with(slots, || Buffer::filled(1, T::ZERO));
        self.step.key.dots.extend_from_slice(dots);
        self.step.consts.extend(value);
        self.step.key.ops.push(op);
    }

    fn scalar_get(&mut self, s: SRef) -> T {
        self.scalar_get_many(&[s])[0]
    }

    /// No task, no channel: the open record closes with the slots as
    /// its reads, so the step that writes them is submitted and waited
    /// for in one call and this thread runs it; without a record, one
    /// wait until the tasks writing the slots have retired — during
    /// which this thread runs ready tasks ([`Runtime::wait_written`]).
    /// Then every slot is read where it is. The part of the wait spent
    /// parked is timed as one reduction stall, whatever
    /// `scalars.len()` is.
    fn scalar_get_many(&mut self, scalars: &[SRef]) -> Vec<T> {
        let waited = self.close_record(scalars);
        if scalars.is_empty() {
            return Vec::new();
        }
        let waited = waited.unwrap_or_else(|| {
            self.rt
                .wait_written(scalars.iter().map(|&s| self.scalars[s].id()))
        });
        self.read_slots(scalars, waited)
    }

    /// The ops recorded before the step run first, as a record of
    /// their own.
    fn step_begin(&mut self) {
        assert!(!self.in_step, "nested step_begin");
        self.close_record(&[]);
        self.handles.begin_step();
        self.in_step = true;
        self.step_compiled = false;
    }

    /// The step's last record is submitted and waited for in one call
    /// ([`Runtime::run_program`] with the slots of `reads`), so the
    /// thread that waits runs the step instead of waking a worker for
    /// it. The step is captured if one of its records was compiled
    /// here, and replayed otherwise.
    fn step_end(&mut self, reads: &[SRef]) -> (StepOutcome, Vec<T>) {
        let values = self.scalar_get_many(reads);
        self.handles.end_step();
        self.in_step = false;
        let outcome = if std::mem::take(&mut self.step_compiled) {
            self.steps_captured += 1;
            StepOutcome::Captured
        } else {
            self.steps_replayed += 1;
            StepOutcome::Replayed
        };
        (outcome, values)
    }

    fn fence(&mut self) {
        self.quiesce();
    }

    fn take_fault(&mut self) -> Option<BackendFault> {
        self.close_record(&[]);
        // Pick up failures whose tasks retired without passing
        // through a fencing operation since.
        absorb_failure(&self.rt, &mut self.fault);
        self.fault.take()
    }

    /// The way from a planner to this backend and its runtime: the
    /// record closes first, so whatever the caller submits there
    /// comes after the ops recorded so far.
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self.close_record(&[]);
        self
    }
}

impl<T: Scalar> Drop for ExecBackend<T> {
    /// The ops recorded since the last record closed still run.
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.close_record(&[]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{OpComponentSpec, ScalarOp, ScalarUnop};
    use crate::partitioning::compute_tiles;
    use kdr_sparse::{Csr, KernelChoice, Stencil};

    fn backend() -> ExecBackend<f64> {
        ExecBackend::new(4)
    }

    fn spec(n: u64, pieces: usize) -> CompSpec {
        CompSpec::blocks(n, pieces)
    }

    #[test]
    fn vector_ops_roundtrip() {
        let mut b = backend();
        let v = b.alloc_vector(&[spec(8, 2)]);
        let w = b.alloc_vector(&[spec(8, 2)]);
        b.fill_component(v, 0, &[1.0; 8]);
        b.fill_component(w, 0, &[2.0; 8]);
        let two = b.scalar_const(2.0);
        b.axpy(v, two, w); // v = 1 + 2*2 = 5
        b.scal(v, two); // v = 10
        let half = b.scalar_const(0.5);
        b.xpay(v, half, w); // v = 2 + 0.5*10 = 7
        assert_eq!(b.read_component(v, 0), vec![7.0; 8]);
        // copy
        b.copy(w, v);
        assert_eq!(b.read_component(w, 0), vec![7.0; 8]);
    }

    #[test]
    fn dot_across_components() {
        let mut b = backend();
        let v = b.alloc_vector(&[spec(4, 2), spec(3, 1)]);
        let w = b.alloc_vector(&[spec(4, 2), spec(3, 1)]);
        b.fill_component(v, 0, &[1.0, 2.0, 3.0, 4.0]);
        b.fill_component(v, 1, &[1.0, 1.0, 1.0]);
        b.fill_component(w, 0, &[1.0; 4]);
        b.fill_component(w, 1, &[2.0, 3.0, 4.0]);
        let d = b.dot(v, w);
        assert_eq!(b.scalar_get(d), 10.0 + 9.0);
    }

    #[test]
    fn scalar_pipeline() {
        let mut b = backend();
        let x = b.scalar_const(9.0);
        let y = b.scalar_const(2.0);
        let s = b.scalar_binop(ScalarOp::Div, x, y); // 4.5
        let r = b.scalar_unop(ScalarUnop::Sqrt, x); // 3
        let t = b.scalar_binop(ScalarOp::Add, s, r); // 7.5
        assert_eq!(b.scalar_get(t), 7.5);
    }

    #[test]
    fn scalar_get_many_forces_every_slot_with_zero_tasks() {
        let mut b = backend();
        let x = b.scalar_const(9.0);
        let y = b.scalar_const(2.0);
        let q = b.scalar_binop(ScalarOp::Div, x, y);
        let submitted = |b: &ExecBackend<f64>| b.metrics().runtime.tasks_submitted;
        assert_eq!(submitted(&b), 0, "two stores and a division, recorded");
        assert_eq!(b.scalar_get_many(&[q, x, y, q]), vec![4.5, 9.0, 2.0, 4.5]);
        // The record ran as one program, waited for as it went in.
        let nodes = b.programs[0].program.trace().num_nodes() as u64;
        assert_eq!(
            submitted(&b),
            nodes,
            "no read task: the record's nodes, then the slots"
        );
        assert!(b.scalar_get_many(&[]).is_empty());
        assert_eq!(submitted(&b), nodes, "nothing to force, nothing submitted");
        let m = b.metrics().runtime;
        assert_eq!(m.tasks_executed + m.tasks_fused, 3);
        assert_eq!(m.task_counts.keys().copied().collect::<Vec<_>>(), ["scalar_binop", "scalar_set"]);
    }

    #[test]
    fn scalar_slots_are_reused_lowest_first() {
        let mut b = backend();
        let x = b.scalar_const(1.0);
        let y = b.scalar_const(2.0);
        assert_eq!((x, y), (0, 1));
        assert_eq!(b.scalar_slots(), 2);
        b.scalar_release(x);
        let z = b.scalar_const(3.0);
        assert_eq!(z, x, "freed slot must be reused");
        assert_eq!(b.scalar_slots(), 2, "arena must not grow");
        // The reused slot's store is ordered after outstanding work.
        assert_eq!(b.scalar_get(z), 3.0);
        assert_eq!(b.scalar_get(y), 2.0);
    }

    /// One component of `n` elements dealt to three pieces in blocks
    /// of 19: every piece is several runs (two full lane blocks and a
    /// tail each, the last one ragged).
    fn striped(n: u64) -> CompSpec {
        CompSpec {
            len: n,
            partition: Partition::block_cyclic(n, 3, 19),
        }
    }

    /// `dot` is the one-pair `dot_many`, so what this checks is the
    /// slot offsets of a batch: a pair's sum reads its own partials
    /// wherever they sit in the shared buffer.
    #[test]
    fn dot_many_matches_separate_dots_bitwise() {
        // Pieces of one short run, of one run of several lane blocks
        // plus a tail, and of several runs.
        for cs in [spec(23, 3), spec(203, 3), striped(203)] {
            let n = cs.len;
            let xv: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.5).collect();
            let yv: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos() - 0.25).collect();
            let zv: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 1.0)).collect();
            let mut b = backend();
            let x = b.alloc_vector(std::slice::from_ref(&cs));
            let y = b.alloc_vector(std::slice::from_ref(&cs));
            let z = b.alloc_vector(std::slice::from_ref(&cs));
            b.fill_component(x, 0, &xv);
            b.fill_component(y, 0, &yv);
            b.fill_component(z, 0, &zv);
            let separate = [b.dot(x, y), b.dot(x, z), b.dot(z, z)].map(|s| b.scalar_get(s));
            let fused = b.dot_many(&[(x, y), (x, z), (z, z)]);
            let fused = [fused[0], fused[1], fused[2]].map(|s| b.scalar_get(s));
            for (f, s) in fused.iter().zip(&separate) {
                assert_eq!(
                    f.to_bits(),
                    s.to_bits(),
                    "a batched dot must not depend on its slot offset (n = {n})"
                );
            }
            assert!(b.dot_many(&[]).is_empty());
        }
    }

    /// An `axpy` and the dot recorded right after it: one
    /// `axpy+dot_partial` per lane when the pair reads the updated
    /// vector and its first operand has that vector's lanes, an `axpy`
    /// and a `dot_partial` per lane otherwise. The bits are checked
    /// against the reference backend in `tests/lowering.rs`.
    #[test]
    fn an_axpy_fuses_with_the_dot_after_it_only_over_the_updated_lanes() {
        for (cs, other) in [(striped(203), spec(203, 4)), (spec(203, 3), striped(203))] {
            for workers in [1, 3, 4] {
                let mut b = ExecBackend::<f64>::new(workers);
                let [s, d, y] = [(); 3].map(|_| b.alloc_vector(std::slice::from_ref(&cs)));
                let w = b.alloc_vector(std::slice::from_ref(&other));
                let cases = [
                    ((d, d), true),
                    ((d, y), true),
                    ((y, d), true),
                    ((d, w), true),
                    ((w, d), false),
                    ((s, y), false),
                ];
                for ((p, q), fused) in cases {
                    let before = b.metrics().runtime.task_counts.get("axpy+dot_partial").copied();
                    let alpha = b.scalar_const(0.3);
                    b.axpy(d, alpha, s);
                    let r = b.dot(p, q);
                    b.scalar_get(r);
                    let after = b.metrics().runtime.task_counts.get("axpy+dot_partial").copied();
                    assert_eq!(before != after, fused, "({p}, {q}) on {workers} workers");
                    b.scalar_release(alpha);
                    b.scalar_release(r);
                }
            }
        }
    }

    /// Unequal pieces, two of them of two runs and one empty: on two
    /// workers the even colours' lane is a footprint of two runs, the
    /// first holding four chains and the second two (a second run each
    /// of pieces 0 and 2); on one worker the eight chains are two
    /// groups of four, the second holding those second runs.
    fn uneven() -> CompSpec {
        let runs = |rs: &[(u64, u64)]| {
            IntervalSet::from_runs(rs.iter().map(|&(lo, hi)| Run::new(lo, hi)))
        };
        let pieces = vec![
            runs(&[(0, 10), (150, 170)]),
            runs(&[(70, 150)]),
            runs(&[(10, 30), (170, 200)]),
            runs(&[(200, 240)]),
            runs(&[(30, 31)]),
            IntervalSet::default(),
            runs(&[(31, 70)]),
        ];
        CompSpec {
            len: 240,
            partition: Partition::new(240, pieces),
        }
    }

    /// A lane's chains go four abreast, the rest one by one: on lanes
    /// of unequal pieces, multi-run pieces and multi-run footprints,
    /// the lanes take the shapes the partition is built for, and an
    /// `axpy` fuses with the dot after it on every lane. The bits are
    /// checked against the reference backend in `tests/lowering.rs`.
    #[test]
    fn four_chain_lanes_take_the_shapes_the_partition_is_built_for() {
        let cs = uneven();
        for workers in [1, 2, 3, 7] {
            let mut b = ExecBackend::<f64>::new(workers);
            let [y, s, d] = [(); 3].map(|_| b.alloc_vector(std::slice::from_ref(&cs)));
            for q in [d, y] {
                let alpha = b.scalar_const(0.3);
                b.axpy(d, alpha, s);
                let r = b.dot(d, q);
                b.scalar_get(r);
                b.scalar_release(alpha);
                b.scalar_release(r);
            }
            let what = format!("{workers} workers");
            let lanes = &b.vectors[d].comps[0].lanes;
            let fused = b.metrics().runtime.task_counts.get("axpy+dot_partial").copied();
            assert_eq!(fused, Some(2 * lanes.len() as u64), "{what}");
            let shape = |lane: &Lane| -> Vec<usize> {
                lane.chains.iter().map(|(_, c)| c.len()).collect()
            };
            match workers {
                1 => assert_eq!(shape(&lanes[0]), [8]),
                2 => assert_eq!(shape(&lanes[0]), [4, 2]),
                _ => {}
            }
        }
    }

    /// `x += αp`, then `p = r + βp`: the `axpy` lowers into the `xpay`
    /// as one `axpy+xpay` body per lane when nothing in between reads
    /// or writes `x`, writes `p` or writes `α`'s slot, and `x`, `p`,
    /// `r` have the same lanes; otherwise each lowers where it was
    /// recorded. The bits — `x` and `p`, and what ran in between — are
    /// checked against the reference backend in `tests/lowering.rs`.
    #[test]
    fn an_axpy_lowers_into_the_xpay_only_when_nothing_between_sees_it() {
        #[derive(Clone, Copy, Debug, PartialEq)]
        enum Between {
            Nothing,
            ReadsP,
            CopiesX,
            DotsX,
            ScalesP,
            AlphaSlotConst,
            AlphaSlotBinop,
            AlphaSlotDots,
            XOfOtherLanes,
        }
        let (cs, other) = (uneven(), CompSpec::blocks(240, 4));
        for workers in [1, 3] {
            for between in [
                Between::Nothing,
                Between::ReadsP,
                Between::CopiesX,
                Between::DotsX,
                Between::ScalesP,
                Between::AlphaSlotConst,
                Between::AlphaSlotBinop,
                Between::AlphaSlotDots,
                Between::XOfOtherLanes,
            ] {
                let mut b = ExecBackend::<f64>::new(workers);
                let x_spec = if between == Between::XOfOtherLanes { &other } else { &cs };
                let x = b.alloc_vector(std::slice::from_ref(x_spec));
                let [p, r, w] = [(); 3].map(|_| b.alloc_vector(std::slice::from_ref(&cs)));
                let bs = b.scalar_const(-0.7);
                let one = b.scalar_const(1.0);
                let alpha = b.scalar_const(0.3);
                b.axpy(x, alpha, p);
                match between {
                    Between::Nothing | Between::XOfOtherLanes => {}
                    Between::ReadsP => _ = b.dot(p, r),
                    Between::CopiesX => b.copy(w, x),
                    Between::DotsX => _ = b.dot(w, x),
                    Between::ScalesP => b.scal(p, one),
                    Between::AlphaSlotConst => {
                        b.scalar_release(alpha);
                        assert_eq!(b.scalar_const(2.0), alpha, "the released slot is taken again");
                    }
                    Between::AlphaSlotBinop => {
                        b.scalar_release(alpha);
                        assert_eq!(b.scalar_binop(ScalarOp::Add, one, one), alpha);
                    }
                    Between::AlphaSlotDots => {
                        b.scalar_release(alpha);
                        assert_eq!(b.dot(w, w), alpha);
                    }
                }
                b.xpay(p, bs, r);
                b.fence();
                let fused = b.metrics().runtime.task_counts.contains_key("axpy+xpay");
                let want = matches!(between, Between::Nothing | Between::ReadsP);
                assert_eq!(fused, want, "{between:?} on {workers} workers");
            }
        }
    }

    #[test]
    fn dot_many_counts_one_reduction_stage() {
        let mut b = backend();
        let x = b.alloc_vector(&[spec(16, 4)]);
        let y = b.alloc_vector(&[spec(16, 4)]);
        b.fill_component(x, 0, &[1.0; 16]);
        b.fill_component(y, 0, &[2.0; 16]);
        let base = b.metrics().reduction_stages;
        b.step_begin();
        let d = b.dot_many(&[(x, y), (x, x), (y, y)]);
        b.step_end(&[]);
        let m = b.metrics();
        assert_eq!(m.reduction_stages - base, 1, "one stage for three dots");
        assert_eq!(m.fences_per_iteration, 1.0);
        assert_eq!(b.scalar_get(d[0]), 32.0);
        assert_eq!(b.scalar_get(d[1]), 16.0);
        assert_eq!(b.scalar_get(d[2]), 64.0);
        // Stall is the time a read spent parked, booked here and on
        // the runtime alike.
        let m = b.metrics();
        assert_eq!(m.reduction_stall_ns, m.runtime.reduction_stall_ns);
        for s in d {
            b.scalar_release(s);
        }
    }

    #[test]
    fn dot_many_steps_replay_from_the_trace_cache() {
        let mut b = backend();
        let x = b.alloc_vector(&[spec(16, 4)]);
        let y = b.alloc_vector(&[spec(16, 4)]);
        b.fill_component(x, 0, &[1.0; 16]);
        b.fill_component(y, 0, &[2.0; 16]);
        let mut outcomes = Vec::new();
        for _ in 0..4 {
            b.step_begin();
            let d = b.dot_many(&[(x, y), (y, y)]);
            // Forced with the step: what a later read returns too.
            let (outcome, values) = b.step_end(&d);
            outcomes.push(outcome);
            assert_eq!(values, [32.0, 64.0]);
            assert_eq!(b.scalar_get(d[0]), 32.0);
            assert_eq!(b.scalar_get(d[1]), 64.0);
            for s in d {
                b.scalar_release(s);
            }
        }
        assert_eq!(outcomes[0], StepOutcome::Captured);
        assert!(
            outcomes[1..].iter().all(|&o| o == StepOutcome::Replayed),
            "fused-dot steps must be shape-stable: {outcomes:?}"
        );
    }

    type Build = fn(&mut crate::Planner<f64>) -> Box<dyn crate::Solver<f64>>;

    /// Step a solver on lap2d 24² in 16 pieces on a runtime of
    /// `workers` workers for twenty steps, then hand `f` the backend
    /// and how many of its programs the solver's set-up left (they
    /// come first).
    fn after_twenty_steps<R>(
        workers: usize,
        preconditioned: bool,
        build: Build,
        f: impl FnOnce(&mut ExecBackend<f64>, usize) -> R,
    ) -> R {
        let s = Stencil::lap2d(24, 24);
        let n = s.unknowns();
        let m: Arc<dyn SparseMatrix<f64>> = Arc::new(s.to_csr::<f64, u64>() as Csr<f64, u64>);
        let mut planner = crate::Planner::new(Box::new(ExecBackend::<f64>::new(workers)));
        let part = Partition::equal_blocks(n, 16);
        let d = planner.add_sol_vector(n, Some(part.clone()));
        let r = planner.add_rhs_vector(n, Some(part));
        planner.add_operator(Arc::clone(&m), d, r);
        if preconditioned {
            planner.add_preconditioner(Arc::new(crate::precond::jacobi(m.as_ref())), d, r);
        }
        planner.set_rhs_data(r, &kdr_sparse::stencil::rhs_vector::<f64>(n, 3));
        let mut solver = build(&mut planner);
        // The solver's set-up ops are a program of their own.
        planner.fence();
        let exec = |b: &mut dyn Backend<f64>| {
            let exec = b.as_any().downcast_mut::<ExecBackend<f64>>();
            exec.expect("built on the exec backend").trace_cache_len()
        };
        let preamble = planner.with_backend(exec);
        crate::solve(&mut planner, solver.as_mut(), crate::SolveControl::fixed(20))
            .expect("twenty steps on a Laplacian do not break down");
        planner.with_backend(|b| {
            let exec = b.as_any().downcast_mut::<ExecBackend<f64>>();
            f(exec.expect("built on the exec backend"), preamble)
        })
    }

    /// Step a solver as [`after_twenty_steps`] does, check every
    /// compiled trace its steps left behind (each captured edge inside
    /// a node or from an earlier node to a later one, which also makes
    /// the node graph acyclic), and return their `(tasks, nodes)`
    /// sizes.
    fn compiled_step_sizes(
        workers: usize,
        preconditioned: bool,
        build: Build,
    ) -> Vec<(usize, usize)> {
        // CG, PCG and BiCGStab each capture three step shapes
        // (DESIGN §6): the rest of twenty steps replay.
        after_twenty_steps(workers, preconditioned, build, |exec, preamble| {
            let (_, replayed) = exec.step_counters();
            assert!(replayed >= 4, "steady state must replay");
            exec.programs[preamble..]
                .iter()
                .map(|cached| {
                    let t = cached.program.trace();
                    for i in 0..t.len() {
                        for &dep in t.deps_of(i) {
                            assert!(dep < i && t.node_of(dep) <= t.node_of(i), "edge {dep} -> {i}");
                        }
                    }
                    (t.len(), t.num_nodes())
                })
                .collect()
        })
    }

    /// A compiled first run is what a live capture of the same task
    /// list records, edge for edge and node for node: every program
    /// of every traced solver (set-up ones included), on two workers,
    /// against `begin_trace` / `end_trace` around its tasks on a
    /// runtime of its own.
    #[test]
    fn on_two_workers_a_compiled_first_run_has_the_graph_a_live_capture_records() {
        use crate::*;
        let solvers: [(bool, Build); 12] = [
            (false, |p| Box::new(CgSolver::new(p))),
            (true, |p| Box::new(CgSolver::new(p))),
            (false, |p| Box::new(BiCgSolver::new(p))),
            (false, |p| Box::new(CgsSolver::new(p))),
            (false, |p| Box::new(BiCgStabSolver::new(p))),
            (true, |p| Box::new(BiCgStabSolver::new(p))),
            (false, |p| Box::new(TfqmrSolver::new(p))),
            (false, |p| Box::new(MinresSolver::new(p))),
            (false, |p| Box::new(FusedCgSolver::new(p))),
            (false, |p| Box::new(PipelinedCgSolver::new(p))),
            (false, |p| Box::new(PipelinedCrSolver::new(p))),
            (false, |p| Box::new(SStepCgSolver::new(p))),
        ];
        for (k, (preconditioned, build)) in solvers.into_iter().enumerate() {
            after_twenty_steps(2, preconditioned, build, |exec, _| {
                assert!(exec.programs.len() > 1, "solver {k}");
                let live_rt = Runtime::new(2);
                for (at, cached) in exec.programs.iter().enumerate() {
                    let consts = cached
                        .key
                        .ops
                        .iter()
                        .filter(|op| matches!(op, StepOp::Const { .. }));
                    let record = StepRecord {
                        key: cached.key.clone(),
                        consts: vec![0.0; consts.count()],
                    };
                    live_rt.begin_trace().expect("no capture is open");
                    for task in exec.lower(&record, &[]).tasks {
                        live_rt.submit(task).expect("backend tasks carry a body");
                    }
                    let live = live_rt.end_trace().expect("the capture was opened above");
                    let compiled = cached.program.trace();
                    let what = format!("solver {k}, program {at}");
                    assert_eq!(
                        (compiled.len(), compiled.num_nodes()),
                        (live.len(), live.num_nodes()),
                        "{what}"
                    );
                    for i in 0..live.len() {
                        assert_eq!(compiled.deps_of(i), live.deps_of(i), "{what}, task {i}");
                        assert_eq!(compiled.node_of(i), live.node_of(i), "{what}, task {i}");
                    }
                }
            });
        }
    }

    #[test]
    fn on_two_workers_solver_steps_compile_to_two_nodes_per_phase() {
        // Two workers: the sixteen pieces' colours have two homes, so
        // the vector ops and dot partials are two lane tasks each, and
        // each phase is two nodes. CG: [spmv × 8 + dot_partial] twice,
        // [dot_reduce, alpha, -alpha], [axpy+dot_partial] twice,
        // [dot_reduce, beta], [axpy+xpay] twice (the `x` update runs
        // in the `xpay`'s pass).
        let cg = compiled_step_sizes(2, false, |p| Box::new(crate::CgSolver::new(p)));
        assert!(!cg.is_empty());
        assert!(
            cg.iter().all(|&s| s == (16 + 2 * 3 + 5, 3 * 2 + 2)),
            "{cg:?}"
        );
        // PCG: the same, the Jacobi apply's 16 tiles and the second
        // partial in the middle phase.
        let pcg = compiled_step_sizes(2, true, |p| Box::new(crate::CgSolver::new(p)));
        assert!(!pcg.is_empty());
        assert!(
            pcg.iter().all(|&s| s == (2 * 16 + 2 * 5 + 5, 3 * 2 + 2)),
            "{pcg:?}"
        );
        // BiCGStab: its three reduction stages cut the pieces' tasks
        // into four phases of two nodes, but for one: in the phase of
        // the second SpMV, each piece's SpMV reads its neighbours'
        // `s`, written in the other home's lane task, so the odd
        // home's SpMVs would close a cycle with the even home's node
        // and open a third. The 13 scalar tasks are five chains —
        // [dot_reduce, alpha, -alpha], [dot_reduce], [tiny, tt + tiny,
        // omega, -omega], [dot_reduce, rho'/rho], [alpha/omega, beta,
        // -omega]. The constant `tiny` depends on nothing, so it opens
        // a node, and the chain from the second dot_reduce continues
        // in that one.
        let bicgstab = compiled_step_sizes(2, false, |p| Box::new(crate::BiCgStabSolver::new(p)));
        assert!(!bicgstab.is_empty());
        assert!(
            bicgstab
                .iter()
                .all(|&s| s == (2 * 16 + 2 * 13 + 13, 4 * 2 + 1 + 5)),
            "{bicgstab:?}"
        );
    }

    #[test]
    fn on_one_worker_solver_steps_compile_to_one_node_per_step() {
        // One worker: the sixteen pieces are one lane, so a vector op
        // or a dot's partials is one task, and every task, coloured or
        // not, has the one worker for its home: a step is one node
        // that runs its bodies in submission order. CG: 16 tile tasks,
        // the `p·q` partial task, the `axpy+dot_partial` of `r` and
        // `r·r`, the `axpy+xpay` of `x` and `p` and 5 scalar tasks.
        let cg = compiled_step_sizes(1, false, |p| Box::new(crate::CgSolver::new(p)));
        assert!(!cg.is_empty());
        assert!(cg.iter().all(|&s| s == (16 + 1 + 1 + 1 + 5, 1)), "{cg:?}");
        // PCG: the Jacobi apply's 16 tiles, an `axpy` of `r` of its
        // own and a second partial on top.
        let pcg = compiled_step_sizes(1, true, |p| Box::new(crate::CgSolver::new(p)));
        assert!(!pcg.is_empty());
        assert!(pcg.iter().all(|&s| s == (2 * 16 + 5 + 5, 1)), "{pcg:?}");
        // BiCGStab: two SpMVs, 13 lane tasks and 13 scalar tasks,
        // still one node.
        let bicgstab = compiled_step_sizes(1, false, |p| Box::new(crate::BiCgStabSolver::new(p)));
        assert!(!bicgstab.is_empty());
        assert!(
            bicgstab.iter().all(|&s| s == (2 * 16 + 13 + 13, 1)),
            "{bicgstab:?}"
        );
    }

    #[test]
    fn repeated_steps_hit_the_trace_cache() {
        let mut b = backend();
        let v = b.alloc_vector(&[spec(16, 4)]);
        let w = b.alloc_vector(&[spec(16, 4)]);
        b.fill_component(v, 0, &[1.0; 16]);
        b.fill_component(w, 0, &[2.0; 16]);
        let mut outcomes = Vec::new();
        for i in 0..8 {
            b.step_begin();
            let c = b.scalar_const(1.0 + i as f64);
            b.axpy(v, c, w);
            b.scalar_release(c);
            outcomes.push(b.step_end(&[]).0);
        }
        assert_eq!(outcomes[0], StepOutcome::Captured);
        assert!(
            outcomes[1..].iter().all(|&o| o == StepOutcome::Replayed),
            "identical shapes must replay: {outcomes:?}"
        );
        // Differing constants flowed through the replays.
        let got = b.read_component(v, 0);
        let expect = 1.0 + 2.0 * (1.0 + 2.0 + 3.0 + 4.0 + 5.0 + 6.0 + 7.0 + 8.0);
        assert!((got[0] - expect).abs() < 1e-12, "{} vs {expect}", got[0]);
        assert!(b.metrics().runtime.tasks_replayed > 0);
    }

    #[test]
    fn forcing_mid_step_ends_the_step_there() {
        let mut b = backend();
        let v = b.alloc_vector(&[spec(8, 2)]);
        b.fill_component(v, 0, &[2.0; 8]);
        let mut outcomes = Vec::new();
        for _ in 0..3 {
            b.step_begin();
            let d = b.dot(v, v);
            let got = b.scalar_get(d); // forces: the step's first record ends here
            assert_eq!(got, 32.0);
            let c = b.scalar_const(1.0);
            b.scal(v, c);
            b.scalar_release(c);
            b.scalar_release(d);
            outcomes.push(b.step_end(&[]).0);
        }
        use StepOutcome::{Captured, Replayed};
        assert_eq!(outcomes, [Captured, Replayed, Replayed]);
        assert_eq!(
            b.step_counters(),
            (1, 2),
            "one count per step, not per record"
        );
        assert_eq!(
            b.trace_cache_len(),
            2,
            "the step's two records are programs"
        );
        let first_runs: usize = b
            .programs
            .iter()
            .map(|p| p.program.trace().num_nodes())
            .sum();
        assert_eq!(
            b.metrics().runtime.tasks_analyzed,
            first_runs as u64,
            "nothing else analyzed"
        );
        assert_eq!(b.read_component(v, 0), vec![2.0; 8]);
    }

    #[test]
    fn apply_matches_reference_spmv() {
        let s = Stencil::lap2d(6, 6);
        let m: Arc<dyn SparseMatrix<f64>> = Arc::new(s.to_csr::<f64, u64>() as Csr<f64, u64>);
        let part = Partition::equal_blocks(36, 4);
        let tiles = compute_tiles(m.as_ref(), &part, &part, 0, 0);
        let mut b = backend();
        let op = b.register_operator(OpSetSpec {
            components: vec![OpComponentSpec {
                matrix: Arc::clone(&m),
                sol_comp: 0,
                rhs_comp: 0,
                tiles,
            }],
            kernel_choice: KernelChoice::Auto,
        });
        let cs = CompSpec {
            len: 36,
            partition: part,
        };
        let x = b.alloc_vector(std::slice::from_ref(&cs));
        let y = b.alloc_vector(std::slice::from_ref(&cs));
        let xv = kdr_sparse::stencil::rhs_vector::<f64>(36, 3);
        b.fill_component(x, 0, &xv);
        b.apply(op, y, x, false);
        let got = b.read_component(y, 0);
        let mut expect = vec![0.0; 36];
        m.spmv(&xv, &mut expect);
        for i in 0..36 {
            assert!((got[i] - expect[i]).abs() < 1e-12, "row {i}");
        }
        // Adjoint (symmetric matrix: same values).
        b.apply(op, y, x, true);
        let got_t = b.read_component(y, 0);
        for i in 0..36 {
            assert!((got_t[i] - expect[i]).abs() < 1e-12, "t row {i}");
        }
    }

    #[test]
    fn forced_kernel_kinds_are_bitwise_identical() {
        // Apply the same operator lowered to every kernel kind; every
        // result must match the forced-CSR reference bit for bit, in
        // both directions.
        let s = Stencil::lap2d(8, 8);
        let m: Arc<dyn SparseMatrix<f64>> = Arc::new(s.to_csr::<f64, u64>() as Csr<f64, u64>);
        let part = Partition::equal_blocks(64, 4);
        let xv = kdr_sparse::stencil::rhs_vector::<f64>(64, 5);
        let run = |choice: KernelChoice, transpose: bool| -> Vec<u64> {
            let tiles = compute_tiles(m.as_ref(), &part, &part, 0, 0);
            let mut b = backend();
            let op = b.register_operator(OpSetSpec {
                components: vec![OpComponentSpec {
                    matrix: Arc::clone(&m),
                    sol_comp: 0,
                    rhs_comp: 0,
                    tiles,
                }],
                kernel_choice: choice,
            });
            let cs = CompSpec {
                len: 64,
                partition: part.clone(),
            };
            let x = b.alloc_vector(std::slice::from_ref(&cs));
            let y = b.alloc_vector(std::slice::from_ref(&cs));
            b.fill_component(x, 0, &xv);
            b.apply(op, y, x, transpose);
            b.read_component(y, 0)
                .into_iter()
                .map(f64::to_bits)
                .collect()
        };
        for transpose in [false, true] {
            let want = run(KernelChoice::Force(kdr_sparse::KernelKind::Csr), transpose);
            for kind in kdr_sparse::KernelKind::ALL {
                assert_eq!(
                    run(KernelChoice::Force(kind), transpose),
                    want,
                    "{kind:?} transpose {transpose}"
                );
            }
            assert_eq!(run(KernelChoice::Auto, transpose), want, "auto {transpose}");
        }
    }

    #[test]
    fn stencil_tiles_lower_to_dia_and_report_in_metrics() {
        let s = Stencil::lap2d(8, 8);
        let m: Arc<dyn SparseMatrix<f64>> = Arc::new(s.to_csr::<f64, u64>() as Csr<f64, u64>);
        let part = Partition::equal_blocks(64, 4);
        let tiles = compute_tiles(m.as_ref(), &part, &part, 0, 0);
        let mut b = backend();
        b.register_operator(OpSetSpec {
            components: vec![OpComponentSpec {
                matrix: Arc::clone(&m),
                sol_comp: 0,
                rhs_comp: 0,
                tiles,
            }],
            kernel_choice: KernelChoice::Auto,
        });
        let tiles_by_kernel = b.metrics().tiles_by_kernel;
        // A 2D Laplacian slab is banded: every tile must lower to DIA.
        assert_eq!(tiles_by_kernel.get("dia"), Some(&4), "{tiles_by_kernel:?}");
    }

    #[test]
    fn empty_tiles_launch_no_tasks() {
        // A matrix whose only entry sits in the first of four range
        // pieces: one tile registers, and apply launches exactly one
        // SpMV task plus the residual zero task.
        let t = kdr_sparse::Triples::from_entries(16, 16, vec![(0, 3, 2.0)]);
        let m: Arc<dyn SparseMatrix<f64>> = Arc::new(Csr::<f64, u64>::from_triples(t));
        let part = Partition::equal_blocks(16, 4);
        let tiles = compute_tiles(m.as_ref(), &part, &part, 0, 0);
        let mut b = backend();
        let op = b.register_operator(OpSetSpec {
            components: vec![OpComponentSpec {
                matrix: Arc::clone(&m),
                sol_comp: 0,
                rhs_comp: 0,
                tiles,
            }],
            kernel_choice: KernelChoice::Auto,
        });
        let cs = CompSpec {
            len: 16,
            partition: part,
        };
        let x = b.alloc_vector(std::slice::from_ref(&cs));
        let y = b.alloc_vector(std::slice::from_ref(&cs));
        b.fill_component(x, 0, &[1.0; 16]);
        let before = b.metrics().runtime.tasks_submitted;
        b.apply(op, y, x, false);
        b.fence();
        let spmv_tasks = b.metrics().runtime.tasks_submitted - before;
        assert_eq!(spmv_tasks, 2, "one kernel task + one zero task");
        let got = b.read_component(y, 0);
        assert_eq!(got[0], 2.0);
        assert!(got[1..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn apply_overwrites_stale_destination() {
        // The fused zero must erase whatever was in dst, including
        // points no tile writes.
        let s = Stencil::lap2d(4, 4);
        let m: Arc<dyn SparseMatrix<f64>> = Arc::new(s.to_csr::<f64, u64>() as Csr<f64, u64>);
        let part = Partition::equal_blocks(16, 2);
        let tiles = compute_tiles(m.as_ref(), &part, &part, 0, 0);
        let mut b = backend();
        let op = b.register_operator(OpSetSpec {
            components: vec![OpComponentSpec {
                matrix: Arc::clone(&m),
                sol_comp: 0,
                rhs_comp: 0,
                tiles,
            }],
            kernel_choice: KernelChoice::Auto,
        });
        let cs = CompSpec {
            len: 16,
            partition: part,
        };
        let x = b.alloc_vector(std::slice::from_ref(&cs));
        let y = b.alloc_vector(std::slice::from_ref(&cs));
        let xv = vec![1.0; 16];
        b.fill_component(x, 0, &xv);
        b.fill_component(y, 0, &[77.0; 16]); // stale garbage
        b.apply(op, y, x, false);
        let got = b.read_component(y, 0);
        let mut expect = vec![0.0; 16];
        m.spmv(&xv, &mut expect);
        for i in 0..16 {
            assert!((got[i] - expect[i]).abs() < 1e-12, "row {i}: {}", got[i]);
        }
    }
}
