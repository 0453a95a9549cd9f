//! Dynamic tracing: memoization of dependence analysis, the compiled
//! step graph a memoized step replays as, and the step program that
//! replays it without rebuilding a task.
//!
//! Iterative solvers submit the same task sequence every iteration.
//! Capturing one iteration as a [`Trace`] records the intra-trace
//! dependence edges and the final access frontier; replaying it
//! re-submits a same-shaped task list with the recorded edges,
//! skipping interval-set intersection work entirely. This reproduces
//! the dynamic-tracing optimization of Lee et al. (SC '18) that the
//! paper's implementation relies on.
//!
//! A [`StepProgram`] keeps a step's tasks themselves — bodies that
//! may run any number of times ([`TaskBuilder::shared_body`]) and their
//! requirement lists — next to the compiled trace, so
//! [`Runtime::run_program`](crate::Runtime::run_program) builds nothing
//! per task: the executor's nodes point into the program. That is the
//! one step engine, and a step's *first* run goes through it too:
//! [`Runtime::compile_program`](crate::Runtime::compile_program)
//! analyzes the task list on an analyzer of its own and compiles it
//! before anything runs, so no step is ever submitted task by task.
//! [`Runtime::replay`](crate::Runtime::replay) is an adapter onto the
//! same engine for a caller whose bodies differ from run to run: it
//! checks a freshly built task list against the [`ShapeSig`] of a
//! `begin_trace` capture, turns the list into a one-run program (a
//! run-once body is taken by its run) and schedules that the same way,
//! so fault decisions, spans, accounting and failure semantics are the
//! same.
//!
//! A program run, like a capture, begins from a quiescent runtime (the
//! runtime fences internally), so a step's first tasks have no
//! external dependences and the recorded frontier fully describes the
//! post-step access state. That is also why compiling on a fresh
//! analyzer finds the edges a live capture would: a capture starts from
//! a cleared analyzer on a quiescent runtime, so a step's edges are a
//! function of its task list alone. A run hands the recorded frontier
//! to the analyzer by reference ([`crate::graph`]): nothing is copied
//! unless an analyzed submission follows the run.
//!
//! # Compiled traces
//!
//! Neither `end_trace` nor `compile_program` keeps the analysis as a
//! per-task dependence list: each *compiles* it into a step graph of
//! scheduled **nodes**.
//! Walking the captured tasks in submission order, a task whose
//! *home worker* the placement rule fixes joins the most recent node
//! of that home whenever the node graph stays acyclic with it inside,
//! that is, unless one of the task's dependences sits in another node
//! that already (transitively) waits on that node. The home is the
//! worker the executor would queue the task on: `c % W` for colour
//! `c`, and worker 0 for a colourless task when `W = 1`, since
//! colourless nodes are dealt to the workers in turn. With more
//! workers a colourless task has no fixed home; it joins the most
//! recent colourless node under the same acyclicity test and one more
//! condition: one of its dependences is in that node (it extends a
//! chain). Otherwise a task opens a new node, so an independent
//! colourless task runs, and fails, on its own. A node waits for the
//! union of its members' outside dependences, runs their bodies back
//! to back in submission order on one worker, and releases its
//! successors when the last body returns. Every captured edge
//! therefore ends up either inside a node (honoured by the in-order
//! run) or between an earlier and a later node (honoured by the
//! scheduler), which is why a fused replay leaves every bit of every
//! buffer as the task-by-task run left it.
//!
//! The fusion key is the placement rule, so a node's members are tasks
//! that would have been queued on its worker anyway. On one worker
//! every task has the same home, so a step — whatever its colours and
//! scalar chains — is **one node**: a 16-piece CG step's 25 bodies
//! run back to back on whichever thread takes the node, and a driver
//! that submits the step and waits for it takes it itself
//! ([`Runtime::run_program`](crate::Runtime::run_program) with a read
//! list), so no thread is handed anything. On `W` workers the same
//! step is one node per phase and home — `W` nodes for each of the
//! three vector phases (`[spmv + dot_partial]`, `[axpy +
//! axpy+dot_partial]`, `[xpay]`) plus the two scalar chains `[dot_reduce +
//! alpha + −alpha]` and `[dot_reduce + beta]`. This costs no
//! parallelism worth having: the tasks of one home were already queued
//! on one worker and ran there one after another (unless stolen); the
//! node only stops paying a queue round trip and a retirement between
//! them. What is given up is the chance that a thief picks up the
//! second half of a home's work while the first half's successor work
//! is elsewhere, and that a waiting driver runs part of a phase beside
//! the worker. A scalar chain gives up less: its members are
//! sub-microsecond bodies that mostly wait on one another anyway, and
//! the node saves a queue round trip, a retirement and a possible
//! hand-off to another thread per link.
//!
//! A body that panics fails its node: the members after it are dropped
//! unrun, successor nodes are retired poisoned, and the failure stays
//! pending, so the next replay is refused until it is taken. On one
//! worker that drops the rest of the step.
//!
//! Nodes are stored topologically sorted with in-degrees and successor
//! lists, so a replay hands the executor a graph it can install
//! without looking anything up.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use kdr_index::IntervalSet;
use parking_lot::Mutex;

use crate::fault::RuntimeError;
use crate::graph::{Frontier, RecordedFrontier};
use crate::task::{Privilege, SharedBody, TaskBody, TaskBuilder, TaskContext, TaskMeta};

/// One scheduled node of a compiled step: the captured tasks that run
/// as one unit.
#[derive(Debug)]
pub(crate) struct GraphNode {
    /// Trace-local indices of the member tasks, in submission order;
    /// never empty. A replayed node is scheduled under the id `base +
    /// members[0]`.
    pub members: Vec<u32>,
    /// Nodes that must retire before this one may start.
    pub indegree: u32,
    /// Nodes (indices into [`StepGraph::nodes`], all later than this
    /// one) that wait on this one.
    pub succs: Vec<u32>,
}

impl GraphNode {
    /// Trace-local index of the first member.
    pub(crate) fn leader(&self) -> u32 {
        self.members[0]
    }
}

/// A captured step compiled for replay: nodes in a topological order,
/// and the node each captured task belongs to.
#[derive(Debug)]
pub(crate) struct StepGraph {
    pub nodes: Vec<GraphNode>,
    pub node_of: Vec<u32>,
}

/// The worker the placement rule fixes for a task, if it fixes one:
/// colour `c` is queued on worker `c % workers`, and a colourless task
/// is dealt to the workers in turn — which lands on worker 0 every
/// time when there is only one. A task with a home fuses into the open
/// node of that home.
fn home_worker(meta: &TaskMeta, workers: usize) -> Option<usize> {
    match meta.color {
        Some(c) => Some(c % workers),
        None => (workers == 1).then_some(0),
    }
}

/// A node under construction during [`StepGraph::compile`].
struct Group {
    members: Vec<usize>,
    /// Groups holding a dependence of a member (never this group).
    preds: Vec<usize>,
}

impl StepGraph {
    /// Compile a captured step for a runtime of `workers` workers.
    /// `deps[i]` lists the earlier tasks that task `i` waits on,
    /// `metas[i]` is its scheduling metadata (a task fuses by its home
    /// worker, [`home_worker`]).
    pub(crate) fn compile(deps: &[Vec<usize>], metas: &[TaskMeta], workers: usize) -> StepGraph {
        let n = deps.len();
        let mut groups: Vec<Group> = Vec::new();
        let mut group_of: Vec<usize> = Vec::with_capacity(n);
        // Most recent group per home worker, and the most recent
        // colourless one: the only merge candidates.
        let mut open: Vec<Option<usize>> = vec![None; workers];
        let mut open_colourless: Option<usize> = None;
        // Visit marks of the reachability walk, one generation per query.
        let mut seen: Vec<usize> = Vec::new();
        let mut stack: Vec<usize> = Vec::new();
        for i in 0..n {
            let mut dep_groups: Vec<usize> = deps[i].iter().map(|&d| group_of[d]).collect();
            dep_groups.sort_unstable();
            dep_groups.dedup();
            let home = home_worker(&metas[i], workers);
            let candidate = match home {
                Some(h) => open[h],
                // A task without a home extends a chain: it joins only
                // a node holding one of its dependences.
                None => open_colourless.filter(|&g| dep_groups.binary_search(&g).is_ok()),
            };
            let target = candidate.filter(|&g| {
                // Joining `g` makes `g` wait on every other group in
                // `dep_groups`; that closes a cycle exactly when one of
                // them already (transitively) waits on `g`.
                seen.resize(groups.len(), 0);
                stack.clear();
                stack.extend(dep_groups.iter().copied().filter(|&m| m != g));
                while let Some(m) = stack.pop() {
                    if m == g {
                        return false;
                    }
                    if seen[m] != i + 1 {
                        seen[m] = i + 1;
                        stack.extend(groups[m].preds.iter().copied());
                    }
                }
                true
            });
            let g = match target {
                Some(g) => g,
                None => {
                    groups.push(Group {
                        members: Vec::new(),
                        preds: Vec::new(),
                    });
                    let g = groups.len() - 1;
                    match home {
                        Some(h) => open[h] = Some(g),
                        None => open_colourless = Some(g),
                    }
                    g
                }
            };
            groups[g].members.push(i);
            for m in dep_groups {
                if m != g && !groups[g].preds.contains(&m) {
                    groups[g].preds.push(m);
                }
            }
            group_of.push(g);
        }

        // Kahn's algorithm, lowest group first among the ready ones, so
        // the order is a function of the capture alone.
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); groups.len()];
        let mut unmet: Vec<usize> = Vec::with_capacity(groups.len());
        for (g, group) in groups.iter().enumerate() {
            unmet.push(group.preds.len());
            for &m in &group.preds {
                succs[m].push(g);
            }
        }
        let mut ready: BinaryHeap<Reverse<usize>> = (0..groups.len())
            .filter(|&g| unmet[g] == 0)
            .map(Reverse)
            .collect();
        let mut order: Vec<usize> = Vec::with_capacity(groups.len());
        let mut position = vec![0u32; groups.len()];
        while let Some(Reverse(g)) = ready.pop() {
            position[g] = order.len() as u32;
            order.push(g);
            for &s in &succs[g] {
                unmet[s] -= 1;
                if unmet[s] == 0 {
                    ready.push(Reverse(s));
                }
            }
        }
        assert_eq!(order.len(), groups.len(), "merged step graph has a cycle");
        let nodes = order
            .iter()
            .map(|&g| GraphNode {
                members: groups[g].members.iter().map(|&m| m as u32).collect(),
                indegree: groups[g].preds.len() as u32,
                succs: succs[g].iter().map(|&s| position[s]).collect(),
            })
            .collect();
        StepGraph {
            nodes,
            node_of: group_of.iter().map(|&g| position[g]).collect(),
        }
    }
}

/// A captured and compiled task sequence: per-task dependence lists
/// (as indices into the trace), the step graph replays are scheduled
/// as, and the access frontier left behind.
#[derive(Debug)]
pub struct Trace {
    /// `deps[i]` = indices `< i` of tasks that task `i` waits on.
    pub(crate) deps: Vec<Vec<usize>>,
    /// The compiled step, shared with the executor while a replay of
    /// it is in flight.
    pub(crate) graph: Arc<StepGraph>,
    /// Final analyzer frontiers; an entry's task is the trace-local
    /// index of the *leader* of the node holding the recorded access.
    /// Shared with the analyzer after a replay, which reads it in
    /// place until an analysis needs a frontier of its own.
    pub(crate) frontier: RecordedFrontier,
    /// The names and declared accesses of the captured tasks: what a
    /// task list handed to [`Runtime::replay`](crate::Runtime::replay)
    /// must match, since it runs under the captured edges. `None` in a
    /// [`StepProgram`]'s trace, which runs only the program's own
    /// tasks.
    pub(crate) sig: Option<ShapeSig>,
}

impl Trace {
    /// Compile a capture for a runtime of `workers` workers: `deps`
    /// and `metas` per task, the signature of the captured tasks (if
    /// one was recorded), and the final frontier with trace-local task indices.
    pub(crate) fn compile(
        deps: Vec<Vec<usize>>,
        metas: &[TaskMeta],
        sig: Option<ShapeSig>,
        mut frontier: Vec<(u64, Frontier)>,
        workers: usize,
    ) -> Trace {
        let graph = StepGraph::compile(&deps, metas, workers);
        frontier.sort_unstable_by_key(|(buffer, _)| *buffer);
        for (_, f) in &mut frontier {
            for e in &mut f.entries {
                let node = graph.node_of[e.task as usize] as usize;
                e.task = u64::from(graph.nodes[node].leader());
            }
        }
        Trace {
            deps,
            graph: Arc::new(graph),
            frontier: frontier.into(),
            sig,
        }
    }

    /// Number of captured tasks (bodies a replay must supply).
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    /// True if the trace recorded no tasks.
    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }

    /// Number of scheduled nodes the tasks were fused into: what a
    /// replay of this trace submits to the executor.
    pub fn num_nodes(&self) -> usize {
        self.graph.nodes.len()
    }

    /// Position, in the topological node order, of the node task
    /// `task` runs in.
    pub fn node_of(&self, task: usize) -> usize {
        self.graph.node_of[task] as usize
    }

    /// The captured tasks that task `task` waits on.
    pub fn deps_of(&self, task: usize) -> &[usize] {
        &self.deps[task]
    }
}

/// One task of a [`StepProgram`]: a body that may run any number of
/// times, the requirements it sees when it does, and how it is named
/// and routed.
pub(crate) struct ProgramBody {
    pub body: SharedBody,
    pub ctx: TaskContext,
    pub meta: TaskMeta,
}

impl ProgramBody {
    /// A task of a [`Runtime::replay`](crate::Runtime::replay) list as
    /// a body of the one-run program the replay schedules. A run-once
    /// body is wrapped so that its run takes it; one that never runs
    /// is dropped with the program, when the step's last node retires.
    pub(crate) fn replayed(mut task: TaskBuilder) -> Result<Self, RuntimeError> {
        task.body = task.body.map(|body| match body {
            TaskBody::Once(once) => {
                let once = Mutex::new(Some(once));
                TaskBody::Shared(Box::new(move |ctx| {
                    let taken = once.lock().take();
                    if let Some(f) = taken {
                        f(ctx)
                    }
                }))
            }
            shared => shared,
        });
        Self::try_from(task)
    }
}

impl TryFrom<TaskBuilder> for ProgramBody {
    type Error = RuntimeError;

    fn try_from(task: TaskBuilder) -> Result<Self, RuntimeError> {
        match task.body {
            Some(TaskBody::Shared(body)) => Ok(ProgramBody {
                body,
                ctx: TaskContext { reqs: task.reqs },
                meta: task.meta,
            }),
            Some(TaskBody::Once(_)) => Err(RuntimeError::BodyRunsOnce { task: task.name }),
            None => Err(RuntimeError::MissingBody { task: task.name }),
        }
    }
}

/// A compiled step that owns what a run needs: the compiled [`Trace`]
/// and the tasks it was compiled from, bodies and requirement lists
/// included. Made by
/// [`Runtime::compile_program`](crate::Runtime::compile_program);
/// [`Runtime::run_program`](crate::Runtime::run_program) schedules it,
/// first run and replays alike, without building a task.
///
/// A program runs the *same* bodies every time. What differs from one
/// run to the next has to live where the bodies read it: in the
/// buffers they declare, or in state they captured that the caller
/// rewrites from `run_program`'s `bind` callback.
pub struct StepProgram {
    pub(crate) trace: Trace,
    pub(crate) bodies: Arc<[ProgramBody]>,
    /// Whether a run has been submitted: the first one runs the edges
    /// analysis found, the rest replay them.
    pub(crate) ran: AtomicBool,
}

impl StepProgram {
    /// The compiled step the program runs as.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

/// Shape signature of one step's task list: task names and declared
/// accesses. Two steps with equal signatures declare identical access
/// patterns, so dependence analysis of one is valid for the other. A
/// [`Trace`] from [`Runtime::end_trace`](crate::Runtime::end_trace)
/// keeps the signature of the tasks it captured, and
/// [`Runtime::replay`](crate::Runtime::replay) refuses a task list
/// whose signature differs.
#[derive(Clone, Debug, Default)]
pub struct ShapeSig {
    /// Name and number of declared accesses of each task.
    tasks: Vec<(&'static str, u32)>,
    /// Every task's accesses, concatenated: (buffer id, subset,
    /// writable).
    accesses: Vec<(u64, Arc<IntervalSet>, bool)>,
}

impl ShapeSig {
    /// Compute the signature of a task list.
    pub fn of_tasks(tasks: &[TaskBuilder]) -> ShapeSig {
        let mut sig = ShapeSig {
            tasks: Vec::with_capacity(tasks.len()),
            accesses: Vec::with_capacity(tasks.iter().map(|t| t.reqs.len()).sum()),
        };
        for t in tasks {
            let write = |p| p == Privilege::Write;
            sig.push(
                t.name,
                t.reqs
                    .iter()
                    .map(|r| (r.buffer_id, &r.subset, write(r.privilege))),
            );
        }
        sig
    }

    /// Append one task: its name and its accesses, each (buffer id,
    /// subset, writable).
    pub(crate) fn push<'a>(
        &mut self,
        name: &'static str,
        accesses: impl ExactSizeIterator<Item = (u64, &'a Arc<IntervalSet>, bool)>,
    ) {
        self.tasks.push((name, accesses.len() as u32));
        let accesses = accesses.map(|(buffer, subset, write)| (buffer, Arc::clone(subset), write));
        self.accesses.extend(accesses);
    }

    /// Number of tasks covered by the signature.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the signature covers no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

impl PartialEq for ShapeSig {
    fn eq(&self, other: &Self) -> bool {
        // Names and access counts first. A step rebuilt from the same
        // shared subsets then matches by pointer, without comparing
        // runs.
        self.tasks == other.tasks
            && self.accesses.len() == other.accesses.len()
            && self
                .accesses
                .iter()
                .zip(&other.accesses)
                .all(|(a, b)| a.0 == b.0 && a.2 == b.2 && (Arc::ptr_eq(&a.1, &b.1) || *a.1 == *b.1))
    }
}

impl Eq for ShapeSig {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;

    fn sig_of(subsets: &[(u64, u64)], buf: &Buffer<f64>, write: bool) -> ShapeSig {
        let tasks: Vec<TaskBuilder> = subsets
            .iter()
            .map(|&(lo, hi)| {
                let t = TaskBuilder::new("t");
                if write {
                    t.write(buf, IntervalSet::from_range(lo, hi))
                } else {
                    t.read(buf, IntervalSet::from_range(lo, hi))
                }
            })
            .collect();
        ShapeSig::of_tasks(&tasks)
    }

    #[test]
    fn equal_shapes_equal_sigs() {
        let b = Buffer::filled(32, 0.0f64);
        let a = sig_of(&[(0, 8), (8, 16)], &b, true);
        let c = sig_of(&[(0, 8), (8, 16)], &b, true);
        assert!(a == c);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn differing_subset_name_privilege_or_buffer_changes_sig() {
        let b = Buffer::filled(32, 0.0f64);
        let b2 = Buffer::filled(32, 0.0f64);
        let base = sig_of(&[(0, 8)], &b, true);
        assert!(base != sig_of(&[(0, 9)], &b, true), "subset");
        assert!(base != sig_of(&[(0, 8)], &b, false), "privilege");
        assert!(base != sig_of(&[(0, 8)], &b2, true), "buffer");
        let renamed = ShapeSig::of_tasks(&[
            TaskBuilder::new("other").write(&b, IntervalSet::from_range(0, 8))
        ]);
        assert!(base != renamed, "name");
    }
}
