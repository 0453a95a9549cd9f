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
//! There are two ways to replay. [`Runtime::replay`](crate::Runtime::replay)
//! takes a [`Trace`] and a freshly built, same-shaped task list — for a
//! caller whose bodies differ from run to run (a [`ShapeSig`] compares
//! the shapes). A [`StepProgram`] goes one step further for a caller
//! whose step is *the same tasks* every time: it keeps the captured
//! tasks themselves — bodies that may run any number of times
//! ([`TaskBuilder::shared_body`]) and their requirement lists — next to
//! the trace, so [`Runtime::run_program`](crate::Runtime::run_program)
//! builds nothing per task: the executor's nodes point into the
//! program. Both entry points install the step through one routine
//! (`Executor::submit_graph`), so fault decisions, spans, accounting
//! and failure semantics are the same.
//!
//! Both capture and replay begin from a quiescent runtime (the
//! runtime fences internally), so a trace's first tasks have no
//! external dependences and the recorded frontier fully describes the
//! post-trace access state. A replay hands that frontier to the
//! analyzer by reference ([`crate::graph`]): nothing is copied unless
//! an analyzed submission follows the replay.
//!
//! # Compiled traces
//!
//! `end_trace` does not keep the capture as a per-task dependence
//! list: it *compiles* it into a step graph of scheduled **nodes**.
//! Walking the captured tasks in submission order, a task of colour
//! `c` joins the most recent coloured node with the same *home worker*
//! `c % W` — the worker the executor queues colour `c` on, so on one
//! worker that is every coloured node — whenever the node graph stays
//! acyclic with it inside, that is, unless one of the task's
//! dependences sits in another node that already (transitively) waits
//! on that node. A colourless task joins the most recent colourless
//! node under the same acyclicity test and one more condition: one of
//! its dependences is in that node (it extends a chain). Otherwise a
//! task opens a new node, so an independent colourless task runs, and
//! fails, on its own. A node waits for the union of its members'
//! outside dependences, runs their bodies back to back in submission
//! order on one worker, and releases its successors when the last
//! body returns. Every captured edge therefore ends up either inside a
//! node (honoured by the in-order run) or between an earlier and a
//! later node (honoured by the scheduler), which is why a fused replay
//! leaves every bit of every buffer as the task-by-task run left it.
//!
//! The fusion key is the placement rule, so a node's members are tasks
//! that would have been queued on its worker anyway. A 16-piece CG
//! step (101 tasks) compiles to one node per phase and home worker:
//! on one worker 5 nodes — the sixteen `[spmv + dot_partial]`, the
//! scalar chain `[dot_reduce + alpha + −alpha]`, the sixteen `[axpy +
//! axpy + dot_partial]`, the chain `[dot_reduce + beta]`, the sixteen
//! `[xpay]` — and on `W` workers `W` nodes for each of the three
//! vector phases plus the two chains. This costs no parallelism worth
//! having: the tasks of one home were already queued on one worker and
//! ran there one after another (unless stolen); the node only stops
//! paying a queue round trip and a retirement between them. What is
//! given up is the chance that a thief picks up the second half of a
//! home's work while the first half's successor work is elsewhere, and
//! that a waiting driver runs part of a phase beside the worker. A
//! scalar chain gives up less: its members are sub-microsecond bodies
//! that mostly wait on one another anyway, and the node saves a queue
//! round trip, a retirement and a possible hand-off to another thread
//! per link.
//!
//! Nodes are stored topologically sorted with in-degrees and successor
//! lists, so a replay hands the executor a graph it can install
//! without looking anything up.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use kdr_index::IntervalSet;

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

/// A node under construction during [`StepGraph::compile`].
struct Group {
    members: Vec<usize>,
    /// Groups holding a dependence of a member (never this group).
    preds: Vec<usize>,
}

impl StepGraph {
    /// Compile a captured step for a runtime of `workers` workers.
    /// `deps[i]` lists the earlier tasks that task `i` waits on,
    /// `metas[i]` is its scheduling metadata (a coloured task fuses by
    /// its home worker, `colour % workers`).
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
            let candidate = match metas[i].color {
                Some(c) => open[c % workers],
                // A colourless task extends a chain: it joins only a
                // node holding one of its dependences.
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
                    match metas[i].color {
                        Some(c) => open[c % workers] = Some(g),
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
}

impl Trace {
    /// Compile a capture for a runtime of `workers` workers: `deps`
    /// and `metas` per task, and the final frontier with trace-local
    /// task indices.
    pub(crate) fn compile(
        deps: Vec<Vec<usize>>,
        metas: &[TaskMeta],
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

    /// Total recorded dependence edges between tasks.
    pub fn num_edges(&self) -> usize {
        self.deps.iter().map(Vec::len).sum()
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

/// A captured step that owns what a replay needs: the compiled
/// [`Trace`] and the tasks it was captured from, bodies and
/// requirement lists included. Made by
/// [`Runtime::capture_program`](crate::Runtime::capture_program);
/// [`Runtime::run_program`](crate::Runtime::run_program) schedules it
/// again without building a task.
///
/// A program runs the *same* bodies every time. What differs from one
/// run to the next has to live where the bodies read it: in the
/// buffers they declare, or in state they captured that the caller
/// rewrites from `run_program`'s `bind` callback.
pub struct StepProgram {
    pub(crate) trace: Trace,
    pub(crate) bodies: Arc<[ProgramBody]>,
}

impl StepProgram {
    /// The compiled capture the program replays as.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

/// A multiply-rotate hasher for shape signatures. The keys are this
/// program's own task lists, never outside input, and a signature is
/// hashed on every step, so SipHash's collision resistance buys
/// nothing here.
#[derive(Default)]
struct ShapeHasher(u64);

impl Hasher for ShapeHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

/// Shape signature of one step's task list: task names and declared
/// accesses. Two steps with equal signatures declare identical access
/// patterns, so dependence analysis of one is valid for the other — a
/// caller that replays a trace with rebuilt tasks can check them
/// against the captured ones with it.
#[derive(Clone)]
pub struct ShapeSig {
    hash: u64,
    /// Name and number of declared accesses of each task.
    tasks: Vec<(&'static str, u32)>,
    /// Every task's accesses, concatenated: (buffer id, subset,
    /// writable).
    accesses: Vec<(u64, Arc<IntervalSet>, bool)>,
}

impl ShapeSig {
    /// Compute the signature of a task list.
    pub fn of_tasks(tasks: &[TaskBuilder]) -> ShapeSig {
        let mut h = ShapeHasher::default();
        let mut names = Vec::with_capacity(tasks.len());
        let mut accesses = Vec::with_capacity(tasks.iter().map(|t| t.reqs.len()).sum());
        for t in tasks {
            t.name.hash(&mut h);
            names.push((t.name, t.reqs.len() as u32));
            for r in &t.reqs {
                let write = r.privilege == Privilege::Write;
                r.buffer_id.hash(&mut h);
                r.subset.hash(&mut h);
                write.hash(&mut h);
                accesses.push((r.buffer_id, Arc::clone(&r.subset), write));
            }
        }
        ShapeSig {
            hash: h.finish(),
            tasks: names,
            accesses,
        }
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
        // Hash first: almost every mismatch dies here without walking
        // interval sets. A step rebuilt from the same shared subsets
        // then matches by pointer, without comparing runs.
        self.hash == other.hash
            && self.tasks == other.tasks
            && self.accesses.len() == other.accesses.len()
            && self.accesses.iter().zip(&other.accesses).all(|(a, b)| {
                a.0 == b.0 && a.2 == b.2 && (Arc::ptr_eq(&a.1, &b.1) || *a.1 == *b.1)
            })
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
