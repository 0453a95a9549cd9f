//! The DAG executor: a work-stealing worker pool that runs scheduled
//! nodes as their dependences resolve.
//!
//! What the executor schedules is a *node*: one or more task bodies
//! that run back to back, in submission order, on one worker. An
//! analyzed submission is a node with one member; a trace replay
//! arrives as a whole compiled step graph whose nodes may hold several
//! (see [`crate::trace`]). Both go through the same dependence state,
//! the same queues and the same retirement.
//!
//! Nodes arrive with their dependences already known (from the
//! analyzer or from the compiled trace). Ready nodes are routed by an
//! optional [`Mapper`]: a node mapped to worker `w` goes to `w`'s own
//! queue (processor affinity — data lives where its piece's tasks
//! run); unmapped nodes go to a global injector. Each worker prefers
//! its own queue, then the injector, then steals from peers, so
//! affinity is a locality *hint*, never a throughput constraint.
//! A fence blocks until no node is outstanding. Execution is *eager* —
//! there is no separate "flush" step — so blocking on a
//! [`Future`](crate::Future) from the application thread always makes
//! progress.
//!
//! # Dependence state
//!
//! Task ids are handed out in submission order, so the nodes that are
//! still in flight always lie in one id interval. The executor keeps
//! that interval as a sliding window of slots indexed by `id − base`:
//! a slot holds its node's unmet-dependence count, the parked node
//! while that count is positive, and the successors that registered
//! on it. Retirement clears the slot and the window's front advances
//! past everything retired. An id below the window, or a slot no node
//! was scheduled under (the id of a fused member, which belongs to its
//! node's first member's slot), reads as "already finished".
//!
//! # Fault tolerance
//!
//! Task bodies run under `catch_unwind`. A panic does not abort the
//! process: the node completes as *failed*, the members after the
//! panicking one are dropped unrun, its transitive successors are
//! retired without running (dropping a body poisons any
//! [`Promise`](crate::Promise) it captured), and the first failure is
//! recorded as a [`TaskError`] that `Executor::fence` keeps returning
//! until `Executor::take_failure` clears it. A seeded `FaultInjector`
//! can plant deterministic panic / stall / corrupted-write faults at
//! submission time — one decision per body, in submission order,
//! fused or not — and an optional watchdog thread flags bodies that
//! exceed a configurable stall budget. All of it is pay-as-you-go:
//! with no plan armed and no budget set, the fault layer costs one
//! relaxed atomic load per body on the submit path and one on the
//! execute path.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::queue::SegQueue;
use parking_lot::{Condvar, Mutex};

use crate::events::{EventSink, TaskOutcome, DEFAULT_RING_CAPACITY};
use crate::fault::{FaultInjector, FaultKind, FaultPlan, TaskError, TaskErrorKind};
use crate::mapper::Mapper;
use crate::task::{Privilege, TaskBody, TaskContext, TaskId, TaskMetaLite};
use crate::trace::StepGraph;

/// One task body of a scheduled node.
pub(crate) struct Member {
    pub id: TaskId,
    /// Kernel name; keys the per-kernel execution counts.
    pub name: &'static str,
    pub body: TaskBody,
    /// The task's declared requirements, as its body will see them.
    pub ctx: TaskContext,
    /// Scheduling metadata (mapper input); a node is routed by its
    /// first member's.
    pub meta: TaskMetaLite,
    /// Fault planted by the injector at submission, if any.
    pub fault: Option<FaultKind>,
}

/// A scheduled node: member bodies run in order on one worker.
pub(crate) struct Runnable {
    /// Never empty; the first member's id is the node's id.
    members: Vec<Member>,
    /// Event-log timestamp: when this node became ready (all
    /// predecessors retired). Zero while event logging is off.
    ready_ns: u64,
    /// Born poisoned: a dependence named a node that had already
    /// retired failed, so the bodies must be dropped, not run.
    poisoned: bool,
}

impl Runnable {
    /// A node of one task.
    pub fn single(member: Member) -> Self {
        Runnable {
            members: vec![member],
            ready_ns: 0,
            poisoned: false,
        }
    }

    fn id(&self) -> TaskId {
        self.members[0].id
    }

    fn meta(&self) -> &TaskMetaLite {
        &self.members[0].meta
    }
}

/// `Slot::graph_node` of a node that is not part of a replayed graph.
const NO_NODE: u32 = u32::MAX;

/// One id of the in-flight window.
struct Slot {
    /// Submitted and not yet retired. A slot that is not live stands
    /// for a retired node or for an id no node was scheduled under.
    live: bool,
    /// Set when a (transitive) predecessor failed: once ready, the
    /// node is retired without running instead of enqueued.
    poisoned: bool,
    unmet: u32,
    /// The node itself while `unmet > 0`.
    parked: Option<Runnable>,
    /// Successors that registered at their own (analyzed) submission.
    succs: Vec<TaskId>,
    /// This node's index in the replayed step graph, whose successor
    /// list applies on top of `succs`; [`NO_NODE`] otherwise.
    graph_node: u32,
}

impl Slot {
    fn vacant() -> Self {
        Slot {
            live: false,
            poisoned: false,
            unmet: 0,
            parked: None,
            succs: Vec::new(),
            graph_node: NO_NODE,
        }
    }
}

#[derive(Default)]
struct DepState {
    /// Id of `slots[0]`.
    base: TaskId,
    /// The in-flight window (see the module docs).
    slots: VecDeque<Slot>,
    /// The compiled step most recently replayed and the id of its
    /// first task. Slots with a `graph_node` index into it; they are
    /// all retired before the next replay replaces it.
    batch: Option<(TaskId, Arc<StepGraph>)>,
    outstanding: usize,
    shutdown: bool,
    /// First task failure since the last [`Executor::take_failure`];
    /// fences keep reporting it until taken.
    failure: Option<TaskError>,
    /// Nodes that retired failed or poisoned since the last
    /// [`Executor::take_failure`]. A newly submitted node naming one
    /// of these as a dependence is born poisoned — without this,
    /// poison would leak whenever a predecessor finished (panicked)
    /// before its dependent was submitted. Cleared with the failure.
    poisoned_retired: HashSet<TaskId>,
    /// Executed-body tallies keyed by kernel name, bumped under this
    /// lock on the completion path (which already holds it).
    counts: BTreeMap<&'static str, u64>,
    /// Accumulated execution nanoseconds per kernel name; only grows
    /// while event logging or per-kernel timing is enabled (timestamps
    /// are zero otherwise, contributing nothing).
    exec_ns: BTreeMap<&'static str, u64>,
}

impl DepState {
    /// The slot of `id` if a node scheduled under it is still in
    /// flight.
    fn live_slot(&mut self, id: TaskId) -> Option<&mut Slot> {
        let idx = usize::try_from(id.checked_sub(self.base)?).ok()?;
        self.slots.get_mut(idx).filter(|s| s.live)
    }
}

/// Per-worker watchdog slot: the body currently executing (id + 1;
/// 0 = idle) and when it started. Published only while a stall budget
/// is armed.
struct WatchSlot {
    task: AtomicU64,
    since_ns: AtomicU64,
}

struct ExecShared {
    state: Mutex<DepState>,
    /// Routing policy; consulted at submit time *and* when a
    /// completion releases successors, so affinity survives into
    /// steady state instead of decaying to the injector.
    mapper: Option<Arc<dyn Mapper>>,
    /// Unpinned ready nodes.
    injector: SegQueue<Runnable>,
    /// Per-worker affinity queues.
    pinned: Vec<SegQueue<Runnable>>,
    /// Express lane for unpinned nodes with `priority > 0`; drained
    /// before every normal-lane queue.
    injector_hi: SegQueue<Runnable>,
    /// Express-lane affinity queues, one per worker.
    pinned_hi: Vec<SegQueue<Runnable>>,
    /// Parking for idle workers.
    sleep_lock: Mutex<()>,
    wake_cv: Condvar,
    idle_cv: Condvar,
    executed: AtomicU64,
    stolen: AtomicU64,
    sleepers: AtomicUsize,
    /// Structured event log (spans + latency histograms). Checked
    /// with one relaxed load per node when disabled.
    events: EventSink,
    /// Deterministic fault injector. Checked with one relaxed load
    /// per body at submission when disarmed.
    faults: FaultInjector,
    /// Per-kernel execution timing without the full event log: when
    /// set, workers stamp every body's start/end even with logging
    /// off, and retirement accumulates per-kernel-name execute
    /// nanoseconds (the cost catalogue's online observation feed). One
    /// relaxed load per node when off.
    kernel_timing: AtomicBool,
    /// Watchdog stall budget in nanoseconds (0 = watchdog off).
    stall_budget_ns: AtomicU64,
    /// One slot per worker for the watchdog to observe.
    watch: Vec<WatchSlot>,
    /// Task bodies that panicked.
    task_failures: AtomicU64,
    /// Nodes retired-as-poisoned without running.
    tasks_poisoned: AtomicU64,
    /// Bodies the watchdog flagged as exceeding the stall budget.
    tasks_stalled: AtomicU64,
}

pub(crate) struct Executor {
    shared: Arc<ExecShared>,
    workers: Vec<JoinHandle<()>>,
    watchdog: Mutex<Option<JoinHandle<()>>>,
}

impl Executor {
    pub fn new(workers: usize) -> Self {
        Self::with_mapper(workers, None)
    }

    /// Create with an optional mapper routing nodes to workers.
    pub fn with_mapper(workers: usize, mapper: Option<Arc<dyn Mapper>>) -> Self {
        Self::with_config(workers, mapper, DEFAULT_RING_CAPACITY)
    }

    /// Create with a mapper and an explicit per-worker event-ring
    /// capacity (records retained between event-log drains).
    pub fn with_config(
        workers: usize,
        mapper: Option<Arc<dyn Mapper>>,
        ring_capacity: usize,
    ) -> Self {
        assert!(workers > 0, "executor needs at least one worker");
        let shared = Arc::new(ExecShared {
            state: Mutex::new(DepState::default()),
            mapper,
            injector: SegQueue::new(),
            pinned: (0..workers).map(|_| SegQueue::new()).collect(),
            injector_hi: SegQueue::new(),
            pinned_hi: (0..workers).map(|_| SegQueue::new()).collect(),
            sleep_lock: Mutex::new(()),
            wake_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            executed: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            events: EventSink::new(workers, ring_capacity),
            faults: FaultInjector::new(),
            kernel_timing: AtomicBool::new(false),
            stall_budget_ns: AtomicU64::new(0),
            watch: (0..workers)
                .map(|_| WatchSlot {
                    task: AtomicU64::new(0),
                    since_ns: AtomicU64::new(0),
                })
                .collect(),
            task_failures: AtomicU64::new(0),
            tasks_poisoned: AtomicU64::new(0),
            tasks_stalled: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("kdr-worker-{w}"))
                    .spawn(move || worker_loop(shared, w))
                    .expect("failed to spawn worker")
            })
            .collect();
        Executor {
            shared,
            workers: handles,
            watchdog: Mutex::new(None),
        }
    }

    /// Enqueue one node whose dependence list has already been
    /// computed. Ids must increase from one submission to the next.
    /// Dependences on nodes that have already finished are ignored.
    pub fn submit(&self, mut runnable: Runnable, deps: &[TaskId]) {
        // Fault decisions happen here, at submission: the runtime
        // serializes submissions, so a seeded plan reproduces the
        // same injections regardless of worker interleaving.
        for m in &mut runnable.members {
            m.fault = self.shared.faults.decide(m.name);
        }
        let id = runnable.id();
        let mut st = self.shared.state.lock();
        if st.slots.is_empty() {
            st.base = id;
        }
        let idx = id
            .checked_sub(st.base)
            .map(|off| off as usize)
            .filter(|&off| off >= st.slots.len())
            .expect("task ids must increase from one submission to the next");
        let mut slot = Slot::vacant();
        slot.live = true;
        for &d in deps {
            match st.live_slot(d) {
                Some(pred) => {
                    pred.succs.push(id);
                    slot.unmet += 1;
                }
                // A dependence on a node that already retired failed
                // poisons this one at birth; live failed predecessors
                // are handled by the retirement cascade instead.
                None => slot.poisoned |= st.poisoned_retired.contains(&d),
            }
        }
        st.outstanding += 1;
        let ready = if slot.unmet == 0 {
            runnable.poisoned = slot.poisoned;
            Some(runnable)
        } else {
            slot.parked = Some(runnable);
            None
        };
        st.slots.resize_with(idx, Slot::vacant);
        st.slots.push_back(slot);
        drop(st);
        release_ready(&self.shared, ready.into_iter());
    }

    /// Enqueue one replayed step: `members[i]` is the body of the
    /// `i`-th captured task and gets the id `base + i`; `graph` says
    /// which node each belongs to and how the nodes depend on one
    /// another. The executor must be quiescent (the runtime fences
    /// before a replay), so the step has no outside dependences and
    /// the whole graph is installed under one lock acquisition, with
    /// one round of wake-ups for its initially ready nodes.
    pub fn submit_graph(&self, base: TaskId, graph: Arc<StepGraph>, members: Vec<Member>) {
        debug_assert_eq!(members.len(), graph.node_of.len());
        let mut nodes: Vec<Runnable> = graph
            .nodes
            .iter()
            .map(|n| Runnable {
                members: Vec::with_capacity(n.len as usize),
                ready_ns: 0,
                poisoned: false,
            })
            .collect();
        // One fault decision per body in submission order, exactly as
        // task-by-task submission makes them.
        for (mut m, &node) in members.into_iter().zip(&graph.node_of) {
            m.fault = self.shared.faults.decide(m.name);
            nodes[node as usize].members.push(m);
        }
        let mut ready = Vec::new();
        {
            let mut st = self.shared.state.lock();
            assert_eq!(st.outstanding, 0, "a replay needs a quiescent executor");
            st.base = base;
            st.slots.clear();
            st.slots.resize_with(graph.node_of.len(), Slot::vacant);
            for (k, (node, run)) in graph.nodes.iter().zip(nodes).enumerate() {
                let slot = &mut st.slots[node.leader as usize];
                slot.live = true;
                slot.graph_node = k as u32;
                slot.unmet = node.indegree;
                if node.indegree == 0 {
                    ready.push(run);
                } else {
                    slot.parked = Some(run);
                }
            }
            st.outstanding = graph.nodes.len();
            st.batch = Some((base, graph));
        }
        release_ready(&self.shared, ready.into_iter());
    }

    /// Block until every submitted node has finished. If any task
    /// failed since the last [`Executor::take_failure`], returns the
    /// first failure (and keeps returning it until taken).
    pub fn fence(&self) -> Result<(), TaskError> {
        let mut st = self.shared.state.lock();
        while st.outstanding > 0 {
            self.shared.idle_cv.wait(&mut st);
        }
        match &st.failure {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Remove and return the recorded failure, re-arming the executor
    /// for further work (subsequent fences return `Ok` again) and
    /// ending submit-time poison propagation from the failed epoch.
    pub fn take_failure(&self) -> Option<TaskError> {
        let mut st = self.shared.state.lock();
        st.poisoned_retired.clear();
        st.failure.take()
    }

    /// Arm (or disarm, with `None`) the deterministic fault injector.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        self.shared.faults.install(plan);
    }

    /// Set (or clear, with `None`) the watchdog stall budget. The
    /// watchdog thread starts on the first budget and exits when the
    /// budget is cleared.
    pub fn set_stall_budget(&self, budget: Option<Duration>) {
        let ns = budget.map(|d| d.as_nanos() as u64).unwrap_or(0);
        self.shared.stall_budget_ns.store(ns, Ordering::Relaxed);
        let mut guard = self.watchdog.lock();
        if ns == 0 {
            if let Some(h) = guard.take() {
                let _ = h.join();
            }
        } else if guard.is_none() {
            let shared = Arc::clone(&self.shared);
            *guard = Some(
                std::thread::Builder::new()
                    .name("kdr-watchdog".into())
                    .spawn(move || watchdog_loop(shared))
                    .expect("failed to spawn watchdog"),
            );
        }
    }

    /// Total nodes executed (a node whose body panicked included).
    pub fn executed(&self) -> u64 {
        self.shared.executed.load(Ordering::Relaxed)
    }

    /// Nodes a worker executed from another worker's affinity queue.
    pub fn stolen(&self) -> u64 {
        self.shared.stolen.load(Ordering::Relaxed)
    }

    /// Task bodies that panicked (caught, not process aborts).
    pub fn task_failures(&self) -> u64 {
        self.shared.task_failures.load(Ordering::Relaxed)
    }

    /// Nodes retired-as-poisoned without running.
    pub fn tasks_poisoned(&self) -> u64 {
        self.shared.tasks_poisoned.load(Ordering::Relaxed)
    }

    /// Bodies the watchdog flagged for exceeding the stall budget.
    pub fn tasks_stalled(&self) -> u64 {
        self.shared.tasks_stalled.load(Ordering::Relaxed)
    }

    /// Faults planted by the injector.
    pub fn faults_injected(&self) -> u64 {
        self.shared.faults.injected()
    }

    /// Number of worker threads.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Nodes submitted but not yet retired. A snapshot: racing
    /// submitters can change it immediately, so callers needing a
    /// stable answer must hold their own serialization (the runtime's
    /// state lock serializes submissions).
    pub fn outstanding(&self) -> usize {
        self.shared.state.lock().outstanding
    }

    /// Executed-body tallies keyed by kernel name.
    pub fn task_counts(&self) -> BTreeMap<&'static str, u64> {
        self.shared.state.lock().counts.clone()
    }

    /// Accumulated execution nanoseconds per kernel name (only grows
    /// while event logging or per-kernel timing is on).
    pub fn task_execute_ns(&self) -> BTreeMap<&'static str, u64> {
        self.shared.state.lock().exec_ns.clone()
    }

    /// Enable or disable per-kernel execution timing independently of
    /// the event log.
    pub fn set_kernel_timing(&self, on: bool) {
        self.shared.kernel_timing.store(on, Ordering::Relaxed);
    }

    /// The executor's event sink (spans, histograms, enable flag).
    pub fn events(&self) -> &EventSink {
        &self.shared.events
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
        }
        {
            let _g = self.shared.sleep_lock.lock();
            self.shared.wake_cv.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.shared.stall_budget_ns.store(0, Ordering::Relaxed);
        if let Some(h) = self.watchdog.lock().take() {
            let _ = h.join();
        }
    }
}

/// Push a ready node to its mapped worker's affinity queue, or to
/// the injector when no mapper is installed. Nodes with `priority > 0`
/// go to the express-lane twins of those queues instead.
fn route(shared: &ExecShared, runnable: Runnable) {
    let express = runnable.meta().priority > 0;
    match &shared.mapper {
        Some(m) => {
            let w = m.map_task(&runnable.meta().to_meta()) % shared.pinned.len();
            if express {
                shared.pinned_hi[w].push(runnable);
            } else {
                shared.pinned[w].push(runnable);
            }
        }
        None if express => shared.injector_hi.push(runnable),
        None => shared.injector.push(runnable),
    }
}

/// Pop the next node for worker `me`: the express lanes first
/// (own queue, injector, then steal), then the same order through the
/// normal lanes.
fn find_work(shared: &ExecShared, me: usize) -> Option<(Runnable, bool)> {
    let n = shared.pinned.len();
    if let Some(r) = shared.pinned_hi[me].pop() {
        return Some((r, false));
    }
    if let Some(r) = shared.injector_hi.pop() {
        return Some((r, false));
    }
    for off in 1..n {
        if let Some(r) = shared.pinned_hi[(me + off) % n].pop() {
            return Some((r, true));
        }
    }
    if let Some(r) = shared.pinned[me].pop() {
        return Some((r, false));
    }
    if let Some(r) = shared.injector.pop() {
        return Some((r, false));
    }
    for off in 1..n {
        if let Some(r) = shared.pinned[(me + off) % n].pop() {
            return Some((r, true));
        }
    }
    None
}

/// Extract a readable message from a `catch_unwind` payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What became of one body of a retiring node.
struct BodyRecord {
    id: TaskId,
    name: &'static str,
    outcome: TaskOutcome,
    ready_ns: u64,
    start_ns: u64,
    end_ns: u64,
}

/// What a worker hands to [`retire_locked`].
enum Retiring<'a> {
    /// Node `id` ran; its bodies ended as `bodies` say.
    Ran { id: TaskId, bodies: &'a [BodyRecord] },
    /// The node was born poisoned and is retired without running.
    Unrun(Runnable),
}

/// Retire a node and cascade poison through the DAG: successors of a
/// failed node are marked poisoned; any that become ready while
/// poisoned are retired in turn (their bodies dropped, not run, which
/// poisons any promise a body captured). Runs entirely under the
/// state lock, so fences observing `outstanding == 0` see every span
/// and counter of the cascade.
fn retire_locked(
    shared: &ExecShared,
    st: &mut DepState,
    first: Retiring<'_>,
    ready: &mut Vec<Runnable>,
    me: usize,
    logging: bool,
) {
    // Nodes to retire without running.
    let mut unrun: Vec<Runnable> = Vec::new();
    match first {
        Retiring::Ran { id, bodies } => {
            retire_one(shared, st, id, bodies, ready, &mut unrun, me, logging)
        }
        Retiring::Unrun(run) => unrun.push(run),
    }
    while let Some(run) = unrun.pop() {
        shared.tasks_poisoned.fetch_add(1, Ordering::Relaxed);
        let now = if logging { shared.events.now_ns() } else { 0 };
        let records: Vec<BodyRecord> = run
            .members
            .iter()
            .map(|m| BodyRecord {
                id: m.id,
                name: m.name,
                outcome: TaskOutcome::Poisoned,
                ready_ns: now,
                start_ns: now,
                end_ns: now,
            })
            .collect();
        let id = run.id();
        // Dropping the node drops its bodies; any captured Promise
        // poisons its Future here.
        drop(run);
        retire_one(shared, st, id, &records, ready, &mut unrun, me, logging);
    }
    while st.slots.front().is_some_and(|s| !s.live) {
        st.slots.pop_front();
        st.base += 1;
    }
}

/// One step of [`retire_locked`]: release (or poison) the successors
/// of node `id`, account its bodies, and count it finished.
#[allow(clippy::too_many_arguments)]
fn retire_one(
    shared: &ExecShared,
    st: &mut DepState,
    id: TaskId,
    bodies: &[BodyRecord],
    ready: &mut Vec<Runnable>,
    unrun: &mut Vec<Runnable>,
    me: usize,
    logging: bool,
) {
    let poison = bodies.iter().any(|b| b.outcome != TaskOutcome::Completed);
    if poison {
        st.poisoned_retired.insert(id);
    }
    let DepState {
        base, slots, batch, ..
    } = st;
    let slot = &mut slots[(id - *base) as usize];
    slot.live = false;
    let succs = std::mem::take(&mut slot.succs);
    let graph_succs = match (slot.graph_node, batch.as_ref()) {
        (NO_NODE, _) | (_, None) => None,
        (node, Some((first, graph))) => {
            let first = *first;
            Some(
                graph.nodes[node as usize]
                    .succs
                    .iter()
                    .map(move |&s| first + TaskId::from(graph.nodes[s as usize].leader)),
            )
        }
    };
    for s in succs.into_iter().chain(graph_succs.into_iter().flatten()) {
        let succ = &mut slots[(s - *base) as usize];
        succ.poisoned |= poison;
        succ.unmet -= 1;
        if succ.unmet == 0 {
            let run = succ.parked.take().expect("a waiting node is parked");
            if succ.poisoned {
                unrun.push(run);
            } else {
                ready.push(run);
            }
        }
    }
    // Record the spans while the node still counts as outstanding: a
    // fence observing `outstanding == 0` then implies every executed
    // body's span has landed, so fence-then-snapshot sequences
    // (take_spans, metrics) never see a straggler.
    let retire_ns = if logging { shared.events.now_ns() } else { 0 };
    for b in bodies {
        if b.outcome != TaskOutcome::Poisoned {
            *st.counts.entry(b.name).or_insert(0) += 1;
        }
        if b.outcome == TaskOutcome::Completed {
            // Zero when neither logging nor kernel timing stamped the
            // body, so the map stays cost-free on the disabled path.
            let dt = b.end_ns.saturating_sub(b.start_ns);
            if dt > 0 {
                *st.exec_ns.entry(b.name).or_insert(0) += dt;
            }
        }
        if logging {
            shared.events.record_exec(
                me, b.id, b.ready_ns, b.start_ns, b.end_ns, retire_ns, b.outcome,
            );
        }
    }
    st.outstanding -= 1;
    if st.outstanding == 0 {
        shared.idle_cv.notify_all();
    }
}

fn worker_loop(shared: Arc<ExecShared>, me: usize) {
    // The bodies of the node in hand, reused from node to node.
    let mut records: Vec<BodyRecord> = Vec::new();
    loop {
        let runnable = loop {
            if let Some((r, was_steal)) = find_work(&shared, me) {
                if was_steal {
                    shared.stolen.fetch_add(1, Ordering::Relaxed);
                }
                break r;
            }
            // Park until woken; re-check shutdown under the state
            // lock to avoid missing the final wakeup.
            {
                let st = shared.state.lock();
                if st.shutdown {
                    return;
                }
            }
            shared.sleepers.fetch_add(1, Ordering::AcqRel);
            {
                let mut g = shared.sleep_lock.lock();
                // Double-check: work may have arrived between the
                // last probe and parking.
                if find_probe(&shared) {
                    shared.sleepers.fetch_sub(1, Ordering::AcqRel);
                    continue;
                }
                shared
                    .wake_cv
                    .wait_for(&mut g, std::time::Duration::from_millis(5));
            }
            shared.sleepers.fetch_sub(1, Ordering::AcqRel);
        };

        // One relaxed load each when logging and kernel timing are
        // off — the entire cost those layers add to the disabled
        // execute path.
        let logging = shared.events.enabled();
        let timing = logging || shared.kernel_timing.load(Ordering::Relaxed);
        if runnable.poisoned {
            // Born poisoned: a dependence had already retired failed.
            let mut ready = Vec::new();
            {
                let mut st = shared.state.lock();
                let first = Retiring::Unrun(runnable);
                retire_locked(&shared, &mut st, first, &mut ready, me, logging);
            }
            release_ready(&shared, ready.into_iter());
            continue;
        }
        let node_id = runnable.id();
        records.clear();
        let mut failure = None;
        // One relaxed load when the watchdog is off — the fault
        // layer's entire cost on the disabled execute path (the
        // injected-fault check below is a plain field read).
        let budget = shared.stall_budget_ns.load(Ordering::Relaxed);
        // A fused member is ready the moment the one before it
        // returns.
        let mut ready_ns = runnable.ready_ns;
        let mut members = runnable.members.into_iter();
        for m in members.by_ref() {
            let Member {
                id,
                name,
                body,
                ctx,
                fault,
                ..
            } = m;
            let start_ns = if timing { shared.events.now_ns() } else { 0 };
            if budget > 0 {
                let slot = &shared.watch[me];
                slot.since_ns
                    .store(shared.events.now_ns(), Ordering::Relaxed);
                slot.task.store(id + 1, Ordering::Release);
            }
            let result =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match fault {
                    Some(FaultKind::Panic) => {
                        panic!("injected fault: forced panic in '{name}'")
                    }
                    Some(FaultKind::Stall { millis }) => {
                        std::thread::sleep(Duration::from_millis(millis));
                        body(&ctx)
                    }
                    _ => body(&ctx),
                }));
            if budget > 0 {
                shared.watch[me].task.store(0, Ordering::Release);
            }
            if result.is_ok() && fault == Some(FaultKind::CorruptWrite) {
                // Silent corruption: flip the first element of the
                // first writable requirement to an all-ones pattern
                // (NaN for floats) after the body completed
                // normally.
                if let Some(req) = ctx.reqs.iter().find(|r| r.privilege == Privilege::Write) {
                    (req.corrupt)(req);
                }
            }
            let end_ns = if timing { shared.events.now_ns() } else { 0 };
            records.push(BodyRecord {
                id,
                name,
                outcome: match result {
                    Ok(()) => TaskOutcome::Completed,
                    Err(_) => TaskOutcome::Panicked,
                },
                ready_ns,
                start_ns,
                end_ns,
            });
            ready_ns = end_ns;
            if let Err(payload) = result {
                shared.task_failures.fetch_add(1, Ordering::Relaxed);
                failure = Some(TaskError {
                    task: id,
                    name,
                    kind: TaskErrorKind::Panicked(panic_message(payload.as_ref())),
                });
                break;
            }
        }
        // Bodies behind a panicking one never run; dropping them
        // poisons their promises like any poisoned task's.
        for m in members {
            records.push(BodyRecord {
                id: m.id,
                name: m.name,
                outcome: TaskOutcome::Poisoned,
                ready_ns,
                start_ns: ready_ns,
                end_ns: ready_ns,
            });
        }
        shared.executed.fetch_add(1, Ordering::Relaxed);

        // Retire: record any failure, then release (or poison)
        // successors.
        let mut ready = Vec::new();
        {
            let mut st = shared.state.lock();
            if let Some(e) = failure {
                st.failure.get_or_insert(e);
            }
            let first = Retiring::Ran {
                id: node_id,
                bodies: &records,
            };
            retire_locked(&shared, &mut st, first, &mut ready, me, logging);
        }
        release_ready(&shared, ready.into_iter());
    }
}

/// Stamp and route nodes that just became ready, then wake as many
/// parked workers as there are nodes for.
fn release_ready(shared: &ExecShared, ready: impl ExactSizeIterator<Item = Runnable>) {
    let n_ready = ready.len();
    if n_ready == 0 {
        return;
    }
    let ready_stamp = if shared.events.enabled() {
        shared.events.now_ns()
    } else {
        0
    };
    for mut r in ready {
        // Successors route through the mapper too — otherwise
        // affinity only applies to nodes that were ready at
        // submit time, and steady-state iterations (where almost
        // every node waits on a predecessor) lose all locality.
        r.ready_ns = ready_stamp;
        route(shared, r);
    }
    let sleepers = shared.sleepers.load(Ordering::Acquire);
    if sleepers > 0 {
        let _g = shared.sleep_lock.lock();
        for _ in 0..n_ready.min(sleepers) {
            shared.wake_cv.notify_one();
        }
    }
}

/// The watchdog: periodically scans every worker's watch slot and
/// counts bodies that have been executing longer than the stall
/// budget. Exits when the budget is cleared or the executor shuts
/// down. Each (worker, body) pair is flagged at most once.
fn watchdog_loop(shared: Arc<ExecShared>) {
    let mut flagged: HashMap<usize, u64> = HashMap::new();
    loop {
        let budget = shared.stall_budget_ns.load(Ordering::Relaxed);
        if budget == 0 {
            return;
        }
        {
            let st = shared.state.lock();
            if st.shutdown {
                return;
            }
        }
        let poll_ns = (budget / 4).clamp(1_000_000, 50_000_000);
        std::thread::sleep(Duration::from_nanos(poll_ns));
        let now = shared.events.now_ns();
        for (w, slot) in shared.watch.iter().enumerate() {
            let t = slot.task.load(Ordering::Acquire);
            if t == 0 {
                flagged.remove(&w);
                continue;
            }
            let since = slot.since_ns.load(Ordering::Relaxed);
            if now.saturating_sub(since) > budget && flagged.get(&w) != Some(&t) {
                flagged.insert(w, t);
                shared.tasks_stalled.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Cheap emptiness probe across all queues.
fn find_probe(shared: &ExecShared) -> bool {
    if !shared.injector.is_empty() || !shared.injector_hi.is_empty() {
        return true;
    }
    shared.pinned.iter().any(|q| !q.is_empty()) || shared.pinned_hi.iter().any(|q| !q.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultSpec, FireSchedule};
    use crate::mapper::RoundRobinMapper;

    fn member(id: TaskId, meta: TaskMetaLite, f: impl FnOnce() + Send + 'static) -> Member {
        Member {
            id,
            name: "test",
            body: Box::new(move |_| f()),
            ctx: TaskContext { reqs: Vec::new() },
            meta,
            fault: None,
        }
    }

    fn runnable(id: TaskId, f: impl FnOnce() + Send + 'static) -> Runnable {
        Runnable::single(member(id, TaskMetaLite::default(), f))
    }

    fn runnable_colored(id: TaskId, color: usize, f: impl FnOnce() + Send + 'static) -> Runnable {
        let meta = TaskMetaLite {
            color: Some(color),
            ..TaskMetaLite::default()
        };
        Runnable::single(member(id, meta, f))
    }

    #[test]
    fn runs_independent_tasks() {
        let ex = Executor::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for id in 0..32 {
            let c = Arc::clone(&counter);
            ex.submit(
                runnable(id, move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }),
                &[],
            );
        }
        ex.fence().unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 32);
        assert_eq!(ex.executed(), 32);
    }

    #[test]
    fn honors_dependences() {
        let ex = Executor::new(4);
        let log = Arc::new(Mutex::new(Vec::new()));
        for id in 0..10u64 {
            let l = Arc::clone(&log);
            let deps: Vec<TaskId> = if id == 0 { vec![] } else { vec![id - 1] };
            ex.submit(
                runnable(id, move || {
                    l.lock().push(id);
                }),
                &deps,
            );
        }
        ex.fence().unwrap();
        assert_eq!(*log.lock(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn diamond_dag() {
        let ex = Executor::new(4);
        let log = Arc::new(Mutex::new(Vec::new()));
        let push = |id: TaskId| {
            let l = Arc::clone(&log);
            runnable(id, move || {
                l.lock().push(id);
            })
        };
        ex.submit(push(0), &[]);
        ex.submit(push(1), &[0]);
        ex.submit(push(2), &[0]);
        ex.submit(push(3), &[1, 2]);
        ex.fence().unwrap();
        let order = log.lock().clone();
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], 0);
        assert_eq!(order[3], 3);
    }

    #[test]
    fn deps_on_finished_tasks_ignored() {
        let ex = Executor::new(2);
        ex.submit(runnable(0, || {}), &[]);
        ex.fence().unwrap();
        ex.submit(runnable(1, || {}), &[0]);
        ex.fence().unwrap();
        assert_eq!(ex.executed(), 2);
    }

    #[test]
    fn fence_with_nothing_outstanding() {
        let ex = Executor::new(1);
        ex.fence().unwrap();
        ex.fence().unwrap();
    }

    #[test]
    fn task_panic_surfaces_as_error_not_abort() {
        let ex = Executor::new(2);
        ex.submit(runnable(0, || panic!("boom")), &[]);
        let err = ex.fence().unwrap_err();
        assert_eq!(err.task, 0);
        assert_eq!(err.kind, TaskErrorKind::Panicked("boom".into()));
        // The failure sticks until taken...
        assert!(ex.fence().is_err());
        let taken = ex.take_failure().unwrap();
        assert_eq!(taken.task, 0);
        // ...and the executor keeps working afterwards.
        ex.submit(runnable(1, || {}), &[]);
        ex.fence().unwrap();
        assert_eq!(ex.executed(), 2);
        assert_eq!(ex.task_failures(), 1);
    }

    #[test]
    fn poison_retires_transitive_successors_without_running() {
        let ex = Executor::new(4);
        let ran = Arc::new(AtomicUsize::new(0));
        ex.submit(runnable(0, || panic!("root failure")), &[]);
        for id in 1..=3u64 {
            let r = Arc::clone(&ran);
            ex.submit(
                runnable(id, move || {
                    r.fetch_add(1, Ordering::SeqCst);
                }),
                &[id - 1],
            );
        }
        // An independent task must still run.
        let r = Arc::clone(&ran);
        ex.submit(
            runnable(10, move || {
                r.fetch_add(100, Ordering::SeqCst);
            }),
            &[],
        );
        let err = ex.fence().unwrap_err();
        assert_eq!(err.task, 0);
        assert_eq!(ran.load(Ordering::SeqCst), 100, "successors must not run");
        assert_eq!(ex.tasks_poisoned(), 3);
        assert_eq!(ex.task_failures(), 1);
        // Only the root body and the independent task executed.
        assert_eq!(ex.executed(), 2);
    }

    #[test]
    fn poison_with_partially_failed_predecessors() {
        // A successor with one healthy and one failing predecessor
        // must still be retired-as-poisoned.
        let ex = Executor::new(2);
        let ran = Arc::new(AtomicUsize::new(0));
        ex.submit(runnable(0, || {}), &[]);
        ex.submit(runnable(1, || panic!("half")), &[]);
        let r = Arc::clone(&ran);
        ex.submit(
            runnable(2, move || {
                r.fetch_add(1, Ordering::SeqCst);
            }),
            &[0, 1],
        );
        assert!(ex.fence().is_err());
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        assert_eq!(ex.tasks_poisoned(), 1);
    }

    #[test]
    fn injected_panic_is_deterministic() {
        let run = || {
            let ex = Executor::new(2);
            ex.set_fault_plan(Some(FaultPlan::seeded(7).with(FaultSpec {
                name_contains: "test".into(),
                kind: FaultKind::Panic,
                schedule: FireSchedule::Nth(5),
                max_fires: 0,
            })));
            for id in 0..10 {
                ex.submit(runnable(id, || {}), &[]);
            }
            let err = ex.fence().unwrap_err();
            (err.task, ex.faults_injected(), ex.task_failures())
        };
        assert_eq!(run(), (4, 1, 1), "5th submitted task must panic");
        assert_eq!(run(), run(), "identical plans give identical failures");
    }

    #[test]
    fn watchdog_flags_stalled_task() {
        let ex = Executor::new(2);
        ex.set_stall_budget(Some(Duration::from_millis(5)));
        ex.submit(
            runnable(0, || std::thread::sleep(Duration::from_millis(60))),
            &[],
        );
        ex.fence().unwrap();
        assert!(
            ex.tasks_stalled() >= 1,
            "a 60ms task must trip a 5ms stall budget"
        );
        ex.set_stall_budget(None);
        // Fast tasks after disarming don't add flags.
        ex.submit(runnable(1, || {}), &[]);
        ex.fence().unwrap();
        assert_eq!(ex.tasks_stalled(), 1);
    }

    #[test]
    fn mapper_affinity_prefers_pinned_worker() {
        // Two workers, tasks pinned by color; with balanced load, the
        // pinned worker should execute most of its own tasks. We only
        // assert functional completion plus *some* locality (stealing
        // keeps this from being deterministic).
        let ex = Executor::with_mapper(2, Some(Arc::new(RoundRobinMapper::new(2))));
        let hits: Arc<[AtomicUsize; 2]> = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
        for id in 0..200u64 {
            let hits = Arc::clone(&hits);
            let color = (id % 2) as usize;
            ex.submit(
                runnable_colored(id, color, move || {
                    let name = std::thread::current().name().unwrap_or("").to_string();
                    let me: usize = name.trim_start_matches("kdr-worker-").parse().unwrap();
                    if me == color {
                        hits[color].fetch_add(1, Ordering::Relaxed);
                    }
                    // A little work so queues actually fill.
                    std::hint::black_box((0..100).sum::<u64>());
                }),
                &[],
            );
        }
        ex.fence().unwrap();
        assert_eq!(ex.executed(), 200);
        let local = hits[0].load(Ordering::Relaxed) + hits[1].load(Ordering::Relaxed);
        assert!(local > 0, "affinity must route at least some tasks home");
    }

    #[test]
    fn stress_many_waves() {
        let ex = Executor::new(8);
        let counter = Arc::new(AtomicUsize::new(0));
        let mut id = 0u64;
        for _wave in 0..50 {
            for _ in 0..20 {
                let c = Arc::clone(&counter);
                ex.submit(
                    runnable(id, move || {
                        c.fetch_add(1, Ordering::SeqCst);
                    }),
                    &[],
                );
                id += 1;
            }
            ex.fence().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 1000);
    }

    #[test]
    fn meta_lite_roundtrip() {
        let lite = TaskMetaLite {
            color: Some(3),
            flops: 10,
            bytes: 20,
            priority: 1,
        };
        let m = lite.to_meta();
        assert_eq!(m.color, Some(3));
        assert_eq!(m.flops, 10);
        assert_eq!(m.priority, 1);
    }

    #[test]
    fn express_lane_runs_before_normal_backlog() {
        // One worker, blocked on a gate while we build a backlog of
        // normal-lane tasks and one express task. When the gate
        // opens, the express task must run before any backlog task.
        let ex = Executor::new(1);
        let gate = Arc::new(AtomicUsize::new(0));
        let order = Arc::new(Mutex::new(Vec::new()));
        let g = Arc::clone(&gate);
        ex.submit(
            runnable(0, move || {
                while g.load(Ordering::Acquire) == 0 {
                    std::thread::yield_now();
                }
            }),
            &[],
        );
        for id in 1..=8u64 {
            let o = Arc::clone(&order);
            ex.submit(
                runnable(id, move || {
                    o.lock().push(id);
                }),
                &[],
            );
        }
        let o = Arc::clone(&order);
        let express = TaskMetaLite {
            priority: 1,
            ..TaskMetaLite::default()
        };
        let hi = Runnable::single(member(99, express, move || {
            o.lock().push(99);
        }));
        ex.submit(hi, &[]);
        gate.store(1, Ordering::Release);
        ex.fence().unwrap();
        let seen = order.lock().clone();
        assert_eq!(seen.len(), 9);
        assert_eq!(seen[0], 99, "express task must jump the backlog");
    }
}
