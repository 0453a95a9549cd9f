//! The DAG executor: a work-stealing worker pool that runs scheduled
//! nodes as their dependences resolve.
//!
//! What the executor schedules is a *node*: one or more task bodies
//! that run back to back, in submission order, on one worker. An
//! analyzed submission is a node with one member, which owns its body
//! and consumes it by its run; a trace replay arrives as a whole
//! compiled step graph whose nodes may hold several and point into the
//! bodies of a step program, which stay with the program (`Work`; see
//! [`crate::trace`]). Both go through the same dependence state, the
//! same queues and the same retirement.
//!
//! Nodes arrive with their dependences already known (from the
//! analyzer or from the compiled trace). Ready nodes are placed by one
//! rule: a node of colour `c` goes to worker `c % W`'s own queue (so a
//! piece's tasks run where its data already is), and colourless nodes
//! are dealt to the workers in turn. Each worker prefers its own queue
//! and then steals from peers, so placement is a locality *hint*,
//! never a throughput constraint.
//! Execution is *eager* — there is no separate "flush" step — so an
//! application thread blocked on what a submitted body will hand it
//! (a channel, say) always makes progress.
//!
//! # Waits that work
//!
//! A thread that waits on the executor — a fence (until no node is
//! outstanding) or a wait for particular nodes to retire
//! (`Executor::wait_retired`, behind
//! [`Runtime::wait_written`](crate::Runtime::wait_written)) — is a
//! worker for as long as it waits. There is one scheduling loop,
//! `run_nodes`: take a ready node, run its bodies unlocked, retire it,
//! queue what it released. Pool threads run it until shutdown and park
//! on `wake_cv` when nothing is ready; a waiting *driver* runs it until
//! its condition holds (checked before every take, so it returns at
//! most one node late), takes from any worker's queue, and parks on
//! `idle_cv`, which every retirement notifies while a driver is parked
//! there. Only a retirement can make a driver's condition true, and it
//! happens under the lock the driver checked its condition and parked
//! with, so that wake-up cannot be lost either. A node queued by a *submission* while a driver is
//! parked does not wake it: a pool thread takes the node, and the
//! driver hears of its retirement.
//!
//! A replayed step whose submitter waits for it next
//! (`Executor::submit_graph` with `waits`, behind
//! [`Runtime::run_program`](crate::Runtime::run_program) with a read
//! list) is the one submission that counts the submitter in: it owes a
//! parked worker to every initially ready node but one, and the
//! submitter takes that one as soon as it enters its wait. The wait
//! starts with its condition false — it waits for nodes of the step,
//! and none has retired — so the submitter takes a node unless a
//! worker that was not parked took it first, and then it parks and
//! hears of that node's retirement. On one worker a step is one node
//! ([`crate::trace`]), so the submitter runs the whole step and no
//! thread is woken or handed anything.
//!
//! Bodies a driver runs are bodies like any other: same `catch_unwind`,
//! same fault decision (taken at submission), same spans and tallies,
//! recorded under one extra lane, `worker == num_workers`, which all
//! drivers share (as they share its watchdog slot: with two drivers
//! inside long bodies at once the watchdog sees the one that started
//! last). Which thread runs a body is not an
//! input to any body, so results do not depend on it. What a caller
//! must not do is wait while holding a lock one of the queued bodies
//! takes — it may be handed that body.
//!
//! # Scheduling state
//!
//! Everything the scheduler decides with — the dependence window, the
//! ready queues, the counts of parked workers and parked drivers, the
//! span log and the execution tallies — is one structure (`DepState`)
//! under one mutex.
//! A submitter installs its node and queues it if ready under one
//! acquisition; a worker retires the node it ran, queues the
//! successors that released, and takes its next node under one
//! acquisition, and parks on a condition variable *with that mutex*
//! when there is nothing to take. A node can therefore not be queued
//! between a worker's last look at the queues and its going to sleep,
//! which is why no wait in this file has a timeout. Task bodies run
//! with the lock released.
//!
//! Wake-ups follow the unlock. A locked section works out the wake-ups
//! it owes (`Wakes`: a parked worker per node it queued, the parked
//! drivers after a retirement) from the counts of parked threads it
//! reads under that lock, and its caller makes them once the guard has
//! dropped — before it runs a body or returns. A thread woken under
//! the lock would find it taken: on one CPU it preempts the notifier,
//! sleeps on the mutex and is woken a second time at the unlock.
//! Making the wake-up later loses none: a thread counted as parked
//! under the lock that queued a node or retired one is either still
//! waiting when the notify comes, or has woken since and looked at the
//! state that lock left behind. Only a thread about to park notifies
//! under the lock, since parking releases it next.
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
//! Ready nodes wait in one FIFO queue per worker. A worker takes from
//! its own queue, then its peers' queues in ring order; a waiting
//! driver has no queue of its own and takes from the workers' queues
//! in the same ring order.
//!
//! # Fault tolerance
//!
//! Task bodies run under `catch_unwind`. A panic does not abort the
//! process: the node completes as *failed*, the members after the
//! panicking one are dropped unrun, its transitive successors are
//! retired without running (their bodies are dropped, and with them
//! whatever the bodies captured), and the first failure is
//! recorded as a [`TaskError`] that `Executor::fence` keeps returning
//! until `Executor::take_failure` clears it. A seeded `FaultInjector`
//! can plant deterministic panic / stall / corrupted-write faults at
//! submission time — one decision per body, in submission order,
//! fused or not — and an optional watchdog thread flags bodies that
//! exceed a configurable stall budget. All of it is pay-as-you-go:
//! with no plan armed and no budget set, the fault layer costs one
//! relaxed atomic load per body on the submit path and one on the
//! execute path.
//!
//! Timing is pay-as-you-go in the same way, and a clock is read only
//! where someone reads the time: event logging stamps every body, for
//! its span — one read as a node starts and one per body boundary,
//! since a fused body starts where the one before it ended. With
//! logging off no body is stamped and the clock is not read.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::events::{
    EventSink, ExecRecord, Provenance, SpanLog, SubmitRecord, TaskOutcome, TaskSpan,
    DEFAULT_RING_CAPACITY,
};
use crate::fault::{FaultInjector, FaultKind, FaultPlan, TaskError, TaskErrorKind};
use crate::task::{Privilege, TaskBody, TaskContext, TaskId, TaskMeta};
use crate::trace::{ProgramBody, StepGraph, Trace};

/// One task body of a node built for a single submission.
pub(crate) struct Member {
    pub id: TaskId,
    pub body: TaskBody,
    /// The task's declared requirements, as its body will see them.
    pub ctx: TaskContext,
    /// Kernel name (keys the per-kernel execution counts) and
    /// scheduling metadata; a node is placed by its first member's.
    pub meta: TaskMeta,
    /// Fault planted by the injector at submission, if any.
    pub fault: Option<FaultKind>,
}

/// One run of a step program's bodies: the capture run, where every
/// body is a node of its own, or a replay as the compiled graph. The
/// nodes of the run share it, so scheduling the step builds nothing
/// per body.
pub(crate) struct ProgramRun {
    bodies: Arc<[ProgramBody]>,
    /// Id of body 0; body `i` runs as task `base + i`.
    base: TaskId,
    /// The compiled step a replay is scheduled as; `None` for the
    /// capture run.
    graph: Option<Arc<StepGraph>>,
    /// The injector's decision per body, taken in body order when the
    /// run was made; empty when it was disarmed.
    faults: Vec<Option<FaultKind>>,
}

impl ProgramRun {
    /// The bodies of node `at`, in running order: the members of that
    /// node of the graph, or body `at` itself in a capture run.
    fn locals<'a>(&'a self, at: &'a u32) -> &'a [u32] {
        match &self.graph {
            Some(graph) => &graph.nodes[*at as usize].members,
            None => std::slice::from_ref(at),
        }
    }

    /// Body `local` of the program: the id it runs under in this run,
    /// the body, and the fault planted in it.
    fn body(&self, local: u32) -> (TaskId, &ProgramBody, Option<FaultKind>) {
        let fault = self.faults.get(local as usize).copied().flatten();
        let id = self.base + TaskId::from(local);
        (id, &self.bodies[local as usize], fault)
    }
}

/// What a node runs.
enum Work {
    /// One analyzed task, its body consumed by its run. Boxed, so a
    /// node stays a few words wide in the queues and the window.
    Single(Box<Member>),
    /// Node `at` of a program run ([`ProgramRun::locals`]).
    Program { run: Arc<ProgramRun>, at: u32 },
}

/// A scheduled node: member bodies run in order on one worker.
pub(crate) struct Runnable {
    /// Never empty; the first member's id is the node's id.
    work: Work,
    /// Event-log timestamp: when this node became ready (all
    /// predecessors retired). Zero while event logging is off.
    ready_ns: u64,
    /// Born poisoned: a dependence named a node that had already
    /// retired failed, so the bodies must be dropped, not run.
    poisoned: bool,
}

impl Runnable {
    fn new(work: Work) -> Self {
        Runnable {
            work,
            ready_ns: 0,
            poisoned: false,
        }
    }

    /// A node of one task.
    pub fn single(member: Member) -> Self {
        Self::new(Work::Single(Box::new(member)))
    }

    /// Body `at` of a capture run, as a node of its own.
    pub fn captured(run: &Arc<ProgramRun>, at: u32) -> Self {
        debug_assert!(run.graph.is_none());
        Self::new(Work::Program {
            run: Arc::clone(run),
            at,
        })
    }

    /// The node's id and the metadata it is placed by: its first
    /// body's.
    fn head(&self) -> (TaskId, &TaskMeta) {
        match &self.work {
            Work::Single(m) => (m.id, &m.meta),
            Work::Program { run, at } => {
                let (id, first, _) = run.body(run.locals(at)[0]);
                (id, &first.meta)
            }
        }
    }

    fn id(&self) -> TaskId {
        self.head().0
    }

    /// Id and kernel name of every body, in running order.
    fn for_each_body(&self, mut f: impl FnMut(TaskId, &'static str)) {
        match &self.work {
            Work::Single(m) => f(m.id, m.meta.name),
            Work::Program { run, at } => {
                for &l in run.locals(at) {
                    let (id, body, _) = run.body(l);
                    f(id, body.meta.name);
                }
            }
        }
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

/// The ready nodes, one FIFO queue per worker.
struct ReadyQueues {
    queues: Vec<VecDeque<Runnable>>,
    /// The worker the next colourless node is dealt to.
    next_colourless: usize,
}

impl ReadyQueues {
    fn new(workers: usize) -> Self {
        ReadyQueues {
            queues: (0..workers).map(|_| VecDeque::new()).collect(),
            next_colourless: 0,
        }
    }

    /// Queue a node that just became ready, stamped `ready_ns` (zero
    /// while logging is off). This is the one placement rule: a node
    /// of colour `c` goes to worker `c % W`'s queue, and colourless
    /// nodes are dealt to the workers in turn. It is applied when the
    /// node becomes ready — at submission for a node with nothing to
    /// wait for, at its last predecessor's retirement otherwise.
    fn push(&mut self, mut node: Runnable, ready_ns: u64) {
        node.ready_ns = ready_ns;
        let n = self.queues.len();
        let w = match node.head().1.color {
            Some(c) => c % n,
            None => {
                let w = self.next_colourless;
                self.next_colourless = (w + 1) % n;
                w
            }
        };
        self.queues[w].push_back(node);
    }

    /// Take the next node for lane `me` — a worker, or the driver
    /// lane one past the last worker, which has no queue of its own —
    /// and whether it came off another lane's queue: its own queue
    /// first, then the others' in ring order.
    fn pop(&mut self, me: usize) -> Option<(Runnable, bool)> {
        if let Some(r) = self.queues.get_mut(me).and_then(VecDeque::pop_front) {
            return Some((r, false));
        }
        let n = self.queues.len();
        (1..=n)
            .map(|off| (me + off) % n)
            .filter(|&w| w != me)
            .find_map(|w| self.queues[w].pop_front().map(|r| (r, true)))
    }
}

/// Execution tallies, read in one lock acquisition by
/// [`Executor::tallies`]. The scheduling state keeps the counters here
/// and the per-name ones in a [`NameTallies`]; the name-keyed map is
/// filled from it when the tallies are read, and stays empty in the
/// state.
#[derive(Clone, Default)]
pub(crate) struct Tallies {
    /// Nodes executed (a node whose body panicked included).
    pub executed: u64,
    /// Nodes a worker executed from another worker's queue.
    pub stolen: u64,
    /// Nodes executed by a driver thread while it waited (a fence or
    /// `Executor::wait_retired`), whatever queue they came off; not
    /// counted in `stolen`.
    pub run_by_drivers: u64,
    /// Task bodies that panicked (caught, not process aborts).
    pub task_failures: u64,
    /// Nodes retired-as-poisoned without running.
    pub tasks_poisoned: u64,
    /// Execution halves of spans ever recorded.
    pub events_recorded: u64,
    /// Of those, lost to ring wraparound, as of the last drain.
    pub events_dropped: u64,
    /// Executed-body tallies keyed by kernel name: bodies that ran,
    /// the ones that panicked included.
    pub task_counts: BTreeMap<&'static str, u64>,
}

/// The per-name tallies as retirement adds into them, under the
/// scheduler lock: no map, no hashing, no string comparison on the
/// common path. A name is found by its address (a kernel name is a
/// `&'static str`, so one kernel names every body with the same one);
/// only on an address miss is it looked up by its text, so names with
/// equal text still share one entry.
#[derive(Default)]
struct NameTallies {
    /// One entry per distinct name text: (name, bodies that ran).
    totals: Vec<(&'static str, u64)>,
}

impl NameTallies {
    /// Count one body of `name` that ran.
    fn add(&mut self, name: &'static str) {
        let totals = &mut self.totals;
        let by_address = totals.iter().position(|e| std::ptr::eq(e.0, name));
        let found = by_address.or_else(|| totals.iter().position(|e| e.0 == name));
        let at = found.unwrap_or_else(|| {
            totals.push((name, 0));
            totals.len() - 1
        });
        totals[at].1 += 1;
    }
}

/// The scheduling state (see the module docs): everything below is
/// read and written with `ExecShared::state` held.
struct DepState {
    /// Id of `slots[0]`.
    base: TaskId,
    /// The in-flight window.
    slots: VecDeque<Slot>,
    /// The compiled step most recently replayed and the id of its
    /// first task. Slots with a `graph_node` index into it; they are
    /// all retired before the next replay replaces it.
    batch: Option<(TaskId, Arc<StepGraph>)>,
    /// Nodes whose dependences are met and that no worker has taken.
    ready: ReadyQueues,
    /// Workers parked on `ExecShared::wake_cv` (one that has been
    /// notified counts until it holds the lock again).
    idle: usize,
    /// Waiting drivers parked on `ExecShared::idle_cv`, likewise.
    drivers_parked: usize,
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
    /// The event log's records (filled only while logging is on).
    spans: SpanLog,
    tallies: Tallies,
    names: NameTallies,
}

impl DepState {
    /// Where `id` sits in the window, if it is not below it.
    fn index_of(&self, id: TaskId) -> Option<usize> {
        usize::try_from(id.checked_sub(self.base)?).ok()
    }

    /// The slot of `id` if a node scheduled under it is still in
    /// flight.
    fn live_slot(&mut self, id: TaskId) -> Option<&mut Slot> {
        let idx = self.index_of(id)?;
        self.slots.get_mut(idx).filter(|s| s.live)
    }

    /// Whether a node scheduled under `id` is still in flight.
    fn is_live(&self, id: TaskId) -> bool {
        let slot = self.index_of(id).and_then(|idx| self.slots.get(idx));
        slot.is_some_and(|s| s.live)
    }
}

/// Per-lane watchdog slot: the body currently executing (id + 1;
/// 0 = idle) and when it started. Published only while a stall budget
/// is armed.
struct WatchSlot {
    task: AtomicU64,
    since_ns: AtomicU64,
}

struct ExecShared {
    state: Mutex<DepState>,
    /// Where idle workers park; always waited on with `state`.
    wake_cv: Condvar,
    /// Where waiting drivers park when nothing is ready; likewise.
    /// Notified by every retirement while `drivers_parked > 0`.
    idle_cv: Condvar,
    /// The event layer's enable flag and clock. Checked with one
    /// relaxed load per node when disabled.
    events: EventSink,
    /// Deterministic fault injector. Checked with one relaxed load
    /// per body at submission when disarmed.
    faults: FaultInjector,
    /// Watchdog stall budget in nanoseconds (0 = watchdog off).
    stall_budget_ns: AtomicU64,
    /// One slot per worker for the watchdog to observe, and a last
    /// one for the driver lane.
    watch: Vec<WatchSlot>,
    /// Bodies the watchdog flagged as exceeding the stall budget.
    tasks_stalled: AtomicU64,
}

/// Wake-ups a locked section owes parked threads (module docs,
/// "Scheduling state"): worked out under the scheduler lock, made by
/// `ExecShared::wake` after it drops.
#[derive(Default)]
struct Wakes {
    /// Parked workers to notify.
    workers: usize,
    /// Whether to notify the parked drivers: a node retired while one
    /// was parked.
    drivers: bool,
}

impl Wakes {
    /// Owe a parked worker to each of `nodes` nodes just queued, as
    /// far as `st` counts parked workers.
    fn queued(&mut self, st: &DepState, nodes: usize) {
        self.workers = (self.workers + nodes).min(st.idle);
    }
}

impl ExecShared {
    /// Make the wake-ups a locked section owed, once it has released
    /// the lock (or is about to park).
    fn wake(&self, owed: Wakes) {
        for _ in 0..owed.workers {
            self.wake_cv.notify_one();
        }
        if owed.drivers {
            self.idle_cv.notify_all();
        }
    }

    /// The lane bodies run by waiting drivers are recorded under: one
    /// past the last worker.
    fn driver_lane(&self) -> usize {
        self.watch.len() - 1
    }

    /// The event clock if logging is on, zero otherwise.
    fn stamp(&self, logging: bool) -> u64 {
        if logging {
            self.events.now_ns()
        } else {
            0
        }
    }
}

pub(crate) struct Executor {
    shared: Arc<ExecShared>,
    workers: Vec<JoinHandle<()>>,
    watchdog: Mutex<Option<JoinHandle<()>>>,
}

impl Executor {
    pub fn new(workers: usize) -> Self {
        Self::with_config(workers, DEFAULT_RING_CAPACITY)
    }

    /// Create with an explicit per-worker event-ring capacity (records
    /// retained between event-log drains).
    pub fn with_config(workers: usize, ring_capacity: usize) -> Self {
        assert!(workers > 0, "executor needs at least one worker");
        let shared = Arc::new(ExecShared {
            state: Mutex::new(DepState {
                base: 0,
                slots: VecDeque::new(),
                batch: None,
                ready: ReadyQueues::new(workers),
                idle: 0,
                drivers_parked: 0,
                outstanding: 0,
                shutdown: false,
                failure: None,
                poisoned_retired: HashSet::new(),
                spans: SpanLog::new(workers + 1, ring_capacity),
                tallies: Tallies::default(),
                names: NameTallies::default(),
            }),
            wake_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            events: EventSink::new(),
            faults: FaultInjector::new(),
            stall_budget_ns: AtomicU64::new(0),
            watch: (0..=workers)
                .map(|_| WatchSlot {
                    task: AtomicU64::new(0),
                    since_ns: AtomicU64::new(0),
                })
                .collect(),
            tasks_stalled: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("kdr-worker-{w}"))
                    .spawn(move || {
                        // Back at shutdown, with the lock.
                        drop(run_nodes(&shared, shared.state.lock(), Role::Worker(w)));
                    })
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
        let shared = &*self.shared;
        // Fault decisions happen here, at submission: the runtime
        // serializes submissions, so a seeded plan reproduces the
        // same injections regardless of worker interleaving. (A
        // program run took its bodies' when it was made.)
        if let Work::Single(m) = &mut runnable.work {
            m.fault = shared.faults.decide(m.meta.name);
        }
        let (id, name) = {
            let (id, meta) = runnable.head();
            (id, meta.name)
        };
        let logging = shared.events.enabled();
        let mut st = shared.state.lock();
        // Stamped under the lock: a dependence that retired before this
        // acquisition has an end stamp no later than this node's
        // submit (and ready) stamp.
        let now_ns = shared.stamp(logging);
        if logging {
            st.spans.record_submits([SubmitRecord {
                id,
                name,
                provenance: Provenance::Analyzed,
                submit_ns: now_ns,
                deps: deps.to_vec(),
            }]);
        }
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
        let mut owed = Wakes::default();
        if let Some(node) = ready {
            st.ready.push(node, now_ns);
            owed.queued(&st, 1);
        }
        drop(st);
        shared.wake(owed);
    }

    /// The bodies of a step program as one run starting at id `base`:
    /// the capture run (`graph` is `None`; the caller submits body `i`
    /// as [`Runnable::captured`]) or a replay of the compiled `graph`.
    /// Takes the injector's decision for every body here, in body
    /// order — the order task-by-task submission would take them in,
    /// since nothing else is submitted while the run goes in.
    pub fn program_run(
        &self,
        bodies: Arc<[ProgramBody]>,
        base: TaskId,
        graph: Option<Arc<StepGraph>>,
    ) -> Arc<ProgramRun> {
        let faults = &self.shared.faults;
        Arc::new(ProgramRun {
            faults: faults.decide_all(bodies.iter().map(|b| b.meta.name)),
            bodies,
            base,
            graph,
        })
    }

    /// Enqueue one replayed step: body `i` of `bodies` is the `i`-th
    /// task of `trace` and gets the id `base + i`; the trace's
    /// compiled graph says which node each belongs to and how the
    /// nodes depend on one another. The executor must be quiescent
    /// (the runtime fences before a replay), so the step has no
    /// outside dependences and the whole graph is installed under one
    /// lock acquisition, followed by one round of wake-ups for its
    /// initially ready nodes. A submitter that `waits` for the step
    /// next ([`Executor::wait_retired`] on some of its nodes) takes
    /// one of those nodes itself, so it wakes a worker for every ready
    /// node but one.
    pub fn submit_graph(
        &self,
        base: TaskId,
        trace: &Trace,
        bodies: Arc<[ProgramBody]>,
        waits: bool,
    ) {
        let shared = &*self.shared;
        let graph = &trace.graph;
        debug_assert_eq!(bodies.len(), graph.node_of.len());
        let logging = shared.events.enabled();
        let now_ns = shared.stamp(logging);
        let mut submits = Vec::new();
        if logging {
            let bodies = bodies.iter().zip(&trace.deps).zip(base..);
            submits.extend(bodies.map(|((b, deps), id)| SubmitRecord {
                id,
                name: b.meta.name,
                provenance: Provenance::Replayed,
                submit_ns: now_ns,
                deps: deps.iter().map(|&l| base + l as TaskId).collect(),
            }));
        }
        // One fault decision per body in submission order, exactly as
        // task-by-task submission makes them.
        let program = self.program_run(bodies, base, Some(Arc::clone(graph)));
        let mut st = shared.state.lock();
        assert_eq!(st.outstanding, 0, "a replay needs a quiescent executor");
        st.spans.record_submits(submits);
        st.base = base;
        st.slots.clear();
        st.slots.resize_with(graph.node_of.len(), Slot::vacant);
        let mut ready = 0usize;
        for (k, node) in graph.nodes.iter().enumerate() {
            let run = Runnable::new(Work::Program {
                run: Arc::clone(&program),
                at: k as u32,
            });
            let slot = &mut st.slots[node.leader() as usize];
            slot.live = true;
            slot.graph_node = k as u32;
            slot.unmet = node.indegree;
            if node.indegree == 0 {
                st.ready.push(run, now_ns);
                ready += 1;
            } else {
                slot.parked = Some(run);
            }
        }
        // Before any node can run: the nodes hold the bodies, and the
        // last to go drops them.
        drop(program);
        st.outstanding = graph.nodes.len();
        st.batch = Some((base, Arc::clone(graph)));
        let mut owed = Wakes::default();
        owed.queued(&st, ready.saturating_sub(usize::from(waits)));
        drop(st);
        shared.wake(owed);
    }

    /// Wait until `done` holds of the scheduling state, as a driver
    /// of the scheduling loop (`run_nodes`): running ready nodes while
    /// there are any, parked while there are none. Returns what `read`
    /// makes of the state `done` was seen to hold in and of the time
    /// spent parked; the wake-ups the driver's last retirement owes
    /// are made once that lock drops.
    fn wait_until<R>(
        &self,
        done: impl Fn(&DepState) -> bool,
        read: impl FnOnce(&DepState, Duration) -> R,
    ) -> R {
        let shared = &*self.shared;
        let (st, parked, owed) = run_nodes(shared, shared.state.lock(), Role::Driver(&done));
        let out = read(&st, parked);
        drop(st);
        shared.wake(owed);
        out
    }

    /// Wait until every submitted node has finished, running ready
    /// nodes meanwhile. If any task failed since the last
    /// [`Executor::take_failure`], returns the first failure (and
    /// keeps returning it until taken).
    pub fn fence(&self) -> Result<(), TaskError> {
        self.wait_until(
            |st| st.outstanding == 0,
            |st, _| st.failure.clone().map_or(Ok(()), Err),
        )
    }

    /// Wait until none of the nodes `ids` is in flight, running ready
    /// nodes meanwhile; an id no node was scheduled under (a fused
    /// member's) reads as finished. Returns the time
    /// the caller had nothing to run and was parked — or, if one of
    /// the nodes retired failed or poisoned since the last
    /// [`Executor::take_failure`], the recorded failure.
    pub fn wait_retired(&self, ids: &[TaskId]) -> Result<Duration, TaskError> {
        self.wait_until(
            |st| !ids.iter().any(|&id| st.is_live(id)),
            |st, parked| {
                if ids.iter().any(|id| st.poisoned_retired.contains(id)) {
                    // A node retires poisoned under the acquisition that
                    // recorded the failure, and the two are cleared
                    // together.
                    Err(st
                        .failure
                        .clone()
                        .expect("a poisoned node has a recorded failure"))
                } else {
                    Ok(parked)
                }
            },
        )
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

    /// The execution tallies as of now, the per-name table folded into
    /// its map.
    pub fn tallies(&self) -> Tallies {
        let st = self.shared.state.lock();
        let mut t = st.tallies.clone();
        for &(name, count) in &st.names.totals {
            *t.task_counts.entry(name).or_insert(0) += count;
        }
        t
    }

    /// Bodies the watchdog flagged for exceeding the stall budget.
    pub fn tasks_stalled(&self) -> u64 {
        self.shared.tasks_stalled.load(Ordering::Relaxed)
    }

    /// Faults planted by the injector.
    pub fn faults_injected(&self) -> u64 {
        self.shared.faults.injected()
    }

    /// Number of worker threads; also the lane bodies run by waiting
    /// drivers are recorded under.
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

    /// The event layer's enable flag and clock.
    pub fn events(&self) -> &EventSink {
        &self.shared.events
    }

    /// Drain the span log into complete spans, sorted by task id. The
    /// span of a task that has not retired yet is left for the next
    /// drain.
    pub fn drain_spans(&self) -> Vec<TaskSpan> {
        let mut st = self.shared.state.lock();
        let in_flight_from = st.base;
        let (spans, lost) = st.spans.drain(in_flight_from);
        st.tallies.events_dropped += lost;
        spans
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock();
        st.shutdown = true;
        // A worker that is not parked sees `shutdown` before it parks.
        let owed = Wakes {
            workers: st.idle,
            drivers: false,
        };
        drop(st);
        self.shared.wake(owed);
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.shared.stall_budget_ns.store(0, Ordering::Relaxed);
        if let Some(h) = self.watchdog.lock().take() {
            let _ = h.join();
        }
    }
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

impl BodyRecord {
    /// A body dropped without running at `now_ns`.
    fn unrun(id: TaskId, name: &'static str, now_ns: u64) -> Self {
        BodyRecord {
            id,
            name,
            outcome: TaskOutcome::Poisoned,
            ready_ns: now_ns,
            start_ns: now_ns,
            end_ns: now_ns,
        }
    }
}

/// What the scheduling loop hands to [`retire_locked`].
enum Retiring<'a> {
    /// Node `id` ran; its bodies ended as `bodies` say.
    Ran { id: TaskId, bodies: &'a [BodyRecord] },
    /// The node was born poisoned and is retired without running.
    Unrun(Runnable),
}

/// Retire a node and cascade poison through the DAG: successors of a
/// failed node are marked poisoned; any that become ready while
/// poisoned are retired in turn (their bodies dropped, not run).
/// Successors that become ready unpoisoned are queued; returns how many
/// were. Runs entirely under the state lock, so fences observing
/// `outstanding == 0` see every span and counter of the cascade.
/// Drivers parked for want of a ready node are owed a wake-up (in
/// `owed`) to look again: for what was released, and at the condition
/// they wait for, which only a retirement makes true.
fn retire_locked(
    shared: &ExecShared,
    st: &mut DepState,
    first: Retiring<'_>,
    me: usize,
    logging: bool,
    owed: &mut Wakes,
) -> usize {
    // Nodes to retire without running.
    let mut unrun: Vec<Runnable> = Vec::new();
    let mut released = 0;
    match first {
        Retiring::Ran { id, bodies } => {
            released += retire_one(shared, st, id, bodies, &mut unrun, me, logging)
        }
        Retiring::Unrun(run) => unrun.push(run),
    }
    while let Some(run) = unrun.pop() {
        st.tallies.tasks_poisoned += 1;
        let now = shared.stamp(logging);
        let mut records = Vec::new();
        run.for_each_body(|id, name| records.push(BodyRecord::unrun(id, name, now)));
        let id = run.id();
        // Dropping the node drops the body it owns, and what that
        // captured; a program run's bodies go with its last node.
        drop(run);
        released += retire_one(shared, st, id, &records, &mut unrun, me, logging);
    }
    while st.slots.front().is_some_and(|s| !s.live) {
        st.slots.pop_front();
        st.base += 1;
    }
    owed.drivers |= st.drivers_parked > 0;
    released
}

/// One step of [`retire_locked`]: release (or poison) the successors
/// of node `id`, account its bodies, and count it finished. Returns
/// the number of successors queued.
fn retire_one(
    shared: &ExecShared,
    st: &mut DepState,
    id: TaskId,
    bodies: &[BodyRecord],
    unrun: &mut Vec<Runnable>,
    me: usize,
    logging: bool,
) -> usize {
    let poison = bodies.iter().any(|b| b.outcome != TaskOutcome::Completed);
    if poison {
        st.poisoned_retired.insert(id);
    }
    // The node's retire stamp is its successors' ready stamp.
    let retire_ns = shared.stamp(logging);
    let mut released = 0;
    let DepState {
        base,
        slots,
        batch,
        ready,
        ..
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
                    .map(move |&s| first + TaskId::from(graph.nodes[s as usize].leader())),
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
                ready.push(run, retire_ns);
                released += 1;
            }
        }
    }
    // Record the spans while the node still counts as outstanding: a
    // fence observing `outstanding == 0` then implies every executed
    // body's span has landed, so fence-then-snapshot sequences
    // (take_spans, metrics) never see a straggler.
    for b in bodies {
        if b.outcome != TaskOutcome::Poisoned {
            st.names.add(b.name);
        }
        if logging {
            let rec = ExecRecord {
                id: b.id,
                ready_ns: b.ready_ns,
                start_ns: b.start_ns,
                end_ns: b.end_ns,
                retire_ns,
                outcome: b.outcome,
            };
            st.spans.record_exec(me, rec);
            st.tallies.events_recorded += 1;
        }
    }
    st.outstanding -= 1;
    released
}

/// The bodies of one node as lane `me` runs them: what became of each
/// so far, and the failure of the one that panicked.
struct NodeRun<'a> {
    shared: &'a ExecShared,
    me: usize,
    /// Event logging: stamp every body, for its span.
    logging: bool,
    /// The watchdog's stall budget; one relaxed load per node when it
    /// is off — the fault layer's entire cost on the disabled execute
    /// path (the injected-fault check is a plain field read).
    budget: u64,
    /// A fused member is ready the moment the one before it returns.
    ready_ns: u64,
    records: &'a mut Vec<BodyRecord>,
    failure: Option<TaskError>,
}

impl NodeRun<'_> {
    /// Run the next body of the node through `call` — or, once a body
    /// of the node has panicked, record it as poisoned and drop `call`
    /// unrun.
    ///
    /// This is the one place a body is stamped, and only while event
    /// logging is on: a body after the first of its node starts where
    /// the one before it ended, so each boundary costs one clock read.
    fn body(
        &mut self,
        id: TaskId,
        name: &'static str,
        fault: Option<FaultKind>,
        ctx: &TaskContext,
        call: impl FnOnce(&TaskContext),
    ) {
        if self.failure.is_some() {
            self.records
                .push(BodyRecord::unrun(id, name, self.ready_ns));
            return;
        }
        let (shared, me) = (self.shared, self.me);
        let start_ns = match self.records.last() {
            Some(before) if self.logging => before.end_ns,
            _ => shared.stamp(self.logging),
        };
        if self.budget > 0 {
            let slot = &shared.watch[me];
            slot.since_ns
                .store(shared.events.now_ns(), Ordering::Relaxed);
            slot.task.store(id + 1, Ordering::Release);
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match fault {
            Some(FaultKind::Panic) => {
                panic!("injected fault: forced panic in '{name}'")
            }
            Some(FaultKind::Stall { millis }) => {
                std::thread::sleep(Duration::from_millis(millis));
                call(ctx)
            }
            _ => call(ctx),
        }));
        if self.budget > 0 {
            shared.watch[me].task.store(0, Ordering::Release);
        }
        if result.is_ok() && fault == Some(FaultKind::CorruptWrite) {
            // Silent corruption: flip the first element of the first
            // writable requirement to an all-ones pattern (NaN for
            // floats) after the body completed normally.
            if let Some(req) = ctx.reqs.iter().find(|r| r.privilege == Privilege::Write) {
                (req.corrupt)(req);
            }
        }
        let end_ns = shared.stamp(self.logging);
        self.records.push(BodyRecord {
            id,
            name,
            outcome: match result {
                Ok(()) => TaskOutcome::Completed,
                Err(_) => TaskOutcome::Panicked,
            },
            ready_ns: self.ready_ns,
            start_ns,
            end_ns,
        });
        self.ready_ns = end_ns;
        if let Err(payload) = result {
            self.failure = Some(TaskError {
                task: id,
                name,
                kind: TaskErrorKind::Panicked(panic_message(payload.as_ref())),
            });
        }
    }
}

/// Run the bodies of `node` in order, with the scheduler lock
/// released, filling `records` with what became of each. Returns the
/// failure of the body that panicked, if one did; the bodies behind
/// it do not run.
fn run_node(
    shared: &ExecShared,
    me: usize,
    node: Runnable,
    logging: bool,
    records: &mut Vec<BodyRecord>,
) -> Option<TaskError> {
    records.clear();
    let mut run = NodeRun {
        shared,
        me,
        logging,
        budget: shared.stall_budget_ns.load(Ordering::Relaxed),
        ready_ns: node.ready_ns,
        records,
        failure: None,
    };
    match node.work {
        Work::Single(m) => {
            let m = *m;
            run.body(m.id, m.meta.name, m.fault, &m.ctx, |ctx| m.body.run(ctx))
        }
        Work::Program { run: program, at } => {
            for &l in program.locals(&at) {
                let (id, b, fault) = program.body(l);
                run.body(id, b.meta.name, fault, &b.ctx, |ctx| (b.body)(ctx));
            }
        }
    }
    run.failure
}

/// Who is in the scheduling loop: decides the lane its bodies are
/// recorded under, when the loop returns and where it parks.
enum Role<'a> {
    /// Pool thread `w`: returns when shutdown finds nothing ready;
    /// parks on `wake_cv`, counted in `DepState::idle`.
    Worker(usize),
    /// A thread waiting on the executor: returns as soon as the
    /// condition holds; parks on `idle_cv`, counted in
    /// `DepState::drivers_parked`.
    Driver(&'a dyn Fn(&DepState) -> bool),
}

/// The scheduling loop, for pool threads and waiting drivers alike
/// (module docs, "Waits that work"): take a ready node, run its bodies
/// with the lock released, retire it and queue what it released, all
/// but the running under the acquisition `st` — and park, with that
/// lock, when nothing is ready. Returns the lock the role's exit
/// condition was seen under, the time spent parked as a driver, and
/// the wake-ups still owed, which the caller makes once it has
/// dropped that lock.
fn run_nodes<'a>(
    shared: &'a ExecShared,
    mut st: MutexGuard<'a, DepState>,
    role: Role<'_>,
) -> (MutexGuard<'a, DepState>, Duration, Wakes) {
    let (me, by_driver) = match role {
        Role::Worker(w) => (w, false),
        Role::Driver(_) => (shared.driver_lane(), true),
    };
    // The bodies of the node in hand, reused from node to node.
    let mut records: Vec<BodyRecord> = Vec::new();
    // Successors this thread queued in the critical section it is
    // still in.
    let mut released = 0usize;
    // Wake-ups owed since this thread last released the lock.
    let mut owed = Wakes::default();
    let mut parked = Duration::ZERO;
    loop {
        if matches!(role, Role::Driver(done) if done(&st)) {
            owed.queued(&st, released);
            return (st, parked, owed);
        }
        let next = st.ready.pop(me);
        // This thread takes one of the nodes it just queued itself;
        // each of the others gets a parked worker, if there is one.
        owed.queued(&st, released.saturating_sub(1));
        released = 0;
        let Some((node, stolen)) = next else {
            // Under the lock: this thread parks next, which releases
            // the lock an instant after the notify. Releasing it first
            // would cost an acquisition more to look at the queues
            // again, and read slower (EXPERIMENTS.md "What a hand-off
            // costs").
            shared.wake(std::mem::take(&mut owed));
            // Parking releases the lock this thread found the queues
            // empty under, so whoever queues a node next sees a worker
            // in `idle` and wakes it, and whoever retires one next
            // sees a driver in `drivers_parked` and wakes it.
            match role {
                Role::Worker(_) if st.shutdown => return (st, parked, Wakes::default()),
                Role::Worker(_) => {
                    st.idle += 1;
                    shared.wake_cv.wait(&mut st);
                    st.idle -= 1;
                }
                Role::Driver(_) => {
                    st.drivers_parked += 1;
                    let since = Instant::now();
                    shared.idle_cv.wait(&mut st);
                    parked += since.elapsed();
                    st.drivers_parked -= 1;
                }
            }
            continue;
        };
        st.tallies.stolen += u64::from(stolen && !by_driver);
        // One relaxed load while logging is off — the entire cost the
        // event layer adds to the disabled execute path.
        let logging = shared.events.enabled();
        if node.poisoned {
            // Born poisoned: a dependence had already retired failed.
            // What this owes is made with the next release of the lock.
            let unrun = Retiring::Unrun(node);
            released = retire_locked(shared, &mut st, unrun, me, logging, &mut owed);
            continue;
        }
        drop(st);
        shared.wake(std::mem::take(&mut owed));
        let id = node.id();
        let failure = run_node(shared, me, node, logging, &mut records);

        // Retire: record any failure, release (or poison) successors,
        // and go round to take the next node, all under one
        // acquisition.
        st = shared.state.lock();
        st.tallies.executed += 1;
        st.tallies.run_by_drivers += u64::from(by_driver);
        if let Some(e) = failure {
            st.tallies.task_failures += 1;
            st.failure.get_or_insert(e);
        }
        let ran = Retiring::Ran {
            id,
            bodies: &records,
        };
        released = retire_locked(shared, &mut st, ran, me, logging, &mut owed);
    }
}

/// The watchdog: periodically scans every lane's watch slot and
/// counts bodies that have been executing longer than the stall
/// budget. Exits when the budget is cleared or the executor shuts
/// down. Each (lane, body) pair is flagged at most once.
fn watchdog_loop(shared: Arc<ExecShared>) {
    let mut flagged: HashMap<usize, u64> = HashMap::new();
    loop {
        let budget = shared.stall_budget_ns.load(Ordering::Relaxed);
        if budget == 0 {
            return;
        }
        if shared.state.lock().shutdown {
            return;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultSpec, FireSchedule};
    use std::sync::atomic::{AtomicBool, AtomicUsize};

    fn member(id: TaskId, meta: TaskMeta, f: impl FnOnce() + Send + 'static) -> Member {
        Member {
            id,
            body: TaskBody::Once(Box::new(move |_| f())),
            ctx: TaskContext { reqs: Vec::new() },
            meta,
            fault: None,
        }
    }

    fn runnable(id: TaskId, f: impl FnOnce() + Send + 'static) -> Runnable {
        Runnable::single(member(id, TaskMeta::new("test"), f))
    }

    fn runnable_colored(id: TaskId, color: usize, f: impl FnOnce() + Send + 'static) -> Runnable {
        Runnable::single(member(id, TaskMeta::new("test").with_color(color), f))
    }

    /// The ids queued on each worker, front first.
    fn queued(q: &ReadyQueues) -> Vec<Vec<TaskId>> {
        let ids = |w: &VecDeque<Runnable>| w.iter().map(Runnable::id).collect();
        q.queues.iter().map(ids).collect()
    }

    #[test]
    fn ready_queues_place_colour_c_on_worker_c_mod_w() {
        let node = |id, meta| Runnable::single(member(id, meta, || {}));
        let plain = TaskMeta::new("t");
        let mut q = ReadyQueues::new(3);
        // A colour lands on its worker, every time.
        for (id, c) in [(0, 7), (1, 2), (2, 3), (3, 7)] {
            q.push(node(id, plain.with_color(c)), 0);
        }
        // Colourless nodes are dealt in turn, not piled on worker 0.
        for id in 4..8 {
            q.push(node(id, plain), 0);
        }
        assert_eq!(queued(&q), vec![vec![2, 4, 7], vec![0, 3, 5], vec![1, 6]]);
        let mut pop = |me| q.pop(me).map(|(r, stolen)| (r.id(), stolen));
        // A worker's own queue first.
        assert_eq!(pop(1), Some((0, false)));
        assert_eq!(pop(2), Some((1, false)));
        assert_eq!(pop(2), Some((6, false)));
        // An empty queue steals from the next peer in ring order.
        assert_eq!(pop(2), Some((2, true)));
    }

    #[test]
    fn one_worker_and_the_driver_pop_in_push_order() {
        let node = |id, meta| Runnable::single(member(id, meta, || {}));
        let plain = TaskMeta::new("t");
        let mut q = ReadyQueues::new(1);
        for id in 0..6 {
            let meta = if id % 2 == 0 { plain.with_color(id as usize) } else { plain };
            q.push(node(id, meta), 0);
        }
        // Worker 0 and the driver lane (1) take turns at one queue.
        let order: Vec<TaskId> = (0..6).map(|i| q.pop(i % 2).unwrap().0.id()).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
        assert!(q.pop(0).is_none() && q.pop(1).is_none());
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
        assert_eq!(ex.tallies().executed, 32);
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
        assert_eq!(ex.tallies().executed, 2);
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
        assert_eq!(ex.tallies().executed, 2);
        assert_eq!(ex.tallies().task_failures, 1);
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
        assert_eq!(ex.tallies().tasks_poisoned, 3);
        assert_eq!(ex.tallies().task_failures, 1);
        // Only the root body and the independent task executed.
        assert_eq!(ex.tallies().executed, 2);
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
        assert_eq!(ex.tallies().tasks_poisoned, 1);
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
            (err.task, ex.faults_injected(), ex.tallies().task_failures)
        };
        assert_eq!(run(), (4, 1, 1), "5th submitted task must panic");
        assert_eq!(run(), run(), "identical plans give identical failures");
    }

    #[test]
    fn names_with_equal_text_share_one_tally() {
        // Two names with the same text at different addresses: found
        // by address, they must still fold into one entry.
        let literal: &'static str = "twin";
        let leaked: &'static str = String::from("twin").leak();
        assert!(!std::ptr::eq(literal, leaked));
        let ex = Executor::new(1);
        let pause = || std::thread::sleep(Duration::from_micros(50));
        ex.submit(Runnable::single(member(0, TaskMeta::new(literal), pause)), &[]);
        ex.submit(Runnable::single(member(1, TaskMeta::new(leaked), pause)), &[]);
        ex.submit(Runnable::single(member(2, TaskMeta::new(leaked), pause)), &[]);
        // Panicked: counted. Its successors are poisoned: not
        // counted, so `ghost` gets no entry at all.
        let boom = move || {
            pause();
            panic!("boom");
        };
        ex.submit(Runnable::single(member(3, TaskMeta::new("boom"), boom)), &[]);
        ex.submit(Runnable::single(member(4, TaskMeta::new(literal), || {})), &[3]);
        ex.submit(Runnable::single(member(5, TaskMeta::new("ghost"), || {})), &[3]);
        ex.submit(Runnable::single(member(6, TaskMeta::new("other"), pause)), &[]);
        assert_eq!(ex.fence().unwrap_err().task, 3);
        let t = ex.tallies();
        assert_eq!(
            t.task_counts.into_iter().collect::<Vec<_>>(),
            [("boom", 1), ("other", 1), ("twin", 3)]
        );
        assert_eq!((t.task_failures, t.tasks_poisoned), (1, 2));
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
        // keeps this from being deterministic). The fencing thread
        // takes nodes too, off either queue: those are counted apart.
        let ex = Executor::new(2);
        let hits = Arc::new(AtomicUsize::new(0));
        let by_driver = Arc::new(AtomicUsize::new(0));
        // Both workers are held until every task is queued and the
        // fencing thread has taken one, which it keeps until a worker
        // has run a task of its own color.
        let gate = Arc::new(AtomicBool::new(false));
        let held = Arc::new(AtomicUsize::new(0));
        for id in 0..2u64 {
            let (gate, held) = (Arc::clone(&gate), Arc::clone(&held));
            ex.submit(
                runnable(id, move || {
                    held.fetch_add(1, Ordering::Release);
                    while !gate.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                }),
                &[],
            );
        }
        while held.load(Ordering::Acquire) < 2 {
            std::thread::yield_now();
        }
        for id in 2..202u64 {
            let (hits, by_driver, gate) = (Arc::clone(&hits), Arc::clone(&by_driver), Arc::clone(&gate));
            let color = (id % 2) as usize;
            ex.submit(
                runnable_colored(id, color, move || {
                    let name = std::thread::current().name().unwrap_or("").to_string();
                    match name.strip_prefix("kdr-worker-") {
                        Some(w) => {
                            if w.parse() == Ok(color) {
                                hits.fetch_add(1, Ordering::Release);
                            }
                        }
                        None => {
                            by_driver.fetch_add(1, Ordering::Relaxed);
                            gate.store(true, Ordering::Release);
                            while hits.load(Ordering::Acquire) == 0 {
                                std::thread::yield_now();
                            }
                        }
                    }
                }),
                &[],
            );
        }
        ex.fence().unwrap();
        let t = ex.tallies();
        assert_eq!(t.executed, 202);
        let by_driver = by_driver.load(Ordering::Relaxed) as u64;
        assert!(by_driver >= 1, "the fencing thread runs ready nodes");
        assert_eq!(t.run_by_drivers, by_driver);
        assert!(
            hits.load(Ordering::Relaxed) > 0,
            "affinity must route at least some tasks home"
        );
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
}
