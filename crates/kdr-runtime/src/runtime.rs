//! The user-facing runtime: submission, fencing, step programs
//! (compiled, then run) and trace capture/replay.
//!
//! A thread that waits here — [`Runtime::fence`],
//! [`Runtime::wait_written`], the quiescing fences of capture and
//! replay — runs ready tasks while it waits (see [`crate::executor`]).
//! Every such wait is taken with this module's state lock released, so
//! a body the waiting thread is handed can never need a lock its own
//! thread holds here.
//!
//! Failures never abort the process: user-reachable entry points
//! return typed [`RuntimeError`]s, task panics surface as
//! [`TaskError`]s at fences (see [`Runtime::fence`] /
//! [`Runtime::take_failure`]), and the deterministic fault injector /
//! stall watchdog are armed through [`Runtime::set_fault_plan`] and
//! [`Runtime::set_stall_budget`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::events::{Provenance, TaskSpan};
use crate::executor::{Executor, Member, Runnable};
use crate::fault::{FaultPlan, RuntimeError, TaskError};
use crate::graph::Analyzer;
use crate::metrics::MetricsSnapshot;
use crate::task::{req_lites, ReqLite, TaskBuilder, TaskContext, TaskId, TaskMeta};
use crate::trace::{ProgramBody, ShapeSig, StepProgram, Trace};

/// A capture in progress. Only the owning thread submits while it is
/// open, so the captured tasks' ids are `first_id, first_id + 1, …`
/// and a task's trace-local index is its id minus `first_id`.
struct TraceCapture {
    first_id: TaskId,
    deps: Vec<Vec<usize>>,
    /// Scheduling metadata of each captured task: what the compile
    /// step fuses by.
    metas: Vec<TaskMeta>,
    /// Names and accesses of the captured tasks: what a replay's task
    /// list must match.
    sig: ShapeSig,
}

struct RtState {
    analyzer: Analyzer,
    next_id: TaskId,
    capture: Option<TraceCapture>,
    /// Thread that opened the active capture. Submissions and
    /// replays from other threads block until the capture closes, so
    /// a shared runtime cannot interleave a foreign task into a
    /// trace (which would corrupt the recorded frontier).
    capture_owner: Option<std::thread::ThreadId>,
    tasks_submitted: u64,
    tasks_replayed: u64,
    tasks_analyzed: u64,
    tasks_fused: u64,
}

/// A task-oriented runtime instance owning a worker pool.
///
/// Every method takes `&self`, so one runtime can be shared across
/// threads behind an `Arc`: dependence analysis is serialized by an
/// internal lock, buffer ids are globally unique, and trace capture
/// is gated per-thread (a capture opened on one thread blocks
/// submissions from other threads until it closes, instead of
/// recording their tasks into the wrong trace).
pub struct Runtime {
    exec: Executor,
    state: Mutex<RtState>,
    /// Signaled when the active trace capture closes.
    capture_cv: Condvar,
    /// Reduction stages launched (one per fused multi-dot, however
    /// many scalars it combines).
    reduction_stages: AtomicU64,
    /// Nanoseconds callers spent parked, with nothing to run, waiting
    /// for reduction results.
    reduction_stall_ns: AtomicU64,
}

impl Runtime {
    /// Create a runtime with `workers` threads. A ready task of
    /// partition colour `c` is queued on worker `c % workers`, and
    /// colourless tasks are dealt to the workers in turn; idle workers
    /// steal.
    pub fn new(workers: usize) -> Self {
        Self::build(Executor::new(workers))
    }

    /// Create a runtime with an explicit per-worker event-ring
    /// capacity (records retained between [`Runtime::take_spans`]
    /// calls). Useful for tests and for bounding memory on long runs;
    /// rings overwrite their oldest records when full, they never
    /// block execution.
    pub fn with_event_capacity(workers: usize, ring_capacity: usize) -> Self {
        Self::build(Executor::with_config(workers, ring_capacity))
    }

    fn build(exec: Executor) -> Self {
        Runtime {
            exec,
            state: Mutex::new(RtState {
                analyzer: Analyzer::new(),
                next_id: 0,
                capture: None,
                capture_owner: None,
                tasks_submitted: 0,
                tasks_replayed: 0,
                tasks_analyzed: 0,
                tasks_fused: 0,
            }),
            capture_cv: Condvar::new(),
            reduction_stages: AtomicU64::new(0),
            reduction_stall_ns: AtomicU64::new(0),
        }
    }

    /// Count one global reduction stage (a fused multi-dot counts
    /// once, however many scalars it combines). Backends call this
    /// when they launch a combine task.
    pub fn record_reduction_stage(&self) {
        self.reduction_stages.fetch_add(1, Ordering::Relaxed);
    }

    /// Account nanoseconds a caller spent *parked* waiting for a
    /// reduction result: what [`Runtime::wait_written`] returns. Time
    /// the caller spent running tasks while it waited is work, not
    /// stall, and is not counted.
    pub fn record_reduction_stall_ns(&self, ns: u64) {
        self.reduction_stall_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Lock the state, blocking while another thread holds an open
    /// trace capture (the capture owner itself passes through).
    fn lock_past_foreign_capture(&self) -> parking_lot::MutexGuard<'_, RtState> {
        let mut st = self.state.lock();
        while st.capture.is_some() && st.capture_owner != Some(std::thread::current().id()) {
            self.capture_cv.wait(&mut st);
        }
        st
    }

    /// Create a runtime sized to the machine's available parallelism.
    pub fn with_default_workers() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Self::new(n)
    }

    /// Number of worker threads.
    pub fn num_workers(&self) -> usize {
        self.exec.num_workers()
    }

    /// Submit one task; returns its id. Dependences are derived
    /// automatically from the task's declared requirements. Fails
    /// with [`RuntimeError::MissingBody`] if `TaskBuilder::body` was
    /// never called.
    pub fn submit(&self, task: TaskBuilder) -> Result<TaskId, RuntimeError> {
        let lites = req_lites(&task.reqs);
        let body = match task.body {
            Some(b) => b,
            None => return Err(RuntimeError::MissingBody { task: task.name }),
        };
        let mut st = self.lock_past_foreign_capture();
        Ok(self.submit_analyzed(&mut st, &lites, task.meta, |id| {
            Runnable::single(Member {
                id,
                body,
                ctx: TaskContext { reqs: task.reqs },
                meta: task.meta,
                fault: None,
            })
        }))
    }

    /// Analyze one task against the frontier, record it in the open
    /// capture if there is one, and hand the node `node(id)` to the
    /// executor with the dependences found.
    fn submit_analyzed(
        &self,
        st: &mut RtState,
        lites: &[ReqLite],
        meta: TaskMeta,
        node: impl FnOnce(TaskId) -> Runnable,
    ) -> TaskId {
        let id = st.next_id;
        st.next_id += 1;
        st.tasks_submitted += 1;
        st.tasks_analyzed += 1;
        let deps = st.analyzer.analyze(id, lites);
        if let Some(cap) = &mut st.capture {
            // The capture began from a cleared analyzer, so every
            // dependence is on a task of this capture.
            let first = cap.first_id;
            cap.deps
                .push(deps.iter().map(|d| (d - first) as usize).collect());
            cap.metas.push(meta);
            let accesses = lites.iter().map(|l| (l.buffer_id, &l.subset, l.write));
            cap.sig.push(meta.name, accesses);
        }
        // The caller holds the state lock across executor submission,
        // so tasks enter the executor in analysis order (which also
        // keeps fault-injection decisions deterministic).
        self.exec.submit(node(id), &deps);
        id
    }

    /// Wait until all submitted tasks have completed; the calling
    /// thread runs ready tasks while it waits. If any task failed
    /// since the last [`Runtime::take_failure`], returns the first
    /// [`TaskError`] — and keeps returning it on subsequent fences
    /// until the failure is taken, so a failure cannot be silently
    /// lost between fences.
    pub fn fence(&self) -> Result<(), TaskError> {
        self.exec.fence()
    }

    /// Wait until no task that writes one of `buffers` (by
    /// [`Buffer::id`](crate::Buffer::id)) is in flight, so that the
    /// caller may read them where they are
    /// ([`Buffer::peek`](crate::Buffer::peek)): no task is submitted,
    /// nothing is allocated per value, and nothing else is waited for.
    /// The calling thread runs ready tasks while it waits; the time it
    /// had none to run and was parked is returned.
    ///
    /// The tasks waited for are the writers on the buffers' access
    /// frontiers as of this call — every submitted write that has not
    /// retired is one of them or ordered before one — so the caller
    /// must be the only one submitting writers of these buffers, as
    /// for [`Buffer::snapshot`](crate::Buffer::snapshot).
    ///
    /// If one of those tasks failed, or was retired unrun because a
    /// predecessor had, since the last [`Runtime::take_failure`], the
    /// buffers do not hold what the program computes and the recorded
    /// [`TaskError`] is returned instead.
    pub fn wait_written(
        &self,
        buffers: impl IntoIterator<Item = u64>,
    ) -> Result<Duration, TaskError> {
        let mut writers = Vec::new();
        {
            let st = self.state.lock();
            for buffer in buffers {
                st.analyzer.writers(buffer, &mut writers);
            }
        }
        self.exec.wait_retired(&writers)
    }

    /// Remove and return the recorded task failure, if any, re-arming
    /// the runtime for further work.
    pub fn take_failure(&self) -> Option<TaskError> {
        self.exec.take_failure()
    }

    /// Arm (or disarm, with `None`) the deterministic fault injector.
    /// Decisions are made at submission time, which the runtime
    /// serializes, so a fixed seed reproduces the same faults
    /// run-to-run. Disarmed cost: one relaxed atomic load per
    /// submitted task.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        self.exec.set_fault_plan(plan);
    }

    /// Set (or clear, with `None`) the watchdog stall budget: tasks
    /// executing longer than this are counted in
    /// [`MetricsSnapshot::tasks_stalled`]. Disabled cost: one relaxed
    /// atomic load per executed task.
    pub fn set_stall_budget(&self, budget: Option<Duration>) {
        self.exec.set_stall_budget(budget);
    }

    /// Begin capturing a trace. Fences first (traces start from a
    /// quiescent runtime) and resets the analyzer, which is sound
    /// because every frontier entry then refers to a finished task.
    ///
    /// On a shared runtime, captures are exclusive: if another thread
    /// has a capture open, this call blocks until it closes; while
    /// this thread's capture is open, submissions and replays from
    /// other threads block. Re-entry from the capture-owning thread
    /// still fails with [`RuntimeError::NestedTrace`].
    pub fn begin_trace(&self) -> Result<(), RuntimeError> {
        self.open_capture()
    }

    /// The capture gate behind [`Runtime::begin_trace`]: wait out a
    /// foreign capture, quiesce, clear the analyzer and open this
    /// thread's capture.
    fn open_capture(&self) -> Result<(), RuntimeError> {
        loop {
            self.exec.fence().map_err(RuntimeError::TaskFailed)?;
            let mut st = self.state.lock();
            if st.capture.is_some() {
                if st.capture_owner == Some(std::thread::current().id()) {
                    return Err(RuntimeError::NestedTrace);
                }
                // Foreign capture in flight: wait for it to close,
                // then retry from the fence.
                self.capture_cv.wait(&mut st);
                drop(st);
                continue;
            }
            // Between the fence and taking the lock, another thread
            // may have submitted work; the analyzer reset below is
            // only sound from a quiescent runtime, so re-check under
            // the lock (submissions hold this lock, so quiescence
            // observed here holds until we install the capture).
            if self.exec.outstanding() > 0 {
                drop(st);
                continue;
            }
            st.analyzer.clear();
            st.capture = Some(TraceCapture {
                first_id: st.next_id,
                deps: Vec::new(),
                metas: Vec::new(),
                sig: ShapeSig::default(),
            });
            st.capture_owner = Some(std::thread::current().id());
            return Ok(());
        }
    }

    /// Finish capturing; returns the trace, compiled into the step
    /// graph its replays are scheduled as (see [`crate::trace`]).
    /// Fences so the recorded frontier is final.
    ///
    /// The capture closes even when the fence reports a task failure
    /// (the trace is void and the failure is returned) — a capture
    /// left open by a failed step would gate every other thread's
    /// submissions on this runtime forever.
    pub fn end_trace(&self) -> Result<Trace, RuntimeError> {
        let fenced = self.exec.fence();
        let mut st = self.state.lock();
        // Only the thread that opened the capture may close it; from
        // any other thread there is no active trace to end.
        if st.capture_owner != Some(std::thread::current().id()) {
            return Err(RuntimeError::NoActiveTrace);
        }
        let cap = match st.capture.take() {
            Some(c) => c,
            None => return Err(RuntimeError::NoActiveTrace),
        };
        st.capture_owner = None;
        // Unblock threads parked behind the capture gate.
        self.capture_cv.notify_all();
        if let Err(e) = fenced {
            return Err(RuntimeError::TaskFailed(e));
        }
        let mut frontier = st.analyzer.snapshot();
        drop(st);
        for (_, f) in &mut frontier {
            for e in &mut f.entries {
                e.task -= cap.first_id;
            }
        }
        Ok(Trace::compile(
            cap.deps,
            &cap.metas,
            Some(cap.sig),
            frontier,
            self.num_workers(),
        ))
    }

    /// Replay a captured trace with a fresh task list that declares
    /// what the captured one did: the same names and accesses, task by
    /// task ([`ShapeSig`]); otherwise the call returns
    /// [`RuntimeError::ReplayShapeMismatch`] and submits nothing.
    /// Dependence analysis is skipped: the list runs as a one-run
    /// [`StepProgram`] of the trace (see [`crate::trace`]), and the
    /// recorded final frontier replaces the analyzer's (by reference:
    /// it is copied only if an analyzed submission follows). Returns
    /// the id of every task, in order; a fused task runs under its
    /// node, whose id is its first member's.
    pub fn replay(
        &self,
        trace: &Trace,
        tasks: Vec<TaskBuilder>,
    ) -> Result<Vec<TaskId>, RuntimeError> {
        let matches = |sig: &ShapeSig| {
            tasks.len() == trace.len() && ShapeSig::of_tasks(&tasks) == *sig
        };
        if !trace.sig.as_ref().is_some_and(matches) {
            return Err(RuntimeError::ReplayShapeMismatch);
        }
        let bodies = tasks
            .into_iter()
            .map(ProgramBody::replayed)
            .collect::<Result<Arc<[ProgramBody]>, _>>()?;
        let (base, _) = self.submit_step(trace, || (bodies, Provenance::Replayed), [])?;
        Ok((base..base + trace.len() as TaskId).collect())
    }

    /// Compile `tasks` into a [`StepProgram`] without running any of
    /// them: analyze the list, in order, on an analyzer of its own —
    /// as a capture would from its cleared one, so a step's edges are a
    /// function of its task list alone — and compile the result for
    /// this runtime's workers ([`crate::trace`]). The program's first
    /// [`Runtime::run_program`] is the step's first run: its nodes are
    /// counted, and its spans logged, as analyzed; every later run is a
    /// replay.
    ///
    /// Every body must be a [`TaskBuilder::shared_body`] one;
    /// otherwise the call returns [`RuntimeError::BodyRunsOnce`] (or
    /// [`RuntimeError::MissingBody`]). Neither the live analyzer nor
    /// the executor is touched (only the count of edges analysis
    /// created), so compiling needs no quiescent runtime and waits for
    /// nothing.
    pub fn compile_program(&self, tasks: Vec<TaskBuilder>) -> Result<StepProgram, RuntimeError> {
        let mut analyzer = Analyzer::new();
        let mut deps = Vec::with_capacity(tasks.len());
        let mut metas = Vec::with_capacity(tasks.len());
        let mut bodies = Vec::with_capacity(tasks.len());
        for (i, task) in tasks.into_iter().enumerate() {
            let lites = req_lites(&task.reqs);
            let body = ProgramBody::try_from(task)?;
            let found = analyzer.analyze(i as TaskId, &lites);
            deps.push(found.into_iter().map(|d| d as usize).collect());
            metas.push(body.meta);
            bodies.push(body);
        }
        self.state.lock().analyzer.edges_created += analyzer.edges_created;
        let frontier = analyzer.snapshot();
        Ok(StepProgram {
            trace: Trace::compile(deps, &metas, None, frontier, self.num_workers()),
            bodies: bodies.into(),
            ran: AtomicBool::new(false),
        })
    }

    /// Run a program: the step it was compiled from, scheduled as its
    /// compiled graph with the bodies and requirement lists the
    /// program already owns. `bind` runs once the runtime is quiescent
    /// and before any body of the step can start — the place to store
    /// what this run's bodies should read differently from the last
    /// run's.
    ///
    /// `reads` names the buffers (by [`Buffer::id`](crate::Buffer::id))
    /// the caller reads next. If the step writes one of them, the call
    /// submits the step and then waits as [`Runtime::wait_written`]
    /// does, and the calling thread takes the step's first ready node
    /// itself instead of waking a worker for it: on one worker, where
    /// a step is one node, the whole step runs on the caller and no
    /// thread is handed anything. Otherwise — `reads` empty, say, for a
    /// caller that goes back to work of its own — the step's ready
    /// nodes wake workers and the call returns at once.
    ///
    /// Fails, with nothing submitted and `bind` not called, if a task
    /// failure is pending at the quiescing fence. Otherwise returns
    /// what the wait returned: the time the caller was parked (zero
    /// when it did not wait), or the failure of a task writing one of
    /// `reads`.
    pub fn run_program(
        &self,
        program: &StepProgram,
        bind: impl FnOnce(),
        reads: impl IntoIterator<Item = u64>,
    ) -> Result<Result<Duration, TaskError>, RuntimeError> {
        let bodies = || {
            bind();
            let provenance = if program.ran.swap(true, Ordering::Relaxed) {
                Provenance::Replayed
            } else {
                Provenance::Analyzed
            };
            (Arc::clone(&program.bodies), provenance)
        };
        let (_, writers) = self.submit_step(&program.trace, bodies, reads)?;
        if writers.is_empty() {
            return Ok(Ok(Duration::ZERO));
        }
        Ok(self.exec.wait_retired(&writers))
    }

    /// The one step routine behind [`Runtime::run_program`] and
    /// [`Runtime::replay`]: quiesce, give the step the next
    /// `trace.len()` ids, leave the recorded frontier pending with the
    /// analyzer and hand the compiled graph and `bodies()` — its
    /// tasks' bodies, and where their dependences came from — to the
    /// executor, telling it whether the caller waits for the step's
    /// writers of `reads` next. Returns the first id and those writers.
    fn submit_step(
        &self,
        trace: &Trace,
        bodies: impl FnOnce() -> (Arc<[ProgramBody]>, Provenance),
        reads: impl IntoIterator<Item = u64>,
    ) -> Result<(TaskId, Vec<TaskId>), RuntimeError> {
        // The recorded graph has no edges to anything outside it and
        // the recorded frontier replaces the analyzer's, so the step
        // must start from a quiescent runtime. Submissions hold the
        // state lock, so quiescence observed under it holds until the
        // step is in (same protocol as `begin_trace`).
        let mut st = loop {
            self.exec.fence().map_err(RuntimeError::TaskFailed)?;
            let st = self.lock_past_foreign_capture();
            if st.capture.is_some() {
                // This thread's own capture: a replay would replace
                // the frontier the capture is recording.
                return Err(RuntimeError::NestedTrace);
            }
            if self.exec.outstanding() == 0 {
                break st;
            }
        };
        let (bodies, provenance) = bodies();
        let base = st.next_id;
        let (tasks, nodes) = (trace.len() as u64, trace.num_nodes() as u64);
        st.next_id = base + tasks;
        st.tasks_submitted += nodes;
        match provenance {
            Provenance::Analyzed => st.tasks_analyzed += nodes,
            Provenance::Replayed => st.tasks_replayed += nodes,
        }
        st.tasks_fused += tasks - nodes;
        st.analyzer.set_pending(&trace.frontier, base);
        let mut writers = Vec::new();
        for buffer in reads {
            st.analyzer.writers(buffer, &mut writers);
        }
        let waits = !writers.is_empty();
        self.exec
            .submit_graph(base, trace, bodies, waits, provenance);
        Ok((base, writers))
    }

    /// Enable or disable structured event logging. Off by default;
    /// while off, the event layer costs one relaxed atomic load per
    /// task on the execute path and nothing on the submit path.
    pub fn enable_events(&self, on: bool) {
        self.exec.events().set_enabled(on);
    }

    /// Whether event logging is currently enabled.
    pub fn events_enabled(&self) -> bool {
        self.exec.events().enabled()
    }

    /// Drain the event log into complete [`TaskSpan`]s, sorted by
    /// task id. Fences first so every task submitted before the call
    /// has retired and its span is in the result (a recorded task
    /// failure does not block the drain — it stays available through
    /// [`Runtime::take_failure`]). Safe to call while other threads
    /// submit: the drain takes the scheduler lock, and the span of a
    /// task still in flight is returned by a later call. Spans whose
    /// execution record was overwritten by ring wraparound are omitted
    /// (counted in [`MetricsSnapshot::events_dropped`]).
    pub fn take_spans(&self) -> Vec<TaskSpan> {
        let _ = self.exec.fence();
        self.exec.drain_spans()
    }

    /// A full metrics snapshot: activity counters, fault-tolerance
    /// counters, per-kernel execution tallies, and event-log health.
    /// Safe to call at any time (no fence).
    pub fn metrics(&self) -> MetricsSnapshot {
        let st = self.state.lock();
        let exec = self.exec.tallies();
        MetricsSnapshot {
            tasks_submitted: st.tasks_submitted,
            tasks_executed: exec.executed,
            tasks_analyzed: st.tasks_analyzed,
            tasks_replayed: st.tasks_replayed,
            tasks_fused: st.tasks_fused,
            tasks_stolen: exec.stolen,
            nodes_run_by_drivers: exec.run_by_drivers,
            edges_created: st.analyzer.edges_created,
            task_failures: exec.task_failures,
            tasks_poisoned: exec.tasks_poisoned,
            tasks_stalled: self.exec.tasks_stalled(),
            faults_injected: self.exec.faults_injected(),
            events_recorded: exec.events_recorded,
            events_dropped: exec.events_dropped,
            reduction_stages: self.reduction_stages.load(Ordering::Relaxed),
            reduction_stall_ns: self.reduction_stall_ns.load(Ordering::Relaxed),
            task_counts: exec.task_counts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use crate::fault::{FaultKind, FaultSpec, FireSchedule, TaskErrorKind};
    use crate::task::TaskBuilder;
    use kdr_index::IntervalSet;
    use std::sync::mpsc;

    #[test]
    fn dataflow_through_buffers() {
        let rt = Runtime::new(4);
        let a = Buffer::filled(8, 1.0f64);
        let b = Buffer::filled(8, 0.0f64);
        // b = 2 * a, then a = b + 1 (serialized by analysis).
        rt.submit(
            TaskBuilder::new("scale")
                .read_all(&a)
                .write_all(&b)
                .body(|ctx| {
                    let a = ctx.read::<f64>(0);
                    let b = ctx.write::<f64>(1);
                    for i in 0..8 {
                        b.set(i, 2.0 * a.get(i));
                    }
                }),
        )
        .unwrap();
        rt.submit(
            TaskBuilder::new("incr")
                .read_all(&b)
                .write_all(&a)
                .body(|ctx| {
                    let b = ctx.read::<f64>(0);
                    let a = ctx.write::<f64>(1);
                    for i in 0..8 {
                        a.set(i, b.get(i) + 1.0);
                    }
                }),
        )
        .unwrap();
        rt.fence().unwrap();
        assert_eq!(a.snapshot(), vec![3.0; 8]);
        assert_eq!(b.snapshot(), vec![2.0; 8]);
        let s = rt.metrics();
        assert_eq!(s.tasks_submitted, 2);
        assert_eq!(s.tasks_executed, 2);
        assert!(s.edges_created >= 1);
    }

    #[test]
    fn disjoint_pieces_execute_in_any_order() {
        let rt = Runtime::new(4);
        let v = Buffer::filled(100, 0.0f64);
        for c in 0..4 {
            let lo = c as u64 * 25;
            rt.submit(
                TaskBuilder::new("fill")
                    .write(&v, IntervalSet::from_range(lo, lo + 25))
                    .body(move |ctx| {
                        let w = ctx.write::<f64>(0);
                        for i in lo as usize..lo as usize + 25 {
                            w.set(i, c as f64);
                        }
                    }),
            )
            .unwrap();
        }
        rt.fence().unwrap();
        let snap = v.snapshot();
        for c in 0..4 {
            assert!(snap[c * 25..(c + 1) * 25].iter().all(|&x| x == c as f64));
        }
    }

    #[test]
    fn overlapping_writes_serialize() {
        // 100 increments of the same cell must not lose updates.
        let rt = Runtime::new(8);
        let v = Buffer::filled(1, 0.0f64);
        for _ in 0..100 {
            rt.submit(TaskBuilder::new("inc").write_all(&v).body(|ctx| {
                let w = ctx.write::<f64>(0);
                w.set(0, w.get(0) + 1.0);
            }))
            .unwrap();
        }
        rt.fence().unwrap();
        assert_eq!(v.snapshot(), vec![100.0]);
    }

    #[test]
    fn missing_body_is_a_typed_error() {
        let rt = Runtime::new(1);
        let v = Buffer::filled(1, 0.0f64);
        let err = rt
            .submit(TaskBuilder::new("headless").write_all(&v))
            .unwrap_err();
        assert_eq!(err, RuntimeError::MissingBody { task: "headless" });
        // The runtime is unaffected.
        rt.fence().unwrap();
        assert_eq!(rt.metrics().tasks_submitted, 0);
    }

    #[test]
    fn trace_capture_and_replay() {
        let rt = Runtime::new(4);
        let v = Buffer::filled(4, 0.0f64);
        let step = |v: &Buffer<f64>| {
            TaskBuilder::new("inc").write_all(v).body(|ctx| {
                let w = ctx.write::<f64>(0);
                for i in 0..4 {
                    w.set(i, w.get(i) + 1.0);
                }
            })
        };
        rt.begin_trace().unwrap();
        rt.submit(step(&v)).unwrap();
        rt.submit(step(&v)).unwrap();
        let trace = rt.end_trace().unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.deps_of(1), [0]);
        // Replay three more iterations.
        for _ in 0..3 {
            rt.replay(&trace, vec![step(&v), step(&v)]).unwrap();
        }
        rt.fence().unwrap();
        assert_eq!(v.snapshot(), vec![8.0; 4]);
        // These count nodes: the two-task colourless chain replays as
        // one node, its second body folded into it.
        let s = rt.metrics();
        assert_eq!(trace.num_nodes(), 1);
        assert_eq!(s.tasks_replayed, 3);
        assert_eq!(s.tasks_fused, 3);
        assert_eq!(s.tasks_executed, 2 + 3);
    }

    #[test]
    fn trace_misuse_is_typed() {
        let rt = Runtime::new(1);
        assert_eq!(rt.end_trace().unwrap_err(), RuntimeError::NoActiveTrace);
        rt.begin_trace().unwrap();
        assert_eq!(rt.begin_trace().unwrap_err(), RuntimeError::NestedTrace);
        let empty = rt.end_trace().unwrap();
        // A replay inside a capture would overwrite the frontier the
        // capture records.
        rt.begin_trace().unwrap();
        assert_eq!(
            rt.replay(&empty, Vec::new()).unwrap_err(),
            RuntimeError::NestedTrace
        );
        let _ = rt.end_trace().unwrap();
    }

    #[test]
    fn post_replay_submissions_depend_on_replayed_tasks() {
        let rt = Runtime::new(2);
        let v = Buffer::filled(1, 0.0f64);
        let inc = |v: &Buffer<f64>| {
            TaskBuilder::new("inc").write_all(v).body(|ctx| {
                let w = ctx.write::<f64>(0);
                w.set(0, w.get(0) + 1.0);
            })
        };
        rt.begin_trace().unwrap();
        rt.submit(inc(&v)).unwrap();
        let trace = rt.end_trace().unwrap();
        rt.replay(&trace, vec![inc(&v)]).unwrap();
        // Normal submission after a replay must see the replayed write.
        rt.submit(TaskBuilder::new("dbl").write_all(&v).body(|ctx| {
            let w = ctx.write::<f64>(0);
            w.set(0, w.get(0) * 10.0);
        }))
        .unwrap();
        rt.fence().unwrap();
        assert_eq!(v.snapshot(), vec![20.0]);
    }

    #[test]
    fn program_replays_its_own_bodies_with_rebound_state() {
        let rt = Runtime::new(4);
        let v = Buffer::filled(4, 0.0f64);
        // What a body adds: state outside the buffers, rebound per run.
        let step = Arc::new(AtomicU64::new(1));
        let add = |v: &Buffer<f64>| {
            let step = Arc::clone(&step);
            TaskBuilder::new("add")
                .write_all(v)
                .shared_body(move |ctx| {
                    let w = ctx.write::<f64>(0);
                    for i in 0..4 {
                        w.set(i, w.get(i) + step.load(Ordering::Relaxed) as f64);
                    }
                })
        };
        let program = rt.compile_program(vec![add(&v), add(&v)]).unwrap();
        assert_eq!(program.trace().len(), 2);
        assert_eq!(program.trace().deps_of(1), [0]);
        // It replays its own bodies only.
        let rebuilt = rt.replay(program.trace(), vec![add(&v), add(&v)]);
        assert_eq!(rebuilt, Err(RuntimeError::ReplayShapeMismatch));
        let empty = rt.replay(program.trace(), Vec::new());
        assert_eq!(empty, Err(RuntimeError::ReplayShapeMismatch));
        rt.fence().unwrap();
        assert_eq!(v.snapshot(), vec![0.0; 4], "compiling runs nothing");
        assert_eq!(rt.metrics().tasks_submitted, 0);
        // Back to back: `bind` runs after the previous run's bodies.
        for k in 1..=4 {
            rt.run_program(&program, || step.store(k, Ordering::Relaxed), [])
                .unwrap()
                .unwrap();
        }
        rt.fence().unwrap();
        assert_eq!(v.snapshot(), vec![2.0 * (1 + 2 + 3 + 4) as f64; 4]);
        // Node counts: the program's two-task colourless chain runs as
        // one node, its first run counted as analyzed.
        let s = rt.metrics();
        assert_eq!(s.tasks_analyzed, 1);
        assert_eq!(s.tasks_replayed, 3);
        assert_eq!(s.tasks_executed, 1 + 3);
        assert_eq!(s.tasks_fused, 4);
        assert_eq!(s.edges_created, 1, "the edge compiling found");
        // Analysis after a program run sees what it wrote.
        rt.submit(TaskBuilder::new("dbl").write_all(&v).body(|ctx| {
            let w = ctx.write::<f64>(0);
            w.set(0, w.get(0) * 2.0);
        }))
        .unwrap();
        rt.fence().unwrap();
        assert_eq!(v.snapshot()[0], 40.0);
    }

    #[test]
    fn program_capture_takes_shared_bodies_only_and_survives_a_refusal() {
        let rt = Runtime::new(2);
        let (x, y) = (Buffer::filled(1, 0.0f64), Buffer::filled(1, 0.0f64));
        let inc = |b: &Buffer<f64>| {
            TaskBuilder::new("inc").write_all(b).shared_body(|ctx| {
                let w = ctx.write::<f64>(0);
                w.set(0, w.get(0) + 1.0);
            })
        };
        // A run-once body cannot be kept.
        let once = TaskBuilder::new("once").write_all(&y).body(|_| {});
        let err = rt.compile_program(vec![inc(&y), once]).err();
        assert_eq!(err, Some(RuntimeError::BodyRunsOnce { task: "once" }));
        let headless = TaskBuilder::new("headless").write_all(&y);
        let err = rt.compile_program(vec![headless]).err();
        assert_eq!(err, Some(RuntimeError::MissingBody { task: "headless" }));
        assert_eq!(rt.metrics().tasks_submitted, 0);

        // A pending failure refuses a first run and a replay alike:
        // nothing is bound, nothing runs. Compiling goes on.
        let kept = rt.compile_program(vec![inc(&x)]).unwrap();
        rt.run_program(&kept, || {}, []).unwrap().unwrap();
        rt.submit(
            TaskBuilder::new("explode")
                .write_all(&x)
                .body(|_| panic!("kaboom")),
        )
        .unwrap();
        let fresh = rt.compile_program(vec![inc(&y)]).unwrap();
        let refused = rt.run_program(&fresh, || panic!("bound a refused first run"), []);
        assert!(
            matches!(refused, Err(RuntimeError::TaskFailed(_))),
            "{refused:?}"
        );
        let refused = rt.run_program(&kept, || panic!("bound a refused replay"), []);
        assert!(matches!(refused, Err(RuntimeError::TaskFailed(_))));
        assert!(rt.fence().is_err());
        assert_eq!((x.snapshot(), y.snapshot()), (vec![1.0], vec![0.0]));
        assert_eq!(
            rt.metrics().tasks_analyzed,
            2,
            "the first run and the explosion"
        );

        // Once the failure is taken, both run: the refused first run
        // is still the first.
        rt.take_failure().unwrap();
        rt.run_program(&fresh, || {}, []).unwrap().unwrap();
        rt.run_program(&kept, || {}, []).unwrap().unwrap();
        rt.fence().unwrap();
        assert_eq!((x.snapshot(), y.snapshot()), (vec![2.0], vec![1.0]));
        let m = rt.metrics();
        assert_eq!((m.tasks_analyzed, m.tasks_replayed), (3, 1));
    }

    #[test]
    fn a_program_run_that_reads_waits_for_the_step_and_tells_refusal_from_failure() {
        let rt = Runtime::new(1);
        let (v, untouched) = (Buffer::filled(1, 0.0f64), Buffer::filled(1, 0.0f64));
        let explode = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let inc = {
            let explode = Arc::clone(&explode);
            TaskBuilder::new("inc")
                .write_all(&v)
                .shared_body(move |ctx| {
                    assert!(!explode.load(Ordering::SeqCst), "inc exploded");
                    let w = ctx.write::<f64>(0);
                    w.set(0, w.get(0) + 1.0);
                })
        };
        let program = rt.compile_program(vec![inc]).unwrap();
        // Waited for, first run and replays: the value is there when
        // the call returns.
        for k in 1..5 {
            rt.run_program(&program, || {}, [v.id()]).unwrap().unwrap();
            assert_eq!(v.peek(0), f64::from(k));
        }
        // A buffer the step does not write is not waited for.
        let parked = rt.run_program(&program, || {}, [untouched.id()]).unwrap();
        assert_eq!(parked, Ok(Duration::ZERO));
        rt.fence().unwrap();
        assert_eq!(v.peek(0), 5.0);

        // A writer that fails: the step was submitted, and the wait
        // returns the failure.
        explode.store(true, Ordering::SeqCst);
        let failed = rt.run_program(&program, || {}, [v.id()]).unwrap();
        assert!(matches!(&failed, Err(e) if e.name == "inc"), "{failed:?}");
        // Pending: the next run is refused and submits nothing.
        let refused = rt.run_program(&program, || panic!("bound a refused replay"), [v.id()]);
        assert!(matches!(refused, Err(RuntimeError::TaskFailed(_))));
        assert_eq!(rt.metrics().tasks_replayed, 5);
        rt.take_failure().unwrap();
        explode.store(false, Ordering::SeqCst);
        rt.run_program(&program, || {}, [v.id()]).unwrap().unwrap();
        assert_eq!(v.peek(0), 6.0);
    }

    #[test]
    fn replay_is_cheaper_than_analysis() {
        let rt = Runtime::new(2);
        let v = Buffer::filled(64, 0.0f64);
        let mk = |v: &Buffer<f64>, c: usize| {
            let lo = c as u64 * 8;
            TaskBuilder::new("w")
                .write(v, IntervalSet::from_range(lo, lo + 8))
                .body(|_| {})
        };
        rt.begin_trace().unwrap();
        for c in 0..8 {
            rt.submit(mk(&v, c)).unwrap();
        }
        let trace = rt.end_trace().unwrap();
        let before = rt.metrics().tasks_analyzed;
        rt.replay(&trace, (0..8).map(|c| mk(&v, c)).collect())
            .unwrap();
        rt.fence().unwrap();
        assert_eq!(
            rt.metrics().tasks_analyzed,
            before,
            "replay must not analyze a task"
        );
    }

    #[test]
    fn replay_length_mismatch_is_typed() {
        let rt = Runtime::new(1);
        rt.begin_trace().unwrap();
        let trace = rt.end_trace().unwrap();
        let v = Buffer::filled(1, 0.0f64);
        let err = rt
            .replay(
                &trace,
                vec![TaskBuilder::new("x").write_all(&v).body(|_| {})],
            )
            .unwrap_err();
        assert_eq!(err, RuntimeError::ReplayShapeMismatch);
    }

    #[test]
    fn replay_refuses_tasks_that_declare_other_accesses() {
        let rt = Runtime::new(2);
        let (a, b) = (Buffer::filled(1, 0.0f64), Buffer::filled(1, 0.0f64));
        let writer = |buf: &Buffer<f64>, color: usize| {
            TaskBuilder::new("w")
                .meta(TaskMeta::new("w").with_color(color))
                .write_all(buf)
                .body(|ctx| {
                    let w = ctx.write::<f64>(0);
                    w.set(0, w.get(0) + 1.0);
                })
        };
        // Two independent writers, one per worker.
        rt.begin_trace().unwrap();
        rt.submit(writer(&a, 0)).unwrap();
        rt.submit(writer(&b, 1)).unwrap();
        let trace = rt.end_trace().unwrap();
        assert_eq!(trace.num_nodes(), 2);
        // Under the captured edges, two writers of `a` would run at
        // once: refused, and nothing runs.
        let err = rt.replay(&trace, vec![writer(&a, 0), writer(&a, 1)]);
        assert_eq!(err, Err(RuntimeError::ReplayShapeMismatch));
        // A shorter list is a shape mismatch too.
        let err = rt.replay(&trace, vec![writer(&a, 0)]);
        assert_eq!(err, Err(RuntimeError::ReplayShapeMismatch));
        rt.fence().unwrap();
        assert_eq!((a.snapshot()[0], b.snapshot()[0]), (1.0, 1.0));
        assert_eq!(rt.metrics().tasks_replayed, 0);
        // The captured shape replays.
        rt.replay(&trace, vec![writer(&a, 0), writer(&b, 1)])
            .unwrap();
        rt.fence().unwrap();
        assert_eq!((a.snapshot()[0], b.snapshot()[0]), (2.0, 2.0));
    }

    #[test]
    fn a_replayed_body_runs_once_and_one_left_unrun_is_dropped_by_the_fence() {
        let rt = Runtime::new(2);
        let v = Buffer::filled(1, 0.0f64);
        let runs = Arc::new(AtomicU64::new(0));
        // Three links of a colourless chain: one node of three members.
        // Link `explode` panics; link 2 sends on `tx` when it runs.
        let chain = |explode: Option<usize>, tx: &mpsc::Sender<u64>| -> Vec<TaskBuilder> {
            (0..3)
                .map(|i| {
                    let (runs, tx) = (Arc::clone(&runs), tx.clone());
                    TaskBuilder::new("link").write_all(&v).body(move |ctx| {
                        runs.fetch_add(1, Ordering::SeqCst);
                        assert_ne!(explode, Some(i), "link {i} exploded");
                        let w = ctx.write::<f64>(0);
                        w.set(0, w.get(0) + 1.0);
                        if i == 2 {
                            tx.send(runs.load(Ordering::SeqCst)).unwrap();
                        }
                    })
                })
                .collect()
        };
        let (tx, rx) = mpsc::channel();
        rt.begin_trace().unwrap();
        for t in chain(None, &tx) {
            rt.submit(t).unwrap();
        }
        let trace = rt.end_trace().unwrap();
        assert_eq!(trace.num_nodes(), 1);
        for _ in 0..2 {
            rt.replay(&trace, chain(None, &tx)).unwrap();
        }
        rt.fence().unwrap();
        assert_eq!(runs.load(Ordering::SeqCst), 9, "every body exactly once");
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), [3, 6, 9]);
        assert_eq!(v.snapshot(), vec![9.0]);

        // Link 1 panics: link 2 never runs, and its body — with the
        // sender it holds — is gone once the fence returns.
        let (tx, rx) = mpsc::channel();
        rt.replay(&trace, chain(Some(1), &tx)).unwrap();
        drop(tx);
        let err = rt.fence().unwrap_err();
        assert_eq!(err.name, "link");
        assert_eq!(rx.try_recv(), Err(mpsc::TryRecvError::Disconnected));
        assert_eq!(runs.load(Ordering::SeqCst), 11);
        assert_eq!(v.snapshot(), vec![10.0]);
        rt.take_failure().unwrap();
    }

    #[test]
    fn panic_poisons_dependents_and_fence_reports() {
        let rt = Runtime::new(2);
        let v = Buffer::filled(4, 1.0f64);
        rt.submit(
            TaskBuilder::new("explode")
                .write_all(&v)
                .body(|_| panic!("kaboom")),
        )
        .unwrap();
        // Depends on the panicking write: must be retired, not run.
        rt.submit(TaskBuilder::new("after").write_all(&v).body(|ctx| {
            let w = ctx.write::<f64>(0);
            w.set(0, 99.0);
        }))
        .unwrap();
        let err = rt.fence().unwrap_err();
        assert_eq!(err.name, "explode");
        assert!(matches!(err.kind, TaskErrorKind::Panicked(_)));
        assert_eq!(v.snapshot()[0], 1.0, "poisoned successor must not write");
        let m = rt.metrics();
        assert_eq!(m.task_failures, 1);
        assert_eq!(m.tasks_poisoned, 1);
        // Clear and continue.
        assert!(rt.take_failure().is_some());
        rt.fence().unwrap();
    }

    #[test]
    fn poisoned_future_errors_instead_of_deadlocking() {
        let rt = Runtime::new(2);
        let v = Buffer::filled(4, 1.0f64);
        let (tx, rx) = mpsc::channel::<f64>();
        rt.submit(TaskBuilder::new("explode").write_all(&v).body(|_| {
            panic!("pre-send failure");
        }))
        .unwrap();
        // The reader task depends on the poisoned write; it is
        // retired without running, dropping `tx`, so a receiver
        // blocked on it wakes with an error.
        rt.submit(TaskBuilder::new("read").read_all(&v).body(move |ctx| {
            tx.send(ctx.read::<f64>(0).get(0)).unwrap();
        }))
        .unwrap();
        assert!(rx.recv().is_err(), "the receiver must error, not deadlock");
        assert!(rt.take_failure().is_some());
    }

    #[test]
    fn injected_fault_is_reproducible_across_runtimes() {
        let run = || {
            let rt = Runtime::new(3);
            rt.set_fault_plan(Some(FaultPlan::seeded(99).with(FaultSpec {
                name_contains: "work".into(),
                kind: FaultKind::Panic,
                schedule: FireSchedule::Random {
                    millionths: 120_000,
                },
                max_fires: 1,
            })));
            let v = Buffer::filled(1, 0.0f64);
            for _ in 0..40 {
                rt.submit(TaskBuilder::new("work").write_all(&v).body(|ctx| {
                    let w = ctx.write::<f64>(0);
                    w.set(0, w.get(0) + 1.0);
                }))
                .unwrap();
            }
            let failed = rt.fence().err().map(|e| e.task);
            (failed, rt.metrics().faults_injected)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "seeded injection must reproduce exactly");
        assert_eq!(a.1, 1, "max_fires=1 must cap injections");
    }
}
