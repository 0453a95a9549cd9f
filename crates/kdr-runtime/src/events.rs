//! Structured task-event log: per-task spans with lock-free recording.
//!
//! When enabled (see [`Runtime::enable_events`](crate::Runtime::enable_events)),
//! the runtime records one [`TaskSpan`] per executed task body covering
//! the full lifecycle — **submit** (dependence analysis or trace
//! replay) → **ready** (all predecessors retired, pushed onto a ready
//! queue) → **start** / **end** (body execution on a worker) →
//! **retire** (successors released). Spans carry the task name, the
//! worker that ran it, and whether its dependences were *analyzed* or
//! *replayed* from a captured trace ([`Provenance`]).
//!
//! A replayed step runs as fused nodes (see [`crate::trace`]), but the
//! log stays per body: every member of a node gets a span of its own,
//! with its own id, name, captured dependences and start/end stamps.
//! A member behind the first is **ready** when the member before it
//! returns, and all members of a node share its **retire** stamp — so
//! the Chrome export, [`critical_path`](crate::critical_path) and any
//! span-derived metric read the same with fusion as without.
//!
//! # Hot-path design
//!
//! Workers write fixed-size execution records into a private ring buffer
//! (one per worker, single producer) guarded only by an atomic head
//! index: no locks, no allocation, overwrite-on-wrap. A full ring
//! therefore **never blocks** task execution — the oldest records are
//! dropped instead, and the drop count is surfaced in
//! [`MetricsSnapshot::events_dropped`](crate::MetricsSnapshot::events_dropped).
//! Submit-side records are appended under a mutex, which is free of
//! contention because submission is already serialized by the runtime
//! state lock. Rings are drained only at quiescence (after a fence),
//! so the drain never races a writer.
//!
//! When event logging is disabled, the only cost on the execute path
//! is one relaxed atomic load per scheduled node, preserving the
//! traced-replay fast path's advantage.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

use crate::metrics::AtomicHistogram;
use crate::task::TaskId;

/// How a task's dependences were obtained at submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// Dependences computed by full dynamic dependence analysis.
    Analyzed,
    /// Dependences installed from a captured trace (analysis skipped).
    Replayed,
}

/// How a task's lifecycle ended.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TaskOutcome {
    /// The body ran to completion.
    #[default]
    Completed,
    /// The body panicked (caught; the failure is surfaced as a
    /// [`TaskError`](crate::TaskError), not a process abort).
    Panicked,
    /// A predecessor failed, so the task was retired without running.
    Poisoned,
}

/// One complete task lifecycle, assembled when the event log is
/// drained. All timestamps are nanoseconds since the runtime's event
/// epoch (the moment the sink was created), so spans from different
/// workers share one clock.
#[derive(Clone, Debug)]
pub struct TaskSpan {
    /// Task id (submission order).
    pub id: TaskId,
    /// Static task name (e.g. `"spmv_tile"`, `"dot_partial"`).
    pub name: &'static str,
    /// Analyzed vs. replayed dependence provenance.
    pub provenance: Provenance,
    /// Worker that executed the body.
    pub worker: usize,
    /// When the task was submitted (analysis/replay happened here).
    pub submit_ns: u64,
    /// When the last predecessor retired and the task became ready.
    pub ready_ns: u64,
    /// When a worker began executing the body.
    pub start_ns: u64,
    /// When the body returned.
    pub end_ns: u64,
    /// When successors had been released (task fully retired).
    pub retire_ns: u64,
    /// How the task's lifecycle ended (completed / panicked /
    /// poisoned). Poisoned tasks never ran: their start/end stamps
    /// equal the retire stamp.
    pub outcome: TaskOutcome,
    /// Ids of the tasks this one waited on.
    pub deps: Vec<TaskId>,
}

impl TaskSpan {
    /// Time spent waiting in a ready queue (ready → start), ns.
    pub fn queue_wait_ns(&self) -> u64 {
        self.start_ns.saturating_sub(self.ready_ns)
    }

    /// Body execution time (start → end), ns.
    pub fn execute_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Submission-side half of a span, recorded under the runtime state
/// lock (submission is already serialized there, so this adds no new
/// contention).
#[derive(Clone, Debug)]
pub(crate) struct SubmitRecord {
    pub id: TaskId,
    pub name: &'static str,
    pub provenance: Provenance,
    pub submit_ns: u64,
    pub deps: Vec<TaskId>,
}

/// Execution-side half of a span, written by exactly one worker into
/// its private ring.
#[derive(Clone, Copy, Debug, Default)]
struct ExecRecord {
    id: TaskId,
    ready_ns: u64,
    start_ns: u64,
    end_ns: u64,
    retire_ns: u64,
    outcome: TaskOutcome,
}

/// A single-producer ring of `ExecRecord`s. The owning worker is
/// the only writer; readers drain only at quiescence (no concurrent
/// writer), so the `UnsafeCell` access is race-free by protocol.
struct WorkerRing {
    slots: Box<[UnsafeCell<ExecRecord>]>,
    /// Monotone count of records ever written; slot = head % capacity.
    head: AtomicUsize,
}

// Safety: writes happen only from the owning worker thread; reads
// happen only after a fence guarantees that worker is idle. The
// Release store on `head` publishes the slot contents to the
// Acquire-loading drainer.
unsafe impl Sync for WorkerRing {}

impl WorkerRing {
    fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        let slots = (0..cap)
            .map(|_| UnsafeCell::new(ExecRecord::default()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        WorkerRing {
            slots,
            head: AtomicUsize::new(0),
        }
    }

    /// Push one record, overwriting the oldest if full. Wait-free.
    #[inline]
    fn push(&self, rec: ExecRecord) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = head % self.slots.len();
        // Safety: single producer — only the owning worker calls push.
        unsafe { *self.slots[slot].get() = rec };
        self.head.store(head + 1, Ordering::Release);
    }

    /// Copy out all retained records (oldest first) and the number of
    /// records lost to wraparound, then reset. Caller must guarantee
    /// the producer is quiescent.
    fn drain(&self) -> (Vec<ExecRecord>, u64) {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len();
        let retained = head.min(cap);
        let dropped = (head - retained) as u64;
        let mut out = Vec::with_capacity(retained);
        for i in (head - retained)..head {
            // Safety: producer is quiescent (post-fence) by contract.
            out.push(unsafe { *self.slots[i % cap].get() });
        }
        self.head.store(0, Ordering::Release);
        (out, dropped)
    }
}

/// Default per-worker ring capacity (records). At ~40 bytes per
/// record this is ~2.6 MB per worker — enough for tens of CG steps
/// between drains on the benchmark problems.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// The shared event sink: one ring per worker, a submit log, the
/// enable flag, and the latency histograms workers feed directly (so
/// metrics survive ring wraparound).
pub(crate) struct EventSink {
    enabled: AtomicBool,
    epoch: Instant,
    rings: Vec<WorkerRing>,
    submits: Mutex<Vec<SubmitRecord>>,
    dropped: AtomicU64,
    recorded: AtomicU64,
    pub(crate) queue_wait_ns: AtomicHistogram,
    pub(crate) execute_ns: AtomicHistogram,
}

impl EventSink {
    pub(crate) fn new(workers: usize, ring_capacity: usize) -> Self {
        EventSink {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            rings: (0..workers)
                .map(|_| WorkerRing::new(ring_capacity))
                .collect(),
            submits: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            queue_wait_ns: AtomicHistogram::new(),
            execute_ns: AtomicHistogram::new(),
        }
    }

    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub(crate) fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds since the sink's epoch.
    #[inline]
    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record the submission half of a span (called under the runtime
    /// state lock).
    pub(crate) fn record_submit(&self, rec: SubmitRecord) {
        self.submits.lock().push(rec);
    }

    /// Record the execution half of a span into `worker`'s ring and
    /// feed the latency histograms. Lock-free.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_exec(
        &self,
        worker: usize,
        id: TaskId,
        ready_ns: u64,
        start_ns: u64,
        end_ns: u64,
        retire_ns: u64,
        outcome: TaskOutcome,
    ) {
        // Poisoned tasks never executed; keep their zero-length
        // "execution" out of the latency distributions.
        if outcome != TaskOutcome::Poisoned {
            self.queue_wait_ns.record(start_ns.saturating_sub(ready_ns));
            self.execute_ns.record(end_ns.saturating_sub(start_ns));
        }
        self.recorded.fetch_add(1, Ordering::Relaxed);
        self.rings[worker].push(ExecRecord {
            id,
            ready_ns,
            start_ns,
            end_ns,
            retire_ns,
            outcome,
        });
    }

    pub(crate) fn events_recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    pub(crate) fn events_dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Join submit records with per-worker exec records into complete
    /// spans, sorted by task id. Caller must have fenced: every
    /// worker must be idle so ring drains don't race producers.
    /// Records whose other half is missing (dropped to wraparound, or
    /// submitted but not yet executed) are discarded.
    pub(crate) fn drain_spans(&self) -> Vec<TaskSpan> {
        let submits = std::mem::take(&mut *self.submits.lock());
        let mut spans = Vec::new();
        let mut execs: std::collections::HashMap<TaskId, (usize, ExecRecord)> =
            std::collections::HashMap::new();
        for (worker, ring) in self.rings.iter().enumerate() {
            let (recs, dropped) = ring.drain();
            self.dropped.fetch_add(dropped, Ordering::Relaxed);
            for r in recs {
                execs.insert(r.id, (worker, r));
            }
        }
        for s in submits {
            if let Some(&(worker, e)) = execs.get(&s.id) {
                spans.push(TaskSpan {
                    id: s.id,
                    name: s.name,
                    provenance: s.provenance,
                    worker,
                    submit_ns: s.submit_ns,
                    ready_ns: e.ready_ns,
                    start_ns: e.start_ns,
                    end_ns: e.end_ns,
                    retire_ns: e.retire_ns,
                    outcome: e.outcome,
                    deps: s.deps,
                });
            }
        }
        spans.sort_by_key(|s| s.id);
        spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_without_blocking() {
        let ring = WorkerRing::new(4);
        for i in 0..10u64 {
            ring.push(ExecRecord {
                id: i,
                ..ExecRecord::default()
            });
        }
        let (recs, dropped) = ring.drain();
        assert_eq!(dropped, 6);
        assert_eq!(recs.len(), 4);
        let ids: Vec<u64> = recs.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
        // Drained ring starts fresh.
        let (recs, dropped) = ring.drain();
        assert!(recs.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn sink_joins_submit_and_exec_halves() {
        let sink = EventSink::new(2, 16);
        sink.set_enabled(true);
        for id in 0..3u64 {
            sink.record_submit(SubmitRecord {
                id,
                name: "t",
                provenance: Provenance::Analyzed,
                submit_ns: id * 10,
                deps: if id == 0 { vec![] } else { vec![id - 1] },
            });
        }
        // Task 2 never executes: its span must be discarded.
        sink.record_exec(0, 0, 11, 12, 13, 14, TaskOutcome::Completed);
        sink.record_exec(1, 1, 21, 22, 23, 24, TaskOutcome::Panicked);
        let spans = sink.drain_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, 0);
        assert_eq!(spans[0].outcome, TaskOutcome::Completed);
        assert_eq!(spans[1].outcome, TaskOutcome::Panicked);
        assert_eq!(spans[0].worker, 0);
        assert_eq!(spans[1].worker, 1);
        assert_eq!(spans[1].deps, vec![0]);
        assert_eq!(spans[1].queue_wait_ns(), 1);
        assert_eq!(spans[1].execute_ns(), 1);
    }

    #[test]
    fn span_durations_saturate() {
        let s = TaskSpan {
            id: 0,
            name: "t",
            provenance: Provenance::Replayed,
            worker: 0,
            submit_ns: 0,
            ready_ns: 100,
            start_ns: 50, // clock skew shouldn't underflow
            end_ns: 60,
            retire_ns: 70,
            outcome: TaskOutcome::Completed,
            deps: vec![],
        };
        assert_eq!(s.queue_wait_ns(), 0);
        assert_eq!(s.execute_ns(), 10);
    }
}
