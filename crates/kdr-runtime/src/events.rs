//! Structured task-event log: per-task spans, recorded under the
//! scheduler lock.
//!
//! When enabled (see [`Runtime::enable_events`](crate::Runtime::enable_events)),
//! the runtime records one [`TaskSpan`] per executed task body covering
//! the full lifecycle — **submit** (dependence analysis or trace
//! replay) → **ready** (all predecessors retired, pushed onto a ready
//! queue) → **start** / **end** (body execution on a worker) →
//! **retire** (successors released). Spans carry the task name, the
//! lane that ran it — a worker, or the one lane of the driver threads
//! that ran bodies while they waited (see [`TaskSpan::worker`]) — and
//! whether its dependences were *analyzed* or *replayed* from a
//! captured trace ([`Provenance`]).
//!
//! A replayed step runs as fused nodes (see [`crate::trace`]), but the
//! log stays per body: every member of a node gets a span of its own,
//! with its own id, name, captured dependences and start/end stamps.
//! A member behind the first is **ready** when the member before it
//! returns, and all members of a node share its **retire** stamp — so
//! the Chrome export, [`critical_path`](crate::critical_path) and any
//! span-derived metric read the same with fusion as without.
//!
//! # Where the records live
//!
//! The span log (`SpanLog`) is part of the executor's scheduling state and is
//! only ever touched with the scheduler lock held: the submit half of
//! a span is appended by the acquisition that installs the node, the
//! execution half by the acquisition that retires it (into the retiring
//! lane's bounded ring — fixed-size records, no allocation,
//! overwrite-on-wrap), and a drain takes the same lock. A full ring
//! therefore **never blocks** task execution — the oldest records are
//! dropped instead, and the drop count is surfaced in
//! [`MetricsSnapshot::events_dropped`](crate::MetricsSnapshot::events_dropped)
//! — and a drain is safe against concurrent submitters and running
//! workers: a submit half whose task is still in flight stays in the
//! log for the next drain.
//!
//! When event logging is disabled, the only cost on the execute path
//! is one relaxed atomic load per scheduled node, preserving the
//! traced-replay fast path's advantage.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

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
    /// Lane that executed the body: the index of a worker thread, or
    /// — when [`TaskSpan::by_driver`] is set — the runtime's worker
    /// count, the one lane shared by every thread that ran bodies
    /// while it waited in a fence or a
    /// [`Runtime::wait_written`](crate::Runtime::wait_written). Always
    /// `<= num_workers`.
    pub worker: usize,
    /// The body was run by a waiting driver thread, not by a worker.
    pub by_driver: bool,
    /// When the task was submitted (analysis/replay happened here).
    pub submit_ns: u64,
    /// When the last predecessor retired and the task became ready.
    pub ready_ns: u64,
    /// When a worker began executing the body.
    pub start_ns: u64,
    /// When the body returned.
    pub end_ns: u64,
    /// When the task retired — the stamp the successors it released
    /// carry as their `ready_ns`.
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

/// Submission-side half of a span, appended by the executor when it
/// installs the task's node.
#[derive(Clone, Debug)]
pub(crate) struct SubmitRecord {
    pub id: TaskId,
    pub name: &'static str,
    pub provenance: Provenance,
    pub submit_ns: u64,
    pub deps: Vec<TaskId>,
}

/// Execution-side half of a span, pushed into the ring of the lane
/// that retired the task.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ExecRecord {
    pub id: TaskId,
    pub ready_ns: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub retire_ns: u64,
    pub outcome: TaskOutcome,
}

/// A bounded FIFO of `ExecRecord`s that overwrites its oldest entry
/// when full. The storage is reserved up front, so a push never
/// allocates.
struct Ring {
    records: VecDeque<ExecRecord>,
    capacity: usize,
    /// Records overwritten since the last drain.
    dropped: u64,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Ring {
            records: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Push one record, overwriting the oldest if full.
    #[inline]
    fn push(&mut self, rec: ExecRecord) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(rec);
    }

    /// Hand out the retained records (oldest first) and the number
    /// lost to wraparound, and start afresh.
    fn drain(&mut self) -> (impl Iterator<Item = ExecRecord> + '_, u64) {
        let dropped = std::mem::take(&mut self.dropped);
        (self.records.drain(..), dropped)
    }
}

/// Default per-lane ring capacity (records). At ~48 bytes per
/// record this reserves ~3 MB of address space per lane (touched
/// only as records arrive) — enough for tens of CG steps between
/// drains on the benchmark problems.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// The span log: the submit halves in submission order and one ring of
/// execution halves per lane — the workers', then the drivers'. Plain
/// data — it lives inside the
/// executor's scheduling state and every method is called with the
/// scheduler lock held.
pub(crate) struct SpanLog {
    rings: Vec<Ring>,
    submits: Vec<SubmitRecord>,
}

impl SpanLog {
    /// A log of `lanes` rings, the last of them the driver lane's.
    pub(crate) fn new(lanes: usize, ring_capacity: usize) -> Self {
        SpanLog {
            rings: (0..lanes).map(|_| Ring::new(ring_capacity)).collect(),
            submits: Vec::new(),
        }
    }

    /// Record the submission halves of the spans of tasks submitted
    /// together.
    pub(crate) fn record_submits(&mut self, recs: impl IntoIterator<Item = SubmitRecord>) {
        self.submits.extend(recs);
    }

    /// Record the execution half of a span in `lane`'s ring.
    #[inline]
    pub(crate) fn record_exec(&mut self, lane: usize, rec: ExecRecord) {
        self.rings[lane].push(rec);
    }

    /// Join submit records with per-lane exec records into complete
    /// spans, sorted by task id, and count the execution halves the
    /// rings overwrote since the last drain. A submit record with no
    /// execution half is kept for the next drain while its task may
    /// still be in flight (`id >= in_flight_from`, the front of the
    /// executor's window) and discarded otherwise (the execution half
    /// was lost to ring wraparound).
    pub(crate) fn drain(&mut self, in_flight_from: TaskId) -> (Vec<TaskSpan>, u64) {
        let mut execs: HashMap<TaskId, (usize, ExecRecord)> = HashMap::new();
        let mut lost = 0;
        for (worker, ring) in self.rings.iter_mut().enumerate() {
            let (recs, dropped) = ring.drain();
            execs.extend(recs.map(|r| (r.id, (worker, r))));
            lost += dropped;
        }
        let driver_lane = self.rings.len() - 1;
        let mut spans = Vec::with_capacity(execs.len());
        for s in std::mem::take(&mut self.submits) {
            match execs.get(&s.id) {
                Some(&(worker, e)) => spans.push(TaskSpan {
                    id: s.id,
                    name: s.name,
                    provenance: s.provenance,
                    worker,
                    by_driver: worker == driver_lane,
                    submit_ns: s.submit_ns,
                    ready_ns: e.ready_ns,
                    start_ns: e.start_ns,
                    end_ns: e.end_ns,
                    retire_ns: e.retire_ns,
                    outcome: e.outcome,
                    deps: s.deps,
                }),
                None if s.id >= in_flight_from => self.submits.push(s),
                None => {}
            }
        }
        spans.sort_by_key(|s| s.id);
        (spans, lost)
    }
}

/// The part of the event layer that is shared without a lock: the
/// enable flag, the clock, and the latency histograms workers feed
/// directly (so metrics survive ring wraparound).
pub(crate) struct EventSink {
    enabled: AtomicBool,
    epoch: Instant,
    pub(crate) queue_wait_ns: AtomicHistogram,
    pub(crate) execute_ns: AtomicHistogram,
}

impl EventSink {
    pub(crate) fn new() -> Self {
        EventSink {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
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

    /// Feed one executed body's latencies to the histograms.
    #[inline]
    pub(crate) fn observe(&self, rec: &ExecRecord) {
        // Poisoned tasks never executed; keep their zero-length
        // "execution" out of the latency distributions.
        if rec.outcome != TaskOutcome::Poisoned {
            self.queue_wait_ns
                .record(rec.start_ns.saturating_sub(rec.ready_ns));
            self.execute_ns
                .record(rec.end_ns.saturating_sub(rec.start_ns));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_without_blocking() {
        let mut ring = Ring::new(4);
        for i in 0..10u64 {
            ring.push(ExecRecord {
                id: i,
                ..ExecRecord::default()
            });
        }
        let (recs, dropped) = ring.drain();
        let ids: Vec<u64> = recs.map(|r| r.id).collect();
        assert_eq!(dropped, 6);
        assert_eq!(ids, vec![6, 7, 8, 9]);
        // Drained ring starts fresh.
        let (mut recs, dropped) = ring.drain();
        assert!(recs.next().is_none());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn sink_joins_submit_and_exec_halves() {
        let mut log = SpanLog::new(3, 16);
        log.record_submits((0..3u64).map(|id| SubmitRecord {
            id,
            name: "t",
            provenance: Provenance::Analyzed,
            submit_ns: id * 10,
            deps: if id == 0 { vec![] } else { vec![id - 1] },
        }));
        let exec = |id, t0: u64, outcome| ExecRecord {
            id,
            ready_ns: t0 + 1,
            start_ns: t0 + 2,
            end_ns: t0 + 3,
            retire_ns: t0 + 4,
            outcome,
        };
        log.record_exec(0, exec(0, 10, TaskOutcome::Completed));
        log.record_exec(1, exec(1, 20, TaskOutcome::Panicked));
        // Task 2 has not executed: no span yet, but its submit half
        // waits for the execution half while it is in flight...
        let (spans, lost) = log.drain(2);
        assert_eq!((spans.len(), lost), (2, 0));
        assert_eq!(spans[0].id, 0);
        assert_eq!(spans[0].outcome, TaskOutcome::Completed);
        assert_eq!(spans[1].outcome, TaskOutcome::Panicked);
        assert_eq!((spans[0].worker, spans[0].by_driver), (0, false));
        assert_eq!((spans[1].worker, spans[1].by_driver), (1, false));
        assert_eq!(spans[1].deps, vec![0]);
        assert_eq!(spans[1].queue_wait_ns(), 1);
        assert_eq!(spans[1].execute_ns(), 1);
        // The last ring is the driver lane's.
        log.record_exec(2, exec(2, 30, TaskOutcome::Completed));
        let (late, _) = log.drain(3);
        assert_eq!(late.len(), 1);
        assert_eq!((late[0].id, late[0].submit_ns), (2, 20));
        assert_eq!((late[0].worker, late[0].by_driver), (2, true));
        // ...and is discarded once the task is known to have retired
        // (its execution half was overwritten).
        log.record_submits([SubmitRecord {
            id: 3,
            name: "t",
            provenance: Provenance::Analyzed,
            submit_ns: 30,
            deps: vec![],
        }]);
        assert!(log.drain(4).0.is_empty());
        assert!(log.drain(0).0.is_empty());
    }

    #[test]
    fn span_durations_saturate() {
        let s = TaskSpan {
            id: 0,
            name: "t",
            provenance: Provenance::Replayed,
            worker: 0,
            by_driver: false,
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
