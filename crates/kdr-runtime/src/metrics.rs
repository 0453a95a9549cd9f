//! The metrics registry: [`MetricsSnapshot`], the runtime's counters
//! frozen in one value.
//!
//! [`Runtime::metrics`](crate::Runtime::metrics) returns activity
//! counters (submitted, analyzed, replayed, fused, executed, stolen),
//! fault-tolerance counters (failures, poisonings, injected faults,
//! stalls), the reduction-stage and stall accounting, per-kernel
//! execution tallies and event-log health — safe to take at any time
//! (no fence required). There are no latency distributions: a body's
//! time is in its span, and `events_recorded` / `events_dropped` say
//! how many spans the rings kept.

use std::collections::BTreeMap;

/// A point-in-time aggregate of everything the runtime knows about
/// its own activity.
///
/// Every field covers the whole runtime lifetime. The time of each
/// body is in its span ([`TaskSpan`](crate::TaskSpan)), recorded while
/// event logging is on (see
/// [`Runtime::enable_events`](crate::Runtime::enable_events)).
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Scheduled nodes submitted (analyzed or replayed). A node is
    /// what the executor queues, runs and retires as one unit: a task
    /// submitted through analysis is a node of its own, and a program
    /// run's tasks are fused into the nodes of its compiled trace (see
    /// [`crate::trace`]). `tasks_submitted + tasks_fused` is the number
    /// of task bodies submitted.
    pub tasks_submitted: u64,
    /// Scheduled nodes executed (a node whose body panicked included,
    /// nodes retired as poisoned not).
    pub tasks_executed: u64,
    /// Scheduled nodes whose dependences came from analysis: a task
    /// submitted on its own ([`Runtime::submit`](crate::Runtime::submit)),
    /// or a node of a step program's first run, whose tasks were
    /// analyzed when it was compiled.
    pub tasks_analyzed: u64,
    /// Scheduled nodes submitted through trace replay (analysis
    /// skipped): a step program's later runs and
    /// [`Runtime::replay`](crate::Runtime::replay).
    pub tasks_replayed: u64,
    /// Task bodies folded into a program run's node behind its first
    /// member: submitted, run and logged, but never scheduled on
    /// their own.
    pub tasks_fused: u64,
    /// Nodes executed by a worker other than their affinity target.
    pub tasks_stolen: u64,
    /// Nodes executed by a driver thread while it waited — in a fence
    /// or a [`Runtime::wait_written`](crate::Runtime::wait_written) —
    /// instead of sleeping through the wait. Counted under the
    /// scheduler lock, like `tasks_stolen`, and apart from it: a
    /// driver has no affinity queue, so nothing it takes is "stolen".
    pub nodes_run_by_drivers: u64,
    /// Dependence edges created by analysis.
    pub edges_created: u64,
    /// Task bodies that panicked (caught and converted to poisoned
    /// completions, never a process abort).
    pub task_failures: u64,
    /// Tasks retired without running because a (transitive)
    /// predecessor failed.
    pub tasks_poisoned: u64,
    /// Tasks flagged by the watchdog for exceeding the configured
    /// stall budget.
    pub tasks_stalled: u64,
    /// Faults planted by the deterministic injector.
    pub faults_injected: u64,
    /// Task spans recorded by the event log (lifetime total).
    pub events_recorded: u64,
    /// Spans lost to ring-buffer wraparound (recording never blocks;
    /// the oldest records are overwritten instead).
    pub events_dropped: u64,
    /// Global reduction stages launched (each `dot`/`dot_many` call
    /// counts as one stage regardless of how many scalars it fuses).
    pub reduction_stages: u64,
    /// Nanoseconds drivers spent *parked* waiting for a reduction
    /// result, with no ready task to run meanwhile — the fence tax.
    /// The part of a wait a driver spent running tasks is not in here.
    pub reduction_stall_ns: u64,
    /// Executed-body tallies keyed by kernel name (e.g.
    /// `spmv_dia` vs `spmv_csr`), so backends can report which
    /// specialized kernels actually ran. Per body, fused or not.
    pub task_counts: BTreeMap<&'static str, u64>,
}
