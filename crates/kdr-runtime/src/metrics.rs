//! The metrics registry: lock-free counters and latency histograms.
//!
//! Workers update [`AtomicHistogram`]s with relaxed atomic adds — no
//! locks, no allocation — so metrics collection rides along with event
//! logging at negligible cost. [`Runtime::metrics`](crate::Runtime::metrics)
//! freezes everything into a [`MetricsSnapshot`]: activity counters,
//! fault-tolerance counters (failures, poisonings, injected faults,
//! stalls), the queue-wait and execute latency distributions, and
//! event-log health — safe to take at any time (no fence required).
//!
//! Latencies are bucketed by powers of two of nanoseconds, giving
//! ~2× resolution over the full range from 1 ns to ~584 years with a
//! fixed 64-slot footprint.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two buckets in a histogram (one per possible
/// `u64` bit position).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A lock-free histogram of `u64` samples in power-of-two buckets.
///
/// `record` is wait-free (three relaxed atomic RMWs) and is safe to
/// call from any number of threads concurrently; [`AtomicHistogram::snapshot`]
/// produces a plain [`HistogramSnapshot`] for analysis.
pub struct AtomicHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// A histogram with every bucket empty.
    pub fn new() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Index of the bucket holding `value`: the position of its
    /// highest set bit (0 maps to bucket 0).
    #[inline]
    fn bucket_of(value: u64) -> usize {
        (63 - value.max(1).leading_zeros()) as usize
    }

    /// Record one sample. Wait-free; relaxed ordering is sufficient
    /// because snapshots are statistical, not synchronizing.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Freeze the current contents into a plain value.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(&self.buckets) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }

    /// Reset every bucket and counter to zero.
    pub fn clear(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// A frozen copy of an [`AtomicHistogram`].
#[derive(Clone, Copy, Debug)]
pub struct HistogramSnapshot {
    /// Sample counts per power-of-two bucket: `buckets[i]` counts
    /// samples in `[2^i, 2^(i+1))` (bucket 0 also holds zero).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded sample values.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Arithmetic mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`): the upper bound of
    /// the bucket containing the `ceil(q·count)`-th sample. Accurate
    /// to within the 2× bucket resolution; returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper bound of bucket i is 2^(i+1) - 1.
                return if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
            }
        }
        u64::MAX
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// A point-in-time aggregate of everything the runtime knows about
/// its own activity.
///
/// Counter fields cover the whole runtime lifetime; histogram fields
/// only accumulate while event logging is enabled (see
/// [`Runtime::enable_events`](crate::Runtime::enable_events)).
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Scheduled nodes submitted (analyzed or replayed). A node is
    /// what the executor queues, runs and retires as one unit: a task
    /// submitted through analysis is a node of its own, and a replayed
    /// step's tasks are fused into the nodes of its compiled trace
    /// (see [`crate::trace`]). `tasks_submitted + tasks_fused` is the
    /// number of task bodies submitted.
    pub tasks_submitted: u64,
    /// Scheduled nodes executed (a node whose body panicked included,
    /// nodes retired as poisoned not).
    pub tasks_executed: u64,
    /// Tasks that went through dependence analysis (not replayed).
    pub tasks_analyzed: u64,
    /// Scheduled nodes submitted through trace replay (analysis
    /// skipped).
    pub tasks_replayed: u64,
    /// Task bodies folded into a replayed node behind its first
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
    /// Nanoseconds spent in dependence analysis.
    pub analysis_ns: u64,
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
    /// Distribution of ready-queue wait times (ready → start), ns.
    pub queue_wait_ns: HistogramSnapshot,
    /// Distribution of task execution times (start → end), ns.
    pub execute_ns: HistogramSnapshot,
    /// Executed-body tallies keyed by kernel name (e.g.
    /// `spmv_dia` vs `spmv_csr`), so backends can report which
    /// specialized kernels actually ran. Per body, fused or not:
    /// this and [`MetricsSnapshot::task_execute_ns`] are the cost
    /// catalogue's input.
    pub task_counts: BTreeMap<&'static str, u64>,
    /// Accumulated execution nanoseconds per kernel name — the
    /// per-kernel companion of [`MetricsSnapshot::execute_ns`]. Only
    /// populated while event logging or per-kernel timing is on (see
    /// [`Runtime::enable_kernel_timing`](crate::Runtime::enable_kernel_timing));
    /// cost catalogues divide these by [`MetricsSnapshot::task_counts`]
    /// to refine per-kernel latency estimates online.
    pub task_execute_ns: BTreeMap<&'static str, u64>,
}

impl MetricsSnapshot {
    /// Fraction of submitted tasks whose dependence analysis was
    /// skipped via trace replay (`0.0` when nothing was submitted).
    pub fn replay_fraction(&self) -> f64 {
        if self.tasks_submitted == 0 {
            0.0
        } else {
            self.tasks_replayed as f64 / self.tasks_submitted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_maps_powers_of_two() {
        assert_eq!(AtomicHistogram::bucket_of(0), 0);
        assert_eq!(AtomicHistogram::bucket_of(1), 0);
        assert_eq!(AtomicHistogram::bucket_of(2), 1);
        assert_eq!(AtomicHistogram::bucket_of(3), 1);
        assert_eq!(AtomicHistogram::bucket_of(1024), 10);
        assert_eq!(AtomicHistogram::bucket_of(u64::MAX), 63);
    }

    #[test]
    fn record_and_snapshot() {
        let h = AtomicHistogram::new();
        for v in [1u64, 2, 3, 1000, 1000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1 + 2 + 3 + 1000 + 1000 + 1_000_000);
        assert!((s.mean() - s.sum as f64 / 6.0).abs() < 1e-9);
        // Median lands in the bucket holding 3 (bucket 1, upper 3).
        assert!(s.quantile(0.5) <= 1023, "median {}", s.quantile(0.5));
        // p99 lands in the bucket holding the millisecond outlier.
        assert!(s.quantile(0.99) >= 1_000_000);
        h.clear();
        assert!(h.snapshot().is_empty());
    }

    #[test]
    fn empty_snapshot_quantiles() {
        let s = HistogramSnapshot::default();
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn replay_fraction() {
        let m = MetricsSnapshot {
            tasks_submitted: 10,
            tasks_replayed: 7,
            ..MetricsSnapshot::default()
        };
        assert!((m.replay_fraction() - 0.7).abs() < 1e-12);
        assert_eq!(MetricsSnapshot::default().replay_fraction(), 0.0);
    }
}
