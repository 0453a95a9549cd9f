//! Per-tenant accounting and tenant-tagged trace export.
//!
//! Counter deltas observed at the end of a slice are attributed to
//! the tenant that owned the slice. With span capture
//! (`capture_events`) on, the driver quiesces the runtime at each
//! boundary and the attribution is exact; in the default unfenced
//! mode, tasks
//! still in flight at the boundary retire under a later slice, so
//! per-tenant deltas are approximate (totals across tenants remain
//! exact). Spans accumulate per tenant — the fleet's `chrome_trace`
//! merges them across shards into one Perfetto process per tenant,
//! workers as threads — and counter deltas accumulate into one
//! [`TenantMetrics`] slice per tenant.

use std::collections::BTreeMap;

use kdr_runtime::{MetricsSnapshot, TaskSpan};

use crate::request::TenantId;

/// One tenant's slice of the service's runtime metrics.
#[derive(Clone, Debug, Default)]
pub struct TenantMetrics {
    /// Jobs completed (any outcome except admission rejection).
    pub jobs_completed: u64,
    /// Requests rejected at admission.
    pub jobs_rejected: u64,
    /// Scheduler slices granted.
    pub slices: u64,
    /// Solver iterations executed.
    pub iterations: u64,
    /// Runtime tasks submitted during this tenant's slices.
    pub tasks_submitted: u64,
    /// Runtime task bodies executed during this tenant's slices.
    pub tasks_executed: u64,
    /// Tasks replayed from captured traces (analysis skipped) during
    /// this tenant's slices — the plan-cache hit counter.
    pub tasks_replayed: u64,
    /// Global reduction stages launched during this tenant's slices.
    pub reduction_stages: u64,
    /// Nanoseconds blocked waiting on reduction results during this
    /// tenant's slices — the fence tax.
    pub reduction_stall_ns: u64,
    /// Runtime task bodies that panicked during this tenant's slices
    /// (injected or genuine). Attribution caveat: in the default
    /// unfenced mode a failure retiring after the slice boundary
    /// lands on a later slice's tenant; totals stay exact.
    pub task_failures: u64,
    /// Tasks retired unrun because a dependency failed (the poison
    /// cascade) during this tenant's slices.
    pub tasks_poisoned: u64,
    /// Watchdog stall trips observed during this tenant's slices.
    /// Wall-clock dependent — diagnostic only, never part of a
    /// bitwise determinism contract.
    pub tasks_stalled: u64,
    /// Deterministic injected faults fired during this tenant's
    /// slices (zero unless a [`kdr_runtime::FaultPlan`] is armed).
    pub faults_injected: u64,
    /// Driver wall-clock seconds spent in this tenant's slices.
    pub busy_seconds: f64,
    /// Admitted jobs whose admission-time cost prediction came from
    /// an *observed* catalogue entry (refined online from at least
    /// one measured slice). Zero when the service runs
    /// without a catalogue.
    pub catalogue_hits: u64,
    /// Admitted jobs whose prediction fell back to the roofline
    /// prior (no observed entry yet). `catalogue_hits +
    /// catalogue_misses` equals the tenant's admitted-job count when
    /// a catalogue is configured.
    pub catalogue_misses: u64,
    /// Sum of per-job absolute prediction error, as a percentage of
    /// observed turnaround. Divide by `prediction_samples` for the
    /// mean (see [`TenantMetrics::prediction_error_pct`]).
    pub prediction_err_pct_sum: f64,
    /// Completed jobs with both a prediction and a nonzero observed
    /// turnaround — the denominator of the prediction-error mean.
    pub prediction_samples: u64,
}

impl TenantMetrics {
    /// Accumulate another slice of the same tenant into this one
    /// (cross-shard aggregation: a migrated tenant leaves completed
    /// accounting behind on every shard it visited).
    pub fn merge(&mut self, other: &TenantMetrics) {
        self.jobs_completed += other.jobs_completed;
        self.jobs_rejected += other.jobs_rejected;
        self.slices += other.slices;
        self.iterations += other.iterations;
        self.tasks_submitted += other.tasks_submitted;
        self.tasks_executed += other.tasks_executed;
        self.tasks_replayed += other.tasks_replayed;
        self.reduction_stages += other.reduction_stages;
        self.reduction_stall_ns += other.reduction_stall_ns;
        self.task_failures += other.task_failures;
        self.tasks_poisoned += other.tasks_poisoned;
        self.tasks_stalled += other.tasks_stalled;
        self.faults_injected += other.faults_injected;
        self.busy_seconds += other.busy_seconds;
        self.catalogue_hits += other.catalogue_hits;
        self.catalogue_misses += other.catalogue_misses;
        self.prediction_err_pct_sum += other.prediction_err_pct_sum;
        self.prediction_samples += other.prediction_samples;
    }

    /// Mean absolute prediction error as a percentage of observed
    /// turnaround, over this tenant's completed jobs that carried a
    /// catalogue prediction. `None` until the first such completion.
    pub fn prediction_error_pct(&self) -> Option<f64> {
        if self.prediction_samples == 0 {
            None
        } else {
            Some(self.prediction_err_pct_sum / self.prediction_samples as f64)
        }
    }
}

/// Mutable per-tenant accounting plus span retention.
#[derive(Default)]
pub struct ServiceMetrics {
    tenants: BTreeMap<TenantId, TenantMetrics>,
    spans: BTreeMap<TenantId, Vec<TaskSpan>>,
}

impl ServiceMetrics {
    /// Accounting entry for a tenant, created on first touch.
    pub fn tenant_mut(&mut self, tenant: TenantId) -> &mut TenantMetrics {
        self.tenants.entry(tenant).or_default()
    }

    /// A tenant's current metrics slice (zeros if never active).
    pub fn tenant(&self, tenant: TenantId) -> TenantMetrics {
        self.tenants.get(&tenant).cloned().unwrap_or_default()
    }

    /// All tenant slices.
    pub fn all(&self) -> BTreeMap<TenantId, TenantMetrics> {
        self.tenants.clone()
    }

    /// Attribute a slice's runtime-counter delta (`after - before`)
    /// to a tenant.
    pub fn record_slice_delta(
        &mut self,
        tenant: TenantId,
        before: &MetricsSnapshot,
        after: &MetricsSnapshot,
    ) {
        let m = self.tenant_mut(tenant);
        m.tasks_submitted += after.tasks_submitted.saturating_sub(before.tasks_submitted);
        m.tasks_executed += after.tasks_executed.saturating_sub(before.tasks_executed);
        m.tasks_replayed += after.tasks_replayed.saturating_sub(before.tasks_replayed);
        m.reduction_stages += after.reduction_stages.saturating_sub(before.reduction_stages);
        m.reduction_stall_ns += after
            .reduction_stall_ns
            .saturating_sub(before.reduction_stall_ns);
        m.task_failures += after.task_failures.saturating_sub(before.task_failures);
        m.tasks_poisoned += after.tasks_poisoned.saturating_sub(before.tasks_poisoned);
        m.tasks_stalled += after.tasks_stalled.saturating_sub(before.tasks_stalled);
        m.faults_injected += after.faults_injected.saturating_sub(before.faults_injected);
    }

    /// Retain a slice's task spans under its tenant.
    pub fn record_spans(&mut self, tenant: TenantId, spans: Vec<TaskSpan>) {
        if !spans.is_empty() {
            self.spans.entry(tenant).or_default().extend(spans);
        }
    }

    /// Every tenant's retained spans, cloned out for cross-shard
    /// merging: the sharded service concatenates each tenant's spans
    /// across shards before rendering one combined trace.
    pub fn span_groups(&self) -> Vec<(TenantId, Vec<TaskSpan>)> {
        self.spans
            .iter()
            .map(|(&t, spans)| (t, spans.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_delta_accumulates() {
        let mut m = ServiceMetrics::default();
        let mut before = MetricsSnapshot::default();
        let after = MetricsSnapshot {
            tasks_submitted: 10,
            tasks_executed: 8,
            tasks_replayed: 5,
            ..Default::default()
        };
        m.record_slice_delta(7, &before, &after);
        before = after.clone();
        let mut after2 = after.clone();
        after2.tasks_executed = 11;
        m.record_slice_delta(7, &before, &after2);
        let t = m.tenant(7);
        assert_eq!(t.tasks_submitted, 10);
        assert_eq!(t.tasks_executed, 11);
        assert_eq!(t.tasks_replayed, 5);
    }

    #[test]
    fn fault_counters_attribute_and_merge() {
        let mut m = ServiceMetrics::default();
        let before = MetricsSnapshot::default();
        let after = MetricsSnapshot {
            task_failures: 2,
            tasks_poisoned: 5,
            tasks_stalled: 1,
            faults_injected: 3,
            ..Default::default()
        };
        m.record_slice_delta(4, &before, &after);
        let mut t = m.tenant(4);
        assert_eq!(t.task_failures, 2);
        assert_eq!(t.tasks_poisoned, 5);
        assert_eq!(t.tasks_stalled, 1);
        assert_eq!(t.faults_injected, 3);
        // Cross-shard merge sums the fault counters too.
        t.merge(&m.tenant(4));
        assert_eq!(t.task_failures, 4);
        assert_eq!(t.faults_injected, 6);
    }

    #[test]
    fn catalogue_metrics_merge_and_mean() {
        let mut a = TenantMetrics {
            catalogue_hits: 3,
            catalogue_misses: 1,
            prediction_err_pct_sum: 50.0,
            prediction_samples: 2,
            ..Default::default()
        };
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.catalogue_hits, 6);
        assert_eq!(a.catalogue_misses, 2);
        assert_eq!(a.prediction_error_pct(), Some(25.0));
        assert_eq!(TenantMetrics::default().prediction_error_pct(), None);
    }

    #[test]
    fn empty_span_sets_are_dropped() {
        let mut m = ServiceMetrics::default();
        m.record_spans(1, Vec::new());
        assert!(m.span_groups().is_empty());
    }
}
