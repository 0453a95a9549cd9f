//! Bounded admission queue with backpressure and deadline screening.
//!
//! Admission is the service's only unbounded-work valve: the queue
//! holds at most `capacity` jobs, and a submit against a full queue
//! fails *immediately* with [`RejectReason::QueueFull`] rather than
//! blocking the client or growing without bound. Deadline screening
//! ([`RejectReason::DeadlineUnmeetable`]) uses an exponentially
//! weighted moving average of observed job service times to estimate
//! when a new job would first run; deadlines earlier than that are
//! rejected at admission instead of wasting queue space on work that
//! is already doomed.
//!
//! Before the first completion the EWMA is zero — historically that
//! meant a *cold tenant's* backlog counted as free and its first job
//! was admitted against any future deadline, however unmeetable. Jobs
//! now carry an optional cost-catalogue prediction
//! ([`QueuedJob::predicted_seconds`]): wherever the EWMA has no
//! observation yet, the screen falls back to the predicted cost, so a
//! cold tenant's first job is screened from the catalogue prior
//! instead of waved through.
//!
//! A catalogue mean may be any finite positive number, so an estimate
//! can be too large for a [`Duration`]. Estimates saturate at
//! [`Duration::MAX`] instead of panicking: a deadline screened against
//! one is rejected as unmeetable, and a job without a deadline is
//! admitted as before.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::request::{JobId, RejectReason, SolveRequest, TenantId};

/// EWMA smoothing for observed job service times.
const EWMA_ALPHA: f64 = 0.3;

/// `seconds` as a [`Duration`], saturating at [`Duration::MAX`] when
/// it is too large for one (∞ and NaN included).
fn saturating_secs(seconds: f64) -> Duration {
    Duration::try_from_secs_f64(seconds).unwrap_or(Duration::MAX)
}

/// One admitted, not-yet-started job.
#[derive(Debug)]
pub struct QueuedJob {
    /// Admission-order id.
    pub job: JobId,
    /// Owning tenant.
    pub tenant: TenantId,
    /// The request as submitted, shared with the sharded front
    /// door's job ledger (which needs it to resubmit the job after a
    /// shard crash or a failed attempt).
    pub request: Arc<SolveRequest>,
    /// When admission succeeded.
    pub submitted_at: Instant,
    /// Cost-catalogue prediction of this job's service seconds made
    /// at admission (`None` when the service runs without a
    /// catalogue). Stands in for the EWMA while it has no
    /// observation, and is compared against the observed turnaround
    /// at completion to feed the prediction-error metric.
    pub predicted_seconds: Option<f64>,
}

/// The bounded admission queue (FIFO per tenant).
pub struct AdmissionQueue {
    capacity: usize,
    jobs: VecDeque<QueuedJob>,
    /// EWMA of job service seconds; `0` until the first completion
    /// (deadline screening then only rejects already-past deadlines).
    ewma_job_seconds: f64,
}

impl AdmissionQueue {
    /// An empty queue bounded at `capacity` jobs.
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            capacity,
            jobs: VecDeque::new(),
            ewma_job_seconds: 0.0,
        }
    }

    /// Jobs currently queued.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Expected service seconds of one queued job: the observed EWMA
    /// once any job has completed, else the job's own catalogue
    /// prediction (zero when neither exists — the pre-catalogue
    /// behavior).
    fn per_job_seconds(&self, predicted: Option<f64>) -> f64 {
        if self.ewma_job_seconds > 0.0 {
            self.ewma_job_seconds
        } else {
            predicted.unwrap_or(0.0).max(0.0)
        }
    }

    /// Estimated wait before a job admitted *now* would first be
    /// scheduled: the backlog's summed expected service times,
    /// saturating at [`Duration::MAX`].
    pub fn estimated_start(&self) -> Duration {
        let total: f64 = self
            .jobs
            .iter()
            .map(|j| self.per_job_seconds(j.predicted_seconds))
            .sum();
        saturating_secs(total)
    }

    /// Admit a job or reject it with a typed reason. `QueueFull` and
    /// `DeadlineUnmeetable` are the backpressure signals; both leave
    /// the queue unchanged. `predicted_seconds` is the cost
    /// catalogue's estimate of the job's own service time: it screens
    /// the deadline even when the EWMA has no observation yet (the
    /// cold-tenant case), and is retained on the queued job for the
    /// prediction-error metric at completion.
    pub fn try_admit(
        &mut self,
        job: JobId,
        tenant: TenantId,
        request: Arc<SolveRequest>,
        now: Instant,
        predicted_seconds: Option<f64>,
    ) -> Result<(), RejectReason> {
        if self.jobs.len() >= self.capacity {
            return Err(RejectReason::QueueFull {
                capacity: self.capacity,
            });
        }
        if let Some(deadline) = request.deadline {
            let deadline_in = deadline.saturating_duration_since(now);
            let estimated_start = self.estimated_start();
            let own = saturating_secs(self.per_job_seconds(predicted_seconds));
            if deadline_in.is_zero() || deadline_in < estimated_start.saturating_add(own) {
                return Err(RejectReason::DeadlineUnmeetable {
                    deadline_in,
                    estimated_start,
                });
            }
        }
        self.jobs.push_back(QueuedJob {
            job,
            tenant,
            request,
            submitted_at: now,
            predicted_seconds,
        });
        Ok(())
    }

    /// Tenants with at least one queued job, in queue order without
    /// duplicates.
    pub fn tenants_with_work(&self) -> Vec<TenantId> {
        let mut seen = Vec::new();
        for j in &self.jobs {
            if !seen.contains(&j.tenant) {
                seen.push(j.tenant);
            }
        }
        seen
    }

    /// Pop the oldest queued job of `tenant`, if any.
    pub fn pop_for_tenant(&mut self, tenant: TenantId) -> Option<QueuedJob> {
        let idx = self.jobs.iter().position(|j| j.tenant == tenant)?;
        self.jobs.remove(idx)
    }

    /// Remove a queued job by id (explicit cancellation before it
    /// ever ran).
    pub fn remove_job(&mut self, job: JobId) -> Option<QueuedJob> {
        let idx = self.jobs.iter().position(|j| j.job == job)?;
        self.jobs.remove(idx)
    }

    /// Remove and return every queued job of `tenant`, preserving
    /// queue order. Used by cross-shard migration: the jobs re-enter
    /// the destination shard's queue via [`AdmissionQueue::restore`].
    pub fn remove_tenant(&mut self, tenant: TenantId) -> Vec<QueuedJob> {
        let mut moved = Vec::new();
        let mut kept = VecDeque::with_capacity(self.jobs.len());
        for j in self.jobs.drain(..) {
            if j.tenant == tenant {
                moved.push(j);
            } else {
                kept.push_back(j);
            }
        }
        self.jobs = kept;
        moved
    }

    /// Re-admit an already-admitted job (migration restore). Bypasses
    /// the capacity bound and deadline screen: the job passed
    /// admission once on its original shard, and dropping it here
    /// would violate the zero-lost-jobs contract.
    pub fn restore(&mut self, job: QueuedJob) {
        self.jobs.push_back(job);
    }

    /// Age of the oldest queued job at `now` (`None` when empty).
    /// The shard supervisor reads this as the queue-staleness health
    /// signal: a healthy shard drains its queue, so an ever-growing
    /// oldest age means the shard has stopped making progress.
    pub fn oldest_wait(&self, now: Instant) -> Option<Duration> {
        self.jobs
            .iter()
            .map(|j| now.saturating_duration_since(j.submitted_at))
            .max()
    }

    /// The current EWMA of observed job service seconds (`0.0` until
    /// the first completion). The shard's load signal
    /// ([`ShardLoad`](crate::ShardLoad)) reports it as the per-shard
    /// turnaround.
    pub fn ewma_job_seconds(&self) -> f64 {
        self.ewma_job_seconds
    }

    /// Feed one completed job's service time into the deadline
    /// estimator.
    pub fn observe_job_seconds(&mut self, seconds: f64) {
        if self.ewma_job_seconds == 0.0 {
            self.ewma_job_seconds = seconds;
        } else {
            self.ewma_job_seconds =
                EWMA_ALPHA * seconds + (1.0 - EWMA_ALPHA) * self.ewma_job_seconds;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdr_core::SolveControl;

    fn req() -> Arc<SolveRequest> {
        Arc::new(SolveRequest::new(0, vec![1.0], SolveControl::default()))
    }

    #[test]
    fn queue_full_rejects_without_mutation() {
        let mut q = AdmissionQueue::new(2);
        let now = Instant::now();
        assert!(q.try_admit(0, 1, req(), now, None).is_ok());
        assert!(q.try_admit(1, 2, req(), now, None).is_ok());
        let err = q.try_admit(2, 1, req(), now, None).unwrap_err();
        assert_eq!(err, RejectReason::QueueFull { capacity: 2 });
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn past_deadline_rejected_at_admission() {
        let mut q = AdmissionQueue::new(8);
        let now = Instant::now();
        let mut r = SolveRequest::new(0, vec![1.0], SolveControl::default());
        r.deadline = Some(now - Duration::from_millis(1));
        let err = q.try_admit(0, 1, Arc::new(r), now, None).unwrap_err();
        assert!(matches!(err, RejectReason::DeadlineUnmeetable { .. }));
        assert!(q.is_empty());
    }

    #[test]
    fn deadline_screening_uses_backlog_estimate() {
        let mut q = AdmissionQueue::new(8);
        let now = Instant::now();
        q.observe_job_seconds(1.0);
        assert!(q.try_admit(0, 1, req(), now, None).is_ok());
        assert!(q.try_admit(1, 1, req(), now, None).is_ok());
        // Two 1-second jobs queued; a 500 ms deadline is hopeless.
        let mut r = SolveRequest::new(0, vec![1.0], SolveControl::default());
        r.deadline = Some(now + Duration::from_millis(500));
        assert!(matches!(
            q.try_admit(2, 2, Arc::new(r), now, None).unwrap_err(),
            RejectReason::DeadlineUnmeetable { .. }
        ));
        // A 10-second deadline clears the estimate.
        let mut r = SolveRequest::new(0, vec![1.0], SolveControl::default());
        r.deadline = Some(now + Duration::from_secs(10));
        assert!(q.try_admit(3, 2, Arc::new(r), now, None).is_ok());
    }

    #[test]
    fn cold_queue_screens_from_catalogue_prediction() {
        // No completion has been observed (EWMA is zero), so without
        // a prediction any future deadline is admitted — the historic
        // cold-tenant hole. With a catalogue prediction the job's own
        // predicted cost screens the deadline even on an empty queue.
        let mut q = AdmissionQueue::new(8);
        let now = Instant::now();
        let mut r = SolveRequest::new(0, vec![1.0], SolveControl::default());
        r.deadline = Some(now + Duration::from_millis(1));
        assert!(matches!(
            q.try_admit(0, 1, Arc::new(r), now, Some(1.0)).unwrap_err(),
            RejectReason::DeadlineUnmeetable { .. }
        ));
        assert!(q.is_empty());
        // The same prediction clears a generous deadline.
        let mut r = SolveRequest::new(0, vec![1.0], SolveControl::default());
        r.deadline = Some(now + Duration::from_secs(10));
        assert!(q.try_admit(1, 1, Arc::new(r), now, Some(1.0)).is_ok());
        // Once the EWMA has an observation it takes precedence over
        // the per-job prediction.
        q.observe_job_seconds(0.25);
        let mut r = SolveRequest::new(0, vec![1.0], SolveControl::default());
        r.deadline = Some(now + Duration::from_secs(1));
        assert!(
            q.try_admit(2, 1, Arc::new(r), now, Some(100.0)).is_ok(),
            "observed EWMA overrides a wild prediction"
        );

        // A prediction too large for a `Duration` saturates the
        // estimate: a deadline screened against it is unmeetable, and
        // a job without a deadline is still admitted.
        let mut q = AdmissionQueue::new(8);
        let deadline = |secs| {
            let mut r = SolveRequest::new(0, vec![1.0], SolveControl::default());
            r.deadline = Some(now + Duration::from_secs(secs));
            Arc::new(r)
        };
        assert!(matches!(
            q.try_admit(0, 1, deadline(3600), now, Some(1e300))
                .unwrap_err(),
            RejectReason::DeadlineUnmeetable { .. }
        ));
        q.try_admit(1, 1, req(), now, Some(1e300)).unwrap();
        assert_eq!(q.estimated_start(), Duration::MAX);
        assert!(matches!(
            q.try_admit(2, 2, deadline(3600), now, Some(1.0))
                .unwrap_err(),
            RejectReason::DeadlineUnmeetable {
                estimated_start: Duration::MAX,
                ..
            }
        ));
        // Backlog and own cost that fit a `Duration` apart but not
        // summed.
        let mut q = AdmissionQueue::new(8);
        q.try_admit(0, 1, req(), now, Some(1.5e19)).unwrap();
        assert!(q.estimated_start() < Duration::MAX);
        assert!(matches!(
            q.try_admit(1, 1, deadline(3600), now, Some(1.5e19))
                .unwrap_err(),
            RejectReason::DeadlineUnmeetable { .. }
        ));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pop_is_fifo_per_tenant() {
        let mut q = AdmissionQueue::new(8);
        let now = Instant::now();
        q.try_admit(10, 1, req(), now, None).unwrap();
        q.try_admit(11, 2, req(), now, None).unwrap();
        q.try_admit(12, 1, req(), now, None).unwrap();
        assert_eq!(q.pop_for_tenant(1).unwrap().job, 10);
        assert_eq!(q.pop_for_tenant(1).unwrap().job, 12);
        assert!(q.pop_for_tenant(1).is_none());
        assert_eq!(q.pop_for_tenant(2).unwrap().job, 11);
    }

    #[test]
    fn restore_bypasses_capacity_and_deadline_screen() {
        // Evacuation restore: a once-admitted job must re-enter the
        // destination queue even when that queue is full and its
        // deadline no longer clears the backlog estimate — dropping
        // it would break the zero-lost-jobs contract.
        let mut q = AdmissionQueue::new(1);
        let now = Instant::now();
        q.observe_job_seconds(100.0);
        q.try_admit(0, 1, req(), now, None).unwrap();
        let mut r = SolveRequest::new(0, vec![1.0], SolveControl::default());
        r.deadline = Some(now + Duration::from_millis(1));
        q.restore(QueuedJob {
            job: 1,
            tenant: 2,
            request: Arc::new(r),
            submitted_at: now,
            predicted_seconds: None,
        });
        assert_eq!(q.len(), 2, "restore ignores the capacity bound");
        let restored = q.pop_for_tenant(2).unwrap();
        assert_eq!(restored.job, 1);
        assert!(restored.request.deadline.is_some(), "deadline preserved");
    }

    #[test]
    fn oldest_wait_tracks_the_stalest_job() {
        let mut q = AdmissionQueue::new(8);
        let t0 = Instant::now();
        assert_eq!(q.oldest_wait(t0), None);
        q.try_admit(0, 1, req(), t0, None).unwrap();
        q.try_admit(1, 2, req(), t0 + Duration::from_millis(50), None).unwrap();
        let now = t0 + Duration::from_millis(80);
        assert_eq!(q.oldest_wait(now), Some(Duration::from_millis(80)));
        q.remove_job(0);
        assert_eq!(q.oldest_wait(now), Some(Duration::from_millis(30)));
    }

    #[test]
    fn tenants_with_work_deduplicates_in_order() {
        let mut q = AdmissionQueue::new(8);
        let now = Instant::now();
        q.try_admit(0, 3, req(), now, None).unwrap();
        q.try_admit(1, 1, req(), now, None).unwrap();
        q.try_admit(2, 3, req(), now, None).unwrap();
        assert_eq!(q.tenants_with_work(), vec![3, 1]);
    }
}
