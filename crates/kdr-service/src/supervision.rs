//! Shard supervision policy: health budgets, quarantine, recovery.
//!
//! The sharded front door is more than a router — it is a
//! *supervisor*. Every supervision round (one tick per
//! [`ShardedService::run_rounds`] round, or per drain pass of
//! `run_until_idle`) it:
//!
//! 1. **absorbs** each shard's completed responses into the
//!    front-door job ledger, intercepting failed attempts for
//!    retry-with-backoff instead of delivering them;
//! 2. **evaluates** each healthy shard against the
//!    [`HealthBudget`] — windowed deltas of the runtime's failure,
//!    poison, watchdog, and injected-fault counters, plus queue-age
//!    staleness;
//! 3. **quarantines** a shard that blew its budget: the front door
//!    stops routing to it (submits get typed
//!    [`RejectReason::ShardDegraded`] backpressure — only possible in
//!    the instant before evacuation completes, since evacuation moves
//!    the tenants and re-points routing), and every resident tenant
//!    is **evacuated** through the checkpoint/restart migration
//!    machinery onto its ring successor among the healthy shards (no
//!    capacity is added: load spreads over the survivors);
//! 4. **re-homes** tenants a crash left stranded on a killed slot,
//!    rebuilt from the front door's record and ledger, once a healthy
//!    shard exists again;
//! 5. **releases** retry jobs whose backoff expired, requeueing them
//!    from scratch on their tenant's current shard — a quarantined one
//!    too, when it had nowhere to evacuate the tenant to and so still
//!    drains the tenant's jobs (a retry whose tenant is stranded on a
//!    killed slot waits for step 4).
//!
//! ## Determinism: what is and is not bit-identical
//!
//! The service's three determinism layers (bitwise kernels, seeded
//! stride schedule, deterministic fault *injection*) survive
//! supervision, with one deliberate split:
//!
//! - A **gracefully evacuated** in-flight job
//!   ([`InFlightRecovery::Resume`]) restarts from its fenced `SOL`
//!   checkpoint — bit-identical to a *local* checkpoint/restart at
//!   the same iteration, exactly the PR-7 migration contract.
//! - A **crash-recovered** or **retried** job restarts **from
//!   scratch** with its full budget — its delivered residual history
//!   is bit-identical to a *fault-free* run of the same seed, because
//!   the failed attempt's partial history is discarded with the
//!   attempt. This is the contract the chaos harness asserts.
//! - Watchdog trips (`tasks_stalled`) and queue-age staleness are
//!   wall-clock observations: they may *trigger* quarantine at
//!   different rounds across runs, but whichever round it triggers,
//!   the recovered results are the same. Budgets on the
//!   deterministic counters (`task_failures`, `tasks_poisoned`,
//!   `faults_injected`) trip at the same round every run.
//!
//! Which *tenant's* job absorbs a given task failure can vary across
//! runs (the runtime's failure record is global per shard and is
//! claimed by the next fencing operation), so per-job retry *counts*
//! are not a determinism contract either — but the set of delivered
//! `(job, iterations, residual_history)` results is.
//!
//! [`ShardedService::run_rounds`]: crate::ShardedService::run_rounds
//! [`RejectReason::ShardDegraded`]: crate::RejectReason::ShardDegraded

use std::time::Duration;

/// Lifecycle state of one shard slot in the sharded fleet. Slots are
/// never reused: a retired shard keeps its index (and its terminal
/// status) so job ids, placements, and metrics stay unambiguous.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardStatus {
    /// Routing normally.
    Healthy,
    /// Crossed its health budget (or was quarantined explicitly):
    /// no new routing, tenants evacuated. The runtime stays alive so
    /// its metrics remain readable; [`ShardedService::remove_shard`]
    /// reclaims it.
    ///
    /// [`ShardedService::remove_shard`]: crate::ShardedService::remove_shard
    Quarantined,
    /// Forcibly killed ([`ShardedService::kill_shard`]): the runtime
    /// was dropped without a checkpoint, simulating a crash. Resident
    /// tenants are rebuilt on healthy shards from front-door state
    /// and their outstanding jobs resubmitted from the ledger — at the
    /// crash, or as soon as a healthy shard exists.
    ///
    /// [`ShardedService::kill_shard`]: crate::ShardedService::kill_shard
    Killed,
    /// Gracefully retired ([`ShardedService::remove_shard`]): tenants
    /// evacuated with checkpoints, runtime dropped, ring points
    /// removed.
    ///
    /// [`ShardedService::remove_shard`]: crate::ShardedService::remove_shard
    Removed,
}

impl ShardStatus {
    /// Whether the front door may route new work to this slot.
    pub fn is_healthy(&self) -> bool {
        matches!(self, ShardStatus::Healthy)
    }
}

/// Per-shard health thresholds, evaluated every supervision round
/// over a sliding window of [`HealthBudget::window_rounds`] rounds.
/// A `None` threshold never trips; the default budget is fully
/// permissive (supervision observes but never quarantines).
///
/// Thresholds trip *strictly above* the limit: `Some(0)` means "one
/// occurrence in the window quarantines".
#[derive(Clone, Copy, Debug)]
pub struct HealthBudget {
    /// Rounds per evaluation window; counters rebaseline when the
    /// window rolls over. Minimum 1.
    pub window_rounds: u64,
    /// Max task-body panics (injected or genuine) per window.
    pub max_task_failures: Option<u64>,
    /// Max poison-cascade retirements per window.
    pub max_tasks_poisoned: Option<u64>,
    /// Max watchdog stall trips per window. Wall-clock based: budgets
    /// on this counter make quarantine *timing* nondeterministic
    /// (recovered results are still deterministic).
    pub max_tasks_stalled: Option<u64>,
    /// Max deterministic injected-fault fires per window.
    pub max_faults_injected: Option<u64>,
    /// Max age of the oldest queued job — the staleness signal for a
    /// shard that stopped draining. Wall-clock based, like
    /// [`HealthBudget::max_tasks_stalled`].
    pub max_queue_age: Option<Duration>,
}

impl Default for HealthBudget {
    fn default() -> Self {
        HealthBudget {
            window_rounds: 8,
            max_task_failures: None,
            max_tasks_poisoned: None,
            max_tasks_stalled: None,
            max_faults_injected: None,
            max_queue_age: None,
        }
    }
}

impl HealthBudget {
    /// First exceeded threshold for the given window deltas, as a
    /// static trip-reason label (`None` = within budget).
    pub(crate) fn verdict(
        &self,
        deltas: &HealthReport,
    ) -> Option<&'static str> {
        if self.max_task_failures.is_some_and(|m| deltas.task_failures > m) {
            return Some("task_failures");
        }
        if self.max_tasks_poisoned.is_some_and(|m| deltas.tasks_poisoned > m) {
            return Some("tasks_poisoned");
        }
        if self.max_tasks_stalled.is_some_and(|m| deltas.tasks_stalled > m) {
            return Some("tasks_stalled");
        }
        if self
            .max_faults_injected
            .is_some_and(|m| deltas.faults_injected > m)
        {
            return Some("faults_injected");
        }
        if let (Some(limit), Some(age)) = (self.max_queue_age, deltas.oldest_queue_wait) {
            if age > limit {
                return Some("queue_age");
            }
        }
        None
    }
}

/// What happens to checkpointed in-flight jobs during a quarantine
/// evacuation. (A [`ShardedService::kill_shard`] crash never has
/// checkpoints — its jobs always restart from scratch.)
///
/// [`ShardedService::kill_shard`]: crate::ShardedService::kill_shard
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum InFlightRecovery {
    /// Resume from the fenced `SOL` checkpoint with the remaining
    /// iteration budget — bit-identical to a local restart at the
    /// same iteration. Fastest, but trusts data read off a shard that
    /// just blew its health budget.
    Resume,
    /// Discard the checkpoint and requeue from scratch with the full
    /// budget — the delivered history is then bit-identical to a
    /// fault-free run. The crash-safe default for quarantines
    /// triggered by corruption-class faults.
    #[default]
    Restart,
}

/// Bounded retry-with-backoff for failed jobs, applied at the front
/// door (shards never retry on their own).
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Extra executions granted after the first failed attempt.
    /// `0` (the default) disables interception: failures deliver as
    /// [`JobOutcome::Failed`] immediately. When exhausted, the job
    /// delivers [`JobOutcome::RetryExhausted`] — typed, never silent.
    ///
    /// [`JobOutcome::Failed`]: crate::JobOutcome::Failed
    /// [`JobOutcome::RetryExhausted`]: crate::JobOutcome::RetryExhausted
    pub max_attempts: u32,
    /// Backoff before retry `k` (1-based), in supervision *rounds*:
    /// `base_backoff_rounds << (k - 1)`, so retries space out
    /// geometrically. Rounds — not wall clock — keep the schedule
    /// deterministic.
    pub base_backoff_rounds: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 0,
            base_backoff_rounds: 1,
        }
    }
}

/// The complete supervisor configuration, embedded in
/// [`ShardConfig::supervisor`]. The default observes health but
/// never intervenes (permissive budget, no retries) — existing
/// sharded behavior is unchanged until a budget or retry policy is
/// set.
///
/// [`ShardConfig::supervisor`]: crate::ShardConfig::supervisor
#[derive(Clone, Debug, Default)]
pub struct SupervisorConfig {
    /// Per-shard health thresholds.
    pub budget: HealthBudget,
    /// Checkpoint handling for gracefully evacuated in-flight jobs.
    pub in_flight: InFlightRecovery,
    /// Front-door retry budget for failed jobs.
    pub retry: RetryPolicy,
}

/// One shard's current health window, as read by
/// [`ShardedService::health`]: counter deltas since the window
/// started, plus the staleness signal.
///
/// [`ShardedService::health`]: crate::ShardedService::health
#[derive(Clone, Copy, Debug, Default)]
pub struct HealthReport {
    /// Task-body panics in the current window.
    pub task_failures: u64,
    /// Poison-cascade retirements in the current window.
    pub tasks_poisoned: u64,
    /// Watchdog stall trips in the current window.
    pub tasks_stalled: u64,
    /// Injected-fault fires in the current window.
    pub faults_injected: u64,
    /// Age of the oldest queued job right now.
    pub oldest_queue_wait: Option<Duration>,
}

/// Running totals of supervisor interventions, via
/// [`ShardedService::supervisor_stats`]. Counts that depend on which
/// job absorbed a racy failure (`retries_scheduled`,
/// `jobs_resubmitted`) are observational, not determinism contracts.
///
/// [`ShardedService::supervisor_stats`]: crate::ShardedService::supervisor_stats
#[derive(Clone, Copy, Debug, Default)]
pub struct SupervisorStats {
    /// Shards quarantined (by budget or explicitly).
    pub quarantines: u64,
    /// Shards force-killed.
    pub kills: u64,
    /// Shards spawned live (`add_shard`, incl. `Replace` evacuation).
    pub shards_added: u64,
    /// Shards gracefully retired (`remove_shard`).
    pub shards_removed: u64,
    /// Tenants moved by evacuation (quarantine, kill, or removal).
    pub tenants_evacuated: u64,
    /// Failed attempts intercepted and scheduled for retry.
    pub retries_scheduled: u64,
    /// Jobs whose retry budget ran out (`RetryExhausted` delivered).
    pub retries_exhausted: u64,
    /// Outstanding jobs resubmitted from the ledger after a kill.
    pub jobs_resubmitted: u64,
}

/// Per-slot window baseline the supervisor keeps inside the front
/// door: absolute counter values at the window start.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct HealthWindow {
    pub(crate) window_start_round: u64,
    pub(crate) base_task_failures: u64,
    pub(crate) base_tasks_poisoned: u64,
    pub(crate) base_tasks_stalled: u64,
    pub(crate) base_faults_injected: u64,
}
