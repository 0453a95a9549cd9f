//! The solve service: N shard runtimes behind one front door.
//!
//! A [`ShardedService`] is the crate's one client-facing service. It
//! runs N complete [`ShardEngine`]s — each with its own runtime,
//! worker pool, planner sessions, and fair scheduler — behind one
//! **admission front door**, and the single-runtime service is simply
//! `ShardConfig { shards: 1, .. }`. One shard scales *within* a worker
//! pool; past that, the single driver thread and the single runtime's
//! reduction tree become the ceiling, and more shards lift it.
//!
//! The front door is the source of truth for everything a client can
//! name: a `TenantRecord` per tenant (the shard it lives on, its
//! fair-share weight, the spec of every session it owns), session- and
//! job-id allocation, and the ledger of admitted jobs. A shard holds
//! only what it needs to *run* its residents, and gets all of it one
//! way: the front door builds a `TenantBundle` — from a live
//! `detach_tenant` (migration, evacuation, removal), from the tenant
//! record plus the ledger (crash recovery), from a store file
//! (`open_store`), or holding just a new weight, a new session or a
//! job due for another execution — and the destination's
//! `attach_tenant` registers the tenant, builds and pre-warms the
//! sessions, and restores the jobs.
//!
//! Placement is **consistent-hash** (a splitmix64 ring with virtual
//! nodes: adding a shard moves `~1/N` of tenants, everyone else stays
//! put). A tenant moves only when asked to
//! ([`ShardedService::migrate_tenant`]), when the fleet grows or
//! shrinks, or when supervision evacuates it.
//!
//! **Migration** reuses the checkpoint/restart machinery: detach on
//! the source shard (scheduler entry out, queued jobs out, in-flight
//! jobs checkpointed at their current iterate via a fenced `SOL`
//! snapshot), attach on the destination (sessions rebuilt from spec,
//! solver rebuilt from the checkpoint on next activation — restart
//! semantics, `r = b − A·x` recomputed), at the weight the front door
//! holds — so a re-weight issued while the tenant was stranded on a
//! quarantined shard takes effect when it lands. Because every kernel is
//! bitwise deterministic, a migrated job's numerical trajectory is
//! *identical* to a local checkpoint/restart at the same iteration.
//! The front-door lock makes the cutover atomic: a submit racing a
//! migration either lands before detach (and the job migrates with
//! the tenant) or after attach (and routes to the new shard); an
//! unknown session is rejected with a typed error, never lost.
//!
//! **Supervision** (see the [`supervision`](crate::supervision)
//! module docs): the front door keeps a *job ledger* (every admitted
//! job's request, attempts, and completion state) and a per-shard
//! health window. Shards that blow their [`HealthBudget`] are
//! quarantined and their tenants evacuated onto their ring successors
//! among the surviving shards ([`ShardedService::add_shard`] /
//! [`ShardedService::remove_shard`] grow and shrink the fleet live).
//! Failed jobs are retried from scratch with deterministic round-based
//! backoff ([`RetryPolicy`]), delivering
//! typed [`JobOutcome::RetryExhausted`] when the budget runs out —
//! never silent loss. [`ShardedService::kill_shard`] simulates a
//! crash (the runtime is dropped, nothing is read from it); resident
//! tenants are rebuilt from front-door state and their outstanding
//! jobs resubmitted from the ledger. A job the front door runs again
//! keeps its ledgered admission instant, so its response's
//! `queue_wait + turnaround` covers the failed attempt and the backoff.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use kdr_machine::MachineConfig;
use kdr_runtime::{MetricsSnapshot, TaskSpan};
use kdr_store::{SharedCatalogue, StoreBundle, StoreError, StoreSession, StoreTenant};

use crate::metrics::TenantMetrics;
use crate::persist;
use crate::queue::QueuedJob;
use crate::request::{
    CancelOutcome, JobId, JobOutcome, RejectReason, SessionId, SolveRequest, SolveResponse,
    TenantId,
};
use crate::scheduler::splitmix64;
use crate::service::{
    BundleSession, ServiceConfig, SessionWarmth, ShardEngine, ShardLoad, TenantBundle,
};
use crate::session::SessionSpec;
use crate::supervision::{
    HealthBudget, HealthReport, HealthWindow, InFlightRecovery, RetryPolicy, ShardStatus,
    SupervisorConfig, SupervisorStats,
};

/// Virtual nodes per shard on the consistent-hash ring. More points
/// → smoother split at the cost of a larger (still tiny) ring.
const VNODES_PER_SHARD: u64 = 64;

/// Sharded-service construction knobs.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Number of independent shard runtimes (`>= 1`) at startup;
    /// [`ShardedService::add_shard`] grows the fleet live.
    pub shards: usize,
    /// Supervisor policy: health budget, in-flight recovery mode, and
    /// the front-door retry budget. The default never quarantines and
    /// never retries.
    pub supervisor: SupervisorConfig,
    /// Per-shard service configuration. Each shard runs
    /// `base.workers` workers; `base.seed` is salted with the shard
    /// index so sibling schedulers don't break ties identically.
    pub base: ServiceConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 2,
            supervisor: SupervisorConfig::default(),
            base: ServiceConfig::default(),
        }
    }
}

/// One shard slot. Slots are append-only: a retired shard keeps its
/// index and terminal [`ShardStatus`] so ids and placements stay
/// unambiguous for the fleet's lifetime.
struct ShardSlot {
    /// The live engine; `None` once killed or removed.
    svc: Option<Arc<ShardEngine>>,
    status: ShardStatus,
}

impl ShardSlot {
    fn live(&self) -> Option<&Arc<ShardEngine>> {
        self.svc.as_ref()
    }
}

/// Front-door record of one admitted job, kept until delivery: what
/// to resubmit after a crash or failed attempt, and the terminal
/// marker that makes delivery exactly-once.
struct JobEntry {
    tenant: TenantId,
    /// `None` once terminal (the request is only needed to re-run).
    request: Option<Arc<SolveRequest>>,
    /// When the job was admitted; every execution of it is queued
    /// with this instant.
    admitted_at: Instant,
    /// Completed failed attempts so far.
    attempts: u32,
    /// From-scratch resubmissions after shard kills.
    resubmits: u32,
    /// Response delivered (or synthesized): nothing further may be
    /// emitted or rerun for this job.
    terminal: bool,
}

/// What the front door holds about one registered tenant — the source
/// of truth a shard's copy is (re)built from.
struct TenantRecord {
    /// The slot the tenant lives on (it may be quarantined or dead
    /// while the tenant is stranded).
    shard: usize,
    /// Fair-share weight as last registered; every bundle built here
    /// carries it.
    weight: u64,
    /// Every session the tenant owns, as a rebuildable spec. Sessions
    /// follow their tenant across shards.
    sessions: BTreeMap<SessionId, SessionSpec>,
}

/// Front-door bookkeeping: placement, global id allocation, the
/// migration cutover lock, and the supervisor's ledger + health
/// state.
struct FrontDoor {
    slots: Vec<ShardSlot>,
    tenants: BTreeMap<TenantId, TenantRecord>,
    /// Consistent-hash ring: sorted `(point, shard)` pairs. Only
    /// healthy shards keep their points.
    ring: Vec<(u64, usize)>,
    next_session: SessionId,
    next_job: JobId,
    migrations: u64,
    /// Supervision round counter; ticks once per [`supervise`] call.
    ///
    /// [`supervise`]: ShardedService::supervise
    round: u64,
    /// Every admitted job, until delivered.
    ledger: BTreeMap<JobId, JobEntry>,
    /// Failed jobs awaiting their backoff: `(ready_round, job)`.
    retry_queue: Vec<(u64, JobId)>,
    /// Responses absorbed from shards and cleared for delivery.
    done: Vec<SolveResponse>,
    /// Per-slot health window baselines (index = slot).
    health: Vec<HealthWindow>,
    stats: SupervisorStats,
}

impl FrontDoor {
    /// The ring's *healthy* shard for a tenant: first virtual node at
    /// or after the tenant's hash point whose shard is healthy,
    /// wrapping. `None` when no healthy shard remains. Deterministic:
    /// it depends only on the tenant id and the ring's shards.
    fn ring_place_healthy(&self, tenant: TenantId) -> Option<usize> {
        if self.ring.is_empty() {
            return None;
        }
        let point = splitmix64(u64::from(tenant).wrapping_mul(0xc2b2_ae3d_27d4_eb4f));
        let start = self.ring.partition_point(|&(p, _)| p < point);
        for k in 0..self.ring.len() {
            let (_, shard) = self.ring[(start + k) % self.ring.len()];
            if self.slots[shard].status.is_healthy() {
                return Some(shard);
            }
        }
        None
    }

    /// Tenants currently placed on `shard`, ascending.
    fn residents(&self, shard: usize) -> Vec<TenantId> {
        self.tenants
            .iter()
            .filter(|(_, rec)| rec.shard == shard)
            .map(|(&t, _)| t)
            .collect()
    }

    /// An empty bundle for a registered tenant, at its recorded
    /// weight: attached as is it (re-)registers the tenant; callers
    /// add the sessions and jobs that should land with it.
    fn bundle(&self, tenant: TenantId) -> TenantBundle {
        TenantBundle::new(tenant, self.tenants[&tenant].weight)
    }

    /// A ledgered job as a queue entry for one more execution, from
    /// scratch: same id, same request, the instant it was admitted.
    fn requeue(&self, job: JobId) -> QueuedJob {
        let entry = &self.ledger[&job];
        QueuedJob {
            job,
            tenant: entry.tenant,
            request: Arc::clone(
                entry
                    .request
                    .as_ref()
                    .expect("non-terminal entries keep the request"),
            ),
            submitted_at: entry.admitted_at,
            predicted_seconds: None,
        }
    }

    /// Hand a bundle to the shard in slot `dst` and record that the
    /// tenant lives there. Every registration, session, and job
    /// re-execution reaches a shard through here.
    fn install(&mut self, dst: usize, bundle: TenantBundle) {
        self.tenants
            .get_mut(&bundle.tenant)
            .expect("bundles are built for registered tenants")
            .shard = dst;
        self.slots[dst]
            .live()
            .expect("bundles are installed on live shards")
            .attach_tenant(bundle);
    }

    /// The healthy shard a tenant's new sessions and jobs go to, or
    /// the typed reason there is none.
    fn routable_shard(&self, tenant: TenantId) -> Result<usize, RejectReason> {
        let Some(rec) = self.tenants.get(&tenant) else {
            return Err(RejectReason::UnknownTenant { tenant });
        };
        if self.slots[rec.shard].status.is_healthy() {
            Ok(rec.shard)
        } else {
            Err(RejectReason::ShardDegraded { shard: rec.shard })
        }
    }

    /// Whether `job` is parked in the front-door retry queue.
    fn retry_pending(&self, job: JobId) -> bool {
        self.retry_queue.iter().any(|&(_, j)| j == job)
    }

    /// The live shard the tenant of ledgered `job` lives on: a healthy
    /// one, or a quarantined one that had nowhere to evacuate it to and
    /// still drains its work. `None` while the tenant is stranded on a
    /// dead slot.
    fn live_home(&self, job: JobId) -> Option<usize> {
        let shard = self.tenants[&self.ledger[&job].tenant].shard;
        self.slots[shard].live().is_some().then_some(shard)
    }

    /// Whether a parked retry can still be released. (The retry of a
    /// tenant stranded on a dead slot waits for capacity to return;
    /// driving rounds meanwhile would not help it.)
    fn retry_releasable(&self) -> bool {
        self.retry_queue
            .iter()
            .any(|&(_, job)| self.live_home(job).is_some())
    }

    /// Rebuild `tenant` on the healthy shard `dst` from front-door
    /// state alone (nothing is read from the slot it lived on):
    /// re-registered at its recorded weight, its sessions built cold
    /// from the stashed specs, and every outstanding ledger job of its
    /// resubmitted **from scratch** in admission order. Jobs parked in
    /// the retry queue are *not* resubmitted here — their backoff
    /// release routes them to the tenant's new shard.
    fn rehome_from_ledger(&mut self, tenant: TenantId, dst: usize) {
        let mut bundle = self.bundle(tenant);
        bundle.sessions = self.tenants[&tenant]
            .sessions
            .iter()
            .map(|(&id, spec)| BundleSession::cold(id, spec.clone()))
            .collect();
        let outstanding: Vec<JobId> = self
            .ledger
            .iter()
            .filter(|(job, e)| !e.terminal && e.tenant == tenant && !self.retry_pending(**job))
            .map(|(&job, _)| job)
            .collect();
        for job in outstanding {
            self.ledger
                .get_mut(&job)
                .expect("collected above")
                .resubmits += 1;
            bundle.queued.push(self.requeue(job));
            self.stats.jobs_resubmitted += 1;
        }
        self.install(dst, bundle);
        self.migrations += 1;
        self.stats.tenants_evacuated += 1;
    }

    /// Re-home every tenant still placed on a killed slot that has a
    /// healthy ring successor (now, or since capacity returned).
    fn rehome_stranded(&mut self) {
        for idx in 0..self.slots.len() {
            if self.slots[idx].status != ShardStatus::Killed {
                continue;
            }
            for t in self.residents(idx) {
                if let Some(dst) = self.ring_place_healthy(t) {
                    self.rehome_from_ledger(t, dst);
                }
            }
        }
    }

    /// Delivered-retry count for a ledger entry: extra executions the
    /// front door granted (failed attempts that got a re-run, plus
    /// crash resubmissions).
    fn retries_of(entry: &JobEntry, exhausted: bool) -> u32 {
        let reruns = if exhausted {
            entry.attempts.saturating_sub(1)
        } else {
            entry.attempts
        };
        reruns + entry.resubmits
    }
}

/// The solve service: N shard engines behind one admission front
/// door (`shards: 1` is the single-runtime service). See the
/// [module docs](self) for the architecture.
///
/// All front-door operations (`register_tenant`, `create_session`,
/// `submit`, `migrate_tenant`, `supervise`, `kill_shard`, …)
/// serialize on one lock; shard *drivers*
/// ([`ShardedService::run_until_idle`] spawns one thread per shard
/// with work) run outside it and only contend on their own shard's
/// state lock, slice by slice.
pub struct ShardedService {
    front: Mutex<FrontDoor>,
    cfg: ShardConfig,
}

impl ShardedService {
    /// Spin up `cfg.shards` independent runtimes and an empty front
    /// door.
    pub fn new(cfg: ShardConfig) -> Self {
        let svc = ShardedService {
            front: Mutex::new(FrontDoor {
                slots: Vec::new(),
                tenants: BTreeMap::new(),
                ring: Vec::new(),
                next_session: 0,
                next_job: 0,
                migrations: 0,
                round: 0,
                ledger: BTreeMap::new(),
                retry_queue: Vec::new(),
                done: Vec::new(),
                health: Vec::new(),
                stats: SupervisorStats::default(),
            }),
            cfg,
        };
        for _ in 0..svc.cfg.shards.max(1) {
            svc.add_shard_slot(&mut svc.front.lock());
        }
        svc
    }

    /// Number of shard slots ever created (including quarantined,
    /// killed, and removed slots — slot indices are never reused).
    pub fn shard_count(&self) -> usize {
        self.front.lock().slots.len()
    }

    /// Number of slots currently healthy (routable).
    pub fn healthy_shard_count(&self) -> usize {
        self.front
            .lock()
            .slots
            .iter()
            .filter(|s| s.status.is_healthy())
            .count()
    }

    /// Direct access to one shard engine, to drive it by hand, arm
    /// fault injection on its runtime, or read per-shard counters.
    /// Panics if the slot was killed or removed — check
    /// [`ShardedService::shard_status`] first when the fleet may have
    /// retired shards.
    pub fn shard(&self, idx: usize) -> Arc<ShardEngine> {
        self.front.lock().slots[idx]
            .svc
            .clone()
            .expect("shard slot was killed or removed")
    }

    /// Lifecycle state of a slot (`None` for out-of-range indices).
    pub fn shard_status(&self, idx: usize) -> Option<ShardStatus> {
        self.front.lock().slots.get(idx).map(|s| s.status)
    }

    /// The shard a tenant currently lives on (`None` if
    /// unregistered).
    pub fn shard_of(&self, tenant: TenantId) -> Option<usize> {
        self.front.lock().tenants.get(&tenant).map(|rec| rec.shard)
    }

    /// Completed cross-shard migrations so far (self-migrations are
    /// not counted; evacuations and elasticity moves are).
    pub fn migrations(&self) -> u64 {
        self.front.lock().migrations
    }

    /// Running totals of supervisor interventions.
    pub fn supervisor_stats(&self) -> SupervisorStats {
        self.front.lock().stats
    }

    /// A shard's current health window: counter deltas since the
    /// window baseline plus queue staleness. `None` for retired slots
    /// and out-of-range indices.
    pub fn health(&self, idx: usize) -> Option<HealthReport> {
        let front = self.front.lock();
        let slot = front.slots.get(idx)?;
        let svc = slot.live()?;
        Some(Self::window_report(svc, &front.health[idx]))
    }

    fn window_report(svc: &ShardEngine, w: &HealthWindow) -> HealthReport {
        let snap = svc.runtime().metrics();
        HealthReport {
            task_failures: snap.task_failures.saturating_sub(w.base_task_failures),
            tasks_poisoned: snap.tasks_poisoned.saturating_sub(w.base_tasks_poisoned),
            tasks_stalled: snap.tasks_stalled.saturating_sub(w.base_tasks_stalled),
            faults_injected: snap.faults_injected.saturating_sub(w.base_faults_injected),
            oldest_queue_wait: svc.oldest_queue_wait(),
        }
    }

    /// Register (or re-weight) a tenant. First registration places
    /// the tenant on its consistent-hash ring shard (panicking if no
    /// healthy shard remains); re-registration only updates the
    /// weight — in place, or, while the tenant is stranded on a
    /// quarantined or dead shard, when it is next evacuated.
    pub fn register_tenant(&self, tenant: TenantId, weight: u64) {
        let mut front = self.front.lock();
        let weight = weight.max(1);
        let shard = match front.tenants.get_mut(&tenant) {
            Some(rec) => {
                rec.weight = weight;
                rec.shard
            }
            None => {
                let shard = front
                    .ring_place_healthy(tenant)
                    .expect("no healthy shard left to place a tenant on");
                let rec = TenantRecord {
                    shard,
                    weight,
                    sessions: BTreeMap::new(),
                };
                front.tenants.insert(tenant, rec);
                shard
            }
        };
        if front.slots[shard].status.is_healthy() {
            let bundle = front.bundle(tenant);
            front.install(shard, bundle);
        }
    }

    /// Create a plan-cached session for a registered tenant on its
    /// current shard. The session's plan is finalized here: its
    /// operator is tiled, registered and lowered. The session is cold
    /// — no step programs captured — until its first job runs, and
    /// warm thereafter. Returns `Err(BadPieceCount)` for a spec whose
    /// piece count is outside `1..=unknowns`, `Err(UnknownTenant)` for
    /// unregistered tenants and `Err(ShardDegraded)` while the
    /// tenant's shard is quarantined (transient: retry after
    /// evacuation). A rejected spec leaves no trace.
    pub fn create_session(
        &self,
        tenant: TenantId,
        spec: SessionSpec,
    ) -> Result<SessionId, RejectReason> {
        spec.check_pieces()?;
        let mut front = self.front.lock();
        let shard = front.routable_shard(tenant)?;
        let id = front.next_session;
        front.next_session += 1;
        let rec = front.tenants.get_mut(&tenant).expect("routable");
        rec.sessions.insert(id, spec.clone());
        let mut bundle = front.bundle(tenant);
        bundle.sessions.push(BundleSession::cold(id, spec));
        front.install(shard, bundle);
        Ok(id)
    }

    /// Submit a request, routing it to the shard its session lives
    /// on. Callable from any thread. Job ids are allocated here in
    /// admission order, and every admitted job is recorded in the
    /// front-door ledger until its response is delivered. The routing
    /// decision holds the front-door lock, so a submit racing a
    /// migration or evacuation cutover serializes against it: it
    /// either lands before detach (the job moves with its tenant) or
    /// after attach (it routes to the new shard) — never in between.
    /// Rejections are typed: [`RejectReason::QueueFull`] and
    /// [`RejectReason::DeadlineUnmeetable`] are the shard's
    /// backpressure signals, and a submit aimed at a quarantined shard
    /// gets [`RejectReason::ShardDegraded`].
    pub fn submit(
        &self,
        tenant: TenantId,
        request: SolveRequest,
    ) -> Result<JobId, RejectReason> {
        let mut front = self.front.lock();
        let shard = front.routable_shard(tenant)?;
        if !front.tenants[&tenant].sessions.contains_key(&request.session) {
            return Err(RejectReason::UnknownSession {
                session: request.session,
            });
        }
        let job = front.next_job;
        let request = Arc::new(request);
        let admitted_at = Instant::now();
        front.slots[shard]
            .live()
            .expect("healthy slots have a runtime")
            .submit(job, tenant, Arc::clone(&request), admitted_at)?;
        front.next_job += 1;
        front.ledger.insert(
            job,
            JobEntry {
                tenant,
                request: Some(request),
                admitted_at,
                attempts: 0,
                resubmits: 0,
                terminal: false,
            },
        );
        Ok(job)
    }

    /// Cooperatively cancel a job wherever it currently is — queued
    /// or running on a shard, parked in the front-door retry queue,
    /// or checkpointed mid-evacuation (the cancel token travels
    /// inside the checkpoint, so a cancel racing an evacuation still
    /// lands). The ledger arbitrates: a delivered job is
    /// [`CancelOutcome::AlreadyDone`], an unadmitted id is
    /// [`CancelOutcome::UnknownJob`], anything else resolves to
    /// [`CancelOutcome::Cancelled`] and its response arrives through
    /// [`ShardedService::take_responses`] — never a lost job.
    pub fn cancel_job(&self, job: JobId) -> CancelOutcome {
        let mut front = self.front.lock();
        match front.ledger.get(&job) {
            None => return CancelOutcome::UnknownJob,
            Some(e) if e.terminal => return CancelOutcome::AlreadyDone,
            Some(_) => {}
        }
        // Parked at the front door awaiting a retry? Cancel locally.
        if let Some(pos) = front.retry_queue.iter().position(|&(_, j)| j == job) {
            front.retry_queue.remove(pos);
            self.synthesize_cancel(&mut front, job);
            return CancelOutcome::Cancelled;
        }
        let shard = front.tenants[&front.ledger[&job].tenant].shard;
        match front.slots[shard].live().map(|svc| svc.cancel_job(job)) {
            Some(true) => CancelOutcome::Cancelled,
            Some(false) => {
                // The shard already finished it; the response is in
                // flight to the front door.
                CancelOutcome::AlreadyDone
            }
            None => {
                // The tenant's slot died and the job was never
                // rescued (no healthy shard remained). Resolve it
                // now rather than leaving it in limbo.
                self.synthesize_cancel(&mut front, job);
                CancelOutcome::Cancelled
            }
        }
    }

    /// Deliver a synthesized `Cancelled` response for a job the
    /// front door holds (retry-parked or stranded) and close its
    /// ledger entry.
    fn synthesize_cancel(&self, front: &mut FrontDoor, job: JobId) {
        let entry = front.ledger.get_mut(&job).expect("caller checked");
        let request = entry
            .request
            .take()
            .expect("non-terminal entries keep the request");
        entry.terminal = true;
        let mut response = SolveResponse::cancelled_unstarted(
            job,
            entry.tenant,
            request.session,
            entry.admitted_at.elapsed(),
        );
        response.retries = FrontDoor::retries_of(entry, false);
        front.done.push(response);
    }

    /// Migrate a tenant — scheduler entry, sessions, queued jobs, and
    /// checkpointed in-flight jobs — to `dst`. Atomic under the
    /// front-door lock; safe to call while shard drivers are running
    /// (detach serializes with the source driver's slice boundary).
    /// Returns `false` for unregistered tenants, out-of-range or
    /// non-healthy destinations, or tenants on retired slots; a
    /// self-migration still round-trips through detach/attach
    /// (checkpointing in-flight work) but does not count in
    /// [`ShardedService::migrations`].
    pub fn migrate_tenant(&self, tenant: TenantId, dst: usize) -> bool {
        let mut front = self.front.lock();
        self.migrate_tenant_locked(&mut front, tenant, dst, InFlightRecovery::Resume)
    }

    fn migrate_tenant_locked(
        &self,
        front: &mut FrontDoor,
        tenant: TenantId,
        dst: usize,
        recovery: InFlightRecovery,
    ) -> bool {
        if dst >= front.slots.len() || !front.slots[dst].status.is_healthy() {
            return false;
        }
        let Some(rec) = front.tenants.get(&tenant) else {
            return false;
        };
        let (src, weight) = (rec.shard, rec.weight);
        let Some(mut bundle) = front.slots[src]
            .live()
            .and_then(|svc| svc.detach_tenant(tenant))
        else {
            return false;
        };
        // The record's weight, not the source shard's: a re-weight
        // issued while the tenant was stranded never reached the shard.
        bundle.weight = weight;
        if recovery == InFlightRecovery::Restart {
            bundle.restart_in_flight();
        }
        front.install(dst, bundle);
        if src != dst {
            front.migrations += 1;
        }
        true
    }

    /// Grow the fleet by one freshly spawned shard, then migrate
    /// every tenant whose consistent-hash placement lands on it
    /// (~`1/N` of tenants — the ring guarantee) via graceful
    /// checkpoint migration, and re-home the tenants a crash left
    /// stranded on a killed slot. Returns the new shard's index.
    pub fn add_shard(&self) -> usize {
        let mut front = self.front.lock();
        let idx = self.add_shard_slot(&mut front);
        front.stats.shards_added += 1;
        front.rehome_stranded();
        let movers: Vec<TenantId> = front
            .tenants
            .iter()
            .filter(|&(&t, rec)| {
                rec.shard != idx
                    && front.slots[rec.shard].status.is_healthy()
                    && front.ring_place_healthy(t) == Some(idx)
            })
            .map(|(&t, _)| t)
            .collect();
        for t in movers {
            self.migrate_tenant_locked(&mut front, t, idx, InFlightRecovery::Resume);
        }
        idx
    }

    /// Append a healthy slot (runtime, ring points, health window)
    /// without moving any tenant.
    fn add_shard_slot(&self, front: &mut FrontDoor) -> usize {
        let idx = front.slots.len();
        // The scheduler seed is salted with the slot index.
        let mut cfg = self.cfg.base.clone();
        cfg.seed = splitmix64(cfg.seed ^ ((idx as u64) << 32));
        front.slots.push(ShardSlot {
            svc: Some(Arc::new(ShardEngine::new(cfg))),
            status: ShardStatus::Healthy,
        });
        front.health.push(HealthWindow {
            window_start_round: front.round,
            ..HealthWindow::default()
        });
        for v in 0..VNODES_PER_SHARD {
            let point = splitmix64(((idx as u64) << 20) | v);
            let at = front.ring.partition_point(|&(p, _)| p < point);
            front.ring.insert(at, (point, idx));
        }
        idx
    }

    /// Gracefully retire a shard: evacuate its tenants to their ring
    /// successors (checkpoint migration — in-flight jobs resume
    /// bit-identically), absorb the responses it still holds, drop its
    /// runtime, and remove its ring points. Returns `false` for
    /// out-of-range or already-retired slots, or when residents exist
    /// but no healthy destination remains (the shard is left
    /// untouched).
    pub fn remove_shard(&self, idx: usize) -> bool {
        let mut front = self.front.lock();
        if idx >= front.slots.len() || front.slots[idx].svc.is_none() {
            return false;
        }
        let prev_status = front.slots[idx].status;
        if !matches!(prev_status, ShardStatus::Healthy | ShardStatus::Quarantined) {
            return false;
        }
        // Take the slot out of routing first so successors are computed
        // without it.
        front.slots[idx].status = ShardStatus::Quarantined;
        self.evacuate_residents(&mut front, idx, InFlightRecovery::Resume);
        if !front.residents(idx).is_empty() {
            front.slots[idx].status = prev_status;
            return false;
        }
        // Responses the engine has produced since the last supervision
        // tick leave with it unless they are taken now.
        self.absorb_responses(&mut front);
        front.slots[idx].svc = None;
        front.slots[idx].status = ShardStatus::Removed;
        front.ring.retain(|&(_, s)| s != idx);
        front.stats.shards_removed += 1;
        true
    }

    /// Simulate a shard crash: drop the runtime **without reading
    /// anything from it** — no checkpoints, no response drain — then
    /// recover from front-door state alone. Resident tenants are
    /// re-registered on their ring successors with their sessions
    /// rebuilt from the stashed specs, and every outstanding ledger
    /// job of theirs is resubmitted **from scratch** (full budget, so
    /// the delivered residual history is bit-identical to a fault-free
    /// run). Undelivered responses on the dead shard are lost with
    /// it; resubmission makes delivery exactly-once regardless.
    /// Returns `false` for out-of-range or already-retired slots.
    ///
    /// If no healthy shard remains, affected tenants are stranded:
    /// their placements keep pointing at the dead slot (submits get
    /// [`RejectReason::ShardDegraded`]) and their outstanding jobs
    /// stay in the ledger, cancellable through
    /// [`ShardedService::cancel_job`], until capacity returns —
    /// [`ShardedService::add_shard`] and every supervision tick re-home
    /// them the same way.
    pub fn kill_shard(&self, idx: usize) -> bool {
        let mut front = self.front.lock();
        if idx >= front.slots.len() {
            return false;
        }
        let Some(svc) = front.slots[idx].svc.take() else {
            return false;
        };
        front.slots[idx].status = ShardStatus::Killed;
        front.ring.retain(|&(_, s)| s != idx);
        front.stats.kills += 1;
        // Dropping the runtime joins its workers (in-flight task
        // bodies finish or panic; nothing is read back).
        drop(svc);
        front.rehome_stranded();
        true
    }

    /// Explicitly quarantine a shard and evacuate its tenants, as if
    /// it had blown its health budget. Returns `false` for slots that
    /// are not currently healthy.
    pub fn quarantine_shard(&self, idx: usize) -> bool {
        let mut front = self.front.lock();
        if idx >= front.slots.len() || !front.slots[idx].status.is_healthy() {
            return false;
        }
        self.quarantine(&mut front, idx);
        self.evacuate_residents(&mut front, idx, self.cfg.supervisor.in_flight);
        true
    }

    /// Take a shard off the ring as quarantined; its tenants stay
    /// until [`Self::evacuate_residents`] moves them.
    fn quarantine(&self, front: &mut FrontDoor, idx: usize) {
        front.slots[idx].status = ShardStatus::Quarantined;
        front.ring.retain(|&(_, s)| s != idx);
        front.stats.quarantines += 1;
    }

    /// Move every tenant still placed on an unroutable live slot to its
    /// healthy ring successor. Tenants with no healthy destination
    /// stay put (submits get [`RejectReason::ShardDegraded`]) and are
    /// retried on every later supervision tick, so they recover as
    /// soon as capacity returns (e.g. after an
    /// [`ShardedService::add_shard`]).
    fn evacuate_residents(&self, front: &mut FrontDoor, idx: usize, recovery: InFlightRecovery) {
        for t in front.residents(idx) {
            let Some(dst) = front.ring_place_healthy(t) else {
                continue;
            };
            if self.migrate_tenant_locked(front, t, dst, recovery) {
                front.stats.tenants_evacuated += 1;
            }
        }
    }

    /// One supervision tick: advance the round counter, absorb shard
    /// responses into the ledger (intercepting failures for retry),
    /// evaluate every healthy shard's health window (quarantining and
    /// evacuating budget violators), and release retries whose
    /// backoff expired. [`ShardedService::run_rounds`] and
    /// [`ShardedService::run_until_idle`] call this after every
    /// round; explicit calls are only needed when driving shards
    /// manually.
    pub fn supervise(&self) {
        let mut front = self.front.lock();
        front.round += 1;
        self.absorb_responses(&mut front);
        // Every shard that tripped in this tick leaves the ring before
        // any tenant moves, so none is evacuated onto a shard about to
        // be quarantined too.
        for idx in self.evaluate_health(&mut front) {
            self.quarantine(&mut front, idx);
        }
        // Evacuate every quarantined slot: those that just tripped, and
        // those whose earlier evacuations found no healthy destination
        // (capacity may have returned since) — checkpoint migration off
        // a quarantined slot, a rebuild from the ledger off a killed
        // one.
        for idx in 0..front.slots.len() {
            if front.slots[idx].status == ShardStatus::Quarantined
                && front.slots[idx].svc.is_some()
            {
                self.evacuate_residents(&mut front, idx, self.cfg.supervisor.in_flight);
            }
        }
        front.rehome_stranded();
        self.release_due_retries(&mut front);
    }

    /// Drain every live shard's responses into the front door,
    /// closing ledger entries. Failed attempts are intercepted for
    /// retry (never delivered) while budget remains; the retry budget
    /// exhausting converts the last failure into
    /// [`JobOutcome::RetryExhausted`].
    fn absorb_responses(&self, front: &mut FrontDoor) {
        let retry: RetryPolicy = self.cfg.supervisor.retry;
        for idx in 0..front.slots.len() {
            let Some(svc) = front.slots[idx].live().cloned() else {
                continue;
            };
            for mut r in svc.take_responses() {
                let entry = front
                    .ledger
                    .get_mut(&r.job)
                    .expect("shards only run jobs the front door ledgered");
                if entry.terminal {
                    // A stale attempt finishing after its job was
                    // already resolved (e.g. cancelled while parked
                    // for retry). Exactly-once delivery: drop it.
                    continue;
                }
                let failed = matches!(r.outcome, JobOutcome::Failed { .. });
                let mut exhausted = false;
                if failed && retry.max_attempts > 0 {
                    entry.attempts += 1;
                    if entry.attempts <= retry.max_attempts {
                        let shift = u32::min(entry.attempts - 1, 32);
                        let backoff = retry.base_backoff_rounds.max(1) << shift;
                        front.retry_queue.push((front.round + backoff, r.job));
                        front.stats.retries_scheduled += 1;
                        continue;
                    }
                    let message = match r.outcome {
                        JobOutcome::Failed { message } => message,
                        _ => unreachable!("checked failed above"),
                    };
                    r.outcome = JobOutcome::RetryExhausted {
                        attempts: entry.attempts,
                        message,
                    };
                    front.stats.retries_exhausted += 1;
                    exhausted = true;
                }
                r.retries = FrontDoor::retries_of(entry, exhausted);
                entry.terminal = true;
                entry.request = None;
                front.done.push(r);
            }
        }
    }

    /// Compare every healthy shard's window deltas against the
    /// budget; returns the indices that tripped. Windows that
    /// completed `window_rounds` rounds rebaseline.
    fn evaluate_health(&self, front: &mut FrontDoor) -> Vec<usize> {
        let budget: HealthBudget = self.cfg.supervisor.budget;
        let mut tripped = Vec::new();
        for idx in 0..front.slots.len() {
            if !front.slots[idx].status.is_healthy() {
                continue;
            }
            let Some(svc) = front.slots[idx].live().cloned() else {
                continue;
            };
            let report = Self::window_report(&svc, &front.health[idx]);
            if budget.verdict(&report).is_some() {
                tripped.push(idx);
            }
            if front.round
                >= front.health[idx].window_start_round + budget.window_rounds.max(1)
            {
                let snap = svc.runtime().metrics();
                front.health[idx] = HealthWindow {
                    window_start_round: front.round,
                    base_task_failures: snap.task_failures,
                    base_tasks_poisoned: snap.tasks_poisoned,
                    base_tasks_stalled: snap.tasks_stalled,
                    base_faults_injected: snap.faults_injected,
                };
            }
        }
        tripped
    }

    /// Requeue retry jobs whose backoff round arrived, in job-id
    /// order, on their tenant's *current* shard (which may differ
    /// from where they failed, after an evacuation). That shard may be
    /// a quarantined one the tenant could not be evacuated from: it
    /// still drains the tenant's queued and in-flight jobs, and the
    /// retry joins them there. Withheld, the retry would be the one
    /// admitted job a fleet with no healthy shard left never delivers.
    /// A due retry whose tenant is stranded on a dead slot stays
    /// parked, cancellable, and is released by the first tick after
    /// the tenant has been re-homed.
    fn release_due_retries(&self, front: &mut FrontDoor) {
        let round = front.round;
        let parked = std::mem::take(&mut front.retry_queue);
        let (mut due, waiting): (Vec<_>, Vec<_>) = parked
            .into_iter()
            .partition(|&(ready, job)| ready <= round && front.live_home(job).is_some());
        front.retry_queue = waiting;
        due.sort_unstable_by_key(|&(_, job)| job);
        for (_, job) in due {
            let entry = &front.ledger[&job];
            if entry.terminal {
                continue;
            }
            let shard = front.live_home(job).expect("partitioned above");
            let mut bundle = front.bundle(entry.tenant);
            bundle.queued.push(front.requeue(job));
            front.install(shard, bundle);
        }
    }

    /// Every live shard engine (healthy or quarantined-but-draining).
    fn live_shards(&self) -> Vec<Arc<ShardEngine>> {
        let front = self.front.lock();
        front.slots.iter().filter_map(|s| s.live()).cloned().collect()
    }

    /// One scheduling round: `drive` every shard that has work, each
    /// on its own thread, then run a supervision tick. Returns `false`, having done nothing, once the whole
    /// fleet is idle *and* no retry that a tick could release is
    /// waiting out its backoff.
    ///
    /// The driver threads are joined by handle, not left to the scope:
    /// a scope returns when its count of *running* threads reaches
    /// zero, which is before the OS threads have exited, so on a busy
    /// CPU the dying drivers of one round are still alive when the
    /// next round spawns. Each of them holds a malloc arena that is
    /// therefore not free for reuse, the new drivers get new arenas,
    /// and the process's resident size climbs round over round
    /// (EXPERIMENTS.md, "What a wait costs"). `join` waits for the
    /// thread itself.
    fn round(&self, drive: impl Fn(&ShardEngine) + Sync) -> bool {
        let mut busy = self.live_shards();
        busy.retain(|svc| svc.has_work());
        if busy.is_empty() && !self.front.lock().retry_releasable() {
            return false;
        }
        std::thread::scope(|scope| {
            let drive = &drive;
            let drivers: Vec<_> = busy
                .iter()
                .map(|svc| scope.spawn(move || drive(svc)))
                .collect();
            for driver in drivers {
                if let Err(panic) = driver.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
        self.supervise();
        true
    }

    /// Drive every shard to completion, round after round (one driver
    /// thread per shard with work, then a supervision tick), until the
    /// fleet is idle. With the supervisor passive a single round
    /// suffices; with it active, later rounds drain evacuated and
    /// retried work.
    pub fn run_until_idle(&self) {
        while self.round(|svc| svc.run_until_idle()) {}
    }

    /// Drive at most `rounds` rounds of `slices_per_shard` scheduler
    /// slices on every shard with work (in parallel), with a
    /// supervision tick between rounds. Stops early when the fleet
    /// goes idle with no retries pending; returns the rounds actually
    /// run. This is the incremental flavor of
    /// [`ShardedService::run_until_idle`], giving the health model a
    /// deterministic cadence.
    pub fn run_rounds(&self, rounds: usize, slices_per_shard: usize) -> usize {
        let drive = |svc: &ShardEngine| {
            svc.run_slices(slices_per_shard);
        };
        (0..rounds).take_while(|_| self.round(drive)).count()
    }

    /// Completed responses accumulated since the last call: absorbed
    /// shard by shard in slot order (deterministic for a
    /// deterministic schedule), with failed attempts already
    /// intercepted by the retry policy and `retries` stamped from the
    /// ledger.
    pub fn take_responses(&self) -> Vec<SolveResponse> {
        let mut front = self.front.lock();
        self.absorb_responses(&mut front);
        std::mem::take(&mut front.done)
    }

    /// Per-tenant metrics merged across live shards: a migrated
    /// tenant's counters accumulate on every shard it visited and sum
    /// here. (A killed shard's unmerged counters die with it — crash
    /// semantics.)
    pub fn metrics(&self) -> BTreeMap<TenantId, TenantMetrics> {
        let mut merged: BTreeMap<TenantId, TenantMetrics> = BTreeMap::new();
        for shard in self.live_shards() {
            for (tenant, m) in shard.metrics() {
                merged.entry(tenant).or_default().merge(&m);
            }
        }
        merged
    }

    /// Per-slot load signals (index = slot; retired slots report the
    /// default all-zero load).
    pub fn loads(&self) -> Vec<ShardLoad> {
        let front = self.front.lock();
        front
            .slots
            .iter()
            .map(|s| s.live().map(|svc| svc.load()).unwrap_or_default())
            .collect()
    }

    /// Tenant-tagged Chrome trace JSON merged across live shards: one
    /// Perfetto process per tenant (spans concatenated from every
    /// shard the tenant ran on), with fleet-wide reduction counters
    /// and degradation counters (`task_failures`, `tasks_poisoned`,
    /// `tasks_stalled`, `faults_injected`) summed over shard runtimes
    /// as Perfetto counter tracks. Meaningful only with
    /// [`ServiceConfig::capture_events`] on in the base config.
    pub fn chrome_trace(&self) -> String {
        let shards = self.live_shards();
        let mut per_tenant: BTreeMap<TenantId, Vec<TaskSpan>> = BTreeMap::new();
        for shard in &shards {
            for (tenant, spans) in shard.span_groups() {
                per_tenant.entry(tenant).or_default().extend(spans);
            }
        }
        let groups: Vec<(String, Vec<TaskSpan>)> = per_tenant
            .into_iter()
            .map(|(t, spans)| (format!("tenant-{t}"), spans))
            .collect();
        let snaps: Vec<MetricsSnapshot> = shards.iter().map(|s| s.runtime().metrics()).collect();
        let total = |f: fn(&MetricsSnapshot) -> u64| snaps.iter().map(f).sum::<u64>() as f64;
        let tenants = self.metrics();
        let tenant_total = |f: fn(&TenantMetrics) -> u64| tenants.values().map(f).sum::<u64>();
        let err_sum: f64 = tenants.values().map(|m| m.prediction_err_pct_sum).sum();
        let err_n = tenant_total(|m| m.prediction_samples);
        let counters = [
            ("reduction_stages", total(|s| s.reduction_stages)),
            ("reduction_stall_ms", total(|s| s.reduction_stall_ns) / 1.0e6),
            ("task_failures", total(|s| s.task_failures)),
            ("tasks_poisoned", total(|s| s.tasks_poisoned)),
            ("tasks_stalled", total(|s| s.tasks_stalled)),
            ("faults_injected", total(|s| s.faults_injected)),
            ("catalogue_hits", tenant_total(|m| m.catalogue_hits) as f64),
            ("catalogue_misses", tenant_total(|m| m.catalogue_misses) as f64),
            (
                "prediction_error_pct",
                if err_n > 0 { err_sum / err_n as f64 } else { 0.0 },
            ),
        ];
        kdr_runtime::chrome_trace_json_with_counters(&groups, &counters)
    }

    /// Persist the fleet's durable state to `path` as one bundle: the
    /// shared cost catalogue (every shard refines the same
    /// [`SharedCatalogue`] from `base.catalogue`), every registered
    /// tenant at its front-door weight, and every session — operator,
    /// solver, piece count from the front-door record, plus what its
    /// live shard knows of it: how warm it is. A session stranded on a
    /// killed or removed shard is exported *cold* — its warm plan died
    /// with the shard, which is exactly crash semantics. Queued and in-flight
    /// jobs are *not* persisted: requests are transient, and a
    /// restarted service re-runs them bitwise-identically anyway. The
    /// write is atomic (temp file + rename).
    pub fn save_store(&self, path: &Path) -> Result<(), StoreError> {
        let front = self.front.lock();
        let warmth: BTreeMap<SessionId, SessionWarmth> = front
            .slots
            .iter()
            .filter_map(|slot| slot.live())
            .flat_map(|svc| svc.session_warmth())
            .collect();
        let mut sessions: Vec<StoreSession> = Vec::new();
        let mut tenants = Vec::with_capacity(front.tenants.len());
        for (&tenant, rec) in &front.tenants {
            tenants.push(StoreTenant {
                tenant: u64::from(tenant),
                weight: u32::try_from(rec.weight).unwrap_or(u32::MAX),
            });
            for (&id, spec) in &rec.sessions {
                let (jobs, steps) = warmth.get(&id).copied().unwrap_or_default();
                sessions.push(persist::session_to_store(id, tenant, spec, jobs, steps));
            }
        }
        sessions.sort_by_key(|s| s.session);
        let bundle = StoreBundle {
            catalogue: self
                .cfg
                .base
                .catalogue
                .as_ref()
                .map(|c| c.export())
                .unwrap_or_default(),
            tenants,
            sessions,
        };
        drop(front);
        kdr_store::store::save(path, &bundle)
    }

    /// Rebuild a fleet from a store written by
    /// [`ShardedService::save_store`]. The catalogue re-seeds into
    /// `cfg.base.catalogue` (merged if the caller supplies one, fresh
    /// otherwise) and is shared by every shard; tenants come back at
    /// their saved weights and are re-placed on the consistent-hash
    /// ring (the same shard when the shard count is unchanged); sessions rebuild
    /// on their owner's shard, each tile lowered to the kernel its
    /// structure selects, and every session that was warm at save time
    /// is pre-warmed — its iteration trace captured — so the first
    /// real job lands on the warm path. Corrupted, truncated, or
    /// semantically invalid stores fail with a typed [`StoreError`],
    /// never a panic.
    pub fn open_store(path: &Path, mut cfg: ShardConfig) -> Result<ShardedService, StoreError> {
        let stored = kdr_store::store::load(path)?;
        let catalogue = cfg
            .base
            .catalogue
            .take()
            .unwrap_or_else(|| SharedCatalogue::new(MachineConfig::lassen(1)));
        for &(key, samples, mean) in &stored.catalogue {
            catalogue.insert_entry(key, samples, mean);
        }
        cfg.base.catalogue = Some(catalogue);
        let svc = ShardedService::new(cfg);
        let malformed = |what: &'static str| StoreError::Malformed { offset: 0, what };
        {
            let mut front = svc.front.lock();
            let mut bundles: BTreeMap<TenantId, TenantBundle> = BTreeMap::new();
            for t in &stored.tenants {
                let tenant = TenantId::try_from(t.tenant)
                    .map_err(|_| malformed("tenant id out of range"))?;
                let rec = TenantRecord {
                    shard: front
                        .ring_place_healthy(tenant)
                        .expect("a fresh fleet has a healthy shard"),
                    weight: u64::from(t.weight).max(1),
                    sessions: BTreeMap::new(),
                };
                front.tenants.insert(tenant, rec);
                bundles.insert(tenant, front.bundle(tenant));
            }
            let mut sessions: Vec<&StoreSession> = stored.sessions.iter().collect();
            sessions.sort_by_key(|s| s.session);
            for s in sessions {
                let id = SessionId::try_from(s.session)
                    .map_err(|_| malformed("session id out of range"))?;
                let tenant = TenantId::try_from(s.tenant)
                    .map_err(|_| malformed("tenant id out of range"))?;
                let (Some(rec), Some(bundle)) =
                    (front.tenants.get_mut(&tenant), bundles.get_mut(&tenant))
                else {
                    return Err(malformed("session references an unregistered tenant"));
                };
                let spec = persist::spec_from_store(s)?;
                rec.sessions.insert(id, spec.clone());
                bundle.sessions.push(BundleSession {
                    id,
                    spec,
                    prewarm: s.jobs_completed > 0,
                });
                front.next_session = front.next_session.max(id.saturating_add(1));
            }
            for (tenant, bundle) in bundles {
                let shard = front.tenants[&tenant].shard;
                front.install(shard, bundle);
            }
        }
        Ok(svc)
    }
}
