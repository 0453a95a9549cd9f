//! The shard engine: one runtime, the tenants placed on it.
//!
//! A [`ShardEngine`] is one shard of a [`ShardedService`]: a worker
//! pool, a fair scheduler, an admission queue and the plan-cached
//! [`Session`]s of its resident tenants. Clients never talk to it —
//! tenants, sessions and jobs reach it through the front door, as
//! per-tenant bundles handed to `attach_tenant` and jobs handed to
//! `submit` — so what it offers publicly is *drive and observe*.
//!
//! A single *driver* (any thread calling
//! [`ShardEngine::run_until_idle`] or [`ShardEngine::run_slices`])
//! executes admitted jobs by time-slicing the worker pool across
//! tenants at iteration granularity: each scheduler pick runs at most
//! `slice_iters` iterations of one tenant's job — calls of its
//! [`StepDriver::step`], the loop a blocking solve runs — attributes
//! the slice's runtime spans and counter deltas to the tenant, and
//! yields back to the scheduler (fencing at the boundary only when
//! [`ServiceConfig::capture_events`] asks for it). Parallelism lives *inside* a slice (the runtime's workers
//! execute each iteration's task DAG concurrently); determinism across
//! runs comes from the single driver plus the seeded stride scheduler.
//!
//! [`ShardedService`]: crate::ShardedService

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use kdr_core::{CancelToken, SolveError, SolveTrace, Solver, StepDriver};
use kdr_runtime::{Runtime, TaskSpan};
use kdr_store::{CatalogueKey, SharedCatalogue};

use crate::metrics::{ServiceMetrics, TenantMetrics};
use crate::queue::{AdmissionQueue, QueuedJob};
use crate::request::{
    JobId, JobOutcome, RejectReason, SessionId, SolveRequest, SolveResponse, TenantId,
};
use crate::scheduler::FairScheduler;
use crate::session::{Session, SessionSpec};

/// Iteration horizon for admission-time cost prediction: a deadline
/// screen should reflect the work needed to produce a useful answer,
/// not a request's (often deliberately generous) full iteration cap,
/// so predictions assume at most this many iterations per RHS.
const ADMIT_ITER_HORIZON: usize = 32;

/// Service construction knobs.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads in the shared runtime pool.
    pub workers: usize,
    /// Admission queue bound (backpressure past this).
    pub queue_capacity: usize,
    /// Iterations per scheduler slice (the fair-share quantum).
    pub slice_iters: usize,
    /// Scheduler tie-break seed: same seed + same submission sequence
    /// → same schedule.
    pub seed: u64,
    /// Record runtime task spans and attribute them per tenant (for
    /// [`ShardedService::chrome_trace`](crate::ShardedService::chrome_trace)),
    /// and fence the runtime at every slice boundary. Costs one atomic
    /// per task.
    ///
    /// **Off by default**: the boundary then only reschedules —
    /// in-flight tasks, including overlapped reductions issued by the
    /// pipelined solvers, keep draining while the next tenant's slice
    /// runs, so pipelined CG/CR keep their communication/computation
    /// overlap across tenant switches. The price is that per-tenant
    /// *counter-delta* attribution is approximate: tasks still in
    /// flight at the boundary retire under a later (possibly
    /// other-tenant) slice. Totals across tenants are exact either
    /// way. **On**, every slice quiesces the runtime before its spans
    /// and counter deltas are read, so each tenant's counters are its
    /// own.
    pub capture_events: bool,
    /// Arm the runtime watchdog: a task body running longer than this
    /// budget counts one `tasks_stalled` trip (surfaced per tenant in
    /// [`TenantMetrics::tasks_stalled`] and read by the sharded
    /// supervisor's health model). `None` (the default) keeps the
    /// watchdog off. Wall-clock based — trips are diagnostic, never
    /// part of a determinism contract.
    ///
    /// [`TenantMetrics::tasks_stalled`]: crate::TenantMetrics::tasks_stalled
    pub stall_budget: Option<Duration>,
    /// Shared cost catalogue. `None` (the default) runs exactly the
    /// pre-catalogue service. When set, the service (a) screens
    /// admission deadlines with predicted job costs — including a
    /// cold tenant's very first job, (b) refines the catalogue online
    /// from the wall time of every scheduler slice, each of a
    /// session's tiles taking an equal share of a measured iteration,
    /// and (c) counts catalogue hits/misses and prediction error in
    /// the metrics. It never picks a tile's kernel: the tile's
    /// structure does. Cloning a [`SharedCatalogue`] shares it, so the
    /// shards of a sharded service all refine one catalogue.
    pub catalogue: Option<SharedCatalogue>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 256,
            slice_iters: 8,
            seed: 0,
            capture_events: false,
            stall_budget: None,
            catalogue: None,
        }
    }
}

/// A job being time-sliced right now (at most one per tenant; later
/// jobs of the same tenant wait in the admission queue behind it).
struct ActiveJob {
    job: JobId,
    tenant: TenantId,
    session: SessionId,
    request: Arc<SolveRequest>,
    token: CancelToken,
    /// Admission-time catalogue prediction of this job's service
    /// seconds (compared to the observed turnaround at completion).
    predicted_seconds: Option<f64>,
    /// Index of the RHS currently being solved.
    rhs_idx: usize,
    /// Driver + solver for the in-flight RHS (`None` between RHS).
    driver: Option<StepDriver>,
    solver: Option<Box<dyn Solver<f64>>>,
    ws_mark: usize,
    iterations: u64,
    /// Iterations consumed on the *current* RHS by drivers dropped in
    /// a migration; the remaining budget is `max_iters - rhs_done`.
    rhs_done: usize,
    /// Checkpointed iterate to restore on the next activation
    /// (present exactly when the job was detached mid-RHS).
    resume_sol: Option<Vec<Vec<f64>>>,
    migrations: u32,
    /// Residual-history recorder, present when the request asked for
    /// it.
    trace: Option<SolveTrace>,
    submitted_at: Instant,
    started_at: Option<Instant>,
    ttfi: Option<Duration>,
    warm: bool,
    last_residual: f64,
}

/// One session of a [`TenantBundle`].
pub(crate) struct BundleSession {
    pub(crate) id: SessionId,
    pub(crate) spec: SessionSpec,
    /// Capture the iteration trace at install time, so the session's
    /// first real job is warm.
    pub(crate) prewarm: bool,
}

impl BundleSession {
    /// A session built from its spec alone, cold until its first job.
    pub(crate) fn cold(id: SessionId, spec: SessionSpec) -> Self {
        BundleSession {
            id,
            spec,
            prewarm: false,
        }
    }
}

/// What only its shard knows about a session: jobs completed and
/// steps captured.
pub(crate) type SessionWarmth = (u64, u64);

/// Everything of one tenant that reaches a shard in one step:
/// fair-share weight, sessions to build, queued jobs, and in-flight
/// jobs checkpointed at their current iterate (driver and solver
/// dropped, `resume_sol` holding the `SOL` snapshot). The front door
/// builds one from a live [`ShardEngine::detach_tenant`], from its own
/// tenant record and job ledger, or from a store file;
/// [`ShardEngine::attach_tenant`] is the only consumer. A bundle must
/// be attached exactly once or its jobs are lost.
pub(crate) struct TenantBundle {
    pub(crate) tenant: TenantId,
    pub(crate) weight: u64,
    pub(crate) sessions: Vec<BundleSession>,
    pub(crate) queued: Vec<QueuedJob>,
    in_flight: Vec<ActiveJob>,
}

impl TenantBundle {
    /// A bundle that only (re-)registers the tenant at `weight`.
    pub(crate) fn new(tenant: TenantId, weight: u64) -> Self {
        TenantBundle {
            tenant,
            weight,
            sessions: Vec::new(),
            queued: Vec::new(),
            in_flight: Vec::new(),
        }
    }

    /// Downgrade every checkpointed in-flight job to a queued job
    /// restarting **from scratch**: the checkpointed iterate is
    /// discarded and the full iteration budget restored, so the
    /// reattached job's residual history is bit-identical to a run
    /// that never started. This is the crash-safe recovery mode
    /// ([`InFlightRecovery::Restart`]): a checkpoint taken on a shard
    /// that was quarantined for data corruption cannot be trusted,
    /// and a from-scratch rerun can — every kernel is bitwise
    /// deterministic. Queue order is restored to global submission
    /// order (job ids are allocated in submission order).
    ///
    /// [`InFlightRecovery::Restart`]: crate::supervision::InFlightRecovery::Restart
    pub(crate) fn restart_in_flight(&mut self) {
        for a in self.in_flight.drain(..) {
            self.queued.push(QueuedJob {
                job: a.job,
                tenant: a.tenant,
                request: a.request,
                submitted_at: a.submitted_at,
                predicted_seconds: None,
            });
        }
        self.queued.sort_by_key(|q| q.job);
    }
}

/// A shard's instantaneous load signal, as
/// [`ShardedService::loads`](crate::ShardedService::loads) reports it.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardLoad {
    /// Jobs admitted but not yet started.
    pub queued: usize,
    /// Jobs currently being time-sliced.
    pub active: usize,
    /// EWMA of observed job turnaround seconds on this shard (`0.0`
    /// until the first completion).
    pub ewma_job_seconds: f64,
}

impl ShardLoad {
    /// Outstanding jobs (queued + active).
    pub fn depth(&self) -> usize {
        self.queued + self.active
    }
}

struct EngineState {
    queue: AdmissionQueue,
    scheduler: FairScheduler,
    sessions: BTreeMap<SessionId, Session>,
    active: Vec<ActiveJob>,
    responses: Vec<SolveResponse>,
    metrics: ServiceMetrics,
}

/// One shard of a [`ShardedService`](crate::ShardedService): a
/// runtime and the tenants placed on it. Reached through
/// [`ShardedService::shard`](crate::ShardedService::shard) to drive a
/// shard by hand, arm fault injection on its runtime, or read its
/// per-shard counters.
pub struct ShardEngine {
    rt: Arc<Runtime>,
    cfg: ServiceConfig,
    state: Mutex<EngineState>,
}

impl ShardEngine {
    /// Spin up the shard's runtime with no tenants on it.
    pub(crate) fn new(cfg: ServiceConfig) -> Self {
        let rt = Arc::new(Runtime::new(cfg.workers.max(1)));
        if cfg.capture_events {
            rt.enable_events(true);
        }
        if let Some(budget) = cfg.stall_budget {
            rt.set_stall_budget(Some(budget));
        }
        ShardEngine {
            rt,
            state: Mutex::new(EngineState {
                queue: AdmissionQueue::new(cfg.queue_capacity),
                scheduler: FairScheduler::new(cfg.seed),
                sessions: BTreeMap::new(),
                active: Vec::new(),
                responses: Vec::new(),
                metrics: ServiceMetrics::default(),
            }),
            cfg,
        }
    }

    /// The shard's runtime (e.g. to arm fault injection in tests).
    pub fn runtime(&self) -> Arc<Runtime> {
        Arc::clone(&self.rt)
    }

    /// The weight the scheduler strides a tenant at: the weight the
    /// front door registered it with. `None` for a tenant that does
    /// not live on this shard.
    pub fn effective_weight(&self, tenant: TenantId) -> Option<u64> {
        self.state.lock().scheduler.weight(tenant)
    }

    /// Admit a job the front door routed here (it has checked that
    /// the tenant lives on this shard and owns the session) or reject
    /// it with a typed reason ([`RejectReason::QueueFull`] /
    /// [`RejectReason::DeadlineUnmeetable`] are the backpressure
    /// signals). `now` is the admission instant the front door keeps
    /// in its ledger.
    pub(crate) fn submit(
        &self,
        job: JobId,
        tenant: TenantId,
        request: Arc<SolveRequest>,
        now: Instant,
    ) -> Result<(), RejectReason> {
        let st = &mut *self.state.lock();
        let sess = st
            .sessions
            .get(&request.session)
            .expect("the front door routes a job to the shard holding its session");
        let expected = sess.unknowns();
        let admitted = if request.rhs_batch.is_empty() {
            Err(RejectReason::EmptyBatch)
        } else if let Some(bad) = request
            .rhs_batch
            .iter()
            .find(|r| r.len() as u64 != expected)
        {
            Err(RejectReason::BadRhsLength {
                expected,
                got: bad.len(),
            })
        } else {
            let predicted = self
                .cfg
                .catalogue
                .as_ref()
                .map(|cat| predict_job_seconds(cat, sess.catalogue_keys(), &request));
            st.queue
                .try_admit(job, tenant, request, now, predicted.map(|(seconds, _)| seconds))
                .map(|()| predicted)
        };
        let m = st.metrics.tenant_mut(tenant);
        match admitted {
            Ok(predicted) => {
                // Hit/miss accounting covers *admitted* jobs only, so
                // `catalogue_hits + catalogue_misses` reconciles with
                // the admitted-job count.
                if let Some((_, observed)) = predicted {
                    if observed {
                        m.catalogue_hits += 1;
                    } else {
                        m.catalogue_misses += 1;
                    }
                }
                Ok(())
            }
            Err(e) => {
                m.jobs_rejected += 1;
                Err(e)
            }
        }
    }

    /// Cooperatively cancel a job if it is queued or running here. A
    /// queued job completes immediately with
    /// [`JobOutcome::Cancelled`]; a running job stops at its next
    /// iteration boundary. `false` means the job is not on this shard
    /// any more (it finished; the front door's ledger says whether
    /// its response was delivered).
    pub(crate) fn cancel_job(&self, job: JobId) -> bool {
        let mut st = self.state.lock();
        if let Some(q) = st.queue.remove_job(job) {
            st.responses.push(SolveResponse::cancelled_unstarted(
                job,
                q.tenant,
                q.request.session,
                q.submitted_at.elapsed(),
            ));
            return true;
        }
        match st.active.iter().find(|a| a.job == job) {
            Some(a) => {
                a.token.cancel();
                true
            }
            None => false,
        }
    }

    /// Completed responses accumulated since the last call.
    pub(crate) fn take_responses(&self) -> Vec<SolveResponse> {
        std::mem::take(&mut self.state.lock().responses)
    }

    /// Per-tenant metrics slices of the work done on this shard.
    pub fn metrics(&self) -> BTreeMap<TenantId, TenantMetrics> {
        self.state.lock().metrics.all()
    }

    /// Scheduler slices granted to a tenant so far.
    pub fn slices(&self, tenant: TenantId) -> u64 {
        self.state.lock().scheduler.slices(tenant)
    }

    /// Whether any job is queued or in flight.
    pub(crate) fn has_work(&self) -> bool {
        let st = self.state.lock();
        !st.queue.is_empty() || !st.active.is_empty()
    }

    /// Age of the oldest queued job (`None` when the queue is empty).
    /// The shard supervisor's queue-staleness health signal.
    pub(crate) fn oldest_queue_wait(&self) -> Option<Duration> {
        self.state.lock().queue.oldest_wait(Instant::now())
    }

    /// This shard's instantaneous load signal (queue depth, active
    /// jobs, turnaround EWMA).
    pub(crate) fn load(&self) -> ShardLoad {
        let st = self.state.lock();
        ShardLoad {
            queued: st.queue.len(),
            active: st.active.len(),
            ewma_job_seconds: st.queue.ewma_job_seconds(),
        }
    }

    /// Every tenant's retained task spans, cloned out (the fleet's
    /// `chrome_trace` merges these across shards).
    pub fn span_groups(&self) -> Vec<(TenantId, Vec<TaskSpan>)> {
        self.state.lock().metrics.span_groups()
    }

    /// Detach a tenant: its scheduler entry, sessions (reduced to
    /// rebuildable specs — the cached plan stays behind), queued
    /// jobs, and in-flight jobs checkpointed at their current iterate
    /// (`SOL` snapshot after a fence, the same checkpoint
    /// [`kdr_core::solve_recoverable`] takes). `None` if the tenant
    /// does not live here; otherwise it stops existing on this shard.
    pub(crate) fn detach_tenant(&self, tenant: TenantId) -> Option<TenantBundle> {
        let st = &mut *self.state.lock();
        let weight = st.scheduler.unregister(tenant)?;
        let mut bundle = TenantBundle::new(tenant, weight);
        bundle.queued = st.queue.remove_tenant(tenant);
        let (mine, others) = std::mem::take(&mut st.active)
            .into_iter()
            .partition(|a| a.tenant == tenant);
        st.active = others;
        bundle.in_flight = mine;
        for a in &mut bundle.in_flight {
            // Checkpoint a mid-RHS job at its current iterate. The
            // fence inside snapshot_sol drains the job's in-flight
            // tasks first; a between-RHS job has nothing to snapshot
            // (the next RHS starts from zero anyway, or from the
            // checkpoint it was attached with).
            if let Some(d) = a.driver.take() {
                let sess = st
                    .sessions
                    .get_mut(&a.session)
                    .expect("active job references a live session");
                a.resume_sol = Some(sess.snapshot_sol());
                a.rhs_done += d.iters();
            }
            // The solver goes *before* the session: its
            // deferred-scalar handles release arena slots into the
            // still-live backend.
            a.solver = None;
            a.predicted_seconds = None;
            a.migrations += 1;
        }
        let ids: Vec<SessionId> = st
            .sessions
            .iter()
            .filter(|(_, s)| s.tenant() == tenant)
            .map(|(&id, _)| id)
            .collect();
        for id in ids {
            let sess = st.sessions.remove(&id).expect("collected above");
            bundle
                .sessions
                .push(BundleSession::cold(id, sess.spec().clone()));
        }
        Some(bundle)
    }

    /// The one way anything of a tenant reaches this shard: register
    /// it in the fair scheduler at the bundle's weight (a new tenant
    /// joins at minimum pass, the late-joiner rule; a resident one is
    /// re-weighted in place), build the bundle's sessions over this
    /// shard's runtime — pre-warming where the bundle says so —
    /// restore its queued jobs (capacity-exempt: they were admitted
    /// once), and take over its checkpointed in-flight jobs. Each of
    /// those rebuilds its solver from the checkpointed iterate on
    /// first activation — restart semantics, identical to a local
    /// checkpoint/restart at the same iteration.
    pub(crate) fn attach_tenant(&self, bundle: TenantBundle) {
        // Sessions are built — their plans finalized, their tiles
        // lowered — outside the state lock: construction and
        // pre-warming touch only this shard's runtime handles.
        let sessions: Vec<(SessionId, Session)> = bundle
            .sessions
            .into_iter()
            .map(|s| {
                let mut sess = Session::new(Arc::clone(&self.rt), bundle.tenant, s.spec);
                if s.prewarm {
                    prewarm_session(&mut sess);
                }
                (s.id, sess)
            })
            .collect();
        let mut st = self.state.lock();
        st.scheduler.register(bundle.tenant, bundle.weight);
        st.sessions.extend(sessions);
        st.active.extend(bundle.in_flight);
        for q in bundle.queued {
            st.queue.restore(q);
        }
    }

    /// Every session's [`SessionWarmth`], for the durable store.
    pub(crate) fn session_warmth(&self) -> Vec<(SessionId, SessionWarmth)> {
        let mut st = self.state.lock();
        st.sessions
            .iter_mut()
            .map(|(&id, sess)| (id, (sess.jobs_completed(), sess.steps_captured())))
            .collect()
    }

    /// Drive admitted work to completion: loop { pick tenant, run
    /// one slice } until no tenant has queued or active work. The
    /// calling thread is the driver; concurrent callers serialize on
    /// the service lock slice-by-slice.
    pub fn run_until_idle(&self) {
        while self.run_one_slice() {}
    }

    /// Drive at most `n` scheduler slices, stopping early if the
    /// service goes idle. Returns the slices actually run. Lets
    /// callers observe fair-share progress at a deterministic
    /// mid-run point instead of sampling on a timer.
    pub fn run_slices(&self, n: usize) -> usize {
        for k in 0..n {
            if !self.run_one_slice() {
                return k;
            }
        }
        n
    }

    /// One scheduling quantum: pick a runnable tenant and run its
    /// slice. Returns false when no tenant has queued or active
    /// work.
    fn run_one_slice(&self) -> bool {
        let mut st = self.state.lock();
        // Runnable: tenants with an active job, plus tenants with
        // queued work (one active job per tenant keeps per-tenant
        // FIFO order; extra queued jobs wait).
        let mut runnable: Vec<TenantId> = st.active.iter().map(|a| a.tenant).collect();
        for t in st.queue.tenants_with_work() {
            if !runnable.contains(&t) {
                runnable.push(t);
            }
        }
        runnable.sort_unstable();
        let Some(tenant) = st.scheduler.pick(&runnable) else {
            return false;
        };
        self.run_slice(&mut st, tenant);
        // The lock drops between slices: submitters and cancellers
        // interleave at slice granularity.
        true
    }

    /// Run one scheduling quantum for a tenant: find (or admit) its
    /// active job, step it, then attribute the slice.
    fn run_slice(&self, st: &mut EngineState, tenant: TenantId) {
        let slice_start = Instant::now();
        let before = self.rt.metrics();
        st.metrics.tenant_mut(tenant).slices += 1;

        let idx = match st.active.iter().position(|a| a.tenant == tenant) {
            Some(i) => i,
            None => {
                let Some(q) = st.queue.pop_for_tenant(tenant) else {
                    return; // nothing active, nothing queued
                };
                let token = match q.request.control.cancel_token.clone() {
                    Some(t) => t,
                    None => match q.request.deadline {
                        Some(d) => CancelToken::with_deadline(d),
                        None => CancelToken::new(),
                    },
                };
                let warm = st.sessions[&q.request.session].warm();
                let trace = q.request.capture_history.then(SolveTrace::new);
                st.active.push(ActiveJob {
                    job: q.job,
                    tenant: q.tenant,
                    session: q.request.session,
                    token,
                    predicted_seconds: q.predicted_seconds,
                    rhs_idx: 0,
                    driver: None,
                    solver: None,
                    ws_mark: 0,
                    iterations: 0,
                    rhs_done: 0,
                    resume_sol: None,
                    migrations: 0,
                    trace,
                    submitted_at: q.submitted_at,
                    started_at: None,
                    ttfi: None,
                    warm,
                    last_residual: f64::NAN,
                    request: q.request,
                });
                st.active.len() - 1
            }
        };

        let slice_session = st.active[idx].session;
        let (iters_run, finished) = Self::step_slice(
            &mut st.active[idx],
            &mut st.sessions,
            self.cfg.slice_iters.max(1),
        );
        st.metrics.tenant_mut(tenant).iterations += iters_run;

        if let Some(outcome) = finished {
            let a = st.active.swap_remove(idx);
            let started = a.started_at.unwrap_or(a.submitted_at);
            let turnaround = started.elapsed();
            st.queue.observe_job_seconds(turnaround.as_secs_f64());
            st.metrics.tenant_mut(a.tenant).jobs_completed += 1;
            if let Some(predicted) = a.predicted_seconds {
                let observed = turnaround.as_secs_f64();
                if observed > 0.0 {
                    let m = st.metrics.tenant_mut(a.tenant);
                    m.prediction_err_pct_sum += ((observed - predicted).abs() / observed) * 100.0;
                    m.prediction_samples += 1;
                }
            }
            if let Some(sess) = st.sessions.get_mut(&a.session) {
                sess.end_solve(a.ws_mark);
            }
            st.responses.push(SolveResponse {
                job: a.job,
                tenant: a.tenant,
                session: a.session,
                outcome,
                iterations: a.iterations,
                queue_wait: started.saturating_duration_since(a.submitted_at),
                time_to_first_iteration: a.ttfi,
                turnaround,
                warm: a.warm,
                residual_history: a.trace.map(|t| t.residual_history).unwrap_or_default(),
                migrations: a.migrations,
                retries: 0,
            });
        }

        // Slice boundary. Fencing here would force every in-flight
        // reduction to drain before the next tenant runs; without span
        // capture we skip it so pipelined solvers keep their overlap
        // across slice boundaries, at the cost of approximate
        // counter-delta attribution. Span capture needs the quiesce.
        if self.cfg.capture_events {
            let _ = self.rt.fence();
        }
        let after = self.rt.metrics();
        st.metrics.record_slice_delta(tenant, &before, &after);
        if self.cfg.capture_events {
            let spans = self.rt.take_spans();
            st.metrics.record_spans(tenant, spans);
        }
        let seconds = slice_start.elapsed().as_secs_f64();
        st.metrics.tenant_mut(tenant).busy_seconds += seconds;
        if let Some(sess) = st.sessions.get(&slice_session) {
            observe_slice(
                self.cfg.catalogue.as_ref(),
                sess.catalogue_keys(),
                seconds,
                iters_run,
            );
        }
    }

    /// Step one active job for up to `budget` iterations: one
    /// [`StepDriver::step`] call per iteration, plus the call that
    /// ends a capped RHS (or answers a new one from the
    /// already-converged guard) without one. Returns the iterations
    /// actually run and `Some(outcome)` once the whole job (all RHS)
    /// finished.
    fn step_slice(
        a: &mut ActiveJob,
        sessions: &mut BTreeMap<SessionId, Session>,
        budget: usize,
    ) -> (u64, Option<JobOutcome>) {
        let session = sessions
            .get_mut(&a.session)
            .expect("active job references a live session");
        let mut remaining = budget;
        let mut ran = 0u64;

        while remaining > 0 {
            if a.driver.is_none() {
                if a.started_at.is_none() {
                    a.started_at = Some(Instant::now());
                }
                // Migration restore: a checkpointed iterate rebuilds
                // the solver from it (r = b − A·x recomputed by the
                // constructor — restart semantics).
                let rhs = &a.request.rhs_batch[a.rhs_idx];
                let (solver, mark) = session.begin_solve(rhs, a.resume_sol.take().as_deref());
                a.solver = Some(solver);
                a.ws_mark = mark;
                let mut control = a.request.control.clone();
                control.cancel_token = Some(a.token.clone());
                // A restarted RHS resumes with its remaining budget:
                // the fresh driver counts from zero, so subtract what
                // earlier segments already consumed.
                control.max_iters = control.max_iters.saturating_sub(a.rhs_done);
                a.driver = Some(StepDriver::new(control));
            }
            let driver = a.driver.as_mut().expect("installed above");
            let solver = a.solver.as_mut().expect("installed above");
            let before_iters = driver.iters();
            let status = driver.step(session.planner_mut(), solver.as_mut(), a.trace.as_mut());
            let delta = (driver.iters() - before_iters) as u64;
            a.iterations += delta;
            ran += delta;
            remaining = remaining.saturating_sub(delta as usize);
            if delta > 0 && a.ttfi.is_none() {
                a.ttfi = Some(a.started_at.expect("set above").elapsed());
            }
            let outcome = match status {
                Ok(None) => continue,
                Ok(Some(report)) if report.converged => {
                    a.last_residual = report.final_residual;
                    match Self::advance_rhs(a, session) {
                        Some(out) => out,
                        None => continue,
                    }
                }
                Ok(Some(report)) => JobOutcome::Capped {
                    final_residual: report.final_residual,
                },
                Err(e) => error_outcome(e),
            };
            // The job ends here; its solver goes before the workspace
            // is released.
            a.driver = None;
            a.solver = None;
            return (ran, Some(outcome));
        }
        (ran, None)
    }

    /// One RHS done: release its pooled workspace (keeping ids
    /// stable for the next rebuild) and move on, or report the whole
    /// batch converged.
    fn advance_rhs(a: &mut ActiveJob, session: &mut Session) -> Option<JobOutcome> {
        a.driver = None;
        a.solver = None;
        session.planner_mut().release_workspace_from(a.ws_mark);
        a.rhs_idx += 1;
        a.rhs_done = 0;
        a.resume_sol = None;
        if a.rhs_idx >= a.request.rhs_batch.len() {
            Some(JobOutcome::Converged {
                final_residual: a.last_residual,
            })
        } else {
            None
        }
    }
}

/// Replay the rest of the solve prologue on a freshly built (hence
/// finalized) session: run a two-iteration throwaway solve so the
/// iteration trace is captured. The session comes out `warm()`;
/// numerics of later jobs are untouched because every job re-zeroes
/// the iterate (or installs its own) in `begin_solve`.
fn prewarm_session(sess: &mut Session) {
    let rhs = vec![1.0; sess.unknowns() as usize];
    let (mut solver, mark) = sess.begin_solve(&rhs, None);
    let mut driver = StepDriver::new(kdr_core::SolveControl::fixed(2));
    while let Ok(None) = driver.step(sess.planner_mut(), solver.as_mut(), None) {}
    // The solver holds deferred-scalar handles into the backend;
    // drop it before releasing the workspace.
    drop(solver);
    sess.end_solve(mark);
}

/// Fold one slice into the catalogue: a slice that ran `iters >= 1`
/// iterations of a session in `seconds` of wall time observes
/// `seconds / iters / T` once per distinct key of the session's `T`
/// tile `keys` (sorted, so equal keys sit in one run). The entries of
/// a session's tiles therefore add up to one measured iteration —
/// kernels, vector sweeps, reductions and runtime overhead alike. In
/// the default unfenced mode tasks still in flight at the boundary
/// land in a later slice; the EWMA absorbs that. Returns the share
/// each key observed, `None` when the slice observed nothing: no
/// catalogue, no iteration or no tile.
fn observe_slice(
    cat: Option<&SharedCatalogue>,
    keys: &[CatalogueKey],
    seconds: f64,
    iters: u64,
) -> Option<f64> {
    let cat = cat?;
    if iters == 0 || keys.is_empty() {
        return None;
    }
    let share = seconds / iters as f64 / keys.len() as f64;
    for run in keys.chunk_by(|a, b| a == b) {
        cat.observe(run[0], share);
    }
    Some(share)
}

/// Catalogue prediction of a job's service seconds, and whether every
/// tile's key was observed (refined from measured slices) rather than
/// answered by a roofline prior. An iteration costs the sum of the
/// session's tile entries; iterations are capped at
/// [`ADMIT_ITER_HORIZON`] per right-hand side.
fn predict_job_seconds(
    cat: &SharedCatalogue,
    keys: &[CatalogueKey],
    request: &SolveRequest,
) -> (f64, bool) {
    let (iter_seconds, observed) = keys.iter().fold((0.0, true), |(sum, observed), key| {
        let est = cat.predict(key);
        (sum + est.seconds, observed && est.is_observed())
    });
    let iters = request.control.max_iters.clamp(1, ADMIT_ITER_HORIZON);
    let batch = request.rhs_batch.len().max(1);
    (iter_seconds * iters as f64 * batch as f64, observed)
}

fn error_outcome(e: SolveError) -> JobOutcome {
    match e {
        SolveError::Cancelled { iteration } => JobOutcome::Cancelled { iteration },
        other => JobOutcome::Failed {
            message: other.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdr_core::SolveControl;
    use kdr_machine::MachineConfig;
    use kdr_sparse::{KernelKind, StructureKey};

    fn catalogue() -> SharedCatalogue {
        SharedCatalogue::new(MachineConfig::lassen(1))
    }

    /// A session's keys: four tiles of two structures, sorted.
    fn tile_keys() -> Vec<CatalogueKey> {
        let key = |nnz_log2| CatalogueKey {
            structure: StructureKey {
                nnz_log2,
                diag_log2: 2,
                row_var_bucket: 0,
                dense_block: 0,
                stencil: 0,
            },
            kernel: KernelKind::Dia,
            pieces_log2: 3,
        };
        let mut keys = vec![key(12), key(10), key(10), key(10)];
        keys.sort_unstable();
        keys
    }

    fn request(max_iters: usize, batch: usize) -> SolveRequest {
        let mut req = SolveRequest::new(0, Vec::new(), SolveControl::fixed(max_iters));
        req.rhs_batch = vec![Vec::new(); batch];
        req
    }

    #[test]
    fn a_slice_gives_each_tile_an_equal_share_of_its_iteration_time() {
        let (cat, keys) = (catalogue(), tile_keys());
        // 8 iterations in 2 ms: 250 µs an iteration, a quarter of it
        // a tile.
        assert_eq!(observe_slice(Some(&cat), &keys, 2e-3, 8), Some(2e-3 / 32.0));
        assert_eq!(cat.len(), 2, "one observation per distinct key");
        let iteration: f64 = keys.iter().map(|k| cat.predict(k).seconds).sum();
        assert!(
            (iteration - 2e-3 / 8.0).abs() < 1e-18,
            "the tiles sum to {iteration} s"
        );
    }

    #[test]
    fn a_job_is_predicted_as_the_measured_iteration_times_its_iterations_and_batch() {
        let (cat, keys) = (catalogue(), tile_keys());
        observe_slice(Some(&cat), &keys, 2e-3, 8);
        let per_iter = 2e-3 / 8.0;
        for (max_iters, batch, iters) in [(1000, 1, ADMIT_ITER_HORIZON), (10, 3, 10), (0, 2, 1)] {
            let (seconds, observed) = predict_job_seconds(&cat, &keys, &request(max_iters, batch));
            assert!(observed);
            let want = per_iter * iters as f64 * batch as f64;
            assert!(
                (seconds - want).abs() <= 1e-12 * want,
                "{seconds} s, not {want} s"
            );
        }
    }

    #[test]
    fn a_slice_without_an_iteration_or_a_catalogue_observes_nothing() {
        let (cat, keys) = (catalogue(), tile_keys());
        assert_eq!(observe_slice(Some(&cat), &keys, 2e-3, 0), None);
        assert!(cat.is_empty());
        assert!(
            !predict_job_seconds(&cat, &keys, &request(10, 1)).1,
            "the priors answer"
        );
        assert_eq!(observe_slice(None, &keys, 2e-3, 8), None);
        assert_eq!(observe_slice(Some(&cat), &[], 2e-3, 8), None);
        assert!(cat.is_empty());
    }
}
