//! `fleet_mixed`: the service layers with little solver work. A
//! two-shard fleet serves 14 small tenants and 2 large matrix-free
//! tenants in a closed loop — one outstanding job per tenant,
//! resubmitted when its response is seen — with a fixed job quota per
//! tenant per round, because multi-piece sessions age: only equal work
//! per run makes that repeat.

use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use kdr_core::{solve, CgSolver, ExecBackend, Planner, SolveControl, SOL};
use kdr_index::Partition;
use kdr_machine::MachineConfig;
use kdr_runtime::TaskSpan;
use kdr_service::{
    JobId, ServiceConfig, SessionSpec, ShardConfig, ShardedService, SolveRequest, SolveResponse,
    SolverKind, TenantId,
};
use kdr_sparse::stencil::rhs_vector;
use kdr_sparse::Stencil;
use kdr_store::SharedCatalogue;

use super::{task_span_notes, timed_ms, Notes, Round, RoundCtx, Workload};
use crate::host;
use crate::inputs::{rhs_seed, Reference};
use crate::spans::{Layer, Recorder};
use crate::stats::{median, Block};

/// Small tenants: ids `1..=SMALL_TENANTS`.
pub const SMALL_TENANTS: u32 = 14;
/// Large tenants: the ids after the small ones.
pub const LARGE_TENANTS: u32 = 2;
const TENANTS: u32 = SMALL_TENANTS + LARGE_TENANTS;
const SHARDS: usize = 2;
/// Scheduler slices each shard runs per `run_rounds` call.
const SLICES_PER_ROUND: usize = 8;
/// Share of a round's jobs that the large tenants submit.
const LARGE_SHARE: f64 = 0.035;
/// CG iterations of a job: seeds 0..400 took 90 to 92 (small) and 210
/// to 220 (large); the bands add about 2 % either side for the seeds
/// not swept.
const ITERS_SMALL: RangeInclusive<usize> = 88..=94;
const ITERS_LARGE: RangeInclusive<usize> = 205..=225;

/// One job class: an operator, how it is registered, and what a
/// correct job against it reports.
pub struct JobClass {
    stencil: Stencil,
    pieces: usize,
    matrix_free: bool,
    tol: f64,
    rhs: Vec<f64>,
    /// Iterations and final residual bits of the dedicated reference
    /// solve; the service must reproduce both.
    pub expected_iters: u64,
    expected_resid_bits: u64,
    /// Harness-side `‖b − Ax‖/‖b‖` of the reference solution.
    reference_resid: f64,
    /// Microseconds per iteration of a warm dedicated solve of the
    /// same operator, pieces and RHS on one worker.
    pub dedicated_iter_us: f64,
}

impl JobClass {
    /// The class and its dedicated reference solve, whose iteration
    /// count must lie in `iters_band` (the counts seen over the seeds
    /// swept when the workload was frozen).
    fn new(
        stencil: Stencil,
        pieces: usize,
        matrix_free: bool,
        tol: f64,
        rhs_seed: u64,
        iters_band: RangeInclusive<usize>,
    ) -> Self {
        let n = stencil.unknowns();
        let rhs = rhs_vector::<f64>(n, rhs_seed);
        // The dedicated solve: same registration the session performs,
        // on a private one-worker runtime.
        let mut planner = Planner::new(Box::new(ExecBackend::<f64>::new(1)));
        let part = Partition::equal_blocks(n, pieces);
        let d = planner.add_sol_vector(n, Some(part.clone()));
        let r = planner.add_rhs_vector(n, Some(part));
        if matrix_free {
            planner.add_stencil_operator(stencil, d, r);
        } else {
            planner.add_operator(Arc::new(stencil.to_csr::<f64, u64>()), d, r);
        }
        planner.set_rhs_data(r, &rhs);
        let control = SolveControl::to_tolerance(tol, 5000);
        let run = |planner: &mut Planner<f64>| {
            let mark = planner.workspace_mark();
            planner.zero(SOL);
            let mut solver = CgSolver::new(planner);
            let out = timed_ms(|| solve(planner, &mut solver, control.clone()));
            planner.release_workspace_from(mark.max(2));
            (
                out.0,
                out.1.expect("a Laplacian CG solve does not break down"),
            )
        };
        let (_, cold) = run(&mut planner);
        let (warm_ms, warm) = run(&mut planner);
        assert!(
            cold.converged && warm == cold,
            "reference solve must repeat"
        );
        // Service jobs return no solution, so the reference solve is
        // where the solution and the count are checked, once: a job
        // passes by reproducing it bit for bit.
        let x = planner.read_component(SOL, 0);
        let reference_resid = Reference::Rows(stencil).relative_residual(&x, &rhs);
        assert!(
            reference_resid <= 10.0 * tol && iters_band.contains(&cold.iters),
            "reference solve: {} iterations (recorded {iters_band:?}), residual {reference_resid:e} (tolerance {tol:e})",
            cold.iters
        );
        JobClass {
            stencil,
            pieces,
            matrix_free,
            tol,
            reference_resid,
            rhs,
            expected_iters: cold.iters as u64,
            expected_resid_bits: cold.final_residual.to_bits(),
            dedicated_iter_us: warm_ms * 1e3 / cold.iters as f64,
        }
    }

    fn spec(&self) -> SessionSpec {
        if self.matrix_free {
            SessionSpec::stencil(self.stencil, self.pieces, SolverKind::Cg)
        } else {
            SessionSpec {
                matrix: Arc::new(self.stencil.to_csr::<f64, u64>()),
                unknowns: self.stencil.unknowns(),
                pieces: self.pieces,
                solver: SolverKind::Cg,
                stencil: None,
            }
        }
    }

    fn request(&self, session: usize) -> SolveRequest {
        SolveRequest::new(
            session,
            self.rhs.clone(),
            SolveControl::to_tolerance(self.tol, 5000),
        )
    }

    /// Passed: converged, with the reference solve's iteration count
    /// and its final residual bit for bit.
    pub fn passes(&self, r: &SolveResponse) -> bool {
        let resid_bits = match r.outcome {
            kdr_service::JobOutcome::Converged { final_residual } => final_residual.to_bits(),
            _ => return false,
        };
        r.iterations == self.expected_iters && resid_bits == self.expected_resid_bits
    }
}

/// The fleet workload with its generated inputs.
pub struct Fleet {
    /// Small-tenant job class: assembled 24² Laplacian in 4 pieces.
    pub small: JobClass,
    /// Large-tenant job class: matrix-free 64² Laplacian in 8 pieces.
    pub large: JobClass,
    store_path: PathBuf,
}

fn is_large(tenant: TenantId) -> bool {
    tenant > SMALL_TENANTS
}

/// Jobs each tenant submits in a round of `total` jobs: the large
/// tenants share about [`LARGE_SHARE`] of them, the small tenants split
/// the rest as evenly as it divides.
pub fn quotas(total: usize) -> BTreeMap<TenantId, usize> {
    let per_large = ((total as f64 * LARGE_SHARE / LARGE_TENANTS as f64).round() as usize).max(1);
    let small_total = total.saturating_sub(per_large * LARGE_TENANTS as usize);
    let (each, extra) = (
        small_total / SMALL_TENANTS as usize,
        small_total % SMALL_TENANTS as usize,
    );
    (1..=TENANTS)
        .map(|t| {
            let q = if is_large(t) {
                per_large
            } else {
                each + usize::from((t as usize) <= extra)
            };
            (t, q)
        })
        .collect()
}

/// A response as the closed loop saw it.
struct Seen {
    tenant: TenantId,
    /// The timed block that was open when the response was seen.
    block: usize,
    latency_ms: f64,
    response: SolveResponse,
}

/// Tenants create their one session in tenant order on a fresh fleet,
/// and a reopened store keeps the ids.
fn session_of(tenant: TenantId) -> usize {
    (tenant - 1) as usize
}

impl Fleet {
    /// Generate the run's inputs and their reference solves.
    pub fn new(seed: u64) -> Self {
        Fleet {
            small: JobClass::new(
                Stencil::lap2d(24, 24),
                4,
                false,
                1e-10,
                rhs_seed(seed, 0),
                ITERS_SMALL,
            ),
            large: JobClass::new(
                Stencil::lap2d(64, 64),
                8,
                true,
                1e-8,
                rhs_seed(seed, 1),
                ITERS_LARGE,
            ),
            store_path: crate::out_dir()
                .join(format!("fleet-{seed}-{}.kdrstore", std::process::id())),
        }
    }

    fn class(&self, tenant: TenantId) -> &JobClass {
        if is_large(tenant) {
            &self.large
        } else {
            &self.small
        }
    }

    fn config(&self, trace: bool) -> ShardConfig {
        ShardConfig {
            shards: SHARDS,
            base: ServiceConfig {
                workers: 1,
                queue_capacity: 256,
                slice_iters: 8,
                seed: 42,
                capture_events: trace,
                catalogue: Some(SharedCatalogue::new(MachineConfig::lassen(1))),
                ..ServiceConfig::default()
            },
            ..ShardConfig::default()
        }
    }

    /// Submit one job per tenant, drive the fleet until all have
    /// answered, and return the responses in tenant order.
    fn one_job_each(&self, svc: &ShardedService, ctx: &RoundCtx) -> Vec<SolveResponse> {
        let rec = ctx.rec;
        for t in 1..=TENANTS {
            let req = self.class(t).request(session_of(t));
            rec.span(Layer::Service, "submit", || svc.submit(t, req))
                .expect("an idle fleet admits one job per tenant");
        }
        rec.span(Layer::Service, "run_until_idle", || svc.run_until_idle());
        let mut responses = rec.span(Layer::Service, "take_responses", || svc.take_responses());
        responses.sort_by_key(|r| r.tenant);
        responses
    }

    fn failures(&self, responses: &[SolveResponse]) -> u64 {
        let missing = (TENANTS as usize).saturating_sub(responses.len()) as u64;
        missing
            + responses
                .iter()
                .filter(|r| !self.class(r.tenant).passes(r))
                .count() as u64
    }
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn small_ttfi_ms(responses: &[SolveResponse]) -> Vec<f64> {
    responses
        .iter()
        .filter(|r| !is_large(r.tenant))
        .filter_map(|r| r.time_to_first_iteration)
        .map(ms)
        .collect()
}

/// What the timed closed loop of one round produced.
struct ClosedLoop {
    blocks: Vec<Block>,
    seen: Vec<Seen>,
    submit_us: Vec<f64>,
    rejects: u64,
    /// Jobs the round's quotas add up to.
    total: usize,
    /// Wall time of the blocks as the clock read it, seconds.
    window_s: f64,
}

impl Fleet {
    /// The cold set-up: fleet, tenants, sessions, one cold job each,
    /// save, drop, reopen, one warm job each. Returns the reopened
    /// fleet, the set-up's seconds and its failed operations.
    fn set_up(&self, ctx: &RoundCtx, notes: &mut Notes) -> (ShardedService, f64, u64) {
        let rec = ctx.rec;
        let path: &Path = &self.store_path;
        std::fs::create_dir_all(path.parent().expect("the store lives in the out directory"))
            .expect("the out directory can be created");
        let t0 = Instant::now();
        let cold_fleet = rec.span(Layer::Service, "fleet_new", || {
            ShardedService::new(self.config(ctx.trace))
        });
        for t in 1..=TENANTS {
            rec.span(Layer::Service, "register_tenant", || {
                cold_fleet.register_tenant(t, 1)
            });
            let spec = self.class(t).spec();
            let sid = rec
                .span(Layer::Service, "create_session", || {
                    cold_fleet.create_session(t, spec)
                })
                .expect("the tenant was just registered");
            assert_eq!(sid, session_of(t), "sessions are numbered in tenant order");
        }
        let cold = self.one_job_each(&cold_fleet, ctx);
        let (save_ms, saved) =
            timed_ms(|| rec.span(Layer::Store, "save_store", || cold_fleet.save_store(path)));
        saved.expect("the store file can be written");
        rec.span(Layer::Service, "drop_fleet", || drop(cold_fleet));
        let (open_ms, opened) = timed_ms(|| {
            rec.span(Layer::Store, "open_store", || {
                ShardedService::open_store(path, self.config(ctx.trace))
            })
        });
        let svc = opened.expect("a store this run wrote reopens");
        let warm = self.one_job_each(&svc, ctx);
        let setup_s = t0.elapsed().as_secs_f64();

        let store_bytes = std::fs::metadata(path).map_or(0, |m| m.len());
        std::fs::remove_file(path).ok();
        let failed = self.failures(&cold)
            + self.failures(&warm)
            + warm.iter().filter(|r| !r.warm).count() as u64;
        notes.insert("store.save_ms", save_ms);
        notes.insert("store.open_ms", open_ms);
        notes.insert("store.bytes", store_bytes as f64);
        notes.insert("service.ttfi_cold_ms", median(&small_ttfi_ms(&cold)));
        notes.insert("store.warm_ttfi_ms", median(&small_ttfi_ms(&warm)));
        (svc, setup_s, failed)
    }

    /// The timed closed loop: one outstanding job per tenant until
    /// every quota is spent.
    fn closed_loop(&self, svc: &ShardedService, ctx: &RoundCtx) -> ClosedLoop {
        let rec = ctx.rec;
        let mut remaining = quotas(ctx.blocks * ctx.k);
        let total: usize = remaining.values().sum();
        let mut in_flight: BTreeMap<JobId, (TenantId, Instant)> = BTreeMap::new();
        let mut out = ClosedLoop {
            blocks: Vec::with_capacity(ctx.blocks),
            seen: Vec::with_capacity(total),
            submit_us: Vec::with_capacity(total),
            rejects: 0,
            total,
            window_s: 0.0,
        };
        // Submit the tenant's next job, if its quota has one left.
        let mut submit =
            |t: TenantId,
             out: &mut ClosedLoop,
             in_flight: &mut BTreeMap<JobId, (TenantId, Instant)>| {
                let left = remaining.get_mut(&t).expect("every tenant has a quota");
                if *left == 0 {
                    return;
                }
                *left -= 1;
                let req = self.class(t).request(session_of(t));
                let at = Instant::now();
                match rec.span(Layer::Service, "submit", || svc.submit(t, req)) {
                    Ok(job) => {
                        out.submit_us.push(at.elapsed().as_secs_f64() * 1e6);
                        in_flight.insert(job, (t, at));
                    }
                    Err(_) => out.rejects += 1,
                }
            };

        // Blocks follow each other with jobs in flight: one reading of
        // the probe closes a block and opens the next.
        let mut calib_before = host::calibration_ms();
        let mut block_start = Instant::now();
        let mut cpu0 = host::process_cpu_ms();
        let mut block_first = 0usize;
        for t in 1..=TENANTS {
            submit(t, &mut out, &mut in_flight);
        }
        while !in_flight.is_empty() {
            rec.next_op();
            rec.span(Layer::Service, "run_rounds", || {
                svc.run_rounds(1, SLICES_PER_ROUND)
            });
            let batch = rec.span(Layer::Service, "take_responses", || svc.take_responses());
            let now = Instant::now();
            for response in batch {
                let Some((tenant, at)) = in_flight.remove(&response.job) else {
                    continue;
                };
                out.seen.push(Seen {
                    tenant,
                    block: out.blocks.len(),
                    latency_ms: ms(now - at),
                    response,
                });
                submit(tenant, &mut out, &mut in_flight);
            }
            // A block closes at the first batch boundary with k more
            // completions (the last block takes what is left).
            let closing = out.blocks.len() + 1;
            let boundary = if closing == ctx.blocks {
                total
            } else {
                closing * ctx.k
            };
            if out.seen.len() >= boundary && out.seen.len() > block_first {
                let (wall_s, cpu_ms) = (
                    block_start.elapsed().as_secs_f64(),
                    host::process_cpu_ms() - cpu0,
                );
                out.window_s += wall_s;
                let calib_after = host::calibration_ms();
                let host = host::Calibration::between(calib_before, calib_after);
                out.blocks.push(Block {
                    wall_s: wall_s / host.slowdown,
                    cpu_ms: cpu_ms / host.slowdown,
                    calib_ms: host.calib_ms,
                    op_ms: out.seen[block_first..]
                        .iter()
                        .map(|s| s.latency_ms / host.slowdown)
                        .collect(),
                });
                calib_before = calib_after;
                block_first = out.seen.len();
                block_start = Instant::now();
                cpu0 = host::process_cpu_ms();
            }
        }
        out
    }

    /// Per-layer figures of the timed loop.
    fn loop_notes(
        &self,
        notes: &mut Notes,
        run: &ClosedLoop,
        svc: &ShardedService,
        rec: &Recorder,
    ) {
        let ClosedLoop {
            blocks,
            seen,
            window_s,
            ..
        } = run;
        let small_in = |block: usize| -> Vec<f64> {
            seen.iter()
                .filter(|s| s.block == block && !is_large(s.tenant))
                .map(|s| s.latency_ms)
                .collect()
        };
        let (first, last) = (small_in(0), small_in(blocks.len() - 1));
        if !first.is_empty() && !last.is_empty() {
            notes.insert("service.job_age_slope", median(&last) / median(&first));
        }
        let large_ms: Vec<f64> = seen
            .iter()
            .filter(|s| is_large(s.tenant))
            .map(|s| s.latency_ms)
            .collect();
        if !large_ms.is_empty() {
            notes.insert("service.large_job_p50_ms", median(&large_ms));
        }
        let of_small = |f: &dyn Fn(&SolveResponse) -> f64| -> f64 {
            median(
                &seen
                    .iter()
                    .filter(|s| !is_large(s.tenant))
                    .map(|s| f(&s.response))
                    .collect::<Vec<_>>(),
            )
        };
        notes.insert("service.submit_us", median(&run.submit_us));
        notes.insert("service.queue_wait_p50_ms", of_small(&|r| ms(r.queue_wait)));
        notes.insert("service.turnaround_p50_ms", of_small(&|r| ms(r.turnaround)));
        notes.insert(
            "service.ttfi_warm_ms",
            of_small(&|r| r.time_to_first_iteration.map_or(0.0, ms)),
        );
        let iterations: u64 = seen.iter().map(|s| s.response.iterations).sum();
        let dedicated_s: f64 = seen
            .iter()
            .map(|s| s.response.iterations as f64 * self.class(s.tenant).dedicated_iter_us / 1e6)
            .sum();
        notes.insert("service.iters_per_s", iterations as f64 / window_s);
        notes.insert("service.sched_tax", window_s / dedicated_s);
        notes.insert(
            "service.retries",
            seen.iter().map(|s| f64::from(s.response.retries)).sum(),
        );
        notes.insert("service.rejects", run.rejects as f64);
        // Fairness is read when the first block closes: at the end of
        // the round the fixed quotas make every count equal.
        let done_early = |t: TenantId| {
            seen.iter()
                .filter(|s| s.block == 0 && s.tenant == t)
                .count()
        };
        let counts: Vec<usize> = (1..=SMALL_TENANTS).map(done_early).collect();
        let (lo, hi) = (
            *counts.iter().min().expect("there are small tenants"),
            *counts.iter().max().expect("there are small tenants"),
        );
        notes.insert("service.fairness_ratio", hi as f64 / lo.max(1) as f64);
        notes.insert("core.iters_per_op", self.small.expected_iters as f64);
        notes.insert(
            "core.true_resid_rel",
            self.small.reference_resid.max(self.large.reference_resid),
        );

        let metrics = rec.span(Layer::Service, "metrics", || svc.metrics());
        let sum = |f: &dyn Fn(&kdr_service::TenantMetrics) -> f64| -> f64 {
            metrics.values().map(f).sum()
        };
        let (hits, misses) = (
            sum(&|m| m.catalogue_hits as f64),
            sum(&|m| m.catalogue_misses as f64),
        );
        notes.insert("store.catalogue_hit_rate", hits / (hits + misses).max(1.0));
        notes.insert(
            "store.prediction_err_pct",
            sum(&|m| m.prediction_err_pct_sum) / sum(&|m| m.prediction_samples as f64).max(1.0),
        );
        let tasks = sum(&|m| m.tasks_submitted as f64).max(1.0);
        notes.insert(
            "runtime.tasks_per_iter",
            tasks / sum(&|m| m.iterations as f64).max(1.0),
        );
        notes.insert(
            "core.trace_hit_rate",
            sum(&|m| m.tasks_replayed as f64) / tasks,
        );
        notes.insert(
            "core.reduction_stall_frac",
            sum(&|m| m.reduction_stall_ns as f64) / 1e9 / sum(&|m| m.busy_seconds).max(1e-9),
        );
        let per_shard: Vec<f64> = (0..SHARDS)
            .map(|i| {
                svc.shard(i)
                    .metrics()
                    .values()
                    .map(|m| m.iterations as f64)
                    .sum()
            })
            .collect();
        let mean = per_shard.iter().sum::<f64>() / SHARDS as f64;
        notes.insert(
            "service.shard_imbalance",
            per_shard.iter().copied().fold(0.0, f64::max) / mean.max(1.0),
        );
    }
}

impl Workload for Fleet {
    fn round(&mut self, ctx: &RoundCtx) -> Round {
        let rec = ctx.rec;
        let mut notes = Notes::new();
        let ((svc, setup_s, mut failed), host) = host::calibrated(|| self.set_up(ctx, &mut notes));
        let setup_s = setup_s / host.slowdown;

        let loop_start = Instant::now();
        let run = self.closed_loop(&svc, ctx);
        let loop_ns = loop_start.elapsed().as_secs_f64() * 1e9;
        failed += run.rejects + (run.total - run.seen.len()) as u64;
        failed += run
            .seen
            .iter()
            .filter(|s| !self.class(s.tenant).passes(&s.response))
            .count() as u64;

        // One supervision tick on the loaded fleet.
        let (supervise_ms, ()) =
            timed_ms(|| rec.span(Layer::Service, "supervise", || svc.supervise()));
        notes.insert("service.supervise_us", supervise_ms * 1e3);
        self.loop_notes(&mut notes, &run, &svc, rec);
        if ctx.trace {
            // Each shard has its own runtime, so task ids and the
            // critical path are per shard; report the busiest one.
            let mut best = Notes::new();
            for i in 0..SHARDS {
                let mut spans: Vec<TaskSpan> = svc
                    .shard(i)
                    .span_groups()
                    .into_iter()
                    .flat_map(|(_, s)| s)
                    .collect();
                spans.sort_by_key(|s| s.id);
                let mut shard_notes = Notes::new();
                task_span_notes(&mut shard_notes, rec, &spans, loop_ns);
                if shard_notes.get("runtime.worker_busy_frac")
                    > best.get("runtime.worker_busy_frac")
                {
                    best = shard_notes;
                }
            }
            notes.extend(best);
        }
        rec.span(Layer::Service, "drop_fleet", || drop(svc));
        Round {
            setups_s: vec![setup_s],
            attempted: 2 * u64::from(TENANTS) + run.total as u64,
            blocks: run.blocks,
            failed,
            notes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quotas_add_up_and_large_jobs_stay_rare() {
        for k in [4usize, 20, 58, 100] {
            let q = quotas(3 * k);
            let total: usize = q.values().sum();
            assert_eq!(total, 3 * k, "k = {k}");
            let large: usize = q
                .iter()
                .filter(|(&t, _)| is_large(t))
                .map(|(_, &v)| v)
                .sum();
            assert!(
                large >= 2 && large as f64 <= (0.05 * total as f64).max(2.0),
                "k = {k}"
            );
            let small: Vec<usize> = q
                .iter()
                .filter(|(&t, _)| !is_large(t))
                .map(|(_, &v)| v)
                .collect();
            assert!(small.iter().max().unwrap() - small.iter().min().unwrap() <= 1);
        }
    }
}
