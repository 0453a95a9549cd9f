//! Stress and acceptance tests: many tenants over one shared
//! runtime, with zero lost or duplicated responses, a fair-share
//! bound on progress, and a deterministic schedule under a fixed
//! seed.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use kdr_core::SolveControl;
use kdr_service::{
    JobId, JobOutcome, RejectReason, ServiceConfig, SessionSpec, ShardConfig, ShardedService,
    SolveRequest, SolverKind, TenantId,
};
use kdr_sparse::stencil::rhs_vector;
use kdr_sparse::{SparseMatrix, Stencil};

fn spec(nx: u64, ny: u64, pieces: usize) -> SessionSpec {
    let s = Stencil::lap2d(nx, ny);
    let n = s.unknowns();
    let m: Arc<dyn SparseMatrix<f64>> = Arc::new(s.to_csr::<f64, u64>());
    SessionSpec {
        matrix: m,
        unknowns: n,
        pieces,
        solver: SolverKind::Cg,
        stencil: None,
    }
}

/// The single-runtime service: a one-shard fleet.
fn service(base: ServiceConfig) -> ShardedService {
    ShardedService::new(ShardConfig {
        shards: 1,
        base,
        ..ShardConfig::default()
    })
}

/// Fixed-work control: tol = 0 never converges, so the job runs
/// exactly `iters` iterations and finishes `Capped`.
fn fixed_work(iters: usize) -> SolveControl {
    SolveControl {
        max_iters: iters,
        ..SolveControl::default()
    }
}

#[test]
fn sixteen_tenants_zero_lost_zero_duplicated() {
    const TENANTS: u32 = 16;
    const JOBS_PER_TENANT: usize = 3;
    const ITERS: usize = 25;
    let svc = service(ServiceConfig {
        workers: 4,
        queue_capacity: 1024,
        slice_iters: 8,
        seed: 42,
        ..ServiceConfig::default()
    });
    let n = 10 * 10;
    let mut submitted: Vec<(JobId, TenantId)> = Vec::new();
    for t in 1..=TENANTS {
        svc.register_tenant(t, 1);
        let sid = svc.create_session(t, spec(10, 10, 2)).unwrap();
        for j in 0..JOBS_PER_TENANT {
            let rhs = rhs_vector::<f64>(n, (t as u64) * 100 + j as u64);
            let job = svc
                .submit(t, SolveRequest::new(sid, rhs, fixed_work(ITERS)))
                .expect("queue sized for the full load");
            submitted.push((job, t));
        }
    }
    svc.run_until_idle();
    let responses = svc.take_responses();

    // Zero lost, zero duplicated: the response job-id multiset equals
    // the submitted job-id set exactly.
    assert_eq!(responses.len(), submitted.len(), "no lost responses");
    let mut seen: Vec<JobId> = responses.iter().map(|r| r.job).collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), submitted.len(), "no duplicated responses");
    let mut expected: Vec<JobId> = submitted.iter().map(|(j, _)| *j).collect();
    expected.sort_unstable();
    assert_eq!(seen, expected);

    // Every response carries the right tenant and exactly the fixed
    // work it asked for.
    let by_job: BTreeMap<JobId, TenantId> = submitted.into_iter().collect();
    for r in &responses {
        assert_eq!(r.tenant, by_job[&r.job]);
        assert!(matches!(r.outcome, JobOutcome::Capped { .. }));
        assert_eq!(r.iterations, ITERS as u64);
    }

    // Nothing left behind.
    assert!(svc.take_responses().is_empty());
}

#[test]
fn equal_weight_fairness_ratio_within_bound_mid_run() {
    // The acceptance bound: with equal weights and identical
    // workloads, the max/min completed-iteration ratio across
    // tenants stays <= 2.0. Measured MID-RUN (after a fixed number
    // of scheduler slices, while everyone is saturated), which is
    // where unfairness would show; at completion the ratio is
    // trivially 1.
    const TENANTS: u32 = 8;
    const SLICE: usize = 8;
    const ROUNDS: usize = 5;
    let svc = service(ServiceConfig {
        workers: 2,
        queue_capacity: 256,
        slice_iters: SLICE,
        seed: 7,
        ..ServiceConfig::default()
    });
    let n = 12 * 12;
    let mut jobs = Vec::new();
    for t in 1..=TENANTS {
        svc.register_tenant(t, 1);
        let sid = svc.create_session(t, spec(12, 12, 2)).unwrap();
        let rhs = rhs_vector::<f64>(n, t as u64);
        // A budget no job reaches during the sampled window.
        jobs.push(
            svc.submit(t, SolveRequest::new(sid, rhs, fixed_work(100_000)))
                .unwrap(),
        );
    }
    // Exactly ROUNDS slices per tenant; everyone still saturated.
    let ran = svc.shard(0).run_slices(TENANTS as usize * ROUNDS);
    assert_eq!(ran, TENANTS as usize * ROUNDS, "no tenant went idle");
    let m = svc.metrics();
    let counts: Vec<u64> = (1..=TENANTS)
        .map(|t| m.get(&t).map_or(0, |x| x.iterations))
        .collect();
    let min = *counts.iter().min().unwrap();
    let max = *counts.iter().max().unwrap();
    assert!(min > 0, "every tenant progressed: {counts:?}");
    let ratio = max as f64 / min as f64;
    assert!(
        ratio <= 2.0,
        "mid-run completed-iteration ratio {ratio} (counts {counts:?}) exceeds 2.0"
    );
    // Stride scheduling keeps per-tenant slice counts within 1 at
    // every prefix of the schedule.
    let slices: Vec<u64> = (1..=TENANTS).map(|t| svc.shard(0).slices(t)).collect();
    let smin = *slices.iter().min().unwrap();
    let smax = *slices.iter().max().unwrap();
    assert!(
        smax - smin <= 1,
        "equal-weight slice counts diverged mid-run: {slices:?}"
    );
    // Clean shutdown: cancel the open-ended jobs and drain.
    for j in jobs {
        svc.cancel_job(j);
    }
    svc.run_until_idle();
    let responses = svc.take_responses();
    assert_eq!(responses.len(), TENANTS as usize);
    for r in &responses {
        assert!(matches!(r.outcome, JobOutcome::Cancelled { .. }));
    }
}

#[test]
fn weighted_tenants_progress_proportionally() {
    // A weight-3 tenant gets ~3x the slices of weight-1 tenants
    // while all are runnable.
    let svc = service(ServiceConfig {
        workers: 2,
        slice_iters: 4,
        seed: 3,
        ..ServiceConfig::default()
    });
    let n = 12 * 12;
    let mut jobs = Vec::new();
    for (t, w) in [(1u32, 3u64), (2, 1), (3, 1)] {
        svc.register_tenant(t, w);
        let sid = svc.create_session(t, spec(12, 12, 2)).unwrap();
        jobs.push(
            svc.submit(
                t,
                SolveRequest::new(sid, rhs_vector::<f64>(n, t as u64), fixed_work(100_000)),
            )
            .unwrap(),
        );
    }
    // 40 slices across weights 3:1:1 => expected split 24:8:8.
    let ran = svc.shard(0).run_slices(40);
    assert_eq!(ran, 40);
    let heavy = svc.shard(0).slices(1);
    let light = svc.shard(0).slices(2).max(svc.shard(0).slices(3));
    assert!(
        heavy as f64 >= 2.5 * light as f64,
        "weight-3 tenant should lead weight-1 tenants ~3:1, got {heavy} vs {light}"
    );
    let m = svc.metrics();
    let heavy_iters = m[&1].iterations;
    let light_iters = m[&2].iterations.max(m[&3].iterations);
    assert!(
        heavy_iters > light_iters,
        "slices translate to iterations: {heavy_iters} vs {light_iters}"
    );
    for j in jobs {
        svc.cancel_job(j);
    }
    svc.run_until_idle();
    assert_eq!(svc.take_responses().len(), 3);
}

/// One full seeded run: submit everything up front, drain, and
/// return the schedule fingerprint — the ordered (job, tenant,
/// iterations, slices-per-tenant) trace.
fn seeded_run(seed: u64) -> (Vec<(JobId, TenantId, u64)>, Vec<u64>) {
    const TENANTS: u32 = 6;
    let svc = service(ServiceConfig {
        workers: 3,
        queue_capacity: 256,
        slice_iters: 8,
        seed,
        ..ServiceConfig::default()
    });
    let n = 10 * 10;
    for t in 1..=TENANTS {
        svc.register_tenant(t, if t % 3 == 0 { 2 } else { 1 });
        let sid = svc.create_session(t, spec(10, 10, 2)).unwrap();
        for j in 0..2u64 {
            let rhs = rhs_vector::<f64>(n, t as u64 * 10 + j);
            svc.submit(t, SolveRequest::new(sid, rhs, fixed_work(20 + 5 * j as usize)))
                .unwrap();
        }
    }
    svc.run_until_idle();
    let trace = svc
        .take_responses()
        .iter()
        .map(|r| (r.job, r.tenant, r.iterations))
        .collect();
    let slices = (1..=TENANTS).map(|t| svc.shard(0).slices(t)).collect();
    (trace, slices)
}

#[test]
fn same_seed_same_schedule() {
    let (trace_a, slices_a) = seeded_run(1234);
    let (trace_b, slices_b) = seeded_run(1234);
    assert_eq!(
        trace_a, trace_b,
        "identical seed + submission order must produce an identical completion order"
    );
    assert_eq!(slices_a, slices_b, "and identical per-tenant slice counts");
}

#[test]
fn concurrent_submitters_lose_nothing() {
    // Submission races the driver: several client threads push jobs
    // while another thread drains the service. Every admitted job
    // must produce exactly one response.
    const CLIENTS: u32 = 4;
    const JOBS_PER_CLIENT: usize = 5;
    let svc = Arc::new(service(ServiceConfig {
        workers: 2,
        queue_capacity: 8, // small on purpose: submitters see backpressure
        slice_iters: 16,
        seed: 99,
        ..ServiceConfig::default()
    }));
    let n = 8 * 8;
    let mut sessions = Vec::new();
    for t in 1..=CLIENTS {
        svc.register_tenant(t, 1);
        sessions.push(svc.create_session(t, spec(8, 8, 2)).unwrap());
    }
    let mut clients = Vec::new();
    for t in 1..=CLIENTS {
        let svc = Arc::clone(&svc);
        let sid = sessions[(t - 1) as usize];
        clients.push(std::thread::spawn(move || {
            let mut jobs = Vec::new();
            for j in 0..JOBS_PER_CLIENT {
                let rhs = rhs_vector::<f64>(n, t as u64 * 50 + j as u64);
                loop {
                    match svc.submit(t, SolveRequest::new(sid, rhs.clone(), fixed_work(10))) {
                        Ok(job) => {
                            jobs.push(job);
                            break;
                        }
                        Err(RejectReason::QueueFull { .. }) => {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(e) => panic!("unexpected rejection: {e}"),
                    }
                }
            }
            jobs
        }));
    }
    // Drain while clients are still submitting: run_until_idle
    // returns whenever the queue momentarily empties, so loop until
    // every client finished AND the service is drained.
    let driver = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || {
            let mut collected = Vec::new();
            let expected = (CLIENTS as usize) * JOBS_PER_CLIENT;
            let deadline = std::time::Instant::now() + Duration::from_secs(120);
            while collected.len() < expected {
                svc.run_until_idle();
                collected.extend(svc.take_responses());
                assert!(
                    std::time::Instant::now() < deadline,
                    "drain stalled with {}/{expected} responses",
                    collected.len()
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            collected
        })
    };
    let mut all_jobs: Vec<JobId> = Vec::new();
    for c in clients {
        all_jobs.extend(c.join().unwrap());
    }
    let responses = driver.join().unwrap();
    assert_eq!(responses.len(), all_jobs.len());
    let mut seen: Vec<JobId> = responses.iter().map(|r| r.job).collect();
    seen.sort_unstable();
    all_jobs.sort_unstable();
    assert_eq!(seen, all_jobs, "exactly one response per admitted job");
    for r in &responses {
        assert_eq!(r.iterations, 10);
    }
}

#[test]
fn sixty_four_tenants_sustained() {
    // The acceptance scale: 64 tenants, one shared runtime, zero
    // lost responses.
    const TENANTS: u32 = 64;
    let svc = service(ServiceConfig {
        workers: 4,
        queue_capacity: 256,
        slice_iters: 8,
        seed: 64,
        ..ServiceConfig::default()
    });
    let n = 8 * 8;
    let mut jobs = Vec::new();
    for t in 1..=TENANTS {
        svc.register_tenant(t, 1);
        let sid = svc.create_session(t, spec(8, 8, 2)).unwrap();
        let rhs = rhs_vector::<f64>(n, t as u64);
        jobs.push(svc.submit(t, SolveRequest::new(sid, rhs, fixed_work(12))).unwrap());
    }
    svc.run_until_idle();
    let responses = svc.take_responses();
    assert_eq!(responses.len(), TENANTS as usize, "zero lost at 64 tenants");
    let mut seen: Vec<JobId> = responses.iter().map(|r| r.job).collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), TENANTS as usize, "zero duplicated at 64 tenants");
    for r in &responses {
        assert_eq!(r.iterations, 12);
    }
    // Fairness at completion: identical fixed work, so completed
    // iterations are exactly equal — ratio 1.0 <= 2.0.
    let m = svc.metrics();
    let counts: Vec<u64> = (1..=TENANTS).map(|t| m[&t].iterations).collect();
    let min = *counts.iter().min().unwrap();
    let max = *counts.iter().max().unwrap();
    assert!(max as f64 / min.max(1) as f64 <= 2.0);
}
