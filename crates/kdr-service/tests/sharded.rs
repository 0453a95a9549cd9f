//! Sharded-service tests: placement, migration (including the
//! restart-equivalence contract for in-flight jobs), cutover races,
//! and fleet-wide determinism.

use std::sync::Arc;

use kdr_core::SolveControl;
use kdr_service::{
    RejectReason, ServiceConfig, SessionSpec, ShardConfig, ShardedService, SolveRequest,
    SolverKind,
};
use kdr_sparse::stencil::rhs_vector;
use kdr_sparse::{SparseMatrix, Stencil};

fn spec(nx: u64, ny: u64, pieces: usize, solver: SolverKind) -> SessionSpec {
    let s = Stencil::lap2d(nx, ny);
    let n = s.unknowns();
    let m: Arc<dyn SparseMatrix<f64>> = Arc::new(s.to_csr::<f64, u64>());
    SessionSpec {
        matrix: m,
        unknowns: n,
        pieces,
        solver,
        stencil: None,
    }
}

fn sharded(shards: usize) -> ShardedService {
    ShardedService::new(ShardConfig {
        shards,
        base: ServiceConfig {
            workers: 2,
            slice_iters: 4,
            ..ServiceConfig::default()
        },
        ..ShardConfig::default()
    })
}

#[test]
fn placement_is_deterministic_and_covers_all_shards() {
    let a = sharded(4);
    let b = sharded(4);
    let mut used = [false; 4];
    for t in 0..100u32 {
        a.register_tenant(t, 1);
        b.register_tenant(t, 1);
        let sa = a.shard_of(t).unwrap();
        assert_eq!(sa, b.shard_of(t).unwrap(), "same config, same placement");
        used[sa] = true;
    }
    assert!(
        used.iter().all(|&u| u),
        "100 tenants over 4 shards must touch every shard: {used:?}"
    );
}

#[test]
fn unknown_tenant_and_session_rejected_at_front_door() {
    let svc = sharded(2);
    assert_eq!(
        svc.create_session(9, spec(8, 8, 2, SolverKind::Cg)).unwrap_err(),
        RejectReason::UnknownTenant { tenant: 9 }
    );
    svc.register_tenant(1, 1);
    let sid = svc.create_session(1, spec(8, 8, 2, SolverKind::Cg)).unwrap();
    let err = svc
        .submit(
            1,
            SolveRequest::new(sid + 100, rhs_vector::<f64>(64, 1), SolveControl::default()),
        )
        .unwrap_err();
    assert_eq!(err, RejectReason::UnknownSession { session: sid + 100 });
    // A session owned by another tenant is equally unknown.
    svc.register_tenant(2, 1);
    let err = svc
        .submit(
            2,
            SolveRequest::new(sid, rhs_vector::<f64>(64, 1), SolveControl::default()),
        )
        .unwrap_err();
    assert_eq!(err, RejectReason::UnknownSession { session: sid });
}

/// Run one job to `pre_slices` slices on its home shard, migrate the
/// tenant to `dst`, finish, and return the response.
fn run_with_forced_migration(
    dst_of: impl Fn(usize, usize) -> usize,
    pre_slices: usize,
) -> kdr_service::SolveResponse {
    let svc = sharded(2);
    svc.register_tenant(1, 1);
    let sid = svc.create_session(1, spec(24, 24, 4, SolverKind::Cg)).unwrap();
    let n = 24 * 24;
    let mut req = SolveRequest::new(sid, rhs_vector::<f64>(n, 5), SolveControl::to_tolerance(1e-10, 2000));
    req.capture_history = true;
    svc.submit(1, req).unwrap();
    let src = svc.shard_of(1).unwrap();
    // Partially run the job on the source shard, then cut over.
    svc.shard(src).run_slices(pre_slices);
    assert!(svc.migrate_tenant(1, dst_of(src, svc.shard_count())));
    svc.run_until_idle();
    let mut rs = svc.take_responses();
    assert_eq!(rs.len(), 1);
    rs.pop().unwrap()
}

#[test]
fn migrated_job_matches_local_restart_sample_for_sample() {
    // Cross-shard migration vs self-migration (detach/attach on the
    // same shard — a pure local checkpoint/restart) at the same
    // iteration: bitwise-deterministic kernels make the two residual
    // trajectories identical, which is exactly the claim that
    // migration *is* the PR-4 restart, relocated.
    let migrated = run_with_forced_migration(|src, n| (src + 1) % n, 3);
    let restarted = run_with_forced_migration(|src, _| src, 3);
    assert!(migrated.outcome.is_converged(), "{:?}", migrated.outcome);
    assert!(restarted.outcome.is_converged(), "{:?}", restarted.outcome);
    assert_eq!(migrated.migrations, 1, "one forced cutover");
    assert_eq!(restarted.migrations, 1, "self-migration still restarts");
    assert!(!migrated.residual_history.is_empty());
    let bits = |h: &[(usize, f64)]| -> Vec<(usize, u64)> {
        h.iter().map(|&(i, r)| (i, r.to_bits())).collect()
    };
    assert_eq!(
        bits(&migrated.residual_history),
        bits(&restarted.residual_history),
        "migrated trajectory must be bitwise identical to a local restart"
    );
    assert_eq!(migrated.iterations, restarted.iterations);
}

#[test]
fn migration_preserves_queued_jobs_and_iteration_budget() {
    let svc = sharded(2);
    svc.register_tenant(1, 1);
    let sid = svc.create_session(1, spec(16, 16, 4, SolverKind::Cg)).unwrap();
    let n = 16 * 16;
    for k in 0..3 {
        svc.submit(
            1,
            SolveRequest::new(sid, rhs_vector::<f64>(n, k), SolveControl::to_tolerance(1e-10, 1000)),
        )
        .unwrap();
    }
    let src = svc.shard_of(1).unwrap();
    svc.shard(src).run_slices(2); // first job mid-flight, two queued
    let dst = (src + 1) % 2;
    assert!(svc.migrate_tenant(1, dst));
    assert_eq!(svc.shard_of(1), Some(dst));
    assert_eq!(svc.loads()[dst].depth(), 3, "active + queued all moved");
    assert_eq!(svc.loads()[src].depth(), 0);
    svc.run_until_idle();
    let rs = svc.take_responses();
    assert_eq!(rs.len(), 3, "no job lost or duplicated across the move");
    assert!(rs.iter().all(|r| r.outcome.is_converged()));
    // Capped budget still enforced across a migration: a tiny budget
    // job, migrated mid-flight, must not exceed its cap in total.
    let mut req = SolveRequest::new(sid, rhs_vector::<f64>(n, 9), SolveControl::to_tolerance(1e-14, 10));
    req.control.check_every = 1;
    svc.submit(1, req).unwrap();
    svc.shard(dst).run_slices(1);
    assert!(svc.migrate_tenant(1, src));
    svc.run_until_idle();
    let rs = svc.take_responses();
    assert_eq!(rs.len(), 1);
    assert!(
        rs[0].iterations <= 10,
        "iteration cap is a whole-job budget, got {}",
        rs[0].iterations
    );
}

#[test]
fn submit_racing_cutover_is_typed_never_lost() {
    let svc = Arc::new(ShardedService::new(ShardConfig {
        shards: 4,
        base: ServiceConfig {
            workers: 1,
            slice_iters: 2,
            queue_capacity: 4096,
            ..ServiceConfig::default()
        },
        ..ShardConfig::default()
    }));
    svc.register_tenant(1, 1);
    let sid = svc.create_session(1, spec(12, 12, 2, SolverKind::Cg)).unwrap();
    let bogus = sid + 1000;
    let n = 12 * 12;

    let submitter = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || {
            let mut accepted = Vec::new();
            let mut rejected = 0usize;
            for k in 0..90u64 {
                let target = if k % 3 == 2 { bogus } else { sid };
                let req = SolveRequest::new(
                    target,
                    rhs_vector::<f64>(n, k),
                    SolveControl::to_tolerance(1e-8, 400),
                );
                match svc.submit(1, req) {
                    Ok(job) => accepted.push(job),
                    Err(RejectReason::UnknownSession { session }) => {
                        assert_eq!(session, bogus, "only the bogus id may be unknown");
                        rejected += 1;
                    }
                    Err(other) => panic!("unexpected rejection: {other:?}"),
                }
            }
            (accepted, rejected)
        })
    };

    // Hammer the cutover path while submits are in flight: every
    // migration detaches mid-queue state and re-attaches it one
    // shard over.
    for round in 0..12 {
        let dst = round % 4;
        svc.migrate_tenant(1, dst);
        svc.run_rounds(1, 2);
    }
    let (accepted, rejected) = submitter.join().unwrap();
    assert!(rejected > 0, "the bogus session must have been exercised");
    svc.run_until_idle();
    let mut got: Vec<u64> = svc.take_responses().iter().map(|r| r.job).collect();
    got.sort_unstable();
    let mut want = accepted.clone();
    want.sort_unstable();
    assert_eq!(got, want, "every accepted job completes exactly once");
}

#[test]
fn four_shards_same_seed_bitwise_rerun() {
    // Per tenant one fixed-budget job (tol = 0: exactly CAP
    // iterations, equal known work) then one run to tolerance, at
    // equal weights. The fairness window is WINDOW slices per
    // resident tenant, all of them still inside the first job, so
    // every tenant is runnable throughout: stride scheduling keeps
    // them within one slice, a ratio of at most (WINDOW + 1) / WINDOW.
    const CAP: usize = 128;
    const WINDOW: usize = 26;
    let fingerprint = || {
        let svc = sharded(4);
        let n = 12 * 12;
        let mut residents = vec![Vec::new(); 4];
        for t in 0..16u32 {
            svc.register_tenant(t, 1);
            residents[svc.shard_of(t).unwrap()].push(t);
            let sid = svc.create_session(t, spec(12, 12, 2, SolverKind::Cg)).unwrap();
            let fixed = SolveControl {
                tol: 0.0,
                check_every: 0,
                max_iters: CAP,
                ..SolveControl::default()
            };
            for (j, control) in [fixed, SolveControl::to_tolerance(1e-10, 1000)]
                .into_iter()
                .enumerate()
            {
                let rhs = rhs_vector::<f64>(n, u64::from(t) * 10 + j as u64);
                svc.submit(t, SolveRequest::new(sid, rhs, control)).unwrap();
            }
        }
        for (i, tenants) in residents.iter().enumerate() {
            let slices = WINDOW * tenants.len();
            assert_eq!(svc.shard(i).run_slices(slices), slices);
            let m = svc.shard(i).metrics();
            let counts: Vec<u64> = tenants.iter().map(|t| m[t].iterations).collect();
            if let (Some(&min), Some(&max)) = (counts.iter().min(), counts.iter().max()) {
                assert!(
                    max as f64 <= 1.05 * min as f64,
                    "shard {i}: fairness over the window exceeds 1.05: {counts:?}"
                );
            }
        }
        svc.run_until_idle();
        let mut capped = 0;
        let mut fp: Vec<(u64, u32, u64, u64)> = svc
            .take_responses()
            .iter()
            .map(|r| {
                let bits = match r.outcome {
                    kdr_service::JobOutcome::Capped { final_residual } => {
                        assert_eq!(r.iterations, CAP as u64, "job {} missed its budget", r.job);
                        capped += 1;
                        final_residual.to_bits()
                    }
                    kdr_service::JobOutcome::Converged { final_residual } => {
                        final_residual.to_bits()
                    }
                    ref o => panic!("expected a finished job, got {o:?}"),
                };
                (r.job, r.tenant, r.iterations, bits)
            })
            .collect();
        fp.sort_unstable();
        let mut jobs: Vec<u64> = fp.iter().map(|f| f.0).collect();
        jobs.dedup();
        assert_eq!(jobs.len(), 32, "zero lost, zero duplicated");
        assert_eq!(capped, 16, "one exact-budget job per tenant");
        fp
    };
    assert_eq!(
        fingerprint(),
        fingerprint(),
        "same seed, same submissions → bit-identical responses at 4 shards"
    );
}
