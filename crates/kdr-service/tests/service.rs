//! Functional tests for the multi-tenant solve service: admission,
//! sessions (cold vs warm), cancellation, priorities, batches, and
//! per-tenant observability.

use std::sync::Arc;
use std::time::{Duration, Instant};

use kdr_core::SolveControl;
use kdr_service::{
    JobOutcome, RejectReason, ServiceConfig, SessionSpec, ShardConfig, ShardedService,
    SolveRequest, SolverKind,
};
use kdr_sparse::stencil::rhs_vector;
use kdr_sparse::{Coo, SparseMatrix, Stencil, Triples};

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

/// The single-runtime service: a one-shard fleet.
fn service(base: ServiceConfig) -> ShardedService {
    ShardedService::new(ShardConfig {
        shards: 1,
        base,
        ..ShardConfig::default()
    })
}

fn control() -> SolveControl {
    SolveControl::to_tolerance(1e-10, 1000)
}

#[test]
fn two_tenants_interleave_and_both_converge() {
    let svc = service(ServiceConfig {
        workers: 2,
        slice_iters: 4,
        ..ServiceConfig::default()
    });
    svc.register_tenant(1, 1);
    svc.register_tenant(2, 1);
    let s1 = svc.create_session(1, spec(16, 16, 4, SolverKind::Cg)).unwrap();
    let s2 = svc.create_session(2, spec(12, 12, 3, SolverKind::BiCgStab)).unwrap();
    let n1 = 16 * 16;
    let n2 = 12 * 12;
    let j1 = svc
        .submit(1, SolveRequest::new(s1, rhs_vector::<f64>(n1, 42), control()))
        .unwrap();
    let j2 = svc
        .submit(2, SolveRequest::new(s2, rhs_vector::<f64>(n2, 7), control()))
        .unwrap();
    svc.run_until_idle();
    let mut responses = svc.take_responses();
    responses.sort_by_key(|r| r.job);
    assert_eq!(responses.len(), 2);
    assert_eq!(responses[0].job, j1);
    assert_eq!(responses[1].job, j2);
    for r in &responses {
        assert!(r.outcome.is_converged(), "job {} failed: {:?}", r.job, r.outcome);
        assert!(r.iterations > 0);
    }
    // Interleaving proof: with slice_iters = 4 and both jobs needing
    // many more iterations than one slice, both tenants were granted
    // multiple slices.
    assert!(svc.shard(0).slices(1) >= 2, "tenant 1 slices: {}", svc.shard(0).slices(1));
    assert!(svc.shard(0).slices(2) >= 2, "tenant 2 slices: {}", svc.shard(0).slices(2));
}

#[test]
fn warm_session_skips_the_cold_prologue() {
    let svc = service(ServiceConfig {
        workers: 2,
        slice_iters: 64,
        ..ServiceConfig::default()
    });
    svc.register_tenant(1, 1);
    let sid = svc.create_session(1, spec(24, 24, 4, SolverKind::Cg)).unwrap();
    let n = 24 * 24;
    // Step shapes in the session's trace cache, as the store records
    // them.
    let path = std::env::temp_dir()
        .join(format!("kdr_warm_session_{}.kdrstore", std::process::id()));
    let mut captured = Vec::new();
    for seed in [1u64, 2, 3] {
        svc.submit(1, SolveRequest::new(sid, rhs_vector::<f64>(n, seed), control()))
            .unwrap();
        svc.run_until_idle();
        svc.save_store(&path).unwrap();
        captured.push(kdr_store::store::load(&path).unwrap().sessions[0].steps_captured);
    }
    std::fs::remove_file(&path).unwrap();
    assert!(captured[0] > 0, "the cold job captures CG's step shapes");
    assert_eq!(
        captured[1..],
        [captured[0]; 2],
        "warm jobs replay what the cold job captured: no new step shapes"
    );
    let responses = svc.take_responses();
    assert_eq!(responses.len(), 3);
    assert!(!responses[0].warm, "first job on a session is cold");
    for r in &responses {
        assert!(r.outcome.is_converged());
        assert!(r.time_to_first_iteration.is_some(), "iterated");
    }
    for warm in &responses[1..] {
        assert!(warm.warm, "later jobs are warm");
    }
    // The warm path must actually hit the trace cache.
    let m = svc.metrics();
    assert!(
        m[&1].tasks_replayed > 0,
        "warm solves should replay captured traces: {:?}",
        m[&1]
    );
}

#[test]
fn queue_full_backpressure_is_typed_and_immediate() {
    let svc = service(ServiceConfig {
        workers: 1,
        queue_capacity: 2,
        ..ServiceConfig::default()
    });
    svc.register_tenant(1, 1);
    let sid = svc.create_session(1, spec(8, 8, 2, SolverKind::Cg)).unwrap();
    let n = 8 * 8;
    let mk = || SolveRequest::new(sid, rhs_vector::<f64>(n, 1), control());
    assert!(svc.submit(1, mk()).is_ok());
    assert!(svc.submit(1, mk()).is_ok());
    match svc.submit(1, mk()) {
        Err(RejectReason::QueueFull { capacity }) => assert_eq!(capacity, 2),
        other => panic!("expected QueueFull, got {other:?}"),
    }
    // Draining the queue restores admission.
    svc.run_until_idle();
    assert_eq!(svc.take_responses().len(), 2);
    assert!(svc.submit(1, mk()).is_ok());
}

#[test]
fn hopeless_deadlines_rejected_at_admission() {
    let svc = service(ServiceConfig::default());
    svc.register_tenant(1, 1);
    let sid = svc.create_session(1, spec(8, 8, 2, SolverKind::Cg)).unwrap();
    let n = 8 * 8;
    let mut r = SolveRequest::new(sid, rhs_vector::<f64>(n, 1), control());
    r.deadline = Some(Instant::now() - Duration::from_millis(1));
    assert!(matches!(
        svc.submit(1, r),
        Err(RejectReason::DeadlineUnmeetable { .. })
    ));
}

#[test]
fn malformed_requests_rejected_with_types() {
    let svc = service(ServiceConfig::default());
    svc.register_tenant(1, 1);
    let sid = svc.create_session(1, spec(8, 8, 2, SolverKind::Cg)).unwrap();
    let n = 8 * 8;
    // Unregistered tenant.
    assert!(matches!(
        svc.submit(9, SolveRequest::new(sid, rhs_vector::<f64>(n, 1), control())),
        Err(RejectReason::UnknownTenant { tenant: 9 })
    ));
    // Unknown session.
    assert!(matches!(
        svc.submit(1, SolveRequest::new(99, rhs_vector::<f64>(n, 1), control())),
        Err(RejectReason::UnknownSession { session: 99 })
    ));
    // Foreign session: tenant 2 may not use tenant 1's session.
    svc.register_tenant(2, 1);
    assert!(matches!(
        svc.submit(2, SolveRequest::new(sid, rhs_vector::<f64>(n, 1), control())),
        Err(RejectReason::UnknownSession { .. })
    ));
    // Wrong RHS length.
    assert!(matches!(
        svc.submit(1, SolveRequest::new(sid, vec![1.0; 3], control())),
        Err(RejectReason::BadRhsLength { got: 3, .. })
    ));
    // Empty batch.
    let mut r = SolveRequest::new(sid, rhs_vector::<f64>(n, 1), control());
    r.rhs_batch.clear();
    assert!(matches!(svc.submit(1, r), Err(RejectReason::EmptyBatch)));
}

/// After a service has rejected every spec it was given, the first
/// spec it accepts gets session id 0, runs its job to convergence, and
/// is the one session the tenant's record names.
fn rejected_specs_left_no_trace(svc: &ShardedService, name: &str) {
    let sid = svc
        .create_session(1, spec(8, 8, 64, SolverKind::Cg))
        .unwrap();
    assert_eq!(sid, 0, "a rejected spec spends no session id");
    svc.submit(
        1,
        SolveRequest::new(sid, rhs_vector::<f64>(64, 1), control()),
    )
    .unwrap();
    svc.run_until_idle();
    assert!(svc.take_responses()[0].outcome.is_converged());
    let path = std::env::temp_dir().join(format!("kdr_service_{name}.kdrstore"));
    svc.save_store(&path).unwrap();
    let stored = kdr_store::store::load(&path).unwrap();
    assert_eq!(
        stored.sessions.len(),
        1,
        "the tenant record names one session"
    );
    std::fs::remove_file(&path).unwrap();
}

/// A spec whose piece count is outside `1..=unknowns` is rejected
/// before the front door records it: no session id is spent, and the
/// tenant record names only sessions a shard holds.
#[test]
fn a_piece_count_the_partition_cannot_hold_is_rejected_untouched() {
    let svc = service(ServiceConfig::default());
    svc.register_tenant(1, 1);
    for pieces in [0, 65] {
        assert_eq!(
            svc.create_session(1, spec(8, 8, pieces, SolverKind::Cg)).err(),
            Some(RejectReason::BadPieceCount { pieces, unknowns: 64 })
        );
    }
    rejected_specs_left_no_trace(&svc, "bad_pieces");
}

/// A solver parameter its constructor asserts against is rejected
/// when the session is created, not when its first job panics the
/// shard driver: GMRES `restart = 0`, s-step `s = 0`, Chebyshev
/// bounds outside `0 < lmin <= lmax`.
#[test]
fn a_solver_parameter_its_constructor_rejects_is_rejected_untouched() {
    let svc = service(ServiceConfig::default());
    svc.register_tenant(1, 1);
    let bad = [
        SolverKind::Gmres { restart: 0 },
        SolverKind::SStepCg { s: 0 },
        SolverKind::Chebyshev {
            lmin: 0.0,
            lmax: 1.0,
        },
        SolverKind::Chebyshev {
            lmin: 2.0,
            lmax: 1.0,
        },
        SolverKind::Chebyshev {
            lmin: f64::NAN,
            lmax: 1.0,
        },
    ];
    for solver in bad {
        match svc.create_session(1, spec(8, 8, 4, solver)) {
            Err(RejectReason::BadSolverParameter { solver: got }) => {
                assert_eq!(format!("{got:?}"), format!("{solver:?}"))
            }
            other => panic!("{solver:?}: {other:?}"),
        }
    }
    rejected_specs_left_no_trace(&svc, "bad_solver");
}

/// An operator that is not square over the spec's unknowns is rejected
/// before the front door records the session, assembled or matrix-free.
#[test]
fn an_operator_not_square_over_the_unknowns_is_rejected_untouched() {
    let svc = service(ServiceConfig::default());
    svc.register_tenant(1, 1);
    let mut t = Triples::new(64, 65);
    t.push(0, 0, 1.0);
    let cases = [
        (
            SessionSpec {
                unknowns: 100,
                ..spec(8, 8, 4, SolverKind::Cg)
            },
            (64, 64, 100),
        ),
        (
            SessionSpec {
                unknowns: 63,
                ..spec(8, 8, 4, SolverKind::Cg)
            },
            (64, 64, 63),
        ),
        (
            SessionSpec {
                matrix: Arc::new(Coo::<f64, u64>::from_triples(t)),
                ..spec(8, 8, 4, SolverKind::Cg)
            },
            (64, 65, 64),
        ),
        (
            SessionSpec {
                unknowns: 81,
                ..SessionSpec::stencil(Stencil::lap2d(8, 8), 4, SolverKind::Cg)
            },
            (64, 64, 81),
        ),
    ];
    for (spec, (rows, cols, unknowns)) in cases {
        assert_eq!(
            svc.create_session(1, spec).err(),
            Some(RejectReason::NotSquareOverUnknowns {
                rows,
                cols,
                unknowns
            })
        );
    }
    rejected_specs_left_no_trace(&svc, "not_square");
}

#[test]
fn queued_job_cancels_immediately_running_job_cooperatively() {
    let svc = Arc::new(service(ServiceConfig {
        workers: 2,
        slice_iters: 4,
        ..ServiceConfig::default()
    }));
    svc.register_tenant(1, 1);
    let sid = svc.create_session(1, spec(16, 16, 4, SolverKind::Cg)).unwrap();
    let n = 16 * 16;
    // Queued cancellation: cancel before any driver runs.
    let j0 = svc
        .submit(1, SolveRequest::new(sid, rhs_vector::<f64>(n, 1), control()))
        .unwrap();
    svc.cancel_job(j0);
    let r = svc.take_responses();
    assert_eq!(r.len(), 1);
    assert!(matches!(r[0].outcome, JobOutcome::Cancelled { iteration: 0 }));

    // Running cancellation: an unbounded job, cancelled from another
    // thread while the driver is inside run_until_idle.
    let unbounded = SolveControl {
        max_iters: usize::MAX / 2,
        ..SolveControl::default()
    };
    let j1 = svc
        .submit(1, SolveRequest::new(sid, rhs_vector::<f64>(n, 2), unbounded))
        .unwrap();
    let canceller = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            svc.cancel_job(j1);
        })
    };
    svc.run_until_idle();
    canceller.join().unwrap();
    let r = svc.take_responses();
    assert_eq!(r.len(), 1);
    assert_eq!(r[0].job, j1);
    assert!(
        matches!(r[0].outcome, JobOutcome::Cancelled { .. }),
        "got {:?}",
        r[0].outcome
    );
}

#[test]
fn deadline_cancels_admitted_job_mid_run() {
    let svc = service(ServiceConfig {
        workers: 2,
        slice_iters: 4,
        ..ServiceConfig::default()
    });
    svc.register_tenant(1, 1);
    let sid = svc.create_session(1, spec(16, 16, 4, SolverKind::Cg)).unwrap();
    let n = 16 * 16;
    let mut r = SolveRequest::new(
        sid,
        rhs_vector::<f64>(n, 2),
        SolveControl {
            max_iters: usize::MAX / 2,
            ..SolveControl::default()
        },
    );
    // Far enough out to pass admission (empty queue estimates zero
    // wait), close enough to fire mid-solve.
    r.deadline = Some(Instant::now() + Duration::from_millis(50));
    svc.submit(1, r).unwrap();
    svc.run_until_idle();
    let resp = svc.take_responses();
    assert_eq!(resp.len(), 1);
    assert!(
        matches!(resp[0].outcome, JobOutcome::Cancelled { .. }),
        "got {:?}",
        resp[0].outcome
    );
}

#[test]
fn rhs_batches_solve_sequentially_in_one_job() {
    let svc = service(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    svc.register_tenant(1, 1);
    let sid = svc.create_session(1, spec(12, 12, 3, SolverKind::Cg)).unwrap();
    let n = 12 * 12;
    let mut r = SolveRequest::new(sid, rhs_vector::<f64>(n, 1), control());
    r.rhs_batch.push(rhs_vector::<f64>(n, 2));
    r.rhs_batch.push(rhs_vector::<f64>(n, 3));
    svc.submit(1, r).unwrap();
    svc.run_until_idle();
    let resp = svc.take_responses();
    assert_eq!(resp.len(), 1, "one batch = one response");
    assert!(resp[0].outcome.is_converged());
    // Three solves' worth of iterations.
    assert!(resp[0].iterations > 30, "iterations: {}", resp[0].iterations);
}

#[test]
fn chrome_trace_tags_spans_per_tenant() {
    let svc = service(ServiceConfig {
        workers: 2,
        slice_iters: 8,
        capture_events: true,
        ..ServiceConfig::default()
    });
    svc.register_tenant(1, 1);
    svc.register_tenant(2, 1);
    let s1 = svc.create_session(1, spec(12, 12, 3, SolverKind::Cg)).unwrap();
    let s2 = svc.create_session(2, spec(12, 12, 3, SolverKind::Cg)).unwrap();
    let n = 12 * 12;
    svc.submit(1, SolveRequest::new(s1, rhs_vector::<f64>(n, 1), control()))
        .unwrap();
    svc.submit(2, SolveRequest::new(s2, rhs_vector::<f64>(n, 2), control()))
        .unwrap();
    svc.run_until_idle();
    let json = svc.chrome_trace();
    assert!(json.contains("\"tenant-1\""), "tenant 1 process group");
    assert!(json.contains("\"tenant-2\""), "tenant 2 process group");
    assert!(json.contains("\"ph\":\"X\""), "duration events present");
    // Per-tenant metrics saw the work too.
    let m = svc.metrics();
    assert!(m[&1].tasks_executed > 0);
    assert!(m[&2].tasks_executed > 0);
    assert!(m[&1].slices > 0 && m[&2].slices > 0);
}

/// With span capture on, every slice boundary quiesces the runtime,
/// so each tenant's counter deltas are its own: two interleaved
/// tenants each execute exactly the tasks they submitted, and exactly
/// as many as their job takes when it runs alone.
#[test]
fn capture_events_attributes_tasks_to_tenants_exactly() {
    let jobs = [
        (1, spec(16, 16, 4, SolverKind::Cg), 16 * 16),
        (2, spec(12, 12, 4, SolverKind::BiCgStab), 12 * 12),
    ];
    let run = |tenants: &[u32]| {
        let svc = service(ServiceConfig {
            workers: 2,
            capture_events: true,
            ..ServiceConfig::default()
        });
        for &(tenant, ref spec, n) in jobs.iter().filter(|(t, _, _)| tenants.contains(t)) {
            svc.register_tenant(tenant, 1);
            let sid = svc.create_session(tenant, spec.clone()).unwrap();
            let req = SolveRequest::new(sid, rhs_vector::<f64>(n, u64::from(tenant)), control());
            svc.submit(tenant, req).unwrap();
        }
        svc.run_until_idle();
        assert!(svc.take_responses().iter().all(|r| r.outcome.is_converged()));
        svc.metrics()
    };
    let together = run(&[1, 2]);
    for tenant in [1, 2] {
        let m = &together[&tenant];
        let alone = run(&[tenant])[&tenant].tasks_executed;
        assert!(m.slices >= 2, "tenant {tenant}: the two jobs interleave");
        assert_eq!(
            (m.tasks_executed, m.tasks_submitted),
            (alone, alone),
            "tenant {tenant}: executed / submitted beside the other tenant, against alone"
        );
    }
}

#[test]
fn every_solver_kind_runs_as_a_session() {
    let kinds = [
        SolverKind::Cg,
        SolverKind::BiCg,
        SolverKind::BiCgStab,
        SolverKind::Cgs,
        SolverKind::Minres,
        SolverKind::Gmres { restart: 20 },
        SolverKind::Tfqmr,
        SolverKind::Chebyshev {
            lmin: 0.05,
            lmax: 8.0,
        },
    ];
    let svc = service(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    svc.register_tenant(1, 1);
    let n = 10 * 10;
    for kind in kinds {
        let sid = svc.create_session(1, spec(10, 10, 2, kind)).unwrap();
        let ctl = match kind {
            // Chebyshev's rate is bound-limited; give it headroom.
            SolverKind::Chebyshev { .. } => SolveControl::to_tolerance(1e-8, 4000),
            _ => control(),
        };
        svc.submit(1, SolveRequest::new(sid, rhs_vector::<f64>(n, 5), ctl))
            .unwrap();
        svc.run_until_idle();
        let resp = svc.take_responses();
        assert_eq!(resp.len(), 1);
        assert!(
            resp[0].outcome.is_converged(),
            "{kind:?} failed: {:?}",
            resp[0].outcome
        );
    }
}

#[test]
fn stencil_session_matches_assembled_bitwise() {
    // A stencil-described session (matrix-free operator, zero stored
    // value bytes) must reproduce the assembled session's numerical
    // trajectory sample for sample, bit for bit.
    let s = Stencil::lap3d7(8, 8, 8);
    let n = s.unknowns();
    let run = |spec: SessionSpec| -> Vec<(usize, u64)> {
        let svc = service(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        svc.register_tenant(1, 1);
        let sid = svc.create_session(1, spec).unwrap();
        let mut req = SolveRequest::new(sid, rhs_vector::<f64>(n, 9), control());
        req.capture_history = true;
        svc.submit(1, req).unwrap();
        svc.run_until_idle();
        let mut resp = svc.take_responses();
        assert_eq!(resp.len(), 1);
        let r = resp.pop().unwrap();
        assert!(r.outcome.is_converged(), "{:?}", r.outcome);
        r.residual_history
            .iter()
            .map(|&(i, v)| (i, v.to_bits()))
            .collect()
    };
    let implicit = run(SessionSpec::stencil(s, 4, SolverKind::Cg));
    let assembled = run(SessionSpec {
        matrix: Arc::new(s.to_csr::<f64, u64>()) as Arc<dyn SparseMatrix<f64>>,
        unknowns: n,
        pieces: 4,
        solver: SolverKind::Cg,
        stencil: None,
    });
    assert!(!implicit.is_empty());
    assert_eq!(implicit, assembled, "residual histories diverge");
}

/// Twelve jobs' worth of solves against one session, driven the way
/// the service drives them (`begin_solve` … `end_solve`): the session
/// must not age. Every job replays the traces the first one captured,
/// on the vectors the first one allocated, and walks the same
/// residual history bit for bit.
#[test]
fn twelve_jobs_on_one_session_do_not_age() {
    use kdr_core::{solve_traced, ExecBackend};
    use kdr_runtime::Runtime;
    use kdr_service::Session;

    let rt = Arc::new(Runtime::new(2));
    let mut session = Session::new(rt, 1, spec(16, 16, 4, SolverKind::Cg));
    let rhs = rhs_vector::<f64>(16 * 16, 42);
    let job = |session: &mut Session| {
        let (mut solver, mark) = session.begin_solve(&rhs, None);
        let (report, trace) = solve_traced(session.planner_mut(), solver.as_mut(), control());
        assert!(report.expect("CG on a Laplacian does not break down").converged);
        drop(solver);
        session.end_solve(mark);
        let history: Vec<(usize, u64)> = trace
            .residual_history
            .iter()
            .map(|&(i, r)| (i, r.to_bits()))
            .collect();
        let vectors = session.planner_mut().num_vectors();
        let (captured, cached) = session.planner_mut().with_backend(|b| {
            let exec = b
                .as_any()
                .downcast_mut::<ExecBackend<f64>>()
                .expect("sessions run on the exec backend");
            (exec.step_counters().0, exec.trace_cache_len())
        });
        (history, captured, cached, vectors)
    };
    let first = job(&mut session);
    assert!(first.1 > 0, "the first job captures its steps");
    let second = job(&mut session);
    assert_eq!(second.0, first.0);
    for n in 3..=12 {
        let again = job(&mut session);
        assert_eq!(again.0, first.0, "job {n}: residual history");
        assert_eq!(again.1, second.1, "job {n}: captured steps");
        assert_eq!(again.2, second.2, "job {n}: cached traces");
        assert_eq!(again.3, second.3, "job {n}: vectors allocated");
    }
    assert_eq!(session.jobs_completed(), 12);
}
