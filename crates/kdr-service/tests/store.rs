//! Cost-catalogue and durable-store integration tests: cold-tenant
//! deadline screening, hit/miss reconciliation, warm restarts (one
//! shard and two) with bit-identical replay, and stores that must
//! open as typed errors.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kdr_core::SolveControl;
use kdr_machine::MachineConfig;
use kdr_service::{
    RejectReason, ServiceConfig, SessionSpec, ShardConfig, ShardedService, SolveRequest,
    SolverKind,
};
use kdr_sparse::stencil::rhs_vector;
use kdr_sparse::{KernelKind, SparseMatrix, Stencil, StencilKind, StructureKey};
use kdr_store::{
    CatalogueKey, SharedCatalogue, StoreBundle, StoreError, StoreOperator, StoreSession, StoreTenant,
};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("kdr_service_store_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The single-runtime service: a one-shard fleet.
fn service(base: ServiceConfig) -> ShardedService {
    ShardedService::new(ShardConfig {
        shards: 1,
        base,
        ..ShardConfig::default()
    })
}

fn catalogue() -> SharedCatalogue {
    SharedCatalogue::new(MachineConfig::lassen(1))
}

/// The catalogue key of every tile of a matrix-free stencil session
/// whose pieces split the grid evenly: each tile's rows are one
/// piece.
fn stencil_key(s: &Stencil, pieces: usize) -> CatalogueKey {
    let rows = s.unknowns() / pieces as u64;
    CatalogueKey::new(
        StructureKey::for_stencil(s.kind.code(), s.kind.points() as usize, rows),
        KernelKind::Stencil,
        pieces,
    )
}

fn history_bits(history: &[(usize, f64)]) -> Vec<(usize, u64)> {
    history.iter().map(|&(i, r)| (i, r.to_bits())).collect()
}

/// The cold-tenant admission hole, closed: with a catalogue entry
/// predicting a long solve, a cold tenant's *first* job is screened
/// against the prediction (the queue has no EWMA yet) and rejected
/// when the deadline cannot be met; a generous deadline still admits.
/// A mean too large for the estimate to fit a `Duration` rejects the
/// same way instead of panicking, and still runs a job without a
/// deadline.
#[test]
fn cold_tenant_first_job_screens_against_catalogue_prediction() {
    let cat = catalogue();
    let s = Stencil::lap2d(8, 8);
    // 10 s/kernel-apply: far beyond any near deadline once scaled by
    // the admission iteration horizon.
    cat.insert_entry(stencil_key(&s, 2), 4, 10.0);
    let svc = service(ServiceConfig {
        workers: 2,
        catalogue: Some(cat),
        ..ServiceConfig::default()
    });
    svc.register_tenant(1, 1);
    let sid = svc.create_session(1, SessionSpec::stencil(s, 2, SolverKind::Cg)).unwrap();
    let control = SolveControl::to_tolerance(1e-10, 1000);

    let mut req = SolveRequest::new(sid, rhs_vector::<f64>(64, 3), control.clone());
    req.deadline = Some(Instant::now() + Duration::from_millis(1));
    match svc.submit(1, req) {
        Err(RejectReason::DeadlineUnmeetable { .. }) => {}
        other => panic!("cold tenant with a hopeless deadline admitted: {other:?}"),
    }

    let mut req = SolveRequest::new(sid, rhs_vector::<f64>(64, 3), control);
    req.deadline = Some(Instant::now() + Duration::from_secs(24 * 3600));
    svc.submit(1, req).expect("generous deadline admits");
    svc.run_until_idle();
    assert_eq!(svc.take_responses().len(), 1);

    // Any finite positive mean is a valid entry.
    let cat = catalogue();
    let s = Stencil::lap2d(8, 8);
    cat.insert_entry(stencil_key(&s, 2), 4, 1e300);
    let svc = service(ServiceConfig {
        workers: 2,
        catalogue: Some(cat),
        ..ServiceConfig::default()
    });
    svc.register_tenant(1, 1);
    let sid = svc
        .create_session(1, SessionSpec::stencil(s, 2, SolverKind::Cg))
        .unwrap();
    let control = SolveControl::to_tolerance(1e-10, 1000);
    let mut req = SolveRequest::new(sid, rhs_vector::<f64>(64, 3), control.clone());
    req.deadline = Some(Instant::now() + Duration::from_secs(24 * 3600));
    match svc.submit(1, req) {
        Err(RejectReason::DeadlineUnmeetable { .. }) => {}
        other => panic!("a deadline screened against a 1e300 s mean: {other:?}"),
    }
    svc.submit(1, SolveRequest::new(sid, rhs_vector::<f64>(64, 3), control))
        .expect("a job without a deadline is not screened");
    svc.run_until_idle();
    let rs = svc.take_responses();
    assert_eq!(rs.len(), 1);
    assert!(rs[0].outcome.is_converged());
}

/// Every admitted job counts as exactly one catalogue hit or miss in
/// its tenant's metrics — `hits + misses == admitted`; rejected jobs
/// count as neither.
#[test]
fn catalogue_hits_and_misses_reconcile_with_admissions() {
    let cat = catalogue();
    let warm_stencil = Stencil::lap2d(8, 8);
    cat.insert_entry(stencil_key(&warm_stencil, 2), 4, 1.0e-6);
    let svc = service(ServiceConfig {
        workers: 2,
        catalogue: Some(cat),
        ..ServiceConfig::default()
    });
    svc.register_tenant(1, 1);
    svc.register_tenant(2, 1);
    // Tenant 1's session has an observed entry (hits); tenant 2's
    // (different shape, no entry) predicts from the prior (misses).
    let s1 = svc.create_session(1, SessionSpec::stencil(warm_stencil, 2, SolverKind::Cg)).unwrap();
    let s2 = svc
        .create_session(2, SessionSpec::stencil(Stencil::lap2d(12, 12), 2, SolverKind::Cg))
        .unwrap();
    let control = SolveControl::to_tolerance(1e-10, 1000);

    svc.submit(1, SolveRequest::new(s1, rhs_vector::<f64>(64, 1), control.clone()))
        .unwrap();
    svc.submit(2, SolveRequest::new(s2, rhs_vector::<f64>(144, 2), control.clone()))
        .unwrap();
    svc.submit(2, SolveRequest::new(s2, rhs_vector::<f64>(144, 3), control.clone()))
        .unwrap();
    // A rejection counts as neither hit nor miss.
    let mut hopeless = SolveRequest::new(s1, rhs_vector::<f64>(64, 4), control);
    hopeless.deadline = Some(Instant::now());
    assert!(svc.submit(1, hopeless).is_err());

    svc.run_until_idle();
    let metrics = svc.metrics();
    let (hits, misses) = metrics
        .values()
        .fold((0, 0), |(h, m), t| (h + t.catalogue_hits, m + t.catalogue_misses));
    assert_eq!(hits + misses, 3, "hits + misses must equal admitted jobs");
    assert_eq!(metrics[&1].catalogue_hits, 1);
    assert_eq!(metrics[&1].catalogue_misses, 0);
    assert_eq!(metrics[&2].catalogue_misses, 2);
    // Completed jobs also feed the prediction-error gauge.
    assert!(metrics[&1].prediction_error_pct().is_some());
}

/// What a slice measures is what admission predicts through: once a
/// session's first job has completed, its next job is admitted as a
/// catalogue hit, and every key the catalogue has observed carries
/// the session's piece count — on one shard and on two.
#[test]
fn a_completed_job_makes_the_next_one_a_catalogue_hit() {
    for shards in [1, 2] {
        next_job_is_a_catalogue_hit(shards);
    }
}

fn next_job_is_a_catalogue_hit(shards: usize) {
    const PIECES: usize = 4;
    let cat = catalogue();
    let fleet = ShardedService::new(ShardConfig {
        shards,
        base: ServiceConfig {
            workers: 2,
            catalogue: Some(cat.clone()),
            ..ServiceConfig::default()
        },
        ..ShardConfig::default()
    });
    let assembled = Stencil::lap2d(12, 12);
    let specs = [
        SessionSpec::stencil(Stencil::lap2d(16, 16), PIECES, SolverKind::Cg),
        SessionSpec {
            matrix: Arc::new(assembled.to_csr::<f64, u64>()),
            unknowns: assembled.unknowns(),
            pieces: PIECES,
            solver: SolverKind::Cg,
            stencil: None,
        },
    ];
    let mut sessions = Vec::new();
    for (tenant, spec) in (1..).zip(specs) {
        fleet.register_tenant(tenant, 1);
        let n = spec.unknowns;
        sessions.push((tenant, fleet.create_session(tenant, spec).unwrap(), n));
    }
    let control = SolveControl::to_tolerance(1e-10, 1000);
    let submit_all = || {
        for &(tenant, sid, n) in &sessions {
            let req = SolveRequest::new(sid, rhs_vector::<f64>(n, 7), control.clone());
            fleet.submit(tenant, req).unwrap();
        }
    };

    submit_all();
    let first = fleet.metrics();
    fleet.run_until_idle();
    submit_all();
    let second = fleet.metrics();
    fleet.run_until_idle();
    assert!(fleet.take_responses().iter().all(|r| r.outcome.is_converged()));
    for &(tenant, _, _) in &sessions {
        let (a, b) = (&first[&tenant], &second[&tenant]);
        assert_eq!(
            (a.catalogue_hits, a.catalogue_misses),
            (0, 1),
            "{shards} shards, tenant {tenant}: a fresh catalogue has observed nothing"
        );
        assert_eq!(
            (b.catalogue_hits, b.catalogue_misses),
            (1, 1),
            "{shards} shards, tenant {tenant}: the first job observed every tile's key"
        );
    }
    let observed = cat.export();
    let pieces_log2 = stencil_key(&assembled, PIECES).pieces_log2;
    assert!(!observed.is_empty());
    for (key, _, _) in observed {
        assert_eq!(
            key.pieces_log2, pieces_log2,
            "{shards} shards: {key:?} is not keyed by the piece count"
        );
    }
}

/// Warm restart: a fleet with one stencil and one assembled session
/// round-trips through one store file. Consistent hashing puts tenants
/// back on their shards, sessions come back warm (plan finalized and
/// trace captured before the first real job) under their old ids, and
/// both tenants replay bit-identically.
#[test]
fn open_store_warm_starts_with_bit_identical_replay() {
    for shards in [1, 2] {
        warm_restart_replays_bit_identically(shards);
    }
}

fn warm_restart_replays_bit_identically(shards: usize) {
    let path = tmp(&format!("warm_restart_{shards}.kdrstore"));
    let control = SolveControl::to_tolerance(1e-10, 1000);
    let assembled = || -> SessionSpec {
        let s = Stencil::lap2d(12, 12);
        let m: Arc<dyn SparseMatrix<f64>> = Arc::new(s.to_csr::<f64, u64>());
        SessionSpec {
            matrix: m,
            unknowns: s.unknowns(),
            pieces: 3,
            solver: SolverKind::BiCgStab,
            stencil: None,
        }
    };
    let cfg = || ShardConfig {
        shards,
        base: ServiceConfig {
            workers: 2,
            catalogue: Some(catalogue()),
            ..ServiceConfig::default()
        },
        ..ShardConfig::default()
    };

    let mut cold = Vec::new();
    let placements;
    {
        let fleet = ShardedService::new(cfg());
        fleet.register_tenant(1, 1);
        fleet.register_tenant(2, 2);
        let s1 = fleet
            .create_session(1, SessionSpec::stencil(Stencil::lap2d(16, 16), 4, SolverKind::Cg))
            .unwrap();
        let s2 = fleet.create_session(2, assembled()).unwrap();
        for (tenant, sid, n, seed) in [(1, s1, 256, 5), (2, s2, 144, 6)] {
            let mut req =
                SolveRequest::new(sid, rhs_vector::<f64>(n, seed), control.clone());
            req.capture_history = true;
            fleet.submit(tenant, req).unwrap();
        }
        fleet.run_until_idle();
        let mut rs = fleet.take_responses();
        rs.sort_by_key(|r| r.tenant);
        assert_eq!(rs.len(), 2);
        for r in &rs {
            assert!(r.outcome.is_converged());
            assert!(!r.warm, "first job on a fresh service is cold");
            cold.push((r.session, history_bits(&r.residual_history)));
        }
        placements = (fleet.shard_of(1), fleet.shard_of(2));
        fleet.save_store(&path).unwrap();
    }

    let fleet = ShardedService::open_store(&path, cfg()).unwrap();
    assert_eq!((fleet.shard_of(1), fleet.shard_of(2)), placements);
    for (tenant, &(sid, _)) in [1u32, 2].iter().zip(cold.iter()) {
        let n = if *tenant == 1 { 256 } else { 144 };
        let seed = if *tenant == 1 { 5 } else { 6 };
        let mut req = SolveRequest::new(sid, rhs_vector::<f64>(n, seed), control.clone());
        req.capture_history = true;
        fleet.submit(*tenant, req).unwrap();
    }
    fleet.run_until_idle();
    let mut rs = fleet.take_responses();
    rs.sort_by_key(|r| r.tenant);
    assert_eq!(rs.len(), 2);
    for (r, (sid, history)) in rs.iter().zip(cold.iter()) {
        assert_eq!(r.session, *sid);
        assert!(r.warm, "restored session must start warm");
        assert_eq!(
            &history_bits(&r.residual_history),
            history,
            "replay across a save/open cycle must be bit-identical"
        );
    }
    // Session ids continue where the saved fleet left off.
    let fresh = fleet.create_session(2, assembled()).unwrap();
    assert!(cold.iter().all(|&(sid, _)| sid != fresh));
    std::fs::remove_file(&path).unwrap();
}

/// Corrupted and truncated store files surface as typed errors from
/// the service-level open paths — never a panic, never a partial
/// service.
#[test]
fn corrupted_stores_are_typed_errors_at_the_service_level() {
    let path = tmp("corrupt.kdrstore");
    // A valid store, then flip a payload byte.
    let svc = service(ServiceConfig {
        catalogue: Some(catalogue()),
        ..ServiceConfig::default()
    });
    svc.register_tenant(1, 1);
    svc.create_session(1, SessionSpec::stencil(Stencil::lap2d(8, 8), 2, SolverKind::Cg)).unwrap();
    svc.save_store(&path).unwrap();

    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        ShardedService::open_store(&path, ShardConfig::default()),
        Err(StoreError::ChecksumMismatch { .. } | StoreError::Malformed { .. })
    ));

    // Truncation at every prefix length stays a typed error too.
    let good = {
        bytes[mid] ^= 0xff;
        bytes
    };
    for cut in [0, 1, good.len() / 3, good.len() - 1] {
        std::fs::write(&path, &good[..cut]).unwrap();
        assert!(
            ShardedService::open_store(&path, ShardConfig::default()).is_err(),
            "truncation at {cut} must not open"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

/// Save a one-shard fleet holding `sessions`, each registered to its
/// tenant, and read the file back as the raw bundle, for tests that corrupt its
/// records semantically before reopening it.
fn saved_bundle(name: &str, sessions: Vec<(u32, SessionSpec)>) -> (PathBuf, StoreBundle) {
    let path = tmp(name);
    let fleet = service(ServiceConfig::default());
    for (tenant, spec) in sessions {
        fleet.register_tenant(tenant, 1);
        fleet.create_session(tenant, spec).unwrap();
    }
    fleet.save_store(&path).unwrap();
    let bundle = kdr_store::store::load(&path).unwrap();
    (path, bundle)
}

fn opens_as_malformed(path: &Path, bundle: &StoreBundle) -> bool {
    kdr_store::store::save(path, bundle).unwrap();
    matches!(
        ShardedService::open_store(path, ShardConfig { shards: 1, ..ShardConfig::default() }),
        Err(StoreError::Malformed { .. })
    )
}

/// A record whose solver parameter its constructor asserts against —
/// GMRES `restart = 0`, s-step `s = 0`, Chebyshev bounds outside
/// `0 < lmin <= lmax` — opens as a typed error, not a panic while the
/// warm session is pre-warmed.
#[test]
fn a_solver_parameter_its_constructor_rejects_opens_as_malformed() {
    let grid = || Stencil::lap2d(8, 8);
    let (path, saved) = saved_bundle(
        "bad_solver_parameter.kdrstore",
        vec![
            (1, SessionSpec::stencil(grid(), 2, SolverKind::Gmres { restart: 5 })),
            (1, SessionSpec::stencil(grid(), 2, SolverKind::SStepCg { s: 3 })),
            (1, SessionSpec::stencil(grid(), 2, SolverKind::Chebyshev { lmin: 0.1, lmax: 8.0 })),
        ],
    );
    type Spoil = fn(&mut StoreSession);
    let spoils: [(usize, Spoil); 4] = [
        (0, |s| s.solver_p0 = 0),
        (1, |s| s.solver_p0 = 0),
        (2, |s| s.solver_f0 = 0.0),
        (2, |s| s.solver_f1 = s.solver_f0 / 2.0),
    ];
    for (k, (idx, spoil)) in spoils.into_iter().enumerate() {
        let mut bundle = saved.clone();
        let mut session = bundle.sessions[idx].clone();
        spoil(&mut session);
        session.jobs_completed = 1;
        bundle.sessions = vec![session];
        assert!(opens_as_malformed(&path, &bundle), "spoiled record {k}");
    }
    std::fs::remove_file(&path).unwrap();
}

/// A stencil record `Stencil::new` or `Stencil::unknowns` would panic
/// on — an extent other than 1 on a dimension its kind does not have,
/// or extents whose product overflows — opens as a typed error.
#[test]
fn a_stencil_record_its_constructor_rejects_opens_as_malformed() {
    let (path, saved) = saved_bundle(
        "bad_stencil_extents.kdrstore",
        vec![(1, SessionSpec::stencil(Stencil::lap2d(8, 8), 2, SolverKind::Cg))],
    );
    // (kind, nx, ny, nz, unknowns): the first two keep the unknowns
    // consistent with the extents, the last overflows a u64.
    let records = [
        (StencilKind::Lap2D5, 8, 8, 2, 128),
        (StencilKind::Lap1D3, 64, 3, 1, 192),
        (StencilKind::Lap3D7, 1 << 22, 1 << 22, 1 << 22, 64),
    ];
    for (k, (kind, nx, ny, nz, unknowns)) in records.into_iter().enumerate() {
        let mut bundle = saved.clone();
        let session = &mut bundle.sessions[0];
        session.operator = StoreOperator::Stencil {
            kind: kind.code(),
            nx,
            ny,
            nz,
        };
        session.unknowns = unknowns;
        assert!(opens_as_malformed(&path, &bundle), "spoiled record {k}");
    }
    std::fs::remove_file(&path).unwrap();
}

/// A session record whose piece count the partition cannot hold —
/// 2^40 pieces, or one more piece than there are unknowns — opens as
/// a typed error instead of aborting while the partition is built.
#[test]
fn a_piece_count_the_partition_cannot_hold_opens_as_malformed() {
    let (path, saved) = saved_bundle(
        "bad_piece_count.kdrstore",
        vec![(1, SessionSpec::stencil(Stencil::lap1d(8), 2, SolverKind::Cg))],
    );
    assert!(!opens_as_malformed(&path, &saved), "the saved store itself is sound");
    for pieces in [1 << 40, 9] {
        let mut bundle = saved.clone();
        bundle.sessions[0].pieces = pieces;
        assert!(opens_as_malformed(&path, &bundle), "{pieces} pieces on 8 unknowns");
    }
    std::fs::remove_file(&path).unwrap();
}

/// The kernel byte is written as Auto, and a known code from an older
/// file is validated, not used: an assembled lap2d record naming `Dia`
/// (what older builds wrote for it) and the same record naming Auto
/// both open, lower to the same kernels, run their first job warm and
/// return bit-identical residual histories. An unknown code still
/// opens as a typed error.
#[test]
fn a_kernel_byte_from_an_older_file_is_validated_not_used() {
    let grid = Stencil::lap2d(12, 12);
    let (path, saved) = saved_bundle(
        "kernel_byte.kdrstore",
        vec![(
            1,
            SessionSpec {
                matrix: Arc::new(grid.to_csr::<f64, u64>()),
                unknowns: grid.unknowns(),
                pieces: 4,
                solver: SolverKind::Cg,
                stencil: None,
            },
        )],
    );
    assert_eq!(saved.sessions[0].kernel_code, 255, "the kernel byte is written as Auto");
    let control = SolveControl::to_tolerance(1e-10, 1000);
    let reopen = |kernel_code: u8| {
        let mut bundle = saved.clone();
        bundle.sessions[0].kernel_code = kernel_code;
        bundle.sessions[0].jobs_completed = 1;
        kdr_store::store::save(&path, &bundle).unwrap();
        let fleet = ShardedService::open_store(
            &path,
            ShardConfig {
                shards: 1,
                base: ServiceConfig {
                    workers: 2,
                    ..ServiceConfig::default()
                },
                ..ShardConfig::default()
            },
        )
        .unwrap();
        let sid = bundle.sessions[0].session as usize;
        let mut req = SolveRequest::new(sid, rhs_vector::<f64>(144, 9), control.clone());
        req.capture_history = true;
        fleet.submit(1, req).unwrap();
        fleet.run_until_idle();
        let rs = fleet.take_responses();
        assert_eq!(rs.len(), 1);
        assert!(rs[0].outcome.is_converged());
        assert!(rs[0].warm, "kernel code {kernel_code}: the first job must run warm");
        let mut kernels = std::collections::BTreeMap::new();
        for (name, &n) in &fleet.shard(0).runtime().metrics().task_counts {
            if let Some(kind) = KernelKind::from_task_name(name) {
                *kernels.entry(kind.name()).or_insert(0) += n;
            }
        }
        (kernels, history_bits(&rs[0].residual_history))
    };
    let (dia_kernels, dia_history) = reopen(KernelKind::Dia.code());
    let (auto_kernels, auto_history) = reopen(255);
    assert_eq!(dia_kernels.keys().copied().collect::<Vec<_>>(), ["dia"], "{dia_kernels:?}");
    assert_eq!(dia_kernels, auto_kernels);
    assert_eq!(dia_history, auto_history, "the kernel byte must not move a bit");
    let mut unknown = saved.clone();
    unknown.sessions[0].kernel_code = 200;
    assert!(opens_as_malformed(&path, &unknown), "kernel code 200");
    std::fs::remove_file(&path).unwrap();
}

/// A store that repeats a tenant id or a session id opens as a typed
/// error: neither record may silently win, and a session id must not
/// resolve to another tenant's session.
#[test]
fn a_repeated_tenant_or_session_id_opens_as_malformed() {
    let (path, saved) = saved_bundle(
        "repeated_ids.kdrstore",
        vec![
            (1, SessionSpec::stencil(Stencil::lap2d(8, 8), 2, SolverKind::Cg)),
            (2, SessionSpec::stencil(Stencil::lap2d(12, 12), 2, SolverKind::Cg)),
        ],
    );
    assert!(!opens_as_malformed(&path, &saved), "the saved store itself is sound");
    let mut twice = saved.clone();
    twice.tenants.push(StoreTenant { tenant: 2, weight: 7 });
    assert!(opens_as_malformed(&path, &twice), "tenant 2 twice");
    let mut shared = saved.clone();
    shared.sessions[1].session = shared.sessions[0].session;
    assert!(opens_as_malformed(&path, &shared), "one session id for both tenants");
    std::fs::remove_file(&path).unwrap();
}
