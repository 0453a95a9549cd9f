//! The front door under adversarial requests: solve controls with NaN,
//! negative or zero tolerances, zero budgets, a zero check cadence and
//! NaN or negative breakdown thresholds; deadlines that are absent,
//! already past or short; right-hand sides that are empty, of the wrong
//! length or full of NaN. Against a two-shard fleet with one small
//! session and a cost catalogue, every `submit` does one of two things:
//!
//! * it rejects with a typed `RejectReason` — the one its request
//!   earns, where that is decided by the request alone — spends no job
//!   id, and changes no front-door state and no tenant metric but the
//!   tenant's `jobs_rejected`;
//! * or it admits a job that `run_until_idle` ends with exactly one
//!   response and a typed `JobOutcome` its request allows: converged
//!   only under a positive tolerance and a NaN-free right-hand side,
//!   capped only under a finite budget, cancelled only by a deadline.
//!
//! No panic and no hang: a budget of `usize::MAX` iterations is only
//! drawn together with a short deadline, which cancels the job.
//!
//! `create_session` meets the same two outcomes under adversarial
//! specs — piece counts of zero, one too many or one per unknown, an
//! unknown count that misses the operator, an assembled operator one
//! column wider than it is tall, 1-D to 3-D stencil extents, and every
//! solver with parameters in and out of range. A spec is rejected with
//! the typed reason it earns by itself, spending no session id and
//! changing nothing at the front door, or it becomes a session whose
//! first job ends with exactly one response and a typed outcome.

use std::time::{Duration, Instant};

use kdr_core::SolveControl;
use kdr_machine::MachineConfig;
use kdr_service::{
    JobOutcome, RejectReason, ServiceConfig, SessionSpec, ShardConfig, ShardedService,
    SolveRequest, SolverKind,
};
use std::sync::Arc;

use kdr_sparse::stencil::rhs_vector;
use kdr_sparse::{Coo, SparseMatrix, Stencil, StencilKind, Triples};
use kdr_store::SharedCatalogue;
use proptest::prelude::*;

/// Unknowns of the session every request is sent to (lap2d 8²).
const N: usize = 64;

#[derive(Clone, Debug)]
enum Deadline {
    None,
    Past,
    /// This many milliseconds after submission.
    Short(u64),
}

#[derive(Clone, Debug)]
enum Rhs {
    /// `count` right-hand sides of the session's length.
    Good {
        count: usize,
    },
    /// One of the session's length with NaN at `at`.
    Nan {
        at: usize,
    },
    /// A good one, then one of length `len` (never `N`).
    WrongLength {
        len: usize,
    },
    Empty,
}

#[derive(Clone, Debug)]
struct Case {
    tol: f64,
    /// `None` stands for `usize::MAX`, drawn only under a short
    /// deadline.
    max_iters: Option<usize>,
    check_every: usize,
    breakdown_eps: f64,
    deadline: Deadline,
    rhs: Rhs,
}

fn arb_f64(values: &'static [f64]) -> impl Strategy<Value = f64> {
    (0..values.len()).prop_map(move |i| values[i])
}

fn arb_case() -> impl Strategy<Value = Case> {
    let control = (
        arb_f64(&[f64::NAN, -1.0, 0.0, 1e-8, f64::INFINITY]),
        prop_oneof![Just(0usize), 1usize..40],
        prop_oneof![Just(0usize), 1usize..6],
        arb_f64(&[f64::NAN, -1.0, 0.0, 1e-30]),
        0u8..4,
    );
    let deadline = prop_oneof![
        Just(Deadline::None),
        Just(Deadline::Past),
        (1u64..20).prop_map(Deadline::Short),
    ];
    let rhs = prop_oneof![
        (1usize..3).prop_map(|count| Rhs::Good { count }),
        (0..N).prop_map(|at| Rhs::Nan { at }),
        (0..2 * N).prop_map(|len| Rhs::WrongLength {
            len: if len == N { 0 } else { len }
        }),
        Just(Rhs::Empty),
    ];
    (control, deadline, rhs).prop_map(
        |((tol, iters, check_every, breakdown_eps, huge), deadline, rhs)| {
            let short = matches!(deadline, Deadline::Short(_));
            Case {
                tol,
                max_iters: if short && huge == 0 {
                    None
                } else {
                    Some(iters)
                },
                check_every,
                breakdown_eps,
                deadline,
                rhs,
            }
        },
    )
}

fn request(session: usize, case: &Case) -> SolveRequest {
    let control = SolveControl {
        max_iters: case.max_iters.unwrap_or(usize::MAX),
        tol: case.tol,
        check_every: case.check_every,
        breakdown_eps: case.breakdown_eps,
        ..SolveControl::default()
    };
    let good = || rhs_vector::<f64>(N as u64, 7);
    let rhs_batch = match case.rhs {
        Rhs::Good { count } => vec![good(); count],
        Rhs::Nan { at } => {
            let mut b = good();
            b[at] = f64::NAN;
            vec![b]
        }
        Rhs::WrongLength { len } => vec![good(), vec![1.0; len]],
        Rhs::Empty => Vec::new(),
    };
    let now = Instant::now();
    SolveRequest {
        session,
        rhs_batch,
        control,
        deadline: match case.deadline {
            Deadline::None => None,
            Deadline::Past => Some(now - Duration::from_millis(1)),
            Deadline::Short(ms) => Some(now + Duration::from_millis(ms)),
        },
        capture_history: false,
    }
}

/// The reject a request earns by itself, before the queue is asked.
fn earned_reject(case: &Case) -> Option<RejectReason> {
    match case.rhs {
        Rhs::Empty => Some(RejectReason::EmptyBatch),
        Rhs::WrongLength { len } => Some(RejectReason::BadRhsLength {
            expected: N as u64,
            got: len,
        }),
        _ => None,
    }
}

/// Everything observable at the front door, with tenant 1's reject
/// count taken out (a tenant with no entry yet reads as all zeros).
fn front_door(fleet: &ShardedService) -> (String, u64) {
    let mut tenant = fleet.metrics().remove(&1).unwrap_or_default();
    let rejected = std::mem::take(&mut tenant.jobs_rejected);
    let loads = fleet.loads();
    let state = format!("{tenant:?} {loads:?} {:?}", fleet.supervisor_stats());
    (state, rejected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_submit_rejects_typed_untouched_or_ends_typed(
        cases in prop::collection::vec(arb_case(), 1..7)
    ) {
        let fleet = ShardedService::new(ShardConfig {
            shards: 2,
            base: ServiceConfig {
                workers: 1,
                slice_iters: 8,
                catalogue: Some(SharedCatalogue::new(MachineConfig::lassen(1))),
                ..ServiceConfig::default()
            },
            ..ShardConfig::default()
        });
        fleet.register_tenant(1, 1);
        let spec = SessionSpec::stencil(Stencil::lap2d(8, 8), 2, SolverKind::Cg);
        let session = fleet.create_session(1, spec).unwrap();

        let mut admitted = Vec::new();
        for case in &cases {
            let (before, rejected) = front_door(&fleet);
            match fleet.submit(1, request(session, case)) {
                Ok(job) => {
                    prop_assert_eq!(earned_reject(case), None, "{:?} was admitted", case);
                    prop_assert!(!matches!(case.deadline, Deadline::Past), "{:?} was admitted", case);
                    prop_assert_eq!(job, admitted.len() as u64, "job ids are spent only on admission");
                    admitted.push((job, case));
                }
                Err(reason) => {
                    match (&reason, earned_reject(case)) {
                        (_, Some(earned)) => prop_assert_eq!(&reason, &earned),
                        (RejectReason::DeadlineUnmeetable { .. }, None) => {
                            prop_assert!(!matches!(case.deadline, Deadline::None), "{:?}", case)
                        }
                        (other, None) => panic!("{case:?} rejected as {other}"),
                    }
                    let (after, rejected_after) = front_door(&fleet);
                    prop_assert_eq!(after, before, "{:?} changed the front door", case);
                    prop_assert_eq!(rejected_after, rejected + 1);
                }
            }
        }

        fleet.run_until_idle();
        let mut responses = fleet.take_responses();
        responses.sort_by_key(|r| r.job);
        let jobs: Vec<u64> = admitted.iter().map(|&(job, _)| job).collect();
        prop_assert_eq!(responses.iter().map(|r| r.job).collect::<Vec<_>>(), jobs, "one response per job");
        for (r, (_, case)) in responses.iter().zip(&admitted) {
            let ended = match r.outcome {
                // Only a positive tolerance is tested, and a NaN
                // right-hand side never passes one.
                JobOutcome::Converged { .. } => case.tol > 0.0 && !matches!(case.rhs, Rhs::Nan { .. }),
                JobOutcome::Capped { .. } => case.max_iters.is_some(),
                // Nothing calls `cancel_job`: only a deadline cancels.
                JobOutcome::Cancelled { .. } => !matches!(case.deadline, Deadline::None),
                JobOutcome::Failed { .. } | JobOutcome::RetryExhausted { .. } => true,
            };
            prop_assert!(ended, "{:?} ended as {:?}", case, r.outcome);
        }
    }
}

/// How a drawn spec presents its stencil's operator.
#[derive(Clone, Copy, Debug)]
enum Form {
    MatrixFree,
    Assembled,
    /// Assembled, with one empty column more than it has rows.
    Wider,
}

/// One drawn `create_session` spec: a stencil's operator as `form`
/// presents it, claimed over `unknowns`.
#[derive(Clone, Debug)]
struct SpecCase {
    stencil: Stencil,
    form: Form,
    unknowns: u64,
    pieces: usize,
    solver: SolverKind,
}

impl SpecCase {
    /// The operator's rows and columns.
    fn operator_size(&self) -> (u64, u64) {
        let n = self.stencil.unknowns();
        match self.form {
            Form::Wider => (n, n + 1),
            _ => (n, n),
        }
    }

    fn spec(&self) -> SessionSpec {
        let s = self.stencil;
        let matrix_free = SessionSpec {
            unknowns: self.unknowns,
            ..SessionSpec::stencil(s, self.pieces, self.solver)
        };
        let matrix: Arc<dyn SparseMatrix<f64>> = match self.form {
            Form::MatrixFree => return matrix_free,
            Form::Assembled => Arc::new(s.to_csr::<f64, u64>()),
            Form::Wider => {
                let (rows, cols) = self.operator_size();
                let mut t = Triples::new(rows, cols);
                s.to_csr::<f64, u64>()
                    .for_each_entry(&mut |_, r, c, v| t.push(r, c, v));
                Arc::new(Coo::<f64, u64>::from_triples(t))
            }
        };
        SessionSpec {
            matrix,
            stencil: None,
            ..matrix_free
        }
    }

    /// The reject the spec earns by itself, in the order the front
    /// door checks.
    fn earned_reject(&self) -> Option<RejectReason> {
        let (pieces, unknowns) = (self.pieces, self.unknowns);
        let (rows, cols) = self.operator_size();
        let solver_ok = match self.solver {
            SolverKind::Gmres { restart } => restart >= 1,
            SolverKind::SStepCg { s } => s >= 1,
            SolverKind::Chebyshev { lmin, lmax } => lmin > 0.0 && lmax >= lmin,
            _ => true,
        };
        if pieces == 0 || pieces as u64 > unknowns {
            Some(RejectReason::BadPieceCount { pieces, unknowns })
        } else if rows != unknowns || cols != unknowns {
            Some(RejectReason::NotSquareOverUnknowns {
                rows,
                cols,
                unknowns,
            })
        } else if !solver_ok {
            Some(RejectReason::BadSolverParameter {
                solver: self.solver,
            })
        } else {
            None
        }
    }
}

fn arb_solver() -> impl Strategy<Value = SolverKind> {
    let bound = || arb_f64(&[f64::NAN, -1.0, 0.0, 0.5, 8.0, f64::INFINITY]);
    (0u8..12, 0usize..5, bound(), bound()).prop_map(|(code, p, lmin, lmax)| match code {
        0 => SolverKind::Cg,
        1 => SolverKind::BiCg,
        2 => SolverKind::BiCgStab,
        3 => SolverKind::Cgs,
        4 => SolverKind::Minres,
        5 => SolverKind::Gmres { restart: p },
        6 => SolverKind::Tfqmr,
        7 => SolverKind::FusedCg,
        8 => SolverKind::PipelinedCg,
        9 => SolverKind::PipelinedCr,
        10 => SolverKind::SStepCg { s: p },
        _ => SolverKind::Chebyshev { lmin, lmax },
    })
}

fn arb_spec_case() -> impl Strategy<Value = SpecCase> {
    let extents = (0u8..4, 1u64..6, 1u64..6, 1u64..4);
    (extents, 0u8..5, 0u8..8, 0u8..6, 1usize..9, arb_solver()).prop_map(
        |((code, a, b, c), form, unknowns, pieces, few, solver)| {
            let kind = StencilKind::from_code(code).unwrap();
            let stencil = match kind.dims() {
                1 => Stencil::new(kind, a * b, 1, 1),
                2 => Stencil::new(kind, a, b, 1),
                _ => Stencil::new(kind, a, b.min(3), c),
            };
            let n = stencil.unknowns();
            let unknowns = match unknowns {
                0 => n + 1,
                1 => n - 1,
                2 => 2 * n,
                _ => n,
            };
            SpecCase {
                stencil,
                form: [
                    Form::MatrixFree,
                    Form::Assembled,
                    Form::Wider,
                    Form::MatrixFree,
                    Form::Assembled,
                ][form as usize],
                unknowns,
                pieces: [0, n as usize, n as usize + 1, few, few, few][pieces as usize],
                solver,
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_create_session_rejects_typed_untouched_or_runs_its_first_job_typed(
        cases in prop::collection::vec(arb_spec_case(), 1..6)
    ) {
        let fleet = ShardedService::new(ShardConfig {
            shards: 2,
            base: ServiceConfig {
                workers: 1,
                slice_iters: 8,
                catalogue: Some(SharedCatalogue::new(MachineConfig::lassen(1))),
                ..ServiceConfig::default()
            },
            ..ShardConfig::default()
        });
        fleet.register_tenant(1, 1);
        let mut jobs = 0;
        for case in &cases {
            let before = front_door(&fleet);
            match fleet.create_session(1, case.spec()) {
                Ok(session) => {
                    prop_assert!(case.earned_reject().is_none(), "{:?} was accepted", case);
                    prop_assert_eq!(session, jobs as usize, "session ids are spent only on acceptance");
                    let control = SolveControl::to_tolerance(1e-8, 40);
                    let rhs = rhs_vector::<f64>(case.unknowns, 7);
                    let job = fleet.submit(1, SolveRequest::new(session, rhs, control)).unwrap();
                    prop_assert_eq!(job, jobs);
                    jobs += 1;
                }
                Err(reason) => {
                    let earned = case.earned_reject();
                    prop_assert_eq!(format!("{:?}", Some(reason)), format!("{earned:?}"));
                    prop_assert_eq!(front_door(&fleet), before, "{:?} changed the front door", case);
                }
            }
        }
        fleet.run_until_idle();
        let mut responses = fleet.take_responses();
        responses.sort_by_key(|r| r.job);
        let ids: Vec<u64> = responses.iter().map(|r| r.job).collect();
        prop_assert_eq!(ids, (0..jobs).collect::<Vec<_>>(), "one response per job");
    }
}
