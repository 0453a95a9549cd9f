//! Fence-minimal solver tests: the pipelined/fused/s-step CG
//! variants must converge to the classic-CG solution, stay bitwise
//! deterministic across runs, spend exactly one reduction stage per
//! iteration, and survive breakdown and injected faults.

use std::sync::Arc;

use kdr_core::{
    solve, solve_recoverable, BreakdownKind, CgSolver, ExecBackend, FusedCgSolver,
    PipelinedCgSolver, PipelinedCrSolver, Planner, RecoveryPolicy, SStepCgSolver, SolveControl,
    SolveError, Solver, SOL,
};
use kdr_index::Partition;
use kdr_runtime::{FaultKind, FaultPlan, FaultSpec, FireSchedule};
use kdr_sparse::stencil::rhs_vector;
use kdr_sparse::{Csr, SparseMatrix, Stencil, Triples};
use proptest::prelude::*;

fn triples_planner(t: &Triples<f64>, b: &[f64], pieces: usize, workers: usize) -> Planner<f64> {
    let n = t.rows();
    let m: Arc<dyn SparseMatrix<f64>> = Arc::new(Csr::<f64, u64>::from_triples(t.clone()));
    let part = Partition::equal_blocks(n, pieces);
    let mut planner = Planner::new(Box::new(ExecBackend::<f64>::new(workers)));
    let d = planner.add_sol_vector(n, Some(part.clone()));
    let r = planner.add_rhs_vector(n, Some(part));
    planner.add_operator(m, d, r);
    planner.set_rhs_data(r, b);
    planner
}

fn stencil_planner(nx: u64, ny: u64, pieces: usize, workers: usize) -> (Planner<f64>, Vec<f64>) {
    let s = Stencil::lap2d(nx, ny);
    let t = s.to_triples::<f64>();
    let b = rhs_vector::<f64>(s.unknowns(), 42);
    (triples_planner(&t, &b, pieces, workers), b)
}

fn symmetrize(t: &Triples<f64>) -> Triples<f64> {
    let n = t.rows();
    let mut sym = Triples::new(n, n);
    for &(i, j, v) in t.entries() {
        sym.push(i, j, v);
        sym.push(j, i, v);
    }
    sym
}

/// Random strictly diagonally dominant system (SPD once symmetrized).
fn arb_dd_system() -> impl Strategy<Value = (Triples<f64>, Vec<f64>)> {
    (8u64..40).prop_flat_map(|n| {
        let entries = prop::collection::vec((0..n, 0..n, -100i32..100), 0..120);
        let rhs = prop::collection::vec(-50i32..50, n as usize);
        (entries, rhs).prop_map(move |(es, b)| {
            let mut t = Triples::new(n, n);
            let mut rowsum = vec![0.0f64; n as usize];
            for (i, j, v) in es {
                if i == j {
                    continue;
                }
                let v = v as f64 / 50.0;
                t.push(i, j, v);
                rowsum[i as usize] += v.abs();
            }
            for i in 0..n {
                t.push(i, i, rowsum[i as usize] + 2.0);
            }
            (t, b.into_iter().map(|v| v as f64 / 10.0).collect())
        })
    })
}

fn solve_to_solution(
    t: &Triples<f64>,
    b: &[f64],
    pieces: usize,
    control: SolveControl,
    make: impl FnOnce(&mut Planner<f64>) -> Box<dyn Solver<f64>>,
) -> (bool, Vec<f64>) {
    let mut planner = triples_planner(t, b, pieces, 3);
    let mut solver = make(&mut planner);
    let report = solve(&mut planner, solver.as_mut(), control).expect("solve failed");
    (report.converged, planner.read_component(SOL, 0))
}

fn assert_close(name: &str, a: &[f64], b: &[f64], tol: f64) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() < tol,
            "{name}: row {i} differs: {x} vs {y}"
        );
    }
}

// ---------------------------------------------------------------------------
// Convergence agreement with classic CG.
// ---------------------------------------------------------------------------

#[test]
fn fence_minimal_variants_match_classic_cg_on_stencil() {
    let s = Stencil::lap2d(16, 16);
    let t = s.to_triples::<f64>();
    let b = rhs_vector::<f64>(s.unknowns(), 42);
    let control = SolveControl::to_tolerance(1e-12, 2000);
    let (c0, x_ref) = solve_to_solution(&t, &b, 4, control.clone(), |p| {
        Box::new(CgSolver::new(p))
    });
    assert!(c0, "classic CG did not converge");
    type Make = fn(&mut Planner<f64>) -> Box<dyn Solver<f64>>;
    let makes: Vec<(&str, Make)> = vec![
        ("fusedcg", |p| Box::new(FusedCgSolver::new(p))),
        ("pipelinedcg", |p| Box::new(PipelinedCgSolver::new(p))),
        ("pipelinedcr", |p| Box::new(PipelinedCrSolver::new(p))),
        ("sstepcg", |p| Box::new(SStepCgSolver::with_s(p, 3))),
    ];
    for (name, make) in makes {
        let (c, x) = solve_to_solution(&t, &b, 4, control.clone(), make);
        assert!(c, "{name} did not converge");
        assert_close(name, &x, &x_ref, 1e-6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn pipelined_cg_matches_classic_cg_on_random_spd((t, b) in arb_dd_system(), pieces in 1usize..5) {
        let sym = symmetrize(&t);
        let control = SolveControl::to_tolerance(1e-10, 3000);
        let (c0, x_ref) = solve_to_solution(&sym, &b, pieces, control.clone(),
            |p| Box::new(CgSolver::new(p)));
        let (c1, x1) = solve_to_solution(&sym, &b, pieces, control.clone(),
            |p| Box::new(PipelinedCgSolver::new(p)));
        prop_assert!(c0 && c1);
        for i in 0..x1.len() {
            prop_assert!((x1[i] - x_ref[i]).abs() < 1e-5,
                "row {i}: {} vs {}", x1[i], x_ref[i]);
        }
    }

    #[test]
    fn sstep_cg_matches_classic_cg_on_random_spd((t, b) in arb_dd_system(), s in 1usize..5) {
        let sym = symmetrize(&t);
        let control = SolveControl::to_tolerance(1e-10, 3000);
        let (c0, x_ref) = solve_to_solution(&sym, &b, 2, control.clone(),
            |p| Box::new(CgSolver::new(p)));
        let (c1, x1) = solve_to_solution(&sym, &b, 2, control.clone(),
            move |p| Box::new(SStepCgSolver::with_s(p, s)));
        prop_assert!(c0 && c1);
        for i in 0..x1.len() {
            prop_assert!((x1[i] - x_ref[i]).abs() < 1e-5,
                "row {i}: {} vs {}", x1[i], x_ref[i]);
        }
    }
}

// ---------------------------------------------------------------------------
// Bitwise two-run determinism.
// ---------------------------------------------------------------------------

#[test]
fn pipelined_and_sstep_solves_are_bitwise_deterministic() {
    type Make = fn(&mut Planner<f64>) -> Box<dyn Solver<f64>>;
    let makes: Vec<(&str, Make)> = vec![
        ("fusedcg", |p| Box::new(FusedCgSolver::new(p))),
        ("pipelinedcg", |p| Box::new(PipelinedCgSolver::new(p))),
        ("pipelinedcr", |p| Box::new(PipelinedCrSolver::new(p))),
        ("sstepcg", |p| Box::new(SStepCgSolver::with_s(p, 3))),
    ];
    for (name, make) in makes {
        let run = |make: Make| -> Vec<u64> {
            let (mut planner, _) = stencil_planner(16, 16, 4, 4);
            let mut solver = make(&mut planner);
            solve(&mut planner, solver.as_mut(), SolveControl::fixed(40))
                .expect("solve failed");
            planner
                .read_component(SOL, 0)
                .into_iter()
                .map(f64::to_bits)
                .collect()
        };
        let first = run(make);
        let second = run(make);
        assert_eq!(first, second, "{name}: two runs differ bitwise");
    }
}

// ---------------------------------------------------------------------------
// Reduction-stage accounting: one fence per iteration.
// ---------------------------------------------------------------------------

fn fences_per_iteration(make: impl FnOnce(&mut Planner<f64>) -> Box<dyn Solver<f64>>) -> f64 {
    let (mut planner, _) = stencil_planner(16, 16, 4, 4);
    let mut solver = make(&mut planner);
    solve(&mut planner, solver.as_mut(), SolveControl::fixed(30)).expect("solve failed");
    planner.with_backend(|b| {
        b.as_any()
            .downcast_mut::<ExecBackend<f64>>()
            .expect("exec backend")
            .metrics()
            .fences_per_iteration
    })
}

#[test]
fn classic_cg_spends_two_reductions_per_iteration() {
    let f = fences_per_iteration(|p| Box::new(CgSolver::new(p)));
    assert!((f - 2.0).abs() < 1e-9, "classic CG fences/iter: {f}");
}

#[test]
fn fused_and_pipelined_cg_spend_one_reduction_per_iteration() {
    for (name, f) in [
        (
            "fusedcg",
            fences_per_iteration(|p| Box::new(FusedCgSolver::new(p))),
        ),
        (
            "pipelinedcg",
            fences_per_iteration(|p| Box::new(PipelinedCgSolver::new(p))),
        ),
        (
            "pipelinedcr",
            fences_per_iteration(|p| Box::new(PipelinedCrSolver::new(p))),
        ),
    ] {
        assert!((f - 1.0).abs() < 1e-9, "{name} fences/iter: {f}");
    }
}

// ---------------------------------------------------------------------------
// Breakdown and fault-injection paths.
// ---------------------------------------------------------------------------

/// On `diag(1, 1, 1, -5)` with `b = 1` the first Chronopoulos–Gear
/// denominator is `δ = (Ar, r) = -2 < 0`: both one-fence CG variants
/// must report the indefinite operator, not NaN out.
#[test]
fn pipelined_cg_reports_indefinite_breakdown() {
    let mut t = Triples::new(4, 4);
    for (i, v) in [1.0, 1.0, 1.0, -5.0].into_iter().enumerate() {
        t.push(i as u64, i as u64, v);
    }
    let b = vec![1.0; 4];
    type Make = fn(&mut Planner<f64>) -> Box<dyn Solver<f64>>;
    let makes: Vec<(&str, Make)> = vec![
        ("fusedcg", |p| Box::new(FusedCgSolver::new(p))),
        ("pipelinedcg", |p| Box::new(PipelinedCgSolver::new(p))),
    ];
    for (name, make) in makes {
        let mut planner = triples_planner(&t, &b, 2, 2);
        let mut solver = make(&mut planner);
        let control = SolveControl {
            tol: 1e-10,
            check_every: 1,
            breakdown_eps: 1e-12,
            ..SolveControl::default()
        };
        let err = solve(&mut planner, solver.as_mut(), control).unwrap_err();
        assert_eq!(
            err,
            SolveError::Breakdown {
                kind: BreakdownKind::IndefiniteOperator,
                iteration: 1,
            },
            "{name}"
        );
        let x = planner.read_component(SOL, 0);
        assert!(x.iter().all(|v| v.is_finite()), "{name}: non-finite SOL");
    }
}

/// The s-step host loop hits the same non-positive denominator, falls
/// back to pipelined CG (a restart from the untouched iterate), and
/// the *fallback's* guard then reports the breakdown.
#[test]
fn sstep_cg_rank_loss_falls_back_and_reports_breakdown() {
    let mut t = Triples::new(4, 4);
    for (i, v) in [1.0, 1.0, 1.0, -5.0].into_iter().enumerate() {
        t.push(i as u64, i as u64, v);
    }
    let b = vec![1.0; 4];
    let mut planner = triples_planner(&t, &b, 2, 2);
    let mut solver = SStepCgSolver::with_s(&mut planner, 3);
    let control = SolveControl {
        tol: 1e-10,
        check_every: 1,
        breakdown_eps: 1e-12,
        ..SolveControl::default()
    };
    let err = solve(&mut planner, &mut solver, control).unwrap_err();
    match err {
        SolveError::Breakdown {
            kind: BreakdownKind::IndefiniteOperator,
            ..
        } => {}
        other => panic!("expected indefinite breakdown via fallback, got {other:?}"),
    }
    let x = planner.read_component(SOL, 0);
    assert!(x.iter().all(|v| v.is_finite()), "non-finite SOL: {x:?}");
}

/// An injected mid-solve panic in the pipelined SpMV surfaces as a
/// structured failure, and checkpoint/restart recovery converges.
#[test]
fn pipelined_cg_recovers_from_injected_panic() {
    let s = Stencil::lap2d(16, 16);
    let t = s.to_triples::<f64>();
    let b = rhs_vector::<f64>(s.unknowns(), 42);
    let plan = FaultPlan::seeded(7).with(FaultSpec {
        name_contains: "spmv".into(),
        kind: FaultKind::Panic,
        schedule: FireSchedule::Nth(40),
        max_fires: 1,
    });
    let n = t.rows();
    let m: Arc<dyn SparseMatrix<f64>> = Arc::new(Csr::<f64, u64>::from_triples(t.clone()));
    let backend = ExecBackend::<f64>::new(4);
    backend.set_fault_plan(Some(plan));
    let part = Partition::equal_blocks(n, 4);
    let mut planner = Planner::new(Box::new(backend));
    let d = planner.add_sol_vector(n, Some(part.clone()));
    let r = planner.add_rhs_vector(n, Some(part));
    planner.add_operator(m, d, r);
    planner.set_rhs_data(r, &b);

    let report = solve_recoverable(
        &mut planner,
        PipelinedCgSolver::new,
        SolveControl::to_tolerance(1e-10, 2000),
        RecoveryPolicy {
            checkpoint_every: 25,
            max_restarts: 3,
        },
    )
    .expect("recoverable pipelined solve failed");
    assert!(report.converged, "residual {}", report.final_residual);
    assert!(report.restarts >= 1, "fault never fired");

    let x = planner.read_component(SOL, 0);
    let csr: Csr<f64> = Csr::from_triples(t);
    let mut ax = vec![0.0; x.len()];
    csr.spmv(&x, &mut ax);
    let res: f64 = ax
        .iter()
        .zip(&b)
        .map(|(a, bb)| (a - bb) * (a - bb))
        .sum::<f64>()
        .sqrt();
    assert!(res < 1e-8, "true residual {res}");
}
