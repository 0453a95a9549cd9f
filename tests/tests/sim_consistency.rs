//! Integration tests for the simulation path: the same solver code
//! must drive both backends, and the simulated execution models must
//! show the paper's qualitative behaviors.

use std::sync::Arc;

use kdr_baselines::{
    build_iteration_graph, per_iteration_seconds, stencil_planner, stepped_graph, KsmKind,
    LibraryProfile,
};
use kdr_core::simbackend::SimBackend;
use kdr_core::solvers::{BiCgStabSolver, CgSolver, GmresSolver, Solver};
use kdr_core::{solve, Backend, ExecBackend, Planner, SolveControl, StepOutcome, SOL};
use kdr_index::Partition;
use kdr_machine::{simulate, MachineConfig};
use kdr_sparse::stencil::rhs_vector;
use kdr_sparse::{SparseMatrix, Stencil};

/// The identical solver type runs on the simulation backend without
/// modification (the backend split is invisible to solvers).
#[test]
fn same_solver_code_runs_on_sim_backend() {
    let s = Stencil::lap2d(1 << 8, 1 << 8);
    let machine = MachineConfig::lassen(4).legion_profile();
    let mut planner = stencil_planner(SimBackend::<f64>::new(machine.clone()), s, 16);
    let graph = stepped_graph(&mut planner, |p| Box::new(CgSolver::new(p)), 3);
    assert!(graph.len() > 100, "three CG iterations must emit real work");
    let result = simulate(&graph, &machine, None);
    assert!(result.makespan > 0.0);
    assert!(result.utilization() > 0.1);
}

/// Simulated per-iteration time grows roughly linearly in problem
/// size once out of the overhead regime (bandwidth-bound scaling).
#[test]
fn per_iteration_time_scales_linearly_at_large_sizes() {
    let t26 = per_iteration_seconds(
        Stencil::lap2d(1 << 14, 1 << 14),
        KsmKind::Cg,
        64,
        LibraryProfile::LegionSolvers,
        16,
        2,
        3,
    );
    let t28 = per_iteration_seconds(
        Stencil::lap2d(1 << 15, 1 << 15),
        KsmKind::Cg,
        64,
        LibraryProfile::LegionSolvers,
        16,
        2,
        3,
    );
    let ratio = t28 / t26;
    assert!(
        (3.0..5.0).contains(&ratio),
        "4x problem should be ~4x slower, got {ratio}"
    );
}

/// The bulk-synchronous execution model emits strictly more
/// synchronization than the task-oriented one, and never finishes
/// faster on identical work.
#[test]
fn bulk_sync_never_beats_task_oriented_on_identical_profiles() {
    // Same machine profile for both, so only the execution model
    // differs.
    let s = Stencil::lap2d(1 << 12, 1 << 12);
    let machine = MachineConfig::lassen(4).legion_profile();
    let build = |bulk: bool| {
        let mut backend = SimBackend::<f64>::new(machine.clone());
        if bulk {
            backend = backend.bulk_synchronous();
        }
        let mut planner = stencil_planner(backend, s, 16);
        stepped_graph(&mut planner, |p| Box::new(CgSolver::new(p)), 4)
    };
    let t_async = simulate(&build(false), &machine, None).makespan;
    let t_sync = simulate(&build(true), &machine, None).makespan;
    assert!(
        t_sync >= t_async,
        "barriers cannot make identical work faster: {t_sync} vs {t_async}"
    );
}

/// GMRES graphs grow within a restart cycle (more dots per Arnoldi
/// step) — sanity on the simulated op stream.
#[test]
fn gmres_graph_structure() {
    let g5 = build_iteration_graph(
        Stencil::lap2d(1 << 6, 1 << 6),
        KsmKind::Gmres,
        8,
        LibraryProfile::LegionSolvers,
        2,
        5,
    );
    let g10 = build_iteration_graph(
        Stencil::lap2d(1 << 6, 1 << 6),
        KsmKind::Gmres,
        8,
        LibraryProfile::LegionSolvers,
        2,
        10,
    );
    // The second five Arnoldi steps orthogonalize against more basis
    // vectors, so the graph more than doubles.
    assert!(g10.len() > 2 * g5.len());
}

// ----- Traced-stepping consistency ----------------------------------
//
// The execution backend's traced fast path replays memoized
// dependence graphs for repeated iteration shapes. These tests pin
// the contract: replay changes *when analysis happens*, never *what
// executes* — residual sequences must be bitwise identical.

fn exec_planner(s: Stencil, pieces: usize, traced: bool) -> Planner<f64> {
    exec_planner_on(s, pieces, traced, 4)
}

fn exec_planner_on(s: Stencil, pieces: usize, traced: bool, workers: usize) -> Planner<f64> {
    let n = s.unknowns();
    let m: Arc<dyn SparseMatrix<f64>> = Arc::new(s.to_csr::<f64, u64>());
    let mut backend = ExecBackend::<f64>::new(workers);
    backend.set_step_tracing(traced);
    let mut planner = Planner::new(Box::new(backend));
    let part = Partition::equal_blocks(n, pieces);
    let d = planner.add_sol_vector(n, Some(part.clone()));
    let r = planner.add_rhs_vector(n, Some(part));
    planner.add_operator(m, d, r);
    planner.set_rhs_data(r, &rhs_vector::<f64>(n, 11));
    planner
}

/// Per-iteration residual bits plus step outcomes for a solver run
/// driven through the step_begin/step_end bracket.
fn residual_bits(
    planner: &mut Planner<f64>,
    solver: &mut dyn Solver<f64>,
    steps: usize,
) -> (Vec<u64>, Vec<StepOutcome>) {
    let mut bits = Vec::new();
    let mut outcomes = Vec::new();
    for _ in 0..steps {
        planner.step_begin();
        solver.step(planner);
        let m = solver.convergence_measure().expect("measure");
        let (outcome, forced) = planner.step_end(&[&m]);
        outcomes.push(outcome);
        bits.push(forced[0].to_bits());
    }
    (bits, outcomes)
}

/// Replayed CG produces the *bitwise identical* residual sequence of
/// the analyzed run: tracing memoizes analysis, not arithmetic. Nor
/// does the worker count reach a bit: a piece's dot partial is
/// reduced in a fixed order by whichever worker runs it, and the
/// partials are combined in piece order.
#[test]
fn traced_cg_residuals_bitwise_match_analyzed() {
    let s = Stencil::lap2d(24, 24);
    let steps = 30;
    let run_on = |traced: bool, workers: usize| {
        let mut planner = exec_planner_on(s, 4, traced, workers);
        let mut solver = CgSolver::new(&mut planner);
        let out = residual_bits(&mut planner, &mut solver, steps);
        drop(solver);
        let stats = planner.with_backend(|b| {
            b.as_any()
                .downcast_mut::<ExecBackend<f64>>()
                .unwrap()
                .metrics()
                .runtime
        });
        (out, stats)
    };
    let run = |traced: bool| run_on(traced, 4);
    let ((bits_a, outcomes_a), stats_a) = run(false);
    let ((bits_t, outcomes_t), stats_t) = run(true);
    assert_eq!(bits_a, bits_t, "replay must not change a single bit");
    for traced in [false, true] {
        let ((bits_1, _), _) = run_on(traced, 1);
        assert_eq!(bits_1, bits_a, "one worker vs four, traced = {traced}");
    }
    assert!(outcomes_a.iter().all(|&o| o == StepOutcome::Analyzed));
    // After warmup (slot-cycle variants get captured once each), every
    // CG step replays.
    let replayed = outcomes_t
        .iter()
        .filter(|&&o| o == StepOutcome::Replayed)
        .count();
    assert!(
        replayed >= steps - 4,
        "expected steady-state replay, outcomes: {outcomes_t:?}"
    );
    assert_eq!(stats_a.tasks_replayed, 0);
    assert!(stats_t.tasks_replayed > 0, "no tasks replayed");
    assert!(
        stats_t.tasks_analyzed < stats_a.tasks_analyzed,
        "tracing must shrink analyzed-task count: {} vs {}",
        stats_t.tasks_analyzed,
        stats_a.tasks_analyzed
    );
}

/// Once the step shape stabilizes, the analyzed-task counter stays
/// flat across iterations: traced steps skip dependence analysis
/// entirely.
#[test]
fn traced_cg_analysis_count_is_flat_in_steady_state() {
    let s = Stencil::lap2d(24, 24);
    let mut planner = exec_planner(s, 4, true);
    let mut solver = CgSolver::new(&mut planner);
    let mut analyzed_after = Vec::new();
    for _ in 0..12 {
        planner.step_begin();
        solver.step(&mut planner);
        planner.step_end(&[]);
        analyzed_after.push(planner.with_backend(|b| {
            b.as_any()
                .downcast_mut::<ExecBackend<f64>>()
                .unwrap()
                .metrics()
                .runtime
                .tasks_analyzed
        }));
    }
    drop(solver);
    // Steps 3.. must not add analyzed tasks (steps 1–2 capture the
    // scalar-slot cycle's two shape variants).
    for w in analyzed_after[2..].windows(2) {
        assert_eq!(
            w[0], w[1],
            "analysis ran in steady state: {analyzed_after:?}"
        );
    }
}

/// BiCGStab (two applies, four dots, forcing-free steps) also replays
/// bitwise identically.
#[test]
fn traced_bicgstab_residuals_bitwise_match_analyzed() {
    let s = Stencil::lap2d(20, 20);
    let steps = 25;
    let run = |traced: bool| {
        let mut planner = exec_planner(s, 4, traced);
        let mut solver = BiCgStabSolver::new(&mut planner);
        residual_bits(&mut planner, &mut solver, steps)
    };
    let (bits_a, _) = run(false);
    let (bits_t, outcomes_t) = run(true);
    assert_eq!(bits_a, bits_t, "replay must not change a single bit");
    assert!(
        outcomes_t.contains(&StepOutcome::Replayed),
        "outcomes: {outcomes_t:?}"
    );
}

/// GMRES's step shape grows within a restart cycle, so most steps
/// cannot replay — the fallback to analyzed submission must keep the
/// solver exactly correct.
#[test]
fn gmres_shape_changes_fall_back_to_analyzed_and_stay_correct() {
    let s = Stencil::lap2d(16, 16);
    let run = |traced: bool| {
        let mut planner = exec_planner(s, 4, traced);
        let mut solver = GmresSolver::with_restart(&mut planner, 10);
        let report = solve(
            &mut planner,
            &mut solver,
            SolveControl::to_tolerance(1e-10, 2_000),
        )
        .expect("solve failed");
        assert!(report.converged);
        planner.read_component(SOL, 0)
    };
    let x_analyzed = run(false);
    let x_traced = run(true);
    for (a, t) in x_analyzed.iter().zip(&x_traced) {
        assert_eq!(a.to_bits(), t.to_bits(), "solutions must be identical");
    }
}

/// The scalar slot arena is bounded by peak liveness, not iteration
/// count: 1,000 CG steps must not grow it (the seed leaked one slot
/// per scalar op forever). The arena is the `Backend` trait's, so the
/// simulator's scalar table is bounded alike.
#[test]
fn scalar_arena_stays_bounded_over_thousand_steps() {
    let s = Stencil::lap2d(12, 12);
    let sim = SimBackend::<f64>::new(MachineConfig::lassen(4).legion_profile());
    for mut planner in [exec_planner(s, 2, true), stencil_planner(sim, s, 2)] {
        let mut solver = CgSolver::new(&mut planner);
        let slots = |p: &mut Planner<f64>| p.with_backend(|b| b.handles().slots());
        // Warm up, then the arena must stop growing entirely.
        for _ in 0..10 {
            planner.step_begin();
            solver.step(&mut planner);
            planner.step_end(&[]);
        }
        let after_warmup = slots(&mut planner);
        for _ in 0..990 {
            planner.step_begin();
            solver.step(&mut planner);
            planner.step_end(&[]);
        }
        planner.fence();
        let after = slots(&mut planner);
        assert_eq!(
            after_warmup, after,
            "scalar arena grew from {after_warmup} to {after} over 1,000 steps"
        );
        assert!(after < 32, "arena unexpectedly large: {after}");
        drop(solver);
    }
}

/// The Trilinos profile prices identical graphs higher than PETSc
/// (kernel-efficiency derating), for any stencil.
#[test]
fn trilinos_never_faster_than_petsc() {
    for kind in [
        kdr_sparse::StencilKind::Lap2D5,
        kdr_sparse::StencilKind::Lap3D7,
    ] {
        let s = if kind == kdr_sparse::StencilKind::Lap2D5 {
            Stencil::lap2d(1 << 11, 1 << 11)
        } else {
            Stencil::lap3d7(1 << 8, 1 << 7, 1 << 7)
        };
        let t_pet = per_iteration_seconds(s, KsmKind::BiCgStab, 16, LibraryProfile::Petsc, 4, 2, 3);
        let t_tri =
            per_iteration_seconds(s, KsmKind::BiCgStab, 16, LibraryProfile::Trilinos, 4, 2, 3);
        assert!(t_tri >= t_pet, "{kind:?}: {t_tri} vs {t_pet}");
    }
}
