//! End-to-end tests for the matrix-free stencil operator path:
//! stencil-described registration through the planner must be bitwise
//! identical to the assembled path — per apply, per transpose apply,
//! and across a whole CG solve's residual history — while storing
//! zero operator value bytes. A [`StencilOperator`] is matrix-free by
//! itself, however it is added to the planner.

use std::sync::Arc;

use kdr_core::{
    solve_traced, CgSolver, ExecBackend, ExecMetrics, Planner, SolveControl, SolveTrace, SOL,
};
use kdr_index::Partition;
use kdr_sparse::{
    stencil::rhs_vector, KernelChoice, KernelKind, SparseMatrix, Stencil, StencilOperator,
    StructureKey,
};

fn planner() -> Planner<f64> {
    Planner::new(Box::new(ExecBackend::<f64>::new(2)))
}

/// Build a square single-component planner over `s`, either
/// stencil-described (`implicit`) or assembled to CSR.
fn setup(s: Stencil, pieces: usize, implicit: bool, choice: Option<KernelChoice>) -> Planner<f64> {
    let n = s.unknowns();
    let mut p = planner();
    if let Some(c) = choice {
        p.set_kernel_choice(c);
    }
    let part = Partition::equal_blocks(n, pieces);
    let d = p.add_sol_vector(n, Some(part.clone()));
    let r = p.add_rhs_vector(n, Some(part));
    if implicit {
        p.add_stencil_operator(s, d, r);
    } else {
        let m: Arc<dyn SparseMatrix<f64>> = Arc::new(s.to_csr::<f64, u64>());
        p.add_operator(m, d, r);
    }
    p
}

fn exec_metrics(p: &mut Planner<f64>) -> ExecMetrics {
    p.with_backend(|b| {
        b.as_any()
            .downcast_mut::<ExecBackend<f64>>()
            .expect("exec backend")
            .metrics()
    })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn apply_bits(p: &mut Planner<f64>, x: &[f64], transpose: bool) -> Vec<u64> {
    let w = p.allocate_workspace_vector();
    let y = p.allocate_workspace_vector();
    p.set_sol_data(0, x);
    p.copy(w, SOL);
    if transpose {
        p.matmul_transpose(y, w);
    } else {
        p.matmul(y, w);
    }
    p.fence();
    bits(&p.read_component(y, 0))
}

#[test]
fn stencil_apply_matches_assembled_bitwise() {
    // Pieces chosen so tile boundaries straddle grid planes of the 3D
    // grid (9^3 = 729 unknowns over 4 pieces).
    for s in [
        Stencil::lap1d(57),
        Stencil::lap2d(13, 11),
        Stencil::lap3d7(9, 9, 9),
        Stencil::lap3d27(7, 6, 5),
    ] {
        let n = s.unknowns() as usize;
        let x: Vec<f64> = (0..n).map(|i| 0.25 + ((i * 7 + 3) % 17) as f64 * 0.125).collect();
        let mut implicit = setup(s, 4, true, None);
        let mut assembled = setup(s, 4, false, None);
        for transpose in [false, true] {
            assert_eq!(
                apply_bits(&mut implicit, &x, transpose),
                apply_bits(&mut assembled, &x, transpose),
                "{s:?} transpose {transpose}: matrix-free apply diverges"
            );
        }
        let m = exec_metrics(&mut implicit);
        assert_eq!(m.operator_value_bytes, 0, "{s:?} stored operator values");
        assert!(
            m.tiles_by_kernel.get("stencil").copied().unwrap_or(0) > 0,
            "{s:?}: no stencil tiles registered: {:?}",
            m.tiles_by_kernel
        );
    }
}

fn cg_trace(s: Stencil, pieces: usize, implicit: bool) -> (SolveTrace, Vec<u64>) {
    let n = s.unknowns();
    let mut p = setup(s, pieces, implicit, None);
    p.set_rhs_data(0, &rhs_vector::<f64>(n, 11));
    let mut solver = CgSolver::new(&mut p);
    let control = SolveControl {
        max_iters: 300,
        tol: 1e-10,
        check_every: 1,
        ..SolveControl::default()
    };
    let (outcome, trace) = solve_traced(&mut p, &mut solver, control);
    let report = outcome.expect("well-posed SPD solve");
    assert!(report.converged);
    let sol = bits(&p.read_component(SOL, 0));
    (trace, sol)
}

#[test]
fn stencil_cg_residual_history_bitwise_identical() {
    let s = Stencil::lap3d7(12, 12, 12);
    let (t_imp, x_imp) = cg_trace(s, 4, true);
    let (t_asm, x_asm) = cg_trace(s, 4, false);
    assert!(!t_imp.residual_history.is_empty());
    let h = |t: &SolveTrace| -> Vec<(usize, u64)> {
        t.residual_history.iter().map(|&(i, r)| (i, r.to_bits())).collect()
    };
    assert_eq!(h(&t_imp), h(&t_asm), "residual histories diverge");
    assert_eq!(x_imp, x_asm, "solutions diverge");
}

#[test]
fn forced_assembled_choice_assembles_the_descriptor() {
    // Forcing an assembled kind on a stencil-described operator is an
    // explicit request for stored values: the descriptor is extracted
    // and lowered normally, and the results still match matrix-free
    // bit for bit.
    let s = Stencil::lap2d(12, 12);
    let n = s.unknowns() as usize;
    let x: Vec<f64> = (0..n).map(|i| 0.5 + (i % 13) as f64 * 0.25).collect();
    let mut forced = setup(s, 3, true, Some(KernelChoice::Force(KernelKind::Csr)));
    let mut implicit = setup(s, 3, true, None);
    for transpose in [false, true] {
        assert_eq!(
            apply_bits(&mut forced, &x, transpose),
            apply_bits(&mut implicit, &x, transpose),
            "forced-assembled diverges from matrix-free (transpose {transpose})"
        );
    }
    let mf = exec_metrics(&mut forced);
    assert!(mf.operator_value_bytes > 0, "forced assembly stored nothing");
    assert_eq!(mf.tiles_by_kernel.get("stencil"), None);
    let mi = exec_metrics(&mut implicit);
    assert_eq!(mi.operator_value_bytes, 0);
}

#[test]
fn forcing_stencil_on_assembled_input_falls_back_to_csr() {
    // Assembled triplets carry no grid geometry; forcing the stencil
    // kind must never reinterpret them — the lowering falls back to
    // CSR and stores its values.
    let s = Stencil::lap2d(10, 10);
    let n = s.unknowns() as usize;
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
    let mut forced = setup(s, 2, false, Some(KernelChoice::Force(KernelKind::Stencil)));
    let mut auto = setup(s, 2, false, None);
    for transpose in [false, true] {
        assert_eq!(
            apply_bits(&mut forced, &x, transpose),
            apply_bits(&mut auto, &x, transpose),
        );
    }
    let m = exec_metrics(&mut forced);
    assert_eq!(m.tiles_by_kernel.get("stencil"), None);
    assert!(m.operator_value_bytes > 0);
}

/// What one registration route gave: the operator manifest, the value
/// bytes, and a CG solve's residual history and solution, as bits.
type Route = (
    Vec<(StructureKey, KernelKind)>,
    u64,
    Vec<(usize, u64)>,
    Vec<u64>,
);

/// Register `s` in `pieces` pieces under `choice` — through
/// `add_stencil_operator` (`by_descriptor`) or as a
/// [`StencilOperator`] handed to `add_operator` — and solve with CG.
fn route(s: Stencil, pieces: usize, choice: KernelChoice, by_descriptor: bool) -> Route {
    let n = s.unknowns();
    let mut p = planner();
    p.set_kernel_choice(choice);
    let part = Partition::equal_blocks(n, pieces);
    let d = p.add_sol_vector(n, Some(part.clone()));
    let r = p.add_rhs_vector(n, Some(part));
    if by_descriptor {
        p.add_stencil_operator(s, d, r);
    } else {
        p.add_operator(Arc::new(StencilOperator::<f64>::new(s)), d, r);
    }
    p.set_rhs_data(r, &rhs_vector::<f64>(n, 7));
    p.finalize();
    let manifest = p.with_backend(|b| {
        let exec = b.as_any().downcast_mut::<ExecBackend<f64>>();
        exec.expect("exec backend").operator_manifest()
    });
    let value_bytes = exec_metrics(&mut p).operator_value_bytes;
    let mut solver = CgSolver::new(&mut p);
    let control = SolveControl {
        max_iters: 300,
        tol: 1e-10,
        check_every: 1,
        ..SolveControl::default()
    };
    let (outcome, trace) = solve_traced(&mut p, &mut solver, control);
    let report = outcome.expect("well-posed SPD solve");
    assert!(report.converged, "{s:?} {choice:?}");
    let history = trace.residual_history.iter();
    let history = history.map(|&(i, r)| (i, r.to_bits())).collect();
    let solution = bits(&p.read_component(SOL, 0));
    (manifest, value_bytes, history, solution)
}

#[test]
fn a_stencil_operator_is_matrix_free_by_either_route() {
    // Each stencil on a regular grid and on one with an extent of 1
    // or 2, where several points share an offset.
    let grids = [
        Stencil::lap1d(40),
        Stencil::lap1d(2),
        Stencil::lap2d(13, 11),
        Stencil::lap2d(9, 2),
        Stencil::lap3d7(7, 6, 5),
        Stencil::lap3d7(6, 1, 7),
        Stencil::lap3d27(7, 6, 5),
        Stencil::lap3d27(2, 5, 7),
    ];
    let choices = [
        (KernelChoice::Auto, true),
        (KernelChoice::Force(KernelKind::Stencil), true),
        (KernelChoice::Force(KernelKind::Dia), false),
        (KernelChoice::Force(KernelKind::Csr), false),
    ];
    for s in grids {
        let pieces = 3.min(s.unknowns() as usize);
        for (choice, matrix_free) in choices {
            let by_format = route(s, pieces, choice, false);
            let by_descriptor = route(s, pieces, choice, true);
            let case = format!("{s:?} under {choice:?}");
            assert_eq!(by_format.0, by_descriptor.0, "{case}: manifests differ");
            assert_eq!(by_format.1, by_descriptor.1, "{case}: value bytes differ");
            let histories = "residual histories differ";
            assert_eq!(by_format.2, by_descriptor.2, "{case}: {histories}");
            assert_eq!(by_format.3, by_descriptor.3, "{case}: solutions differ");
            assert!(!by_format.0.is_empty(), "{case}: no tile registered");
            let stencil_tiles = by_format.0.iter().all(|&(_, k)| k == KernelKind::Stencil);
            assert_eq!(stencil_tiles, matrix_free, "{case}: {:?}", by_format.0);
            let value_bytes = by_format.1;
            assert_eq!(value_bytes == 0, matrix_free, "{case}: {value_bytes} value bytes");
        }
    }
}
