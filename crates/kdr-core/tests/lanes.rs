//! One body per operation per worker lane (DESIGN §6, "Lanes"): the
//! execution backend lowers a vector op, and a dot's partials, to one
//! task per *lane* — the pieces of a component whose colours share a
//! home worker — so how many pieces a body covers follows the worker
//! count. None of that may move a bit: a lane's elementwise body writes
//! each element's expression, and its dot body still writes one partial
//! per piece, combined in piece order. Every run is checked against the
//! reference backend (`reference/mod.rs`), which runs each op serially
//! over whole vectors.

mod reference;

use std::sync::Arc;

use kdr_core::{
    precond, solve_traced, Backend, BiCgStabSolver, CgSolver, ExecBackend, GmresSolver, Planner,
    SolveControl, Solver, StepOutcome, SOL,
};
use kdr_index::Partition;
use kdr_sparse::stencil::rhs_vector;
use kdr_sparse::{SparseMatrix, Stencil};

/// A system of `components` aliased lap2d 24 × 16 components (the
/// `multi_rhs` example's shape: one stored matrix, one operator per
/// component), each in `pieces` pieces, on `backend`, with the point
/// Jacobi preconditioner on every component when `preconditioned`.
fn planner(
    components: usize,
    pieces: usize,
    backend: Box<dyn Backend<f64>>,
    preconditioned: bool,
) -> Planner<f64> {
    let s = Stencil::lap2d(24, 16);
    let n = s.unknowns();
    let m: Arc<dyn SparseMatrix<f64>> = Arc::new(s.to_csr::<f64, u64>());
    let jacobi = Arc::new(precond::jacobi(m.as_ref()));
    let mut planner = Planner::new(backend);
    let part = Partition::equal_blocks(n, pieces);
    for k in 0..components {
        let d = planner.add_sol_vector(n, Some(part.clone()));
        let r = planner.add_rhs_vector(n, Some(part.clone()));
        planner.add_operator(Arc::clone(&m), d, r);
        if preconditioned {
            planner.add_preconditioner(jacobi.clone(), d, r);
        }
        planner.set_rhs_data(r, &rhs_vector::<f64>(n, 7 + k as u64));
    }
    planner
}

type Make = fn(&mut Planner<f64>) -> Box<dyn Solver<f64>>;

/// `(preconditioned, solver)`: CG, PCG, BiCGStab and GMRES(10).
const SOLVERS: [(bool, Make); 4] = [
    (false, |p| Box::new(CgSolver::new(p))),
    (true, |p| Box::new(CgSolver::new(p))),
    (false, |p| Box::new(BiCgStabSolver::new(p))),
    (false, |p| Box::new(GmresSolver::with_restart(p, 10))),
];

/// A solve to 1e-10 as bits: iterations, the residual history and
/// every component of the solution.
fn solve_bits(
    mut planner: Planner<f64>,
    components: usize,
    make: Make,
) -> (usize, Vec<u64>, Vec<u64>) {
    let mut solver = make(&mut planner);
    let (outcome, trace) = solve_traced(
        &mut planner,
        solver.as_mut(),
        SolveControl::to_tolerance(1e-10, 2000),
    );
    let report = outcome.expect("solve failed");
    assert!(report.converged, "{}", solver.name());
    let history = trace
        .residual_history
        .iter()
        .map(|&(_, r)| r.to_bits())
        .collect();
    let x = (0..components)
        .flat_map(|k| planner.read_component(SOL, k))
        .map(f64::to_bits)
        .collect();
    (report.iters, history, x)
}

/// The execution backend on `workers` workers.
fn exec(workers: usize, events: bool) -> Box<dyn Backend<f64>> {
    let backend = ExecBackend::<f64>::new(workers);
    backend.set_event_logging(events);
    Box::new(backend)
}

/// On one worker every component is one lane (on 16 pieces, four
/// groups of four dot chains); on three and four, lanes of several
/// pieces each, of unequal sizes; on one worker per piece, one piece
/// each — what the backend lowered to before lanes. Every solver's
/// residual history and solution are the reference backend's bit for
/// bit, on 16 pieces and on a two-component system.
#[test]
fn lane_counts_keep_every_bit() {
    for (components, pieces) in [(1, 16), (2, 5)] {
        for (preconditioned, make) in SOLVERS {
            let reference = Box::new(reference::Reference::<f64>::new());
            let want = solve_bits(
                planner(components, pieces, reference, preconditioned),
                components,
                make,
            );
            for workers in [1, 3, 4, pieces] {
                let got = solve_bits(
                    planner(components, pieces, exec(workers, false), preconditioned),
                    components,
                    make,
                );
                assert_eq!(
                    got, want,
                    "{components} × {pieces} pieces, preconditioned {preconditioned}: \
                     {workers} workers, against the reference"
                );
            }
        }
    }
}

/// What a replayed CG step runs on one worker, from the spans of eight
/// steps: per component one tile body per piece and one body per lane
/// for each of the `p·q` partials, the `axpy+dot_partial` of `r` and
/// `r·r` and the `axpy+xpay` of `x` and `p` (the `x` update runs in the
/// `xpay`'s pass), and five scalar bodies.
#[test]
fn on_one_worker_a_step_runs_one_body_per_lane() {
    for (components, pieces) in [(1, 16), (2, 5)] {
        let mut planner = planner(components, pieces, exec(1, true), false);
        let mut solver = CgSolver::new(&mut planner);
        let mut step = |planner: &mut Planner<f64>| {
            planner.step_begin();
            solver.step(planner);
            planner.step_end([], &mut Vec::new())
        };
        let spans = |planner: &mut Planner<f64>| {
            planner.fence();
            planner.with_backend(|b| {
                let exec = b.as_any().downcast_mut::<ExecBackend<f64>>();
                exec.expect("the planner runs on the exec backend")
                    .take_spans()
            })
        };
        for _ in 0..4 {
            step(&mut planner);
        }
        spans(&mut planner);
        for _ in 0..8 {
            assert_eq!(step(&mut planner), StepOutcome::Replayed);
        }
        let spans = spans(&mut planner);
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count() / 8;
        let what = format!("{components} × {pieces} pieces");
        assert_eq!(spans.len() / 8, components * (pieces + 3) + 5, "{what}");
        assert_eq!(spans.len() % 8, 0, "{what}");
        assert_eq!(count("dot_partial"), components, "{what}");
        assert_eq!(count("axpy"), 0, "{what}");
        assert_eq!(count("axpy+dot_partial"), components, "{what}");
        assert_eq!(count("axpy+xpay"), components, "{what}");
        assert_eq!(count("xpay"), 0, "{what}");
        assert_eq!(count("dot_reduce"), 2, "{what}");
    }
}
