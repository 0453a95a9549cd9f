//! Tour of the solver library: every KSM, drop-in interchangeable.
//!
//! Because solvers speak only the planner's Figure-6 operation set,
//! any of them runs on any system description unchanged — the
//! "libraries of interchangeable KSMs" the paper's §2.1 calls
//! essential for prototyping. This example runs all twelve on the
//! same Poisson problem, and CG, BiCGStab and GMRES once more on a
//! planner with a Jacobi preconditioner (the p* rows: the same solver
//! types, which apply the planner's preconditioner), and tabulates
//! iterations to tolerance. Chebyshev needs
//! spectral bounds but no inner products at all; the fence-minimal
//! variants (fusedcg, pipelinedcg, pipelinedcr, sstepcg) spend one
//! reduction stage per iteration — or per s-iteration block — where
//! classic CG spends two.
//!
//! Run: `cargo run --release -p kdr-examples --example solver_tour`

use std::sync::Arc;

use kdr_core::{
    precond, solve, BiCgSolver, BiCgStabSolver, CgSolver, CgsSolver, ExecBackend, FusedCgSolver,
    GmresSolver, MinresSolver, PipelinedCgSolver, PipelinedCrSolver, Planner, SStepCgSolver,
    SolveControl, Solver, TfqmrSolver,
};
use kdr_index::Partition;
use kdr_sparse::stencil::rhs_vector;
use kdr_sparse::{SparseMatrix, Stencil};

fn make_planner(preconditioned: bool) -> Planner<f64> {
    let stencil = Stencil::lap2d(24, 24);
    let n = stencil.unknowns();
    let matrix: Arc<dyn SparseMatrix<f64>> = Arc::new(stencil.to_csr::<f64, u32>());
    let mut planner = Planner::new(Box::new(ExecBackend::<f64>::with_default_workers()));
    let part = Partition::equal_blocks(n, 4);
    let d = planner.add_sol_vector(n, Some(part.clone()));
    let r = planner.add_rhs_vector(n, Some(part));
    if preconditioned {
        let p = precond::jacobi(matrix.as_ref());
        planner.add_preconditioner(Arc::new(p), d, r);
    }
    planner.add_operator(matrix, d, r);
    planner.set_rhs_data(r, &rhs_vector::<f64>(n, 3));
    planner
}

fn main() {
    type MakeSolver = (
        &'static str,
        bool,
        fn(&mut Planner<f64>) -> Box<dyn Solver<f64>>,
    );
    let solvers: Vec<MakeSolver> = vec![
        ("cg", false, |p| Box::new(CgSolver::new(p))),
        ("pcg (jacobi)", true, |p| Box::new(CgSolver::new(p))),
        ("bicg", false, |p| Box::new(BiCgSolver::new(p))),
        ("bicgstab", false, |p| Box::new(BiCgStabSolver::new(p))),
        ("cgs", false, |p| Box::new(CgsSolver::new(p))),
        ("gmres(10)", false, |p| {
            Box::new(GmresSolver::with_restart(p, 10))
        }),
        ("minres", false, |p| Box::new(MinresSolver::new(p))),
        ("tfqmr", false, |p| Box::new(TfqmrSolver::new(p))),
        ("fusedcg", false, |p| Box::new(FusedCgSolver::new(p))),
        ("pipelinedcg", false, |p| Box::new(PipelinedCgSolver::new(p))),
        ("pipelinedcr", false, |p| Box::new(PipelinedCrSolver::new(p))),
        ("sstepcg(3)", false, |p| Box::new(SStepCgSolver::new(p))),
        ("pbicgstab", true, |p| Box::new(BiCgStabSolver::new(p))),
        ("pgmres(10)", true, |p| {
            Box::new(GmresSolver::with_restart(p, 10))
        }),
        ("chebyshev", false, |p| {
            // Spectral bounds for the 24x24 5-point Laplacian:
            // Gershgorin upper bound 8, analytic lower bound.
            let lmin = 2.0 * 4.0 * (std::f64::consts::PI / 50.0).sin().powi(2);
            Box::new(kdr_core::ChebyshevSolver::with_bounds(p, lmin, 8.0))
        }),
    ];

    println!("{:<14} {:>10} {:>14}", "solver", "iterations", "residual");
    for (name, preconditioned, make) in solvers {
        let mut planner = make_planner(preconditioned);
        let mut solver = make(&mut planner);
        let report = solve(
            &mut planner,
            solver.as_mut(),
            SolveControl::to_tolerance(1e-10, 20_000),
        )
        .expect("solve failed");
        assert!(report.converged, "{name} did not converge");
        println!(
            "{:<14} {:>10} {:>14.3e}",
            name, report.iters, report.final_residual
        );
    }
    println!("\nall methods ran on the same planner description, unchanged.");
}
