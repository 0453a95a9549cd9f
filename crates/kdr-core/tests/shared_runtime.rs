//! Two planners, one runtime: the multi-tenant substrate.
//!
//! A service hosts many sessions over a single worker pool, so two
//! [`Planner`]s built over [`ExecBackend::with_shared_runtime`] must
//! be able to register operators and solve *concurrently* from
//! separate threads without corrupting each other. Each backend runs
//! its steps as step programs on the one runtime: a program's first
//! run and its replays quiesce the shared runtime and replace its
//! analyzer's frontier, so the two tenants' runs interleave on the
//! shared pool and the driver lock, and each must still converge to
//! its own answer.

use std::sync::Arc;

use kdr_core::{solve, CgSolver, ExecBackend, Planner, SolveControl, SOL};
use kdr_index::Partition;
use kdr_runtime::Runtime;
use kdr_sparse::stencil::rhs_vector;
use kdr_sparse::{Csr, SparseMatrix, Stencil};

fn planner_on(
    rt: Arc<Runtime>,
    nx: u64,
    ny: u64,
    pieces: usize,
    rhs_seed: u64,
) -> (Planner<f64>, Stencil, Vec<f64>) {
    let s = Stencil::lap2d(nx, ny);
    let n = s.unknowns();
    let m: Arc<dyn SparseMatrix<f64>> = Arc::new(s.to_csr::<f64, u64>());
    let backend = ExecBackend::<f64>::with_shared_runtime(rt, None);
    let mut planner = Planner::new(Box::new(backend));
    let part = Partition::equal_blocks(n, pieces);
    let d = planner.add_sol_vector(n, Some(part.clone()));
    let r = planner.add_rhs_vector(n, Some(part));
    planner.add_operator(m, d, r);
    let b = rhs_vector::<f64>(n, rhs_seed);
    planner.set_rhs_data(r, &b);
    (planner, s, b)
}

fn true_residual(planner: &mut Planner<f64>, s: &Stencil, b: &[f64]) -> f64 {
    let x = planner.read_component(SOL, 0);
    let m: Csr<f64> = s.to_csr();
    let mut ax = vec![0.0; x.len()];
    m.spmv(&x, &mut ax);
    ax.iter()
        .zip(b)
        .map(|(a, bb)| (a - bb) * (a - bb))
        .sum::<f64>()
        .sqrt()
}

/// One tenant's workload: build a planner on the shared runtime,
/// solve to tolerance twice (the second solve re-runs the solver
/// from scratch, replaying its step programs while the other tenant
/// does the same), and validate the true residual.
fn tenant(
    rt: Arc<Runtime>,
    nx: u64,
    ny: u64,
    pieces: usize,
    rhs_seed: u64,
) {
    let (mut planner, s, b) = planner_on(rt, nx, ny, pieces, rhs_seed);
    for round in 0..2 {
        // Reset the iterate so each round does real work.
        let n = b.len();
        planner.set_sol_data(0, &vec![0.0; n]);
        let mut solver = CgSolver::new(&mut planner);
        let report = solve(
            &mut planner,
            &mut solver,
            SolveControl::to_tolerance(1e-10, 2000),
        )
        .expect("solve failed");
        assert!(
            report.converged,
            "tenant({nx}x{ny}) round {round} did not converge: {}",
            report.final_residual
        );
        let res = true_residual(&mut planner, &s, &b);
        assert!(res < 1e-8, "tenant({nx}x{ny}) round {round}: residual {res}");
    }
}

#[test]
fn two_planners_one_runtime_concurrently() {
    let workers = 4;
    let rt = Arc::new(Runtime::new(workers));

    // Different problem sizes and RHS seeds: the tenants' task shapes
    // and iteration counts interleave arbitrarily on the shared pool.
    let t1 = {
        let rt = Arc::clone(&rt);
        std::thread::spawn(move || tenant(rt, 16, 16, 4, 42))
    };
    let t2 = {
        let rt = Arc::clone(&rt);
        std::thread::spawn(move || tenant(rt, 12, 12, 3, 7))
    };
    t1.join().expect("tenant 1 panicked");
    t2.join().expect("tenant 2 panicked");
}

#[test]
fn many_sequential_planners_reuse_one_runtime() {
    // Sessions come and go; the runtime (and its worker threads)
    // outlives every backend built over it.
    let workers = 2;
    let rt = Arc::new(Runtime::new(workers));
    for seed in 0..3u64 {
        tenant(Arc::clone(&rt), 8, 8, 2, seed * 11 + 1);
    }
}
