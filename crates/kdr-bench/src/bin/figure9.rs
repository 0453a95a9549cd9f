//! Regenerates the paper's Figure 9: execution time per iteration of
//! BiCGStab on a 5-point Laplacian over a `2^n × 2^n` grid, formulated
//! two ways:
//!
//! * **single-operator** — one domain space `D`, one (matrix-free,
//!   CSR-priced) stencil operator;
//! * **multi-operator** — two domain spaces `D1`, `D2` (upper/lower
//!   half of the grid) with four operators: two self-interaction
//!   Laplacians and two boundary-coupling bands.
//!
//! The paper's expectation: the multi-operator system is slower on
//! small problems (twice the task count) and faster on large ones
//! (self-interaction compute overlaps the boundary-term
//! communication).
//!
//! Usage: `cargo run --release -p kdr-bench --bin figure9 [-- --quick]`
//! Output: CSV `n,unknowns,formulation,us_per_iteration`.

use std::sync::Arc;

use kdr_baselines::{steady_state_seconds, stepped_graph};
use kdr_core::simbackend::SimBackend;
use kdr_core::solvers::BiCgStabSolver;
use kdr_core::Planner;
use kdr_index::Partition;
use kdr_machine::MachineConfig;
use kdr_sparse::{SparseMatrix, Stencil, StencilOperator, VirtualBanded};

const NODES: usize = 16;
const PIECES: usize = 64;

fn machine() -> MachineConfig {
    MachineConfig::lassen(NODES).legion_profile()
}

fn build_graph(n_exp: u32, multi: bool, iters: usize) -> kdr_machine::TaskGraph {
    let side = 1u64 << n_exp;
    let backend = SimBackend::<f64>::new(machine()).with_index_bytes(4.0);
    let mut planner = Planner::new(Box::new(backend));
    if !multi {
        let s = Stencil::lap2d(side, side);
        let n = s.unknowns();
        let op: Arc<dyn SparseMatrix<f64>> = Arc::new(StencilOperator::<f64>::new(s));
        let part = Partition::equal_blocks(n, PIECES);
        let d = planner.add_sol_vector(n, Some(part.clone()));
        let r = planner.add_rhs_vector(n, Some(part));
        planner.add_operator(op, d, r);
    } else {
        // Two domain spaces: upper and lower halves of the grid, each
        // with its own canonical partition of `vp` pieces (the planner
        // partitions every space independently, so the multi-operator
        // formulation runs at twice the task granularity — the source
        // of both its small-size overhead and its large-size overlap).
        let half = Stencil::lap2d(side / 2, side);
        let h = half.unknowns();
        let part = Partition::equal_blocks(h, PIECES);
        let d1 = planner.add_sol_vector(h, Some(part.clone()));
        let d2 = planner.add_sol_vector(h, Some(part.clone()));
        let r1 = planner.add_rhs_vector(h, Some(part.clone()));
        let r2 = planner.add_rhs_vector(h, Some(part));
        let a11: Arc<dyn SparseMatrix<f64>> = Arc::new(StencilOperator::<f64>::new(half));
        let a22: Arc<dyn SparseMatrix<f64>> = Arc::new(StencilOperator::<f64>::new(half));
        let a12: Arc<dyn SparseMatrix<f64>> =
            Arc::new(VirtualBanded::<f64>::coupling_5pt(h, side, false));
        let a21: Arc<dyn SparseMatrix<f64>> =
            Arc::new(VirtualBanded::<f64>::coupling_5pt(h, side, true));
        planner.add_operator(a11, d1, r1);
        planner.add_operator(a12, d2, r1);
        planner.add_operator(a21, d1, r2);
        planner.add_operator(a22, d2, r2);
    }
    stepped_graph(&mut planner, |p| Box::new(BiCgStabSolver::new(p)), iters)
}

fn per_iteration(n_exp: u32, multi: bool) -> f64 {
    steady_state_seconds(&machine(), 3, 5, |iters| build_graph(n_exp, multi, iters))
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let exps: Vec<u32> = if quick {
        (9..=12).collect()
    } else {
        (9..=16).collect()
    };
    println!("n,unknowns,formulation,us_per_iteration");
    let mut crossover: Option<u32> = None;
    for &e in &exps {
        let single = per_iteration(e, false);
        let multi = per_iteration(e, true);
        println!("{e},{},single,{:.3}", 1u64 << (2 * e), single * 1e6);
        println!("{e},{},multi,{:.3}", 1u64 << (2 * e), multi * 1e6);
        if multi < single && crossover.is_none() {
            crossover = Some(e);
        }
    }
    match crossover {
        Some(e) => println!(
            "# multi-operator becomes faster at n = {e} (~{} unknowns)",
            1u64 << (2 * e)
        ),
        None => println!("# multi-operator never overtook single-operator in this range"),
    }
}
