//! Simulating a solve on a 64-GPU cluster — the workflow behind the
//! paper's Figures 8 and 9.
//!
//! The same solver code that executes for real on `ExecBackend` here
//! drives `SimBackend`, which records a priced task graph instead of
//! touching data; the discrete-event scheduler then reports makespan,
//! utilization, and a per-kernel time breakdown for a problem with a
//! billion unknowns — far beyond what this machine could materialize.
//!
//! Run: `cargo run --release -p kdr-examples --example simulate_cluster`

use std::sync::Arc;

use kdr_baselines::stepped_graph;
use kdr_core::simbackend::SimBackend;
use kdr_core::solvers::CgSolver;
use kdr_core::Planner;
use kdr_index::Partition;
use kdr_machine::{simulate, MachineConfig};
use kdr_sparse::{SparseMatrix, Stencil, StencilOperator};

fn main() {
    let nodes = 16; // 64 GPUs
    let machine = MachineConfig::lassen(nodes).legion_profile();
    // A 2^30-unknown 3-D Poisson problem, matrix-free (the operator's
    // implicit relations make partitioning O(pieces), not O(n)).
    let stencil = Stencil::lap3d7(1 << 10, 1 << 10, 1 << 10);
    let n = stencil.unknowns();
    println!(
        "problem: 7-point Laplacian, {} unknowns ({} stored entries)",
        n,
        stencil.nnz()
    );

    let op: Arc<dyn SparseMatrix<f64>> = Arc::new(StencilOperator::<f64>::new(stencil));
    let mut planner = Planner::new(Box::new(
        SimBackend::<f64>::new(machine.clone()).with_index_bytes(4.0),
    ));
    let part = Partition::equal_blocks(n, nodes * 4);
    let d = planner.add_sol_vector(n, Some(part.clone()));
    let r = planner.add_rhs_vector(n, Some(part));
    planner.add_operator(op, d, r);

    // Ten CG iterations, exactly the code a real solve would run;
    // the backend hands back the task graph it recorded for them.
    let graph = stepped_graph(&mut planner, |p| Box::new(CgSolver::new(p)), 10);
    let result = simulate(&graph, &machine, None);
    println!(
        "simulated {} tasks on {} GPUs: makespan {:.2} ms ({:.1} ms/iteration), utilization {:.0}%",
        graph.len(),
        machine.total_procs(),
        result.makespan * 1e3,
        result.makespan * 1e2,
        result.utilization() * 100.0
    );
    println!("\nper-kernel breakdown (count, total span):");
    for (label, count, span) in result.breakdown(&graph) {
        println!("  {label:<14} {count:>5}  {:>9.3} ms", span * 1e3);
    }
    assert!(result.makespan > 0.0 && result.utilization() > 0.2);
}
