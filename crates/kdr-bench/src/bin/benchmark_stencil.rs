//! `BenchmarkStencil` — the main benchmark program of the paper's
//! artifact, with the same command-line interface as the original
//! (Artifact Description, §B.1):
//!
//! ```text
//! benchmark_stencil -dim <1|2|3|4> -solver <1|2|3>
//!                   -nx <nx> [-ny <ny>] [-nz <nz>]
//!                   -it <iterations> -vp <pieces>
//!                   [--sim [nodes]] [--workers N]
//! ```
//!
//! * `-dim`: 1 = 3pt-1D, 2 = 5pt-2D, 3 = 7pt-3D, 4 = 27pt-3D
//! * `-solver`: 1 = CG, 2 = BiCGStab, 3 = GMRES(10)
//! * `-vp`: number of pieces each vector/matrix is partitioned into
//!   (the paper sets this to 4 × node count)
//!
//! By default the solve runs for real on the threaded backend and
//! reports wall-clock time; with `--sim` it runs on the cluster
//! simulator (default 16 nodes) and reports modeled time, allowing
//! the paper's full problem range up to 2³² unknowns.

use std::sync::Arc;

use kdr_baselines::{sim_planner, stepped_graph, KsmKind, LibraryProfile};
use kdr_core::{ExecBackend, Planner};
use kdr_index::Partition;
use kdr_machine::simulate;
use kdr_sparse::stencil::rhs_vector;
use kdr_sparse::{SparseMatrix, Stencil};

struct Args {
    dim: u32,
    solver: u32,
    nx: u64,
    ny: u64,
    nz: u64,
    it: usize,
    vp: usize,
    sim: Option<usize>,
    workers: usize,
}

fn parse_args() -> Args {
    let mut a = Args {
        dim: 2,
        solver: 1,
        nx: 256,
        ny: 1,
        nz: 1,
        it: 500,
        vp: 8,
        sim: None,
        workers: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    let grab = |argv: &[String], i: usize, what: &str| -> String {
        argv.get(i + 1)
            .unwrap_or_else(|| panic!("missing value for {what}"))
            .clone()
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "-dim" => a.dim = grab(&argv, i, "-dim").parse().unwrap(),
            "-solver" => a.solver = grab(&argv, i, "-solver").parse().unwrap(),
            "-nx" => a.nx = grab(&argv, i, "-nx").parse().unwrap(),
            "-ny" => a.ny = grab(&argv, i, "-ny").parse().unwrap(),
            "-nz" => a.nz = grab(&argv, i, "-nz").parse().unwrap(),
            "-it" => a.it = grab(&argv, i, "-it").parse().unwrap(),
            "-vp" => a.vp = grab(&argv, i, "-vp").parse().unwrap(),
            "--workers" => a.workers = grab(&argv, i, "--workers").parse().unwrap(),
            "--sim" => {
                a.sim = Some(argv.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or(16));
                if argv.get(i + 1).map(|v| v.parse::<usize>().is_ok()) == Some(true) {
                    i += 1;
                }
                i += 1;
                continue;
            }
            other => panic!("unknown argument {other}"),
        }
        i += 2;
    }
    a
}

fn stencil_for(a: &Args) -> Stencil {
    match a.dim {
        1 => Stencil::lap1d(a.nx),
        2 => Stencil::lap2d(a.nx, if a.ny > 1 { a.ny } else { a.nx }),
        3 => Stencil::lap3d7(a.nx, a.ny.max(1), a.nz.max(1)),
        4 => Stencil::lap3d27(a.nx, a.ny.max(1), a.nz.max(1)),
        d => panic!("bad -dim {d}"),
    }
}

fn main() {
    let a = parse_args();
    let stencil = stencil_for(&a);
    let n = stencil.unknowns();
    let ksm = match a.solver {
        1 => KsmKind::Cg,
        2 => KsmKind::BiCgStab,
        3 => KsmKind::Gmres,
        s => panic!("bad -solver {s}"),
    };
    println!(
        "BenchmarkStencil: dim={} ({} unknowns, {} nonzeros), solver={}, it={}, vp={}",
        a.dim,
        n,
        stencil.nnz(),
        ksm.name(),
        a.it,
        a.vp
    );

    match a.sim {
        Some(nodes) => {
            // Simulated run at cluster scale: matrix-free operator so
            // nothing of size O(n) is materialized.
            let machine = LibraryProfile::LegionSolvers.machine(nodes);
            let mut planner = sim_planner(stencil, a.vp, LibraryProfile::LegionSolvers, nodes);
            let graph = stepped_graph(&mut planner, |p| ksm.solver(p), a.it);
            let result = simulate(&graph, &machine, None);
            println!(
                "simulated on {} nodes ({} GPUs): total {:.3} s, {:.3} ms/iteration, utilization {:.0}%",
                nodes,
                machine.total_procs(),
                result.makespan,
                result.makespan * 1e3 / a.it as f64,
                result.utilization() * 100.0
            );
        }
        None => {
            // Real threaded run with the paper's fixed RHS in [0, 1].
            let mut planner = Planner::new(Box::new(ExecBackend::<f64>::new(a.workers)));
            let matrix: Arc<dyn SparseMatrix<f64>> = Arc::new(stencil.to_csr::<f64, u64>());
            let part = Partition::equal_blocks(n, a.vp);
            let d = planner.add_sol_vector(n, Some(part.clone()));
            let r = planner.add_rhs_vector(n, Some(part));
            planner.add_operator(matrix, d, r);
            planner.set_rhs_data(r, &rhs_vector::<f64>(n, 0xC0FFEE));
            let mut solver = ksm.solver(&mut planner);
            planner.fence();
            let t0 = std::time::Instant::now();
            for _ in 0..a.it {
                solver.step(&mut planner);
            }
            planner.fence();
            let dt = t0.elapsed().as_secs_f64();
            let res = solver
                .convergence_measure()
                .map(|m| m.get().abs().sqrt())
                .unwrap_or(f64::NAN);
            println!(
                "executed on {} workers: total {:.3} s, {:.3} ms/iteration, recurrence residual {:.3e}",
                a.workers,
                dt,
                dt * 1e3 / a.it as f64,
                res
            );
        }
    }
}
