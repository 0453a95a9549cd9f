//! `modeled_scaling` — the two scaling curves this repository can only
//! *model*: both need node counts far past the threaded backend, so
//! both are `kdr-machine` simulations (Lassen profile) and both are
//! deterministic — graphs and scheduler, no clock — which is what
//! makes their bounds assertable. Modeled, never measured: the
//! measured numbers live on the `perf_ledger`.
//!
//! * **Fence-minimal CG at 256 nodes.** Classic, fused
//!   (Chronopoulos–Gear), pipelined (Ghysels–Vanroose) and s-step CG
//!   on a 1024² 5-point Laplacian, one piece per node: the
//!   strong-scaling regime where the global reduction dominates an
//!   iteration. Asserts pipelined CG models ≥ 1.2× over classic.
//! * **Sharded front door at 1–16 shard groups.** Each shard is a
//!   16-node group running its jobs as fused-CG iteration chains (one
//!   latency-priced collective per iteration); every job first passes
//!   a serialized admit task on node 0, the scale-out's Amdahl term.
//!   Asserts ≥ 2.5× aggregate throughput at 4 shards over 1.
//!
//! Usage: `cargo run --release -p kdr-bench --bin modeled_scaling`
//! Output: both tables on stdout and in `results/modeled_scaling.txt`.

use std::fmt::Write as _;

use kdr_baselines::{steady_state_seconds, stencil_planner, stepped_graph};
use kdr_core::{
    CgSolver, FusedCgSolver, PipelinedCgSolver, Planner, SStepCgSolver, SimBackend, Solver,
};
use kdr_machine::{simulate, MachineConfig, ProcId, TaskGraph};
use kdr_sparse::Stencil;

/// Simulated nodes of the CG table, and pieces: one piece per node.
const CG_NODES: usize = 256;
/// Grid side of the CG table's 5-point Laplacian.
const CG_SIDE: u64 = 1024;
/// CG iterations per s-step driver step.
const SSTEP: usize = 4;
/// Nodes per shard group in the front-door table.
const NODES_PER_SHARD: usize = 16;

type Build = fn(&mut Planner<f64>) -> Box<dyn Solver<f64>>;

/// The task graph of `steps` driver steps of one CG variant on the
/// priced sim backend (figure9's idiom: matrix-free stencil pricing,
/// 4-byte indices).
fn cg_graph(machine: &MachineConfig, build: Build, steps: usize) -> TaskGraph {
    let backend = SimBackend::<f64>::new(machine.clone()).with_index_bytes(4.0);
    let mut planner = stencil_planner(backend, Stencil::lap2d(CG_SIDE, CG_SIDE), CG_NODES);
    stepped_graph(&mut planner, build, steps)
}

/// Modeled steady-state microseconds per CG iteration (figure9's
/// warmup-subtraction protocol: 3 warmup + 5 timed steps).
fn cg_us_per_iter(build: Build, iters_per_step: usize) -> f64 {
    let m = MachineConfig::lassen(CG_NODES).legion_profile();
    steady_state_seconds(&m, 3, 5, |steps| cg_graph(&m, build, steps)) / iters_per_step as f64 * 1e6
}

/// Modeled aggregate jobs/s of a `shards`-shard fleet: 64 tenants
/// dealt round-robin onto shards, 2 jobs each, 32 fused-CG iterations
/// per job on a 512² grid split over the shard's 16 nodes.
fn fleet_jobs_per_s(shards: usize) -> f64 {
    let (tenants, jobs_per_tenant, iters_per_job, grid) = (64, 2, 32, 512u64);
    let machine = MachineConfig::lassen(shards * NODES_PER_SHARD).legion_profile();
    let rows = (grid * grid) as f64 / NODES_PER_SHARD as f64;
    // Per node and iteration: 5-point SpMV (2 flops/nnz) plus the
    // fused-CG vector updates; bytes stream the matrix and vectors.
    let flops = rows * (2.0 * 5.0 + 6.0);
    let bytes = rows * 8.0 * 7.0;
    let mut g = TaskGraph::new();
    let door = ProcId { node: 0, lane: 0 };
    let mut admit_tail: Option<usize> = None;
    let mut shard_tail: Vec<Option<usize>> = vec![None; shards];
    for t in 0..tenants {
        let shard = t % shards;
        for _ in 0..jobs_per_tenant {
            let admit = g.compute(door, 2.0e4, 16.0e3, "admit", admit_tail.into_iter().collect());
            admit_tail = Some(admit);
            let mut prev: Vec<usize> = vec![admit];
            prev.extend(shard_tail[shard]);
            for _ in 0..iters_per_job {
                let computes: Vec<usize> = (0..NODES_PER_SHARD)
                    .map(|k| {
                        let node = shard * NODES_PER_SHARD + k;
                        g.compute(ProcId { node, lane: 0 }, flops, bytes, "iter", prev.clone())
                    })
                    .collect();
                prev = vec![g.collective(NODES_PER_SHARD, 16.0, "dot", computes)];
            }
            shard_tail[shard] = Some(prev[0]);
        }
    }
    (tenants * jobs_per_tenant) as f64 / simulate(&g, &machine, None).makespan
}

fn main() {
    let mut out = String::new();

    let variants: [(&str, Build, usize); 4] = [
        ("cg", |p| Box::new(CgSolver::new(p)), 1),
        ("fusedcg", |p| Box::new(FusedCgSolver::new(p)), 1),
        ("pipelinedcg", |p| Box::new(PipelinedCgSolver::new(p)), 1),
        ("sstepcg", |p| Box::new(SStepCgSolver::with_s(p, SSTEP)), SSTEP),
    ];
    writeln!(
        out,
        "# modeled us/iteration, {CG_NODES}-node Lassen profile, \
         {CG_SIDE}x{CG_SIDE} lap2d, {CG_NODES} pieces"
    )
    .unwrap();
    writeln!(out, "variant,us_per_iteration_modeled,speedup_vs_cg").unwrap();
    let us: Vec<f64> = variants
        .iter()
        .map(|&(_, build, iters_per_step)| cg_us_per_iter(build, iters_per_step))
        .collect();
    for (&(name, ..), us_i) in variants.iter().zip(&us) {
        writeln!(out, "{name},{us_i:.3},{:.3}", us[0] / us_i).unwrap();
    }
    let pipelined = us[0] / us[2];

    writeln!(
        out,
        "# modeled fleet throughput, {NODES_PER_SHARD}-node shard groups, Lassen profile, \
         64 tenants x 2 jobs x 32 fused-CG iterations, 512x512 lap2d"
    )
    .unwrap();
    writeln!(out, "shards,nodes,jobs_per_s_modeled,speedup_vs_1").unwrap();
    let shard_counts = [1usize, 2, 4, 8, 16];
    let jobs_per_s: Vec<f64> = shard_counts.iter().map(|&s| fleet_jobs_per_s(s)).collect();
    for (&s, jps) in shard_counts.iter().zip(&jobs_per_s) {
        let nodes = s * NODES_PER_SHARD;
        writeln!(out, "{s},{nodes},{jps:.2},{:.3}", jps / jobs_per_s[0]).unwrap();
    }
    let four_shards = jobs_per_s[2] / jobs_per_s[0];

    print!("{out}");
    assert!(
        pipelined >= 1.2,
        "pipelined CG must model >= 1.2x over classic in the strong-scaling regime, \
         got {pipelined:.2}x"
    );
    assert!(
        four_shards >= 2.5,
        "modeled 4-shard aggregate throughput must reach 2.5x over 1 shard, got {four_shards:.2}x"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/modeled_scaling.txt");
    std::fs::write(path, out).expect("write results/modeled_scaling.txt");
}
