//! Simulated library setups for the Figure 8/9 comparisons.
//!
//! All three libraries run the *same* Krylov algorithms on the same
//! CSR-stored stencil matrices with the same row-based partitioning
//! (the paper's protocol); they differ in execution model and kernel
//! profile:
//!
//! * **LegionSolvers** — task-oriented: dataflow-ordered graph,
//!   per-task overhead plus a serial per-node dispatcher.
//! * **PETSc** — bulk-synchronous phases, lean kernel launches.
//! * **Trilinos** — bulk-synchronous phases, slightly costlier
//!   launches and slightly lower sustained kernel efficiency
//!   (portability layer).

use std::sync::Arc;

use kdr_core::simbackend::SimBackend;
use kdr_core::solvers::{BiCgStabSolver, CgSolver, GmresSolver, Solver};
use kdr_core::Planner;
use kdr_machine::{simulate, MachineConfig, TaskGraph};
use kdr_sparse::{SparseMatrix, Stencil, StencilOperator};

/// Which library's execution model and kernel profile to simulate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LibraryProfile {
    /// LegionSolvers: task-based, asynchronous execution.
    LegionSolvers,
    /// PETSc: bulk-synchronous MPI execution.
    Petsc,
    /// Trilinos: bulk-synchronous MPI execution.
    Trilinos,
}

impl LibraryProfile {
    /// Short name used in reports and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            LibraryProfile::LegionSolvers => "legionsolvers",
            LibraryProfile::Petsc => "petsc",
            LibraryProfile::Trilinos => "trilinos",
        }
    }

    /// Machine configuration for `nodes` Lassen-like nodes.
    pub fn machine(&self, nodes: usize) -> MachineConfig {
        let base = MachineConfig::lassen(nodes);
        match self {
            LibraryProfile::LegionSolvers => base.legion_profile(),
            LibraryProfile::Petsc => base.petsc_profile(),
            LibraryProfile::Trilinos => base.trilinos_profile(),
        }
    }

    /// Whether execution is bulk-synchronous.
    pub fn is_bulk_sync(&self) -> bool {
        !matches!(self, LibraryProfile::LegionSolvers)
    }
}

/// The three KSMs of the paper's §6.1.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KsmKind {
    /// Conjugate gradients.
    Cg,
    /// BiCG-stabilized.
    BiCgStab,
    /// GMRES(10), the static restart schedule shared by LegionSolvers
    /// and Trilinos.
    Gmres,
}

impl KsmKind {
    /// Short name used in reports and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            KsmKind::Cg => "cg",
            KsmKind::BiCgStab => "bicgstab",
            KsmKind::Gmres => "gmres",
        }
    }

    /// The method's solver on `planner`.
    pub fn solver(&self, planner: &mut Planner<f64>) -> Box<dyn Solver<f64>> {
        match self {
            KsmKind::Cg => Box::new(CgSolver::new(planner)),
            KsmKind::BiCgStab => Box::new(BiCgStabSolver::new(planner)),
            KsmKind::Gmres => Box::new(GmresSolver::with_restart(planner, 10)),
        }
    }
}

/// Build a simulated single-operator planner for a stencil problem:
/// matrix-free stencil operator (priced as CSR), row-based partition
/// with `pieces` pieces.
pub fn sim_planner(
    stencil: Stencil,
    pieces: usize,
    profile: LibraryProfile,
    nodes: usize,
) -> Planner<f64> {
    let mut backend = SimBackend::<f64>::new(profile.machine(nodes))
        // PETSc config in the paper uses 32-bit indices
        // (`--with-64-bit-indices=0`); all libraries store CSR.
        .with_index_bytes(4.0);
    if profile.is_bulk_sync() {
        backend = backend.bulk_synchronous();
    }
    stencil_planner(backend, stencil, pieces)
}

/// A single-operator planner on `backend` for a stencil problem:
/// matrix-free stencil operator, row-based partition with `pieces`
/// pieces, so nothing of size O(n) is materialized.
pub fn stencil_planner(backend: SimBackend<f64>, stencil: Stencil, pieces: usize) -> Planner<f64> {
    let n = stencil.unknowns();
    let op: Arc<dyn SparseMatrix<f64>> = Arc::new(StencilOperator::<f64>::new(stencil));
    let mut planner = Planner::new(Box::new(backend));
    let part = kdr_index::Partition::equal_blocks(n, pieces);
    let d = planner.add_sol_vector(n, Some(part.clone()));
    let r = planner.add_rhs_vector(n, Some(part));
    planner.add_operator(op, d, r);
    planner
}

/// Build a solver on a sim-backed planner, take `steps` driver steps
/// with it, and return the task graph the backend recorded.
pub fn stepped_graph(
    planner: &mut Planner<f64>,
    make: impl FnOnce(&mut Planner<f64>) -> Box<dyn Solver<f64>>,
    steps: usize,
) -> TaskGraph {
    let mut solver = make(planner);
    for _ in 0..steps {
        solver.step(planner);
    }
    drop(solver);
    planner.with_backend(|b| {
        b.as_any()
            .downcast_mut::<SimBackend<f64>>()
            .expect("the planner runs on the sim backend")
            .take_graph()
            .0
    })
}

/// Simulated steady-state seconds per step of whatever `graph(steps)`
/// builds: simulate `warmup` and `warmup + timed` steps on `machine`
/// and difference the makespans (this cancels setup cost and captures
/// cross-iteration pipelining).
pub fn steady_state_seconds(
    machine: &MachineConfig,
    warmup: usize,
    timed: usize,
    graph: impl Fn(usize) -> TaskGraph,
) -> f64 {
    let t_warm = simulate(&graph(warmup), machine, None).makespan;
    let t_full = simulate(&graph(warmup + timed), machine, None).makespan;
    (t_full - t_warm) / timed as f64
}

/// Run `iters` solver iterations on a simulated planner and return
/// the task graph.
pub fn build_iteration_graph(
    stencil: Stencil,
    ksm: KsmKind,
    pieces: usize,
    profile: LibraryProfile,
    nodes: usize,
    iters: usize,
) -> TaskGraph {
    let mut planner = sim_planner(stencil, pieces, profile, nodes);
    stepped_graph(&mut planner, |p| ksm.solver(p), iters)
}

/// Simulated steady-state time per iteration of one library profile.
pub fn per_iteration_seconds(
    stencil: Stencil,
    ksm: KsmKind,
    pieces: usize,
    profile: LibraryProfile,
    nodes: usize,
    warmup: usize,
    timed: usize,
) -> f64 {
    steady_state_seconds(&profile.machine(nodes), warmup, timed, |iters| {
        build_iteration_graph(stencil, ksm, pieces, profile, nodes, iters)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_build_graphs() {
        let s = Stencil::lap2d(1 << 9, 1 << 9);
        for profile in [
            LibraryProfile::LegionSolvers,
            LibraryProfile::Petsc,
            LibraryProfile::Trilinos,
        ] {
            let g = build_iteration_graph(s, KsmKind::Cg, 16, profile, 4, 2);
            assert!(!g.is_empty(), "{}", profile.name());
            let barriers = g
                .nodes()
                .iter()
                .filter(|n| n.label == "phase_barrier")
                .count();
            if profile.is_bulk_sync() {
                assert!(barriers > 0, "{} must barrier", profile.name());
            } else {
                assert_eq!(barriers, 0, "{} must not barrier", profile.name());
            }
        }
    }

    #[test]
    fn legion_wins_at_large_sizes() {
        // The paper's headline shape at the benchmark configuration
        // (16 nodes, vp = 64): on large problems the task-oriented
        // model is faster (overlap, no phase collectives), while on
        // tiny problems it is slower (serial dispatch).
        let nodes = 16;
        let pieces = 64;
        let big = Stencil::lap2d(1 << 14, 1 << 14); // 2^28 unknowns
        let t_leg = per_iteration_seconds(
            big,
            KsmKind::BiCgStab,
            pieces,
            LibraryProfile::LegionSolvers,
            nodes,
            2,
            3,
        );
        let t_pet = per_iteration_seconds(
            big,
            KsmKind::BiCgStab,
            pieces,
            LibraryProfile::Petsc,
            nodes,
            2,
            3,
        );
        assert!(
            t_leg < t_pet,
            "large problem: legion {t_leg} must beat petsc {t_pet}"
        );

        let tiny = Stencil::lap2d(1 << 7, 1 << 7); // 2^14 unknowns
        let t_leg_s = per_iteration_seconds(
            tiny,
            KsmKind::Cg,
            pieces,
            LibraryProfile::LegionSolvers,
            nodes,
            2,
            3,
        );
        let t_pet_s = per_iteration_seconds(
            tiny,
            KsmKind::Cg,
            pieces,
            LibraryProfile::Petsc,
            nodes,
            2,
            3,
        );
        assert!(
            t_leg_s > t_pet_s,
            "small problem: legion {t_leg_s} must trail petsc {t_pet_s}"
        );
    }

    #[test]
    fn trilinos_trails_petsc_slightly() {
        let s = Stencil::lap2d(1 << 12, 1 << 12);
        let t_pet = per_iteration_seconds(s, KsmKind::BiCgStab, 16, LibraryProfile::Petsc, 4, 2, 3);
        let t_tri =
            per_iteration_seconds(s, KsmKind::BiCgStab, 16, LibraryProfile::Trilinos, 4, 2, 3);
        assert!(t_tri > t_pet);
        assert!(
            t_tri < 1.3 * t_pet,
            "gap should be modest: {t_pet} vs {t_tri}"
        );
    }
}
