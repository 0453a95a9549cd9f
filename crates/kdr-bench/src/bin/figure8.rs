//! Regenerates the paper's Figure 8: execution time per iteration of
//! CG, BiCGStab and GMRES(10) on the four Laplacian stencil families,
//! problem sizes stepping in powers of two, for LegionSolvers, PETSc
//! and Trilinos on 16 Lassen nodes (64 GPUs).
//!
//! Per the reproduction's substitution rules, all three libraries run
//! on the calibrated machine simulator: the same solver code and the
//! same dependent-partitioning tiles, differing only in execution
//! model (task-oriented vs bulk-synchronous) and kernel profile.
//! PETSc is omitted from GMRES, as in the paper (different restart
//! policy).
//!
//! Usage:
//!   cargo run --release -p kdr-bench --bin figure8 [-- --quick]
//!
//! Output: CSV `stencil,ksm,unknowns,library,us_per_iteration`, then
//! the geometric-mean speedups over the three largest sizes per
//! subplot (the paper's headline 9.6% / 5.4%).

use kdr_baselines::{per_iteration_seconds, KsmKind, LibraryProfile};
use kdr_bench::{geomean, sized_stencil, STENCILS};
use kdr_sparse::StencilKind;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let no_overlap = std::env::args().any(|a| a == "--no-overlap");
    // Paper: 16 nodes × 4 GPUs, vp = 64, sizes 2^24..2^32.
    let (nodes, sizes): (usize, Vec<u32>) = if quick {
        (4, (20..=26).step_by(2).collect())
    } else {
        (16, (24..=32).collect())
    };
    let pieces = nodes * 4;
    let (warmup, timed) = (3usize, 5usize);
    // GMRES cycles are 10 iterations; span at least one full cycle.
    let (gwarmup, gtimed) = (12usize, 10usize);

    let libraries = [
        LibraryProfile::LegionSolvers,
        LibraryProfile::Petsc,
        LibraryProfile::Trilinos,
    ];
    let ksms = [KsmKind::Cg, KsmKind::BiCgStab, KsmKind::Gmres];

    println!("stencil,ksm,unknowns,library,us_per_iteration");
    // (stencil, ksm) -> Vec<(library, size, time)>
    let mut rows: Vec<(StencilKind, KsmKind, LibraryProfile, u32, f64)> = Vec::new();
    for kind in STENCILS {
        for ksm in ksms {
            for &e in &sizes {
                let stencil = sized_stencil(kind, e);
                for lib in libraries {
                    if ksm == KsmKind::Gmres && lib == LibraryProfile::Petsc {
                        continue; // dynamic restart, not comparable
                    }
                    let (w, t) = if ksm == KsmKind::Gmres {
                        (gwarmup, gtimed)
                    } else {
                        (warmup, timed)
                    };
                    let mut secs = per_iteration_seconds(stencil, ksm, pieces, lib, nodes, w, t);
                    if no_overlap && lib == LibraryProfile::LegionSolvers {
                        // Ablation: forbid overlap by running the
                        // Legion profile bulk-synchronously.
                        secs = ablation_no_overlap(stencil, ksm, pieces, nodes, w, t);
                    }
                    println!(
                        "{:?},{},{},{},{:.3}",
                        kind,
                        ksm.name(),
                        1u64 << e,
                        lib.name(),
                        secs * 1e6
                    );
                    rows.push((kind, ksm, lib, e, secs));
                }
            }
        }
    }

    // Headline: geometric-mean improvement of LegionSolvers over each
    // baseline across the three largest sizes of every subplot.
    let top3: Vec<u32> = {
        let mut s = sizes.clone();
        s.sort_unstable();
        s[s.len().saturating_sub(3)..].to_vec()
    };
    for baseline in [LibraryProfile::Petsc, LibraryProfile::Trilinos] {
        let mut ratios = Vec::new();
        for kind in STENCILS {
            for ksm in ksms {
                if ksm == KsmKind::Gmres && baseline == LibraryProfile::Petsc {
                    continue;
                }
                for &e in &top3 {
                    let find = |lib: LibraryProfile| {
                        rows.iter()
                            .find(|r| r.0 == kind && r.1 == ksm && r.2 == lib && r.3 == e)
                            .map(|r| r.4)
                    };
                    if let (Some(leg), Some(base)) =
                        (find(LibraryProfile::LegionSolvers), find(baseline))
                    {
                        ratios.push(base / leg);
                    }
                }
            }
        }
        let g = geomean(&ratios);
        println!(
            "# geomean speedup of LegionSolvers over {} on the 3 largest sizes: {:.1}% ({} cells)",
            baseline.name(),
            (g - 1.0) * 100.0,
            ratios.len()
        );
    }
}

/// Ablation arm for `--no-overlap`: the Legion machine profile but
/// bulk-synchronous phases — isolates how much of the win is
/// communication/computation overlap.
fn ablation_no_overlap(
    stencil: kdr_sparse::Stencil,
    ksm: KsmKind,
    pieces: usize,
    nodes: usize,
    warmup: usize,
    timed: usize,
) -> f64 {
    use kdr_baselines::{steady_state_seconds, stencil_planner, stepped_graph};
    use kdr_core::simbackend::SimBackend;
    use kdr_machine::MachineConfig;

    let machine = MachineConfig::lassen(nodes).legion_profile();
    steady_state_seconds(&machine, warmup, timed, |iters| {
        let backend = SimBackend::<f64>::new(machine.clone())
            .with_index_bytes(4.0)
            .bulk_synchronous();
        let mut planner = stencil_planner(backend, stencil, pieces);
        stepped_graph(&mut planner, |p| ksm.solver(p), iters)
    })
}
