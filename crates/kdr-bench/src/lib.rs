#![forbid(unsafe_code)]
//! # kdr-bench
//!
//! The paper's evaluation, regenerated, plus the two scaling curves
//! this repository can only model. The tables and figures are
//! `kdr-machine` simulations — deterministic, no clock:
//!
//! | Binary | What it regenerates |
//! |--------|---------------------|
//! | `table3`   | Figure 3 — format/relation table, verified |
//! | `figure8`  | Figure 8 — CG/BiCGStab/GMRES × four stencils × sizes, LegionSolvers vs PETSc vs Trilinos |
//! | `figure9`  | Figure 9 — single- vs multi-operator BiCGStab |
//! | `figure10` | Figure 10 — dynamic load balancing time series |
//! | `benchmark_stencil` | the artifact's driver: one stencil × solver × size, threaded (wall-clock) or `--sim` |
//! | `modeled_scaling` | fence-minimal CG at 256 simulated nodes; sharded front door at 1–16 simulated shard groups |
//!
//! Measured performance is not here: wall-clock numbers come from the
//! `perf_ledger` package at the repository root (end-to-end metrics,
//! and with `--trace 1` the per-layer ledger), and contracts are
//! asserted by `cargo test`.

use kdr_sparse::{Stencil, StencilKind};

/// The paper's four stencil families.
pub const STENCILS: [StencilKind; 4] = [
    StencilKind::Lap1D3,
    StencilKind::Lap2D5,
    StencilKind::Lap3D7,
    StencilKind::Lap3D27,
];

/// A stencil problem with exactly `2^log2n` unknowns, shaped like the
/// paper's Cartesian meshes (squares and near-cubes in powers of two).
pub fn sized_stencil(kind: StencilKind, log2n: u32) -> Stencil {
    match kind {
        StencilKind::Lap1D3 => Stencil::lap1d(1 << log2n),
        StencilKind::Lap2D5 => {
            let ex = log2n.div_ceil(2);
            let ey = log2n - ex;
            Stencil::lap2d(1 << ex, 1 << ey)
        }
        StencilKind::Lap3D7 | StencilKind::Lap3D27 => {
            let ex = log2n.div_ceil(3);
            let ey = (log2n - ex).div_ceil(2);
            let ez = log2n - ex - ey;
            let s = |e: u32| 1u64 << e;
            if kind == StencilKind::Lap3D7 {
                Stencil::lap3d7(s(ex), s(ey), s(ez))
            } else {
                Stencil::lap3d27(s(ex), s(ey), s(ez))
            }
        }
    }
}

/// Geometric mean.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sized_stencils_hit_target_size() {
        for kind in STENCILS {
            for e in [12u32, 20, 24] {
                let s = sized_stencil(kind, e);
                assert_eq!(s.unknowns(), 1u64 << e, "{kind:?} 2^{e}");
            }
        }
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }
}
