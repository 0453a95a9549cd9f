#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # kdr-baselines
//!
//! The comparison libraries of the paper's §6.1, rebuilt as the
//! substitution rules require.
//!
//! PETSc and Trilinos are bulk-synchronous MPI libraries: a solve
//! owns its processors, every operation is a global phase, halo
//! exchanges and all-reduces block. This crate reproduces that
//! execution model twice:
//!
//! * [`spmd`] + [`ksm`] — a *real*, runnable SPMD implementation:
//!   threads play MPI ranks, each owning a contiguous row slab of a
//!   CSR matrix; communication is barrier-disciplined shared memory
//!   (halo windows, all-reduce slots). CG, BiCGStab and GMRES(10) are
//!   written in classic rank-local style, giving an independent
//!   implementation to cross-check KDRSolvers numerics against.
//! * [`simsetup`] — planner constructors that pair KDRSolvers'
//!   solvers with the bulk-synchronous simulation backend under
//!   PETSc-like and Trilinos-like machine profiles, so the Figure 8
//!   comparison isolates exactly what the paper isolates: the
//!   execution model, not the numerics.

pub mod ksm;
pub mod simsetup;
pub mod spmd;

pub use ksm::{solve_spmd, BaselineKsm, SpmdSolveResult};
pub use simsetup::{
    build_iteration_graph, per_iteration_seconds, sim_planner, steady_state_seconds,
    stencil_planner, stepped_graph, KsmKind, LibraryProfile,
};
pub use spmd::{run_spmd, SharedVec, SpmdContext};
