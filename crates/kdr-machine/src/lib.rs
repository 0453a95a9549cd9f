#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # kdr-machine
//!
//! A discrete-event simulator of a GPU cluster, standing in for the
//! Lassen supercomputer in the paper's large-scale experiments.
//!
//! The paper evaluates LegionSolvers on up to 256 nodes × 4 V100 GPUs;
//! problems reach 2^32 unknowns. Neither the hardware nor the problem
//! sizes fit this environment, so — per the reproduction's
//! substitution rules — the solver and baseline code paths emit
//! *abstract task graphs* (compute tasks with flop/byte costs, copies,
//! collectives, barriers) that this crate schedules against a
//! calibrated machine model:
//!
//! * GPUs execute one task at a time; a compute task costs
//!   `overhead + max(flops / rate, bytes / memory-bandwidth)` — a
//!   roofline model, which is exact for bandwidth-bound sparse
//!   kernels.
//! * Each node's NIC serializes its outgoing transfers; a copy costs
//!   `latency + bytes / link-bandwidth`.
//! * Collectives (all-reduce) cost `2⌈log2 P⌉ · latency` plus payload.
//! * An optional per-node *dispatcher* serializes task launches at a
//!   fixed per-task cost, modeling the utility processors of a dynamic
//!   runtime (this is what makes a task-oriented runtime slower on
//!   tiny problems, exactly as the paper reports).
//!
//! Execution-model differences between LegionSolvers (task-oriented,
//! dependence-driven, overlapping) and PETSc/Trilinos
//! (bulk-synchronous, phase barriers) are expressed in the *graphs*
//! the frontends build plus the overhead parameters in
//! [`MachineConfig`]; the engine itself is shared.

pub mod background;
pub mod config;
pub mod graph;
pub mod sim;

pub use background::BackgroundLoad;
pub use config::MachineConfig;
pub use graph::{ProcId, SimNodeId, SimWork, TaskGraph};
pub use sim::{simulate, SimResult};
