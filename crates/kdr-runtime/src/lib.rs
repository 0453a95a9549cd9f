#![warn(missing_docs)]
#![deny(unsafe_code)]
//! # kdr-runtime
//!
//! A task-oriented runtime in the mold of Legion, built from scratch
//! as the execution substrate for KDRSolvers.
//!
//! The programming model: the application submits *tasks*, each
//! declaring the data it touches as *(buffer, subset, privilege)*
//! requirements. The runtime performs *dependence analysis* — two
//! tasks conflict when their declared subsets of the same buffer
//! overlap and at least one writes — and executes the resulting DAG on
//! a pool of worker threads, overlapping everything the analysis
//! proves independent. A ready task of partition colour `c` is queued
//! on worker `c % W`, so a piece's tasks keep to one worker's cache,
//! and colourless tasks are dealt to the workers in turn; an idle
//! worker steals from its peers. A thread that waits on the runtime — at a
//! [`Runtime::fence`], or in [`Runtime::wait_written`] for the tasks
//! writing a buffer it wants to read — runs ready tasks while it
//! waits. *Dynamic tracing* memoizes the dependence analysis of a
//! repeated task sequence (after Lee et al., SC'18, which the paper
//! cites for exactly this purpose) and compiles it into a step graph
//! whose tasks with one home worker `c % W` replay fused ([`trace`]):
//! a [`StepProgram`] keeps the captured tasks and runs them again.
//! There is one ready queue per worker and no task priority: where a
//! task runs is its colour alone.
//!
//! ## Safety model
//!
//! Buffers hand out [`ReadView`]/[`WriteView`] accessors, borrowed
//! from the running task's context, that perform raw-pointer element
//! reads and writes and lend a contiguous run as a slice
//! (`range`/`range_mut`) for vectorised kernels. Dependence analysis
//! guarantees that no two *concurrently running* tasks hold
//! overlapping views of the same buffer with a writer among them —
//! the same discipline Legion enforces — which makes the accesses
//! data-race free; within one task, a requirement may be sliced only
//! if it shares no element with a write requirement of the same task.
//! Debug builds assert that, and that every access stays inside the
//! subset the task declared. All `unsafe` in this crate lives in
//! [`buffer`], and the compiler holds it there: the crate denies
//! `unsafe_code` and `buffer` is the one module allowed it.
//!
//! ## Observability
//!
//! The runtime can explain where time goes: [`Runtime::enable_events`]
//! turns on a structured event log ([`events`]) recording
//! one [`TaskSpan`] per task (submit → ready → execute → retire, with
//! analyzed-vs-replayed [`Provenance`]); [`Runtime::metrics`] returns
//! a [`MetricsSnapshot`] of counters ([`metrics`]); and [`export`]
//! renders spans as Chrome `trace_event` JSON (Perfetto-loadable), a
//! per-phase summary table, and a critical-path estimate. Logging is
//! off by default and costs one relaxed atomic load per task while off.
//!
//! ## Fault tolerance
//!
//! A task panic never aborts the process: the body runs under
//! `catch_unwind`, the task completes as *poisoned*, its transitive
//! successors are retired without running, and the first failure
//! surfaces as a structured [`TaskError`] at
//! [`Runtime::fence`] / [`Runtime::take_failure`].
//! [`Runtime::set_fault_plan`] arms a seeded, deterministic fault
//! injector (see [`FaultPlan`]) for testing recovery paths, and [`Runtime::set_stall_budget`] starts a
//! watchdog that counts tasks exceeding a stall budget. Disabled,
//! the whole layer costs one relaxed atomic load per task on each of
//! the submit and execute paths — the same contract as the event
//! log.

#[allow(unsafe_code)]
pub mod buffer;
pub mod events;
pub mod executor;
pub mod export;
pub mod fault;
pub mod graph;
pub mod metrics;
pub mod runtime;
pub mod task;
pub mod trace;

pub use buffer::{Buffer, ReadView, WriteView};
pub use events::{Provenance, TaskOutcome, TaskSpan, DEFAULT_RING_CAPACITY};
pub use export::{
    chrome_trace_json, chrome_trace_json_with_counters, critical_path, phase_summary, CriticalPath,
};
pub use fault::{
    FaultKind, FaultPlan, FaultSpec, FireSchedule, RuntimeError, TaskError, TaskErrorKind,
};
pub use metrics::MetricsSnapshot;
pub use runtime::Runtime;
pub use task::{Privilege, TaskBuilder, TaskContext, TaskId, TaskMeta};
pub use trace::{ShapeSig, StepProgram, Trace};
