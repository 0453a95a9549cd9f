//! Fault tolerance: structured task errors, typed runtime errors, and
//! a seeded, deterministic fault injector.
//!
//! # Panic isolation and poison
//!
//! Every task body runs under `catch_unwind`. A panicking body does
//! not abort the process: the task completes as *poisoned*, and the
//! poison propagates through the dependence DAG — transitive
//! successors are retired-as-poisoned without running, so no task
//! ever observes the panicked task's half-written data. The first
//! failure is recorded as a [`TaskError`] and surfaced by
//! [`Runtime::fence`](crate::Runtime::fence) (which keeps returning
//! the error until [`Runtime::take_failure`](crate::Runtime::take_failure)
//! clears it). A body retired unrun is dropped, and with it whatever
//! it captured — a channel sender, say, so a blocked receiver wakes
//! with an error instead of deadlocking.
//!
//! # Deterministic fault injection
//!
//! A [`FaultPlan`] arms the injector with a list of [`FaultSpec`]s:
//! each matches tasks by name substring and fires on a deterministic
//! [`FireSchedule`]. Decisions are made at *submission* time, which
//! the runtime serializes, so a fixed seed reproduces the exact same
//! faults run-to-run regardless of worker interleaving. While no plan
//! is armed the injector costs one relaxed atomic load per task on
//! the submit path — the same contract as the event log on the
//! execute path.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::task::TaskId;

/// Why a task failed to complete normally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TaskErrorKind {
    /// The task body panicked; carries the panic payload's message.
    Panicked(String),
    /// A (transitive) predecessor failed, so this task was retired
    /// without running.
    Poisoned {
        /// The task whose panic started the poison cascade.
        root: TaskId,
        /// Kernel name of the root task.
        root_name: &'static str,
    },
}

/// A structured description of a task failure, surfaced at fences and
/// futures instead of aborting the process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskError {
    /// The failing task's id.
    pub task: TaskId,
    /// The failing task's kernel name.
    pub name: &'static str,
    /// What went wrong.
    pub kind: TaskErrorKind,
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            TaskErrorKind::Panicked(msg) => {
                write!(f, "task {} ('{}') panicked: {msg}", self.task, self.name)
            }
            TaskErrorKind::Poisoned { root, root_name } => write!(
                f,
                "task {} ('{}') poisoned by failed predecessor {} ('{}')",
                self.task, self.name, root, root_name
            ),
        }
    }
}

impl std::error::Error for TaskError {}

/// Typed errors returned by user-reachable [`Runtime`](crate::Runtime)
/// entry points, replacing the former in-runtime panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuntimeError {
    /// A task was submitted without a body (`TaskBuilder::body` was
    /// never called).
    MissingBody {
        /// Name of the body-less task.
        task: &'static str,
    },
    /// `compile_program` was handed a task whose body runs once
    /// (`TaskBuilder::body`); a program runs its bodies on every
    /// run, so they must be `TaskBuilder::shared_body` ones.
    BodyRunsOnce {
        /// Name of the task.
        task: &'static str,
    },
    /// `begin_trace` or `replay` was called while the calling thread
    /// had a capture open.
    NestedTrace,
    /// `end_trace` was called with no capture active.
    NoActiveTrace,
    /// `replay` was handed a task list that does not declare the
    /// captured tasks' names and accesses, task by task (or has
    /// another length).
    ReplayShapeMismatch,
    /// A task failed while the runtime was quiescing for this call.
    TaskFailed(TaskError),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::MissingBody { task } => {
                write!(f, "task '{task}' submitted without a body; call .body(..)")
            }
            RuntimeError::BodyRunsOnce { task } => write!(
                f,
                "task '{task}' of a step program has a run-once body; use .shared_body(..)"
            ),
            RuntimeError::NestedTrace => {
                write!(f, "begin_trace or replay while a capture is active")
            }
            RuntimeError::NoActiveTrace => write!(f, "end_trace without begin_trace"),
            RuntimeError::ReplayShapeMismatch => {
                write!(f, "replay task list does not match the captured tasks")
            }
            RuntimeError::TaskFailed(e) => write!(f, "task failed: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// The kind of fault the injector plants in a matched task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the task body (exercises poison propagation).
    Panic,
    /// Sleep this long before running the body (exercises the
    /// watchdog's stall detection).
    Stall {
        /// Artificial delay in milliseconds.
        millis: u64,
    },
    /// Run the body, then overwrite the first element of the task's
    /// first writable requirement with an all-ones bit pattern (NaN
    /// for floating-point buffers) — a silent data corruption that
    /// only checkpoint validation can catch.
    CorruptWrite,
}

/// When a [`FaultSpec`] fires, counted over the tasks it matches (in
/// deterministic submission order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FireSchedule {
    /// Fire on exactly the `n`-th match (1-based), once.
    Nth(u64),
    /// Fire on every `n`-th match.
    EveryNth(u64),
    /// Fire on each match with probability `millionths / 1e6`, drawn
    /// from a SplitMix64 stream keyed on the plan seed, the spec
    /// index, and the match ordinal — fully reproducible for a fixed
    /// seed.
    Random {
        /// Firing probability in millionths (1_000_000 = always).
        millionths: u32,
    },
}

/// One fault-injection rule: which tasks, what fault, when.
#[derive(Clone, Debug)]
pub struct FaultSpec {
    /// Substring matched against task names (e.g. `"dot_partial"`).
    pub name_contains: String,
    /// The fault to plant.
    pub kind: FaultKind,
    /// The firing schedule over matched tasks.
    pub schedule: FireSchedule,
    /// Stop firing after this many injections (0 = unlimited).
    pub max_fires: u64,
}

/// A seeded set of fault-injection rules.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed for the `Random` schedules' deterministic stream.
    pub seed: u64,
    /// The rules; the first matching spec decides a task's fate.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A plan with the given seed and no rules yet.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            specs: Vec::new(),
        }
    }

    /// Append a rule.
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }
}

/// SplitMix64: a tiny, high-quality mixing function — enough PRNG for
/// reproducible fault scheduling without external dependencies.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

struct ArmedPlan {
    plan: FaultPlan,
    /// Per-spec count of tasks matched so far.
    matches: Vec<u64>,
    /// Per-spec count of faults fired so far.
    fires: Vec<u64>,
}

/// The injector: holds the armed plan and decides, at submission
/// time, whether each task carries a fault. Disabled cost is one
/// relaxed atomic load per submitted task.
pub(crate) struct FaultInjector {
    armed: AtomicBool,
    injected: AtomicU64,
    state: Mutex<Option<ArmedPlan>>,
}

impl FaultInjector {
    pub(crate) fn new() -> Self {
        FaultInjector {
            armed: AtomicBool::new(false),
            injected: AtomicU64::new(0),
            state: Mutex::new(None),
        }
    }

    /// Arm (or disarm, with `None`) the injector. Resets all match
    /// and fire counters.
    pub(crate) fn install(&self, plan: Option<FaultPlan>) {
        let mut st = self.state.lock();
        match plan {
            Some(p) => {
                let n = p.specs.len();
                *st = Some(ArmedPlan {
                    plan: p,
                    matches: vec![0; n],
                    fires: vec![0; n],
                });
                self.armed.store(true, Ordering::Relaxed);
            }
            None => {
                *st = None;
                self.armed.store(false, Ordering::Relaxed);
            }
        }
    }

    /// Total faults injected since the injector was created.
    pub(crate) fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Decide whether the task named `name` (submitted now, in
    /// deterministic submission order) carries a fault.
    pub(crate) fn decide(&self, name: &str) -> Option<FaultKind> {
        // The entire disabled-path cost: one relaxed load.
        if !self.armed.load(Ordering::Relaxed) {
            return None;
        }
        let mut st = self.state.lock();
        let armed = st.as_mut()?;
        for (i, spec) in armed.plan.specs.iter().enumerate() {
            if !name.contains(spec.name_contains.as_str()) {
                continue;
            }
            armed.matches[i] += 1;
            if spec.max_fires != 0 && armed.fires[i] >= spec.max_fires {
                return None;
            }
            let m = armed.matches[i];
            let fire = match spec.schedule {
                FireSchedule::Nth(n) => m == n.max(1),
                FireSchedule::EveryNth(n) => m % n.max(1) == 0,
                FireSchedule::Random { millionths } => {
                    let draw = splitmix64(armed.plan.seed ^ ((i as u64) << 32).wrapping_add(m))
                        % 1_000_000;
                    draw < u64::from(millionths)
                }
            };
            if fire {
                armed.fires[i] += 1;
                self.injected.fetch_add(1, Ordering::Relaxed);
                return Some(spec.kind);
            }
            // First matching spec decides, fire or not.
            return None;
        }
        None
    }

    /// [`FaultInjector::decide`] for every body of a step program, in
    /// body order. Empty while disarmed: one relaxed load for the
    /// whole step.
    pub(crate) fn decide_all<'a>(
        &self,
        names: impl Iterator<Item = &'a str>,
    ) -> Vec<Option<FaultKind>> {
        if !self.armed.load(Ordering::Relaxed) {
            return Vec::new();
        }
        names.map(|name| self.decide(name)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(schedule: FireSchedule) -> FaultPlan {
        FaultPlan::seeded(42).with(FaultSpec {
            name_contains: "dot".into(),
            kind: FaultKind::Panic,
            schedule,
            max_fires: 0,
        })
    }

    #[test]
    fn disarmed_injector_never_fires() {
        let inj = FaultInjector::new();
        for _ in 0..100 {
            assert_eq!(inj.decide("dot_partial"), None);
        }
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn nth_fires_exactly_once() {
        let inj = FaultInjector::new();
        inj.install(Some(plan(FireSchedule::Nth(3))));
        let fired: Vec<bool> = (0..6)
            .map(|_| inj.decide("dot_partial").is_some())
            .collect();
        assert_eq!(fired, vec![false, false, true, false, false, false]);
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn every_nth_respects_max_fires() {
        let inj = FaultInjector::new();
        let mut p = plan(FireSchedule::EveryNth(2));
        p.specs[0].max_fires = 2;
        inj.install(Some(p));
        let fired: Vec<bool> = (0..8).map(|_| inj.decide("dot_reduce").is_some()).collect();
        assert_eq!(
            fired,
            vec![false, true, false, true, false, false, false, false]
        );
    }

    #[test]
    fn non_matching_names_ignored() {
        let inj = FaultInjector::new();
        inj.install(Some(plan(FireSchedule::Nth(1))));
        assert_eq!(inj.decide("axpy"), None);
        assert!(inj.decide("dot_partial").is_some());
    }

    #[test]
    fn random_schedule_is_reproducible() {
        let run = || {
            let inj = FaultInjector::new();
            inj.install(Some(plan(FireSchedule::Random {
                millionths: 300_000,
            })));
            (0..64)
                .map(|_| inj.decide("dot_partial").is_some())
                .collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must reproduce the same firing pattern");
        assert!(
            a.iter().any(|&f| f),
            "30% over 64 draws should fire at least once"
        );
        assert!(a.iter().any(|&f| !f));
    }

    #[test]
    fn error_displays_are_informative() {
        let e = TaskError {
            task: 7,
            name: "spmv_csr",
            kind: TaskErrorKind::Panicked("boom".into()),
        };
        assert!(e.to_string().contains("spmv_csr"));
        assert!(e.to_string().contains("boom"));
        let p = TaskError {
            task: 9,
            name: "axpy",
            kind: TaskErrorKind::Poisoned {
                root: 7,
                root_name: "spmv_csr",
            },
        };
        assert!(p.to_string().contains("poisoned"));
        let r = RuntimeError::ReplayShapeMismatch;
        assert!(r.to_string().contains("does not match the captured tasks"));
        assert!(RuntimeError::NoActiveTrace
            .to_string()
            .contains("end_trace"));
    }
}
