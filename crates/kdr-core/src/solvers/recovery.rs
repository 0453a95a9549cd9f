//! Checkpoint/restart recovery around the solve loop.
//!
//! [`solve_recoverable`] wraps [`solve`] with periodic
//! checkpoints (a `SOL` snapshot validated against the *true* residual
//! `‖Ax − b‖`, recomputed outside the solver's recurrence) and
//! restarts from the last checkpoint when a runtime task fails or the
//! iteration goes non-finite. Rebuilding the solver from its
//! constructor recomputes `r = b − A x` from the restored iterate, so
//! the recurrence restarts consistent with the checkpoint even when
//! the failure corrupted the solver's workspace vectors.
//!
//! Recovery is attempted only for [`SolveError::TaskFailed`] and
//! [`SolveError::NonFinite`] — the transient, fault-shaped failures.
//! Mathematical breakdowns ([`SolveError::Breakdown`],
//! [`SolveError::Diverged`]) would recur from the same state and are
//! returned to the caller unchanged.

use kdr_sparse::Scalar;

use super::{solve, SolveControl, SolveError, SolveOutcome, SolveReport, Solver};
use crate::planner::Planner;
use crate::{RHS, SOL};

/// Checkpoint/restart policy for [`solve_recoverable`].
#[derive(Clone, Copy, Debug)]
pub struct RecoveryPolicy {
    /// Snapshot `SOL` (and validate the true residual) every this many
    /// iterations; `0` checkpoints only at the initial guess.
    pub checkpoint_every: usize,
    /// Give up (returning the last error) after this many restarts.
    pub max_restarts: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            checkpoint_every: 0,
            max_restarts: 2,
        }
    }
}

/// Solve with checkpoint/restart fault recovery.
///
/// `make_solver` rebuilds the method from the planner's current `SOL`
/// contents; it is called once up front and once per restart. The
/// iteration budget and tolerance come from `control`; `report.iters`
/// counts iterations across all attempts, and `report.restarts` /
/// `report.checkpoints` record the recovery activity.
///
/// The true-residual validation at each checkpoint is what catches
/// *silent* corruption (e.g. an injected bit-flip that never panics):
/// a snapshot is only promoted to the recovery point when
/// `‖Ax − b‖` is finite.
pub fn solve_recoverable<T, S, F>(
    planner: &mut Planner<T>,
    mut make_solver: F,
    control: SolveControl,
    policy: RecoveryPolicy,
) -> SolveOutcome
where
    T: Scalar,
    S: Solver<T>,
    F: FnMut(&mut Planner<T>) -> S,
{
    let ncomp = planner.num_sol_components();
    let snapshot = |p: &mut Planner<T>| -> Vec<Vec<T>> {
        (0..ncomp).map(|c| p.read_component(SOL, c)).collect()
    };
    // True residual ‖Ax − b‖², recomputed from scratch so it cannot
    // inherit corruption from the solver's recurrence.
    let w = planner.allocate_workspace_vector_rhs();
    let minus_one = planner.scalar(T::from_f64(-1.0));
    let true_resid2 = |p: &mut Planner<T>| -> f64 {
        p.matmul(w, SOL);
        p.axpy(w, &minus_one, RHS);
        p.dot(w, w).get().to_f64()
    };

    let mut checkpoint = snapshot(planner);
    let mut restarts = 0usize;
    let mut checkpoints = 0usize;
    let mut iters_done = 0usize;
    let mut converged = false;
    let mut final_residual = f64::NAN;
    let mut last_err: Option<SolveError> = None;
    let _ = planner.take_fault();
    let mut solver = make_solver(planner);

    while iters_done < control.max_iters && !converged {
        let seg = if policy.checkpoint_every > 0 {
            policy.checkpoint_every.min(control.max_iters - iters_done)
        } else {
            control.max_iters - iters_done
        };
        let seg_control = SolveControl {
            max_iters: seg,
            ..control.clone()
        };
        let mut pending: Option<SolveError> = None;
        match solve(planner, &mut solver, seg_control) {
            Ok(rep) => {
                iters_done += rep.iters;
                final_residual = rep.final_residual;
                converged = rep.converged;
                let t2 = true_resid2(planner);
                if t2.is_finite() && planner.take_fault().is_none() {
                    checkpoint = snapshot(planner);
                    checkpoints += 1;
                    if rep.iters == 0 && !converged {
                        // A zero-length segment cannot make progress;
                        // avoid spinning forever.
                        break;
                    }
                } else {
                    // Silent corruption slipped past the solver's own
                    // recurrence; roll back instead of promoting it.
                    converged = false;
                    pending = Some(SolveError::NonFinite {
                        iteration: iters_done,
                    });
                }
            }
            Err(e @ (SolveError::TaskFailed { .. } | SolveError::NonFinite { .. })) => {
                pending = Some(e);
            }
            Err(e) => return Err(e),
        }
        if let Some(e) = pending {
            last_err = Some(e.clone());
            if restarts >= policy.max_restarts {
                return Err(e);
            }
            restarts += 1;
            let _ = planner.take_fault();
            // Re-run through full dependence analysis rather than
            // replay a step program captured alongside the fault.
            planner.set_step_tracing(false);
            for (c, data) in checkpoint.iter().enumerate() {
                planner.set_sol_data(c, data);
            }
            solver = make_solver(planner);
        }
    }
    if !converged {
        if let Some(e) = last_err {
            // The budget ran out while recovering; surface the fault
            // rather than an inconclusive report.
            if control.tol > 0.0 && !final_residual.is_finite() {
                return Err(e);
            }
        }
    }
    Ok(SolveReport {
        iters: iters_done,
        final_residual,
        converged,
        restarts,
        checkpoints,
    })
}
