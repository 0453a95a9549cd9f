//! Conjugate gradient (Hestenes & Stiefel 1952), plain and
//! preconditioned.
//!
//! [`CgSolver`] is a line-for-line port of the paper's Figure 7
//! listing, generalized to a nonzero initial guess. On a planner with
//! a preconditioner it runs PCG: the same recurrence with `z = P r`
//! (`psolve`) inserted.

use kdr_sparse::Scalar;

use crate::planner::{Planner, RHS, SOL};
use crate::scalar_handle::ScalarHandle;
use crate::solvers::{BreakdownGuard, BreakdownKind, GuardTrigger, Solver};

/// CG on a square system, preconditioned when the planner has a
/// preconditioner.
pub struct CgSolver<T: Scalar> {
    p: usize,
    q: usize,
    r: usize,
    /// `z = P r`, present when the planner has a preconditioner.
    z: Option<usize>,
    /// `r · z` (deferred); without a preconditioner `z` is `r`, and
    /// this is a clone of `res`.
    rz: ScalarHandle<T>,
    /// Squared residual norm (deferred).
    res: ScalarHandle<T>,
    /// `(p, Ap)` from the latest step: must stay positive on an SPD
    /// operator.
    last_pq: Option<ScalarHandle<T>>,
}

impl<T: Scalar> CgSolver<T> {
    /// Build against a planner (finalizing it on first use).
    pub fn new(planner: &mut Planner<T>) -> Self {
        planner.finalize();
        assert!(planner.is_square(), "CG requires a square system");
        let p = planner.allocate_workspace_vector();
        let q = planner.allocate_workspace_vector();
        let r = planner.allocate_workspace_vector();
        let z = planner
            .has_preconditioner()
            .then(|| planner.allocate_workspace_vector());
        // r = b - A x0 ; p = z = P r.
        planner.matmul(q, SOL);
        planner.copy(r, RHS);
        let minus_one = planner.scalar(-T::ONE);
        planner.axpy(r, &minus_one, q);
        let (rz, res) = match z {
            Some(z) => {
                planner.psolve(z, r);
                planner.copy(p, z);
                (planner.dot(r, z), planner.dot(r, r))
            }
            None => {
                planner.copy(p, r);
                let res = planner.dot(r, r);
                (res.clone(), res)
            }
        };
        CgSolver {
            p,
            q,
            r,
            z,
            rz,
            res,
            last_pq: None,
        }
    }
}

impl<T: Scalar> Solver<T> for CgSolver<T> {
    fn step(&mut self, planner: &mut Planner<T>) {
        planner.matmul(self.q, self.p);
        let pq = planner.dot(self.p, self.q);
        self.last_pq = Some(pq.clone());
        let alpha = &self.rz / &pq;
        planner.axpy(SOL, &alpha, self.p);
        planner.axpy(self.r, &(-&alpha), self.q);
        let new_rz = match self.z {
            Some(z) => {
                planner.psolve(z, self.r);
                // The algorithmic dot and the residual measure read
                // the same updated r: one fused reduction stage
                // instead of two fences.
                let [rz, res] = planner.dots(&[(self.r, z), (self.r, self.r)]);
                self.res = res;
                rz
            }
            None => {
                self.res = planner.dot(self.r, self.r);
                self.res.clone()
            }
        };
        let beta = &new_rz / &self.rz;
        planner.xpay(self.p, &beta, self.z.unwrap_or(self.r));
        self.rz = new_rz;
    }

    fn convergence_measure(&self) -> Option<ScalarHandle<T>> {
        Some(self.res.clone())
    }

    fn name(&self) -> &'static str {
        match self.z {
            Some(_) => "pcg",
            None => "cg",
        }
    }

    fn breakdown_guards(&self, guards: &mut Vec<BreakdownGuard<T>>) {
        let Some(pq) = &self.last_pq else {
            return;
        };
        guards.push(BreakdownGuard {
            kind: BreakdownKind::IndefiniteOperator,
            value: pq.clone(),
            trigger: GuardTrigger::NonPositive,
        });
        if self.z.is_some() {
            guards.push(BreakdownGuard {
                kind: BreakdownKind::RhoZero,
                value: self.rz.clone(),
                trigger: GuardTrigger::NearZero,
            });
        }
    }
}
