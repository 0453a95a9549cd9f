//! Biconjugate gradient (Fletcher 1976).
//!
//! Exercises the planner's *adjoint* matrix-vector product
//! (`matmul_transpose`) — one forward and one adjoint product per
//! iteration.

use kdr_sparse::Scalar;

use crate::planner::{Planner, RHS, SOL};
use crate::scalar_handle::ScalarHandle;
use crate::solvers::{refuse_preconditioner, BreakdownGuard, BreakdownKind, GuardTrigger, Solver};

/// Biconjugate gradients: unsymmetric systems via the two-sided
/// Lanczos process (a transpose solve per iteration).
pub struct BiCgSolver<T: Scalar> {
    r: usize,
    rt: usize,
    p: usize,
    pt: usize,
    q: usize,
    qt: usize,
    rho: ScalarHandle<T>,
    res: ScalarHandle<T>,
    /// `(p̃, Ap)` from the latest step.
    last_ptq: Option<ScalarHandle<T>>,
}

impl<T: Scalar> BiCgSolver<T> {
    /// Build against a planner (finalizing it on first use).
    pub fn new(planner: &mut Planner<T>) -> Self {
        planner.finalize();
        assert!(planner.is_square(), "BiCG requires a square system");
        refuse_preconditioner(planner, "BiCG");
        let r = planner.allocate_workspace_vector();
        let rt = planner.allocate_workspace_vector();
        let p = planner.allocate_workspace_vector();
        let pt = planner.allocate_workspace_vector();
        let q = planner.allocate_workspace_vector();
        let qt = planner.allocate_workspace_vector();
        // r = b - A x0 ; shadow residual starts equal to r.
        planner.matmul(q, SOL);
        planner.copy(r, RHS);
        let minus_one = planner.scalar(-T::ONE);
        planner.axpy(r, &minus_one, q);
        planner.copy(rt, r);
        planner.copy(p, r);
        planner.copy(pt, rt);
        let rho = planner.dot(rt, r);
        let res = planner.dot(r, r);
        BiCgSolver {
            r,
            rt,
            p,
            pt,
            q,
            qt,
            rho,
            res,
            last_ptq: None,
        }
    }
}

impl<T: Scalar> Solver<T> for BiCgSolver<T> {
    fn step(&mut self, planner: &mut Planner<T>) {
        planner.matmul(self.q, self.p);
        planner.matmul_transpose(self.qt, self.pt);
        let ptq = planner.dot(self.pt, self.q);
        self.last_ptq = Some(ptq.clone());
        let alpha = &self.rho / &ptq;
        planner.axpy(SOL, &alpha, self.p);
        planner.axpy(self.r, &(-&alpha), self.q);
        planner.axpy(self.rt, &(-&alpha), self.qt);
        // Both dots read the updated residual: one fused reduction.
        let [new_rho, res] = planner.dots(&[(self.rt, self.r), (self.r, self.r)]);
        self.res = res;
        let beta = &new_rho / &self.rho;
        planner.xpay(self.p, &beta, self.r);
        planner.xpay(self.pt, &beta, self.rt);
        self.rho = new_rho;
    }

    fn convergence_measure(&self) -> Option<ScalarHandle<T>> {
        Some(self.res.clone())
    }

    fn name(&self) -> &'static str {
        "bicg"
    }

    fn breakdown_guards(&self, guards: &mut Vec<BreakdownGuard<T>>) {
        if let Some(ptq) = &self.last_ptq {
            guards.extend([
                BreakdownGuard {
                    kind: BreakdownKind::RhoZero,
                    value: self.rho.clone(),
                    trigger: GuardTrigger::NearZero,
                },
                BreakdownGuard {
                    kind: BreakdownKind::AlphaZero,
                    value: ptq.clone(),
                    trigger: GuardTrigger::NearZero,
                },
            ]);
        }
    }
}
