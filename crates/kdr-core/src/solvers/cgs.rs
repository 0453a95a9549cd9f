//! Conjugate gradient squared (Sonneveld 1989).
//!
//! Transpose-free variant of BiCG; two forward products per
//! iteration.

use kdr_sparse::Scalar;

use crate::planner::{Planner, RHS, SOL};
use crate::scalar_handle::ScalarHandle;
use crate::solvers::{refuse_preconditioner, BreakdownGuard, BreakdownKind, GuardTrigger, Solver};

/// Conjugate gradients squared: unsymmetric systems, applying the
/// BiCG contraction twice per iteration without the transpose.
pub struct CgsSolver<T: Scalar> {
    r: usize,
    rt: usize,
    u: usize,
    p: usize,
    q: usize,
    v: usize,
    w: usize,
    rho: ScalarHandle<T>,
    res: ScalarHandle<T>,
    /// `(r̃, Ap)` from the latest step.
    last_rtv: Option<ScalarHandle<T>>,
}

impl<T: Scalar> CgsSolver<T> {
    /// Build against a planner (finalizing it on first use).
    pub fn new(planner: &mut Planner<T>) -> Self {
        planner.finalize();
        assert!(planner.is_square(), "CGS requires a square system");
        refuse_preconditioner(planner, "CGS");
        let r = planner.allocate_workspace_vector();
        let rt = planner.allocate_workspace_vector();
        let u = planner.allocate_workspace_vector();
        let p = planner.allocate_workspace_vector();
        let q = planner.allocate_workspace_vector();
        let v = planner.allocate_workspace_vector();
        let w = planner.allocate_workspace_vector();
        planner.matmul(v, SOL);
        planner.copy(r, RHS);
        let minus_one = planner.scalar(-T::ONE);
        planner.axpy(r, &minus_one, v);
        planner.copy(rt, r);
        planner.copy(u, r);
        planner.copy(p, r);
        let rho = planner.dot(rt, r);
        let res = planner.dot(r, r);
        CgsSolver {
            r,
            rt,
            u,
            p,
            q,
            v,
            w,
            rho,
            res,
            last_rtv: None,
        }
    }
}

impl<T: Scalar> Solver<T> for CgsSolver<T> {
    fn step(&mut self, planner: &mut Planner<T>) {
        // v = A p ; alpha = rho / (rt · v).
        planner.matmul(self.v, self.p);
        let rtv = planner.dot(self.rt, self.v);
        self.last_rtv = Some(rtv.clone());
        let alpha = self.rho.clone() / rtv;
        // q = u - alpha v.
        planner.copy(self.q, self.u);
        planner.axpy(self.q, &(-&alpha), self.v);
        // w = u + q ; x += alpha w ; r -= alpha A w.
        planner.copy(self.w, self.u);
        let one = planner.scalar(T::ONE);
        planner.axpy(self.w, &one, self.q);
        planner.axpy(SOL, &alpha, self.w);
        planner.matmul(self.v, self.w);
        planner.axpy(self.r, &(-&alpha), self.v);
        // beta = rho' / rho ; u = r + beta q ; p = u + beta (q + beta p).
        // Both dots read the final r: one fused reduction stage.
        let mut d = planner.dot_many(&[(self.rt, self.r), (self.r, self.r)]);
        self.res = d.pop().expect("two results");
        let new_rho = d.pop().expect("two results");
        let beta = new_rho.clone() / self.rho.clone();
        planner.copy(self.u, self.r);
        planner.axpy(self.u, &beta, self.q);
        planner.xpay(self.p, &beta, self.q);
        planner.xpay(self.p, &beta, self.u);
        self.rho = new_rho;
    }

    fn convergence_measure(&self) -> Option<ScalarHandle<T>> {
        Some(self.res.clone())
    }

    fn name(&self) -> &'static str {
        "cgs"
    }

    fn breakdown_guards(&self) -> Vec<BreakdownGuard<T>> {
        match &self.last_rtv {
            Some(rtv) => vec![
                BreakdownGuard {
                    kind: BreakdownKind::RhoZero,
                    value: self.rho.clone(),
                    trigger: GuardTrigger::NearZero,
                },
                BreakdownGuard {
                    kind: BreakdownKind::AlphaZero,
                    value: rtv.clone(),
                    trigger: GuardTrigger::NearZero,
                },
            ],
            None => Vec::new(),
        }
    }
}
