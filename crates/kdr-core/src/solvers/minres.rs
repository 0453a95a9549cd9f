//! Minimum residual method (Paige & Saunders 1975).
//!
//! For symmetric (possibly indefinite) systems: a three-term Lanczos
//! recurrence with a running QR factorization by Givens rotations.
//! Vector state rotates by exchanging workspace ids — no data moves.

use kdr_sparse::Scalar;

use crate::planner::{Planner, RHS, SOL};
use crate::scalar_handle::ScalarHandle;
use crate::solvers::{refuse_preconditioner, BreakdownGuard, BreakdownKind, GuardTrigger, Solver};

/// MINRES: symmetric (possibly indefinite) systems via the Lanczos
/// process with on-the-fly Givens QR.
pub struct MinresSolver<T: Scalar> {
    /// Lanczos vectors: previous, current, and scratch for the next.
    v_prev: usize,
    v: usize,
    p: usize,
    /// Direction history `w`, `w_old`, plus scratch.
    w1: usize,
    w2: usize,
    wt: usize,
    beta: ScalarHandle<T>,
    c: ScalarHandle<T>,
    c_old: ScalarHandle<T>,
    s: ScalarHandle<T>,
    s_old: ScalarHandle<T>,
    eta: ScalarHandle<T>,
    /// Squared residual estimate `eta²`.
    res2: ScalarHandle<T>,
    /// QR pivot `ρ₁` from the latest step: the divisor for both the
    /// new rotation and the direction update.
    last_rho1: Option<ScalarHandle<T>>,
}

impl<T: Scalar> MinresSolver<T> {
    /// Build against a planner (finalizing it on first use).
    pub fn new(planner: &mut Planner<T>) -> Self {
        planner.finalize();
        assert!(planner.is_square(), "MINRES requires a square system");
        refuse_preconditioner(planner, "MINRES");
        let v_prev = planner.allocate_workspace_vector();
        let v = planner.allocate_workspace_vector();
        let p = planner.allocate_workspace_vector();
        let w1 = planner.allocate_workspace_vector();
        let w2 = planner.allocate_workspace_vector();
        let wt = planner.allocate_workspace_vector();
        // v = r0 / ||r0|| ; v_prev = w1 = w2 = 0 (fresh buffers are
        // zero-initialized).
        planner.matmul(p, SOL);
        planner.copy(v, RHS);
        let minus_one = planner.scalar(-T::ONE);
        planner.axpy(v, &minus_one, p);
        let beta2 = planner.dot(v, v);
        let beta1 = beta2.clone().sqrt();
        planner.scal(v, &beta1.recip());
        let one = planner.scalar(T::ONE);
        let zero = planner.scalar(T::ZERO);
        MinresSolver {
            v_prev,
            v,
            p,
            w1,
            w2,
            wt,
            beta: beta1.clone(),
            c: one.clone(),
            c_old: one,
            s: zero.clone(),
            s_old: zero,
            eta: beta1,
            res2: beta2,
            last_rho1: None,
        }
    }
}

impl<T: Scalar> Solver<T> for MinresSolver<T> {
    fn step(&mut self, planner: &mut Planner<T>) {
        // Lanczos: p = A v − alpha v − beta v_prev.
        planner.matmul(self.p, self.v);
        let alpha = planner.dot(self.v, self.p);
        planner.axpy(self.p, &(-&alpha), self.v);
        planner.axpy(self.p, &(-&self.beta), self.v_prev);
        let beta_new = planner.dot(self.p, self.p).sqrt();

        // QR update (two old rotations folded into the new column).
        let delta = self.c.clone() * alpha.clone()
            - self.c_old.clone() * self.s.clone() * self.beta.clone();
        let rho1 = (delta.clone() * delta.clone() + beta_new.clone() * beta_new.clone()).sqrt();
        self.last_rho1 = Some(rho1.clone());
        let rho2 = self.s.clone() * alpha + self.c_old.clone() * self.c.clone() * self.beta.clone();
        let rho3 = self.s_old.clone() * self.beta.clone();
        let c_new = delta / rho1.clone();
        let s_new = beta_new.clone() / rho1.clone();

        // Direction: wt = (v − rho3 w2 − rho2 w1) / rho1 ; x += c η wt.
        planner.copy(self.wt, self.v);
        planner.axpy(self.wt, &(-&rho3), self.w2);
        planner.axpy(self.wt, &(-&rho2), self.w1);
        planner.scal(self.wt, &rho1.recip());
        let step = c_new.clone() * self.eta.clone();
        planner.axpy(SOL, &step, self.wt);
        self.eta = -(s_new.clone() * self.eta.clone());
        self.res2 = self.eta.clone() * self.eta.clone();

        // Advance the Lanczos basis: normalize p into the next v.
        planner.scal(self.p, &beta_new.recip());
        // Rotate vector ids (no data movement).
        let old_v_prev = self.v_prev;
        self.v_prev = self.v;
        self.v = self.p;
        self.p = old_v_prev;
        let old_w2 = self.w2;
        self.w2 = self.w1;
        self.w1 = self.wt;
        self.wt = old_w2;

        self.c_old = self.c.clone();
        self.c = c_new;
        self.s_old = self.s.clone();
        self.s = s_new;
        self.beta = beta_new;
    }

    fn convergence_measure(&self) -> Option<ScalarHandle<T>> {
        Some(self.res2.clone())
    }

    fn name(&self) -> &'static str {
        "minres"
    }

    fn breakdown_guards(&self) -> Vec<BreakdownGuard<T>> {
        match &self.last_rho1 {
            Some(rho1) => vec![BreakdownGuard {
                kind: BreakdownKind::AlphaZero,
                value: rho1.clone(),
                trigger: GuardTrigger::NearZero,
            }],
            None => Vec::new(),
        }
    }
}
