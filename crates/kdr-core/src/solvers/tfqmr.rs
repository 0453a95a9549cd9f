//! Transpose-free QMR (Freund 1993; Saad, *Iterative Methods*,
//! Alg. 7.4).
//!
//! A smoother-converging transpose-free alternative to CGS: one
//! matrix-vector product per half-iteration, with a quasi-residual
//! recurrence `τ` tracking progress. One `step()` here is one
//! half-iteration `m`.
//!
//! The direction recurrence `v_{m+1} = A u_{m+1} + β (A u_m + β
//! v_{m−1})` needs `A u_{m+1}`, which only becomes available at the
//! start of the following even half-step — so the `v` update is
//! deferred there (the pending `β` is carried across the step
//! boundary).

use kdr_sparse::Scalar;

use crate::planner::{Planner, RHS, SOL};
use crate::scalar_handle::ScalarHandle;
use crate::solvers::{refuse_preconditioner, BreakdownGuard, BreakdownKind, GuardTrigger, Solver};

/// Transpose-free QMR: unsymmetric systems with quasi-minimized
/// residual updates over CGS half-steps.
pub struct TfqmrSolver<T: Scalar> {
    u: usize,
    w: usize,
    d: usize,
    v: usize,
    au: usize,
    au_old: usize,
    rstar: usize,
    m_even: bool,
    pending_beta: Option<ScalarHandle<T>>,
    alpha: ScalarHandle<T>,
    rho: ScalarHandle<T>,
    tau: ScalarHandle<T>,
    theta: ScalarHandle<T>,
    eta: ScalarHandle<T>,
    /// `(v, r*)` from the latest even half-step.
    last_vr: Option<ScalarHandle<T>>,
}

impl<T: Scalar> TfqmrSolver<T> {
    /// Build against a planner (finalizing it on first use).
    pub fn new(planner: &mut Planner<T>) -> Self {
        planner.finalize();
        assert!(planner.is_square(), "TFQMR requires a square system");
        refuse_preconditioner(planner, "TFQMR");
        let u = planner.allocate_workspace_vector();
        let w = planner.allocate_workspace_vector();
        let d = planner.allocate_workspace_vector();
        let v = planner.allocate_workspace_vector();
        let au = planner.allocate_workspace_vector();
        let au_old = planner.allocate_workspace_vector();
        let rstar = planner.allocate_workspace_vector();
        // r0 = b − A x0 ; u = w = r* = r0 ; v = A u ; d = 0.
        planner.matmul(v, SOL);
        planner.copy(u, RHS);
        let minus_one = planner.scalar(-T::ONE);
        planner.axpy(u, &minus_one, v);
        planner.copy(w, u);
        planner.copy(rstar, u);
        planner.matmul(v, u);
        let tau2 = planner.dot(u, u);
        let tau = tau2.sqrt();
        let rho = planner.dot(rstar, u);
        let zero = planner.scalar(T::ZERO);
        let one = planner.scalar(T::ONE);
        TfqmrSolver {
            u,
            w,
            d,
            v,
            au,
            au_old,
            rstar,
            m_even: true,
            pending_beta: None,
            alpha: one,
            rho,
            tau,
            theta: zero.clone(),
            eta: zero,
            last_vr: None,
        }
    }
}

impl<T: Scalar> Solver<T> for TfqmrSolver<T> {
    fn step(&mut self, planner: &mut Planner<T>) {
        // au_old <- au ; au = A u (A u_m, used by the w update and by
        // the deferred v recurrence).
        std::mem::swap(&mut self.au, &mut self.au_old);
        planner.matmul(self.au, self.u);
        if self.m_even {
            // Deferred direction update from the previous odd step:
            // v = A u_m + β (A u_{m−1} + β v_old).
            if let Some(beta) = self.pending_beta.take() {
                planner.xpay(self.v, &beta, self.au_old);
                planner.xpay(self.v, &beta, self.au);
            }
            let vr = planner.dot(self.v, self.rstar);
            self.last_vr = Some(vr.clone());
            self.alpha = self.rho.clone() / vr;
        }
        // d = u + (θ² η / α) d ; w = w − α A u.
        let coeff = self.theta.clone() * self.theta.clone() * self.eta.clone() / self.alpha.clone();
        planner.xpay(self.d, &coeff, self.u);
        planner.axpy(self.w, &(-&self.alpha), self.au);
        // Quasi-residual rotation. On odd half-steps the upcoming
        // ρ' = (w, r*) reads the same updated w as the rotation's
        // ‖w‖² — fuse the two into one reduction stage.
        let (wnorm2, rho_new) = if self.m_even {
            (planner.dot(self.w, self.w), None)
        } else {
            let mut d = planner.dot_many(&[(self.w, self.w), (self.w, self.rstar)]);
            let rho_new = d.pop().expect("two results");
            (d.pop().expect("two results"), Some(rho_new))
        };
        let wnorm = wnorm2.sqrt();
        let theta_new = wnorm / self.tau.clone();
        let one = planner.scalar(T::ONE);
        let c2 = one.clone() / (one + theta_new.clone() * theta_new.clone());
        self.tau = self.tau.clone() * theta_new.clone() * c2.clone().sqrt();
        self.eta = c2 * self.alpha.clone();
        self.theta = theta_new;
        // x += η d.
        planner.axpy(SOL, &self.eta, self.d);

        if self.m_even {
            // u_{m+1} = u_m − α v.
            planner.axpy(self.u, &(-&self.alpha), self.v);
        } else {
            // β = ρ'/ρ ; u = w + β u ; v deferred (ρ' was fused into
            // the rotation's reduction above).
            let rho_new = rho_new.expect("odd half-steps compute rho'");
            let beta = rho_new.clone() / self.rho.clone();
            planner.xpay(self.u, &beta, self.w);
            self.pending_beta = Some(beta);
            self.rho = rho_new;
        }
        self.m_even = !self.m_even;
    }

    fn convergence_measure(&self) -> Option<ScalarHandle<T>> {
        Some(self.tau.clone() * self.tau.clone())
    }

    fn name(&self) -> &'static str {
        "tfqmr"
    }

    fn breakdown_guards(&self) -> Vec<BreakdownGuard<T>> {
        match &self.last_vr {
            Some(vr) => vec![
                BreakdownGuard {
                    kind: BreakdownKind::RhoZero,
                    value: self.rho.clone(),
                    trigger: GuardTrigger::NearZero,
                },
                BreakdownGuard {
                    kind: BreakdownKind::AlphaZero,
                    value: vr.clone(),
                    trigger: GuardTrigger::NearZero,
                },
            ],
            None => Vec::new(),
        }
    }
}
