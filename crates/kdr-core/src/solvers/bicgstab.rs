//! Stabilized biconjugate gradient (van der Vorst 1992).
//!
//! Two matrix-vector products per iteration, no adjoint; converges on
//! general nonsymmetric systems. On a planner with a preconditioner
//! [`BiCgStabSolver`] is right-preconditioned: `p̂ = P p` and
//! `ŝ = P s` are inserted before each product, and the solution is
//! updated along the preconditioned directions (the PETSc
//! `-pc_side right` formulation).

use kdr_sparse::Scalar;

use crate::planner::{Planner, RHS, SOL};
use crate::scalar_handle::ScalarHandle;
use crate::solvers::{psolve_into, BreakdownGuard, BreakdownKind, GuardTrigger, Solver};

/// BiCG-stabilized: unsymmetric systems without the transpose
/// product, smoothing BiCG's residual oscillations; right-preconditioned
/// when the planner has a preconditioner.
pub struct BiCgStabSolver<T: Scalar> {
    r0hat: usize,
    r: usize,
    p: usize,
    /// `p̂` and `ŝ`, present when the planner has a preconditioner.
    hats: Option<(usize, usize)>,
    v: usize,
    s: usize,
    t: usize,
    rho: ScalarHandle<T>,
    res: ScalarHandle<T>,
    /// `(r̂₀, v)` and `ω` from the latest step.
    last_r0v: Option<ScalarHandle<T>>,
    last_omega: Option<ScalarHandle<T>>,
}

impl<T: Scalar> BiCgStabSolver<T> {
    /// Build against a planner (finalizing it on first use).
    pub fn new(planner: &mut Planner<T>) -> Self {
        planner.finalize();
        assert!(planner.is_square(), "BiCGStab requires a square system");
        let r0hat = planner.allocate_workspace_vector();
        let r = planner.allocate_workspace_vector();
        let p = planner.allocate_workspace_vector();
        let hats = planner.has_preconditioner().then(|| {
            (
                planner.allocate_workspace_vector(),
                planner.allocate_workspace_vector(),
            )
        });
        let v = planner.allocate_workspace_vector();
        let s = planner.allocate_workspace_vector();
        let t = planner.allocate_workspace_vector();
        // r = b - A x0 ; r0hat = p = r.
        planner.matmul(v, SOL);
        planner.copy(r, RHS);
        let minus_one = planner.scalar(-T::ONE);
        planner.axpy(r, &minus_one, v);
        planner.copy(r0hat, r);
        planner.copy(p, r);
        let rho = planner.dot(r0hat, r);
        let res = planner.dot(r, r);
        BiCgStabSolver {
            r0hat,
            r,
            p,
            hats,
            v,
            s,
            t,
            rho,
            res,
            last_r0v: None,
            last_omega: None,
        }
    }
}

impl<T: Scalar> Solver<T> for BiCgStabSolver<T> {
    fn step(&mut self, planner: &mut Planner<T>) {
        // p̂ = P p ; v = A p̂ ; alpha = rho / (r0hat · v).
        let phat = psolve_into(planner, self.hats.map(|h| h.0), self.p);
        planner.matmul(self.v, phat);
        let r0v = planner.dot(self.r0hat, self.v);
        self.last_r0v = Some(r0v.clone());
        let alpha = self.rho.clone() / r0v;
        // s = r - alpha v ; ŝ = P s.
        planner.copy(self.s, self.r);
        planner.axpy(self.s, &(-&alpha), self.v);
        let shat = psolve_into(planner, self.hats.map(|h| h.1), self.s);
        // t = A ŝ ; omega = (t · s) / (t · t) — both dots read t and
        // s, so they fuse into one reduction stage.
        planner.matmul(self.t, shat);
        let mut d = planner.dot_many(&[(self.t, self.s), (self.t, self.t)]);
        let tt = d.pop().expect("two results");
        let ts = d.pop().expect("two results");
        // The `tiny` guard turns the exact lucky-breakdown 0/0 (s = 0
        // after the first half-step) into omega = 0 instead of NaN.
        let tiny = planner.scalar(T::tiny());
        let omega = ts / (tt + tiny);
        self.last_omega = Some(omega.clone());
        // x += alpha p̂ + omega ŝ.
        planner.axpy(SOL, &alpha, phat);
        planner.axpy(SOL, &omega, shat);
        // r = s - omega t.
        planner.copy(self.r, self.s);
        planner.axpy(self.r, &(-&omega), self.t);
        // beta = (rho' / rho) (alpha / omega) ; p = r + beta (p - omega v).
        // The new rho and the residual measure fuse likewise.
        let mut d = planner.dot_many(&[(self.r0hat, self.r), (self.r, self.r)]);
        self.res = d.pop().expect("two results");
        let new_rho = d.pop().expect("two results");
        let beta = (new_rho.clone() / self.rho.clone()) * (alpha / omega.clone());
        planner.axpy(self.p, &(-&omega), self.v);
        planner.xpay(self.p, &beta, self.r);
        self.rho = new_rho;
    }

    fn convergence_measure(&self) -> Option<ScalarHandle<T>> {
        Some(self.res.clone())
    }

    fn name(&self) -> &'static str {
        match self.hats {
            Some(_) => "pbicgstab",
            None => "bicgstab",
        }
    }

    /// Lanczos breakdown (`ρ ≈ 0`), a vanishing step denominator
    /// (`(r̂₀, v) ≈ 0`), and a vanishing stabilization parameter
    /// (`ω ≈ 0`).
    fn breakdown_guards(&self) -> Vec<BreakdownGuard<T>> {
        let Some(r0v) = &self.last_r0v else {
            return Vec::new();
        };
        let mut guards = vec![
            BreakdownGuard {
                kind: BreakdownKind::RhoZero,
                value: self.rho.clone(),
                trigger: GuardTrigger::NearZero,
            },
            BreakdownGuard {
                kind: BreakdownKind::AlphaZero,
                value: r0v.clone(),
                trigger: GuardTrigger::NearZero,
            },
        ];
        if let Some(omega) = &self.last_omega {
            guards.push(BreakdownGuard {
                kind: BreakdownKind::OmegaZero,
                value: omega.clone(),
                trigger: GuardTrigger::NearZero,
            });
        }
        guards
    }
}
