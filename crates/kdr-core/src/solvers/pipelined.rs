//! Communication-hiding CG and CR variants.
//!
//! Classic CG spends two reduction stages per iteration — `(p, Ap)`
//! before the solution update and `(r, r)` after it — and each stage
//! is a global synchronization point. The solvers here restructure
//! the recurrences so that every iteration issues exactly **one**
//! fused reduction ([`Planner::dot_many`]):
//!
//! * [`FusedCgSolver`] — the Chronopoulos–Gear three-term form
//!   (Chronopoulos & Gear 1989): both dots `γ = (r, r)` and
//!   `δ = (Ar, r)` read the same residual, so they fuse into a single
//!   stage. The matrix-vector product still sits *between* the
//!   scalar consumption and the reduction, so the stage is on the
//!   critical path.
//! * [`PipelinedCgSolver`] / [`PipelinedCrSolver`] — the
//!   Ghysels–Vanroose pipelined forms (Ghysels & Vanroose 2014):
//!   `w = Ar` is maintained by a vector recurrence and the one
//!   matrix-vector product per iteration, `q = Aw`, reads the *same*
//!   `w` that the in-flight reduction reads. Neither depends on the
//!   other, so in the task DAG the global reduction from the previous
//!   iteration executes concurrently with this iteration's product —
//!   the reduction latency hides behind the SpMV.
//!
//! All three preserve the bitwise-determinism contract: `dot_many`
//! accumulates each pair over the same contiguous partial-slot range,
//! in the same order, as a standalone `dot` would.

use kdr_sparse::Scalar;

use crate::planner::{Planner, RHS, SOL};
use crate::scalar_handle::ScalarHandle;
use crate::solvers::{refuse_preconditioner, BreakdownGuard, BreakdownKind, GuardTrigger, Solver};

/// Chronopoulos–Gear CG: mathematically equivalent to [`CgSolver`]
/// (in exact arithmetic) with both per-iteration dots fused into one
/// reduction stage.
///
/// [`CgSolver`]: crate::solvers::CgSolver
pub struct FusedCgSolver<T: Scalar> {
    p: usize,
    q: usize,
    r: usize,
    w: usize,
    /// `γ = (r, r)` — also the convergence measure.
    gamma: ScalarHandle<T>,
    /// `δ = (w, r)` with `w = Ar`.
    delta: ScalarHandle<T>,
    /// `(γ, α)` from the previous iteration; `None` before the first.
    prev: Option<(ScalarHandle<T>, ScalarHandle<T>)>,
    /// The step denominator `(p, Ap)` in recurrence form: must stay
    /// positive on an SPD operator.
    last_denom: Option<ScalarHandle<T>>,
}

impl<T: Scalar> FusedCgSolver<T> {
    /// Build against a planner (finalizing it on first use).
    pub fn new(planner: &mut Planner<T>) -> Self {
        planner.finalize();
        assert!(planner.is_square(), "CG requires a square system");
        refuse_preconditioner(planner, "fused CG");
        let p = planner.allocate_workspace_vector();
        let q = planner.allocate_workspace_vector();
        let r = planner.allocate_workspace_vector();
        let w = planner.allocate_workspace_vector();
        planner.zero(p);
        planner.zero(q);
        // r = b − A x0 (w as scratch) ; w = A r.
        planner.matmul(w, SOL);
        planner.copy(r, RHS);
        let minus_one = planner.scalar(-T::ONE);
        planner.axpy(r, &minus_one, w);
        planner.matmul(w, r);
        let mut d = planner.dot_many(&[(r, r), (w, r)]);
        let delta = d.pop().expect("two results");
        let gamma = d.pop().expect("two results");
        FusedCgSolver {
            p,
            q,
            r,
            w,
            gamma,
            delta,
            prev: None,
            last_denom: None,
        }
    }
}

impl<T: Scalar> Solver<T> for FusedCgSolver<T> {
    fn step(&mut self, planner: &mut Planner<T>) {
        // β = γ/γ_prev ; denom = δ − β γ/α_prev reconstructs (p, Ap)
        // without a dedicated reduction. First iteration: β = 0,
        // denom = δ.
        let (beta, denom) = match self.prev.take() {
            Some((gamma_prev, alpha_prev)) => {
                let beta = self.gamma.clone() / gamma_prev;
                let denom =
                    self.delta.clone() - beta.clone() * self.gamma.clone() / alpha_prev;
                (beta, denom)
            }
            None => (planner.scalar(T::ZERO), self.delta.clone()),
        };
        let alpha = self.gamma.clone() / denom.clone();
        self.last_denom = Some(denom);
        // p = r + β p ; q = w + β q (q tracks Ap by linearity).
        planner.xpay(self.p, &beta, self.r);
        planner.xpay(self.q, &beta, self.w);
        // x += α p ; r −= α q ; w = A r.
        planner.axpy(SOL, &alpha, self.p);
        planner.axpy(self.r, &(-&alpha), self.q);
        planner.matmul(self.w, self.r);
        // γ' = (r, r) and δ' = (w, r): the iteration's single fused
        // reduction stage.
        let mut d = planner.dot_many(&[(self.r, self.r), (self.w, self.r)]);
        let delta_new = d.pop().expect("two results");
        let gamma_new = d.pop().expect("two results");
        let gamma_old = std::mem::replace(&mut self.gamma, gamma_new);
        self.prev = Some((gamma_old, alpha));
        self.delta = delta_new;
    }

    fn convergence_measure(&self) -> Option<ScalarHandle<T>> {
        Some(self.gamma.clone())
    }

    fn name(&self) -> &'static str {
        "fusedcg"
    }

    fn breakdown_guards(&self) -> Vec<BreakdownGuard<T>> {
        match &self.last_denom {
            Some(denom) => vec![BreakdownGuard {
                kind: BreakdownKind::IndefiniteOperator,
                value: denom.clone(),
                trigger: GuardTrigger::NonPositive,
            }],
            None => Vec::new(),
        }
    }
}

/// Ghysels–Vanroose pipelined CG: one reduction stage per iteration,
/// overlapped with the matrix-vector product.
///
/// The fused dot issued at the end of iteration `i` reads
/// `(r_{i+1}, w_{i+1})`; iteration `i+1`'s only product `q = A w`
/// reads the same `w_{i+1}` and nothing the reduction produces, so
/// the two execute concurrently in the task DAG. The extra recurrence
/// vectors (`z ≈ A²p`, `s ≈ Ap`) trade three more axpys per iteration
/// for that overlap.
pub struct PipelinedCgSolver<T: Scalar> {
    r: usize,
    /// `w = A r`, maintained by recurrence.
    w: usize,
    /// `q = A w`, the per-iteration product.
    q: usize,
    /// `z = A s` (recurrence).
    z: usize,
    /// `s = A p` (recurrence).
    s: usize,
    p: usize,
    /// `γ = (r, r)` — also the convergence measure.
    gamma: ScalarHandle<T>,
    /// `δ = (w, r)`.
    delta: ScalarHandle<T>,
    prev: Option<(ScalarHandle<T>, ScalarHandle<T>)>,
    last_denom: Option<ScalarHandle<T>>,
}

impl<T: Scalar> PipelinedCgSolver<T> {
    /// Build against a planner (finalizing it on first use).
    pub fn new(planner: &mut Planner<T>) -> Self {
        planner.finalize();
        assert!(planner.is_square(), "CG requires a square system");
        refuse_preconditioner(planner, "pipelined CG");
        let r = planner.allocate_workspace_vector();
        let w = planner.allocate_workspace_vector();
        let q = planner.allocate_workspace_vector();
        let z = planner.allocate_workspace_vector();
        let s = planner.allocate_workspace_vector();
        let p = planner.allocate_workspace_vector();
        planner.zero(z);
        planner.zero(s);
        planner.zero(p);
        // r = b − A x0 (q as scratch) ; w = A r.
        planner.matmul(q, SOL);
        planner.copy(r, RHS);
        let minus_one = planner.scalar(-T::ONE);
        planner.axpy(r, &minus_one, q);
        planner.matmul(w, r);
        let mut d = planner.dot_many(&[(r, r), (w, r)]);
        let delta = d.pop().expect("two results");
        let gamma = d.pop().expect("two results");
        PipelinedCgSolver {
            r,
            w,
            q,
            z,
            s,
            p,
            gamma,
            delta,
            prev: None,
            last_denom: None,
        }
    }
}

impl<T: Scalar> Solver<T> for PipelinedCgSolver<T> {
    fn step(&mut self, planner: &mut Planner<T>) {
        let (beta, denom) = match self.prev.take() {
            Some((gamma_prev, alpha_prev)) => {
                let beta = self.gamma.clone() / gamma_prev;
                let denom =
                    self.delta.clone() - beta.clone() * self.gamma.clone() / alpha_prev;
                (beta, denom)
            }
            None => (planner.scalar(T::ZERO), self.delta.clone()),
        };
        let alpha = self.gamma.clone() / denom.clone();
        self.last_denom = Some(denom);
        // q = A w reads only w, so it overlaps the in-flight fused
        // reduction issued at the end of the previous iteration.
        planner.matmul(self.q, self.w);
        // z = q + β z ; s = w + β s ; p = r + β p.
        planner.xpay(self.z, &beta, self.q);
        planner.xpay(self.s, &beta, self.w);
        planner.xpay(self.p, &beta, self.r);
        // x += α p ; r −= α s ; w −= α z.
        planner.axpy(SOL, &alpha, self.p);
        planner.axpy(self.r, &(-&alpha), self.s);
        planner.axpy(self.w, &(-&alpha), self.z);
        // The iteration's single reduction stage.
        let mut d = planner.dot_many(&[(self.r, self.r), (self.w, self.r)]);
        let delta_new = d.pop().expect("two results");
        let gamma_new = d.pop().expect("two results");
        let gamma_old = std::mem::replace(&mut self.gamma, gamma_new);
        self.prev = Some((gamma_old, alpha));
        self.delta = delta_new;
    }

    fn convergence_measure(&self) -> Option<ScalarHandle<T>> {
        Some(self.gamma.clone())
    }

    fn name(&self) -> &'static str {
        "pipelinedcg"
    }

    fn breakdown_guards(&self) -> Vec<BreakdownGuard<T>> {
        match &self.last_denom {
            Some(denom) => vec![BreakdownGuard {
                kind: BreakdownKind::IndefiniteOperator,
                value: denom.clone(),
                trigger: GuardTrigger::NonPositive,
            }],
            None => Vec::new(),
        }
    }
}

/// Ghysels–Vanroose pipelined conjugate residuals: same recurrence
/// skeleton as [`PipelinedCgSolver`] with `γ = (r, w)` and
/// `δ = (w, w)`; minimizes `‖r‖` on symmetric systems. The residual
/// norm is not free here, so `(r, r)` rides along as a third pair in
/// the same fused reduction — still one stage per iteration.
pub struct PipelinedCrSolver<T: Scalar> {
    r: usize,
    w: usize,
    q: usize,
    z: usize,
    s: usize,
    p: usize,
    /// `γ = (r, w)`.
    gamma: ScalarHandle<T>,
    /// `δ = (w, w)`.
    delta: ScalarHandle<T>,
    /// `(r, r)` — the convergence measure.
    res: ScalarHandle<T>,
    prev: Option<(ScalarHandle<T>, ScalarHandle<T>)>,
    /// `δ − β γ/α_prev` reconstructs `(Ap, Ap)`: zero only when
    /// `Ap = 0`.
    last_denom: Option<ScalarHandle<T>>,
}

impl<T: Scalar> PipelinedCrSolver<T> {
    /// Build against a planner (finalizing it on first use).
    pub fn new(planner: &mut Planner<T>) -> Self {
        planner.finalize();
        assert!(planner.is_square(), "CR requires a square system");
        refuse_preconditioner(planner, "pipelined CR");
        let r = planner.allocate_workspace_vector();
        let w = planner.allocate_workspace_vector();
        let q = planner.allocate_workspace_vector();
        let z = planner.allocate_workspace_vector();
        let s = planner.allocate_workspace_vector();
        let p = planner.allocate_workspace_vector();
        planner.zero(z);
        planner.zero(s);
        planner.zero(p);
        planner.matmul(q, SOL);
        planner.copy(r, RHS);
        let minus_one = planner.scalar(-T::ONE);
        planner.axpy(r, &minus_one, q);
        planner.matmul(w, r);
        let mut d = planner.dot_many(&[(r, w), (w, w), (r, r)]);
        let res = d.pop().expect("three results");
        let delta = d.pop().expect("three results");
        let gamma = d.pop().expect("three results");
        PipelinedCrSolver {
            r,
            w,
            q,
            z,
            s,
            p,
            gamma,
            delta,
            res,
            prev: None,
            last_denom: None,
        }
    }
}

impl<T: Scalar> Solver<T> for PipelinedCrSolver<T> {
    fn step(&mut self, planner: &mut Planner<T>) {
        let (beta, denom) = match self.prev.take() {
            Some((gamma_prev, alpha_prev)) => {
                let beta = self.gamma.clone() / gamma_prev;
                let denom =
                    self.delta.clone() - beta.clone() * self.gamma.clone() / alpha_prev;
                (beta, denom)
            }
            None => (planner.scalar(T::ZERO), self.delta.clone()),
        };
        let alpha = self.gamma.clone() / denom.clone();
        self.last_denom = Some(denom);
        planner.matmul(self.q, self.w);
        planner.xpay(self.z, &beta, self.q);
        planner.xpay(self.s, &beta, self.w);
        planner.xpay(self.p, &beta, self.r);
        planner.axpy(SOL, &alpha, self.p);
        planner.axpy(self.r, &(-&alpha), self.s);
        planner.axpy(self.w, &(-&alpha), self.z);
        let mut d = planner.dot_many(&[(self.r, self.w), (self.w, self.w), (self.r, self.r)]);
        self.res = d.pop().expect("three results");
        let delta_new = d.pop().expect("three results");
        let gamma_new = d.pop().expect("three results");
        let gamma_old = std::mem::replace(&mut self.gamma, gamma_new);
        self.prev = Some((gamma_old, alpha));
        self.delta = delta_new;
    }

    fn convergence_measure(&self) -> Option<ScalarHandle<T>> {
        Some(self.res.clone())
    }

    fn name(&self) -> &'static str {
        "pipelinedcr"
    }

    fn breakdown_guards(&self) -> Vec<BreakdownGuard<T>> {
        let mut guards = Vec::new();
        if let Some(denom) = &self.last_denom {
            guards.push(BreakdownGuard {
                kind: BreakdownKind::AlphaZero,
                value: denom.clone(),
                trigger: GuardTrigger::NearZero,
            });
        }
        guards
    }
}
