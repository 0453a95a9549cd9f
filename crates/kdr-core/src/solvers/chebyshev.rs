//! Chebyshev iteration (stationary polynomial method).
//!
//! Given eigenvalue bounds `0 < λmin ≤ λ(A) ≤ λmax` for an SPD
//! operator, Chebyshev iteration converges without *any* inner
//! products — every iteration is one matrix-vector product plus
//! axpys, so on a distributed machine it is entirely free of global
//! communication. That makes it the extreme point of the paper's P1
//! argument (nothing to overlap — there are no collectives at all),
//! and a classic smoother to pair with the preconditioners in
//! [`crate::precond`]. It does not apply the planner's preconditioner
//! itself, so it refuses a planner that has one.
//!
//! The optional convergence measure costs one dot per step and is
//! only maintained if requested (`track_residual`).

use kdr_sparse::{Scalar, SparseMatrix};

use crate::planner::{Planner, RHS, SOL};
use crate::scalar_handle::ScalarHandle;
use crate::solvers::{refuse_preconditioner, Solver};

/// Chebyshev iteration: fixed scalar recurrence from explicit
/// spectral bounds — no inner products, so no global reductions.
pub struct ChebyshevSolver<T: Scalar> {
    r: usize,
    d: usize,
    q: usize,
    theta: f64,
    delta: f64,
    /// `ρ_{k-1}` of the scalar recurrence (host-side; the recurrence
    /// is data-independent).
    rho_prev: f64,
    first: bool,
    track_residual: bool,
    res: Option<ScalarHandle<T>>,
}

impl<T: Scalar> ChebyshevSolver<T> {
    /// Build with explicit spectral bounds `0 < lmin <= lmax`.
    pub fn with_bounds(planner: &mut Planner<T>, lmin: f64, lmax: f64) -> Self {
        assert!(lmin > 0.0 && lmax >= lmin, "need 0 < lmin <= lmax");
        planner.finalize();
        assert!(planner.is_square(), "Chebyshev requires a square system");
        refuse_preconditioner(planner, "Chebyshev");
        let r = planner.allocate_workspace_vector();
        let d = planner.allocate_workspace_vector();
        let q = planner.allocate_workspace_vector();
        // r = b − A x0.
        planner.matmul(q, SOL);
        planner.copy(r, RHS);
        let minus_one = planner.scalar(-T::ONE);
        planner.axpy(r, &minus_one, q);
        ChebyshevSolver {
            r,
            d,
            q,
            theta: (lmax + lmin) / 2.0,
            delta: (lmax - lmin) / 2.0,
            rho_prev: 0.0,
            first: true,
            track_residual: true,
            res: None,
        }
    }

    /// Disable the per-step residual dot (keeps iterations entirely
    /// communication-free; `convergence_measure` returns `None`).
    pub fn without_residual_tracking(mut self) -> Self {
        self.track_residual = false;
        self
    }

    /// Gershgorin upper bound on the spectrum of a (square) operator:
    /// `max_i Σ_j |A_ij|`. Pair with a small positive `lmin` estimate;
    /// a loose `lmin` only slows convergence, never breaks it.
    pub fn gershgorin_upper_bound(matrix: &dyn SparseMatrix<T>) -> f64 {
        let n = matrix.range_space().size() as usize;
        let mut rowsum = vec![0.0f64; n];
        matrix.for_each_entry(&mut |_, i, _, v| {
            rowsum[i as usize] += v.abs().to_f64();
        });
        rowsum.into_iter().fold(0.0, f64::max)
    }
}

impl<T: Scalar> Solver<T> for ChebyshevSolver<T> {
    fn step(&mut self, planner: &mut Planner<T>) {
        // Scalar recurrence (host side — data independent):
        //   σ = θ/δ; ρ₀ = 1/σ; ρ_k = 1/(2σ − ρ_{k−1}).
        // Vector recurrence:
        //   d ← ρ_k ρ_{k−1} d + (2 ρ_k / δ) r   (first: d = r/θ)
        //   x ← x + d ; r ← r − A d.
        if self.first {
            let inv_theta = planner.scalar(T::from_f64(1.0 / self.theta));
            planner.copy(self.d, self.r);
            planner.scal(self.d, &inv_theta);
            self.rho_prev = if self.delta > 0.0 {
                self.delta / self.theta
            } else {
                0.0
            };
            self.first = false;
        } else {
            let sigma = self.theta / self.delta.max(f64::MIN_POSITIVE);
            let rho = 1.0 / (2.0 * sigma - self.rho_prev);
            let c1 = planner.scalar(T::from_f64(rho * self.rho_prev));
            let c2 = planner.scalar(T::from_f64(2.0 * rho / self.delta.max(f64::MIN_POSITIVE)));
            // d = c1 d + c2 r: scal then axpy.
            planner.scal(self.d, &c1);
            planner.axpy(self.d, &c2, self.r);
            self.rho_prev = rho;
        }
        let one = planner.scalar(T::ONE);
        planner.axpy(SOL, &one, self.d);
        planner.matmul(self.q, self.d);
        let minus_one = planner.scalar(-T::ONE);
        planner.axpy(self.r, &minus_one, self.q);
        if self.track_residual {
            self.res = Some(planner.dot(self.r, self.r));
        }
    }

    fn convergence_measure(&self) -> Option<ScalarHandle<T>> {
        self.res.clone()
    }

    fn name(&self) -> &'static str {
        "chebyshev"
    }
}
