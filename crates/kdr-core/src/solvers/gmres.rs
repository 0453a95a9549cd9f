//! Restarted GMRES (Saad & Schultz 1986).
//!
//! GMRES(m) with a *static* restart schedule — the paper's
//! LegionSolvers and Trilinos configuration (GMRES(10)); PETSc's
//! dynamic restart is why the paper omits it from the GMRES
//! comparison. One `step()` is one Arnoldi iteration (modified
//! Gram–Schmidt); after `m` steps the least-squares solution is
//! applied and the cycle restarts. All small dense arithmetic
//! (Givens rotations, back-substitution) runs on deferred scalars, so
//! the pipeline never blocks. On a planner with a preconditioner the
//! method is right-preconditioned: Arnoldi runs on `A P`, and a
//! cycle's update applies `x += P (V y)`.

use kdr_sparse::Scalar;

use crate::planner::{Planner, RHS, SOL};
use crate::scalar_handle::ScalarHandle;
use crate::solvers::{psolve_into, BreakdownGuard, BreakdownKind, GuardTrigger, Solver};

/// Restarted GMRES(m): general systems via an Arnoldi basis of `m`
/// vectors, minimizing the residual over the Krylov subspace;
/// right-preconditioned when the planner has a preconditioner.
pub struct GmresSolver<T: Scalar> {
    /// Scratch for `P v`, allocated only when the planner has a
    /// preconditioner (read once at construction).
    z: Option<usize>,
    restart: usize,
    /// Basis vectors `v[0..=m]`.
    v: Vec<usize>,
    /// Scratch vector for the Arnoldi product.
    w: usize,
    /// Upper-triangular columns of R (post-rotation), `r[k][i]`, `i <= k`.
    r_cols: Vec<Vec<ScalarHandle<T>>>,
    /// Least-squares right-hand side `g[0..=m]`.
    g: Vec<ScalarHandle<T>>,
    /// Stored Givens rotations.
    cs: Vec<ScalarHandle<T>>,
    sn: Vec<ScalarHandle<T>>,
    /// Inner iteration index within the current cycle.
    k: usize,
    /// Squared current residual estimate `g[k+1]²`.
    res2: ScalarHandle<T>,
    /// Givens denominator `√(h_k² + h_{k+1}²)` from the latest step;
    /// vanishes only when the Arnoldi column is identically zero.
    last_denom: Option<ScalarHandle<T>>,
}

impl<T: Scalar> GmresSolver<T> {
    /// GMRES with restart length `m` (the paper uses 10).
    pub fn with_restart(planner: &mut Planner<T>, m: usize) -> Self {
        assert!(m >= 1);
        planner.finalize();
        assert!(planner.is_square(), "GMRES requires a square system");
        let v: Vec<usize> = (0..=m)
            .map(|_| planner.allocate_workspace_vector())
            .collect();
        let w = planner.allocate_workspace_vector();
        let z = planner
            .has_preconditioner()
            .then(|| planner.allocate_workspace_vector());
        let mut s = GmresSolver {
            z,
            restart: m,
            v,
            w,
            r_cols: Vec::new(),
            g: Vec::new(),
            cs: Vec::new(),
            sn: Vec::new(),
            k: 0,
            res2: planner.scalar(T::ZERO),
            last_denom: None,
        };
        s.start_cycle(planner);
        s
    }

    /// Default restart length 10.
    pub fn new(planner: &mut Planner<T>) -> Self {
        Self::with_restart(planner, 10)
    }

    /// Compute `r0 = b − A x`, normalize into `v[0]`, reset the
    /// least-squares state.
    fn start_cycle(&mut self, planner: &mut Planner<T>) {
        planner.matmul(self.w, SOL);
        planner.copy(self.v[0], RHS);
        let minus_one = planner.scalar(-T::ONE);
        planner.axpy(self.v[0], &minus_one, self.w);
        let beta2 = planner.dot(self.v[0], self.v[0]);
        let beta = beta2.sqrt();
        planner.scal(self.v[0], &beta.recip());
        let zero = planner.scalar(T::ZERO);
        self.g = vec![zero.clone(); self.restart + 1];
        self.g[0] = beta;
        self.r_cols.clear();
        self.cs.clear();
        self.sn.clear();
        self.k = 0;
        self.res2 = beta2;
    }

    /// Apply the accumulated solution `x += V y` and restart.
    fn finish_cycle(&mut self, planner: &mut Planner<T>) {
        let m = self.k;
        // Back-substitution on the m×m triangle (deferred scalars).
        let mut y: Vec<ScalarHandle<T>> = Vec::with_capacity(m);
        for i in (0..m).rev() {
            let mut acc = self.g[i].clone();
            for (yj, col) in y.iter().zip(self.r_cols[i + 1..m].iter().rev()) {
                // y is stored reversed: y[0] corresponds to index m-1.
                acc = acc - &col[i] * yj;
            }
            acc = acc / &self.r_cols[i][i];
            y.push(acc);
        }
        y.reverse();
        if let Some(z) = self.z {
            // x += P (Σ yᵢ vᵢ): accumulate in w, precondition once.
            let zero = planner.scalar(T::ZERO);
            planner.scal(self.w, &zero);
            for (i, yi) in y.iter().enumerate() {
                planner.axpy(self.w, yi, self.v[i]);
            }
            planner.psolve(z, self.w);
            let one = planner.scalar(T::ONE);
            planner.axpy(SOL, &one, z);
        } else {
            for (i, yi) in y.iter().enumerate() {
                planner.axpy(SOL, yi, self.v[i]);
            }
        }
        self.start_cycle(planner);
    }
}

impl<T: Scalar> Solver<T> for GmresSolver<T> {
    fn step(&mut self, planner: &mut Planner<T>) {
        let k = self.k;
        // Arnoldi: w = A P v_k (A v_k without a preconditioner),
        // orthogonalize against v_0..v_k (MGS).
        let pv = psolve_into(planner, self.z, self.v[k]);
        planner.matmul(self.w, pv);
        let mut h: Vec<ScalarHandle<T>> = Vec::with_capacity(k + 2);
        for i in 0..=k {
            let hi = planner.dot(self.w, self.v[i]);
            planner.axpy(self.w, &(-&hi), self.v[i]);
            h.push(hi);
        }
        let hk1 = planner.dot(self.w, self.w).sqrt();
        planner.copy(self.v[k + 1], self.w);
        planner.scal(self.v[k + 1], &hk1.recip());
        h.push(hk1);

        // Apply the stored Givens rotations to the new column.
        for i in 0..k {
            let t1 = &self.cs[i] * &h[i] + &self.sn[i] * &h[i + 1];
            let t2 = -(&self.sn[i] * &h[i]) + &self.cs[i] * &h[i + 1];
            h[i] = t1;
            h[i + 1] = t2;
        }
        // Form the new rotation from (h_k, h_{k+1}).
        let denom = (&h[k] * &h[k] + &h[k + 1] * &h[k + 1]).sqrt();
        self.last_denom = Some(denom.clone());
        let c = &h[k] / &denom;
        let s = &h[k + 1] / &denom;
        h[k] = denom;
        self.g[k + 1] = -(&s * &self.g[k]);
        self.g[k] = &c * &self.g[k];
        self.cs.push(c);
        self.sn.push(s);
        self.res2 = &self.g[k + 1] * &self.g[k + 1];
        h.truncate(k + 1);
        self.r_cols.push(h);
        self.k += 1;
        if self.k == self.restart {
            self.finish_cycle(planner);
        }
    }

    fn convergence_measure(&self) -> Option<ScalarHandle<T>> {
        Some(self.res2.clone())
    }

    fn name(&self) -> &'static str {
        "gmres"
    }

    fn finalize_solution(&mut self, planner: &mut Planner<T>) {
        // Apply the partial cycle's least-squares update (and restart,
        // which refreshes the residual estimate from the true
        // residual).
        if self.k > 0 {
            self.finish_cycle(planner);
        }
    }

    fn breakdown_guards(&self, guards: &mut Vec<BreakdownGuard<T>>) {
        if let Some(d) = &self.last_denom {
            guards.push(BreakdownGuard {
                kind: BreakdownKind::AlphaZero,
                value: d.clone(),
                trigger: GuardTrigger::NearZero,
            });
        }
    }
}
