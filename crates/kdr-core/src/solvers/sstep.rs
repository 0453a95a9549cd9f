//! s-step (communication-avoiding) CG.
//!
//! One [`Solver::step`] here performs a *block* of `s` CG iterations
//! with a single global reduction. The block:
//!
//! 1. builds the monomial basis
//!    `V = [p, Ap, …, Aˢp, r, Ar, …, Aˢ⁻¹r]` (`m = 2s + 1` columns)
//!    as one chain of copies and matrix-vector products — no
//!    reductions;
//! 2. computes the Gram matrix `G = VᵀV` (upper triangle,
//!    `m(m+1)/2` pairs) in **one** fused [`Planner::dot_many`] and
//!    forces it host-side — the block's single fence;
//! 3. runs `s` CG iterations in `m`-dimensional coefficient space on
//!    the host (`f64`, deterministic), where `A` acts as the exact
//!    basis-shift operator and every inner product is a small
//!    `G`-weighted form;
//! 4. reconstructs `x`, `r`, `p` with `m` axpys of host-computed
//!    scalar constants.
//!
//! Forcing the Gram matrix mid-step ends the step's first record
//! there: the basis and Gram matrix are one step program and the
//! reconstruction another, both replayed once the shapes repeat — the
//! trade is `s` iterations per fence instead of one.
//!
//! The monomial basis loses rank as `s` grows (conditioning scales
//! like `κ(A)ˢ`). Any non-finite Gram entry or non-positive CG
//! denominator in the host loop is treated as **rank loss**: the
//! block is discarded (the iterate is untouched — no axpys have been
//! issued yet) and the solver permanently falls back to
//! [`PipelinedCgSolver`], whose constructor recomputes `r = b − Ax`
//! from the current iterate — a natural restart.

use kdr_sparse::Scalar;

use crate::planner::{Planner, RHS, SOL};
use crate::scalar_handle::ScalarHandle;
use crate::solvers::{BreakdownGuard, PipelinedCgSolver, Solver};

/// Default block size: monomial bases stay well-conditioned in `f64`
/// for small `s` on reasonably conditioned SPD systems.
const DEFAULT_S: usize = 3;

/// Outcome of the host-side coefficient-space CG loop.
enum BlockOutcome {
    /// Final coefficients of `x`, `r`, `p` in the basis, plus the
    /// final squared residual norm `γ = r_cᵀ G r_c = (r, r)`.
    Converged {
        x_c: Vec<f64>,
        r_c: Vec<f64>,
        p_c: Vec<f64>,
        gamma: f64,
    },
    RankLoss,
}

/// s-step CG: blocks of `s` iterations with a single fused Gram
/// reduction per block, falling back to pipelined CG on basis rank
/// loss.
pub struct SStepCgSolver<T: Scalar> {
    /// Block size, fixed at construction.
    s: usize,
    p: usize,
    r: usize,
    /// `2s + 1` basis workspace vectors, allocated on the first block.
    basis: Vec<usize>,
    /// Squared residual norm (deferred handle; after a block it is a
    /// host-computed constant).
    res: ScalarHandle<T>,
    /// Post-rank-loss delegate; once set, all stepping goes through
    /// it.
    fallback: Option<PipelinedCgSolver<T>>,
}

impl<T: Scalar> SStepCgSolver<T> {
    /// Build with the default block size.
    pub fn new(planner: &mut Planner<T>) -> Self {
        Self::with_s(planner, DEFAULT_S)
    }

    /// Create with an explicit block size `s ≥ 1`.
    pub fn with_s(planner: &mut Planner<T>, s: usize) -> Self {
        assert!(s >= 1, "s-step CG requires s >= 1");
        planner.finalize();
        assert!(planner.is_square(), "CG requires a square system");
        assert!(
            !planner.has_preconditioner(),
            "SStepCgSolver does not support a preconditioner"
        );
        let p = planner.allocate_workspace_vector();
        let r = planner.allocate_workspace_vector();
        // r = b − A x0 (p as scratch) ; p = r.
        planner.matmul(p, SOL);
        planner.copy(r, RHS);
        let minus_one = planner.scalar(-T::ONE);
        planner.axpy(r, &minus_one, p);
        planner.copy(p, r);
        let res = planner.dot(r, r);
        SStepCgSolver {
            s,
            p,
            r,
            basis: Vec::new(),
            res,
            fallback: None,
        }
    }

    /// Apply the basis-shift operator: `A·(V c) = V·shift(c)`.
    /// Returns `None` if a nonzero coefficient sits on the last
    /// column of either chain (no image in the basis) — impossible in
    /// exact arithmetic within `s` iterations, treated as rank loss
    /// if it ever fires.
    fn shift(c: &[f64], s: usize) -> Option<Vec<f64>> {
        let m = 2 * s + 1;
        let mut out = vec![0.0; m];
        for (k, &ck) in c.iter().enumerate() {
            if ck == 0.0 {
                continue;
            }
            if k == s || k == 2 * s {
                return None;
            }
            out[k + 1] += ck;
        }
        Some(out)
    }

    /// `s` CG iterations in coefficient space: `p_c = e_0` (the
    /// direction `p`), `r_c = e_{s+1}` (the residual `r`), `x_c = 0`,
    /// with `(u, v) = u_cᵀ G v_c`.
    fn coefficient_cg(g: &[Vec<f64>], s: usize) -> BlockOutcome {
        let m = 2 * s + 1;
        let gdot = |a: &[f64], b: &[f64]| -> f64 {
            let mut acc = 0.0;
            for i in 0..m {
                let mut row = 0.0;
                for j in 0..m {
                    row += g[i][j] * b[j];
                }
                acc += a[i] * row;
            }
            acc
        };
        let mut x_c = vec![0.0; m];
        let mut r_c = vec![0.0; m];
        r_c[s + 1] = 1.0;
        let mut p_c = vec![0.0; m];
        p_c[0] = 1.0;
        let mut gamma = gdot(&r_c, &r_c);
        if !gamma.is_finite() || gamma < 0.0 {
            return BlockOutcome::RankLoss;
        }
        for _ in 0..s {
            if gamma == 0.0 {
                // Exact convergence inside the block.
                break;
            }
            let bp = match Self::shift(&p_c, s) {
                Some(bp) => bp,
                None => return BlockOutcome::RankLoss,
            };
            let denom = gdot(&p_c, &bp);
            if !denom.is_finite() || denom <= 0.0 {
                return BlockOutcome::RankLoss;
            }
            let alpha = gamma / denom;
            for k in 0..m {
                x_c[k] += alpha * p_c[k];
                r_c[k] -= alpha * bp[k];
            }
            let gamma_new = gdot(&r_c, &r_c);
            if !gamma_new.is_finite() || gamma_new < 0.0 {
                return BlockOutcome::RankLoss;
            }
            let beta = gamma_new / gamma;
            for k in 0..m {
                p_c[k] = r_c[k] + beta * p_c[k];
            }
            gamma = gamma_new;
        }
        BlockOutcome::Converged { x_c, r_c, p_c, gamma }
    }

    /// Discard the current block and restart as pipelined CG from the
    /// (untouched) current iterate.
    fn fall_back(&mut self, planner: &mut Planner<T>) {
        let mut fb = PipelinedCgSolver::new(planner);
        fb.step(planner);
        self.fallback = Some(fb);
    }
}

impl<T: Scalar> Solver<T> for SStepCgSolver<T> {
    fn step(&mut self, planner: &mut Planner<T>) {
        if let Some(fb) = &mut self.fallback {
            fb.step(planner);
            return;
        }
        let s = self.s;
        let m = 2 * s + 1;
        if self.basis.is_empty() {
            self.basis = (0..m)
                .map(|_| planner.allocate_workspace_vector())
                .collect();
        }
        // Monomial basis: P-chain then R-chain.
        planner.copy(self.basis[0], self.p);
        for j in 0..s {
            planner.matmul(self.basis[j + 1], self.basis[j]);
        }
        planner.copy(self.basis[s + 1], self.r);
        for j in 0..s.saturating_sub(1) {
            planner.matmul(self.basis[s + 2 + j], self.basis[s + 1 + j]);
        }
        // Gram upper triangle in one fused reduction, forced
        // host-side: the block's single fence.
        let mut pairs = Vec::with_capacity(m * (m + 1) / 2);
        for i in 0..m {
            for j in i..m {
                pairs.push((self.basis[i], self.basis[j]));
            }
        }
        let handles = planner.dot_many(&pairs);
        let mut g = vec![vec![0.0f64; m]; m];
        let mut finite = true;
        let mut k = 0;
        // Symmetric fill (g[i][j] and g[j][i]) — iterator forms can't
        // express the mirrored write.
        #[allow(clippy::needless_range_loop)]
        for i in 0..m {
            for j in i..m {
                let v = handles[k].get().to_f64();
                k += 1;
                finite &= v.is_finite();
                g[i][j] = v;
                g[j][i] = v;
            }
        }
        drop(handles);
        if !finite {
            self.fall_back(planner);
            return;
        }
        match Self::coefficient_cg(&g, s) {
            BlockOutcome::RankLoss => self.fall_back(planner),
            BlockOutcome::Converged { x_c, r_c, p_c, gamma } => {
                // x += V x_c ; r = V r_c ; p = V p_c. All
                // coefficients are host constants, so the graph
                // shape stays value-independent.
                for (k, &c) in x_c.iter().enumerate() {
                    let c = planner.scalar(T::from_f64(c));
                    planner.axpy(SOL, &c, self.basis[k]);
                }
                planner.zero(self.r);
                for (k, &c) in r_c.iter().enumerate() {
                    let c = planner.scalar(T::from_f64(c));
                    planner.axpy(self.r, &c, self.basis[k]);
                }
                planner.zero(self.p);
                for (k, &c) in p_c.iter().enumerate() {
                    let c = planner.scalar(T::from_f64(c));
                    planner.axpy(self.p, &c, self.basis[k]);
                }
                // γ = r_cᵀ G r_c is exactly (r, r) in the basis inner
                // product — no extra reduction needed.
                self.res = planner.scalar(T::from_f64(gamma));
            }
        }
    }

    fn convergence_measure(&self) -> Option<ScalarHandle<T>> {
        match &self.fallback {
            Some(fb) => fb.convergence_measure(),
            None => Some(self.res.clone()),
        }
    }

    fn name(&self) -> &'static str {
        "sstepcg"
    }

    fn breakdown_guards(&self) -> Vec<BreakdownGuard<T>> {
        match &self.fallback {
            Some(fb) => fb.breakdown_guards(),
            None => Vec::new(),
        }
    }
}
