//! BLAS-1 slice kernels: the vector half of a Krylov iteration.
//!
//! | kernel | per element |
//! |--------|-------------|
//! | [`copy`] | `d = s` |
//! | [`fill`] | `d = v` |
//! | [`scal`] | `d = a * d` |
//! | [`axpy`] | `d = d + a * s` |
//! | [`xpay`] | `d = s + a * d` |
//! | [`axpy_in_place`] | `d = d + a * d` (either update with `s` = `d`) |
//! | [`dot`] | `Σ x·y` in the lane order below |
//!
//! Every kernel takes plain slices of equal length, so the loops carry
//! no per-element bounds check or pointer indirection and the compiler
//! vectorises them for the build's target CPU. An execution backend
//! calls one kernel per contiguous run of a task's declared subset;
//! nothing here knows about tasks, pieces or partitions.
//!
//! # Bitwise contract
//!
//! **Elementwise kernels** evaluate exactly the expression in the
//! table, one rounding per operator: the multiply and the add of
//! `axpy`/`xpay` are never contracted into a fused multiply-add, so a
//! vectorised sweep writes the same bits as a scalar loop over the
//! same expression, on every host.
//!
//! **[`dot`]** has one fixed accumulation order, independent of the
//! host, its vector width and the build profile:
//!
//! 1. [`DOT_LANES`] (eight) accumulators start at `+0`;
//! 2. the slice's full blocks of eight are swept in order, element `i`
//!    going into lane `i mod 8` by `lane = x[i].mul_add(y[i], lane)`;
//! 3. the lanes are combined by the tree
//!    `((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7))`;
//! 4. the tail (fewer than eight elements) is folded into that sum
//!    left to right, `acc = x[i].mul_add(y[i], acc)`.
//!
//! Two code paths of one build that reduce the same elements through
//! this function therefore agree bit for bit — the property the
//! solvers' reproducibility contracts rest on. The order itself is
//! part of the implementation: a later release may choose another
//! (and say so), whereas two paths of one build may never differ.
//! Eight independent chains replace the single `mul_add` latency
//! chain a sequential dot is bound by; the blocked order also has the
//! smaller worst-case rounding error (`(n/8 + 10)·ε·Σ|x·y|` against
//! `n·ε·Σ|x·y|`).
//!
//! A slice shorter than eight elements reduces exactly as a plain
//! sequential `mul_add` loop from `+0` does.

use crate::scalar::Scalar;

/// Number of independent accumulators in [`dot`]. A constant of the
/// accumulation order, not a tuning knob: changing it changes bits.
pub const DOT_LANES: usize = 8;

/// `d[i] = s[i]`.
#[inline]
pub fn copy<T: Scalar>(d: &mut [T], s: &[T]) {
    d.copy_from_slice(s);
}

/// `d[i] = v`.
#[inline]
pub fn fill<T: Scalar>(d: &mut [T], v: T) {
    d.fill(v);
}

/// `d[i] = a * d[i]`.
#[inline]
pub fn scal<T: Scalar>(d: &mut [T], a: T) {
    for d in d {
        *d = a * *d;
    }
}

/// `d[i] = d[i] + a * s[i]`.
#[inline]
pub fn axpy<T: Scalar>(d: &mut [T], a: T, s: &[T]) {
    assert_eq!(d.len(), s.len(), "axpy length mismatch");
    for (d, &s) in d.iter_mut().zip(s) {
        *d += a * s;
    }
}

/// `d[i] = s[i] + a * d[i]`.
#[inline]
pub fn xpay<T: Scalar>(d: &mut [T], a: T, s: &[T]) {
    assert_eq!(d.len(), s.len(), "xpay length mismatch");
    for (d, &s) in d.iter_mut().zip(s) {
        *d = s + a * *d;
    }
}

/// `d[i] = d[i] + a * d[i]` — what both [`axpy`] and [`xpay`] compute
/// when their source *is* their destination, which two slices cannot
/// express.
#[inline]
pub fn axpy_in_place<T: Scalar>(d: &mut [T], a: T) {
    for d in d {
        *d += a * *d;
    }
}

/// `Σ x[i]·y[i]` in the fixed eight-lane order of the [module
/// docs](self).
#[inline]
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    let mut lanes = [T::ZERO; DOT_LANES];
    let mut xb = x.chunks_exact(DOT_LANES);
    let mut yb = y.chunks_exact(DOT_LANES);
    for (xs, ys) in (&mut xb).zip(&mut yb) {
        for ((lane, &x), &y) in lanes.iter_mut().zip(xs).zip(ys) {
            *lane = x.mul_add(y, *lane);
        }
    }
    let mut acc = ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
        + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
    for (&x, &y) in xb.remainder().iter().zip(yb.remainder()) {
        acc = x.mul_add(y, acc);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elementwise_kernels_compute_their_expressions() {
        let s = [1.0f64, -2.0, 0.5];
        let mut d = [4.0f64, 3.0, -8.0];
        axpy(&mut d, 2.0, &s);
        assert_eq!(d, [6.0, -1.0, -7.0]);
        xpay(&mut d, 0.5, &s);
        assert_eq!(d, [4.0, -2.5, -3.0]);
        scal(&mut d, -2.0);
        assert_eq!(d, [-8.0, 5.0, 6.0]);
        axpy_in_place(&mut d, 0.5);
        assert_eq!(d, [-12.0, 7.5, 9.0]);
        copy(&mut d, &s);
        assert_eq!(d, s);
        fill(&mut d, 0.0);
        assert_eq!(d, [0.0; 3]);
    }

    #[test]
    fn dot_of_short_slices_is_the_sequential_sum() {
        let x = [1.0f64, 2.0, 3.0, 4.0, 5.0];
        let y = [0.5f64, -1.0, 2.0, 0.25, 1.0];
        let mut want = 0.0f64;
        for i in 0..5 {
            want = x[i].mul_add(y[i], want);
        }
        assert_eq!(dot(&x, &y).to_bits(), want.to_bits());
        assert_eq!(dot::<f64>(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        dot(&[1.0f64, 2.0], &[1.0f64]);
    }
}
