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
//! | [`axpy_dot`] | [`axpy`], then [`dot`] of the new `d`, in one pass |
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
//!
//! **[`axpy_dot`]** updates a block of eight and adds it to the lanes
//! before it takes the next, so the dot's latency-bound `mul_add`
//! chain runs under the update's loads and stores instead of after
//! them, and the new `d` is never read back. Its update writes
//! [`axpy`]'s bits and its sum is [`dot`]'s of the updated slice: both
//! go through one lane type, `Lanes`, the only place the order is
//! written.

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

/// [`dot`]'s eight accumulators: blocks of eight go in lane by lane,
/// and [`Lanes::finish`] combines the lanes and folds the tail.
struct Lanes<T>([T; DOT_LANES]);

impl<T: Scalar> Lanes<T> {
    #[inline(always)]
    fn new() -> Self {
        Lanes([T::ZERO; DOT_LANES])
    }

    /// Element `i` of a block of eight into lane `i`.
    #[inline(always)]
    fn add(&mut self, x: &[T], y: &[T]) {
        for ((lane, &x), &y) in self.0.iter_mut().zip(x).zip(y) {
            *lane = x.mul_add(y, *lane);
        }
    }

    /// The lanes' tree, then the tail left to right.
    #[inline(always)]
    fn finish(self, x: &[T], y: &[T]) -> T {
        let l = self.0;
        let mut acc = ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
        for (&x, &y) in x.iter().zip(y) {
            acc = x.mul_add(y, acc);
        }
        acc
    }
}

/// `Σ x[i]·y[i]` in the fixed eight-lane order of the [module
/// docs](self).
#[inline]
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    let mut lanes = Lanes::new();
    let mut xb = x.chunks_exact(DOT_LANES);
    let mut yb = y.chunks_exact(DOT_LANES);
    for (xs, ys) in (&mut xb).zip(&mut yb) {
        lanes.add(xs, ys);
    }
    lanes.finish(xb.remainder(), yb.remainder())
}

/// `d[i] = d[i] + a * s[i]`, returning `dot(d, y)` of the updated `d`
/// (`dot(d, d)` without `y`) in one pass over the slices. `d` and `y`
/// may come in either order of a pair: a `mul_add`'s product is exact,
/// so `x.mul_add(y, l)` and `y.mul_add(x, l)` are the same bits.
#[inline]
pub fn axpy_dot<T: Scalar>(d: &mut [T], a: T, s: &[T], y: Option<&[T]>) -> T {
    assert_eq!(d.len(), s.len(), "axpy length mismatch");
    assert!(y.is_none_or(|y| y.len() == d.len()), "dot length mismatch");
    let mut lanes = Lanes::new();
    let mut db = d.chunks_exact_mut(DOT_LANES);
    let mut sb = s.chunks_exact(DOT_LANES);
    // A block is updated into an array and stored whole: updated in
    // place, slice to slice, it compiles to scalar code in a task body.
    let update = |dc: &mut [T], sc: &[T]| {
        let v: [T; DOT_LANES] = std::array::from_fn(|i| dc[i] + a * sc[i]);
        dc.copy_from_slice(&v);
        v
    };
    match y {
        None => {
            for (dc, sc) in (&mut db).zip(&mut sb) {
                let v = update(dc, sc);
                lanes.add(&v, &v);
            }
            let tail = db.into_remainder();
            axpy(tail, a, sb.remainder());
            lanes.finish(tail, tail)
        }
        Some(y) => {
            let mut yb = y.chunks_exact(DOT_LANES);
            for ((dc, sc), yc) in (&mut db).zip(&mut sb).zip(&mut yb) {
                lanes.add(&update(dc, sc), yc);
            }
            let tail = db.into_remainder();
            axpy(tail, a, sb.remainder());
            lanes.finish(tail, yb.remainder())
        }
    }
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
