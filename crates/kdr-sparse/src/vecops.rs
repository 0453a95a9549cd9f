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
//! | [`dot4`] | four [`dot`]s, their chains swept four abreast |
//! | [`axpy_dot4`] | four [`axpy_dot`]s with one coefficient, four abreast |
//! | [`axpy_xpay`] | [`axpy`]`(x, a, p)`, then [`xpay`]`(p, b, r)`, in one pass |
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
//!
//! **[`dot4`] and [`axpy_dot4`]** run four independent chains — four
//! slices of any lengths, each with lanes of its own — in one loop:
//! the full blocks all four hold are swept in lockstep, block `k` of
//! every chain before block `k + 1` of any, then each chain sweeps its
//! own remaining blocks and tail alone. No chain's order changes, so
//! chain `k`'s result is [`dot`]'s (or [`axpy_dot`]'s) of slice `k`,
//! bit for bit; what changes is that four `mul_add` latency chains run
//! side by side instead of one after another. This is not a wider
//! [`dot`]: splitting *one* slice over four chains would change its
//! bits. A block is indexed as a `[T; 8]` array, which compiles to
//! packed multiplies and `mul_add`s with each chain's lanes in
//! registers (EXPERIMENTS.md, "What four chains and a deferred update
//! cost", has the forms that did not).
//!
//! **[`axpy_xpay`]** evaluates `x + a·p`, then `r + b·p` with the same
//! old `p`, one rounding per operator as the table says, so it writes
//! [`axpy`]'s and then [`xpay`]'s bits while reading `p` once.

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
#[derive(Clone, Copy)]
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

    /// The rest of a chain: every full block of `x`, `y`, then
    /// [`Lanes::finish`] on the tail.
    #[inline(always)]
    fn sweep(mut self, x: &[T], y: &[T]) -> T {
        let mut xb = x.chunks_exact(DOT_LANES);
        let mut yb = y.chunks_exact(DOT_LANES);
        for (xs, ys) in (&mut xb).zip(&mut yb) {
            self.add(xs, ys);
        }
        self.finish(xb.remainder(), yb.remainder())
    }

    /// The rest of an [`axpy_dot`] chain: `d += a·s` block by block,
    /// each updated block into the lanes, then the tail.
    #[inline(always)]
    fn sweep_axpy(mut self, d: &mut [T], a: T, s: &[T], y: Option<&[T]>) -> T {
        let mut db = d.chunks_exact_mut(DOT_LANES);
        let mut sb = s.chunks_exact(DOT_LANES);
        match y {
            None => {
                for (dc, sc) in (&mut db).zip(&mut sb) {
                    let v = update(dc, a, sc);
                    self.add(&v, &v);
                }
                let tail = db.into_remainder();
                axpy(tail, a, sb.remainder());
                self.finish(tail, tail)
            }
            Some(y) => {
                let mut yb = y.chunks_exact(DOT_LANES);
                for ((dc, sc), yc) in (&mut db).zip(&mut sb).zip(&mut yb) {
                    self.add(&update(dc, a, sc), yc);
                }
                let tail = db.into_remainder();
                axpy(tail, a, sb.remainder());
                self.finish(tail, yb.remainder())
            }
        }
    }
}

/// `d += a·s` on one block of eight, returning the new block. The
/// block is updated into an array and stored whole: updated in place,
/// slice to slice, it compiles to scalar code in a task body.
#[inline(always)]
fn update<T: Scalar>(d: &mut [T], a: T, s: &[T]) -> [T; DOT_LANES] {
    let v: [T; DOT_LANES] = std::array::from_fn(|i| d[i] + a * s[i]);
    d.copy_from_slice(&v);
    v
}

/// Block `o..o + 8` of `x` as an array: the four-chain sweeps index
/// their blocks, which keeps each chain's lanes in registers and its
/// block in packed loads and `mul_add`s.
#[inline(always)]
fn block<T: Scalar>(x: &[T], o: usize) -> &[T; DOT_LANES] {
    x[o..o + DOT_LANES].try_into().expect("a full block")
}

/// The full blocks all four slices hold, as an element count.
fn common<T>(x: [&[T]; 4]) -> usize {
    x.iter().map(|x| x.len()).min().unwrap_or(0) / DOT_LANES * DOT_LANES
}

/// `Σ x[i]·y[i]` in the fixed eight-lane order of the [module
/// docs](self).
#[inline]
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    Lanes::new().sweep(x, y)
}

/// Four [`dot`]s at once: `[dot(x[0], y[0]), …, dot(x[3], y[3])]`,
/// bit for bit. The blocks all four chains hold are swept in lockstep,
/// each chain in lanes of its own, so four independent `mul_add`
/// chains share the loop; then each chain finishes alone. Kept out of
/// line: a body calls it once per four pieces.
#[inline(never)]
pub fn dot4<T: Scalar>(x: [&[T]; 4], y: [&[T]; 4]) -> [T; 4] {
    for (x, y) in x.iter().zip(&y) {
        assert_eq!(x.len(), y.len(), "dot length mismatch");
    }
    let mut lanes = [Lanes::new(); 4];
    let n = common(x);
    let mut o = 0;
    while o < n {
        for k in 0..4 {
            lanes[k].add(block(x[k], o), block(y[k], o));
        }
        o += DOT_LANES;
    }
    let mut sums = [T::ZERO; 4];
    for k in 0..4 {
        sums[k] = lanes[k].sweep(&x[k][n..], &y[k][n..]);
    }
    sums
}

/// `d[i] = d[i] + a * s[i]`, returning `dot(d, y)` of the updated `d`
/// (`dot(d, d)` without `y`) in one pass over the slices. `d` and `y`
/// may come in either order of a pair: a `mul_add`'s product is exact,
/// so `x.mul_add(y, l)` and `y.mul_add(x, l)` are the same bits.
#[inline]
pub fn axpy_dot<T: Scalar>(d: &mut [T], a: T, s: &[T], y: Option<&[T]>) -> T {
    assert_eq!(d.len(), s.len(), "axpy length mismatch");
    assert!(y.is_none_or(|y| y.len() == d.len()), "dot length mismatch");
    Lanes::new().sweep_axpy(d, a, s, y)
}

/// Four [`axpy_dot`]s with one coefficient at once, bit for bit: chain
/// `k` updates `d[k] += a·s[k]` and returns `dot(d[k], y[k])` of the
/// updated slice (`dot(d[k], d[k])` without `y`). The blocks all four
/// chains hold are updated and summed in lockstep, then each chain
/// finishes alone, as [`dot4`]'s do.
#[inline(never)]
pub fn axpy_dot4<T: Scalar>(d: [&mut [T]; 4], a: T, s: [&[T]; 4], y: Option<[&[T]; 4]>) -> [T; 4] {
    for (d, s) in d.iter().zip(&s) {
        assert_eq!(d.len(), s.len(), "axpy length mismatch");
    }
    if let Some(y) = &y {
        for (d, y) in d.iter().zip(y) {
            assert_eq!(d.len(), y.len(), "dot length mismatch");
        }
    }
    let mut lanes = [Lanes::new(); 4];
    let n = common(s);
    let mut o = 0;
    while o < n {
        for k in 0..4 {
            let v = update(&mut d[k][o..o + DOT_LANES], a, block(s[k], o));
            match &y {
                Some(y) => lanes[k].add(&v, block(y[k], o)),
                None => lanes[k].add(&v, &v),
            }
        }
        o += DOT_LANES;
    }
    let mut sums = [T::ZERO; 4];
    for (k, d) in d.into_iter().enumerate() {
        sums[k] = lanes[k].sweep_axpy(&mut d[n..], a, &s[k][n..], y.map(|y| &y[k][n..]));
    }
    sums
}

/// `x[i] = x[i] + a * p[i]`, then `p[i] = r[i] + b * p[i]` with the old
/// `p[i]`, in one pass: [`axpy`]`(x, a, p)` followed by
/// [`xpay`]`(p, b, r)`, bit for bit, reading `p` once.
#[inline(never)]
pub fn axpy_xpay<T: Scalar>(x: &mut [T], a: T, p: &mut [T], b: T, r: &[T]) {
    assert_eq!(x.len(), p.len(), "axpy length mismatch");
    assert_eq!(p.len(), r.len(), "xpay length mismatch");
    for ((x, p), &r) in x.iter_mut().zip(p.iter_mut()).zip(r) {
        let old = *p;
        *x += a * old;
        *p = r + b * old;
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
