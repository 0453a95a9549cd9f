//! Property tests for the BLAS-1 slice kernels in `kdr_sparse::vecops`.
//!
//! Two contracts, both from the module's docs:
//!
//! * the elementwise kernels write exactly the bits of their
//!   per-element expression (`d + a*s`, `s + a*d`, `a*d`, …), however
//!   the compiler vectorised the sweep;
//! * `dot` follows the documented eight-lane order and nothing else —
//!   checked against a scalar oracle that spells the order out — and
//!   stays inside the blocked-summation error bound of a compensated
//!   reference.
//!
//! Both for `f32` and `f64`, every length 0..=67 (all block/tail
//! splits around the lane count) plus seeded random lengths up to
//! 5 000, with signed zeros, subnormals and infinities in the data.
//! Run in the dev profile and again with `--release` (scripts/ci.sh):
//! the second is the vectorised code the solvers execute.

use std::hint::black_box;

use kdr_sparse::vecops::{self, DOT_LANES};

/// SplitMix64: a seeded stream good enough to pick test data.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// Every length 0..=67, then `extra` seeded lengths up to 5 000.
fn lengths(rng: &mut Rng, extra: usize) -> Vec<usize> {
    let mut out: Vec<usize> = (0..=67).collect();
    out.extend((0..extra).map(|_| (rng.next() % 5001) as usize));
    out
}

macro_rules! vecops_props {
    ($modname:ident, $t:ty) => {
        mod $modname {
            use super::*;

            const SPECIALS: [$t; 8] = [
                0.0,
                -0.0,
                <$t>::MIN_POSITIVE / 4.0,
                -<$t>::MIN_POSITIVE / 8.0,
                <$t>::INFINITY,
                <$t>::NEG_INFINITY,
                <$t>::MAX,
                <$t>::EPSILON,
            ];

            /// Same bits, or both NaN (an optimiser may commute an
            /// addition, which picks the other operand's NaN payload).
            fn same(a: $t, b: $t) -> bool {
                a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
            }

            /// Ordinary values across ~12 binades, every eighth one a
            /// special when `specials` is set.
            fn data(rng: &mut Rng, n: usize, specials: bool) -> Vec<$t> {
                (0..n)
                    .map(|_| {
                        let pick = rng.next();
                        if specials && pick % 8 == 0 {
                            SPECIALS[(pick >> 8) as usize % SPECIALS.len()]
                        } else {
                            let scale = (2.0f64).powi((pick >> 8) as i32 % 13 - 6);
                            (rng.unit() * scale) as $t
                        }
                    })
                    .collect()
            }

            /// Apply `expr(d, s)` one element at a time; `black_box`
            /// keeps the oracle a scalar loop.
            fn per_element(d: &[$t], s: &[$t], expr: impl Fn($t, $t) -> $t) -> Vec<$t> {
                d.iter()
                    .zip(s)
                    .map(|(&d, &s)| black_box(expr(black_box(d), black_box(s))))
                    .collect()
            }

            fn assert_same(kernel: &str, n: usize, got: &[$t], want: &[$t]) {
                assert_eq!(got.len(), want.len());
                for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
                    assert!(same(g, w), "{kernel} n={n} element {i}: {g:e} vs {w:e}");
                }
            }

            #[test]
            fn elementwise_kernels_match_their_expressions_bitwise() {
                let mut rng = Rng(0x5eed_0001);
                for n in lengths(&mut rng, 40) {
                    let s = data(&mut rng, n, true);
                    let d0 = data(&mut rng, n, true);
                    for a in [
                        0.0 as $t,
                        -0.0,
                        1.0,
                        -1.5,
                        0.3,
                        <$t>::EPSILON,
                        <$t>::INFINITY,
                    ] {
                        let mut d = d0.clone();
                        vecops::axpy(&mut d, a, &s);
                        assert_same("axpy", n, &d, &per_element(&d0, &s, |d, s| d + a * s));

                        let mut d = d0.clone();
                        vecops::xpay(&mut d, a, &s);
                        assert_same("xpay", n, &d, &per_element(&d0, &s, |d, s| s + a * d));

                        let mut d = d0.clone();
                        vecops::scal(&mut d, a);
                        assert_same("scal", n, &d, &per_element(&d0, &s, |d, _| a * d));

                        // In place: what axpy and xpay both mean when
                        // the source is the destination.
                        let mut d = d0.clone();
                        vecops::axpy_in_place(&mut d, a);
                        assert_same(
                            "axpy_in_place",
                            n,
                            &d,
                            &per_element(&d0, &d0, |d, s| d + a * s),
                        );
                        assert_same(
                            "axpy_in_place/xpay",
                            n,
                            &d,
                            &per_element(&d0, &d0, |d, s| s + a * d),
                        );

                        let mut d = d0.clone();
                        vecops::fill(&mut d, a);
                        assert_same("fill", n, &d, &vec![a; n]);
                    }
                    let mut d = d0.clone();
                    vecops::copy(&mut d, &s);
                    assert_same("copy", n, &d, &s);
                }
            }

            /// The documented order, spelled out one element at a
            /// time.
            fn dot_oracle(x: &[$t], y: &[$t]) -> $t {
                let n = x.len();
                let blocked = n / DOT_LANES * DOT_LANES;
                let mut lane = [0.0 as $t; DOT_LANES];
                for i in 0..blocked {
                    lane[i % DOT_LANES] = black_box(x[i]).mul_add(y[i], lane[i % DOT_LANES]);
                }
                let mut acc = ((lane[0] + lane[4]) + (lane[2] + lane[6]))
                    + ((lane[1] + lane[5]) + (lane[3] + lane[7]));
                for i in blocked..n {
                    acc = black_box(x[i]).mul_add(y[i], acc);
                }
                acc
            }

            #[test]
            fn dot_follows_the_documented_lane_order_bitwise() {
                let mut rng = Rng(0x5eed_0002);
                for n in lengths(&mut rng, 120) {
                    for specials in [false, true] {
                        let x = data(&mut rng, n, specials);
                        let y = data(&mut rng, n, specials);
                        let (got, want) = (vecops::dot(&x, &y), dot_oracle(&x, &y));
                        assert!(same(got, want), "n={n}: {got:e} vs {want:e}");
                        let (got, want) = (vecops::dot(&x, &x), dot_oracle(&x, &x));
                        assert!(same(got, want), "n={n} x·x: {got:e} vs {want:e}");
                    }
                }
            }

            #[test]
            fn dot_of_fewer_than_eight_elements_is_the_sequential_sum() {
                let mut rng = Rng(0x5eed_0003);
                for n in 0..DOT_LANES {
                    let x = data(&mut rng, n, true);
                    let y = data(&mut rng, n, true);
                    let mut want = 0.0 as $t;
                    for i in 0..n {
                        want = x[i].mul_add(y[i], want);
                    }
                    assert!(same(vecops::dot(&x, &y), want), "n={n}");
                }
            }

            #[test]
            fn dot_stays_inside_the_blocked_summation_bound() {
                let mut rng = Rng(0x5eed_0004);
                for n in lengths(&mut rng, 120) {
                    let x = data(&mut rng, n, false);
                    let y = data(&mut rng, n, false);
                    let (reference, magnitude) = compensated_dot(&x, &y);
                    // Each lane rounds n/8 times, the combine tree
                    // three, the tail at most seven; ε is twice the
                    // unit roundoff, so the bound is a loose one.
                    let bound = (n / DOT_LANES + 10) as f64 * <$t>::EPSILON as f64 * magnitude
                        + n as f64 * <$t>::MIN_POSITIVE as f64;
                    let err = (vecops::dot(&x, &y) as f64 - reference).abs();
                    assert!(err <= bound, "n={n}: error {err:e} above bound {bound:e}");
                }
            }
        }
    };
}

/// `(Σ x·y, Σ |x·y|)` to about twice `f64` precision: error-free
/// products (`mul_add` recovers the rounding of `x*y`) and error-free
/// sums (Knuth's two-sum), the roundings added back at the end — the
/// Ogita–Rump–Oishi `Dot2`. For `f32` inputs the products are already
/// exact in `f64`.
fn compensated_dot<T: Copy + Into<f64>>(x: &[T], y: &[T]) -> (f64, f64) {
    let (mut sum, mut comp, mut magnitude) = (0.0f64, 0.0f64, 0.0f64);
    for (&x, &y) in x.iter().zip(y) {
        let (x, y): (f64, f64) = (x.into(), y.into());
        let p = x * y;
        let p_err = x.mul_add(y, -p);
        let s = sum + p;
        let bp = s - sum;
        let s_err = (sum - (s - bp)) + (p - bp);
        sum = s;
        comp += p_err + s_err;
        magnitude += p.abs();
    }
    (sum + comp, magnitude)
}

vecops_props!(f32_kernels, f32);
vecops_props!(f64_kernels, f64);
