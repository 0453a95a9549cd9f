//! Property tests for the BLAS-1 slice kernels in `kdr_sparse::vecops`.
//!
//! The contracts of the module's docs:
//!
//! * the elementwise kernels write exactly the bits of their
//!   per-element expression (`d + a*s`, `s + a*d`, `a*d`, …), however
//!   the compiler vectorised the sweep;
//! * `dot` follows the documented eight-lane order and nothing else —
//!   checked against a scalar oracle that spells the order out — and
//!   stays inside the blocked-summation error bound of a compensated
//!   reference;
//! * `axpy_dot` writes `axpy`'s bits and returns `dot`'s sum of the
//!   updated slice, with itself or with a second slice in either order;
//! * the four-chain `dot4` / `axpy_dot4` are four single-chain kernels,
//!   chain for chain, on unequal lengths (empty, under a block, tails),
//!   and `axpy_xpay` is `axpy` then `xpay`, bit for bit.
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
            fn axpy_dot_is_axpy_then_dot_bitwise() {
                let mut rng = Rng(0x5eed_0005);
                for n in lengths(&mut rng, 120) {
                    for specials in [false, true] {
                        let s = data(&mut rng, n, specials);
                        let y = data(&mut rng, n, specials);
                        let d0 = data(&mut rng, n, specials);
                        for a in [0.0 as $t, -0.0, 1.0, -1.5, 0.3, <$t>::INFINITY] {
                            let mut want = d0.clone();
                            vecops::axpy(&mut want, a, &s);
                            let mut d = d0.clone();
                            let got = vecops::axpy_dot(&mut d, a, &s, None);
                            assert_same("axpy_dot", n, &d, &want);
                            let oracle = dot_oracle(&want, &want);
                            assert!(same(got, oracle), "n={n} d·d: {got:e} vs {oracle:e}");
                            let mut d = d0.clone();
                            let got = vecops::axpy_dot(&mut d, a, &s, Some(&y));
                            assert_same("axpy_dot", n, &d, &want);
                            for oracle in [dot_oracle(&want, &y), dot_oracle(&y, &want)] {
                                assert!(same(got, oracle), "n={n} d·y: {got:e} vs {oracle:e}");
                            }
                        }
                    }
                }
            }

            /// Values scaled by `2^k`, `k ∈ [−20, 20]`, as
            /// `kernel_prop.rs::random_vector` draws them: sums of
            /// such values round, so a reordered chain shows.
            fn scaled(rng: &mut Rng, n: usize) -> Vec<$t> {
                (0..n)
                    .map(|_| (rng.unit() * (2.0f64).powi((rng.next() % 41) as i32 - 20)) as $t)
                    .collect()
            }

            /// Four unequal chain lengths: empty, under a block, on a
            /// block edge, with a tail, or long.
            fn four_lengths(rng: &mut Rng) -> [usize; 4] {
                const EDGES: [usize; 12] = [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 576];
                std::array::from_fn(|_| match rng.next() % 3 {
                    0 => EDGES[(rng.next() % EDGES.len() as u64) as usize],
                    _ => (rng.next() % 300) as usize,
                })
            }

            /// Four chains' data: `data` with or without specials, or
            /// `scaled`, by `kind`.
            fn chains(rng: &mut Rng, n: [usize; 4], kind: u64) -> [Vec<$t>; 4] {
                n.map(|n| match kind {
                    0 => data(rng, n, false),
                    1 => data(rng, n, true),
                    _ => scaled(rng, n),
                })
            }

            fn views(v: &[Vec<$t>; 4]) -> [&[$t]; 4] {
                std::array::from_fn(|k| v[k].as_slice())
            }

            /// `dot4` is four `dot`s, `axpy_dot4` four `axpy_dot`s
            /// (with and without `y`), each chain bit for bit, on
            /// unequal lengths: the lockstep blocks, then each chain's
            /// own blocks and tail.
            #[test]
            fn four_chains_are_four_single_chains_bitwise() {
                let mut rng = Rng(0x5eed_0006);
                for trial in 0..600 {
                    let n = four_lengths(&mut rng);
                    let kind = trial % 3;
                    let (x, y, s) = (
                        chains(&mut rng, n, kind),
                        chains(&mut rng, n, kind),
                        chains(&mut rng, n, kind),
                    );
                    let got = vecops::dot4(views(&x), views(&y));
                    for k in 0..4 {
                        let want = vecops::dot(&x[k], &y[k]);
                        assert!(same(got[k], want), "{n:?} chain {k}: {:e} vs {want:e}", got[k]);
                    }
                    for a in [0.0 as $t, -0.0, 1.0, -1.5, 0.3] {
                        for with_y in [false, true] {
                            let mut want = x.clone();
                            let sums: Vec<$t> = (0..4)
                                .map(|k| {
                                    let y = with_y.then_some(y[k].as_slice());
                                    vecops::axpy_dot(&mut want[k], a, &s[k], y)
                                })
                                .collect();
                            let mut d = x.clone();
                            let [d0, d1, d2, d3] = &mut d;
                            let got = vecops::axpy_dot4(
                                [d0, d1, d2, d3],
                                a,
                                views(&s),
                                with_y.then(|| views(&y)),
                            );
                            for k in 0..4 {
                                assert_same("axpy_dot4", n[k], &d[k], &want[k]);
                                assert!(
                                    same(got[k], sums[k]),
                                    "{n:?} y {with_y} chain {k}: {:e} vs {:e}",
                                    got[k],
                                    sums[k]
                                );
                            }
                        }
                    }
                }
            }

            /// `axpy_xpay` is `axpy(x, a, p)` then `xpay(p, b, r)`, bit
            /// for bit, both outputs.
            #[test]
            fn axpy_xpay_is_axpy_then_xpay_bitwise() {
                let mut rng = Rng(0x5eed_0007);
                for (i, n) in lengths(&mut rng, 60).into_iter().enumerate() {
                    let kind = i as u64 % 3;
                    let [x0, p0, r, _] = chains(&mut rng, [n; 4], kind);
                    let coefficients = [
                        (0.0 as $t, 1.0 as $t),
                        (-0.0, -0.0),
                        (0.3, -1.5),
                        (<$t>::INFINITY, 0.5),
                    ];
                    for (a, b) in coefficients {
                        let (mut want_x, mut want_p) = (x0.clone(), p0.clone());
                        vecops::axpy(&mut want_x, a, &want_p);
                        vecops::xpay(&mut want_p, b, &r);
                        let (mut x, mut p) = (x0.clone(), p0.clone());
                        vecops::axpy_xpay(&mut x, a, &mut p, b, &r);
                        assert_same("axpy_xpay x", n, &x, &want_x);
                        assert_same("axpy_xpay p", n, &p, &want_p);
                    }
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
