//! The execution backend's lowering rules, case by case, against the
//! reference backend (`reference/mod.rs`): each test makes the same
//! backend calls on both and compares every value the calls return or
//! leave behind, bit for bit, on several worker counts — so on lanes of
//! one piece, of several, and of the whole component. Which tasks a
//! case lowers to (fused or not, over which lanes) is checked by the
//! unit tests in `exec.rs`.

mod reference;

use kdr_core::backend::{BVec, SRef, ScalarOp};
use kdr_core::{Backend, CompSpec, ExecBackend};
use kdr_index::interval::Run;
use kdr_index::{IntervalSet, Partition};
use reference::Reference;

/// What one run of a test's calls saw: a label and bits per check.
type Seen = Vec<(String, Vec<u64>)>;

/// Run `calls` on the reference backend, then on the execution backend
/// on each of `workers`, and hold every check to the reference's bits.
fn same_bits(workers: &[usize], calls: impl Fn(&mut dyn Backend<f64>) -> Seen) {
    let want = calls(&mut Reference::<f64>::new());
    for &w in workers {
        let got = calls(&mut ExecBackend::<f64>::new(w));
        assert_eq!(got.len(), want.len());
        for ((what, got), (_, want)) in got.iter().zip(&want) {
            assert_eq!(got, want, "{what} on {w} workers");
        }
    }
}

/// The bits of a vector's elements.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The bits of a scalar.
fn scalar(b: &mut dyn Backend<f64>, s: SRef) -> Vec<u64> {
    vec![b.scalar_get(s).to_bits()]
}

/// A one-component vector over `cs`, holding `data`.
fn alloc(b: &mut dyn Backend<f64>, cs: &CompSpec, data: &[f64]) -> BVec {
    let v = b.alloc_vector(std::slice::from_ref(cs));
    b.fill_component(v, 0, data);
    v
}

/// `n` values of magnitude about one, apart for each `k`.
fn vals(n: u64, k: f64) -> Vec<f64> {
    (0..n).map(|i| (i as f64 * k).sin() + 0.5).collect()
}

/// One component of `n` elements dealt to three pieces in blocks of
/// 19: every piece is several runs (two full lane blocks and a tail
/// each, the last one ragged).
fn striped(n: u64) -> CompSpec {
    CompSpec {
        len: n,
        partition: Partition::block_cyclic(n, 3, 19),
    }
}

/// Unequal pieces, two of them of two runs and one empty: on two
/// workers the even colours' lane is a footprint of two runs, the
/// first holding four dot chains and the second two; on one worker the
/// eight chains are two groups of four.
fn uneven() -> CompSpec {
    let runs =
        |rs: &[(u64, u64)]| IntervalSet::from_runs(rs.iter().map(|&(lo, hi)| Run::new(lo, hi)));
    let pieces = vec![
        runs(&[(0, 10), (150, 170)]),
        runs(&[(70, 150)]),
        runs(&[(10, 30), (170, 200)]),
        runs(&[(200, 240)]),
        runs(&[(30, 31)]),
        IntervalSet::default(),
        runs(&[(31, 70)]),
    ];
    CompSpec {
        len: 240,
        partition: Partition::new(240, pieces),
    }
}

/// Every vector kernel, source distinct from and equal to the
/// destination, and `dot`, on single-run and multi-run pieces. In the
/// dev profile the views' subset and aliasing assertions are armed, so
/// a body slicing one vector twice panics here.
#[test]
fn vector_kernels_match_the_per_element_oracle_bitwise() {
    type Op = fn(&mut dyn Backend<f64>, BVec, SRef, BVec);
    let cases: [(&str, Op); 5] = [
        ("axpy", |b, d, a, s| b.axpy(d, a, s)),
        ("xpay", |b, d, a, s| b.xpay(d, a, s)),
        ("scal", |b, d, a, _| b.scal(d, a)),
        ("copy", |b, d, _, s| b.copy(d, s)),
        ("set_zero", |b, d, _, _| b.set_zero(d)),
    ];
    for cs in [CompSpec::blocks(61, 3), striped(203)] {
        let n = cs.len;
        let sv: Vec<f64> = (0..n).map(|i| (i as f64 * 0.73).sin() * 3.0).collect();
        let dv: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 - 30.5)).collect();
        same_bits(&[1, 3, 4], |b| {
            let mut seen = Seen::new();
            let s = alloc(b, &cs, &sv);
            let d = alloc(b, &cs, &dv);
            let alpha = b.scalar_const(0.3);
            for (name, op) in cases {
                b.fill_component(d, 0, &dv);
                op(b, d, alpha, s);
                seen.push((name.into(), bits(&b.read_component(d, 0))));
                seen.push((format!("{name}'s source"), bits(&b.read_component(s, 0))));
                b.fill_component(d, 0, &dv);
                op(b, d, alpha, d);
                seen.push((format!("{name} in place"), bits(&b.read_component(d, 0))));
            }
            b.fill_component(d, 0, &dv);
            for (name, x, y) in [("dot", s, d), ("dot(v, v)", d, d)] {
                let r = b.dot(x, y);
                seen.push((name.into(), scalar(b, r)));
            }
            seen
        });
    }
}

/// A batch over vectors of two partitions: each pair's partials are
/// its first operand's pieces, whatever the other pairs' are.
#[test]
fn dot_many_over_two_partitions_matches_the_oracle_bitwise() {
    let (cs, other) = (striped(203), CompSpec::blocks(203, 4));
    same_bits(&[1, 3, 4], |b| {
        let x = alloc(b, &cs, &vals(203, 0.37));
        let y = alloc(b, &cs, &vals(203, 0.11));
        let w = alloc(b, &other, &vals(203, 0.53));
        let got = b.dot_many(&[(w, x), (x, y), (x, w), (w, w)]);
        got.into_iter()
            .enumerate()
            .map(|(k, s)| (format!("pair {k}"), scalar(b, s)))
            .collect()
    });
}

/// An `axpy` and the dot recorded right after it, fused or not: the
/// updated vector is the per-element `axpy`'s and the sum the per-piece
/// one, with the updated vector first or second in the pair, or not in
/// it, over either operand's partition.
#[test]
fn an_axpy_and_the_dot_after_it_match_the_oracle_bitwise() {
    let dv = vals(203, 0.11);
    for (cs, other) in [
        (striped(203), CompSpec::blocks(203, 4)),
        (CompSpec::blocks(203, 3), striped(203)),
    ] {
        same_bits(&[1, 3, 4], |b| {
            let mut seen = Seen::new();
            let s = alloc(b, &cs, &vals(203, 0.37));
            let d = alloc(b, &cs, &dv);
            let y = alloc(b, &cs, &vals(203, 0.53));
            let w = alloc(b, &other, &vals(203, 0.71));
            for (p, q) in [(d, d), (d, y), (y, d), (d, w), (w, d), (s, y)] {
                b.fill_component(d, 0, &dv);
                let alpha = b.scalar_const(0.3);
                b.axpy(d, alpha, s);
                let r = b.dot(p, q);
                seen.push((format!("({p}, {q})"), scalar(b, r)));
                seen.push((format!("d after ({p}, {q})"), bits(&b.read_component(d, 0))));
                b.scalar_release(alpha);
                b.scalar_release(r);
            }
            seen
        });
    }
}

/// A lane's dot chains go four abreast, the rest one by one, and every
/// partial is still its piece's runs' sums in run order: `dot`, and an
/// `axpy` fused with the dot after it (of the updated vector with
/// itself and with another), on lanes of unequal pieces, multi-run
/// pieces and multi-run footprints.
#[test]
fn four_chain_partials_match_the_per_piece_oracle_bitwise() {
    let cs = uneven();
    let vals = |k: f64| -> Vec<f64> {
        (0..cs.len)
            .map(|i| (i as f64 * k).sin() * 2f64.powi(i as i32 % 9 - 4))
            .collect()
    };
    let dv = vals(0.71);
    same_bits(&[1, 2, 3, 7], |b| {
        let mut seen = Seen::new();
        let x = alloc(b, &cs, &vals(0.37));
        let y = alloc(b, &cs, &vals(0.11));
        let s = alloc(b, &cs, &vals(0.53));
        let d = alloc(b, &cs, &dv);
        for (p, q) in [(x, y), (x, x)] {
            let r = b.dot(p, q);
            seen.push((format!("({p}, {q})"), scalar(b, r)));
            b.scalar_release(r);
        }
        for q in [d, y] {
            b.fill_component(d, 0, &dv);
            let alpha = b.scalar_const(0.3);
            b.axpy(d, alpha, s);
            let r = b.dot(d, q);
            seen.push((format!("(d, {q})"), scalar(b, r)));
            seen.push((format!("d after (d, {q})"), bits(&b.read_component(d, 0))));
            b.scalar_release(alpha);
            b.scalar_release(r);
        }
        seen
    });
}

/// `x += αp`, then `p = r + βp`, with each kind of call in between —
/// lowered into the `xpay` or not: `x` and `p` end as the per-element
/// `axpy` then `xpay` leave them, and what ran in between saw the `x`
/// and `p` of its place in the record.
#[test]
fn an_axpy_lowered_into_the_xpay_matches_the_oracle_bitwise() {
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Between {
        Nothing,
        ReadsP,
        CopiesX,
        DotsX,
        ScalesP,
        AlphaSlotConst,
        AlphaSlotBinop,
        AlphaSlotDots,
        XOfOtherLanes,
    }
    let (cs, other) = (uneven(), CompSpec::blocks(240, 4));
    let vals = |k: f64| -> Vec<f64> { (0..cs.len).map(|i| (i as f64 * k).sin() + 0.25).collect() };
    for between in [
        Between::Nothing,
        Between::ReadsP,
        Between::CopiesX,
        Between::DotsX,
        Between::ScalesP,
        Between::AlphaSlotConst,
        Between::AlphaSlotBinop,
        Between::AlphaSlotDots,
        Between::XOfOtherLanes,
    ] {
        same_bits(&[1, 3], |b| {
            let x_spec = if between == Between::XOfOtherLanes {
                &other
            } else {
                &cs
            };
            let x = alloc(b, x_spec, &vals(0.37));
            let p = alloc(b, &cs, &vals(0.11));
            let r = alloc(b, &cs, &vals(0.53));
            let w = alloc(b, &cs, &vals(0.71));
            let beta = b.scalar_const(-0.7);
            let one = b.scalar_const(1.0);
            let alpha = b.scalar_const(0.3);
            b.axpy(x, alpha, p);
            let mut read = None;
            match between {
                Between::Nothing | Between::XOfOtherLanes => {}
                Between::ReadsP => read = Some(b.dot(p, r)),
                Between::CopiesX => b.copy(w, x),
                Between::DotsX => read = Some(b.dot(w, x)),
                Between::ScalesP => b.scal(p, one),
                Between::AlphaSlotConst => {
                    b.scalar_release(alpha);
                    assert_eq!(
                        b.scalar_const(2.0),
                        alpha,
                        "the released slot is taken again"
                    );
                }
                Between::AlphaSlotBinop => {
                    b.scalar_release(alpha);
                    assert_eq!(b.scalar_binop(ScalarOp::Add, one, one), alpha);
                }
                Between::AlphaSlotDots => {
                    b.scalar_release(alpha);
                    assert_eq!(b.dot(w, w), alpha);
                }
            }
            b.xpay(p, beta, r);
            let what = format!("{between:?}");
            let mut seen = vec![
                (format!("x, {what}"), bits(&b.read_component(x, 0))),
                (format!("p, {what}"), bits(&b.read_component(p, 0))),
                (format!("w, {what}"), bits(&b.read_component(w, 0))),
            ];
            if let Some(s) = read {
                seen.push((format!("the read between, {what}"), scalar(b, s)));
            }
            seen
        });
    }
}
