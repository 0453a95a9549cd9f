//! Property tests for the specialized tile-kernel family.
//!
//! The contract under test is the bitwise-reproducibility invariant
//! from DESIGN.md: every lowering (CSR, DIA, ELL, BCSR) of the same
//! triplets applies each output element's contributions in exactly
//! the reference order — entries sorted by `(row, col)`, accumulated
//! with `mul_add` — in both transpose directions. So all kernels must
//! agree with the reference *to the bit*, not merely to a tolerance,
//! on every structure the generators can produce: random scatter
//! (with duplicates), banded, blocked, uniform-row, empty, singleton.

use kdr_sparse::tile::BOX_STENCIL_EPS_BOUND;
use kdr_sparse::triples::xorshift;
use kdr_sparse::{KernelChoice, KernelKind, Stencil, StencilTile, TileKernel, TileStructure};
use proptest::prelude::*;

/// The accumulation-order reference every kernel must reproduce
/// bitwise: entries sorted by `(row, col)` (stable), each applied via
/// one `mul_add` into its output slot.
fn reference(rows: &[u64], cols: &[u64], vals: &[f64], x: &[f64], y: &mut [f64], transpose: bool) {
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by_key(|&k| (rows[k], cols[k]));
    for &k in &order {
        let (i, j) = if transpose {
            (cols[k] as usize, rows[k] as usize)
        } else {
            (rows[k] as usize, cols[k] as usize)
        };
        y[i] = vals[k].mul_add(x[j], y[i]);
    }
}

/// Lower `(rows, cols, vals)` under every forced kind plus `Auto` and
/// check each against the reference, both directions, bitwise. The
/// destination starts non-zero so kernels that scribbled on rows they
/// do not own would be caught too.
fn check_all_lowerings(rows: &[u64], cols: &[u64], vals: &[f64]) {
    check_all_lowerings_onto(rows, cols, vals, 0.125);
}

/// [`check_all_lowerings`] with the destination starting at `fill`.
/// From `-0.0` a row whose products are all zeros keeps their sign,
/// so a `-0.0` coefficient taken for a `+0.0` shows.
fn check_all_lowerings_onto(rows: &[u64], cols: &[u64], vals: &[f64], fill: f64) {
    let span = rows
        .iter()
        .chain(cols.iter())
        .copied()
        .max()
        .map_or(1, |m| m as usize + 2);
    let x: Vec<f64> = (0..span).map(|i| 0.25 + 0.5 * i as f64).collect();
    let choices = [
        KernelChoice::Auto,
        KernelChoice::Force(KernelKind::Csr),
        KernelChoice::Force(KernelKind::Dia),
        KernelChoice::Force(KernelKind::Ell),
        KernelChoice::Force(KernelKind::Bcsr),
        // Stencil cannot be lowered from triplets (no geometry to
        // recover); forcing it must fall back to CSR, never guess.
        KernelChoice::Force(KernelKind::Stencil),
    ];
    for transpose in [false, true] {
        let mut want = vec![fill; span];
        reference(rows, cols, vals, &x, &mut want, transpose);
        let want_bits: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
        for choice in choices {
            let k = TileKernel::lower(rows, cols, vals, choice);
            assert_eq!(k.nnz(), vals.len(), "{choice:?} lost entries");
            assert_eq!(k.is_empty(), vals.is_empty());
            let mut got = vec![fill; span];
            k.apply_slices(&x, &mut got, transpose);
            let got_bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                got_bits,
                want_bits,
                "{:?} (lowered to {:?}) transpose {} diverges from reference order",
                choice,
                k.kind(),
                transpose
            );
        }
    }
}

type Trip = (Vec<u64>, Vec<u64>, Vec<f64>);

/// Random scatter, duplicates allowed (which must force CSR fallback
/// in every lowering).
fn arb_scatter() -> impl Strategy<Value = Trip> {
    (2u64..24, 2u64..24).prop_flat_map(|(nr, nc)| {
        prop::collection::vec((0..nr, 0..nc, -8i32..8), 0..96).prop_map(|es| {
            let mut r = Vec::new();
            let mut c = Vec::new();
            let mut v = Vec::new();
            for (i, j, q) in es {
                r.push(i);
                c.push(j);
                v.push(q as f64 * 0.375 + 0.0625);
            }
            (r, c, v)
        })
    })
}

/// Banded structure: a few diagonals of a (possibly offset) square
/// tile, each diagonal fully or partially populated. Auto-selection
/// should usually pick DIA here.
fn arb_banded() -> impl Strategy<Value = Trip> {
    (
        4u64..32,
        0u64..64,
        prop::collection::vec(-6i64..6, 1..5),
        0u64..4,
    )
        .prop_map(|(n, base, offsets, skip)| {
            let mut offs = offsets;
            offs.sort_unstable();
            offs.dedup();
            let mut r = Vec::new();
            let mut c = Vec::new();
            let mut v = Vec::new();
            for (oi, &d) in offs.iter().enumerate() {
                for i in 0..n {
                    let j = i as i64 + d;
                    if j < 0 || j as u64 >= n {
                        continue;
                    }
                    // Punch a periodic hole in one diagonal so partial
                    // fills and short runs get exercised.
                    if oi == 0 && skip > 0 && i % (skip + 3) == 0 {
                        continue;
                    }
                    r.push(base + i);
                    c.push(base + j as u64);
                    v.push(1.0 + 0.125 * i as f64 + d as f64);
                }
            }
            (r, c, v)
        })
}

/// What the values along one diagonal look like — the cases the DIA
/// lowering has to tell apart when it decides whether to hold a
/// diagonal's value once. `k` counts the diagonal's entries, `odd` is
/// the position of the one that differs (where one does).
fn diagonal_value(pattern: u8, d: i64, k: u64, odd: u64) -> f64 {
    let base = 1.5 + d as f64;
    match (pattern, k == odd) {
        (0, _) | (2 | 4, false) => base, // all equal
        (1, _) => base + 0.125 * k as f64, // all different
        (2, true) => base + 0.5,          // equal but for one entry
        (3, odd_one) => {
            if odd_one {
                -0.0 // `+0.0` with one `-0.0`: equal as numbers, not as bits
            } else {
                0.0
            }
        }
        (4, true) => f64::NAN, // equal with one NaN
        _ => unreachable!("five patterns"),
    }
}

/// One diagonal of the band: offset, value pattern, which entry is the
/// odd one out, and the holes punched in it (`0` none; `m` drops every
/// row with `i % m == 0`, so `2` leaves single rows and `3` pairs —
/// one- and two-row segments once the other diagonals run through).
type BandDiagonal = (i64, u8, u64, u64);

fn band_triplets(n: u64, base: u64, diagonals: &[BandDiagonal]) -> Trip {
    let mut by_offset: Vec<BandDiagonal> = diagonals.to_vec();
    by_offset.sort_unstable_by_key(|&(d, ..)| d);
    by_offset.dedup_by_key(|&mut (d, ..)| d);
    let mut r = Vec::new();
    let mut c = Vec::new();
    let mut v = Vec::new();
    for (d, pattern, odd, holes) in by_offset {
        let mut k = 0;
        for i in 0..n {
            let j = i as i64 + d;
            if j < 0 || j as u64 >= n || (holes > 0 && i % holes == 0) {
                continue;
            }
            r.push(base + i);
            c.push(base + j as u64);
            v.push(diagonal_value(pattern, d, k, odd));
            k += 1;
        }
    }
    (r, c, v)
}

/// A band of 4–300 rows — long enough for every block width of the
/// DIA forward product and, over the cases, every tail length — whose
/// diagonals each draw one of the value patterns of
/// [`diagonal_value`], so constant, dense and mixed tiles all occur.
fn arb_coefficient_band() -> impl Strategy<Value = Trip> {
    let diagonal = (-6i64..6, 0u8..5, 0u64..40, prop_oneof![Just(0u64), 2u64..6]);
    (4u64..=300, 0u64..64, prop::collection::vec(diagonal, 1..6))
        .prop_map(|(n, base, diagonals)| band_triplets(n, base, &diagonals))
}

/// Block structure: a random subset of an aligned block grid, every
/// chosen block fully dense. Auto-selection should pick BCSR.
fn arb_blocked() -> impl Strategy<Value = Trip> {
    let block_size = prop_oneof![Just(2u64), Just(4u64), Just(8u64)];
    (block_size, 1u64..5, 1u64..5).prop_flat_map(|(bs, gr, gc)| {
        prop::collection::vec((0..gr, 0..gc), 1..6).prop_map(move |blocks| {
            let mut picked = blocks;
            picked.sort_unstable();
            picked.dedup();
            let mut r = Vec::new();
            let mut c = Vec::new();
            let mut v = Vec::new();
            for &(bi, bj) in &picked {
                for i in 0..bs {
                    for j in 0..bs {
                        r.push(bi * bs + i);
                        c.push(bj * bs + j);
                        v.push(0.5 + (i * bs + j + bi + 2 * bj) as f64 * 0.25);
                    }
                }
            }
            (r, c, v)
        })
    })
}

/// Uniform short rows over a wide column space: ELL territory.
fn arb_uniform_rows() -> impl Strategy<Value = Trip> {
    (2u64..24, 1u64..6, 24u64..64).prop_map(|(nr, w, nc)| {
        let mut r = Vec::new();
        let mut c = Vec::new();
        let mut v = Vec::new();
        for i in 0..nr {
            for k in 0..w {
                r.push(i);
                c.push((i * 7 + k * 11) % nc);
                v.push(1.0 + (i + k) as f64 * 0.5);
            }
        }
        (r, c, v)
    })
}

/// A random stencil descriptor (all four paper kinds, degenerate
/// extents included) plus random ascending, disjoint row runs whose
/// boundaries deliberately straddle grid lines and planes.
fn arb_stencil_tile() -> impl Strategy<Value = (Stencil, Vec<(u64, u64)>)> {
    (0usize..4, 1u64..7, 1u64..7, 1u64..7).prop_flat_map(|(kind, a, b, c)| {
        let s = match kind {
            0 => Stencil::lap1d(a * b * c),
            1 => Stencil::lap2d(a * b, c),
            2 => Stencil::lap3d7(a, b, c),
            _ => Stencil::lap3d27(a, b, c),
        };
        let n = s.unknowns();
        prop::collection::vec((0..n, 1u64..24), 0..4).prop_map(move |seed| {
            let mut runs: Vec<(u64, u64)> =
                seed.into_iter().map(|(lo, len)| (lo, (lo + len).min(n))).collect();
            runs.sort_unstable();
            let mut rows: Vec<(u64, u64)> = Vec::new();
            for (lo, hi) in runs {
                let lo = rows.last().map_or(lo, |&(_, prev_hi)| lo.max(prev_hi));
                if lo < hi {
                    rows.push((lo, hi));
                }
            }
            (s, rows)
        })
    })
}

/// The generated entries of `rows` of `s`, as triplets.
fn stencil_triplets(s: Stencil, rows: &[(u64, u64)]) -> Trip {
    let (mut tr, mut tc, mut tv) = (Vec::new(), Vec::new(), Vec::new());
    let mut scratch: Vec<(u64, f64)> = Vec::new();
    for &(lo, hi) in rows {
        for r in lo..hi {
            s.row_entries(r, &mut scratch);
            for &(col, val) in &scratch {
                tr.push(r);
                tc.push(col);
                tv.push(val);
            }
        }
    }
    (tr, tc, tv)
}

/// Check a [`StencilTile`] against the forced-CSR lowering of the same
/// rows' generated entries, both directions; and hold its band, field
/// for field, to the forced-DIA lowering of those entries wherever that
/// lowering is representable (rows scattered too far apart fall back to
/// CSR). A box-stencil band's forward product is held to the CSR chain
/// within the box bound, on dyadic and on random inputs, and bitwise to
/// the forced-DIA lowering's; every other product, bitwise to CSR.
fn check_stencil_tile(s: Stencil, rows: &[(u64, u64)]) {
    let n = s.unknowns() as usize;
    let (tr, tc, tv) = stencil_triplets(s, rows);
    let csr = TileKernel::lower(&tr, &tc, &tv, KernelChoice::Force(KernelKind::Csr));
    let tile = StencilTile::new(s, rows.to_vec());
    let is_box = tile.band().box_stencil.is_some();
    let dia = TileKernel::lower(&tr, &tc, &tv, KernelChoice::Force(KernelKind::Dia));
    if let TileKernel::Dia(want) = &dia {
        let band = tile.band();
        let what = format!("{s:?} rows {rows:?}: band differs from the forced-DIA lowering in");
        assert_eq!(band.row_lo, want.row_lo, "{what} row_lo");
        assert_eq!(band.nrows, want.nrows, "{what} nrows");
        assert_eq!(band.offsets, want.offsets, "{what} offsets");
        assert_eq!(band.coefs, want.coefs, "{what} coefs");
        assert_eq!(band.run_ptr, want.run_ptr, "{what} run_ptr");
        assert_eq!(band.runs, want.runs, "{what} runs");
        assert_eq!(band.seg_rows, want.seg_rows, "{what} seg_rows");
        assert_eq!(band.seg_ptr, want.seg_ptr, "{what} seg_ptr");
        assert_eq!(band.seg_diags, want.seg_diags, "{what} seg_diags");
        assert_eq!(band.box_stencil, want.box_stencil, "{what} box_stencil");
        assert!(band.vals.is_empty() && want.vals.is_empty(), "{what} vals");
    } else {
        assert!(!is_box, "{s:?} rows {rows:?}: a box band whose forced DIA falls back");
    }
    let matfree = TileKernel::Stencil(tile);
    assert_eq!(matfree.nnz(), tv.len(), "descriptor nnz disagrees with generator");
    let dyadic: Vec<f64> = (0..n).map(|i| 0.25 + 0.5 * i as f64).collect();
    for x in [dyadic, random_vector(n, n as u64 + tv.len() as u64)] {
        for transpose in [false, true] {
            let what = format!("{s:?} rows {rows:?} transpose {transpose}");
            let mut want = vec![0.125; n];
            csr.apply_slices(&x, &mut want, transpose);
            let mut got = vec![0.125; n];
            matfree.apply_slices(&x, &mut got, transpose);
            if is_box && !transpose {
                let mut forced_dia = vec![0.125; n];
                dia.apply_slices(&x, &mut forced_dia, false);
                assert_eq!(bits(&got), bits(&forced_dia), "{what}: matrix-free differs from forced DIA");
                let trip = (tr.clone(), tc.clone(), tv.clone());
                assert_within_box_bound(&trip, &x, &vec![0.125; n], &got, &want, &what);
            } else {
                assert_eq!(bits(&got), bits(&want), "{what}: matrix-free diverges from CSR");
            }
        }
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `n` values from `seed`: uniform in `[−0.5, 0.5)` on the grid of
/// 2⁻⁵³, each scaled by `2^k`, `k ∈ [−20, 20]`, so that nearly every
/// sum of them rounds and a reassociated sum shows. (Unscaled, the
/// values share one fixed-point grid and a few of them add exactly
/// while their sum stays below 1: an addition out of order would not
/// show.)
fn random_vector(n: usize, seed: u64) -> Vec<f64> {
    let mut next = xorshift(0x2545_f491_4f6c_dd1d ^ seed);
    let mut scale = xorshift(seed + 1);
    (0..n)
        .map(|_| {
            let v = (next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            v * 2f64.powi((scale() as usize / 16 % 41) as i32 - 20)
        })
        .collect()
}

/// Each entry of the box product `got` within the bound of the module
/// docs of the CSR chain `want`, both of `y₀ + A x` for the triplets:
/// `|got − want| ≤ K · ε · (|y₀| + Σⱼ |aᵢⱼ| |xⱼ|)`.
fn assert_within_box_bound((rows, cols, vals): &Trip, x: &[f64], y0: &[f64], got: &[f64], want: &[f64], what: &str) {
    let mut scale: Vec<f64> = y0.iter().map(|v| v.abs()).collect();
    for ((&i, &j), &v) in rows.iter().zip(cols).zip(vals) {
        scale[i as usize] += (v * x[j as usize]).abs();
    }
    for (i, ((&g, &w), &m)) in got.iter().zip(want).zip(&scale).enumerate() {
        let bound = BOX_STENCIL_EPS_BOUND * f64::EPSILON * m;
        assert!(
            (g - w).abs() <= bound,
            "{what}: row {i} is {g:e}, the CSR chain {w:e}: off by more than {bound:e}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_scatter_all_lowerings_bitwise_match((r, c, v) in arb_scatter()) {
        check_all_lowerings(&r, &c, &v);
    }

    #[test]
    fn banded_all_lowerings_bitwise_match((r, c, v) in arb_banded()) {
        check_all_lowerings(&r, &c, &v);
        let s = TileStructure::analyze(&r, &c, &v);
        prop_assert!(!s.has_duplicates);
        // The generator emits at most 5 distinct diagonals.
        prop_assert!(s.diag_count <= 5, "diag_count {}", s.diag_count);
    }

    #[test]
    fn coefficient_bands_all_lowerings_bitwise_match((r, c, v) in arb_coefficient_band()) {
        check_all_lowerings(&r, &c, &v);
        check_all_lowerings_onto(&r, &c, &v, -0.0);
        let s = TileStructure::analyze(&r, &c, &v);
        prop_assert!(!s.has_duplicates);
        prop_assert!(s.diag_count <= 5, "diag_count {}", s.diag_count);
    }

    #[test]
    fn blocked_all_lowerings_bitwise_match((r, c, v) in arb_blocked()) {
        check_all_lowerings(&r, &c, &v);
        let s = TileStructure::analyze(&r, &c, &v);
        prop_assert!(s.dense_block.is_some(), "dense blocks not detected");
        prop_assert_eq!(s.select(), KernelKind::Bcsr);
    }

    #[test]
    fn uniform_rows_all_lowerings_bitwise_match((r, c, v) in arb_uniform_rows()) {
        check_all_lowerings(&r, &c, &v);
        let s = TileStructure::analyze(&r, &c, &v);
        prop_assert_eq!(s.row_len_variance, 0.0);
    }

    #[test]
    fn stencil_tile_matches_csr((s, rows) in arb_stencil_tile()) {
        check_stencil_tile(s, &rows);
    }

    #[test]
    fn auto_agrees_with_structure_selection((r, c, v) in arb_scatter()) {
        let k = TileKernel::lower(&r, &c, &v, KernelChoice::Auto);
        if v.is_empty() {
            prop_assert!(k.is_empty());
        } else {
            prop_assert_eq!(k.kind(), Some(TileStructure::analyze(&r, &c, &v).select()));
        }
    }
}

// ----- deterministic edge cases -------------------------------------

#[test]
fn empty_tile_is_empty_under_every_choice() {
    for choice in [
        KernelChoice::Auto,
        KernelChoice::Force(KernelKind::Csr),
        KernelChoice::Force(KernelKind::Dia),
        KernelChoice::Force(KernelKind::Ell),
        KernelChoice::Force(KernelKind::Bcsr),
        KernelChoice::Force(KernelKind::Stencil),
    ] {
        let k = TileKernel::<f64>::lower(&[], &[], &[], choice);
        assert!(k.is_empty());
        assert_eq!(k.kind(), None);
        // Applying an empty kernel must not touch the destination.
        let x = [1.0, 2.0];
        let mut y = [3.0, 4.0];
        k.apply_slices(&x, &mut y, false);
        k.apply_slices(&x, &mut y, true);
        assert_eq!(y, [3.0, 4.0]);
    }
}

#[test]
fn singleton_tile_matches_everywhere() {
    // One entry far from the origin: exercises row-offset handling in
    // every format (DIA gets a single one-element diagonal, BCSR a
    // padded-fallback, ELL width 1).
    check_all_lowerings(&[41], &[37], &[2.5]);
}

#[test]
fn full_dense_band_matches_everywhere() {
    // A single completely dense diagonal: the DIA fast path with one
    // run covering the whole tile.
    let n = 48u64;
    let r: Vec<u64> = (0..n).collect();
    let c: Vec<u64> = (0..n).collect();
    let v: Vec<f64> = (0..n).map(|i| 1.0 + 0.5 * i as f64).collect();
    let s = TileStructure::analyze(&r, &c, &v);
    assert_eq!(s.diag_count, 1);
    assert_eq!(s.select(), KernelKind::Dia);
    check_all_lowerings(&r, &c, &v);
}

#[test]
fn signed_zero_products_stay_bitwise_identical() {
    // -0.0 entries and cancellations: any kernel that multiplied its
    // structural padding (instead of skipping it) would flip a -0.0
    // to +0.0 somewhere in here.
    let r = vec![0, 0, 1, 2, 2];
    let c = vec![0, 2, 1, 0, 2];
    let v = vec![-0.0, 1.0, -0.0, -1.0, 1.0];
    check_all_lowerings(&r, &c, &v);
}

#[test]
fn every_block_width_and_tail_length_matches_everywhere() {
    // Interior runs of every length from 1 to 99 rows: zero to three
    // 32-row blocks of the DIA forward product behind every head
    // length, the narrow blocks and the ones that keep only part of
    // their rows included. One diagonal of each value pattern, so every
    // segment mixes constant and dense terms; a second pass with all of
    // them constant.
    for n in 3..=100 {
        let mixed: Vec<BandDiagonal> = (0..5).map(|p| (p as i64 - 2, p, n / 2, 0)).collect();
        let (r, c, v) = band_triplets(n, 7, &mixed);
        check_all_lowerings(&r, &c, &v);
        let constant: Vec<BandDiagonal> = (0..5).map(|p| (p - 2, 0, 0, 0)).collect();
        let (r, c, v) = band_triplets(n, 7, &constant);
        check_all_lowerings(&r, &c, &v);
    }
}

#[test]
fn a_negative_zero_among_positive_zeros_is_not_a_constant() {
    // One diagonal of `+0.0` with a single `-0.0`, onto a destination
    // of `-0.0`: the odd row must come out `-0.0`, every other `+0.0`.
    // `==` calls the diagonal constant; its bits do not.
    let (r, c, v) = band_triplets(40, 3, &[(1, 3, 17, 0)]);
    assert_eq!(v.iter().filter(|z| z.is_sign_negative()).count(), 1);
    let k = TileKernel::lower(&r, &c, &v, KernelChoice::Force(KernelKind::Dia));
    assert_eq!(k.kind(), Some(KernelKind::Dia));
    assert_eq!(k.value_bytes(), v.len() * 8, "the diagonal is stored dense");
    check_all_lowerings_onto(&r, &c, &v, -0.0);
}

#[test]
fn one_and_two_row_segments_match_everywhere() {
    // A full main diagonal under two punched ones: every hole and
    // every stretch between holes is a segment of its own, one row
    // (`i % 2`) or one and two rows (`i % 3`) long.
    for n in [9, 33, 64, 131] {
        for holes in [2, 3] {
            let (r, c, v) = band_triplets(n, 0, &[(-1, 0, 0, holes), (0, 1, 0, 0), (2, 2, 5, holes)]);
            let k = TileKernel::lower(&r, &c, &v, KernelChoice::Force(KernelKind::Dia));
            let TileKernel::Dia(t) = &k else {
                panic!("lowered to {:?}", k.kind())
            };
            let longest = t.seg_rows.iter().map(|&(lo, hi)| hi - lo).max();
            assert_eq!(longest, Some(holes as u32 - 1), "n {n} holes {holes}");
            check_all_lowerings(&r, &c, &v);
        }
    }
}

#[test]
fn single_entry_runs_give_one_segment_pair_per_entry() {
    // Even rows hold diagonals {0, 2}, odd rows {1, 3}: no diagonal
    // has two consecutive rows, no two consecutive rows share their
    // diagonals, so every run is one entry, every row a segment, and
    // the segment table reaches its bound — one pair per entry.
    let n = 61u64;
    let (mut r, mut c, mut v) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..n {
        for d in [i % 2, i % 2 + 2] {
            r.push(i);
            c.push(i + d);
            v.push(if d == 2 { -1.0 } else { 0.5 + i as f64 });
        }
    }
    let k = TileKernel::lower(&r, &c, &v, KernelChoice::Force(KernelKind::Dia));
    let TileKernel::Dia(t) = &k else {
        panic!("lowered to {:?}", k.kind())
    };
    assert_eq!(t.runs.len(), v.len());
    assert_eq!(t.seg_rows.len(), n as usize);
    assert_eq!(t.seg_diags.len(), v.len());
    check_all_lowerings(&r, &c, &v);
}

// ----- the CSR payload's rows, stored by length ----------------------

/// A few hundred rows of 1–16 entries each at random columns, so the
/// CSR payload stores long runs of rows of one length. Half the cases
/// repeat coordinates within a row (every lowering falls back to CSR),
/// half keep each row's columns distinct (auto-selection decides). The
/// values are thirds, so every product rounds and a column summed in
/// another row order than ascending comes out with other bits.
fn arb_rows_of_many_lengths() -> impl Strategy<Value = Trip> {
    (100usize..400, 16u64..1024, 0u8..2).prop_flat_map(|(nr, nc, distinct)| {
        let row = prop::collection::vec((0..nc, -8i32..8), 1..17);
        prop::collection::vec(row, nr).prop_map(move |rows| {
            let (mut r, mut c, mut v) = (Vec::new(), Vec::new(), Vec::new());
            for (i, mut row) in rows.into_iter().enumerate() {
                if distinct == 1 {
                    row.sort_unstable_by_key(|&(j, _)| j);
                    row.dedup_by_key(|&mut (j, _)| j);
                }
                for (j, q) in row {
                    r.push(i as u64);
                    c.push(j);
                    v.push((q as f64 + 0.5) / 3.0);
                }
            }
            (r, c, v)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rows_of_many_lengths_all_lowerings_bitwise_match((r, c, v) in arb_rows_of_many_lengths()) {
        check_all_lowerings(&r, &c, &v);
        check_all_lowerings_onto(&r, &c, &v, -0.0);
    }
}

/// Rows around the CSR payload's group width (`tile::CSR_GROUP`, eight):
/// for one to four row lengths, 1, 7, 8, 9, 16 or 17 rows of it (or
/// any count up to 17), so a length holds no group, one group with a
/// row over or short, or two. The rows take shuffled row ids with gaps,
/// so lengths interleave in row order and some rows stay empty; in half
/// the cases every fourth row repeats a coordinate (every lowering then
/// falls back to CSR). Values are thirds and tenths, so a chain folded
/// in any other order, or a column fed rows out of order, rounds to
/// other bits.
fn arb_group_boundaries() -> impl Strategy<Value = Trip> {
    let count = prop_oneof![
        Just(1usize),
        Just(7usize),
        Just(8usize),
        Just(9usize),
        Just(16usize),
        Just(17usize),
        0usize..18,
    ];
    (
        prop::collection::vec((1u64..10, count), 1..5),
        1u64..1 << 40,
        0u8..2,
    )
        .prop_map(|(lengths, seed, repeats)| {
            let mut next = xorshift(seed);
            let rows: usize = lengths.iter().map(|&(_, n)| n).sum();
            // Row ids: the rows spread over twice as many, shuffled.
            let mut ids: Vec<u64> = (0..2 * rows as u64 + 1).collect();
            for k in (1..ids.len()).rev() {
                ids.swap(k, next() as usize % (k + 1));
            }
            let (mut r, mut c, mut v) = (Vec::new(), Vec::new(), Vec::new());
            let mut ids = ids.into_iter();
            for (len, n) in lengths {
                for _ in 0..n {
                    let i = ids.next().expect("twice as many ids as rows");
                    let mut cols: Vec<u64> = (0..len).map(|_| next() % 64).collect();
                    if repeats == 1 && i % 4 == 0 {
                        cols[len as usize - 1] = cols[0];
                    }
                    for (k, j) in cols.into_iter().enumerate() {
                        r.push(i);
                        c.push(j);
                        v.push((k as f64 + 1.0) / 3.0 - i as f64 * 0.1);
                    }
                }
            }
            (r, c, v)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rows_around_the_group_width_keep_every_bit((r, c, v) in arb_group_boundaries()) {
        check_all_lowerings(&r, &c, &v);
        check_all_lowerings_onto(&r, &c, &v, -0.0);
    }
}

#[test]
fn rows_stored_by_length_reverse_the_row_order_and_keep_every_bit() {
    // Row `i` of 24 holds `13 − i/2` entries: lengths fall as rows
    // rise, two rows to a length, so the CSR payload stores the rows in
    // reverse — pairs of equal length, each pair ascending. Every row
    // repeats its first coordinate last, every third value and all of
    // row 5 are `-0.0`, and the entries arrive last row first. The other
    // values are thirds and tenths, so the transposed sums round
    // differently in any other row order.
    let (mut r, mut c, mut v) = (Vec::new(), Vec::new(), Vec::new());
    for i in (0..24u64).rev() {
        let len = 13 - i / 2;
        for k in 0..len {
            let step = if k + 1 == len { 0 } else { k };
            let val = (k as f64 + 1.0) / 3.0 - i as f64 * 0.1;
            r.push(i);
            c.push((i * 3 + step * 7) % 31);
            v.push(if i == 5 || k % 3 == 2 { -0.0 } else { val });
        }
    }
    let k = TileKernel::lower(&r, &c, &v, KernelChoice::Force(KernelKind::Csr));
    let TileKernel::Csr(t) = &k else {
        panic!("lowered to {:?}", k.kind())
    };
    let reversed: Vec<u64> = (0..12u64).rev().flat_map(|p| [2 * p, 2 * p + 1]).collect();
    assert_eq!(t.row_ids, reversed);
    let ascending: Vec<u64> = t.by_row.iter().map(|&s| t.row_ids[s as usize]).collect();
    assert_eq!(ascending, (0..24).collect::<Vec<u64>>());
    check_all_lowerings(&r, &c, &v);
    check_all_lowerings_onto(&r, &c, &v, -0.0);
}

// ----- box-stencil bands: sum-factored, within a bound of CSR ---------

/// A lap3d27 grid with `n_y, n_z ≥ 3` (so its bands can be boxes) and
/// row runs over it that start and end anywhere, mid-line included.
fn arb_box_grid() -> impl Strategy<Value = (Stencil, Vec<(u64, u64)>)> {
    (1u64..6, 3u64..7, 3u64..11).prop_flat_map(|(nx, ny, nz)| {
        let s = Stencil::lap3d27(nx, ny, nz);
        let n = s.unknowns();
        prop::collection::vec((0..n, 1..n + 1), 1..4).prop_map(move |seed| {
            let mut runs: Vec<(u64, u64)> =
                seed.into_iter().map(|(lo, len)| (lo, (lo + len).min(n))).collect();
            runs.sort_unstable();
            let mut rows: Vec<(u64, u64)> = Vec::new();
            for (lo, hi) in runs {
                let lo = rows.last().map_or(lo, |&(_, prev_hi)| lo.max(prev_hi + 1));
                if lo < hi {
                    rows.push((lo, hi));
                }
            }
            (s, rows)
        })
    })
}

/// `y₀ + A x` by `kernel`, forward, from `y0`.
fn product(kernel: &TileKernel<f64>, x: &[f64], y0: &[f64]) -> Vec<f64> {
    let mut y = y0.to_vec();
    kernel.apply_slices(x, &mut y, false);
    y
}

/// Whether a lowered or matrix-free kernel runs its forward product as
/// a box stencil.
fn takes_box_path(kernel: &TileKernel<f64>) -> bool {
    match kernel {
        TileKernel::Dia(t) => t.box_stencil.is_some(),
        TileKernel::Stencil(t) => t.band().box_stencil.is_some(),
        _ => false,
    }
}

/// The rows of `s` in `pieces` equal blocks (the first `n % pieces` one
/// row longer), as one run each.
fn equal_pieces(s: Stencil, pieces: u64) -> Vec<Vec<(u64, u64)>> {
    let n = s.unknowns();
    let bound = |p: u64| p * (n / pieces) + p.min(n % pieces);
    (0..pieces).map(|p| vec![(bound(p), bound(p + 1))]).filter(|r| r[0].0 < r[0].1).collect()
}

/// `y₀ + A x` over the whole operator, each tile of `tiling` lowered
/// (`Auto`) or built matrix-free; and per row whether its tile took the
/// box path.
fn tiled_product(
    s: Stencil,
    tiling: &[Vec<(u64, u64)>],
    matrix_free: bool,
    x: &[f64],
    y0: &[f64],
) -> (Vec<f64>, Vec<bool>) {
    let mut y = y0.to_vec();
    let mut boxed = vec![false; y.len()];
    for rows in tiling {
        let kernel = if matrix_free {
            TileKernel::Stencil(StencilTile::new(s, rows.clone()))
        } else {
            let (r, c, v) = stencil_triplets(s, rows);
            TileKernel::lower(&r, &c, &v, KernelChoice::Auto)
        };
        kernel.apply_slices(x, &mut y, false);
        if takes_box_path(&kernel) {
            for &(lo, hi) in rows {
                boxed[lo as usize..hi as usize].iter_mut().for_each(|b| *b = true);
            }
        }
    }
    (y, boxed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) Every entry of a box band's product, lowered or matrix-free,
    /// is within the stated bound of the forced-CSR chain on random
    /// inputs; a band that is not a box is bitwise the chain.
    #[test]
    fn box_bands_stay_within_the_bound_of_csr((s, rows) in arb_box_grid()) {
        let n = s.unknowns() as usize;
        let trip = stencil_triplets(s, &rows);
        let (r, c, v) = &trip;
        let csr = TileKernel::lower(r, c, v, KernelChoice::Force(KernelKind::Csr));
        let x = random_vector(n, 1 + n as u64);
        let y0 = random_vector(n, 2 + v.len() as u64);
        let want = product(&csr, &x, &y0);
        // Forced, since `Auto` may pick another kind for runs far apart.
        let lowered = TileKernel::lower(r, c, v, KernelChoice::Force(KernelKind::Dia));
        let matrix_free = TileKernel::Stencil(StencilTile::new(s, rows.clone()));
        if lowered.kind() == Some(KernelKind::Dia) {
            prop_assert_eq!(takes_box_path(&lowered), takes_box_path(&matrix_free));
        }
        for kernel in [&lowered, &matrix_free] {
            let got = product(kernel, &x, &y0);
            let what = format!("{s:?} rows {rows:?} as {:?}", kernel.kind());
            if takes_box_path(kernel) {
                assert_within_box_bound(&trip, &x, &y0, &got, &want, &what);
            } else {
                prop_assert_eq!(bits(&got), bits(&want), "{}", what);
            }
        }
    }

    /// (b) A row the box path computes has the same bits whichever tile
    /// computes it — the whole operator, 4 or 7 equal pieces, or random
    /// runs that start and end mid-line, lowered or matrix-free — and
    /// the same bits in a second run.
    #[test]
    fn box_rows_keep_their_bits_under_every_tiling((s, runs) in arb_box_grid()) {
        let n = s.unknowns() as usize;
        let x = random_vector(n, 3 + n as u64);
        let y0 = random_vector(n, 4 + runs.len() as u64);
        // The random runs and the rows between them, as tiles of their own.
        let mut cut = Vec::new();
        let mut at = 0;
        for &(lo, hi) in &runs {
            if at < lo {
                cut.push(vec![(at, lo)]);
            }
            cut.push(vec![(lo, hi)]);
            at = hi;
        }
        if at < n as u64 {
            cut.push(vec![(at, n as u64)]);
        }
        let tilings = [equal_pieces(s, 1), equal_pieces(s, 4), equal_pieces(s, 7), cut];
        // The reference is the whole operator matrix-free: a band of
        // constants whatever `Auto` would make of a small grid's entries.
        let (whole, whole_boxed) = tiled_product(s, &tilings[0], true, &x, &y0);
        prop_assert_eq!(bits(&whole), bits(&tiled_product(s, &tilings[0], true, &x, &y0).0));
        if s.nx >= 3 {
            prop_assert!(whole_boxed.iter().all(|&b| b), "{:?} whole is not a box", s);
        }
        for tiling in &tilings {
            for matrix_free in [false, true] {
                let (y, boxed) = tiled_product(s, tiling, matrix_free, &x, &y0);
                let again = tiled_product(s, tiling, matrix_free, &x, &y0).0;
                prop_assert_eq!(bits(&y), bits(&again), "two runs of {:?} differ", tiling);
                for i in 0..n {
                    if boxed[i] && whole_boxed[i] {
                        prop_assert_eq!(
                            y[i].to_bits(), whole[i].to_bits(),
                            "{:?} row {} under {:?} (matrix-free {})", s, i, tiling, matrix_free
                        );
                    }
                }
            }
        }
    }
}

/// (c) A non-finite `xⱼ` — infinite of either sign or NaN — anywhere in
/// the grid makes exactly the rows non-finite that it makes
/// non-finite in the CSR chain.
#[test]
fn a_non_finite_input_poisons_the_rows_it_poisons_in_csr() {
    let s = Stencil::lap3d27(5, 6, 7);
    let n = s.unknowns() as usize;
    let (r, c, v) = stencil_triplets(s, &[(0, n as u64)]);
    let csr = TileKernel::lower(&r, &c, &v, KernelChoice::Force(KernelKind::Csr));
    let boxed = TileKernel::lower(&r, &c, &v, KernelChoice::Auto);
    assert!(takes_box_path(&boxed));
    let y0 = random_vector(n, 5);
    for (q, bad) in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN].into_iter().enumerate() {
        // A corner, an edge, a face and an interior point, and more.
        for j in [0, 6, 41, 100, 104, n / 2, n - 1].map(|j| (j + q) % n) {
            let mut x = random_vector(n, 6 + j as u64);
            x[j] = bad;
            let want = product(&csr, &x, &y0);
            let got = product(&boxed, &x, &y0);
            let finite = |y: &[f64]| y.iter().map(|v| v.is_finite()).collect::<Vec<_>>();
            assert_eq!(finite(&got), finite(&want), "x[{j}] = {bad}");
            assert!(want.iter().any(|v| !v.is_finite()));
        }
    }
}

/// (d) Bands that are nearly a box keep the DIA loop, bit for bit: each
/// lowers to `Dia` with no box descriptor and its forward product is
/// the CSR chain on random inputs.
#[test]
fn near_box_bands_keep_the_dia_loop_bitwise() {
    let box_grid = Stencil::lap3d27(5, 5, 6);
    let whole = |s: Stencil| stencil_triplets(s, &[(0, s.unknowns())]);
    let (nz, plane) = (6i64, 30i64);
    let offset_of = |r: &u64, c: &u64| *c as i64 - *r as i64;
    let with = |f: &dyn Fn(i64, usize, f64) -> f64| -> Trip {
        let (r, c, v) = whole(box_grid);
        let v = r.iter().zip(&c).zip(&v).enumerate().map(|(e, ((r, c), &v))| f(offset_of(r, c), e, v)).collect();
        (r, c, v)
    };
    let ulp_up = |v: f64| f64::from_bits(v.to_bits() + 1);
    let mut cases: Vec<(String, Trip)> = vec![
        ("one off-centre diagonal one ulp off".into(), with(&|d, _, v| if d == plane - 1 { ulp_up(v) } else { v })),
        ("off-centre +0.0".into(), with(&|d, _, v| if d == 0 { v } else { 0.0 })),
        ("off-centre -0.0".into(), with(&|d, _, v| if d == 0 { v } else { -0.0 })),
        ("centre +0.0".into(), with(&|d, _, v| if d == 0 { 0.0 } else { v })),
        ("centre -0.0".into(), with(&|d, _, v| if d == 0 { -0.0 } else { v })),
        ("|c1| > |c0|".into(), with(&|d, _, v| if d == 0 { 0.5 } else { v })),
        ("one dense diagonal".into(), with(&|d, e, v| if d == nz + 1 { v - e as f64 / 7.0 } else { v })),
    ];
    // An interior row missing one of its entries.
    let (mut r, mut c, mut v) = whole(box_grid);
    let interior = (2 * plane + 2 * nz + 3) as u64;
    let gone = r.iter().zip(&c).position(|(&i, &j)| i == interior && j == interior + 1).unwrap();
    for a in [&mut r, &mut c] {
        a.remove(gone);
    }
    v.remove(gone);
    cases.push(("an interior row missing an entry".into(), (r, c, v)));
    for s in [
        Stencil::lap3d27(4, 4, 2),
        Stencil::lap3d27(4, 2, 4),
        Stencil::lap3d27(4, 1, 5),
        Stencil::lap3d27(4, 5, 1),
        Stencil::lap3d7(5, 5, 6),
        Stencil::lap2d(9, 8),
    ] {
        cases.push((format!("{s:?}"), whole(s)));
    }
    for (what, (r, c, v)) in cases {
        let n = r.iter().chain(&c).max().map_or(0, |&m| m as usize + 1);
        let dia = TileKernel::lower(&r, &c, &v, KernelChoice::Force(KernelKind::Dia));
        let TileKernel::Dia(band) = &dia else { panic!("{what}: lowered to {:?}", dia.kind()) };
        assert_eq!(band.box_stencil, None, "{what}: taken for a box");
        let csr = TileKernel::lower(&r, &c, &v, KernelChoice::Force(KernelKind::Csr));
        let (x, y0) = (random_vector(n, 7), random_vector(n, 8));
        assert_eq!(bits(&product(&dia, &x, &y0)), bits(&product(&csr, &x, &y0)), "{what}");
    }
    // The unmodified grid is a box: the cases above are near misses.
    let (r, c, v) = whole(box_grid);
    assert!(takes_box_path(&TileKernel::lower(&r, &c, &v, KernelChoice::Auto)));
}

/// Unpreconditioned CG on `y = A x` by `apply`, from zero, to
/// `‖r‖ ≤ tol · ‖b‖`: the iterations taken and the solution.
fn cg(apply: &dyn Fn(&[f64]) -> Vec<f64>, b: &[f64], tol: f64) -> (usize, Vec<f64>) {
    let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(a, b)| a * b).sum::<f64>();
    let mut x = vec![0.0; b.len()];
    let (mut r, mut p) = (b.to_vec(), b.to_vec());
    let (mut rr, stop) = (dot(b, b), tol * tol * dot(b, b));
    for iter in 1..=2000 {
        let q = apply(&p);
        let alpha = rr / dot(&p, &q);
        for i in 0..b.len() {
            x[i] += alpha * p[i];
            r[i] -= alpha * q[i];
        }
        let next = dot(&r, &r);
        if next <= stop {
            return (iter, x);
        }
        for i in 0..b.len() {
            p[i] = r[i] + next / rr * p[i];
        }
        rr = next;
    }
    panic!("CG did not converge");
}

/// CG over box tiles — the whole operator, 4 and 7 pieces, lowered and
/// matrix-free — takes within one iteration of CG over the forced-CSR
/// operator, and its solution's true residual, by a forced-CSR
/// product, is within ten times the tolerance.
#[test]
fn box_cg_stays_within_one_iteration_of_csr() {
    let tol = 1e-10;
    for s in [Stencil::lap3d27(7, 6, 5), Stencil::lap3d27(12, 12, 12)] {
        let n = s.unknowns() as usize;
        let (r, c, v) = stencil_triplets(s, &[(0, n as u64)]);
        let csr = TileKernel::lower(&r, &c, &v, KernelChoice::Force(KernelKind::Csr));
        let csr_apply = |x: &[f64]| product(&csr, x, &vec![0.0; n]);
        let b = random_vector(n, 9);
        let (csr_iters, _) = cg(&csr_apply, &b, tol);
        for pieces in [1, 4, 7] {
            for matrix_free in [false, true] {
                let tiling = equal_pieces(s, pieces);
                let apply = |x: &[f64]| tiled_product(s, &tiling, matrix_free, x, &vec![0.0; n]).0;
                assert!(tiled_product(s, &tiling, matrix_free, &b, &b).1.iter().any(|&t| t));
                let (iters, x) = cg(&apply, &b, tol);
                let what = format!("{s:?} in {pieces} pieces (matrix-free {matrix_free})");
                assert!(iters.abs_diff(csr_iters) <= 1, "{what}: {iters} iterations, CSR {csr_iters}");
                let ax = csr_apply(&x);
                let resid = b.iter().zip(&ax).map(|(b, a)| (b - a) * (b - a)).sum::<f64>().sqrt();
                let norm = b.iter().map(|b| b * b).sum::<f64>().sqrt();
                assert!(resid / norm <= 10.0 * tol, "{what}: true residual {:e}", resid / norm);
            }
        }
    }
}

/// A grid band: `shape` picks the stencil's points — 0 the 1-D three,
/// 1 the 2-D five, 2 the 3-D seven, 3 the 2-D nine — over lines of `a`
/// rows, `b` lines a plane and `c` planes (1-D: one line of `a · b`).
/// Point `p` holds one constant, or, when bit `p` of `dense` is set, a
/// value per row; both are drawn from values that include `±0.0` and
/// subnormals. The tile is rows `[lo, hi)`, cut anywhere: mid-line, one
/// line, one row.
#[derive(Clone, Debug)]
struct GridBand {
    shape: u8,
    extents: (u64, u64, u64),
    dense: u16,
    rows: (u64, u64),
}

/// Coefficients a grid band draws from.
const GRID_COEFS: [f64; 9] = [-1.0, 4.0, -0.0, 0.0, 0.5, -2.5, 5e-324, 1e-310, 3.0];

/// Inputs a grid band's product is run on: a few ordinary values, and
/// signed zeros, infinities, a NaN and subnormals.
const GRID_X: [f64; 12] = [
    1.5, -0.75, 2.0, -3.25, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 5e-324,
    -1e-310, 1e300,
];

impl GridBand {
    /// Rows in the grid, and the grid step of each point as
    /// `(line, plane)`-unit displacements `(dz, dy, dx)`, ascending by
    /// column.
    fn geometry(&self) -> (u64, Vec<(i64, i64, i64)>) {
        let (a, b, c) = self.extents;
        let steps = |pts: &[(i64, i64, i64)]| pts.to_vec();
        match self.shape {
            0 => (a * b, steps(&[(-1, 0, 0), (0, 0, 0), (1, 0, 0)])),
            1 => (a * b, steps(&[(0, -1, 0), (-1, 0, 0), (0, 0, 0), (1, 0, 0), (0, 1, 0)])),
            2 => (
                a * b * c,
                steps(&[(0, 0, -1), (0, -1, 0), (-1, 0, 0), (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
            ),
            _ => {
                let mut pts = Vec::new();
                for dy in -1..=1 {
                    for dz in -1..=1 {
                        pts.push((dz, dy, 0));
                    }
                }
                (a * b, pts)
            }
        }
    }

    /// The tile's entries, row by row, each row's by ascending column.
    fn triplets(&self) -> Trip {
        let (a, b, _) = self.extents;
        // 1-D: one line of `a · b`.
        let (line, lines) = if self.shape == 0 { (a * b, 1) } else { (a, b) };
        let (n, points) = self.geometry();
        let planes = n / (line * lines);
        let (mut tr, mut tc, mut tv) = (Vec::new(), Vec::new(), Vec::new());
        for r in self.rows.0..self.rows.1 {
            let (z, y, x) = (r % line, r / line % lines, r / (line * lines));
            for (p, &(dz, dy, dx)) in points.iter().enumerate() {
                let inside = |at: u64, d: i64, n: u64| (at as i64 + d) >= 0 && ((at as i64 + d) as u64) < n;
                if !(inside(z, dz, line) && inside(y, dy, lines) && inside(x, dx, planes)) {
                    continue;
                }
                let col = (r as i64 + dz + dy * line as i64 + dx * (line * lines) as i64) as u64;
                let v = if self.dense >> p & 1 == 1 {
                    GRID_COEFS[((r * 7 + p as u64 * 5) % GRID_COEFS.len() as u64) as usize]
                } else {
                    GRID_COEFS[(p * 4 + self.shape as usize) % GRID_COEFS.len()]
                };
                tr.push(r);
                tc.push(col);
                tv.push(v);
            }
        }
        (tr, tc, tv)
    }
}

fn arb_grid_band() -> impl Strategy<Value = (GridBand, u64)> {
    let extents = (1u64..9, 1u64..9, 1u64..5);
    (0u8..4, extents, 0u16..512, (0u64..1 << 20, 0u64..1 << 20, 0u8..3), 0u64..1 << 30).prop_map(
        |(shape, extents, dense, (at, len, cut), seed)| {
            let mut band = GridBand { shape, extents, dense, rows: (0, 0) };
            let n = band.geometry().0;
            let line = if shape == 0 { n } else { extents.0 };
            band.rows = match cut {
                // One whole line.
                0 => {
                    let lo = at % (n / line) * line;
                    (lo, lo + line)
                }
                // From anywhere to the end.
                1 => (at % n, n),
                // Anywhere, of any length.
                _ => {
                    let lo = at % n;
                    (lo, lo + 1 + len % (n - lo))
                }
            };
            (band, seed)
        },
    )
}

/// The forward product of a grid band's tile, lowered `Auto` and
/// `Force(Dia)`, equals the forced-CSR chain bit for bit; and so does its product started from
/// `+0` ([`TileKernel::apply_from_zero`]) over what a fill of `+0` and
/// the CSR chain give, whatever `y` held.
fn check_grid_band(band: &GridBand, seed: u64) {
    let (r, c, v) = band.triplets();
    let n = band.geometry().0 as usize;
    let mut next = xorshift(seed + 1);
    let mut draw = |palette: &[f64], ordinary: usize| {
        let k = next() as usize;
        // Three draws in four from the ordinary values.
        if k % 4 > 0 { palette[k / 4 % ordinary] } else { palette[k / 4 % palette.len()] }
    };
    let x: Vec<f64> = (0..n).map(|_| draw(&GRID_X, 4)).collect();
    let y0: Vec<f64> = (0..n).map(|_| draw(&GRID_X, 4)).collect();
    let csr = TileKernel::lower(&r, &c, &v, KernelChoice::Force(KernelKind::Csr));
    let mut want = y0.clone();
    csr.apply_slices(&x, &mut want, false);
    let mut from_zero = y0.clone();
    for &i in &r {
        from_zero[i as usize] = 0.0;
    }
    csr.apply_slices(&x, &mut from_zero, false);
    for choice in [KernelChoice::Auto, KernelChoice::Force(KernelKind::Dia)] {
        let k = TileKernel::lower(&r, &c, &v, choice);
        let what = format!("{band:?} seed {seed}, {choice:?} lowered to {:?}", k.kind());
        let mut got = y0.clone();
        k.apply_slices(&x, &mut got, false);
        assert_eq!(bits(&got), bits(&want), "{what}: differs from CSR");
        let mut got = y0.clone();
        if k.apply_from_zero(&x.as_slice(), &mut got.as_mut_slice(), false) {
            assert_eq!(bits(&got), bits(&from_zero), "{what}: from +0, differs from a fill and CSR");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Tiles of 1-D, 2-D and 3-D stencil-shaped bands, cut anywhere,
    /// keep the CSR chain's bits on inputs with signed zeros,
    /// infinities, NaNs and subnormals.
    #[test]
    fn grid_band_passes_keep_every_bit((band, seed) in arb_grid_band()) {
        check_grid_band(&band, seed);
    }
}

// ----- box-stencil bands: the stated order of additions, bit for bit --

/// `(c0, c1)` of a lap3d27 operator: its centre and off-centre values.
fn box_coefficients(s: Stencil) -> (f64, f64) {
    let mut entries: Vec<(u64, f64)> = Vec::new();
    s.row_entries(0, &mut entries);
    let of = |centre: bool| entries.iter().find(|&&(col, _)| (col == 0) == centre).unwrap().1;
    (of(true), of(false))
}

/// Row `r` of `y + A x` for the lap3d27 operator `s`, as the box
/// contract states it, written out per row: the row's `x`-steps summed
/// over each (line, row) of its box, then those sums over its `y`-steps,
/// then those over its `z`-steps, each left to right from the lowest
/// step with the steps the grid's faces clip left out; then
/// `c1.mul_add(z, (c0 − c1).mul_add(x[r], y))`.
fn box_row(s: Stencil, coefs: (f64, f64), x: &[f64], r: u64, y: f64) -> f64 {
    box_row_of(s, coefs, x, r, y, |_, _| true)
}

/// [`box_row`] for the operator that keeps, of the entries of `s`, those
/// whose row's plane `i` and `x`-step `dx` pass `x_step(i, dx)`.
fn box_row_of(
    s: Stencil,
    (c0, c1): (f64, f64),
    x: &[f64],
    r: u64,
    y: f64,
    x_step: impl Fn(i64, i64) -> bool,
) -> f64 {
    let (nx, ny, nz) = (s.nx as i64, s.ny as i64, s.nz as i64);
    let (i, j, k) = (r as i64 / (ny * nz), r as i64 / nz % ny, r as i64 % nz);
    let steps = |at: i64, n: i64| (-1..=1).filter(move |d| (0..n).contains(&(at + d)));
    let mut z = None;
    for dz in steps(k, nz) {
        let mut s_y = None;
        for dy in steps(j, ny) {
            let mut t_x = None;
            for dx in steps(i, nx).filter(|&dx| x_step(i, dx)) {
                let v = x[(((i + dx) * ny + j + dy) * nz + k + dz) as usize];
                t_x = Some(t_x.map_or(v, |t: f64| t + v));
            }
            let t_x = t_x.unwrap();
            s_y = Some(s_y.map_or(t_x, |s: f64| s + t_x));
        }
        let s_y = s_y.unwrap();
        z = Some(z.map_or(s_y, |z: f64| z + s_y));
    }
    c1.mul_add(z.unwrap(), (c0 - c1).mul_add(x[r as usize], y))
}

/// A lap3d27 grid whose whole operator is a box band, one tile of it
/// cut at any rows, and a seed. Besides small random grids: 3 × 3 × 3,
/// an `x` axis of extent two, lines too long for three of them to fit
/// a window ([`kdr_sparse::tile::BOX_WINDOW`]) or only just fitting,
/// planes larger than a window, planes of more lines than a window
/// takes, and more planes than a product takes block by block at once.
fn arb_box_spec_case() -> impl Strategy<Value = (Stencil, (u64, u64), u64)> {
    let window = kdr_sparse::tile::BOX_WINDOW as u64;
    let shapes = [
        (3, 3, 3),
        (2, 4, 5),
        (2, 3, window / 3 + 9),
        (2, 3, window / 4),
        (3, window / 40 + 3, 40),
        (2, 70, 3),
        (20, 3, 4),
    ];
    let shape = (0usize..14, 2u64..6, 3u64..8, 3u64..12)
        .prop_map(move |(pick, nx, ny, nz)| shapes.get(pick).copied().unwrap_or((nx, ny, nz)));
    (shape, 0u64..1 << 20, 0u64..1 << 20, 0u8..4, 0u64..1 << 30).prop_map(
        |((nx, ny, nz), at, len, cut, seed)| {
            let s = Stencil::lap3d27(nx, ny, nz);
            let (n, plane) = (s.unknowns(), ny * nz);
            let lo = at % n;
            let rows = match cut {
                0 => (0, n),
                // Whole planes.
                1 => (lo / plane * plane, (lo / plane + 1 + len % 2) * plane),
                // From anywhere, of any length.
                _ => (lo, lo + 1 + len % (n - lo)),
            };
            (s, (rows.0, rows.1.min(n)), seed)
        },
    )
}

/// `n` inputs drawn from `seed`: [`random_vector`]'s values, scaled
/// by `2^k`, `k ∈ [−20, 20]`, so that nearly every sum of them rounds
/// and an addition out of order shows — but one in sixteen a signed
/// zero, an infinity, a NaN or a subnormal, picked by the draw that
/// scaled it.
fn box_inputs(n: usize, seed: u64) -> Vec<f64> {
    let special = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 5e-324, -1e-310];
    let mut next = xorshift(seed + 1);
    random_vector(n, seed)
        .into_iter()
        .map(|v| match next() as usize {
            k if k % 16 == 0 => special[k / 16 % special.len()],
            _ => v,
        })
        .collect()
}

/// The forward product of one tile of `s`, matrix-free and lowered
/// `Force(Dia)`: when the tile is a box band, `apply` over `y0` and
/// `apply_from_zero` over a garbage `y` each equal the per-row spec
/// ([`box_row`]) bit for bit on the tile's rows and leave every other
/// row as it was; a tile that is not a box is the CSR chain bit for bit.
fn check_box_spec(s: Stencil, (lo, hi): (u64, u64), seed: u64) {
    let n = s.unknowns() as usize;
    let coefs = box_coefficients(s);
    let (x, y0, garbage) = (box_inputs(n, seed), box_inputs(n, seed + 2), box_inputs(n, seed + 4));
    let rows = lo as usize..hi as usize;
    let spec = |y: &[f64], zero: bool| -> Vec<f64> {
        let mut want = y.to_vec();
        for r in rows.clone() {
            want[r] = box_row(s, coefs, &x, r as u64, if zero { 0.0 } else { y[r] });
        }
        want
    };
    let (want, want_from_zero) = (spec(&y0, false), spec(&garbage, true));
    let (tr, tc, tv) = stencil_triplets(s, &[(lo, hi)]);
    let matrix_free = TileKernel::Stencil(StencilTile::new(s, vec![(lo, hi)]));
    let lowered = TileKernel::lower(&tr, &tc, &tv, KernelChoice::Force(KernelKind::Dia));
    if lo == 0 && hi as usize == n {
        assert!(takes_box_path(&matrix_free), "{s:?}: the whole operator is not a box band");
    }
    for kernel in [&matrix_free, &lowered] {
        let what = format!("{s:?} rows {lo}..{hi} seed {seed} as {:?}", kernel.kind());
        if !takes_box_path(kernel) {
            let csr = TileKernel::lower(&tr, &tc, &tv, KernelChoice::Force(KernelKind::Csr));
            assert_eq!(bits(&product(kernel, &x, &y0)), bits(&product(&csr, &x, &y0)), "{what}");
            continue;
        }
        assert_eq!(bits(&product(kernel, &x, &y0)), bits(&want), "{what}: apply over slices");
        let mut got = garbage.clone();
        assert!(kernel.apply_from_zero(&x.as_slice(), &mut got.as_mut_slice(), false), "{what}");
        assert_eq!(bits(&got), bits(&want_from_zero), "{what}: from +0 over slices");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A box band's rows are the stated order of additions bit for bit
    /// — not only within the box bound — whatever rows its tile holds
    /// and whichever window of a plane computes them, from `y` or from
    /// `+0`, on inputs with signed zeros, infinities, NaNs and
    /// subnormals.
    #[test]
    fn box_bands_are_the_stated_sums_bit_for_bit((s, rows, seed) in arb_box_spec_case()) {
        check_box_spec(s, rows, seed);
    }
}

/// A box band's plane may hold one `x`-step. Of lap3d27 3 × 5 × 6
/// assembled, keep every entry of the middle plane's rows and only the
/// in-plane entries of the outer planes' rows: the middle plane still
/// reaches both neighbours, so the band has the 27 box offsets and is a
/// box band, whole or cut into a tile across two planes, and the outer
/// planes' rows sum their one `x`-step — the stated sums bit for bit,
/// from `y` and from `+0`.
#[test]
fn a_box_plane_of_one_x_step_is_the_stated_sums_bit_for_bit() {
    let (s, plane) = (Stencil::lap3d27(3, 5, 6), 30);
    let n = s.unknowns() as usize;
    let x_step = |i: i64, dx: i64| i == 1 || dx == 0;
    let coefs = box_coefficients(s);
    let (x, y0, garbage) = (box_inputs(n, 7), box_inputs(n, 9), box_inputs(n, 11));
    for (lo, hi) in [(0, n as u64), (plane / 2 + 2, 2 * plane - 3)] {
        let (tr, tc, tv) = stencil_triplets(s, &[(lo, hi)]);
        let (mut r, mut c, mut v) = (Vec::new(), Vec::new(), Vec::new());
        for k in 0..tv.len() {
            let (i, j) = ((tr[k] / plane) as i64, (tc[k] / plane) as i64);
            if x_step(i, j - i) {
                r.push(tr[k]);
                c.push(tc[k]);
                v.push(tv[k]);
            }
        }
        let kernel = TileKernel::lower(&r, &c, &v, KernelChoice::Force(KernelKind::Dia));
        let what = format!("rows {lo}..{hi}");
        assert!(takes_box_path(&kernel), "{what}: not a box band");
        let spec = |y: &[f64], zero: bool| -> Vec<f64> {
            let mut want = y.to_vec();
            for r in lo as usize..hi as usize {
                let y = if zero { 0.0 } else { y[r] };
                want[r] = box_row_of(s, coefs, &x, r as u64, y, x_step);
            }
            want
        };
        assert_eq!(bits(&product(&kernel, &x, &y0)), bits(&spec(&y0, false)), "{what}");
        let mut got = garbage.clone();
        assert!(kernel.apply_from_zero(&x.as_slice(), &mut got.as_mut_slice(), false), "{what}");
        assert_eq!(bits(&got), bits(&spec(&garbage, true)), "{what}: from +0");
    }
}
