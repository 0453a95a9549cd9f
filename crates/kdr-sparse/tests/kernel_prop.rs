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
//! Each kernel runs twice, over slices and over views that lend none,
//! so a kernel's slice path and its elementwise path are both held to
//! the reference.

use kdr_sparse::{
    KernelChoice, KernelKind, Stencil, StencilTile, TileKernel, TileStructure, VecIn, VecOut,
};
use proptest::prelude::*;

/// A read view that lends no slices: [`VecIn::range`] keeps its
/// default, so kernels take their elementwise path.
struct Elementwise<'a>(&'a [f64]);

impl VecIn<f64> for Elementwise<'_> {
    fn load(&self, i: usize) -> f64 {
        self.0[i]
    }
}

/// The write-side counterpart of [`Elementwise`].
struct ElementwiseMut<'a>(&'a mut [f64]);

impl VecOut<f64> for ElementwiseMut<'_> {
    fn load(&self, i: usize) -> f64 {
        self.0[i]
    }
    fn store(&mut self, i: usize, v: f64) {
        self.0[i] = v;
    }
}

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
            let mut got = vec![fill; span];
            k.apply(&Elementwise(&x), &mut ElementwiseMut(&mut got), transpose);
            let got_bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                got_bits,
                want_bits,
                "{:?} (lowered to {:?}) transpose {} diverges on views that lend no slices",
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

/// Bitwise-check a [`StencilTile`] against the forced-CSR lowering of
/// the same rows' generated entries, both directions, over slices and
/// over views that lend none; and hold its band, field for field, to
/// the forced-DIA lowering of those entries wherever that lowering is
/// representable (rows scattered too far apart fall back to CSR).
fn check_stencil_tile(s: Stencil, rows: &[(u64, u64)]) {
    let n = s.unknowns() as usize;
    let mut tr = Vec::new();
    let mut tc = Vec::new();
    let mut tv = Vec::new();
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
    let csr = TileKernel::lower(&tr, &tc, &tv, KernelChoice::Force(KernelKind::Csr));
    let tile = StencilTile::new(s, rows.to_vec());
    let dia = TileKernel::lower(&tr, &tc, &tv, KernelChoice::Force(KernelKind::Dia));
    if let TileKernel::Dia(want) = dia {
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
        assert!(band.vals.is_empty() && want.vals.is_empty(), "{what} vals");
    }
    let matfree = TileKernel::Stencil(tile);
    assert_eq!(matfree.nnz(), tv.len(), "descriptor nnz disagrees with generator");
    let x: Vec<f64> = (0..n).map(|i| 0.25 + 0.5 * i as f64).collect();
    for transpose in [false, true] {
        let mut want = vec![0.125; n];
        let mut got = vec![0.125; n];
        csr.apply_slices(&x, &mut want, transpose);
        matfree.apply_slices(&x, &mut got, transpose);
        let want_bits: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
        let got_bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            got_bits, want_bits,
            "{s:?} rows {rows:?} transpose {transpose}: matrix-free diverges from CSR"
        );
        let mut got = vec![0.125; n];
        matfree.apply(&Elementwise(&x), &mut ElementwiseMut(&mut got), transpose);
        let got_bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            got_bits, want_bits,
            "{s:?} rows {rows:?} transpose {transpose}: matrix-free diverges on views that lend no slices"
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
    fn stencil_tile_matches_csr_bitwise((s, rows) in arb_stencil_tile()) {
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
