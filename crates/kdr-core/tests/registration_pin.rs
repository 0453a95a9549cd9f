//! The registration result, pinned.
//!
//! Registering an operator is `compute_tiles` → `lower_tiles`, which
//! gathers each tile's entries and lowers them (at d548998 the entries
//! of every tile were extracted first, in a pass of their own). Every later layer —
//! task footprints, traces, catalogue keys, stored plans, the bits of a
//! solve — is a function of what those return, so this test pins it: per tile
//! the lowered kind, entry count, value bytes, `StructureKey` bytes,
//! the run counts of the output / input footprints with an FNV-1a of
//! their runs, an FNV-1a of the `Auto` payload's arrays and one over
//! the four forced payloads. The constants were captured at d548998
//! (before registration was made linear-time); a change that makes
//! registration cheaper must leave every one of them alone.
//!
//! One payload has changed by design since: PR 23 gave [`DiaTile`] a
//! value per constant diagonal in place of a dense column, and a
//! segment table. What a DIA payload *holds* was re-captured at that
//! commit — `value_bytes` and `auto_fnv` of the rows that lower to
//! `dia`, and `forced_fnv` wherever the forced DIA is representable
//! (every lap3d27 row; no scatter row, whose forced DIA falls back to
//! CSR). What registration *decides* was not: `kind`, `nnz`, `key`,
//! `out_runs`, `in_runs` and `footprint_fnv` of every row, and every
//! column of every row that does not lower to `dia`, are still the
//! d548998 constants.
//!
//! A second payload has changed by design since: PR 27 stores a
//! [`CsrTile`]'s rows by entry count, rows of equal length by ascending
//! row id, and gives it `by_row`, the stored index of each row in row
//! order. What a CSR payload *holds* was re-captured at that commit —
//! `auto_fnv` of the rows that lower to `csr` (every scatter row), and
//! `forced_fnv` of every row, since the forced CSR payload is part of
//! it. What registration *decides* was not: `kind`, `nnz`,
//! `value_bytes`, `key`, `out_runs`, `in_runs` and `footprint_fnv` of
//! every row, and `auto_fnv` of every `dia` row, are as they were
//! before it.
//!
//! A third payload has changed by design since: a [`CsrTile`] keeps
//! each run of eight rows of one length as a group, stored slot-major,
//! lists the first stored row of each length (`by_len`) and stores its
//! columns as `u32`. `auto_fnv` of the `csr` rows and `forced_fnv` of
//! every row were re-captured when that layout landed, as for the
//! second change; `kind`, `nnz`, `value_bytes`, `key`, `out_runs`,
//! `in_runs`, `footprint_fnv` and the `auto_fnv` of the `dia` rows did
//! not move.
//!
//! [`DiaTile`]: kdr_sparse::tile::DiaTile
//! [`CsrTile`]: kdr_sparse::tile::CsrTile
//!
//! On a mismatch the failure message is the full table in source form.

use kdr_core::partitioning::{compute_tiles, lower_tiles};
use kdr_index::{IntervalSet, Partition};
use kdr_sparse::tile::DiaCoef;
use kdr_sparse::{Csr, KernelChoice, KernelKind, SparseMatrix, Stencil, TileKernel, Triples};

/// 64-bit FNV-1a over a stream of `u64` words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A length-prefixed array, so adjacent arrays cannot trade
    /// elements without changing the hash.
    fn array(&mut self, words: impl ExactSizeIterator<Item = u64>) {
        self.word(words.len() as u64);
        words.for_each(|w| self.word(w));
    }

    fn runs(&mut self, set: &IntervalSet) {
        self.array(
            set.runs()
                .iter()
                .flat_map(|r| [r.lo, r.hi])
                .collect::<Vec<_>>()
                .into_iter(),
        );
    }
}

/// Every field of a lowered payload, in declaration order — but a
/// `DiaTile`'s `box_stencil`, which is a function of the offsets,
/// constants and segment table hashed here.
fn payload(h: &mut Fnv, k: &TileKernel<f64>) {
    let f64s = |h: &mut Fnv, v: &[f64]| h.array(v.iter().map(|x| x.to_bits()));
    let u64s = |h: &mut Fnv, v: &[u64]| h.array(v.iter().copied());
    let usizes = |h: &mut Fnv, v: &[usize]| h.array(v.iter().map(|&x| x as u64));
    h.word(k.kind().map_or(u64::MAX, |kind| u64::from(kind.code())));
    match k {
        TileKernel::Empty => {}
        TileKernel::Csr(t) => {
            u64s(h, &t.row_ids);
            usizes(h, &t.row_ptr);
            h.array(t.by_len.iter().map(|&s| u64::from(s)));
            h.array(t.cols.iter().map(|&c| u64::from(c)));
            f64s(h, &t.vals);
            h.array(t.by_row.iter().map(|&s| u64::from(s)));
        }
        TileKernel::Dia(t) => {
            h.word(t.row_lo);
            h.word(t.nrows as u64);
            h.array(t.offsets.iter().map(|&o| o as u64));
            usizes(h, &t.run_ptr);
            let ranges = |h: &mut Fnv, v: &[(u32, u32)]| {
                h.array(v.iter().map(|&(lo, hi)| u64::from(lo) << 32 | u64::from(hi)))
            };
            ranges(h, &t.runs);
            // A constant as its bits, a dense column as its start,
            // each behind a tag so neither reads as the other.
            h.word(t.coefs.len() as u64);
            for coef in &t.coefs {
                match *coef {
                    DiaCoef::Const(c) => [0, c.to_bits()],
                    DiaCoef::Dense(start) => [1, start as u64],
                }
                .into_iter()
                .for_each(|w| h.word(w));
            }
            f64s(h, &t.vals);
            ranges(h, &t.seg_rows);
            usizes(h, &t.seg_ptr);
            h.array(t.seg_diags.iter().map(|&d| u64::from(d)));
        }
        TileKernel::Ell(t) => {
            u64s(h, &t.row_ids);
            h.word(t.width as u64);
            h.array(t.row_len.iter().map(|&l| u64::from(l)));
            u64s(h, &t.cols);
            f64s(h, &t.vals);
        }
        TileKernel::Bcsr(t) => {
            h.word(t.bs as u64);
            u64s(h, &t.brow_ids);
            usizes(h, &t.bptr);
            u64s(h, &t.bcols);
            f64s(h, &t.vals);
        }
        TileKernel::Stencil(_) => unreachable!("assembled triplets never lower to a stencil"),
    }
}

/// What is pinned per tile.
#[derive(PartialEq, Eq)]
struct Pin {
    kind: &'static str,
    nnz: usize,
    value_bytes: usize,
    key: [u8; 5],
    out_runs: usize,
    in_runs: usize,
    footprint_fnv: u64,
    auto_fnv: u64,
    forced_fnv: u64,
}

/// One table row, as the source spells it.
#[allow(clippy::too_many_arguments)]
const fn pin(
    kind: &'static str,
    nnz: usize,
    value_bytes: usize,
    key: [u8; 5],
    out_runs: usize,
    in_runs: usize,
    footprint_fnv: u64,
    auto_fnv: u64,
    forced_fnv: u64,
) -> Pin {
    Pin {
        kind,
        nnz,
        value_bytes,
        key,
        out_runs,
        in_runs,
        footprint_fnv,
        auto_fnv,
        forced_fnv,
    }
}

impl std::fmt::Debug for Pin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pin({:?}, {}, {}, {:?}, {}, {}, {:#018x}, {:#018x}, {:#018x}),",
            self.kind,
            self.nnz,
            self.value_bytes,
            self.key,
            self.out_runs,
            self.in_runs,
            self.footprint_fnv,
            self.auto_fnv,
            self.forced_fnv
        )
    }
}

fn pins(m: &dyn SparseMatrix<f64>, pieces: usize) -> Vec<Pin> {
    let part = Partition::equal_blocks(m.range_space().size(), pieces);
    let tiles = compute_tiles(m, &part, &part, 0, 0);
    assert_eq!(tiles.len(), pieces);
    let lowered = |choice| {
        let mut out = Vec::new();
        lower_tiles(m, &tiles, choice, &mut |t, kernel, key| {
            assert_eq!(kernel.nnz() as u64, t.nnz);
            out.push((kernel, key));
        });
        assert_eq!(out.len(), pieces);
        out
    };
    let forced = [
        KernelKind::Csr,
        KernelKind::Dia,
        KernelKind::Ell,
        KernelKind::Bcsr,
    ]
    .map(|kind| lowered(KernelChoice::Force(kind)));
    tiles
        .iter()
        .zip(lowered(KernelChoice::Auto))
        .enumerate()
        .map(|(n, (t, (kernel, key)))| {
            let mut footprint = Fnv::new();
            footprint.runs(&t.kernel_piece);
            footprint.runs(&t.out_subset);
            footprint.runs(&t.in_union);
            for (color, ghost) in &t.in_by_color {
                footprint.word(*color as u64);
                footprint.runs(ghost);
            }
            let mut auto = Fnv::new();
            payload(&mut auto, &kernel);
            let mut forced_fnv = Fnv::new();
            for kind in &forced {
                payload(&mut forced_fnv, &kind[n].0);
            }
            Pin {
                kind: kernel.kind().expect("no empty tile").name(),
                nnz: kernel.nnz(),
                value_bytes: kernel.value_bytes(),
                key: key.to_bytes(),
                out_runs: t.out_subset.runs().len(),
                in_runs: t.in_union.runs().len(),
                footprint_fnv: footprint.0,
                auto_fnv: auto.0,
                forced_fnv: forced_fnv.0,
            }
        })
        .collect()
}

/// The matrix of `tile.rs::seeded_random_scatter_selects_csr`:
/// 1..=16 entries per row at seeded random columns, no repeats.
fn scatter(n: u64) -> Csr<f64> {
    let mut next = kdr_sparse::triples::xorshift(0x9e37_79b9_7f4a_7c15);
    let mut coords = Vec::new();
    for i in 0..n {
        for _ in 0..1 + next() % 16 {
            coords.push((i, next() % n));
        }
    }
    coords.sort_unstable();
    coords.dedup();
    let entries = coords
        .into_iter()
        .map(|(i, j)| (i, j, 1.0 + (next() % 8) as f64 * 0.25))
        .collect();
    Csr::from_triples(Triples::from_entries(n, n, entries))
}

fn check(name: &str, got: Vec<Pin>, want: &[Pin]) {
    let table: String = got.iter().map(|p| format!("    {p:?}\n")).collect();
    assert!(
        got == want,
        "{name}: registration result moved; it is now\n{table}"
    );
}

#[test]
fn lap3d27_in_four_pieces_registers_as_at_d548998() {
    let m: Csr<f64> = Stencil::lap3d27(12, 12, 12).to_csr();
    check("lap3d27 12^3 / 4", pins(&m, 4), &LAP3D27_PINS);
}

#[test]
fn seeded_scatter_in_eight_pieces_registers_as_at_d548998() {
    check(
        "scatter 1024 / 8",
        pins(&scatter(1 << 10), 8),
        &SCATTER_PINS,
    );
}

// One row per tile, as a failure prints them.
#[rustfmt::skip]
const LAP3D27_PINS: [Pin; 4] = [
    pin("dia", 9248, 216, [14, 5, 3, 0, 0], 1, 1, 0x39688f7fb9a918c9, 0xa796c8030bd72a90, 0x27b40dea767f26b9),
    pin("dia", 10404, 216, [14, 5, 3, 0, 0], 1, 1, 0x6ef5239f0a94c504, 0x073ad010c4a12b3e, 0x20067d587f1a852b),
    pin("dia", 10404, 216, [14, 5, 3, 0, 0], 1, 1, 0xfc06255977855f2c, 0x68f369ba3a9305c8, 0xc585bc44b5323676),
    pin("dia", 9248, 216, [14, 5, 3, 0, 0], 1, 1, 0x2cd47d18710adf7b, 0x942c766ba38f21fe, 0xe8abe19e97c27324),
];

#[rustfmt::skip]
const SCATTER_PINS: [Pin; 8] = [
    pin("csr", 1012, 8096, [10, 10, 3, 0, 0], 1, 247, 0x04652c3815b5b571, 0xc696436d3f052978, 0x72c70f846ebfb454),
    pin("csr", 1036, 8288, [11, 10, 3, 0, 0], 1, 234, 0x6f945683fbbde570, 0x23eda5e39899e0ce, 0xc0eb1da434054b62),
    pin("csr", 1052, 8416, [11, 10, 3, 0, 0], 1, 243, 0xe23fe0dbb83ca6da, 0xac0f238c4118afbb, 0x874afa296f1d6ce5),
    pin("csr", 1103, 8824, [11, 10, 3, 0, 0], 1, 232, 0x31639c669295809c, 0x8584c2b478c09927, 0xae64a5e68c0a6745),
    pin("csr", 1104, 8832, [11, 10, 3, 0, 0], 1, 231, 0x4ed745e1a33a7e2e, 0x650c9382e1941896, 0x7d675d2c9616401f),
    pin("csr", 1139, 9112, [11, 10, 3, 0, 0], 1, 242, 0xd5394d4997e1d3c7, 0x26e43a44f95f6ea3, 0x322d6e8aa5170a33),
    pin("csr", 1049, 8392, [11, 10, 3, 0, 0], 1, 223, 0x528e6998ba2a811d, 0x1ab5e29e35596a98, 0xa67f3fad75ddf95e),
    pin("csr", 937, 7496, [10, 10, 3, 0, 0], 1, 260, 0x4b9d474f27f78fce, 0xde70e0ba2064deda, 0x0676aa33f896b668),
];
