//! Format-specialized tile kernels and structure-driven lowering.
//!
//! Co-partitioning (the K/D/R machinery) is format-independent, but
//! *execution* should not be: a banded tile wants its diagonals
//! addressed by offset — no column indices, gather-free stride-1
//! loads, a diagonal of one repeated value held once — a
//! block-structured tile wants register-blocked dense micro-kernels,
//! and a tile with uniform row lengths wants ELL-style padded lanes.
//! This module is the lowering stage between the two worlds. An
//! execution backend reads each tile's entries (in component-local
//! coordinates) where its format stores them, or gathers them into a
//! [`TileRows`], and hands them to [`TileKernel::lower_rows`]; the
//! structure analysis in [`TileStructure`] picks the best member of a
//! small kernel family — or the caller forces one via [`KernelChoice`]
//! — and the returned payload executes `y += A x` / `y += Aᵀ x`
//! through the [`VecIn`]/[`VecOut`] accessor traits, so the same
//! kernels run over plain slices (tests, benchmarks) and over runtime
//! buffer views.
//!
//! # One canonical order, one walk
//!
//! Lowering reads the *canonical* tile: rows ascending, each row's
//! entries by column (stable in input order for duplicates), through a
//! [`TileView`] — the rows that hold entries and where each lies, over
//! columns and values borrowed where they are stored. A CSR matrix whose
//! rows ascend lends its own arrays, so its tiles are never copied on
//! the way to their payloads; any other format's entries are gathered
//! into a [`TileRows`], which holds the canonical arrays while its input
//! stays in order and is sorted, once, only if it does not. One walk
//! over the view then gives everything but the payload: row lengths,
//! duplicates, the distinct diagonal offsets marked on a bitmap over the
//! offset span, and — when a band may be chosen — the band's segments,
//! maximal runs of consecutive rows with the same offsets, with the
//! diagonals whose values change inside one. A row that continues a
//! segment is compared with the row before it and nothing else. Dense-
//! block coverage is read off the aligned row groups and their shared
//! column list (no hashing, first failure exits). The walk stops
//! following the band once the offsets it has marked could not fit the
//! DIA lowering's memory guard over the row span: past that point the
//! tile lowers to CSR whatever else it finds. The chosen layout then
//! copies what it keeps: the CSR payload its rows by entry count, each
//! run of [`CSR_GROUP`] rows of one length slot-major (a counting sort
//! over the row lengths, then one gather per array), ELL its padded
//! rows, BCSR its blocks, and DIA one group per segment into its tables,
//! plus a dense column for each diagonal that is not one value. No
//! lowering re-sorts, searches per entry, re-scans for the row span or
//! re-counts blocks.
//!
//! # Bitwise-reproducibility contract
//!
//! Every kernel in the family accumulates each output element's
//! contributions in **exactly the same order** as the CSR reference
//! kernel: ascending column within a row for the forward product, and
//! ascending row per output column for the transpose. Only the order
//! *between* rows of the forward product is free, because rows write
//! disjoint outputs: the CSR payload runs its rows by length, eight of
//! one length in lockstep, DIA by *passes* — runs of rows folded
//! together with one diagonal set, the rows inside a run that hold another
//! set (a grid line's first and last) folded as their own chains and
//! stored over what the loop wrote there — and each row's chain is the
//! same. Padding slots
//! introduced by a layout (DIA diagonal gaps, ELL lane tails) are
//! skipped *structurally* — never by multiplying an explicit zero,
//! which could flip a `-0.0` partial sum to `+0.0`. Lowering falls
//! back to CSR whenever a specialized layout cannot honor the
//! contract (duplicate coordinates, imperfect blocks, excessive
//! padding). Property tests in `tests/kernel_prop.rs` enforce this for
//! every kind, both directions, and degenerate shapes.
//!
//! **One exception: the forward product of a box-stencil band.** A
//! [`DiaTile`] whose band is a 27-point box of two constants (the
//! lap3d27 operator, `(c₀ − c₁)·I + c₁·T⊗T⊗T`; see [`BoxStencil`])
//! sums its box first and multiplies once, so its rows are not the CSR
//! chain. What holds for those rows instead:
//!
//! * each row `r` is `c₁.mul_add(z, (c₀ − c₁).mul_add(x[r], y[r]))`,
//!   `z` its box summed one axis at a time — the `x`-steps (planes) of
//!   each of its (line, row) neighbours, then those sums over its
//!   `y`-steps (lines), then those over its `z`-steps (rows) — each
//!   sum left to right from the lowest step, a step the grid's faces
//!   clip left out. The product computes each axis as one sweep over a
//!   window of a grid plane ([`BOX_WINDOW`]), in exactly that order;
//! * so each row's bits are a function of the operator, `x` and its
//!   `y` alone — the same in two runs, on any number of workers,
//!   whichever window and whichever tile (of any row range, mid-line
//!   cuts included) computes the row, as long as that tile is a
//!   box-stencil band, and from `+0` the same as over a fill of `+0`;
//! * each entry is within [`BOX_STENCIL_EPS_BOUND`]` · ε · (|y₀| +
//!   Σⱼ |aᵢⱼ| |xⱼ|)` of the CSR chain, barring overflow and underflow;
//! * a non-finite `xⱼ` makes exactly the rows non-finite that the CSR
//!   chain makes non-finite.
//!
//! Every other tile, and the transpose of a box band, is bitwise the
//! CSR chain as above. `KernelChoice::Force(KernelKind::Csr)` is the
//! exact-bits override for an operator that needs them.

use std::ops::Range;

use kdr_index::IntervalSet;

use crate::scalar::{IndexInt, Scalar};

/// The kernel family a tile can be lowered into.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum KernelKind {
    /// Compressed sparse rows, stored by entry count so that rows of
    /// one length run back to back, eight of them at a time side by
    /// side (slot-major, `u32` columns; see [`CsrTile`]), with an index
    /// that lists them by row for the transpose; handles any structure
    /// (including duplicate coordinates) and is the reference for the
    /// bitwise contract.
    Csr,
    /// Banded layout addressed by diagonal offset: a diagonal whose
    /// values are all the same bits holds that value once, any other a
    /// dense column; the forward product runs passes of rows with the
    /// accumulators in registers (a pass of five constants as one loop,
    /// its diagonals bound once) and writes each row once; the transpose walks
    /// per-diagonal valid-row runs. Stride-1, gather-free loads either
    /// way.
    Dia,
    /// Padded row-major lanes (ELLPACK) with per-row entry counts;
    /// uniform trip counts and a dense layout.
    Ell,
    /// Register-blocked compressed block rows over fully dense
    /// `b × b` blocks; the block's input slice is loaded once per
    /// block and reused across its rows.
    Bcsr,
    /// Matrix-free stencil tile: the banded layout with every diagonal
    /// a constant, built from grid geometry alone and run by the `Dia`
    /// kernel — nothing assembled, no value array (see
    /// [`crate::matfree::StencilTile`]). Only a
    /// [`crate::StencilOperator`]'s own tiles lower to it
    /// ([`crate::SparseMatrix::lower_tile`]); lowering assembled
    /// triplets with `Force(Stencil)` falls back to CSR, so assembled
    /// input is never silently reinterpreted as a stencil.
    Stencil,
}

impl KernelKind {
    /// Short lower-case name, used for task names and metrics keys.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Csr => "csr",
            KernelKind::Dia => "dia",
            KernelKind::Ell => "ell",
            KernelKind::Bcsr => "bcsr",
            KernelKind::Stencil => "stencil",
        }
    }

    /// All kinds, in lowering-preference order. `Stencil` comes
    /// first: it beats every assembled layout when available, but
    /// only a stencil operator's own tiles can take it.
    pub const ALL: [KernelKind; 5] = [
        KernelKind::Stencil,
        KernelKind::Bcsr,
        KernelKind::Dia,
        KernelKind::Ell,
        KernelKind::Csr,
    ];

    /// Stable single-byte wire code, used by the durable store.
    /// Codes are append-only: existing assignments never change.
    pub fn code(self) -> u8 {
        match self {
            KernelKind::Csr => 0,
            KernelKind::Dia => 1,
            KernelKind::Ell => 2,
            KernelKind::Bcsr => 3,
            KernelKind::Stencil => 4,
        }
    }

    /// Inverse of [`KernelKind::code`]; `None` for unknown codes
    /// (a store written by a future version).
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => KernelKind::Csr,
            1 => KernelKind::Dia,
            2 => KernelKind::Ell,
            3 => KernelKind::Bcsr,
            4 => KernelKind::Stencil,
            _ => return None,
        })
    }

    /// Static name of the SpMV task that runs this kernel:
    /// `spmv_[t_]<kind>[_z]`. The kind is in the name so metrics can
    /// count specialized-kernel launches; transpose and fused-zero
    /// are because both change what the task body does and must be
    /// part of a traced step's shape signature.
    pub fn task_name(self, transpose: bool, zero: bool) -> &'static str {
        TASK_NAMES[self.code() as usize][2 * usize::from(transpose) + usize::from(zero)]
    }
}

/// SpMV task names, indexed `[code()][2·transpose + zero]`.
const TASK_NAMES: [[&str; 4]; 5] = [
    ["spmv_csr", "spmv_csr_z", "spmv_t_csr", "spmv_t_csr_z"],
    ["spmv_dia", "spmv_dia_z", "spmv_t_dia", "spmv_t_dia_z"],
    ["spmv_ell", "spmv_ell_z", "spmv_t_ell", "spmv_t_ell_z"],
    ["spmv_bcsr", "spmv_bcsr_z", "spmv_t_bcsr", "spmv_t_bcsr_z"],
    ["spmv_stencil", "spmv_stencil_z", "spmv_t_stencil", "spmv_t_stencil_z"],
];

/// How a tile chooses its kernel at lowering time.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum KernelChoice {
    /// Let the structure analysis pick (the default).
    #[default]
    Auto,
    /// Use the given kind when the tile is representable in it;
    /// tiles that would violate the bitwise contract (duplicates,
    /// imperfect blocks) or blow up memory fall back to CSR.
    Force(KernelKind),
}

/// Block sizes the BCSR lowering tries, largest first.
const BCSR_BLOCK_SIZES: [usize; 3] = [8, 4, 2];

/// DIA is rejected when the padded diagonal storage — were every
/// diagonal dense — would exceed this multiple of the actual entry
/// count (guards `Force(Dia)` on unstructured tiles).
const DIA_MAX_EXPANSION: usize = 16;

/// Whether a band of `diags` diagonals over `row_span` rows stays
/// within [`DIA_MAX_EXPANSION`] of `nnz` entries (plus a little): the
/// DIA lowering's memory guard, and where the structure walk stops
/// following the band.
fn dia_fits(diags: usize, row_span: usize, nnz: usize) -> bool {
    diags
        .checked_mul(row_span)
        .is_some_and(|slots| slots <= DIA_MAX_EXPANSION * nnz + 1024)
}

/// Auto-selection: maximum distinct diagonals for DIA.
const AUTO_DIA_MAX_DIAGS: usize = 64;

/// Auto-selection: minimum fill of the diagonal-major storage.
const AUTO_DIA_MIN_FILL: f64 = 0.5;

/// Auto-selection: minimum average entries per diagonal (rejects
/// degenerate one-entry diagonals from near-random tiles).
const AUTO_DIA_MIN_DIAG_LEN: f64 = 4.0;

/// Auto-selection: minimum fill of the padded ELL lanes.
const AUTO_ELL_MIN_FILL: f64 = 0.8;

/// Read access to a conceptual `T`-vector (the SpMV input side).
///
/// Implemented for slices here and for runtime buffer views by the
/// execution backend, so one monomorphized kernel serves both.
pub trait VecIn<T> {
    /// Element `i`.
    fn load(&self, i: usize) -> T;

    /// Borrow the contiguous elements `[lo, lo + n)` as a slice, if
    /// the backing storage is contiguous. Kernels that take blocks of
    /// consecutive elements (the banded forward product, hence every
    /// stencil tile) use this to run over real slices — the compiler
    /// can then elide per-element bounds checks and vectorize — and
    /// fall back to [`VecIn::load`] when it returns `None`. The default
    /// is `None`; the values observed must match `load` exactly.
    #[inline(always)]
    fn range(&self, _lo: usize, _n: usize) -> Option<&[T]> {
        None
    }
}

/// Read-write access to a conceptual `T`-vector (the SpMV output
/// side). Kernels only ever read-modify-write their declared rows.
pub trait VecOut<T> {
    /// Element `i`.
    fn load(&self, i: usize) -> T;
    /// Overwrite element `i`.
    fn store(&mut self, i: usize, v: T);

    /// Borrow the contiguous elements `[lo, lo + n)` as a mutable
    /// slice, if the backing storage is contiguous — the write-side
    /// counterpart of [`VecIn::range`], with the same contract
    /// relative to [`VecOut::load`]/[`VecOut::store`].
    #[inline(always)]
    fn range_mut(&mut self, _lo: usize, _n: usize) -> Option<&mut [T]> {
        None
    }
}

impl<T: Scalar> VecIn<T> for &[T] {
    #[inline(always)]
    fn load(&self, i: usize) -> T {
        self[i]
    }
    #[inline(always)]
    fn range(&self, lo: usize, n: usize) -> Option<&[T]> {
        Some(&self[lo..lo + n])
    }
}

impl<T: Scalar> VecOut<T> for &mut [T] {
    #[inline(always)]
    fn load(&self, i: usize) -> T {
        self[i]
    }
    #[inline(always)]
    fn store(&mut self, i: usize, v: T) {
        self[i] = v;
    }
    #[inline(always)]
    fn range_mut(&mut self, lo: usize, n: usize) -> Option<&mut [T]> {
        Some(&mut self[lo..lo + n])
    }
}

/// Structural summary of one tile's triplets, the input to kernel
/// auto-selection. All coordinates are component-local.
#[derive(Clone, Debug, Default)]
pub struct TileStructure {
    /// Stored entries (including explicit zeros).
    pub nnz: usize,
    /// `max row − min row + 1` (0 when empty).
    pub row_span: usize,
    /// Rows that hold at least one entry.
    pub nonempty_rows: usize,
    /// Distinct `col − row` diagonals.
    pub diag_count: usize,
    /// Longest row (entry count).
    pub max_row_len: usize,
    /// Population variance of the per-nonempty-row entry counts.
    pub row_len_variance: f64,
    /// Whether any `(row, col)` coordinate appears more than once.
    pub has_duplicates: bool,
    /// Largest block size in `{8, 4, 2}` for which every touched
    /// grid-aligned block is fully dense; `None` otherwise.
    pub dense_block: Option<usize>,
}

impl TileStructure {
    /// Fill ratio of the diagonal-major DIA storage
    /// (`nnz / (diag_count · row_span)`); 0 when empty.
    pub fn dia_fill(&self) -> f64 {
        let slots = self.diag_count * self.row_span;
        if slots == 0 {
            0.0
        } else {
            self.nnz as f64 / slots as f64
        }
    }

    /// Fill ratio of the padded ELL lanes
    /// (`nnz / (nonempty_rows · max_row_len)`); 0 when empty.
    pub fn ell_fill(&self) -> f64 {
        let slots = self.nonempty_rows * self.max_row_len;
        if slots == 0 {
            0.0
        } else {
            self.nnz as f64 / slots as f64
        }
    }

    /// Analyze raw triplets (any order).
    pub fn analyze<T>(rows: &[u64], cols: &[u64], _vals: &[T]) -> Self {
        // Structure is a property of the coordinates alone.
        let entries: TileRows<()> = rows.iter().zip(cols).map(|(&i, &j)| (i, j, ())).collect();
        let canon = entries.into_canonical();
        Self::scan(&TileView::of_tile(&canon), None::<fn((), ()) -> bool>).structure
    }

    /// Summarize a canonical view in one walk over its entries, after a
    /// pass over its rows for their lengths and offset bounds: the
    /// structure, the distinct diagonal offsets (`col − row`,
    /// ascending) and, given the test of two values for the same bits,
    /// the band's rows ([`BandRows`]) — all the DIA lowering reads but
    /// the values of a diagonal that is not constant.
    fn scan<T: Copy, C: IndexInt>(
        view: &TileView<'_, T, C>,
        same: Option<impl Fn(T, T) -> bool>,
    ) -> Scan {
        let (nnz, nonempty_rows) = (view.nnz, view.row_ids.len());
        if nnz == 0 {
            return Scan::default();
        }
        let offset = |row: u64, c: C| c.to_u64() as i64 - row as i64;
        // Columns ascend within a row, so its offsets lie between those
        // of its first and its last entry.
        let (mut lo, mut hi, mut max_row_len) = (i64::MAX, i64::MIN, 0usize);
        for (row, span) in view.row_spans() {
            lo = lo.min(offset(row, view.cols[span.start]));
            hi = hi.max(offset(row, view.cols[span.end - 1]));
            max_row_len = max_row_len.max(span.len());
        }
        let words = (hi - lo) as u64 / 64 + 1;
        let mut offsets = if words > nnz as u64 + OFFSET_BITMAP_SLACK_WORDS {
            Offsets::Listed(Vec::with_capacity(nnz))
        } else {
            Offsets::Marked(vec![0u64; words as usize])
        };
        let row_span = (view.row_ids[nonempty_rows - 1] - view.row_ids[0] + 1) as usize;
        let mean = nnz as f64 / nonempty_rows as f64;
        let mut sq_dev = 0.0f64;
        let mut has_duplicates = false;
        // Distinct offsets marked so far. Once a band of that many
        // diagonals over the row span cannot fit (`dia_fits`), more can
        // only make it larger: the tile lowers to CSR whatever else the
        // walk finds, and the band stops being followed.
        let mut marked = 0usize;
        let mut band = same.as_ref().map(|_| BandRows::default());
        // Per position of the open segment's rows: whether its value
        // has changed between two of them.
        let mut vary: Vec<bool> = Vec::new();
        let mut last: Option<(u64, Range<usize>)> = None;
        for (n, (row, span)) in view.row_spans().enumerate() {
            let cols = &view.cols[span.clone()];
            debug_assert!(cols.is_sorted(), "row {row} of a canonical view descends");
            sq_dev += (cols.len() as f64 - mean) * (cols.len() as f64 - mean);
            // Followed, a row joins the open segment when it directly
            // follows the segment's last row with the same offsets —
            // every column one further on — and then holds no offset or
            // repeat that row did not: only its values are read.
            let joined = match (&mut band, &same, &last) {
                (Some(band), Some(same), Some((at, was)))
                    if at + 1 == row
                        && was.len() == cols.len()
                        && view.cols[was.clone()]
                            .iter()
                            .zip(cols)
                            .all(|(&a, &b)| b.to_u64() == a.to_u64() + 1) =>
                {
                    let pairs = view.vals[was.clone()].iter().zip(&view.vals[span.clone()]);
                    for ((&a, &b), changed) in pairs.zip(&mut vary) {
                        *changed |= !same(a, b);
                    }
                    band.segments.last_mut().expect("a segment is open").1 += 1;
                    true
                }
                _ => false,
            };
            if !joined {
                has_duplicates |= cols.windows(2).any(|w| w[0] == w[1]);
                match &mut offsets {
                    Offsets::Marked(marks) => {
                        for &c in cols {
                            let bit = (offset(row, c) - lo) as usize;
                            let (word, mask) = (&mut marks[bit / 64], 1 << (bit % 64));
                            marked += usize::from(*word & mask == 0);
                            *word |= mask;
                        }
                    }
                    Offsets::Listed(list) => list.extend(cols.iter().map(|&c| offset(row, c))),
                }
                if band.is_some() && !dia_fits(marked, row_span, nnz) {
                    band = None;
                }
                if let Some(band) = &mut band {
                    band.close(view, &vary);
                    vary.clear();
                    vary.resize(cols.len(), false);
                    band.segments.push((n, 1));
                }
            }
            last = Some((row, span));
        }
        if let Some(band) = &mut band {
            band.close(view, &vary);
        }
        let offsets = match offsets {
            Offsets::Marked(marks) => {
                let mut offsets = Vec::new();
                for (w, &word) in marks.iter().enumerate() {
                    let mut rest = word;
                    while rest != 0 {
                        offsets.push(lo + (w * 64) as i64 + i64::from(rest.trailing_zeros()));
                        rest &= rest - 1;
                    }
                }
                offsets
            }
            Offsets::Listed(mut list) => {
                list.sort_unstable();
                list.dedup();
                list
            }
        };

        // Dense-block coverage: largest b where every touched aligned
        // b×b block holds exactly b² (distinct) entries.
        let dense_block = if has_duplicates {
            None
        } else {
            BCSR_BLOCK_SIZES
                .iter()
                .copied()
                .find(|&bs| view.blocks_dense(bs))
        };
        let structure = TileStructure {
            nnz,
            row_span,
            nonempty_rows,
            diag_count: offsets.len(),
            max_row_len,
            row_len_variance: sq_dev / nonempty_rows as f64,
            has_duplicates,
            dense_block,
        };
        Scan {
            structure,
            offsets,
            band,
        }
    }

    /// The kernel the auto heuristic selects for this structure.
    ///
    /// Preference order: register-blocked BCSR when the tile is a
    /// union of fully dense aligned blocks; DIA when the tile is
    /// banded (few, well-filled diagonals); ELL when row lengths are
    /// uniform enough that padding stays under 25%; CSR otherwise.
    /// Tiles with duplicate coordinates always take CSR (the only
    /// layout that preserves their accumulation order).
    pub fn select(&self) -> KernelKind {
        if self.nnz == 0 || self.has_duplicates {
            return KernelKind::Csr;
        }
        if self.dense_block.is_some() {
            return KernelKind::Bcsr;
        }
        if self.diag_count <= AUTO_DIA_MAX_DIAGS
            && self.dia_fill() >= AUTO_DIA_MIN_FILL
            && self.nnz as f64 / self.diag_count as f64 >= AUTO_DIA_MIN_DIAG_LEN
        {
            return KernelKind::Dia;
        }
        if self.ell_fill() >= AUTO_ELL_MIN_FILL {
            return KernelKind::Ell;
        }
        KernelKind::Csr
    }

    /// Coarse structural signature for cost-catalogue lookup; see
    /// [`StructureKey`].
    pub fn key(&self) -> StructureKey {
        StructureKey {
            nnz_log2: log2_bucket(self.nnz as u64),
            diag_log2: log2_bucket(self.diag_count as u64),
            row_var_bucket: variance_bucket(self.row_len_variance),
            dense_block: self.dense_block.unwrap_or(0) as u8,
            stencil: 0,
        }
    }
}

/// `floor(log2(n)) + 1`, with 0 reserved for `n == 0` — buckets a
/// count into ~64 exponentially-spaced bins so structurally similar
/// tiles share catalogue entries.
fn log2_bucket(n: u64) -> u8 {
    (64 - n.leading_zeros()) as u8
}

/// Buckets row-length variance into {0: uniform, 1: mild (< 1),
/// 2: moderate (< 16), 3: wild}.
fn variance_bucket(var: f64) -> u8 {
    if var == 0.0 {
        0
    } else if var < 1.0 {
        1
    } else if var < 16.0 {
        2
    } else {
        3
    }
}

/// Coarse, bucketed signature of an operator tile's structure — the
/// catalogue key half contributed by kdr-sparse. Two tiles with the
/// same key are expected to have similar per-apply cost for a given
/// kernel kind, so observations generalize across tiles and sessions.
///
/// Buckets are deliberately coarse (log2 counts, a four-way variance
/// class) to keep the catalogue small and its hit rate high; exact
/// costs are refined online per key. `stencil` is the
/// [`crate::stencil::StencilKind`] wire code plus one for
/// matrix-free registrations and 0 for assembled tiles.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct StructureKey {
    /// log2 bucket of the stored entry count.
    pub nnz_log2: u8,
    /// log2 bucket of the distinct-diagonal count.
    pub diag_log2: u8,
    /// Row-length-variance class (0 uniform … 3 wild).
    pub row_var_bucket: u8,
    /// Dense-block edge (8/4/2) or 0 when not block-structured.
    pub dense_block: u8,
    /// Stencil-kind code + 1 for matrix-free tiles; 0 for assembled.
    pub stencil: u8,
}

impl StructureKey {
    /// Key for a matrix-free stencil tile: `points` is the stencil's
    /// points-per-row (3/5/7/27), `rows` the tile's row count, and
    /// `stencil_code` the [`crate::stencil::StencilKind`] wire code.
    pub fn for_stencil(stencil_code: u8, points: usize, rows: u64) -> Self {
        StructureKey {
            nnz_log2: log2_bucket(rows.saturating_mul(points as u64)),
            diag_log2: log2_bucket(points as u64),
            row_var_bucket: 0,
            dense_block: 0,
            stencil: stencil_code + 1,
        }
    }

    /// Fixed-width byte encoding for the durable store.
    pub fn to_bytes(self) -> [u8; 5] {
        [
            self.nnz_log2,
            self.diag_log2,
            self.row_var_bucket,
            self.dense_block,
            self.stencil,
        ]
    }

    /// Inverse of [`StructureKey::to_bytes`].
    pub fn from_bytes(b: [u8; 5]) -> Self {
        StructureKey {
            nnz_log2: b[0],
            diag_log2: b[1],
            row_var_bucket: b[2],
            dense_block: b[3],
            stencil: b[4],
        }
    }
}

/// Rows of one length that a [`CsrTile`] runs side by side: the `C` of
/// SELL-C-σ. Eight `f64` lanes are one AVX-512 vector, and eight
/// independent `mul_add` chains keep an FMA unit busy where one chain
/// of a 2–9 entry row waits on each add. A layout constant, not a
/// setting.
pub const CSR_GROUP: usize = 8;

/// CSR payload (the reference kernel): the rows that hold entries,
/// stored by entry count, rows of equal length by ascending row id
/// (SELL-C-σ's σ-sort), every run of [`CSR_GROUP`] rows of one length
/// a *group* stored slot-major (its `C`).
///
/// Stored rows `by_len[l]..by_len[l + 1]` hold `l` entries each. Of
/// those, the first `CSR_GROUP · ⌊rows / CSR_GROUP⌋` form groups; the
/// rest, fewer than [`CSR_GROUP`], are rows of their own. Stored row `r`
/// owns `row_ptr[r + 1] − row_ptr[r]` entries from `row_ptr[r]` on, as
/// in plain CSR, except inside a group: there the span of its rows is
/// shared, and entry `s` of the group's `k`-th row is at
/// `row_ptr[g] + CSR_GROUP · s + k`, where `g` is the group's first row.
/// A row's entries come by ascending column either way (stable for
/// duplicates), so the forward product runs a group as eight chains in
/// lockstep, each exactly the row's chain, and multiplies no padding.
/// `by_row` lists the stored rows by ascending row id for the
/// transpose.
#[derive(Clone, Debug)]
pub struct CsrTile<T> {
    /// Component-local row coordinates of the stored rows, nonempty
    /// rows only, in stored order.
    pub row_ids: Vec<u64>,
    /// Entry offsets per stored row (`row_ids.len() + 1`); see above
    /// for a row inside a group.
    pub row_ptr: Vec<usize>,
    /// The first stored row of each row length (`max_row_len + 2`
    /// entries, the last the stored-row count).
    pub by_len: Vec<u32>,
    /// Component-local column coordinates, in the layout above
    /// (lowering asserts that they fit `u32`).
    pub cols: Vec<u32>,
    /// Entry values, aligned with `cols`.
    pub vals: Vec<T>,
    /// The stored index of the `k`-th lowest row: `row_ids[by_row[k]]`
    /// ascends with `k`. The transpose walks rows in this order.
    pub by_row: Vec<u32>,
}

/// A tile in the canonical order of the kernel family — rows
/// ascending, each row's entries by column — as a [`TileRows`] gathers
/// it: what lowering reads through [`TileView::of_tile`] when a format
/// does not lend its rows.
#[derive(Debug)]
struct CanonicalTile<T> {
    /// The rows that hold entries, ascending.
    row_ids: Vec<u64>,
    /// Entry ranges per row (`row_ids.len() + 1` offsets).
    row_ptr: Vec<usize>,
    cols: Vec<u64>,
    vals: Vec<T>,
}

/// Where one diagonal of a [`DiaTile`] keeps its coefficients.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum DiaCoef<T> {
    /// Every stored entry of the diagonal has these bits (by the
    /// lowering's `same_bits`); the value is held once.
    Const(T),
    /// The diagonal's `nrows` values start at this index of
    /// [`DiaTile::vals`] (`vals[start + local_row]`).
    Dense(usize),
}

/// Banded payload: per diagonal, either the one value all its entries
/// share or a dense column of `nrows` values, and two views of where
/// entries are — `runs`, per diagonal the local-row ranges holding
/// entries (the transpose product walks these), and the *segment
/// table*, the row span cut into maximal row ranges over which the set
/// of present diagonals is fixed (the forward product's passes are
/// derived from it when the band is built). Either way padding is
/// skipped structurally.
#[derive(Clone, Debug)]
pub struct DiaTile<T> {
    /// First (lowest) row of the tile's row span.
    pub row_lo: u64,
    /// Rows in the span (extent of a dense diagonal).
    pub nrows: usize,
    /// Stored diagonal offsets (`col − row`), ascending.
    pub offsets: Vec<i64>,
    /// `runs[run_ptr[d]..run_ptr[d+1]]` are diagonal `d`'s valid
    /// local-row ranges `(lo, hi)`, ascending.
    pub run_ptr: Vec<usize>,
    /// Valid local-row ranges, concatenated per diagonal.
    pub runs: Vec<(u32, u32)>,
    /// Per diagonal, where its coefficients are.
    pub coefs: Vec<DiaCoef<T>>,
    /// The dense columns of the [`DiaCoef::Dense`] diagonals, `nrows`
    /// values each, zero in padding slots.
    pub vals: Vec<T>,
    /// Segment local-row ranges `(lo, hi)`, ascending and disjoint;
    /// together they are the rows holding entries.
    pub seg_rows: Vec<(u32, u32)>,
    /// `seg_diags[seg_ptr[s]..seg_ptr[s+1]]` are the diagonals
    /// (indices into `offsets`, ascending) present in every row of
    /// segment `s`.
    pub seg_ptr: Vec<usize>,
    /// Present diagonals, concatenated per segment. A (segment,
    /// diagonal) pair stands for at least one entry, so this is never
    /// longer than the tile has entries.
    pub seg_diags: Vec<u32>,
    /// Set when the band is a box stencil, which its forward product
    /// then runs sum-factored; decided once, when the band is built.
    pub box_stencil: Option<BoxStencil<T>>,
    /// The forward plan of any other band: its segments as [`Pass`]es,
    /// ascending. Empty for a box stencil.
    passes: Vec<Pass>,
    /// The passes' patch rows, as one-row segments (indices into
    /// `seg_rows`), pass by pass.
    patches: Vec<u32>,
}

/// A run of consecutive rows of a [`DiaTile`] that its forward product
/// takes together: the segments of one diagonal set, joined across
/// the one-row segments between and around them (a grid line's first
/// and last row) whose columns under that set are all columns some
/// entry of the tile reads. Those are the pass's *patch rows*: each is
/// folded as its own chain from the `y` the pass finds, and stored
/// over what the loop wrote there.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Pass {
    /// Local rows `[lo, hi)`.
    rows: (u32, u32),
    /// The segment whose diagonals the loop folds into every row.
    set: u32,
    /// The pass's patch rows are `patches[lo..hi]`.
    patches: (u32, u32),
}

/// The diagonal count a [`Pass`] runs as one loop, when all of its
/// diagonals are constants: the 2-D five-point star, the one shape a
/// benchmark workload runs on this path. Any other pass runs the block
/// cascade (`DiaTile::cascade`).
const PASS_DIAGS: usize = 5;

/// Patch rows one [`Pass`] holds at most: the stack buffer their chains
/// wait in while the loop runs. A row past that opens the next pass.
const PASS_PATCHES: usize = 64;

/// A band that is a 27-point box stencil of two constants: the
/// diagonals are the offsets `a + b·n_z + c·plane` for `a, b, c ∈ {−1,
/// 0, 1}`, the centre holds `c0` and every other diagonal the same bits
/// `c1`, and each row holds the product `Z × Y × X` of those steps —
/// `Z` and `Y` clipped exactly at the grid's faces (`k ∈ {0, n_z − 1}`,
/// `j ∈ {0, plane / n_z − 1}` for row `(i·plane / n_z + j)·n_z + k`),
/// `X` containing 0 and the same for every row of a plane. Such a row
/// is `(c0 − c1)·x[r] + c1·Σ x` over its box, which the forward product
/// computes an axis at a time, each axis one sweep over a window of
/// whole lines of a plane (`DiaTile::apply_box`, module docs, "One
/// exception"), and from `+0` itself when its task zeroes first
/// ([`TileKernel::apply_from_zero`]).
///
/// Detection also asks for non-zero coefficients, `|c1| ≤ |c0|` and a
/// finite `c0 − c1`: the sign of a zero product and the error bound
/// ([`BOX_STENCIL_EPS_BOUND`]) rest on them.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct BoxStencil<T> {
    /// Rows per grid line: the offset of the `±y` lines.
    pub n_z: usize,
    /// Rows per grid plane: the offset of the `±x` planes.
    pub plane: usize,
    /// The centre coefficient.
    pub c0: T,
    /// The coefficient of every off-centre diagonal.
    pub c1: T,
}

/// The per-entry bound of a box-stencil row against the CSR chain, in
/// machine epsilons `ε` of `T`: `|y_box − y_csr| ≤ K · ε · (|y₀| + Σⱼ
/// |aᵢⱼ| |xⱼ|)`. With `u = ε / 2` and `S = Σⱼ |aᵢⱼ| |xⱼ|`: a box row's
/// inputs pass through at most six additions (two per axis), the
/// centre's `c0 − c1` (at most `2|c0|`, as `|c1| ≤ |c0|`) through its own
/// rounding and the first `mul_add`, and everything through the last —
/// `13u·S + 2u·|y₀|` to first order; the CSR chain of at most 27
/// `mul_add`s is within `27u·(|y₀| + S)`. Together `40u = 20ε`, and one
/// more `ε` covers the second-order terms.
pub const BOX_STENCIL_EPS_BOUND: f64 = 21.0;

/// Rows of one grid plane the box-stencil product holds at a time: its
/// `x`-step sums and its `y`-step sums are stack arrays of this many
/// values, zeroed once per product. A window is whole lines of a plane
/// plus the line on either side, so a plane of more rows than that goes
/// in blocks of lines, and a line too long for three of it to fit goes
/// in chunks along `z`. Neither cut changes a bit (module docs, "One
/// exception"). At 1 024 `f64`s the two arrays are 16 KiB, and a block's
/// sums and its lines of `x` in three planes stay in a 48 KiB L1: a
/// 40 × 40 plane is two blocks (23 and 17 lines), a 64 × 64 plane five,
/// and lines of more than 340 rows go in chunks of 339.
pub const BOX_WINDOW: usize = 1024;

/// Grid lines one box-stencil window takes at most: their first and
/// last rows wait in a stack buffer of twice this many values while the
/// window's loop runs.
const BOX_WINDOW_LINES: usize = 64;

/// Runs of rows — one per grid plane the band holds — whose windows a
/// box-stencil product takes block by block together, so that a block's
/// lines of `x` are read from cache by the windows of the planes around
/// them.
const BOX_RUNS: usize = 16;

/// Whether two scalars are the same bits, for the types [`Scalar`]
/// covers (IEEE floats): their widening to `f64`, which is exact, has
/// the same bits — so the two zeros differ — and a NaN equals nothing,
/// itself included, which only costs a diagonal of NaNs its compression.
/// This is the test for holding a diagonal's value once: a product with
/// the same bits is the same bits, which `==` alone would not give
/// (`-0.0 == 0.0`, and `-0.0 · x` is not `0.0 · x`). It is integer
/// compares only, so the walk that asks it of every entry of a band
/// runs no division.
fn same_bits<T: Scalar>(a: T, b: T) -> bool {
    let (a, b) = (a.to_f64(), b.to_f64());
    a.to_bits() == b.to_bits() && !a.is_nan()
}

/// A [`DiaTile`] while its tables are built, by one rule: *groups* of
/// consecutive local rows holding the same diagonals arrive ascending,
/// and each either extends what directly precedes it — its diagonals'
/// last runs, the last segment — or opens the next. The assembled
/// lowering feeds it one row at a time, a matrix-free tile one stretch
/// of a grid line.
pub(crate) struct BandBuilder<T> {
    band: DiaTile<T>,
    /// Per diagonal, its runs of consecutive local rows so far.
    diag_runs: Vec<Vec<(u32, u32)>>,
}

impl<T: Scalar> BandBuilder<T> {
    /// An empty band over local rows `[0, nrows)` from `row_lo` with
    /// the given diagonal offsets, ascending.
    pub(crate) fn new(row_lo: u64, nrows: usize, offsets: Vec<i64>) -> Self {
        BandBuilder {
            diag_runs: vec![Vec::new(); offsets.len()],
            band: DiaTile {
                row_lo,
                nrows,
                // A diagonal is constant from its first entry until one
                // differs; dense columns are placed by the caller.
                coefs: vec![DiaCoef::Dense(0); offsets.len()],
                offsets,
                run_ptr: Vec::new(),
                runs: Vec::new(),
                vals: Vec::new(),
                seg_rows: Vec::new(),
                seg_ptr: Vec::new(),
                seg_diags: Vec::new(),
                box_stencil: None,
                passes: Vec::new(),
                patches: Vec::new(),
            },
        }
    }

    /// Every row of the group `rows` holds `entries`: `(offset, value)`
    /// by ascending offset, the value the same in each of the rows — or,
    /// for a diagonal whose value changes between them, the first row's,
    /// with the change noted by [`BandBuilder::varies`].
    #[inline]
    pub(crate) fn group(&mut self, rows: (u32, u32), entries: impl Iterator<Item = (i64, T)>) {
        let band = &mut self.band;
        let group_start = band.seg_diags.len();
        // The offsets ascend along the offset table: one forward walk.
        let mut d = 0usize;
        for (off, v) in entries {
            while band.offsets[d] < off {
                d += 1;
            }
            debug_assert_eq!(band.offsets[d], off);
            let runs = &mut self.diag_runs[d];
            band.coefs[d] = match band.coefs[d] {
                _ if runs.is_empty() => DiaCoef::Const(v),
                DiaCoef::Const(c) if same_bits(c, v) => DiaCoef::Const(c),
                _ => DiaCoef::Dense(0),
            };
            match runs.last_mut() {
                Some(run) if run.1 == rows.0 => run.1 = rows.1,
                _ => runs.push(rows),
            }
            band.seg_diags.push(d as u32);
        }
        // The group's diagonals are on the end of `seg_diags`: it joins
        // the last segment when it follows it directly with the same
        // list, and opens the next otherwise.
        let (before, of_group) = band.seg_diags.split_at(group_start);
        match band.seg_rows.last_mut() {
            Some(seg)
                if seg.1 == rows.0
                    && before[band.seg_ptr[band.seg_ptr.len() - 1]..] == *of_group =>
            {
                seg.1 = rows.1;
                band.seg_diags.truncate(group_start);
            }
            _ => {
                band.seg_ptr.push(group_start);
                band.seg_rows.push(rows);
            }
        }
    }

    /// The diagonal at `offset` holds entries of different values: it
    /// keeps a dense column.
    pub(crate) fn varies(&mut self, offset: i64) {
        let d = self
            .band
            .offsets
            .binary_search(&offset)
            .expect("a diagonal of the band");
        self.band.coefs[d] = DiaCoef::Dense(0);
    }

    /// The band, with no dense column placed yet: whether it is a box
    /// stencil (a band with a dense column is not) and, when it is not,
    /// its forward plan.
    pub(crate) fn finish(self) -> DiaTile<T> {
        let mut band = self.band;
        band.seg_ptr.push(band.seg_diags.len());
        for of_diag in &self.diag_runs {
            band.run_ptr.push(band.runs.len());
            band.runs.extend_from_slice(of_diag);
        }
        band.run_ptr.push(band.runs.len());
        band.box_stencil = box_stencil_of(&band);
        if band.box_stencil.is_none() {
            (band.passes, band.patches) = forward_plan(&band);
        }
        band
    }
}

/// The passes of `band` (see [`Pass`]), in one walk over its segment
/// table. A segment extends the pass that ends where it starts when it
/// holds the pass's diagonals, or — one row long, while the pass holds
/// fewer than [`PASS_PATCHES`] patch rows — when it joins the pass
/// (every column the pass's diagonals read for its row is one some
/// entry reads, so the loop's slices stay inside the tile's declared
/// footprint). A segment of more than one row that does not extend the
/// pass before it takes that pass over when the pass is a row alone
/// that joins it, so a grid line's first row joins the line after it;
/// anything else opens a pass of its own.
fn forward_plan<T: Scalar>(band: &DiaTile<T>) -> (Vec<Pass>, Vec<u32>) {
    let (mut passes, mut patches) = (Vec::<Pass>::new(), Vec::new());
    let joins = |s: usize, set: u32| {
        let (lo, hi) = band.seg_rows[s];
        let row = band.row_lo as i64 + i64::from(lo);
        let reads = |d: &u32| band.reads_column(row + band.offsets[*d as usize]);
        hi - lo == 1 && band.diags_of(set as usize).iter().all(reads)
    };
    for (s, &(lo, hi)) in band.seg_rows.iter().enumerate() {
        let same_set = |p: &Pass| band.diags_of(p.set as usize) == band.diags_of(s);
        let held = |p: &Pass| (p.patches.1 - p.patches.0) as usize;
        match passes.last_mut() {
            Some(p) if p.rows.1 == lo && same_set(p) => p.rows.1 = hi,
            Some(p) if p.rows.1 == lo && held(p) < PASS_PATCHES && joins(s, p.set) => {
                patches.push(s as u32);
                (p.rows.1, p.patches.1) = (hi, p.patches.1 + 1);
            }
            Some(p)
                if p.rows.1 == lo
                    && p.rows.0 + 1 == lo
                    && held(p) == 0
                    && hi - lo > 1
                    && joins(s - 1, s as u32) =>
            {
                patches.push(p.set);
                *p = Pass {
                    rows: (lo - 1, hi),
                    set: s as u32,
                    patches: (p.patches.0, p.patches.0 + 1),
                };
            }
            _ => {
                let at = patches.len() as u32;
                passes.push(Pass {
                    rows: (lo, hi),
                    set: s as u32,
                    patches: (at, at),
                });
            }
        }
    }
    (passes, patches)
}

/// The steps `{−1, 0, 1}` (bits 0–2) a row at coordinate `at` of a
/// grid axis of extent `n` holds: all three, clipped at the faces.
fn steps_in_grid(at: usize, n: usize) -> u8 {
    let below = if at > 0 { 0b001 } else { 0 };
    let above = if at + 1 < n { 0b100 } else { 0 };
    below | 0b010 | above
}

/// `band` as a box stencil, or `None` (see [`BoxStencil`]). Diagonal
/// `d` of a box band is step `(c, b, a) = (d/9, d/3 % 3, d % 3) − 1`:
/// its 27 offsets ascend in that order. Linear in the segment table,
/// and a band of any other diagonal count is refused at once.
fn box_stencil_of<T: Scalar>(band: &DiaTile<T>) -> Option<BoxStencil<T>> {
    let offsets = &band.offsets;
    if offsets.len() != 27 {
        return None;
    }
    let (n_z, plane) = (offsets[16], offsets[22]);
    if n_z <= 0 || plane <= 0 || plane % n_z != 0 {
        return None;
    }
    let box_offset = |d: i64| (d % 3 - 1) + (d / 3 % 3 - 1) * n_z + (d / 9 - 1) * plane;
    if (0..27).any(|d| offsets[d] != box_offset(d as i64)) {
        return None;
    }
    let (DiaCoef::Const(c0), DiaCoef::Const(c1)) = (band.coefs[13], band.coefs[0]) else {
        return None;
    };
    let mut off_centre = band.coefs.iter().enumerate().filter(|&(d, _)| d != 13);
    if off_centre.any(|(_, &c)| !matches!(c, DiaCoef::Const(v) if same_bits(v, c1))) {
        return None;
    }
    let centre_split = c0 - c1;
    let finite = |v: T| v * T::ZERO == T::ZERO;
    if c0 == T::ZERO || c1 == T::ZERO || c1.abs() > c0.abs() || !finite(centre_split) {
        return None;
    }
    // Every segment's diagonals are the product of their steps, its
    // rows clip as the grid does, and its plane's `X` is one.
    let (n_z, plane) = (n_z as usize, plane as usize);
    let n_y = plane / n_z;
    let mut plane_steps: Option<(usize, u8)> = None;
    let spans = band.seg_ptr.windows(2).map(|w| w[0]..w[1]);
    for (&(lo, hi), span) in band.seg_rows.iter().zip(spans) {
        let diags = &band.seg_diags[span];
        let (mut z, mut y, mut x) = (0u8, 0u8, 0u8);
        for &d in diags {
            z |= 1 << (d % 3);
            y |= 1 << (d / 3 % 3);
            x |= 1 << (d / 9);
        }
        let count = |m: u8| m.count_ones() as usize;
        if diags.len() != count(z) * count(y) * count(x) || x & 0b010 == 0 {
            return None;
        }
        let first = band.row_lo as usize + lo as usize;
        let (k, last_k) = (first % n_z, first % n_z + (hi - lo) as usize - 1);
        let in_one_line = last_k < n_z;
        if !in_one_line
            || steps_in_grid(k, n_z) != z
            || steps_in_grid(last_k, n_z) != z
            || steps_in_grid(first / n_z % n_y, n_y) != y
        {
            return None;
        }
        let i = first / plane;
        match plane_steps {
            Some((at, steps)) if at == i && steps != x => return None,
            _ => plane_steps = Some((i, x)),
        }
    }
    Some(BoxStencil { n_z, plane, c0, c1 })
}

/// Padded-lane (ELLPACK) payload: `width` slots per stored row,
/// row-major; slots past `row_len[r]` are padding and never read.
#[derive(Clone, Debug)]
pub struct EllTile<T> {
    /// Component-local row coordinates, ascending, nonempty rows only.
    pub row_ids: Vec<u64>,
    /// Lane width (longest row).
    pub width: usize,
    /// Valid entries per stored row.
    pub row_len: Vec<u32>,
    /// Column coordinates, `row_ids.len() · width`, ascending within
    /// each row's valid prefix (padding repeats the last valid
    /// column).
    pub cols: Vec<u64>,
    /// Values, same shape as `cols`, zero in padding slots.
    pub vals: Vec<T>,
}

/// Register-blocked BCSR payload over fully dense aligned `bs × bs`
/// blocks.
#[derive(Clone, Debug)]
pub struct BcsrTile<T> {
    /// Block edge length.
    pub bs: usize,
    /// Global block-row indices (`row / bs`), ascending, nonempty
    /// block rows only.
    pub brow_ids: Vec<u64>,
    /// Block ranges per stored block row.
    pub bptr: Vec<usize>,
    /// Global block-column indices, ascending within each block row.
    pub bcols: Vec<u64>,
    /// Block values, `bs · bs` per block, row-major within the block.
    pub vals: Vec<T>,
}

/// One tile lowered into its selected kernel payload.
#[derive(Clone, Debug)]
pub enum TileKernel<T> {
    /// No stored entries; executing it is a no-op and backends skip
    /// the task launch entirely.
    Empty,
    /// See [`CsrTile`].
    Csr(CsrTile<T>),
    /// See [`DiaTile`].
    Dia(DiaTile<T>),
    /// See [`EllTile`].
    Ell(EllTile<T>),
    /// See [`BcsrTile`].
    Bcsr(BcsrTile<T>),
    /// Matrix-free: a [`DiaTile`] of constants built from a stencil
    /// descriptor's geometry, see [`crate::matfree::StencilTile`].
    /// Never produced by [`TileKernel::lower`]; a
    /// [`crate::StencilOperator`] lowers its own tiles to it
    /// ([`crate::SparseMatrix::lower_tile`]).
    Stencil(crate::matfree::StencilTile<T>),
}

/// The structure walk marks offsets on a bitmap while the bitmap is
/// at most one word per entry plus this many; past that the bitmap
/// would be the larger array and the offsets are sorted instead.
/// A tile of an `n × n` component spans under `2n` offsets, `n / 32`
/// words, so every tile with a few entries per row marks: all of
/// `perf_ledger`'s do (lap3d27 40³ in 4 pieces: 52 words against
/// 410 k entries; the `cold_irregular` scatter matrix, `n` = 16 384:
/// at most 512, under the slack alone). Only a hyper-sparse tile of a
/// huge component sorts, and only `lowering_is_blind_to_input_order`
/// builds one.
const OFFSET_BITMAP_SLACK_WORDS: u64 = 1024;

/// The distinct diagonal offsets of a tile while the walk finds them.
enum Offsets {
    /// A bitmap over the offset span, from its lowest offset.
    Marked(Vec<u64>),
    /// Every entry's offset, sorted and deduplicated once the walk ends.
    Listed(Vec<i64>),
}

/// What one walk over a canonical view finds ([`TileStructure::scan`]).
#[derive(Default)]
struct Scan {
    structure: TileStructure,
    /// The distinct diagonal offsets, ascending.
    offsets: Vec<i64>,
    /// The band's rows, when the walk was asked to follow them.
    band: Option<BandRows>,
}

/// The rows of the band a canonical tile lowers to, as the walk finds
/// them: its *segments*, maximal runs of consecutive stored rows with
/// the same diagonal offsets, each `(first stored row, rows)`; and the
/// offsets whose value changes between two rows of one segment (a
/// change between segments is [`BandBuilder::group`]'s to see). The
/// DIA lowering hands [`BandBuilder`] one group per segment, so the
/// band's tables are built per segment, not per entry.
#[derive(Default)]
struct BandRows {
    segments: Vec<(usize, usize)>,
    varying: Vec<i64>,
}

impl BandRows {
    /// Note the offsets of the open segment whose values changed
    /// (`vary`, by position in its rows).
    fn close<T, C: IndexInt>(&mut self, view: &TileView<'_, T, C>, vary: &[bool]) {
        let Some(&(first, _)) = self.segments.last() else {
            return;
        };
        let (row, span) = view.row(first);
        for (&c, _) in view.cols[span].iter().zip(vary).filter(|&(_, &v)| v) {
            self.varying.push(c.to_u64() as i64 - row as i64);
        }
    }
}

/// One tile's entries in the canonical order of the kernel family —
/// rows ascending, each row's entries by column, equal coordinates in
/// input order — read where they lie: in a format's own arrays
/// ([`TileView::of_rows`], a CSR matrix's rows) or in a gathered
/// [`TileRows`]. The view lists the rows that hold entries and where
/// each lies; it borrows the columns, in the width they are stored in,
/// and the values. Lowering reads it in one walk plus the copy into the
/// payload, so a tile lent by its format is never copied whole on the
/// way, and one that lowers to a band of constants is not copied at all.
pub struct TileView<'a, T, C = u64> {
    /// The rows holding entries, ascending.
    row_ids: Vec<u64>,
    /// Where each of `row_ids` lies in `cols` / `vals`.
    spans: Vec<Range<usize>>,
    cols: &'a [C],
    vals: &'a [T],
    /// Entries over all the spans.
    nnz: usize,
}

impl<'a, T, C: IndexInt> TileView<'a, T, C> {
    /// The rows `rows` of a CSR-style store: row `i`'s entries are
    /// `cols[rowptr[i]..rowptr[i + 1]]`, with `vals` alike, and its
    /// columns must ascend (repeats allowed). Rows without entries are
    /// left out.
    pub fn of_rows(rows: &IntervalSet, rowptr: &[u64], cols: &'a [C], vals: &'a [T]) -> Self {
        let listed = rows.cardinality() as usize;
        let (mut row_ids, mut spans) = (Vec::with_capacity(listed), Vec::with_capacity(listed));
        let mut nnz = 0;
        for run in rows.runs() {
            for i in run.lo..run.hi {
                let span = rowptr[i as usize] as usize..rowptr[i as usize + 1] as usize;
                if !span.is_empty() {
                    nnz += span.len();
                    row_ids.push(i);
                    spans.push(span);
                }
            }
        }
        TileView {
            row_ids,
            spans,
            cols,
            vals,
            nnz,
        }
    }

    /// Stored row `n`: its row id and where its entries lie.
    fn row(&self, n: usize) -> (u64, Range<usize>) {
        (self.row_ids[n], self.spans[n].clone())
    }

    /// Each row with where its entries lie.
    fn row_spans(&self) -> impl Iterator<Item = (u64, Range<usize>)> + '_ {
        self.row_ids.iter().copied().zip(self.spans.iter().cloned())
    }

    /// Whether every touched grid-aligned `bs × bs` block holds exactly
    /// `bs²` entries, for a tile without duplicate coordinates. Read
    /// off the canonical order: the rows must come in aligned groups
    /// of `bs` consecutive rows that share one column list, and that
    /// list must be a sequence of aligned `bs`-runs. Returns at the
    /// first group that is not.
    fn blocks_dense(&self, bs: usize) -> bool {
        // Strictly ascending coordinates: `bs` of them are one aligned
        // run iff the first is aligned and the last is `bs − 1` on.
        let aligned =
            |first: u64, last: u64| first % bs as u64 == 0 && last == first + (bs as u64 - 1);
        let mut groups = self
            .row_ids
            .chunks_exact(bs)
            .zip(self.spans.chunks_exact(bs));
        self.row_ids.len() % bs == 0
            && groups.all(|(group, spans)| {
                let first = &self.cols[spans[0].clone()];
                aligned(group[0], group[bs - 1])
                    && first.len() % bs == 0
                    && first
                        .chunks_exact(bs)
                        .all(|run| aligned(run[0].to_u64(), run[bs - 1].to_u64()))
                    && spans[1..].iter().all(|s| self.cols[s.clone()] == *first)
            })
    }
}

impl<'a, T> TileView<'a, T, u64> {
    /// The canonical tile as a view.
    fn of_tile(tile: &'a CanonicalTile<T>) -> Self {
        TileView {
            row_ids: tile.row_ids.clone(),
            spans: tile.row_ptr.windows(2).map(|w| w[0]..w[1]).collect(),
            cols: &tile.cols,
            vals: &tile.vals,
            nnz: tile.cols.len(),
        }
    }
}

impl<T: Copy, C: IndexInt> TileView<'_, T, C> {
    /// The CSR payload ([`CsrTile`]): a counting sort over the row
    /// lengths (at most `max_row_len`) places each row — rows ascend in
    /// the canonical order, so each length's rows are placed ascending
    /// too — then one gather per array copies the entries into their
    /// groups and rows.
    fn by_length(&self, max_row_len: usize) -> CsrTile<T> {
        let stored = self.spans.len();
        assert!(
            u32::try_from(stored).is_ok(),
            "a tile's stored rows fit u32"
        );
        // Columns ascend within a row, so its last is its largest.
        let widest = self
            .spans
            .iter()
            .map(|s| self.cols[s.end - 1].to_u64())
            .max();
        assert!(
            widest.is_none_or(|c| u32::try_from(c).is_ok()),
            "a CSR tile's columns fit u32"
        );
        // The first stored index of each row length.
        let mut by_len = vec![0u32; max_row_len + 2];
        for span in &self.spans {
            by_len[span.len() + 1] += 1;
        }
        for l in 1..by_len.len() {
            by_len[l] += by_len[l - 1];
        }
        let mut next = by_len.clone();
        let mut by_row = Vec::with_capacity(stored);
        let mut placed = vec![0u32; stored];
        for (r, span) in (0u32..).zip(&self.spans) {
            let s = &mut next[span.len()];
            by_row.push(*s);
            placed[*s as usize] = r;
            *s += 1;
        }
        let mut cols = Vec::with_capacity(self.nnz);
        self.in_payload_order(&placed, &by_len, |k| {
            cols.push(self.cols[k].to_u64() as u32)
        });
        let mut vals = Vec::with_capacity(self.nnz);
        self.in_payload_order(&placed, &by_len, |k| vals.push(self.vals[k]));
        let mut row_ptr = Vec::with_capacity(stored + 1);
        row_ptr.push(0);
        for &r in &placed {
            row_ptr.push(row_ptr[row_ptr.len() - 1] + self.spans[r as usize].len());
        }
        CsrTile {
            row_ids: placed.iter().map(|&r| self.row_ids[r as usize]).collect(),
            row_ptr,
            by_len,
            cols,
            vals,
            by_row,
        }
    }

    /// Visit the view's entries in [`CsrTile`] order, given each stored
    /// row's row in the view (`placed`) and the first stored row of
    /// each length (`by_len`).
    fn in_payload_order(&self, placed: &[u32], by_len: &[u32], mut visit: impl FnMut(usize)) {
        for (len, rows) in by_len.windows(2).enumerate() {
            let groups = placed[rows[0] as usize..rows[1] as usize].chunks_exact(CSR_GROUP);
            let single = groups.remainder();
            for group in groups {
                let starts: [usize; CSR_GROUP] =
                    std::array::from_fn(|k| self.spans[group[k] as usize].start);
                for s in 0..len {
                    starts.iter().for_each(|&at| visit(at + s));
                }
            }
            for &r in single {
                self.spans[r as usize].clone().for_each(&mut visit);
            }
        }
    }
}

/// One tile's entries on their way to lowering, gathered in the
/// canonical order of the kernel family: rows ascending, each row's
/// entries by column, equal coordinates in input order.
///
/// Registration gathers a tile here only when its format does not
/// lower the tile itself ([`crate::SparseMatrix::lower_tile`]): an
/// enumerated format, a CSR matrix whose rows are out of order, or a
/// stencil operator under a forced assembled kind. While entries
/// arrive ([`TileRows::push`]) in canonical order the builder holds
/// exactly the canonical tile's arrays — row ids, row starts,
/// columns, values — which lowering reads as they are
/// ([`TileRows::lower`]). The first entry out of order turns it, once,
/// into plain triplets, which lowering sorts first: the one comparison
/// sort of a tile's entries, and the same result as if the input had
/// been in order.
#[derive(Debug)]
pub struct TileRows<T> {
    /// The rows so far, ascending; unused once scattered.
    row_ids: Vec<u64>,
    /// Where each of `row_ids` starts in `cols` / `vals`.
    starts: Vec<usize>,
    cols: Vec<u64>,
    vals: Vec<T>,
    /// From the first entry out of order on: the row of every entry,
    /// in input order.
    scattered: Option<Vec<u64>>,
}

impl<T: Copy> TileRows<T> {
    /// An empty builder with room for `rows` rows of `entries` entries
    /// in all.
    pub fn with_capacity(rows: usize, entries: usize) -> Self {
        TileRows {
            row_ids: Vec::with_capacity(rows),
            starts: Vec::with_capacity(rows),
            cols: Vec::with_capacity(entries),
            vals: Vec::with_capacity(entries),
            scattered: None,
        }
    }

    /// Add entry `(i, j, v)`.
    #[inline]
    pub fn push(&mut self, i: u64, j: u64, v: T) {
        if self.scattered.is_none() {
            match self.row_ids.last() {
                // A row holds an entry as soon as it is listed.
                Some(&r) if i == r && j >= self.cols[self.cols.len() - 1] => {}
                Some(&r) if i <= r => self.scatter(),
                _ => {
                    self.row_ids.push(i);
                    self.starts.push(self.cols.len());
                }
            }
        }
        if let Some(rows) = &mut self.scattered {
            rows.push(i);
        }
        self.cols.push(j);
        self.vals.push(v);
    }

    /// Give up the canonical arrays for per-entry rows.
    #[cold]
    fn scatter(&mut self) {
        let mut rows = Vec::with_capacity(self.cols.capacity());
        let ends = self.starts[1..].iter().copied().chain([self.cols.len()]);
        for (&r, end) in self.row_ids.iter().zip(ends) {
            rows.resize(end, r);
        }
        self.row_ids = Vec::new();
        self.starts = Vec::new();
        self.scattered = Some(rows);
    }

    /// The canonical tile: the builder's own arrays when its input was
    /// in order, a sort of its triplets otherwise.
    fn into_canonical(self) -> CanonicalTile<T> {
        let TileRows {
            row_ids,
            starts: mut row_ptr,
            cols,
            vals,
            scattered,
        } = self;
        if let Some(rows) = scattered {
            return CanonicalTile::sorted(&rows, &cols, &vals);
        }
        row_ptr.push(cols.len());
        CanonicalTile {
            row_ids,
            row_ptr,
            cols,
            vals,
        }
    }
}

impl<T: Scalar> TileRows<T> {
    /// Lower the gathered tile: [`TileKernel::lower_rows`] over its
    /// canonical order.
    pub fn lower(self, choice: KernelChoice) -> (TileKernel<T>, TileStructure) {
        let canon = self.into_canonical();
        TileKernel::lower_rows(&TileView::of_tile(&canon), choice)
    }
}

impl<T: Copy> FromIterator<(u64, u64, T)> for TileRows<T> {
    /// Push each `(i, j, v)` in turn.
    fn from_iter<I: IntoIterator<Item = (u64, u64, T)>>(entries: I) -> Self {
        let entries = entries.into_iter();
        let mut rows = TileRows::with_capacity(0, entries.size_hint().0);
        for (i, j, v) in entries {
            rows.push(i, j, v);
        }
        rows
    }
}

impl<T: Copy> CanonicalTile<T> {
    /// Put a tile's triplets (any order) in the canonical accumulation
    /// order of the whole family: by `(row, col)`, stable in input
    /// order for duplicates. This is the only sort of a tile's entries
    /// a lowering performs, and only entries that reached
    /// [`TileRows`] out of order come here.
    fn sorted(rows: &[u64], cols: &[u64], vals: &[T]) -> Self {
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by_key(|&k| (rows[k], cols[k]));
        let mut row_ids = Vec::new();
        let mut row_ptr = Vec::new();
        let mut cs = Vec::with_capacity(order.len());
        let mut vs = Vec::with_capacity(order.len());
        for &k in &order {
            if row_ids.last().copied() != Some(rows[k]) {
                row_ids.push(rows[k]);
                row_ptr.push(cs.len());
            }
            cs.push(cols[k]);
            vs.push(vals[k]);
        }
        row_ptr.push(cs.len());
        CanonicalTile {
            row_ids,
            row_ptr,
            cols: cs,
            vals: vs,
        }
    }
}

impl<T: Scalar> TileKernel<T> {
    /// Lower one tile's triplets (any order, component-local
    /// coordinates) into a kernel payload.
    ///
    /// With [`KernelChoice::Auto`] the structure analysis picks; with
    /// [`KernelChoice::Force`] the given kind is used when
    /// representable (falling back to CSR otherwise, so forcing never
    /// loses an entry). Every kind computes the CSR chain's bits but
    /// the forward product of a box-stencil band (module docs), so
    /// `Force(Csr)` is the exact-bits choice.
    pub fn lower(rows: &[u64], cols: &[u64], vals: &[T], choice: KernelChoice) -> Self {
        Self::lower_with_structure(rows, cols, vals, choice).0
    }

    /// [`TileKernel::lower`], also returning the structure analysis
    /// the kernel was chosen from, so a caller that needs the tile's
    /// [`StructureKey`] does not analyze the triplets a second time.
    pub fn lower_with_structure(
        rows: &[u64],
        cols: &[u64],
        vals: &[T],
        choice: KernelChoice,
    ) -> (Self, TileStructure) {
        assert_eq!(rows.len(), cols.len());
        assert_eq!(rows.len(), vals.len());
        let entries = rows.iter().zip(cols).zip(vals).map(|((&i, &j), &v)| (i, j, v));
        entries.collect::<TileRows<T>>().lower(choice)
    }

    /// Lower one tile in canonical order, returning the kernel and the
    /// structure analysis it was chosen from. One walk over the view
    /// gives the analysis and, when a band may be chosen, the band's
    /// rows; the chosen layout then copies the entries it keeps.
    pub fn lower_rows<C: IndexInt>(
        view: &TileView<'_, T, C>,
        choice: KernelChoice,
    ) -> (Self, TileStructure) {
        let follow_band = matches!(
            choice,
            KernelChoice::Auto | KernelChoice::Force(KernelKind::Dia)
        );
        let Scan {
            structure,
            offsets,
            band,
        } = TileStructure::scan(view, follow_band.then_some(same_bits::<T>));
        if view.nnz == 0 {
            return (TileKernel::Empty, structure);
        }
        let kind = match choice {
            KernelChoice::Auto => structure.select(),
            KernelChoice::Force(k) => k,
        };
        // The rows stored by length are the CSR payload, and the
        // fallback of every layout that cannot represent the tile.
        let kernel = Self::specialized(kind, view, &structure, offsets, band)
            .unwrap_or_else(|| TileKernel::Csr(view.by_length(structure.max_row_len)));
        (kernel, structure)
    }

    /// `kind`'s layout of the tile, or `None` where it cannot represent
    /// it. The offsets and the band's rows are the DIA lowering's.
    fn specialized<C: IndexInt>(
        kind: KernelKind,
        view: &TileView<'_, T, C>,
        s: &TileStructure,
        offsets: Vec<i64>,
        band: Option<BandRows>,
    ) -> Option<Self> {
        match kind {
            KernelKind::Bcsr => Self::lower_bcsr(view, s),
            KernelKind::Dia => Self::lower_dia(view, s, offsets, band?),
            KernelKind::Ell => Self::lower_ell(view, s),
            // Assembled triplets carry no grid geometry; honoring the
            // bitwise contract means never guessing one. A stencil
            // operator lowering its own tiles is the only route to the
            // matrix-free kernel.
            KernelKind::Csr | KernelKind::Stencil => None,
        }
    }

    fn lower_dia<C: IndexInt>(
        t: &TileView<'_, T, C>,
        s: &TileStructure,
        offsets: Vec<i64>,
        rows: BandRows,
    ) -> Option<Self> {
        if s.has_duplicates || !dia_fits(s.diag_count, s.row_span, s.nnz) {
            return None;
        }
        let row_lo = t.row_ids[0];
        let nrows = s.row_span;
        let mut band = BandBuilder::new(row_lo, nrows, offsets);
        // One group per segment: its first row's entries hold in each
        // of its rows, up to the values the walk saw change.
        for &(first, len) in &rows.segments {
            let (row, span) = t.row(first);
            let lr = (row - row_lo) as u32;
            let entries = span.map(|k| (t.cols[k].to_u64() as i64 - row as i64, t.vals[k]));
            band.group((lr, lr + len as u32), entries);
        }
        for &offset in &rows.varying {
            band.varies(offset);
        }
        let mut tile = band.finish();

        // Dense columns for the diagonals that turned out not to be
        // constant, and only for those. The segments are the stored
        // rows in order, and a row's entries are its segment's
        // diagonals in order.
        let mut dense_len = 0usize;
        for coef in &mut tile.coefs {
            if let DiaCoef::Dense(start) = coef {
                *start = dense_len;
                dense_len += nrows;
            }
        }
        tile.vals = vec![T::ZERO; dense_len];
        if dense_len > 0 {
            let mut stored = t.row_spans();
            for (s, &(lo, hi)) in tile.seg_rows.iter().enumerate() {
                let diags = &tile.seg_diags[tile.seg_ptr[s]..tile.seg_ptr[s + 1]];
                for lr in lo..hi {
                    let (_, span) = stored.next().expect("a segment row is a stored row");
                    for (&d, &v) in diags.iter().zip(&t.vals[span]) {
                        if let DiaCoef::Dense(start) = tile.coefs[d as usize] {
                            tile.vals[start + lr as usize] = v;
                        }
                    }
                }
            }
        }
        Some(TileKernel::Dia(tile))
    }

    fn lower_ell<C: IndexInt>(t: &TileView<'_, T, C>, s: &TileStructure) -> Option<Self> {
        if s.has_duplicates {
            return None;
        }
        let nrows = t.row_ids.len();
        let width = s.max_row_len;
        let mut pcols = vec![0u64; nrows * width];
        let mut pvals = vec![T::ZERO; nrows * width];
        let mut row_len = Vec::with_capacity(nrows);
        for (r, (_, span)) in t.row_spans().enumerate() {
            let len = span.len();
            row_len.push(len as u32);
            let base = r * width;
            for (slot, &c) in pcols[base..base + len]
                .iter_mut()
                .zip(&t.cols[span.clone()])
            {
                *slot = c.to_u64();
            }
            pvals[base..base + len].copy_from_slice(&t.vals[span]);
            // Pad lane columns with the last valid column so even an
            // (unreached) padded load would stay in bounds.
            let last = pcols[base + len - 1];
            pcols[base + len..base + width].fill(last);
        }
        Some(TileKernel::Ell(EllTile {
            row_ids: t.row_ids.clone(),
            width,
            row_len,
            cols: pcols,
            vals: pvals,
        }))
    }

    fn lower_bcsr<C: IndexInt>(t: &TileView<'_, T, C>, s: &TileStructure) -> Option<Self> {
        let bs = s.dense_block?;
        // Every touched block is fully dense, so the stored rows come
        // in aligned groups of `bs` sharing one column list, itself a
        // sequence of aligned `bs`-runs: block `b` of a group is
        // columns `[b·bs, (b+1)·bs)` of each of its rows, already in
        // the CSR per-row column order.
        let mut brow_ids = Vec::new();
        let mut bptr = Vec::new();
        let mut bcols = Vec::new();
        let mut bvals = Vec::with_capacity(s.nnz);
        for (group, spans) in t.row_ids.chunks(bs).zip(t.spans.chunks(bs)) {
            debug_assert!(group.len() == bs && group[0] % bs as u64 == 0);
            brow_ids.push(group[0] / bs as u64);
            bptr.push(bcols.len());
            let first = spans[0].start;
            for b in 0..spans[0].len() / bs {
                bcols.push(t.cols[first + b * bs].to_u64() / bs as u64);
                for span in spans {
                    let at = span.start + b * bs;
                    debug_assert_eq!(t.cols[at], t.cols[first + b * bs]);
                    bvals.extend_from_slice(&t.vals[at..at + bs]);
                }
            }
        }
        bptr.push(bcols.len());
        Some(TileKernel::Bcsr(BcsrTile {
            bs,
            brow_ids,
            bptr,
            bcols,
            vals: bvals,
        }))
    }

    /// The lowered kind (`None` for [`TileKernel::Empty`]).
    pub fn kind(&self) -> Option<KernelKind> {
        match self {
            TileKernel::Empty => None,
            TileKernel::Csr(_) => Some(KernelKind::Csr),
            TileKernel::Dia(_) => Some(KernelKind::Dia),
            TileKernel::Ell(_) => Some(KernelKind::Ell),
            TileKernel::Bcsr(_) => Some(KernelKind::Bcsr),
            TileKernel::Stencil(_) => Some(KernelKind::Stencil),
        }
    }

    /// Stored entries (padding excluded). For the matrix-free kernel
    /// this is the entry count of the assembled *equivalent*, read off
    /// its band's runs like a `Dia` tile's — what the apply computes,
    /// not what memory holds (no entry is; see
    /// [`TileKernel::value_bytes`]).
    pub fn nnz(&self) -> usize {
        match self {
            TileKernel::Empty => 0,
            TileKernel::Csr(t) => t.vals.len(),
            TileKernel::Dia(t) => t.nnz(),
            TileKernel::Ell(t) => t.row_len.iter().map(|&l| l as usize).sum(),
            TileKernel::Bcsr(t) => t.vals.len(),
            TileKernel::Stencil(t) => t.nnz(),
        }
    }

    /// Bytes of *value* storage this kernel holds — every `T` in the
    /// payload, which is what a product streams. ELL counts its padding
    /// slots; DIA counts one value per constant diagonal and the dense
    /// column (padding included) of every other; the stencil kernel
    /// counts zero: it stores no operator value — its band has no value
    /// array, and the at most 27 constants on its diagonals are the
    /// descriptor's weights, a function of the stencil kind alone.
    pub fn value_bytes(&self) -> usize {
        let w = std::mem::size_of::<T>();
        match self {
            TileKernel::Empty => 0,
            TileKernel::Csr(t) => t.vals.len() * w,
            TileKernel::Dia(t) => {
                let constants = t.coefs.iter().filter(|c| matches!(c, DiaCoef::Const(_)));
                (constants.count() + t.vals.len()) * w
            }
            TileKernel::Ell(t) => t.vals.len() * w,
            TileKernel::Bcsr(t) => t.vals.len() * w,
            TileKernel::Stencil(_) => 0,
        }
    }

    /// True when the tile stores nothing (its task launch can be
    /// skipped; the zero-fill plan owns its output rows).
    pub fn is_empty(&self) -> bool {
        matches!(self, TileKernel::Empty)
    }

    /// Execute `y += A x` (or `y += Aᵀ x` when `transpose`) through
    /// the accessor traits.
    #[inline]
    pub fn apply<X: VecIn<T>, Y: VecOut<T>>(&self, x: &X, y: &mut Y, transpose: bool) {
        match self {
            TileKernel::Empty => {}
            TileKernel::Csr(t) => {
                if transpose {
                    t.apply_t(x, y)
                } else {
                    t.apply(x, y)
                }
            }
            TileKernel::Dia(t) => {
                if transpose {
                    t.apply_t(x, y)
                } else {
                    t.apply(x, y)
                }
            }
            TileKernel::Ell(t) => {
                if transpose {
                    t.apply_t(x, y)
                } else {
                    t.apply(x, y)
                }
            }
            TileKernel::Bcsr(t) => {
                if transpose {
                    t.apply_t(x, y)
                } else {
                    t.apply(x, y)
                }
            }
            TileKernel::Stencil(t) => t.apply(x, y, transpose),
        }
    }

    /// `y = A x` (`Aᵀ x` when `transpose`) over the rows the tile
    /// writes, from `+0` whatever `y` holds there, when the kind starts
    /// its rows there itself: the forward product of a `Dia` or `Stencil`
    /// tile, box-stencil bands included. `false`, with nothing done,
    /// for any other tile or direction, whose caller fills the rows
    /// first and runs [`TileKernel::apply`]. The bits are those of that
    /// fill and apply.
    #[inline]
    pub fn apply_from_zero<X: VecIn<T>, Y: VecOut<T>>(
        &self,
        x: &X,
        y: &mut Y,
        transpose: bool,
    ) -> bool {
        let band = match self {
            TileKernel::Dia(t) if !transpose => t,
            TileKernel::Stencil(t) if !transpose => t.band(),
            _ => return false,
        };
        band.apply_from_zero(x, y);
        true
    }

    /// Slice convenience wrapper over [`TileKernel::apply`] (tests,
    /// benchmarks, reference checks).
    pub fn apply_slices(&self, x: &[T], y: &mut [T], transpose: bool) {
        let mut yy = y;
        self.apply(&x, &mut yy, transpose);
    }
}

impl<T> CsrTile<T> {
    /// The group stored row `r` is in, as its first stored row and
    /// `r`'s lane; `None` for a row of its own.
    fn lane(&self, r: usize) -> Option<(usize, usize)> {
        let len = self.row_ptr[r + 1] - self.row_ptr[r];
        let first = self.by_len[len] as usize;
        let rows = self.by_len[len + 1] as usize - first;
        let lane = (r - first) % CSR_GROUP;
        (r - first < rows - rows % CSR_GROUP).then_some((r - lane, lane))
    }
}

impl<T: Scalar> CsrTile<T> {
    /// `y += A x`, by row length: each group as [`CSR_GROUP`]
    /// accumulators loaded from `y`, one `mul_add` per slot per lane,
    /// then one store each; each row left over as one chain. Either way
    /// a row's chain is its entries by ascending column, and rows write
    /// disjoint outputs, so neither the grouping nor the order between
    /// rows changes a bit.
    #[inline]
    pub fn apply<X: VecIn<T>, Y: VecOut<T>>(&self, x: &X, y: &mut Y) {
        for (len, rows) in self.by_len.windows(2).enumerate() {
            let groups = self.row_ids[rows[0] as usize..rows[1] as usize].chunks_exact(CSR_GROUP);
            let single = groups.remainder();
            let mut at = self.row_ptr[rows[0] as usize];
            for group in groups {
                let span = at..at + CSR_GROUP * len;
                let mut acc = [T::ZERO; CSR_GROUP];
                for (a, &i) in acc.iter_mut().zip(group) {
                    *a = y.load(i as usize);
                }
                let cols = self.cols[span.clone()].chunks_exact(CSR_GROUP);
                for (cs, vs) in cols.zip(self.vals[span].chunks_exact(CSR_GROUP)) {
                    for k in 0..CSR_GROUP {
                        acc[k] = vs[k].mul_add(x.load(cs[k] as usize), acc[k]);
                    }
                }
                for (&i, a) in group.iter().zip(acc) {
                    y.store(i as usize, a);
                }
                at += CSR_GROUP * len;
            }
            for &i in single {
                let span = at..at + len;
                let mut acc = y.load(i as usize);
                for (&c, &v) in self.cols[span.clone()].iter().zip(&self.vals[span]) {
                    acc = v.mul_add(x.load(c as usize), acc);
                }
                y.store(i as usize, acc);
                at += len;
            }
        }
    }

    /// `y += Aᵀ x`: rows ascending through `by_row` — every output
    /// column receives its contributions in ascending row order — and
    /// a scatter along each row's entries with `x[row]` loaded once: a
    /// row of its own as one slice, a row in a group as one lane of the
    /// group's slots.
    #[inline]
    pub fn apply_t<X: VecIn<T>, Y: VecOut<T>>(&self, x: &X, y: &mut Y) {
        let mut add = |col: u32, v: T, xv: T| {
            let j = col as usize;
            y.store(j, v.mul_add(xv, y.load(j)));
        };
        for &r in &self.by_row {
            let r = r as usize;
            let xv = x.load(self.row_ids[r] as usize);
            match self.lane(r) {
                Some((g, lane)) => {
                    let span = self.row_ptr[g]..self.row_ptr[g + CSR_GROUP];
                    let cols = self.cols[span.clone()].chunks_exact(CSR_GROUP);
                    for (cs, vs) in cols.zip(self.vals[span].chunks_exact(CSR_GROUP)) {
                        add(cs[lane], vs[lane], xv);
                    }
                }
                None => {
                    let span = self.row_ptr[r]..self.row_ptr[r + 1];
                    for (&col, &v) in self.cols[span.clone()].iter().zip(&self.vals[span]) {
                        add(col, v, xv);
                    }
                }
            }
        }
    }
}

/// `W` consecutive elements of `x` from `lo`: one slice copy when the
/// view lends slices, element loads otherwise.
#[inline(always)]
fn load_block<T: Scalar, X: VecIn<T>, const W: usize>(x: &X, lo: usize) -> [T; W] {
    match x.range(lo, W) {
        Some(xs) => xs.try_into().expect("a range of W elements"),
        None => std::array::from_fn(|k| x.load(lo + k)),
    }
}

/// One diagonal's term of a row block: `acc[k] += coef(k) · xs[k]`,
/// each a single `mul_add`.
#[inline(always)]
fn fold<T: Scalar, const W: usize>(acc: &mut [T; W], coef: impl Fn(usize) -> T, xs: &[T; W]) {
    for k in 0..W {
        acc[k] = coef(k).mul_add(xs[k], acc[k]);
    }
}

/// A pass's rows: `ys[k]` folded with `consts[d].mul_add(xs[d][k], ·)`
/// for `d` ascending, each row its own chain from its `y`, or from `+0`
/// when `zero`. Rows are taken 32 at a time, then 8, then one: a row's
/// chain is `N` dependent `mul_add`s, so a vector of rows waits on each
/// term's latency, and 32 rows are enough independent vectors to keep
/// the FMA units busy through it. A block's accumulators are a local
/// array, so the vectoriser packs them without a run-time overlap test
/// of `ys` against the inputs (a plain row loop needs one per slice,
/// and is left scalar past a few).
#[inline(always)]
fn fold_rows<T: Scalar, const N: usize>(consts: [T; N], xs: [&[T]; N], ys: &mut [T], zero: bool) {
    let n = ys.len();
    let at = fold_block::<T, N, 32>(consts, &xs, ys, 0, n - n % 32, zero);
    let at = fold_block::<T, N, 8>(consts, &xs, ys, at, n - n % 8, zero);
    fold_block::<T, N, 1>(consts, &xs, ys, at, n, zero);
}

/// [`fold_rows`] over rows `[at, end)` in blocks of `L`; returns `end`.
#[inline(always)]
fn fold_block<T: Scalar, const N: usize, const L: usize>(
    consts: [T; N],
    xs: &[&[T]; N],
    ys: &mut [T],
    mut at: usize,
    end: usize,
    zero: bool,
) -> usize {
    while at < end {
        let ys = &mut ys[at..at + L];
        let mut acc: [T; L] = if zero {
            [T::ZERO; L]
        } else {
            (&*ys).try_into().expect("a block of L rows")
        };
        for (&c, xd) in consts.iter().zip(xs) {
            fold(&mut acc, |_| c, xd[at..at + L].try_into().expect("a block of L inputs"));
        }
        ys.copy_from_slice(&acc);
        at += L;
    }
    at
}

/// The `x`-step sums of a box-stencil plane: `t[m] = (x[r − plane] +
/// x[r]) + x[r + plane]` for `r = at + m`, over the plane's steps `c ∈
/// [c_lo, c_hi]` (step `c − 1`) left to right, each missing one left
/// out — never `0 + u`, which would turn a `-0.0` sum into `+0.0`.
#[inline(always)]
fn x_step_sums<T: Scalar, X: VecIn<T>>(
    x: &X,
    t: &mut [T],
    at: usize,
    plane: usize,
    (c_lo, c_hi): (usize, usize),
) {
    let (n, terms) = (t.len(), c_hi - c_lo + 1);
    // Step `c` reads row `at + c·plane − plane`, added before it is
    // subtracted: step −1 (`c = 0`) is only a plane with one below's.
    let from = |q: usize| at + (c_lo + q) * plane - plane;
    let lines = [0, 1, 2].map(|q| if q < terms { x.range(from(q), n) } else { None });
    match (terms, lines) {
        (1, [Some(a), ..]) => t.copy_from_slice(a),
        (2, [Some(a), Some(b), _]) => {
            t.iter_mut().zip(a.iter().zip(b)).for_each(|(t, (&a, &b))| *t = a + b)
        }
        (3, [Some(a), Some(b), Some(c)]) => {
            t.iter_mut().zip(three(a, b, c)).for_each(|(t, u)| *t = u)
        }
        _ => {
            for (m, t) in t.iter_mut().enumerate() {
                *t = x.load(from(0) + m);
                for q in 1..terms {
                    *t += x.load(from(q) + m);
                }
            }
        }
    }
}

/// `(l₀[t] + l₁[t]) + l₂[t]`, for each `t` of the shortest line.
#[inline(always)]
fn three<'a, T: Scalar>(l0: &'a [T], l1: &'a [T], l2: &'a [T]) -> impl Iterator<Item = T> + 'a {
    l0.iter().zip(l1).zip(l2).map(|((&p, &q), &r)| (p + q) + r)
}

/// A window of a box-stencil band: rows `[r0, r1)` of the grid plane
/// that starts at row `base`, with the plane's `x`-steps.
#[derive(Clone, Copy)]
struct BoxWindow {
    base: usize,
    rows: (usize, usize),
    x_steps: (usize, usize),
}

impl<T> DiaTile<T> {
    /// Entries the band stands for: the rows of its runs.
    pub(crate) fn nnz(&self) -> usize {
        self.runs.iter().map(|&(lo, hi)| (hi - lo) as usize).sum()
    }

    /// The diagonals of segment `s`, ascending.
    fn diags_of(&self, s: usize) -> &[u32] {
        &self.seg_diags[self.seg_ptr[s]..self.seg_ptr[s + 1]]
    }

    /// Whether some entry of the band reads component-local column
    /// `col`: a run of some diagonal holds the row that reads it.
    fn reads_column(&self, col: i64) -> bool {
        let row_lo = self.row_lo as i64;
        self.offsets.iter().enumerate().any(|(d, &off)| {
            let runs = &self.runs[self.run_ptr[d]..self.run_ptr[d + 1]];
            let lr = col - off - row_lo;
            let after = runs.partition_point(|&(lo, _)| i64::from(lo) <= lr);
            after > 0 && lr < i64::from(runs[after - 1].1)
        })
    }
}

impl<T: Scalar> DiaTile<T> {
    /// `y += A x`: sum-factored, a plane at a time, for a box-stencil
    /// band ([`DiaTile::box_stencil`]; `apply_box`), and pass by pass
    /// for every other (`apply_passes`).
    #[inline]
    pub fn apply<X: VecIn<T>, Y: VecOut<T>>(&self, x: &X, y: &mut Y) {
        match self.box_stencil {
            Some(stencil) => self.apply_box(stencil, x, y, false),
            None => self.apply_passes(x, y, false),
        }
    }

    /// `y = A x` over the rows the band holds, whatever `y` held there,
    /// with the bits of `y += A x` over a `y` of `+0`: each pass, or
    /// each window of a box-stencil band, starts its rows there.
    #[inline]
    pub(crate) fn apply_from_zero<X: VecIn<T>, Y: VecOut<T>>(&self, x: &X, y: &mut Y) {
        match self.box_stencil {
            Some(stencil) => self.apply_box(stencil, x, y, true),
            None => self.apply_passes(x, y, true),
        }
    }

    /// `y += A x` (from `+0` when `zero`), a [`Pass`] at a time: its
    /// patch rows are folded from the `y` the pass finds into a stack
    /// buffer, its rows are run with its diagonals (`pass`, or
    /// `cascade` where `pass` has no loop), and the buffer is stored
    /// over the loop's patch rows.
    /// Every row, patch or not, is `coef.mul_add(x[row + offset], acc)`
    /// over its own diagonals in ascending offset from its `y` — the CSR
    /// chain; what the loop computes for a patch row is never observed.
    /// Not inlined, so that one copy serves both values of `zero`.
    #[inline(never)]
    fn apply_passes<X: VecIn<T>, Y: VecOut<T>>(&self, x: &X, y: &mut Y, zero: bool) {
        let row_lo = self.row_lo as usize;
        let start = |y: &Y, lr: usize| if zero { T::ZERO } else { y.load(row_lo + lr) };
        for pass in &self.passes {
            let (lo, hi) = (pass.rows.0 as usize, pass.rows.1 as usize);
            let diags = self.diags_of(pass.set as usize);
            if hi - lo == 1 {
                // A row alone has nothing to loop over: one chain.
                let acc = self.chain(lo, diags, x, start(y, lo));
                y.store(row_lo + lo, acc);
                continue;
            }
            let patches = &self.patches[pass.patches.0 as usize..pass.patches.1 as usize];
            let patch_row = |s: u32| self.seg_rows[s as usize].0 as usize;
            let mut held = [T::ZERO; PASS_PATCHES];
            for (h, &s) in held.iter_mut().zip(patches) {
                let lr = patch_row(s);
                *h = self.chain(lr, self.diags_of(s as usize), x, start(y, lr));
            }
            if !self.pass(diags, lo, hi, x, y, zero) {
                if zero {
                    (row_lo + lo..row_lo + hi).for_each(|r| y.store(r, T::ZERO));
                }
                self.cascade(diags, lo, hi, x, y);
            }
            for (&h, &s) in held.iter().zip(patches) {
                y.store(row_lo + patch_row(s), h);
            }
        }
    }

    /// The chain of local row `lr` over `diags`, from `acc`.
    #[inline(always)]
    fn chain<X: VecIn<T>>(&self, lr: usize, diags: &[u32], x: &X, mut acc: T) -> T {
        let row = self.row_lo as usize + lr;
        for &d in diags {
            let coef = match self.coefs[d as usize] {
                DiaCoef::Const(c) => c,
                DiaCoef::Dense(start) => self.vals[start + lr],
            };
            let col = (row as i64 + self.offsets[d as usize]) as usize;
            acc = coef.mul_add(x.load(col), acc);
        }
        acc
    }

    /// Local rows `[lo, hi)` with `diags`, as one row loop over
    /// [`PASS_DIAGS`] constant diagonals, the constants and the slices
    /// of `x` and `y` bound once. `false`, with nothing written, for any
    /// other pass — another count, a dense column, or views that lend no
    /// slices.
    #[inline(always)]
    fn pass<X: VecIn<T>, Y: VecOut<T>>(
        &self,
        diags: &[u32],
        lo: usize,
        hi: usize,
        x: &X,
        y: &mut Y,
        zero: bool,
    ) -> bool {
        let Ok(diags) = <&[u32; PASS_DIAGS]>::try_from(diags) else {
            return false;
        };
        let (row0, n) = (self.row_lo as usize + lo, hi - lo);
        let (mut consts, mut xs) = ([T::ZERO; PASS_DIAGS], [&[] as &[T]; PASS_DIAGS]);
        for ((c, xd), &d) in consts.iter_mut().zip(&mut xs).zip(diags) {
            let DiaCoef::Const(v) = self.coefs[d as usize] else {
                return false;
            };
            let col0 = (row0 as i64 + self.offsets[d as usize]) as usize;
            let Some(slice) = x.range(col0, n) else { return false };
            (*c, *xd) = (v, slice);
        }
        let Some(ys) = y.range_mut(row0, n) else { return false };
        fold_rows(consts, xs, ys, zero);
        true
    }

    /// Local rows `[lo, hi)` with `diags` in blocks of rows: the pass
    /// kernel where [`DiaTile::pass`] has none. A block of `y` is loaded
    /// into accumulators once, the diagonals are folded in ascending as
    /// `coef.mul_add(x[row + offset], acc)`, and the block is stored
    /// once.
    ///
    /// The rows are whole 32-row blocks laid back from the end, before
    /// them 16-row blocks for the rows short of one more, before those
    /// 8-row blocks, and so on down to single rows — so the narrow
    /// blocks run first. At each width, when the rows short of one more
    /// block are more than half of one and the range is at least a
    /// block long, they are not handed down: they are the *kept* rows
    /// of one more block of that width, which reads on into the rows
    /// after them, computes all of its rows and stores only its own.
    /// The rows it drops are stored by the blocks that follow, from the
    /// `y` they find untouched. A tail cut ever narrower instead pays
    /// the per-term bookkeeping once per width; and a block that
    /// recomputed rows *behind* it would reload `y` the block before
    /// has just stored, a load that waits for that store.
    #[inline]
    fn cascade<X: VecIn<T>, Y: VecOut<T>>(
        &self,
        diags: &[u32],
        lo: usize,
        hi: usize,
        x: &X,
        y: &mut Y,
    ) {
        // Of `n` leading rows of `len`, what blocks of `w` rows leave
        // over: (rows kept by one more block of `w`, rows handed down
        // to narrower blocks) — one of them 0.
        let split = |w: usize, n: usize, len: usize| match n % w {
            r if 2 * r > w && len >= w => (r, 0),
            r => (0, r),
        };
        let len = hi - lo;
        let (k32, n32) = split(32, len, len);
        let (k16, n16) = split(16, n32, len);
        let (k8, n8) = split(8, n16, len);
        let (k4, n4) = split(4, n8, len);
        let (k2, n2) = split(2, n4, len);
        let lr = self.blocks::<X, Y, 1>(diags, lo, 0, lo + n2, x, y);
        let lr = self.blocks::<X, Y, 2>(diags, lr, k2, lo + n4, x, y);
        let lr = self.blocks::<X, Y, 4>(diags, lr, k4, lo + n8, x, y);
        let lr = self.blocks::<X, Y, 8>(diags, lr, k8, lo + n16, x, y);
        let lr = self.blocks::<X, Y, 16>(diags, lr, k16, lo + n32, x, y);
        self.blocks::<X, Y, 32>(diags, lr, k32, hi, x, y);
    }

    /// `W`-row blocks over local rows `[lr, end)`, the first keeping
    /// only `first` rows when that is not 0; returns `end`.
    #[inline(always)]
    fn blocks<X: VecIn<T>, Y: VecOut<T>, const W: usize>(
        &self,
        diags: &[u32],
        mut lr: usize,
        first: usize,
        end: usize,
        x: &X,
        y: &mut Y,
    ) -> usize {
        let mut keep = if first > 0 { first } else { W };
        while lr < end {
            self.block::<X, Y, W>(diags, lr, keep, x, y);
            lr += keep;
            keep = W;
        }
        lr
    }

    /// One block: local rows `[lr, lr + W)` of a pass run with `diags`,
    /// of which the first `keep` — all of them, or more than half — are
    /// stored. Every row of the pass holds every diagonal in `diags` or
    /// joined it (see [`Pass`]), so the `W` inputs of a term are `W`
    /// consecutive columns each of which an entry reads: a slice of them
    /// stays inside the tile's declared footprint.
    ///
    /// The diagonals are taken in runs of one kind, constants then dense
    /// columns then constants again, so that neither inner loop carries
    /// a per-term branch on the kind: with one, the accumulators meet
    /// at a three-way join and come out of the vectoriser as seven
    /// vectors, a pair and two scalars instead of eight vectors.
    #[inline(always)]
    fn block<X: VecIn<T>, Y: VecOut<T>, const W: usize>(
        &self,
        diags: &[u32],
        lr: usize,
        keep: usize,
        x: &X,
        y: &mut Y,
    ) {
        let row0 = self.row_lo as usize + lr;
        let mut acc: [T; W] = match y.range_mut(row0, W) {
            Some(ys) => (&*ys).try_into().expect("a range of W elements"),
            None => std::array::from_fn(|k| y.load(row0 + k)),
        };
        let xs = |d: u32| {
            let col0 = (row0 as i64 + self.offsets[d as usize]) as usize;
            load_block::<T, X, W>(x, col0)
        };
        let mut rest = diags;
        while !rest.is_empty() {
            while let Some((&d, tail)) = rest.split_first() {
                let DiaCoef::Const(c) = self.coefs[d as usize] else { break };
                fold(&mut acc, |_| c, &xs(d));
                rest = tail;
            }
            while let Some((&d, tail)) = rest.split_first() {
                let DiaCoef::Dense(start) = self.coefs[d as usize] else { break };
                let vs = &self.vals[start + lr..][..W];
                fold(&mut acc, |k| vs[k], &xs(d));
                rest = tail;
            }
        }
        match y.range_mut(row0, keep) {
            Some(ys) if keep == W => ys.copy_from_slice(&acc),
            Some(ys) => {
                // More than half a block, as two fixed-length copies:
                // its first half, and the half that ends where it ends.
                let (out, half) = (acc, W / 2);
                ys[..half].copy_from_slice(&out[..half]);
                ys[keep - half..].copy_from_slice(&out[keep - half..keep]);
            }
            None => (0..keep).for_each(|k| y.store(row0 + k, acc[k])),
        }
    }

    /// `y += A x` (from `+0` when `zero`) for a box-stencil band, a
    /// window of one grid plane at a time. The segments that follow one
    /// another inside a plane are one run of output rows. Every plane is
    /// cut at the same *blocks* of plane-local rows — as many whole lines
    /// as fit [`BOX_WINDOW`] with the line on either side, or, when three
    /// lines do not fit, chunks of one line — and a window is what a run
    /// holds of a block (`box_window`). Up to [`BOX_RUNS`] runs at a
    /// time, the windows go block by block, each block through every
    /// run: the windows of one block in neighbouring planes read the same
    /// lines of `x`, which the one before left in cache.
    /// Not inlined, so that one copy serves both values of `zero`.
    #[inline(never)]
    fn apply_box<X: VecIn<T>, Y: VecOut<T>>(
        &self,
        stencil: BoxStencil<T>,
        x: &X,
        y: &mut Y,
        zero: bool,
    ) {
        let (n_z, plane) = (stencil.n_z, stencil.plane);
        let row_lo = self.row_lo as usize;
        // Whole lines a block holds: those the buffers hold with the
        // line on either side and one row past each end.
        let lines = ((BOX_WINDOW - 2) / n_z).saturating_sub(2).min(BOX_WINDOW_LINES);
        let chunk = BOX_WINDOW / 3 - 2;
        let block_end = |r: usize| match lines {
            0 => r - r % n_z + n_z.min((r % n_z / chunk + 1) * chunk),
            _ => (r / (lines * n_z) + 1) * lines * n_z,
        };
        let mut t = [T::ZERO; BOX_WINDOW];
        let mut s = [T::ZERO; BOX_WINDOW];
        let mut runs = [BoxWindow { base: 0, rows: (0, 0), x_steps: (0, 0) }; BOX_RUNS];
        let mut seg = 0;
        while seg < self.seg_rows.len() {
            let mut taken = 0;
            while taken < BOX_RUNS && seg < self.seg_rows.len() {
                let (lo, mut hi) = self.seg_rows[seg];
                // A plane's `X` steps are one: this segment's first and
                // last diagonals carry its lowest and highest.
                let diags = self.diags_of(seg);
                let x_steps = (diags[0] as usize / 9, diags[diags.len() - 1] as usize / 9);
                let base = (row_lo + lo as usize) / plane * plane;
                seg += 1;
                while seg < self.seg_rows.len()
                    && self.seg_rows[seg].0 == hi
                    && row_lo + (hi as usize) < base + plane
                {
                    hi = self.seg_rows[seg].1;
                    seg += 1;
                }
                let rows = (row_lo + lo as usize - base, row_lo + hi as usize - base);
                runs[taken] = BoxWindow { base, rows, x_steps };
                taken += 1;
            }
            // The first block any run has rows left in, through every run.
            let runs = &mut runs[..taken];
            let open = |w: &&mut BoxWindow| w.rows.0 < w.rows.1;
            while let Some(lo) = runs.iter_mut().filter(open).map(|w| w.rows.0).min() {
                let hi = block_end(lo);
                for w in runs.iter_mut().filter(|w| w.rows.0 < w.rows.1.min(hi)) {
                    let window = BoxWindow { rows: (w.rows.0, w.rows.1.min(hi)), ..*w };
                    self.box_window(stencil, window, (&mut t, &mut s), x, y, zero);
                    w.rows.0 = window.rows.1;
                }
            }
        }
    }

    /// One window of [`DiaTile::apply_box`], plane-local rows `[r0,
    /// r1)`, in three sweeps over `S`, the window and the row past each
    /// end that is in the same line:
    /// 1. the `x`-step sums `t` of the lines `S − n_z`, `S` and `S +
    ///    n_z`, clipped to the plane: one run from `S − n_z` when `S`
    ///    spans a line, so that they meet, and three runs otherwise;
    /// 2. the `y`-step sums `s = (t[e − n_z] + t[e]) + t[e + n_z]` over
    ///    `S`, without the neighbour line the plane's first or last
    ///    line lacks;
    /// 3. one loop `y[e] = c1·((s[e−1] + s[e]) + s[e+1]) + ((c0 −
    ///    c1)·x[e] + y[e])`, two `mul_add`s, over the window's rows;
    ///    each line's first and last row, whose `z` has two terms, is
    ///    computed beforehand from the `y` the window finds and stored
    ///    over what the loop wrote there.
    ///
    /// That is the order of the module docs, so every row's bits are a
    /// function of its box and `x` alone, whatever the window. A row's
    /// steps are those detection checked, so every `x` a sweep reads is
    /// one some row of the window reads.
    #[inline(always)]
    fn box_window<X: VecIn<T>, Y: VecOut<T>>(
        &self,
        BoxStencil { n_z, plane, c0, c1 }: BoxStencil<T>,
        BoxWindow { base, rows: (r0, r1), x_steps }: BoxWindow,
        (t, s): (&mut [T; BOX_WINDOW], &mut [T; BOX_WINDOW]),
        x: &X,
        y: &mut Y,
        zero: bool,
    ) {
        let lo_s = r0 - usize::from(r0 % n_z != 0);
        let len = r1 + usize::from(r1 % n_z != 0) - lo_s;
        // Line `S + (b − 1)·n_z` is at `t[b·σ..]`. A run `(a, o, n)` is
        // `n` values of `t` from plane-local row `a − n_z` at `t[o..]`:
        // one when the lines meet, three when `S` is shorter than a line.
        let whole = len >= n_z;
        let (sigma, runs, count) = match whole {
            true => (n_z, [(lo_s, 0, len + 2 * n_z); 3], 1),
            false => (len, [0, 1, 2].map(|b| (lo_s + b * n_z, b * len, len)), 3),
        };
        for &(a, o, n) in &runs[..count] {
            let (lo, hi) = (a.max(n_z) - n_z, (a + n).saturating_sub(n_z).min(plane));
            if lo < hi {
                let at = o + lo + n_z - a;
                x_step_sums(x, &mut t[at..at + hi - lo], base + lo, plane, x_steps);
            }
        }
        let last_line = plane - n_z;
        for (first, last) in [(0, n_z), (n_z, last_line), (last_line, plane)] {
            let (u, v) = (first.max(lo_s), last.min(lo_s + len));
            if u >= v {
                continue;
            }
            let (q, n) = (u - lo_s, v - u);
            let (below, mid, above) =
                (&t[q..q + n], &t[sigma + q..][..n], &t[2 * sigma + q..][..n]);
            let sums = s[q..q + n].iter_mut();
            match (first, last) {
                (0, _) => sums.zip(mid.iter().zip(above)).for_each(|(s, (&m, &a))| *s = m + a),
                (_, l) if l == plane => {
                    sums.zip(below.iter().zip(mid)).for_each(|(s, (&b, &m))| *s = b + m)
                }
                _ => sums.zip(three(below, mid, above)).for_each(|(s, u)| *s = u),
            }
        }
        let centre = c0 - c1;
        let start = |y: &Y, r: usize| if zero { T::ZERO } else { y.load(r) };
        // Each line's first and last row in the window, with its value.
        let mut held = [(0, T::ZERO); 2 * BOX_WINDOW_LINES];
        let (mut h, mut first) = (0, r0 - r0 % n_z);
        while first < r1 {
            let last = first + n_z - 1;
            for (e, ends) in [(first, first >= r0), (last, last < r1)] {
                if ends {
                    let q = e - lo_s;
                    let z = if e == first { s[q] + s[q + 1] } else { s[q - 1] + s[q] };
                    let r = base + e;
                    held[h] = (r, c1.mul_add(z, centre.mul_add(x.load(r), start(y, r))));
                    h += 1;
                }
            }
            first += n_z;
        }
        // Every row but a first row at `r0` and a last row at `r1 − 1`
        // has both neighbours in `S`.
        let (m0, m1) = (r0 + usize::from(r0 % n_z == 0), r1 - usize::from(r1 % n_z == 0));
        let (q, n) = (m0 - lo_s, m1 - m0);
        let zs = three(&s[q - 1..][..n], &s[q..][..n], &s[q + 1..][..n]);
        match (x.range(base + m0, n), y.range_mut(base + m0, n)) {
            (Some(xs), Some(ys)) if zero => {
                for ((y, &x), z) in ys.iter_mut().zip(xs).zip(zs) {
                    *y = c1.mul_add(z, centre.mul_add(x, T::ZERO));
                }
            }
            (Some(xs), Some(ys)) => {
                for ((y, &x), z) in ys.iter_mut().zip(xs).zip(zs) {
                    *y = c1.mul_add(z, centre.mul_add(x, *y));
                }
            }
            _ => {
                for (r, z) in (base + m0..).zip(zs) {
                    y.store(r, c1.mul_add(z, centre.mul_add(x.load(r), start(y, r))));
                }
            }
        }
        for &(r, v) in &held[..h] {
            y.store(r, v);
        }
    }

    /// `y += Aᵀ x`: diagonals **descending** so each output column
    /// receives its contributions in ascending-row (CSR) order; every
    /// run is a stride-1, gather-free loop over contiguous rows, with
    /// the diagonal's coefficient — its constant, or its dense column —
    /// settled before the loop.
    #[inline]
    pub fn apply_t<X: VecIn<T>, Y: VecOut<T>>(&self, x: &X, y: &mut Y) {
        for d in (0..self.offsets.len()).rev() {
            let off = self.offsets[d];
            for &(lo, hi) in &self.runs[self.run_ptr[d]..self.run_ptr[d + 1]] {
                let (lo, n) = (lo as usize, (hi - lo) as usize);
                let row0 = self.row_lo as usize + lo;
                let col0 = (row0 as i64 + off) as usize;
                let mut term = |k: usize, v: T| {
                    y.store(col0 + k, v.mul_add(x.load(row0 + k), y.load(col0 + k)));
                };
                match self.coefs[d] {
                    DiaCoef::Const(c) => (0..n).for_each(|k| term(k, c)),
                    DiaCoef::Dense(start) => {
                        let vs = &self.vals[start + lo..][..n];
                        (0..n).for_each(|k| term(k, vs[k]))
                    }
                }
            }
        }
    }
}

impl<T: Scalar> EllTile<T> {
    /// `y += A x`: fixed-stride lanes, per-row register accumulation
    /// over the valid prefix.
    #[inline]
    pub fn apply<X: VecIn<T>, Y: VecOut<T>>(&self, x: &X, y: &mut Y) {
        for (r, &row) in self.row_ids.iter().enumerate() {
            let i = row as usize;
            let base = r * self.width;
            let mut acc = y.load(i);
            for k in base..base + self.row_len[r] as usize {
                acc = self.vals[k].mul_add(x.load(self.cols[k] as usize), acc);
            }
            y.store(i, acc);
        }
    }

    /// `y += Aᵀ x`: rows ascending, scatter over the valid prefix.
    #[inline]
    pub fn apply_t<X: VecIn<T>, Y: VecOut<T>>(&self, x: &X, y: &mut Y) {
        for (r, &row) in self.row_ids.iter().enumerate() {
            let xv = x.load(row as usize);
            let base = r * self.width;
            for k in base..base + self.row_len[r] as usize {
                let j = self.cols[k] as usize;
                y.store(j, self.vals[k].mul_add(xv, y.load(j)));
            }
        }
    }
}

impl<T: Scalar> BcsrTile<T> {
    /// `y += A x` with the block size monomorphized so the `BS`-wide
    /// register accumulators unroll.
    #[inline]
    pub fn apply<X: VecIn<T>, Y: VecOut<T>>(&self, x: &X, y: &mut Y) {
        match self.bs {
            2 => self.fwd::<X, Y, 2>(x, y),
            4 => self.fwd::<X, Y, 4>(x, y),
            8 => self.fwd::<X, Y, 8>(x, y),
            _ => unreachable!("unsupported block size {}", self.bs),
        }
    }

    /// `y += Aᵀ x`, block size monomorphized.
    #[inline]
    pub fn apply_t<X: VecIn<T>, Y: VecOut<T>>(&self, x: &X, y: &mut Y) {
        match self.bs {
            2 => self.bwd::<X, Y, 2>(x, y),
            4 => self.bwd::<X, Y, 4>(x, y),
            8 => self.bwd::<X, Y, 8>(x, y),
            _ => unreachable!("unsupported block size {}", self.bs),
        }
    }

    /// Forward: per block row, `BS` output accumulators live in
    /// registers while each block's `BS` inputs are loaded once and
    /// reused by every row of the block.
    fn fwd<X: VecIn<T>, Y: VecOut<T>, const BS: usize>(&self, x: &X, y: &mut Y) {
        for (br, &brow) in self.brow_ids.iter().enumerate() {
            let row0 = brow as usize * BS;
            let mut acc = [T::ZERO; BS];
            for (lr, a) in acc.iter_mut().enumerate() {
                *a = y.load(row0 + lr);
            }
            for b in self.bptr[br]..self.bptr[br + 1] {
                let col0 = self.bcols[b] as usize * BS;
                let mut xs = [T::ZERO; BS];
                for (lc, xv) in xs.iter_mut().enumerate() {
                    *xv = x.load(col0 + lc);
                }
                let vbase = b * BS * BS;
                for (lr, a) in acc.iter_mut().enumerate() {
                    for (lc, &xv) in xs.iter().enumerate() {
                        *a = self.vals[vbase + lr * BS + lc].mul_add(xv, *a);
                    }
                }
            }
            for (lr, &a) in acc.iter().enumerate() {
                y.store(row0 + lr, a);
            }
        }
    }

    /// Transpose: per block row, the `BS` inputs are loaded once and
    /// each block scatters `BS` column accumulations. Local rows
    /// ascend inside each block, so every output column sees
    /// ascending global rows — the CSR-transpose order.
    fn bwd<X: VecIn<T>, Y: VecOut<T>, const BS: usize>(&self, x: &X, y: &mut Y) {
        for (br, &brow) in self.brow_ids.iter().enumerate() {
            let row0 = brow as usize * BS;
            let mut xs = [T::ZERO; BS];
            for (lr, xv) in xs.iter_mut().enumerate() {
                *xv = x.load(row0 + lr);
            }
            for b in self.bptr[br]..self.bptr[br + 1] {
                let col0 = self.bcols[b] as usize * BS;
                let vbase = b * BS * BS;
                let mut acc = [T::ZERO; BS];
                for (lc, a) in acc.iter_mut().enumerate() {
                    *a = y.load(col0 + lc);
                }
                for (lr, &xv) in xs.iter().enumerate() {
                    for (lc, a) in acc.iter_mut().enumerate() {
                        *a = self.vals[vbase + lr * BS + lc].mul_add(xv, *a);
                    }
                }
                for (lc, &a) in acc.iter().enumerate() {
                    y.store(col0 + lc, a);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference `y += A x` straight from triplets in (row, col,
    /// input-order) sequence — the bitwise ground truth.
    fn reference(
        rows: &[u64],
        cols: &[u64],
        vals: &[f64],
        x: &[f64],
        y: &mut [f64],
        transpose: bool,
    ) {
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

    #[test]
    fn task_names_round_trip_every_kind_and_flag() {
        let mut seen = std::collections::BTreeSet::new();
        for kind in KernelKind::ALL {
            for transpose in [false, true] {
                for zero in [false, true] {
                    let name = kind.task_name(transpose, zero);
                    let flags = format!(
                        "spmv_{}{}{}",
                        if transpose { "t_" } else { "" },
                        kind.name(),
                        if zero { "_z" } else { "" }
                    );
                    assert_eq!(name, flags);
                    assert!(seen.insert(name), "{name} names two kernels");
                }
            }
        }
    }

    fn tridiag(n: u64) -> (Vec<u64>, Vec<u64>, Vec<f64>) {
        let mut r = Vec::new();
        let mut c = Vec::new();
        let mut v = Vec::new();
        for i in 0..n {
            for (dj, val) in [(-1i64, -1.0), (0, 2.0), (1, -1.0)] {
                let j = i as i64 + dj;
                if j >= 0 && (j as u64) < n {
                    r.push(i);
                    c.push(j as u64);
                    v.push(val + 0.01 * i as f64);
                }
            }
        }
        (r, c, v)
    }

    fn check_all_kinds(rows: &[u64], cols: &[u64], vals: &[f64], n: usize) {
        let x: Vec<f64> = (0..n).map(|i| 0.3 + 0.7 * i as f64).collect();
        for transpose in [false, true] {
            let mut want = vec![0.1; n];
            reference(rows, cols, vals, &x, &mut want, transpose);
            for kind in KernelKind::ALL {
                let k = TileKernel::lower(rows, cols, vals, KernelChoice::Force(kind));
                let mut got = vec![0.1; n];
                k.apply_slices(&x, &mut got, transpose);
                assert_eq!(
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "kind {kind:?} transpose {transpose} differs"
                );
            }
        }
    }

    #[test]
    fn tridiagonal_selects_dia_and_matches() {
        let (r, c, v) = tridiag(32);
        let s = TileStructure::analyze(&r, &c, &v);
        assert_eq!(s.diag_count, 3);
        assert_eq!(s.select(), KernelKind::Dia);
        check_all_kinds(&r, &c, &v, 32);
    }

    #[test]
    fn dense_blocks_select_bcsr() {
        // Two dense 4x4 blocks on the block diagonal.
        let mut r = Vec::new();
        let mut c = Vec::new();
        let mut v = Vec::new();
        for b in 0..2u64 {
            for i in 0..4u64 {
                for j in 0..4u64 {
                    r.push(b * 4 + i);
                    c.push(b * 4 + j);
                    v.push((1 + i + 2 * j + b) as f64);
                }
            }
        }
        let s = TileStructure::analyze(&r, &c, &v);
        assert_eq!(s.dense_block, Some(4));
        assert_eq!(s.select(), KernelKind::Bcsr);
        check_all_kinds(&r, &c, &v, 8);
    }

    #[test]
    fn duplicates_force_csr_everywhere() {
        let r = vec![1, 1, 1, 2];
        let c = vec![3, 3, 0, 2];
        let v = vec![0.1, 0.2, 0.3, 0.4];
        let s = TileStructure::analyze(&r, &c, &v);
        assert!(s.has_duplicates);
        assert_eq!(s.select(), KernelKind::Csr);
        // Forcing any kind must fall back without changing bits.
        for kind in KernelKind::ALL {
            let k = TileKernel::lower(&r, &c, &v, KernelChoice::Force(kind));
            assert_eq!(k.kind(), Some(KernelKind::Csr));
        }
        check_all_kinds(&r, &c, &v, 4);
    }

    #[test]
    fn empty_and_singleton_tiles() {
        let k = TileKernel::<f64>::lower(&[], &[], &[], KernelChoice::Auto);
        assert!(k.is_empty());
        assert_eq!(k.nnz(), 0);
        let r = vec![5u64];
        let c = vec![2u64];
        let v = vec![-3.25];
        check_all_kinds(&r, &c, &v, 8);
    }

    #[test]
    fn uniform_rows_select_ell() {
        // 8 rows x 3 scattered (non-banded) entries each.
        let mut r = Vec::new();
        let mut c = Vec::new();
        let mut v = Vec::new();
        for i in 0..8u64 {
            for (s, j) in [(3u64, 0u64), (11, 1), (23, 2)] {
                r.push(i);
                c.push((i * 7 + s) % 31);
                v.push((i + j + 1) as f64 * 0.5);
            }
        }
        let s = TileStructure::analyze(&r, &c, &v);
        assert_eq!(s.select(), KernelKind::Ell);
        check_all_kinds(&r, &c, &v, 31);
    }

    #[test]
    fn seeded_random_scatter_selects_csr() {
        // Irregular row lengths (1..=16) at seeded random columns, no
        // repeated coordinate: nothing banded, padded or blocked pays.
        let n = 1u64 << 10;
        let mut next = crate::triples::xorshift(0x9e37_79b9_7f4a_7c15);
        let mut coords = Vec::new();
        for i in 0..n {
            for _ in 0..1 + next() % 16 {
                coords.push((i, next() % n));
            }
        }
        coords.sort_unstable();
        coords.dedup();
        let (r, c): (Vec<u64>, Vec<u64>) = coords.into_iter().unzip();
        let v: Vec<f64> = r.iter().map(|_| 1.0 + (next() % 8) as f64 * 0.25).collect();
        let s = TileStructure::analyze(&r, &c, &v);
        assert!(!s.has_duplicates);
        assert_eq!(s.select(), KernelKind::Csr);
        check_all_kinds(&r, &c, &v, n as usize);
    }

    /// The dense-block rule as first implemented — count the entries
    /// of every touched aligned block in a hash map — kept as the
    /// oracle for the hash-free scan of the canonical order.
    fn dense_block_oracle(rows: &[u64], cols: &[u64]) -> Option<usize> {
        use std::collections::{HashMap, HashSet};
        let distinct: HashSet<(u64, u64)> =
            rows.iter().copied().zip(cols.iter().copied()).collect();
        if rows.is_empty() || distinct.len() != rows.len() {
            return None;
        }
        BCSR_BLOCK_SIZES.into_iter().find(|&bs| {
            let mut blocks: HashMap<(u64, u64), usize> = HashMap::new();
            for (&r, &c) in rows.iter().zip(cols) {
                *blocks.entry((r / bs as u64, c / bs as u64)).or_insert(0) += 1;
            }
            rows.len() % (bs * bs) == 0 && blocks.values().all(|&n| n == bs * bs)
        })
    }

    /// Coordinates of full `bs × bs` blocks with their top-left corners
    /// at `corners` (aligned or not).
    fn filled_blocks(bs: u64, corners: &[(u64, u64)]) -> Vec<(u64, u64)> {
        let cell = |&(r0, c0): &(u64, u64)| (0..bs * bs).map(move |k| (r0 + k / bs, c0 + k % bs));
        corners.iter().flat_map(cell).collect()
    }

    fn assert_dense_block_matches_oracle(coords: &[(u64, u64)], what: &str) -> Option<usize> {
        let (r, c): (Vec<u64>, Vec<u64>) = coords.iter().copied().unzip();
        let got = TileStructure::analyze(&r, &c, &r).dense_block;
        assert_eq!(got, dense_block_oracle(&r, &c), "{what}: {coords:?}");
        got
    }

    #[test]
    fn dense_block_scan_matches_the_block_counting_oracle() {
        for bs in [8u64, 4, 2] {
            let grid = [
                (0, bs),
                (0, 3 * bs),
                (bs, 0),
                (2 * bs, 2 * bs),
                (2 * bs, 3 * bs),
            ];
            let blocked = filled_blocks(bs, &grid);
            assert_eq!(
                assert_dense_block_matches_oracle(&blocked, "blocked"),
                Some(bs as usize)
            );

            let mut missing = blocked.clone();
            missing.remove(blocked.len() / 2);
            assert_dense_block_matches_oracle(&missing, "one entry missing");

            let mut shifted = grid;
            shifted[3].1 += 1;
            assert_dense_block_matches_oracle(&filled_blocks(bs, &shifted), "block off the grid");
            shifted[3] = (2 * bs + 1, 2 * bs);
            assert_dense_block_matches_oracle(&filled_blocks(bs, &shifted), "block off the grid");

            // The last row group stops one row short; a full block's
            // worth of entries elsewhere keeps `nnz` a multiple of bs².
            let mut partial = filled_blocks(bs, &[(0, 0), (bs, 0), (bs, bs)]);
            partial.retain(|&(r, c)| !(r == 2 * bs - 1 && c >= bs));
            partial.extend((0..bs).map(|k| (4 * bs, k)));
            assert_eq!(partial.len() as u64 % (bs * bs), 0);
            assert_dense_block_matches_oracle(&partial, "partial last row group");

            // bs² entries, every row group complete, nothing blocked.
            let diagonal: Vec<(u64, u64)> = (0..bs * bs).map(|k| (k, k)).collect();
            assert_dense_block_matches_oracle(&diagonal, "divisible but not blocked");

            // Same rows per group, different column lists.
            let mut ragged = filled_blocks(bs, &[(0, 0)]);
            ragged[0].1 = bs;
            assert_dense_block_matches_oracle(&ragged, "rows of a group differ");

            let mut dup = blocked.clone();
            dup.push(blocked[3]);
            assert_eq!(assert_dense_block_matches_oracle(&dup, "duplicate"), None);
        }
        // An 8-blocked tile is 4- and 2-blocked too; the largest wins.
        let nested = filled_blocks(8, &[(8, 0), (8, 16)]);
        assert_eq!(
            assert_dense_block_matches_oracle(&nested, "nested"),
            Some(8)
        );

        // Random unions of blocks, perturbed half the time, arriving
        // in scrambled order.
        let mut next = crate::triples::xorshift(0x5eed_b10c);
        let mut blocked_seen = 0;
        for round in 0..600 {
            let bs = [2u64, 4, 8][round % 3];
            let corners: Vec<(u64, u64)> = (0..1 + next() % 5)
                .map(|_| (next() % 4 * bs, next() % 4 * bs))
                .collect();
            let mut coords = filled_blocks(bs, &corners);
            coords.sort_unstable();
            coords.dedup();
            match next() % 4 {
                0 => {
                    coords.remove((next() % coords.len() as u64) as usize);
                }
                1 => coords.push((next() % (4 * bs), next() % (4 * bs))),
                _ => {}
            }
            for k in (1..coords.len()).rev() {
                coords.swap(k, (next() % (k as u64 + 1)) as usize);
            }
            if !coords.is_empty() {
                blocked_seen +=
                    usize::from(assert_dense_block_matches_oracle(&coords, "random").is_some());
            }
        }
        assert!(
            blocked_seen > 100,
            "only {blocked_seen} random tiles were blocked"
        );
    }

    /// `entries` in canonical order, and a scramble of them that keeps
    /// entries of equal coordinates in their relative order.
    fn sorted_and_scrambled(
        mut entries: Vec<(u64, u64, f64)>,
        seed: u64,
    ) -> [(Vec<u64>, Vec<u64>, Vec<f64>); 2] {
        entries.sort_by_key(|&(r, c, _)| (r, c));
        let mut next = crate::triples::xorshift(seed);
        let mut keys: Vec<u64> = entries.iter().map(|_| next()).collect();
        // Equal coordinates are adjacent: give each such group its own
        // keys in ascending order, so sorting by key keeps its order.
        let mut lo = 0;
        while lo < entries.len() {
            let same = |e: &(u64, u64, f64)| (e.0, e.1) == (entries[lo].0, entries[lo].1);
            let hi = lo + entries[lo..].iter().take_while(|e| same(e)).count();
            keys[lo..hi].sort_unstable();
            lo = hi;
        }
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by_key(|&k| keys[k]);
        let split = |es: &mut dyn Iterator<Item = (u64, u64, f64)>| {
            let mut out = (Vec::new(), Vec::new(), Vec::new());
            for (r, c, v) in es {
                out.0.push(r);
                out.1.push(c);
                out.2.push(v);
            }
            out
        };
        [
            split(&mut entries.iter().copied()),
            split(&mut order.iter().map(|&k| entries[k])),
        ]
    }

    #[test]
    fn lowering_is_blind_to_input_order() {
        let numbered = |coords: Vec<(u64, u64)>| -> Vec<(u64, u64, f64)> {
            let value = |k: usize| 0.5 + k as f64 * 0.125;
            coords
                .into_iter()
                .enumerate()
                .map(|(k, (r, c))| (r, c, value(k)))
                .collect()
        };
        let (tr, tc, _) = tridiag(24);
        let banded: Vec<(u64, u64)> = tr.into_iter().zip(tc).collect();
        let mut next = crate::triples::xorshift(0xd1ce);
        let scatter: Vec<(u64, u64)> = (0..200).map(|_| (next() % 12, next() % 12)).collect();
        let mut long_row: Vec<(u64, u64)> = (0..300).map(|k| (7, k % 100)).collect();
        long_row.push((2, 5));
        let cases = [
            ("banded", banded),
            ("blocked", filled_blocks(4, &[(0, 4), (4, 0), (4, 8)])),
            ("scatter with duplicates", scatter),
            ("one long row with duplicates", long_row),
            (
                "hyper-sparse rows",
                vec![(1 << 40, 3), (5, 9), (1 << 40, 1), (5, 9), (77, 0)],
            ),
            // Diagonals far apart: offsets sorted, not marked. A CSR
            // payload's columns are `u32`, so the far column is the
            // last that fits.
            (
                "hyper-sparse columns",
                vec![(0, u32::MAX.into()), (1, 0), (0, 2), (1, u32::MAX.into())],
            ),
        ];
        let choices = std::iter::once(KernelChoice::Auto)
            .chain(KernelKind::ALL.into_iter().map(KernelChoice::Force));
        for choice in choices {
            for (what, coords) in &cases {
                let [sorted, scrambled] = sorted_and_scrambled(numbered(coords.clone()), 0xfeed);
                assert_ne!(sorted.2, scrambled.2, "{what}: the scramble moved nothing");
                let lower = |t: &(Vec<u64>, Vec<u64>, Vec<f64>)| {
                    let (k, s) = TileKernel::lower_with_structure(&t.0, &t.1, &t.2, choice);
                    format!("{k:?} {s:?}")
                };
                assert_eq!(lower(&sorted), lower(&scrambled), "{what} under {choice:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "a CSR tile's columns fit u32")]
    fn a_column_past_u32_is_refused_not_truncated() {
        let far = u64::from(u32::MAX) + 1;
        TileKernel::lower(
            &[0, 0],
            &[1, far],
            &[1.0, 2.0],
            KernelChoice::Force(KernelKind::Csr),
        );
    }

    #[test]
    fn same_bits_tells_zeros_apart_and_nan_from_everything() {
        for (a, b) in [(1.5, 1.5), (0.0, 0.0), (-0.0, -0.0), (f64::INFINITY, f64::INFINITY)] {
            assert!(same_bits(a, b), "{a} {b}");
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in [(0.0, -0.0), (-0.0, 0.0), (1.5, -1.5), (1.0, 1.0 + f64::EPSILON)] {
            assert!(!same_bits(a, b), "{a} {b}");
        }
        assert!(!same_bits(f64::NAN, f64::NAN));
        assert!(!same_bits(f64::NAN, 1.0));
        assert!(same_bits(-0.0f32, -0.0f32) && !same_bits(0.0f32, -0.0f32));
    }

    #[test]
    fn dia_holds_a_constant_diagonal_once() {
        // Tridiagonal, 20 rows: the sub-diagonal constant, the main
        // diagonal constant but for one entry, the super-diagonal
        // `+0.0` with one `-0.0`.
        let n = 20u64;
        let (mut r, mut c, mut v) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..n {
            let main = if i == 7 { 2.5 } else { 2.0 };
            let sup = if i == 3 { -0.0 } else { 0.0 };
            for (j, val) in [(i.wrapping_sub(1), -1.0), (i, main), (i + 1, sup)] {
                if j < n {
                    r.push(i);
                    c.push(j);
                    v.push(val);
                }
            }
        }
        let k = TileKernel::lower(&r, &c, &v, KernelChoice::Force(KernelKind::Dia));
        let TileKernel::Dia(t) = &k else {
            panic!("lowered to {:?}", k.kind())
        };
        assert_eq!(
            t.coefs,
            [DiaCoef::Const(-1.0), DiaCoef::Dense(0), DiaCoef::Dense(n as usize)]
        );
        assert_eq!(t.vals.len(), 2 * n as usize);
        assert_eq!(k.value_bytes(), std::mem::size_of::<f64>() * (1 + 2 * n as usize));
        assert_eq!(k.nnz(), v.len());
        // Rows 0, 1..19 and 19 differ in their diagonals: three
        // segments, 2 + 3 + 2 (segment, diagonal) pairs.
        assert_eq!(t.seg_rows, [(0, 1), (1, 19), (19, 20)]);
        assert_eq!(t.seg_diags, [1, 2, 0, 1, 2, 0, 1]);
        check_all_kinds(&r, &c, &v, n as usize);

        // All three constant: three values, no dense column.
        let ones = vec![1.0f32; v.len()];
        let k = TileKernel::lower(&r, &c, &ones, KernelChoice::Force(KernelKind::Dia));
        assert_eq!(k.value_bytes(), 3 * std::mem::size_of::<f32>());
        assert_eq!(k.nnz(), v.len());
    }

    /// Ten rows of a band with offsets `{−1, 0, 1, 20}` (row 0 has no
    /// `−1`), but row 5, which holds `row5`: the forward plan of its
    /// forced-DIA lowering, checked against CSR.
    fn plan_with_row5(row5: &[i64]) -> (Vec<Pass>, Vec<u32>) {
        let (mut r, mut c, mut v) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..10i64 {
            let offsets: &[i64] = if i == 5 { row5 } else { &[-1, 0, 1, 20] };
            for &d in offsets.iter().filter(|&&d| i + d >= 0) {
                r.push(i as u64);
                c.push((i + d) as u64);
                v.push(if d == 0 { 4.0 } else { -1.0 });
            }
        }
        check_all_kinds(&r, &c, &v, 31);
        let k = TileKernel::lower(&r, &c, &v, KernelChoice::Force(KernelKind::Dia));
        let TileKernel::Dia(t) = k else {
            panic!("lowered to {:?}", k.kind())
        };
        (t.passes, t.patches)
    }

    #[test]
    fn a_row_whose_pass_reads_leave_the_tiles_columns_splits_the_pass() {
        // Row 5 without `+20`: the pass would read column 25 for it,
        // which no entry reads, so rows 1..5 and 6..10 are two passes
        // and row 5 a row alone. Row 0 cannot join either: its `−1`
        // is column −1.
        let pass = |rows, set, patches| Pass { rows, set, patches };
        let (passes, patches) = plan_with_row5(&[-1, 0, 1]);
        assert_eq!(
            passes,
            [
                pass((0, 1), 0, (0, 0)),
                pass((1, 5), 1, (0, 0)),
                pass((5, 6), 2, (0, 0)),
                pass((6, 10), 3, (0, 0))
            ]
        );
        assert!(patches.is_empty());
        // Row 5 without `−1`: every column the pass reads for it, 4 to
        // 6 and 25, an entry reads, so it is a patch row of one pass.
        let (passes, patches) = plan_with_row5(&[0, 1, 20]);
        assert_eq!(passes, [pass((0, 1), 0, (0, 0)), pass((1, 10), 1, (0, 1))]);
        assert_eq!(patches, [2]);
    }

    /// Where stored row `s` of `t` keeps its entries, in column order.
    fn entries_of<T>(t: &CsrTile<T>, s: usize) -> Vec<usize> {
        let len = t.row_ptr[s + 1] - t.row_ptr[s];
        match t.lane(s) {
            Some((g, lane)) => (0..len)
                .map(|k| t.row_ptr[g] + CSR_GROUP * k + lane)
                .collect(),
            None => (t.row_ptr[s]..t.row_ptr[s + 1]).collect(),
        }
    }

    #[test]
    fn csr_rows_are_stored_by_length_and_listed_by_row() {
        // 300 rows of 1..=16 entries at random columns, repeats kept,
        // every fifth row empty, arriving in random order.
        let mut next = crate::triples::xorshift(0xb1e_55ed);
        let mut entries = Vec::new();
        for i in (0..300u64).filter(|i| i % 5 != 4) {
            for _ in 0..1 + next() % 16 {
                entries.push((i, next() % 40, (next() % 64) as f64 - 31.5));
            }
        }
        let [_, (r, c, v)] = sorted_and_scrambled(entries, 0x5ca7);
        for choice in [KernelChoice::Auto, KernelChoice::Force(KernelKind::Csr)] {
            let k = TileKernel::lower(&r, &c, &v, choice);
            let TileKernel::Csr(t) = &k else {
                panic!("lowered to {:?}", k.kind())
            };
            let len = |s: usize| t.row_ptr[s + 1] - t.row_ptr[s];
            let stored = t.row_ids.len();
            assert_eq!(stored, 240);
            for s in 1..stored {
                assert!(len(s - 1) <= len(s), "lengths fall at stored row {s}");
                if len(s - 1) == len(s) {
                    assert!(
                        t.row_ids[s - 1] < t.row_ids[s],
                        "rows of one length descend at {s}"
                    );
                }
            }
            // `by_row` is a permutation of the stored rows that lists
            // them by ascending row id.
            let mut seen = vec![false; stored];
            for &s in &t.by_row {
                assert!(
                    !std::mem::replace(&mut seen[s as usize], true),
                    "{s} listed twice"
                );
            }
            assert_eq!(t.by_row.len(), stored);
            let by_row: Vec<u64> = t.by_row.iter().map(|&s| t.row_ids[s as usize]).collect();
            assert!(by_row.windows(2).all(|w| w[0] < w[1]));
            // Read through `by_row`, the entries are the canonical order.
            let mut canonical: Vec<(u64, u64, u64)> = Vec::new();
            for &s in &t.by_row {
                let row = t.row_ids[s as usize];
                let entries = entries_of(t, s as usize).into_iter();
                canonical.extend(entries.map(|e| (row, u64::from(t.cols[e]), t.vals[e].to_bits())));
            }
            let mut want: Vec<usize> = (0..r.len()).collect();
            want.sort_by_key(|&e| (r[e], c[e]));
            let want: Vec<(u64, u64, u64)> = want
                .into_iter()
                .map(|e| (r[e], c[e], v[e].to_bits()))
                .collect();
            assert_eq!(canonical, want);
        }
        check_all_kinds(&r, &c, &v, 300);
    }

    #[test]
    fn csr_groups_hold_every_entry_once() {
        // Lengths 1..=6 with 1, 7, 8, 9, 16 and 17 rows, row ids
        // interleaved and every third one empty, a repeat in every
        // fifth row: each length's first ⌊rows / 8⌋ · 8 rows are
        // groups, the rest rows of their own.
        let counts = [1u64, 7, 8, 9, 16, 17];
        let mut next = crate::triples::xorshift(0x6209);
        let mut entries = Vec::new();
        let mut i = 0u64;
        for n in 0..*counts.iter().max().unwrap() {
            for (l, &count) in counts.iter().enumerate() {
                if n < count {
                    i += 1 + u64::from(i % 3 == 0);
                    let mut cols: Vec<u64> = (0..=l).map(|_| next() % 50).collect();
                    if i % 5 == 0 {
                        cols[l] = cols[0];
                    }
                    for (k, j) in cols.into_iter().enumerate() {
                        entries.push((i, j, k as f64 / 3.0 + i as f64));
                    }
                }
            }
        }
        let [_, (r, c, v)] = sorted_and_scrambled(entries, 0x90);
        let k = TileKernel::lower(&r, &c, &v, KernelChoice::Force(KernelKind::Csr));
        let TileKernel::Csr(t) = &k else {
            panic!("lowered to {:?}", k.kind())
        };
        assert_eq!(t.by_len.len(), counts.len() + 2);
        let mut held = vec![0u8; t.vals.len()];
        for (len, rows) in t.by_len.windows(2).enumerate() {
            let rows = rows[0] as usize..rows[1] as usize;
            let grouped = rows.len() / CSR_GROUP * CSR_GROUP;
            for s in rows.clone() {
                let in_group = s - rows.start < grouped;
                assert_eq!(t.lane(s).is_some(), in_group, "stored row {s}");
                let entries = entries_of(t, s);
                assert_eq!(entries.len(), len, "stored row {s}");
                entries.iter().for_each(|&e| held[e] += 1);
            }
        }
        assert!(
            held.iter().all(|&n| n == 1),
            "an entry held {:?} times",
            held.iter().max()
        );
        // Read back through `by_row`: the canonical tile.
        let mut canonical: Vec<(u64, u64, u64)> = Vec::new();
        for &s in &t.by_row {
            let row = t.row_ids[s as usize];
            let entries = entries_of(t, s as usize).into_iter();
            canonical.extend(entries.map(|e| (row, u64::from(t.cols[e]), t.vals[e].to_bits())));
        }
        let mut want: Vec<usize> = (0..r.len()).collect();
        want.sort_by_key(|&e| (r[e], c[e]));
        let want: Vec<(u64, u64, u64)> = want
            .into_iter()
            .map(|e| (r[e], c[e], v[e].to_bits()))
            .collect();
        assert_eq!(canonical, want);
        check_all_kinds(&r, &c, &v, i as usize + 1);
    }

    #[test]
    fn nnz_survives_every_lowering() {
        let (r, c, v) = tridiag(16);
        for kind in KernelKind::ALL {
            let k = TileKernel::lower(&r, &c, &v, KernelChoice::Force(kind));
            assert_eq!(k.nnz(), v.len(), "{kind:?}");
        }
    }
}
