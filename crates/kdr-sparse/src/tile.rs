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
//! column list (no hashing, first failure exits). The chosen layout then
//! copies what it keeps: the CSR payload its rows by entry count (a
//! counting sort over the row lengths, then one gather of the rows), ELL
//! its padded rows, BCSR its blocks, and DIA one group per segment into
//! its tables, plus a dense column for each diagonal that is not one
//! value. No lowering re-sorts, searches per entry, re-scans for the row
//! span or re-counts blocks.
//!
//! # Bitwise-reproducibility contract
//!
//! Every kernel in the family accumulates each output element's
//! contributions in **exactly the same order** as the CSR reference
//! kernel: ascending column within a row for the forward product, and
//! ascending row per output column for the transpose. Only the order
//! *between* rows of the forward product is free, because rows write
//! disjoint outputs: the CSR payload runs its rows by length, DIA by
//! row blocks, and each row's chain is the same. Padding slots
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
//! sums its neighbour lines first and multiplies once, so its rows are
//! not the CSR chain. What holds for those rows instead:
//!
//! * each row's bits are a function of the operator and `x` alone —
//!   the same in two runs, on any number of workers, and whichever tile
//!   (of any row range, mid-line cuts included) computes the row, as
//!   long as that tile is a box-stencil band;
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
    /// one length run back to back, with an index that lists them by
    /// row for the transpose; handles any structure (including
    /// duplicate coordinates) and is the reference for the bitwise
    /// contract.
    Csr,
    /// Banded layout addressed by diagonal offset: a diagonal whose
    /// values are all the same bits holds that value once, any other a
    /// dense column; the forward product takes blocks of rows with the
    /// accumulators in registers and writes each row once, the
    /// transpose walks per-diagonal valid-row runs. Stride-1,
    /// gather-free loads either way.
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
    /// [`crate::matfree::StencilTile`]). Only reachable through an
    /// explicit stencil *descriptor*; lowering assembled triplets with
    /// `Force(Stencil)` falls back to CSR, so assembled input is never
    /// silently reinterpreted as a stencil.
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
    /// only a descriptor registration can produce it.
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
        let mean = nnz as f64 / nonempty_rows as f64;
        let mut sq_dev = 0.0f64;
        let mut has_duplicates = false;
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
                            marks[bit / 64] |= 1 << (bit % 64);
                        }
                    }
                    Offsets::Listed(list) => list.extend(cols.iter().map(|&c| offset(row, c))),
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
            row_span: (view.row_ids[nonempty_rows - 1] - view.row_ids[0] + 1) as usize,
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

/// CSR payload (the reference kernel). `row_ids` lists only rows with
/// entries; stored row `r` spans `cols/vals[row_ptr[r]..row_ptr[r+1]]`,
/// sorted by column (stable for duplicates), and `by_row` lists the
/// stored rows by ascending row id.
///
/// The lowered payload stores its rows by entry count, rows of equal
/// length by ascending row id: the forward product then meets rows of
/// one length back to back, and its per-row loop exits where the last
/// row's did. The tile's *canonical* form — rows ascending, `by_row` the
/// identity — is what lowering builds first, and the analysis and every
/// other layout read it.
#[derive(Clone, Debug)]
pub struct CsrTile<T> {
    /// Component-local row coordinates of the stored rows, nonempty
    /// rows only.
    pub row_ids: Vec<u64>,
    /// Entry ranges per stored row (`row_ids.len() + 1` offsets).
    pub row_ptr: Vec<usize>,
    /// Column coordinates, ascending within each row.
    pub cols: Vec<u64>,
    /// Entry values, aligned with `cols`.
    pub vals: Vec<T>,
    /// The stored index of the `k`-th lowest row: `row_ids[by_row[k]]`
    /// ascends with `k`. The transpose walks rows in this order.
    pub by_row: Vec<u32>,
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
/// of present diagonals is fixed (the forward product walks these).
/// Either way padding is skipped structurally.
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
}

/// A band that is a 27-point box stencil of two constants: the
/// diagonals are the offsets `a + b·n_z + c·plane` for `a, b, c ∈ {−1,
/// 0, 1}`, the centre holds `c0` and every other diagonal the same bits
/// `c1`, and each row holds the product `Z × Y × X` of those steps —
/// `Z` and `Y` clipped exactly at the grid's faces (`k ∈ {0, n_z − 1}`,
/// `j ∈ {0, plane / n_z − 1}` for row `(i·plane / n_z + j)·n_z + k`),
/// `X` containing 0 and the same for every row of a plane. Such a row
/// is `(c0 − c1)·x[r] + c1·Σ x` over its box, which the forward product
/// computes as line sums (module docs, "One exception").
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

/// Rows of a grid line the box-stencil product sums at a time: its line
/// buffer is a fixed array of this many rows and one on either side,
/// and longer lines are taken in chunks (which changes no bit).
const BOX_LINE_CHUNK: usize = 256;

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

    /// The band, with no dense column placed yet, and whether it is a
    /// box stencil (a band with a dense column is not).
    pub(crate) fn finish(self) -> DiaTile<T> {
        let mut band = self.band;
        band.seg_ptr.push(band.seg_diags.len());
        for of_diag in &self.diag_runs {
            band.run_ptr.push(band.runs.len());
            band.runs.extend_from_slice(of_diag);
        }
        band.run_ptr.push(band.runs.len());
        band.box_stencil = box_stencil_of(&band);
        band
    }
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
    /// Never produced by [`TileKernel::lower`]; built directly from the
    /// descriptor by the execution backend.
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
    fn of_tile(tile: &'a CsrTile<T>) -> Self {
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
    /// The CSR payload: the rows stored by entry count, rows of equal
    /// length in ascending row order — a counting sort over the row
    /// lengths (at most `max_row_len`) places each row, then one gather
    /// per array copies the rows there.
    fn by_length(&self, max_row_len: usize) -> CsrTile<T> {
        let stored = self.spans.len();
        assert!(
            u32::try_from(stored).is_ok(),
            "a tile's stored rows fit u32"
        );
        // First stored index of each row length.
        let mut next = vec![0u32; max_row_len + 1];
        for span in &self.spans {
            next[span.len()] += 1;
        }
        let mut at = 0;
        for slot in &mut next {
            let count = *slot;
            *slot = at;
            at += count;
        }
        // Rows ascend in the canonical order, so each length's rows
        // are placed in ascending order too.
        let mut by_row = Vec::with_capacity(stored);
        let mut placed = vec![0u32; stored];
        for (r, span) in (0u32..).zip(&self.spans) {
            let s = &mut next[span.len()];
            by_row.push(*s);
            placed[*s as usize] = r;
            *s += 1;
        }
        let mut row_ptr = Vec::with_capacity(stored + 1);
        row_ptr.push(0);
        let mut cols = Vec::with_capacity(self.nnz);
        for &r in &placed {
            cols.extend(
                self.cols[self.spans[r as usize].clone()]
                    .iter()
                    .map(|c| c.to_u64()),
            );
            row_ptr.push(cols.len());
        }
        let mut vals = Vec::with_capacity(self.nnz);
        for &r in &placed {
            vals.extend_from_slice(&self.vals[self.spans[r as usize].clone()]);
        }
        CsrTile {
            row_ids: placed.iter().map(|&r| self.row_ids[r as usize]).collect(),
            row_ptr,
            cols,
            vals,
            by_row,
        }
    }
}

/// One tile's entries on their way to lowering, gathered in the
/// canonical order of the kernel family: rows ascending, each row's
/// entries by column, equal coordinates in input order.
///
/// Registration gathers a tile here only when its format does not lend
/// its rows ([`crate::SparseMatrix::lower_stored_rows`]): an enumerated
/// format, or a CSR matrix whose rows are out of order. While entries
/// arrive ([`TileRows::push`]) in canonical order the builder holds
/// exactly the canonical [`CsrTile`]'s arrays — row ids, row starts,
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
    fn into_canonical(self) -> CsrTile<T> {
        let TileRows {
            row_ids,
            starts: mut row_ptr,
            cols,
            vals,
            scattered,
        } = self;
        if let Some(rows) = scattered {
            return CsrTile::sorted(&rows, &cols, &vals);
        }
        row_ptr.push(cols.len());
        let stored = u32::try_from(row_ids.len()).expect("a tile's stored rows fit u32");
        CsrTile {
            row_ids,
            row_ptr,
            cols,
            vals,
            by_row: (0..stored).collect(),
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

impl<T: Copy> CsrTile<T> {
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
        let stored = u32::try_from(row_ids.len()).expect("a tile's stored rows fit u32");
        CsrTile {
            row_ids,
            row_ptr,
            cols: cs,
            vals: vs,
            by_row: (0..stored).collect(),
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
            // bitwise contract means never guessing one. Registering
            // via a stencil descriptor is the only route to the
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
        if s.has_duplicates {
            return None;
        }
        let slots = s.diag_count.checked_mul(s.row_span)?;
        if slots > DIA_MAX_EXPANSION * s.nnz + 1024 {
            return None; // forced-DIA memory guard
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

    /// Slice convenience wrapper over [`TileKernel::apply`] (tests,
    /// benchmarks, reference checks).
    pub fn apply_slices(&self, x: &[T], y: &mut [T], transpose: bool) {
        let mut yy = y;
        self.apply(&x, &mut yy, transpose);
    }
}

impl<T: Scalar> CsrTile<T> {
    /// `y += A x`: per-row register accumulation, columns ascending,
    /// the rows in stored order — by length, which keeps the inner
    /// loop's trip count the same from one row to the next. Rows write
    /// disjoint outputs, so the order between them changes no bit.
    #[inline]
    pub fn apply<X: VecIn<T>, Y: VecOut<T>>(&self, x: &X, y: &mut Y) {
        for (r, &row) in self.row_ids.iter().enumerate() {
            let i = row as usize;
            let mut acc = y.load(i);
            for idx in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc = self.vals[idx].mul_add(x.load(self.cols[idx] as usize), acc);
            }
            y.store(i, acc);
        }
    }

    /// `y += Aᵀ x`: rows ascending through `by_row` — every output
    /// column receives its contributions in ascending row order — and
    /// a scatter along each row's slices with `x[row]` loaded once.
    #[inline]
    pub fn apply_t<X: VecIn<T>, Y: VecOut<T>>(&self, x: &X, y: &mut Y) {
        for &r in &self.by_row {
            let r = r as usize;
            let span = self.row_ptr[r]..self.row_ptr[r + 1];
            let xv = x.load(self.row_ids[r] as usize);
            for (&col, &v) in self.cols[span.clone()].iter().zip(&self.vals[span]) {
                let j = col as usize;
                y.store(j, v.mul_add(xv, y.load(j)));
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

/// One `y`-step of a box-stencil line sum: `u = (l₀ + l₁) + l₂` over the
/// lines of `x` starting at `starts` (one to three of them), stored into
/// `sums` when `first` and added to it otherwise — never `0 + u`, which
/// would turn a `-0.0` sum into `+0.0`.
#[inline(always)]
fn add_lines<T: Scalar, X: VecIn<T>>(x: &X, sums: &mut [T], starts: &[usize], first: bool) {
    let n = sums.len();
    let lines = [0, 1, 2].map(|q| starts.get(q).and_then(|&at| x.range(at, n)));
    match (starts.len(), lines) {
        (1, [Some(a), ..]) => accumulate(sums, first, a.iter().copied()),
        (2, [Some(a), Some(b), _]) => accumulate(sums, first, a.iter().zip(b).map(|(&a, &b)| a + b)),
        (3, [Some(a), Some(b), Some(c)]) => accumulate(sums, first, three(a, b, c)),
        _ => accumulate(
            sums,
            first,
            (0..n).map(|t| {
                let mut u = x.load(starts[0] + t);
                for &at in &starts[1..] {
                    u += x.load(at + t);
                }
                u
            }),
        ),
    }
}

/// The three [`add_lines`] of a line with all nine neighbour lines, in
/// one pass and with the same bits: `line_at(b, c)` is where the line
/// of `y`-step `b` and `x`-step `c` (each `0..3`) starts. `false`, with
/// nothing written, when `x` does not lend a line as a slice.
#[inline(always)]
fn add_nine_lines<T: Scalar, X: VecIn<T>>(
    x: &X,
    sums: &mut [T],
    line_at: impl Fn(usize, usize) -> usize,
) -> bool {
    let n = sums.len();
    let mut lines: [&[T]; 9] = [&[]; 9];
    for (q, line) in lines.iter_mut().enumerate() {
        match x.range(line_at(q / 3, q % 3), n) {
            Some(l) => *line = l,
            None => return false,
        }
    }
    let [a0, a1, a2, b0, b1, b2, c0, c1, c2] = lines;
    let rows = three(a0, a1, a2).zip(three(b0, b1, b2)).zip(three(c0, c1, c2));
    for (s, ((below, level), above)) in sums.iter_mut().zip(rows) {
        *s = (below + level) + above;
    }
    true
}

/// `(l₀[t] + l₁[t]) + l₂[t]`, for each `t` of the shortest line.
#[inline(always)]
fn three<'a, T: Scalar>(l0: &'a [T], l1: &'a [T], l2: &'a [T]) -> impl Iterator<Item = T> + 'a {
    l0.iter().zip(l1).zip(l2).map(|((&p, &q), &r)| (p + q) + r)
}

/// `sums[t] = u[t]` when `first`, `sums[t] + u[t]` otherwise, over all
/// of `sums`; `u` yields at least that many.
#[inline(always)]
fn accumulate<T: Scalar>(sums: &mut [T], first: bool, u: impl Iterator<Item = T>) {
    if first {
        sums.iter_mut().zip(u).for_each(|(s, u)| *s = u);
    } else {
        sums.iter_mut().zip(u).for_each(|(s, u)| *s += u);
    }
}

/// The `z` pass of a box-stencil chunk: rows `[k, k_hi)` of the line at
/// `base` (`n_z` rows), with `sums` the line sums from row
/// `max(k, 1) − 1`. Each row is `c1·z + (centre·x[r] + y[r])`, `z` the
/// sum of its one to three neighbours' line sums, lowest first.
#[inline(always)]
fn z_pass<T: Scalar, X: VecIn<T>, Y: VecOut<T>>(
    x: &X,
    y: &mut Y,
    sums: &[T],
    (base, k, k_hi, n_z): (usize, usize, usize, usize),
    (centre, c1): (T, T),
) {
    let (rows, row0) = (k_hi - k, base + k);
    // Row `k + t` is sum `at + t`; the line's first and last rows lack
    // one neighbour.
    let at = usize::from(k > 0);
    let z = |t: usize| {
        let s = if k + t > 0 { sums[at + t - 1] + sums[at + t] } else { sums[at + t] };
        if k + t + 1 < n_z {
            s + sums[at + t + 1]
        } else {
            s
        }
    };
    match (x.range(row0, rows), y.range_mut(row0, rows)) {
        (Some(xs), Some(ys)) => {
            let head = usize::from(k == 0);
            let body = head..rows - usize::from(k_hi == n_z);
            for t in (0..head).chain(body.end..rows) {
                ys[t] = c1.mul_add(z(t), centre.mul_add(xs[t], ys[t]));
            }
            // Interior rows, as zipped slices, which vectorizes.
            let len = body.len();
            let (below, mid, above) = (
                &sums[at + body.start - 1..][..len],
                &sums[at + body.start..][..len],
                &sums[at + body.start + 1..][..len],
            );
            let rows = ys[body.clone()].iter_mut().zip(&xs[body]);
            for ((y, &x), z) in rows.zip(three(below, mid, above)) {
                *y = c1.mul_add(z, centre.mul_add(x, *y));
            }
        }
        _ => {
            for t in 0..rows {
                let row = row0 + t;
                y.store(row, c1.mul_add(z(t), centre.mul_add(x.load(row), y.load(row))));
            }
        }
    }
}

impl<T> DiaTile<T> {
    /// Entries the band stands for: the rows of its runs.
    pub(crate) fn nnz(&self) -> usize {
        self.runs.iter().map(|&(lo, hi)| (hi - lo) as usize).sum()
    }
}

impl<T: Scalar> DiaTile<T> {
    /// `y += A x`: sum-factored, line by line, for a box-stencil band
    /// ([`DiaTile::box_stencil`]), and row-segment-major for every
    /// other (`apply_segments`).
    #[inline]
    pub fn apply<X: VecIn<T>, Y: VecOut<T>>(&self, x: &X, y: &mut Y) {
        match self.box_stencil {
            Some(stencil) => self.apply_box(stencil, x, y),
            None => self.apply_segments(x, y),
        }
    }

    /// `y += A x`, row-segment-major: a segment's rows are taken in
    /// blocks; a block of `y` is loaded into accumulators once, the
    /// segment's diagonals are folded in ascending as
    /// `coef.mul_add(x[row + offset], acc)`, and the block is stored
    /// once. Per output row that is ascending diagonal offset, which
    /// equals ascending column — the CSR chain; blocking only reorders
    /// *between* rows.
    ///
    /// A segment is whole 32-row blocks laid back from its end, before
    /// them 16-row blocks for the rows short of one more, before those
    /// 8-row blocks, and so on down to single rows — so the narrow
    /// blocks run first. At each width, when the rows short of one more
    /// block are more than half of one and the segment is at least a
    /// block long, they are not handed down: they are the *kept* rows
    /// of one more block of that width, which reads on into the rows
    /// after them, computes all of its rows and stores only its own.
    /// The rows it drops are stored by the blocks that follow, from the
    /// `y` they find untouched. A tail cut ever narrower instead pays
    /// the per-term bookkeeping once per width; and a block that
    /// recomputed rows *behind* it would reload `y` the block before
    /// has just stored, a load that waits for that store.
    #[inline]
    fn apply_segments<X: VecIn<T>, Y: VecOut<T>>(&self, x: &X, y: &mut Y) {
        // Of `n` leading rows of a `len`-row segment, what blocks of
        // `w` rows leave over: (rows kept by one more block of `w`,
        // rows handed down to narrower blocks) — one of them 0.
        let split = |w: usize, n: usize, len: usize| match n % w {
            r if 2 * r > w && len >= w => (r, 0),
            r => (0, r),
        };
        let spans = self.seg_ptr.windows(2).map(|w| w[0]..w[1]);
        for (&(lo, hi), span) in self.seg_rows.iter().zip(spans) {
            let diags = &self.seg_diags[span];
            let (lo, hi) = (lo as usize, hi as usize);
            let len = hi - lo;
            if len == 1 {
                // A row alone — the first and last of every grid line
                // of a stencil — has nothing to block: one chain,
                // without the block's slices.
                let row = self.row_lo as usize + lo;
                let mut acc = y.load(row);
                for &d in diags {
                    let coef = match self.coefs[d as usize] {
                        DiaCoef::Const(c) => c,
                        DiaCoef::Dense(start) => self.vals[start + lo],
                    };
                    let col = (row as i64 + self.offsets[d as usize]) as usize;
                    acc = coef.mul_add(x.load(col), acc);
                }
                y.store(row, acc);
                continue;
            }
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

    /// One block: local rows `[lr, lr + W)` of a segment holding
    /// `diags`, of which the first `keep` — all of them, or more than
    /// half — are stored. Every row of the segment holds every diagonal
    /// in `diags`, so the `W` inputs of a term are `W` consecutive
    /// columns each of which an entry reads: a slice of them stays
    /// inside the tile's declared footprint.
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

    /// `y += A x` for a box-stencil band, a grid line at a time: the
    /// segments that follow one another inside a line are one run of
    /// output rows `[k, end)` of line `(i, j)`. Per chunk of the run,
    /// the neighbour lines are summed into `sums` over the rows the run
    /// reads, `[k − 1, end + 1)` clipped to the line — per `y`-step `b`
    /// `u_b = (x[i−1] + x[i]) + x[i+1]`, then `(u_{−1} + u_0) + u_1`,
    /// each missing term left out — and a `z` pass forms each row as
    /// `c1·((s[k−1] + s[k]) + s[k+1]) + ((c0 − c1)·x[r] + y[r])`, two
    /// `mul_add`s. A row's steps are those detection checked, so every
    /// `x` it reads is one some entry of the run reads, and its bits
    /// depend on nothing but its box and `x`.
    fn apply_box<X: VecIn<T>, Y: VecOut<T>>(&self, stencil: BoxStencil<T>, x: &X, y: &mut Y) {
        let BoxStencil { n_z, plane, c0, c1 } = stencil;
        let n_y = plane / n_z;
        let centre = c0 - c1;
        let row_lo = self.row_lo as usize;
        let mut sums = [T::ZERO; BOX_LINE_CHUNK + 2];
        let mut seg = 0;
        while seg < self.seg_rows.len() {
            let (lo, mut hi) = self.seg_rows[seg];
            // A plane's `X` steps are one: this segment's first and last
            // diagonals carry its lowest and highest.
            let diags = &self.seg_diags[self.seg_ptr[seg]..self.seg_ptr[seg + 1]];
            let x_steps = (diags[0] as usize / 9, diags[diags.len() - 1] as usize / 9);
            let line = (row_lo + lo as usize) / n_z;
            seg += 1;
            while seg < self.seg_rows.len()
                && self.seg_rows[seg].0 == hi
                && (row_lo + hi as usize) / n_z == line
            {
                hi = self.seg_rows[seg].1;
                seg += 1;
            }
            let j = line % n_y;
            let y_steps = (usize::from(j == 0), if j + 1 < n_y { 2 } else { 1 });
            let base = line * n_z;
            let (mut k, end) = (row_lo + lo as usize - base, row_lo + hi as usize - base);
            while k < end {
                let k_hi = end.min(k + BOX_LINE_CHUNK);
                // The line sums over the rows the chunk reads.
                let from = k.saturating_sub(1);
                let s = &mut sums[..(k_hi + 1).min(n_z) - from];
                let line_at = |b: usize, c: usize| base + from + b * n_z + c * plane - n_z - plane;
                let whole = x_steps == (0, 2) && y_steps == (0, 2);
                if !(whole && add_nine_lines(x, s, line_at)) {
                    for b in y_steps.0..=y_steps.1 {
                        let mut starts = [0usize; 3];
                        for (at, c) in starts.iter_mut().zip(x_steps.0..=x_steps.1) {
                            *at = line_at(b, c);
                        }
                        add_lines(x, s, &starts[..=x_steps.1 - x_steps.0], b == y_steps.0);
                    }
                }
                z_pass(x, y, s, (base, k, k_hi, n_z), (centre, c1));
                k = k_hi;
            }
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
            // Diagonals far apart: offsets sorted, not marked.
            (
                "hyper-sparse columns",
                vec![(0, 1 << 41), (1, 0), (0, 2), (1, 1 << 41)],
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
                let span = t.row_ptr[s as usize]..t.row_ptr[s as usize + 1];
                let row = t.row_ids[s as usize];
                canonical.extend(span.map(|e| (row, t.cols[e], t.vals[e].to_bits())));
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
    fn nnz_survives_every_lowering() {
        let (r, c, v) = tridiag(16);
        for kind in KernelKind::ALL {
            let k = TileKernel::lower(&r, &c, &v, KernelChoice::Force(kind));
            assert_eq!(k.nnz(), v.len(), "{kind:?}");
        }
    }
}
