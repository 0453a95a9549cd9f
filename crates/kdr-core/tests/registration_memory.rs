//! Registration's memory high-water mark.
//!
//! A counting global allocator records the most bytes live at once
//! while `Planner::finalize` co-partitions and lowers an assembled CSR
//! matrix, above what was live before it. The matrix itself (16 B per
//! entry) is the caller's and was live before.
//!
//! lap3d27 24³ (13 824 rows, 343 000 entries) in four pieces, in bytes
//! at peak per entry of the matrix:
//! - 30.1 when every tile's entries were first extracted into triplet
//!   arrays (24 B per entry, all tiles at once) and each tile was then
//!   sorted into a canonical copy;
//! - 9.5 once each tile was lowered from a copy of the rows the CSR
//!   stores, one tile at a time, while co-partitioning's column
//!   relation copied the column indices (8 B per entry);
//! - 1.7 since the column relation borrows the indices and each tile
//!   is lowered from a view of the CSR's own rows: the tiles' band
//!   tables, row lists and footprints are what is left.
//!
//! The bound is that reading plus 0.5. A tile that lowers to CSR keeps
//! its rows, gathered by length, as its payload (12 B per entry — a
//! `u32` column and an `f64` value — and its row tables): the seeded
//! scatter matrix `cold_irregular` registers (n = 16 384, 90 096
//! entries, eight pieces) reads 32.1, against 36.1 while the payload's
//! columns were `u64` and 37.1 while the tiles' rows were copied first;
//! its bound is 36, the reading plus the 3.9 the 40 allowed over 36.1.
//!
//! The same allocator counts what each thread allocates, which holds a
//! box-stencil product (`DiaTile`'s sum-factored forward product) to
//! none: its line buffer is a fixed array on the stack, and a grid line
//! longer than the buffer is taken in chunks. The tests take turns, so
//! none's allocations reach another's high-water mark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use kdr_core::{ExecBackend, Planner};
use kdr_index::Partition;
use kdr_sparse::{Csr, KernelChoice, SparseMatrix, Stencil, StencilTile, TileKernel, Triples};

/// Bytes of the system allocator's blocks now live, and the most that
/// were live at once since the last [`reset_peak`].
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Bytes this thread has allocated, ever.
    static ALLOCATED_HERE: Cell<usize> = const { Cell::new(0) };
}

/// Held by each test for its whole run.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
    let _ = ALLOCATED_HERE.try_with(|mine| mine.set(mine.get() + bytes));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the new block arriving before the old one leaves,
        // which is what a moving reallocation holds at its peak.
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes per entry `finalize` may hold at its peak for the lap3d27
/// operator: the reading of the module docs plus 0.5.
const BANDED_BOUND: f64 = 2.2;

/// Bytes per entry `finalize` may hold at its peak for the scatter
/// matrix: the reading of the module docs plus about a tenth.
const CSR_BOUND: f64 = 36.0;

/// The most bytes live at once while `f` runs, above those live when
/// it starts.
fn high_water(f: impl FnOnce()) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed) - before
}

/// Bytes the calling thread allocates while `f` runs.
fn allocated_by(f: impl FnOnce()) -> usize {
    let before = ALLOCATED_HERE.with(Cell::get);
    f();
    ALLOCATED_HERE.with(Cell::get) - before
}

/// Bytes `finalize` holds at its peak, per entry of `matrix`,
/// co-partitioned and lowered in `pieces` pieces.
fn finalize_peak_per_entry(matrix: Arc<dyn SparseMatrix<f64>>, pieces: usize) -> f64 {
    let entries = matrix.nnz();
    let rows = matrix.range_space().size();
    let mut planner = Planner::new(Box::new(ExecBackend::<f64>::new(1)));
    let d = planner.add_sol_vector(rows, Some(Partition::equal_blocks(rows, pieces)));
    let r = planner.add_rhs_vector(rows, Some(Partition::equal_blocks(rows, pieces)));
    planner.add_operator(matrix, d, r);
    let peak = high_water(|| planner.finalize());
    let per_entry = peak as f64 / entries as f64;
    println!("finalize: {peak} bytes at peak, {per_entry:.1} per entry of {entries}");
    per_entry
}

#[test]
fn finalize_holds_one_tile_of_entries_at_a_time() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let n = 24;
    let matrix = Arc::new(Stencil::lap3d27(n, n, n).to_csr::<f64, u64>());
    let per_entry = finalize_peak_per_entry(matrix, 4);
    assert!(
        per_entry < BANDED_BOUND,
        "finalize held {per_entry:.1} bytes per entry at peak"
    );
}

#[test]
fn finalize_holds_the_csr_payloads_and_little_else() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // A seeded scatter matrix, as `cold_irregular` registers: one to
    // eight entries a row at random columns, rows in order, in 8
    // pieces. Every tile lowers to CSR, whose rows are gathered by
    // length into a payload of their own.
    let n = 16_384u64;
    let mut state = 0x5ca7_7e12_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        state >> 33
    };
    let mut entries = Vec::new();
    for i in 0..n {
        for _ in 0..1 + next() % 8 {
            entries.push((i, next() % n, -((1 + next() % 8) as f64) / 8.0));
        }
        entries.push((i, i, 9.0));
    }
    let matrix = Arc::new(Csr::<f64, u64>::from_triples(Triples::from_entries(
        n, n, entries,
    )));
    let per_entry = finalize_peak_per_entry(matrix, 8);
    assert!(
        per_entry < CSR_BOUND,
        "finalize held {per_entry:.1} bytes per entry at peak"
    );
}

#[test]
fn a_box_stencil_product_allocates_nothing() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // A lap3d27 24³ piece of four, lowered from its entries and built
    // matrix-free; and a 4 × 4 × 5 000 grid, whose lines are too long
    // for the product's window and go in chunks along `z`.
    let piece = Stencil::lap3d27(24, 24, 24);
    let (lo, hi) = (0, piece.unknowns() / 4);
    let (mut rows, mut cols, mut vals) = (Vec::new(), Vec::new(), Vec::new());
    let mut row = Vec::new();
    for r in lo..hi {
        piece.row_entries::<f64>(r, &mut row);
        for &(c, v) in &row {
            rows.push(r);
            cols.push(c);
            vals.push(v);
        }
    }
    let long_z = Stencil::lap3d27(4, 4, 5000);
    // The per-thread count sees what this thread allocates.
    assert!(allocated_by(|| drop(std::hint::black_box(vec![0u8; 64]))) >= 64);
    let kernels = [
        (piece, TileKernel::lower(&rows, &cols, &vals, KernelChoice::Auto)),
        (piece, TileKernel::Stencil(StencilTile::new(piece, vec![(lo, hi)]))),
        (long_z, TileKernel::Stencil(StencilTile::new(long_z, vec![(0, long_z.unknowns())]))),
    ];
    for (s, kernel) in &kernels {
        let band = match kernel {
            TileKernel::Dia(band) => band,
            TileKernel::Stencil(tile) => tile.band(),
            other => panic!("{s:?} lowered to {:?}", other.kind()),
        };
        assert!(band.box_stencil.is_some(), "{s:?} is not a box band");
        let n = s.unknowns() as usize;
        let x: Vec<f64> = (0..n).map(|i| (i % 7) as f64 / 3.0).collect();
        let mut y = vec![0.5; n];
        let bytes = allocated_by(|| kernel.apply_slices(&x, &mut y, false));
        assert_eq!(bytes, 0, "{s:?}: the box-stencil product allocated {bytes} bytes");
        // And from `+0`, as a task that zeroes first runs it.
        let bytes = allocated_by(|| {
            assert!(kernel.apply_from_zero(&x.as_slice(), &mut y.as_mut_slice(), false));
        });
        assert_eq!(bytes, 0, "{s:?}: the product from +0 allocated {bytes} bytes");
    }
}
