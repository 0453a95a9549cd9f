//! Registration's memory high-water mark.
//!
//! A counting global allocator records the most bytes live at once
//! while `Planner::finalize` co-partitions and lowers lap3d27 24³
//! (13 824 rows, 343 000 entries) in four pieces, above what was live
//! before it. The assembled CSR itself (16 B per entry) is the
//! caller's and was live before.
//!
//! Readings, in bytes at peak per entry of the matrix:
//! - 30.1 when every tile's entries were first extracted into triplet
//!   arrays (24 B per entry, all tiles at once) and each tile was then
//!   sorted into a canonical copy;
//! - 9.5 since each tile is lowered straight from the rows the CSR
//!   stores, one tile at a time. Most of what is left is
//!   co-partitioning's column relation, which copies the column
//!   indices (8 B per entry) while the tiles' footprints are derived.
//!
//! The bound is the second reading with a quarter of slack.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use kdr_core::{ExecBackend, Planner};
use kdr_index::Partition;
use kdr_sparse::{SparseMatrix, Stencil};

/// Bytes of the system allocator's blocks now live, and the most that
/// were live at once since the last [`reset_peak`].
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
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

/// The most bytes live at once while `f` runs, above those live when
/// it starts.
fn high_water(f: impl FnOnce()) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed) - before
}

#[test]
fn finalize_holds_one_tile_of_entries_at_a_time() {
    let n = 24;
    let matrix: Arc<dyn SparseMatrix<f64>> =
        Arc::new(Stencil::lap3d27(n, n, n).to_csr::<f64, u64>());
    let entries = matrix.nnz();
    let rows = n * n * n;
    let mut planner = Planner::new(Box::new(ExecBackend::<f64>::new(1)));
    let d = planner.add_sol_vector(rows, Some(Partition::equal_blocks(rows, 4)));
    let r = planner.add_rhs_vector(rows, Some(Partition::equal_blocks(rows, 4)));
    planner.add_operator(matrix, d, r);
    let peak = high_water(|| planner.finalize());
    let per_entry = peak as f64 / entries as f64;
    println!("finalize: {peak} bytes at peak, {per_entry:.1} per entry of {entries}");
    assert!(
        per_entry < 12.0,
        "finalize held {per_entry:.1} bytes per entry at peak ({peak} bytes)"
    );
}
