//! What a warm iteration costs the host: no heap allocation.
//!
//! A counting global allocator counts every allocation and
//! reallocation the process makes while a solve runs iterations that
//! replay their step programs: lap2d 24² in four pieces on one worker,
//! checking convergence (the measure and every breakdown guard forced
//! with the step) every iteration. Such an iteration records its ops
//! into the backend's kept record, replays the cached program with
//! the runtime's kept run record, waits with the thread's kept wait
//! list and reads its values into the driver's kept buffers, and a
//! scalar handle counts its owners without the backend: none of it
//! allocates. Building the solver, capturing the first steps and the
//! first check size those buffers, so the count starts after a
//! warm-up.
//!
//! Dev builds re-lower every replayed step to check it against its
//! program (`exec.rs`, `close_record`), which allocates, so the tests
//! run in `--release` only (`scripts/ci.sh`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use kdr_core::{BiCgStabSolver, CgSolver, ExecBackend, Planner, SolveControl, Solver, StepDriver};
use kdr_index::Partition;
use kdr_sparse::{stencil::rhs_vector, Stencil};

/// Counts allocations and reallocations, whatever thread makes them.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Held by each test for its whole run, so that none counts another's
/// allocations.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Iterations run before counting: the captures and the first checks.
const WARM_UP: usize = 8;

/// Iterations counted.
const COUNTED: usize = 12;

/// `(captured, replayed)` steps of the planner's backend.
fn step_counters(planner: &mut Planner<f64>) -> (u64, u64) {
    planner.with_backend(|b| {
        b.as_any()
            .downcast_mut::<ExecBackend<f64>>()
            .expect("an execution backend")
            .step_counters()
    })
}

/// Allocations made by `COUNTED` warm iterations of the solver `build`
/// makes, each of them a replay checked for convergence.
fn allocations_per_warm_iteration(build: fn(&mut Planner<f64>) -> Box<dyn Solver<f64>>) -> u64 {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|p| p.into_inner());
    let stencil = Stencil::lap2d(24, 24);
    let n = stencil.unknowns();
    let mut planner = Planner::new(Box::new(ExecBackend::<f64>::new(1)));
    let d = planner.add_sol_vector(n, Some(Partition::equal_blocks(n, 4)));
    let r = planner.add_rhs_vector(n, Some(Partition::equal_blocks(n, 4)));
    planner.add_stencil_operator(stencil, d, r);
    planner.set_rhs_data(r, &rhs_vector::<f64>(n, 7));
    let mut solver = build(&mut planner);
    // No tolerance: every iteration checks, none ends the solve.
    let control = SolveControl {
        max_iters: WARM_UP + COUNTED + 1,
        check_every: 1,
        ..SolveControl::default()
    };
    let mut driver = StepDriver::new(control);
    for _ in 0..WARM_UP {
        let answer = driver.step(&mut planner, solver.as_mut(), None);
        assert!(matches!(answer, Ok(None)), "{answer:?}");
    }
    let (captured, replayed) = step_counters(&mut planner);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..COUNTED {
        let answer = driver.step(&mut planner, solver.as_mut(), None);
        assert!(matches!(answer, Ok(None)));
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        step_counters(&mut planner),
        (captured, replayed + COUNTED as u64),
        "every counted iteration replays"
    );
    allocations
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "dev builds re-lower each replayed step to check it"
)]
fn a_warm_cg_iteration_allocates_nothing() {
    let allocations = allocations_per_warm_iteration(|p| Box::new(CgSolver::new(p)));
    assert_eq!(
        allocations, 0,
        "allocations in {COUNTED} warm CG iterations"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "dev builds re-lower each replayed step to check it"
)]
fn a_warm_bicgstab_iteration_allocates_nothing() {
    let allocations = allocations_per_warm_iteration(|p| Box::new(BiCgStabSolver::new(p)));
    assert_eq!(
        allocations, 0,
        "allocations in {COUNTED} warm BiCGStab iterations"
    );
}
