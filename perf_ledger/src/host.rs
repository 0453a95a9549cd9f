//! What the harness reads from the host — process CPU time, peak
//! resident memory, a calibration probe, a memory-bandwidth probe —
//! and the one thing it sets: the CPU the benchmark's threads run on. Nothing here calls into the crates under test.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// The clock of the CPU time every thread of the process has used, live
/// or joined (`<time.h>`).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time of the whole process in milliseconds. Read
/// from the clock, which counts nanoseconds, not from `/proc/self/stat`,
/// which counts 10 ms ticks: an operation of 80 ms has a CPU time of
/// its own.
pub fn process_cpu_ms() -> f64 {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a live, writable `timespec` and the call writes
    // nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "the process CPU-time clock can be read");
    t.tv_sec as f64 * 1e3 + t.tv_nsec as f64 / 1e6
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_ascii_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM is reported in kB");
    kb / 1024.0
}

/// A CPU set as the kernel takes it: one bit per CPU, 1024 CPUs.
type CpuMask = [u64; 16];

extern "C" {
    // The C library's wrappers of the Linux system calls of the same
    // names; `pid` 0 is the calling thread.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    // glibc's allocator tuning (`<malloc.h>`); returns 1 on success.
    fn mallopt(param: i32, value: i32) -> i32;
}

/// The CPUs the process was started on.
fn started_on() -> &'static CpuMask {
    static MASK: OnceLock<CpuMask> = OnceLock::new();
    MASK.get_or_init(|| {
        let mut mask: CpuMask = [0; 16];
        // SAFETY: `mask` is a live, writable buffer of exactly the
        // `size_of::<CpuMask>()` bytes passed as its length.
        let rc = unsafe { sched_getaffinity(0, size_of::<CpuMask>(), mask.as_mut_ptr()) };
        assert_eq!(rc, 0, "the process can read its own CPU affinity");
        mask
    })
}

/// CPUs the process was started on.
pub fn nproc() -> usize {
    started_on().iter().map(|w| w.count_ones() as usize).sum()
}

/// Restrict the calling thread, and every thread it spawns from now
/// on, to the first of the CPUs the process was started on. `main`
/// calls it before a workload builds its runtimes.
///
/// A runtime with one worker is two threads that hand every task to
/// each other. Left on two virtual CPUs, each hand-off is a cross-CPU
/// interrupt — 40 us on this VM, 7 us as soon as anything else is
/// runnable and the guest scheduler stacks the two — and the same
/// `seq_tax` solve takes 200 ms to 240 ms or 100 ms, at the scheduler's
/// whim. On one CPU it takes 82 ms, run after run.
pub fn run_on_one_cpu() {
    let first = (0..16 * 64)
        .find(|cpu| started_on()[cpu / 64] >> (cpu % 64) & 1 == 1)
        .expect("the process was started on some CPU");
    let mut mask: CpuMask = [0; 16];
    mask[first / 64] = 1 << (first % 64);
    // SAFETY: `mask` is a live buffer of exactly the
    // `size_of::<CpuMask>()` bytes passed as its length, and the call
    // only reads it.
    let rc = unsafe { sched_setaffinity(0, size_of::<CpuMask>(), mask.as_ptr()) };
    assert_eq!(
        rc, 0,
        "a thread can narrow its affinity to a CPU it runs on"
    );
}

/// `M_MMAP_THRESHOLD` of `<malloc.h>`.
const M_MMAP_THRESHOLD: i32 = -3;

/// Keep the allocator's mmap threshold at the 128 KiB it starts with.
/// `main` calls it before a workload is built.
///
/// Left alone, glibc raises the threshold to the size of the first large
/// block that is freed, and later blocks of that size come from the heap,
/// where whether they are ever given back depends on what the runtime's
/// worker happened to allocate next to them: `peak_rss_mb` then read
/// 10.6 or 13.0 MB on `seq_tax` (23 or 27 on the fleet) from run to run,
/// and ten runs split between the two spread by up to the bound. With
/// the threshold fixed, a large block is always mapped and unmapped and
/// the figure repeats within 3 %. No operation's time moved; the set-up
/// of `seq_kernel`, which assembles 90 MB of temporaries and now faults
/// them in every time, takes 0.80 s where it took 0.73.
pub fn pin_mmap_threshold() {
    // SAFETY: `mallopt` only stores the value in the allocator's
    // parameters.
    let rc = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
    assert_eq!(rc, 1, "the allocator takes an mmap threshold");
}

/// The calibration probe, timed on either side of everything the
/// benchmark times: a fixed piece of ordinary single-thread code that
/// shares nothing with the program under test — no heap, no thread, 32
/// KB of stack. Four interleaved xorshift streams update a 16 KB table
/// through data-dependent branches, then 4096 numbers are sorted 18
/// times. Milliseconds.
///
/// The host runs such code at several speeds, a quarter to a half
/// apart, and moves between them every few seconds to minutes; solves,
/// planner builds and service rounds slow down with it in proportion
/// (the README has the figures). A dependent arithmetic chain, which
/// this probe replaced, does not move at all.
pub fn calibration_ms() -> f64 {
    let t0 = Instant::now();
    let mut table = [0u64; 2048];
    let mut streams = [
        0x9e37_79b9_7f4a_7c15u64,
        0xbf58_476d_1ce4_e5b9,
        0x94d0_49bb_1331_11eb,
        0x2545_f491_4f6c_dd1d,
    ];
    let xorshift = |x: &mut u64| {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    };
    for _ in 0..240_000u32 {
        for s in &mut streams {
            let x = xorshift(s);
            let slot = &mut table[x as usize % 2048];
            if *slot & 1 == 0 {
                *slot = slot.wrapping_add(x);
            } else {
                *slot ^= x >> 3;
            }
        }
    }
    black_box(&table);
    let mut numbers = [0u32; 4096];
    for _ in 0..18 {
        for n in &mut numbers {
            *n = xorshift(&mut streams[0]) as u32;
        }
        numbers.sort_unstable();
        black_box(&numbers);
    }
    t0.elapsed().as_secs_f64() * 1e3
}

/// What [`calibration_ms`] reads on this host when nothing disturbs it.
/// Timings are reported as they would have read at this speed.
pub const CALIBRATION_REF_MS: f64 = 2.0;

/// The host's speed around one timed piece of work.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// Mean of the probe's readings before and after, milliseconds.
    pub calib_ms: f64,
    /// `calib_ms` over [`CALIBRATION_REF_MS`]: the factor by which the
    /// host was slower than the reference. A time measured between the
    /// two readings, divided by it, is the time at the reference speed.
    pub slowdown: f64,
}

impl Calibration {
    /// From the probe's readings on either side of the work.
    pub fn between(before_ms: f64, after_ms: f64) -> Self {
        let calib_ms = 0.5 * (before_ms + after_ms);
        Calibration {
            calib_ms,
            slowdown: calib_ms / CALIBRATION_REF_MS,
        }
    }
}

/// Run `f` between two readings of the probe.
pub fn calibrated<R>(f: impl FnOnce() -> R) -> (R, Calibration) {
    let before = calibration_ms();
    let out = f();
    (out, Calibration::between(before, calibration_ms()))
}

/// STREAM triad `a[i] = b[i] + s * c[i]` over three arrays totalling
/// `footprint_bytes`, best of `reps` passes, in GB/s of *computed*
/// bytes (three 8-byte streams per element; cache hits are not
/// subtracted). The kernel roofline fraction divides by this, so the
/// caller passes the footprint of the kernel it compares against.
pub fn triad_gbps(footprint_bytes: usize, reps: usize) -> f64 {
    let n = (footprint_bytes / 24).max(1024);
    let b = vec![1.5f64; n];
    let c = vec![0.25f64; n];
    let mut a = vec![0.0f64; n];
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        for ((ai, &bi), &ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = ci.mul_add(3.0, bi);
        }
        black_box(&mut a);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (n * 24) as f64 / best / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let c0 = process_cpu_ms();
        let t0 = Instant::now();
        while t0.elapsed().as_millis() < 60 {
            black_box(calibration_ms());
        }
        assert!(process_cpu_ms() > c0);
        assert!(peak_rss_mb() > 0.5);
    }

    #[test]
    fn a_thread_narrows_its_own_affinity() {
        // On a thread of its own: the affinity is the thread's, and the
        // other tests' threads keep theirs.
        std::thread::spawn(|| {
            assert!(nproc() >= 1);
            run_on_one_cpu();
            assert_eq!(
                std::thread::available_parallelism().map(|n| n.get()).ok(),
                Some(1)
            );
        })
        .join()
        .expect("the affinity test thread does not panic");
    }

    #[test]
    fn triad_reports_a_positive_rate() {
        assert!(triad_gbps(1 << 20, 3) > 0.01);
    }
}
