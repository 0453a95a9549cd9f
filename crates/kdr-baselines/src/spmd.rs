//! SPMD infrastructure: threads as MPI ranks.
//!
//! The bulk-synchronous baselines run one thread per rank. Shared
//! state is limited to what MPI gives a rank: barrier synchronization,
//! all-reduce, and published vector slabs (the shared-memory analogue
//! of `VecScatter`). All shared-vector access is barrier-disciplined:
//! a rank writes only its own slab, and reads other slabs only after
//! a barrier that ordered the writes — the same data-race-freedom
//! argument as the task runtime's dependence analysis, enforced here
//! by program structure.

use std::sync::Barrier;

use kdr_runtime::Buffer;
use kdr_sparse::Scalar;
use parking_lot::Mutex;

/// Rank-shared communication context.
pub struct SpmdContext<T> {
    nranks: usize,
    barrier: Barrier,
    slots: Vec<Mutex<T>>,
}

impl<T: Scalar> SpmdContext<T> {
    /// A context coordinating `nranks` ranks.
    pub fn new(nranks: usize) -> Self {
        SpmdContext {
            nranks,
            barrier: Barrier::new(nranks),
            slots: (0..nranks).map(|_| Mutex::new(T::ZERO)).collect(),
        }
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Global barrier.
    pub fn barrier(&self) {
        self.barrier.wait();
    }

    /// Blocking all-reduce (sum). Every rank contributes `v` and
    /// receives the bit-identical total (fixed summation order).
    pub fn allreduce_sum(&self, rank: usize, v: T) -> T {
        *self.slots[rank].lock() = v;
        self.barrier();
        let mut acc = T::ZERO;
        for s in &self.slots {
            acc += *s.lock();
        }
        self.barrier();
        acc
    }

    /// The row slab `[lo, hi)` owned by `rank` for a vector of `n`
    /// rows (block distribution with balanced remainders).
    pub fn slab(&self, rank: usize, n: u64) -> (u64, u64) {
        let r = rank as u64;
        let p = self.nranks as u64;
        let lo = r * n / p;
        let hi = (r + 1) * n / p;
        (lo, hi)
    }
}

/// A rank-shared vector: each rank writes its own slab and, after a
/// barrier, may read any window.
pub struct SharedVec<T> {
    buf: Buffer<T>,
}

impl<T: Scalar> SharedVec<T> {
    /// An `n`-element vector of zeros.
    pub fn zeros(n: u64) -> Self {
        SharedVec {
            buf: Buffer::filled(n as usize, T::ZERO),
        }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True for a zero-length vector.
    pub fn is_empty(&self) -> bool {
        self.buf.len() == 0
    }

    /// Publish `data` into `[lo, lo + data.len())`. Caller must own
    /// that slab in the current phase.
    pub fn publish(&self, lo: u64, data: &[T]) {
        let slab = kdr_index::IntervalSet::from_range(lo, lo + data.len() as u64);
        let view = self.buf.write_view(&slab);
        for (k, &v) in data.iter().enumerate() {
            view.set(lo as usize + k, v);
        }
    }

    /// Read the window `[lo, hi)` into a local vector. Caller must
    /// have barriered after the publishing phase.
    pub fn read_window(&self, lo: u64, hi: u64, out: &mut Vec<T>) {
        out.clear();
        let window = kdr_index::IntervalSet::from_range(lo, hi);
        let view = self.buf.read_view(&window);
        out.reserve((hi - lo) as usize);
        for i in lo..hi {
            out.push(view.get(i as usize));
        }
    }

    /// Copy out everything (post-solve).
    pub fn snapshot(&self) -> Vec<T> {
        self.buf.snapshot()
    }
}

/// Run `f(rank)` on `nranks` threads and wait for all of them.
pub fn run_spmd<F>(nranks: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    assert!(nranks > 0);
    std::thread::scope(|s| {
        for rank in 0..nranks {
            let f = &f;
            s.spawn(move || f(rank));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allreduce_sums_across_ranks() {
        let ctx = SpmdContext::<f64>::new(4);
        let results = Mutex::new(vec![0.0; 4]);
        run_spmd(4, |rank| {
            let total = ctx.allreduce_sum(rank, (rank + 1) as f64);
            results.lock()[rank] = total;
        });
        assert_eq!(*results.lock(), vec![10.0; 4]);
    }

    #[test]
    fn repeated_allreduce_is_race_free() {
        let ctx = SpmdContext::<f64>::new(3);
        let ok = Mutex::new(true);
        run_spmd(3, |rank| {
            for round in 0..50 {
                let total = ctx.allreduce_sum(rank, (rank as f64) + round as f64);
                let expect = 3.0 * round as f64 + 3.0;
                if (total - expect).abs() > 1e-12 {
                    *ok.lock() = false;
                }
            }
        });
        assert!(*ok.lock());
    }

    #[test]
    fn slabs_cover_exactly() {
        let ctx = SpmdContext::<f64>::new(3);
        let n = 10;
        let mut prev_hi = 0;
        for r in 0..3 {
            let (lo, hi) = ctx.slab(r, n);
            assert_eq!(lo, prev_hi);
            prev_hi = hi;
        }
        assert_eq!(prev_hi, n);
    }

    #[test]
    fn shared_vec_publish_and_read() {
        let ctx = SpmdContext::<f64>::new(2);
        let v = SharedVec::<f64>::zeros(8);
        run_spmd(2, |rank| {
            let (lo, hi) = ctx.slab(rank, 8);
            let data: Vec<f64> = (lo..hi).map(|i| i as f64).collect();
            v.publish(lo, &data);
            ctx.barrier();
            let mut w = Vec::new();
            v.read_window(0, 8, &mut w);
            assert_eq!(w, (0..8).map(|i| i as f64).collect::<Vec<_>>());
        });
        assert_eq!(v.snapshot(), (0..8).map(|i| i as f64).collect::<Vec<_>>());
    }
}
