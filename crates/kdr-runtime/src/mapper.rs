//! Mappers: policy objects that assign tasks to processors.
//!
//! In Legion, mapping decisions (which processor runs a task, where
//! instances live) are delegated to an application-replaceable
//! *mapper*. Our thread-pool executor is symmetric shared memory, so
//! mapping is advisory there; the machine simulator in `kdr-machine`
//! honors it exactly, and the dynamic load-balancing experiment
//! (paper §6.3) is implemented as a custom mapper that migrates
//! matrix tiles between nodes.

/// Scheduling metadata attached to a task: what a [`Mapper`] sees and
/// what the executor carries with the task's body.
#[derive(Clone, Copy, Debug)]
pub struct TaskMeta {
    /// Human-readable kernel name.
    pub name: &'static str,
    /// Partition color the task belongs to, if it is a point task of
    /// an index launch (the mapper's affinity key).
    pub color: Option<usize>,
    /// Scheduling priority: 0 is the normal lane, anything greater
    /// routes the task through the executor's express lane, which
    /// workers drain before normal work.
    pub priority: u8,
}

impl TaskMeta {
    /// Metadata with the given kernel name, no color and normal
    /// priority.
    pub fn new(name: &'static str) -> Self {
        TaskMeta {
            name,
            color: None,
            priority: 0,
        }
    }

    /// Attach an index-launch color.
    pub fn with_color(mut self, color: usize) -> Self {
        self.color = Some(color);
        self
    }

    /// Attach a scheduling priority (0 = normal lane, >0 = express
    /// lane drained ahead of normal work).
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }
}

/// Assigns each task a processor index in `0..num_procs`.
pub trait Mapper: Send + Sync {
    /// Number of processors this mapper targets.
    fn num_procs(&self) -> usize;

    /// Pick a processor for a task.
    fn map_task(&self, meta: &TaskMeta) -> usize;
}

/// Spreads index-launch colors round-robin over processors; tasks
/// without a color go to processor 0.
pub struct RoundRobinMapper {
    procs: usize,
}

impl RoundRobinMapper {
    /// A round-robin mapper over `procs` processors (must be nonzero).
    pub fn new(procs: usize) -> Self {
        assert!(procs > 0);
        RoundRobinMapper { procs }
    }
}

impl Mapper for RoundRobinMapper {
    fn num_procs(&self) -> usize {
        self.procs
    }

    fn map_task(&self, meta: &TaskMeta) -> usize {
        meta.color.map_or(0, |c| c % self.procs)
    }
}

/// Pins every task of a partition color to one stable worker, so a
/// tile's kernel payload (CSR/DIA/ELL/BCSR arrays) and the vector
/// piece it touches stay hot in a single worker's cache across traced
/// iterations instead of migrating via steals.
///
/// The contract an execution backend relies on:
///
/// 1. **Stability** — `map_task` is a pure function of the color:
///    color `c` always maps to worker `c % num_procs`, across the
///    whole lifetime of the mapper. Tile tasks *and* elementwise /
///    dot-partial tasks over the same piece carry the same color, so
///    everything touching one piece lands on one worker.
/// 2. **Colorless spread** — tasks without a color (scalar
///    reductions, bookkeeping) are dealt round-robin from an atomic
///    cursor rather than piling onto worker 0.
/// 3. **Advisory only** — idle workers still steal, so a pinned
///    queue never becomes a throughput bottleneck; affinity is a
///    locality hint, not a placement constraint.
/// 4. **Re-mappable** — [`ColorAffinityMapper::remap_color`] installs
///    a per-color override (the hook the live load balancer in
///    `kdr-core::loadbalance` uses to migrate a tile's color to a
///    different worker between iterations). Overrides are consulted
///    on every `map_task` call, so a remap takes effect for the very
///    next task carrying that color; with no overrides installed the
///    lookup costs one relaxed atomic load.
pub struct ColorAffinityMapper {
    procs: usize,
    /// Cursor for dealing colorless tasks.
    next_uncolored: std::sync::atomic::AtomicUsize,
    /// Per-color worker overrides installed by `remap_color`.
    overrides: parking_lot::Mutex<std::collections::HashMap<usize, usize>>,
    /// Fast-path flag: true iff `overrides` is nonempty, so the
    /// common no-override case never touches the lock.
    has_overrides: std::sync::atomic::AtomicBool,
    /// Count of `remap_color` calls, for observability.
    remaps: std::sync::atomic::AtomicU64,
}

impl ColorAffinityMapper {
    /// A color-affinity mapper over `procs` workers (must be nonzero).
    pub fn new(procs: usize) -> Self {
        assert!(procs > 0);
        ColorAffinityMapper {
            procs,
            next_uncolored: std::sync::atomic::AtomicUsize::new(0),
            overrides: parking_lot::Mutex::new(std::collections::HashMap::new()),
            has_overrides: std::sync::atomic::AtomicBool::new(false),
            remaps: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Override the home worker of `color`: every subsequent task
    /// carrying that color maps to `worker % num_procs` instead of
    /// the default `color % num_procs`. Takes effect on the next
    /// `map_task` call — i.e. the next iteration's tasks.
    pub fn remap_color(&self, color: usize, worker: usize) {
        let mut ov = self.overrides.lock();
        ov.insert(color, worker % self.procs);
        self.has_overrides
            .store(true, std::sync::atomic::Ordering::Release);
        self.remaps
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Drop the override for `color`, restoring the stable default
    /// placement `color % num_procs`.
    pub fn reset_color(&self, color: usize) {
        let mut ov = self.overrides.lock();
        ov.remove(&color);
        if ov.is_empty() {
            self.has_overrides
                .store(false, std::sync::atomic::Ordering::Release);
        }
    }

    /// The worker tasks of `color` currently map to (override if one
    /// is installed, otherwise the stable default).
    pub fn current_worker(&self, color: usize) -> usize {
        if self
            .has_overrides
            .load(std::sync::atomic::Ordering::Acquire)
        {
            if let Some(&w) = self.overrides.lock().get(&color) {
                return w;
            }
        }
        color % self.procs
    }

    /// How many `remap_color` calls have been made over the mapper's
    /// lifetime.
    pub fn remap_count(&self) -> u64 {
        self.remaps.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl Mapper for ColorAffinityMapper {
    fn num_procs(&self) -> usize {
        self.procs
    }

    fn map_task(&self, meta: &TaskMeta) -> usize {
        match meta.color {
            Some(c) => self.current_worker(c),
            None => {
                self.next_uncolored
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                    % self.procs
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_spreads_colors() {
        let m = RoundRobinMapper::new(4);
        assert_eq!(m.num_procs(), 4);
        let mk = |c| TaskMeta::new("t").with_color(c);
        assert_eq!(m.map_task(&mk(0)), 0);
        assert_eq!(m.map_task(&mk(5)), 1);
        assert_eq!(m.map_task(&TaskMeta::new("t")), 0);
    }

    #[test]
    fn color_affinity_is_stable_and_spreads_uncolored() {
        let m = ColorAffinityMapper::new(3);
        let mk = |c| TaskMeta::new("t").with_color(c);
        // Same color → same worker, every time.
        for _ in 0..4 {
            assert_eq!(m.map_task(&mk(7)), 1);
            assert_eq!(m.map_task(&mk(2)), 2);
        }
        // Colorless tasks are dealt round-robin, not piled on 0.
        let picks: Vec<usize> = (0..6).map(|_| m.map_task(&TaskMeta::new("t"))).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn meta_builders() {
        let m = TaskMeta::new("spmv").with_color(3).with_priority(2);
        assert_eq!(m.name, "spmv");
        assert_eq!(m.color, Some(3));
        assert_eq!(m.priority, 2);
    }

    #[test]
    fn remap_overrides_and_reset_restores() {
        let m = ColorAffinityMapper::new(4);
        let mk = |c| TaskMeta::new("t").with_color(c);
        assert_eq!(m.map_task(&mk(6)), 2);
        assert_eq!(m.current_worker(6), 2);
        m.remap_color(6, 1);
        assert_eq!(m.map_task(&mk(6)), 1);
        assert_eq!(m.current_worker(6), 1);
        // Other colors are untouched.
        assert_eq!(m.map_task(&mk(7)), 3);
        // Worker index is reduced modulo the pool size.
        m.remap_color(5, 9);
        assert_eq!(m.map_task(&mk(5)), 1);
        assert_eq!(m.remap_count(), 2);
        m.reset_color(6);
        assert_eq!(m.map_task(&mk(6)), 2);
    }
}
