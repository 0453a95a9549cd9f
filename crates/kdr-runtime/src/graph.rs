//! Dynamic dependence analysis.
//!
//! For each buffer the analyzer keeps a *frontier* of recent accesses.
//! A newly submitted task conflicts with a frontier entry when their
//! subsets overlap and at least one of the two writes — the classic
//! RAW/WAR/WAW rules at interval-set granularity. Writers prune
//! dominated entries, keeping the frontier small for the streaming
//! access patterns of iterative solvers.
//!
//! # A replayed step's frontier
//!
//! A trace replay replaces the frontier with the one its capture
//! recorded. The analyzer does not copy that in at the replay: it holds
//! the recorded frontier — shared with the trace — and the id the step
//! started at as *pending*, and builds the frontier from them when
//! something reads it: `Analyzer::analyze` and `Analyzer::snapshot`
//! first, and `Analyzer::writers` reads it where it is. A loop that
//! only replays and reads scalars never builds one. Pending and built
//! are the same frontier — entry for entry, the recorded one with the
//! step's first id added to every task — so no answer depends on which
//! of the two the analyzer happens to hold.

use std::collections::HashMap;
use std::sync::Arc;

use kdr_index::IntervalSet;

use crate::task::{ReqLite, TaskId};

#[derive(Clone, Debug)]
pub(crate) struct FrontierEntry {
    pub task: TaskId,
    pub subset: Arc<IntervalSet>,
    pub write: bool,
}

/// Per-buffer access frontier.
#[derive(Default, Clone, Debug)]
pub(crate) struct Frontier {
    pub entries: Vec<FrontierEntry>,
}

/// A frontier as a capture recorded it: per buffer, ascending in
/// buffer id, with tasks numbered from the start of the step.
pub(crate) type RecordedFrontier = Arc<[(u64, Frontier)]>;

/// The analyzer: buffer id → frontier.
#[derive(Default)]
pub(crate) struct Analyzer {
    /// The frontier, unless one is `pending`, when this is empty.
    frontiers: HashMap<u64, Frontier>,
    /// The frontier a replay left and the id of the step's first task
    /// (module docs).
    pending: Option<(RecordedFrontier, TaskId)>,
    pub edges_created: u64,
}

impl Analyzer {
    pub fn new() -> Self {
        Analyzer::default()
    }

    /// Analyze one task's requirements; returns the set of earlier
    /// tasks it must wait for (deduplicated, unordered).
    pub fn analyze(&mut self, task: TaskId, reqs: &[ReqLite]) -> Vec<TaskId> {
        self.build_pending();
        let mut deps: Vec<TaskId> = Vec::new();
        for req in reqs {
            let frontier = self.frontiers.entry(req.buffer_id).or_default();
            for e in &frontier.entries {
                // An entry of this very task is an earlier requirement
                // of its own on the same buffer, not a dependence.
                let conflict = e.task != task
                    && (req.write || e.write)
                    && !e.subset.is_disjoint(&req.subset);
                if conflict {
                    deps.push(e.task);
                }
            }
            if req.write {
                // A writer dominates everything inside its subset.
                frontier
                    .entries
                    .retain(|e| !e.subset.is_subset_of(&req.subset));
            }
            frontier.entries.push(FrontierEntry {
                task,
                subset: Arc::clone(&req.subset),
                write: req.write,
            });
        }
        deps.sort_unstable();
        deps.dedup();
        self.edges_created += deps.len() as u64;
        deps
    }

    /// Snapshot the current frontiers (what a step leaves, see
    /// `StepAnalysis`).
    pub fn snapshot(&mut self) -> Vec<(u64, Frontier)> {
        self.build_pending();
        self.frontiers
            .iter()
            .map(|(&id, f)| (id, f.clone()))
            .collect()
    }

    /// Replace the frontier with the one a replay leaves: `recorded`,
    /// with `base` — the id of the step's first task — added to every
    /// task. Nothing is built until something reads it.
    pub fn set_pending(&mut self, recorded: &RecordedFrontier, base: TaskId) {
        self.frontiers.clear();
        self.pending = Some((Arc::clone(recorded), base));
    }

    /// Build the pending frontier, if there is one.
    fn build_pending(&mut self) {
        if let Some((recorded, base)) = self.pending.take() {
            self.install(&recorded, base);
        }
    }

    /// Replace the frontier with `recorded`, `base` added to every
    /// task.
    fn install(&mut self, recorded: &[(u64, Frontier)], base: TaskId) {
        self.frontiers.clear();
        for (id, f) in recorded {
            let entries = f
                .entries
                .iter()
                .map(|e| FrontierEntry {
                    task: base + e.task,
                    subset: Arc::clone(&e.subset),
                    write: e.write,
                })
                .collect();
            self.frontiers.insert(*id, Frontier { entries });
        }
    }

    /// Append to `out` the tasks whose writes are on `buffer`'s
    /// frontier. Every write to the buffer still in flight is one of
    /// them or ordered before one of them: a write leaves the frontier
    /// only when a later writer covers its subset, and that writer
    /// depends on it. A pending frontier is read where it is.
    pub fn writers(&self, buffer: u64, out: &mut Vec<TaskId>) {
        let (frontier, base) = match &self.pending {
            Some((recorded, base)) => {
                let at = recorded.binary_search_by_key(&buffer, |(id, _)| *id);
                (at.ok().map(|at| &recorded[at].1), *base)
            }
            None => (self.frontiers.get(&buffer), 0),
        };
        let entries = frontier.map_or(&[][..], |f| &f.entries);
        out.extend(entries.iter().filter(|e| e.write).map(|e| base + e.task));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(buf: u64, lo: u64, hi: u64, write: bool) -> ReqLite {
        ReqLite {
            buffer_id: buf,
            subset: Arc::new(IntervalSet::from_range(lo, hi)),
            write,
        }
    }

    #[test]
    fn raw_dependence() {
        let mut a = Analyzer::new();
        assert!(a.analyze(1, &[req(10, 0, 4, true)]).is_empty());
        assert_eq!(a.analyze(2, &[req(10, 0, 4, false)]), vec![1]);
    }

    #[test]
    fn war_and_waw() {
        let mut a = Analyzer::new();
        a.analyze(1, &[req(10, 0, 4, false)]);
        // WAR: writer after reader.
        assert_eq!(a.analyze(2, &[req(10, 2, 6, true)]), vec![1]);
        // WAW: writer after writer.
        assert_eq!(a.analyze(3, &[req(10, 0, 8, true)]), vec![1, 2]);
    }

    #[test]
    fn disjoint_subsets_run_in_parallel() {
        let mut a = Analyzer::new();
        a.analyze(1, &[req(10, 0, 4, true)]);
        assert!(a.analyze(2, &[req(10, 4, 8, true)]).is_empty());
        assert!(a.analyze(3, &[req(11, 0, 4, true)]).is_empty());
    }

    #[test]
    fn readers_share() {
        let mut a = Analyzer::new();
        a.analyze(1, &[req(10, 0, 8, true)]);
        assert_eq!(a.analyze(2, &[req(10, 0, 4, false)]), vec![1]);
        assert_eq!(a.analyze(3, &[req(10, 2, 6, false)]), vec![1]);
        // Readers prune nothing, so task 1's entry is still on the
        // frontier: a later writer waits on it and on both readers.
        let deps = a.analyze(4, &[req(10, 0, 8, true)]);
        assert_eq!(deps, vec![1, 2, 3]);
    }

    #[test]
    fn writer_prunes_dominated_entries() {
        let mut a = Analyzer::new();
        a.analyze(1, &[req(10, 0, 4, true)]);
        a.analyze(2, &[req(10, 0, 8, true)]); // dominates task 1's entry
        let deps = a.analyze(3, &[req(10, 0, 2, false)]);
        assert_eq!(deps, vec![2], "pruned entry must not generate edges");
    }

    /// Every `stride`-th point of `lo..hi`: one run per point.
    fn strided(buf: u64, lo: u64, hi: u64, stride: usize) -> ReqLite {
        ReqLite {
            buffer_id: buf,
            subset: Arc::new(IntervalSet::from_points((lo..hi).step_by(stride))),
            write: false,
        }
    }

    fn on_frontier(a: &Analyzer, buf: u64) -> Vec<TaskId> {
        a.frontiers[&buf].entries.iter().map(|e| e.task).collect()
    }

    #[test]
    fn scatter_readers_then_piece_writers() {
        // What an SpMV tile of a scatter matrix leaves on `x`: readers
        // of 4 000 single-point runs each. 1 and 2 spread over all of
        // 0..32 000 (points ≡ 0 and ≡ 2 mod 8); 3 and 4 hold the odd
        // points of 0..8 000 and of 16 000..24 000.
        let mut a = Analyzer::new();
        let readers = [
            strided(10, 0, 32_000, 8),
            strided(10, 2, 32_000, 8),
            strided(10, 1, 8_000, 2),
            strided(10, 16_001, 24_000, 2),
        ];
        for (t, r) in (1..).zip(&readers) {
            assert_eq!(r.subset.runs().len(), 4_000);
            assert!(a.analyze(t, std::slice::from_ref(r)).is_empty());
        }
        // Single-run piece writers wait on exactly the readers they
        // overlap, and remove those they cover.
        assert_eq!(a.analyze(5, &[req(10, 0, 8_000, true)]), vec![1, 2, 3]);
        assert_eq!(on_frontier(&a, 10), vec![1, 2, 4, 5], "5 covers 3");
        assert_eq!(a.analyze(6, &[req(10, 8_000, 16_000, true)]), vec![1, 2]);
        assert_eq!(a.analyze(7, &[req(10, 16_000, 20_000, true)]), vec![1, 2, 4]);
        assert_eq!(on_frontier(&a, 10), vec![1, 2, 4, 5, 6, 7], "7 covers part of 4");
        // Between the runs of every reader: no dependence at all.
        assert!(a.analyze(8, &[req(10, 24_003, 24_008, true)]).is_empty());
        assert_eq!(a.analyze(9, &[req(10, 16_000, 24_000, true)]), vec![1, 2, 4, 7]);
        assert_eq!(on_frontier(&a, 10), vec![1, 2, 5, 6, 8, 9], "9 covers 4 and 7");
        // A later reader waits on the writers that remain, and the
        // next writer no longer sees the readers removed.
        assert_eq!(a.analyze(10, &[req(10, 0, 32_000, false)]), vec![5, 6, 8, 9]);
        assert_eq!(a.analyze(11, &[req(10, 0, 8_000, true)]), vec![1, 2, 5, 10]);
    }

    #[test]
    fn multi_requirement_tasks() {
        let mut a = Analyzer::new();
        a.analyze(1, &[req(10, 0, 4, true), req(11, 0, 4, true)]);
        let deps = a.analyze(2, &[req(10, 0, 4, false), req(11, 0, 4, false)]);
        assert_eq!(deps, vec![1], "duplicate deps deduplicated");
    }

    #[test]
    fn own_requirements_are_not_dependences() {
        let mut a = Analyzer::new();
        a.analyze(1, &[req(10, 0, 8, true)]);
        // Reads and writes overlapping parts of one buffer: waits on
        // task 1 only, never on itself.
        let deps = a.analyze(2, &[req(10, 0, 4, false), req(10, 2, 6, true)]);
        assert_eq!(deps, vec![1]);
    }

    #[test]
    fn snapshot_install_roundtrip() {
        let mut a = Analyzer::new();
        a.analyze(7, &[req(10, 0, 4, true)]);
        let snap = a.snapshot();
        let mut b = Analyzer::new();
        b.install(&snap, 100);
        assert_eq!(b.analyze(200, &[req(10, 0, 4, false)]), vec![107]);
    }

    /// xorshift64, for the random frontiers below.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn random_req(rng: &mut u64) -> ReqLite {
        let (buf, lo) = (10 + next(rng) % 5, next(rng) % 12);
        req(buf, lo, lo + 1 + next(rng) % 6, next(rng) % 3 != 0)
    }

    /// What a capture records of the tasks `a` analyzed: the frontier
    /// they left, ascending in buffer id.
    fn recorded(a: &mut Analyzer) -> RecordedFrontier {
        let mut recorded = a.snapshot();
        recorded.sort_unstable_by_key(|(id, _)| *id);
        recorded.into()
    }

    /// The record of `tasks` random tasks, numbered from 0.
    fn record(rng: &mut u64, tasks: u64) -> RecordedFrontier {
        let mut a = Analyzer::new();
        for t in 0..tasks {
            let reqs: Vec<ReqLite> = (0..1 + next(rng) % 3).map(|_| random_req(rng)).collect();
            a.analyze(t, &reqs);
        }
        recorded(&mut a)
    }

    fn writers_of(a: &Analyzer, buffers: std::ops::Range<u64>) -> Vec<Vec<TaskId>> {
        let of = |b| {
            let mut w = Vec::new();
            a.writers(b, &mut w);
            w.sort_unstable();
            w
        };
        buffers.map(of).collect()
    }

    #[test]
    fn a_pending_frontier_is_the_installed_one() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for case in 0..200u64 {
            let recorded = record(&mut rng, 1 + case % 24);
            let base = 1000 + next(&mut rng) % 1000;
            let (mut pending, mut installed) = (Analyzer::new(), Analyzer::new());
            // Whatever either held before is replaced.
            pending.analyze(1, &[req(10, 0, 16, true)]);
            pending.set_pending(&recorded, base);
            installed.install(&recorded, base);
            // Read in place ≡ read built, absent buffers included.
            assert_eq!(writers_of(&pending, 8..17), writers_of(&installed, 8..17));
            assert!(pending.frontiers.is_empty(), "reading writers builds nothing");
            // Analysis after either finds the same dependences, task
            // after task, and leaves the same frontier.
            for t in 0..8 {
                let reqs = [random_req(&mut rng), random_req(&mut rng)];
                let id = base + 100 + t;
                assert_eq!(pending.analyze(id, &reqs), installed.analyze(id, &reqs));
            }
            assert!(pending.pending.is_none());
            assert_eq!(writers_of(&pending, 8..17), writers_of(&installed, 8..17));
            assert_eq!(pending.edges_created, installed.edges_created);
        }
    }

    #[test]
    fn replays_and_analysed_submissions_depend_on_the_right_writers() {
        // One step: task 0 writes buffer 10, task 1 reads it and
        // writes buffer 11.
        let mut a = Analyzer::new();
        a.analyze(0, &[req(10, 0, 4, true)]);
        a.analyze(1, &[req(10, 0, 4, false), req(11, 0, 1, true)]);
        let recorded = recorded(&mut a);

        // Replay at 100: buffer 11 was last written by task 101.
        a.set_pending(&recorded, 100);
        assert_eq!(writers_of(&a, 10..12), [vec![100], vec![101]]);
        // An analysed reader of 11 waits for it, and a writer of 10
        // for the replayed writer and reader of 10.
        assert_eq!(a.analyze(102, &[req(11, 0, 1, false)]), vec![101]);
        assert_eq!(a.analyze(103, &[req(10, 0, 4, true)]), vec![100, 101]);
        assert_eq!(writers_of(&a, 10..12), [vec![103], vec![101]]);
        // The next replay replaces all of that, built or not.
        a.set_pending(&recorded, 200);
        assert_eq!(writers_of(&a, 10..12), [vec![200], vec![201]]);
        a.set_pending(&recorded, 300);
        assert_eq!(a.analyze(302, &[req(10, 0, 4, true)]), vec![300, 301]);
    }
}
