//! Dynamic dependence analysis.
//!
//! For each buffer the analyzer keeps a *frontier* of recent accesses.
//! A newly submitted task conflicts with a frontier entry when their
//! subsets overlap and at least one of the two writes — the classic
//! RAW/WAR/WAW rules at interval-set granularity. Writers prune
//! dominated entries, keeping the frontier small for the streaming
//! access patterns of iterative solvers.

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

/// The analyzer: buffer id → frontier.
#[derive(Default)]
pub(crate) struct Analyzer {
    frontiers: HashMap<u64, Frontier>,
    pub edges_created: u64,
}

impl Analyzer {
    pub fn new() -> Self {
        Analyzer::default()
    }

    /// Analyze one task's requirements; returns the set of earlier
    /// tasks it must wait for (deduplicated, unordered).
    pub fn analyze(&mut self, task: TaskId, reqs: &[ReqLite]) -> Vec<TaskId> {
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

    /// Drop every frontier (used at trace-replay fences, where the
    /// runtime is quiescent and recorded frontiers are installed
    /// instead).
    pub fn clear(&mut self) {
        self.frontiers.clear();
    }

    /// Snapshot the current frontiers (trace capture).
    pub fn snapshot(&self) -> Vec<(u64, Frontier)> {
        self.frontiers
            .iter()
            .map(|(&id, f)| (id, f.clone()))
            .collect()
    }

    /// Install previously captured frontiers with task ids remapped by
    /// `remap` (trace replay).
    pub fn install(&mut self, snap: &[(u64, Frontier)], remap: impl Fn(TaskId) -> TaskId) {
        self.frontiers.clear();
        for (id, f) in snap {
            let entries = f
                .entries
                .iter()
                .map(|e| FrontierEntry {
                    task: remap(e.task),
                    subset: Arc::clone(&e.subset),
                    write: e.write,
                })
                .collect();
            self.frontiers.insert(*id, Frontier { entries });
        }
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
        // A later writer waits on both readers (and the dominated
        // writer entry was pruned when... it wasn't: subset 0..8 not
        // inside 0..8? it is; pruned at task 3? task 3 is a reader;
        // entry pruning happens only on writers).
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
        b.install(&snap, |t| t + 100);
        assert_eq!(b.analyze(200, &[req(10, 0, 4, false)]), vec![107]);
    }
}
