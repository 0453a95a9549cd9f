//! Sorted-run subsets of an index space.
//!
//! An [`IntervalSet`] stores a subset of `0..n` as a sorted list of
//! disjoint, non-adjacent half-open runs `[lo, hi)`. This is the
//! representation every dependent-partitioning operation works on:
//! images and preimages of structured relations map runs to runs, so
//! set algebra stays proportional to the number of runs rather than
//! the number of points.

use std::fmt;

/// A half-open interval `[lo, hi)` of global index points.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, PartialOrd, Ord)]
pub struct Run {
    /// Inclusive lower bound.
    pub lo: u64,
    /// Exclusive upper bound.
    pub hi: u64,
}

impl Run {
    /// Create a run; empty runs (`lo >= hi`) are permitted and ignored
    /// by [`IntervalSet`] constructors.
    #[inline]
    pub fn new(lo: u64, hi: u64) -> Self {
        Run { lo, hi }
    }

    /// Number of points in the run.
    #[inline]
    pub fn len(&self) -> u64 {
        self.hi.saturating_sub(self.lo)
    }

    /// True if the run contains no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }

    /// True if `p` lies in `[lo, hi)`.
    #[inline]
    pub fn contains(&self, p: u64) -> bool {
        self.lo <= p && p < self.hi
    }

    /// Intersection of two runs (possibly empty).
    #[inline]
    pub fn intersect(&self, other: &Run) -> Run {
        Run::new(self.lo.max(other.lo), self.hi.min(other.hi))
    }
}

/// A subset of an index space stored as sorted disjoint runs.
///
/// Invariants: runs are non-empty, sorted by `lo`, and separated by at
/// least one missing point (adjacent runs are coalesced).
#[derive(Clone, PartialEq, Eq, Default, Hash)]
pub struct IntervalSet {
    runs: Vec<Run>,
}

impl fmt::Debug for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.runs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "[{}, {})", r.lo, r.hi)?;
        }
        write!(f, "}}")
    }
}

impl IntervalSet {
    /// The empty set.
    pub fn empty() -> Self {
        IntervalSet { runs: Vec::new() }
    }

    /// The full interval `[0, n)`.
    pub fn full(n: u64) -> Self {
        Self::from_range(0, n)
    }

    /// A single run `[lo, hi)`.
    pub fn from_range(lo: u64, hi: u64) -> Self {
        if lo >= hi {
            Self::empty()
        } else {
            IntervalSet {
                runs: vec![Run::new(lo, hi)],
            }
        }
    }

    /// Build from an arbitrary list of (possibly overlapping,
    /// unsorted) runs.
    pub fn from_runs<I: IntoIterator<Item = Run>>(iter: I) -> Self {
        let mut runs: Vec<Run> = iter.into_iter().filter(|r| !r.is_empty()).collect();
        runs.sort_unstable_by_key(|r| r.lo);
        let mut out: Vec<Run> = Vec::with_capacity(runs.len());
        for r in runs {
            match out.last_mut() {
                Some(last) if r.lo <= last.hi => last.hi = last.hi.max(r.hi),
                _ => out.push(r),
            }
        }
        IntervalSet { runs: out }
    }

    /// Build from an arbitrary list of points.
    pub fn from_points<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut pts: Vec<u64> = iter.into_iter().collect();
        pts.sort_unstable();
        pts.dedup();
        Self::from_sorted_points(&pts)
    }

    /// Build from a sorted, deduplicated slice of points.
    pub fn from_sorted_points(pts: &[u64]) -> Self {
        let mut runs = Vec::new();
        let mut i = 0;
        while i < pts.len() {
            let lo = pts[i];
            let mut hi = lo + 1;
            i += 1;
            while i < pts.len() && pts[i] == hi {
                hi += 1;
                i += 1;
            }
            runs.push(Run::new(lo, hi));
        }
        IntervalSet { runs }
    }

    /// The underlying runs.
    #[inline]
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Number of points in the set.
    pub fn cardinality(&self) -> u64 {
        self.runs.iter().map(Run::len).sum()
    }

    /// True if the set contains no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Smallest point, if any.
    pub fn min(&self) -> Option<u64> {
        self.runs.first().map(|r| r.lo)
    }

    /// Largest point, if any.
    pub fn max(&self) -> Option<u64> {
        self.runs.last().map(|r| r.hi - 1)
    }

    /// Membership test (binary search over runs).
    pub fn contains(&self, p: u64) -> bool {
        self.runs
            .binary_search_by(|r| {
                if r.hi <= p {
                    std::cmp::Ordering::Less
                } else if r.lo > p {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// True iff the whole half-open range `[lo, hi)` is contained in
    /// the set (equivalently, in a single run — runs are maximal).
    /// Empty ranges are trivially contained.
    pub fn contains_range(&self, lo: u64, hi: u64) -> bool {
        if lo >= hi {
            return true;
        }
        self.runs
            .binary_search_by(|r| {
                if r.hi <= lo {
                    std::cmp::Ordering::Less
                } else if r.lo > lo {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok_and(|k| hi <= self.runs[k].hi)
    }

    /// Iterate over the individual points of the set.
    pub fn iter_points(&self) -> impl Iterator<Item = u64> + '_ {
        self.runs.iter().flat_map(|r| r.lo..r.hi)
    }

    /// Set union.
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        Self::from_runs(self.runs.iter().chain(other.runs.iter()).copied())
    }

    /// Set intersection.
    ///
    /// Walks the set with fewer runs and binary-searches the other for
    /// the first run each of them meets, as
    /// [`IntervalSet::is_disjoint`] does: `O(s · log l + k)` for `s`
    /// runs on the smaller side, `l` on the larger and `k` runs out.
    /// The pieces come out in order and never touch (two pieces of one
    /// run lie in two runs of the other, which a gap separates), so
    /// the result is normalized as it is built.
    pub fn intersect(&self, other: &IntervalSet) -> IntervalSet {
        let (small, large) = if self.runs.len() <= other.runs.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = Vec::new();
        let mut at = 0;
        for r in &small.runs {
            at += large.runs[at..].partition_point(|s| s.hi <= r.lo);
            let met = large.runs[at..].iter().take_while(|s| s.lo < r.hi);
            out.extend(met.map(|s| r.intersect(s)));
        }
        IntervalSet { runs: out }
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = Vec::new();
        let mut j = 0;
        for &a in &self.runs {
            let mut lo = a.lo;
            while j < other.runs.len() && other.runs[j].hi <= lo {
                j += 1;
            }
            let mut k = j;
            while k < other.runs.len() && other.runs[k].lo < a.hi {
                let b = other.runs[k];
                if b.lo > lo {
                    out.push(Run::new(lo, b.lo.min(a.hi)));
                }
                lo = lo.max(b.hi);
                if b.hi >= a.hi {
                    break;
                }
                k += 1;
            }
            if lo < a.hi {
                out.push(Run::new(lo, a.hi));
            }
        }
        IntervalSet { runs: out }
    }

    /// Complement within `[0, n)`.
    pub fn complement(&self, n: u64) -> IntervalSet {
        IntervalSet::full(n).difference(self)
    }

    /// True if the two sets share no points.
    ///
    /// Walks the set with fewer runs and binary-searches the other for
    /// each of them: `O(s · log l)` for `s` runs on the smaller side
    /// and `l` on the larger, whatever the points, and no allocation.
    pub fn is_disjoint(&self, other: &IntervalSet) -> bool {
        let (small, large) = if self.runs.len() <= other.runs.len() {
            (self, other)
        } else {
            (other, self)
        };
        each_found(small.runs.iter().copied(), &large.runs, misses)
    }

    /// True if every point of `self` is in `other`.
    ///
    /// Walks the side with fewer runs and binary-searches the other:
    /// either each run of `self` must lie inside one run of `other`
    /// (runs are maximal, so a run is covered only that way), or —
    /// when `other` has fewer runs — `self` must miss each gap between
    /// them. `O(s · log l)` as for [`IntervalSet::is_disjoint`], and no
    /// allocation: no set is built.
    pub fn is_subset_of(&self, other: &IntervalSet) -> bool {
        if self.runs.len() <= other.runs.len() {
            let inside =
                |r: Run, hit: Option<&Run>| hit.is_some_and(|h| h.lo <= r.lo && r.hi <= h.hi);
            each_found(self.runs.iter().copied(), &other.runs, inside)
        } else {
            // The gaps: before the first run, between runs, after the
            // last. Only the first and last can be empty, and an empty
            // one misses everything.
            let los = [0].into_iter().chain(other.runs.iter().map(|r| r.hi));
            let his = other.runs.iter().map(|r| r.lo).chain([u64::MAX]);
            let gaps = los.zip(his).map(|(lo, hi)| Run::new(lo, hi));
            each_found(gaps, &self.runs, misses)
        }
    }

    /// Translate every point by a signed offset, dropping points that
    /// leave `[0, limit)`. Used by diagonal (DIA) relations.
    pub fn shift_clamped(&self, offset: i64, limit: u64) -> IntervalSet {
        let mut out = Vec::new();
        for &r in &self.runs {
            let lo = r.lo as i64 + offset;
            let hi = r.hi as i64 + offset;
            let lo = lo.clamp(0, limit as i64) as u64;
            let hi = hi.clamp(0, limit as i64) as u64;
            if lo < hi {
                out.push(Run::new(lo, hi));
            }
        }
        // Shift preserves ordering and disjointness; clamping can only
        // merge at the boundary, which from_runs handles.
        Self::from_runs(out)
    }

    /// Split this set into `pieces` nearly-equal contiguous chunks (by
    /// point count, in index order). Used to subdivide kernel spaces.
    pub fn split_equal(&self, pieces: usize) -> Vec<IntervalSet> {
        assert!(pieces > 0, "cannot split into zero pieces");
        let total = self.cardinality();
        let mut out = Vec::with_capacity(pieces);
        let mut run_idx = 0usize;
        let mut offset = 0u64; // points consumed from runs[run_idx]
        for c in 0..pieces as u64 {
            // points in piece c: balanced remainder distribution
            let want = total / pieces as u64 + u64::from(c < total % pieces as u64);
            let mut need = want;
            let mut runs = Vec::new();
            while need > 0 && run_idx < self.runs.len() {
                let r = self.runs[run_idx];
                let avail = r.len() - offset;
                let take = avail.min(need);
                runs.push(Run::new(r.lo + offset, r.lo + offset + take));
                need -= take;
                offset += take;
                if offset == r.len() {
                    run_idx += 1;
                    offset = 0;
                }
            }
            out.push(IntervalSet { runs });
        }
        out
    }
}

/// The search both predicates are made of: for each of `walked`'s runs,
/// in ascending order, the first run of `searched` that ends after it
/// starts (`None` past the last) — a binary search over the part of
/// `searched` not yet passed — and true iff `keep` holds for every
/// pair.
fn each_found(
    mut walked: impl Iterator<Item = Run>,
    searched: &[Run],
    keep: impl Fn(Run, Option<&Run>) -> bool,
) -> bool {
    let mut at = 0;
    walked.all(|r| {
        at += searched[at..].partition_point(|s| s.hi <= r.lo);
        keep(r, searched.get(at))
    })
}

/// `r` shares no point with the run [`each_found`] found for it, nor
/// with any later one.
fn misses(r: Run, hit: Option<&Run>) -> bool {
    hit.is_none_or(|h| r.hi <= h.lo)
}

impl FromIterator<u64> for IntervalSet {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        Self::from_points(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_points_coalesces() {
        let s = IntervalSet::from_points([5, 3, 4, 9, 1, 2]);
        assert_eq!(s.runs(), &[Run::new(1, 6), Run::new(9, 10)]);
        assert_eq!(s.cardinality(), 6);
    }

    #[test]
    fn from_runs_merges_overlaps_and_adjacency() {
        let s = IntervalSet::from_runs([Run::new(0, 3), Run::new(3, 5), Run::new(4, 8)]);
        assert_eq!(s.runs(), &[Run::new(0, 8)]);
        let t = IntervalSet::from_runs([Run::new(0, 2), Run::new(3, 5)]);
        assert_eq!(t.runs().len(), 2);
    }

    #[test]
    fn empty_runs_are_dropped() {
        let s = IntervalSet::from_runs([Run::new(3, 3), Run::new(7, 5)]);
        assert!(s.is_empty());
        assert_eq!(s.cardinality(), 0);
    }

    #[test]
    fn contains_and_iter() {
        let s = IntervalSet::from_points([0, 2, 3, 10]);
        assert!(s.contains(0));
        assert!(!s.contains(1));
        assert!(s.contains(2));
        assert!(s.contains(10));
        assert!(!s.contains(11));
        assert_eq!(s.iter_points().collect::<Vec<_>>(), vec![0, 2, 3, 10]);
    }

    #[test]
    fn union_intersect_difference() {
        let a = IntervalSet::from_range(0, 10);
        let b = IntervalSet::from_range(5, 15);
        assert_eq!(a.union(&b), IntervalSet::from_range(0, 15));
        assert_eq!(a.intersect(&b), IntervalSet::from_range(5, 10));
        assert_eq!(a.difference(&b), IntervalSet::from_range(0, 5));
        assert_eq!(b.difference(&a), IntervalSet::from_range(10, 15));
    }

    #[test]
    fn difference_multi_run() {
        let a = IntervalSet::full(20);
        let b = IntervalSet::from_runs([Run::new(2, 4), Run::new(8, 12), Run::new(18, 25)]);
        let d = a.difference(&b);
        assert_eq!(
            d.runs(),
            &[Run::new(0, 2), Run::new(4, 8), Run::new(12, 18)]
        );
    }

    #[test]
    fn complement_roundtrip() {
        let s = IntervalSet::from_runs([Run::new(1, 3), Run::new(6, 9)]);
        let c = s.complement(10);
        assert_eq!(c.union(&s), IntervalSet::full(10));
        assert!(c.is_disjoint(&s));
        assert_eq!(c.complement(10), s);
    }

    #[test]
    fn disjoint_and_subset() {
        let a = IntervalSet::from_range(0, 5);
        let b = IntervalSet::from_range(5, 10);
        assert!(a.is_disjoint(&b));
        assert!(a.is_subset_of(&IntervalSet::full(5)));
        assert!(!IntervalSet::full(6).is_subset_of(&a));
    }

    #[test]
    fn shift_clamped_drops_out_of_range() {
        let s = IntervalSet::from_range(0, 5);
        assert_eq!(s.shift_clamped(-2, 10), IntervalSet::from_range(0, 3));
        assert_eq!(s.shift_clamped(7, 10), IntervalSet::from_range(7, 10));
        assert!(s.shift_clamped(20, 10).is_empty());
        assert!(s.shift_clamped(-20, 10).is_empty());
    }

    #[test]
    fn split_equal_balanced() {
        let s = IntervalSet::full(10);
        let parts = s.split_equal(3);
        assert_eq!(parts.len(), 3);
        assert_eq!(
            parts.iter().map(|p| p.cardinality()).collect::<Vec<_>>(),
            vec![4, 3, 3]
        );
        // Union of parts reconstructs the whole; parts are disjoint.
        let u = parts.iter().fold(IntervalSet::empty(), |a, b| a.union(b));
        assert_eq!(u, s);
        assert!(parts[0].is_disjoint(&parts[1]));
        assert!(parts[1].is_disjoint(&parts[2]));
    }

    #[test]
    fn split_equal_over_gappy_set() {
        let s = IntervalSet::from_runs([Run::new(0, 4), Run::new(10, 14)]);
        let parts = s.split_equal(4);
        assert_eq!(parts.iter().map(|p| p.cardinality()).sum::<u64>(), 8);
        for p in &parts {
            assert!(p.is_subset_of(&s));
            assert_eq!(p.cardinality(), 2);
        }
    }

    #[test]
    fn split_more_pieces_than_points() {
        let s = IntervalSet::full(2);
        let parts = s.split_equal(5);
        assert_eq!(parts.len(), 5);
        assert_eq!(parts.iter().map(|p| p.cardinality()).sum::<u64>(), 2);
        assert!(parts[2].is_empty() && parts[3].is_empty() && parts[4].is_empty());
    }

    #[test]
    fn min_max() {
        let s = IntervalSet::from_runs([Run::new(3, 5), Run::new(8, 9)]);
        assert_eq!(s.min(), Some(3));
        assert_eq!(s.max(), Some(8));
        assert_eq!(IntervalSet::empty().min(), None);
    }
}
