//! Binary relations between index spaces.
//!
//! A storage format in KDRSolvers is *defined* by its column relation
//! `col ⊆ K × D` and row relation `row ⊆ K × R` (paper §3, Figure 3).
//! Every co-partitioning operation is an image or preimage of a subset
//! along such a relation, so this module is the heart of the
//! dependent-partitioning substrate.
//!
//! Concrete relations provided here cover every row in the paper's
//! Figure 3:
//!
//! * [`FnRelation`] — an array-backed function `K -> J` (COO `row`/
//!   `col`, CSR `col`, CSC `row`, ELL `col`, …).
//! * [`IntervalMapRelation`] — a map from each source point to a
//!   contiguous run of targets (CSR `rowptr : R -> [K, K]`, CSC
//!   `colptr`, and the block-expansion maps of BCSR/BCSC).
//! * [`ProjectionRelation`] — the implicit projections `π1`/`π2` of a
//!   Cartesian-product space (dense matrices with `K = R × D`, the
//!   ELL/ELL' implicit axis).
//! * [`DiagonalRelation`] — the implicit, *partial* DIA row relation
//!   `(k0, i) ↦ i − offset(k0)`.
//! * [`ComposedRelation`], [`UnionRelation`] — glue for block formats
//!   and user-defined hybrids.
//!
//! Relations may be partial (DIA) and many-to-many (unions, interval
//! maps); images and preimages are always well-defined.
//!
//! # What a projection costs
//!
//! Co-partitioning calls `image` and `preimage` once per piece, so a
//! relation's cost is what registering an operator pays before its
//! first task. The run-structured relations map runs to runs. The
//! table-backed [`FnRelation`] is linear in the set it is given:
//!
//! * `image` of a set of at least `target_size / 64` points marks the
//!   targets on a bitmap of the target space and reads the runs off
//!   it — `O(|set| + target_size / 64)`, no sort; a smaller set (the
//!   bitmap would be larger than the points it stands in for)
//!   collects, sorts and dedups its target points instead.
//! * `preimage` needs the inverse index (sources counting-sorted by
//!   target, `O(|S| + |T|)` to build). Nothing builds it until the
//!   first `preimage` call; it is then kept for the relation's life.
//!   Construction only range-checks the table.

use std::sync::OnceLock;

use crate::interval::{IntervalSet, Run};

/// An abstract binary relation `R ⊆ S × T` between a source space `S`
/// (points `0..source_size`) and target space `T` (`0..target_size`).
pub trait Relation: Send + Sync {
    /// Number of points in the source space.
    fn source_size(&self) -> u64;

    /// Number of points in the target space.
    fn target_size(&self) -> u64;

    /// Append every target related to source point `s` to `out`.
    fn targets_of(&self, s: u64, out: &mut Vec<u64>);

    /// Image of a source subset: `{ t | ∃ s ∈ set : (s, t) ∈ R }`.
    ///
    /// The default iterates source points; structured relations
    /// override this with run-level arithmetic.
    fn image(&self, set: &IntervalSet) -> IntervalSet {
        let mut pts = Vec::new();
        let mut buf = Vec::new();
        for s in set.iter_points() {
            buf.clear();
            self.targets_of(s, &mut buf);
            pts.extend_from_slice(&buf);
        }
        IntervalSet::from_points(pts)
    }

    /// Preimage of a target subset: `{ s | ∃ t ∈ set : (s, t) ∈ R }`.
    ///
    /// The default scans the entire source space; structured relations
    /// override this.
    fn preimage(&self, set: &IntervalSet) -> IntervalSet {
        let mut pts = Vec::new();
        let mut buf = Vec::new();
        for s in 0..self.source_size() {
            buf.clear();
            self.targets_of(s, &mut buf);
            if buf.iter().any(|&t| set.contains(t)) {
                pts.push(s);
            }
        }
        IntervalSet::from_sorted_points(&pts)
    }
}

/// An array-backed total function `S -> T`: source point `s` relates
/// to exactly `map[s]`.
///
/// Construction only checks the table. The inverse index that makes
/// preimages run in `O(|T ∩ set| + runs)` rather than `O(|S|)` is a
/// counting sort of the sources by target, built by the first
/// [`Relation::preimage`] call and kept; a relation that is only ever
/// projected forward (a CSR `col` under a row partition) never pays
/// for it.
pub struct FnRelation {
    map: Vec<u64>,
    target_size: u64,
    inverse: OnceLock<InverseIndex>,
}

/// Source points sorted by target: `sources[off[t]..off[t + 1]]` are
/// the sources mapping to target `t`, ascending.
struct InverseIndex {
    sources: Vec<u64>,
    off: Vec<u64>,
}

/// [`FnRelation::image`] marks targets on a bitmap of the target space
/// when that bitmap is no larger than the list of target points it
/// stands in for — 64 targets per 8-byte word against 8 bytes per
/// source point — and collects, sorts and dedups the points otherwise
/// (a set that is tiny against the target space).
const IMAGE_BITMAP_TARGETS_PER_POINT: u64 = 64;

impl FnRelation {
    /// Build from the function table `map : S -> T`. Panics if any
    /// entry is out of range.
    pub fn new(map: Vec<u64>, target_size: u64) -> Self {
        for &t in &map {
            assert!(
                t < target_size,
                "FnRelation target {t} out of range {target_size}"
            );
        }
        FnRelation {
            map,
            target_size,
            inverse: OnceLock::new(),
        }
    }

    /// The raw function table.
    pub fn table(&self) -> &[u64] {
        &self.map
    }

    /// Counting sort of the sources by target.
    fn inverse(&self) -> &InverseIndex {
        self.inverse.get_or_init(|| {
            let mut cursor = vec![0u64; self.target_size as usize + 1];
            for &t in &self.map {
                cursor[t as usize + 1] += 1;
            }
            for i in 1..cursor.len() {
                cursor[i] += cursor[i - 1];
            }
            let off = cursor.clone();
            let mut sources = vec![0u64; self.map.len()];
            for (s, &t) in self.map.iter().enumerate() {
                sources[cursor[t as usize] as usize] = s as u64;
                cursor[t as usize] += 1;
            }
            InverseIndex { sources, off }
        })
    }
}

impl Relation for FnRelation {
    fn source_size(&self) -> u64 {
        self.map.len() as u64
    }

    fn target_size(&self) -> u64 {
        self.target_size
    }

    fn targets_of(&self, s: u64, out: &mut Vec<u64>) {
        out.push(self.map[s as usize]);
    }

    fn image(&self, set: &IntervalSet) -> IntervalSet {
        let targets = set.iter_points().map(|s| self.map[s as usize]);
        let points = set.cardinality();
        if points.saturating_mul(IMAGE_BITMAP_TARGETS_PER_POINT) < self.target_size {
            return IntervalSet::from_points(targets);
        }
        // One spare bit past the target space closes the last run.
        let mut marks = vec![0u64; self.target_size as usize / 64 + 1];
        for t in targets {
            marks[t as usize / 64] |= 1 << (t % 64);
        }
        // Read the runs off the bitmap: alternately skip to the next
        // set bit (a run opens) and to the next clear bit (it closes).
        let mut runs = Vec::new();
        let mut open = None;
        for (w, &word) in marks.iter().enumerate() {
            let base = w as u64 * 64;
            let mut bit = 0u32;
            while bit < 64 {
                let rest = word >> bit;
                match open {
                    None if rest == 0 => break,
                    None => {
                        bit += rest.trailing_zeros();
                        open = Some(base + u64::from(bit));
                    }
                    Some(lo) => {
                        // Bits shifted in from above are clear.
                        bit += rest.trailing_ones();
                        if bit < 64 {
                            runs.push(Run::new(lo, base + u64::from(bit)));
                            open = None;
                        }
                    }
                }
            }
        }
        IntervalSet::from_runs(runs)
    }

    fn preimage(&self, set: &IntervalSet) -> IntervalSet {
        let inv = self.inverse();
        let mut pts = Vec::new();
        for r in set.runs() {
            let lo = inv.off[r.lo as usize] as usize;
            let hi = inv.off[r.hi as usize] as usize;
            pts.extend_from_slice(&inv.sources[lo..hi]);
        }
        IntervalSet::from_points(pts)
    }
}

/// A relation mapping each source point `s` to the contiguous run
/// `[lo(s), hi(s))` of targets — the shape of CSR's
/// `rowptr : R -> [K, K]` and of block-expansion maps.
///
/// When the runs are monotonically non-decreasing (as rowptr runs
/// are), preimages use binary search; otherwise they fall back to a
/// linear scan.
pub struct IntervalMapRelation {
    lo: Vec<u64>,
    hi: Vec<u64>,
    target_size: u64,
    monotonic: bool,
}

impl IntervalMapRelation {
    /// Build from explicit per-source runs.
    pub fn new(lo: Vec<u64>, hi: Vec<u64>, target_size: u64) -> Self {
        assert_eq!(lo.len(), hi.len());
        for i in 0..lo.len() {
            assert!(lo[i] <= hi[i], "inverted run at source {i}");
            assert!(hi[i] <= target_size, "run at source {i} out of range");
        }
        let monotonic = lo.windows(2).all(|w| w[0] <= w[1]) && hi.windows(2).all(|w| w[0] <= w[1]);
        IntervalMapRelation {
            lo,
            hi,
            target_size,
            monotonic,
        }
    }

    /// Build from a CSR-style offsets array of length `n + 1`:
    /// source `s` relates to targets `offsets[s]..offsets[s+1]`.
    pub fn from_offsets(offsets: &[u64], target_size: u64) -> Self {
        assert!(!offsets.is_empty());
        let lo = offsets[..offsets.len() - 1].to_vec();
        let hi = offsets[1..].to_vec();
        Self::new(lo, hi, target_size)
    }

    /// Uniform blocks: source `s` relates to
    /// `[s * block, (s + 1) * block)`. This is the block-expansion map
    /// `D0 -> D` used by BCSR/BCSC.
    pub fn uniform_blocks(num_sources: u64, block: u64) -> Self {
        let lo: Vec<u64> = (0..num_sources).map(|s| s * block).collect();
        let hi: Vec<u64> = (0..num_sources).map(|s| (s + 1) * block).collect();
        Self::new(lo, hi, num_sources * block)
    }

    fn run_of(&self, s: u64) -> Run {
        Run::new(self.lo[s as usize], self.hi[s as usize])
    }
}

impl Relation for IntervalMapRelation {
    fn source_size(&self) -> u64 {
        self.lo.len() as u64
    }

    fn target_size(&self) -> u64 {
        self.target_size
    }

    fn targets_of(&self, s: u64, out: &mut Vec<u64>) {
        let r = self.run_of(s);
        out.extend(r.lo..r.hi);
    }

    fn image(&self, set: &IntervalSet) -> IntervalSet {
        IntervalSet::from_runs(set.iter_points().map(|s| self.run_of(s)))
    }

    fn preimage(&self, set: &IntervalSet) -> IntervalSet {
        if set.is_empty() || self.lo.is_empty() {
            return IntervalSet::empty();
        }
        if !self.monotonic {
            let pts: Vec<u64> = (0..self.source_size())
                .filter(|&s| {
                    let r = self.run_of(s);
                    !set.intersect(&IntervalSet::from_range(r.lo, r.hi))
                        .is_empty()
                })
                .collect();
            return IntervalSet::from_sorted_points(&pts);
        }
        // Monotonic case: for each target run, the sources whose run
        // intersects it form a contiguous range found by binary search.
        let mut out = Vec::new();
        for tr in set.runs() {
            // First source s with hi(s) > tr.lo.
            let first = self.hi.partition_point(|&h| h <= tr.lo) as u64;
            // First source s with lo(s) >= tr.hi.
            let last = self.lo.partition_point(|&l| l < tr.hi) as u64;
            if first < last {
                // Sources in [first, last) may include empty runs that
                // intersect nothing; filter them out.
                let mut lo = first;
                while lo < last
                    && self
                        .run_of(lo)
                        .intersect(&Run::new(tr.lo, tr.hi))
                        .is_empty()
                {
                    lo += 1;
                }
                let mut hi = last;
                while hi > lo
                    && self
                        .run_of(hi - 1)
                        .intersect(&Run::new(tr.lo, tr.hi))
                        .is_empty()
                {
                    hi -= 1;
                }
                // Interior empty runs still intersect nothing but are
                // rare (empty rows); include-and-filter keeps this
                // O(runs). For exactness, split around empty interiors.
                let mut run_start = None;
                for s in lo..hi {
                    let nonempty = !self.run_of(s).intersect(&Run::new(tr.lo, tr.hi)).is_empty();
                    match (nonempty, run_start) {
                        (true, None) => run_start = Some(s),
                        (false, Some(st)) => {
                            out.push(Run::new(st, s));
                            run_start = None;
                        }
                        _ => {}
                    }
                }
                if let Some(st) = run_start {
                    out.push(Run::new(st, hi));
                }
            }
        }
        IntervalSet::from_runs(out)
    }
}

/// Which factor of a Cartesian product a projection keeps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProjectionAxis {
    /// `π1 : Outer × Inner -> Outer` (the slow, row-major-leading axis).
    Outer,
    /// `π2 : Outer × Inner -> Inner` (the fast axis).
    Inner,
}

/// The implicit projection of a product space `S = Outer × Inner`
/// (linearized row-major, `s = o * inner + i`) onto one factor.
///
/// Dense matrices use `K = R × D` with `row = π1`, `col = π2`; ELL
/// uses `K = R × K0` with `row = π1`; ELL' uses `K = D × K0` with
/// `col = π1`.
pub struct ProjectionRelation {
    outer: u64,
    inner: u64,
    axis: ProjectionAxis,
}

impl ProjectionRelation {
    /// Projection of the `outer * inner`-point product space onto the
    /// chosen `axis` — one of the `row`/`col` relations of paper
    /// Figure 3 for dense/ELL-style kernel spaces.
    pub fn new(outer: u64, inner: u64, axis: ProjectionAxis) -> Self {
        assert!(inner > 0 && outer > 0, "degenerate product space");
        ProjectionRelation { outer, inner, axis }
    }
}

impl Relation for ProjectionRelation {
    fn source_size(&self) -> u64 {
        self.outer * self.inner
    }

    fn target_size(&self) -> u64 {
        match self.axis {
            ProjectionAxis::Outer => self.outer,
            ProjectionAxis::Inner => self.inner,
        }
    }

    fn targets_of(&self, s: u64, out: &mut Vec<u64>) {
        match self.axis {
            ProjectionAxis::Outer => out.push(s / self.inner),
            ProjectionAxis::Inner => out.push(s % self.inner),
        }
    }

    fn image(&self, set: &IntervalSet) -> IntervalSet {
        let mut out = Vec::new();
        for r in set.runs() {
            match self.axis {
                ProjectionAxis::Outer => {
                    out.push(Run::new(r.lo / self.inner, (r.hi - 1) / self.inner + 1));
                }
                ProjectionAxis::Inner => {
                    if r.len() >= self.inner {
                        out.push(Run::new(0, self.inner));
                    } else {
                        let a = r.lo % self.inner;
                        let b = (r.hi - 1) % self.inner + 1;
                        if a < b {
                            out.push(Run::new(a, b));
                        } else {
                            // The run wraps around the inner axis.
                            out.push(Run::new(0, b));
                            out.push(Run::new(a, self.inner));
                        }
                    }
                }
            }
        }
        IntervalSet::from_runs(out)
    }

    fn preimage(&self, set: &IntervalSet) -> IntervalSet {
        let mut out = Vec::new();
        match self.axis {
            ProjectionAxis::Outer => {
                for r in set.runs() {
                    out.push(Run::new(r.lo * self.inner, r.hi * self.inner));
                }
            }
            ProjectionAxis::Inner => {
                // { o * inner + t | o in 0..outer, t in set }
                for o in 0..self.outer {
                    let base = o * self.inner;
                    for r in set.runs() {
                        out.push(Run::new(base + r.lo, base + r.hi));
                    }
                }
            }
        }
        IntervalSet::from_runs(out)
    }
}

/// The implicit, partial DIA row relation.
///
/// DIA stores `num_diags` diagonals of length `d` (the domain size):
/// kernel point `k = k0 * d + i` holds the entry at column `i`, row
/// `i - offset(k0)`. Points whose row falls outside `[0, r)` are
/// padding and relate to nothing.
pub struct DiagonalRelation {
    offsets: Vec<i64>,
    d: u64,
    r: u64,
}

impl DiagonalRelation {
    /// `offsets[k0]` is the diagonal offset of stored diagonal `k0`;
    /// `d` the domain size, `r` the range size.
    pub fn new(offsets: Vec<i64>, d: u64, r: u64) -> Self {
        DiagonalRelation { offsets, d, r }
    }
}

impl Relation for DiagonalRelation {
    fn source_size(&self) -> u64 {
        self.offsets.len() as u64 * self.d
    }

    fn target_size(&self) -> u64 {
        self.r
    }

    fn targets_of(&self, s: u64, out: &mut Vec<u64>) {
        let k0 = (s / self.d) as usize;
        let i = (s % self.d) as i64;
        let row = i - self.offsets[k0];
        if row >= 0 && (row as u64) < self.r {
            out.push(row as u64);
        }
    }

    fn image(&self, set: &IntervalSet) -> IntervalSet {
        let mut acc = IntervalSet::empty();
        for (k0, &off) in self.offsets.iter().enumerate() {
            let base = k0 as u64 * self.d;
            let slab = set.intersect(&IntervalSet::from_range(base, base + self.d));
            if slab.is_empty() {
                continue;
            }
            // Within this diagonal, k = base + i maps to i - off.
            let shifted = slab.shift_clamped(-(base as i64) - off, self.r);
            acc = acc.union(&shifted);
        }
        acc
    }

    fn preimage(&self, set: &IntervalSet) -> IntervalSet {
        let mut acc = IntervalSet::empty();
        for (k0, &off) in self.offsets.iter().enumerate() {
            let base = k0 as u64 * self.d;
            // Row t is stored in diagonal k0 at column i = t + off,
            // i.e. kernel point base + t + off, valid while i in [0, d).
            let cols = set.shift_clamped(off, self.d);
            let shifted = cols.shift_clamped(base as i64, base + self.d);
            acc = acc.union(&shifted);
        }
        acc
    }
}

/// Relational composition `R2 ∘ R1 : S -> U` where `R1 : S -> T` and
/// `R2 : T -> U`. Block formats (BCSR/BCSC) express their full-space
/// relations as compositions of block-space relations with expansion
/// maps.
pub struct ComposedRelation {
    first: Box<dyn Relation>,
    second: Box<dyn Relation>,
}

impl ComposedRelation {
    /// Compose `second ∘ first`; panics unless `first`'s target space
    /// matches `second`'s source space.
    pub fn new(first: Box<dyn Relation>, second: Box<dyn Relation>) -> Self {
        assert_eq!(
            first.target_size(),
            second.source_size(),
            "composition spaces must agree"
        );
        ComposedRelation { first, second }
    }
}

impl Relation for ComposedRelation {
    fn source_size(&self) -> u64 {
        self.first.source_size()
    }

    fn target_size(&self) -> u64 {
        self.second.target_size()
    }

    fn targets_of(&self, s: u64, out: &mut Vec<u64>) {
        let mut mid = Vec::new();
        self.first.targets_of(s, &mut mid);
        for t in mid {
            self.second.targets_of(t, out);
        }
    }

    fn image(&self, set: &IntervalSet) -> IntervalSet {
        self.second.image(&self.first.image(set))
    }

    fn preimage(&self, set: &IntervalSet) -> IntervalSet {
        self.first.preimage(&self.second.preimage(set))
    }
}

/// A relation with source and target swapped.
///
/// KDRSolvers' canonical row/column relations run `K -> R` and
/// `K -> D`, but some formats store the opposite direction natively
/// (CSR's `rowptr : R -> [K, K]`, CSC's `colptr : D -> [K, K]`).
/// Wrapping in `TransposedRelation` exchanges image and preimage, so
/// the stored direction stays fast in both projections.
pub struct TransposedRelation {
    inner: Box<dyn Relation>,
}

impl TransposedRelation {
    /// View `inner : S -> T` as the reversed relation `T -> S`.
    pub fn new(inner: Box<dyn Relation>) -> Self {
        TransposedRelation { inner }
    }
}

impl Relation for TransposedRelation {
    fn source_size(&self) -> u64 {
        self.inner.target_size()
    }

    fn target_size(&self) -> u64 {
        self.inner.source_size()
    }

    fn targets_of(&self, s: u64, out: &mut Vec<u64>) {
        // Sources of the inner relation related to target point `s`.
        let pre = self.inner.preimage(&IntervalSet::from_range(s, s + 1));
        out.extend(pre.iter_points());
    }

    fn image(&self, set: &IntervalSet) -> IntervalSet {
        self.inner.preimage(set)
    }

    fn preimage(&self, set: &IntervalSet) -> IntervalSet {
        self.inner.image(set)
    }
}

/// The union of several relations over the same pair of spaces —
/// a many-to-many relation. Useful for user-defined hybrid formats.
pub struct UnionRelation {
    parts: Vec<Box<dyn Relation>>,
}

impl UnionRelation {
    /// Union the given relations; panics if they disagree on source or
    /// target space size, or if `parts` is empty.
    pub fn new(parts: Vec<Box<dyn Relation>>) -> Self {
        assert!(!parts.is_empty(), "empty union relation");
        let (s, t) = (parts[0].source_size(), parts[0].target_size());
        for p in &parts {
            assert_eq!(p.source_size(), s, "union parts must share source space");
            assert_eq!(p.target_size(), t, "union parts must share target space");
        }
        UnionRelation { parts }
    }
}

impl Relation for UnionRelation {
    fn source_size(&self) -> u64 {
        self.parts[0].source_size()
    }

    fn target_size(&self) -> u64 {
        self.parts[0].target_size()
    }

    fn targets_of(&self, s: u64, out: &mut Vec<u64>) {
        for p in &self.parts {
            p.targets_of(s, out);
        }
    }

    fn image(&self, set: &IntervalSet) -> IntervalSet {
        let mut acc = IntervalSet::empty();
        for p in &self.parts {
            acc = acc.union(&p.image(set));
        }
        acc
    }

    fn preimage(&self, set: &IntervalSet) -> IntervalSet {
        let mut acc = IntervalSet::empty();
        for p in &self.parts {
            acc = acc.union(&p.preimage(set));
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force image using only `targets_of`, to validate the
    /// structured fast paths.
    fn naive_image(rel: &dyn Relation, set: &IntervalSet) -> IntervalSet {
        let mut pts = Vec::new();
        let mut buf = Vec::new();
        for s in set.iter_points() {
            buf.clear();
            rel.targets_of(s, &mut buf);
            pts.extend_from_slice(&buf);
        }
        IntervalSet::from_points(pts)
    }

    /// Brute-force preimage using only `targets_of`.
    fn naive_preimage(rel: &dyn Relation, set: &IntervalSet) -> IntervalSet {
        let mut pts = Vec::new();
        let mut buf = Vec::new();
        for s in 0..rel.source_size() {
            buf.clear();
            rel.targets_of(s, &mut buf);
            if buf.iter().any(|&t| set.contains(t)) {
                pts.push(s);
            }
        }
        IntervalSet::from_sorted_points(&pts)
    }

    #[test]
    fn fn_relation_image_preimage() {
        let rel = FnRelation::new(vec![2, 0, 2, 1, 4], 5);
        let s = IntervalSet::from_points([0, 2, 3]);
        assert_eq!(rel.image(&s), IntervalSet::from_points([1, 2]));
        let t = IntervalSet::from_points([2]);
        assert_eq!(rel.preimage(&t), IntervalSet::from_points([0, 2]));
        assert_eq!(
            rel.preimage(&IntervalSet::from_points([3])),
            IntervalSet::empty()
        );
    }

    #[test]
    fn fn_relation_matches_naive() {
        let map: Vec<u64> = (0..50).map(|i| (i * 7 + 3) % 13).collect();
        let rel = FnRelation::new(map, 13);
        for set in [
            IntervalSet::from_range(0, 5),
            IntervalSet::from_points([1, 9, 30, 31, 49]),
            IntervalSet::empty(),
        ] {
            assert_eq!(rel.image(&set), naive_image(&rel, &set));
        }
        for set in [
            IntervalSet::from_range(0, 4),
            IntervalSet::from_points([0, 12]),
            IntervalSet::full(13),
        ] {
            assert_eq!(rel.preimage(&set), naive_preimage(&rel, &set));
        }
    }

    #[test]
    fn interval_map_from_offsets() {
        // 3 rows with rowptr [0, 2, 2, 5] over 5 kernel points.
        let rel = IntervalMapRelation::from_offsets(&[0, 2, 2, 5], 5);
        assert_eq!(
            rel.image(&IntervalSet::from_points([0])),
            IntervalSet::from_range(0, 2)
        );
        assert_eq!(
            rel.image(&IntervalSet::from_points([1])),
            IntervalSet::empty()
        );
        assert_eq!(
            rel.image(&IntervalSet::from_points([0, 2])),
            IntervalSet::from_runs([Run::new(0, 2), Run::new(2, 5)])
        );
        // Preimage: kernel points 2..4 belong to row 2 only.
        assert_eq!(
            rel.preimage(&IntervalSet::from_range(2, 4)),
            IntervalSet::from_points([2])
        );
        // Kernel point 1 belongs to row 0.
        assert_eq!(
            rel.preimage(&IntervalSet::from_points([1])),
            IntervalSet::from_points([0])
        );
    }

    #[test]
    fn interval_map_matches_naive() {
        // Random-ish monotonic rowptr with empty rows.
        let offsets = vec![0u64, 3, 3, 7, 7, 7, 12, 20];
        let rel = IntervalMapRelation::from_offsets(&offsets, 20);
        for set in [
            IntervalSet::from_points([0, 3, 6]),
            IntervalSet::full(7),
            IntervalSet::from_points([1, 4]),
        ] {
            assert_eq!(rel.image(&set), naive_image(&rel, &set));
        }
        for set in [
            IntervalSet::from_range(0, 20),
            IntervalSet::from_points([2, 6, 7, 19]),
            IntervalSet::from_points([3]),
            IntervalSet::empty(),
        ] {
            assert_eq!(
                rel.preimage(&set),
                naive_preimage(&rel, &set),
                "set {set:?}"
            );
        }
    }

    #[test]
    fn interval_map_non_monotonic() {
        let rel = IntervalMapRelation::new(vec![5, 0, 3], vec![8, 2, 5], 10);
        let set = IntervalSet::from_range(0, 4);
        assert_eq!(rel.preimage(&set), naive_preimage(&rel, &set));
        assert_eq!(
            rel.image(&IntervalSet::full(3)),
            naive_image(&rel, &IntervalSet::full(3))
        );
    }

    #[test]
    fn projection_outer() {
        // 4 x 3 product space (outer=4, inner=3).
        let rel = ProjectionRelation::new(4, 3, ProjectionAxis::Outer);
        assert_eq!(
            rel.image(&IntervalSet::from_range(0, 3)),
            IntervalSet::from_points([0])
        );
        assert_eq!(
            rel.image(&IntervalSet::from_range(2, 7)),
            IntervalSet::from_range(0, 3)
        );
        assert_eq!(
            rel.preimage(&IntervalSet::from_points([2])),
            IntervalSet::from_range(6, 9)
        );
        for set in [
            IntervalSet::from_points([0, 5, 11]),
            IntervalSet::from_range(3, 9),
        ] {
            assert_eq!(rel.image(&set), naive_image(&rel, &set));
        }
        for set in [IntervalSet::from_points([1, 3]), IntervalSet::full(4)] {
            assert_eq!(rel.preimage(&set), naive_preimage(&rel, &set));
        }
    }

    #[test]
    fn projection_inner() {
        let rel = ProjectionRelation::new(4, 3, ProjectionAxis::Inner);
        // A full row maps onto all of Inner.
        assert_eq!(
            rel.image(&IntervalSet::from_range(3, 6)),
            IntervalSet::full(3)
        );
        // A wrapped run: points 2, 3 have inner coords 2, 0.
        assert_eq!(
            rel.image(&IntervalSet::from_range(2, 4)),
            IntervalSet::from_points([0, 2])
        );
        assert_eq!(
            rel.preimage(&IntervalSet::from_points([1])),
            IntervalSet::from_points([1, 4, 7, 10])
        );
        for set in [
            IntervalSet::from_points([0, 5, 11]),
            IntervalSet::from_range(1, 8),
        ] {
            assert_eq!(rel.image(&set), naive_image(&rel, &set), "set {set:?}");
        }
        for set in [IntervalSet::from_points([0, 2]), IntervalSet::full(3)] {
            assert_eq!(rel.preimage(&set), naive_preimage(&rel, &set));
        }
    }

    #[test]
    fn diagonal_relation() {
        // 4x4 tridiagonal: offsets -1, 0, +1; d = r = 4.
        let rel = DiagonalRelation::new(vec![-1, 0, 1], 4, 4);
        // Diagonal 1 (offset 0): kernel points 4..8 map to rows 0..4.
        assert_eq!(
            rel.image(&IntervalSet::from_range(4, 8)),
            IntervalSet::full(4)
        );
        // Diagonal 0 (offset -1): kernel point k = i maps to row i + 1;
        // i = 3 maps to row 4 -> out of range (padding).
        assert_eq!(
            rel.image(&IntervalSet::from_points([3])),
            IntervalSet::empty()
        );
        assert_eq!(
            rel.image(&IntervalSet::from_points([0])),
            IntervalSet::from_points([1])
        );
        for set in [
            IntervalSet::from_range(0, 12),
            IntervalSet::from_points([0, 5, 11]),
            IntervalSet::from_range(2, 9),
        ] {
            assert_eq!(rel.image(&set), naive_image(&rel, &set), "set {set:?}");
        }
        for set in [
            IntervalSet::from_points([0]),
            IntervalSet::from_points([3]),
            IntervalSet::full(4),
            IntervalSet::from_range(1, 3),
        ] {
            assert_eq!(
                rel.preimage(&set),
                naive_preimage(&rel, &set),
                "set {set:?}"
            );
        }
    }

    #[test]
    fn composed_relation_block_expansion() {
        // Block-space col relation K0 -> D0, expanded to D with block 2.
        let base = FnRelation::new(vec![1, 0, 2], 3);
        let expand = IntervalMapRelation::uniform_blocks(3, 2);
        let rel = ComposedRelation::new(Box::new(base), Box::new(expand));
        assert_eq!(rel.source_size(), 3);
        assert_eq!(rel.target_size(), 6);
        // Block 0 -> D0 point 1 -> D points [2, 4).
        assert_eq!(
            rel.image(&IntervalSet::from_points([0])),
            IntervalSet::from_range(2, 4)
        );
        // Which blocks touch D point 5? D0 point 2 <- block 2.
        assert_eq!(
            rel.preimage(&IntervalSet::from_points([5])),
            IntervalSet::from_points([2])
        );
    }

    #[test]
    fn union_relation_many_to_many() {
        let a = FnRelation::new(vec![0, 1, 2], 3);
        let b = FnRelation::new(vec![2, 2, 0], 3);
        let rel = UnionRelation::new(vec![Box::new(a), Box::new(b)]);
        let mut out = Vec::new();
        rel.targets_of(0, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![0, 2]);
        assert_eq!(
            rel.image(&IntervalSet::from_points([0])),
            IntervalSet::from_points([0, 2])
        );
        assert_eq!(
            rel.preimage(&IntervalSet::from_points([2])),
            IntervalSet::from_points([0, 1, 2])
        );
    }

    #[test]
    fn transposed_relation_swaps_directions() {
        let rowptr = IntervalMapRelation::from_offsets(&[0, 2, 5], 5); // R -> K
        let row = TransposedRelation::new(Box::new(rowptr)); // K -> R
        assert_eq!(row.source_size(), 5);
        assert_eq!(row.target_size(), 2);
        // Kernel point 3 lives in row 1.
        assert_eq!(
            row.image(&IntervalSet::from_points([3])),
            IntervalSet::from_points([1])
        );
        // Row 0 owns kernel points 0..2.
        assert_eq!(
            row.preimage(&IntervalSet::from_points([0])),
            IntervalSet::from_range(0, 2)
        );
        let mut out = Vec::new();
        row.targets_of(4, &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fn_relation_rejects_out_of_range() {
        FnRelation::new(vec![0, 5], 5);
    }

    #[test]
    #[should_panic(expected = "spaces must agree")]
    fn composition_rejects_mismatched_spaces() {
        let a = FnRelation::new(vec![0], 3);
        let b = FnRelation::new(vec![0, 0], 2);
        ComposedRelation::new(Box::new(a), Box::new(b));
    }
}
