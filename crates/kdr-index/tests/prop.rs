//! Property-based tests for interval sets, partitions, and relations.
//!
//! Every structured fast path (run-level set algebra, relation
//! image/preimage overrides) is checked against a naive point-set
//! model.

use std::collections::BTreeSet;

use kdr_index::interval::Run;
use kdr_index::{
    DiagonalRelation, FnRelation, IntervalMapRelation, IntervalSet, Partition, ProjectionAxis,
    ProjectionRelation, Relation, TransposedRelation,
};
use proptest::prelude::*;

const SPACE: u64 = 64;

fn arb_point_set() -> impl Strategy<Value = BTreeSet<u64>> {
    prop::collection::btree_set(0..SPACE, 0..40)
}

fn to_iset(s: &BTreeSet<u64>) -> IntervalSet {
    IntervalSet::from_points(s.iter().copied())
}

fn to_points(s: &IntervalSet) -> BTreeSet<u64> {
    s.iter_points().collect()
}

proptest! {
    #[test]
    fn interval_set_roundtrip(model in arb_point_set()) {
        let s = to_iset(&model);
        prop_assert_eq!(to_points(&s), model.clone());
        prop_assert_eq!(s.cardinality(), model.len() as u64);
        // Runs are normalized: non-empty, sorted, non-adjacent.
        for w in s.runs().windows(2) {
            prop_assert!(w[0].hi < w[1].lo);
        }
        for r in s.runs() {
            prop_assert!(r.lo < r.hi);
        }
    }

    #[test]
    fn set_algebra_matches_model(a in arb_point_set(), b in arb_point_set()) {
        let (sa, sb) = (to_iset(&a), to_iset(&b));
        prop_assert_eq!(to_points(&sa.union(&sb)), a.union(&b).copied().collect::<BTreeSet<_>>());
        prop_assert_eq!(to_points(&sa.intersect(&sb)), a.intersection(&b).copied().collect::<BTreeSet<_>>());
        prop_assert_eq!(to_points(&sa.difference(&sb)), a.difference(&b).copied().collect::<BTreeSet<_>>());
        prop_assert_eq!(sa.is_disjoint(&sb), a.is_disjoint(&b));
        prop_assert_eq!(sa.is_subset_of(&sb), a.is_subset(&b));
        let comp = sa.complement(SPACE);
        prop_assert!(comp.is_disjoint(&sa));
        prop_assert_eq!(comp.union(&sa), IntervalSet::full(SPACE));
    }

    #[test]
    fn membership_matches_model(model in arb_point_set(), probe in 0..SPACE) {
        let s = to_iset(&model);
        prop_assert_eq!(s.contains(probe), model.contains(&probe));
    }

    #[test]
    fn split_equal_partitions_the_set(model in arb_point_set(), pieces in 1usize..8) {
        let s = to_iset(&model);
        let parts = s.split_equal(pieces);
        prop_assert_eq!(parts.len(), pieces);
        let mut union = IntervalSet::empty();
        for (i, p) in parts.iter().enumerate() {
            prop_assert!(p.is_subset_of(&s));
            for q in &parts[i + 1..] {
                prop_assert!(p.is_disjoint(q));
            }
            union = union.union(p);
        }
        prop_assert_eq!(union, s.clone());
        // Piece sizes differ by at most one.
        let sizes: Vec<u64> = parts.iter().map(|p| p.cardinality()).collect();
        let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(mx - mn <= 1);
    }

    #[test]
    fn shift_clamped_matches_model(model in arb_point_set(), off in -80i64..80) {
        let s = to_iset(&model);
        let shifted = s.shift_clamped(off, SPACE);
        let expect: BTreeSet<u64> = model
            .iter()
            .filter_map(|&p| {
                let q = p as i64 + off;
                (q >= 0 && (q as u64) < SPACE).then_some(q as u64)
            })
            .collect();
        prop_assert_eq!(to_points(&shifted), expect);
    }
}

/// The space of the skewed cases below: what the dependence analyzer
/// meets is a scatter tile's footprint of thousands of runs against a
/// piece writer's one.
const WIDE: u64 = 16_384;

/// Every `period`-th block of `width` points from `start`.
fn stride(start: u64, period: u64, width: u64) -> IntervalSet {
    let runs = (start..WIDE).step_by(period as usize);
    IntervalSet::from_runs(runs.map(|lo| Run::new(lo, (lo + width).min(WIDE))))
}

/// A stride (256 to 4 096 runs) or a scatter (hundreds to thousands of
/// points) over `0..WIDE`.
fn arb_pattern() -> BoxedStrategy<IntervalSet> {
    let stride = (0..16u64, 4..64u64)
        .prop_flat_map(|(start, period)| (Just(start), Just(period), 1..period))
        .prop_map(|(start, period, width)| stride(start, period, width));
    let scatter = prop::collection::btree_set(0..WIDE, 300..3_000).prop_map(|s| to_iset(&s));
    prop_oneof![stride, scatter].boxed()
}

/// A fragmented set made by one of the public constructors: a pattern
/// as `from_runs` / `from_points` made it, or put through `split_equal`,
/// `shift_clamped`, `union`, `intersect`, `difference` or `complement`.
fn arb_fragmented() -> impl Strategy<Value = IntervalSet> {
    (arb_pattern(), arb_pattern(), 0..7u8, 1..5usize, 0..WIDE).prop_map(
        |(p, q, how, pieces, at)| match how {
            0 => p,
            1 => p.split_equal(pieces).swap_remove(at as usize % pieces),
            2 => p.shift_clamped(at as i64 - (WIDE / 2) as i64, WIDE),
            3 => p.union(&q),
            4 => p.intersect(&q),
            5 => IntervalSet::full(WIDE).difference(&p),
            _ => p.complement(WIDE),
        },
    )
}

/// Up to three runs placed against `large`'s runs — the first, the
/// last or any — so the skewed cases hit shared endpoints (`a.hi ==
/// b.lo` and `b.hi == a.lo`), exact and partial cover, and gaps.
fn small_against(large: &IntervalSet, picks: &[(u8, u8, u64, u64)]) -> IntervalSet {
    let runs = large.runs();
    let (first, last) = (large.min().unwrap_or(0), large.max().map_or(0, |m| m + 1));
    IntervalSet::from_runs(picks.iter().map(|&(shape, which, r, len)| {
        let k = match (runs.len(), which) {
            (0, _) => Run::new(r, r + 1),
            (_, 0) => runs[0],
            (n, 1) => runs[n - 1],
            (n, _) => runs[r as usize % n],
        };
        match shape {
            // Starts where `k` ends; ends where it starts.
            0 => Run::new(k.hi, k.hi + len),
            1 => Run::new(k.lo.saturating_sub(len), k.lo),
            // `k` itself, its tail, `k` and past its end.
            2 => k,
            3 => Run::new(k.lo + len % k.len(), k.hi),
            4 => Run::new(k.lo, k.hi + len),
            // All of `large` in one run; anywhere.
            5 => Run::new(first, last),
            _ => Run::new(r, r + len),
        }
    }))
}

/// Intersection as a linear merge of the two run lists: the oracle
/// for [`IntervalSet::intersect`]'s binary-searching walk.
fn merged_intersection(a: &IntervalSet, b: &IntervalSet) -> Vec<Run> {
    let (a, b) = (a.runs(), b.runs());
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let c = a[i].intersect(&b[j]);
        if !c.is_empty() {
            out.push(c);
        }
        if a[i].hi <= b[j].hi {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// `intersect` in both argument orders against the merge, run for run
/// — so it keeps the runs sorted, non-empty and never adjacent.
fn check_intersection(a: &IntervalSet, b: &IntervalSet) {
    let want = merged_intersection(a, b);
    for (x, y) in [(a, b), (b, a)] {
        let got = x.intersect(y);
        assert_eq!(got.runs(), &want[..], "{x:?} and {y:?}");
        assert!(got.runs().iter().all(|r| !r.is_empty()), "{got:?}");
        assert!(got.runs().windows(2).all(|w| w[0].hi < w[1].lo), "{got:?}");
    }
}

/// `is_disjoint` and `is_subset_of` against their definitions — a
/// built intersection or difference tested for emptiness — and against
/// the point-set model, both argument orders.
fn check_predicates(a: &IntervalSet, b: &IntervalSet) {
    let (ma, mb) = (to_points(a), to_points(b));
    for (x, y, mx, my) in [(a, b, &ma, &mb), (b, a, &mb, &ma)] {
        assert_eq!(
            x.is_disjoint(y),
            x.intersect(y).is_empty(),
            "{x:?} disjoint {y:?}"
        );
        assert_eq!(x.is_disjoint(y), y.is_disjoint(x), "{x:?} disjoint {y:?}");
        assert_eq!(x.is_disjoint(y), mx.is_disjoint(my), "{x:?} disjoint {y:?}");
        assert_eq!(
            x.is_subset_of(y),
            x.difference(y).is_empty(),
            "{x:?} within {y:?}"
        );
        assert_eq!(x.is_subset_of(y), mx.is_subset(my), "{x:?} within {y:?}");
    }
}

proptest! {
    #[test]
    fn predicates_match_their_definitions_on_skewed_sets(
        large in arb_fragmented(),
        picks in prop::collection::vec((0..7u8, 0..3u8, 0..WIDE, 1..48u64), 0..4),
    ) {
        for w in large.runs().windows(2) {
            prop_assert!(w[0].hi < w[1].lo, "runs sorted and never adjacent");
        }
        let small = small_against(&large, &picks);
        check_predicates(&small, &large);
        check_predicates(&large, &IntervalSet::empty());
        check_predicates(&small, &IntervalSet::empty());
        check_predicates(&large, &large);
    }

    #[test]
    fn intersect_matches_a_linear_merge_on_skewed_sets(
        large in arb_fragmented(),
        other in arb_fragmented(),
        picks in prop::collection::vec((0..7u8, 0..3u8, 0..WIDE, 1..48u64), 0..4),
    ) {
        let small = small_against(&large, &picks);
        check_intersection(&small, &large);
        check_intersection(&large, &other);
        check_intersection(&large, &large);
        check_intersection(&large, &IntervalSet::empty());
        check_intersection(&small, &IntervalSet::full(WIDE));
    }
}

/// `union` in both argument orders against the sort-based form it
/// replaced — the concatenated run lists through `from_runs` — run for
/// run, so it keeps the runs sorted, non-empty and never adjacent.
fn check_union(a: &IntervalSet, b: &IntervalSet) {
    let want = IntervalSet::from_runs(a.runs().iter().chain(b.runs()).copied());
    for (x, y) in [(a, b), (b, a)] {
        assert_eq!(x.union(y).runs(), want.runs(), "{x:?} and {y:?}");
    }
}

proptest! {
    #[test]
    fn union_matches_the_sort_based_form_on_skewed_sets(
        large in arb_fragmented(),
        other in arb_fragmented(),
        picks in prop::collection::vec((0..7u8, 0..3u8, 0..WIDE, 1..48u64), 0..4),
    ) {
        let small = small_against(&large, &picks);
        check_union(&small, &large);
        check_union(&large, &other);
        check_union(&large, &large);
        check_union(&large, &IntervalSet::empty());
        check_union(&small, &IntervalSet::full(WIDE));
    }
}

/// Naive image/preimage through `targets_of` only.
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

fn check_relation(rel: &dyn Relation, src_set: &BTreeSet<u64>, dst_set: &BTreeSet<u64>) {
    let src = IntervalSet::from_points(src_set.iter().copied().filter(|&p| p < rel.source_size()));
    let dst = IntervalSet::from_points(dst_set.iter().copied().filter(|&p| p < rel.target_size()));
    assert_eq!(rel.image(&src), naive_image(rel, &src), "image mismatch");
    assert_eq!(
        rel.preimage(&dst),
        naive_preimage(rel, &dst),
        "preimage mismatch"
    );
    // Galois-style closure: every source point with at least one
    // target is recovered by preimage(image(.)).
    let img = rel.image(&src);
    let back = rel.preimage(&img);
    let mut buf = Vec::new();
    for s in src.iter_points() {
        buf.clear();
        rel.targets_of(s, &mut buf);
        if !buf.is_empty() {
            assert!(back.contains(s), "closure lost source point {s}");
        }
    }
}

proptest! {
    #[test]
    fn fn_relation_matches_naive(
        map in prop::collection::vec(0..32u64, 1..64),
        src in arb_point_set(),
        dst in arb_point_set(),
    ) {
        let rel = FnRelation::new(map, 32);
        check_relation(&rel, &src, &dst);
    }

    #[test]
    fn interval_map_matches_naive(
        gaps in prop::collection::vec(0..5u64, 1..16),
        src in arb_point_set(),
        dst in arb_point_set(),
    ) {
        // Build a monotonic rowptr from run lengths.
        let mut offsets = vec![0u64];
        for g in &gaps {
            offsets.push(offsets.last().unwrap() + g);
        }
        let total = *offsets.last().unwrap();
        let rel = IntervalMapRelation::from_offsets(&offsets, total.max(1));
        check_relation(&rel, &src, &dst);
        // And its transpose.
        let offsets2 = offsets.clone();
        let t = TransposedRelation::new(Box::new(IntervalMapRelation::from_offsets(&offsets2, total.max(1))));
        check_relation(&t, &dst, &src);
    }

    #[test]
    fn projection_matches_naive(
        outer in 1..10u64,
        inner in 1..10u64,
        src in arb_point_set(),
        dst in arb_point_set(),
    ) {
        for axis in [ProjectionAxis::Outer, ProjectionAxis::Inner] {
            let rel = ProjectionRelation::new(outer, inner, axis);
            check_relation(&rel, &src, &dst);
        }
    }

    #[test]
    fn diagonal_matches_naive(
        offsets in prop::collection::vec(-8i64..8, 1..6),
        d in 1..12u64,
        r in 1..12u64,
        src in arb_point_set(),
        dst in arb_point_set(),
    ) {
        let rel = DiagonalRelation::new(offsets, d, r);
        check_relation(&rel, &src, &dst);
    }

    #[test]
    fn partition_projection_preserves_completeness(
        gaps in prop::collection::vec(1..5u64, 2..12),
        colors in 1usize..6,
    ) {
        // A CSR-like system where every row is non-empty: projecting a
        // complete, disjoint range partition back to K must yield a
        // complete, disjoint kernel partition.
        let mut offsets = vec![0u64];
        for g in &gaps {
            offsets.push(offsets.last().unwrap() + g);
        }
        let nrows = gaps.len() as u64;
        let nnz = *offsets.last().unwrap();
        let rowptr = IntervalMapRelation::from_offsets(&offsets, nnz);
        let row = TransposedRelation::new(Box::new(rowptr));
        let rp = Partition::equal_blocks(nrows, colors);
        let kp = kdr_index::project_back(&row, &rp);
        prop_assert!(kp.is_complete());
        prop_assert!(kp.is_disjoint());
        prop_assert_eq!(kp.space_size(), nnz);
    }
}

/// An [`FnRelation`] seen through `targets_of` alone, so `image` and
/// `preimage` are the trait's point-wise defaults.
struct Pointwise<'a>(&'a FnRelation<'a>);

impl Relation for Pointwise<'_> {
    fn source_size(&self) -> u64 {
        self.0.source_size()
    }
    fn target_size(&self) -> u64 {
        self.0.target_size()
    }
    fn targets_of(&self, s: u64, out: &mut Vec<u64>) {
        self.0.targets_of(s, out);
    }
}

/// A function table with source sets sized around `target_size / 64`
/// points — where `FnRelation::image` changes from sorting the target
/// points to marking a bitmap — plus the empty and the full set.
fn arb_table_and_sets() -> impl Strategy<Value = (Vec<u64>, u64, Vec<IntervalSet>, Vec<IntervalSet>)>
{
    (0usize..6, 1usize..160).prop_flat_map(|(size, len)| {
        let target_size = [1u64, 63, 64, 65, 640, 4096][size];
        let threshold = (target_size / 64) as usize;
        let src = prop::collection::btree_set(0..len as u64, 0..len.min(2 * threshold + 2) + 1);
        let dst = prop::collection::btree_set(0..target_size, 0..40);
        (
            prop::collection::vec(0..target_size, len),
            Just(target_size),
            prop::collection::vec(src, 1..4),
            prop::collection::vec(dst, 1..4),
        )
            .prop_map(move |(map, target_size, srcs, dsts)| {
                let mut srcs: Vec<IntervalSet> = srcs.iter().map(to_iset).collect();
                srcs.push(IntervalSet::empty());
                srcs.push(IntervalSet::full(len as u64));
                let mut dsts: Vec<IntervalSet> = dsts.iter().map(to_iset).collect();
                dsts.push(IntervalSet::empty());
                dsts.push(IntervalSet::full(target_size));
                (map, target_size, srcs, dsts)
            })
    })
}

proptest! {
    #[test]
    fn fn_relation_fast_paths_match_the_pointwise_defaults(
        (map, target_size, srcs, dsts) in arb_table_and_sets(),
    ) {
        // The inverse index is built by the first `preimage`: ask for
        // preimages before any image on one relation, after on another,
        // and again once the index exists.
        let pre_first = FnRelation::new(map.clone(), target_size);
        let img_first = FnRelation::new(map, target_size);
        let model = Pointwise(&img_first);
        for dst in &dsts {
            prop_assert_eq!(pre_first.preimage(dst), model.preimage(dst));
        }
        for src in &srcs {
            let want = model.image(src);
            prop_assert_eq!(&img_first.image(src), &want);
            prop_assert_eq!(&pre_first.image(src), &want);
        }
        for dst in &dsts {
            let want = model.preimage(dst);
            prop_assert_eq!(&img_first.preimage(dst), &want);
            prop_assert_eq!(&pre_first.preimage(dst), &want);
        }
    }
}

/// The targets of `set` under the table `map`, one entry at a time.
fn linear_image(map: &[u64], set: &IntervalSet) -> IntervalSet {
    IntervalSet::from_points(set.iter_points().map(|s| map[s as usize]))
}

/// The sources whose target lies in `set`, by a scan of the table.
fn linear_preimage(map: &[u64], set: &IntervalSet) -> IntervalSet {
    let hits = (0..map.len() as u64).filter(|&s| set.contains(map[s as usize]));
    IntervalSet::from_points(hits)
}

proptest! {
    /// A relation over a borrowed table, in either width a `Csr`
    /// stores its columns in (`u32`, `u64`), projects every set as the
    /// owned table does and as a linear scan of the table does: source
    /// sets on both sides of the image's bitmap threshold, preimages
    /// before and after the inverse index exists.
    #[test]
    fn a_borrowed_table_projects_as_the_owned_one(
        (map, target_size, srcs, dsts) in arb_table_and_sets(),
    ) {
        let narrow: Vec<u32> = map.iter().map(|&t| t as u32).collect();
        let owned = FnRelation::new(map.clone(), target_size);
        let wide = FnRelation::borrowed(&map, target_size);
        let thin = FnRelation::borrowed(&narrow, target_size);
        prop_assert_eq!(thin.table(), &narrow[..]);
        let relations: [&dyn Relation; 3] = [&owned, &wide, &thin];
        for _ in 0..2 {
            for src in &srcs {
                let want = linear_image(&map, src);
                for rel in relations {
                    prop_assert_eq!(&rel.image(src), &want);
                }
            }
            for dst in &dsts {
                let want = linear_preimage(&map, dst);
                for rel in relations {
                    prop_assert_eq!(&rel.preimage(dst), &want);
                }
            }
        }
    }
}

#[test]
fn fn_relation_image_agrees_across_the_bitmap_threshold() {
    // 4096 targets: 63 source points sort their targets, 64 mark a
    // bitmap. Both must give the same set as one point at a time, for
    // runs that end on word boundaries and on the last target.
    let map: Vec<u64> = (0..512u64)
        .map(|s| [s * 8 % 4096, 4095, 63, 64, 127][s as usize % 5])
        .collect();
    let rel = FnRelation::new(map, 4096);
    let model = Pointwise(&rel);
    for n in [1, 62, 63, 64, 65, 300, 512] {
        for lo in [0, 3.min(512 - n), 512 - n] {
            let set = IntervalSet::from_range(lo, lo + n);
            assert_eq!(rel.image(&set), model.image(&set), "{n} points from {lo}");
        }
    }
    // A table onto every target: the image of everything is one run.
    let onto = FnRelation::new((0..4096).rev().collect(), 4096);
    assert_eq!(
        onto.image(&IntervalSet::full(4096)),
        IntervalSet::full(4096)
    );
    assert_eq!(
        onto.image(&IntervalSet::from_range(0, 128)),
        IntervalSet::from_range(3968, 4096)
    );
}

#[test]
fn runs_are_public_and_usable() {
    let s = IntervalSet::from_runs([Run::new(0, 2), Run::new(4, 6)]);
    assert_eq!(s.runs().len(), 2);
}
