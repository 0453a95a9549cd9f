//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so the workspace
//! vendors the subset of the proptest API its tests use: the
//! [`Strategy`] trait with `prop_map`/`prop_flat_map`/`boxed`,
//! strategies for integer/float ranges, tuples, `Just`, `Vec<S>`,
//! `prop::collection::{vec, btree_set}`, the `proptest!`,
//! `prop_assert*`, `prop_assume!` and `prop_oneof!` macros, and
//! `ProptestConfig::with_cases`.
//!
//! Unlike real proptest there is no shrinking and no failure
//! persistence: each test runs `cases` deterministic random inputs
//! (seeded from the test's module path and name, and from
//! `PROPTEST_RNG_SEED` when set) and plain
//! `assert!` reports the first failing input. That keeps the
//! random-input coverage of the original tests while staying fully
//! self-contained.

use std::ops::{Range, RangeInclusive};

/// Deterministic xorshift64* generator. Each generated test seeds one
/// from its own name, so runs are reproducible across processes.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed from a test name (FNV-1a over the bytes, never zero), and
    /// from `PROPTEST_RNG_SEED` when that is set to a number — as in
    /// real proptest, a run with fresh inputs is a run with a fresh
    /// seed, and the same seed repeats it. Unset or `0` gives the
    /// fixed per-name inputs.
    pub fn from_name(name: &str) -> Self {
        let seed = std::env::var("PROPTEST_RNG_SEED").ok();
        Self::seeded(name, seed.and_then(|s| s.parse().ok()))
    }

    fn seeded(name: &str, seed: Option<u64>) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed.unwrap_or(0);
        for &b in name.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng {
            state: h | 1, // xorshift state must be nonzero
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// How many random cases a `proptest!` test runs.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of random values of an associated type.
///
/// Real proptest separates strategies from value trees to support
/// shrinking; this stand-in generates values directly.
pub trait Strategy {
    type Value;

    /// Produce one random value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { source: self, f }
    }

    /// Generate an intermediate value, then generate from the
    /// strategy `f` builds out of it.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { source: self, f }
    }

    /// Erase the concrete strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.source.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    source: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        let mid = self.source.generate(rng);
        (self.f)(mid).generate(rng)
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Type-erased strategy, as produced by [`Strategy::boxed`].
pub struct BoxedStrategy<V>(Box<dyn Strategy<Value = V>>);

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        self.0.generate(rng)
    }
}

/// Uniform choice between boxed alternatives (see `prop_oneof!`).
pub struct Union<V>(Vec<BoxedStrategy<V>>);

impl<V> Union<V> {
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union(arms)
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        let idx = rng.below(self.0.len() as u64) as usize;
        self.0[idx].generate(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let lo = self.start as i128;
                let span = (self.end as i128 - lo) as u128;
                let off = (rng.next_u64() as u128 % span) as i128;
                (lo + off) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "empty range strategy");
                let lo = *self.start() as i128;
                let span = (*self.end() as i128 - lo) as u128 + 1;
                // span can be 2^128 only for a full i128/u128 range,
                // which no supported type produces; modulo is safe.
                let off = (rng.next_u64() as u128 % span) as i128;
                (lo + off) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_strategy {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                // 53 uniform mantissa bits in [0, 1).
                let frac = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                let lo = self.start as f64;
                let hi = self.end as f64;
                (lo + frac * (hi - lo)) as $t
            }
        }
    )*};
}

float_range_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($($s:ident . $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A.0, B.1);
tuple_strategy!(A.0, B.1, C.2);
tuple_strategy!(A.0, B.1, C.2, D.3);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);

/// A `Vec` of strategies generates element-wise (one value per
/// strategy, in order).
impl<S: Strategy> Strategy for Vec<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        self.iter().map(|s| s.generate(rng)).collect()
    }
}

/// Collection strategies (`prop::collection::vec` and friends).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::collections::BTreeSet;
    use std::ops::Range;

    /// Accepted element counts for a generated collection.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl SizeRange {
        fn pick(&self, rng: &mut TestRng) -> usize {
            assert!(self.lo < self.hi, "empty collection size range");
            self.lo + rng.below((self.hi - self.lo) as u64) as usize
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    /// Strategy for `Vec`s with random length.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generate `Vec`s whose length falls in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeSet`s with a target random size.
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generate `BTreeSet`s aiming for a size in `size`. As in real
    /// proptest, duplicate draws can leave the set smaller than the
    /// target when the element space is narrow.
    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.pick(rng);
            let mut out = BTreeSet::new();
            let mut attempts = 0usize;
            while out.len() < target && attempts < target * 4 + 8 {
                out.insert(self.element.generate(rng));
                attempts += 1;
            }
            out
        }
    }
}

/// Everything a proptest-based test file needs in scope.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, BoxedStrategy, Just,
        ProptestConfig, Strategy, TestRng, Union,
    };
}

/// Define `#[test]` functions that run their body over many random
/// inputs drawn from the given strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (
        cfg = ($cfg:expr);
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($p:pat in $s:expr),* $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __pt_config: $crate::ProptestConfig = $cfg;
                let mut __pt_rng = $crate::TestRng::from_name(concat!(
                    module_path!(),
                    "::",
                    stringify!($name)
                ));
                for __pt_case in 0..__pt_config.cases {
                    let _ = __pt_case;
                    $(let $p = $crate::Strategy::generate(&($s), &mut __pt_rng);)*
                    $body
                }
            }
        )*
    };
}

/// Assert a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)+) => {
        assert!($cond, $($fmt)+);
    };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {
        assert_eq!($left, $right);
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        assert_eq!($left, $right, $($fmt)+);
    };
}

/// Skip the current random case when its input is uninteresting.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)+)?) => {
        if !($cond) {
            continue;
        }
    };
}

/// Uniform random choice between several strategies with a common
/// value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::from_name("x");
        let mut b = TestRng::from_name("x");
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let draw = |seed| TestRng::seeded("x", seed).next_u64();
        assert_eq!(draw(Some(5)), draw(Some(5)));
        assert_ne!(draw(Some(5)), draw(Some(6)));
        assert_ne!(draw(Some(5)), draw(None));
    }

    #[test]
    fn int_ranges_stay_in_bounds() {
        let mut rng = TestRng::from_name("bounds");
        for _ in 0..500 {
            let v = (-3i64..4).generate(&mut rng);
            assert!((-3..4).contains(&v));
            let u = (8u64..40).generate(&mut rng);
            assert!((8..40).contains(&u));
            let z = (0usize..1).generate(&mut rng);
            assert_eq!(z, 0);
        }
    }

    #[test]
    fn collections_and_combinators_compose() {
        let mut rng = TestRng::from_name("compose");
        let strat = (2u64..6, 2u64..6).prop_flat_map(|(r, c)| {
            prop::collection::vec((0..r, 0..c), 1..10).prop_map(move |es| (r, c, es))
        });
        for _ in 0..200 {
            let (r, c, es) = strat.generate(&mut rng);
            assert!(!es.is_empty() && es.len() < 10);
            for (i, j) in es {
                assert!(i < r && j < c);
            }
        }
        let set = prop::collection::btree_set(0u64..8, 0..5).generate(&mut rng);
        assert!(set.len() < 5);
    }

    #[test]
    fn oneof_covers_all_arms() {
        let mut rng = TestRng::from_name("oneof");
        let strat = prop_oneof![
            (0u64..1).prop_map(|_| 1u32),
            Just(2u32),
            (0u64..1).prop_map(|_| 3u32),
        ];
        let mut seen = [false; 4];
        for _ in 0..100 {
            seen[strat.generate(&mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_generates_cases(v in prop::collection::vec(0i32..10, 1..5), x in 0u64..3) {
            prop_assume!(!v.is_empty());
            prop_assert!(v.len() < 5);
            prop_assert_eq!(x < 3, true, "x was {}", x);
        }
    }
}
