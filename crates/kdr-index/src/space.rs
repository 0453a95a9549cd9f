//! Index spaces: finite sets of identifiers.
//!
//! An *index space* in KDRSolvers is just a finite set of identifiers
//! (paper §3). We represent points as `u64` and a space as the prefix
//! `0..size`. A storage format's structural assumptions (e.g.
//! `K = R × D` for dense matrices, `K = R × K0` for ELL) live in its
//! relations ([`ProjectionRelation`](crate::ProjectionRelation),
//! [`DiagonalRelation`](crate::DiagonalRelation)), not in the space.
//! A table that stores points — a CSR matrix's column indices, a
//! function relation's targets — may store them narrower than `u64`,
//! as any [`IndexInt`].

use std::fmt::Debug;

use crate::interval::IntervalSet;

/// A finite set of identifiers `0..size`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IndexSpace {
    size: u64,
}

impl IndexSpace {
    /// A space of `n` points.
    pub fn flat(n: u64) -> Self {
        IndexSpace { size: n }
    }

    /// Number of points in the space.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The full space as an interval set.
    pub fn all(&self) -> IntervalSet {
        IntervalSet::full(self.size())
    }
}

/// An integer type a table stores points as: a format's stored
/// indices, and the targets of a [`FnRelation`](crate::FnRelation)
/// that reads them where they lie.
pub trait IndexInt:
    Copy + Clone + Debug + PartialEq + Eq + PartialOrd + Ord + Send + Sync + 'static
{
    /// Convert from a global `u64` point; panics on overflow.
    fn from_u64(v: u64) -> Self;

    /// Widen to a global `u64` point.
    fn to_u64(self) -> u64;

    /// Convert to a `usize` for slice indexing.
    #[inline]
    fn to_usize(self) -> usize {
        self.to_u64() as usize
    }
}

macro_rules! impl_index_int {
    ($($t:ty),*) => {$(
        impl IndexInt for $t {
            #[inline]
            fn from_u64(v: u64) -> Self {
                <$t>::try_from(v).unwrap_or_else(|_| {
                    panic!("index {v} does not fit in {}", stringify!($t))
                })
            }

            #[inline]
            fn to_u64(self) -> u64 {
                self as u64
            }
        }
    )*};
}

impl_index_int!(u16, u32, u64, usize);

// Signed index types (PETSc-style) are also supported; negative values
// never arise because construction goes through `from_u64`.
macro_rules! impl_index_int_signed {
    ($($t:ty),*) => {$(
        impl IndexInt for $t {
            #[inline]
            fn from_u64(v: u64) -> Self {
                <$t>::try_from(v).unwrap_or_else(|_| {
                    panic!("index {v} does not fit in {}", stringify!($t))
                })
            }

            #[inline]
            fn to_u64(self) -> u64 {
                debug_assert!(self >= 0, "negative stored index");
                self as u64
            }
        }
    )*};
}

impl_index_int_signed!(i32, i64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(IndexSpace::flat(10).size(), 10);
        assert_eq!(IndexSpace::flat(0).size(), 0);
    }

    #[test]
    fn all_is_full_interval() {
        let s = IndexSpace::flat(9);
        assert_eq!(s.all(), IntervalSet::full(9));
    }
}
