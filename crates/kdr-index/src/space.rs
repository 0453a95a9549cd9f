//! Index spaces: finite sets of identifiers.
//!
//! An *index space* in KDRSolvers is just a finite set of identifiers
//! (paper §3). We represent points as `u64` and a space as the prefix
//! `0..size`. A storage format's structural assumptions (e.g.
//! `K = R × D` for dense matrices, `K = R × K0` for ELL) live in its
//! relations ([`ProjectionRelation`](crate::ProjectionRelation),
//! [`DiagonalRelation`](crate::DiagonalRelation)), not in the space.

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
