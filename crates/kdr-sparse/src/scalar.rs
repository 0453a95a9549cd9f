//! Numeric and index type abstractions.
//!
//! LegionSolvers uses C++ templates to stay generic over entry types
//! (`float`, `double`, …) and index types (signed/unsigned, 32/64-bit).
//! These traits play the same role: every format is generic over a
//! [`Scalar`] entry type and an [`IndexInt`] storage index type, so a
//! CSR matrix can store 32-bit column indices while the framework
//! addresses points as `u64`.

use std::fmt::Debug;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A real scalar usable as a matrix/vector entry type.
pub trait Scalar:
    Copy
    + Clone
    + Debug
    + PartialEq
    + PartialOrd
    + Default
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Sum
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Lossy conversion from `f64` (used by generators and tolerances).
    fn from_f64(v: f64) -> Self;

    /// Lossy conversion to `f64` (used for reporting and comparisons).
    fn to_f64(self) -> f64;

    /// Absolute value.
    fn abs(self) -> Self;

    /// Square root (needed by GMRES Givens rotations and norms).
    fn sqrt(self) -> Self;

    /// Machine epsilon for this type.
    fn epsilon() -> Self;

    /// Smallest positive normal value; used to guard divisions that
    /// are exactly 0/0 at lucky breakdowns (yielding 0 instead of
    /// NaN) without perturbing any realistic denominator.
    fn tiny() -> Self;

    /// Fused or plain multiply-add `self * a + b`.
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        self * a + b
    }
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self
    }

    #[inline]
    fn abs(self) -> Self {
        f64::abs(self)
    }

    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }

    #[inline]
    fn epsilon() -> Self {
        f64::EPSILON
    }

    #[inline]
    fn tiny() -> Self {
        f64::MIN_POSITIVE
    }

    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }

    #[inline]
    fn abs(self) -> Self {
        f32::abs(self)
    }

    #[inline]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }

    #[inline]
    fn epsilon() -> Self {
        f32::EPSILON
    }

    #[inline]
    fn tiny() -> Self {
        f32::MIN_POSITIVE
    }

    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }
}

/// The stored index type of a format: `kdr-index`'s, so a format's
/// index table can back a relation where it lies.
pub use kdr_index::IndexInt;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_f64_basics() {
        assert_eq!(f64::ZERO + f64::ONE, 1.0);
        assert_eq!(Scalar::abs(-2.5f64), 2.5);
        assert_eq!(Scalar::sqrt(9.0f64), 3.0);
        assert_eq!(f64::from_f64(1.5), 1.5);
        assert_eq!(Scalar::mul_add(2.0f64, 3.0, 1.0), 7.0);
    }

    #[test]
    fn scalar_f32_roundtrip() {
        let x = f32::from_f64(0.25);
        assert_eq!(x.to_f64(), 0.25);
        assert!(f32::epsilon() > 0.0);
    }

    #[test]
    fn index_int_roundtrips() {
        assert_eq!(u32::from_u64(7).to_u64(), 7);
        assert_eq!(i32::from_u64(7).to_usize(), 7);
        assert_eq!(u16::from_u64(65535).to_u64(), 65535);
        assert_eq!(usize::from_u64(123).to_usize(), 123);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn index_int_overflow_panics() {
        u16::from_u64(1 << 20);
    }
}
