//! Scalar abstraction over `f32`/`f64`.
//!
//! The paper optimizes both DGEMM and SGEMM with the same structure
//! (Section III-A: "While our focus is on DGEMM, we apply the same
//! optimizations to SGEMM as well"), so the kernel and packing code in
//! `phi-blas` is generic over this trait.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Floating-point element type usable by the dense kernels.
pub trait Scalar:
    Copy
    + Default
    + Debug
    + Display
    + PartialOrd
    + PartialEq
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + Send
    + Sync
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Machine epsilon (distance from 1.0 to the next representable value).
    const EPSILON: Self;
    /// Size of one element in bytes (8 for f64, 4 for f32) — used by the
    /// bandwidth and cache-occupancy models.
    const BYTES: usize;

    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Fused multiply-add `self * a + b`, rounded once.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Widening conversion to `f64` for accumulation in norms/residuals.
    fn to_f64(self) -> f64;
    /// Narrowing conversion from `f64`.
    fn from_f64(v: f64) -> Self;
    /// IEEE max that ignores NaN ordering pitfalls for our use (inputs are
    /// finite in all kernels).
    #[inline]
    fn max(self, other: Self) -> Self {
        if self > other {
            self
        } else {
            other
        }
    }
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: Self = f64::EPSILON;
    const BYTES: usize = 8;

    #[inline]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: Self = f32::EPSILON;
    const BYTES: usize = 4;

    #[inline]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generic_roundtrip<T: Scalar>() {
        let x = T::from_f64(-2.5);
        assert_eq!(x.abs().to_f64(), 2.5);
        assert_eq!(T::ONE.to_f64(), 1.0);
        assert_eq!(T::ZERO.to_f64(), 0.0);
        let fma = T::from_f64(2.0).mul_add(T::from_f64(3.0), T::ONE);
        assert_eq!(fma.to_f64(), 7.0);
    }

    #[test]
    fn f64_impl() {
        generic_roundtrip::<f64>();
        assert_eq!(<f64 as Scalar>::BYTES, 8);
    }

    #[test]
    fn f32_impl() {
        generic_roundtrip::<f32>();
        assert_eq!(<f32 as Scalar>::BYTES, 4);
    }

    #[test]
    fn max_picks_larger() {
        assert_eq!(Scalar::max(1.0f64, 2.0), 2.0);
        assert_eq!(Scalar::max(3.0f32, 2.0), 3.0);
    }
}
