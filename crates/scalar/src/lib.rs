//! # ca-scalar — the scalar abstraction under the kernel stack
//!
//! Every dense/sparse kernel in this workspace is generic over [`Scalar`],
//! with `f64` as the default type parameter so existing call sites compile
//! (and codegen) exactly as before. The trait deliberately exposes only
//! what the kernels use — arithmetic, casts to/from `f64`, `abs`/`sqrt`,
//! machine epsilon, and the storage width [`Scalar::BYTES`] that the GPU
//! simulator's byte accounting charges.
//!
//! [`Precision`] is the runtime mirror of the compile-time scalar choice:
//! simulator objects that exist behind trait objects or enums (sparse
//! slices on a device, MPK plans, comm messages) carry a `Precision` tag
//! instead of a type parameter, and cost/byte charging asks the tag for
//! its width.
//!
//! Mixed-precision CA-GMRES stores its reduced-precision data in `f64`
//! containers whose values have been *quantized* through `f32`
//! ([`Precision::quantize`]); this keeps the solver's data movement
//! bitwise-deterministic while making every rounding step explicit.
//!
//! Being the one crate everything depends on, it also holds the
//! workspace's seeded generators ([`rng`]) and the case runner its property
//! tests use ([`cases`]).

mod cases;
pub mod rng;

pub use cases::cases;

use core::fmt::{Debug, Display};
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Runtime precision tag: the widths the kernel stack is instantiated at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Precision {
    /// IEEE-754 binary64 (the baseline; bit-identical to the pre-generic
    /// stack).
    F64,
    /// IEEE-754 binary32 (the reduced-precision MPK/halo path).
    F32,
}

impl Precision {
    /// Storage bytes per element at this precision.
    #[inline]
    pub const fn bytes(self) -> usize {
        match self {
            Precision::F64 => 8,
            Precision::F32 => 4,
        }
    }

    /// Short lowercase label (`"f64"` / `"f32"`) used in metric names,
    /// profile keys, and study tables.
    #[inline]
    pub const fn label(self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
        }
    }

    /// Round `v` to this precision and widen back to `f64`.
    ///
    /// `F64` is the identity; `F32` is `v as f32 as f64` (IEEE round to
    /// nearest even, then exact widening). Mixed-precision kernels run all
    /// reduced-precision data through this so the rounding point is
    /// explicit and deterministic.
    #[inline]
    pub fn quantize(self, v: f64) -> f64 {
        match self {
            Precision::F64 => v,
            Precision::F32 => v as f32 as f64,
        }
    }
}

impl Display for Precision {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// The scalar type the kernel stack is generic over.
///
/// Implemented for `f64` and `f32`. Everything a BLAS-1/2/3 or SpMV
/// kernel needs, and nothing more — so that the `f64` instantiation of a
/// generic kernel compiles to exactly the operations the hand-written
/// `f64` kernel performed (bit-identical results, verified by the
/// determinism suite).
pub trait Scalar:
    Copy
    + Default
    + Debug
    + Display
    + PartialEq
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
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
    /// Storage bytes per element; what the simulator charges for moving
    /// one element of this type.
    const BYTES: usize;
    /// The runtime tag corresponding to this type.
    const PREC: Precision;

    /// Round an `f64` into this type (`as` cast semantics).
    fn from_f64(v: f64) -> Self;
    /// Widen to `f64` (exact for both supported types).
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// IEEE maximum (NaN-ignoring, as `f64::max`).
    fn max(self, other: Self) -> Self;
    /// IEEE minimum (NaN-ignoring, as `f64::min`).
    fn min(self, other: Self) -> Self;
    /// Whether the value is neither infinite nor NaN.
    fn is_finite(self) -> bool;
    /// Raw IEEE bits, zero-extended to 64 — for digests and bit-identity
    /// checks.
    fn to_bits_u64(self) -> u64;
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: Self = f64::EPSILON;
    const BYTES: usize = 8;
    const PREC: Precision = Precision::F64;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline(always)]
    fn min(self, other: Self) -> Self {
        f64::min(self, other)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    #[inline(always)]
    fn to_bits_u64(self) -> u64 {
        self.to_bits()
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: Self = f32::EPSILON;
    const BYTES: usize = 4;
    const PREC: Precision = Precision::F32;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f32::max(self, other)
    }
    #[inline(always)]
    fn min(self, other: Self) -> Self {
        f32::min(self, other)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
    #[inline(always)]
    fn to_bits_u64(self) -> u64 {
        self.to_bits() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_and_tags() {
        assert_eq!(<f64 as Scalar>::BYTES, 8);
        assert_eq!(<f32 as Scalar>::BYTES, 4);
        assert_eq!(Precision::F64.bytes(), 8);
        assert_eq!(Precision::F32.bytes(), 4);
        assert_eq!(<f64 as Scalar>::PREC, Precision::F64);
        assert_eq!(<f32 as Scalar>::PREC, Precision::F32);
    }

    #[test]
    fn display_is_the_label() {
        for p in [Precision::F64, Precision::F32] {
            assert_eq!(format!("{p}"), p.label());
        }
    }

    #[test]
    fn quantize_is_identity_for_f64_and_rounds_for_f32() {
        let v = 0.1f64;
        assert_eq!(Precision::F64.quantize(v).to_bits(), v.to_bits());
        let q = Precision::F32.quantize(v);
        assert_eq!(q, 0.1f32 as f64);
        assert_ne!(q.to_bits(), v.to_bits());
        // idempotent: already-representable values pass through exactly
        assert_eq!(Precision::F32.quantize(q).to_bits(), q.to_bits());
    }

    #[test]
    fn casts_match_as_semantics() {
        let v = 1.0 + f64::EPSILON;
        assert_eq!(<f32 as Scalar>::from_f64(v), v as f32);
        assert_eq!(<f32 as Scalar>::from_f64(v).to_f64(), (v as f32) as f64);
        assert_eq!(<f64 as Scalar>::from_f64(v), v);
    }

    #[test]
    fn generic_arithmetic_matches_concrete() {
        fn axpy_like<T: Scalar>(a: T, x: T, y: T) -> T {
            a * x + y
        }
        assert_eq!(axpy_like(2.0f64, 3.0, 4.0), 10.0);
        assert_eq!(axpy_like(2.0f32, 3.0, 4.0), 10.0);
        assert_eq!(<f64 as Scalar>::ZERO + <f64 as Scalar>::ONE, 1.0);
    }

    #[test]
    fn bits_zero_extend() {
        assert_eq!(1.0f64.to_bits_u64(), 1.0f64.to_bits());
        assert_eq!(1.0f32.to_bits_u64(), 1.0f32.to_bits() as u64);
    }
}
