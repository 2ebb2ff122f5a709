//! Software IEEE 754 binary16 ("half", fp16) arithmetic.
//!
//! NVIDIA Sparse Tensor Cores operate on half-precision operands and
//! accumulate in single precision. This crate provides a bit-exact software
//! model of that numeric behaviour so that the rest of the VENOM
//! reproduction can compute *functionally faithful* results on a CPU:
//!
//! * [`Half`] — a 16-bit float with IEEE round-to-nearest-even conversions
//!   to/from `f32`, ordinary arithmetic (performed in `f32` and rounded back,
//!   the same semantics CUDA `__half` arithmetic has), and total-ordering
//!   helpers for sorting saliency scores.
//! * [`Half::mac_f32`] — the tensor-core multiply-accumulate primitive:
//!   the product of two halves is computed *exactly* (it always fits in
//!   `f32`: 11 × 11 significant bits ≤ 24) and accumulated in `f32`,
//!   matching `mma`/`mma.sp` with an `f32` accumulator.
//! * [`mod@slice`] — bulk conversion and reduction helpers used by the tensor
//!   and format crates.
//!
//! The implementation is self-contained (no `half` crate) because the
//! reproduction builds every substrate from scratch.

mod convert;
pub mod lut;
mod ops;
pub mod slice;

pub use convert::{f16_bits_to_f32, f32_to_f16_bits, f32_to_f16_bits_ref};
pub use lut::{f16_bits_to_f32_lut, f16_to_f32_table};

/// IEEE 754 binary16 floating point number.
///
/// Stored as raw bits; all arithmetic round-trips through `f32` with
/// round-to-nearest-even, which matches CUDA `__half` scalar semantics.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
#[repr(transparent)]
pub struct Half(u16);

impl Half {
    /// Positive zero.
    pub const ZERO: Half = Half(0x0000);
    /// One.
    pub const ONE: Half = Half(0x3C00);
    /// Negative one.
    pub const NEG_ONE: Half = Half(0xBC00);
    /// Largest finite value, 65504.
    pub const MAX: Half = Half(0x7BFF);
    /// Smallest finite value, -65504.
    pub const MIN: Half = Half(0xFBFF);
    /// Smallest positive normal value, 2^-14.
    pub const MIN_POSITIVE: Half = Half(0x0400);
    /// Smallest positive subnormal value, 2^-24.
    pub const MIN_SUBNORMAL: Half = Half(0x0001);
    /// Positive infinity.
    pub const INFINITY: Half = Half(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: Half = Half(0xFC00);
    /// A quiet NaN.
    pub const NAN: Half = Half(0x7E00);
    /// Machine epsilon for binary16 (2^-10).
    pub const EPSILON: Half = Half(0x1400);

    /// Constructs a `Half` from raw IEEE 754 binary16 bits.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        Half(bits)
    }

    /// Returns the raw IEEE 754 binary16 bits.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` to `Half` with round-to-nearest-even.
    #[inline]
    pub fn from_f32(x: f32) -> Self {
        Half(convert::f32_to_f16_bits(x))
    }

    /// Converts to `f32` (always exact: every binary16 value is
    /// representable in binary32).
    ///
    /// This is the bit-twiddling *reference* conversion; hot paths that
    /// decode per element should prefer [`Half::to_f32_lut`], and bulk
    /// decodes should go through [`slice::decode_f32_into`].
    #[inline]
    pub fn to_f32(self) -> f32 {
        convert::f16_bits_to_f32(self.0)
    }

    /// Table-backed conversion to `f32`; bit-identical to
    /// [`Half::to_f32`] for every input (verified exhaustively in
    /// [`lut`]) but a single indexed load instead of a branchy decode.
    #[inline]
    pub fn to_f32_lut(self) -> f32 {
        lut::f16_bits_to_f32_lut(self.0)
    }

    /// Converts an `f64` to `Half` (via `f32`; double rounding is harmless
    /// here because the benchmark inputs originate as `f32`).
    #[inline]
    pub fn from_f64(x: f64) -> Self {
        Self::from_f32(x as f32)
    }

    /// Converts to `f64` exactly.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.to_f32() as f64
    }

    /// True if the value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    /// True if the value is +/- infinity.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }

    /// True if the value is finite (not NaN, not infinite).
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7C00) != 0x7C00
    }

    /// True for +0.0 and -0.0.
    #[inline]
    pub fn is_zero(self) -> bool {
        (self.0 & 0x7FFF) == 0
    }

    /// True if the value is subnormal (nonzero with a zero exponent field).
    #[inline]
    pub fn is_subnormal(self) -> bool {
        (self.0 & 0x7C00) == 0 && (self.0 & 0x03FF) != 0
    }

    /// True if the sign bit is set (including -0.0 and NaNs with the sign
    /// bit set).
    #[inline]
    pub fn is_sign_negative(self) -> bool {
        (self.0 & 0x8000) != 0
    }

    /// Absolute value (clears the sign bit).
    #[inline]
    pub fn abs(self) -> Half {
        Half(self.0 & 0x7FFF)
    }

    /// Negation (flips the sign bit). Also available through
    /// `core::ops::Neg`; the inherent method saves the trait import in
    /// numeric call sites.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn neg(self) -> Half {
        Half(self.0 ^ 0x8000)
    }

    /// The tensor-core multiply-accumulate primitive.
    ///
    /// Returns `acc + self * rhs` where the product is exact (computed in
    /// `f32`) and the accumulation rounds once in `f32`. This is the numeric
    /// behaviour of `mma.sync`/`mma.sp` with `f32` accumulators on
    /// Ampere-class hardware.
    #[inline]
    pub fn mac_f32(self, rhs: Half, acc: f32) -> f32 {
        acc + self.to_f32() * rhs.to_f32()
    }

    /// Total ordering suitable for sorting saliency magnitudes. NaNs sort
    /// greater than all numbers; -0 sorts below +0.
    #[inline]
    pub fn total_cmp(&self, other: &Half) -> core::cmp::Ordering {
        self.to_f32().total_cmp(&other.to_f32())
    }
}

impl core::fmt::Debug for Half {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}h16", self.to_f32())
    }
}

impl core::fmt::Display for Half {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        core::fmt::Display::fmt(&self.to_f32(), f)
    }
}

impl From<f32> for Half {
    #[inline]
    fn from(x: f32) -> Self {
        Half::from_f32(x)
    }
}

impl From<Half> for f32 {
    #[inline]
    fn from(h: Half) -> Self {
        h.to_f32()
    }
}

impl PartialOrd for Half {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_have_expected_values() {
        assert_eq!(Half::ZERO.to_f32(), 0.0);
        assert_eq!(Half::ONE.to_f32(), 1.0);
        assert_eq!(Half::NEG_ONE.to_f32(), -1.0);
        assert_eq!(Half::MAX.to_f32(), 65504.0);
        assert_eq!(Half::MIN.to_f32(), -65504.0);
        assert_eq!(Half::MIN_POSITIVE.to_f32(), 2f32.powi(-14));
        assert_eq!(Half::MIN_SUBNORMAL.to_f32(), 2f32.powi(-24));
        assert_eq!(Half::EPSILON.to_f32(), 2f32.powi(-10));
        assert!(Half::INFINITY.is_infinite());
        assert!(Half::NEG_INFINITY.is_infinite());
        assert!(Half::NEG_INFINITY.is_sign_negative());
        assert!(Half::NAN.is_nan());
    }

    #[test]
    fn classification_predicates() {
        assert!(Half::ZERO.is_zero());
        assert!(Half::from_bits(0x8000).is_zero(), "-0 is zero");
        assert!(Half::MIN_SUBNORMAL.is_subnormal());
        assert!(!Half::MIN_POSITIVE.is_subnormal());
        assert!(Half::ONE.is_finite());
        assert!(!Half::INFINITY.is_finite());
        assert!(!Half::NAN.is_finite());
        assert!(Half::NEG_ONE.is_sign_negative());
        assert!(!Half::ONE.is_sign_negative());
    }

    #[test]
    fn abs_and_neg_are_bit_operations() {
        assert_eq!(Half::NEG_ONE.abs(), Half::ONE);
        assert_eq!(Half::ONE.neg(), Half::NEG_ONE);
        assert_eq!(Half::from_bits(0x8000).abs(), Half::ZERO);
        assert_eq!(Half::ZERO.neg().to_bits(), 0x8000);
    }

    #[test]
    fn mac_matches_manual_f32_computation() {
        let a = Half::from_f32(1.5);
        let b = Half::from_f32(-2.25);
        let acc = 10.0f32;
        assert_eq!(a.mac_f32(b, acc), 10.0 + 1.5 * -2.25);
    }

    #[test]
    fn product_of_halves_is_exact_in_f32() {
        // Max-mantissa halves: (2 - 2^-10)^2 needs 22 significant bits,
        // which f32 holds exactly.
        let x = Half::from_bits(0x3FFF); // 1.9990234375
        let p = x.to_f32() * x.to_f32();
        assert_eq!(p as f64, x.to_f64() * x.to_f64());
    }

    #[test]
    fn total_cmp_ordering() {
        use core::cmp::Ordering;
        assert_eq!(Half::ONE.total_cmp(&Half::NEG_ONE), Ordering::Greater);
        assert_eq!(
            Half::NAN.total_cmp(&Half::INFINITY),
            Ordering::Greater,
            "NaN sorts above +inf"
        );
    }
}
