//! Bit-level conversions between binary32 and binary16.
//!
//! Both directions follow the IEEE 754 rules exactly:
//! * `f32 -> f16` rounds to nearest, ties to even, with gradual underflow to
//!   subnormals and overflow-to-infinity *through rounding* (values in
//!   `(65504, 65520)` round down to `MAX`; `>= 65520` round to infinity).
//! * `f16 -> f32` is exact for every input; NaN payloads keep their top ten
//!   bits.

/// Converts an `f32` to raw binary16 bits with round-to-nearest-even.
///
/// Branch-free on every non-NaN input, so bulk conversion loops can be
/// compiled to selects instead of data-dependent jumps:
/// * normal results re-bias the exponent with one integer add, and round
///   by adding `0xFFF` plus the kept mantissa's odd bit before dropping
///   the low 13 bits (a carry out of the mantissa bumps the exponent,
///   and a carry out of the top exponent lands exactly on infinity);
/// * subnormal results come from adding the magic float `0.5`, whose
///   ulp (`2^-24`) is the binary16 subnormal spacing, so the hardware's
///   round-to-nearest-even float add performs the rounding;
/// * magnitudes `>= 65536` and infinities saturate to `sign | 0x7C00`.
///
/// NaN takes the [`f32_to_f16_bits_ref`] path for its payload rule.
/// Bit-identical to [`f32_to_f16_bits_ref`] on all 2³² inputs.
#[inline]
pub fn f32_to_f16_bits(value: f32) -> u16 {
    let x = value.to_bits();
    let sign = ((x >> 16) & 0x8000) as u16;
    let abs = x & 0x7FFF_FFFF;
    if abs > 0x7F80_0000 {
        return f32_to_f16_bits_ref(value);
    }
    // Normal range: binary32 bias 127 -> binary16 bias 15, then RNE on
    // the 13 dropped bits.
    let odd = (abs >> 13) & 1;
    let normal = abs.wrapping_sub(112 << 23).wrapping_add(0xFFF + odd) >> 13;
    // Subnormal range (|x| < 2^-14): align the 10 kept bits at the bottom
    // of the magic value's mantissa; the add rounds.
    let magic = 0x3F00_0000u32; // 0.5
    let subnormal = (f32::from_bits(abs) + f32::from_bits(magic)).to_bits() - magic;
    let mag = if abs < 0x3880_0000 {
        subnormal
    } else if abs >= 0x4780_0000 {
        0x7C00
    } else {
        normal
    };
    sign | mag as u16
}

/// The branchy reference conversion [`f32_to_f16_bits`] is checked
/// against: each IEEE case (NaN, overflow, subnormal, normal) spelled out
/// with an explicit remainder-vs-halfway comparison.
pub fn f32_to_f16_bits_ref(value: f32) -> u16 {
    let x = value.to_bits();
    let sign = ((x >> 16) & 0x8000) as u16;
    let exp = (x >> 23) & 0xFF;
    let man = x & 0x007F_FFFF;

    if exp == 0xFF {
        // Infinity or NaN. Preserve the top mantissa bits of a NaN payload,
        // forcing at least one bit so the result stays a NaN.
        if man == 0 {
            return sign | 0x7C00;
        }
        let payload = (man >> 13) as u16 & 0x03FF;
        return sign | 0x7C00 | payload | u16::from(payload == 0);
    }

    // Re-bias the exponent from binary32 (127) to binary16 (15).
    let half_exp = exp as i32 - 127 + 15;

    if half_exp >= 0x1F {
        // Magnitude too large even before rounding: +/- infinity.
        return sign | 0x7C00;
    }

    if half_exp <= 0 {
        // Result is subnormal in binary16 (or rounds to zero).
        // `-10` is the last exponent whose half-ulp can still round up into
        // the smallest subnormal; anything smaller is a clean zero.
        if half_exp < -10 {
            return sign;
        }
        // Add the implicit leading bit, then shift right so that the result
        // has 10 fractional bits with exponent field 0.
        let man = man | 0x0080_0000;
        let shift = (14 - half_exp) as u32;
        let kept = man >> shift;
        let rem = man & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let mut out = kept as u16;
        if rem > halfway || (rem == halfway && (out & 1) == 1) {
            out += 1; // may carry into the exponent field: that is exactly
                      // the subnormal -> MIN_POSITIVE transition, still correct.
        }
        return sign | out;
    }

    // Normal result: keep 10 mantissa bits, round the remaining 13.
    let mut out = ((half_exp as u16) << 10) | ((man >> 13) as u16);
    let rem = man & 0x1FFF;
    if rem > 0x1000 || (rem == 0x1000 && (out & 1) == 1) {
        // Carrying out of the mantissa increments the exponent; carrying out
        // of the top exponent value produces 0x7C00 = infinity, which is the
        // correctly rounded result.
        out = out.wrapping_add(1);
    }
    sign | out
}

/// Converts raw binary16 bits to an `f32`. Exact for all inputs.
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = u32::from(h & 0x8000) << 16;
    let exp = (h >> 10) & 0x1F;
    let man = u32::from(h & 0x03FF);

    let bits = match exp {
        0 => {
            if man == 0 {
                sign // +/- 0
            } else {
                // Subnormal: value = man * 2^-24. Normalise by locating the
                // leading set bit of the 10-bit mantissa.
                let lz = man.leading_zeros(); // in [22, 31]
                let shift = lz - 21; // bits to move the leading 1 to position 10
                let norm_man = (man << shift) & 0x03FF;
                let exp32 = (127 - 15 - shift as i32 + 1) as u32;
                sign | (exp32 << 23) | (norm_man << 13)
            }
        }
        0x1F => sign | 0x7F80_0000 | (man << 13), // inf / NaN (payload shifted)
        _ => sign | ((u32::from(exp) + 112) << 23) | (man << 13),
    };
    f32::from_bits(bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustively round-trip every binary16 bit pattern through f32.
    #[test]
    fn exhaustive_f16_to_f32_roundtrip() {
        for bits in 0..=u16::MAX {
            let f = f16_bits_to_f32(bits);
            let back = f32_to_f16_bits(f);
            if f.is_nan() {
                // NaNs stay NaNs with sign and (at least partial) payload.
                assert_eq!(back & 0x7C00, 0x7C00);
                assert_ne!(back & 0x03FF, 0);
                assert_eq!(back & 0x8000, bits & 0x8000);
            } else {
                assert_eq!(back, bits, "bits {bits:#06x} -> {f} -> {back:#06x}");
            }
        }
    }

    #[test]
    fn known_conversions() {
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f32_to_f16_bits(1.0), 0x3C00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xC000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7BFF);
        assert_eq!(f32_to_f16_bits(0.5), 0x3800);
        assert_eq!(f32_to_f16_bits(0.099975586), 0x2E66);
        assert_eq!(f16_bits_to_f32(0x3555), 0.333_251_95);
    }

    #[test]
    fn rounding_ties_to_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 (even mantissa) and
        // 1 + 2^-10; RNE keeps 1.0.
        let tie_down = 1.0 + 2f32.powi(-11);
        assert_eq!(f32_to_f16_bits(tie_down), 0x3C00);
        // (1 + 2^-10) + 2^-11 is halfway with odd low bit: rounds up.
        let tie_up = 1.0 + 2f32.powi(-10) + 2f32.powi(-11);
        assert_eq!(f32_to_f16_bits(tie_up), 0x3C02);
        // Just above the halfway point always rounds up.
        let above = 1.0 + 2f32.powi(-11) + 2f32.powi(-20);
        assert_eq!(f32_to_f16_bits(above), 0x3C01);
    }

    #[test]
    fn overflow_behaviour_around_max() {
        // Values in (65504, 65520) round back down to MAX...
        assert_eq!(f32_to_f16_bits(65519.0), 0x7BFF);
        // ...65520 is the tie, and MAX has an odd mantissa, so it rounds up
        // to infinity...
        assert_eq!(f32_to_f16_bits(65520.0), 0x7C00);
        // ...and anything larger is infinity outright.
        assert_eq!(f32_to_f16_bits(1e9), 0x7C00);
        assert_eq!(f32_to_f16_bits(-1e9), 0xFC00);
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7C00);
    }

    #[test]
    fn underflow_behaviour_around_zero() {
        // Half the smallest subnormal is a tie with even target: zero.
        assert_eq!(f32_to_f16_bits(2f32.powi(-25)), 0x0000);
        // Slightly more than half rounds up to the smallest subnormal.
        assert_eq!(f32_to_f16_bits(2f32.powi(-25) * 1.0001), 0x0001);
        // Below half of the smallest subnormal: zero, preserving the sign.
        assert_eq!(f32_to_f16_bits(-2f32.powi(-26)), 0x8000);
        // Largest subnormal.
        let largest_sub = 2f32.powi(-14) - 2f32.powi(-24);
        assert_eq!(f32_to_f16_bits(largest_sub), 0x03FF);
        // Subnormal rounding can carry into the normal range.
        let just_below_normal = 2f32.powi(-14) - 2f32.powi(-26);
        assert_eq!(f32_to_f16_bits(just_below_normal), 0x0400);
    }

    /// Checks the branch-free conversion against the reference on every
    /// bit pattern yielded by `bits`, failing on the first mismatch.
    fn assert_matches_ref(bits: impl Iterator<Item = u32>) {
        for x in bits {
            let f = f32::from_bits(x);
            let (got, want) = (f32_to_f16_bits(f), f32_to_f16_bits_ref(f));
            assert_eq!(
                got, want,
                "{x:#010x} ({f:e}): {got:#06x} vs ref {want:#06x}"
            );
        }
    }

    #[test]
    fn branchless_matches_reference_on_rounding_boundaries() {
        // Every sign x exponent x kept-mantissa pattern, with the 13
        // dropped bits at each rounding boundary: exact, just above
        // exact, just below / at / just above the halfway point, and the
        // largest remainder.
        const LOW: [u32; 6] = [0, 1, 0xFFF, 0x1000, 0x1001, 0x1FFF];
        assert_matches_ref((0..1u32 << 19).flat_map(|top| {
            // `top` = sign (1) | exponent (8) | top mantissa bits (10).
            LOW.iter().map(move |&low| (top << 13) | low)
        }));
        // NaN payloads: quiet and signalling, with payload bits only in
        // the dropped low bits, only in the kept top bits, and in both.
        assert_matches_ref(
            [
                0x7F80_0001u32,
                0x7F80_1FFF,
                0x7F80_2000,
                0x7FBF_FFFF,
                0x7FC0_0000,
                0x7FC0_0001,
                0x7FC0_1234,
                0x7FFF_FFFF,
            ]
            .into_iter()
            .flat_map(|n| [n, n | 0x8000_0000]),
        );
    }

    /// The full oracle: every one of the 2^32 inputs. About 20 s in a
    /// release build; run with `cargo test --release -p venom-fp16 --
    /// --ignored`.
    #[test]
    #[ignore = "exhaustive over 2^32 inputs; run in release"]
    fn branchless_matches_reference_exhaustively() {
        assert_matches_ref(0..=u32::MAX);
    }

    #[test]
    fn nan_payload_preserved() {
        let nan = f32::from_bits(0x7FC0_1234);
        let h = f32_to_f16_bits(nan);
        assert_eq!(h & 0x7C00, 0x7C00);
        assert_ne!(h & 0x03FF, 0);
        // Signalling-style NaN whose top 10 payload bits are zero must still
        // produce a NaN, not infinity.
        let snan = f32::from_bits(0x7F80_0001);
        let h = f32_to_f16_bits(snan);
        assert_ne!(h & 0x03FF, 0);
    }
}
