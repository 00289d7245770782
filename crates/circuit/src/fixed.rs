//! Runtime-parameterized signed fixed-point arithmetic.
//!
//! The sensor's on-chip digital backend performs its calibration and
//! decoupling math in fixed point; the achievable ±1.5 °C / ±1.6 mV accuracy
//! is partly set by word length. Modelling the word length at runtime (rather
//! than via const generics) lets the ablation benches sweep it.
//!
//! Values are stored as `i64` raw words interpreted as `raw / 2^frac_bits`,
//! constrained to the representable range of a signed `int_bits + frac_bits`
//! word (plus sign). Arithmetic saturates by default, as hardware datapaths
//! typically do.

use crate::error::CircuitError;
use std::fmt;

/// A signed Q-format: `int_bits` integer bits and `frac_bits` fraction bits,
/// plus an implicit sign bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    int_bits: u32,
    frac_bits: u32,
}

impl QFormat {
    /// Q16.16 — the default backend format of the sensor.
    pub const Q16_16: QFormat = QFormat {
        int_bits: 16,
        frac_bits: 16,
    };

    /// Q8.8 — a narrow format used by the word-length ablation.
    pub const Q8_8: QFormat = QFormat {
        int_bits: 8,
        frac_bits: 8,
    };

    /// Creates a format.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidQFormat`] unless
    /// `1 <= int_bits + frac_bits <= 62`.
    pub fn new(int_bits: u32, frac_bits: u32) -> Result<Self, CircuitError> {
        let total = int_bits + frac_bits;
        if total == 0 || total > 62 {
            return Err(CircuitError::InvalidQFormat {
                int_bits,
                frac_bits,
            });
        }
        Ok(QFormat {
            int_bits,
            frac_bits,
        })
    }

    /// Integer bits.
    #[inline]
    #[must_use]
    pub fn int_bits(self) -> u32 {
        self.int_bits
    }

    /// Fraction bits.
    #[inline]
    #[must_use]
    pub fn frac_bits(self) -> u32 {
        self.frac_bits
    }

    /// Total data bits (excluding sign).
    #[inline]
    #[must_use]
    pub fn total_bits(self) -> u32 {
        self.int_bits + self.frac_bits
    }

    /// Smallest representable increment, `2^-frac_bits`.
    #[inline]
    #[must_use]
    pub fn resolution(self) -> f64 {
        pow2(-(self.frac_bits as i32))
    }

    /// `2^frac_bits`: the factor from a real value to a raw word.
    #[inline]
    fn scale(self) -> f64 {
        pow2(self.frac_bits as i32)
    }

    /// Largest representable magnitude.
    #[must_use]
    pub fn max_value(self) -> f64 {
        self.raw_max() as f64 * self.resolution()
    }

    #[inline]
    fn raw_max(self) -> i64 {
        (1i64 << self.total_bits()) - 1
    }

    #[inline]
    fn raw_min(self) -> i64 {
        -(1i64 << self.total_bits())
    }
}

/// `2^e`, built from its exponent bits: exact, and no libm call. A valid
/// format has `frac_bits <= 62`, so `e` stays far inside the normal range.
#[inline]
fn pow2(e: i32) -> f64 {
    f64::from_bits(((1023 + e) as u64) << 52)
}

impl fmt::Display for QFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}.{}", self.int_bits, self.frac_bits)
    }
}

/// A fixed-point value in some [`QFormat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fixed {
    raw: i64,
    format: QFormat,
}

impl Fixed {
    /// Quantizes a real number into `format`, rounding to nearest and
    /// saturating at the format limits.
    #[inline]
    #[must_use]
    pub fn from_f64(value: f64, format: QFormat) -> Self {
        let scaled = value * format.scale();
        let raw = if scaled.is_nan() {
            0
        } else {
            scaled
                .round()
                .clamp(format.raw_min() as f64, format.raw_max() as f64) as i64
        };
        Fixed { raw, format }
    }

    /// Zero in the given format.
    #[inline]
    #[must_use]
    pub fn zero(format: QFormat) -> Self {
        Fixed { raw: 0, format }
    }

    /// One in the given format.
    #[must_use]
    pub fn one(format: QFormat) -> Self {
        Fixed::from_f64(1.0, format)
    }

    /// Raw underlying word.
    #[inline]
    #[must_use]
    pub fn raw(self) -> i64 {
        self.raw
    }

    /// Format of this value.
    #[inline]
    #[must_use]
    pub fn format(self) -> QFormat {
        self.format
    }

    /// Real value represented.
    #[inline]
    #[must_use]
    pub fn to_f64(self) -> f64 {
        self.raw as f64 * self.format.resolution()
    }

    /// Quantization error incurred when representing `value`.
    #[must_use]
    pub fn quantization_error(value: f64, format: QFormat) -> f64 {
        Fixed::from_f64(value, format).to_f64() - value
    }

    #[inline]
    fn check_format(self, other: Fixed) -> Result<(), CircuitError> {
        if self.format == other.format {
            Ok(())
        } else {
            Err(CircuitError::QFormatMismatch)
        }
    }

    #[inline]
    fn saturate(raw: i128, format: QFormat) -> Fixed {
        let clamped = raw.clamp(format.raw_min() as i128, format.raw_max() as i128) as i64;
        Fixed {
            raw: clamped,
            format,
        }
    }

    /// Saturating addition.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::QFormatMismatch`] if formats differ.
    // The arithmetic methods share names with the `std::ops` traits but
    // cannot implement them: they are fallible (format-checked) and
    // saturating, and hiding that behind operators would be misleading.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Fixed) -> Result<Fixed, CircuitError> {
        self.check_format(other)?;
        Ok(Fixed::saturate(
            self.raw as i128 + other.raw as i128,
            self.format,
        ))
    }

    /// Saturating subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::QFormatMismatch`] if formats differ.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Fixed) -> Result<Fixed, CircuitError> {
        self.check_format(other)?;
        Ok(Fixed::saturate(
            self.raw as i128 - other.raw as i128,
            self.format,
        ))
    }

    /// Saturating multiplication (full-precision intermediate, rounded back
    /// to the common format).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::QFormatMismatch`] if formats differ.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Fixed) -> Result<Fixed, CircuitError> {
        self.check_format(other)?;
        let wide = self.raw as i128 * other.raw as i128;
        let frac = self.format.frac_bits;
        // Round to nearest, ties away from zero, symmetrically in sign: the
        // negative branch must mirror the positive one through negation — a
        // bare arithmetic shift would floor negatives, biasing them away
        // from zero by up to one LSB. With no fraction bits there is
        // nothing to round (half would otherwise be a spurious +1).
        let half = if frac == 0 { 0 } else { 1i128 << (frac - 1) };
        let rounded = if wide >= 0 {
            (wide + half) >> frac
        } else {
            -((-wide + half) >> frac)
        };
        Ok(Fixed::saturate(rounded, self.format))
    }

    /// Saturating division (full-precision intermediate).
    ///
    /// # Errors
    ///
    /// * [`CircuitError::QFormatMismatch`] if formats differ;
    /// * [`CircuitError::FixedDivideByZero`] if `other` is zero.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, other: Fixed) -> Result<Fixed, CircuitError> {
        self.check_format(other)?;
        if other.raw == 0 {
            return Err(CircuitError::FixedDivideByZero);
        }
        let num = (self.raw as i128) << self.format.frac_bits;
        let quot = num / other.raw as i128;
        Ok(Fixed::saturate(quot, self.format))
    }

    /// Saturating negation.
    #[inline]
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Fixed {
        Fixed::saturate(-(self.raw as i128), self.format)
    }

    /// Absolute value (saturating).
    #[inline]
    #[must_use]
    pub fn abs(self) -> Fixed {
        if self.raw < 0 {
            self.neg()
        } else {
            self
        }
    }

    /// The stored word with one bit flipped — a single-event upset (SEU) in
    /// the register holding this value. `bit` 0 is the LSB; `bit` may range
    /// over the data bits plus the sign position (`total_bits()`).
    ///
    /// The flip acts on the raw two's-complement word, exactly as radiation
    /// would: the resulting value stays inside the register's physical
    /// range but can be arbitrarily far from the original value.
    #[must_use]
    pub fn with_bit_flipped(self, bit: u32) -> Fixed {
        let bit = bit.min(self.format.total_bits());
        // Flip within the sign-extended word, then fold back into range:
        // flipping the top (sign) bit toggles between x and x - 2^(total+1).
        let mask = 1i64 << bit;
        let flipped = self.raw ^ mask;
        let wrapped = if flipped > self.format.raw_max() {
            flipped - (1i64 << (self.format.total_bits() + 1))
        } else if flipped < self.format.raw_min() {
            flipped + (1i64 << (self.format.total_bits() + 1))
        } else {
            flipped
        };
        Fixed {
            raw: wrapped,
            format: self.format,
        }
    }
}

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.to_f64(), self.format)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_validation() {
        assert!(QFormat::new(16, 16).is_ok());
        assert!(QFormat::new(0, 0).is_err());
        assert!(QFormat::new(40, 40).is_err());
    }

    #[test]
    fn round_trip_small_values() {
        let q = QFormat::Q16_16;
        for v in [0.0, 1.0, -1.0, 0.5, 3.25, -127.875] {
            assert_eq!(Fixed::from_f64(v, q).to_f64(), v);
        }
    }

    #[test]
    fn quantization_error_bounded_by_half_lsb() {
        let q = QFormat::Q16_16;
        for i in 0..1000 {
            let v = (i as f64) * 0.001_234_5 - 0.6;
            let e = Fixed::quantization_error(v, q);
            assert!(e.abs() <= q.resolution() / 2.0 + 1e-15);
        }
    }

    #[test]
    fn saturation_at_limits() {
        let q = QFormat::Q8_8;
        let big = Fixed::from_f64(1e9, q);
        assert!((big.to_f64() - q.max_value()).abs() < 1e-9);
        let small = Fixed::from_f64(-1e9, q);
        assert!(small.to_f64() <= -q.max_value());
    }

    #[test]
    fn add_sub_exact_within_range() {
        let q = QFormat::Q16_16;
        let a = Fixed::from_f64(1.5, q);
        let b = Fixed::from_f64(2.25, q);
        assert_eq!(a.add(b).unwrap().to_f64(), 3.75);
        assert_eq!(a.sub(b).unwrap().to_f64(), -0.75);
    }

    #[test]
    fn add_saturates_instead_of_wrapping() {
        let q = QFormat::Q8_8;
        let a = Fixed::from_f64(q.max_value(), q);
        let sum = a.add(a).unwrap();
        assert_eq!(sum.to_f64(), q.max_value());
    }

    #[test]
    fn mul_div_close_to_real_arithmetic() {
        let q = QFormat::Q16_16;
        let a = Fixed::from_f64(3.25, q);
        let b = Fixed::from_f64(2.6, q);
        let prod = a.mul(b).unwrap().to_f64();
        assert!((prod - 3.25 * 2.6).abs() < 3.0 * q.resolution());
        let quot = a.div(b).unwrap().to_f64();
        assert!((quot - 3.25 / 2.6).abs() < 3.0 * q.resolution());
    }

    #[test]
    fn mul_rounds_negative_sub_half_lsb_toward_zero() {
        // raw −1 × raw 16384 (0.25) ⇒ exact product −0.25 LSB, which must
        // round to zero. The old floor-based shift returned −1 LSB.
        let q = QFormat::Q16_16;
        let a = Fixed { raw: -1, format: q };
        let b = Fixed {
            raw: 16384,
            format: q,
        };
        assert_eq!(a.mul(b).unwrap().raw(), 0);
        // A tie (−0.5 LSB exactly) rounds away from zero, matching the
        // positive branch.
        let c = Fixed {
            raw: 32768,
            format: q,
        };
        assert_eq!(a.mul(c).unwrap().raw(), -1);
        assert_eq!(a.neg().mul(c).unwrap().raw(), 1);
    }

    #[test]
    fn mul_with_zero_frac_bits_is_exact() {
        // With no fraction bits there is nothing to round; the old code
        // still added a spurious half = 1 to every product.
        let q = QFormat::new(20, 0).unwrap();
        let a = Fixed::from_f64(3.0, q);
        let b = Fixed::from_f64(5.0, q);
        assert_eq!(a.mul(b).unwrap().to_f64(), 15.0);
        assert_eq!(a.neg().mul(b).unwrap().to_f64(), -15.0);
    }

    #[test]
    fn div_by_zero_is_error() {
        let q = QFormat::Q16_16;
        let a = Fixed::one(q);
        assert_eq!(
            a.div(Fixed::zero(q)).unwrap_err(),
            CircuitError::FixedDivideByZero
        );
    }

    #[test]
    fn mixed_formats_rejected() {
        let a = Fixed::one(QFormat::Q16_16);
        let b = Fixed::one(QFormat::Q8_8);
        assert_eq!(a.add(b).unwrap_err(), CircuitError::QFormatMismatch);
        assert_eq!(a.mul(b).unwrap_err(), CircuitError::QFormatMismatch);
    }

    #[test]
    fn neg_abs() {
        let q = QFormat::Q16_16;
        let a = Fixed::from_f64(-2.5, q);
        assert_eq!(a.abs().to_f64(), 2.5);
        assert_eq!(a.neg().to_f64(), 2.5);
        assert_eq!(a.abs().neg().to_f64(), -2.5);
    }

    #[test]
    fn bit_flip_changes_value_and_double_flip_restores() {
        let q = QFormat::Q16_16;
        let v = Fixed::from_f64(0.0123, q);
        for bit in [0, 5, 12, 20, q.total_bits()] {
            let hit = v.with_bit_flipped(bit);
            assert_ne!(hit.raw(), v.raw(), "bit {bit} flip must change the word");
            assert_eq!(hit.with_bit_flipped(bit).raw(), v.raw());
            assert!(hit.raw() <= q.max_value() as i64 * (1 << q.frac_bits()) + 1);
        }
        // Flip magnitude matches the bit weight for in-range results.
        let lsb = v.with_bit_flipped(0);
        assert!((lsb.to_f64() - v.to_f64()).abs() - q.resolution() < 1e-12);
    }

    #[test]
    fn nan_quantizes_to_zero() {
        assert_eq!(Fixed::from_f64(f64::NAN, QFormat::Q16_16).to_f64(), 0.0);
    }

    #[test]
    fn resolution_and_display() {
        let q = QFormat::new(4, 10).unwrap();
        assert!((q.resolution() - 1.0 / 1024.0).abs() < 1e-15);
        assert_eq!(q.to_string(), "Q4.10");
        let v = Fixed::from_f64(0.5, q);
        assert!(v.to_string().contains("0.5"));
    }

    #[test]
    fn exact_powers_of_two_match_libm_for_every_format() {
        for frac_bits in 0..=62 {
            for int_bits in 0..=62 - frac_bits {
                let Ok(q) = QFormat::new(int_bits, frac_bits) else {
                    continue;
                };
                let libm = f64::from(frac_bits).exp2();
                assert_eq!(q.resolution().to_bits(), libm.recip().to_bits(), "{q}");
                assert_eq!(q.scale().to_bits(), libm.to_bits(), "{q}");
            }
        }
    }

    #[test]
    fn narrower_format_larger_error() {
        let v = 0.123_456_789;
        let e16 = Fixed::quantization_error(v, QFormat::Q16_16).abs();
        let e8 = Fixed::quantization_error(v, QFormat::Q8_8).abs();
        assert!(e8 >= e16);
    }
}
