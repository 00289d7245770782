//! Per-die calibration state.
//!
//! The self-calibration pass extracts the die's process state and stores it
//! in fixed-point registers. Register word length is part of the hardware
//! spec — storing through [`Fixed`] models the quantization the real sensor
//! pays (and is one axis of the A1 ablation).
//!
//! Each register word also carries a parity bit, written once at store
//! time. A single-event upset flips a register bit but not its parity, so
//! [`Calibration::parity_errors`] exposes exactly which registers can no
//! longer be trusted — the hook the sensor's parity scrub checks before
//! every conversion.
//!
//! Beside the registers, a calibration may carry a start anchor: state
//! derived from the stored registers once, at calibration, that lets every
//! conversion start its Newton solve at a predicted temperature. It is not
//! a register: it has no word, no parity and no SEU.

use crate::error::SensorError;
use ptsim_circuit::fixed::{Fixed, QFormat};
use ptsim_device::units::{Celsius, Volt};

/// Number of calibration registers (`ΔVtn, ΔVtp, µn, µp, ln-TSRO-scale`).
pub const CALIB_REGISTERS: usize = 5;

/// The stored result of one self-calibration.
///
/// Two calibrations are equal when their registers, calibration temperature
/// and parity are: the start anchor is derived state and takes no part.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    d_vtn: Fixed,
    d_vtp: Fixed,
    mu_n: Fixed,
    mu_p: Fixed,
    ln_tsro_scale: Fixed,
    calib_temp: Celsius,
    /// Per-register parity written at store time: bit *i* is the XOR of
    /// register *i*'s word bits.
    parity: u8,
    /// Derived from the stored registers by the calibration that wrote
    /// them; `None` until then, and on characterized-model sensors.
    anchor: Option<StartAnchor>,
}

/// What a conversion's start prediction reads of one calibration, derived
/// once from its registers by one analytic TSRO pass at the calibration
/// temperature (see
/// [`StartTable::anchor`](crate::pipeline::solve::StartTable::anchor)):
/// the die's TSRO `ln f` model is the design-time table's expansion at
/// `process` plus `shift`, exact at the calibration temperature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StartAnchor {
    /// The stored process registers `(ΔVtn, ΔVtp, µn, µp)`.
    pub(crate) process: [f64; 4],
    /// The stored TSRO log-scale plus the exact-minus-tabulated `ln f` at
    /// the calibration temperature.
    pub(crate) shift: f64,
}

impl PartialEq for Calibration {
    fn eq(&self, other: &Self) -> bool {
        self.registers() == other.registers()
            && self.calib_temp == other.calib_temp
            && self.parity == other.parity
    }
}

/// Parity (XOR of all bits) of one register word.
fn word_parity(reg: Fixed) -> u8 {
    ((reg.raw() as u64).count_ones() & 1) as u8
}

impl Calibration {
    /// Quantizes and stores a calibration result.
    ///
    /// `ln_tsro_scale` is the log-domain multiplicative correction that maps
    /// the golden TSRO model onto this die's measured TSRO (absorbing the
    /// TSRO's local mismatch).
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn store(
        d_vtn: Volt,
        d_vtp: Volt,
        mu_n: f64,
        mu_p: f64,
        ln_tsro_scale: f64,
        calib_temp: Celsius,
        format: QFormat,
    ) -> Self {
        let mut cal = Calibration {
            d_vtn: Fixed::from_f64(d_vtn.0, format),
            d_vtp: Fixed::from_f64(d_vtp.0, format),
            mu_n: Fixed::from_f64(mu_n, format),
            mu_p: Fixed::from_f64(mu_p, format),
            ln_tsro_scale: Fixed::from_f64(ln_tsro_scale, format),
            calib_temp,
            parity: 0,
            anchor: None,
        };
        cal.parity = cal.computed_parity();
        cal
    }

    /// Every register word in `ΔVtn, ΔVtp, µn, µp, ln-scale` order.
    fn registers(&self) -> [Fixed; CALIB_REGISTERS] {
        [
            self.d_vtn,
            self.d_vtp,
            self.mu_n,
            self.mu_p,
            self.ln_tsro_scale,
        ]
    }

    /// The raw word of register `index` (`ΔVtn, ΔVtp, µn, µp, ln-scale`
    /// order).
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidRegister`] for indices outside
    /// `0..CALIB_REGISTERS` — a corrupted register pointer surfaces as a
    /// recoverable fault instead of aborting the worker that hit it.
    pub fn register(&self, index: usize) -> Result<Fixed, SensorError> {
        self.registers()
            .get(index)
            .copied()
            .ok_or(SensorError::InvalidRegister { index })
    }

    fn register_mut(&mut self, index: usize) -> Result<&mut Fixed, SensorError> {
        match index {
            0 => Ok(&mut self.d_vtn),
            1 => Ok(&mut self.d_vtp),
            2 => Ok(&mut self.mu_n),
            3 => Ok(&mut self.mu_p),
            4 => Ok(&mut self.ln_tsro_scale),
            _ => Err(SensorError::InvalidRegister { index }),
        }
    }

    fn computed_parity(&self) -> u8 {
        self.registers()
            .iter()
            .enumerate()
            .fold(0u8, |mask, (i, &reg)| mask | (word_parity(reg) << i))
    }

    /// Bitmask of registers whose current parity disagrees with the parity
    /// written at store time (bit *i* = register *i*). `0` means every
    /// register still checks out.
    #[must_use]
    pub fn parity_errors(&self) -> u8 {
        self.computed_parity() ^ self.parity
    }

    /// Flips one bit of one register word *without* updating the stored
    /// parity — exactly what a single-event upset does to the physical
    /// register. Register indices follow the `ΔVtn, ΔVtp, µn, µp, ln-scale`
    /// order; out-of-range registers are ignored (no flip).
    pub fn inject_bit_flip(&mut self, register: usize, bit: u32) {
        if let Ok(reg) = self.register_mut(register) {
            *reg = reg.with_bit_flipped(bit);
        }
    }

    /// Extracted NMOS threshold shift (as quantized in the register).
    #[must_use]
    pub fn d_vtn(&self) -> Volt {
        Volt(self.d_vtn.to_f64())
    }

    /// Extracted PMOS threshold shift.
    #[must_use]
    pub fn d_vtp(&self) -> Volt {
        Volt(self.d_vtp.to_f64())
    }

    /// Extracted NMOS mobility multiplier.
    #[must_use]
    pub fn mu_n(&self) -> f64 {
        self.mu_n.to_f64()
    }

    /// Extracted PMOS mobility multiplier.
    #[must_use]
    pub fn mu_p(&self) -> f64 {
        self.mu_p.to_f64()
    }

    /// Stored TSRO log-domain correction.
    #[must_use]
    pub fn ln_tsro_scale(&self) -> f64 {
        self.ln_tsro_scale.to_f64()
    }

    /// Temperature the calibration assumed.
    #[must_use]
    pub fn calib_temp(&self) -> Celsius {
        self.calib_temp
    }

    /// Register format in use.
    #[must_use]
    pub fn format(&self) -> QFormat {
        self.d_vtn.format()
    }

    /// The stored process registers as the TSRO model's process state
    /// `(ΔVtn, ΔVtp, µn, µp)`.
    pub(crate) fn process(&self) -> [f64; 4] {
        [self.d_vtn().0, self.d_vtp().0, self.mu_n(), self.mu_p()]
    }

    /// The start anchor, if one was derived from these registers.
    pub(crate) fn anchor(&self) -> Option<&StartAnchor> {
        self.anchor.as_ref()
    }

    /// This calibration with `anchor` derived from its registers.
    pub(crate) fn anchored(self, anchor: Option<StartAnchor>) -> Self {
        Calibration { anchor, ..self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_round_trips_within_resolution() {
        let c = Calibration::store(
            Volt(0.0123),
            Volt(-0.0045),
            1.031,
            0.978,
            0.0021,
            Celsius(25.0),
            QFormat::Q16_16,
        );
        let res = QFormat::Q16_16.resolution();
        assert!((c.d_vtn().0 - 0.0123).abs() <= res);
        assert!((c.d_vtp().0 + 0.0045).abs() <= res);
        assert!((c.mu_n() - 1.031).abs() <= res);
        assert!((c.mu_p() - 0.978).abs() <= res);
        assert!((c.ln_tsro_scale() - 0.0021).abs() <= res);
        assert_eq!(c.calib_temp(), Celsius(25.0));
    }

    #[test]
    fn narrow_format_visibly_coarser() {
        let fine = Calibration::store(
            Volt(0.0123),
            Volt::ZERO,
            1.0,
            1.0,
            0.0,
            Celsius(25.0),
            QFormat::Q16_16,
        );
        let coarse = Calibration::store(
            Volt(0.0123),
            Volt::ZERO,
            1.0,
            1.0,
            0.0,
            Celsius(25.0),
            QFormat::Q8_8,
        );
        let err_fine = (fine.d_vtn().0 - 0.0123).abs();
        let err_coarse = (coarse.d_vtn().0 - 0.0123).abs();
        assert!(err_coarse > err_fine);
        assert_eq!(coarse.format(), QFormat::Q8_8);
    }

    fn sample() -> Calibration {
        Calibration::store(
            Volt(0.0123),
            Volt(-0.0045),
            1.031,
            0.978,
            0.0021,
            Celsius(25.0),
            QFormat::Q16_16,
        )
    }

    #[test]
    fn fresh_calibration_has_clean_parity() {
        assert_eq!(sample().parity_errors(), 0);
    }

    #[test]
    fn seu_flips_exactly_one_parity_bit() {
        for register in 0..CALIB_REGISTERS {
            let mut c = sample();
            c.inject_bit_flip(register, 7);
            assert_eq!(
                c.parity_errors(),
                1 << register,
                "register {register} parity mask"
            );
        }
    }

    #[test]
    fn double_flip_restores_parity_and_value() {
        let mut c = sample();
        let before = c;
        c.inject_bit_flip(2, 11);
        assert_ne!(c.mu_n(), before.mu_n());
        assert_ne!(c.parity_errors(), 0);
        c.inject_bit_flip(2, 11);
        assert_eq!(c, before);
        assert_eq!(c.parity_errors(), 0);
    }

    #[test]
    fn seu_changes_stored_value_measurably() {
        let mut c = sample();
        // Bit 16+5 in Q16.16 is 2^5 = 32 in value terms — a catastrophic
        // corruption of a millivolt-scale register.
        c.inject_bit_flip(0, 21);
        assert!((c.d_vtn().0 - 0.0123).abs() > 1.0);
        assert_eq!(c.parity_errors(), 0b00001);
    }

    #[test]
    fn out_of_range_register_is_ignored() {
        let mut c = sample();
        let before = c;
        c.inject_bit_flip(CALIB_REGISTERS, 3);
        assert_eq!(c, before);
    }

    #[test]
    fn register_returns_each_word_in_order() {
        let c = sample();
        let words: Vec<Fixed> = (0..CALIB_REGISTERS)
            .map(|i| c.register(i).expect("in-range register"))
            .collect();
        assert_eq!(words[0].to_f64(), c.d_vtn().0);
        assert_eq!(words[1].to_f64(), c.d_vtp().0);
        assert_eq!(words[2].to_f64(), c.mu_n());
        assert_eq!(words[3].to_f64(), c.mu_p());
        assert_eq!(words[4].to_f64(), c.ln_tsro_scale());
    }

    #[test]
    fn out_of_range_register_is_typed_error_not_panic() {
        // Regression: these used to be `panic!` arms, which aborted the
        // fleet worker that hit a corrupted register pointer.
        let c = sample();
        for index in [CALIB_REGISTERS, CALIB_REGISTERS + 1, usize::MAX] {
            match c.register(index) {
                Err(SensorError::InvalidRegister { index: got }) => assert_eq!(got, index),
                other => panic!("expected InvalidRegister, got {other:?}"),
            }
        }
        let msg = c.register(7).unwrap_err().to_string();
        assert!(msg.contains("7") && msg.contains("out of range"), "{msg}");
    }
}
