//! The self-calibrated process–temperature sensor.
//!
//! One sensor instance owns a ring-oscillator bank, a gated counter with an
//! auto-ranging prescaler, fixed-point calibration registers, and the
//! decoupling solver. Its life cycle mirrors the silicon:
//!
//! 1. **Self-calibration** ([`PtSensor::calibrate`]) — at boot, with the die
//!    assumed to sit at the known ambient reference, each PSRO is measured
//!    at two supplies and the 4×4 Newton decoupling extracts
//!    `(ΔVtn, ΔVtp, µn, µp)`; the TSRO is then measured once to absorb its
//!    own local mismatch into a stored log-domain correction.
//! 2. **Conversion** ([`PtSensor::read`]) — every reading measures the TSRO
//!    and both PSROs at the low supply, then jointly solves
//!    `(T, ΔVtn, ΔVtp)` with a 3×3 Newton decoupling (the TSRO row carries
//!    temperature, the PSRO rows carry the thresholds), so even large
//!    post-calibration drift — TSV stress, BTI/HCI aging — is tracked.
//!    Results are quantized through the Q-format output registers and every
//!    component's energy is charged to an
//!    [`EnergyLedger`].
//!
//! Both entry points are thin compositions over the staged
//! [`pipeline`](crate::pipeline) — acquisition, gating, solving, output —
//! whose stage modules hold the actual conversion logic and its unit
//! tests. Multi-die campaigns should use
//! [`BatchPlan`](crate::pipeline::BatchPlan) or [`PtSensor::read_batch`]
//! to amortize per-conversion setup.
//!
//! ## Hardening
//!
//! The controller distrusts every raw number it handles
//! ([`HardeningSpec`]): counts are checked against design-time plausibility
//! bands, optionally majority-voted across redundant oscillator replicas,
//! and re-measured with a widened window when implausible; calibration
//! registers carry parity; the decoupling solver escalates from the plain
//! Newton tuning through robust damping to a bisection against the
//! characterized response; a lost PSRO bank degrades the sensor to a
//! temperature-only output instead of killing it. Every result carries a
//! [`Health`](crate::Health) record — a corrupted output is either an error or flagged,
//! never silent. Faults are injected with [`PtSensor::inject_faults`]; with
//! no faults and the default single-replica hardening the datapath is
//! bit-identical to the unhardened sensor.

use crate::bank::{BankCache, BankSpec, RoBank, RoClass};
use crate::calib::Calibration;
use crate::error::SensorError;
use crate::golden::{CharacterizationSpace, GoldenModel};
use crate::health::HealthEvent;
use crate::pipeline::bands::{design_bands, Band};
use crate::pipeline::solve::StartTable;
use ptsim_circuit::counter::GatedCounter;
use ptsim_circuit::energy::EnergyLedger;
use ptsim_circuit::fixed::QFormat;
use ptsim_device::inverter::CmosEnv;
use ptsim_device::process::Technology;
use ptsim_device::units::{Celsius, Hertz, Joule, Volt};
use ptsim_faults::FaultPlan;
use ptsim_mc::die::{DieSample, DieSite};
use ptsim_rng::Rng;
use std::sync::{Arc, OnceLock};

pub use crate::pipeline::output::{CalibrationOutcome, Reading};

/// Robustness knobs of the sensor controller.
///
/// The defaults describe the paper's baseline sensor: one oscillator per
/// channel, two widened-window retries, and plausibility margins wide
/// enough that no healthy die is ever flagged — the hardened datapath is
/// bit-identical to the unhardened one until something actually fails.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardeningSpec {
    /// Redundant oscillator+counter replicas per channel (majority-voted).
    pub replicas: usize,
    /// Widened-window re-measurements before a channel is declared lost.
    pub max_retries: usize,
    /// Window stretch factor for retry measurements.
    pub retry_window_scale: u64,
    /// Plausibility band lower edge, as a fraction of the slowest
    /// design-corner frequency.
    pub band_margin_low: f64,
    /// Plausibility band upper edge, as a multiple of the fastest
    /// design-corner frequency.
    pub band_margin_high: f64,
    /// Relative deviation from the replica median beyond which a replica is
    /// outvoted.
    pub replica_outlier_rel: f64,
    /// Relative spread of the voted replicas beyond which the channel is
    /// flagged (excess jitter / marginal supply).
    pub replica_spread_rel: f64,
    /// Largest plausible post-calibration threshold drift; solved drifts
    /// beyond it flag the reading.
    pub max_drift: Volt,
}

impl HardeningSpec {
    /// Baseline: single replica, guards only.
    #[must_use]
    pub fn baseline() -> Self {
        HardeningSpec {
            replicas: 1,
            max_retries: 2,
            retry_window_scale: 4,
            band_margin_low: 0.25,
            band_margin_high: 6.0,
            replica_outlier_rel: 0.02,
            replica_spread_rel: 5e-3,
            max_drift: Volt(0.08),
        }
    }

    /// Triple modular redundancy on every channel, otherwise baseline.
    #[must_use]
    pub fn redundant() -> Self {
        HardeningSpec {
            replicas: 3,
            ..HardeningSpec::baseline()
        }
    }
}

impl Default for HardeningSpec {
    fn default() -> Self {
        HardeningSpec::baseline()
    }
}

/// Full hardware specification of one sensor instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorSpec {
    /// Oscillator bank design.
    pub bank: BankSpec,
    /// Counter width in bits.
    pub counter_bits: u32,
    /// Gating window in reference-clock cycles.
    pub window_cycles: u64,
    /// Reference clock (crystal / stable system clock).
    pub ref_clock: Hertz,
    /// Output/coefficient register format.
    pub qformat: QFormat,
    /// Temperature the self-calibration assumes the die is at.
    pub calib_temp: Celsius,
    /// Valid solve range — readings outside are rejected.
    pub temp_range: (Celsius, Celsius),
    /// Energy charged per counted edge (counter + prescaler toggling).
    pub counter_energy_per_count: Joule,
    /// Controller overhead cycles per conversion (FSM, muxing, register IO).
    pub controller_cycles: u64,
    /// Datapath cycles per Newton iteration.
    pub solver_cycles_per_iteration: u64,
    /// Energy per controller/datapath cycle.
    pub digital_energy_per_cycle: Joule,
    /// Robustness configuration of the controller.
    pub hardening: HardeningSpec,
}

impl SensorSpec {
    /// Reference 65 nm sensor: 16-bit counters, ~12 µs window on a 32 MHz
    /// reference, Q16.16 registers, calibration at 25 °C.
    #[must_use]
    pub fn default_65nm() -> Self {
        SensorSpec {
            bank: BankSpec::default_65nm(),
            counter_bits: 16,
            window_cycles: 448, // 14 µs @ 32 MHz
            ref_clock: Hertz(32.0e6),
            qformat: QFormat::Q16_16,
            calib_temp: Celsius(25.0),
            temp_range: (Celsius(-55.0), Celsius(150.0)),
            counter_energy_per_count: Joule(18e-15),
            controller_cycles: 680,
            // Fit with the other energy constants to the paper's 367.5 pJ at
            // the nominal corner, where the analytic-Jacobian solve takes 3
            // iterations: 768 datapath cycles per nominal conversion.
            solver_cycles_per_iteration: 256,
            digital_energy_per_cycle: Joule(85e-15),
            hardening: HardeningSpec::baseline(),
        }
    }
}

impl Default for SensorSpec {
    fn default() -> Self {
        SensorSpec::default_65nm()
    }
}

/// The physical situation a sensor measurement happens in.
#[derive(Debug, Clone, Copy)]
pub struct SensorInputs<'a> {
    /// The die (process realization) the sensor is fabricated on.
    pub die: &'a DieSample,
    /// Bank centre location on the die.
    pub site: DieSite,
    /// True junction temperature at the sensor.
    pub temp: Celsius,
    /// Externally-imposed NMOS threshold shift (e.g. TSV stress).
    pub extra_vtn: Volt,
    /// Externally-imposed PMOS threshold shift.
    pub extra_vtp: Volt,
}

impl<'a> SensorInputs<'a> {
    /// Inputs with no external stress.
    #[must_use]
    pub fn new(die: &'a DieSample, site: DieSite, temp: Celsius) -> Self {
        SensorInputs {
            die,
            site,
            temp,
            extra_vtn: Volt::ZERO,
            extra_vtp: Volt::ZERO,
        }
    }

    /// Adds externally-imposed threshold shifts (e.g. from
    /// `ptsim_tsv::StackTopology::stress_vt_shift_at`).
    #[must_use]
    pub fn with_stress(mut self, extra_vtn: Volt, extra_vtp: Volt) -> Self {
        self.extra_vtn = extra_vtn;
        self.extra_vtp = extra_vtp;
        self
    }
}

/// The on-chip self-calibrated process–temperature sensor.
#[derive(Debug, Clone, PartialEq)]
pub struct PtSensor {
    pub(crate) tech: Technology,
    pub(crate) spec: SensorSpec,
    pub(crate) bank: RoBank,
    /// Precomputed hot-path state of the bank (derived from `tech` + `bank`
    /// at construction; bit-identical exact memoization).
    pub(crate) cache: BankCache,
    /// When present, calibration/conversion math runs on the design-time
    /// characterized polynomial model (hardware-faithful) instead of the
    /// analytic compact model.
    pub(crate) golden: Option<GoldenModel>,
    pub(crate) calibration: Option<Calibration>,
    /// Design-time plausibility bands, one per measurement-plan pair.
    pub(crate) bands: Vec<Band>,
    /// Design-time TSRO table of the conversion start, built on first use
    /// and shared by every clone of this sensor.
    start_table: SharedTable,
    /// Active injected faults (empty in a healthy sensor).
    pub(crate) faults: FaultPlan,
}

impl PtSensor {
    /// Builds a sensor instance for `tech`.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidConfig`] for an empty/inverted
    /// `temp_range` or nonsensical hardening knobs, and propagates
    /// bank/counter construction errors for invalid specs.
    pub fn new(tech: Technology, spec: SensorSpec) -> Result<Self, SensorError> {
        if spec.temp_range.0 .0 >= spec.temp_range.1 .0 {
            return Err(SensorError::InvalidConfig {
                name: "temp_range",
                value: spec.temp_range.0 .0,
            });
        }
        let h = spec.hardening;
        if h.replicas == 0 || h.replicas > 9 {
            return Err(SensorError::InvalidConfig {
                name: "hardening.replicas",
                value: h.replicas as f64,
            });
        }
        if h.retry_window_scale == 0 {
            return Err(SensorError::InvalidConfig {
                name: "hardening.retry_window_scale",
                value: 0.0,
            });
        }
        if !(h.band_margin_low > 0.0 && h.band_margin_low <= 1.0) {
            return Err(SensorError::InvalidConfig {
                name: "hardening.band_margin_low",
                value: h.band_margin_low,
            });
        }
        if h.band_margin_high < 1.0 {
            return Err(SensorError::InvalidConfig {
                name: "hardening.band_margin_high",
                value: h.band_margin_high,
            });
        }
        // Validate counter/bank parameters eagerly (including the widest
        // retry window the controller may configure).
        let _ = GatedCounter::new(spec.counter_bits, spec.window_cycles)?;
        let _ = GatedCounter::new(spec.counter_bits, spec.window_cycles * h.retry_window_scale)?;
        let bank = RoBank::new(&tech, spec.bank)?;
        let bands = design_bands(&tech, &bank, &spec);
        let cache = BankCache::new(&tech, &bank);
        Ok(PtSensor {
            tech,
            spec,
            bank,
            cache,
            golden: None,
            calibration: None,
            bands,
            start_table: SharedTable::default(),
            faults: FaultPlan::new(),
        })
    }

    /// The design-time TSRO table the conversion solves start from (see
    /// [`StartTable`]), built on the first call for this design and shared
    /// with every clone; `None` on a characterized-model sensor, whose
    /// solves keep the calibration-temperature start.
    pub(crate) fn start_table(&self) -> Option<&StartTable> {
        if self.golden.is_some() {
            return None;
        }
        Some(self.start_table.0.get_or_init(|| StartTable::build(self)))
    }

    /// `calibration` with the start anchor of this design derived from its
    /// registers (unanchored on a characterized-model sensor).
    pub(crate) fn anchor(&self, calibration: Calibration) -> Calibration {
        let anchor = self
            .start_table()
            .map(|table| table.anchor(self, &calibration));
        calibration.anchored(anchor)
    }

    /// Switches the on-chip math to a design-time characterized polynomial
    /// model (what real hardware evaluates), adding its fit error to the
    /// error budget. Invalidates any previous calibration.
    ///
    /// # Errors
    ///
    /// Propagates characterization failures.
    pub fn use_characterized_model(
        &mut self,
        space: CharacterizationSpace,
    ) -> Result<(), SensorError> {
        self.golden = Some(GoldenModel::characterize(
            &self.tech,
            self.spec.bank,
            space,
        )?);
        self.calibration = None;
        Ok(())
    }

    /// The characterized model, if enabled.
    #[must_use]
    pub fn characterized_model(&self) -> Option<&GoldenModel> {
        self.golden.as_ref()
    }

    /// On-chip model prediction of `ln f` for an oscillator/supply pair.
    /// The analytic path runs on the [`BankCache`] (bit-identical to the
    /// uncached bank evaluation it replaced).
    pub(crate) fn model_ln_f(&self, class: RoClass, vdd: Volt, env: &CmosEnv) -> f64 {
        match &self.golden {
            Some(g) => g
                .ln_frequency(class, vdd, env)
                .expect("measurement plan pairs are always characterized"),
            None => self.cache.frequency(class, vdd, env).0.ln(),
        }
    }

    /// Sensor spec.
    #[must_use]
    pub fn spec(&self) -> &SensorSpec {
        &self.spec
    }

    /// Oscillator bank.
    #[must_use]
    pub fn bank(&self) -> &RoBank {
        &self.bank
    }

    /// Technology the sensor is built in.
    #[must_use]
    pub fn technology(&self) -> &Technology {
        &self.tech
    }

    /// Stored calibration, if the sensor has been calibrated.
    #[must_use]
    pub fn calibration(&self) -> Option<&Calibration> {
        self.calibration.as_ref()
    }

    /// Installs an externally-stored calibration (e.g. replayed from
    /// non-volatile memory), deriving its start anchor from the registers.
    pub fn set_calibration(&mut self, calibration: Calibration) {
        self.calibration = Some(self.anchor(calibration));
    }

    /// Injects a set of hardware faults. Calibration-register SEUs strike
    /// immediately (if a calibration is stored); every other fault corrupts
    /// subsequent measurements at its physical point of action.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        for (register, bit) in plan.calib_seus() {
            if let Some(cal) = self.calibration.as_mut() {
                cal.inject_bit_flip(register, bit);
            }
        }
        self.faults = plan;
    }

    /// Removes all injected faults (register corruption persists until a
    /// recalibration rewrites the registers).
    pub fn clear_faults(&mut self) {
        self.faults = FaultPlan::new();
    }

    /// Resets *all* per-die state a reused worker sensor carries between
    /// dies of a batch campaign: the injected fault plan **and** the stored
    /// calibration. `clear_faults` alone was enough only by accident — the
    /// scalar path happened to overwrite the stale calibration before
    /// reading it, but the lane kernel never installs per-die calibrations
    /// into the shared worker sensor at all, so a stale one must not
    /// linger. Per-run metrics live in the worker's
    /// [`Scratch`](crate::pipeline::Scratch), not the sensor, and are
    /// intentionally preserved (they are merged after the run).
    pub fn reset_for_reuse(&mut self) {
        self.faults = FaultPlan::new();
        self.calibration = None;
    }

    /// The active fault plan (empty when healthy).
    #[must_use]
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Checks calibration-register parity and, on a mismatch, recovers by
    /// re-running the self-calibration. Returns the fresh outcome (with a
    /// [`HealthEvent::ParityScrubbed`] record) if a scrub was needed.
    ///
    /// # Errors
    ///
    /// Propagates recalibration failures.
    pub fn parity_scrub<R: Rng + ?Sized>(
        &mut self,
        inputs: &SensorInputs<'_>,
        rng: &mut R,
    ) -> Result<Option<CalibrationOutcome>, SensorError> {
        let mask = match &self.calibration {
            Some(cal) => cal.parity_errors(),
            None => return Ok(None),
        };
        if mask == 0 {
            return Ok(None);
        }
        let mut outcome = self.calibrate(inputs, rng)?;
        outcome
            .health
            .record(HealthEvent::ParityScrubbed { registers: mask });
        Ok(Some(outcome))
    }

    /// Environment the sensor bank actually experiences on this die at this
    /// temperature (site-local variation plus external stress).
    pub(crate) fn die_env(
        &self,
        class: RoClass,
        inputs: &SensorInputs<'_>,
        temp: Celsius,
    ) -> CmosEnv {
        let site = self.bank.site_of(class, inputs.site);
        inputs
            .die
            .env_at_with(site, temp, inputs.extra_vtn, inputs.extra_vtp)
    }

    /// Charges `cycles` of digital switching energy to a ledger component.
    pub(crate) fn charge_digital(
        &self,
        ledger: &mut EnergyLedger,
        name: &'static str,
        cycles: u64,
    ) {
        ledger.add(
            name,
            Joule(self.spec.digital_energy_per_cycle.0 * cycles as f64),
        );
    }

    /// Self-calibration pass — the staged pipeline's
    /// [`run_calibration`](crate::pipeline::run_calibration).
    ///
    /// The controller *assumes* the die sits at `spec.calib_temp`; the
    /// caller provides the *true* conditions in `inputs`, so boot-time
    /// temperature error is faithfully propagated into the stored state.
    /// If the plain decoupling solve fails, the robust tuning is tried
    /// before giving up (recorded in the outcome's health).
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::ChannelFailed`] if any oscillator produces no
    /// plausible measurement, solver errors if the 4×4 decoupling diverges
    /// under both tunings, and measurement/construction errors from the
    /// circuit blocks.
    pub fn calibrate<R: Rng + ?Sized>(
        &mut self,
        inputs: &SensorInputs<'_>,
        rng: &mut R,
    ) -> Result<CalibrationOutcome, SensorError> {
        crate::pipeline::run_calibration(self, inputs, rng)
    }

    /// One conversion — the staged pipeline's
    /// [`run_conversion`](crate::pipeline::run_conversion): temperature
    /// plus tracked threshold shifts, with the hardened controller's full
    /// detection/recovery chain. A lost PSRO bank degrades the output to
    /// temperature-only (threshold shifts frozen at calibration) instead of
    /// failing; a lost TSRO is fatal.
    ///
    /// # Errors
    ///
    /// * [`SensorError::NotCalibrated`] if [`PtSensor::calibrate`] has not
    ///   run;
    /// * [`SensorError::CalibrationCorrupted`] if register parity fails
    ///   (run [`PtSensor::parity_scrub`] to recover);
    /// * [`SensorError::ChannelFailed`] if the TSRO yields no plausible
    ///   measurement after retries;
    /// * [`SensorError::TemperatureOutOfRange`] if the solve leaves the
    ///   characterized range;
    /// * solver errors if every Newton stage fails.
    pub fn read<R: Rng + ?Sized>(
        &self,
        inputs: &SensorInputs<'_>,
        rng: &mut R,
    ) -> Result<Reading, SensorError> {
        crate::pipeline::run_conversion(self, inputs, rng)
    }

    /// Converts a batch of conditions with the calibrated sensor through
    /// the struct-of-arrays lane kernel: conversions are gated in input
    /// order, then solved jointly in [`LANES`](crate::pipeline::LANES)-wide
    /// chunks whose Newton iterations run lane-parallel. On success this is
    /// bit-identical to a hand-written [`PtSensor::read`] loop — same
    /// readings, same RNG draws in the same order (the lane solves are
    /// RNG-free and bit-identical to the scalar solver) — but substantially
    /// faster for batches past a chunk, and allocation-free per conversion
    /// once the shared workspace is warm. For whole-population batches use
    /// [`BatchPlan`](crate::pipeline::BatchPlan), which also amortizes
    /// construction and sampling.
    ///
    /// # Errors
    ///
    /// Fails with the first failing conversion's error (see
    /// [`PtSensor::read`]).
    pub fn read_batch<R: Rng + ?Sized>(
        &self,
        inputs: &[SensorInputs<'_>],
        rng: &mut R,
    ) -> Result<Vec<Reading>, SensorError> {
        crate::pipeline::lanes::read_batch_lanes(self, inputs, rng)
    }
}

/// The shared start-table cell. A memo of a pure function of the design
/// (technology, bank, spec), which the sensor's other fields already
/// compare, so two cells are always equal, built or not.
#[derive(Debug, Clone, Default)]
struct SharedTable(Arc<OnceLock<StartTable>>);

impl PartialEq for SharedTable {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverted_temp_range_rejected_at_construction() {
        let mut spec = SensorSpec::default_65nm();
        spec.temp_range = (Celsius(50.0), Celsius(0.0));
        assert!(matches!(
            PtSensor::new(Technology::n65(), spec),
            Err(SensorError::InvalidConfig {
                name: "temp_range",
                ..
            })
        ));
        let mut spec = SensorSpec::default_65nm();
        spec.temp_range = (Celsius(25.0), Celsius(25.0));
        assert!(matches!(
            PtSensor::new(Technology::n65(), spec),
            Err(SensorError::InvalidConfig {
                name: "temp_range",
                ..
            })
        ));
    }

    #[test]
    fn nonsense_hardening_rejected_at_construction() {
        let mut spec = SensorSpec::default_65nm();
        spec.hardening.replicas = 0;
        assert!(matches!(
            PtSensor::new(Technology::n65(), spec),
            Err(SensorError::InvalidConfig {
                name: "hardening.replicas",
                ..
            })
        ));
        let mut spec = SensorSpec::default_65nm();
        spec.hardening.retry_window_scale = 0;
        assert!(PtSensor::new(Technology::n65(), spec).is_err());
        let mut spec = SensorSpec::default_65nm();
        spec.hardening.band_margin_low = 0.0;
        assert!(PtSensor::new(Technology::n65(), spec).is_err());
        let mut spec = SensorSpec::default_65nm();
        spec.hardening.band_margin_high = 0.5;
        assert!(PtSensor::new(Technology::n65(), spec).is_err());
    }
}
