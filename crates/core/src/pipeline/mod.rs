//! The staged conversion pipeline.
//!
//! Every sensor conversion flows through four explicit stages with typed
//! boundaries, each small enough to unit-test in isolation:
//!
//! ```text
//!             ┌──────────┐   ┌────────┐   ┌────────┐   ┌──────────────────┐
//!  inputs ──▶ │ acquire  │──▶│  gate  │──▶│ solve  │──▶│      output      │
//!             └──────────┘   └────────┘   └────────┘   └──────────────────┘
//!               Acquired       Gated        Solved      Reading + Health
//! ```
//!
//! * [`acquire`] — raw replica measurements through the prescaler/counter,
//!   with faults applied at their physical points ([`Acquired`]).
//! * [`gate`] — plausibility bands, majority vote, and the widened-window
//!   retry policy ([`Gated`]).
//! * [`solve`] — the Newton decoupling solves and their escalation ladder
//!   ([`Solved`]).
//! * [`output`] — range/drift bounding, energy accounting, Q-format
//!   quantization ([`Reading`], [`CalibrationOutcome`]).
//!
//! The conversion sequence is written once, as stages every entry point
//! composes: `begin` (calibration present, parity clean, gate), a solve
//! (`solve_one`, the scalar escalation ladder, or the laned
//! `lanes::solve_lanes`), and `finish` (output, conversion metrics, error
//! tally); a calibration ends in `finish_calibration`. [`run_conversion`]
//! and [`run_calibration`] are the scalar compositions [`PtSensor::read`]
//! and [`PtSensor::calibrate`] delegate to; they are bit-identical to the
//! pre-pipeline monolithic implementations (same RNG draws and float ops
//! in the same order). [`batch`] adds the multi-die
//! [`BatchPlan`] API, and the [`Conversion`] trait is the object-safe
//! surface the full sensor and every baseline thermometer share.

pub mod acquire;
pub mod bands;
pub mod batch;
pub mod gate;
pub mod lanes;
pub mod output;
pub mod solve;

pub use acquire::{Acquired, ReplicaMeasurement};
pub use bands::{band_for, design_bands, Band};
pub use batch::{BatchPlan, DieConversion};
pub use gate::Gated;
pub use lanes::{read_group, solve_gated_lanes, LaneBatch, LANES};
pub use output::{CalibrationOutcome, Reading};
pub use solve::Solved;

use crate::bank::RoClass;
use crate::calib::Calibration;
use crate::error::SensorError;
use crate::health::Health;
use crate::metrics::{PipelineMetrics, Stage, StageTimer};
use crate::newton::NewtonScratch;
use crate::sensor::{PtSensor, SensorInputs};
use ptsim_circuit::energy::EnergyLedger;
use ptsim_device::units::{Hertz, Volt};
use ptsim_rng::{Rng, RngCore};

/// Reusable per-worker workspace of the conversion pipeline: the acquisition
/// sample buffer, the majority-vote buffers, and the Newton solver arrays.
///
/// Construction is free (no heap allocation happens until the first
/// conversion warms the buffers up, and the Newton arrays are inline), so
/// the convenience entry points create one per call; the batch paths
/// ([`PtSensor::read_batch`](crate::PtSensor::read_batch),
/// [`BatchPlan::run_population`]) create one per worker and reuse it, making
/// every conversion after the first perform **zero heap allocations** on the
/// healthy analytic path.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    pub(crate) samples: Vec<Option<Hertz>>,
    pub(crate) vote: gate::VoteScratch,
    pub(crate) newton: NewtonScratch,
    pub(crate) metrics: Option<PipelineMetrics>,
}

impl Scratch {
    /// Empty workspace (allocates nothing).
    #[must_use]
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Workspace with an attached [`PipelineMetrics`]: every conversion run
    /// through it records counters, histograms, and span timings. The
    /// readings themselves stay bit-identical — observability reads, never
    /// perturbs.
    #[must_use]
    pub fn with_metrics() -> Self {
        Scratch {
            metrics: Some(PipelineMetrics::new()),
            ..Scratch::default()
        }
    }

    /// The attached metrics, if any.
    #[must_use]
    pub fn metrics(&self) -> Option<&PipelineMetrics> {
        self.metrics.as_ref()
    }

    /// Detaches and returns the metrics (e.g. to merge per-worker instances
    /// after a batch run). The scratch keeps its warm buffers.
    pub fn take_metrics(&mut self) -> Option<PipelineMetrics> {
        self.metrics.take()
    }
}

/// One full conversion through the staged pipeline: gate every channel,
/// solve the decoupling, bound and quantize the output.
///
/// This is the body of [`PtSensor::read`]; see it for the error contract.
///
/// # Errors
///
/// See [`PtSensor::read`].
pub fn run_conversion<R: Rng + ?Sized>(
    sensor: &PtSensor,
    inputs: &SensorInputs<'_>,
    rng: &mut R,
) -> Result<Reading, SensorError> {
    run_conversion_with(sensor, inputs, rng, &mut Scratch::new())
}

/// [`run_conversion`] with a caller-owned (reusable) [`Scratch`]: after the
/// first conversion warms the workspace up, the healthy analytic path
/// performs zero heap allocations per conversion. Bit-identical to
/// [`run_conversion`] — same RNG draws and float operations in the same
/// order.
///
/// # Errors
///
/// See [`PtSensor::read`].
pub fn run_conversion_with<R: Rng + ?Sized>(
    sensor: &PtSensor,
    inputs: &SensorInputs<'_>,
    rng: &mut R,
    scratch: &mut Scratch,
) -> Result<Reading, SensorError> {
    let solved =
        begin(sensor, sensor.calibration, inputs, rng, scratch).and_then(|b| solve_one(b, scratch));
    finish(solved, &mut scratch.metrics)
}

/// What one pass (a conversion or a calibration) accumulates from its
/// first stage to its last: the energy ledger, the health record, and the
/// timer of the pass's whole span.
pub(crate) struct Pass {
    ledger: EnergyLedger,
    health: Health,
    total: StageTimer,
}

impl Pass {
    /// An empty ledger and a nominal record; the span timer reads the clock
    /// only when `scratch` carries metrics.
    fn start(scratch: &Scratch) -> Self {
        Pass {
            ledger: EnergyLedger::new(),
            health: Health::nominal(),
            total: StageTimer::start(scratch.metrics.is_some()),
        }
    }
}

/// A conversion past [`begin`]: what its solve and [`finish`] read.
pub(crate) struct Begun<'s> {
    sensor: &'s PtSensor,
    cal: Calibration,
    gated: Gated,
    pass: Pass,
}

/// The first conversion stage: the calibration `cal` (the sensor's own, or
/// a population die's) must be present with clean parity, then the three
/// channels are gated. Fails before any RNG draw when the calibration is
/// missing or corrupted.
pub(crate) fn begin<'s, R: Rng + ?Sized>(
    sensor: &'s PtSensor,
    cal: Option<Calibration>,
    inputs: &SensorInputs<'_>,
    rng: &mut R,
    scratch: &mut Scratch,
) -> Result<Begun<'s>, SensorError> {
    let mut pass = Pass::start(scratch);
    let cal = cal.ok_or(SensorError::NotCalibrated)?;
    let registers = cal.parity_errors();
    if registers != 0 {
        return Err(SensorError::CalibrationCorrupted { registers });
    }
    let gate_timer = StageTimer::start(scratch.metrics.is_some());
    let gated = gate::gate_conversion_with(
        sensor,
        inputs,
        rng,
        &mut pass.ledger,
        &mut pass.health,
        scratch,
    )?;
    gate_timer.stop(&mut scratch.metrics, Stage::Gate);
    Ok(Begun {
        sensor,
        cal,
        gated,
        pass,
    })
}

/// The scalar solve stage: the full escalation ladder on one begun
/// conversion.
pub(crate) fn solve_one<'s>(
    mut begun: Begun<'s>,
    scratch: &mut Scratch,
) -> Result<(Begun<'s>, Solved), SensorError> {
    let Scratch {
        newton, metrics, ..
    } = scratch;
    let timer = StageTimer::start(metrics.is_some());
    let solved = solve::solve_gated_with(
        begun.sensor,
        &begun.cal,
        &begun.gated,
        &mut begun.pass.health,
        newton,
        metrics,
    )?;
    timer.stop(metrics, Stage::Solve);
    Ok((begun, solved))
}

/// The last conversion stage: bounds and quantizes a solved conversion and
/// tallies its metrics, or tallies the error of whichever stage failed.
pub(crate) fn finish(
    solved: Result<(Begun<'_>, Solved), SensorError>,
    metrics: &mut Option<PipelineMetrics>,
) -> Result<Reading, SensorError> {
    solved
        .and_then(|(b, solved)| {
            let timer = StageTimer::start(metrics.is_some());
            let reading = output::finalize(
                b.sensor,
                &b.cal,
                &b.gated,
                &solved,
                b.pass.ledger,
                b.pass.health,
            )?;
            timer.stop(metrics, Stage::Output);
            if let Some(m) = metrics.as_mut() {
                m.on_conversion();
                m.on_energy_pj(reading.energy_total().0 * 1e12);
                m.on_health(reading.health.status());
            }
            b.pass.total.stop(metrics, Stage::Conversion);
            Ok(reading)
        })
        .inspect_err(|_| tally_error(metrics))
}

/// Counts one failed conversion or calibration.
fn tally_error(metrics: &mut Option<PipelineMetrics>) {
    if let Some(m) = metrics.as_mut() {
        m.on_error();
    }
}

/// One full self-calibration pass through the staged pipeline: gate the
/// four-measurement boot plan, run the 4×4 decoupling (with escalation),
/// then absorb the TSRO's local mismatch into a stored log-scale.
///
/// This is the body of [`PtSensor::calibrate`]; see it for the error
/// contract.
///
/// # Errors
///
/// See [`PtSensor::calibrate`].
pub fn run_calibration<R: Rng + ?Sized>(
    sensor: &mut PtSensor,
    inputs: &SensorInputs<'_>,
    rng: &mut R,
) -> Result<CalibrationOutcome, SensorError> {
    run_calibration_with(sensor, inputs, rng, &mut Scratch::new())
}

/// [`run_calibration`] with a caller-owned (reusable) [`Scratch`].
/// Bit-identical to [`run_calibration`].
///
/// # Errors
///
/// See [`PtSensor::calibrate`].
pub fn run_calibration_with<R: Rng + ?Sized>(
    sensor: &mut PtSensor,
    inputs: &SensorInputs<'_>,
    rng: &mut R,
    scratch: &mut Scratch,
) -> Result<CalibrationOutcome, SensorError> {
    let mut pass = Pass::start(scratch);
    // Four PSRO measurements (each polarity at both supplies), then the 4×4
    // decoupling at the assumed calibration temperature.
    let plan = gate::calibration_plan(&sensor.spec);
    let solved = gate::gate_plan_with(
        sensor,
        &plan,
        inputs,
        rng,
        &mut pass.ledger,
        &mut pass.health,
        scratch,
    )
    .and_then(|measured| {
        let Scratch {
            newton, metrics, ..
        } = &mut *scratch;
        solve::solve_calibration_escalating(
            sensor,
            &plan,
            &measured,
            &mut pass.health,
            newton,
            metrics,
        )
    })
    .map(|(x, iters)| (pass, x, iters));
    let outcome = finish_calibration(sensor, inputs, rng, solved, scratch)?;
    sensor.calibration = Some(outcome.calibration);
    Ok(outcome)
}

/// The last calibration stage, after the 4×4 decoupling solved `x` in
/// `iters` iterations: gates the TSRO reference and absorbs its local
/// mismatch into a log-scale, stores the calibration registers and tallies
/// the calibration metrics, or tallies the error of whichever stage
/// failed. The caller decides where the calibration lives.
pub(crate) fn finish_calibration<R: Rng + ?Sized>(
    sensor: &PtSensor,
    inputs: &SensorInputs<'_>,
    rng: &mut R,
    solved: Result<(Pass, [f64; 4], usize), SensorError>,
    scratch: &mut Scratch,
) -> Result<CalibrationOutcome, SensorError> {
    let spec = sensor.spec;
    solved
        .and_then(|(mut pass, x, iters)| {
            sensor.charge_digital(
                &mut pass.ledger,
                "solver",
                iters as u64 * spec.solver_cycles_per_iteration,
            );
            let f_t = gate::gate_channel_with(
                sensor,
                RoClass::Tsro,
                spec.bank.vdd_tsro,
                inputs,
                rng,
                &mut pass.ledger,
                &mut pass.health,
                scratch,
            )?
            .ok_or(SensorError::ChannelFailed {
                channel: RoClass::Tsro.name(),
            })?;
            let model_env = solve::model_env(x[0], x[1], x[2], x[3], spec.calib_temp);
            let ln_f_t_model = sensor.model_ln_f(RoClass::Tsro, spec.bank.vdd_tsro, &model_env);
            let ln_scale = f_t.0.ln() - ln_f_t_model;
            sensor.charge_digital(&mut pass.ledger, "controller", spec.controller_cycles * 2);
            let calibration = sensor.anchor(Calibration::store(
                Volt(x[0]),
                Volt(x[1]),
                x[2],
                x[3],
                ln_scale,
                spec.calib_temp,
                spec.qformat,
            ));
            if let Some(m) = scratch.metrics.as_mut() {
                m.on_calibration();
                m.on_solver_iterations(iters);
                m.on_health(pass.health.status());
            }
            pass.total.stop(&mut scratch.metrics, Stage::Calibration);
            Ok(CalibrationOutcome {
                calibration,
                energy: pass.ledger,
                solver_iterations: iters,
                health: pass.health,
            })
        })
        .inspect_err(|_| tally_error(&mut scratch.metrics))
}

/// The shared conversion surface: everything that can be prepared once and
/// then turn die conditions into a [`Reading`] — the full PT sensor and
/// every baseline thermometer alike.
///
/// Object-safe on purpose (`&mut dyn RngCore`), so heterogeneous sensor
/// collections can be driven through one loop, and with a provided
/// [`Conversion::convert_batch`] so callers amortize per-conversion setup
/// without caring which sensor they hold.
pub trait Conversion {
    /// One-time per-die preparation (self-calibration, trimming, binning)
    /// under the given boot conditions.
    ///
    /// # Errors
    ///
    /// Implementation-specific: calibration solve/measurement failures.
    fn prepare(
        &mut self,
        inputs: &SensorInputs<'_>,
        rng: &mut dyn RngCore,
    ) -> Result<(), SensorError>;

    /// One conversion under the given die conditions.
    ///
    /// # Errors
    ///
    /// Implementation-specific: measurement or solve failures.
    fn convert(
        &self,
        inputs: &SensorInputs<'_>,
        rng: &mut dyn RngCore,
    ) -> Result<Reading, SensorError>;

    /// Converts a batch of conditions in order, sharing the prepared state.
    /// The default is the sequential composition of [`Conversion::convert`]
    /// (bit-identical to a caller's hand-written loop).
    ///
    /// # Errors
    ///
    /// Fails on the first failing conversion.
    fn convert_batch(
        &self,
        inputs: &[SensorInputs<'_>],
        rng: &mut dyn RngCore,
    ) -> Result<Vec<Reading>, SensorError> {
        inputs.iter().map(|i| self.convert(i, rng)).collect()
    }
}

impl Conversion for PtSensor {
    fn prepare(
        &mut self,
        inputs: &SensorInputs<'_>,
        rng: &mut dyn RngCore,
    ) -> Result<(), SensorError> {
        self.calibrate(inputs, rng).map(|_| ())
    }

    fn convert(
        &self,
        inputs: &SensorInputs<'_>,
        rng: &mut dyn RngCore,
    ) -> Result<Reading, SensorError> {
        self.read(inputs, rng)
    }

    /// Overridden to reuse one [`Scratch`] across the batch (bit-identical
    /// to the default sequential composition — same RNG draws and float
    /// operations — but allocation-free per die after warm-up).
    fn convert_batch(
        &self,
        inputs: &[SensorInputs<'_>],
        rng: &mut dyn RngCore,
    ) -> Result<Vec<Reading>, SensorError> {
        self.read_batch(inputs, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthEvent;
    use crate::sensor::SensorSpec;
    use ptsim_device::process::Technology;
    use ptsim_device::units::Celsius;
    use ptsim_faults::{Fault, FaultPlan};
    use ptsim_mc::die::{DieSample, DieSite};
    use ptsim_rng::Pcg64;

    #[test]
    fn parity_scrub_stage_recovers_a_corrupted_register() {
        // Parity-scrub recovery, isolated from the R1 campaign: corrupt a
        // calibration register, watch the conversion refuse to run, scrub,
        // and verify the pipeline is whole again.
        let die = DieSample::nominal();
        let mut s = PtSensor::new(Technology::n65(), SensorSpec::default_65nm()).unwrap();
        let boot = SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0));
        let mut rng = Pcg64::seed_from_u64(31);
        s.calibrate(&boot, &mut rng).unwrap();
        s.inject_faults(FaultPlan::single(Fault::CalibRegisterSeu {
            register: 2,
            bit: 9,
        }));
        let read = SensorInputs::new(&die, DieSite::CENTER, Celsius(60.0));
        let err = run_conversion(&s, &read, &mut rng).unwrap_err();
        assert!(matches!(err, SensorError::CalibrationCorrupted { .. }));
        let outcome = s
            .parity_scrub(&boot, &mut rng)
            .unwrap()
            .expect("scrub must trigger on bad parity");
        assert!(outcome
            .health
            .any(|e| matches!(e, HealthEvent::ParityScrubbed { .. })));
        let r = run_conversion(&s, &read, &mut rng).unwrap();
        assert!((r.temperature.0 - 60.0).abs() < 1.5);
    }

    #[test]
    fn pipeline_composition_equals_monolithic_read() {
        // run_conversion IS PtSensor::read — two sensors, same seed, same
        // bits.
        let die = DieSample::nominal();
        let mut s = PtSensor::new(Technology::n65(), SensorSpec::default_65nm()).unwrap();
        let boot = SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0));
        let mut rng_a = Pcg64::seed_from_u64(77);
        let mut rng_b = Pcg64::seed_from_u64(77);
        s.calibrate(&boot, &mut rng_a).unwrap();
        // Advance rng_b identically by replaying the calibration draws.
        {
            let mut clone = PtSensor::new(Technology::n65(), SensorSpec::default_65nm()).unwrap();
            clone.calibrate(&boot, &mut rng_b).unwrap();
        }
        let probe = SensorInputs::new(&die, DieSite::CENTER, Celsius(85.0));
        let a = s.read(&probe, &mut rng_a).unwrap();
        let b = run_conversion(&s, &probe, &mut rng_b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn conversion_trait_drives_the_full_sensor() {
        let die = DieSample::nominal();
        let mut s = PtSensor::new(Technology::n65(), SensorSpec::default_65nm()).unwrap();
        let boot = SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0));
        let mut rng = Pcg64::seed_from_u64(78);
        let dynrng: &mut dyn RngCore = &mut rng;
        let sensor: &mut dyn Conversion = &mut s;
        sensor.prepare(&boot, dynrng).unwrap();
        let temps = [Celsius(0.0), Celsius(50.0), Celsius(100.0)];
        let inputs: Vec<SensorInputs<'_>> = temps
            .iter()
            .map(|&t| SensorInputs::new(&die, DieSite::CENTER, t))
            .collect();
        let readings = sensor.convert_batch(&inputs, dynrng).unwrap();
        assert_eq!(readings.len(), 3);
        for (r, t) in readings.iter().zip(&temps) {
            assert!((r.temperature.0 - t.0).abs() < 1.5);
        }
    }
}
