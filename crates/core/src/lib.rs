//! # ptsim-core
//!
//! Reproduction of the SOCC 2012 **on-chip self-calibrated
//! process–temperature sensor for TSV 3D integration** (Chiang et al.).
//!
//! A [`sensor::PtSensor`] owns a [`bank::RoBank`] of ring oscillators — two
//! process-sensitive (PSRO-N / PSRO-P, threshold-skewed) and one
//! temperature-sensitive (TSRO, near-threshold). At boot it
//! **self-calibrates**: each PSRO is measured at two supply voltages and a
//! 4×4 Newton decoupling ([`newton`]) extracts the die's
//! `(ΔVtn, ΔVtp, µn, µp)`, stored in Q-format registers
//! ([`calib::Calibration`]). Every subsequent conversion solves temperature
//! from the TSRO and re-tracks the threshold shifts, charging energy to a
//! per-component ledger.
//!
//! ## Example
//!
//! ```
//! use ptsim_core::sensor::{PtSensor, SensorInputs, SensorSpec};
//! use ptsim_device::process::Technology;
//! use ptsim_device::units::Celsius;
//! use ptsim_mc::die::{DieSample, DieSite};
//!
//! # fn main() -> Result<(), ptsim_core::error::SensorError> {
//! let mut sensor = PtSensor::new(Technology::n65(), SensorSpec::default_65nm())?;
//! let die = DieSample::nominal();
//! let mut rng = ptsim_rng::Pcg64::seed_from_u64(42);
//!
//! // Boot-time self-calibration at the assumed 25 °C ambient.
//! sensor.calibrate(&SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0)), &mut rng)?;
//!
//! // Later: the die heats to 73 °C.
//! let reading = sensor.read(&SensorInputs::new(&die, DieSite::CENTER, Celsius(73.0)), &mut rng)?;
//! assert!((reading.temperature.0 - 73.0).abs() < 1.5);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod bank;
pub mod calib;
pub mod dtm;
pub mod error;
pub mod fieldest;
pub mod golden;
pub mod health;
pub mod metrics;
pub mod monitor;
pub mod newton;
pub mod pipeline;
pub mod sensor;

pub use bank::{BankCache, BankSpec, RoBank, RoClass};
pub use calib::Calibration;
pub use dtm::{
    hottest_site, run_dtm_loop, DtmConfig, DtmController, DtmOutcome, DtmSensing, DtmStepRecord,
    DvfsTable, NominalSensing, OperatingPoint, SensingMode, WorkloadTrace,
};
pub use error::SensorError;
pub use fieldest::{place_sensors_greedy, refine_placement_swaps, FieldEstimator};
pub use golden::{CharacterizationSpace, GoldenModel};
pub use health::{Health, HealthEvent, HealthStatus};
pub use metrics::{PipelineMetrics, Stage};
pub use monitor::{SensorNode, StackMonitor, TierReading};
pub use pipeline::{BatchPlan, Conversion, DieConversion, Scratch};
pub use sensor::{CalibrationOutcome, HardeningSpec, PtSensor, Reading, SensorInputs, SensorSpec};
