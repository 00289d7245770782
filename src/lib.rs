//! # tsv-pt-sensor
//!
//! A full-system reproduction of **"On-chip self-calibrated
//! process-temperature sensor for TSV 3D integration"** (Chiang, Huang,
//! Chuang, Chen, Chiou, Chen, Chiu, Tong, Hwang — IEEE SOCC 2012) as a Rust
//! simulation library.
//!
//! The original is a TSMC 65 nm silicon test chip; this workspace rebuilds
//! every layer of the system behaviorally, from device physics up:
//!
//! | Layer | Crate | What it provides |
//! |---|---|---|
//! | Device physics | [`device`] | units, 65 nm technology, EKV-style MOSFET model, inverter delay/energy |
//! | Process variation | [`mc`] | corners, die-to-die + within-die Monte-Carlo engine, statistics |
//! | Circuit blocks | [`circuit`] | ring oscillators, gated counters, fixed-point datapath, energy ledger |
//! | 3D thermal | [`thermal`] | stacked-die RC-network simulator (steady-state + transient) |
//! | TSV | [`tsv`] | via parasitics, thermal vias, stress/keep-out-zone model, stack topology |
//! | **The sensor** | [`core`] | self-calibration, PSRO/TSRO decoupling, conversion energy, stack monitor |
//! | Baselines | [`baselines`] | uncalibrated/1-point RO thermometers, BJT sensor, 2013 sub-Vth PVT sensor |
//!
//! ## Quickstart
//!
//! ```
//! use tsv_pt_sensor::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A die drawn from the 65 nm process spread.
//! let tech = Technology::n65();
//! let model = VariationModel::new(&tech);
//! let mut rng = ptsim_rng::Pcg64::seed_from_u64(2012);
//! let die = model.sample_die(&mut rng);
//!
//! // Build + self-calibrate the sensor at the 25 °C boot reference.
//! let mut sensor = PtSensor::new(tech, SensorSpec::default_65nm())?;
//! sensor.calibrate(&SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0)), &mut rng)?;
//!
//! // The die heats up; one conversion reads temperature and threshold drift.
//! let reading = sensor.read(&SensorInputs::new(&die, DieSite::CENTER, Celsius(85.0)), &mut rng)?;
//! assert!((reading.temperature.0 - 85.0).abs() < 2.0);
//! println!("T = {:.2}, ΔVtn = {:.2} mV, energy = {:.1} pJ",
//!          reading.temperature, reading.d_vtn.millivolts(),
//!          reading.energy_total().picojoules());
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for the 3D-stack monitoring, process-binning and
//! TSV-keep-out scenarios, and `crates/bench` for the per-figure/per-table
//! reproduction harness documented in `EXPERIMENTS.md`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use ptsim_baselines as baselines;
pub use ptsim_circuit as circuit;
pub use ptsim_core as core;
pub use ptsim_device as device;
pub use ptsim_faults as faults;
pub use ptsim_mc as mc;
pub use ptsim_rng as rng;
pub use ptsim_thermal as thermal;
pub use ptsim_tsv as tsv;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use ptsim_baselines::{
        BjtSensor, DvsDtmSensing, Pvt2013Sensor, RoCalibration, RoThermometer, TempReading,
        Thermometer,
    };
    pub use ptsim_circuit::{EnergyLedger, Fixed, GatedCounter, InverterRing, Prescaler, QFormat};
    pub use ptsim_core::{
        hottest_site, run_dtm_loop, BankSpec, BatchPlan, Calibration, Conversion, DieConversion,
        DtmConfig, DtmController, DtmOutcome, DtmSensing, DvfsTable, HardeningSpec, Health,
        HealthEvent, HealthStatus, NominalSensing, OperatingPoint, PtSensor, Reading, RoBank,
        RoClass, SensingMode, SensorError, SensorInputs, SensorSpec, StackMonitor, TierReading,
        WorkloadTrace,
    };
    pub use ptsim_device::units::{
        Ampere, Celsius, Farad, Hertz, Joule, Kelvin, Micron, Ohm, Pascal, Seconds, Volt, Watt,
        WattPerKelvin,
    };
    pub use ptsim_device::{
        CmosEnv, DeviceEnv, Inverter, MosPolarity, Mosfet, ProcessCorner, Technology,
    };
    pub use ptsim_faults::{catalog, CatalogEntry, Channel, Fault, FaultPlan, ReplicaSel};
    pub use ptsim_mc::{
        die_rng, run_parallel, run_parallel_with, DieSample, DieSite, Histogram, McConfig,
        OnlineStats, VariationModel,
    };
    pub use ptsim_rng::{Pcg64, Rng, RngCore};
    pub use ptsim_thermal::{
        solve_steady_state, step_transient, step_transient_with, PowerMap, SolveOptions,
        StackConfig, ThermalStack, TransientScratch,
    };
    pub use ptsim_tsv::{StackTopology, StressModel, TsvArray, TsvGeometry};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exports_compile() {
        use crate::prelude::*;
        let _ = Technology::n65();
        let _ = Celsius(25.0);
        let _ = SensorSpec::default_65nm();
    }
}
