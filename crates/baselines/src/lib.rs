//! # ptsim-baselines
//!
//! Comparison and extension sensors for the SOCC 2012 PT-sensor
//! reproduction:
//!
//! * [`ro_thermometer::RoThermometer`] — uncalibrated and one-point
//!   calibrated ring-oscillator thermometers (the calibration ladder the
//!   paper climbs);
//! * [`bjt::BjtSensor`] — conventional factory-trimmed BJT/diode analog
//!   sensor (accurate but energy-hungry and tester-dependent);
//! * [`pvt2013::Pvt2013Sensor`] — the group's 2013 near-/sub-Vth PVT sensor
//!   with dynamic voltage selection (the paper's follow-up, implemented as
//!   the extension experiment X1);
//! * the paper's own `PtSensor`, which implements the same
//!   [`traits::Thermometer`] interface, for apples-to-apples comparison.
//!
//! Every sensor implements the shared pipeline [`traits::Conversion`]
//! trait, so all of them report through the identical `Reading`/`Health`
//! boundary types (and inherit the batched `convert_batch` schedule);
//! [`traits::Thermometer`] only adds the comparison-table metadata.
//!
//! ## Example
//!
//! ```
//! use ptsim_baselines::ro_thermometer::{RoCalibration, RoThermometer};
//! use ptsim_baselines::traits::Thermometer;
//! use ptsim_core::sensor::SensorInputs;
//! use ptsim_device::process::Technology;
//! use ptsim_device::units::{Celsius, Volt};
//! use ptsim_mc::die::{DieSample, DieSite};
//!
//! # fn main() -> Result<(), ptsim_core::error::SensorError> {
//! let th = RoThermometer::new(Technology::n65(), RoCalibration::None)?;
//! let mut die = DieSample::nominal();
//! die.d_vtn_d2d = Volt(0.03); // a slow-corner die
//! die.d_vtp_d2d = Volt(0.03);
//! let mut rng = ptsim_rng::Pcg64::seed_from_u64(7);
//! let r = th.read_temperature(
//!     &SensorInputs::new(&die, DieSite::CENTER, Celsius(60.0)),
//!     &mut rng,
//! )?;
//! // Without calibration, process aliases into temperature error:
//! assert!((r.temperature.0 - 60.0).abs() > 3.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod bjt;
pub mod dvs;
pub mod pvt2013;
pub mod ro_thermometer;
pub mod traits;

pub use bjt::BjtSensor;
pub use dvs::DvsDtmSensing;
pub use pvt2013::Pvt2013Sensor;
pub use ro_thermometer::{RoCalibration, RoThermometer};
pub use traits::{Conversion, TempReading, Thermometer};
