//! Common interface over the comparison sensors.
//!
//! Every baseline implements the shared pipeline boundary trait
//! [`Conversion`] (re-exported from `ptsim_core`), so a BJT reading and a
//! full PT-sensor reading flow through the identical [`Reading`]/`Health`
//! types. [`Thermometer`] layers the comparison-table metadata (display
//! name, external-test flag, area proxy) on top, and collapses a full
//! [`Reading`] to the [`TempReading`] view the tables print. The paper's
//! own [`PtSensor`] implements it here too, so the comparison harness
//! grades it alongside the baselines.

use ptsim_core::error::SensorError;
use ptsim_core::sensor::{PtSensor, Reading, SensorInputs};
use ptsim_device::units::{Celsius, Joule};

pub use ptsim_core::pipeline::Conversion;

/// One temperature reading plus the energy it cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TempReading {
    /// Reported temperature.
    pub temperature: Celsius,
    /// Conversion energy.
    pub energy: Joule,
}

impl TempReading {
    /// Collapses a full pipeline [`Reading`] to the comparison-table view.
    #[must_use]
    pub fn from_reading(r: &Reading) -> Self {
        TempReading {
            temperature: r.temperature,
            energy: r.energy_total(),
        }
    }
}

/// A temperature sensor participating in the T2 comparison table.
///
/// Preparation (self-calibration or factory trim) and conversion come from
/// the [`Conversion`] supertrait; this trait only adds the table metadata.
/// Object-safe so the comparison harness can hold a heterogeneous list.
pub trait Thermometer: Conversion {
    /// Display name for tables.
    fn name(&self) -> &'static str;

    /// One temperature conversion, collapsed to the comparison-table view.
    /// Provided: delegates to [`Conversion::convert`].
    ///
    /// # Errors
    ///
    /// Implementation-specific conversion failures.
    fn read_temperature(
        &self,
        inputs: &SensorInputs<'_>,
        rng: &mut dyn ptsim_rng::RngCore,
    ) -> Result<TempReading, SensorError> {
        Ok(TempReading::from_reading(&self.convert(inputs, rng)?))
    }

    /// Whether preparation requires external test equipment (thermal
    /// chamber / tester), as opposed to fully on-chip self-calibration.
    fn needs_external_test(&self) -> bool;

    /// Rough area proxy: number of transistors in the sensing front-end.
    fn device_count(&self) -> usize;
}

/// The SOCC 2012 sensor viewed as a plain thermometer; preparation and
/// conversion are [`PtSensor`]'s own [`Conversion`] impl.
impl Thermometer for PtSensor {
    fn name(&self) -> &'static str {
        "this work (self-calibrated PT)"
    }

    fn needs_external_test(&self) -> bool {
        false
    }

    fn device_count(&self) -> usize {
        // Three 51-stage rings + counters + controller datapath.
        3 * 51 * 2 + 260
    }
}

/// Convenience: draw a uniform phase from a dyn RNG.
pub(crate) fn uniform_phase(rng: &mut dyn ptsim_rng::RngCore) -> f64 {
    // Use 53 random bits for a uniform double in [0, 1).
    let bits = rng.next_u64() >> 11;
    bits as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsim_circuit::energy::EnergyLedger;
    use ptsim_device::units::Hertz;
    use ptsim_rng::Pcg64;

    #[test]
    fn uniform_phase_in_unit_interval() {
        let mut rng = Pcg64::seed_from_u64(1);
        for _ in 0..1000 {
            let p = uniform_phase(&mut rng);
            assert!((0.0..1.0).contains(&p));
        }
    }

    #[test]
    fn trait_is_object_safe() {
        fn _takes(_: &dyn Thermometer) {}
        fn _takes_conversion(_: &dyn Conversion) {}
    }

    /// A fixed-output stub proving the provided `read_temperature` collapses
    /// the shared `Reading` without touching its values.
    #[derive(Debug)]
    struct Stub;

    impl Conversion for Stub {
        fn prepare(
            &mut self,
            _inputs: &SensorInputs<'_>,
            _rng: &mut dyn ptsim_rng::RngCore,
        ) -> Result<(), SensorError> {
            Ok(())
        }

        fn convert(
            &self,
            _inputs: &SensorInputs<'_>,
            _rng: &mut dyn ptsim_rng::RngCore,
        ) -> Result<Reading, SensorError> {
            let mut energy = EnergyLedger::new();
            energy.add("stub", Joule(2.0e-12));
            energy.add("more", Joule(1.0e-12));
            Ok(Reading::temperature_only(
                Celsius(33.5),
                energy,
                Hertz(1.0e8),
                0,
            ))
        }
    }

    impl Thermometer for Stub {
        fn name(&self) -> &'static str {
            "stub"
        }

        fn needs_external_test(&self) -> bool {
            false
        }

        fn device_count(&self) -> usize {
            1
        }
    }

    #[test]
    fn default_read_temperature_collapses_the_reading() {
        use ptsim_mc::die::{DieSample, DieSite};
        let die = DieSample::nominal();
        let inputs = SensorInputs::new(&die, DieSite::CENTER, Celsius(33.5));
        let mut rng = Pcg64::seed_from_u64(2);
        let th: &dyn Thermometer = &Stub;
        let r = th.read_temperature(&inputs, &mut rng).unwrap();
        assert_eq!(r.temperature, Celsius(33.5));
        assert_eq!(r.energy, Joule(2.0e-12 + 1.0e-12));
        let full = th.convert(&inputs, &mut rng).unwrap();
        assert!(full.health.is_nominal());
        assert_eq!(full.raw_frequencies.0, Hertz(1.0e8));
    }

    #[test]
    fn pt_sensor_round_trip() {
        use ptsim_core::sensor::SensorSpec;
        use ptsim_device::process::Technology;
        use ptsim_mc::die::{DieSample, DieSite};
        let mut th = PtSensor::new(Technology::n65(), SensorSpec::default_65nm()).unwrap();
        let die = DieSample::nominal();
        let mut rng = Pcg64::seed_from_u64(1);
        let cal = SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0));
        th.prepare(&cal, &mut rng).unwrap();
        let probe = SensorInputs::new(&die, DieSite::CENTER, Celsius(85.0));
        let r = th.read_temperature(&probe, &mut rng).unwrap();
        assert!((r.temperature.0 - 85.0).abs() < 1.5);
        assert!(r.energy.picojoules() > 100.0);
        assert!(!th.needs_external_test());
        assert!(th.calibration().is_some());
    }
}
