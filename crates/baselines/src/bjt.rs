//! Factory-trimmed BJT/diode analog temperature sensor.
//!
//! The conventional alternative the paper compares against: a
//! bandgap-referenced bipolar front-end plus ADC. Very accurate after a
//! factory one-point trim (done on a tester — *external* equipment, the
//! exact cost the self-calibrated sensor eliminates), but power- and
//! energy-hungry, and it measures only temperature — no process
//! information.

use crate::traits::{Conversion, Thermometer};
use ptsim_circuit::energy::EnergyLedger;
use ptsim_core::error::SensorError;
use ptsim_core::sensor::{Reading, SensorInputs};
use ptsim_device::units::{Celsius, Hertz, Joule};
use ptsim_rng::gaussian::normal;
use ptsim_rng::Pcg64;
use ptsim_rng::RngCore;

/// Behavioral BJT sensor model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BjtSensor {
    /// One-sigma untrimmed per-die offset.
    pub untrimmed_offset_sigma: f64,
    /// One-sigma conversion noise.
    pub noise_sigma: f64,
    /// Residual curvature error per (°C from 25 °C)², after trim.
    pub curvature_per_c2: f64,
    /// Energy per conversion (BJT bias + ΣΔ ADC), joules.
    pub energy_per_conversion: Joule,
    offset: f64,
    trimmed: bool,
}

impl BjtSensor {
    /// Typical 65 nm-era BJT sensor figures: ±2 °C untrimmed spread,
    /// 0.1 °C rms noise, parabolic curvature, ~5 nJ per conversion.
    #[must_use]
    pub fn typical() -> Self {
        BjtSensor {
            untrimmed_offset_sigma: 2.0,
            noise_sigma: 0.1,
            curvature_per_c2: 5.0e-5,
            energy_per_conversion: Joule(5.0e-9),
            offset: 0.0,
            trimmed: false,
        }
    }

    /// Draws this die's untrimmed offset (call once per die before use).
    pub fn realize_die(&mut self, rng: &mut dyn RngCore) {
        let mut srng = Pcg64::seed_from_u64(rng.next_u64());
        self.offset = normal(&mut srng, 0.0, self.untrimmed_offset_sigma);
        self.trimmed = false;
    }
}

impl Default for BjtSensor {
    fn default() -> Self {
        BjtSensor::typical()
    }
}

impl Conversion for BjtSensor {
    fn prepare(
        &mut self,
        _inputs: &SensorInputs<'_>,
        _rng: &mut dyn RngCore,
    ) -> Result<(), SensorError> {
        // Factory trim: the tester knows the true temperature and nulls the
        // offset.
        self.trimmed = true;
        Ok(())
    }

    fn convert(
        &self,
        inputs: &SensorInputs<'_>,
        rng: &mut dyn RngCore,
    ) -> Result<Reading, SensorError> {
        let mut srng = Pcg64::seed_from_u64(rng.next_u64());
        let t = inputs.temp.0;
        let offset = if self.trimmed { 0.0 } else { self.offset };
        let curvature = self.curvature_per_c2 * (t - 25.0) * (t - 25.0);
        let noise = normal(&mut srng, 0.0, self.noise_sigma);
        let mut energy = EnergyLedger::new();
        energy.add("BJT+ADC", self.energy_per_conversion);
        Ok(Reading::temperature_only(
            Celsius(t + offset + curvature + noise),
            energy,
            // An analog front-end has no oscillator frequency to report.
            Hertz(0.0),
            0,
        ))
    }
}

impl Thermometer for BjtSensor {
    fn name(&self) -> &'static str {
        "BJT + ADC (trimmed)"
    }

    fn needs_external_test(&self) -> bool {
        true
    }

    fn device_count(&self) -> usize {
        // Small transistor count, but each device is analog-sized; the area
        // proxy undercounts its real footprint (noted in the T2 table).
        60
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsim_mc::die::{DieSample, DieSite};
    use ptsim_rng::Pcg64;

    #[test]
    fn trimmed_sensor_is_accurate() {
        let mut s = BjtSensor::typical();
        let die = DieSample::nominal();
        let mut rng = Pcg64::seed_from_u64(1);
        s.realize_die(&mut rng);
        let inputs = SensorInputs::new(&die, DieSite::CENTER, Celsius(80.0));
        s.prepare(&inputs, &mut rng).unwrap();
        let r = s.read_temperature(&inputs, &mut rng).unwrap();
        assert!((r.temperature.0 - 80.0).abs() < 0.8, "{}", r.temperature);
    }

    #[test]
    fn untrimmed_sensor_carries_die_offset() {
        let mut worst: f64 = 0.0;
        let mut rng = Pcg64::seed_from_u64(2);
        let die = DieSample::nominal();
        for _ in 0..50 {
            let mut s = BjtSensor::typical();
            s.realize_die(&mut rng);
            let inputs = SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0));
            let r = s.read_temperature(&inputs, &mut rng).unwrap();
            worst = worst.max((r.temperature.0 - 25.0).abs());
        }
        assert!(
            worst > 1.5,
            "some untrimmed die must err > 1.5 °C, worst {worst:.2}"
        );
    }

    #[test]
    fn energy_far_above_ro_sensor() {
        let s = BjtSensor::typical();
        assert!(s.energy_per_conversion.picojoules() > 10.0 * 367.5);
        assert!(s.needs_external_test());
    }
}
