//! **T2 — Comparison with baselines.**
//!
//! The comparison table every sensor paper closes with: worst-case
//! temperature error across process and temperature, conversion energy,
//! whether external test equipment is needed, process readout capability,
//! and a transistor-count area proxy.

use crate::experiments::population_size;
use crate::table::{f, Table};
use ptsim_baselines::bjt::BjtSensor;
use ptsim_baselines::pvt2013::Pvt2013Sensor;
use ptsim_baselines::ro_thermometer::{RoCalibration, RoThermometer};
use ptsim_baselines::traits::Thermometer;
use ptsim_core::sensor::{PtSensor, SensorInputs, SensorSpec};
use ptsim_device::process::Technology;
use ptsim_device::units::{Celsius, Volt};
use ptsim_mc::driver::{run_parallel, McConfig};
use ptsim_mc::model::VariationModel;
use ptsim_mc::stats::OnlineStats;
use ptsim_mc::DieSite;

const TEMPS: [f64; 5] = [-20.0, 10.0, 40.0, 70.0, 100.0];

struct Row {
    name: &'static str,
    err: OnlineStats,
    energy: OnlineStats,
    external: bool,
    devices: usize,
    process_readout: bool,
}

fn grade<F>(build: F, n_dies: usize, seed: u64, external: bool, process_readout: bool) -> Row
where
    F: Fn() -> Box<dyn Thermometer> + Sync,
{
    let tech = Technology::n65();
    let model = VariationModel::new(&tech);
    // Name/area metadata is per-design, not per-die; probe one instance.
    let proto = build();
    let name = proto.name();
    let devices = proto.device_count();

    // Per die: prepare, then the whole schedule through the shared batched
    // conversion path (sequentially per die, so the RNG stream matches the
    // per-reading loop this replaces bit for bit).
    let per_die = run_parallel(&McConfig::new(n_dies, seed), |i, rng| {
        let die = model.sample_die_with_id(rng, i);
        let mut th = build();
        let boot = SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0));
        th.prepare(&boot, rng).expect("prepare");
        let probes: Vec<SensorInputs<'_>> = TEMPS
            .iter()
            .map(|&t| SensorInputs::new(&die, DieSite::CENTER, Celsius(t)))
            .collect();
        th.convert_batch(&probes, rng)
            .expect("read")
            .iter()
            .zip(&TEMPS)
            .map(|(r, &t)| (r.temperature.0 - t, r.energy_total().picojoules()))
            .collect::<Vec<_>>()
    });

    let mut err = OnlineStats::new();
    let mut energy = OnlineStats::new();
    for die in &per_die {
        for &(e, pj) in die {
            err.push(e);
            energy.push(pj);
        }
    }
    Row {
        name,
        err,
        energy,
        external,
        devices,
        process_readout,
    }
}

/// Runs the comparison and renders the table.
///
/// # Panics
///
/// Panics if any sensor fails to prepare/convert (a bug).
#[must_use]
pub fn run() -> String {
    run_with(population_size(60))
}

/// [`run`] over `n` Monte-Carlo dies.
#[must_use]
pub fn run_with(n: usize) -> String {
    let tech = Technology::n65();

    let mut rows = Vec::new();
    rows.push(grade(
        || {
            Box::new(RoThermometer::new(tech.clone(), RoCalibration::None).expect("baseline"))
                as Box<dyn Thermometer>
        },
        n,
        1,
        false,
        false,
    ));
    rows.push(grade(
        || {
            Box::new(RoThermometer::new(tech.clone(), RoCalibration::OnePoint).expect("baseline"))
                as Box<dyn Thermometer>
        },
        n,
        2,
        false,
        false,
    ));
    rows.push(grade(
        || Box::new(BjtSensor::typical()) as Box<dyn Thermometer>,
        n,
        3,
        true,
        false,
    ));
    rows.push(grade(
        || {
            Box::new(Pvt2013Sensor::new(tech.clone(), Volt(0.5)).expect("pvt2013"))
                as Box<dyn Thermometer>
        },
        n,
        4,
        false,
        true,
    ));
    rows.push(grade(
        || {
            Box::new(PtSensor::new(tech.clone(), SensorSpec::default_65nm()).expect("this work"))
                as Box<dyn Thermometer>
        },
        n,
        5,
        false,
        true,
    ));

    let mut table = Table::new(vec![
        "sensor",
        "worst |err| [°C]",
        "σ err [°C]",
        "mean E/conv [pJ]",
        "ext. test?",
        "P readout?",
        "~devices",
    ]);
    for r in &rows {
        table.push(vec![
            r.name.to_owned(),
            f(r.err.max_abs(), 2),
            f(r.err.std_dev(), 2),
            f(r.energy.mean(), 1),
            if r.external { "yes" } else { "no" }.to_owned(),
            if r.process_readout { "yes" } else { "no" }.to_owned(),
            r.devices.to_string(),
        ]);
    }

    format!(
        "T2: comparison across {n} MC dies × {:?} °C\n\
         (BJT device count under-represents its analog area)\n\n{}\n\
         expectation: this work is the only row with no external test, \
         process readout, sub-nJ energy, and ≤1.5 °C worst error\n",
        TEMPS,
        table.render(),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_contains_all_sensors() {
        let r = super::run_with(6);
        for name in ["uncalibrated RO", "1-point RO", "BJT", "2013", "this work"] {
            assert!(r.contains(name), "missing {name} in report");
        }
    }
}
