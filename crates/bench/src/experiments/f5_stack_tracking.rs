//! **F5 — 3D-stack case study: per-tier temperature tracking.**
//!
//! The application the title promises: one sensor per tier of a 4-tier
//! TSV stack, tracking a transient workload heat-up and the steady-state
//! inter-tier gradient against thermal-simulator ground truth.

use crate::table::{f, fs, Table};
use ptsim_core::monitor::StackMonitor;
use ptsim_core::sensor::SensorSpec;
use ptsim_device::process::Technology;
use ptsim_device::units::{Seconds, Watt};
use ptsim_mc::die::{DieSample, DieSite};
use ptsim_mc::model::VariationModel;
use ptsim_thermal::power::PowerMap;
use ptsim_thermal::solve::{solve_steady_state, step_transient, SolveOptions};
use ptsim_tsv::topology::StackTopology;

/// Runs the stack case study and renders the report.
///
/// # Panics
///
/// Panics if the reference stack fails to build or solve (a bug).
#[must_use]
pub fn run() -> String {
    let tech = Technology::n65();
    let model = VariationModel::new(&tech);
    let mut rng = ptsim_rng::Pcg64::seed_from_u64(0xf5);
    let dies: Vec<DieSample> = (0..4)
        .map(|i| model.sample_die_with_id(&mut rng, i))
        .collect();
    let mut monitor = StackMonitor::new(
        StackTopology::reference_four_tier(),
        dies,
        DieSite::new(0.35, 0.35),
        &tech,
        SensorSpec::default_65nm(),
    )
    .expect("monitor");
    monitor.calibrate_all(&mut rng).expect("boot calibration");

    let mut thermal = monitor.build_thermal().expect("thermal");
    let mut p0 = PowerMap::zero(16, 16).expect("map");
    p0.add_hotspot(0.35, 0.35, 0.12, Watt(2.0)).expect("power");
    thermal.set_power(0, p0).expect("power");
    thermal
        .set_power(2, PowerMap::uniform(16, 16, Watt(0.5)).expect("map"))
        .expect("power");

    let mut table = Table::new(vec![
        "t [ms]", "T0 true", "T0 read", "T1 true", "T1 read", "T2 true", "T2 read", "T3 true",
        "T3 read",
    ]);
    let mut worst: f64 = 0.0;
    let mut elapsed = 0.0;
    for _ in 0..12 {
        step_transient(&mut thermal, Seconds(0.002));
        elapsed += 2.0;
        let readings = monitor.read_all(&thermal, &mut rng).expect("read");
        let mut row = vec![f(elapsed, 1)];
        for r in &readings {
            row.push(f(r.true_temp.0, 2));
            row.push(f(r.reading.temperature.0, 2));
            worst = worst.max(r.temp_error().abs());
        }
        table.push(row);
    }

    solve_steady_state(&mut thermal, &SolveOptions::default()).expect("steady state");
    let readings = monitor.read_all(&thermal, &mut rng).expect("read");
    let mut steady = Table::new(vec![
        "tier",
        "true [°C]",
        "read [°C]",
        "err [°C]",
        "ΔVtn drift [mV]",
        "E/conv [pJ]",
    ]);
    for r in &readings {
        worst = worst.max(r.temp_error().abs());
        steady.push(vec![
            r.tier.to_string(),
            f(r.true_temp.0, 2),
            f(r.reading.temperature.0, 2),
            fs(r.temp_error(), 3),
            fs(r.vt_drift.0.millivolts(), 3),
            f(r.reading.energy_total().picojoules(), 1),
        ]);
    }

    format!(
        "F5: 4-tier TSV stack tracking (2 W hotspot tier 0 + 0.5 W tier 2)\n\n\
         transient heat-up:\n{}\n\
         steady state:\n{}\n\
         worst per-tier error across the run: ±{:.3} °C (paper: ±1.5 °C)\n\
         gradient visibility: tier0−tier3 true {:.2} °C, read {:.2} °C\n",
        table.render(),
        steady.render(),
        worst,
        readings[0].true_temp.0 - readings[3].true_temp.0,
        readings[0].reading.temperature.0 - readings[3].reading.temperature.0,
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_well_formed() {
        let r = super::run();
        assert!(r.contains("F5"));
        assert!(r.contains("steady state"));
        assert!(r.contains("gradient"));
    }
}
