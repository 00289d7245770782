//! **F3 — Temperature error before vs. after self-calibration.**
//!
//! The paper's headline accuracy figure: across a Monte-Carlo die
//! population and the −20…100 °C range, the uncalibrated RO thermometer
//! aliases process spread into tens of degrees of error; a single-point
//! correction leaves a V-shaped slope error; the full self-calibrated
//! sensor stays inside ±1.5 °C.

use crate::experiments::population_size;
use crate::table::{f, Table};
use ptsim_baselines::ro_thermometer::{RoCalibration, RoThermometer};
use ptsim_baselines::traits::Conversion;
use ptsim_core::pipeline::BatchPlan;
use ptsim_core::sensor::{SensorInputs, SensorSpec};
use ptsim_device::process::Technology;
use ptsim_device::units::Celsius;
use ptsim_mc::die::DieSite;
use ptsim_mc::driver::{run_parallel_with, McConfig};
use ptsim_mc::model::VariationModel;
use ptsim_mc::stats::OnlineStats;

const TEMPS: [f64; 13] = [
    -20.0, -10.0, 0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0,
];

/// Runs the population sweep and renders the report.
///
/// All three sensors run the shared batched schedule (`convert_batch` for
/// the baselines, [`BatchPlan`] for the full sensor), so each sensor draws
/// its RNG stream contiguously instead of interleaved per temperature — a
/// deliberate, documented deviation from the pre-batching report (see
/// `EXPERIMENTS.md`); the statistics are unchanged in distribution.
///
/// # Panics
///
/// Panics if any die fails to calibrate/convert (indicates a model bug).
#[must_use]
pub fn run() -> String {
    run_with(population_size(300))
}

/// [`run`] over `n` Monte-Carlo dies.
#[must_use]
pub fn run_with(n: usize) -> String {
    let tech = Technology::n65();
    let model = VariationModel::new(&tech);
    let plan = BatchPlan::new(tech.clone(), SensorSpec::default_65nm())
        .expect("sensor")
        .read_at(&TEMPS);

    // errs[variant][temp_index] per die.
    let per_die = run_parallel_with(
        &McConfig::new(n, 0xf3),
        || plan.sensor(),
        |full, i, rng| {
            let die = model.sample_die_with_id(rng, i);
            let boot = SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0));

            let uncal = RoThermometer::new(tech.clone(), RoCalibration::None).expect("baseline");
            let mut onept =
                RoThermometer::new(tech.clone(), RoCalibration::OnePoint).expect("baseline");
            onept.prepare(&boot, rng).expect("1-pt prepare");

            let probes: Vec<SensorInputs<'_>> = TEMPS
                .iter()
                .map(|&t| SensorInputs::new(&die, DieSite::CENTER, Celsius(t)))
                .collect();

            let mut rows = [[0.0f64; TEMPS.len()]; 3];
            for (row, readings) in [
                uncal.convert_batch(&probes, rng).expect("uncal"),
                onept.convert_batch(&probes, rng).expect("1pt"),
                plan.convert_with(full, &die, rng)
                    .expect("self-calibration")
                    .readings,
            ]
            .iter()
            .enumerate()
            {
                for (ti, r) in readings.iter().enumerate() {
                    rows[row][ti] = r.temperature.0 - TEMPS[ti];
                }
            }
            rows
        },
    )
    .0;

    let mut stats = vec![vec![OnlineStats::new(); TEMPS.len()]; 3];
    for rows in &per_die {
        for v in 0..3 {
            for ti in 0..TEMPS.len() {
                stats[v][ti].push(rows[v][ti]);
            }
        }
    }

    let mut table = Table::new(vec![
        "T [°C]",
        "uncal max|e|",
        "uncal σ",
        "1-pt max|e|",
        "1-pt σ",
        "this-work max|e|",
        "this-work σ",
    ]);
    for (ti, &t) in TEMPS.iter().enumerate() {
        table.push(vec![
            format!("{t}"),
            f(stats[0][ti].max_abs(), 2),
            f(stats[0][ti].std_dev(), 2),
            f(stats[1][ti].max_abs(), 2),
            f(stats[1][ti].std_dev(), 2),
            f(stats[2][ti].max_abs(), 3),
            f(stats[2][ti].std_dev(), 3),
        ]);
    }

    let overall = |v: usize| {
        stats[v]
            .iter()
            .map(OnlineStats::max_abs)
            .fold(0.0, f64::max)
    };
    format!(
        "F3: temperature error before/after self-calibration ({n} MC dies, errors in °C)\n\n{}\n\
         worst-case across range: uncalibrated ±{:.2} °C, 1-point ±{:.2} °C, \
         this work ±{:.3} °C (paper: ±1.5 °C)\n",
        table.render(),
        overall(0),
        overall(1),
        overall(2),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_orders_the_three_sensors() {
        let r = super::run_with(12);
        assert!(r.contains("F3"));
        assert!(r.contains("worst-case"));
    }
}
