//! **F4 — Vtn/Vtp extraction-error histograms.**
//!
//! The abstract's ±1.6 mV / ±0.8 mV sensitivity claim, reproduced as
//! Monte-Carlo histograms of `(extracted − true)` threshold shift at the
//! oscillator's own site, both at the calibration point (25 °C) and while
//! tracking at 75 °C.

use crate::experiments::population_size;
use crate::table::f;
use ptsim_core::bank::RoClass;
use ptsim_core::pipeline::BatchPlan;
use ptsim_core::sensor::SensorSpec;
use ptsim_device::process::Technology;
use ptsim_mc::die::DieSite;
use ptsim_mc::driver::{run_parallel_with, McConfig};
use ptsim_mc::model::VariationModel;
use ptsim_mc::stats::{Histogram, OnlineStats};

/// Runs the population extraction experiment and renders the report.
///
/// # Panics
///
/// Panics if any die fails to calibrate/convert (indicates a model bug).
#[must_use]
pub fn run() -> String {
    run_with(population_size(1000))
}

/// [`run`] over `n` Monte-Carlo dies.
#[must_use]
pub fn run_with(n: usize) -> String {
    let tech = Technology::n65();
    let model = VariationModel::new(&tech);
    // Calibrate at the boot point, then track at 75 °C — one batched
    // schedule, with per-die sensor setup amortized into the plan prototype.
    let plan = BatchPlan::new(tech.clone(), SensorSpec::default_65nm())
        .expect("sensor")
        .read_at(&[75.0]);

    let per_die = run_parallel_with(
        &McConfig::new(n, 0xf4),
        || plan.sensor(),
        |sensor, i, rng| {
            let die = model.sample_die_with_id(rng, i);
            let conv = plan
                .convert_with(sensor, &die, rng)
                .expect("self-calibration + conversion");
            let cal = conv.calibration.calibration;
            let site_n = sensor.bank().site_of(RoClass::PsroN, DieSite::CENTER);
            let site_p = sensor.bank().site_of(RoClass::PsroP, DieSite::CENTER);
            let cal_n = (cal.d_vtn() - die.d_vtn_at(site_n)).millivolts();
            let cal_p = (cal.d_vtp() - die.d_vtp_at(site_p)).millivolts();

            // Tracking at 75 °C.
            let r = &conv.readings[0];
            let trk_n = (r.d_vtn - die.d_vtn_at(site_n)).millivolts();
            let trk_p = (r.d_vtp - die.d_vtp_at(site_p)).millivolts();
            (cal_n, cal_p, trk_n, trk_p)
        },
    )
    .0;

    let mut out = format!("F4: threshold extraction error histograms ({n} MC dies)\n\n");
    let labels = [
        "ΔVtn at 25 °C (calibration)",
        "ΔVtp at 25 °C (calibration)",
        "ΔVtn at 75 °C (tracking)",
        "ΔVtp at 75 °C (tracking)",
    ];
    let paper_band = [1.6, 0.8, 1.6, 0.8];
    for (k, label) in labels.iter().enumerate() {
        let vals: Vec<f64> = per_die
            .iter()
            .map(|d| match k {
                0 => d.0,
                1 => d.1,
                2 => d.2,
                _ => d.3,
            })
            .collect();
        let stats: OnlineStats = vals.iter().copied().collect();
        let span = (3.0 * stats.std_dev()).max(0.5);
        let mut hist = Histogram::new(-span, span, 15);
        for v in &vals {
            hist.push(*v);
        }
        let inside =
            vals.iter().filter(|v| v.abs() <= paper_band[k]).count() as f64 / vals.len() as f64;
        out.push_str(&format!(
            "{label} [mV]: mean {} σ {} worst {} — {:.1}% inside paper's ±{} mV band\n{}\n",
            f(stats.mean(), 3),
            f(stats.std_dev(), 3),
            f(stats.max_abs(), 3),
            100.0 * inside,
            paper_band[k],
            hist.render(36),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_well_formed() {
        let r = super::run_with(30);
        assert!(r.contains("F4"));
        assert!(r.contains("ΔVtp at 75"));
    }
}
