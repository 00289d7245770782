//! **A1 — Design-choice ablations.**
//!
//! Sweeps the hardware knobs DESIGN.md calls out and grades each variant on
//! the same Monte-Carlo population:
//!
//! * Q-format register width (Q16.16 → Q8.8),
//! * counting-window length,
//! * counter width,
//! * boot-calibration temperature error,
//! * oscillator-bank site spacing (within-die gradient exposure).

use crate::experiments::population_size;
use crate::table::{f, Table};
use ptsim_circuit::fixed::QFormat;
use ptsim_core::bank::RoClass;
use ptsim_core::golden::CharacterizationSpace;
use ptsim_core::sensor::{PtSensor, SensorInputs, SensorSpec};
use ptsim_device::process::Technology;
use ptsim_device::units::Celsius;
use ptsim_mc::die::DieSite;
use ptsim_mc::driver::{run_parallel, McConfig};
use ptsim_mc::model::VariationModel;
use ptsim_mc::stats::OnlineStats;

const TEMPS: [f64; 4] = [-20.0, 20.0, 60.0, 100.0];

struct Variant {
    label: &'static str,
    spec: SensorSpec,
    /// True boot temperature handed to calibration (assumed is 25 °C).
    boot_actual: f64,
    /// Run the on-chip math on the characterized polynomial (ROM) model.
    characterized: bool,
}

fn variants() -> Vec<Variant> {
    let base = SensorSpec::default_65nm();
    let mut v = vec![
        Variant {
            label: "reference (Q16.16, 14 µs window)",
            spec: base,
            boot_actual: 25.0,
            characterized: false,
        },
        Variant {
            label: "characterized (ROM) model math",
            spec: base,
            boot_actual: 25.0,
            characterized: true,
        },
        Variant {
            label: "Q8.8 registers",
            spec: SensorSpec {
                qformat: QFormat::Q8_8,
                ..base
            },
            boot_actual: 25.0,
            characterized: false,
        },
        Variant {
            label: "window ÷ 8 (1.75 µs)",
            spec: SensorSpec {
                window_cycles: 56,
                ..base
            },
            boot_actual: 25.0,
            characterized: false,
        },
        Variant {
            label: "window × 4 (56 µs)",
            spec: SensorSpec {
                window_cycles: 1792,
                ..base
            },
            boot_actual: 25.0,
            characterized: false,
        },
        Variant {
            label: "10-bit counters",
            spec: SensorSpec {
                counter_bits: 10,
                ..base
            },
            boot_actual: 25.0,
            characterized: false,
        },
        Variant {
            label: "boot 5 °C hotter than assumed",
            spec: base,
            boot_actual: 30.0,
            characterized: false,
        },
    ];
    let mut wide = base;
    wide.bank.site_spacing = 0.05;
    v.push(Variant {
        label: "bank spread 10× (WID exposure)",
        spec: wide,
        boot_actual: 25.0,
        characterized: false,
    });
    v
}

/// Runs every ablation variant and renders the table.
///
/// # Panics
///
/// Panics if a variant fails to build or converge (a bug).
#[must_use]
pub fn run() -> String {
    run_with(population_size(80))
}

/// [`run`] over `n` Monte-Carlo dies.
#[must_use]
pub fn run_with(n: usize) -> String {
    let tech = Technology::n65();
    let model = VariationModel::new(&tech);

    let mut table = Table::new(vec![
        "variant",
        "worst |T err| [°C]",
        "σ T err [°C]",
        "worst |ΔVtn err| [mV]",
        "E/conv [pJ]",
    ]);

    for var in variants() {
        let spec = var.spec;
        let boot_actual = var.boot_actual;
        let characterized = var.characterized;
        // Characterize once per variant (design-time cost, shared by dies).
        let rom_template = if characterized {
            let mut s = PtSensor::new(tech.clone(), spec).expect("sensor");
            s.use_characterized_model(CharacterizationSpace::default())
                .expect("characterization");
            Some(s)
        } else {
            None
        };
        let per_die = run_parallel(&McConfig::new(n, 0xa1), |i, rng| {
            let die = model.sample_die_with_id(rng, i);
            let mut sensor = match &rom_template {
                Some(t) => t.clone(),
                None => PtSensor::new(tech.clone(), spec).expect("sensor"),
            };
            sensor
                .calibrate(
                    &SensorInputs::new(&die, DieSite::CENTER, Celsius(boot_actual)),
                    rng,
                )
                .expect("calibration");
            let cal = *sensor.calibration().expect("calibrated");
            let site_n = sensor.bank().site_of(RoClass::PsroN, DieSite::CENTER);
            let vtn_err = (cal.d_vtn() - die.d_vtn_at(site_n)).millivolts();
            let mut t_errs = Vec::new();
            let mut energy = 0.0;
            for &t in &TEMPS {
                let r = sensor
                    .read(&SensorInputs::new(&die, DieSite::CENTER, Celsius(t)), rng)
                    .expect("conversion");
                t_errs.push(r.temperature.0 - t);
                energy = r.energy_total().picojoules();
            }
            (t_errs, vtn_err, energy)
        });

        let mut t_stats = OnlineStats::new();
        let mut vtn_stats = OnlineStats::new();
        let mut e_stats = OnlineStats::new();
        for (t_errs, vtn, e) in per_die {
            t_stats.extend(t_errs);
            vtn_stats.push(vtn);
            e_stats.push(e);
        }
        table.push(vec![
            var.label.to_owned(),
            f(t_stats.max_abs(), 3),
            f(t_stats.std_dev(), 3),
            f(vtn_stats.max_abs(), 3),
            f(e_stats.mean(), 1),
        ]);
    }

    format!(
        "A1: design-choice ablations ({n} MC dies, convert at {TEMPS:?} °C)\n\n{}\n\
         expectations: narrow registers and short windows cost accuracy; a longer\n\
         window buys accuracy with energy; boot-temperature error biases readings;\n\
         spreading the bank exposes within-die gradients\n",
        table.render(),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn covers_all_variants() {
        let r = super::run_with(6);
        assert!(r.contains("reference"));
        assert!(r.contains("Q8.8"));
        assert!(r.contains("boot 5"));
    }
}
