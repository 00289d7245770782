//! **X3 — Extension: sensor placement and whole-tier field reconstruction.**
//!
//! How many sensors does a tier need, and where? Greedy placement over a
//! training set of workload thermal fields versus a naive uniform grid,
//! graded by worst-case field-reconstruction error on held-out workloads.

use crate::table::{f, Table};
use ptsim_core::fieldest::{place_sensors_greedy, refine_placement_swaps, FieldEstimator};
use ptsim_device::units::{Celsius, Watt};
use ptsim_mc::die::DieSite;
use ptsim_thermal::power::PowerMap;
use ptsim_thermal::solve::{solve_steady_state, SolveOptions};
use ptsim_thermal::stack::{StackConfig, ThermalStack};

fn workload(cx: f64, cy: f64, w: f64) -> ThermalStack {
    let mut s = ThermalStack::new(StackConfig::single_die_5mm()).expect("stack");
    let mut p = PowerMap::zero(16, 16).expect("map");
    p.add_hotspot(cx, cy, 0.18, Watt(w)).expect("power");
    p.add_block(0.6, 0.6, 0.95, 0.95, Watt(0.5)).expect("power");
    s.set_power(0, p).expect("power");
    solve_steady_state(&mut s, &SolveOptions::default()).expect("solve");
    s
}

fn recon_error(stack: &ThermalStack, sites: &[DieSite]) -> (f64, f64) {
    let readings: Vec<Celsius> = sites
        .iter()
        .map(|s| stack.temperature_at(0, s.x, s.y).expect("tier 0"))
        .collect();
    FieldEstimator::new(sites.to_vec(), readings)
        .expect("non-empty")
        .error_against(stack, 0)
        .expect("tier 0")
}

/// Runs the placement study and renders the report.
///
/// # Panics
///
/// Panics if the thermal solves fail (a bug).
#[must_use]
pub fn run() -> String {
    // Training workloads: hotspots at three typical sites.
    let training = [
        workload(0.25, 0.25, 2.0),
        workload(0.25, 0.75, 2.0),
        workload(0.5, 0.5, 2.5),
    ];
    let train_refs: Vec<&ThermalStack> = training.iter().collect();
    // Held-out workloads.
    let held_out = [workload(0.35, 0.4, 2.2), workload(0.7, 0.3, 1.8)];

    // Candidate sites: 5×5 grid.
    let candidates: Vec<DieSite> = (0..5)
        .flat_map(|i| (0..5).map(move |j| DieSite::new(0.1 + 0.2 * i as f64, 0.1 + 0.2 * j as f64)))
        .collect();

    let mut table = Table::new(vec![
        "sensors",
        "placement",
        "train worst [°C]",
        "held-out worst [°C]",
        "held-out rms [°C]",
    ]);
    for k in [2usize, 4, 6] {
        // Naive baseline: an evenly-spread fixed pattern, snapped to the
        // candidate grid (indices into the 5×5 row-major candidate list:
        // index = 5·i + j for site (0.1+0.2i, 0.1+0.2j)).
        let naive_idx: Vec<usize> = match k {
            2 => vec![12, 22], // (0.5,0.5), (0.9,0.5)… keep symmetric: use (0.3,0.5),(0.7,0.5)
            4 => vec![6, 16, 8, 18], // (0.3,0.3),(0.7,0.3),(0.3,0.7),(0.7,0.7)
            _ => vec![1, 11, 21, 3, 13, 23], // two rows of three
        };
        let naive_idx = if k == 2 { vec![7, 17] } else { naive_idx };
        let naive: Vec<DieSite> = naive_idx.iter().map(|&i| candidates[i]).collect();

        // Multi-start local search: refine from both the greedy seed and the
        // uniform seed, keep the better — a standard guard against a poor
        // local optimum.
        let greedy_seed = place_sensors_greedy(&train_refs, 0, &candidates, k).expect("placement");
        let worst_of = |idx: &[usize]| {
            let sites: Vec<DieSite> = idx.iter().map(|&i| candidates[i]).collect();
            train_refs
                .iter()
                .map(|s| recon_error(s, &sites).0)
                .fold(0.0f64, f64::max)
        };
        let mut best_idx =
            refine_placement_swaps(&train_refs, 0, &candidates, &greedy_seed, 8).expect("refine");
        let from_uniform =
            refine_placement_swaps(&train_refs, 0, &candidates, &naive_idx, 8).expect("refine");
        if worst_of(&from_uniform) < worst_of(&best_idx) {
            best_idx = from_uniform;
        }
        let optimized: Vec<DieSite> = best_idx.iter().map(|&i| candidates[i]).collect();

        for (label, sites) in [("optimized", &optimized), ("uniform", &naive)] {
            let train_worst = train_refs
                .iter()
                .map(|s| recon_error(s, sites).0)
                .fold(0.0f64, f64::max);
            let (mut ho_worst, mut ho_rms_acc) = (0.0f64, 0.0);
            for s in &held_out {
                let (w, rms) = recon_error(s, sites);
                ho_worst = ho_worst.max(w);
                ho_rms_acc += rms;
            }
            table.push(vec![
                k.to_string(),
                label.to_owned(),
                f(train_worst, 2),
                f(ho_worst, 2),
                f(ho_rms_acc / held_out.len() as f64, 2),
            ]);
        }
    }

    format!(
        "X3: sensor placement & field reconstruction (single tier, 16×16 truth grid)\n\n{}\n\
         expectation: optimized placement matches or beats the uniform pattern on\n\
         the training workloads, and errors fall as sensors are added\n",
        table.render(),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_well_formed() {
        let r = super::run();
        assert!(r.contains("X3"));
        assert!(r.contains("optimized"));
        assert!(r.contains("uniform"));
    }
}
