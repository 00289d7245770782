//! Runs the R3 closed-loop DVFS/thermal-throttling campaign and prints
//! the graded report.
//!
//! Exits non-zero if any gate fails, so scripts can use it directly as a
//! smoke check. `PTSIM_BENCH_DIES` sizes the population (4 dies per
//! stack); `PTSIM_DTM_STEPS` overrides the control-loop horizon.

use ptsim_bench::experiments::r3_dtm::{render_report, run_campaign, R3Config};
use ptsim_bench::knobs::knob;

fn main() {
    let defaults = R3Config::default();
    let cfg = R3Config {
        steps: knob("PTSIM_DTM_STEPS").unwrap_or(defaults.steps),
        ..defaults
    };
    let report = run_campaign(&cfg);
    println!("{}", render_report(&report));
    if !report.gate_failures().is_empty() {
        std::process::exit(1);
    }
}
