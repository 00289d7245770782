//! Runs the R2 fleet-service chaos campaign and prints the graded report.
//!
//! Exits non-zero if any chaos gate fails, so scripts can use it directly
//! as a smoke check. `PTSIM_CHAOS_DIES` / `PTSIM_CHAOS_SHARDS` override
//! the fleet size.

use ptsim_bench::experiments::r2_chaos::{render_report, run_campaign, ChaosConfig};
use ptsim_bench::knobs::knob;

fn main() {
    let defaults = ChaosConfig::default();
    let cfg = ChaosConfig {
        n_dies: knob("PTSIM_CHAOS_DIES").unwrap_or(defaults.n_dies),
        n_shards: knob("PTSIM_CHAOS_SHARDS").unwrap_or(defaults.n_shards),
        ..defaults
    };
    let report = run_campaign(&cfg);
    println!("{}", render_report(&report));
    if !report.gate_failures().is_empty() {
        std::process::exit(1);
    }
}
