//! Thermal-solver timing (internal harness): the Gauss–Seidel steady-state
//! solve of the reference 4-tier stack at 16 × 16 per tier
//! (`steady_state_gs/16`), short transient steps, and the 2 ms DTM tick on
//! the TSV-loaded R3 stack.

use ptsim_bench::harness::{bench, emit_meta};
use ptsim_device::units::{Seconds, Watt};
use ptsim_thermal::power::PowerMap;
use ptsim_thermal::solve::{
    solve_steady_state, step_transient, step_transient_with, SolveOptions, TransientScratch,
};
use ptsim_thermal::stack::{StackConfig, ThermalStack};
use ptsim_tsv::topology::StackTopology;
use std::hint::black_box;

fn stack(n: usize) -> ThermalStack {
    let cfg = StackConfig {
        nx: n,
        ny: n,
        ..StackConfig::four_tier_5mm()
    };
    let mut s = ThermalStack::new(cfg).unwrap();
    let mut p = PowerMap::zero(n, n).unwrap();
    p.add_hotspot(0.3, 0.3, 0.1, Watt(2.0)).unwrap();
    s.set_power(0, p).unwrap();
    s
}

fn main() {
    emit_meta();
    bench("steady_state_gs/16", || {
        let mut s = stack(16);
        black_box(solve_steady_state(&mut s, &SolveOptions::default()).unwrap());
    });

    let mut s = stack(16);
    bench("transient_step_16x16x4", || {
        black_box(step_transient(&mut s, Seconds(1e-4)));
    });

    // Caller-held scratch, no per-step heap traffic (the
    // counting-allocator gate in ptsim-core enforces zero allocations;
    // this tracks what the saved allocations buy in time).
    let mut s = stack(16);
    let mut scratch = TransientScratch::new();
    step_transient_with(&mut s, Seconds(1e-4), &mut scratch);
    bench("transient_step_warm_16x16x4", || {
        black_box(step_transient_with(&mut s, Seconds(1e-4), &mut scratch));
    });

    // The steps above are 1e-4 s on a TSV-free stack (one or two
    // substeps). The real DTM tick is 2 ms on the R3 stack, whose TSV
    // arrays stiffen the vertical conductances: 25 substeps per call.
    let mut s = StackTopology::reference_four_tier()
        .build_thermal()
        .unwrap();
    let mut p = PowerMap::zero(16, 16).unwrap();
    p.add_hotspot(0.3, 0.3, 0.1, Watt(2.0)).unwrap();
    s.set_power(0, p).unwrap();
    let mut scratch = TransientScratch::new();
    step_transient_with(&mut s, Seconds(2e-3), &mut scratch);
    bench("transient_tick_2ms_tsv_16x16x4", || {
        black_box(step_transient_with(&mut s, Seconds(2e-3), &mut scratch));
    });
}
