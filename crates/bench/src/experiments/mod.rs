//! One module per reconstructed figure/table. Each `run()` returns the
//! rendered report (and is exercised by smoke tests).

pub mod a1_ablation;
pub mod f1_ro_vs_temp;
pub mod f2_ro_vs_vt;
pub mod f3_temp_error;
pub mod f4_vt_error;
pub mod f5_stack_tracking;
pub mod f6_tsv_stress;
pub mod r1_faults;
pub mod r2_chaos;
pub mod r3_dtm;
pub mod t1_energy;
pub mod t2_comparison;
pub mod t3_corners;
pub mod x1_pvt2013;
pub mod x2_aging;
pub mod x3_placement;

/// Number of Monte-Carlo dies used by the population experiments; override
/// with the `PTSIM_BENCH_DIES` environment variable (an unparsable value
/// stops the process, see [`crate::knobs::knob`]).
#[must_use]
pub fn population_size(default: usize) -> usize {
    crate::knobs::knob("PTSIM_BENCH_DIES").unwrap_or(default)
}
