//! **R3 — Closed-loop DVFS / thermal-throttling campaign.**
//!
//! The paper's sensor exists to *drive* dynamic thermal management; this
//! campaign closes that loop and grades it. A fixed-seed population of
//! four-tier stacks each runs a deterministic synthetic workload trace
//! ([`ptsim_core::dtm::WorkloadTrace`]: ramp/burst/idle/periodic phases
//! feeding per-tier power maps). A [`ptsim_core::dtm::DtmController`]
//! observes only sensor [`ptsim_core::sensor::Reading`]s — never the true
//! temperature field — and throttles through a discrete six-point DVFS
//! ladder with hysteresis and actuation latency.
//!
//! Every stack runs twice on the *same* trace:
//!
//! * **nominal arm** — the 2012 PT sensor on its always-on rail
//!   ([`NominalSensing`]): 14 µs windows, essentially lag-free, full
//!   conversion energy at every operating point;
//! * **DVS arm** — the dual-mode stack ([`DvsDtmSensing`]): operating
//!   points at 0.25–0.5 V hand conversion to the 2013 sensor riding the
//!   throttled rail — cheaper per conversion but with exponentially longer
//!   windows (896 µs at 0.25 V), i.e. real sensing lag at the decision
//!   instant.
//!
//! Graded gates (asserted by `tests/dtm_gates.rs`, thresholds documented
//! in `EXPERIMENTS.md`):
//!
//! * **containment** — worst-case *true* peak overshoot beyond the 45 °C
//!   limit stays within the budget in both arms;
//! * **engagement** — every stack actually throttles (≥ 1 actuation,
//!   duty strictly inside `(0, 1)`) and the DVS arm genuinely enters
//!   DVS mode;
//! * **sensing lag** — the nominal arm's reported-vs-true error at
//!   decision instants stays within the sensor's accuracy band; the DVS
//!   arm is allowed a documented larger band (the price of the long
//!   windows) but must still contain temperature;
//! * **energy** — the DVS arm's total conversion energy undercuts the
//!   nominal arm's by at least the documented fraction;
//! * **determinism** — the whole campaign is bit-identical across worker
//!   thread counts (per-stack streams are derived, not shared).

use crate::table::Table;
use ptsim_baselines::dvs::DvsDtmSensing;
use ptsim_core::dtm::{
    hottest_site, run_dtm_loop, DtmConfig, DtmController, DtmOutcome, DtmSensing, DvfsTable,
    NominalSensing, WorkloadTrace,
};
use ptsim_core::monitor::StackMonitor;
use ptsim_core::sensor::SensorSpec;
use ptsim_device::process::Technology;
use ptsim_mc::driver::{run_parallel_with, McConfig};
use ptsim_mc::model::VariationModel;
use ptsim_rng::{Pcg64, Rng};
use ptsim_tsv::topology::StackTopology;

/// Fixed seed of the campaign population.
pub const R3_SEED: u64 = 0x0d7_2013;

/// Thermal limit the controller must defend, °C.
pub const T_LIMIT_C: f64 = 45.0;

/// Release threshold (lower edge of the hysteresis band), °C.
pub const T_RELEASE_C: f64 = 42.0;

/// Overshoot budget: worst-case true peak beyond the limit, °C. The
/// overshoot is dominated by the cold-start burst: at full power the
/// hotspot heats ≈ 5.5 °C per 2 ms sample, so detection itself can land
/// a full step past the trip threshold and one more pipeline step of
/// full power follows before the thermal trip bites — worst peak ≈
/// limit + emergency margin + 2 × step-heating. After the opening
/// transient the loop holds a tight limit cycle (re-entries peak ≈ 1 °C
/// over the limit). Measured worst case across the fixed 25-stack
/// population: 14.87 °C (nominal arm), 14.93 °C (DVS arm).
pub const OVERSHOOT_BUDGET_C: f64 = 18.0;

/// Worst decision-instant `|reported − true|` allowed in the nominal arm,
/// °C — the 2012 sensor's accuracy band (±1.5 °C spec plus stress
/// residual); its 14 µs window contributes < 1 % of a sample period of
/// lag. Measured worst case ≈ 0.64 °C.
pub const NOMINAL_LAG_LIMIT_C: f64 = 2.0;

/// Worst decision-instant error allowed in the DVS arm, °C. The 0.25 V
/// bin's 896 µs window drags ~45 % of a sample period of transient into
/// the conversion, on top of the 2013 sensor's own band — but DVS mode
/// only engages at deep operating points where the throttled plant moves
/// slowly, so the realized lag stays small. Measured worst case ≈ 0.59 °C
/// (vs 0.64 °C nominal).
pub const DVS_LAG_LIMIT_C: f64 = 3.0;

/// Minimum fraction of total conversion energy the DVS arm must save over
/// the nominal arm. DVS conversions cost 152–268 pJ against the 2012
/// sensor's 367.5 pJ, so the saving scales with time spent at 0.25–0.5 V;
/// measured ≈ 9.8 % at the fixed seed.
pub const MIN_ENERGY_SAVINGS: f64 = 0.05;

/// Minimum fraction of DVS-arm conversions actually taken in DVS mode.
/// Measured ≈ 38 % at the fixed seed.
pub const MIN_DVS_READ_FRACTION: f64 = 0.15;

/// Campaign sizing.
#[derive(Debug, Clone, Copy)]
pub struct R3Config {
    /// Stacks in the population (four dies each).
    pub n_stacks: usize,
    /// Control-loop steps per run.
    pub steps: usize,
    /// Worker threads (`0` = one per CPU).
    pub threads: usize,
}

impl Default for R3Config {
    fn default() -> Self {
        R3Config {
            // 25 four-tier stacks = the 100-die population.
            n_stacks: (super::population_size(100) / 4).max(1),
            steps: 150,
            threads: 0,
        }
    }
}

/// Both arms of one stack's closed-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct StackRun {
    /// Stack index in the population.
    pub stack: usize,
    /// Always-nominal sensing arm.
    pub nominal: DtmOutcome,
    /// Dual-mode (DVS-capable) sensing arm.
    pub dvs: DtmOutcome,
}

/// The graded campaign outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct R3Report {
    /// Per-stack runs, in population order.
    pub runs: Vec<StackRun>,
}

/// Worst/mean summary of one arm across the population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArmSummary {
    /// Worst true-peak overshoot beyond the limit, °C.
    pub worst_overshoot: f64,
    /// Worst decision-instant `|reported − true|`, °C.
    pub worst_lag: f64,
    /// Mean decision-instant error, °C.
    pub mean_lag: f64,
    /// Mean throttle duty.
    pub mean_duty: f64,
    /// Total conversion energy across the population, joules.
    pub energy: f64,
    /// Mean fraction of conversions taken in DVS mode.
    pub dvs_fraction: f64,
    /// Deepest ladder level any stack reached.
    pub min_level: usize,
}

fn summarize<'a>(outcomes: impl Iterator<Item = &'a DtmOutcome>) -> ArmSummary {
    let mut s = ArmSummary {
        worst_overshoot: 0.0,
        worst_lag: 0.0,
        mean_lag: 0.0,
        mean_duty: 0.0,
        energy: 0.0,
        dvs_fraction: 0.0,
        min_level: usize::MAX,
    };
    let mut n = 0usize;
    for o in outcomes {
        s.worst_overshoot = s.worst_overshoot.max(o.overshoot);
        s.worst_lag = s.worst_lag.max(o.worst_lag_error);
        s.mean_lag += o.mean_lag_error;
        s.mean_duty += o.throttle_duty;
        s.energy += o.sensing_energy.0;
        s.dvs_fraction += o.dvs_read_fraction;
        s.min_level = s.min_level.min(o.min_level);
        n += 1;
    }
    if n > 0 {
        s.mean_lag /= n as f64;
        s.mean_duty /= n as f64;
        s.dvs_fraction /= n as f64;
    }
    s
}

impl R3Report {
    /// Population summary of the nominal arm.
    #[must_use]
    pub fn nominal(&self) -> ArmSummary {
        summarize(self.runs.iter().map(|r| &r.nominal))
    }

    /// Population summary of the DVS arm.
    #[must_use]
    pub fn dvs(&self) -> ArmSummary {
        summarize(self.runs.iter().map(|r| &r.dvs))
    }

    /// Fraction of conversion energy the DVS arm saved over the nominal
    /// arm.
    #[must_use]
    pub fn energy_savings(&self) -> f64 {
        let nom = self.nominal().energy;
        if nom <= 0.0 {
            return 0.0;
        }
        1.0 - self.dvs().energy / nom
    }

    /// Every violated gate, as human-readable findings; an empty list is a
    /// passing campaign. `tests/dtm_gates.rs` asserts on this.
    #[must_use]
    pub fn gate_failures(&self) -> Vec<String> {
        let mut fails = Vec::new();
        let mut gate = |ok: bool, msg: String| {
            if !ok {
                fails.push(msg);
            }
        };
        let nom = self.nominal();
        let dvs = self.dvs();
        gate(
            nom.worst_overshoot <= OVERSHOOT_BUDGET_C,
            format!(
                "nominal arm overshoot {:.2} °C exceeds budget {OVERSHOOT_BUDGET_C} °C",
                nom.worst_overshoot
            ),
        );
        gate(
            dvs.worst_overshoot <= OVERSHOOT_BUDGET_C,
            format!(
                "DVS arm overshoot {:.2} °C exceeds budget {OVERSHOOT_BUDGET_C} °C",
                dvs.worst_overshoot
            ),
        );
        gate(
            nom.worst_lag <= NOMINAL_LAG_LIMIT_C,
            format!(
                "nominal arm decision error {:.2} °C exceeds {NOMINAL_LAG_LIMIT_C} °C",
                nom.worst_lag
            ),
        );
        gate(
            dvs.worst_lag <= DVS_LAG_LIMIT_C,
            format!(
                "DVS arm decision error {:.2} °C exceeds {DVS_LAG_LIMIT_C} °C",
                dvs.worst_lag
            ),
        );
        gate(
            self.energy_savings() >= MIN_ENERGY_SAVINGS,
            format!(
                "DVS sensing-energy savings {:.1}% below the {:.0}% floor",
                100.0 * self.energy_savings(),
                100.0 * MIN_ENERGY_SAVINGS
            ),
        );
        gate(
            dvs.dvs_fraction >= MIN_DVS_READ_FRACTION,
            format!(
                "only {:.1}% of DVS-arm conversions ran in DVS mode (floor {:.0}%)",
                100.0 * dvs.dvs_fraction,
                100.0 * MIN_DVS_READ_FRACTION
            ),
        );
        for r in &self.runs {
            for (arm, o) in [("nominal", &r.nominal), ("dvs", &r.dvs)] {
                gate(
                    o.actuations >= 1,
                    format!("stack {} {arm} arm never actuated", r.stack),
                );
                gate(
                    o.throttle_duty > 0.0 && o.throttle_duty < 1.0,
                    format!(
                        "stack {} {arm} arm duty {:.3} outside (0, 1)",
                        r.stack, o.throttle_duty
                    ),
                );
            }
        }
        fails
    }
}

struct StackCtx {
    tech: Technology,
    model: VariationModel,
    spec: SensorSpec,
}

fn run_one_arm<S: DtmSensing>(
    monitor: &StackMonitor,
    sensing: &mut [S],
    trace: &WorkloadTrace,
    steps: usize,
    seed: u64,
) -> DtmOutcome {
    let mut thermal = monitor.build_thermal().expect("reference stack builds");
    let mut controller = DtmController::new(
        DvfsTable::default_six_point(),
        DtmConfig {
            t_limit: ptsim_device::units::Celsius(T_LIMIT_C),
            t_release: ptsim_device::units::Celsius(T_RELEASE_C),
            ..DtmConfig::default()
        },
    )
    .expect("valid controller config");
    let mut rng = Pcg64::seed_from_u64(seed);
    run_dtm_loop(
        monitor,
        &mut thermal,
        sensing,
        &mut controller,
        trace,
        0,
        steps,
        &mut rng,
    )
    .expect("closed loop runs")
}

/// Runs the campaign over the fixed-seed population.
///
/// # Panics
///
/// Panics only on harness failures (reference topology fails to build);
/// controller/sensor misbehavior is graded, not panicked.
#[must_use]
pub fn run_campaign(cfg: &R3Config) -> R3Report {
    let mc = McConfig {
        n_dies: cfg.n_stacks,
        base_seed: R3_SEED,
        threads: cfg.threads,
    };
    let steps = cfg.steps;
    let mut runs = run_parallel_with(
        &mc,
        || StackCtx {
            tech: Technology::n65(),
            model: VariationModel::new(&Technology::n65()),
            spec: SensorSpec::default_65nm(),
        },
        move |ctx, stack_idx, rng| {
            let topo = StackTopology::reference_four_tier();
            let tiers = topo.thermal_config().tiers;
            let dies: Vec<_> = (0..tiers as u64)
                .map(|t| ctx.model.sample_die_with_id(rng, stack_idx * 4 + t))
                .collect();
            let trace_seed: u64 = rng.gen();
            let nom_seed: u64 = rng.gen();
            let dvs_seed: u64 = rng.gen();
            let trace = WorkloadTrace::synth(trace_seed, steps);
            // Guard the floorplan's hottest cell (found by a steady solve
            // at peak demand) — standard DTM sensor placement.
            let mut scratch_stack = topo.build_thermal().expect("reference stack builds");
            let site =
                hottest_site(&mut scratch_stack, &trace, 0).expect("placement solve converges");
            let monitor =
                StackMonitor::new(topo, dies, site, &ctx.tech, ctx.spec).expect("monitor builds");

            let mut nominal_stacks: Vec<NominalSensing> = (0..tiers)
                .map(|_| NominalSensing::new(&ctx.tech, ctx.spec).expect("sensor builds"))
                .collect();
            let nominal = run_one_arm(&monitor, &mut nominal_stacks, &trace, steps, nom_seed);

            let mut dvs_stacks: Vec<DvsDtmSensing> = (0..tiers)
                .map(|_| DvsDtmSensing::new(&ctx.tech, ctx.spec).expect("sensor builds"))
                .collect();
            let dvs = run_one_arm(&monitor, &mut dvs_stacks, &trace, steps, dvs_seed);

            StackRun {
                stack: stack_idx as usize,
                nominal,
                dvs,
            }
        },
    )
    .0;
    runs.sort_by_key(|r| r.stack);
    R3Report { runs }
}

/// Renders the human-readable campaign report.
#[must_use]
pub fn render_report(report: &R3Report) -> String {
    let mut table = Table::new(vec![
        "arm",
        "overshoot_C",
        "worst_lag_C",
        "mean_lag_C",
        "duty",
        "energy_nJ",
        "dvs_frac",
        "min_level",
    ]);
    for (name, s) in [("nominal", report.nominal()), ("dvs", report.dvs())] {
        table.push(vec![
            name.to_string(),
            format!("{:.2}", s.worst_overshoot),
            format!("{:.2}", s.worst_lag),
            format!("{:.3}", s.mean_lag),
            format!("{:.3}", s.mean_duty),
            format!("{:.2}", s.energy * 1e9),
            format!("{:.3}", s.dvs_fraction),
            s.min_level.to_string(),
        ]);
    }
    let fails = report.gate_failures();
    let mut out = String::from("R3 — closed-loop DVFS / thermal-throttling campaign\n\n");
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nstacks: {} (x2 arms, {} dies)\nlimit band: {T_RELEASE_C}–{T_LIMIT_C} °C, overshoot budget {OVERSHOOT_BUDGET_C} °C\nDVS sensing-energy savings: {:.1}% (floor {:.0}%)\n",
        report.runs.len(),
        4 * report.runs.len(),
        100.0 * report.energy_savings(),
        100.0 * MIN_ENERGY_SAVINGS,
    ));
    out.push_str(&format!(
        "\ngates: {}\n",
        if fails.is_empty() {
            "all OK".to_string()
        } else {
            format!("{} FAILED", fails.len())
        }
    ));
    for failure in &fails {
        out.push_str(&format!("  FAIL: {failure}\n"));
    }
    out
}

/// Runs the campaign at default size and renders the report.
#[must_use]
pub fn run() -> String {
    render_report(&run_campaign(&R3Config::default()))
}
