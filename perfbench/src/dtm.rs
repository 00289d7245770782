//! `dtm`: R3-shaped closed-loop DVFS over seeded 4-tier stacks.
//!
//! One stack is one unit of timed work: the `StackMonitor` build (with the
//! TSV topology), the `hottest_site` placement solve, then both sensing
//! arms (nominal 2012 sensor, DVS 2013 sensor) calibrated and driven
//! through `run_dtm_loop` at the 2 ms tick. The stack set is fixed by the
//! seed; the measured window cycles through it on one worker, and every
//! repeat must reproduce the first outcome bit for bit.

use crate::replay::{self, OperatingPoint};
use crate::report::{measure_setup, metric, peak_rss_mb, process_cpu_s, Outcome};
use crate::stats::{self, Digest};
use ptsim_baselines::dvs::DvsDtmSensing;
use ptsim_bench::experiments::r3_dtm::{
    DVS_LAG_LIMIT_C, NOMINAL_LAG_LIMIT_C, OVERSHOOT_BUDGET_C, T_LIMIT_C, T_RELEASE_C,
};
use ptsim_core::dtm::{
    hottest_site, run_dtm_loop, DtmConfig, DtmController, DtmOutcome, DtmSensing, DtmStepRecord,
    DvfsTable, NominalSensing, SensingMode, WorkloadTrace,
};
use ptsim_core::monitor::StackMonitor;
use ptsim_core::{PtSensor, Reading, SensorError, SensorInputs, SensorSpec};
use ptsim_device::process::Technology;
use ptsim_device::units::{Celsius, Joule, Seconds, Volt};
use ptsim_mc::die::{DieSample, DieSite};
use ptsim_mc::driver::die_rng;
use ptsim_mc::model::VariationModel;
use ptsim_rng::{Pcg64, Rng, RngCore};
use ptsim_thermal::{
    solve_steady_state, step_transient_with, SolveOptions, ThermalStack, TransientScratch,
};
use ptsim_tsv::topology::StackTopology;
use std::cell::Cell;
use std::time::{Duration, Instant};

/// Stacks in the fixed set.
pub const STACKS: u64 = 16;
/// Control steps per arm (the R3 campaign's run length).
pub const STEPS: usize = 150;
/// Input builds timed for `setup_s` (median reported).
const SETUPS: usize = 9;
/// Stacks of the 16 that may pass the R3 overshoot budget. The R3
/// campaign holds its budget over its own 25 stacks; on other seeds the
/// cold-start capture transient passes it on an occasional stack (measured
/// 3 stacks of 1120 over 70 seeds, none with two), so at most one miss is
/// allowed: two misses in 16 at that rate happen on about 0.1 % of seeds. The worst stack
/// (`overshoot_c`) and the misses are printed every run.
const MAX_OVERSHOOT_MISSES: usize = 1;
/// Workload tier (the bottom die carries the hotspot).
const TIER: usize = 0;

/// The seeded inputs of one stack.
#[derive(Debug, Clone)]
struct StackInputs {
    dies: Vec<DieSample>,
    trace: WorkloadTrace,
    nominal_seed: u64,
    dvs_seed: u64,
}

fn stack_inputs(model: &VariationModel, base: u64, k: u64) -> StackInputs {
    let tiers = StackTopology::reference_four_tier().thermal_config().tiers as u64;
    let mut rng = die_rng(base, k);
    let dies = (0..tiers)
        .map(|t| model.sample_die_with_id(&mut rng, k * tiers + t))
        .collect();
    let trace = WorkloadTrace::synth(rng.gen(), STEPS);
    StackInputs {
        dies,
        trace,
        nominal_seed: rng.gen(),
        dvs_seed: rng.gen(),
    }
}

fn build_inputs(seed: u64) -> Vec<StackInputs> {
    let model = VariationModel::new(&Technology::n65());
    let base = stats::mix(seed ^ 0x0064_746d);
    (0..STACKS).map(|k| stack_inputs(&model, base, k)).collect()
}

fn controller() -> Result<DtmController, SensorError> {
    DtmController::new(
        DvfsTable::default_six_point(),
        DtmConfig {
            t_limit: Celsius(T_LIMIT_C),
            t_release: Celsius(T_RELEASE_C),
            ..DtmConfig::default()
        },
    )
}

fn tsv_err<E>(_: E) -> SensorError {
    SensorError::InvalidConfig {
        name: "dtm stack build",
        value: f64::NAN,
    }
}

/// Both arms of one stack.
#[derive(Debug, Clone, PartialEq)]
struct StackRun {
    nominal: DtmOutcome,
    dvs: DtmOutcome,
}

/// One arm of a stack through `run_dtm_loop`, as the R3 campaign runs it.
fn run_arm<S: DtmSensing>(
    monitor: &StackMonitor,
    inp: &StackInputs,
    sensing: &mut [S],
    seed: u64,
) -> Result<DtmOutcome, SensorError> {
    let mut thermal = monitor.build_thermal().map_err(tsv_err)?;
    let mut ctl = controller()?;
    let mut rng = Pcg64::seed_from_u64(seed);
    run_dtm_loop(
        monitor,
        &mut thermal,
        sensing,
        &mut ctl,
        &inp.trace,
        TIER,
        STEPS,
        &mut rng,
    )
}

/// One stack through the untraced entry points.
fn run_stack(
    inp: &StackInputs,
    tech: &Technology,
    spec: SensorSpec,
) -> Result<StackRun, SensorError> {
    let topo = StackTopology::reference_four_tier();
    let tiers = topo.thermal_config().tiers;
    let mut scratch = topo.build_thermal().map_err(tsv_err)?;
    let site = hottest_site(&mut scratch, &inp.trace, TIER)?;
    let monitor = StackMonitor::new(topo, inp.dies.clone(), site, tech, spec)?;
    let mut nominal: Vec<NominalSensing> = (0..tiers)
        .map(|_| NominalSensing::new(tech, spec))
        .collect::<Result<_, _>>()?;
    let nominal = run_arm(&monitor, inp, &mut nominal, inp.nominal_seed)?;
    let mut dvs: Vec<DvsDtmSensing> = (0..tiers)
        .map(|_| DvsDtmSensing::new(tech, spec))
        .collect::<Result<_, _>>()?;
    let dvs = run_arm(&monitor, inp, &mut dvs, inp.dvs_seed)?;
    Ok(StackRun { nominal, dvs })
}

fn outcome_digest(d: &mut Digest, o: &DtmOutcome) {
    for x in [
        o.steps as f64,
        o.peak_true.0,
        o.overshoot,
        o.throttle_duty,
        o.worst_lag_error,
        o.mean_lag_error,
        o.sensing_energy.0,
        o.dvs_read_fraction,
        o.actuations as f64,
        o.min_level as f64,
    ] {
        d.push(x);
    }
    for r in &o.records {
        let mode = f64::from(u8::from(r.mode == SensingMode::DynamicVoltageSelection));
        for x in [
            r.step as f64,
            r.demand,
            r.level as f64,
            r.true_hottest.0,
            r.true_peak.0,
            r.reported_hottest.0,
            mode,
        ] {
            d.push(x);
        }
    }
}

fn run_digest(r: &StackRun) -> u64 {
    let mut d = Digest::default();
    outcome_digest(&mut d, &r.nominal);
    outcome_digest(&mut d, &r.dvs);
    d.value()
}

/// Whether both arms of a stack kept the R3 overshoot budget.
fn overshoot_holds(r: &StackRun) -> bool {
    r.nominal.overshoot <= OVERSHOOT_BUDGET_C && r.dvs.overshoot <= OVERSHOOT_BUDGET_C
}

/// One finished unit of the measured window.
struct Unit {
    stack: u64,
    wall: Duration,
    cpu_s: f64,
    digest: Option<u64>,
    run: Option<StackRun>,
}

/// Runs the workload for `seconds` (half untraced, half traced when
/// `traced`).
#[must_use]
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut o = Outcome::default();
    let tech = Technology::n65();
    let spec = SensorSpec::default_65nm();
    let (inputs, setup_s, setup_wall_s) = measure_setup(SETUPS, || build_inputs(seed), drop);

    let window = Duration::from_secs_f64(if traced { seconds / 2.0 } else { seconds });
    // One worker: two stacks solving side by side on a 2-core host share
    // its cores (and, on SMT siblings, their pipelines), which moved a
    // stack's own CPU time by up to 1.7x between runs.
    let mut units = Vec::new();
    let started = Instant::now();
    let mut k = 0u64;
    while k < STACKS || started.elapsed() < window {
        let (t, c) = (Instant::now(), process_cpu_s());
        let res = run_stack(&inputs[(k % STACKS) as usize], &tech, spec);
        units.push(Unit {
            stack: k,
            wall: t.elapsed(),
            cpu_s: process_cpu_s() - c,
            digest: res.as_ref().ok().map(run_digest),
            run: res.ok().filter(|_| k < STACKS),
        });
        k += 1;
    }
    let elapsed = started.elapsed();
    // The median stack's CPU time, per control step (two arms each).
    let stack_cpu: Vec<f64> = units.iter().map(|u| u.cpu_s).collect();
    let cpu_us_per_step = stats::median(&stack_cpu) * 1e6 / (2 * STEPS) as f64;

    let mut reference: Vec<Option<(u64, StackRun)>> = (0..STACKS).map(|_| None).collect();
    for u in &units {
        if let (Some(d), Some(r)) = (u.digest, &u.run) {
            reference[u.stack as usize] = Some((d, r.clone()));
        }
    }
    let mut failed = 0u64;
    let mut mismatched = 0u64;
    let mut stack_ms = Vec::with_capacity(units.len());
    for u in &units {
        stack_ms.push(u.wall.as_secs_f64() * 1e3);
        match (&reference[(u.stack % STACKS) as usize], u.digest) {
            (Some((d, _)), Some(ud)) => {
                if ud != *d {
                    mismatched += 1;
                    failed += 1;
                }
            }
            _ => failed += 1,
        }
    }
    o.attempted = units.len() as u64;
    o.failed = failed;
    let steps_per_s = (units.len() * 2 * STEPS) as f64 / elapsed.as_secs_f64();

    let runs: Vec<&StackRun> = reference.iter().flatten().map(|(_, r)| r).collect();
    let worst = |f: fn(&StackRun) -> f64| runs.iter().map(|r| f(r)).fold(0.0, f64::max);
    let overshoot = worst(|r| r.nominal.overshoot.max(r.dvs.overshoot));
    let lag_nominal = worst(|r| r.nominal.worst_lag_error);
    let lag_dvs = worst(|r| r.dvs.worst_lag_error);
    let misses = runs.iter().filter(|r| !overshoot_holds(r)).count();
    o.check(
        "r3_overshoot",
        misses <= MAX_OVERSHOOT_MISSES,
        format!(
            "{misses} of {} stacks over the {OVERSHOOT_BUDGET_C} C budget (worst {overshoot:.4} C), at most {MAX_OVERSHOOT_MISSES}",
            runs.len()
        ),
    );
    o.check(
        "r3_lag",
        lag_nominal <= NOMINAL_LAG_LIMIT_C && lag_dvs <= DVS_LAG_LIMIT_C,
        format!("nominal {lag_nominal:.4} <= {NOMINAL_LAG_LIMIT_C}, dvs {lag_dvs:.4} <= {DVS_LAG_LIMIT_C} C"),
    );
    o.check(
        "repeat_bit_identical",
        mismatched == 0,
        format!(
            "{mismatched} of {} repeated stacks differ",
            units.len().saturating_sub(STACKS as usize)
        ),
    );
    o.check(
        "stack_set_complete",
        runs.len() == STACKS as usize,
        format!("{} of {STACKS} stacks ran", runs.len()),
    );
    let sum = stats::summarize(&mut stack_ms);
    o.end_to_end = vec![
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("cpu_us_per_op", cpu_us_per_step, "us"),
    ];
    o.figures = vec![
        metric("steps_per_s", steps_per_s, "1/s"),
        metric("setup_wall_s", setup_wall_s, "s"),
        metric("cpu_us_per_step", cpu_us_per_step, "us"),
        metric("overshoot_c", overshoot, "C"),
        metric("overshoot_misses", misses as f64, "count"),
        metric("lag_err_max_c", lag_nominal.max(lag_dvs), "C"),
        metric("lag_err_max_nominal_c", lag_nominal, "C"),
        metric("lag_err_max_dvs_c", lag_dvs, "C"),
        metric("stack_p50_ms", sum.p50, "ms"),
        metric("stack_p95_ms", sum.p95.unwrap_or(f64::NAN), "ms"),
        metric("stack_samples", sum.n as f64, "count"),
    ];
    if traced {
        traced_run(
            &mut o,
            &inputs,
            &reference,
            &tech,
            spec,
            window,
            steps_per_s,
        );
    }
    o
}

/// A sensing stack that times its own calls (reads through `&self`, so the
/// accumulators are cells).
struct Timing<S> {
    inner: S,
    read_us: Cell<f64>,
    reads: Cell<u64>,
    calibrate_us: f64,
    calibrations: u64,
}

impl<S> Timing<S> {
    fn new(inner: S) -> Self {
        Timing {
            inner,
            read_us: Cell::new(0.0),
            reads: Cell::new(0),
            calibrate_us: 0.0,
            calibrations: 0,
        }
    }
}

impl<S: DtmSensing> DtmSensing for Timing<S> {
    fn calibrate(
        &mut self,
        inputs: &SensorInputs<'_>,
        rng: &mut dyn RngCore,
    ) -> Result<(), SensorError> {
        let t = Instant::now();
        let r = self.inner.calibrate(inputs, rng);
        self.calibrate_us += t.elapsed().as_secs_f64() * 1e6;
        self.calibrations += 1;
        r
    }

    fn set_operating_point(&mut self, vdd: Volt) -> Result<SensingMode, SensorError> {
        self.inner.set_operating_point(vdd)
    }

    fn mode(&self) -> SensingMode {
        self.inner.mode()
    }

    fn read(
        &self,
        inputs: &SensorInputs<'_>,
        rng: &mut dyn RngCore,
    ) -> Result<Reading, SensorError> {
        let t = Instant::now();
        let r = self.inner.read(inputs, rng);
        self.read_us
            .set(self.read_us.get() + t.elapsed().as_secs_f64() * 1e6);
        self.reads.set(self.reads.get() + 1);
        r
    }

    fn conversion_window(&self) -> Seconds {
        self.inner.conversion_window()
    }
}

/// Per-layer sums of the traced composition.
#[derive(Debug, Default, Clone)]
struct Ledger {
    build_ms: f64,
    steady_ms: f64,
    sweeps: u64,
    placements: u64,
    transient_us: f64,
    power_map_us: f64,
    observe_ns: f64,
    plant_us: f64,
    steps: u64,
    sense_nominal_us: f64,
    reads_nominal: u64,
    sense_dvs_us: f64,
    reads_dvs: u64,
    calibrate_us: f64,
    calibrations: u64,
    stacks: u64,
    total_us: f64,
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn cfg_err(name: &'static str) -> impl Fn(ptsim_thermal::ThermalError) -> SensorError {
    move |_| SensorError::InvalidConfig {
        name,
        value: f64::NAN,
    }
}

/// `hottest_site` composed from its public parts, timing the steady solve.
fn traced_placement(
    thermal: &mut ThermalStack,
    trace: &WorkloadTrace,
    led: &mut Ledger,
) -> Result<DieSite, SensorError> {
    let (nx, ny) = (thermal.config().nx, thermal.config().ny);
    let t = Instant::now();
    let map = trace
        .power_map(trace.peak_demand_step(), nx, ny, 1.0)
        .map_err(cfg_err("dtm thermal coupling"))?;
    thermal
        .set_power(TIER, map)
        .map_err(cfg_err("dtm thermal coupling"))?;
    led.power_map_us += us(t);
    let t = Instant::now();
    let stats = solve_steady_state(thermal, &SolveOptions::default())
        .map_err(cfg_err("dtm placement solve"))?;
    led.steady_ms += us(t) / 1e3;
    led.sweeps += stats.iterations as u64;
    led.placements += 1;
    let mut best = DieSite::new(0.5, 0.5);
    let mut best_t = f64::NEG_INFINITY;
    for iy in 0..ny {
        for ix in 0..nx {
            let x = (ix as f64 + 0.5) / nx as f64;
            let y = (iy as f64 + 0.5) / ny as f64;
            let t = thermal
                .temperature_at(TIER, x, y)
                .map_err(cfg_err("dtm thermal coupling"))?
                .0;
            if t > best_t {
                best_t = t;
                best = DieSite::new(x, y);
            }
        }
    }
    Ok(best)
}

/// `run_dtm_loop` composed from the public plant, sensing and controller
/// calls in the order the entry point makes them, timing each layer.
#[allow(clippy::too_many_lines)]
fn traced_loop<S: DtmSensing>(
    monitor: &StackMonitor,
    thermal: &mut ThermalStack,
    sensing: &mut [Timing<S>],
    controller: &mut DtmController,
    trace: &WorkloadTrace,
    rng: &mut dyn RngCore,
    led: &mut Ledger,
) -> Result<DtmOutcome, SensorError> {
    let coupling = cfg_err("dtm thermal coupling");
    let nodes = monitor.nodes().len();
    let (nx, ny) = (thermal.config().nx, thermal.config().ny);
    let period = controller.config().sample_period;
    for (i, s) in sensing.iter_mut().enumerate() {
        s.calibrate(&monitor.calibration_inputs(i), rng)?;
        s.set_operating_point(controller.operating_point().vdd)?;
    }
    let mut scratch = TransientScratch::new();
    let mut t_start = vec![0.0f64; nodes];
    let mut records = Vec::with_capacity(STEPS);
    let mut peak_true = f64::NEG_INFINITY;
    let mut worst_lag = 0.0f64;
    let mut lag_sum = 0.0f64;
    let mut energy = 0.0f64;
    let mut conversions = 0usize;
    let mut dvs_reads = 0usize;
    for step in 1..=STEPS {
        let level = controller.level();
        let t = Instant::now();
        let map = trace
            .power_map(step - 1, nx, ny, controller.power_scale())
            .map_err(&coupling)?;
        thermal.set_power(TIER, map).map_err(&coupling)?;
        led.power_map_us += us(t);
        let t = Instant::now();
        for (i, ts) in t_start.iter_mut().enumerate() {
            let node = &monitor.nodes()[i];
            *ts = thermal
                .temperature_at(node.tier, node.site.x, node.site.y)
                .map_err(&coupling)?
                .0;
        }
        led.plant_us += us(t);
        let t = Instant::now();
        step_transient_with(thermal, period, &mut scratch);
        led.transient_us += us(t);
        let t = Instant::now();
        let step_peak = thermal.max_temperature(TIER).map_err(&coupling)?.0;
        peak_true = peak_true.max(step_peak);
        led.plant_us += us(t);

        let mut true_hottest = f64::NEG_INFINITY;
        let mut reported_hottest = f64::NEG_INFINITY;
        let mut hottest_mode = SensingMode::Nominal;
        for (i, s) in sensing.iter().enumerate() {
            let node = &monitor.nodes()[i];
            let t_end = thermal
                .temperature_at(node.tier, node.site.x, node.site.y)
                .map_err(&coupling)?
                .0;
            let window = s.conversion_window().0.clamp(0.0, period.0);
            let alpha = window / period.0;
            let t_seen = t_end - alpha * (t_end - t_start[i]);
            let inputs = monitor.inputs_at(i, Celsius(t_seen));
            let reading = s.read(&inputs, rng)?;
            let lag_err = (reading.temperature.0 - t_end).abs();
            worst_lag = worst_lag.max(lag_err);
            lag_sum += lag_err;
            energy += reading.energy_total().0;
            conversions += 1;
            if s.mode() == SensingMode::DynamicVoltageSelection {
                dvs_reads += 1;
            }
            true_hottest = true_hottest.max(t_end);
            if reading.temperature.0 > reported_hottest {
                reported_hottest = reading.temperature.0;
                hottest_mode = s.mode();
            }
        }
        let t = Instant::now();
        let actuation = controller.observe(step, Celsius(reported_hottest));
        led.observe_ns += us(t) * 1e3;
        if let Some(op) = actuation {
            for s in sensing.iter_mut() {
                s.set_operating_point(op.vdd)?;
            }
        }
        led.steps += 1;
        records.push(DtmStepRecord {
            step,
            demand: trace.demand(step - 1),
            level,
            true_hottest: Celsius(true_hottest),
            true_peak: Celsius(step_peak),
            reported_hottest: Celsius(reported_hottest),
            mode: hottest_mode,
        });
    }
    let t_limit = controller.config().t_limit.0;
    let per_conv = |x: f64| {
        if conversions == 0 {
            0.0
        } else {
            x / conversions as f64
        }
    };
    Ok(DtmOutcome {
        steps: STEPS,
        peak_true: Celsius(peak_true),
        overshoot: (peak_true - t_limit).max(0.0),
        throttle_duty: controller.throttle_duty(),
        worst_lag_error: worst_lag,
        mean_lag_error: per_conv(lag_sum),
        sensing_energy: Joule(energy),
        dvs_read_fraction: per_conv(dvs_reads as f64),
        actuations: controller.actuations(),
        min_level: controller.min_level(),
        records,
    })
}

/// One stack through the traced composition.
fn traced_stack(
    inp: &StackInputs,
    tech: &Technology,
    spec: SensorSpec,
    led: &mut Ledger,
) -> Result<StackRun, SensorError> {
    let started = Instant::now();
    let topo = StackTopology::reference_four_tier();
    let tiers = topo.thermal_config().tiers;
    let t = Instant::now();
    let mut scratch = topo.build_thermal().map_err(tsv_err)?;
    led.build_ms += us(t) / 1e3;
    let site = traced_placement(&mut scratch, &inp.trace, led)?;
    let t = Instant::now();
    let monitor = StackMonitor::new(topo, inp.dies.clone(), site, tech, spec)?;
    let mut plants = [
        monitor.build_thermal().map_err(tsv_err)?,
        monitor.build_thermal().map_err(tsv_err)?,
    ];
    led.build_ms += us(t) / 1e3;
    let [plant_nominal, plant_dvs] = &mut plants;

    let mut nominal: Vec<Timing<NominalSensing>> = (0..tiers)
        .map(|_| NominalSensing::new(tech, spec).map(Timing::new))
        .collect::<Result<_, _>>()?;
    let mut ctl = controller()?;
    let mut rng = Pcg64::seed_from_u64(inp.nominal_seed);
    let nominal_out = traced_loop(
        &monitor,
        plant_nominal,
        &mut nominal,
        &mut ctl,
        &inp.trace,
        &mut rng,
        led,
    )?;

    let mut dvs: Vec<Timing<DvsDtmSensing>> = (0..tiers)
        .map(|_| DvsDtmSensing::new(tech, spec).map(Timing::new))
        .collect::<Result<_, _>>()?;
    let mut ctl = controller()?;
    let mut rng = Pcg64::seed_from_u64(inp.dvs_seed);
    let dvs_out = traced_loop(
        &monitor, plant_dvs, &mut dvs, &mut ctl, &inp.trace, &mut rng, led,
    )?;

    for s in &nominal {
        led.sense_nominal_us += s.read_us.get();
        led.reads_nominal += s.reads.get();
        led.calibrate_us += s.calibrate_us;
        led.calibrations += s.calibrations;
    }
    for s in &dvs {
        led.sense_dvs_us += s.read_us.get();
        led.reads_dvs += s.reads.get();
        led.calibrate_us += s.calibrate_us;
        led.calibrations += s.calibrations;
    }
    led.stacks += 1;
    led.total_us += us(started);
    Ok(StackRun {
        nominal: nominal_out,
        dvs: dvs_out,
    })
}

#[allow(clippy::too_many_arguments)]
fn traced_run(
    o: &mut Outcome,
    inputs: &[StackInputs],
    reference: &[Option<(u64, StackRun)>],
    tech: &Technology,
    spec: SensorSpec,
    window: Duration,
    untraced_steps_per_s: f64,
) {
    let mut led = Ledger::default();
    let mut mismatched = 0u64;
    let mut k = 0u64;
    let started = Instant::now();
    while k < 2 || started.elapsed() < window {
        let idx = (k % STACKS) as usize;
        match traced_stack(&inputs[idx], tech, spec, &mut led) {
            Ok(r) => {
                if reference[idx].as_ref().map(|(d, _)| *d) != Some(run_digest(&r)) {
                    mismatched += 1;
                }
            }
            Err(_) => mismatched += 1,
        }
        k += 1;
    }
    o.check(
        "traced_bit_identical",
        mismatched == 0,
        format!("{mismatched} of {k} traced stacks differ from run_dtm_loop"),
    );
    let points: Vec<OperatingPoint> = inputs[0]
        .dies
        .iter()
        .flat_map(|die| {
            [25.0, 45.0, 70.0].map(|temp| OperatingPoint {
                die: die.clone(),
                site: DieSite::CENTER,
                temp,
            })
        })
        .collect();
    let proto = PtSensor::new(tech.clone(), spec).ok();
    let (current_ns, ring_ns) =
        proto.map_or((0.0, 0.0), |p| replay::device_and_ring_ns(&p, &points));
    let steps = led.steps.max(1) as f64;
    let attributed = [
        led.build_ms * 1e3,
        led.steady_ms * 1e3,
        led.power_map_us,
        led.transient_us,
        led.plant_us,
        led.observe_ns / 1e3,
        led.sense_nominal_us,
        led.sense_dvs_us,
        led.calibrate_us,
    ];
    let traced_step_us = led.total_us / steps;
    let untraced_step_us = 1e6 / untraced_steps_per_s;
    let stacks = led.stacks.max(1) as f64;
    o.layers = vec![
        metric(
            "core.calib.calibrate_us",
            led.calibrate_us / led.calibrations.max(1) as f64,
            "us",
        ),
        metric("device.current_ns", current_ns, "ns"),
        metric("circuit.ring_freq_ns", ring_ns, "ns"),
        metric("tsv.stack_build_ms", led.build_ms / stacks, "ms"),
        metric(
            "thermal.steady_ms",
            led.steady_ms / led.placements.max(1) as f64,
            "ms",
        ),
        metric(
            "thermal.steady_sweeps",
            led.sweeps as f64 / led.placements.max(1) as f64,
            "count",
        ),
        metric("thermal.transient_step_us", led.transient_us / steps, "us"),
        metric(
            "dtm.power_map_us",
            led.power_map_us / (steps + led.placements as f64),
            "us",
        ),
        metric(
            "dtm.sense_nominal_us",
            led.sense_nominal_us / led.reads_nominal.max(1) as f64,
            "us",
        ),
        metric(
            "dtm.sense_dvs_us",
            led.sense_dvs_us / led.reads_dvs.max(1) as f64,
            "us",
        ),
        metric("dtm.observe_ns", led.observe_ns / steps, "ns"),
        metric(
            "unattributed_share",
            stats::unattributed_share(led.total_us, &attributed),
            "ratio",
        ),
        metric(
            "trace_overhead",
            stats::trace_overhead(untraced_step_us, traced_step_us),
            "ratio",
        ),
    ];
}
