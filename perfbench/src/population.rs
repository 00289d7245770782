//! `population`: offline Monte-Carlo grading — the paper's own metric path.
//!
//! Dies are sampled, calibrated at 25 °C, and converted over a short
//! −40…125 °C schedule by `BatchPlan::run_population` (the SoA lane
//! kernel) on every available core. The population is a fixed set of lots
//! drawn from the seed; the measured window grades it over and over, and
//! every re-grade must reproduce the first pass bit for bit.

use crate::replay::{self, OperatingPoint};
use crate::report::{measure_setup, metric, nproc, peak_rss_mb, process_cpu_s, Outcome};
use crate::stats::{self, Digest};
use ptsim_circuit::energy::EnergyLedger;
use ptsim_core::bank::RoClass;
use ptsim_core::health::Health;
use ptsim_core::pipeline::{
    design_bands, gate, output, run_calibration_with, solve_gated_lanes, Band, LaneBatch, LANES,
};
use ptsim_core::{
    BatchPlan, DieConversion, PtSensor, Scratch, SensorError, SensorInputs, SensorSpec,
};
use ptsim_device::process::Technology;
use ptsim_device::units::Celsius;
use ptsim_mc::die::{DieSample, DieSite};
use ptsim_mc::driver::{die_field_seed, die_rng, McConfig};
use ptsim_mc::model::{DieSampler, VariationModel};
use ptsim_mc::spatial::FieldMask;
use std::time::{Duration, Instant};

/// Dies per lot: one `run_population` call, the unit of timed work.
pub const LOT: usize = 64;
/// Lots in the fixed population.
pub const LOTS: u64 = 32;
/// Read schedule, °C: the −40…125 °C operating range.
pub const TEMPS: [f64; 6] = [-40.0, -20.0, 25.0, 70.0, 100.0, 125.0];
/// The range the ±1.5 °C band is held over: the golden gate's −20…100 °C
/// characterization range. Readings outside it, at −40 and 125 °C, are
/// held to the edge bounds below.
const BAND_RANGE_C: (f64, f64) = (-20.0, 100.0);
/// Share of dies whose −40 and 125 °C readings must both land inside
/// ±1.5 °C. Measured over 24 seeds of 2048 dies: 1.9–3.0 % of dies miss
/// it (mean 2.4 %, ±0.34 % binomial spread per seed), so 95 % is about
/// twice the measured miss rate and seven spreads away from it.
const MIN_EDGE_YIELD: f64 = 0.95;
/// Worst −40/125 °C error any die may show, °C. Measured worst per seed:
/// 2.1–3.7 °C over about 60 seeds.
const MAX_EDGE_ERR_C: f64 = 5.0;
/// The paper's bands.
const TEMP_BAND_C: f64 = 1.5;
/// Share of dies that must grade inside every band. The paper's ±1.5 °C is
/// not a worst case over thousands of dies: the model's tail passes it
/// (the worst die is printed as `temp_err_max_c` on every run), so the
/// run holds the band as a parametric yield and reports the misses.
const MIN_BAND_YIELD: f64 = 0.99;
const VTN_BAND_MV: f64 = 1.6;
const VTP_BAND_MV: f64 = 0.8;
/// Paper energy per conversion and the tolerance the golden gate allows.
const PAPER_PJ: f64 = 367.5;
const ENERGY_TOL: f64 = 0.05;
/// Plan builds timed for `setup_s` (median reported).
const SETUPS: usize = 15;

fn lot_config(seed: u64, lot: u64, threads: usize) -> McConfig {
    McConfig {
        n_dies: LOT,
        base_seed: stats::mix(seed ^ 0x706f_7075 ^ lot.wrapping_mul(0x9e37_79b9)),
        threads,
    }
}

fn build_plan() -> Result<(BatchPlan, VariationModel), SensorError> {
    let tech = Technology::n65();
    let plan = BatchPlan::new(tech.clone(), SensorSpec::default_65nm())?.read_at(&TEMPS);
    Ok((plan, VariationModel::new(&tech)))
}

/// The sparse-field masks `run_population` realizes: the plan's ring sites.
fn site_masks(sensor: &PtSensor, sampler: &DieSampler) -> (FieldMask, FieldMask) {
    let points = [RoClass::PsroN, RoClass::PsroP, RoClass::Tsro].map(|class| {
        let site = sensor.bank().site_of(class, DieSite::CENTER);
        (site.x, site.y)
    });
    sampler.field_masks(&points)
}

/// Die `i` of a lot, drawn exactly as `run_population` draws it.
fn sample(
    sampler: &mut DieSampler,
    masks: &(FieldMask, FieldMask),
    base_seed: u64,
    i: u64,
) -> (DieSample, ptsim_rng::Pcg64) {
    let mut rng = die_rng(base_seed, i);
    let die = sampler.sample_die_sparse(
        &mut rng,
        die_field_seed(base_seed, i),
        i,
        &masks.0,
        &masks.1,
    );
    (die, rng)
}

/// Paper-band grading of one lot against its dies' true parameters.
#[derive(Debug, Default, Clone, Copy)]
struct Grade {
    errors: u64,
    band_misses: u64,
    edge_misses: u64,
    temp_err_max: f64,
    temp_err_max_edge: f64,
    vtn_err_max: f64,
    vtp_err_max: f64,
    energy_pj_sum: f64,
    conversions: u64,
}

fn grade_lot(
    plan: &BatchPlan,
    model: &VariationModel,
    cfg: &McConfig,
    out: &[Result<DieConversion, SensorError>],
    digest: &mut Digest,
    points: &mut Vec<OperatingPoint>,
) -> Grade {
    let sensor = plan.sensor();
    let mut sampler = model.sampler();
    let masks = site_masks(&sensor, &sampler);
    let site_n = sensor.bank().site_of(RoClass::PsroN, DieSite::CENTER);
    let site_p = sensor.bank().site_of(RoClass::PsroP, DieSite::CENTER);
    let mut g = Grade::default();
    for (i, res) in out.iter().enumerate() {
        let (die, _) = sample(&mut sampler, &masks, cfg.base_seed, i as u64);
        let Ok(conv) = res else {
            g.errors += 1;
            continue;
        };
        let cal = conv.calibration.calibration;
        let vtn = (cal.d_vtn() - die.d_vtn_at(site_n)).millivolts().abs();
        let vtp = (cal.d_vtp() - die.d_vtp_at(site_p)).millivolts().abs();
        let mut worst_t = 0.0f64;
        let mut worst_edge = 0.0f64;
        for (r, &t) in conv.readings.iter().zip(&TEMPS) {
            let err = (r.temperature.0 - t).abs();
            if (BAND_RANGE_C.0..=BAND_RANGE_C.1).contains(&t) {
                worst_t = worst_t.max(err);
            } else {
                worst_edge = worst_edge.max(err);
            }
            let pj = r.energy_total().picojoules();
            // The paper's per-conversion energy is quoted at 25 °C, as in
            // the golden gate.
            if t == 25.0 {
                g.energy_pj_sum += pj;
                g.conversions += 1;
            }
            for x in [r.temperature.0, r.d_vtn.0, r.d_vtp.0, pj] {
                digest.push(x);
            }
        }
        if conv.readings.len() != TEMPS.len() {
            g.errors += 1;
        } else if worst_t > TEMP_BAND_C || vtn > VTN_BAND_MV || vtp > VTP_BAND_MV {
            g.band_misses += 1;
        }
        if worst_edge > TEMP_BAND_C {
            g.edge_misses += 1;
        }
        g.temp_err_max = g.temp_err_max.max(worst_t);
        g.temp_err_max_edge = g.temp_err_max_edge.max(worst_edge);
        g.vtn_err_max = g.vtn_err_max.max(vtn);
        g.vtp_err_max = g.vtp_err_max.max(vtp);
        if points.len() < 16 {
            points.extend(TEMPS.iter().map(|&temp| OperatingPoint {
                die: die.clone(),
                site: DieSite::CENTER,
                temp,
            }));
        }
    }
    g
}

/// Runs the workload for `seconds` (half untraced, half traced when
/// `traced`).
#[must_use]
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut o = Outcome::default();
    let threads = nproc();

    let (built, setup_s, setup_wall_s) = measure_setup(SETUPS, build_plan, drop);
    let (plan, model) = match built {
        Ok(b) => b,
        Err(e) => {
            o.check("plan_builds", false, e.to_string());
            return o;
        }
    };

    // Reference pass: grades the fixed population once (timed like every
    // later pass) and fixes the outputs every re-grade must reproduce.
    let window = Duration::from_secs_f64(if traced { seconds / 2.0 } else { seconds });
    let mut reference = Vec::with_capacity(LOTS as usize);
    let mut lot_us = Vec::new();
    let mut graded = 0u64;
    let mut mismatched = 0u64;
    let started = Instant::now();
    let mut lot_cpu_us = Vec::new();
    let mut busy = Duration::ZERO;
    let mut lot = 0u64;
    while lot < LOTS || started.elapsed() < window {
        let cfg = lot_config(seed, lot % LOTS, threads);
        let (t, c) = (Instant::now(), process_cpu_s());
        let out = plan.run_population(&cfg, &model);
        let dt = t.elapsed();
        lot_cpu_us.push((process_cpu_s() - c) * 1e6);
        busy += dt;
        lot_us.push(dt.as_secs_f64() * 1e6);
        graded += LOT as u64;
        if lot < LOTS {
            reference.push(out);
        } else if out != reference[(lot % LOTS) as usize] {
            mismatched += 1;
        }
        lot += 1;
    }
    let dies_per_s = graded as f64 / busy.as_secs_f64();
    // The median lot's CPU time: a stretch of host contention inflates the
    // lots it overlaps, not the figure.
    let cpu_us_per_die = stats::median(&lot_cpu_us) / LOT as f64;

    let mut digest = Digest::default();
    let mut points = Vec::new();
    let mut total = Grade::default();
    let mut errors_per_lot = Vec::with_capacity(LOTS as usize);
    for (i, out) in reference.iter().enumerate() {
        let g = grade_lot(
            &plan,
            &model,
            &lot_config(seed, i as u64, threads),
            out,
            &mut digest,
            &mut points,
        );
        errors_per_lot.push(g.errors);
        total.errors += g.errors;
        total.band_misses += g.band_misses;
        total.edge_misses += g.edge_misses;
        total.temp_err_max = total.temp_err_max.max(g.temp_err_max);
        total.temp_err_max_edge = total.temp_err_max_edge.max(g.temp_err_max_edge);
        total.vtn_err_max = total.vtn_err_max.max(g.vtn_err_max);
        total.vtp_err_max = total.vtp_err_max.max(g.vtp_err_max);
        total.energy_pj_sum += g.energy_pj_sum;
        total.conversions += g.conversions;
    }
    let energy = total.energy_pj_sum / total.conversions.max(1) as f64;
    o.attempted = graded;
    // Every re-grade of a lot repeats its failed dies; a re-grade that
    // differs from the reference fails its whole lot.
    o.failed = (0..lot)
        .map(|l| errors_per_lot[(l % LOTS) as usize])
        .sum::<u64>()
        + mismatched * LOT as u64;
    let population = LOTS as f64 * LOT as f64;
    let band_yield = 1.0 - total.band_misses as f64 / population;
    o.check(
        "band_yield",
        band_yield >= MIN_BAND_YIELD,
        format!(
            "{} of {population} dies outside the paper bands, yield {band_yield:.4} >= {MIN_BAND_YIELD}",
            total.band_misses
        ),
    );
    let edge_yield = 1.0 - total.edge_misses as f64 / population;
    o.check(
        "edge_band",
        edge_yield >= MIN_EDGE_YIELD && total.temp_err_max_edge <= MAX_EDGE_ERR_C,
        format!(
            "at -40/125 C {} of {population} dies outside +-{TEMP_BAND_C} C, yield {edge_yield:.4} >= {MIN_EDGE_YIELD}; worst {:.3} <= {MAX_EDGE_ERR_C} C",
            total.edge_misses, total.temp_err_max_edge
        ),
    );
    o.check(
        "energy_per_conversion",
        ((energy - PAPER_PJ) / PAPER_PJ).abs() <= ENERGY_TOL,
        format!(
            "{energy:.3} pJ within {:.0} % of {PAPER_PJ}",
            ENERGY_TOL * 100.0
        ),
    );
    o.check(
        "regrade_bit_identical",
        mismatched == 0,
        format!(
            "{mismatched} of {} re-graded lots differ; output digest {:016x}",
            lot.saturating_sub(LOTS),
            digest.value()
        ),
    );

    let lots = stats::summarize(&mut lot_us);
    let rss = peak_rss_mb();
    o.end_to_end = vec![
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", rss, "MB"),
        metric("cpu_us_per_op", cpu_us_per_die, "us"),
    ];
    o.figures = vec![
        metric("dies_per_s", dies_per_s, "1/s"),
        metric("setup_wall_s", setup_wall_s, "s"),
        metric("cpu_us_per_die", cpu_us_per_die, "us"),
        metric("temp_err_max_c", total.temp_err_max, "C"),
        metric("temp_err_max_edge_c", total.temp_err_max_edge, "C"),
        metric("vtn_err_max_mv", total.vtn_err_max, "mV"),
        metric("vtp_err_max_mv", total.vtp_err_max, "mV"),
        metric("energy_pj_per_conv", energy, "pJ"),
        metric("band_miss_ratio", 1.0 - band_yield, "ratio"),
        metric("edge_band_miss_ratio", 1.0 - edge_yield, "ratio"),
        metric("lot_p50_us", lots.p50, "us"),
        metric("lot_p95_us", lots.p95.unwrap_or(f64::NAN), "us"),
        metric("lot_p99_us", lots.p99.unwrap_or(f64::NAN), "us"),
        metric("lot_samples", lots.n as f64, "count"),
    ];

    if traced {
        traced_run(
            &mut o, &plan, &model, &reference, seed, window, dies_per_s, &points,
        );
    }
    o
}

/// Per-layer sums of the traced composition (µs unless noted).
#[derive(Debug, Default, Clone)]
struct Ledger {
    sample_us: f64,
    calibrate_us: f64,
    acquire_us: f64,
    gate_us: f64,
    solve_lanes_us: f64,
    finalize_us: f64,
    busy_us: f64,
    dies: u64,
    conversions: u64,
    blocks: u64,
    lanes: u64,
    fallbacks: u64,
    retries: u64,
    iterations: u64,
}

impl Ledger {
    fn merge(&mut self, o: &Ledger) {
        self.sample_us += o.sample_us;
        self.calibrate_us += o.calibrate_us;
        self.acquire_us += o.acquire_us;
        self.gate_us += o.gate_us;
        self.solve_lanes_us += o.solve_lanes_us;
        self.finalize_us += o.finalize_us;
        self.busy_us += o.busy_us;
        self.dies += o.dies;
        self.conversions += o.conversions;
        self.blocks += o.blocks;
        self.lanes += o.lanes;
        self.fallbacks += o.fallbacks;
        self.retries += o.retries;
        self.iterations += o.iterations;
    }
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// One lane chunk composed from public stage functions in the order the
/// lane kernel runs them: per die sample → calibrate, then per temperature
/// gate every die → one lane solve → finalize every die.
#[allow(clippy::too_many_arguments)]
fn traced_chunk(
    sensor: &mut PtSensor,
    bands: &[Band],
    sampler: &mut DieSampler,
    masks: &(FieldMask, FieldMask),
    scratch: &mut Scratch,
    base_seed: u64,
    start: u64,
    len: usize,
    led: &mut Ledger,
) -> Vec<Result<DieConversion, SensorError>> {
    let mut dies = Vec::with_capacity(len);
    let mut rngs = Vec::with_capacity(len);
    let mut res: Vec<Option<Result<DieConversion, SensorError>>> = (0..len).map(|_| None).collect();
    let mut outcomes = Vec::with_capacity(len);
    for k in 0..len {
        let t = Instant::now();
        let (die, rng) = sample(sampler, masks, base_seed, start + k as u64);
        led.sample_us += us(t);
        dies.push(die);
        rngs.push(rng);
    }
    sensor.reset_for_reuse();
    for k in 0..len {
        let boot = SensorInputs::new(&dies[k], DieSite::CENTER, sensor.spec().calib_temp);
        let t = Instant::now();
        let cal = run_calibration_with(sensor, &boot, &mut rngs[k], scratch);
        led.calibrate_us += us(t);
        match cal {
            Ok(c) => outcomes.push(Some(c)),
            Err(e) => {
                res[k] = Some(Err(e));
                outcomes.push(None);
            }
        }
        led.dies += 1;
    }
    let mut readings: Vec<Vec<_>> = (0..len).map(|_| Vec::with_capacity(TEMPS.len())).collect();
    let mut batch = LaneBatch::new();
    for &t in &TEMPS {
        batch.clear();
        let mut work = Vec::with_capacity(len);
        let mut lane_of = vec![usize::MAX; len];
        for k in 0..len {
            let Some(outcome) = outcomes[k].as_ref().filter(|_| res[k].is_none()) else {
                work.push(None);
                continue;
            };
            let cal = outcome.calibration;
            let inputs = SensorInputs::new(&dies[k], DieSite::CENTER, Celsius(t));
            led.acquire_us += replay::acquire_us(sensor, bands, &inputs, &rngs[k]);
            let mut ledger = EnergyLedger::new();
            let mut health = Health::nominal();
            let started = Instant::now();
            let gated =
                gate::gate_conversion(sensor, &inputs, &mut rngs[k], &mut ledger, &mut health);
            led.gate_us += us(started);
            led.retries += replay::retries(&health) as u64;
            match gated {
                Ok(g) => {
                    if LaneBatch::accepts(sensor, &g) {
                        lane_of[k] = batch.push(&cal, &g);
                    }
                    work.push(Some((cal, g, ledger, health)));
                }
                Err(e) => {
                    res[k] = Some(Err(e));
                    work.push(None);
                }
            }
        }
        let mut healths: [Health; LANES] = core::array::from_fn(|_| Health::nominal());
        for (k, w) in work.iter().enumerate() {
            if let (Some((_, _, _, h)), l) = (w, lane_of[k]) {
                if l != usize::MAX {
                    healths[l] = h.clone();
                }
            }
        }
        let before: Vec<usize> = healths.iter().map(replay::escalations).collect();
        let mut solved: [Option<Result<_, SensorError>>; LANES] = core::array::from_fn(|_| None);
        let started = Instant::now();
        solve_gated_lanes(sensor, &batch, &mut healths, scratch, &mut solved);
        led.solve_lanes_us += us(started);
        led.blocks += 1;
        led.lanes += batch.len() as u64;
        led.fallbacks += healths
            .iter()
            .zip(&before)
            .take(batch.len())
            .filter(|(h, &b)| replay::escalations(h) > b)
            .count() as u64;
        for (k, w) in work.into_iter().enumerate() {
            let Some((cal, g, ledger, mut health)) = w else {
                continue;
            };
            let s = if lane_of[k] == usize::MAX {
                ptsim_core::pipeline::solve::solve_gated(sensor, &cal, &g, &mut health)
            } else {
                health = healths[lane_of[k]].clone();
                solved[lane_of[k]].take().expect("lane was solved")
            };
            let s = match s {
                Ok(s) => s,
                Err(e) => {
                    res[k] = Some(Err(e));
                    continue;
                }
            };
            led.iterations += s.iterations as u64;
            led.conversions += 1;
            let started = Instant::now();
            let r = output::finalize(sensor, &cal, &g, &s, ledger, health);
            led.finalize_us += us(started);
            match r {
                Ok(r) => readings[k].push(r),
                Err(e) => res[k] = Some(Err(e)),
            }
        }
    }
    (0..len)
        .map(|k| match res[k].take() {
            Some(r) => r,
            None => Ok(DieConversion {
                calibration: outcomes[k].take().expect("live dies are calibrated"),
                readings: std::mem::take(&mut readings[k]),
            }),
        })
        .collect()
}

/// One lot through the traced composition on `threads` workers (chunk `j`
/// of [`LANES`] dies goes to worker `j % threads`).
fn traced_lot(
    plan: &BatchPlan,
    model: &VariationModel,
    bands: &[Band],
    cfg: &McConfig,
) -> (Vec<Result<DieConversion, SensorError>>, Ledger) {
    let chunks = LOT.div_ceil(LANES);
    let threads = cfg.threads.max(1);
    let per_worker: Vec<(Vec<(usize, Vec<_>)>, Ledger)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                s.spawn(move || {
                    let started = Instant::now();
                    let mut sensor = plan.sensor();
                    let mut sampler = model.sampler();
                    let masks = site_masks(&sensor, &sampler);
                    let mut scratch = Scratch::new();
                    let mut led = Ledger::default();
                    let mut outs = Vec::new();
                    for j in (w..chunks).step_by(threads) {
                        let start = j * LANES;
                        let len = LANES.min(LOT - start);
                        let out = traced_chunk(
                            &mut sensor,
                            bands,
                            &mut sampler,
                            &masks,
                            &mut scratch,
                            cfg.base_seed,
                            start as u64,
                            len,
                            &mut led,
                        );
                        outs.push((j, out));
                    }
                    led.busy_us = us(started);
                    (outs, led)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced worker"))
            .collect()
    });
    let mut chunks_out: Vec<(usize, Vec<_>)> = Vec::with_capacity(chunks);
    let mut led = Ledger::default();
    for (outs, l) in per_worker {
        chunks_out.extend(outs);
        led.merge(&l);
    }
    chunks_out.sort_by_key(|(j, _)| *j);
    (chunks_out.into_iter().flat_map(|(_, v)| v).collect(), led)
}

#[allow(clippy::too_many_arguments)]
fn traced_run(
    o: &mut Outcome,
    plan: &BatchPlan,
    model: &VariationModel,
    reference: &[Vec<Result<DieConversion, SensorError>>],
    seed: u64,
    window: Duration,
    untraced_dies_per_s: f64,
    points: &[OperatingPoint],
) {
    let threads = nproc();
    let sensor = plan.sensor();
    let bands = design_bands(sensor.technology(), sensor.bank(), sensor.spec());
    let mut led = Ledger::default();
    let mut wall = Duration::ZERO;
    let mut mismatched = 0u64;
    let mut lots = 0u64;
    let started = Instant::now();
    while lots < LOTS.min(4) || started.elapsed() < window {
        let cfg = lot_config(seed, lots % LOTS, threads);
        let t = Instant::now();
        let (out, l) = traced_lot(plan, model, &bands, &cfg);
        wall += t.elapsed();
        if out != reference[(lots % LOTS) as usize] {
            mismatched += 1;
        }
        led.merge(&l);
        lots += 1;
    }
    o.check(
        "traced_bit_identical",
        mismatched == 0,
        format!("{mismatched} of {lots} traced lots differ from run_population"),
    );
    let (current_ns, ring_ns) = replay::device_and_ring_ns(&sensor, points);
    let dies = led.dies.max(1) as f64;
    let convs = led.conversions.max(1) as f64;
    // The acquisition replay is measurement, not workload: it leaves the
    // ledger's total as well as its parts.
    let busy = led.busy_us - led.acquire_us;
    let attributed = [
        led.sample_us,
        led.calibrate_us,
        led.gate_us,
        led.solve_lanes_us,
        led.finalize_us,
    ];
    let traced_dies_per_s = led.dies as f64 / wall.as_secs_f64();
    o.layers = vec![
        metric("mc.sample_die_us", led.sample_us / dies, "us"),
        metric(
            "mc.worker_busy_ratio",
            led.busy_us / (threads as f64 * wall.as_secs_f64() * 1e6),
            "ratio",
        ),
        metric("core.calib.calibrate_us", led.calibrate_us / dies, "us"),
        metric("core.pipeline.acquire_us", led.acquire_us / convs, "us"),
        metric("core.pipeline.gate_us", led.gate_us / convs, "us"),
        metric("core.pipeline.finalize_us", led.finalize_us / convs, "us"),
        metric(
            "core.pipeline.solve_lanes_us",
            led.solve_lanes_us / led.blocks.max(1) as f64,
            "us",
        ),
        metric(
            "core.lanes.fallback_ratio",
            led.fallbacks as f64 / led.lanes.max(1) as f64,
            "ratio",
        ),
        metric(
            "core.newton.iters_per_conv",
            led.iterations as f64 / convs,
            "count",
        ),
        metric(
            "core.gate.retry_ratio",
            led.retries as f64 / (3.0 * convs),
            "ratio",
        ),
        metric("device.current_ns", current_ns, "ns"),
        metric("circuit.ring_freq_ns", ring_ns, "ns"),
        metric(
            "unattributed_share",
            stats::unattributed_share(busy, &attributed),
            "ratio",
        ),
        metric(
            "trace_overhead",
            stats::trace_overhead(1.0 / untraced_dies_per_s, 1.0 / traced_dies_per_s),
            "ratio",
        ),
    ];
}
