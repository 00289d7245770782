//! Layer timings that per-call spans would perturb, replayed at a
//! workload's own operating points, plus the scalar conversion composed
//! from the pipeline's public stage functions.

use ptsim_circuit::energy::EnergyLedger;
use ptsim_circuit::ring::RingCache;
use ptsim_core::bank::{BankCache, RoClass};
use ptsim_core::health::{Health, HealthEvent};
use ptsim_core::pipeline::acquire::acquire_round;
use ptsim_core::pipeline::{band_for, gate, output, run_conversion, solve, Band};
use ptsim_core::{PtSensor, Reading, SensorError, SensorInputs};
use ptsim_device::delay::DelayCache;
use ptsim_device::units::Celsius;
use ptsim_mc::die::{DieSample, DieSite};
use ptsim_rng::Pcg64;
use std::hint::black_box;
use std::time::Instant;

/// Evaluations per replay measurement: enough that the loop runs for
/// milliseconds, so the clock's resolution does not matter.
const REPLAY_CALLS: usize = 20_000;

/// One place a workload evaluates the sensor model: a die, the bank
/// centre, and a junction temperature.
#[derive(Debug, Clone)]
pub struct OperatingPoint {
    /// The die.
    pub die: DieSample,
    /// Bank centre on the die.
    pub site: DieSite,
    /// Junction temperature, °C.
    pub temp: f64,
}

/// Mean ns per device on-current (`device.current_ns`) and per cached
/// ring-frequency evaluation (`circuit.ring_freq_ns`) over `points`, both
/// rings of the PSRO-N class at the sensor's low supply.
#[must_use]
pub fn device_and_ring_ns(sensor: &PtSensor, points: &[OperatingPoint]) -> (f64, f64) {
    if points.is_empty() {
        return (0.0, 0.0);
    }
    let cache = BankCache::new(sensor.technology(), sensor.bank());
    let ring: &RingCache = cache.ring(RoClass::PsroN);
    let vdd = sensor.spec().bank.vdd_low;
    let prepared: Vec<_> = points
        .iter()
        .map(|p| {
            let site = sensor.bank().site_of(RoClass::PsroN, p.site);
            let env = p.die.env_at(site, Celsius(p.temp));
            let th = cache.thermal(env.temp);
            let drain = DelayCache::drain_factor(&th, vdd);
            (env, th, drain)
        })
        .collect();
    let per = REPLAY_CALLS / prepared.len() + 1;

    let started = Instant::now();
    let mut acc = 0.0;
    for (env, th, drain) in &prepared {
        for _ in 0..per {
            acc += ring.delay().nmos_current(
                black_box(th),
                black_box(vdd),
                black_box(env.d_vtn.0),
                black_box(env.mu_n),
                black_box(*drain),
            );
        }
    }
    black_box(acc);
    let current_ns = started.elapsed().as_secs_f64() * 1e9 / (per * prepared.len()) as f64;

    let started = Instant::now();
    let mut acc = 0.0;
    for (env, th, _) in &prepared {
        for _ in 0..per {
            acc += ring
                .frequency(black_box(th), black_box(vdd), black_box(env))
                .0;
        }
    }
    black_box(acc);
    let ring_ns = started.elapsed().as_secs_f64() * 1e9 / (per * prepared.len()) as f64;
    (current_ns, ring_ns)
}

/// Time (µs) of one conversion's three first-attempt acquisition rounds
/// (TSRO, PSRO-N, PSRO-P), replayed on a copy of the die's stream so the
/// real conversion's draws are untouched. `all_bands` are the design's
/// plausibility bands (`design_bands`), computed once by the caller.
#[must_use]
pub fn acquire_us(
    sensor: &PtSensor,
    all_bands: &[Band],
    inputs: &SensorInputs<'_>,
    rng: &Pcg64,
) -> f64 {
    let spec = sensor.spec();
    let channels = [
        (RoClass::Tsro, spec.bank.vdd_tsro),
        (RoClass::PsroN, spec.bank.vdd_low),
        (RoClass::PsroP, spec.bank.vdd_low),
    ];
    let envs: Vec<_> = channels
        .iter()
        .map(|&(class, vdd)| {
            let site = sensor.bank().site_of(class, inputs.site);
            let env = inputs
                .die
                .env_at_with(site, inputs.temp, inputs.extra_vtn, inputs.extra_vtp);
            (class, vdd, env, band_for(all_bands, class, vdd))
        })
        .collect();
    let mut rng = rng.clone();
    let mut ledger = EnergyLedger::new();
    let mut health = Health::nominal();
    let started = Instant::now();
    for (class, vdd, env, band) in &envs {
        let _ = black_box(acquire_round(
            sensor,
            *class,
            *vdd,
            env,
            band,
            1,
            &mut rng,
            &mut ledger,
            &mut health,
        ));
    }
    started.elapsed().as_secs_f64() * 1e6
}

/// Per-stage times of one traced scalar conversion.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    /// Replayed acquisition rounds, µs.
    pub acquire_us: f64,
    /// `gate_conversion`, µs.
    pub gate_us: f64,
    /// `solve_gated`, µs.
    pub solve_us: f64,
    /// `finalize`, µs.
    pub finalize_us: f64,
    /// The `run_conversion` entry point on a copy of the stream, µs.
    pub convert_us: f64,
    /// The whole traced composition, its span timers included, µs: set
    /// against `convert_us` it is the cost of tracing.
    pub traced_us: f64,
    /// Window retries recorded by the gate.
    pub retries: usize,
    /// Newton iterations the solve spent.
    pub iterations: usize,
}

impl StageTimes {
    /// Adds `t` to these sums.
    pub fn add(&mut self, t: &StageTimes) {
        self.acquire_us += t.acquire_us;
        self.gate_us += t.gate_us;
        self.solve_us += t.solve_us;
        self.finalize_us += t.finalize_us;
        self.convert_us += t.convert_us;
        self.traced_us += t.traced_us;
        self.retries += t.retries;
        self.iterations += t.iterations;
    }
}

/// One scalar conversion composed from the public stages in the order
/// `PtSensor::read` runs them (gate → solve → finalize), timed per stage.
/// Also runs the `run_conversion` entry point on a copy of the stream and
/// fails unless both produce the same reading and leave the stream at the
/// same position — the bit-identity guard of the shard read path.
///
/// # Errors
///
/// Propagates conversion errors; a composition that disagrees with the
/// entry point is reported as [`SensorError::InvalidConfig`].
pub fn staged_read(
    sensor: &PtSensor,
    all_bands: &[Band],
    inputs: &SensorInputs<'_>,
    rng: &mut Pcg64,
) -> Result<(Reading, StageTimes), SensorError> {
    let mut times = StageTimes {
        acquire_us: acquire_us(sensor, all_bands, inputs, rng),
        ..StageTimes::default()
    };
    let mut entry_rng = rng.clone();
    let started = Instant::now();
    let entry = run_conversion(sensor, inputs, &mut entry_rng);
    times.convert_us = started.elapsed().as_secs_f64() * 1e6;

    let cal = *sensor.calibration().ok_or(SensorError::NotCalibrated)?;
    let composed = Instant::now();
    let mut ledger = EnergyLedger::new();
    let mut health = Health::nominal();
    let started = Instant::now();
    let gated = gate::gate_conversion(sensor, inputs, rng, &mut ledger, &mut health)?;
    times.gate_us = started.elapsed().as_secs_f64() * 1e6;
    times.retries = retries(&health);
    let started = Instant::now();
    let solved = solve::solve_gated(sensor, &cal, &gated, &mut health)?;
    times.solve_us = started.elapsed().as_secs_f64() * 1e6;
    times.iterations = solved.iterations;
    let started = Instant::now();
    let reading = output::finalize(sensor, &cal, &gated, &solved, ledger, health)?;
    times.finalize_us = started.elapsed().as_secs_f64() * 1e6;
    times.traced_us = composed.elapsed().as_secs_f64() * 1e6;

    if entry.as_ref().ok() != Some(&reading) || entry_rng != *rng {
        return Err(SensorError::InvalidConfig {
            name: "staged conversion differs from run_conversion",
            value: inputs.temp.0,
        });
    }
    Ok((reading, times))
}

/// Window retries a gate recorded.
#[must_use]
pub fn retries(health: &Health) -> usize {
    health
        .events()
        .iter()
        .filter(|e| matches!(e, HealthEvent::RetriedWindow { .. }))
        .count()
}

/// Solver escalations (retune or ROM fallback) a solve recorded.
#[must_use]
pub fn escalations(health: &Health) -> usize {
    health
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e,
                HealthEvent::SolverRetuned { .. } | HealthEvent::RomFallback { .. }
            )
        })
        .count()
}
