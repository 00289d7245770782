//! **R1 — Robustness: fault-injection campaign.**
//!
//! Sweeps the [`ptsim_faults`] catalog (fault type × severity) over a
//! fixed-seed Monte-Carlo population of hardened sensors (triple modular
//! redundancy, tight drift guard) and grades the detection/recovery
//! machinery:
//!
//! * **detection rate** — fraction of injected readings that were flagged
//!   (non-nominal health) or refused (typed error); catastrophic faults
//!   must essentially never slip through;
//! * **SDC rate** — *silent data corruption*: un-flagged readings whose
//!   temperature is off by more than 5 °C or whose tracked thresholds are
//!   off by more than 10 mV against the healthy reference (excluding
//!   faults, like an open thermal via, that change the true local
//!   temperature — the sensor faithfully reports what it sits at);
//! * **retry / energy overhead** — widened-window retries and the energy
//!   ratio against the healthy conversion;
//! * **degraded accuracy** — temperature error of temperature-only output
//!   while a PSRO bank is dead;
//! * **scrub recovery** — calibration-SEU strikes must be caught by parity
//!   and fully recovered by [`ptsim_core::PtSensor::parity_scrub`].

use crate::experiments::population_size;
use crate::table::{f, Table};
use ptsim_core::health::HealthEvent;
use ptsim_core::pipeline::{run_conversion_with, BatchPlan, Scratch};
use ptsim_core::sensor::{HardeningSpec, SensorInputs, SensorSpec};
use ptsim_core::{PipelineMetrics, SensorError};
use ptsim_device::process::Technology;
use ptsim_device::units::{Celsius, Volt};
use ptsim_faults::catalog;
use ptsim_mc::die::DieSite;
use ptsim_mc::driver::{run_parallel_with, McConfig};
use ptsim_mc::model::VariationModel;
use ptsim_obs::Snapshot;

/// Fixed base seed of the campaign population.
pub const R1_SEED: u64 = 0x0f41;
/// Severity knob settings swept per catalog entry.
pub const SEVERITIES: [f64; 3] = [0.25, 0.5, 1.0];
/// Junction temperature every faulted conversion happens at.
pub const READ_TEMP: f64 = 85.0;
/// Silent-data-corruption thresholds: an un-flagged reading beyond either
/// is counted as SDC.
pub const SDC_TEMP_LIMIT: f64 = 5.0;
/// See [`SDC_TEMP_LIMIT`].
pub const SDC_VT_LIMIT_MV: f64 = 10.0;

/// The hardened sensor configuration the campaign flies: triple modular
/// redundancy on every channel and a drift guard tight enough to flag
/// solver-visible corruption (the campaign injects no genuine aging, so
/// any apparent drift beyond quantization noise is a fault symptom).
#[must_use]
pub fn hardened_spec() -> SensorSpec {
    let mut spec = SensorSpec::default_65nm();
    spec.hardening = HardeningSpec::redundant();
    spec.hardening.max_drift = Volt(0.005);
    spec
}

/// Raw outcome of one (die, catalog cell) injection.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CellOutcome {
    detected: bool,
    errored: bool,
    temp_err: f64,
    vt_err_mv: f64,
    degraded_temp_err: Option<f64>,
    retries: u32,
    energy_rel: f64,
    scrub_recovered: Option<bool>,
}

/// Aggregated campaign statistics of one catalog cell (fault × severity).
#[derive(Debug, Clone, PartialEq)]
pub struct CellStats {
    /// Catalog entry id.
    pub id: &'static str,
    /// Severity the entry was instantiated at.
    pub severity: f64,
    /// Whether the entry is graded against the catastrophic detection floor.
    pub catastrophic: bool,
    /// Whether junction-referenced error comparisons are meaningful.
    pub junction_comparable: bool,
    /// Dies injected.
    pub dies: usize,
    /// Readings flagged or refused.
    pub detected: usize,
    /// Readings refused with a typed error.
    pub errored: usize,
    /// Un-flagged `Ok` readings.
    pub silent: usize,
    /// Silent readings beyond the SDC thresholds (junction-comparable only).
    pub sdc: usize,
    /// Worst `|temperature − junction|` among silent readings [°C].
    pub worst_silent_temp_err: f64,
    /// Worst tracked-threshold deviation from the healthy reference among
    /// silent readings \[mV\].
    pub worst_silent_vt_err_mv: f64,
    /// Worst `|temperature − junction|` among temperature-only degraded
    /// readings [°C] (0 when the cell never degrades).
    pub worst_degraded_temp_err: f64,
    /// Mean widened-window retries per die.
    pub mean_retries: f64,
    /// Mean energy ratio against the healthy conversion (over `Ok`
    /// readings; 0 when every reading errored).
    pub mean_energy_rel: f64,
}

impl CellStats {
    /// Detection rate in `[0, 1]`.
    #[must_use]
    pub fn detection_rate(&self) -> f64 {
        if self.dies == 0 {
            return 1.0;
        }
        self.detected as f64 / self.dies as f64
    }
}

/// Full campaign result.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Population size.
    pub n_dies: usize,
    /// Base seed.
    pub seed: u64,
    /// Healthy (pre-injection) calibrations or readings that were falsely
    /// flagged — must be zero for the hardening to be usable.
    pub healthy_flagged: usize,
    /// Per-cell statistics, severity-major in catalog order.
    pub cells: Vec<CellStats>,
    /// Calibration-SEU scrub attempts.
    pub seu_scrub_attempts: usize,
    /// Scrubs that restored an accurate, nominal sensor.
    pub seu_scrub_recovered: usize,
}

impl CampaignResult {
    /// Detection rate pooled over every catastrophic cell.
    #[must_use]
    pub fn catastrophic_detection_rate(&self) -> f64 {
        let (mut det, mut tot) = (0usize, 0usize);
        for c in self.cells.iter().filter(|c| c.catastrophic) {
            det += c.detected;
            tot += c.dies;
        }
        if tot == 0 {
            return 1.0;
        }
        det as f64 / tot as f64
    }

    /// Total silent-data-corruption count across all comparable cells.
    #[must_use]
    pub fn total_sdc(&self) -> usize {
        self.cells.iter().map(|c| c.sdc).sum()
    }

    /// Worst degraded temperature-only error across all cells [°C].
    #[must_use]
    pub fn worst_degraded_temp_err(&self) -> f64 {
        self.cells
            .iter()
            .map(|c| c.worst_degraded_temp_err)
            .fold(0.0, f64::max)
    }
}

fn count_retries(events: &[HealthEvent]) -> u32 {
    events
        .iter()
        .filter(|e| matches!(e, HealthEvent::RetriedWindow { .. }))
        .count() as u32
}

/// Runs the campaign over `n_dies` fixed-seed dies.
///
/// # Panics
///
/// Panics if a *healthy* sensor fails to calibrate or convert (a bug —
/// fault handling must never make the healthy path fragile).
#[must_use]
pub fn run_campaign(n_dies: usize, seed: u64) -> CampaignResult {
    run_campaign_metered(n_dies, seed).0
}

/// [`run_campaign`] plus the merged observability [`Snapshot`] of every
/// worker's pipeline metrics — counters, the energy histogram, per-stage
/// span timings, and the MC driver's worker gauges (`mc.workers`,
/// `mc.worker_throughput_dies_per_s`, `mc.busy_seconds_total`, `mc.dies`).
///
/// The campaign result is bit-identical to [`run_campaign`]; the counter
/// and histogram subset of the snapshot is deterministic under a fixed
/// seed (merge order cannot matter: counters and histogram bins add), the
/// span histograms and worker gauges are wall-clock/scheduling dependent.
///
/// # Panics
///
/// See [`run_campaign`].
#[must_use]
pub fn run_campaign_metered(n_dies: usize, seed: u64) -> (CampaignResult, Snapshot) {
    let tech = Technology::n65();
    let model = VariationModel::new(&tech);
    let n_cells = SEVERITIES.len() * catalog(1.0).len();
    // The healthy reference of every die runs through the shared batched
    // schedule: calibrate at boot, one conversion at the campaign's read
    // temperature. The hardened prototype (TMR bands and all) is built once
    // and cloned per worker instead of per die, as is the metrics-enabled
    // pipeline scratch the worker's conversions record into.
    let plan = BatchPlan::new(tech.clone(), hardened_spec())
        .expect("sensor")
        .read_at(&[READ_TEMP]);

    // Per die: was the healthy path flagged, plus one outcome per cell.
    let (per_die, reports) = run_parallel_with(
        &McConfig::new(n_dies, seed),
        || (plan.sensor(), Scratch::with_metrics()),
        |(sensor, scratch), i, rng| {
            let die = model.sample_die_with_id(rng, i);
            let boot = SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0));
            sensor.clear_faults();
            let conv = plan
                .convert_with_scratch(sensor, &die, rng, scratch)
                .expect("healthy calibration + conversion");
            let inputs = SensorInputs::new(&die, DieSite::CENTER, Celsius(READ_TEMP));
            let (outcome, baseline) = (conv.calibration, &conv.readings[0]);
            let healthy_flagged = outcome.health.flagged() || baseline.health.flagged();
            let base_energy = baseline.energy_total().0;

            let mut outcomes = Vec::with_capacity(n_cells);
            for severity in SEVERITIES {
                for entry in catalog(severity) {
                    let mut faulty = sensor.clone();
                    faulty.inject_faults(entry.plan.clone());
                    let mut out = CellOutcome {
                        detected: false,
                        errored: false,
                        temp_err: 0.0,
                        vt_err_mv: 0.0,
                        degraded_temp_err: None,
                        retries: 0,
                        energy_rel: 0.0,
                        scrub_recovered: None,
                    };
                    match run_conversion_with(&faulty, &inputs, rng, scratch) {
                        Ok(r) => {
                            out.detected = r.health.flagged();
                            out.temp_err = r.temperature.0 - READ_TEMP;
                            out.vt_err_mv = (r.d_vtn - baseline.d_vtn)
                                .millivolts()
                                .abs()
                                .max((r.d_vtp - baseline.d_vtp).millivolts().abs());
                            if r.health
                                .any(|e| matches!(e, HealthEvent::DegradedTemperatureOnly))
                            {
                                out.degraded_temp_err = Some(out.temp_err.abs());
                            }
                            out.retries = count_retries(r.health.events());
                            out.energy_rel = r.energy_total().0 / base_energy;
                        }
                        Err(e) => {
                            out.detected = true;
                            out.errored = true;
                            // A parity trip must be recoverable in place: scrub,
                            // then convert again on the same die.
                            if matches!(e, SensorError::CalibrationCorrupted { .. }) {
                                let scrubbed =
                                    faulty.parity_scrub(&boot, rng).ok().flatten().is_some();
                                let recovered = scrubbed
                                    && matches!(
                                        run_conversion_with(&faulty, &inputs, rng, scratch),
                                        Ok(r2) if (r2.temperature.0 - READ_TEMP).abs() < 3.0
                                    );
                                out.scrub_recovered = Some(recovered);
                            }
                        }
                    }
                    outcomes.push(out);
                }
            }
            (healthy_flagged, outcomes)
        },
    );

    // Aggregate cell-major.
    let mut cells = Vec::with_capacity(n_cells);
    let mut cell_index = 0usize;
    for severity in SEVERITIES {
        for entry in catalog(severity) {
            let mut stats = CellStats {
                id: entry.id,
                severity,
                catastrophic: entry.catastrophic,
                junction_comparable: entry.junction_comparable,
                dies: per_die.len(),
                detected: 0,
                errored: 0,
                silent: 0,
                sdc: 0,
                worst_silent_temp_err: 0.0,
                worst_silent_vt_err_mv: 0.0,
                worst_degraded_temp_err: 0.0,
                mean_retries: 0.0,
                mean_energy_rel: 0.0,
            };
            let (mut retries, mut energy_sum, mut energy_n) = (0u64, 0.0f64, 0usize);
            for (_, outcomes) in &per_die {
                let o = &outcomes[cell_index];
                if o.detected {
                    stats.detected += 1;
                }
                if o.errored {
                    stats.errored += 1;
                } else {
                    energy_sum += o.energy_rel;
                    energy_n += 1;
                    if !o.detected {
                        stats.silent += 1;
                        stats.worst_silent_temp_err =
                            stats.worst_silent_temp_err.max(o.temp_err.abs());
                        stats.worst_silent_vt_err_mv =
                            stats.worst_silent_vt_err_mv.max(o.vt_err_mv);
                        if entry.junction_comparable
                            && (o.temp_err.abs() > SDC_TEMP_LIMIT || o.vt_err_mv > SDC_VT_LIMIT_MV)
                        {
                            stats.sdc += 1;
                        }
                    }
                }
                if let Some(d) = o.degraded_temp_err {
                    stats.worst_degraded_temp_err = stats.worst_degraded_temp_err.max(d);
                }
                retries += u64::from(o.retries);
            }
            stats.mean_retries = retries as f64 / per_die.len().max(1) as f64;
            stats.mean_energy_rel = if energy_n == 0 {
                0.0
            } else {
                energy_sum / energy_n as f64
            };
            cells.push(stats);
            cell_index += 1;
        }
    }

    let healthy_flagged = per_die.iter().filter(|(flagged, _)| *flagged).count();
    let (mut attempts, mut recovered) = (0usize, 0usize);
    for (_, outcomes) in &per_die {
        for o in outcomes {
            if let Some(ok) = o.scrub_recovered {
                attempts += 1;
                if ok {
                    recovered += 1;
                }
            }
        }
    }

    // Fold every worker's pipeline metrics into one registry (counters and
    // histogram bins add, so the merge order cannot matter), then attach
    // the driver-level gauges the pipeline cannot see.
    let mut metrics = PipelineMetrics::new();
    let n_workers = reports.len();
    let mut busy_total = 0.0f64;
    let mut dies_total = 0u64;
    for mut report in reports {
        if let Some(worker) = report.ctx.1.take_metrics() {
            metrics.merge(&worker);
        }
        let busy = report.busy.as_secs_f64();
        if busy > 0.0 {
            let throughput = metrics
                .registry_mut()
                .gauge("mc.worker_throughput_dies_per_s");
            metrics
                .registry_mut()
                .set_max(throughput, report.dies as f64 / busy);
        }
        busy_total += busy;
        dies_total += report.dies;
    }
    let reg = metrics.registry_mut();
    let workers = reg.gauge("mc.workers");
    reg.set(workers, n_workers as f64);
    let busy = reg.gauge("mc.busy_seconds_total");
    reg.set(busy, busy_total);
    let dies = reg.counter("mc.dies");
    reg.add(dies, dies_total);
    let snapshot = metrics.snapshot();

    (
        CampaignResult {
            n_dies: per_die.len(),
            seed,
            healthy_flagged,
            cells,
            seu_scrub_attempts: attempts,
            seu_scrub_recovered: recovered,
        },
        snapshot,
    )
}

/// Runs the campaign and renders the report.
///
/// # Panics
///
/// See [`run_campaign`].
#[must_use]
pub fn run() -> String {
    run_with(population_size(100))
}

/// [`run`] over `n` Monte-Carlo dies.
#[must_use]
pub fn run_with(n: usize) -> String {
    render_report(&run_campaign(n, R1_SEED))
}

/// Renders the human-readable campaign report (the body of [`run`], split
/// out so callers holding a [`CampaignResult`] — e.g. the metered binary —
/// can render without re-running).
#[must_use]
pub fn render_report(result: &CampaignResult) -> String {
    let mut table = Table::new(vec![
        "fault",
        "sev",
        "detect [%]",
        "refused [%]",
        "silent",
        "SDC",
        "worst silent T err [°C]",
        "degraded T err [°C]",
        "retries/die",
        "energy ×",
    ]);
    for c in &result.cells {
        table.push(vec![
            c.id.to_string(),
            f(c.severity, 2),
            f(100.0 * c.detection_rate(), 1),
            f(100.0 * c.errored as f64 / c.dies.max(1) as f64, 1),
            format!("{}", c.silent),
            format!("{}", c.sdc),
            f(c.worst_silent_temp_err, 2),
            f(c.worst_degraded_temp_err, 2),
            f(c.mean_retries, 2),
            f(c.mean_energy_rel, 2),
        ]);
    }

    format!(
        "R1: fault-injection campaign ({n} MC dies, seed {seed:#06x}, TMR hardening, read at {READ_TEMP} °C)\n\n{table}\n\
         catastrophic detection rate: {det:.2} % (floor 99 %)\n\
         silent data corruption (> {SDC_TEMP_LIMIT} °C or > {SDC_VT_LIMIT_MV} mV, un-flagged): {sdc} (must be 0)\n\
         healthy population falsely flagged: {flagged} (must be 0)\n\
         worst degraded temperature-only error: {deg:.2} °C (budget ±3 °C)\n\
         calibration-SEU parity scrubs: {rec}/{att} recovered\n",
        n = result.n_dies,
        seed = result.seed,
        table = table.render(),
        det = 100.0 * result.catastrophic_detection_rate(),
        sdc = result.total_sdc(),
        flagged = result.healthy_flagged,
        deg = result.worst_degraded_temp_err(),
        rec = result.seu_scrub_recovered,
        att = result.seu_scrub_attempts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_report_renders() {
        let r = run_campaign(4, R1_SEED);
        assert_eq!(r.n_dies, 4);
        assert_eq!(
            r.cells.len(),
            SEVERITIES.len() * ptsim_faults::catalog(1.0).len()
        );
        assert!(r.catastrophic_detection_rate() > 0.0);
        // Rendering goes through the same path.
        let report = run_with(4);
        assert!(report.contains("R1"));
        assert!(report.contains("dead-tsro"));
    }
}
