//! Pipeline observability: a pre-registered metric set over the
//! [`ptsim_obs`] registry, threaded through the conversion pipeline via
//! [`Scratch`](crate::Scratch).
//!
//! The contract is strict in both directions:
//!
//! * **Reads, never perturbs.** Recording a metric consumes no randomness
//!   and changes no float operation in the pipeline; a conversion with
//!   metrics enabled is bit-identical to one without (asserted by
//!   `tests/metrics.rs`).
//! * **Optional at run time, allocation-free when on.** A
//!   [`Scratch`](crate::Scratch) carries metrics only when built with
//!   `Scratch::with_metrics`; without them the pipeline never reads the
//!   clock. Every counter/gauge/histogram is registered at construction
//!   ([`PipelineMetrics::new`]), so the hot path only performs indexed adds
//!   — the counting-allocator test in `tests/zero_alloc.rs` runs with
//!   metrics on.
//!
//! The registry layout (names are stable; DESIGN.md documents the full
//! set): `pipeline.*` conversion/calibration/error totals, `acquire.*`
//! replica measurements and their rejections, `gate.*` vote and retry
//! outcomes, `solve.*` escalation events and Newton work, `health.*` final
//! status tallies, `energy.conversion_pj` the per-conversion energy
//! histogram, and `span.*_us` per-stage wall-clock histograms (also mirrored
//! to stderr when `PTSIM_TRACE` is set).

use crate::health::HealthStatus;
use ptsim_obs::{CounterId, HistogramId, Registry, Snapshot};
use std::time::Duration;

/// The instrumented points of the conversion pipeline, used to label span
/// timings. `Conversion` and `Calibration` cover a whole pipeline run; the
/// rest are its stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Raw replica measurement rounds (inside the gate stage's retry loop).
    Acquire,
    /// Plausibility gating, majority vote, and retries.
    Gate,
    /// The Newton decoupling solves and their escalation ladder.
    Solve,
    /// Range/drift bounding, energy accounting, quantization.
    Output,
    /// One full conversion (acquire → gate → solve → output).
    Conversion,
    /// One full self-calibration pass.
    Calibration,
}

impl Stage {
    /// Stable name used for the span histogram and the trace emitter.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Acquire => "acquire",
            Stage::Gate => "gate",
            Stage::Solve => "solve",
            Stage::Output => "output",
            Stage::Conversion => "conversion",
            Stage::Calibration => "calibration",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Ids {
    conversions: CounterId,
    calibrations: CounterId,
    errors: CounterId,
    replicas: CounterId,
    implausible: CounterId,
    saturated: CounterId,
    outvoted: CounterId,
    spread: CounterId,
    retries: CounterId,
    recovered: CounterId,
    channels_lost: CounterId,
    retunes: CounterId,
    rom_fallbacks: CounterId,
    degraded_temp_only: CounterId,
    newton_iterations: CounterId,
    newton_backoffs: CounterId,
    health_nominal: CounterId,
    health_recovered: CounterId,
    health_degraded: CounterId,
    energy_pj: HistogramId,
    spans_us: [HistogramId; 6],
}

/// The pipeline's pre-registered metric set. One lives (optionally) inside
/// every [`Scratch`](crate::Scratch); the MC driver merges per-worker
/// instances with [`PipelineMetrics::merge`].
#[derive(Debug, Clone)]
pub struct PipelineMetrics {
    reg: Registry,
    ids: Ids,
}

impl PipelineMetrics {
    /// Registers the full metric set up front so every later recording is
    /// an indexed, allocation-free update.
    #[must_use]
    pub fn new() -> Self {
        let mut reg = Registry::new();
        let ids = Ids {
            conversions: reg.counter("pipeline.conversions"),
            calibrations: reg.counter("pipeline.calibrations"),
            errors: reg.counter("pipeline.errors"),
            replicas: reg.counter("acquire.replicas"),
            implausible: reg.counter("acquire.implausible"),
            saturated: reg.counter("acquire.saturated"),
            outvoted: reg.counter("gate.outvoted"),
            spread: reg.counter("gate.spread"),
            retries: reg.counter("gate.retries"),
            recovered: reg.counter("gate.recovered"),
            channels_lost: reg.counter("gate.channels_lost"),
            retunes: reg.counter("solve.retunes"),
            rom_fallbacks: reg.counter("solve.rom_fallbacks"),
            degraded_temp_only: reg.counter("solve.degraded_temp_only"),
            newton_iterations: reg.counter("solve.newton_iterations"),
            newton_backoffs: reg.counter("solve.newton_backoffs"),
            health_nominal: reg.counter("health.nominal"),
            health_recovered: reg.counter("health.recovered"),
            health_degraded: reg.counter("health.degraded"),
            // Paper nominal is 367.5 pJ/conversion; retries and widened
            // windows push a faulted die to a few nJ, which the clamped
            // top bin absorbs (still counted, see Histogram docs).
            energy_pj: reg.histogram("energy.conversion_pj", 0.0, 2000.0, 80),
            spans_us: [
                reg.histogram("span.acquire_us", 0.0, 50.0, 50),
                reg.histogram("span.gate_us", 0.0, 50.0, 50),
                reg.histogram("span.solve_us", 0.0, 50.0, 50),
                reg.histogram("span.output_us", 0.0, 50.0, 50),
                reg.histogram("span.conversion_us", 0.0, 200.0, 50),
                reg.histogram("span.calibration_us", 0.0, 400.0, 50),
            ],
        };
        PipelineMetrics { reg, ids }
    }

    /// One completed conversion.
    #[inline]
    pub fn on_conversion(&mut self) {
        self.reg.inc(self.ids.conversions);
    }

    /// One completed self-calibration.
    #[inline]
    pub fn on_calibration(&mut self) {
        self.reg.inc(self.ids.calibrations);
    }

    /// One conversion or calibration that returned an error.
    #[inline]
    pub fn on_error(&mut self) {
        self.reg.inc(self.ids.errors);
    }

    /// One raw replica measurement.
    #[inline]
    pub fn on_replica(&mut self) {
        self.reg.inc(self.ids.replicas);
    }

    /// One replica sample rejected by its plausibility band.
    #[inline]
    pub fn on_implausible(&mut self) {
        self.reg.inc(self.ids.implausible);
    }

    /// One replica sample lost to counter saturation.
    #[inline]
    pub fn on_saturated(&mut self) {
        self.reg.inc(self.ids.saturated);
    }

    /// One replica outvoted by the majority.
    #[inline]
    pub fn on_outvoted(&mut self) {
        self.reg.inc(self.ids.outvoted);
    }

    /// One vote with excess inlier spread.
    #[inline]
    pub fn on_spread(&mut self) {
        self.reg.inc(self.ids.spread);
    }

    /// One widened-window retry.
    #[inline]
    pub fn on_retry(&mut self) {
        self.reg.inc(self.ids.retries);
    }

    /// One channel recovered by a retry.
    #[inline]
    pub fn on_recovered(&mut self) {
        self.reg.inc(self.ids.recovered);
    }

    /// One channel declared lost after exhausting retries.
    #[inline]
    pub fn on_channel_lost(&mut self) {
        self.reg.inc(self.ids.channels_lost);
    }

    /// One solver escalation to the robust tuning.
    #[inline]
    pub fn on_solver_retuned(&mut self) {
        self.reg.inc(self.ids.retunes);
    }

    /// One last-ditch ROM-bisection fallback.
    #[inline]
    pub fn on_rom_fallback(&mut self) {
        self.reg.inc(self.ids.rom_fallbacks);
    }

    /// One conversion degraded to temperature-only mode.
    #[inline]
    pub fn on_degraded(&mut self) {
        self.reg.inc(self.ids.degraded_temp_only);
    }

    /// Newton iterations (or ROM model evaluations) spent by one solve.
    #[inline]
    pub fn on_solver_iterations(&mut self, iterations: usize) {
        self.reg.add(self.ids.newton_iterations, iterations as u64);
    }

    /// Adaptive damping back-offs (reverted steps) spent by one solve.
    #[inline]
    pub fn on_newton_backoffs(&mut self, backoffs: u64) {
        self.reg.add(self.ids.newton_backoffs, backoffs);
    }

    /// Energy of one completed conversion, in picojoules.
    #[inline]
    pub fn on_energy_pj(&mut self, pj: f64) {
        self.reg.observe(self.ids.energy_pj, pj);
    }

    /// Final health status of one completed conversion or calibration.
    #[inline]
    pub fn on_health(&mut self, status: HealthStatus) {
        self.reg.inc(match status {
            HealthStatus::Nominal => self.ids.health_nominal,
            HealthStatus::Recovered => self.ids.health_recovered,
            HealthStatus::Degraded => self.ids.health_degraded,
        });
    }

    /// Wall-clock duration of one instrumented stage: recorded in the
    /// stage's `span.*_us` histogram and mirrored to stderr when
    /// `PTSIM_TRACE` is set.
    #[inline]
    pub fn on_span(&mut self, stage: Stage, elapsed: Duration) {
        let id = self.ids.spans_us[stage as usize];
        self.reg.observe(id, elapsed.as_secs_f64() * 1e6);
        ptsim_obs::span::emit(stage.name(), elapsed);
    }

    /// Folds another instance's registry into this one (counters sum,
    /// gauges max, histograms bin-wise) — how per-worker metrics become one
    /// campaign snapshot.
    pub fn merge(&mut self, other: &PipelineMetrics) {
        self.reg.merge(&other.reg);
    }

    /// Direct access to the registry, for callers that attach their own
    /// metrics (e.g. the MC driver's worker gauges) next to the pipeline's.
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.reg
    }

    /// Plain-data copy of every metric (see [`Snapshot::to_json`]).
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        self.reg.snapshot()
    }
}

impl Default for PipelineMetrics {
    fn default() -> Self {
        PipelineMetrics::new()
    }
}

/// Starts a stage timer only when metrics are active, so a pipeline run
/// without metrics never reads the clock.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageTimer {
    start: Option<std::time::Instant>,
}

impl StageTimer {
    /// Reads the clock when `active` is true (i.e. metrics are present).
    #[inline]
    pub(crate) fn start(active: bool) -> Self {
        StageTimer {
            start: active.then(std::time::Instant::now),
        }
    }

    /// Records the elapsed time against `stage` if both the timer and the
    /// metrics are live.
    #[inline]
    pub(crate) fn stop(self, metrics: &mut Option<PipelineMetrics>, stage: Stage) {
        if let (Some(t0), Some(m)) = (self.start, metrics.as_mut()) {
            m.on_span(stage, t0.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_methods_are_safe_and_observable() {
        let mut m = PipelineMetrics::new();
        m.on_conversion();
        m.on_conversion();
        m.on_replica();
        m.on_solver_iterations(7);
        m.on_energy_pj(367.5);
        m.on_health(HealthStatus::Nominal);
        m.on_health(HealthStatus::Degraded);
        m.on_span(Stage::Solve, Duration::from_micros(3));
        let s = m.snapshot();
        assert_eq!(s.counter("pipeline.conversions"), Some(2));
        assert_eq!(s.counter("acquire.replicas"), Some(1));
        assert_eq!(s.counter("solve.newton_iterations"), Some(7));
        assert_eq!(s.counter("health.nominal"), Some(1));
        assert_eq!(s.counter("health.degraded"), Some(1));
        assert_eq!(s.histogram("energy.conversion_pj").unwrap().total, 1);
        assert_eq!(s.histogram("span.solve_us").unwrap().total, 1);
    }

    #[test]
    fn merge_sums_worker_instances() {
        let mut a = PipelineMetrics::new();
        a.on_conversion();
        let mut b = PipelineMetrics::new();
        b.on_conversion();
        b.on_retry();
        a.merge(&b);
        let s = a.snapshot();
        assert_eq!(s.counter("pipeline.conversions"), Some(2));
        assert_eq!(s.counter("gate.retries"), Some(1));
    }

    #[test]
    fn stage_names_are_stable() {
        assert_eq!(Stage::Acquire.name(), "acquire");
        assert_eq!(Stage::Calibration.name(), "calibration");
    }
}
