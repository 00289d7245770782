//! The batched multi-die conversion API.
//!
//! A [`BatchPlan`] captures everything that is identical across dies of a
//! population — the sensor prototype (with its design-time plausibility
//! bands already built) and the temperature schedule — so per-conversion
//! setup is amortized: cloning the prototype per die skips the 160-corner
//! band envelope scan that [`PtSensor::new`] pays. Every die calibrates at
//! the spec's `calib_temp` with its bank at [`DieSite::CENTER`].
//!
//! Cloning is bit-identical to fresh construction: band derivation
//! consumes no RNG, and [`PtSensor::calibrate`] fully overwrites the stored
//! state, so a cloned prototype behaves exactly like a sensor built from
//! scratch on the same die.

use crate::bank::RoClass;
use crate::error::SensorError;
use crate::metrics::PipelineMetrics;
use crate::pipeline::lanes::{self, LANES};
use crate::pipeline::output::{CalibrationOutcome, Reading};
use crate::pipeline::Scratch;
use crate::sensor::{PtSensor, SensorInputs, SensorSpec};
use ptsim_device::process::Technology;
use ptsim_device::units::Celsius;
use ptsim_mc::die::{DieSample, DieSite};
use ptsim_mc::driver::{
    die_field_seed, die_rng, run_parallel_chunked, run_parallel_with, McConfig,
};
use ptsim_mc::model::{DieSampler, VariationModel};
use ptsim_mc::spatial::FieldMask;
use ptsim_rng::{Pcg64, Rng};

/// Everything one die contributes to a batched campaign: its boot-time
/// calibration outcome and one [`Reading`] per scheduled temperature.
#[derive(Debug, Clone, PartialEq)]
pub struct DieConversion {
    /// Outcome of the boot-time self-calibration.
    pub calibration: CalibrationOutcome,
    /// One reading per scheduled temperature, in schedule order.
    pub readings: Vec<Reading>,
}

/// A reusable multi-die conversion schedule over one sensor design.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    prototype: PtSensor,
    temps: Vec<Celsius>,
}

impl BatchPlan {
    /// Builds the plan's sensor prototype once (bands, counters, bank).
    ///
    /// # Errors
    ///
    /// Propagates sensor construction errors.
    pub fn new(tech: Technology, spec: SensorSpec) -> Result<Self, SensorError> {
        Ok(BatchPlan {
            prototype: PtSensor::new(tech, spec)?,
            temps: Vec::new(),
        })
    }

    /// Schedules one reading per temperature (°C), in order, on every die.
    #[must_use]
    pub fn read_at(mut self, temps: &[f64]) -> Self {
        self.temps = temps.iter().map(|&t| Celsius(t)).collect();
        self
    }

    /// A fresh per-die sensor: a clone of the prebuilt prototype,
    /// bit-identical to (and much cheaper than) constructing from scratch.
    #[must_use]
    pub fn sensor(&self) -> PtSensor {
        self.prototype.clone()
    }

    /// Runs the plan on one die with a caller-provided sensor (obtained
    /// from [`BatchPlan::sensor`], possibly with faults injected):
    /// calibrates at the spec's `calib_temp`, then reads every scheduled
    /// temperature in order, all at [`DieSite::CENTER`].
    ///
    /// # Errors
    ///
    /// Propagates calibration/read failures.
    pub fn convert_with<R: Rng + ?Sized>(
        &self,
        sensor: &mut PtSensor,
        die: &DieSample,
        rng: &mut R,
    ) -> Result<DieConversion, SensorError> {
        self.convert_with_scratch(sensor, die, rng, &mut Scratch::new())
    }

    /// [`BatchPlan::convert_with`] with a caller-owned (reusable)
    /// [`Scratch`] — the allocation-free form [`BatchPlan::run_population`]
    /// drives with one workspace per worker thread. Bit-identical to
    /// [`BatchPlan::convert_with`].
    ///
    /// # Errors
    ///
    /// Propagates calibration/read failures.
    pub fn convert_with_scratch<R: Rng + ?Sized>(
        &self,
        sensor: &mut PtSensor,
        die: &DieSample,
        rng: &mut R,
        scratch: &mut Scratch,
    ) -> Result<DieConversion, SensorError> {
        let boot = SensorInputs::new(die, DieSite::CENTER, self.prototype.spec.calib_temp);
        let calibration = crate::pipeline::run_calibration_with(sensor, &boot, rng, scratch)?;
        let mut readings = Vec::with_capacity(self.temps.len());
        for &t in &self.temps {
            let inputs = SensorInputs::new(die, DieSite::CENTER, t);
            readings.push(crate::pipeline::run_conversion_with(
                sensor, &inputs, rng, scratch,
            )?);
        }
        Ok(DieConversion {
            calibration,
            readings,
        })
    }

    /// Runs the plan over a whole Monte-Carlo population under the batch
    /// sampling discipline, which splits each die's randomness over two
    /// documented streams: die `i`'s die-to-die parameters and
    /// measurement-gating draws come from `die_rng(cfg.base_seed, i)` (in
    /// the classic order), while its within-die field cells are
    /// counter-based — each cell is a pure function of
    /// `die_field_seed(cfg.base_seed, i)` and the cell index (see
    /// [`DieSampler::sample_die_sparse`]) — so only the handful of cells
    /// under this plan's ring sites are ever realized. The result is
    /// deterministic in `(base_seed, i)` and independent of thread count,
    /// chunking, and schedule. The prototype is cloned — and one pipeline
    /// [`Scratch`] and one die sampler (precomputed within-die stencils)
    /// created — once per worker thread, not per die, so the steady-state
    /// conversion loop is allocation-free.
    ///
    /// The population runs through the struct-of-arrays **lane kernel**
    /// ([`crate::pipeline::lanes`]): dies are dispatched in [`LANES`]-wide
    /// chunks whose RNG-free Newton solves run lane-parallel, bit-identical
    /// to — and substantially faster than — the retained scalar oracle
    /// ([`BatchPlan::run_population_scalar`]).
    #[must_use]
    pub fn run_population(
        &self,
        cfg: &McConfig,
        model: &VariationModel,
    ) -> Vec<Result<DieConversion, SensorError>> {
        self.population(cfg, model, Scratch::new).0
    }

    /// [`BatchPlan::run_population`] with per-worker
    /// [`PipelineMetrics`] attached and merged
    /// after the run. The readings are bit-identical to the unmetered run
    /// — observability reads, never perturbs — and the merged deterministic
    /// subset (counters, energy histogram) is independent of the thread
    /// count, because chunking is cursor-free and deterministic.
    #[must_use]
    pub fn run_population_with_metrics(
        &self,
        cfg: &McConfig,
        model: &VariationModel,
    ) -> (Vec<Result<DieConversion, SensorError>>, PipelineMetrics) {
        let (results, scratches) = self.population(cfg, model, Scratch::with_metrics);
        let mut total = PipelineMetrics::new();
        for m in scratches.into_iter().filter_map(|mut s| s.take_metrics()) {
            total.merge(&m);
        }
        (results, total)
    }

    /// The retained scalar population path — the bit-exact oracle the lane
    /// kernel is gated against. One die at a time through the staged
    /// pipeline, one worker context per thread, drawing each die under the
    /// same two-stream sampling discipline as the lane path (see
    /// [`BatchPlan::run_population`]) so the two are comparable die for
    /// die, bit for bit.
    #[must_use]
    pub fn run_population_scalar(
        &self,
        cfg: &McConfig,
        model: &VariationModel,
    ) -> Vec<Result<DieConversion, SensorError>> {
        self.scalar_population(cfg, model, Scratch::new).0
    }

    /// The one population body behind [`BatchPlan::run_population`] and
    /// [`BatchPlan::run_population_with_metrics`]: they differ only in the
    /// worker scratch `scratch` builds. Returns each worker's scratch.
    fn population(
        &self,
        cfg: &McConfig,
        model: &VariationModel,
        scratch: fn() -> Scratch,
    ) -> (Vec<Result<DieConversion, SensorError>>, Vec<Scratch>) {
        let (results, reports) = run_parallel_chunked(
            cfg,
            LANES,
            || self.lane_worker(model, scratch()),
            |ctx, start, len, out| self.lane_chunk(ctx, cfg.base_seed, start, len, out),
        );
        (
            results,
            reports.into_iter().map(|r| r.ctx.scratch).collect(),
        )
    }

    /// The scalar population path (see [`BatchPlan::run_population_scalar`])
    /// with the worker scratch built by `scratch`. Returns each worker's
    /// scratch.
    fn scalar_population(
        &self,
        cfg: &McConfig,
        model: &VariationModel,
        scratch: fn() -> Scratch,
    ) -> (Vec<Result<DieConversion, SensorError>>, Vec<Scratch>) {
        let base_seed = cfg.base_seed;
        let (results, reports) = run_parallel_with(
            cfg,
            || self.scalar_worker(model, scratch()),
            |(sensor, scratch, sampler, vtn_mask, vtp_mask), i, rng| {
                let die = sampler.sample_die_sparse(
                    rng,
                    die_field_seed(base_seed, i),
                    i,
                    vtn_mask,
                    vtp_mask,
                );
                // Reuse the worker's sensor, resetting *all* per-die state
                // (faults and the stored calibration, not just faults).
                sensor.reset_for_reuse();
                self.convert_with_scratch(sensor, &die, rng, scratch)
            },
        );
        (results, reports.into_iter().map(|r| r.ctx.1).collect())
    }

    /// Per-worker context of the scalar population path: sensor clone,
    /// scratch, sampler, and the sparse-field masks of this plan's sites.
    fn scalar_worker(
        &self,
        model: &VariationModel,
        scratch: Scratch,
    ) -> (PtSensor, Scratch, DieSampler, FieldMask, FieldMask) {
        let sensor = self.sensor();
        let sampler = model.sampler();
        let (vtn_mask, vtp_mask) = self.site_masks(&sensor, &sampler);
        (sensor, scratch, sampler, vtn_mask, vtp_mask)
    }

    /// Sparse-field masks covering the only points the batch pipeline ever
    /// probes a die at: this plan's three ring sites.
    fn site_masks(&self, sensor: &PtSensor, sampler: &DieSampler) -> (FieldMask, FieldMask) {
        let points = [RoClass::PsroN, RoClass::PsroP, RoClass::Tsro].map(|class| {
            let site = sensor.bank().site_of(class, DieSite::CENTER);
            (site.x, site.y)
        });
        sampler.field_masks(&points)
    }

    /// Per-worker context of the lane population path: sensor clone,
    /// scratch, sampler (with the sparse-field masks of this plan's bank
    /// sites), and reusable chunk buffers.
    fn lane_worker(&self, model: &VariationModel, scratch: Scratch) -> LaneWorker {
        let sensor = self.sensor();
        let sampler = model.sampler();
        // The batch pipeline only ever probes a die at its three ring
        // sites, so the within-die fields are realized sparsely: just the
        // fine-grid cells under those bilinear reads ever draw a value
        // (counter-based, so the realized cells are mask-invariant).
        let (vtn_mask, vtp_mask) = self.site_masks(&sensor, &sampler);
        LaneWorker {
            sensor,
            scratch,
            sampler,
            vtn_mask,
            vtp_mask,
            dies: Vec::with_capacity(LANES),
            rngs: Vec::with_capacity(LANES),
        }
    }

    /// Converts dies `start .. start + len` as one lane chunk: per-die
    /// sampling under the two-stream discipline (d2d draws on each die's
    /// own main stream, counter-based sparse fields), then the phased
    /// lane-parallel conversion.
    fn lane_chunk(
        &self,
        ctx: &mut LaneWorker,
        base_seed: u64,
        start: u64,
        len: usize,
        out: &mut Vec<Result<DieConversion, SensorError>>,
    ) {
        let LaneWorker {
            sensor,
            scratch,
            sampler,
            vtn_mask,
            vtp_mask,
            dies,
            rngs,
        } = ctx;
        sensor.reset_for_reuse();
        rngs.clear();
        dies.clear();
        for k in 0..len as u64 {
            let i = start + k;
            let mut rng = die_rng(base_seed, i);
            dies.push(sampler.sample_die_sparse(
                &mut rng,
                die_field_seed(base_seed, i),
                i,
                vtn_mask,
                vtp_mask,
            ));
            rngs.push(rng);
        }
        lanes::convert_population_chunk(sensor, scratch, &self.temps, dies, rngs, out);
    }
}

/// Per-worker-thread state of the lane population path (one clone per
/// thread, reused across every chunk the thread drains).
struct LaneWorker {
    sensor: PtSensor,
    scratch: Scratch,
    sampler: DieSampler,
    vtn_mask: FieldMask,
    vtp_mask: FieldMask,
    dies: Vec<DieSample>,
    rngs: Vec<Pcg64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsim_mc::driver::{die_field_seed, die_rng};

    fn plan() -> BatchPlan {
        BatchPlan::new(Technology::n65(), SensorSpec::default_65nm())
            .unwrap()
            .read_at(&[0.0, 50.0, 100.0])
    }

    #[test]
    fn batch_matches_bespoke_per_die_loop() {
        // The batched path must be bit-identical to a hand-written loop
        // following the documented two-stream sampling discipline: die-to-
        // die parameters and gating draws from `die_rng(base_seed, i)`,
        // within-die fields counter-based from `die_field_seed(base_seed, i)`
        // with masks over the plan's ring sites.
        let p = plan();
        let cfg = McConfig::new(6, 0xbeef);
        let model = VariationModel::new(&Technology::n65());
        let batched = p.run_population(&cfg, &model);

        let mut sampler = model.sampler();
        let proto = PtSensor::new(Technology::n65(), SensorSpec::default_65nm()).unwrap();
        let points = [RoClass::PsroN, RoClass::PsroP, RoClass::Tsro].map(|class| {
            let site = proto.bank().site_of(class, DieSite::CENTER);
            (site.x, site.y)
        });
        let (vtn_mask, vtp_mask) = sampler.field_masks(&points);
        let mut bespoke = Vec::new();
        for i in 0..6u64 {
            let mut rng = die_rng(0xbeef, i);
            let die = sampler.sample_die_sparse(
                &mut rng,
                die_field_seed(0xbeef, i),
                i,
                &vtn_mask,
                &vtp_mask,
            );
            let mut sensor = PtSensor::new(Technology::n65(), SensorSpec::default_65nm()).unwrap();
            let boot = SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0));
            let calibration = sensor.calibrate(&boot, &mut rng).unwrap();
            let readings = [0.0, 50.0, 100.0]
                .iter()
                .map(|&t| {
                    sensor
                        .read(
                            &SensorInputs::new(&die, DieSite::CENTER, Celsius(t)),
                            &mut rng,
                        )
                        .unwrap()
                })
                .collect::<Vec<_>>();
            bespoke.push(DieConversion {
                calibration,
                readings,
            });
        }
        for (b, e) in batched.iter().zip(&bespoke) {
            assert_eq!(b.as_ref().unwrap(), e);
        }
    }

    #[test]
    fn lane_population_is_bit_identical_to_scalar_oracle() {
        // 13 dies: one full lane chunk plus a 5-wide masked tail.
        let p = plan();
        let model = VariationModel::new(&Technology::n65());
        let cfg = McConfig::new(13, 0x50a1);
        let lane = p.run_population(&cfg, &model);
        let scalar = p.run_population_scalar(&cfg, &model);
        assert_eq!(lane.len(), scalar.len());
        for (a, b) in lane.iter().zip(&scalar) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
    }

    #[test]
    fn lane_and_scalar_population_metrics_agree() {
        // 21 dies: two full lane chunks plus a 5-wide masked tail; every
        // die fails its 400 °C read, so the error tally is exercised too.
        let p = plan().read_at(&[40.0, 85.0, 400.0]);
        let model = VariationModel::new(&Technology::n65());
        let cfg = McConfig::new(21, 0x3e7c);
        let (lane, lane_scratches) = p.population(&cfg, &model, Scratch::with_metrics);
        let (scalar, scalar_scratches) = p.scalar_population(&cfg, &model, Scratch::with_metrics);
        assert_eq!(lane, scalar);
        assert!(lane.iter().all(Result::is_err), "every die fails at 400 °C");
        let merged = |scratches: Vec<Scratch>| {
            let mut total = PipelineMetrics::new();
            for m in scratches.into_iter().filter_map(|mut s| s.take_metrics()) {
                total.merge(&m);
            }
            total.snapshot()
        };
        let (mut lane_snap, mut scalar_snap) = (merged(lane_scratches), merged(scalar_scratches));
        assert_eq!(lane_snap.counter("pipeline.errors"), Some(21));
        // Span durations are wall-clock; only how many spans were recorded
        // is deterministic.
        let span_totals = |snap: &mut ptsim_obs::Snapshot| {
            let totals: Vec<u64> = snap
                .histograms
                .iter()
                .filter(|(name, _)| name.starts_with("span."))
                .map(|(_, h)| h.total)
                .collect();
            snap.histograms
                .retain(|(name, _)| !name.starts_with("span."));
            totals
        };
        assert_eq!(span_totals(&mut lane_snap), span_totals(&mut scalar_snap));
        assert_eq!(lane_snap, scalar_snap);
    }

    #[test]
    fn prototype_clone_is_bit_identical_to_fresh_construction() {
        let p = plan();
        let die = DieSample::nominal();
        let mut rng_a = die_rng(1, 0);
        let mut rng_b = die_rng(1, 0);
        let via_plan = p.convert_with(&mut p.sensor(), &die, &mut rng_a).unwrap();
        let mut fresh = PtSensor::new(Technology::n65(), SensorSpec::default_65nm()).unwrap();
        let via_fresh = p.convert_with(&mut fresh, &die, &mut rng_b).unwrap();
        assert_eq!(via_plan, via_fresh);
    }

    #[test]
    fn read_batch_amortizes_over_the_schedule() {
        let die = DieSample::nominal();
        let p = plan();
        let mut rng = die_rng(2, 0);
        let conv = p.convert_with(&mut p.sensor(), &die, &mut rng).unwrap();
        assert_eq!(conv.readings.len(), 3);
        for (r, t) in conv.readings.iter().zip([0.0, 50.0, 100.0]) {
            assert!((r.temperature.0 - t).abs() < 1.5);
        }
        assert!(conv.calibration.health.is_nominal());
    }
}
