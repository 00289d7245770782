//! Observability-layer contract tests:
//!
//! * metrics **read, never perturb** — a conversion with a metrics-enabled
//!   scratch is bit-identical to one without;
//! * counters reflect exactly what the pipeline did;
//! * merging per-worker metrics from a parallel run reproduces the
//!   sequential run's deterministic subset (counters and the energy
//!   histogram; span timings are wall-clock and excluded).

use ptsim_core::pipeline::{run_calibration_with, run_conversion_with, BatchPlan};
use ptsim_core::sensor::{PtSensor, SensorInputs, SensorSpec};
use ptsim_core::{PipelineMetrics, Scratch};
use ptsim_device::process::Technology;
use ptsim_device::units::Celsius;
use ptsim_mc::die::{DieSample, DieSite};
use ptsim_mc::driver::{run_parallel_with, McConfig};
use ptsim_mc::model::VariationModel;
use ptsim_rng::Pcg64;

fn sensor() -> PtSensor {
    PtSensor::new(Technology::n65(), SensorSpec::default_65nm()).unwrap()
}

#[test]
fn metrics_never_perturb_the_readings() {
    let die = DieSample::nominal();
    let boot = SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0));
    let temps = [Celsius(-20.0), Celsius(25.0), Celsius(85.0), Celsius(110.0)];

    let run = |scratch: &mut Scratch| {
        let mut s = sensor();
        let mut rng = Pcg64::seed_from_u64(0x0b5e);
        run_calibration_with(&mut s, &boot, &mut rng, scratch).unwrap();
        temps
            .iter()
            .map(|&t| {
                run_conversion_with(
                    &s,
                    &SensorInputs::new(&die, DieSite::CENTER, t),
                    &mut rng,
                    scratch,
                )
                .unwrap()
            })
            .collect::<Vec<_>>()
    };

    let plain = run(&mut Scratch::new());
    let mut metered = Scratch::with_metrics();
    let instrumented = run(&mut metered);
    assert_eq!(plain, instrumented);

    let snap = metered.metrics().expect("metrics attached").snapshot();
    assert_eq!(
        snap.counter("pipeline.conversions"),
        Some(temps.len() as u64)
    );
}

#[test]
fn counters_reflect_the_pipeline_work_exactly() {
    let die = DieSample::nominal();
    let boot = SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0));
    let spec = SensorSpec::default_65nm();
    let replicas = spec.hardening.replicas as u64;
    let n_reads = 10u64;

    let mut s = sensor();
    let mut rng = Pcg64::seed_from_u64(0x0b5f);
    let mut scratch = Scratch::with_metrics();
    run_calibration_with(&mut s, &boot, &mut rng, &mut scratch).unwrap();
    for i in 0..n_reads {
        let t = Celsius(-20.0 + 12.0 * i as f64);
        run_conversion_with(
            &s,
            &SensorInputs::new(&die, DieSite::CENTER, t),
            &mut rng,
            &mut scratch,
        )
        .unwrap();
    }

    let snap = scratch.metrics().unwrap().snapshot();
    assert_eq!(snap.counter("pipeline.calibrations"), Some(1));
    assert_eq!(snap.counter("pipeline.conversions"), Some(n_reads));
    assert_eq!(snap.counter("pipeline.errors"), Some(0));
    // Calibration gates 5 channels (the 4-measurement plan + the TSRO
    // reference); each conversion gates 3. No retries on a nominal die.
    assert_eq!(
        snap.counter("acquire.replicas"),
        Some((5 + 3 * n_reads) * replicas)
    );
    assert_eq!(snap.counter("gate.retries"), Some(0));
    assert_eq!(snap.counter("gate.channels_lost"), Some(0));
    assert_eq!(snap.counter("solve.degraded_temp_only"), Some(0));
    // One health tally per completed conversion/calibration, all nominal.
    assert_eq!(snap.counter("health.nominal"), Some(n_reads + 1));
    assert_eq!(snap.counter("health.recovered"), Some(0));
    assert_eq!(snap.counter("health.degraded"), Some(0));
    // Newton work was recorded and every conversion's energy was observed.
    assert!(snap.counter("solve.newton_iterations").unwrap() >= n_reads);
    assert_eq!(
        snap.histogram("energy.conversion_pj").unwrap().total,
        n_reads
    );
    assert_eq!(snap.histogram("span.conversion_us").unwrap().total, n_reads);
}

#[test]
fn merged_worker_metrics_match_the_sequential_run() {
    // The deterministic subset of the snapshot — counters and the energy
    // histogram — must be independent of how dies were scheduled across
    // workers. Span histograms record wall-clock time and are excluded.
    let campaign = |threads: usize| {
        let tech = Technology::n65();
        let model = VariationModel::new(&tech);
        let plan = BatchPlan::new(tech, SensorSpec::default_65nm())
            .unwrap()
            .read_at(&[40.0, 85.0]);
        let mut cfg = McConfig::new(12, 0xcafe);
        cfg.threads = threads;
        let (_, reports) = run_parallel_with(
            &cfg,
            || (plan.sensor(), Scratch::with_metrics()),
            |(s, sc), i, rng| {
                let die = model.sample_die_with_id(rng, i);
                s.clear_faults();
                plan.convert_with_scratch(s, &die, rng, sc).unwrap();
            },
        );
        let mut total = PipelineMetrics::new();
        for mut r in reports {
            if let Some(m) = r.ctx.1.take_metrics() {
                total.merge(&m);
            }
        }
        total.snapshot().filtered(|name| !name.starts_with("span."))
    };

    let sequential = campaign(1);
    let parallel = campaign(4);
    assert_eq!(sequential, parallel);
    assert_eq!(sequential.counter("pipeline.conversions"), Some(24));
    assert_eq!(sequential.counter("pipeline.calibrations"), Some(12));
}

#[test]
fn population_metrics_are_thread_invariant_under_the_lane_kernel() {
    // Same invariant as above, but through the struct-of-arrays population
    // path: run_population_with_metrics chunks dies LANES at a time, and
    // the merged deterministic subset must not depend on how those chunks
    // were scheduled across workers. 21 dies forces a masked tail chunk.
    let tech = Technology::n65();
    let model = VariationModel::new(&tech);
    let plan = BatchPlan::new(tech, SensorSpec::default_65nm())
        .unwrap()
        .read_at(&[40.0, 85.0]);

    let campaign = |threads: usize| {
        let mut cfg = McConfig::new(21, 0xcafe);
        cfg.threads = threads;
        let (results, metrics) = plan.run_population_with_metrics(&cfg, &model);
        let snap = metrics
            .snapshot()
            .filtered(|name| !name.starts_with("span."));
        (results, snap)
    };

    let (seq_results, sequential) = campaign(1);
    let (par_results, parallel) = campaign(4);
    assert_eq!(seq_results, par_results);
    assert_eq!(sequential, parallel);
    assert_eq!(sequential.counter("pipeline.conversions"), Some(42));
    assert_eq!(sequential.counter("pipeline.calibrations"), Some(21));

    // Metering reads, never perturbs: the metered lane run is bit-identical
    // to the unmetered one, which is itself gated against the scalar oracle.
    let mut cfg = McConfig::new(21, 0xcafe);
    cfg.threads = 4;
    assert_eq!(seq_results, plan.run_population(&cfg, &model));
    assert_eq!(seq_results, plan.run_population_scalar(&cfg, &model));
}
