//! Enforces the hot-path allocation contract with a counting global
//! allocator: after the first conversion warms up the reused
//! [`Scratch`](ptsim_core::Scratch) workspace, the healthy analytic
//! conversion path performs **zero** heap allocations per die.
//!
//! Integration tests are separate binaries, so installing a counting
//! `#[global_allocator]` here observes every allocation the conversion
//! makes without affecting any other test. The count is per thread: each
//! test measures its own single-threaded hot path.

use ptsim_circuit::energy::EnergyLedger;
use ptsim_core::health::Health;
use ptsim_core::pipeline::{gate, run_conversion_with, solve_gated_lanes, LaneBatch, LANES};
use ptsim_core::sensor::{PtSensor, SensorInputs, SensorSpec};
use ptsim_core::Scratch;
use ptsim_device::process::Technology;
use ptsim_device::units::{Celsius, Seconds, Volt, Watt};
use ptsim_mc::die::{DieSample, DieSite};
use ptsim_rng::Pcg64;
use ptsim_thermal::{step_transient_with, TransientScratch};
use ptsim_tsv::topology::StackTopology;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting every allocation made by the
/// calling thread.
struct CountingAlloc;

thread_local! {
    // Per-thread, so the tests of this binary, which the harness runs on
    // parallel threads, never see each other's allocations.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// Tests are not built with `--cfg ptsim` pedantry: unsafe is confined to the
// trait forwarding below.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn warm_conversion_path_is_allocation_free() {
    let mut die = DieSample::nominal();
    die.d_vtn_d2d = Volt(0.012);
    die.d_vtp_d2d = Volt(-0.008);
    let mut sensor = PtSensor::new(Technology::n65(), SensorSpec::default_65nm()).unwrap();
    let mut rng = Pcg64::seed_from_u64(0xa110c);
    sensor
        .calibrate(
            &SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0)),
            &mut rng,
        )
        .unwrap();

    let temps = [Celsius(-10.0), Celsius(25.0), Celsius(60.0), Celsius(95.0)];
    let mut scratch = Scratch::new();

    // Warm-up: the first conversion is allowed to size the scratch buffers.
    let warm = run_conversion_with(
        &sensor,
        &SensorInputs::new(&die, DieSite::CENTER, temps[0]),
        &mut rng,
        &mut scratch,
    )
    .unwrap();
    assert!(warm.temperature.0.is_finite());

    // Measured region: every subsequent conversion must reuse the warmed
    // scratch without touching the heap.
    let before = allocations();
    let mut checksum = 0.0;
    for _ in 0..8 {
        for &t in &temps {
            let r = run_conversion_with(
                &sensor,
                &SensorInputs::new(&die, DieSite::CENTER, t),
                &mut rng,
                &mut scratch,
            )
            .unwrap();
            checksum += r.temperature.0;
        }
    }
    let after = allocations();

    assert!(checksum.is_finite());
    assert_eq!(
        after - before,
        0,
        "warm conversions allocated {} times",
        after - before
    );
}

#[test]
fn warm_conversion_path_with_metrics_is_allocation_free() {
    // The observability layer must not break the hot-path contract: with a
    // metrics-enabled scratch, every counter/histogram/span update is an
    // indexed write into buffers registered at construction. Construction
    // and warm-up may allocate (registry vectors, the one-time PTSIM_TRACE
    // lookup); the measured region must not.
    let die = DieSample::nominal();
    let mut sensor = PtSensor::new(Technology::n65(), SensorSpec::default_65nm()).unwrap();
    let mut rng = Pcg64::seed_from_u64(0xa110d);
    sensor
        .calibrate(
            &SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0)),
            &mut rng,
        )
        .unwrap();

    let temps = [Celsius(-10.0), Celsius(25.0), Celsius(60.0), Celsius(95.0)];
    let mut scratch = Scratch::with_metrics();

    let warm = run_conversion_with(
        &sensor,
        &SensorInputs::new(&die, DieSite::CENTER, temps[0]),
        &mut rng,
        &mut scratch,
    )
    .unwrap();
    assert!(warm.temperature.0.is_finite());

    let before = allocations();
    let mut checksum = 0.0;
    for _ in 0..8 {
        for &t in &temps {
            let r = run_conversion_with(
                &sensor,
                &SensorInputs::new(&die, DieSite::CENTER, t),
                &mut rng,
                &mut scratch,
            )
            .unwrap();
            checksum += r.temperature.0;
        }
    }
    let after = allocations();

    assert!(checksum.is_finite());
    assert_eq!(
        after - before,
        0,
        "instrumented warm conversions allocated {} times",
        after - before
    );
    // And the metrics actually observed the measured conversions.
    let snap = scratch.metrics().expect("metrics attached").snapshot();
    assert_eq!(snap.counter("pipeline.conversions"), Some(33));
}

#[test]
fn warm_read_after_a_fresh_calibration_is_allocation_free() {
    // A conversion starts its Newton solve at a temperature predicted from
    // a design-time TSRO table, which a sensor builds on its first
    // calibration (and shares with its clones). So the first read after
    // the first calibration of a fresh sensor, on a warm scratch, must not
    // touch the heap: the table is never built on the read path.
    let die = DieSample::nominal();
    let mut rng = Pcg64::seed_from_u64(0xa110f);
    let boot = SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0));
    let read = SensorInputs::new(&die, DieSite::CENTER, Celsius(110.0));
    let mut scratch = Scratch::new();
    let mut warm = PtSensor::new(Technology::n65(), SensorSpec::default_65nm()).unwrap();
    warm.calibrate(&boot, &mut rng).unwrap();
    run_conversion_with(&warm, &read, &mut rng, &mut scratch).unwrap();

    let mut fresh = PtSensor::new(Technology::n65(), SensorSpec::default_65nm()).unwrap();
    fresh.calibrate(&boot, &mut rng).unwrap();
    let before = allocations();
    let r = run_conversion_with(&fresh, &read, &mut rng, &mut scratch).unwrap();
    let after = allocations();

    assert!((r.temperature.0 - 110.0).abs() < 2.0, "{}", r.temperature.0);
    assert_eq!(
        after - before,
        0,
        "the first read after a fresh calibration allocated {} times",
        after - before
    );
}

#[test]
fn warm_transient_step_is_allocation_free() {
    // The 2 ms DTM control-loop tick on the R3 stack (16×16×4 with a TSV
    // array adding vertical conductance at every interface): retune
    // per-cell power in place (`power_mut` + `set_cell`), then advance the
    // stack with the caller-held scratch. Every substep writes the scratch
    // field and swaps it with the stack's, so an odd substep count leaves
    // the two buffers exchanged; the tick (25 substeps) and a double tick
    // (50) cover both parities. The first step sizes the stencil and field
    // buffers; every warm step after that must not touch the heap.
    let mut stack = StackTopology::reference_four_tier()
        .build_thermal()
        .unwrap();
    stack
        .power_mut(0)
        .unwrap()
        .add_hotspot(0.5, 0.5, 0.15, Watt(2.0))
        .unwrap();
    let mut scratch = TransientScratch::new();
    let tick = Seconds(0.002);
    let double_tick = Seconds(0.004);

    // Warm-up step.
    assert_eq!(step_transient_with(&mut stack, tick, &mut scratch), 25);

    let before = allocations();
    for i in 0..16usize {
        // A moving hotspot, written straight into the stored map.
        let map = stack.power_mut(0).unwrap();
        map.set_cell(i % 16, (3 * i) % 16, Watt(4.0)).unwrap();
        map.set_cell((i + 7) % 16, i % 16, Watt(0.5)).unwrap();
        let (dt, substeps) = if i % 2 == 0 {
            (tick, 25)
        } else {
            (double_tick, 50)
        };
        assert_eq!(step_transient_with(&mut stack, dt, &mut scratch), substeps);
    }
    let after = allocations();

    let probe = stack.max_temperature(0).unwrap();
    assert!(probe.0.is_finite() && probe.0 > 25.0);
    assert_eq!(
        after - before,
        0,
        "warm transient steps allocated {} times",
        after - before
    );
}

#[test]
fn warm_lane_kernel_is_allocation_free() {
    // The SoA batch kernel carries all solver state in fixed-size stack
    // arrays: once the shared scratch is warm, filling a LaneBatch and
    // solving all eight lanes jointly must not touch the heap.
    let die = DieSample::nominal();
    let mut sensor = PtSensor::new(Technology::n65(), SensorSpec::default_65nm()).unwrap();
    let mut rng = Pcg64::seed_from_u64(0xa110e);
    let boot = SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0));
    sensor.calibrate(&boot, &mut rng).unwrap();
    let cal = *sensor.calibration().expect("calibrated above");

    // Gate eight conversions up front (gating draws RNG and may size
    // buffers); the measured region is pure lane work.
    let temps = [-10.0, 5.0, 20.0, 35.0, 50.0, 65.0, 80.0, 95.0];
    let gateds: Vec<_> = temps
        .iter()
        .map(|&t| {
            let inputs = SensorInputs::new(&die, DieSite::CENTER, Celsius(t));
            let mut ledger = EnergyLedger::new();
            let mut health = Health::nominal();
            gate::gate_conversion(&sensor, &inputs, &mut rng, &mut ledger, &mut health).unwrap()
        })
        .collect();

    let mut batch = LaneBatch::new();
    let mut scratch = Scratch::new();
    let run = |batch: &mut LaneBatch, scratch: &mut Scratch| -> f64 {
        batch.clear();
        for gated in &gateds {
            assert!(LaneBatch::accepts(&sensor, gated));
            batch.push(&cal, gated);
        }
        let mut healths: [Health; LANES] = core::array::from_fn(|_| Health::nominal());
        let mut out: [Option<_>; LANES] = core::array::from_fn(|_| None);
        solve_gated_lanes(&sensor, batch, &mut healths, scratch, &mut out);
        out.iter()
            .flatten()
            .map(|r| r.as_ref().unwrap().temperature)
            .sum()
    };

    // Warm-up sizes the Newton scratch; the measured solves reuse it.
    let warm = run(&mut batch, &mut scratch);
    assert!(warm.is_finite());

    let before = allocations();
    let mut checksum = 0.0;
    for _ in 0..8 {
        checksum += run(&mut batch, &mut scratch);
    }
    let after = allocations();

    assert!(checksum.is_finite());
    assert_eq!(
        after - before,
        0,
        "warm lane solves allocated {} times",
        after - before
    );
}
