//! End-to-end behavior of the full sensor through its public API:
//! calibration accuracy, conversion accuracy/energy, and the hardened
//! fault-detection/degradation chain. Stage-level unit tests live next to
//! the pipeline modules; these exercise the composed datapath exactly like
//! an application would.

use ptsim_core::calib::Calibration;
use ptsim_core::error::SensorError;
use ptsim_core::health::{HealthEvent, HealthStatus};
use ptsim_core::sensor::{HardeningSpec, PtSensor, SensorInputs, SensorSpec};
use ptsim_device::process::Technology;
use ptsim_device::units::{Celsius, Hertz, Volt};
use ptsim_faults::{Channel, Fault, FaultPlan, ReplicaSel};
use ptsim_mc::die::{DieSample, DieSite};
use ptsim_mc::model::VariationModel;
use ptsim_rng::Pcg64;

fn sensor() -> PtSensor {
    PtSensor::new(Technology::n65(), SensorSpec::default_65nm()).unwrap()
}

fn calibrated_on(die: &DieSample, seed: u64) -> PtSensor {
    let mut s = sensor();
    let inputs = SensorInputs::new(die, DieSite::CENTER, Celsius(25.0));
    let mut rng = Pcg64::seed_from_u64(seed);
    s.calibrate(&inputs, &mut rng).unwrap();
    s
}

#[test]
fn read_before_calibration_fails() {
    let s = sensor();
    let die = DieSample::nominal();
    let inputs = SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0));
    let mut rng = Pcg64::seed_from_u64(0);
    assert_eq!(
        s.read(&inputs, &mut rng).unwrap_err(),
        SensorError::NotCalibrated
    );
}

#[test]
fn nominal_die_calibrates_to_near_zero_shifts() {
    let die = DieSample::nominal();
    let s = calibrated_on(&die, 1);
    let cal = s.calibration().unwrap();
    assert!(
        cal.d_vtn().millivolts().abs() < 1.0,
        "d_vtn {}",
        cal.d_vtn()
    );
    assert!(
        cal.d_vtp().millivolts().abs() < 1.0,
        "d_vtp {}",
        cal.d_vtp()
    );
    assert!((cal.mu_n() - 1.0).abs() < 0.01);
    assert!((cal.mu_p() - 1.0).abs() < 0.01);
}

#[test]
fn calibration_recovers_known_d2d_shift() {
    let mut die = DieSample::nominal();
    die.d_vtn_d2d = Volt(0.025);
    die.d_vtp_d2d = Volt(-0.015);
    die.mu_n_d2d = 1.04;
    die.mu_p_d2d = 0.97;
    let s = calibrated_on(&die, 2);
    let cal = s.calibration().unwrap();
    assert!(
        (cal.d_vtn().0 - 0.025).abs() < 2e-3,
        "d_vtn {} vs 25 mV",
        cal.d_vtn()
    );
    assert!(
        (cal.d_vtp().0 + 0.015).abs() < 2e-3,
        "d_vtp {} vs -15 mV",
        cal.d_vtp()
    );
    assert!((cal.mu_n() - 1.04).abs() < 0.02, "mu_n {}", cal.mu_n());
    assert!((cal.mu_p() - 0.97).abs() < 0.02, "mu_p {}", cal.mu_p());
}

#[test]
fn temperature_readback_accurate_across_range() {
    let die = DieSample::nominal();
    let s = calibrated_on(&die, 3);
    let mut rng = Pcg64::seed_from_u64(33);
    for t in [-20.0, 0.0, 25.0, 50.0, 75.0, 100.0] {
        let inputs = SensorInputs::new(&die, DieSite::CENTER, Celsius(t));
        let r = s.read(&inputs, &mut rng).unwrap();
        let err = r.temperature.0 - t;
        assert!(
            err.abs() < 1.5,
            "at {t} °C error {err:.3} °C exceeds ±1.5 °C"
        );
        assert!(
            r.health.is_nominal(),
            "healthy read flagged: {:?}",
            r.health
        );
    }
}

#[test]
fn temperature_accuracy_on_varied_die() {
    // A full Monte-Carlo die (D2D + WID) must still read within spec.
    let model = VariationModel::new(&Technology::n65());
    let mut rng = Pcg64::seed_from_u64(7);
    let die = model.sample_die(&mut rng);
    let s = calibrated_on(&die, 8);
    for t in [0.0, 50.0, 100.0] {
        let inputs = SensorInputs::new(&die, DieSite::CENTER, Celsius(t));
        let r = s.read(&inputs, &mut rng).unwrap();
        let err = r.temperature.0 - t;
        assert!(err.abs() < 2.0, "at {t} °C error {err:.3} °C");
    }
}

#[test]
fn vt_tracking_follows_stress_shift() {
    let die = DieSample::nominal();
    let s = calibrated_on(&die, 4);
    let mut rng = Pcg64::seed_from_u64(44);
    let base = SensorInputs::new(&die, DieSite::CENTER, Celsius(60.0));
    let stressed = base.with_stress(Volt(0.004), Volt(-0.002));
    let r0 = s.read(&base, &mut rng).unwrap();
    let r1 = s.read(&stressed, &mut rng).unwrap();
    let dn = (r1.d_vtn - r0.d_vtn).millivolts();
    let dp = (r1.d_vtp - r0.d_vtp).millivolts();
    assert!((dn - 4.0).abs() < 1.0, "tracked ΔVtn {dn:.2} mV vs 4 mV");
    assert!((dp + 2.0).abs() < 1.0, "tracked ΔVtp {dp:.2} mV vs -2 mV");
}

#[test]
fn reading_reports_energy_breakdown() {
    let die = DieSample::nominal();
    let s = calibrated_on(&die, 5);
    let mut rng = Pcg64::seed_from_u64(55);
    let inputs = SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0));
    let r = s.read(&inputs, &mut rng).unwrap();
    for comp in [
        "TSRO",
        "PSRO-N",
        "PSRO-P",
        "counters",
        "controller",
        "solver",
    ] {
        assert!(
            r.energy.component(comp).0 > 0.0,
            "missing energy component {comp}"
        );
    }
    let total_pj = r.energy_total().picojoules();
    assert!(
        total_pj > 50.0 && total_pj < 2000.0,
        "conversion energy {total_pj:.1} pJ implausible"
    );
}

#[test]
fn nominal_conversion_energy_matches_paper() {
    // The abstract reports 367.5 pJ per conversion; the reference spec is
    // tuned to land there at the nominal corner, 25 °C.
    let die = DieSample::nominal();
    let s = calibrated_on(&die, 42);
    let mut rng = Pcg64::seed_from_u64(42);
    let inputs = SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0));
    let r = s.read(&inputs, &mut rng).unwrap();
    let pj = r.energy_total().picojoules();
    assert!(
        (pj - 367.5).abs() < 8.0,
        "conversion energy {pj:.1} pJ vs paper 367.5 pJ"
    );
}

#[test]
fn out_of_range_temperature_rejected() {
    let die = DieSample::nominal();
    let mut spec = SensorSpec::default_65nm();
    spec.temp_range = (Celsius(0.0), Celsius(50.0));
    let mut s = PtSensor::new(Technology::n65(), spec).unwrap();
    let mut rng = Pcg64::seed_from_u64(6);
    s.calibrate(
        &SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0)),
        &mut rng,
    )
    .unwrap();
    let hot = SensorInputs::new(&die, DieSite::CENTER, Celsius(120.0));
    assert!(matches!(
        s.read(&hot, &mut rng),
        Err(SensorError::TemperatureOutOfRange { .. })
    ));
}

#[test]
fn set_calibration_replays_stored_state() {
    let die = DieSample::nominal();
    let s1 = calibrated_on(&die, 9);
    let cal = *s1.calibration().unwrap();
    // Registers replayed from non-volatile memory equal the calibration
    // that wrote them and the one installed from them: the start anchor a
    // sensor derives is not a register.
    let replayed = Calibration::store(
        cal.d_vtn(),
        cal.d_vtp(),
        cal.mu_n(),
        cal.mu_p(),
        cal.ln_tsro_scale(),
        cal.calib_temp(),
        cal.format(),
    );
    assert_eq!(replayed, cal);
    let mut s2 = sensor();
    s2.set_calibration(replayed);
    assert_eq!(*s2.calibration().unwrap(), replayed);
    let mut rng = Pcg64::seed_from_u64(99);
    let inputs = SensorInputs::new(&die, DieSite::CENTER, Celsius(40.0));
    let r = s2.read(&inputs, &mut rng).unwrap();
    assert!((r.temperature.0 - 40.0).abs() < 1.5);
}

#[test]
fn boot_temperature_error_degrades_accuracy() {
    // Calibrating while the die is actually 10 °C hotter than assumed
    // biases subsequent readings.
    let die = DieSample::nominal();
    let mut good = sensor();
    let mut bad = sensor();
    let mut rng = Pcg64::seed_from_u64(10);
    good.calibrate(
        &SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0)),
        &mut rng,
    )
    .unwrap();
    bad.calibrate(
        &SensorInputs::new(&die, DieSite::CENTER, Celsius(35.0)),
        &mut rng,
    )
    .unwrap();
    let probe = SensorInputs::new(&die, DieSite::CENTER, Celsius(80.0));
    let e_good = (good.read(&probe, &mut rng).unwrap().temperature.0 - 80.0).abs();
    let e_bad = (bad.read(&probe, &mut rng).unwrap().temperature.0 - 80.0).abs();
    assert!(e_bad > e_good, "boot error must hurt: {e_bad} vs {e_good}");
}

// --- fault-injection / graceful-degradation behavior ---

fn faulted_inputs(die: &DieSample, t: f64) -> SensorInputs<'_> {
    SensorInputs::new(die, DieSite::CENTER, Celsius(t))
}

#[test]
fn dead_tsro_is_a_detected_channel_failure() {
    let die = DieSample::nominal();
    let mut s = calibrated_on(&die, 20);
    s.inject_faults(FaultPlan::single(Fault::DeadRoStage {
        channel: Channel::Tsro,
        replica: ReplicaSel::All,
    }));
    let mut rng = Pcg64::seed_from_u64(20);
    assert!(matches!(
        s.read(&faulted_inputs(&die, 85.0), &mut rng),
        Err(SensorError::ChannelFailed { channel: "TSRO" })
    ));
}

#[test]
fn dead_psro_degrades_to_accurate_temperature_only() {
    let die = DieSample::nominal();
    let mut s = calibrated_on(&die, 21);
    s.inject_faults(FaultPlan::single(Fault::DeadRoStage {
        channel: Channel::PsroN,
        replica: ReplicaSel::All,
    }));
    let mut rng = Pcg64::seed_from_u64(21);
    let r = s.read(&faulted_inputs(&die, 85.0), &mut rng).unwrap();
    assert_eq!(r.health.status(), HealthStatus::Degraded);
    assert!(r
        .health
        .any(|e| matches!(e, HealthEvent::DegradedTemperatureOnly)));
    assert!(r
        .health
        .any(|e| matches!(e, HealthEvent::ChannelLost { channel: "PSRO-N" })));
    assert!(
        (r.temperature.0 - 85.0).abs() < 3.0,
        "degraded temp {} vs 85 °C",
        r.temperature
    );
    // Threshold outputs frozen at calibration; lost channel reads 0 Hz.
    assert_eq!(r.d_vtn, s.calibration().unwrap().d_vtn());
    assert_eq!(r.raw_frequencies.1, Hertz(0.0));
}

#[test]
fn calib_register_seu_is_caught_by_parity_and_scrubbed() {
    let die = DieSample::nominal();
    let mut s = calibrated_on(&die, 22);
    s.inject_faults(FaultPlan::single(Fault::CalibRegisterSeu {
        register: 0,
        bit: 14,
    }));
    let mut rng = Pcg64::seed_from_u64(22);
    let err = s.read(&faulted_inputs(&die, 85.0), &mut rng).unwrap_err();
    assert_eq!(
        err,
        SensorError::CalibrationCorrupted { registers: 0b00001 }
    );
    // Scrub recovers by recalibrating; the record says why.
    let outcome = s
        .parity_scrub(&faulted_inputs(&die, 25.0), &mut rng)
        .unwrap()
        .expect("scrub must trigger");
    assert!(outcome
        .health
        .any(|e| matches!(e, HealthEvent::ParityScrubbed { registers: 0b00001 })));
    let r = s.read(&faulted_inputs(&die, 85.0), &mut rng).unwrap();
    assert!((r.temperature.0 - 85.0).abs() < 1.5);
    // A second scrub is a no-op.
    assert!(s
        .parity_scrub(&faulted_inputs(&die, 25.0), &mut rng)
        .unwrap()
        .is_none());
}

#[test]
fn stuck_counter_bit_on_one_replica_is_outvoted() {
    let die = DieSample::nominal();
    let mut spec = SensorSpec::default_65nm();
    spec.hardening = HardeningSpec::redundant();
    let mut s = PtSensor::new(Technology::n65(), spec).unwrap();
    let mut rng = Pcg64::seed_from_u64(23);
    s.calibrate(&faulted_inputs(&die, 25.0), &mut rng).unwrap();
    s.inject_faults(FaultPlan::single(Fault::CounterStuckBit {
        replica: ReplicaSel::Index(0),
        bit: 12,
        stuck_high: true,
    }));
    let r = s.read(&faulted_inputs(&die, 85.0), &mut rng).unwrap();
    assert!(r.health.flagged(), "stuck bit must be flagged");
    assert!(
        (r.temperature.0 - 85.0).abs() < 2.0,
        "voted temp {} vs 85 °C",
        r.temperature
    );
}

#[test]
fn redundant_healthy_sensor_is_not_falsely_flagged() {
    let die = DieSample::nominal();
    let mut spec = SensorSpec::default_65nm();
    spec.hardening = HardeningSpec::redundant();
    let mut s = PtSensor::new(Technology::n65(), spec).unwrap();
    let mut rng = Pcg64::seed_from_u64(24);
    let outcome = s.calibrate(&faulted_inputs(&die, 25.0), &mut rng).unwrap();
    assert!(outcome.health.is_nominal(), "{:?}", outcome.health);
    for t in [0.0, 50.0, 100.0] {
        let r = s.read(&faulted_inputs(&die, t), &mut rng).unwrap();
        assert!(r.health.is_nominal(), "at {t} °C: {:?}", r.health);
    }
}

#[test]
fn clear_faults_restores_nominal_operation() {
    let die = DieSample::nominal();
    let mut s = calibrated_on(&die, 25);
    s.inject_faults(FaultPlan::single(Fault::DeadRoStage {
        channel: Channel::PsroN,
        replica: ReplicaSel::All,
    }));
    assert!(!s.faults().is_empty());
    s.clear_faults();
    assert!(s.faults().is_empty());
    let mut rng = Pcg64::seed_from_u64(25);
    let r = s.read(&faulted_inputs(&die, 60.0), &mut rng).unwrap();
    assert!(r.health.is_nominal());
    assert!((r.temperature.0 - 60.0).abs() < 1.5);
}

#[test]
fn retry_energy_is_charged_when_a_channel_recovers() {
    // A dead PSRO-N reads 0 Hz — always below the plausibility band — so
    // the controller retries with the widened window before declaring the
    // channel lost. The ledger must carry that overhead.
    let die = DieSample::nominal();
    let mut s = calibrated_on(&die, 26);
    s.inject_faults(FaultPlan::single(Fault::DeadRoStage {
        channel: Channel::PsroN,
        replica: ReplicaSel::All,
    }));
    let mut rng = Pcg64::seed_from_u64(26);
    let r = s.read(&faulted_inputs(&die, 85.0), &mut rng).unwrap();
    assert!(r.health.any(|e| matches!(
        e,
        HealthEvent::RetriedWindow {
            channel: "PSRO-N",
            ..
        }
    )));
    assert!(
        r.energy.component("retry").0 > 0.0,
        "retry energy must be charged"
    );
    assert_eq!(r.health.status(), HealthStatus::Degraded);
}
