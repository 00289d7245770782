//! SoA-vs-scalar equivalence gates for the lane kernel:
//!
//! * randomized populations through `BatchPlan::run_population` are
//!   bit-identical to the retained scalar oracle for **every** tail
//!   length mod [`LANES`] (0 through 2×LANES dies);
//! * `convert_batch` edge sizes (0, 1, 7, 8, 9 inputs) match a scalar
//!   `convert` loop bit for bit;
//! * a die forced into Newton divergence in lane *k* falls back to the
//!   scalar escalation ladder — same `Reading`, same `SolverRetuned`/
//!   `RomFallback` health events — and never perturbs neighboring lanes;
//!   so does a lane whose residual is NaN;
//! * a `read_group` whose members mix uncalibrated, parity-corrupted,
//!   degraded, diverging and healthy sensors across a chunk boundary
//!   returns, per member, exactly that member's scalar read and leaves its
//!   stream where the scalar read does;
//! * the kernel's shared bias factors are derived from the supplies, so a
//!   bank whose TSRO runs at `vdd_low` (all three rings share one factor
//!   per polarity) and any valid set of bank supplies stay bit-identical
//!   to the unshared scalar oracle.

use ptsim_circuit::EnergyLedger;
use ptsim_core::health::{Health, HealthEvent};
use ptsim_core::pipeline::gate::gate_conversion;
use ptsim_core::pipeline::solve::solve_gated;
use ptsim_core::pipeline::{
    read_group, solve_gated_lanes, BatchPlan, Gated, LaneBatch, Scratch, Solved, LANES,
};
use ptsim_core::sensor::{PtSensor, SensorInputs, SensorSpec};
use ptsim_core::{Conversion, SensorError};
use ptsim_device::process::Technology;
use ptsim_device::units::{Celsius, Hertz, Volt};
use ptsim_faults::{Channel, Fault, FaultPlan, ReplicaSel};
use ptsim_mc::die::{DieSample, DieSite};
use ptsim_mc::driver::McConfig;
use ptsim_mc::model::VariationModel;
use ptsim_rng::{forall, Pcg64, RngCore};

fn plan() -> BatchPlan {
    plan_for(SensorSpec::default_65nm())
}

fn plan_for(spec: SensorSpec) -> BatchPlan {
    BatchPlan::new(Technology::n65(), spec)
        .unwrap()
        .read_at(&[10.0, 85.0])
}

/// Bit patterns of a solve result: `Solved` carries no `PartialEq`, and a
/// NaN must compare equal to itself here.
fn solve_bits(r: &Result<Solved, SensorError>) -> String {
    match r {
        Ok(s) => format!(
            "{:x} {:x} {:x} {}",
            s.temperature.to_bits(),
            s.d_vtn.to_bits(),
            s.d_vtp.to_bits(),
            s.iterations
        ),
        Err(e) => format!("{e:?}"),
    }
}

/// A fault plan that makes the joint 3×3 conversion solve diverge under
/// the default Newton tuning (the measured PSROs contradict each other by
/// almost two decades) while both channels still pass plausibility gating:
/// the solver escalates through `SolverRetuned` to `RomFallback`.
fn diverging_faults() -> FaultPlan {
    FaultPlan::new()
        .with(Fault::SlowRo {
            channel: Channel::PsroN,
            replica: ReplicaSel::All,
            factor: 0.1,
        })
        .with(Fault::SlowRo {
            channel: Channel::PsroP,
            replica: ReplicaSel::All,
            factor: 8.0,
        })
}

#[test]
fn edge_populations_match_the_scalar_oracle() {
    // 0 = empty, 1 = lone masked lane, 7/9 = tails straddling a chunk
    // boundary, 8 = exactly one full chunk.
    let p = plan();
    let model = VariationModel::new(&Technology::n65());
    for n in [0usize, 1, 7, 8, 9] {
        let cfg = McConfig::new(n, 0x1a9e ^ n as u64);
        let lane = p.run_population(&cfg, &model);
        let scalar = p.run_population_scalar(&cfg, &model);
        assert_eq!(lane.len(), n);
        assert_eq!(lane, scalar, "population of {n} diverged from the oracle");
        for r in &lane {
            r.as_ref().expect("nominal-variation dies convert");
        }
    }
}

#[test]
fn convert_batch_edge_sizes_match_a_scalar_loop() {
    let die = DieSample::nominal();
    let boot = SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0));
    for n in [0usize, 1, 7, 8, 9] {
        let mut sensor = PtSensor::new(Technology::n65(), SensorSpec::default_65nm()).unwrap();
        let mut rng = Pcg64::seed_from_u64(0xba7c ^ n as u64);
        sensor.prepare(&boot, &mut rng).unwrap();
        let inputs: Vec<SensorInputs<'_>> = (0..n)
            .map(|i| SensorInputs::new(&die, DieSite::CENTER, Celsius(-10.0 + 14.0 * i as f64)))
            .collect();

        let mut rng_loop = Pcg64::seed_from_u64(0x5eed ^ n as u64);
        let looped: Result<Vec<_>, _> = inputs
            .iter()
            .map(|i| sensor.convert(i, &mut rng_loop))
            .collect();
        let mut rng_batch = Pcg64::seed_from_u64(0x5eed ^ n as u64);
        let batched = sensor.convert_batch(&inputs, &mut rng_batch);

        assert_eq!(looped.unwrap(), batched.unwrap(), "batch of {n} diverged");
        assert_eq!(rng_loop.next_u64(), rng_batch.next_u64());
    }
}

#[test]
fn tsro_at_vdd_low_shares_one_factor_across_all_rings_bit_identically() {
    // With the TSRO on the PSROs' supply every conversion row shares each
    // polarity's bias factor; the unshared scalar oracle must still agree.
    let mut spec = SensorSpec::default_65nm();
    spec.bank.vdd_tsro = spec.bank.vdd_low;
    let p = plan_for(spec);
    let model = VariationModel::new(&Technology::n65());
    let cfg = McConfig::new(2 * LANES + 3, 0x5a7e);
    let lane = p.run_population(&cfg, &model);
    assert_eq!(lane, p.run_population_scalar(&cfg, &model));
    assert!(
        lane.iter().filter(|r| r.is_ok()).count() > LANES,
        "too few dies convert for the comparison to mean anything: {lane:?}"
    );
}

#[test]
fn nan_lane_falls_back_to_the_scalar_ladder_without_perturbing_neighbors() {
    let die = DieSample::nominal();
    let boot = SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0));
    let mut sensor = PtSensor::new(Technology::n65(), SensorSpec::default_65nm()).unwrap();
    let mut rng = Pcg64::seed_from_u64(0x7a2);
    sensor.prepare(&boot, &mut rng).unwrap();
    let cal = *sensor.calibration().unwrap();
    let gateds: Vec<Gated> = (0..LANES)
        .map(|l| {
            let inputs = SensorInputs::new(&die, DieSite::CENTER, Celsius(-20.0 + 15.0 * l as f64));
            let (mut ledger, mut health) = (EnergyLedger::new(), Health::nominal());
            gate_conversion(&sensor, &inputs, &mut rng, &mut ledger, &mut health).unwrap()
        })
        .collect();
    let solve_lanes = |gateds: &[Gated]| {
        let mut batch = LaneBatch::new();
        for g in gateds {
            batch.push(&cal, g);
        }
        let mut healths = vec![Health::nominal(); LANES];
        let mut out: Vec<Option<Result<Solved, SensorError>>> = vec![None; LANES];
        solve_gated_lanes(&sensor, &batch, &mut healths, &mut Scratch::new(), &mut out);
        let out: Vec<_> = out
            .iter()
            .map(|r| solve_bits(r.as_ref().unwrap()))
            .collect();
        (out, healths)
    };
    let (clean, clean_healths) = solve_lanes(&gateds);
    for k in 0..LANES {
        let mut faulted = gateds.clone();
        faulted[k].f_tsro = Hertz(f64::NAN);
        let (got, healths) = solve_lanes(&faulted);
        let mut health = Health::nominal();
        let oracle = solve_gated(&sensor, &cal, &faulted[k], &mut health);
        assert_eq!(got[k], solve_bits(&oracle), "NaN lane {k}");
        assert_eq!(healths[k], health, "NaN lane {k}");
        assert!(
            health
                .events()
                .iter()
                .any(|e| matches!(e, HealthEvent::RomFallback { .. })),
            "NaN lane {k} never reached the ROM fallback: {:?}",
            health.events()
        );
        for l in (0..LANES).filter(|&l| l != k) {
            assert_eq!(got[l], clean[l], "NaN lane {k} perturbed lane {l}");
            assert_eq!(
                healths[l], clean_healths[l],
                "NaN lane {k} perturbed lane {l}"
            );
        }
    }
}

#[test]
fn read_group_mixed_members_match_scalar_reads() {
    // 11 members cross the 8-lane chunk. Member 1 is uncalibrated, 4 has a
    // flipped calibration register, 8 has lost its PSRO-N bank (degraded,
    // scalar ladder), 10 diverges under the default tuning; the rest are
    // healthy lane members.
    const MEMBERS: usize = 11;
    let die = DieSample::nominal();
    let boot = SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0));
    let build = || {
        let mut sensors = Vec::with_capacity(MEMBERS);
        let mut rngs = Vec::with_capacity(MEMBERS);
        for m in 0..MEMBERS {
            let mut s = PtSensor::new(Technology::n65(), SensorSpec::default_65nm()).unwrap();
            let mut rng = Pcg64::seed_from_u64(0x6e0 ^ m as u64);
            if m != 1 {
                s.prepare(&boot, &mut rng).unwrap();
            }
            match m {
                4 => s.inject_faults(FaultPlan::single(Fault::CalibRegisterSeu {
                    register: 1,
                    bit: 7,
                })),
                8 => s.inject_faults(FaultPlan::single(Fault::DeadRoStage {
                    channel: Channel::PsroN,
                    replica: ReplicaSel::All,
                })),
                10 => s.inject_faults(diverging_faults()),
                _ => {}
            }
            sensors.push(s);
            rngs.push(rng);
        }
        (sensors, rngs)
    };
    let inputs: Vec<SensorInputs<'_>> = (0..MEMBERS)
        .map(|m| SensorInputs::new(&die, DieSite::CENTER, Celsius(-15.0 + 11.0 * m as f64)))
        .collect();

    let (sensors, mut rngs) = build();
    let refs: Vec<&PtSensor> = sensors.iter().collect();
    let mut rng_refs: Vec<&mut Pcg64> = rngs.iter_mut().collect();
    let grouped = read_group(&refs, &inputs, &mut rng_refs);
    assert_eq!(grouped.len(), MEMBERS);

    let (oracle_sensors, mut oracle_rngs) = build();
    for m in 0..MEMBERS {
        let expected = oracle_sensors[m].read(&inputs[m], &mut oracle_rngs[m]);
        assert_eq!(
            grouped[m], expected,
            "member {m} diverged from its scalar read"
        );
        assert_eq!(
            rngs[m].next_u64(),
            oracle_rngs[m].next_u64(),
            "member {m} left its stream elsewhere"
        );
    }
    assert!(matches!(grouped[1], Err(SensorError::NotCalibrated)));
    assert!(matches!(
        grouped[4],
        Err(SensorError::CalibrationCorrupted { .. })
    ));
    let degraded = grouped[8].as_ref().unwrap();
    assert!(degraded
        .health
        .any(|e| matches!(e, HealthEvent::DegradedTemperatureOnly)));
    let diverged = grouped[10].as_ref().unwrap();
    assert!(diverged
        .health
        .any(|e| matches!(e, HealthEvent::RomFallback { .. })));
}

forall! {
    #![cases = 8]

    #[test]
    fn every_tail_length_is_bit_identical_to_the_oracle(
        tail in 0u64..8,
        chunks in 0u64..2,
        seed in 0u64..1_000_000,
    ) {
        let n = (chunks as usize) * LANES + tail as usize;
        let p = plan();
        let model = VariationModel::new(&Technology::n65());
        let cfg = McConfig::new(n, seed);
        assert_eq!(
            p.run_population(&cfg, &model),
            p.run_population_scalar(&cfg, &model),
            "population of {n} (seed {seed:#x}) diverged from the oracle"
        );
    }

    #[test]
    fn divergence_in_lane_k_falls_back_without_perturbing_neighbors(
        k in 0u64..8,
        seed in 0u64..1_000_000,
        dvt in -0.015f64..0.015,
    ) {
        let k = k as usize;
        let mut die = DieSample::nominal();
        die.d_vtn_d2d = Volt(dvt);
        die.d_vtp_d2d = Volt(-dvt);
        let boot = SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0));

        // One calibrated sensor per lane; lane k carries the fault plan
        // that defeats the default Newton tuning.
        let build = |with_fault: bool| {
            let mut sensors = Vec::with_capacity(LANES);
            let mut rngs = Vec::with_capacity(LANES);
            for lane in 0..LANES {
                let mut s =
                    PtSensor::new(Technology::n65(), SensorSpec::default_65nm()).unwrap();
                let mut rng = Pcg64::seed_from_u64(seed ^ (0x1a2e << 8) ^ lane as u64);
                s.prepare(&boot, &mut rng).unwrap();
                if with_fault && lane == k {
                    s.inject_faults(diverging_faults());
                }
                sensors.push(s);
                rngs.push(rng);
            }
            (sensors, rngs)
        };

        // Lane path: one read_group over all eight sensors.
        let (sensors, mut rngs) = build(true);
        let inputs: Vec<SensorInputs<'_>> = (0..LANES)
            .map(|_| SensorInputs::new(&die, DieSite::CENTER, Celsius(85.0)))
            .collect();
        let refs: Vec<&PtSensor> = sensors.iter().collect();
        let mut rng_refs: Vec<&mut Pcg64> = rngs.iter_mut().collect();
        let grouped = read_group(&refs, &inputs, &mut rng_refs);

        // Scalar oracle: identically prepared sensors, one read each.
        let (oracle_sensors, mut oracle_rngs) = build(true);
        for lane in 0..LANES {
            let expected = oracle_sensors[lane]
                .read(&inputs[lane], &mut oracle_rngs[lane])
                .unwrap();
            let got = grouped[lane].as_ref().unwrap();
            assert_eq!(got, &expected, "lane {lane} diverged from the oracle");
        }

        // The faulted lane really took the escalation ladder…
        let events = grouped[k].as_ref().unwrap().health.events().to_vec();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, HealthEvent::SolverRetuned { .. })),
            "lane {k} never retuned: {events:?}"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, HealthEvent::RomFallback { .. })),
            "lane {k} never hit the ROM fallback: {events:?}"
        );

        // …and its neighbors are bit-identical to a group with no faulted
        // lane at all (per-lane RNG streams are independent, so the fault
        // must not leak across lanes).
        let (clean_sensors, mut clean_rngs) = build(false);
        let clean_refs: Vec<&PtSensor> = clean_sensors.iter().collect();
        let mut clean_rng_refs: Vec<&mut Pcg64> = clean_rngs.iter_mut().collect();
        let clean = read_group(&clean_refs, &inputs, &mut clean_rng_refs);
        for lane in (0..LANES).filter(|&l| l != k) {
            assert_eq!(
                grouped[lane].as_ref().unwrap(),
                clean[lane].as_ref().unwrap(),
                "faulted lane {k} perturbed neighbor {lane}"
            );
        }
    }

    #[test]
    fn any_valid_bank_supplies_keep_lane_and_scalar_bit_identical(
        vdd_low in 0.35f64..0.9,
        headroom in 0.05f64..0.5,
        tsro_pick in 0u64..3,
        vdd_tsro in 0.3f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        // The TSRO supply coincides with `vdd_low` (full share), with
        // `vdd_high` (no conversion share), or is free; the calibration
        // plan always shares across its two PSROs per supply.
        let mut spec = SensorSpec::default_65nm();
        spec.bank.vdd_low = Volt(vdd_low);
        spec.bank.vdd_high = Volt((vdd_low + headroom).min(1.4));
        spec.bank.vdd_tsro = match tsro_pick {
            0 => spec.bank.vdd_low,
            1 => spec.bank.vdd_high,
            _ => Volt(vdd_tsro),
        };
        let p = plan_for(spec);
        let model = VariationModel::new(&Technology::n65());
        let cfg = McConfig::new(LANES + 1, seed);
        let lane = p.run_population(&cfg, &model);
        assert_eq!(
            lane,
            p.run_population_scalar(&cfg, &model),
            "supplies {:?} (seed {seed:#x}) diverged from the oracle",
            spec.bank
        );
        assert!(lane.iter().any(Result::is_ok), "no die converts at {:?}", spec.bank);
    }
}
