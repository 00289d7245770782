//! Property-based tests over the whole stack's core invariants.

use ptsim_rng::forall;
use tsv_pt_sensor::prelude::*;

forall! {
    // ---- units ------------------------------------------------------------

    #[test]
    fn celsius_kelvin_round_trip(t in -200.0f64..500.0) {
        let back = Celsius(t).to_kelvin().to_celsius();
        assert!((back.0 - t).abs() < 1e-9);
    }

    #[test]
    fn frequency_period_are_inverse(f in 1.0f64..1e12) {
        let p = Hertz(f).period();
        assert!((p.to_frequency().0 - f).abs() / f < 1e-12);
    }

    // ---- fixed point -------------------------------------------------------

    #[test]
    fn fixed_round_trip_error_bounded(v in -30000.0f64..30000.0) {
        let q = QFormat::Q16_16;
        let err = (Fixed::from_f64(v, q).to_f64() - v).abs();
        assert!(err <= q.resolution() / 2.0 + 1e-12);
    }

    #[test]
    fn fixed_add_commutes(a in -100.0f64..100.0, b in -100.0f64..100.0) {
        let q = QFormat::Q16_16;
        let x = Fixed::from_f64(a, q);
        let y = Fixed::from_f64(b, q);
        assert_eq!(x.add(y).unwrap(), y.add(x).unwrap());
    }

    #[test]
    fn fixed_mul_matches_float_within_lsbs(a in -100.0f64..100.0, b in -100.0f64..100.0) {
        let q = QFormat::Q16_16;
        let x = Fixed::from_f64(a, q);
        let y = Fixed::from_f64(b, q);
        let exact = x.to_f64() * y.to_f64();
        if exact.abs() < q.max_value() {
            let got = x.mul(y).unwrap().to_f64();
            assert!((got - exact).abs() <= 2.0 * q.resolution() * (1.0 + a.abs() + b.abs()));
        }
    }

    // ---- counters ----------------------------------------------------------

    #[test]
    fn counter_estimate_within_one_lsb(f in 1e5f64..1e8, phase in 0.0f64..1.0) {
        let c = GatedCounter::new(24, 32_000).unwrap(); // 1 ms @ 32 MHz
        let rc = Hertz(32e6);
        if !c.overflows(Hertz(f), rc) {
            let est = c.measure(Hertz(f), rc, phase);
            assert!((est.0 - f).abs() <= c.resolution(rc).0 + 1e-9);
        }
    }

    #[test]
    fn counter_monotonic_in_frequency(f in 1e6f64..5e7, df in 1e4f64..1e6) {
        let c = GatedCounter::new(24, 32_000).unwrap();
        let rc = Hertz(32e6);
        let a = c.count(Hertz(f), rc, 0.3);
        let b = c.count(Hertz(f + df), rc, 0.3);
        assert!(b >= a);
    }

    // ---- device physics ----------------------------------------------------

    #[test]
    fn drain_current_monotonic_in_vgs(v1 in 0.0f64..1.2, dv in 0.001f64..0.2) {
        let tech = Technology::n65();
        let m = Mosfet::new(MosPolarity::Nmos, Micron(1.0), Micron(0.06)).unwrap();
        let env = DeviceEnv::nominal();
        let i1 = m.drain_current(&tech, Volt(v1), Volt(1.0), &env).0;
        let i2 = m.drain_current(&tech, Volt(v1 + dv), Volt(1.0), &env).0;
        assert!(i2 >= i1);
    }

    #[test]
    fn ring_frequency_monotonic_in_vt(shift in 0.001f64..0.06) {
        let tech = Technology::n65();
        let inv = Inverter::balanced(Micron(0.5), 2.0, &tech).unwrap();
        let ring = InverterRing::new(31, inv, Farad(0.5e-15), Volt(1.0)).unwrap();
        let base = ring.frequency(&tech, &CmosEnv::nominal()).0;
        let slow_env = CmosEnv {
            d_vtn: Volt(shift),
            d_vtp: Volt(shift),
            ..CmosEnv::nominal()
        };
        assert!(ring.frequency(&tech, &slow_env).0 < base);
    }

    #[test]
    fn tsro_frequency_monotonic_in_temperature(t1 in -20.0f64..90.0, dt in 1.0f64..30.0) {
        let tech = Technology::n65();
        let bank = RoBank::new(&tech, BankSpec::default_65nm()).unwrap();
        let vdd = bank.spec().vdd_tsro;
        let f1 = bank.frequency(&tech, RoClass::Tsro, vdd, &CmosEnv::at(Celsius(t1))).0;
        let f2 = bank.frequency(&tech, RoClass::Tsro, vdd, &CmosEnv::at(Celsius(t1 + dt))).0;
        assert!(f2 > f1, "TSRO must speed up with temperature");
    }

    // ---- statistics ----------------------------------------------------------

    #[test]
    fn welford_merge_equals_sequential(xs in ptsim_rng::check::vec_in(-1e3f64..1e3, 2..200), split in 1usize..100) {
        let split = split.min(xs.len() - 1);
        let all: OnlineStats = xs.iter().copied().collect();
        let a: OnlineStats = xs[..split].iter().copied().collect();
        let mut b: OnlineStats = xs[split..].iter().copied().collect();
        b.merge(&a);
        assert_eq!(b.count(), all.count());
        assert!((b.mean() - all.mean()).abs() < 1e-6);
        assert!((b.variance() - all.variance()).abs() < 1e-3);
    }

    // ---- thermal -------------------------------------------------------------

    #[test]
    fn power_map_hotspot_conserves_total(cx in 0.1f64..0.9, cy in 0.1f64..0.9,
                                         r in 0.02f64..0.3, w in 0.1f64..5.0) {
        let mut m = PowerMap::zero(16, 16).unwrap();
        m.add_hotspot(cx, cy, r, Watt(w)).unwrap();
        assert!((m.total().0 - w).abs() < 1e-9);
    }

    #[test]
    fn steady_state_hotter_with_more_power(w in 0.1f64..3.0) {
        let mut s = ThermalStack::new(StackConfig::single_die_5mm()).unwrap();
        s.set_power(0, PowerMap::uniform(16, 16, Watt(w)).unwrap()).unwrap();
        solve_steady_state(&mut s, &SolveOptions::default()).unwrap();
        let t = s.mean_temperature(0).unwrap().0;
        assert!(t > 25.0);
        // Linear RC network: rise proportional to power.
        let rise_per_watt = (t - 25.0) / w;
        assert!(rise_per_watt > 0.5 && rise_per_watt < 50.0);
    }

    // ---- TSV -----------------------------------------------------------------

    #[test]
    fn stress_decays_with_distance(r1 in 5.0f64..50.0, dr in 1.0f64..50.0) {
        let sm = StressModel::default_65nm();
        let g = TsvGeometry::standard_10um();
        let s1 = sm.radial_stress(&g, Micron(r1), Celsius(25.0)).0;
        let s2 = sm.radial_stress(&g, Micron(r1 + dr), Celsius(25.0)).0;
        assert!(s2 <= s1);
    }

    #[test]
    fn koz_monotone_in_threshold(t1 in 0.001f64..0.05, t2 in 0.051f64..0.5) {
        let sm = StressModel::default_65nm();
        let g = TsvGeometry::standard_10um();
        let k1 = sm.keep_out_radius(&g, t1, Celsius(25.0)).0;
        let k2 = sm.keep_out_radius(&g, t2, Celsius(25.0)).0;
        assert!(k1 >= k2, "tighter threshold, larger KOZ");
    }
}

forall! {
    #![cases = 16]

    // Expensive end-to-end property: the calibrated sensor recovers any
    // injected D2D shift within the paper band.
    #[test]
    fn sensor_recovers_arbitrary_d2d_shift(
        dvtn in -0.035f64..0.035,
        dvtp in -0.035f64..0.035,
        mu_n in 0.92f64..1.08,
        mu_p in 0.92f64..1.08,
        seed in 0u64..1000,
    ) {
        let mut die = DieSample::nominal();
        die.d_vtn_d2d = Volt(dvtn);
        die.d_vtp_d2d = Volt(dvtp);
        die.mu_n_d2d = mu_n;
        die.mu_p_d2d = mu_p;
        let mut sensor = PtSensor::new(Technology::n65(), SensorSpec::default_65nm()).unwrap();
        let mut rng = ptsim_rng::Pcg64::seed_from_u64(seed);
        sensor
            .calibrate(&SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0)), &mut rng)
            .unwrap();
        let cal = sensor.calibration().unwrap();
        assert!((cal.d_vtn().0 - dvtn).abs() < 1.6e-3,
            "Vtn {:.2} mV vs injected {:.2} mV", cal.d_vtn().millivolts(), dvtn * 1e3);
        assert!((cal.d_vtp().0 - dvtp).abs() < 1.6e-3,
            "Vtp {:.2} mV vs injected {:.2} mV", cal.d_vtp().millivolts(), dvtp * 1e3);
    }
}
