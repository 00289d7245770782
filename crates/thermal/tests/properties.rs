//! Property-based tests of the thermal-solver invariants.

use ptsim_device::units::{Seconds, Watt};
use ptsim_rng::forall;
use ptsim_thermal::power::PowerMap;
use ptsim_thermal::solve::{solve_steady_state, step_transient, SolveOptions};
use ptsim_thermal::stack::{StackConfig, ThermalStack};

fn small_stack(tiers: usize) -> ThermalStack {
    let cfg = StackConfig {
        nx: 8,
        ny: 8,
        tiers,
        ..StackConfig::four_tier_5mm()
    };
    ThermalStack::new(cfg).unwrap()
}

forall! {
    #![cases = 24]

    #[test]
    fn steady_state_above_ambient_everywhere(
        cx in 0.1f64..0.9, cy in 0.1f64..0.9, w in 0.05f64..3.0,
    ) {
        let mut s = small_stack(2);
        let mut p = PowerMap::zero(8, 8).unwrap();
        p.add_hotspot(cx, cy, 0.15, Watt(w)).unwrap();
        s.set_power(0, p).unwrap();
        solve_steady_state(&mut s, &SolveOptions::default()).unwrap();
        for tier in 0..2 {
            for iy in 0..8 {
                for ix in 0..8 {
                    let t = s.temperature(tier, ix, iy).unwrap().0;
                    assert!(t >= 25.0 - 1e-9, "cell below ambient: {t}");
                }
            }
        }
    }

    #[test]
    fn superposition_holds_for_linear_network(
        w1 in 0.1f64..2.0, w2 in 0.1f64..2.0,
    ) {
        // Linear RC network: temperature rise of (P1 + P2) equals the sum of
        // the individual rises.
        let solve_rise = |w: f64, cx: f64| {
            let mut s = small_stack(1);
            let mut p = PowerMap::zero(8, 8).unwrap();
            p.add_hotspot(cx, 0.5, 0.12, Watt(w)).unwrap();
            s.set_power(0, p).unwrap();
            solve_steady_state(&mut s, &SolveOptions::default()).unwrap();
            s.temperature_at(0, 0.5, 0.5).unwrap().0 - 25.0
        };
        let a = solve_rise(w1, 0.3);
        let b = solve_rise(w2, 0.7);
        let both = {
            let mut s = small_stack(1);
            let mut p = PowerMap::zero(8, 8).unwrap();
            p.add_hotspot(0.3, 0.5, 0.12, Watt(w1)).unwrap();
            p.add_hotspot(0.7, 0.5, 0.12, Watt(w2)).unwrap();
            s.set_power(0, p).unwrap();
            solve_steady_state(&mut s, &SolveOptions::default()).unwrap();
            s.temperature_at(0, 0.5, 0.5).unwrap().0 - 25.0
        };
        assert!((both - (a + b)).abs() < 1e-3,
            "superposition violated: {both} vs {a}+{b}");
    }

    #[test]
    fn transient_never_overshoots_steady_state_on_heatup(w in 0.2f64..2.0) {
        let mut steady = small_stack(1);
        steady.set_power(0, PowerMap::uniform(8, 8, Watt(w)).unwrap()).unwrap();
        let mut transient = steady.clone();
        solve_steady_state(&mut steady, &SolveOptions::default()).unwrap();
        let target = steady.max_temperature(0).unwrap().0;
        for _ in 0..20 {
            step_transient(&mut transient, Seconds(0.01));
            let t = transient.max_temperature(0).unwrap().0;
            assert!(t <= target + 1e-6, "overshoot: {t} vs {target}");
        }
    }

    #[test]
    fn power_map_block_conserves_total(
        x0 in 0.0f64..0.5, y0 in 0.0f64..0.5, w in 0.1f64..4.0,
    ) {
        let mut m = PowerMap::zero(16, 16).unwrap();
        m.add_block(x0, y0, x0 + 0.4, y0 + 0.4, Watt(w)).unwrap();
        assert!((m.total().0 - w).abs() < 1e-9);
        assert!(m.peak().0 <= w);
    }
}
