//! Boundary-condition regression tests for the steady-state solver.
//!
//! The stack's lateral faces are adiabatic (no flux leaves the die edge);
//! the top face drains through TIM + heat sink and the bottom through the
//! package/board, both to fixed ambient. Each case here is checked against
//! a closed-form lumped model or a symmetry of the network. The solves run
//! at a 1e-12 °C sweep tolerance, so the bounds grade the discretisation
//! and its boundaries rather than the stopping rule.

use ptsim_device::units::{Celsius, Watt};
use ptsim_thermal::material::Material;
use ptsim_thermal::power::PowerMap;
use ptsim_thermal::solve::{solve_steady_state, SolveOptions};
use ptsim_thermal::stack::{StackConfig, ThermalStack};

/// Gauss–Seidel solve converged far below every bound checked here.
fn solve_tight(s: &mut ThermalStack) {
    let opts = SolveOptions {
        tolerance: 1e-12,
        ..SolveOptions::default()
    };
    solve_steady_state(s, &opts).unwrap();
}

/// Total top-path (TIM in series with sink) plus bottom-path conductance
/// to ambient, W/K, for a single-die stack — the exact lumped model when
/// power is laterally uniform.
fn ground_conductance(cfg: &StackConfig) -> f64 {
    let m = 1e-6;
    let n = (cfg.nx * cfg.ny) as f64;
    let cell_area = (cfg.die_width.0 * m / cfg.nx as f64) * (cfg.die_height.0 * m / cfg.ny as f64);
    let g_tim_total = n * Material::TIM.slab_conductance(cell_area, cfg.tim_thickness.0 * m);
    let g_sink = 1.0 / (1.0 / g_tim_total + cfg.sink_resistance);
    g_sink + 1.0 / cfg.board_resistance
}

#[test]
fn uniform_power_matches_lumped_closed_form() {
    // Uniform power on a single die has no lateral gradients, so the 2D
    // network collapses exactly to one node: rise = P / (G_sink + G_board).
    let cfg = StackConfig::single_die_5mm();
    let power = 1.3;
    let expected_rise = power / ground_conductance(&cfg);
    let mut s = ThermalStack::new(cfg).unwrap();
    s.set_power(0, PowerMap::uniform(16, 16, Watt(power)).unwrap())
        .unwrap();
    solve_tight(&mut s);
    let rise = s.mean_temperature(0).unwrap().0 - 25.0;
    assert!(
        (rise - expected_rise).abs() < 1e-6 * expected_rise,
        "lumped model predicts rise {expected_rise:.9}, solver gave {rise:.9}"
    );
}

#[test]
fn uniform_power_has_no_lateral_gradient() {
    // Adiabatic lateral faces: with laterally uniform power every cell of
    // the tier sits at the same temperature. A leaky edge (e.g. a phantom
    // neighbour at ambient) would cool the border cells.
    let mut s = ThermalStack::new(StackConfig::single_die_5mm()).unwrap();
    s.set_power(0, PowerMap::uniform(16, 16, Watt(2.0)).unwrap())
        .unwrap();
    solve_tight(&mut s);
    let mean = s.mean_temperature(0).unwrap().0;
    for iy in 0..16 {
        for ix in 0..16 {
            let t = s.temperature(0, ix, iy).unwrap().0;
            assert!(
                (t - mean).abs() < 1e-8,
                "lateral gradient at ({ix},{iy}): {t} vs mean {mean}"
            );
        }
    }
}

#[test]
fn near_adiabatic_sink_sends_heat_through_board() {
    // With the sink path choked (R_sink -> 1e9 K/W) the top face is
    // effectively adiabatic and all heat exits through the board:
    // rise -> P * board_resistance.
    let cfg = StackConfig {
        sink_resistance: 1e9,
        ..StackConfig::single_die_5mm()
    };
    let power = 0.7;
    let expected_rise = power / ground_conductance(&cfg);
    assert!(
        (expected_rise - power * cfg.board_resistance).abs() < 1e-3,
        "choked sink should leave the board as the only path"
    );
    let mut s = ThermalStack::new(cfg).unwrap();
    s.set_power(0, PowerMap::uniform(16, 16, Watt(power)).unwrap())
        .unwrap();
    solve_tight(&mut s);
    let rise = s.mean_temperature(0).unwrap().0 - 25.0;
    assert!(
        (rise - expected_rise).abs() < 1e-6 * expected_rise,
        "expected rise {expected_rise:.6}, got {rise:.6}"
    );
}

#[test]
fn corner_impulse_is_the_hottest_cell() {
    // A single hot cell in the corner of a 9 × 9 grid stresses both
    // adiabatic edges at once.
    let cfg = StackConfig {
        nx: 9,
        ny: 9,
        tiers: 2,
        ..StackConfig::four_tier_5mm()
    };
    let mut s = ThermalStack::new(cfg).unwrap();
    let mut p = PowerMap::zero(9, 9).unwrap();
    p.set_cell(0, 0, Watt(0.5)).unwrap();
    s.set_power(0, p).unwrap();
    solve_tight(&mut s);
    // The impulse cell must be the hottest one on its tier.
    let peak = s.max_temperature(0).unwrap().0;
    let corner = s.temperature(0, 0, 0).unwrap().0;
    assert!(
        (peak - corner).abs() < 1e-12,
        "hottest cell is not the powered corner: {corner} vs {peak}"
    );
}

#[test]
fn center_impulse_field_is_symmetric() {
    // Discretization and both boundary types are mirror-symmetric about
    // the centre cell of an odd grid, so the converged field must be too.
    let cfg = StackConfig {
        nx: 9,
        ny: 9,
        tiers: 1,
        ..StackConfig::four_tier_5mm()
    };
    let mut s = ThermalStack::new(cfg).unwrap();
    let mut p = PowerMap::zero(9, 9).unwrap();
    p.set_cell(4, 4, Watt(1.0)).unwrap();
    s.set_power(0, p).unwrap();
    solve_tight(&mut s);
    for d in 1..5 {
        let east = s.temperature(0, 4 + d, 4).unwrap().0;
        let west = s.temperature(0, 4 - d, 4).unwrap().0;
        let north = s.temperature(0, 4, 4 + d).unwrap().0;
        let south = s.temperature(0, 4, 4 - d).unwrap().0;
        assert!(
            (east - west).abs() < 1e-6,
            "x asymmetry at d={d}: {east} vs {west}"
        );
        assert!(
            (north - south).abs() < 1e-6,
            "y asymmetry at d={d}: {north} vs {south}"
        );
        assert!(
            (east - north).abs() < 1e-6,
            "diagonal asymmetry at d={d}: {east} vs {north}"
        );
    }
}

#[test]
fn ambient_shift_translates_the_field() {
    // The network is linear with every boundary referenced to ambient, so
    // raising ambient 25 -> 85 °C rigidly shifts the solution by 60 °C.
    let solve_at = |ambient: f64| {
        let cfg = StackConfig {
            ambient: Celsius(ambient),
            ..StackConfig::four_tier_5mm()
        };
        let mut s = ThermalStack::new(cfg).unwrap();
        let mut p = PowerMap::zero(16, 16).unwrap();
        p.add_hotspot(0.4, 0.6, 0.15, Watt(1.5)).unwrap();
        s.set_power(1, p).unwrap();
        solve_tight(&mut s);
        s
    };
    let cold = solve_at(25.0);
    let hot = solve_at(85.0);
    for tier in 0..4 {
        for iy in 0..16 {
            for ix in 0..16 {
                let a = cold.temperature(tier, ix, iy).unwrap().0;
                let b = hot.temperature(tier, ix, iy).unwrap().0;
                assert!(
                    (b - a - 60.0).abs() < 1e-6,
                    "tier {tier} cell ({ix},{iy}): {a} at 25 °C vs {b} at 85 °C"
                );
            }
        }
    }
}
