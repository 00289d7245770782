//! Property tests grading the multigrid production solver against the
//! lexicographic Gauss–Seidel oracle.
//!
//! [`solve_steady_state`] stays the bit-exact reference for every
//! accuracy gate (see DESIGN.md, "Thermal solver hierarchy"); these
//! properties pin the V-cycle to it across randomized grid sizes
//! (including non-power-of-two), power maps, and material stacks, and
//! assert the per-cycle residual contraction the solver's convergence
//! argument rests on.

use ptsim_device::units::{Micron, Watt, WattPerKelvin};
use ptsim_rng::forall;
use ptsim_thermal::multigrid::{solve_steady_state_mg, MgOptions, MultigridSolver};
use ptsim_thermal::power::PowerMap;
use ptsim_thermal::solve::{solve_steady_state, SolveOptions};
use ptsim_thermal::stack::{StackConfig, ThermalStack};

/// Worst-case disagreement allowed between the oracle and multigrid once
/// both report convergence (same bound as the cross-solver property).
const AGREE_TOL: f64 = 1e-3;

fn assert_fields_agree(oracle: &ThermalStack, mg: &ThermalStack, what: &str) {
    let cfg = oracle.config();
    for tier in 0..cfg.tiers {
        for iy in 0..cfg.ny {
            for ix in 0..cfg.nx {
                let a = oracle.temperature(tier, ix, iy).unwrap().0;
                let b = mg.temperature(tier, ix, iy).unwrap().0;
                assert!(
                    (a - b).abs() < AGREE_TOL,
                    "{what}: tier {tier} cell ({ix},{iy}): oracle {a:.6} vs MG {b:.6}"
                );
            }
        }
    }
}

forall! {
    #![cases = 12]

    #[test]
    fn vcycle_matches_oracle_on_random_grids(
        nx in 5usize..21, ny in 5usize..21, tiers in 1usize..5,
        cx in 0.05f64..0.95, cy in 0.05f64..0.95, w in 0.1f64..3.0,
    ) {
        let build = || {
            let cfg = StackConfig { nx, ny, tiers, ..StackConfig::four_tier_5mm() };
            let mut s = ThermalStack::new(cfg).unwrap();
            let mut p = PowerMap::zero(nx, ny).unwrap();
            p.add_hotspot(cx, cy, 0.15, Watt(w));
            s.set_power(0, p).unwrap();
            s
        };
        let mut gs = build();
        solve_steady_state(&mut gs, &SolveOptions::default()).unwrap();
        let mut mg = build();
        solve_steady_state_mg(&mut mg, &MgOptions::default()).unwrap();
        assert_fields_agree(&gs, &mg, "random grid");
    }

    #[test]
    fn vcycle_matches_oracle_on_random_material_stacks(
        t_si in 30.0f64..300.0, t_bond in 2.0f64..40.0,
        r_sink in 0.5f64..8.0, r_board in 5.0f64..50.0,
        tsv_ix in 0usize..9, tsv_iy in 0usize..9,
    ) {
        let build = || {
            let cfg = StackConfig {
                nx: 9,
                ny: 9,
                tiers: 3,
                tier_thickness: Micron(t_si),
                bond_thickness: Micron(t_bond),
                sink_resistance: r_sink,
                board_resistance: r_board,
                ..StackConfig::four_tier_5mm()
            };
            let mut s = ThermalStack::new(cfg).unwrap();
            let mut p = PowerMap::zero(9, 9).unwrap();
            p.add_hotspot(0.3, 0.6, 0.2, Watt(1.2));
            s.set_power(2, p).unwrap();
            // A TSV bundle threading both interfaces at one site.
            for iface in 0..2 {
                s.add_vertical_conductance(iface, tsv_ix, tsv_iy, WattPerKelvin(2.4e-3))
                    .unwrap();
            }
            s
        };
        let mut gs = build();
        solve_steady_state(&mut gs, &SolveOptions::default()).unwrap();
        let mut mg = build();
        solve_steady_state_mg(&mut mg, &MgOptions::default()).unwrap();
        assert_fields_agree(&gs, &mg, "material stack");
    }

    #[test]
    fn residual_decreases_monotonically_until_tolerance(
        nx in 4usize..25, ny in 4usize..25, w in 0.2f64..2.0,
    ) {
        let cfg = StackConfig { nx, ny, tiers: 2, ..StackConfig::four_tier_5mm() };
        let mut s = ThermalStack::new(cfg).unwrap();
        let mut p = PowerMap::zero(nx, ny).unwrap();
        p.add_hotspot(0.25, 0.75, 0.1, Watt(w));
        s.set_power(0, p).unwrap();
        let opts = MgOptions::default();
        let mut solver = MultigridSolver::new(&s, opts).unwrap();
        let mut prev = f64::INFINITY;
        for cycle in 0..opts.max_cycles {
            let rel = solver.cycle(&mut s);
            assert!(
                rel < prev,
                "cycle {cycle}: relative residual rose {prev:.3e} -> {rel:.3e}"
            );
            prev = rel;
            if rel < opts.tolerance {
                return;
            }
        }
        panic!("not converged after {} cycles (residual {prev:.3e})", opts.max_cycles);
    }
}
