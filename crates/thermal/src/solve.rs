//! Steady-state and transient solvers for [`ThermalStack`].
//!
//! [`solve_steady_state`] is the lexicographic Gauss–Seidel/SOR solver,
//! deliberately kept sweep-order-exact: the golden gates pin its output.
//! [`step_transient_with`] advances the field by stability-substepped
//! explicit Euler (see DESIGN.md, "Thermal solver hierarchy"). Both are a
//! per-cell update (`CellPass`) over the one grid walk,
//! `ThermalStack::walk`, reading the stack's own conductances, `Σg` and
//! power maps.

use crate::error::ThermalError;
use crate::stack::{CellPass, ThermalStack, Tier};
use ptsim_device::units::Seconds;

/// Options for the steady-state Gauss–Seidel/SOR solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveOptions {
    /// Convergence tolerance on the per-sweep max temperature change, °C.
    pub tolerance: f64,
    /// Maximum number of sweeps before giving up.
    pub max_iterations: usize,
    /// Successive-over-relaxation factor in `(0, 2)`.
    pub omega: f64,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            tolerance: 1e-6,
            max_iterations: 50_000,
            omega: 1.7,
        }
    }
}

/// Convergence report of a steady-state solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// Sweeps executed.
    pub iterations: usize,
    /// Final max per-sweep temperature change, °C.
    pub residual: f64,
}

/// Solves the stack to steady state in place.
///
/// Each Gauss–Seidel/SOR sweep walks the cells in the historical
/// tier → row → column order with bit-identical floating-point
/// operations, so results match the first implementation exactly.
///
/// # Errors
///
/// Returns [`ThermalError::NotConverged`] if the residual does not fall
/// below `opts.tolerance` within `opts.max_iterations` sweeps,
/// [`ThermalError::NonFiniteField`] if it does but the field holds a
/// non-finite temperature, and [`ThermalError::InvalidGeometry`] for an
/// out-of-range `omega`.
pub fn solve_steady_state(
    stack: &mut ThermalStack,
    opts: &SolveOptions,
) -> Result<SolveStats, ThermalError> {
    if !(opts.omega > 0.0 && opts.omega < 2.0) {
        return Err(ThermalError::InvalidGeometry {
            name: "omega",
            value: opts.omega,
        });
    }
    let mut residual = f64::INFINITY;
    for sweep in 1..=opts.max_iterations {
        let mut sor = Sor {
            omega: opts.omega,
            residual: 0.0,
        };
        stack.walk(&mut sor);
        residual = sor.residual;
        if residual < opts.tolerance {
            if !stack.temps_mut().iter().all(|t| t.is_finite()) {
                return Err(ThermalError::NonFiniteField { iterations: sweep });
            }
            return Ok(SolveStats {
                iterations: sweep,
                residual,
            });
        }
    }
    Err(ThermalError::NotConverged {
        iterations: opts.max_iterations,
        residual,
    })
}

/// One Gauss–Seidel/SOR sweep: updates each cell in place and tracks the
/// sweep's max `|Δt|` residual.
struct Sor {
    omega: f64,
    residual: f64,
}

impl CellPass for Sor {
    #[inline(always)]
    fn update(&mut self, tier: &Tier<'_>, temps: &mut [f64], cell: usize, gt: f64) {
        let gauss = (gt + tier.power[cell]) / tier.g_sum[cell];
        let i = tier.base + cell;
        let old = temps[i];
        let new = old + self.omega * (gauss - old);
        self.residual = self.residual.max((new - old).abs());
        temps[i] = new;
    }
}

/// Reusable workspace for [`step_transient_with`]: the second temperature
/// field each explicit-Euler substep writes into before it is swapped
/// with the stack's own.
///
/// Without it a 2 ms control-loop tick on a 16×16×4 stack would allocate a
/// fresh field buffer per call; keeping one scratch per loop makes the
/// warm transient step allocation-free (gated by the counting-allocator
/// test in `ptsim-core`).
#[derive(Debug, Clone, Default)]
pub struct TransientScratch {
    next: Vec<f64>,
}

impl TransientScratch {
    /// An empty scratch; its buffer grows to fit on first use.
    #[must_use]
    pub fn new() -> Self {
        TransientScratch::default()
    }
}

/// Advances the stack by `dt` of wall-clock time using explicit Euler
/// integration, automatically substepping to respect the stability limit
/// `dt_cell < C / Σg`.
///
/// Returns the number of substeps taken. A `dt` that is not finite and
/// strictly positive (NaN, ±∞, zero, negative) is a no-op that takes 0
/// substeps and leaves the field untouched.
///
/// Allocates a second field buffer on every call; hot loops should hold a
/// [`TransientScratch`] and call [`step_transient_with`], which is
/// bit-identical and allocation-free once warm.
pub fn step_transient(stack: &mut ThermalStack, dt: Seconds) -> usize {
    step_transient_with(stack, dt, &mut TransientScratch::new())
}

/// [`step_transient`] with a caller-provided scratch buffer. Each call
/// reads the stack's current conductances and power maps (they may have
/// changed between steps), so results are bit-identical to
/// [`step_transient`] while a warm scratch performs no heap allocation.
///
/// Each substep is one fused pass that writes the advanced field into the
/// scratch buffer, which is then swapped with the stack's field: no
/// derivative array, no copy back.
pub fn step_transient_with(
    stack: &mut ThermalStack,
    dt: Seconds,
    scratch: &mut TransientScratch,
) -> usize {
    if !positive(dt.0) {
        return 0;
    }
    // Stability: the stiffest cell bounds the step.
    let cap = stack.cell_capacity();
    let dt_stable = 0.5 * cap / stack.g_max().max(f64::MIN_POSITIVE);
    let substeps = (dt.0 / dt_stable).ceil().max(1.0) as usize;
    let h = dt.0 / substeps as f64;

    let next = &mut scratch.next;
    next.resize(stack.temps_mut().len(), 0.0);
    for _ in 0..substeps {
        stack.walk(&mut Euler { out: next, cap, h });
        std::mem::swap(stack.temps_mut(), next);
    }
    substeps
}

/// One explicit-Euler substep of length `h`: writes
/// `t + h·((Σg·T − Σg·t + P) / C)` for every cell into `out`, reading only
/// the current field (Jacobi-style), bit-identical to the historical
/// two-pass derivative-then-update loop: the derivative's division is
/// kept (no reciprocal, no FMA).
struct Euler<'a> {
    out: &'a mut [f64],
    cap: f64,
    h: f64,
}

impl CellPass for Euler<'_> {
    #[inline(always)]
    fn update(&mut self, tier: &Tier<'_>, temps: &mut [f64], cell: usize, gt: f64) {
        let i = tier.base + cell;
        let t = temps[i];
        self.out[i] = t + self.h * ((gt - tier.g_sum[cell] * t + tier.power[cell]) / self.cap);
    }

    #[inline(always)]
    fn interior<const UP: bool, const DOWN: bool, const BELOW: bool, const ABOVE: bool>(
        &mut self,
        tier: &Tier<'_>,
        temps: &mut [f64],
        cell0: usize,
        m: usize,
    ) {
        let s = tier.base + cell0;
        let out = &mut self.out[s..s + m];
        euler_run::<UP, DOWN, BELOW, ABOVE>(tier, temps, out, cell0, self.cap, self.h);
    }
}

/// An explicit-Euler row interior, `out.len()` cells from `cell0` on, over
/// neighbour rows pre-sliced to one common length, so the loop carries no
/// per-neighbour bounds check and vectorises. Taking `out` as its own
/// argument tells the compiler it cannot overlap `temps`. Each cell still
/// performs [`Tier::gt`]'s accumulation and [`Euler::update`]'s arithmetic
/// in the same order, so the result is bit-identical to the cell-by-cell
/// path.
#[inline(always)]
fn euler_run<const UP: bool, const DOWN: bool, const BELOW: bool, const ABOVE: bool>(
    tier: &Tier<'_>,
    temps: &[f64],
    out: &mut [f64],
    cell0: usize,
    cap: f64,
    h: f64,
) {
    let (nx, n_cells, m) = (tier.nx, tier.n_cells, out.len());
    let (cs, ce) = (cell0, cell0 + m);
    let (s, e) = (tier.base + cs, tier.base + ce);
    let centre = &temps[s..e];
    let left = &temps[s - 1..e - 1];
    let right = &temps[s + 1..e + 1];
    // Absent neighbours alias `centre`; their terms compile out.
    let up = if UP { &temps[s - nx..e - nx] } else { centre };
    let down = if DOWN { &temps[s + nx..e + nx] } else { centre };
    let t_below = if BELOW {
        &temps[s - n_cells..e - n_cells]
    } else {
        centre
    };
    let t_above = if ABOVE {
        &temps[s + n_cells..e + n_cells]
    } else {
        centre
    };
    let g_below = if BELOW { &tier.below[cs..ce] } else { centre };
    let g_above = if ABOVE { &tier.above[cs..ce] } else { centre };
    let (centre, left, right, up, down) =
        (&centre[..m], &left[..m], &right[..m], &up[..m], &down[..m]);
    let (t_below, t_above, g_below, g_above) =
        (&t_below[..m], &t_above[..m], &g_below[..m], &g_above[..m]);
    let g_sum = &tier.g_sum[cs..ce][..m];
    let power = &tier.power[cs..ce][..m];
    let (g_lat, board_gt, sink_gt) = (tier.g_lat, tier.board_gt, tier.sink_gt);
    for k in 0..m {
        let mut gt = 0.0;
        gt += g_lat * left[k];
        gt += g_lat * right[k];
        if UP {
            gt += g_lat * up[k];
        }
        if DOWN {
            gt += g_lat * down[k];
        }
        if BELOW {
            gt += g_below[k] * t_below[k];
        }
        if ABOVE {
            gt += g_above[k] * t_above[k];
        }
        if !BELOW {
            gt += board_gt;
        }
        if !ABOVE {
            gt += sink_gt;
        }
        let t = centre[k];
        out[k] = t + h * ((gt - g_sum[k] * t + power[k]) / cap);
    }
}

/// Whether `v` is a finite, strictly positive time span.
fn positive(v: f64) -> bool {
    v.is_finite() && v > 0.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::PowerMap;
    use crate::stack::{StackConfig, ThermalStack};
    use ptsim_device::units::{Celsius, Watt};

    fn solved_uniform(tiers: usize, watts: f64) -> ThermalStack {
        let cfg = if tiers == 1 {
            StackConfig::single_die_5mm()
        } else {
            StackConfig {
                tiers,
                ..StackConfig::four_tier_5mm()
            }
        };
        let mut s = ThermalStack::new(cfg).unwrap();
        let (nx, ny) = (s.config().nx, s.config().ny);
        for tier in 0..tiers {
            s.set_power(
                tier,
                PowerMap::uniform(nx, ny, Watt(watts / tiers as f64)).unwrap(),
            )
            .unwrap();
        }
        solve_steady_state(&mut s, &SolveOptions::default()).unwrap();
        s
    }

    #[test]
    fn zero_power_stays_at_ambient() {
        let mut s = ThermalStack::new(StackConfig::four_tier_5mm()).unwrap();
        let stats = solve_steady_state(&mut s, &SolveOptions::default()).unwrap();
        assert!(stats.iterations < 100);
        for tier in 0..4 {
            assert!((s.mean_temperature(tier).unwrap().0 - 25.0).abs() < 1e-6);
        }
    }

    #[test]
    fn single_die_rise_matches_lumped_analysis() {
        // With uniform power the lateral network carries no net heat; the
        // die sits at ambient + P / (G_sink_total + G_board_total), where
        // the sink path includes the TIM slab in series.
        let s = solved_uniform(1, 1.0);
        let cfg = s.config();
        let n = (cfg.nx * cfg.ny) as f64;
        let area = (cfg.die_width.0 * 1e-6) * (cfg.die_height.0 * 1e-6);
        let g_tim =
            crate::material::Material::TIM.slab_conductance(area / n, cfg.tim_thickness.0 * 1e-6);
        let g_sink_cell = 1.0 / (1.0 / g_tim + cfg.sink_resistance * n);
        let g_total = n * g_sink_cell + 1.0 / cfg.board_resistance;
        let expected = 25.0 + 1.0 / g_total;
        let got = s.mean_temperature(0).unwrap().0;
        assert!(
            (got - expected).abs() < 0.05,
            "expected {expected:.3} °C, got {got:.3} °C"
        );
    }

    #[test]
    fn more_power_is_hotter() {
        let lo = solved_uniform(4, 1.0).max_temperature(0).unwrap().0;
        let hi = solved_uniform(4, 2.0).max_temperature(0).unwrap().0;
        assert!(hi > lo + 0.5);
    }

    #[test]
    fn hotspot_creates_lateral_gradient() {
        let mut s = ThermalStack::new(StackConfig::single_die_5mm()).unwrap();
        let mut p = PowerMap::zero(16, 16).unwrap();
        p.add_hotspot(0.5, 0.5, 0.08, Watt(2.0)).unwrap();
        s.set_power(0, p).unwrap();
        solve_steady_state(&mut s, &SolveOptions::default()).unwrap();
        let center = s.temperature_at(0, 0.5, 0.5).unwrap().0;
        let corner = s.temperature_at(0, 0.0, 0.0).unwrap().0;
        assert!(
            center > corner + 1.0,
            "center {center:.2} vs corner {corner:.2}"
        );
    }

    #[test]
    fn bottom_tier_hotter_than_top_with_heatsink_on_top() {
        // Heat generated at the bottom tier must cross every bond layer to
        // reach the sink, so tier 0 runs hotter than tier 3.
        let mut s = ThermalStack::new(StackConfig::four_tier_5mm()).unwrap();
        s.set_power(0, PowerMap::uniform(16, 16, Watt(2.0)).unwrap())
            .unwrap();
        solve_steady_state(&mut s, &SolveOptions::default()).unwrap();
        let bottom = s.mean_temperature(0).unwrap().0;
        let top = s.mean_temperature(3).unwrap().0;
        assert!(bottom > top + 0.5, "bottom {bottom:.2} vs top {top:.2}");
    }

    #[test]
    fn tsv_bundle_cools_the_hot_tier() {
        let build = |with_tsv: bool| {
            let mut s = ThermalStack::new(StackConfig::four_tier_5mm()).unwrap();
            s.set_power(0, PowerMap::uniform(16, 16, Watt(2.0)).unwrap())
                .unwrap();
            if with_tsv {
                for iface in 0..3 {
                    for iy in 0..16 {
                        for ix in 0..16 {
                            s.add_vertical_conductance(
                                iface,
                                ix,
                                iy,
                                ptsim_device::units::WattPerKelvin(2e-4),
                            )
                            .unwrap();
                        }
                    }
                }
            }
            solve_steady_state(&mut s, &SolveOptions::default()).unwrap();
            s.mean_temperature(0).unwrap().0
        };
        let without = build(false);
        let with = build(true);
        assert!(
            with < without,
            "TSVs should cool: {with:.2} vs {without:.2}"
        );
    }

    #[test]
    fn transient_approaches_steady_state() {
        let mut reference = ThermalStack::new(StackConfig::single_die_5mm()).unwrap();
        reference
            .set_power(0, PowerMap::uniform(16, 16, Watt(1.0)).unwrap())
            .unwrap();
        let mut transient = reference.clone();
        solve_steady_state(&mut reference, &SolveOptions::default()).unwrap();
        let target = reference.mean_temperature(0).unwrap().0;

        // Ten 0.5 s steps; the heat-up from ambient is monotonic.
        let mut scratch = TransientScratch::new();
        let mut prev = transient.mean_temperature(0).unwrap().0;
        for _ in 0..10 {
            step_transient_with(&mut transient, Seconds(0.5), &mut scratch);
            let t = transient.mean_temperature(0).unwrap().0;
            assert!(t >= prev - 1e-9);
            prev = t;
        }
        assert!(
            (prev - target).abs() < 0.5,
            "transient {prev:.2} vs steady {target:.2}"
        );
    }

    #[test]
    fn rejects_bad_omega() {
        let mut s = ThermalStack::new(StackConfig::single_die_5mm()).unwrap();
        let opts = SolveOptions {
            omega: 2.5,
            ..SolveOptions::default()
        };
        assert!(matches!(
            solve_steady_state(&mut s, &opts),
            Err(ThermalError::InvalidGeometry { .. })
        ));
    }

    #[test]
    fn not_converged_is_reported() {
        let mut s = ThermalStack::new(StackConfig::four_tier_5mm()).unwrap();
        s.set_power(0, PowerMap::uniform(16, 16, Watt(1.0)).unwrap())
            .unwrap();
        let opts = SolveOptions {
            max_iterations: 2,
            ..SolveOptions::default()
        };
        assert!(matches!(
            solve_steady_state(&mut s, &opts),
            Err(ThermalError::NotConverged { .. })
        ));
    }

    #[test]
    fn energy_balance_at_steady_state() {
        // Heat out through both boundaries equals heat in.
        let s = solved_uniform(4, 1.5);
        let cfg = s.config().clone();
        let n = cfg.nx * cfg.ny;
        let area = (cfg.die_width.0 * 1e-6) * (cfg.die_height.0 * 1e-6);
        let g_tim = crate::material::Material::TIM
            .slab_conductance(area / n as f64, cfg.tim_thickness.0 * 1e-6);
        let g_sink_cell = 1.0 / (1.0 / g_tim + cfg.sink_resistance * n as f64);
        let g_board_cell = 1.0 / (cfg.board_resistance * n as f64);
        let mut q_out = 0.0;
        for iy in 0..cfg.ny {
            for ix in 0..cfg.nx {
                let t_top = s.temperature(cfg.tiers - 1, ix, iy).unwrap().0;
                let t_bot = s.temperature(0, ix, iy).unwrap().0;
                q_out += g_sink_cell * (t_top - 25.0) + g_board_cell * (t_bot - 25.0);
            }
        }
        assert!(
            (q_out - 1.5).abs() < 0.01,
            "energy balance violated: {q_out:.4} W out vs 1.5 W in"
        );
    }

    #[test]
    fn solve_stats_reasonable() {
        let mut s = ThermalStack::new(StackConfig::single_die_5mm()).unwrap();
        s.set_power(0, PowerMap::uniform(16, 16, Watt(0.5)).unwrap())
            .unwrap();
        let stats = solve_steady_state(&mut s, &SolveOptions::default()).unwrap();
        assert!(stats.iterations > 1);
        assert!(stats.residual < 1e-6);
    }

    #[test]
    fn step_transient_substeps_scale_with_dt() {
        let mut s = ThermalStack::new(StackConfig::single_die_5mm()).unwrap();
        let small = step_transient(&mut s, Seconds(1e-6));
        let big = step_transient(&mut s, Seconds(1e-3));
        assert!(big >= small);
    }

    #[test]
    fn scratch_step_is_bit_identical_and_tracks_power_changes() {
        let mut fresh = irregular_stack(0.4, 0.6, 1.2, 2e-4);
        let mut warm = fresh.clone();
        let mut scratch = TransientScratch::new();
        for step in 0..4 {
            // Mutate power between steps: the scratch must pick up the new
            // map exactly like a fresh scratch does.
            let mut p = PowerMap::uniform(8, 8, Watt(0.3 + 0.1 * step as f64)).unwrap();
            p.add_hotspot(0.3, 0.7, 0.1, Watt(0.5)).unwrap();
            fresh.set_power(2, p.clone()).unwrap();
            warm.set_power(2, p).unwrap();
            let a = step_transient(&mut fresh, Seconds(5e-4));
            let b = step_transient_with(&mut warm, Seconds(5e-4), &mut scratch);
            assert_eq!(a, b);
        }
        assert_temps_bit_identical(&fresh, &warm);
    }

    /// The first Gauss–Seidel/SOR loop, kept verbatim as the bit-identity
    /// oracle for the grid-walk sweep.
    fn reference_steady_state(
        stack: &mut ThermalStack,
        opts: &SolveOptions,
    ) -> Result<SolveStats, ThermalError> {
        let (tiers, nx, ny) = stack.grid();
        let mut residual = f64::INFINITY;
        for sweep in 1..=opts.max_iterations {
            residual = 0.0;
            for tier in 0..tiers {
                for iy in 0..ny {
                    for ix in 0..nx {
                        let (g_sum, gt_sum) = stack.neighbours_sum(tier, ix, iy);
                        let p = stack.cell_power(tier, ix, iy);
                        let idx = stack.flat_index(tier, ix, iy);
                        let old = stack.temps_mut()[idx];
                        let gauss = (gt_sum + p) / g_sum;
                        let new = old + opts.omega * (gauss - old);
                        residual = residual.max((new - old).abs());
                        stack.temps_mut()[idx] = new;
                    }
                }
            }
            if residual < opts.tolerance {
                return Ok(SolveStats {
                    iterations: sweep,
                    residual,
                });
            }
        }
        Err(ThermalError::NotConverged {
            iterations: opts.max_iterations,
            residual,
        })
    }

    /// The first transient step, kept verbatim as the bit-identity oracle
    /// for the fused grid-walk substep.
    fn reference_step_transient(stack: &mut ThermalStack, dt: Seconds) -> usize {
        let (tiers, nx, ny) = stack.grid();
        let mut g_max: f64 = 0.0;
        for tier in 0..tiers {
            for iy in 0..ny {
                for ix in 0..nx {
                    let (g_sum, _) = stack.neighbours_sum(tier, ix, iy);
                    g_max = g_max.max(g_sum);
                }
            }
        }
        let cap = stack.cell_capacity();
        let dt_stable = 0.5 * cap / g_max.max(f64::MIN_POSITIVE);
        let substeps = (dt.0 / dt_stable).ceil().max(1.0) as usize;
        let h = dt.0 / substeps as f64;

        let n = tiers * nx * ny;
        let mut derivs = vec![0.0; n];
        for _ in 0..substeps {
            for tier in 0..tiers {
                for iy in 0..ny {
                    for ix in 0..nx {
                        let (g_sum, gt_sum) = stack.neighbours_sum(tier, ix, iy);
                        let idx = stack.flat_index(tier, ix, iy);
                        let t = stack.temps_mut()[idx];
                        let p = stack.cell_power(tier, ix, iy);
                        derivs[idx] = (gt_sum - g_sum * t + p) / cap;
                    }
                }
            }
            let temps = stack.temps_mut();
            for (t, d) in temps.iter_mut().zip(&derivs) {
                *t += h * d;
            }
        }
        substeps
    }

    /// A 3-tier 8×8 stack with a hotspot, a uniform floor, and a diagonal
    /// TSV bundle — exercises every grid-walk row shape (interior, edge,
    /// corner, boundary tiers, non-uniform vertical conductance).
    fn irregular_stack(cx: f64, cy: f64, w: f64, g_tsv: f64) -> ThermalStack {
        let cfg = StackConfig {
            nx: 8,
            ny: 8,
            tiers: 3,
            ..StackConfig::four_tier_5mm()
        };
        let mut s = ThermalStack::new(cfg).unwrap();
        let mut p = PowerMap::uniform(8, 8, Watt(0.2)).unwrap();
        p.add_hotspot(cx, cy, 0.15, Watt(w)).unwrap();
        s.set_power(1, p).unwrap();
        s.set_power(0, PowerMap::uniform(8, 8, Watt(0.5)).unwrap())
            .unwrap();
        for iface in 0..2 {
            for d in 0..8 {
                s.add_vertical_conductance(iface, d, d, ptsim_device::units::WattPerKelvin(g_tsv))
                    .unwrap();
            }
        }
        s
    }

    fn assert_temps_bit_identical(a: &ThermalStack, b: &ThermalStack) {
        let (tiers, nx, ny) = a.grid();
        for tier in 0..tiers {
            for iy in 0..ny {
                for ix in 0..nx {
                    let ta = a.temperature(tier, ix, iy).unwrap().0;
                    let tb = b.temperature(tier, ix, iy).unwrap().0;
                    assert_eq!(
                        ta.to_bits(),
                        tb.to_bits(),
                        "cell ({tier},{ix},{iy}): {ta} vs {tb}"
                    );
                }
            }
        }
    }

    ptsim_rng::forall! {
        #![cases = 12]

        #[test]
        fn stencil_steady_state_is_bit_identical_to_reference(
            cx in 0.1f64..0.9, cy in 0.1f64..0.9, w in 0.1f64..2.0,
            g_tsv in 0.0f64..5e-4,
        ) {
            let mut fast = irregular_stack(cx, cy, w, g_tsv);
            let mut slow = fast.clone();
            let opts = SolveOptions::default();
            let a = solve_steady_state(&mut fast, &opts).unwrap();
            let b = reference_steady_state(&mut slow, &opts).unwrap();
            assert_eq!(a, b);
            assert_temps_bit_identical(&fast, &slow);
        }

        #[test]
        fn stencil_transient_is_bit_identical_to_reference(
            cx in 0.1f64..0.9, cy in 0.1f64..0.9, w in 0.1f64..2.0,
            g_tsv in 0.0f64..5e-4, dt in 1e-5f64..1e-2,
        ) {
            let mut fast = irregular_stack(cx, cy, w, g_tsv);
            let mut slow = fast.clone();
            for _ in 0..3 {
                let a = step_transient(&mut fast, Seconds(dt));
                let b = reference_step_transient(&mut slow, Seconds(dt));
                assert_eq!(a, b);
            }
            assert_temps_bit_identical(&fast, &slow);
        }
    }

    /// Grid extent for the random-geometry properties: the degenerate 1-
    /// and 2-cell shapes (no interior run) a quarter of the time each,
    /// else anything from 3 to 33.
    fn extent() -> impl ptsim_rng::check::Strategy<Value = usize> {
        use ptsim_rng::check::Strategy;
        (0usize..4, 3usize..34).map(|(pick, n)| match pick {
            0 => 1,
            1 => 2,
            _ => n,
        })
    }

    /// A `tiers`×`nx`×`ny` stack with per-cell random TSV conductances on
    /// every interface and a random hotspot plus a random block on every
    /// tier, all drawn from `seed`.
    fn random_stack(tiers: usize, nx: usize, ny: usize, seed: u64) -> ThermalStack {
        use ptsim_rng::{Pcg64, Rng};
        let mut rng = Pcg64::seed_from_u64(seed);
        let cfg = StackConfig {
            nx,
            ny,
            tiers,
            ..StackConfig::four_tier_5mm()
        };
        let mut s = ThermalStack::new(cfg).unwrap();
        for iface in 0..tiers - 1 {
            for iy in 0..ny {
                for ix in 0..nx {
                    let g = rng.gen_range(0.0..5e-4);
                    s.add_vertical_conductance(
                        iface,
                        ix,
                        iy,
                        ptsim_device::units::WattPerKelvin(g),
                    )
                    .unwrap();
                }
            }
        }
        for tier in 0..tiers {
            let mut p = PowerMap::zero(nx, ny).unwrap();
            let (cx, cy, r) = (
                rng.gen_range(0.0..1.0),
                rng.gen_range(0.0..1.0),
                rng.gen_range(0.02..0.3),
            );
            p.add_hotspot(cx, cy, r, Watt(rng.gen_range(0.0..3.0)))
                .unwrap();
            let (x0, y0) = (rng.gen_range(0.0..0.8), rng.gen_range(0.0..0.8));
            let (x1, y1) = (x0 + rng.gen_range(0.0..0.5), y0 + rng.gen_range(0.0..0.5));
            p.add_block(x0, y0, x1, y1, Watt(rng.gen_range(0.0..2.0)))
                .unwrap();
            s.set_power(tier, p).unwrap();
        }
        s
    }

    /// A `dt` that takes exactly `k` stability substeps on `stack`, from
    /// the stiffest `Σg` the reference `neighbours_sum` reports.
    fn dt_for_substeps(stack: &ThermalStack, k: usize) -> Seconds {
        let (tiers, nx, ny) = stack.grid();
        let mut g_max: f64 = 0.0;
        for tier in 0..tiers {
            for iy in 0..ny {
                for ix in 0..nx {
                    g_max = g_max.max(stack.neighbours_sum(tier, ix, iy).0);
                }
            }
        }
        let dt_stable = 0.5 * stack.cell_capacity() / g_max;
        Seconds(dt_stable * (k as f64 - 0.5))
    }

    /// Runs exactly `k` SOR sweeps on `fast` through the solver and on
    /// `slow` through the reference loop (tolerance 0 never converges):
    /// both must stop `NotConverged` after `k` sweeps with bit-equal
    /// residuals and bit-identical fields.
    fn assert_sweeps_match_reference(fast: &mut ThermalStack, slow: &mut ThermalStack, k: usize) {
        let opts = SolveOptions {
            tolerance: 0.0,
            max_iterations: k,
            ..SolveOptions::default()
        };
        match (
            solve_steady_state(fast, &opts),
            reference_steady_state(slow, &opts),
        ) {
            (
                Err(ThermalError::NotConverged {
                    iterations: ia,
                    residual: ra,
                }),
                Err(ThermalError::NotConverged {
                    iterations: ib,
                    residual: rb,
                }),
            ) => {
                assert_eq!((ia, ib), (k, k));
                assert_eq!(ra.to_bits(), rb.to_bits(), "residual {ra} vs {rb}");
            }
            other => panic!("expected NotConverged after {k} sweeps from both, got {other:?}"),
        }
        assert_temps_bit_identical(fast, slow);
    }

    /// Applies one `add_vertical_conductance` to both stacks. Both must
    /// answer alike, and a refused add must leave the stack unchanged.
    fn add_to_both(
        fast: &mut ThermalStack,
        slow: &mut ThermalStack,
        iface: usize,
        (ix, iy): (usize, usize),
        g: f64,
    ) -> Result<(), ThermalError> {
        let before = fast.clone();
        let g = ptsim_device::units::WattPerKelvin(g);
        let r = fast.add_vertical_conductance(iface, ix, iy, g);
        // Compared as text: a refused NaN carries a NaN, which is not `==`.
        let other = slow.add_vertical_conductance(iface, ix, iy, g);
        assert_eq!(format!("{r:?}"), format!("{other:?}"));
        if r.is_err() {
            assert_eq!(*fast, before, "a refused add changed the stack");
        }
        r
    }

    ptsim_rng::forall! {
        #[test]
        fn fused_euler_step_is_bit_identical_to_reference_on_any_geometry(
            tiers in 1usize..6, nx in extent(), ny in extent(), seed in 0u64..u64::MAX,
            k in 1usize..60,
        ) {
            let mut fast = random_stack(tiers, nx, ny, seed);
            let mut slow = fast.clone();
            let mut scratch = TransientScratch::new();
            // k and k + 1 substeps: one odd and one even count per case, so
            // the scratch swap ends on both sides of the buffer pair.
            for substeps in [k, k + 1] {
                let dt = dt_for_substeps(&fast, substeps);
                let a = step_transient_with(&mut fast, dt, &mut scratch);
                let b = reference_step_transient(&mut slow, dt);
                assert_eq!((a, b), (substeps, substeps));
                assert_temps_bit_identical(&fast, &slow);
            }
        }

        #[test]
        fn sor_sweeps_are_bit_identical_to_reference_on_any_geometry(
            tiers in 1usize..6, nx in extent(), ny in extent(), seed in 0u64..u64::MAX,
            k in 1usize..40,
        ) {
            let mut fast = random_stack(tiers, nx, ny, seed);
            let mut slow = fast.clone();
            assert_sweeps_match_reference(&mut fast, &mut slow, k);
        }

        /// Conductance edits between warm transient steps and steady-state
        /// solves: every solver must see each edit exactly as the reference
        /// loops do, which re-derive `Σg` on every visit.
        #[test]
        fn conductance_edits_between_solves_match_reference(
            tiers in 2usize..6, nx in extent(), ny in extent(), seed in 0u64..u64::MAX,
        ) {
            use ptsim_rng::{Pcg64, Rng};
            let mut rng = Pcg64::seed_from_u64(seed.rotate_left(17));
            let mut fast = random_stack(tiers, nx, ny, seed);
            let mut slow = fast.clone();
            let mut scratch = TransientScratch::new();
            let hot = (rng.gen_range(0..nx), rng.gen_range(0..ny));
            // Every kind of edit, the repeated one three times, shuffled.
            let mut script = [0usize, 0, 0, 1, 2, 3, 4];
            for i in (1..script.len()).rev() {
                script.swap(i, rng.gen_range(0..i + 1));
            }
            for op in script {
                let cell = (rng.gen_range(0..nx), rng.gen_range(0..ny));
                let iface = rng.gen_range(0..tiers - 1);
                match op {
                    // Repeated adds on one cell.
                    0 => add_to_both(&mut fast, &mut slow, iface, hot, rng.gen_range(0.0..5e-4))
                        .unwrap(),
                    // Both interfaces of a middle tier at that cell (the
                    // upper one is out of range on a 2-tier stack).
                    1 => {
                        let mid = tiers / 2;
                        let g = rng.gen_range(0.0..5e-4);
                        add_to_both(&mut fast, &mut slow, mid - 1, hot, g).unwrap();
                        let upper = add_to_both(&mut fast, &mut slow, mid, hot, g);
                        assert_eq!(upper.is_ok(), mid + 1 < tiers, "{upper:?}");
                    }
                    // Zero and negative conductances add nothing.
                    2 => {
                        let g = [0.0, -0.0][rng.gen_range(0..2usize)];
                        add_to_both(&mut fast, &mut slow, iface, cell, g).unwrap();
                    }
                    3 => add_to_both(&mut fast, &mut slow, iface, cell, -rng.gen_range(1e-9..1.0))
                        .unwrap(),
                    // A non-finite conductance is refused.
                    _ => {
                        let g = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3usize)];
                        let r = add_to_both(&mut fast, &mut slow, iface, cell, g);
                        assert!(matches!(r, Err(ThermalError::InvalidGeometry { .. })), "{r:?}");
                    }
                }
                if rng.gen_bool(0.5) {
                    let substeps = rng.gen_range(1..4usize);
                    let dt = dt_for_substeps(&slow, substeps);
                    let a = step_transient_with(&mut fast, dt, &mut scratch);
                    let b = reference_step_transient(&mut slow, dt);
                    assert_eq!((a, b), (substeps, substeps));
                    assert_temps_bit_identical(&fast, &slow);
                } else {
                    assert_sweeps_match_reference(&mut fast, &mut slow, rng.gen_range(1..6usize));
                }
            }
        }

        #[test]
        fn non_positive_or_non_finite_dt_is_a_no_op(
            tiers in 1usize..4, nx in extent(), ny in extent(), seed in 0u64..u64::MAX,
            pick in 0usize..6, neg in 1e-9f64..10.0,
        ) {
            let mut stack = random_stack(tiers, nx, ny, seed);
            let mut scratch = TransientScratch::new();
            // Warm the scratch and move the field off ambient first.
            let warm = dt_for_substeps(&stack, 3);
            assert_eq!(step_transient_with(&mut stack, warm, &mut scratch), 3);
            let before = stack.clone();
            let dt = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, -neg][pick];
            assert_eq!(step_transient_with(&mut stack, Seconds(dt), &mut scratch), 0);
            assert_eq!(step_transient(&mut stack, Seconds(dt)), 0);
            assert_temps_bit_identical(&before, &stack);
        }
    }

    #[test]
    fn stencil_solver_hits_not_converged_like_reference() {
        let opts = SolveOptions {
            max_iterations: 3,
            ..SolveOptions::default()
        };
        let mut fast = irregular_stack(0.5, 0.5, 1.0, 1e-4);
        let mut slow = fast.clone();
        let a = solve_steady_state(&mut fast, &opts);
        let b = reference_steady_state(&mut slow, &opts);
        match (a, b) {
            (
                Err(ThermalError::NotConverged {
                    iterations: ia,
                    residual: ra,
                }),
                Err(ThermalError::NotConverged {
                    iterations: ib,
                    residual: rb,
                }),
            ) => {
                assert_eq!(ia, ib);
                assert_eq!(ra.to_bits(), rb.to_bits());
            }
            other => panic!("expected NotConverged from both, got {other:?}"),
        }
        assert_temps_bit_identical(&fast, &slow);
    }

    #[test]
    fn ambient_shift_propagates() {
        let mut cfg = StackConfig::single_die_5mm();
        cfg.ambient = Celsius(85.0);
        let mut s = ThermalStack::new(cfg).unwrap();
        let stats = solve_steady_state(&mut s, &SolveOptions::default()).unwrap();
        assert!(stats.residual < 1e-6);
        assert!((s.mean_temperature(0).unwrap().0 - 85.0).abs() < 1e-6);
    }

    ptsim_rng::forall! {
        #![cases = 24]

        #[test]
        fn non_finite_power_never_solves_to_ok(
            ix in 0usize..16,
            iy in 0usize..16,
            pick in 0usize..3,
            which in 0usize..3,
            exp10 in 307.3f64..308.0,
        ) {
            // The probe: `set_cell(3, 3, Watt(INFINITY))` on `four_tier_5mm`
            // used to store the +∞ and solve to `Ok(residual 0.0)`.
            let mut s = ThermalStack::new(StackConfig::four_tier_5mm()).unwrap();
            let map = s.power_mut(0).unwrap();
            assert!(matches!(
                map.set_cell(3, 3, Watt(f64::INFINITY)),
                Err(ThermalError::InvalidPower { .. })
            ));
            let bad = Watt([f64::INFINITY, f64::NEG_INFINITY, f64::NAN][pick]);
            let refused = match which {
                0 => map.set_cell(ix, iy, bad),
                1 => map.add_hotspot(0.4, 0.6, 0.1, bad),
                _ => map.add_block(0.2, 0.2, 0.6, 0.5, bad),
            };
            assert!(matches!(refused, Err(ThermalError::InvalidPower { .. })), "{refused:?}");
            assert_eq!(map.total(), Watt(0.0), "a refused wattage left the map changed");
            // A finite wattage large enough to overflow the field: the
            // sweeps "converge" once every update is NaN, and the solve must
            // report the non-finite field instead of success.
            map.set_cell(ix, iy, Watt(10f64.powf(exp10))).unwrap();
            let r = solve_steady_state(&mut s, &SolveOptions::default());
            assert!(matches!(r, Err(ThermalError::NonFiniteField { .. })), "{r:?}");
        }
    }
}
