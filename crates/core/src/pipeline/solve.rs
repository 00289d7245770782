//! Stage 3 — **solving**: the Newton decoupling solves with their
//! escalation ladder (default tuning → robust tuning → characterized-ROM
//! bisection).
//!
//! The boot-time 4×4 decoupling extracts `(ΔVtn, ΔVtp, µn, µp)` from the
//! four-measurement calibration plan; the per-conversion 3×3 decoupling
//! jointly solves `(T, ΔVtn, ΔVtp)`; and a degraded sensor falls back to a
//! 1×1 temperature-only solve on the TSRO row. Every escalation is recorded
//! in [`Health`], and the [`Solved`] boundary type is what the output stage
//! consumes.
//!
//! On the analytic model the 3×3 and 4×4 rows (`ConversionRows`,
//! `CalibrationRows`) compute their Jacobian in the same pass as the
//! residual, from the device and ring partials
//! ([`OnCurrent`], [`LnFrequency`]). The characterized ROM has no
//! derivative, so its rows and the 1×1 temperature-only solve take a
//! forward-difference Jacobian.
//!
//! On the analytic model the 3×3 and the 1×1 solves start temperature at a
//! prediction (`start_temperature`): a design-time TSRO table
//! (`StartTable`) evaluated at the die's registers and anchored at
//! calibration. The characterized ROM starts at the calibration
//! temperature.

use crate::bank::RoClass;
use crate::calib::{Calibration, StartAnchor};
use crate::error::SensorError;
use crate::health::{Health, HealthEvent};
use crate::metrics::PipelineMetrics;
use crate::newton::{newton_solve_with, ForwardDifference, NewtonOptions, NewtonScratch, System};
use crate::pipeline::gate::Gated;
use crate::sensor::PtSensor;
use ptsim_circuit::ring::{LnFrequency, RingCache};
use ptsim_device::delay::{BiasFactor, DelayCache, DrainFactor, OnCurrent, ThermalPoint, LANES};
use ptsim_device::inverter::CmosEnv;
use ptsim_device::units::{Celsius, Hertz, Volt};
use ptsim_device::MosPolarity;

/// Step of the characterized-response bisection grid used as the last-ditch
/// solver fallback, in °C.
pub(crate) const ROM_GRID_STEP: f64 = 0.25;

/// Whether an error is a solver-convergence failure the escalation ladder
/// may recover from (as opposed to a hard configuration/measurement error).
pub(crate) fn solver_failed(e: &SensorError) -> bool {
    matches!(
        e,
        SensorError::SolverDiverged { .. }
            | SensorError::SingularJacobian { .. }
            | SensorError::IllConditioned { .. }
    )
}

/// Model environment used by the decoupling solver (golden model plus
/// hypothesized process state).
pub(crate) fn model_env(d_vtn: f64, d_vtp: f64, mu_n: f64, mu_p: f64, temp: Celsius) -> CmosEnv {
    CmosEnv {
        temp,
        d_vtn: Volt(d_vtn),
        d_vtp: Volt(d_vtp),
        mu_n,
        mu_p,
    }
}

/// Forward-difference steps of the 3×3 conversion decoupling on the
/// characterized model.
pub(crate) const CONV_FD_STEPS: [f64; 3] = [0.01, 1e-4, 1e-4];
/// Per-unknown step limits of the 3×3 conversion decoupling.
pub(crate) const CONV_STEP_LIMITS: [f64; 3] = [40.0, 0.03, 0.03];
/// Forward-difference steps of the 4×4 calibration decoupling on the
/// characterized model.
pub(crate) const CAL_FD_STEPS: [f64; 4] = [1e-4, 1e-4, 1e-3, 1e-3];
/// Per-unknown step limits of the 4×4 calibration decoupling.
pub(crate) const CAL_STEP_LIMITS: [f64; 4] = [0.04, 0.04, 0.15, 0.15];

pub(crate) const NMOS: MosPolarity = MosPolarity::Nmos;
pub(crate) const PMOS: MosPolarity = MosPolarity::Pmos;

/// The model rows of one decoupling solve — each row's ring and supply —
/// and which earlier row's drain factor and per-polarity bias factor each
/// row reuses.
///
/// A device's bias factor (`softplus`, one `exp` and one `ln_1p`) reads
/// only its polarity constants, `2n`, the thermal point, the supply and the
/// threshold shift, never the ring geometry; the drain factor reads only
/// the thermal point and the supply. Rows whose supplies are bit-equal
/// (and, for a bias factor, whose devices [share the
/// factor](DelayCache::shares_bias_factor)) therefore get the identical
/// value, partials included, from one evaluation; each row still
/// recombines it with its own geometry. The share is derived here from the
/// operands, never assumed.
pub(crate) struct RingRows<'a, const R: usize> {
    pub(crate) rings: [&'a RingCache; R],
    pub(crate) vdds: [Volt; R],
    /// `share_vdd[i]`: the first row at row `i`'s supply.
    share_vdd: [usize; R],
    /// `share_n[i]`: the first row whose NMOS factor row `i` reuses
    /// (`i` itself when no earlier row shares it).
    pub(crate) share_n: [usize; R],
    /// PMOS counterpart of `share_n`.
    pub(crate) share_p: [usize; R],
}

impl<'a, const R: usize> RingRows<'a, R> {
    pub(crate) fn new(rings: [&'a RingCache; R], vdds: [Volt; R]) -> Self {
        let same_vdd = |i: usize, j: usize| vdds[j].0.to_bits() == vdds[i].0.to_bits();
        let share = |pol| {
            core::array::from_fn(|i| {
                (0..i)
                    .find(|&j| {
                        same_vdd(i, j) && rings[j].delay().shares_bias_factor(rings[i].delay(), pol)
                    })
                    .unwrap_or(i)
            })
        };
        RingRows {
            rings,
            vdds,
            share_vdd: core::array::from_fn(|i| (0..i).find(|&j| same_vdd(i, j)).unwrap_or(i)),
            share_n: share(NMOS),
            share_p: share(PMOS),
        }
    }

    fn share(&self, pol: MosPolarity) -> &[usize; R] {
        match pol {
            MosPolarity::Nmos => &self.share_n,
            MosPolarity::Pmos => &self.share_p,
        }
    }

    /// Each row's drain factor at `th`, one evaluation per distinct supply.
    pub(crate) fn drains(&self, th: &ThermalPoint) -> [DrainFactor; R] {
        let mut out = [DrainFactor::default(); R];
        for i in 0..R {
            out[i] = if self.share_vdd[i] == i {
                DelayCache::drain_partials(th, self.vdds[i])
            } else {
                out[self.share_vdd[i]]
            };
        }
        out
    }

    /// Lane-parallel [`RingRows::drains`].
    pub(crate) fn drains_lanes(
        &self,
        th: &[ThermalPoint; LANES],
        live: &[bool; LANES],
    ) -> [[DrainFactor; LANES]; R] {
        let mut out = [[DrainFactor::default(); LANES]; R];
        for i in 0..R {
            if self.share_vdd[i] == i {
                DelayCache::drain_partials_lanes(th, self.vdds[i], live, &mut out[i]);
            } else {
                out[i] = out[self.share_vdd[i]];
            }
        }
        out
    }

    /// Polarity-`pol` on-currents of every row with their partials at
    /// threshold shift `dvt`: each distinct bias factor is evaluated once,
    /// then recombined per ring.
    pub(crate) fn currents(
        &self,
        pol: MosPolarity,
        th: &ThermalPoint,
        dvt: f64,
        mu: f64,
        drains: &[DrainFactor; R],
    ) -> [OnCurrent; R] {
        let share = self.share(pol);
        let mut g = [BiasFactor::default(); R];
        core::array::from_fn(|i| {
            let delay = self.rings[i].delay();
            if share[i] == i {
                g[i] = delay.bias_partials(pol, th, self.vdds[i], dvt);
            }
            delay.current_partials(pol, th, &g[share[i]], mu, &drains[i])
        })
    }

    /// Lane-parallel [`RingRows::currents`]; each row and active lane is
    /// bit-identical to the scalar call with that lane's operands.
    // One SoA column per parameter, as in the device-level lane kernels.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn currents_lanes(
        &self,
        pol: MosPolarity,
        th: &[ThermalPoint; LANES],
        dvt: &[f64; LANES],
        mu: &[f64; LANES],
        drains: &[[DrainFactor; LANES]; R],
        live: &[bool; LANES],
        out: &mut [[OnCurrent; LANES]; R],
    ) {
        let share = self.share(pol);
        let mut g = [[BiasFactor::default(); LANES]; R];
        for i in 0..R {
            let delay = self.rings[i].delay();
            if share[i] == i {
                delay.bias_partials_lanes(pol, th, self.vdds[i], dvt, live, &mut g[i]);
            }
            delay.current_partials_lanes(pol, th, &g[share[i]], mu, &drains[i], live, &mut out[i]);
        }
    }

    /// Each row's `ln f` with its partials, from its two currents.
    pub(crate) fn ln_frequencies(
        &self,
        n: &[OnCurrent; R],
        p: &[OnCurrent; R],
    ) -> [LnFrequency; R] {
        core::array::from_fn(|i| {
            self.rings[i].ln_frequency_from_currents(n[i].i, p[i].i, self.vdds[i])
        })
    }

    /// Lane-parallel [`RingRows::ln_frequencies`].
    pub(crate) fn ln_frequencies_lanes(
        &self,
        n: &[[OnCurrent; LANES]; R],
        p: &[[OnCurrent; LANES]; R],
        live: &[bool; LANES],
        out: &mut [[LnFrequency; LANES]; R],
    ) {
        for i in 0..R {
            self.rings[i].ln_frequency_lanes(&n[i], &p[i], self.vdds[i], live, &mut out[i]);
        }
    }
}

/// Jacobian row `∂r/∂(T, ΔVtn, ΔVtp)` of one conversion row, by the chain
/// rule through the ring's `ln f` partials and the device partials. The
/// scalar and lane solvers both assemble their rows here.
#[inline]
pub(crate) fn conversion_jacobian_row(f: &LnFrequency, n: &OnCurrent, p: &OnCurrent) -> [f64; 3] {
    [
        f.d_ln_in * n.dln_dt + f.d_ln_ip * p.dln_dt,
        f.d_ln_in * n.dln_dvt,
        f.d_ln_ip * p.dln_dvt,
    ]
}

/// Jacobian row `∂r/∂(ΔVtn, ΔVtp, µn, µp)` of one calibration row
/// (`∂ln I/∂µ = 1/µ`).
#[inline]
pub(crate) fn calibration_jacobian_row(
    f: &LnFrequency,
    n: &OnCurrent,
    p: &OnCurrent,
    mu_n: f64,
    mu_p: f64,
) -> [f64; 4] {
    [
        f.d_ln_in * n.dln_dvt,
        f.d_ln_ip * p.dln_dvt,
        f.d_ln_in / mu_n,
        f.d_ln_ip / mu_p,
    ]
}

/// The analytic 3×3 conversion rows of one die, unknowns
/// `(T °C, ΔVtn, ΔVtp)`: TSRO, PSRO-N and PSRO-P, each `ln f_model − ln
/// f_measured` (the TSRO row plus the calibrated `ln_scale`). The residual
/// pass caches the partials its Jacobian is assembled from.
pub(crate) struct ConversionRows<'a> {
    rows: RingRows<'a, 3>,
    /// Measured `ln f` per row.
    ln_m: [f64; 3],
    ln_scale: f64,
    mu_n: f64,
    mu_p: f64,
    n: [OnCurrent; 3],
    p: [OnCurrent; 3],
    f: [LnFrequency; 3],
}

/// The conversion rows' rings and supplies.
pub(crate) fn conversion_rows(sensor: &PtSensor) -> RingRows<'_, 3> {
    let bank = &sensor.spec.bank;
    RingRows::new(
        [RoClass::Tsro, RoClass::PsroN, RoClass::PsroP].map(|c| sensor.cache.ring(c)),
        [bank.vdd_tsro, bank.vdd_low, bank.vdd_low],
    )
}

/// Spacing of the start table's nodes, °C.
const START_NODE_STEP: f64 = 10.0;

/// Threshold step of the start table's central-difference curvature, V.
const START_CURVATURE_STEP: f64 = 0.01;

/// The acceptance range with the guard band the solves search beyond it:
/// the start table's span and the ROM bisection's scan.
fn guarded_range(sensor: &PtSensor) -> (f64, f64) {
    let (lo, hi) = sensor.spec.temp_range;
    (lo.0 - 10.0, hi.0 + 10.0)
}

/// The terms of the start table's expansion at process state
/// `q = (ΔVtn, ΔVtp, µn, µp)`: the deviations from nominal, then the
/// second-order threshold terms.
fn expansion_terms(q: &[f64; 4]) -> [f64; 7] {
    let (n, p) = (q[0], q[1]);
    [n, p, q[2] - 1.0, q[3] - 1.0, n * n, p * p, n * p]
}

/// The design-time table the conversion solves take their start
/// temperature from. At nodes about [`START_NODE_STEP`] apart over the
/// guarded acceptance range it holds the TSRO row's `ln f` at nominal
/// process, expanded to first order in `(ΔVtn, ΔVtp, µn, µp)` and to second
/// order in the thresholds: the first-order terms are the analytic
/// partials, the second-order ones central differences of them. A die's
/// TSRO model is that expansion at its stored registers plus its
/// [`StartAnchor`]. Built once per design, on first use (see
/// [`PtSensor::start_table`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StartTable {
    lo: f64,
    step: f64,
    /// Per node, the nominal `ln f`, then the coefficient of each of the
    /// [`expansion_terms`].
    nodes: Vec<[f64; 8]>,
}

impl StartTable {
    /// Per node, the TSRO row at nominal process and with each threshold
    /// moved by `±START_CURVATURE_STEP`: one thermal point and drain
    /// factor, three currents per polarity, five `ln f` combinations.
    pub(crate) fn build(sensor: &PtSensor) -> Self {
        let (lo, hi) = guarded_range(sensor);
        let intervals = ((hi - lo) / START_NODE_STEP).ceil() as usize;
        let step = (hi - lo) / intervals as f64;
        let tsro = sensor.cache.ring(RoClass::Tsro);
        let rows = RingRows::new([tsro], [sensor.spec.bank.vdd_tsro]);
        let h = START_CURVATURE_STEP;
        let nodes = (0..=intervals)
            .map(|i| {
                let th = rows.rings[0].thermal(Celsius(lo + step * i as f64));
                let drains = rows.drains(&th);
                let n = [0.0, h, -h].map(|dvt| rows.currents(NMOS, &th, dvt, 1.0, &drains));
                let p = [0.0, h, -h].map(|dvt| rows.currents(PMOS, &th, dvt, 1.0, &drains));
                // `ln f` and its partials at the `a`-th NMOS and the `b`-th
                // PMOS shift of `[0, h, -h]`.
                let pass = |a: usize, b: usize| {
                    let [f] = rows.ln_frequencies(&n[a], &p[b]);
                    (
                        f.ln_f,
                        calibration_jacobian_row(&f, &n[a][0], &p[b][0], 1.0, 1.0),
                    )
                };
                let (ln_f, d) = pass(0, 0);
                let ((_, n_hi), (_, n_lo)) = (pass(1, 0), pass(2, 0));
                let ((_, p_hi), (_, p_lo)) = (pass(0, 1), pass(0, 2));
                let central = |hi: f64, lo: f64| (hi - lo) / (2.0 * h);
                let cross = 0.5 * (central(n_hi[1], n_lo[1]) + central(p_hi[0], p_lo[0]));
                [
                    ln_f,
                    d[0],
                    d[1],
                    d[2],
                    d[3],
                    0.5 * central(n_hi[0], n_lo[0]),
                    0.5 * central(p_hi[1], p_lo[1]),
                    cross,
                ]
            })
            .collect();
        StartTable { lo, step, nodes }
    }

    fn temp(&self, i: usize) -> f64 {
        self.lo + self.step * i as f64
    }

    /// Node `i`'s expanded `ln f` for the `terms` of a process state.
    fn expanded(&self, i: usize, terms: &[f64; 7]) -> f64 {
        let (c, x) = (&self.nodes[i], terms);
        // Summed as a tree, so the adds do not form one serial chain.
        ((c[0] + c[1] * x[0]) + (c[2] * x[1] + c[3] * x[2]))
            + ((c[4] * x[3] + c[5] * x[4]) + (c[6] * x[5] + c[7] * x[6]))
    }

    /// The expansion at temperature `t` (linear between the nodes,
    /// clamped to the table).
    fn interpolated(&self, t: f64, terms: &[f64; 7]) -> f64 {
        let last = self.nodes.len() - 1;
        let u = ((t - self.lo) / self.step).clamp(0.0, last as f64);
        let i = (u as usize).min(last - 1);
        let g = self.expanded(i, terms);
        g + (self.expanded(i + 1, terms) - g) * (u - i as f64)
    }

    /// The anchor of `cal`'s registers: one TSRO model pass at them and the
    /// calibration temperature.
    pub(crate) fn anchor(&self, sensor: &PtSensor, cal: &Calibration) -> StartAnchor {
        let (q, t_cal) = (cal.process(), cal.calib_temp());
        let env = model_env(q[0], q[1], q[2], q[3], t_cal);
        let ln_f = sensor.model_ln_f(RoClass::Tsro, sensor.spec.bank.vdd_tsro, &env);
        let tabulated = self.interpolated(t_cal.0, &expansion_terms(&q));
        StartAnchor {
            process: q,
            shift: cal.ln_tsro_scale() + (ln_f - tabulated),
        }
    }

    /// The temperature at which an anchored die's TSRO model reads the
    /// measured `ln_ft`: a bracket search over the nodes, then a linear
    /// solve inside the bracket; clamped to the table's edges. Plain
    /// arithmetic only: no libm call, no register read.
    pub(crate) fn predict(&self, anchor: &StartAnchor, ln_ft: f64) -> f64 {
        let terms = expansion_terms(&anchor.process);
        let y = ln_ft - anchor.shift;
        // The bracket: the last node reading below `y` (the first if none
        // does), found in the same number of probes for every `y`.
        let (mut i, mut len) = (0, self.nodes.len() - 1);
        while len > 1 {
            let half = len / 2;
            if self.expanded(i + half, &terms) < y {
                i += half;
            }
            len -= half;
        }
        let (g0, g1) = (self.expanded(i, &terms), self.expanded(i + 1, &terms));
        let u = ((y - g0) / (g1 - g0)).clamp(0.0, 1.0);
        self.temp(i) + self.step * u
    }
}

/// The temperature a conversion solve on `cal` starts from, given the
/// measured `ln f_TSRO`: the anchored prediction on analytic sensors, the
/// calibration temperature otherwise (characterized-model sensors, and
/// calibrations no calibration pass anchored).
pub(crate) fn start_temperature(sensor: &PtSensor, cal: &Calibration, ln_ft: f64) -> f64 {
    let predicted = cal
        .anchor()
        .and_then(|anchor| Some(sensor.start_table()?.predict(anchor, ln_ft)));
    predicted.unwrap_or(cal.calib_temp().0)
}

impl<'a> ConversionRows<'a> {
    pub(crate) fn new(
        sensor: &'a PtSensor,
        cal: &Calibration,
        f_t: Hertz,
        f_n: Hertz,
        f_p: Hertz,
    ) -> Self {
        ConversionRows {
            rows: conversion_rows(sensor),
            // Same evaluation order as `LaneBatch::push`.
            ln_m: [f_t.0.ln(), f_n.0.ln(), f_p.0.ln()],
            ln_scale: cal.ln_tsro_scale(),
            mu_n: cal.mu_n(),
            mu_p: cal.mu_p(),
            n: [OnCurrent::default(); 3],
            p: [OnCurrent::default(); 3],
            f: [LnFrequency::default(); 3],
        }
    }
}

impl System for ConversionRows<'_> {
    fn residual(&mut self, v: &[f64], out: &mut [f64]) {
        let th = self.rows.rings[0].thermal(Celsius(v[0]));
        let drains = self.rows.drains(&th);
        self.n = self.rows.currents(NMOS, &th, v[1], self.mu_n, &drains);
        self.p = self.rows.currents(PMOS, &th, v[2], self.mu_p, &drains);
        self.f = self.rows.ln_frequencies(&self.n, &self.p);
        out[0] = self.f[0].ln_f - self.ln_m[0] + self.ln_scale;
        out[1] = self.f[1].ln_f - self.ln_m[1];
        out[2] = self.f[2].ln_f - self.ln_m[2];
    }

    fn jacobian(&mut self, _: &[f64], _: &[f64], jac: &mut [f64]) {
        for i in 0..3 {
            let row = conversion_jacobian_row(&self.f[i], &self.n[i], &self.p[i]);
            jac[3 * i..3 * i + 3].copy_from_slice(&row);
        }
    }
}

/// The analytic 4×4 calibration rows of one die, unknowns
/// `(ΔVtn, ΔVtp, µn, µp)` at the fixed calibration temperature: one row
/// per boot-plan measurement, `ln f_model − ln f_measured`.
pub(crate) struct CalibrationRows<'a> {
    rows: RingRows<'a, 4>,
    th: ThermalPoint,
    drains: [DrainFactor; 4],
    ln_m: [f64; 4],
    n: [OnCurrent; 4],
    p: [OnCurrent; 4],
    f: [LnFrequency; 4],
}

/// The calibration rows' rings and supplies, one per boot-plan entry.
pub(crate) fn calibration_rows<'a>(
    sensor: &'a PtSensor,
    plan: &[(RoClass, Volt); 4],
) -> RingRows<'a, 4> {
    RingRows::new(
        plan.map(|(class, _)| sensor.cache.ring(class)),
        plan.map(|(_, vdd)| vdd),
    )
}

impl<'a> CalibrationRows<'a> {
    pub(crate) fn new(
        sensor: &'a PtSensor,
        plan: &[(RoClass, Volt); 4],
        measured: &[f64; 4],
    ) -> Self {
        // The calibration temperature is fixed, so the thermal point and
        // the drain factors are loop constants.
        let rows = calibration_rows(sensor, plan);
        let th = sensor.cache.thermal(sensor.spec.calib_temp);
        CalibrationRows {
            drains: rows.drains(&th),
            rows,
            th,
            ln_m: measured.map(f64::ln),
            n: [OnCurrent::default(); 4],
            p: [OnCurrent::default(); 4],
            f: [LnFrequency::default(); 4],
        }
    }
}

impl System for CalibrationRows<'_> {
    fn residual(&mut self, v: &[f64], out: &mut [f64]) {
        self.n = self.rows.currents(NMOS, &self.th, v[0], v[2], &self.drains);
        self.p = self.rows.currents(PMOS, &self.th, v[1], v[3], &self.drains);
        self.f = self.rows.ln_frequencies(&self.n, &self.p);
        for (slot, out_s) in out.iter_mut().enumerate() {
            *out_s = self.f[slot].ln_f - self.ln_m[slot];
        }
    }

    fn jacobian(&mut self, v: &[f64], _: &[f64], jac: &mut [f64]) {
        for i in 0..4 {
            let row = calibration_jacobian_row(&self.f[i], &self.n[i], &self.p[i], v[2], v[3]);
            jac[4 * i..4 * i + 4].copy_from_slice(&row);
        }
    }
}

/// Solved process/temperature state of one conversion, before output
/// bounding and quantization.
#[derive(Debug, Clone, Copy)]
pub struct Solved {
    /// Solved junction temperature, °C.
    pub temperature: f64,
    /// Solved (or calibration-frozen) NMOS threshold shift, V.
    pub d_vtn: f64,
    /// Solved (or calibration-frozen) PMOS threshold shift, V.
    pub d_vtp: f64,
    /// Newton iterations (or ROM-grid model evaluations) spent.
    pub iterations: usize,
}

/// The 4×4 boot-time decoupling solve.
///
/// # Errors
///
/// Propagates Newton convergence failures under the given tuning.
pub(crate) fn solve_calibration(
    sensor: &PtSensor,
    plan: &[(RoClass, Volt); 4],
    measured: &[f64; 4],
    opts: &NewtonOptions,
    ns: &mut NewtonScratch,
) -> Result<([f64; 4], usize), SensorError> {
    let what = "calibration decoupling";
    let mut x = [0.0, 0.0, 1.0, 1.0];
    let iters = if sensor.characterized_model().is_some() {
        let t_cal = sensor.spec.calib_temp;
        let ln_m = measured.map(f64::ln);
        let mut rom = ForwardDifference::new(
            |v: &[f64], out: &mut [f64]| {
                let env = model_env(v[0], v[1], v[2], v[3], t_cal);
                for (slot, (class, vdd)) in plan.iter().enumerate() {
                    out[slot] = sensor.model_ln_f(*class, *vdd, &env) - ln_m[slot];
                }
            },
            &CAL_FD_STEPS,
        );
        newton_solve_with(ns, &mut x, &mut rom, &CAL_STEP_LIMITS, opts, what)?
    } else {
        let mut rows = CalibrationRows::new(sensor, plan, measured);
        newton_solve_with(ns, &mut x, &mut rows, &CAL_STEP_LIMITS, opts, what)?
    };
    Ok((x, iters))
}

/// The boot-time solve with its escalation: plain tuning first, the robust
/// tuning on a convergence failure (recorded in `health`).
///
/// # Errors
///
/// Propagates solver errors when both tunings fail, or any hard error.
pub(crate) fn solve_calibration_escalating(
    sensor: &PtSensor,
    plan: &[(RoClass, Volt); 4],
    measured: &[f64; 4],
    health: &mut Health,
    ns: &mut NewtonScratch,
    metrics: &mut Option<PipelineMetrics>,
) -> Result<([f64; 4], usize), SensorError> {
    match solve_calibration(sensor, plan, measured, &NewtonOptions::default(), ns) {
        Ok(solved) => Ok(solved),
        Err(e) if solver_failed(&e) => {
            health.record(HealthEvent::SolverRetuned {
                what: "calibration decoupling",
            });
            if let Some(m) = metrics.as_mut() {
                m.on_solver_retuned();
            }
            solve_calibration(sensor, plan, measured, &NewtonOptions::robust(), ns)
        }
        Err(e) => Err(e),
    }
}

/// The joint 3×3 conversion solve: `(T, ΔVtn, ΔVtp)` from `(f_t, f_n, f_p)`.
fn solve_conversion(
    sensor: &PtSensor,
    cal: &Calibration,
    f_t: Hertz,
    f_n: Hertz,
    f_p: Hertz,
    opts: &NewtonOptions,
    ns: &mut NewtonScratch,
) -> Result<([f64; 3], usize), SensorError> {
    let what = "conversion decoupling";
    // The TSRO row dominates temperature and the PSRO rows dominate the
    // thresholds, so the Jacobian is diagonally strong and quadratic
    // convergence holds even for large post-calibration drift (aging,
    // stress). The thresholds start at their calibration registers;
    // temperature starts where the die's anchored TSRO model reads the
    // measured frequency (`start_temperature`), so a read far from the
    // calibration point does not spend its first iterations walking there.
    let mut x = [cal.calib_temp().0, cal.d_vtn().0, cal.d_vtp().0];
    let iters = if sensor.characterized_model().is_some() {
        let spec = sensor.spec;
        let ln_scale = cal.ln_tsro_scale();
        let (mu_n, mu_p) = (cal.mu_n(), cal.mu_p());
        let (ln_ft, ln_fn, ln_fp) = (f_t.0.ln(), f_n.0.ln(), f_p.0.ln());
        let mut rom = ForwardDifference::new(
            |v: &[f64], out: &mut [f64]| {
                let env = model_env(v[1], v[2], mu_n, mu_p, Celsius(v[0]));
                let (vdd_t, vdd_l) = (spec.bank.vdd_tsro, spec.bank.vdd_low);
                out[0] = sensor.model_ln_f(RoClass::Tsro, vdd_t, &env) - ln_ft + ln_scale;
                out[1] = sensor.model_ln_f(RoClass::PsroN, vdd_l, &env) - ln_fn;
                out[2] = sensor.model_ln_f(RoClass::PsroP, vdd_l, &env) - ln_fp;
            },
            &CONV_FD_STEPS,
        );
        newton_solve_with(ns, &mut x, &mut rom, &CONV_STEP_LIMITS, opts, what)?
    } else {
        let mut rows = ConversionRows::new(sensor, cal, f_t, f_n, f_p);
        x[0] = start_temperature(sensor, cal, rows.ln_m[0]);
        newton_solve_with(ns, &mut x, &mut rows, &CONV_STEP_LIMITS, opts, what)?
    };
    Ok((x, iters))
}

/// TSRO-row residual at hypothesized temperature `t`, with the process
/// state frozen at the stored calibration and the measured log-frequency
/// (`ln_ft = f_t.ln()`) already computed — solver loops and the ROM grid
/// scan hoist the `ln` out of their per-evaluation work (bit-identical:
/// same value, same addend order).
fn tsro_residual_ln(sensor: &PtSensor, cal: &Calibration, ln_ft: f64, t: f64) -> f64 {
    let env = model_env(
        cal.d_vtn().0,
        cal.d_vtp().0,
        cal.mu_n(),
        cal.mu_p(),
        Celsius(t),
    );
    sensor.model_ln_f(RoClass::Tsro, sensor.spec.bank.vdd_tsro, &env) - ln_ft + cal.ln_tsro_scale()
}

/// Temperature-only solve on the TSRO row (1×1 Newton, escalating to the
/// robust tuning and finally the characterized-response bisection).
/// Returns `(temperature, solver work)`.
///
/// # Errors
///
/// Propagates hard (non-convergence) solver errors.
pub(crate) fn solve_temperature_only(
    sensor: &PtSensor,
    cal: &Calibration,
    f_t: Hertz,
    health: &mut Health,
    ns: &mut NewtonScratch,
    metrics: &mut Option<PipelineMetrics>,
) -> Result<(f64, usize), SensorError> {
    let ln_ft = f_t.0.ln();
    let t0 = start_temperature(sensor, cal, ln_ft);
    let run = |opts: &NewtonOptions, ns: &mut NewtonScratch| -> Result<(f64, usize), SensorError> {
        let mut x = [t0];
        let mut tsro = ForwardDifference::new(
            |v: &[f64], out: &mut [f64]| out[0] = tsro_residual_ln(sensor, cal, ln_ft, v[0]),
            &[0.01],
        );
        let iters = newton_solve_with(
            ns,
            &mut x,
            &mut tsro,
            &[40.0],
            opts,
            "temperature-only decoupling",
        )?;
        Ok((x[0], iters))
    };
    match run(&NewtonOptions::default(), ns) {
        Ok(solved) => Ok(solved),
        Err(e) if solver_failed(&e) => {
            health.record(HealthEvent::SolverRetuned {
                what: "temperature-only decoupling",
            });
            if let Some(m) = metrics.as_mut() {
                m.on_solver_retuned();
            }
            match run(&NewtonOptions::robust(), ns) {
                Ok(solved) => Ok(solved),
                Err(e) if solver_failed(&e) => {
                    health.record(HealthEvent::RomFallback {
                        what: "temperature-only decoupling",
                    });
                    if let Some(m) = metrics.as_mut() {
                        m.on_rom_fallback();
                    }
                    Ok(rom_bisect_temperature(sensor, cal, f_t))
                }
                Err(e) => Err(e),
            }
        }
        Err(e) => Err(e),
    }
}

/// Last-ditch solver fallback: grid-scan the characterized TSRO response
/// over (a guard band around) the acceptance range for the temperature
/// minimizing the residual. Immune to divergence by construction. Returns
/// `(temperature, model evaluations)`.
pub(crate) fn rom_bisect_temperature(
    sensor: &PtSensor,
    cal: &Calibration,
    f_t: Hertz,
) -> (f64, usize) {
    let (lo, hi) = guarded_range(sensor);
    let steps = ((hi - lo) / ROM_GRID_STEP).ceil() as usize;
    let ln_ft = f_t.0.ln();
    let mut best = (f64::INFINITY, lo);
    for i in 0..=steps {
        let t = lo + (hi - lo) * i as f64 / steps as f64;
        let r = tsro_residual_ln(sensor, cal, ln_ft, t).abs();
        if r < best.0 {
            best = (r, t);
        }
    }
    (best.1, steps + 1)
}

/// Solves one gated measurement set. With both PSROs the joint 3×3
/// decoupling runs (escalating through the robust tuning to the ROM
/// bisection); a lost PSRO degrades to the temperature-only solve with the
/// threshold shifts frozen at their calibration values.
///
/// # Errors
///
/// Propagates solver errors when every escalation stage fails.
pub fn solve_gated(
    sensor: &PtSensor,
    cal: &Calibration,
    gated: &Gated,
    health: &mut Health,
) -> Result<Solved, SensorError> {
    solve_gated_with(
        sensor,
        cal,
        gated,
        health,
        &mut NewtonScratch::new(),
        &mut None,
    )
}

/// [`solve_gated`] with a caller-owned (reusable) [`NewtonScratch`] — the
/// allocation-free form the batch hot path uses.
///
/// # Errors
///
/// See [`solve_gated`].
pub(crate) fn solve_gated_with(
    sensor: &PtSensor,
    cal: &Calibration,
    gated: &Gated,
    health: &mut Health,
    ns: &mut NewtonScratch,
    metrics: &mut Option<PipelineMetrics>,
) -> Result<Solved, SensorError> {
    let f_t = gated.f_tsro;
    let backoffs_before = ns.backoffs();
    let (temperature, d_vtn, d_vtp, iterations) = match (gated.f_psro_n, gated.f_psro_p) {
        (Some(f_n), Some(f_p)) => {
            match solve_conversion(sensor, cal, f_t, f_n, f_p, &NewtonOptions::default(), ns) {
                Ok((x, iters)) => (x[0], x[1], x[2], iters),
                Err(e) if solver_failed(&e) => {
                    health.record(HealthEvent::SolverRetuned {
                        what: "conversion decoupling",
                    });
                    if let Some(m) = metrics.as_mut() {
                        m.on_solver_retuned();
                    }
                    match solve_conversion(sensor, cal, f_t, f_n, f_p, &NewtonOptions::robust(), ns)
                    {
                        Ok((x, iters)) => (x[0], x[1], x[2], iters),
                        Err(e) if solver_failed(&e) => {
                            health.record(HealthEvent::RomFallback {
                                what: "conversion decoupling",
                            });
                            if let Some(m) = metrics.as_mut() {
                                m.on_rom_fallback();
                            }
                            let (t, iters) = rom_bisect_temperature(sensor, cal, f_t);
                            (t, cal.d_vtn().0, cal.d_vtp().0, iters)
                        }
                        Err(e) => return Err(e),
                    }
                }
                Err(e) => return Err(e),
            }
        }
        _ => {
            health.record(HealthEvent::DegradedTemperatureOnly);
            if let Some(m) = metrics.as_mut() {
                m.on_degraded();
            }
            let (t, iters) = solve_temperature_only(sensor, cal, f_t, health, ns, metrics)?;
            (t, cal.d_vtn().0, cal.d_vtp().0, iters)
        }
    };
    if let Some(m) = metrics.as_mut() {
        m.on_solver_iterations(iterations);
        m.on_newton_backoffs(ns.backoffs() - backoffs_before);
    }
    Ok(Solved {
        temperature,
        d_vtn,
        d_vtp,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::RoClass;
    use crate::newton::LaneSolve;
    use crate::pipeline::gate;
    use crate::pipeline::lanes::{solve_conversion_lanes, LaneBatch, LANES};
    use crate::pipeline::output::finalize;
    use crate::sensor::{HardeningSpec, SensorInputs, SensorSpec};
    use ptsim_circuit::energy::EnergyLedger;
    use ptsim_device::process::Technology;
    use ptsim_faults::catalog;
    use ptsim_mc::die::{DieSample, DieSite};
    use ptsim_mc::model::VariationModel;
    use ptsim_rng::{forall, Pcg64};

    fn calibrated() -> (PtSensor, DieSample) {
        let die = DieSample::nominal();
        let mut s = PtSensor::new(Technology::n65(), SensorSpec::default_65nm()).unwrap();
        let inputs = SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0));
        let mut rng = Pcg64::seed_from_u64(11);
        s.calibrate(&inputs, &mut rng).unwrap();
        (s, die)
    }

    fn true_tsro_frequency(s: &PtSensor, die: &DieSample, t: f64) -> Hertz {
        let inputs = SensorInputs::new(die, DieSite::CENTER, Celsius(t));
        let env = s.die_env(RoClass::Tsro, &inputs, Celsius(t));
        let vdd = s.spec().bank.vdd_tsro;
        s.bank().frequency(s.technology(), RoClass::Tsro, vdd, &env)
    }

    #[test]
    fn degraded_solve_freezes_thresholds_at_calibration() {
        // Degraded temperature-only mode, isolated at the solve stage: a
        // gated set with a lost PSRO must solve temperature from the TSRO
        // row alone and freeze the threshold outputs.
        let (s, die) = calibrated();
        let cal = *s.calibration().unwrap();
        let gated = Gated {
            f_tsro: true_tsro_frequency(&s, &die, 85.0),
            f_psro_n: None,
            f_psro_p: Some(Hertz(1.0e8)),
        };
        let mut health = Health::nominal();
        let solved = solve_gated(&s, &cal, &gated, &mut health).unwrap();
        assert!(health.any(|e| matches!(e, HealthEvent::DegradedTemperatureOnly)));
        assert!(
            (solved.temperature - 85.0).abs() < 3.0,
            "degraded temp {} vs 85 °C",
            solved.temperature
        );
        assert_eq!(solved.d_vtn.to_bits(), cal.d_vtn().0.to_bits());
        assert_eq!(solved.d_vtp.to_bits(), cal.d_vtp().0.to_bits());
    }

    #[test]
    fn rom_bisection_brackets_the_true_temperature() {
        let (s, die) = calibrated();
        let cal = *s.calibration().unwrap();
        let f_t = true_tsro_frequency(&s, &die, 60.0);
        let (t, evals) = rom_bisect_temperature(&s, &cal, f_t);
        assert!(
            (t - 60.0).abs() < 2.0 * ROM_GRID_STEP + 1.5,
            "ROM fallback temp {t} vs 60 °C"
        );
        assert!(evals > 100, "grid scan must cover the range: {evals} evals");
    }

    #[test]
    fn joint_solve_matches_measured_state() {
        let (s, die) = calibrated();
        let cal = *s.calibration().unwrap();
        let inputs = SensorInputs::new(&die, DieSite::CENTER, Celsius(70.0));
        let mut rng = Pcg64::seed_from_u64(12);
        let mut ledger = ptsim_circuit::energy::EnergyLedger::new();
        let mut health = Health::nominal();
        let gated =
            crate::pipeline::gate::gate_conversion(&s, &inputs, &mut rng, &mut ledger, &mut health)
                .unwrap();
        let solved = solve_gated(&s, &cal, &gated, &mut health).unwrap();
        assert!((solved.temperature - 70.0).abs() < 1.5);
        assert!(solved.iterations > 0);
        assert!(health.is_nominal());
    }

    #[test]
    fn escalation_preserves_rng_free_purity() {
        // The solve stage consumes no RNG — same gated input, same output.
        let (s, die) = calibrated();
        let cal = *s.calibration().unwrap();
        let gated = Gated {
            f_tsro: true_tsro_frequency(&s, &die, 40.0),
            f_psro_n: None,
            f_psro_p: None,
        };
        let mut h1 = Health::nominal();
        let mut h2 = Health::nominal();
        let a = solve_gated(&s, &cal, &gated, &mut h1).unwrap();
        let b = solve_gated(&s, &cal, &gated, &mut h2).unwrap();
        assert_eq!(a.temperature.to_bits(), b.temperature.to_bits());
        assert_eq!(a.iterations, b.iterations);
    }

    /// The retained forward-difference solve of the same analytic rows:
    /// the Jacobian from one perturbed residual per unknown, the steps the
    /// characterized model uses.
    fn solve_fd<S: System>(
        rows: &mut S,
        x: &mut [f64],
        steps: &[f64],
        limits: &[f64],
        opts: &NewtonOptions,
    ) -> Result<usize, SensorError> {
        let mut fd =
            ForwardDifference::new(|v: &[f64], out: &mut [f64]| rows.residual(v, out), steps);
        newton_solve_with(
            &mut NewtonScratch::new(),
            x,
            &mut fd,
            limits,
            opts,
            "fd oracle",
        )
    }

    /// Where a conversion's escalation ladder ends — 0: default tuning,
    /// 1: robust tuning, 2: ROM fallback — with the unknowns and iterations
    /// of the tuning that converged, every tuning starting temperature at
    /// `t0`.
    fn conversion_ladder(
        sensor: &PtSensor,
        cal: &Calibration,
        gated: &Gated,
        t0: f64,
        fd: bool,
    ) -> (usize, [f64; 3], usize) {
        let (f_n, f_p) = (gated.f_psro_n.unwrap(), gated.f_psro_p.unwrap());
        for (stage, opts) in [NewtonOptions::default(), NewtonOptions::robust()]
            .iter()
            .enumerate()
        {
            let mut rows = ConversionRows::new(sensor, cal, gated.f_tsro, f_n, f_p);
            let mut x = [t0, cal.d_vtn().0, cal.d_vtp().0];
            let r = if fd {
                solve_fd(&mut rows, &mut x, &CONV_FD_STEPS, &CONV_STEP_LIMITS, opts)
            } else {
                let mut ns = NewtonScratch::new();
                newton_solve_with(
                    &mut ns,
                    &mut x,
                    &mut rows,
                    &CONV_STEP_LIMITS,
                    opts,
                    "analytic",
                )
            };
            match r {
                Ok(iters) => return (stage, x, iters),
                Err(e) => assert!(solver_failed(&e), "{e}"),
            }
        }
        (2, [f64::NAN; 3], 0)
    }

    /// The production start of a conversion of `gated` on `cal`.
    fn predicted(sensor: &PtSensor, cal: &Calibration, gated: &Gated) -> f64 {
        start_temperature(sensor, cal, gated.f_tsro.0.ln())
    }

    fn assert_same_root(what: &str, a: &[f64], oracle: &[f64], tol: &[f64]) {
        for j in 0..a.len() {
            assert!(
                (a[j] - oracle[j]).abs() <= tol[j],
                "{what} unknown {j}: {a:?} vs the oracle's {oracle:?}",
            );
        }
    }

    forall! {
        #![cases = 24]

        #[test]
        fn analytic_jacobian_matches_the_forward_difference_oracle(
            seed in 0u64..u64::MAX,
            t in -40.0f64..125.0,
            severity_pick in 0u64..3,
            hardened in 0u64..2,
        ) {
            let tech = Technology::n65();
            let mut rng = Pcg64::seed_from_u64(seed);
            let die = VariationModel::new(&tech).sample_die(&mut rng);
            let mut spec = SensorSpec::default_65nm();
            if hardened == 1 {
                // The R1 campaign's spec.
                spec.hardening = HardeningSpec::redundant();
                spec.hardening.max_drift = Volt(0.005);
            }
            let mut sensor = PtSensor::new(tech, spec).unwrap();

            // 4×4: the boot measurements of this die.
            let boot = SensorInputs::new(&die, DieSite::CENTER, spec.calib_temp);
            let plan = gate::calibration_plan(&spec);
            let (mut ledger, mut health) = (EnergyLedger::new(), Health::nominal());
            let measured =
                gate::gate_plan(&sensor, &plan, &boot, &mut rng, &mut ledger, &mut health).unwrap();
            let opts = NewtonOptions::default();
            let (x_a, iters_a) =
                solve_calibration(&sensor, &plan, &measured, &opts, &mut NewtonScratch::new())
                    .unwrap();
            let mut x_fd = [0.0, 0.0, 1.0, 1.0];
            let mut rows = CalibrationRows::new(&sensor, &plan, &measured);
            let iters_fd =
                solve_fd(&mut rows, &mut x_fd, &CAL_FD_STEPS, &CAL_STEP_LIMITS, &opts).unwrap();
            assert_same_root("calibration", &x_a, &x_fd, &[1e-9, 1e-9, 1e-9, 1e-9]);
            assert!(iters_a <= iters_fd, "calibration iterations {iters_a} > {iters_fd}");

            // 3×3: a healthy conversion at `t`, from the production start
            // and from the calibration point (the start of an unanchored
            // calibration), which walks the Jacobians across the range.
            sensor.calibrate(&boot, &mut rng).unwrap();
            let cal = *sensor.calibration().unwrap();
            let inputs = SensorInputs::new(&die, DieSite::CENTER, Celsius(t));
            let (mut ledger, mut health) = (EnergyLedger::new(), Health::nominal());
            let gated =
                gate::gate_conversion(&sensor, &inputs, &mut rng, &mut ledger, &mut health)
                    .unwrap();
            let starts = |cal: &Calibration, g: &Gated| [predicted(&sensor, cal, g), cal.calib_temp().0];
            for t0 in starts(&cal, &gated) {
                let (stage_a, x_a, iters_a) = conversion_ladder(&sensor, &cal, &gated, t0, false);
                let (stage_fd, x_fd, iters_fd) =
                    conversion_ladder(&sensor, &cal, &gated, t0, true);
                assert_eq!((stage_a, stage_fd), (0, 0), "healthy conversion escalated from {t0}");
                assert_same_root("conversion", &x_a, &x_fd, &[1e-6, 1e-9, 1e-9]);
                assert!(
                    iters_a <= iters_fd,
                    "conversion iterations {iters_a} > {iters_fd} from {t0}"
                );
            }

            // One channel scaled as a slowed ring (k < 1) or a stuck high
            // counter bit (k > 1) would scale it, past the gate: these drive
            // the ladder to every rung, and both Jacobians must stop on the
            // same one.
            for ch in 0..3 {
                for k in [0.05, 0.2, 0.5, 2.0, 5.0, 20.0] {
                    let mut bad = gated;
                    let scale = |f: Hertz| Hertz(f.0 * k);
                    match ch {
                        0 => bad.f_tsro = scale(bad.f_tsro),
                        1 => bad.f_psro_n = bad.f_psro_n.map(scale),
                        _ => bad.f_psro_p = bad.f_psro_p.map(scale),
                    }
                    for t0 in starts(&cal, &bad) {
                        let (stage_a, x_a, _) = conversion_ladder(&sensor, &cal, &bad, t0, false);
                        let (stage_fd, x_fd, _) = conversion_ladder(&sensor, &cal, &bad, t0, true);
                        assert_eq!(stage_a, stage_fd, "channel {ch} scaled by {k} from {t0}");
                        if stage_a < 2 {
                            assert_same_root("scaled", &x_a, &x_fd, &[1e-6, 1e-9, 1e-9]);
                        }
                    }
                }
            }

            // The R1 catalog's corrupted measurements: whatever passes the
            // gate must end on the same rung of the escalation ladder.
            let severity = [0.25, 0.5, 1.0][severity_pick as usize];
            for entry in catalog(severity) {
                // A register SEU outlives `clear_faults`: fault a copy.
                let mut faulty = sensor.clone();
                faulty.inject_faults(entry.plan.clone());
                let (mut ledger, mut health) = (EnergyLedger::new(), Health::nominal());
                let gated =
                    gate::gate_conversion(&faulty, &inputs, &mut rng, &mut ledger, &mut health);
                let Ok(gated) = gated else { continue };
                if gated.f_psro_n.is_none() || gated.f_psro_p.is_none() {
                    continue;
                }
                let Some(cal) = faulty.calibration().copied() else { continue };
                for t0 in [predicted(&faulty, &cal, &gated), cal.calib_temp().0] {
                    let (stage_a, x_a, _) = conversion_ladder(&faulty, &cal, &gated, t0, false);
                    let (stage_fd, x_fd, _) = conversion_ladder(&faulty, &cal, &gated, t0, true);
                    assert_eq!(stage_a, stage_fd, "{} at severity {severity} from {t0}", entry.id);
                    if stage_a < 2 {
                        assert_same_root(entry.id, &x_a, &x_fd, &[1e-6, 1e-9, 1e-9]);
                    }
                }
            }
        }
    }

    /// The reading a solve quantizes to: temperature and threshold shifts
    /// through the output registers.
    fn quantized(sensor: &PtSensor, cal: &Calibration, gated: &Gated, x: [f64; 3]) -> [f64; 3] {
        let solved = Solved {
            temperature: x[0],
            d_vtn: x[1],
            d_vtp: x[2],
            iterations: 0,
        };
        let (ledger, health) = (EnergyLedger::new(), Health::nominal());
        let r = finalize(sensor, cal, gated, &solved, ledger, health).unwrap();
        [r.temperature.0, r.d_vtn.0, r.d_vtp.0]
    }

    forall! {
        #![cases = 16]

        #[test]
        fn predicted_start_matches_the_calibration_point_oracle(
            seed in 0u64..u64::MAX,
            t in -40.0f64..125.0,
            severity_pick in 0u64..3,
            hardened in 0u64..2,
        ) {
            let tech = Technology::n65();
            let mut rng = Pcg64::seed_from_u64(seed);
            let die = VariationModel::new(&tech).sample_die(&mut rng);
            let mut spec = SensorSpec::default_65nm();
            if hardened == 1 {
                spec.hardening = HardeningSpec::redundant();
                spec.hardening.max_drift = Volt(0.005);
            }
            let mut sensor = PtSensor::new(tech, spec).unwrap();
            let boot = SensorInputs::new(&die, DieSite::CENTER, spec.calib_temp);
            sensor.calibrate(&boot, &mut rng).unwrap();
            let cal = *sensor.calibration().unwrap();
            let oracle = cal.calib_temp().0;

            // Healthy reads every 5 °C over −40…125 °C: a start near the
            // root, the same root in no more iterations and at most 4 (the
            // oracle takes up to 7), the same quantized reading, and the
            // lane kernel bit for bit.
            let (mut lanes, mut chunk) = (LaneBatch::new(), Vec::new());
            for k in 0..34 {
                let temp = Celsius(-40.0 + 5.0 * f64::from(k));
                let inputs = SensorInputs::new(&die, DieSite::CENTER, temp);
                let (mut ledger, mut health) = (EnergyLedger::new(), Health::nominal());
                let gated =
                    gate::gate_conversion(&sensor, &inputs, &mut rng, &mut ledger, &mut health)
                        .unwrap();
                let t0 = predicted(&sensor, &cal, &gated);
                let (stage, x, iters) = conversion_ladder(&sensor, &cal, &gated, t0, false);
                let (stage_o, x_o, iters_o) =
                    conversion_ladder(&sensor, &cal, &gated, oracle, false);
                assert_eq!((stage, stage_o), (0, 0), "healthy conversion escalated");
                assert_same_root("healthy", &x, &x_o, &[1e-6, 1e-9, 1e-9]);
                // The table's second-order threshold terms hold the start
                // within 3 °C of the root (1.7 °C at worst here); expanded
                // to first order only, it misses by up to 12 °C.
                assert!((t0 - x[0]).abs() <= 3.0, "start {t0} °C, root {x:?}");
                // At the calibration temperature the oracle can start within
                // the registers' quantization and noise (~1e-3 °C) of the
                // root and converge in 2; there the prediction is held to
                // the nominal read's 3.
                let floor = if (x_o[0] - oracle).abs() < 0.01 { 3 } else { 0 };
                assert!(
                    iters <= iters_o.max(floor) && iters <= 4,
                    "{iters} iterations from {t0} °C, {iters_o} from the oracle, root {x:?}"
                );
                // The roots agree to ~1e-8 °C, so a quantized output can
                // move only where the two straddle a rounding boundary of
                // its register, and then by one step.
                let lsb = spec.qformat.resolution();
                let q = quantized(&sensor, &cal, &gated, x);
                let q_o = quantized(&sensor, &cal, &gated, x_o);
                for j in 0..3 {
                    assert!((q[j] - q_o[j]).abs() <= lsb, "output {j}: {q:?} vs {q_o:?}");
                }
                lanes.push(&cal, &gated);
                chunk.push(gated);
                if lanes.len() == LANES {
                    let (xl, statuses) = solve_conversion_lanes(&sensor, &lanes);
                    for (l, g) in chunk.iter().enumerate() {
                        let s = solve_gated(&sensor, &cal, g, &mut Health::nominal()).unwrap();
                        assert_eq!(statuses[l], LaneSolve::Converged(s.iterations));
                        let scalar = [s.temperature, s.d_vtn, s.d_vtp];
                        for j in 0..3 {
                            assert_eq!(xl[j][l].to_bits(), scalar[j].to_bits(), "lane {l}");
                        }
                    }
                    lanes.clear();
                    chunk.clear();
                }
            }

            // A corrupted channel at `t` (as in the forward-difference
            // oracle test) stops on the same rung from either start.
            let inputs = SensorInputs::new(&die, DieSite::CENTER, Celsius(t));
            let (mut ledger, mut health) = (EnergyLedger::new(), Health::nominal());
            let gated =
                gate::gate_conversion(&sensor, &inputs, &mut rng, &mut ledger, &mut health)
                    .unwrap();
            for ch in 0..3 {
                for k in [0.05, 0.2, 0.5, 2.0, 5.0, 20.0] {
                    let mut bad = gated;
                    let scale = |f: Hertz| Hertz(f.0 * k);
                    match ch {
                        0 => bad.f_tsro = scale(bad.f_tsro),
                        1 => bad.f_psro_n = bad.f_psro_n.map(scale),
                        _ => bad.f_psro_p = bad.f_psro_p.map(scale),
                    }
                    let t0 = predicted(&sensor, &cal, &bad);
                    let (stage, x, _) = conversion_ladder(&sensor, &cal, &bad, t0, false);
                    let (stage_o, x_o, _) = conversion_ladder(&sensor, &cal, &bad, oracle, false);
                    assert_eq!(stage, stage_o, "channel {ch} scaled by {k}");
                    if stage < 2 {
                        assert_same_root("scaled", &x, &x_o, &[1e-6, 1e-9, 1e-9]);
                    }
                }
            }

            // The R1 catalog. A register SEU fails parity, and a conversion
            // on a calibration that fails parity never reaches the solver.
            let severity = [0.25, 0.5, 1.0][severity_pick as usize];
            for entry in catalog(severity) {
                let mut faulty = sensor.clone();
                faulty.inject_faults(entry.plan.clone());
                let (mut ledger, mut health) = (EnergyLedger::new(), Health::nominal());
                let gated =
                    gate::gate_conversion(&faulty, &inputs, &mut rng, &mut ledger, &mut health);
                let Ok(gated) = gated else { continue };
                if gated.f_psro_n.is_none() || gated.f_psro_p.is_none() {
                    continue;
                }
                let Some(cal) = faulty.calibration().copied() else { continue };
                if cal.parity_errors() != 0 {
                    continue;
                }
                let t0 = predicted(&faulty, &cal, &gated);
                let (stage, x, _) = conversion_ladder(&faulty, &cal, &gated, t0, false);
                let (stage_o, x_o, _) = conversion_ladder(&faulty, &cal, &gated, oracle, false);
                assert_eq!(stage, stage_o, "{} at severity {severity}", entry.id);
                if stage < 2 {
                    assert_same_root(entry.id, &x, &x_o, &[1e-6, 1e-9, 1e-9]);
                }
            }
        }
    }
}
