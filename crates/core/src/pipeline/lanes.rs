//! The struct-of-arrays (SoA) **lane kernel** of the batch conversion hot
//! path.
//!
//! The staged pipeline walks one die at a time; profiling shows the batch
//! bottleneck is the latency chain of scalar `exp`/`ln`/`powf` calls inside
//! the Newton residuals. This module restructures the *solve* stage to run
//! up to [`LANES`] independent dies column-wise: every per-die scalar
//! (`ΔVtn`, measured `ln f`, Newton unknowns, …) becomes one element of a
//! `[f64; LANES]` column, and every inner loop becomes a fixed-trip loop
//! over lanes. The pure-arithmetic portions autovectorize; the libm calls
//! stay scalar (they must, for bit-identity) but run as eight *independent*
//! dependency chains the core can overlap instead of one serial chain.
//!
//! ```text
//!        scalar (AoS)                       lane kernel (SoA)
//!   die0: t ── vtn ── vtp              x[0] = [ t0  t1 … t7 ]  ┐
//!   die1: t ── vtn ── vtp    ──▶       x[1] = [vtn0 vtn1…vtn7] ├─ columns
//!   die2: t ── vtn ── vtp              x[2] = [vtp0 vtp1…vtp7] ┘
//!    ⋮  (one solve each)               (one masked 8-lane solve)
//! ```
//!
//! **Stages.** A conversion is written once, as three stages of
//! [`crate::pipeline`]: `begin` (calibration present, parity clean, then
//! the channel gate — the only stage that draws RNG), a solve, and `finish`
//! (output bounding and quantization, the conversion metrics, the error
//! tally); a calibration ends in the one `finish_calibration`. This module
//! adds the laned solve, `solve_lanes`: it pushes a chunk's begun
//! conversions that [`LaneBatch::accepts`] into one batch, runs
//! [`solve_gated_lanes`], and sends the rest to the scalar ladder. Each
//! entry point is a short composition of those stages:
//!
//! ```text
//! PtSensor::read_batch   per chunk: begin in input order on the caller's
//!                        stream (stop at the first gating error),
//!                        solve_lanes, finish in order
//! read_group             per chunk: begin per member on its own stream,
//!                        solve_lanes, finish per member
//! population chunk       gate boot plans, 4×4 calibration lanes,
//!                        finish_calibration per die; then per temperature
//!                        begin, solve_lanes, finish per live die
//! ```
//!
//! **Bit-identity contract.** Lane `l` of every column sees exactly the
//! float operations, in exactly the order, that the scalar solver applies
//! to die `l`: the lane systems (`ConversionLanes`, `CalibrationLanes`)
//! run the lane forms of the scalar rows' kernels (`RingRows`, the
//! device and ring partials) and assemble their Jacobians with the same
//! row functions, and [`newton_solve_lanes`] replicates the scalar
//! iteration schedule per lane. A population converted through the lane
//! kernel is therefore *bit-identical* to the retained scalar path, which
//! remains the default for single reads and the oracle every golden gate
//! runs on.
//!
//! **Start.** Each lane's thresholds start at its calibration registers
//! and its temperature at the prediction the scalar solve starts from:
//! `solve_conversion_lanes` calls the scalar `start_temperature` per lane,
//! on the lane's calibration and its measured `ln f_TSRO`. That is plain
//! arithmetic on a design-time TSRO table anchored per die at
//! calibration, so the seeds are bit-identical to the scalar ones by
//! construction and a read far from the calibration point takes about 3
//! iterations rather than 6–7.
//!
//! **Analytic Jacobians and shared factors.** Each residual pass computes
//! the device and ring partials along with the values, so the Jacobian
//! costs arithmetic only and no extra model evaluation. Each device's
//! softplus bias factor is evaluated once per (polarity, supply, ΔVt
//! column) and recombined per ring (`RingRows`): the factor reads no ring
//! geometry, so rings at bit-equal supplies with bit-equal polarity
//! constants get the identical value. Per lane-iteration the libm calls
//! are:
//!
//! | solve | forward-difference Jacobian, shared factors | analytic Jacobian |
//! |---|---|---|
//! | 3×3 conversion (PSRO-N, PSRO-P share `vdd_low`) | 42 | 14 |
//! | 4×4 calibration (the PSROs share each supply) | 44 | 12 |
//!
//! The conversion counts one `powf` (thermal point), two `exp` (drain
//! factors, one per supply), two calls per bias factor (`exp`, `ln_1p`;
//! four factors) and one `ln` per residual row. The calibration holds the
//! temperature, so its thermal point and drain factors are hoisted out of
//! the solve: four bias factors and four `ln`s remain. The forward-
//! difference column counts add, per iteration, a full re-evaluation for
//! the temperature column and one device's factors plus every row's `ln`
//! for each threshold or mobility column.
//!
//! **Masking and fallback.** Partial chunks (population size not a
//! multiple of [`LANES`]) leave trailing lanes masked: they are excluded
//! from convergence checks and never updated. A lane whose Newton solve
//! fails (divergence, singular Jacobian) reports [`LaneSolve::Failed`] and
//! is re-run from its original inputs through the scalar escalation ladder
//! — the solves are RNG-free, so the scalar re-run reproduces the identical
//! default-tuning failure and then escalates exactly like the oracle,
//! without perturbing neighboring lanes.
//!
//! Only [`NewtonOptions::default`](crate::newton::NewtonOptions) tuning is
//! lane-parallelized (fixed damping, no adaptive state); every escalation
//! is scalar by construction.

use crate::bank::RoClass;
use crate::calib::Calibration;
use crate::error::SensorError;
use crate::health::Health;
use crate::metrics::{Stage, StageTimer};
use crate::newton::{newton_solve_lanes, LaneSolve, LaneSystem};
use crate::pipeline::batch::DieConversion;
use crate::pipeline::gate::{self, Gated};
use crate::pipeline::output::Reading;
use crate::pipeline::solve::{
    self, calibration_jacobian_row, calibration_rows, conversion_jacobian_row, conversion_rows,
    RingRows, Solved, CAL_STEP_LIMITS, CONV_STEP_LIMITS, NMOS, PMOS,
};
use crate::pipeline::{begin, finish, finish_calibration, solve_one, Begun, Pass, Scratch};
use crate::sensor::{PtSensor, SensorInputs};
use ptsim_circuit::ring::LnFrequency;
use ptsim_device::delay::{DrainFactor, OnCurrent, ThermalPoint};
use ptsim_device::units::{Celsius, Volt};
use ptsim_mc::die::{DieSample, DieSite};
use ptsim_rng::Rng;

pub use ptsim_device::delay::LANES;

/// Column-wise carrier of up to [`LANES`] independently-gated conversions
/// against one sensor design: the per-die calibration parameters, measured
/// log-frequencies, and Newton unknowns, each stored as a `[f64; LANES]`
/// column so the lane solver's inner loops are fixed-trip.
///
/// Build one with [`LaneBatch::new`], [`LaneBatch::push`] up to [`LANES`]
/// `(calibration, gated)` pairs that [`LaneBatch::accepts`], then run
/// [`solve_gated_lanes`]. The batch is reusable: [`LaneBatch::clear`]
/// resets it without touching capacity (it owns no heap memory at all).
#[derive(Debug, Clone)]
pub struct LaneBatch {
    len: usize,
    /// Unknown columns: `x[0]` = temperature °C, `x[1]` = ΔVtn V,
    /// `x[2]` = ΔVtp V. The thresholds are seeded from each lane's
    /// calibration registers; the lane solve seeds temperature with each
    /// lane's predicted start, which needs the sensor's design table.
    x: [[f64; LANES]; 3],
    ln_ft: [f64; LANES],
    ln_fn: [f64; LANES],
    ln_fp: [f64; LANES],
    ln_scale: [f64; LANES],
    mu_n: [f64; LANES],
    mu_p: [f64; LANES],
    /// Originals retained for the per-lane scalar fallback.
    cals: [Option<Calibration>; LANES],
    gateds: [Option<Gated>; LANES],
}

impl Default for LaneBatch {
    fn default() -> Self {
        LaneBatch::new()
    }
}

impl LaneBatch {
    /// An empty batch. Masked (never-pushed) lanes carry benign finite
    /// filler so the elementwise residual arithmetic stays well-behaved in
    /// unused lanes.
    #[must_use]
    pub fn new() -> Self {
        LaneBatch {
            len: 0,
            x: [[25.0; LANES], [0.0; LANES], [0.0; LANES]],
            ln_ft: [0.0; LANES],
            ln_fn: [0.0; LANES],
            ln_fp: [0.0; LANES],
            ln_scale: [0.0; LANES],
            mu_n: [1.0; LANES],
            mu_p: [1.0; LANES],
            cals: [None; LANES],
            gateds: [None; LANES],
        }
    }

    /// Number of occupied lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no lane is occupied.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resets the batch to empty (no heap memory to keep warm).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Whether the lane kernel handles this `(sensor, gated)` combination.
    /// Degraded measurement sets (a lost PSRO) and characterized-model
    /// sensors take the scalar escalation path directly — the lane kernel
    /// parallelizes only the analytic joint 3×3 solve.
    #[must_use]
    pub fn accepts(sensor: &PtSensor, gated: &Gated) -> bool {
        sensor.characterized_model().is_none()
            && gated.f_psro_n.is_some()
            && gated.f_psro_p.is_some()
    }

    /// Loads one die into the next free lane and returns its lane index.
    /// The caller must have checked [`LaneBatch::accepts`] and that the
    /// batch is not full.
    ///
    /// # Panics
    ///
    /// Panics if the batch is full or `gated` is missing a PSRO.
    pub fn push(&mut self, cal: &Calibration, gated: &Gated) -> usize {
        assert!(self.len < LANES, "LaneBatch overflow");
        let (f_n, f_p) = (
            gated.f_psro_n.expect("lane push requires both PSROs"),
            gated.f_psro_p.expect("lane push requires both PSROs"),
        );
        let l = self.len;
        // Same hoisted-`ln` evaluation order as the scalar solver:
        // (f_t, f_n, f_p).
        self.ln_ft[l] = gated.f_tsro.0.ln();
        self.ln_fn[l] = f_n.0.ln();
        self.ln_fp[l] = f_p.0.ln();
        self.ln_scale[l] = cal.ln_tsro_scale();
        self.mu_n[l] = cal.mu_n();
        self.mu_p[l] = cal.mu_p();
        self.x[1][l] = cal.d_vtn().0;
        self.x[2][l] = cal.d_vtp().0;
        self.cals[l] = Some(*cal);
        self.gateds[l] = Some(*gated);
        self.len += 1;
        l
    }
}

/// Lane-parallel form of the scalar `solve_gated` solver:
/// solves every occupied lane of `batch` jointly, writing lane `l`'s result
/// to `out[l]` and recording its health events in `healths[l]`.
///
/// Bit-identical to running the scalar solver per lane: converged lanes
/// reproduce the scalar Newton trajectory exactly, and a failed lane falls
/// back to the full scalar escalation ladder from its original inputs
/// (recording the same `SolverRetuned`/`RomFallback` health events and
/// metrics the oracle records). Lanes beyond `batch.len()` are untouched.
///
/// Allocation-free after scratch warm-up: all solver state is fixed-size
/// stack arrays.
///
/// # Panics
///
/// Panics if `healths` or `out` are shorter than `batch.len()`.
pub fn solve_gated_lanes(
    sensor: &PtSensor,
    batch: &LaneBatch,
    healths: &mut [Health],
    scratch: &mut Scratch,
    out: &mut [Option<Result<Solved, SensorError>>],
) {
    let n = batch.len();
    assert!(
        healths.len() >= n && out.len() >= n,
        "lane buffers too short"
    );
    if n == 0 {
        return;
    }
    let (x, statuses) = solve_conversion_lanes(sensor, batch);

    let Scratch {
        newton, metrics, ..
    } = scratch;
    for l in 0..n {
        match statuses[l] {
            LaneSolve::Converged(iterations) => {
                if let Some(m) = metrics.as_mut() {
                    // Mirrors the scalar solver's per-solve tally; the
                    // default tuning never backs off.
                    m.on_solver_iterations(iterations);
                    m.on_newton_backoffs(0);
                }
                out[l] = Some(Ok(Solved {
                    temperature: x[0][l],
                    d_vtn: x[1][l],
                    d_vtp: x[2][l],
                    iterations,
                }));
            }
            LaneSolve::Failed => {
                // Scalar fallback from the original inputs: the solve is
                // RNG-free, so this reproduces the identical default-tuning
                // failure and then escalates exactly like the oracle.
                let cal = batch.cals[l].expect("occupied lane retains its calibration");
                let gated = batch.gateds[l].expect("occupied lane retains its gated set");
                out[l] = Some(solve::solve_gated_with(
                    sensor,
                    &cal,
                    &gated,
                    &mut healths[l],
                    newton,
                    metrics,
                ));
            }
            LaneSolve::Masked => unreachable!("occupied lanes are active"),
        }
    }
}

/// The lane form of [`ConversionRows`](crate::pipeline::solve::ConversionRows):
/// the analytic 3×3 conversion rows of every occupied lane of a
/// [`LaneBatch`], with the partials of the last residual pass cached for
/// the Jacobian.
pub(crate) struct ConversionLanes<'a> {
    rows: RingRows<'a, 3>,
    batch: &'a LaneBatch,
    n: [[OnCurrent; LANES]; 3],
    p: [[OnCurrent; LANES]; 3],
    f: [[LnFrequency; LANES]; 3],
}

impl<'a> ConversionLanes<'a> {
    pub(crate) fn new(sensor: &'a PtSensor, batch: &'a LaneBatch) -> Self {
        ConversionLanes {
            rows: conversion_rows(sensor),
            batch,
            n: [[OnCurrent::default(); LANES]; 3],
            p: [[OnCurrent::default(); LANES]; 3],
            f: [[LnFrequency::default(); LANES]; 3],
        }
    }
}

impl LaneSystem<3> for ConversionLanes<'_> {
    fn residual(
        &mut self,
        x: &[[f64; LANES]; 3],
        live: &[bool; LANES],
        out: &mut [[f64; LANES]; 3],
    ) {
        let (rows, b) = (&self.rows, self.batch);
        let th = rows.rings[0].delay().thermal_lanes(&x[0], live);
        let drains = rows.drains_lanes(&th, live);
        rows.currents_lanes(NMOS, &th, &x[1], &b.mu_n, &drains, live, &mut self.n);
        rows.currents_lanes(PMOS, &th, &x[2], &b.mu_p, &drains, live, &mut self.p);
        rows.ln_frequencies_lanes(&self.n, &self.p, live, &mut self.f);
        for l in (0..LANES).filter(|&l| live[l]) {
            out[0][l] = self.f[0][l].ln_f - b.ln_ft[l] + b.ln_scale[l];
            out[1][l] = self.f[1][l].ln_f - b.ln_fn[l];
            out[2][l] = self.f[2][l].ln_f - b.ln_fp[l];
        }
    }

    fn jacobian(
        &mut self,
        _: &[[f64; LANES]; 3],
        live: &[bool; LANES],
        jac: &mut [[[f64; LANES]; 3]; 3],
    ) {
        for (i, jac_i) in jac.iter_mut().enumerate() {
            for l in (0..LANES).filter(|&l| live[l]) {
                let row = conversion_jacobian_row(&self.f[i][l], &self.n[i][l], &self.p[i][l]);
                for (jac_ij, d) in jac_i.iter_mut().zip(row) {
                    jac_ij[l] = d;
                }
            }
        }
    }
}

/// Lane-parallel form of the analytic 3×3 conversion decoupling under the
/// default Newton tuning: solves the occupied lanes of `batch` jointly and
/// returns the unknowns column-wise (`x[j][l]` = unknown `j` of lane `l`)
/// with each lane's outcome. Failed lanes are reported for the caller to
/// escalate through the scalar ladder.
///
/// Bit-identical per converged lane to the scalar conversion solve with
/// default options on the same calibration and measurements.
pub(crate) fn solve_conversion_lanes(
    sensor: &PtSensor,
    batch: &LaneBatch,
) -> ([[f64; LANES]; 3], [LaneSolve; LANES]) {
    debug_assert!(
        sensor.characterized_model().is_none(),
        "the lane kernel is analytic-only; characterized sensors take the scalar path"
    );
    let mut active = [false; LANES];
    active[..batch.len()].fill(true);
    let mut x = batch.x;
    let lanes = x[0].iter_mut().zip(&batch.cals).zip(&batch.ln_ft);
    for ((t0, cal), &ln_ft) in lanes.take(batch.len()) {
        let cal = cal.as_ref().expect("occupied lane retains its calibration");
        *t0 = solve::start_temperature(sensor, cal, ln_ft);
    }
    let statuses = newton_solve_lanes(
        &mut x,
        active,
        &mut ConversionLanes::new(sensor, batch),
        &CONV_STEP_LIMITS,
        "conversion decoupling",
    );
    (x, statuses)
}

/// The lane form of
/// [`CalibrationRows`](crate::pipeline::solve::CalibrationRows): the
/// analytic 4×4 calibration rows of lanes `0..n` against per-lane measured
/// frequencies.
pub(crate) struct CalibrationLanes<'a> {
    rows: RingRows<'a, 4>,
    /// The calibration temperature's thermal point and drain factors,
    /// shared by every lane (same sensor design, same assumed boot
    /// temperature): what the scalar rows hoist per die hoists per chunk.
    th: [ThermalPoint; LANES],
    drains: [[DrainFactor; LANES]; 4],
    ln_m: [[f64; LANES]; 4],
    n: [[OnCurrent; LANES]; 4],
    p: [[OnCurrent; LANES]; 4],
    f: [[LnFrequency; LANES]; 4],
}

impl<'a> CalibrationLanes<'a> {
    pub(crate) fn new(
        sensor: &'a PtSensor,
        plan: &[(RoClass, Volt); 4],
        measured: &[[f64; 4]; LANES],
        n: usize,
    ) -> Self {
        let rows = calibration_rows(sensor, plan);
        let th = sensor.cache.thermal(sensor.spec.calib_temp);
        let drains = rows.drains(&th).map(|d| [d; LANES]);
        let mut ln_m = [[0.0; LANES]; 4];
        for (l, m) in measured.iter().enumerate().take(n) {
            for (slot, lm) in ln_m.iter_mut().enumerate() {
                lm[l] = m[slot].ln();
            }
        }
        CalibrationLanes {
            rows,
            th: [th; LANES],
            drains,
            ln_m,
            n: [[OnCurrent::default(); LANES]; 4],
            p: [[OnCurrent::default(); LANES]; 4],
            f: [[LnFrequency::default(); LANES]; 4],
        }
    }
}

impl LaneSystem<4> for CalibrationLanes<'_> {
    fn residual(
        &mut self,
        x: &[[f64; LANES]; 4],
        live: &[bool; LANES],
        out: &mut [[f64; LANES]; 4],
    ) {
        let (rows, th, d) = (&self.rows, &self.th, &self.drains);
        rows.currents_lanes(NMOS, th, &x[0], &x[2], d, live, &mut self.n);
        rows.currents_lanes(PMOS, th, &x[1], &x[3], d, live, &mut self.p);
        rows.ln_frequencies_lanes(&self.n, &self.p, live, &mut self.f);
        for ((out_s, f), ln_m) in out.iter_mut().zip(&self.f).zip(&self.ln_m) {
            for l in (0..LANES).filter(|&l| live[l]) {
                out_s[l] = f[l].ln_f - ln_m[l];
            }
        }
    }

    fn jacobian(
        &mut self,
        x: &[[f64; LANES]; 4],
        live: &[bool; LANES],
        jac: &mut [[[f64; LANES]; 4]; 4],
    ) {
        for (i, jac_i) in jac.iter_mut().enumerate() {
            for l in (0..LANES).filter(|&l| live[l]) {
                let (f, n, p) = (&self.f[i][l], &self.n[i][l], &self.p[i][l]);
                let row = calibration_jacobian_row(f, n, p, x[2][l], x[3][l]);
                for (jac_ij, d) in jac_i.iter_mut().zip(row) {
                    jac_ij[l] = d;
                }
            }
        }
    }
}

/// Lane-parallel form of the analytic 4×4 calibration decoupling under the
/// default Newton tuning: solves lanes `0..n` jointly against per-lane
/// measured frequencies, writing unknowns column-wise into `x`
/// (`x[j][l]` = unknown `j` of lane `l`). Failed lanes are reported for
/// the caller to escalate through the scalar ladder.
///
/// Bit-identical per lane to
/// [`solve_calibration`](crate::pipeline::solve::solve_calibration) with
/// default options on the same measurements.
pub(crate) fn solve_calibration_lanes(
    sensor: &PtSensor,
    plan: &[(RoClass, Volt); 4],
    measured: &[[f64; 4]; LANES],
    n: usize,
    x: &mut [[f64; LANES]; 4],
) -> [LaneSolve; LANES] {
    debug_assert!(sensor.characterized_model().is_none());
    let mut active = [false; LANES];
    active[..n].fill(true);
    *x = [[0.0; LANES], [0.0; LANES], [1.0; LANES], [1.0; LANES]];
    newton_solve_lanes(
        x,
        active,
        &mut CalibrationLanes::new(sensor, plan, measured, n),
        &CAL_STEP_LIMITS,
        "calibration decoupling",
    )
}

/// The lane stage: solves each begun conversion of one chunk (slot `k`
/// holds the chunk's `k`-th conversion) — jointly in one [`LaneBatch`]
/// where the lane kernel [accepts](LaneBatch::accepts) it, through the
/// scalar escalation ladder otherwise — and returns each solve in its
/// slot. Slots holding an error or nothing pass through.
///
/// The lane solve evaluates the shared ring and thermal model through one
/// accepted conversion's sensor, so every sensor of the chunk must be a
/// clone of one design; only calibrations and measurements vary per lane.
pub(crate) fn solve_lanes<'s>(
    mut begun: [Option<Result<Begun<'s>, SensorError>>; LANES],
    scratch: &mut Scratch,
) -> [Option<Result<(Begun<'s>, Solved), SensorError>>; LANES] {
    let timer = StageTimer::start(scratch.metrics.is_some());
    let mut batch = LaneBatch::new();
    let mut healths: [Health; LANES] = core::array::from_fn(|_| Health::nominal());
    let mut lane_of = [None; LANES];
    let mut shared = None;
    for (slot, lane) in begun.iter_mut().zip(&mut lane_of) {
        if let Some(Ok(b)) = slot {
            if LaneBatch::accepts(b.sensor, &b.gated) {
                let l = batch.push(&b.cal, &b.gated);
                std::mem::swap(&mut healths[l], &mut b.pass.health);
                *lane = Some(l);
                shared = Some(b.sensor);
            }
        }
    }
    let mut solved: [Option<Result<Solved, SensorError>>; LANES] = core::array::from_fn(|_| None);
    if let Some(sensor) = shared {
        solve_gated_lanes(sensor, &batch, &mut healths, scratch, &mut solved);
    }
    core::array::from_fn(|k| {
        Some(begun[k].take()?.and_then(|mut b| match lane_of[k] {
            None => solve_one(b, scratch),
            Some(l) => {
                std::mem::swap(&mut b.pass.health, &mut healths[l]);
                let s = solved[l].take().expect("lane was solved")?;
                timer.stop(&mut scratch.metrics, Stage::Solve);
                Ok((b, s))
            }
        }))
    })
}

/// Converts one chunk of up to [`LANES`] dies of a population through the
/// lane kernel: per-die RNG-consuming stages (measurement gating) run
/// scalar in die order on each die's own stream, the RNG-free Newton
/// solves run lane-parallel across the chunk, and any failed or degraded
/// lane falls back to the scalar oracle. Pushes one result per die, in die
/// order. Bit-identical to converting each die through
/// [`BatchPlan::convert_with_scratch`](crate::pipeline::BatchPlan::convert_with_scratch).
///
/// Phase structure (within-die RNG draw order is exactly the scalar
/// pipeline's; dies own independent streams, so cross-die interleaving is
/// free):
///
/// ```text
/// A  per die:   gate the 4-measurement boot plan          (consumes RNG)
///    lanes:     4×4 calibration decoupling                (RNG-free)
///    per die:   finish_calibration                        (consumes RNG)
/// B  per temp:  begin per die                             (consumes RNG)
///               solve_lanes: 3×3 conversion decoupling    (RNG-free)
///               finish per die
/// ```
pub(crate) fn convert_population_chunk<R: Rng>(
    sensor: &PtSensor,
    scratch: &mut Scratch,
    temps: &[Celsius],
    dies: &[DieSample],
    rngs: &mut [R],
    out: &mut Vec<Result<DieConversion, SensorError>>,
) {
    let n = dies.len();
    assert!(n <= LANES && rngs.len() == n, "chunk shape mismatch");
    debug_assert!(sensor.characterized_model().is_none());

    // ---- Phase A: boot-plan gating per die, the 4×4 decoupling across
    // the lanes, then each die's calibration finish.
    let plan = gate::calibration_plan(&sensor.spec);
    let boot_temp = sensor.spec.calib_temp;
    let mut measured = [[0.0; 4]; LANES];
    let mut gated: [Option<Result<Pass, SensorError>>; LANES] = core::array::from_fn(|k| {
        let boot = SensorInputs::new(dies.get(k)?, DieSite::CENTER, boot_temp);
        let mut pass = Pass::start(scratch);
        let m = gate::gate_plan_with(
            sensor,
            &plan,
            &boot,
            &mut rngs[k],
            &mut pass.ledger,
            &mut pass.health,
            scratch,
        );
        Some(m.map(|m| {
            measured[k] = m;
            pass
        }))
    });
    let mut x4 = [[0.0; LANES]; 4];
    let statuses = solve_calibration_lanes(sensor, &plan, &measured, n, &mut x4);
    let mut convs: [Option<Result<DieConversion, SensorError>>; LANES] =
        core::array::from_fn(|k| {
            let solved = gated[k].take()?.and_then(|mut pass| {
                let (x, iters) = match statuses[k] {
                    LaneSolve::Converged(iters) => {
                        ([x4[0][k], x4[1][k], x4[2][k], x4[3][k]], iters)
                    }
                    // Scalar escalation from the original measurements —
                    // reproduces the identical default-tuning failure, then
                    // retunes, exactly like the oracle.
                    LaneSolve::Failed => {
                        let Scratch {
                            newton, metrics, ..
                        } = &mut *scratch;
                        solve::solve_calibration_escalating(
                            sensor,
                            &plan,
                            &measured[k],
                            &mut pass.health,
                            newton,
                            metrics,
                        )?
                    }
                    LaneSolve::Masked => unreachable!("dies 0..n occupy active lanes"),
                };
                Ok((pass, x, iters))
            });
            let boot = SensorInputs::new(&dies[k], DieSite::CENTER, boot_temp);
            let calibration = finish_calibration(sensor, &boot, &mut rngs[k], solved, scratch);
            Some(calibration.map(|calibration| DieConversion {
                calibration,
                readings: Vec::with_capacity(temps.len()),
            }))
        });

    // ---- Phase B: one lane-stage conversion per temperature for every
    // die still converting.
    for &t in temps {
        let begun = core::array::from_fn(|k| match &convs[k] {
            Some(Ok(conv)) => Some(begin(
                sensor,
                Some(conv.calibration.calibration),
                &SensorInputs::new(&dies[k], DieSite::CENTER, t),
                &mut rngs[k],
                scratch,
            )),
            _ => None,
        });
        for (conv, solved) in convs.iter_mut().zip(solve_lanes(begun, scratch)) {
            let (Some(Ok(c)), Some(solved)) = (conv.as_mut(), solved) else {
                continue;
            };
            match finish(solved, &mut scratch.metrics) {
                Ok(reading) => c.readings.push(reading),
                Err(e) => *conv = Some(Err(e)),
            }
        }
    }
    out.extend(convs.into_iter().flatten());
}

/// [`PtSensor::read_batch`]'s engine: read-path conversions chunked through
/// the lane stage.
///
/// Gating draws run in input order on the one caller stream — exactly the
/// sequential read loop's order, since the solves that the scalar path
/// interleaves between them are RNG-free — then each chunk's conversions
/// are solved by [`solve_lanes`] and finished in order. On success, both
/// the returned readings and the RNG stream position are bit-identical to
/// the sequential composition of [`crate::pipeline::run_conversion`] (the
/// contract `crates/core/tests/batch_equivalence.rs` pins). On error the
/// first failing conversion's error is returned, like the sequential loop.
/// Gating stops at the first gating error, so the stream is then where the
/// loop leaves it; after a solve or output error, later inputs of the same
/// chunk may already have gated.
pub(crate) fn read_batch_lanes<R: Rng + ?Sized>(
    sensor: &PtSensor,
    inputs: &[SensorInputs<'_>],
    rng: &mut R,
) -> Result<Vec<Reading>, SensorError> {
    let mut scratch = Scratch::new();
    let mut readings = Vec::with_capacity(inputs.len());
    for chunk in inputs.chunks(LANES) {
        let mut begun: [Option<Result<Begun<'_>, SensorError>>; LANES] =
            core::array::from_fn(|_| None);
        for (slot, inp) in begun.iter_mut().zip(chunk) {
            let b = begin(sensor, sensor.calibration, inp, rng, &mut scratch);
            let failed = b.is_err();
            *slot = Some(b);
            if failed {
                break;
            }
        }
        for solved in solve_lanes(begun, &mut scratch).into_iter().flatten() {
            readings.push(finish(solved, &mut scratch.metrics)?);
        }
    }
    Ok(readings)
}

/// Lane-grouped conversion across *independently calibrated* sensor
/// instances of one design — the fleet service's `batch_read` drain (the
/// service's one grouped read path), where every die owns a sensor clone
/// and an RNG stream. Element `k` converts `inputs[k]` on `sensors[k]`
/// drawing from `rngs[k]`, and entry `k` of the result is exactly what
/// `sensors[k].read(&inputs[k], rngs[k])` would have produced —
/// bit-identical reading, same stream position — because
/// gating draws touch only the die's own stream and the jointly-solved
/// Newton stages are RNG-free. Failures are per-element: one die's error
/// never disturbs a neighbor's conversion or stream, unlike
/// [`PtSensor::read_batch`]'s fail-fast contract on a single sensor.
///
/// Every sensor must be a clone of one prototype (same technology and
/// spec): the lane solver evaluates the shared ring/thermal model through
/// one group member, and only the per-die calibrations and gated
/// measurements vary per lane. Degraded (lost-PSRO) sets and
/// characterized-model sensors fall back to the scalar ladder per element.
///
/// # Panics
///
/// Panics if the three slices disagree in length.
pub fn read_group<R: Rng>(
    sensors: &[&PtSensor],
    inputs: &[SensorInputs<'_>],
    rngs: &mut [&mut R],
) -> Vec<Result<Reading, SensorError>> {
    assert!(
        sensors.len() == inputs.len() && inputs.len() == rngs.len(),
        "group shape mismatch"
    );
    let mut scratch = Scratch::new();
    let mut results = Vec::with_capacity(sensors.len());
    let chunks = sensors.chunks(LANES).zip(inputs.chunks(LANES));
    for ((sensors, inputs), rngs) in chunks.zip(rngs.chunks_mut(LANES)) {
        let begun = core::array::from_fn(|k| {
            let sensor = *sensors.get(k)?;
            Some(begin(
                sensor,
                sensor.calibration,
                &inputs[k],
                &mut *rngs[k],
                &mut scratch,
            ))
        });
        let solved = solve_lanes(begun, &mut scratch);
        results.extend(
            solved
                .into_iter()
                .flatten()
                .map(|s| finish(s, &mut scratch.metrics)),
        );
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::newton::{NewtonOptions, NewtonScratch};
    use crate::sensor::SensorSpec;
    use ptsim_circuit::energy::EnergyLedger;
    use ptsim_device::delay::DelayCache;
    use ptsim_device::process::Technology;
    use ptsim_rng::{forall, Pcg64};

    fn share_maps(spec: SensorSpec) -> ([usize; 3], [usize; 3], [usize; 4], [usize; 4]) {
        let sensor = PtSensor::new(Technology::n65(), spec).unwrap();
        let conv = RingRows::new(
            [RoClass::Tsro, RoClass::PsroN, RoClass::PsroP].map(|c| sensor.cache.ring(c)),
            [spec.bank.vdd_tsro, spec.bank.vdd_low, spec.bank.vdd_low],
        );
        let plan = gate::calibration_plan(&spec);
        let cal = RingRows::new(
            plan.map(|(class, _)| sensor.cache.ring(class)),
            plan.map(|(_, vdd)| vdd),
        );
        (conv.share_n, conv.share_p, cal.share_n, cal.share_p)
    }

    #[test]
    fn bias_factor_share_follows_the_supplies() {
        // Default bank: the two PSROs share at `vdd_low`, the TSRO runs at
        // its own supply; the boot plan shares per supply across PSROs.
        let spec = SensorSpec::default_65nm();
        let (conv_n, conv_p, cal_n, cal_p) = share_maps(spec);
        assert_eq!((conv_n, conv_p), ([0, 1, 1], [0, 1, 1]));
        assert_eq!((cal_n, cal_p), ([0, 1, 0, 1], [0, 1, 0, 1]));
        // TSRO at `vdd_low`: all three conversion rows share one factor.
        let mut shared = spec;
        shared.bank.vdd_tsro = shared.bank.vdd_low;
        let (conv_n, conv_p, _, _) = share_maps(shared);
        assert_eq!((conv_n, conv_p), ([0, 0, 0], [0, 0, 0]));
        // A supply one ulp away is a different operand: no share.
        let mut apart = spec;
        apart.bank.vdd_tsro = Volt(f64::from_bits(spec.bank.vdd_low.0.to_bits() + 1));
        let (conv_n, conv_p, _, _) = share_maps(apart);
        assert_eq!((conv_n, conv_p), ([0, 1, 1], [0, 1, 1]));
    }

    #[test]
    fn lane_solves_converge_in_the_kernel_and_match_the_scalar_solves() {
        // A broken shared factor would make lanes fail and fall back to the
        // scalar ladder, which hides it from any output comparison. So the
        // lane solves themselves must converge, on the default bank and with
        // the TSRO at `vdd_high`. (With the TSRO at `vdd_low` the 3×3
        // conversion is ill-posed and every default-tuning solve fails, lane
        // or scalar; `ring_rows_match_the_unshared_currents` covers that
        // full share at the row level.)
        let default = SensorSpec::default_65nm();
        let mut at_high = default;
        at_high.bank.vdd_tsro = at_high.bank.vdd_high;
        let die = DieSample::nominal();
        let boot = SensorInputs::new(&die, DieSite::CENTER, Celsius(25.0));
        for spec in [default, at_high] {
            let mut sensor = PtSensor::new(Technology::n65(), spec).unwrap();
            let mut rng = Pcg64::seed_from_u64(0xb1a5);
            let plan = gate::calibration_plan(&spec);
            let mut measured = [[0.0; 4]; LANES];
            for m in &mut measured {
                let (mut ledger, mut health) = (EnergyLedger::new(), Health::nominal());
                *m = gate::gate_plan(&sensor, &plan, &boot, &mut rng, &mut ledger, &mut health)
                    .unwrap();
            }
            let mut x4 = [[0.0; LANES]; 4];
            let statuses = solve_calibration_lanes(&sensor, &plan, &measured, LANES, &mut x4);
            for l in 0..LANES {
                let (xs, iters) = solve::solve_calibration(
                    &sensor,
                    &plan,
                    &measured[l],
                    &NewtonOptions::default(),
                    &mut NewtonScratch::new(),
                )
                .unwrap();
                assert_eq!(
                    statuses[l],
                    LaneSolve::Converged(iters),
                    "{spec:?} lane {l}"
                );
                for j in 0..4 {
                    assert_eq!(x4[j][l].to_bits(), xs[j].to_bits(), "{spec:?} lane {l}");
                }
            }

            sensor.calibrate(&boot, &mut rng).unwrap();
            let cal = *sensor.calibration().unwrap();
            let mut batch = LaneBatch::new();
            for l in 0..LANES {
                let t = Celsius(-30.0 + 20.0 * l as f64);
                let inputs = SensorInputs::new(&die, DieSite::CENTER, t);
                let (mut ledger, mut health) = (EnergyLedger::new(), Health::nominal());
                let gated =
                    gate::gate_conversion(&sensor, &inputs, &mut rng, &mut ledger, &mut health)
                        .unwrap();
                batch.push(&cal, &gated);
            }
            // A lane fails exactly when the scalar default tuning does
            // (the oracle then records its escalation).
            let (x3, statuses) = solve_conversion_lanes(&sensor, &batch);
            let mut converged = 0;
            for l in 0..LANES {
                let mut health = Health::nominal();
                let gated = batch.gateds[l].unwrap();
                let s = solve::solve_gated(&sensor, &cal, &gated, &mut health).unwrap();
                if !health.events().is_empty() {
                    assert_eq!(statuses[l], LaneSolve::Failed, "{spec:?} lane {l}");
                    continue;
                }
                converged += 1;
                assert_eq!(
                    statuses[l],
                    LaneSolve::Converged(s.iterations),
                    "{spec:?} lane {l}"
                );
                let expected = [s.temperature, s.d_vtn, s.d_vtp];
                for j in 0..3 {
                    assert_eq!(
                        x3[j][l].to_bits(),
                        expected[j].to_bits(),
                        "{spec:?} lane {l}"
                    );
                }
            }
            assert!(converged >= LANES / 2, "{spec:?}: {statuses:?}");
        }
    }

    /// Every row's shared-factor current against the unshared scalar
    /// current of its own ring, lane by lane, with one masked lane; and
    /// the scalar rows against the lane rows.
    fn assert_rows_match<const R: usize>(
        rows: &RingRows<'_, R>,
        th: &[ThermalPoint; LANES],
        dvt: &[f64; LANES],
        mu: &[f64; LANES],
        live: &[bool; LANES],
    ) {
        let drains = rows.drains_lanes(th, live);
        let bits = |c: &OnCurrent| [c.i, c.dln_dvt, c.dln_dt].map(f64::to_bits);
        for pol in [NMOS, PMOS] {
            let mut out = [[OnCurrent::default(); LANES]; R];
            rows.currents_lanes(pol, th, dvt, mu, &drains, live, &mut out);
            for l in 0..LANES {
                if !live[l] {
                    for row in &out {
                        assert_eq!(row[l], OnCurrent::default(), "masked lane written");
                    }
                    continue;
                }
                let scalar_drains = rows.drains(&th[l]);
                let scalar_rows = rows.currents(pol, &th[l], dvt[l], mu[l], &scalar_drains);
                for i in 0..R {
                    let delay = rows.rings[i].delay();
                    let d = DelayCache::drain_partials(&th[l], rows.vdds[i]);
                    assert_eq!(drains[i][l], d, "row {i} lane {l}");
                    let b = delay.bias_partials(pol, &th[l], rows.vdds[i], dvt[l]);
                    let unshared = delay.current_partials(pol, &th[l], &b, mu[l], &d);
                    assert_eq!(
                        bits(&out[i][l]),
                        bits(&unshared),
                        "{pol:?} row {i} lane {l}"
                    );
                    assert_eq!(bits(&scalar_rows[i]), bits(&unshared), "{pol:?} row {i}");
                }
            }
        }
    }

    forall! {
        #![cases = 32]

        #[test]
        fn ring_rows_match_the_unshared_currents(
            vdd_low in 0.3f64..0.9,
            headroom in 0.05f64..0.5,
            tsro_pick in 0u64..3,
            vdd_tsro in 0.3f64..1.0,
            t0 in -55.0f64..150.0,
            dvt in -0.06f64..0.06,
            mu in 0.8f64..1.25,
        ) {
            // The TSRO supply equals `vdd_low` (all three conversion rows
            // share), `vdd_high`, or is free.
            let mut spec = SensorSpec::default_65nm();
            spec.bank.vdd_low = Volt(vdd_low);
            spec.bank.vdd_high = Volt((vdd_low + headroom).min(1.4));
            spec.bank.vdd_tsro = match tsro_pick {
                0 => spec.bank.vdd_low,
                1 => spec.bank.vdd_high,
                _ => Volt(vdd_tsro),
            };
            let sensor = PtSensor::new(Technology::n65(), spec).unwrap();
            let conv = RingRows::new(
                [RoClass::Tsro, RoClass::PsroN, RoClass::PsroP].map(|c| sensor.cache.ring(c)),
                [spec.bank.vdd_tsro, spec.bank.vdd_low, spec.bank.vdd_low],
            );
            let plan = gate::calibration_plan(&spec);
            let cal = RingRows::new(
                plan.map(|(class, _)| sensor.cache.ring(class)),
                plan.map(|(_, vdd)| vdd),
            );
            let mut live = [true; LANES];
            live[3] = false;
            let temps = core::array::from_fn(|l| t0 - 9.0 * l as f64);
            let th = conv.rings[0].delay().thermal_lanes(&temps, &live);
            let dvts = core::array::from_fn(|l| dvt * (1.0 - 0.2 * l as f64));
            let mus = core::array::from_fn(|l| mu + 0.01 * l as f64);
            assert_rows_match(&conv, &th, &dvts, &mus, &live);
            assert_rows_match(&cal, &th, &dvts, &mus, &live);
        }
    }
}
