//! Closed-loop dynamic thermal management: DVFS actuation driven by
//! sensor readings, with the sensor itself switching operating modes.
//!
//! This is the promoted, hardened form of the `dtm_loop` example and the
//! core of the R3 experiment family (ROADMAP item 2): a deterministic
//! synthetic workload trace drives a per-tier [`PowerMap`] through the
//! transient thermal solver; a [`DtmController`] observes only sensor
//! [`Reading`]s and throttles through a discrete [`DvfsTable`] with
//! hysteresis and per-step actuation latency; and the sensing stack itself
//! participates in the actuation — operating points at 0.25–0.5 V hand the
//! conversion over to the 2013 follow-up's dynamic-voltage-selection mode
//! (longer counting windows, lower conversion energy) through the
//! [`DtmSensing`] trait. `ptsim-baselines` provides the dual-mode
//! implementation; [`NominalSensing`] is the always-nominal policy.
//!
//! The loop itself ([`run_dtm_loop`]) charges the controller for what it
//! cannot see: conversions integrate the *previous* sample period (the
//! sensing-lag model attributes a window-weighted blend of the step's
//! start/end temperatures to the conversion), the decision acts on stale
//! information whenever the conversion window stretches, and actuations
//! land `actuation_latency_steps` after the decision.

use crate::error::SensorError;
use crate::monitor::StackMonitor;
use crate::sensor::{PtSensor, Reading, SensorInputs, SensorSpec};
use ptsim_device::process::Technology;
use ptsim_device::units::{Celsius, Hertz, Joule, Seconds, Volt, Watt};
use ptsim_mc::die::DieSite;
use ptsim_rng::{Pcg64, Rng, RngCore};
use ptsim_thermal::error::ThermalError;
use ptsim_thermal::power::PowerMap;
use ptsim_thermal::solve::{
    solve_steady_state, step_transient_with, SolveOptions, TransientScratch,
};
use ptsim_thermal::stack::ThermalStack;

/// One discrete voltage/frequency operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Core supply voltage.
    pub vdd: Volt,
    /// Clock frequency at this supply.
    pub freq: Hertz,
}

impl OperatingPoint {
    /// Dynamic-power scale of this point relative to `nominal`:
    /// `(f/f_nom) · (V/V_nom)²` — the classic CV²f model.
    #[must_use]
    pub fn power_scale(&self, nominal: &OperatingPoint) -> f64 {
        (self.freq.0 / nominal.freq.0) * (self.vdd.0 / nominal.vdd.0).powi(2)
    }
}

/// An ordered ladder of DVFS operating points, lowest first.
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsTable {
    points: Vec<OperatingPoint>,
}

impl DvfsTable {
    /// Builds a table from `points`, which must be non-empty and strictly
    /// ascending in both voltage and frequency.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidConfig`] for an empty, non-monotone,
    /// or non-finite ladder.
    pub fn new(points: Vec<OperatingPoint>) -> Result<Self, SensorError> {
        if points.is_empty() {
            return Err(SensorError::InvalidConfig {
                name: "dvfs points (empty)",
                value: 0.0,
            });
        }
        for p in &points {
            if !(p.vdd.0.is_finite() && p.vdd.0 > 0.0 && p.freq.0.is_finite() && p.freq.0 > 0.0) {
                return Err(SensorError::InvalidConfig {
                    name: "dvfs point",
                    value: p.vdd.0,
                });
            }
        }
        for w in points.windows(2) {
            if w[1].vdd.0 <= w[0].vdd.0 || w[1].freq.0 <= w[0].freq.0 {
                return Err(SensorError::InvalidConfig {
                    name: "dvfs points (must ascend)",
                    value: w[1].vdd.0,
                });
            }
        }
        Ok(DvfsTable { points })
    }

    /// The six-point ladder the R3 campaign uses. The four lowest points
    /// sit in the 2013 sensor's 0.25–0.5 V dynamic-voltage-selection
    /// range, so throttling one level past the big 1.0 → 0.8 V drop
    /// already moves the *sensor* into its low-energy operating mode.
    /// Power scales (CV²f, relative to nominal): 0.003, 0.015, 0.051,
    /// 0.10, 0.45, 1.0 — the wide 0.45 → 0.10 gap is deliberate, so a
    /// workload whose equilibrium falls inside it duty-cycles across the
    /// DVS boundary instead of parking just above it.
    ///
    /// # Panics
    ///
    /// Never — the built-in ladder is valid by construction.
    #[must_use]
    pub fn default_six_point() -> Self {
        DvfsTable::new(vec![
            OperatingPoint {
                vdd: Volt(0.25),
                freq: Hertz(50.0e6),
            },
            OperatingPoint {
                vdd: Volt(0.35),
                freq: Hertz(120.0e6),
            },
            OperatingPoint {
                vdd: Volt(0.45),
                freq: Hertz(250.0e6),
            },
            OperatingPoint {
                vdd: Volt(0.50),
                freq: Hertz(400.0e6),
            },
            OperatingPoint {
                vdd: Volt(0.80),
                freq: Hertz(700.0e6),
            },
            OperatingPoint {
                vdd: Volt(1.00),
                freq: Hertz(1.0e9),
            },
        ])
        .expect("built-in ladder is valid")
    }

    /// Number of operating points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the table has no points (never, post-construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The operating point at `level` (0 = lowest).
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    #[must_use]
    pub fn point(&self, level: usize) -> OperatingPoint {
        self.points[level]
    }

    /// The nominal (highest) operating point.
    ///
    /// # Panics
    ///
    /// Never — tables are non-empty by construction.
    #[must_use]
    pub fn nominal(&self) -> OperatingPoint {
        *self.points.last().expect("non-empty")
    }

    /// Dynamic-power scale of `level` relative to the nominal point.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    #[must_use]
    pub fn power_scale(&self, level: usize) -> f64 {
        self.points[level].power_scale(&self.nominal())
    }
}

impl Default for DvfsTable {
    fn default() -> Self {
        DvfsTable::default_six_point()
    }
}

/// Thermal limits and timing of the DTM control loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DtmConfig {
    /// Reported temperature above which the controller throttles down.
    pub t_limit: Celsius,
    /// Reported temperature below which the controller steps back up.
    /// Must be below `t_limit` — the hysteresis band between them holds
    /// the current level.
    pub t_release: Celsius,
    /// Steps between a throttle decision and the operating point actually
    /// changing (PLL relock + rail settle, in sample periods). `0` applies
    /// decisions instantly.
    pub actuation_latency_steps: usize,
    /// Control-loop sample period (one `step_transient` advance per
    /// decision).
    pub sample_period: Seconds,
    /// Reported excess beyond `t_limit` that escalates a throttle to an
    /// emergency two-level drop, °C. The emergency path models a hardware
    /// thermal trip: it applies in the same step, bypassing
    /// `actuation_latency_steps`.
    pub emergency_margin: f64,
    /// Minimum steps after an actuation before the controller will step
    /// *up* again — patience for the plant's thermal response, so the
    /// ascent cannot outrun the physics and relight the overshoot.
    /// Descents are never delayed by this.
    pub up_patience_steps: usize,
}

impl Default for DtmConfig {
    fn default() -> Self {
        DtmConfig {
            t_limit: Celsius(45.0),
            t_release: Celsius(42.0),
            actuation_latency_steps: 1,
            sample_period: Seconds(0.002),
            emergency_margin: 2.0,
            up_patience_steps: 5,
        }
    }
}

/// Hysteretic DVFS controller: one step down the ladder when the hottest
/// *reported* temperature exceeds the limit, one step up when it falls
/// below the release threshold, hold inside the band. At most one
/// actuation is in flight at a time; while one is pending no new decision
/// is taken.
#[derive(Debug, Clone, PartialEq)]
pub struct DtmController {
    table: DvfsTable,
    cfg: DtmConfig,
    level: usize,
    /// `(due_step, target_level)` of the in-flight actuation.
    pending: Option<(usize, usize)>,
    /// Step at which the last actuation landed (gates ascent patience).
    last_applied: Option<usize>,
    throttled_steps: usize,
    observed_steps: usize,
    actuations: usize,
    min_level: usize,
}

impl DtmController {
    /// Builds a controller starting at the nominal (highest) level.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidConfig`] if the release threshold is
    /// not strictly below the limit or the sample period is not positive.
    pub fn new(table: DvfsTable, cfg: DtmConfig) -> Result<Self, SensorError> {
        let band_ok = cfg.t_release.0.is_finite()
            && cfg.t_limit.0.is_finite()
            && cfg.t_release.0 < cfg.t_limit.0;
        if !band_ok {
            return Err(SensorError::InvalidConfig {
                name: "t_release (must be < t_limit)",
                value: cfg.t_release.0,
            });
        }
        if !(cfg.sample_period.0.is_finite() && cfg.sample_period.0 > 0.0) {
            return Err(SensorError::InvalidConfig {
                name: "sample_period",
                value: cfg.sample_period.0,
            });
        }
        let level = table.len() - 1;
        Ok(DtmController {
            table,
            cfg,
            level,
            pending: None,
            last_applied: None,
            throttled_steps: 0,
            observed_steps: 0,
            actuations: 0,
            min_level: level,
        })
    }

    /// The configured loop parameters.
    #[must_use]
    pub fn config(&self) -> &DtmConfig {
        &self.cfg
    }

    /// The DVFS ladder.
    #[must_use]
    pub fn table(&self) -> &DvfsTable {
        &self.table
    }

    /// Current ladder level (0 = deepest throttle).
    #[must_use]
    pub fn level(&self) -> usize {
        self.level
    }

    /// Deepest level reached so far.
    #[must_use]
    pub fn min_level(&self) -> usize {
        self.min_level
    }

    /// The operating point currently applied.
    #[must_use]
    pub fn operating_point(&self) -> OperatingPoint {
        self.table.point(self.level)
    }

    /// Dynamic-power scale of the current level relative to nominal.
    #[must_use]
    pub fn power_scale(&self) -> f64 {
        self.table.power_scale(self.level)
    }

    /// Number of actuations applied so far.
    #[must_use]
    pub fn actuations(&self) -> usize {
        self.actuations
    }

    /// Fraction of observed steps spent below the nominal level.
    #[must_use]
    pub fn throttle_duty(&self) -> f64 {
        if self.observed_steps == 0 {
            0.0
        } else {
            self.throttled_steps as f64 / self.observed_steps as f64
        }
    }

    /// Feeds one control-loop sample: applies any actuation that has come
    /// due at `step`, then (if none is pending) takes a new hysteretic
    /// decision on `hottest_reported` — one level down above the limit,
    /// one level up below the release threshold once the ascent patience
    /// has elapsed, hold inside the band. When the excess passes the
    /// emergency margin the drop is two levels and lands *immediately*,
    /// modelling a hardware thermal-trip path that bypasses the normal
    /// actuation latency (PLL relock / scheduler handshake). Returns the
    /// newly applied operating point when one landed this step — the
    /// caller must propagate it to the plant and the sensing stack.
    pub fn observe(&mut self, step: usize, hottest_reported: Celsius) -> Option<OperatingPoint> {
        self.observed_steps += 1;
        let mut applied = false;
        if let Some((due, target)) = self.pending {
            if step >= due {
                self.level = target;
                self.min_level = self.min_level.min(target);
                self.pending = None;
                self.actuations += 1;
                self.last_applied = Some(step);
                applied = true;
            }
        }
        let hot = hottest_reported.0;
        let emergency = hot > self.cfg.t_limit.0 + self.cfg.emergency_margin;
        if emergency && self.level > 0 {
            // Thermal trip: clamp two levels now, cancelling any gentler
            // pending move.
            let t = self.level.saturating_sub(2);
            self.level = t;
            self.min_level = self.min_level.min(t);
            self.pending = None;
            self.actuations += 1;
            self.last_applied = Some(step);
            applied = true;
        } else if self.pending.is_none() {
            let settled = self
                .last_applied
                .is_none_or(|s| step - s >= self.cfg.up_patience_steps);
            let target = if hot > self.cfg.t_limit.0 && self.level > 0 {
                Some(self.level - 1)
            } else if hot < self.cfg.t_release.0 && self.level + 1 < self.table.len() && settled {
                Some(self.level + 1)
            } else {
                None
            };
            if let Some(t) = target {
                if self.cfg.actuation_latency_steps == 0 {
                    self.level = t;
                    self.min_level = self.min_level.min(t);
                    self.actuations += 1;
                    self.last_applied = Some(step);
                    applied = true;
                } else {
                    self.pending = Some((step + self.cfg.actuation_latency_steps, t));
                }
            }
        }
        if self.level + 1 < self.table.len() {
            self.throttled_steps += 1;
        }
        applied.then(|| self.operating_point())
    }
}

/// Phase shapes of the synthetic workload generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PhaseKind {
    /// Near-zero background demand.
    Idle,
    /// Linear climb from idle to the phase intensity.
    Ramp,
    /// Sustained demand at the phase intensity.
    Burst,
    /// Square wave alternating intensity and idle every few steps.
    Periodic,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Phase {
    kind: PhaseKind,
    steps: usize,
    intensity: f64,
}

/// Demand of the idle floor, as a fraction of full load.
const IDLE_DEMAND: f64 = 0.05;

/// A deterministic synthetic workload trace: a seeded sequence of
/// idle/ramp/burst/periodic phases plus a randomized floorplan (one
/// Gaussian hotspot and one deliberately thin rectangular block — thin
/// enough to slip between power-map cell centres, exercising the
/// snap-to-nearest-cell conservation path). The trace is a pure function
/// of its seed: `demand(step)` and `power_map(step, ...)` never consult an
/// RNG, so replays and cross-thread campaigns are bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadTrace {
    phases: Vec<Phase>,
    total_steps: usize,
    /// Uniform background power at full demand and nominal V/f, watts.
    base_watts: f64,
    /// Hotspot power at full demand and nominal V/f, watts.
    hotspot_watts: f64,
    /// Thin-block power at full demand and nominal V/f, watts.
    block_watts: f64,
    hotspot: (f64, f64, f64),
    block: (f64, f64, f64, f64),
}

impl WorkloadTrace {
    /// Generates a trace of at least `min_steps` steps from `seed`.
    /// Demand beyond the generated phases wraps around (the trace is
    /// cyclic), so any horizon is valid.
    #[must_use]
    pub fn synth(seed: u64, min_steps: usize) -> Self {
        let mut rng = Pcg64::seed_from_u64(seed);
        let mut phases = Vec::new();
        let mut total = 0usize;
        // Every trace opens with a ramp into a burst: the R3 campaign
        // grades throttle behaviour, so the loop must actually get hot.
        phases.push(Phase {
            kind: PhaseKind::Ramp,
            steps: rng.gen_range(6usize..10),
            intensity: rng.gen_range(0.85..1.0),
        });
        phases.push(Phase {
            kind: PhaseKind::Burst,
            steps: rng.gen_range(24usize..36),
            intensity: rng.gen_range(0.9..1.0),
        });
        for p in &phases {
            total += p.steps;
        }
        while total < min_steps.max(1) {
            let kind = match rng.gen_range(0..4u32) {
                0 => PhaseKind::Idle,
                1 => PhaseKind::Ramp,
                2 => PhaseKind::Burst,
                _ => PhaseKind::Periodic,
            };
            let phase = Phase {
                kind,
                steps: rng.gen_range(4usize..14),
                intensity: rng.gen_range(0.5..1.0),
            };
            total += phase.steps;
            phases.push(phase);
        }
        let hotspot = (
            rng.gen_range(0.25..0.75),
            rng.gen_range(0.25..0.75),
            rng.gen_range(0.06..0.12),
        );
        // A thin strip: height well below the 16-grid cell pitch (1/16),
        // so many draws miss every cell centre — the watt-conservation
        // fix is on the hot path, not just in unit tests.
        let bx = rng.gen_range(0.1..0.6);
        let by = rng.gen_range(0.1..0.85);
        let block = (
            bx,
            by,
            bx + rng.gen_range(0.2..0.35),
            by + rng.gen_range(0.01..0.05),
        );
        WorkloadTrace {
            phases,
            total_steps: total,
            base_watts: 0.6,
            // Hot enough that the nominal-point steady state sits well
            // above the 45 °C limit — the controller has real work to do.
            hotspot_watts: rng.gen_range(5.5..6.5),
            // Deliberately modest: the thin block exercises the power-map
            // snap-to-cell conservation path without out-heating the
            // hotspot the sensors guard.
            block_watts: rng.gen_range(0.3..0.6),
            hotspot,
            block,
        }
    }

    /// Steps in one full cycle of the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.total_steps
    }

    /// `true` when the trace has no phases (never, post-construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total_steps == 0
    }

    /// The step with the highest demand in one cycle (first such step).
    #[must_use]
    pub fn peak_demand_step(&self) -> usize {
        let mut best = 0usize;
        let mut best_d = f64::NEG_INFINITY;
        for s in 0..self.total_steps {
            let d = self.demand(s);
            if d > best_d {
                best_d = d;
                best = s;
            }
        }
        best
    }

    /// Workload demand at `step`, in `[0, 1]` (cyclic beyond the trace
    /// length).
    #[must_use]
    pub fn demand(&self, step: usize) -> f64 {
        let mut s = step % self.total_steps;
        for p in &self.phases {
            if s < p.steps {
                return match p.kind {
                    PhaseKind::Idle => IDLE_DEMAND,
                    PhaseKind::Burst => p.intensity,
                    PhaseKind::Ramp => {
                        IDLE_DEMAND
                            + (p.intensity - IDLE_DEMAND) * (s as f64 + 1.0) / p.steps as f64
                    }
                    PhaseKind::Periodic => {
                        if (s / 3).is_multiple_of(2) {
                            p.intensity
                        } else {
                            IDLE_DEMAND
                        }
                    }
                };
            }
            s -= p.steps;
        }
        IDLE_DEMAND
    }

    /// Total watts the workload dissipates at `step` under a DVFS
    /// power scale.
    #[must_use]
    pub fn total_watts(&self, step: usize, power_scale: f64) -> Watt {
        let d = self.demand(step);
        Watt((self.base_watts + d * (self.hotspot_watts + self.block_watts)) * power_scale)
    }

    /// Builds the tier power map for `step` at a DVFS `power_scale`
    /// (uniform background + hotspot + thin block, all scaled).
    ///
    /// # Errors
    ///
    /// Propagates power-map construction errors for a degenerate grid.
    pub fn power_map(
        &self,
        step: usize,
        nx: usize,
        ny: usize,
        power_scale: f64,
    ) -> Result<PowerMap, ThermalError> {
        let d = self.demand(step);
        let mut p = PowerMap::uniform(nx, ny, Watt(self.base_watts * power_scale))?;
        let (cx, cy, r) = self.hotspot;
        p.add_hotspot(cx, cy, r, Watt(self.hotspot_watts * d * power_scale))?;
        let (x0, y0, x1, y1) = self.block;
        p.add_block(x0, y0, x1, y1, Watt(self.block_watts * d * power_scale))?;
        Ok(p)
    }
}

/// Finds the workload tier's hottest cell under `trace` at peak demand
/// and nominal V/f — the principled sensor placement for a DTM monitor
/// (guard the floorplan's known worst spot, so the site temperature the
/// controller defends tracks the true grid peak instead of sitting in a
/// thermal shadow). `thermal` is used as scratch: its power map and
/// temperature field are overwritten; pass a throwaway stack.
///
/// # Errors
///
/// Surfaces thermal coupling failures (bad tier, degenerate grid, solver
/// divergence) as [`SensorError::InvalidConfig`].
pub fn hottest_site(
    thermal: &mut ThermalStack,
    trace: &WorkloadTrace,
    tier: usize,
) -> Result<DieSite, SensorError> {
    let (nx, ny) = (thermal.config().nx, thermal.config().ny);
    let map = trace
        .power_map(trace.peak_demand_step(), nx, ny, 1.0)
        .map_err(thermal_config_err)?;
    thermal.set_power(tier, map).map_err(thermal_config_err)?;
    solve_steady_state(thermal, &SolveOptions::default()).map_err(|_| {
        SensorError::InvalidConfig {
            name: "dtm placement solve",
            value: f64::NAN,
        }
    })?;
    let mut best = DieSite::new(0.5, 0.5);
    let mut best_t = f64::NEG_INFINITY;
    for iy in 0..ny {
        for ix in 0..nx {
            let x = (ix as f64 + 0.5) / nx as f64;
            let y = (iy as f64 + 0.5) / ny as f64;
            let t = thermal
                .temperature_at(tier, x, y)
                .map_err(thermal_config_err)?
                .0;
            if t > best_t {
                best_t = t;
                best = DieSite::new(x, y);
            }
        }
    }
    Ok(best)
}

/// Which conversion mode a [`DtmSensing`] stack is currently in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SensingMode {
    /// The 2012 sensor on its nominal always-on rail.
    Nominal,
    /// The 2013 follow-up's near-/sub-Vth dynamic-voltage-selection mode,
    /// riding the (throttled) core rail at 0.25–0.5 V.
    DynamicVoltageSelection,
}

/// A sensing stack the DTM loop can actuate along with the plant: it boots
/// (calibrates) once at ambient, follows DVFS rail moves, and converts
/// temperatures. Implementations decide how a rail move maps to an
/// operating mode — [`NominalSensing`] ignores the rail entirely, while
/// the dual-mode stack in `ptsim-baselines` hands low rails to the
/// `pvt2013` sensor.
pub trait DtmSensing {
    /// Boot-time calibration at ambient.
    ///
    /// # Errors
    ///
    /// Propagates calibration errors.
    fn calibrate(
        &mut self,
        inputs: &SensorInputs<'_>,
        rng: &mut dyn RngCore,
    ) -> Result<(), SensorError>;

    /// Follows a DVFS actuation to a new rail voltage, returning the mode
    /// now in effect.
    ///
    /// # Errors
    ///
    /// Propagates sensor reconfiguration errors.
    fn set_operating_point(&mut self, vdd: Volt) -> Result<SensingMode, SensorError>;

    /// The mode currently in effect.
    fn mode(&self) -> SensingMode;

    /// One temperature conversion.
    ///
    /// # Errors
    ///
    /// Propagates conversion errors.
    fn read(
        &self,
        inputs: &SensorInputs<'_>,
        rng: &mut dyn RngCore,
    ) -> Result<Reading, SensorError>;

    /// Gating window of one conversion in the present mode — the sensing
    /// lag the control loop inherits.
    fn conversion_window(&self) -> Seconds;
}

/// The nominal-only sensing policy: the 2012 PT sensor on its always-on
/// rail, indifferent to DVFS actuations. The R3 campaign's baseline arm.
#[derive(Debug, Clone)]
pub struct NominalSensing {
    sensor: PtSensor,
    spec: SensorSpec,
}

impl NominalSensing {
    /// Builds the sensor.
    ///
    /// # Errors
    ///
    /// Propagates sensor construction errors.
    pub fn new(tech: &Technology, spec: SensorSpec) -> Result<Self, SensorError> {
        Ok(NominalSensing {
            sensor: PtSensor::new(tech.clone(), spec)?,
            spec,
        })
    }
}

impl DtmSensing for NominalSensing {
    fn calibrate(
        &mut self,
        inputs: &SensorInputs<'_>,
        rng: &mut dyn RngCore,
    ) -> Result<(), SensorError> {
        self.sensor.calibrate(inputs, rng).map(|_| ())
    }

    fn set_operating_point(&mut self, _vdd: Volt) -> Result<SensingMode, SensorError> {
        Ok(SensingMode::Nominal)
    }

    fn mode(&self) -> SensingMode {
        SensingMode::Nominal
    }

    fn read(
        &self,
        inputs: &SensorInputs<'_>,
        rng: &mut dyn RngCore,
    ) -> Result<Reading, SensorError> {
        self.sensor.read(inputs, rng)
    }

    fn conversion_window(&self) -> Seconds {
        Seconds(self.spec.window_cycles as f64 / self.spec.ref_clock.0)
    }
}

/// One control-loop step of a [`run_dtm_loop`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct DtmStepRecord {
    /// Step index (1-based).
    pub step: usize,
    /// Workload demand this step, `[0, 1]`.
    pub demand: f64,
    /// Ladder level in effect while the plant integrated this step.
    pub level: usize,
    /// True hottest sensor-site temperature at the decision instant.
    pub true_hottest: Celsius,
    /// True grid-wide peak of the workload tier at the decision instant
    /// (what [`DtmOutcome::peak_true`] accumulates; recorded per step so
    /// graders can separate the cold-start capture transient from settled
    /// containment).
    pub true_peak: Celsius,
    /// Hottest reported temperature the controller acted on.
    pub reported_hottest: Celsius,
    /// Sensing mode of the hottest tier's conversion.
    pub mode: SensingMode,
}

/// Aggregate outcome of one closed-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct DtmOutcome {
    /// Steps executed.
    pub steps: usize,
    /// Peak *true* temperature over the whole workload tier grid.
    pub peak_true: Celsius,
    /// `max(0, peak_true − t_limit)` — how far the plant escaped the limit
    /// while the controller saw only readings.
    pub overshoot: f64,
    /// Fraction of steps spent below the nominal DVFS level.
    pub throttle_duty: f64,
    /// Worst `|reported − true|` at a decision instant, °C.
    pub worst_lag_error: f64,
    /// Mean `|reported − true|` over all conversions, °C.
    pub mean_lag_error: f64,
    /// Total sensing energy across every conversion of the run.
    pub sensing_energy: Joule,
    /// Fraction of conversions taken in DVS mode.
    pub dvs_read_fraction: f64,
    /// DVFS actuations applied.
    pub actuations: usize,
    /// Deepest ladder level reached.
    pub min_level: usize,
    /// Per-step records (decision-instant telemetry).
    pub records: Vec<DtmStepRecord>,
}

fn thermal_config_err(e: ThermalError) -> SensorError {
    let _ = e;
    SensorError::InvalidConfig {
        name: "dtm thermal coupling",
        value: f64::NAN,
    }
}

/// Runs the closed loop: per step, apply the workload power at the current
/// operating point, advance the plant by one sample period, convert every
/// tier through its sensing stack (with the sensing-lag model below), feed
/// the hottest reading to the controller, and propagate any actuation to
/// both the plant (power scale) and the sensing stacks (rail voltage).
///
/// **Sensing-lag model:** a conversion gates over `conversion_window()`
/// ending at the decision instant, so the temperature it sees is the
/// window-weighted blend `T_end − (w/Δt)·(T_end − T_start)` of the step's
/// endpoint temperatures (`w` clamped to the sample period). A 14 µs
/// nominal window is effectively instantaneous at a 2 ms period; the
/// 896 µs window of the 0.25 V DVS bin drags almost half the previous
/// step's transient into the reading.
///
/// The caller provides one sensing stack per monitor node, uncalibrated —
/// the loop boots them at ambient before the first step. `monitor`
/// supplies the per-tier dies/stress; `thermal` is consumed as the plant
/// state (pass a fresh ambient stack for a cold boot).
///
/// # Errors
///
/// Propagates sensor errors; thermal coupling failures (bad workload tier,
/// grid mismatch) surface as [`SensorError::InvalidConfig`].
#[allow(clippy::too_many_arguments)] // plant + controller + sensing + trace are distinct roles
pub fn run_dtm_loop<S: DtmSensing>(
    monitor: &StackMonitor,
    thermal: &mut ThermalStack,
    sensing: &mut [S],
    controller: &mut DtmController,
    trace: &WorkloadTrace,
    workload_tier: usize,
    steps: usize,
    rng: &mut dyn RngCore,
) -> Result<DtmOutcome, SensorError> {
    let nodes = monitor.nodes().len();
    if sensing.len() != nodes {
        return Err(SensorError::InvalidConfig {
            name: "sensing stacks (must equal node count)",
            value: sensing.len() as f64,
        });
    }
    let (nx, ny) = (thermal.config().nx, thermal.config().ny);
    let period = controller.config().sample_period;

    for (i, s) in sensing.iter_mut().enumerate() {
        s.calibrate(&monitor.calibration_inputs(i), rng)?;
        s.set_operating_point(controller.operating_point().vdd)?;
    }

    let mut scratch = TransientScratch::new();
    let mut t_start = vec![0.0f64; nodes];
    let mut records = Vec::with_capacity(steps);
    let mut peak_true = f64::NEG_INFINITY;
    let mut worst_lag = 0.0f64;
    let mut lag_sum = 0.0f64;
    let mut energy = 0.0f64;
    let mut conversions = 0usize;
    let mut dvs_reads = 0usize;

    for step in 1..=steps {
        let level = controller.level();
        let map = trace
            .power_map(step - 1, nx, ny, controller.power_scale())
            .map_err(thermal_config_err)?;
        thermal
            .set_power(workload_tier, map)
            .map_err(thermal_config_err)?;

        for (i, t) in t_start.iter_mut().enumerate() {
            let node = &monitor.nodes()[i];
            *t = thermal
                .temperature_at(node.tier, node.site.x, node.site.y)
                .map_err(thermal_config_err)?
                .0;
        }
        step_transient_with(thermal, period, &mut scratch);
        let step_peak = thermal
            .max_temperature(workload_tier)
            .map_err(thermal_config_err)?
            .0;
        peak_true = peak_true.max(step_peak);

        let mut true_hottest = f64::NEG_INFINITY;
        let mut reported_hottest = f64::NEG_INFINITY;
        let mut hottest_mode = SensingMode::Nominal;
        for (i, s) in sensing.iter().enumerate() {
            let node = &monitor.nodes()[i];
            let t_end = thermal
                .temperature_at(node.tier, node.site.x, node.site.y)
                .map_err(thermal_config_err)?
                .0;
            let window = s.conversion_window().0.clamp(0.0, period.0);
            let alpha = window / period.0;
            let t_seen = t_end - alpha * (t_end - t_start[i]);
            let inputs = monitor.inputs_at(i, Celsius(t_seen));
            let reading = s.read(&inputs, rng)?;
            let lag_err = (reading.temperature.0 - t_end).abs();
            worst_lag = worst_lag.max(lag_err);
            lag_sum += lag_err;
            energy += reading.energy_total().0;
            conversions += 1;
            if s.mode() == SensingMode::DynamicVoltageSelection {
                dvs_reads += 1;
            }
            true_hottest = true_hottest.max(t_end);
            if reading.temperature.0 > reported_hottest {
                reported_hottest = reading.temperature.0;
                hottest_mode = s.mode();
            }
        }

        if let Some(op) = controller.observe(step, Celsius(reported_hottest)) {
            for s in sensing.iter_mut() {
                s.set_operating_point(op.vdd)?;
            }
        }

        records.push(DtmStepRecord {
            step,
            demand: trace.demand(step - 1),
            level,
            true_hottest: Celsius(true_hottest),
            true_peak: Celsius(step_peak),
            reported_hottest: Celsius(reported_hottest),
            mode: hottest_mode,
        });
    }

    let t_limit = controller.config().t_limit.0;
    Ok(DtmOutcome {
        steps,
        peak_true: Celsius(peak_true),
        overshoot: (peak_true - t_limit).max(0.0),
        throttle_duty: controller.throttle_duty(),
        worst_lag_error: worst_lag,
        mean_lag_error: if conversions == 0 {
            0.0
        } else {
            lag_sum / conversions as f64
        },
        sensing_energy: Joule(energy),
        dvs_read_fraction: if conversions == 0 {
            0.0
        } else {
            dvs_reads as f64 / conversions as f64
        },
        actuations: controller.actuations(),
        min_level: controller.min_level(),
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> DtmController {
        DtmController::new(DvfsTable::default_six_point(), DtmConfig::default()).unwrap()
    }

    #[test]
    fn table_validates() {
        assert!(DvfsTable::new(vec![]).is_err());
        let descending = vec![
            OperatingPoint {
                vdd: Volt(1.0),
                freq: Hertz(1e9),
            },
            OperatingPoint {
                vdd: Volt(0.5),
                freq: Hertz(5e8),
            },
        ];
        assert!(DvfsTable::new(descending).is_err());
        let t = DvfsTable::default_six_point();
        assert_eq!(t.len(), 6);
        assert!((t.power_scale(t.len() - 1) - 1.0).abs() < 1e-12);
        // Power strictly drops as the ladder descends.
        for l in 0..t.len() - 1 {
            assert!(t.power_scale(l) < t.power_scale(l + 1));
        }
    }

    #[test]
    fn controller_rejects_inverted_band() {
        let cfg = DtmConfig {
            t_limit: Celsius(40.0),
            t_release: Celsius(45.0),
            ..DtmConfig::default()
        };
        assert!(DtmController::new(DvfsTable::default_six_point(), cfg).is_err());
    }

    #[test]
    fn hysteresis_band_holds_level() {
        let mut c = controller();
        // Between release (42) and limit (45): no decision ever fires.
        for step in 1..=20 {
            assert!(c.observe(step, Celsius(43.5)).is_none());
        }
        assert_eq!(c.level(), 5);
        assert_eq!(c.actuations(), 0);
        assert!((c.throttle_duty() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn actuation_latency_delays_the_step_down() {
        let mut c = controller();
        // 45.5 °C is over the limit but inside the emergency margin: a
        // single-level decision at step 1, latency 1 → applies at step 2.
        assert!(c.observe(1, Celsius(45.5)).is_none());
        assert_eq!(c.level(), 5, "not yet applied");
        let op = c.observe(2, Celsius(45.5)).expect("applies now");
        assert_eq!(c.level(), 4);
        assert_eq!(op, c.table().point(4));
    }

    #[test]
    fn emergency_margin_trips_two_levels_immediately() {
        let mut c = controller();
        // 50 °C exceeds limit + emergency margin (45 + 2): the thermal
        // trip bypasses the actuation latency and lands two levels down
        // in the same step.
        assert!(c.observe(1, Celsius(50.0)).is_some());
        assert_eq!(c.level(), 3);
        // Still hot: trips again next step.
        assert!(c.observe(2, Celsius(50.0)).is_some());
        assert_eq!(c.level(), 1);
    }

    #[test]
    fn zero_latency_applies_immediately() {
        let cfg = DtmConfig {
            actuation_latency_steps: 0,
            ..DtmConfig::default()
        };
        let mut c = DtmController::new(DvfsTable::default_six_point(), cfg).unwrap();
        // 50 °C is past the emergency margin: an immediate two-level drop.
        assert!(c.observe(1, Celsius(50.0)).is_some());
        assert_eq!(c.level(), 3);
    }

    #[test]
    fn sustained_overheat_descends_and_patience_gates_the_climb() {
        let mut c = controller();
        for step in 1..=20 {
            c.observe(step, Celsius(60.0));
        }
        assert_eq!(c.level(), 0, "pinned at the bottom of the ladder");
        assert_eq!(c.min_level(), 0);
        // Cooling below release climbs back up, but only one level per
        // `up_patience_steps` — the plant must settle between ascents.
        for step in 21..=30 {
            c.observe(step, Celsius(30.0));
        }
        assert!(
            c.level() < 5,
            "patience must slow the ascent (level {} after 10 cool steps)",
            c.level()
        );
        for step in 31..=60 {
            c.observe(step, Celsius(30.0));
        }
        assert_eq!(c.level(), 5);
        assert!(c.throttle_duty() > 0.3 && c.throttle_duty() < 1.0);
    }

    #[test]
    fn reported_not_true_temperature_drives_decisions() {
        let mut c = controller();
        // A wildly hot *true* plant is invisible if readings stay cool.
        for step in 1..=5 {
            assert!(c.observe(step, Celsius(44.0)).is_none());
        }
        assert_eq!(c.level(), 5);
    }

    #[test]
    fn trace_is_deterministic_and_bounded() {
        let a = WorkloadTrace::synth(42, 60);
        let b = WorkloadTrace::synth(42, 60);
        assert_eq!(a, b);
        assert!(a.len() >= 60);
        for step in 0..3 * a.len() {
            let d = a.demand(step);
            assert!((0.0..=1.0).contains(&d), "step {step}: demand {d}");
        }
        // Different seeds differ.
        assert_ne!(a, WorkloadTrace::synth(43, 60));
    }

    #[test]
    fn trace_opens_hot() {
        // The mandated ramp→burst opening must reach high demand early.
        let t = WorkloadTrace::synth(7, 40);
        let early_peak = (0..20).map(|s| t.demand(s)).fold(0.0f64, f64::max);
        assert!(early_peak > 0.85, "opening peak {early_peak}");
    }

    #[test]
    fn power_map_conserves_trace_watts() {
        // The thin block regularly misses every cell centre; the map total
        // must still match the trace's accounting exactly (the headline
        // PowerMap conservation fix, on its real consumer).
        for seed in 0..20 {
            let t = WorkloadTrace::synth(seed, 50);
            for step in [0, 7, 23] {
                for scale in [1.0, 0.144] {
                    let m = t.power_map(step, 16, 16, scale).unwrap();
                    let want = t.total_watts(step, scale).0;
                    assert!(
                        (m.total().0 - want).abs() < 1e-9 * want.max(1.0),
                        "seed {seed} step {step}: map {} vs trace {want}",
                        m.total().0
                    );
                }
            }
        }
    }

    #[test]
    fn nominal_sensing_window_is_microseconds() {
        let s = NominalSensing::new(&Technology::n65(), SensorSpec::default_65nm()).unwrap();
        let w = s.conversion_window().0;
        assert!((w - 14e-6).abs() < 1e-9, "window {w}");
        assert_eq!(s.mode(), SensingMode::Nominal);
    }
}
