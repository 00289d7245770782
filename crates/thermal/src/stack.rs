//! The 3D stacked-die thermal RC network.
//!
//! Each tier is discretized into an `nx × ny` grid of silicon cells.
//! Adjacent in-plane cells exchange heat through lateral silicon
//! conductances; vertically-adjacent cells across a tier interface exchange
//! heat through the bond layer (augmented per-cell by TSV thermal vias);
//! the top tier couples to a heat sink and the bottom tier to the
//! package/board, both held at ambient.
//!
//! Tier 0 is the *bottom* (package side); tier `tiers-1` is the *top*
//! (heat-sink side).
//!
//! [`ThermalStack`] is the only representation of the network: the
//! solvers read its conductances, its per-cell `Σg` and its power maps in
//! place through one grid walk (`ThermalStack::walk`), with nothing copied
//! or rebuilt per solve or per transient step.

use crate::error::ThermalError;
use crate::material::Material;
use crate::power::PowerMap;
use ptsim_device::units::{Celsius, Micron, Watt, WattPerKelvin};

/// Geometry and boundary configuration of a die stack.
#[derive(Debug, Clone, PartialEq)]
pub struct StackConfig {
    /// Grid cells in X.
    pub nx: usize,
    /// Grid cells in Y.
    pub ny: usize,
    /// Number of stacked tiers (≥ 1).
    pub tiers: usize,
    /// Die width.
    pub die_width: Micron,
    /// Die height.
    pub die_height: Micron,
    /// Thinned-die silicon thickness per tier.
    pub tier_thickness: Micron,
    /// Inter-tier bond/underfill layer thickness.
    pub bond_thickness: Micron,
    /// Thermal-interface-material thickness under the heat sink.
    pub tim_thickness: Micron,
    /// Heat-sink thermal resistance, K/W (whole die).
    pub sink_resistance: f64,
    /// Package/board thermal resistance, K/W (whole die).
    pub board_resistance: f64,
    /// Ambient temperature (any finite value).
    pub ambient: Celsius,
}

impl StackConfig {
    /// The 4-tier, 5 × 5 mm stack used by the F5 case study (the SOCC 2012
    /// test chip is 5 × 5 mm; its companion papers stack four dies).
    #[must_use]
    pub fn four_tier_5mm() -> Self {
        StackConfig {
            nx: 16,
            ny: 16,
            tiers: 4,
            die_width: Micron(5000.0),
            die_height: Micron(5000.0),
            tier_thickness: Micron(100.0),
            bond_thickness: Micron(10.0),
            tim_thickness: Micron(50.0),
            sink_resistance: 2.0,
            board_resistance: 20.0,
            ambient: Celsius(25.0),
        }
    }

    /// Single-die variant (for baselines and unit analysis).
    #[must_use]
    pub fn single_die_5mm() -> Self {
        StackConfig {
            tiers: 1,
            ..StackConfig::four_tier_5mm()
        }
    }

    fn validate(&self) -> Result<(), ThermalError> {
        if self.nx == 0 || self.ny == 0 {
            return Err(ThermalError::InvalidGrid {
                nx: self.nx,
                ny: self.ny,
            });
        }
        if self.tiers == 0 {
            return Err(ThermalError::InvalidGeometry {
                name: "tiers",
                value: 0.0,
            });
        }
        for (name, v) in [
            ("die_width", self.die_width.0),
            ("die_height", self.die_height.0),
            ("tier_thickness", self.tier_thickness.0),
            ("bond_thickness", self.bond_thickness.0),
            ("tim_thickness", self.tim_thickness.0),
            ("sink_resistance", self.sink_resistance),
            ("board_resistance", self.board_resistance),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(ThermalError::InvalidGeometry { name, value: v });
            }
        }
        // Any finite ambient is legal, negative °C included.
        if !self.ambient.0.is_finite() {
            return Err(ThermalError::InvalidGeometry {
                name: "ambient",
                value: self.ambient.0,
            });
        }
        Ok(())
    }
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig::four_tier_5mm()
    }
}

/// Assembled thermal RC network with a current temperature state.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalStack {
    cfg: StackConfig,
    /// Lateral conductance between in-plane neighbours, W/K.
    g_lat: f64,
    /// Vertical conductance per interface per cell, W/K
    /// (`[interface][cell]`, interface `i` couples tier `i` and `i+1`).
    g_vert: Vec<Vec<f64>>,
    /// Per-cell conductance from the top tier to ambient, W/K.
    g_sink: f64,
    /// Per-cell conductance from the bottom tier to ambient, W/K.
    g_board: f64,
    /// Per-cell heat capacity, J/K.
    cell_capacity: f64,
    /// Per-tier power maps.
    power: Vec<PowerMap>,
    /// Per-cell `Σg` over neighbours and boundaries, `[tier][row-major
    /// cell]` flattened: derived from the conductances above, summed by
    /// `new` and re-summed by `add_vertical_conductance` for the two cells
    /// it touches.
    g_sum: Vec<f64>,
    /// Cell temperatures, °C, `[tier][row-major cell]` flattened.
    temps: Vec<f64>,
}

impl ThermalStack {
    /// Builds the RC network for `cfg`, initialized at ambient with zero
    /// power everywhere.
    ///
    /// # Errors
    ///
    /// Returns a [`ThermalError`] describing the first invalid configuration
    /// parameter.
    pub fn new(cfg: StackConfig) -> Result<Self, ThermalError> {
        cfg.validate()?;
        let m = 1e-6; // µm → m
        let cell_w = cfg.die_width.0 * m / cfg.nx as f64;
        let cell_h = cfg.die_height.0 * m / cfg.ny as f64;
        let t_si = cfg.tier_thickness.0 * m;
        let cell_area = cell_w * cell_h;
        let n_cells = cfg.nx * cfg.ny;

        // Lateral silicon conductance (assume square-ish cells; use the
        // geometric mean pitch for both axes).
        let pitch = (cell_w * cell_h).sqrt();
        let g_lat = Material::SILICON.slab_conductance(pitch * t_si, pitch);

        // Vertical interface: half-tier silicon above + bond + half-tier
        // silicon below, in series.
        let g_si_half = Material::SILICON.slab_conductance(cell_area, t_si / 2.0);
        let g_bond = Material::BOND_LAYER.slab_conductance(cell_area, cfg.bond_thickness.0 * m);
        let g_iface = 1.0 / (2.0 / g_si_half + 1.0 / g_bond);
        let g_vert = vec![vec![g_iface; n_cells]; cfg.tiers.saturating_sub(1)];

        // Top boundary: TIM slab in series with the heat sink share.
        let g_tim = Material::TIM.slab_conductance(cell_area, cfg.tim_thickness.0 * m);
        let g_hs = 1.0 / (cfg.sink_resistance * n_cells as f64);
        let g_sink = 1.0 / (1.0 / g_tim + 1.0 / g_hs);

        // Bottom boundary: package/board share.
        let g_board = 1.0 / (cfg.board_resistance * n_cells as f64);

        let cell_capacity = Material::SILICON.volume_capacity(cell_area * t_si);

        let ambient = cfg.ambient.0;
        let tiers = cfg.tiers;
        let power = (0..tiers)
            .map(|_| PowerMap::zero(cfg.nx, cfg.ny))
            .collect::<Result<Vec<_>, _>>()?;

        let mut stack = ThermalStack {
            cfg,
            g_lat,
            g_vert,
            g_sink,
            g_board,
            cell_capacity,
            power,
            g_sum: Vec::with_capacity(tiers * n_cells),
            temps: vec![ambient; tiers * n_cells],
        };
        for tier in 0..tiers {
            for iy in 0..stack.cfg.ny {
                for ix in 0..stack.cfg.nx {
                    let g = stack.cell_g_sum(tier, ix, iy);
                    stack.g_sum.push(g);
                }
            }
        }
        Ok(stack)
    }

    /// Stack configuration.
    #[must_use]
    pub fn config(&self) -> &StackConfig {
        &self.cfg
    }

    /// Number of tiers.
    #[must_use]
    pub fn tiers(&self) -> usize {
        self.cfg.tiers
    }

    fn n_cells(&self) -> usize {
        self.cfg.nx * self.cfg.ny
    }

    fn idx(&self, tier: usize, ix: usize, iy: usize) -> usize {
        tier * self.n_cells() + iy * self.cfg.nx + ix
    }

    fn check_tier(&self, tier: usize) -> Result<(), ThermalError> {
        if tier >= self.cfg.tiers {
            Err(ThermalError::TierOutOfRange {
                tier,
                tiers: self.cfg.tiers,
            })
        } else {
            Ok(())
        }
    }

    /// Assigns the power map of a tier.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::TierOutOfRange`] for a bad tier index;
    /// * [`ThermalError::ResolutionMismatch`] if the map resolution differs
    ///   from the stack grid.
    pub fn set_power(&mut self, tier: usize, map: PowerMap) -> Result<(), ThermalError> {
        self.check_tier(tier)?;
        if map.resolution() != (self.cfg.nx, self.cfg.ny) {
            return Err(ThermalError::ResolutionMismatch {
                expected: (self.cfg.nx, self.cfg.ny),
                got: map.resolution(),
            });
        }
        self.power[tier] = map;
        Ok(())
    }

    /// Mutable access to a tier's power map, for retuning cell power in
    /// place between transient steps without rebuilding (and reallocating)
    /// a fresh map — the allocation-free warm-loop companion to
    /// [`set_power`](Self::set_power).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::TierOutOfRange`] for a bad tier index.
    pub fn power_mut(&mut self, tier: usize) -> Result<&mut PowerMap, ThermalError> {
        self.check_tier(tier)?;
        Ok(&mut self.power[tier])
    }

    /// Adds extra vertical conductance (e.g. a TSV bundle) between tiers
    /// `interface` and `interface + 1` at one cell. A negative `g` adds
    /// nothing.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::TierOutOfRange`] if `interface` is not a valid
    ///   interface index or the cell is outside the grid;
    /// * [`ThermalError::InvalidGeometry`] if `g` is NaN or infinite. An
    ///   infinite conductance would make the transient stability limit
    ///   zero. In both cases the stack is left unchanged.
    pub fn add_vertical_conductance(
        &mut self,
        interface: usize,
        ix: usize,
        iy: usize,
        g: WattPerKelvin,
    ) -> Result<(), ThermalError> {
        if interface + 1 >= self.cfg.tiers || ix >= self.cfg.nx || iy >= self.cfg.ny {
            return Err(ThermalError::TierOutOfRange {
                tier: interface,
                tiers: self.cfg.tiers.saturating_sub(1),
            });
        }
        if !g.0.is_finite() {
            return Err(ThermalError::InvalidGeometry {
                name: "vertical_conductance",
                value: g.0,
            });
        }
        self.g_vert[interface][iy * self.cfg.nx + ix] += g.0.max(0.0);
        for tier in [interface, interface + 1] {
            let i = self.idx(tier, ix, iy);
            self.g_sum[i] = self.cell_g_sum(tier, ix, iy);
        }
        Ok(())
    }

    /// Temperature of one cell.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::TierOutOfRange`] for a bad tier index.
    ///
    /// # Panics
    ///
    /// Panics if `ix`/`iy` are outside the grid.
    pub fn temperature(&self, tier: usize, ix: usize, iy: usize) -> Result<Celsius, ThermalError> {
        self.check_tier(tier)?;
        assert!(ix < self.cfg.nx && iy < self.cfg.ny, "cell out of range");
        Ok(Celsius(self.temps[self.idx(tier, ix, iy)]))
    }

    /// Bilinear temperature sample at normalized die coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::TierOutOfRange`] for a bad tier index.
    pub fn temperature_at(&self, tier: usize, x: f64, y: f64) -> Result<Celsius, ThermalError> {
        self.check_tier(tier)?;
        let (nx, ny) = (self.cfg.nx, self.cfg.ny);
        let base = tier * self.n_cells();
        let gx = x.clamp(0.0, 1.0) * (nx - 1).max(1) as f64;
        let gy = y.clamp(0.0, 1.0) * (ny - 1).max(1) as f64;
        let x0 = (gx.floor() as usize).min(nx - 1);
        let y0 = (gy.floor() as usize).min(ny - 1);
        let x1 = (x0 + 1).min(nx - 1);
        let y1 = (y0 + 1).min(ny - 1);
        let tx = gx - x0 as f64;
        let ty = gy - y0 as f64;
        let v = |xx: usize, yy: usize| self.temps[base + yy * nx + xx];
        Ok(Celsius(
            v(x0, y0) * (1.0 - tx) * (1.0 - ty)
                + v(x1, y0) * tx * (1.0 - ty)
                + v(x0, y1) * (1.0 - tx) * ty
                + v(x1, y1) * tx * ty,
        ))
    }

    /// Peak temperature of a tier.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::TierOutOfRange`] for a bad tier index.
    pub fn max_temperature(&self, tier: usize) -> Result<Celsius, ThermalError> {
        self.check_tier(tier)?;
        let base = tier * self.n_cells();
        Ok(Celsius(
            self.temps[base..base + self.n_cells()]
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max),
        ))
    }

    /// Mean temperature of a tier.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::TierOutOfRange`] for a bad tier index.
    pub fn mean_temperature(&self, tier: usize) -> Result<Celsius, ThermalError> {
        self.check_tier(tier)?;
        let base = tier * self.n_cells();
        let sum: f64 = self.temps[base..base + self.n_cells()].iter().sum();
        Ok(Celsius(sum / self.n_cells() as f64))
    }

    /// Resets every cell to ambient.
    pub fn reset(&mut self) {
        let a = self.cfg.ambient.0;
        self.temps.iter_mut().for_each(|t| *t = a);
    }

    /// Total power currently injected.
    #[must_use]
    pub fn total_power(&self) -> Watt {
        self.power.iter().map(PowerMap::total).sum()
    }

    // ---- solver internals (used by `solve`) -------------------------------

    /// `Σg` over one cell's neighbours and boundaries, accumulated from
    /// `0.0` in the visit order of `neighbours_sum` (left, right, up, down,
    /// below, above, board, sink), so it equals that oracle's `g_sum` to
    /// the bit.
    fn cell_g_sum(&self, tier: usize, ix: usize, iy: usize) -> f64 {
        let (tiers, nx, ny) = self.grid();
        let cell = iy * nx + ix;
        let mut g = 0.0;
        if ix > 0 {
            g += self.g_lat;
        }
        if ix + 1 < nx {
            g += self.g_lat;
        }
        if iy > 0 {
            g += self.g_lat;
        }
        if iy + 1 < ny {
            g += self.g_lat;
        }
        if tier > 0 {
            g += self.g_vert[tier - 1][cell];
        }
        if tier + 1 < tiers {
            g += self.g_vert[tier][cell];
        }
        if tier == 0 {
            g += self.g_board;
        }
        if tier + 1 == tiers {
            g += self.g_sink;
        }
        g
    }

    /// Per-visit `(Σg, Σg·T)` over one cell's neighbours and boundaries.
    ///
    /// Retained (test-only) as the reference implementation the solver
    /// equivalence tests replay; the solvers themselves run the grid walk.
    #[cfg(test)]
    pub(crate) fn neighbours_sum(&self, tier: usize, ix: usize, iy: usize) -> (f64, f64) {
        let (nx, ny) = (self.cfg.nx, self.cfg.ny);
        let cell = iy * nx + ix;
        let mut g_sum = 0.0;
        let mut gt_sum = 0.0;
        let mut visit = |g: f64, t: f64| {
            g_sum += g;
            gt_sum += g * t;
        };
        if ix > 0 {
            visit(self.g_lat, self.temps[self.idx(tier, ix - 1, iy)]);
        }
        if ix + 1 < nx {
            visit(self.g_lat, self.temps[self.idx(tier, ix + 1, iy)]);
        }
        if iy > 0 {
            visit(self.g_lat, self.temps[self.idx(tier, ix, iy - 1)]);
        }
        if iy + 1 < ny {
            visit(self.g_lat, self.temps[self.idx(tier, ix, iy + 1)]);
        }
        if tier > 0 {
            visit(
                self.g_vert[tier - 1][cell],
                self.temps[self.idx(tier - 1, ix, iy)],
            );
        }
        if tier + 1 < self.cfg.tiers {
            visit(
                self.g_vert[tier][cell],
                self.temps[self.idx(tier + 1, ix, iy)],
            );
        }
        let ambient = self.cfg.ambient.0;
        if tier == 0 {
            visit(self.g_board, ambient);
        }
        if tier + 1 == self.cfg.tiers {
            visit(self.g_sink, ambient);
        }
        (g_sum, gt_sum)
    }

    #[cfg(test)]
    pub(crate) fn cell_power(&self, tier: usize, ix: usize, iy: usize) -> f64 {
        self.power[tier].cell(ix, iy).0
    }

    pub(crate) fn cell_capacity(&self) -> f64 {
        self.cell_capacity
    }

    pub(crate) fn temps_mut(&mut self) -> &mut Vec<f64> {
        &mut self.temps
    }

    #[cfg(test)]
    pub(crate) fn flat_index(&self, tier: usize, ix: usize, iy: usize) -> usize {
        self.idx(tier, ix, iy)
    }

    pub(crate) fn grid(&self) -> (usize, usize, usize) {
        (self.cfg.tiers, self.cfg.nx, self.cfg.ny)
    }

    /// Stiffest cell's `Σg`, scanned in flat order (the stability bound
    /// for explicit transient integration).
    pub(crate) fn g_max(&self) -> f64 {
        self.g_sum.iter().fold(0.0, |m: f64, &g| m.max(g))
    }

    /// Applies `pass` to every cell in flat-index order (tier-major, then
    /// row-major): the historical Gauss–Seidel sweep order. This is the
    /// one tier dispatch (on which vertical interfaces a tier has) and the
    /// one first/interior/last split of rows and cells that both solvers
    /// use, so every cell reaches the pass with its neighbour set fixed at
    /// compile time.
    pub(crate) fn walk<P: CellPass>(&mut self, pass: &mut P) {
        let (tiers, nx, ny) = self.grid();
        let n_cells = nx * ny;
        let ambient = self.cfg.ambient.0;
        let (board_gt, sink_gt) = (self.g_board * ambient, self.g_sink * ambient);
        let temps = &mut self.temps;
        for t in 0..tiers {
            let tier = Tier {
                base: t * n_cells,
                nx,
                ny,
                n_cells,
                g_lat: self.g_lat,
                below: if t > 0 { &self.g_vert[t - 1] } else { &[] },
                above: if t + 1 < tiers { &self.g_vert[t] } else { &[] },
                board_gt,
                sink_gt,
                g_sum: &self.g_sum[t * n_cells..][..n_cells],
                power: &self.power[t].cells()[..n_cells],
            };
            match (t > 0, t + 1 < tiers) {
                (false, false) => tier.rows::<P, false, false>(temps, pass),
                (false, true) => tier.rows::<P, false, true>(temps, pass),
                (true, true) => tier.rows::<P, true, true>(temps, pass),
                (true, false) => tier.rows::<P, true, false>(temps, pass),
            }
        }
    }
}

/// A per-cell update that [`ThermalStack::walk`] applies to every cell,
/// given the cell's `Σ g·T` from [`Tier::gt`].
pub(crate) trait CellPass {
    /// Updates one cell, `cell` being its row-major index within `tier`.
    fn update(&mut self, tier: &Tier<'_>, temps: &mut [f64], cell: usize, gt: f64);

    /// Updates the `m` interior cells of a row from `cell0` on, which have
    /// both in-plane neighbours: cell by cell unless a pass overrides it.
    #[inline(always)]
    fn interior<const UP: bool, const DOWN: bool, const BELOW: bool, const ABOVE: bool>(
        &mut self,
        tier: &Tier<'_>,
        temps: &mut [f64],
        cell0: usize,
        m: usize,
    ) {
        for cell in cell0..cell0 + m {
            let gt = tier.gt::<true, true, UP, DOWN, BELOW, ABOVE>(temps, cell);
            self.update(tier, temps, cell, gt);
        }
    }
}

/// One tier of the network as [`ThermalStack::walk`] hands it to a pass:
/// borrowed rows of the stack's own conductances, `Σg` and power map.
pub(crate) struct Tier<'a> {
    /// Flat index of the tier's first cell.
    pub(crate) base: usize,
    pub(crate) nx: usize,
    ny: usize,
    /// Cells per tier: the flat-index stride between tiers.
    pub(crate) n_cells: usize,
    pub(crate) g_lat: f64,
    /// Vertical conductances to the tier below and above, per cell
    /// (empty where the tier has no such interface).
    pub(crate) below: &'a [f64],
    pub(crate) above: &'a [f64],
    /// Boundary drives `g_board·T_amb` and `g_sink·T_amb`.
    pub(crate) board_gt: f64,
    pub(crate) sink_gt: f64,
    /// Per-cell `Σg` and injected power of this tier.
    pub(crate) g_sum: &'a [f64],
    pub(crate) power: &'a [f64],
}

impl Tier<'_> {
    /// `Σ g·T` over one cell's neighbours and boundary drives, from `0.0`
    /// in the visit order of `ThermalStack::neighbours_sum`, so it equals
    /// that oracle's `gt_sum` to the bit. The boundary drives stay
    /// separate addends rather than one folded constant: `x + 0.0` is not
    /// always `x` in IEEE 754 (`-0.0`), and pre-summing would reassociate.
    /// The compiled cell body is branch-free.
    #[inline(always)]
    pub(crate) fn gt<
        const L: bool,
        const R: bool,
        const UP: bool,
        const DOWN: bool,
        const BELOW: bool,
        const ABOVE: bool,
    >(
        &self,
        temps: &[f64],
        cell: usize,
    ) -> f64 {
        let i = self.base + cell;
        let mut gt = 0.0;
        if L {
            gt += self.g_lat * temps[i - 1];
        }
        if R {
            gt += self.g_lat * temps[i + 1];
        }
        if UP {
            gt += self.g_lat * temps[i - self.nx];
        }
        if DOWN {
            gt += self.g_lat * temps[i + self.nx];
        }
        if BELOW {
            gt += self.below[cell] * temps[i - self.n_cells];
        }
        if ABOVE {
            gt += self.above[cell] * temps[i + self.n_cells];
        }
        if !BELOW {
            gt += self.board_gt;
        }
        if !ABOVE {
            gt += self.sink_gt;
        }
        gt
    }

    /// The tier's rows: the `iy = 0` row, the interior rows, then the
    /// `iy = ny − 1` row.
    #[inline(always)]
    fn rows<P: CellPass, const BELOW: bool, const ABOVE: bool>(
        &self,
        temps: &mut [f64],
        pass: &mut P,
    ) {
        let (nx, ny) = (self.nx, self.ny);
        if ny == 1 {
            return self.row::<P, false, false, BELOW, ABOVE>(temps, 0, pass);
        }
        self.row::<P, false, true, BELOW, ABOVE>(temps, 0, pass);
        for iy in 1..ny - 1 {
            self.row::<P, true, true, BELOW, ABOVE>(temps, iy * nx, pass);
        }
        self.row::<P, true, false, BELOW, ABOVE>(temps, (ny - 1) * nx, pass);
    }

    /// One row from its first cell `cell0`: the `ix = 0` cell, the
    /// interior run, then the `ix = nx − 1` cell.
    #[inline(always)]
    fn row<P: CellPass, const UP: bool, const DOWN: bool, const BELOW: bool, const ABOVE: bool>(
        &self,
        temps: &mut [f64],
        cell0: usize,
        pass: &mut P,
    ) {
        let last = cell0 + self.nx - 1;
        if self.nx == 1 {
            let gt = self.gt::<false, false, UP, DOWN, BELOW, ABOVE>(temps, cell0);
            return pass.update(self, temps, cell0, gt);
        }
        let gt = self.gt::<false, true, UP, DOWN, BELOW, ABOVE>(temps, cell0);
        pass.update(self, temps, cell0, gt);
        pass.interior::<UP, DOWN, BELOW, ABOVE>(self, temps, cell0 + 1, self.nx - 2);
        let gt = self.gt::<true, false, UP, DOWN, BELOW, ABOVE>(temps, last);
        pass.update(self, temps, last, gt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_config() {
        let mut cfg = StackConfig::four_tier_5mm();
        cfg.nx = 0;
        assert!(ThermalStack::new(cfg).is_err());
        let mut cfg = StackConfig::four_tier_5mm();
        cfg.tier_thickness = Micron(0.0);
        assert!(ThermalStack::new(cfg).is_err());
        assert!(ThermalStack::new(StackConfig::four_tier_5mm()).is_ok());
    }

    #[test]
    fn non_finite_ambient_is_refused() {
        // A NaN or +∞ ambient used to build, then step into a NaN field
        // without an error.
        for a in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let cfg = StackConfig {
                ambient: Celsius(a),
                ..StackConfig::four_tier_5mm()
            };
            let r = ThermalStack::new(cfg);
            assert!(
                matches!(
                    r,
                    Err(ThermalError::InvalidGeometry {
                        name: "ambient",
                        ..
                    })
                ),
                "{r:?}"
            );
        }
        let cold = StackConfig {
            ambient: Celsius(-40.0),
            ..StackConfig::four_tier_5mm()
        };
        let s = ThermalStack::new(cold).unwrap();
        assert_eq!(s.temperature(0, 0, 0).unwrap(), Celsius(-40.0));
    }

    #[test]
    fn starts_at_ambient() {
        let s = ThermalStack::new(StackConfig::four_tier_5mm()).unwrap();
        for tier in 0..4 {
            assert_eq!(s.temperature(tier, 0, 0).unwrap(), Celsius(25.0));
            assert_eq!(s.mean_temperature(tier).unwrap(), Celsius(25.0));
        }
    }

    #[test]
    fn set_power_validates() {
        let mut s = ThermalStack::new(StackConfig::four_tier_5mm()).unwrap();
        assert!(s
            .set_power(0, PowerMap::uniform(16, 16, Watt(1.0)).unwrap())
            .is_ok());
        assert!(s
            .set_power(9, PowerMap::uniform(16, 16, Watt(1.0)).unwrap())
            .is_err());
        assert!(s
            .set_power(0, PowerMap::uniform(8, 8, Watt(1.0)).unwrap())
            .is_err());
        assert!((s.total_power().0 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tsv_conductance_bounds_checked() {
        let mut s = ThermalStack::new(StackConfig::four_tier_5mm()).unwrap();
        assert!(s
            .add_vertical_conductance(0, 0, 0, WattPerKelvin(1e-3))
            .is_ok());
        assert!(s
            .add_vertical_conductance(3, 0, 0, WattPerKelvin(1e-3))
            .is_err());
        assert!(s
            .add_vertical_conductance(0, 99, 0, WattPerKelvin(1e-3))
            .is_err());
    }

    #[test]
    fn non_finite_tsv_conductance_is_refused() {
        let fresh = ThermalStack::new(StackConfig::four_tier_5mm()).unwrap();
        let mut s = fresh.clone();
        for g in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                s.add_vertical_conductance(0, 0, 0, WattPerKelvin(g)),
                Err(ThermalError::InvalidGeometry { .. })
            ));
        }
        assert_eq!(s, fresh);
        let dt = ptsim_device::units::Seconds(2e-3);
        let expected = crate::solve::step_transient(&mut fresh.clone(), dt);
        assert_eq!(crate::solve::step_transient(&mut s, dt), expected);
    }

    #[test]
    fn single_tier_has_no_interfaces() {
        let s = ThermalStack::new(StackConfig::single_die_5mm()).unwrap();
        assert_eq!(s.tiers(), 1);
        // Both boundaries active on the one tier.
        let (g, _) = s.neighbours_sum(0, 8, 8);
        assert!(g > 0.0);
    }

    #[test]
    fn temperature_at_interpolates_and_clamps() {
        let mut s = ThermalStack::new(StackConfig::single_die_5mm()).unwrap();
        let i = s.flat_index(0, 0, 0);
        s.temps_mut()[i] = 50.0;
        let t_corner = s.temperature_at(0, -1.0, -1.0).unwrap();
        assert_eq!(t_corner, Celsius(50.0));
        let t_mid = s.temperature_at(0, 0.5, 0.5).unwrap();
        assert!(t_mid.0 >= 25.0 && t_mid.0 <= 50.0);
        assert!(s.temperature_at(7, 0.5, 0.5).is_err());
    }

    #[test]
    fn reset_restores_ambient() {
        let mut s = ThermalStack::new(StackConfig::single_die_5mm()).unwrap();
        let i = s.flat_index(0, 3, 3);
        s.temps_mut()[i] = 90.0;
        s.reset();
        assert_eq!(s.temperature(0, 3, 3).unwrap(), Celsius(25.0));
    }
}
