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
    /// Ambient temperature.
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

        Ok(ThermalStack {
            cfg,
            g_lat,
            g_vert,
            g_sink,
            g_board,
            cell_capacity,
            power,
            temps: vec![ambient; tiers * n_cells],
        })
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

    /// Per-visit `(Σg, Σg·T)` over one cell's neighbours and boundaries.
    ///
    /// Retained (test-only) as the reference implementation the
    /// [`Stencil`] equivalence tests replay; the solvers themselves now
    /// iterate the flattened stencil.
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

    /// Flattens the RC network into a [`Stencil`]: the lateral/vertical
    /// conductances, precomputed boundary drive terms, the per-cell
    /// conductance sum, and a power snapshot — everything
    /// temperature-independent that `ThermalStack::neighbours_sum` and
    /// [`ThermalStack::cell_power`] recompute on every visit.
    ///
    /// Bit-identity contract: the stencil kernels visit neighbours in the
    /// exact order of `ThermalStack::neighbours_sum` (left, right, up,
    /// down, below, above, board, sink) and `g_sum` is accumulated in that
    /// same order, so replaying a stencil row reproduces `neighbours_sum`
    /// to the bit. The boundary drives stay separate sequential addends
    /// (`g·T_amb` each) rather than being folded into one constant:
    /// `x + 0.0` is not always `x` in IEEE 754 (`-0.0`), and pre-summing
    /// would reassociate.
    pub(crate) fn stencil(&self) -> Stencil {
        let mut st = Stencil::empty();
        self.stencil_into(&mut st);
        st
    }

    /// Refreshes `st` in place from the current network coefficients and
    /// power maps. Equivalent to `*st = self.stencil()` but reuses the
    /// stencil's existing vector storage, so a warm control loop that
    /// rebuilds the stencil every tick (power maps change between steps)
    /// performs no heap allocation once capacities have grown to fit.
    pub(crate) fn stencil_into(&self, st: &mut Stencil) {
        let (tiers, nx, ny) = self.grid();
        let n_cells = nx * ny;
        let ambient = self.cfg.ambient.0;
        let g_sum = &mut st.g_sum;
        let power = &mut st.power;
        g_sum.clear();
        power.clear();
        g_sum.reserve(tiers * n_cells);
        power.reserve(tiers * n_cells);
        for tier in 0..tiers {
            for iy in 0..ny {
                for ix in 0..nx {
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
                    g_sum.push(g);
                    power.push(self.cell_power(tier, ix, iy));
                }
            }
        }
        st.g_vert.clear();
        st.g_vert.reserve(tiers.saturating_sub(1) * n_cells);
        for iface in &self.g_vert {
            st.g_vert.extend_from_slice(iface);
        }
        st.tiers = tiers;
        st.nx = nx;
        st.ny = ny;
        st.g_lat = self.g_lat;
        st.board_gt = self.g_board * ambient;
        st.sink_gt = self.g_sink * ambient;
    }
}

/// A flattened, coefficient-precomputed view of the RC network for one
/// solve. Cells are visited in flat-index (tier-major, then row-major)
/// order — exactly the historical Gauss–Seidel sweep order — and every
/// neighbour sits at a fixed stride (`±1`, `±nx`, `±nx·ny`), so the
/// kernels below need no per-neighbour index or conductance loads beyond
/// the non-uniform vertical (TSV-augmented) interface conductances.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Stencil {
    tiers: usize,
    nx: usize,
    ny: usize,
    /// Lateral conductance between in-plane neighbours, W/K.
    g_lat: f64,
    /// Vertical interface conductances, `[iface · nx·ny + cell]`, W/K.
    g_vert: Vec<f64>,
    /// Board boundary drive `g_board · T_ambient` (tier 0 cells).
    board_gt: f64,
    /// Sink boundary drive `g_sink · T_ambient` (top-tier cells).
    sink_gt: f64,
    /// Per-cell `Σg` including boundaries, accumulated in visit order.
    g_sum: Vec<f64>,
    /// Per-cell injected power snapshot, W.
    power: Vec<f64>,
}

impl Stencil {
    /// A zero-cell stencil, ready to be filled by
    /// [`ThermalStack::stencil_into`].
    pub(crate) fn empty() -> Stencil {
        Stencil {
            tiers: 0,
            nx: 0,
            ny: 0,
            g_lat: 0.0,
            g_vert: Vec::new(),
            board_gt: 0.0,
            sink_gt: 0.0,
            g_sum: Vec::new(),
            power: Vec::new(),
        }
    }

    /// Number of cells.
    pub(crate) fn len(&self) -> usize {
        self.g_sum.len()
    }

    /// Stiffest cell's `Σg`, scanned in flat order (the stability bound
    /// for explicit transient integration).
    pub(crate) fn g_max(&self) -> f64 {
        let mut g_max: f64 = 0.0;
        for &g in &self.g_sum {
            g_max = g_max.max(g);
        }
        g_max
    }

    /// `Σ g·T` over one cell's neighbours and boundary drives, replaying
    /// the accumulation order of `ThermalStack::neighbours_sum` over the
    /// given temperature field — bit-identical to the `gt_sum` it
    /// returns. The neighbour set is monomorphized: `L`/`R`/`UP`/`DOWN`
    /// say which in-plane neighbours exist, `BELOW`/`ABOVE` which
    /// vertical interfaces do — and since the board couples exactly the
    /// tiers with no interface below (and the sink those with none
    /// above), `!BELOW`/`!ABOVE` are the boundary terms. The compiled
    /// cell body is branch-free.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn cell_gt<
        const L: bool,
        const R: bool,
        const UP: bool,
        const DOWN: bool,
        const BELOW: bool,
        const ABOVE: bool,
    >(
        &self,
        temps: &[f64],
        i: usize,
        cell: usize,
        below: &[f64],
        above: &[f64],
    ) -> f64 {
        let nx = self.nx;
        let n_cells = self.nx * self.ny;
        let mut gt = 0.0;
        if L {
            gt += self.g_lat * temps[i - 1];
        }
        if R {
            gt += self.g_lat * temps[i + 1];
        }
        if UP {
            gt += self.g_lat * temps[i - nx];
        }
        if DOWN {
            gt += self.g_lat * temps[i + nx];
        }
        if BELOW {
            gt += below[cell] * temps[i - n_cells];
        }
        if ABOVE {
            gt += above[cell] * temps[i + n_cells];
        }
        if !BELOW {
            gt += self.board_gt;
        }
        if !ABOVE {
            gt += self.sink_gt;
        }
        gt
    }

    /// SOR-updates cell `i` given its neighbour sum, tracking the sweep
    /// residual.
    #[inline(always)]
    fn sor_update(&self, temps: &mut [f64], i: usize, gt: f64, omega: f64, residual: &mut f64) {
        let gauss = (gt + self.power[i]) / self.g_sum[i];
        let old = temps[i];
        let new = old + omega * (gauss - old);
        *residual = (*residual).max((new - old).abs());
        temps[i] = new;
    }

    /// One Gauss–Seidel row: the `ix = 0` cell, a branch-free interior
    /// run, and the `ix = nx − 1` cell. `i0`/`cell0` index the row's
    /// first cell.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn sor_row<const UP: bool, const DOWN: bool, const BELOW: bool, const ABOVE: bool>(
        &self,
        temps: &mut [f64],
        i0: usize,
        cell0: usize,
        below: &[f64],
        above: &[f64],
        omega: f64,
        residual: &mut f64,
    ) {
        let nx = self.nx;
        if nx == 1 {
            let gt = self
                .cell_gt::<false, false, UP, DOWN, BELOW, ABOVE>(temps, i0, cell0, below, above);
            self.sor_update(temps, i0, gt, omega, residual);
            return;
        }
        let gt =
            self.cell_gt::<false, true, UP, DOWN, BELOW, ABOVE>(temps, i0, cell0, below, above);
        self.sor_update(temps, i0, gt, omega, residual);
        for dx in 1..nx - 1 {
            let (i, cell) = (i0 + dx, cell0 + dx);
            let gt =
                self.cell_gt::<true, true, UP, DOWN, BELOW, ABOVE>(temps, i, cell, below, above);
            self.sor_update(temps, i, gt, omega, residual);
        }
        let (i, cell) = (i0 + nx - 1, cell0 + nx - 1);
        let gt = self.cell_gt::<true, false, UP, DOWN, BELOW, ABOVE>(temps, i, cell, below, above);
        self.sor_update(temps, i, gt, omega, residual);
    }

    /// One tier of the sweep: the `iy = 0` row, the interior rows, and
    /// the `iy = ny − 1` row, each dispatched to the monomorphized row
    /// kernel.
    #[inline(always)]
    fn sor_tier<const BELOW: bool, const ABOVE: bool>(
        &self,
        temps: &mut [f64],
        tier: usize,
        below: &[f64],
        above: &[f64],
        omega: f64,
        residual: &mut f64,
    ) {
        let (nx, ny) = (self.nx, self.ny);
        let base = tier * nx * ny;
        if ny == 1 {
            self.sor_row::<false, false, BELOW, ABOVE>(
                temps, base, 0, below, above, omega, residual,
            );
            return;
        }
        self.sor_row::<false, true, BELOW, ABOVE>(temps, base, 0, below, above, omega, residual);
        for iy in 1..ny - 1 {
            let row = iy * nx;
            self.sor_row::<true, true, BELOW, ABOVE>(
                temps,
                base + row,
                row,
                below,
                above,
                omega,
                residual,
            );
        }
        let row = (ny - 1) * nx;
        self.sor_row::<true, false, BELOW, ABOVE>(
            temps,
            base + row,
            row,
            below,
            above,
            omega,
            residual,
        );
    }

    /// The vertical-conductance rows adjacent to `tier` (`(below,
    /// above)`), empty when the tier has no such interface.
    #[inline]
    fn tier_ifaces(&self, tier: usize) -> (&[f64], &[f64]) {
        let n_cells = self.nx * self.ny;
        let iface = |k: usize| &self.g_vert[k * n_cells..(k + 1) * n_cells];
        let below = if tier > 0 { iface(tier - 1) } else { &[] };
        let above = if tier + 1 < self.tiers {
            iface(tier)
        } else {
            &[]
        };
        (below, above)
    }

    /// One in-place Gauss–Seidel/SOR sweep over `temps` in flat-index
    /// order, replaying the per-cell accumulation order of
    /// `ThermalStack::neighbours_sum` bit-for-bit. Returns the per-sweep
    /// max `|Δt|` residual.
    pub(crate) fn sor_sweep(&self, temps: &mut [f64], omega: f64) -> f64 {
        let n = self.tiers * self.nx * self.ny;
        assert_eq!(temps.len(), n, "temperature field / stencil mismatch");
        assert_eq!(self.g_sum.len(), n);
        assert_eq!(self.power.len(), n);
        let mut residual = 0.0f64;
        for tier in 0..self.tiers {
            let (below, above) = self.tier_ifaces(tier);
            match (tier > 0, tier + 1 < self.tiers) {
                (false, false) => {
                    self.sor_tier::<false, false>(temps, tier, below, above, omega, &mut residual)
                }
                (false, true) => {
                    self.sor_tier::<false, true>(temps, tier, below, above, omega, &mut residual)
                }
                (true, true) => {
                    self.sor_tier::<true, true>(temps, tier, below, above, omega, &mut residual)
                }
                (true, false) => {
                    self.sor_tier::<true, false>(temps, tier, below, above, omega, &mut residual)
                }
            }
        }
        residual
    }

    /// Explicit-Euler update of cell `i` from its neighbour sum: the
    /// historical transient loop's `t + h·((Σg·T − Σg·t + P) / C)`, with
    /// the derivative's division kept (no reciprocal, no FMA).
    #[inline(always)]
    fn euler_update(&self, temps: &[f64], i: usize, gt: f64, cap: f64, h: f64, out: &mut [f64]) {
        let t = temps[i];
        out[i] = t + h * ((gt - self.g_sum[i] * t + self.power[i]) / cap);
    }

    /// One explicit-Euler row: the `ix = 0` cell, the interior run, and
    /// the `ix = nx − 1` cell. The interior reads pre-sliced neighbour
    /// rows of one common length, so the loop carries no per-neighbour
    /// bounds check and vectorises; each cell still performs the
    /// [`Stencil::cell_gt`] accumulation and [`Stencil::euler_update`]
    /// in the same order, so the result is bit-identical to the edge path.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn euler_row<const UP: bool, const DOWN: bool, const BELOW: bool, const ABOVE: bool>(
        &self,
        temps: &[f64],
        i0: usize,
        cell0: usize,
        below: &[f64],
        above: &[f64],
        cap: f64,
        h: f64,
        out: &mut [f64],
    ) {
        let nx = self.nx;
        if nx == 1 {
            let gt = self
                .cell_gt::<false, false, UP, DOWN, BELOW, ABOVE>(temps, i0, cell0, below, above);
            self.euler_update(temps, i0, gt, cap, h, out);
            return;
        }
        let gt =
            self.cell_gt::<false, true, UP, DOWN, BELOW, ABOVE>(temps, i0, cell0, below, above);
        self.euler_update(temps, i0, gt, cap, h, out);

        // Interior cells `[s, e)` of the row (empty when nx == 2).
        let (s, e) = (i0 + 1, i0 + nx - 1);
        let (cs, ce) = (cell0 + 1, cell0 + nx - 1);
        let n_cells = nx * self.ny;
        let m = e - s;
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
        let g_below = if BELOW { &below[cs..ce] } else { centre };
        let g_above = if ABOVE { &above[cs..ce] } else { centre };
        let (centre, left, right, up, down) =
            (&centre[..m], &left[..m], &right[..m], &up[..m], &down[..m]);
        let (t_below, t_above, g_below, g_above) =
            (&t_below[..m], &t_above[..m], &g_below[..m], &g_above[..m]);
        let g_sum = &self.g_sum[s..e][..m];
        let power = &self.power[s..e][..m];
        let row_out = &mut out[s..e][..m];
        let (g_lat, board_gt, sink_gt) = (self.g_lat, self.board_gt, self.sink_gt);
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
            row_out[k] = t + h * ((gt - g_sum[k] * t + power[k]) / cap);
        }

        let gt = self.cell_gt::<true, false, UP, DOWN, BELOW, ABOVE>(temps, e, ce, below, above);
        self.euler_update(temps, e, gt, cap, h, out);
    }

    /// One explicit-Euler tier, split like [`Stencil::sor_tier`].
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn euler_tier<const BELOW: bool, const ABOVE: bool>(
        &self,
        temps: &[f64],
        tier: usize,
        below: &[f64],
        above: &[f64],
        cap: f64,
        h: f64,
        out: &mut [f64],
    ) {
        let (nx, ny) = (self.nx, self.ny);
        let base = tier * nx * ny;
        if ny == 1 {
            self.euler_row::<false, false, BELOW, ABOVE>(temps, base, 0, below, above, cap, h, out);
            return;
        }
        self.euler_row::<false, true, BELOW, ABOVE>(temps, base, 0, below, above, cap, h, out);
        for iy in 1..ny - 1 {
            let row = iy * nx;
            self.euler_row::<true, true, BELOW, ABOVE>(
                temps,
                base + row,
                row,
                below,
                above,
                cap,
                h,
                out,
            );
        }
        let row = (ny - 1) * nx;
        self.euler_row::<true, false, BELOW, ABOVE>(
            temps,
            base + row,
            row,
            below,
            above,
            cap,
            h,
            out,
        );
    }

    /// One explicit-Euler substep of length `h` over every cell: writes
    /// `t + h·((Σg·T − Σg·t + P) / C)` into `out`, reading only `temps`
    /// (Jacobi-style), bit-identical to the historical two-pass
    /// derivative-then-update loop.
    pub(crate) fn euler_step_into(&self, temps: &[f64], cap: f64, h: f64, out: &mut [f64]) {
        let n = self.tiers * self.nx * self.ny;
        assert_eq!(temps.len(), n, "temperature field / stencil mismatch");
        assert_eq!(out.len(), n);
        assert_eq!(self.g_sum.len(), n);
        assert_eq!(self.power.len(), n);
        for tier in 0..self.tiers {
            let (below, above) = self.tier_ifaces(tier);
            match (tier > 0, tier + 1 < self.tiers) {
                (false, false) => {
                    self.euler_tier::<false, false>(temps, tier, below, above, cap, h, out);
                }
                (false, true) => {
                    self.euler_tier::<false, true>(temps, tier, below, above, cap, h, out);
                }
                (true, true) => {
                    self.euler_tier::<true, true>(temps, tier, below, above, cap, h, out);
                }
                (true, false) => {
                    self.euler_tier::<true, false>(temps, tier, below, above, cap, h, out);
                }
            }
        }
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
