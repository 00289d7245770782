//! Per-tier power maps.

use crate::error::ThermalError;
use ptsim_device::units::Watt;

/// A power-density map over the cells of one tier.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerMap {
    nx: usize,
    ny: usize,
    cells: Vec<f64>,
}

impl PowerMap {
    /// All-zero map of the given resolution.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidGrid`] if either dimension is zero.
    pub fn zero(nx: usize, ny: usize) -> Result<Self, ThermalError> {
        if nx == 0 || ny == 0 {
            return Err(ThermalError::InvalidGrid { nx, ny });
        }
        Ok(PowerMap {
            nx,
            ny,
            cells: vec![0.0; nx * ny],
        })
    }

    /// Uniform map dissipating `total` watts across the tier.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidGrid`] if either dimension is zero, or
    /// [`ThermalError::InvalidPower`] if `total` is negative or non-finite.
    pub fn uniform(nx: usize, ny: usize, total: Watt) -> Result<Self, ThermalError> {
        non_negative(total)?;
        let mut map = PowerMap::zero(nx, ny)?;
        let per_cell = total.0 / (nx * ny) as f64;
        map.cells.iter_mut().for_each(|c| *c = per_cell);
        Ok(map)
    }

    /// Grid resolution `(nx, ny)`.
    #[must_use]
    pub fn resolution(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Power of one cell.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    #[must_use]
    pub fn cell(&self, ix: usize, iy: usize) -> Watt {
        assert!(ix < self.nx && iy < self.ny, "power-map index out of range");
        Watt(self.cells[iy * self.nx + ix])
    }

    /// Sets the power of one cell (a negative wattage is stored as 0).
    ///
    /// # Errors
    ///
    /// [`ThermalError::InvalidPower`] if `p` is non-finite; the map is left
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn set_cell(&mut self, ix: usize, iy: usize, p: Watt) -> Result<(), ThermalError> {
        assert!(ix < self.nx && iy < self.ny, "power-map index out of range");
        finite(p)?;
        self.cells[iy * self.nx + ix] = p.0.max(0.0);
        Ok(())
    }

    /// Flat index of the cell whose centre is nearest to the normalized
    /// point `(px, py)` after clamping it onto the die. Non-finite
    /// coordinates clamp to the die centre so the deposit stays on-map.
    fn nearest_cell_index(&self, px: f64, py: f64) -> usize {
        let snap = |p: f64, n: usize| -> usize {
            let p = if p.is_finite() {
                p.clamp(0.0, 1.0)
            } else {
                0.5
            };
            // Cell centres sit at (i + 0.5) / n; invert and round.
            let i = (p * n as f64 - 0.5).round().max(0.0) as usize;
            i.min(n - 1)
        };
        snap(py, self.ny) * self.nx + snap(px, self.nx)
    }

    /// Adds a Gaussian hotspot centred at normalized coordinates
    /// `(cx, cy)` with the given normalized radius (standard deviation),
    /// carrying `total` additional watts.
    ///
    /// Injected power is always conserved: if the centre is so far off-die
    /// (or the radius so small) that every cell weight underflows to zero,
    /// the full wattage lands in the cell nearest the clamped centre
    /// instead of being silently dropped.
    ///
    /// # Errors
    ///
    /// [`ThermalError::InvalidPower`] if `total` is negative or non-finite;
    /// the map is left unchanged.
    pub fn add_hotspot(
        &mut self,
        cx: f64,
        cy: f64,
        radius: f64,
        total: Watt,
    ) -> Result<(), ThermalError> {
        non_negative(total)?;
        let r = radius.max(1e-6);
        let mut weights = vec![0.0; self.cells.len()];
        let mut sum = 0.0;
        for iy in 0..self.ny {
            for ix in 0..self.nx {
                let x = (ix as f64 + 0.5) / self.nx as f64;
                let y = (iy as f64 + 0.5) / self.ny as f64;
                let d2 = (x - cx).powi(2) + (y - cy).powi(2);
                let w = (-d2 / (2.0 * r * r)).exp();
                weights[iy * self.nx + ix] = w;
                sum += w;
            }
        }
        if sum > 0.0 {
            for (c, w) in self.cells.iter_mut().zip(&weights) {
                *c += total.0 * w / sum;
            }
        } else {
            let i = self.nearest_cell_index(cx, cy);
            self.cells[i] += total.0;
        }
        Ok(())
    }

    /// Adds a rectangular power block covering normalized `[x0,x1]×[y0,y1]`,
    /// carrying `total` additional watts spread uniformly over the block.
    ///
    /// Injected power is always conserved: a footprint thin enough to slip
    /// between cell centres (or lying off-die entirely) deposits the full
    /// wattage in the cell nearest the clamped block centre instead of
    /// being silently dropped.
    ///
    /// # Errors
    ///
    /// [`ThermalError::InvalidPower`] if `total` is negative or non-finite;
    /// the map is left unchanged.
    pub fn add_block(
        &mut self,
        x0: f64,
        y0: f64,
        x1: f64,
        y1: f64,
        total: Watt,
    ) -> Result<(), ThermalError> {
        non_negative(total)?;
        let mut indices = Vec::new();
        for iy in 0..self.ny {
            for ix in 0..self.nx {
                let x = (ix as f64 + 0.5) / self.nx as f64;
                let y = (iy as f64 + 0.5) / self.ny as f64;
                if x >= x0 && x <= x1 && y >= y0 && y <= y1 {
                    indices.push(iy * self.nx + ix);
                }
            }
        }
        if !indices.is_empty() {
            let per = total.0 / indices.len() as f64;
            for i in indices {
                self.cells[i] += per;
            }
        } else {
            let cx = 0.5 * (x0 + x1);
            let cy = 0.5 * (y0 + y1);
            let i = self.nearest_cell_index(cx, cy);
            self.cells[i] += total.0;
        }
        Ok(())
    }

    /// Total power of the map.
    #[must_use]
    pub fn total(&self) -> Watt {
        Watt(self.cells.iter().sum())
    }

    /// Peak cell power.
    #[must_use]
    pub fn peak(&self) -> Watt {
        Watt(self.cells.iter().copied().fold(0.0, f64::max))
    }

    /// Raw cells in row-major order (for the solver).
    #[must_use]
    pub fn cells(&self) -> &[f64] {
        &self.cells
    }
}

/// Refuses a non-finite wattage.
fn finite(p: Watt) -> Result<(), ThermalError> {
    if p.0.is_finite() {
        Ok(())
    } else {
        Err(ThermalError::InvalidPower { watts: p.0 })
    }
}

/// Refuses a negative or non-finite wattage; `-0.0` passes.
fn non_negative(p: Watt) -> Result<(), ThermalError> {
    if p.0 >= 0.0 {
        finite(p)
    } else {
        Err(ThermalError::InvalidPower { watts: p.0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_map_sums_to_zero() {
        let m = PowerMap::zero(8, 8).unwrap();
        assert_eq!(m.total().0, 0.0);
        assert_eq!(m.resolution(), (8, 8));
    }

    #[test]
    fn rejects_degenerate_grids_and_negative_power() {
        assert!(PowerMap::zero(0, 4).is_err());
        assert!(PowerMap::uniform(4, 4, Watt(-1.0)).is_err());
        assert!(PowerMap::uniform(4, 4, Watt(f64::NAN)).is_err());
    }

    #[test]
    fn uniform_conserves_total() {
        let m = PowerMap::uniform(10, 10, Watt(2.0)).unwrap();
        assert!((m.total().0 - 2.0).abs() < 1e-12);
        assert!((m.cell(3, 7).0 - 0.02).abs() < 1e-12);
    }

    #[test]
    fn hotspot_conserves_total_and_peaks_at_center() {
        let mut m = PowerMap::zero(16, 16).unwrap();
        m.add_hotspot(0.5, 0.5, 0.1, Watt(1.0)).unwrap();
        assert!((m.total().0 - 1.0).abs() < 1e-9);
        let center = m.cell(8, 8).0;
        let corner = m.cell(0, 0).0;
        assert!(center > 100.0 * corner.max(1e-18));
    }

    #[test]
    fn block_covers_expected_cells() {
        let mut m = PowerMap::zero(10, 10).unwrap();
        m.add_block(0.0, 0.0, 0.499, 0.499, Watt(1.0)).unwrap();
        assert!((m.total().0 - 1.0).abs() < 1e-12);
        assert!(m.cell(0, 0).0 > 0.0);
        assert_eq!(m.cell(9, 9).0, 0.0);
    }

    #[test]
    fn set_cell_clamps_negative() {
        let mut m = PowerMap::zero(2, 2).unwrap();
        m.set_cell(0, 0, Watt(-5.0)).unwrap();
        assert_eq!(m.cell(0, 0).0, 0.0);
        m.set_cell(1, 1, Watt(0.25)).unwrap();
        assert_eq!(m.peak().0, 0.25);
    }

    #[test]
    fn negative_injection_is_refused() {
        // Both used to return `Ok` and leave negative cells behind: the
        // hotspot a −0.854 W cell and a −5 W total that `peak()` read as 0.
        let mut m = PowerMap::zero(4, 4).unwrap();
        let hotspot = m.add_hotspot(0.5, 0.5, 0.2, Watt(-5.0));
        assert!(
            matches!(hotspot, Err(ThermalError::InvalidPower { .. })),
            "{hotspot:?}"
        );
        let block = m.add_block(0.0, 0.0, 1.0, 1.0, Watt(-2.0));
        assert!(
            matches!(block, Err(ThermalError::InvalidPower { .. })),
            "{block:?}"
        );
        assert_eq!(m, PowerMap::zero(4, 4).unwrap());
        // A negative zero is accepted, as `uniform` accepts it.
        m.add_hotspot(0.5, 0.5, 0.2, Watt(-0.0)).unwrap();
        m.add_block(0.0, 0.0, 1.0, 1.0, Watt(-0.0)).unwrap();
        assert!(PowerMap::uniform(4, 4, Watt(-0.0)).is_ok());
        assert_eq!(m.total(), Watt(0.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cell_bounds_checked() {
        let m = PowerMap::zero(2, 2).unwrap();
        let _ = m.cell(2, 0);
    }

    #[test]
    fn thin_block_between_cell_centers_conserves_power() {
        // On an 8×8 grid the cell centres sit at odd multiples of 1/16; a
        // block spanning [0.26, 0.30] contains none of them and used to
        // drop the full wattage on the floor.
        let mut m = PowerMap::zero(8, 8).unwrap();
        m.add_block(0.26, 0.26, 0.30, 0.30, Watt(1.5)).unwrap();
        assert!((m.total().0 - 1.5).abs() < 1e-12);
        // Snapped to the cell whose centre is nearest the block centre.
        assert_eq!(m.cell(2, 2).0, Watt(1.5).0);
    }

    #[test]
    fn off_die_block_snaps_to_nearest_edge_cell() {
        let mut m = PowerMap::zero(4, 4).unwrap();
        m.add_block(1.2, -0.7, 1.4, -0.5, Watt(0.8)).unwrap();
        assert!((m.total().0 - 0.8).abs() < 1e-12);
        assert_eq!(m.cell(3, 0).0, Watt(0.8).0);
    }

    #[test]
    fn far_off_die_hotspot_conserves_power() {
        // exp(-d²/2r²) underflows to 0.0 for every cell when the centre is
        // far off-die and the radius tiny; the watts must still arrive.
        let mut m = PowerMap::zero(8, 8).unwrap();
        m.add_hotspot(50.0, 50.0, 1e-6, Watt(2.0)).unwrap();
        assert!((m.total().0 - 2.0).abs() < 1e-12);
        assert_eq!(m.cell(7, 7).0, Watt(2.0).0);
    }

    #[test]
    fn non_finite_hotspot_center_still_conserves_power() {
        let mut m = PowerMap::zero(4, 4).unwrap();
        m.add_hotspot(f64::NAN, f64::INFINITY, 0.05, Watt(1.0))
            .unwrap();
        assert!((m.total().0 - 1.0).abs() < 1e-12);
    }

    ptsim_rng::forall! {
        #![cases = 64]

        /// Headline conservation property: whatever the geometry — covered,
        /// thin, degenerate, or entirely off-die — `total()` rises by
        /// exactly the injected watts.
        #[test]
        fn block_injection_conserves_power(
            x0 in -0.5f64..1.5, y0 in -0.5f64..1.5,
            w in 0.0f64..0.8, h in 0.0f64..0.8,
            watts in 0.0f64..10.0,
        ) {
            let mut m = PowerMap::uniform(8, 8, Watt(1.0)).unwrap();
            let before = m.total().0;
            m.add_block(x0, y0, x0 + w, y0 + h, Watt(watts)).unwrap();
            let gained = m.total().0 - before;
            assert!(
                (gained - watts).abs() < 1e-9 * watts.max(1.0),
                "block ({x0:.3},{y0:.3})+({w:.3},{h:.3}) lost power: \
                 injected {watts:.6}, gained {gained:.6}"
            );
        }

        #[test]
        fn hotspot_injection_conserves_power(
            cx in -2.0f64..3.0, cy in -2.0f64..3.0,
            radius in 0.0f64..0.3, watts in 0.0f64..10.0,
        ) {
            let mut m = PowerMap::uniform(8, 8, Watt(1.0)).unwrap();
            let before = m.total().0;
            m.add_hotspot(cx, cy, radius, Watt(watts)).unwrap();
            let gained = m.total().0 - before;
            assert!(
                (gained - watts).abs() < 1e-9 * watts.max(1.0),
                "hotspot ({cx:.3},{cy:.3}) r={radius:.4} lost power: \
                 injected {watts:.6}, gained {gained:.6}"
            );
        }
    }
}
