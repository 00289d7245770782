//! 3D stack topology: which TSV arrays sit at which tier interface, and the
//! combined thermal/stress view a sensor placed on a tier experiences.

use crate::error::TsvError;
use crate::geometry::TsvGeometry;
use crate::stress::StressModel;
use crate::thermal_via::vertical_conductance;
use ptsim_device::units::{Celsius, Micron, Volt};
use ptsim_thermal::stack::{StackConfig, ThermalStack};

/// A regular grid of identical TSVs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TsvArray {
    /// Geometry of each via.
    pub geometry: TsvGeometry,
    /// Centre of the via at (column 0, row 0), in µm die coordinates.
    pub origin: (Micron, Micron),
    /// Centre-to-centre pitch.
    pub pitch: Micron,
    /// Vias per row.
    pub cols: usize,
    /// Rows.
    pub rows: usize,
}

impl TsvArray {
    /// A `cols × rows` array centred on the die.
    #[must_use]
    pub fn centered(
        geometry: TsvGeometry,
        die_width: Micron,
        die_height: Micron,
        cols: usize,
        rows: usize,
        pitch: Micron,
    ) -> Self {
        let span_x = (cols.saturating_sub(1)) as f64 * pitch.0;
        let span_y = (rows.saturating_sub(1)) as f64 * pitch.0;
        TsvArray {
            geometry,
            origin: (
                Micron((die_width.0 - span_x) / 2.0),
                Micron((die_height.0 - span_y) / 2.0),
            ),
            pitch,
            cols,
            rows,
        }
    }

    /// Number of vias.
    #[must_use]
    pub fn count(&self) -> usize {
        self.cols * self.rows
    }

    /// Via centre positions in µm die coordinates.
    #[must_use]
    pub fn positions(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::with_capacity(self.count());
        for row in 0..self.rows {
            for col in 0..self.cols {
                out.push((
                    self.origin.0 .0 + col as f64 * self.pitch.0,
                    self.origin.1 .0 + row as f64 * self.pitch.0,
                ));
            }
        }
        out
    }

    /// Validates geometry and pitch.
    ///
    /// # Errors
    ///
    /// Returns [`TsvError`] if the via geometry is invalid, the array is
    /// empty, or vias would overlap (`pitch < 2·outer radius`).
    pub fn validate(&self) -> Result<(), TsvError> {
        self.geometry.validate()?;
        if self.count() == 0 {
            return Err(TsvError::InvalidTopology {
                what: "empty TSV array",
            });
        }
        if self.count() > 1 && self.pitch.0 < 2.0 * self.geometry.outer_radius().0 {
            return Err(TsvError::InvalidTopology {
                what: "TSV pitch smaller than via diameter (vias overlap)",
            });
        }
        Ok(())
    }
}

/// A full 3D-stack description: thermal configuration plus TSV arrays at
/// tier interfaces and a stress model.
#[derive(Debug, Clone, PartialEq)]
pub struct StackTopology {
    thermal_cfg: StackConfig,
    /// `(interface, array)` pairs; interface `i` couples tiers `i` and `i+1`.
    arrays: Vec<(usize, TsvArray)>,
    stress: StressModel,
}

impl StackTopology {
    /// Topology with no TSVs.
    #[must_use]
    pub fn new(thermal_cfg: StackConfig) -> Self {
        StackTopology {
            thermal_cfg,
            arrays: Vec::new(),
            stress: StressModel::default_65nm(),
        }
    }

    /// The 4-tier 5 × 5 mm reference stack with an 8 × 8 signal-TSV array at
    /// every interface (the F5 case-study configuration).
    ///
    /// # Panics
    ///
    /// Does not panic: the built-in configuration always validates.
    #[must_use]
    pub fn reference_four_tier() -> Self {
        let cfg = StackConfig::four_tier_5mm();
        let array = TsvArray::centered(
            TsvGeometry::standard_10um(),
            cfg.die_width,
            cfg.die_height,
            8,
            8,
            Micron(100.0),
        );
        let mut topo = StackTopology::new(cfg);
        for iface in 0..3 {
            topo = topo.with_array(iface, array).expect("reference topology");
        }
        topo
    }

    /// Thermal configuration.
    #[must_use]
    pub fn thermal_config(&self) -> &StackConfig {
        &self.thermal_cfg
    }

    /// Adds a TSV array at a tier interface.
    ///
    /// # Errors
    ///
    /// Returns [`TsvError::InvalidTopology`] if the interface does not exist
    /// or any via centre falls outside the die, and propagates array
    /// validation errors.
    pub fn with_array(mut self, interface: usize, array: TsvArray) -> Result<Self, TsvError> {
        array.validate()?;
        if interface + 1 >= self.thermal_cfg.tiers {
            return Err(TsvError::InvalidTopology {
                what: "interface index beyond stack",
            });
        }
        for (x, y) in array.positions() {
            if x < 0.0
                || y < 0.0
                || x > self.thermal_cfg.die_width.0
                || y > self.thermal_cfg.die_height.0
            {
                return Err(TsvError::InvalidTopology {
                    what: "TSV position outside die",
                });
            }
        }
        self.arrays.push((interface, array));
        Ok(self)
    }

    /// Registered `(interface, array)` pairs.
    #[must_use]
    pub fn arrays(&self) -> &[(usize, TsvArray)] {
        &self.arrays
    }

    /// Builds the thermal RC network with every TSV contributing vertical
    /// conductance at its grid cell.
    ///
    /// # Errors
    ///
    /// Propagates thermal-model construction errors.
    pub fn build_thermal(&self) -> Result<ThermalStack, TsvError> {
        let mut stack = ThermalStack::new(self.thermal_cfg.clone())?;
        let (nx, ny) = (self.thermal_cfg.nx, self.thermal_cfg.ny);
        for (iface, array) in &self.arrays {
            let g = vertical_conductance(&array.geometry);
            for (x, y) in array.positions() {
                let ix = ((x / self.thermal_cfg.die_width.0) * nx as f64)
                    .floor()
                    .clamp(0.0, (nx - 1) as f64) as usize;
                let iy = ((y / self.thermal_cfg.die_height.0) * ny as f64)
                    .floor()
                    .clamp(0.0, (ny - 1) as f64) as usize;
                stack.add_vertical_conductance(*iface, ix, iy, g)?;
            }
        }
        Ok(stack)
    }

    /// Combined stress-induced threshold shifts `(ΔVtn, ΔVtp)` at a point on
    /// `tier`, superposing every via of every array touching that tier
    /// (arrays at interfaces `tier-1` and `tier`).
    ///
    /// Coordinates are µm on the die.
    #[must_use]
    pub fn stress_vt_shift_at(
        &self,
        tier: usize,
        x: Micron,
        y: Micron,
        temp: Celsius,
    ) -> (Volt, Volt) {
        let mut total = 0.0;
        let mut geom_for_scale: Option<TsvGeometry> = None;
        for (iface, array) in &self.arrays {
            let touches = *iface == tier || iface + 1 == tier;
            if !touches {
                continue;
            }
            geom_for_scale.get_or_insert(array.geometry);
            for (vx, vy) in array.positions() {
                let r = ((x.0 - vx).powi(2) + (y.0 - vy).powi(2)).sqrt();
                total += self
                    .stress
                    .radial_stress(&array.geometry, Micron(r), temp)
                    .0;
            }
        }
        (
            Volt(self.stress.dvtn_per_pa * total),
            Volt(self.stress.dvtp_per_pa * total),
        )
    }

    /// Combined fractional mobility shifts `(Δµn/µ, Δµp/µ)` at a point.
    #[must_use]
    pub fn stress_mu_shift_at(
        &self,
        tier: usize,
        x: Micron,
        y: Micron,
        temp: Celsius,
    ) -> (f64, f64) {
        let mut total = 0.0;
        for (iface, array) in &self.arrays {
            if !(*iface == tier || iface + 1 == tier) {
                continue;
            }
            for (vx, vy) in array.positions() {
                let r = ((x.0 - vx).powi(2) + (y.0 - vy).powi(2)).sqrt();
                total += self
                    .stress
                    .radial_stress(&array.geometry, Micron(r), temp)
                    .0;
            }
        }
        (
            self.stress.piezo_mu_n * total,
            self.stress.piezo_mu_p * total,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centered_array_is_centred() {
        let a = TsvArray::centered(
            TsvGeometry::standard_10um(),
            Micron(5000.0),
            Micron(5000.0),
            8,
            8,
            Micron(100.0),
        );
        let pos = a.positions();
        assert_eq!(pos.len(), 64);
        let cx = pos.iter().map(|p| p.0).sum::<f64>() / 64.0;
        let cy = pos.iter().map(|p| p.1).sum::<f64>() / 64.0;
        assert!((cx - 2500.0).abs() < 1e-9);
        assert!((cy - 2500.0).abs() < 1e-9);
    }

    #[test]
    fn array_validation_catches_overlap() {
        let mut a = TsvArray::centered(
            TsvGeometry::standard_10um(),
            Micron(5000.0),
            Micron(5000.0),
            4,
            4,
            Micron(100.0),
        );
        assert!(a.validate().is_ok());
        a.pitch = Micron(5.0); // < 2 × 5.5 µm outer radius
        assert!(a.validate().is_err());
    }

    #[test]
    fn topology_rejects_bad_interface_and_offdie_vias() {
        let cfg = StackConfig::four_tier_5mm();
        let array = TsvArray::centered(
            TsvGeometry::standard_10um(),
            cfg.die_width,
            cfg.die_height,
            2,
            2,
            Micron(100.0),
        );
        let topo = StackTopology::new(cfg.clone());
        assert!(topo.clone().with_array(3, array).is_err());
        let mut off = array;
        off.origin = (Micron(-50.0), Micron(0.0));
        assert!(StackTopology::new(cfg).with_array(0, off).is_err());
    }

    #[test]
    fn reference_topology_builds_thermal_stack() {
        let topo = StackTopology::reference_four_tier();
        assert_eq!(topo.arrays().len(), 3);
        let stack = topo.build_thermal().unwrap();
        assert_eq!(stack.tiers(), 4);
    }

    #[test]
    fn stress_shift_strongest_next_to_a_via() {
        let topo = StackTopology::reference_four_tier();
        let pos = topo.arrays()[0].1.positions()[0];
        let near = topo.stress_vt_shift_at(0, Micron(pos.0 + 8.0), Micron(pos.1), Celsius(25.0));
        let far = topo.stress_vt_shift_at(0, Micron(10.0), Micron(10.0), Celsius(25.0));
        assert!(near.0 .0 > far.0 .0, "near {} vs far {}", near.0, far.0);
        assert!(near.0 .0 > 0.0);
        assert!(near.1 .0 < 0.0, "PMOS shift has opposite sign");
    }

    #[test]
    fn tier_without_adjacent_array_sees_no_stress() {
        // Array only at interface 0 (tiers 0 and 1); tier 3 is unaffected.
        let cfg = StackConfig::four_tier_5mm();
        let array = TsvArray::centered(
            TsvGeometry::standard_10um(),
            cfg.die_width,
            cfg.die_height,
            4,
            4,
            Micron(200.0),
        );
        let topo = StackTopology::new(cfg).with_array(0, array).unwrap();
        let s = topo.stress_vt_shift_at(3, Micron(2500.0), Micron(2500.0), Celsius(25.0));
        assert_eq!(s.0, Volt::ZERO);
        let s1 = topo.stress_vt_shift_at(1, Micron(2500.0), Micron(2500.0), Celsius(25.0));
        assert!(s1.0 .0 > 0.0);
    }

    #[test]
    fn mu_shift_signs_oppose() {
        let topo = StackTopology::reference_four_tier();
        let pos = topo.arrays()[0].1.positions()[0];
        let (mn, mp) =
            topo.stress_mu_shift_at(0, Micron(pos.0 + 7.0), Micron(pos.1), Celsius(25.0));
        assert!(mn < 0.0);
        assert!(mp > 0.0);
    }

    #[test]
    fn tsvs_increase_vertical_conduction() {
        // Compare mean tier-0 temperature with and without TSVs.
        use ptsim_device::units::Watt;
        use ptsim_thermal::power::PowerMap;
        use ptsim_thermal::solve::{solve_steady_state, SolveOptions};

        let cfg = StackConfig::four_tier_5mm();
        let solve_mean = |topo: &StackTopology| {
            let mut s = topo.build_thermal().unwrap();
            s.set_power(0, PowerMap::uniform(16, 16, Watt(2.0)).unwrap())
                .unwrap();
            solve_steady_state(&mut s, &SolveOptions::default()).unwrap();
            s.mean_temperature(0).unwrap().0
        };
        let bare = solve_mean(&StackTopology::new(cfg));
        let with_tsv = solve_mean(&StackTopology::reference_four_tier());
        assert!(
            with_tsv < bare,
            "TSVs should cool tier 0: {with_tsv:.3} vs {bare:.3}"
        );
    }
}
