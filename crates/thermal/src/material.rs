//! Bulk material thermal properties.
//!
//! Values are standard room-temperature handbook numbers; the solver treats
//! them as temperature-independent, which is accurate to a few percent over
//! the −20…100 °C range the sensor is graded on.

/// Thermal properties of one material.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Material {
    /// Thermal conductivity, W/(m·K).
    pub conductivity: f64,
    /// Volumetric heat capacity, J/(m³·K).
    pub volumetric_heat_capacity: f64,
}

impl Material {
    /// Bulk crystalline silicon.
    pub const SILICON: Material = Material {
        conductivity: 150.0,
        volumetric_heat_capacity: 1.66e6,
    };

    /// Silicon dioxide (TSV liner, ILD).
    pub const SILICON_DIOXIDE: Material = Material {
        conductivity: 1.4,
        volumetric_heat_capacity: 1.65e6,
    };

    /// Electroplated copper (TSV fill, BEOL).
    pub const COPPER: Material = Material {
        conductivity: 400.0,
        volumetric_heat_capacity: 3.45e6,
    };

    /// Inter-tier bonding/underfill layer (Cu/In bond + adhesive average).
    pub const BOND_LAYER: Material = Material {
        conductivity: 2.0,
        volumetric_heat_capacity: 1.8e6,
    };

    /// Thermal interface material between the top tier and the heat sink.
    pub const TIM: Material = Material {
        conductivity: 5.0,
        volumetric_heat_capacity: 2.0e6,
    };

    /// Conductance of a slab of this material: area `a` (m²), thickness `t`
    /// (m), in W/K.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `t` is not positive.
    #[must_use]
    pub fn slab_conductance(&self, a: f64, t: f64) -> f64 {
        debug_assert!(t > 0.0, "slab thickness must be positive");
        self.conductivity * a / t
    }

    /// Heat capacity of a volume `v` (m³), in J/K.
    #[must_use]
    pub fn volume_capacity(&self, v: f64) -> f64 {
        self.volumetric_heat_capacity * v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silicon_conducts_two_orders_better_than_oxide() {
        const {
            assert!(Material::SILICON.conductivity / Material::SILICON_DIOXIDE.conductivity > 50.0);
        }
    }

    #[test]
    fn copper_is_best_conductor() {
        for m in [
            Material::SILICON,
            Material::SILICON_DIOXIDE,
            Material::BOND_LAYER,
            Material::TIM,
        ] {
            assert!(Material::COPPER.conductivity > m.conductivity);
        }
    }

    #[test]
    fn slab_conductance_scales() {
        let g1 = Material::SILICON.slab_conductance(1e-6, 100e-6);
        let g2 = Material::SILICON.slab_conductance(2e-6, 100e-6);
        let g3 = Material::SILICON.slab_conductance(1e-6, 200e-6);
        assert!((g2 / g1 - 2.0).abs() < 1e-12);
        assert!((g3 / g1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn volume_capacity_positive() {
        assert!(Material::SILICON.volume_capacity(1e-9) > 0.0);
    }
}
