//! Technology description (65 nm-class) and global process corners.

use crate::units::Volt;
use std::fmt;

/// Global (die-to-die) process corner.
///
/// The first letter refers to the NMOS devices, the second to the PMOS
/// devices. "Fast" means lower threshold magnitude and higher mobility.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProcessCorner {
    /// Typical NMOS / typical PMOS (nominal).
    #[default]
    TT,
    /// Fast NMOS / fast PMOS.
    FF,
    /// Slow NMOS / slow PMOS.
    SS,
    /// Fast NMOS / slow PMOS.
    FS,
    /// Slow NMOS / fast PMOS.
    SF,
}

impl ProcessCorner {
    /// All five corners, in the conventional reporting order.
    pub const ALL: [ProcessCorner; 5] = [
        ProcessCorner::TT,
        ProcessCorner::FF,
        ProcessCorner::SS,
        ProcessCorner::FS,
        ProcessCorner::SF,
    ];

    /// Signed threshold-magnitude shift of the NMOS devices at this corner.
    ///
    /// Negative means a *lower* threshold (faster device).
    #[must_use]
    pub fn vtn_shift(self, tech: &Technology) -> Volt {
        match self {
            ProcessCorner::TT => Volt::ZERO,
            ProcessCorner::FF | ProcessCorner::FS => -tech.corner_vt_shift,
            ProcessCorner::SS | ProcessCorner::SF => tech.corner_vt_shift,
        }
    }

    /// Signed threshold-magnitude shift of the PMOS devices at this corner.
    #[must_use]
    pub fn vtp_shift(self, tech: &Technology) -> Volt {
        match self {
            ProcessCorner::TT => Volt::ZERO,
            ProcessCorner::FF | ProcessCorner::SF => -tech.corner_vt_shift,
            ProcessCorner::SS | ProcessCorner::FS => tech.corner_vt_shift,
        }
    }

    /// Relative NMOS mobility multiplier at this corner (1.0 at TT).
    #[must_use]
    pub fn mu_n_factor(self, tech: &Technology) -> f64 {
        match self {
            ProcessCorner::TT => 1.0,
            ProcessCorner::FF | ProcessCorner::FS => 1.0 + tech.corner_mu_shift,
            ProcessCorner::SS | ProcessCorner::SF => 1.0 - tech.corner_mu_shift,
        }
    }

    /// Relative PMOS mobility multiplier at this corner (1.0 at TT).
    #[must_use]
    pub fn mu_p_factor(self, tech: &Technology) -> f64 {
        match self {
            ProcessCorner::TT => 1.0,
            ProcessCorner::FF | ProcessCorner::SF => 1.0 + tech.corner_mu_shift,
            ProcessCorner::SS | ProcessCorner::FS => 1.0 - tech.corner_mu_shift,
        }
    }
}

impl fmt::Display for ProcessCorner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProcessCorner::TT => "TT",
            ProcessCorner::FF => "FF",
            ProcessCorner::SS => "SS",
            ProcessCorner::FS => "FS",
            ProcessCorner::SF => "SF",
        };
        f.write_str(s)
    }
}

/// Bulk-CMOS technology parameters.
///
/// The defaults model a generic 65 nm low-power process: they are *not* the
/// proprietary TSMC PDK values (unavailable), but published 65 nm-class
/// numbers that reproduce the first-order PVT behaviour the SOCC 2012 sensor
/// depends on (threshold tempco, mobility tempco, subthreshold slope).
///
/// ```
/// use ptsim_device::process::Technology;
/// let tech = Technology::n65();
/// assert!((tech.vtn0.0 - 0.35).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Technology {
    /// Human-readable node name, e.g. `"65nm-LP"`.
    pub name: String,
    /// Nominal supply voltage.
    pub vdd_nominal: Volt,
    /// Nominal NMOS threshold magnitude at `consts::T_REF`.
    pub vtn0: Volt,
    /// Nominal PMOS threshold magnitude at `consts::T_REF` (stored positive).
    pub vtp0: Volt,
    /// NMOS threshold temperature coefficient, V/K (typically negative).
    pub dvtn_dt: f64,
    /// PMOS threshold-magnitude temperature coefficient, V/K (negative).
    pub dvtp_dt: f64,
    /// NMOS process transconductance µn·Cox, A/V².
    pub kp_n: f64,
    /// PMOS process transconductance µp·Cox, A/V².
    pub kp_p: f64,
    /// Mobility temperature exponent: µ(T) = µ0 · (T/T0)^(-mu_temp_exp).
    pub mu_temp_exp: f64,
    /// Subthreshold slope factor `n` (S = n·kT/q·ln10).
    pub subthreshold_n: f64,
    /// Velocity-saturation critical voltage Ec·L for a minimum-length device.
    pub vcrit: Volt,
    /// Minimum drawn channel length, µm.
    pub l_min: f64,
    /// Gate capacitance per micron of width for minimum length, F/µm.
    pub cgate_per_um: f64,
    /// Drain junction capacitance per micron of width, F/µm.
    pub cjunction_per_um: f64,
    /// One-sigma die-to-die threshold spread (both polarities).
    pub sigma_vt_d2d: Volt,
    /// Pelgrom mismatch coefficient A_vt, V·µm (σΔVt = A_vt/√(WL)).
    pub avt_pelgrom: f64,
    /// Corner threshold-magnitude offset used by [`ProcessCorner`].
    pub corner_vt_shift: Volt,
    /// Corner relative mobility offset used by [`ProcessCorner`].
    pub corner_mu_shift: f64,
}

impl Technology {
    /// Generic 65 nm low-power technology (the node of the SOCC 2012 chip).
    #[must_use]
    pub fn n65() -> Self {
        Technology {
            name: "65nm-LP".to_owned(),
            vdd_nominal: Volt(1.0),
            vtn0: Volt(0.35),
            vtp0: Volt(0.33),
            dvtn_dt: -1.2e-3,
            dvtp_dt: -1.0e-3,
            kp_n: 3.0e-4,
            kp_p: 1.2e-4,
            mu_temp_exp: 1.5,
            subthreshold_n: 1.4,
            vcrit: Volt(0.40),
            l_min: 0.06,
            cgate_per_um: 1.0e-15,
            cjunction_per_um: 0.8e-15,
            sigma_vt_d2d: Volt(0.020),
            avt_pelgrom: 3.5e-3,
            corner_vt_shift: Volt(0.040),
            corner_mu_shift: 0.06,
        }
    }
}

impl Default for Technology {
    fn default() -> Self {
        Technology::n65()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tt_corner_has_no_shift() {
        let tech = Technology::n65();
        assert_eq!(ProcessCorner::TT.vtn_shift(&tech), Volt::ZERO);
        assert_eq!(ProcessCorner::TT.vtp_shift(&tech), Volt::ZERO);
        assert_eq!(ProcessCorner::TT.mu_n_factor(&tech), 1.0);
        assert_eq!(ProcessCorner::TT.mu_p_factor(&tech), 1.0);
    }

    #[test]
    fn ff_is_faster_both() {
        let tech = Technology::n65();
        assert!(ProcessCorner::FF.vtn_shift(&tech).0 < 0.0);
        assert!(ProcessCorner::FF.vtp_shift(&tech).0 < 0.0);
        assert!(ProcessCorner::FF.mu_n_factor(&tech) > 1.0);
    }

    #[test]
    fn skewed_corners_are_opposed() {
        let tech = Technology::n65();
        assert!(ProcessCorner::FS.vtn_shift(&tech).0 < 0.0);
        assert!(ProcessCorner::FS.vtp_shift(&tech).0 > 0.0);
        assert!(ProcessCorner::SF.vtn_shift(&tech).0 > 0.0);
        assert!(ProcessCorner::SF.vtp_shift(&tech).0 < 0.0);
    }

    #[test]
    fn all_lists_five_unique_corners() {
        let mut set = std::collections::HashSet::new();
        for c in ProcessCorner::ALL {
            set.insert(format!("{c}"));
        }
        assert_eq!(set.len(), 5);
    }

    #[test]
    fn display_names() {
        assert_eq!(ProcessCorner::FS.to_string(), "FS");
    }

    #[test]
    fn default_technology_is_lp_65() {
        let t = Technology::default();
        assert_eq!(t.name, "65nm-LP");
        assert!(t.vtn0.0 > t.vtp0.0);
        assert!(t.kp_n > t.kp_p, "NMOS mobility exceeds PMOS");
    }
}
