//! MOSFET compact model.
//!
//! The model is an EKV-style single-expression formulation that is valid
//! continuously from weak inversion (subthreshold) through strong inversion,
//! with a first-order velocity-saturation correction. This captures exactly
//! the effects the SOCC 2012 sensor exploits:
//!
//! * **strong inversion** — current ∝ µ(T)·(Vgs−Vt(T))^≈1.3…2, where the
//!   decreasing mobility and decreasing threshold fight each other over
//!   temperature (weak net tempco → process-sensitive ring oscillators);
//! * **weak inversion** — current ∝ exp((Vgs−Vt)/(n·kT/q)), i.e. strongly and
//!   monotonically temperature-dependent (→ temperature-sensitive ring
//!   oscillators).
//!
//! All voltages are handled as *magnitudes*: a PMOS device with
//! `Vgs = −1.0 V` is queried with `vgs = Volt(1.0)`.

use crate::consts::{thermal_voltage, T_REF};
use crate::error::DeviceError;
use crate::process::Technology;
use crate::units::{Ampere, Celsius, Farad, Micron, Volt};

/// Channel polarity of a MOSFET.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosPolarity {
    /// N-channel device.
    Nmos,
    /// P-channel device.
    Pmos,
}

impl MosPolarity {
    /// Nominal threshold magnitude for this polarity in `tech`.
    #[must_use]
    pub fn vt0(self, tech: &Technology) -> Volt {
        match self {
            MosPolarity::Nmos => tech.vtn0,
            MosPolarity::Pmos => tech.vtp0,
        }
    }

    /// Threshold-magnitude temperature coefficient (V/K) for this polarity.
    #[must_use]
    pub fn dvt_dt(self, tech: &Technology) -> f64 {
        match self {
            MosPolarity::Nmos => tech.dvtn_dt,
            MosPolarity::Pmos => tech.dvtp_dt,
        }
    }

    /// Process transconductance µ·Cox (A/V²) for this polarity.
    #[must_use]
    pub fn kp(self, tech: &Technology) -> f64 {
        match self {
            MosPolarity::Nmos => tech.kp_n,
            MosPolarity::Pmos => tech.kp_p,
        }
    }
}

/// Per-device environmental/variation state at evaluation time.
///
/// `delta_vt` is the signed shift of the threshold *magnitude* (a positive
/// value always makes the device slower, for either polarity); it aggregates
/// die-to-die variation, local mismatch, and TSV-stress-induced shift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceEnv {
    /// Junction temperature.
    pub temp: Celsius,
    /// Signed threshold-magnitude shift.
    pub delta_vt: Volt,
    /// Relative mobility multiplier (1.0 = nominal).
    pub mu_factor: f64,
}

impl DeviceEnv {
    /// Nominal environment: 25 °C, no variation.
    #[must_use]
    pub fn nominal() -> Self {
        DeviceEnv {
            temp: T_REF,
            delta_vt: Volt::ZERO,
            mu_factor: 1.0,
        }
    }

    /// Nominal process at an arbitrary temperature.
    #[must_use]
    pub fn at(temp: Celsius) -> Self {
        DeviceEnv {
            temp,
            ..DeviceEnv::nominal()
        }
    }
}

impl Default for DeviceEnv {
    fn default() -> Self {
        DeviceEnv::nominal()
    }
}

/// A sized MOSFET instance.
///
/// ```
/// use ptsim_device::mosfet::{DeviceEnv, MosPolarity, Mosfet};
/// use ptsim_device::process::Technology;
/// use ptsim_device::units::{Micron, Volt};
///
/// let tech = Technology::n65();
/// let m = Mosfet::new(MosPolarity::Nmos, Micron(1.0), Micron(0.06))?;
/// let ion = m.on_current(&tech, Volt(1.0), &DeviceEnv::nominal());
/// assert!(ion.0 > 1e-4 && ion.0 < 2e-3, "65nm-class on-current, got {ion}");
/// # Ok::<(), ptsim_device::error::DeviceError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mosfet {
    polarity: MosPolarity,
    w: Micron,
    l: Micron,
}

/// Numerically-stable softplus: `ln(1 + e^x)`.
pub(crate) fn softplus(x: f64) -> f64 {
    softplus_with_slope(x).0
}

/// Softplus and its slope, the logistic `e^x / (1 + e^x)`, from one `exp`.
/// Past ±30 the slope is 1 or `e^x` to within `e^-30` relative.
#[inline]
pub(crate) fn softplus_with_slope(x: f64) -> (f64, f64) {
    if x > 30.0 {
        (x, 1.0)
    } else if x < -30.0 {
        let e = x.exp();
        (e, e)
    } else {
        let e = x.exp();
        (e.ln_1p(), e / (1.0 + e))
    }
}

impl Mosfet {
    /// Creates a device with the given drawn width and length.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidGeometry`] if either dimension is not a
    /// strictly positive finite number.
    pub fn new(polarity: MosPolarity, w: Micron, l: Micron) -> Result<Self, DeviceError> {
        if !(w.0.is_finite() && w.0 > 0.0 && l.0.is_finite() && l.0 > 0.0) {
            return Err(DeviceError::InvalidGeometry { w, l });
        }
        Ok(Mosfet { polarity, w, l })
    }

    /// Minimum-length device of width `w`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Mosfet::new`].
    pub fn min_length(
        polarity: MosPolarity,
        w: Micron,
        tech: &Technology,
    ) -> Result<Self, DeviceError> {
        Mosfet::new(polarity, w, Micron(tech.l_min))
    }

    /// Channel polarity.
    #[must_use]
    pub fn polarity(&self) -> MosPolarity {
        self.polarity
    }

    /// Drawn width.
    #[must_use]
    pub fn width(&self) -> Micron {
        self.w
    }

    /// Drawn length.
    #[must_use]
    pub fn length(&self) -> Micron {
        self.l
    }

    /// Aspect ratio W/L.
    #[must_use]
    pub fn aspect(&self) -> f64 {
        self.w.0 / self.l.0
    }

    /// Effective threshold magnitude under `env`.
    #[must_use]
    pub fn vt_eff(&self, tech: &Technology, env: &DeviceEnv) -> Volt {
        let dt = env.temp.0 - T_REF.0;
        Volt(self.polarity.vt0(tech).0 + self.polarity.dvt_dt(tech) * dt + env.delta_vt.0)
    }

    /// Drain current for gate-source and drain-source voltage *magnitudes*.
    ///
    /// Continuous across weak/strong inversion; includes mobility temperature
    /// dependence µ∝T^−1.5, velocity saturation, and the drain-saturation
    /// factor `(1 − e^(−Vds/vT))` for small `Vds`.
    #[must_use]
    pub fn drain_current(
        &self,
        tech: &Technology,
        vgs: Volt,
        vds: Volt,
        env: &DeviceEnv,
    ) -> Ampere {
        let tk = env.temp.to_kelvin();
        let vt_th = thermal_voltage(tk);
        let n = tech.subthreshold_n;
        let vt_eff = self.vt_eff(tech, env);

        // Normalized inversion charge.
        let x = (vgs.0 - vt_eff.0) / (2.0 * n * vt_th.0);
        let g = softplus(x);

        // Mobility with temperature dependence and variation.
        let mu_scale = env.mu_factor * (tk.0 / T_REF.to_kelvin().0).powf(-tech.mu_temp_exp);
        let kp = self.polarity.kp(tech) * mu_scale;

        let i_long = 2.0 * n * kp * self.aspect() * vt_th.0 * vt_th.0 * g * g;

        // Velocity saturation: critical voltage scales with channel length.
        let vcrit = tech.vcrit.0 * (self.l.0 / tech.l_min);
        let i_sat = i_long / (1.0 + (2.0 * vt_th.0 * g) / vcrit);

        // Drain saturation factor (≈1 for Vds ≫ vT).
        let drain = 1.0 - (-vds.0 / vt_th.0).exp();

        Ampere(i_sat * drain.max(0.0))
    }

    /// On-current: `|Id|` at `Vgs = Vds = vdd`.
    #[must_use]
    pub fn on_current(&self, tech: &Technology, vdd: Volt, env: &DeviceEnv) -> Ampere {
        self.drain_current(tech, vdd, vdd, env)
    }

    /// Off-state (subthreshold leakage) current: `|Id|` at `Vgs = 0`,
    /// `Vds = vdd`.
    #[must_use]
    pub fn off_current(&self, tech: &Technology, vdd: Volt, env: &DeviceEnv) -> Ampere {
        self.drain_current(tech, Volt::ZERO, vdd, env)
    }

    /// Total gate capacitance (oxide, scaled by drawn area).
    #[must_use]
    pub fn gate_cap(&self, tech: &Technology) -> Farad {
        Farad(tech.cgate_per_um * self.w.0 * (self.l.0 / tech.l_min))
    }

    /// Drain junction capacitance (scales with width).
    #[must_use]
    pub fn junction_cap(&self, tech: &Technology) -> Farad {
        Farad(tech.cjunction_per_um * self.w.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nmos() -> Mosfet {
        Mosfet::new(MosPolarity::Nmos, Micron(1.0), Micron(0.06)).unwrap()
    }

    fn pmos() -> Mosfet {
        Mosfet::new(MosPolarity::Pmos, Micron(2.0), Micron(0.06)).unwrap()
    }

    #[test]
    fn rejects_bad_geometry() {
        assert!(Mosfet::new(MosPolarity::Nmos, Micron(0.0), Micron(0.06)).is_err());
        assert!(Mosfet::new(MosPolarity::Nmos, Micron(1.0), Micron(-1.0)).is_err());
        assert!(Mosfet::new(MosPolarity::Nmos, Micron(f64::NAN), Micron(0.06)).is_err());
    }

    #[test]
    fn on_current_in_65nm_ballpark() {
        let tech = Technology::n65();
        let ion = nmos().on_current(&tech, Volt(1.0), &DeviceEnv::nominal());
        // 65nm-class NMOS: a few hundred µA per µm at VDD=1.0.
        assert!(
            ion.0 > 1.0e-4 && ion.0 < 1.5e-3,
            "unexpected on-current {ion}"
        );
    }

    #[test]
    fn pmos_weaker_than_nmos_per_width() {
        let tech = Technology::n65();
        let env = DeviceEnv::nominal();
        let in_per_um = nmos().on_current(&tech, Volt(1.0), &env).0 / nmos().width().0;
        let ip_per_um = pmos().on_current(&tech, Volt(1.0), &env).0 / pmos().width().0;
        assert!(in_per_um > 1.5 * ip_per_um);
    }

    #[test]
    fn current_monotonic_in_vgs() {
        let tech = Technology::n65();
        let env = DeviceEnv::nominal();
        let m = nmos();
        let mut prev = 0.0;
        for step in 0..=20 {
            let vgs = Volt(step as f64 * 0.05);
            let i = m.drain_current(&tech, vgs, Volt(1.0), &env).0;
            assert!(i >= prev, "current must grow with vgs");
            prev = i;
        }
    }

    #[test]
    fn subthreshold_slope_close_to_theory() {
        // One decade of current per n·vT·ln(10) of gate drive in deep
        // subthreshold.
        let tech = Technology::n65();
        let env = DeviceEnv::nominal();
        let m = nmos();
        let i1 = m.drain_current(&tech, Volt(0.10), Volt(1.0), &env).0;
        let i2 = m.drain_current(&tech, Volt(0.16), Volt(1.0), &env).0;
        let decades = (i2 / i1).log10();
        let s_mv_per_dec = 60.0 / decades; // 60 mV step / decades observed
        let expected = tech.subthreshold_n * 25.85 * std::f64::consts::LN_10;
        assert!(
            (s_mv_per_dec - expected).abs() / expected < 0.05,
            "slope {s_mv_per_dec} mV/dec vs expected {expected}"
        );
    }

    #[test]
    fn strong_inversion_current_drops_with_temperature() {
        // Mobility degradation wins over threshold reduction at high Vov.
        let tech = Technology::n65();
        let m = nmos();
        let cold = m
            .on_current(&tech, Volt(1.0), &DeviceEnv::at(Celsius(0.0)))
            .0;
        let hot = m
            .on_current(&tech, Volt(1.0), &DeviceEnv::at(Celsius(100.0)))
            .0;
        assert!(cold > hot, "cold {cold} vs hot {hot}");
    }

    #[test]
    fn subthreshold_current_rises_with_temperature() {
        let tech = Technology::n65();
        let m = nmos();
        let cold = m
            .drain_current(&tech, Volt(0.2), Volt(0.3), &DeviceEnv::at(Celsius(0.0)))
            .0;
        let hot = m
            .drain_current(&tech, Volt(0.2), Volt(0.3), &DeviceEnv::at(Celsius(100.0)))
            .0;
        assert!(hot > 2.0 * cold, "cold {cold} vs hot {hot}");
    }

    #[test]
    fn positive_delta_vt_slows_device() {
        let tech = Technology::n65();
        let m = nmos();
        let slow = DeviceEnv {
            delta_vt: Volt(0.05),
            ..DeviceEnv::nominal()
        };
        let i_nom = m.on_current(&tech, Volt(1.0), &DeviceEnv::nominal()).0;
        let i_slow = m.on_current(&tech, Volt(1.0), &slow).0;
        assert!(i_slow < i_nom);
    }

    #[test]
    fn vt_decreases_with_temperature() {
        let tech = Technology::n65();
        let m = nmos();
        let v25 = m.vt_eff(&tech, &DeviceEnv::at(Celsius(25.0)));
        let v100 = m.vt_eff(&tech, &DeviceEnv::at(Celsius(100.0)));
        let slope = (v100.0 - v25.0) / 75.0;
        assert!((slope - tech.dvtn_dt).abs() < 1e-12);
    }

    #[test]
    fn off_current_small_but_nonzero() {
        let tech = Technology::n65();
        let ioff = nmos().off_current(&tech, Volt(1.0), &DeviceEnv::nominal());
        assert!(ioff.0 > 0.0);
        let ion = nmos().on_current(&tech, Volt(1.0), &DeviceEnv::nominal());
        assert!(ion.0 / ioff.0 > 1e3, "Ion/Ioff ratio {}", ion.0 / ioff.0);
    }

    #[test]
    fn drain_factor_suppresses_small_vds() {
        let tech = Technology::n65();
        let env = DeviceEnv::nominal();
        let m = nmos();
        let sat = m.drain_current(&tech, Volt(1.0), Volt(1.0), &env).0;
        let lin = m.drain_current(&tech, Volt(1.0), Volt(0.01), &env).0;
        assert!(lin < 0.5 * sat);
    }

    #[test]
    fn caps_scale_with_width() {
        let tech = Technology::n65();
        let small = Mosfet::new(MosPolarity::Nmos, Micron(1.0), Micron(0.06)).unwrap();
        let big = Mosfet::new(MosPolarity::Nmos, Micron(2.0), Micron(0.06)).unwrap();
        assert!((big.gate_cap(&tech).0 / small.gate_cap(&tech).0 - 2.0).abs() < 1e-12);
        assert!((big.junction_cap(&tech).0 / small.junction_cap(&tech).0 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn min_length_constructor_uses_tech_lmin() {
        let tech = Technology::n65();
        let m = Mosfet::min_length(MosPolarity::Pmos, Micron(1.5), &tech).unwrap();
        assert_eq!(m.length().0, tech.l_min);
        assert_eq!(m.polarity(), MosPolarity::Pmos);
    }

    #[test]
    fn softplus_stable_at_extremes() {
        assert_eq!(softplus(100.0), 100.0);
        assert!(softplus(-100.0) > 0.0);
        assert!(softplus(-100.0) < 1e-20);
        assert!((softplus(0.0) - std::f64::consts::LN_2).abs() < 1e-12);
    }
}
