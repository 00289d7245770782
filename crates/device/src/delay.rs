//! Exact-memoized inverter evaluation — the conversion hot path.
//!
//! A [`DelayCache`] hoists every temperature-independent quantity of one
//! [`Inverter`] out of [`Inverter::stage_delay`] / [`Inverter::leakage_current`]
//! (threshold/transconductance lookups, the `W/L` division, the
//! velocity-saturation critical voltage, the `2·n` subthreshold prefix), and
//! a [`ThermalPoint`] hoists every quantity that depends only on the
//! evaluation temperature (thermal voltage, the `T^-1.5` mobility power law —
//! the single most expensive transcendental of the device model, shared by
//! both devices and every ring at that temperature).
//!
//! **Bit-identity contract.** The cached path is *exact memoization*, not an
//! approximation: every floating-point operation that remains per-sample is
//! written in the same order and association as the uncached
//! [`Mosfet::drain_current`](crate::mosfet::Mosfet::drain_current) chain, and
//! every hoisted value is produced by the identical expression the uncached
//! path evaluates (e.g. the `2.0 * n` prefix of the long-channel current is a
//! left-associated prefix of the original product, so pre-multiplying it is
//! legal; folding `kp·W/L` would not be). Property tests in this module and
//! in `ptsim-core` assert agreement to the last bit across random
//! temperature/variation/supply points.
//!
//! **Bias factor and recombination.** A device's on-current is composed
//! of two parts, and [`DelayCache::nmos_current`]/[`DelayCache::pmos_current`]
//! are exactly their composition:
//!
//! * the bias factor `g = softplus((vgs − vt_eff) / (2n·vt_th))` — the
//!   current's only transcendental part (one `exp`, one `ln_1p`), reading
//!   only the polarity constants, `2n`, the thermal point, `vgs` and ΔVt;
//! * the per-ring recombination
//!   `(2n·kp·W/L·vt_th²·g²) / (1 + 2·vt_th·g/vcrit) · drain` — pure
//!   arithmetic over the device geometry.
//!
//! **Partials.** Each part also returns its partial derivatives in the
//! threshold shift ΔVt and the temperature T, computed in the same pass
//! from values the pass already holds: the logistic slope of the
//! softplus reuses its `exp` ([`BiasFactor`]), the drain factor's slope
//! reuses its own `exp` ([`DrainFactor`]), and the recombination returns
//! `∂ln I/∂ΔVt` and `∂ln I/∂T` ([`OnCurrent`]; `∂ln I/∂µ = 1/µ` exactly).
//! The temperature terms use `∂vt_th/∂T = vt_th/T_K`,
//! `∂mu_pow/∂T = neg_mu_exp·mu_pow/T_K` and `∂dt/∂T = 1`. The values are
//! bit-identical to the value-only path (the same operations in the same
//! order); the partials cost arithmetic only, no libm call. The decoupling
//! solvers build their analytic Jacobians from them.
//!
//! The lane kernels ([`DelayCache::bias_partials_lanes`],
//! [`DelayCache::current_partials_lanes`]) expose the two parts
//! separately, so a caller evaluating several rings at one supply computes
//! each factor once: [`DelayCache::shares_bias_factor`] says when two
//! inverters yield the identical factor. Per device and lane that is 2
//! libm calls for the factor and none for each recombination.

use crate::consts::{thermal_voltage, T_REF};
use crate::inverter::{CmosEnv, Inverter};
use crate::mosfet::{softplus_with_slope, MosPolarity};
use crate::process::Technology;
use crate::units::{Ampere, Celsius, Farad, Seconds, Volt, Watt};

/// Lane width of the struct-of-arrays batch kernel: every lane-parallel
/// column is a fixed `[f64; LANES]` chunk, with a masked scalar tail for
/// batches that do not fill the last chunk. Eight lanes keep each column in
/// a single cache line and give the out-of-order core eight independent
/// dependency chains to overlap (the transcendental calls of the device
/// model are latency-bound when evaluated die-by-die).
pub const LANES: usize = 8;

/// Temperature-independent constants of one MOSFET.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DeviceConsts {
    /// Nominal threshold magnitude.
    vt0: f64,
    /// Threshold temperature coefficient.
    dvt_dt: f64,
    /// Process transconductance at the reference temperature.
    kp0: f64,
    /// Drawn aspect ratio `W/L`.
    aspect: f64,
    /// Velocity-saturation critical voltage scaled to this channel length.
    vcrit: f64,
}

impl DeviceConsts {
    fn new(m: &crate::mosfet::Mosfet, tech: &Technology) -> Self {
        DeviceConsts {
            vt0: m.polarity().vt0(tech).0,
            dvt_dt: m.polarity().dvt_dt(tech),
            kp0: m.polarity().kp(tech),
            aspect: m.aspect(),
            vcrit: tech.vcrit.0 * (m.length().0 / tech.l_min),
        }
    }
}

/// Per-temperature shared quantities (pure functions of the junction
/// temperature): computed once per evaluation point, reused by both devices
/// of an inverter and by every oscillator evaluated at that temperature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalPoint {
    /// Thermal voltage `kT/q`.
    vt_th: f64,
    /// Temperature offset from the reference point, `T − 25 °C`.
    dt: f64,
    /// Mobility power law `(T/T_ref)^-mu_temp_exp`.
    mu_pow: f64,
    /// Junction temperature in kelvin, the denominator of every
    /// temperature partial.
    tk: f64,
}

/// A device's bias factor `g` with its partials, from
/// [`DelayCache::bias_partials`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BiasFactor {
    /// The factor `g = softplus(x)`.
    pub g: f64,
    /// `∂g/∂ΔVt`, per volt.
    pub d_dvt: f64,
    /// `∂g/∂T`, per kelvin.
    pub d_t: f64,
}

/// The drain-saturation factor with its logarithmic temperature slope,
/// from [`DelayCache::drain_partials`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DrainFactor {
    /// The factor `max(0, 1 − e^(−vdd/vt_th))`.
    pub value: f64,
    /// `∂ln(value)/∂T`, per kelvin (0 where the factor is clamped to 0).
    pub dln_dt: f64,
}

/// A device on-current with its logarithmic partials, from
/// [`DelayCache::current_partials`]. The mobility partial is not stored:
/// `∂ln I/∂µ = 1/µ` exactly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnCurrent {
    /// The drain current, A.
    pub i: f64,
    /// `∂ln I/∂ΔVt`, per volt.
    pub dln_dvt: f64,
    /// `∂ln I/∂T`, per kelvin.
    pub dln_dt: f64,
}

/// All temperature-independent quantities of one inverter, precomputed once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayCache {
    nmos: DeviceConsts,
    pmos: DeviceConsts,
    /// Subthreshold prefix `2·n` (left-associated prefix of the current chain).
    two_n: f64,
    /// Negated mobility temperature exponent (`powf` argument).
    neg_mu_exp: f64,
    /// Reference temperature in kelvin.
    t_ref_k: f64,
    input_cap: Farad,
    output_cap: Farad,
}

impl DelayCache {
    /// Hoists the temperature-independent constants of `inv` under `tech`.
    #[must_use]
    pub fn new(inv: &Inverter, tech: &Technology) -> Self {
        DelayCache {
            nmos: DeviceConsts::new(inv.nmos(), tech),
            pmos: DeviceConsts::new(inv.pmos(), tech),
            two_n: 2.0 * tech.subthreshold_n,
            neg_mu_exp: -tech.mu_temp_exp,
            t_ref_k: T_REF.to_kelvin().0,
            input_cap: inv.input_cap(tech),
            output_cap: inv.output_cap(tech),
        }
    }

    /// Precomputed [`Inverter::input_cap`].
    #[must_use]
    pub fn input_cap(&self) -> Farad {
        self.input_cap
    }

    /// Precomputed [`Inverter::output_cap`].
    #[must_use]
    pub fn output_cap(&self) -> Farad {
        self.output_cap
    }

    /// Evaluates the shared per-temperature quantities (one `powf`, reused
    /// by every subsequent evaluation at `temp`).
    #[must_use]
    pub fn thermal(&self, temp: Celsius) -> ThermalPoint {
        let tk = temp.to_kelvin();
        ThermalPoint {
            vt_th: thermal_voltage(tk).0,
            dt: temp.0 - T_REF.0,
            mu_pow: (tk.0 / self.t_ref_k).powf(self.neg_mu_exp),
            tk: tk.0,
        }
    }

    /// The constants of the device of polarity `pol`.
    #[inline]
    fn device(&self, pol: MosPolarity) -> &DeviceConsts {
        match pol {
            MosPolarity::Nmos => &self.nmos,
            MosPolarity::Pmos => &self.pmos,
        }
    }

    /// Bias factor `g = softplus((vgs − vt_eff) / (2n·vt_th))` of one
    /// device with its partials: the only transcendental part of its
    /// on-current (one `exp`, one `ln_1p`; the logistic slope reuses the
    /// `exp`). A pure function of the device's polarity constants (`vt0`,
    /// `dvt_dt`), `2n`, the thermal point, `vgs` and `delta_vt`.
    #[inline]
    fn bias(
        c: &DeviceConsts,
        two_n: f64,
        th: &ThermalPoint,
        vgs: f64,
        delta_vt: f64,
    ) -> BiasFactor {
        let vt_eff = c.vt0 + c.dvt_dt * th.dt + delta_vt;
        let scale = two_n * th.vt_th;
        let x = (vgs - vt_eff) / scale;
        let (g, slope) = softplus_with_slope(x);
        // `scale` is proportional to T_K, so ∂x/∂T = −dvt_dt/scale − x/T_K.
        let dx_dvt = -1.0 / scale;
        BiasFactor {
            g,
            d_dvt: slope * dx_dvt,
            d_t: slope * (dx_dvt * c.dvt_dt - x / th.tk),
        }
    }

    /// Recombines a bias factor from [`DelayCache::bias`] with the
    /// per-device geometry into the drain current and its logarithmic
    /// partials (shared drain-saturation factor already clamped). Pure
    /// arithmetic, no libm call.
    #[inline]
    fn from_bias(
        c: &DeviceConsts,
        two_n: f64,
        neg_mu_exp: f64,
        th: &ThermalPoint,
        b: &BiasFactor,
        mu_factor: f64,
        drain: &DrainFactor,
    ) -> OnCurrent {
        let g = b.g;
        let mu_scale = mu_factor * th.mu_pow;
        let kp = c.kp0 * mu_scale;
        let i_long = two_n * kp * c.aspect * th.vt_th * th.vt_th * g * g;
        let cg = (2.0 * th.vt_th * g) / c.vcrit;
        let i_sat = i_long / (1.0 + cg);
        // ln I = ln mu_pow + 2·ln vt_th + 2·ln g − ln(1 + c·g) + ln drain
        // + const, with c = 2·vt_th/vcrit ∝ T_K.
        let sat = cg / (1.0 + cg);
        let dln_dg = (2.0 - sat) / g;
        OnCurrent {
            i: i_sat * drain.value,
            dln_dvt: dln_dg * b.d_dvt,
            dln_dt: dln_dg * b.d_t + (neg_mu_exp + 2.0 - sat) / th.tk + drain.dln_dt,
        }
    }

    /// Drain current of one device: the bias factor, then its
    /// recombination. Same operation order as
    /// [`Mosfet::drain_current`](crate::mosfet::Mosfet::drain_current); the
    /// partials the value does not need are dead code once inlined.
    fn current(
        &self,
        c: &DeviceConsts,
        th: &ThermalPoint,
        vgs: f64,
        delta_vt: f64,
        mu_factor: f64,
        drain: f64,
    ) -> f64 {
        let b = Self::bias(c, self.two_n, th, vgs, delta_vt);
        let drain = DrainFactor {
            value: drain,
            dln_dt: 0.0,
        };
        Self::from_bias(c, self.two_n, self.neg_mu_exp, th, &b, mu_factor, &drain).i
    }

    /// Whether `self` and `other` produce the same polarity-`pol` bias
    /// factor from the same `(th, vgs, delta_vt)` operands: true exactly
    /// when the operands the factor reads (`vt0`, `dvt_dt`, `2n`) are
    /// bit-equal. Rings whose devices share a factor at one supply may
    /// evaluate it once and recombine it per ring, bit for bit.
    #[must_use]
    pub fn shares_bias_factor(&self, other: &DelayCache, pol: MosPolarity) -> bool {
        let (a, b) = (self.device(pol), other.device(pol));
        a.vt0.to_bits() == b.vt0.to_bits()
            && a.dvt_dt.to_bits() == b.dvt_dt.to_bits()
            && self.two_n.to_bits() == other.two_n.to_bits()
    }

    /// Drain-saturation factor at `vdd`, shared by both devices and by the
    /// on/off operating points (`vds = vdd` in all four). A pure function
    /// of `(th, vdd)`: solver loops that evaluate several model rows at one
    /// temperature and supply may compute it once and share it (the same
    /// two operands produce the same factor).
    #[inline]
    #[must_use]
    pub fn drain_factor(th: &ThermalPoint, vdd: Volt) -> f64 {
        Self::drain_partials(th, vdd).value
    }

    /// [`DelayCache::drain_factor`] with its logarithmic temperature slope,
    /// which reuses the factor's own `exp`.
    #[inline]
    #[must_use]
    pub fn drain_partials(th: &ThermalPoint, vdd: Volt) -> DrainFactor {
        let arg = -vdd.0 / th.vt_th;
        let e = arg.exp();
        let drain = 1.0 - e;
        if drain > 0.0 {
            // ∂arg/∂T = −arg/T_K, so ∂drain/∂T = e·arg/T_K.
            DrainFactor {
                value: drain,
                dln_dt: e * arg / (th.tk * drain),
            }
        } else {
            DrainFactor::default()
        }
    }

    /// Bit-identical to [`Inverter::stage_delay`] at `env.temp == th`'s
    /// temperature.
    #[must_use]
    pub fn stage_delay(&self, th: &ThermalPoint, vdd: Volt, load: Farad, env: &CmosEnv) -> Seconds {
        let drain = Self::drain_factor(th, vdd);
        let ion_n = self.nmos_current(th, vdd, env.d_vtn.0, env.mu_n, drain);
        let ion_p = self.pmos_current(th, vdd, env.d_vtp.0, env.mu_p, drain);
        self.stage_delay_from_currents(ion_n, ion_p, vdd, load)
    }

    /// NMOS on-current at gate/drain voltage `vdd` — a pure function of
    /// `(th, vdd, d_vtn, mu_n, drain)`, exactly the NMOS half of
    /// [`DelayCache::stage_delay`].
    #[inline]
    #[must_use]
    pub fn nmos_current(
        &self,
        th: &ThermalPoint,
        vdd: Volt,
        d_vtn: f64,
        mu_n: f64,
        drain: f64,
    ) -> f64 {
        self.current(&self.nmos, th, vdd.0, d_vtn, mu_n, drain)
    }

    /// PMOS on-current — the PMOS counterpart of
    /// [`DelayCache::nmos_current`].
    #[inline]
    #[must_use]
    pub fn pmos_current(
        &self,
        th: &ThermalPoint,
        vdd: Volt,
        d_vtp: f64,
        mu_p: f64,
        drain: f64,
    ) -> f64 {
        self.current(&self.pmos, th, vdd.0, d_vtp, mu_p, drain)
    }

    /// Recombines per-device on-currents (from [`DelayCache::nmos_current`]
    /// / [`DelayCache::pmos_current`]) into the stage delay — the exact
    /// arithmetic tail of [`DelayCache::stage_delay`].
    #[inline]
    #[must_use]
    pub fn stage_delay_from_currents(
        &self,
        ion_n: f64,
        ion_p: f64,
        vdd: Volt,
        load: Farad,
    ) -> Seconds {
        let hl = load.0 * vdd.0 / (2.0 * ion_n);
        let lh = load.0 * vdd.0 / (2.0 * ion_p);
        Seconds(0.5 * (hl + lh))
    }

    /// Bias factor of the polarity-`pol` device at gate voltage `vgs`, with
    /// its partials: the transcendental half of
    /// [`DelayCache::nmos_current`]/[`DelayCache::pmos_current`]. Every
    /// ring for which [`DelayCache::shares_bias_factor`] holds may reuse the
    /// result at the same `vgs`.
    #[inline]
    #[must_use]
    pub fn bias_partials(
        &self,
        pol: MosPolarity,
        th: &ThermalPoint,
        vgs: Volt,
        delta_vt: f64,
    ) -> BiasFactor {
        Self::bias(self.device(pol), self.two_n, th, vgs.0, delta_vt)
    }

    /// Recombines a bias factor (from [`DelayCache::bias_partials`]) into
    /// this inverter's polarity-`pol` on-current with its partials. The
    /// current is bit-identical to
    /// [`DelayCache::nmos_current`]/[`DelayCache::pmos_current`] at the same
    /// operands.
    #[inline]
    #[must_use]
    pub fn current_partials(
        &self,
        pol: MosPolarity,
        th: &ThermalPoint,
        bias: &BiasFactor,
        mu_factor: f64,
        drain: &DrainFactor,
    ) -> OnCurrent {
        let c = self.device(pol);
        Self::from_bias(c, self.two_n, self.neg_mu_exp, th, bias, mu_factor, drain)
    }

    /// Lane-parallel [`DelayCache::thermal`]: one [`ThermalPoint`] per
    /// active lane, each bit-identical to the scalar evaluation at that
    /// lane's temperature. Inactive lanes keep a zero filler point — their
    /// downstream consumers are masked off the same way, so the filler is
    /// never read.
    #[must_use]
    pub fn thermal_lanes(
        &self,
        temps: &[f64; LANES],
        active: &[bool; LANES],
    ) -> [ThermalPoint; LANES] {
        let mut out = [ThermalPoint {
            vt_th: 0.0,
            dt: 0.0,
            mu_pow: 0.0,
            tk: 0.0,
        }; LANES];
        for l in 0..LANES {
            if active[l] {
                out[l] = self.thermal(Celsius(temps[l]));
            }
        }
        out
    }

    /// Lane-parallel [`DelayCache::drain_partials`] (per-lane thermal
    /// points, one shared supply). Inactive lanes are skipped; their `out`
    /// entries keep whatever the caller left there.
    #[inline]
    pub fn drain_partials_lanes(
        th: &[ThermalPoint; LANES],
        vdd: Volt,
        active: &[bool; LANES],
        out: &mut [DrainFactor; LANES],
    ) {
        for l in 0..LANES {
            if active[l] {
                out[l] = Self::drain_partials(&th[l], vdd);
            }
        }
    }

    /// Lane-parallel [`DelayCache::bias_partials`], one per active lane.
    /// Inactive lanes are skipped entirely (their libm calls are the whole
    /// point of masking) and keep their previous `out` values.
    #[inline]
    pub fn bias_partials_lanes(
        &self,
        pol: MosPolarity,
        th: &[ThermalPoint; LANES],
        vgs: Volt,
        delta_vt: &[f64; LANES],
        active: &[bool; LANES],
        out: &mut [BiasFactor; LANES],
    ) {
        let c = self.device(pol);
        for l in 0..LANES {
            if active[l] {
                out[l] = Self::bias(c, self.two_n, &th[l], vgs.0, delta_vt[l]);
            }
        }
    }

    /// Lane-parallel [`DelayCache::current_partials`]. Each active lane is
    /// bit-identical to the scalar call with that lane's operands;
    /// inactive lanes keep their previous `out` values.
    // Column-wise mirror of the scalar signature: every parameter is one
    // SoA column, so bundling them would just invent a struct for one call.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn current_partials_lanes(
        &self,
        pol: MosPolarity,
        th: &[ThermalPoint; LANES],
        bias: &[BiasFactor; LANES],
        mu_factor: &[f64; LANES],
        drain: &[DrainFactor; LANES],
        active: &[bool; LANES],
        out: &mut [OnCurrent; LANES],
    ) {
        let c = self.device(pol);
        for l in 0..LANES {
            if active[l] {
                out[l] = Self::from_bias(
                    c,
                    self.two_n,
                    self.neg_mu_exp,
                    &th[l],
                    &bias[l],
                    mu_factor[l],
                    &drain[l],
                );
            }
        }
    }

    /// Bit-identical to [`Inverter::leakage_current`].
    #[must_use]
    pub fn leakage_current(&self, th: &ThermalPoint, vdd: Volt, env: &CmosEnv) -> Ampere {
        let drain = Self::drain_factor(th, vdd);
        let in_off = self.current(&self.nmos, th, 0.0, env.d_vtn.0, env.mu_n, drain);
        let ip_off = self.current(&self.pmos, th, 0.0, env.d_vtp.0, env.mu_p, drain);
        Ampere(0.5 * (in_off + ip_off))
    }

    /// Bit-identical to [`Inverter::leakage_power`].
    #[must_use]
    pub fn leakage_power(&self, th: &ThermalPoint, vdd: Volt, env: &CmosEnv) -> Watt {
        vdd * self.leakage_current(th, vdd, env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Micron;
    use ptsim_rng::forall;

    fn fixture(wn: f64, beta: f64) -> (Technology, Inverter, DelayCache) {
        let tech = Technology::n65();
        let inv = Inverter::balanced(Micron(wn), beta, &tech).unwrap();
        let cache = DelayCache::new(&inv, &tech);
        (tech, inv, cache)
    }

    fn env(t: f64, dn: f64, dp: f64, mu_n: f64, mu_p: f64) -> CmosEnv {
        CmosEnv {
            temp: Celsius(t),
            d_vtn: Volt(dn),
            d_vtp: Volt(dp),
            mu_n,
            mu_p,
        }
    }

    forall! {
        #[test]
        fn cached_stage_delay_is_bit_identical(
            t in -55.0f64..150.0,
            dn in -0.06f64..0.06,
            dp in -0.06f64..0.06,
            mu in 0.8f64..1.25,
            vdd in 0.35f64..1.1,
        ) {
            let (tech, inv, cache) = fixture(0.2, 2.0);
            let e = env(t, dn, dp, mu, 2.05 - mu);
            let load = Farad(2.5e-15);
            let th = cache.thermal(e.temp);
            let cached = cache.stage_delay(&th, Volt(vdd), load, &e);
            let reference = inv.stage_delay(&tech, Volt(vdd), load, &e);
            assert_eq!(cached.0.to_bits(), reference.0.to_bits());
        }

        #[test]
        fn cached_leakage_is_bit_identical(
            t in -55.0f64..150.0,
            dn in -0.06f64..0.06,
            dp in -0.06f64..0.06,
            vdd in 0.35f64..1.1,
        ) {
            let (tech, inv, cache) = fixture(1.2, 1.7);
            let e = env(t, dn, dp, 1.1, 0.93);
            let th = cache.thermal(e.temp);
            let i_cached = cache.leakage_current(&th, Volt(vdd), &e);
            let i_ref = inv.leakage_current(&tech, Volt(vdd), &e);
            assert_eq!(i_cached.0.to_bits(), i_ref.0.to_bits());
            let p_cached = cache.leakage_power(&th, Volt(vdd), &e);
            let p_ref = inv.leakage_power(&tech, Volt(vdd), &e);
            assert_eq!(p_cached.0.to_bits(), p_ref.0.to_bits());
        }
    }

    #[test]
    fn caps_match_the_inverter() {
        let (tech, inv, cache) = fixture(0.15, 2.4);
        assert_eq!(cache.input_cap(), inv.input_cap(&tech));
        assert_eq!(cache.output_cap(), inv.output_cap(&tech));
    }

    forall! {
        #[test]
        fn bias_factor_then_recombination_is_the_current(
            t in -55.0f64..150.0,
            vgs in 0.0f64..1.4,
            dvt in -0.08f64..0.08,
            mu in 0.7f64..1.35,
            drain in 0.0f64..1.0,
            vdd in 0.35f64..1.1,
        ) {
            let (_, _, cache) = fixture(0.35, 1.8);
            let th = cache.thermal(Celsius(t));
            // The whole [0, 1) range of the factor, and the near-1 factor a
            // real supply gives with its temperature slope.
            let drains = [
                DrainFactor { value: drain, dln_dt: 0.0 },
                DelayCache::drain_partials(&th, Volt(vdd)),
            ];
            for d in drains {
                for pol in [MosPolarity::Nmos, MosPolarity::Pmos] {
                    let b = cache.bias_partials(pol, &th, Volt(vgs), dvt);
                    let split = cache.current_partials(pol, &th, &b, mu, &d).i;
                    let whole = match pol {
                        MosPolarity::Nmos => cache.nmos_current(&th, Volt(vgs), dvt, mu, d.value),
                        MosPolarity::Pmos => cache.pmos_current(&th, Volt(vgs), dvt, mu, d.value),
                    };
                    assert_eq!(split.to_bits(), whole.to_bits(), "{pol:?} drain {}", d.value);
                }
            }
        }
    }

    /// `|analytic − fd|` within 1e-6 relative, plus a floor a thousand
    /// times the central difference's rounding error on a value of
    /// magnitude `value` at step `h`.
    fn assert_close(what: &str, analytic: f64, fd: f64, value: f64, h: f64) {
        let floor = 1e3 * f64::EPSILON * value.abs() / h;
        let tol = 1e-6 * analytic.abs().max(fd.abs()) + floor;
        assert!(
            (analytic - fd).abs() <= tol,
            "{what}: analytic {analytic:e} vs central difference {fd:e}"
        );
    }

    /// The gate voltage that puts the polarity-`pol` softplus argument at
    /// `x` for threshold shift `dvt` at `th`.
    fn vgs_at(cache: &DelayCache, pol: MosPolarity, th: &ThermalPoint, dvt: f64, x: f64) -> Volt {
        let c = cache.device(pol);
        Volt(c.vt0 + c.dvt_dt * th.dt + dvt + x * cache.two_n * th.vt_th)
    }

    forall! {
        #[test]
        fn partials_match_central_differences(
            t in -50.0f64..145.0,
            dvt in -0.06f64..0.06,
            mu in 0.8f64..1.25,
            vdd in 0.35f64..1.1,
            branch in 0u64..3,
            x_mid in -25.0f64..25.0,
            x_sat in 32.0f64..60.0,
        ) {
            // One softplus argument per branch: the exp/ln_1p middle, the
            // linear x > 30 side and the exponential x < −30 side.
            let x = match branch {
                0 => x_mid,
                1 => x_sat,
                _ => -x_sat,
            };
            let (_, _, cache) = fixture(0.35, 1.8);
            let (h_t, h_v, h_mu) = (1e-3, 1e-5, 1e-5);
            let th = cache.thermal(Celsius(t));
            let (lo, hi) = (cache.thermal(Celsius(t - h_t)), cache.thermal(Celsius(t + h_t)));
            let d = DelayCache::drain_partials(&th, Volt(vdd));
            let (d_lo, d_hi) = (
                DelayCache::drain_partials(&lo, Volt(vdd)),
                DelayCache::drain_partials(&hi, Volt(vdd)),
            );
            let fd = (d_hi.value.ln() - d_lo.value.ln()) / (2.0 * h_t);
            // ln(1 − e) rounds on the scale of 1, not of its small value.
            assert_close("∂ln drain/∂T", d.dln_dt, fd, d.value, h_t);
            for pol in [MosPolarity::Nmos, MosPolarity::Pmos] {
                // The gate voltage is held fixed while T and ΔVt move.
                let vgs = vgs_at(&cache, pol, &th, dvt, x);
                let bias = |th: &ThermalPoint, dvt: f64| cache.bias_partials(pol, th, vgs, dvt);
                let current = |th: &ThermalPoint, dvt: f64, mu: f64, d: &DrainFactor| {
                    cache.current_partials(pol, th, &bias(th, dvt), mu, d)
                };
                let b = bias(&th, dvt);
                let fd = (bias(&th, dvt + h_v).g - bias(&th, dvt - h_v).g) / (2.0 * h_v);
                assert_close("∂g/∂ΔVt", b.d_dvt, fd, b.g, h_v);
                let fd = (bias(&hi, dvt).g - bias(&lo, dvt).g) / (2.0 * h_t);
                assert_close("∂g/∂T", b.d_t, fd, b.g, h_t);

                let i = current(&th, dvt, mu, &d);
                let ln_i = |c: OnCurrent| c.i.ln();
                let fd = (ln_i(current(&th, dvt + h_v, mu, &d))
                    - ln_i(current(&th, dvt - h_v, mu, &d)))
                    / (2.0 * h_v);
                assert_close("∂ln I/∂ΔVt", i.dln_dvt, fd, i.i.ln(), h_v);
                let fd = (ln_i(current(&hi, dvt, mu, &d_hi)) - ln_i(current(&lo, dvt, mu, &d_lo)))
                    / (2.0 * h_t);
                assert_close("∂ln I/∂T", i.dln_dt, fd, i.i.ln(), h_t);
                let fd = (ln_i(current(&th, dvt, mu + h_mu, &d))
                    - ln_i(current(&th, dvt, mu - h_mu, &d)))
                    / (2.0 * h_mu);
                assert_close("∂ln I/∂µ", 1.0 / mu, fd, i.i.ln(), h_mu);
            }
        }
    }

    #[test]
    fn bias_factor_is_shared_exactly_when_its_operands_are_bit_equal() {
        // Rings of one technology share each polarity's factor whatever
        // their geometry; a shifted threshold or slope breaks the share.
        let (tech, _, narrow) = fixture(0.15, 8.0);
        let (_, _, wide) = fixture(1.2, 1.0);
        for pol in [MosPolarity::Nmos, MosPolarity::Pmos] {
            assert!(narrow.shares_bias_factor(&wide, pol));
        }
        let mut shifted = tech.clone();
        shifted.vtn0 = Volt(tech.vtn0.0 + 1e-3);
        let inv = Inverter::balanced(Micron(0.15), 8.0, &shifted).unwrap();
        let other = DelayCache::new(&inv, &shifted);
        assert!(!narrow.shares_bias_factor(&other, MosPolarity::Nmos));
        assert!(narrow.shares_bias_factor(&other, MosPolarity::Pmos));
        let mut sloped = tech.clone();
        sloped.subthreshold_n *= 1.01;
        let inv = Inverter::balanced(Micron(0.15), 8.0, &sloped).unwrap();
        let other = DelayCache::new(&inv, &sloped);
        for pol in [MosPolarity::Nmos, MosPolarity::Pmos] {
            assert!(!narrow.shares_bias_factor(&other, pol));
        }
    }

    fn bias_bits(b: &BiasFactor) -> [u64; 3] {
        [b.g.to_bits(), b.d_dvt.to_bits(), b.d_t.to_bits()]
    }

    fn current_bits(c: &OnCurrent) -> [u64; 3] {
        [c.i.to_bits(), c.dln_dvt.to_bits(), c.dln_dt.to_bits()]
    }

    forall! {
        #[test]
        fn lane_kernels_match_scalar_per_lane(
            t0 in -55.0f64..150.0,
            spread in 0.0f64..40.0,
            dn in -0.06f64..0.06,
            dp in -0.06f64..0.06,
            mu in 0.8f64..1.25,
            vdd in 0.35f64..1.1,
            x_sat in 32.0f64..60.0,
        ) {
            let (_, _, cache) = fixture(0.2, 2.0);
            let mut temps = [0.0; LANES];
            let mut dns = [0.0; LANES];
            let mut dps = [0.0; LANES];
            let mut mus = [0.0; LANES];
            for l in 0..LANES {
                let f = l as f64 / LANES as f64;
                temps[l] = t0 + spread * f;
                dns[l] = dn * (1.0 - f);
                dps[l] = dp * (1.0 - f);
                mus[l] = mu + 0.01 * f;
            }
            // One inactive lane: its outputs must stay at the filler values
            // while every active lane matches the scalar path bit for bit.
            let mut mask = [true; LANES];
            mask[5] = false;
            let th = cache.thermal_lanes(&temps, &mask);
            // Lanes 1 and 2 drive the NMOS/PMOS softplus into its x > 30
            // and x < −30 branches through their threshold shifts.
            let th1 = cache.thermal(Celsius(temps[1]));
            let v0 = vgs_at(&cache, MosPolarity::Nmos, &th1, 0.0, 0.0).0;
            dns[1] = (vdd - v0) - x_sat * cache.two_n * th1.vt_th;
            let th2 = cache.thermal(Celsius(temps[2]));
            let v0 = vgs_at(&cache, MosPolarity::Pmos, &th2, 0.0, 0.0).0;
            dps[2] = (vdd - v0) + x_sat * cache.two_n * th2.vt_th;
            let mut drains = [DrainFactor::default(); LANES];
            DelayCache::drain_partials_lanes(&th, Volt(vdd), &mask, &mut drains);
            let (mut g_n, mut g_p) = ([BiasFactor::default(); LANES], [BiasFactor::default(); LANES]);
            let (mut ion_n, mut ion_p) = ([OnCurrent::default(); LANES], [OnCurrent::default(); LANES]);
            let (n, p) = (MosPolarity::Nmos, MosPolarity::Pmos);
            cache.bias_partials_lanes(n, &th, Volt(vdd), &dns, &mask, &mut g_n);
            cache.bias_partials_lanes(p, &th, Volt(vdd), &dps, &mask, &mut g_p);
            cache.current_partials_lanes(n, &th, &g_n, &mus, &drains, &mask, &mut ion_n);
            cache.current_partials_lanes(p, &th, &g_p, &mus, &drains, &mask, &mut ion_p);
            assert_eq!(th[5].vt_th, 0.0);
            assert_eq!(drains[5], DrainFactor::default());
            assert_eq!((g_n[5], g_p[5]), (BiasFactor::default(), BiasFactor::default()));
            assert_eq!((ion_n[5], ion_p[5]), (OnCurrent::default(), OnCurrent::default()));
            for l in 0..LANES {
                if l == 5 {
                    continue;
                }
                let th_s = cache.thermal(Celsius(temps[l]));
                assert_eq!(th[l], th_s);
                let d = DelayCache::drain_partials(&th_s, Volt(vdd));
                assert_eq!(drains[l], d);
                let bn = cache.bias_partials(n, &th_s, Volt(vdd), dns[l]);
                let bp = cache.bias_partials(p, &th_s, Volt(vdd), dps[l]);
                assert_eq!(bias_bits(&g_n[l]), bias_bits(&bn), "lane {l}");
                assert_eq!(bias_bits(&g_p[l]), bias_bits(&bp), "lane {l}");
                let cn = cache.current_partials(n, &th_s, &bn, mus[l], &d);
                let cp = cache.current_partials(p, &th_s, &bp, mus[l], &d);
                assert_eq!(current_bits(&ion_n[l]), current_bits(&cn), "lane {l}");
                assert_eq!(current_bits(&ion_p[l]), current_bits(&cp), "lane {l}");
                assert_eq!(
                    ion_n[l].i.to_bits(),
                    cache.nmos_current(&th_s, Volt(vdd), dns[l], mus[l], d.value).to_bits(),
                );
                assert_eq!(
                    ion_p[l].i.to_bits(),
                    cache.pmos_current(&th_s, Volt(vdd), dps[l], mus[l], d.value).to_bits(),
                );
            }
            // The saturated lanes really are saturated.
            assert_eq!(g_n[1].d_dvt, -1.0 / (cache.two_n * th[1].vt_th));
            assert!(g_p[2].g < 1e-13, "lane 2 PMOS factor {}", g_p[2].g);
        }
    }
}
