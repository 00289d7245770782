//! Ring oscillators built from device-level inverters.

use crate::error::CircuitError;
use ptsim_device::delay::{DelayCache, OnCurrent, ThermalPoint, LANES};
use ptsim_device::inverter::{CmosEnv, Inverter};
use ptsim_device::process::Technology;
use ptsim_device::units::{Celsius, Farad, Hertz, Joule, Seconds, Volt, Watt};

/// An N-stage inverter ring oscillator.
///
/// The oscillation period is `2·N·t_stage`, where each stage drives the next
/// stage's input capacitance plus its own junction capacitance plus an
/// explicit wire load. Per period, every node rises and falls exactly once,
/// so the dynamic energy per period is `N·C_node·VDD²`.
///
/// ```
/// use ptsim_circuit::ring::InverterRing;
/// use ptsim_device::inverter::{CmosEnv, Inverter};
/// use ptsim_device::process::Technology;
/// use ptsim_device::units::{Farad, Micron, Volt};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tech = Technology::n65();
/// let inv = Inverter::balanced(Micron(0.5), 2.0, &tech)?;
/// let ro = InverterRing::new(31, inv, Farad(0.5e-15), Volt(1.0))?;
/// let f = ro.frequency(&tech, &CmosEnv::nominal());
/// assert!(f.0 > 1e8, "GHz-class oscillator, got {f}");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InverterRing {
    stages: usize,
    inverter: Inverter,
    wire_load: Farad,
    vdd: Volt,
}

impl InverterRing {
    /// Creates a ring oscillator.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidStageCount`] unless `stages` is odd and
    /// at least 3.
    pub fn new(
        stages: usize,
        inverter: Inverter,
        wire_load: Farad,
        vdd: Volt,
    ) -> Result<Self, CircuitError> {
        if stages < 3 || stages.is_multiple_of(2) {
            return Err(CircuitError::InvalidStageCount { stages });
        }
        Ok(InverterRing {
            stages,
            inverter,
            wire_load,
            vdd,
        })
    }

    /// Number of stages.
    #[must_use]
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// The stage inverter.
    #[must_use]
    pub fn inverter(&self) -> &Inverter {
        &self.inverter
    }

    /// Supply voltage the ring runs at.
    #[must_use]
    pub fn vdd(&self) -> Volt {
        self.vdd
    }

    /// Copy of this ring at a different supply (for voltage sweeps).
    #[must_use]
    pub fn with_vdd(mut self, vdd: Volt) -> Self {
        self.vdd = vdd;
        self
    }

    /// Capacitance switched at each internal node.
    #[must_use]
    pub fn node_cap(&self, tech: &Technology) -> Farad {
        self.inverter.input_cap(tech) + self.inverter.output_cap(tech) + self.wire_load
    }

    /// Stage propagation delay under `env`.
    #[must_use]
    pub fn stage_delay(&self, tech: &Technology, env: &CmosEnv) -> Seconds {
        self.inverter
            .stage_delay(tech, self.vdd, self.node_cap(tech), env)
    }

    /// Oscillation period `2·N·t_stage`.
    #[must_use]
    pub fn period(&self, tech: &Technology, env: &CmosEnv) -> Seconds {
        Seconds(2.0 * self.stages as f64 * self.stage_delay(tech, env).0)
    }

    /// Oscillation frequency.
    #[must_use]
    pub fn frequency(&self, tech: &Technology, env: &CmosEnv) -> Hertz {
        self.period(tech, env).to_frequency()
    }

    /// Dynamic energy dissipated per oscillation period (`N·C·VDD²`).
    #[must_use]
    pub fn energy_per_period(&self, tech: &Technology) -> Joule {
        Joule(self.stages as f64 * self.node_cap(tech).0 * self.vdd.0 * self.vdd.0)
    }

    /// Dynamic power while running.
    #[must_use]
    pub fn dynamic_power(&self, tech: &Technology, env: &CmosEnv) -> Watt {
        Watt(self.energy_per_period(tech).0 * self.frequency(tech, env).0)
    }

    /// Static leakage power of all stages (paid even when gated off only if
    /// the ring is not power-gated; the sensor power-gates idle rings).
    #[must_use]
    pub fn leakage_power(&self, tech: &Technology, env: &CmosEnv) -> Watt {
        Watt(self.stages as f64 * self.inverter.leakage_power(tech, self.vdd, env).0)
    }

    /// Total energy to run the ring for `duration` (dynamic + leakage).
    #[must_use]
    pub fn run_energy(&self, tech: &Technology, env: &CmosEnv, duration: Seconds) -> Joule {
        let p = self.dynamic_power(tech, env).0 + self.leakage_power(tech, env).0;
        Joule(p * duration.0)
    }
}

/// A ring's `ln f` with its partials in the logarithms of its two device
/// on-currents, from [`RingCache::ln_frequency_from_currents`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LnFrequency {
    /// `ln f`, f in Hz.
    pub ln_f: f64,
    /// `∂ln f/∂ln I_n`.
    pub d_ln_in: f64,
    /// `∂ln f/∂ln I_p`.
    pub d_ln_ip: f64,
}

/// Precomputed hot-path evaluation state of one [`InverterRing`]: the
/// device-level [`DelayCache`] plus the ring-level temperature-independent
/// products (node capacitance, the `2·N` period prefix, the `N·C_node`
/// energy prefix). Bit-identical to the uncached ring methods by the same
/// exact-memoization contract as [`DelayCache`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingCache {
    delay: DelayCache,
    node_cap: Farad,
    /// Period prefix `2·N` (left-associated prefix of `2·N·t_stage`).
    two_stages: f64,
    /// Stage count as float (leakage-power prefix).
    stages_f: f64,
    /// Energy prefix `N·C_node` (left-associated prefix of `N·C·VDD²`).
    energy_prefix: f64,
}

impl RingCache {
    /// Hoists the temperature-independent constants of `ring` under `tech`.
    #[must_use]
    pub fn new(ring: &InverterRing, tech: &Technology) -> Self {
        let delay = DelayCache::new(ring.inverter(), tech);
        let node_cap = delay.input_cap() + delay.output_cap() + ring.wire_load;
        let stages_f = ring.stages as f64;
        RingCache {
            delay,
            node_cap,
            two_stages: 2.0 * stages_f,
            stages_f,
            energy_prefix: stages_f * node_cap.0,
        }
    }

    /// Shared per-temperature quantities (see [`DelayCache::thermal`]).
    #[must_use]
    pub fn thermal(&self, temp: Celsius) -> ThermalPoint {
        self.delay.thermal(temp)
    }

    /// Precomputed [`InverterRing::node_cap`].
    #[must_use]
    pub fn node_cap(&self) -> Farad {
        self.node_cap
    }

    /// Bit-identical to `ring.with_vdd(vdd).frequency(tech, env)` at
    /// `env.temp == th`'s temperature.
    #[must_use]
    pub fn frequency(&self, th: &ThermalPoint, vdd: Volt, env: &CmosEnv) -> Hertz {
        let stage = self.delay.stage_delay(th, vdd, self.node_cap, env);
        Seconds(self.two_stages * stage.0).to_frequency()
    }

    /// The underlying per-inverter [`DelayCache`] — solver loops use it to
    /// evaluate per-device on-currents and their partials.
    #[must_use]
    pub fn delay(&self) -> &DelayCache {
        &self.delay
    }

    /// [`RingCache::frequency`] with both device on-currents already
    /// computed (`ion_n`/`ion_p` must be this cache's
    /// [`DelayCache::nmos_current`]/[`DelayCache::pmos_current`] at the
    /// same `(th, vdd)` point) — the exact arithmetic tail of the cached
    /// frequency.
    #[must_use]
    pub fn frequency_from_currents(&self, ion_n: f64, ion_p: f64, vdd: Volt) -> Hertz {
        let stage = self
            .delay
            .stage_delay_from_currents(ion_n, ion_p, vdd, self.node_cap);
        Seconds(self.two_stages * stage.0).to_frequency()
    }

    /// `ln f` from the two device on-currents, with its partials in their
    /// logarithms. The stage delay is proportional to `1/I_n + 1/I_p`, so
    /// `∂ln f/∂ln I_n = I_p/(I_n + I_p)` and `∂ln f/∂ln I_p = I_n/(I_n + I_p)`;
    /// the chain rule through [`OnCurrent`]'s partials gives `ln f`'s
    /// partials in ΔVt, T and µ. `ln_f` is bit-identical to the `ln` of
    /// [`RingCache::frequency_from_currents`].
    #[must_use]
    pub fn ln_frequency_from_currents(&self, ion_n: f64, ion_p: f64, vdd: Volt) -> LnFrequency {
        let ln_f = self.frequency_from_currents(ion_n, ion_p, vdd).0.ln();
        let sum = ion_n + ion_p;
        LnFrequency {
            ln_f,
            d_ln_in: ion_p / sum,
            d_ln_ip: ion_n / sum,
        }
    }

    /// Lane-parallel [`RingCache::ln_frequency_from_currents`] over the
    /// currents of [`DelayCache::current_partials_lanes`]. Each active lane
    /// is bit-identical to the scalar call with that lane's currents;
    /// inactive lanes keep their previous `out` values.
    #[inline]
    pub fn ln_frequency_lanes(
        &self,
        ion_n: &[OnCurrent; LANES],
        ion_p: &[OnCurrent; LANES],
        vdd: Volt,
        active: &[bool; LANES],
        out: &mut [LnFrequency; LANES],
    ) {
        for l in 0..LANES {
            if active[l] {
                out[l] = self.ln_frequency_from_currents(ion_n[l].i, ion_p[l].i, vdd);
            }
        }
    }

    /// Bit-identical to `ring.with_vdd(vdd).run_energy(tech, env, duration)`
    /// given `frequency` previously obtained from [`RingCache::frequency`]
    /// (or the uncached equivalent) at the same `(vdd, env)` — the second
    /// ring evaluation the uncached path performs inside
    /// [`InverterRing::dynamic_power`] is elided by reusing that value.
    #[must_use]
    pub fn run_energy_with(
        &self,
        th: &ThermalPoint,
        vdd: Volt,
        env: &CmosEnv,
        frequency: Hertz,
        duration: Seconds,
    ) -> Joule {
        let energy_per_period = self.energy_prefix * vdd.0 * vdd.0;
        let dynamic = energy_per_period * frequency.0;
        let leakage = self.stages_f * self.delay.leakage_power(th, vdd, env).0;
        let p = dynamic + leakage;
        Joule(p * duration.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsim_device::units::{Celsius, Micron};

    fn tech() -> Technology {
        Technology::n65()
    }

    fn ring(stages: usize) -> InverterRing {
        let inv = Inverter::balanced(Micron(0.5), 2.0, &tech()).unwrap();
        InverterRing::new(stages, inv, Farad(0.5e-15), Volt(1.0)).unwrap()
    }

    #[test]
    fn rejects_even_or_tiny_stage_counts() {
        let inv = Inverter::balanced(Micron(0.5), 2.0, &tech()).unwrap();
        assert!(InverterRing::new(4, inv, Farad::ZERO, Volt(1.0)).is_err());
        assert!(InverterRing::new(1, inv, Farad::ZERO, Volt(1.0)).is_err());
        assert!(InverterRing::new(3, inv, Farad::ZERO, Volt(1.0)).is_ok());
    }

    #[test]
    fn more_stages_lower_frequency() {
        let t = tech();
        let env = CmosEnv::nominal();
        let f31 = ring(31).frequency(&t, &env).0;
        let f61 = ring(61).frequency(&t, &env).0;
        assert!(f31 > 1.8 * f61 && f31 < 2.2 * f61);
    }

    #[test]
    fn frequency_in_plausible_range() {
        let f = ring(31).frequency(&tech(), &CmosEnv::nominal());
        assert!(
            f.0 > 1e8 && f.0 < 2e10,
            "31-stage 65nm RO should be 0.1-20 GHz, got {f}"
        );
    }

    #[test]
    fn lower_vdd_slower_and_less_energy() {
        let t = tech();
        let env = CmosEnv::nominal();
        let hi = ring(31);
        let lo = hi.with_vdd(Volt(0.6));
        assert!(lo.frequency(&t, &env).0 < hi.frequency(&t, &env).0);
        assert!(lo.energy_per_period(&t).0 < hi.energy_per_period(&t).0);
    }

    #[test]
    fn higher_vt_slower() {
        let t = tech();
        let slow_env = CmosEnv {
            d_vtn: Volt(0.04),
            d_vtp: Volt(0.04),
            ..CmosEnv::nominal()
        };
        let r = ring(31);
        assert!(r.frequency(&t, &slow_env).0 < r.frequency(&t, &CmosEnv::nominal()).0);
    }

    #[test]
    fn period_frequency_consistency() {
        let t = tech();
        let env = CmosEnv::at(Celsius(60.0));
        let r = ring(13);
        let prod = r.period(&t, &env).0 * r.frequency(&t, &env).0;
        assert!((prod - 1.0).abs() < 1e-12);
    }

    #[test]
    fn energy_per_period_scales_with_stage_count() {
        let t = tech();
        let e31 = ring(31).energy_per_period(&t).0;
        let e61 = ring(61).energy_per_period(&t).0;
        assert!((e61 / e31 - 61.0 / 31.0).abs() < 1e-9);
    }

    #[test]
    fn run_energy_combines_dynamic_and_leakage() {
        let t = tech();
        let env = CmosEnv::nominal();
        let r = ring(31);
        let window = Seconds(1e-6);
        let e = r.run_energy(&t, &env, window).0;
        let dyn_only = r.dynamic_power(&t, &env).0 * window.0;
        assert!(e > dyn_only);
        assert!(e < dyn_only * 1.5, "leakage is a small fraction at 1.0 V");
    }

    #[test]
    fn dynamic_power_positive_microwatt_scale() {
        let p = ring(31).dynamic_power(&tech(), &CmosEnv::nominal());
        assert!(p.0 > 1e-7 && p.0 < 1e-2, "RO power {p}");
    }

    ptsim_rng::forall! {
        #[test]
        fn ring_cache_frequency_is_bit_identical(
            t in -55.0f64..150.0,
            dn in -0.05f64..0.05,
            dp in -0.05f64..0.05,
            mu in 0.8f64..1.25,
            vdd in 0.35f64..1.1,
        ) {
            let tech = tech();
            let r = ring(51);
            let cache = RingCache::new(&r, &tech);
            let env = CmosEnv {
                temp: Celsius(t),
                d_vtn: Volt(dn),
                d_vtp: Volt(dp),
                mu_n: mu,
                mu_p: 2.05 - mu,
            };
            let th = cache.thermal(env.temp);
            let cached = cache.frequency(&th, Volt(vdd), &env);
            let reference = r.with_vdd(Volt(vdd)).frequency(&tech, &env);
            assert_eq!(cached.0.to_bits(), reference.0.to_bits());
        }

        #[test]
        fn ring_cache_run_energy_is_bit_identical(
            t in -55.0f64..150.0,
            dn in -0.05f64..0.05,
            vdd in 0.35f64..1.1,
        ) {
            let tech = tech();
            let r = ring(51).with_vdd(Volt(vdd));
            let cache = RingCache::new(&r, &tech);
            let env = CmosEnv {
                temp: Celsius(t),
                d_vtn: Volt(dn),
                d_vtp: Volt(-dn),
                mu_n: 1.03,
                mu_p: 0.97,
            };
            let th = cache.thermal(env.temp);
            let f = cache.frequency(&th, Volt(vdd), &env);
            let window = Seconds(14e-6);
            let cached = cache.run_energy_with(&th, Volt(vdd), &env, f, window);
            let reference = r.run_energy(&tech, &env, window);
            assert_eq!(cached.0.to_bits(), reference.0.to_bits());
        }

        #[test]
        fn ln_frequency_partials_match_central_differences(
            ln_in in -14.0f64..-6.0,
            ln_ip in -14.0f64..-6.0,
            spread in -2.0f64..2.0,
            vdd in 0.35f64..1.1,
        ) {
            let cache = RingCache::new(&ring(51), &tech());
            let vdd = Volt(vdd);
            let h = 1e-6;
            let ln_f = |a: f64, b: f64| cache.frequency_from_currents(a.exp(), b.exp(), vdd).0.ln();
            let mut n = [OnCurrent::default(); LANES];
            let mut p = [OnCurrent::default(); LANES];
            for l in 0..LANES {
                let f = l as f64 / LANES as f64;
                n[l].i = (ln_in + spread * f).exp();
                p[l].i = (ln_ip - spread * f).exp();
            }
            let mut live = [true; LANES];
            live[6] = false;
            let mut out = [LnFrequency::default(); LANES];
            cache.ln_frequency_lanes(&n, &p, vdd, &live, &mut out);
            assert_eq!(out[6], LnFrequency::default(), "masked lane written");
            for l in (0..LANES).filter(|&l| live[l]) {
                let s = cache.ln_frequency_from_currents(n[l].i, p[l].i, vdd);
                let bits = |v: &LnFrequency| [v.ln_f, v.d_ln_in, v.d_ln_ip].map(f64::to_bits);
                assert_eq!(bits(&out[l]), bits(&s), "lane {l}");
                let f = cache.frequency_from_currents(n[l].i, p[l].i, vdd);
                assert_eq!(s.ln_f.to_bits(), f.0.ln().to_bits());
                let (a, b) = (n[l].i.ln(), p[l].i.ln());
                let fd_n = (ln_f(a + h, b) - ln_f(a - h, b)) / (2.0 * h);
                let fd_p = (ln_f(a, b + h) - ln_f(a, b - h)) / (2.0 * h);
                // Rounding of ln f (|ln f| < 30) over 2h bounds the
                // difference quotient's error near 1e-8.
                assert!((s.d_ln_in - fd_n).abs() < 1e-7, "{} vs {fd_n}", s.d_ln_in);
                assert!((s.d_ln_ip - fd_p).abs() < 1e-7, "{} vs {fd_p}", s.d_ln_ip);
            }
        }
    }
}
