//! Design-time characterized ("golden") oscillator model.
//!
//! The analytic compact model in [`crate::bank`] plays the role of SPICE.
//! Real sensor hardware cannot evaluate SPICE on-chip: at design time each
//! oscillator is characterized across (ΔVtn, ΔVtp, µn, µp, T) and the
//! resulting **polynomial surfaces** are what the ROM/datapath evaluates.
//! This module builds those surfaces by least-squares fitting on a
//! characterization grid, so the sensor can run in a hardware-faithful mode
//! where model *fit* error is part of the error budget (ablation A1 wires
//! this in; see `run_all A1`).
//!
//! Each surface fits `ln f` in normalized coordinates with a total-degree-
//! bounded multivariate polynomial basis.

use crate::bank::{BankSpec, RoBank, RoClass};
use crate::error::SensorError;
use crate::newton::solve_linear;
use ptsim_device::inverter::CmosEnv;
use ptsim_device::process::Technology;
use ptsim_device::units::{Celsius, Volt};

/// Normalization spans of the characterization space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CharacterizationSpace {
    /// Threshold-shift half-range, volts (surfaces valid over ±this).
    pub vt_span: f64,
    /// ln-mobility half-range (±this around 0).
    pub ln_mu_span: f64,
    /// Temperature range, °C.
    pub temp_range: (f64, f64),
    /// Grid points per axis.
    pub points_per_axis: usize,
    /// Total polynomial degree of the fitted surfaces.
    pub degree: usize,
}

impl Default for CharacterizationSpace {
    fn default() -> Self {
        CharacterizationSpace {
            vt_span: 0.060,
            ln_mu_span: 0.25,
            temp_range: (-25.0, 105.0),
            points_per_axis: 6,
            degree: 5,
        }
    }
}

/// Multi-indices of total degree ≤ `degree` over `dims` variables.
fn multi_indices(dims: usize, degree: usize) -> Vec<Vec<usize>> {
    fn rec(dims: usize, degree: usize, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if dims == 0 {
            out.push(prefix.clone());
            return;
        }
        for d in 0..=degree {
            prefix.push(d);
            rec(dims - 1, degree - d, prefix, out);
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    rec(dims, degree, &mut Vec::new(), &mut out);
    out
}

fn eval_basis(indices: &[Vec<usize>], x: &[f64], out: &mut Vec<f64>) {
    out.clear();
    for mi in indices {
        let mut term = 1.0;
        for (p, xi) in mi.iter().zip(x) {
            term *= xi.powi(*p as i32);
        }
        out.push(term);
    }
}

/// Adds one grid sample to the normal equations `AᵀA x = Aᵀb`, filling only
/// the upper triangle (`c ≥ r`) of the symmetric `AᵀA`; [`mirror_upper`]
/// completes it once after the last sample. Every entry sums the same
/// products in the same order as a full fill (IEEE multiplication
/// commutes), so the mirrored matrix is bit-identical to it at half the
/// multiply-adds.
fn accumulate_upper(ata: &mut [f64], atb: &mut [f64], basis: &[f64], lnf: f64) {
    let n = basis.len();
    for r in 0..n {
        let br = basis[r];
        for (a, bc) in ata[r * n + r..(r + 1) * n].iter_mut().zip(&basis[r..]) {
            *a += br * bc;
        }
        atb[r] += br * lnf;
    }
}

/// Copies the upper triangle of the `n × n` row-major `ata` onto its lower
/// triangle.
fn mirror_upper(ata: &mut [f64], n: usize) {
    for r in 1..n {
        for c in 0..r {
            ata[r * n + c] = ata[c * n + r];
        }
    }
}

/// One fitted `ln f` surface.
#[derive(Debug, Clone, PartialEq)]
struct Surface {
    class: RoClass,
    vdd: Volt,
    coeffs: Vec<f64>,
    fit_rms: f64,
    fit_max: f64,
}

/// The characterized model: one surface per (oscillator, supply) pair the
/// sensor measures.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenModel {
    space: CharacterizationSpace,
    indices: Vec<Vec<usize>>,
    surfaces: Vec<Surface>,
}

impl GoldenModel {
    /// Characterizes the bank: sweeps the 5-axis grid, evaluates the
    /// analytic model (the "SPICE" stand-in), and least-squares fits each
    /// surface.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError`] if the bank cannot be built or the normal
    /// equations are singular (degenerate grid).
    pub fn characterize(
        tech: &Technology,
        bank_spec: BankSpec,
        space: CharacterizationSpace,
    ) -> Result<Self, SensorError> {
        let bank = RoBank::new(tech, bank_spec)?;
        let plan = [
            (RoClass::PsroN, bank_spec.vdd_high),
            (RoClass::PsroN, bank_spec.vdd_low),
            (RoClass::PsroP, bank_spec.vdd_high),
            (RoClass::PsroP, bank_spec.vdd_low),
            (RoClass::Tsro, bank_spec.vdd_tsro),
        ];
        let indices = multi_indices(5, space.degree);
        let n_coef = indices.len();
        let p = space.points_per_axis.max(2);
        let axis = |i: usize| -1.0 + 2.0 * i as f64 / (p - 1) as f64; // [-1,1]

        let mut surfaces = Vec::with_capacity(plan.len());
        for (class, vdd) in plan {
            // Accumulate normal equations AᵀA x = Aᵀb over the grid.
            let mut ata = vec![0.0; n_coef * n_coef];
            let mut atb = vec![0.0; n_coef];
            let mut basis = Vec::with_capacity(n_coef);
            let mut samples: Vec<(Vec<f64>, f64)> = Vec::new();
            for i0 in 0..p {
                for i1 in 0..p {
                    for i2 in 0..p {
                        for i3 in 0..p {
                            for i4 in 0..p {
                                let x = [axis(i0), axis(i1), axis(i2), axis(i3), axis(i4)];
                                let env = space.denormalize(&x);
                                let lnf = bank.frequency(tech, class, vdd, &env).0.ln();
                                eval_basis(&indices, &x, &mut basis);
                                accumulate_upper(&mut ata, &mut atb, &basis, lnf);
                                samples.push((x.to_vec(), lnf));
                            }
                        }
                    }
                }
            }
            mirror_upper(&mut ata, n_coef);
            solve_linear(&mut ata, &mut atb, n_coef, "golden-model fit")?;
            let coeffs = atb;

            // Fit-quality bookkeeping.
            let mut max_err: f64 = 0.0;
            let mut sum_sq = 0.0;
            for (x, lnf) in &samples {
                eval_basis(&indices, x, &mut basis);
                let pred: f64 = basis.iter().zip(&coeffs).map(|(b, c)| b * c).sum();
                let e = pred - lnf;
                max_err = max_err.max(e.abs());
                sum_sq += e * e;
            }
            surfaces.push(Surface {
                class,
                vdd,
                coeffs,
                fit_rms: (sum_sq / samples.len() as f64).sqrt(),
                fit_max: max_err,
            });
        }
        Ok(GoldenModel {
            space,
            indices,
            surfaces,
        })
    }

    /// Characterization space.
    #[must_use]
    pub fn space(&self) -> &CharacterizationSpace {
        &self.space
    }

    /// Worst ln-frequency fit error across all surfaces (on the training
    /// grid).
    #[must_use]
    pub fn worst_fit_error(&self) -> f64 {
        self.surfaces.iter().map(|s| s.fit_max).fold(0.0, f64::max)
    }

    /// Predicted `ln f` for an oscillator/supply pair under a hypothesized
    /// process/temperature state.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidConfig`] if the (class, vdd) pair was
    /// not characterized.
    pub fn ln_frequency(
        &self,
        class: RoClass,
        vdd: Volt,
        env: &CmosEnv,
    ) -> Result<f64, SensorError> {
        let surf = self
            .surfaces
            .iter()
            .find(|s| s.class == class && (s.vdd.0 - vdd.0).abs() < 1e-9)
            .ok_or(SensorError::InvalidConfig {
                name: "uncharacterized (class, vdd) pair",
                value: vdd.0,
            })?;
        let x = self.space.normalize(env);
        let mut basis = Vec::with_capacity(self.indices.len());
        eval_basis(&self.indices, &x, &mut basis);
        Ok(basis.iter().zip(&surf.coeffs).map(|(b, c)| b * c).sum())
    }
}

impl CharacterizationSpace {
    /// The temperature axis is parameterized linearly in **inverse absolute
    /// temperature**: near-threshold ring delay is exponential in
    /// `Vt/(n·kT/q) ∝ 1/T`, so this substitution makes the fitted surfaces
    /// nearly polynomial and cuts the fit error by an order of magnitude
    /// compared with a linear-in-°C axis.
    fn inv_kelvin_bounds(&self) -> (f64, f64) {
        let (t0, t1) = self.temp_range;
        // Note: hotter temperature = smaller 1/T; keep (lo, hi) ordered.
        (
            1.0 / Celsius(t1).to_kelvin().0,
            1.0 / Celsius(t0).to_kelvin().0,
        )
    }

    /// Maps normalized grid coordinates `[-1,1]⁵` to a model environment.
    fn denormalize(&self, x: &[f64]) -> CmosEnv {
        let (u0, u1) = self.inv_kelvin_bounds();
        let u = u0 + (x[4] + 1.0) / 2.0 * (u1 - u0);
        CmosEnv {
            temp: ptsim_device::units::Kelvin(1.0 / u).to_celsius(),
            d_vtn: Volt(x[0] * self.vt_span),
            d_vtp: Volt(x[1] * self.vt_span),
            mu_n: (x[2] * self.ln_mu_span).exp(),
            mu_p: (x[3] * self.ln_mu_span).exp(),
        }
    }

    /// Maps a model environment into normalized coordinates (clamped to the
    /// characterized box).
    fn normalize(&self, env: &CmosEnv) -> [f64; 5] {
        // Allow 10% extrapolation beyond the characterized box so the
        // decoupling solver's finite-difference Jacobian never flattens to
        // zero at the box edge (polynomials extrapolate smoothly over such
        // a short distance).
        let (u0, u1) = self.inv_kelvin_bounds();
        let u = 1.0 / env.temp.to_kelvin().0;
        [
            (env.d_vtn.0 / self.vt_span).clamp(-1.1, 1.1),
            (env.d_vtp.0 / self.vt_span).clamp(-1.1, 1.1),
            (env.mu_n.ln() / self.ln_mu_span).clamp(-1.1, 1.1),
            (env.mu_p.ln() / self.ln_mu_span).clamp(-1.1, 1.1),
            (((u - u0) / (u1 - u0) * 2.0 - 1.0).clamp(-1.1, 1.1)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsim_rng::{forall, Pcg64, Rng};

    /// The full-matrix accumulation [`accumulate_upper`] replaced, kept as
    /// the bit-exact oracle for the triangular fill.
    fn accumulate_full(ata: &mut [f64], atb: &mut [f64], basis: &[f64], lnf: f64) {
        let n = basis.len();
        for r in 0..n {
            for c in 0..n {
                ata[r * n + c] += basis[r] * basis[c];
            }
            atb[r] += basis[r] * lnf;
        }
    }

    forall! {
        #[test]
        fn triangular_fill_matches_the_full_fill_bit_for_bit(
            seed in 0u64..1000,
            n in 1usize..40,
            samples in 1usize..30,
        ) {
            let mut rng = Pcg64::seed_from_u64(seed);
            let (mut full, mut upper) = (vec![0.0; n * n], vec![0.0; n * n]);
            let (mut full_b, mut upper_b) = (vec![0.0; n], vec![0.0; n]);
            for _ in 0..samples {
                // Basis values span the magnitudes a degree-5 monomial of
                // normalized coordinates takes, signs included.
                let basis: Vec<f64> = (0..n)
                    .map(|_| rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-6..2)))
                    .collect();
                let lnf = rng.gen_range(10.0..25.0);
                accumulate_full(&mut full, &mut full_b, &basis, lnf);
                accumulate_upper(&mut upper, &mut upper_b, &basis, lnf);
            }
            mirror_upper(&mut upper, n);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&upper), bits(&full));
            assert_eq!(bits(&upper_b), bits(&full_b));
        }
    }

    /// A cheap space for structural unit tests (the full default space is
    /// exercised in release mode by the A1 ablation bench).
    fn test_space() -> CharacterizationSpace {
        CharacterizationSpace {
            degree: 4,
            points_per_axis: 5,
            ..CharacterizationSpace::default()
        }
    }

    fn golden() -> (Technology, RoBank, GoldenModel) {
        let tech = Technology::n65();
        let spec = BankSpec::default_65nm();
        let bank = RoBank::new(&tech, spec).unwrap();
        let model = GoldenModel::characterize(&tech, spec, test_space()).unwrap();
        (tech, bank, model)
    }

    #[test]
    fn multi_indices_counts_match_combinatorics() {
        // C(dims+degree, degree) terms of total degree <= degree.
        assert_eq!(multi_indices(5, 4).len(), 126);
        assert_eq!(multi_indices(5, 3).len(), 56);
        assert_eq!(multi_indices(2, 2).len(), 6);
        assert_eq!(multi_indices(1, 4).len(), 5);
    }

    #[test]
    fn fit_error_small_on_grid() {
        let (_, _, model) = golden();
        // Degree-4 over the full (wide) box: a few percent worst-case at
        // the extreme corners; the default degree-5 space used by the
        // sensor is several times tighter (exercised by the A1 ablation).
        assert!(
            model.worst_fit_error() < 6e-2,
            "worst fit error {}",
            model.worst_fit_error()
        );
    }

    #[test]
    fn prediction_matches_analytic_off_grid() {
        let (tech, bank, model) = golden();
        let spec = *bank.spec();
        let env = CmosEnv {
            temp: Celsius(37.3),
            d_vtn: Volt(0.0137),
            d_vtp: Volt(-0.0082),
            mu_n: 1.021,
            mu_p: 0.984,
        };
        for (class, vdd) in [
            (RoClass::PsroN, spec.vdd_low),
            (RoClass::PsroP, spec.vdd_high),
            (RoClass::Tsro, spec.vdd_tsro),
        ] {
            let truth = bank.frequency(&tech, class, vdd, &env).0.ln();
            let pred = model.ln_frequency(class, vdd, &env).unwrap();
            // Mild interior point: far better than the box-corner worst case.
            assert!(
                (pred - truth).abs() < 3e-3,
                "{}: pred {pred:.5} vs truth {truth:.5}",
                class.name()
            );
        }
    }

    #[test]
    fn uncharacterized_pair_rejected() {
        let (_, _, model) = golden();
        let env = CmosEnv::nominal();
        assert!(model.ln_frequency(RoClass::Tsro, Volt(0.77), &env).is_err());
    }

    #[test]
    fn normalization_round_trip_center() {
        let space = CharacterizationSpace::default();
        let env = space.denormalize(&[0.0, 0.0, 0.0, 0.0, 0.0]);
        assert!(env.d_vtn.0.abs() < 1e-12);
        assert!((env.mu_n - 1.0).abs() < 1e-12);
        let x = space.normalize(&env);
        assert!(x.iter().all(|v| v.abs() < 1e-9));
    }

    #[test]
    fn normalization_clamps_outside_box() {
        let space = CharacterizationSpace::default();
        let env = CmosEnv {
            d_vtn: Volt(1.0),
            ..CmosEnv::nominal()
        };
        assert_eq!(space.normalize(&env)[0], 1.1);
    }

    #[test]
    fn lower_degree_fits_worse() {
        let tech = Technology::n65();
        let spec = BankSpec::default_65nm();
        let d2 = GoldenModel::characterize(
            &tech,
            spec,
            CharacterizationSpace {
                degree: 2,
                ..test_space()
            },
        )
        .unwrap();
        let d4 = GoldenModel::characterize(&tech, spec, test_space()).unwrap();
        assert!(d2.worst_fit_error() > d4.worst_fit_error());
    }
}
