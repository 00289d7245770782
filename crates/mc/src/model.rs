//! The variation model: turns a [`Technology`] description into a population
//! of [`DieSample`]s.

use crate::die::DieSample;
use crate::spatial::{FieldMask, SpatialConfig, SpatialStencil};
use ptsim_device::process::{ProcessCorner, Technology};
use ptsim_device::units::Volt;
use ptsim_rng::gaussian::{normal, truncated_normal};
use ptsim_rng::{Rng, SplitMix64};

/// Statistical model of process variation for one technology.
///
/// ```
/// use ptsim_device::process::Technology;
/// use ptsim_mc::model::VariationModel;
///
/// let model = VariationModel::new(&Technology::n65());
/// let mut rng = ptsim_rng::Pcg64::seed_from_u64(1);
/// let die = model.sample_die(&mut rng);
/// assert!(die.d_vtn_d2d.0.abs() < 0.08, "D2D shift bounded by truncation");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VariationModel {
    /// One-sigma die-to-die threshold spread (applies to both polarities).
    pub sigma_vt_d2d: Volt,
    /// One-sigma die-to-die relative mobility spread.
    pub sigma_mu_d2d: f64,
    /// Truncation (in sigmas) applied to all die-to-die draws.
    pub d2d_truncation: f64,
    /// Correlation between the NMOS and PMOS die-to-die threshold shifts
    /// (shared anneal/litho causes; 0 = independent, 1 = identical).
    pub nvt_pvt_correlation: f64,
    /// Within-die field configuration for NMOS thresholds.
    pub wid_vtn: SpatialConfig,
    /// Within-die field configuration for PMOS thresholds.
    pub wid_vtp: SpatialConfig,
}

impl VariationModel {
    /// Builds the default model for `tech`.
    ///
    /// The within-die sigma is derived from the Pelgrom coefficient at the
    /// gate area of a typical ring-oscillator device in this work
    /// (W = 0.5 µm, L = 0.06 µm per device, ~12 devices averaging within a
    /// stage chain reduces the effective per-oscillator sigma by √12).
    #[must_use]
    pub fn new(tech: &Technology) -> Self {
        let device_area: f64 = 0.5 * 0.06; // µm²
        let sigma_device = tech.avt_pelgrom / device_area.sqrt();
        // Averaging over the stages of one oscillator.
        let stages_averaged = 12.0_f64;
        let sigma_ro = sigma_device / stages_averaged.sqrt();
        VariationModel {
            sigma_vt_d2d: tech.sigma_vt_d2d,
            sigma_mu_d2d: 0.03,
            d2d_truncation: 3.0,
            nvt_pvt_correlation: 0.3,
            wid_vtn: SpatialConfig::vt_default(sigma_ro),
            wid_vtp: SpatialConfig::vt_default(sigma_ro),
        }
    }

    /// A model with all randomness disabled (every die is nominal).
    /// Useful for isolating deterministic effects in tests and ablations.
    #[must_use]
    pub fn deterministic() -> Self {
        VariationModel {
            sigma_vt_d2d: Volt::ZERO,
            sigma_mu_d2d: 0.0,
            d2d_truncation: 3.0,
            nvt_pvt_correlation: 0.0,
            wid_vtn: SpatialConfig::vt_default(0.0),
            wid_vtp: SpatialConfig::vt_default(0.0),
        }
    }

    /// Draws one die from the population.
    pub fn sample_die<R: Rng + ?Sized>(&self, rng: &mut R) -> DieSample {
        self.sample_die_with_id(rng, 0)
    }

    /// Draws one die, tagging it with `die_id` for traceability.
    ///
    /// One-shot form: builds the within-die interpolation stencils afresh.
    /// Population loops should hoist that work with [`VariationModel::sampler`]
    /// and draw every die through the one [`DieSampler`] (bit-identical).
    pub fn sample_die_with_id<R: Rng + ?Sized>(&self, rng: &mut R, die_id: u64) -> DieSample {
        self.sampler().sample_die_with_id(rng, die_id)
    }

    /// Precomputes the per-die-invariant sampling state (the within-die
    /// bilinear stencils) for drawing many dies from this model.
    #[must_use]
    pub fn sampler(&self) -> DieSampler {
        DieSampler {
            sigma_vt_d2d: self.sigma_vt_d2d,
            sigma_mu_d2d: self.sigma_mu_d2d,
            d2d_truncation: self.d2d_truncation,
            nvt_pvt_correlation: self.nvt_pvt_correlation,
            vtn_stencil: SpatialStencil::new(&self.wid_vtn),
            vtp_stencil: SpatialStencil::new(&self.wid_vtp),
        }
    }

    /// Deterministic die at a named global corner (no WID, no mobility
    /// randomness) — used for the corner-robustness table.
    #[must_use]
    pub fn corner_die(&self, corner: ProcessCorner, tech: &Technology) -> DieSample {
        DieSample::at_corner(corner, tech)
    }
}

/// Per-polarity salts for the counter-based field streams: both within-die
/// fields of a die share one `field_seed` root, so each polarity xors in a
/// distinct constant before the avalanche finalizer to get an independent
/// stream.
const VTN_FIELD_SALT: u64 = 0xd1b5_4a32_d192_ed03;
const VTP_FIELD_SALT: u64 = 0x8cb9_2ba7_2f3d_8dd7;

/// Reusable die-drawing state snapshotted from a [`VariationModel`]: the
/// die-to-die parameters plus the two within-die [`SpatialStencil`]s, built
/// once and reused for every die of a population (the Monte-Carlo hot path).
///
/// Draws are bit-identical to [`VariationModel::sample_die_with_id`] — which
/// is itself a thin wrapper over a freshly-built sampler — consuming the RNG
/// stream identically.
#[derive(Debug, Clone, PartialEq)]
pub struct DieSampler {
    sigma_vt_d2d: Volt,
    sigma_mu_d2d: f64,
    d2d_truncation: f64,
    nvt_pvt_correlation: f64,
    vtn_stencil: SpatialStencil,
    vtp_stencil: SpatialStencil,
}

impl DieSampler {
    /// Draws one die from the population.
    pub fn sample_die<R: Rng + ?Sized>(&mut self, rng: &mut R) -> DieSample {
        self.sample_die_with_id(rng, 0)
    }

    /// Draws one die, tagging it with `die_id` for traceability.
    pub fn sample_die_with_id<R: Rng + ?Sized>(&mut self, rng: &mut R, die_id: u64) -> DieSample {
        self.sample_die_inner(rng, die_id)
    }

    /// Draws one die with **sparse, counter-based** within-die fields: only
    /// the cells the masks mark as read are realized; every other cell is
    /// never drawn and stores `0.0` (see
    /// [`SpatialStencil::generate_sparse`]).
    ///
    /// This is the batch-population sampling discipline, split over two
    /// documented streams:
    ///
    /// * the **main stream** `rng` carries exactly the die-to-die draws, in
    ///   [`DieSampler::sample_die_with_id`]'s order (shared, zn, zp, μn,
    ///   μp), and is left positioned right after them — the caller keeps
    ///   using it for the die's measurement-gating draws;
    /// * the **field streams**, rooted at `field_seed` (salted per
    ///   polarity), make every field cell a pure function of
    ///   `(field_seed, field, cell)` — unread cells cost nothing, and read
    ///   cells are invariant under mask changes, sampling order, and
    ///   chunking.
    ///
    /// The die-to-die parameters are bit-identical to
    /// [`DieSampler::sample_die_with_id`] from the same `rng` state; the
    /// within-die fields are an equally-distributed but numerically
    /// different population (the sequential sampler draws them from the
    /// main stream instead).
    pub fn sample_die_sparse<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        field_seed: u64,
        die_id: u64,
        vtn_mask: &FieldMask,
        vtp_mask: &FieldMask,
    ) -> DieSample {
        let k = self.d2d_truncation;
        let s = self.sigma_vt_d2d.0;
        let rho = self.nvt_pvt_correlation;
        let shared = truncated_normal(rng, 0.0, 1.0, k);
        let zn = truncated_normal(rng, 0.0, 1.0, k);
        let zp = truncated_normal(rng, 0.0, 1.0, k);
        let d_vtn = s * (rho.sqrt() * shared + (1.0 - rho).sqrt() * zn);
        let d_vtp = s * (rho.sqrt() * shared + (1.0 - rho).sqrt() * zp);
        let mu_n = (1.0 + normal(rng, 0.0, self.sigma_mu_d2d)).max(0.5);
        let mu_p = (1.0 + normal(rng, 0.0, self.sigma_mu_d2d)).max(0.5);
        let vtn_wid = self
            .vtn_stencil
            .generate_sparse(SplitMix64::finalize(field_seed ^ VTN_FIELD_SALT), vtn_mask);
        let vtp_wid = self
            .vtp_stencil
            .generate_sparse(SplitMix64::finalize(field_seed ^ VTP_FIELD_SALT), vtp_mask);
        DieSample {
            die_id,
            d_vtn_d2d: Volt(d_vtn),
            d_vtp_d2d: Volt(d_vtp),
            mu_n_d2d: mu_n,
            mu_p_d2d: mu_p,
            vtn_wid,
            vtp_wid,
        }
    }

    /// Masks for both within-die fields covering bilinear reads at the given
    /// normalized die coordinates.
    #[must_use]
    pub fn field_masks(&self, points: &[(f64, f64)]) -> (FieldMask, FieldMask) {
        let (nnx, nny) = self.vtn_stencil.resolution();
        let (pnx, pny) = self.vtp_stencil.resolution();
        (
            FieldMask::for_reads(nnx, nny, points),
            FieldMask::for_reads(pnx, pny, points),
        )
    }

    fn sample_die_inner<R: Rng + ?Sized>(&mut self, rng: &mut R, die_id: u64) -> DieSample {
        let k = self.d2d_truncation;
        let s = self.sigma_vt_d2d.0;
        // Correlated bivariate normal for (ΔVtn, ΔVtp): shared + independent.
        let rho = self.nvt_pvt_correlation;
        let shared = truncated_normal(rng, 0.0, 1.0, k);
        let zn = truncated_normal(rng, 0.0, 1.0, k);
        let zp = truncated_normal(rng, 0.0, 1.0, k);
        let d_vtn = s * (rho.sqrt() * shared + (1.0 - rho).sqrt() * zn);
        let d_vtp = s * (rho.sqrt() * shared + (1.0 - rho).sqrt() * zp);

        let mu_n = (1.0 + normal(rng, 0.0, self.sigma_mu_d2d)).max(0.5);
        let mu_p = (1.0 + normal(rng, 0.0, self.sigma_mu_d2d)).max(0.5);

        let vtn_wid = self.vtn_stencil.generate(rng);
        let vtp_wid = self.vtp_stencil.generate(rng);
        DieSample {
            die_id,
            d_vtn_d2d: Volt(d_vtn),
            d_vtp_d2d: Volt(d_vtp),
            mu_n_d2d: mu_n,
            mu_p_d2d: mu_p,
            vtn_wid,
            vtp_wid,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::OnlineStats;
    use ptsim_rng::Pcg64;

    fn model() -> VariationModel {
        VariationModel::new(&Technology::n65())
    }

    #[test]
    fn d2d_spread_matches_configured_sigma() {
        let m = model();
        let mut rng = Pcg64::seed_from_u64(123);
        let mut sn = OnlineStats::new();
        let mut sp = OnlineStats::new();
        for i in 0..4000 {
            let die = m.sample_die_with_id(&mut rng, i);
            sn.push(die.d_vtn_d2d.0);
            sp.push(die.d_vtp_d2d.0);
        }
        // Truncation at 3 sigma shrinks sd by ~1.3%; allow 6% tolerance.
        assert!((sn.std_dev() - m.sigma_vt_d2d.0).abs() / m.sigma_vt_d2d.0 < 0.06);
        assert!((sp.std_dev() - m.sigma_vt_d2d.0).abs() / m.sigma_vt_d2d.0 < 0.06);
        assert!(sn.mean().abs() < 0.002);
    }

    #[test]
    fn d2d_draws_are_truncated() {
        let m = model();
        let mut rng = Pcg64::seed_from_u64(9);
        for i in 0..20_000 {
            let die = m.sample_die_with_id(&mut rng, i);
            // Correlated construction can slightly exceed k·sigma when the
            // shared and independent parts align; bound is k·sigma·(√ρ+√(1−ρ)).
            let bound = m.d2d_truncation
                * m.sigma_vt_d2d.0
                * (m.nvt_pvt_correlation.sqrt() + (1.0 - m.nvt_pvt_correlation).sqrt());
            assert!(die.d_vtn_d2d.0.abs() <= bound + 1e-12);
        }
    }

    #[test]
    fn nmos_pmos_shifts_positively_correlated() {
        let m = model();
        let mut rng = Pcg64::seed_from_u64(321);
        let n = 8000;
        let mut sum_np = 0.0;
        let mut sn = OnlineStats::new();
        let mut sp = OnlineStats::new();
        for i in 0..n {
            let die = m.sample_die_with_id(&mut rng, i);
            sum_np += die.d_vtn_d2d.0 * die.d_vtp_d2d.0;
            sn.push(die.d_vtn_d2d.0);
            sp.push(die.d_vtp_d2d.0);
        }
        let corr = (sum_np / n as f64) / (sn.std_dev() * sp.std_dev());
        assert!(
            (corr - m.nvt_pvt_correlation).abs() < 0.08,
            "measured correlation {corr}"
        );
    }

    #[test]
    fn mobility_factors_near_unity() {
        let m = model();
        let mut rng = Pcg64::seed_from_u64(5);
        let die = m.sample_die(&mut rng);
        assert!(die.mu_n_d2d > 0.5 && die.mu_n_d2d < 1.5);
        assert!(die.mu_p_d2d > 0.5 && die.mu_p_d2d < 1.5);
    }

    #[test]
    fn deterministic_model_yields_nominal_dies() {
        let m = VariationModel::deterministic();
        let mut rng = Pcg64::seed_from_u64(1);
        let die = m.sample_die(&mut rng);
        assert_eq!(die.d_vtn_d2d, Volt::ZERO);
        assert_eq!(die.d_vtp_d2d, Volt::ZERO);
        assert_eq!(die.mu_n_d2d, 1.0);
    }

    #[test]
    fn corner_die_is_deterministic() {
        let tech = Technology::n65();
        let m = model();
        let a = m.corner_die(ProcessCorner::FF, &tech);
        let b = m.corner_die(ProcessCorner::FF, &tech);
        assert_eq!(a, b);
    }

    #[test]
    fn sparse_sampling_reuses_the_scalar_d2d_draw_order() {
        // The main stream carries exactly the die-to-die draws: the sparse
        // sampler's d2d parameters are bit-identical to full sampling from
        // the same stream state, and the stream afterwards sits right
        // after them (field draws never touch it).
        let m = model();
        let sites = [(0.496, 0.5), (0.504, 0.5), (0.5, 0.504)];
        let mut full = m.sampler();
        let mut sparse = m.sampler();
        let (vtn_mask, vtp_mask) = sparse.field_masks(&sites);
        for i in 0..16u64 {
            let mut rng_a = Pcg64::seed_from_u64(99 + i);
            let mut rng_b = Pcg64::seed_from_u64(99 + i);
            let a = full.sample_die_with_id(&mut rng_a, i);
            let b = sparse.sample_die_sparse(&mut rng_b, 7 * i, i, &vtn_mask, &vtp_mask);
            assert_eq!(a.d_vtn_d2d, b.d_vtn_d2d);
            assert_eq!(a.d_vtp_d2d, b.d_vtp_d2d);
            assert_eq!(a.mu_n_d2d.to_bits(), b.mu_n_d2d.to_bits());
            assert_eq!(a.mu_p_d2d.to_bits(), b.mu_p_d2d.to_bits());
        }
    }

    #[test]
    fn sparse_sampling_is_mask_invariant_and_deterministic() {
        let m = model();
        let shared_sites = [(0.496, 0.5), (0.504, 0.5)];
        let mut narrow = m.sampler();
        let mut wide = m.sampler();
        let (vtn_narrow, vtp_narrow) = narrow.field_masks(&shared_sites);
        let mut wide_pts = shared_sites.to_vec();
        wide_pts.push((0.1, 0.9));
        let (vtn_wide, vtp_wide) = wide.field_masks(&wide_pts);
        for i in 0..8u64 {
            let mut rng_a = Pcg64::seed_from_u64(7 + i);
            let mut rng_b = Pcg64::seed_from_u64(7 + i);
            let a = narrow.sample_die_sparse(&mut rng_a, 1000 + i, i, &vtn_narrow, &vtp_narrow);
            let b = wide.sample_die_sparse(&mut rng_b, 1000 + i, i, &vtn_wide, &vtp_wide);
            for &(x, y) in &shared_sites {
                assert_eq!(
                    a.vtn_wid.at(x, y).to_bits(),
                    b.vtn_wid.at(x, y).to_bits(),
                    "vtn field value depends on the mask at ({x}, {y})"
                );
                assert_eq!(a.vtp_wid.at(x, y).to_bits(), b.vtp_wid.at(x, y).to_bits());
            }
            // Residual main streams agree: neither mask touched them.
            assert_eq!(rng_a.next(), rng_b.next());
        }
    }

    #[test]
    fn sparse_field_streams_leave_the_main_stream_alone() {
        let m = model();
        let mut sampler = m.sampler();
        let (vtn_mask, vtp_mask) = sampler.field_masks(&[(0.5, 0.5)]);
        let mut rng = Pcg64::seed_from_u64(42);
        let die = sampler.sample_die_sparse(&mut rng, 3, 0, &vtn_mask, &vtp_mask);
        // Replay just the d2d draws by hand; the streams must line up.
        let mut replay = Pcg64::seed_from_u64(42);
        let k = m.d2d_truncation;
        for _ in 0..3 {
            let _ = ptsim_rng::gaussian::truncated_normal(&mut replay, 0.0, 1.0, k);
        }
        for _ in 0..2 {
            let _ = ptsim_rng::gaussian::normal(&mut replay, 0.0, m.sigma_mu_d2d);
        }
        assert_eq!(rng.next(), replay.next());
        // And the two polarities drew independent (distinct) fields.
        assert_ne!(
            die.vtn_wid.at(0.5, 0.5).to_bits(),
            die.vtp_wid.at(0.5, 0.5).to_bits()
        );
    }

    #[test]
    fn die_id_is_propagated() {
        let m = model();
        let mut rng = Pcg64::seed_from_u64(0);
        assert_eq!(m.sample_die_with_id(&mut rng, 42).die_id, 42);
    }

    #[test]
    fn wid_sigma_is_derived_from_pelgrom() {
        let tech = Technology::n65();
        let m = VariationModel::new(&tech);
        // σ_device = Avt/√(W·L), reduced by √12 stage averaging.
        let expected = tech.avt_pelgrom / (0.5_f64 * 0.06).sqrt() / 12.0_f64.sqrt();
        assert!((m.wid_vtn.sigma - expected).abs() < 1e-12);
    }
}
