//! Within-die spatially-correlated variation fields.
//!
//! Within-die (WID) threshold variation is not white noise: neighbouring
//! devices see correlated shifts (shared lithography/anneal gradients) plus
//! an uncorrelated local-mismatch component. We model this with the standard
//! two-layer construction: a coarse Gaussian grid, bilinearly interpolated
//! across the die (the correlated layer), plus independent per-cell noise,
//! mixed so the total variance equals `sigma²`.

use ptsim_rng::gaussian::standard_normal;
use ptsim_rng::{Rng, SplitMix64};

/// Configuration of a within-die variation field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpatialConfig {
    /// Fine-grid resolution in X (cells across the die).
    pub nx: usize,
    /// Fine-grid resolution in Y.
    pub ny: usize,
    /// Total standard deviation of the field.
    pub sigma: f64,
    /// Correlation length as a fraction of the die edge (0 < ℓ ≤ 1).
    pub correlation_length: f64,
    /// Fraction of the variance carried by the spatially-correlated layer
    /// (the rest is uncorrelated local mismatch). Must be in `[0, 1]`.
    pub correlated_fraction: f64,
}

impl SpatialConfig {
    /// Default field for threshold variation on a sensor-scale die.
    #[must_use]
    pub fn vt_default(sigma: f64) -> Self {
        SpatialConfig {
            nx: 16,
            ny: 16,
            sigma,
            correlation_length: 0.4,
            correlated_fraction: 0.5,
        }
    }

    fn validate(&self) {
        assert!(self.nx >= 1 && self.ny >= 1, "grid must be at least 1x1");
        assert!(self.sigma >= 0.0, "sigma must be non-negative");
        assert!(
            self.correlation_length > 0.0 && self.correlation_length <= 1.0,
            "correlation length must be in (0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.correlated_fraction),
            "correlated fraction must be in [0, 1]"
        );
    }
}

impl Default for SpatialConfig {
    fn default() -> Self {
        SpatialConfig::vt_default(1.0)
    }
}

/// A realized spatial field over normalized die coordinates `[0,1]²`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialField {
    nx: usize,
    ny: usize,
    values: Vec<f64>,
}

impl SpatialField {
    /// Generates a field realization.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is malformed (zero grid, negative sigma, correlation
    /// parameters out of range).
    pub fn generate<R: Rng + ?Sized>(cfg: &SpatialConfig, rng: &mut R) -> Self {
        SpatialStencil::new(cfg).generate(rng)
    }

    /// A field that is identically zero (used for corner-only dies).
    #[must_use]
    pub fn zero(nx: usize, ny: usize) -> Self {
        SpatialField {
            nx,
            ny,
            values: vec![0.0; nx * ny],
        }
    }

    /// Field value at a fine-grid cell.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    #[must_use]
    pub fn cell(&self, ix: usize, iy: usize) -> f64 {
        assert!(ix < self.nx && iy < self.ny, "cell index out of range");
        self.values[iy * self.nx + ix]
    }

    /// Bilinear sample at normalized die coordinates (clamped to `[0,1]`).
    #[must_use]
    pub fn at(&self, x: f64, y: f64) -> f64 {
        bilinear(
            &self.values,
            self.nx,
            self.ny,
            x.clamp(0.0, 1.0),
            y.clamp(0.0, 1.0),
        )
    }

    /// Grid resolution `(nx, ny)`.
    #[must_use]
    pub fn resolution(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Mean of all cells.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }
}

/// The set of fine-grid cells a workload will actually read from a
/// [`SpatialField`], built from the normalized coordinates it samples
/// through [`SpatialField::at`]. Each read point marks the (up to) four
/// grid nodes its bilinear interpolation touches, using the same
/// clamp/floor index math as the interpolator itself.
///
/// [`SpatialStencil::generate_sparse`] realizes only the marked cells;
/// see there for the counter-based sampling contract.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldMask {
    nx: usize,
    ny: usize,
    needed: Vec<bool>,
}

impl FieldMask {
    /// An empty mask (no cell needed) over an `nx × ny` fine grid.
    ///
    /// # Panics
    ///
    /// Panics on a zero-sized grid.
    #[must_use]
    pub fn new(nx: usize, ny: usize) -> Self {
        assert!(nx >= 1 && ny >= 1, "grid must be at least 1x1");
        FieldMask {
            nx,
            ny,
            needed: vec![false; nx * ny],
        }
    }

    /// A mask covering bilinear reads at the given normalized points.
    #[must_use]
    pub fn for_reads(nx: usize, ny: usize, points: &[(f64, f64)]) -> Self {
        let mut mask = FieldMask::new(nx, ny);
        for &(x, y) in points {
            mask.mark_read(x, y);
        }
        mask
    }

    /// Marks the grid nodes a bilinear sample at `(x, y)` reads.
    pub fn mark_read(&mut self, x: f64, y: f64) {
        let (nx, ny) = (self.nx, self.ny);
        if nx == 1 && ny == 1 {
            self.needed[0] = true;
            return;
        }
        let x = x.clamp(0.0, 1.0);
        let y = y.clamp(0.0, 1.0);
        let gx = x * (nx - 1).max(1) as f64;
        let gy = y * (ny - 1).max(1) as f64;
        let x0 = (gx.floor() as usize).min(nx - 1);
        let y0 = (gy.floor() as usize).min(ny - 1);
        let x1 = (x0 + 1).min(nx - 1);
        let y1 = (y0 + 1).min(ny - 1);
        for (ix, iy) in [(x0, y0), (x1, y0), (x0, y1), (x1, y1)] {
            self.needed[iy * nx + ix] = true;
        }
    }

    /// Grid resolution `(nx, ny)`.
    #[must_use]
    pub fn resolution(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Number of cells marked as needed.
    #[must_use]
    pub fn needed_cells(&self) -> usize {
        self.needed.iter().filter(|&&b| b).count()
    }
}

/// Precomputed interpolation geometry of one fine-grid cell: the coarse
/// nodes it reads, their effective (edge-folded) bilinear weights, and the
/// unit-variance renormalization divisor — everything in
/// [`bilinear_unit_variance`] that does not depend on the grid values.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CellStencil {
    idxs: [u32; 4],
    ws: [f64; 4],
    len: u8,
    /// `norm.max(1e-12)` — stored pre-clamped, used as the divisor verbatim.
    norm: f64,
}

impl CellStencil {
    /// The weight/norm computation of [`bilinear_unit_variance`], hoisted:
    /// pure grid geometry, identical for every die sampled from one
    /// [`SpatialConfig`].
    fn new(nx: usize, ny: usize, x: f64, y: f64) -> Self {
        if nx == 1 && ny == 1 {
            // The interpolator returns `grid[0]` untouched; weight 1 and
            // divisor 1 reproduce that exactly (`v * 1.0 / 1.0 == v`).
            return CellStencil {
                idxs: [0; 4],
                ws: [1.0, 0.0, 0.0, 0.0],
                len: 1,
                norm: 1.0,
            };
        }
        let gx = x * (nx - 1).max(1) as f64;
        let gy = y * (ny - 1).max(1) as f64;
        let x0 = (gx.floor() as usize).min(nx - 1);
        let y0 = (gy.floor() as usize).min(ny - 1);
        let x1 = (x0 + 1).min(nx - 1);
        let y1 = (y0 + 1).min(ny - 1);
        let tx = gx - x0 as f64;
        let ty = gy - y0 as f64;
        let (w00, w10, w01, w11) = (
            (1.0 - tx) * (1.0 - ty),
            tx * (1.0 - ty),
            (1.0 - tx) * ty,
            tx * ty,
        );
        // When x0==x1 (edge column) the two weights act on the same node;
        // fold them so the norm is computed over effective weights, in the
        // same first-seen order as the original list so sums stay
        // bit-identical.
        let mut idxs = [0u32; 4];
        let mut ws = [0.0f64; 4];
        let mut len = 0;
        for (idx, w) in [
            (y0 * nx + x0, w00),
            (y0 * nx + x1, w10),
            (y1 * nx + x0, w01),
            (y1 * nx + x1, w11),
        ] {
            if let Some(k) = idxs[..len].iter().position(|&i| i as usize == idx) {
                ws[k] += w;
            } else {
                idxs[len] = idx as u32;
                ws[len] = w;
                len += 1;
            }
        }
        let norm: f64 = ws[..len].iter().map(|w| w * w).sum::<f64>().sqrt();
        CellStencil {
            idxs,
            ws,
            len: len as u8,
            norm: norm.max(1e-12),
        }
    }

    /// Applies the stencil: the gather/renormalize half of
    /// [`bilinear_unit_variance`], with the same fold order.
    #[inline]
    fn apply(&self, grid: &[f64]) -> f64 {
        let len = self.len as usize;
        self.idxs[..len]
            .iter()
            .zip(&self.ws[..len])
            .map(|(&i, &w)| grid[i as usize] * w)
            .sum::<f64>()
            / self.norm
    }
}

/// Precomputed generator for [`SpatialField`]s of one [`SpatialConfig`].
///
/// [`SpatialField::generate`] recomputes the bilinear interpolation stencil
/// (node indices, edge-folded weights, unit-variance norms) for every fine
/// cell of every die, though the stencil is pure grid geometry — identical
/// across dies. A `SpatialStencil` hoists that work out of the per-die loop
/// and reuses one coarse-grid buffer across calls, so the per-die cost is
/// reduced to the Gaussian draws plus a short gather per cell.
///
/// **Bit-identity contract:** [`SpatialStencil::generate`] consumes the RNG
/// stream identically to — and produces fields bit-identical to — the
/// historical inline path ([`SpatialField::generate`] is now a thin wrapper
/// over a freshly-built stencil, so the two cannot drift apart).
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialStencil {
    sigma: f64,
    nx: usize,
    ny: usize,
    n_coarse: usize,
    w_corr: f64,
    w_local: f64,
    cells: Vec<CellStencil>,
    /// Reused coarse-grid realization buffer (drawn afresh per die).
    coarse: Vec<f64>,
    /// Reused sparse-path scratch: which coarse nodes any masked cell reads.
    coarse_needed: Vec<bool>,
}

/// One draw of the counter-based field sampler: standard normal number
/// `draw` of the stream rooted at `field_seed`, computed on a throwaway
/// [`SplitMix64`] generator seeded by an avalanche mix of the pair. The
/// value is a pure function of `(field_seed, draw)` — no shared stream, no
/// ordering constraints — which is what lets [`SpatialStencil::generate_sparse`]
/// skip unread draws entirely instead of replaying them. A dedicated
/// generator per draw absorbs the variable word count of the polar
/// sampler's rejection loop.
fn field_normal(field_seed: u64, draw: u64) -> f64 {
    let mut rng = SplitMix64::new(SplitMix64::finalize(
        field_seed ^ draw.wrapping_mul(0x9e37_79b9_7f4a_7c15),
    ));
    standard_normal(&mut rng)
}

impl SpatialStencil {
    /// Precomputes the generation stencil for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is malformed (zero grid, negative sigma, correlation
    /// parameters out of range).
    #[must_use]
    pub fn new(cfg: &SpatialConfig) -> Self {
        cfg.validate();
        // Coarse grid spacing ~ correlation length.
        let cnx = ((1.0 / cfg.correlation_length).ceil() as usize + 1).max(2);
        let cny = cnx;
        let mut cells = Vec::with_capacity(cfg.nx * cfg.ny);
        for iy in 0..cfg.ny {
            for ix in 0..cfg.nx {
                let fx = if cfg.nx == 1 {
                    0.5
                } else {
                    ix as f64 / (cfg.nx - 1) as f64
                };
                let fy = if cfg.ny == 1 {
                    0.5
                } else {
                    iy as f64 / (cfg.ny - 1) as f64
                };
                cells.push(CellStencil::new(cnx, cny, fx, fy));
            }
        }
        SpatialStencil {
            sigma: cfg.sigma,
            nx: cfg.nx,
            ny: cfg.ny,
            n_coarse: cnx * cny,
            w_corr: cfg.correlated_fraction.sqrt(),
            w_local: (1.0 - cfg.correlated_fraction).sqrt(),
            cells,
            coarse: Vec::new(),
            coarse_needed: Vec::new(),
        }
    }

    /// Generates a field realization — bit-identical to
    /// [`SpatialField::generate`] with the stencil's config, drawing the
    /// same RNG stream (coarse nodes first, then one local draw per fine
    /// cell, in row-major order).
    pub fn generate<R: Rng + ?Sized>(&mut self, rng: &mut R) -> SpatialField {
        self.coarse.clear();
        self.coarse
            .extend((0..self.n_coarse).map(|_| standard_normal(rng)));
        let mut values = Vec::with_capacity(self.nx * self.ny);
        for cell in &self.cells {
            let c = cell.apply(&self.coarse);
            let l = standard_normal(rng);
            values.push(self.sigma * (self.w_corr * c + self.w_local * l));
        }
        SpatialField {
            nx: self.nx,
            ny: self.ny,
            values,
        }
    }

    /// [`SpatialStencil::generate`] restricted to the cells a [`FieldMask`]
    /// marks as read — the sparse form the batch conversion hot path uses,
    /// where only the few cells under the sensor bank sites are ever
    /// sampled.
    ///
    /// Unlike [`SpatialStencil::generate`], which draws the whole field
    /// from one sequential RNG stream, the sparse generator is
    /// **counter-based**: every coarse node and every fine cell owns draw
    /// index `k` of the stream rooted at `field_seed`, and its value is a
    /// pure function of `(field_seed, k)` (coarse node `k` uses index `k`;
    /// fine cell `c` uses index `n_coarse + c`). Draws nobody reads are
    /// therefore *never made* — unmarked cells store `0.0` and cost
    /// nothing, and coarse nodes outside every marked cell's bilinear
    /// support are skipped too. The marked values are independent of the
    /// mask: any two masks that both mark a cell realize it bit-identically
    /// from the same `field_seed`, so sparse populations are deterministic
    /// in `(field_seed)` alone, with no stream-position coupling between
    /// cells or dies.
    ///
    /// The field statistics match [`SpatialStencil::generate`] exactly in
    /// distribution (same two-layer construction, i.i.d. standard-normal
    /// coarse and local draws), but a given seed realizes *different*
    /// numbers than the sequential path — the two samplers define separate,
    /// individually-documented populations.
    ///
    /// # Panics
    ///
    /// Panics if the mask resolution differs from the stencil's.
    pub fn generate_sparse(&mut self, field_seed: u64, mask: &FieldMask) -> SpatialField {
        assert_eq!(
            (mask.nx, mask.ny),
            (self.nx, self.ny),
            "mask/stencil resolution mismatch"
        );
        self.coarse_needed.clear();
        self.coarse_needed.resize(self.n_coarse, false);
        for (cell, &needed) in self.cells.iter().zip(&mask.needed) {
            if needed {
                for &i in &cell.idxs[..cell.len as usize] {
                    self.coarse_needed[i as usize] = true;
                }
            }
        }
        self.coarse.clear();
        self.coarse.resize(self.n_coarse, 0.0);
        for k in 0..self.n_coarse {
            if self.coarse_needed[k] {
                self.coarse[k] = field_normal(field_seed, k as u64);
            }
        }
        let mut values = Vec::with_capacity(self.nx * self.ny);
        for (c_idx, (cell, &needed)) in self.cells.iter().zip(&mask.needed).enumerate() {
            if needed {
                let c = cell.apply(&self.coarse);
                let l = field_normal(field_seed, (self.n_coarse + c_idx) as u64);
                values.push(self.sigma * (self.w_corr * c + self.w_local * l));
            } else {
                values.push(0.0);
            }
        }
        SpatialField {
            nx: self.nx,
            ny: self.ny,
            values,
        }
    }

    /// Fine-grid resolution `(nx, ny)` the stencil generates.
    #[must_use]
    pub fn resolution(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }
}

/// Bilinear interpolation of i.i.d. unit-variance grid values, renormalized
/// so the result itself has unit variance at every sample point (plain
/// bilinear interpolation would shrink the variance between grid nodes by up
/// to 4/9).
///
/// Retained (test-only) as the reference implementation the
/// [`SpatialStencil`] equivalence tests replay; the live path applies the
/// precomputed [`CellStencil`]s directly.
#[cfg(test)]
fn bilinear_unit_variance(grid: &[f64], nx: usize, ny: usize, x: f64, y: f64) -> f64 {
    if nx == 1 && ny == 1 {
        return grid[0];
    }
    CellStencil::new(nx, ny, x, y).apply(grid)
}

/// Bilinear interpolation on a row-major `nx × ny` grid with normalized
/// coordinates in `[0, 1]`.
fn bilinear(grid: &[f64], nx: usize, ny: usize, x: f64, y: f64) -> f64 {
    if nx == 1 && ny == 1 {
        return grid[0];
    }
    let gx = x * (nx - 1).max(1) as f64;
    let gy = y * (ny - 1).max(1) as f64;
    let x0 = (gx.floor() as usize).min(nx - 1);
    let y0 = (gy.floor() as usize).min(ny - 1);
    let x1 = (x0 + 1).min(nx - 1);
    let y1 = (y0 + 1).min(ny - 1);
    let tx = gx - x0 as f64;
    let ty = gy - y0 as f64;
    let v00 = grid[y0 * nx + x0];
    let v10 = grid[y0 * nx + x1];
    let v01 = grid[y1 * nx + x0];
    let v11 = grid[y1 * nx + x1];
    v00 * (1.0 - tx) * (1.0 - ty) + v10 * tx * (1.0 - ty) + v01 * (1.0 - tx) * ty + v11 * tx * ty
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::OnlineStats;
    use ptsim_rng::Pcg64;

    #[test]
    fn field_variance_close_to_sigma_squared() {
        let cfg = SpatialConfig {
            nx: 32,
            ny: 32,
            sigma: 2.0,
            correlation_length: 0.3,
            correlated_fraction: 0.5,
        };
        let mut rng = Pcg64::seed_from_u64(11);
        let mut stats = OnlineStats::new();
        for _ in 0..100 {
            let f = SpatialField::generate(&cfg, &mut rng);
            for iy in 0..32 {
                for ix in 0..32 {
                    stats.push(f.cell(ix, iy));
                }
            }
        }
        assert!(stats.mean().abs() < 0.1, "mean {}", stats.mean());
        assert!(
            (stats.std_dev() - 2.0).abs() < 0.15,
            "sd {}",
            stats.std_dev()
        );
    }

    #[test]
    fn neighbours_more_correlated_than_far_cells() {
        let cfg = SpatialConfig {
            nx: 32,
            ny: 32,
            sigma: 1.0,
            correlation_length: 0.5,
            correlated_fraction: 0.9,
        };
        let mut rng = Pcg64::seed_from_u64(5);
        let (mut near, mut far) = (0.0, 0.0);
        let n = 400;
        for _ in 0..n {
            let f = SpatialField::generate(&cfg, &mut rng);
            near += f.cell(0, 0) * f.cell(1, 0);
            far += f.cell(0, 0) * f.cell(31, 31);
        }
        near /= n as f64;
        far /= n as f64;
        assert!(
            near > far + 0.1,
            "near correlation {near} should exceed far {far}"
        );
    }

    #[test]
    fn zero_field_is_zero_everywhere() {
        let f = SpatialField::zero(8, 8);
        assert_eq!(f.at(0.3, 0.7), 0.0);
        assert_eq!(f.mean(), 0.0);
        assert_eq!(f.resolution(), (8, 8));
    }

    #[test]
    fn at_interpolates_between_cells() {
        let f = SpatialField {
            nx: 2,
            ny: 1,
            values: vec![0.0, 1.0],
        };
        assert!((f.at(0.5, 0.0) - 0.5).abs() < 1e-12);
        assert_eq!(f.at(0.0, 0.0), 0.0);
        assert_eq!(f.at(1.0, 0.0), 1.0);
    }

    #[test]
    fn at_clamps_out_of_range_coordinates() {
        let f = SpatialField {
            nx: 2,
            ny: 1,
            values: vec![3.0, 7.0],
        };
        assert_eq!(f.at(-1.0, 0.0), 3.0);
        assert_eq!(f.at(2.0, 0.0), 7.0);
    }

    /// Verbatim copy of the historical inline `SpatialField::generate` body
    /// (pre-`SpatialStencil`), kept as the bit-identity oracle.
    fn reference_generate(cfg: &SpatialConfig, rng: &mut impl ptsim_rng::Rng) -> (usize, Vec<f64>) {
        let cnx = ((1.0 / cfg.correlation_length).ceil() as usize + 1).max(2);
        let cny = cnx;
        let coarse: Vec<f64> = (0..cnx * cny).map(|_| standard_normal(rng)).collect();
        let w_corr = cfg.correlated_fraction.sqrt();
        let w_local = (1.0 - cfg.correlated_fraction).sqrt();
        let mut values = Vec::with_capacity(cfg.nx * cfg.ny);
        for iy in 0..cfg.ny {
            for ix in 0..cfg.nx {
                let fx = if cfg.nx == 1 {
                    0.5
                } else {
                    ix as f64 / (cfg.nx - 1) as f64
                };
                let fy = if cfg.ny == 1 {
                    0.5
                } else {
                    iy as f64 / (cfg.ny - 1) as f64
                };
                let c = bilinear_unit_variance(&coarse, cnx, cny, fx, fy);
                let l = standard_normal(rng);
                values.push(cfg.sigma * (w_corr * c + w_local * l));
            }
        }
        (cfg.nx, values)
    }

    ptsim_rng::forall! {
        #![cases = 24]
        #[test]
        fn stencil_generate_is_bit_identical_to_reference(
            seed in 0u64..1_000_000,
            nx in 1usize..24,
            ny in 1usize..24,
            sigma in 0.0f64..3.0,
            corr_len in 0.05f64..1.0,
            corr_frac in 0.0f64..1.0,
        ) {
            let cfg = SpatialConfig { nx, ny, sigma, correlation_length: corr_len, correlated_fraction: corr_frac };
            let mut stencil = SpatialStencil::new(&cfg);
            let mut rng_a = Pcg64::seed_from_u64(seed);
            let mut rng_b = Pcg64::seed_from_u64(seed);
            // Two back-to-back generations exercise coarse-buffer reuse.
            for _ in 0..2 {
                let field = stencil.generate(&mut rng_a);
                let (rnx, rvals) = reference_generate(&cfg, &mut rng_b);
                assert_eq!(field.nx, rnx);
                assert_eq!(field.values.len(), rvals.len());
                for (a, b) in field.values.iter().zip(&rvals) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                // Identical residual RNG state: same draw count on both paths.
                assert_eq!(rng_a.next(), rng_b.next());
            }
        }
    }

    ptsim_rng::forall! {
        #![cases = 24]
        #[test]
        fn sparse_generate_is_mask_invariant_at_shared_points(
            seed in 0u64..1_000_000,
            nx in 1usize..20,
            ny in 1usize..20,
            corr_frac in 0.0f64..1.0,
            px in -0.2f64..1.2,
            py in -0.2f64..1.2,
        ) {
            let cfg = SpatialConfig {
                nx,
                ny,
                sigma: 1.3,
                correlation_length: 0.4,
                correlated_fraction: corr_frac,
            };
            let shared = [(px, py), (0.5, 0.5)];
            let narrow = FieldMask::for_reads(nx, ny, &shared);
            let mut wide_pts = shared.to_vec();
            wide_pts.extend([(0.0, 1.0), (1.0, 0.0), (0.2, 0.8)]);
            let wide = FieldMask::for_reads(nx, ny, &wide_pts);
            let mut stencil = SpatialStencil::new(&cfg);
            // Counter-based draws: a cell's value depends only on
            // (field_seed, cell), never on which other cells a mask marks.
            let a = stencil.generate_sparse(seed, &narrow);
            let b = stencil.generate_sparse(seed, &wide);
            for &(x, y) in &shared {
                assert_eq!(a.at(x, y).to_bits(), b.at(x, y).to_bits());
            }
            // And the generator is deterministic in the seed alone.
            let c = stencil.generate_sparse(seed, &narrow);
            assert_eq!(a, c);
        }
    }

    #[test]
    fn sparse_generate_zeroes_unread_cells() {
        let cfg = SpatialConfig::vt_default(1.0);
        let mask = FieldMask::for_reads(cfg.nx, cfg.ny, &[(0.5, 0.5)]);
        assert_eq!(mask.needed_cells(), 4, "one interior read touches 4 nodes");
        let mut stencil = SpatialStencil::new(&cfg);
        let sparse = stencil.generate_sparse(3, &mask);
        let zeroes = (0..cfg.ny)
            .flat_map(|iy| (0..cfg.nx).map(move |ix| (ix, iy)))
            .filter(|&(ix, iy)| sparse.cell(ix, iy) == 0.0)
            .count();
        assert_eq!(zeroes, cfg.nx * cfg.ny - 4);
    }

    #[test]
    fn sparse_generate_has_the_configured_moments() {
        // The counter-based sampler must realize the same two-layer
        // statistics as the sequential one: unit-normal coarse + local
        // layers mixed to total variance sigma² at every read point.
        let cfg = SpatialConfig {
            nx: 16,
            ny: 16,
            sigma: 2.0,
            correlation_length: 0.3,
            correlated_fraction: 0.5,
        };
        // Read an exact fine-grid node: bilinear interpolation *between*
        // fine cells shrinks variance for the sequential sampler too, so
        // the sigma contract is stated on cell values.
        let point = (5.0 / 15.0, 9.0 / 15.0);
        let mask = FieldMask::for_reads(cfg.nx, cfg.ny, &[point]);
        let mut stencil = SpatialStencil::new(&cfg);
        let mut stats = OnlineStats::new();
        for seed in 0..4000u64 {
            let f = stencil.generate_sparse(seed, &mask);
            stats.push(f.cell(5, 9));
        }
        assert!(stats.mean().abs() < 0.1, "mean {}", stats.mean());
        assert!(
            (stats.std_dev() - 2.0).abs() < 0.15,
            "sd {}",
            stats.std_dev()
        );
    }

    #[test]
    fn sparse_neighbours_more_correlated_than_far_cells() {
        let cfg = SpatialConfig {
            nx: 32,
            ny: 32,
            sigma: 1.0,
            correlation_length: 0.5,
            correlated_fraction: 0.9,
        };
        let pts = [(0.0, 0.0), (1.0 / 31.0, 0.0), (1.0, 1.0)];
        let mask = FieldMask::for_reads(cfg.nx, cfg.ny, &pts);
        let mut stencil = SpatialStencil::new(&cfg);
        let (mut near, mut far) = (0.0, 0.0);
        let n = 400;
        for seed in 0..n {
            let f = stencil.generate_sparse(seed, &mask);
            near += f.cell(0, 0) * f.cell(1, 0);
            far += f.cell(0, 0) * f.cell(31, 31);
        }
        near /= f64::from(n as u32);
        far /= f64::from(n as u32);
        assert!(
            near > far + 0.1,
            "near correlation {near} should exceed far {far}"
        );
    }

    #[test]
    #[should_panic(expected = "resolution mismatch")]
    fn sparse_generate_rejects_wrong_resolution() {
        let cfg = SpatialConfig::vt_default(1.0);
        let mut stencil = SpatialStencil::new(&cfg);
        let mask = FieldMask::new(2, 2);
        let _ = stencil.generate_sparse(0, &mask);
    }

    #[test]
    fn deterministic_with_seed() {
        let cfg = SpatialConfig::vt_default(1.0);
        let a = SpatialField::generate(&cfg, &mut Pcg64::seed_from_u64(1));
        let b = SpatialField::generate(&cfg, &mut Pcg64::seed_from_u64(1));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "correlation length")]
    fn rejects_bad_correlation_length() {
        let cfg = SpatialConfig {
            correlation_length: 0.0,
            ..SpatialConfig::default()
        };
        let _ = SpatialField::generate(&cfg, &mut Pcg64::seed_from_u64(0));
    }

    #[test]
    fn single_cell_grid_works() {
        let cfg = SpatialConfig {
            nx: 1,
            ny: 1,
            sigma: 1.0,
            correlation_length: 0.5,
            correlated_fraction: 0.5,
        };
        let f = SpatialField::generate(&cfg, &mut Pcg64::seed_from_u64(3));
        assert!(f.at(0.5, 0.5).is_finite());
    }
}
