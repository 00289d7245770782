//! Geometric multigrid steady-state solver.
//!
//! The production solver for large grids: a V-cycle over a hierarchy of
//! conductance networks, each level coarsening the in-plane grid 2× per
//! axis (tiers are few and carry the non-uniform TSV conductances, so the
//! vertical dimension is never coarsened — semi-coarsening in `z`).
//!
//! * **Smoother** — red-black Gauss–Seidel: cells are two-colored by
//!   `(ix + iy + tier) parity`, so every neighbour of a cell has the other
//!   color and a half-sweep over one color reads only the frozen other
//!   color. That makes the sweep embarrassingly parallel *and* bit-exactly
//!   independent of thread count and traversal order (each cell's update
//!   is a pure function of the other color), which is what the
//!   determinism gates rely on.
//! * **Restriction** — full-weighting over 2×2 in-plane blocks, realised
//!   as a block *sum* of residuals (residuals are cell-integrated watts,
//!   so the coarse cell's right-hand side is the sum of its fine cells' —
//!   the block-average variant only rescales both sides of the coarse
//!   equation by the block size, which leaves the correction unchanged);
//!   odd grid edges become width-1 blocks with no padding.
//! * **Prolongation** — trilinear interpolation of the coarse correction;
//!   with `z` uncoarsened it reduces to bilinear interpolation between
//!   the geometric centres of the (possibly width-1) coarse blocks,
//!   clamped at the die edges. Interpolation order 2 plus restriction
//!   order 1 exceeds the order of the second-order operator, which is the
//!   classical condition for level-independent V-cycle convergence on
//!   cell-centred grids.
//! * **Coarse operator** — conductance rediscretization: a coarse lateral
//!   link sums the fine conductances crossing the coarse-block boundary
//!   (parallel paths) scaled by the inverse centre-to-centre block
//!   distance (longer series path), block-internal links vanish, and
//!   vertical/ground conductances sum over the block — so every level is
//!   again a well-posed grounded RC network (symmetric M-matrix) of the
//!   same shape as the finest one.
//! * **Coarsest level** — once the in-plane grid is ≤ 2×2 the remaining
//!   `tiers × nx × ny` system is solved directly by a dense Cholesky
//!   factorisation computed once at setup.
//!
//! The solver is graded on the residual 2-norm of the *same* linear
//! system the lexicographic [`crate::solve::solve_steady_state`] oracle
//! solves (`A·T = b` with
//! `b = P + g_boundary·T_ambient`), not on sweep-order identity: the
//! oracle remains the default/bit-exact reference at small sizes, and the
//! multigrid path converges to it within the tolerance documented in
//! EXPERIMENTS.md.

use crate::error::ThermalError;
use crate::linalg::norm2;
use crate::solve::SolveStats;
use crate::stack::ThermalStack;

/// Minimum cells on a level before a color half-sweep is split across
/// worker threads; below this the scoped-thread dispatch costs more than
/// the sweep.
const PARALLEL_MIN_CELLS: usize = 2048;

/// Under-/over-relaxation of the red-black half-sweeps. Tuned
/// empirically on the reference stacks (see EXPERIMENTS.md); unlike the
/// lexicographic oracle's SOR factor this only shapes the *smoother*, so
/// the converged field is unaffected.
const SMOOTH_OMEGA: f64 = 1.3;

/// Options for the multigrid steady-state solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MgOptions {
    /// Convergence tolerance on the residual 2-norm relative to `‖b‖`.
    pub tolerance: f64,
    /// Maximum number of V-cycles before giving up.
    pub max_cycles: usize,
    /// Red-black smoothing sweeps before each coarse-grid correction.
    pub pre_smooth: usize,
    /// Red-black smoothing sweeps after each coarse-grid correction.
    pub post_smooth: usize,
    /// Worker threads for the red-black half-sweeps on levels with at
    /// least `PARALLEL_MIN_CELLS` cells. `0` means one per available CPU;
    /// results are bit-identical for every thread count.
    pub threads: usize,
}

impl Default for MgOptions {
    fn default() -> Self {
        MgOptions {
            tolerance: 1e-10,
            max_cycles: 200,
            pre_smooth: 2,
            post_smooth: 2,
            threads: 1,
        }
    }
}

/// One level of the hierarchy: a grounded conductance network over a
/// `tiers × ny × nx` cell grid. Arrays are flat in the stack's
/// tier-major, then row-major order; directional conductances are zero
/// where the neighbour does not exist.
#[derive(Debug, Clone)]
struct Level {
    tiers: usize,
    nx: usize,
    ny: usize,
    /// Conductance to the `ix + 1` neighbour (0 on the east edge), W/K.
    g_xp: Vec<f64>,
    /// Conductance to the `iy + 1` neighbour (0 on the north edge), W/K.
    g_yp: Vec<f64>,
    /// Conductance to the tier above (0 on the top tier), W/K.
    g_zp: Vec<f64>,
    /// Boundary (sink/board) conductance to ambient, W/K.
    g_ground: Vec<f64>,
    /// Row sum: every incident conductance plus ground, W/K.
    diag: Vec<f64>,
}

/// Per-level solve state, kept outside [`Level`] so the coefficient
/// tables can be borrowed immutably while the fields mutate.
#[derive(Debug, Clone)]
struct Work {
    /// Solution / correction on this level.
    x: Vec<f64>,
    /// Right-hand side (fine) or restricted residual (coarse).
    b: Vec<f64>,
    /// Residual workspace.
    r: Vec<f64>,
    /// Double buffer for parallel half-sweeps.
    scratch: Vec<f64>,
}

impl Work {
    fn new(n: usize) -> Self {
        Work {
            x: vec![0.0; n],
            b: vec![0.0; n],
            r: vec![0.0; n],
            scratch: vec![0.0; n],
        }
    }
}

/// 1D interpolation stencil for one fine index: the two bracketing coarse
/// indices and the weight of the second (`value = (1−w)·c[i0] + w·c[i1]`).
#[derive(Debug, Clone, Copy)]
struct Interp {
    i0: usize,
    i1: usize,
    w: f64,
}

/// Transfer operators between a fine level and the next coarser one:
/// per-axis linear-interpolation stencils from coarse block centres.
#[derive(Debug, Clone)]
struct Transfer {
    /// Per fine `ix` stencil into coarse `I`.
    fx: Vec<Interp>,
    /// Per fine `iy` stencil into coarse `J`.
    fy: Vec<Interp>,
}

impl Level {
    fn n_cells(&self) -> usize {
        self.nx * self.ny
    }

    fn len(&self) -> usize {
        self.tiers * self.nx * self.ny
    }

    /// Builds the finest level straight from the stack's RC network: the
    /// same conductances the Gauss–Seidel oracle sweeps with.
    fn from_stack(stack: &ThermalStack) -> Level {
        let (tiers, nx, ny) = stack.grid();
        let n_cells = nx * ny;
        let n = tiers * n_cells;
        let g_lat = stack.g_lat();
        let mut g_xp = vec![0.0; n];
        let mut g_yp = vec![0.0; n];
        let mut g_zp = vec![0.0; n];
        let mut g_ground = vec![0.0; n];
        for tier in 0..tiers {
            for iy in 0..ny {
                for ix in 0..nx {
                    let cell = iy * nx + ix;
                    let i = tier * n_cells + cell;
                    if ix + 1 < nx {
                        g_xp[i] = g_lat;
                    }
                    if iy + 1 < ny {
                        g_yp[i] = g_lat;
                    }
                    if tier + 1 < tiers {
                        g_zp[i] = stack.g_vert(tier)[cell];
                    }
                    if tier == 0 {
                        g_ground[i] += stack.g_board();
                    }
                    if tier + 1 == tiers {
                        g_ground[i] += stack.g_sink();
                    }
                }
            }
        }
        let mut level = Level {
            tiers,
            nx,
            ny,
            g_xp,
            g_yp,
            g_zp,
            g_ground,
            diag: Vec::new(),
        };
        level.rebuild_diag();
        level
    }

    fn rebuild_diag(&mut self) {
        let (nx, ny, tiers) = (self.nx, self.ny, self.tiers);
        let n_cells = nx * ny;
        let n = self.len();
        let mut diag = vec![0.0; n];
        for (i, d) in diag.iter_mut().enumerate() {
            let ix = i % nx;
            let iy = (i / nx) % ny;
            let tier = i / n_cells;
            let mut g = self.g_ground[i];
            if ix > 0 {
                g += self.g_xp[i - 1];
            }
            if ix + 1 < nx {
                g += self.g_xp[i];
            }
            if iy > 0 {
                g += self.g_yp[i - nx];
            }
            if iy + 1 < ny {
                g += self.g_yp[i];
            }
            if tier > 0 {
                g += self.g_zp[i - n_cells];
            }
            if tier + 1 < tiers {
                g += self.g_zp[i];
            }
            *d = g;
        }
        self.diag = diag;
    }

    /// `Σ g·x` over the (up to six) neighbours of flat cell `i`.
    #[inline]
    fn gather(&self, x: &[f64], i: usize, ix: usize, iy: usize, tier: usize) -> f64 {
        let nx = self.nx;
        let n_cells = self.n_cells();
        let mut gt = 0.0;
        if ix > 0 {
            gt += self.g_xp[i - 1] * x[i - 1];
        }
        if ix + 1 < nx {
            gt += self.g_xp[i] * x[i + 1];
        }
        if iy > 0 {
            gt += self.g_yp[i - nx] * x[i - nx];
        }
        if iy + 1 < self.ny {
            gt += self.g_yp[i] * x[i + nx];
        }
        if tier > 0 {
            gt += self.g_zp[i - n_cells] * x[i - n_cells];
        }
        if tier + 1 < self.tiers {
            gt += self.g_zp[i] * x[i + n_cells];
        }
        gt
    }

    /// Sequential in-place half-sweep over cells of one color. Reads only
    /// the other color, so it computes the same values as the parallel
    /// double-buffered variant bit for bit.
    fn half_sweep_seq(&self, x: &mut [f64], b: &[f64], color: usize) {
        let (nx, ny) = (self.nx, self.ny);
        for tier in 0..self.tiers {
            for iy in 0..ny {
                let first = (color + iy + tier) & 1;
                let row = tier * self.n_cells() + iy * nx;
                let mut ix = first;
                while ix < nx {
                    let i = row + ix;
                    let gt = self.gather(x, i, ix, iy, tier);
                    let gauss = (b[i] + gt) / self.diag[i];
                    x[i] += SMOOTH_OMEGA * (gauss - x[i]);
                    ix += 2;
                }
            }
        }
    }

    /// Parallel half-sweep: workers read the whole frozen field and write
    /// disjoint row bands of `scratch` (updated cells of `color`, copies
    /// of the rest), then the buffers swap. Chunk boundaries cannot
    /// influence any value, so the result is bit-identical to
    /// [`Level::half_sweep_seq`] for every thread count.
    fn half_sweep_par(
        &self,
        x: &mut Vec<f64>,
        scratch: &mut Vec<f64>,
        b: &[f64],
        color: usize,
        threads: usize,
    ) {
        let (nx, ny) = (self.nx, self.ny);
        let rows_total = self.tiers * ny;
        let rows_per = rows_total.div_ceil(threads);
        let src: &[f64] = x;
        std::thread::scope(|scope| {
            for (chunk_idx, out) in scratch.chunks_mut(rows_per * nx).enumerate() {
                let row0 = chunk_idx * rows_per;
                scope.spawn(move || {
                    for (local_row, gr) in (row0..(row0 + out.len() / nx)).enumerate() {
                        let tier = gr / ny;
                        let iy = gr % ny;
                        let base = gr * nx;
                        let first = (color + iy + tier) & 1;
                        for ix in 0..nx {
                            let i = base + ix;
                            let o = local_row * nx + ix;
                            out[o] = if ix % 2 == first {
                                let gt = self.gather(src, i, ix, iy, tier);
                                let gauss = (b[i] + gt) / self.diag[i];
                                src[i] + SMOOTH_OMEGA * (gauss - src[i])
                            } else {
                                src[i]
                            };
                        }
                    }
                });
            }
        });
        std::mem::swap(x, scratch);
    }

    /// One red-black Gauss–Seidel sweep (both colors).
    fn smooth(&self, work: &mut Work, threads: usize) {
        let par = threads > 1 && self.len() >= PARALLEL_MIN_CELLS;
        for color in 0..2 {
            if par {
                self.half_sweep_par(&mut work.x, &mut work.scratch, &work.b, color, threads);
            } else {
                self.half_sweep_seq(&mut work.x, &work.b, color);
            }
        }
    }

    /// `r = b − A·x`.
    fn residual(&self, x: &[f64], b: &[f64], r: &mut [f64]) {
        let (nx, ny) = (self.nx, self.ny);
        for tier in 0..self.tiers {
            for iy in 0..ny {
                for ix in 0..nx {
                    let i = tier * self.n_cells() + iy * nx + ix;
                    let gt = self.gather(x, i, ix, iy, tier);
                    r[i] = b[i] - (self.diag[i] * x[i] - gt);
                }
            }
        }
    }

    /// Builds the next-coarser level by conductance rediscretization over
    /// 2×2 in-plane blocks (odd edges become width-1 blocks): a coarse
    /// lateral link sums the fine links crossing the block boundary
    /// (parallel paths) and divides by the centre-to-centre distance of
    /// the two blocks in fine-cell units (longer series path — for the
    /// uniform interior, 2 crossing links over distance 2 reproduce the
    /// scale-invariant square-cell conductance exactly); vertical and
    /// ground conductances sum over the block (the tier axis is not
    /// coarsened, so those distances are unchanged). Block-internal links
    /// vanish. Every level is again a grounded RC network (symmetric
    /// M-matrix).
    fn coarsen(&self) -> Level {
        let (nx, ny, tiers) = (self.nx, self.ny, self.tiers);
        let ncx = nx.div_ceil(2);
        let ncy = ny.div_ceil(2);
        let nc_cells = ncx * ncy;
        let n_c = tiers * nc_cells;
        // Centre-to-centre distance between consecutive blocks, in units
        // of the fine spacing: (width_I + width_{I+1}) / 2.
        let block_w = |n: usize, i: usize| (n - 2 * i).min(2) as f64;
        let x_scale: Vec<f64> = (0..ncx.saturating_sub(1))
            .map(|i| 2.0 / (block_w(nx, i) + block_w(nx, i + 1)))
            .collect();
        let y_scale: Vec<f64> = (0..ncy.saturating_sub(1))
            .map(|j| 2.0 / (block_w(ny, j) + block_w(ny, j + 1)))
            .collect();
        let mut g_xp = vec![0.0; n_c];
        let mut g_yp = vec![0.0; n_c];
        let mut g_zp = vec![0.0; n_c];
        let mut g_ground = vec![0.0; n_c];
        for tier in 0..tiers {
            for iy in 0..ny {
                for ix in 0..nx {
                    let i = tier * self.n_cells() + iy * nx + ix;
                    let ci = tier * nc_cells + (iy / 2) * ncx + ix / 2;
                    g_ground[ci] += self.g_ground[i];
                    g_zp[ci] += self.g_zp[i];
                    // A fine link (ix → ix+1) crosses a coarse boundary iff
                    // ix is odd; ditto in y.
                    if ix % 2 == 1 && ix + 1 < nx {
                        g_xp[ci] += self.g_xp[i] * x_scale[ix / 2];
                    }
                    if iy % 2 == 1 && iy + 1 < ny {
                        g_yp[ci] += self.g_yp[i] * y_scale[iy / 2];
                    }
                }
            }
        }
        let mut level = Level {
            tiers,
            nx: ncx,
            ny: ncy,
            g_xp,
            g_yp,
            g_zp,
            g_ground,
            diag: Vec::new(),
        };
        level.rebuild_diag();
        level
    }

    /// Dense symmetric matrix of this level's network (for the coarsest
    /// direct solve).
    fn dense(&self) -> Vec<f64> {
        let n = self.len();
        let (nx, ny) = (self.nx, self.ny);
        let n_cells = self.n_cells();
        let mut a = vec![0.0; n * n];
        for tier in 0..self.tiers {
            for iy in 0..ny {
                for ix in 0..nx {
                    let i = tier * n_cells + iy * nx + ix;
                    a[i * n + i] = self.diag[i];
                    if ix + 1 < nx {
                        a[i * n + (i + 1)] = -self.g_xp[i];
                        a[(i + 1) * n + i] = -self.g_xp[i];
                    }
                    if iy + 1 < ny {
                        a[i * n + (i + nx)] = -self.g_yp[i];
                        a[(i + nx) * n + i] = -self.g_yp[i];
                    }
                    if tier + 1 < self.tiers {
                        a[i * n + (i + n_cells)] = -self.g_zp[i];
                        a[(i + n_cells) * n + i] = -self.g_zp[i];
                    }
                }
            }
        }
        a
    }
}

/// 1D linear-interpolation stencils from the centres of the coarse blocks
/// covering a fine axis of `n` cells (`nc = ⌈n/2⌉` blocks of width 2,
/// except a width-1 tail when `n` is odd). Fine centres outside the
/// outermost coarse centres clamp to piecewise-constant.
fn axis_interp(n: usize) -> Vec<Interp> {
    let nc = n.div_ceil(2);
    let centre = |i: usize| {
        let start = 2 * i;
        let width = (n - start).min(2);
        start as f64 + width as f64 / 2.0
    };
    (0..n)
        .map(|ix| {
            let f = ix as f64 + 0.5;
            if f <= centre(0) || nc == 1 {
                return Interp {
                    i0: 0,
                    i1: 0,
                    w: 0.0,
                };
            }
            if f >= centre(nc - 1) {
                return Interp {
                    i0: nc - 1,
                    i1: nc - 1,
                    w: 0.0,
                };
            }
            // f is strictly between the first and last centres; find the
            // bracketing pair (blocks are ≤ 2 wide, so ix/2 is within one
            // of the answer — a short scan keeps this obviously correct).
            let mut i0 = (ix / 2).min(nc - 2);
            while i0 > 0 && f < centre(i0) {
                i0 -= 1;
            }
            while i0 + 2 < nc && f > centre(i0 + 1) {
                i0 += 1;
            }
            let c0 = centre(i0);
            let c1 = centre(i0 + 1);
            Interp {
                i0,
                i1: i0 + 1,
                w: (f - c0) / (c1 - c0),
            }
        })
        .collect()
}

/// Cholesky factor (lower triangle, row-major) of a dense SPD matrix.
#[derive(Debug, Clone)]
struct Cholesky {
    n: usize,
    l: Vec<f64>,
}

impl Cholesky {
    fn factor(mut a: Vec<f64>, n: usize) -> Result<Cholesky, ThermalError> {
        for j in 0..n {
            for k in 0..j {
                let ljk = a[j * n + k];
                for i in j..n {
                    a[i * n + j] -= a[i * n + k] * ljk;
                }
            }
            let d = a[j * n + j];
            if !(d.is_finite() && d > 0.0) {
                return Err(ThermalError::InvalidGeometry {
                    name: "coarse_pivot",
                    value: d,
                });
            }
            let inv = 1.0 / d.sqrt();
            for i in j..n {
                a[i * n + j] *= inv;
            }
        }
        Ok(Cholesky { n, l: a })
    }

    /// Solves `L·Lᵀ·x = b`.
    // Triangular substitution reads `x` while writing it; the index form
    // is clearer than the iterator rewrite clippy suggests.
    #[allow(clippy::needless_range_loop)]
    fn solve(&self, b: &[f64], x: &mut [f64]) {
        let n = self.n;
        // Forward: L·y = b.
        for i in 0..n {
            let mut s = b[i];
            for k in 0..i {
                s -= self.l[i * n + k] * x[k];
            }
            x[i] = s / self.l[i * n + i];
        }
        // Back: Lᵀ·x = y.
        for i in (0..n).rev() {
            let mut s = x[i];
            for k in i + 1..n {
                s -= self.l[k * n + i] * x[k];
            }
            x[i] = s / self.l[i * n + i];
        }
    }
}

/// A reusable multigrid hierarchy for one stack geometry.
///
/// The hierarchy captures the conductance network (geometry, TSV bundles,
/// boundary resistances) at construction; the right-hand side (power maps,
/// ambient) is re-read from the stack on every [`MultigridSolver::cycle`],
/// so power edits between solves need no rebuild — geometry or TSV edits
/// do.
#[derive(Debug, Clone)]
pub struct MultigridSolver {
    opts: MgOptions,
    levels: Vec<Level>,
    transfers: Vec<Transfer>,
    work: Vec<Work>,
    coarse: Cholesky,
    threads: usize,
}

impl MultigridSolver {
    /// Builds the level hierarchy and factors the coarsest system.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidGeometry`] for out-of-range options
    /// (zero tolerance/cycles, no smoothing sweeps) or a non-positive
    /// coarse pivot (impossible for a validated [`StackConfig`]
    /// [`ThermalStack`]).
    ///
    /// [`StackConfig`]: crate::stack::StackConfig
    pub fn new(stack: &ThermalStack, opts: MgOptions) -> Result<Self, ThermalError> {
        if !(opts.tolerance.is_finite() && opts.tolerance > 0.0) {
            return Err(ThermalError::InvalidGeometry {
                name: "tolerance",
                value: opts.tolerance,
            });
        }
        if opts.max_cycles == 0 {
            return Err(ThermalError::InvalidGeometry {
                name: "max_cycles",
                value: 0.0,
            });
        }
        if opts.pre_smooth + opts.post_smooth == 0 {
            return Err(ThermalError::InvalidGeometry {
                name: "smooth_sweeps",
                value: 0.0,
            });
        }
        let threads = if opts.threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            opts.threads
        };

        let mut levels = vec![Level::from_stack(stack)];
        let mut transfers = Vec::new();
        while {
            let l = levels.last().expect("at least the fine level");
            l.nx * l.ny > 4
        } {
            let fine = levels.last().expect("at least the fine level");
            transfers.push(Transfer {
                fx: axis_interp(fine.nx),
                fy: axis_interp(fine.ny),
            });
            let coarse = fine.coarsen();
            levels.push(coarse);
        }
        let coarsest = levels.last().expect("at least one level");
        let coarse = Cholesky::factor(coarsest.dense(), coarsest.len())?;
        let work = levels.iter().map(|l| Work::new(l.len())).collect();
        Ok(MultigridSolver {
            opts,
            levels,
            transfers,
            work,
            coarse,
            threads,
        })
    }

    /// Number of levels in the hierarchy (1 = the dense solve alone).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Runs one V-cycle in place on the stack's temperature field and
    /// returns the relative residual `‖b − A·T‖₂ / ‖b‖₂` *after* the
    /// cycle. Exposed so property tests can assert per-cycle residual
    /// monotonicity.
    pub fn cycle(&mut self, stack: &mut ThermalStack) -> f64 {
        stack.steady_state_rhs(&mut self.work[0].b);
        let temps = stack.temps_mut();
        std::mem::swap(temps, &mut self.work[0].x);
        vcycle(
            &self.levels,
            &self.transfers,
            &mut self.work,
            &self.coarse,
            &self.opts,
            self.threads,
        );
        let rel = {
            let w = &mut self.work[0];
            self.levels[0].residual(&w.x, &w.b, &mut w.r);
            norm2(&w.r) / norm2(&w.b).max(f64::MIN_POSITIVE)
        };
        std::mem::swap(temps, &mut self.work[0].x);
        rel
    }

    /// Solves the stack to steady state in place (warm-starting from the
    /// current field), cycling until the relative residual reaches
    /// `opts.tolerance`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::NotConverged`] if `opts.max_cycles` V-cycles
    /// do not reach the tolerance.
    pub fn solve(&mut self, stack: &mut ThermalStack) -> Result<SolveStats, ThermalError> {
        // Warm-start check: the field may already satisfy the tolerance.
        stack.steady_state_rhs(&mut self.work[0].b);
        let initial = {
            let w = &mut self.work[0];
            self.levels[0].residual(stack.temps_mut(), &w.b, &mut w.r);
            norm2(&w.r) / norm2(&w.b).max(f64::MIN_POSITIVE)
        };
        if initial < self.opts.tolerance {
            return Ok(SolveStats {
                iterations: 0,
                residual: initial,
            });
        }
        let mut residual = initial;
        for cycle in 1..=self.opts.max_cycles {
            residual = self.cycle(stack);
            if residual < self.opts.tolerance {
                return Ok(SolveStats {
                    iterations: cycle,
                    residual,
                });
            }
        }
        Err(ThermalError::NotConverged {
            iterations: self.opts.max_cycles,
            residual,
        })
    }
}

/// Recursive V-cycle over the tail of the hierarchy slices; `levels`,
/// `work` and (one shorter) `transfers` always start at the current
/// level, so the borrow of the current [`Work`] splits cleanly from the
/// coarser ones.
fn vcycle(
    levels: &[Level],
    transfers: &[Transfer],
    work: &mut [Work],
    coarse: &Cholesky,
    opts: &MgOptions,
    threads: usize,
) {
    let (cur, rest) = work.split_first_mut().expect("non-empty hierarchy");
    let level = &levels[0];
    if rest.is_empty() {
        // Coarsest level: direct solve (b is the full right-hand side
        // here on a single-level hierarchy, the restricted residual
        // otherwise — either way the factorisation is exact).
        coarse.solve(&cur.b, &mut cur.x);
        return;
    }
    for _ in 0..opts.pre_smooth {
        level.smooth(cur, threads);
    }
    level.residual(&cur.x, &cur.b, &mut cur.r);
    let tr = &transfers[0];
    restrict(level, &levels[1], &cur.r, &mut rest[0].b);
    rest[0].x.iter_mut().for_each(|x| *x = 0.0);
    vcycle(&levels[1..], &transfers[1..], rest, coarse, opts, threads);
    prolong_add(level, &levels[1], tr, &rest[0].x, &mut cur.x);
    for _ in 0..opts.post_smooth {
        level.smooth(cur, threads);
    }
}

/// Full-weighting restriction, realised as a 2×2 in-plane block sum (odd
/// edges are width-1 blocks); tiers map one-to-one.
fn restrict(fine: &Level, coarse: &Level, r_fine: &[f64], b_coarse: &mut [f64]) {
    b_coarse.iter_mut().for_each(|b| *b = 0.0);
    let (nx, ny) = (fine.nx, fine.ny);
    let (ncx, ncy) = (coarse.nx, coarse.ny);
    debug_assert_eq!(ncx, nx.div_ceil(2));
    debug_assert_eq!(ncy, ny.div_ceil(2));
    for tier in 0..fine.tiers {
        let fbase = tier * nx * ny;
        let cbase = tier * ncx * ncy;
        for iy in 0..ny {
            let crow = cbase + (iy / 2) * ncx;
            let frow = fbase + iy * nx;
            for ix in 0..nx {
                b_coarse[crow + ix / 2] += r_fine[frow + ix];
            }
        }
    }
}

/// Adds the trilinearly interpolated coarse correction into the fine
/// field (bilinear in-plane between coarse block centres, identity across
/// the uncoarsened tier axis).
fn prolong_add(fine: &Level, coarse: &Level, tr: &Transfer, x_coarse: &[f64], x_fine: &mut [f64]) {
    let (nx, ny) = (fine.nx, fine.ny);
    let (ncx, ncy) = (coarse.nx, coarse.ny);
    for tier in 0..fine.tiers {
        let fbase = tier * nx * ny;
        let cbase = tier * ncx * ncy;
        for iy in 0..ny {
            let py = tr.fy[iy];
            let (wy0, wy1) = (1.0 - py.w, py.w);
            let c0 = cbase + py.i0 * ncx;
            let c1 = cbase + py.i1 * ncx;
            let frow = fbase + iy * nx;
            for ix in 0..nx {
                let px = tr.fx[ix];
                let (wx0, wx1) = (1.0 - px.w, px.w);
                let e = wy0 * (wx0 * x_coarse[c0 + px.i0] + wx1 * x_coarse[c0 + px.i1])
                    + wy1 * (wx0 * x_coarse[c1 + px.i0] + wx1 * x_coarse[c1 + px.i1]);
                x_fine[frow + ix] += e;
            }
        }
    }
}

/// Solves the stack to steady state in place with a freshly built
/// multigrid hierarchy — the convenience counterpart of
/// [`crate::solve::solve_steady_state`] (the lexicographic oracle).
/// Re-solving the same geometry
/// repeatedly is cheaper through a retained [`MultigridSolver`].
///
/// # Errors
///
/// Returns [`ThermalError::InvalidGeometry`] for invalid options and
/// [`ThermalError::NotConverged`] if `opts.max_cycles` V-cycles do not
/// reach `opts.tolerance`.
pub fn solve_steady_state_mg(
    stack: &mut ThermalStack,
    opts: &MgOptions,
) -> Result<SolveStats, ThermalError> {
    MultigridSolver::new(stack, *opts)?.solve(stack)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::PowerMap;
    use crate::solve::{solve_steady_state, SolveOptions};
    use crate::stack::{StackConfig, ThermalStack};
    use ptsim_device::units::Watt;

    fn loaded(nx: usize, ny: usize, tiers: usize) -> ThermalStack {
        let cfg = StackConfig {
            nx,
            ny,
            tiers,
            ..StackConfig::four_tier_5mm()
        };
        let mut s = ThermalStack::new(cfg).unwrap();
        let mut p = PowerMap::zero(nx, ny).unwrap();
        p.add_hotspot(0.3, 0.6, 0.12, Watt(1.5));
        s.set_power(0, p).unwrap();
        s
    }

    #[test]
    fn axis_interp_uniform_interior_weights() {
        let w = axis_interp(8);
        // Fine 4 sits at 4.5 between centres 3 (I=1) and 5 (I=2).
        assert_eq!((w[4].i0, w[4].i1), (1, 2));
        assert!((w[4].w - 0.75).abs() < 1e-12);
        assert_eq!((w[5].i0, w[5].i1), (2, 3));
        assert!((w[5].w - 0.25).abs() < 1e-12);
        // Edges clamp.
        assert_eq!((w[0].i0, w[0].i1), (0, 0));
        assert_eq!((w[7].i0, w[7].i1), (3, 3));
    }

    #[test]
    fn axis_interp_handles_odd_and_tiny_axes() {
        for n in [1usize, 2, 3, 5, 7, 9, 11] {
            let nc = n.div_ceil(2);
            for (ix, p) in axis_interp(n).iter().enumerate() {
                assert!(p.i0 < nc && p.i1 < nc, "n={n} ix={ix}");
                assert!((0.0..=1.0).contains(&p.w), "n={n} ix={ix} w={}", p.w);
            }
        }
    }

    #[test]
    fn hierarchy_depth_matches_grid() {
        let s = loaded(32, 32, 4);
        let mg = MultigridSolver::new(&s, MgOptions::default()).unwrap();
        // 32 → 16 → 8 → 4 → 2 : five levels.
        assert_eq!(mg.depth(), 5);
        let s = loaded(2, 2, 4);
        let mg = MultigridSolver::new(&s, MgOptions::default()).unwrap();
        assert_eq!(mg.depth(), 1);
    }

    #[test]
    fn coarse_levels_conserve_total_conductance_to_ground() {
        let s = loaded(13, 9, 3);
        let mg = MultigridSolver::new(&s, MgOptions::default()).unwrap();
        let fine_ground: f64 = mg.levels[0].g_ground.iter().sum();
        for l in &mg.levels[1..] {
            let g: f64 = l.g_ground.iter().sum();
            assert!((g - fine_ground).abs() < 1e-12 * fine_ground.max(1.0));
        }
    }

    #[test]
    fn matches_gauss_seidel_oracle_on_default_stack() {
        let mut gs = loaded(16, 16, 4);
        solve_steady_state(&mut gs, &SolveOptions::default()).unwrap();
        let mut mg = loaded(16, 16, 4);
        let stats = solve_steady_state_mg(&mut mg, &MgOptions::default()).unwrap();
        assert!(stats.residual < 1e-10);
        for tier in 0..4 {
            for iy in 0..16 {
                for ix in 0..16 {
                    let a = gs.temperature(tier, ix, iy).unwrap().0;
                    let b = mg.temperature(tier, ix, iy).unwrap().0;
                    assert!(
                        (a - b).abs() < 1e-3,
                        "tier {tier} cell ({ix},{iy}): GS {a:.6} vs MG {b:.6}"
                    );
                }
            }
        }
    }

    #[test]
    fn warm_start_returns_immediately() {
        let mut s = loaded(16, 16, 2);
        let opts = MgOptions::default();
        let cold = solve_steady_state_mg(&mut s, &opts).unwrap();
        assert!(cold.iterations >= 1);
        let warm = solve_steady_state_mg(&mut s, &opts).unwrap();
        assert_eq!(warm.iterations, 0);
    }

    #[test]
    fn rejects_bad_options() {
        let s = loaded(8, 8, 1);
        for opts in [
            MgOptions {
                tolerance: 0.0,
                ..MgOptions::default()
            },
            MgOptions {
                max_cycles: 0,
                ..MgOptions::default()
            },
            MgOptions {
                pre_smooth: 0,
                post_smooth: 0,
                ..MgOptions::default()
            },
        ] {
            assert!(matches!(
                MultigridSolver::new(&s, opts),
                Err(ThermalError::InvalidGeometry { .. })
            ));
        }
    }

    #[test]
    fn not_converged_is_reported() {
        let mut s = loaded(32, 32, 4);
        let opts = MgOptions {
            max_cycles: 1,
            pre_smooth: 1,
            post_smooth: 0,
            ..MgOptions::default()
        };
        assert!(matches!(
            solve_steady_state_mg(&mut s, &opts),
            Err(ThermalError::NotConverged { .. })
        ));
    }

    #[test]
    fn cholesky_solves_small_spd_system() {
        // 2×2 SPD: [[4, 1], [1, 3]] · x = [1, 2] → x = [1/11, 7/11].
        let chol = Cholesky::factor(vec![4.0, 1.0, 1.0, 3.0], 2).unwrap();
        let mut x = [0.0; 2];
        chol.solve(&[1.0, 2.0], &mut x);
        assert!((x[0] - 1.0 / 11.0).abs() < 1e-12);
        assert!((x[1] - 7.0 / 11.0).abs() < 1e-12);
    }
}
