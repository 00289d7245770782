//! Small dense damped Newton–Raphson solver used by the decoupling math.
//!
//! The systems are tiny (1–4 unknowns), so a straightforward
//! partial-pivoting Gaussian elimination does the linear algebra. A system
//! is a [`System`] (scalar) or [`LaneSystem`] ([`LANES`] independent
//! systems in lock-step): its residual, and its Jacobian at the point of
//! the last residual call. The Jacobian comes from one of two places:
//!
//! * **analytic** — the analytic decoupling rows compute their partials in
//!   the same pass as the residual and cache them, so the Jacobian call is
//!   arithmetic on cached values and a converged final iteration never
//!   asks for it;
//! * **forward differences** — [`ForwardDifference`] wraps a residual-only
//!   closure (the characterized ROM, the 1×1 temperature-only solve, and
//!   the [`newton_solve`] callers) and builds the Jacobian from one
//!   perturbed residual per unknown.
//!
//! The solver has two personalities:
//!
//! * the **default** options run the plain damped iteration of the
//!   conversion datapath, and
//! * [`NewtonOptions::robust`] adds adaptive step damping (halve on
//!   residual growth) and a Jacobian condition guard — the retuned mode the
//!   hardened sensor falls back to when the plain solve diverges on a
//!   corrupted measurement.

use crate::error::SensorError;
use ptsim_device::delay::LANES;

/// Options controlling a Newton solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonOptions {
    /// Maximum iterations before reporting divergence.
    pub max_iterations: usize,
    /// Convergence tolerance on the residual ∞-norm.
    pub tolerance: f64,
    /// Scalar multiplier in `(0, 1]` applied to every Newton update
    /// *before* the per-component `step_limits` clamp (the clamp itself is
    /// the separate `step_limits` argument of [`newton_solve`]; this field
    /// uniformly shortens the update).
    pub damping: f64,
    /// When `true`, the solver backs off: if an accepted step *grows* the
    /// residual ∞-norm, the step is reverted and the working damping is
    /// halved (down to `min_damping`); it relaxes back toward `damping`
    /// after successful steps.
    pub adaptive: bool,
    /// Floor for the adaptive damping back-off.
    pub min_damping: f64,
    /// Reject the solve with [`SensorError::IllConditioned`] if the
    /// Jacobian's condition estimate exceeds this (∞-norm over smallest
    /// pivot — a cheap lower bound). `f64::INFINITY` disables the guard.
    pub max_condition: f64,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            max_iterations: 60,
            tolerance: 1e-10,
            damping: 1.0,
            adaptive: false,
            min_damping: 1.0 / 64.0,
            max_condition: f64::INFINITY,
        }
    }
}

impl NewtonOptions {
    /// The hardened fallback tuning: adaptive damping with a conservative
    /// initial step, more iterations, and a condition guard, for re-running
    /// a solve that diverged (or went singular) on implausible inputs.
    #[must_use]
    pub fn robust() -> Self {
        NewtonOptions {
            max_iterations: 150,
            tolerance: 1e-10,
            damping: 0.7,
            adaptive: true,
            min_damping: 0.05,
            max_condition: 1e12,
        }
    }
}

/// Diagnostics from one linear solve: enough to estimate conditioning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearSolveInfo {
    /// ∞-norm (max absolute row sum) of the matrix before elimination.
    pub norm_inf: f64,
    /// Smallest absolute pivot encountered during elimination.
    pub min_pivot: f64,
}

impl LinearSolveInfo {
    /// Cheap lower-bound condition estimate: `‖A‖∞ / min|pivot|`.
    #[must_use]
    pub fn condition_estimate(&self) -> f64 {
        if self.min_pivot > 0.0 {
            self.norm_inf / self.min_pivot
        } else {
            f64::INFINITY
        }
    }
}

/// Solves `A·x = b` in place by Gaussian elimination with partial pivoting.
/// `a` is row-major `n × n`.
///
/// Singularity is decided against the matrix's own scale: a pivot smaller
/// than `n · ε · ‖A‖∞` is treated as zero. (A fixed absolute threshold like
/// `1e-300` only catches exact zeros — any rank-deficient system built from
/// real measurements fails far above that.)
///
/// # Errors
///
/// Returns [`SensorError::SingularJacobian`] if a pivot is numerically zero
/// at the matrix's scale.
pub fn solve_linear(
    a: &mut [f64],
    b: &mut [f64],
    n: usize,
    what: &'static str,
) -> Result<LinearSolveInfo, SensorError> {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(b.len(), n);
    let norm_inf = (0..n)
        .map(|row| (0..n).map(|k| a[row * n + k].abs()).sum::<f64>())
        .fold(0.0f64, f64::max);
    let pivot_floor = n as f64 * f64::EPSILON * norm_inf;
    let mut min_pivot = f64::INFINITY;
    for col in 0..n {
        // Pivot.
        let mut pivot = col;
        for row in col + 1..n {
            if a[row * n + col].abs() > a[pivot * n + col].abs() {
                pivot = row;
            }
        }
        let pivot_abs = a[pivot * n + col].abs();
        if pivot_abs <= pivot_floor || !pivot_abs.is_finite() {
            return Err(SensorError::SingularJacobian { what });
        }
        min_pivot = min_pivot.min(pivot_abs);
        if pivot != col {
            for k in 0..n {
                a.swap(col * n + k, pivot * n + k);
            }
            b.swap(col, pivot);
        }
        // Eliminate.
        for row in col + 1..n {
            let factor = a[row * n + col] / a[col * n + col];
            for k in col..n {
                a[row * n + k] -= factor * a[col * n + k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    for col in (0..n).rev() {
        let mut sum = b[col];
        for k in col + 1..n {
            sum -= a[col * n + k] * b[k];
        }
        b[col] = sum / a[col * n + col];
    }
    Ok(LinearSolveInfo {
        norm_inf,
        min_pivot,
    })
}

/// Largest system [`NewtonScratch`] supports — the calibration decoupling
/// (4 unknowns) is the biggest solve the sensor datapath runs.
pub const MAX_UNKNOWNS: usize = 6;

/// Caller-owned workspace for [`newton_solve_with`] and [`solve_linear`]:
/// the Jacobian, revert point and residual buffers, sized for
/// [`MAX_UNKNOWNS`] and stored inline so a reused scratch makes the whole
/// solve allocation-free.
#[derive(Debug, Clone)]
pub struct NewtonScratch {
    jac: [f64; MAX_UNKNOWNS * MAX_UNKNOWNS],
    x_prev: [f64; MAX_UNKNOWNS],
    r: [f64; MAX_UNKNOWNS],
    rhs: [f64; MAX_UNKNOWNS],
    backoffs: u64,
}

impl NewtonScratch {
    /// Fresh (zeroed) workspace.
    #[must_use]
    pub fn new() -> Self {
        NewtonScratch {
            jac: [0.0; MAX_UNKNOWNS * MAX_UNKNOWNS],
            x_prev: [0.0; MAX_UNKNOWNS],
            r: [0.0; MAX_UNKNOWNS],
            rhs: [0.0; MAX_UNKNOWNS],
            backoffs: 0,
        }
    }

    /// Cumulative adaptive damping back-offs (reverted steps) across every
    /// solve that has used this scratch. The diagnostic counterpart of the
    /// returned iteration count: observers difference it around a solve to
    /// attribute back-offs. Never reset by the solver itself.
    #[must_use]
    pub fn backoffs(&self) -> u64 {
        self.backoffs
    }
}

impl Default for NewtonScratch {
    fn default() -> Self {
        NewtonScratch::new()
    }
}

/// ∞-norm of a residual that propagates NaN. A plain `f64::max` fold
/// would not: `0.0f64.max(NaN)` is `0.0`, so a NaN row would pass the
/// convergence test. With this norm a solve converges only when every row
/// satisfies `|r| < tol`, and a NaN norm triggers the adaptive revert and
/// is what [`SensorError::SolverDiverged`] reports.
fn residual_norm(rows: impl IntoIterator<Item = f64>) -> f64 {
    rows.into_iter().fold(0.0f64, |m, v| {
        let a = v.abs();
        if a > m || a.is_nan() {
            a
        } else {
            m
        }
    })
}

/// A square nonlinear system `r(x) = 0` for [`newton_solve_with`].
pub trait System {
    /// Writes the residual of `x` into `out` (length `x.len()`). May cache
    /// intermediates for the next [`System::jacobian`] call.
    fn residual(&mut self, x: &[f64], out: &mut [f64]);

    /// Writes the Jacobian `∂r_i/∂x_j` at `x` into `jac` (row-major,
    /// `n × n`). The solver calls it only right after
    /// [`System::residual`] at the same `x`, whose result is `r`.
    fn jacobian(&mut self, x: &[f64], r: &[f64], jac: &mut [f64]);
}

/// A residual-only system whose Jacobian is built by forward differences:
/// one residual per unknown, at `x` with unknown `j` moved by `steps[j]`.
/// For residuals with no derivative at hand (a ROM lookup, the 1×1
/// temperature-only solve, the [`newton_solve`] callers).
pub struct ForwardDifference<'s, F> {
    residual: F,
    steps: &'s [f64],
}

impl<F> core::fmt::Debug for ForwardDifference<'_, F> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ForwardDifference")
            .field("steps", &self.steps)
            .finish_non_exhaustive()
    }
}

impl<'s, F: FnMut(&[f64], &mut [f64])> ForwardDifference<'s, F> {
    /// Wraps `residual(x, out)` with per-unknown forward-difference
    /// `steps`.
    pub fn new(residual: F, steps: &'s [f64]) -> Self {
        ForwardDifference { residual, steps }
    }
}

impl<F: FnMut(&[f64], &mut [f64])> System for ForwardDifference<'_, F> {
    fn residual(&mut self, x: &[f64], out: &mut [f64]) {
        (self.residual)(x, out);
    }

    fn jacobian(&mut self, x: &[f64], r: &[f64], jac: &mut [f64]) {
        let n = x.len();
        debug_assert_eq!(self.steps.len(), n);
        let (mut xp, mut rp) = ([0.0; MAX_UNKNOWNS], [0.0; MAX_UNKNOWNS]);
        let (xp, rp) = (&mut xp[..n], &mut rp[..n]);
        for j in 0..n {
            xp.copy_from_slice(x);
            xp[j] += self.steps[j];
            (self.residual)(xp, rp);
            for i in 0..n {
                jac[i * n + j] = (rp[i] - r[i]) / self.steps[j];
            }
        }
    }
}

/// Damped Newton–Raphson on `residual(x) = 0` with a forward-difference
/// Jacobian.
///
/// Compatibility wrapper over [`newton_solve_with`] for callers that do not
/// hold a [`NewtonScratch`]; the residual closure returns a fresh `Vec` per
/// evaluation.
///
/// * `x` — initial guess, updated in place to the solution.
/// * `residual` — returns the residual vector (same length as `x`).
/// * `fd_steps` — per-component forward-difference steps for the Jacobian.
/// * `step_limits` — per-component clamp on each Newton update.
///
/// Returns the number of iterations used.
///
/// # Errors
///
/// * [`SensorError::SolverDiverged`] if the residual norm does not reach
///   `opts.tolerance` within `opts.max_iterations`;
/// * [`SensorError::SingularJacobian`] if the Jacobian becomes singular;
/// * [`SensorError::IllConditioned`] if `opts.max_condition` is finite and
///   the Jacobian's condition estimate exceeds it.
pub fn newton_solve<F>(
    x: &mut [f64],
    mut residual: F,
    fd_steps: &[f64],
    step_limits: &[f64],
    opts: &NewtonOptions,
    what: &'static str,
) -> Result<usize, SensorError>
where
    F: FnMut(&[f64]) -> Vec<f64>,
{
    let mut system = ForwardDifference::new(
        |v: &[f64], out: &mut [f64]| out.copy_from_slice(&residual(v)),
        fd_steps,
    );
    newton_solve_with(
        &mut NewtonScratch::new(),
        x,
        &mut system,
        step_limits,
        opts,
        what,
    )
}

/// Damped Newton–Raphson on a [`System`] with a caller-owned
/// [`NewtonScratch`] — zero heap allocations, so a scratch reused across
/// conversions makes every solve of the batch hot path allocation-free.
///
/// Each iteration evaluates the residual at `x`, returns on convergence,
/// and otherwise asks the system for its Jacobian and takes the clamped
/// Newton step. `step_limits` clamps each component of the update.
///
/// # Panics
///
/// Panics if `x.len() > MAX_UNKNOWNS`.
///
/// # Errors
///
/// Same as [`newton_solve`].
pub fn newton_solve_with<S: System + ?Sized>(
    scratch: &mut NewtonScratch,
    x: &mut [f64],
    system: &mut S,
    step_limits: &[f64],
    opts: &NewtonOptions,
    what: &'static str,
) -> Result<usize, SensorError> {
    let n = x.len();
    assert!(n <= MAX_UNKNOWNS, "newton_solve_with: {n} > MAX_UNKNOWNS");
    debug_assert_eq!(step_limits.len(), n);

    let NewtonScratch {
        jac,
        x_prev,
        r,
        rhs,
        backoffs,
    } = scratch;
    let jac = &mut jac[..n * n];
    let x_prev = &mut x_prev[..n];
    let r = &mut r[..n];
    let rhs = &mut rhs[..n];
    let mut damp = opts.damping;
    let mut prev_norm = f64::INFINITY;

    for iter in 1..=opts.max_iterations {
        system.residual(x, r);
        let norm = residual_norm(r.iter().copied());
        if norm < opts.tolerance {
            return Ok(iter);
        }
        // `partial_cmp` keeps the NaN case explicit: a NaN norm must also
        // trigger the revert, exactly like a worsened one.
        let improved = matches!(
            norm.partial_cmp(&prev_norm),
            Some(core::cmp::Ordering::Less | core::cmp::Ordering::Equal)
        );
        if opts.adaptive && !improved && iter > 1 {
            // The last step made things worse (or produced NaN): revert it
            // and retry from the previous point with half the damping.
            x.copy_from_slice(x_prev);
            damp = (damp * 0.5).max(opts.min_damping);
            *backoffs += 1;
            continue;
        }
        prev_norm = norm;
        x_prev.copy_from_slice(x);
        system.jacobian(x, r, jac);
        rhs.copy_from_slice(r);
        let info = solve_linear(jac, rhs, n, what)?;
        if opts.max_condition.is_finite() {
            let cond = info.condition_estimate();
            if cond > opts.max_condition {
                return Err(SensorError::IllConditioned {
                    what,
                    condition: cond,
                });
            }
        }
        for j in 0..n {
            let step = (damp * rhs[j]).clamp(-step_limits[j], step_limits[j]);
            x[j] -= step;
        }
        if opts.adaptive {
            // Relax the damping back toward the configured value after an
            // accepted step.
            damp = (damp * 1.5).min(opts.damping);
        }
    }
    system.residual(x, r);
    let final_norm = residual_norm(r.iter().copied());
    Err(SensorError::SolverDiverged {
        what,
        iterations: opts.max_iterations,
        residual: final_norm,
    })
}

/// Per-lane outcome of [`newton_solve_lanes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneSolve {
    /// Lane was masked out on entry; its unknowns were never updated.
    Masked,
    /// Converged after this many iterations — the same count the scalar
    /// solver would report for this lane's system.
    Converged(usize),
    /// Singular Jacobian, or no convergence within the iteration budget.
    /// The caller re-runs this lane through the scalar escalation ladder,
    /// which reproduces the identical failure and then retunes — so a
    /// failed lane needs no state snapshot, only its original inputs.
    Failed,
}

/// Up to [`LANES`] independent `N`-unknown systems for
/// [`newton_solve_lanes`], held column-wise (`x[j][lane]`) so each call
/// evaluates all lanes in fixed-trip loops.
///
/// Both calls receive `active`, the lanes still iterating. The solver never
/// reads entries of inactive lanes, so an implementation is free to skip
/// their (transcendental-heavy) evaluation entirely and leave stale values
/// behind.
pub trait LaneSystem<const N: usize> {
    /// Writes the residual of every active lane of `x` into `out`. May
    /// cache per-lane intermediates for the next
    /// [`LaneSystem::jacobian`] call.
    fn residual(
        &mut self,
        x: &[[f64; LANES]; N],
        active: &[bool; LANES],
        out: &mut [[f64; LANES]; N],
    );

    /// Writes the Jacobian of every active lane (`jac[i][j][lane]` =
    /// `∂r_i/∂x_j`). Called only right after [`LaneSystem::residual`] at
    /// the same `x` and `active`.
    fn jacobian(
        &mut self,
        x: &[[f64; LANES]; N],
        active: &[bool; LANES],
        jac: &mut [[[f64; LANES]; N]; N],
    );
}

/// Lane-parallel damped Newton–Raphson: up to [`LANES`] independent `N`-
/// unknown systems advance in lock-step.
///
/// Semantics are pinned to [`NewtonOptions::default()`] — plain full-step
/// iteration, no adaptive damping, no condition guard — because that is the
/// only personality the batch hot path runs; anything that would escalate
/// (divergence, singular Jacobian) marks the lane [`LaneSolve::Failed`] and
/// is replayed through the scalar ladder instead. For every lane that
/// converges, the iterate trajectory, iteration count and final unknowns
/// are bit-identical to [`newton_solve_with`] on that lane's system alone,
/// provided the lane system's per-lane arithmetic is the scalar system's.
/// Masked, converged and failed lanes have their unknowns frozen.
///
/// Returns the per-lane outcome.
///
/// # Panics
///
/// Panics if `N > MAX_UNKNOWNS`.
pub fn newton_solve_lanes<const N: usize, S: LaneSystem<N>>(
    x: &mut [[f64; LANES]; N],
    mut active: [bool; LANES],
    system: &mut S,
    step_limits: &[f64; N],
    what: &'static str,
) -> [LaneSolve; LANES] {
    assert!(N <= MAX_UNKNOWNS, "newton_solve_lanes: {N} > MAX_UNKNOWNS");
    let opts = NewtonOptions::default();
    let mut status = active.map(|a| {
        if a {
            LaneSolve::Failed
        } else {
            LaneSolve::Masked
        }
    });
    let mut r = [[0.0; LANES]; N];
    let mut jac = [[[0.0; LANES]; N]; N];

    for iter in 1..=opts.max_iterations {
        if !active.contains(&true) {
            break;
        }
        system.residual(x, &active, &mut r);
        for l in 0..LANES {
            if !active[l] {
                continue;
            }
            if residual_norm(r.iter().map(|row| row[l])) < opts.tolerance {
                status[l] = LaneSolve::Converged(iter);
                active[l] = false;
            }
        }
        if !active.contains(&true) {
            break;
        }
        system.jacobian(x, &active, &mut jac);
        // Per-lane linear solve and clamped full step (damping 1.0 —
        // multiplying by 1.0 is a bitwise no-op, so it is elided).
        for l in 0..LANES {
            if !active[l] {
                continue;
            }
            let mut a = [0.0; MAX_UNKNOWNS * MAX_UNKNOWNS];
            let mut b = [0.0; MAX_UNKNOWNS];
            for i in 0..N {
                for j in 0..N {
                    a[i * N + j] = jac[i][j][l];
                }
                b[i] = r[i][l];
            }
            match solve_linear(&mut a[..N * N], &mut b[..N], N, what) {
                Ok(_) => {
                    for j in 0..N {
                        x[j][l] -= b[j].clamp(-step_limits[j], step_limits[j]);
                    }
                }
                Err(_) => {
                    status[l] = LaneSolve::Failed;
                    active[l] = false;
                }
            }
        }
    }
    status
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_solve_2x2() {
        // [2 1; 1 3]·x = [5; 10] → x = [1; 3]
        let mut a = vec![2.0, 1.0, 1.0, 3.0];
        let mut b = vec![5.0, 10.0];
        solve_linear(&mut a, &mut b, 2, "test").unwrap();
        assert!((b[0] - 1.0).abs() < 1e-12);
        assert!((b[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn linear_solve_requires_pivoting() {
        // Zero on the diagonal forces a row swap.
        let mut a = vec![0.0, 1.0, 1.0, 0.0];
        let mut b = vec![2.0, 3.0];
        solve_linear(&mut a, &mut b, 2, "test").unwrap();
        assert!((b[0] - 3.0).abs() < 1e-12);
        assert!((b[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_error() {
        let mut a = vec![1.0, 2.0, 2.0, 4.0];
        let mut b = vec![1.0, 2.0];
        assert!(matches!(
            solve_linear(&mut a, &mut b, 2, "test"),
            Err(SensorError::SingularJacobian { .. })
        ));
    }

    #[test]
    fn near_singular_at_scale_is_error_despite_large_absolute_pivot() {
        // Rows differ by one part in 1e18 — far above 1e-300 in absolute
        // terms, but rank-deficient at the matrix's own scale. The old
        // fixed threshold accepted this and returned garbage.
        let mut a = vec![1e10, 2e10, 1e10, 2e10 * (1.0 + 1e-18)];
        let mut b = vec![1.0, 2.0];
        assert!(matches!(
            solve_linear(&mut a, &mut b, 2, "test"),
            Err(SensorError::SingularJacobian { .. })
        ));
    }

    #[test]
    fn well_scaled_tiny_matrix_still_solves() {
        // Uniformly tiny but well-conditioned: must NOT be rejected (the
        // scaled test is relative, not absolute).
        let mut a = vec![2e-200, 1e-200, 1e-200, 3e-200];
        let mut b = vec![5e-200, 10e-200];
        solve_linear(&mut a, &mut b, 2, "test").unwrap();
        assert!((b[0] - 1.0).abs() < 1e-10);
        assert!((b[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn solve_info_reports_conditioning() {
        let mut a = vec![1.0, 0.0, 0.0, 1e-8];
        let mut b = vec![1.0, 1.0];
        let info = solve_linear(&mut a, &mut b, 2, "test").unwrap();
        assert!(info.condition_estimate() > 1e7);
        let mut a = vec![1.0, 0.0, 0.0, 1.0];
        let mut b = vec![1.0, 1.0];
        let info = solve_linear(&mut a, &mut b, 2, "test").unwrap();
        assert!(info.condition_estimate() < 10.0);
    }

    #[test]
    fn newton_scalar_sqrt() {
        // x² = 2
        let mut x = [1.0];
        let iters = newton_solve(
            &mut x,
            |v| vec![v[0] * v[0] - 2.0],
            &[1e-7],
            &[10.0],
            &NewtonOptions::default(),
            "sqrt",
        )
        .unwrap();
        assert!((x[0] - 2.0f64.sqrt()).abs() < 1e-8);
        assert!(iters < 20);
    }

    #[test]
    fn newton_2d_nonlinear() {
        // x·y = 6, x + y = 5 → (2, 3) or (3, 2).
        let mut x = [1.0, 4.0];
        newton_solve(
            &mut x,
            |v| vec![v[0] * v[1] - 6.0, v[0] + v[1] - 5.0],
            &[1e-7, 1e-7],
            &[10.0, 10.0],
            &NewtonOptions::default(),
            "2d",
        )
        .unwrap();
        assert!((x[0] * x[1] - 6.0).abs() < 1e-8);
        assert!((x[0] + x[1] - 5.0).abs() < 1e-8);
    }

    #[test]
    fn newton_respects_step_limits() {
        // Start far away; tight clamp forces many small steps but still
        // converges.
        let mut x = [100.0];
        let iters = newton_solve(
            &mut x,
            |v| vec![v[0] - 1.0],
            &[1e-7],
            &[2.0],
            &NewtonOptions {
                max_iterations: 200,
                ..NewtonOptions::default()
            },
            "clamped",
        )
        .unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!(iters >= 50, "clamp forces ≥ (100-1)/2 iterations");
    }

    #[test]
    fn newton_divergence_reported() {
        // Residual never goes to zero.
        let mut x = [0.0];
        let err = newton_solve(
            &mut x,
            |v| vec![v[0].powi(2) + 1.0],
            &[1e-7],
            &[1.0],
            &NewtonOptions {
                max_iterations: 10,
                ..NewtonOptions::default()
            },
            "impossible",
        )
        .unwrap_err();
        assert!(matches!(err, SensorError::SolverDiverged { .. }));
    }

    #[test]
    fn newton_4x4_linear_system_one_step() {
        let mut x = [0.0; 4];
        let target = [1.0, -2.0, 3.0, 0.5];
        newton_solve(
            &mut x,
            |v| (0..4).map(|i| v[i] - target[i]).collect(),
            &[1e-6; 4],
            &[100.0; 4],
            &NewtonOptions::default(),
            "4x4",
        )
        .unwrap();
        for i in 0..4 {
            assert!((x[i] - target[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn adaptive_damping_recovers_where_plain_newton_oscillates() {
        // f(x) = atan(x) from x0 = 2: undamped Newton overshoots and
        // diverges (|x| grows every step); the adaptive back-off shrinks
        // the step until the iteration enters the convergent basin.
        let plain = NewtonOptions {
            max_iterations: 20,
            ..NewtonOptions::default()
        };
        let mut x = [2.0];
        assert!(newton_solve(
            &mut x,
            |v| vec![v[0].atan()],
            &[1e-7],
            &[1e6],
            &plain,
            "atan-plain",
        )
        .is_err());

        let mut x = [2.0];
        newton_solve(
            &mut x,
            |v| vec![v[0].atan()],
            &[1e-7],
            &[1e6],
            &NewtonOptions::robust(),
            "atan-robust",
        )
        .unwrap();
        assert!(x[0].abs() < 1e-8);
    }

    #[test]
    fn adaptive_backoffs_are_counted_in_the_scratch() {
        // Adaptive damping with a full-length initial step: the first
        // Newton step on atan from x0 = 2 overshoots (|atan| grows), so the
        // solver must revert it — and the scratch must count each revert.
        let opts = NewtonOptions {
            adaptive: true,
            damping: 1.0,
            min_damping: 0.05,
            max_iterations: 150,
            ..NewtonOptions::default()
        };
        let mut scratch = NewtonScratch::new();
        assert_eq!(scratch.backoffs(), 0);
        let mut x = [2.0];
        newton_solve_with(
            &mut scratch,
            &mut x,
            &mut ForwardDifference::new(|v, out| out[0] = v[0].atan(), &[1e-7]),
            &[1e6],
            &opts,
            "atan-counted",
        )
        .unwrap();
        assert!(scratch.backoffs() > 0, "reverted steps must be counted");
        // A well-behaved solve adds nothing.
        let before = scratch.backoffs();
        let mut x = [1.0];
        newton_solve_with(
            &mut scratch,
            &mut x,
            &mut ForwardDifference::new(|v, out| out[0] = v[0] - 0.5, &[1e-7]),
            &[10.0],
            &NewtonOptions::robust(),
            "linear-counted",
        )
        .unwrap();
        assert_eq!(scratch.backoffs(), before);
    }

    #[test]
    fn condition_guard_rejects_nearly_degenerate_jacobian() {
        // Jacobian ≈ diag(1, 1e-12): far above the singularity floor, but
        // condition ≈ 1e12 — past the configured 1e10 limit.
        let opts = NewtonOptions {
            max_condition: 1e10,
            ..NewtonOptions::robust()
        };
        let residual = |v: &[f64]| vec![v[0] - 1.0, 1e-12 * (v[1] - 1.0)];
        let mut x = [0.0, 0.0];
        let err = newton_solve(
            &mut x,
            residual,
            &[1e-4, 1e-4],
            &[10.0, 10.0],
            &opts,
            "degenerate",
        )
        .unwrap_err();
        assert!(matches!(err, SensorError::IllConditioned { .. }), "{err}");
        // Without the guard (default INFINITY) the same system solves.
        let opts = NewtonOptions {
            max_condition: f64::INFINITY,
            ..NewtonOptions::robust()
        };
        let mut x = [0.0, 0.0];
        newton_solve(
            &mut x,
            residual,
            &[1e-4, 1e-4],
            &[10.0, 10.0],
            &opts,
            "degenerate",
        )
        .unwrap();
    }

    /// Per-lane analytic systems: `rows(lane, x)` returns the residual
    /// and the Jacobian of that lane's system at `x`.
    struct Analytic<F>(F);

    impl<const N: usize, F> LaneSystem<N> for Analytic<F>
    where
        F: Fn(usize, [f64; N]) -> ([f64; N], [[f64; N]; N]),
    {
        fn residual(
            &mut self,
            x: &[[f64; LANES]; N],
            active: &[bool; LANES],
            out: &mut [[f64; LANES]; N],
        ) {
            for l in (0..LANES).filter(|&l| active[l]) {
                let (r, _) = (self.0)(l, core::array::from_fn(|j| x[j][l]));
                for i in 0..N {
                    out[i][l] = r[i];
                }
            }
        }

        fn jacobian(
            &mut self,
            x: &[[f64; LANES]; N],
            active: &[bool; LANES],
            jac: &mut [[[f64; LANES]; N]; N],
        ) {
            for l in (0..LANES).filter(|&l| active[l]) {
                let (_, d) = (self.0)(l, core::array::from_fn(|j| x[j][l]));
                for i in 0..N {
                    for j in 0..N {
                        jac[i][j][l] = d[i][j];
                    }
                }
            }
        }
    }

    /// One lane of an [`Analytic`] system as a scalar [`System`], counting
    /// its Jacobian calls.
    struct OneLane<'a, F, const N: usize> {
        rows: &'a F,
        lane: usize,
        jacobians: usize,
    }

    impl<F, const N: usize> System for OneLane<'_, F, N>
    where
        F: Fn(usize, [f64; N]) -> ([f64; N], [[f64; N]; N]),
    {
        fn residual(&mut self, x: &[f64], out: &mut [f64]) {
            out.copy_from_slice(&(self.rows)(self.lane, core::array::from_fn(|j| x[j])).0);
        }

        fn jacobian(&mut self, x: &[f64], _: &[f64], jac: &mut [f64]) {
            self.jacobians += 1;
            let (_, d) = (self.rows)(self.lane, core::array::from_fn(|j| x[j]));
            for i in 0..N {
                jac[i * N..(i + 1) * N].copy_from_slice(&d[i]);
            }
        }
    }

    /// Solves lane `lane` of `rows` alone with the scalar solver under the
    /// default tuning: `(result, unknowns, Jacobian calls)`.
    fn scalar_lane<F, const N: usize>(
        rows: &F,
        lane: usize,
        x0: [f64; N],
        limits: &[f64; N],
    ) -> (Result<usize, SensorError>, [f64; N], usize)
    where
        F: Fn(usize, [f64; N]) -> ([f64; N], [[f64; N]; N]),
    {
        let mut system = OneLane {
            rows,
            lane,
            jacobians: 0,
        };
        let mut x = x0;
        let r = newton_solve_with(
            &mut NewtonScratch::new(),
            &mut x,
            &mut system,
            limits,
            &NewtonOptions::default(),
            "scalar-lane",
        );
        (r, x, system.jacobians)
    }

    #[test]
    fn lane_newton_matches_scalar_trajectories() {
        // Eight independent 2-unknown systems x·y = c, x + y = s with
        // per-lane constants: every lane must converge to the scalar
        // solver's answer bit for bit, in the same number of iterations.
        let c: [f64; LANES] = core::array::from_fn(|l| 4.0 + l as f64);
        let s: [f64; LANES] = core::array::from_fn(|l| 5.0 + 0.5 * l as f64);
        let rows = |l: usize, v: [f64; 2]| {
            (
                [v[0] * v[1] - c[l], v[0] + v[1] - s[l]],
                [[v[1], v[0]], [1.0, 1.0]],
            )
        };
        let mut x = [[1.0; LANES], [4.0; LANES]];
        let status = newton_solve_lanes(
            &mut x,
            [true; LANES],
            &mut Analytic(rows),
            &[10.0, 10.0],
            "lane-2d",
        );
        for l in 0..LANES {
            let (iters, xs, jacobians) = scalar_lane(&rows, l, [1.0, 4.0], &[10.0, 10.0]);
            let iters = iters.unwrap();
            // A converged final iteration asks for no Jacobian.
            assert_eq!(jacobians, iters - 1, "lane {l}");
            assert_eq!(status[l], LaneSolve::Converged(iters), "lane {l}");
            assert_eq!(x[0][l].to_bits(), xs[0].to_bits(), "lane {l}");
            assert_eq!(x[1][l].to_bits(), xs[1].to_bits(), "lane {l}");
        }
    }

    #[test]
    fn failed_lane_does_not_perturb_neighbors() {
        // Lane 3 has no root (x² + 1 = 0); every other lane solves x² = c.
        let mut c = [2.0; LANES];
        c[3] = -1.0;
        let rows = |l: usize, v: [f64; 1]| ([v[0] * v[0] - c[l]], [[2.0 * v[0]]]);
        let mut x = [[1.0; LANES]];
        let status = newton_solve_lanes(
            &mut x,
            [true; LANES],
            &mut Analytic(rows),
            &[10.0],
            "lane-sqrt",
        );
        assert_eq!(status[3], LaneSolve::Failed);
        for l in (0..LANES).filter(|&l| l != 3) {
            let (iters, xs, _) = scalar_lane(&rows, l, [1.0], &[10.0]);
            assert_eq!(status[l], LaneSolve::Converged(iters.unwrap()), "lane {l}");
            assert_eq!(x[0][l].to_bits(), xs[0].to_bits(), "lane {l}");
        }
    }

    #[test]
    fn masked_lanes_stay_untouched() {
        let mut active = [true; LANES];
        active[0] = false;
        active[7] = false;
        let mut x = [[9.0; LANES]];
        let status = newton_solve_lanes(
            &mut x,
            active,
            &mut Analytic(|_, v: [f64; 1]| ([v[0] - 1.0], [[1.0]])),
            &[100.0],
            "lane-masked",
        );
        assert_eq!(status[0], LaneSolve::Masked);
        assert_eq!(status[7], LaneSolve::Masked);
        assert_eq!(x[0][0], 9.0);
        assert_eq!(x[0][7], 9.0);
        for l in 1..7 {
            assert!(matches!(status[l], LaneSolve::Converged(_)));
            assert!((x[0][l] - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn nan_residual_never_converges() {
        // An all-NaN residual and a residual with one NaN row: neither may
        // pass the convergence test (`0.0f64.max(NaN)` is `0.0`, so a
        // plain max-fold norm once reported both as converged in one
        // iteration).
        let mut x = [1.0];
        let r = newton_solve(
            &mut x,
            |_| vec![f64::NAN],
            &[1e-6],
            &[1.0],
            &NewtonOptions::default(),
            "nan",
        );
        assert!(r.is_err(), "{r:?}");
        let mut x = [1.0, 2.0];
        let r = newton_solve(
            &mut x,
            |_| vec![f64::NAN, 0.0],
            &[1e-6, 1e-6],
            &[1.0, 1.0],
            &NewtonOptions::default(),
            "nan-row",
        );
        assert!(r.is_err(), "{r:?}");
    }

    #[test]
    fn diverged_error_reports_a_nan_final_residual() {
        // x² + 1 has no root; the last residual evaluation (call
        // 2·max_iterations + 1) returns NaN in row 0 beside a finite row 1.
        let opts = NewtonOptions {
            max_iterations: 4,
            ..NewtonOptions::default()
        };
        let mut calls = 0;
        let mut x = [1.0, 0.0];
        let r = newton_solve(
            &mut x,
            |v| {
                calls += 1;
                let first = if calls == 3 * opts.max_iterations + 1 {
                    f64::NAN
                } else {
                    v[0] * v[0] + 1.0
                };
                vec![first, v[1] - 5.0]
            },
            &[1e-6, 1e-6],
            &[1.0, 1.0],
            &opts,
            "nan-final",
        );
        match r {
            Err(SensorError::SolverDiverged { residual, .. }) => assert!(residual.is_nan()),
            other => panic!("expected SolverDiverged, got {other:?}"),
        }
    }

    #[test]
    fn adaptive_damping_reverts_a_step_into_nan() {
        // ln(x) + 2 = 0 from x = 3: the first damped step lands at x < 0,
        // where the residual is NaN. The adaptive tuning must revert it and
        // back off rather than report the NaN point as converged.
        let mut scratch = NewtonScratch::new();
        let mut x = [3.0];
        newton_solve_with(
            &mut scratch,
            &mut x,
            &mut ForwardDifference::new(|v, out| out[0] = v[0].ln() + 2.0, &[1e-7]),
            &[100.0],
            &NewtonOptions::robust(),
            "nan-revert",
        )
        .unwrap();
        assert!((x[0] - (-2.0f64).exp()).abs() < 1e-9, "{x:?}");
        assert!(scratch.backoffs() >= 1);
    }

    #[test]
    fn nan_lanes_fail_while_neighbours_match_the_scalar_solver() {
        // Lane 2 sees an all-NaN residual and lane 5 one NaN row; every
        // other lane solves x·y = c, x + y = s. The NaN lanes must fail
        // (the caller then re-runs them through the scalar ladder) and the
        // neighbours must keep the scalar trajectory bit for bit.
        let c: [f64; LANES] = core::array::from_fn(|l| 4.0 + l as f64);
        let s: [f64; LANES] = core::array::from_fn(|l| 5.0 + 0.5 * l as f64);
        let rows = |l: usize, v: [f64; 2]| {
            let jac = [[v[1], v[0]], [1.0, 1.0]];
            match l {
                2 => ([f64::NAN, f64::NAN], jac),
                5 => ([v[0] * v[1] - c[l], f64::NAN], jac),
                _ => ([v[0] * v[1] - c[l], v[0] + v[1] - s[l]], jac),
            }
        };
        let mut x = [[1.0; LANES], [4.0; LANES]];
        let status = newton_solve_lanes(
            &mut x,
            [true; LANES],
            &mut Analytic(rows),
            &[10.0, 10.0],
            "lane-nan",
        );
        assert_eq!(status[2], LaneSolve::Failed);
        assert_eq!(status[5], LaneSolve::Failed);
        for l in (0..LANES).filter(|&l| l != 2 && l != 5) {
            let (iters, xs, _) = scalar_lane(&rows, l, [1.0, 4.0], &[10.0, 10.0]);
            assert_eq!(status[l], LaneSolve::Converged(iters.unwrap()), "lane {l}");
            assert_eq!(x[0][l].to_bits(), xs[0].to_bits(), "lane {l}");
            assert_eq!(x[1][l].to_bits(), xs[1].to_bits(), "lane {l}");
        }
    }

    #[test]
    fn default_options_remain_plain_newton() {
        // The default personality must not grow new behavior: adaptive off,
        // no condition guard.
        let d = NewtonOptions::default();
        assert!(!d.adaptive);
        assert_eq!(d.max_condition, f64::INFINITY);
        assert_eq!(d.damping, 1.0);
    }
}
