//! Small dense damped Newton–Raphson solver used by the decoupling math.
//!
//! The systems are tiny (1–4 unknowns), so a straightforward
//! partial-pivoting Gaussian elimination and forward-difference Jacobians
//! are entirely adequate. The solver has two personalities:
//!
//! * the **default** options reproduce the plain damped iteration the
//!   original conversion datapath runs (bit-identical to earlier
//!   revisions), and
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
/// the Jacobian, probe point, revert point and residual buffers, sized for
/// [`MAX_UNKNOWNS`] and stored inline so a reused scratch makes the whole
/// solve allocation-free.
#[derive(Debug, Clone)]
pub struct NewtonScratch {
    jac: [f64; MAX_UNKNOWNS * MAX_UNKNOWNS],
    xp: [f64; MAX_UNKNOWNS],
    x_prev: [f64; MAX_UNKNOWNS],
    r: [f64; MAX_UNKNOWNS],
    rp: [f64; MAX_UNKNOWNS],
    rhs: [f64; MAX_UNKNOWNS],
    backoffs: u64,
}

impl NewtonScratch {
    /// Fresh (zeroed) workspace.
    #[must_use]
    pub fn new() -> Self {
        NewtonScratch {
            jac: [0.0; MAX_UNKNOWNS * MAX_UNKNOWNS],
            xp: [0.0; MAX_UNKNOWNS],
            x_prev: [0.0; MAX_UNKNOWNS],
            r: [0.0; MAX_UNKNOWNS],
            rp: [0.0; MAX_UNKNOWNS],
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

/// Damped Newton–Raphson on `residual(x) = 0`.
///
/// Compatibility wrapper over [`newton_solve_with`] for callers that do not
/// hold a [`NewtonScratch`]; the residual closure returns a fresh `Vec` per
/// evaluation. The hot path uses [`newton_solve_with`] directly.
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
    let mut scratch = NewtonScratch::new();
    newton_solve_with(
        &mut scratch,
        x,
        |v, out| out.copy_from_slice(&residual(v)),
        fd_steps,
        step_limits,
        opts,
        what,
    )
}

/// Damped Newton–Raphson on `residual(x, out) = 0` with a caller-owned
/// [`NewtonScratch`] — zero heap allocations, so a scratch reused across
/// conversions makes every solve of the batch hot path allocation-free.
///
/// The residual callback writes the residual of `x` (first argument) into
/// `out` (second argument, length `x.len()`). All other semantics — and all
/// floating-point results, bit for bit — match [`newton_solve`].
///
/// # Panics
///
/// Panics if `x.len() > MAX_UNKNOWNS`.
///
/// # Errors
///
/// Same as [`newton_solve`].
pub fn newton_solve_with<F>(
    scratch: &mut NewtonScratch,
    x: &mut [f64],
    mut residual: F,
    fd_steps: &[f64],
    step_limits: &[f64],
    opts: &NewtonOptions,
    what: &'static str,
) -> Result<usize, SensorError>
where
    F: FnMut(&[f64], &mut [f64]),
{
    let n = x.len();
    assert!(n <= MAX_UNKNOWNS, "newton_solve_with: {n} > MAX_UNKNOWNS");
    debug_assert_eq!(fd_steps.len(), n);
    debug_assert_eq!(step_limits.len(), n);

    let NewtonScratch {
        jac,
        xp,
        x_prev,
        r,
        rp,
        rhs,
        backoffs,
    } = scratch;
    let jac = &mut jac[..n * n];
    let xp = &mut xp[..n];
    let x_prev = &mut x_prev[..n];
    let r = &mut r[..n];
    let rp = &mut rp[..n];
    let rhs = &mut rhs[..n];
    let mut damp = opts.damping;
    let mut prev_norm = f64::INFINITY;

    for iter in 1..=opts.max_iterations {
        residual(x, r);
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
        // Forward-difference Jacobian.
        for j in 0..n {
            xp.copy_from_slice(x);
            xp[j] += fd_steps[j];
            residual(xp, rp);
            for i in 0..n {
                jac[i * n + j] = (rp[i] - r[i]) / fd_steps[j];
            }
        }
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
    residual(x, r);
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

/// Lane-parallel damped Newton–Raphson: up to [`LANES`] independent `N`-
/// unknown systems advance in lock-step, with the unknowns held column-wise
/// (`x[j][lane]`) so the residual callback can evaluate all lanes in
/// fixed-trip loops.
///
/// Semantics are pinned to [`NewtonOptions::default()`] — plain full-step
/// iteration, no adaptive damping, no condition guard — because that is the
/// only personality the batch hot path runs; anything that would escalate
/// (divergence, singular Jacobian) marks the lane [`LaneSolve::Failed`] and
/// is replayed through the scalar ladder instead. For every lane that
/// converges, the iterate trajectory, iteration count and final unknowns
/// are bit-identical to [`newton_solve_with`] on that lane's system alone.
///
/// The residual callback is `residual(x, col, active, out)`:
/// * `col == None` — evaluate the residual of the base point `x` for every
///   active lane (write `out[i][lane]`); the callback may cache per-lane
///   intermediates here,
/// * `col == Some(j)` — `x` is the base point with row `j` perturbed by
///   `+fd_steps[j]` in every lane; the callback may reuse base-point
///   intermediates for rows it knows the perturbation cannot touch
///   (bit-identical to the scalar path's memo hits, which replay stored
///   values for exactly those operands),
/// * `active` — the lanes still iterating at this call. The solver never
///   reads residual entries of inactive lanes, so the callback is free to
///   skip their (transcendental-heavy) evaluation entirely and leave stale
///   values behind; active lanes stay bit-identical either way. Masked,
///   converged and failed lanes have their unknowns frozen.
///
/// Returns the per-lane outcome.
///
/// # Panics
///
/// Panics if `N > MAX_UNKNOWNS`.
pub fn newton_solve_lanes<const N: usize, F>(
    x: &mut [[f64; LANES]; N],
    mut active: [bool; LANES],
    mut residual: F,
    fd_steps: &[f64; N],
    step_limits: &[f64; N],
    what: &'static str,
) -> [LaneSolve; LANES]
where
    F: FnMut(&[[f64; LANES]; N], Option<usize>, &[bool; LANES], &mut [[f64; LANES]; N]),
{
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
    let mut rp = [[0.0; LANES]; N];
    let mut jac = [[[0.0; LANES]; N]; N];

    for iter in 1..=opts.max_iterations {
        if !active.contains(&true) {
            break;
        }
        residual(x, None, &active, &mut r);
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
        // Forward-difference Jacobian, one perturbed column at a time
        // across all lanes.
        for j in 0..N {
            let saved = x[j];
            for xl in x[j].iter_mut() {
                *xl += fd_steps[j];
            }
            residual(x, Some(j), &active, &mut rp);
            x[j] = saved;
            for i in 0..N {
                for l in 0..LANES {
                    jac[i][j][l] = (rp[i][l] - r[i][l]) / fd_steps[j];
                }
            }
        }
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
            |v, out| out[0] = v[0].atan(),
            &[1e-7],
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
            |v, out| out[0] = v[0] - 0.5,
            &[1e-7],
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

    #[test]
    fn lane_newton_matches_scalar_trajectories() {
        // Eight independent 2-unknown systems x·y = c, x + y = s with
        // per-lane constants: every lane must converge to the scalar
        // solver's answer bit for bit, in the same number of iterations.
        let mut c = [0.0; LANES];
        let mut s = [0.0; LANES];
        for l in 0..LANES {
            c[l] = 4.0 + l as f64;
            s[l] = 5.0 + 0.5 * l as f64;
        }
        let mut x = [[1.0; LANES], [4.0; LANES]];
        let status = newton_solve_lanes(
            &mut x,
            [true; LANES],
            |x, _, active, out| {
                for l in 0..LANES {
                    if !active[l] {
                        continue;
                    }
                    out[0][l] = x[0][l] * x[1][l] - c[l];
                    out[1][l] = x[0][l] + x[1][l] - s[l];
                }
            },
            &[1e-7, 1e-7],
            &[10.0, 10.0],
            "lane-2d",
        );
        for l in 0..LANES {
            let mut xs = [1.0, 4.0];
            let iters = newton_solve(
                &mut xs,
                |v| vec![v[0] * v[1] - c[l], v[0] + v[1] - s[l]],
                &[1e-7, 1e-7],
                &[10.0, 10.0],
                &NewtonOptions::default(),
                "scalar-2d",
            )
            .unwrap();
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
        let mut x = [[1.0; LANES]];
        let status = newton_solve_lanes(
            &mut x,
            [true; LANES],
            |x, _, active, out| {
                for l in 0..LANES {
                    if !active[l] {
                        continue;
                    }
                    out[0][l] = x[0][l] * x[0][l] - c[l];
                }
            },
            &[1e-7],
            &[10.0],
            "lane-sqrt",
        );
        assert_eq!(status[3], LaneSolve::Failed);
        for l in 0..LANES {
            if l == 3 {
                continue;
            }
            let mut xs = [1.0];
            let iters = newton_solve(
                &mut xs,
                |v| vec![v[0] * v[0] - c[l]],
                &[1e-7],
                &[10.0],
                &NewtonOptions::default(),
                "scalar-sqrt",
            )
            .unwrap();
            assert_eq!(status[l], LaneSolve::Converged(iters), "lane {l}");
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
            |x, _, active, out| {
                for l in 0..LANES {
                    if !active[l] {
                        continue;
                    }
                    out[0][l] = x[0][l] - 1.0;
                }
            },
            &[1e-7],
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
            |v, out| out[0] = v[0].ln() + 2.0,
            &[1e-7],
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
        let mut c = [0.0; LANES];
        let mut s = [0.0; LANES];
        for l in 0..LANES {
            c[l] = 4.0 + l as f64;
            s[l] = 5.0 + 0.5 * l as f64;
        }
        let rows = |l: usize, v: [f64; 2]| match l {
            2 => [f64::NAN, f64::NAN],
            5 => [v[0] * v[1] - c[l], f64::NAN],
            _ => [v[0] * v[1] - c[l], v[0] + v[1] - s[l]],
        };
        let mut x = [[1.0; LANES], [4.0; LANES]];
        let status = newton_solve_lanes(
            &mut x,
            [true; LANES],
            |x, _, active, out| {
                for l in 0..LANES {
                    if active[l] {
                        let r = rows(l, [x[0][l], x[1][l]]);
                        out[0][l] = r[0];
                        out[1][l] = r[1];
                    }
                }
            },
            &[1e-7, 1e-7],
            &[10.0, 10.0],
            "lane-nan",
        );
        assert_eq!(status[2], LaneSolve::Failed);
        assert_eq!(status[5], LaneSolve::Failed);
        for l in (0..LANES).filter(|&l| l != 2 && l != 5) {
            let mut xs = [1.0, 4.0];
            let iters = newton_solve(
                &mut xs,
                |v| rows(l, [v[0], v[1]]).to_vec(),
                &[1e-7, 1e-7],
                &[10.0, 10.0],
                &NewtonOptions::default(),
                "scalar-2d",
            )
            .unwrap();
            assert_eq!(status[l], LaneSolve::Converged(iters), "lane {l}");
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
