//! Error type for the thermal crate.

use std::error::Error;
use std::fmt;

/// Errors produced when constructing or solving thermal models.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ThermalError {
    /// A grid dimension was zero.
    InvalidGrid {
        /// Cells in X.
        nx: usize,
        /// Cells in Y.
        ny: usize,
    },
    /// A power value was negative or non-finite.
    InvalidPower {
        /// Offending value in watts.
        watts: f64,
    },
    /// A geometry parameter (thickness, die size, tier count) was out of
    /// range.
    InvalidGeometry {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A power map with mismatched resolution was assigned to a tier.
    ResolutionMismatch {
        /// Expected `(nx, ny)`.
        expected: (usize, usize),
        /// Provided `(nx, ny)`.
        got: (usize, usize),
    },
    /// A tier index was out of range.
    TierOutOfRange {
        /// Offending tier.
        tier: usize,
        /// Number of tiers in the stack.
        tiers: usize,
    },
    /// The iterative solver converged on a field holding a non-finite
    /// temperature. The sweep's residual folds with `f64::max`, which
    /// drops NaN updates, so convergence alone does not prove a finite
    /// field.
    NonFiniteField {
        /// Sweeps performed.
        iterations: usize,
    },
    /// The iterative solver failed to converge.
    NotConverged {
        /// Iterations performed.
        iterations: usize,
        /// Final residual (max |ΔT| per sweep, °C).
        residual: f64,
    },
}

impl fmt::Display for ThermalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThermalError::InvalidGrid { nx, ny } => {
                write!(f, "invalid thermal grid {nx}x{ny}")
            }
            ThermalError::InvalidPower { watts } => write!(f, "invalid power {watts} W"),
            ThermalError::NonFiniteField { iterations } => write!(
                f,
                "steady-state field non-finite after {iterations} sweeps"
            ),
            ThermalError::InvalidGeometry { name, value } => {
                write!(f, "invalid geometry parameter {name} = {value}")
            }
            ThermalError::ResolutionMismatch { expected, got } => write!(
                f,
                "power map resolution {}x{} does not match grid {}x{}",
                got.0, got.1, expected.0, expected.1
            ),
            ThermalError::TierOutOfRange { tier, tiers } => {
                write!(f, "tier {tier} out of range (stack has {tiers})")
            }
            ThermalError::NotConverged {
                iterations,
                residual,
            } => write!(
                f,
                "steady-state solve did not converge after {iterations} iterations (residual {residual:.3e} °C)"
            ),
        }
    }
}

impl Error for ThermalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_contain_context() {
        let e = ThermalError::ResolutionMismatch {
            expected: (16, 16),
            got: (8, 8),
        };
        assert!(e.to_string().contains("8x8"));
        assert!(e.to_string().contains("16x16"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<ThermalError>();
    }
}
