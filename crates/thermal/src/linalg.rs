//! Small dense-vector helpers for the iterative solver
//! ([`crate::multigrid`]).

/// Dot product `Σ aᵢ·bᵢ` (plain left-to-right accumulation — solver
/// convergence checks must stay bit-stable across refactors).
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm `‖a‖₂`.
pub(crate) fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm_agree_with_hand_values() {
        let a = [3.0, 4.0];
        assert_eq!(dot(&a, &a), 25.0);
        assert_eq!(norm2(&a), 5.0);
        assert_eq!(dot(&a, &[1.0, 0.5]), 5.0);
        assert_eq!(norm2(&[]), 0.0);
    }
}
