//! Temperature-field estimation from sparse sensors, and sensor placement.
//!
//! A 3D-IC integrates a handful of PT sensors per tier, but thermal
//! management needs the whole-tier picture. This module provides the two
//! standard tools:
//!
//! * [`FieldEstimator`] — inverse-distance-weighted reconstruction of a
//!   tier's temperature field from the sensor readings;
//! * [`place_sensors_greedy`] — chooses sensor sites from a candidate set by
//!   greedily minimizing the worst reconstruction error over a set of
//!   training thermal fields (representative workloads).

use crate::error::SensorError;
use ptsim_device::units::Celsius;
use ptsim_mc::die::DieSite;
use ptsim_thermal::stack::ThermalStack;

/// Inverse-distance-weighted field reconstruction from point readings.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldEstimator {
    sites: Vec<DieSite>,
    readings: Vec<Celsius>,
    exponent: f64,
}

impl FieldEstimator {
    /// Builds an estimator from sensor sites and their readings.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidConfig`] if the slices are empty or
    /// their lengths differ.
    pub fn new(sites: Vec<DieSite>, readings: Vec<Celsius>) -> Result<Self, SensorError> {
        if sites.is_empty() || sites.len() != readings.len() {
            return Err(SensorError::InvalidConfig {
                name: "sites/readings length",
                value: sites.len() as f64,
            });
        }
        Ok(FieldEstimator {
            sites,
            readings,
            exponent: 2.0,
        })
    }

    /// Sensor sites.
    #[must_use]
    pub fn sites(&self) -> &[DieSite] {
        &self.sites
    }

    /// Estimated temperature at normalized coordinates.
    #[must_use]
    pub fn estimate(&self, x: f64, y: f64) -> Celsius {
        let mut num = 0.0;
        let mut den = 0.0;
        for (site, reading) in self.sites.iter().zip(&self.readings) {
            let d2 = (x - site.x).powi(2) + (y - site.y).powi(2);
            if d2 < 1e-12 {
                return *reading;
            }
            let w = d2.powf(-self.exponent / 2.0);
            num += w * reading.0;
            den += w;
        }
        Celsius(num / den)
    }

    /// Reconstruction error against a solved thermal stack on `tier`:
    /// `(max |error|, rms error)` over the tier's grid cells.
    ///
    /// # Errors
    ///
    /// Propagates tier-range errors from the thermal stack.
    pub fn error_against(
        &self,
        stack: &ThermalStack,
        tier: usize,
    ) -> Result<(f64, f64), SensorError> {
        let cfg = stack.config();
        let mut max_err: f64 = 0.0;
        let mut sum_sq = 0.0;
        let n = (cfg.nx * cfg.ny) as f64;
        for iy in 0..cfg.ny {
            for ix in 0..cfg.nx {
                let x = (ix as f64 + 0.5) / cfg.nx as f64;
                let y = (iy as f64 + 0.5) / cfg.ny as f64;
                let truth = stack
                    .temperature(tier, ix, iy)
                    .map_err(|_| SensorError::InvalidConfig {
                        name: "tier",
                        value: tier as f64,
                    })?
                    .0;
                let err = self.estimate(x, y).0 - truth;
                max_err = max_err.max(err.abs());
                sum_sq += err * err;
            }
        }
        Ok((max_err, (sum_sq / n).sqrt()))
    }
}

/// Ideal-sensor reconstruction error of a site subset on one training field
/// (used by the placement search: placement is a geometry problem, so the
/// sensors are assumed exact here).
fn subset_error(stack: &ThermalStack, tier: usize, sites: &[DieSite]) -> f64 {
    let readings: Vec<Celsius> = sites
        .iter()
        .map(|s| {
            stack
                .temperature_at(tier, s.x, s.y)
                .expect("tier validated by caller")
        })
        .collect();
    let est = FieldEstimator::new(sites.to_vec(), readings).expect("non-empty");
    est.error_against(stack, tier).expect("tier validated").0
}

/// Greedily selects `k` sensor sites from `candidates`, minimizing at each
/// step the worst-case (over `training` fields) max reconstruction error on
/// `tier`. Returns indices into `candidates`.
///
/// # Errors
///
/// Returns [`SensorError::InvalidConfig`] if `candidates` is empty,
/// `k == 0`, `k > candidates.len()`, or `tier` is out of range for any
/// training stack.
pub fn place_sensors_greedy(
    training: &[&ThermalStack],
    tier: usize,
    candidates: &[DieSite],
    k: usize,
) -> Result<Vec<usize>, SensorError> {
    if candidates.is_empty() || k == 0 || k > candidates.len() || training.is_empty() {
        return Err(SensorError::InvalidConfig {
            name: "placement inputs",
            value: k as f64,
        });
    }
    for stack in training {
        if tier >= stack.tiers() {
            return Err(SensorError::InvalidConfig {
                name: "tier",
                value: tier as f64,
            });
        }
    }

    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    let mut sites: Vec<DieSite> = Vec::with_capacity(k);
    for _ in 0..k {
        let mut best: Option<(usize, f64)> = None;
        for (ci, cand) in candidates.iter().enumerate() {
            if chosen.contains(&ci) {
                continue;
            }
            sites.push(*cand);
            let worst = training
                .iter()
                .map(|s| subset_error(s, tier, &sites))
                .fold(0.0f64, f64::max);
            sites.pop();
            if best.is_none_or(|(_, b)| worst < b) {
                best = Some((ci, worst));
            }
        }
        let (ci, _) = best.expect("candidates remain");
        chosen.push(ci);
        sites.push(candidates[ci]);
    }
    Ok(chosen)
}

/// Improves a placement by local swaps: repeatedly replaces one chosen site
/// with one unchosen candidate whenever that lowers the worst-case (over
/// `training`) max reconstruction error, until no single swap helps (or
/// `max_passes` is hit). Returns the refined indices.
///
/// Greedy selection is myopic; a swap pass typically recovers most of the
/// gap to the exhaustive optimum at `O(k·|candidates|)` per pass.
///
/// # Errors
///
/// Same input conditions as [`place_sensors_greedy`].
pub fn refine_placement_swaps(
    training: &[&ThermalStack],
    tier: usize,
    candidates: &[DieSite],
    chosen: &[usize],
    max_passes: usize,
) -> Result<Vec<usize>, SensorError> {
    if chosen.is_empty() || chosen.iter().any(|&i| i >= candidates.len()) {
        return Err(SensorError::InvalidConfig {
            name: "chosen placement",
            value: chosen.len() as f64,
        });
    }
    let worst = |idx: &[usize]| {
        let sites: Vec<DieSite> = idx.iter().map(|&i| candidates[i]).collect();
        training
            .iter()
            .map(|s| subset_error(s, tier, &sites))
            .fold(0.0f64, f64::max)
    };
    let mut current: Vec<usize> = chosen.to_vec();
    let mut current_err = worst(&current);
    for _ in 0..max_passes {
        let mut improved = false;
        for slot in 0..current.len() {
            for (ci, _) in candidates.iter().enumerate() {
                if current.contains(&ci) {
                    continue;
                }
                let old = current[slot];
                current[slot] = ci;
                let e = worst(&current);
                if e + 1e-12 < current_err {
                    current_err = e;
                    improved = true;
                } else {
                    current[slot] = old;
                }
            }
        }
        if !improved {
            break;
        }
    }
    Ok(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsim_device::units::Watt;
    use ptsim_thermal::power::PowerMap;
    use ptsim_thermal::solve::{solve_steady_state, SolveOptions};
    use ptsim_thermal::stack::StackConfig;

    fn hotspot_stack(cx: f64, cy: f64) -> ThermalStack {
        let mut s = ThermalStack::new(StackConfig::single_die_5mm()).unwrap();
        let mut p = PowerMap::zero(16, 16).unwrap();
        p.add_hotspot(cx, cy, 0.12, Watt(2.0)).unwrap();
        s.set_power(0, p).unwrap();
        solve_steady_state(&mut s, &SolveOptions::default()).unwrap();
        s
    }

    #[test]
    fn estimator_validates_inputs() {
        assert!(FieldEstimator::new(vec![], vec![]).is_err());
        assert!(FieldEstimator::new(vec![DieSite::CENTER], vec![]).is_err());
        assert!(FieldEstimator::new(vec![DieSite::CENTER], vec![Celsius(30.0)]).is_ok());
    }

    #[test]
    fn estimate_exact_at_a_sensor_site() {
        let est = FieldEstimator::new(
            vec![DieSite::new(0.2, 0.2), DieSite::new(0.8, 0.8)],
            vec![Celsius(30.0), Celsius(50.0)],
        )
        .unwrap();
        assert_eq!(est.estimate(0.2, 0.2).0, 30.0);
        assert_eq!(est.estimate(0.8, 0.8).0, 50.0);
    }

    #[test]
    fn estimate_interpolates_between_sites() {
        let est = FieldEstimator::new(
            vec![DieSite::new(0.0, 0.5), DieSite::new(1.0, 0.5)],
            vec![Celsius(30.0), Celsius(50.0)],
        )
        .unwrap();
        let mid = est.estimate(0.5, 0.5).0;
        assert!((mid - 40.0).abs() < 1e-9, "midpoint should average, {mid}");
        let near_left = est.estimate(0.1, 0.5).0;
        assert!(near_left < 35.0);
    }

    #[test]
    fn more_sensors_reduce_reconstruction_error() {
        let stack = hotspot_stack(0.3, 0.7);
        let few = {
            let sites = vec![DieSite::new(0.5, 0.5)];
            let readings: Vec<Celsius> = sites
                .iter()
                .map(|s| stack.temperature_at(0, s.x, s.y).unwrap())
                .collect();
            FieldEstimator::new(sites, readings)
                .unwrap()
                .error_against(&stack, 0)
                .unwrap()
                .0
        };
        let many = {
            let sites: Vec<DieSite> = (0..3)
                .flat_map(|i| {
                    (0..3)
                        .map(move |j| DieSite::new(0.17 + 0.33 * i as f64, 0.17 + 0.33 * j as f64))
                })
                .collect();
            let readings: Vec<Celsius> = sites
                .iter()
                .map(|s| stack.temperature_at(0, s.x, s.y).unwrap())
                .collect();
            FieldEstimator::new(sites, readings)
                .unwrap()
                .error_against(&stack, 0)
                .unwrap()
                .0
        };
        assert!(many < few, "3x3 grid {many:.3} vs single {few:.3}");
    }

    #[test]
    fn greedy_placement_beats_naive_corner_choice() {
        let fields = [hotspot_stack(0.3, 0.7), hotspot_stack(0.7, 0.3)];
        let refs: Vec<&ThermalStack> = fields.iter().collect();
        // Candidate grid.
        let candidates: Vec<DieSite> = (0..4)
            .flat_map(|i| {
                (0..4).map(move |j| DieSite::new(0.125 + 0.25 * i as f64, 0.125 + 0.25 * j as f64))
            })
            .collect();
        let chosen = place_sensors_greedy(&refs, 0, &candidates, 3).unwrap();
        assert_eq!(chosen.len(), 3);
        let greedy_sites: Vec<DieSite> = chosen.iter().map(|&i| candidates[i]).collect();
        let naive_sites = vec![
            DieSite::new(0.125, 0.125),
            DieSite::new(0.125, 0.375),
            DieSite::new(0.375, 0.125),
        ];
        let worst = |sites: &[DieSite]| {
            refs.iter()
                .map(|s| subset_error(s, 0, sites))
                .fold(0.0f64, f64::max)
        };
        assert!(
            worst(&greedy_sites) <= worst(&naive_sites),
            "greedy {:.3} vs naive corner cluster {:.3}",
            worst(&greedy_sites),
            worst(&naive_sites)
        );
    }

    #[test]
    fn swap_refinement_never_hurts() {
        let fields = [hotspot_stack(0.3, 0.7), hotspot_stack(0.7, 0.3)];
        let refs: Vec<&ThermalStack> = fields.iter().collect();
        let candidates: Vec<DieSite> = (0..4)
            .flat_map(|i| {
                (0..4).map(move |j| DieSite::new(0.125 + 0.25 * i as f64, 0.125 + 0.25 * j as f64))
            })
            .collect();
        let worst = |idx: &[usize]| {
            let sites: Vec<DieSite> = idx.iter().map(|&i| candidates[i]).collect();
            refs.iter()
                .map(|s| subset_error(s, 0, &sites))
                .fold(0.0f64, f64::max)
        };
        let greedy = place_sensors_greedy(&refs, 0, &candidates, 3).unwrap();
        let refined = refine_placement_swaps(&refs, 0, &candidates, &greedy, 10).unwrap();
        assert!(worst(&refined) <= worst(&greedy) + 1e-12);
        // Refinement from a deliberately bad start must improve it.
        let bad = vec![0usize, 1, 2];
        let fixed = refine_placement_swaps(&refs, 0, &candidates, &bad, 10).unwrap();
        assert!(worst(&fixed) <= worst(&bad));
    }

    #[test]
    fn swap_refinement_validates_inputs() {
        let stack = hotspot_stack(0.5, 0.5);
        let refs = [&stack];
        let cands = vec![DieSite::CENTER, DieSite::new(0.2, 0.2)];
        assert!(refine_placement_swaps(&refs, 0, &cands, &[], 3).is_err());
        assert!(refine_placement_swaps(&refs, 0, &cands, &[7], 3).is_err());
        assert!(refine_placement_swaps(&refs, 0, &cands, &[0], 3).is_ok());
    }

    #[test]
    fn placement_validates_inputs() {
        let stack = hotspot_stack(0.5, 0.5);
        let refs = [&stack];
        let cands = vec![DieSite::CENTER];
        assert!(place_sensors_greedy(&refs, 0, &[], 1).is_err());
        assert!(place_sensors_greedy(&refs, 0, &cands, 0).is_err());
        assert!(place_sensors_greedy(&refs, 0, &cands, 2).is_err());
        assert!(place_sensors_greedy(&refs, 5, &cands, 1).is_err());
        assert!(place_sensors_greedy(&refs, 0, &cands, 1).is_ok());
    }
}
