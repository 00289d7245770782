//! Property-based tests of the Monte-Carlo engine invariants.

use ptsim_device::process::Technology;
use ptsim_mc::die::DieSite;
use ptsim_mc::driver::{die_rng, run_parallel, McConfig};
use ptsim_mc::model::VariationModel;
use ptsim_mc::spatial::{SpatialConfig, SpatialField};
use ptsim_mc::stats::{quantile_in_place, Histogram, OnlineStats};
use ptsim_rng::forall;
use ptsim_rng::Pcg64;
use ptsim_rng::Rng;

forall! {
    #[test]
    fn spatial_field_deterministic_per_seed(seed in 0u64..1000) {
        let cfg = SpatialConfig::vt_default(0.005);
        let a = SpatialField::generate(&cfg, &mut Pcg64::seed_from_u64(seed));
        let b = SpatialField::generate(&cfg, &mut Pcg64::seed_from_u64(seed));
        assert_eq!(a, b);
    }

    #[test]
    fn die_env_fields_finite(seed in 0u64..500, x in 0.0f64..1.0, y in 0.0f64..1.0) {
        let model = VariationModel::new(&Technology::n65());
        let mut rng = Pcg64::seed_from_u64(seed);
        let die = model.sample_die(&mut rng);
        let env = die.env_at(DieSite::new(x, y), ptsim_device::units::Celsius(42.0));
        assert!(env.d_vtn.is_finite());
        assert!(env.d_vtp.is_finite());
        assert!(env.mu_n.is_finite() && env.mu_n > 0.0);
        assert!(env.mu_p.is_finite() && env.mu_p > 0.0);
    }

    #[test]
    fn parallel_driver_is_pure(seed in 0u64..200, n in 1usize..40) {
        let cfg = McConfig::new(n, seed);
        let f = |i: u64, rng: &mut Pcg64| (i, rng.gen::<u64>());
        assert_eq!(run_parallel(&cfg, f), run_parallel(&cfg, f));
    }

    #[test]
    fn die_rng_streams_differ(base in 0u64..1000, i in 0u64..100, j in 101u64..200) {
        let a: u64 = die_rng(base, i).gen();
        let b: u64 = die_rng(base, j).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn histogram_total_counts_all_pushes(xs in ptsim_rng::check::vec_in(-10.0f64..10.0, 1..100)) {
        let mut h = Histogram::new(-5.0, 5.0, 7);
        for x in &xs {
            h.push(*x);
        }
        assert_eq!(h.total(), xs.len() as u64);
        assert_eq!(h.counts().iter().sum::<u64>(), xs.len() as u64);
    }

    #[test]
    fn quantiles_are_monotone(mut xs in ptsim_rng::check::vec_in(-100.0f64..100.0, 3..60)) {
        let q25 = quantile_in_place(&mut xs, 0.25).unwrap();
        let q50 = quantile_in_place(&mut xs, 0.50).unwrap();
        let q75 = quantile_in_place(&mut xs, 0.75).unwrap();
        assert!(q25 <= q50 && q50 <= q75);
    }

    #[test]
    fn quantile_never_panics_with_a_nan_sample(
        mut xs in ptsim_rng::check::vec_in(-100.0f64..100.0, 1..40),
        at in 0usize..40,
        q in 0.0f64..1.0,
    ) {
        // One bad sample mid-campaign must surface as a typed error (with
        // the position of the first NaN), never a panic.
        let at = at % xs.len();
        xs[at] = f64::NAN;
        let first_nan = xs.iter().position(|x| x.is_nan()).unwrap();
        assert_eq!(
            quantile_in_place(&mut xs, q),
            Err(ptsim_mc::stats::StatsError::NanSample { index: first_nan })
        );
        // Removing the NaN makes the same batch computable again.
        xs.remove(first_nan);
        if !xs.is_empty() {
            assert!(quantile_in_place(&mut xs, q).unwrap().is_finite());
        }
    }

    #[test]
    fn online_stats_bounds_hold(xs in ptsim_rng::check::vec_in(-1e6f64..1e6, 1..200)) {
        let s: OnlineStats = xs.iter().copied().collect();
        assert!(s.min() <= s.mean() + 1e-9);
        assert!(s.mean() <= s.max() + 1e-9);
        assert!(s.variance() >= 0.0);
        assert_eq!(s.count(), xs.len() as u64);
    }
}
