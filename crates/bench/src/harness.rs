//! Minimal internal micro-benchmark harness — the workspace's zero-dependency
//! replacement for `criterion`.
//!
//! Protocol per benchmark: calibrate an iteration count so one sample takes
//! roughly [`Config::target_sample`], warm up for [`Config::warmup`], then
//! take [`Config::samples`] timed samples and report median / min / mean
//! nanoseconds-per-iteration. Results print as one JSON object per line so
//! `BENCH_*.json` trajectories can be scraped straight from stdout.

use crate::knobs::knob;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Harness tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of timed samples (median is reported).
    pub samples: usize,
    /// Wall-clock target for one sample during calibration.
    pub target_sample: Duration,
    /// Warmup duration before sampling.
    pub warmup: Duration,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            samples: 15,
            target_sample: Duration::from_millis(40),
            warmup: Duration::from_millis(200),
        }
    }
}

impl Config {
    /// Default config with optional environment overrides, so CI can run the
    /// full bench suite as a fast smoke test without timing significance:
    /// `PTSIM_BENCH_SAMPLES`, `PTSIM_BENCH_TARGET_US`, `PTSIM_BENCH_WARMUP_US`.
    #[must_use]
    pub fn from_env() -> Self {
        let mut cfg = Config::default();
        if let Some(n) = knob::<usize>("PTSIM_BENCH_SAMPLES") {
            cfg.samples = n.max(1);
        }
        if let Some(us) = knob::<u64>("PTSIM_BENCH_TARGET_US") {
            cfg.target_sample = Duration::from_micros(us.max(1));
        }
        if let Some(us) = knob("PTSIM_BENCH_WARMUP_US") {
            cfg.warmup = Duration::from_micros(us);
        }
        cfg
    }
}

/// Machine-readable metadata of one bench run, emitted as the first JSON
/// line so successive `BENCH_*.json` files are comparable. Rev and date are
/// provided by the caller (the harness reads no clock and runs no `git`):
/// either directly or via `PTSIM_BENCH_GIT_REV` / `PTSIM_BENCH_DATE`, which
/// `scripts/bench.sh` populates.
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// Git revision of the benched tree (caller-provided, "unknown" if unset).
    pub git_rev: String,
    /// Worker threads available on the machine.
    pub threads: usize,
    /// Run date, ISO 8601 (caller-provided, "unknown" if unset).
    pub date: String,
}

impl RunMeta {
    /// Builds metadata from explicit caller-supplied values.
    #[must_use]
    pub fn new(git_rev: &str, threads: usize, date: &str) -> Self {
        RunMeta {
            git_rev: git_rev.to_string(),
            threads,
            date: date.to_string(),
        }
    }

    /// Builds metadata from `PTSIM_BENCH_GIT_REV` / `PTSIM_BENCH_DATE`
    /// (falling back to `"unknown"`) and the machine's thread count.
    #[must_use]
    pub fn from_env() -> Self {
        let get = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
        RunMeta {
            git_rev: get("PTSIM_BENCH_GIT_REV"),
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            date: get("PTSIM_BENCH_DATE"),
        }
    }

    /// One-line JSON header record (stable key order, no external
    /// serializer). Quotes and backslashes in caller strings are dropped so
    /// the line always stays parseable.
    #[must_use]
    pub fn to_json(&self) -> String {
        let clean = |s: &str| {
            s.chars()
                .filter(|c| !c.is_control() && *c != '"' && *c != '\\')
                .collect::<String>()
        };
        format!(
            "{{\"meta\":{{\"git_rev\":\"{}\",\"threads\":{},\"date\":\"{}\"}}}}",
            clean(&self.git_rev),
            self.threads,
            clean(&self.date),
        )
    }
}

/// Prints the env-derived [`RunMeta`] header line; call first in bench mains.
pub fn emit_meta() {
    println!("{}", RunMeta::from_env().to_json());
}

/// Prints an observability snapshot as one `{"metrics":{...}}` JSON line,
/// alongside the `{"meta":...}` and per-benchmark records — scrapers skip
/// or collect it by its distinct top-level key.
pub fn emit_metrics(snapshot: &ptsim_obs::Snapshot) {
    println!("{{\"metrics\":{}}}", snapshot.to_json());
}

/// Outcome of one benchmark: per-iteration timings in nanoseconds.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Iterations per timed sample.
    pub iters_per_sample: u64,
    /// Sorted per-iteration nanoseconds, one entry per sample.
    pub samples_ns: Vec<f64>,
}

impl BenchResult {
    /// Median nanoseconds per iteration.
    #[must_use]
    pub fn median_ns(&self) -> f64 {
        let n = self.samples_ns.len();
        if n == 0 {
            return f64::NAN;
        }
        if n % 2 == 1 {
            self.samples_ns[n / 2]
        } else {
            (self.samples_ns[n / 2 - 1] + self.samples_ns[n / 2]) / 2.0
        }
    }

    /// Fastest observed sample (ns/iter).
    #[must_use]
    pub fn min_ns(&self) -> f64 {
        self.samples_ns.first().copied().unwrap_or(f64::NAN)
    }

    /// Mean nanoseconds per iteration over all samples.
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.samples_ns.is_empty() {
            return f64::NAN;
        }
        self.samples_ns.iter().sum::<f64>() / self.samples_ns.len() as f64
    }

    /// One-line JSON record (stable key order, no external serializer).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"median_ns\":{:.1},\"min_ns\":{:.1},\"mean_ns\":{:.1},\"samples\":{},\"iters_per_sample\":{}}}",
            self.name,
            self.median_ns(),
            self.min_ns(),
            self.mean_ns(),
            self.samples_ns.len(),
            self.iters_per_sample,
        )
    }
}

/// Times `f` under [`Config::from_env`] (the default config plus CI smoke
/// overrides) and prints the JSON record.
pub fn bench(name: &str, f: impl FnMut()) -> BenchResult {
    bench_with(&Config::from_env(), name, f)
}

/// Times `f` under an explicit [`Config`] and prints the JSON record.
pub fn bench_with(cfg: &Config, name: &str, mut f: impl FnMut()) -> BenchResult {
    // Calibrate: double the iteration count until one batch crosses ~1/8 of
    // the target, then scale up linearly.
    let mut iters: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(&mut f)();
        }
        let elapsed = t.elapsed();
        if elapsed >= cfg.target_sample / 8 || iters >= 1 << 30 {
            let scale = cfg.target_sample.as_secs_f64() / elapsed.as_secs_f64().max(1e-9);
            iters = ((iters as f64 * scale).ceil() as u64).max(1);
            break;
        }
        iters *= 2;
    }

    // Warmup.
    let warm_start = Instant::now();
    while warm_start.elapsed() < cfg.warmup {
        black_box(&mut f)();
    }

    // Timed samples.
    let mut samples_ns = Vec::with_capacity(cfg.samples);
    for _ in 0..cfg.samples {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(&mut f)();
        }
        samples_ns.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    samples_ns.sort_by(f64::total_cmp);

    let result = BenchResult {
        name: name.to_string(),
        iters_per_sample: iters,
        samples_ns,
    };
    println!("{}", result.to_json());
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> Config {
        Config {
            samples: 5,
            target_sample: Duration::from_micros(200),
            warmup: Duration::from_micros(100),
        }
    }

    #[test]
    fn measures_something_positive() {
        let r = bench_with(&quick_config(), "spin", || {
            black_box((0..100u64).sum::<u64>());
        });
        assert!(r.median_ns() > 0.0);
        assert!(r.min_ns() <= r.median_ns());
        assert_eq!(r.samples_ns.len(), 5);
    }

    #[test]
    fn json_shape_is_stable() {
        let r = BenchResult {
            name: "x".into(),
            iters_per_sample: 10,
            samples_ns: vec![1.0, 2.0, 3.0],
        };
        let j = r.to_json();
        assert!(j.starts_with("{\"name\":\"x\","));
        assert!(j.contains("\"median_ns\":2.0"));
        assert!(j.contains("\"iters_per_sample\":10"));
        assert!(j.ends_with('}'));
    }

    #[test]
    fn median_of_even_sample_count() {
        let r = BenchResult {
            name: "e".into(),
            iters_per_sample: 1,
            samples_ns: vec![1.0, 2.0, 4.0, 8.0],
        };
        assert!((r.median_ns() - 3.0).abs() < 1e-12);
        assert!((r.mean_ns() - 3.75).abs() < 1e-12);
    }
}
