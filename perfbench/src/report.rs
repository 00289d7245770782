//! What one run prints: named metrics with units, correctness checks, the
//! per-layer catalog, and the host-noise control.

use std::fmt::Write as _;
use std::time::Instant;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
#[must_use]
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// One layer of the ledger: its metric, unit, and the end-to-end metric
/// (and workload) it should move.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The end-to-end figure this layer feeds.
    pub moves: &'static str,
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them. A
/// traced run prints all of them; a layer the workload never enters reads
/// `0` there (the workload spends no time in it).
pub const LAYERS: &[Layer] = &[
    Layer {
        name: "mc.sample_die_us",
        unit: "us",
        moves: "dies_per_s @population",
    },
    Layer {
        name: "mc.worker_busy_ratio",
        unit: "ratio",
        moves: "dies_per_s @population",
    },
    Layer {
        name: "core.calib.calibrate_us",
        unit: "us",
        moves: "dies_per_s @population, setup_s @fleet",
    },
    Layer {
        name: "core.pipeline.acquire_us",
        unit: "us",
        moves: "dies_per_s @population, read_p50_us @fleet",
    },
    Layer {
        name: "core.pipeline.gate_us",
        unit: "us",
        moves: "dies_per_s @population, read_p50_us @fleet",
    },
    Layer {
        name: "core.pipeline.finalize_us",
        unit: "us",
        moves: "dies_per_s @population, read_p50_us @fleet",
    },
    Layer {
        name: "core.pipeline.solve_lanes_us",
        unit: "us",
        moves: "dies_per_s, energy_pj_per_conv @population",
    },
    Layer {
        name: "core.lanes.fallback_ratio",
        unit: "ratio",
        moves: "dies_per_s, energy_pj_per_conv @population",
    },
    Layer {
        name: "core.newton.iters_per_conv",
        unit: "count",
        moves: "dies_per_s, energy_pj_per_conv @population",
    },
    Layer {
        name: "core.gate.retry_ratio",
        unit: "ratio",
        moves: "dies_per_s, energy_pj_per_conv @population",
    },
    Layer {
        name: "core.pipeline.solve_scalar_us",
        unit: "us",
        moves: "read_p50_us @fleet",
    },
    Layer {
        name: "core.pipeline.convert_us",
        unit: "us",
        moves: "read_p50_us @fleet",
    },
    Layer {
        name: "device.current_ns",
        unit: "ns",
        moves: "solve/acquire layers @population, @fleet",
    },
    Layer {
        name: "circuit.ring_freq_ns",
        unit: "ns",
        moves: "solve/acquire layers @population, @fleet",
    },
    Layer {
        name: "service.wire.v2_roundtrip_ns",
        unit: "ns",
        moves: "read_p50_us @fleet",
    },
    Layer {
        name: "service.json.v1_roundtrip_ns",
        unit: "ns",
        moves: "read_p50_us @fleet",
    },
    Layer {
        name: "service.server.socket_us",
        unit: "us",
        moves: "read_p50_us @fleet",
    },
    Layer {
        name: "service.fleet.submit_us",
        unit: "us",
        moves: "read_p99_heavy_us, max_rps @fleet",
    },
    Layer {
        name: "service.shard.queue_wait_us",
        unit: "us",
        moves: "read_p99_heavy_us, max_rps @fleet",
    },
    Layer {
        name: "service.calibrate_us",
        unit: "us",
        moves: "read_p99_heavy_us, fail_ratio @fleet",
    },
    Layer {
        name: "service.batch_item_us",
        unit: "us",
        moves: "read_p99_heavy_us, max_rps @fleet",
    },
    Layer {
        name: "svc.coalesced_read_ratio",
        unit: "ratio",
        moves: "read_p99_heavy_us, max_rps @fleet",
    },
    Layer {
        name: "svc.queue_peak",
        unit: "count",
        moves: "read_p99_heavy_us, fail_ratio @fleet",
    },
    Layer {
        name: "svc.deadline_drops",
        unit: "count",
        moves: "fail_ratio @fleet",
    },
    Layer {
        name: "tsv.stack_build_ms",
        unit: "ms",
        moves: "steps_per_s @dtm",
    },
    Layer {
        name: "thermal.steady_ms",
        unit: "ms",
        moves: "steps_per_s @dtm",
    },
    Layer {
        name: "thermal.steady_sweeps",
        unit: "count",
        moves: "steps_per_s @dtm",
    },
    Layer {
        name: "thermal.transient_step_us",
        unit: "us",
        moves: "steps_per_s @dtm",
    },
    Layer {
        name: "dtm.power_map_us",
        unit: "us",
        moves: "steps_per_s @dtm",
    },
    Layer {
        name: "dtm.sense_nominal_us",
        unit: "us",
        moves: "steps_per_s @dtm",
    },
    Layer {
        name: "dtm.sense_dvs_us",
        unit: "us",
        moves: "steps_per_s @dtm",
    },
    Layer {
        name: "dtm.observe_ns",
        unit: "ns",
        moves: "steps_per_s @dtm",
    },
    Layer {
        name: "unattributed_share",
        unit: "ratio",
        moves: "the workload's own ledger residual",
    },
    Layer {
        name: "trace_overhead",
        unit: "ratio",
        moves: "traced vs untraced cost per unit of work",
    },
];

/// The end-to-end metrics every workload reports, in `BENCHMARK.json`
/// order, with what each means per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_us_per_op", "us"),
];

/// A named pass/fail correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    /// Check name.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Measured value against its bound, for the log line.
    pub detail: String,
}

/// Everything a workload run produces.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed (refused, timed out, wrong, or off-band).
    pub failed: u64,
    /// Correctness checks; any failure fails the run.
    pub checks: Vec<Check>,
    /// The generic end-to-end metrics ([`END_TO_END`]).
    pub end_to_end: Vec<Metric>,
    /// The workload's own named figures (printed, not in the JSON line).
    pub figures: Vec<Metric>,
    /// Per-layer metrics of a traced run (subset of [`LAYERS`]).
    pub layers: Vec<Metric>,
}

impl Outcome {
    /// Records a check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// True when every check held and nothing failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The JSON metrics object: the end-to-end set untraced, every
    /// [`LAYERS`] entry traced (zero for layers the workload never enters).
    #[must_use]
    pub fn metrics_json(&self, traced: bool) -> String {
        let mut out = String::from("{");
        let mut first = true;
        let mut push = |name: &str, value: f64, unit: &str| {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        };
        if traced {
            for l in LAYERS {
                let v = self
                    .layers
                    .iter()
                    .find(|m| m.name == l.name)
                    .map_or(0.0, |m| m.value);
                push(l.name, v, l.unit);
            }
        } else {
            for &(name, unit) in END_TO_END {
                let v = self
                    .end_to_end
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value);
                push(name, v, unit);
            }
        }
        out.push('}');
        out
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used so far, all threads (live and exited),
/// in seconds, at nanosecond resolution.
#[must_use]
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout of
    // 64-bit Linux (two 64-bit fields), and the clock id is a constant the
    // kernel defines; `clock_gettime` writes only through that pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Runs `f` once, returning its result with the CPU seconds (all threads)
/// and the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let (c0, w0) = (process_cpu_s(), Instant::now());
    let out = f();
    let wall = w0.elapsed().as_secs_f64();
    (out, process_cpu_s() - c0, wall)
}

/// Runs `setup` `n` times, handing every result but the last to
/// `discard`, and returns the last result with the median CPU seconds
/// (all threads) and the median wall seconds of one set-up. `setup_s` is
/// the CPU figure: on a shared host, wall time also counts the time other
/// tenants hold the cores.
pub fn measure_setup<T>(
    n: usize,
    mut setup: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> (T, f64, f64) {
    let mut cpu = Vec::with_capacity(n);
    let mut wall = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        if let Some(t) = last.take() {
            discard(t);
        }
        let (out, c, w) = timed(&mut setup);
        last = Some(out);
        cpu.push(c);
        wall.push(w);
    }
    (
        last.expect("at least one set-up ran"),
        crate::stats::median(&cpu),
        crate::stats::median(&wall),
    )
}

/// The host-noise control: a fixed CPU-bound loop that touches no
/// repository code, timed in ms. Reported beside every run so a noisy or
/// throttled host shows; never gated.
#[must_use]
pub fn host_control_ms() -> f64 {
    let started = Instant::now();
    let mut x = std::hint::black_box(0x2545_f491_4f6c_dd1d_u64);
    let mut acc = std::hint::black_box(1.0f64);
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.mul_add(0.999_999, (x >> 40) as f64 * 1e-12);
    }
    std::hint::black_box((x, acc));
    started.elapsed().as_secs_f64() * 1e3
}

/// Worker threads the benchmark uses: the host's available parallelism.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
