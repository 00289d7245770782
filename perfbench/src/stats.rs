//! The benchmark's own arithmetic: percentiles under the ten-beyond rule,
//! open-loop due-time accounting, the `max_rps` ladder, and the residual
//! of the layer ledger. Kept free of I/O so `tests/arithmetic.rs` can pin
//! every rule on hand-made inputs.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` samples, `q` in `(0, 1]`.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// `q`-percentile.
#[must_use]
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// The `q`-percentile, or `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond it (the percentile would rest on a handful of outliers).
#[must_use]
pub fn reportable(sorted: &[f64], q: f64) -> Option<f64> {
    (beyond(sorted.len(), q) >= MIN_BEYOND).then(|| percentile(sorted, q))
}

/// Median and tail of one latency population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 95th percentile, when [`reportable`].
    pub p95: Option<f64>,
    /// 99th percentile, when [`reportable`].
    pub p99: Option<f64>,
    /// Arithmetic mean (what the additive layer ledger uses).
    pub mean: f64,
}

/// Summarizes `samples` (sorted in place).
///
/// # Panics
///
/// Panics on an empty vector.
#[must_use]
pub fn summarize(samples: &mut [f64]) -> Summary {
    samples.sort_by(f64::total_cmp);
    Summary {
        n: samples.len(),
        p50: percentile(samples, 0.5),
        p95: reportable(samples, 0.95),
        p99: reportable(samples, 0.99),
        mean: samples.iter().sum::<f64>() / samples.len() as f64,
    }
}

/// Median of unsorted values (copies them).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// One open-loop request: when it was due, when the generator actually
/// sent it (a sleeping generator may wake a few µs early, or late), and
/// when its reply arrived, all in µs from the phase start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// Scheduled send instant.
    pub due_us: f64,
    /// Actual send instant.
    pub sent_us: f64,
    /// Reply instant.
    pub done_us: f64,
}

impl Timed {
    /// Latency as the user sees it: from when the request was due, so a
    /// stall charges every request scheduled behind it (from when it was
    /// sent, if the generator sent it early).
    #[must_use]
    pub fn latency_us(&self) -> f64 {
        self.done_us - self.due_us.min(self.sent_us)
    }

    /// How late the generator sent the request (negative: early).
    #[must_use]
    pub fn lateness_us(&self) -> f64 {
        self.sent_us - self.due_us
    }
}

/// Due instant (µs from the phase start) of request `i` of a connection
/// sending at `rate` per second, offset by `phase` of one interval so
/// several connections interleave instead of firing together.
#[must_use]
pub fn due_us(i: usize, rate: f64, phase: f64) -> f64 {
    (i as f64 + phase) * 1e6 / rate
}

/// A backlog grows when requests sent in the last quarter of a phase ran
/// later, on average, than those of the first quarter by more than
/// `limit_us`: the system fell behind the schedule and did not catch up.
/// `lateness_us` is in send order.
#[must_use]
pub fn backlog_growing(lateness_us: &[f64], limit_us: f64) -> bool {
    let q = lateness_us.len() / 4;
    if q == 0 {
        return false;
    }
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    mean(&lateness_us[lateness_us.len() - q..]) - mean(&lateness_us[..q]) > limit_us
}

/// Outcome of one rung of the offered-rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// p99 latency from due time, when reportable.
    pub p99_us: Option<f64>,
    /// Whether the backlog grew over the rung.
    pub backlog_growing: bool,
    /// Requests that failed (refused, timed out, or wrong).
    pub failed: u64,
}

impl Rung {
    /// A rung passes with no failure, a reportable p99 within `limit_us`,
    /// and no growing backlog.
    #[must_use]
    pub fn passes(&self, limit_us: f64) -> bool {
        self.failed == 0 && !self.backlog_growing && self.p99_us.is_some_and(|p| p <= limit_us)
    }
}

/// The highest rate of the ladder's passing prefix (rungs in ascending
/// rate order); the climb stops at the first failing rung, since load past
/// it only measures overload. `0.0` when even the first rung fails.
#[must_use]
pub fn max_rps(rungs: &[Rung], limit_us: f64) -> f64 {
    rungs
        .iter()
        .take_while(|r| r.passes(limit_us))
        .last()
        .map_or(0.0, |r| r.rate)
}

/// Share of an end-to-end total that the measured layer parts do not
/// explain: `(total − Σ parts) / total`. Negative when the parts overlap
/// or were measured on a slower path than the total.
#[must_use]
pub fn unattributed_share(total: f64, parts: &[f64]) -> f64 {
    (total - parts.iter().sum::<f64>()) / total
}

/// Relative cost of the traced run over the untraced one, from per-unit
/// times: `traced / untraced − 1`.
#[must_use]
pub fn trace_overhead(untraced_per_unit: f64, traced_per_unit: f64) -> f64 {
    traced_per_unit / untraced_per_unit - 1.0
}

/// FNV-1a over a stream of `f64` bit patterns: the population output
/// digest (any bit that moves changes it).
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one value's bit pattern in.
    pub fn push(&mut self, x: f64) {
        for b in x.to_bits().to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// SplitMix64 finalizer: derives independent sub-seeds from the workload
/// seed (`mix(seed ^ salt)`), so each workload's inputs are a pure
/// function of `--seed`.
#[must_use]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
