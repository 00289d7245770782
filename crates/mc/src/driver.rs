//! Parallel Monte-Carlo driver.
//!
//! Runs a per-die closure across a pool of scoped `std::thread` workers with
//! *deterministic* per-die seeding: die `i` always sees the same RNG stream
//! regardless of thread count or scheduling, so experiment results are
//! reproducible and bisectable. Zero external dependencies — work
//! distribution is a lock-free atomic cursor, and each worker's results
//! come back through its join handle.

use ptsim_rng::{Pcg64, SplitMix64};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Configuration for a Monte-Carlo run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McConfig {
    /// Number of dies to simulate.
    pub n_dies: usize,
    /// Base seed; die `i` derives its stream from `(base_seed, i)`.
    pub base_seed: u64,
    /// Worker threads (`0` = one per available CPU).
    pub threads: usize,
}

impl McConfig {
    /// `n_dies` dies with a fixed seed and automatic thread count.
    #[must_use]
    pub fn new(n_dies: usize, base_seed: u64) -> Self {
        McConfig {
            n_dies,
            base_seed,
            threads: 0,
        }
    }

    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig::new(1000, 0x5eed_cafe)
    }
}

/// SplitMix64 finalizer — decorrelates per-die seeds derived from
/// `(base_seed, index)`.
fn mix_seed(base: u64, index: u64) -> u64 {
    SplitMix64::finalize(base ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Deterministic RNG for die `index` of a run seeded with `base`.
#[must_use]
pub fn die_rng(base: u64, index: u64) -> Pcg64 {
    Pcg64::seed_from_u64(mix_seed(base, index))
}

/// Deterministic root seed of die `index`'s counter-based within-die field
/// draws (the sparse batch-sampling discipline; see
/// `ptsim_mc::model::DieSampler::sample_die_sparse`). Salted so it is
/// decorrelated from the same die's [`die_rng`] stream.
#[must_use]
pub fn die_field_seed(base: u64, index: u64) -> u64 {
    mix_seed(base ^ 0xa02f_7c57_115e_6f1d, index)
}

/// Runs `f(die_index, rng)` for every die, in parallel, and returns results
/// in die order.
///
/// The closure must be `Sync` because it is shared across workers; results
/// must be `Send`. Each invocation receives a deterministic, independent RNG,
/// so the output is bit-identical for any `threads` setting (see
/// `tests/determinism.rs` at the workspace root).
///
/// ```
/// use ptsim_mc::driver::{run_parallel, McConfig};
/// use ptsim_rng::Rng;
///
/// let out = run_parallel(&McConfig::new(8, 42), |i, rng| {
///     (i, rng.gen::<u32>())
/// });
/// assert_eq!(out.len(), 8);
/// assert!(out.iter().enumerate().all(|(i, (j, _))| i as u64 == *j));
/// ```
pub fn run_parallel<T, F>(cfg: &McConfig, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64, &mut Pcg64) -> T + Sync,
{
    run_parallel_with(cfg, || (), |(), i, rng| f(i, rng)).0
}

/// [`run_parallel`] with a per-worker context: `init()` runs once on each
/// worker thread and its result is threaded through every die that worker
/// processes, then handed back in that worker's [`WorkerReport`].
///
/// This is how per-run setup (a cloned sensor prototype with its design
/// bands and characterized model already built, scratch buffers, a metrics
/// registry, …) is amortized across dies. Determinism is unchanged — die
/// `i` still sees exactly `die_rng(base_seed, i)` and the context must not
/// leak state between dies in any result-visible way. Callers that only
/// want the results take `.0`.
pub fn run_parallel_with<C, T, FI, F>(
    cfg: &McConfig,
    init: FI,
    f: F,
) -> (Vec<T>, Vec<WorkerReport<C>>)
where
    C: Send,
    T: Send,
    FI: Fn() -> C + Sync,
    F: Fn(&mut C, u64, &mut Pcg64) -> T + Sync,
{
    let base = cfg.base_seed;
    run_parallel_chunked(cfg, 1, init, |ctx, i, _, out| {
        let mut rng = die_rng(base, i);
        out.push(f(ctx, i, &mut rng));
    })
}

/// The Monte-Carlo engine: runs the dies in fixed-size *chunks* of
/// consecutive dies across a pool of scoped workers. The closure receives
/// `(ctx, start_die, len, out)` and must push exactly `len` results for
/// dies `start_die .. start_die + len`, in die order, deriving each die's
/// stream itself via [`die_rng`]`(cfg.base_seed, i)`. Results come back in
/// die order, alongside one [`WorkerReport`] per worker that ran (at most
/// `threads`, in no particular order).
///
/// Work is distributed by *chunk index* from a shared atomic cursor, so
/// fast workers naturally take load from slow ones while the partition of
/// dies into chunks — and therefore anything chunk-shaped the closure
/// computes, like a lane-parallel solve across the chunk — is **identical
/// for every `threads` setting**: determinism holds chunk-wise, not just
/// die-wise. The final chunk is short when `n_dies` is not a multiple of
/// `chunk`. With one worker the loop runs on the calling thread. A
/// panicking closure propagates its panic to the caller once every worker
/// has stopped.
///
/// # Panics
///
/// Panics if `chunk` is zero or the closure pushes a wrong result count.
pub fn run_parallel_chunked<C, T, FI, F>(
    cfg: &McConfig,
    chunk: usize,
    init: FI,
    f: F,
) -> (Vec<T>, Vec<WorkerReport<C>>)
where
    C: Send,
    T: Send,
    FI: Fn() -> C + Sync,
    F: Fn(&mut C, u64, usize, &mut Vec<T>) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    if cfg.n_dies == 0 {
        return (Vec::new(), Vec::new());
    }
    let n_chunks = cfg.n_dies.div_ceil(chunk);
    let threads = cfg.effective_threads().max(1).min(n_chunks);
    let chunk_len = |c: usize| chunk.min(cfg.n_dies - c * chunk);
    let next = AtomicUsize::new(0);

    // One worker: drain chunks from the cursor into a local buffer, noting
    // which chunks it took (in increasing order, since the cursor is
    // monotonic). Results are buffered locally and merged once, after the
    // pool has stopped, so workers never contend on a lock.
    let work = || {
        let start_t = Instant::now();
        let mut ctx = init();
        let mut results: Vec<T> = Vec::with_capacity((n_chunks / threads + 1) * chunk);
        let mut taken: Vec<usize> = Vec::new();
        loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            if c >= n_chunks {
                break;
            }
            let before = results.len();
            f(&mut ctx, (c * chunk) as u64, chunk_len(c), &mut results);
            assert_eq!(
                results.len() - before,
                chunk_len(c),
                "chunk closure must push one result per die"
            );
            taken.push(c);
        }
        let report = WorkerReport {
            ctx,
            dies: results.len() as u64,
            busy: start_t.elapsed(),
        };
        (report, results, taken)
    };
    let workers = if threads == 1 {
        vec![work()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect::<Vec<_>>()
        })
    };

    // Merge: chunk `c` was taken by worker `owner[c]`, and each worker's
    // buffer holds its chunks in increasing order, so walking the chunks in
    // order drains every buffer front to back.
    let mut owner = vec![0usize; n_chunks];
    let mut reports = Vec::with_capacity(workers.len());
    let mut buffers = Vec::with_capacity(workers.len());
    for (w, (report, results, taken)) in workers.into_iter().enumerate() {
        for c in taken {
            owner[c] = w;
        }
        reports.push(report);
        buffers.push(results.into_iter());
    }
    let mut out = Vec::with_capacity(cfg.n_dies);
    for (c, &w) in owner.iter().enumerate() {
        out.extend(buffers[w].by_ref().take(chunk_len(c)));
    }
    (out, reports)
}

/// Per-worker execution report returned by the driver: the worker's
/// context handed back after the run (e.g. a scratch workspace carrying a
/// metrics registry), how many dies it processed, and the wall-clock time
/// it spent in its processing loop.
///
/// Die results are deterministic; the *partition* of dies across workers and
/// the `busy` durations are scheduling-dependent, so reports are diagnostic
/// data — fold anything you aggregate from them with order-insensitive
/// operations (integer sums, maxima).
#[derive(Debug)]
pub struct WorkerReport<C> {
    /// The worker's context, returned after its last die.
    pub ctx: C,
    /// Number of dies this worker processed.
    pub dies: u64,
    /// Wall-clock time the worker spent in its processing loop.
    pub busy: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsim_rng::Rng;

    ptsim_rng::forall! {
        #[test]
        fn engine_matches_sequential_per_die_reference(
            n in 0usize..40,
            threads in 1usize..5,
            chunk in 1usize..9,
            base in 0u64..1000,
        ) {
            let cfg = McConfig { n_dies: n, base_seed: base, threads };
            let reference: Vec<(u64, u64)> = (0..n as u64)
                .map(|i| (i, die_rng(base, i).gen::<u64>()))
                .collect();
            let (out, reports) = run_parallel_chunked(&cfg, chunk, || (), |(), start, len, out| {
                for i in start..start + len as u64 {
                    out.push((i, die_rng(base, i).gen::<u64>()));
                }
            });
            assert_eq!(out, reference);
            assert_eq!(reports.iter().map(|r| r.dies).sum::<u64>(), n as u64);
            assert!(reports.len() <= threads);
        }
    }

    #[test]
    fn results_in_die_order() {
        let out = run_parallel(&McConfig::new(100, 7), |i, _| i * 2);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 2);
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let mut one = McConfig::new(64, 99);
        one.threads = 1;
        let mut four = McConfig::new(64, 99);
        four.threads = 4;
        let f = |_i: u64, rng: &mut Pcg64| rng.gen::<u64>();
        assert_eq!(run_parallel(&one, f), run_parallel(&four, f));
    }

    #[test]
    fn different_dies_get_different_streams() {
        let out = run_parallel(&McConfig::new(32, 5), |_, rng| rng.gen::<u64>());
        let unique: std::collections::HashSet<_> = out.iter().collect();
        assert_eq!(unique.len(), out.len());
    }

    #[test]
    fn different_base_seeds_differ() {
        let a = run_parallel(&McConfig::new(8, 1), |_, rng| rng.gen::<u64>());
        let b = run_parallel(&McConfig::new(8, 2), |_, rng| rng.gen::<u64>());
        assert_ne!(a, b);
    }

    #[test]
    fn zero_dies_is_empty() {
        let (out, reports) = run_parallel_with(&McConfig::new(0, 1), || (), |(), i, _| i);
        assert!(out.is_empty());
        assert!(reports.is_empty());
    }

    #[test]
    fn more_threads_than_dies_is_fine() {
        let mut cfg = McConfig::new(3, 11);
        cfg.threads = 16;
        let (out, reports) = run_parallel_with(&cfg, || (), |(), i, _| i);
        assert_eq!(out, vec![0, 1, 2]);
        assert!(reports.len() <= 3);
    }

    #[test]
    fn per_worker_context_matches_plain_run() {
        // A context that is genuinely reused across dies must not perturb
        // results or ordering.
        let mut one = McConfig::new(40, 3);
        one.threads = 1;
        let mut four = McConfig::new(40, 3);
        four.threads = 4;
        let plain = run_parallel(&four, |i, rng| (i, rng.gen::<u64>()));
        let (with_ctx, _) = run_parallel_with(
            &one,
            || 0u64,
            |calls, i, rng| {
                *calls += 1;
                (i, rng.gen::<u64>())
            },
        );
        assert_eq!(plain, with_ctx);
    }

    #[test]
    fn single_thread_returns_one_report_with_context() {
        let mut cfg = McConfig::new(5, 9);
        cfg.threads = 1;
        let (out, reports) = run_parallel_with(
            &cfg,
            || 0u64,
            |calls, i, _| {
                *calls += 1;
                i
            },
        );
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].dies, 5);
        assert_eq!(reports[0].ctx, 5);
    }

    #[test]
    fn mix_seed_spreads_consecutive_indices() {
        let a = mix_seed(0, 0);
        let b = mix_seed(0, 1);
        assert_ne!(a, b);
        // Hamming distance should be substantial for an avalanche mixer.
        assert!((a ^ b).count_ones() > 10);
    }
}
