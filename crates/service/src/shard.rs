//! One shard of the fleet: a bounded job queue, the worker that drains it,
//! and the context that owns a stripe of dies.
//!
//! The context keeps a lazily-built, calibrated [`PtSensor`] per owned die
//! (prototype clone + `die_rng(base_seed, die)` — the same deterministic
//! per-die seeding the Monte-Carlo driver uses, so a die reads the same
//! values no matter which fleet boot serves it). It lives in the shard's
//! shared state: whoever holds the queue's `busy` bit — the worker after a
//! pop, or a connection thread serving an idle shard inline — owns it.
//! Every conversion runs inside `catch_unwind`: a panicking die answers
//! with a typed [`Rejection::WorkerPanicked`](crate::protocol::Rejection)
//! and has its slot rebuilt, while the shard keeps serving its other dies.
//! Chaos flags
//! (degrade/stall/panic) live in the *shared* state, outside the worker,
//! precisely so they survive a worker restart — a degraded die must stay
//! degraded across a crash, or the chaos campaign could never observe
//! "recovered but still degraded" serving.

use crate::protocol::{BatchItem, InjectKind, Quality, Rejection, Request, Response};
use ptsim_core::pipeline::{read_group, run_conversion_with};
use ptsim_core::{HealthStatus, PtSensor, Scratch, SensorInputs, SensorSpec};
use ptsim_device::process::Technology;
use ptsim_device::units::Celsius;
use ptsim_mc::die::{DieSample, DieSite};
use ptsim_mc::driver::die_rng;
use ptsim_mc::model::{DieSampler, VariationModel};
use ptsim_obs::{CounterId, GaugeId, HistogramId, Registry};
use ptsim_rng::Pcg64;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Recovers the guarded value whether or not the mutex is poisoned. Shard
/// state must stay reachable after a worker panic — that is the whole
/// point of the supervision tree — so poisoning is never fatal here.
pub(crate) fn recover<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Service metric ids over one [`Registry`]. Every holder (each shard, and
/// the fleet's connection-level registry) registers the same names, so
/// [`Registry::merge`] aggregates them for `/health`.
#[derive(Debug)]
pub struct SvcMetrics {
    /// The backing registry.
    pub reg: Registry,
    /// Requests admitted, queued or served inline.
    pub requests: CounterId,
    /// Requests served on the submitting thread because the shard was idle.
    pub served_inline: CounterId,
    /// Requests answered with a reading/outcome.
    pub served: CounterId,
    /// Served readings carrying `quality == "degraded"`.
    pub degraded_served: CounterId,
    /// Typed `timeout` rejections.
    pub rej_timeout: CounterId,
    /// Typed `overloaded` rejections (admission-control sheds).
    pub rej_overloaded: CounterId,
    /// Typed `shard_down` rejections.
    pub rej_shard_down: CounterId,
    /// Typed `bad_request` rejections (malformed frames, bound violations).
    pub rej_bad_request: CounterId,
    /// Typed `worker_panicked` rejections (isolated conversion panics).
    pub rej_worker_panicked: CounterId,
    /// Typed `conversion_failed` rejections (sensor-level errors).
    pub rej_conversion_failed: CounterId,
    /// Jobs dropped at dequeue because their deadline had already passed
    /// (the client was independently answered with `timeout`).
    pub deadline_drops: CounterId,
    /// Worker-thread panics that escaped a request (supervisor-visible).
    pub worker_panics: CounterId,
    /// Worker restarts performed by the supervisor.
    pub restarts: CounterId,
    /// Accepted connections.
    pub conns: CounterId,
    /// Frames refused as malformed/truncated.
    pub bad_frames: CounterId,
    /// Frames refused for an oversize length prefix.
    pub oversize_frames: CounterId,
    /// Connections dropped because the client read too slowly.
    pub slow_client_drops: CounterId,
    /// Connections reaped for idleness.
    pub idle_reaps: CounterId,
    /// Connections that negotiated the v2 binary protocol.
    pub wire_v2_conns: CounterId,
    /// Frames served over the v2 binary protocol.
    pub wire_v2_frames: CounterId,
    /// High-water mark of any shard queue.
    pub queue_peak: GaugeId,
    /// Queue-to-reply latency of served requests, µs.
    pub latency_us: HistogramId,
}

impl SvcMetrics {
    /// Registers the full service metric set on a fresh registry.
    #[must_use]
    pub fn new() -> Self {
        let mut reg = Registry::new();
        let requests = reg.counter("svc.requests");
        let served_inline = reg.counter("svc.served_inline");
        let served = reg.counter("svc.served");
        let degraded_served = reg.counter("svc.degraded_served");
        let rej_timeout = reg.counter("svc.rejected.timeout");
        let rej_overloaded = reg.counter("svc.rejected.overloaded");
        let rej_shard_down = reg.counter("svc.rejected.shard_down");
        let rej_bad_request = reg.counter("svc.rejected.bad_request");
        let rej_worker_panicked = reg.counter("svc.rejected.worker_panicked");
        let rej_conversion_failed = reg.counter("svc.rejected.conversion_failed");
        let deadline_drops = reg.counter("svc.deadline_drops");
        let worker_panics = reg.counter("svc.worker_panics");
        let restarts = reg.counter("svc.restarts");
        let conns = reg.counter("svc.connections");
        let bad_frames = reg.counter("svc.bad_frames");
        let oversize_frames = reg.counter("svc.oversize_frames");
        let slow_client_drops = reg.counter("svc.slow_client_drops");
        let idle_reaps = reg.counter("svc.idle_reaps");
        let wire_v2_conns = reg.counter("svc.wire_v2_conns");
        let wire_v2_frames = reg.counter("svc.wire_v2_frames");
        let queue_peak = reg.gauge("svc.queue_peak");
        let latency_us = reg.histogram("svc.latency_us", 0.0, 1.0e6, 48);
        SvcMetrics {
            reg,
            requests,
            served_inline,
            served,
            degraded_served,
            rej_timeout,
            rej_overloaded,
            rej_shard_down,
            rej_bad_request,
            rej_worker_panicked,
            rej_conversion_failed,
            deadline_drops,
            worker_panics,
            restarts,
            conns,
            bad_frames,
            oversize_frames,
            slow_client_drops,
            idle_reaps,
            wire_v2_conns,
            wire_v2_frames,
            queue_peak,
            latency_us,
        }
    }
}

impl Default for SvcMetrics {
    fn default() -> Self {
        Self::new()
    }
}

/// Supervision state of a shard worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// The worker is serving.
    Up,
    /// The worker crashed and the supervisor is backing off before a
    /// restart; queued work waits.
    Restarting,
    /// The restart budget is exhausted; the supervisor drains the queue
    /// with typed `shard_down` rejections.
    Dead,
}

impl ShardState {
    /// Wire name (`"up"` / `"restarting"` / `"dead"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ShardState::Up => "up",
            ShardState::Restarting => "restarting",
            ShardState::Dead => "dead",
        }
    }
}

/// Mutable supervision record of one shard.
#[derive(Debug, Clone)]
pub struct ShardStatus {
    /// Current state.
    pub state: ShardState,
    /// Restarts so far.
    pub restarts: u64,
    /// Message of the most recent escaped panic, if any.
    pub last_panic: Option<String>,
}

/// Chaos flags of one die. Kept outside the worker so they survive
/// restarts.
#[derive(Debug, Clone, Copy, Default)]
pub struct DieFlags {
    /// Serve degraded temperature-only readings (dead PSRO bank).
    pub degraded: bool,
    /// Panic inside the next conversion (one-shot).
    pub panic_conversion: bool,
    /// Panic *outside* the per-request boundary on the next job (one-shot)
    /// — exercises the supervisor.
    pub panic_worker: bool,
    /// Stall this many ms before serving the next job (one-shot).
    pub stall_ms: u64,
}

impl DieFlags {
    /// Whether a one-shot flag is armed. Such a die is served by the
    /// worker only: its stall and panics belong on the supervised thread.
    fn one_shot_armed(self) -> bool {
        self.panic_conversion || self.panic_worker || self.stall_ms > 0
    }
}

/// One queued request with its reply channel and deadline.
#[derive(Debug)]
pub struct Job {
    /// The request (only die-addressed ops are queued).
    pub req: Request,
    /// Shedding priority (higher survives overload longer).
    pub priority: u8,
    /// Absolute deadline; the fleet stops waiting at this instant and the
    /// worker discards the job if it is only dequeued afterwards.
    pub deadline: Instant,
    /// When the job was admitted (for the latency histogram).
    pub enqueued: Instant,
    /// Where the answer goes. A send failure means the client stopped
    /// waiting; it is never an error.
    pub reply: mpsc::Sender<Response>,
}

/// Static configuration of one shard.
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// This shard's index.
    pub shard_id: u64,
    /// Total shards in the fleet (die `d` belongs to shard
    /// `d % n_shards`).
    pub n_shards: u64,
    /// Total dies in the fleet.
    pub n_dies: u64,
    /// Bounded queue depth; admission control sheds beyond it.
    pub queue_depth: usize,
    /// Base seed of the fleet's deterministic per-die streams.
    pub base_seed: u64,
}

impl ShardConfig {
    /// Dies this shard owns.
    #[must_use]
    pub fn owned_dies(&self) -> u64 {
        if self.n_dies == 0 {
            return 0;
        }
        let full = self.n_dies / self.n_shards;
        let extra = u64::from(self.n_dies % self.n_shards > self.shard_id);
        full + extra
    }

    fn local_index(&self, die: u64) -> usize {
        (die / self.n_shards) as usize
    }
}

/// A shard's queued jobs and the bit that says who owns its context.
#[derive(Debug)]
pub struct ShardQueue {
    /// Admitted jobs, in admission order.
    pub jobs: VecDeque<Job>,
    /// Set while one thread — the worker, or a connection thread serving
    /// inline — holds the shard's [`WorkerCtx`]. Only the holder serves,
    /// so each die is served in admission order.
    pub busy: bool,
}

/// State shared between a shard's worker, its supervisor, and the fleet
/// front-end.
#[derive(Debug)]
pub struct ShardShared {
    /// Static configuration.
    pub cfg: ShardConfig,
    /// The bounded job queue.
    pub queue: Mutex<ShardQueue>,
    /// Signals the worker when work arrives or shutdown begins.
    pub cv: Condvar,
    /// Supervision record.
    pub status: Mutex<ShardStatus>,
    /// Per-owned-die chaos flags, indexed by local die index.
    pub flags: Mutex<Vec<DieFlags>>,
    /// This shard's metric registry (merged fleet-wide for `/health`).
    pub metrics: Mutex<SvcMetrics>,
    /// Set once at fleet shutdown.
    pub shutdown: AtomicBool,
    /// The dies' serving state; built on first use, discarded by a panic
    /// that escapes a request. Locked only by the `busy` holder.
    ctx: Mutex<Option<WorkerCtx>>,
}

impl ShardShared {
    /// Fresh shared state for one shard.
    #[must_use]
    pub fn new(cfg: ShardConfig) -> Self {
        let owned = cfg.owned_dies() as usize;
        ShardShared {
            cfg,
            queue: Mutex::new(ShardQueue {
                jobs: VecDeque::with_capacity(cfg.queue_depth),
                busy: false,
            }),
            cv: Condvar::new(),
            status: Mutex::new(ShardStatus {
                state: ShardState::Up,
                restarts: 0,
                last_panic: None,
            }),
            flags: Mutex::new(vec![DieFlags::default(); owned]),
            metrics: Mutex::new(SvcMetrics::new()),
            shutdown: AtomicBool::new(false),
            ctx: Mutex::new(None),
        }
    }

    /// Takes the context for a request, on the submitting thread, when the
    /// shard is idle: nothing queued, nobody holding the context, and no
    /// one-shot chaos armed on the request's die. `q` is this shard's
    /// locked queue. Returns the context's guard and the die's flags.
    pub(crate) fn try_inline(
        &self,
        q: &mut ShardQueue,
        req: &Request,
    ) -> Option<(Serving<'_>, DieFlags)> {
        if q.busy || !q.jobs.is_empty() || matches!(req, Request::Inject { .. }) {
            return None;
        }
        // Only the `busy` holder writes flags, and nobody holds it now.
        let flags = self.flags_of(req, |f| *f);
        if flags.one_shot_armed() {
            return None;
        }
        q.busy = true;
        Some((Serving { shared: self }, flags))
    }

    /// Applies `f` to the flags of the die `req` takes its chaos from
    /// (`default` for a request that carries no die).
    fn flags_of(&self, req: &Request, f: impl FnOnce(&mut DieFlags) -> DieFlags) -> DieFlags {
        let die = match *req {
            Request::Read { die, .. }
            | Request::Calibrate { die, .. }
            | Request::Inject { die, .. } => die,
            // A batch takes its one-shot chaos flags from its anchor die.
            Request::BatchRead { die0, .. } => die0,
            // Ping carries no die, so it neither takes nor consumes any
            // die's flags (a zero-die shard owns none to index);
            // Health/Shutdown are answered by the fleet front-end.
            _ => return DieFlags::default(),
        };
        f(&mut recover(self.flags.lock())[self.cfg.local_index(die)])
    }

    /// Increments the counter `pick` selects in this shard's registry.
    pub(crate) fn count(&self, pick: impl Fn(&SvcMetrics) -> CounterId) {
        let mut m = recover(self.metrics.lock());
        let id = pick(&m);
        m.reg.inc(id);
    }
}

/// One die's live serving state inside a worker.
struct DieSlot {
    sensor: PtSensor,
    die: DieSample,
    rng: Pcg64,
    calib_quality: Quality,
}

/// Ownership of a shard's [`WorkerCtx`], taken by setting the queue's
/// `busy` bit. Dropping it clears the bit, and wakes the worker if jobs
/// arrived meanwhile. A panic unwinding through it first discards the
/// context, so the next holder rebuilds every touched die from its seed.
pub(crate) struct Serving<'a> {
    shared: &'a ShardShared,
}

impl Serving<'_> {
    /// Runs `f` on the shard's context, building it on first use.
    pub(crate) fn with_ctx<T>(&self, f: impl FnOnce(&mut WorkerCtx) -> T) -> T {
        let mut ctx = recover(self.shared.ctx.lock());
        f(ctx.get_or_insert_with(|| WorkerCtx::new(&self.shared.cfg)))
    }
}

impl Drop for Serving<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            *recover(self.shared.ctx.lock()) = None;
        }
        let mut q = recover(self.shared.queue.lock());
        q.busy = false;
        let wake = !q.jobs.is_empty();
        drop(q);
        if wake {
            self.shared.cv.notify_one();
        }
    }
}

/// A shard's serving context: every owned die's state and one conversion
/// workspace. Construction is deliberately lazy per die: a 4096-die fleet
/// boots in milliseconds and pays each die's calibration on first touch.
pub struct WorkerCtx {
    prototype: PtSensor,
    sampler: DieSampler,
    boot_temp: Celsius,
    slots: Vec<Option<DieSlot>>,
    /// Reused by every single read, so a warm read allocates nothing.
    scratch: Scratch,
}

impl std::fmt::Debug for WorkerCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerCtx")
            .field("built_slots", &self.slots.iter().flatten().count())
            .finish_non_exhaustive()
    }
}

impl WorkerCtx {
    /// Builds the worker's prototype sensor and die sampler.
    ///
    /// # Panics
    ///
    /// Panics if the default 65 nm sensor cannot be constructed — a build
    /// configuration error the supervisor surfaces as a dead shard, not a
    /// recoverable request failure.
    #[must_use]
    pub fn new(cfg: &ShardConfig) -> Self {
        let spec = SensorSpec::default_65nm();
        let boot_temp = spec.calib_temp;
        let prototype = PtSensor::new(Technology::n65(), spec)
            .expect("default 65nm sensor spec must construct");
        let model = VariationModel::new(&Technology::n65());
        WorkerCtx {
            prototype,
            sampler: model.sampler(),
            boot_temp,
            slots: (0..cfg.owned_dies()).map(|_| None).collect(),
            scratch: Scratch::new(),
        }
    }

    /// The calibrated slot for `die`, built on first touch. `degraded`
    /// re-applies a persistent degrade flag after a rebuild.
    fn slot(
        &mut self,
        cfg: &ShardConfig,
        die: u64,
        degraded: bool,
    ) -> Result<&mut DieSlot, ptsim_core::SensorError> {
        let idx = cfg.local_index(die);
        if self.slots[idx].is_none() {
            let mut rng = die_rng(cfg.base_seed, die);
            let sample = self.sampler.sample_die_with_id(&mut rng, die);
            let mut sensor = self.prototype.clone();
            let boot = SensorInputs::new(&sample, DieSite::CENTER, self.boot_temp);
            let outcome = sensor.calibrate(&boot, &mut rng)?;
            if degraded {
                sensor.inject_faults(degrade_plan());
            }
            self.slots[idx] = Some(DieSlot {
                sensor,
                die: sample,
                rng,
                calib_quality: quality_of(outcome.health.status()),
            });
        }
        Ok(self.slots[idx].as_mut().expect("slot just built"))
    }
}

/// The fault plan behind [`InjectKind::DegradeDie`]: a bank-wide dead
/// PSRO-N stage. The sensor detects it, freezes the threshold-shift
/// outputs at their calibration values, and keeps serving temperature with
/// an explicit degraded flag — exactly the graceful-degradation contract.
fn degrade_plan() -> ptsim_faults::FaultPlan {
    ptsim_faults::FaultPlan::single(ptsim_faults::Fault::DeadRoStage {
        channel: ptsim_faults::Channel::PsroN,
        replica: ptsim_faults::ReplicaSel::All,
    })
}

fn quality_of(status: HealthStatus) -> Quality {
    match status {
        HealthStatus::Nominal => Quality::Nominal,
        HealthStatus::Recovered => Quality::Recovered,
        HealthStatus::Degraded => Quality::Degraded,
    }
}

/// The worker body: pops one job per wake, in admission order, and serves
/// it, until shutdown. It pops only while no connection thread is serving
/// the shard inline. The supervisor wraps each invocation in
/// `catch_unwind`; a panic that escapes discards the shared context (see
/// `Serving`), and the next incarnation or inline server rebuilds every
/// touched die from the deterministic seeds.
pub fn worker_loop(shared: &ShardShared) {
    loop {
        let (job, serving) = {
            let mut q = recover(shared.queue.lock());
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if !q.busy {
                    if let Some(j) = q.jobs.pop_front() {
                        q.busy = true;
                        break (j, Serving { shared });
                    }
                }
                let (guard, _) = recover(shared.cv.wait_timeout(q, Duration::from_millis(25)));
                q = guard;
            }
        };
        let flags = shared.flags_of(&job.req, |f| {
            let taken = *f;
            // One-shot flags arm exactly one job.
            f.panic_conversion = false;
            f.panic_worker = false;
            f.stall_ms = 0;
            taken
        });
        if flags.stall_ms > 0 {
            std::thread::sleep(Duration::from_millis(flags.stall_ms));
        }
        if flags.panic_worker {
            shared.count(|m| m.worker_panics);
            panic!("injected worker panic (shard {})", shared.cfg.shard_id);
        }
        if Instant::now() >= job.deadline {
            // The fleet already answered the client with a typed timeout;
            // record the late discard so "rejected vs silently dropped"
            // stays auditable.
            shared.count(|m| m.deadline_drops);
            continue;
        }
        let response = serving.with_ctx(|ctx| serve(shared, ctx, &job.req, flags, job.enqueued));
        // Release before replying, so the client's next request can find
        // the shard idle.
        drop(serving);
        // A failed send means the client already gave up (typed timeout);
        // never an error here.
        let _ = job.reply.send(response);
    }
}

/// Serves one admitted request with the die's `flags` (already taken; a
/// stall or worker panic has already run) on the shard's context, on
/// whichever thread holds it. Conversion panics are isolated per request.
pub(crate) fn serve(
    shared: &ShardShared,
    worker: &mut WorkerCtx,
    req: &Request,
    flags: DieFlags,
    enqueued: Instant,
) -> Response {
    match *req {
        Request::Read { die, temp_c, .. } => {
            let degraded = flags.degraded;
            match worker.slot(&shared.cfg, die, degraded) {
                Err(e) => {
                    shared.count(|m| m.rej_conversion_failed);
                    Response::rejected(Rejection::ConversionFailed, e.to_string())
                }
                Ok(_) => {
                    let idx = shared.cfg.local_index(die);
                    let slot = worker.slots[idx].as_mut().expect("slot built above");
                    let scratch = &mut worker.scratch;
                    let inputs = SensorInputs::new(&slot.die, DieSite::CENTER, Celsius(temp_c));
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        assert!(
                            !flags.panic_conversion,
                            "injected conversion panic (die {die})"
                        );
                        run_conversion_with(&slot.sensor, &inputs, &mut slot.rng, scratch)
                    }));
                    match outcome {
                        Err(_) => {
                            // The slot and the workspace may be mid-update;
                            // rebuild the die from its deterministic seed on
                            // next touch.
                            worker.slots[idx] = None;
                            worker.scratch = Scratch::new();
                            shared.count(|m| m.rej_worker_panicked);
                            Response::rejected(
                                Rejection::WorkerPanicked,
                                format!("conversion on die {die} panicked; die state rebuilt"),
                            )
                        }
                        Ok(Err(e)) => {
                            shared.count(|m| m.rej_conversion_failed);
                            Response::rejected(Rejection::ConversionFailed, e.to_string())
                        }
                        Ok(Ok(reading)) => {
                            let quality = quality_of(reading.health.status());
                            {
                                let mut m = recover(shared.metrics.lock());
                                let served = m.served;
                                m.reg.inc(served);
                                if quality == Quality::Degraded {
                                    let id = m.degraded_served;
                                    m.reg.inc(id);
                                }
                                let lat = m.latency_us;
                                m.reg.observe(lat, enqueued.elapsed().as_secs_f64() * 1e6);
                            }
                            Response::Reading {
                                die,
                                temp_c: reading.temperature.0,
                                d_vtn_mv: reading.d_vtn.millivolts(),
                                d_vtp_mv: reading.d_vtp.millivolts(),
                                energy_pj: reading.energy.total().picojoules(),
                                quality,
                            }
                        }
                    }
                }
            }
        }
        Request::BatchRead {
            die0,
            count,
            temp_c,
            ..
        } => serve_batch(shared, worker, die0, count, temp_c, flags, enqueued),
        Request::Calibrate { die, .. } => {
            // Recalibration rebuilds the slot from scratch (fresh sample of
            // the same deterministic die, fresh calibration).
            worker.slots[shared.cfg.local_index(die)] = None;
            match worker.slot(&shared.cfg, die, flags.degraded) {
                Err(e) => {
                    shared.count(|m| m.rej_conversion_failed);
                    Response::rejected(Rejection::ConversionFailed, e.to_string())
                }
                Ok(slot) => {
                    let q = slot.calib_quality;
                    shared.count(|m| m.served);
                    Response::Calibrated { die, quality: q }
                }
            }
        }
        Request::Inject { die, kind } => {
            let idx = shared.cfg.local_index(die);
            let mut all = recover(shared.flags.lock());
            let f = &mut all[idx];
            match kind {
                InjectKind::DegradeDie => {
                    f.degraded = true;
                    if let Some(slot) = &mut worker.slots[idx] {
                        slot.sensor.inject_faults(degrade_plan());
                    }
                }
                InjectKind::HealDie => {
                    f.degraded = false;
                    if let Some(slot) = &mut worker.slots[idx] {
                        slot.sensor.clear_faults();
                    }
                }
                InjectKind::PanicConversion => f.panic_conversion = true,
                InjectKind::PanicWorker => f.panic_worker = true,
                InjectKind::StallMs(ms) => f.stall_ms = ms,
            }
            drop(all);
            shared.count(|m| m.served);
            Response::Injected { die }
        }
        Request::Ping { pad } => {
            shared.count(|m| m.served);
            Response::Pong {
                pad: "x".repeat(pad as usize),
            }
        }
        Request::Health | Request::Shutdown => {
            Response::rejected(Rejection::BadRequest, "not a shard-addressed op")
        }
    }
}

/// The stripe a `batch_read` anchored at `die0` addresses: the `count`
/// lowest-indexed dies ≥ `die0` owned by `die0`'s shard (stride =
/// `n_shards`, so their local indices are consecutive). `None` when the
/// request is empty or runs off the fleet — the fleet validates this
/// before queueing, but a worker never trusts a job it did not admit.
fn stripe(cfg: &ShardConfig, die0: u64, count: u64) -> Option<Vec<u64>> {
    if count == 0 {
        return None;
    }
    let mut dies = Vec::with_capacity(count as usize);
    for k in 0..count {
        let die = k
            .checked_mul(cfg.n_shards)
            .and_then(|offset| die0.checked_add(offset))?;
        if die >= cfg.n_dies {
            return None;
        }
        dies.push(die);
    }
    Some(dies)
}

/// Drains one `batch_read` stripe through the lane-grouped read path:
/// every requested die's slot is built (or reused) lazily, then the whole
/// stripe converts via [`read_group`] — per-die gating draws stay on each
/// die's own deterministic stream while the RNG-free Newton solves run up
/// to `LANES` wide across the stripe. Every item is therefore
/// bit-identical to the plain `read` the die would have served at the same
/// point in its stream, and a failing die yields a per-item rejection,
/// never a failed batch. An escaped panic rebuilds the whole stripe's
/// slots from the deterministic seeds, exactly like the single-read path
/// rebuilds its one slot.
fn serve_batch(
    shared: &ShardShared,
    worker: &mut WorkerCtx,
    die0: u64,
    count: u64,
    temp_c: f64,
    flags: DieFlags,
    enqueued: Instant,
) -> Response {
    let cfg = &shared.cfg;
    let Some(dies) = stripe(cfg, die0, count) else {
        shared.count(|m| m.rej_bad_request);
        return Response::rejected(
            Rejection::BadRequest,
            format!("batch of {count} dies striding from die {die0} leaves this shard"),
        );
    };
    // Persistent degrade flags are honored per die; the one-shot chaos
    // flags (stall, panics) were taken from the anchor die by the caller
    // and cover the batch as a whole.
    let degraded: Vec<bool> = {
        let all = recover(shared.flags.lock());
        dies.iter()
            .map(|&d| all[cfg.local_index(d)].degraded)
            .collect()
    };
    let base_local = cfg.local_index(die0);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        assert!(
            !flags.panic_conversion,
            "injected conversion panic (die {die0})"
        );
        let mut build_errs: Vec<Option<String>> = vec![None; dies.len()];
        for (j, &die) in dies.iter().enumerate() {
            if let Err(e) = worker.slot(cfg, die, degraded[j]) {
                build_errs[j] = Some(e.to_string());
            }
        }
        let mut sensors: Vec<&PtSensor> = Vec::with_capacity(dies.len());
        let mut inputs: Vec<SensorInputs<'_>> = Vec::with_capacity(dies.len());
        let mut rngs: Vec<&mut Pcg64> = Vec::with_capacity(dies.len());
        for (j, slot) in worker.slots[base_local..base_local + dies.len()]
            .iter_mut()
            .enumerate()
        {
            if build_errs[j].is_some() {
                continue;
            }
            let DieSlot {
                sensor, die, rng, ..
            } = slot.as_mut().expect("slot built above");
            sensors.push(&*sensor);
            inputs.push(SensorInputs::new(&*die, DieSite::CENTER, Celsius(temp_c)));
            rngs.push(rng);
        }
        let mut results = read_group(&sensors, &inputs, &mut rngs).into_iter();
        dies.iter()
            .zip(&mut build_errs)
            .map(|(&die, build_err)| match build_err.take() {
                Some(detail) => BatchItem::Rejected {
                    die,
                    rejection: Rejection::ConversionFailed,
                    detail,
                },
                None => match results.next().expect("one result per grouped die") {
                    Ok(reading) => BatchItem::Reading {
                        die,
                        temp_c: reading.temperature.0,
                        d_vtn_mv: reading.d_vtn.millivolts(),
                        d_vtp_mv: reading.d_vtp.millivolts(),
                        energy_pj: reading.energy.total().picojoules(),
                        quality: quality_of(reading.health.status()),
                    },
                    Err(e) => BatchItem::Rejected {
                        die,
                        rejection: Rejection::ConversionFailed,
                        detail: e.to_string(),
                    },
                },
            })
            .collect::<Vec<_>>()
    }));
    match outcome {
        Err(_) => {
            // The panic may have left any touched slot mid-update: rebuild
            // the whole stripe from the deterministic seeds on next touch.
            for slot in &mut worker.slots[base_local..base_local + dies.len()] {
                *slot = None;
            }
            shared.count(|m| m.rej_worker_panicked);
            Response::rejected(
                Rejection::WorkerPanicked,
                format!("batch drain anchored at die {die0} panicked; stripe state rebuilt"),
            )
        }
        Ok(items) => {
            let mut m = recover(shared.metrics.lock());
            for item in &items {
                match item {
                    BatchItem::Reading { quality, .. } => {
                        let id = m.served;
                        m.reg.inc(id);
                        if *quality == Quality::Degraded {
                            let id = m.degraded_served;
                            m.reg.inc(id);
                        }
                    }
                    BatchItem::Rejected { .. } => {
                        let id = m.rej_conversion_failed;
                        m.reg.inc(id);
                    }
                }
            }
            let lat = m.latency_us;
            m.reg.observe(lat, enqueued.elapsed().as_secs_f64() * 1e6);
            drop(m);
            Response::Batch { items }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(shard_id: u64) -> ShardConfig {
        ShardConfig {
            shard_id,
            n_shards: 4,
            n_dies: 10,
            queue_depth: 8,
            base_seed: 7,
        }
    }

    #[test]
    fn die_striping_covers_the_fleet_exactly_once() {
        let owned: u64 = (0..4).map(|s| cfg(s).owned_dies()).sum();
        assert_eq!(owned, 10);
        // Local indices are dense per shard.
        assert_eq!(cfg(2).local_index(2), 0);
        assert_eq!(cfg(2).local_index(6), 1);
    }

    #[test]
    fn metric_names_merge_across_registries() {
        let mut a = SvcMetrics::new();
        let b = SvcMetrics::new();
        a.reg.inc(a.served);
        a.reg.merge(&b.reg);
        assert_eq!(a.reg.counter_value("svc.served"), Some(1));
    }
}
