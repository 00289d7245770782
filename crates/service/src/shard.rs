//! One shard of the fleet: the context that owns a stripe of dies, the
//! bounded queue of requests waiting for it, and the supervision boundary
//! every request is served inside.
//!
//! The context keeps a lazily-built, calibrated [`PtSensor`] per owned die
//! (prototype clone + `die_rng(base_seed, die)` — the same deterministic
//! per-die seeding the Monte-Carlo driver uses, so a die reads the same
//! values no matter which fleet boot serves it). There is no worker thread:
//! the thread that submits a request serves it, holding the shard's `busy`
//! bit while it does. A request that finds the shard busy, stalled,
//! restarting or already waited on joins the queue as a waiter record and
//! blocks on the shard's condvar until it reaches the head of a free shard,
//! its deadline passes, it is shed, or the shard goes down.
//!
//! A shard has two mutexes. `ctx` guards the serving context and is taken
//! only by the `busy` holder. `queue` guards everything the shard
//! coordinates: `busy`, the waiters, the supervision state, the dies'
//! chaos flags and the shard's counters. Taking the shard counts the
//! admission and takes the die's one-shot flags; releasing it counts the
//! answer (`SvcMetrics::tally`), each in the critical section that sets
//! or clears `busy`. The lock order is `ctx → queue`.
//!
//! Every conversion runs inside `catch_unwind`: a panicking die answers
//! with a typed [`Rejection::WorkerPanicked`](crate::protocol::Rejection)
//! and has its slot rebuilt, while the shard keeps serving its other dies.
//! A panic that escapes a request is caught one level up, around the whole
//! serve: it discards the context, answers the request `worker_panicked`,
//! and puts the shard in `Restarting` for a backoff, or `Dead` once the
//! restart budget is spent. Chaos flags (degrade/panic) live in the queue
//! state, not in the context, precisely so they survive a restart — a
//! degraded die must stay degraded across a crash, or the chaos campaign
//! could never observe "recovered but still degraded" serving.

use crate::fleet::FleetConfig;
use crate::protocol::{
    BatchItem, InjectKind, Quality, Rejection, Request, Response, ShardHealthWire,
};
use ptsim_core::pipeline::{read_group, run_conversion_with};
use ptsim_core::{HealthStatus, PtSensor, Scratch, SensorInputs, SensorSpec};
use ptsim_device::process::Technology;
use ptsim_device::units::Celsius;
use ptsim_mc::die::{DieSample, DieSite};
use ptsim_mc::driver::die_rng;
use ptsim_mc::model::{DieSampler, VariationModel};
use ptsim_obs::{CounterId, Registry};
use ptsim_rng::Pcg64;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Recovers the guarded value whether or not the mutex is poisoned. Shard
/// state must stay reachable after a panic escapes a request — that is the
/// whole point of the supervision boundary — so poisoning is never fatal
/// here.
pub(crate) fn recover<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// Set while this thread holds a shard's `busy` bit and serves.
    static HOLDING: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is serving a shard. Its panics are caught,
/// counted and answered typed, so the quiet panic hook keeps them off
/// stderr.
pub(crate) fn holding_a_shard() -> bool {
    HOLDING.get()
}

/// `svc.rejected.*` counter names, indexed by [`Rejection`] in declaration
/// order.
const REJECTED: [&str; 6] = [
    "svc.rejected.timeout",
    "svc.rejected.overloaded",
    "svc.rejected.shard_down",
    "svc.rejected.bad_request",
    "svc.rejected.worker_panicked",
    "svc.rejected.conversion_failed",
];

/// Service counter ids over one [`Registry`]. Every holder (each shard, and
/// the fleet's connection-level registry) registers the same names in the
/// same order, so [`Registry::merge`] aggregates them for `/health`.
#[derive(Debug)]
pub(crate) struct SvcMetrics {
    /// The backing registry.
    pub(crate) reg: Registry,
    /// Requests admitted, served at once or after waiting.
    requests: CounterId,
    /// Requests served at once: their shard was free and nobody waited.
    served_inline: CounterId,
    /// Answers carrying a reading or an outcome (one per batch item).
    served: CounterId,
    /// Served readings carrying `quality == "degraded"`.
    degraded_served: CounterId,
    /// Typed rejections, indexed by [`Rejection`] as in [`REJECTED`].
    rejected: [CounterId; 6],
    /// Requests answered `timeout`: their deadline passed unserved.
    deadline_drops: CounterId,
    /// Panics that escaped a request's serve (the supervision boundary).
    /// Each restarts its shard; `/health` carries every shard's restart
    /// count.
    worker_panics: CounterId,
    /// Accepted connections.
    pub(crate) conns: CounterId,
    /// Frames refused as malformed/truncated.
    pub(crate) bad_frames: CounterId,
    /// Frames refused for an oversize length prefix.
    pub(crate) oversize_frames: CounterId,
    /// Connections dropped because the client read too slowly.
    pub(crate) slow_client_drops: CounterId,
    /// Connections reaped for idleness.
    pub(crate) idle_reaps: CounterId,
    /// Connections that negotiated the v2 binary protocol.
    pub(crate) wire_v2_conns: CounterId,
    /// Frames served over the v2 binary protocol.
    pub(crate) wire_v2_frames: CounterId,
}

impl SvcMetrics {
    /// Registers the full service counter set on a fresh registry, in
    /// `/health` order (fields are evaluated in the order written).
    pub(crate) fn new() -> Self {
        let mut reg = Registry::new();
        SvcMetrics {
            requests: reg.counter("svc.requests"),
            served_inline: reg.counter("svc.served_inline"),
            served: reg.counter("svc.served"),
            degraded_served: reg.counter("svc.degraded_served"),
            rejected: REJECTED.map(|name| reg.counter(name)),
            deadline_drops: reg.counter("svc.deadline_drops"),
            worker_panics: reg.counter("svc.worker_panics"),
            conns: reg.counter("svc.connections"),
            bad_frames: reg.counter("svc.bad_frames"),
            oversize_frames: reg.counter("svc.oversize_frames"),
            slow_client_drops: reg.counter("svc.slow_client_drops"),
            idle_reaps: reg.counter("svc.idle_reaps"),
            wire_v2_conns: reg.counter("svc.wire_v2_conns"),
            wire_v2_frames: reg.counter("svc.wire_v2_frames"),
            reg,
        }
    }

    /// Increments the counter `pick` selects.
    pub(crate) fn inc(&mut self, pick: fn(&Self) -> CounterId) {
        let id = pick(self);
        self.reg.inc(id);
    }

    /// Counts one answer: `served` per reading or outcome (per item of a
    /// batch), `degraded_served` per degraded reading, and the
    /// `svc.rejected.*` counter of each refusal, with `deadline_drops`
    /// beside a timeout. Nothing else moves those counters.
    pub(crate) fn tally(&mut self, resp: &Response) {
        let mut count = |outcome: Result<Option<Quality>, Rejection>| {
            let id = match outcome {
                Ok(quality) => {
                    if quality == Some(Quality::Degraded) {
                        self.reg.inc(self.degraded_served);
                    }
                    self.served
                }
                Err(rejection) => {
                    if rejection == Rejection::Timeout {
                        self.reg.inc(self.deadline_drops);
                    }
                    self.rejected[rejection as usize]
                }
            };
            self.reg.inc(id);
        };
        match resp {
            Response::Reading { quality, .. } => count(Ok(Some(*quality))),
            Response::Calibrated { .. } | Response::Injected { .. } | Response::Pong { .. } => {
                count(Ok(None));
            }
            Response::Batch { items } => {
                for item in items {
                    count(match *item {
                        BatchItem::Reading { quality, .. } => Ok(Some(quality)),
                        BatchItem::Rejected { rejection, .. } => Err(rejection),
                    });
                }
            }
            Response::Rejected { rejection, .. } => count(Err(*rejection)),
            Response::Health(_) | Response::ShuttingDown => {}
        }
    }
}

/// Supervision state of a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShardState {
    /// The shard is serving.
    Up,
    /// A panic escaped a request; requests wait out the restart backoff.
    /// The first submit or health probe after it runs out flips the shard
    /// back to `Up`.
    Restarting,
    /// The restart budget is exhausted; every request to the shard is
    /// answered `shard_down`.
    Dead,
}

impl ShardState {
    /// Wire name (`"up"` / `"restarting"` / `"dead"`).
    fn name(self) -> &'static str {
        match self {
            ShardState::Up => "up",
            ShardState::Restarting => "restarting",
            ShardState::Dead => "dead",
        }
    }
}

/// Chaos flags of one die. Kept in the queue state, not the context, so
/// they survive restarts.
#[derive(Clone, Copy, Default)]
struct DieFlags {
    /// Serve degraded temperature-only readings (dead PSRO bank).
    degraded: bool,
    /// Panic inside the next conversion (one-shot).
    panic_conversion: bool,
    /// Panic *outside* the per-conversion boundary on the next request
    /// (one-shot) — exercises the supervision boundary.
    panic_worker: bool,
}

/// A request waiting for its shard: what shedding needs, and a ticket its
/// submitting thread finds it by.
struct Waiter {
    ticket: u64,
    /// Shedding priority (higher survives overload longer).
    priority: u8,
    /// Only plain reads are shed to admit higher-priority work.
    read: bool,
}

/// A shard's coordination state: who may serve it now, who waits for it,
/// its dies' chaos flags and its counters. One mutex guards it all, and
/// the shard's condvar signals its changes.
struct ShardQueue {
    /// Waiting requests in admission order, never more than `queue_depth`.
    waiters: VecDeque<Waiter>,
    next_ticket: u64,
    /// Set while one thread holds the shard's context and serves. Only the
    /// holder serves, so each die is served in admission order.
    busy: bool,
    state: ShardState,
    /// Escaped panics so far.
    restarts: u64,
    /// When a `Restarting` shard may serve again.
    restart_at: Instant,
    /// An injected stall holds serving back until this instant.
    stalled_until: Instant,
    /// Set once at fleet shutdown.
    shutdown: bool,
    /// Per-owned-die chaos flags, indexed by local die index.
    flags: Vec<DieFlags>,
    /// This shard's counters (merged fleet-wide for `/health`).
    metrics: SvcMetrics,
}

impl ShardQueue {
    /// Ends a restart backoff that has run out.
    fn reopen(&mut self, now: Instant) {
        if self.state == ShardState::Restarting && now >= self.restart_at {
            self.state = ShardState::Up;
        }
    }

    /// When a stall or a restart backoff stops gating the shard, if one
    /// gates it at `now`.
    fn gated_until(&self, now: Instant) -> Option<Instant> {
        let until = if self.state == ShardState::Restarting {
            self.restart_at.max(self.stalled_until)
        } else {
            self.stalled_until
        };
        (until > now).then_some(until)
    }

    /// Whether a request may take the shard at `now`.
    fn free(&self, now: Instant) -> bool {
        !self.busy && self.state == ShardState::Up && self.gated_until(now).is_none()
    }

    /// Why no request may be served any more, if none may.
    fn closed(&self) -> Option<Refusal> {
        if self.shutdown {
            Some(Refusal::Down("fleet shutting down"))
        } else if self.state == ShardState::Dead {
            Some(Refusal::Down("restart budget exhausted"))
        } else {
            None
        }
    }
}

/// Why a request was answered without being served.
enum Refusal {
    Down(&'static str),
    Overloaded(&'static str),
    Timeout,
}

/// One shard: its stripe of dies, their serving context, and the queue of
/// requests waiting for it.
pub(crate) struct Shard {
    id: u64,
    cfg: FleetConfig,
    /// Dies this shard owns (die `d` belongs to shard `d % n_shards`).
    owned: usize,
    queue: Mutex<ShardQueue>,
    /// Wakes waiters when the shard frees up, sheds, or goes down.
    cv: Condvar,
    /// The dies' serving state; built on first use, discarded by a panic
    /// that escapes a request. Locked only by the `busy` holder, which may
    /// take `queue` while holding it; nothing takes it while holding
    /// `queue`.
    ctx: Mutex<Option<ShardCtx>>,
}

impl Shard {
    /// Fresh state for shard `id` of a fleet configured by `cfg`.
    pub(crate) fn new(id: u64, cfg: FleetConfig) -> Self {
        let owned = if cfg.n_dies == 0 {
            0
        } else {
            cfg.n_dies / cfg.n_shards + u64::from(cfg.n_dies % cfg.n_shards > id)
        } as usize;
        let now = Instant::now();
        Shard {
            id,
            cfg,
            owned,
            queue: Mutex::new(ShardQueue {
                waiters: VecDeque::with_capacity(cfg.queue_depth),
                next_ticket: 0,
                busy: false,
                state: ShardState::Up,
                restarts: 0,
                restart_at: now,
                stalled_until: now,
                shutdown: false,
                flags: vec![DieFlags::default(); owned],
                metrics: SvcMetrics::new(),
            }),
            cv: Condvar::new(),
            ctx: Mutex::new(None),
        }
    }

    fn local_index(&self, die: u64) -> usize {
        (die / self.cfg.n_shards) as usize
    }

    /// Serves `req` on the calling thread, at once if the shard is free
    /// and nobody waits for it, otherwise as a waiter once its turn comes.
    /// Always answers: with the result, or a typed rejection at the
    /// deadline, on a shed, or when the shard is down.
    pub(crate) fn submit(&self, req: &Request, priority: u8, deadline_ms: u64) -> Response {
        let admitted = Instant::now();
        let deadline = admitted + Duration::from_millis(deadline_ms);
        let mut q = recover(self.queue.lock());
        q.reopen(admitted);
        let refused = q
            .closed()
            .or((admitted >= deadline).then_some(Refusal::Timeout));
        if let Some(why) = refused {
            return self.refuse(&mut q, why, deadline_ms);
        }
        if q.waiters.is_empty() && q.free(admitted) {
            q.metrics.inc(|m| m.requests);
            q.metrics.inc(|m| m.served_inline);
        } else {
            let ticket = match self.enqueue(&mut q, priority, matches!(req, Request::Read { .. })) {
                Ok(ticket) => ticket,
                Err(why) => return self.refuse(&mut q, why, deadline_ms),
            };
            q.metrics.inc(|m| m.requests);
            let turn;
            (q, turn) = self.wait_turn(q, ticket, deadline);
            if let Err(why) = turn {
                return self.refuse(&mut q, why, deadline_ms);
            }
        }
        let flags = self.take(&mut q, req);
        drop(q);
        self.serve_held(req, flags)
    }

    /// Admits a waiter to the bounded queue. A full queue sheds its
    /// lowest-priority waiting read if that ranks below the newcomer;
    /// otherwise the newcomer is refused.
    fn enqueue(&self, q: &mut ShardQueue, priority: u8, read: bool) -> Result<u64, Refusal> {
        if q.waiters.len() >= self.cfg.queue_depth {
            let victim = q
                .waiters
                .iter()
                .enumerate()
                .filter(|(_, w)| w.read)
                .min_by_key(|(_, w)| w.priority)
                .map(|(i, w)| (i, w.priority));
            match victim {
                // The shed waiter finds its record gone when it wakes.
                Some((i, vp)) if vp < priority => {
                    q.waiters.remove(i);
                    self.cv.notify_all();
                }
                _ => return Err(Refusal::Overloaded("queue full")),
            }
        }
        let ticket = q.next_ticket;
        q.next_ticket += 1;
        q.waiters.push_back(Waiter {
            ticket,
            priority,
            read,
        });
        Ok(ticket)
    }

    /// Blocks until waiter `ticket` heads the queue of a free shard, and
    /// dequeues it; or until it must be answered unserved. Returns the
    /// queue lock either way.
    fn wait_turn<'a>(
        &self,
        mut q: MutexGuard<'a, ShardQueue>,
        ticket: u64,
        deadline: Instant,
    ) -> (MutexGuard<'a, ShardQueue>, Result<(), Refusal>) {
        loop {
            let now = Instant::now();
            q.reopen(now);
            let Some(pos) = q.waiters.iter().position(|w| w.ticket == ticket) else {
                return (q, Err(Refusal::Overloaded("shed for higher-priority work")));
            };
            let refused = q.closed().or((now >= deadline).then_some(Refusal::Timeout));
            if let Some(why) = refused {
                q.waiters.remove(pos);
                if pos == 0 {
                    // The next waiter may be able to go now.
                    self.cv.notify_all();
                }
                return (q, Err(why));
            }
            if pos == 0 && q.free(now) {
                q.waiters.pop_front();
                return (q, Ok(()));
            }
            let wake = q.gated_until(now).map_or(deadline, |t| t.min(deadline));
            q = recover(self.cv.wait_timeout(q, wake - now)).0;
        }
    }

    /// Builds and counts the answer to a request that was not served.
    fn refuse(&self, q: &mut ShardQueue, why: Refusal, deadline_ms: u64) -> Response {
        let (rejection, detail) = match why {
            Refusal::Down(detail) => (Rejection::ShardDown, format!("shard {}: {detail}", self.id)),
            Refusal::Overloaded(detail) => (
                Rejection::Overloaded,
                format!("shard {}: {detail}", self.id),
            ),
            Refusal::Timeout => (
                Rejection::Timeout,
                format!("deadline of {deadline_ms} ms exceeded"),
            ),
        };
        let response = Response::rejected(rejection, detail);
        q.metrics.tally(&response);
        response
    }

    /// Takes the shard for `req`: sets `busy` and takes the chaos flags of
    /// the die `req` is served for, clearing the one-shot ones (`default`
    /// for a request that carries no die).
    fn take(&self, q: &mut ShardQueue, req: &Request) -> DieFlags {
        q.busy = true;
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
        let f = &mut q.flags[self.local_index(die)];
        let taken = *f;
        f.panic_conversion = false;
        f.panic_worker = false;
        taken
    }

    /// Serves `req` with its die's `flags` while holding the shard, then
    /// releases it and counts the answer. This is the supervision
    /// boundary: a panic that escapes the request discards the context,
    /// answers the request `worker_panicked`, and restarts the shard after
    /// a backoff, or kills it once the budget is spent.
    fn serve_held(&self, req: &Request, flags: DieFlags) -> Response {
        HOLDING.set(true);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            assert!(
                !flags.panic_worker,
                "injected worker panic (shard {})",
                self.id
            );
            let mut ctx = recover(self.ctx.lock());
            let ctx = ctx.get_or_insert_with(|| ShardCtx::new(self.owned));
            serve(self, ctx, req, flags)
        }));
        HOLDING.set(false);
        let response = match outcome {
            Ok(response) => response,
            Err(payload) => return self.crashed(&panic_message(payload.as_ref())),
        };
        let mut q = recover(self.queue.lock());
        q.busy = false;
        q.metrics.tally(&response);
        let wake = !q.waiters.is_empty();
        drop(q);
        if wake {
            self.cv.notify_all();
        }
        response
    }

    /// Records a panic that escapes a request and releases the shard into
    /// `Restarting` (or `Dead`). The next holder rebuilds every die it
    /// touches from the deterministic seeds.
    fn crashed(&self, message: &str) -> Response {
        *recover(self.ctx.lock()) = None;
        let now = Instant::now();
        let mut q = recover(self.queue.lock());
        q.restarts += 1;
        q.state = if q.restarts > self.cfg.max_restarts {
            ShardState::Dead
        } else {
            let backoff = self
                .cfg
                .backoff_base
                .saturating_mul(1u32 << (q.restarts - 1).min(16) as u32)
                .min(self.cfg.backoff_cap);
            q.restart_at = now + backoff;
            ShardState::Restarting
        };
        q.busy = false;
        let response = Response::rejected(
            Rejection::WorkerPanicked,
            format!(
                "shard {} panicked serving this request ({message}); now {}",
                self.id,
                q.state.name()
            ),
        );
        q.metrics.tally(&response);
        q.metrics.inc(|m| m.worker_panics);
        drop(q);
        self.cv.notify_all();
        response
    }

    /// This shard's `/health` entry; merges its counters into `counters`.
    /// Ends a restart backoff that has run out, so a restarted shard reads
    /// `up` without waiting for a request.
    pub(crate) fn health(&self, counters: &mut Registry) -> ShardHealthWire {
        let mut q = recover(self.queue.lock());
        q.reopen(Instant::now());
        counters.merge(&q.metrics.reg);
        ShardHealthWire {
            id: self.id,
            state: q.state.name().to_string(),
            restarts: q.restarts,
            queue_len: q.waiters.len() as u64,
            dies: self.owned as u64,
        }
    }

    /// Stops serving: waiters and later requests answer `shard_down`.
    pub(crate) fn shut_down(&self) {
        recover(self.queue.lock()).shutdown = true;
        self.cv.notify_all();
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// One die's live serving state.
struct DieSlot {
    sensor: PtSensor,
    die: DieSample,
    rng: Pcg64,
    calib_quality: Quality,
}

/// A shard's serving context: every owned die's state and one conversion
/// workspace. Construction is deliberately lazy per die: a 4096-die fleet
/// boots in milliseconds and pays each die's calibration on first touch.
struct ShardCtx {
    prototype: PtSensor,
    sampler: DieSampler,
    boot_temp: Celsius,
    slots: Vec<Option<DieSlot>>,
    /// Reused by every single read, so a warm read allocates nothing.
    scratch: Scratch,
}

impl ShardCtx {
    /// Builds the prototype sensor and die sampler for `owned` dies.
    ///
    /// # Panics
    ///
    /// Panics if the default 65 nm sensor cannot be constructed — a build
    /// configuration error the supervision boundary surfaces as a dead
    /// shard, not a recoverable request failure.
    fn new(owned: usize) -> Self {
        let spec = SensorSpec::default_65nm();
        let boot_temp = spec.calib_temp;
        let prototype = PtSensor::new(Technology::n65(), spec)
            .expect("default 65nm sensor spec must construct");
        let model = VariationModel::new(&Technology::n65());
        ShardCtx {
            prototype,
            sampler: model.sampler(),
            boot_temp,
            slots: (0..owned).map(|_| None).collect(),
            scratch: Scratch::new(),
        }
    }

    /// The calibrated slot for `die`, built on first touch. `degraded`
    /// re-applies a persistent degrade flag after a rebuild.
    fn slot(
        &mut self,
        shard: &Shard,
        die: u64,
        degraded: bool,
    ) -> Result<&mut DieSlot, ptsim_core::SensorError> {
        let idx = shard.local_index(die);
        if self.slots[idx].is_none() {
            let mut rng = die_rng(shard.cfg.base_seed, die);
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

/// Serves one request with the die's `flags` (already taken) on the
/// shard's context, on the thread that holds it. Conversion panics are
/// isolated per request. The caller counts the answer.
fn serve(shard: &Shard, ctx: &mut ShardCtx, req: &Request, flags: DieFlags) -> Response {
    match *req {
        Request::Read { die, temp_c, .. } => {
            let degraded = flags.degraded;
            match ctx.slot(shard, die, degraded) {
                Err(e) => Response::rejected(Rejection::ConversionFailed, e.to_string()),
                Ok(_) => {
                    let idx = shard.local_index(die);
                    let slot = ctx.slots[idx].as_mut().expect("slot built above");
                    let scratch = &mut ctx.scratch;
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
                            ctx.slots[idx] = None;
                            ctx.scratch = Scratch::new();
                            Response::rejected(
                                Rejection::WorkerPanicked,
                                format!("conversion on die {die} panicked; die state rebuilt"),
                            )
                        }
                        Ok(Err(e)) => {
                            Response::rejected(Rejection::ConversionFailed, e.to_string())
                        }
                        Ok(Ok(reading)) => Response::Reading {
                            die,
                            temp_c: reading.temperature.0,
                            d_vtn_mv: reading.d_vtn.millivolts(),
                            d_vtp_mv: reading.d_vtp.millivolts(),
                            energy_pj: reading.energy.total().picojoules(),
                            quality: quality_of(reading.health.status()),
                        },
                    }
                }
            }
        }
        Request::BatchRead {
            die0,
            count,
            temp_c,
            ..
        } => serve_batch(shard, ctx, die0, count, temp_c, flags),
        Request::Calibrate { die, .. } => {
            // Recalibration rebuilds the slot from scratch (fresh sample of
            // the same deterministic die, fresh calibration).
            ctx.slots[shard.local_index(die)] = None;
            match ctx.slot(shard, die, flags.degraded) {
                Err(e) => Response::rejected(Rejection::ConversionFailed, e.to_string()),
                Ok(slot) => Response::Calibrated {
                    die,
                    quality: slot.calib_quality,
                },
            }
        }
        Request::Inject { die, kind } => {
            let idx = shard.local_index(die);
            let mut q = recover(shard.queue.lock());
            let f = &mut q.flags[idx];
            match kind {
                InjectKind::DegradeDie => {
                    f.degraded = true;
                    if let Some(slot) = &mut ctx.slots[idx] {
                        slot.sensor.inject_faults(degrade_plan());
                    }
                }
                InjectKind::HealDie => {
                    f.degraded = false;
                    if let Some(slot) = &mut ctx.slots[idx] {
                        slot.sensor.clear_faults();
                    }
                }
                InjectKind::PanicConversion => f.panic_conversion = true,
                InjectKind::PanicWorker => f.panic_worker = true,
                // A stall holds the whole shard back from now on.
                InjectKind::StallMs(ms) => {
                    q.stalled_until = Instant::now() + Duration::from_millis(ms);
                }
            }
            Response::Injected { die }
        }
        Request::Ping { pad } => Response::Pong {
            pad: "x".repeat(pad as usize),
        },
        Request::Health | Request::Shutdown => {
            Response::rejected(Rejection::BadRequest, "not a shard-addressed op")
        }
    }
}

/// The stripe a `batch_read` anchored at `die0` addresses: the `count`
/// lowest-indexed dies ≥ `die0` owned by `die0`'s shard (stride =
/// `n_shards`, so their local indices are consecutive). `None` when the
/// request is empty or runs off the fleet — the fleet validates this
/// before admitting it, and the shard re-checks what it serves.
fn stripe(cfg: &FleetConfig, die0: u64, count: u64) -> Option<Vec<u64>> {
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
    shard: &Shard,
    ctx: &mut ShardCtx,
    die0: u64,
    count: u64,
    temp_c: f64,
    flags: DieFlags,
) -> Response {
    let Some(dies) = stripe(&shard.cfg, die0, count) else {
        return Response::rejected(
            Rejection::BadRequest,
            format!("batch of {count} dies striding from die {die0} leaves this shard"),
        );
    };
    // Persistent degrade flags are honored per die; the one-shot panic
    // flags were taken from the anchor die by the caller and cover the
    // batch as a whole.
    let degraded: Vec<bool> = {
        let q = recover(shard.queue.lock());
        dies.iter()
            .map(|&d| q.flags[shard.local_index(d)].degraded)
            .collect()
    };
    let base_local = shard.local_index(die0);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        assert!(
            !flags.panic_conversion,
            "injected conversion panic (die {die0})"
        );
        let mut build_errs: Vec<Option<String>> = vec![None; dies.len()];
        for (j, &die) in dies.iter().enumerate() {
            if let Err(e) = ctx.slot(shard, die, degraded[j]) {
                build_errs[j] = Some(e.to_string());
            }
        }
        let mut sensors: Vec<&PtSensor> = Vec::with_capacity(dies.len());
        let mut inputs: Vec<SensorInputs<'_>> = Vec::with_capacity(dies.len());
        let mut rngs: Vec<&mut Pcg64> = Vec::with_capacity(dies.len());
        for (j, slot) in ctx.slots[base_local..base_local + dies.len()]
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
            for slot in &mut ctx.slots[base_local..base_local + dies.len()] {
                *slot = None;
            }
            Response::rejected(
                Rejection::WorkerPanicked,
                format!("batch drain anchored at die {die0} panicked; stripe state rebuilt"),
            )
        }
        Ok(items) => Response::Batch { items },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(id: u64) -> Shard {
        Shard::new(
            id,
            FleetConfig {
                n_dies: 10,
                n_shards: 4,
                ..FleetConfig::default()
            },
        )
    }

    #[test]
    fn die_striping_covers_the_fleet_exactly_once() {
        let owned: usize = (0..4).map(|s| shard(s).owned).sum();
        assert_eq!(owned, 10);
        // Local indices are dense per shard.
        assert_eq!(shard(2).local_index(2), 0);
        assert_eq!(shard(2).local_index(6), 1);
    }

    #[test]
    fn metric_names_merge_across_registries() {
        let mut a = SvcMetrics::new();
        let b = SvcMetrics::new();
        a.reg.inc(a.served);
        a.reg.merge(&b.reg);
        assert_eq!(a.reg.counter_value("svc.served"), Some(1));
    }

    #[test]
    fn each_rejection_counts_under_its_wire_name() {
        use crate::protocol::Coded;
        for &(rejection, name, _) in Rejection::CODES {
            let mut m = SvcMetrics::new();
            m.tally(&Response::rejected(rejection, ""));
            let counter = format!("svc.rejected.{name}");
            assert_eq!(m.reg.counter_value(&counter), Some(1), "{counter}");
        }
    }
}
