//! The fleet: N virtual dies striped across supervised shard workers.
//!
//! Each shard gets a supervisor thread that runs [`worker_loop`] inside
//! `catch_unwind`. An escaped panic marks the shard `Restarting`, backs
//! off exponentially (`backoff_base · 2^(restarts-1)`, capped), and spawns
//! the next worker incarnation with a *fresh* context — per-die state is
//! rebuilt from the deterministic seeds, so a restart changes availability
//! but never the values a die reports. Past `max_restarts` the shard goes
//! `Dead` and its queue is drained with typed `shard_down` rejections;
//! the rest of the fleet keeps serving.
//!
//! A request to an idle shard is served on the submitting thread: nothing
//! queued, nobody holding the shard's context, not an `inject`, and no
//! one-shot chaos armed on its die. Everything else queues for the worker.
//! Admission control is strictly bounded: a full queue sheds the
//! *lowest-priority read* (answering it `overloaded`) to admit
//! higher-priority work, and rejects the newcomer otherwise. Replies are
//! awaited with `recv_timeout` against the request's own deadline, so a
//! stalled worker costs the caller its deadline budget, never an unbounded
//! hang.

use crate::protocol::{
    HealthWire, Rejection, Request, Response, ShardHealthWire, DEFAULT_DEADLINE_MS,
};
use crate::shard::{recover, serve, worker_loop, ShardConfig, ShardShared, ShardState, SvcMetrics};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::{Arc, Mutex, Once};
use std::thread;
use std::time::{Duration, Instant};

/// Thread-name prefix of shard workers; the quiet panic hook uses it to
/// keep *expected* (supervised) panics off stderr while leaving every
/// other thread's panics loud.
pub const SHARD_THREAD_PREFIX: &str = "ptsim-shard-";

static QUIET_HOOK: Once = Once::new();

/// Installs a process-wide panic hook that silences panics on supervised
/// shard threads (they are caught, counted, and reported through typed
/// responses) while delegating everything else to the previous hook.
/// Idempotent.
pub fn install_supervised_panic_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let supervised = thread::current()
                .name()
                .is_some_and(|n| n.starts_with(SHARD_THREAD_PREFIX));
            if !supervised {
                prev(info);
            }
        }));
    });
}

/// Fleet-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Virtual dies owned by the fleet.
    pub n_dies: u64,
    /// Shard (worker thread) count.
    pub n_shards: u64,
    /// Bounded per-shard queue depth.
    pub queue_depth: usize,
    /// Base seed of the deterministic per-die streams.
    pub base_seed: u64,
    /// Worker restarts a shard may consume before going `Dead`.
    pub max_restarts: u64,
    /// First restart backoff; doubles per consecutive restart.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            n_dies: 64,
            n_shards: 4,
            queue_depth: 64,
            base_seed: 0x5eed,
            max_restarts: 5,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
        }
    }
}

/// The running fleet.
pub struct Fleet {
    cfg: FleetConfig,
    shards: Vec<Arc<ShardShared>>,
    supervisors: Vec<thread::JoinHandle<()>>,
    /// Connection-level metrics (frames, reaps, bad requests) merged into
    /// `/health` alongside the per-shard registries.
    pub front_metrics: Mutex<SvcMetrics>,
    started: Instant,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("n_dies", &self.cfg.n_dies)
            .field("n_shards", &self.cfg.n_shards)
            .finish_non_exhaustive()
    }
}

impl Fleet {
    /// Boots the fleet: shared state plus one supervisor thread per shard.
    #[must_use]
    pub fn start(cfg: FleetConfig) -> Self {
        install_supervised_panic_hook();
        let cfg = FleetConfig {
            n_shards: cfg.n_shards.clamp(1, 64),
            queue_depth: cfg.queue_depth.max(1),
            ..cfg
        };
        let shards: Vec<Arc<ShardShared>> = (0..cfg.n_shards)
            .map(|shard_id| {
                Arc::new(ShardShared::new(ShardConfig {
                    shard_id,
                    n_shards: cfg.n_shards,
                    n_dies: cfg.n_dies,
                    queue_depth: cfg.queue_depth,
                    base_seed: cfg.base_seed,
                }))
            })
            .collect();
        let supervisors = shards
            .iter()
            .map(|shared| {
                let shared = Arc::clone(shared);
                let sup_cfg = cfg;
                thread::Builder::new()
                    .name(format!("{SHARD_THREAD_PREFIX}{}", shared.cfg.shard_id))
                    .spawn(move || supervise(&shared, &sup_cfg))
                    .expect("spawn shard supervisor")
            })
            .collect();
        Fleet {
            cfg,
            shards,
            supervisors,
            front_metrics: Mutex::new(SvcMetrics::new()),
            started: Instant::now(),
        }
    }

    /// The fleet configuration in force.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Routes one die-addressed request: served here if its shard is idle,
    /// otherwise admission control, bounded queue, deadline-bounded reply
    /// wait. Always answers — with the result or a typed rejection, never a
    /// hang and never silence.
    #[must_use]
    pub fn submit(&self, req: Request) -> Response {
        let (die, priority, deadline_ms) = match &req {
            Request::Read {
                die,
                priority,
                deadline_ms,
                ..
            } => (*die, *priority, *deadline_ms),
            Request::BatchRead {
                die0,
                priority,
                deadline_ms,
                ..
            } => (*die0, *priority, *deadline_ms),
            Request::Calibrate { die, deadline_ms } => (*die, 2, *deadline_ms),
            // Chaos injections must land even under overload: top priority.
            Request::Inject { die, .. } => (*die, u8::MAX, DEFAULT_DEADLINE_MS),
            Request::Ping { .. } => (0, u8::MAX, DEFAULT_DEADLINE_MS),
            Request::Health => return Response::Health(self.health()),
            Request::Shutdown => {
                return Response::rejected(Rejection::BadRequest, "shutdown is a server-level op")
            }
        };
        if die >= self.cfg.n_dies && !matches!(req, Request::Ping { .. }) {
            return Response::rejected(
                Rejection::BadRequest,
                format!("die {die} outside fleet of {}", self.cfg.n_dies),
            );
        }
        if let Request::BatchRead { die0, count, .. } = &req {
            // The stripe `die0, die0+S, …` must stay inside the fleet; the
            // parser bounds `count` but a directly-constructed request may
            // still run off the end (or overflow).
            let last = count
                .checked_sub(1)
                .and_then(|c| c.checked_mul(self.cfg.n_shards))
                .and_then(|offset| die0.checked_add(offset));
            if last.is_none_or(|last| last >= self.cfg.n_dies) {
                return Response::rejected(
                    Rejection::BadRequest,
                    format!(
                        "batch of {count} dies striding from die {die0} leaves the fleet of {}",
                        self.cfg.n_dies
                    ),
                );
            }
        }
        let shard = &self.shards[(die % self.cfg.n_shards) as usize];
        let state = recover(shard.status.lock()).state;
        if state == ShardState::Dead {
            shard.count(|m| m.rej_shard_down);
            return Response::rejected(
                Rejection::ShardDown,
                format!("shard {} is dead", shard.cfg.shard_id),
            );
        }

        let admitted = Instant::now();
        let deadline = admitted + Duration::from_millis(deadline_ms);
        let mut q = recover(shard.queue.lock());
        // A request already past its deadline queues, so the worker drops it
        // and counts it exactly as before.
        if state == ShardState::Up && deadline_ms > 0 {
            if let Some((serving, flags)) = shard.try_inline(&mut q, &req) {
                drop(q);
                {
                    let mut m = recover(shard.metrics.lock());
                    let (requests, inline) = (m.requests, m.served_inline);
                    m.reg.inc(requests);
                    m.reg.inc(inline);
                }
                return serving.with_ctx(|ctx| serve(shard, ctx, &req, flags, admitted));
            }
        }

        let (tx, rx) = mpsc::channel();
        let job = crate::shard::Job {
            req,
            priority,
            deadline,
            enqueued: admitted,
            reply: tx,
        };
        {
            if q.jobs.len() >= shard.cfg.queue_depth {
                // Shed the lowest-priority queued *read* if it ranks below
                // the newcomer; otherwise the newcomer is the one shed.
                let victim = q
                    .jobs
                    .iter()
                    .enumerate()
                    .filter(|(_, j)| matches!(j.req, Request::Read { .. }))
                    .min_by_key(|(_, j)| j.priority)
                    .map(|(i, j)| (i, j.priority));
                match victim {
                    Some((i, vp)) if vp < priority => {
                        let shed = q.jobs.remove(i).expect("victim index valid under lock");
                        let _ = shed.reply.send(Response::rejected(
                            Rejection::Overloaded,
                            "shed for higher-priority work",
                        ));
                        shard.count(|m| m.rej_overloaded);
                        q.jobs.push_back(job);
                    }
                    _ => {
                        drop(q);
                        shard.count(|m| m.rej_overloaded);
                        return Response::rejected(
                            Rejection::Overloaded,
                            format!("shard {} queue full", shard.cfg.shard_id),
                        );
                    }
                }
            } else {
                q.jobs.push_back(job);
            }
            let depth = q.jobs.len();
            drop(q);
            let mut m = recover(shard.metrics.lock());
            let req_id = m.requests;
            m.reg.inc(req_id);
            let peak = m.queue_peak;
            m.reg.set_max(peak, depth as f64);
        }
        shard.cv.notify_one();

        match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(resp) => resp,
            Err(_) => {
                shard.count(|m| m.rej_timeout);
                Response::rejected(
                    Rejection::Timeout,
                    format!("deadline of {deadline_ms} ms exceeded"),
                )
            }
        }
    }

    /// Fleet-wide health. Never goes through a shard queue — it is served
    /// from shared state so it works while every shard is dead.
    #[must_use]
    pub fn health(&self) -> HealthWire {
        let mut merged = SvcMetrics::new();
        merged.reg.merge(&recover(self.front_metrics.lock()).reg);
        let shards = self
            .shards
            .iter()
            .map(|s| {
                merged.reg.merge(&recover(s.metrics.lock()).reg);
                let st = recover(s.status.lock());
                ShardHealthWire {
                    id: s.cfg.shard_id,
                    state: st.state.name().to_string(),
                    restarts: st.restarts,
                    queue_len: recover(s.queue.lock()).jobs.len() as u64,
                    dies: s.cfg.owned_dies(),
                }
            })
            .collect();
        let counters = merged
            .reg
            .snapshot()
            .counters
            .iter()
            .map(|(k, v)| ((*k).to_string(), *v))
            .collect();
        HealthWire {
            shards,
            counters,
            uptime_ms: self.started.elapsed().as_millis() as u64,
            // Every worker wake serves one job: no coalescing.
            coalesce_max: 1,
            wire_version: u64::from(crate::wire::WIRE_V2),
        }
    }

    /// Graceful shutdown: stop admitting, wake the workers, join the
    /// supervisors. Queued jobs at shutdown are answered `shard_down`.
    pub fn shutdown(self) {
        for s in &self.shards {
            s.shutdown.store(true, Ordering::SeqCst);
            s.cv.notify_all();
        }
        for sup in self.supervisors {
            let _ = sup.join();
        }
        for s in &self.shards {
            drain_with_rejection(s, "fleet shutting down");
        }
    }
}

fn drain_with_rejection(shard: &ShardShared, detail: &str) {
    let drained: Vec<_> = recover(shard.queue.lock()).jobs.drain(..).collect();
    for job in drained {
        shard.count(|m| m.rej_shard_down);
        let _ = job
            .reply
            .send(Response::rejected(Rejection::ShardDown, detail));
    }
}

/// The supervisor body: run the worker, and on an escaped panic back off
/// and restart it until the restart budget runs out. The panic has already
/// discarded the shard's context on its way out, so the restarted worker
/// rebuilds every die it touches from the seeds.
fn supervise(shared: &Arc<ShardShared>, cfg: &FleetConfig) {
    loop {
        let run = catch_unwind(AssertUnwindSafe(|| worker_loop(shared)));
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match run {
            Ok(()) => return, // clean exit only happens on shutdown
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                let restarts = {
                    let mut st = recover(shared.status.lock());
                    st.restarts += 1;
                    st.last_panic = Some(message);
                    st.state = if st.restarts > cfg.max_restarts {
                        ShardState::Dead
                    } else {
                        ShardState::Restarting
                    };
                    shared.count(|m| m.restarts);
                    st.restarts
                };
                if restarts > cfg.max_restarts {
                    drain_with_rejection(shared, "restart budget exhausted");
                    return;
                }
                let backoff = cfg
                    .backoff_base
                    .saturating_mul(1u32 << (restarts - 1).min(16) as u32)
                    .min(cfg.backoff_cap);
                thread::sleep(backoff);
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                recover(shared.status.lock()).state = ShardState::Up;
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{InjectKind, Quality};

    fn small_fleet() -> Fleet {
        Fleet::start(FleetConfig {
            n_dies: 8,
            n_shards: 2,
            queue_depth: 16,
            base_seed: 0xfeed,
            max_restarts: 3,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(20),
        })
    }

    fn read(die: u64) -> Request {
        Request::Read {
            die,
            temp_c: 60.0,
            priority: 1,
            deadline_ms: 5_000,
        }
    }

    #[test]
    fn reads_are_deterministic_per_die() {
        let fleet = small_fleet();
        let a = fleet.submit(read(3));
        let Response::Reading {
            temp_c, quality, ..
        } = a
        else {
            panic!("expected a reading, got {a:?}");
        };
        assert_eq!(quality, Quality::Nominal);
        assert!(
            (temp_c - 60.0).abs() < 2.0,
            "sensor error too large: {temp_c}"
        );
        fleet.shutdown();

        // A second fleet boot serves the same die identically.
        let fleet2 = small_fleet();
        let b = fleet2.submit(read(3));
        let Response::Reading { temp_c: t2, .. } = b else {
            panic!("expected a reading, got {b:?}");
        };
        assert_eq!(temp_c, t2, "die state must rebuild bit-identically");
        fleet2.shutdown();
    }

    #[test]
    fn out_of_range_die_is_bad_request() {
        let fleet = small_fleet();
        let r = fleet.submit(read(10_000));
        assert!(
            matches!(
                r,
                Response::Rejected {
                    rejection: Rejection::BadRequest,
                    ..
                }
            ),
            "got {r:?}"
        );
        fleet.shutdown();
    }

    #[test]
    fn degraded_die_keeps_serving_with_quality_flag() {
        let fleet = small_fleet();
        assert!(matches!(
            fleet.submit(Request::Inject {
                die: 5,
                kind: InjectKind::DegradeDie
            }),
            Response::Injected { die: 5 }
        ));
        let r = fleet.submit(read(5));
        let Response::Reading {
            quality, d_vtn_mv, ..
        } = r
        else {
            panic!("degraded die must still serve, got {r:?}");
        };
        assert_eq!(quality, Quality::Degraded);
        // Threshold shifts are frozen at calibration in degraded mode.
        let r2 = fleet.submit(read(5));
        let Response::Reading { d_vtn_mv: v2, .. } = r2 else {
            panic!("expected reading, got {r2:?}");
        };
        assert_eq!(d_vtn_mv, v2);

        // Heal restores nominal serving.
        let _ = fleet.submit(Request::Inject {
            die: 5,
            kind: InjectKind::HealDie,
        });
        let healed = fleet.submit(read(5));
        assert!(
            matches!(
                healed,
                Response::Reading {
                    quality: Quality::Nominal,
                    ..
                }
            ),
            "got {healed:?}"
        );
        fleet.shutdown();
    }

    #[test]
    fn pings_to_a_zero_die_fleet_pong_without_killing_a_shard() {
        let fleet = Fleet::start(FleetConfig {
            n_dies: 0,
            ..FleetConfig::default()
        });
        for _ in 0..8 {
            let r = fleet.submit(Request::Ping { pad: 3 });
            assert!(
                matches!(&r, Response::Pong { pad } if pad == "xxx"),
                "got {r:?}"
            );
        }
        let h = fleet.health();
        assert!(
            h.shards.iter().all(|s| s.state == "up" && s.restarts == 0),
            "{h:?}"
        );
        fleet.shutdown();
    }

    #[test]
    fn health_is_served_without_touching_queues() {
        let fleet = small_fleet();
        let h = fleet.health();
        assert_eq!(h.shards.len(), 2);
        assert!(h.shards.iter().all(|s| s.state == "up"));
        assert_eq!(h.shards.iter().map(|s| s.dies).sum::<u64>(), 8);
        assert_eq!(h.coalesce_max, 1);
        fleet.shutdown();
    }
}
