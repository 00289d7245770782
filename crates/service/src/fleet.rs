//! The fleet: N virtual dies striped across shards, served by the threads
//! that submit requests.
//!
//! `Fleet::start` starts no thread. A request is served by the thread that
//! calls [`Fleet::submit`]: at once when its shard is free and nobody waits
//! for it, otherwise after waiting its turn in the shard's bounded queue.
//! Admission control is strictly bounded: a full queue sheds the
//! *lowest-priority waiting read* (answering it `overloaded`) to admit
//! higher-priority work, and rejects the newcomer otherwise. A waiter is
//! answered `timeout` at its own deadline, so a stalled shard costs the
//! caller its deadline budget, never an unbounded hang.
//!
//! Each serve runs inside `catch_unwind`: a panic that escapes a request
//! answers it `worker_panicked`, discards the shard's context and marks
//! the shard `Restarting` for an exponential backoff
//! (`backoff_base · 2^(restarts-1)`, capped). Per-die state is rebuilt
//! from the deterministic seeds, so a restart changes availability but
//! never the values a die reports. Past `max_restarts` the shard goes
//! `Dead` and answers `shard_down`; the rest of the fleet keeps serving.
//!
//! Every answer is counted once, from the `Response` itself: a shard
//! tallies what it answers under its queue lock, and the fleet tallies the
//! `bad_request` refusals it gives before any shard in its front-end
//! registry. [`Fleet::health`] merges those counters for `/health`.

use crate::protocol::{HealthWire, Rejection, Request, Response, DEFAULT_DEADLINE_MS};
use crate::shard::{holding_a_shard, recover, Shard, SvcMetrics};
use std::sync::{Mutex, Once};
use std::time::{Duration, Instant};

static QUIET_HOOK: Once = Once::new();

/// Installs a process-wide panic hook that silences panics on threads
/// serving a shard (they are caught, counted, and reported through typed
/// responses) while delegating everything else to the previous hook.
/// Idempotent.
fn install_supervised_panic_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !holding_a_shard() {
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
    /// Shard count: dies are striped across this many independently
    /// served, independently supervised shards.
    pub n_shards: u64,
    /// Bounded per-shard queue depth.
    pub queue_depth: usize,
    /// Base seed of the deterministic per-die streams.
    pub base_seed: u64,
    /// Restarts a shard may consume before going `Dead`.
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
    shards: Vec<Shard>,
    /// Front-end counters merged into `/health` alongside the per-shard
    /// registries: connection hygiene, and the `bad_request` answers the
    /// fleet and the server give without reaching a shard.
    pub(crate) front_metrics: Mutex<SvcMetrics>,
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
    /// Boots the fleet: one shard state per shard, no threads.
    #[must_use]
    pub fn start(cfg: FleetConfig) -> Self {
        install_supervised_panic_hook();
        let cfg = FleetConfig {
            n_shards: cfg.n_shards.clamp(1, 64),
            queue_depth: cfg.queue_depth.max(1),
            ..cfg
        };
        Fleet {
            cfg,
            shards: (0..cfg.n_shards).map(|id| Shard::new(id, cfg)).collect(),
            front_metrics: Mutex::new(SvcMetrics::new()),
            started: Instant::now(),
        }
    }

    /// The fleet configuration in force.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Routes one die-addressed request to its shard and serves it on the
    /// calling thread: at once if the shard is free, otherwise after a
    /// bounded, deadline-bounded wait. Always answers — with the result or
    /// a typed rejection, never a hang and never silence.
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
            Request::Shutdown => return self.refuse("shutdown is a server-level op".into()),
        };
        if die >= self.cfg.n_dies && !matches!(req, Request::Ping { .. }) {
            return self.refuse(format!("die {die} outside fleet of {}", self.cfg.n_dies));
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
                return self.refuse(format!(
                    "batch of {count} dies striding from die {die0} leaves the fleet of {}",
                    self.cfg.n_dies
                ));
            }
        }
        self.shards[(die % self.cfg.n_shards) as usize].submit(&req, priority, deadline_ms)
    }

    /// Answers and counts a request the fleet refuses before any shard.
    fn refuse(&self, detail: String) -> Response {
        let response = Response::rejected(Rejection::BadRequest, detail);
        recover(self.front_metrics.lock()).tally(&response);
        response
    }

    /// Fleet-wide health. Never waits on a shard — it is served from
    /// shared state so it works while every shard is dead or stalled.
    #[must_use]
    pub fn health(&self) -> HealthWire {
        let mut merged = recover(self.front_metrics.lock()).reg.clone();
        let shards = self.shards.iter().map(|s| s.health(&mut merged)).collect();
        let counters = merged
            .snapshot()
            .counters
            .iter()
            .map(|(k, v)| ((*k).to_string(), *v))
            .collect();
        HealthWire {
            shards,
            counters,
            uptime_ms: self.started.elapsed().as_millis() as u64,
            // Every serve handles one request: no coalescing.
            coalesce_max: 1,
            wire_version: u64::from(crate::wire::WIRE_V2),
        }
    }

    /// Graceful shutdown: stop admitting. Waiting requests and every later
    /// one are answered `shard_down`; a request being served finishes.
    pub fn shutdown(&self) {
        for s in &self.shards {
            s.shut_down();
        }
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
