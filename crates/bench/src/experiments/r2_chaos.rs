//! **R2 — Robustness: fleet-service chaos campaign.**
//!
//! Boots the real daemon ([`ptsim_service::Server`] over loopback TCP) and
//! attacks it the way production does: injected conversion panics, shard
//! crashes, stalled shards against tight deadlines, overload bursts, a
//! shard driven past its restart budget, and a malformed-frame storm.
//! Grading is on the service's failure contract, not on luck:
//!
//! * **availability** — the unharmed baseline serves every request, and
//!   dies on healthy shards keep serving right through another shard's
//!   outage;
//! * **accounting** — every request the campaign sends is *answered*
//!   (a reading or a typed rejection); nothing is dropped silently;
//! * **recovery** — a crashed shard is restarted within the backoff
//!   budget and its dies rebuild bit-identical state from the
//!   deterministic seeds;
//! * **no silent corruption** — a reading flagged `nominal` must be
//!   within [`SDC_TEMP_LIMIT`] of the requested junction temperature
//!   (the R1 silent-data-corruption threshold, applied fleet-side);
//! * **typed death** — a shard that exhausts its restart budget answers
//!   `shard_down`, never hangs;
//! * **hardening** — garbage frames are answered with `bad_request` (or
//!   the connection closed at a strike/desync boundary) and the daemon
//!   serves clean requests immediately after the storm.

use crate::table::Table;
use ptsim_rng::{Pcg64, RngCore};
use ptsim_service::protocol::{InjectKind, Quality, Rejection, Request, Response};
use ptsim_service::{Client, ClientError, Fleet, FleetConfig, HealthWire, Server, ServerConfig};
use std::time::{Duration, Instant};

/// Fixed seed of the campaign fleet (and of the garbage generator).
pub const R2_SEED: u64 = 0x0c4a05;

/// Silent-corruption threshold, °C — mirrors `r1_faults::SDC_TEMP_LIMIT`:
/// a `nominal`-flagged reading further than this from the requested
/// junction temperature is counted as silent corruption.
pub const SDC_TEMP_LIMIT: f64 = 5.0;

/// Recovery budget for a supervised shard restart, ms.
pub const RECOVERY_BUDGET_MS: f64 = 5_000.0;

/// Campaign sizing knobs.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Fleet dies.
    pub n_dies: u64,
    /// Fleet shards.
    pub n_shards: u64,
    /// Bounded queue depth (small, so the burst phase genuinely overloads).
    pub queue_depth: usize,
    /// Restart budget of the shard-kill phase.
    pub max_restarts: u64,
    /// Reads per die in the baseline phase.
    pub baseline_reads_per_die: usize,
    /// Concurrent low-priority reads in the overload burst.
    pub burst: usize,
    /// Garbage frames per storm connection.
    pub storm_frames: usize,
    /// Storm connections.
    pub storm_conns: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            n_dies: 16,
            n_shards: 4,
            queue_depth: 4,
            max_restarts: 2,
            baseline_reads_per_die: 2,
            burst: 10,
            storm_frames: 3,
            storm_conns: 6,
        }
    }
}

/// Outcome tally of one campaign phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Phase name.
    pub name: &'static str,
    /// Requests sent.
    pub sent: usize,
    /// Answered with a served result.
    pub served: usize,
    /// Served readings flagged `degraded`.
    pub degraded: usize,
    /// Typed `timeout` rejections.
    pub rej_timeout: usize,
    /// Typed `overloaded` rejections.
    pub rej_overloaded: usize,
    /// Typed `shard_down` rejections.
    pub rej_shard_down: usize,
    /// Typed `worker_panicked` rejections.
    pub rej_worker_panicked: usize,
    /// Typed `bad_request` rejections.
    pub rej_bad_request: usize,
    /// Other typed rejections.
    pub rej_other: usize,
    /// Transport-level closes (only legitimate in the storm phase, where
    /// a strike budget or desync close is the documented answer).
    pub transport_closed: usize,
}

impl PhaseStats {
    fn new(name: &'static str) -> Self {
        PhaseStats {
            name,
            ..PhaseStats::default()
        }
    }

    /// Requests answered one way or another.
    #[must_use]
    pub fn accounted(&self) -> usize {
        self.served
            + self.rej_timeout
            + self.rej_overloaded
            + self.rej_shard_down
            + self.rej_worker_panicked
            + self.rej_bad_request
            + self.rej_other
            + self.transport_closed
    }
}

/// The graded campaign outcome.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Per-phase tallies, in execution order.
    pub phases: Vec<PhaseStats>,
    /// Trigger-to-first-served latency of the shard-crash recovery, ms.
    pub recovery_ms: f64,
    /// `nominal` readings beyond [`SDC_TEMP_LIMIT`] of the requested
    /// junction temperature.
    pub silent_corruptions: usize,
    /// Whether health reported a `dead` shard after the kill phase.
    pub dead_shard_observed: bool,
    /// Whether healthy shards served during the dead shard's outage.
    pub survivors_served_during_outage: usize,
    /// Whether a clean request was served right after the frame storm.
    pub clean_read_after_storm: bool,
    /// Final fleet health (merged counters, shard states, restarts).
    pub health: HealthWire,
}

impl ChaosReport {
    /// Baseline availability in `[0, 1]`.
    #[must_use]
    pub fn baseline_availability(&self) -> f64 {
        let base = &self.phases[0];
        if base.sent == 0 {
            return 0.0;
        }
        base.served as f64 / base.sent as f64
    }

    /// Requests that vanished without any answer, campaign-wide.
    #[must_use]
    pub fn unaccounted(&self) -> usize {
        self.phases
            .iter()
            .map(|p| p.sent.saturating_sub(p.accounted()))
            .sum()
    }

    /// Supervisor restarts recorded by the fleet.
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.health.shards.iter().map(|s| s.restarts).sum()
    }

    fn phase(&self, name: &str) -> &PhaseStats {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .expect("phase recorded")
    }

    /// Every violated gate, as human-readable findings; an empty list is a
    /// passing campaign. `tests/service_gates.rs` asserts on this.
    #[must_use]
    pub fn gate_failures(&self) -> Vec<String> {
        let mut fails = Vec::new();
        let mut gate = |ok: bool, msg: String| {
            if !ok {
                fails.push(msg);
            }
        };
        gate(
            (self.baseline_availability() - 1.0).abs() < f64::EPSILON,
            format!(
                "baseline availability {:.3} below 1.0",
                self.baseline_availability()
            ),
        );
        gate(
            self.unaccounted() == 0,
            format!("{} requests vanished unanswered", self.unaccounted()),
        );
        gate(
            self.silent_corruptions == 0,
            format!("{} silently corrupted readings", self.silent_corruptions),
        );
        gate(
            self.recovery_ms.is_finite() && self.recovery_ms <= RECOVERY_BUDGET_MS,
            format!(
                "shard recovery took {:.0} ms (budget {RECOVERY_BUDGET_MS:.0} ms)",
                self.recovery_ms
            ),
        );
        gate(
            self.restarts() >= 1,
            "no shard restart was recorded".to_string(),
        );
        let panics = self.phase("conversion-panic");
        gate(
            panics.rej_worker_panicked >= 1 && panics.served >= 1,
            format!(
                "conversion panics must be typed then recover (panicked {}, served {})",
                panics.rej_worker_panicked, panics.served
            ),
        );
        let degrade = self.phase("degrade");
        gate(
            degrade.degraded >= 2,
            format!(
                "degraded dies must keep serving flagged readings (got {})",
                degrade.degraded
            ),
        );
        let burst = self.phase("overload-burst");
        gate(
            burst.rej_overloaded >= 1,
            "the burst never produced a typed overload shed".to_string(),
        );
        gate(
            burst.served >= 1,
            "nothing was served during the overload burst".to_string(),
        );
        let deadline = self.phase("stall-deadline");
        gate(
            deadline.rej_timeout >= 1,
            "a stalled shard must surface as a typed timeout".to_string(),
        );
        gate(
            self.dead_shard_observed,
            "the kill phase never produced a dead shard".to_string(),
        );
        let kill = self.phase("kill-shard");
        gate(
            kill.rej_shard_down >= 1,
            "a dead shard must answer with typed shard_down".to_string(),
        );
        gate(
            self.survivors_served_during_outage >= 1,
            "healthy shards went quiet during the outage".to_string(),
        );
        let storm = self.phase("frame-storm");
        gate(
            storm.rej_bad_request >= 1,
            "the frame storm never got a typed bad_request".to_string(),
        );
        gate(
            self.clean_read_after_storm,
            "the daemon failed a clean request right after the storm".to_string(),
        );
        fails
    }
}

/// Classifies one client call into a phase tally, and checks the served
/// reading against the silent-corruption threshold.
fn record(
    phase: &mut PhaseStats,
    outcome: &Result<Response, ClientError>,
    expected_temp: Option<f64>,
    silent_corruptions: &mut usize,
) {
    phase.sent += 1;
    match outcome {
        Ok(Response::Reading {
            temp_c, quality, ..
        }) => {
            phase.served += 1;
            if *quality == Quality::Degraded {
                phase.degraded += 1;
            }
            if *quality == Quality::Nominal {
                if let Some(expected) = expected_temp {
                    if (temp_c - expected).abs() > SDC_TEMP_LIMIT {
                        *silent_corruptions += 1;
                    }
                }
            }
        }
        Ok(
            Response::Calibrated { .. }
            | Response::Batch { .. }
            | Response::Injected { .. }
            | Response::Pong { .. }
            | Response::Health(_)
            | Response::ShuttingDown,
        ) => phase.served += 1,
        Ok(Response::Rejected { rejection, .. }) => match rejection {
            Rejection::Timeout => phase.rej_timeout += 1,
            Rejection::Overloaded => phase.rej_overloaded += 1,
            Rejection::ShardDown => phase.rej_shard_down += 1,
            Rejection::WorkerPanicked => phase.rej_worker_panicked += 1,
            Rejection::BadRequest => phase.rej_bad_request += 1,
            Rejection::ConversionFailed => phase.rej_other += 1,
        },
        Err(_) => phase.transport_closed += 1,
    }
}

fn read_req(die: u64, temp: f64, priority: u8, deadline_ms: u64) -> Request {
    Request::Read {
        die,
        temp_c: temp,
        priority,
        deadline_ms,
    }
}

/// Runs the full campaign against a freshly booted daemon.
///
/// # Panics
///
/// Panics only on campaign-harness failures (cannot bind loopback, cannot
/// connect); every *service* misbehavior is recorded and graded instead.
#[must_use]
pub fn run_campaign(cfg: &ChaosConfig) -> ChaosReport {
    let fleet = Fleet::start(FleetConfig {
        n_dies: cfg.n_dies,
        n_shards: cfg.n_shards,
        queue_depth: cfg.queue_depth,
        base_seed: R2_SEED,
        max_restarts: cfg.max_restarts,
        backoff_base: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(200),
    });
    let server = Server::bind(
        fleet,
        "127.0.0.1:0",
        ServerConfig {
            write_timeout: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    )
    .expect("bind campaign daemon on loopback");
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).expect("connect campaign client");
    let mut silent = 0usize;
    let mut phases = Vec::new();

    // Phase A — baseline: the unharmed fleet serves everything.
    let mut base = PhaseStats::new("baseline");
    for round in 0..cfg.baseline_reads_per_die {
        for die in 0..cfg.n_dies {
            let temp = 40.0 + 10.0 * (round as f64) + (die % 5) as f64;
            let r = client.call(&read_req(die, temp, 1, 10_000));
            record(&mut base, &r, Some(temp), &mut silent);
        }
    }
    phases.push(base);

    // Phase B — conversion panics: typed rejection, then immediate
    // recovery, and sibling dies on the same shard are undisturbed.
    let mut conv = PhaseStats::new("conversion-panic");
    for die in [1u64, 2] {
        let r = client.call(&Request::Inject {
            die,
            kind: InjectKind::PanicConversion,
        });
        record(&mut conv, &r, None, &mut silent);
        let tripped = client.call(&read_req(die, 85.0, 1, 10_000));
        record(&mut conv, &tripped, Some(85.0), &mut silent);
        let recovered = client.call(&read_req(die, 85.0, 1, 10_000));
        record(&mut conv, &recovered, Some(85.0), &mut silent);
        let sibling = client.call(&read_req(die + cfg.n_shards, 85.0, 1, 10_000));
        record(&mut conv, &sibling, Some(85.0), &mut silent);
    }
    phases.push(conv);

    // Phase C — degraded serving: a die with a dead PSRO bank keeps
    // answering temperature with an explicit quality flag, then heals.
    let mut degrade = PhaseStats::new("degrade");
    for die in [3u64, 4] {
        let r = client.call(&Request::Inject {
            die,
            kind: InjectKind::DegradeDie,
        });
        record(&mut degrade, &r, None, &mut silent);
        let flagged = client.call(&read_req(die, 70.0, 1, 10_000));
        record(&mut degrade, &flagged, Some(70.0), &mut silent);
    }
    let healed_inject = client.call(&Request::Inject {
        die: 3,
        kind: InjectKind::HealDie,
    });
    record(&mut degrade, &healed_inject, None, &mut silent);
    let healed = client.call(&read_req(3, 70.0, 1, 10_000));
    record(&mut degrade, &healed, Some(70.0), &mut silent);
    phases.push(degrade);

    // Phase D — a panic escapes a request (typed `worker_panicked`), then
    // supervised recovery, timed.
    let mut crash = PhaseStats::new("worker-crash");
    let r = client.call(&Request::Inject {
        die: 0,
        kind: InjectKind::PanicWorker,
    });
    record(&mut crash, &r, None, &mut silent);
    let tripped = client.call(&read_req(0, 60.0, 1, 400));
    record(&mut crash, &tripped, Some(60.0), &mut silent);
    let trigger_done = Instant::now();
    let mut recovery_ms = f64::INFINITY;
    while trigger_done.elapsed() < Duration::from_secs(10) {
        let probe = client.call(&read_req(0, 60.0, 1, 2_000));
        let served = matches!(probe, Ok(Response::Reading { .. }));
        record(&mut crash, &probe, Some(60.0), &mut silent);
        if served {
            recovery_ms = trigger_done.elapsed().as_secs_f64() * 1e3;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    phases.push(crash);

    // Phase E — stalled shard vs. deadline: the caller is released with a
    // typed timeout at its own budget.
    let mut stall = PhaseStats::new("stall-deadline");
    let r = client.call(&Request::Inject {
        die: 2,
        kind: InjectKind::StallMs(800),
    });
    record(&mut stall, &r, None, &mut silent);
    let timed_out = client.call(&read_req(2, 60.0, 1, 100));
    record(&mut stall, &timed_out, Some(60.0), &mut silent);
    // The stall runs out; the die serves again afterwards.
    let after = client.call(&read_req(2, 60.0, 1, 10_000));
    record(&mut stall, &after, Some(60.0), &mut silent);
    phases.push(stall);

    // Phase F — overload burst: stall one shard, then flood its
    // queue with low-priority reads; sheds must be typed and a
    // high-priority read must still get through.
    let mut burst = PhaseStats::new("overload-burst");
    let r = client.call(&Request::Inject {
        die: 1,
        kind: InjectKind::StallMs(700),
    });
    record(&mut burst, &r, None, &mut silent);
    let burst_temp = 55.0;
    let occupier = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).expect("burst occupier connect");
            c.call(&read_req(1, burst_temp, 3, 15_000))
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    let flood: Vec<_> = (0..cfg.burst)
        .map(|i| {
            let addr = addr.clone();
            let die = 1 + cfg.n_shards * (i as u64 % 3); // all on die-1's shard
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).expect("burst client connect");
                c.call(&read_req(die, burst_temp, 0, 15_000))
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(150));
    let vip = client.call(&read_req(1, burst_temp, 3, 15_000));
    record(&mut burst, &vip, Some(burst_temp), &mut silent);
    record(
        &mut burst,
        &occupier.join().expect("occupier join"),
        Some(burst_temp),
        &mut silent,
    );
    for h in flood {
        record(
            &mut burst,
            &h.join().expect("burst join"),
            Some(burst_temp),
            &mut silent,
        );
    }
    phases.push(burst);

    // Phase G — kill a shard past its restart budget; its dies answer
    // shard_down while the rest of the fleet keeps serving.
    let mut kill = PhaseStats::new("kill-shard");
    let victim_die = 5u64; // shard 1 in the default 4-shard layout
    let victim_shard = victim_die % cfg.n_shards;
    for _ in 0..=cfg.max_restarts {
        let inj = client.call(&Request::Inject {
            die: victim_die,
            kind: InjectKind::PanicWorker,
        });
        record(&mut kill, &inj, None, &mut silent);
        let tripped = client.call(&read_req(victim_die, 60.0, 1, 400));
        record(&mut kill, &tripped, Some(60.0), &mut silent);
        std::thread::sleep(Duration::from_millis(120));
    }
    let mut dead_shard_observed = false;
    let wait_dead = Instant::now();
    while wait_dead.elapsed() < Duration::from_secs(10) {
        if let Ok(Response::Health(h)) = client.call(&Request::Health) {
            if h.shards
                .iter()
                .any(|s| s.id == victim_shard && s.state == "dead")
            {
                dead_shard_observed = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let down = client.call(&read_req(victim_die, 60.0, 1, 2_000));
    record(&mut kill, &down, Some(60.0), &mut silent);
    let mut survivors_served_during_outage = 0usize;
    for die in 0..cfg.n_dies {
        if die % cfg.n_shards == victim_shard {
            continue;
        }
        let r = client.call(&read_req(die, 60.0, 1, 10_000));
        if matches!(r, Ok(Response::Reading { .. })) {
            survivors_served_during_outage += 1;
        }
        record(&mut kill, &r, Some(60.0), &mut silent);
    }
    phases.push(kill);

    // Phase H — malformed-frame storm, then a clean request.
    let mut storm = PhaseStats::new("frame-storm");
    let mut garbage_rng = Pcg64::seed_from_u64(R2_SEED);
    for conn_i in 0..cfg.storm_conns {
        let Ok(mut attacker) = Client::connect(&addr) else {
            continue;
        };
        let _ = attacker.set_reply_timeout(Duration::from_secs(5));
        for _ in 0..cfg.storm_frames {
            let mut payload = vec![0u8; 24];
            for b in &mut payload {
                *b = (garbage_rng.next_u64() & 0xff) as u8;
            }
            let mut framed = (payload.len() as u32).to_be_bytes().to_vec();
            framed.extend_from_slice(&payload);
            if attacker.send_raw(&framed).is_err() {
                storm.sent += 1;
                storm.transport_closed += 1;
                continue;
            }
            let resp = attacker.read_response();
            record(&mut storm, &resp, None, &mut silent);
        }
        // Odd connections also fire an oversize prefix (answered, then
        // closed) or a truncated frame (closed at the desync boundary).
        if conn_i % 2 == 1 {
            storm.sent += 1;
            if attacker.send_raw(&u32::MAX.to_be_bytes()).is_ok() {
                match attacker.read_response() {
                    Ok(Response::Rejected { .. }) => storm.rej_bad_request += 1,
                    _ => storm.transport_closed += 1,
                }
            } else {
                storm.transport_closed += 1;
            }
        }
    }
    let clean = client.call(&read_req(2, 60.0, 1, 10_000));
    let clean_read_after_storm = matches!(clean, Ok(Response::Reading { .. }));
    record(&mut storm, &clean, Some(60.0), &mut silent);
    phases.push(storm);

    let health = match client.call(&Request::Health) {
        Ok(Response::Health(h)) => h,
        other => panic!("final health fetch failed: {other:?}"),
    };
    server.stop();
    server.join();

    ChaosReport {
        phases,
        recovery_ms,
        silent_corruptions: silent,
        dead_shard_observed,
        survivors_served_during_outage,
        clean_read_after_storm,
        health,
    }
}

/// Renders the human-readable campaign report.
#[must_use]
pub fn render_report(report: &ChaosReport) -> String {
    let mut table = Table::new(vec![
        "phase",
        "sent",
        "served",
        "degraded",
        "timeout",
        "overload",
        "shard_down",
        "panicked",
        "bad_req",
        "closed",
    ]);
    for p in &report.phases {
        table.push(vec![
            p.name.to_string(),
            p.sent.to_string(),
            p.served.to_string(),
            p.degraded.to_string(),
            p.rej_timeout.to_string(),
            p.rej_overloaded.to_string(),
            p.rej_shard_down.to_string(),
            p.rej_worker_panicked.to_string(),
            p.rej_bad_request.to_string(),
            p.transport_closed.to_string(),
        ]);
    }
    let fails = report.gate_failures();
    let mut out = String::from("R2 — fleet-service chaos campaign\n\n");
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nbaseline availability: {:.3}\nunaccounted requests: {}\nsilent corruptions: {}\nshard recovery: {:.0} ms (budget {:.0} ms)\nshard restarts: {}\ndead shard observed: {}\nsurvivors serving during outage: {}\nclean read after storm: {}\n",
        report.baseline_availability(),
        report.unaccounted(),
        report.silent_corruptions,
        report.recovery_ms,
        RECOVERY_BUDGET_MS,
        report.restarts(),
        report.dead_shard_observed,
        report.survivors_served_during_outage,
        report.clean_read_after_storm,
    ));
    out.push_str(&format!(
        "\ngates: {}\n",
        if fails.is_empty() {
            "all OK".to_string()
        } else {
            format!("{} FAILED", fails.len())
        }
    ));
    for failure in &fails {
        out.push_str(&format!("  FAIL: {failure}\n"));
    }
    out
}

/// Runs the campaign at default size and renders the report.
#[must_use]
pub fn run() -> String {
    render_report(&run_campaign(&ChaosConfig::default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_identity_holds() {
        let mut p = PhaseStats::new("x");
        p.sent = 3;
        p.served = 1;
        p.rej_timeout = 1;
        p.transport_closed = 1;
        assert_eq!(p.accounted(), 3);
    }
}
