//! `fleet`: open-loop telemetry traffic into an in-process `ptsim-fleetd`.
//!
//! The daemon runs with one shard per core behind a loopback socket. Two
//! pipelined connections drive it, one speaking the v2 binary codec and one
//! the v1 JSON codec, each on its own generator thread. Each connection
//! owns half of a uniform die working set, so every die's requests are
//! served in the order that connection sent them and the run can replay
//! each die from its seed afterwards. The mix is mostly single reads, a few
//! percent `calibrate` (writes on the same shard queues) and a few percent
//! `batch_read` stripes.
//!
//! Open loop: request `i` of a connection is due at a fixed instant
//! whatever the replies do, and its latency runs from that instant. A
//! connection the daemon serves one frame at a time cannot send while it
//! waits for a reply, so a slow reply makes later sends late; that
//! lateness is reported beside the latencies and stays inside them.
//!
//! The offered rates come from the closed DTM loop the daemon feeds (see
//! [`rates`]): one R3-shaped stack reads every tier's sensor once per
//! 2 ms control tick.

use crate::replay::{self, OperatingPoint};
use crate::report::{metric, nproc, peak_rss_mb, timed, Outcome};
use crate::stats::{self, Digest, Rung, Summary, Timed};
use ptsim_core::dtm::DtmConfig;
use ptsim_core::pipeline::design_bands;
use ptsim_core::{HealthStatus, PtSensor, SensorInputs, SensorSpec};
use ptsim_device::process::Technology;
use ptsim_device::units::Celsius;
use ptsim_mc::die::DieSite;
use ptsim_mc::driver::die_rng;
use ptsim_mc::model::VariationModel;
use ptsim_rng::{Pcg64, Rng};
use ptsim_service::protocol::{begin_frame, finish_frame, DEFAULT_DEADLINE_MS};
use ptsim_service::{
    wire, BatchItem, Client, Fleet, FleetConfig, Quality, Request, Response, Server, ServerConfig,
};
use ptsim_tsv::topology::StackTopology;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Dies in the working set per shard (split evenly between the two
/// connections, so each connection's half is eight whole warm-up stripes
/// per shard).
pub const DIES_PER_SHARD: u64 = 16 * BATCH;
/// The daemon's `read_concurrent` capacity as the repository records it
/// (`BENCH_SERVICE.json`, EXPERIMENTS.md: 36,401 reads/s).
pub const RECORDED_CAPACITY_RPS: f64 = 36_401.0;
/// `heavy` offers at most this share of [`RECORDED_CAPACITY_RPS`].
pub const HEAVY_SHARE_OF_CAPACITY: f64 = 0.25;
/// A ladder rung passes with p99 within half the 2 ms DTM control tick.
pub const P99_LIMIT_US: f64 = 1_000.0;

/// The offered rates, requests per second over both connections.
#[derive(Debug, Clone, PartialEq)]
pub struct Rates {
    /// `light`: one stack, every tier's sensor read once per tick.
    pub light: f64,
    /// `heavy`: the most whole stacks within [`HEAVY_SHARE_OF_CAPACITY`]
    /// of [`RECORDED_CAPACITY_RPS`].
    pub heavy: f64,
    /// The `max_rps` ladder, ascending: one sensor, then one stack
    /// doubling to twice `heavy`.
    pub ladder: Vec<f64>,
}

/// Derives [`Rates`] from the DTM loop: `run_dtm_loop` reads every node of
/// the stack once per `sample_period`, and the R3 stack has one node per
/// tier. With the default 2 ms tick and four tiers: sensor 500/s, stack
/// (= `light`) 2000/s, `heavy` ⌊0.25 × 36,401 / 2000⌋ = 4 stacks = 8000/s,
/// ladder 500, 2000, 4000, 8000, 16000/s.
#[must_use]
pub fn rates() -> Rates {
    let sensor = 1.0 / DtmConfig::default().sample_period.0;
    let tiers = StackTopology::reference_four_tier().thermal_config().tiers as f64;
    let stack = tiers * sensor;
    let heavy_stacks = (HEAVY_SHARE_OF_CAPACITY * RECORDED_CAPACITY_RPS / stack)
        .floor()
        .max(1.0);
    let mut ladder = vec![sensor];
    let mut stacks = 1.0;
    while stacks <= 2.0 * heavy_stacks {
        ladder.push(stacks * stack);
        stacks *= 2.0;
    }
    Rates {
        light: stack,
        heavy: heavy_stacks * stack,
        ladder,
    }
}

/// Stripe length of a `batch_read`.
const BATCH: u64 = 16;
/// Shares of the mix.
const CALIBRATE_SHARE: f64 = 0.03;
const BATCH_SHARE: f64 = 0.03;
/// Requested temperatures, °C: the band range of the paper's ±1.5 °C.
const TEMP_RANGE: (i8, i8) = (-20, 100);
const TEMP_BAND_C: f64 = 1.5;
/// Share of readings that must land inside the band: as in `population`,
/// the model's tail passes ±1.5 °C on a few dies, so the band is held as a
/// yield and the misses are reported.
const MIN_BAND_YIELD: f64 = 0.99;
/// Slices of the `heavy` phase (median CPU per request reported).
const HEAVY_SLICES: usize = 9;
/// Fleet boots timed for `setup_s` (median reported).
const SETUPS: usize = 5;
/// Reads of the in-process and ping measurements of the traced run.
const PROBES: usize = 2_000;

/// What a connection sends. Packed into 8 bytes: the log holds one per
/// request.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Read { die: u32, temp: i8 },
    Calibrate { die: u32 },
    Batch { die0: u32, temp: i8 },
    Health,
}

impl Op {
    fn request(self) -> Request {
        match self {
            Op::Read { die, temp } => Request::Read {
                die: u64::from(die),
                temp_c: f64::from(temp),
                priority: 1,
                deadline_ms: DEFAULT_DEADLINE_MS,
            },
            Op::Calibrate { die } => Request::Calibrate {
                die: u64::from(die),
                deadline_ms: DEFAULT_DEADLINE_MS,
            },
            Op::Batch { die0, temp } => Request::BatchRead {
                die0: u64::from(die0),
                count: BATCH,
                temp_c: f64::from(temp),
                priority: 1,
                deadline_ms: DEFAULT_DEADLINE_MS,
            },
            Op::Health => Request::Health,
        }
    }
}

/// One sent request: 20 bytes, so the log stays small beside the daemon in
/// `peak_rss_mb`. The served values do not stay in it: they are folded
/// into the die's [`Conn::served`] digest as they arrive.
#[derive(Debug, Clone, Copy)]
struct Sent {
    op: Op,
    phase: u8,
    /// Answered as asked: the right reply kind and die, stripe order,
    /// nominal quality, every batch item served.
    ok: bool,
    /// [`Timed::latency_us`] (NaN when unanswered).
    latency_us: f32,
    /// [`Timed::lateness_us`].
    lateness_us: f32,
}

/// One generator connection: its codec, its half of the dies, its op
/// stream, the log of everything it sent, and what the replies served.
struct Conn {
    client: Client,
    v2: bool,
    dies: (u32, u32),
    n_shards: u32,
    rng: Pcg64,
    buf: Vec<u8>,
    log: Vec<Sent>,
    /// Per die of this connection (index `die − dies.0`): a digest of the
    /// bit patterns of every reading served for it, in reply order — the
    /// order the connection sent, since each die belongs to one
    /// connection and the daemon answers a connection in order.
    served: Vec<Digest>,
    /// Readings served, and those outside ±[`TEMP_BAND_C`] of the request.
    readings: u64,
    band_misses: u64,
    /// The longest shard queue any `/health` reply showed.
    queue_peak: u64,
    /// The first single reads as sent and answered, for the codec timings
    /// of the traced run.
    samples: Vec<(Request, Response)>,
}

/// Single reads kept per connection for the codec timings.
const SAMPLES: usize = 512;

/// Folds one reading's bit patterns into a die's digest.
fn fold(d: &mut Digest, temp_c: f64, d_vtn_mv: f64, d_vtp_mv: f64, energy_pj: f64) {
    for x in [temp_c, d_vtn_mv, d_vtp_mv, energy_pj] {
        d.push(x);
    }
}

impl Conn {
    fn next_op(&mut self) -> Op {
        let (lo, hi) = self.dies;
        let span = (TEMP_RANGE.1 - TEMP_RANGE.0) as u8 + 1;
        let temp = TEMP_RANGE.0 + self.rng.gen_range(0..span) as i8;
        let u: f64 = self.rng.gen();
        if u < CALIBRATE_SHARE {
            Op::Calibrate {
                die: self.rng.gen_range(lo..hi),
            }
        } else if u < CALIBRATE_SHARE + BATCH_SHARE {
            // A stripe that stays inside this connection's dies.
            let span = (BATCH as u32 - 1) * self.n_shards;
            Op::Batch {
                die0: self.rng.gen_range(lo..hi - span),
                temp,
            }
        } else {
            Op::Read {
                die: self.rng.gen_range(lo..hi),
                temp,
            }
        }
    }

    fn send(&mut self, op: Op) -> std::io::Result<()> {
        let req = op.request();
        begin_frame(&mut self.buf);
        if self.v2 {
            wire::encode_request(&req, &mut self.buf);
        } else {
            self.buf.extend_from_slice(req.to_json().as_bytes());
        }
        finish_frame(&mut self.buf)?;
        self.client
            .send_raw(&self.buf)
            .map_err(|e| std::io::Error::other(format!("{e:?}")))
    }

    /// One closed-loop call outside any timed phase (warm-up, probes).
    fn call(&mut self, op: Op) -> Option<Response> {
        self.send(op).ok()?;
        self.client.read_response().ok()
    }

    /// One served reading of `die` at `temp`, in the shape of a batch item
    /// (a single read is passed as one): counted against the band and
    /// folded into the die's digest. True when nominal; a refused item is
    /// false.
    fn reading(&mut self, die: u64, temp: i8, item: &BatchItem) -> bool {
        let BatchItem::Reading {
            temp_c,
            d_vtn_mv,
            d_vtp_mv,
            energy_pj,
            quality,
            ..
        } = *item
        else {
            return false;
        };
        self.readings += 1;
        if (temp_c - f64::from(temp)).abs() > TEMP_BAND_C {
            self.band_misses += 1;
        }
        let d = &mut self.served[(die - u64::from(self.dies.0)) as usize];
        fold(d, temp_c, d_vtn_mv, d_vtp_mv, energy_pj);
        quality == Quality::Nominal
    }

    /// Checks the reply to `op` as it arrives and keeps what the replay
    /// needs. False when it does not answer `op` as asked.
    fn receive(&mut self, op: Op, response: Option<Response>) -> bool {
        let Some(response) = response else {
            return false;
        };
        match (op, response) {
            (
                Op::Read { die, temp },
                Response::Reading {
                    die: got,
                    temp_c,
                    d_vtn_mv,
                    d_vtp_mv,
                    energy_pj,
                    quality,
                },
            ) if got == u64::from(die) => {
                let item = BatchItem::Reading {
                    die: got,
                    temp_c,
                    d_vtn_mv,
                    d_vtp_mv,
                    energy_pj,
                    quality,
                };
                if self.samples.len() < SAMPLES {
                    let response = Response::Reading {
                        die: got,
                        temp_c,
                        d_vtn_mv,
                        d_vtp_mv,
                        energy_pj,
                        quality,
                    };
                    self.samples.push((op.request(), response));
                }
                self.reading(got, temp, &item)
            }
            (Op::Calibrate { die }, Response::Calibrated { die: got, quality }) => {
                got == u64::from(die) && quality == Quality::Nominal
            }
            (Op::Batch { die0, temp }, Response::Batch { items }) => {
                let n_shards = u64::from(self.n_shards);
                let stripe = || (0..BATCH).map(|k| u64::from(die0) + k * n_shards);
                let in_order = items.len() as u64 == BATCH
                    && items.iter().zip(stripe()).all(|(it, die)| match it {
                        BatchItem::Reading { die: got, .. }
                        | BatchItem::Rejected { die: got, .. } => *got == die,
                    });
                // Out of order, nothing is folded; in order, every item is.
                in_order
                    && items
                        .iter()
                        .zip(stripe())
                        .fold(true, |ok, (it, die)| self.reading(die, temp, it) && ok)
            }
            (Op::Health, Response::Health(h)) => {
                let peak = h.shards.iter().map(|sh| sh.queue_len).max().unwrap_or(0);
                self.queue_peak = self.queue_peak.max(peak);
                true
            }
            _ => false,
        }
    }
}

/// Sleeps until about `at`. Sleeping overshoots by the kernel's timer
/// slack, so the sleep aims that much early and the request may leave up
/// to [`EARLY`] before it is due (see [`Timed::latency_us`]). No spinning:
/// a spinning generator would take a core from the daemon's threads.
fn wait_until(at: Instant) {
    let now = Instant::now();
    if at > now + EARLY {
        std::thread::sleep(at - now - EARLY);
    }
}

/// How early [`wait_until`] aims: about the default 50 µs timer slack.
const EARLY: Duration = Duration::from_micros(60);

/// One phase of traffic on one connection.
#[derive(Debug, Clone, Copy)]
struct Load {
    /// Phase tag of the log entries.
    phase: u8,
    /// Offered requests per second on this connection.
    rate: f64,
    /// Requests to send.
    count: usize,
    /// Every `health_every`-th slot polls `/health` instead (0: never).
    health_every: usize,
}

/// Drives one connection through one phase: request `i` is due at
/// `t0 + due_us(i)`, offset by `phase_offset` of an interval.
fn drive(conn: &mut Conn, load: Load, phase_offset: f64, t0: Instant) {
    let Load {
        phase,
        rate,
        count,
        health_every,
    } = load;
    let mut pending: VecDeque<(usize, Timed)> = VecDeque::new();
    let mut sent = 0usize;
    let us = |t: Instant| t.duration_since(t0).as_secs_f64() * 1e6;
    loop {
        let due = stats::due_us(sent, rate, phase_offset);
        let now = Instant::now();
        if sent < count && us(now + EARLY) >= due {
            let op = if health_every > 0 && sent % health_every == health_every - 1 {
                Op::Health
            } else {
                conn.next_op()
            };
            let timed = Timed {
                due_us: due,
                sent_us: us(Instant::now()),
                done_us: f64::NAN,
            };
            let ok = conn.send(op).is_ok();
            conn.log.push(Sent {
                op,
                phase,
                ok: false,
                latency_us: f32::NAN,
                lateness_us: timed.lateness_us() as f32,
            });
            if ok {
                pending.push_back((conn.log.len() - 1, timed));
            }
            sent += 1;
            continue;
        }
        if let Some((i, mut timed)) = pending.pop_front() {
            let response = conn.client.read_response().ok();
            timed.done_us = us(Instant::now());
            let answered = response.is_some();
            let ok = conn.receive(conn.log[i].op, response);
            let entry = &mut conn.log[i];
            entry.ok = ok;
            if answered {
                entry.latency_us = timed.latency_us() as f32;
            } else {
                // The stream is out of step; every later reply is lost.
                pending.clear();
            }
            continue;
        }
        if sent >= count {
            break;
        }
        wait_until(t0 + Duration::from_secs_f64(due / 1e6));
    }
}

/// Runs one open-loop phase on both connections at once, `rate` split
/// evenly.
fn run_phase(conns: &mut [Conn], phase: u8, rate: f64, seconds: f64, health_every: usize) {
    let per_conn = rate / conns.len() as f64;
    let t0 = Instant::now() + Duration::from_millis(2);
    let load = Load {
        phase,
        rate: per_conn,
        count: (per_conn * seconds).ceil() as usize,
        health_every,
    };
    let n = conns.len() as f64;
    std::thread::scope(|s| {
        for (c, conn) in conns.iter_mut().enumerate() {
            s.spawn(move || drive(conn, load, c as f64 / n, t0));
        }
    });
}

/// A booted daemon with both generator connections, warmed up: every die
/// of the working set has been read once (calibrating it). The working set
/// divides into whole stripes: each connection's half is a multiple of
/// `BATCH × n_shards` dies.
struct Daemon {
    server: Server,
    conns: Vec<Conn>,
}

impl Daemon {
    fn boot(cfg: FleetConfig, seed: u64) -> std::io::Result<Daemon> {
        let server = Server::bind(Fleet::start(cfg), "127.0.0.1:0", ServerConfig::default())?;
        let addr = server.local_addr().to_string();
        let half = (cfg.n_dies / 2) as u32;
        let mut conns = Vec::with_capacity(2);
        for (c, v2) in [(0u32, true), (1, false)] {
            let client = if v2 {
                Client::connect_v2(&addr)
            } else {
                Client::connect(&addr)
            };
            let mut client = client.map_err(|e| std::io::Error::other(format!("{e:?}")))?;
            client
                .set_reply_timeout(Duration::from_millis(2 * DEFAULT_DEADLINE_MS))
                .map_err(|e| std::io::Error::other(format!("{e:?}")))?;
            conns.push(Conn {
                client,
                v2,
                dies: (c * half, (c + 1) * half),
                n_shards: cfg.n_shards as u32,
                rng: Pcg64::seed_from_u64(stats::mix(seed ^ 0x636f_6e6e ^ u64::from(c))),
                buf: Vec::new(),
                log: Vec::new(),
                served: vec![Digest::default(); half as usize],
                readings: 0,
                band_misses: 0,
                queue_peak: 0,
                samples: Vec::new(),
            });
        }
        // Warm every die (its calibration runs on first touch) with
        // `batch_read` stripes: each connection covers its own dies, shard
        // by shard, in stripes of [`BATCH`].
        let n_shards = cfg.n_shards as u32;
        for conn in &mut conns {
            let (lo, hi) = conn.dies;
            for die0 in lo..lo + n_shards {
                let mut first = die0;
                while first < hi {
                    let op = Op::Batch {
                        die0: first,
                        temp: 25,
                    };
                    let response = conn.call(op);
                    let ok = conn.receive(op, response);
                    conn.log.push(Sent {
                        op,
                        phase: WARMUP,
                        ok,
                        latency_us: 0.0,
                        lateness_us: 0.0,
                    });
                    first += BATCH as u32 * n_shards;
                }
            }
        }
        Ok(Daemon { server, conns })
    }

    fn shutdown(self) {
        drop(self.conns);
        self.server.stop();
        self.server.join();
    }
}

const WARMUP: u8 = 0;
const LIGHT: u8 = 1;
const HEAVY: u8 = 2;
const TRACED: u8 = 3;
const LADDER0: u8 = 10;

fn fleet_config(seed: u64) -> FleetConfig {
    FleetConfig {
        n_dies: DIES_PER_SHARD * nproc() as u64,
        n_shards: nproc() as u64,
        base_seed: stats::mix(seed ^ 0x666c_6565),
        ..FleetConfig::default()
    }
}

/// Latency and lateness summaries of one phase's single reads.
fn read_summary(conns: &[Conn], phase: u8) -> Option<(Summary, Summary)> {
    let reads = conns
        .iter()
        .flat_map(|c| &c.log)
        .filter(|s| s.phase == phase && matches!(s.op, Op::Read { .. }) && s.ok);
    let (mut lat, mut late): (Vec<f64>, Vec<f64>) = reads
        .map(|s| (f64::from(s.latency_us), f64::from(s.lateness_us)))
        .unzip();
    if lat.is_empty() {
        return None;
    }
    Some((stats::summarize(&mut lat), stats::summarize(&mut late)))
}

/// What [`verify`] found, plus the traced replay's layer sums.
struct Verdict {
    attempted: u64,
    failed: u64,
    /// Failed warm-up requests (outside `attempted`, and failing the run
    /// all the same).
    warmup_failed: u64,
    /// Dies whose served digest differs from the replay's.
    bad_dies: u64,
    readings: u64,
    stage: Option<replay::StageTimes>,
    staged: u64,
    calibrate_us: f64,
    calibrations: u64,
    points: Vec<OperatingPoint>,
}

/// Replays every die from its seed, in the order its connection sent to
/// it, through every request answered as asked, and compares the digest of
/// what the replay reads with the digest of what the daemon served: any
/// bit that differs fails the die, and every request that touched it. A
/// recalibration must also be nominal in the replay. (Reply kind, die,
/// stripe order, nominal quality and the band were checked as the replies
/// arrived: see [`Conn::receive`].) When `traced`, single reads replay
/// through the staged composition ([`replay::staged_read`]) and its stage
/// times are summed.
fn verify(conns: &[Conn], cfg: &FleetConfig, traced: bool) -> Verdict {
    let spec = SensorSpec::default_65nm();
    let tech = Technology::n65();
    let proto = PtSensor::new(tech.clone(), spec).expect("default 65nm sensor builds");
    let bands = design_bands(&tech, proto.bank(), &spec);
    let mut sampler = VariationModel::new(&tech).sampler();
    let mut v = Verdict {
        attempted: 0,
        failed: 0,
        warmup_failed: 0,
        bad_dies: 0,
        readings: 0,
        stage: traced.then(replay::StageTimes::default),
        staged: 0,
        calibrate_us: 0.0,
        calibrations: 0,
        points: Vec::new(),
    };
    let stripe = |die0: u32| (0..BATCH as u32).map(move |k| die0 + k * cfg.n_shards as u32);
    // Per die: the requests answered as asked that touched it, in order.
    let mut per_die: Vec<Vec<Op>> = vec![Vec::new(); cfg.n_dies as usize];
    for s in conns.iter().flat_map(|c| &c.log).filter(|s| s.ok) {
        match s.op {
            Op::Read { die, .. } | Op::Calibrate { die } => per_die[die as usize].push(s.op),
            Op::Batch { die0, .. } => {
                for die in stripe(die0) {
                    per_die[die as usize].push(s.op);
                }
            }
            Op::Health => {}
        }
    }
    let boot_temp = spec.calib_temp;
    let mut bad = vec![false; cfg.n_dies as usize];
    for (die, ops) in per_die.iter().enumerate() {
        let rebuild = |sampler: &mut ptsim_mc::model::DieSampler, v: &mut Verdict| {
            let mut rng = die_rng(cfg.base_seed, die as u64);
            let sample = sampler.sample_die_with_id(&mut rng, die as u64);
            let mut sensor = proto.clone();
            let t = Instant::now();
            let outcome = sensor.calibrate(
                &SensorInputs::new(&sample, DieSite::CENTER, boot_temp),
                &mut rng,
            );
            v.calibrate_us += t.elapsed().as_secs_f64() * 1e6;
            v.calibrations += 1;
            (sample, sensor, rng, outcome.map(|o| o.health.status()))
        };
        let mut expected = Digest::default();
        let mut slot = None;
        for &op in ops {
            if slot.is_none() || matches!(op, Op::Calibrate { .. }) {
                slot = Some(rebuild(&mut sampler, &mut v));
            }
            let (sample, sensor, rng, calib) = slot.as_mut().expect("slot rebuilt above");
            let temp = match op {
                Op::Read { temp, .. } | Op::Batch { temp, .. } => f64::from(temp),
                Op::Calibrate { .. } | Op::Health => {
                    bad[die] |= calib.as_ref() != Ok(&HealthStatus::Nominal);
                    continue;
                }
            };
            let inputs = SensorInputs::new(sample, DieSite::CENTER, Celsius(temp));
            let single = matches!(op, Op::Read { .. });
            if v.points.len() < 24 && single {
                v.points.push(OperatingPoint {
                    die: sample.clone(),
                    site: DieSite::CENTER,
                    temp,
                });
            }
            let reading = match v.stage.as_mut() {
                Some(acc) if single => {
                    v.staged += 1;
                    replay::staged_read(sensor, &bands, &inputs, rng).map(|(r, t)| {
                        acc.add(&t);
                        r
                    })
                }
                _ => sensor.read(&inputs, rng),
            };
            v.readings += 1;
            match reading {
                Ok(r) => fold(
                    &mut expected,
                    r.temperature.0,
                    r.d_vtn.millivolts(),
                    r.d_vtp.millivolts(),
                    r.energy.total().picojoules(),
                ),
                Err(_) => bad[die] = true,
            }
        }
        let conn = conns
            .iter()
            .find(|c| (c.dies.0..c.dies.1).contains(&(die as u32)))
            .expect("every die belongs to a connection");
        let served = conn.served[die - conn.dies.0 as usize];
        bad[die] |= served.value() != expected.value();
    }
    v.bad_dies = bad.iter().filter(|&&b| b).count() as u64;
    for s in conns.iter().flat_map(|c| &c.log) {
        let touched_bad = match s.op {
            Op::Read { die, .. } | Op::Calibrate { die } => bad[die as usize],
            Op::Batch { die0, .. } => stripe(die0).any(|die| bad[die as usize]),
            Op::Health => false,
        };
        let failed = u64::from(!s.ok || touched_bad);
        if s.phase == WARMUP {
            v.warmup_failed += failed;
        } else {
            v.attempted += 1;
            v.failed += failed;
        }
    }
    v
}

/// One ladder rung from the log of its phase, and its read count.
fn rung(conns: &[Conn], phase: u8, rate: f64) -> (Rung, usize) {
    let per_conn: Vec<Vec<&Sent>> = conns
        .iter()
        .map(|c| c.log.iter().filter(|s| s.phase == phase).collect())
        .collect();
    let sent = || per_conn.iter().flatten();
    let failed = sent().filter(|s| !s.ok).count() as u64;
    let mut lat: Vec<f64> = sent()
        .filter(|s| matches!(s.op, Op::Read { .. }) && s.ok)
        .map(|s| f64::from(s.latency_us))
        .collect();
    lat.sort_by(f64::total_cmp);
    // Send order: the connections take turns, request `i` of each due in
    // the same interval.
    let longest = per_conn.iter().map(Vec::len).max().unwrap_or(0);
    let late: Vec<f64> = (0..longest)
        .flat_map(|i| per_conn.iter().filter_map(move |c| c.get(i)))
        .map(|s| f64::from(s.lateness_us))
        .collect();
    let rung = Rung {
        rate,
        p99_us: stats::reportable(&lat, 0.99),
        backlog_growing: stats::backlog_growing(&late, P99_LIMIT_US),
        failed,
    };
    (rung, lat.len())
}

/// Runs the workload for `seconds`.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut o = Outcome::default();
    let cfg = fleet_config(seed);
    let rates = rates();
    // The daemon under load is the first boot: further boots for the
    // `setup_s` median run only after `peak_rss_mb` is read, since the
    // allocator keeps pages of a shut-down daemon and which ones varies
    // from run to run.
    let (booted, cpu_s, wall_s) = timed(|| Daemon::boot(cfg, seed));
    let (mut setup_cpu, mut setup_wall) = (vec![cpu_s], vec![wall_s]);
    let mut d = match booted {
        Ok(d) => d,
        Err(e) => {
            o.check("daemon_boots", false, e.to_string());
            return o;
        }
    };
    let health = |d: &mut Daemon| match d.conns[0].call(Op::Health) {
        Some(Response::Health(h)) => h,
        _ => ptsim_service::HealthWire {
            shards: Vec::new(),
            counters: Vec::new(),
            uptime_ms: 0,
            coalesce_max: 0,
            wire_version: 0,
        },
    };
    let counter = |h: &ptsim_service::HealthWire, name: &str| {
        h.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    };

    // Time split: light a quarter, heavy most of the rest, the ladder
    // three tenths; a traced run halves them all to make room for its own
    // phase and probes.
    let scale = if traced { 0.5 } else { 1.0 };
    let h0 = health(&mut d);
    run_phase(&mut d.conns, LIGHT, rates.light, 0.25 * seconds * scale, 0);
    // `heavy` runs as back-to-back slices; the median slice's CPU per
    // request is the figure, so a host stall inflates only the slices it
    // overlaps.
    let mut heavy_cpu_us = Vec::with_capacity(HEAVY_SLICES);
    for _ in 0..HEAVY_SLICES {
        let before: usize = d.conns.iter().map(|c| c.log.len()).sum();
        let slice_s = 0.45 * seconds * scale / HEAVY_SLICES as f64;
        let ((), cpu_s, _) = timed(|| run_phase(&mut d.conns, HEAVY, rates.heavy, slice_s, 0));
        let sent = d.conns.iter().map(|c| c.log.len()).sum::<usize>() - before;
        heavy_cpu_us.push(cpu_s * 1e6 / sent.max(1) as f64);
    }
    let heavy_cpu_us_per_request = stats::median(&heavy_cpu_us);
    // The peak so far: the daemon and the log of the light and heavy
    // phases, before the ladder and the replay add the benchmark's own
    // bookkeeping.
    let rss_mb = peak_rss_mb();
    let log_mb = d
        .conns
        .iter()
        .map(|c| c.log.len() * std::mem::size_of::<Sent>())
        .sum::<usize>() as f64
        / (1024.0 * 1024.0);
    let rung_s = 0.3 * seconds * scale / rates.ladder.len() as f64;
    let mut rungs = Vec::new();
    for (r, &rate) in rates.ladder.iter().enumerate() {
        let phase = LADDER0 + r as u8;
        // Enough requests that the p99 of the reads has ten beyond it.
        let secs = rung_s.max(1_200.0 / rate);
        run_phase(&mut d.conns, phase, rate, secs, 0);
        // Every rung runs, passing or not, so each run does the same work;
        // `max_rps` reads the passing prefix.
        rungs.push(rung(&d.conns, phase, rate));
    }
    let ladder: Vec<Rung> = rungs.iter().map(|(r, _)| *r).collect();
    let max_rps = stats::max_rps(&ladder, P99_LIMIT_US);
    let backlog_free_rps = stats::max_rps(&ladder, f64::INFINITY);
    let h1 = health(&mut d);

    if traced {
        run_phase(
            &mut d.conns,
            TRACED,
            rates.light,
            0.25 * seconds * scale,
            100,
        );
    }
    let verdict = verify(&d.conns, &cfg, traced);
    o.attempted = verdict.attempted;
    o.failed = verdict.failed;
    o.check(
        "readings_bit_identical_nominal_in_stripe_order",
        verdict.failed == 0 && verdict.warmup_failed == 0,
        format!(
            "{} of {} requests failed ({} warm-up), {} of {} dies differ from the seed replay of {} readings",
            verdict.failed,
            verdict.attempted,
            verdict.warmup_failed,
            verdict.bad_dies,
            cfg.n_dies,
            verdict.readings
        ),
    );
    let readings: u64 = d.conns.iter().map(|c| c.readings).sum();
    let band_misses: u64 = d.conns.iter().map(|c| c.band_misses).sum();
    let band_miss_ratio = band_misses as f64 / readings.max(1) as f64;
    o.check(
        "band_yield",
        1.0 - band_miss_ratio >= MIN_BAND_YIELD,
        format!(
            "{band_misses} of {readings} readings outside +-{TEMP_BAND_C} C of the request, yield >= {MIN_BAND_YIELD}"
        ),
    );

    let light = read_summary(&d.conns, LIGHT);
    let heavy = read_summary(&d.conns, HEAVY);
    let (Some((light_lat, light_late)), Some((heavy_lat, heavy_late))) = (light, heavy) else {
        o.check("phases_ran", false, "a phase served no reads");
        Daemon::shutdown(d);
        return o;
    };
    o.figures = vec![
        metric("light_rps", rates.light, "1/s"),
        metric("heavy_rps", rates.heavy, "1/s"),
        metric("read_p50_us", light_lat.p50, "us"),
        metric("read_p99_us", light_lat.p99.unwrap_or(f64::NAN), "us"),
        metric("read_samples_light", light_lat.n as f64, "count"),
        metric("lateness_p50_us_light", light_late.p50, "us"),
        metric(
            "lateness_p99_us_light",
            light_late.p99.unwrap_or(f64::NAN),
            "us",
        ),
        metric("read_p50_heavy_us", heavy_lat.p50, "us"),
        metric("read_p95_heavy_us", heavy_lat.p95.unwrap_or(f64::NAN), "us"),
        metric("read_p99_heavy_us", heavy_lat.p99.unwrap_or(f64::NAN), "us"),
        metric("read_samples_heavy", heavy_lat.n as f64, "count"),
        metric("lateness_p50_us_heavy", heavy_late.p50, "us"),
        metric(
            "lateness_p99_us_heavy",
            heavy_late.p99.unwrap_or(f64::NAN),
            "us",
        ),
        metric("max_rps", max_rps, "1/s"),
        metric("backlog_free_rps", backlog_free_rps, "1/s"),
        metric("request_log_mb", log_mb, "MB"),
        metric("cpu_us_per_request_heavy", heavy_cpu_us_per_request, "us"),
        metric("band_miss_ratio", band_miss_ratio, "ratio"),
    ];
    for (r, n) in &rungs {
        o.figures.push(metric("ladder_rung_rps", r.rate, "1/s"));
        o.figures.push(metric(
            "ladder_rung_p99_us",
            r.p99_us.unwrap_or(f64::NAN),
            "us",
        ));
        o.figures
            .push(metric("ladder_rung_read_samples", *n as f64, "count"));
        o.figures.push(metric(
            "ladder_rung_backlog_growing",
            f64::from(u8::from(r.backlog_growing)),
            "bool",
        ));
    }

    if traced {
        let coalesced =
            counter(&h1, "svc.coalesced_reads").saturating_sub(counter(&h0, "svc.coalesced_reads"));
        let served = counter(&h1, "svc.served").saturating_sub(counter(&h0, "svc.served"));
        let drops =
            counter(&h1, "svc.deadline_drops").saturating_sub(counter(&h0, "svc.deadline_drops"));
        // Only the traced phase polls `/health` in line.
        let queue_peak = d.conns.iter().map(|c| c.queue_peak).max().unwrap_or(0);
        traced_layers(
            &mut o,
            &mut d,
            &cfg,
            &verdict,
            coalesced as f64 / served.max(1) as f64,
            queue_peak,
            drops,
        );
    }
    Daemon::shutdown(d);
    for _ in 1..SETUPS {
        let (booted, cpu_s, wall_s) = timed(|| Daemon::boot(cfg, seed));
        setup_cpu.push(cpu_s);
        setup_wall.push(wall_s);
        if let Ok(d) = booted {
            d.shutdown();
        }
    }
    o.end_to_end = vec![
        metric("setup_s", stats::median(&setup_cpu), "s"),
        metric("peak_rss_mb", rss_mb, "MB"),
        metric("cpu_us_per_op", heavy_cpu_us_per_request, "us"),
    ];
    o.figures
        .push(metric("setup_wall_s", stats::median(&setup_wall), "s"));
    o
}

/// Mean ns per codec round trip (request encode+decode, response
/// encode+decode) over `pairs`.
fn codec_ns(pairs: &[(Request, Response)], v2: bool) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let reps = 20_000 / pairs.len() + 1;
    let mut buf = Vec::new();
    let started = Instant::now();
    for _ in 0..reps {
        for (req, rsp) in pairs {
            if v2 {
                buf.clear();
                wire::encode_request(req, &mut buf);
                let _ = std::hint::black_box(wire::decode_request(&buf));
                buf.clear();
                wire::encode_response(rsp, &mut buf);
                let _ = std::hint::black_box(wire::decode_response(&buf));
            } else {
                let _ = std::hint::black_box(Request::from_json_bytes(req.to_json().as_bytes()));
                let _ = std::hint::black_box(Response::from_json_bytes(rsp.to_json().as_bytes()));
            }
        }
    }
    started.elapsed().as_secs_f64() * 1e9 / (reps * pairs.len()) as f64
}

/// Mean µs of `Fleet::submit` per op kind on an in-process fleet (no
/// socket) over the same mix: reads, calibrations, batch stripes (per
/// item), pings.
fn submit_us(cfg: &FleetConfig, seed: u64) -> (f64, f64, f64, f64) {
    let fleet = Fleet::start(*cfg);
    let mut rng = Pcg64::seed_from_u64(stats::mix(seed ^ 0x7375_626d));
    let dies = cfg.n_dies as u32;
    for die in 0..dies {
        let _ = fleet.submit(Op::Read { die, temp: 25 }.request());
    }
    let time = |op: Op, n: usize, rng: &mut Pcg64| {
        let mut total = 0.0;
        for _ in 0..n {
            let op = match op {
                Op::Read { .. } => Op::Read {
                    die: rng.gen_range(0..dies),
                    temp: 25,
                },
                Op::Calibrate { .. } => Op::Calibrate {
                    die: rng.gen_range(0..dies),
                },
                Op::Batch { .. } => Op::Batch {
                    die0: rng.gen_range(0..dies - (BATCH as u32 - 1) * cfg.n_shards as u32),
                    temp: 25,
                },
                Op::Health => Op::Health,
            };
            let req = if op == Op::Health {
                Request::Ping { pad: 0 }
            } else {
                op.request()
            };
            let t = Instant::now();
            let _ = std::hint::black_box(fleet.submit(req));
            total += t.elapsed().as_secs_f64() * 1e6;
        }
        total / n as f64
    };
    let read = time(Op::Read { die: 0, temp: 0 }, PROBES, &mut rng);
    let calibrate = time(Op::Calibrate { die: 0 }, PROBES / 10, &mut rng);
    let batch = time(Op::Batch { die0: 0, temp: 0 }, PROBES / 10, &mut rng) / BATCH as f64;
    let ping = time(Op::Health, PROBES, &mut rng);
    fleet.shutdown();
    (read, calibrate, batch, ping)
}

fn traced_layers(
    o: &mut Outcome,
    d: &mut Daemon,
    cfg: &FleetConfig,
    verdict: &Verdict,
    coalesced_ratio: f64,
    queue_peak: u64,
    deadline_drops: u64,
) {
    let v2_ns = codec_ns(&d.conns[0].samples, true);
    let v1_ns = codec_ns(&d.conns[1].samples, false);
    let ping_pair = [(
        Request::Ping { pad: 0 },
        Response::Pong { pad: String::new() },
    )];
    let ping_codec_us = codec_ns(&ping_pair, true) / 1e3;
    let v2_call: Vec<f64> = d.conns[0]
        .log
        .iter()
        .filter(|s| s.phase == TRACED && matches!(s.op, Op::Read { .. }) && s.ok)
        // Reply minus send: the latency less any lateness of the send.
        .map(|s| f64::from(s.latency_us) - f64::from(s.lateness_us.max(0.0)))
        .collect();
    let call_us = v2_call.iter().sum::<f64>() / v2_call.len().max(1) as f64;
    let mut ping_total = 0.0;
    for _ in 0..PROBES {
        let t = Instant::now();
        let _ = d.conns[0].client.call(&Request::Ping { pad: 0 });
        ping_total += t.elapsed().as_secs_f64() * 1e6;
    }
    let ping_call_us = ping_total / PROBES as f64;
    let (submit, calibrate, batch_item, ping_submit) = submit_us(cfg, cfg.base_seed);
    let n = verdict.staged.max(1) as f64;
    let st = verdict.stage.unwrap_or_default();
    let convert = st.convert_us / n;
    let socket = call_us - v2_ns / 1e3 - submit;
    let ping_socket = ping_call_us - ping_codec_us - ping_submit;
    let (current_ns, ring_ns) = PtSensor::new(Technology::n65(), SensorSpec::default_65nm())
        .map_or((0.0, 0.0), |p| {
            replay::device_and_ring_ns(&p, &verdict.points)
        });
    o.layers = vec![
        metric(
            "core.calib.calibrate_us",
            verdict.calibrate_us / verdict.calibrations.max(1) as f64,
            "us",
        ),
        metric("core.pipeline.acquire_us", st.acquire_us / n, "us"),
        metric("core.pipeline.gate_us", st.gate_us / n, "us"),
        metric("core.pipeline.finalize_us", st.finalize_us / n, "us"),
        metric(
            "core.newton.iters_per_conv",
            st.iterations as f64 / n,
            "count",
        ),
        metric(
            "core.gate.retry_ratio",
            st.retries as f64 / (3.0 * n),
            "ratio",
        ),
        metric("core.pipeline.solve_scalar_us", st.solve_us / n, "us"),
        metric("core.pipeline.convert_us", convert, "us"),
        metric("device.current_ns", current_ns, "ns"),
        metric("circuit.ring_freq_ns", ring_ns, "ns"),
        metric("service.wire.v2_roundtrip_ns", v2_ns, "ns"),
        metric("service.json.v1_roundtrip_ns", v1_ns, "ns"),
        metric("service.server.socket_us", socket, "us"),
        metric("service.fleet.submit_us", submit, "us"),
        metric("service.shard.queue_wait_us", submit - convert, "us"),
        metric("service.calibrate_us", calibrate, "us"),
        metric("service.batch_item_us", batch_item, "us"),
        metric("svc.coalesced_read_ratio", coalesced_ratio, "ratio"),
        metric("svc.queue_peak", queue_peak as f64, "count"),
        metric("svc.deadline_drops", deadline_drops as f64, "count"),
        metric(
            "unattributed_share",
            stats::unattributed_share(call_us, &[v2_ns / 1e3, submit, ping_socket]),
            "ratio",
        ),
        // The served path is never instrumented (all fleet tracing runs
        // offline), so the cost of tracing is that of the staged scalar
        // composition over the `run_conversion` entry point, on the same
        // replayed reads.
        metric(
            "trace_overhead",
            stats::trace_overhead(st.convert_us, st.traced_us),
            "ratio",
        ),
    ];
    o.figures.push(metric("v2_call_us", call_us, "us"));
    o.figures.push(metric("ping_call_us", ping_call_us, "us"));
    o.figures.push(metric("ping_socket_us", ping_socket, "us"));
}
