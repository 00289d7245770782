//! Load generator for the fleet daemon — records the service latency/
//! throughput trajectory (`BENCH_SERVICE.json` via `scripts/bench_service.sh`).
//!
//! Boots the daemon in-process on an ephemeral loopback port, warms every
//! die (first touch pays calibration), then drives closed-loop request
//! streams and emits one JSON object per scenario:
//!
//! ```text
//! {"name":"service/read_seq","p50_us":…,"p99_us":…,"conversions_per_sec":…,"samples":…}
//! ```
//!
//! Knobs: `PTSIM_LOADGEN_REQUESTS` (per scenario, default 200),
//! `PTSIM_LOADGEN_CONNS` (concurrent connections, default 4),
//! `PTSIM_LOADGEN_DIES` (fleet size, default 16). A meta header line with
//! the git rev/date is emitted first, exactly like the other bench
//! binaries, so the trajectory files share one schema.
//!
//! Scenario codecs: `read_seq`, `batch_read`, and `health` drive the JSON
//! (v1) protocol; `read_seq_v2` and `read_concurrent` negotiate the v2
//! binary codec.

use ptsim_bench::knobs::knob;
use ptsim_mc::stats::quantile_in_place;
use ptsim_service::protocol::{BatchItem, Request, Response};
use ptsim_service::{Client, Fleet, FleetConfig, Server, ServerConfig};
use std::time::Instant;

fn read_req(die: u64) -> Request {
    Request::Read {
        die,
        temp_c: 60.0 + (die % 7) as f64,
        priority: 1,
        deadline_ms: 30_000,
    }
}

fn batch_req(die0: u64, count: u64) -> Request {
    Request::BatchRead {
        die0,
        count,
        temp_c: 60.0 + (die0 % 7) as f64,
        priority: 1,
        deadline_ms: 30_000,
    }
}

struct Scenario {
    name: String,
    latencies_us: Vec<f64>,
    served: usize,
    elapsed_s: f64,
}

impl Scenario {
    fn emit(mut self) {
        let samples = self.latencies_us.len();
        let p50 = quantile_in_place(&mut self.latencies_us, 0.5).unwrap_or(f64::NAN);
        let p99 = quantile_in_place(&mut self.latencies_us, 0.99).unwrap_or(f64::NAN);
        let rate = if self.elapsed_s > 0.0 {
            self.served as f64 / self.elapsed_s
        } else {
            0.0
        };
        println!(
            "{{\"name\":\"{}\",\"p50_us\":{:.1},\"p99_us\":{:.1},\"conversions_per_sec\":{:.1},\"samples\":{}}}",
            self.name, p50, p99, rate, samples
        );
    }
}

fn drive(addr: &str, name: &str, conns: usize, requests: usize, n_dies: u64, v2: bool) -> Scenario {
    let started = Instant::now();
    let per_conn = requests.div_ceil(conns);
    let handles: Vec<_> = (0..conns)
        .map(|c| {
            let addr = addr.to_string();
            std::thread::spawn(move || {
                let mut client = if v2 {
                    Client::connect_v2(&addr).expect("loadgen v2 connect")
                } else {
                    Client::connect(&addr).expect("loadgen connect")
                };
                // One untimed call absorbs connection setup (accept poll,
                // thread spawn, warm buffers): the scenario measures
                // steady-state service latency, not provisioning.
                let _ = client.call(&read_req((c as u64) % n_dies));
                let mut lat = Vec::with_capacity(per_conn);
                let mut served = 0usize;
                for i in 0..per_conn {
                    let die = ((c * per_conn + i) as u64) % n_dies;
                    let t0 = Instant::now();
                    let resp = client.call(&read_req(die));
                    let us = t0.elapsed().as_secs_f64() * 1e6;
                    if matches!(resp, Ok(Response::Reading { .. })) {
                        lat.push(us);
                        served += 1;
                    }
                }
                (lat, served)
            })
        })
        .collect();
    let mut latencies_us = Vec::new();
    let mut served = 0;
    for h in handles {
        let (lat, s) = h.join().expect("loadgen worker join");
        latencies_us.extend(lat);
        served += s;
    }
    Scenario {
        name: name.to_string(),
        latencies_us,
        served,
        elapsed_s: started.elapsed().as_secs_f64(),
    }
}

/// Closed-loop `batch_read` stream: each frame drains one whole shard
/// stripe through the lane kernel. `served` counts per-die items so
/// `conversions_per_sec` stays comparable with the single-read scenarios;
/// latencies are per frame.
fn drive_batch(addr: &str, name: &str, requests: usize, n_dies: u64, n_shards: u64) -> Scenario {
    let started = Instant::now();
    let mut client = Client::connect(addr).expect("loadgen batch connect");
    let mut latencies_us = Vec::with_capacity(requests);
    let mut served = 0usize;
    for i in 0..requests {
        let die0 = (i as u64) % n_shards.min(n_dies);
        let count = n_dies / n_shards + u64::from(n_dies % n_shards > die0);
        let t0 = Instant::now();
        let resp = client.call(&batch_req(die0, count));
        let us = t0.elapsed().as_secs_f64() * 1e6;
        if let Ok(Response::Batch { items }) = resp {
            let ok = items
                .iter()
                .filter(|item| matches!(item, BatchItem::Reading { .. }))
                .count();
            if ok > 0 {
                latencies_us.push(us);
                served += ok;
            }
        }
    }
    Scenario {
        name: name.to_string(),
        latencies_us,
        served,
        elapsed_s: started.elapsed().as_secs_f64(),
    }
}

fn main() {
    let requests = knob::<usize>("PTSIM_LOADGEN_REQUESTS").unwrap_or(200);
    let conns = knob::<usize>("PTSIM_LOADGEN_CONNS").unwrap_or(4).max(1);
    let n_dies = knob("PTSIM_LOADGEN_DIES").unwrap_or(16u64).max(1);
    let fleet = Fleet::start(FleetConfig {
        n_dies,
        n_shards: 4,
        queue_depth: 256,
        base_seed: 0x10ad,
        ..FleetConfig::default()
    });
    let server =
        Server::bind(fleet, "127.0.0.1:0", ServerConfig::default()).expect("bind loadgen daemon");
    let addr = server.local_addr().to_string();

    // Warm every die: first touch pays boot-time calibration, which is a
    // provisioning cost, not steady-state service latency.
    {
        let mut warm = Client::connect(&addr).expect("warmup connect");
        for die in 0..n_dies {
            let r = warm.call(&read_req(die)).expect("warmup call");
            assert!(
                matches!(r, Response::Reading { .. }),
                "warmup read failed: {r:?}"
            );
        }
    }

    ptsim_bench::harness::emit_meta();
    drive(&addr, "service/read_seq", 1, requests, n_dies, false).emit();
    drive(&addr, "service/read_seq_v2", 1, requests, n_dies, true).emit();
    drive(
        &addr,
        "service/read_concurrent",
        conns,
        requests,
        n_dies,
        true,
    )
    .emit();
    drive_batch(&addr, "service/batch_read", requests, n_dies, 4).emit();

    // Health is the operator's availability probe: it must stay cheap.
    {
        let mut client = Client::connect(&addr).expect("health connect");
        // Untimed warm-up: connection setup is not probe latency.
        let _ = client.call(&Request::Health);
        let started = Instant::now();
        let mut lat = Vec::with_capacity(64);
        let mut served = 0;
        for _ in 0..64 {
            let t0 = Instant::now();
            if matches!(client.call(&Request::Health), Ok(Response::Health(_))) {
                lat.push(t0.elapsed().as_secs_f64() * 1e6);
                served += 1;
            }
        }
        Scenario {
            name: "service/health".to_string(),
            latencies_us: lat,
            served,
            elapsed_s: started.elapsed().as_secs_f64(),
        }
        .emit();
    }

    server.stop();
    server.join();
}
