//! End-to-end tests of the daemon over real TCP sockets: supervised
//! restart, admission control, deadlines, degraded-mode serving, and the
//! connection-hardening paths (malformed frames, oversize prefixes, slow
//! clients, idle reaping).

use ptsim_core::{HealthStatus, PtSensor, SensorInputs, SensorSpec};
use ptsim_device::process::Technology;
use ptsim_device::units::Celsius;
use ptsim_mc::die::DieSite;
use ptsim_mc::driver::die_rng;
use ptsim_mc::model::VariationModel;
use ptsim_service::protocol::{
    begin_frame, finish_frame, BatchItem, InjectKind, Quality, Rejection, Request, Response,
};
use ptsim_service::server::BAD_FRAME_STRIKES;
use ptsim_service::{Client, ClientError, Fleet, FleetConfig, ProtoError, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

fn test_fleet_cfg() -> FleetConfig {
    FleetConfig {
        n_dies: 8,
        n_shards: 2,
        queue_depth: 8,
        base_seed: 0xd1e5,
        max_restarts: 3,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(40),
    }
}

fn start_server(server_cfg: ServerConfig) -> (Server, String) {
    let fleet = Fleet::start(test_fleet_cfg());
    let server = Server::bind(fleet, "127.0.0.1:0", server_cfg).expect("bind ephemeral");
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn read(die: u64) -> Request {
    Request::Read {
        die,
        temp_c: 75.0,
        priority: 1,
        deadline_ms: 5_000,
    }
}

#[test]
fn end_to_end_read_calibrate_health_shutdown() {
    let (server, addr) = start_server(ServerConfig::default());
    let mut client = Client::connect(&addr).unwrap();

    let r = client.call(&read(2)).unwrap();
    let Response::Reading {
        die,
        temp_c,
        quality,
        energy_pj,
        ..
    } = r
    else {
        panic!("expected reading, got {r:?}");
    };
    assert_eq!(die, 2);
    assert_eq!(quality, Quality::Nominal);
    assert!((temp_c - 75.0).abs() < 2.0);
    assert!(energy_pj > 0.0);

    let c = client
        .call(&Request::Calibrate {
            die: 2,
            deadline_ms: 5_000,
        })
        .unwrap();
    assert!(
        matches!(c, Response::Calibrated { die: 2, .. }),
        "got {c:?}"
    );

    let h = client.call(&Request::Health).unwrap();
    let Response::Health(health) = h else {
        panic!("expected health, got {h:?}");
    };
    assert_eq!(health.shards.len(), 2);
    assert!(health.shards.iter().all(|s| s.state == "up"));
    let served = health
        .counters
        .iter()
        .find(|(k, _)| k == "svc.served")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    assert!(
        served >= 2,
        "health must report merged counters, got {served}"
    );

    let bye = client.call(&Request::Shutdown).unwrap();
    assert_eq!(bye, Response::ShuttingDown);
    server.join();
}

#[test]
fn malformed_frames_get_typed_rejections_and_connection_survives() {
    let (server, addr) = start_server(ServerConfig::default());
    let mut client = Client::connect(&addr).unwrap();

    for garbage in [
        &b"not json at all"[..],
        br#"{"op":"warp"}"#,
        br#"{"op":"read"}"#,
        br#"{"op":"read","die":1,"temp_c":9999}"#,
        br#"{"op":"read","die":1,"temp_c":25,"priority":200}"#,
        br#"[1,2,3]"#,
        b"\x00\xff\xfe",
    ] {
        client.send_raw(&frame(garbage)).unwrap();
        let resp = client.read_response().unwrap();
        assert!(
            matches!(
                resp,
                Response::Rejected {
                    rejection: Rejection::BadRequest,
                    ..
                }
            ),
            "payload {garbage:?} gave {resp:?}"
        );
    }

    // Same connection still serves good requests after the storm.
    let r = client.call(&read(1)).unwrap();
    assert!(matches!(r, Response::Reading { die: 1, .. }), "got {r:?}");

    server.stop();
    server.join();
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    begin_frame(&mut buf);
    buf.extend_from_slice(payload);
    finish_frame(&mut buf).unwrap();
    buf
}

#[test]
fn connect_v2_to_a_pre_v2_daemon_is_a_typed_protocol_error() {
    // A pre-v2 daemon reads the hello as a JSON length prefix, refuses it
    // as oversize, and answers with a JSON frame instead of the magic.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let old_daemon = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut hello = [0u8; 5];
        stream.read_exact(&mut hello).unwrap();
        let refusal = Response::rejected(Rejection::BadRequest, "frame exceeds the bound");
        stream
            .write_all(&frame(refusal.to_json().as_bytes()))
            .unwrap();
    });
    let err = Client::connect_v2(&addr).unwrap_err();
    assert!(
        matches!(err, ClientError::Proto(ProtoError::BadField("hello"))),
        "got {err:?}"
    );
    old_daemon.join().unwrap();
}

#[test]
fn oversize_prefix_is_answered_then_closed() {
    let (server, addr) = start_server(ServerConfig::default());
    let mut client = Client::connect(&addr).unwrap();
    // A 16 MiB length prefix: answered with bad_request, then the
    // (desynchronized) connection is closed.
    client.send_raw(&(16u32 << 20).to_be_bytes()).unwrap();
    let resp = client.read_response().unwrap();
    assert!(
        matches!(
            resp,
            Response::Rejected {
                rejection: Rejection::BadRequest,
                ..
            }
        ),
        "got {resp:?}"
    );
    assert!(client.read_response().is_err(), "connection must be closed");

    // The daemon itself is fine.
    let mut fresh = Client::connect(&addr).unwrap();
    assert!(matches!(
        fresh.call(&read(0)).unwrap(),
        Response::Reading { .. }
    ));
    server.stop();
    server.join();
}

#[test]
fn bad_frame_strike_budget_closes_the_connection() {
    let (server, addr) = start_server(ServerConfig::default());
    let mut client = Client::connect(&addr).unwrap();
    let mut rejections = 0;
    for _ in 0..2 * BAD_FRAME_STRIKES {
        if client.send_raw(&frame(b"garbage")).is_err() {
            break;
        }
        match client.read_response() {
            Ok(Response::Rejected { .. }) => rejections += 1,
            _ => break,
        }
    }
    assert!(
        (BAD_FRAME_STRIKES..2 * BAD_FRAME_STRIKES).contains(&rejections),
        "strike budget of {BAD_FRAME_STRIKES} should close after ~{BAD_FRAME_STRIKES} \
         rejections, got {rejections}"
    );
    server.stop();
    server.join();
}

#[test]
fn idle_connections_are_reaped() {
    let (server, addr) = start_server(ServerConfig {
        idle_timeout: Duration::from_millis(150),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();
    // Prove liveness first, then go quiet past the idle budget.
    assert!(matches!(
        client.call(&read(0)).unwrap(),
        Response::Reading { .. }
    ));
    std::thread::sleep(Duration::from_millis(400));
    client
        .send_raw(&frame(&read(0).to_json().into_bytes()))
        .ok();
    assert!(
        client.read_response().is_err(),
        "idle connection must have been reaped"
    );
    server.stop();
    server.join();
}

#[test]
fn slow_client_is_dropped_not_wedged() {
    let (server, addr) = start_server(ServerConfig {
        write_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    });
    // Flood ping responses without ever reading them; once the socket
    // buffers fill, the server's write times out and it drops us.
    let mut stream = TcpStream::connect(&addr).unwrap();
    let ping = frame(&Request::Ping { pad: 32 * 1024 }.to_json().into_bytes());
    let started = Instant::now();
    let mut write_failed = false;
    // Keep feeding requests without reading replies. Once the reply path
    // blocks past the write timeout, the server closes the connection and
    // our writes start failing (RST).
    while started.elapsed() < Duration::from_secs(20) {
        if stream.write_all(&ping).is_err() {
            write_failed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        write_failed,
        "server must drop a client that stops reading its replies"
    );
    drop(stream);

    // The daemon still serves other clients promptly.
    let mut fresh = Client::connect(&addr).unwrap();
    assert!(matches!(
        fresh.call(&read(3)).unwrap(),
        Response::Reading { .. }
    ));
    server.stop();
    server.join();
}

fn batch(die0: u64, count: u64) -> Request {
    Request::BatchRead {
        die0,
        count,
        temp_c: 75.0,
        priority: 1,
        deadline_ms: 30_000,
    }
}

#[test]
fn batch_read_matches_individual_reads_bit_for_bit() {
    // Fleet A serves one batch over die 1's stripe (dies 1,3,5,7 on the
    // 2-shard fleet); an identically-seeded fleet B serves the same dies
    // through plain reads. The lane-grouped drain must be invisible: same
    // per-die values to the last bit, because each die's deterministic
    // stream sees exactly the draws the scalar read path makes.
    let fleet_a = Fleet::start(test_fleet_cfg());
    let resp = fleet_a.submit(batch(1, 4));
    fleet_a.shutdown();
    let Response::Batch { items } = resp else {
        panic!("expected batch, got {resp:?}");
    };
    assert_eq!(items.len(), 4);

    let fleet_b = Fleet::start(test_fleet_cfg());
    for (k, item) in items.iter().enumerate() {
        let expected_die = 1 + 2 * k as u64;
        let single = fleet_b.submit(read(expected_die));
        let Response::Reading {
            die,
            temp_c,
            d_vtn_mv,
            d_vtp_mv,
            energy_pj,
            quality,
        } = single
        else {
            panic!("expected reading, got {single:?}");
        };
        assert_eq!(die, expected_die);
        assert_eq!(
            *item,
            BatchItem::Reading {
                die,
                temp_c,
                d_vtn_mv,
                d_vtp_mv,
                energy_pj,
                quality
            },
            "batch item {k} must be bit-identical to the plain read"
        );
    }
    fleet_b.shutdown();
}

#[test]
fn served_reads_equal_an_independent_seed_replay() {
    // Four concurrent clients (two JSON, two v2) read disjoint die sets
    // that span every shard, at varying temperatures, so the shard queues
    // interleave their requests. A die must read the same values whichever
    // interleaving serves it: the values the die's own deterministic
    // stream yields when replayed locally, in the same order.
    let cfg = FleetConfig {
        n_dies: 16,
        n_shards: 4,
        queue_depth: 16,
        ..test_fleet_cfg()
    };
    let fleet = Fleet::start(cfg);
    let server = Server::bind(fleet, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let clients: Vec<_> = (0..4u64)
        .map(|c| {
            let addr = addr.clone();
            thread::spawn(move || {
                let mut client = if c % 2 == 0 {
                    Client::connect(&addr).unwrap()
                } else {
                    Client::connect_v2(&addr).unwrap()
                };
                let mut served = Vec::new();
                for round in 0..6 {
                    for die in 4 * c..4 * c + 4 {
                        let temp_c = -20.0 + 17.5 * ((round * 3 + die) % 8) as f64;
                        let req = Request::Read {
                            die,
                            temp_c,
                            priority: 1,
                            deadline_ms: 30_000,
                        };
                        served.push((die, temp_c, client.call(&req).unwrap()));
                    }
                }
                served
            })
        })
        .collect();
    let served: Vec<_> = clients
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    server.stop();
    server.join();

    for die in 0..cfg.n_dies {
        let reads: Vec<_> = served.iter().filter(|(d, _, _)| *d == die).collect();
        let temps: Vec<f64> = reads.iter().map(|(_, t, _)| *t).collect();
        let expected = seed_replay(&cfg, die, &temps);
        for (k, ((_, _, response), expected)) in reads.iter().zip(expected).enumerate() {
            assert_eq!(
                reading_bits(die, response),
                expected,
                "die {die} read {k} differs from its seed replay"
            );
        }
    }
}

/// The bits and quality of each reading die `die` yields when its own
/// deterministic stream is replayed locally, one read per temperature.
fn seed_replay(cfg: &FleetConfig, die: u64, temps: &[f64]) -> Vec<([u64; 4], Quality)> {
    let spec = SensorSpec::default_65nm();
    let mut sensor = PtSensor::new(Technology::n65(), spec).unwrap();
    let mut sampler = VariationModel::new(&Technology::n65()).sampler();
    let mut rng = die_rng(cfg.base_seed, die);
    let sample = sampler.sample_die_with_id(&mut rng, die);
    sensor
        .calibrate(
            &SensorInputs::new(&sample, DieSite::CENTER, spec.calib_temp),
            &mut rng,
        )
        .unwrap();
    temps
        .iter()
        .map(|&temp_c| {
            let inputs = SensorInputs::new(&sample, DieSite::CENTER, Celsius(temp_c));
            let r = sensor.read(&inputs, &mut rng).unwrap();
            let quality = match r.health.status() {
                HealthStatus::Nominal => Quality::Nominal,
                HealthStatus::Recovered => Quality::Recovered,
                HealthStatus::Degraded => Quality::Degraded,
            };
            let values = [
                r.temperature.0,
                r.d_vtn.millivolts(),
                r.d_vtp.millivolts(),
                r.energy.total().picojoules(),
            ];
            (values.map(f64::to_bits), quality)
        })
        .collect()
}

/// The bits and quality of a served reading of `die`.
fn reading_bits(die: u64, response: &Response) -> ([u64; 4], Quality) {
    let Response::Reading {
        die: d,
        temp_c,
        d_vtn_mv,
        d_vtp_mv,
        energy_pj,
        quality,
    } = *response
    else {
        panic!("die {die}: expected a reading, got {response:?}");
    };
    assert_eq!(d, die);
    (
        [temp_c, d_vtn_mv, d_vtp_mv, energy_pj].map(f64::to_bits),
        quality,
    )
}

fn counter(fleet: &Fleet, name: &str) -> u64 {
    let h = fleet.health();
    h.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |&(_, v)| v)
}

/// Polls `fleet` until counter `name` reaches `at_least`.
fn await_counter(fleet: &Fleet, name: &str, at_least: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while counter(fleet, name) < at_least {
        assert!(Instant::now() < deadline, "{name} never reached {at_least}");
        thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn a_read_behind_a_waiting_read_keeps_admission_order() {
    // Read A of die 2 waits, since a stall holds its shard back. Read B of
    // the same die, submitted once A is admitted, must wait behind A
    // rather than be served ahead of it: both equal the die's seed replay
    // in the order A, B.
    let cfg = test_fleet_cfg();
    let fleet = std::sync::Arc::new(Fleet::start(cfg));
    let die = 2;
    let _ = fleet.submit(Request::Inject {
        die,
        kind: InjectKind::StallMs(300),
    });
    let inline_before = counter(&fleet, "svc.served_inline");
    let admitted_before = counter(&fleet, "svc.requests");
    let submit = |temp_c: f64| {
        let fleet = std::sync::Arc::clone(&fleet);
        thread::spawn(move || {
            fleet.submit(Request::Read {
                die,
                temp_c,
                priority: 1,
                deadline_ms: 10_000,
            })
        })
    };
    let a = submit(40.0);
    await_counter(&fleet, "svc.requests", admitted_before + 1);
    let b = submit(90.0);
    let (a, b) = (a.join().unwrap(), b.join().unwrap());
    assert_eq!(
        counter(&fleet, "svc.served_inline"),
        inline_before,
        "both reads must have waited"
    );
    let expected = seed_replay(&cfg, die, &[40.0, 90.0]);
    assert_eq!(reading_bits(die, &a), expected[0], "read A");
    assert_eq!(reading_bits(die, &b), expected[1], "read B");
    std::sync::Arc::try_unwrap(fleet)
        .expect("submitters joined")
        .shutdown();
}

#[test]
fn chaos_trips_on_the_submitting_thread_answer_typed_and_recover() {
    let fleet = std::sync::Arc::new(Fleet::start(test_fleet_cfg()));
    // Dies 1 and 3 share shard 1; warm die 1 so its context is built.
    assert!(matches!(fleet.submit(read(1)), Response::Reading { .. }));
    let submit_on_thread = |die: u64, deadline_ms: u64| {
        let fleet = std::sync::Arc::clone(&fleet);
        thread::spawn(move || {
            fleet.submit(Request::Read {
                die,
                temp_c: 75.0,
                priority: 1,
                deadline_ms,
            })
        })
        .join()
        .expect("the submitting thread survives")
    };

    // The request that trips an escaped panic is answered at once, typed,
    // and the shard starts its restart.
    let _ = fleet.submit(Request::Inject {
        die: 1,
        kind: InjectKind::PanicWorker,
    });
    let tripped = submit_on_thread(1, 300);
    assert!(
        matches!(
            tripped,
            Response::Rejected {
                rejection: Rejection::WorkerPanicked,
                ..
            }
        ),
        "got {tripped:?}"
    );
    assert_eq!(counter(&fleet, "svc.worker_panics"), 1);

    // A stall holds the shard back past a short deadline.
    let _ = fleet.submit(Request::Inject {
        die: 3,
        kind: InjectKind::StallMs(500),
    });
    let inline_before = counter(&fleet, "svc.served_inline");
    let stalled = submit_on_thread(3, 100);
    assert!(
        matches!(
            stalled,
            Response::Rejected {
                rejection: Rejection::Timeout,
                ..
            }
        ),
        "got {stalled:?}"
    );
    assert_eq!(counter(&fleet, "svc.served_inline"), inline_before);

    // Once the stall has run out, the restarted shard serves at once again.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !matches!(fleet.submit(read(3)), Response::Reading { .. }) {
        assert!(Instant::now() < deadline, "shard 1 never recovered");
        thread::sleep(Duration::from_millis(20));
    }
    let inline_before = counter(&fleet, "svc.served_inline");
    assert!(matches!(fleet.submit(read(3)), Response::Reading { .. }));
    assert_eq!(counter(&fleet, "svc.served_inline"), inline_before + 1);
    std::sync::Arc::try_unwrap(fleet)
        .expect("submitters joined")
        .shutdown();
}

#[test]
fn batch_read_serves_over_tcp_with_per_item_quality() {
    let (server, addr) = start_server(ServerConfig::default());
    let mut client = Client::connect(&addr).unwrap();
    // Degrade one die of the stripe; the batch must keep serving every
    // die, flagging only the degraded one.
    let _ = client
        .call(&Request::Inject {
            die: 3,
            kind: InjectKind::DegradeDie,
        })
        .unwrap();
    let r = client.call(&batch(1, 4)).unwrap();
    let Response::Batch { items } = r else {
        panic!("expected batch, got {r:?}");
    };
    assert_eq!(items.len(), 4);
    for item in &items {
        let BatchItem::Reading {
            die,
            temp_c,
            quality,
            ..
        } = item
        else {
            panic!("every stripe die must serve, got {item:?}");
        };
        let expected = if *die == 3 {
            Quality::Degraded
        } else {
            Quality::Nominal
        };
        assert_eq!(*quality, expected, "die {die}");
        assert!((temp_c - 75.0).abs() < 5.0, "die {die} temp off: {temp_c}");
    }

    // A stripe that runs off the 8-die fleet is a typed bad_request.
    let bad = client.call(&batch(1, 5)).unwrap();
    assert!(
        matches!(
            bad,
            Response::Rejected {
                rejection: Rejection::BadRequest,
                ..
            }
        ),
        "got {bad:?}"
    );
    server.stop();
    server.join();
}

#[test]
fn batch_read_panic_is_isolated_and_stripe_rebuilds() {
    let fleet = Fleet::start(test_fleet_cfg());
    let before = fleet.submit(batch(0, 4));
    let Response::Batch { items: first } = before else {
        panic!("expected batch, got {before:?}");
    };

    let _ = fleet.submit(Request::Inject {
        die: 0,
        kind: InjectKind::PanicConversion,
    });
    let tripped = fleet.submit(batch(0, 4));
    assert!(
        matches!(
            tripped,
            Response::Rejected {
                rejection: Rejection::WorkerPanicked,
                ..
            }
        ),
        "got {tripped:?}"
    );

    // The stripe rebuilds from the deterministic seeds: the next batch is
    // a first touch again and must reproduce the first batch exactly.
    let rebuilt = fleet.submit(batch(0, 4));
    let Response::Batch { items: again } = rebuilt else {
        panic!("expected batch, got {rebuilt:?}");
    };
    assert_eq!(again, first, "rebuilt stripe must serve identical values");
    fleet.shutdown();
}

#[test]
fn conversion_panic_is_isolated_and_typed() {
    let fleet = Fleet::start(test_fleet_cfg());
    assert!(matches!(
        fleet.submit(Request::Inject {
            die: 4,
            kind: InjectKind::PanicConversion
        }),
        Response::Injected { .. }
    ));
    let r = fleet.submit(read(4));
    assert!(
        matches!(
            r,
            Response::Rejected {
                rejection: Rejection::WorkerPanicked,
                ..
            }
        ),
        "got {r:?}"
    );
    // The die recovers on the next read (slot rebuilt), and its sibling
    // dies on the same shard were never disturbed.
    assert!(matches!(fleet.submit(read(4)), Response::Reading { .. }));
    assert!(matches!(fleet.submit(read(6)), Response::Reading { .. }));
    fleet.shutdown();
}

#[test]
fn escaped_panic_restarts_the_shard_with_backoff() {
    let fleet = Fleet::start(test_fleet_cfg());
    let before = fleet.submit(read(1));
    let Response::Reading { temp_c, .. } = before else {
        panic!("expected reading, got {before:?}");
    };

    assert!(matches!(
        fleet.submit(Request::Inject {
            die: 1,
            kind: InjectKind::PanicWorker
        }),
        Response::Injected { .. }
    ));
    // The request that trips the escaped panic is answered typed, at once,
    // by the boundary that caught it.
    let started = Instant::now();
    let tripped = fleet.submit(Request::Read {
        die: 1,
        temp_c: 75.0,
        priority: 1,
        deadline_ms: 300,
    });
    assert!(
        matches!(
            tripped,
            Response::Rejected {
                rejection: Rejection::WorkerPanicked,
                ..
            }
        ),
        "got {tripped:?}"
    );
    assert!(
        started.elapsed() < Duration::from_millis(300),
        "the trip must not cost the deadline"
    );

    // After the backoff the shard serves again, and the rebuilt die serves
    // bit-identical values.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match fleet.submit(read(1)) {
            Response::Reading { temp_c: t, .. } => {
                assert_eq!(
                    t, temp_c,
                    "a restarted shard must rebuild identical die state"
                );
                break;
            }
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            other => panic!("shard never recovered: {other:?}"),
        }
    }
    let health = fleet.health();
    let restarts: u64 = health.shards.iter().map(|s| s.restarts).sum();
    assert!(restarts >= 1, "health must record the restart");
    fleet.shutdown();
}

#[test]
fn exhausted_restart_budget_kills_shard_but_not_fleet() {
    let fleet = Fleet::start(FleetConfig {
        max_restarts: 2,
        ..test_fleet_cfg()
    });
    // Dies 1,3,5,7 live on shard 1; crash it past the budget.
    for _ in 0..=2 {
        let _ = fleet.submit(Request::Inject {
            die: 1,
            kind: InjectKind::PanicWorker,
        });
        let _ = fleet.submit(Request::Read {
            die: 1,
            temp_c: 75.0,
            priority: 1,
            deadline_ms: 250,
        });
        std::thread::sleep(Duration::from_millis(120));
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let r = fleet.submit(Request::Read {
            die: 1,
            temp_c: 75.0,
            priority: 1,
            deadline_ms: 250,
        });
        match r {
            Response::Rejected {
                rejection: Rejection::ShardDown,
                ..
            } => break,
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            other => panic!("shard never went dead: {other:?}"),
        }
    }
    // Shard 0 (even dies) is untouched.
    assert!(matches!(fleet.submit(read(2)), Response::Reading { .. }));
    let health = fleet.health();
    assert!(health.shards.iter().any(|s| s.state == "dead"));
    assert!(health.shards.iter().any(|s| s.state == "up"));
    fleet.shutdown();
}

#[test]
fn stalled_shard_costs_the_deadline_not_a_hang() {
    let fleet = Fleet::start(test_fleet_cfg());
    let _ = fleet.submit(Request::Inject {
        die: 0,
        kind: InjectKind::StallMs(800),
    });
    let started = Instant::now();
    let r = fleet.submit(Request::Read {
        die: 0,
        temp_c: 75.0,
        priority: 1,
        deadline_ms: 100,
    });
    let waited = started.elapsed();
    assert!(
        matches!(
            r,
            Response::Rejected {
                rejection: Rejection::Timeout,
                ..
            }
        ),
        "got {r:?}"
    );
    assert!(
        waited < Duration::from_millis(600),
        "caller must be released at its own deadline, waited {waited:?}"
    );
    fleet.shutdown();
}

#[test]
fn overload_sheds_lowest_priority_reads_first() {
    // One shard, depth 4, and a stall long enough to hold the queue still
    // while we probe admission control.
    let fleet = Fleet::start(FleetConfig {
        n_dies: 4,
        n_shards: 1,
        queue_depth: 4,
        ..test_fleet_cfg()
    });
    let _ = fleet.submit(Request::Inject {
        die: 0,
        kind: InjectKind::StallMs(1_500),
    });

    let fleet = std::sync::Arc::new(fleet);
    let submit_async = |die: u64, priority: u8| {
        let fleet = std::sync::Arc::clone(&fleet);
        std::thread::spawn(move || {
            fleet.submit(Request::Read {
                die,
                temp_c: 75.0,
                priority,
                deadline_ms: 8_000,
            })
        })
    };

    // The occupier waits at the head of the queue; then fill the queue
    // with low-priority reads.
    let occupier = submit_async(0, 3);
    std::thread::sleep(Duration::from_millis(100));
    let low: Vec<_> = (0..4).map(|i| submit_async(i % 4, 0)).collect();
    std::thread::sleep(Duration::from_millis(100));

    // A high-priority read arrives at the full queue: one low-priority
    // read must be shed (typed overloaded) to admit it.
    let high = submit_async(1, 3);
    let high_resp = high.join().unwrap();
    assert!(
        matches!(high_resp, Response::Reading { .. }),
        "high priority must be admitted and served, got {high_resp:?}"
    );
    let low_resps: Vec<_> = low.into_iter().map(|h| h.join().unwrap()).collect();
    let shed = low_resps
        .iter()
        .filter(|r| {
            matches!(
                r,
                Response::Rejected {
                    rejection: Rejection::Overloaded,
                    ..
                }
            )
        })
        .count();
    assert!(
        shed >= 1,
        "one low-priority read must be shed, got {low_resps:?}"
    );
    // Everything was answered one way or the other — nothing dropped.
    assert_eq!(low_resps.len(), 4);
    assert!(matches!(occupier.join().unwrap(), Response::Reading { .. }));

    std::sync::Arc::try_unwrap(fleet)
        .expect("all submitters joined")
        .shutdown();
}

#[test]
fn degraded_die_serves_temperature_with_quality_flag_over_tcp() {
    let (server, addr) = start_server(ServerConfig::default());
    let mut client = Client::connect(&addr).unwrap();
    let _ = client
        .call(&Request::Inject {
            die: 7,
            kind: InjectKind::DegradeDie,
        })
        .unwrap();
    let r = client.call(&read(7)).unwrap();
    let Response::Reading {
        quality, temp_c, ..
    } = r
    else {
        panic!("degraded die must keep serving, got {r:?}");
    };
    assert_eq!(quality, Quality::Degraded);
    // Temperature stays useful in degraded mode (the design's contract:
    // the TSRO channel survives a dead PSRO bank).
    assert!((temp_c - 75.0).abs() < 5.0, "degraded temp off: {temp_c}");
    server.stop();
    server.join();
}

#[test]
fn a_restarted_shard_reads_up_in_health_once_its_backoff_has_run_out() {
    let backoff = Duration::from_millis(300);
    let (server, addr) = {
        let fleet = Fleet::start(FleetConfig {
            backoff_base: backoff,
            backoff_cap: backoff,
            ..test_fleet_cfg()
        });
        let server = Server::bind(fleet, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        (server, addr)
    };
    let mut client = Client::connect(&addr).unwrap();
    let health = |client: &mut Client| match client.call(&Request::Health).unwrap() {
        Response::Health(h) => h,
        other => panic!("expected health, got {other:?}"),
    };
    let _ = client
        .call(&Request::Inject {
            die: 1,
            kind: InjectKind::PanicWorker,
        })
        .unwrap();
    let tripped_at = Instant::now();
    let tripped = client.call(&read(1)).unwrap();
    assert!(
        matches!(
            tripped,
            Response::Rejected {
                rejection: Rejection::WorkerPanicked,
                ..
            }
        ),
        "got {tripped:?}"
    );
    let during = health(&mut client);
    if tripped_at.elapsed() < backoff {
        assert_eq!(during.shards[1].state, "restarting", "{during:?}");
    }

    // No request reaches the shard in between: only the health probe can
    // end the backoff.
    thread::sleep(backoff.saturating_sub(tripped_at.elapsed()) + Duration::from_millis(50));
    let after = health(&mut client);
    assert!(
        after.shards.iter().all(|s| s.state == "up"),
        "a shard past its backoff must read up: {after:?}"
    );
    assert_eq!(after.shards[1].restarts, 1);
    let requests = |h: &ptsim_service::HealthWire| {
        h.counters
            .iter()
            .find(|(n, _)| n == "svc.requests")
            .map_or(0, |&(_, v)| v)
    };
    assert_eq!(requests(&after), requests(&during));
    server.stop();
    server.join();
}

#[test]
fn a_read_with_a_zero_deadline_times_out_and_counts_a_drop() {
    let fleet = Fleet::start(test_fleet_cfg());
    let r = fleet.submit(Request::Read {
        die: 2,
        temp_c: 75.0,
        priority: 1,
        deadline_ms: 0,
    });
    assert!(
        matches!(
            r,
            Response::Rejected {
                rejection: Rejection::Timeout,
                ..
            }
        ),
        "got {r:?}"
    );
    assert_eq!(counter(&fleet, "svc.deadline_drops"), 1);
    assert_eq!(counter(&fleet, "svc.rejected.timeout"), 1);
    // The die's stream never moved: its first served read is its first
    // seed-replay read.
    let served = fleet.submit(read(2));
    assert_eq!(
        reading_bits(2, &served),
        seed_replay(&test_fleet_cfg(), 2, &[75.0])[0]
    );
    fleet.shutdown();
}

#[test]
fn shutdown_answers_a_waiting_request_shard_down() {
    let fleet = std::sync::Arc::new(Fleet::start(test_fleet_cfg()));
    let _ = fleet.submit(Request::Inject {
        die: 0,
        kind: InjectKind::StallMs(5_000),
    });
    let admitted_before = counter(&fleet, "svc.requests");
    let waiter = {
        let fleet = std::sync::Arc::clone(&fleet);
        thread::spawn(move || {
            fleet.submit(Request::Read {
                die: 0,
                temp_c: 75.0,
                priority: 1,
                deadline_ms: 10_000,
            })
        })
    };
    await_counter(&fleet, "svc.requests", admitted_before + 1);
    let started = Instant::now();
    fleet.shutdown();
    let r = waiter.join().unwrap();
    assert!(
        matches!(
            r,
            Response::Rejected {
                rejection: Rejection::ShardDown,
                ..
            }
        ),
        "got {r:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "the waiter must be answered at shutdown, not at the stall's end"
    );
    // Later requests are refused the same way.
    assert!(matches!(
        fleet.submit(read(1)),
        Response::Rejected {
            rejection: Rejection::ShardDown,
            ..
        }
    ));
}

/// Every `/health` counter, in the order `/health` lists them.
const SVC_COUNTERS: [&str; 19] = [
    "svc.requests",
    "svc.served_inline",
    "svc.served",
    "svc.degraded_served",
    "svc.rejected.timeout",
    "svc.rejected.overloaded",
    "svc.rejected.shard_down",
    "svc.rejected.bad_request",
    "svc.rejected.worker_panicked",
    "svc.rejected.conversion_failed",
    "svc.deadline_drops",
    "svc.worker_panics",
    "svc.connections",
    "svc.bad_frames",
    "svc.oversize_frames",
    "svc.slow_client_drops",
    "svc.idle_reaps",
    "svc.wire_v2_conns",
    "svc.wire_v2_frames",
];

/// Every `/health` counter's value, in `SVC_COUNTERS` order (asserted).
fn counters(fleet: &Fleet) -> Vec<u64> {
    let h = fleet.health();
    let names: Vec<&str> = h.counters.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, SVC_COUNTERS, "/health counter names and order");
    h.counters.iter().map(|&(_, v)| v).collect()
}

fn inject(fleet: &Fleet, die: u64, kind: InjectKind) {
    let r = fleet.submit(Request::Inject { die, kind });
    assert!(matches!(r, Response::Injected { .. }), "got {r:?}");
}

/// Starts a read of `die` on its own thread and returns once the shard
/// has admitted it as a waiter.
fn park_a_waiter(fleet: &std::sync::Arc<Fleet>, die: u64) -> thread::JoinHandle<Response> {
    let admitted = counter(fleet, "svc.requests");
    let waiter = {
        let fleet = std::sync::Arc::clone(fleet);
        thread::spawn(move || {
            fleet.submit(Request::Read {
                die,
                temp_c: 75.0,
                priority: 1,
                deadline_ms: 30_000,
            })
        })
    };
    await_counter(fleet, "svc.requests", admitted + 1);
    waiter
}

fn rejected_with(r: &Response, want: Rejection) -> bool {
    matches!(r, Response::Rejected { rejection, .. } if *rejection == want)
}

fn read_with(r: &Response, want: Quality) -> bool {
    matches!(r, Response::Reading { quality, .. } if *quality == want)
}

/// What one request served at once moves.
const SERVED_AT_ONCE: &[(&str, u64)] = &[
    ("svc.requests", 1),
    ("svc.served_inline", 1),
    ("svc.served", 1),
];

/// One answer kind: what to arrange first, the request that is answered,
/// what its answer must be, and every counter it moves (all others stay).
struct TallyCase {
    name: &'static str,
    setup: fn(&std::sync::Arc<Fleet>) -> Option<thread::JoinHandle<Response>>,
    act: fn(&Fleet) -> Response,
    answer: fn(&Response) -> bool,
    moves: &'static [(&'static str, u64)],
}

#[test]
fn every_answer_kind_moves_exactly_its_counters() {
    let cases = [
        TallyCase {
            name: "nominal read",
            setup: |_| None,
            act: |f| f.submit(read(2)),
            answer: |r| read_with(r, Quality::Nominal),
            moves: SERVED_AT_ONCE,
        },
        TallyCase {
            name: "degraded read",
            setup: |f| {
                inject(f, 3, InjectKind::DegradeDie);
                None
            },
            act: |f| f.submit(read(3)),
            answer: |r| read_with(r, Quality::Degraded),
            moves: &[
                ("svc.requests", 1),
                ("svc.served_inline", 1),
                ("svc.served", 1),
                ("svc.degraded_served", 1),
            ],
        },
        TallyCase {
            name: "3-die batch with one degraded die",
            setup: |f| {
                inject(f, 3, InjectKind::DegradeDie);
                None
            },
            act: |f| f.submit(batch(1, 3)),
            answer: |r| matches!(r, Response::Batch { items } if items.len() == 3),
            moves: &[
                ("svc.requests", 1),
                ("svc.served_inline", 1),
                ("svc.served", 3),
                ("svc.degraded_served", 1),
            ],
        },
        TallyCase {
            name: "calibrate",
            setup: |_| None,
            act: |f| {
                f.submit(Request::Calibrate {
                    die: 2,
                    deadline_ms: 5_000,
                })
            },
            answer: |r| matches!(r, Response::Calibrated { die: 2, .. }),
            moves: SERVED_AT_ONCE,
        },
        TallyCase {
            name: "inject",
            setup: |_| None,
            act: |f| {
                f.submit(Request::Inject {
                    die: 4,
                    kind: InjectKind::DegradeDie,
                })
            },
            answer: |r| matches!(r, Response::Injected { die: 4 }),
            moves: SERVED_AT_ONCE,
        },
        TallyCase {
            name: "ping",
            setup: |_| None,
            act: |f| f.submit(Request::Ping { pad: 2 }),
            answer: |r| matches!(r, Response::Pong { .. }),
            moves: SERVED_AT_ONCE,
        },
        TallyCase {
            name: "timeout behind a stall",
            setup: |f| {
                inject(f, 0, InjectKind::StallMs(5_000));
                None
            },
            act: |f| {
                f.submit(Request::Read {
                    die: 0,
                    temp_c: 75.0,
                    priority: 1,
                    deadline_ms: 50,
                })
            },
            answer: |r| rejected_with(r, Rejection::Timeout),
            moves: &[
                ("svc.requests", 1),
                ("svc.rejected.timeout", 1),
                ("svc.deadline_drops", 1),
            ],
        },
        TallyCase {
            name: "overloaded shed",
            setup: |f| {
                inject(f, 0, InjectKind::StallMs(5_000));
                Some(park_a_waiter(f, 0))
            },
            act: |f| f.submit(read(0)),
            answer: |r| rejected_with(r, Rejection::Overloaded),
            moves: &[("svc.rejected.overloaded", 1)],
        },
        TallyCase {
            name: "conversion panic",
            setup: |f| {
                inject(f, 2, InjectKind::PanicConversion);
                None
            },
            act: |f| f.submit(read(2)),
            answer: |r| rejected_with(r, Rejection::WorkerPanicked),
            moves: &[
                ("svc.requests", 1),
                ("svc.served_inline", 1),
                ("svc.rejected.worker_panicked", 1),
            ],
        },
        TallyCase {
            name: "worker panic",
            setup: |f| {
                inject(f, 2, InjectKind::PanicWorker);
                None
            },
            act: |f| f.submit(read(2)),
            answer: |r| rejected_with(r, Rejection::WorkerPanicked),
            moves: &[
                ("svc.requests", 1),
                ("svc.served_inline", 1),
                ("svc.rejected.worker_panicked", 1),
                ("svc.worker_panics", 1),
            ],
        },
        TallyCase {
            name: "shard_down after shutdown",
            setup: |f| {
                f.shutdown();
                None
            },
            act: |f| f.submit(read(2)),
            answer: |r| rejected_with(r, Rejection::ShardDown),
            moves: &[("svc.rejected.shard_down", 1)],
        },
    ];
    for case in &cases {
        // A one-deep queue, so one parked waiter fills it.
        let fleet = std::sync::Arc::new(Fleet::start(FleetConfig {
            queue_depth: 1,
            ..test_fleet_cfg()
        }));
        let parked = (case.setup)(&fleet);
        let before = counters(&fleet);
        let answer = (case.act)(&fleet);
        let after = counters(&fleet);
        assert!((case.answer)(&answer), "{}: got {answer:?}", case.name);
        let moved: Vec<(&str, u64)> = SVC_COUNTERS
            .iter()
            .zip(before.iter().zip(&after))
            .filter(|(_, (b, a))| a != b)
            .map(|(&name, (b, a))| (name, a - b))
            .collect();
        assert_eq!(moved, case.moves, "{}", case.name);
        fleet.shutdown();
        if let Some(waiter) = parked {
            let r = waiter.join().unwrap();
            assert!(
                rejected_with(&r, Rejection::ShardDown),
                "{}: {r:?}",
                case.name
            );
        }
    }
}

#[test]
fn a_refused_in_process_read_counts_one_bad_request() {
    let fleet = Fleet::start(test_fleet_cfg());
    let before = counter(&fleet, "svc.rejected.bad_request");
    let r = fleet.submit(read(10_000));
    assert!(rejected_with(&r, Rejection::BadRequest), "got {r:?}");
    assert_eq!(counter(&fleet, "svc.rejected.bad_request"), before + 1);
    fleet.shutdown();
}

#[test]
fn an_oversize_prefix_counts_one_bad_request() {
    let (server, addr) = start_server(ServerConfig::default());
    let mut probe = Client::connect(&addr).unwrap();
    let bad_requests = |probe: &mut Client| match probe.call(&Request::Health).unwrap() {
        Response::Health(h) => h
            .counters
            .iter()
            .find(|(n, _)| n == "svc.rejected.bad_request")
            .map_or(0, |&(_, v)| v),
        other => panic!("expected health, got {other:?}"),
    };
    let before = bad_requests(&mut probe);
    let mut client = Client::connect(&addr).unwrap();
    client.send_raw(&(16u32 << 20).to_be_bytes()).unwrap();
    let resp = client.read_response().unwrap();
    assert!(rejected_with(&resp, Rejection::BadRequest), "got {resp:?}");
    assert_eq!(bad_requests(&mut probe), before + 1);
    server.stop();
    server.join();
}

#[test]
fn concurrent_reads_are_each_admitted_once_and_served_once() {
    const THREADS: u64 = 4;
    const READS: u64 = 40;
    let fleet = std::sync::Arc::new(Fleet::start(FleetConfig {
        n_dies: 16,
        n_shards: 4,
        queue_depth: 64,
        ..test_fleet_cfg()
    }));
    let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let poller = {
        let (fleet, done) = (std::sync::Arc::clone(&fleet), std::sync::Arc::clone(&done));
        thread::spawn(move || {
            let mut polls = 0u64;
            while !done.load(std::sync::atomic::Ordering::SeqCst) {
                let h = fleet.health();
                let get = |name: &str| h.counters.iter().find(|(n, _)| n == name).unwrap().1;
                let (requests, served) = (get("svc.requests"), get("svc.served"));
                assert!(served <= requests, "served {served} > requests {requests}");
                polls += 1;
            }
            polls
        })
    };
    let readers: Vec<_> = (0..THREADS)
        .map(|t| {
            let fleet = std::sync::Arc::clone(&fleet);
            thread::spawn(move || {
                for k in 0..READS {
                    let r = fleet.submit(read((t + k * THREADS) % 16));
                    assert!(matches!(r, Response::Reading { .. }), "got {r:?}");
                }
            })
        })
        .collect();
    for reader in readers {
        reader.join().unwrap();
    }
    done.store(true, std::sync::atomic::Ordering::SeqCst);
    assert!(poller.join().unwrap() > 0);
    assert_eq!(counter(&fleet, "svc.requests"), THREADS * READS);
    assert_eq!(counter(&fleet, "svc.served"), THREADS * READS);
    fleet.shutdown();
}
