//! Property and fuzz coverage of the v2 binary codec: round-trips,
//! cross-codec agreement with the JSON (v1) parser, and the guarantee
//! that no byte sequence — truncated, mutated, or garbage — ever panics
//! the decoder. Malformed input must always surface as a typed
//! [`ProtoError`].

use ptsim_rng::check::{vec_in, Strategy};
use ptsim_rng::forall;
use ptsim_service::protocol::{
    BatchItem, HealthWire, InjectKind, ProtoError, Quality, Rejection, Request, Response,
    ShardHealthWire, DEFAULT_DEADLINE_MS, MAX_BATCH, MAX_DEADLINE_MS, MAX_PAD, MAX_PRIORITY,
    TEMP_BOUNDS,
};
use ptsim_service::wire::{decode_request, decode_response, encode_request, encode_response};

fn bytes(len: core::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    vec_in(Strategy::map(0u32..256, |b| b as u8), len)
}

fn some_request(die: u64, temp: f64, priority: u8, deadline: u64, pick: u32) -> Request {
    match pick {
        0 => Request::Read {
            die,
            temp_c: temp,
            priority,
            deadline_ms: deadline,
        },
        1 => Request::Calibrate {
            die,
            deadline_ms: deadline,
        },
        2 => Request::Health,
        3 => Request::Ping {
            pad: deadline.min(MAX_PAD),
        },
        4 => Request::Inject {
            die,
            kind: match die % 5 {
                0 => InjectKind::DegradeDie,
                1 => InjectKind::HealDie,
                2 => InjectKind::PanicConversion,
                3 => InjectKind::PanicWorker,
                _ => InjectKind::StallMs(deadline),
            },
        },
        5 => Request::BatchRead {
            die0: die,
            count: 1 + die % MAX_BATCH,
            temp_c: temp,
            priority,
            deadline_ms: deadline,
        },
        _ => Request::Shutdown,
    }
}

fn some_response(die: u64, temp: f64, mv: f64, pj: f64, pick: u32, q: u32) -> Response {
    let quality = [Quality::Nominal, Quality::Recovered, Quality::Degraded][q as usize];
    let rejection = [
        Rejection::Timeout,
        Rejection::Overloaded,
        Rejection::ShardDown,
        Rejection::BadRequest,
        Rejection::WorkerPanicked,
        Rejection::ConversionFailed,
    ][(die % 6) as usize];
    match pick {
        0 => Response::Reading {
            die,
            temp_c: temp,
            d_vtn_mv: mv,
            d_vtp_mv: -mv,
            energy_pj: pj,
            quality,
        },
        1 => Response::Calibrated { die, quality },
        2 => Response::Pong {
            pad: "x".repeat((die % 64) as usize),
        },
        3 => Response::Injected { die },
        4 => Response::rejected(rejection, format!("detail {die}")),
        5 => Response::Batch {
            items: vec![
                BatchItem::Reading {
                    die,
                    temp_c: temp,
                    d_vtn_mv: mv,
                    d_vtp_mv: -mv,
                    energy_pj: pj,
                    quality,
                },
                BatchItem::Rejected {
                    die: die + 1,
                    rejection,
                    detail: format!("item detail {die}"),
                },
            ],
        },
        6 => Response::Health(HealthWire {
            shards: vec![ShardHealthWire {
                id: die % 8,
                state: "up".to_string(),
                restarts: die % 3,
                queue_len: die % 17,
                dies: 16,
            }],
            counters: vec![("svc.served".to_string(), die), (String::new(), 0)],
            uptime_ms: die,
            coalesce_max: 1 + die % 64,
            wire_version: 2,
        }),
        _ => Response::ShuttingDown,
    }
}

forall! {
    #[test]
    fn binary_requests_round_trip(
        die in 0u64..1_000_000,
        temp in TEMP_BOUNDS.0..TEMP_BOUNDS.1,
        priority in 0u32..4,
        deadline in 1u64..MAX_DEADLINE_MS,
        pick in 0u32..7
    ) {
        let req = some_request(die, temp, priority as u8, deadline, pick);
        let mut buf = Vec::new();
        encode_request(&req, &mut buf);
        assert_eq!(decode_request(&buf).unwrap(), req);
    }

    #[test]
    fn binary_responses_round_trip(
        die in 0u64..1_000_000,
        temp in -50.0f64..150.0,
        mv in -80.0f64..80.0,
        pj in 0.0f64..1e6,
        pick in 0u32..8,
        q in 0u32..3
    ) {
        let resp = some_response(die, temp, mv, pj, pick, q);
        let mut buf = Vec::new();
        encode_response(&resp, &mut buf);
        assert_eq!(decode_response(&buf).unwrap(), resp);
    }

    #[test]
    fn binary_and_json_codecs_agree(
        die in 0u64..1 << 53,
        temp in TEMP_BOUNDS.0 - 50.0..TEMP_BOUNDS.1 + 50.0,
        priority in 0u32..u32::from(MAX_PRIORITY) + 3,
        raw in 0u64..2 * MAX_DEADLINE_MS,
        pick in 0u32..7,
        (mv, pj, rpick, q) in (-80.0f64..80.0, 0.0f64..1e6, 0u32..8, 0u32..3)
    ) {
        // Both codecs run one schema and one bounds check, for die ids up
        // to 2^53 (the JSON exact-integer limit). A request decodes to the
        // same value through either, or is refused by both with the same
        // error — out-of-range temperatures, priorities, deadlines, stall
        // lengths, batch counts and ping pads included.
        let requests = [
            some_request(die, temp, priority as u8, raw, pick),
            Request::BatchRead {
                die0: die,
                count: raw % (MAX_BATCH + 2),
                temp_c: temp,
                priority: priority as u8,
                deadline_ms: raw,
            },
            Request::Ping { pad: raw },
        ];
        for req in &requests {
            let mut buf = Vec::new();
            encode_request(req, &mut buf);
            let via_binary = decode_request(&buf);
            let via_json = Request::from_json_bytes(req.to_json().as_bytes());
            assert_eq!(via_binary, via_json, "{req:?}");
            match via_binary {
                Ok(back) => assert_eq!(&back, req),
                Err(e) => assert!(matches!(e, ProtoError::OutOfBounds { .. }), "{req:?}: {e:?}"),
            }
        }

        // An inject that is not a stall ignores `ms` in both codecs (v2
        // always carries the slot; JSON may carry the member).
        let (fault, code) = [
            ("degrade", 0u8),
            ("heal", 1),
            ("panic_conversion", 2),
            ("panic_worker", 3),
            ("stall", 4),
        ][(raw % 5) as usize];
        let json = format!(r#"{{"op":"inject","die":{},"fault":"{fault}","ms":{raw}}}"#, die + 1);
        let mut binary = vec![6u8];
        binary.extend_from_slice(&(die + 1).to_le_bytes());
        binary.push(code);
        binary.extend_from_slice(&raw.to_le_bytes());
        assert_eq!(decode_request(&binary), Request::from_json_bytes(json.as_bytes()), "{json}");

        // A response decodes to itself through either codec.
        let resp = some_response(die, temp, mv, pj, rpick, q);
        let mut buf = Vec::new();
        encode_response(&resp, &mut buf);
        assert_eq!(decode_response(&buf).unwrap(), resp);
        assert_eq!(Response::from_json_bytes(resp.to_json().as_bytes()).unwrap(), resp);
    }

    #[test]
    fn garbage_bytes_never_panic_the_binary_request_decoder(garbage in bytes(0..256)) {
        // Typed error or a fully bounds-checked request; never a panic —
        // the same contract the JSON parser keeps.
        match decode_request(&garbage) {
            Ok(Request::Read { temp_c, priority, deadline_ms, .. }) => {
                assert!((TEMP_BOUNDS.0..=TEMP_BOUNDS.1).contains(&temp_c));
                assert!(priority <= MAX_PRIORITY);
                assert!(deadline_ms <= MAX_DEADLINE_MS);
            }
            Ok(Request::BatchRead { die0, count, temp_c, priority, deadline_ms }) => {
                assert!((1..=MAX_BATCH).contains(&count));
                assert!(die0.checked_add(count).is_some());
                assert!((TEMP_BOUNDS.0..=TEMP_BOUNDS.1).contains(&temp_c));
                assert!(priority <= MAX_PRIORITY);
                assert!(deadline_ms <= MAX_DEADLINE_MS);
            }
            Ok(Request::Ping { pad }) => assert!(pad <= MAX_PAD),
            _ => {}
        }
    }

    #[test]
    fn garbage_bytes_never_panic_the_binary_response_decoder(garbage in bytes(0..256)) {
        // Responses carry no server-side bounds to re-check; the guarantee
        // under fuzz is purely "typed result, never a panic, never an
        // unbounded allocation" (count fields are plausibility-checked
        // against the remaining payload before any Vec is sized).
        let _ = decode_response(&garbage);
    }

    #[test]
    fn truncated_binary_requests_are_typed_never_panic(
        die in 0u64..1_000_000,
        temp in TEMP_BOUNDS.0..TEMP_BOUNDS.1,
        deadline in 1u64..MAX_DEADLINE_MS,
        pick in 0u32..7,
        cut_frac in 0.0f64..1.0
    ) {
        let req = some_request(die, temp, 1, deadline, pick);
        let mut buf = Vec::new();
        encode_request(&req, &mut buf);
        // Cut strictly inside the payload; every prefix must decode to a
        // typed error (tag-only ops like health are 1 byte — skip those).
        if buf.len() > 1 {
            let cut = 1 + ((buf.len() - 2) as f64 * cut_frac) as usize;
            let err = decode_request(&buf[..cut]).unwrap_err();
            assert!(
                matches!(err, ProtoError::BadField(_) | ProtoError::OutOfBounds { .. }),
                "cut at {cut}/{} gave {err:?}",
                buf.len()
            );
        }
    }

    #[test]
    fn mutated_valid_binary_requests_keep_bounds(
        die in 0u64..64,
        temp in TEMP_BOUNDS.0..TEMP_BOUNDS.1,
        flip_at_frac in 0.0f64..1.0,
        flip_to in 0u32..256
    ) {
        // Single-byte corruption of a well-formed binary read: either still
        // a valid in-bounds request, or a typed error — never a panic, and
        // never an out-of-bounds value admitted.
        let mut buf = Vec::new();
        encode_request(
            &Request::Read {
                die,
                temp_c: temp,
                priority: 1,
                deadline_ms: DEFAULT_DEADLINE_MS,
            },
            &mut buf,
        );
        let at = (buf.len() as f64 * flip_at_frac) as usize % buf.len();
        buf[at] = flip_to as u8;
        if let Ok(Request::Read { temp_c, priority, deadline_ms, .. }) = decode_request(&buf) {
            assert!((TEMP_BOUNDS.0..=TEMP_BOUNDS.1).contains(&temp_c));
            assert!(priority <= MAX_PRIORITY);
            assert!(deadline_ms <= MAX_DEADLINE_MS);
        }
    }
}

#[test]
fn appended_trailing_bytes_are_refused() {
    let mut buf = Vec::new();
    encode_request(&Request::Health, &mut buf);
    buf.push(0);
    assert!(matches!(
        decode_request(&buf),
        Err(ProtoError::OutOfBounds { .. })
    ));
}
