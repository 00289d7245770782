//! Property and fuzz coverage of the wire protocol: round-trips, and the
//! guarantee that no byte sequence — truncated, oversize, or garbage —
//! ever panics the codec. Malformed input must always surface as a typed
//! [`FrameError`] or [`ProtoError`].

use ptsim_rng::check::{vec_in, Strategy};
use ptsim_rng::forall;
use ptsim_service::protocol::{
    begin_frame, finish_frame, read_frame_into, BatchItem, FrameError, InjectKind, Quality,
    Rejection, Request, Response, DEFAULT_DEADLINE_MS, MAX_BATCH, MAX_DEADLINE_MS, MAX_FRAME,
    MAX_PAD, MAX_PRIORITY, TEMP_BOUNDS,
};
use std::io::{self, Cursor};

/// Frames `payload` with the kept writer: `begin_frame` + `finish_frame`.
fn write_frame(buf: &mut Vec<u8>, payload: &[u8]) -> io::Result<()> {
    begin_frame(buf);
    buf.extend_from_slice(payload);
    finish_frame(buf)
}

/// Reads one frame with the kept reader, `read_frame_into`.
fn read_frame(bytes: &[u8]) -> Result<Vec<u8>, FrameError> {
    let mut payload = Vec::new();
    read_frame_into(&mut Cursor::new(bytes), MAX_FRAME, &mut payload)?;
    Ok(payload)
}

fn bytes(len: core::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    vec_in(Strategy::map(0u32..256, |b| b as u8), len)
}

forall! {
    #[test]
    fn request_json_round_trips(
        die in 0u64..1_000_000,
        temp in TEMP_BOUNDS.0..TEMP_BOUNDS.1,
        priority in 0u32..4,
        deadline in 1u64..MAX_DEADLINE_MS,
        pick in 0u32..7
    ) {
        let req = match pick {
            0 => Request::Read { die, temp_c: temp, priority: priority as u8, deadline_ms: deadline },
            1 => Request::Calibrate { die, deadline_ms: deadline },
            2 => Request::Health,
            3 => Request::Ping { pad: deadline.min(MAX_PAD) },
            4 => Request::Inject { die, kind: InjectKind::StallMs(deadline) },
            5 => Request::BatchRead {
                die0: die,
                count: 1 + die % MAX_BATCH,
                temp_c: temp,
                priority: priority as u8,
                deadline_ms: deadline,
            },
            _ => Request::Shutdown,
        };
        let back = Request::from_json_bytes(req.to_json().as_bytes()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn response_json_round_trips(
        die in 0u64..1_000_000,
        temp in -50.0f64..150.0,
        mv in -80.0f64..80.0,
        pj in 0.0f64..1e6,
        pick in 0u32..7,
        q in 0u32..3
    ) {
        let quality = [Quality::Nominal, Quality::Recovered, Quality::Degraded][q as usize];
        let rejection = [
            Rejection::Timeout,
            Rejection::Overloaded,
            Rejection::ShardDown,
            Rejection::BadRequest,
            Rejection::WorkerPanicked,
            Rejection::ConversionFailed,
        ][(die % 6) as usize];
        let resp = match pick {
            0 => Response::Reading { die, temp_c: temp, d_vtn_mv: mv, d_vtp_mv: -mv, energy_pj: pj, quality },
            1 => Response::Calibrated { die, quality },
            2 => Response::Pong { pad: "x".repeat((die % 64) as usize) },
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
            _ => Response::ShuttingDown,
        };
        let back = Response::from_json_bytes(resp.to_json().as_bytes()).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn frames_round_trip_any_payload(payload in bytes(0..2048)) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        assert_eq!(read_frame(&buf).unwrap(), payload);
    }

    #[test]
    fn truncated_frames_are_typed_never_panic(payload in bytes(1..512), cut_frac in 0.0f64..1.0) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        // Cut strictly inside the frame (header or payload).
        let cut = 1 + ((buf.len() - 2) as f64 * cut_frac) as usize;
        let err = read_frame(&buf[..cut]).unwrap_err();
        assert!(
            matches!(err, FrameError::Truncated { .. }),
            "cut at {cut}/{} gave {err:?}",
            buf.len()
        );
    }

    #[test]
    fn garbage_bytes_never_panic_the_frame_reader(garbage in bytes(0..128)) {
        // Whatever happens, it is a typed result, not a panic — and an
        // oversize prefix must be refused before allocation.
        match read_frame(&garbage) {
            Ok(payload) => assert!(payload.len() <= MAX_FRAME),
            Err(
                FrameError::Closed
                | FrameError::Truncated { .. }
                | FrameError::Oversize { .. }
                | FrameError::Io(_),
            ) => {}
        }
    }

    #[test]
    fn garbage_payloads_never_panic_the_request_parser(garbage in bytes(0..256)) {
        // Typed error or a fully bounds-checked request; never a panic.
        match Request::from_json_bytes(&garbage) {
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
            _ => {}
        }
    }

    #[test]
    fn mutated_valid_batch_requests_keep_bounds(
        die0 in 0u64..64,
        count in 1u64..MAX_BATCH + 1,
        temp in TEMP_BOUNDS.0..TEMP_BOUNDS.1,
        flip_at_frac in 0.0f64..1.0,
        flip_to in 0u32..256
    ) {
        // Single-byte corruption of a well-formed batch_read: either still
        // a valid in-bounds request, or a typed error — never a panic, and
        // never an out-of-bounds batch admitted.
        let mut payload = Request::BatchRead {
            die0,
            count,
            temp_c: temp,
            priority: 1,
            deadline_ms: DEFAULT_DEADLINE_MS,
        }
        .to_json()
        .into_bytes();
        let at = (payload.len() as f64 * flip_at_frac) as usize % payload.len();
        payload[at] = flip_to as u8;
        if let Ok(Request::BatchRead { die0, count, temp_c, priority, deadline_ms }) =
            Request::from_json_bytes(&payload)
        {
            assert!((1..=MAX_BATCH).contains(&count));
            assert!(die0.checked_add(count).is_some());
            assert!((TEMP_BOUNDS.0..=TEMP_BOUNDS.1).contains(&temp_c));
            assert!(priority <= MAX_PRIORITY);
            assert!(deadline_ms <= MAX_DEADLINE_MS);
        }
    }

    #[test]
    fn mutated_valid_requests_keep_bounds(
        die in 0u64..64,
        temp in TEMP_BOUNDS.0..TEMP_BOUNDS.1,
        flip_at_frac in 0.0f64..1.0,
        flip_to in 0u32..256
    ) {
        // Single-byte corruption of a well-formed request: either still a
        // valid in-bounds request, or a typed error.
        let mut payload = Request::Read {
            die,
            temp_c: temp,
            priority: 1,
            deadline_ms: DEFAULT_DEADLINE_MS,
        }
        .to_json()
        .into_bytes();
        let at = (payload.len() as f64 * flip_at_frac) as usize % payload.len();
        payload[at] = flip_to as u8;
        if let Ok(Request::Read { temp_c, priority, deadline_ms, .. }) =
            Request::from_json_bytes(&payload)
        {
            assert!((TEMP_BOUNDS.0..=TEMP_BOUNDS.1).contains(&temp_c));
            assert!(priority <= MAX_PRIORITY);
            assert!(deadline_ms <= MAX_DEADLINE_MS);
        }
    }
}

#[test]
fn oversize_payload_is_refused_on_write_too() {
    let huge = vec![b'x'; MAX_FRAME + 1];
    assert!(write_frame(&mut Vec::new(), &huge).is_err());
}
