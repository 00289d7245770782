//! Golden wire corpus: one message of every request and response variant,
//! pinned to its exact v2 bytes and its exact JSON (v1) payload.
//!
//! Round-trip tests pass for any self-consistent format, so they cannot
//! notice the encoding itself drifting. This suite can: both forms must
//! match byte for byte, and both must decode back to the message they were
//! taken from. A JSON text the writer would not produce (batch items with
//! their members in another order) must decode to the same message too.

use ptsim_service::protocol::{
    BatchItem, HealthWire, InjectKind, Quality, Rejection, Request, Response, ShardHealthWire,
};
use ptsim_service::wire::{decode_request, decode_response, encode_request, encode_response};

fn unhex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2), "odd-length hex {s:?}");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit"))
        .collect()
}

fn requests() -> Vec<(Request, &'static str, &'static str)> {
    vec![
        (
            Request::Read {
                die: 17,
                temp_c: 85.25,
                priority: 2,
                deadline_ms: 1500,
            },
            "011100000000000000000000000050554002dc05000000000000",
            r#"{"op":"read","die":17,"temp_c":85.25,"priority":2,"deadline_ms":1500}"#,
        ),
        (
            Request::BatchRead {
                die0: 3,
                count: 16,
                temp_c: -40.5,
                priority: 0,
                deadline_ms: 250,
            },
            "020300000000000000100000000000000000000000004044c000fa00000000000000",
            r#"{"op":"batch_read","die0":3,"count":16,"temp_c":-40.5,"priority":0,"deadline_ms":250}"#,
        ),
        (
            Request::Calibrate {
                die: 9,
                deadline_ms: 5000,
            },
            "0309000000000000008813000000000000",
            r#"{"op":"calibrate","die":9,"deadline_ms":5000}"#,
        ),
        (Request::Health, "04", r#"{"op":"health"}"#),
        (
            Request::Ping { pad: 1024 },
            "050004000000000000",
            r#"{"op":"ping","pad":1024}"#,
        ),
        (
            Request::Inject {
                die: 5,
                kind: InjectKind::StallMs(40),
            },
            "060500000000000000042800000000000000",
            r#"{"op":"inject","die":5,"fault":"stall","ms":40}"#,
        ),
        (
            Request::Inject {
                die: 6,
                kind: InjectKind::DegradeDie,
            },
            "060600000000000000000000000000000000",
            r#"{"op":"inject","die":6,"fault":"degrade"}"#,
        ),
        (Request::Shutdown, "07", r#"{"op":"shutdown"}"#),
    ]
}

fn responses() -> Vec<(Response, &'static str, &'static str)> {
    vec![
        (
            Response::Reading {
                die: 17,
                temp_c: 85.014,
                d_vtn_mv: 12.5,
                d_vtp_mv: -9.25,
                energy_pj: 120.75,
                quality: Quality::Recovered,
            },
            "01110000000000000037894160e5405540000000000000294000000000008022c00000000000305e4001",
            r#"{"ok":true,"op":"read","die":17,"temp_c":85.014,"d_vtn_mv":12.5,"d_vtp_mv":-9.25,"energy_pj":120.75,"quality":"recovered"}"#,
        ),
        (
            Response::Batch {
                items: vec![
                    BatchItem::Reading {
                        die: 1,
                        temp_c: 25.5,
                        d_vtn_mv: 0.125,
                        d_vtp_mv: -0.5,
                        energy_pj: 100.0,
                        quality: Quality::Nominal,
                    },
                    BatchItem::Rejected {
                        die: 5,
                        rejection: Rejection::ConversionFailed,
                        detail: "psro bank dead".into(),
                    },
                ],
            },
            concat!(
                "0202000000010100000000000000000000000080394000000000",
                "0000c03f000000000000e0bf0000000000005940000005000000",
                "00000000050e007073726f2062616e6b2064656164",
            ),
            concat!(
                r#"{"ok":true,"op":"batch_read","items":["#,
                r#"{"ok":true,"die":1,"temp_c":25.5,"d_vtn_mv":0.125,"d_vtp_mv":-0.5,"energy_pj":100,"quality":"nominal"},"#,
                r#"{"ok":false,"die":5,"error":"conversion_failed","detail":"psro bank dead"}]}"#,
            ),
        ),
        (
            Response::Calibrated {
                die: 9,
                quality: Quality::Degraded,
            },
            "03090000000000000002",
            r#"{"ok":true,"op":"calibrate","die":9,"quality":"degraded"}"#,
        ),
        (
            Response::Health(HealthWire {
                shards: vec![
                    ShardHealthWire {
                        id: 0,
                        state: "up".into(),
                        restarts: 1,
                        queue_len: 3,
                        dies: 16,
                    },
                    ShardHealthWire {
                        id: 1,
                        state: "restarting".into(),
                        restarts: 2,
                        queue_len: 0,
                        dies: 15,
                    },
                ],
                counters: vec![("svc.served".into(), 42), ("svc.bad_frames".into(), 7)],
                uptime_ms: 12345,
                coalesce_max: 64,
                wire_version: 2,
            }),
            concat!(
                "0439300000000000004000000000000000020000000000000002",
                "0000000000000000000000020075700100000000000000030000",
                "0000000000100000000000000001000000000000000a00726573",
                "74617274696e6702000000000000000000000000000000",
                "0f00000000000000020000000a007376632e7365727665642a00",
                "0000000000000e007376632e6261645f6672616d657307000000",
                "00000000",
            ),
            concat!(
                r#"{"ok":true,"op":"health","uptime_ms":12345,"coalesce_max":64,"wire_version":2,"shards":["#,
                r#"{"id":0,"state":"up","restarts":1,"queue_len":3,"dies":16},"#,
                r#"{"id":1,"state":"restarting","restarts":2,"queue_len":0,"dies":15}],"#,
                r#""counters":{"svc.served":42,"svc.bad_frames":7}}"#,
            ),
        ),
        (
            Response::Pong { pad: "xxxx".into() },
            "05040078787878",
            r#"{"ok":true,"op":"ping","pad":"xxxx"}"#,
        ),
        (
            Response::Injected { die: 5 },
            "060500000000000000",
            r#"{"ok":true,"op":"inject","die":5}"#,
        ),
        (
            Response::Rejected {
                rejection: Rejection::Overloaded,
                detail: "queue \"full\"".into(),
            },
            "07010c007175657565202266756c6c22",
            r#"{"ok":false,"error":"overloaded","detail":"queue \"full\""}"#,
        ),
        (
            Response::ShuttingDown,
            "08",
            r#"{"ok":true,"op":"shutdown"}"#,
        ),
    ]
}

#[test]
fn requests_match_the_golden_v2_bytes() {
    for (req, hex, _) in requests() {
        let mut buf = Vec::new();
        encode_request(&req, &mut buf);
        assert_eq!(buf, unhex(hex), "v2 bytes of {req:?}");
        assert_eq!(decode_request(&buf).unwrap(), req);
    }
}

#[test]
fn requests_match_the_golden_json() {
    for (req, _, text) in requests() {
        assert_eq!(req.to_json(), text, "JSON of {req:?}");
        assert_eq!(Request::from_json_bytes(text.as_bytes()).unwrap(), req);
    }
}

#[test]
fn responses_match_the_golden_v2_bytes() {
    for (rsp, hex, _) in responses() {
        let mut buf = Vec::new();
        encode_response(&rsp, &mut buf);
        assert_eq!(buf, unhex(hex), "v2 bytes of {rsp:?}");
        assert_eq!(decode_response(&buf).unwrap(), rsp);
    }
}

#[test]
fn responses_match_the_golden_json() {
    for (rsp, _, text) in responses() {
        assert_eq!(rsp.to_json(), text, "JSON of {rsp:?}");
        assert_eq!(Response::from_json_bytes(text.as_bytes()).unwrap(), rsp);
    }
}

#[test]
fn reordered_members_decode_to_the_golden_messages() {
    // The batch text as first pinned: each item's `die` before its `ok`.
    let batch = concat!(
        r#"{"ok":true,"op":"batch_read","items":["#,
        r#"{"die":1,"ok":true,"temp_c":25.5,"d_vtn_mv":0.125,"d_vtp_mv":-0.5,"energy_pj":100,"quality":"nominal"},"#,
        r#"{"die":5,"ok":false,"error":"conversion_failed","detail":"psro bank dead"}]}"#,
    );
    let (golden, _, _) = &responses()[1];
    assert_eq!(
        Response::from_json_bytes(batch.as_bytes()).unwrap(),
        *golden
    );
}
