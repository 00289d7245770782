//! Enforces the connection-path allocation contract with a counting
//! global allocator: after one warm-up round sizes the reused read/write
//! buffers, a framed v2 binary round trip — encode request, frame it,
//! read it back, decode, and the same for the response — performs
//! **zero** heap allocations. This is exactly the per-frame work of a
//! warm `serve_conn`/`Client::call` pair; the die-addressed requests and
//! readings it carries are string-free by design so nothing on the hot
//! path needs an owned buffer beyond the two reused ones. A warm
//! `Fleet::submit` read allocates nothing either: served at once on a free
//! shard (admission, the conversion in the shard's reused workspace, the
//! metrics), or after waiting out a stall in the shard's queue, whose
//! waiter records live in storage sized at `queue_depth`. JSON (v1)
//! decoding reads fields straight from the payload bytes: a read request
//! or a reading response allocates nothing, and a batch response only its
//! items vector.
//!
//! Integration tests are separate binaries, so installing a counting
//! `#[global_allocator]` here observes every allocation the codec makes
//! without affecting any other test. The counter is per thread, as in the
//! core gate: everything measured here runs on the calling thread (a fleet
//! starts no thread; the submitting thread serves), and the harness's own
//! bookkeeping for a test finishing in parallel cannot leak into a window.

use ptsim_service::protocol::{
    begin_frame, finish_frame, read_frame_into, BatchItem, InjectKind, Quality, Request, Response,
    MAX_FRAME,
};
use ptsim_service::wire::{decode_request, decode_response, encode_request, encode_response};
use ptsim_service::{Fleet, FleetConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;
use std::time::{Duration, Instant};

/// Forwards to the system allocator, counting every allocation made by the
/// calling thread.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// One full wire round trip through the reused buffers: what the client
/// writes, the server reads and decodes; what the server writes, the
/// client reads and decodes.
fn round_trip(wbuf: &mut Vec<u8>, rbuf: &mut Vec<u8>, req: &Request, rsp: &Response) {
    begin_frame(wbuf);
    encode_request(req, wbuf);
    finish_frame(wbuf).expect("request frame fits");
    read_frame_into(&mut Cursor::new(&wbuf[..]), MAX_FRAME, rbuf).expect("read request");
    assert_eq!(decode_request(rbuf).expect("decode request"), *req);

    begin_frame(wbuf);
    encode_response(rsp, wbuf);
    finish_frame(wbuf).expect("response frame fits");
    read_frame_into(&mut Cursor::new(&wbuf[..]), MAX_FRAME, rbuf).expect("read response");
    assert_eq!(decode_response(rbuf).expect("decode response"), *rsp);
}

#[test]
fn warm_connection_path_is_allocation_free() {
    let req = Request::Read {
        die: 42,
        temp_c: 61.5,
        priority: 1,
        deadline_ms: 30_000,
    };
    let rsp = Response::Reading {
        die: 42,
        temp_c: 61.47,
        d_vtn_mv: 11.8,
        d_vtp_mv: -7.9,
        energy_pj: 184.2,
        quality: Quality::Nominal,
    };

    let mut wbuf = Vec::new();
    let mut rbuf = Vec::new();
    // Warm-up: the two reused buffers grow to frame size here, exactly
    // once per connection — the cost `connect()` pays, not `call()`.
    round_trip(&mut wbuf, &mut rbuf, &req, &rsp);

    let before = allocations();
    for _ in 0..64 {
        round_trip(&mut wbuf, &mut rbuf, &req, &rsp);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm framed round trips must not allocate"
    );
}

/// Warm runs per measurement in `warm_allocations`.
const RUNS: u64 = 64;

/// Allocations the calling thread makes in [`RUNS`] runs of `f`, after one
/// warm-up run.
fn warm_allocations(mut f: impl FnMut()) -> u64 {
    f();
    let before = allocations();
    for _ in 0..RUNS {
        f();
    }
    allocations() - before
}

#[test]
fn json_decode_allocates_only_what_the_message_keeps() {
    let req = Request::Read {
        die: 42,
        temp_c: 61.5,
        priority: 1,
        deadline_ms: 30_000,
    };
    let reading = |die| BatchItem::Reading {
        die,
        temp_c: 61.47,
        d_vtn_mv: 11.8,
        d_vtp_mv: -7.9,
        energy_pj: 184.2,
        quality: Quality::Nominal,
    };
    let rsp = Response::Reading {
        die: 42,
        temp_c: 61.47,
        d_vtn_mv: 11.8,
        d_vtp_mv: -7.9,
        energy_pj: 184.2,
        quality: Quality::Recovered,
    };
    let batch = Response::Batch {
        items: (0..16).map(reading).collect(),
    };
    let (req_text, rsp_text, batch_text) = (req.to_json(), rsp.to_json(), batch.to_json());

    let decode_req = || assert_eq!(Request::from_json_bytes(req_text.as_bytes()).unwrap(), req);
    assert_eq!(warm_allocations(decode_req), 0, "a read request");
    let decode_rsp = || assert_eq!(Response::from_json_bytes(rsp_text.as_bytes()).unwrap(), rsp);
    assert_eq!(warm_allocations(decode_rsp), 0, "a reading response");
    let decode_batch = || {
        assert_eq!(
            Response::from_json_bytes(batch_text.as_bytes()).unwrap(),
            batch
        );
    };
    assert_eq!(
        warm_allocations(decode_batch),
        RUNS,
        "a 16-item batch response: its items vector, once per decode"
    );
}

#[test]
fn warm_inline_fleet_read_is_allocation_free() {
    let fleet = Fleet::start(FleetConfig {
        n_dies: 4,
        n_shards: 1,
        ..FleetConfig::default()
    });
    let req = Request::Read {
        die: 2,
        temp_c: 61.5,
        priority: 1,
        deadline_ms: 30_000,
    };
    let inline = |fleet: &Fleet| {
        let h = fleet.health();
        h.counters
            .iter()
            .find(|(name, _)| name == "svc.served_inline")
            .map_or(0, |&(_, v)| v)
    };
    // Warm-up: the first read builds the shard's context, calibrates the
    // die and sizes the conversion workspace.
    for _ in 0..2 {
        assert!(matches!(
            fleet.submit(req.clone()),
            Response::Reading { .. }
        ));
    }
    let inline_before = inline(&fleet);

    let before = allocations();
    for _ in 0..64 {
        let served = matches!(fleet.submit(req.clone()), Response::Reading { .. });
        assert!(served);
    }
    let after = allocations();
    assert_eq!(inline(&fleet) - inline_before, 64, "every read was inline");
    assert_eq!(
        after - before,
        0,
        "warm inline fleet reads must not allocate"
    );

    // A stall makes the next read wait in the shard's queue before it is
    // served; the inject, the wait and the serve allocate nothing.
    let stall = Duration::from_millis(20);
    let before = allocations();
    let injected = fleet.submit(Request::Inject {
        die: 2,
        kind: InjectKind::StallMs(stall.as_millis() as u64),
    });
    let started = Instant::now();
    let served = matches!(fleet.submit(req.clone()), Response::Reading { .. });
    let waited = started.elapsed();
    let after = allocations();
    assert!(matches!(injected, Response::Injected { die: 2 }));
    assert!(served);
    assert!(waited >= stall / 2, "the read must wait out the stall");
    assert_eq!(
        inline(&fleet) - inline_before,
        64 + 1,
        "the inject was served at once, the read waited"
    );
    assert_eq!(
        after - before,
        0,
        "a warm read that waits out a stall must not allocate"
    );
    fleet.shutdown();
}
