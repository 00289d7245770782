//! Enforces the connection-path allocation contract with a counting
//! global allocator: after one warm-up round sizes the reused read/write
//! buffers, a framed v2 binary round trip — encode request, frame it,
//! read it back, decode, and the same for the response — performs
//! **zero** heap allocations. This is exactly the per-frame work of a
//! warm `serve_conn`/`Client::call` pair; the die-addressed requests and
//! readings it carries are string-free by design so nothing on the hot
//! path needs an owned buffer beyond the two reused ones. A warm
//! `Fleet::submit` read served inline on an idle shard — admission, the
//! conversion in the shard's reused workspace, the metrics — allocates
//! nothing either.
//!
//! Integration tests are separate binaries, so installing a counting
//! `#[global_allocator]` here observes every allocation the codec makes
//! without affecting any other test. The counter sees every thread, so the
//! tests in this binary take turns through [`SERIAL`].

use ptsim_service::protocol::{
    begin_frame, finish_frame, read_frame_into, InjectKind, Quality, Request, Response, MAX_FRAME,
};
use ptsim_service::wire::{decode_request, decode_response, encode_request, encode_response};
use ptsim_service::{Fleet, FleetConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Forwards to the system allocator, counting every allocation.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Held by each test while it runs, so no test allocates inside another's
/// measured window.
static SERIAL: Mutex<()> = Mutex::new(());

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
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
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

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..64 {
        round_trip(&mut wbuf, &mut rbuf, &req, &rsp);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "warm framed round trips must not allocate"
    );
}

#[test]
fn warm_inline_fleet_read_is_allocation_free() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
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
    // die and sizes the conversion workspace. An inject always queues, so
    // its answer shows the worker thread is up: starting a thread allocates.
    for _ in 0..2 {
        assert!(matches!(
            fleet.submit(req.clone()),
            Response::Reading { .. }
        ));
    }
    let heal = Request::Inject {
        die: 0,
        kind: InjectKind::HealDie,
    };
    assert!(matches!(fleet.submit(heal), Response::Injected { die: 0 }));
    let inline_before = inline(&fleet);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..64 {
        let served = matches!(fleet.submit(req.clone()), Response::Reading { .. });
        assert!(served);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(inline(&fleet) - inline_before, 64, "every read was inline");
    assert_eq!(
        after - before,
        0,
        "warm inline fleet reads must not allocate"
    );
    fleet.shutdown();
}
