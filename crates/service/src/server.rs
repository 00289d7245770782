//! The TCP front-end: hardened framing over `std::net`, one thread per
//! connection, idle reaping, slow-client write timeouts, and a strike
//! budget for malformed frames.
//!
//! Nothing a client sends can take the daemon down: oversize length
//! prefixes are refused before allocation, malformed payloads are
//! answered with typed `bad_request` rejections (up to a strike budget,
//! then the connection is closed), a stalled sender is dropped at the
//! first mid-frame timeout, and a client that stops reading its replies
//! hits the write timeout and is disconnected — the fleet never blocks on
//! one peer.

use crate::fleet::Fleet;
use crate::json;
use crate::protocol::{
    begin_frame, finish_frame, is_poll_timeout, read_frame_into, read_owed, FrameError, Rejection,
    Request, Response, MAX_FRAME,
};
use crate::shard::{recover, SvcMetrics};
use crate::wire::{self, WIRE_MAGIC, WIRE_V1, WIRE_V2};
use std::io::{self, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Malformed frames tolerated per connection before it is closed.
pub const BAD_FRAME_STRIKES: u32 = 8;

/// Per-`read` poll granularity of a connection thread: bounds how long it
/// takes to notice shutdown and to reap an idle peer.
const POLL: Duration = Duration::from_millis(100);

/// Front-end tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Drop a connection after this long without a complete frame.
    pub idle_timeout: Duration,
    /// Drop a connection whose peer reads replies slower than this.
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(2),
        }
    }
}

/// Raises the shutdown flag and wakes the accept loop, which blocks in
/// `accept`, by connecting to the listener at `wake` once: `accept` returns
/// and the loop re-checks the flag. A failed wake leaves the loop parked
/// until the next real connection; it still exits then.
fn request_stop(stop: &AtomicBool, wake: Option<SocketAddr>) {
    stop.store(true, Ordering::SeqCst);
    if let Some(addr) = wake {
        let _ = TcpStream::connect(addr);
    }
}

/// A running daemon: the fleet plus its TCP accept loop.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: thread::JoinHandle<()>,
    fleet: Arc<Fleet>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

impl Server {
    /// Binds `addr` (`"127.0.0.1:0"` picks an ephemeral port) and starts
    /// accepting.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(fleet: Fleet, addr: &str, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let fleet = Arc::new(fleet);
        let accept = {
            let stop = Arc::clone(&stop);
            let fleet = Arc::clone(&fleet);
            thread::Builder::new()
                .name("ptsim-accept".into())
                .spawn(move || accept_loop(&listener, &fleet, &stop, cfg))
                .expect("spawn accept loop")
        };
        Ok(Server {
            addr: local,
            stop,
            accept,
            fleet,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown without blocking: the accept loop exits at once,
    /// connection threads within one poll interval. A `shutdown` request
    /// frame does this too.
    pub fn stop(&self) {
        // A wildcard bind is woken through loopback.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        request_stop(&self.stop, Some(wake));
    }

    /// Blocks until the accept loop (and every connection thread) exits,
    /// then shuts the fleet down gracefully.
    pub fn join(self) {
        let _ = self.accept.join();
        self.fleet.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    fleet: &Arc<Fleet>,
    stop: &Arc<AtomicBool>,
    cfg: ServerConfig,
) {
    let mut conns: Vec<thread::JoinHandle<()>> = Vec::new();
    let mut next_id: u64 = 0;
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        // An accept error belongs to one failed handshake (or a transient
        // descriptor shortage); the listener itself is still good.
        let Ok(stream) = conn else { continue };
        // Everything per-connection — metrics included — happens on the
        // connection thread: the accept loop only spawns, so a burst of
        // setup work (or a contended front-metrics lock) never delays the
        // next accept. This is what keeps the health-probe tail flat under
        // load.
        let fleet = Arc::clone(fleet);
        let stop = Arc::clone(stop);
        let handle = thread::Builder::new()
            .name(format!("ptsim-conn-{next_id}"))
            .spawn(move || serve_conn(stream, &fleet, &stop, cfg))
            .expect("spawn connection thread");
        next_id += 1;
        conns.push(handle);
        // Opportunistically reap finished connection threads so a
        // long-lived daemon does not accumulate handles.
        conns.retain(|h| !h.is_finished());
    }
    for h in conns {
        let _ = h.join();
    }
}

/// Encodes `resp` into the connection's reusable write buffer (binary for
/// a v2 connection, JSON otherwise) and sends it as one frame. On a warm
/// connection the v2 path allocates nothing: the payload is encoded
/// directly behind the reserved length slot and shipped with a single
/// `write_all`.
fn send_response(
    stream: &mut TcpStream,
    wbuf: &mut Vec<u8>,
    resp: &Response,
    v2: bool,
) -> io::Result<()> {
    begin_frame(wbuf);
    if v2 {
        wire::encode_response(resp, wbuf);
    } else {
        json::encode(resp, wbuf);
    }
    finish_frame(wbuf)?;
    stream.write_all(wbuf)?;
    stream.flush()
}

/// Settles a connection's codec from its first byte, without consuming
/// it unless it starts a hello. A binary-capable client opens with
/// `WIRE_MAGIC` + the version it wants and is answered with the magic and
/// the accepted version. Anything else is a JSON frame's length prefix
/// (always `0x00`-leading, since `MAX_FRAME` fits 17 bits) and is left
/// unread for the frame reader.
///
/// # Errors
///
/// As [`read_frame_into`] at a frame boundary: a read timeout before the
/// first byte is an idle tick. Five bytes starting with `b'P'` that are
/// not a hello are what a v1 reader would take for an oversize prefix.
fn negotiate(stream: &mut TcpStream) -> Result<u8, FrameError> {
    let mut first = [0u8; 1];
    match stream.peek(&mut first) {
        Ok(0) => return Err(FrameError::Closed),
        Ok(_) => {}
        Err(e) => return Err(FrameError::Io(e)),
    }
    if first[0] != WIRE_MAGIC[0] {
        return Ok(WIRE_V1);
    }
    let mut hello = [0u8; 5];
    read_owed(stream, &mut hello)?;
    if hello[..4] != WIRE_MAGIC {
        let prefix = [hello[0], hello[1], hello[2], hello[3]];
        return Err(FrameError::Oversize {
            advertised: u32::from_be_bytes(prefix) as usize,
            max: MAX_FRAME,
        });
    }
    hello[4] = wire::accepted_version(hello[4]);
    stream
        .write_all(&hello)
        .and_then(|()| stream.flush())
        .map_err(FrameError::Io)?;
    Ok(hello[4])
}

fn serve_conn(
    mut stream: TcpStream,
    fleet: &Arc<Fleet>,
    stop: &Arc<AtomicBool>,
    cfg: ServerConfig,
) {
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    let _ = stream.set_nodelay(true);
    let mut strikes = 0u32;
    let mut last_frame = Instant::now();
    let mut rbuf: Vec<u8> = Vec::new();
    let mut wbuf: Vec<u8> = Vec::new();
    let count = |pick: fn(&SvcMetrics) -> ptsim_obs::CounterId| {
        recover(fleet.front_metrics.lock()).inc(pick);
    };
    // Answers and counts a frame the server refuses itself.
    let refuse = |detail: String| {
        let resp = Response::rejected(Rejection::BadRequest, detail);
        let mut m = recover(fleet.front_metrics.lock());
        m.inc(|m| m.bad_frames);
        m.tally(&resp);
        resp
    };
    count(|m| m.conns);

    // `None` until the connection's first byte settles the codec.
    let mut v2: Option<bool> = None;
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let negotiating = v2.is_none();
        let read = if negotiating {
            negotiate(&mut stream).map(|accepted| v2 = Some(accepted == WIRE_V2))
        } else {
            read_frame_into(&mut stream, MAX_FRAME, &mut rbuf)
        };
        let v2_reply = v2 == Some(true);
        match read {
            Ok(()) => {
                last_frame = Instant::now();
            }
            Err(FrameError::Closed) => return,
            Err(FrameError::Io(e)) if is_poll_timeout(&e) => {
                if last_frame.elapsed() >= cfg.idle_timeout {
                    count(|m| m.idle_reaps);
                    return;
                }
                continue;
            }
            Err(FrameError::Oversize { advertised, max }) => {
                // The stream is desynchronized after a refused prefix:
                // answer once, then close.
                count(|m| m.oversize_frames);
                let resp = refuse(format!(
                    "frame of {advertised} bytes exceeds the {max}-byte bound"
                ));
                let _ = send_response(&mut stream, &mut wbuf, &resp, v2_reply);
                return;
            }
            Err(FrameError::Truncated { .. }) => {
                count(|m| m.bad_frames);
                return;
            }
            Err(FrameError::Io(_)) => return,
        }
        if negotiating {
            if v2_reply {
                count(|m| m.wire_v2_conns);
            }
            continue;
        }

        let parsed = if v2_reply {
            count(|m| m.wire_v2_frames);
            wire::decode_request(&rbuf)
        } else {
            Request::from_json_bytes(&rbuf)
        };
        let response = match parsed {
            Err(e) => {
                strikes += 1;
                refuse(e.to_string())
            }
            Ok(Request::Shutdown) => {
                let _ = send_response(&mut stream, &mut wbuf, &Response::ShuttingDown, v2_reply);
                // This connection's local address is the listener's.
                request_stop(stop, stream.local_addr().ok());
                return;
            }
            Ok(req) => fleet.submit(req),
        };
        match send_response(&mut stream, &mut wbuf, &response, v2_reply) {
            Ok(()) => {}
            Err(e) if is_poll_timeout(&e) => {
                // The peer stopped reading; do not let it wedge a thread.
                count(|m| m.slow_client_drops);
                return;
            }
            Err(_) => return,
        }
        if strikes >= BAD_FRAME_STRIKES {
            return;
        }
    }
}
