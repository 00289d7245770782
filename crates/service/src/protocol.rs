//! Wire protocol of the fleet daemon: the message set, its one schema,
//! the request bounds, and the length-prefixed framing both codecs share.
//!
//! A frame is a 4-byte big-endian payload length followed by exactly that
//! many payload bytes: JSON (v1, [`crate::json`]) or fixed-width binary
//! (v2, [`crate::wire`]). The length prefix is bounded by [`MAX_FRAME`]
//! *before* any allocation, so an adversarial prefix cannot make the server
//! reserve gigabytes. Each message is described once — its variants' v2
//! tags and JSON op names, and one ordered field walk with per-field JSON
//! defaults — and both codecs run that description. Every request field has
//! an explicit bound ([`MAX_PRIORITY`], [`MAX_DEADLINE_MS`], [`TEMP_BOUNDS`],
//! [`MAX_PAD`], [`MAX_BATCH`]), checked in one place after either codec
//! decoded; violations surface as typed [`ProtoError`]s that the server
//! answers with a [`Rejection::BadRequest`] — malformed input is a *client*
//! failure and must never take a shard down (see the fuzz suites in
//! `tests/protocol.rs` and `tests/wire.rs`).

use crate::json;
use std::fmt;
use std::io::{self, Read};
use std::mem::discriminant;

/// Hard upper bound on a frame payload, bytes. Checked against the length
/// prefix before any payload allocation.
pub const MAX_FRAME: usize = 64 * 1024;

/// Highest request priority (priorities are `0..=MAX_PRIORITY`; higher is
/// more important, and the load shedder evicts lowest-priority reads
/// first).
pub const MAX_PRIORITY: u8 = 3;

/// Largest accepted per-request deadline, ms.
pub const MAX_DEADLINE_MS: u64 = 300_000;

/// Deadline applied when a request does not carry one, ms.
pub const DEFAULT_DEADLINE_MS: u64 = 5_000;

/// Accepted range of the `temp_c` field (the true junction temperature a
/// read simulates), °C.
pub const TEMP_BOUNDS: (f64, f64) = (-100.0, 400.0);

/// Largest `pad` a ping may request, bytes.
pub const MAX_PAD: u64 = 32 * 1024;

/// Largest `count` a `batch_read` may request. Sized so a full batch of
/// reading items (≲190 bytes each on the wire) always fits one
/// [`MAX_FRAME`] response frame.
pub const MAX_BATCH: u64 = 256;

/// One request frame, already bounds-checked.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Convert once on `die` at true junction temperature `temp_c`.
    Read {
        /// Target die index.
        die: u64,
        /// True junction temperature the conversion simulates, °C.
        temp_c: f64,
        /// Shedding priority, `0..=MAX_PRIORITY` (higher survives longer).
        priority: u8,
        /// Deadline budget, ms.
        deadline_ms: u64,
    },
    /// Convert a stripe of dies on one shard in a single frame: the
    /// targets are `die0, die0+S, die0+2S, …` where `S` is the fleet's
    /// shard count — i.e. the `count` lowest-indexed dies ≥ `die0` owned
    /// by `die0`'s shard. The shard drains the whole stripe through the
    /// lane-parallel solve kernel and answers with one item per die, in
    /// die order; a failing die yields a per-item rejection, never a
    /// failed batch.
    BatchRead {
        /// First die of the stripe (also selects the shard).
        die0: u64,
        /// Stripe length, `1..=MAX_BATCH`.
        count: u64,
        /// True junction temperature every die simulates, °C.
        temp_c: f64,
        /// Shedding priority, `0..=MAX_PRIORITY`.
        priority: u8,
        /// Deadline budget for the whole batch, ms.
        deadline_ms: u64,
    },
    /// Re-run the boot-time self-calibration on `die`.
    Calibrate {
        /// Target die index.
        die: u64,
        /// Deadline budget, ms.
        deadline_ms: u64,
    },
    /// Fleet-wide health summary (served even when every shard is dead).
    Health,
    /// Echo with `pad` bytes of payload — protocol plumbing for timeout
    /// and throughput tests.
    Ping {
        /// Response padding size, bytes (`0..=MAX_PAD`).
        pad: u64,
    },
    /// Chaos hook: perturb one die or its shard.
    Inject {
        /// Target die index.
        die: u64,
        /// What to inject.
        kind: InjectKind,
    },
    /// Begin graceful shutdown.
    Shutdown,
}

/// Chaos-injection kinds understood by [`Request::Inject`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectKind {
    /// Kill the die's PSRO bank: subsequent reads serve degraded
    /// temperature-only values with an explicit quality flag.
    DegradeDie,
    /// Undo [`InjectKind::DegradeDie`].
    HealDie,
    /// The die's next conversion panics *inside* the per-request isolation
    /// boundary — answered with a typed rejection, shard stays up.
    PanicConversion,
    /// The die's next request panics *outside* the per-conversion
    /// boundary — exercises supervision: backoff restart or, past the
    /// budget, Dead.
    PanicWorker,
    /// The die's shard serves nothing for this many ms, counted from when
    /// the inject is served.
    StallMs(u64),
}

/// Reading quality flag, mirroring
/// [`HealthStatus`](ptsim_core::HealthStatus).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quality {
    /// Full-accuracy, nothing anomalous.
    Nominal,
    /// A fault was detected and masked; values are full-accuracy.
    Recovered,
    /// Reduced mode (e.g. temperature-only with a dead PSRO bank) —
    /// reduced accuracy guarantees, flagged, still served.
    Degraded,
}

/// Why a request was refused. Every refusal is typed — the one thing the
/// service never does is drop a request on the floor or serve a corrupted
/// value silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// The deadline passed before (or while) the request was served.
    Timeout,
    /// Admission control shed the request: its shard's queue was full of
    /// same-or-higher-priority work.
    Overloaded,
    /// The target shard is restarting after a crash or permanently dead.
    ShardDown,
    /// The frame was malformed or a field violated its bounds.
    BadRequest,
    /// The die's conversion panicked inside the isolation boundary.
    WorkerPanicked,
    /// The conversion failed with a typed sensor error.
    ConversionFailed,
}

/// Health summary of one shard, as serialized into a health response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHealthWire {
    /// Shard index.
    pub id: u64,
    /// `"up"`, `"restarting"`, or `"dead"`.
    pub state: String,
    /// Restarts of this shard so far (one per panic that escaped a serve).
    pub restarts: u64,
    /// Requests currently queued.
    pub queue_len: u64,
    /// Dies this shard owns.
    pub dies: u64,
}

/// Fleet-wide health summary.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthWire {
    /// Per-shard states.
    pub shards: Vec<ShardHealthWire>,
    /// Merged service counters (name, value), in registration order.
    pub counters: Vec<(String, u64)>,
    /// Milliseconds since the fleet started.
    pub uptime_ms: u64,
    /// Requests one serve handles: always 1 (no coalescing);
    /// kept for wire compatibility. Pre-v2 daemons omit it (decoded as 0).
    pub coalesce_max: u64,
    /// Highest wire-protocol version this daemon negotiates (`2` = the
    /// binary codec; JSON is always available as v1).
    pub wire_version: u64,
}

/// One die's outcome inside a [`Response::Batch`].
#[derive(Debug, Clone, PartialEq)]
pub enum BatchItem {
    /// The die converted (same fields as [`Response::Reading`]).
    Reading {
        /// Die that converted.
        die: u64,
        /// Sensor-reported temperature, °C.
        temp_c: f64,
        /// Tracked NMOS threshold shift, mV.
        d_vtn_mv: f64,
        /// Tracked PMOS threshold shift, mV.
        d_vtp_mv: f64,
        /// Conversion energy, pJ.
        energy_pj: f64,
        /// Quality flag.
        quality: Quality,
    },
    /// The die's conversion was refused; the rest of the batch still
    /// serves.
    Rejected {
        /// Die that failed.
        die: u64,
        /// Why.
        rejection: Rejection,
        /// Human-readable detail.
        detail: String,
    },
}

/// One response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A served conversion.
    Reading {
        /// Die that converted.
        die: u64,
        /// Sensor-reported temperature, °C.
        temp_c: f64,
        /// Tracked NMOS threshold shift, mV (frozen at calibration when
        /// degraded).
        d_vtn_mv: f64,
        /// Tracked PMOS threshold shift, mV.
        d_vtp_mv: f64,
        /// Conversion energy, pJ.
        energy_pj: f64,
        /// Quality flag.
        quality: Quality,
    },
    /// A served `batch_read`: one item per stripe die, in die order.
    Batch {
        /// Per-die outcomes.
        items: Vec<BatchItem>,
    },
    /// A completed recalibration.
    Calibrated {
        /// Die that recalibrated.
        die: u64,
        /// Quality of the calibration pass.
        quality: Quality,
    },
    /// Fleet health summary.
    Health(HealthWire),
    /// Ping echo.
    Pong {
        /// The padding that was requested.
        pad: String,
    },
    /// Chaos injection acknowledged.
    Injected {
        /// Die targeted.
        die: u64,
    },
    /// A typed refusal.
    Rejected {
        /// Why.
        rejection: Rejection,
        /// Human-readable detail.
        detail: String,
    },
    /// Graceful shutdown acknowledged.
    ShuttingDown,
}

impl Response {
    /// Convenience constructor for refusals.
    #[must_use]
    pub fn rejected(rejection: Rejection, detail: impl Into<String>) -> Self {
        Response::Rejected {
            rejection,
            detail: detail.into(),
        }
    }
}

/// Why a request frame was refused at the protocol layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoError {
    /// The payload was not valid JSON.
    Json(json::JsonError),
    /// The frame was valid JSON but not a known request shape.
    UnknownOp(String),
    /// A required field was absent or of the wrong type.
    BadField(&'static str),
    /// A field was present and typed but violated its bound.
    OutOfBounds {
        /// Field name.
        field: &'static str,
        /// What bound it violated.
        bound: String,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Json(e) => write!(f, "malformed frame: {e}"),
            ProtoError::UnknownOp(op) => write!(f, "unknown op {op:?}"),
            ProtoError::BadField(name) => write!(f, "missing or mistyped field {name:?}"),
            ProtoError::OutOfBounds { field, bound } => {
                write!(f, "field {field:?} out of bounds: {bound}")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<json::JsonError> for ProtoError {
    fn from(e: json::JsonError) -> Self {
        ProtoError::Json(e)
    }
}

// ---- the message schema ----
//
// Every message is described once, in the `schema!` invocations below: per
// variant its v2 tag and JSON `ok`/`op` marks, then its fields in wire
// order, each with the kind that carries it, its JSON key and, where JSON
// may omit it, its default. The macro turns each description into a
// `Message` impl that drives any codec through the `Encode`/`Decode`
// traits — binary v2 in `wire.rs`, JSON v1 in `json.rs` — so the two cannot
// disagree on a message's shape.

/// How one variant of a message is marked on the wire.
pub(crate) struct Header {
    /// v2 tag byte (`None` for a struct, which has one shape).
    pub(crate) tag: Option<u8>,
    /// JSON `"ok"` member (responses and batch items).
    pub(crate) ok: Option<bool>,
    /// JSON `"op"` member.
    pub(crate) op: Option<&'static str>,
}

/// The writing half of a codec: one method per kind of field the schema
/// names. Encoding cannot fail.
pub(crate) trait Encode {
    /// Starts a message (or a nested element) of variant `h`.
    fn open(&mut self, h: &Header);
    /// Ends what [`Encode::open`] started.
    fn close(&mut self) {}
    /// An integer (8 bytes in v2).
    fn uint(&mut self, key: &str, v: &u64);
    /// A small integer (1 byte in v2).
    fn byte(&mut self, key: &str, v: &u8);
    /// A float.
    fn float(&mut self, key: &str, v: &f64);
    /// A string.
    fn text(&mut self, key: &str, v: &str);
    /// A [`Coded`] enum.
    fn code<T: Coded>(&mut self, key: &str, v: &T);
    /// A sequence of nested messages.
    fn list<T: Message>(&mut self, key: &str, v: &[T]);
    /// Named counters.
    fn map(&mut self, key: &str, v: &[(String, u64)]);
    /// A v2 slot of eight zero bytes that the variant leaves unused (JSON
    /// omits it).
    fn pad(&mut self, _key: &str) {}

    /// An [`InjectKind`]: its code, then an `ms` field — the stall length
    /// for a stall, and for every other kind a slot both codecs ignore.
    fn inject(&mut self, key: &str, v: &InjectKind) {
        self.code(key, v);
        match v {
            InjectKind::StallMs(ms) => self.uint("ms", ms),
            _ => self.pad("ms"),
        }
    }
}

/// The reading half of a codec, the mirror of [`Encode`]. Every method
/// refuses malformed input with a typed [`ProtoError`] and never panics.
pub(crate) trait Decode {
    /// Reads a message's marks; returns the index of its variant in
    /// `headers`.
    fn open(&mut self, headers: &[Header]) -> Result<usize, ProtoError>;
    /// Whether field `key` is present (JSON may omit optional fields; v2
    /// always carries every field).
    fn has(&self, _key: &str) -> bool {
        true
    }
    /// See [`Encode::uint`].
    fn uint(&mut self, key: &'static str) -> Result<u64, ProtoError>;
    /// See [`Encode::byte`].
    fn byte(&mut self, key: &'static str) -> Result<u8, ProtoError>;
    /// See [`Encode::float`].
    fn float(&mut self, key: &'static str) -> Result<f64, ProtoError>;
    /// See [`Encode::text`].
    fn text(&mut self, key: &'static str) -> Result<String, ProtoError>;
    /// See [`Encode::code`].
    fn code<T: Coded>(&mut self, key: &'static str) -> Result<T, ProtoError>;
    /// See [`Encode::list`].
    fn list<T: Message>(&mut self, key: &'static str) -> Result<Vec<T>, ProtoError>;
    /// See [`Encode::map`].
    fn map(&mut self, key: &'static str) -> Result<Vec<(String, u64)>, ProtoError>;
    /// See [`Encode::pad`].
    fn pad(&mut self, _key: &'static str) -> Result<(), ProtoError> {
        Ok(())
    }

    /// See [`Encode::inject`]. JSON may omit a stall's `ms` (it is 0).
    fn inject(&mut self, key: &'static str) -> Result<InjectKind, ProtoError> {
        match self.code(key)? {
            InjectKind::StallMs(_) if !self.has("ms") => Ok(InjectKind::StallMs(0)),
            InjectKind::StallMs(_) => Ok(InjectKind::StallMs(self.uint("ms")?)),
            other => self.pad("ms").map(|()| other),
        }
    }
}

/// A message type of the schema (generated by `schema!`).
pub(crate) trait Message: Sized {
    /// Every variant's marks, in declaration order.
    const HEADERS: &'static [Header];
    /// Writes one message.
    fn put<E: Encode>(&self, c: &mut E);
    /// Reads one message.
    fn get<D: Decode>(c: &mut D) -> Result<Self, ProtoError>;
}

/// An enum carried as one value: a JSON name and a v2 code per variant,
/// in one table both codecs read.
pub(crate) trait Coded: Copy + 'static {
    /// Every variant with its JSON name and v2 code.
    const CODES: &'static [(Self, &'static str, u8)];

    /// This value's table entry (matched by variant, ignoring payload).
    fn entry(&self) -> &'static (Self, &'static str, u8) {
        let here = discriminant(self);
        Self::CODES
            .iter()
            .find(|e| discriminant(&e.0) == here)
            .expect("every variant has a code")
    }
}

impl Coded for Quality {
    const CODES: &'static [(Self, &'static str, u8)] = &[
        (Quality::Nominal, "nominal", 0),
        (Quality::Recovered, "recovered", 1),
        (Quality::Degraded, "degraded", 2),
    ];
}

impl Coded for Rejection {
    const CODES: &'static [(Self, &'static str, u8)] = &[
        (Rejection::Timeout, "timeout", 0),
        (Rejection::Overloaded, "overloaded", 1),
        (Rejection::ShardDown, "shard_down", 2),
        (Rejection::BadRequest, "bad_request", 3),
        (Rejection::WorkerPanicked, "worker_panicked", 4),
        (Rejection::ConversionFailed, "conversion_failed", 5),
    ];
}

/// `StallMs` decodes as `StallMs(0)`; [`Decode::inject`] reads its `ms`.
impl Coded for InjectKind {
    const CODES: &'static [(Self, &'static str, u8)] = &[
        (InjectKind::DegradeDie, "degrade", 0),
        (InjectKind::HealDie, "heal", 1),
        (InjectKind::PanicConversion, "panic_conversion", 2),
        (InjectKind::PanicWorker, "panic_worker", 3),
        (InjectKind::StallMs(0), "stall", 4),
    ];
}

/// Turns a message description into its [`Message`] impl.
///
/// An enum lists each variant as `Name [tag ok <bool> op "<op>"] shape`
/// (`ok` and `op` only where JSON carries them); a struct lists its shape
/// alone. A shape is `{ field as "key": kind = default, … }`, in wire
/// order: `kind` names the [`Encode`]/[`Decode`] method that carries the
/// field, `as "key"` is there where the JSON key differs from the field
/// name, and `= default` where JSON may omit the field. A variant wrapping
/// a struct writes `(Struct { … })`; the struct's fields travel inline.
macro_rules! schema {
    (enum $ty:ident { $($var:ident [$tag:literal $(ok $ok:literal)? $(op $op:literal)?] $shape:tt)* }) => {
        impl Message for $ty {
            const HEADERS: &'static [Header] = &[$(schema!(@header $tag [$($ok)?] [$($op)?])),*];

            fn put<E: Encode>(&self, c: &mut E) {
                match self {
                    $(schema!(@pat $shape [$ty::$var]) => {
                        c.open(&schema!(@header $tag [$($ok)?] [$($op)?]));
                        schema!(@put c $shape);
                    })*
                }
                c.close();
            }

            fn get<D: Decode>(c: &mut D) -> Result<Self, ProtoError> {
                let tag = Self::HEADERS[c.open(Self::HEADERS)?].tag;
                Ok(match tag {
                    $(Some($tag) => schema!(@get c $shape [$ty::$var]),)*
                    _ => unreachable!("open() indexes HEADERS"),
                })
            }
        }
    };
    (struct $ty:ident $shape:tt) => {
        impl Message for $ty {
            const HEADERS: &'static [Header] = &[Header { tag: None, ok: None, op: None }];

            fn put<E: Encode>(&self, c: &mut E) {
                let schema!(@pat $shape [$ty]) = self;
                c.open(&Self::HEADERS[0]);
                schema!(@put c $shape);
                c.close();
            }

            fn get<D: Decode>(c: &mut D) -> Result<Self, ProtoError> {
                c.open(Self::HEADERS)?;
                Ok(schema!(@get c $shape [$ty]))
            }
        }
    };
    (@header $tag:literal [$($ok:literal)?] [$($op:literal)?]) => {
        Header { tag: Some($tag), ok: schema!(@opt $($ok)?), op: schema!(@opt $($op)?) }
    };
    (@opt) => { None };
    (@opt $x:expr) => { Some($x) };
    (@pat { $($f:ident $(as $key:literal)?: $kind:ident $(= $d:expr)?),* } [$($path:tt)*]) => {
        $($path)* { $($f),* }
    };
    (@pat ($inner:ident $fields:tt) [$($path:tt)*]) => {
        $($path)*(schema!(@pat $fields [$inner]))
    };
    (@put $c:ident { $($f:ident $(as $key:literal)?: $kind:ident $(= $d:expr)?),* }) => {
        $($c.$kind(schema!(@key $f $($key)?), $f);)*
    };
    (@put $c:ident ($inner:ident $fields:tt)) => { schema!(@put $c $fields) };
    (@get $c:ident { $($f:ident $(as $key:literal)?: $kind:ident $(= $d:expr)?),* } [$($path:tt)*]) => {
        $($path)* { $($f: schema!(@field $c $kind, schema!(@key $f $($key)?) $(, $d)?)),* }
    };
    (@get $c:ident ($inner:ident $fields:tt) [$($path:tt)*]) => {
        $($path)*(schema!(@get $c $fields [$inner]))
    };
    (@field $c:ident $kind:ident, $key:expr) => { $c.$kind($key)? };
    (@field $c:ident $kind:ident, $key:expr, $d:expr) => {
        if $c.has($key) { $c.$kind($key)? } else { $d }
    };
    (@key $f:ident) => { stringify!($f) };
    (@key $f:ident $key:literal) => { $key };
}

schema! {
    enum Request {
        Read [1 op "read"] {
            die: uint, temp_c: float, priority: byte = 1, deadline_ms: uint = DEFAULT_DEADLINE_MS
        }
        BatchRead [2 op "batch_read"] {
            die0: uint, count: uint, temp_c: float, priority: byte = 1,
            deadline_ms: uint = DEFAULT_DEADLINE_MS
        }
        Calibrate [3 op "calibrate"] { die: uint, deadline_ms: uint = DEFAULT_DEADLINE_MS }
        Health [4 op "health"] {}
        Ping [5 op "ping"] { pad: uint = 0 }
        Inject [6 op "inject"] { die: uint, kind as "fault": inject }
        Shutdown [7 op "shutdown"] {}
    }
}

schema! {
    enum Response {
        Reading [1 ok true op "read"] {
            die: uint, temp_c: float, d_vtn_mv: float, d_vtp_mv: float, energy_pj: float,
            quality: code
        }
        Batch [2 ok true op "batch_read"] { items: list }
        Calibrated [3 ok true op "calibrate"] { die: uint, quality: code }
        // `coalesce_max` and `wire_version` are absent on pre-v2 daemons; a
        // new client still health-checks an old fleet.
        Health [4 ok true op "health"] (HealthWire {
            uptime_ms: uint, coalesce_max: uint = 0, wire_version: uint = 1, shards: list,
            counters: map
        })
        Pong [5 ok true op "ping"] { pad: text }
        Injected [6 ok true op "inject"] { die: uint }
        Rejected [7 ok false] { rejection as "error": code, detail: text = String::new() }
        ShuttingDown [8 ok true op "shutdown"] {}
    }
}

schema! {
    enum BatchItem {
        Reading [1 ok true] {
            die: uint, temp_c: float, d_vtn_mv: float, d_vtp_mv: float, energy_pj: float,
            quality: code
        }
        Rejected [0 ok false] { die: uint, rejection as "error": code, detail: text = String::new() }
    }
}

schema! {
    struct ShardHealthWire { id: uint, state: text, restarts: uint, queue_len: uint, dies: uint }
}

impl Request {
    /// The request bounds, each checked here and nowhere else; both codecs
    /// run this on every request they decode.
    pub(crate) fn check_bounds(self) -> Result<Self, ProtoError> {
        if let Request::BatchRead { die0, count, .. } = self {
            if count == 0 || count > MAX_BATCH {
                return Err(ProtoError::OutOfBounds {
                    field: "count",
                    bound: format!("{count} outside 1..={MAX_BATCH}"),
                });
            }
            if die0.checked_add(count).is_none() {
                return Err(ProtoError::OutOfBounds {
                    field: "die0",
                    bound: format!("{die0} + {count} overflows the die index space"),
                });
            }
        }
        if let Request::Ping { pad } = self {
            at_most("pad", pad, MAX_PAD)?;
        }
        let (reading, deadline) = match self {
            Request::Read {
                temp_c,
                priority,
                deadline_ms,
                ..
            }
            | Request::BatchRead {
                temp_c,
                priority,
                deadline_ms,
                ..
            } => (Some((temp_c, priority)), Some(("deadline_ms", deadline_ms))),
            Request::Calibrate { deadline_ms, .. } => (None, Some(("deadline_ms", deadline_ms))),
            Request::Inject {
                kind: InjectKind::StallMs(ms),
                ..
            } => (None, Some(("ms", ms))),
            _ => (None, None),
        };
        if let Some((temp_c, priority)) = reading {
            if !(TEMP_BOUNDS.0..=TEMP_BOUNDS.1).contains(&temp_c) {
                return Err(ProtoError::OutOfBounds {
                    field: "temp_c",
                    bound: format!("{temp_c} outside {TEMP_BOUNDS:?}"),
                });
            }
            at_most("priority", u64::from(priority), u64::from(MAX_PRIORITY))?;
        }
        if let Some((field, ms)) = deadline {
            at_most(field, ms, MAX_DEADLINE_MS)?;
        }
        Ok(self)
    }

    /// Parses and bounds-checks one JSON request payload.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ProtoError`] for malformed JSON, unknown ops,
    /// missing/mistyped fields, or bound violations. Never panics.
    pub fn from_json_bytes(payload: &[u8]) -> Result<Self, ProtoError> {
        json::decode(payload).and_then(Request::check_bounds)
    }

    /// Serializes the request as a JSON payload (the client side of
    /// [`Request::from_json_bytes`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

fn at_most(field: &'static str, x: u64, max: u64) -> Result<(), ProtoError> {
    if x > max {
        return Err(ProtoError::OutOfBounds {
            field,
            bound: format!("{x} > {max}"),
        });
    }
    Ok(())
}

impl Response {
    /// Serializes the response as a JSON payload.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }

    /// Parses a JSON response payload (the client side).
    ///
    /// # Errors
    ///
    /// Returns a typed [`ProtoError`]; never panics.
    pub fn from_json_bytes(payload: &[u8]) -> Result<Self, ProtoError> {
        json::decode(payload)
    }
}

// ---- framing ----

/// How reading one frame ended.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The length prefix exceeded the configured bound — refused before
    /// any allocation.
    Oversize {
        /// Advertised payload length.
        advertised: usize,
        /// Configured bound.
        max: usize,
    },
    /// The stream ended (or timed out) mid-frame.
    Truncated {
        /// Bytes the frame still owed.
        missing: usize,
    },
    /// Any other I/O failure.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed at frame boundary"),
            FrameError::Oversize { advertised, max } => {
                write!(
                    f,
                    "frame of {advertised} bytes exceeds the {max}-byte bound"
                )
            }
            FrameError::Truncated { missing } => {
                write!(f, "frame truncated ({missing} bytes missing)")
            }
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Whether `e` is a read or write timeout (`WouldBlock`/`TimedOut`).
pub(crate) fn is_poll_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one length-prefixed frame into a caller-owned buffer, reusing its
/// capacity, and refuses an oversize prefix before growing the buffer. A
/// warm connection that recycles the same buffer serves every frame at or
/// below the high-water mark without touching the allocator.
///
/// A read timeout **at a frame boundary** (zero bytes consumed) surfaces
/// as [`FrameError::Io`] with a `WouldBlock`/`TimedOut` kind — the server
/// uses these as idle-poll ticks. A timeout **mid-frame** is a stalled
/// sender and surfaces as [`FrameError::Truncated`]: the stream is
/// desynchronized at that point and the connection must be dropped.
///
/// # Errors
///
/// [`FrameError::Closed`] on clean EOF at a frame boundary,
/// [`FrameError::Oversize`] / [`FrameError::Truncated`] on protocol
/// violations, [`FrameError::Io`] otherwise.
pub fn read_frame_into<R: Read>(
    r: &mut R,
    max: usize,
    buf: &mut Vec<u8>,
) -> Result<(), FrameError> {
    let mut prefix = [0u8; 4];
    let first = loop {
        match r.read(&mut prefix) {
            Ok(0) => return Err(FrameError::Closed),
            Ok(n) => break n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    };
    read_owed(r, &mut prefix[first..])?;
    let advertised = u32::from_be_bytes(prefix) as usize;
    if advertised > max {
        return Err(FrameError::Oversize { advertised, max });
    }
    buf.clear();
    buf.resize(advertised, 0);
    read_owed(r, buf)
}

/// Fills `dst` from a peer already committed to sending it: EOF or a read
/// timeout here is a [`FrameError::Truncated`] naming the bytes still owed.
pub(crate) fn read_owed<R: Read>(r: &mut R, dst: &mut [u8]) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < dst.len() {
        match r.read(&mut dst[filled..]) {
            Ok(0) => {
                return Err(FrameError::Truncated {
                    missing: dst.len() - filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_poll_timeout(&e) => {
                return Err(FrameError::Truncated {
                    missing: dst.len() - filled,
                })
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Starts a reusable outgoing frame: clears the buffer and reserves the
/// 4-byte length slot. Encode the payload directly after, then call
/// [`finish_frame`] to patch the prefix — one buffer, one `write_all`, no
/// intermediate copies.
pub fn begin_frame(buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(&[0u8; 4]);
}

/// Patches the length prefix of a frame started with [`begin_frame`].
///
/// # Errors
///
/// Refuses payloads longer than [`MAX_FRAME`] with `InvalidInput`.
pub fn finish_frame(buf: &mut [u8]) -> io::Result<()> {
    debug_assert!(buf.len() >= 4, "finish_frame on a buffer without a prefix");
    let payload = buf.len() - 4;
    if payload > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame payload exceeds MAX_FRAME",
        ));
    }
    buf[0..4].copy_from_slice(&(payload as u32).to_be_bytes());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        begin_frame(&mut buf);
        buf.extend_from_slice(b"{\"op\":\"health\"}");
        finish_frame(&mut buf).unwrap();
        let mut cursor = io::Cursor::new(buf);
        let mut payload = Vec::new();
        read_frame_into(&mut cursor, MAX_FRAME, &mut payload).unwrap();
        assert_eq!(payload, b"{\"op\":\"health\"}");
        assert!(matches!(
            read_frame_into(&mut cursor, MAX_FRAME, &mut payload),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn oversize_prefix_refused_before_allocation() {
        let mut buf = Vec::from(u32::MAX.to_be_bytes());
        buf.extend_from_slice(b"xx");
        let err =
            read_frame_into(&mut io::Cursor::new(buf), MAX_FRAME, &mut Vec::new()).unwrap_err();
        assert!(
            matches!(err, FrameError::Oversize { advertised, .. } if advertised == u32::MAX as usize)
        );
    }

    #[test]
    fn truncated_frame_reports_missing_bytes() {
        let mut buf = Vec::from(10u32.to_be_bytes());
        buf.extend_from_slice(b"abc");
        let err =
            read_frame_into(&mut io::Cursor::new(buf), MAX_FRAME, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, FrameError::Truncated { missing: 7 }));
    }

    #[test]
    fn read_request_bounds_are_enforced() {
        let ok = Request::from_json_bytes(
            br#"{"op":"read","die":3,"temp_c":85.0,"priority":2,"deadline_ms":100}"#,
        )
        .unwrap();
        assert_eq!(
            ok,
            Request::Read {
                die: 3,
                temp_c: 85.0,
                priority: 2,
                deadline_ms: 100
            }
        );
        // Defaults apply when optional fields are absent.
        let defaulted = Request::from_json_bytes(br#"{"op":"read","die":0,"temp_c":25}"#).unwrap();
        assert_eq!(
            defaulted,
            Request::Read {
                die: 0,
                temp_c: 25.0,
                priority: 1,
                deadline_ms: DEFAULT_DEADLINE_MS
            }
        );
        for bad in [
            &br#"{"op":"read","die":3,"temp_c":1000.0}"#[..],
            br#"{"op":"read","die":3,"temp_c":25,"priority":9}"#,
            br#"{"op":"read","die":3,"temp_c":25,"deadline_ms":99999999}"#,
            br#"{"op":"read","die":-1,"temp_c":25}"#,
            br#"{"op":"read","temp_c":25}"#,
            br#"{"op":"warp","die":3}"#,
            br#"{"die":3}"#,
            br#"not json"#,
        ] {
            assert!(Request::from_json_bytes(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn batch_read_bounds_are_enforced() {
        let ok = Request::from_json_bytes(
            br#"{"op":"batch_read","die0":2,"count":16,"temp_c":85.0,"priority":2,"deadline_ms":100}"#,
        )
        .unwrap();
        assert_eq!(
            ok,
            Request::BatchRead {
                die0: 2,
                count: 16,
                temp_c: 85.0,
                priority: 2,
                deadline_ms: 100
            }
        );
        // Defaults apply when optional fields are absent.
        let defaulted =
            Request::from_json_bytes(br#"{"op":"batch_read","die0":0,"count":1,"temp_c":25}"#)
                .unwrap();
        assert_eq!(
            defaulted,
            Request::BatchRead {
                die0: 0,
                count: 1,
                temp_c: 25.0,
                priority: 1,
                deadline_ms: DEFAULT_DEADLINE_MS
            }
        );
        for bad in [
            &br#"{"op":"batch_read","die0":0,"count":0,"temp_c":25}"#[..],
            br#"{"op":"batch_read","die0":0,"count":257,"temp_c":25}"#,
            br#"{"op":"batch_read","die0":18446744073709551615,"count":2,"temp_c":25}"#,
            br#"{"op":"batch_read","die0":0,"count":4,"temp_c":1000.0}"#,
            br#"{"op":"batch_read","die0":0,"count":4,"temp_c":25,"priority":9}"#,
            br#"{"op":"batch_read","die0":0,"temp_c":25}"#,
            br#"{"op":"batch_read","count":4,"temp_c":25}"#,
            br#"{"op":"batch_read","die0":0,"count":4}"#,
        ] {
            assert!(Request::from_json_bytes(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn batch_response_round_trips_mixed_items() {
        let resp = Response::Batch {
            items: vec![
                BatchItem::Reading {
                    die: 3,
                    temp_c: 61.25,
                    d_vtn_mv: -4.5,
                    d_vtp_mv: 2.0,
                    energy_pj: 123.0,
                    quality: Quality::Nominal,
                },
                BatchItem::Rejected {
                    die: 7,
                    rejection: Rejection::ConversionFailed,
                    detail: "channel failed".to_string(),
                },
            ],
        };
        let parsed = Response::from_json_bytes(resp.to_json().as_bytes()).unwrap();
        assert_eq!(parsed, resp);
    }

    #[test]
    fn full_batch_response_fits_one_frame() {
        // MAX_BATCH is sized so the largest possible batch response still
        // frames: fill every item with worst-case-width numbers.
        let items = (0..MAX_BATCH)
            .map(|die| BatchItem::Reading {
                die: u64::MAX - die,
                temp_c: -99.123_456_789_012_35,
                d_vtn_mv: -123.456_789_012_345_67,
                d_vtp_mv: -123.456_789_012_345_67,
                energy_pj: 123_456.789_012_345_67,
                quality: Quality::Recovered,
            })
            .collect();
        let mut buf = Vec::new();
        begin_frame(&mut buf);
        buf.extend_from_slice(Response::Batch { items }.to_json().as_bytes());
        finish_frame(&mut buf).expect("a full batch response must fit MAX_FRAME");
    }

    #[test]
    fn proto_errors_display() {
        let e = Request::from_json_bytes(br#"{"op":"warp"}"#).unwrap_err();
        assert!(e.to_string().contains("warp"));
        let e = Request::from_json_bytes(br#"{"op":"read","die":1,"temp_c":900}"#).unwrap_err();
        assert!(e.to_string().contains("temp_c"));
    }
}
