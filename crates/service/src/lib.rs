//! Fault-tolerant wafer-fleet telemetry service.
//!
//! Exposes a population of virtual process-temperature sensor dies (the
//! SOCC 2012 design the rest of the workspace models) over a hardened TCP
//! protocol, with the failure model a production telemetry plane needs:
//!
//! * **Supervision** — dies are striped across shards, and the thread that
//!   submits a request serves it inside `catch_unwind`. A panic that
//!   escapes a request is answered typed and restarts its shard after a
//!   bounded exponential backoff; a shard that exhausts its restart budget
//!   goes `Dead` and answers typed rejections while the rest of the fleet
//!   keeps serving ([`fleet`], [`shard`]).
//! * **Admission control** — bounded per-shard queues, per-request
//!   deadlines, typed `timeout`/`overloaded`/`shard_down` rejections, and
//!   priority-aware shedding (lowest-priority reads go first). A request
//!   is always *answered*; it is never dropped silently ([`fleet`],
//!   [`shard`]).
//! * **Protocol hardening** — length-prefixed frames with a hard
//!   frame-size bound enforced before allocation, per-field bounds on
//!   every request checked in one place, slow-client write timeouts, and
//!   idle-connection reaping ([`protocol`], [`server`]). Two codecs share
//!   that framing and one message schema: JSON (v1, the fallback every
//!   client speaks, [`json`]) and a fixed-width binary codec negotiated
//!   by magic at connect (v2, [`wire`]).
//! * **Graceful degradation** — a die whose process readout dies keeps
//!   serving temperature-only readings carrying an explicit
//!   `"degraded"` quality flag ([`shard`]).
//!
//! Zero dependencies beyond the workspace: `std::net` sockets, an
//! in-tree bounded JSON codec that decodes fields straight from the frame
//! bytes ([`json`]), and the in-tree [`ptsim_obs`] counters that back the
//! fleet-wide `/health` summary, each answer counted once from its
//! `Response`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod client;
pub mod fleet;
pub mod json;
pub mod protocol;
pub mod server;
pub mod shard;
pub mod wire;

pub use client::{Client, ClientError};
pub use fleet::{Fleet, FleetConfig};
pub use protocol::{
    BatchItem, FrameError, HealthWire, InjectKind, ProtoError, Quality, Rejection, Request,
    Response, MAX_BATCH, MAX_FRAME,
};
pub use server::{Server, ServerConfig};
pub use wire::{WIRE_MAGIC, WIRE_V1, WIRE_V2};
