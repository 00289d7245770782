//! Wire protocol v2: fixed-width binary frames negotiated at connect.
//!
//! JSON (v1, [`crate::json`]) spends a large share of each request's
//! budget formatting and re-parsing floats. v2 keeps the outer framing —
//! the same 4-byte big-endian length prefix, bounded by
//! [`MAX_FRAME`] before any allocation — but the payload is a tag byte
//! followed by fixed-width **little-endian** fields, so a `read` request
//! is 26 bytes encoded and decoded with no intermediate tree. The tags and
//! field order come from the message schema in [`crate::protocol`]; this
//! module only says how each field kind is laid out: integers and floats
//! at their width, enum codes as one byte, strings as a `u16` length plus
//! UTF-8, sequences as a `u32` count plus their elements.
//!
//! # Negotiation
//!
//! A v2 client opens with a 5-byte hello: [`WIRE_MAGIC`] (`b"PTSV"`) then
//! the version byte it wants. The server answers with the same 4-byte
//! magic and the version it accepts (its highest supported version, capped
//! at the client's request, floored at [`WIRE_V2`]), after which both
//! sides speak binary frames. A legitimate JSON frame can never collide
//! with the hello: its length prefix is at most `MAX_FRAME` = 64 KiB, so
//! its first byte on the wire is always `0x00`, while the magic starts
//! with `b'P'`. The server therefore peeks at a connection's first byte:
//! clients that skip the hello — the python CI smoke, older tooling — are
//! served JSON for the life of the connection.
//!
//! # Hardening
//!
//! Decoded requests pass the same bounds check as JSON ones (it runs after
//! either codec decoded). On top, every field read is bounds-checked
//! against the payload, string lengths are explicit and verified UTF-8, a
//! sequence count larger than the bytes left is refused before the
//! sequence is read, and trailing bytes after a complete message are
//! refused. No byte sequence may panic the decoder (see `tests/wire.rs`).
//! Encoding into a caller-owned buffer allocates nothing, which is what
//! keeps the warm connection path of `server.rs`/`client.rs`
//! allocation-free.

use crate::protocol::{Coded, Decode, Encode, Header, Message, ProtoError, Request, Response};

#[cfg(doc)]
use crate::protocol::MAX_FRAME;

/// Connection-opening magic of a binary-capable client. First byte is
/// non-zero, so it can never be mistaken for a bounded JSON length
/// prefix.
pub const WIRE_MAGIC: [u8; 4] = *b"PTSV";

/// The JSON protocol, as a version number (never sent in a hello — it is
/// what a connection speaks when no hello arrives).
pub const WIRE_V1: u8 = 1;

/// The binary protocol introduced here.
pub const WIRE_V2: u8 = 2;

/// The version a hello asking for `wanted` settles on: [`WIRE_V2`] once
/// the peer asks for it or later, JSON ([`WIRE_V1`]) otherwise.
pub(crate) fn accepted_version(wanted: u8) -> u8 {
    wanted.clamp(WIRE_V1, WIRE_V2)
}

/// Appends fields to a frame buffer.
struct Writer<'a>(&'a mut Vec<u8>);

impl Encode for Writer<'_> {
    fn open(&mut self, h: &Header) {
        if let Some(tag) = h.tag {
            self.0.push(tag);
        }
    }

    fn uint(&mut self, _: &str, v: &u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn byte(&mut self, _: &str, v: &u8) {
        self.0.push(*v);
    }

    fn float(&mut self, _: &str, v: &f64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Strings ride as a `u16` little-endian byte length plus UTF-8 bytes.
    /// Every in-tree producer stays far under the 64 KiB cap (a longer
    /// string would blow the frame bound anyway); defensively, over-long
    /// strings are truncated at a char boundary rather than corrupting the
    /// stream.
    fn text(&mut self, _: &str, v: &str) {
        let mut end = v.len().min(usize::from(u16::MAX));
        while end > 0 && !v.is_char_boundary(end) {
            end -= 1;
        }
        self.0.extend_from_slice(&(end as u16).to_le_bytes());
        self.0.extend_from_slice(&v.as_bytes()[..end]);
    }

    fn code<T: Coded>(&mut self, _: &str, v: &T) {
        self.0.push(v.entry().2);
    }

    fn list<T: Message>(&mut self, _: &str, v: &[T]) {
        self.0.extend_from_slice(&(v.len() as u32).to_le_bytes());
        for item in v {
            item.put(self);
        }
    }

    fn map(&mut self, key: &str, v: &[(String, u64)]) {
        self.0.extend_from_slice(&(v.len() as u32).to_le_bytes());
        for (name, value) in v {
            self.text(key, name);
            self.uint(key, value);
        }
    }

    fn pad(&mut self, key: &str) {
        self.uint(key, &0);
    }
}

/// Bounds-checked reader over one frame payload. Every accessor returns a
/// typed [`ProtoError`] on underrun; nothing here can panic on adversarial
/// input.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take<const N: usize>(&mut self, key: &'static str) -> Result<[u8; N], ProtoError> {
        let bytes = self
            .buf
            .get(self.pos..)
            .and_then(|rest| rest.first_chunk::<N>())
            .ok_or(ProtoError::BadField(key))?;
        self.pos += N;
        Ok(*bytes)
    }

    /// A sequence count. Every element takes at least one byte, so a count
    /// beyond the bytes left is refused before any element is read.
    fn count(&mut self, key: &'static str) -> Result<usize, ProtoError> {
        let n = u32::from_le_bytes(self.take(key)?) as usize;
        if n > self.buf.len() - self.pos {
            return Err(ProtoError::OutOfBounds {
                field: key,
                bound: format!("{n} entries cannot fit the frame"),
            });
        }
        Ok(n)
    }
}

impl Decode for Reader<'_> {
    fn open(&mut self, headers: &[Header]) -> Result<usize, ProtoError> {
        if headers[0].tag.is_none() {
            return Ok(0);
        }
        let [tag] = self.take("tag")?;
        headers
            .iter()
            .position(|h| h.tag == Some(tag))
            .ok_or_else(|| ProtoError::UnknownOp(format!("binary tag {tag}")))
    }

    fn uint(&mut self, key: &'static str) -> Result<u64, ProtoError> {
        self.take(key).map(u64::from_le_bytes)
    }

    fn byte(&mut self, key: &'static str) -> Result<u8, ProtoError> {
        self.take(key).map(|[b]| b)
    }

    fn float(&mut self, key: &'static str) -> Result<f64, ProtoError> {
        self.take(key).map(f64::from_le_bytes)
    }

    fn text(&mut self, key: &'static str) -> Result<String, ProtoError> {
        let len = usize::from(u16::from_le_bytes(self.take(key)?));
        let bytes = self
            .buf
            .get(self.pos..self.pos + len)
            .ok_or(ProtoError::BadField(key))?;
        self.pos += len;
        std::str::from_utf8(bytes)
            .map(str::to_string)
            .map_err(|_| ProtoError::BadField(key))
    }

    fn code<T: Coded>(&mut self, key: &'static str) -> Result<T, ProtoError> {
        let [code] = self.take(key)?;
        T::CODES
            .iter()
            .find(|e| e.2 == code)
            .map(|e| e.0)
            .ok_or(ProtoError::BadField(key))
    }

    fn list<T: Message>(&mut self, key: &'static str) -> Result<Vec<T>, ProtoError> {
        (0..self.count(key)?).map(|_| T::get(self)).collect()
    }

    fn map(&mut self, key: &'static str) -> Result<Vec<(String, u64)>, ProtoError> {
        (0..self.count(key)?)
            .map(|_| Ok((self.text(key)?, self.uint(key)?)))
            .collect()
    }

    fn pad(&mut self, key: &'static str) -> Result<(), ProtoError> {
        self.uint(key).map(drop)
    }
}

fn decode<T: Message>(payload: &[u8]) -> Result<T, ProtoError> {
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    let msg = T::get(&mut r)?;
    // A complete message must consume the whole payload; trailing bytes
    // mean a desynchronized or malicious peer.
    let trailing = payload.len() - r.pos;
    if trailing > 0 {
        return Err(ProtoError::OutOfBounds {
            field: "frame",
            bound: format!("{trailing} trailing bytes"),
        });
    }
    Ok(msg)
}

/// Appends the binary encoding of a request to `buf` (which usually holds
/// a frame started with [`crate::protocol::begin_frame`]). Allocates
/// nothing beyond the buffer's own growth.
pub fn encode_request(req: &Request, buf: &mut Vec<u8>) {
    req.put(&mut Writer(buf));
}

/// Decodes and bounds-checks one binary request payload.
///
/// # Errors
///
/// Returns a typed [`ProtoError`] for unknown tags, truncated fields,
/// trailing bytes, or bound violations — the same violations the JSON
/// parser refuses. Never panics.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    decode(payload).and_then(Request::check_bounds)
}

/// Appends the binary encoding of a response to `buf`. Allocates nothing
/// beyond the buffer's own growth — the warm single-read path never
/// touches the allocator.
pub fn encode_response(rsp: &Response, buf: &mut Vec<u8>) {
    rsp.put(&mut Writer(buf));
}

/// Decodes one binary response payload (the client side).
///
/// # Errors
///
/// Returns a typed [`ProtoError`] for unknown tags, truncated fields,
/// malformed strings, or trailing bytes. Never panics.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    decode(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{
        BatchItem, HealthWire, InjectKind, Quality, Rejection, ShardHealthWire, MAX_PAD,
        MAX_PRIORITY,
    };

    fn round_trip_request(req: &Request) {
        let mut buf = Vec::new();
        encode_request(req, &mut buf);
        assert_eq!(&decode_request(&buf).unwrap(), req);
    }

    fn round_trip_response(rsp: &Response) {
        let mut buf = Vec::new();
        encode_response(rsp, &mut buf);
        assert_eq!(&decode_response(&buf).unwrap(), rsp);
    }

    #[test]
    fn request_round_trips() {
        round_trip_request(&Request::Read {
            die: 17,
            temp_c: 85.25,
            priority: 2,
            deadline_ms: 1500,
        });
        round_trip_request(&Request::BatchRead {
            die0: 3,
            count: 16,
            temp_c: -40.0,
            priority: 0,
            deadline_ms: 250,
        });
        round_trip_request(&Request::Calibrate {
            die: 9,
            deadline_ms: 5000,
        });
        round_trip_request(&Request::Health);
        round_trip_request(&Request::Ping { pad: 1024 });
        round_trip_request(&Request::Inject {
            die: 5,
            kind: InjectKind::StallMs(40),
        });
        round_trip_request(&Request::Shutdown);
    }

    #[test]
    fn response_round_trips() {
        round_trip_response(&Response::Reading {
            die: 17,
            temp_c: 85.014,
            d_vtn_mv: 12.5,
            d_vtp_mv: -9.25,
            energy_pj: 120.75,
            quality: Quality::Recovered,
        });
        round_trip_response(&Response::Batch {
            items: vec![
                BatchItem::Reading {
                    die: 1,
                    temp_c: 25.0,
                    d_vtn_mv: 0.0,
                    d_vtp_mv: 0.0,
                    energy_pj: 100.0,
                    quality: Quality::Nominal,
                },
                BatchItem::Rejected {
                    die: 5,
                    rejection: Rejection::ConversionFailed,
                    detail: "psro bank dead".into(),
                },
            ],
        });
        round_trip_response(&Response::Health(HealthWire {
            shards: vec![ShardHealthWire {
                id: 0,
                state: "up".into(),
                restarts: 1,
                queue_len: 3,
                dies: 16,
            }],
            counters: vec![("svc.reads_served".into(), 42)],
            uptime_ms: 12345,
            coalesce_max: 64,
            wire_version: u64::from(WIRE_V2),
        }));
        round_trip_response(&Response::Rejected {
            rejection: Rejection::Overloaded,
            detail: "queue full".into(),
        });
        round_trip_response(&Response::ShuttingDown);
    }

    #[test]
    fn binary_bounds_match_json() {
        // Same violations the JSON parser refuses: NaN/out-of-range temp,
        // over-limit priority and deadline.
        let mut buf = Vec::new();
        encode_request(
            &Request::Read {
                die: 0,
                temp_c: f64::NAN,
                priority: 1,
                deadline_ms: 100,
            },
            &mut buf,
        );
        assert!(matches!(
            decode_request(&buf),
            Err(ProtoError::OutOfBounds {
                field: "temp_c",
                ..
            })
        ));

        buf.clear();
        encode_request(
            &Request::Read {
                die: 0,
                temp_c: 25.0,
                priority: MAX_PRIORITY + 1,
                deadline_ms: 100,
            },
            &mut buf,
        );
        assert!(matches!(
            decode_request(&buf),
            Err(ProtoError::OutOfBounds {
                field: "priority",
                ..
            })
        ));

        buf.clear();
        encode_request(&Request::Ping { pad: MAX_PAD + 1 }, &mut buf);
        assert!(matches!(
            decode_request(&buf),
            Err(ProtoError::OutOfBounds { field: "pad", .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_refused() {
        let mut buf = Vec::new();
        encode_request(&Request::Health, &mut buf);
        buf.push(0);
        assert!(decode_request(&buf).is_err());

        let mut buf = Vec::new();
        encode_response(&Response::ShuttingDown, &mut buf);
        buf.push(0);
        assert!(decode_response(&buf).is_err());
    }

    #[test]
    fn truncated_fields_are_refused() {
        let mut buf = Vec::new();
        encode_request(
            &Request::Read {
                die: 1,
                temp_c: 25.0,
                priority: 1,
                deadline_ms: 100,
            },
            &mut buf,
        );
        for cut in 0..buf.len() {
            assert!(decode_request(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }
}
