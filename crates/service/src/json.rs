//! Minimal hand-rolled JSON — the v1 wire format of the fleet protocol.
//!
//! Zero-dependency by design (the workspace allows only `std`): the JSON
//! codec of the message schema in [`crate::protocol`]. Decoding makes one
//! validating pass (recursive descent with explicit depth and size bounds,
//! RFC 8259 numbers) that notes where each member of the object sits; a
//! field then parses its value straight from the frame bytes, so only
//! strings the message keeps are copied. Encoding writes compact text into
//! the frame buffer, escaping control characters and rendering non-finite
//! numbers as `null` (JSON has no NaN/∞).

use crate::protocol::{Coded, Decode, Encode, Header, Message, ProtoError};
use std::fmt;
use std::io::Write;

/// Maximum nesting depth a payload may have. Protocol frames are flat
/// (depth ≤ 3); the bound exists so a hostile frame of `[[[[…` cannot
/// overflow the validating pass's stack.
pub const MAX_DEPTH: usize = 16;

/// Why a byte sequence failed to parse as JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Unexpected byte (or end of input) at `offset`.
    Unexpected {
        /// Byte offset of the error.
        offset: usize,
        /// What the parser was looking at.
        context: &'static str,
    },
    /// Nesting exceeded [`MAX_DEPTH`].
    TooDeep,
    /// Trailing non-whitespace after the top-level value.
    TrailingData {
        /// Offset of the first trailing byte.
        offset: usize,
    },
    /// The input was not valid UTF-8 where a string required it.
    InvalidUtf8,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Unexpected { offset, context } => {
                write!(f, "malformed JSON at byte {offset} ({context})")
            }
            JsonError::TooDeep => write!(f, "JSON nesting deeper than {MAX_DEPTH}"),
            JsonError::TrailingData { offset } => {
                write!(f, "trailing data after JSON value at byte {offset}")
            }
            JsonError::InvalidUtf8 => write!(f, "invalid UTF-8 in JSON string"),
        }
    }
}

impl std::error::Error for JsonError {}

/// Checks that `bytes` hold one JSON value and returns a reader of it, or
/// locates the first malformed byte. Never panics (see the fuzz suite in
/// `tests/protocol.rs`).
fn validate(bytes: &[u8]) -> Result<Reader<'_>, JsonError> {
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let r = p.reader()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(JsonError::TrailingData { offset: p.pos });
    }
    Ok(r)
}

/// The validating pass: a recursive-descent scan that allocates nothing.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, context: &'static str) -> JsonError {
        JsonError::Unexpected {
            offset: self.pos,
            context,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, s: &[u8], context: &'static str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(s) {
            self.pos += s.len();
            Ok(())
        } else {
            Err(self.err(context))
        }
    }

    /// The value at `pos` as a reader: an object's members are indexed on
    /// the way.
    fn reader(&mut self) -> Result<Reader<'a>, JsonError> {
        let (start, mut members, mut len) = (self.pos, [(Val(b""), Val(b"")); MEMBERS], 0);
        match self.peek() {
            Some(b'{') => self.items(0, &mut |member| {
                if let Some(slot) = members.get_mut(len) {
                    *slot = member;
                }
                len += 1;
            })?,
            _ => self.value(0)?,
        }
        let obj = Val(&self.bytes[start..self.pos]);
        Ok(Reader { obj, members, len })
    }

    fn value(&mut self, depth: usize) -> Result<(), JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::TooDeep);
        }
        match self.peek() {
            Some(b'{' | b'[') => self.items(depth, &mut |_| {}),
            Some(b'"') => self.string(&mut |_| {}),
            Some(b't') => self.eat(b"true", "keyword"),
            Some(b'f') => self.eat(b"false", "keyword"),
            Some(b'n') => self.eat(b"null", "keyword"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("value")),
        }
    }

    /// An object or an array, from its opening byte: hands `found` each
    /// member or element, in order.
    fn items(&mut self, depth: usize, found: &mut impl FnMut(Member<'a>)) -> Result<(), JsonError> {
        let keyed = self.peek() == Some(b'{');
        let close = if keyed { b'}' } else { b']' };
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let mut key = Val(b"");
            if keyed {
                let start = self.pos;
                self.string(&mut |_| {})?;
                key = Val(&self.bytes[start..self.pos]);
                self.skip_ws();
                self.eat(b":", "object colon")?;
                self.skip_ws();
            }
            let start = self.pos;
            self.value(depth + 1)?;
            found((key, Val(&self.bytes[start..self.pos])));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ if keyed => return Err(self.err("object separator")),
                _ => return Err(self.err("array separator")),
            }
        }
    }

    /// A string, from its opening quote to just past its closing one.
    /// Hands `out` its text in order: each run of plain text, then each
    /// escaped character, decoded.
    fn string(&mut self, out: &mut impl FnMut(&str)) -> Result<(), JsonError> {
        self.eat(b"\"", "string open")?;
        loop {
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            out(std::str::from_utf8(&rest[..run]).map_err(|_| JsonError::InvalidUtf8)?);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("escape"))?;
                    self.pos += 1;
                    let c = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode()?,
                        _ => return Err(self.err("escape")),
                    };
                    out(c.encode_utf8(&mut [0; 4]));
                }
                Some(_) => return Err(self.err("control char in string")),
            }
        }
    }

    /// The character of a `\u` escape whose `\u` was just consumed.
    fn unicode(&mut self) -> Result<char, JsonError> {
        let cp = self.hex4()?;
        if (0xD800..0xDC00).contains(&cp) {
            // High surrogate: require the low half.
            self.eat(b"\\", "surrogate pair")?;
            self.eat(b"u", "surrogate pair")?;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("low surrogate"));
            }
            let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            char::from_u32(c).ok_or_else(|| self.err("surrogate pair"))
        } else {
            char::from_u32(cp).ok_or_else(|| self.err("codepoint"))
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.err("unicode escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("unicode escape"))?;
            cp = cp * 16 + d;
            self.pos += 1;
        }
        Ok(cp)
    }

    /// A number: every byte that may belong to one, which must then spell
    /// a finite RFC 8259 number. `f64::from_str` checks most of that
    /// grammar, but also takes `01`, `1.` and `-.5`.
    fn number(&mut self) -> Result<(), JsonError> {
        let start = self.pos;
        self.pos += 1;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.bytes[start..self.pos];
        let int = text.strip_prefix(b"-").unwrap_or(text);
        let strict = matches!(
            int,
            [b'1'..=b'9', ..] | [b'0'] | [b'0', b'.' | b'e' | b'E', ..]
        ) && (text.split(|&b| b == b'.').skip(1))
            .all(|f| f.first().is_some_and(u8::is_ascii_digit));
        // Digits around at most one `.` are finite below 300 bytes, no
        // parse needed; "1e999" parses to +inf — reject rather than
        // smuggle non-finite values past the field bounds.
        let mut odd = int.iter().filter(|b| !b.is_ascii_digit());
        if strict
            && text.len() <= 300
            && matches!((odd.next(), odd.next()), (None | Some(b'.'), None))
        {
            return Ok(());
        }
        let context = match Val(text).as_f64() {
            Some(x) if strict && x.is_finite() => return Ok(()),
            Some(_) if strict => "non-finite number",
            _ => "number",
        };
        Err(JsonError::Unexpected {
            offset: start,
            context,
        })
    }
}

// ---- reading a validated payload: everything below runs only on bytes
// `validate` accepted, so running the validating pass again cannot fail.

/// One value of a validated payload, exactly its bytes.
#[derive(Clone, Copy)]
struct Val<'a>(&'a [u8]);

/// An object member as (key, value); an array element has an empty key.
type Member<'a> = (Val<'a>, Val<'a>);

impl<'a> Val<'a> {
    /// This value, if it opens with `open` (`{` an object, `[` an array).
    fn opens(self, open: u8) -> Option<Self> {
        (self.0.first() == Some(&open)).then_some(self)
    }

    /// Hands `found` each member of this object or element of this array
    /// (see [`Parser::items`]).
    fn each(self, found: &mut impl FnMut(Member<'a>)) {
        let bytes = self.0;
        let _ = Parser { bytes, pos: 0 }.items(0, found);
    }

    /// The number, if this is one (no other JSON value parses as `f64`).
    fn as_f64(self) -> Option<f64> {
        std::str::from_utf8(self.0).ok()?.parse().ok()
    }

    /// The number as a non-negative integer, if it is one exactly
    /// (rejects fractions, negatives, and magnitudes beyond 2⁵³ where
    /// `f64` stops being exact).
    fn as_u64(self) -> Option<u64> {
        let x = self.as_f64()?;
        (x.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&x)).then_some(x as u64)
    }

    /// The boolean, if this is one.
    fn as_bool(self) -> Option<bool> {
        matches!(self.0, b"true" | b"false").then(|| self.0 == b"true")
    }

    /// Whether this is a string that, unescaped, is `s`. Allocates nothing.
    fn is(self, s: &str) -> bool {
        let raw = self.opens(b'"').and_then(|v| v.0.get(1..v.0.len() - 1));
        if let Some(raw) = raw.filter(|raw| !raw.contains(&b'\\')) {
            return raw == s.as_bytes();
        }
        let (bytes, mut rest) = (self.0, Some(s));
        let _ =
            Parser { bytes, pos: 0 }.string(&mut |t| rest = rest.and_then(|r| r.strip_prefix(t)));
        rest == Some("")
    }

    /// This string, unescaped (see [`Parser::string`]), in one allocation.
    fn unescape(self) -> String {
        let (bytes, mut out) = (self.0, String::with_capacity(self.0.len()));
        let _ = Parser { bytes, pos: 0 }.string(&mut |piece| out.push_str(piece));
        out
    }
}

// ---- the JSON codec of the message schema ----

/// Writes a message as compact JSON text straight into a frame buffer.
struct Writer<'a>(&'a mut Vec<u8>);

impl Writer<'_> {
    /// Starts member `key`: after a comma, unless it is the first member
    /// of the object just opened.
    fn key(&mut self, key: &str) {
        if self.0.last() != Some(&b'{') {
            self.0.push(b',');
        }
        write_str(self.0, key);
        self.0.push(b':');
    }

    fn display(&mut self, key: &str, v: impl fmt::Display) {
        self.key(key);
        write!(self.0, "{v}").expect("writing to a Vec cannot fail");
    }
}

/// Appends `s` as a JSON string literal, escaping quotes, backslashes and
/// control characters.
fn write_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    for c in s.chars() {
        match c {
            '"' => out.extend_from_slice(b"\\\""),
            '\\' => out.extend_from_slice(b"\\\\"),
            '\n' => out.extend_from_slice(b"\\n"),
            '\r' => out.extend_from_slice(b"\\r"),
            '\t' => out.extend_from_slice(b"\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a Vec cannot fail");
            }
            c => out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes()),
        }
    }
    out.push(b'"');
}

impl Encode for Writer<'_> {
    fn open(&mut self, h: &Header) {
        self.0.push(b'{');
        if let Some(ok) = h.ok {
            self.display("ok", ok);
        }
        if let Some(op) = h.op {
            self.text("op", op);
        }
    }

    fn close(&mut self) {
        self.0.push(b'}');
    }

    fn uint(&mut self, key: &str, v: &u64) {
        self.display(key, v);
    }

    fn byte(&mut self, key: &str, v: &u8) {
        self.display(key, v);
    }

    /// JSON has no NaN/∞: a non-finite value renders as `null` (which the
    /// decoder then refuses as a mistyped field).
    fn float(&mut self, key: &str, v: &f64) {
        if v.is_finite() {
            self.display(key, v);
        } else {
            self.display(key, "null");
        }
    }

    fn text(&mut self, key: &str, v: &str) {
        self.key(key);
        write_str(self.0, v);
    }

    fn code<T: Coded>(&mut self, key: &str, v: &T) {
        self.text(key, v.entry().1);
    }

    fn list<T: Message>(&mut self, key: &str, v: &[T]) {
        self.key(key);
        self.0.push(b'[');
        for (i, item) in v.iter().enumerate() {
            if i > 0 {
                self.0.push(b',');
            }
            item.put(self);
        }
        self.0.push(b']');
    }

    fn map(&mut self, key: &str, v: &[(String, u64)]) {
        self.key(key);
        self.0.push(b'{');
        for (name, value) in v {
            self.display(name, value);
        }
        self.close();
    }
}

/// How many members of an object a [`Reader`] indexes in its one pass; a
/// larger object is searched member by member.
const MEMBERS: usize = 16;

/// Reads a message's fields from one object of a validated payload.
struct Reader<'a> {
    obj: Val<'a>,
    /// The object's first members, found in one pass, so a lookup only
    /// compares keys.
    members: [Member<'a>; MEMBERS],
    /// How many members the object has.
    len: usize,
}

impl<'a> Reader<'a> {
    /// Member `key`: its first occurrence, compared after unescaping.
    fn get(&self, key: &str) -> Option<Val<'a>> {
        if let Some(members) = self.members.get(..self.len) {
            return members.iter().find(|(k, _)| k.is(key)).map(|m| m.1);
        }
        let mut first = None;
        self.obj
            .each(&mut |(k, v)| first = first.or(k.is(key).then_some(v)));
        first
    }

    /// Member `key`, read by `get`: [`ProtoError::BadField`] when it is
    /// absent or `get` refuses it.
    fn field<T>(&self, key: &'static str, get: fn(Val<'a>) -> Option<T>) -> Result<T, ProtoError> {
        self.get(key).and_then(get).ok_or(ProtoError::BadField(key))
    }
}

impl Decode for Reader<'_> {
    fn open(&mut self, headers: &[Header]) -> Result<usize, ProtoError> {
        let ok = headers[0]
            .ok
            .map(|_| self.field("ok", Val::as_bool))
            .transpose()?;
        let op = self.get("op").and_then(|v| v.opens(b'"'));
        headers
            .iter()
            .position(|h| h.ok == ok && h.op.is_none_or(|want| op.is_some_and(|op| op.is(want))))
            .ok_or_else(|| match op {
                Some(op) => ProtoError::UnknownOp(op.unescape()),
                None => ProtoError::BadField("op"),
            })
    }

    fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    fn uint(&mut self, key: &'static str) -> Result<u64, ProtoError> {
        self.field(key, Val::as_u64)
    }

    /// A JSON number can exceed what the v2 byte holds; that is a bound
    /// violation, not a mistyped field.
    fn byte(&mut self, key: &'static str) -> Result<u8, ProtoError> {
        let x = self.uint(key)?;
        u8::try_from(x).map_err(|_| ProtoError::OutOfBounds {
            field: key,
            bound: format!("{x} > {}", u8::MAX),
        })
    }

    fn float(&mut self, key: &'static str) -> Result<f64, ProtoError> {
        self.field(key, Val::as_f64)
    }

    fn text(&mut self, key: &'static str) -> Result<String, ProtoError> {
        self.field(key, |v| v.opens(b'"').map(Val::unescape))
    }

    fn code<T: Coded>(&mut self, key: &'static str) -> Result<T, ProtoError> {
        let name = self.field(key, |v| v.opens(b'"'))?;
        T::CODES
            .iter()
            .find(|e| name.is(e.1))
            .map(|e| e.0)
            .ok_or(ProtoError::BadField(key))
    }

    /// Sized by a first pass over the array, so the vector allocates once;
    /// the second indexes each item's members as it validates them.
    fn list<T: Message>(&mut self, key: &'static str) -> Result<Vec<T>, ProtoError> {
        let items = self.field(key, |v| v.opens(b'['))?;
        let mut len = 0;
        items.each(&mut |_| len += 1);
        let (mut out, bytes) = (Vec::with_capacity(len), items.0);
        let mut p = Parser { bytes, pos: 1 };
        for _ in 0..len {
            p.skip_ws();
            out.push(T::get(&mut p.reader()?)?);
            p.skip_ws();
            p.pos += 1; // past the `,` or the closing `]`
        }
        Ok(out)
    }

    fn map(&mut self, key: &'static str) -> Result<Vec<(String, u64)>, ProtoError> {
        let mut out = Some(Vec::new());
        self.field(key, |v| v.opens(b'{'))?
            .each(&mut |(name, v)| match (&mut out, v.as_u64()) {
                (Some(pairs), Some(x)) => pairs.push((name.unescape(), x)),
                _ => out = None,
            });
        out.ok_or(ProtoError::BadField(key))
    }
}

/// Appends the JSON encoding of `msg` to `out` (usually a frame buffer
/// started with [`crate::protocol::begin_frame`]).
pub(crate) fn encode<T: Message>(msg: &T, out: &mut Vec<u8>) {
    msg.put(&mut Writer(out));
}

/// The JSON encoding of `msg` as a string.
pub(crate) fn to_string<T: Message>(msg: &T) -> String {
    let mut out = Vec::new();
    encode(msg, &mut out);
    String::from_utf8(out).expect("the JSON writer emits UTF-8")
}

/// Validates one JSON payload and decodes a message from it.
pub(crate) fn decode<T: Message>(payload: &[u8]) -> Result<T, ProtoError> {
    T::get(&mut validate(payload)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The string value of a one-string payload, unescaped.
    fn text(bytes: &[u8]) -> String {
        validate(bytes).unwrap().obj.unescape()
    }

    #[test]
    fn parses_flat_object() {
        let v = validate(br#"{"op":"read","die":5,"temp_c":-12.5,"deep":null,"ok":true}"#).unwrap();
        assert!(v.get("op").unwrap().is("read"));
        assert_eq!(v.get("die").and_then(Val::as_u64), Some(5));
        assert_eq!(v.get("temp_c").and_then(Val::as_f64), Some(-12.5));
        assert_eq!(v.get("deep").map(|d| d.0), Some(&b"null"[..]));
        assert_eq!(v.get("ok").and_then(Val::as_bool), Some(true));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn keys_match_after_unescaping_and_the_first_duplicate_wins() {
        let v = validate(br#"{ "die" : 1 , "die":2, "n":{"die":3} }"#).unwrap();
        assert_eq!(v.len, 3);
        assert_eq!(v.get("die").and_then(Val::as_u64), Some(1));
        let escaped = validate(br#"{"\u0064ie":7,"die":8}"#).unwrap();
        assert_eq!(escaped.get("die").and_then(Val::as_u64), Some(7));
    }

    #[test]
    fn objects_wider_than_the_index_are_searched_past_it() {
        let pad: String = (0..2 * MEMBERS)
            .map(|i| format!(r#""x{i}":{i},"#))
            .collect();
        let text = format!(r#"{{{pad}"op":"read","die":7,"temp_c":25,"die":8}}"#);
        let v = validate(text.as_bytes()).unwrap();
        assert_eq!(v.len, 2 * MEMBERS + 4);
        assert_eq!(v.get("die").and_then(Val::as_u64), Some(7));
        assert_eq!(v.get("x3").and_then(Val::as_u64), Some(3));
        assert!(matches!(
            crate::Request::from_json_bytes(text.as_bytes()),
            Ok(crate::Request::Read { die: 7, .. })
        ));
    }

    #[test]
    fn escaped_strings_round_trip_through_the_parser() {
        let s = "a\"b\\c\nd\u{1}é漢\t\r";
        let mut out = Vec::new();
        write_str(&mut out, s);
        assert_eq!(text(&out), s);
        assert!(validate(&out).unwrap().obj.is(s));
    }

    #[test]
    fn rejects_malformed_inputs_with_typed_errors() {
        for bad in [
            &b"{"[..],
            b"{\"a\":}",
            b"[1,]",
            b"\"unterminated",
            b"{\"a\" 1}",
            b"tru",
            b"01x",
            b"1e999",
            b"\"\\u12\"",
            b"\"\\ud800\"",
            b"",
            b"\xff\xfe",
            b"{\"a\":1}extra",
            // RFC 8259 numbers, which `f64::from_str` is laxer than.
            b"01",
            b"-01",
            b"00",
            b"1.",
            b"1.e5",
            b"-.5",
            b"1e",
            b"{\"die\":03}",
        ] {
            assert!(validate(bad).is_err(), "accepted {:?}", bad);
        }
        for good in [&b"-0"[..], b"0", b"-0.5e-3", b"10E+2", b"[0,1.25]"] {
            assert!(validate(good).is_ok(), "refused {:?}", good);
        }
    }

    #[test]
    fn depth_bound_is_enforced() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert_eq!(validate(deep.as_bytes()).err(), Some(JsonError::TooDeep));
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(validate(ok.as_bytes()).is_ok());
    }

    #[test]
    fn as_u64_rejects_inexact_integers() {
        assert_eq!(Val(b"5.5").as_u64(), None);
        assert_eq!(Val(b"-1").as_u64(), None);
        assert_eq!(Val(b"1e300").as_u64(), None);
        assert_eq!(Val(b"42").as_u64(), Some(42));
        assert_eq!(Val(b"4.2e1").as_u64(), Some(42));
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(text(br#""\ud83d\ude00""#), "😀");
    }
}
