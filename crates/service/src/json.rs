//! Minimal hand-rolled JSON — the v1 wire format of the fleet protocol.
//!
//! Zero-dependency by design (the workspace allows only `std`): a
//! recursive-descent parser with explicit depth and size bounds, and the
//! JSON codec of the message schema in [`crate::protocol`] — a reader over
//! the parsed object and a writer that emits compact text straight into
//! the frame buffer, escaping control characters and rendering non-finite
//! numbers as `null` (JSON has no NaN/∞). Objects are ordered
//! `(key, value)` vectors — lookups are linear, which is exactly right for
//! frames with a handful of fields.

use crate::protocol::{Coded, Decode, Encode, Header, Message, ProtoError};
use std::fmt;
use std::io::Write;

/// Maximum nesting depth [`parse`] accepts. Protocol frames are flat
/// (depth ≤ 3); the bound exists so a hostile frame of `[[[[…` cannot
/// overflow the parser's stack.
pub const MAX_DEPTH: usize = 16;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object as ordered key/value pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object (`None` for other variants or a missing
    /// key).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly
    /// (rejects fractions, negatives, and magnitudes beyond 2⁵³ where
    /// `f64` stops being exact).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        let x = self.as_f64()?;
        if x.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&x) {
            Some(x as u64)
        } else {
            None
        }
    }

    /// The string, if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

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

/// Parses one complete JSON value from `bytes`.
///
/// # Errors
///
/// Returns a [`JsonError`] locating the first malformed byte; never
/// panics, whatever the input (see the fuzz suite in
/// `tests/protocol.rs`).
pub fn parse(bytes: &[u8]) -> Result<Value, JsonError> {
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(JsonError::TrailingData { offset: p.pos });
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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

    fn eat(&mut self, b: u8, context: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(context))
        }
    }

    fn eat_keyword(&mut self, kw: &str, context: &'static str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(context))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::TooDeep);
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self
                .eat_keyword("true", "keyword")
                .map(|()| Value::Bool(true)),
            Some(b'f') => self
                .eat_keyword("false", "keyword")
                .map(|()| Value::Bool(false)),
            Some(b'n') => self.eat_keyword("null", "keyword").map(|()| Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.eat(b'{', "object open")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "object colon")?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.err("object separator")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.eat(b'[', "array open")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("array separator")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "string open")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: require the low half.
                                self.eat(b'\\', "surrogate pair")?;
                                self.eat(b'u', "surrogate pair")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c).ok_or_else(|| self.err("surrogate pair"))?
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("codepoint"))?
                            };
                            out.push(ch);
                        }
                        _ => return Err(self.err("escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("control char in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences are
                    // validated in one go).
                    let start = self.pos;
                    let len = utf8_len(self.bytes[start]);
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err(JsonError::InvalidUtf8);
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| JsonError::InvalidUtf8)?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
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

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::InvalidUtf8)?;
        let x: f64 = text.parse().map_err(|_| JsonError::Unexpected {
            offset: start,
            context: "number",
        })?;
        if x.is_finite() {
            Ok(Value::Num(x))
        } else {
            // "1e999" parses to +inf — reject rather than smuggle
            // non-finite values past the field bounds.
            Err(JsonError::Unexpected {
                offset: start,
                context: "non-finite number",
            })
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
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

/// Reads a message's fields from one parsed JSON object.
struct Reader<'a> {
    obj: &'a Value,
}

impl<'a> Reader<'a> {
    fn field<T>(
        &self,
        key: &'static str,
        get: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, ProtoError> {
        self.obj
            .get(key)
            .and_then(get)
            .ok_or(ProtoError::BadField(key))
    }
}

impl Decode for Reader<'_> {
    fn open(&mut self, headers: &[Header]) -> Result<usize, ProtoError> {
        let ok = headers[0]
            .ok
            .map(|_| self.field("ok", Value::as_bool))
            .transpose()?;
        let op = self.obj.get("op").and_then(Value::as_str);
        headers
            .iter()
            .position(|h| h.ok == ok && (h.op.is_none() || h.op == op))
            .ok_or_else(|| match op {
                Some(op) => ProtoError::UnknownOp(op.to_string()),
                None => ProtoError::BadField("op"),
            })
    }

    fn has(&self, key: &str) -> bool {
        self.obj.get(key).is_some()
    }

    fn uint(&mut self, key: &'static str) -> Result<u64, ProtoError> {
        self.field(key, Value::as_u64)
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
        self.field(key, Value::as_f64)
    }

    fn text(&mut self, key: &'static str) -> Result<String, ProtoError> {
        self.field(key, |v| v.as_str().map(str::to_string))
    }

    fn code<T: Coded>(&mut self, key: &'static str) -> Result<T, ProtoError> {
        let name = self.field(key, Value::as_str)?;
        T::CODES
            .iter()
            .find(|e| e.1 == name)
            .map(|e| e.0)
            .ok_or(ProtoError::BadField(key))
    }

    fn list<T: Message>(&mut self, key: &'static str) -> Result<Vec<T>, ProtoError> {
        self.field(key, Value::as_arr)?
            .iter()
            .map(|obj| T::get(&mut Reader { obj }))
            .collect()
    }

    fn map(&mut self, key: &'static str) -> Result<Vec<(String, u64)>, ProtoError> {
        let Some(Value::Obj(pairs)) = self.obj.get(key) else {
            return Err(ProtoError::BadField(key));
        };
        pairs
            .iter()
            .map(|(name, v)| Some((name.clone(), v.as_u64()?)))
            .collect::<Option<_>>()
            .ok_or(ProtoError::BadField(key))
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

/// Parses one JSON payload and decodes a message from it.
pub(crate) fn decode<T: Message>(payload: &[u8]) -> Result<T, ProtoError> {
    T::get(&mut Reader {
        obj: &parse(payload)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_object() {
        let v = parse(br#"{"op":"read","die":5,"temp_c":-12.5,"deep":null,"ok":true}"#).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("read"));
        assert_eq!(v.get("die").unwrap().as_u64(), Some(5));
        assert_eq!(v.get("temp_c").unwrap().as_f64(), Some(-12.5));
        assert_eq!(v.get("deep"), Some(&Value::Null));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn escaped_strings_round_trip_through_the_parser() {
        let s = "a\"b\\c\nd\u{1}é漢\t\r";
        let mut out = Vec::new();
        write_str(&mut out, s);
        assert_eq!(parse(&out).unwrap(), Value::Str(s.into()));
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
        ] {
            assert!(parse(bad).is_err(), "accepted {:?}", bad);
        }
    }

    #[test]
    fn depth_bound_is_enforced() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert_eq!(parse(deep.as_bytes()), Err(JsonError::TooDeep));
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(ok.as_bytes()).is_ok());
    }

    #[test]
    fn as_u64_rejects_inexact_integers() {
        assert_eq!(Value::Num(5.5).as_u64(), None);
        assert_eq!(Value::Num(-1.0).as_u64(), None);
        assert_eq!(Value::Num(1e300).as_u64(), None);
        assert_eq!(Value::Num(42.0).as_u64(), Some(42));
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = parse(br#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }
}
