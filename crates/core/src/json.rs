//! Minimal dependency-free JSON support for the engine's hand-rolled
//! encodings ([`crate::StatsSnapshot::to_json`], the versioned
//! [`crate::Checkpoint`] format).
//!
//! The workspace deliberately has no serde (see the workspace manifest):
//! snapshots and checkpoints are written by hand. This module supplies
//! the two halves those writers need and the tests verify against:
//!
//! * a writer side ([`push_string`], [`push_f64`]) whose `f64` encoding
//!   uses Rust's shortest round-trip formatting, so every finite float
//!   parses back to the **bit-identical** value — the property the
//!   checkpoint/restore guarantees are built on; and
//! * one recursive-descent tokenizer, `Cursor`, with two front ends:
//!   [`parse`] builds a [`JsonValue`] tree (`Checkpoint::from_json`,
//!   tests asserting that emitted documents are actually JSON), and the
//!   wire protocol's typed readers ([`crate::protocol::parse_request`])
//!   decode straight into their own types, with numbers going through
//!   the same routine either way.
//!   Nesting is capped at [`MAX_DEPTH`], so hostile input is rejected
//!   with a [`JsonError`] instead of overflowing the stack.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`; integers up to 2^53 are exact).
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. Key order is not preserved (sorted).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(exact_u64)
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object, if it is one.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Object member lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object().and_then(|o| o.get(key))
    }
}

/// A JSON number as a non-negative integer, if it is one.
pub(crate) fn exact_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0).then_some(n as u64)
}

/// A parse failure, with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub at: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Appends `s` as a JSON string literal (with quotes) to `out`.
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a finite `f64` in shortest round-trip form (bit-exact through
/// [`parse`]). Non-finite values — which have no JSON representation —
/// are written as `0` so the output is always a valid document.
pub fn push_f64(out: &mut String, v: f64) {
    use fmt::Write;
    if v.is_finite() {
        // `{:?}` is Rust's shortest representation that parses back to
        // the identical bit pattern; it is also valid JSON (`1.0`,
        // `6.1e-15`, ...).
        write!(out, "{v:?}").unwrap();
    } else {
        out.push('0');
    }
}

/// Deepest array/object nesting [`parse`] and the wire decoders accept. Readers recurse
/// once per level, so without a cap a frame of a few thousand `[` would
/// overflow the thread's stack — an abort no `catch_unwind` can stop.
/// Every document the engine writes nests a handful of levels deep.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (trailing whitespace allowed).
/// Documents nested deeper than [`MAX_DEPTH`] are rejected.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut c = Cursor::new(input);
    let v = c.value()?;
    c.finish()?;
    Ok(v)
}

/// The one JSON tokenizer: a forward cursor over a document that reads
/// one value at a time. [`parse`] drives it to build a [`JsonValue`]
/// tree; the wire protocol's typed decoders drive it directly, reading
/// each member straight into its field and [`Cursor::skip`]ping the
/// rest, so no tree is ever built. Every reader skips leading whitespace
/// itself, and [`Cursor::object`] / [`Cursor::array`] enforce
/// [`MAX_DEPTH`] for typed and skipped values alike.
#[derive(Debug)]
pub(crate) struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `text`.
    pub(crate) fn new(text: &'a str) -> Self {
        Self {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// An error at the current position.
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.to_owned(),
        }
    }

    /// The current byte offset; [`Cursor::rewind`] returns to it.
    pub(crate) fn mark(&self) -> usize {
        self.pos
    }

    /// Moves back to an offset taken by [`Cursor::mark`] at the same
    /// nesting depth.
    pub(crate) fn rewind(&mut self, mark: usize) {
        self.pos = mark;
    }

    /// Requires that only whitespace is left.
    pub(crate) fn finish(&mut self) -> Result<(), JsonError> {
        if self.peek().is_some() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(())
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    /// Skips whitespace and returns the next byte without consuming it:
    /// `{`, `[`, `"`, `t`/`f`, `n` or a number's first byte for a value.
    pub(crate) fn peek(&mut self) -> Option<u8> {
        while let Some(&b) = self.bytes().get(self.pos) {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Some(b);
            }
            self.pos += 1;
        }
        None
    }

    /// Whether the next value is a number.
    pub(crate) fn at_number(&mut self) -> bool {
        matches!(self.peek(), Some(b'-' | b'0'..=b'9'))
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), JsonError> {
        self.peek();
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    /// Opens one array or object level, refusing to go past
    /// [`MAX_DEPTH`]; `body` runs inside it and the level closes even
    /// when `body` fails, so a caller may [`Cursor::rewind`] and go on.
    fn nested<E: From<JsonError>>(
        &mut self,
        open: u8,
        body: impl FnOnce(&mut Self) -> Result<(), E>,
    ) -> Result<(), E> {
        if self.peek() == Some(open) && self.depth == MAX_DEPTH {
            return Err(self
                .err(&format!("nesting deeper than {MAX_DEPTH} levels"))
                .into());
        }
        self.expect(open)?;
        self.depth += 1;
        let result = body(self);
        self.depth -= 1;
        result
    }

    /// Reads an object, calling `member` with each key in document
    /// order; `member` must consume the member's value (with a typed
    /// reader or [`Cursor::skip`]). Duplicate keys are passed on as
    /// they come, so a reader that overwrites lets the last one win.
    pub(crate) fn object<E: From<JsonError>>(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), E>,
    ) -> Result<(), E> {
        self.nested(b'{', |c| {
            if c.peek() == Some(b'}') {
                c.pos += 1;
                return Ok(());
            }
            loop {
                if c.peek() != Some(b'"') {
                    return Err(c.err("expected '\"'").into());
                }
                let key = c.str()?;
                c.expect(b':')?;
                member(c, &key)?;
                match c.peek() {
                    Some(b',') => c.pos += 1,
                    Some(b'}') => {
                        c.pos += 1;
                        return Ok(());
                    }
                    _ => return Err(c.err("expected ',' or '}'").into()),
                }
            }
        })
    }

    /// Reads an array, calling `element` once per element; `element`
    /// must consume the element's value.
    pub(crate) fn array<E: From<JsonError>>(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), E>,
    ) -> Result<(), E> {
        self.nested(b'[', |c| {
            if c.peek() == Some(b']') {
                c.pos += 1;
                return Ok(());
            }
            loop {
                element(c)?;
                match c.peek() {
                    Some(b',') => c.pos += 1,
                    Some(b']') => {
                        c.pos += 1;
                        return Ok(());
                    }
                    _ => return Err(c.err("expected ',' or ']'").into()),
                }
            }
        })
    }

    /// Reads any value into a tree.
    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.object(|c, key| {
                    let v = c.value()?;
                    map.insert(key.to_owned(), v);
                    Ok::<_, JsonError>(())
                })?;
                Ok(JsonValue::Object(map))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|c| {
                    items.push(c.value()?);
                    Ok::<_, JsonError>(())
                })?;
                Ok(JsonValue::Array(items))
            }
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't' | b'f') => self.bool().map(JsonValue::Bool),
            Some(b'n') => self.literal("null").map(|()| JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(JsonValue::Number),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Consumes any value without building it (nesting still capped).
    pub(crate) fn skip(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            Some(b'{') => self.object(|c, _| c.skip()),
            Some(b'[') => self.array(Self::skip),
            Some(b'"') => self.str().map(drop),
            Some(b't' | b'f') => self.bool().map(drop),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Reads `true` or `false`.
    pub(crate) fn bool(&mut self) -> Result<bool, JsonError> {
        if self.peek() == Some(b't') {
            self.literal("true").map(|()| true)
        } else {
            self.literal("false").map(|()| false)
        }
    }

    /// Reads a string, unescaped.
    pub(crate) fn string(&mut self) -> Result<String, JsonError> {
        self.str().map(Cow::into_owned)
    }

    /// Reads a string, borrowing it from the input when it holds no
    /// escapes (the common case for keys and names).
    fn str(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let text = self.text;
        let mut run = self.pos;
        let mut out: Option<String> = None;
        loop {
            // Quotes and backslashes are ASCII, so every run between
            // them is whole UTF-8 and slices `text` on char boundaries.
            let Some(len) = self.bytes()[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                self.pos = text.len();
                return Err(self.err("unterminated string"));
            };
            self.pos += len;
            let chunk = &text[run..self.pos];
            if self.bytes()[self.pos] == b'"' {
                self.pos += 1;
                return Ok(match out {
                    None => Cow::Borrowed(chunk),
                    Some(mut s) => {
                        s.push_str(chunk);
                        Cow::Owned(s)
                    }
                });
            }
            let s = out.get_or_insert_with(String::new);
            s.push_str(chunk);
            self.pos += 1;
            match self.bytes().get(self.pos) {
                Some(b'"') => s.push('"'),
                Some(b'\\') => s.push('\\'),
                Some(b'/') => s.push('/'),
                Some(b'n') => s.push('\n'),
                Some(b'r') => s.push('\r'),
                Some(b't') => s.push('\t'),
                Some(b'b') => s.push('\u{8}'),
                Some(b'f') => s.push('\u{c}'),
                Some(b'u') => {
                    let hex = text
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or_else(|| self.err("truncated \\u escape"))?;
                    let hex =
                        u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                    // Surrogate pairs are not needed by our own
                    // writers; reject rather than mis-decode.
                    let c = char::from_u32(hex)
                        .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                    s.push(c);
                    self.pos += 4;
                }
                _ => return Err(self.err("bad escape")),
            }
            self.pos += 1;
            run = self.pos;
        }
    }

    /// Reads a number with the standard library's correctly rounded
    /// parser, so every shortest round-trip `f64` ([`push_f64`]) comes
    /// back bit-identical. The scan takes every byte that can occur in a
    /// number and leaves the grammar to that parser: in valid JSON a
    /// number is never followed by such a byte.
    pub(crate) fn number(&mut self) -> Result<f64, JsonError> {
        self.peek();
        let start = self.pos;
        let len = self.bytes()[start..]
            .iter()
            .position(|b| !matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
            .unwrap_or(self.text.len() - start);
        self.pos += len;
        self.text[start..self.pos]
            .parse::<f64>()
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_documents() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": null, "d": true}, "e": "x\n\"y\""}"#)
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&JsonValue::Null));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\n\"y\""));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\"}", "nul", "1 2", "\"abc", "NaN"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn nesting_is_capped_without_recursing_past_the_cap() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse(&over).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        assert_eq!(err.at, MAX_DEPTH);
        // Far past any stack a recursive parser could survive.
        assert!(parse(&"[".repeat(1 << 20)).is_err());
        assert!(parse(&"{\"a\":".repeat(1 << 16)).is_err());
    }

    #[test]
    fn f64_round_trips_bit_exactly() {
        let cases = [
            0.0,
            1.0,
            -0.0,
            0.1 + 0.2,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            5e-324,
            0.5400000000000001,
        ];
        for v in cases {
            let mut s = String::new();
            push_f64(&mut s, v);
            let parsed = parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits(), "{v} via {s}");
        }
        // Non-finite values degrade to a valid document.
        let mut s = String::new();
        push_f64(&mut s, f64::NAN);
        assert_eq!(s, "0");
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line\nquote\"back\\slash\ttab\u{1}unicode ⊥";
        let mut s = String::new();
        push_string(&mut s, original);
        assert_eq!(parse(&s).unwrap().as_str(), Some(original));
    }
}
