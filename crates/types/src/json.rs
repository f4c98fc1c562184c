//! A minimal JSON tree: hand-rolled parser and escape-correct writer.
//!
//! The workspace is intentionally dependency-free (no serde), but two
//! subsystems speak JSON: the bench harnesses write `BENCH_*.json`
//! tracking files, and the simulation server (`cachetime-serve`) accepts
//! and returns JSON request bodies. Both share this module so string
//! escaping, number formatting, and null emission are correct in exactly
//! one place — the bench's original inline `format!` writer could not
//! have escaped a trace name containing a quote.
//!
//! Integers survive exactly: values are kept as [`Json::Int`]/[`Json::UInt`]
//! rather than being forced through `f64`, so a 64-bit cycle count or
//! content hash round-trips bit-for-bit. (Content hashes are still
//! exchanged as hex *strings* by the server — JSON peers outside this
//! module may not preserve full u64 precision.)
//!
//! ```
//! use cachetime_types::Json;
//!
//! let v = Json::parse(r#"{"trace": "mu3", "cells": 176, "speedup": 6.4}"#)?;
//! assert_eq!(v.get("trace").and_then(Json::as_str), Some("mu3"));
//! assert_eq!(v.get("cells").and_then(Json::as_u64), Some(176));
//! let out = v.to_string();
//! assert_eq!(Json::parse(&out)?, v);
//! # Ok::<(), cachetime_types::JsonError>(())
//! ```

use std::fmt;

/// Maximum nesting depth the parser accepts; deeper input is rejected
/// rather than risking a stack overflow on hostile request bodies.
const MAX_DEPTH: u32 = 128;

/// A parsed or under-construction JSON value.
///
/// Objects preserve insertion order (no hashing), so serialization is
/// deterministic: building the same value twice yields the same text.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer that fits `i64` (the parser's choice for any undotted
    /// number in range).
    Int(i64),
    /// An integer above `i64::MAX` (cycle counts, content hashes).
    UInt(u64),
    /// Any number with a fractional part or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Object(Vec<(String, Json)>),
}

/// A parse failure: what went wrong and the byte offset it was noticed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub pos: usize,
    /// Static description of the problem.
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// [`JsonError`] with the byte position of the first problem.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    /// Looks up a key in an object; `None` for absent keys and non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer (or a float
    /// with an exact non-negative integral value).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(v) => u64::try_from(v).ok(),
            Json::UInt(v) => Some(v),
            Json::Float(v) if v >= 0.0 && v.fract() == 0.0 && v <= (1u64 << 53) as f64 => {
                Some(v as u64)
            }
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(v) => Some(v),
            Json::UInt(v) => i64::try_from(v).ok(),
            Json::Float(v) if v.fract() == 0.0 && v.abs() <= (1u64 << 53) as f64 => Some(v as i64),
            _ => None,
        }
    }

    /// The value as an `f64`, for any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(v) => Some(v as f64),
            Json::UInt(v) => Some(v as f64),
            Json::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as ordered object pairs.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// `true` only for `Json::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serializes compactly (no whitespace).
    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::UInt(v) => out.push_str(&v.to_string()),
            Json::Float(v) => write_json_f64(*v, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Serializes with two-space indentation, for files a human will read
    /// (the `BENCH_*.json` tracking files).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Object(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    write_escaped(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            _ => self.write(out),
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Appends `v` as a JSON number, exactly as [`Json::Float`] serializes:
/// a finite float round-trips (`1.0` stays `1.0`, not `1`), and a
/// non-finite value, which JSON cannot represent, becomes `null`.
///
/// The one float rule for every JSON writer, so code that writes JSON
/// straight into a buffer matches the tree byte for byte.
pub fn write_json_f64(v: f64, out: &mut String) {
    use fmt::Write;
    // Writing into a `String` cannot fail.
    let _ = if !v.is_finite() {
        out.write_str("null")
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        write!(out, "{v:.1}")
    } else {
        // `{}` on f64 prints the shortest digits that round-trip.
        write!(out, "{v}")
    };
}

/// Emits a quoted, escape-correct JSON string.
fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// Ergonomic construction: `Json::from(42u64)`, `("key", value)` pairs, etc.

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        match i64::try_from(v) {
            Ok(i) => Json::Int(i),
            Err(_) => Json::UInt(v),
        }
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Int(v as i64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::from(v as u64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Array(v)
    }
}

/// Builds a [`Json::Object`] from `(key, value)` pairs, preserving order.
pub fn json_object<K: Into<String>, V: Into<Json>>(
    pairs: impl IntoIterator<Item = (K, V)>,
) -> Json {
    Json::Object(
        pairs
            .into_iter()
            .map(|(k, v)| (k.into(), v.into()))
            .collect(),
    )
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { pos: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self, depth: u32) -> Result<Json, JsonError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: u32) -> Result<Json, JsonError> {
        self.pos += 1; // '{'
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a quoted object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy unescaped UTF-8 runs wholesale.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                s.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut s)?;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, s: &mut String) -> Result<(), JsonError> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        match c {
            b'"' => s.push('"'),
            b'\\' => s.push('\\'),
            b'/' => s.push('/'),
            b'b' => s.push('\u{08}'),
            b'f' => s.push('\u{0c}'),
            b'n' => s.push('\n'),
            b'r' => s.push('\r'),
            b't' => s.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xd800..0xdc00).contains(&hi) {
                    // High surrogate: require a \uXXXX low surrogate next.
                    if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xdc00..0xe000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                    } else {
                        return Err(self.err("unpaired surrogate"));
                    }
                } else if (0xdc00..0xe000).contains(&hi) {
                    return Err(self.err("unpaired surrogate"));
                } else {
                    hi
                };
                s.push(char::from_u32(code).ok_or_else(|| self.err("invalid codepoint"))?);
            }
            _ => return Err(self.err("unknown escape")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self
                .peek()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| self.err("expected 4 hex digits"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        let int_digits = self.digits()?;
        if int_digits > 1 && self.bytes[int_start] == b'0' {
            return Err(self.err("leading zero in number"));
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        if integral {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }

    /// Consumes one-or-more digits, returning how many.
    fn digits(&mut self) -> Result<usize, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a digit"));
        }
        Ok(self.pos - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(text: &str) -> Json {
        let v = Json::parse(text).unwrap();
        assert_eq!(
            Json::parse(&v.to_string()).unwrap(),
            v,
            "roundtrip of {text}"
        );
        v
    }

    #[test]
    fn scalars_parse() {
        assert_eq!(roundtrip("null"), Json::Null);
        assert_eq!(roundtrip("true"), Json::Bool(true));
        assert_eq!(roundtrip("false"), Json::Bool(false));
        assert_eq!(roundtrip("42"), Json::Int(42));
        assert_eq!(roundtrip("-7"), Json::Int(-7));
        assert_eq!(roundtrip("0"), Json::Int(0));
        assert_eq!(roundtrip("1.5"), Json::Float(1.5));
        assert_eq!(roundtrip("2e3"), Json::Float(2000.0));
        assert_eq!(roundtrip(r#""hi""#), Json::Str("hi".into()));
    }

    #[test]
    fn u64_integers_survive_exactly() {
        let max = u64::MAX.to_string();
        assert_eq!(roundtrip(&max), Json::UInt(u64::MAX));
        assert_eq!(Json::parse(&max).unwrap().as_u64(), Some(u64::MAX));
        // A hash-sized value: above 2^53, below i64::MAX.
        let v = roundtrip("4611686018427387905");
        assert_eq!(v.as_u64(), Some(4611686018427387905));
    }

    #[test]
    fn nested_structures() {
        let v = roundtrip(r#"{"a": [1, {"b": null}, "x"], "c": {"d": [true]}}"#);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].get("b"),
            Some(&Json::Null)
        );
        assert_eq!(
            v.get("c").unwrap().get("d").unwrap().as_array().unwrap()[0],
            Json::Bool(true)
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let nasty = "quote\" back\\slash \n\r\t \u{08}\u{0c} nul-ish\u{01} ünïcode 🦀";
        let mut out = String::new();
        write_escaped(nasty, &mut out);
        let back = Json::parse(&out).unwrap();
        assert_eq!(back.as_str(), Some(nasty));
        // The writer must not emit raw control characters.
        assert!(!out.chars().any(|c| (c as u32) < 0x20));
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(Json::parse(r#""Aé🦀""#).unwrap().as_str(), Some("Aé🦀"));
        assert!(Json::parse(r#""\ud800""#).is_err(), "unpaired surrogate");
        assert!(Json::parse(r#""\udc00x""#).is_err(), "lone low surrogate");
    }

    #[test]
    fn floats_stay_floats() {
        assert_eq!(Json::Float(1.0).to_string(), "1.0");
        assert_eq!(roundtrip("1.0"), Json::Float(1.0));
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
        assert_eq!(Json::Float(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::Float(0.125).to_string(), "0.125");
    }

    #[test]
    fn malformed_inputs_error_with_position() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a"}"#,
            "tru",
            "01",
            "1.",
            "+1",
            "--2",
            "[1 2]",
            r#"{"a": 1,}"#,
            "\"unterminated",
            "{\"a\": }",
            "[]]",
            "1e",
            r#"{key: 1}"#,
            "\"bad \\q escape\"",
        ] {
            let e = Json::parse(bad).unwrap_err();
            assert!(e.pos <= bad.len(), "{bad:?}: {e}");
        }
    }

    #[test]
    fn deep_nesting_is_rejected() {
        let mut deep = String::new();
        for _ in 0..200 {
            deep.push('[');
        }
        assert_eq!(Json::parse(&deep).unwrap_err().msg, "nesting too deep");
    }

    #[test]
    fn object_builder_preserves_order() {
        let v = json_object([("b", Json::from(1u64)), ("a", Json::from(2u64))]);
        assert_eq!(v.to_string(), r#"{"b":1,"a":2}"#);
    }

    #[test]
    fn pretty_output_reparses() {
        let v = Json::parse(r#"{"a": [1, 2], "b": {"c": "d"}, "e": []}"#).unwrap();
        let pretty = v.pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), v);
        assert!(pretty.contains("  \"a\": ["));
        assert!(pretty.ends_with("}\n"));
    }

    #[test]
    fn from_conversions() {
        assert_eq!(Json::from(5u64), Json::Int(5));
        assert_eq!(Json::from(u64::MAX), Json::UInt(u64::MAX));
        assert_eq!(Json::from(-3i64), Json::Int(-3));
        assert_eq!(Json::from("s"), Json::Str("s".into()));
        assert_eq!(Json::from(true), Json::Bool(true));
    }
}
