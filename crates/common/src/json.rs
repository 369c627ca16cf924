//! A minimal, dependency-free JSON reader and writer — the one place in the
//! workspace that produces JSON text.
//!
//! Results files and reports are [`Value`] trees built with
//! [`object!`](crate::object!) and laid out by [`render`]; sweep resume reads
//! them back with [`parse`].
//! Objects keep insertion order, so a builder's field order is the file's.
//! Integers stay exact (`u64`/`u128` counters round-trip) and floats use
//! Rust's shortest round-trip `Display`, so parsing a file and writing it
//! again is byte-identical — the property sweep determinism relies on.
//! [`Value::Fixed`] carries fields written with a fixed number of decimals.
//!
//! # Example
//! ```
//! use row_common::json::{parse, Value};
//! let v = parse(r#"{"cycles": 42, "ipc": 1.5, "tags": ["a", "b"]}"#).unwrap();
//! assert_eq!(v.get("cycles").and_then(Value::as_u64), Some(42));
//! assert_eq!(v.get("ipc").and_then(Value::as_f64), Some(1.5));
//! let w = row_common::object! { "ipc": Value::Fixed(1.5, 2), "tags": vec!["a"] };
//! assert_eq!(w.to_string(), r#"{"ipc": 1.50, "tags": ["a"]}"#);
//! ```

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without `.`/`e` — kept exact.
    Int(i128),
    /// A number with a fraction or exponent.
    Float(f64),
    /// A number written with a fixed number of decimals (`{:.N}`, e.g.
    /// wall-clock seconds as `1.204`). Only writers build it; [`parse`]
    /// reads such numbers back as [`Value::Float`].
    Fixed(f64, usize),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion (document) order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// An object from `(key, value)` pairs, in order.
    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Object field lookup; `None` on non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64` (integers only; floats never silently truncate).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a `u128` (integers only).
    pub fn as_u128(&self) -> Option<u128> {
        match self {
            Value::Int(i) => u128::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (accepts both number forms).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) | Value::Fixed(f, _) => Some(*f),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// `Value::from` for every scalar type the reports carry.
macro_rules! from_scalar {
    ($($t:ty => |$x:ident| $value:expr),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from($x: $t) -> Value {
                $value
            }
        }
    )*};
}
from_scalar! {
    u32 => |n| Value::Int(n.into()),
    u64 => |n| Value::Int(n.into()),
    usize => |n| Value::Int(n as i128),
    bool => |b| Value::Bool(b),
    f64 => |x| Value::Float(x),
    &str => |s| Value::Str(s.to_string()),
    String => |s| Value::Str(s),
}

/// `None` is `null`.
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Value {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

/// Builds a [`Value::Object`] from `"key": value` pairs, in the order given;
/// each value goes through `Value::from`.
///
/// ```
/// let v = row_common::object! { "cycles": 42u64, "error": None::<String> };
/// assert_eq!(v.to_string(), r#"{"cycles": 42, "error": null}"#);
/// ```
#[macro_export]
macro_rules! object {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::json::Value::object([$(($key, $crate::json::Value::from($value))),*])
    };
}

/// One `"key": value` object member, the value inline.
fn member((key, value): &(String, Value)) -> String {
    format!("\"{}\": {value}", escape(key))
}

/// The inline form: everything on one line, `", "` between items and `": "`
/// after keys. Non-finite numbers, which JSON cannot express, render as `0`.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => f.write_str(&fmt_f64(*x)),
            Value::Fixed(x, decimals) if x.is_finite() => write!(f, "{x:.*}", *decimals),
            Value::Fixed(..) => f.write_str("0"),
            Value::Str(s) => write!(f, "\"{}\"", escape(s)),
            Value::Array(items) => {
                let items: Vec<String> = items.iter().map(Value::to_string).collect();
                write!(f, "[{}]", items.join(", "))
            }
            Value::Object(fields) => {
                let fields: Vec<String> = fields.iter().map(member).collect();
                write!(f, "{{{}}}", fields.join(", "))
            }
        }
    }
}

/// Lays out a report, ending with a newline: each top-level member of the
/// `report` object on a line of its own, the members named in `expand` (an
/// array or an object) with one entry per line, everything else inline.
pub fn render(report: &Value, expand: &[&str]) -> String {
    let Value::Object(fields) = report else {
        return format!("{report}\n");
    };
    let line = |field: &(String, Value)| {
        let (key, value) = field;
        let expanded = expand.contains(&key.as_str());
        let (open, entries, close): (_, Vec<String>, _) = match (value, expanded) {
            (Value::Array(items), true) => ('[', items.iter().map(Value::to_string).collect(), ']'),
            (Value::Object(fields), true) => ('{', fields.iter().map(member).collect(), '}'),
            _ => return format!("  {}", member(field)),
        };
        let body: Vec<String> = entries.iter().map(|e| format!("    {e}")).collect();
        let body = body.join(",\n");
        format!("  \"{}\": {open}\n{body}\n  {close}", escape(key))
    };
    let lines: Vec<String> = fields.iter().map(line).collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

/// A parse failure: what was wrong and the byte offset it was found at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What the parser expected or rejected.
    pub message: &'static str,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
/// [`JsonError`] naming the first offending byte offset.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            message,
            offset: self.pos,
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

    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
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
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not produced by our writer;
                            // lone surrogates are rejected.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err("malformed number"))
        } else {
            text.parse::<i128>()
                .map(Value::Int)
                .map_err(|_| self.err("malformed number"))
        }
    }
}

/// Escapes a string for embedding between JSON quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number using Rust's shortest round-trip
/// `Display` (`NaN`/infinities — which JSON cannot express — become `0`,
/// they never occur in well-formed results).
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        // `Display` for f64 never emits an exponent; a bare integer like
        // "3" is still valid JSON.
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" 42 ").unwrap(), Value::Int(42));
        assert_eq!(parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse("1.5").unwrap(), Value::Float(1.5));
        assert_eq!(parse("\"hi\\n\"").unwrap(), Value::Str("hi\n".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert!(arr[1].get("b").unwrap().is_null());
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn large_integers_round_trip_exactly() {
        let n = u64::MAX as u128 * 3;
        let v = parse(&n.to_string()).unwrap();
        assert_eq!(v.as_u128(), Some(n));
        // Would lose precision as f64, so as_u64 refuses floats entirely.
        assert_eq!(parse("1.0").unwrap().as_u64(), None);
    }

    #[test]
    fn float_display_round_trips() {
        for &f in &[0.1, 1.0 / 3.0, 123456.789, 5e-9, 0.0] {
            let s = fmt_f64(f);
            let back = parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{s}");
        }
        assert_eq!(fmt_f64(f64::NAN), "0");
    }

    #[test]
    fn objects_keep_insertion_order() {
        let v = parse(r#"{"z": 1, "a": {"y": 2, "b": 3}}"#).unwrap();
        assert_eq!(v.to_string(), r#"{"z": 1, "a": {"y": 2, "b": 3}}"#);
        let built = crate::object! { "z": 1u64, "a": crate::object! { "y": 2u64, "b": 3u64 } };
        assert_eq!(built, v);
        assert_eq!(
            v.get("a").and_then(|a| a.get("b")).and_then(Value::as_u64),
            Some(3)
        );
    }

    #[test]
    fn inline_form_escapes_and_formats_numbers() {
        let v = crate::object! {
            "s": "a\"b\n",
            "f": 0.5,
            "whole": 3.0,
            "fixed": Value::Fixed(1.0, 3),
            "rounded": Value::Fixed(1.23456, 4),
            "nan": f64::NAN,
            "inf": Value::Fixed(f64::INFINITY, 2),
            "none": None::<u64>,
            "list": vec![1u64, 2],
            "empty": Vec::<u64>::new(),
            "obj": Value::object(Vec::<(String, Value)>::new()),
        };
        assert_eq!(
            v.to_string(),
            r#"{"s": "a\"b\n", "f": 0.5, "whole": 3, "fixed": 1.000, "rounded": 1.2346, "nan": 0, "inf": 0, "none": null, "list": [1, 2], "empty": [], "obj": {}}"#
        );
        assert_eq!(
            parse("1.500").unwrap().as_f64(),
            Value::Fixed(1.5, 3).as_f64()
        );
    }

    #[test]
    fn render_expands_only_the_named_members() {
        let report = crate::object! {
            "schema": "x-v1",
            "meta": crate::object! { "a": 1u64 },
            "rows": vec![crate::object! { "k": 1u64 }, crate::object! { "k": 2u64 }],
            "none": Vec::<u64>::new(),
            "finding": crate::object! { "kind": "oracle", "n": 2u64 },
            "later": None::<u64>,
        };
        assert_eq!(
            render(&report, &["rows", "none", "finding", "later"]),
            "{\n  \"schema\": \"x-v1\",\n  \"meta\": {\"a\": 1},\n  \"rows\": [\n    {\"k\": 1},\n    {\"k\": 2}\n  ],\n  \"none\": [\n\n  ],\n  \"finding\": {\n    \"kind\": \"oracle\",\n    \"n\": 2\n  },\n  \"later\": null\n}\n"
        );
        assert_eq!(parse(&render(&report, &["rows"])).unwrap(), report);
    }

    #[test]
    fn escape_covers_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        let round = parse(&format!("\"{}\"", escape("a\"b\\c\nd\t\u{1}"))).unwrap();
        assert_eq!(round.as_str(), Some("a\"b\\c\nd\t\u{1}"));
    }
}
