//! # mc-json
//!
//! A minimal, dependency-free JSON library for the flash-mc workspace:
//! a [`Json`] value tree, a strict parser, compact and pretty writers,
//! and the [`ToJson`] / [`FromJson`] conversion traits the other crates
//! implement for their serializable types (reports, emitted flow graphs,
//! `FlashSpec` tables).
//!
//! The compact writer emits the same byte sequence `serde_json` would for
//! the types used here (`{"key":value,...}` with no whitespace), and the
//! pretty writer uses two-space indentation — both formats are pinned by
//! the CLI tests.

#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (JSON numbers without fraction or exponent).
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved by the writer.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer value, if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric value as `f64` (integers convert losslessly enough).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        write_compact(self, &mut out);
        out
    }

    /// Serializes with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        write_pretty(self, 0, &mut out);
        out
    }

    /// Parses a JSON document. The entire input must be consumed.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input, including arrays and
    /// objects nested deeper than [`MAX_DEPTH`].
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError(format!("trailing characters at byte {}", p.pos)));
        }
        Ok(v)
    }
}

/// How deeply arrays and objects may nest in a parsed document. The
/// parser recurses once per level, so deeper input is an error rather
/// than a stack overflow; every document the workspace writes stays far
/// below it.
pub const MAX_DEPTH: usize = 256;

/// A parse or conversion error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

impl JsonError {
    /// A "field has the wrong type / is missing" error.
    pub fn expected(what: &str) -> JsonError {
        JsonError(format!("expected {what}"))
    }
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// Converts `self` to a JSON value.
    fn to_json(&self) -> Json;
}

/// Conversion from a [`Json`] value.
pub trait FromJson: Sized {
    /// Converts a JSON value to `Self`.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] if the value has the wrong shape.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

/// Serializes a value compactly (the `serde_json::to_string` analog).
pub fn to_string<T: ToJson + ?Sized>(v: &T) -> String {
    v.to_json().to_compact()
}

/// Serializes a value with indentation (`serde_json::to_string_pretty`).
pub fn to_string_pretty<T: ToJson + ?Sized>(v: &T) -> String {
    v.to_json().to_pretty()
}

/// Parses and converts (`serde_json::from_str`).
///
/// # Errors
///
/// Returns [`JsonError`] on malformed input or shape mismatch.
pub fn from_str<T: FromJson>(s: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(s)?)
}

// ---------------------------------------------------------------- writers

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

fn write_float(v: f64, out: &mut String) {
    if v.is_finite() {
        let s = format!("{v}");
        // Ensure floats stay floats on re-parse.
        if s.contains('.') || s.contains('e') || s.contains('E') {
            out.push_str(&s);
        } else {
            out.push_str(&s);
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

fn write_compact(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(n) => out.push_str(&n.to_string()),
        Json::Float(f) => write_float(*f, out),
        Json::Str(s) => write_escaped(s, out),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Json::Object(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(k, out);
                out.push(':');
                write_compact(val, out);
            }
            out.push('}');
        }
    }
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_pretty(v: &Json, depth: usize, out: &mut String) {
    match v {
        Json::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                indent(depth + 1, out);
                write_pretty(item, depth + 1, out);
            }
            out.push('\n');
            indent(depth, out);
            out.push(']');
        }
        Json::Object(fields) if !fields.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                indent(depth + 1, out);
                write_escaped(k, out);
                out.push_str(": ");
                write_pretty(val, depth + 1, out);
            }
            out.push('\n');
            indent(depth, out);
            out.push('}');
        }
        other => write_compact(other, out),
    }
}

// ----------------------------------------------------------------- parser

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(JsonError(format!("expected `{kw}` at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => {
                self.eat_keyword("null")?;
                Ok(Json::Null)
            }
            Some(b't') => {
                self.eat_keyword("true")?;
                Ok(Json::Bool(true))
            }
            Some(b'f') => {
                self.eat_keyword("false")?;
                Ok(Json::Bool(false))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(JsonError(format!(
                "unexpected `{}` at byte {}",
                b as char, self.pos
            ))),
            None => Err(JsonError("unexpected end of input".into())),
        }
    }

    /// Parses one array or object one level deeper.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError(format!(
                "nested deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => {
                    return Err(JsonError(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => {
                    return Err(JsonError(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast-forward over plain UTF-8 runs.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| JsonError("invalid utf-8 in string".into()))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{08}'),
                        Some(b'f') => s.push('\u{0c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // Surrogate pair.
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let low = self.hex4()?;
                                let combined = 0x10000
                                    + ((cp - 0xD800) << 10)
                                    + (low.wrapping_sub(0xDC00) & 0x3FF);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(cp)
                            };
                            s.push(c.ok_or_else(|| JsonError("invalid \\u escape".into()))?);
                            continue;
                        }
                        _ => return Err(JsonError(format!("bad escape at byte {}", self.pos))),
                    }
                    self.pos += 1;
                }
                _ => return Err(JsonError("unterminated string".into())),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(JsonError("truncated \\u escape".into()));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| JsonError("bad \\u escape".into()))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| JsonError("bad \\u escape".into()))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError("bad number".into()))?;
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| JsonError(format!("bad number `{text}`")))
        } else {
            // Large u64 values (e.g. seeds) overflow i64; fall back to f64
            // rather than reject, matching serde_json's arbitrary precision
            // spirit without the machinery.
            text.parse::<i64>().map(Json::Int).or_else(|_| {
                text.parse::<f64>()
                    .map(Json::Float)
                    .map_err(|_| JsonError(format!("bad number `{text}`")))
            })
        }
    }
}

// --------------------------------------------------- blanket conversions

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool().ok_or_else(|| JsonError::expected("bool"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::expected("string"))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64().ok_or_else(|| JsonError::expected("number"))
    }
}

macro_rules! int_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let n = v.as_i64().ok_or_else(|| JsonError::expected("integer"))?;
                <$t>::try_from(n).map_err(|_| JsonError::expected(stringify!($t)))
            }
        }
    )*};
}

int_json!(i8, i16, i32, i64, u8, u16, u32, usize);

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        match i64::try_from(*self) {
            Ok(v) => Json::Int(v),
            Err(_) => Json::Float(*self as f64),
        }
    }
}

impl FromJson for u64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Int(n) => u64::try_from(*n).map_err(|_| JsonError::expected("u64")),
            Json::Float(f) if *f >= 0.0 => Ok(*f as u64),
            _ => Err(JsonError::expected("u64")),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_array()
            .ok_or_else(|| JsonError::expected("array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson + fmt::Debug, const N: usize> FromJson for [T; N] {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let vec: Vec<T> = Vec::from_json(v)?;
        <[T; N]>::try_from(vec).map_err(|_| JsonError(format!("expected array of {N}")))
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl ToJson for BTreeSet<String> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(|s| Json::Str(s.clone())).collect())
    }
}

impl FromJson for BTreeSet<String> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_array()
            .ok_or_else(|| JsonError::expected("array"))?
            .iter()
            .map(String::from_json)
            .collect()
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Object(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<V: FromJson> FromJson for BTreeMap<String, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_object()
            .ok_or_else(|| JsonError::expected("object"))?
            .iter()
            .map(|(k, val)| Ok((k.clone(), V::from_json(val)?)))
            .collect()
    }
}

/// Builds a `Json::Object` from `(key, value)` pairs; the building block
/// for hand-written [`ToJson`] impls.
pub fn object(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Reads a required field from an object.
///
/// # Errors
///
/// Returns [`JsonError`] if `v` is not an object, the field is absent, or
/// the field has the wrong shape.
pub fn field<T: FromJson>(v: &Json, name: &str) -> Result<T, JsonError> {
    let f = v
        .get(name)
        .ok_or_else(|| JsonError(format!("missing field `{name}`")))?;
    T::from_json(f).map_err(|e| JsonError(format!("field `{name}`: {}", e.0)))
}

/// Reads an optional field from an object, substituting `T::default()`
/// when the field is absent or `null` (the `#[serde(default)]` analog).
///
/// # Errors
///
/// Returns [`JsonError`] if the field is present but has the wrong shape.
pub fn field_or_default<T: FromJson + Default>(v: &Json, name: &str) -> Result<T, JsonError> {
    match v.get(name) {
        None | Some(Json::Null) => Ok(T::default()),
        Some(f) => T::from_json(f).map_err(|e| JsonError(format!("field `{name}`: {}", e.0))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_matches_serde_style() {
        let v = object(vec![
            ("a", Json::Int(1)),
            ("b", Json::Array(vec![Json::Int(1), Json::Int(2)])),
            ("c", Json::Str("x\"y".into())),
        ]);
        assert_eq!(v.to_compact(), r#"{"a":1,"b":[1,2],"c":"x\"y"}"#);
    }

    #[test]
    fn parse_roundtrip() {
        let src = r#"{"a": 1, "b": [true, null, -2.5], "s": "line\nbreak A"}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_i64), Some(1));
        assert_eq!(v.get("b").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("s").and_then(Json::as_str), Some("line\nbreak A"));
        let back = Json::parse(&v.to_compact()).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn pretty_is_reparseable() {
        let v = object(vec![
            (
                "outer",
                object(vec![("inner", Json::Array(vec![Json::Int(1)]))]),
            ),
            ("empty", Json::Array(vec![])),
        ]);
        let pretty = v.to_pretty();
        assert!(pretty.contains("\n  \"outer\": {"));
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_an_overflow() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        assert!(Json::parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest("{\"a\":", "}", MAX_DEPTH).replace(":}", ":1}")).is_ok());
        for deep in [
            nest("[", "]", MAX_DEPTH + 1),
            nest("{\"a\":", "}", MAX_DEPTH + 1).replace(":}", ":1}"),
            "[".repeat(200_000),
            "[{\"a\":".repeat(100_000),
        ] {
            let err = Json::parse(&deep).unwrap_err();
            assert!(err.0.contains("nested deeper than 256 levels"), "{err}");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
    }

    #[test]
    fn collections_roundtrip() {
        let mut m: BTreeMap<String, [u32; 4]> = BTreeMap::new();
        m.insert("h".into(), [1, 2, 3, 4]);
        let j = m.to_json();
        let back: BTreeMap<String, [u32; 4]> = FromJson::from_json(&j).unwrap();
        assert_eq!(m, back);

        let s: BTreeSet<String> = ["a", "b"].iter().map(|s| s.to_string()).collect();
        let back: BTreeSet<String> = FromJson::from_json(&s.to_json()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn default_fields() {
        let v = Json::parse(r#"{"present": 7}"#).unwrap();
        let p: u32 = field_or_default(&v, "present").unwrap();
        let a: u32 = field_or_default(&v, "absent").unwrap();
        assert_eq!((p, a), (7, 0));
        assert!(field::<u32>(&v, "absent").is_err());
    }

    #[test]
    fn u64_full_range() {
        let big = u64::MAX;
        let j = big.to_json();
        // Round-trips through f64 with precision loss at the extreme, but
        // stays a number and stays positive.
        let back = u64::from_json(&j).unwrap();
        assert!(back > u64::MAX / 2);
        let small: u64 = FromJson::from_json(&Json::Int(42)).unwrap();
        assert_eq!(small, 42);
    }
}
