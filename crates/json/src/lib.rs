//! Dependency-free JSON support.
//!
//! The build environment has no access to crates.io, so the workspace cannot use
//! `serde`/`serde_json`.  This crate provides the small amount of JSON machinery the
//! repository needs — archiving workloads and experiment artifacts as human-readable
//! files — as a plain [`Json`] value type with a strict parser and a pretty-printer.
//!
//! Integers and floats are kept apart ([`Json::Int`] vs [`Json::Float`]) so `u64`
//! seeds round-trip exactly, and floats are printed with Rust's shortest
//! round-trip formatting, making `parse(print(v)) == v` hold for every finite value.

#![forbid(unsafe_code)]

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number written without fraction or exponent.
    Int(i128),
    /// A number written with fraction or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Json)>),
}

/// Error produced by [`Json::parse`] or by typed accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset of the error in the input (0 for accessor errors).
    pub offset: usize,
}

impl JsonError {
    fn at(message: impl Into<String>, offset: usize) -> Self {
        JsonError {
            message: message.into(),
            offset,
        }
    }

    /// Error not tied to an input position (typed-accessor failures).
    pub fn msg(message: impl Into<String>) -> Self {
        JsonError::at(message, 0)
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a JSON document; trailing non-whitespace input is an error.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text: input,
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.text.len() {
            return Err(JsonError::at("trailing characters after document", p.pos));
        }
        Ok(value)
    }

    /// Pretty-prints with two-space indentation and a trailing newline-free result.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// Prints without any whitespace — the wire form (`dlrv-stream` frames), where
    /// indentation would only inflate every message.  Parses back identically to
    /// the pretty form.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Array(items) => {
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (k, (key, value)) in fields.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
            // Scalars print identically in both forms.
            scalar => scalar.write(out, 0),
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(x) => {
                debug_assert!(x.is_finite(), "JSON cannot represent NaN/inf");
                // `{:?}` is Rust's shortest round-trip float formatting and always
                // contains a '.' or exponent, so the value re-parses as Float.
                out.push_str(&format!("{x:?}"));
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (k, (key, value)) in fields.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    // ---- typed accessors -------------------------------------------------------

    /// The value of `key` in an object.
    pub fn get(&self, key: &str) -> Result<&Json, JsonError> {
        match self {
            Json::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| JsonError::msg(format!("missing key `{key}`"))),
            other => Err(JsonError::msg(format!(
                "expected object with key `{key}`, found {}",
                other.kind()
            ))),
        }
    }

    /// The value of `key` in an object, or `None` when the key is absent.
    ///
    /// Unlike [`Json::get`], a missing key is not an error — this is how parsers of
    /// versioned on-disk schemas accept documents written before a field existed.
    /// A non-object still errors.
    pub fn get_opt(&self, key: &str) -> Result<Option<&Json>, JsonError> {
        match self {
            Json::Object(fields) => Ok(fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)),
            other => Err(JsonError::msg(format!(
                "expected object with key `{key}`, found {}",
                other.kind()
            ))),
        }
    }

    /// The boolean value.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::msg(format!(
                "expected bool, found {}",
                other.kind()
            ))),
        }
    }

    /// The numeric value as `f64` (accepts both `Int` and `Float`).
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Int(i) => Ok(*i as f64),
            Json::Float(x) => Ok(*x),
            other => Err(JsonError::msg(format!(
                "expected number, found {}",
                other.kind()
            ))),
        }
    }

    /// The integer value as `u64`.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Json::Int(i) => u64::try_from(*i)
                .map_err(|_| JsonError::msg(format!("integer {i} out of u64 range"))),
            other => Err(JsonError::msg(format!(
                "expected integer, found {}",
                other.kind()
            ))),
        }
    }

    /// The integer value as `usize`.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        self.as_u64().and_then(|v| {
            usize::try_from(v)
                .map_err(|_| JsonError::msg(format!("integer {v} out of usize range")))
        })
    }

    /// The string value.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(JsonError::msg(format!(
                "expected string, found {}",
                other.kind()
            ))),
        }
    }

    /// The array items.
    pub fn as_array(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Array(items) => Ok(items),
            other => Err(JsonError::msg(format!(
                "expected array, found {}",
                other.kind()
            ))),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) => "integer",
            Json::Float(_) => "float",
            Json::Str(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }
}

/// Builds a `Json::Object` from `(key, value)` pairs.
pub fn object(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v as i128)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i128)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v as i128)
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

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Array(v.into_iter().map(Into::into).collect())
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    /// The document: structure is scanned bytewise, string contents are decoded
    /// from the `str` (already valid UTF-8).
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.text.as_bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(format!("expected `{}`", b as char), self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(other) => Err(JsonError::at(
                format!("unexpected character `{}`", other as char),
                self.pos,
            )),
            None => Err(JsonError::at("unexpected end of input", self.pos)),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(JsonError::at(format!("expected `{text}`"), self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(JsonError::at("expected `,` or `}`", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
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
                _ => return Err(JsonError::at("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::at("unterminated string", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| JsonError::at("truncated \\u escape", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError::at("invalid \\u escape", self.pos))?;
                            // Surrogate pairs are not needed for our ASCII field
                            // names; reject them rather than decode them wrongly.
                            let c = char::from_u32(code).ok_or_else(|| {
                                JsonError::at("surrogate \\u escape unsupported", self.pos)
                            })?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(JsonError::at("invalid escape", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character, decoded where it stands: `pos` only
                    // ever advances by whole characters inside a string.
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| JsonError::at("invalid UTF-8", self.pos))?;
                    if (c as u32) < 0x20 {
                        return Err(JsonError::at("raw control character in string", self.pos));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // Only ASCII was consumed, so both ends are character boundaries.
        let text = &self.text[start..self.pos];
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| JsonError::at(format!("invalid float `{text}`"), start))
        } else {
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|_| JsonError::at(format!("invalid integer `{text}`"), start))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("3.5").unwrap(), Json::Float(3.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::parse("\"hi\\n\"").unwrap(), Json::Str("hi\n".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, 2.5, {"b": true}], "c": null}"#).unwrap();
        assert_eq!(v.get("c").unwrap(), &Json::Null);
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0], Json::Int(1));
        assert_eq!(arr[2].get("b").unwrap(), &Json::Bool(true));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{not json", "[1,", "{\"a\":}", "01x", "\"open", "1 2", ""] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn pretty_print_round_trips() {
        let v = object([
            ("seed", Json::from(u64::MAX)),
            ("mu", Json::from(3.0f64)),
            ("tiny", Json::from(f64::MIN_POSITIVE)),
            ("name", Json::from("q\"uote\\")),
            ("flags", Json::from(vec![true, false])),
            ("none", Json::from(Option::<u64>::None)),
        ]);
        let text = v.to_string_pretty();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn compact_print_round_trips_and_has_no_whitespace() {
        let v = object([
            ("seed", Json::from(u64::MAX)),
            ("mu", Json::from(3.5f64)),
            ("name", Json::from("q\"uote\\")),
            ("flags", Json::from(vec![true, false])),
            ("none", Json::from(Option::<u64>::None)),
            ("empty_arr", Json::Array(vec![])),
            ("empty_obj", Json::Object(vec![])),
        ]);
        let text = v.to_string_compact();
        assert_eq!(Json::parse(&text).unwrap(), v);
        // Identical value as the pretty form, strictly fewer bytes.
        assert_eq!(
            Json::parse(&text).unwrap(),
            Json::parse(&v.to_string_pretty()).unwrap()
        );
        assert!(text.len() < v.to_string_pretty().len());
        // No structural whitespace (none of the strings above contain spaces).
        assert!(
            !text.chars().any(|c| c.is_whitespace()),
            "compact form: {text}"
        );
    }

    #[test]
    fn u64_seeds_round_trip_exactly() {
        for seed in [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 53, (1 << 53) + 1] {
            let text = Json::from(seed).to_string_pretty();
            assert_eq!(Json::parse(&text).unwrap().as_u64().unwrap(), seed);
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [0.1, 1.0 / 3.0, 2.5e-17, 1e300, -0.0, 12345.6789] {
            let text = Json::from(x).to_string_pretty();
            assert_eq!(Json::parse(&text).unwrap().as_f64().unwrap(), x);
        }
    }

    #[test]
    fn string_decoding_is_linear_in_the_document() {
        // One 4 MiB string.  Re-validating the rest of the document per character
        // made 1 MiB take 27 s, and four times that for every doubling.
        let long = "x".repeat(4 << 20);
        let text = Json::from(long.as_str()).to_string_compact();
        assert_eq!(Json::parse(&text).unwrap(), Json::Str(long));

        // Characters of every encoded width at every alignment, after an escape
        // and right before the closing quote.
        for pad in 0..4 {
            let s = format!("{}é€𝄞\n€", "a".repeat(pad));
            let text = Json::from(s.as_str()).to_string_pretty();
            assert_eq!(Json::parse(&text).unwrap(), Json::Str(s));
        }

        // A raw control character is reported where it stands, in bytes.
        let err = Json::parse("[\"é€\u{1}\"]").unwrap_err();
        assert_eq!(err, JsonError::at("raw control character in string", 7));
        assert_eq!(
            err.to_string(),
            "raw control character in string (at byte 7)"
        );
        // So is a `\u` escape whose four bytes run into multi-byte characters.
        let err = |text| Json::parse(text).unwrap_err();
        assert_eq!(err("\"\\u12é\""), JsonError::at("invalid \\u escape", 2));
        assert_eq!(err("\"\\u1é€\""), JsonError::at("truncated \\u escape", 2));
    }

    #[test]
    fn get_opt_distinguishes_missing_from_malformed() {
        let v = Json::parse(r#"{"a": 1}"#).unwrap();
        assert_eq!(v.get_opt("a").unwrap(), Some(&Json::Int(1)));
        assert_eq!(v.get_opt("b").unwrap(), None);
        assert!(Json::Int(3).get_opt("a").is_err());
    }

    #[test]
    fn accessor_errors_are_descriptive() {
        let v = Json::parse(r#"{"a": 1}"#).unwrap();
        assert!(v.get("b").unwrap_err().message.contains("missing key"));
        assert!(v.get("a").unwrap().as_bool().is_err());
        assert!(Json::Null.get("x").is_err());
        assert!(Json::Int(-1).as_u64().is_err());
    }
}
