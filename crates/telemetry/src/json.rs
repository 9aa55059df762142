//! A minimal JSON reader/writer shared by the telemetry sink and the
//! run journal (re-exported as `bv_runner::json`).
//!
//! The build environment has no crate registry, so serde is not an
//! option; the records written here are flat (objects of numbers,
//! strings, and short arrays), which this ~200-line implementation
//! covers completely. Numbers keep their source lexeme so 64-bit
//! counters round trip exactly instead of through `f64`, and floats are
//! rendered with Rust's shortest-roundtrip formatting so they parse back
//! bit-identical.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, kept as its source lexeme for lossless integers.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. BTreeMap keeps key order deterministic.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The value as `u64`, if it is an integral number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// A field of an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }
}

/// Escapes and quotes a string for embedding in JSON output.
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// An incremental writer for one JSON object: `field` calls append
/// pre-rendered values, `finish` closes the braces.
#[derive(Default)]
pub struct ObjWriter {
    buf: String,
}

impl ObjWriter {
    /// Starts an empty object.
    #[must_use]
    pub fn new() -> ObjWriter {
        ObjWriter { buf: String::new() }
    }

    /// Appends `"key": <rendered>` where `rendered` is already valid JSON.
    pub fn raw(&mut self, key: &str, rendered: &str) -> &mut ObjWriter {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.buf.push_str(&quote(key));
        self.buf.push(':');
        self.buf.push_str(rendered);
        self
    }

    /// Appends a string field.
    pub fn str(&mut self, key: &str, val: &str) -> &mut ObjWriter {
        let q = quote(val);
        self.raw(key, &q)
    }

    /// Appends an unsigned integer field.
    pub fn u64(&mut self, key: &str, val: u64) -> &mut ObjWriter {
        self.raw(key, &val.to_string())
    }

    /// Appends a float field (finite; NaN/inf become null).
    pub fn f64(&mut self, key: &str, val: f64) -> &mut ObjWriter {
        if val.is_finite() {
            let s = format!("{val}");
            self.raw(key, &s)
        } else {
            self.raw(key, "null")
        }
    }

    /// Appends an array-of-u64 field.
    pub fn u64_array(&mut self, key: &str, vals: &[u64]) -> &mut ObjWriter {
        let body: Vec<String> = vals.iter().map(u64::to_string).collect();
        let s = format!("[{}]", body.join(","));
        self.raw(key, &s)
    }

    /// The completed object.
    #[must_use]
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// An incremental writer for one JSON array: `push` calls append
/// pre-rendered elements, `finish` closes the brackets. The array dual
/// of [`ObjWriter`], used by the serve protocol to embed lists of
/// rendered objects (sweep grids, job descriptors) in a message.
#[derive(Default)]
pub struct ArrWriter {
    buf: String,
}

impl ArrWriter {
    /// Starts an empty array.
    #[must_use]
    pub fn new() -> ArrWriter {
        ArrWriter { buf: String::new() }
    }

    /// Appends `<rendered>`, which must already be valid JSON.
    pub fn raw(&mut self, rendered: &str) -> &mut ArrWriter {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.buf.push_str(rendered);
        self
    }

    /// Appends a string element.
    pub fn str(&mut self, val: &str) -> &mut ArrWriter {
        let q = quote(val);
        self.raw(&q)
    }

    /// Appends an unsigned integer element.
    pub fn u64(&mut self, val: u64) -> &mut ArrWriter {
        self.raw(&val.to_string())
    }

    /// The completed array.
    #[must_use]
    pub fn finish(&self) -> String {
        format!("[{}]", self.buf)
    }
}

/// The deepest array/object nesting [`parse`] accepts. The parser
/// recurses once per level, so without a cap a line of `[`s from a
/// client would overflow the stack and abort the process.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error,
/// including nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at offset {}", c as char, pos))
    }
}

/// Parses the value at `pos`, which sits `depth` containers deep.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at offset {pos}"))
        }
        Some(b'{') => parse_obj(b, pos, depth + 1),
        Some(b'[') => parse_arr(b, pos, depth + 1),
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let lexeme = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    if lexeme.parse::<f64>().is_err() {
        return Err(format!("bad number '{lexeme}' at offset {start}"));
    }
    Ok(Value::Num(lexeme.to_string()))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        // Surrogate pairs are absent from journal data;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences pass
                // through unchanged since the input is valid UTF-8).
                let s = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = s.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(out));
    }
    loop {
        out.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(out));
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}")),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut out = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(out));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos, depth)?;
        out.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(out));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_object() {
        let mut w = ObjWriter::new();
        w.str("name", "a\"b\\c\nd")
            .u64("count", u64::MAX)
            .f64("ratio", 0.5)
            .u64_array("hist", &[1, 2, 3]);
        let text = w.finish();
        let v = parse(&text).expect("parse");
        assert_eq!(v.get("name").unwrap().as_str(), Some("a\"b\\c\nd"));
        assert_eq!(v.get("count").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.get("ratio").unwrap().as_f64(), Some(0.5));
        let hist: Vec<u64> = v
            .get("hist")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|x| x.as_u64().unwrap())
            .collect();
        assert_eq!(hist, vec![1, 2, 3]);
    }

    #[test]
    fn arr_writer_roundtrips() {
        let mut a = ArrWriter::new();
        a.str("x\"y")
            .u64(7)
            .raw(&ObjWriter::new().u64("k", 1).finish());
        let v = parse(&a.finish()).expect("parse");
        let items = v.as_arr().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].as_str(), Some("x\"y"));
        assert_eq!(items[1].as_u64(), Some(7));
        assert_eq!(items[2].get("k").unwrap().as_u64(), Some(1));
        assert_eq!(ArrWriter::new().finish(), "[]");
    }

    #[test]
    fn u64_counters_do_not_lose_precision() {
        let big = (1u64 << 53) + 1; // not representable in f64
        let text = ObjWriter::new().u64("n", big).finish();
        assert_eq!(parse(&text).unwrap().get("n").unwrap().as_u64(), Some(big));
    }

    #[test]
    fn parses_nested_values() {
        let v = parse(r#"{"a": [1, {"b": null}], "c": true, "d": -2.5e3}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("d").unwrap().as_f64(), Some(-2500.0));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let err = parse(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at offset {MAX_DEPTH}")
        );
        let err = parse(&r#"{"a":"#.repeat(200_000)).unwrap_err();
        assert_eq!(err, "nesting deeper than 128 at offset 640");
        // The cap itself still parses.
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).is_err());
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = parse(r#"{"s": "café"}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("café"));
    }
}
