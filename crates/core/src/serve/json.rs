//! A minimal JSON reader for the serve wire protocol.
//!
//! Dovado vendors no serialization framework, and the serve protocol
//! only needs to *read* small, line-delimited JSON objects (requests
//! from clients, trace v2 event lines on the client side). This module
//! is a strict-enough recursive-descent parser over one line of JSON
//! producing a [`Json`] tree, plus the two writer helpers — [`escape`]
//! and [`number`] — that every hand-rolled JSON emitter (the trace
//! writer in `obs`, the serve protocol) shares.
//!
//! Numbers are held as `f64` (the trace format itself never emits a
//! value outside `f64`'s exact-integer range; sequence numbers are far
//! below 2^53).

use std::fmt::Write as _;

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// deepest message the protocol sends nests 4 levels; the cap keeps a
/// hostile line from overflowing the reading thread's stack, since the
/// parser recurses once per level.
const MAX_DEPTH: usize = 64;

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys keep the last).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON value; `None` on any syntax error,
    /// trailing garbage, or nesting deeper than 64 levels.
    pub fn parse(text: &str) -> Option<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return None;
        }
        Some(value)
    }

    /// Object field lookup (last duplicate wins); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n.fract() == 0.0 && (0.0..=9.007_199_254_740_992e15).contains(&n) {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Formats a float as a JSON number. Rust's shortest-roundtrip `Display`
/// is deterministic and decimal; non-finite values become `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn eat(bytes: &[u8], pos: &mut usize, b: u8) -> Option<()> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Some(())
    } else {
        None
    }
}

/// One value inside `depth` open arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Option<Json> {
    skip_ws(bytes, pos);
    match bytes.get(*pos)? {
        b'{' | b'[' if depth == MAX_DEPTH => None,
        b'{' => parse_object(bytes, pos, depth + 1),
        b'[' => parse_array(bytes, pos, depth + 1),
        b'"' => parse_string(bytes, pos).map(Json::Str),
        b't' => parse_literal(bytes, pos, b"true", Json::Bool(true)),
        b'f' => parse_literal(bytes, pos, b"false", Json::Bool(false)),
        b'n' => parse_literal(bytes, pos, b"null", Json::Null),
        _ => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &[u8], value: Json) -> Option<Json> {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        Some(value)
    } else {
        None
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Option<Json> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    if *pos == start {
        return None;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()?
        .parse::<f64>()
        .ok()
        .map(Json::Num)
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Option<String> {
    eat(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000c}'),
                    b'u' => {
                        let hex = bytes.get(*pos + 1..*pos + 5)?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        // Surrogate pairs are not produced by our own
                        // writers; map unpaired surrogates to the
                        // replacement character rather than failing.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            _ => {
                // Consume one UTF-8 scalar (multi-byte safe).
                let rest = std::str::from_utf8(&bytes[*pos..]).ok()?;
                let c = rest.chars().next()?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Option<Json> {
    eat(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Some(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(Json::Arr(items));
            }
            _ => return None,
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Option<Json> {
    eat(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Some(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        eat(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(Json::Obj(fields));
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null"), Some(Json::Null));
        assert_eq!(Json::parse("true"), Some(Json::Bool(true)));
        assert_eq!(Json::parse(" false "), Some(Json::Bool(false)));
        assert_eq!(Json::parse("42"), Some(Json::Num(42.0)));
        assert_eq!(Json::parse("-1.5e2"), Some(Json::Num(-150.0)));
        assert_eq!(Json::parse("\"hi\""), Some(Json::Str("hi".into())));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a":[1,{"b":"c"},null],"d":true}"#).unwrap();
        assert_eq!(v.get("d").and_then(Json::as_bool), Some(true));
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].get("b").and_then(Json::as_str), Some("c"));
        assert_eq!(arr[2], Json::Null);
    }

    #[test]
    fn json_floats_print_shortest_roundtrip() {
        assert_eq!(number(90.0), "90");
        assert_eq!(number(0.1), "0.1");
        assert_eq!(number(f64::NAN), "null");
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let nasty = "a\"b\\c\nd\te\r\u{0001}π";
        let line = format!("{{\"s\":\"{}\"}}", escape(nasty));
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some(nasty));
    }

    #[test]
    fn rejects_garbage_and_trailing_input() {
        assert_eq!(Json::parse(""), None);
        assert_eq!(Json::parse("{"), None);
        assert_eq!(Json::parse("[1,]"), None);
        assert_eq!(Json::parse("{\"a\":1} trailing"), None);
        assert_eq!(Json::parse("nul"), None);
        assert_eq!(Json::parse("\"unterminated"), None);
    }

    #[test]
    fn exact_integers_read_back_as_u64() {
        assert_eq!(Json::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(Json::parse("0").unwrap().as_u64(), Some(0));
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-3").unwrap().as_u64(), None);
    }

    #[test]
    fn nesting_deeper_than_the_cap_is_refused() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"k\":".repeat(n) + "1" + &"}".repeat(n);
        assert!(Json::parse(&arrays(MAX_DEPTH)).is_some());
        assert!(Json::parse(&arrays(MAX_DEPTH + 1)).is_none());
        assert!(Json::parse(&objects(MAX_DEPTH)).is_some());
        assert!(Json::parse(&objects(MAX_DEPTH + 1)).is_none());
        // Far past the cap the parser refuses without recursing that deep.
        assert!(Json::parse(&"[".repeat(20_000)).is_none());
        assert!(Json::parse(&arrays(20_000)).is_none());
    }

    #[test]
    fn duplicate_keys_keep_the_last() {
        let v = Json::parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(v.get("k").and_then(Json::as_f64), Some(2.0));
    }
}
