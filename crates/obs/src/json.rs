//! A minimal JSON value with writer and parser — enough for telemetry
//! emission and for CI to validate what was emitted, with no external
//! crates.
//!
//! Object member order is preserved (members are a `Vec`), which is what
//! makes report JSON byte-for-byte reproducible.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers are written without a decimal point).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; member order is preserved.
    Obj(Vec<(String, Json)>),
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl Json {
    /// Build an object from `(&str, Json)` pairs, preserving order.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Is this the `null` literal?
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Non-negative integer value, if this is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// Signed integer value, if this is a whole number (offsets in
    /// serialized stack layouts are negative for locals).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => Some(*n as i64),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_into(out: &mut String, v: &Json, indent: Option<usize>, level: usize) {
    let (nl, pad, pad_in) = match indent {
        Some(w) => ("\n", " ".repeat(w * level), " ".repeat(w * (level + 1))),
        None => ("", String::new(), String::new()),
    };
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 9.0e15 {
                out.push_str(&format!("{}", *n as i64));
            } else {
                out.push_str(&format!("{n}"));
            }
        }
        Json::Str(s) => escape_into(out, s),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad_in);
                write_into(out, item, indent, level + 1);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push(']');
        }
        Json::Obj(members) => {
            if members.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad_in);
                escape_into(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_into(out, val, indent, level + 1);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push('}');
        }
    }
}

impl fmt::Display for Json {
    /// Compact rendering (no whitespace).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        write_into(&mut s, self, None, 0);
        f.write_str(&s)
    }
}

impl Json {
    /// Indented rendering (2 spaces).
    pub fn pretty(&self) -> String {
        let mut s = String::new();
        write_into(&mut s, self, Some(2), 0);
        s
    }
}

/// Resource ceilings enforced while parsing untrusted JSON text.
///
/// Defaults match what the repo's own artifacts need with headroom
/// (depth 256 is exercised by `tests/obs_json.rs`); hostile documents
/// beyond either limit get a typed error instead of a stack overflow or
/// an unbounded allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonLimits {
    /// Maximum container nesting depth (arrays + objects combined).
    pub max_depth: usize,
    /// Maximum document size in bytes, checked before parsing starts.
    pub max_bytes: usize,
}

impl Default for JsonLimits {
    fn default() -> JsonLimits {
        JsonLimits { max_depth: 256, max_bytes: 64 << 20 }
    }
}

/// Why a parse was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Malformed JSON text.
    Syntax(String),
    /// Container nesting exceeded [`JsonLimits::max_depth`].
    TooDeep {
        /// The configured depth limit.
        limit: usize,
    },
    /// The document exceeded [`JsonLimits::max_bytes`].
    TooLarge {
        /// The document size in bytes.
        size: usize,
        /// The configured size limit.
        limit: usize,
    },
}

/// A typed JSON parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure (0 for whole-document rejections).
    pub pos: usize,
    /// The failure class.
    pub kind: ParseErrorKind,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ParseErrorKind::Syntax(what) => {
                write!(f, "json parse error at byte {}: {what}", self.pos)
            }
            ParseErrorKind::TooDeep { limit } => {
                write!(f, "json parse error at byte {}: nesting deeper than {limit}", self.pos)
            }
            ParseErrorKind::TooLarge { size, limit } => {
                write!(f, "json parse error: document size {size} exceeds limit {limit}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    limits: JsonLimits,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, what: &str) -> Result<T, ParseError> {
        Err(ParseError { pos: self.pos, kind: ParseErrorKind::Syntax(what.to_string()) })
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected `{}`", b as char))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            self.err(&format!("expected `{lit}`"))
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
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
                        Some(b'u') => {
                            let Some(hex) = self.bytes.get(self.pos + 1..self.pos + 5) else {
                                return self.err("truncated \\u escape");
                            };
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            let Some(code) = code else {
                                return self.err("bad \\u escape");
                            };
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next `"` or `\` at
                    // once. Both delimiters are ASCII and the input is
                    // `&str`, so the run is a valid UTF-8 slice; a run
                    // with no delimiter reaches the end of the input.
                    let rest = &self.bytes[self.pos..];
                    let len = rest.iter().position(|&b| b == b'"' || b == b'\\');
                    let end = self.pos + len.unwrap_or(rest.len());
                    let Some(run) = self.text.get(self.pos..end) else {
                        return self.err("invalid utf-8 in string");
                    };
                    s.push_str(run);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let Ok(text) = std::str::from_utf8(&self.bytes[start..self.pos]) else {
            return self.err("invalid utf-8 in number");
        };
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => self.err(&format!("bad number `{text}`")),
        }
    }

    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > self.limits.max_depth {
            return Err(ParseError {
                pos: self.pos,
                kind: ParseErrorKind::TooDeep { limit: self.limits.max_depth },
            });
        }
        Ok(())
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.enter()?;
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            self.depth -= 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return self.err("expected `,` or `]`"),
                    }
                }
            }
            Some(b'{') => {
                self.enter()?;
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    let val = self.value()?;
                    members.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            self.depth -= 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return self.err("expected `,` or `}`"),
                    }
                }
            }
            Some(_) => self.number(),
        }
    }
}

/// Parse a JSON document under explicit resource limits.
///
/// This is the total frontend for untrusted text: it terminates, never
/// panics, and bounds both recursion depth and document size before
/// doing any work.
///
/// # Errors
/// A typed [`ParseError`]: syntax, depth, or size.
pub fn parse_limited(text: &str, limits: &JsonLimits) -> Result<Json, ParseError> {
    if text.len() > limits.max_bytes {
        return Err(ParseError {
            pos: 0,
            kind: ParseErrorKind::TooLarge { size: text.len(), limit: limits.max_bytes },
        });
    }
    let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0, limits: *limits };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing data");
    }
    Ok(v)
}

/// Parse a JSON document under [`JsonLimits::default`].
///
/// # Errors
/// A description of the first syntax error, with its byte offset.
pub fn parse(text: &str) -> Result<Json, String> {
    parse_limited(text, &JsonLimits::default()).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_values() {
        let v = Json::obj(vec![
            ("s", Json::from("he\"llo\nworld")),
            ("n", Json::from(42u64)),
            ("f", Json::Num(1.5)),
            ("neg", Json::from(-7i64)),
            ("b", Json::Bool(true)),
            ("nil", Json::Null),
            ("arr", Json::Arr(vec![Json::from(1u64), Json::from("x")])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        let compact = v.to_string();
        assert_eq!(parse(&compact).unwrap(), v);
        let pretty = v.pretty();
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(Json::from(7u64).to_string(), "7");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::obj(vec![("z", Json::Null), ("a", Json::Null)]);
        assert_eq!(v.to_string(), r#"{"z":null,"a":null}"#);
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"a": [1, 2], "s": "x"}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert!(v.get("missing").is_none());
        assert_eq!(parse("-12").unwrap().as_i64(), Some(-12));
        assert_eq!(parse("-12").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_i64(), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "truth", "1 2", "1e999", "nan"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn depth_limit_is_a_typed_error() {
        let limits = JsonLimits::default();
        let ok = format!("{}0{}", "[".repeat(limits.max_depth), "]".repeat(limits.max_depth));
        assert!(parse_limited(&ok, &limits).is_ok(), "depth == limit is accepted");
        let deep =
            format!("{}0{}", "[".repeat(limits.max_depth + 1), "]".repeat(limits.max_depth + 1));
        let err = parse_limited(&deep, &limits).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TooDeep { limit: limits.max_depth });
        // Unclosed-open bombs (the classic stack-overflow shape) are
        // caught by the same check.
        let bomb = "[".repeat(1 << 20);
        let err = parse_limited(&bomb, &limits).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TooDeep { limit: limits.max_depth });
        // Mixed object/array nesting counts against the same budget.
        let mixed = format!("{}0{}", "[{\"k\":".repeat(200), "}]".repeat(200));
        assert!(matches!(
            parse_limited(&mixed, &limits).unwrap_err().kind,
            ParseErrorKind::TooDeep { .. }
        ));
    }

    #[test]
    fn size_limit_is_a_typed_error() {
        let limits = JsonLimits { max_depth: 256, max_bytes: 16 };
        assert!(parse_limited("[1,2,3]", &limits).is_ok());
        let err = parse_limited("[1,2,3,4,5,6,7,8]", &limits).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TooLarge { size: 17, limit: 16 });
        // The size check runs before any parsing work.
        assert!(parse_limited(&"x".repeat(17), &limits).is_err());
    }

    #[test]
    fn multi_mib_string_parses_in_linear_time() {
        // One 7 MiB string of 4 Mi characters, mixing 1-, 2- and 3-byte
        // ones. A parser that re-scans the rest of the document per
        // character takes hours on this; a linear one, milliseconds.
        let body = "ab\u{e9}\u{20ac}".repeat(1 << 20);
        let doc = format!("[\"{body}\"]");
        let start = std::time::Instant::now();
        assert_eq!(parse(&doc).unwrap(), Json::Arr(vec![Json::Str(body)]));
        let took = start.elapsed();
        assert!(took < std::time::Duration::from_secs(20), "took {took:?}");
    }

    #[test]
    fn strings_mixing_runs_and_escapes_decode() {
        let cases = [
            (r#""""#, ""),
            (r#""plain run""#, "plain run"),
            (r#""\"\\\/\n\r\t""#, "\"\\/\n\r\t"),
            (r#""a\"b\\c\/d\ne\rf\tg""#, "a\"b\\c/d\ne\rf\tg"),
            (r#""\u0041\u00e9\u20AC!""#, "A\u{e9}\u{20ac}!"),
            (r#""x\ud83dy""#, "x\u{fffd}y"),
            ("\"\u{e9}\u{20ac}\u{1f600}\\n\u{1f600}x\"", "\u{e9}\u{20ac}\u{1f600}\n\u{1f600}x"),
            ("\"tab\there\u{1}\"", "tab\there\u{1}"),
        ];
        for (doc, want) in cases {
            assert_eq!(parse(doc).unwrap(), Json::Str(want.to_string()), "{doc}");
        }
        let obj = parse(r#"{"k\u00e9y": "v\"al", "k2": "\u20ac"}"#).unwrap();
        assert_eq!(obj.get("k\u{e9}y").and_then(Json::as_str), Some("v\"al"));
        assert_eq!(obj.get("k2").and_then(Json::as_str), Some("\u{20ac}"));
    }

    #[test]
    fn string_errors_keep_their_positions() {
        let tail = "[\"x\", \"ab\\\"c\u{1f600}";
        let cases = [
            ("\"abc", 4, "unterminated string"),
            ("{\"ab", 4, "unterminated string"),
            (tail, tail.len(), "unterminated string"),
            ("\"ab\\q\"", 4, "bad escape"),
            ("\"\u{e9}\\\u{e9}\"", 4, "bad escape"),
            ("\"\\u12", 2, "truncated \\u escape"),
            ("\"\\u12zz\"", 2, "bad \\u escape"),
        ];
        for (doc, pos, what) in cases {
            let err = parse_limited(doc, &JsonLimits::default()).unwrap_err();
            assert_eq!(err, ParseError { pos, kind: ParseErrorKind::Syntax(what.into()) }, "{doc}");
        }
    }

    #[test]
    fn typed_errors_render_with_position() {
        let e = parse_limited("[1,", &JsonLimits::default()).unwrap_err();
        assert!(e.to_string().starts_with("json parse error at byte"), "{e}");
    }
}
