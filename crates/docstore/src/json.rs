//! The workspace's one JSON reader and string escaper.
//!
//! [`parse`] turns bytes into a [`Value`] tree; [`Value::render_json`]
//! is its inverse (`parse(render(v)) == v` for every finite `v`, see
//! `tests/properties.rs`). Everything that stores or ships JSON goes
//! through this pair: collection files ([`crate::persist`]),
//! nc-bench's result files, and the query bodies and carve lines of
//! nc-serve. Every parse failure carries the byte
//! offset of the offending input, which `POST /carve` surfaces in its
//! typed 400 error body.

use std::fmt::Write as _;

use crate::value::{Document, Value};

/// Maximum nesting depth accepted (arrays + objects combined). Query
/// documents are shallow; the bound keeps hostile bodies from
/// overflowing the parser's recursion.
pub const MAX_DEPTH: usize = 64;

/// A JSON syntax error at a byte offset of the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

/// Append `s` to `out` escaped for the inside of a JSON string literal
/// (the caller writes the surrounding quotes): `"`, `\` and the
/// control characters below U+0020 are escaped, everything else —
/// including non-ASCII — is copied through in unbroken runs.
pub fn escape_into(out: &mut String, s: &str) {
    // Only ASCII bytes are ever escaped, so `run..i` always falls on
    // character boundaries.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0x00..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => write!(out, "\\u{b:04x}").expect("writing to a String cannot fail"),
        }
    }
    out.push_str(&s[run..]);
}

/// Parse one JSON value from `input`, rejecting trailing garbage.
pub fn parse(input: &[u8]) -> Result<Value, JsonError> {
    let mut p = Parser { input, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, JsonError> {
        if self.input[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("invalid literal (expected `{text}`)")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        // Collected, then sorted once into a document (`FromIterator`).
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Doc(Document::new()));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Doc(fields.into_iter().collect()));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.hex4()?;
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require \uXXXX low half.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                self.pos = start;
                                return Err(self.err("unpaired UTF-16 surrogate"));
                            }
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                self.pos = start;
                                return Err(self.err("invalid UTF-16 surrogate pair"));
                            }
                            let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(cp)
                        } else {
                            char::from_u32(hi)
                        };
                        match c {
                            Some(c) => out.push(c),
                            None => {
                                self.pos = start;
                                return Err(self.err("invalid unicode escape"));
                            }
                        }
                    }
                    _ => {
                        self.pos = start;
                        return Err(self.err("invalid escape sequence"));
                    }
                },
                Some(b) if b < 0x20 => {
                    self.pos = start;
                    return Err(self.err("unescaped control character in string"));
                }
                Some(b) if b < 0x80 => out.push(b as char),
                Some(_) => {
                    // Multi-byte UTF-8: re-decode from the byte start.
                    let rest = &self.input[start..];
                    let width = utf8_width(rest[0]);
                    if rest.len() < width {
                        self.pos = start;
                        return Err(self.err("truncated UTF-8 sequence"));
                    }
                    match std::str::from_utf8(&rest[..width]) {
                        Ok(s) => {
                            out.push_str(s);
                            self.pos = start + width;
                        }
                        Err(_) => {
                            self.pos = start;
                            return Err(self.err("invalid UTF-8 in string"));
                        }
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("invalid hex digit in unicode escape"));
                }
            };
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            self.pos = start;
            return Err(self.err("invalid number"));
        }
        // RFC 8259: no leading zeros ("0123", "-007" are not JSON).
        if self.input[digits_start] == b'0' && self.pos - digits_start > 1 {
            self.pos = start;
            return Err(self.err("invalid number (leading zero)"));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                self.pos = start;
                return Err(self.err("invalid number (empty fraction)"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                self.pos = start;
                return Err(self.err("invalid number (empty exponent)"));
            }
        }
        let text = std::str::from_utf8(&self.input[start..self.pos]).expect("ASCII");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        // `str::parse::<f64>` saturates (`1e400` is `inf`) instead of
        // erring; an infinity must not enter a range predicate.
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Value::Float(f)),
            _ => {
                self.pos = start;
                Err(self.err("number out of range"))
            }
        }
    }
}

fn utf8_width(b: u8) -> usize {
    match b {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse(b"null").unwrap(), Value::Null);
        assert_eq!(parse(b"true").unwrap(), Value::Bool(true));
        assert_eq!(parse(b"  -42 ").unwrap(), Value::Int(-42));
        assert_eq!(parse(b"1.5").unwrap(), Value::Float(1.5));
        assert_eq!(parse(b"2e3").unwrap(), Value::Float(2000.0));
        assert_eq!(parse(b"\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn an_object_keeps_the_last_of_duplicate_keys_in_name_order() {
        let v = parse(br#"{"b": 1, "a": 2, "b": 3, "c": 4, "a": 5}"#).unwrap();
        assert_eq!(v.to_json(), r#"{"a":5,"b":3,"c":4}"#);
        // Keys in descending order, the worst case for sorted inserts.
        let n = 20_000;
        let text: Vec<String> = (0..n).rev().map(|i| format!("\"k{i:05}\":{i}")).collect();
        let v = parse(format!("{{{}}}", text.join(",")).as_bytes()).unwrap();
        let d = v.as_doc().unwrap();
        assert_eq!(d.len(), n);
        assert!(d.iter().map(|(k, _)| k).is_sorted());
        assert_eq!(d.get_i64("k12345"), Some(12_345));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(br#"{"a": [1, {"b": "x"}], "c": 0.25}"#).unwrap();
        let d = v.as_doc().unwrap();
        assert_eq!(d.get_i64("a.0"), Some(1));
        assert_eq!(d.get_str("a.1.b"), Some("x"));
        assert_eq!(d.get_f64("c"), Some(0.25));
    }

    #[test]
    fn escapes_and_unicode() {
        assert_eq!(
            parse(br#""a\n\t\"\\A""#).unwrap(),
            Value::Str("a\n\t\"\\A".into())
        );
        // Surrogate pair escape for U+1F600.
        assert_eq!(
            parse(br#""\ud83d\ude00""#).unwrap(),
            Value::Str("\u{1F600}".into())
        );
        // Raw multi-byte UTF-8 passes through.
        assert_eq!(parse("\"é\"".as_bytes()).unwrap(), Value::Str("é".into()));
    }

    #[test]
    fn errors_carry_byte_offsets() {
        let e = parse(b"{\"a\": }").unwrap_err();
        assert_eq!(e.offset, 6);
        let e = parse(b"[1, 2").unwrap_err();
        assert_eq!(e.offset, 5);
        let e = parse(b"{\"a\": 1} x").unwrap_err();
        assert_eq!(e.offset, 9);
        let e = parse(b"").unwrap_err();
        assert_eq!(e.offset, 0);
        let e = parse(b"nul").unwrap_err();
        assert_eq!(e.offset, 0);
    }

    #[test]
    fn rejects_unpaired_surrogates_and_bad_escapes() {
        assert!(parse(br#""\ud83d""#).is_err());
        assert!(parse(br#""\q""#).is_err());
        assert!(parse(b"\"\x01\"").is_err());
    }

    #[test]
    fn rejects_deep_nesting() {
        let mut s = String::new();
        for _ in 0..200 {
            s.push('[');
        }
        assert!(parse(s.as_bytes()).is_err());
    }

    #[test]
    fn rejects_leading_zeros() {
        assert!(parse(b"0123").is_err());
        assert!(parse(b"-007").is_err());
        assert!(parse(br#"{"a": 01}"#).is_err());
        // A lone zero (and zero-led fractions/exponents) are fine.
        assert_eq!(parse(b"0").unwrap(), Value::Int(0));
        assert_eq!(parse(b"-0").unwrap(), Value::Int(0));
        assert_eq!(parse(b"0.5").unwrap(), Value::Float(0.5));
        assert_eq!(parse(b"0e2").unwrap(), Value::Float(0.0));
    }

    #[test]
    fn int_overflow_falls_back_to_float() {
        let v = parse(b"99999999999999999999").unwrap();
        assert!(matches!(v, Value::Float(_)));
    }

    #[test]
    fn rejects_numbers_that_overflow_to_infinity() {
        for text in ["1e400", "-1e400", "[0.5, 1e999]"] {
            let e = parse(text.as_bytes()).unwrap_err();
            assert_eq!(e.message, "number out of range", "{text}");
            assert_eq!(e.offset, text.find(['1', '-']).unwrap(), "{text}");
        }
        // The largest finite double still parses.
        assert_eq!(
            parse(b"1.7976931348623157e308").unwrap(),
            Value::Float(f64::MAX)
        );
    }

    #[test]
    fn escape_into_escapes_quotes_backslashes_and_controls_only() {
        let mut out = String::new();
        escape_into(&mut out, "a\"b\\c\n\r\t\u{1}\u{1f} é\u{1F600}/");
        assert_eq!(out, "a\\\"b\\\\c\\n\\r\\t\\u0001\\u001f é\u{1F600}/");
        let quoted = format!("\"{out}\"");
        assert_eq!(
            parse(quoted.as_bytes()).unwrap(),
            Value::Str("a\"b\\c\n\r\t\u{1}\u{1f} é\u{1F600}/".into())
        );
    }

    #[test]
    fn floats_keep_their_type_through_render_and_parse() {
        // An integral float renders with its `.0`, so it re-reads as a
        // float rather than as `Int(3)`.
        assert_eq!(Value::Float(3.0).to_json(), "3.0");
        assert_eq!(parse(b"3.0").unwrap(), Value::Float(3.0));
        assert_eq!(Value::Float(-0.0).to_json(), "-0.0");
        assert_eq!(Value::Float(1e21).to_json(), "1e21");
        assert_eq!(parse(b"1e21").unwrap(), Value::Float(1e21));
        assert_eq!(Value::Float(f64::NAN).to_json(), "null");
        assert_eq!(Value::Float(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn round_trips_through_render_json() {
        let src = br#"{"match":{"size":{"gte":2},"het":{"lt":0.4}},"limit":10}"#;
        let v = parse(src).unwrap();
        let rendered = v.to_json();
        assert_eq!(parse(rendered.as_bytes()).unwrap(), v);
    }
}
