//! Minimal JSON value parsing shared across the workspace.
//!
//! `cedar-obs` carries the repository's hand-rolled JSON *producers*;
//! consumers — the serving tier's wire protocol, the `cedar-track`
//! benchmark-history ingesters — also need the values themselves (job
//! type, CE counts, measured rates) out of a document. This is the
//! workspace's one JSON grammar: [`crate::export::validate_json`] is a
//! call into the same parser core. Output still goes through
//! [`crate::export::escape_json`] — one escaping discipline across the
//! whole workspace.
//!
//! The dialect is exactly RFC 8259 minus two deliberate bounds chosen
//! for a network-facing parser: nesting beyond [`MAX_DEPTH`] and
//! inputs beyond [`MAX_LEN`] bytes are rejected, so a hostile request
//! line cannot blow the parse stack or memory. Every byte of the input
//! is scanned once, so parse time is linear in its length.

use std::collections::BTreeMap;

/// Maximum nesting depth accepted from the wire.
pub const MAX_DEPTH: usize = 32;

/// Maximum request line length in bytes accepted from the wire.
pub const MAX_LEN: usize = 64 * 1024;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON has only doubles).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, key-sorted; duplicate keys keep the last value,
    /// like every mainstream parser.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member `key` of an object, if this is an object that has it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a `u64`, if this is a non-negative
    /// integral number that fits.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n >= 0.0 && n <= 2f64.powi(53) && n.fract() == 0.0 {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses one complete JSON value, rejecting trailing data.
///
/// # Errors
///
/// Returns a description of the first syntax error, with its byte
/// offset.
pub fn parse(input: &str) -> Result<Json, String> {
    if input.len() > MAX_LEN {
        return Err(format!("input of {} bytes exceeds {MAX_LEN}", input.len()));
    }
    parse_document(input)
}

/// [`parse`] without the [`MAX_LEN`] wire bound, for trusted documents
/// of any size (a Chrome trace export runs to megabytes). Nesting is
/// still bounded by [`MAX_DEPTH`].
pub(crate) fn parse_document(input: &str) -> Result<Json, String> {
    let mut pos = 0usize;
    skip_ws(input.as_bytes(), &mut pos);
    let value = parse_value(input, &mut pos, 0)?;
    skip_ws(input.as_bytes(), &mut pos);
    if pos != input.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(src: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    let bytes = src.as_bytes();
    let Some(&b) = bytes.get(*pos) else {
        return Err(format!("unexpected end of input at byte {pos}"));
    };
    match b {
        b'{' => parse_object(src, pos, depth),
        b'[' => parse_array(src, pos, depth),
        b'"' => parse_string(src, pos).map(Json::Str),
        b't' => parse_literal(bytes, pos, "true").map(|()| Json::Bool(true)),
        b'f' => parse_literal(bytes, pos, "false").map(|()| Json::Bool(false)),
        b'n' => parse_literal(bytes, pos, "null").map(|()| Json::Null),
        b'-' | b'0'..=b'9' => parse_number(src, pos),
        other => Err(format!("unexpected byte '{}' at {pos}", other as char)),
    }
}

fn parse_object(src: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = src.as_bytes();
    *pos += 1; // consume '{'
    let mut members = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        let key = parse_string(src, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        let value = parse_value(src, pos, depth + 1)?;
        members.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(&b',') => *pos += 1,
            Some(&b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(src: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = src.as_bytes();
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        skip_ws(bytes, pos);
        items.push(parse_value(src, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(&b',') => *pos += 1,
            Some(&b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

/// Scans a string literal in one pass: runs of unescaped characters
/// are copied as whole `&str` slices (a quote or backslash is ASCII,
/// so it always sits on a character boundary), escapes are decoded in
/// place. Raw control characters are rejected, as RFC 8259 requires.
fn parse_string(src: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = src.as_bytes();
    *pos += 1; // consume opening quote
    let mut out = String::new();
    let mut run = *pos;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'"' => {
                out.push_str(&src[run..*pos]);
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                out.push_str(&src[run..*pos]);
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            *pos += 1;
                            let d = bytes
                                .get(*pos)
                                .and_then(|c| (*c as char).to_digit(16))
                                .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                            code = code * 16 + d;
                        }
                        // Surrogates collapse to the replacement char;
                        // the protocol is ASCII in practice.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
                run = *pos;
            }
            0x00..=0x1f => return Err(format!("unescaped control character at byte {pos}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_owned())
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

/// Scans exactly RFC 8259's `number` production,
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, and stops
/// at its end: whatever follows (`01`'s second digit, `1.2.3`'s
/// second dot) is left for the caller to reject as trailing data.
fn parse_number(src: &str, pos: &mut usize) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let start = *pos;
    let bad = || format!("bad number at byte {start}");
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match bytes.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            skip_digits(bytes, pos);
        }
        _ => return Err(bad()),
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if skip_digits(bytes, pos) == 0 {
            return Err(bad());
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if skip_digits(bytes, pos) == 0 {
            return Err(bad());
        }
    }
    src[start..*pos]
        .parse::<f64>()
        .map(Json::Num)
        .map_err(|_| bad())
}

/// Advances past a run of ASCII digits, returning how many there were.
fn skip_digits(bytes: &[u8], pos: &mut usize) -> usize {
    let from = *pos;
    while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    *pos - from
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_request_shaped_object() {
        let v = parse(
            r#"{"op":"run","id":"c1-7","job":{"type":"hotspot","ces":4,"fraction":0.05},"deadline_ms":250}"#,
        )
        .unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("run"));
        assert_eq!(v.get("deadline_ms").unwrap().as_u64(), Some(250));
        let job = v.get("job").unwrap();
        assert_eq!(job.get("ces").unwrap().as_u64(), Some(4));
        assert_eq!(job.get("fraction").unwrap().as_f64(), Some(0.05));
    }

    #[test]
    fn escapes_round_trip() {
        let v = parse(r#"{"s":"a\"b\\c\ndA"}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn rejects_garbage_like_the_obs_validator() {
        for bad in ["{\"a\":", "[1,2,]", "{\"a\":1} extra", "\"open", "{broken}"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
            assert!(
                crate::export::validate_json(bad).is_err(),
                "{bad:?} must not validate"
            );
        }
        assert!(parse("[1, 2, {\"k\": [true, null, -3.5e2]}]").is_ok());
    }

    #[test]
    fn rejects_hostile_depth_and_length() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err());
        assert!(crate::export::validate_json(&deep).is_err());
        let long = format!("\"{}\"", "x".repeat(MAX_LEN));
        assert!(parse(&long).is_err());
        // The length bound is the wire's, not the grammar's.
        assert!(crate::export::validate_json(&long).is_ok());
    }

    #[test]
    fn number_edges() {
        assert_eq!(parse("-3.5e2").unwrap().as_f64(), Some(-350.0));
        assert_eq!(parse("18446744073709551615").unwrap().as_u64(), None);
        assert_eq!(parse("4.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn numbers_follow_the_rfc_8259_production_exactly() {
        let accept: [(&str, f64); 12] = [
            ("0", 0.0),
            ("-0", -0.0),
            ("7", 7.0),
            ("-12", -12.0),
            ("0.5", 0.5),
            ("-0.25", -0.25),
            ("10.0", 10.0),
            ("1e3", 1000.0),
            ("1E+3", 1000.0),
            ("25e-1", 2.5),
            ("-1.5e2", -150.0),
            ("0e0", 0.0),
        ];
        for (text, want) in accept {
            assert_eq!(parse(text).unwrap().as_f64(), Some(want), "{text:?}");
            crate::export::validate_json(text).unwrap();
        }
        let reject = [
            "01", "00", "-01", "1.", "-.5", ".5", "+1", "--1", "-", "1e", "1e+", "1.e3", "1.2.3",
            "0x10", "1e2.5", "Infinity", "NaN", "[01]", "[1.]",
        ];
        for text in reject {
            assert!(parse(text).is_err(), "{text:?} must not parse");
            assert!(
                crate::export::validate_json(text).is_err(),
                "{text:?} must not validate"
            );
        }
    }

    #[test]
    fn strings_scan_in_linear_time_and_keep_multibyte_text() {
        // A string value filling the whole wire bound parses (the old
        // per-character re-validation of the remaining input made this
        // quadratic: tens of milliseconds per line).
        let body = "é".repeat((MAX_LEN - 16) / 2);
        let doc = format!("{{\"s\":\"{body}\"}}");
        assert!(doc.len() <= MAX_LEN && doc.len() > 60 * 1024);
        assert_eq!(
            parse(&doc).unwrap().get("s").unwrap().as_str(),
            Some(body.as_str())
        );
        let mixed = parse(r#""a\u00e9b→c\"d""#).unwrap();
        assert_eq!(mixed.as_str(), Some("a\u{e9}b→c\"d"));
        // RFC 8259: control characters inside strings must be escaped.
        assert!(parse("\"tab\there\"").is_err());
        assert!(parse("\"tab\\there\"").is_ok());
    }

    #[test]
    fn everything_we_emit_parses_and_validates() {
        // The serve protocol renders with cedar-obs escaping; both the
        // obs validator and this parser must accept it.
        let line = format!(
            "{{\"status\":\"ok\",\"reason\":\"{}\"}}",
            crate::export::escape_json("a\"b\\c\nd")
        );
        crate::export::validate_json(&line).unwrap();
        let v = parse(&line).unwrap();
        assert_eq!(v.get("reason").unwrap().as_str(), Some("a\"b\\c\nd"));
    }
}
