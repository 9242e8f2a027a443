//! A minimal, dependency-free JSON value: writer *and* parser.
//!
//! The workspace deliberately has zero third-party crates (DESIGN.md §5),
//! so trace export ([`crate::trace`]), the trace round-trip tests, and the
//! `mpcjoin-check` CI tool share this hand-rolled implementation instead of
//! serde. It supports exactly the JSON the simulator emits: objects,
//! arrays, strings (with `\uXXXX` escapes), integers/floats, booleans and
//! `null` — and is strict enough to reject truncated or malformed
//! documents, which is all the CI validation step needs. Since the
//! serving layer (`mpcjoin-server`) also parses *adversarial* bytes off
//! the wire with it, the parser is hardened: it never panics on any
//! input, and every error message names the byte offset of the problem
//! (pinned by the seeded fuzz suite in `tests/tests/json_fuzz.rs`).

use std::fmt::Write as _;

/// A parsed JSON value. Objects preserve key order (emission order is part
/// of the trace format's readability; no key lookup is hash-critical).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number. `f64` holds every load the simulator can measure
    /// (loads are far below 2^53 units).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in emission order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Member `key` of an object (`None` for non-objects / absent keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as an `f64` number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
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

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Member `key` read through `pick`; the error names the key and
    /// the type (`what`) the reader wanted. Every document checker in
    /// the workspace reads required members through the `field_*`
    /// accessors below, so "missing or mistyped" is worded once.
    fn field<'a, T>(
        &'a self,
        key: &str,
        what: &str,
        pick: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        self.get(key)
            .and_then(pick)
            .ok_or_else(|| format!("missing {what} `{key}`"))
    }

    /// Required non-negative integer member `key`.
    pub fn field_u64(&self, key: &str) -> Result<u64, String> {
        self.field(key, "integer", Json::as_u64)
    }

    /// Required number member `key`.
    pub fn field_f64(&self, key: &str) -> Result<f64, String> {
        self.field(key, "number", Json::as_f64)
    }

    /// Required string member `key`.
    pub fn field_str(&self, key: &str) -> Result<&str, String> {
        self.field(key, "string", Json::as_str)
    }

    /// Required boolean member `key`.
    pub fn field_bool(&self, key: &str) -> Result<bool, String> {
        self.field(key, "boolean", Json::as_bool)
    }

    /// Required array member `key`.
    pub fn field_arr(&self, key: &str) -> Result<&[Json], String> {
        self.field(key, "array", Json::as_arr)
    }

    /// Require the document's `schema` member to be exactly `tag`.
    pub fn expect_schema(&self, tag: &str) -> Result<(), String> {
        match self.field_str("schema")? {
            found if found == tag => Ok(()),
            other => Err(format!(
                "unsupported schema `{other}` (only `{tag}` is accepted)"
            )),
        }
    }

    /// Serialize compactly (no whitespace).
    ///
    /// Errors when the document contains a non-finite number: `NaN` and
    /// `±∞` have no JSON representation, and silently emitting `null` (or
    /// an unparseable bare `NaN` token) would corrupt downstream
    /// consumers. Callers with potentially non-finite values must decide
    /// their own encoding (e.g. substitute [`Json::Null`]) *before*
    /// serializing.
    pub fn to_string_compact(&self) -> Result<String, String> {
        let mut out = String::new();
        write_value(self, &mut out)?;
        Ok(out)
    }

    /// Serialize compactly, substituting `null` for any non-finite
    /// number — a *total* function for hardened emit paths (trace and
    /// metrics export) where aborting on a bad guest value would turn an
    /// instrumentation bug into a crashed run. Prefer
    /// [`Json::to_string_compact`] when the caller can meaningfully
    /// report the error instead.
    pub fn to_string_sanitized(&self) -> String {
        fn sanitize(v: &Json) -> Json {
            match v {
                Json::Num(n) if !n.is_finite() => Json::Null,
                Json::Arr(items) => Json::Arr(items.iter().map(sanitize).collect()),
                Json::Obj(members) => Json::Obj(
                    members
                        .iter()
                        .map(|(k, v)| (k.clone(), sanitize(v)))
                        .collect(),
                ),
                other => other.clone(),
            }
        }
        let mut out = String::new();
        // Sanitized values contain no non-finite numbers, so writing
        // cannot fail; fall back to the input's shape with `null`s if it
        // somehow did.
        if write_value(&sanitize(self), &mut out).is_err() {
            out = "null".to_string();
        }
        out
    }
}

/// Escape `s` into a JSON string literal (with surrounding quotes).
pub fn escape_str(s: &str) -> String {
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

fn write_value(v: &Json, out: &mut String) -> Result<(), String> {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => {
            if !n.is_finite() {
                return Err(format!("non-finite number {n} has no JSON representation"));
            }
            if n.fract() == 0.0 && n.abs() < 9e15 {
                let _ = write!(out, "{}", *n as i64);
            } else {
                let _ = write!(out, "{n}");
            }
        }
        Json::Str(s) => out.push_str(&escape_str(s)),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out)?;
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (k, v)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&escape_str(k));
                out.push(':');
                write_value(v, out)?;
            }
            out.push('}');
        }
    }
    Ok(())
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected `{}` at byte {} (found {:?})",
            c as char,
            *pos,
            bytes.get(*pos).map(|b| *b as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(format!("unexpected end of input at byte {}", *pos)),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if matches!(bytes.get(*pos), Some(b'-')) {
        *pos += 1;
    }
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    ) {
        *pos += 1;
    }
    let text =
        std::str::from_utf8(&bytes[start..*pos]).map_err(|e| format!("{e} at byte {start}"))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    let start = *pos;
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(format!("unterminated string starting at byte {start}")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or(format!("truncated \\u escape at byte {}", *pos))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|e| format!("{e} at byte {}", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}` at byte {}", *pos))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?} at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (bytes are valid UTF-8: input
                // came from a &str).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|e| format!("{e} at byte {}", *pos))?;
                let c = rest
                    .chars()
                    .next()
                    .ok_or(format!("unterminated string starting at byte {start}"))?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b']')) {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'}')) {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_document() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::Str("trace \"v1\"\n".into())),
            ("load".into(), Json::Num(1234.0)),
            ("ratio".into(), Json::Num(0.5)),
            ("ok".into(), Json::Bool(true)),
            ("nothing".into(), Json::Null),
            (
                "rows".into(),
                Json::Arr(vec![
                    Json::Num(1.0),
                    Json::Arr(vec![Json::Num(2.0), Json::Num(3.0)]),
                ]),
            ),
        ]);
        let text = doc.to_string_compact().expect("finite doc serializes");
        let back = Json::parse(&text).expect("parses");
        assert_eq!(back, doc);
        assert_eq!(back.get("load").and_then(Json::as_u64), Some(1234));
        assert_eq!(
            back.get("name").and_then(Json::as_str),
            Some("trace \"v1\"\n")
        );
        assert_eq!(
            back.get("rows").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "{\"a\": }",
            "{\"a\": 1} trailing",
            "\"unterminated",
            "{'single': 1}",
            "[1 2]",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = Json::parse(" { \"k\" : [ 1 , \"a\\u0041b\" , null ] } ").unwrap();
        let arr = v.get("k").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[1].as_str(), Some("aAb"));
        assert_eq!(arr[2], Json::Null);
    }

    #[test]
    fn unicode_and_control_characters_round_trip() {
        // Multi-byte UTF-8 (including astral-plane chars), every named
        // escape, and raw C0 control characters all survive a
        // write→parse round trip.
        let cases = [
            "héllo wörld",
            "日本語テスト",
            "𝕊𝕡𝕒𝕣𝕤𝕖 ⊗ 𝕄𝕒𝕥𝕣𝕚𝕩",
            "emoji: \u{1F680} end",
            "quote \" backslash \\ slash / done",
            "tab\there\nnewline\rreturn",
            "bell \u{7} backspace \u{8} formfeed \u{c} esc \u{1b}",
            "nul \u{0} unit-sep \u{1f}",
            "",
        ];
        for s in cases {
            let doc = Json::Obj(vec![("k".into(), Json::Str(s.into()))]);
            let text = doc.to_string_compact().expect("finite doc serializes");
            // Control characters must be escaped, never emitted raw.
            assert!(
                !text.chars().any(|c| (c as u32) < 0x20),
                "raw control char in {text:?}"
            );
            let back = Json::parse(&text).expect("round-trip parses");
            assert_eq!(back.get("k").and_then(Json::as_str), Some(s));
        }
    }

    #[test]
    fn parses_surrogate_free_u_escapes_for_bmp_chars() {
        let v = Json::parse("\"\\u00e9\\u65e5\\u001f\"").unwrap();
        assert_eq!(v.as_str(), Some("é日\u{1f}"));
    }

    #[test]
    fn non_finite_numbers_are_an_error_not_null() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = Json::Obj(vec![("ratio".into(), Json::Num(bad))]);
            let err = doc.to_string_compact().expect_err("must refuse {bad}");
            assert!(
                err.contains("non-finite"),
                "error should name the problem: {err}"
            );
        }
        // Nested occurrences are caught too.
        let nested = Json::Arr(vec![Json::Num(1.0), Json::Arr(vec![Json::Num(f64::NAN)])]);
        assert!(nested.to_string_compact().is_err());
        // And the parser rejects bare NaN/Infinity tokens on the way in.
        for bad in ["NaN", "Infinity", "-Infinity", "[NaN]"] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn sanitized_printer_is_total() {
        let doc = Json::Obj(vec![
            ("ok".into(), Json::Num(2.5)),
            ("bad".into(), Json::Num(f64::NAN)),
            ("nested".into(), Json::Arr(vec![Json::Num(f64::INFINITY)])),
        ]);
        let text = doc.to_string_sanitized();
        let back = Json::parse(&text).expect("sanitized output parses");
        assert_eq!(back.get("ok").and_then(Json::as_f64), Some(2.5));
        assert_eq!(back.get("bad"), Some(&Json::Null));
        assert_eq!(
            back.get("nested").and_then(Json::as_arr),
            Some(&[Json::Null][..])
        );
    }

    #[test]
    fn field_accessors_name_the_key_and_the_wanted_type() {
        let v = Json::parse(r#"{"schema":"s-v1","n":3,"x":2.5,"s":"a","b":true,"a":[1]}"#).unwrap();
        assert_eq!(v.field_u64("n"), Ok(3));
        assert_eq!(v.field_f64("x"), Ok(2.5));
        assert_eq!(v.field_str("s"), Ok("a"));
        assert_eq!(v.field_bool("b"), Ok(true));
        assert_eq!(v.field_arr("a").map(<[Json]>::len), Ok(1));
        assert_eq!(v.field_u64("x").unwrap_err(), "missing integer `x`");
        assert_eq!(v.field_str("nope").unwrap_err(), "missing string `nope`");
        assert_eq!(
            Json::Null.field_bool("b").unwrap_err(),
            "missing boolean `b`"
        );
        assert!(v.expect_schema("s-v1").is_ok());
        let err = v.expect_schema("s-v2").unwrap_err();
        assert!(err.contains("unsupported schema `s-v1`"), "{err}");
        assert_eq!(
            Json::Obj(vec![]).expect_schema("s-v1").unwrap_err(),
            "missing string `schema`"
        );
    }

    #[test]
    fn negative_and_float_numbers() {
        let v = Json::parse("[-3, 2.5, 1e3]").unwrap();
        let arr = v.as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(-3.0));
        assert_eq!(arr[0].as_u64(), None);
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_u64(), Some(1000));
    }
}
