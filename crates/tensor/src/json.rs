//! A hand-rolled JSON value, writer and parser.
//!
//! The vendored `serde` stub's derives are no-ops (see ROADMAP), so anything
//! in the workspace that needs machine-readable persistence serialises
//! through this minimal JSON implementation instead: the `pit-bench`
//! baselines (`BENCH_*.json`) and the `pit-models` architecture descriptors
//! both round-trip through it. It lives in `pit-tensor` — the crate every
//! other member depends on — and covers the full JSON data model: objects,
//! arrays, strings with escapes, numbers, booleans, null. That is more than
//! any one schema needs, so the committed files survive hand-editing and
//! reformatting.

use std::fmt::Write as _;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key/value pairs in insertion order (duplicate keys keep the last).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key of an object node.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The node as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The node as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The node as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the document with two-space indentation and a trailing
    /// newline, suitable for committing.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_escaped(out, s),
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
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    if n.is_finite() {
        if n == n.trunc() && n.abs() < 1e15 {
            let _ = write!(out, "{}", n as i64);
        } else {
            let _ = write!(out, "{n}");
        }
    } else {
        // JSON has no Inf/NaN; null is the conventional fallback.
        out.push_str("null");
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
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
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits")?;
                        // Surrogate pairs are not needed by our own writer;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or escape in one piece.
                // Both are ASCII, so the run ends on a char boundary of the
                // (valid UTF-8) input; validating only the run keeps the
                // parse linear in the document size.
                let start = *pos;
                while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
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
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

// ---------------------------------------------------------------------------
// Binary payloads
// ---------------------------------------------------------------------------
//
// JSON has no byte-array type, so weight payloads (the `pit-arch/2` model
// artifacts) travel as base64 strings of little-endian bytes. The codec is
// hand-rolled for the same reason the JSON above is: the vendored serde stub
// cannot serialise, and no base64 crate is reachable from the build
// environment.

const BASE64_ALPHABET: &[u8; 64] =
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encodes bytes as standard (RFC 4648, padded) base64.
pub fn encode_base64(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = chunk.get(1).copied().unwrap_or(0) as u32;
        let b2 = chunk.get(2).copied().unwrap_or(0) as u32;
        let triple = (b0 << 16) | (b1 << 8) | b2;
        out.push(BASE64_ALPHABET[(triple >> 18) as usize & 63] as char);
        out.push(BASE64_ALPHABET[(triple >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            BASE64_ALPHABET[(triple >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            BASE64_ALPHABET[triple as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

fn base64_value(c: u8) -> Option<u32> {
    match c {
        b'A'..=b'Z' => Some((c - b'A') as u32),
        b'a'..=b'z' => Some((c - b'a' + 26) as u32),
        b'0'..=b'9' => Some((c - b'0' + 52) as u32),
        b'+' => Some(62),
        b'/' => Some(63),
        _ => None,
    }
}

/// Decodes standard padded base64.
///
/// # Errors
///
/// Returns a message on characters outside the alphabet, a length that is
/// not a multiple of four, or misplaced padding.
pub fn decode_base64(text: &str) -> Result<Vec<u8>, String> {
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err(format!(
            "base64 length {} is not a multiple of four",
            bytes.len()
        ));
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    for (i, quad) in bytes.chunks(4).enumerate() {
        let last = (i + 1) * 4 == bytes.len();
        let pad = quad.iter().filter(|&&c| c == b'=').count();
        if pad > 0 && (!last || pad > 2 || quad[..4 - pad].contains(&b'=')) {
            return Err(format!("misplaced base64 padding near byte {}", i * 4));
        }
        let mut triple = 0u32;
        for (j, &c) in quad.iter().enumerate() {
            let v = if c == b'=' {
                0
            } else {
                base64_value(c)
                    .ok_or_else(|| format!("invalid base64 character at byte {}", i * 4 + j))?
            };
            triple |= v << (18 - 6 * j);
        }
        out.push((triple >> 16) as u8);
        if pad < 2 {
            out.push((triple >> 8) as u8);
        }
        if pad < 1 {
            out.push(triple as u8);
        }
    }
    Ok(out)
}

/// Encodes `f32` values as base64 of their little-endian bytes — the weight
/// payload encoding of the `pit-arch/2` artifact format.
pub fn encode_f32s(values: &[f32]) -> String {
    let mut bytes = Vec::with_capacity(values.len() * 4);
    for v in values {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    encode_base64(&bytes)
}

/// Decodes a base64 string of little-endian `f32` bytes.
///
/// # Errors
///
/// Returns a message on invalid base64 or a byte count that is not a
/// multiple of four.
pub fn decode_f32s(text: &str) -> Result<Vec<f32>, String> {
    let bytes = decode_base64(text)?;
    if !bytes.len().is_multiple_of(4) {
        return Err(format!(
            "f32 payload holds {} bytes, not a multiple of four",
            bytes.len()
        ));
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

/// Encodes `i8` values (int8 weight payloads) as base64, one byte each.
pub fn encode_i8s(values: &[i8]) -> String {
    let bytes: Vec<u8> = values.iter().map(|&v| v as u8).collect();
    encode_base64(&bytes)
}

/// Decodes a base64 string of `i8` bytes.
///
/// # Errors
///
/// Returns a message on invalid base64.
pub fn decode_i8s(text: &str) -> Result<Vec<i8>, String> {
    Ok(decode_base64(text)?.into_iter().map(|b| b as i8).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_a_bench_document() {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::Str("pit-bench/1".into())),
            (
                "records".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("op".into(), Json::Str("conv1d_forward/fast".into())),
                    ("ns_per_iter".into(), Json::Num(1234.5)),
                    ("count".into(), Json::Num(42.0)),
                ])]),
            ),
        ]);
        let text = doc.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(
            back.get("records").unwrap().as_array().unwrap()[0]
                .get("ns_per_iter")
                .unwrap()
                .as_f64(),
            Some(1234.5)
        );
    }

    #[test]
    fn parses_hand_written_json() {
        let text = r#"
            { "a": [1, 2.5, -3e2],
              "b": {"nested": true, "x": null},
              "s": "line\nbreak \"quoted\" A → unicode" }
        "#;
        let doc = Json::parse(text).unwrap();
        let a = doc.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[2].as_f64(), Some(-300.0));
        assert_eq!(doc.get("b").unwrap().get("nested"), Some(&Json::Bool(true)));
        assert_eq!(
            doc.get("s").unwrap().as_str(),
            Some("line\nbreak \"quoted\" A → unicode")
        );
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("\"open").is_err());
        assert!(Json::parse("{\"k\" 1}").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn escapes_special_characters_when_writing() {
        let doc = Json::Str("tab\there \"and\" \\ done".into());
        let text = doc.render();
        assert_eq!(text, "\"tab\\there \\\"and\\\" \\\\ done\"\n");
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(256.0).render(), "256\n");
        assert_eq!(Json::Num(0.5).render(), "0.5\n");
    }

    #[test]
    fn duplicate_keys_keep_the_last_value() {
        let doc = Json::parse(r#"{"k": 1, "k": 2}"#).unwrap();
        assert_eq!(doc.get("k").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn base64_matches_known_vectors() {
        // RFC 4648 test vectors cover every padding case.
        for (plain, encoded) in [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ] {
            assert_eq!(encode_base64(plain.as_bytes()), encoded);
            assert_eq!(decode_base64(encoded).unwrap(), plain.as_bytes());
        }
    }

    #[test]
    fn base64_roundtrips_all_byte_values() {
        let bytes: Vec<u8> = (0..=255u8).collect();
        assert_eq!(decode_base64(&encode_base64(&bytes)).unwrap(), bytes);
    }

    #[test]
    fn base64_rejects_malformed_input() {
        assert!(decode_base64("abc").is_err()); // not a multiple of 4
        assert!(decode_base64("ab!d").is_err()); // bad character
        assert!(decode_base64("a==b").is_err()); // padding inside a quad
        assert!(decode_base64("Zg==Zg==").is_err()); // padding mid-stream
        assert!(decode_base64("Z===").is_err()); // more than two pads
    }

    #[test]
    fn f32_payload_roundtrips_exactly() {
        let values = [0.0f32, -1.5, 3.25e-7, f32::MAX, f32::MIN_POSITIVE, -0.0];
        let text = encode_f32s(&values);
        let back = decode_f32s(&text).unwrap();
        assert_eq!(back.len(), values.len());
        for (a, b) in values.iter().zip(back.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn f32_payload_rejects_wrong_byte_counts() {
        // Five bytes survive base64 but are not a whole number of f32s.
        let text = encode_base64(&[1, 2, 3, 4, 5]);
        let err = decode_f32s(&text).unwrap_err();
        assert!(err.contains("multiple of four"), "{err}");
    }

    #[test]
    fn i8_payload_roundtrips_the_full_range() {
        let values: Vec<i8> = (-128..=127).collect();
        assert_eq!(decode_i8s(&encode_i8s(&values)).unwrap(), values);
    }
}
