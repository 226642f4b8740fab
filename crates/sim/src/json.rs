//! A minimal JSON value and reader, and the string escape of the
//! run-report writer.
//!
//! The workspace deliberately has no serde. [`RunReport::to_json`]
//! writes its byte-deterministic encoding by hand, and
//! [`RunReport::from_json`] reads it back through [`parse_json`], a
//! recursive-descent parser for objects, arrays, strings with the escapes
//! [`escape`] emits, numbers and literals. Numbers keep their literal text
//! so 64-bit counters read back exactly. Other JSON the workspace reads
//! (the repository benchmark's result lines) goes through the same parser.
//!
//! [`RunReport::to_json`]: crate::report::RunReport::to_json
//! [`RunReport::from_json`]: crate::report::RunReport::from_json

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, as written (validated to parse as `f64`).
    Num(String),
    /// String
    Str(String),
    /// Array
    Arr(Vec<Json>),
    /// Object, key-sorted (the report writer emits sorted keys anyway).
    Obj(BTreeMap<String, Json>),
}

/// Parse a JSON document. Errors carry a byte offset for context.
pub fn parse_json(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

impl Json {
    /// Member lookup on an object, `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?.get(key)
    }

    /// Numeric value, `None` otherwise.
    pub fn as_f64(&self) -> Option<f64> {
        self.parse_num()
    }

    /// String value, `None` otherwise.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Object map, `None` otherwise.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Member `key` of an object, converted by `f`; errors name the key.
    pub(crate) fn field<'a, T>(
        &'a self,
        key: &str,
        f: impl FnOnce(&'a Json) -> Result<T, String>,
    ) -> Result<T, String> {
        let v = self.get(key).ok_or_else(|| format!("missing `{key}`"))?;
        f(v).map_err(|e| format!("`{key}`: {e}"))
    }

    /// Every member of an object, converted by `f`.
    pub(crate) fn map<T>(
        &self,
        f: impl Fn(&Json) -> Result<T, String>,
    ) -> Result<BTreeMap<String, T>, String> {
        self.as_obj()
            .ok_or("expected an object")?
            .iter()
            .map(|(k, v)| Ok((k.clone(), f(v).map_err(|e| format!("`{k}`: {e}"))?)))
            .collect()
    }

    /// Unsigned integer value.
    pub(crate) fn u64(&self) -> Result<u64, String> {
        self.parse_num()
            .ok_or_else(|| "expected an unsigned integer".into())
    }

    /// Unsigned 32-bit integer value.
    pub(crate) fn u32(&self) -> Result<u32, String> {
        self.parse_num()
            .ok_or_else(|| "expected a 32-bit unsigned integer".into())
    }

    /// Signed integer value.
    pub(crate) fn i64(&self) -> Result<i64, String> {
        self.parse_num().ok_or_else(|| "expected an integer".into())
    }

    /// Any numeric value.
    pub(crate) fn f64(&self) -> Result<f64, String> {
        self.parse_num().ok_or_else(|| "expected a number".into())
    }

    /// String value.
    pub(crate) fn str(&self) -> Result<&str, String> {
        self.as_str().ok_or_else(|| "expected a string".into())
    }

    /// Array elements.
    pub(crate) fn arr(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(a) => Ok(a),
            _ => Err("expected an array".into()),
        }
    }

    fn parse_num<T: std::str::FromStr>(&self) -> Option<T> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }
}

/// Minimal JSON string escape; metric keys are `[a-z0-9._-]` but report
/// names, span names and lock labels are caller-supplied.
pub(crate) fn escape(s: &str) -> String {
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

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let val = parse_value(b, pos)?;
                map.insert(key, val);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut arr = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(arr));
            }
            loop {
                arr.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(arr));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = b.get(*pos).copied().ok_or("truncated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .ok_or("truncated \\u escape")
                            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        *pos += 4;
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("unsupported escape at byte {pos}")),
                }
            }
            c => {
                // Multi-byte UTF-8 passes through unchanged.
                let start = *pos - 1;
                let len = match c {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let chunk = b.get(start..start + len).ok_or("truncated utf-8")?;
                out.push_str(std::str::from_utf8(chunk).map_err(|_| "bad utf-8")?);
                *pos = start + len;
            }
        }
    }
    Err("unterminated string".into())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while let Some(&c) = b.get(*pos) {
        if matches!(c, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
            *pos += 1;
        } else {
            break;
        }
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .filter(|s| s.parse::<f64>().is_ok())
        .map(|s| Json::Num(s.to_string()))
        .ok_or_else(|| format!("bad number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_every_value_shape() {
        let doc = parse_json(r#"{"a": "x\"y\n", "b": [1, -2.5e1, true, null], "c": {}}"#).unwrap();
        assert_eq!(doc.field("a", Json::str), Ok("x\"y\n"));
        assert_eq!(
            doc.field("b", |b| b.arr().map(<[Json]>::to_vec)),
            Ok(vec![
                Json::Num("1".into()),
                Json::Num("-2.5e1".into()),
                Json::Bool(true),
                Json::Null
            ])
        );
        assert_eq!(doc.field("c", |c| c.map(Json::u64)), Ok(BTreeMap::new()));
        assert!(parse_json("{\"unterminated\": ").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("[1.2.3]").is_err());
    }

    #[test]
    fn integers_read_back_exactly() {
        let doc = parse_json(r#"{"big": 18446744073709551615, "neg": -5, "pct": 12.34}"#).unwrap();
        assert_eq!(doc.field("big", Json::u64), Ok(u64::MAX));
        assert_eq!(doc.field("neg", Json::i64), Ok(-5));
        assert!(doc.field("neg", Json::u64).is_err());
        assert_eq!(doc.field("pct", Json::f64), Ok(12.34));
    }

    #[test]
    fn errors_name_the_path() {
        let doc = parse_json(r#"{"outer": {"inner": "x"}}"#).unwrap();
        let err = doc
            .field("outer", |o| o.field("inner", Json::u64))
            .unwrap_err();
        assert_eq!(err, "`outer`: `inner`: expected an unsigned integer");
        assert_eq!(
            doc.field("absent", Json::u64).unwrap_err(),
            "missing `absent`"
        );
    }

    #[test]
    fn escape_round_trips_through_the_parser() {
        let s = "q\"b\\n\nr\rt\t\u{1}é";
        let doc = parse_json(&format!("\"{}\"", escape(s))).unwrap();
        assert_eq!(doc.str(), Ok(s));
    }
}
