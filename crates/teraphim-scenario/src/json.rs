//! A minimal JSON value, writer and parser for the plan format.
//!
//! The workspace takes no serde dependency (`teraphim-obs` hand-writes
//! its trace JSON for the same reason), so plans get a small
//! self-contained round-trippable value type instead. The subset is
//! exactly what plans need: objects with ordered keys, arrays, strings,
//! unsigned integers and booleans. Integers are kept as `u64` — never
//! routed through `f64` — so 64-bit seeds survive a round trip bit for
//! bit.

use std::fmt::Write as _;
use teraphim_obs::json::push_escaped;

/// A parsed JSON value (plan subset: no floats, no null).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (seeds, counts, indices, byte budgets).
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved and emitted verbatim.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the value. Objects keep their field order, so a
    /// parse→render round trip of our own output is byte-identical.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => push_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_escaped(out, key);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses `text` into a value, requiring it to be consumed entirely
    /// (trailing whitespace aside).
    ///
    /// # Errors
    ///
    /// Returns a byte-offset-tagged message on malformed input or on
    /// constructs outside the plan subset (floats, null).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(text, bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(text: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(text, bytes, pos),
        Some(b'[') => parse_arr(text, bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(text, bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(c) if c.is_ascii_digit() => parse_uint(bytes, pos),
        Some(c) => Err(format!("unexpected byte {:?} at {}", *c as char, *pos)),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("expected {word:?} at byte {}", *pos))
    }
}

fn parse_uint(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let mut n: u64 = 0;
    while let Some(c) = bytes.get(*pos) {
        if !c.is_ascii_digit() {
            break;
        }
        n = n
            .checked_mul(10)
            .and_then(|n| n.checked_add(u64::from(c - b'0')))
            .ok_or_else(|| format!("integer overflow at byte {start}"))?;
        *pos += 1;
    }
    // Floats and negative numbers are outside the plan subset; reject
    // them loudly rather than truncating.
    if matches!(bytes.get(*pos), Some(b'.') | Some(b'e') | Some(b'E')) {
        return Err(format!("non-integer number at byte {start}"));
    }
    Ok(Json::UInt(n))
}

fn parse_string(text: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&c) = bytes.get(*pos) else {
            return Err("unterminated string".into());
        };
        match c {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".into());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = text
                            .get(*pos..*pos + 4)
                            .ok_or("truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                        *pos += 4;
                        // Surrogate pairs: plans never emit them (the
                        // writer escapes only controls), but accept
                        // them so hand-edited plans round-trip.
                        let c = if (0xD800..0xDC00).contains(&code) {
                            if !bytes[*pos..].starts_with(b"\\u") {
                                return Err("lone high surrogate".into());
                            }
                            let hex2 = text
                                .get(*pos + 2..*pos + 6)
                                .ok_or("truncated surrogate pair".to_string())?;
                            let low = u32::from_str_radix(hex2, 16)
                                .map_err(|_| format!("bad \\u escape {hex2:?}"))?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err("invalid low surrogate".into());
                            }
                            *pos += 6;
                            0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                        } else {
                            code
                        };
                        out.push(char::from_u32(c).ok_or(format!("invalid code point {c:#x}"))?);
                    }
                    other => return Err(format!("unknown escape \\{}", other as char)),
                }
            }
            _ => {
                // Consume one UTF-8 scalar from the source text.
                let rest = &text[*pos..];
                let ch = rest.chars().next().ok_or("invalid UTF-8".to_string())?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_obj(text: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = parse_string(text, bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        let value = parse_value(text, bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_arr(text: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(text, bytes, pos)?);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip() {
        let value = Json::Obj(vec![
            ("name".into(), Json::Str("plan \"x\"\n\\tab\t".into())),
            ("seed".into(), Json::UInt(u64::MAX)),
            ("ok".into(), Json::Bool(true)),
            (
                "steps".into(),
                Json::Arr(vec![Json::UInt(0), Json::Str("中文 λ".into())]),
            ),
            ("empty".into(), Json::Arr(vec![])),
            ("none".into(), Json::Obj(vec![])),
        ]);
        let text = value.render();
        assert_eq!(Json::parse(&text).unwrap(), value);
        // Render → parse → render is byte-stable.
        assert_eq!(Json::parse(&text).unwrap().render(), text);
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        for n in [0, 1, 42, u64::MAX, u64::MAX - 1, 1 << 53, (1 << 53) + 1] {
            let text = Json::UInt(n).render();
            assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(n));
        }
    }

    #[test]
    fn whitespace_and_escapes_parse() {
        let text = " { \"a\" : [ 1 , true , \"x\\u0041\\n\" ] } ";
        let v = Json::parse(text).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_bool(), Some(true));
        assert_eq!(arr[2].as_str(), Some("xA\n"));
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "1.5",
            "-3",
            "nul",
            "\"abc",
            "{\"a\" 1}",
            "[1] x",
            "18446744073709551616",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }
}
