//! The workspace's one JSON codec: a value ([`Json`]), its parser and
//! its renderer, the line-oriented layouts traces and plans are
//! committed in, and a line-based structural diff for golden tests.
//!
//! The workspace takes no serde dependency, so the subset is exactly
//! what traces and scenario plans need: objects with ordered keys,
//! arrays, strings, unsigned integers, booleans and null. Integers are
//! kept as `u64` — never routed through `f64` — so 64-bit seeds survive
//! a round trip bit for bit. There are no floats.
//!
//! The layouts are deliberately line-oriented: one event, span or plan
//! step per line, stable key order. Two traces are structurally equal
//! iff their JSON strings are byte-equal, which makes fixtures diffable
//! with ordinary text tools.

use crate::event::{EventKind, TraceEvent};
use crate::trace::QueryTrace;
use std::fmt::{self, Write as _};

/// How deep arrays and objects may nest in a parsed document. Plans
/// nest 3 levels and traces 4; anything deeper is refused with
/// [`JsonError::TooDeep`] instead of recursing without bound.
pub const MAX_DEPTH: usize = 32;

/// A JSON value (the workspace subset: no floats).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
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

/// Why [`Json::parse`] refused its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Arrays and objects nest deeper than [`MAX_DEPTH`]; the payload
    /// is the byte offset of the bracket that went one level too far.
    TooDeep(usize),
    /// Malformed input, or a construct outside the subset (floats,
    /// negative numbers): a byte-offset-tagged message.
    Malformed(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::TooDeep(at) => {
                write!(f, "nesting deeper than {MAX_DEPTH} levels at byte {at}")
            }
            JsonError::Malformed(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for JsonError {}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::UInt(u64::from(n))
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::UInt(n)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Json {
        value.map_or(Json::Null, Into::into)
    }
}

/// An object from `(key, value)` pairs, in the order given.
pub(crate) fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn list(items: &[u32]) -> Json {
    Json::Arr(items.iter().map(|&n| n.into()).collect())
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

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the value on one line. Objects keep their field
    /// order, so a parse→render round trip of our own output is
    /// byte-identical.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Serializes an object in the committed-fixture layout: one field
    /// per line, indented two spaces as `"key": value`, and each element
    /// of a non-empty array field on a line of its own, indented four.
    /// Everything within those lines, and a value that is not an object,
    /// renders as [`Json::render`] does.
    pub fn render_lines(&self) -> String {
        let Json::Obj(fields) = self else {
            return self.render();
        };
        let mut out = String::from("{");
        for (i, (key, value)) in fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  ");
            push_escaped(&mut out, key);
            out.push_str(": ");
            match value {
                Json::Arr(items) if !items.is_empty() => {
                    out.push('[');
                    for (j, item) in items.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str("\n    ");
                        item.render_into(&mut out);
                    }
                    out.push_str("\n  ]");
                }
                _ => value.render_into(&mut out),
            }
        }
        out.push_str("\n}");
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
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
    /// [`JsonError::TooDeep`] when arrays and objects nest deeper than
    /// [`MAX_DEPTH`]; [`JsonError::Malformed`] on malformed input or on
    /// constructs outside the subset (floats, negative numbers).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.malformed("trailing data"));
        }
        Ok(value)
    }
}

/// Appends `s` to `out` as a quoted JSON string (`"`, `\`, and control
/// characters escaped).
fn push_escaped(out: &mut String, s: &str) {
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

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn malformed(&self, what: &str) -> JsonError {
        JsonError::Malformed(format!("{what} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.malformed("unexpected end of input")),
            Some(b'{') => self.nested(Parser::obj),
            Some(b'[') => self.nested(Parser::arr),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(c) if c.is_ascii_digit() => self.uint(),
            Some(&c) => Err(self.malformed(&format!("unexpected byte {:?}", c as char))),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::TooDeep(self.pos));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.malformed(&format!("expected {word:?}")))
        }
    }

    fn uint(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let mut n: u64 = 0;
        while let Some(c) = self.bytes.get(self.pos).filter(|c| c.is_ascii_digit()) {
            n = n
                .checked_mul(10)
                .and_then(|n| n.checked_add(u64::from(c - b'0')))
                .ok_or_else(|| JsonError::Malformed(format!("integer overflow at byte {start}")))?;
            self.pos += 1;
        }
        // Floats are outside the subset; reject them loudly rather than
        // truncating.
        if matches!(self.bytes.get(self.pos), Some(b'.' | b'e' | b'E')) {
            return Err(JsonError::Malformed(format!(
                "non-integer number at byte {start}"
            )));
        }
        Ok(Json::UInt(n))
    }

    fn hex4(&self, at: usize) -> Result<u32, JsonError> {
        let hex = self
            .text
            .get(at..at + 4)
            .ok_or_else(|| self.malformed("truncated \\u escape"))?;
        u32::from_str_radix(hex, 16)
            .map_err(|_| JsonError::Malformed(format!("bad \\u escape {hex:?} at byte {at}")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        debug_assert_eq!(self.bytes[self.pos], b'"');
        self.pos += 1;
        let mut out = String::new();
        loop {
            let Some(&c) = self.bytes.get(self.pos) else {
                return Err(self.malformed("unterminated string"));
            };
            match c {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.malformed("unterminated escape"));
                    };
                    self.pos += 1;
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
                            let code = self.hex4(self.pos)?;
                            self.pos += 4;
                            // Surrogate pairs: the renderer escapes only
                            // controls, but accept them so hand-edited
                            // files round-trip.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.malformed("lone high surrogate"));
                                }
                                let low = self.hex4(self.pos + 2)?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.malformed("invalid low surrogate"));
                                }
                                self.pos += 6;
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                code
                            };
                            out.push(char::from_u32(c).ok_or_else(|| {
                                self.malformed(&format!("invalid code point {c:#x}"))
                            })?);
                        }
                        other => {
                            return Err(
                                self.malformed(&format!("unknown escape \\{}", other as char))
                            )
                        }
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar from the source text.
                    let ch = self.text[self.pos..]
                        .chars()
                        .next()
                        .ok_or_else(|| self.malformed("invalid UTF-8"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn obj(&mut self) -> Result<Json, JsonError> {
        self.pos += 1; // '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(self.malformed("expected object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b':') {
                return Err(self.malformed("expected ':'"));
            }
            self.pos += 1;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.malformed("expected ',' or '}'")),
            }
        }
    }

    fn arr(&mut self) -> Result<Json, JsonError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.malformed("expected ',' or ']'")),
            }
        }
    }
}

fn event_json(event: &TraceEvent) -> Json {
    let mut fields = vec![
        ("at", event.at_micros.into()),
        ("ev", event.kind.tag().into()),
    ];
    match &event.kind {
        EventKind::Begin {
            op,
            methodology,
            query_id,
            k,
        } => fields.extend([
            ("op", (*op).into()),
            ("methodology", (*methodology).into()),
            ("query_id", (*query_id).into()),
            ("k", (*k).into()),
        ]),
        EventKind::End => {}
        EventKind::PhaseStart { phase } | EventKind::PhaseEnd { phase } => {
            fields.push(("phase", phase.as_str().into()));
        }
        EventKind::Sent {
            librarian,
            bytes,
            message,
        }
        | EventKind::Reply {
            librarian,
            bytes,
            message,
        } => fields.extend([
            ("librarian", (*librarian).into()),
            ("bytes", (*bytes).into()),
            ("message", (*message).into()),
        ]),
        EventKind::Timeout { librarian } => fields.push(("librarian", (*librarian).into())),
        EventKind::Retry {
            librarian,
            attempt,
            error,
        } => fields.extend([
            ("librarian", (*librarian).into()),
            ("attempt", (*attempt).into()),
            ("error", (*error).into()),
        ]),
        EventKind::Fault { librarian, action } => fields.extend([
            ("librarian", (*librarian).into()),
            ("action", (*action).into()),
        ]),
        EventKind::LibFailed { librarian, error } => fields.extend([
            ("librarian", (*librarian).into()),
            ("error", (*error).into()),
        ]),
        EventKind::Expansion {
            k_prime,
            group_size,
            groups,
            candidates,
        } => fields.extend([
            ("k_prime", (*k_prime).into()),
            ("group_size", (*group_size).into()),
            ("groups", list(groups)),
            (
                "candidates",
                Json::Arr(
                    candidates
                        .iter()
                        .map(|c| {
                            obj(vec![
                                ("librarian", c.librarian.into()),
                                ("docs", list(&c.docs)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        EventKind::Scored {
            librarian,
            candidates,
            postings,
        } => fields.extend([
            ("librarian", (*librarian).into()),
            ("candidates", (*candidates).into()),
            ("postings", (*postings).into()),
        ]),
        EventKind::Merge { entries, k } => {
            fields.extend([("entries", (*entries).into()), ("k", (*k).into())]);
        }
        EventKind::Coverage {
            answered,
            failed,
            docs_permille,
        } => fields.extend([
            ("answered", list(answered)),
            ("failed", list(failed)),
            ("docs_permille", (*docs_permille).into()),
        ]),
        EventKind::CacheHit { cache } => fields.push(("cache", (*cache).into())),
        EventKind::CacheMiss { cache, stale } => {
            fields.extend([("cache", (*cache).into()), ("stale", (*stale).into())]);
        }
        EventKind::CacheEvict { cache, entries } => {
            fields.extend([("cache", (*cache).into()), ("entries", (*entries).into())]);
        }
        EventKind::Failover {
            librarian,
            from,
            to,
            error,
        } => fields.extend([
            ("librarian", (*librarian).into()),
            ("from", (*from).into()),
            ("to", (*to).into()),
            ("error", (*error).into()),
        ]),
        EventKind::Join {
            librarian,
            replica,
            version,
        }
        | EventKind::Leave {
            librarian,
            replica,
            version,
        } => fields.extend([
            ("librarian", (*librarian).into()),
            ("replica", (*replica).into()),
            ("version", (*version).into()),
        ]),
        EventKind::Migrate {
            librarian,
            docs,
            epoch,
        } => fields.extend([
            ("librarian", (*librarian).into()),
            ("docs", (*docs).into()),
            ("epoch", (*epoch).into()),
        ]),
        EventKind::ServerPhase {
            librarian,
            phase,
            micros,
        } => fields.extend([
            ("librarian", (*librarian).into()),
            ("phase", (*phase).into()),
            ("micros", (*micros).into()),
        ]),
    }
    obj(fields)
}

impl QueryTrace {
    /// Encodes the trace as multi-line JSON: header fields first, then one
    /// event per line ([`Json::render_lines`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        obj(vec![
            ("driver", self.driver.as_str().into()),
            ("op", self.op.as_str().into()),
            ("methodology", self.methodology.as_deref().into()),
            ("query_id", self.query_id.into()),
            ("k", self.k.into()),
            ("complete", self.complete.into()),
            (
                "events",
                Json::Arr(self.events.iter().map(event_json).collect()),
            ),
        ])
        .render_lines()
    }
}

/// Appends `value` on one line, then a newline: the layout of span
/// trees and flight-recorder dumps.
pub(crate) fn push_line(out: &mut String, value: &Json) {
    value.render_into(out);
    out.push('\n');
}

/// Encodes a slice of traces as a JSON array (one event per line inside
/// each trace, see [`QueryTrace::to_json`]).
#[must_use]
pub fn traces_to_json(traces: &[QueryTrace]) -> String {
    let mut out = String::from("[");
    for (i, trace) in traces.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&trace.to_json());
    }
    out.push_str("\n]\n");
    out
}

/// Line-based structural diff between two JSON trace encodings.
///
/// Returns `None` when the inputs are equal (ignoring trailing
/// whitespace per line), otherwise a human-readable unified-style diff of
/// the mismatching region, suitable for golden-trace failure messages.
#[must_use]
pub fn diff_json(expected: &str, actual: &str) -> Option<String> {
    let expected_lines: Vec<&str> = expected.lines().map(str::trim_end).collect();
    let actual_lines: Vec<&str> = actual.lines().map(str::trim_end).collect();
    if expected_lines == actual_lines {
        return None;
    }
    let mut first = 0;
    while first < expected_lines.len()
        && first < actual_lines.len()
        && expected_lines[first] == actual_lines[first]
    {
        first += 1;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "traces differ from line {} (expected {} lines, actual {}):",
        first + 1,
        expected_lines.len(),
        actual_lines.len()
    );
    let context = 2;
    let start = first.saturating_sub(context);
    for (i, line) in expected_lines.iter().enumerate().skip(start) {
        if i >= first + context + 4 {
            let _ = writeln!(out, "- ...");
            break;
        }
        let marker = if actual_lines.get(i) == Some(line) {
            ' '
        } else {
            '-'
        };
        let _ = writeln!(out, "{marker} {line}");
    }
    for (i, line) in actual_lines.iter().enumerate().skip(first) {
        if i >= first + context + 4 {
            let _ = writeln!(out, "+ ...");
            break;
        }
        if expected_lines.get(i) != Some(line) {
            let _ = writeln!(out, "+ {line}");
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{LibCandidates, Phase};

    #[test]
    fn event_lines_are_stable() {
        let e = TraceEvent {
            at_micros: 42,
            kind: EventKind::Sent {
                librarian: 3,
                bytes: 128,
                message: "RankRequest",
            },
        };
        assert_eq!(
            event_json(&e).render(),
            "{\"at\":42,\"ev\":\"sent\",\"librarian\":3,\"bytes\":128,\"message\":\"RankRequest\"}"
        );
        let e = TraceEvent {
            at_micros: 0,
            kind: EventKind::Expansion {
                k_prime: 2,
                group_size: 3,
                groups: vec![5, 1],
                candidates: vec![LibCandidates {
                    librarian: 0,
                    docs: vec![9, 10],
                }],
            },
        };
        assert_eq!(
            event_json(&e).render(),
            "{\"at\":0,\"ev\":\"expansion\",\"k_prime\":2,\"group_size\":3,\"groups\":[5,1],\
             \"candidates\":[{\"librarian\":0,\"docs\":[9,10]}]}"
        );
    }

    fn trace(events: Vec<TraceEvent>) -> QueryTrace {
        QueryTrace {
            driver: "real".to_owned(),
            op: "query".to_owned(),
            methodology: None,
            query_id: 1,
            k: 10,
            complete: true,
            events,
        }
    }

    #[test]
    fn trace_json_round_trips_structure() {
        let trace = trace(vec![TraceEvent {
            at_micros: 0,
            kind: EventKind::PhaseStart {
                phase: Phase::RankFanout,
            },
        }]);
        let json = trace.to_json();
        assert!(json.contains("\"methodology\": null"));
        assert!(json.contains("{\"at\":0,\"ev\":\"phase_start\",\"phase\":\"rank_fanout\"}"));
        assert!(diff_json(&json, &json).is_none());
        assert_eq!(Json::parse(&json).unwrap().render_lines(), json);
    }

    #[test]
    fn an_empty_event_list_stays_on_the_header_line() {
        let json = trace(vec![]).to_json();
        assert!(json.ends_with(",\n  \"events\": []\n}"), "{json}");
        assert_eq!(Json::parse(&json).unwrap().render_lines(), json);
    }

    #[test]
    fn diff_reports_first_divergence() {
        let a = "line1\nline2\nline3";
        let b = "line1\nlineX\nline3";
        let d = diff_json(a, b).expect("must differ");
        assert!(d.contains("line 2"));
        assert!(d.contains("- line2"));
        assert!(d.contains("+ lineX"));
    }

    #[test]
    fn values_round_trip() {
        let value = Json::Obj(vec![
            ("name".into(), Json::Str("plan \"x\"\n\\tab\t\u{1}".into())),
            ("seed".into(), Json::UInt(u64::MAX)),
            ("ok".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            (
                "steps".into(),
                Json::Arr(vec![Json::UInt(0), Json::Str("中文 λ".into())]),
            ),
            ("empty".into(), Json::Arr(vec![])),
            ("nothing".into(), Json::Obj(vec![])),
        ]);
        for text in [value.render(), value.render_lines()] {
            assert_eq!(Json::parse(&text).unwrap(), value);
        }
        // Render → parse → render is byte-stable, in both layouts.
        let text = value.render();
        assert_eq!(Json::parse(&text).unwrap().render(), text);
        let lines = value.render_lines();
        assert_eq!(Json::parse(&lines).unwrap().render_lines(), lines);
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
        let text = " { \"a\" : [ 1 , true , null, \"x\\u0041\\n\\ud83d\\ude00\" ] } ";
        let v = Json::parse(text).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1], Json::Bool(true));
        assert_eq!(arr[2], Json::Null);
        assert_eq!(arr[3].as_str(), Some("xA\n😀"));
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
            "\"\\ud800x\"",
            "\"\\q\"",
        ] {
            assert!(
                matches!(Json::parse(bad), Err(JsonError::Malformed(_))),
                "{bad:?} should fail as malformed"
            );
        }
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        // A million unclosed brackets used to recurse once each and
        // overflow the stack; the parser now stops at the cap.
        let deep = "[".repeat(1_000_000);
        assert_eq!(Json::parse(&deep), Err(JsonError::TooDeep(MAX_DEPTH)));
        let deep_objects = "{\"a\":".repeat(1_000_000);
        assert!(matches!(
            Json::parse(&deep_objects),
            Err(JsonError::TooDeep(_))
        ));
        // Exactly at the cap still parses; one more level does not.
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_cap).is_ok());
        let past = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(Json::parse(&past), Err(JsonError::TooDeep(MAX_DEPTH)));
        assert!(JsonError::TooDeep(MAX_DEPTH)
            .to_string()
            .contains("32 levels"));
    }
}
