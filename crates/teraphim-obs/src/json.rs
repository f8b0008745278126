//! Hand-rolled JSON encoding for traces (the workspace takes no serde
//! dependency) and a line-based structural diff for golden-trace tests.
//!
//! The encoding is deliberately line-oriented: one event per line, stable
//! key order. Two traces are structurally equal iff their JSON strings are
//! byte-equal, which makes fixtures diffable with ordinary text tools.

use crate::event::{EventKind, TraceEvent};
use crate::trace::QueryTrace;
use std::fmt::Write as _;

/// Appends `s` to `out` as a quoted JSON string — the workspace's one
/// string escaper (`"`, `\`, and control characters).
pub fn push_escaped(out: &mut String, s: &str) {
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

fn push_u32_list(out: &mut String, items: &[u32]) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{item}");
    }
    out.push(']');
}

fn event_json(event: &TraceEvent) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"at\":{},\"ev\":\"{}\"",
        event.at_micros,
        event.kind.tag()
    );
    match &event.kind {
        EventKind::Begin {
            op,
            methodology,
            query_id,
            k,
        } => {
            out.push_str(",\"op\":");
            push_escaped(&mut out, op);
            out.push_str(",\"methodology\":");
            match methodology {
                Some(m) => push_escaped(&mut out, m),
                None => out.push_str("null"),
            }
            let _ = write!(out, ",\"query_id\":{query_id},\"k\":{k}");
        }
        EventKind::End => {}
        EventKind::PhaseStart { phase } | EventKind::PhaseEnd { phase } => {
            let _ = write!(out, ",\"phase\":\"{}\"", phase.as_str());
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
        } => {
            let _ = write!(
                out,
                ",\"librarian\":{librarian},\"bytes\":{bytes},\"message\":"
            );
            push_escaped(&mut out, message);
        }
        EventKind::Timeout { librarian } => {
            let _ = write!(out, ",\"librarian\":{librarian}");
        }
        EventKind::Retry {
            librarian,
            attempt,
            error,
        } => {
            let _ = write!(
                out,
                ",\"librarian\":{librarian},\"attempt\":{attempt},\"error\":"
            );
            push_escaped(&mut out, error);
        }
        EventKind::Fault { librarian, action } => {
            let _ = write!(out, ",\"librarian\":{librarian},\"action\":");
            push_escaped(&mut out, action);
        }
        EventKind::LibFailed { librarian, error } => {
            let _ = write!(out, ",\"librarian\":{librarian},\"error\":");
            push_escaped(&mut out, error);
        }
        EventKind::Expansion {
            k_prime,
            group_size,
            groups,
            candidates,
        } => {
            let _ = write!(
                out,
                ",\"k_prime\":{k_prime},\"group_size\":{group_size},\"groups\":"
            );
            push_u32_list(&mut out, groups);
            out.push_str(",\"candidates\":[");
            for (i, c) in candidates.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"librarian\":{},\"docs\":", c.librarian);
                push_u32_list(&mut out, &c.docs);
                out.push('}');
            }
            out.push(']');
        }
        EventKind::Scored {
            librarian,
            candidates,
            postings,
        } => {
            let _ = write!(
                out,
                ",\"librarian\":{librarian},\"candidates\":{candidates},\"postings\":{postings}"
            );
        }
        EventKind::Merge { entries, k } => {
            let _ = write!(out, ",\"entries\":{entries},\"k\":{k}");
        }
        EventKind::Coverage {
            answered,
            failed,
            docs_permille,
        } => {
            out.push_str(",\"answered\":");
            push_u32_list(&mut out, answered);
            out.push_str(",\"failed\":");
            push_u32_list(&mut out, failed);
            match docs_permille {
                Some(p) => {
                    let _ = write!(out, ",\"docs_permille\":{p}");
                }
                None => out.push_str(",\"docs_permille\":null"),
            }
        }
        EventKind::CacheHit { cache } => {
            out.push_str(",\"cache\":");
            push_escaped(&mut out, cache);
        }
        EventKind::CacheMiss { cache, stale } => {
            out.push_str(",\"cache\":");
            push_escaped(&mut out, cache);
            let _ = write!(out, ",\"stale\":{stale}");
        }
        EventKind::CacheEvict { cache, entries } => {
            out.push_str(",\"cache\":");
            push_escaped(&mut out, cache);
            let _ = write!(out, ",\"entries\":{entries}");
        }
        EventKind::Failover {
            librarian,
            from,
            to,
            error,
        } => {
            let _ = write!(
                out,
                ",\"librarian\":{librarian},\"from\":{from},\"to\":{to},\"error\":"
            );
            push_escaped(&mut out, error);
        }
        EventKind::Join {
            librarian,
            replica,
            version,
        } => {
            let _ = write!(
                out,
                ",\"librarian\":{librarian},\"replica\":{replica},\"version\":{version}"
            );
        }
        EventKind::Leave {
            librarian,
            replica,
            version,
        } => {
            let _ = write!(
                out,
                ",\"librarian\":{librarian},\"replica\":{replica},\"version\":{version}"
            );
        }
        EventKind::Migrate {
            librarian,
            docs,
            epoch,
        } => {
            let _ = write!(
                out,
                ",\"librarian\":{librarian},\"docs\":{docs},\"epoch\":{epoch}"
            );
        }
        EventKind::ServerPhase {
            librarian,
            phase,
            micros,
        } => {
            let _ = write!(out, ",\"librarian\":{librarian},\"phase\":");
            push_escaped(&mut out, phase);
            let _ = write!(out, ",\"micros\":{micros}");
        }
    }
    out.push('}');
    out
}

impl QueryTrace {
    /// Encodes the trace as multi-line JSON: header fields first, then one
    /// event per line.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"driver\": ");
        push_escaped(&mut out, &self.driver);
        out.push_str(",\n  \"op\": ");
        push_escaped(&mut out, &self.op);
        out.push_str(",\n  \"methodology\": ");
        match &self.methodology {
            Some(m) => push_escaped(&mut out, m),
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ",\n  \"query_id\": {},\n  \"k\": {},\n  \"complete\": {},\n  \"events\": [",
            self.query_id, self.k, self.complete
        );
        for (i, event) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&event_json(event));
        }
        if self.events.is_empty() {
            out.push(']');
        } else {
            out.push_str("\n  ]");
        }
        out.push_str("\n}");
        out
    }
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
            event_json(&e),
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
            event_json(&e),
            "{\"at\":0,\"ev\":\"expansion\",\"k_prime\":2,\"group_size\":3,\"groups\":[5,1],\
             \"candidates\":[{\"librarian\":0,\"docs\":[9,10]}]}"
        );
    }

    #[test]
    fn trace_json_round_trips_structure() {
        let trace = QueryTrace {
            driver: "real".to_owned(),
            op: "query".to_owned(),
            methodology: None,
            query_id: 1,
            k: 10,
            complete: true,
            events: vec![TraceEvent {
                at_micros: 0,
                kind: EventKind::PhaseStart {
                    phase: Phase::RankFanout,
                },
            }],
        };
        let json = trace.to_json();
        assert!(json.contains("\"methodology\": null"));
        assert!(json.contains("{\"at\":0,\"ev\":\"phase_start\",\"phase\":\"rank_fanout\"}"));
        assert!(diff_json(&json, &json).is_none());
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
}
