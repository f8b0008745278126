//! Distributed spans: the wire-propagated [`SpanContext`], server-side
//! [`ServerTimings`], and client-side stitching of a [`QueryTrace`]
//! into one [`SpanTree`] per query.
//!
//! Tracing (PR 3) records a flat event stream; this module folds that
//! stream into the tree the events imply — the receptionist operation
//! at the root, lifecycle phases under it, one span per librarian
//! exchange under the phase that issued it, and the librarian's own
//! server-side phases (queue wait, index scan, rank, serialize) as
//! leaves. The same stitching runs over simulator, in-process and TCP
//! traces, so a normalized span tree is byte-identical across backends
//! — the property the golden fixtures under `tests/fixtures/traces/`
//! pin down.

use crate::event::EventKind;
use crate::json::push_escaped;
use crate::trace::QueryTrace;
use std::fmt::Write as _;

/// The server-side phases a librarian attributes request time to, in
/// canonical order. `queue_wait` is time spent in the server's worker
/// queue before any work began; `scan` is index/vocabulary lookup;
/// `rank` is scoring; `serialize` is reply encoding.
pub const SERVER_PHASES: [&str; 4] = ["queue_wait", "scan", "rank", "serialize"];

/// Slot index of a server phase label, if it is one of
/// [`SERVER_PHASES`].
#[must_use]
pub fn server_phase_index(phase: &str) -> Option<usize> {
    SERVER_PHASES.iter().position(|&p| p == phase)
}

/// `flags` bit: the query is sampled — servers should measure and
/// piggyback [`ServerTimings`] on the reply.
pub const SPAN_SAMPLED: u8 = 1;

/// The compact trace context a request carries across the wire (in the
/// frame envelope, see `teraphim-net::wire`): enough for a server to
/// tag its own measurements with the query they belong to, and for the
/// client to stitch the reply's timings into the right span tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanContext {
    /// Client-assigned trace id (one per traced operation; see
    /// [`TraceSink::current_trace_id`](crate::TraceSink::current_trace_id)).
    pub trace_id: u64,
    /// The client-side span the exchange belongs to — the librarian
    /// (shard) index in this protocol, which is all the receptionist's
    /// fan-out needs to re-attach the reply.
    pub parent_span: u32,
    /// Bit flags; see [`SPAN_SAMPLED`].
    pub flags: u8,
}

impl SpanContext {
    /// A sampled context for one librarian exchange of a trace.
    #[must_use]
    pub fn sampled(trace_id: u64, parent_span: u32) -> Self {
        SpanContext {
            trace_id,
            parent_span,
            flags: SPAN_SAMPLED,
        }
    }

    /// Whether the sampled bit is set.
    #[must_use]
    pub fn is_sampled(&self) -> bool {
        self.flags & SPAN_SAMPLED != 0
    }
}

/// Per-phase server-side time for one handled request, measured by the
/// server and piggybacked on the reply (order matches
/// [`SERVER_PHASES`]). All zeros when the server has no measurement —
/// an untimed service, or the simulator's virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerTimings {
    /// Time queued in the server worker pool before handling began.
    pub queue_micros: u64,
    /// Index / vocabulary scan time.
    pub scan_micros: u64,
    /// Ranking / scoring time.
    pub rank_micros: u64,
    /// Reply serialization time.
    pub serialize_micros: u64,
}

impl ServerTimings {
    /// The timings as `(phase label, micros)` pairs in
    /// [`SERVER_PHASES`] order.
    #[must_use]
    pub fn as_pairs(&self) -> [(&'static str, u64); 4] {
        [
            (SERVER_PHASES[0], self.queue_micros),
            (SERVER_PHASES[1], self.scan_micros),
            (SERVER_PHASES[2], self.rank_micros),
            (SERVER_PHASES[3], self.serialize_micros),
        ]
    }

    /// Total attributed server time.
    #[must_use]
    pub fn total_micros(&self) -> u64 {
        self.queue_micros + self.scan_micros + self.rank_micros + self.serialize_micros
    }

    /// True when nothing was measured.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == ServerTimings::default()
    }
}

/// One node of a [`SpanTree`]: a named interval with optional librarian
/// attribution and child spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span name: the operation for the root, a phase label,
    /// `"librarian"` for an exchange, a [`SERVER_PHASES`] label for a
    /// server-side leaf, or an event tag (`"retry"`, `"failover"`, ...)
    /// for zero-duration annotations.
    pub name: String,
    /// Librarian (shard) index for exchange and server-phase spans.
    pub librarian: Option<u32>,
    /// Start time in microseconds (trace clock; 0 after normalization).
    pub start_micros: u64,
    /// Duration in microseconds (0 after normalization).
    pub duration_micros: u64,
    /// Whether the span ended in failure (timeout, fault, drop-out).
    pub faulted: bool,
    /// Child spans, in completion order.
    pub children: Vec<Span>,
}

impl Span {
    fn new(name: &str, librarian: Option<u32>, start_micros: u64) -> Self {
        Span {
            name: name.to_owned(),
            librarian,
            start_micros,
            duration_micros: 0,
            faulted: false,
            children: Vec::new(),
        }
    }

    /// Total spans in this subtree (including this one).
    #[must_use]
    pub fn len(&self) -> usize {
        1 + self.children.iter().map(Span::len).sum::<usize>()
    }

    /// Always false — a span counts itself.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    fn push_json(&self, depth: usize, out: &mut String) {
        let _ = write!(out, "{{\"depth\":{depth},\"span\":");
        push_escaped(out, &self.name);
        out.push_str(",\"librarian\":");
        match self.librarian {
            Some(lib) => {
                let _ = write!(out, "{lib}");
            }
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ",\"start\":{},\"dur\":{},\"faulted\":{}}}",
            self.start_micros, self.duration_micros, self.faulted
        );
        out.push('\n');
        for child in &self.children {
            child.push_json(depth + 1, out);
        }
    }
}

/// The stitched span tree of one traced operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTree {
    /// Trace id (0 when stitched from a bare [`QueryTrace`], which does
    /// not carry one; the flight recorder stamps the sink's id).
    pub trace_id: u64,
    /// Operation name, from the trace header.
    pub op: String,
    /// Methodology code, from the trace header.
    pub methodology: Option<String>,
    /// Query id, from the trace header.
    pub query_id: u32,
    /// Requested answer size, from the trace header.
    pub k: u32,
    /// Whether any fault / timeout / librarian drop-out occurred.
    pub faulted: bool,
    /// Whether coverage was degraded (a `coverage` event with failures).
    pub degraded: bool,
    /// The root span (the operation itself).
    pub root: Span,
}

impl SpanTree {
    /// Stitches a trace's flat event stream into a span tree.
    ///
    /// * the root span covers the whole operation (first to last event);
    /// * `phase_start`/`phase_end` brackets become nested phase spans;
    /// * each `sent` opens a `"librarian"` span that the matching
    ///   `reply` (or `lib_failed`) closes, attached to the innermost
    ///   open phase;
    /// * `server_phase` events become that librarian span's children —
    ///   the server-side queue-wait/scan/rank/serialize leaves;
    /// * `retry`/`timeout`/`fault`/`failover` become zero-duration
    ///   annotation children of the librarian span they occurred under;
    /// * membership events (`join`/`leave`/`migrate`) annotate the root.
    ///
    /// Stitching a [`QueryTrace::normalized`] trace yields a normalized
    /// span tree (all times and durations zero), which is what the
    /// cross-backend golden fixtures compare byte-for-byte.
    #[must_use]
    pub fn from_trace(trace: &QueryTrace) -> SpanTree {
        let first_at = trace.events.first().map_or(0, |e| e.at_micros);
        let last_at = trace.events.last().map_or(0, |e| e.at_micros);
        let mut root = Span::new(&trace.op, None, first_at);
        root.duration_micros = last_at.saturating_sub(first_at);

        // The enclosing-span stack: root plus any open phase brackets.
        let mut stack: Vec<Span> = vec![root];
        // Librarian spans opened by `sent`, not yet closed.
        let mut open_libs: Vec<(u32, Span)> = Vec::new();
        // Librarian spans closed by `reply`, still collecting their
        // trailing `server_phase` children before being attached.
        let mut closed_libs: Vec<(u32, Span)> = Vec::new();
        let mut faulted = false;
        let mut degraded = false;

        fn flush_closed(stack: &mut [Span], closed: &mut Vec<(u32, Span)>) {
            let top = stack.last_mut().expect("root never pops");
            for (_, span) in closed.drain(..) {
                top.children.push(span);
            }
        }

        for event in &trace.events {
            let at = event.at_micros;
            match &event.kind {
                EventKind::Begin { .. } | EventKind::End => {}
                EventKind::PhaseStart { phase } => {
                    flush_closed(&mut stack, &mut closed_libs);
                    stack.push(Span::new(phase.as_str(), None, at));
                }
                EventKind::PhaseEnd { phase } => {
                    flush_closed(&mut stack, &mut closed_libs);
                    if stack.len() > 1
                        && stack
                            .last()
                            .is_some_and(|s| s.name == phase.as_str() && s.librarian.is_none())
                    {
                        let mut span = stack.pop().expect("checked non-root");
                        span.duration_micros = at.saturating_sub(span.start_micros);
                        stack.last_mut().expect("root remains").children.push(span);
                    }
                }
                EventKind::Sent { librarian, .. } => {
                    // A second exchange to the same librarian flushes
                    // the first's finished span.
                    if let Some(pos) = closed_libs.iter().position(|(l, _)| l == librarian) {
                        let (_, span) = closed_libs.remove(pos);
                        stack
                            .last_mut()
                            .expect("root never pops")
                            .children
                            .push(span);
                    }
                    open_libs.push((*librarian, Span::new("librarian", Some(*librarian), at)));
                }
                EventKind::Reply { librarian, .. } => {
                    if let Some(pos) = open_libs.iter().position(|(l, _)| l == librarian) {
                        let (lib, mut span) = open_libs.remove(pos);
                        span.duration_micros = at.saturating_sub(span.start_micros);
                        closed_libs.push((lib, span));
                    }
                }
                EventKind::ServerPhase {
                    librarian,
                    phase,
                    micros,
                } => {
                    let mut leaf = Span::new(phase, Some(*librarian), at);
                    leaf.duration_micros = *micros;
                    if let Some((_, span)) =
                        closed_libs.iter_mut().rev().find(|(l, _)| l == librarian)
                    {
                        span.children.push(leaf);
                    } else if let Some((_, span)) =
                        open_libs.iter_mut().rev().find(|(l, _)| l == librarian)
                    {
                        span.children.push(leaf);
                    } else {
                        stack
                            .last_mut()
                            .expect("root never pops")
                            .children
                            .push(leaf);
                    }
                }
                EventKind::LibFailed { librarian, error } => {
                    faulted = true;
                    let note = Span::new("lib_failed", Some(*librarian), at);
                    if let Some(pos) = open_libs.iter().position(|(l, _)| l == librarian) {
                        let (lib, mut span) = open_libs.remove(pos);
                        span.duration_micros = at.saturating_sub(span.start_micros);
                        span.faulted = true;
                        span.children.push(note);
                        closed_libs.push((lib, span));
                    } else if let Some((_, span)) =
                        closed_libs.iter_mut().rev().find(|(l, _)| l == librarian)
                    {
                        span.faulted = true;
                        span.children.push(note);
                    } else {
                        let _ = error;
                        stack
                            .last_mut()
                            .expect("root never pops")
                            .children
                            .push(note);
                    }
                }
                EventKind::Timeout { librarian }
                | EventKind::Retry { librarian, .. }
                | EventKind::Fault { librarian, .. }
                | EventKind::Failover { librarian, .. } => {
                    if matches!(
                        event.kind,
                        EventKind::Timeout { .. } | EventKind::Fault { .. }
                    ) {
                        faulted = true;
                    }
                    let note = Span::new(event.kind.tag(), Some(*librarian), at);
                    if let Some((_, span)) =
                        open_libs.iter_mut().rev().find(|(l, _)| l == librarian)
                    {
                        span.children.push(note);
                    } else if let Some((_, span)) =
                        closed_libs.iter_mut().rev().find(|(l, _)| l == librarian)
                    {
                        span.children.push(note);
                    } else {
                        stack
                            .last_mut()
                            .expect("root never pops")
                            .children
                            .push(note);
                    }
                }
                EventKind::Coverage { failed, .. } => {
                    flush_closed(&mut stack, &mut closed_libs);
                    if !failed.is_empty() {
                        degraded = true;
                    }
                }
                EventKind::Join { librarian, .. }
                | EventKind::Leave { librarian, .. }
                | EventKind::Migrate { librarian, .. } => {
                    flush_closed(&mut stack, &mut closed_libs);
                    let note = Span::new(event.kind.tag(), Some(*librarian), at);
                    stack.first_mut().expect("root").children.push(note);
                }
                EventKind::Merge { .. }
                | EventKind::Expansion { .. }
                | EventKind::Scored { .. }
                | EventKind::CacheHit { .. }
                | EventKind::CacheMiss { .. }
                | EventKind::CacheEvict { .. } => {
                    flush_closed(&mut stack, &mut closed_libs);
                }
            }
        }

        flush_closed(&mut stack, &mut closed_libs);
        // Unclosed librarian spans (a drain mid-query): keep as faulted.
        for (_, mut span) in open_libs.drain(..) {
            span.duration_micros = last_at.saturating_sub(span.start_micros);
            span.faulted = true;
            stack
                .last_mut()
                .expect("root never pops")
                .children
                .push(span);
        }
        // Unclosed phase brackets fold back into their parents.
        while stack.len() > 1 {
            let mut span = stack.pop().expect("checked non-root");
            span.duration_micros = last_at.saturating_sub(span.start_micros);
            stack.last_mut().expect("root remains").children.push(span);
        }
        let root = stack.pop().expect("root");
        SpanTree {
            trace_id: 0,
            op: trace.op.clone(),
            methodology: trace.methodology.clone(),
            query_id: trace.query_id,
            k: trace.k,
            faulted,
            degraded,
            root,
        }
    }

    /// Sums server-phase leaf durations across the tree, in
    /// [`SERVER_PHASES`] order — the span-side ledger the three-way
    /// accounting check compares against the registry's server-phase
    /// histograms.
    #[must_use]
    pub fn server_phase_sums(&self) -> [u64; 4] {
        fn walk(span: &Span, sums: &mut [u64; 4]) {
            if let Some(i) = server_phase_index(&span.name) {
                if span.librarian.is_some() {
                    sums[i] += span.duration_micros;
                }
            }
            for child in &span.children {
                walk(child, sums);
            }
        }
        let mut sums = [0u64; 4];
        walk(&self.root, &mut sums);
        sums
    }

    /// Total spans in the tree.
    #[must_use]
    pub fn len(&self) -> usize {
        self.root.len()
    }

    /// Always false — the root span exists.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Encodes the tree as line-oriented JSON: one header line, then one
    /// span per line in pre-order with its depth. Two trees are
    /// structurally equal iff their encodings are byte-equal, matching
    /// the trace fixtures' diffing model.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"trace_id\":{},\"op\":", self.trace_id);
        push_escaped(&mut out, &self.op);
        out.push_str(",\"methodology\":");
        match &self.methodology {
            Some(m) => push_escaped(&mut out, m),
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ",\"query_id\":{},\"k\":{},\"faulted\":{},\"degraded\":{}}}",
            self.query_id, self.k, self.faulted, self.degraded
        );
        out.push('\n');
        self.root.push_json(0, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Phase, TraceEvent};

    fn ev(at: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            at_micros: at,
            kind,
        }
    }

    fn trace(events: Vec<TraceEvent>) -> QueryTrace {
        QueryTrace {
            driver: "real".to_owned(),
            op: "query".to_owned(),
            methodology: Some("CN".to_owned()),
            query_id: 3,
            k: 10,
            complete: true,
            events,
        }
    }

    fn exchange(lib: u32, sent_at: u64, reply_at: u64) -> Vec<TraceEvent> {
        let mut out = vec![
            ev(
                sent_at,
                EventKind::Sent {
                    librarian: lib,
                    bytes: 10,
                    message: "RankRequest",
                },
            ),
            ev(
                reply_at,
                EventKind::Reply {
                    librarian: lib,
                    bytes: 20,
                    message: "RankResponse",
                },
            ),
        ];
        for (i, phase) in SERVER_PHASES.iter().enumerate() {
            out.push(ev(
                reply_at,
                EventKind::ServerPhase {
                    librarian: lib,
                    phase,
                    micros: (i as u64 + 1) * 10,
                },
            ));
        }
        out
    }

    #[test]
    fn stitches_phases_librarians_and_server_phases() {
        let mut events = vec![ev(
            0,
            EventKind::PhaseStart {
                phase: Phase::RankFanout,
            },
        )];
        events.extend(exchange(0, 1, 50));
        events.extend(exchange(1, 2, 70));
        events.push(ev(80, EventKind::Merge { entries: 20, k: 10 }));
        events.push(ev(
            90,
            EventKind::PhaseEnd {
                phase: Phase::RankFanout,
            },
        ));
        let tree = SpanTree::from_trace(&trace(events));
        assert_eq!(tree.root.name, "query");
        assert_eq!(tree.root.duration_micros, 90);
        assert_eq!(tree.root.children.len(), 1);
        let fanout = &tree.root.children[0];
        assert_eq!(fanout.name, "rank_fanout");
        assert_eq!(fanout.duration_micros, 90);
        assert_eq!(fanout.children.len(), 2);
        let lib0 = &fanout.children[0];
        assert_eq!(lib0.name, "librarian");
        assert_eq!(lib0.librarian, Some(0));
        assert_eq!(lib0.duration_micros, 49);
        assert_eq!(lib0.children.len(), 4);
        assert_eq!(lib0.children[0].name, "queue_wait");
        assert_eq!(lib0.children[0].duration_micros, 10);
        assert_eq!(lib0.children[3].name, "serialize");
        assert_eq!(lib0.children[3].duration_micros, 40);
        assert!(!tree.faulted);
        assert!(!tree.degraded);
        // Two librarians × (10+20+30+40) each.
        assert_eq!(tree.server_phase_sums(), [20, 40, 60, 80]);
        assert_eq!(tree.len(), 1 + 1 + 2 * 5);
    }

    #[test]
    fn failures_mark_faulted_and_coverage_marks_degraded() {
        let events = vec![
            ev(
                0,
                EventKind::Sent {
                    librarian: 0,
                    bytes: 5,
                    message: "RankRequest",
                },
            ),
            ev(
                3,
                EventKind::Retry {
                    librarian: 0,
                    attempt: 1,
                    error: "timeout",
                },
            ),
            ev(
                9,
                EventKind::LibFailed {
                    librarian: 0,
                    error: "timeout",
                },
            ),
            ev(
                10,
                EventKind::Coverage {
                    answered: vec![1],
                    failed: vec![0],
                    docs_permille: Some(500),
                },
            ),
        ];
        let tree = SpanTree::from_trace(&trace(events));
        assert!(tree.faulted);
        assert!(tree.degraded);
        let lib = &tree.root.children[0];
        assert_eq!(lib.librarian, Some(0));
        assert!(lib.faulted);
        assert_eq!(lib.duration_micros, 9);
        assert_eq!(lib.children[0].name, "retry");
        assert_eq!(lib.children[1].name, "lib_failed");
    }

    #[test]
    fn normalized_trees_encode_identically_across_arrival_orders() {
        let mut a = vec![ev(
            0,
            EventKind::PhaseStart {
                phase: Phase::RankFanout,
            },
        )];
        a.extend(exchange(1, 2, 40));
        a.extend(exchange(0, 1, 60));
        a.push(ev(
            70,
            EventKind::PhaseEnd {
                phase: Phase::RankFanout,
            },
        ));
        let mut b = vec![ev(
            0,
            EventKind::PhaseStart {
                phase: Phase::RankFanout,
            },
        )];
        b.extend(exchange(0, 5, 11));
        b.extend(exchange(1, 6, 12));
        b.push(ev(
            13,
            EventKind::PhaseEnd {
                phase: Phase::RankFanout,
            },
        ));
        let ta = SpanTree::from_trace(&trace(a).normalized());
        let tb = SpanTree::from_trace(&trace(b).normalized());
        assert_eq!(ta.to_json(), tb.to_json());
        // Normalization zeroes durations, including server-phase leaves.
        assert_eq!(ta.server_phase_sums(), [0, 0, 0, 0]);
    }

    #[test]
    fn span_json_is_line_oriented_with_depths() {
        let mut events = Vec::new();
        events.extend(exchange(2, 0, 5));
        let tree = SpanTree::from_trace(&trace(events));
        let json = tree.to_json();
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.len(), 1 + tree.len());
        assert!(lines[0].starts_with("{\"trace_id\":0,\"op\":\"query\""));
        assert!(lines[1].contains("\"depth\":0,\"span\":\"query\""));
        assert!(lines[2].contains("\"depth\":1,\"span\":\"librarian\",\"librarian\":2"));
        assert!(lines[3].contains("\"depth\":2,\"span\":\"queue_wait\""));
    }

    #[test]
    fn server_timings_pairs_follow_canonical_order() {
        let t = ServerTimings {
            queue_micros: 1,
            scan_micros: 2,
            rank_micros: 3,
            serialize_micros: 4,
        };
        let pairs = t.as_pairs();
        for (i, (name, v)) in pairs.iter().enumerate() {
            assert_eq!(*name, SERVER_PHASES[i]);
            assert_eq!(*v, i as u64 + 1);
        }
        assert_eq!(t.total_micros(), 10);
        assert!(!t.is_zero());
        assert!(ServerTimings::default().is_zero());
        let ctx = SpanContext::sampled(7, 2);
        assert!(ctx.is_sampled());
        assert_eq!(ctx.trace_id, 7);
        assert_eq!(ctx.parent_span, 2);
    }
}
