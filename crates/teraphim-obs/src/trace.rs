//! [`QueryTrace`] — the per-operation trace, plus normalization and
//! metric roll-ups.

use crate::event::{EventKind, Phase, TraceEvent};

/// Driver label stamped onto normalized traces in place of the real one.
pub const NORMALIZED_DRIVER: &str = "normalized";

/// The structured trace of one traced operation (a query, a preprocessing
/// exchange, a fetch, ...), as produced by
/// [`TraceSink::take_traces`](crate::TraceSink::take_traces).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    /// Which driver produced the trace: `"real"`, `"sim"`, or
    /// [`NORMALIZED_DRIVER`] after [`QueryTrace::normalized`].
    pub driver: String,
    /// Operation name (`"query"`, `"query_with_coverage"`, `"enable_cv"`,
    /// `"headers"`, ...).
    pub op: String,
    /// Methodology code (`"MS"`, `"CN"`, `"CV"`, `"CI"`) for query
    /// operations, `None` otherwise.
    pub methodology: Option<String>,
    /// The receptionist query id (always 0 in the simulator).
    pub query_id: u32,
    /// Requested answer size (0 for non-ranking operations).
    pub k: u32,
    /// Whether the operation's `End` marker was seen.
    pub complete: bool,
    /// The events between `Begin` and `End`, in time order.
    pub events: Vec<TraceEvent>,
}

impl QueryTrace {
    /// A structurally comparable copy of the trace.
    ///
    /// Normalization makes traces deterministic so they can be committed as
    /// golden fixtures and compared across drivers and dispatch modes:
    ///
    /// 1. the driver label becomes [`NORMALIZED_DRIVER`];
    /// 2. every timestamp becomes 0 (wall-clock and simulated times differ
    ///    run to run, structure does not);
    /// 3. within each maximal contiguous run of librarian-tagged events
    ///    (`sent`, `reply`, `retry`, `timeout`, `fault`, `lib_failed`,
    ///    `scored`), events are stably sorted by librarian index. Parallel
    ///    dispatch interleaves librarians in arrival order; the stable sort
    ///    restores the sequential order while preserving each librarian's
    ///    own event sequence. Phase boundaries and merge/coverage events
    ///    never move.
    #[must_use]
    pub fn normalized(&self) -> QueryTrace {
        let mut trace = self.clone();
        trace.driver = NORMALIZED_DRIVER.to_owned();
        for event in &mut trace.events {
            event.at_micros = 0;
            // Server-side phase durations are timings, not structure:
            // zero them like timestamps so sim (virtual clock), in-proc
            // and TCP backends normalize byte-identically.
            if let EventKind::ServerPhase { micros, .. } = &mut event.kind {
                *micros = 0;
            }
        }
        let events = &mut trace.events;
        let mut i = 0;
        while i < events.len() {
            if events[i].kind.librarian().is_none() {
                i += 1;
                continue;
            }
            let mut j = i;
            while j < events.len() && events[j].kind.librarian().is_some() {
                j += 1;
            }
            events[i..j].sort_by_key(|e| e.kind.librarian());
            i = j;
        }
        trace
    }

    /// The one pairing of a trace's intervals, shared by
    /// [`QueryTrace::metrics`] and
    /// [`MetricsRegistry::observe_operation`](crate::MetricsRegistry::observe_operation):
    /// calls `closed` for every `phase_end` that closes the innermost
    /// open bracket of its phase and for every `reply` that answers the
    /// oldest outstanding `sent` to its librarian, with the interval's
    /// duration. A `lib_failed` discards that librarian's outstanding
    /// requests; brackets and requests still open at the end of the
    /// trace close nothing.
    pub(crate) fn for_each_closed(&self, mut closed: impl FnMut(Closed)) {
        let mut phases: Vec<(Phase, u64)> = Vec::new();
        let mut pending: Vec<(u32, u64)> = Vec::new();
        for event in &self.events {
            let at = event.at_micros;
            match &event.kind {
                EventKind::PhaseStart { phase } => phases.push((*phase, at)),
                EventKind::PhaseEnd { phase } => {
                    if let Some(pos) = phases.iter().rposition(|(p, _)| p == phase) {
                        let (_, started) = phases.remove(pos);
                        closed(Closed::Phase(*phase, at.saturating_sub(started)));
                    }
                }
                EventKind::Sent { librarian, .. } => pending.push((*librarian, at)),
                EventKind::Reply { librarian, .. } => {
                    if let Some(pos) = pending.iter().position(|(l, _)| l == librarian) {
                        let (_, sent_at) = pending.remove(pos);
                        closed(Closed::Exchange(*librarian, at.saturating_sub(sent_at)));
                    }
                }
                EventKind::LibFailed { librarian, .. } => {
                    pending.retain(|(l, _)| l != librarian);
                }
                _ => {}
            }
        }
    }

    /// Rolls the trace up into per-phase durations and traffic counters.
    #[must_use]
    pub fn metrics(&self) -> TraceMetrics {
        let mut metrics = TraceMetrics::default();
        self.for_each_closed(|closed| {
            if let Closed::Phase(phase, micros) = closed {
                metrics.add_phase(phase, micros);
            }
        });
        for event in &self.events {
            match &event.kind {
                EventKind::Sent { bytes, .. } => {
                    metrics.messages_sent += 1;
                    metrics.bytes_sent += bytes;
                }
                EventKind::Reply { bytes, .. } => {
                    metrics.messages_received += 1;
                    metrics.bytes_received += bytes;
                }
                EventKind::Timeout { .. } => metrics.timeouts += 1,
                EventKind::Retry { .. } => metrics.retries += 1,
                EventKind::Fault { .. } => metrics.faults += 1,
                EventKind::LibFailed { .. } => metrics.failed_librarians += 1,
                EventKind::Scored {
                    candidates,
                    postings,
                    ..
                } => {
                    metrics.scored_candidates += u64::from(*candidates);
                    metrics.postings_decoded += postings;
                }
                EventKind::Merge { entries, .. } => metrics.merged_entries += entries,
                EventKind::CacheHit { .. } => metrics.cache_hits += 1,
                EventKind::CacheMiss { stale, .. } => {
                    metrics.cache_misses += 1;
                    if *stale {
                        metrics.cache_stale += 1;
                    }
                }
                EventKind::CacheEvict { entries, .. } => {
                    metrics.cache_evictions += u64::from(*entries);
                }
                _ => {}
            }
        }
        metrics
    }

    /// Per-librarian traffic summed from `sent`/`reply` events, sorted by
    /// librarian index.
    ///
    /// For transports whose counters charge each *logical* request once
    /// (the in-process and TCP transports with client-side fault
    /// injection), these totals line up with `TrafficStats`.
    #[must_use]
    pub fn per_librarian_traffic(&self) -> Vec<LibTraffic> {
        fn row(rows: &mut Vec<LibTraffic>, librarian: u32) -> &mut LibTraffic {
            if let Some(pos) = rows.iter().position(|r| r.librarian == librarian) {
                &mut rows[pos]
            } else {
                rows.push(LibTraffic {
                    librarian,
                    messages: 0,
                    bytes_sent: 0,
                    bytes_received: 0,
                });
                rows.last_mut().unwrap()
            }
        }
        let mut rows: Vec<LibTraffic> = Vec::new();
        for event in &self.events {
            match event.kind {
                EventKind::Sent {
                    librarian, bytes, ..
                } => {
                    let r = row(&mut rows, librarian);
                    r.messages += 1;
                    r.bytes_sent += bytes;
                }
                EventKind::Reply {
                    librarian, bytes, ..
                } => {
                    let r = row(&mut rows, librarian);
                    r.messages += 1;
                    r.bytes_received += bytes;
                }
                _ => {}
            }
        }
        rows.sort_by_key(|r| r.librarian);
        rows
    }

    /// Sums the server-side phase durations (`server_phase` events) in
    /// this trace, keyed by phase label. Labels appear in first-seen
    /// order — [`crate::span::SERVER_PHASES`] order for traces recorded
    /// by the fan-out path. The totals are what the span sum-check
    /// compares against the registry's server-phase histograms.
    #[must_use]
    pub fn server_phase_sums(&self) -> Vec<(&'static str, u64)> {
        let mut sums: Vec<(&'static str, u64)> = Vec::new();
        for event in &self.events {
            if let EventKind::ServerPhase { phase, micros, .. } = event.kind {
                if let Some(slot) = sums.iter_mut().find(|(p, _)| *p == phase) {
                    slot.1 += micros;
                } else {
                    sums.push((phase, micros));
                }
            }
        }
        sums
    }
}

/// An interval found closed by [`QueryTrace::for_each_closed`], with its
/// duration in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Closed {
    /// A `phase_start`/`phase_end` bracket.
    Phase(Phase, u64),
    /// One librarian's `sent`→`reply` exchange.
    Exchange(u32, u64),
}

/// Traffic attributed to one librarian by [`QueryTrace::per_librarian_traffic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LibTraffic {
    /// Librarian index.
    pub librarian: u32,
    /// Messages exchanged (requests sent plus replies received).
    pub messages: u64,
    /// Request bytes sent to the librarian.
    pub bytes_sent: u64,
    /// Reply bytes received from the librarian.
    pub bytes_received: u64,
}

/// Aggregated counters for one trace, from [`QueryTrace::metrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceMetrics {
    /// Completed phases and their durations in microseconds, in order of
    /// first completion. Repeated phases accumulate.
    pub phase_micros: Vec<(Phase, u64)>,
    /// Requests sent.
    pub messages_sent: u64,
    /// Replies received.
    pub messages_received: u64,
    /// Request bytes sent.
    pub bytes_sent: u64,
    /// Reply bytes received.
    pub bytes_received: u64,
    /// Transport timeouts observed.
    pub timeouts: u64,
    /// Retries attempted.
    pub retries: u64,
    /// Injected faults that fired.
    pub faults: u64,
    /// Librarians that dropped out.
    pub failed_librarians: u64,
    /// CI candidates scored across all librarians.
    pub scored_candidates: u64,
    /// Postings decoded while scoring CI candidates.
    pub postings_decoded: u64,
    /// Entries folded into merges.
    pub merged_entries: u64,
    /// Receptionist cache hits (all cache kinds).
    pub cache_hits: u64,
    /// Receptionist cache misses (all cache kinds, stale drops included).
    pub cache_misses: u64,
    /// Misses that dropped an entry from a stale generation.
    pub cache_stale: u64,
    /// Entries evicted by cache inserts.
    pub cache_evictions: u64,
}

impl TraceMetrics {
    fn add_phase(&mut self, phase: Phase, micros: u64) {
        if let Some(slot) = self.phase_micros.iter_mut().find(|(p, _)| *p == phase) {
            slot.1 += micros;
        } else {
            self.phase_micros.push((phase, micros));
        }
    }

    /// Duration of `phase` in microseconds, if it completed in this trace.
    #[must_use]
    pub fn phase(&self, phase: Phase) -> Option<u64> {
        self.phase_micros
            .iter()
            .find(|(p, _)| *p == phase)
            .map(|&(_, micros)| micros)
    }
}

/// Wire traffic summed over a batch of traces, from
/// [`trace_traffic_sums`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceTrafficSums {
    /// Requests sent across all traces.
    pub messages_sent: u64,
    /// Replies received across all traces.
    pub messages_received: u64,
    /// Request bytes sent.
    pub bytes_sent: u64,
    /// Reply bytes received.
    pub bytes_received: u64,
}

/// Sums the wire traffic of a whole trace batch — the trace-side ledger
/// an accounting check compares against transport counters and the
/// metrics registry. One number per direction, independent of how the
/// traffic was split across operations.
#[must_use]
pub fn trace_traffic_sums(traces: &[QueryTrace]) -> TraceTrafficSums {
    let mut sums = TraceTrafficSums::default();
    for trace in traces {
        let m = trace.metrics();
        sums.messages_sent += m.messages_sent;
        sums.messages_received += m.messages_received;
        sums.bytes_sent += m.bytes_sent;
        sums.bytes_received += m.bytes_received;
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            at_micros: at,
            kind,
        }
    }

    fn sent(lib: u32) -> EventKind {
        EventKind::Sent {
            librarian: lib,
            bytes: 10 + u64::from(lib),
            message: "RankRequest",
        }
    }

    fn reply(lib: u32) -> EventKind {
        EventKind::Reply {
            librarian: lib,
            bytes: 100 + u64::from(lib),
            message: "RankResponse",
        }
    }

    fn trace(events: Vec<TraceEvent>) -> QueryTrace {
        QueryTrace {
            driver: "real".to_owned(),
            op: "query".to_owned(),
            methodology: Some("CN".to_owned()),
            query_id: 0,
            k: 10,
            complete: true,
            events,
        }
    }

    #[test]
    fn normalization_reorders_concurrent_arrivals() {
        // Concurrent arrival order 2, 0, 1 with per-librarian Sent→Reply
        // pairs; normalization must yield 0, 1, 2 keeping Sent before Reply.
        let concurrent = trace(vec![
            ev(
                1,
                EventKind::PhaseStart {
                    phase: Phase::RankFanout,
                },
            ),
            ev(2, sent(2)),
            ev(3, sent(0)),
            ev(4, reply(2)),
            ev(5, sent(1)),
            ev(6, reply(0)),
            ev(7, reply(1)),
            ev(8, EventKind::Merge { entries: 30, k: 10 }),
            ev(
                9,
                EventKind::PhaseEnd {
                    phase: Phase::RankFanout,
                },
            ),
        ]);
        let sequential = trace(vec![
            ev(
                0,
                EventKind::PhaseStart {
                    phase: Phase::RankFanout,
                },
            ),
            ev(0, sent(0)),
            ev(0, reply(0)),
            ev(0, sent(1)),
            ev(0, reply(1)),
            ev(0, sent(2)),
            ev(0, reply(2)),
            ev(0, EventKind::Merge { entries: 30, k: 10 }),
            ev(
                0,
                EventKind::PhaseEnd {
                    phase: Phase::RankFanout,
                },
            ),
        ]);
        assert_eq!(concurrent.normalized(), sequential.normalized());
        assert_eq!(concurrent.normalized().driver, NORMALIZED_DRIVER);
    }

    #[test]
    fn metrics_attribute_phases_and_traffic() {
        let t = trace(vec![
            ev(
                10,
                EventKind::PhaseStart {
                    phase: Phase::RankFanout,
                },
            ),
            ev(12, sent(0)),
            ev(20, reply(0)),
            ev(
                25,
                EventKind::Retry {
                    librarian: 1,
                    attempt: 1,
                    error: "timeout",
                },
            ),
            ev(
                30,
                EventKind::LibFailed {
                    librarian: 1,
                    error: "timeout",
                },
            ),
            ev(40, EventKind::Merge { entries: 10, k: 10 }),
            ev(
                50,
                EventKind::PhaseEnd {
                    phase: Phase::RankFanout,
                },
            ),
        ]);
        let m = t.metrics();
        assert_eq!(m.phase(Phase::RankFanout), Some(40));
        assert_eq!(m.phase(Phase::HeaderFetch), None);
        assert_eq!(m.messages_sent, 1);
        assert_eq!(m.bytes_sent, 10);
        assert_eq!(m.bytes_received, 100);
        assert_eq!(m.retries, 1);
        assert_eq!(m.failed_librarians, 1);
        assert_eq!(m.merged_entries, 10);
    }

    #[test]
    fn per_librarian_traffic_sums_sent_and_reply() {
        let t = trace(vec![
            ev(0, sent(1)),
            ev(0, sent(0)),
            ev(0, reply(1)),
            ev(0, reply(0)),
            ev(0, sent(1)),
        ]);
        let rows = t.per_librarian_traffic();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].librarian, 0);
        assert_eq!(rows[0].messages, 2);
        assert_eq!(rows[1].librarian, 1);
        assert_eq!(rows[1].messages, 3);
        assert_eq!(rows[1].bytes_sent, 22);
        assert_eq!(rows[1].bytes_received, 101);
    }

    #[test]
    fn trace_traffic_sums_totals_a_batch() {
        let a = trace(vec![ev(0, sent(0)), ev(1, reply(0))]);
        let b = trace(vec![ev(0, sent(1)), ev(1, reply(1)), ev(2, sent(0))]);
        let sums = trace_traffic_sums(&[a, b]);
        assert_eq!(sums.messages_sent, 3);
        assert_eq!(sums.messages_received, 2);
        assert_eq!(sums.bytes_sent, 10 + 11 + 10);
        assert_eq!(sums.bytes_received, 100 + 101);
        assert_eq!(trace_traffic_sums(&[]), TraceTrafficSums::default());
    }
}
