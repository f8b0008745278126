//! [`QueryTrace`] — the per-operation trace, plus normalization and
//! its roll-up into phase durations and [`Counts`].

use crate::event::{EventKind, Phase, TraceEvent};
use crate::metrics::Counts;
use crate::span::server_phase_index;

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
    /// open bracket of its phase, for every `reply` that answers the
    /// oldest outstanding `sent` to its librarian, with the interval's
    /// duration, and for every `server_phase` the server timed. A
    /// `lib_failed` discards that librarian's outstanding requests;
    /// brackets and requests still open at the end of the trace close
    /// nothing.
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
                EventKind::ServerPhase { phase, micros, .. } => {
                    if let Some(slot) = server_phase_index(phase) {
                        closed(Closed::ServerPhase(slot, *micros));
                    }
                }
                _ => {}
            }
        }
    }

    /// Rolls the trace up into per-phase durations and its counts.
    #[must_use]
    pub fn metrics(&self) -> TraceMetrics {
        let mut phase_micros: Vec<(Phase, u64)> = Vec::new();
        self.for_each_closed(|closed| {
            if let Closed::Phase(phase, micros) = closed {
                match phase_micros.iter_mut().find(|(p, _)| *p == phase) {
                    Some(slot) => slot.1 += micros,
                    None => phase_micros.push((phase, micros)),
                }
            }
        });
        TraceMetrics {
            phase_micros,
            counts: self.events.iter().map(|e| &e.kind).collect(),
        }
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
    /// A server-side phase, by [`crate::span::SERVER_PHASES`] slot.
    ServerPhase(usize, u64),
}

/// One trace rolled up, from [`QueryTrace::metrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceMetrics {
    /// Completed phases and their durations in microseconds, in order of
    /// first completion. Repeated phases accumulate.
    pub phase_micros: Vec<(Phase, u64)>,
    /// The trace's counts, per librarian where the catalogue keeps them
    /// so. A batch's counts are the events of all its traces collected.
    pub counts: Counts,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Count;

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
        assert_eq!(m.phase_micros, vec![(Phase::RankFanout, 40)]);
        assert_eq!(m.counts.get(Count::SENT), 1);
        assert_eq!(m.counts.get(Count::BYTES_SENT), 10);
        assert_eq!(m.counts.get(Count::BYTES_RECEIVED), 100);
        assert_eq!(m.counts.get(Count::RETRIES), 1);
        assert_eq!(m.counts.get(Count::FAILURES), 1);
        assert_eq!(m.counts.get(Count::MERGED_ENTRIES), 10);
    }

    #[test]
    fn counts_keep_traffic_per_librarian() {
        let t = trace(vec![
            ev(0, sent(1)),
            ev(0, sent(0)),
            ev(0, reply(1)),
            ev(0, reply(0)),
            ev(0, sent(1)),
        ]);
        let counts = t.metrics().counts;
        assert_eq!(counts.librarians(), 2);
        assert_eq!(counts.librarian(0, Count::SENT), 1);
        assert_eq!(counts.librarian(0, Count::REPLIES), 1);
        assert_eq!(counts.librarian(1, Count::SENT), 2);
        assert_eq!(counts.librarian(1, Count::REPLIES), 1);
        assert_eq!(counts.librarian(1, Count::BYTES_SENT), 22);
        assert_eq!(counts.librarian(1, Count::BYTES_RECEIVED), 101);
        assert_eq!(counts.get(Count::SENT), 3);
    }

    #[test]
    fn a_batch_collects_the_events_of_all_its_traces() {
        let a = trace(vec![ev(0, sent(0)), ev(1, reply(0))]);
        let b = trace(vec![ev(0, sent(1)), ev(1, reply(1)), ev(2, sent(0))]);
        let batch = [a, b];
        let sums: Counts = batch
            .iter()
            .flat_map(|t| &t.events)
            .map(|e| &e.kind)
            .collect();
        assert_eq!(sums.get(Count::SENT), 3);
        assert_eq!(sums.get(Count::REPLIES), 2);
        assert_eq!(sums.get(Count::BYTES_SENT), 10 + 11 + 10);
        assert_eq!(sums.get(Count::BYTES_RECEIVED), 100 + 101);
        let none: Counts = std::iter::empty().collect();
        assert_eq!(none, Counts::default());
    }
}
