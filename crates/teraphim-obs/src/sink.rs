//! The [`TraceSink`] — a cheap, cloneable event collector.
//!
//! A sink is either *disabled* (the default: a `None` inner, no allocation,
//! every call a no-op) or *attached* (an `Arc` around one mutex-guarded
//! operation buffer). Components of one session hold clones of the same
//! sink so events from transport wrappers, fan-out workers and the
//! receptionist land in the operation that session is running.
//!
//! The sink is the one place an operation is assembled: `Begin` opens the
//! buffer, every later event is moved into it, and `End` finishes the
//! [`QueryTrace`] once and hands it to whichever consumers are attached —
//! the completed-trace list behind [`TraceSink::take_traces`] and the
//! teed [`MetricsRegistry`]. A sink therefore follows **one operation at
//! a time**: concurrent sessions each need their own sink (they may share
//! a registry).

use crate::event::{EventKind, TraceEvent};
use crate::metrics::MetricsRegistry;
use crate::trace::QueryTrace;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The operation a sink is following: its trace so far, plus what the
/// finished [`QueryTrace`] does not carry.
#[derive(Debug)]
struct OpenOp {
    began_at: u64,
    trace: QueryTrace,
}

impl OpenOp {
    /// The finished trace: events stably sorted by timestamp — a no-op
    /// for real drivers, which record in time order, but required for
    /// the simulator, which records librarian by librarian.
    fn finish(mut self, complete: bool) -> QueryTrace {
        self.trace.complete = complete;
        self.trace.events.sort_by_key(|e| e.at_micros);
        self.trace
    }
}

/// The operation buffer and the consumers of finished operations.
#[derive(Debug)]
struct SinkState {
    open: Option<OpenOp>,
    /// Finished (and abandoned) operations awaiting
    /// [`TraceSink::take_traces`]; `None` on a
    /// [`TraceSink::metrics_only`] sink, which keeps none so a
    /// long-running fleet cannot grow it without bound.
    traces: Option<Vec<QueryTrace>>,
    /// Registry every event and finished operation is applied to.
    metrics: Option<Arc<MetricsRegistry>>,
}

#[derive(Debug)]
struct SinkInner {
    driver: &'static str,
    enabled: AtomicBool,
    epoch: Instant,
    /// Trace id of the most recently begun operation; bumped on every
    /// [`EventKind::Begin`]. Ids are per-sink and start at 1.
    trace_id: AtomicU64,
    state: Mutex<SinkState>,
}

/// A thread-safe collector of one session's [`TraceEvent`]s.
///
/// Cloning is cheap (an `Arc` clone) and all clones feed the same
/// operation buffer. The zero-cost default is [`TraceSink::disabled`],
/// which never allocates; instrumented code guards any expensive event
/// construction behind [`TraceSink::is_enabled`].
#[derive(Debug, Clone)]
pub struct TraceSink {
    inner: Option<Arc<SinkInner>>,
}

impl TraceSink {
    fn attached(
        driver: &'static str,
        traces: Option<Vec<QueryTrace>>,
        metrics: Option<Arc<MetricsRegistry>>,
    ) -> Self {
        TraceSink {
            inner: Some(Arc::new(SinkInner {
                driver,
                enabled: AtomicBool::new(true),
                epoch: Instant::now(),
                trace_id: AtomicU64::new(0),
                state: Mutex::new(SinkState {
                    open: None,
                    traces,
                    metrics,
                }),
            })),
        }
    }

    /// Runs `f` on the sink's state; `None` on a disabled sink.
    fn with_state<R>(&self, f: impl FnOnce(&mut SinkState) -> R) -> Option<R> {
        self.inner
            .as_ref()
            .map(|inner| f(&mut inner.state.lock().unwrap()))
    }

    /// A new sink for a real (wall-clock) driver, initially enabled.
    #[must_use]
    pub fn new() -> Self {
        Self::for_driver("real")
    }

    /// A new enabled sink labelled with a driver name (`"real"`, `"sim"`).
    ///
    /// The label is stamped onto every trace the sink produces so test
    /// harnesses can tell which driver emitted a trace before normalizing.
    #[must_use]
    pub fn for_driver(driver: &'static str) -> Self {
        Self::attached(driver, Some(Vec::new()), None)
    }

    /// A sink that feeds `registry` but keeps no finished traces.
    ///
    /// Instrumented code sees an enabled sink (so it constructs event
    /// payloads as usual) and every event and finished operation updates
    /// the registry, but nothing outlives the operation in flight — the
    /// right mode for a long-running fleet where keeping every trace
    /// forever would leak. [`TraceSink::take_traces`] on such a sink
    /// always returns nothing.
    #[must_use]
    pub fn metrics_only(registry: Arc<MetricsRegistry>) -> Self {
        Self::attached("metrics", None, Some(registry))
    }

    /// Tees this sink into `registry`: from now on every recorded event
    /// and finished operation also updates the registry, with no new
    /// instrumentation points. No-op on a disabled sink. All clones
    /// observe the tee.
    pub fn tee_metrics(&self, registry: Arc<MetricsRegistry>) {
        self.with_state(|state| state.metrics = Some(registry));
    }

    /// The registry this sink tees into, if any.
    #[must_use]
    pub fn metrics(&self) -> Option<Arc<MetricsRegistry>> {
        self.with_state(|state| state.metrics.clone()).flatten()
    }

    /// The no-op sink: records nothing, allocates nothing.
    #[must_use]
    pub const fn disabled() -> Self {
        TraceSink { inner: None }
    }

    /// Whether events are currently being recorded.
    ///
    /// Call sites use this to skip constructing expensive event payloads
    /// (e.g. re-encoding a message to learn its wire length).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        match &self.inner {
            Some(inner) => inner.enabled.load(Ordering::Relaxed),
            None => false,
        }
    }

    /// Pauses or resumes recording on an attached sink (no-op when
    /// disabled). All clones observe the change.
    pub fn set_enabled(&self, on: bool) {
        if let Some(inner) = &self.inner {
            inner.enabled.store(on, Ordering::Relaxed);
        }
    }

    /// Records an event stamped with the wall-clock time since the sink was
    /// created. No-op when the sink is disabled.
    pub fn record(&self, kind: EventKind) {
        if let Some(inner) = &self.inner {
            if inner.enabled.load(Ordering::Relaxed) {
                let at_micros =
                    u64::try_from(inner.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
                Self::deliver(inner, at_micros, kind);
            }
        }
    }

    /// Records an event at an explicit timestamp (used by the simulator,
    /// which runs on virtual time). No-op when the sink is disabled.
    pub fn record_at(&self, at_micros: u64, kind: EventKind) {
        if let Some(inner) = &self.inner {
            if inner.enabled.load(Ordering::Relaxed) {
                Self::deliver(inner, at_micros, kind);
            }
        }
    }

    /// Counts the event in the teed registry (if any) and moves it into
    /// the operation buffer: `Begin` opens the buffer (an operation
    /// still open is kept as a partial trace), `End` finishes the trace
    /// and hands it to the registry and the completed-trace list. Events outside any operation are counted
    /// and dropped.
    fn deliver(inner: &SinkInner, at_micros: u64, kind: EventKind) {
        let mut guard = inner.state.lock().unwrap();
        let state = &mut *guard;
        if let Some(registry) = &state.metrics {
            registry.observe(&kind);
        }
        match kind {
            EventKind::Begin {
                op,
                methodology,
                query_id,
                k,
            } => {
                inner.trace_id.fetch_add(1, Ordering::Relaxed);
                let abandoned = state.open.replace(OpenOp {
                    began_at: at_micros,
                    trace: QueryTrace {
                        driver: inner.driver.to_owned(),
                        op: op.to_owned(),
                        methodology: methodology.map(str::to_owned),
                        query_id,
                        k,
                        complete: false,
                        events: Vec::new(),
                    },
                });
                if let (Some(traces), Some(op)) = (&mut state.traces, abandoned) {
                    traces.push(op.finish(false));
                }
            }
            EventKind::End => {
                let Some(op) = state.open.take() else { return };
                let duration = at_micros.saturating_sub(op.began_at);
                let trace = op.finish(true);
                if let Some(registry) = &state.metrics {
                    registry.observe_operation(&trace, duration);
                }
                if let Some(traces) = &mut state.traces {
                    traces.push(trace);
                }
            }
            kind => {
                if let Some(op) = &mut state.open {
                    op.trace.events.push(TraceEvent { at_micros, kind });
                }
            }
        }
    }

    /// The trace id of the most recently begun operation (ids are
    /// per-sink, starting at 1), or 0 when nothing has begun or the
    /// sink is disabled. The fan-out layer stamps this into the
    /// [`SpanContext`](crate::SpanContext) it sends with each request.
    #[must_use]
    pub fn current_trace_id(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.trace_id.load(Ordering::Relaxed))
    }

    /// Discards every kept trace and the operation in flight.
    pub fn clear(&self) {
        self.with_state(|state| {
            state.open = None;
            if let Some(traces) = &mut state.traces {
                traces.clear();
            }
        });
    }

    /// Drains the per-operation traces assembled so far, oldest first.
    ///
    /// Events recorded outside any operation were dropped, and an
    /// operation missing its `End` (an error path, or a drain
    /// mid-operation) is returned as a partial trace with
    /// [`QueryTrace::complete`] false — drained mid-operation, the rest
    /// of that operation's events are dropped and it reaches neither the
    /// registry's latency histograms nor the flight recorder. Within each
    /// trace, events are in timestamp order.
    #[must_use]
    pub fn take_traces(&self) -> Vec<QueryTrace> {
        self.with_state(|state| {
            let Some(traces) = &mut state.traces else {
                return Vec::new();
            };
            traces.extend(state.open.take().map(|op| op.finish(false)));
            std::mem::take(traces)
        })
        .unwrap_or_default()
    }
}

impl Default for TraceSink {
    /// The default sink is [`TraceSink::disabled`].
    fn default() -> Self {
        TraceSink::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;
    use crate::metrics::{Count, MetricsRegistry};
    use std::sync::Arc;

    fn begin(op: &'static str) -> EventKind {
        EventKind::Begin {
            op,
            methodology: Some("CV"),
            query_id: 7,
            k: 10,
        }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        sink.record(begin("query"));
        sink.record(EventKind::End);
        assert!(sink.take_traces().is_empty());
    }

    #[test]
    fn events_split_into_traces_on_begin_end() {
        let sink = TraceSink::new();
        sink.record(EventKind::Merge { entries: 9, k: 1 }); // outside any op: dropped
        sink.record(begin("query"));
        sink.record(EventKind::PhaseStart {
            phase: Phase::RankFanout,
        });
        sink.record(EventKind::End);
        sink.record(begin("headers"));
        let traces = sink.take_traces();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].op, "query");
        assert_eq!(traces[0].query_id, 7);
        assert!(traces[0].complete);
        assert_eq!(traces[0].events.len(), 1);
        assert!(!traces[1].complete, "unterminated trace kept as partial");
        assert!(sink.take_traces().is_empty(), "drain empties the buffer");
    }

    #[test]
    fn drain_mid_operation_keeps_a_partial_and_drops_the_rest() {
        let registry = Arc::new(MetricsRegistry::new());
        let sink = TraceSink::new();
        sink.tee_metrics(Arc::clone(&registry));
        sink.record(begin("query"));
        sink.record(EventKind::Merge { entries: 3, k: 1 });
        let drained = sink.take_traces();
        assert_eq!(drained.len(), 1);
        assert!(!drained[0].complete);
        assert_eq!(drained[0].events.len(), 1);
        // The rest of that operation belongs to no trace (its events
        // are still counted), and the next one starts clean.
        sink.record(EventKind::Merge { entries: 4, k: 1 });
        sink.record(EventKind::End);
        assert!(sink.take_traces().is_empty());
        assert_eq!(registry.snapshot().counts.get(Count::MERGED_ENTRIES), 7);
        sink.record(begin("query"));
        sink.record(EventKind::End);
        let next = sink.take_traces();
        assert_eq!(next.len(), 1);
        assert!(next[0].complete && next[0].events.is_empty());
    }

    #[test]
    fn an_abandoned_operation_is_kept_as_a_partial_trace() {
        let sink = TraceSink::new();
        sink.record(begin("query"));
        sink.record(EventKind::Merge { entries: 3, k: 1 });
        sink.record(begin("headers"));
        sink.record(EventKind::End);
        let traces = sink.take_traces();
        assert_eq!(traces.len(), 2);
        assert!(!traces[0].complete && traces[0].events.len() == 1);
        assert!(traces[1].complete && traces[1].op == "headers");
    }

    /// The deployment the serving core documents: one registry shared by
    /// the per-session sinks of concurrent sessions. Which `Begin` an
    /// `End` closes is each sink's own knowledge, so every operation is
    /// counted once and no latency mixes two sinks' clocks.
    #[test]
    fn sinks_of_concurrent_sessions_share_one_registry_exactly() {
        const SESSIONS: u64 = 8;
        const OPS: u64 = 200;
        const WORK: std::time::Duration = std::time::Duration::from_micros(300);
        let spin = |d: std::time::Duration| {
            let start = Instant::now();
            while start.elapsed() < d {
                std::hint::spin_loop();
            }
        };
        let registry = Arc::new(MetricsRegistry::new());
        std::thread::scope(|scope| {
            for session in 0..SESSIONS {
                let registry = Arc::clone(&registry);
                scope.spawn(move || {
                    // Sinks born at different times: their epochs differ.
                    spin(WORK * session as u32);
                    let sink = TraceSink::metrics_only(registry);
                    for _ in 0..OPS {
                        sink.record(begin("query"));
                        sink.record(EventKind::PhaseStart {
                            phase: Phase::RankFanout,
                        });
                        sink.record(EventKind::Sent {
                            librarian: 0,
                            bytes: 4,
                            message: "RankRequest",
                        });
                        spin(WORK);
                        sink.record(EventKind::Reply {
                            librarian: 0,
                            bytes: 8,
                            message: "RankResponse",
                        });
                        sink.record(EventKind::PhaseEnd {
                            phase: Phase::RankFanout,
                        });
                        sink.record(EventKind::End);
                    }
                });
            }
        });
        let snap = registry.snapshot();
        let issued = SESSIONS * OPS;
        assert_eq!(snap.counts.queries(), issued);
        assert_eq!(snap.counts.get(Count::SENT), issued);
        let (code, cv) = &snap.per_methodology[2];
        assert_eq!((*code, snap.counts.get(Count::queries(2))), ("CV", issued));
        let floor = WORK.as_micros() as u64;
        for (what, latency) in [
            ("query", cv),
            ("rank_fanout", &snap.per_phase[3].1),
            ("librarian 0", &snap.per_librarian[0]),
        ] {
            assert_eq!(latency.count, issued, "{what} latency samples");
            assert!(
                latency.min >= floor && latency.max < 10_000_000,
                "{what} latency outside [{floor} us, 10 s): {latency:?}"
            );
        }
    }

    #[test]
    fn take_traces_sorts_simulated_events_by_time() {
        let sink = TraceSink::for_driver("sim");
        sink.record_at(0, begin("query"));
        sink.record_at(
            50,
            EventKind::Reply {
                librarian: 1,
                bytes: 8,
                message: "RankResponse",
            },
        );
        sink.record_at(
            10,
            EventKind::Sent {
                librarian: 0,
                bytes: 4,
                message: "RankRequest",
            },
        );
        sink.record_at(60, EventKind::End);
        let traces = sink.take_traces();
        assert_eq!(traces[0].driver, "sim");
        assert_eq!(traces[0].events[0].at_micros, 10);
        assert_eq!(traces[0].events[1].at_micros, 50);
    }

    #[test]
    fn teed_sink_updates_registry_and_buffer() {
        let registry = Arc::new(MetricsRegistry::new());
        let sink = TraceSink::new();
        sink.tee_metrics(Arc::clone(&registry));
        sink.record(begin("query"));
        sink.record(EventKind::Sent {
            librarian: 3,
            bytes: 21,
            message: "RankRequest",
        });
        sink.record(EventKind::Reply {
            librarian: 3,
            bytes: 42,
            message: "RankResponse",
        });
        sink.record(EventKind::End);
        let snap = registry.snapshot();
        assert_eq!(snap.counts.get(Count::SENT), 1);
        assert_eq!(snap.counts.get(Count::BYTES_RECEIVED), 42);
        assert_eq!(snap.per_librarian[3].count, 1);
        assert_eq!(sink.take_traces().len(), 1, "events still buffered");
    }

    #[test]
    fn metrics_only_sink_never_buffers() {
        let registry = Arc::new(MetricsRegistry::new());
        let sink = TraceSink::metrics_only(Arc::clone(&registry));
        assert!(sink.is_enabled());
        assert!(sink.metrics().is_some());
        sink.record(begin("query"));
        sink.record(EventKind::End);
        assert!(sink.take_traces().is_empty());
        assert_eq!(registry.snapshot().counts.queries(), 1);
    }

    #[test]
    fn trace_ids_increment_per_begin() {
        let sink = TraceSink::new();
        assert_eq!(sink.current_trace_id(), 0);
        sink.record(begin("query"));
        assert_eq!(sink.current_trace_id(), 1);
        sink.record(EventKind::End);
        sink.record(begin("headers"));
        assert_eq!(sink.current_trace_id(), 2);
        assert_eq!(TraceSink::disabled().current_trace_id(), 0);
    }

    #[test]
    fn set_enabled_pauses_all_clones() {
        let sink = TraceSink::new();
        let clone = sink.clone();
        clone.set_enabled(false);
        assert!(!sink.is_enabled());
        sink.record(begin("query"));
        sink.record(EventKind::End);
        assert!(sink.take_traces().is_empty());
    }
}
