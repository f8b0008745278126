//! # teraphim-obs
//!
//! Query-lifecycle observability for the TERAPHIM workspace: a lightweight
//! span/event API (no external dependencies) that the real receptionist
//! stack and the [`SimDriver`] both emit, producing one structured
//! [`QueryTrace`] per operation.
//!
//! The paper's claims — CV rankings byte-identical to mono-server, CI
//! scoring at most k′·G candidates, CN trading accuracy for traffic — are
//! claims about what happens *inside* a query. A trace captures exactly
//! that: per-librarian dispatch and reply events with message variants and
//! byte counts, retry/timeout/fault events from the transport decorators,
//! CI candidate expansion, merge sizes and coverage decisions, each stamped
//! with wall-clock (real drivers) or virtual (simulator) microseconds.
//!
//! ## Shape of the API
//!
//! * [`TraceSink`] — a cloneable collector; the disabled default costs
//!   nothing. The components of one session share clones of the same
//!   sink, which assembles each operation once and hands it to the
//!   consumers below.
//! * [`EventKind`] / [`TraceEvent`] / [`Phase`] — the event vocabulary.
//! * [`QueryTrace`] — one operation's events, assembled by the sink and
//!   drained with [`TraceSink::take_traces`]; [`QueryTrace::normalized`] makes traces
//!   deterministic for golden-fixture comparison, and
//!   [`QueryTrace::metrics`] rolls a trace up into per-phase durations and
//!   its [`Counts`].
//! * [`traces_to_json`] / [`diff_json`] — a stable line-oriented JSON
//!   encoding (no serde) and the structural diff used by the golden tests.
//! * [`Count`] / [`Counts`] — the counter catalogue: every event-derived
//!   count is one row (its Prometheus family, labels and help), mapped
//!   from events by one function; [`Counts`] holds them — fleet-wide,
//!   plus one row per librarian — for a registry snapshot, a trace and a
//!   batch of traces alike.
//! * [`MetricsRegistry`] / [`MetricsSnapshot`] — rolling fleet metrics
//!   (the catalogue's counts as atomics, and log-bucketed latency
//!   [`Histogram`]s per librarian, methodology and phase) that a sink
//!   tees into via [`TraceSink::tee_metrics`], so everything that traces
//!   also meters; [`MetricsSnapshot::render_prometheus`] exposes a
//!   snapshot in the Prometheus text format.
//! * [`SpanContext`] / [`ServerTimings`] / [`SpanTree`] — distributed
//!   spans: the compact context a request carries across the wire, the
//!   per-phase server-side timings piggybacked on replies, and the
//!   client-side stitching of a trace into one span tree per query.
//! * [`FlightRecorder`] — a fixed-size exemplar buffer with tail-based
//!   retention (slowest + all faulted/degraded queries), attached to a
//!   sink via [`TraceSink::attach_flight`].
//!
//! [`SimDriver`]: https://docs.rs/teraphim-core

pub mod event;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod sink;
pub mod span;
pub mod trace;

pub use event::{EventKind, LibCandidates, Phase, TraceEvent};
pub use flight::{FlightEntry, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use json::{diff_json, traces_to_json};
pub use metrics::{
    lint_prometheus, Count, Counts, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    CACHE_KINDS,
};
pub use sink::TraceSink;
pub use span::{
    server_phase_index, ServerTimings, Span, SpanContext, SpanTree, SERVER_PHASES, SPAN_SAMPLED,
};
pub use trace::{QueryTrace, TraceMetrics, NORMALIZED_DRIVER};
