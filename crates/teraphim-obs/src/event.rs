//! The structured event vocabulary recorded into a [`QueryTrace`].
//!
//! Events are deliberately small, `Copy`-ish (only `Expansion` and
//! `Coverage` carry vectors) and built from `&'static str` labels so that
//! recording an event on the hot path costs one mutex push and no string
//! allocation.
//!
//! [`QueryTrace`]: crate::QueryTrace

/// A named phase of the query lifecycle.
///
/// Phases bracket stretches of a query operation between
/// [`EventKind::PhaseStart`] and [`EventKind::PhaseEnd`] events; the same
/// labels are emitted by the real receptionist and by the simulator so
/// per-phase latency can be attributed identically in both drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// CV preprocessing: collecting vocabularies from every librarian.
    VocabExchange,
    /// CI preprocessing: collecting full indexes to build the grouped index.
    IndexExchange,
    /// CI query step: ranking groups on the receptionist's grouped index.
    GroupRank,
    /// The rank fan-out: dispatching rank/score requests and merging replies.
    RankFanout,
    /// Fetching headers for the final ranking.
    HeaderFetch,
    /// Fetching full documents.
    DocFetch,
    /// Boolean query fan-out.
    Boolean,
}

impl Phase {
    /// Stable lowercase label used in the JSON encoding.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::VocabExchange => "vocab_exchange",
            Phase::IndexExchange => "index_exchange",
            Phase::GroupRank => "group_rank",
            Phase::RankFanout => "rank_fanout",
            Phase::HeaderFetch => "header_fetch",
            Phase::DocFetch => "doc_fetch",
            Phase::Boolean => "boolean",
        }
    }
}

/// The candidate documents a single librarian is asked to score in CI mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LibCandidates {
    /// Librarian (partition) index.
    pub librarian: u32,
    /// Document ids, local to that librarian.
    pub docs: Vec<u32>,
}

/// One structured event in a query trace.
///
/// `Begin`/`End` delimit a traced operation and are consumed by
/// [`TraceSink::take_traces`] when the event stream is split into
/// [`QueryTrace`] values; every other variant lands in
/// [`QueryTrace::events`].
///
/// [`TraceSink::take_traces`]: crate::TraceSink::take_traces
/// [`QueryTrace`]: crate::QueryTrace
/// [`QueryTrace::events`]: crate::QueryTrace::events
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A traced operation starts (`query`, `enable_cv`, `headers`, ...).
    Begin {
        /// Operation name.
        op: &'static str,
        /// Methodology code (`"MS"`, `"CN"`, `"CV"`, `"CI"`) for query ops.
        methodology: Option<&'static str>,
        /// Query id assigned by the receptionist (0 in the simulator).
        query_id: u32,
        /// Requested answer size (0 for non-ranking operations).
        k: u32,
    },
    /// The traced operation ends (recorded on success *and* error paths).
    End,
    /// A lifecycle phase starts.
    PhaseStart {
        /// The phase.
        phase: Phase,
    },
    /// A lifecycle phase ends.
    PhaseEnd {
        /// The phase.
        phase: Phase,
    },
    /// A request message leaves for a librarian.
    Sent {
        /// Librarian index.
        librarian: u32,
        /// Encoded size of the request in bytes.
        bytes: u64,
        /// Message variant name, e.g. `"RankRequest"`.
        message: &'static str,
    },
    /// A reply message arrived back from a librarian.
    Reply {
        /// Librarian index.
        librarian: u32,
        /// Encoded size of the reply in bytes.
        bytes: u64,
        /// Message variant name, e.g. `"RankResponse"`.
        message: &'static str,
    },
    /// A transport attempt against a librarian timed out.
    Timeout {
        /// Librarian index.
        librarian: u32,
    },
    /// A replica group is about to start another round over its
    /// replicas: every replica failed transiently in the last one.
    Retry {
        /// Librarian (shard) index.
        librarian: u32,
        /// 1-based number of the round about to start after the first.
        attempt: u32,
        /// Error kind that triggered the retry (see `NetError::kind`).
        error: &'static str,
    },
    /// An injected fault fired (`FaultyTransport` or the simulator).
    Fault {
        /// Librarian index.
        librarian: u32,
        /// Fault action name: `"fail"`, `"delay"`, `"drop"` or `"garble"`.
        action: &'static str,
    },
    /// A librarian dropped out of the fan-out (after any retries).
    LibFailed {
        /// Librarian index.
        librarian: u32,
        /// Final error kind (see `NetError::kind`).
        error: &'static str,
    },
    /// CI group ranking expanded into per-librarian candidate sets.
    Expansion {
        /// Number of groups ranked (k′).
        k_prime: u32,
        /// Documents per group (G).
        group_size: u32,
        /// The selected group ids, best first.
        groups: Vec<u32>,
        /// Candidates per owning librarian, in librarian order.
        candidates: Vec<LibCandidates>,
    },
    /// A librarian finished scoring CI candidates.
    Scored {
        /// Librarian index.
        librarian: u32,
        /// Number of candidates that received a score.
        candidates: u32,
        /// Postings decoded while scoring.
        postings: u64,
    },
    /// The receptionist merged the fan-out replies into the final ranking.
    Merge {
        /// Total entries folded into the merge across all replies.
        entries: u64,
        /// Requested answer size.
        k: u32,
    },
    /// Coverage decision from `query_with_coverage`.
    Coverage {
        /// Librarians that answered.
        answered: Vec<u32>,
        /// Librarians that failed (after retries).
        failed: Vec<u32>,
        /// Fraction of the corpus covered, in permille (0..=1000), when
        /// collection statistics are known.
        docs_permille: Option<u32>,
    },
    /// A receptionist cache lookup was answered without touching the
    /// fleet.
    CacheHit {
        /// Cache kind: `"results"`, `"stats"` or `"docs"`.
        cache: &'static str,
    },
    /// A receptionist cache lookup missed (work proceeds normally).
    CacheMiss {
        /// Cache kind: `"results"`, `"stats"` or `"docs"`.
        cache: &'static str,
        /// True when the miss dropped an entry from a stale generation
        /// (epoch-based invalidation) rather than finding nothing.
        stale: bool,
    },
    /// A receptionist cache insert evicted older entries to make room.
    CacheEvict {
        /// Cache kind: `"results"`, `"stats"` or `"docs"`.
        cache: &'static str,
        /// Number of entries evicted by this insert.
        entries: u32,
    },
    /// A replica group failed over a request to another replica after a
    /// transient error on the one it preferred.
    Failover {
        /// Shard (subcollection / librarian slot) index.
        librarian: u32,
        /// Replica id the request failed on.
        from: u32,
        /// Replica id the request was rerouted to.
        to: u32,
        /// Error kind that triggered the failover (see `NetError::kind`).
        error: &'static str,
    },
    /// A replica joined a shard's replica group (membership change).
    Join {
        /// Shard (subcollection / librarian slot) index.
        librarian: u32,
        /// The joining replica's id.
        replica: u32,
        /// Routing-table version after the join.
        version: u64,
    },
    /// A replica left a shard's replica group (membership change).
    Leave {
        /// Shard (subcollection / librarian slot) index.
        librarian: u32,
        /// The departing replica's id.
        replica: u32,
        /// Routing-table version after the leave.
        version: u64,
    },
    /// A subcollection's index was handed to a joining replica
    /// (migration over the split machinery's shard space).
    Migrate {
        /// Shard (subcollection / librarian slot) index.
        librarian: u32,
        /// Documents carried by the migrated subcollection.
        docs: u64,
        /// The shard's index epoch at handoff; the joining replica
        /// adopts it so epoch-keyed caches stay coherent.
        epoch: u64,
    },
    /// Server-side time attributed to one phase of handling a request
    /// at a librarian (see [`crate::span::SERVER_PHASES`]): queue wait
    /// in the worker pool, index scan, ranking, reply serialization.
    /// Recorded client-side after the matching `reply`, from timings the
    /// server piggybacks on the wire (or zeros when the backend has no
    /// server-side clock — the simulator, or an untimed service), so the
    /// event *structure* is identical across sim, in-proc and TCP.
    ServerPhase {
        /// Librarian index.
        librarian: u32,
        /// Server phase label (`"queue_wait"`, `"scan"`, `"rank"`,
        /// `"serialize"`).
        phase: &'static str,
        /// Time spent in the phase, in microseconds. Zeroed by trace
        /// normalization (durations differ run to run, structure does
        /// not).
        micros: u64,
    },
}

impl EventKind {
    /// The librarian index this event is tagged with, if any.
    ///
    /// Used by trace normalization to canonicalize the arrival order of
    /// concurrent fan-out events.
    #[must_use]
    pub fn librarian(&self) -> Option<u32> {
        match *self {
            EventKind::Sent { librarian, .. }
            | EventKind::Reply { librarian, .. }
            | EventKind::Timeout { librarian }
            | EventKind::Retry { librarian, .. }
            | EventKind::Fault { librarian, .. }
            | EventKind::LibFailed { librarian, .. }
            | EventKind::Scored { librarian, .. }
            | EventKind::Failover { librarian, .. }
            | EventKind::Join { librarian, .. }
            | EventKind::Leave { librarian, .. }
            | EventKind::Migrate { librarian, .. }
            | EventKind::ServerPhase { librarian, .. } => Some(librarian),
            _ => None,
        }
    }

    /// Stable lowercase tag used in the JSON encoding.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::Begin { .. } => "begin",
            EventKind::End => "end",
            EventKind::PhaseStart { .. } => "phase_start",
            EventKind::PhaseEnd { .. } => "phase_end",
            EventKind::Sent { .. } => "sent",
            EventKind::Reply { .. } => "reply",
            EventKind::Timeout { .. } => "timeout",
            EventKind::Retry { .. } => "retry",
            EventKind::Fault { .. } => "fault",
            EventKind::LibFailed { .. } => "lib_failed",
            EventKind::Expansion { .. } => "expansion",
            EventKind::Scored { .. } => "scored",
            EventKind::Merge { .. } => "merge",
            EventKind::Coverage { .. } => "coverage",
            EventKind::CacheHit { .. } => "cache_hit",
            EventKind::CacheMiss { .. } => "cache_miss",
            EventKind::CacheEvict { .. } => "cache_evict",
            EventKind::Failover { .. } => "failover",
            EventKind::Join { .. } => "join",
            EventKind::Leave { .. } => "leave",
            EventKind::Migrate { .. } => "migrate",
            EventKind::ServerPhase { .. } => "server_phase",
        }
    }
}

/// A timestamped event.
///
/// `at_micros` is microseconds since the sink's epoch for real drivers, or
/// simulated microseconds for the simulator. Normalization zeroes it.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event time in microseconds (wall-clock since sink creation, or
    /// simulated time).
    pub at_micros: u64,
    /// What happened.
    pub kind: EventKind,
}
