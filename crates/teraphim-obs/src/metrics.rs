//! Rolling fleet metrics: a lock-light registry a [`TraceSink`] tees into.
//!
//! Tracing answers "what happened inside *this* query"; metrics answer
//! "how is the fleet doing *right now*". The [`MetricsRegistry`] keeps
//! atomic counters and log-bucketed latency [`Histogram`]s, rolled up
//! per librarian and per methodology, and is fed exclusively by the
//! [`TraceSink`]s teed into it: [`MetricsRegistry::observe`] counts each
//! event as it is recorded, and [`MetricsRegistry::observe_operation`]
//! takes the latencies of each operation a sink completes. Instrumented
//! code therefore needs **zero new call sites** to light up the
//! registry — anything that already traces also meters.
//!
//! The registry remembers nothing between calls: every update is an
//! atomic add or a histogram record, and which `Sent` awaits its
//! `Reply`, or which phase brackets are open, is worked out from the
//! finished operation the sink hands over. One registry shared by the
//! sinks of many concurrent sessions (a `ServePool`'s) is therefore
//! exact. Snapshots ([`MetricsRegistry::snapshot`]) read the atomics
//! without stopping recorders.
//!
//! Histograms are log-bucketed (one bucket per power of two) because
//! query latencies span six orders of magnitude between an in-process
//! fan-out and a WAN exchange: uniform buckets would waste their
//! resolution on one end of that range, while 65 exponential buckets
//! cover all of `u64` with a fixed, merge-friendly layout and at most
//! 2× relative quantile error — plenty for p50/p95/p99 readouts.
//!
//! [`TraceSink`]: crate::TraceSink

use crate::event::{EventKind, Phase};
use crate::span::SERVER_PHASES;
use crate::trace::{Closed, QueryTrace};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Number of log buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds values whose bit length is `i`, i.e. `[2^(i-1), 2^i - 1]`.
pub const NUM_BUCKETS: usize = 65;

/// Methodology codes the registry keeps per-methodology slots for, in
/// slot order (matches the paper's MS/CN/CV/CI).
pub const METHODOLOGIES: [&str; 4] = ["MS", "CN", "CV", "CI"];

/// All phases, in the order `phase_index` assigns slots.
pub const PHASES: [Phase; 7] = [
    Phase::VocabExchange,
    Phase::IndexExchange,
    Phase::GroupRank,
    Phase::RankFanout,
    Phase::HeaderFetch,
    Phase::DocFetch,
    Phase::Boolean,
];

fn methodology_index(code: &str) -> Option<usize> {
    METHODOLOGIES.iter().position(|&m| m == code)
}

/// Receptionist cache kinds the registry keeps per-cache slots for, in
/// slot order (result, term-statistics, answer-document caches).
pub const CACHE_KINDS: [&str; 3] = ["results", "stats", "docs"];

fn cache_index(cache: &str) -> Option<usize> {
    CACHE_KINDS.iter().position(|&c| c == cache)
}

fn phase_index(phase: Phase) -> usize {
    PHASES
        .iter()
        .position(|&p| p == phase)
        .expect("PHASES covers every Phase variant")
}

/// The bucket a value lands in: its bit length (0 for the value 0).
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket (the quantile estimate for samples
/// that landed in it).
#[must_use]
pub fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        64.. => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// A thread-safe log-bucketed histogram of `u64` samples.
///
/// Recording is three or four relaxed atomic operations; there is no
/// lock. Quantiles are read from a [`HistogramSnapshot`].
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS],
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// A point-in-time copy for quantile readout.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        let mut count = 0u64;
        for (b, slot) in buckets.iter_mut().zip(&self.buckets) {
            *b = slot.load(Ordering::Relaxed);
            count += *b;
        }
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// An immutable copy of a [`Histogram`], with quantile readout and
/// merge support. Two snapshots merge by bucket-wise addition, so
/// per-librarian histograms roll up into fleet histograms exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_index`]).
    pub buckets: [u64; NUM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (exact).
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    #[must_use]
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Rebuilds a snapshot from sparse `(bucket, count)` pairs — the
    /// wire form used by `Message::StatsReply`. Bucket bounds stand in
    /// for the lost exact `min`/`max`/`sum`, so quantiles keep their
    /// usual at-most-one-bucket error. Counts come off the wire, so
    /// they saturate rather than overflow.
    #[must_use]
    pub fn from_bucket_pairs(pairs: &[(u32, u64)]) -> Self {
        let mut snap = HistogramSnapshot::empty();
        for &(bucket, count) in pairs {
            let Some(slot) = snap.buckets.get_mut(bucket as usize) else {
                continue;
            };
            *slot = slot.saturating_add(count);
            snap.count = snap.count.saturating_add(count);
        }
        for (i, &c) in snap.buckets.iter().enumerate() {
            if c > 0 {
                snap.min = snap.min.min(if i == 0 {
                    0
                } else {
                    bucket_upper_bound(i - 1) + 1
                });
                snap.max = bucket_upper_bound(i);
                snap.sum = snap
                    .sum
                    .saturating_add(c.saturating_mul(bucket_upper_bound(i)));
            }
        }
        snap
    }

    /// The sparse `(bucket, count)` pairs of non-empty buckets.
    #[must_use]
    pub fn to_bucket_pairs(&self) -> Vec<(u32, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u32, c))
            .collect()
    }

    /// True when no samples were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean sample value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (0 < q ≤ 1) as the upper bound of the bucket the
    /// target rank falls in, clamped to the observed `[min, max]`.
    /// Returns 0 when empty. Monotone in `q` by construction, so
    /// `p99() ≥ p50() ≥ min` always holds.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return bucket_upper_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile estimate.
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile estimate.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Bucket-wise merge of two snapshots (associative and commutative).
    #[must_use]
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (out, (a, b)) in buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(&other.buckets))
        {
            *out = a.saturating_add(*b);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.saturating_add(other.count),
            // The live histogram's atomic sum wraps on overflow, so the
            // merge must wrap identically to stay associative.
            sum: self.sum.wrapping_add(other.sum),
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot::empty()
    }
}

/// An event-derived count: a row of the counter catalogue.
///
/// The first eight rows (requests through failures) are kept per
/// librarian, in the row of the fan-out librarian index the event
/// names; their fleet totals are sums over those rows. Every other
/// count is kept fleet-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Count(usize);

impl Count {
    /// Requests sent.
    pub const SENT: Count = Count(0);
    /// Replies received.
    pub const REPLIES: Count = Count(1);
    /// Request payload bytes.
    pub const BYTES_SENT: Count = Count(2);
    /// Reply payload bytes.
    pub const BYTES_RECEIVED: Count = Count(3);
    /// Transport timeouts.
    pub const TIMEOUTS: Count = Count(4);
    /// Retry rounds issued.
    pub const RETRIES: Count = Count(5);
    /// Injected faults that fired.
    pub const FAULTS: Count = Count(6);
    /// Fan-out drop-outs (after retries).
    pub const FAILURES: Count = Count(7);
    /// Entries folded into merges.
    pub const MERGED_ENTRIES: Count = Count(8);
    /// CI candidates scored.
    pub const SCORED_CANDIDATES: Count = Count(9);
    /// Postings decoded while scoring.
    pub const POSTINGS_DECODED: Count = Count(10);
    /// Queries whose coverage was degraded.
    pub const DEGRADED_QUERIES: Count = Count(11);
    /// Requests rerouted to another replica after a transient error.
    pub const FAILOVERS: Count = Count(12);
    /// Fleet membership changes (joins, leaves, migrations).
    pub const MEMBERSHIP_CHANGES: Count = Count(13);
    /// Merge operations performed (not exported).
    pub const MERGES: Count = Count(14);

    /// The hit, miss, stale-miss and eviction counts of cache `kind`, a
    /// [`CACHE_KINDS`] index. Stale misses are a subset of misses.
    #[must_use]
    pub const fn cache(kind: usize) -> [Count; 4] {
        let first = 15 + 4 * kind;
        [
            Count(first),
            Count(first + 1),
            Count(first + 2),
            Count(first + 3),
        ]
    }

    /// Completed query operations of `methodology`, a [`METHODOLOGIES`]
    /// index.
    #[must_use]
    pub const fn queries(methodology: usize) -> Count {
        Count(27 + methodology)
    }

    /// The column of a count kept per librarian, `None` for a
    /// fleet-wide one.
    fn column(self) -> Option<usize> {
        (self.0 < PER_LIBRARIAN).then_some(self.0)
    }

    /// The fleet slot of a fleet-wide count.
    fn fleet_slot(self) -> usize {
        self.0 - PER_LIBRARIAN
    }
}

/// Counts kept per librarian (the first catalogue rows).
const PER_LIBRARIAN: usize = 8;
/// Counts kept fleet-wide.
const FLEET: usize = CATALOGUE.len() - PER_LIBRARIAN;

/// A Prometheus counter family: name and help.
type Family = (&'static str, &'static str);

const MESSAGES: Family = (
    "teraphim_messages_total",
    "Protocol messages exchanged, by direction.",
);
const BYTES: Family = (
    "teraphim_bytes_total",
    "Payload bytes on the wire, by direction.",
);
const CACHE_EVENTS: Family = (
    "teraphim_cache_events_total",
    "Receptionist cache lookups and evictions, by cache and outcome.",
);
const QUERIES: Family = (
    "teraphim_queries_total",
    "Completed query operations, by methodology.",
);

/// The counter catalogue, in [`Count`] order: the family a count's fleet
/// total is exported in (unnamed: not exported) and the sample's labels.
/// The exposition lists the families in catalogue order.
const CATALOGUE: [(Family, &str); 31] = [
    (MESSAGES, "direction=\"sent\""),
    (MESSAGES, "direction=\"received\""),
    (BYTES, "direction=\"sent\""),
    (BYTES, "direction=\"received\""),
    (("teraphim_timeouts_total", "Transport timeouts."), ""),
    (("teraphim_retries_total", "Transport retries issued."), ""),
    (("teraphim_faults_total", "Injected faults that fired."), ""),
    (
        (
            "teraphim_librarian_failures_total",
            "Librarian fan-out drop-outs (after retries).",
        ),
        "",
    ),
    (
        (
            "teraphim_merged_entries_total",
            "Ranking entries folded into merges.",
        ),
        "",
    ),
    (
        (
            "teraphim_scored_candidates_total",
            "CI candidates scored at librarians.",
        ),
        "",
    ),
    (
        (
            "teraphim_postings_decoded_total",
            "Postings decoded while scoring CI candidates.",
        ),
        "",
    ),
    (
        (
            "teraphim_degraded_queries_total",
            "Queries answered with degraded coverage.",
        ),
        "",
    ),
    (
        (
            "teraphim_failovers_total",
            "Requests rerouted to another replica after a transient error.",
        ),
        "",
    ),
    (
        (
            "teraphim_membership_changes_total",
            "Fleet membership changes (joins, leaves, migrations).",
        ),
        "",
    ),
    (("", ""), ""),
    (CACHE_EVENTS, "cache=\"results\",outcome=\"hit\""),
    (CACHE_EVENTS, "cache=\"results\",outcome=\"miss\""),
    (CACHE_EVENTS, "cache=\"results\",outcome=\"stale\""),
    (CACHE_EVENTS, "cache=\"results\",outcome=\"evict\""),
    (CACHE_EVENTS, "cache=\"stats\",outcome=\"hit\""),
    (CACHE_EVENTS, "cache=\"stats\",outcome=\"miss\""),
    (CACHE_EVENTS, "cache=\"stats\",outcome=\"stale\""),
    (CACHE_EVENTS, "cache=\"stats\",outcome=\"evict\""),
    (CACHE_EVENTS, "cache=\"docs\",outcome=\"hit\""),
    (CACHE_EVENTS, "cache=\"docs\",outcome=\"miss\""),
    (CACHE_EVENTS, "cache=\"docs\",outcome=\"stale\""),
    (CACHE_EVENTS, "cache=\"docs\",outcome=\"evict\""),
    (QUERIES, "methodology=\"MS\""),
    (QUERIES, "methodology=\"CN\""),
    (QUERIES, "methodology=\"CV\""),
    (QUERIES, "methodology=\"CI\""),
];

/// The per-librarian families, exported after the fleet totals: for
/// each librarian, the listed counts of its row, labelled with the
/// librarian and the listed labels.
const PER_LIBRARIAN_FAMILIES: [(Family, &[(Count, &str)]); 2] = [
    (
        (
            "teraphim_librarian_requests_total",
            "Requests sent, by librarian.",
        ),
        &[(Count::SENT, "")],
    ),
    (
        (
            "teraphim_librarian_errors_total",
            "Timeouts, failures and retries, by librarian.",
        ),
        &[
            (Count::TIMEOUTS, "kind=\"timeout\""),
            (Count::FAILURES, "kind=\"failure\""),
            (Count::RETRIES, "kind=\"retry\""),
        ],
    ),
];

/// The one mapping from trace events to counts: calls `bump` with each
/// count `kind` adds to and the amount. A count kept per librarian goes
/// to the row of the librarian the event names
/// ([`EventKind::librarian`]).
fn for_each_count(kind: &EventKind, mut bump: impl FnMut(Count, u64)) {
    let cache = |name| cache_index(name).map(Count::cache);
    match *kind {
        EventKind::Sent { bytes, .. } => {
            bump(Count::SENT, 1);
            bump(Count::BYTES_SENT, bytes);
        }
        EventKind::Reply { bytes, .. } => {
            bump(Count::REPLIES, 1);
            bump(Count::BYTES_RECEIVED, bytes);
        }
        EventKind::Timeout { .. } => bump(Count::TIMEOUTS, 1),
        EventKind::Retry { .. } => bump(Count::RETRIES, 1),
        EventKind::Fault { .. } => bump(Count::FAULTS, 1),
        EventKind::LibFailed { .. } => bump(Count::FAILURES, 1),
        EventKind::Scored {
            candidates,
            postings,
            ..
        } => {
            bump(Count::SCORED_CANDIDATES, u64::from(candidates));
            bump(Count::POSTINGS_DECODED, postings);
        }
        EventKind::Merge { entries, .. } => {
            bump(Count::MERGES, 1);
            bump(Count::MERGED_ENTRIES, entries);
        }
        EventKind::Coverage { ref failed, .. } if !failed.is_empty() => {
            bump(Count::DEGRADED_QUERIES, 1);
        }
        EventKind::CacheHit { cache: name } => {
            if let Some([hit, ..]) = cache(name) {
                bump(hit, 1);
            }
        }
        EventKind::CacheMiss { cache: name, stale } => {
            if let Some([_, miss, stale_miss, _]) = cache(name) {
                bump(miss, 1);
                if stale {
                    bump(stale_miss, 1);
                }
            }
        }
        EventKind::CacheEvict {
            cache: name,
            entries,
        } => {
            if let Some([.., evict]) = cache(name) {
                bump(evict, u64::from(entries));
            }
        }
        EventKind::Failover { .. } => bump(Count::FAILOVERS, 1),
        EventKind::Join { .. } | EventKind::Leave { .. } | EventKind::Migrate { .. } => {
            bump(Count::MEMBERSHIP_CHANGES, 1);
        }
        _ => {}
    }
}

/// Counts indexed by the catalogue: the fleet-wide counts, plus one row
/// per librarian (by fan-out index) of the counts kept per librarian.
/// A registry snapshot, a trace's roll-up and a batch of traces (collect
/// the events of all of them) are each one `Counts`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    fleet: [u64; FLEET],
    librarians: Vec<[u64; PER_LIBRARIAN]>,
}

impl<'a> FromIterator<&'a EventKind> for Counts {
    fn from_iter<I: IntoIterator<Item = &'a EventKind>>(events: I) -> Self {
        let mut counts = Counts::default();
        for kind in events {
            for_each_count(kind, |count, n| match (count.column(), kind.librarian()) {
                (Some(column), Some(lib)) => {
                    let lib = lib as usize;
                    if counts.librarians.len() <= lib {
                        counts.librarians.resize(lib + 1, [0; PER_LIBRARIAN]);
                    }
                    counts.librarians[lib][column] += n;
                }
                (Some(_), None) => {}
                (None, _) => counts.fleet[count.fleet_slot()] += n,
            });
        }
        counts
    }
}

impl Counts {
    /// The fleet total of `count`: a fleet-wide count, or the sum of
    /// the librarians' rows.
    #[must_use]
    pub fn get(&self, count: Count) -> u64 {
        match count.column() {
            Some(column) => self.librarians.iter().map(|row| row[column]).sum(),
            None => self.fleet[count.fleet_slot()],
        }
    }

    /// Librarian `lib`'s value of a count kept per librarian (0 for a
    /// librarian without a row, and for a fleet-wide count).
    #[must_use]
    pub fn librarian(&self, lib: usize, count: Count) -> u64 {
        match (self.librarians.get(lib), count.column()) {
            (Some(row), Some(column)) => row[column],
            _ => 0,
        }
    }

    /// Number of librarian rows: one past the highest librarian index
    /// counted.
    #[must_use]
    pub fn librarians(&self) -> usize {
        self.librarians.len()
    }

    /// Completed query operations, summed over the methodologies.
    #[must_use]
    pub fn queries(&self) -> u64 {
        (0..METHODOLOGIES.len())
            .map(|m| self.get(Count::queries(m)))
            .sum()
    }
}

/// One librarian's live row: the counts kept per librarian, and its
/// request→reply latency.
#[derive(Debug, Default)]
struct LibSlot {
    counts: [AtomicU64; PER_LIBRARIAN],
    latency: Histogram,
}

/// The rolling metrics registry.
///
/// Create one, share it as an `Arc`, and tee a [`TraceSink`] into it
/// ([`TraceSink::tee_metrics`] or [`TraceSink::metrics_only`]); every
/// event the sink records and every operation it completes then updates
/// the registry. All counters are monotone; [`MetricsRegistry::snapshot`] is safe to call at any time
/// from any thread.
///
/// [`TraceSink`]: crate::TraceSink
/// [`TraceSink::tee_metrics`]: crate::TraceSink::tee_metrics
/// [`TraceSink::metrics_only`]: crate::TraceSink::metrics_only
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// The fleet-wide counts, laid out like [`Counts`].
    fleet: [AtomicU64; FLEET],
    /// Query latency, in [`METHODOLOGIES`] slot order.
    queries: [Histogram; 4],
    phases: [Histogram; 7],
    /// Server-side phase latency, in [`SERVER_PHASES`] slot order.
    server_phases: [Histogram; 4],
    librarians: RwLock<Vec<LibSlot>>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Runs `f` with librarian `lib`'s slot, growing the table on first
    /// contact. The read lock covers the common case; growth takes the
    /// write lock once per librarian per registry lifetime.
    fn with_lib<R>(&self, lib: u32, f: impl FnOnce(&LibSlot) -> R) -> R {
        let lib = lib as usize;
        {
            let slots = self.librarians.read().unwrap();
            if let Some(slot) = slots.get(lib) {
                return f(slot);
            }
        }
        let mut slots = self.librarians.write().unwrap();
        while slots.len() <= lib {
            slots.push(LibSlot::default());
        }
        f(&slots[lib])
    }

    /// Counts one trace event: one atomic add per count it bumps (see
    /// [`Count`]). Called by the sink for every event it records, inside
    /// an operation or not (membership changes and health-poll timeouts
    /// arrive outside any). Latencies are read off the finished trace by
    /// [`MetricsRegistry::observe_operation`].
    pub fn observe(&self, kind: &EventKind) {
        for_each_count(kind, |count, n| match (count.column(), kind.librarian()) {
            (Some(column), Some(lib)) => {
                self.with_lib(lib, |s| s.counts[column].fetch_add(n, Ordering::Relaxed));
            }
            (Some(_), None) => {}
            (None, _) => {
                self.fleet[count.fleet_slot()].fetch_add(n, Ordering::Relaxed);
            }
        });
    }

    /// Records one completed operation, as the sink that ran it
    /// assembled it: a methodology-tagged operation counts as a query
    /// of `duration_micros` (its `Begin`→`End` time), and every phase
    /// bracket, `Sent`→`Reply` exchange and server phase the trace
    /// closed lands in its latency histogram. Latencies are timestamp
    /// differences within one trace, so wall-clock and simulated
    /// drivers meter identically.
    pub fn observe_operation(&self, trace: &QueryTrace, duration_micros: u64) {
        if let Some(slot) = trace.methodology.as_deref().and_then(methodology_index) {
            self.fleet[Count::queries(slot).fleet_slot()].fetch_add(1, Ordering::Relaxed);
            self.queries[slot].record(duration_micros);
        }
        trace.for_each_closed(|closed| match closed {
            Closed::Phase(phase, micros) => self.phases[phase_index(phase)].record(micros),
            Closed::Exchange(librarian, micros) => {
                self.with_lib(librarian, |s| s.latency.record(micros));
            }
            Closed::ServerPhase(slot, micros) => self.server_phases[slot].record(micros),
        });
    }

    /// A point-in-time copy of every counter and histogram.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let librarians = self
            .librarians
            .read()
            .expect("no thread panics holding the librarian table");
        MetricsSnapshot {
            counts: Counts {
                fleet: self.fleet.each_ref().map(load),
                librarians: librarians
                    .iter()
                    .map(|s| s.counts.each_ref().map(load))
                    .collect(),
            },
            per_methodology: METHODOLOGIES
                .into_iter()
                .zip(self.queries.iter().map(Histogram::snapshot))
                .collect(),
            per_librarian: librarians.iter().map(|s| s.latency.snapshot()).collect(),
            per_phase: PHASES
                .into_iter()
                .zip(self.phases.iter().map(Histogram::snapshot))
                .collect(),
            per_server_phase: SERVER_PHASES
                .into_iter()
                .zip(self.server_phases.iter().map(Histogram::snapshot))
                .collect(),
        }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Every event-derived count, fleet-wide and per librarian.
    pub counts: Counts,
    /// Begin→End query latency in microseconds, in [`METHODOLOGIES`]
    /// order.
    pub per_methodology: Vec<(&'static str, HistogramSnapshot)>,
    /// Request→reply latency in microseconds, by librarian index (as
    /// many as [`Counts::librarians`]).
    pub per_librarian: Vec<HistogramSnapshot>,
    /// Per-phase latency histograms, in [`PHASES`] order.
    pub per_phase: Vec<(Phase, HistogramSnapshot)>,
    /// Server-side phase latency histograms (queue wait, scan, rank,
    /// serialize), in [`SERVER_PHASES`] order. Fed from `server_phase`
    /// trace events — zero-duration in drivers without a server clock,
    /// so counts stay comparable across backends while sums attribute
    /// real server time.
    pub per_server_phase: Vec<(&'static str, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Query latency merged across all methodologies.
    #[must_use]
    pub fn query_latency(&self) -> HistogramSnapshot {
        self.per_methodology
            .iter()
            .fold(HistogramSnapshot::empty(), |acc, (_, h)| acc.merge(h))
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4) — `# HELP`/`# TYPE` comments, counters from the
    /// catalogue, and cumulative-bucket histograms. Hand-rolled, no
    /// dependencies, like the crate's JSON encoding.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut family = "";
        for (i, &((name, help), labels)) in CATALOGUE.iter().enumerate() {
            if name.is_empty() {
                continue;
            }
            if name != family {
                family = name;
                declare(&mut out, (name, help), "counter");
            }
            let value = self.counts.get(Count(i));
            let _ = if labels.is_empty() {
                writeln!(out, "{name} {value}")
            } else {
                writeln!(out, "{name}{{{labels}}} {value}")
            };
        }
        for ((name, help), series) in PER_LIBRARIAN_FAMILIES {
            declare(&mut out, (name, help), "counter");
            for lib in 0..self.counts.librarians() {
                for &(count, labels) in series {
                    let sep = if labels.is_empty() { "" } else { "," };
                    let value = self.counts.librarian(lib, count);
                    let _ = writeln!(out, "{name}{{librarian=\"{lib}\"{sep}{labels}}} {value}");
                }
            }
        }
        render_histogram_family(
            &mut out,
            (
                "teraphim_query_latency_micros",
                "Query latency in microseconds, by methodology.",
            ),
            self.per_methodology
                .iter()
                .map(|(code, h)| (format!("methodology=\"{code}\""), h)),
        );
        render_histogram_family(
            &mut out,
            (
                "teraphim_librarian_latency_micros",
                "Request-to-reply latency in microseconds, by librarian.",
            ),
            self.per_librarian
                .iter()
                .enumerate()
                .map(|(lib, h)| (format!("librarian=\"{lib}\""), h)),
        );
        render_histogram_family(
            &mut out,
            (
                "teraphim_phase_latency_micros",
                "Phase latency in microseconds, by lifecycle phase.",
            ),
            self.per_phase
                .iter()
                .map(|(p, h)| (format!("phase=\"{}\"", p.as_str()), h)),
        );
        render_histogram_family(
            &mut out,
            (
                "teraphim_server_phase_latency_micros",
                "Server-side phase latency in microseconds (queue wait, scan, rank, serialize).",
            ),
            self.per_server_phase
                .iter()
                .map(|(p, h)| (format!("phase=\"{p}\""), h)),
        );
        out
    }
}

/// Writes a family's `# HELP` and `# TYPE` lines.
fn declare(out: &mut String, (name, help): Family, kind: &str) {
    let _ = write!(out, "# HELP {name} {help}\n# TYPE {name} {kind}\n");
}

/// Renders one histogram family with cumulative `le` buckets; empty
/// histograms are skipped, and a family with none left is omitted.
fn render_histogram_family<'a>(
    out: &mut String,
    family: Family,
    series: impl IntoIterator<Item = (String, &'a HistogramSnapshot)>,
) {
    let name = family.0;
    let mut declared = false;
    for (labels, snap) in series {
        if snap.is_empty() {
            continue;
        }
        if !std::mem::replace(&mut declared, true) {
            declare(out, family, "histogram");
        }
        let last = snap.buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
        let mut cumulative = 0u64;
        for (i, &c) in snap.buckets.iter().enumerate().take(last + 1) {
            cumulative += c;
            let _ = writeln!(
                out,
                "{name}_bucket{{{labels},le=\"{}\"}} {cumulative}",
                bucket_upper_bound(i)
            );
        }
        let count = snap.count;
        let _ = writeln!(out, "{name}_bucket{{{labels},le=\"+Inf\"}} {count}");
        let _ = writeln!(out, "{name}_sum{{{labels}}} {}", snap.sum);
        let _ = writeln!(out, "{name}_count{{{labels}}} {count}");
    }
}

/// Checks `text` against the Prometheus text-format rules the CI smoke
/// run enforces: every sample line parses as `name[{labels}] value`,
/// every sampled family has a preceding `# TYPE`, and label blocks are
/// well-formed. Returns the first violation.
///
/// # Errors
///
/// Returns a message naming the offending line.
pub fn lint_prometheus(text: &str) -> Result<(), String> {
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.chars().enumerate().all(|(i, c)| {
                c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
            })
    }
    let mut typed: Vec<String> = Vec::new();
    let mut helped: Vec<String> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let err = |msg: &str| Err(format!("line {}: {msg}: {line:?}", lineno + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            if let Some(decl) = rest.strip_prefix("HELP ") {
                let Some(name) = decl.split_whitespace().next() else {
                    return err("malformed HELP line");
                };
                if !valid_name(name) {
                    return err("invalid metric name in HELP line");
                }
                if helped.contains(&name.to_owned()) {
                    return err("duplicate HELP declaration");
                }
                helped.push(name.to_owned());
                continue;
            }
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let (Some(name), Some(kind)) = (parts.next(), parts.next()) else {
                    return err("malformed TYPE line");
                };
                if !valid_name(name) {
                    return err("invalid metric name in TYPE line");
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return err("unknown metric type");
                }
                if typed.contains(&name.to_owned()) {
                    return err("duplicate TYPE declaration");
                }
                typed.push(name.to_owned());
            }
            continue;
        }
        if line.starts_with('#') {
            return err("comment must be `# HELP` or `# TYPE`");
        }
        // Sample line: name[{labels}] value
        let (name_and_labels, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: missing value: {line:?}", lineno + 1))?;
        if value.parse::<f64>().is_err() {
            return err("value is not a number");
        }
        let name = match name_and_labels.split_once('{') {
            Some((name, labels)) => {
                let Some(labels) = labels.strip_suffix('}') else {
                    return err("unterminated label block");
                };
                for pair in labels.split(',') {
                    let Some((k, v)) = pair.split_once('=') else {
                        return err("label without `=`");
                    };
                    if !valid_name(k) {
                        return err("invalid label name");
                    }
                    if !(v.starts_with('"') && v.ends_with('"') && v.len() >= 2) {
                        return err("label value must be quoted");
                    }
                }
                name
            }
            None => name_and_labels,
        };
        if !valid_name(name) {
            return err("invalid metric name");
        }
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| typed.contains(&(*f).to_owned()))
            .unwrap_or(name);
        if !typed.contains(&family.to_owned()) {
            return err("sample without a preceding TYPE declaration");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceSink;
    use std::sync::Arc;

    /// A virtual-time sink teed into a fresh registry: the only way
    /// operations reach one.
    fn teed_sink() -> (TraceSink, Arc<MetricsRegistry>) {
        let registry = Arc::new(MetricsRegistry::new());
        let sink = TraceSink::for_driver("sim");
        sink.tee_metrics(Arc::clone(&registry));
        (sink, registry)
    }

    #[test]
    fn bucket_boundaries_are_exact() {
        // Satellite: 0, u64::MAX and exact power-of-two edges.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index((1 << 20) - 1), 20);
        assert_eq!(bucket_index(1 << 20), 21);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        // Every value's bucket upper bound is >= the value.
        for v in [
            0u64,
            1,
            2,
            3,
            4,
            5,
            1023,
            1024,
            1025,
            u64::MAX - 1,
            u64::MAX,
        ] {
            assert!(bucket_upper_bound(bucket_index(v)) >= v, "{v}");
        }
    }

    #[test]
    fn extreme_values_record_and_read_back() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[64], 1);
        assert_eq!(s.quantile(0.25), 0);
        assert_eq!(s.quantile(1.0), u64::MAX);
    }

    #[test]
    fn empty_snapshot_reads_zero() {
        let s = Histogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn quantiles_bound_true_values_within_a_bucket() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        // True p50 is 500; the estimate is its bucket's upper bound.
        let p50 = s.p50();
        assert!((500..=1023).contains(&p50), "p50 {p50}");
        let p99 = s.p99();
        assert!((990..=1023).contains(&p99), "p99 {p99}");
        assert!(p99 >= p50);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |values: &[u64]| {
            let h = Histogram::new();
            for &v in values {
                h.record(v);
            }
            h.snapshot()
        };
        let a = mk(&[0, 5, 17]);
        let b = mk(&[1, 1, 1024, u64::MAX]);
        let c = mk(&[999_999]);
        assert_eq!(a.merge(&b), b.merge(&a));
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        let all = a.merge(&b).merge(&c);
        assert_eq!(all.count, 8);
        assert_eq!(all, mk(&[0, 5, 17, 1, 1, 1024, u64::MAX, 999_999]));
    }

    #[test]
    fn bucket_pairs_roundtrip_counts() {
        let h = Histogram::new();
        for v in [0u64, 3, 3, 900, 40_000] {
            h.record(v);
        }
        let s = h.snapshot();
        let rebuilt = HistogramSnapshot::from_bucket_pairs(&s.to_bucket_pairs());
        assert_eq!(rebuilt.buckets, s.buckets);
        assert_eq!(rebuilt.count, s.count);
        // Exact min/max are lost over the wire but bucket bounds keep
        // the quantile error within one bucket.
        assert!(rebuilt.p50() >= s.p50() / 2);
        // Out-of-range bucket indexes are ignored, not a panic.
        let odd = HistogramSnapshot::from_bucket_pairs(&[(200, 5), (1, 2)]);
        assert_eq!(odd.count, 2);
        // A damaged server's counts saturate instead of overflowing,
        // through quantile readout and merging too.
        let huge = HistogramSnapshot::from_bucket_pairs(&[(1, u64::MAX), (2, 1)]);
        assert_eq!(huge.count, u64::MAX);
        assert_eq!(huge.p99(), 1);
        assert_eq!(huge.merge(&huge).count, u64::MAX);
    }

    #[test]
    fn registry_correlates_sent_reply_latency() {
        let (sink, r) = teed_sink();
        sink.record_at(
            0,
            EventKind::Begin {
                op: "query",
                methodology: Some("CN"),
                query_id: 1,
                k: 10,
            },
        );
        sink.record_at(
            5,
            EventKind::Sent {
                librarian: 2,
                bytes: 40,
                message: "RankRequest",
            },
        );
        sink.record_at(
            105,
            EventKind::Reply {
                librarian: 2,
                bytes: 80,
                message: "RankResponse",
            },
        );
        sink.record_at(200, EventKind::End);
        let s = r.snapshot();
        assert_eq!(s.counts.get(Count::SENT), 1);
        assert_eq!(s.counts.get(Count::BYTES_RECEIVED), 80);
        assert_eq!(s.counts.queries(), 1);
        assert_eq!(s.counts.librarian(2, Count::SENT), 1);
        assert_eq!(s.per_librarian[2].count, 1);
        assert_eq!(s.per_librarian[2].min, 100);
        let (code, latency) = &s.per_methodology[1];
        assert_eq!(*code, "CN");
        assert_eq!(s.counts.get(Count::queries(1)), 1);
        assert_eq!(latency.min, 200);
    }

    #[test]
    fn registry_counts_failures_and_degradation() {
        let (sink, r) = teed_sink();
        sink.record_at(
            0,
            EventKind::Begin {
                op: "query_with_coverage",
                methodology: Some("CV"),
                query_id: 0,
                k: 5,
            },
        );
        sink.record_at(
            1,
            EventKind::Sent {
                librarian: 0,
                bytes: 10,
                message: "RankWeightedRequest",
            },
        );
        sink.record_at(
            2,
            EventKind::LibFailed {
                librarian: 0,
                error: "unavailable",
            },
        );
        sink.record_at(
            3,
            EventKind::Coverage {
                answered: vec![1],
                failed: vec![0],
                docs_permille: Some(500),
            },
        );
        sink.record_at(4, EventKind::End);
        let s = r.snapshot();
        assert_eq!(s.counts.get(Count::FAILURES), 1);
        assert_eq!(s.counts.get(Count::DEGRADED_QUERIES), 1);
        assert_eq!(s.counts.librarian(0, Count::FAILURES), 1);
        // The failed request's pending entry was discarded: no latency.
        assert!(s.per_librarian[0].is_empty());
    }

    #[test]
    fn prometheus_exposition_passes_the_lint() {
        let (sink, r) = teed_sink();
        sink.record_at(
            0,
            EventKind::Begin {
                op: "query",
                methodology: Some("CI"),
                query_id: 0,
                k: 5,
            },
        );
        sink.record_at(
            1,
            EventKind::PhaseStart {
                phase: Phase::RankFanout,
            },
        );
        sink.record_at(
            2,
            EventKind::Sent {
                librarian: 0,
                bytes: 11,
                message: "ScoreCandidatesRequest",
            },
        );
        sink.record_at(
            9,
            EventKind::Reply {
                librarian: 0,
                bytes: 22,
                message: "ScoreResponse",
            },
        );
        sink.record_at(
            10,
            EventKind::PhaseEnd {
                phase: Phase::RankFanout,
            },
        );
        sink.record_at(11, EventKind::End);
        let text = r.snapshot().render_prometheus();
        lint_prometheus(&text).unwrap();
        assert!(text.contains("teraphim_queries_total{methodology=\"CI\"} 1"));
        assert!(text.contains("teraphim_librarian_latency_micros_count{librarian=\"0\"} 1"));
        assert!(text.contains("teraphim_phase_latency_micros"));
    }

    #[test]
    fn lint_rejects_malformed_expositions() {
        assert!(lint_prometheus("teraphim_x_total 1\n").is_err(), "no TYPE");
        assert!(
            lint_prometheus("# TYPE m counter\nm{bad} 1\n").is_err(),
            "label without ="
        );
        assert!(
            lint_prometheus("# TYPE m counter\nm not_a_number\n").is_err(),
            "bad value"
        );
        assert!(
            lint_prometheus("# TYPE m wibble\n").is_err(),
            "unknown type"
        );
        assert!(
            lint_prometheus("# TYPE m counter\n# TYPE m counter\n").is_err(),
            "duplicate TYPE"
        );
        assert!(
            lint_prometheus("# HELP m a\n# HELP m b\n# TYPE m counter\nm 1\n").is_err(),
            "duplicate HELP"
        );
        assert!(lint_prometheus("# TYPE m counter\nm{a=\"b\"} 1\nm 2.5\n").is_ok());
    }

    #[test]
    fn server_phase_events_feed_their_own_family() {
        let (sink, r) = teed_sink();
        sink.record_at(
            0,
            EventKind::Begin {
                op: "query",
                methodology: None,
                query_id: 0,
                k: 5,
            },
        );
        for (phase, micros) in [("queue_wait", 500), ("rank", 20)] {
            sink.record_at(
                1,
                EventKind::ServerPhase {
                    librarian: 1,
                    phase,
                    micros,
                },
            );
        }
        sink.record_at(2, EventKind::End);
        let snap = r.snapshot();
        assert_eq!(snap.per_server_phase.len(), SERVER_PHASES.len());
        assert_eq!(snap.per_server_phase[0].0, "queue_wait");
        assert_eq!(snap.per_server_phase[0].1.sum, 500);
        assert_eq!(snap.per_server_phase[2].1.count, 1);
        assert_eq!(snap.per_server_phase[1].1.count, 0, "scan untouched");
        let text = snap.render_prometheus();
        lint_prometheus(&text).unwrap();
        assert!(text.contains("teraphim_server_phase_latency_micros_sum{phase=\"queue_wait\"} 500"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        // Satellite: for arbitrary sample sets, quantiles are ordered
        // and bracketed by the observed extremes.
        #[test]
        fn quantiles_are_monotone_and_bounded(
            samples in proptest::collection::vec(any::<u64>(), 1..200),
        ) {
            let h = Histogram::new();
            let mut min = u64::MAX;
            let mut max = 0u64;
            for &v in &samples {
                h.record(v);
                min = min.min(v);
                max = max.max(v);
            }
            let s = h.snapshot();
            prop_assert_eq!(s.count, samples.len() as u64);
            prop_assert_eq!(s.min, min);
            prop_assert_eq!(s.max, max);
            let p50 = s.p50();
            let p95 = s.p95();
            let p99 = s.p99();
            prop_assert!(p99 >= p95);
            prop_assert!(p95 >= p50);
            prop_assert!(p50 >= min, "p50 {} < min {}", p50, min);
            prop_assert!(p99 <= max, "p99 {} > max {}", p99, max);
        }

        #[test]
        fn merge_matches_recording_everything_once(
            a in proptest::collection::vec(any::<u64>(), 0..100),
            b in proptest::collection::vec(any::<u64>(), 0..100),
        ) {
            let ha = Histogram::new();
            let hb = Histogram::new();
            let hall = Histogram::new();
            for &v in &a { ha.record(v); hall.record(v); }
            for &v in &b { hb.record(v); hall.record(v); }
            prop_assert_eq!(ha.snapshot().merge(&hb.snapshot()), hall.snapshot());
        }
    }
}
