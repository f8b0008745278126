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
use crate::span::{server_phase_index, SERVER_PHASES};
use crate::trace::{Closed, QueryTrace};
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
    /// usual at-most-one-bucket error.
    #[must_use]
    pub fn from_bucket_pairs(pairs: &[(u32, u64)]) -> Self {
        let mut snap = HistogramSnapshot::empty();
        for &(bucket, count) in pairs {
            let Some(slot) = snap.buckets.get_mut(bucket as usize) else {
                continue;
            };
            *slot += count;
            snap.count += count;
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
            seen += c;
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
            *out = a + b;
        }
        HistogramSnapshot {
            buckets,
            count: self.count + other.count,
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

/// Per-librarian atomic slots.
#[derive(Debug, Default)]
struct LibSlot {
    sent: AtomicU64,
    replies: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    timeouts: AtomicU64,
    retries: AtomicU64,
    faults: AtomicU64,
    failures: AtomicU64,
    latency: Histogram,
}

/// Per-methodology atomic slots.
#[derive(Debug, Default)]
struct MethodSlot {
    queries: AtomicU64,
    latency: Histogram,
}

/// Per-cache-kind atomic slots.
#[derive(Debug, Default)]
struct CacheSlot {
    hits: AtomicU64,
    misses: AtomicU64,
    stale: AtomicU64,
    evictions: AtomicU64,
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
#[derive(Debug)]
pub struct MetricsRegistry {
    messages_sent: AtomicU64,
    messages_received: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    timeouts: AtomicU64,
    retries: AtomicU64,
    faults: AtomicU64,
    lib_failures: AtomicU64,
    merges: AtomicU64,
    merged_entries: AtomicU64,
    scored_candidates: AtomicU64,
    postings_decoded: AtomicU64,
    queries: AtomicU64,
    degraded_queries: AtomicU64,
    failovers: AtomicU64,
    membership_changes: AtomicU64,
    methodologies: [MethodSlot; 4],
    caches: [CacheSlot; 3],
    phases: [Histogram; 7],
    /// Server-side phase latency, in [`SERVER_PHASES`] slot order.
    server_phases: [Histogram; 4],
    librarians: RwLock<Vec<LibSlot>>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry {
            messages_sent: AtomicU64::new(0),
            messages_received: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
            bytes_received: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            lib_failures: AtomicU64::new(0),
            merges: AtomicU64::new(0),
            merged_entries: AtomicU64::new(0),
            scored_candidates: AtomicU64::new(0),
            postings_decoded: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            degraded_queries: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            membership_changes: AtomicU64::new(0),
            methodologies: Default::default(),
            caches: Default::default(),
            phases: Default::default(),
            server_phases: Default::default(),
            librarians: RwLock::new(Vec::new()),
        }
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

    /// Counts one trace event. Called by the sink for every event it
    /// records, inside an operation or not (membership changes and
    /// health-poll timeouts arrive outside any). Operation and phase
    /// brackets count nothing here: their latencies are read off the
    /// finished trace by [`MetricsRegistry::observe_operation`].
    pub fn observe(&self, kind: &EventKind) {
        match kind {
            EventKind::Sent {
                librarian, bytes, ..
            } => {
                self.messages_sent.fetch_add(1, Ordering::Relaxed);
                self.bytes_sent.fetch_add(*bytes, Ordering::Relaxed);
                self.with_lib(*librarian, |s| {
                    s.sent.fetch_add(1, Ordering::Relaxed);
                    s.bytes_sent.fetch_add(*bytes, Ordering::Relaxed);
                });
            }
            EventKind::Reply {
                librarian, bytes, ..
            } => {
                self.messages_received.fetch_add(1, Ordering::Relaxed);
                self.bytes_received.fetch_add(*bytes, Ordering::Relaxed);
                self.with_lib(*librarian, |s| {
                    s.replies.fetch_add(1, Ordering::Relaxed);
                    s.bytes_received.fetch_add(*bytes, Ordering::Relaxed);
                });
            }
            EventKind::Timeout { librarian } => {
                self.timeouts.fetch_add(1, Ordering::Relaxed);
                self.with_lib(*librarian, |s| {
                    s.timeouts.fetch_add(1, Ordering::Relaxed);
                });
            }
            EventKind::Retry { librarian, .. } => {
                self.retries.fetch_add(1, Ordering::Relaxed);
                self.with_lib(*librarian, |s| {
                    s.retries.fetch_add(1, Ordering::Relaxed);
                });
            }
            EventKind::Fault { librarian, .. } => {
                self.faults.fetch_add(1, Ordering::Relaxed);
                self.with_lib(*librarian, |s| {
                    s.faults.fetch_add(1, Ordering::Relaxed);
                });
            }
            EventKind::LibFailed { librarian, .. } => {
                self.lib_failures.fetch_add(1, Ordering::Relaxed);
                self.with_lib(*librarian, |s| {
                    s.failures.fetch_add(1, Ordering::Relaxed);
                });
            }
            EventKind::Scored {
                candidates,
                postings,
                ..
            } => {
                self.scored_candidates
                    .fetch_add(u64::from(*candidates), Ordering::Relaxed);
                self.postings_decoded
                    .fetch_add(*postings, Ordering::Relaxed);
            }
            EventKind::Merge { entries, .. } => {
                self.merges.fetch_add(1, Ordering::Relaxed);
                self.merged_entries.fetch_add(*entries, Ordering::Relaxed);
            }
            EventKind::Coverage { failed, .. } if !failed.is_empty() => {
                self.degraded_queries.fetch_add(1, Ordering::Relaxed);
            }
            EventKind::CacheHit { cache } => {
                if let Some(i) = cache_index(cache) {
                    self.caches[i].hits.fetch_add(1, Ordering::Relaxed);
                }
            }
            EventKind::CacheMiss { cache, stale } => {
                if let Some(i) = cache_index(cache) {
                    self.caches[i].misses.fetch_add(1, Ordering::Relaxed);
                    if *stale {
                        self.caches[i].stale.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            EventKind::CacheEvict { cache, entries } => {
                if let Some(i) = cache_index(cache) {
                    self.caches[i]
                        .evictions
                        .fetch_add(u64::from(*entries), Ordering::Relaxed);
                }
            }
            EventKind::Failover { .. } => {
                self.failovers.fetch_add(1, Ordering::Relaxed);
            }
            EventKind::Join { .. } | EventKind::Leave { .. } | EventKind::Migrate { .. } => {
                self.membership_changes.fetch_add(1, Ordering::Relaxed);
            }
            EventKind::ServerPhase { phase, micros, .. } => {
                if let Some(i) = server_phase_index(phase) {
                    self.server_phases[i].record(*micros);
                }
            }
            _ => {}
        }
    }

    /// Records one completed operation, as the sink that ran it
    /// assembled it: a methodology-tagged operation counts as a query
    /// of `duration_micros` (its `Begin`→`End` time), and every phase
    /// bracket and `Sent`→`Reply` exchange the trace closed lands in
    /// its phase / librarian latency histogram. Latencies are timestamp
    /// differences within one trace, so wall-clock and simulated
    /// drivers meter identically.
    pub fn observe_operation(&self, trace: &QueryTrace, duration_micros: u64) {
        if let Some(slot) = trace.methodology.as_deref().and_then(methodology_index) {
            self.queries.fetch_add(1, Ordering::Relaxed);
            let m = &self.methodologies[slot];
            m.queries.fetch_add(1, Ordering::Relaxed);
            m.latency.record(duration_micros);
        }
        trace.for_each_closed(|closed| match closed {
            Closed::Phase(phase, micros) => self.phases[phase_index(phase)].record(micros),
            Closed::Exchange(librarian, micros) => {
                self.with_lib(librarian, |s| s.latency.record(micros));
            }
        });
    }

    /// A point-in-time copy of every counter and histogram.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let per_librarian = self
            .librarians
            .read()
            .unwrap()
            .iter()
            .enumerate()
            .map(|(i, s)| LibrarianMetrics {
                librarian: i as u32,
                sent: load(&s.sent),
                replies: load(&s.replies),
                bytes_sent: load(&s.bytes_sent),
                bytes_received: load(&s.bytes_received),
                timeouts: load(&s.timeouts),
                retries: load(&s.retries),
                faults: load(&s.faults),
                failures: load(&s.failures),
                latency: s.latency.snapshot(),
            })
            .collect();
        let per_methodology = METHODOLOGIES
            .iter()
            .zip(&self.methodologies)
            .map(|(&code, slot)| MethodologyMetrics {
                code,
                queries: load(&slot.queries),
                latency: slot.latency.snapshot(),
            })
            .collect();
        let per_cache = CACHE_KINDS
            .iter()
            .zip(&self.caches)
            .map(|(&cache, slot)| CacheMetrics {
                cache,
                hits: load(&slot.hits),
                misses: load(&slot.misses),
                stale: load(&slot.stale),
                evictions: load(&slot.evictions),
            })
            .collect();
        let per_phase = PHASES
            .iter()
            .zip(&self.phases)
            .map(|(&phase, h)| (phase, h.snapshot()))
            .collect();
        let per_server_phase = SERVER_PHASES
            .iter()
            .zip(&self.server_phases)
            .map(|(&phase, h)| (phase, h.snapshot()))
            .collect();
        MetricsSnapshot {
            messages_sent: load(&self.messages_sent),
            messages_received: load(&self.messages_received),
            bytes_sent: load(&self.bytes_sent),
            bytes_received: load(&self.bytes_received),
            timeouts: load(&self.timeouts),
            retries: load(&self.retries),
            faults: load(&self.faults),
            lib_failures: load(&self.lib_failures),
            merges: load(&self.merges),
            merged_entries: load(&self.merged_entries),
            scored_candidates: load(&self.scored_candidates),
            postings_decoded: load(&self.postings_decoded),
            queries: load(&self.queries),
            degraded_queries: load(&self.degraded_queries),
            failovers: load(&self.failovers),
            membership_changes: load(&self.membership_changes),
            per_methodology,
            per_cache,
            per_librarian,
            per_phase,
            per_server_phase,
        }
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

/// One librarian's rolled-up counters in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LibrarianMetrics {
    /// Librarian index.
    pub librarian: u32,
    /// Requests sent to this librarian.
    pub sent: u64,
    /// Replies received from it.
    pub replies: u64,
    /// Request payload bytes sent to it.
    pub bytes_sent: u64,
    /// Reply payload bytes received from it.
    pub bytes_received: u64,
    /// Transport timeouts against it.
    pub timeouts: u64,
    /// Retries issued against it.
    pub retries: u64,
    /// Injected faults that fired against it.
    pub faults: u64,
    /// Times it dropped out of a fan-out (after retries).
    pub failures: u64,
    /// Request→reply latency in microseconds.
    pub latency: HistogramSnapshot,
}

impl LibrarianMetrics {
    /// Permanent failures plus timeouts, over requests sent — the
    /// client-observed error rate health checks use.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        (self.failures + self.timeouts) as f64 / (self.sent.max(1)) as f64
    }
}

/// One receptionist cache's rolled-up counters in a
/// [`MetricsSnapshot`]. All four counters are monotone; `hits + misses`
/// is the number of lookups, and `stale` counts the subset of misses
/// that lazily dropped an entry from an invalidated generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheMetrics {
    /// Cache kind (`"results"`, `"stats"`, `"docs"`).
    pub cache: &'static str,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Misses that dropped a stale-generation entry.
    pub stale: u64,
    /// Entries evicted to make room for inserts.
    pub evictions: u64,
}

/// One methodology's rolled-up counters in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodologyMetrics {
    /// Methodology code (`"MS"`, `"CN"`, `"CV"`, `"CI"`).
    pub code: &'static str,
    /// Completed query operations.
    pub queries: u64,
    /// Begin→End query latency in microseconds.
    pub latency: HistogramSnapshot,
}

/// Wire-level totals a finished registry implies — the same quantities
/// `TrafficStats` counts on the transports and a `QueryTrace` sums from
/// its `sent`/`reply` events. `tests/sim_vs_real.rs` asserts all three
/// accounting paths agree, so they cannot silently drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficTotals {
    /// Logical request/reply exchanges (one per `Sent` event).
    pub round_trips: u64,
    /// Request payload bytes.
    pub bytes_sent: u64,
    /// Reply payload bytes.
    pub bytes_received: u64,
}

/// A point-in-time copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Requests sent across all librarians.
    pub messages_sent: u64,
    /// Replies received across all librarians.
    pub messages_received: u64,
    /// Request payload bytes.
    pub bytes_sent: u64,
    /// Reply payload bytes.
    pub bytes_received: u64,
    /// Transport timeouts.
    pub timeouts: u64,
    /// Retries issued.
    pub retries: u64,
    /// Injected faults that fired.
    pub faults: u64,
    /// Librarian fan-out drop-outs.
    pub lib_failures: u64,
    /// Merge operations performed.
    pub merges: u64,
    /// Entries folded into merges.
    pub merged_entries: u64,
    /// CI candidates scored.
    pub scored_candidates: u64,
    /// Postings decoded while scoring.
    pub postings_decoded: u64,
    /// Completed query operations (any methodology).
    pub queries: u64,
    /// Queries whose coverage was degraded.
    pub degraded_queries: u64,
    /// Requests rerouted to another replica after a transient error.
    pub failovers: u64,
    /// Fleet membership changes observed (joins, leaves, migrations).
    pub membership_changes: u64,
    /// Per-methodology slots, in [`METHODOLOGIES`] order.
    pub per_methodology: Vec<MethodologyMetrics>,
    /// Per-cache slots, in [`CACHE_KINDS`] order.
    pub per_cache: Vec<CacheMetrics>,
    /// Per-librarian slots, in librarian index order.
    pub per_librarian: Vec<LibrarianMetrics>,
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
    /// The wire totals this snapshot implies (see [`TrafficTotals`]).
    #[must_use]
    pub fn traffic_totals(&self) -> TrafficTotals {
        TrafficTotals {
            round_trips: self.messages_sent,
            bytes_sent: self.bytes_sent,
            bytes_received: self.bytes_received,
        }
    }

    /// Query latency merged across all methodologies.
    #[must_use]
    pub fn query_latency(&self) -> HistogramSnapshot {
        self.per_methodology
            .iter()
            .fold(HistogramSnapshot::empty(), |acc, m| acc.merge(&m.latency))
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4) — `# HELP`/`# TYPE` comments, counters, and
    /// cumulative-bucket histograms. Hand-rolled, no dependencies, like
    /// the crate's JSON encoding.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let counter = |out: &mut String, name: &str, help: &str, samples: &[(String, u64)]| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
            for (labels, value) in samples {
                out.push_str(&format!("{name}{labels} {value}\n"));
            }
        };
        counter(
            &mut out,
            "teraphim_messages_total",
            "Protocol messages exchanged, by direction.",
            &[
                ("{direction=\"sent\"}".into(), self.messages_sent),
                ("{direction=\"received\"}".into(), self.messages_received),
            ],
        );
        counter(
            &mut out,
            "teraphim_bytes_total",
            "Payload bytes on the wire, by direction.",
            &[
                ("{direction=\"sent\"}".into(), self.bytes_sent),
                ("{direction=\"received\"}".into(), self.bytes_received),
            ],
        );
        counter(
            &mut out,
            "teraphim_timeouts_total",
            "Transport timeouts.",
            &[(String::new(), self.timeouts)],
        );
        counter(
            &mut out,
            "teraphim_retries_total",
            "Transport retries issued.",
            &[(String::new(), self.retries)],
        );
        counter(
            &mut out,
            "teraphim_faults_total",
            "Injected faults that fired.",
            &[(String::new(), self.faults)],
        );
        counter(
            &mut out,
            "teraphim_librarian_failures_total",
            "Librarian fan-out drop-outs (after retries).",
            &[(String::new(), self.lib_failures)],
        );
        counter(
            &mut out,
            "teraphim_merged_entries_total",
            "Ranking entries folded into merges.",
            &[(String::new(), self.merged_entries)],
        );
        counter(
            &mut out,
            "teraphim_scored_candidates_total",
            "CI candidates scored at librarians.",
            &[(String::new(), self.scored_candidates)],
        );
        counter(
            &mut out,
            "teraphim_postings_decoded_total",
            "Postings decoded while scoring CI candidates.",
            &[(String::new(), self.postings_decoded)],
        );
        counter(
            &mut out,
            "teraphim_degraded_queries_total",
            "Queries answered with degraded coverage.",
            &[(String::new(), self.degraded_queries)],
        );
        counter(
            &mut out,
            "teraphim_failovers_total",
            "Requests rerouted to another replica after a transient error.",
            &[(String::new(), self.failovers)],
        );
        counter(
            &mut out,
            "teraphim_membership_changes_total",
            "Fleet membership changes (joins, leaves, migrations).",
            &[(String::new(), self.membership_changes)],
        );
        let cache_samples: Vec<(String, u64)> = self
            .per_cache
            .iter()
            .flat_map(|c| {
                [
                    (format!("{{cache=\"{}\",outcome=\"hit\"}}", c.cache), c.hits),
                    (
                        format!("{{cache=\"{}\",outcome=\"miss\"}}", c.cache),
                        c.misses,
                    ),
                    (
                        format!("{{cache=\"{}\",outcome=\"stale\"}}", c.cache),
                        c.stale,
                    ),
                    (
                        format!("{{cache=\"{}\",outcome=\"evict\"}}", c.cache),
                        c.evictions,
                    ),
                ]
            })
            .collect();
        counter(
            &mut out,
            "teraphim_cache_events_total",
            "Receptionist cache lookups and evictions, by cache and outcome.",
            &cache_samples,
        );
        let query_samples: Vec<(String, u64)> = self
            .per_methodology
            .iter()
            .map(|m| (format!("{{methodology=\"{}\"}}", m.code), m.queries))
            .collect();
        counter(
            &mut out,
            "teraphim_queries_total",
            "Completed query operations, by methodology.",
            &query_samples,
        );
        let lib_label = |lib: u32| format!("librarian=\"{lib}\"");
        let sent_samples: Vec<(String, u64)> = self
            .per_librarian
            .iter()
            .map(|l| (format!("{{{}}}", lib_label(l.librarian)), l.sent))
            .collect();
        counter(
            &mut out,
            "teraphim_librarian_requests_total",
            "Requests sent, by librarian.",
            &sent_samples,
        );
        let err_samples: Vec<(String, u64)> = self
            .per_librarian
            .iter()
            .flat_map(|l| {
                [
                    (
                        format!("{{{},kind=\"timeout\"}}", lib_label(l.librarian)),
                        l.timeouts,
                    ),
                    (
                        format!("{{{},kind=\"failure\"}}", lib_label(l.librarian)),
                        l.failures,
                    ),
                    (
                        format!("{{{},kind=\"retry\"}}", lib_label(l.librarian)),
                        l.retries,
                    ),
                ]
            })
            .collect();
        counter(
            &mut out,
            "teraphim_librarian_errors_total",
            "Timeouts, failures and retries, by librarian.",
            &err_samples,
        );
        render_histogram_family(
            &mut out,
            "teraphim_query_latency_micros",
            "Query latency in microseconds, by methodology.",
            &self
                .per_methodology
                .iter()
                .filter(|m| !m.latency.is_empty())
                .map(|m| (format!("methodology=\"{}\"", m.code), &m.latency))
                .collect::<Vec<_>>(),
        );
        render_histogram_family(
            &mut out,
            "teraphim_librarian_latency_micros",
            "Request-to-reply latency in microseconds, by librarian.",
            &self
                .per_librarian
                .iter()
                .filter(|l| !l.latency.is_empty())
                .map(|l| (lib_label(l.librarian), &l.latency))
                .collect::<Vec<_>>(),
        );
        render_histogram_family(
            &mut out,
            "teraphim_phase_latency_micros",
            "Phase latency in microseconds, by lifecycle phase.",
            &self
                .per_phase
                .iter()
                .filter(|(_, h)| !h.is_empty())
                .map(|(p, h)| (format!("phase=\"{}\"", p.as_str()), h))
                .collect::<Vec<_>>(),
        );
        render_histogram_family(
            &mut out,
            "teraphim_server_phase_latency_micros",
            "Server-side phase latency in microseconds (queue wait, scan, rank, serialize).",
            &self
                .per_server_phase
                .iter()
                .filter(|(_, h)| !h.is_empty())
                .map(|(p, h)| (format!("phase=\"{p}\""), h))
                .collect::<Vec<_>>(),
        );
        out
    }
}

/// Renders one histogram metric family with cumulative `le` buckets.
fn render_histogram_family(
    out: &mut String,
    name: &str,
    help: &str,
    series: &[(String, &HistogramSnapshot)],
) {
    if series.is_empty() {
        return;
    }
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
    for (labels, snap) in series {
        let last = snap.buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
        let mut cumulative = 0u64;
        for (i, &c) in snap.buckets.iter().enumerate().take(last + 1) {
            cumulative += c;
            out.push_str(&format!(
                "{name}_bucket{{{labels},le=\"{}\"}} {cumulative}\n",
                bucket_upper_bound(i)
            ));
        }
        out.push_str(&format!(
            "{name}_bucket{{{labels},le=\"+Inf\"}} {}\n",
            snap.count
        ));
        out.push_str(&format!("{name}_sum{{{labels}}} {}\n", snap.sum));
        out.push_str(&format!("{name}_count{{{labels}}} {}\n", snap.count));
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
        assert_eq!(s.messages_sent, 1);
        assert_eq!(s.bytes_received, 80);
        assert_eq!(s.queries, 1);
        let lib = &s.per_librarian[2];
        assert_eq!(lib.latency.count, 1);
        assert_eq!(lib.latency.min, 100);
        let cn = &s.per_methodology[1];
        assert_eq!(cn.code, "CN");
        assert_eq!(cn.queries, 1);
        assert_eq!(cn.latency.min, 200);
        assert_eq!(s.traffic_totals().round_trips, 1);
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
        assert_eq!(s.lib_failures, 1);
        assert_eq!(s.degraded_queries, 1);
        assert_eq!(s.per_librarian[0].failures, 1);
        assert!(s.per_librarian[0].error_rate() >= 1.0);
        // The failed request's pending entry was discarded: no latency.
        assert!(s.per_librarian[0].latency.is_empty());
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
        let r = MetricsRegistry::new();
        r.observe(&EventKind::ServerPhase {
            librarian: 1,
            phase: "queue_wait",
            micros: 500,
        });
        r.observe(&EventKind::ServerPhase {
            librarian: 1,
            phase: "rank",
            micros: 20,
        });
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
