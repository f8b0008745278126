//! The receptionist: the broker between users and librarians.
//!
//! Query evaluation follows the four steps of §3: (1) the user lodges a
//! query and the receptionist passes it — with global information as the
//! methodology allows — to the librarians; (2) each librarian determines
//! a local ranking; (3) the receptionist waits for all responses and
//! merges them into a collection-wide top `k`; (4) the librarians return
//! the text of the chosen documents.
//!
//! The receptionist is generic over the transport, so the same logic
//! drives in-process librarians, TCP librarians on a LAN, and the
//! byte-accounted runs that feed the WAN simulation.

use crate::cache::{CacheConfig, CacheState, CacheStats, Lookup, ResultKey};
use crate::health::{self, HealthPolicy, HealthReport, HealthState};
use crate::methodology::{CiParams, Methodology};
use crate::TeraphimError;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use teraphim_engine::ranking::{self, ScoredDoc};
use teraphim_index::similarity;
use teraphim_index::{CollectionStats, DocId, GroupedIndex, InvertedIndex, Vocabulary};
use teraphim_net::{
    dispatch, DispatchMode, Message, NetError, RoutingTable, TrafficStats, Transport,
};
use teraphim_obs::{EventKind, LibCandidates, Phase, TraceSink};
use teraphim_text::Analyzer;

/// A merged ranking entry: which librarian owns the document.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalHit {
    /// Index of the owning librarian.
    pub librarian: usize,
    /// Local document id at that librarian.
    pub doc: DocId,
    /// Similarity score as merged.
    pub score: f64,
}

/// A fetched answer document.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchedDoc {
    /// Index of the owning librarian.
    pub librarian: usize,
    /// Local document id.
    pub doc: DocId,
    /// External identifier.
    pub docno: String,
    /// Decompressed text when fetched `plain`; `None` when the document
    /// travelled compressed (TERAPHIM's preferred mode — decompression
    /// then happens at display time with the collection's model).
    pub text: Option<String>,
    /// Bytes that crossed the wire for this document's body.
    pub body_bytes: usize,
}

/// What fraction of the librarian fleet — and of the global collection —
/// actually contributed to a merged ranking. Attached to every
/// [`RankedAnswer`] so callers can tell a complete answer from a
/// degraded one.
#[derive(Debug, Clone, PartialEq)]
pub struct Coverage {
    /// Librarians that were contacted and answered successfully, in
    /// index order.
    pub answered: Vec<usize>,
    /// Librarians whose exchange failed permanently (after any retries
    /// the transport stack performs), in index order.
    pub failed: Vec<usize>,
    /// Fraction of the global document count held by librarians that
    /// did *not* fail — `None` when the receptionist has no global
    /// collection statistics (Central Nothing without CV preprocessing).
    pub docs_fraction: Option<f64>,
}

impl Coverage {
    /// True when every contacted librarian answered.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty()
    }

    /// True when at least one librarian dropped out of the merge.
    pub fn is_degraded(&self) -> bool {
        !self.failed.is_empty()
    }
}

/// A merged ranking plus the coverage it was computed over.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedAnswer {
    /// The merged global top `k` over the answering librarians.
    pub hits: Vec<GlobalHit>,
    /// Which librarians contributed and which failed.
    pub coverage: Coverage,
}

/// When is a partial answer still an answer? The receptionist's
/// degradation policy for [`Receptionist::query_with_coverage`]:
/// fewer than `min_answered` successful librarians turns the degraded
/// result into [`TeraphimError::InsufficientCoverage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradePolicy {
    /// Minimum number of librarians that must answer for a ranking to
    /// be returned at all.
    pub min_answered: usize,
}

impl Default for DegradePolicy {
    /// Any surviving librarian is better than no answer.
    fn default() -> Self {
        DegradePolicy { min_answered: 1 }
    }
}

/// What the ranked-query pipeline does about a librarian that fails to
/// answer: the one difference between [`Receptionist::query`] and
/// [`Receptionist::query_with_coverage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OnFailure {
    /// Every contacted librarian must answer; the first failure's own
    /// [`NetError`] is the query's error.
    Surface,
    /// Failed librarians drop out of the merge and are reported, down to
    /// the configured [`DegradePolicy`].
    Degrade,
}

/// Global state for the Central Vocabulary methodology. Immutable once
/// built, so forked receptionists ([`Receptionist::fork`]) share one
/// copy behind an [`Arc`] instead of re-running the vocabulary
/// exchange per session.
#[derive(Debug)]
struct CvState {
    vocab: Vocabulary,
    stats: CollectionStats,
    /// Per-librarian statistics (aligned to `vocab`) for collection
    /// selection.
    selection: crate::selection::SelectionState,
}

/// Global state for the Central Index methodology. Immutable once
/// built and shared across forked receptionists like [`CvState`].
#[derive(Debug)]
struct CiState {
    grouped: GroupedIndex,
    params: CiParams,
}

/// A shared routing table plus the last version this receptionist acted
/// on; the delta between the two is what a query observes.
#[derive(Debug, Clone)]
struct RoutingWatch {
    table: RoutingTable,
    last_seen: u64,
}

/// The receptionist over a set of librarian transports.
///
/// # Examples
///
/// ```
/// use teraphim_core::{Librarian, Methodology, Receptionist};
/// use teraphim_net::InProcTransport;
/// use teraphim_text::Analyzer;
///
/// # fn main() -> Result<(), teraphim_core::TeraphimError> {
/// let librarians = vec![
///     Librarian::from_texts("A", &[("A-1", "cats sleep all day")]),
///     Librarian::from_texts("B", &[("B-1", "dogs fetch sticks")]),
/// ];
/// let transports = librarians.into_iter().map(InProcTransport::new).collect();
/// let mut receptionist = Receptionist::new(transports, Analyzer::default());
/// receptionist.enable_cv()?; // Central Vocabulary preprocessing
/// let hits = receptionist.query(Methodology::CentralVocabulary, "cats", 5)?;
/// assert_eq!(hits.len(), 1);
/// assert_eq!(receptionist.headers(&hits)?, vec!["A-1".to_string()]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Receptionist<T: Transport> {
    transports: Vec<T>,
    analyzer: Analyzer,
    cv: Option<Arc<CvState>>,
    ci: Option<Arc<CiState>>,
    next_query_id: u32,
    dispatch: DispatchMode,
    degrade: DegradePolicy,
    trace: TraceSink,
    cache: Option<CacheState>,
    routing: Option<RoutingWatch>,
}

impl<T: Transport> Receptionist<T> {
    /// Creates a Central-Nothing-capable receptionist: all it knows is
    /// the librarian list. Subqueries fan out in parallel by default
    /// ([`DispatchMode::Pipelined`]: the paper's parallel-librarians
    /// model, where elapsed time is the maximum of the librarians' times).
    pub fn new(transports: Vec<T>, analyzer: Analyzer) -> Self {
        Receptionist {
            transports,
            analyzer,
            cv: None,
            ci: None,
            next_query_id: 0,
            dispatch: DispatchMode::default(),
            degrade: DegradePolicy::default(),
            trace: TraceSink::disabled(),
            cache: None,
            routing: None,
        }
    }

    /// Clones this receptionist's *global* state onto a fresh set of
    /// transports, producing an independent session that can run on
    /// another thread. The expensive preprocessing products — the
    /// merged CV vocabulary/statistics and the CI grouped index — are
    /// shared behind [`Arc`]s (they are immutable once built), so a
    /// pool of hundreds of sessions costs no more memory than one.
    ///
    /// Per-session state is *not* shared: the fork gets its own
    /// transports (and therefore its own traffic accounting), its own
    /// query-id counter, a fresh cache with the same configuration
    /// (caches are unsynchronized, so each session maintains its own),
    /// and a disabled trace sink — attach one per session with
    /// [`Receptionist::set_trace_sink`] if needed. Dispatch mode and
    /// degrade policy carry over.
    ///
    /// The fork may run over a *different* transport type than the
    /// prototype — e.g. preprocess in-process, then fork sessions onto
    /// multiplexed TCP handles.
    /// The transports must of course address the same librarian fleet
    /// in the same order.
    pub fn fork<U: Transport>(&self, transports: Vec<U>) -> Receptionist<U> {
        Receptionist {
            transports,
            analyzer: self.analyzer.clone(),
            cv: self.cv.clone(),
            ci: self.ci.clone(),
            next_query_id: 0,
            dispatch: self.dispatch,
            degrade: self.degrade,
            trace: TraceSink::disabled(),
            cache: self.cache.as_ref().map(|c| CacheState::new(c.config())),
            routing: self.routing.clone(),
        }
    }

    /// Enables the receptionist-side caches (merged rankings, term
    /// statistics, answer documents) under `config`. Caching is
    /// *off* by default; enabling it never changes what a query
    /// returns — cached entries replay the exact bytes the fleet
    /// produced, and epoch-based invalidation (librarians report an
    /// index epoch in every ranking reply and stats poll) drops
    /// entries as soon as any index is observed to have moved. See
    /// the `cache` module docs for the invalidation rules.
    pub fn enable_cache(&mut self, config: CacheConfig) {
        self.cache = Some(CacheState::new(config));
    }

    /// Watches a fleet [`RoutingTable`]: every query operation first
    /// compares the table's version against the last one it acted on,
    /// and any movement — a replica joined, left, or was promoted
    /// anywhere in the fleet — bumps the cache generation before the
    /// cache is consulted. Membership changes therefore can never
    /// serve a result or term-statistics entry cached under the old
    /// routing, by the same generation mechanism epoch bumps use.
    pub fn set_routing_table(&mut self, table: RoutingTable) {
        let last_seen = table.version();
        self.routing = Some(RoutingWatch { table, last_seen });
    }

    /// The watched routing table's current version, if one is attached.
    pub fn routing_version(&self) -> Option<u64> {
        self.routing.as_ref().map(|w| w.table.version())
    }

    /// Folds any routing-table movement into the cache generation.
    fn observe_routing(&mut self) {
        let Some(watch) = self.routing.as_mut() else {
            return;
        };
        let version = watch.table.version();
        if version != watch.last_seen {
            watch.last_seen = version;
            if let Some(cache) = self.cache.as_mut() {
                cache.bump_generation();
            }
        }
    }

    /// Drops all cached state and disables caching.
    pub fn disable_cache(&mut self) {
        self.cache = None;
    }

    /// True while [`Receptionist::enable_cache`] is in force.
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// Hit/miss/eviction counters and occupancy for the enabled
    /// caches, or `None` when caching is off.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(CacheState::stats)
    }

    /// Attaches a trace sink: subsequent operations record structured
    /// [`EventKind`] events into it, one [`teraphim_obs::QueryTrace`] per
    /// operation. The sink is also pushed down into every transport via
    /// [`Transport::set_trace`] (librarian = shard index), so wire
    /// transports start sending span contexts and decorator stacks
    /// (retry, faults, replica groups) record into the same traces.
    /// Pass [`TraceSink::disabled`] to stop tracing.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.trace = sink;
        for (lib, transport) in self.transports.iter_mut().enumerate() {
            transport.set_trace(self.trace.clone(), lib as u32);
        }
    }

    /// The sink operations currently record into (disabled by default).
    pub fn trace_sink(&self) -> &TraceSink {
        &self.trace
    }

    /// Creates a fresh enabled sink, attaches it, and returns it — call
    /// [`TraceSink::take_traces`] on the returned handle after running
    /// queries.
    pub fn enable_tracing(&mut self) -> TraceSink {
        let sink = TraceSink::new();
        self.set_trace_sink(sink.clone());
        sink
    }

    /// Attaches a tail-retaining [`FlightRecorder`] of `capacity`
    /// exemplars to the current sink (enabling a metrics-only sink first
    /// when none is attached, so recording works without trace
    /// buffering) and returns a handle for dumping. Completed query
    /// traces are offered as span-tree exemplars; the recorder keeps the
    /// slowest plus every faulted or degraded one.
    ///
    /// [`FlightRecorder`]: teraphim_obs::FlightRecorder
    pub fn enable_flight_recorder(&mut self, capacity: usize) -> teraphim_obs::FlightRecorder {
        if !self.trace.is_enabled() {
            let registry = Arc::new(teraphim_obs::MetricsRegistry::new());
            self.set_trace_sink(TraceSink::metrics_only(registry));
        }
        let recorder = teraphim_obs::FlightRecorder::new(capacity);
        self.trace.attach_flight(recorder.clone());
        recorder
    }

    /// Tees the attached sink into a fresh [`MetricsRegistry`] and
    /// returns it. If no sink is attached a metrics-only sink (which
    /// never buffers events) is attached first, so long-running fleets
    /// can meter without accumulating traces. Every subsequent query
    /// updates the registry's rolling per-librarian and per-methodology
    /// counters and histograms with no further calls needed.
    ///
    /// [`MetricsRegistry`]: teraphim_obs::MetricsRegistry
    pub fn enable_metrics(&mut self) -> Arc<teraphim_obs::MetricsRegistry> {
        let registry = Arc::new(teraphim_obs::MetricsRegistry::new());
        if self.trace.is_enabled() {
            self.trace.tee_metrics(Arc::clone(&registry));
        } else {
            self.set_trace_sink(TraceSink::metrics_only(Arc::clone(&registry)));
        }
        registry
    }

    /// Polls every librarian over the admin `Stats` protocol and
    /// classifies the fleet with the default [`HealthPolicy`].
    pub fn fleet_health(&mut self) -> HealthReport {
        self.fleet_health_with(HealthPolicy::default())
    }

    /// [`Receptionist::fleet_health`] with an explicit policy. The
    /// server-reported rows are cross-checked against the client-side
    /// metrics registry when one is teed in, so a librarian the
    /// receptionist has watched time out or drop fan-outs is marked
    /// degraded even if it answers its own poll cleanly.
    pub fn fleet_health_with(&mut self, policy: HealthPolicy) -> HealthReport {
        let registry = self.trace.metrics();
        let mut report = health::poll_fleet(self.dispatch, &mut self.transports, policy);
        if let Some(registry) = registry {
            report.apply_client_observations(&registry.snapshot().counts, policy);
        }
        if let Some(cache) = self.cache.as_mut() {
            // Fold the poll into the cache's invalidation inputs: any
            // librarian whose index epoch moved, and any change in
            // which librarians are down, bumps the fleet generation.
            let mut failed = Vec::new();
            for row in &report.librarians {
                if row.state == HealthState::Down {
                    failed.push(row.librarian as usize);
                } else {
                    cache.observe_epoch(row.librarian as usize, row.epoch);
                }
            }
            cache.observe_failed(&failed);
        }
        report
    }

    /// The degradation policy applied by
    /// [`Receptionist::query_with_coverage`].
    pub fn degrade_policy(&self) -> DegradePolicy {
        self.degrade
    }

    /// Sets the degradation policy.
    pub fn set_degrade_policy(&mut self, policy: DegradePolicy) {
        self.degrade = policy;
    }

    /// Number of librarians.
    pub fn num_librarians(&self) -> usize {
        self.transports.len()
    }

    /// Chooses how the fan-out is issued: [`DispatchMode::Pipelined`]
    /// (the default; all librarians at once) or
    /// [`DispatchMode::Sequential`] (one at a time — the reference for
    /// tests and benchmarks). Rankings are identical in both; only
    /// elapsed time differs.
    pub fn set_dispatch_mode(&mut self, mode: DispatchMode) {
        self.dispatch = mode;
    }

    /// Hands out the next query id.
    fn next_id(&mut self) -> u32 {
        let id = self.next_query_id;
        self.next_query_id += 1;
        id
    }

    /// Runs `body` as one traced operation — `Begin`, the phase, `End`.
    /// Events recorded outside an operation are dropped by
    /// [`TraceSink::take_traces`], so every fan-out must sit inside one.
    fn in_op<R>(
        &mut self,
        op: &'static str,
        query_id: u32,
        k: usize,
        phase: Phase,
        body: impl FnOnce(&mut Self) -> R,
    ) -> R {
        self.trace.record(EventKind::Begin {
            op,
            methodology: None,
            query_id,
            k: k as u32,
        });
        self.trace.record(EventKind::PhaseStart { phase });
        let result = body(self);
        self.trace.record(EventKind::PhaseEnd { phase });
        self.trace.record(EventKind::End);
        result
    }

    /// All-or-nothing fan-out through the one dispatch primitive: the
    /// batch stops at the first failure, which becomes the error.
    fn fan_out_strict(
        &mut self,
        requests: Vec<Option<Message>>,
        on_reply: &mut dyn FnMut(usize, Message) -> Result<(), NetError>,
    ) -> Result<(), TeraphimError> {
        let failures = dispatch(
            self.dispatch,
            &mut self.transports,
            requests,
            &self.trace,
            true,
            on_reply,
        );
        match failures.into_iter().next() {
            Some((_, error)) => Err(error.into()),
            None => Ok(()),
        }
    }

    /// Sends `request` to every librarian and returns the replies in
    /// *librarian* order, for callers whose reply processing is
    /// order-sensitive even though the exchanges themselves may overlap
    /// (vocabulary interning assigns term ids in first-seen order; the
    /// grouped index's layout depends on subcollection order).
    fn ask_everyone(&mut self, request: Message) -> Result<Vec<Message>, TeraphimError> {
        let mut replies: Vec<Option<Message>> = vec![None; self.transports.len()];
        let requests = vec![Some(request); self.transports.len()];
        self.fan_out_strict(requests, &mut |lib, reply| {
            replies[lib] = Some(reply);
            Ok(())
        })?;
        Ok(replies.into_iter().flatten().collect())
    }

    /// Drops everything cached after the global state was rebuilt (CV
    /// query weights and CI candidate expansion both derive from it).
    fn global_state_rebuilt(&mut self) {
        if let Some(cache) = self.cache.as_mut() {
            cache.bump_generation();
        }
    }

    /// Fetches and merges every librarian's vocabulary and statistics —
    /// the Central Vocabulary preprocessing step.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn enable_cv(&mut self) -> Result<(), TeraphimError> {
        self.in_op(
            "enable_cv",
            0,
            0,
            Phase::VocabExchange,
            Self::enable_cv_inner,
        )
        .inspect(|_| self.global_state_rebuilt())
    }

    fn enable_cv_inner(&mut self) -> Result<(), TeraphimError> {
        let mut vocab = Vocabulary::new();
        let mut stats = CollectionStats::new();
        let mut selection = crate::selection::SelectionState::new();
        let mut total_docs = 0u64;
        for response in self.ask_everyone(Message::StatsRequest)? {
            match response {
                Message::StatsResponse {
                    num_docs,
                    term_freqs,
                } => {
                    total_docs += num_docs;
                    let mut local = CollectionStats::new();
                    local.set_num_docs(num_docs);
                    for (term, f_t) in term_freqs {
                        let id = vocab.intern(&term);
                        stats.add_doc_freq(id, f_t);
                        local.add_doc_freq(id, f_t);
                    }
                    selection.push_librarian(local);
                }
                other => return Err(unexpected("StatsRequest", &other).into()),
            }
        }
        stats.set_num_docs(total_docs);
        self.cv = Some(Arc::new(CvState {
            vocab,
            stats,
            selection,
        }));
        Ok(())
    }

    /// Fetches every librarian's index and builds the grouped central
    /// index — the Central Index preprocessing step.
    ///
    /// # Errors
    ///
    /// Propagates transport and index-decoding failures.
    pub fn enable_ci(&mut self, params: CiParams) -> Result<(), TeraphimError> {
        self.in_op("enable_ci", 0, 0, Phase::IndexExchange, |r| {
            r.enable_ci_inner(params)
        })
        .inspect(|_| self.global_state_rebuilt())
    }

    fn enable_ci_inner(&mut self, params: CiParams) -> Result<(), TeraphimError> {
        let mut indexes = Vec::with_capacity(self.transports.len());
        for response in self.ask_everyone(Message::IndexRequest)? {
            match response {
                Message::IndexResponse { index_bytes } => {
                    indexes.push(InvertedIndex::from_bytes(&index_bytes)?);
                }
                other => return Err(unexpected("IndexRequest", &other).into()),
            }
        }
        let refs: Vec<&InvertedIndex> = indexes.iter().collect();
        let grouped = GroupedIndex::build(&refs, params.group_size)?;
        self.ci = Some(Arc::new(CiState { grouped, params }));
        Ok(())
    }

    /// True if Central Vocabulary state is present.
    pub fn has_cv(&self) -> bool {
        self.cv.is_some()
    }

    /// True if Central Index state is present.
    pub fn has_ci(&self) -> bool {
        self.ci.is_some()
    }

    /// Size of the merged central vocabulary in bytes (the paper's
    /// "less than 10 Mb" figure), if CV is enabled.
    pub fn cv_vocabulary_bytes(&self) -> Option<usize> {
        self.cv
            .as_ref()
            .map(|cv| cv.vocab.serialized_len() + cv.stats.to_bytes().len())
    }

    /// Size of the grouped central index in bytes (the paper's "around
    /// 40 Mb" figure), if CI is enabled.
    pub fn ci_index_bytes(&self) -> Option<usize> {
        self.ci.as_ref().map(|ci| ci.grouped.index_bytes())
    }

    /// The grouped central index, if CI is enabled.
    pub fn ci_grouped_index(&self) -> Option<&GroupedIndex> {
        self.ci.as_ref().map(|ci| &ci.grouped)
    }

    /// Per-librarian transport counters, in librarian index order — the
    /// ground truth a trace's per-librarian `sent`/`reply` sums are
    /// checked against.
    pub fn per_librarian_traffic(&self) -> Vec<TrafficStats> {
        self.transports.iter().map(Transport::stats).collect()
    }

    /// Aggregate traffic across all librarian transports.
    pub fn traffic(&self) -> TrafficStats {
        let mut total = TrafficStats::default();
        for t in &self.transports {
            total.absorb(&t.stats());
        }
        total
    }

    /// Analyzes query text into `(term, f_qt)` string pairs.
    pub fn analyze_query(&self, query: &str) -> Vec<(String, u32)> {
        let mut counts: HashMap<String, u32> = HashMap::new();
        for term in self.analyzer.analyze(query) {
            *counts.entry(term).or_insert(0) += 1;
        }
        let mut entries: Vec<(String, u32)> = counts.into_iter().collect();
        entries.sort_unstable();
        entries
    }

    /// Evaluates a ranked query under `methodology`, returning the
    /// merged global top `k` (steps 1–3 of the paper's model).
    ///
    /// # Errors
    ///
    /// Returns [`TeraphimError::MissingGlobalState`] if the methodology's
    /// preprocessing step has not run, [`TeraphimError::BadParameters`]
    /// for invalid `k`/`k'` combinations, and transport failures
    /// otherwise.
    pub fn query(
        &mut self,
        methodology: Methodology,
        query: &str,
        k: usize,
    ) -> Result<Vec<GlobalHit>, TeraphimError> {
        let terms = self.analyze_query(query);
        let answer = self.ranked_query("query", methodology, terms, k, None, OnFailure::Surface)?;
        Ok(answer.hits)
    }

    /// The one ranked-query pipeline behind every ranked entry point:
    /// result-cache lookup, step 1 (build the sub-queries), steps 2–3
    /// (fan out and fold the rankings), the verdict on failed librarians
    /// per `on_failure`, result-cache insert — all inside one traced
    /// operation named `op`. `only` restricts the fan-out to the listed
    /// librarians; global weights still come from the full global state.
    fn ranked_query(
        &mut self,
        op: &'static str,
        methodology: Methodology,
        terms: Vec<(String, u32)>,
        k: usize,
        only: Option<&[usize]>,
        on_failure: OnFailure,
    ) -> Result<RankedAnswer, TeraphimError> {
        self.observe_routing();
        let query_id = self.next_id();
        self.trace.record(EventKind::Begin {
            op,
            methodology: Some(methodology.code()),
            query_id,
            k: k as u32,
        });
        let result = self.ranked_query_inner(methodology, query_id, terms, k, only, on_failure);
        self.trace.record(EventKind::End);
        result
    }

    fn ranked_query_inner(
        &mut self,
        methodology: Methodology,
        query_id: u32,
        terms: Vec<(String, u32)>,
        k: usize,
        only: Option<&[usize]>,
        on_failure: OnFailure,
    ) -> Result<RankedAnswer, TeraphimError> {
        // The key has no slot for a librarian restriction, so restricted
        // queries bypass the result cache altogether.
        let key = match (&self.cache, only) {
            (Some(_), None) => Some(ResultKey {
                terms: terms.clone(),
                code: methodology.code(),
                k,
                min_answered: match on_failure {
                    OnFailure::Surface => None,
                    OnFailure::Degrade => Some(self.degrade.min_answered),
                },
            }),
            _ => None,
        };
        if let (Some(cache), Some(key)) = (self.cache.as_mut(), key.as_ref()) {
            let lookup = cache.lookup_result(key);
            note_lookup(&self.trace, "results", &lookup);
            if let Lookup::Hit(answer) = lookup {
                return Ok(answer);
            }
        }
        let requests = self.rank_requests(methodology, query_id, terms, k, only)?;
        let mut answered: Vec<usize> = (0..requests.len())
            .filter(|&lib| requests[lib].is_some())
            .collect();
        let (hits, failures) = self.rank_fanout(
            query_id,
            requests,
            k,
            methodology == Methodology::CentralIndex,
            on_failure == OnFailure::Surface,
        );
        let mut failed = Vec::with_capacity(failures.len());
        for (lib, error) in failures {
            if on_failure == OnFailure::Surface {
                return Err(error.into());
            }
            failed.push(lib);
        }
        if let (Some(cache), Some(_)) = (self.cache.as_mut(), key.as_ref()) {
            // Must precede the insert: a changed casualty set — or a
            // recovery, which is what a strict success observes — bumps
            // the generation the new entry is stamped with.
            cache.observe_failed(&failed);
        }
        answered.retain(|lib| !failed.contains(lib));
        let coverage = Coverage {
            answered,
            docs_fraction: self.docs_fraction_excluding(&failed),
            failed,
        };
        if on_failure == OnFailure::Degrade {
            if self.trace.is_enabled() {
                self.trace.record(EventKind::Coverage {
                    answered: coverage.answered.iter().map(|&lib| lib as u32).collect(),
                    failed: coverage.failed.iter().map(|&lib| lib as u32).collect(),
                    docs_permille: coverage.docs_fraction.map(|f| (f * 1000.0).round() as u32),
                });
            }
            // The policy counts surviving librarians, not merely
            // contacted ones. A CI expansion only contacts librarians
            // holding candidates; the central index answers
            // *authoritatively* for the rest ("no candidates here"), so
            // an uncontacted librarian is covered, not missing.
            // `answered` in the coverage report still lists only
            // librarians that replied — this is purely the degradation
            // threshold.
            if self.transports.len() - coverage.failed.len() < self.degrade.min_answered {
                return Err(TeraphimError::InsufficientCoverage {
                    answered: coverage.answered.len(),
                    failed: coverage.failed.len(),
                });
            }
        }
        let answer = RankedAnswer { hits, coverage };
        if let (Some(key), Some(cache)) = (key, self.cache.as_mut()) {
            let evicted = cache.insert_result(key, answer.clone());
            note_evicted(&self.trace, "results", evicted);
        }
        Ok(answer)
    }

    /// Step 1: the per-librarian sub-queries for `methodology` — the same
    /// ranking request for everyone under CN and CV, per-librarian
    /// candidate lists under CI — with every librarian outside `only`
    /// (when given) left uncontacted.
    fn rank_requests(
        &mut self,
        methodology: Methodology,
        query_id: u32,
        terms: Vec<(String, u32)>,
        k: usize,
        only: Option<&[usize]>,
    ) -> Result<Vec<Option<Message>>, TeraphimError> {
        let mut requests = match methodology {
            Methodology::CentralNothing => {
                let request = Message::RankRequest {
                    query_id,
                    k: k as u32,
                    terms,
                };
                vec![Some(request); self.transports.len()]
            }
            Methodology::CentralVocabulary => {
                let request = Message::RankWeightedRequest {
                    query_id,
                    k: k as u32,
                    terms: self.cv_weights(&terms)?,
                };
                vec![Some(request); self.transports.len()]
            }
            Methodology::CentralIndex => self.ci_requests(query_id, &terms, k)?,
        };
        if let Some(only) = only {
            for (lib, request) in requests.iter_mut().enumerate() {
                if !only.contains(&lib) {
                    *request = None;
                }
            }
        }
        Ok(requests)
    }

    /// CV global query weights, consulting the term-statistics cache
    /// when one is enabled. The cache stores each term's *global
    /// document frequency* (or its absence from the merged
    /// vocabulary) and the weight itself is recomputed with
    /// [`similarity::w_qt`] on every use — the same call the uncached
    /// path makes, so cached weights are bit-identical.
    fn cv_weights(&mut self, terms: &[(String, u32)]) -> Result<Vec<(String, f64)>, TeraphimError> {
        let cv = self
            .cv
            .as_ref()
            .ok_or(TeraphimError::MissingGlobalState("central vocabulary"))?;
        let Some(cache) = self.cache.as_mut() else {
            return Ok(global_weights(&cv.vocab, &cv.stats, terms));
        };
        let mut weighted = Vec::new();
        for (term, f_qt) in terms {
            let lookup = cache.lookup_term(term);
            note_lookup(&self.trace, "stats", &lookup);
            let doc_freq = match lookup {
                Lookup::Hit(doc_freq) => doc_freq,
                Lookup::Miss | Lookup::Stale => {
                    let doc_freq = cv.vocab.term_id(term).map(|id| cv.stats.doc_freq(id));
                    let evicted = cache.insert_term(term.clone(), doc_freq);
                    note_evicted(&self.trace, "stats", evicted);
                    doc_freq
                }
            };
            if let Some(doc_freq) = doc_freq {
                let w = similarity::w_qt(u64::from(*f_qt), cv.stats.num_docs(), doc_freq);
                if w > 0.0 {
                    weighted.push((term.clone(), w));
                }
            }
        }
        Ok(weighted)
    }

    /// Steps 2–3: fans `requests` out to the librarians and folds each
    /// ranking reply into the running merged top `k` *as it arrives* —
    /// merging overlaps the slower librarians' work. `merge_rankings` is
    /// a total order (score, doc, librarian), so the result is identical
    /// no matter which librarian answers first. Returns the merged hits
    /// over the librarians that answered plus the per-librarian failures
    /// in index order; a garbled or misdirected reply fails its
    /// librarian like a transport error does.
    fn rank_fanout(
        &mut self,
        query_id: u32,
        requests: Vec<Option<Message>>,
        k: usize,
        scored: bool,
        stop_at_first_failure: bool,
    ) -> (Vec<GlobalHit>, Vec<(usize, NetError)>) {
        let trace = self.trace.clone();
        trace.record(EventKind::PhaseStart {
            phase: Phase::RankFanout,
        });
        let caching = self.cache.is_some();
        let mut epochs: Vec<(usize, u64)> = Vec::new();
        let mut merged: Vec<(ScoredDoc, usize)> = Vec::new();
        let mut folded = 0u64;
        let failures = dispatch(
            self.dispatch,
            &mut self.transports,
            requests,
            &trace,
            stop_at_first_failure,
            &mut |lib, response| {
                record_scored(&trace, lib, &response);
                if caching {
                    if let Message::RankResponse { epoch, .. }
                    | Message::ScoreResponse { epoch, .. } = &response
                    {
                        epochs.push((lib, *epoch));
                    }
                }
                let entries = ranking_entries(response, query_id, lib, scored)?;
                folded += entries.len() as u64;
                fold_ranking(&mut merged, entries, k);
                Ok(())
            },
        );
        trace.record(EventKind::Merge {
            entries: folded,
            k: k as u32,
        });
        trace.record(EventKind::PhaseEnd {
            phase: Phase::RankFanout,
        });
        self.observe_epochs(epochs);
        (into_global_hits(merged), failures)
    }

    /// Folds librarian-reported index epochs gathered during a fan-out
    /// into the cache's invalidation state.
    fn observe_epochs(&mut self, epochs: Vec<(usize, u64)>) {
        if let Some(cache) = self.cache.as_mut() {
            for (lib, epoch) in epochs {
                cache.observe_epoch(lib, epoch);
            }
        }
    }

    /// Like [`Receptionist::query`], but a failed librarian degrades the
    /// answer instead of sinking it: surviving rankings are merged and
    /// the result carries explicit [`Coverage`] metadata. CN and CV
    /// merge whatever arrives; CI re-ranks with the reachable candidate
    /// owners. Only when fewer than [`DegradePolicy::min_answered`]
    /// librarians answer does the query fail, with the typed
    /// [`TeraphimError::InsufficientCoverage`].
    ///
    /// The merged ranking over the survivors is *byte-identical* to the
    /// ranking the same receptionist would compute if only those
    /// librarians were queried: global weights (CV/CI) come from the
    /// receptionist's preprocessing state, which is unaffected by a
    /// query-time outage.
    ///
    /// # Errors
    ///
    /// Returns [`TeraphimError::MissingGlobalState`] /
    /// [`TeraphimError::BadParameters`] exactly as [`Receptionist::query`]
    /// does, and [`TeraphimError::InsufficientCoverage`] when too few
    /// librarians survive. Individual librarian failures are *not*
    /// errors; they appear in [`Coverage::failed`].
    pub fn query_with_coverage(
        &mut self,
        methodology: Methodology,
        query: &str,
        k: usize,
    ) -> Result<RankedAnswer, TeraphimError> {
        let terms = self.analyze_query(query);
        self.ranked_query(
            "query_with_coverage",
            methodology,
            terms,
            k,
            None,
            OnFailure::Degrade,
        )
    }

    /// Fraction of the global document count held by librarians *not*
    /// in `failed` — computable only once CV preprocessing has gathered
    /// per-librarian collection sizes.
    fn docs_fraction_excluding(&self, failed: &[usize]) -> Option<f64> {
        let cv = self.cv.as_ref()?;
        let sizes = cv.selection.librarian_num_docs();
        let total: u64 = sizes.iter().sum();
        if total == 0 {
            return Some(1.0);
        }
        let lost: u64 = failed
            .iter()
            .filter_map(|&lib| sizes.get(lib).copied())
            .sum();
        Some(1.0 - lost as f64 / total as f64)
    }

    /// Evaluates a CN or CV query against an explicit subset of
    /// librarians — the reference for what a degraded merge *should*
    /// produce: [`Receptionist::query_with_coverage`] with librarian `f`
    /// failed must return byte-identical hits to `query_subset` over all
    /// librarians except `f`. (Global weights still come from the full
    /// CV state; only the fan-out is restricted.)
    ///
    /// # Errors
    ///
    /// Returns [`TeraphimError::MissingGlobalState`] for CV without
    /// preprocessing, [`TeraphimError::BadParameters`] for CI (whose
    /// candidate expansion is not subset-definable), and transport
    /// failures otherwise.
    pub fn query_subset(
        &mut self,
        methodology: Methodology,
        query: &str,
        k: usize,
        libs: &[usize],
    ) -> Result<Vec<GlobalHit>, TeraphimError> {
        if methodology == Methodology::CentralIndex {
            return Err(TeraphimError::BadParameters(
                "query_subset supports CentralNothing and CentralVocabulary only".into(),
            ));
        }
        let terms = self.analyze_query(query);
        let answer = self.ranked_query(
            "query_subset",
            methodology,
            terms,
            k,
            Some(libs),
            OnFailure::Surface,
        )?;
        Ok(answer.hits)
    }

    /// Builds the per-librarian candidate-scoring requests for a CI
    /// query: ranks groups on the central grouped index, expands the top
    /// `k'` groups into per-librarian candidate lists, and attaches
    /// document-level global weights so librarian scores are globally
    /// comparable. Librarians owning no candidates get `None`.
    fn ci_requests(
        &self,
        query_id: u32,
        terms: &[(String, u32)],
        k: usize,
    ) -> Result<Vec<Option<Message>>, TeraphimError> {
        let ci = self
            .ci
            .as_ref()
            .ok_or(TeraphimError::MissingGlobalState("central index"))?;
        if !ci.params.valid_for(k) {
            return Err(TeraphimError::BadParameters(format!(
                "k' = {} with G = {} cannot produce k = {k} documents",
                ci.params.k_prime, ci.params.group_size
            )));
        }
        self.trace.record(EventKind::PhaseStart {
            phase: Phase::GroupRank,
        });
        // Rank groups on the central grouped index, treating groups as
        // documents (group-level statistics for the group ranking).
        let group_index = ci.grouped.group_index();
        let group_terms: Vec<(teraphim_index::TermId, u32)> = terms
            .iter()
            .filter_map(|(t, f)| ci.grouped.vocab().term_id(t).map(|id| (id, *f)))
            .collect();
        let group_weights = ranking::local_weights(group_index, &group_terms);
        let top_groups = ranking::rank(group_index, &group_weights, ci.params.k_prime);
        let group_ids: Vec<u32> = top_groups.iter().map(|g| g.doc).collect();

        // Expand groups into per-librarian candidate lists.
        let expanded = ci.grouped.expand_groups(&group_ids);
        if self.trace.is_enabled() {
            let mut candidates: Vec<LibCandidates> = expanded
                .iter()
                .map(|(part, docs)| LibCandidates {
                    librarian: *part,
                    docs: docs.clone(),
                })
                .collect();
            candidates.sort_by_key(|c| c.librarian);
            self.trace.record(EventKind::Expansion {
                k_prime: ci.params.k_prime as u32,
                group_size: ci.params.group_size,
                groups: group_ids.clone(),
                candidates,
            });
        }

        let doc_weights = global_weights_from_grouped(&ci.grouped, terms);

        let mut requests: Vec<Option<Message>> = Vec::new();
        requests.resize_with(self.transports.len(), || None);
        for (part, candidates) in expanded {
            requests[part as usize] = Some(Message::ScoreCandidatesRequest {
                query_id,
                terms: doc_weights.clone(),
                candidates,
            });
        }
        self.trace.record(EventKind::PhaseEnd {
            phase: Phase::GroupRank,
        });
        Ok(requests)
    }

    /// Ranks librarians by GlOSS-style goodness for a query (requires CV
    /// state). Best first.
    ///
    /// # Errors
    ///
    /// Returns [`TeraphimError::MissingGlobalState`] without CV state.
    pub fn rank_librarians(&self, query: &str) -> Result<Vec<(usize, f64)>, TeraphimError> {
        let cv = self
            .cv
            .as_ref()
            .ok_or(TeraphimError::MissingGlobalState("central vocabulary"))?;
        let terms = self.analyze_query(query);
        Ok(cv.selection.rank_librarians(&cv.vocab, &cv.stats, &terms))
    }

    /// Central Vocabulary evaluation restricted to the `n_libs` best
    /// librarians for this query — the collection-selection refinement
    /// the paper's conclusion calls for ("net savings are possible only
    /// if ... many of the subcollections can be neglected").
    ///
    /// Returns the merged ranking plus the librarian indices queried.
    ///
    /// # Errors
    ///
    /// Returns [`TeraphimError::MissingGlobalState`] without CV state,
    /// and transport failures otherwise.
    pub fn query_selected(
        &mut self,
        query: &str,
        k: usize,
        n_libs: usize,
    ) -> Result<(Vec<GlobalHit>, Vec<usize>), TeraphimError> {
        let cv = self
            .cv
            .as_ref()
            .ok_or(TeraphimError::MissingGlobalState("central vocabulary"))?;
        let terms = self.analyze_query(query);
        let selected = cv.selection.select(&cv.vocab, &cv.stats, &terms, n_libs);
        let answer = self.ranked_query(
            "query_selected",
            Methodology::CentralVocabulary,
            terms,
            k,
            Some(&selected),
            OnFailure::Surface,
        )?;
        Ok((answer.hits, selected))
    }

    /// Evaluates a Boolean query at every librarian; "the overall result
    /// set is simply the union of the individual result sets" (§1), so
    /// no global information or score merging is needed.
    ///
    /// Returns `(librarian, doc)` pairs in librarian-then-document
    /// order.
    ///
    /// # Errors
    ///
    /// Propagates transport failures and per-librarian syntax errors.
    pub fn boolean_query(&mut self, expr: &str) -> Result<Vec<(usize, DocId)>, TeraphimError> {
        let query_id = self.next_id();
        self.in_op("boolean", query_id, 0, Phase::Boolean, |r| {
            r.boolean_inner(query_id, expr)
        })
    }

    fn boolean_inner(
        &mut self,
        query_id: u32,
        expr: &str,
    ) -> Result<Vec<(usize, DocId)>, TeraphimError> {
        let request = Message::BooleanRequest {
            query_id,
            expr: expr.to_owned(),
        };
        // Collect into per-librarian slots so the documented
        // librarian-then-document order holds under concurrent arrival.
        let mut per_lib: Vec<Vec<DocId>> = vec![Vec::new(); self.transports.len()];
        let requests = vec![Some(request); self.transports.len()];
        self.fan_out_strict(requests, &mut |lib, response| match response {
            Message::BooleanResponse {
                query_id: qid,
                docs,
            } if qid == query_id => {
                per_lib[lib] = docs;
                Ok(())
            }
            other => Err(unexpected("BooleanRequest", &other)),
        })?;
        let mut result = Vec::new();
        for (lib, docs) in per_lib.into_iter().enumerate() {
            result.extend(docs.into_iter().map(|d| (lib, d)));
        }
        Ok(result)
    }

    /// Fetches the documents of `hits` (step 4). Documents travel
    /// compressed unless `plain` is set.
    ///
    /// Results preserve the order of `hits`.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn fetch(
        &mut self,
        hits: &[GlobalHit],
        plain: bool,
    ) -> Result<Vec<FetchedDoc>, TeraphimError> {
        self.observe_routing();
        let query_id = self.next_id();
        self.in_op("fetch", query_id, hits.len(), Phase::DocFetch, |r| {
            r.fetch_inner(query_id, hits, plain)
        })
    }

    fn fetch_inner(
        &mut self,
        query_id: u32,
        hits: &[GlobalHit],
        plain: bool,
    ) -> Result<Vec<FetchedDoc>, TeraphimError> {
        // Probe the answer-document cache once per distinct hit, in
        // hit order (determinism: cache recency and eviction follow
        // the order the caller asked for the documents).
        let mut cached: HashMap<(usize, u32), (String, Vec<u8>)> = HashMap::new();
        if let Some(cache) = self.cache.as_mut() {
            let mut probed: HashSet<(usize, u32)> = HashSet::new();
            for hit in hits {
                if !probed.insert((hit.librarian, hit.doc)) {
                    continue;
                }
                let lookup = cache.lookup_doc(&(hit.librarian, hit.doc, plain));
                note_lookup(&self.trace, "docs", &lookup);
                if let Lookup::Hit(body) = lookup {
                    cached.insert((hit.librarian, hit.doc), body);
                }
            }
        }
        // Group the cache misses per librarian, preserving hit order
        // positions.
        let mut per_lib: HashMap<usize, Vec<u32>> = HashMap::new();
        for hit in hits {
            if !cached.contains_key(&(hit.librarian, hit.doc)) {
                per_lib.entry(hit.librarian).or_default().push(hit.doc);
            }
        }
        let mut requests: Vec<Option<Message>> = vec![None; self.transports.len()];
        for (lib, docs) in per_lib {
            requests[lib] = Some(Message::FetchDocsRequest {
                query_id,
                docs,
                plain,
            });
        }
        // Responses land in a map keyed by (librarian, doc), so arrival
        // order is irrelevant; output order is re-imposed from `hits`.
        let mut fetched: HashMap<(usize, u32), (String, Vec<u8>)> = HashMap::new();
        self.fan_out_strict(requests, &mut |lib, response| match response {
            Message::DocsResponse { docs, .. } => {
                for (doc, docno, bytes) in docs {
                    fetched.insert((lib, doc), (docno, bytes));
                }
                Ok(())
            }
            other => Err(unexpected("FetchDocsRequest", &other)),
        })?;
        if let Some(cache) = self.cache.as_mut() {
            // Insert newly fetched bodies in hit order, again for
            // deterministic recency.
            let mut inserted: HashSet<(usize, u32)> = HashSet::new();
            for hit in hits {
                if !inserted.insert((hit.librarian, hit.doc)) {
                    continue;
                }
                if let Some((docno, bytes)) = fetched.get(&(hit.librarian, hit.doc)) {
                    let evicted = cache.insert_doc(
                        (hit.librarian, hit.doc, plain),
                        docno.clone(),
                        bytes.clone(),
                    );
                    note_evicted(&self.trace, "docs", evicted);
                }
            }
        }
        fetched.extend(cached);
        hits.iter()
            .map(|hit| {
                let (docno, bytes) = fetched
                    .get(&(hit.librarian, hit.doc))
                    .cloned()
                    .ok_or(TeraphimError::MissingGlobalState("document not returned"))?;
                let body_bytes = bytes.len();
                let text = if plain {
                    Some(String::from_utf8(bytes).map_err(|_| {
                        TeraphimError::Net(teraphim_net::NetError::Corrupt("document not UTF-8"))
                    })?)
                } else {
                    None
                };
                Ok(FetchedDoc {
                    librarian: hit.librarian,
                    doc: hit.doc,
                    docno,
                    text,
                    body_bytes,
                })
            })
            .collect()
    }

    /// Resolves the external identifiers of `hits` via header requests
    /// (what an answer screen of 20 title lines needs, and what
    /// effectiveness evaluation uses).
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn headers(&mut self, hits: &[GlobalHit]) -> Result<Vec<String>, TeraphimError> {
        let query_id = self.next_id();
        self.in_op("headers", query_id, hits.len(), Phase::HeaderFetch, |r| {
            r.headers_inner(query_id, hits)
        })
    }

    fn headers_inner(
        &mut self,
        query_id: u32,
        hits: &[GlobalHit],
    ) -> Result<Vec<String>, TeraphimError> {
        let mut per_lib: HashMap<usize, Vec<u32>> = HashMap::new();
        for hit in hits {
            per_lib.entry(hit.librarian).or_default().push(hit.doc);
        }
        let mut requests: Vec<Option<Message>> = vec![None; self.transports.len()];
        for (lib, docs) in per_lib {
            requests[lib] = Some(Message::FetchHeadersRequest { query_id, docs });
        }
        let mut resolved: HashMap<(usize, u32), String> = HashMap::new();
        self.fan_out_strict(requests, &mut |lib, response| match response {
            Message::HeadersResponse { headers, .. } => {
                for (doc, docno) in headers {
                    resolved.insert((lib, doc), docno);
                }
                Ok(())
            }
            other => Err(unexpected("FetchHeadersRequest", &other)),
        })?;
        hits.iter()
            .map(|hit| {
                resolved
                    .get(&(hit.librarian, hit.doc))
                    .cloned()
                    .ok_or(TeraphimError::MissingGlobalState("header not returned"))
            })
            .collect()
    }

    /// Convenience for evaluation: query then resolve docnos.
    ///
    /// # Errors
    ///
    /// Propagates failures from [`Receptionist::query`] and
    /// [`Receptionist::headers`].
    pub fn ranked_docnos(
        &mut self,
        methodology: Methodology,
        query: &str,
        k: usize,
    ) -> Result<Vec<String>, TeraphimError> {
        let hits = self.query(methodology, query, k)?;
        self.headers(&hits)
    }
}

/// Computes global query weights from a merged vocabulary/statistics
/// pair, dropping terms with global `f_t == 0`.
pub(crate) fn global_weights(
    vocab: &Vocabulary,
    stats: &CollectionStats,
    terms: &[(String, u32)],
) -> Vec<(String, f64)> {
    terms
        .iter()
        .filter_map(|(term, f_qt)| {
            let id = vocab.term_id(term)?;
            let w = similarity::w_qt(u64::from(*f_qt), stats.num_docs(), stats.doc_freq(id));
            (w > 0.0).then(|| (term.clone(), w))
        })
        .collect()
}

/// Same, from a grouped index's document-level statistics.
pub(crate) fn global_weights_from_grouped(
    grouped: &GroupedIndex,
    terms: &[(String, u32)],
) -> Vec<(String, f64)> {
    terms
        .iter()
        .filter_map(|(term, f_qt)| {
            let id = grouped.vocab().term_id(term)?;
            let w = similarity::w_qt(
                u64::from(*f_qt),
                grouped.total_docs(),
                grouped.doc_stats().doc_freq(id),
            );
            (w > 0.0).then(|| (term.clone(), w))
        })
        .collect()
}

/// Records the trace event for a cache probe's outcome.
fn note_lookup<V>(trace: &TraceSink, cache: &'static str, outcome: &Lookup<V>) {
    if trace.is_enabled() {
        trace.record(match outcome {
            Lookup::Hit(_) => EventKind::CacheHit { cache },
            Lookup::Miss => EventKind::CacheMiss {
                cache,
                stale: false,
            },
            Lookup::Stale => EventKind::CacheMiss { cache, stale: true },
        });
    }
}

/// Records the trace event for entries evicted by a cache insert.
fn note_evicted(trace: &TraceSink, cache: &'static str, evicted: u64) {
    if evicted > 0 && trace.is_enabled() {
        trace.record(EventKind::CacheEvict {
            cache,
            entries: evicted as u32,
        });
    }
}

/// Records a `scored` event for CI candidate-scoring replies: how many
/// candidates the librarian scored and how many postings it decoded doing
/// so. Other reply kinds record nothing.
fn record_scored(trace: &TraceSink, lib: usize, response: &Message) {
    if trace.is_enabled() {
        if let Message::ScoreResponse {
            entries,
            postings_decoded,
            ..
        } = response
        {
            trace.record(EventKind::Scored {
                librarian: lib as u32,
                candidates: entries.len() as u32,
                postings: *postings_decoded,
            });
        }
    }
}

/// Extracts ranking entries from a response — a `ScoreResponse` when
/// the request was a CI candidate-scoring one (`scored`), a
/// `RankResponse` otherwise — tagging each with the librarian. A wrong
/// variant or a mismatched query id — a garbled or misdirected reply —
/// is a *permanent* failure of that librarian for this query: the data
/// cannot be trusted, so it must not be merged.
fn ranking_entries(
    response: Message,
    query_id: u32,
    lib: usize,
    scored: bool,
) -> Result<Vec<(ScoredDoc, usize)>, NetError> {
    let entries = match response {
        Message::RankResponse {
            query_id: qid,
            entries,
            ..
        } if !scored && qid == query_id => entries,
        Message::ScoreResponse {
            query_id: qid,
            entries,
            ..
        } if scored && qid == query_id => entries,
        other if scored => {
            return Err(unexpected("ScoreCandidatesRequest", &other));
        }
        other => {
            return Err(NetError::Remote(format!(
                "unexpected ranking response: {other:?}"
            )))
        }
    };
    Ok(entries
        .into_iter()
        .map(|(doc, score)| (ScoredDoc { doc, score }, lib))
        .collect())
}

/// Folds one librarian's ranking into the running merged top `k`,
/// "accepting at face value all supplied similarity values". Because
/// `merge_rankings` imposes a total order, folding lists one at a time —
/// in whatever order they arrive — produces the same top `k` as merging
/// them all at once.
fn fold_ranking(merged: &mut Vec<(ScoredDoc, usize)>, entries: Vec<(ScoredDoc, usize)>, k: usize) {
    let prev = std::mem::take(merged);
    *merged = ranking::merge_rankings(&[prev, entries], k);
}

/// Converts a merged `(score, librarian)` list into public hits.
fn into_global_hits(merged: Vec<(ScoredDoc, usize)>) -> Vec<GlobalHit> {
    merged
        .into_iter()
        .map(|(scored, lib)| GlobalHit {
            librarian: lib,
            doc: scored.doc,
            score: scored.score,
        })
        .collect()
}

/// A response of the wrong variant for the request that was sent.
fn unexpected(request_kind: &str, other: &Message) -> NetError {
    NetError::Remote(format!("unexpected response to {request_kind}: {other:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::librarian::Librarian;
    use teraphim_net::InProcTransport;

    fn receptionist() -> Receptionist<InProcTransport<Librarian>> {
        let libs = vec![
            Librarian::from_texts(
                "A",
                &[
                    ("A-1", "the cat sat on the mat"),
                    ("A-2", "cats and dogs in the rain"),
                    ("A-3", "compression of inverted files and indexes"),
                ],
            ),
            Librarian::from_texts(
                "B",
                &[
                    ("B-1", "dogs chase cats up trees"),
                    ("B-2", "distributed information retrieval systems"),
                    ("B-3", "the dog slept"),
                ],
            ),
        ];
        let transports = libs.into_iter().map(InProcTransport::new).collect();
        Receptionist::new(transports, Analyzer::default())
    }

    #[test]
    fn cn_queries_need_no_setup() {
        let mut r = receptionist();
        let hits = r.query(Methodology::CentralNothing, "cat dog", 4).unwrap();
        assert!(!hits.is_empty());
        assert!(hits.len() <= 4);
        // Scores non-increasing.
        for pair in hits.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn cv_requires_enable() {
        let mut r = receptionist();
        let err = r
            .query(Methodology::CentralVocabulary, "cat", 3)
            .unwrap_err();
        assert!(matches!(err, TeraphimError::MissingGlobalState(_)));
        r.enable_cv().unwrap();
        let hits = r.query(Methodology::CentralVocabulary, "cat", 3).unwrap();
        assert!(!hits.is_empty());
        assert!(r.cv_vocabulary_bytes().unwrap() > 0);
    }

    #[test]
    fn ci_requires_enable_and_valid_params() {
        let mut r = receptionist();
        let err = r.query(Methodology::CentralIndex, "cat", 3).unwrap_err();
        assert!(matches!(err, TeraphimError::MissingGlobalState(_)));
        r.enable_ci(CiParams {
            group_size: 2,
            k_prime: 1,
        })
        .unwrap();
        // k=3 > k'*G=2 is invalid.
        let err = r.query(Methodology::CentralIndex, "cat", 3).unwrap_err();
        assert!(matches!(err, TeraphimError::BadParameters(_)));
        let hits = r.query(Methodology::CentralIndex, "cat", 2).unwrap();
        assert!(hits.len() <= 2);
    }

    #[test]
    fn ci_with_ample_k_prime_finds_matches() {
        let mut r = receptionist();
        r.enable_ci(CiParams {
            group_size: 2,
            k_prime: 10,
        })
        .unwrap();
        let hits = r.query(Methodology::CentralIndex, "cat", 6).unwrap();
        assert!(!hits.is_empty());
        assert!(hits[0].score > 0.0);
        assert!(r.ci_index_bytes().unwrap() > 0);
    }

    #[test]
    fn headers_resolve_docnos() {
        let mut r = receptionist();
        let hits = r
            .query(Methodology::CentralNothing, "compression", 2)
            .unwrap();
        let docnos = r.headers(&hits).unwrap();
        assert_eq!(docnos.len(), hits.len());
        assert_eq!(docnos[0], "A-3");
    }

    #[test]
    fn fetch_plain_returns_text() {
        let mut r = receptionist();
        let hits = r
            .query(Methodology::CentralNothing, "retrieval", 1)
            .unwrap();
        let docs = r.fetch(&hits, true).unwrap();
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0].docno, "B-2");
        assert_eq!(
            docs[0].text.as_deref(),
            Some("distributed information retrieval systems")
        );
    }

    #[test]
    fn fetch_compressed_is_smaller() {
        let mut r = receptionist();
        let hits = r.query(Methodology::CentralNothing, "cat mat", 1).unwrap();
        let plain = r.fetch(&hits, true).unwrap();
        let compressed = r.fetch(&hits, false).unwrap();
        assert!(compressed[0].text.is_none());
        assert!(compressed[0].body_bytes < plain[0].body_bytes);
    }

    #[test]
    fn traffic_accumulates() {
        let mut r = receptionist();
        assert_eq!(r.traffic().round_trips, 0);
        r.query(Methodology::CentralNothing, "cat", 2).unwrap();
        // One round trip per librarian.
        assert_eq!(r.traffic().round_trips, 2);
        assert!(r.traffic().total_bytes() > 0);
    }

    #[test]
    fn unknown_query_terms_give_empty_ranking() {
        let mut r = receptionist();
        let hits = r.query(Methodology::CentralNothing, "zyzzyva", 5).unwrap();
        assert!(hits.is_empty());
    }

    #[test]
    fn selection_requires_cv_and_restricts_librarians() {
        let mut r = receptionist();
        assert!(r.rank_librarians("compression").is_err());
        r.enable_cv().unwrap();
        // "compression inverted" lives only at librarian 0 (A-3).
        let ranked = r.rank_librarians("compression inverted").unwrap();
        assert_eq!(ranked[0].0, 0);
        assert!(ranked[0].1 > ranked[1].1);

        let (hits, used) = r.query_selected("compression inverted", 5, 1).unwrap();
        assert_eq!(used, vec![0]);
        assert!(hits.iter().all(|h| h.librarian == 0));
        // Selecting all librarians reproduces full CV.
        let (all_hits, used) = r.query_selected("compression inverted", 5, 2).unwrap();
        let full = r
            .query(Methodology::CentralVocabulary, "compression inverted", 5)
            .unwrap();
        assert_eq!(used.len(), 2);
        assert_eq!(all_hits.len(), full.len());
        for (a, b) in all_hits.iter().zip(&full) {
            assert_eq!((a.librarian, a.doc), (b.librarian, b.doc));
            assert!((a.score - b.score).abs() < 1e-12);
        }
    }

    #[test]
    fn boolean_queries_union_across_librarians() {
        let mut r = receptionist();
        let hits = r.boolean_query("cat AND dog").unwrap();
        // A-2 ("cats and dogs...") and B-1 ("dogs chase cats...").
        assert_eq!(hits, vec![(0, 1), (1, 0)]);
        let none = r.boolean_query("cat AND compress AND retriev").unwrap();
        assert!(none.is_empty());
        assert!(r.boolean_query("cat AND (dog").is_err());
    }

    #[test]
    fn ranked_docnos_convenience() {
        let mut r = receptionist();
        r.enable_cv().unwrap();
        let docnos = r
            .ranked_docnos(Methodology::CentralVocabulary, "dog", 3)
            .unwrap();
        assert!(!docnos.is_empty());
        assert!(docnos
            .iter()
            .all(|d| d.starts_with('A') || d.starts_with('B')));
    }

    fn librarians() -> Vec<Librarian> {
        vec![
            Librarian::from_texts(
                "A",
                &[
                    ("A-1", "the cat sat on the mat"),
                    ("A-2", "cats and dogs in the rain"),
                    ("A-3", "compression of inverted files and indexes"),
                ],
            ),
            Librarian::from_texts(
                "B",
                &[
                    ("B-1", "dogs chase cats up trees"),
                    ("B-2", "distributed information retrieval systems"),
                    ("B-3", "the dog slept"),
                ],
            ),
        ]
    }

    /// The two-librarian fixture with a fault plan wrapped around each
    /// librarian's transport.
    fn faulty_receptionist(
        plans: Vec<teraphim_net::FaultPlan>,
    ) -> Receptionist<teraphim_net::FaultyTransport<InProcTransport<Librarian>>> {
        let transports = librarians()
            .into_iter()
            .zip(plans)
            .map(|(lib, plan)| teraphim_net::FaultyTransport::new(InProcTransport::new(lib), plan))
            .collect();
        Receptionist::new(transports, Analyzer::default())
    }

    #[test]
    fn coverage_is_complete_when_everyone_answers() {
        let mut r = receptionist();
        r.enable_cv().unwrap();
        let strict = r
            .query(Methodology::CentralVocabulary, "cat dog", 4)
            .unwrap();
        let answer = r
            .query_with_coverage(Methodology::CentralVocabulary, "cat dog", 4)
            .unwrap();
        assert!(answer.coverage.is_complete());
        assert_eq!(answer.coverage.answered, vec![0, 1]);
        assert!(answer.coverage.failed.is_empty());
        assert_eq!(answer.coverage.docs_fraction, Some(1.0));
        assert_eq!(answer.hits.len(), strict.len());
        for (a, b) in answer.hits.iter().zip(&strict) {
            assert_eq!((a.librarian, a.doc), (b.librarian, b.doc));
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn dead_librarian_degrades_cn_and_cv_instead_of_erroring() {
        use teraphim_net::FaultPlan;
        for methodology in [Methodology::CentralNothing, Methodology::CentralVocabulary] {
            // Librarian 0 dies after CV setup traffic (request 0 is the
            // StatsRequest).
            let mut r = faulty_receptionist(vec![FaultPlan::new().fail_from(1), FaultPlan::new()]);
            r.enable_cv().unwrap();
            // Strict query fails...
            assert!(r.query(methodology, "cat dog", 4).is_err());
            // ...degraded query answers from librarian 1 alone.
            let answer = r.query_with_coverage(methodology, "cat dog", 4).unwrap();
            assert!(answer.coverage.is_degraded());
            assert_eq!(answer.coverage.answered, vec![1]);
            assert_eq!(answer.coverage.failed, vec![0]);
            assert_eq!(answer.coverage.docs_fraction, Some(0.5));
            assert!(!answer.hits.is_empty());
            assert!(answer.hits.iter().all(|h| h.librarian == 1));
        }
    }

    #[test]
    fn degraded_merge_equals_subset_query() {
        use teraphim_net::FaultPlan;
        let mut degraded =
            faulty_receptionist(vec![FaultPlan::new().fail_from(1), FaultPlan::new()]);
        degraded.enable_cv().unwrap();
        let answer = degraded
            .query_with_coverage(Methodology::CentralVocabulary, "cat dog compression", 6)
            .unwrap();

        let mut oracle = receptionist();
        oracle.enable_cv().unwrap();
        let subset = oracle
            .query_subset(
                Methodology::CentralVocabulary,
                "cat dog compression",
                6,
                &[1],
            )
            .unwrap();
        assert_eq!(answer.hits.len(), subset.len());
        for (a, b) in answer.hits.iter().zip(&subset) {
            assert_eq!((a.librarian, a.doc), (b.librarian, b.doc));
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn all_librarians_dead_is_insufficient_coverage() {
        use teraphim_net::FaultPlan;
        let mut r = faulty_receptionist(vec![
            FaultPlan::new().fail_from(0),
            FaultPlan::new().fail_from(0),
        ]);
        let err = r
            .query_with_coverage(Methodology::CentralNothing, "cat", 3)
            .unwrap_err();
        assert!(matches!(
            err,
            TeraphimError::InsufficientCoverage {
                answered: 0,
                failed: 2
            }
        ));
    }

    #[test]
    fn degrade_policy_can_require_full_coverage() {
        use teraphim_net::FaultPlan;
        let mut r = faulty_receptionist(vec![FaultPlan::new().fail_from(0), FaultPlan::new()]);
        r.set_degrade_policy(DegradePolicy { min_answered: 2 });
        assert_eq!(r.degrade_policy().min_answered, 2);
        let err = r
            .query_with_coverage(Methodology::CentralNothing, "cat", 3)
            .unwrap_err();
        assert!(matches!(
            err,
            TeraphimError::InsufficientCoverage {
                answered: 1,
                failed: 1
            }
        ));
    }

    #[test]
    fn ci_degrades_to_reachable_candidate_owners() {
        use teraphim_net::FaultPlan;
        // Librarian 0 dies after the IndexRequest (its request 0).
        let mut r = faulty_receptionist(vec![FaultPlan::new().fail_from(1), FaultPlan::new()]);
        r.enable_ci(CiParams {
            group_size: 2,
            k_prime: 10,
        })
        .unwrap();
        let answer = r
            .query_with_coverage(Methodology::CentralIndex, "cat dog", 6)
            .unwrap();
        assert!(answer.coverage.is_degraded());
        assert_eq!(answer.coverage.failed, vec![0]);
        assert!(answer.hits.iter().all(|h| h.librarian == 1));
        // No CV state: the docs fraction is unknown.
        assert_eq!(answer.coverage.docs_fraction, None);
    }

    #[test]
    fn garbled_response_counts_as_failed_librarian() {
        use teraphim_net::FaultPlan;
        let mut r = faulty_receptionist(vec![FaultPlan::new().garble_nth(0), FaultPlan::new()]);
        let answer = r
            .query_with_coverage(Methodology::CentralNothing, "cat dog", 4)
            .unwrap();
        assert_eq!(answer.coverage.failed, vec![0]);
        assert!(answer.hits.iter().all(|h| h.librarian == 1));
    }

    /// Runs a full tour of the API on one receptionist and returns every
    /// observable output, for cross-mode comparison.
    #[allow(clippy::type_complexity)]
    fn tour(
        r: &mut Receptionist<InProcTransport<Librarian>>,
    ) -> (
        Vec<Vec<GlobalHit>>,
        Vec<(usize, DocId)>,
        Vec<String>,
        Vec<FetchedDoc>,
    ) {
        r.enable_cv().unwrap();
        r.enable_ci(CiParams {
            group_size: 2,
            k_prime: 10,
        })
        .unwrap();
        let mut rankings = Vec::new();
        for methodology in [
            Methodology::CentralNothing,
            Methodology::CentralVocabulary,
            Methodology::CentralIndex,
        ] {
            rankings.push(r.query(methodology, "cat dog compression", 6).unwrap());
        }
        rankings.push(r.query_selected("compression inverted", 5, 1).unwrap().0);
        let boolean = r.boolean_query("cat AND dog").unwrap();
        let cn = rankings[0].clone();
        let headers = r.headers(&cn).unwrap();
        let fetched = r.fetch(&cn, true).unwrap();
        (rankings, boolean, headers, fetched)
    }

    #[test]
    fn concurrent_dispatch_matches_sequential_everywhere() {
        let mut seq = receptionist();
        seq.set_dispatch_mode(DispatchMode::Sequential);
        // The default mode; in-process tickets are deferred, so this
        // side runs every fan-out on scoped workers.
        let mut conc = receptionist();

        let (rank_s, bool_s, head_s, fetch_s) = tour(&mut seq);
        let (rank_c, bool_c, head_c, fetch_c) = tour(&mut conc);

        assert_eq!(rank_s.len(), rank_c.len());
        for (s, c) in rank_s.iter().zip(&rank_c) {
            assert_eq!(s.len(), c.len());
            for (a, b) in s.iter().zip(c) {
                assert_eq!((a.librarian, a.doc), (b.librarian, b.doc));
                // Identical arithmetic on both paths: bitwise equality.
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
        assert_eq!(bool_s, bool_c);
        assert_eq!(head_s, head_c);
        assert_eq!(fetch_s, fetch_c);
    }

    #[test]
    fn traffic_totals_match_across_dispatch_modes() {
        let mut seq = receptionist();
        seq.set_dispatch_mode(DispatchMode::Sequential);
        let mut conc = receptionist();
        tour(&mut seq);
        tour(&mut conc);
        assert_eq!(seq.traffic(), conc.traffic());
        assert!(conc.traffic().round_trips > 0);
    }

    #[test]
    fn shared_librarians_serve_concurrent_receptionists() {
        // One set of librarians, three receptionists hammering them from
        // separate threads with concurrent fan-out — every receptionist
        // must see the reference ranking, and per-receptionist traffic
        // must equal a lone sequential run's.
        let base = receptionist();
        let mut reference = receptionist();
        reference.set_dispatch_mode(DispatchMode::Sequential);
        let expected = reference
            .query(Methodology::CentralNothing, "cat dog", 4)
            .unwrap();
        let expected_traffic = reference.traffic();

        let services: Vec<_> = (0..base.num_librarians())
            .map(|lib| base.transports[lib].service())
            .collect();
        std::thread::scope(|s| {
            for _ in 0..3 {
                let services = services.clone();
                let expected = &expected;
                s.spawn(move || {
                    let transports = services.into_iter().map(InProcTransport::from_shared);
                    let mut r = Receptionist::new(transports.collect(), Analyzer::default());
                    let hits = r.query(Methodology::CentralNothing, "cat dog", 4).unwrap();
                    assert_eq!(hits.len(), expected.len());
                    for (a, b) in hits.iter().zip(expected.iter()) {
                        assert_eq!((a.librarian, a.doc), (b.librarian, b.doc));
                        assert_eq!(a.score.to_bits(), b.score.to_bits());
                    }
                    assert_eq!(r.traffic(), expected_traffic);
                });
            }
        });
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::librarian::Librarian;
    use proptest::prelude::*;
    use teraphim_net::InProcTransport;

    fn build(
        docs: &[Vec<String>],
        num_libs: usize,
        mode: DispatchMode,
    ) -> Receptionist<InProcTransport<Librarian>> {
        // Round-robin the documents over the librarians.
        let mut parts: Vec<Vec<(String, String)>> = vec![Vec::new(); num_libs];
        for (i, words) in docs.iter().enumerate() {
            parts[i % num_libs].push((format!("D-{i}"), words.join(" ")));
        }
        let transports = parts
            .into_iter()
            .enumerate()
            .map(|(lib, part)| {
                let pairs: Vec<(&str, &str)> = part
                    .iter()
                    .map(|(docno, text)| (docno.as_str(), text.as_str()))
                    .collect();
                InProcTransport::new(Librarian::from_texts(&format!("L{lib}"), &pairs))
            })
            .collect();
        let mut r = Receptionist::new(transports, Analyzer::default());
        r.set_dispatch_mode(mode);
        r
    }

    proptest! {
        /// The tentpole's correctness property: for any corpus split and
        /// any query, the concurrent CV merge is byte-identical to the
        /// sequential one.
        #[test]
        fn concurrent_cv_merge_is_byte_identical_to_sequential(
            docs in proptest::collection::vec(
                proptest::collection::vec("[a-f]{2,8}", 1..8),
                2..24,
            ),
            num_libs in 1usize..5,
            query_words in proptest::collection::vec("[a-f]{2,8}", 1..6),
            k in 1usize..12,
        ) {
            let query = query_words.join(" ");
            let mut seq = build(&docs, num_libs, DispatchMode::Sequential);
            let mut conc = build(&docs, num_libs, DispatchMode::Pipelined);
            seq.enable_cv().unwrap();
            conc.enable_cv().unwrap();
            let a = seq.query(Methodology::CentralVocabulary, &query, k).unwrap();
            let b = conc.query(Methodology::CentralVocabulary, &query, k).unwrap();
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!((x.librarian, x.doc), (y.librarian, y.doc));
                prop_assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
            prop_assert_eq!(seq.traffic(), conc.traffic());
        }
    }
}
