//! The librarian: an independent mono-server engine that answers the
//! TERAPHIM protocol.
//!
//! "Each is responsible for some component of the collection, for which
//! it maintains an index, evaluates queries, and fetches documents"
//! (§3). A librarian never consults central information: rank requests
//! either carry explicit weights (CV/CI) or are answered with purely
//! local statistics (CN). This is the transparency property the paper
//! requires — any subcollection can serve several receptionists at once.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;
use teraphim_engine::{candidates, ranking, Collection, RankScratch, WeightedTerm};
use teraphim_net::{Message, Service};
use teraphim_obs::{FlightRecorder, Histogram, ServerTimings, Span, SpanContext, SpanTree};
use teraphim_text::sgml::TrecDoc;
use teraphim_text::Analyzer;

/// Saturating microseconds for phase timing.
fn elapsed_micros(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// The service ledger of one server: request, rank and error counters,
/// a log-bucketed service-latency histogram and the server-phase totals
/// (indexed like [`teraphim_obs::SERVER_PHASES`]). Every handle of a
/// librarian adds to the same ledger, so whichever handle answers
/// [`Message::Stats`] answers for all of them.
#[derive(Debug, Default)]
struct Ledger {
    requests_served: AtomicU64,
    rank_requests: AtomicU64,
    errors_returned: AtomicU64,
    latency: Histogram,
    phase_totals: [AtomicU64; 4],
}

/// A librarian serving one subcollection: a cheap handle over an
/// immutable, shared [`Collection`].
///
/// A server that evaluates N requests at once holds N handles
/// ([`Librarian::share`]) over **one** collection. What the handles
/// share: the collection (queries only read it), the service ledger
/// served over [`Message::Stats`] and the flight recorder. What each keeps to itself is what one evaluation scribbles on:
/// the ranking scratch buffers and the resolved query (reused across the
/// query stream, so steady-state evaluation allocates and zeroes nothing
/// of the collection's size), the last request's phase clocks, and the
/// epoch of the snapshot it serves. A write through one handle
/// ([`Librarian::add_documents`], [`Librarian::collection_mut`]) is in
/// place while the handle is alone and copy-on-write otherwise: the
/// other handles keep ranking against the snapshot, and advertising the
/// epoch, they had. The [`teraphim_store::IndexStore`] stays with the
/// handle that opened it, which is the only one that writes it
/// ([`Librarian::store_mut`]).
#[derive(Debug)]
pub struct Librarian {
    collection: Arc<Collection>,
    ledger: Arc<Ledger>,
    scratch: RankScratch,
    /// The request being evaluated, resolved against this collection.
    query: Vec<WeightedTerm>,
    /// Index epoch: 0 at build, bumped by [`Librarian::bump_epoch`] when
    /// the index changes. Echoed in every rank/score reply and in
    /// `StatsReply` so receptionist caches can invalidate.
    epoch: u64,
    /// Scan (term lookup / weighting) micros of the last handled
    /// request; harvested by [`Service::take_phase_timings`].
    last_scan: u64,
    /// Rank (accumulator/heap) micros of the last handled request.
    last_rank: u64,
    /// Server-side flight recorder: exemplar spans for requests that
    /// arrived with a span context. Detached (free) by default.
    flight: FlightRecorder,
    /// Durable backing store, when the librarian was opened from (or
    /// attached to) a store directory. With a store attached, the epoch
    /// is the store's durable epoch and
    /// [`Librarian::add_documents`] follows the write-ahead discipline.
    store: Option<teraphim_store::IndexStore>,
}

impl Librarian {
    /// Builds a librarian over parsed documents.
    pub fn build(name: &str, analyzer: Analyzer, docs: &[TrecDoc]) -> Self {
        Self::from_collection(Collection::build(name, analyzer, docs))
    }

    /// Builds a librarian from `(docno, text)` pairs with the default
    /// analyzer.
    pub fn from_texts(name: &str, docs: &[(&str, &str)]) -> Self {
        Self::from_collection(Collection::from_texts(name, docs))
    }

    /// Wraps an existing collection (e.g. one loaded from disk), owned
    /// or already shared, under a fresh ledger.
    pub fn from_collection(collection: impl Into<Arc<Collection>>) -> Self {
        Librarian {
            collection: collection.into(),
            ledger: Arc::default(),
            scratch: RankScratch::new(),
            query: Vec::new(),
            epoch: 0,
            last_scan: 0,
            last_rank: 0,
            flight: FlightRecorder::disabled(),
            store: None,
        }
    }

    /// Another handle onto this librarian's collection, ledger and flight
    /// recorder, at this handle's epoch, for one more
    /// worker to evaluate with: it costs a scratch buffer. Not `Clone`,
    /// because the store does not come along.
    pub fn share(&self) -> Librarian {
        Librarian {
            collection: Arc::clone(&self.collection),
            ledger: Arc::clone(&self.ledger),
            scratch: RankScratch::new(),
            query: Vec::new(),
            epoch: self.epoch,
            last_scan: 0,
            last_rank: 0,
            flight: self.flight.clone(),
            store: None,
        }
    }

    /// Opens a librarian from a persistent store directory instead of
    /// rebuilding its index: the store's one segment is deserialized,
    /// the WAL's valid prefix replayed on top, and the librarian's epoch
    /// set to the store's durable epoch — so reopening after a crash serves replies
    /// that are cache-indistinguishable from the pre-crash librarian at
    /// that epoch.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TeraphimError::Store`] if the store is missing
    /// or corrupt.
    pub fn open(dir: &Path) -> Result<Librarian, crate::TeraphimError> {
        let (store, collection) = teraphim_store::IndexStore::open(dir)?;
        let mut librarian = Self::from_collection(collection);
        librarian.epoch = store.epoch();
        librarian.store = Some(store);
        Ok(librarian)
    }

    /// Builds a librarian over parsed documents *and* creates a
    /// persistent store for it in `dir` (epoch 0 = this base build).
    ///
    /// # Errors
    ///
    /// Returns [`crate::TeraphimError::Store`] if `dir` already holds a
    /// store or cannot be written.
    pub fn create_store(
        dir: &Path,
        name: &str,
        analyzer: &Analyzer,
        docs: &[TrecDoc],
    ) -> Result<Librarian, crate::TeraphimError> {
        let (store, collection) = teraphim_store::IndexStore::create(dir, name, analyzer, docs)?;
        let mut librarian = Self::from_collection(collection);
        librarian.store = Some(store);
        Ok(librarian)
    }

    /// Appends a document batch, durably when a store is attached: the
    /// batch is WAL-logged and synced *first* through the store's writer
    /// ([`Librarian::store_mut`]), and only then merged into the
    /// in-memory index, so the advertised epoch never gets ahead of
    /// what a crash would recover. Without a store this is a plain
    /// in-memory append plus an epoch bump. Returns the new epoch.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TeraphimError::Store`] if the WAL append fails
    /// (the in-memory index is then left untouched; a store that could
    /// not fold its WAL into the segment afterwards is not a failure of
    /// the batch, which is durable by then) or
    /// [`crate::TeraphimError::Engine`] if the merge fails.
    pub fn add_documents(&mut self, docs: &[TrecDoc]) -> Result<u64, crate::TeraphimError> {
        let epoch = match self.store_mut() {
            Some(mut store) => store.log_batch(docs)?,
            None => self.epoch + 1,
        };
        self.collection_mut().append_documents(docs)?;
        self.epoch = epoch;
        Ok(epoch)
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<&teraphim_store::IndexStore> {
        self.store.as_ref()
    }

    /// The attached store's writer, bound to this handle's collection:
    /// the only way to write the store, so that a fold writes the
    /// collection this handle serves. A caller that logs a batch with it
    /// applies the batch next ([`Librarian::collection_mut`]) and then
    /// takes the epoch ([`Librarian::set_epoch`]), as
    /// [`Librarian::add_documents`] does.
    pub fn store_mut(&mut self) -> Option<teraphim_store::StoreWriter<'_>> {
        let live = &*self.collection;
        self.store.as_mut().map(|store| store.writer(live))
    }

    /// Attaches a flight recorder retaining at most `capacity`
    /// exemplars; span-carrying requests leave a server-side span tree
    /// in it. Returns a handle sharing the buffer.
    pub fn enable_flight_recorder(&mut self, capacity: usize) -> FlightRecorder {
        self.flight = FlightRecorder::new(capacity);
        self.flight.clone()
    }

    /// Current index epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Declares the index changed: every later reply carries the new
    /// epoch, telling receptionists their cached results are stale.
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Adopts a shard's epoch wholesale — the migration handoff path: a
    /// replica joining a shard's group indexes the same documents and
    /// then takes the shard's current epoch, so its replies are
    /// cache-indistinguishable from the replicas that were already
    /// serving.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// The underlying collection.
    pub fn collection(&self) -> &Collection {
        &self.collection
    }

    /// Mutable access (e.g. to append documents): in place while this
    /// handle is alone, on a private copy once the collection is shared,
    /// so no other handle's snapshot moves.
    pub fn collection_mut(&mut self) -> &mut Collection {
        Arc::make_mut(&mut self.collection)
    }

    /// Number of documents managed.
    pub fn num_docs(&self) -> u64 {
        self.collection.num_docs()
    }

    /// Builds the [`Message::StatsReply`] from the shared service ledger
    /// and this handle's snapshot.
    fn stats_reply(&self) -> Message {
        Message::StatsReply {
            name: self.collection.name().to_owned(),
            num_docs: self.collection.num_docs(),
            num_terms: self.collection.index().vocab().len() as u64,
            index_bytes: self.collection.index().serialized_len() as u64,
            requests_served: self.ledger.requests_served.load(Relaxed),
            rank_requests: self.ledger.rank_requests.load(Relaxed),
            errors: self.ledger.errors_returned.load(Relaxed),
            epoch: self.epoch,
            latency: self.ledger.latency.snapshot().to_bucket_pairs(),
            server_phases: (0u32..)
                .zip(&self.ledger.phase_totals)
                .map(|(i, micros)| (i, micros.load(Relaxed)))
                .filter(|&(_, micros)| micros > 0)
                .collect(),
        }
    }

    /// Ranks the resolved query to depth `k` and answers with it; the
    /// rank phase runs from `rank_started` to the end of this pass.
    fn ranking(&mut self, query_id: u32, k: u32, qnorm: f64, rank_started: Instant) -> Message {
        let hits = ranking::rank_with_norm(
            self.collection.index(),
            &self.query,
            qnorm,
            k as usize,
            &mut self.scratch,
        );
        self.last_rank = elapsed_micros(rank_started);
        Message::RankResponse {
            query_id,
            epoch: self.epoch,
            entries: hits.into_iter().map(|h| (h.doc, h.score)).collect(),
        }
    }

    fn handle_inner(&mut self, request: Message) -> Message {
        match request {
            Message::StatsRequest => {
                let index = self.collection.index();
                let term_freqs = index
                    .vocab()
                    .iter()
                    .map(|(id, term)| (term.to_owned(), index.stats().doc_freq(id)))
                    .collect();
                Message::StatsResponse {
                    num_docs: index.stats().num_docs(),
                    term_freqs,
                }
            }
            Message::IndexRequest => Message::IndexResponse {
                index_bytes: self.collection.index().to_bytes(),
            },
            Message::RankRequest { query_id, k, terms } => {
                // Central Nothing: local statistics. Query terms arrive as
                // strings with their f_qt; unknown terms contribute
                // nothing. Scan = lookup + local weighting; rank = the
                // accumulator/selection pass.
                let scan_started = Instant::now();
                let qnorm = self.collection.resolve_local(terms.iter(), &mut self.query);
                self.last_scan = elapsed_micros(scan_started);
                self.ranking(query_id, k, qnorm, Instant::now())
            }
            Message::RankWeightedRequest { query_id, k, terms } => {
                // Central Vocabulary: the receptionist supplies global
                // weights, so scores are identical to a mono-server run.
                // No local scan phase — the weighting already happened
                // client-side.
                let rank_started = Instant::now();
                let qnorm = self
                    .collection
                    .resolve_weighted(terms.iter(), &mut self.query);
                self.ranking(query_id, k, qnorm, rank_started)
            }
            Message::ScoreCandidatesRequest {
                query_id,
                terms,
                candidates,
            } => {
                let rank_started = Instant::now();
                let qnorm = self
                    .collection
                    .resolve_weighted(terms.iter(), &mut self.query);
                let result = candidates::score_candidates(
                    self.collection.index(),
                    &self.query,
                    qnorm,
                    &candidates,
                    &mut self.scratch,
                );
                self.last_rank = elapsed_micros(rank_started);
                match result {
                    Ok((scores, postings_decoded)) => Message::ScoreResponse {
                        query_id,
                        epoch: self.epoch,
                        entries: scores.into_iter().map(|s| (s.doc, s.score)).collect(),
                        postings_decoded,
                    },
                    Err(e) => Message::Error {
                        message: format!("candidate scoring failed: {e}"),
                    },
                }
            }
            Message::FetchDocsRequest {
                query_id,
                docs,
                plain,
            } => {
                let mut out = Vec::with_capacity(docs.len());
                for doc in docs {
                    let docno = match self.collection.store().docno(doc) {
                        Some(d) => d.to_owned(),
                        None => {
                            return Message::Error {
                                message: format!("unknown document id {doc}"),
                            }
                        }
                    };
                    let bytes = if plain {
                        match self.collection.fetch(doc) {
                            Ok(text) => text.into_bytes(),
                            Err(e) => {
                                return Message::Error {
                                    message: format!("fetch failed: {e}"),
                                }
                            }
                        }
                    } else {
                        match self.collection.store().compressed_bytes(doc) {
                            Ok(b) => b.to_vec(),
                            Err(e) => {
                                return Message::Error {
                                    message: format!("fetch failed: {e}"),
                                }
                            }
                        }
                    };
                    out.push((doc, docno, bytes));
                }
                Message::DocsResponse {
                    query_id,
                    docs: out,
                }
            }
            Message::FetchHeadersRequest { query_id, docs } => {
                let mut headers = Vec::with_capacity(docs.len());
                for doc in docs {
                    match self.collection.store().docno(doc) {
                        Some(d) => headers.push((doc, d.to_owned())),
                        None => {
                            return Message::Error {
                                message: format!("unknown document id {doc}"),
                            }
                        }
                    }
                }
                Message::HeadersResponse { query_id, headers }
            }
            Message::BooleanRequest { query_id, expr } => {
                match self.collection.boolean_query(&expr) {
                    Ok(docs) => Message::BooleanResponse { query_id, docs },
                    Err(e) => Message::Error {
                        message: format!("boolean query failed: {e}"),
                    },
                }
            }
            // Handled in `Service::handle` before the ledger is updated.
            Message::Stats => self.stats_reply(),
            Message::FlightRecRequest => Message::FlightRecReply {
                // A detached recorder dumps an empty (but well-formed)
                // summary — asking is never an error.
                json: self.flight.dump_json(),
            },
            // Requests only a receptionist should ever receive.
            Message::StatsResponse { .. }
            | Message::IndexResponse { .. }
            | Message::RankResponse { .. }
            | Message::ScoreResponse { .. }
            | Message::DocsResponse { .. }
            | Message::HeadersResponse { .. }
            | Message::BooleanResponse { .. }
            | Message::Error { .. }
            | Message::Unavailable { .. }
            | Message::StatsReply { .. }
            | Message::FlightRecReply { .. } => Message::Error {
                message: "librarian received a response message".into(),
            },
        }
    }
}

impl Service for Librarian {
    fn handle(&mut self, request: Message) -> Message {
        // Admin stats are answered out of band: they do not count as
        // served requests and are not timed, so polling a fleet for
        // health never perturbs the ledger it reads.
        if matches!(request, Message::Stats) {
            return self.stats_reply();
        }
        // Flight-recorder dumps are admin traffic too: answered out of
        // band so fleet status checks never perturb the service ledger.
        if matches!(request, Message::FlightRecRequest) {
            return self.handle_inner(request);
        }
        let started = Instant::now();
        let is_rank = matches!(
            request,
            Message::RankRequest { .. }
                | Message::RankWeightedRequest { .. }
                | Message::ScoreCandidatesRequest { .. }
        );
        // Phase clocks restart per request; non-rank requests report
        // zero scan/rank.
        self.last_scan = 0;
        self.last_rank = 0;
        let response = self.handle_inner(request);
        self.ledger.requests_served.fetch_add(1, Relaxed);
        if is_rank {
            self.ledger.rank_requests.fetch_add(1, Relaxed);
        }
        if matches!(
            response,
            Message::Error { .. } | Message::Unavailable { .. }
        ) {
            self.ledger.errors_returned.fetch_add(1, Relaxed);
        }
        self.ledger.latency.record(elapsed_micros(started));
        response
    }

    fn take_phase_timings(&mut self) -> Option<(u64, u64)> {
        Some((
            std::mem::take(&mut self.last_scan),
            std::mem::take(&mut self.last_rank),
        ))
    }

    fn note_server_timings(&mut self, timings: &ServerTimings, span: Option<&SpanContext>) {
        for (total, (_, micros)) in self.ledger.phase_totals.iter().zip(timings.as_pairs()) {
            total.fetch_add(micros, Relaxed);
        }
        // A span-carrying request leaves a server-side exemplar: a
        // one-level span tree of the four phases, stamped with the
        // client's trace id, so `teraphim flightrec` can surface what a
        // slow request spent its time on without the client's trace.
        if !self.flight.is_enabled() {
            return;
        }
        let Some(span) = span else { return };
        let trace_id = span.trace_id;
        let librarian = span.parent_span;
        let timings = *timings;
        let name = self.collection.name().to_owned();
        self.flight.record_entry(move || {
            let total = timings.total_micros();
            let mut root = Span {
                name: "serve".to_owned(),
                librarian: Some(librarian),
                start_micros: 0,
                duration_micros: total,
                faulted: false,
                children: Vec::new(),
            };
            let mut at = 0u64;
            for (phase, micros) in timings.as_pairs() {
                root.children.push(Span {
                    name: phase.to_owned(),
                    librarian: Some(librarian),
                    start_micros: at,
                    duration_micros: micros,
                    faulted: false,
                    children: Vec::new(),
                });
                at = at.saturating_add(micros);
            }
            let tree = SpanTree {
                trace_id,
                op: name,
                methodology: None,
                query_id: 0,
                k: 0,
                faulted: false,
                degraded: false,
                root,
            };
            (tree, total)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teraphim_net::{InProcTransport, Transport};

    fn librarian() -> Librarian {
        Librarian::from_texts(
            "TEST",
            &[
                ("T-1", "the cat sat on the mat"),
                ("T-2", "dogs and cats and birds"),
                ("T-3", "compression of inverted files"),
            ],
        )
    }

    #[test]
    fn stats_request_returns_vocabulary() {
        let mut lib = librarian();
        let resp = lib.handle(Message::StatsRequest);
        match resp {
            Message::StatsResponse {
                num_docs,
                term_freqs,
            } => {
                assert_eq!(num_docs, 3);
                let cat = term_freqs.iter().find(|(t, _)| t == "cat").unwrap();
                assert_eq!(cat.1, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn index_request_roundtrips_through_serialization() {
        let mut lib = librarian();
        let resp = lib.handle(Message::IndexRequest);
        match resp {
            Message::IndexResponse { index_bytes } => {
                let index = teraphim_index::InvertedIndex::from_bytes(&index_bytes).unwrap();
                assert_eq!(index.num_docs(), 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rank_request_uses_local_statistics() {
        let mut lib = librarian();
        let resp = lib.handle(Message::RankRequest {
            query_id: 1,
            k: 10,
            terms: vec![("cat".into(), 1)].into(),
        });
        match resp {
            Message::RankResponse {
                query_id, entries, ..
            } => {
                assert_eq!(query_id, 1);
                assert_eq!(entries.len(), 2);
                // Scores strictly ordered.
                assert!(entries[0].1 >= entries[1].1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn weighted_rank_matches_engine() {
        let mut lib = librarian();
        let mut query = Vec::new();
        let qnorm = lib
            .collection()
            .resolve_weighted([("compression", 2.0)], &mut query);
        let expected = ranking::rank_with_norm(
            lib.collection().index(),
            &query,
            qnorm,
            5,
            &mut RankScratch::new(),
        );
        let resp = lib.handle(Message::RankWeightedRequest {
            query_id: 2,
            k: 5,
            terms: vec![("compression".into(), 2.0)].into(),
        });
        match resp {
            Message::RankResponse { entries, .. } => {
                assert_eq!(entries.len(), expected.len());
                for (e, x) in entries.iter().zip(&expected) {
                    assert_eq!(e.0, x.doc);
                    assert!((e.1 - x.score).abs() < 1e-12);
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fetch_docs_plain_and_compressed() {
        let mut lib = librarian();
        let plain = lib.handle(Message::FetchDocsRequest {
            query_id: 3,
            docs: vec![0],
            plain: true,
        });
        let Message::DocsResponse {
            docs: plain_docs, ..
        } = plain
        else {
            panic!("bad response");
        };
        assert_eq!(plain_docs[0].1, "T-1");
        assert_eq!(
            String::from_utf8(plain_docs[0].2.clone()).unwrap(),
            "the cat sat on the mat"
        );
        let compressed = lib.handle(Message::FetchDocsRequest {
            query_id: 3,
            docs: vec![0],
            plain: false,
        });
        let Message::DocsResponse {
            docs: comp_docs, ..
        } = compressed
        else {
            panic!("bad response");
        };
        assert!(comp_docs[0].2.len() < plain_docs[0].2.len());
    }

    #[test]
    fn fetch_headers() {
        let mut lib = librarian();
        let resp = lib.handle(Message::FetchHeadersRequest {
            query_id: 4,
            docs: vec![2, 0],
        });
        assert_eq!(
            resp,
            Message::HeadersResponse {
                query_id: 4,
                headers: vec![(2, "T-3".into()), (0, "T-1".into())],
            }
        );
    }

    #[test]
    fn unknown_documents_are_errors() {
        let mut lib = librarian();
        let resp = lib.handle(Message::FetchDocsRequest {
            query_id: 5,
            docs: vec![99],
            plain: true,
        });
        assert!(matches!(resp, Message::Error { .. }));
    }

    #[test]
    fn response_messages_are_rejected() {
        let mut lib = librarian();
        let resp = lib.handle(Message::RankResponse {
            query_id: 1,
            epoch: 0,
            entries: vec![],
        });
        assert!(matches!(resp, Message::Error { .. }));
    }

    #[test]
    fn stats_ledger_counts_requests_and_errors() {
        let mut lib = librarian();
        lib.handle(Message::RankRequest {
            query_id: 1,
            k: 10,
            terms: vec![("cat".into(), 1)].into(),
        });
        lib.handle(Message::FetchHeadersRequest {
            query_id: 2,
            docs: vec![0],
        });
        lib.handle(Message::FetchDocsRequest {
            query_id: 3,
            docs: vec![99],
            plain: true,
        }); // error: unknown doc
        let reply = lib.handle(Message::Stats);
        let Message::StatsReply {
            name,
            num_docs,
            num_terms,
            index_bytes,
            requests_served,
            rank_requests,
            errors,
            epoch,
            latency,
            server_phases,
        } = reply
        else {
            panic!("expected StatsReply");
        };
        assert_eq!(name, "TEST");
        assert_eq!(num_docs, 3);
        assert!(num_terms > 0);
        assert!(index_bytes > 0);
        assert_eq!(requests_served, 3);
        assert_eq!(rank_requests, 1);
        assert_eq!(errors, 1);
        assert_eq!(epoch, 0, "fresh librarian starts at epoch 0");
        let total: u64 = latency.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 3, "every served request is timed");
        assert!(
            server_phases.is_empty(),
            "no phase totals before any span-carrying request: {server_phases:?}"
        );
        // Polling stats again does not count the poll itself.
        let again = lib.handle(Message::Stats);
        if let Message::StatsReply {
            requests_served, ..
        } = again
        {
            assert_eq!(requests_served, 3);
        }
    }

    fn rank_cat(lib: &mut Librarian, query_id: u32) -> Message {
        lib.handle(Message::RankRequest {
            query_id,
            k: 10,
            terms: vec![("cat".into(), 1)].into(),
        })
    }

    /// Handles share one collection until one of them writes; the write
    /// lands on a private copy, so the other keeps its ranking and its
    /// epoch.
    #[test]
    fn shared_handles_rank_identically_and_diverge_on_a_write() {
        let mut original = librarian();
        let mut handle = original.share();
        assert!(Arc::ptr_eq(&original.collection, &handle.collection));
        assert!(handle.store().is_none());
        let before = rank_cat(&mut original, 1);
        assert_eq!(rank_cat(&mut handle, 1).encode(), before.encode());

        let batch = vec![TrecDoc {
            docno: "T-4".into(),
            text: "one more cat".into(),
        }];
        handle.collection_mut().append_documents(&batch).unwrap();
        handle.bump_epoch();
        assert!(!Arc::ptr_eq(&original.collection, &handle.collection));
        assert_eq!((original.num_docs(), handle.num_docs()), (3, 4));
        assert_eq!(rank_cat(&mut original, 1).encode(), before.encode());
        assert_eq!((original.epoch(), handle.epoch()), (0, 1));
        let Message::RankResponse { epoch, entries, .. } = rank_cat(&mut handle, 1) else {
            panic!("expected a ranking");
        };
        assert_eq!((epoch, entries.len()), (1, 3));

        // Alone again, a handle writes in place.
        drop(original);
        let held = Arc::as_ptr(&handle.collection);
        handle.collection_mut().append_documents(&batch).unwrap();
        assert_eq!(Arc::as_ptr(&handle.collection), held);
    }

    /// Three engines behind three workers are one server: whichever
    /// handle pops a `Stats` poll reports every request the server has
    /// answered, not the third of them it happened to evaluate.
    #[test]
    fn every_handle_of_a_server_answers_stats_for_the_whole_server() {
        use teraphim_net::mux::MuxTransport;
        use teraphim_net::tcp::{ServerOptions, TcpServer};
        let original = librarian();
        let server = TcpServer::spawn_with(
            (0..3).map(|_| original.share()).collect(),
            "127.0.0.1:0",
            ServerOptions {
                workers: 3,
                queue_depth: 16,
            },
        )
        .unwrap();
        let mut client = MuxTransport::connect(server.addr()).unwrap();
        for query_id in 0..30 {
            let reply = client
                .request(&Message::RankRequest {
                    query_id,
                    k: 10,
                    terms: vec![("cat".into(), 1)].into(),
                })
                .unwrap();
            assert!(matches!(reply, Message::RankResponse { .. }));
        }
        // Several polls, so more than one worker (and its engine) answers.
        for poll in 0..9 {
            let Message::StatsReply {
                requests_served,
                rank_requests,
                latency,
                ..
            } = client.request(&Message::Stats).unwrap()
            else {
                panic!("expected StatsReply");
            };
            let timed: u64 = latency.iter().map(|&(_, c)| c).sum();
            assert_eq!(
                (requests_served, rank_requests, timed),
                (30, 30, 30),
                "poll {poll}: admin polls count nothing, rank exchanges all count"
            );
        }
        server.shutdown();
    }

    #[test]
    fn stats_index_size_follows_an_append_through_collection_mut() {
        // The path the scenario backends' churn and the benchmark's
        // ingest take: once polled, the cached size must not outlive a
        // change made through the mutable handle.
        fn polled_index_bytes(lib: &mut Librarian) -> u64 {
            match lib.handle(Message::Stats) {
                Message::StatsReply { index_bytes, .. } => index_bytes,
                other => panic!("expected StatsReply, got {other:?}"),
            }
        }
        let mut lib = librarian();
        let before = polled_index_bytes(&mut lib);
        let batch = vec![TrecDoc {
            docno: "T-4".into(),
            text: "walrus tusks and entirely new vocabulary".into(),
        }];
        lib.collection_mut().append_documents(&batch).unwrap();
        let after = polled_index_bytes(&mut lib);
        assert!(after > before, "index grew: {before} -> {after} bytes");
        assert_eq!(
            after,
            lib.collection().index().to_bytes().len() as u64,
            "the poll reports the index as it is now"
        );
    }

    #[test]
    fn works_through_a_transport() {
        let mut t = InProcTransport::new(librarian());
        let resp = t
            .request(&Message::RankRequest {
                query_id: 7,
                k: 1,
                terms: vec![("cat".into(), 1)].into(),
            })
            .unwrap();
        assert!(matches!(resp, Message::RankResponse { .. }));
        assert!(t.stats().total_bytes() > 0);
    }

    #[test]
    fn store_backed_librarian_recovers_epoch_and_rankings() {
        let dir = teraphim_store::TempDir::new("librarian").unwrap();
        let docs: Vec<TrecDoc> = [
            ("T-1", "the cat sat on the mat"),
            ("T-2", "dogs and cats and birds"),
        ]
        .iter()
        .map(|(docno, text)| TrecDoc {
            docno: (*docno).to_owned(),
            text: (*text).to_owned(),
        })
        .collect();
        let mut lib =
            Librarian::create_store(dir.path(), "TEST", &Analyzer::default(), &docs).unwrap();
        assert_eq!(lib.epoch(), 0);
        let batch = vec![TrecDoc {
            docno: "T-3".into(),
            text: "compression of inverted files".into(),
        }];
        assert_eq!(lib.add_documents(&batch).unwrap(), 1);
        let expected: Vec<(u32, u64)> = lib
            .collection()
            .ranked_query("cat compression", 10)
            .into_iter()
            .map(|h| (h.doc, h.score.to_bits()))
            .collect();
        drop(lib);

        let mut reopened = Librarian::open(dir.path()).unwrap();
        assert_eq!(reopened.epoch(), 1, "epoch is durable across reopen");
        let got: Vec<(u32, u64)> = reopened
            .collection()
            .ranked_query("cat compression", 10)
            .into_iter()
            .map(|h| (h.doc, h.score.to_bits()))
            .collect();
        assert_eq!(got, expected, "recovered rankings are byte-identical");
        // The recovered epoch flows through StatsReply unchanged, and
        // the size it reports is the index's serialized size, also
        // after a further append.
        for want in [1, 2] {
            let Message::StatsReply {
                epoch, index_bytes, ..
            } = reopened.handle(Message::Stats)
            else {
                panic!("expected StatsReply");
            };
            assert_eq!(epoch, want);
            let serialized = reopened.collection().index().to_bytes().len();
            assert_eq!(index_bytes, serialized as u64);
            reopened.add_documents(&batch).unwrap();
        }
    }

    /// Every file of a store directory, by name.
    fn store_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                let name = e.file_name().into_string().unwrap();
                (name, std::fs::read(e.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    /// The librarian's own write (`add_documents`) and the three calls a
    /// caller may make instead, each through the librarian (the store's
    /// writer, the append, the epoch), fold on the same batches and
    /// leave the same bytes on disk, through two automatic folds and one
    /// batch more. Each fold comes before the batch that finds
    /// `CHECKPOINT_BATCHES` pending, and writes the serving collection.
    #[test]
    fn add_documents_and_the_writer_sequence_leave_identical_stores() {
        let root = teraphim_store::TempDir::new("librarian-fold").unwrap();
        let base = [TrecDoc {
            docno: "T-0".into(),
            text: "the cat sat on the mat".into(),
        }];
        let open = |name: &str| {
            let dir = root.path().join(name);
            let lib = Librarian::create_store(&dir, "TEST", &Analyzer::default(), &base);
            (dir, lib.unwrap())
        };
        let (owned_dir, mut owned) = open("owned");
        let (traced_dir, mut traced) = open("traced");
        let batches = 2 * teraphim_store::CHECKPOINT_BATCHES + 1;
        for n in 1..=batches {
            let batch = [TrecDoc {
                docno: format!("T-{n}"),
                text: format!("batch {n} of cats and tides"),
            }];
            let epoch = owned.add_documents(&batch).unwrap();
            let logged = traced.store_mut().unwrap().log_batch(&batch).unwrap();
            traced.collection_mut().append_documents(&batch).unwrap();
            traced.set_epoch(logged);
            assert_eq!((epoch, traced.epoch()), (n as u64, n as u64));
            let pending = owned.store().unwrap().pending_batches();
            assert_eq!(pending, (n - 1) % teraphim_store::CHECKPOINT_BATCHES + 1);
            assert_eq!(
                store_files(&owned_dir),
                store_files(&traced_dir),
                "batch {n}"
            );
        }
        assert_eq!(owned.store_mut().unwrap().compact(), Ok(()));
        assert_eq!(traced.store_mut().unwrap().compact(), Ok(()));
        assert_eq!(store_files(&owned_dir), store_files(&traced_dir));
        let reopened = Librarian::open(&owned_dir).unwrap();
        assert!(reopened.collection().to_bytes() == owned.collection().to_bytes());
    }

    #[test]
    fn failed_wal_append_leaves_memory_untouched() {
        let dir = teraphim_store::TempDir::new("librarian-crash").unwrap();
        let mut lib =
            Librarian::create_store(dir.path(), "TEST", &Analyzer::default(), &[]).unwrap();
        lib.store_mut()
            .unwrap()
            .inject_crash(teraphim_store::CrashPoint {
                offset: 3,
                mode: teraphim_store::CrashMode::Truncate,
            });
        let batch = vec![TrecDoc {
            docno: "X-1".into(),
            text: "never committed".into(),
        }];
        assert!(matches!(
            lib.add_documents(&batch),
            Err(crate::TeraphimError::Store(_))
        ));
        assert_eq!(lib.epoch(), 0, "epoch must not advance past durability");
        assert_eq!(lib.num_docs(), 0, "in-memory index must not run ahead");
    }

    #[test]
    fn score_candidates_round_trip() {
        let mut lib = librarian();
        let resp = lib.handle(Message::ScoreCandidatesRequest {
            query_id: 8,
            terms: vec![("cat".into(), 1.0)].into(),
            candidates: vec![0, 1, 2],
        });
        match resp {
            Message::ScoreResponse { entries, .. } => {
                assert_eq!(entries.len(), 3);
                assert!(entries[0].1 > 0.0); // T-1 contains cat
                assert_eq!(entries[2].1, 0.0); // T-3 does not
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
