//! The TERAPHIM protocol messages.
//!
//! One request/response pair exists per protocol step in §3 of the
//! paper:
//!
//! | Step | Request | Response | Methodology |
//! |------|---------|----------|-------------|
//! | setup | [`Message::StatsRequest`] | [`Message::StatsResponse`] | CV preprocessing |
//! | setup | [`Message::IndexRequest`] | [`Message::IndexResponse`] | CI preprocessing |
//! | 1–2 | [`Message::RankRequest`] | [`Message::RankResponse`] | CN (local weights) |
//! | 1–2 | [`Message::RankWeightedRequest`] | [`Message::RankResponse`] | CV (global weights) |
//! | 2 | [`Message::ScoreCandidatesRequest`] | [`Message::ScoreResponse`] | CI (candidate scoring) |
//! | 4 | [`Message::FetchDocsRequest`] | [`Message::DocsResponse`] | all |
//!
//! Documents travel *compressed* (the store's word-coded bytes), which is
//! TERAPHIM's mitigation for WAN transfer cost.

use crate::wire::{get_bytes, get_f64, get_str, get_uint, put_bytes, put_f64, put_str, put_uint};
use crate::NetError;

/// A protocol message (request or response).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Ask a librarian for its collection statistics and vocabulary
    /// (term, local f_t) — the CV receptionist's preprocessing step.
    StatsRequest,
    /// Collection statistics: `N` and the per-term document frequencies.
    StatsResponse {
        /// Number of documents in the librarian's collection.
        num_docs: u64,
        /// `(term, f_t)` pairs for every vocabulary entry.
        term_freqs: Vec<(String, u64)>,
    },
    /// Ask a librarian for its full serialized index — the CI
    /// receptionist's preprocessing step.
    IndexRequest,
    /// The librarian's serialized inverted index.
    IndexResponse {
        /// `InvertedIndex::to_bytes` output.
        index_bytes: Vec<u8>,
    },
    /// Rank with *local* statistics (Central Nothing).
    RankRequest {
        /// Caller-chosen query identifier echoed in the response.
        query_id: u32,
        /// Number of documents wanted.
        k: u32,
        /// `(term, f_qt)` pairs; the librarian computes its own weights.
        terms: Vec<(String, u32)>,
    },
    /// Rank with supplied *global* weights (Central Vocabulary).
    RankWeightedRequest {
        /// Caller-chosen query identifier echoed in the response.
        query_id: u32,
        /// Number of documents wanted.
        k: u32,
        /// `(term, w_qt)` pairs computed by the receptionist.
        terms: Vec<(String, f64)>,
    },
    /// A ranking: `(local doc id, similarity)` in decreasing order.
    RankResponse {
        /// Echoed query identifier.
        query_id: u32,
        /// The librarian's index epoch (bumped on reindex); lets the
        /// receptionist invalidate caches without a separate poll.
        epoch: u64,
        /// The ranked entries.
        entries: Vec<(u32, f64)>,
    },
    /// Score exactly these candidate documents (Central Index).
    ScoreCandidatesRequest {
        /// Caller-chosen query identifier echoed in the response.
        query_id: u32,
        /// `(term, w_qt)` pairs computed by the receptionist.
        terms: Vec<(String, f64)>,
        /// Local document ids to score.
        candidates: Vec<u32>,
    },
    /// Similarity values for the requested candidates.
    ScoreResponse {
        /// Echoed query identifier.
        query_id: u32,
        /// The librarian's index epoch (see [`Message::RankResponse`]).
        epoch: u64,
        /// `(local doc id, similarity)` for each distinct candidate.
        entries: Vec<(u32, f64)>,
        /// Postings decoded while scoring (CPU-cost instrumentation).
        postings_decoded: u64,
    },
    /// Fetch documents for display (step 4).
    FetchDocsRequest {
        /// Caller-chosen query identifier echoed in the response.
        query_id: u32,
        /// Local document ids wanted.
        docs: Vec<u32>,
        /// When true the librarian decompresses before sending (more
        /// bytes on the wire); when false documents travel compressed,
        /// TERAPHIM's preferred mode.
        plain: bool,
    },
    /// The requested documents, compressed.
    DocsResponse {
        /// Echoed query identifier.
        query_id: u32,
        /// `(local doc id, docno, compressed text)` per document.
        docs: Vec<(u32, String, Vec<u8>)>,
    },
    /// Fetch only document headers (the external identifiers) — the
    /// paper's "only send part of each document, such as a header"
    /// refinement, and what effectiveness evaluation needs to map local
    /// ids to docnos.
    FetchHeadersRequest {
        /// Caller-chosen query identifier echoed in the response.
        query_id: u32,
        /// Local document ids wanted.
        docs: Vec<u32>,
    },
    /// The requested document headers.
    HeadersResponse {
        /// Echoed query identifier.
        query_id: u32,
        /// `(local doc id, docno)` per document.
        headers: Vec<(u32, String)>,
    },
    /// Evaluate a Boolean expression (distributed Boolean queries need
    /// no global information: the result is the union of per-librarian
    /// result sets).
    BooleanRequest {
        /// Caller-chosen query identifier echoed in the response.
        query_id: u32,
        /// Expression text, e.g. `cat AND (dog OR bird)`.
        expr: String,
    },
    /// Matching documents, ascending.
    BooleanResponse {
        /// Echoed query identifier.
        query_id: u32,
        /// Matching local document ids.
        docs: Vec<u32>,
    },
    /// Protocol-level failure: the peer understood the request but
    /// cannot ever satisfy it (bad expression, unknown document, …).
    /// Transports surface it as [`NetError::Remote`]; it is *not*
    /// retried.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// Typed *transient* failure: the peer is up but temporarily unable
    /// to serve this request (overload, injected fault, resource
    /// contention). Transports surface it as [`NetError::Unavailable`],
    /// which a replica group treats as retryable — the typed complement
    /// of the permanent [`Message::Error`].
    Unavailable {
        /// Human-readable reason.
        message: String,
    },
    /// Admin request: ask a librarian for its self-reported operational
    /// statistics. Distinct from [`Message::StatsRequest`], which is the
    /// CV preprocessing step fetching *collection* statistics — this one
    /// carries no query-path payload and is served out of band by the
    /// librarian's own counters, for fleet health snapshots.
    Stats,
    /// Admin response: the librarian's index shape and lifetime service
    /// counters, as counted *by the librarian itself* (the server side
    /// of the ledger; the receptionist's metrics registry is the client
    /// side).
    StatsReply {
        /// Librarian's self-chosen display name (may be empty).
        name: String,
        /// Documents in its collection.
        num_docs: u64,
        /// Distinct terms in its vocabulary.
        num_terms: u64,
        /// Serialized size of its inverted index, in bytes.
        index_bytes: u64,
        /// Requests served since startup (all variants except `Stats`).
        requests_served: u64,
        /// Of those, rank/score requests (the query hot path).
        rank_requests: u64,
        /// Requests answered with `Error` or `Unavailable`.
        errors: u64,
        /// Index epoch: 0 at build, bumped whenever the librarian
        /// reindexes. Receptionist caches key their generations on the
        /// fleet-wide sum of these.
        epoch: u64,
        /// Sparse service-latency histogram: `(log-bucket, count)` pairs
        /// in ascending bucket order, microseconds (see
        /// `teraphim-obs` histogram bucketing).
        latency: Vec<(u32, u64)>,
        /// Sparse server-side phase totals: `(phase index, total
        /// microseconds)` pairs in ascending index order, indexing
        /// `teraphim_obs::SERVER_PHASES` (queue wait, scan, rank,
        /// serialize). Empty when the librarian has never measured a
        /// phase — which is also what pre-tracing peers decode to.
        server_phases: Vec<(u32, u64)>,
    },
    /// Admin request: ask a fleet node for its current shard→replica
    /// routing table. Any node holding a
    /// [`crate::replica::RoutingTable`] answers; nodes without one
    /// answer [`Message::Error`].
    RoutingRequest,
    /// Admin response: a versioned snapshot of the routing table. The
    /// version is bumped on every membership change (join, leave,
    /// promote), so receptionists can detect movement with one integer
    /// compare and re-key caches.
    RoutingReply {
        /// Monotonic routing-table version (fleet generation input).
        version: u64,
        /// One entry per shard: `(shard, live replica ids, preferred
        /// replica id)`. Replica ids are stable for the life of the
        /// fleet; the preferred id is always a member of the live list
        /// unless the shard has no replicas (empty list, preferred 0).
        shards: Vec<(u32, Vec<u32>, u32)>,
    },
    /// Admin request: dump the librarian's flight recorder — the
    /// retained tail-latency span-tree exemplars. Librarians without an
    /// attached recorder answer an empty dump, not an error.
    FlightRecRequest,
    /// Admin response: the flight recorder's line-oriented JSON dump
    /// (see `teraphim_obs::FlightRecorder::dump_json`).
    FlightRecReply {
        /// Line-oriented JSON: a summary header, then per exemplar a
        /// summary line followed by its span tree.
        json: String,
    },
}

const TAG_STATS_REQ: u8 = 1;
const TAG_STATS_RESP: u8 = 2;
const TAG_INDEX_REQ: u8 = 3;
const TAG_INDEX_RESP: u8 = 4;
const TAG_RANK_REQ: u8 = 5;
const TAG_RANK_W_REQ: u8 = 6;
const TAG_RANK_RESP: u8 = 7;
const TAG_SCORE_REQ: u8 = 8;
const TAG_SCORE_RESP: u8 = 9;
const TAG_FETCH_REQ: u8 = 10;
const TAG_DOCS_RESP: u8 = 11;
const TAG_ERROR: u8 = 12;
const TAG_HEADERS_REQ: u8 = 13;
const TAG_HEADERS_RESP: u8 = 14;
const TAG_BOOL_REQ: u8 = 15;
const TAG_BOOL_RESP: u8 = 16;
const TAG_UNAVAILABLE: u8 = 17;
const TAG_ADMIN_STATS: u8 = 18;
const TAG_ADMIN_STATS_REPLY: u8 = 19;
const TAG_ROUTING_REQ: u8 = 20;
const TAG_ROUTING_REPLY: u8 = 21;
const TAG_FLIGHTREC_REQ: u8 = 22;
const TAG_FLIGHTREC_REPLY: u8 = 23;

impl Message {
    /// Admin traffic: health polls, routing-table fetches and
    /// flight-recorder dumps. Services answer these out of band (not
    /// counted, not timed), and transports never attach a span context
    /// to them — so polling a fleet perturbs neither the server-side
    /// phase ledger nor the flight recorder it reads.
    #[must_use]
    pub fn is_admin(&self) -> bool {
        matches!(
            self,
            Message::Stats | Message::RoutingRequest | Message::FlightRecRequest
        )
    }

    /// Encodes to the compact wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Message::StatsRequest => out.push(TAG_STATS_REQ),
            Message::StatsResponse {
                num_docs,
                term_freqs,
            } => {
                out.push(TAG_STATS_RESP);
                put_uint(&mut out, *num_docs);
                put_uint(&mut out, term_freqs.len() as u64);
                for (term, f) in term_freqs {
                    put_str(&mut out, term);
                    put_uint(&mut out, *f);
                }
            }
            Message::IndexRequest => out.push(TAG_INDEX_REQ),
            Message::IndexResponse { index_bytes } => {
                out.push(TAG_INDEX_RESP);
                put_bytes(&mut out, index_bytes);
            }
            Message::RankRequest { query_id, k, terms } => {
                out.push(TAG_RANK_REQ);
                put_uint(&mut out, u64::from(*query_id));
                put_uint(&mut out, u64::from(*k));
                put_uint(&mut out, terms.len() as u64);
                for (term, f_qt) in terms {
                    put_str(&mut out, term);
                    put_uint(&mut out, u64::from(*f_qt));
                }
            }
            Message::RankWeightedRequest { query_id, k, terms } => {
                out.push(TAG_RANK_W_REQ);
                put_uint(&mut out, u64::from(*query_id));
                put_uint(&mut out, u64::from(*k));
                put_uint(&mut out, terms.len() as u64);
                for (term, w) in terms {
                    put_str(&mut out, term);
                    put_f64(&mut out, *w);
                }
            }
            Message::RankResponse {
                query_id,
                epoch,
                entries,
            } => {
                out.push(TAG_RANK_RESP);
                put_uint(&mut out, u64::from(*query_id));
                put_uint(&mut out, *epoch);
                put_uint(&mut out, entries.len() as u64);
                for (doc, score) in entries {
                    put_uint(&mut out, u64::from(*doc));
                    put_f64(&mut out, *score);
                }
            }
            Message::ScoreCandidatesRequest {
                query_id,
                terms,
                candidates,
            } => {
                out.push(TAG_SCORE_REQ);
                put_uint(&mut out, u64::from(*query_id));
                put_uint(&mut out, terms.len() as u64);
                for (term, w) in terms {
                    put_str(&mut out, term);
                    put_f64(&mut out, *w);
                }
                // Candidates as d-gaps of the sorted list keeps this the
                // "few bytes each" the paper assumes.
                put_uint(&mut out, candidates.len() as u64);
                let mut prev = 0u32;
                for (i, &c) in candidates.iter().enumerate() {
                    debug_assert!(i == 0 || c >= prev, "candidates must be sorted");
                    let gap = if i == 0 { c } else { c - prev };
                    put_uint(&mut out, u64::from(gap));
                    prev = c;
                }
            }
            Message::ScoreResponse {
                query_id,
                epoch,
                entries,
                postings_decoded,
            } => {
                out.push(TAG_SCORE_RESP);
                put_uint(&mut out, u64::from(*query_id));
                put_uint(&mut out, *epoch);
                put_uint(&mut out, *postings_decoded);
                put_uint(&mut out, entries.len() as u64);
                for (doc, score) in entries {
                    put_uint(&mut out, u64::from(*doc));
                    put_f64(&mut out, *score);
                }
            }
            Message::FetchDocsRequest {
                query_id,
                docs,
                plain,
            } => {
                out.push(TAG_FETCH_REQ);
                put_uint(&mut out, u64::from(*query_id));
                out.push(u8::from(*plain));
                put_uint(&mut out, docs.len() as u64);
                for &d in docs {
                    put_uint(&mut out, u64::from(d));
                }
            }
            Message::FetchHeadersRequest { query_id, docs } => {
                out.push(TAG_HEADERS_REQ);
                put_uint(&mut out, u64::from(*query_id));
                put_uint(&mut out, docs.len() as u64);
                for &d in docs {
                    put_uint(&mut out, u64::from(d));
                }
            }
            Message::HeadersResponse { query_id, headers } => {
                out.push(TAG_HEADERS_RESP);
                put_uint(&mut out, u64::from(*query_id));
                put_uint(&mut out, headers.len() as u64);
                for (doc, docno) in headers {
                    put_uint(&mut out, u64::from(*doc));
                    put_str(&mut out, docno);
                }
            }
            Message::DocsResponse { query_id, docs } => {
                out.push(TAG_DOCS_RESP);
                put_uint(&mut out, u64::from(*query_id));
                put_uint(&mut out, docs.len() as u64);
                for (doc, docno, bytes) in docs {
                    put_uint(&mut out, u64::from(*doc));
                    put_str(&mut out, docno);
                    put_bytes(&mut out, bytes);
                }
            }
            Message::BooleanRequest { query_id, expr } => {
                out.push(TAG_BOOL_REQ);
                put_uint(&mut out, u64::from(*query_id));
                put_str(&mut out, expr);
            }
            Message::BooleanResponse { query_id, docs } => {
                out.push(TAG_BOOL_RESP);
                put_uint(&mut out, u64::from(*query_id));
                put_uint(&mut out, docs.len() as u64);
                // Ascending ids: gap-code them like candidates.
                let mut prev = 0u32;
                for (i, &d) in docs.iter().enumerate() {
                    debug_assert!(i == 0 || d >= prev, "boolean results must be sorted");
                    let gap = if i == 0 { d } else { d - prev };
                    put_uint(&mut out, u64::from(gap));
                    prev = d;
                }
            }
            Message::Error { message } => {
                out.push(TAG_ERROR);
                put_str(&mut out, message);
            }
            Message::Unavailable { message } => {
                out.push(TAG_UNAVAILABLE);
                put_str(&mut out, message);
            }
            Message::Stats => out.push(TAG_ADMIN_STATS),
            Message::StatsReply {
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
            } => {
                out.push(TAG_ADMIN_STATS_REPLY);
                put_str(&mut out, name);
                put_uint(&mut out, *num_docs);
                put_uint(&mut out, *num_terms);
                put_uint(&mut out, *index_bytes);
                put_uint(&mut out, *requests_served);
                put_uint(&mut out, *rank_requests);
                put_uint(&mut out, *errors);
                put_uint(&mut out, *epoch);
                put_uint(&mut out, latency.len() as u64);
                for (bucket, count) in latency {
                    put_uint(&mut out, u64::from(*bucket));
                    put_uint(&mut out, *count);
                }
                put_uint(&mut out, server_phases.len() as u64);
                for (phase, micros) in server_phases {
                    put_uint(&mut out, u64::from(*phase));
                    put_uint(&mut out, *micros);
                }
            }
            Message::RoutingRequest => out.push(TAG_ROUTING_REQ),
            Message::RoutingReply { version, shards } => {
                out.push(TAG_ROUTING_REPLY);
                put_uint(&mut out, *version);
                put_uint(&mut out, shards.len() as u64);
                for (shard, replicas, preferred) in shards {
                    put_uint(&mut out, u64::from(*shard));
                    put_uint(&mut out, replicas.len() as u64);
                    for r in replicas {
                        put_uint(&mut out, u64::from(*r));
                    }
                    put_uint(&mut out, u64::from(*preferred));
                }
            }
            Message::FlightRecRequest => out.push(TAG_FLIGHTREC_REQ),
            Message::FlightRecReply { json } => {
                out.push(TAG_FLIGHTREC_REPLY);
                put_str(&mut out, json);
            }
        }
        out
    }

    /// Decodes the wire form.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Corrupt`] on truncation, unknown tags, or
    /// trailing garbage.
    pub fn decode(buf: &[u8]) -> Result<Message, NetError> {
        let (&tag, rest) = buf
            .split_first()
            .ok_or(NetError::Corrupt("empty message"))?;
        let mut pos = 0usize;
        let msg = match tag {
            TAG_STATS_REQ => Message::StatsRequest,
            TAG_STATS_RESP => {
                let num_docs = get_uint(rest, &mut pos)?;
                let n = get_uint(rest, &mut pos)? as usize;
                let mut term_freqs = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    let term = get_str(rest, &mut pos)?;
                    let f = get_uint(rest, &mut pos)?;
                    term_freqs.push((term, f));
                }
                Message::StatsResponse {
                    num_docs,
                    term_freqs,
                }
            }
            TAG_INDEX_REQ => Message::IndexRequest,
            TAG_INDEX_RESP => Message::IndexResponse {
                index_bytes: get_bytes(rest, &mut pos)?.to_vec(),
            },
            TAG_RANK_REQ => {
                let query_id = get_uint(rest, &mut pos)? as u32;
                let k = get_uint(rest, &mut pos)? as u32;
                let n = get_uint(rest, &mut pos)? as usize;
                let mut terms = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    let term = get_str(rest, &mut pos)?;
                    let f = get_uint(rest, &mut pos)? as u32;
                    terms.push((term, f));
                }
                Message::RankRequest { query_id, k, terms }
            }
            TAG_RANK_W_REQ => {
                let query_id = get_uint(rest, &mut pos)? as u32;
                let k = get_uint(rest, &mut pos)? as u32;
                let n = get_uint(rest, &mut pos)? as usize;
                let mut terms = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    let term = get_str(rest, &mut pos)?;
                    let w = get_f64(rest, &mut pos)?;
                    terms.push((term, w));
                }
                Message::RankWeightedRequest { query_id, k, terms }
            }
            TAG_RANK_RESP => {
                let query_id = get_uint(rest, &mut pos)? as u32;
                let epoch = get_uint(rest, &mut pos)?;
                let n = get_uint(rest, &mut pos)? as usize;
                let mut entries = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    let doc = get_uint(rest, &mut pos)? as u32;
                    let score = get_f64(rest, &mut pos)?;
                    entries.push((doc, score));
                }
                Message::RankResponse {
                    query_id,
                    epoch,
                    entries,
                }
            }
            TAG_SCORE_REQ => {
                let query_id = get_uint(rest, &mut pos)? as u32;
                let nt = get_uint(rest, &mut pos)? as usize;
                let mut terms = Vec::with_capacity(nt.min(1 << 20));
                for _ in 0..nt {
                    let term = get_str(rest, &mut pos)?;
                    let w = get_f64(rest, &mut pos)?;
                    terms.push((term, w));
                }
                let nc = get_uint(rest, &mut pos)? as usize;
                let mut candidates = Vec::with_capacity(nc.min(1 << 20));
                let mut prev = 0u32;
                for i in 0..nc {
                    let raw = get_uint(rest, &mut pos)?;
                    let gap = u32::try_from(raw).map_err(|_| NetError::Corrupt("gap overflow"))?;
                    let c = if i == 0 {
                        gap
                    } else {
                        prev.checked_add(gap)
                            .ok_or(NetError::Corrupt("candidate id overflow"))?
                    };
                    candidates.push(c);
                    prev = c;
                }
                Message::ScoreCandidatesRequest {
                    query_id,
                    terms,
                    candidates,
                }
            }
            TAG_SCORE_RESP => {
                let query_id = get_uint(rest, &mut pos)? as u32;
                let epoch = get_uint(rest, &mut pos)?;
                let postings_decoded = get_uint(rest, &mut pos)?;
                let n = get_uint(rest, &mut pos)? as usize;
                let mut entries = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    let doc = get_uint(rest, &mut pos)? as u32;
                    let score = get_f64(rest, &mut pos)?;
                    entries.push((doc, score));
                }
                Message::ScoreResponse {
                    query_id,
                    epoch,
                    entries,
                    postings_decoded,
                }
            }
            TAG_FETCH_REQ => {
                let query_id = get_uint(rest, &mut pos)? as u32;
                let plain = match rest.get(pos) {
                    Some(0) => false,
                    Some(1) => true,
                    _ => return Err(NetError::Corrupt("bad plain flag")),
                };
                pos += 1;
                let n = get_uint(rest, &mut pos)? as usize;
                let mut docs = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    docs.push(get_uint(rest, &mut pos)? as u32);
                }
                Message::FetchDocsRequest {
                    query_id,
                    docs,
                    plain,
                }
            }
            TAG_HEADERS_REQ => {
                let query_id = get_uint(rest, &mut pos)? as u32;
                let n = get_uint(rest, &mut pos)? as usize;
                let mut docs = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    docs.push(get_uint(rest, &mut pos)? as u32);
                }
                Message::FetchHeadersRequest { query_id, docs }
            }
            TAG_HEADERS_RESP => {
                let query_id = get_uint(rest, &mut pos)? as u32;
                let n = get_uint(rest, &mut pos)? as usize;
                let mut headers = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    let doc = get_uint(rest, &mut pos)? as u32;
                    let docno = get_str(rest, &mut pos)?;
                    headers.push((doc, docno));
                }
                Message::HeadersResponse { query_id, headers }
            }
            TAG_DOCS_RESP => {
                let query_id = get_uint(rest, &mut pos)? as u32;
                let n = get_uint(rest, &mut pos)? as usize;
                let mut docs = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    let doc = get_uint(rest, &mut pos)? as u32;
                    let docno = get_str(rest, &mut pos)?;
                    let bytes = get_bytes(rest, &mut pos)?.to_vec();
                    docs.push((doc, docno, bytes));
                }
                Message::DocsResponse { query_id, docs }
            }
            TAG_BOOL_REQ => {
                let query_id = get_uint(rest, &mut pos)? as u32;
                let expr = get_str(rest, &mut pos)?;
                Message::BooleanRequest { query_id, expr }
            }
            TAG_BOOL_RESP => {
                let query_id = get_uint(rest, &mut pos)? as u32;
                let n = get_uint(rest, &mut pos)? as usize;
                let mut docs = Vec::with_capacity(n.min(1 << 20));
                let mut prev = 0u32;
                for i in 0..n {
                    let raw = get_uint(rest, &mut pos)?;
                    let gap = u32::try_from(raw).map_err(|_| NetError::Corrupt("gap overflow"))?;
                    let d = if i == 0 {
                        gap
                    } else {
                        prev.checked_add(gap)
                            .ok_or(NetError::Corrupt("document id overflow"))?
                    };
                    docs.push(d);
                    prev = d;
                }
                Message::BooleanResponse { query_id, docs }
            }
            TAG_ERROR => Message::Error {
                message: get_str(rest, &mut pos)?,
            },
            TAG_UNAVAILABLE => Message::Unavailable {
                message: get_str(rest, &mut pos)?,
            },
            TAG_ADMIN_STATS => Message::Stats,
            TAG_ADMIN_STATS_REPLY => {
                let name = get_str(rest, &mut pos)?;
                let num_docs = get_uint(rest, &mut pos)?;
                let num_terms = get_uint(rest, &mut pos)?;
                let index_bytes = get_uint(rest, &mut pos)?;
                let requests_served = get_uint(rest, &mut pos)?;
                let rank_requests = get_uint(rest, &mut pos)?;
                let errors = get_uint(rest, &mut pos)?;
                let epoch = get_uint(rest, &mut pos)?;
                let n = get_uint(rest, &mut pos)? as usize;
                let mut latency = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    let bucket = get_uint(rest, &mut pos)? as u32;
                    let count = get_uint(rest, &mut pos)?;
                    latency.push((bucket, count));
                }
                let np = get_uint(rest, &mut pos)? as usize;
                let mut server_phases = Vec::with_capacity(np.min(1 << 20));
                for _ in 0..np {
                    let phase = get_uint(rest, &mut pos)? as u32;
                    let micros = get_uint(rest, &mut pos)?;
                    server_phases.push((phase, micros));
                }
                Message::StatsReply {
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
                }
            }
            TAG_ROUTING_REQ => Message::RoutingRequest,
            TAG_ROUTING_REPLY => {
                let version = get_uint(rest, &mut pos)?;
                let n = get_uint(rest, &mut pos)? as usize;
                let mut shards = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    let shard = get_uint(rest, &mut pos)? as u32;
                    let nr = get_uint(rest, &mut pos)? as usize;
                    let mut replicas = Vec::with_capacity(nr.min(1 << 20));
                    for _ in 0..nr {
                        replicas.push(get_uint(rest, &mut pos)? as u32);
                    }
                    let preferred = get_uint(rest, &mut pos)? as u32;
                    shards.push((shard, replicas, preferred));
                }
                Message::RoutingReply { version, shards }
            }
            TAG_FLIGHTREC_REQ => Message::FlightRecRequest,
            TAG_FLIGHTREC_REPLY => Message::FlightRecReply {
                json: get_str(rest, &mut pos)?,
            },
            _ => return Err(NetError::Corrupt("unknown message tag")),
        };
        if pos != rest.len() {
            return Err(NetError::Corrupt("trailing bytes after message"));
        }
        Ok(msg)
    }

    /// Encoded size in bytes (one encode pass; used by cost accounting).
    pub fn wire_len(&self) -> usize {
        self.encode().len()
    }

    /// The variant's name, e.g. `"RankRequest"` — a stable label for
    /// trace events and fault diagnostics.
    pub fn variant_name(&self) -> &'static str {
        match self {
            Message::StatsRequest => "StatsRequest",
            Message::StatsResponse { .. } => "StatsResponse",
            Message::IndexRequest => "IndexRequest",
            Message::IndexResponse { .. } => "IndexResponse",
            Message::RankRequest { .. } => "RankRequest",
            Message::RankWeightedRequest { .. } => "RankWeightedRequest",
            Message::RankResponse { .. } => "RankResponse",
            Message::ScoreCandidatesRequest { .. } => "ScoreCandidatesRequest",
            Message::ScoreResponse { .. } => "ScoreResponse",
            Message::FetchDocsRequest { .. } => "FetchDocsRequest",
            Message::DocsResponse { .. } => "DocsResponse",
            Message::FetchHeadersRequest { .. } => "FetchHeadersRequest",
            Message::HeadersResponse { .. } => "HeadersResponse",
            Message::BooleanRequest { .. } => "BooleanRequest",
            Message::BooleanResponse { .. } => "BooleanResponse",
            Message::Error { .. } => "Error",
            Message::Unavailable { .. } => "Unavailable",
            Message::Stats => "Stats",
            Message::StatsReply { .. } => "StatsReply",
            Message::RoutingRequest => "RoutingRequest",
            Message::RoutingReply { .. } => "RoutingReply",
            Message::FlightRecRequest => "FlightRecRequest",
            Message::FlightRecReply { .. } => "FlightRecReply",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let bytes = msg.encode();
        assert_eq!(Message::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(Message::StatsRequest);
        roundtrip(Message::StatsResponse {
            num_docs: 1234,
            term_freqs: vec![("alpha".into(), 10), ("beta".into(), 1)],
        });
        roundtrip(Message::IndexRequest);
        roundtrip(Message::IndexResponse {
            index_bytes: vec![1, 2, 3, 255],
        });
        roundtrip(Message::RankRequest {
            query_id: 202,
            k: 20,
            terms: vec![("cat".into(), 1), ("dog".into(), 3)],
        });
        roundtrip(Message::RankWeightedRequest {
            query_id: 51,
            k: 1000,
            terms: vec![("cat".into(), 1.5), ("dog".into(), 0.25)],
        });
        roundtrip(Message::RankResponse {
            query_id: 202,
            epoch: 3,
            entries: vec![(0, 0.9), (7, 0.1)],
        });
        roundtrip(Message::ScoreCandidatesRequest {
            query_id: 1,
            terms: vec![("x".into(), 2.0)],
            candidates: vec![0, 5, 6, 100],
        });
        roundtrip(Message::ScoreResponse {
            query_id: 1,
            epoch: 0,
            entries: vec![(5, 0.4)],
            postings_decoded: 321,
        });
        roundtrip(Message::FetchDocsRequest {
            query_id: 9,
            docs: vec![3, 1, 4],
            plain: false,
        });
        roundtrip(Message::FetchDocsRequest {
            query_id: 9,
            docs: vec![2],
            plain: true,
        });
        roundtrip(Message::FetchHeadersRequest {
            query_id: 4,
            docs: vec![0, 9],
        });
        roundtrip(Message::HeadersResponse {
            query_id: 4,
            headers: vec![(0, "AP-0".into()), (9, "FR-9".into())],
        });
        roundtrip(Message::BooleanRequest {
            query_id: 6,
            expr: "cat AND (dog OR bird)".into(),
        });
        roundtrip(Message::BooleanResponse {
            query_id: 6,
            docs: vec![0, 3, 4, 100],
        });
        roundtrip(Message::BooleanResponse {
            query_id: 6,
            docs: vec![],
        });
        roundtrip(Message::DocsResponse {
            query_id: 9,
            docs: vec![(3, "AP-3".into(), vec![0xDE, 0xAD])],
        });
        roundtrip(Message::Error {
            message: "no such document".into(),
        });
        roundtrip(Message::Unavailable {
            message: "librarian restarting".into(),
        });
        roundtrip(Message::Stats);
        roundtrip(Message::StatsReply {
            name: "lib-2".into(),
            num_docs: 9000,
            num_terms: 12345,
            index_bytes: 1 << 20,
            requests_served: 42,
            rank_requests: 17,
            errors: 2,
            epoch: 5,
            latency: vec![(0, 1), (9, 30), (64, 1)],
            server_phases: vec![(0, 1500), (1, 900), (3, 12)],
        });
        roundtrip(Message::StatsReply {
            name: String::new(),
            num_docs: 0,
            num_terms: 0,
            index_bytes: 0,
            requests_served: 0,
            rank_requests: 0,
            errors: 0,
            epoch: 0,
            latency: vec![],
            server_phases: vec![],
        });
        roundtrip(Message::RoutingRequest);
        roundtrip(Message::RoutingReply {
            version: 7,
            shards: vec![(0, vec![0, 43], 43), (1, vec![1], 1), (2, vec![], 0)],
        });
        roundtrip(Message::RoutingReply {
            version: 0,
            shards: vec![],
        });
        roundtrip(Message::FlightRecRequest);
        roundtrip(Message::FlightRecReply {
            json: "{\"flightrec\":true,\"retained\":0,\"recorded\":0,\"dropped\":0}\n".into(),
        });
    }

    #[test]
    fn empty_collections_roundtrip() {
        roundtrip(Message::RankRequest {
            query_id: 0,
            k: 0,
            terms: vec![],
        });
        roundtrip(Message::RankResponse {
            query_id: 0,
            epoch: 0,
            entries: vec![],
        });
        roundtrip(Message::FetchDocsRequest {
            query_id: 0,
            docs: vec![],
            plain: true,
        });
    }

    #[test]
    fn candidates_are_gap_coded_compactly() {
        // 100 consecutive candidates: gaps of 1 are one byte each.
        let msg = Message::ScoreCandidatesRequest {
            query_id: 1,
            terms: vec![],
            candidates: (1000..1100).collect(),
        };
        // tag + qid(2) + nt(1) + nc(1) + first gap (2) + 99 gaps (1 each)
        assert!(msg.wire_len() < 110, "wire len {}", msg.wire_len());
        roundtrip(msg);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Message::decode(&[]).is_err());
        assert!(Message::decode(&[99]).is_err());
        let mut good = Message::StatsRequest.encode();
        good.push(0); // trailing byte
        assert!(Message::decode(&good).is_err());
    }

    #[test]
    fn decode_rejects_truncation_of_every_variant() {
        let msgs = [
            Message::RankRequest {
                query_id: 202,
                k: 20,
                terms: vec![("catfish".into(), 1)],
            },
            Message::DocsResponse {
                query_id: 9,
                docs: vec![(3, "AP-3".into(), vec![1, 2, 3, 4, 5])],
            },
            Message::StatsReply {
                name: "lib-0".into(),
                num_docs: 5,
                num_terms: 40,
                index_bytes: 900,
                requests_served: 8,
                rank_requests: 3,
                errors: 1,
                epoch: 2,
                latency: vec![(4, 2), (11, 6)],
                server_phases: vec![(1, 800)],
            },
            Message::RoutingReply {
                version: 9,
                shards: vec![(0, vec![0, 300], 300), (5, vec![5], 5)],
            },
        ];
        for msg in msgs {
            let bytes = msg.encode();
            for cut in 1..bytes.len() {
                assert!(Message::decode(&bytes[..cut]).is_err(), "cut {cut}");
            }
        }
    }

    #[test]
    fn rank_response_is_small_for_k_20() {
        // The paper: "Document identifiers are only a few bytes each" —
        // a k=20 ranking must be well under a kilobyte.
        let msg = Message::RankResponse {
            query_id: 202,
            epoch: 1,
            entries: (0..20).map(|d| (d * 37, 1.0 / f64::from(d + 1))).collect(),
        };
        assert!(msg.wire_len() < 250, "wire len {}", msg.wire_len());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn rank_requests_roundtrip(
            query_id in 0u32..1000,
            k in 0u32..2000,
            terms in proptest::collection::vec(("[a-z]{1,12}", 1u32..50), 0..40),
        ) {
            let msg = Message::RankRequest { query_id, k, terms };
            prop_assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
        }

        #[test]
        fn score_requests_roundtrip(
            candidates in proptest::collection::btree_set(0u32..1_000_000, 0..200),
        ) {
            let msg = Message::ScoreCandidatesRequest {
                query_id: 7,
                terms: vec![("t".into(), 1.0)],
                candidates: candidates.into_iter().collect(),
            };
            prop_assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
        }

        #[test]
        fn docs_responses_roundtrip(
            docs in proptest::collection::vec(
                (0u32..10_000, "[A-Z]{2}-[0-9]{4}", proptest::collection::vec(any::<u8>(), 0..100)),
                0..10,
            ),
        ) {
            let msg = Message::DocsResponse { query_id: 3, docs };
            prop_assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
        }

        #[test]
        fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
            let _ = Message::decode(&bytes);
        }
    }
}
