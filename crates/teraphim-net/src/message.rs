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
use std::fmt;
use std::marker::PhantomData;
use teraphim_compress::codes::vbyte_len;

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
        terms: TermList<u32>,
    },
    /// Rank with supplied *global* weights (Central Vocabulary).
    RankWeightedRequest {
        /// Caller-chosen query identifier echoed in the response.
        query_id: u32,
        /// Number of documents wanted.
        k: u32,
        /// `(term, w_qt)` pairs computed by the receptionist.
        terms: TermList<f64>,
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
        terms: TermList<f64>,
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
// 20 and 21 are retired: a new message takes the next free tag, so a
// frame from an older peer never decodes as a different message.
const TAG_FLIGHTREC_REQ: u8 = 22;
const TAG_FLIGHTREC_REPLY: u8 = 23;

/// Room to reserve for `n` elements of at least `width` encoded bytes
/// each: no more than the bytes left after `pos` could hold. A count is
/// a peer's claim, and a few bytes claiming a million elements reserve
/// nothing.
fn room(n: u64, rest: &[u8], pos: usize, width: usize) -> usize {
    let fits = rest.len().saturating_sub(pos) / width;
    usize::try_from(n).map_or(fits, |n| n.min(fits))
}

impl Message {
    /// Admin traffic: health polls and flight-recorder dumps. Services
    /// answer these out of band (not counted, not timed), and transports never attach a span context
    /// to them — so polling a fleet perturbs neither the server-side
    /// phase ledger nor the flight recorder it reads.
    #[must_use]
    pub fn is_admin(&self) -> bool {
        matches!(self, Message::Stats | Message::FlightRecRequest)
    }

    /// Encodes to the compact wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the compact wire form to `out` — in place, behind a
    /// frame's head ([`crate::wire::frame`]).
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Message::StatsRequest => out.push(TAG_STATS_REQ),
            Message::StatsResponse {
                num_docs,
                term_freqs,
            } => {
                out.push(TAG_STATS_RESP);
                put_uint(out, *num_docs);
                put_uint(out, term_freqs.len() as u64);
                for (term, f) in term_freqs {
                    put_str(out, term);
                    put_uint(out, *f);
                }
            }
            Message::IndexRequest => out.push(TAG_INDEX_REQ),
            Message::IndexResponse { index_bytes } => {
                out.push(TAG_INDEX_RESP);
                put_bytes(out, index_bytes);
            }
            Message::RankRequest { query_id, k, terms } => {
                out.push(TAG_RANK_REQ);
                put_uint(out, u64::from(*query_id));
                put_uint(out, u64::from(*k));
                out.extend_from_slice(&terms.bytes);
            }
            Message::RankWeightedRequest { query_id, k, terms } => {
                out.push(TAG_RANK_W_REQ);
                put_uint(out, u64::from(*query_id));
                put_uint(out, u64::from(*k));
                out.extend_from_slice(&terms.bytes);
            }
            Message::RankResponse {
                query_id,
                epoch,
                entries,
            } => {
                out.push(TAG_RANK_RESP);
                put_uint(out, u64::from(*query_id));
                put_uint(out, *epoch);
                put_uint(out, entries.len() as u64);
                for (doc, score) in entries {
                    put_uint(out, u64::from(*doc));
                    put_f64(out, *score);
                }
            }
            Message::ScoreCandidatesRequest {
                query_id,
                terms,
                candidates,
            } => {
                out.push(TAG_SCORE_REQ);
                put_uint(out, u64::from(*query_id));
                out.extend_from_slice(&terms.bytes);
                // Candidates as d-gaps of the sorted list keeps this the
                // "few bytes each" the paper assumes.
                put_uint(out, candidates.len() as u64);
                let mut prev = 0u32;
                for (i, &c) in candidates.iter().enumerate() {
                    debug_assert!(i == 0 || c >= prev, "candidates must be sorted");
                    let gap = if i == 0 { c } else { c - prev };
                    put_uint(out, u64::from(gap));
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
                put_uint(out, u64::from(*query_id));
                put_uint(out, *epoch);
                put_uint(out, *postings_decoded);
                put_uint(out, entries.len() as u64);
                for (doc, score) in entries {
                    put_uint(out, u64::from(*doc));
                    put_f64(out, *score);
                }
            }
            Message::FetchDocsRequest {
                query_id,
                docs,
                plain,
            } => {
                out.push(TAG_FETCH_REQ);
                put_uint(out, u64::from(*query_id));
                out.push(u8::from(*plain));
                put_uint(out, docs.len() as u64);
                for &d in docs {
                    put_uint(out, u64::from(d));
                }
            }
            Message::FetchHeadersRequest { query_id, docs } => {
                out.push(TAG_HEADERS_REQ);
                put_uint(out, u64::from(*query_id));
                put_uint(out, docs.len() as u64);
                for &d in docs {
                    put_uint(out, u64::from(d));
                }
            }
            Message::HeadersResponse { query_id, headers } => {
                out.push(TAG_HEADERS_RESP);
                put_uint(out, u64::from(*query_id));
                put_uint(out, headers.len() as u64);
                for (doc, docno) in headers {
                    put_uint(out, u64::from(*doc));
                    put_str(out, docno);
                }
            }
            Message::DocsResponse { query_id, docs } => {
                out.push(TAG_DOCS_RESP);
                put_uint(out, u64::from(*query_id));
                put_uint(out, docs.len() as u64);
                for (doc, docno, bytes) in docs {
                    put_uint(out, u64::from(*doc));
                    put_str(out, docno);
                    put_bytes(out, bytes);
                }
            }
            Message::BooleanRequest { query_id, expr } => {
                out.push(TAG_BOOL_REQ);
                put_uint(out, u64::from(*query_id));
                put_str(out, expr);
            }
            Message::BooleanResponse { query_id, docs } => {
                out.push(TAG_BOOL_RESP);
                put_uint(out, u64::from(*query_id));
                put_uint(out, docs.len() as u64);
                // Ascending ids: gap-code them like candidates.
                let mut prev = 0u32;
                for (i, &d) in docs.iter().enumerate() {
                    debug_assert!(i == 0 || d >= prev, "boolean results must be sorted");
                    let gap = if i == 0 { d } else { d - prev };
                    put_uint(out, u64::from(gap));
                    prev = d;
                }
            }
            Message::Error { message } => {
                out.push(TAG_ERROR);
                put_str(out, message);
            }
            Message::Unavailable { message } => {
                out.push(TAG_UNAVAILABLE);
                put_str(out, message);
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
                put_str(out, name);
                put_uint(out, *num_docs);
                put_uint(out, *num_terms);
                put_uint(out, *index_bytes);
                put_uint(out, *requests_served);
                put_uint(out, *rank_requests);
                put_uint(out, *errors);
                put_uint(out, *epoch);
                put_uint(out, latency.len() as u64);
                for (bucket, count) in latency {
                    put_uint(out, u64::from(*bucket));
                    put_uint(out, *count);
                }
                put_uint(out, server_phases.len() as u64);
                for (phase, micros) in server_phases {
                    put_uint(out, u64::from(*phase));
                    put_uint(out, *micros);
                }
            }
            Message::FlightRecRequest => out.push(TAG_FLIGHTREC_REQ),
            Message::FlightRecReply { json } => {
                out.push(TAG_FLIGHTREC_REPLY);
                put_str(out, json);
            }
        }
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
                let n = get_uint(rest, &mut pos)?;
                let mut term_freqs = Vec::with_capacity(room(n, rest, pos, 2));
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
            TAG_RANK_REQ => Message::RankRequest {
                query_id: get_uint(rest, &mut pos)? as u32,
                k: get_uint(rest, &mut pos)? as u32,
                terms: TermList::decode(rest, &mut pos)?,
            },
            TAG_RANK_W_REQ => Message::RankWeightedRequest {
                query_id: get_uint(rest, &mut pos)? as u32,
                k: get_uint(rest, &mut pos)? as u32,
                terms: TermList::decode(rest, &mut pos)?,
            },
            TAG_RANK_RESP => {
                let query_id = get_uint(rest, &mut pos)? as u32;
                let epoch = get_uint(rest, &mut pos)?;
                let n = get_uint(rest, &mut pos)?;
                let mut entries = Vec::with_capacity(room(n, rest, pos, 9));
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
                let terms = TermList::decode(rest, &mut pos)?;
                let nc = get_uint(rest, &mut pos)?;
                let mut candidates = Vec::with_capacity(room(nc, rest, pos, 1));
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
                let n = get_uint(rest, &mut pos)?;
                let mut entries = Vec::with_capacity(room(n, rest, pos, 9));
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
                let n = get_uint(rest, &mut pos)?;
                let mut docs = Vec::with_capacity(room(n, rest, pos, 1));
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
                let n = get_uint(rest, &mut pos)?;
                let mut docs = Vec::with_capacity(room(n, rest, pos, 1));
                for _ in 0..n {
                    docs.push(get_uint(rest, &mut pos)? as u32);
                }
                Message::FetchHeadersRequest { query_id, docs }
            }
            TAG_HEADERS_RESP => {
                let query_id = get_uint(rest, &mut pos)? as u32;
                let n = get_uint(rest, &mut pos)?;
                let mut headers = Vec::with_capacity(room(n, rest, pos, 2));
                for _ in 0..n {
                    let doc = get_uint(rest, &mut pos)? as u32;
                    let docno = get_str(rest, &mut pos)?;
                    headers.push((doc, docno));
                }
                Message::HeadersResponse { query_id, headers }
            }
            TAG_DOCS_RESP => {
                let query_id = get_uint(rest, &mut pos)? as u32;
                let n = get_uint(rest, &mut pos)?;
                let mut docs = Vec::with_capacity(room(n, rest, pos, 3));
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
                let n = get_uint(rest, &mut pos)?;
                let mut docs = Vec::with_capacity(room(n, rest, pos, 1));
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
                let n = get_uint(rest, &mut pos)?;
                let mut latency = Vec::with_capacity(room(n, rest, pos, 2));
                for _ in 0..n {
                    let bucket = get_uint(rest, &mut pos)? as u32;
                    let count = get_uint(rest, &mut pos)?;
                    latency.push((bucket, count));
                }
                let np = get_uint(rest, &mut pos)?;
                let mut server_phases = Vec::with_capacity(room(np, rest, pos, 2));
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
            Message::FlightRecRequest => "FlightRecRequest",
            Message::FlightRecReply { .. } => "FlightRecReply",
        }
    }
}

/// A query's `(term, weight)` pairs as they travel, in one buffer that
/// holds the term section exactly as the wire carries it: the count,
/// then each term's length-prefixed bytes and its weight (`f_qt` as a
/// v-byte under CN, `w_qt` as its eight bit-pattern bytes under CV and
/// CI). The receptionist builds the list once a query, and every
/// librarian's request copies its bytes; a librarian decodes it with
/// one allocation, however many terms it holds, and reads the pairs in
/// place ([`TermList::iter`]).
///
/// The bytes are canonical (every v-byte as short as it can be), so
/// two lists are equal when they hold the same pairs, weights compared
/// to the bit.
#[derive(Clone, PartialEq)]
pub struct TermList<W> {
    bytes: Vec<u8>,
    weight: PhantomData<W>,
}

mod weight {
    use crate::NetError;

    /// How one kind of term weight travels.
    pub trait Weight: Copy {
        /// Appends the weight's wire form.
        fn put(self, out: &mut Vec<u8>);
        /// Reads a weight at `pos`.
        fn get(buf: &[u8], pos: &mut usize) -> Result<Self, NetError>;
        /// Bytes `put` appends.
        fn wire_len(self) -> usize;
    }
}
use weight::Weight;

impl Weight for u32 {
    fn put(self, out: &mut Vec<u8>) {
        put_uint(out, u64::from(self));
    }

    /// A count beyond 32 bits is read modulo 2^32, as `f_qt` always was.
    fn get(buf: &[u8], pos: &mut usize) -> Result<u32, NetError> {
        Ok(get_uint(buf, pos)? as u32)
    }

    fn wire_len(self) -> usize {
        vbyte_len(u64::from(self))
    }
}

impl Weight for f64 {
    fn put(self, out: &mut Vec<u8>) {
        put_f64(out, self);
    }

    fn get(buf: &[u8], pos: &mut usize) -> Result<f64, NetError> {
        get_f64(buf, pos)
    }

    fn wire_len(self) -> usize {
        8
    }
}

impl<W: Weight> TermList<W> {
    /// The pairs, in order, read from the buffer.
    pub fn iter(&self) -> impl Iterator<Item = (&str, W)> + '_ {
        pairs(&self.bytes)
    }

    /// Reads the term section at `pos`, checking it once — count,
    /// v-bytes, UTF-8, weights — and copies it once. A section that is
    /// well formed but not canonical is re-encoded.
    fn decode(buf: &[u8], pos: &mut usize) -> Result<Self, NetError> {
        let start = *pos;
        let len = get_uint(buf, pos)?;
        let mut canonical = vbyte_len(len);
        for _ in 0..len {
            let term = get_bytes(buf, pos)?;
            std::str::from_utf8(term).map_err(|_| NetError::Corrupt("string not UTF-8"))?;
            canonical += vbyte_len(term.len() as u64) + term.len() + W::get(buf, pos)?.wire_len();
        }
        let section = &buf[start..*pos];
        if section.len() == canonical {
            return Ok(TermList {
                bytes: section.to_vec(),
                weight: PhantomData,
            });
        }
        Ok(pairs(section).collect())
    }
}

/// The pairs of a checked term section.
fn pairs<W: Weight>(section: &[u8]) -> impl Iterator<Item = (&str, W)> + '_ {
    let mut pos = 0;
    let len = get_uint(section, &mut pos).expect("a term list holds checked pairs");
    (0..len).map(move |_| {
        let term = get_bytes(section, &mut pos)
            .ok()
            .and_then(|term| std::str::from_utf8(term).ok())
            .expect("a term list holds checked pairs");
        let weight = W::get(section, &mut pos).expect("a term list holds checked pairs");
        (term, weight)
    })
}

impl<S: AsRef<str>, W: Weight> FromIterator<(S, W)> for TermList<W> {
    fn from_iter<I: IntoIterator<Item = (S, W)>>(pairs: I) -> Self {
        let mut bytes = Vec::new();
        let mut len = 0usize;
        for (term, weight) in pairs {
            put_str(&mut bytes, term.as_ref());
            weight.put(&mut bytes);
            len += 1;
        }
        // The count leads the section but is known last.
        let body = bytes.len();
        put_uint(&mut bytes, len as u64);
        let count = bytes.len() - body;
        bytes.rotate_right(count);
        TermList {
            bytes,
            weight: PhantomData,
        }
    }
}

impl<W: Weight> From<Vec<(String, W)>> for TermList<W> {
    fn from(pairs: Vec<(String, W)>) -> Self {
        pairs.into_iter().collect()
    }
}

impl<W: Weight + fmt::Debug> fmt::Debug for TermList<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
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
            terms: vec![("cat".into(), 1), ("dog".into(), 3)].into(),
        });
        roundtrip(Message::RankWeightedRequest {
            query_id: 51,
            k: 1000,
            terms: vec![("cat".into(), 1.5), ("dog".into(), 0.25)].into(),
        });
        roundtrip(Message::RankResponse {
            query_id: 202,
            epoch: 3,
            entries: vec![(0, 0.9), (7, 0.1)],
        });
        roundtrip(Message::ScoreCandidatesRequest {
            query_id: 1,
            terms: vec![("x".into(), 2.0)].into(),
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
            terms: vec![].into(),
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

    /// The bytes of each term-carrying request, pinned: the term list
    /// travels exactly as the pairs always have.
    #[test]
    fn term_carrying_requests_keep_their_bytes() {
        let cn = Message::RankRequest {
            query_id: 202,
            k: 20,
            terms: vec![("cat".into(), 1), ("dog".into(), 300)].into(),
        };
        assert_eq!(
            cn.encode(),
            [
                5, 0x4A, 0x81, 0x94, 0x82, 0x83, b'c', b'a', b't', 0x81, 0x83, b'd', b'o', b'g',
                0x2C, 0x82
            ]
        );
        let cv = Message::RankWeightedRequest {
            query_id: 1,
            k: 5,
            terms: vec![("ab".into(), 1.5)].into(),
        };
        assert_eq!(
            cv.encode(),
            [6, 0x81, 0x85, 0x81, 0x82, b'a', b'b', 0, 0, 0, 0, 0, 0, 0xF8, 0x3F]
        );
        let ci = Message::ScoreCandidatesRequest {
            query_id: 1,
            terms: vec![("ab".into(), -2.0)].into(),
            candidates: vec![4, 6],
        };
        assert_eq!(
            ci.encode(),
            [8, 0x81, 0x81, 0x82, b'a', b'b', 0, 0, 0, 0, 0, 0, 0, 0xC0, 0x82, 0x84, 0x82]
        );
    }

    /// A well-formed term section spelled with longer v-bytes than it
    /// needs, or an `f_qt` past 32 bits, decodes to the list of the same
    /// pairs, and re-encodes canonically.
    #[test]
    fn a_non_canonical_term_section_decodes_to_the_canonical_list() {
        let canonical = Message::RankRequest {
            query_id: 1,
            k: 2,
            terms: vec![("ab".into(), 1)].into(),
        };
        // Count 1 and length 2 in two bytes each; f_qt = 2^32 + 1.
        let mut padded = vec![TAG_RANK_REQ, 0x81, 0x82, 0x01, 0x80, 0x02, 0x80, b'a', b'b'];
        put_uint(&mut padded, (1 << 32) + 1);
        let decoded = Message::decode(&padded).unwrap();
        assert_eq!(decoded, canonical);
        assert_eq!(decoded.encode(), canonical.encode());
    }

    #[test]
    fn candidates_are_gap_coded_compactly() {
        // 100 consecutive candidates: gaps of 1 are one byte each.
        let msg = Message::ScoreCandidatesRequest {
            query_id: 1,
            terms: vec![].into(),
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

    /// A peer's length claim is arithmetic on hostile input: a term that
    /// claims `u64::MAX` bytes must be `Corrupt`, not an overflow.
    #[test]
    fn decode_rejects_a_length_that_overflows_the_position() {
        let mut frame = vec![TAG_RANK_REQ, 0x81, 0x81, 0x81];
        put_uint(&mut frame, u64::MAX);
        assert_eq!(frame.len(), 14);
        assert!(matches!(Message::decode(&frame), Err(NetError::Corrupt(_))));
    }

    #[test]
    fn decode_rejects_truncation_of_every_variant() {
        let msgs = [
            Message::RankRequest {
                query_id: 202,
                k: 20,
                terms: vec![("catfish".into(), 1)].into(),
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
        /// Every term-carrying request encodes exactly as it did when
        /// each pair was written out in turn, decodes to itself, and
        /// lends back the pairs it was built from.
        fn term_lists_encode_as_pairs_written_in_turn(
            query_id in 0u32..1000,
            k in 0u32..2000,
            counts in proptest::collection::vec(("[a-z]{0,12}", any::<u32>()), 0..40),
            weights in proptest::collection::vec(("[a-zé]{1,12}", any::<u64>()), 0..40),
        ) {
            let weights: Vec<(String, f64)> =
                weights.into_iter().map(|(t, w)| (t, f64::from_bits(w))).collect();
            // The parent encoder: tag, fields, count, then each pair.
            let head = |tag: u8, fields: &[u64], n: usize| {
                let mut out = vec![tag];
                for &field in fields {
                    put_uint(&mut out, field);
                }
                put_uint(&mut out, n as u64);
                out
            };
            let mut cn = head(TAG_RANK_REQ, &[query_id.into(), k.into()], counts.len());
            for (term, f_qt) in &counts {
                put_str(&mut cn, term);
                put_uint(&mut cn, u64::from(*f_qt));
            }
            let mut cv = head(TAG_RANK_W_REQ, &[query_id.into(), k.into()], weights.len());
            let mut ci = head(TAG_SCORE_REQ, &[query_id.into()], weights.len());
            for out in [&mut cv, &mut ci] {
                for (term, w) in &weights {
                    put_str(out, term);
                    put_f64(out, *w);
                }
            }
            put_uint(&mut ci, 2);
            put_uint(&mut ci, 3);
            put_uint(&mut ci, 4);
            let msgs = [
                Message::RankRequest { query_id, k, terms: counts.clone().into() },
                Message::RankWeightedRequest { query_id, k, terms: weights.clone().into() },
                Message::ScoreCandidatesRequest {
                    query_id,
                    terms: weights.clone().into(),
                    candidates: vec![3, 7],
                },
            ];
            for (msg, parent) in msgs.iter().zip([cn, cv, ci]) {
                prop_assert_eq!(&msg.encode(), &parent);
                prop_assert_eq!(&Message::decode(&parent).unwrap(), msg);
            }
            let Message::RankRequest { terms, .. } = &msgs[0] else { unreachable!() };
            let lent: Vec<(String, u32)> = terms.iter().map(|(t, f)| (t.to_owned(), f)).collect();
            prop_assert_eq!(lent, counts);
            let Message::RankWeightedRequest { terms, .. } = &msgs[1] else { unreachable!() };
            prop_assert_eq!(terms.iter().count(), weights.len());
            for ((t, w), (want_t, want_w)) in terms.iter().zip(&weights) {
                prop_assert_eq!((t, w.to_bits()), (want_t.as_str(), want_w.to_bits()));
            }
        }

        fn score_requests_roundtrip(
            candidates in proptest::collection::btree_set(0u32..1_000_000, 0..200),
        ) {
            let msg = Message::ScoreCandidatesRequest {
                query_id: 7,
                terms: vec![("t".into(), 1.0)].into(),
                candidates: candidates.into_iter().collect(),
            };
            prop_assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
        }

        fn docs_responses_roundtrip(
            docs in proptest::collection::vec(
                (0u32..10_000, "[A-Z]{2}-[0-9]{4}", proptest::collection::vec(any::<u8>(), 0..100)),
                0..10,
            ),
        ) {
            let msg = Message::DocsResponse { query_id: 3, docs };
            prop_assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
        }

        fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
            let _ = Message::decode(&bytes);
        }
    }
}
