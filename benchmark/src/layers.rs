//! Per-layer metrics of the traced pass: what the benchmark's spans,
//! the program's own `TraceSink`, the server phase ledger and direct
//! in-process calls each contribute.
//!
//! A per-layer metric a workload does not exercise is reported as 0
//! (`put_zeroes` first, then each source overwrites what it measured):
//! cache metrics outside `mixed_zipf_open`, store metrics outside
//! `ingest_reopen`. The prediction for those cells is "no change".

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use teraphim_core::Librarian;
use teraphim_net::{Message, Transport};
use teraphim_obs::{EventKind, QueryTrace};
use teraphim_text::Analyzer;

use crate::catalog;
use crate::report::RunResult;
use crate::spans::{self, SpanRec};
use crate::stats::{percentile, tail};

/// Documents sampled for the text and decompression measurements.
const DOC_SAMPLE: usize = 300;
/// `Stats` pings for the round-trip measurement.
const PINGS: usize = 200;

pub fn put_zeroes(out: &mut RunResult) {
    for m in catalog::PER_LAYER {
        if out.get(m.name).is_none() {
            out.put(m.name, 0.0);
        }
    }
}

fn sorted_ns(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Metrics read off the benchmark's own spans: engine handler times by
/// request kind, the exchange's and the receptionist's self time,
/// session checkout wait, and spans per operation. Also checks that
/// self times add up to each root span.
pub fn from_spans(out: &mut RunResult, spans: &[SpanRec], ops: usize) {
    let own = spans::self_times(spans);
    let durations = |name: &str| {
        sorted_ns(
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(SpanRec::duration_ns)
                .collect(),
        )
    };
    let rank = durations("engine.rank");
    out.put_timed("engine.rank_us_p50", us(percentile(&rank, 0.5)), rank.len());
    out.put_timed("engine.rank_us_p95", us(tail(&rank, 0.95)), rank.len());
    // A fan-out waits for its slowest shard: per operation, the longest
    // rank handler.
    let mut slowest: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "engine.rank") {
        let e = slowest.entry(s.op).or_insert(0);
        *e = (*e).max(s.duration_ns());
    }
    let slowest = sorted_ns(slowest.into_values().collect());
    out.put_timed(
        "engine.rank_slowest_shard_us_p50",
        us(percentile(&slowest, 0.5)),
        slowest.len(),
    );
    let fetch = durations("engine.fetch");
    out.put_timed(
        "engine.fetch_us_p50",
        us(percentile(&fetch, 0.5)),
        fetch.len(),
    );
    let session = durations("core.session");
    out.put_timed(
        "core.session_wait_us_p95",
        us(tail(&session, 0.95)),
        session.len(),
    );

    let exchange_self = sorted_ns(
        spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == "net.exchange")
            .map(|(_, &t)| t)
            .collect(),
    );
    out.put_timed(
        "net.exchange_self_us_p50",
        us(percentile(&exchange_self, 0.5)),
        exchange_self.len(),
    );
    let mut core_self: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for (s, &t) in spans.iter().zip(&own) {
        if s.name == "core.query" || s.name == "core.fetch" {
            *core_self.entry(s.op).or_insert(0) += t;
        }
    }
    let core_self = sorted_ns(core_self.into_values().collect());
    out.put_timed(
        "core.receptionist_self_us_p50",
        us(percentile(&core_self, 0.5)),
        core_self.len(),
    );
    out.put(
        "obs.spans_per_query",
        spans.len() as f64 / ops.max(1) as f64,
    );

    let cores = crate::env::nproc();
    let gap = spans::worst_root_gap(spans, cores);
    let shares = spans::layer_times(spans, cores);
    let total: f64 = shares.iter().map(|(_, t)| t).sum();
    out.notes.push(format!(
        "wall time by layer on {cores} cores: {}; attributed times sum to within {:.3} % of every root span",
        shares
            .iter()
            .map(|(layer, t)| format!("{layer} {:.1} %", 100.0 * t / total.max(1.0)))
            .collect::<Vec<_>>()
            .join(", "),
        100.0 * gap
    ));
    if gap > 0.05 {
        out.violation(format!(
            "attributed times differ from a root span by {:.1} %, more than 5 %",
            100.0 * gap
        ));
    }
}

/// Metrics read off the program's own `TraceSink`: the server phases
/// every reply echoes, merge sizes, and the failure events that should
/// not occur.
pub fn from_traces(out: &mut RunResult, traces: &[QueryTrace]) {
    let mut phases: [Vec<u64>; 4] = Default::default();
    let (mut timeouts, mut retries, mut failovers) = (0u64, 0u64, 0u64);
    let (mut merged, mut queries) = (0u64, 0u64);
    for trace in traces {
        if trace.op == "query" {
            queries += 1;
        }
        for event in &trace.events {
            match &event.kind {
                EventKind::ServerPhase { phase, micros, .. } => {
                    if let Some(i) = teraphim_obs::server_phase_index(phase) {
                        phases[i].push(*micros);
                    }
                }
                EventKind::Timeout { .. } => timeouts += 1,
                EventKind::Retry { .. } => retries += 1,
                EventKind::Failover { .. } => failovers += 1,
                EventKind::Merge { entries, .. } => merged += entries,
                _ => {}
            }
        }
    }
    let [queue, scan, rank, serialize] = phases.map(sorted_ns);
    out.put_timed(
        "net.server_queue_wait_us_p50",
        percentile(&queue, 0.5) as f64,
        queue.len(),
    );
    out.put_timed(
        "net.server_queue_wait_us_p95",
        tail(&queue, 0.95) as f64,
        queue.len(),
    );
    out.put_timed(
        "net.server_scan_us_p50",
        percentile(&scan, 0.5) as f64,
        scan.len(),
    );
    out.put_timed(
        "net.server_rank_us_p50",
        percentile(&rank, 0.5) as f64,
        rank.len(),
    );
    out.put_timed(
        "net.server_serialize_us_p50",
        percentile(&serialize, 0.5) as f64,
        serialize.len(),
    );
    out.put("net.timeouts", timeouts as f64);
    out.put("net.retries", retries as f64);
    out.put("net.failovers", failovers as f64);
    let per_query = |total: u64| total as f64 / queries.max(1) as f64;
    out.put("core.merged_entries_per_query", per_query(merged));
}

/// Encode and decode cost per byte over the messages that crossed the
/// wire during the traced replay.
pub fn codec(out: &mut RunResult, messages: &[Message]) {
    if messages.is_empty() {
        return;
    }
    let started = Instant::now();
    let encoded: Vec<Vec<u8>> = messages.iter().map(|m| black_box(m).encode()).collect();
    let encode_ns = started.elapsed().as_nanos() as f64;
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    let started = Instant::now();
    for frame in &encoded {
        black_box(Message::decode(black_box(frame)).expect("a message that was just encoded"));
    }
    let decode_ns = started.elapsed().as_nanos() as f64;
    out.put_timed(
        "net.codec_encode_ns_per_byte",
        encode_ns / bytes.max(1) as f64,
        messages.len(),
    );
    out.put_timed(
        "net.codec_decode_ns_per_byte",
        decode_ns / bytes.max(1) as f64,
        messages.len(),
    );
}

/// Round trip of an admin `Stats` ping over `transport`: the wire and
/// the serving stack with no engine work behind it.
pub fn ping<T: Transport>(out: &mut RunResult, transport: &mut T) {
    // The first ping makes the librarian size its index; leave it out.
    let _ = transport.request(&Message::Stats);
    let mut rtts = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let started = Instant::now();
        if transport.request(&Message::Stats).is_ok() {
            rtts.push(started.elapsed().as_nanos() as u64);
        }
    }
    let rtts = sorted_ns(rtts);
    out.put_timed(
        "net.loopback_rtt_us_p50",
        us(percentile(&rtts, 0.5)),
        rtts.len(),
    );
}

/// Sum of the scan, rank and serialize totals of every librarian's
/// phase ledger, in microseconds, read over the public `Stats` message.
pub fn ledger_busy_micros<T: Transport>(transports: &mut [T]) -> u64 {
    transports
        .iter_mut()
        .filter_map(|t| match t.request(&Message::Stats) {
            Ok(Message::StatsReply { server_phases, .. }) => Some(
                server_phases
                    .iter()
                    .filter(|(phase, _)| *phase != 0)
                    .map(|(_, micros)| micros)
                    .sum::<u64>(),
            ),
            _ => None,
        })
        .sum()
}

/// Direct in-process calls into `text`, `compress` and `index` over the
/// librarians' own collections: query and document analysis, document
/// decompression, postings per query, posting decode cost and size.
/// Returns the postings the given queries touch, summed over shards.
pub fn direct(out: &mut RunResult, librarians: &[Arc<Mutex<Librarian>>], queries: &[&str]) -> u64 {
    let analyzer = Analyzer::default();
    let started = Instant::now();
    for q in queries {
        black_box(analyzer.analyze(black_box(q)));
    }
    out.put_timed(
        "text.analyze_query_us",
        started.elapsed().as_nanos() as f64 / 1e3 / queries.len().max(1) as f64,
        queries.len(),
    );

    let (mut raw, mut compressed) = (0usize, 0usize);
    let (mut postings_total, mut postings_bytes) = (0u64, 0usize);
    let mut touched = 0u64;
    let (mut decoded, mut decode_ns) = (0u64, 0u128);
    let mut decompress_ns = Vec::new();
    let (mut analyzed_bytes, mut analyze_ns) = (0usize, 0u128);
    for librarian in librarians {
        let librarian = librarian.lock().expect("librarian lock");
        let collection = librarian.collection();
        let index = collection.index();
        raw += collection.store().raw_bytes_total();
        compressed += collection.store().compressed_bytes_total();
        postings_bytes += index.postings_bytes();
        postings_total += index
            .vocab()
            .iter()
            .map(|(id, _)| index.stats().doc_freq(id))
            .sum::<u64>();
        for q in queries {
            for (term, _) in collection.analyze_query(q) {
                touched += index.stats().doc_freq(term);
                let started = Instant::now();
                for posting in index.postings(term).iter() {
                    let _ = black_box(posting);
                    decoded += 1;
                }
                decode_ns += started.elapsed().as_nanos();
            }
        }
        let docs = collection.num_docs() as usize;
        let per_shard = (DOC_SAMPLE / librarians.len()).max(1).min(docs);
        for i in 0..per_shard {
            let doc = (i * docs / per_shard) as u32;
            let started = Instant::now();
            let text = collection.fetch(doc).expect("a document of this shard");
            decompress_ns.push(started.elapsed().as_nanos() as u64);
            let started = Instant::now();
            black_box(analyzer.analyze(&text));
            analyze_ns += started.elapsed().as_nanos();
            analyzed_bytes += text.len();
        }
    }
    let decompress_ns = sorted_ns(decompress_ns);
    out.put_timed(
        "compress.doc_decompress_us",
        us(percentile(&decompress_ns, 0.5)),
        decompress_ns.len(),
    );
    out.put("compress.text_ratio", compressed as f64 / raw.max(1) as f64);
    out.put_timed(
        "text.analyze_doc_mb_per_s",
        analyzed_bytes as f64 / 1e6 / (analyze_ns as f64 / 1e9).max(1e-9),
        decompress_ns.len(),
    );
    out.put(
        "index.postings_per_query",
        touched as f64 / queries.len().max(1) as f64,
    );
    out.put_timed(
        "index.decode_ns_per_posting",
        decode_ns as f64 / decoded.max(1) as f64,
        decoded as usize,
    );
    out.put(
        "index.bytes_per_posting",
        postings_bytes as f64 / postings_total.max(1) as f64,
    );
    touched
}
