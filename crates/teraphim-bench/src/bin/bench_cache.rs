//! Receptionist-cache benchmark: replays Zipf-skewed query streams
//! through a cache-enabled CV receptionist and writes
//! `BENCH_cache.json` — hit rate as a function of stream skew, and
//! warm (cache-hit) versus cold (cache-miss) latency percentiles.
//!
//! Each skew level draws the same number of queries from the corpus's
//! query pool under `P(rank r) ∝ 1/r^s`: at `s = 0.5` the stream is
//! nearly uniform (few repeats, low hit rate), at `s = 1.5` a handful
//! of hot queries dominate and the result cache answers most of the
//! stream without touching the fleet. The top answer documents of
//! every query are fetched as well, so the answer-document cache sees
//! a matching skewed stream.
//!
//! ```sh
//! cargo run --release -p teraphim-bench --bin bench_cache \
//!     [-- --small] [--seed N] [--out FILE] [--check]
//! ```
//!
//! `--check` exits nonzero if the skewed streams produce a zero hit
//! rate on any cache, or if the metrics registry's cache counters
//! disagree with the receptionist's own tallies — the CI smoke gate.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use teraphim_bench::{corpus_parts, HarnessOptions, TextTable};
use teraphim_core::{CacheConfig, CacheStats, Librarian, Methodology, Receptionist};
use teraphim_corpus::zipf::Zipf;
use teraphim_net::InProcTransport;
use teraphim_obs::{Count, MetricsSnapshot};
use teraphim_text::sgml::TrecDoc;
use teraphim_text::Analyzer;

/// Queries drawn per skew level (per stream).
const STREAM_LEN: usize = 200;
/// Answer size.
const K: usize = 10;
/// Documents fetched per query (exercises the answer-document cache).
const FETCH_TOP: usize = 3;

struct SkewReport {
    skew: f64,
    warm: Vec<u64>,
    cold: Vec<u64>,
    stats: CacheStats,
    snapshot: MetricsSnapshot,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn run_skew(skew: f64, parts: &[(&str, &[TrecDoc])], pool: &[String], seed: u64) -> SkewReport {
    let transports = parts
        .iter()
        .map(|(name, docs)| InProcTransport::new(Librarian::build(name, Analyzer::default(), docs)))
        .collect();
    let mut receptionist = Receptionist::new(transports, Analyzer::default());
    receptionist.enable_cv().expect("CV preprocessing");
    receptionist.enable_cache(CacheConfig::default());
    let registry = receptionist.enable_metrics();

    let zipf = Zipf::new(pool.len(), skew);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut warm = Vec::new();
    let mut cold = Vec::new();
    for _ in 0..STREAM_LEN {
        let query = &pool[zipf.sample(&mut rng)];
        let hits_before = receptionist.cache_stats().expect("cache on").results.hits;
        let started = Instant::now();
        let hits = receptionist
            .query(Methodology::CentralVocabulary, query, K)
            .expect("query evaluation");
        let micros = started.elapsed().as_micros() as u64;
        let was_hit = receptionist.cache_stats().expect("cache on").results.hits > hits_before;
        if was_hit {
            warm.push(micros);
        } else {
            cold.push(micros);
        }
        let top = &hits[..hits.len().min(FETCH_TOP)];
        receptionist.fetch(top, false).expect("document fetch");
    }
    warm.sort_unstable();
    cold.sort_unstable();
    SkewReport {
        skew,
        warm,
        cold,
        stats: receptionist.cache_stats().expect("cache on"),
        snapshot: registry.snapshot(),
    }
}

fn hit_rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

fn render_json(opts: &HarnessOptions, pool_len: usize, reports: &[SkewReport]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"corpus\": \"{}\",\n  \"seed\": {},\n  \"query_pool\": {pool_len},\n  \"stream_len\": {STREAM_LEN},\n  \"k\": {K},\n  \"fetch_top\": {FETCH_TOP},\n",
        if opts.small { "small" } else { "trec-like" },
        opts.seed
    ));
    out.push_str("  \"skews\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let s = &r.stats;
        out.push_str(&format!("    {{\n      \"skew\": {},\n", r.skew));
        out.push_str(&format!(
            "      \"result_hit_rate\": {:.4},\n      \"stats_hit_rate\": {:.4},\n      \"doc_hit_rate\": {:.4},\n",
            hit_rate(s.results.hits, s.results.misses),
            hit_rate(s.terms.hits, s.terms.misses),
            hit_rate(s.docs.hits, s.docs.misses)
        ));
        out.push_str(&format!(
            "      \"warm_queries\": {}, \"cold_queries\": {},\n",
            r.warm.len(),
            r.cold.len()
        ));
        out.push_str(&format!(
            "      \"warm_micros\": {{\"p50\": {}, \"p95\": {}}},\n      \"cold_micros\": {{\"p50\": {}, \"p95\": {}}},\n",
            percentile(&r.warm, 50.0),
            percentile(&r.warm, 95.0),
            percentile(&r.cold, 50.0),
            percentile(&r.cold, 95.0)
        ));
        out.push_str("      \"counters\": {\n");
        for (j, (name, c)) in [("results", s.results), ("stats", s.terms), ("docs", s.docs)]
            .iter()
            .enumerate()
        {
            out.push_str(&format!(
                "        \"{name}\": {{\"hits\": {}, \"misses\": {}, \"stale\": {}, \"evictions\": {}}}{}\n",
                c.hits,
                c.misses,
                c.stale,
                c.evictions,
                if j == 2 { "" } else { "," }
            ));
        }
        out.push_str("      }\n");
        out.push_str(if i + 1 == reports.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// The `--check` gate: skewed streams must actually hit, and the
/// metrics registry (fed by trace events) must agree with the
/// receptionist's own counter mirrors.
fn check(reports: &[SkewReport]) -> Result<(), String> {
    let steepest = reports
        .last()
        .ok_or_else(|| "no skew levels ran".to_owned())?;
    if steepest.stats.results.hits == 0 {
        return Err(format!(
            "skew {}: zero result-cache hits over {STREAM_LEN} queries",
            steepest.skew
        ));
    }
    if steepest.stats.terms.hits == 0 {
        return Err(format!("skew {}: zero term-stats hits", steepest.skew));
    }
    if steepest.stats.docs.hits == 0 {
        return Err(format!("skew {}: zero doc-cache hits", steepest.skew));
    }
    for r in reports {
        // The registry's cache rows, in `CACHE_KINDS` order.
        for (kind, (name, local)) in [
            ("results", r.stats.results),
            ("stats", r.stats.terms),
            ("docs", r.stats.docs),
        ]
        .into_iter()
        .enumerate()
        {
            let registry = Count::cache(kind).map(|count| r.snapshot.counts.get(count));
            if registry != [local.hits, local.misses, local.stale, local.evictions] {
                return Err(format!(
                    "skew {}: registry {name} counters {registry:?} disagree with receptionist {local:?}",
                    r.skew
                ));
            }
        }
    }
    Ok(())
}

fn main() {
    let opts = HarnessOptions::from_args();
    let out_path = opts
        .rest
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| opts.rest.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_cache.json".to_owned());

    let corpus = opts.corpus();
    let parts = corpus_parts(&corpus);
    let pool: Vec<String> = corpus
        .long_queries()
        .iter()
        .chain(corpus.short_queries())
        .map(|q| q.text.clone())
        .collect();

    let reports: Vec<SkewReport> = [0.5, 1.0, 1.5]
        .iter()
        .map(|&skew| run_skew(skew, &parts, &pool, opts.seed))
        .collect();

    println!(
        "Receptionist cache sweep — {} corpus, seed {}, {} queries per skew, pool {}, k = {K}\n",
        if opts.small { "small" } else { "trec-like" },
        opts.seed,
        STREAM_LEN,
        pool.len()
    );
    let mut table = TextTable::new([
        "Skew",
        "hit rate",
        "warm p50(us)",
        "warm p95(us)",
        "cold p50(us)",
        "cold p95(us)",
        "evictions",
    ]);
    for r in &reports {
        table.row([
            format!("{:.1}", r.skew),
            format!(
                "{:.1}%",
                100.0 * hit_rate(r.stats.results.hits, r.stats.results.misses)
            ),
            percentile(&r.warm, 50.0).to_string(),
            percentile(&r.warm, 95.0).to_string(),
            percentile(&r.cold, 50.0).to_string(),
            percentile(&r.cold, 95.0).to_string(),
            (r.stats.results.evictions + r.stats.terms.evictions + r.stats.docs.evictions)
                .to_string(),
        ]);
    }
    println!("{}", table.render());

    let json = render_json(&opts, pool.len(), &reports);
    std::fs::write(&out_path, &json).expect("write report");
    println!("wrote {out_path}");

    if opts.has_flag("--check") {
        if let Err(e) = check(&reports) {
            eprintln!("check failed: {e}");
            std::process::exit(1);
        }
        println!("check passed: skewed streams hit every cache, registry counters agree");
    }
}
