//! Fleet-metrics benchmark: runs the MS/CN/CV/CI query sweep through a
//! metrics-teed receptionist and writes `BENCH_fleet.json` — the
//! repo-root benchmark trajectory file future PRs regress against.
//!
//! Each methodology gets a fresh receptionist and a fresh
//! `MetricsRegistry`, enabled *after* any CV/CI preprocessing so the
//! recorded latencies and traffic cover exactly the query path the
//! paper's cost tables discuss. MS (mono-server) runs the CN path over
//! a single merged librarian: with S = 1, Central Nothing *is* the
//! mono-server methodology — local statistics are global — so all four
//! rows exercise the identical instrumented code.
//!
//! ```sh
//! cargo run --release -p teraphim-bench --bin bench_metrics \
//!     [-- --small] [--seed N] [--out FILE] [--check]
//! ```
//!
//! `--check` exits nonzero if any per-methodology counter that must be
//! nonzero is zero, if the cache-free sweep recorded any cache events
//! (see `bench_cache` for the cache trajectory), or if the Prometheus
//! exposition fails the format lint — the CI smoke gate.

use teraphim_bench::{corpus_parts, HarnessOptions, TextTable};
use teraphim_core::{CiParams, Librarian, Methodology, Receptionist};
use teraphim_net::InProcTransport;
use teraphim_obs::Json;
use teraphim_obs::{lint_prometheus, Count, MetricsSnapshot, CACHE_KINDS};
use teraphim_text::sgml::TrecDoc;
use teraphim_text::Analyzer;

/// One methodology's rolled-up numbers for the JSON report.
struct ModeReport {
    code: &'static str,
    snapshot: MetricsSnapshot,
}

fn build_receptionist(parts: &[(&str, &[TrecDoc])]) -> Receptionist<InProcTransport<Librarian>> {
    let transports = parts
        .iter()
        .map(|(name, docs)| InProcTransport::new(Librarian::build(name, Analyzer::default(), docs)))
        .collect();
    Receptionist::new(transports, Analyzer::default())
}

fn run_mode(
    code: &'static str,
    methodology: Methodology,
    parts: &[(&str, &[TrecDoc])],
    queries: &[(u32, String)],
    k: usize,
) -> ModeReport {
    let mut receptionist = build_receptionist(parts);
    match methodology {
        Methodology::CentralNothing => {}
        Methodology::CentralVocabulary => receptionist.enable_cv().expect("CV preprocessing"),
        Methodology::CentralIndex => receptionist
            .enable_ci(CiParams {
                group_size: 10,
                k_prime: 100,
            })
            .expect("CI preprocessing"),
    }
    // Metrics start *after* preprocessing: the registry sees the query
    // path only, which is what the paper's per-query cost tables compare.
    let registry = receptionist.enable_metrics();
    for (_, text) in queries {
        receptionist
            .query(methodology, text, k)
            .expect("query evaluation");
    }
    ModeReport {
        code,
        snapshot: registry.snapshot(),
    }
}

fn render_json(opts: &HarnessOptions, k: usize, n_queries: usize, modes: &[ModeReport]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"corpus\": \"{}\",\n  \"seed\": {},\n  \"queries_per_mode\": {n_queries},\n  \"k\": {k},\n",
        if opts.small { "small" } else { "trec-like" },
        opts.seed
    ));
    out.push_str("  \"methodologies\": [\n");
    for (i, mode) in modes.iter().enumerate() {
        let c = &mode.snapshot.counts;
        let latency = mode.snapshot.query_latency();
        out.push_str("    {\n      \"code\": ");
        out.push_str(&Json::from(mode.code).render());
        out.push_str(&format!(",\n      \"queries\": {},\n", c.queries()));
        out.push_str(&format!(
            "      \"latency_micros\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}, \"mean\": {:.1}}},\n",
            latency.p50(),
            latency.p95(),
            latency.p99(),
            latency.max,
            latency.mean()
        ));
        out.push_str(&format!(
            "      \"traffic\": {{\"round_trips\": {}, \"bytes_sent\": {}, \"bytes_received\": {}}},\n",
            c.get(Count::SENT),
            c.get(Count::BYTES_SENT),
            c.get(Count::BYTES_RECEIVED)
        ));
        out.push_str(&format!(
            "      \"merged_entries\": {}, \"timeouts\": {}, \"failures\": {}, \"degraded_queries\": {}\n",
            c.get(Count::MERGED_ENTRIES),
            c.get(Count::TIMEOUTS),
            c.get(Count::FAILURES),
            c.get(Count::DEGRADED_QUERIES)
        ));
        out.push_str(if i + 1 == modes.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// The `--check` gate: every counter the sweep must light up, plus a
/// lint of the Prometheus exposition. Returns the first failure.
fn check(modes: &[ModeReport]) -> Result<(), String> {
    for mode in modes {
        let s = &mode.snapshot;
        let c = &s.counts;
        let code = mode.code;
        if c.queries() == 0 {
            return Err(format!("{code}: zero queries recorded"));
        }
        if c.get(Count::SENT) == 0 || c.get(Count::REPLIES) == 0 {
            return Err(format!("{code}: zero messages recorded"));
        }
        if c.get(Count::BYTES_SENT) == 0 || c.get(Count::BYTES_RECEIVED) == 0 {
            return Err(format!("{code}: zero bytes recorded"));
        }
        if s.query_latency().is_empty() {
            return Err(format!("{code}: empty query latency histogram"));
        }
        if s.per_librarian.iter().all(|l| l.is_empty()) {
            return Err(format!("{code}: no per-librarian latency recorded"));
        }
        // This sweep runs cache-free receptionists: any cache event in
        // the registry means the trace plumbing is misattributing, or a
        // cache was silently enabled and the sweep no longer measures
        // the fleet round trips the trajectory file tracks.
        for (kind, cache) in CACHE_KINDS.iter().enumerate() {
            let events = Count::cache(kind).map(|count| c.get(count));
            if events.iter().sum::<u64>() != 0 {
                return Err(format!(
                    "{code}: uncached sweep recorded {cache:?} cache events \
                     (hits, misses, stale, evictions: {events:?})"
                ));
            }
        }
        lint_prometheus(&s.render_prometheus())
            .map_err(|e| format!("{code}: exposition failed lint: {e}"))?;
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
        .unwrap_or_else(|| "BENCH_fleet.json".to_owned());

    let corpus = opts.corpus();
    let parts = corpus_parts(&corpus);
    let queries: Vec<(u32, String)> = corpus
        .long_queries()
        .iter()
        .chain(corpus.short_queries())
        .map(|q| (q.id, q.text.clone()))
        .collect();
    let k = 20;

    // MS: one librarian over the whole merged collection.
    let merged: Vec<TrecDoc> = parts
        .iter()
        .flat_map(|(_, docs)| docs.iter().cloned())
        .collect();
    let ms_parts: Vec<(&str, &[TrecDoc])> = vec![("MS", merged.as_slice())];

    let modes = vec![
        run_mode("MS", Methodology::CentralNothing, &ms_parts, &queries, k),
        run_mode("CN", Methodology::CentralNothing, &parts, &queries, k),
        run_mode("CV", Methodology::CentralVocabulary, &parts, &queries, k),
        run_mode("CI", Methodology::CentralIndex, &parts, &queries, k),
    ];

    println!(
        "Fleet metrics sweep — {} corpus, seed {}, {} queries per mode, k = {k}\n",
        if opts.small { "small" } else { "trec-like" },
        opts.seed,
        queries.len()
    );
    let mut table = TextTable::new([
        "Mode",
        "queries",
        "p50(us)",
        "p99(us)",
        "round trips",
        "bytes sent",
        "bytes recv",
    ]);
    for mode in &modes {
        let latency = mode.snapshot.query_latency();
        let c = &mode.snapshot.counts;
        table.row([
            mode.code.to_string(),
            c.queries().to_string(),
            latency.p50().to_string(),
            latency.p99().to_string(),
            c.get(Count::SENT).to_string(),
            c.get(Count::BYTES_SENT).to_string(),
            c.get(Count::BYTES_RECEIVED).to_string(),
        ]);
    }
    println!("{}", table.render());

    let json = render_json(&opts, k, queries.len(), &modes);
    std::fs::write(&out_path, &json).expect("write report");
    println!("wrote {out_path}");

    if opts.has_flag("--check") {
        if let Err(e) = check(&modes) {
            eprintln!("check failed: {e}");
            std::process::exit(1);
        }
        println!("check passed: all counters nonzero, exposition lints clean");
    }
}
