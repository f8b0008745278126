//! `teraphim eval` — retrieval-effectiveness evaluation against live
//! librarian servers (or a single store's collection).

use crate::args::Args;
use crate::commands::{open_store, outln};
use teraphim_core::{CacheConfig, CiParams, Methodology, Receptionist};
use teraphim_eval::{Judgments, QueryEval, SetEval};
use teraphim_net::MuxTransport;
use teraphim_obs::{Count, Counts, Phase};
use teraphim_text::Analyzer;

const HELP: &str = "\
usage: teraphim eval --queries FILE.tsv --qrels FILE
                     (--servers ADDR[,ADDR...] [--methodology cn|cv|ci]
                      | --store DIR)
                     [--k N] [--trace-json FILE] [--metrics FILE]
                     [--cache SPEC]

FILE.tsv holds one `id<TAB>query text` per line (the gen-corpus output);
qrels is TREC format. Prints 11-pt average, relevant-in-top-20 and MAP.
With --servers this is a distributed evaluation through a receptionist;
with --store it evaluates the mono-server baseline over the store's
collection.

--trace-json (with --servers) records a structured trace of every
query's lifecycle — per-librarian exchanges, retries, faults, phase
timings — writes them as JSON to FILE, and prints a per-phase latency
summary

--metrics (with --servers) tees the run into a metrics registry and
writes the final snapshot — per-librarian and per-methodology counters
and latency histograms — to FILE in the Prometheus text format

--cache (with --servers) enables the receptionist-side caches. SPEC is
`default` or comma-separated `key=value` pairs, any subset of:
  results=N     result-cache entries (default 256; 0 disables)
  terms=N       term-statistics entries (default 1024; 0 disables)
  doc-bytes=N   answer-document byte budget (default 1048576; 0 disables)
Hit/miss/eviction counters are printed after the run (and show up in
--metrics and --trace-json output)";

/// Parses a `--cache` specification: `default` or `key=value` pairs.
fn parse_cache_spec(spec: &str) -> Result<CacheConfig, String> {
    let mut config = CacheConfig::default();
    if spec.trim() == "default" {
        return Ok(config);
    }
    for pair in spec.split(',') {
        let pair = pair.trim();
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| format!("--cache: expected key=value, got {pair:?}"))?;
        let value: usize = value
            .trim()
            .parse()
            .map_err(|_| format!("--cache: {key}={value:?} is not an integer"))?;
        match key.trim() {
            "results" => config.result_entries = value,
            "terms" => config.term_entries = value,
            "doc-bytes" => config.doc_bytes = value,
            other => {
                return Err(format!(
                    "--cache: unknown key {other:?} (expected results, terms, doc-bytes)"
                ))
            }
        }
    }
    Ok(config)
}

fn parse_queries(path: &str) -> Result<Vec<(u32, String)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut queries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let (id, q) = line
            .split_once('\t')
            .ok_or_else(|| format!("{path}:{}: expected `id<TAB>query`", lineno + 1))?;
        let id = id
            .trim()
            .parse()
            .map_err(|_| format!("{path}:{}: bad query id {id:?}", lineno + 1))?;
        queries.push((id, q.to_owned()));
    }
    if queries.is_empty() {
        return Err(format!("{path} contains no queries"));
    }
    Ok(queries)
}

/// Runs the subcommand.
///
/// # Errors
///
/// Returns a user-facing message on bad arguments or I/O failure.
pub fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["help"])?;
    if args.flag("help") {
        outln!("{HELP}");
        return Ok(());
    }
    let queries_path = args.require("queries")?;
    let qrels_path = args.require("qrels")?;
    let k = args.get_parsed("k", 1000usize)?;
    let trace_path = args.get("trace-json");
    let metrics_path = args.get("metrics");
    let cache_config = args.get("cache").map(parse_cache_spec).transpose()?;
    // A fleet has a methodology, the mono baseline a store.
    let servers = args.get("servers");
    let methodology = match servers.and_then(|_| args.get("methodology")) {
        Some("cn") => Methodology::CentralNothing,
        Some("cv") | None => Methodology::CentralVocabulary,
        Some("ci") => Methodology::CentralIndex,
        Some(other) => return Err(format!("unknown methodology {other:?}")),
    };
    let store_dir = match servers {
        Some(_) => None,
        None => Some(args.require("store")?),
    };
    args.reject_unread()?;

    let queries = parse_queries(queries_path)?;
    let qrels = std::fs::read_to_string(qrels_path)
        .map_err(|e| format!("cannot read {qrels_path}: {e}"))?;
    let judgments = Judgments::from_qrels(&qrels);
    let mut trace_sink = None;
    let mut metrics_registry = None;
    let mut cache_stats = None;
    let mut degraded_queries = 0usize;
    let mut failed_librarians: Vec<usize> = Vec::new();
    let evals: Vec<QueryEval> = if let Some(servers) = servers {
        let transports = servers
            .split(',')
            .map(|addr| {
                MuxTransport::connect(addr.trim())
                    .map_err(|e| format!("cannot connect {addr}: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mut receptionist = Receptionist::new(transports, Analyzer::default());
        if trace_path.is_some() {
            trace_sink = Some(receptionist.enable_tracing());
        }
        if metrics_path.is_some() {
            // Tees the trace sink when one is attached, otherwise runs a
            // metrics-only sink — either way the registry sees every event.
            metrics_registry = Some(receptionist.enable_metrics());
        }
        if let Some(config) = cache_config {
            receptionist.enable_cache(config);
        }
        match methodology {
            Methodology::CentralNothing => {}
            Methodology::CentralVocabulary => receptionist
                .enable_cv()
                .map_err(|e| format!("CV preprocessing failed: {e}"))?,
            Methodology::CentralIndex => receptionist
                .enable_ci(CiParams::default())
                .map_err(|e| format!("CI preprocessing failed: {e}"))?,
        }
        let evals = queries
            .iter()
            .map(|(id, q)| {
                // Degraded coverage (a librarian down mid-run) is folded
                // into the evaluation instead of aborting it: the ranking
                // over the surviving librarians is still scored. A
                // librarian can also die *between* the rank fan-out and
                // the header fetch, leaving hits that point at a dead
                // transport — re-running the query once lets the coverage
                // path exclude it cleanly. The health poll before the
                // retry is what makes that work under --cache: a result
                // hit replays the pre-death entry without any fan-out,
                // so only the poll can observe the casualty and bump the
                // cache generation, turning the retry into a stale miss.
                let mut attempt = 0;
                let (answer, ranking) = loop {
                    attempt += 1;
                    let answer = receptionist
                        .query_with_coverage(methodology, q, k)
                        .map_err(|e| format!("query {id} failed: {e}"))?;
                    match receptionist.headers(&answer.hits) {
                        Ok(ranking) => break (answer, ranking),
                        Err(_) if attempt == 1 => {
                            receptionist.fleet_health();
                            continue;
                        }
                        Err(e) => return Err(format!("query {id} failed: {e}")),
                    }
                };
                if answer.coverage.is_degraded() {
                    degraded_queries += 1;
                    for &lib in &answer.coverage.failed {
                        if !failed_librarians.contains(&lib) {
                            failed_librarians.push(lib);
                        }
                    }
                }
                Ok(QueryEval::evaluate(&judgments, *id, &ranking))
            })
            .collect::<Result<Vec<_>, String>>()?;
        cache_stats = receptionist.cache_stats();
        evals
    } else {
        if cache_config.is_some() {
            return Err(
                "--cache requires --servers (the mono baseline has no receptionist to cache)"
                    .to_owned(),
            );
        }
        let (_, collection) = open_store(store_dir.expect("required without --servers"))?;
        queries
            .iter()
            .map(|(id, q)| {
                let hits = collection.ranked_query(q, k);
                let docnos: Vec<String> = hits
                    .iter()
                    .map(|h| collection.docno(h.doc).to_owned())
                    .collect();
                QueryEval::evaluate(&judgments, *id, &docnos)
            })
            .collect()
    };

    if let Some(path) = trace_path {
        let sink = trace_sink
            .take()
            .ok_or("--trace-json requires --servers (the mono baseline has no fan-out to trace)")?;
        let traces = sink.take_traces();
        std::fs::write(path, teraphim_obs::traces_to_json(&traces))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        print_trace_summary(&traces, path)?;
    }

    if let Some(path) = metrics_path {
        let registry = metrics_registry
            .take()
            .ok_or("--metrics requires --servers (the mono baseline has no fan-out to meter)")?;
        let snapshot = registry.snapshot();
        let text = snapshot.render_prometheus();
        teraphim_obs::lint_prometheus(&text)
            .map_err(|e| format!("internal error: exposition failed lint: {e}"))?;
        std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
        let latency = snapshot.query_latency();
        outln!(
            "metrics written:   {path} ({} queries, p50 {} us, p99 {} us)",
            snapshot.counts.queries(),
            latency.p50(),
            latency.p99()
        );
    }

    if let Some(stats) = cache_stats {
        let line = |c: teraphim_core::CacheCounters| {
            let lookups = c.hits + c.misses;
            let rate = if lookups == 0 {
                0.0
            } else {
                100.0 * c.hits as f64 / lookups as f64
            };
            format!(
                "{}/{} hits ({rate:.1}%), {} stale, {} evicted",
                c.hits, lookups, c.stale, c.evictions
            )
        };
        outln!("cache (generation {}):", stats.generation);
        outln!("  results: {}", line(stats.results));
        outln!("  stats:   {}", line(stats.terms));
        outln!("  docs:    {}", line(stats.docs));
    }

    let set = SetEval::from_evals(&evals);
    outln!(
        "queries evaluated: {} (of {} supplied)",
        set.queries,
        queries.len()
    );
    outln!("11-pt average:     {:.2}%", set.eleven_point_pct);
    outln!("relevant in top 20: {:.2}", set.relevant_in_top_20);
    outln!("MAP:               {:.4}", set.map);
    if degraded_queries > 0 {
        failed_librarians.sort_unstable();
        outln!(
            "degraded queries:  {} (librarians failed: {:?})",
            degraded_queries,
            failed_librarians
        );
    }
    Ok(())
}

/// Prints the per-phase latency attribution and traffic totals rolled
/// up from `traces`.
fn print_trace_summary(traces: &[teraphim_obs::QueryTrace], path: &str) -> Result<(), String> {
    let query_count = traces
        .iter()
        .filter(|t| t.op.starts_with("query"))
        .count()
        .max(1) as u64;
    let mut phase_totals: Vec<(Phase, u64)> = Vec::new();
    for trace in traces {
        for (phase, micros) in trace.metrics().phase_micros {
            if let Some(slot) = phase_totals.iter_mut().find(|(p, _)| *p == phase) {
                slot.1 += micros;
            } else {
                phase_totals.push((phase, micros));
            }
        }
    }
    let counts: Counts = traces
        .iter()
        .flat_map(|t| &t.events)
        .map(|e| &e.kind)
        .collect();
    let messages = counts.get(Count::SENT) + counts.get(Count::REPLIES);
    let bytes = counts.get(Count::BYTES_SENT) + counts.get(Count::BYTES_RECEIVED);
    let (retries, timeouts) = (counts.get(Count::RETRIES), counts.get(Count::TIMEOUTS));
    outln!("traces written:    {} ({path})", traces.len());
    outln!("per-phase mean latency over {query_count} queries:");
    for (phase, total) in phase_totals {
        outln!(
            "  {:>14}: {:>9.1} us",
            phase.as_str(),
            total as f64 / query_count as f64
        );
    }
    outln!(
        "  messages: {messages}, payload bytes: {bytes}, retries: {retries}, timeouts: {timeouts}"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_spec_has_three_keys() {
        let config = parse_cache_spec("results=8, terms=0,doc-bytes=64").unwrap();
        assert_eq!(
            config,
            CacheConfig {
                result_entries: 8,
                term_entries: 0,
                doc_bytes: 64,
            }
        );
        assert_eq!(parse_cache_spec("default").unwrap(), CacheConfig::default());
        assert_eq!(
            parse_cache_spec("shards=2").unwrap_err(),
            "--cache: unknown key \"shards\" (expected results, terms, doc-bytes)"
        );
    }
}
