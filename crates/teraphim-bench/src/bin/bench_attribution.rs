//! Tail-latency attribution benchmark: drives a real TCP fleet with
//! span-carrying multiplexed clients and writes `BENCH_attribution.json`
//! — where server-side time goes (queue wait / scan / rank / serialize)
//! at light load versus overload.
//!
//! The fleet is deliberately under-provisioned: every server runs **one**
//! worker, so at high client concurrency requests pile up in the server
//! queue. Because every request carries a span context, each server
//! measures its own queue-wait/scan/rank/serialize phases and echoes
//! them on the reply envelope; the receptionist's fan-out records them
//! as `server_phase` events, which the metrics registry rolls into
//! per-phase histograms. The bench then asks the question the flight
//! recorder exists to answer: *which phase owns the p99?* At light load
//! it should be real work (scan/rank); under overload it must be queue
//! wait — time the engine never saw.
//!
//! ```sh
//! cargo run --release -p teraphim-bench --bin bench_attribution \
//!     [-- --small] [--seed N] [--out FILE] [--check]
//! ```
//!
//! `--check` exits nonzero unless the registry counted exactly the
//! queries issued and every phase histogram recorded samples in both
//! regimes, scan and rank measured nonzero engine time,
//! queue-wait dominates the p99 under overload, and the Prometheus
//! exposition lints clean — the CI attribution gate.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use teraphim_bench::{corpus_parts, HarnessOptions, TextTable};
use teraphim_core::{Librarian, Methodology, Receptionist, ServePool};
use teraphim_net::mux::{MuxPool, MuxTransport};
use teraphim_net::tcp::{ServerOptions, TcpServer};
use teraphim_net::TcpOptions;
use teraphim_obs::Json;
use teraphim_obs::{lint_prometheus, MetricsRegistry, MetricsSnapshot, TraceSink, SERVER_PHASES};
use teraphim_text::sgml::TrecDoc;
use teraphim_text::Analyzer;

/// One worker per server: the overload regime must queue.
const SERVER_WORKERS: usize = 1;
const SERVER_QUEUE_DEPTH: usize = 1024;
const LIGHT_CONCURRENCY: usize = 1;
const OVERLOAD_CONCURRENCY: usize = 16;
const K: usize = 10;

struct Regime {
    label: &'static str,
    concurrency: usize,
    queries: usize,
    snapshot: MetricsSnapshot,
}

fn spawn_fleet(parts: &[(&str, &[TrecDoc])]) -> Vec<TcpServer> {
    parts
        .iter()
        .map(|(name, docs)| {
            TcpServer::spawn_with(
                vec![Librarian::build(name, Analyzer::default(), docs)],
                "127.0.0.1:0",
                ServerOptions {
                    workers: SERVER_WORKERS,
                    queue_depth: SERVER_QUEUE_DEPTH,
                },
            )
            .expect("bind attribution-bench server")
        })
        .collect()
}

/// Runs one load regime: `concurrency` closed-loop workers, each query
/// through a span-propagating session, all feeding one registry.
fn run_regime(
    label: &'static str,
    addrs: &[SocketAddr],
    queries: &[String],
    concurrency: usize,
    total: usize,
) -> Regime {
    let pools: Vec<Arc<MuxPool>> = addrs
        .iter()
        .map(|&addr| MuxPool::connect(addr, 1, TcpOptions::default()).expect("connect mux pool"))
        .collect();
    // One registry for the whole regime, one metrics-only sink per
    // session: a sink follows one operation at a time, and its trace id
    // is the one stamped into the span context on the wire. The sinks
    // keep tracing on (so spans go over the wire and echoed server
    // timings come back) without keeping traces.
    let registry = Arc::new(MetricsRegistry::new());
    let sessions: Vec<Receptionist<MuxTransport>> = (0..concurrency.max(1))
        .map(|_| {
            let transports = pools
                .iter()
                .map(|p| MuxTransport::new(Arc::clone(p)))
                .collect();
            let mut session = Receptionist::new(transports, Analyzer::default());
            session.set_trace_sink(TraceSink::metrics_only(Arc::clone(&registry)));
            session
        })
        .collect();
    let pool = ServePool::new(sessions);

    let issued = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..concurrency {
            let issued = &issued;
            let pool = pool.clone();
            let queries = &queries;
            scope.spawn(move || loop {
                let i = issued.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                pool.session()
                    .query(Methodology::CentralNothing, &queries[i % queries.len()], K)
                    .expect("attribution query");
            });
        }
    });

    Regime {
        label,
        concurrency,
        queries: total,
        snapshot: registry.snapshot(),
    }
}

fn render_json(opts: &HarnessOptions, regimes: &[Regime]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"corpus\": \"{}\",\n  \"seed\": {},\n  \"server_workers\": {SERVER_WORKERS},\n  \"k\": {K},\n",
        if opts.small { "small" } else { "trec-like" },
        opts.seed
    ));
    out.push_str("  \"regimes\": [\n");
    for (i, regime) in regimes.iter().enumerate() {
        let latency = regime.snapshot.query_latency();
        out.push_str("    {\n      \"label\": ");
        out.push_str(&Json::from(regime.label).render());
        out.push_str(&format!(
            ",\n      \"concurrency\": {},\n      \"queries\": {},\n",
            regime.concurrency, regime.queries
        ));
        out.push_str(&format!(
            "      \"query_latency_micros\": {{\"p50\": {}, \"p99\": {}, \"mean\": {:.1}}},\n",
            latency.p50(),
            latency.p99(),
            latency.mean()
        ));
        out.push_str("      \"server_phases\": {\n");
        let phases = &regime.snapshot.per_server_phase;
        for (j, (phase, hist)) in phases.iter().enumerate() {
            out.push_str("        ");
            out.push_str(&Json::from(*phase).render());
            out.push_str(&format!(
                ": {{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p99\": {}, \"max\": {}}}{}\n",
                hist.count,
                hist.sum,
                hist.p50(),
                hist.p99(),
                hist.max,
                if j + 1 == phases.len() { "" } else { "," }
            ));
        }
        out.push_str("      }\n");
        out.push_str(if i + 1 == regimes.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// The `--check` gate: phases measured everywhere, engine time nonzero,
/// queue wait owns the overload p99, exposition lints clean.
fn check(regimes: &[Regime]) -> Result<(), String> {
    for regime in regimes {
        let label = regime.label;
        let s = &regime.snapshot;
        if s.counts.queries() != regime.queries as u64 {
            return Err(format!(
                "{label}: {} queries issued but the registry counted {}",
                regime.queries,
                s.counts.queries()
            ));
        }
        if s.per_server_phase.len() != SERVER_PHASES.len() {
            return Err(format!(
                "{label}: expected {} phase families, got {}",
                SERVER_PHASES.len(),
                s.per_server_phase.len()
            ));
        }
        for (phase, hist) in &s.per_server_phase {
            if hist.count == 0 {
                return Err(format!("{label}: phase {phase:?} recorded no samples"));
            }
        }
        let sum_of = |name: &str| {
            s.per_server_phase
                .iter()
                .find(|(p, _)| *p == name)
                .map_or(0, |(_, h)| h.sum)
        };
        if sum_of("scan") == 0 || sum_of("rank") == 0 {
            return Err(format!(
                "{label}: engine phases measured zero time (scan {}, rank {})",
                sum_of("scan"),
                sum_of("rank")
            ));
        }
        lint_prometheus(&s.render_prometheus())
            .map_err(|e| format!("{label}: exposition failed lint: {e}"))?;
    }
    let overload = regimes
        .iter()
        .find(|r| r.label == "overload")
        .ok_or("no overload regime")?;
    let p99_of = |name: &str| {
        overload
            .snapshot
            .per_server_phase
            .iter()
            .find(|(p, _)| *p == name)
            .map_or(0, |(_, h)| h.p99())
    };
    let queue = p99_of("queue_wait");
    for other in ["scan", "rank", "serialize"] {
        let p99 = p99_of(other);
        if queue <= p99 {
            return Err(format!(
                "overload: queue_wait p99 ({queue}us) does not dominate {other} p99 ({p99}us) — \
                 a {}x-oversubscribed single-worker fleet must queue",
                OVERLOAD_CONCURRENCY
            ));
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
        .unwrap_or_else(|| "BENCH_attribution.json".to_owned());

    let corpus = opts.corpus();
    let parts = corpus_parts(&corpus);
    let queries: Vec<String> = corpus
        .long_queries()
        .iter()
        .chain(corpus.short_queries())
        .map(|q| q.text.clone())
        .collect();
    let total = if opts.small { 300 } else { 800 };

    let servers = spawn_fleet(&parts);
    let addrs: Vec<SocketAddr> = servers.iter().map(TcpServer::addr).collect();

    let regimes = vec![
        run_regime("light", &addrs, &queries, LIGHT_CONCURRENCY, total),
        run_regime("overload", &addrs, &queries, OVERLOAD_CONCURRENCY, total),
    ];

    println!(
        "Tail-latency attribution — {} corpus, seed {}, {} librarians x {SERVER_WORKERS} worker, {total} queries per regime\n",
        if opts.small { "small" } else { "trec-like" },
        opts.seed,
        parts.len()
    );
    let mut table = TextTable::new([
        "Regime",
        "conc",
        "query p99(us)",
        "queue p99(us)",
        "scan p99(us)",
        "rank p99(us)",
        "ser p99(us)",
    ]);
    for regime in &regimes {
        let p99_of = |name: &str| {
            regime
                .snapshot
                .per_server_phase
                .iter()
                .find(|(p, _)| *p == name)
                .map_or(0, |(_, h)| h.p99())
        };
        table.row([
            regime.label.to_string(),
            regime.concurrency.to_string(),
            regime.snapshot.query_latency().p99().to_string(),
            p99_of("queue_wait").to_string(),
            p99_of("scan").to_string(),
            p99_of("rank").to_string(),
            p99_of("serialize").to_string(),
        ]);
    }
    println!("{}", table.render());

    let json = render_json(&opts, &regimes);
    std::fs::write(&out_path, &json).expect("write report");
    println!("wrote {out_path}");

    if opts.has_flag("--check") {
        if let Err(e) = check(&regimes) {
            eprintln!("check failed: {e}");
            std::process::exit(1);
        }
        println!("check passed: all phases measured, queue wait owns the overload p99");
    }
    drop(servers);
}
