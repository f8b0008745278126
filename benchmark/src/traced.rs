//! The traced pass of a serving workload (`--trace 1`).
//!
//! One fleet, built from the traced types with the recorder off, serves
//! three phases: a short untraced load phase (the load generator's own
//! diagnostics and the cache's hit rates under load), an untraced
//! single-client replay of the first operations, and the same replay
//! again with the benchmark's spans and the program's `TraceSink` on.
//! The two replays differ only in tracing, so their throughput gap is
//! the tracing overhead. Direct in-process calls into `text`,
//! `compress` and `index` finish the pass, and the spans go to
//! `spans.jsonl`.

use teraphim_net::mux::MuxTransport;
use teraphim_obs::{EventKind, TraceSink};

use crate::catalog::{self, frozen};
use crate::env;
use crate::fleet::Traced;
use crate::hostspeed;
use crate::layers;
use crate::report::RunResult;
use crate::serving::{
    offer, pool_cache, prepare, put_client_diagnostics, replay, with_all_sessions, Ctx, Prepared,
};
use crate::spans::{self, SpanRec};
use crate::stats::{median, percentile};
use crate::RunOptions;

/// Share of `--seconds` the untraced load phase gets, and the share
/// each of the two replays may take.
const LOAD_SHARE: f64 = 0.4;
const REPLAY_SHARE: f64 = 0.25;
/// Operations whose queries the direct index pass walks.
const DIRECT_QUERIES: usize = 200;

pub fn run(workload: &str, options: RunOptions) -> Result<RunResult, String> {
    let RunOptions {
        seed,
        seconds,
        smoke,
        ..
    } = options;
    let mut out = RunResult::default();
    let (traced, prepared) = prepare(Traced::new, workload, seed, smoke, 1);
    let Prepared {
        plan,
        truth,
        fleet,
        setup,
        ..
    } = &prepared;
    let pool = &fleet.pool;
    let recorder = &traced.recorder;
    let ctx = Ctx::new(plan, truth, Some(recorder));
    let reset_caches = || {
        if let Some(config) = plan.cache {
            with_all_sessions(pool, |sessions| {
                for s in sessions.iter_mut() {
                    s.enable_cache(config);
                }
            });
        }
    };

    // Untraced load phase.
    let mut host = vec![hostspeed::sample()];
    let warm = replay(pool, &ctx, plan.replay_ops.min(plan.sequence.len()));
    let load = offer(pool, &ctx, seconds * LOAD_SHARE, warm.ops, |_| {});
    let cache = pool_cache(pool);
    host.push(hostspeed::sample());

    // The two replays: as many of the first operations as fit.
    let per_op_s = warm.wall_s / warm.ops.max(1) as f64;
    let ops = frozen::TRACED_OPS
        .min((seconds * REPLAY_SHARE / per_op_s.max(1e-9)) as usize)
        .max(20);
    reset_caches();
    let plain = replay(pool, &ctx, ops);

    reset_caches();
    let sink = TraceSink::new();
    with_all_sessions(pool, |sessions| {
        for s in sessions.iter_mut() {
            s.set_trace_sink(sink.clone());
        }
    });
    let mut admin: Vec<MuxTransport> = fleet
        .addrs
        .iter()
        .map(|&addr| MuxTransport::connect(addr).map_err(|e| format!("admin connection: {e}")))
        .collect::<Result<_, _>>()?;
    let busy_before = layers::ledger_busy_micros(&mut admin);
    let first_traced_op = recorder.current_op() + 1;
    recorder.set_enabled(true);
    let with_spans = replay(pool, &ctx, ops);
    recorder.set_enabled(false);
    let busy_after = layers::ledger_busy_micros(&mut admin);
    host.push(hostspeed::sample());
    let traces = sink.take_traces();
    with_all_sessions(pool, |sessions| {
        for s in sessions.iter_mut() {
            s.set_trace_sink(TraceSink::disabled());
        }
    });
    let spans = recorder.spans();

    out.attempted = (warm.ops + load.attempted() + plain.ops + with_spans.ops) as u64;
    out.failed = (warm.failed + load.failed() + plain.failed + with_spans.failed) as u64;
    layers::put_zeroes(&mut out);
    out.notes.push(format!(
        "{:.1} s of untraced load, then the first {ops} operations replayed by one client untraced ({:.0} ops/s) and traced ({:.0} ops/s)",
        seconds * LOAD_SHARE,
        plain.ops_per_s(),
        with_spans.ops_per_s()
    ));

    // Set-up.
    out.put("corpus.generate_s", setup.generate_s[0]);
    out.put("index.build_docs_per_s", setup.build_docs_per_s[0]);
    out.put("core.enable_cv_s", setup.last.enable_cv_s);
    out.put("core.cv_vocabulary_bytes", fleet.cv_vocabulary_bytes as f64);

    // The load generator and the caches under load.
    put_client_diagnostics(&mut out, &load);
    out.put_timed("client.host_speed", median(&host), host.len());
    if let Some(c) = cache {
        let rate =
            |c: teraphim_core::CacheCounters| c.hits as f64 / (c.hits + c.misses).max(1) as f64;
        out.put("core.cache_result_hit_rate", rate(c.results));
        out.put("core.cache_term_hit_rate", rate(c.terms));
        out.put("core.cache_doc_hit_rate", rate(c.docs));
        out.put(
            "core.cache_evictions",
            (c.results.evictions + c.terms.evictions + c.docs.evictions) as f64,
        );
    }

    // The traced replay.
    out.put(
        "obs.tracing_overhead_pct",
        100.0 * (plain.ops_per_s() - with_spans.ops_per_s()) / plain.ops_per_s().max(1e-9),
    );
    let per_op = |total: u64| total as f64 / with_spans.ops.max(1) as f64;
    out.put(
        "net.round_trips_per_query",
        per_op(with_spans.traffic.round_trips),
    );
    out.put(
        "net.bytes_sent_per_query",
        per_op(with_spans.traffic.bytes_sent),
    );
    out.put(
        "net.bytes_received_per_query",
        per_op(with_spans.traffic.bytes_received),
    );
    out.put(
        "net.server_busy_share",
        (busy_after - busy_before) as f64 / (with_spans.wall_s * 1e6).max(1.0),
    );
    layers::from_spans(&mut out, &spans, with_spans.ops);
    layers::from_traces(&mut out, &traces);
    put_cache_latencies(&mut out, &spans, &traces);
    layers::codec(
        &mut out,
        &traced.messages.lock().expect("message sample lock"),
    );
    layers::ping(&mut out, &mut admin[0]);

    // Direct calls into text, compress and index.
    let direct_ops = ops.min(DIRECT_QUERIES);
    let queries: Vec<&str> = (0..direct_ops)
        .map(|op| plan.distinct[plan.query_of(op)].text.as_str())
        .collect();
    let librarians = traced
        .librarians
        .lock()
        .expect("librarian table lock")
        .clone();
    let touched = layers::direct(&mut out, &librarians, &queries);
    let rank_ns: u64 = spans
        .iter()
        .filter(|s| {
            s.name == "engine.rank"
                && s.op >= first_traced_op
                && s.op < first_traced_op + direct_ops as u64
        })
        .map(SpanRec::duration_ns)
        .sum();
    out.put_timed(
        "engine.rank_ns_per_posting",
        rank_ns as f64 / touched.max(1) as f64,
        touched as usize,
    );

    out.notes.push(design_note(plan.workload, &spans, &out));
    let path = env::spans_path(plan.workload).map_err(|e| format!("scratch directory: {e}"))?;
    spans::write_jsonl(&spans, &path).map_err(|e| format!("{}: {e}", path.display()))?;
    out.notes.push(format!(
        "{} spans written to {}",
        spans.len(),
        path.display()
    ));
    if let Some(e) = ctx.first_error() {
        out.violation(e);
    }
    Ok(out)
}

/// Whether the trace shows what the workload was built to show. A note,
/// not a check: a later change that makes ranking cheap is supposed to
/// move these shares.
fn design_note(workload: &str, spans: &[SpanRec], out: &RunResult) -> String {
    let shares = spans::layer_times(spans, env::nproc());
    let share = |layer: &str| {
        shares
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |(_, t)| *t)
    };
    let (engine, net, core) = (share("engine"), share("net"), share("core"));
    let cache_hits = out.get("core.cache_result_hit_rate").unwrap_or(0.0) > 0.0;
    let store_spans = spans.iter().any(|s| s.layer() == "store");
    let yes_no = |b: bool| if b { "yes" } else { "NO" };
    let expectation = match workload {
        catalog::SHORT_CV => format!(
            "engine has the largest share: {}",
            yes_no(engine > net && engine > core)
        ),
        catalog::FANOUT43 => format!("net + core exceed engine: {}", yes_no(net + core > engine)),
        _ => format!("cache hits under load: {}", yes_no(cache_hits)),
    };
    format!(
        "design: {expectation}; cache hits: {}; store calls: {}",
        if cache_hits { "some" } else { "none" },
        if store_spans { "some" } else { "none" }
    )
}

/// Latency of the traced replay's queries, split by whether the result
/// cache answered them. The program's trace says which did; the
/// benchmark's `core.query` spans, in the same order, say how long.
fn put_cache_latencies(
    out: &mut RunResult,
    spans: &[SpanRec],
    traces: &[teraphim_obs::QueryTrace],
) {
    let hit_flags: Vec<bool> = traces
        .iter()
        .filter(|t| t.op == "query")
        .map(|t| {
            t.events
                .iter()
                .any(|e| matches!(e.kind, EventKind::CacheHit { cache: "results" }))
        })
        .collect();
    let queries: Vec<&SpanRec> = spans.iter().filter(|s| s.name == "core.query").collect();
    if hit_flags.len() != queries.len() || !hit_flags.iter().any(|&h| h) {
        return;
    }
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    for (span, &hit) in queries.iter().zip(&hit_flags) {
        if hit { &mut hits } else { &mut misses }.push(span.duration_ns());
    }
    hits.sort_unstable();
    misses.sort_unstable();
    out.put_timed(
        "core.cache_hit_latency_us_p50",
        percentile(&hits, 0.5) as f64 / 1e3,
        hits.len(),
    );
    out.put_timed(
        "core.cache_miss_latency_us_p50",
        percentile(&misses, 0.5) as f64 / 1e3,
        misses.len(),
    );
}
