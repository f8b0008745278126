//! The benchmark's catalogue: workloads, end-to-end metrics, per-layer
//! metrics and every frozen constant.
//!
//! `BENCHMARK.json` at the repository root is the contract the driver
//! reads; its schema has no room for the constants a workload is built
//! from or for the prediction each per-layer metric carries, so both
//! live here and `benchmark check` holds the two files to each other.

/// Which direction is better for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named workload and the sentence that justifies it.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

/// One gated end-to-end metric.
pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// True when the value is a count or ratio of counts that must
    /// repeat bit-for-bit for one seed on every cache-off workload.
    pub exact: bool,
}

/// One per-layer metric and the end-to-end metric × workload pairs it
/// is predicted to move (`"*"` = every workload).
pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static [(&'static str, &'static str)],
}

pub const SHORT_CV: &str = "short_cv_closed";
pub const FANOUT43: &str = "fanout43_cn_closed";
pub const MIXED: &str = "mixed_zipf_open";
pub const INGEST: &str = "ingest_reopen";

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: SHORT_CV,
        why: "4 librarians, CV, short queries, cache off, closed loop: the engine's full-scan ranking does most of the work and net/core little.",
    },
    WorkloadDef {
        name: FANOUT43,
        why: "43 shards, CN, short queries, closed loop: each shard's scan is tiny, so 43 round trips, the codec and the 43xk merge dominate.",
    },
    WorkloadDef {
        name: MIXED,
        why: "4 librarians, CV, Zipf-drawn 70/30 short/long mix with fetch, caches on (result capacity below the working set), open loop at three frozen rates: cache and queueing decide.",
    },
    WorkloadDef {
        name: INGEST,
        why: "One store-backed librarian, one life of a store lived eight times: durable batches beside searches, compact, drop, cold reopen; then an as-of replay: the only workload that writes.",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> EndToEndDef {
    EndToEndDef {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

/// The thirteen gated metrics. Every workload reports all of them; the
/// README's table says what each one means on each workload.
pub const END_TO_END: [EndToEndDef; 13] = [
    e2e("setup_s", "s", Better::Lower, 0.25, false),
    e2e("throughput_qps", "1/s", Better::Higher, 0.25, false),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25, false),
    e2e("latency_p95_ms", "ms", Better::Lower, 0.25, false),
    e2e("slo_rate_qps", "1/s", Better::Higher, 0.25, false),
    e2e("wire_bytes_per_query", "B", Better::Lower, 0.2, true),
    e2e("p_at_20", "ratio", Better::Higher, 0.2, true),
    e2e("ms_overlap_at_20", "ratio", Better::Higher, 0.25, true),
    e2e("ok_share", "ratio", Better::Higher, 0.1, true),
    e2e("rss_steady_mb", "MB", Better::Lower, 0.15, false),
    e2e("ingest_docs_per_s", "1/s", Better::Higher, 0.25, false),
    e2e("cold_open_s", "s", Better::Lower, 0.25, false),
    e2e(
        "store_bytes_per_text_byte",
        "ratio",
        Better::Lower,
        0.1,
        true,
    ),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static [(&'static str, &'static str)],
) -> LayerDef {
    LayerDef {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// Per-layer metrics, grouped by the crate on the serving path that
/// does the work. They carry no bound: they explain an end-to-end
/// movement, they do not gate one.
pub const PER_LAYER: &[LayerDef] = &[
    // teraphim-text
    layer(
        "text.analyze_query_us",
        "us",
        Lower,
        &[("latency_p50_ms", MIXED)],
    ),
    layer(
        "text.analyze_doc_mb_per_s",
        "MB/s",
        Higher,
        &[("ingest_docs_per_s", INGEST), ("setup_s", "*")],
    ),
    // teraphim-compress
    layer(
        "compress.doc_decompress_us",
        "us",
        Lower,
        &[("latency_p50_ms", INGEST), ("latency_p50_ms", MIXED)],
    ),
    layer(
        "compress.text_ratio",
        "ratio",
        Lower,
        &[("store_bytes_per_text_byte", "*"), ("rss_steady_mb", "*")],
    ),
    // teraphim-index
    layer(
        "index.postings_per_query",
        "count",
        Lower,
        &[("throughput_qps", SHORT_CV), ("latency_p50_ms", SHORT_CV)],
    ),
    layer(
        "index.decode_ns_per_posting",
        "ns",
        Lower,
        &[("throughput_qps", SHORT_CV), ("latency_p50_ms", SHORT_CV)],
    ),
    layer(
        "index.bytes_per_posting",
        "B",
        Lower,
        &[("rss_steady_mb", "*"), ("store_bytes_per_text_byte", "*")],
    ),
    layer("index.build_docs_per_s", "1/s", Higher, &[("setup_s", "*")]),
    layer(
        "index.merge_ms_per_batch",
        "ms",
        Lower,
        &[("ingest_docs_per_s", INGEST)],
    ),
    // teraphim-engine
    layer(
        "engine.rank_us_p50",
        "us",
        Lower,
        &[("throughput_qps", SHORT_CV)],
    ),
    layer(
        "engine.rank_us_p95",
        "us",
        Lower,
        &[("latency_p95_ms", SHORT_CV)],
    ),
    layer(
        "engine.rank_ns_per_posting",
        "ns",
        Lower,
        &[("throughput_qps", SHORT_CV)],
    ),
    layer(
        "engine.rank_slowest_shard_us_p50",
        "us",
        Lower,
        &[("latency_p50_ms", SHORT_CV)],
    ),
    layer(
        "engine.fetch_us_p50",
        "us",
        Lower,
        &[("latency_p50_ms", INGEST), ("latency_p50_ms", MIXED)],
    ),
    layer(
        "engine.append_ms_p50",
        "ms",
        Lower,
        &[("ingest_docs_per_s", INGEST)],
    ),
    layer(
        "engine.from_bytes_ms",
        "ms",
        Lower,
        &[("cold_open_s", INGEST)],
    ),
    // teraphim-net
    layer(
        "net.round_trips_per_query",
        "count",
        Lower,
        &[
            ("wire_bytes_per_query", FANOUT43),
            ("throughput_qps", FANOUT43),
        ],
    ),
    layer(
        "net.bytes_sent_per_query",
        "B",
        Lower,
        &[("wire_bytes_per_query", "*")],
    ),
    layer(
        "net.bytes_received_per_query",
        "B",
        Lower,
        &[("wire_bytes_per_query", "*")],
    ),
    layer(
        "net.codec_encode_ns_per_byte",
        "ns",
        Lower,
        &[("throughput_qps", FANOUT43), ("latency_p50_ms", INGEST)],
    ),
    layer(
        "net.codec_decode_ns_per_byte",
        "ns",
        Lower,
        &[("throughput_qps", FANOUT43), ("latency_p50_ms", INGEST)],
    ),
    layer(
        "net.loopback_rtt_us_p50",
        "us",
        Lower,
        &[("latency_p50_ms", FANOUT43)],
    ),
    layer(
        "net.exchange_self_us_p50",
        "us",
        Lower,
        &[("latency_p50_ms", FANOUT43), ("throughput_qps", FANOUT43)],
    ),
    layer(
        "net.server_queue_wait_us_p50",
        "us",
        Lower,
        &[("latency_p50_ms", MIXED)],
    ),
    layer(
        "net.server_queue_wait_us_p95",
        "us",
        Lower,
        &[("latency_p95_ms", MIXED), ("slo_rate_qps", MIXED)],
    ),
    layer(
        "net.server_scan_us_p50",
        "us",
        Lower,
        &[("latency_p50_ms", FANOUT43)],
    ),
    layer(
        "net.server_rank_us_p50",
        "us",
        Lower,
        &[("latency_p95_ms", MIXED), ("latency_p50_ms", SHORT_CV)],
    ),
    layer(
        "net.server_serialize_us_p50",
        "us",
        Lower,
        &[("latency_p50_ms", MIXED)],
    ),
    layer(
        "net.server_busy_share",
        "ratio",
        Lower,
        &[("slo_rate_qps", MIXED), ("throughput_qps", "*")],
    ),
    layer("net.timeouts", "count", Lower, &[("ok_share", "*")]),
    layer("net.retries", "count", Lower, &[("ok_share", "*")]),
    layer("net.failovers", "count", Lower, &[("ok_share", "*")]),
    // teraphim-core
    layer(
        "core.receptionist_self_us_p50",
        "us",
        Lower,
        &[("throughput_qps", FANOUT43), ("latency_p50_ms", FANOUT43)],
    ),
    layer(
        "core.merged_entries_per_query",
        "count",
        Lower,
        &[("throughput_qps", FANOUT43)],
    ),
    layer(
        "core.session_wait_us_p95",
        "us",
        Lower,
        &[("latency_p95_ms", MIXED), ("slo_rate_qps", MIXED)],
    ),
    layer("core.shed_share", "ratio", Lower, &[("ok_share", MIXED)]),
    layer(
        "core.cache_result_hit_rate",
        "ratio",
        Higher,
        &[("latency_p50_ms", MIXED), ("slo_rate_qps", MIXED)],
    ),
    layer(
        "core.cache_term_hit_rate",
        "ratio",
        Higher,
        &[("latency_p50_ms", MIXED)],
    ),
    layer(
        "core.cache_doc_hit_rate",
        "ratio",
        Higher,
        &[("latency_p50_ms", MIXED), ("wire_bytes_per_query", MIXED)],
    ),
    layer(
        "core.cache_evictions",
        "count",
        Lower,
        &[("latency_p50_ms", MIXED)],
    ),
    layer(
        "core.cache_hit_latency_us_p50",
        "us",
        Lower,
        &[("latency_p50_ms", MIXED)],
    ),
    layer(
        "core.cache_miss_latency_us_p50",
        "us",
        Lower,
        &[("latency_p95_ms", MIXED), ("slo_rate_qps", MIXED)],
    ),
    layer(
        "core.enable_cv_s",
        "s",
        Lower,
        &[("setup_s", "*"), ("cold_open_s", SHORT_CV)],
    ),
    layer(
        "core.cv_vocabulary_bytes",
        "B",
        Lower,
        &[("rss_steady_mb", "*"), ("setup_s", "*")],
    ),
    // teraphim-store
    layer(
        "store.log_batch_ms_p50",
        "ms",
        Lower,
        &[("ingest_docs_per_s", INGEST)],
    ),
    layer(
        "store.log_batch_ms_p95",
        "ms",
        Lower,
        &[("latency_p95_ms", INGEST), ("ingest_docs_per_s", INGEST)],
    ),
    layer(
        "store.checkpoint_ms_p50",
        "ms",
        Lower,
        &[("latency_p95_ms", INGEST), ("ingest_docs_per_s", INGEST)],
    ),
    layer(
        "store.auto_checkpoints",
        "count",
        Lower,
        &[("ingest_docs_per_s", INGEST)],
    ),
    layer(
        "store.auto_compactions",
        "count",
        Lower,
        &[("ingest_docs_per_s", INGEST), ("latency_p95_ms", INGEST)],
    ),
    layer(
        "store.disk_bytes_written_per_text_byte",
        "ratio",
        Lower,
        &[("ingest_docs_per_s", INGEST)],
    ),
    layer(
        "store.compact_ms",
        "ms",
        Lower,
        &[("store_bytes_per_text_byte", INGEST)],
    ),
    layer(
        "store.segments_final",
        "count",
        Lower,
        &[
            ("store_bytes_per_text_byte", INGEST),
            ("cold_open_s", INGEST),
        ],
    ),
    layer(
        "store.wal_bytes_peak",
        "B",
        Lower,
        &[("store_bytes_per_text_byte", INGEST)],
    ),
    layer("store.open_ms", "ms", Lower, &[("cold_open_s", INGEST)]),
    layer(
        "store.collection_at_ms",
        "ms",
        Lower,
        &[("cold_open_s", INGEST)],
    ),
    // teraphim-obs and the corpus generator
    layer(
        "obs.tracing_overhead_pct",
        "%",
        Lower,
        &[("throughput_qps", "*")],
    ),
    layer(
        "obs.spans_per_query",
        "count",
        Lower,
        &[("throughput_qps", "*")],
    ),
    layer("corpus.generate_s", "s", Lower, &[("setup_s", "*")]),
    // The load generator's view of itself: diagnostics, not program
    // layers, so each names the end-to-end number it qualifies.
    layer(
        "client.samples",
        "count",
        Higher,
        &[("latency_p95_ms", "*")],
    ),
    layer(
        "client.latency_p99_ms",
        "ms",
        Lower,
        &[("latency_p95_ms", "*")],
    ),
    layer(
        "client.latency_max_ms",
        "ms",
        Lower,
        &[("latency_p95_ms", "*")],
    ),
    layer(
        "client.generator_lag_ms_p95",
        "ms",
        Lower,
        &[("latency_p95_ms", MIXED)],
    ),
    layer(
        "client.step1_p95_ms",
        "ms",
        Lower,
        &[("slo_rate_qps", MIXED)],
    ),
    layer(
        "client.step2_p95_ms",
        "ms",
        Lower,
        &[("latency_p95_ms", MIXED)],
    ),
    layer(
        "client.step3_p95_ms",
        "ms",
        Lower,
        &[("slo_rate_qps", MIXED)],
    ),
    layer(
        "client.backlog_growth",
        "count",
        Lower,
        &[("slo_rate_qps", MIXED)],
    ),
    layer("client.error_share", "ratio", Lower, &[("ok_share", "*")]),
    // The median reference sample of the pass (1 = the nominal host).
    // The per-layer timings are as the clock read them: divide by this
    // before comparing two passes.
    layer(
        "client.host_speed",
        "ratio",
        Higher,
        &[
            ("throughput_qps", "*"),
            ("latency_p50_ms", "*"),
            ("setup_s", "*"),
        ],
    ),
];

/// Constants a workload is built from. Calibrated once on the seed
/// commit on the 2-core reference sandbox and never computed at run
/// time; `benchmark check` prints them so a reviewer sees them beside
/// `BENCHMARK.json`.
pub mod frozen {
    /// Seed used when none is given, and the seed every number in the
    /// README was calibrated on.
    pub const DEFAULT_SEED: u64 = 1998;
    /// A second default seed the suite always runs, documented as not
    /// for tuning: a gain must also hold on it.
    pub const HELD_OUT_SEED: u64 = 4051;
    /// The one corpus every run generates (the paper's year). `--seed`
    /// decides how the corpus is used, not what is in it: see
    /// `workload.rs`.
    pub const CORPUS_SEED: u64 = 1998;
    /// Measured seconds per run (`run_seconds` in `BENCHMARK.json`): a
    /// serving workload's load phase is this many one-second windows.
    pub const RUN_SECONDS: u64 = 12;
    /// `CorpusSpec::trec_like` with every `num_docs` times this. The
    /// issue asked for 4; 2 is the one change the time cap allowed
    /// (92 driver runs, each with three set-ups, in 3420 s).
    pub const CORPUS_FACTOR: usize = 2;
    /// `num_short_queries` (one per topic, the generator's ceiling).
    pub const SHORT_QUERIES: usize = 150;
    /// Answer size of every query; effectiveness is measured at it.
    pub const K: usize = 20;
    /// How many times a run sets the fleet up; `setup_s` is the median.
    pub const SETUP_REPS: usize = 3;
    /// Shards of the fan-out workload (the paper's section 4 split).
    pub const FANOUT_SHARDS: usize = 43;
    /// Documents of the first shard that the probe between two load
    /// windows builds a librarian from (`ingest_docs_per_s` on the
    /// serving workloads).
    pub const PROBE_BUILD_DOCS: usize = 400;
    /// Samples of each kind a probe takes.
    pub const PROBE_ATTACHES: usize = 3;
    pub const PROBE_BUILDS: usize = 2;
    /// The reference sample every timed stretch is flanked by
    /// (`hostspeed.rs`): per core, this many passes over this many bytes
    /// of synthetic postings, then this many pairs of threads making
    /// this many request/reply rounds over loopback; and the seconds
    /// one sample took on the reference sandbox when its neighbours were
    /// quiet. Durations are stated in seconds of a host that takes
    /// exactly that long.
    pub const HOST_SCAN_BYTES: usize = 4 << 20;
    pub const HOST_SCAN_PASSES: usize = 1;
    pub const HOST_ECHO_PAIRS: usize = 8;
    pub const HOST_ECHO_ROUNDS: usize = 500;
    pub const NOMINAL_SAMPLE_S: f64 = 0.0435;
    /// Below this share of the nominal speed a stretch does not start:
    /// the run waits, this many seconds at most in all, for the host to
    /// come back (`hostspeed::settled`). The sandbox usually reads 0.6
    /// to 1.0, 0.4 to 0.5 in its slow spells, and 0.06 to 0.3 when it is
    /// starved.
    pub const HOST_FLOOR: f64 = 0.35;
    pub const HOST_WAIT_BUDGET_S: f64 = 60.0;
    /// Documents fetched after each query of `mixed_zipf_open`.
    pub const MIXED_FETCH_TOP: usize = 3;
    /// `mixed_zipf_open`: popularity exponent, share of short queries,
    /// and the per-session result-cache capacity: far below the
    /// 300-query working set, and small enough that the p50 falls among
    /// the short misses and the p95 among the long ones instead of on
    /// the edge between two latency modes (see the README).
    pub const ZIPF_EXPONENT: f64 = 1.0;
    pub const MIXED_SHORT_SHARE: f64 = 0.7;
    pub const MIXED_RESULT_CACHE: usize = 16;
    /// Offered rates of the three open-loop steps: 14/21/28 % of the
    /// 1450 ops/s this mix saturates a closed loop at on the seed
    /// commit (`run --calibrate`), rounded. The sandbox's cores run at
    /// half speed for minutes at a time, and the top step is what still
    /// sits on the flat part of the latency curve then.
    pub const OPEN_RATES_QPS: [f64; 3] = [200.0, 300.0, 400.0];
    /// Share of the load windows the first and the last step get; the
    /// middle step, where latency is reported, gets the rest.
    pub const OPEN_OUTER_SHARES: [f64; 2] = [0.19, 0.31];
    /// Operations of the seeded sequence replayed by one client before
    /// timing (exact metrics, warm-up) and by the traced pass.
    pub const REPLAY_OPS_CYCLED: usize = 150;
    pub const REPLAY_OPS_ZIPF: usize = 1000;
    pub const TRACED_OPS: usize = 1000;
    /// p95 limits in milliseconds of the nominal host (about five times
    /// the unloaded p50 of each workload).
    pub const P95_LIMIT_MS: [(&str, f64); 4] = [
        (super::SHORT_CV, 3.0),
        (super::FANOUT43, 12.0),
        (super::MIXED, 15.0),
        (super::INGEST, 3.0),
    ];
    /// `ingest_reopen`: fixed work at `RUN_SECONDS`; other lengths scale
    /// the number of lives. One life of the store is ten batches onto
    /// the base: the store checkpoints and compacts itself at the
    /// eighth, and two are still in the WAL when `compact` is called.
    pub const INGEST_BASE_DOCS: usize = 4000;
    pub const INGEST_BATCH_DOCS: usize = 100;
    pub const INGEST_BATCHES: usize = 10;
    pub const INGEST_LIVES: usize = 8;
    /// After each batch: this many searches, each a short query plus
    /// its top documents fetched as plain text.
    pub const INGEST_SEARCHES_PER_BATCH: usize = 40;
    pub const INGEST_FETCH_TOP: usize = 10;
    pub const INGEST_PROBES: usize = 20;
    /// Opens of the compacted store at the end of each life.
    pub const INGEST_REOPENS: usize = 3;

    pub fn p95_limit_ms(workload: &str) -> f64 {
        P95_LIMIT_MS
            .iter()
            .find(|(w, _)| *w == workload)
            .map(|(_, ms)| *ms)
            .expect("every workload has a frozen p95 limit")
    }

    /// How many of `windows` load windows each open-loop step gets.
    pub fn open_step_windows(windows: usize) -> [usize; 3] {
        let outer = |share: f64| ((share * windows as f64).round() as usize).max(1);
        let (first, last) = (outer(OPEN_OUTER_SHARES[0]), outer(OPEN_OUTER_SHARES[1]));
        [first, windows.saturating_sub(first + last).max(1), last]
    }
}

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEndDef> {
    END_TO_END.iter().find(|m| m.name == name)
}
