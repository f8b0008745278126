//! Query-lifecycle observability: golden traces, cross-driver schema
//! equality, and trace-vs-counter consistency.
//!
//! Every traced operation yields a structured `QueryTrace` whose
//! *normalized* form is deterministic: timestamps zeroed, concurrent
//! arrival order canonicalized per librarian. The normalized JSON for
//! each methodology is committed under `tests/fixtures/traces/` and
//! asserted here; regenerate with `UPDATE_TRACE_GOLDENS=1 cargo test
//! --test traces`. On mismatch the actual trace is written to
//! `target/trace-diffs/` and the structural diff is printed.

use std::collections::HashSet;
use std::path::PathBuf;
use std::time::Duration;

use teraphim::core::sim::{SimDriver, SimMode};
use teraphim::core::{CiParams, Librarian, Methodology, Receptionist};
use teraphim::corpus::{CorpusSpec, SyntheticCorpus};
use teraphim::net::tcp::TcpServer;
use teraphim::net::{
    DispatchMode, FaultPlan, FaultyTransport, InProcTransport, MuxTransport, ReplicaGroup,
    RetryPolicy,
};
use teraphim::obs::{diff_json, Count, EventKind, Phase, QueryTrace, SpanTree, TraceSink};
use teraphim::simnet::{CostModel, Topology};
use teraphim::text::sgml::TrecDoc;
use teraphim::text::Analyzer;

const CI_PARAMS: CiParams = CiParams {
    group_size: 10,
    k_prime: 50,
};
const K: usize = 10;

fn corpus() -> SyntheticCorpus {
    SyntheticCorpus::generate(&CorpusSpec::small(33))
}

/// A fresh receptionist over in-process librarians, in sequential
/// dispatch — the canonical event order the goldens are recorded in.
fn receptionist(corpus: &SyntheticCorpus) -> Receptionist<InProcTransport<Librarian>> {
    let transports = corpus
        .subcollections()
        .iter()
        .map(|s| InProcTransport::new(Librarian::build(&s.name, Analyzer::default(), &s.docs)))
        .collect();
    let mut r = Receptionist::new(transports, Analyzer::default());
    r.set_dispatch_mode(DispatchMode::Sequential);
    r
}

fn sim_driver(corpus: &SyntheticCorpus) -> SimDriver {
    let parts: Vec<(&str, &[TrecDoc])> = corpus
        .subcollections()
        .iter()
        .map(|s| (s.name.as_str(), s.docs.as_slice()))
        .collect();
    SimDriver::new(&parts, Analyzer::default(), CI_PARAMS).unwrap()
}

/// Runs one traced query on a fresh receptionist (tracing enabled
/// *after* any preprocessing, so exactly one trace comes back).
fn real_trace(corpus: &SyntheticCorpus, methodology: Methodology, query: &str) -> QueryTrace {
    let mut r = receptionist(corpus);
    match methodology {
        Methodology::CentralNothing => {}
        Methodology::CentralVocabulary => r.enable_cv().unwrap(),
        Methodology::CentralIndex => r.enable_ci(CI_PARAMS).unwrap(),
    }
    let sink = r.enable_tracing();
    r.query(methodology, query, K).unwrap();
    let mut traces = sink.take_traces();
    assert_eq!(traces.len(), 1, "one traced op, one trace");
    traces.remove(0)
}

/// Runs one traced query on the simulation driver (virtual time).
fn sim_trace(driver: &mut SimDriver, mode: SimMode, query: &str) -> QueryTrace {
    let sink = driver.enable_tracing();
    driver
        .time_query(
            &Topology::multi_disk(4),
            &CostModel::default(),
            mode,
            query,
            K,
        )
        .unwrap();
    let mut traces = sink.take_traces();
    assert_eq!(traces.len(), 1);
    driver.set_trace_sink(TraceSink::disabled());
    traces.remove(0)
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/traces")
        .join(format!("{name}.json"))
}

/// Asserts `trace` (normalized) matches the committed golden fixture.
fn assert_matches_golden(name: &str, trace: &QueryTrace) {
    let actual = trace.normalized().to_json() + "\n";
    let path = fixture_path(name);
    if std::env::var("UPDATE_TRACE_GOLDENS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run UPDATE_TRACE_GOLDENS=1 cargo test --test traces",
            path.display()
        )
    });
    if let Some(diff) = diff_json(&expected, &actual) {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/trace-diffs");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join(format!("{name}.actual.json"));
        std::fs::write(&out, &actual).unwrap();
        panic!(
            "golden trace `{name}` diverged (actual written to {}):\n{diff}",
            out.display()
        );
    }
}

/// Asserts a stitched span tree (from a normalized trace) matches its
/// committed golden fixture, with the same regeneration/diff protocol
/// as the event-stream goldens.
fn assert_span_golden(name: &str, tree: &SpanTree) {
    let actual = tree.to_json();
    let path = fixture_path(name);
    if std::env::var("UPDATE_TRACE_GOLDENS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run UPDATE_TRACE_GOLDENS=1 cargo test --test traces",
            path.display()
        )
    });
    if let Some(diff) = diff_json(&expected, &actual) {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/trace-diffs");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join(format!("{name}.actual.json"));
        std::fs::write(&out, &actual).unwrap();
        panic!(
            "golden span tree `{name}` diverged (actual written to {}):\n{diff}",
            out.display()
        );
    }
}

#[test]
fn golden_traces_for_all_methodologies() {
    let corpus = corpus();
    let query = corpus.short_queries()[0].text.clone();

    // MS has no fan-out on the real driver; its golden comes from the
    // simulator, which emits the same schema in virtual time.
    let mut driver = sim_driver(&corpus);
    assert_matches_golden("ms", &sim_trace(&mut driver, SimMode::MonoServer, &query));

    assert_matches_golden(
        "cn",
        &real_trace(&corpus, Methodology::CentralNothing, &query),
    );
    assert_matches_golden(
        "cv",
        &real_trace(&corpus, Methodology::CentralVocabulary, &query),
    );
    assert_matches_golden(
        "ci",
        &real_trace(&corpus, Methodology::CentralIndex, &query),
    );
}

/// Runs one traced query against real TCP servers (one per
/// subcollection), sequential dispatch — the wire path: span contexts
/// travel in the envelopes and the servers echo measured phase timings,
/// which normalization then zeroes.
fn tcp_trace(corpus: &SyntheticCorpus, methodology: Methodology, query: &str) -> QueryTrace {
    let servers: Vec<TcpServer> = corpus
        .subcollections()
        .iter()
        .map(|s| {
            TcpServer::spawn(
                Librarian::build(&s.name, Analyzer::default(), &s.docs),
                "127.0.0.1:0",
            )
            .expect("loopback server spawns")
        })
        .collect();
    let transports: Vec<MuxTransport> = servers
        .iter()
        .map(|s| MuxTransport::connect(s.addr()).expect("loopback connects"))
        .collect();
    let mut r = Receptionist::new(transports, Analyzer::default());
    r.set_dispatch_mode(DispatchMode::Sequential);
    match methodology {
        Methodology::CentralNothing => {}
        Methodology::CentralVocabulary => r.enable_cv().unwrap(),
        Methodology::CentralIndex => r.enable_ci(CI_PARAMS).unwrap(),
    }
    let sink = r.enable_tracing();
    r.query(methodology, query, K).unwrap();
    let mut traces = sink.take_traces();
    assert_eq!(traces.len(), 1, "one traced op, one trace");
    traces.remove(0)
}

/// The tentpole invariant, pinned as span-tree goldens: stitching the
/// normalized trace of one query yields the byte-identical span tree on
/// the simulator (virtual time, zero server clocks), the in-process
/// driver, and real TCP (measured phases, zeroed by normalization).
/// MS is pinned from the simulator alone — the real driver has no
/// mono-server fan-out to stitch.
#[test]
fn golden_span_trees_shared_by_sim_inproc_and_tcp() {
    let corpus = corpus();
    let query = corpus.short_queries()[0].text.clone();
    let mut driver = sim_driver(&corpus);
    driver.skipping = true;
    driver.dispatch = DispatchMode::Sequential;

    let ms = sim_trace(&mut driver, SimMode::MonoServer, &query).normalized();
    assert_span_golden("span_ms", &SpanTree::from_trace(&ms));

    for (name, methodology) in [
        ("span_cn", Methodology::CentralNothing),
        ("span_cv", Methodology::CentralVocabulary),
        ("span_ci", Methodology::CentralIndex),
    ] {
        let real = real_trace(&corpus, methodology, &query).normalized();
        let tcp = tcp_trace(&corpus, methodology, &query).normalized();
        let mut sim =
            sim_trace(&mut driver, SimMode::Distributed(methodology), &query).normalized();
        // The simulator additionally times step 4 (document fetch); the
        // real `query` path stops after the merge. Strip that tail so
        // the three trees cover the same lifecycle.
        let n = sim.events.len();
        assert_eq!(
            sim.events[n - 2].kind,
            EventKind::PhaseStart {
                phase: Phase::DocFetch
            }
        );
        sim.events.truncate(n - 2);

        let real_tree = SpanTree::from_trace(&real);
        let tcp_tree = SpanTree::from_trace(&tcp);
        let sim_tree = SpanTree::from_trace(&sim);
        assert_eq!(
            real_tree.to_json(),
            tcp_tree.to_json(),
            "{name}: in-process and TCP span trees must be byte-identical"
        );
        assert_eq!(
            real_tree.to_json(),
            sim_tree.to_json(),
            "{name}: in-process and simulated span trees must be byte-identical"
        );
        assert_span_golden(name, &real_tree);
    }
}

/// The cache's trace vocabulary, pinned as goldens: a warmed CV query
/// replayed from the result cache (a `cache_hit` trace with no
/// fan-out) and a fresh CV query straight after it (a `cache_miss`
/// trace carrying the full fan-out plus the term-statistics probes).
#[test]
fn golden_cache_hit_and_miss_cv_traces() {
    let corpus = corpus();
    let mut r = receptionist(&corpus);
    r.enable_cv().unwrap();
    r.enable_cache(teraphim::core::CacheConfig::default());
    let warm = corpus.short_queries()[0].text.clone();
    let cold = corpus.short_queries()[1].text.clone();
    // Warm the result cache before tracing starts, so the two traces
    // below are exactly the hit-then-miss pair.
    r.query(Methodology::CentralVocabulary, &warm, K).unwrap();

    let sink = r.enable_tracing();
    r.query(Methodology::CentralVocabulary, &warm, K).unwrap();
    r.query(Methodology::CentralVocabulary, &cold, K).unwrap();
    let traces = sink.take_traces();
    assert_eq!(traces.len(), 2, "two traced queries, two traces");

    let tags =
        |t: &QueryTrace| -> Vec<&'static str> { t.events.iter().map(|e| e.kind.tag()).collect() };
    assert!(
        tags(&traces[0]).contains(&"cache_hit"),
        "warmed query must hit: {:?}",
        tags(&traces[0])
    );
    assert!(
        !tags(&traces[0]).contains(&"sent"),
        "a result-cache hit must not fan out: {:?}",
        tags(&traces[0])
    );
    assert!(
        tags(&traces[1]).contains(&"cache_miss"),
        "fresh query must miss: {:?}",
        tags(&traces[1])
    );
    assert!(tags(&traces[1]).contains(&"sent"));

    assert_matches_golden("cv_cache_hit", &traces[0]);
    assert_matches_golden("cv_cache_miss", &traces[1]);
}

/// The parallel arm runs these in-process exchanges on workers, whose
/// replies interleave nondeterministically; the normalized trace must be
/// identical to the sequential one.
#[test]
fn concurrent_trace_normalizes_to_sequential() {
    let corpus = corpus();
    let query = corpus.short_queries()[1].text.clone();
    for methodology in Methodology::ALL {
        let sequential = real_trace(&corpus, methodology, &query);

        let mut conc = receptionist(&corpus);
        conc.set_dispatch_mode(DispatchMode::Pipelined);
        match methodology {
            Methodology::CentralNothing => {}
            Methodology::CentralVocabulary => conc.enable_cv().unwrap(),
            Methodology::CentralIndex => conc.enable_ci(CI_PARAMS).unwrap(),
        }
        let sink = conc.enable_tracing();
        conc.query(methodology, &query, K).unwrap();
        let concurrent = sink.take_traces().remove(0);

        assert_eq!(
            concurrent.normalized(),
            sequential.normalized(),
            "{methodology}: concurrent trace must normalize to the sequential one"
        );
    }
}

/// The simulated and real drivers must emit byte-identical normalized
/// traces for the query lifecycle they share (the simulator additionally
/// times step 4, appending one `doc_fetch` phase at the end).
#[test]
fn sim_and_real_traces_share_schema() {
    let corpus = corpus();
    let mut driver = sim_driver(&corpus);
    // The real librarians score CI candidates with skip-based scoring;
    // flip the simulator onto the same path so `scored` events agree.
    driver.skipping = true;
    driver.dispatch = DispatchMode::Sequential;
    for methodology in Methodology::ALL {
        for query in corpus.short_queries().iter().take(3) {
            let real = real_trace(&corpus, methodology, &query.text).normalized();
            let sim =
                sim_trace(&mut driver, SimMode::Distributed(methodology), &query.text).normalized();

            assert_eq!(real.op, sim.op);
            assert_eq!(real.methodology, sim.methodology);
            assert_eq!(real.query_id, sim.query_id);
            assert_eq!(real.k, sim.k);
            assert!(real.complete && sim.complete);

            // The sim's last two events are the doc-fetch phase the real
            // `query` path (steps 1–3) does not perform.
            let n = sim.events.len();
            assert!(n >= 2, "{methodology}: sim trace too short");
            assert_eq!(
                sim.events[n - 2].kind,
                EventKind::PhaseStart {
                    phase: Phase::DocFetch
                }
            );
            assert_eq!(
                sim.events[n - 1].kind,
                EventKind::PhaseEnd {
                    phase: Phase::DocFetch
                }
            );
            assert_eq!(
                real.events,
                sim.events[..n - 2],
                "{methodology} query {}: sim and real traces diverged",
                query.id
            );
        }
    }
}

/// CI's defining budget, asserted from the trace: at most k'·G
/// candidates are ever scored, and every returned document came out of
/// the expanded candidate set.
#[test]
fn ci_trace_obeys_candidate_budget() {
    use proptest::test_runner::{case_count, case_seed, TestRng};

    let corpus = corpus();
    let mut r = receptionist(&corpus);
    r.enable_ci(CI_PARAMS).unwrap();
    let sink = r.enable_tracing();
    let queries: Vec<String> = corpus
        .short_queries()
        .iter()
        .map(|q| q.text.clone())
        .collect();

    let budget = CI_PARAMS.k_prime as u64 * u64::from(CI_PARAMS.group_size);
    let cases = case_count().min(24);
    for case in 0..cases {
        let mut rng = TestRng::new(case_seed("traces::ci_trace_obeys_candidate_budget", case));
        let qi = rng.index(queries.len());
        let k = 1 + rng.index(20);
        sink.clear();
        let hits = r
            .query(Methodology::CentralIndex, &queries[qi], k)
            .unwrap_or_else(|e| panic!("case {case} (query {qi}, k={k}): {e}"));
        let traces = sink.take_traces();
        assert_eq!(traces.len(), 1, "case {case}: expected exactly one trace");
        let trace = &traces[0];

        let scored = trace.metrics().counts.get(Count::SCORED_CANDIDATES);
        assert!(
            scored <= budget,
            "case {case}: scored {scored} candidates, budget k'*G = {budget}"
        );

        let mut expanded: HashSet<(u32, u32)> = HashSet::new();
        for event in &trace.events {
            if let EventKind::Expansion { candidates, .. } = &event.kind {
                for owner in candidates {
                    for &doc in &owner.docs {
                        expanded.insert((owner.librarian, doc));
                    }
                }
            }
        }
        assert!(
            !expanded.is_empty(),
            "case {case}: CI trace must carry an expansion"
        );
        for hit in &hits {
            assert!(
                expanded.contains(&(hit.librarian as u32, hit.doc)),
                "case {case}: hit ({}, {}) not in the expanded candidate set",
                hit.librarian,
                hit.doc
            );
        }
    }
}

fn four_librarians() -> Vec<Librarian> {
    vec![
        Librarian::from_texts("A", &[("A-1", "cats and dogs"), ("A-2", "just cats")]),
        Librarian::from_texts("B", &[("B-1", "dogs alone"), ("B-2", "cats dogs birds")]),
        Librarian::from_texts("C", &[("C-1", "cats chasing birds"), ("C-2", "quiet cats")]),
        Librarian::from_texts("D", &[("D-1", "birds and cats"), ("D-2", "sleeping dogs")]),
    ]
}

type FaultyStack = ReplicaGroup<FaultyTransport<InProcTransport<Librarian>>>;

/// One shared sink wired through the receptionist *and* the transport
/// decorators, with a transport-layer `fail_nth(0)` on librarian 2 so
/// the first query costs it one retry.
fn traced_faulty_receptionist(mode: DispatchMode) -> (Receptionist<FaultyStack>, TraceSink) {
    let sink = TraceSink::new();
    let transports: Vec<FaultyStack> = four_librarians()
        .into_iter()
        .enumerate()
        .map(|(lib, service)| {
            let plan = if lib == 2 {
                FaultPlan::new().fail_nth(0)
            } else {
                FaultPlan::new()
            };
            let faulty = FaultyTransport::new(InProcTransport::new(service), plan)
                .with_trace(sink.clone(), lib as u32);
            ReplicaGroup::new(lib as u32, vec![(lib as u32, faulty)])
                .with_retries(RetryPolicy {
                    max_retries: 2,
                    backoff: Duration::ZERO,
                })
                .with_trace(sink.clone())
        })
        .collect();
    let mut r = Receptionist::new(transports, Analyzer::default());
    r.set_dispatch_mode(mode);
    r.set_trace_sink(sink.clone());
    (r, sink)
}

/// The trace's per-librarian byte/message sums must equal the transport
/// counters — under both dispatch modes, and with a client-side fault
/// plus one retry in the schedule. (Client-side `Fail` consumes no inner
/// bytes, so the retried exchange is counted exactly once by both.)
#[test]
fn trace_totals_match_transport_counters() {
    for mode in [DispatchMode::Sequential, DispatchMode::Pipelined] {
        let (mut r, sink) = traced_faulty_receptionist(mode);
        let hits = r
            .query(Methodology::CentralNothing, "cats dogs", 8)
            .unwrap();
        assert!(!hits.is_empty());

        let traces = sink.take_traces();
        assert_eq!(traces.len(), 1);
        let trace = &traces[0];

        // The injected fault and its retry are on the record.
        let tags: Vec<(&str, Option<u32>)> = trace
            .events
            .iter()
            .map(|e| (e.kind.tag(), e.kind.librarian()))
            .collect();
        assert!(
            tags.contains(&("fault", Some(2))),
            "{mode:?}: missing fault event: {tags:?}"
        );
        assert!(
            tags.contains(&("retry", Some(2))),
            "{mode:?}: missing retry event: {tags:?}"
        );

        // Per-librarian: trace sums == transport counters.
        let from_trace = trace.metrics().counts;
        let from_transports = r.per_librarian_traffic();
        assert_eq!(from_trace.librarians(), from_transports.len());
        for (lib, stats) in from_transports.iter().enumerate() {
            let count = |count| from_trace.librarian(lib, count);
            assert_eq!(
                count(Count::BYTES_SENT),
                stats.bytes_sent,
                "{mode:?} librarian {lib}: sent bytes"
            );
            assert_eq!(
                count(Count::BYTES_RECEIVED),
                stats.bytes_received,
                "{mode:?} librarian {lib}: received bytes"
            );
            assert_eq!(
                count(Count::SENT) + count(Count::REPLIES),
                2 * stats.round_trips,
                "{mode:?} librarian {lib}: one sent + one reply per round trip"
            );
        }

        // And in aggregate against the receptionist's rollup.
        let total = r.traffic();
        assert_eq!(from_trace.get(Count::BYTES_SENT), total.bytes_sent);
        assert_eq!(from_trace.get(Count::BYTES_RECEIVED), total.bytes_received);
        assert_eq!(from_trace.get(Count::RETRIES), 1);
        assert_eq!(from_trace.get(Count::FAULTS), 1);

        // The restricted entry points are operations like any other:
        // each yields exactly one complete trace, whose byte sums equal
        // the transport delta and what a teed registry counted.
        let registry = r.enable_metrics();
        r.enable_cv().unwrap();
        sink.clear();
        for op in ["query_subset", "query_selected"] {
            let (traffic_before, counted_before) = (r.traffic(), registry.snapshot());
            let hits = match op {
                "query_subset" => r
                    .query_subset(Methodology::CentralVocabulary, "cats dogs", 8, &[0, 1, 3])
                    .unwrap(),
                _ => r.query_selected("cats dogs", 8, 2).unwrap().0,
            };
            assert!(!hits.is_empty(), "{mode:?} {op}");
            let traces = sink.take_traces();
            assert_eq!(traces.len(), 1, "{mode:?} {op}: one trace per operation");
            assert!(traces[0].complete, "{mode:?} {op}");
            assert_eq!(traces[0].op, op);
            let traced = traces[0].metrics().counts;
            let (traffic, counted) = (r.traffic(), registry.snapshot().counts);
            let counted_before = counted_before.counts;
            let sent = traffic.bytes_sent - traffic_before.bytes_sent;
            let received = traffic.bytes_received - traffic_before.bytes_received;
            assert!(sent > 0 && received > 0, "{mode:?} {op}");
            assert_eq!(traced.get(Count::BYTES_SENT), sent, "{mode:?} {op}");
            assert_eq!(traced.get(Count::BYTES_RECEIVED), received, "{mode:?} {op}");
            assert_eq!(
                counted.get(Count::BYTES_SENT) - counted_before.get(Count::BYTES_SENT),
                sent
            );
            assert_eq!(
                counted.get(Count::BYTES_RECEIVED) - counted_before.get(Count::BYTES_RECEIVED),
                received
            );
        }
    }
}

/// Builds one churn batch for shard `lib` at epoch `epoch` — the same
/// literal docs on every driver, so the stores and the simulator replay
/// an identical build+append history.
fn asof_batch(lib: usize, epoch: usize) -> Vec<TrecDoc> {
    (0..2)
        .map(|i| TrecDoc {
            docno: format!("ASOF-{lib}-{epoch}-{i}"),
            text: format!("asof churn epoch {epoch} doc {i} shard {lib}"),
        })
        .collect()
}

/// A receptionist over librarians reopened from the serialized as-of
/// collections, sequential dispatch (the golden event order).
fn asof_receptionist(shards: &[Vec<u8>], epoch: u64) -> Receptionist<InProcTransport<Librarian>> {
    let transports = shards
        .iter()
        .map(|bytes| {
            let collection =
                teraphim::engine::Collection::from_bytes(bytes).expect("as-of view deserializes");
            let mut lib = Librarian::from_collection(collection);
            lib.set_epoch(epoch);
            InProcTransport::new(lib)
        })
        .collect();
    let mut r = Receptionist::new(transports, Analyzer::default());
    r.set_dispatch_mode(DispatchMode::Sequential);
    r
}

/// Store-backed "as-of" querying, pinned as goldens: every shard's
/// store commits two batches past creation, then the query is answered
/// from the *earlier* durable epoch via `collection_at(1)`. The
/// normalized CV trace is byte-identical between in-process and TCP
/// librarians opened from the store, and stitches to the same span tree
/// as a simulator replaying the identical build+append history —
/// extending the span-tree contract to store-backed librarians.
#[test]
fn golden_asof_cv_trace_shared_by_sim_inproc_and_tcp() {
    use teraphim::store::TempDir;

    const ASOF: u64 = 1;
    let corpus = corpus();
    let query = corpus.short_queries()[0].text.clone();

    // One store per shard; epoch 2 is live, epoch 1 is the pinned view.
    let root = TempDir::new("asof-trace").expect("tempdir");
    let mut asof_shards: Vec<Vec<u8>> = Vec::new();
    for (lib, s) in corpus.subcollections().iter().enumerate() {
        let dir = root.path().join(format!("shard-{lib}"));
        let mut librarian = Librarian::create_store(&dir, &s.name, &Analyzer::default(), &s.docs)
            .expect("fresh shard store creates");
        librarian
            .add_documents(&asof_batch(lib, 1))
            .expect("epoch 1 commits");
        librarian
            .add_documents(&asof_batch(lib, 2))
            .expect("epoch 2 commits");
        let store = librarian.store().expect("a store-backed librarian");
        assert_eq!(store.epoch(), 2);
        let view = store.collection_at(ASOF).expect("as-of replay");
        asof_shards.push(view.to_bytes());
    }

    // In-process: trace the CV query against the as-of librarians.
    let mut r = asof_receptionist(&asof_shards, ASOF);
    r.enable_cv().unwrap();
    let sink = r.enable_tracing();
    r.query(Methodology::CentralVocabulary, &query, K).unwrap();
    let mut traces = sink.take_traces();
    assert_eq!(traces.len(), 1);
    let real = traces.remove(0).normalized();

    // TCP: the same as-of librarians behind real loopback servers.
    let servers: Vec<TcpServer> = asof_shards
        .iter()
        .map(|bytes| {
            let collection =
                teraphim::engine::Collection::from_bytes(bytes).expect("as-of view deserializes");
            let mut lib = Librarian::from_collection(collection);
            lib.set_epoch(ASOF);
            TcpServer::spawn(lib, "127.0.0.1:0").expect("loopback server spawns")
        })
        .collect();
    let transports: Vec<MuxTransport> = servers
        .iter()
        .map(|s| MuxTransport::connect(s.addr()).expect("loopback connects"))
        .collect();
    let mut rt = Receptionist::new(transports, Analyzer::default());
    rt.set_dispatch_mode(DispatchMode::Sequential);
    rt.enable_cv().unwrap();
    let sink = rt.enable_tracing();
    rt.query(Methodology::CentralVocabulary, &query, K).unwrap();
    let mut traces = sink.take_traces();
    assert_eq!(traces.len(), 1);
    let tcp = traces.remove(0).normalized();

    // Simulator: build the base shards, append the epoch-1 batches —
    // the exact history `collection_at(1)` replays from the WAL.
    let mut driver = sim_driver(&corpus);
    driver.skipping = true;
    driver.dispatch = DispatchMode::Sequential;
    for lib in 0..corpus.subcollections().len() {
        driver
            .append_documents(lib, &asof_batch(lib, 1))
            .expect("sim appends the as-of batch");
    }
    let mut sim = sim_trace(
        &mut driver,
        SimMode::Distributed(Methodology::CentralVocabulary),
        &query,
    )
    .normalized();
    // Strip the simulator's doc-fetch tail (the real `query` path stops
    // after the merge), as in the live-epoch span-tree goldens.
    let n = sim.events.len();
    assert_eq!(
        sim.events[n - 2].kind,
        EventKind::PhaseStart {
            phase: Phase::DocFetch
        }
    );
    sim.events.truncate(n - 2);

    let real_tree = SpanTree::from_trace(&real);
    let tcp_tree = SpanTree::from_trace(&tcp);
    let sim_tree = SpanTree::from_trace(&sim);
    assert_eq!(
        real_tree.to_json(),
        tcp_tree.to_json(),
        "as-of: in-process and TCP span trees must be byte-identical"
    );
    assert_eq!(
        real_tree.to_json(),
        sim_tree.to_json(),
        "as-of: store-backed and simulated span trees must be byte-identical"
    );

    assert_matches_golden("asof_cv", &real);
    assert_span_golden("span_asof_cv", &real_tree);
}

/// Tracing is pay-for-what-you-use: a disabled sink records nothing,
/// and re-enabling the same sink picks events back up.
#[test]
fn disabled_sink_stays_empty_and_reenables() {
    let corpus = corpus();
    let mut r = receptionist(&corpus);
    let query = corpus.short_queries()[0].text.clone();

    let sink = r.enable_tracing();
    sink.set_enabled(false);
    r.query(Methodology::CentralNothing, &query, K).unwrap();
    assert!(sink.take_traces().is_empty());

    sink.set_enabled(true);
    r.query(Methodology::CentralNothing, &query, K).unwrap();
    let traces = sink.take_traces();
    assert_eq!(traces.len(), 1);
    assert_eq!(traces[0].op, "query");
    assert_eq!(traces[0].methodology.as_deref(), Some("CN"));
}
