//! The simulation driver must be *behaviourally* identical to the real
//! receptionist: same methodology logic, same rankings. Only the clock
//! is virtual.

use std::sync::Arc;
use teraphim::core::sim::{SimDriver, SimMode};
use teraphim::core::{CiParams, DistributedCollection, Librarian, Methodology, Receptionist};
use teraphim::corpus::{CorpusSpec, SyntheticCorpus};
use teraphim::net::InProcTransport;
use teraphim::obs::{Count, MetricsRegistry, CACHE_KINDS};
use teraphim::simnet::{CostModel, Topology};
use teraphim::text::sgml::TrecDoc;
use teraphim::text::Analyzer;

fn setup() -> (SyntheticCorpus, DistributedCollection, SimDriver) {
    let corpus = SyntheticCorpus::generate(&CorpusSpec::small(33));
    let parts: Vec<(&str, &[TrecDoc])> = corpus
        .subcollections()
        .iter()
        .map(|s| (s.name.as_str(), s.docs.as_slice()))
        .collect();
    let ci = CiParams {
        group_size: 10,
        k_prime: 100,
    };
    let system = DistributedCollection::build_with(&parts, Analyzer::default(), ci).unwrap();
    let driver = SimDriver::new(&parts, Analyzer::default(), ci).unwrap();
    (corpus, system, driver)
}

#[test]
fn simulated_rankings_equal_real_rankings() {
    let (corpus, system, mut driver) = setup();
    let topo = Topology::multi_disk(4);
    let cost = CostModel::default();
    for methodology in Methodology::ALL {
        for query in corpus.short_queries().iter().take(5) {
            let real = system.query(methodology, &query.text, 20).unwrap();
            let sim = driver
                .time_query(
                    &topo,
                    &cost,
                    SimMode::Distributed(methodology),
                    &query.text,
                    20,
                )
                .unwrap();
            let real_pairs: Vec<(usize, u32)> = real.iter().map(|h| (h.librarian, h.doc)).collect();
            assert_eq!(
                sim.hits, real_pairs,
                "{methodology} query {} diverged",
                query.id
            );
        }
    }
}

#[test]
fn simulated_times_are_invariant_across_repeats() {
    let (corpus, _system, mut driver) = setup();
    let topo = Topology::wan();
    let cost = CostModel::default();
    let q = &corpus.short_queries()[0].text;
    let mode = SimMode::Distributed(Methodology::CentralVocabulary);
    let a = driver.time_query(&topo, &cost, mode, q, 20).unwrap();
    let b = driver.time_query(&topo, &cost, mode, q, 20).unwrap();
    assert_eq!(a, b, "fresh resource state must make runs identical");
}

#[test]
fn table3_orderings_hold_on_the_synthetic_corpus() {
    let (corpus, _system, mut driver) = setup();
    let cost = CostModel::default();
    let queries: Vec<&str> = corpus
        .short_queries()
        .iter()
        .take(6)
        .map(|q| q.text.as_str())
        .collect();
    let k = 20;

    let mut time_for = |topo: &Topology, mode: SimMode| {
        driver
            .time_query_set(topo, &cost, mode, &queries, k)
            .unwrap()
    };

    let cn = Methodology::CentralNothing;
    let cv = Methodology::CentralVocabulary;
    let ci = Methodology::CentralIndex;

    // Multi-disk is no slower than mono-disk for every methodology.
    for m in [cn, cv, ci] {
        let (mono_idx, _) = time_for(&Topology::mono_disk(4), SimMode::Distributed(m));
        let (multi_idx, _) = time_for(&Topology::multi_disk(4), SimMode::Distributed(m));
        assert!(
            multi_idx <= mono_idx + 1e-9,
            "{m}: multi {multi_idx} vs mono {mono_idx}"
        );
    }

    // WAN is the slowest configuration for every methodology, by a wide
    // margin (network latency dominates).
    for m in [cn, cv, ci] {
        let (lan_idx, lan_tot) = time_for(&Topology::lan(), SimMode::Distributed(m));
        let (wan_idx, wan_tot) = time_for(&Topology::wan(), SimMode::Distributed(m));
        assert!(
            wan_idx > 2.0 * lan_idx,
            "{m}: wan {wan_idx} vs lan {lan_idx}"
        );
        assert!(wan_tot > lan_tot, "{m}: totals");
    }

    // CI's index phase is slower than CV's in every configuration
    // (sequential central-index processing), as in Table 3.
    for topo in [
        Topology::mono_disk(4),
        Topology::multi_disk(4),
        Topology::lan(),
        Topology::wan(),
    ] {
        let (cv_idx, _) = time_for(&topo, SimMode::Distributed(cv));
        let (ci_idx, _) = time_for(&topo, SimMode::Distributed(ci));
        assert!(
            ci_idx > cv_idx,
            "{}: CI {ci_idx} should exceed CV {cv_idx}",
            topo.name
        );
    }

    // Table 4's WAN crossover: CI total time beats CN/CV total time
    // because its document fetches are bundled.
    let (_, cn_tot) = time_for(&Topology::wan(), SimMode::Distributed(cn));
    let (_, cv_tot) = time_for(&Topology::wan(), SimMode::Distributed(cv));
    let (_, ci_tot) = time_for(&Topology::wan(), SimMode::Distributed(ci));
    assert!(ci_tot < cn_tot, "CI {ci_tot} vs CN {cn_tot}");
    assert!(ci_tot < cv_tot, "CI {ci_tot} vs CV {cv_tot}");
}

/// The paper's conclusion as an invariant: every distributed methodology
/// consumes more *total* CPU than the mono-server, even where its
/// response time is lower — "distributed information retrieval systems
/// can be fast and effective, but they are not efficient".
#[test]
fn distribution_is_fast_but_not_efficient() {
    let (corpus, _system, mut driver) = setup();
    let topo = Topology::multi_disk(4);
    let ms_topo = Topology::mono_disk(1);
    let cost = CostModel::default();
    let queries: Vec<&str> = corpus
        .short_queries()
        .iter()
        .take(6)
        .map(|q| q.text.as_str())
        .collect();
    let mut total_cpu = |topo: &Topology, mode: SimMode| -> f64 {
        queries
            .iter()
            .map(|q| {
                driver
                    .time_query(topo, &cost, mode, q, 20)
                    .expect("simulation")
                    .cpu_busy
            })
            .sum()
    };
    let ms_cpu = total_cpu(&ms_topo, SimMode::MonoServer);
    for m in Methodology::ALL {
        let cpu = total_cpu(&topo, SimMode::Distributed(m));
        assert!(
            cpu > ms_cpu,
            "{m}: distributed CPU {cpu} should exceed MS {ms_cpu}"
        );
    }
}

/// The satellite guard against accounting drift: the system now counts
/// wire traffic three independent ways — transport `TrafficStats`
/// (counted at request time), `QueryTrace` sums (counted from buffered
/// `sent`/`reply` events), and the teed `MetricsRegistry` (counted as
/// the sink delivers those same events). On the real driver, where every
/// exchange goes through an instrumented transport, all three must agree
/// *exactly*, per fleet total and per librarian.
#[test]
fn three_accounting_paths_agree_on_the_real_driver() {
    let corpus = SyntheticCorpus::generate(&CorpusSpec::small(33));
    let parts: Vec<(&str, &[TrecDoc])> = corpus
        .subcollections()
        .iter()
        .map(|s| (s.name.as_str(), s.docs.as_slice()))
        .collect();
    let transports: Vec<InProcTransport<Librarian>> = parts
        .iter()
        .map(|(name, docs)| InProcTransport::new(Librarian::build(name, Analyzer::default(), docs)))
        .collect();
    let mut receptionist = Receptionist::new(transports, Analyzer::default());
    // Tracing and metrics on *before* preprocessing, so the setup
    // fan-outs (CV vocabulary exchange, CI index exchange) are part of
    // the ledger on all three paths.
    let sink = receptionist.enable_tracing();
    let registry = receptionist.enable_metrics();
    receptionist.enable_cv().unwrap();
    receptionist
        .enable_ci(CiParams {
            group_size: 10,
            k_prime: 100,
        })
        .unwrap();
    for methodology in Methodology::ALL {
        for query in corpus.short_queries().iter().take(3) {
            let hits = receptionist.query(methodology, &query.text, 10).unwrap();
            receptionist.headers(&hits).unwrap();
        }
    }

    let traffic = receptionist.traffic();
    assert!(traffic.round_trips > 0, "fixture must generate traffic");

    // Path 1 vs path 2: transport counters vs metrics registry.
    let snapshot = registry.snapshot();
    let totals = &snapshot.counts;
    assert_eq!(totals.get(Count::SENT), traffic.round_trips);
    assert_eq!(totals.get(Count::BYTES_SENT), traffic.bytes_sent);
    assert_eq!(totals.get(Count::BYTES_RECEIVED), traffic.bytes_received);

    // Per-librarian as well, not just the fleet roll-up.
    let per_lib = receptionist.per_librarian_traffic();
    assert_eq!(totals.librarians(), per_lib.len());
    assert_eq!(snapshot.per_librarian.len(), per_lib.len());
    for (lib, (latency, stats)) in snapshot.per_librarian.iter().zip(&per_lib).enumerate() {
        let count = |count| totals.librarian(lib, count);
        assert_eq!(count(Count::SENT), stats.round_trips, "lib {lib}");
        assert_eq!(count(Count::BYTES_SENT), stats.bytes_sent);
        assert_eq!(count(Count::BYTES_RECEIVED), stats.bytes_received);
        assert_eq!(
            latency.count,
            count(Count::REPLIES),
            "every reply contributes one latency sample"
        );
    }

    // Path 3: sums over the buffered traces.
    let traces = sink.take_traces();
    let (mut messages, mut bytes_sent, mut bytes_received) = (0u64, 0u64, 0u64);
    for trace in &traces {
        let m = trace.metrics().counts;
        messages += m.get(Count::SENT);
        bytes_sent += m.get(Count::BYTES_SENT);
        bytes_received += m.get(Count::BYTES_RECEIVED);
    }
    assert_eq!(messages, traffic.round_trips);
    assert_eq!(bytes_sent, traffic.bytes_sent);
    assert_eq!(bytes_received, traffic.bytes_received);

    // Path 4: stitched span trees preserve the server-phase ledger.
    // The registry accumulated `server_phase` events into per-phase
    // histograms; stitching the same traces into span trees and summing
    // the server-side leaves must reproduce those sums exactly.
    let mut span_sums = [0u64; 4];
    for trace in &traces {
        let tree = teraphim::obs::SpanTree::from_trace(trace);
        for (slot, s) in span_sums.iter_mut().zip(tree.server_phase_sums()) {
            *slot += s;
        }
    }
    for ((phase, hist), sum) in snapshot.per_server_phase.iter().zip(span_sums) {
        assert_eq!(
            hist.sum, sum,
            "phase {phase}: registry histogram vs span-tree leaves"
        );
    }
}

/// The cache extends the accounting guard: cache activity is now
/// counted three independent ways — the receptionist's own
/// `CacheStats` mirrors, the `CacheHit`/`CacheMiss`/`CacheEvict` trace
/// events, and the teed `MetricsRegistry`'s per-cache slots. A repeated
/// query stream with fetches (so all three caches light up) must leave
/// all three ledgers in exact agreement.
#[test]
fn cache_accounting_paths_agree_on_the_real_driver() {
    let corpus = SyntheticCorpus::generate(&CorpusSpec::small(33));
    let parts: Vec<(&str, &[TrecDoc])> = corpus
        .subcollections()
        .iter()
        .map(|s| (s.name.as_str(), s.docs.as_slice()))
        .collect();
    let transports: Vec<InProcTransport<Librarian>> = parts
        .iter()
        .map(|(name, docs)| InProcTransport::new(Librarian::build(name, Analyzer::default(), docs)))
        .collect();
    let mut receptionist = Receptionist::new(transports, Analyzer::default());
    let sink = receptionist.enable_tracing();
    let registry = receptionist.enable_metrics();
    receptionist.enable_cv().unwrap();
    // A deliberately tight configuration so the stream also evicts,
    // exercising the `CacheEvict` accounting, not just hits and misses.
    receptionist.enable_cache(teraphim::core::CacheConfig {
        result_entries: 2,
        term_entries: 4,
        doc_bytes: 4096,
    });
    for _ in 0..3 {
        for query in corpus.short_queries().iter().take(4) {
            let hits = receptionist
                .query(Methodology::CentralVocabulary, &query.text, 10)
                .unwrap();
            receptionist
                .fetch(&hits[..hits.len().min(3)], false)
                .unwrap();
        }
    }

    // Path 1: the receptionist's own mirrors.
    let stats = receptionist.cache_stats().unwrap();
    let local_hits = stats.results.hits + stats.terms.hits + stats.docs.hits;
    let local_misses = stats.results.misses + stats.terms.misses + stats.docs.misses;
    let local_stale = stats.results.stale + stats.terms.stale + stats.docs.stale;
    let local_evictions = stats.results.evictions + stats.terms.evictions + stats.docs.evictions;
    assert!(local_hits > 0, "repeats must hit");
    assert!(local_evictions > 0, "the tight config must evict");

    // Path 2: sums over the buffered trace events.
    let traces = sink.take_traces();
    let (mut hits, mut misses, mut stale, mut evictions) = (0u64, 0u64, 0u64, 0u64);
    for trace in &traces {
        let m = trace.metrics().counts;
        for kind in 0..CACHE_KINDS.len() {
            let [h, mi, s, e] = Count::cache(kind).map(|count| m.get(count));
            hits += h;
            misses += mi;
            stale += s;
            evictions += e;
        }
    }
    assert_eq!(hits, local_hits);
    assert_eq!(misses, local_misses);
    assert_eq!(stale, local_stale);
    assert_eq!(evictions, local_evictions);

    // Path 3: the registry's per-cache rows, keyed per cache kind.
    let snapshot = registry.snapshot();
    for (kind, counters) in [
        ("results", stats.results),
        ("stats", stats.terms),
        ("docs", stats.docs),
    ] {
        let slot = CACHE_KINDS
            .iter()
            .position(|&c| c == kind)
            .unwrap_or_else(|| panic!("no registry slot for cache {kind:?}"));
        let [h, mi, s, e] = Count::cache(slot).map(|count| snapshot.counts.get(count));
        assert_eq!(h, counters.hits, "{kind} hits");
        assert_eq!(mi, counters.misses, "{kind} misses");
        assert_eq!(s, counters.stale, "{kind} stale");
        assert_eq!(e, counters.evictions, "{kind} evictions");
    }
}

/// The simulator registry covers the rank fan-out (its `sent`/`reply`
/// events) while `QueryCost::bytes_on_wire` additionally charges the
/// document-fetch phase, which the sim does not emit exchange events
/// for. So the teed registry must see nonzero traffic bounded by the
/// cost model's total.
#[test]
fn sim_registry_traffic_is_bounded_by_query_cost() {
    let (corpus, _system, mut driver) = setup();
    let registry = Arc::new(MetricsRegistry::new());
    driver.enable_tracing().tee_metrics(Arc::clone(&registry));
    let topo = Topology::multi_disk(4);
    let cost = CostModel::default();
    let q = &corpus.short_queries()[0].text;
    let result = driver
        .time_query(
            &topo,
            &cost,
            SimMode::Distributed(Methodology::CentralVocabulary),
            q,
            20,
        )
        .unwrap();
    let snapshot = registry.snapshot();
    let totals = &snapshot.counts;
    let (sent, received) = (
        totals.get(Count::BYTES_SENT),
        totals.get(Count::BYTES_RECEIVED),
    );
    assert!(totals.get(Count::SENT) > 0, "sim fan-out must be metered");
    assert!(
        sent + received <= result.bytes_on_wire,
        "registry {sent} + {received} vs QueryCost {}",
        result.bytes_on_wire
    );
    // Methodology latency lands in the CV slot, in *virtual* micros.
    let cv = snapshot
        .per_methodology
        .iter()
        .position(|(code, _)| *code == "CV")
        .unwrap();
    assert_eq!(totals.get(Count::queries(cv)), 1);
    assert!(!snapshot.per_methodology[cv].1.is_empty());
}

#[test]
fn ms_baseline_matches_mono_collection_ranking() {
    let (corpus, _system, mut driver) = setup();
    let topo = Topology::mono_disk(1);
    let cost = CostModel::default();
    let q = &corpus.short_queries()[2].text;
    let sim = driver
        .time_query(&topo, &cost, SimMode::MonoServer, q, 10)
        .unwrap();
    let ms_hits = driver.mono().ranked_query(q, 10);
    let expected: Vec<(usize, u32)> = ms_hits.iter().map(|h| (0usize, h.doc)).collect();
    assert_eq!(sim.hits, expected);
}
