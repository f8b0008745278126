//! Fleet health end to end: the `Stats` admin protocol, the metrics
//! registry teed from the trace path, and `HealthReport` classification
//! under injected faults — the same answers over in-process and TCP
//! transports.

use std::sync::Arc;
use std::time::{Duration, Instant};

use teraphim::core::health::{poll_fleet, HealthPolicy, HealthState};
use teraphim::core::{CiParams, Librarian, Methodology, Receptionist};
use teraphim::net::tcp::TcpServer;
use teraphim::net::{DispatchMode, FaultPlan, FaultyTransport, InProcTransport, MuxTransport};
use teraphim::obs::{Count, MetricsRegistry, CACHE_KINDS};
use teraphim::text::Analyzer;

/// Four librarians with overlapping vocabulary (every one participates
/// in a "cats" fan-out) — the same fixture shape `tests/failures.rs`
/// uses.
fn four_librarians() -> Vec<Librarian> {
    vec![
        Librarian::from_texts("A", &[("A-1", "cats and dogs"), ("A-2", "just cats")]),
        Librarian::from_texts("B", &[("B-1", "dogs alone"), ("B-2", "cats dogs birds")]),
        Librarian::from_texts("C", &[("C-1", "cats chasing birds"), ("C-2", "quiet cats")]),
        Librarian::from_texts("D", &[("D-1", "birds and cats"), ("D-2", "sleeping dogs")]),
    ]
}

fn faulty_receptionist(
    plans: Vec<FaultPlan>,
) -> Receptionist<FaultyTransport<InProcTransport<Librarian>>> {
    let transports = four_librarians()
        .into_iter()
        .zip(plans)
        .map(|(lib, plan)| FaultyTransport::new(InProcTransport::new(lib), plan))
        .collect();
    Receptionist::new(transports, Analyzer::default())
}

fn plans_with(lib: usize, plan: FaultPlan) -> Vec<FaultPlan> {
    let mut plans = vec![FaultPlan::new(); 4];
    plans[lib] = plan;
    plans
}

/// The tentpole's acceptance shape: enable tracing, tee a registry, run
/// an ordinary query — per-librarian latency histograms and counters
/// light up from the existing trace events alone.
#[test]
fn any_traced_query_populates_per_librarian_metrics() {
    let transports: Vec<InProcTransport<Librarian>> = four_librarians()
        .into_iter()
        .map(InProcTransport::new)
        .collect();
    let mut receptionist = Receptionist::new(transports, Analyzer::default());
    receptionist.enable_tracing();
    let registry = receptionist.enable_metrics();
    receptionist.enable_cv().unwrap();
    receptionist
        .query(Methodology::CentralVocabulary, "cats and birds", 8)
        .unwrap();

    let snapshot = registry.snapshot();
    let counts = &snapshot.counts;
    assert_eq!(counts.queries(), 1);
    assert!(counts.get(Count::SENT) >= 4, "setup + rank fan-out");
    assert_eq!(counts.librarians(), 4);
    assert_eq!(snapshot.per_librarian.len(), 4);
    for (lib, latency) in snapshot.per_librarian.iter().enumerate() {
        assert!(
            counts.librarian(lib, Count::SENT) > 0,
            "lib {lib} never contacted"
        );
        assert!(!latency.is_empty(), "lib {lib} has no latency samples");
        assert!(latency.p99() >= latency.p50());
    }
    let cv = snapshot
        .per_methodology
        .iter()
        .position(|(code, _)| *code == "CV")
        .unwrap();
    assert_eq!(counts.get(Count::queries(cv)), 1);
    assert!(!snapshot.per_methodology[cv].1.is_empty());
    // The exposition renders and lints clean straight off a live run.
    teraphim::obs::lint_prometheus(&snapshot.render_prometheus()).unwrap();
}

/// The satellite scenario: one permanently-failed librarian. The health
/// report marks exactly that librarian down, the stats table reflects
/// it, and the registry's failure counters agree with the `Coverage`
/// metadata the degraded queries returned.
#[test]
fn permanently_failed_librarian_is_down_and_counters_match_coverage() {
    let mut receptionist = faulty_receptionist(plans_with(2, FaultPlan::new().fail_from(0)));
    let registry = receptionist.enable_metrics();

    let mut degraded = 0u64;
    let mut failed_exchanges = 0u64;
    for _ in 0..3 {
        let answer = receptionist
            .query_with_coverage(Methodology::CentralNothing, "cats", 8)
            .unwrap();
        assert_eq!(answer.coverage.failed, vec![2], "only librarian 2 fails");
        if answer.coverage.is_degraded() {
            degraded += 1;
        }
        failed_exchanges += answer.coverage.failed.len() as u64;
    }

    let snapshot = registry.snapshot();
    let counts = &snapshot.counts;
    assert_eq!(counts.get(Count::DEGRADED_QUERIES), degraded);
    assert_eq!(counts.get(Count::FAILURES), failed_exchanges);
    assert_eq!(counts.librarian(2, Count::FAILURES), failed_exchanges);
    for lib in [0usize, 1, 3] {
        assert_eq!(counts.librarian(lib, Count::FAILURES), 0);
    }

    let report = receptionist.fleet_health();
    assert_eq!(report.librarians.len(), 4);
    for row in &report.librarians {
        let expected = if row.librarian == 2 {
            HealthState::Down
        } else {
            HealthState::Up
        };
        assert_eq!(row.state, expected, "librarian {}", row.librarian);
    }
    assert_eq!(report.summary(), "4 librarians: 3 up, 0 degraded, 1 down");

    // The rendered table (what `teraphim stats` prints) reflects it.
    let table = report.render_table();
    let lines: Vec<&str> = table.lines().collect();
    assert_eq!(lines.len(), 5, "header + 4 rows");
    assert!(
        lines[3].contains("down"),
        "row for librarian 2: {}",
        lines[3]
    );
    for &healthy in &[1usize, 2, 4] {
        assert!(lines[healthy].contains("up"), "{}", lines[healthy]);
    }
}

/// A librarian that failed once but recovered answers its own poll
/// cleanly — the *client-side* ledger is what degrades it.
#[test]
fn transient_failure_degrades_via_client_observations() {
    // fail_nth(0): the first request librarian 1 receives fails, all
    // later ones (including the Stats poll) succeed.
    let mut receptionist = faulty_receptionist(plans_with(1, FaultPlan::new().fail_nth(0)));
    let registry = receptionist.enable_metrics();
    let answer = receptionist
        .query_with_coverage(Methodology::CentralNothing, "cats", 8)
        .unwrap();
    assert_eq!(answer.coverage.failed, vec![1]);
    // A second query succeeds everywhere: librarian 1's client-side
    // error rate settles at 1 failure / 2 sends = 0.5.
    let answer = receptionist
        .query_with_coverage(Methodology::CentralNothing, "dogs", 8)
        .unwrap();
    assert!(answer.coverage.failed.is_empty());
    assert_eq!(registry.snapshot().counts.librarian(1, Count::FAILURES), 1);

    let report = receptionist.fleet_health();
    assert_eq!(report.librarians[1].state, HealthState::Degraded);
    for lib in [0usize, 2, 3] {
        assert_eq!(report.librarians[lib].state, HealthState::Up);
    }

    // With a permissive policy the same fleet reads fully up.
    let lenient = receptionist.fleet_health_with(HealthPolicy {
        degraded_error_rate: 0.9,
    });
    assert!(lenient.all_up());
}

/// A result-cache hit answers without touching the fleet: the metrics
/// registry's query count advances while its traffic ledger stands
/// still, and the health report's server-side request counters show the
/// librarians never saw the repeat.
#[test]
fn cache_hits_leave_the_fleet_ledger_untouched() {
    let transports: Vec<InProcTransport<Librarian>> = four_librarians()
        .into_iter()
        .map(InProcTransport::new)
        .collect();
    let mut receptionist = Receptionist::new(transports, Analyzer::default());
    receptionist.enable_tracing();
    let registry = receptionist.enable_metrics();
    receptionist.enable_cv().unwrap();
    receptionist.enable_cache(teraphim::core::CacheConfig::default());

    receptionist
        .query(Methodology::CentralVocabulary, "cats and birds", 8)
        .unwrap();
    let cold = registry.snapshot();
    receptionist
        .query(Methodology::CentralVocabulary, "cats and birds", 8)
        .unwrap();
    let (cold, warm) = (cold.counts, registry.snapshot().counts);

    assert_eq!(
        warm.queries(),
        cold.queries() + 1,
        "the hit still counts as a query"
    );
    assert_eq!(
        warm.get(Count::SENT),
        cold.get(Count::SENT),
        "a hit sends nothing"
    );
    assert_eq!(warm.get(Count::BYTES_SENT), cold.get(Count::BYTES_SENT));
    let results = CACHE_KINDS.iter().position(|&c| c == "results").unwrap();
    let [hits, misses, ..] = Count::cache(results).map(|count| warm.get(count));
    assert_eq!((hits, misses), (1, 1));

    // The librarians' own ledgers agree: one rank request each, ever.
    let report = receptionist.fleet_health();
    assert!(report.all_up());
    for row in &report.librarians {
        assert_eq!(row.rank_requests, 1, "librarian {}", row.librarian);
        assert_eq!(row.epoch, 0, "no librarian re-indexed");
    }
}

/// The health poll doubles as the cache's epoch watcher: a fleet whose
/// health degrades, or whose poll reports a moved index epoch, bumps
/// the receptionist's cache generation so stale results never serve.
#[test]
fn health_polls_drive_cache_invalidation() {
    // Librarian 2 dies permanently. With the cache on, the first
    // coverage query observes the degraded fleet (one generation bump)
    // and later repeats replay the flagged degraded entry.
    let mut receptionist = faulty_receptionist(plans_with(2, FaultPlan::new().fail_from(0)));
    receptionist.enable_cache(teraphim::core::CacheConfig::default());
    let g0 = receptionist.cache_stats().unwrap().generation;
    let first = receptionist
        .query_with_coverage(Methodology::CentralNothing, "cats", 8)
        .unwrap();
    assert!(first.coverage.is_degraded());
    let g1 = receptionist.cache_stats().unwrap().generation;
    assert!(g1 > g0, "degradation must bump the generation");

    let again = receptionist
        .query_with_coverage(Methodology::CentralNothing, "cats", 8)
        .unwrap();
    assert_eq!(again.hits, first.hits);
    assert_eq!(again.coverage, first.coverage);
    let stats = receptionist.cache_stats().unwrap();
    assert_eq!(
        stats.results.hits, 1,
        "the degraded entry served the repeat"
    );
    assert_eq!(
        stats.generation, g1,
        "an unchanged failed set does not re-bump"
    );

    // Polling health confirms the same picture the cache acted on: the
    // report marks librarian 2 down, and folding that report into the
    // cache state is idempotent — no further generation churn.
    let report = receptionist.fleet_health();
    assert_eq!(report.librarians[2].state, HealthState::Down);
    assert_eq!(receptionist.cache_stats().unwrap().generation, g1);
}

/// The health poll is a fan-out like any other: four librarians that
/// each take 20 ms to answer are polled in about one delay, not four,
/// and a dead one among them costs the others nothing.
#[test]
fn fleet_health_polls_every_librarian_at_once() {
    let delay = Duration::from_millis(20);
    let slow = || FaultPlan::new().delay_all(delay);

    let mut receptionist = faulty_receptionist(vec![slow(); 4]);
    let start = Instant::now();
    let report = receptionist.fleet_health();
    let took = start.elapsed();
    assert!(report.all_up(), "{}", report.summary());
    assert!(took < delay * 5 / 2, "four 20 ms polls took {took:?}");

    let mut plans = vec![slow(); 4];
    plans[2] = FaultPlan::new().fail_from(0);
    let mut receptionist = faulty_receptionist(plans);
    let report = receptionist.fleet_health();
    let rows: Vec<(u32, HealthState)> = report
        .librarians
        .iter()
        .map(|row| (row.librarian, row.state))
        .collect();
    assert_eq!(
        rows,
        [
            (0, HealthState::Up),
            (1, HealthState::Up),
            (2, HealthState::Down),
            (3, HealthState::Up),
        ]
    );
}

/// The same report shape over TCP and in-process transports: a live TCP
/// fleet serves `Stats` end to end, and the rendered table is identical
/// to the in-process one over the same (healthy) librarians.
#[test]
fn tcp_and_in_process_stats_produce_the_same_table_shape() {
    let servers: Vec<TcpServer> = four_librarians()
        .into_iter()
        .map(|lib| TcpServer::spawn(lib, "127.0.0.1:0").unwrap())
        .collect();
    let mut tcp_transports: Vec<MuxTransport> = servers
        .iter()
        .map(|s| MuxTransport::connect(s.addr()).unwrap())
        .collect();
    let tcp_report = poll_fleet(
        DispatchMode::default(),
        &mut tcp_transports,
        HealthPolicy::default(),
    );

    let mut inproc_transports: Vec<InProcTransport<Librarian>> = four_librarians()
        .into_iter()
        .map(InProcTransport::new)
        .collect();
    let inproc_report = poll_fleet(
        DispatchMode::default(),
        &mut inproc_transports,
        HealthPolicy::default(),
    );

    // Fresh librarians on both sides: no requests served yet, so the
    // ledgers — and therefore the rendered tables — are identical.
    assert_eq!(tcp_report, inproc_report);
    assert_eq!(tcp_report.render_table(), inproc_report.render_table());
    assert!(tcp_report.all_up());
    for row in &tcp_report.librarians {
        assert!(row.num_docs == 2, "self-reported index stats over TCP");
        assert!(row.index_bytes > 0);
    }
    for server in servers {
        server.shutdown();
    }
}

/// CI preprocessing plus queries through a teed registry: per-phase
/// histograms fill in and the per-methodology slot sees CI latency.
#[test]
fn ci_queries_meter_phases_and_methodology_slots() {
    let transports: Vec<InProcTransport<Librarian>> = four_librarians()
        .into_iter()
        .map(InProcTransport::new)
        .collect();
    let mut receptionist = Receptionist::new(transports, Analyzer::default());
    let registry = Arc::new(MetricsRegistry::new());
    receptionist
        .enable_tracing()
        .tee_metrics(Arc::clone(&registry));
    receptionist
        .enable_ci(CiParams {
            group_size: 2,
            k_prime: 4,
        })
        .unwrap();
    receptionist
        .query(Methodology::CentralIndex, "cats birds", 4)
        .unwrap();
    let snapshot = registry.snapshot();
    let ci = snapshot
        .per_methodology
        .iter()
        .position(|(code, _)| *code == "CI")
        .unwrap();
    assert_eq!(snapshot.counts.get(Count::queries(ci)), 1);
    assert!(
        snapshot.counts.get(Count::SCORED_CANDIDATES) > 0,
        "Scored events tee through"
    );
    assert!(
        snapshot.per_phase.iter().any(|(_, h)| !h.is_empty()),
        "phase brackets tee through"
    );
}
