//! High-concurrency serving-core stress tests: many client threads
//! pipelining queries through multiplexed connections and a `ServePool`
//! must produce byte-identical rankings to a sequential in-process
//! oracle, keep all three traffic-accounting views in agreement, and
//! preserve the fault/retry/deadline semantics of the in-process path.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use teraphim::core::{
    CiParams, DistributedCollection, Librarian, Methodology, Receptionist, ServePool,
};
use teraphim::corpus::{CorpusSpec, SyntheticCorpus};
use teraphim::net::mux::{MuxPool, MuxTransport};
use teraphim::net::tcp::{ServerOptions, TcpServer};
use teraphim::net::{
    DispatchMode, FaultPlan, FaultyTransport, InProcTransport, ReplicaGroup, RetryPolicy,
    TcpOptions,
};
use teraphim::obs::{Count, MetricsRegistry, TraceSink};
use teraphim::text::Analyzer;

const CI: CiParams = CiParams {
    group_size: 10,
    k_prime: 50,
};

/// Spawns one multiplexing-capable server per subcollection: two
/// workers evaluating in parallel over one copy of the shard's index.
fn spawn_fleet(corpus: &SyntheticCorpus) -> Vec<TcpServer> {
    let workers = 2;
    corpus
        .subcollections()
        .iter()
        .map(|s| {
            let librarian = Librarian::build(&s.name, Analyzer::default(), &s.docs);
            TcpServer::spawn_with(
                (0..workers).map(|_| librarian.share()).collect(),
                "127.0.0.1:0",
                ServerOptions {
                    workers,
                    queue_depth: 64,
                },
            )
            .unwrap()
        })
        .collect()
}

/// N client threads race through a shared job list, each checking a
/// pipelined multiplexed session out of a `ServePool` per query. Every
/// ranking must be byte-identical to the sequential in-process oracle —
/// for all four methodologies, repeated so the same query runs on
/// several different sessions.
#[test]
fn concurrent_pipelined_sessions_match_the_sequential_oracle() {
    let corpus = SyntheticCorpus::generate(&CorpusSpec::small(77));
    let parts: Vec<(&str, &[teraphim::text::sgml::TrecDoc])> = corpus
        .subcollections()
        .iter()
        .map(|s| (s.name.as_str(), s.docs.as_slice()))
        .collect();
    let oracle = DistributedCollection::build_with(&parts, Analyzer::default(), CI).unwrap();

    let servers = spawn_fleet(&corpus);
    let mut prototype = Receptionist::new(
        servers
            .iter()
            .map(|s| MuxTransport::connect(s.addr()).unwrap())
            .collect::<Vec<_>>(),
        Analyzer::default(),
    );
    prototype.enable_cv().unwrap();
    prototype.enable_ci(CI).unwrap();

    let pools: Vec<Arc<MuxPool>> = servers
        .iter()
        .map(|s| MuxPool::connect(s.addr(), 2, TcpOptions::default()).unwrap())
        .collect();
    // Fewer sessions than client threads: some checkouts must block on
    // the pool's admission control and still come back correct.
    let serve_pool = ServePool::new(
        (0..6)
            .map(|_| {
                prototype.fork(
                    pools
                        .iter()
                        .map(|p| MuxTransport::new(Arc::clone(p)))
                        .collect::<Vec<_>>(),
                )
            })
            .collect(),
    );

    // (methodology, query, expected docnos), each run three times so it
    // lands on different sessions interleaved with other queries.
    let mut jobs = Vec::new();
    for methodology in Methodology::ALL {
        for query in corpus.short_queries().iter().take(4) {
            let expected = oracle.ranked_docnos(methodology, &query.text, 12).unwrap();
            jobs.push((methodology, query.text.clone(), expected));
        }
    }
    let reps = 3;
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let next = &next;
            let jobs = &jobs;
            let serve_pool = serve_pool.clone();
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() * reps {
                    break;
                }
                let (methodology, query, expected) = &jobs[i % jobs.len()];
                let mut session = serve_pool.session();
                let got = session.ranked_docnos(*methodology, query, 12).unwrap();
                assert_eq!(&got, expected, "{methodology} query {query:?}");
            });
        }
    });
    assert_eq!(serve_pool.in_flight(), 0, "all sessions returned");

    for server in servers {
        server.shutdown();
    }
}

/// Traffic accounting must agree three ways under concurrency, per
/// session and in aggregate:
///
/// 1. the session's own transport counters ([`Receptionist::traffic`]);
/// 2. the sums over that session's trace events;
/// 3. a metrics registry shared by *all* sessions' sinks.
///
/// And the fleet's server-side counters must equal the client-side sum —
/// no request is double-counted or lost in the multiplexed pipeline.
#[test]
fn session_accounting_agrees_three_ways_under_concurrency() {
    let corpus = SyntheticCorpus::generate(&CorpusSpec::small(31));
    let servers = spawn_fleet(&corpus);
    let prototype = Receptionist::new(
        servers
            .iter()
            .map(|s| MuxTransport::connect(s.addr()).unwrap())
            .collect::<Vec<_>>(),
        Analyzer::default(),
    );
    let pools: Vec<Arc<MuxPool>> = servers
        .iter()
        .map(|s| MuxPool::connect(s.addr(), 2, TcpOptions::default()).unwrap())
        .collect();
    // Setup consumed some round trips on the prototype's transports;
    // only the forked sessions' traffic goes through the mux pools, so
    // server counters are compared against the pools' counters.
    let registry = Arc::new(MetricsRegistry::new());

    let queries: Vec<String> = corpus
        .short_queries()
        .iter()
        .map(|q| q.text.clone())
        .collect();
    let sessions: Vec<(Receptionist<MuxTransport>, TraceSink)> = (0..4)
        .map(|_| {
            let sink = TraceSink::new();
            sink.tee_metrics(Arc::clone(&registry));
            let mut session = prototype.fork(
                pools
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        MuxTransport::new(Arc::clone(p)).with_trace(sink.clone(), i as u32)
                    })
                    .collect::<Vec<_>>(),
            );
            session.set_trace_sink(sink.clone());
            (session, sink)
        })
        .collect();

    let finished: Vec<(Receptionist<MuxTransport>, TraceSink)> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .into_iter()
            .map(|(mut session, sink)| {
                let queries = &queries;
                scope.spawn(move || {
                    for (i, query) in queries.iter().cycle().take(10).enumerate() {
                        let k = 5 + (i % 3);
                        session
                            .query(Methodology::CentralNothing, query, k)
                            .unwrap();
                    }
                    (session, sink)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut client_total = teraphim::net::TrafficStats::default();
    for (session, sink) in &finished {
        let transports = session.per_librarian_traffic();
        client_total.absorb(&session.traffic());

        // Way 2: this session's trace sums equal its transport counters.
        let traces = sink.take_traces();
        assert_eq!(traces.len(), 10);
        let mut trace_rows = vec![teraphim::net::TrafficStats::default(); transports.len()];
        for trace in &traces {
            let counts = trace.metrics().counts;
            assert!(counts.librarians() <= trace_rows.len());
            for (lib, entry) in trace_rows.iter_mut().enumerate() {
                let count = |count| counts.librarian(lib, count);
                entry.bytes_sent += count(Count::BYTES_SENT);
                entry.bytes_received += count(Count::BYTES_RECEIVED);
                entry.round_trips += (count(Count::SENT) + count(Count::REPLIES)) / 2;
            }
        }
        assert_eq!(trace_rows, transports, "trace sums vs transport counters");
    }

    // Way 3: the shared registry saw every session's traffic, exactly.
    let snapshot = registry.snapshot();
    let totals = &snapshot.counts;
    assert_eq!(totals.queries(), 40, "4 sessions x 10 queries");
    assert_eq!(snapshot.per_methodology[1].0, "CN");
    assert_eq!(snapshot.per_methodology[1].1.count, 40);
    assert_eq!(totals.get(Count::SENT), client_total.round_trips);
    assert_eq!(totals.get(Count::BYTES_SENT), client_total.bytes_sent);
    assert_eq!(
        totals.get(Count::BYTES_RECEIVED),
        client_total.bytes_received
    );

    // Server side: the fleet answered exactly the exchanges the mux
    // pools carried (sessions are the pools' only users).
    let pool_trips: u64 = pools.iter().map(|p| p.traffic().round_trips).sum();
    let server_trips: u64 = servers.iter().map(|s| s.traffic().round_trips).sum();
    let prototype_trips = prototype.traffic().round_trips;
    assert_eq!(pool_trips, client_total.round_trips);
    assert_eq!(server_trips, pool_trips + prototype_trips);

    for server in servers {
        server.shutdown();
    }
}

/// Deterministic faults injected on the multiplexed path must produce
/// exactly the coverage and rankings of the same plans on the in-process
/// path: a transient failure is retried transparently, a permanent one
/// degrades the same librarian out of the answer.
#[test]
fn mux_faults_and_retries_match_the_inproc_oracle() {
    let texts: [(&str, &[(&str, &str)]); 4] = [
        ("A", &[("A-1", "cats and dogs"), ("A-2", "just cats")]),
        ("B", &[("B-1", "dogs alone"), ("B-2", "cats dogs birds")]),
        ("C", &[("C-1", "cats chasing birds"), ("C-2", "quiet cats")]),
        ("D", &[("D-1", "birds and cats"), ("D-2", "sleeping dogs")]),
    ];
    // Librarian 1 fails once (retried), librarian 2 fails permanently
    // (degraded out). Faults are client-side, so server traffic and the
    // librarians themselves stay identical between the two runs.
    let plans = |lib: usize| -> FaultPlan {
        match lib {
            1 => FaultPlan::new().fail_nth(0),
            2 => FaultPlan::new().fail_from(0),
            _ => FaultPlan::new(),
        }
    };
    let policy = RetryPolicy {
        max_retries: 2,
        backoff: Duration::ZERO,
    };

    let mut oracle = Receptionist::new(
        texts
            .iter()
            .enumerate()
            .map(|(i, (name, docs))| {
                let faulty = FaultyTransport::new(
                    InProcTransport::new(Librarian::from_texts(name, docs)),
                    plans(i),
                );
                ReplicaGroup::new(i as u32, vec![(0, faulty)]).with_retries(policy)
            })
            .collect::<Vec<_>>(),
        Analyzer::default(),
    );
    oracle.set_dispatch_mode(DispatchMode::Sequential);

    let servers: Vec<TcpServer> = texts
        .iter()
        .map(|(name, docs)| {
            TcpServer::spawn_with(
                vec![Librarian::from_texts(name, docs)],
                "127.0.0.1:0",
                ServerOptions::default(),
            )
            .unwrap()
        })
        .collect();
    let mut mux = Receptionist::new(
        servers
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let faulty =
                    FaultyTransport::new(MuxTransport::connect(s.addr()).unwrap(), plans(i));
                ReplicaGroup::new(i as u32, vec![(0, faulty)]).with_retries(policy)
            })
            .collect::<Vec<_>>(),
        Analyzer::default(),
    );

    let fingerprint = |hits: &[teraphim::core::GlobalHit]| -> Vec<(usize, u32, u64)> {
        hits.iter()
            .map(|h| (h.librarian, h.doc, h.score.to_bits()))
            .collect()
    };
    for query in ["cats dogs", "birds", "quiet sleeping cats"] {
        let expected = oracle
            .query_with_coverage(Methodology::CentralNothing, query, 8)
            .unwrap();
        let got = mux
            .query_with_coverage(Methodology::CentralNothing, query, 8)
            .unwrap();
        assert_eq!(got.coverage.answered, expected.coverage.answered, "{query}");
        assert_eq!(got.coverage.failed, expected.coverage.failed, "{query}");
        assert_eq!(
            fingerprint(&got.hits),
            fingerprint(&expected.hits),
            "{query}"
        );
    }

    for server in servers {
        server.shutdown();
    }
}

/// A librarian that accepts the multiplexed connection but never replies
/// must trip the per-request deadline (once per retry attempt) and be
/// degraded out — the contract `tcp_e2e` traces event by event under
/// concurrent dispatch, here with every request pipelined.
#[test]
fn silent_librarian_times_out_over_mux_and_degrades() {
    let texts: [(&str, &[(&str, &str)]); 3] = [
        ("A", &[("A-1", "cats and dogs"), ("A-2", "just cats")]),
        ("B", &[("B-1", "dogs alone"), ("B-2", "cats dogs birds")]),
        ("C", &[("C-1", "cats chasing birds"), ("C-2", "quiet cats")]),
    ];
    let servers: Vec<TcpServer> = texts
        .iter()
        .map(|(name, docs)| {
            TcpServer::spawn_with(
                vec![Librarian::from_texts(name, docs)],
                "127.0.0.1:0",
                ServerOptions::default(),
            )
            .unwrap()
        })
        .collect();
    // Connections land in the backlog, so connect succeeds but no
    // reply ever comes back for the waiting exchange to read.
    let silent = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let silent_addr = silent.local_addr().unwrap();

    let deadline = Duration::from_millis(250);
    let policy = RetryPolicy {
        max_retries: 1,
        backoff: Duration::ZERO,
    };
    let connect = |addr: std::net::SocketAddr| {
        let mux = MuxTransport::connect(addr).unwrap().with_deadline(deadline);
        ReplicaGroup::new(0, vec![(0, mux)]).with_retries(policy)
    };
    let mut r = Receptionist::new(
        vec![
            connect(servers[0].addr()),
            connect(servers[1].addr()),
            connect(silent_addr),
            connect(servers[2].addr()),
        ],
        Analyzer::default(),
    );

    let started = Instant::now();
    let answer = r
        .query_with_coverage(Methodology::CentralNothing, "cats dogs", 8)
        .unwrap();
    let elapsed = started.elapsed();

    assert_eq!(answer.coverage.answered, vec![0, 1, 3]);
    assert_eq!(answer.coverage.failed, vec![2]);
    assert!(!answer.hits.is_empty());
    assert!(answer.hits.iter().all(|h| h.librarian != 2));
    // Two deadline waits (initial + one retry) plus slack — not a hang.
    assert!(
        elapsed < deadline * 5,
        "degraded query took {elapsed:?} against a {deadline:?} deadline"
    );

    // The degraded answer matches a fan-out to only the healthy subset.
    let subset = r
        .query_subset(Methodology::CentralNothing, "cats dogs", 8, &[0, 1, 3])
        .unwrap();
    let key = |hits: &[teraphim::core::GlobalHit]| -> Vec<(usize, u32, u64)> {
        hits.iter()
            .map(|h| (h.librarian, h.doc, h.score.to_bits()))
            .collect()
    };
    assert_eq!(key(&answer.hits), key(&subset));

    for server in servers {
        server.shutdown();
    }
}
