//! End-to-end over real TCP on loopback: the same queries must produce
//! the same rankings as the in-process transport.

use teraphim::core::{CiParams, DistributedCollection, Librarian, Methodology, Receptionist};
use teraphim::corpus::{CorpusSpec, SyntheticCorpus};
use teraphim::net::tcp::TcpServer;
use teraphim::net::{InProcTransport, MuxTransport, ReplicaGroup, RetryPolicy};
use teraphim::obs::{diff_json, EventKind, TraceSink};
use teraphim::text::sgml::TrecDoc;
use teraphim::text::Analyzer;

#[test]
fn tcp_and_inproc_agree_on_all_methodologies() {
    let corpus = SyntheticCorpus::generate(&CorpusSpec::small(55));
    let parts: Vec<(&str, &[TrecDoc])> = corpus
        .subcollections()
        .iter()
        .map(|s| (s.name.as_str(), s.docs.as_slice()))
        .collect();

    // In-process reference.
    let reference = DistributedCollection::build_with(
        &parts,
        Analyzer::default(),
        CiParams {
            group_size: 10,
            k_prime: 50,
        },
    )
    .unwrap();

    // TCP cluster.
    let servers: Vec<TcpServer> = corpus
        .subcollections()
        .iter()
        .map(|s| {
            TcpServer::spawn(
                Librarian::build(&s.name, Analyzer::default(), &s.docs),
                "127.0.0.1:0",
            )
            .unwrap()
        })
        .collect();
    let transports: Vec<MuxTransport> = servers
        .iter()
        .map(|s| MuxTransport::connect(s.addr()).unwrap())
        .collect();
    let mut tcp = Receptionist::new(transports, Analyzer::default());
    tcp.enable_cv().unwrap();
    tcp.enable_ci(CiParams {
        group_size: 10,
        k_prime: 50,
    })
    .unwrap();

    for methodology in Methodology::ALL {
        for query in corpus.short_queries().iter().take(3) {
            let expected = reference
                .ranked_docnos(methodology, &query.text, 15)
                .unwrap();
            let got = tcp.ranked_docnos(methodology, &query.text, 15).unwrap();
            assert_eq!(got, expected, "{methodology} query {}", query.id);
        }
    }

    // Compressed document fetch over TCP round-trips.
    let hits = tcp
        .query(
            Methodology::CentralVocabulary,
            &corpus.short_queries()[0].text,
            3,
        )
        .unwrap();
    let docs = tcp.fetch(&hits, true).unwrap();
    assert_eq!(docs.len(), 3);
    assert!(docs.iter().all(|d| d.text.is_some()));

    for server in servers {
        server.shutdown();
    }
}

/// One librarian accepts the TCP connection but never replies: the
/// receptionist's reply deadline must fire (once per retry attempt), the
/// query must degrade (not hang), the other librarians' results must
/// come through intact, and the trace must record the exact
/// timeout/retry sequence the deadline configuration implies.
#[test]
fn silent_librarian_degrades_within_the_deadline() {
    use std::time::{Duration, Instant};

    let texts: [&[(&str, &str)]; 3] = [
        &[("A-1", "cats and dogs"), ("A-2", "just cats")],
        &[("B-1", "dogs alone"), ("B-2", "cats dogs birds")],
        &[("C-1", "cats chasing birds"), ("C-2", "quiet cats")],
    ];
    let servers: Vec<TcpServer> = texts
        .iter()
        .enumerate()
        .map(|(i, docs)| {
            TcpServer::spawn(Librarian::from_texts(&format!("L{i}"), docs), "127.0.0.1:0").unwrap()
        })
        .collect();

    // The silent librarian: connections land in the listener's backlog
    // (so connect succeeds) but no reply is ever written.
    let silent = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let silent_addr = silent.local_addr().unwrap();

    let sink = TraceSink::new();
    let deadline = Duration::from_millis(300);
    let policy = RetryPolicy {
        max_retries: 2,
        backoff: Duration::ZERO,
    };
    let connect = |addr: std::net::SocketAddr, lib: u32| {
        let mux = MuxTransport::connect_with_deadline(addr, deadline)
            .unwrap()
            .with_trace(sink.clone(), lib);
        ReplicaGroup::new(lib, vec![(lib, mux)])
            .with_retries(policy)
            .with_trace(sink.clone())
    };
    let transports = vec![
        connect(servers[0].addr(), 0),
        connect(servers[1].addr(), 1),
        connect(silent_addr, 2),
        connect(servers[2].addr(), 3),
    ];

    let mut r = Receptionist::new(transports, Analyzer::default());
    r.set_trace_sink(sink.clone());
    let started = Instant::now();
    let answer = r
        .query_with_coverage(Methodology::CentralNothing, "cats dogs", 8)
        .unwrap();
    let elapsed = started.elapsed();

    // The silent librarian (index 2) timed out; everyone else answered.
    assert_eq!(answer.coverage.answered, vec![0, 1, 3]);
    assert_eq!(answer.coverage.failed, vec![2]);
    assert!(!answer.hits.is_empty());
    assert!(answer.hits.iter().all(|h| h.librarian != 2));
    // Bounded by one deadline per attempt plus scheduling slack — not a
    // hang: max_retries = 2 means three deadline waits on the silent
    // librarian, overlapped with the healthy exchanges.
    assert!(
        elapsed < deadline * 5,
        "degraded query took {elapsed:?} against a {deadline:?} deadline"
    );

    // The trace records the failure as the deadline config dictates —
    // assert event counts and ordering, never wall-clock times.
    let traces = sink.take_traces();
    assert_eq!(traces.len(), 1);
    let trace = &traces[0];
    assert_eq!(trace.op, "query_with_coverage");
    assert!(trace.complete);

    let tags_for = |lib: u32| -> Vec<&'static str> {
        trace
            .events
            .iter()
            .filter(|e| e.kind.librarian() == Some(lib))
            .map(|e| e.kind.tag())
            .collect()
    };
    // One send; each attempt's deadline expiry records a timeout, each
    // re-issue a retry; the exhausted transport fails the librarian.
    assert_eq!(
        tags_for(2),
        [
            "sent",
            "timeout",
            "retry",
            "timeout",
            "retry",
            "timeout",
            "lib_failed"
        ],
        "silent librarian event sequence"
    );
    let timeouts = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Timeout { librarian: 2 }))
        .count();
    assert_eq!(timeouts as u32, policy.max_retries + 1);
    let retries: Vec<(u32, &str)> = trace
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Retry {
                librarian: 2,
                attempt,
                error,
            } => Some((attempt, error)),
            _ => None,
        })
        .collect();
    assert_eq!(retries, [(1, "timeout"), (2, "timeout")]);
    for lib in [0u32, 1, 3] {
        assert_eq!(
            tags_for(lib),
            [
                "sent",
                "reply",
                "server_phase",
                "server_phase",
                "server_phase",
                "server_phase"
            ],
            "healthy librarian {lib}: each reply carries its four server phases"
        );
    }
    let coverage = trace
        .events
        .iter()
        .find_map(|e| match &e.kind {
            EventKind::Coverage {
                answered, failed, ..
            } => Some((answered.clone(), failed.clone())),
            _ => None,
        })
        .expect("coverage decision must be traced");
    assert_eq!(coverage, (vec![0, 1, 3], vec![2]));

    // The surviving rankings are exactly what a fan-out to only the
    // healthy librarians produces.
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

/// The QueryTrace schema is transport-independent: the same query over
/// loopback TCP and over in-process calls yields byte-identical
/// normalized traces (both transports count payload bytes only, so even
/// the byte fields line up).
#[test]
fn tcp_and_inproc_emit_identical_normalized_traces() {
    let texts: [&[(&str, &str)]; 3] = [
        &[("A-1", "cats and dogs"), ("A-2", "just cats")],
        &[("B-1", "dogs alone"), ("B-2", "cats dogs birds")],
        &[("C-1", "cats chasing birds"), ("C-2", "quiet cats")],
    ];
    let librarians = || {
        texts
            .iter()
            .enumerate()
            .map(|(i, docs)| Librarian::from_texts(&format!("L{i}"), docs))
    };

    let servers: Vec<TcpServer> = librarians()
        .map(|l| TcpServer::spawn(l, "127.0.0.1:0").unwrap())
        .collect();

    for methodology in [Methodology::CentralNothing, Methodology::CentralVocabulary] {
        let mut inproc = Receptionist::new(
            librarians().map(InProcTransport::new).collect(),
            Analyzer::default(),
        );
        let mut tcp = Receptionist::new(
            servers
                .iter()
                .map(|s| MuxTransport::connect(s.addr()).unwrap())
                .collect(),
            Analyzer::default(),
        );
        if methodology == Methodology::CentralVocabulary {
            inproc.enable_cv().unwrap();
            tcp.enable_cv().unwrap();
        }
        let sink_a = inproc.enable_tracing();
        let sink_b = tcp.enable_tracing();
        inproc.query(methodology, "cats birds", 5).unwrap();
        tcp.query(methodology, "cats birds", 5).unwrap();
        let a = sink_a.take_traces().remove(0).normalized().to_json();
        let b = sink_b.take_traces().remove(0).normalized().to_json();
        if let Some(diff) = diff_json(&a, &b) {
            panic!("{methodology}: in-process and TCP traces diverged:\n{diff}");
        }
    }

    for server in servers {
        server.shutdown();
    }
}

/// The tentpole, end to end over real sockets: one traced TCP query
/// yields one stitched span tree whose librarian spans carry the four
/// server-measured phase leaves; the client-side sum of those leaves
/// equals the phase ledger each server reports over `Stats`; and every
/// span-carrying request lands in the server's flight recorder,
/// dumpable over the admin `FlightRec` message.
#[test]
fn tcp_spans_phase_ledger_and_flight_recorder_agree() {
    use std::collections::HashMap;
    use teraphim::net::Transport;
    use teraphim::obs::{SpanTree, SERVER_PHASES};

    let corpus = SyntheticCorpus::generate(&CorpusSpec::small(33));
    let servers: Vec<TcpServer> = corpus
        .subcollections()
        .iter()
        .map(|s| {
            let mut librarian = Librarian::build(&s.name, Analyzer::default(), &s.docs);
            librarian.enable_flight_recorder(8);
            TcpServer::spawn(librarian, "127.0.0.1:0").unwrap()
        })
        .collect();
    let n = servers.len();

    let mut r = Receptionist::new(
        servers
            .iter()
            .map(|s| MuxTransport::connect(s.addr()).unwrap())
            .collect::<Vec<MuxTransport>>(),
        Analyzer::default(),
    );
    let sink = r.enable_tracing();
    let queries = 3;
    for q in corpus.short_queries().iter().take(queries) {
        r.query(Methodology::CentralNothing, &q.text, 10).unwrap();
    }

    // Fetch every server's flight-recorder dump over the admin message
    // and persist it under target/flightrec/ up front, before any
    // assertion can fail — CI uploads the directory as an artifact so a
    // red run still shows what each librarian spent its time on.
    let dumps: Vec<String> = servers
        .iter()
        .enumerate()
        .map(|(i, server)| {
            let mut t = MuxTransport::connect(server.addr()).unwrap();
            let reply = t
                .request(&teraphim::net::Message::FlightRecRequest)
                .unwrap();
            let teraphim::net::Message::FlightRecReply { json } = reply else {
                panic!("librarian {i}: expected FlightRecReply, got {reply:?}");
            };
            json
        })
        .collect();
    let dump_dir = std::path::Path::new("target").join("flightrec");
    std::fs::create_dir_all(&dump_dir).unwrap();
    for (i, json) in dumps.iter().enumerate() {
        std::fs::write(dump_dir.join(format!("librarian-{i}.json")), json).unwrap();
    }

    let traces = sink.take_traces();
    assert_eq!(traces.len(), queries, "one trace per traced query");
    let mut client_sums: HashMap<u32, u64> = HashMap::new();
    for trace in &traces {
        // One stitched tree per query: the root covers the whole
        // receptionist dispatch, each librarian child carries the four
        // server-side phase leaves in order.
        let tree = SpanTree::from_trace(trace);
        assert_eq!(tree.root.name, "query");
        assert!(!tree.faulted && !tree.degraded);
        let fanout = tree
            .root
            .children
            .iter()
            .find(|c| c.name == "rank_fanout")
            .expect("the rank fan-out phase is a child of the root");
        let lib_spans: Vec<_> = fanout
            .children
            .iter()
            .filter(|c| c.name == "librarian")
            .collect();
        assert_eq!(lib_spans.len(), n, "one librarian span per shard");
        for lib_span in lib_spans {
            let phases: Vec<&str> = lib_span.children.iter().map(|c| c.name.as_str()).collect();
            assert_eq!(phases, SERVER_PHASES, "server-side phase leaves");
            assert!(
                lib_span.start_micros >= tree.root.start_micros
                    && lib_span.start_micros + lib_span.duration_micros
                        <= tree.root.start_micros + tree.root.duration_micros,
                "the root span covers every librarian exchange"
            );
        }
        for event in &trace.events {
            if let teraphim::obs::EventKind::ServerPhase {
                librarian, micros, ..
            } = event.kind
            {
                *client_sums.entry(librarian).or_default() += micros;
            }
        }
    }

    // Ledger agreement: what the client stitched equals what each
    // server accumulated (the `Stats` poll is admin traffic and adds
    // nothing to the ledger itself).
    let report = r.fleet_health();
    assert!(report.all_up());
    for row in &report.librarians {
        let server_total: u64 = row.server_phases.iter().sum();
        assert_eq!(
            server_total,
            client_sums.get(&row.librarian).copied().unwrap_or(0),
            "librarian {}: server phase ledger vs client-side span sums",
            row.librarian
        );
    }

    // Every span-carrying request became a flight exemplar; the dump is
    // self-describing. Admin traffic (the dump fetch itself, the stats
    // polls above) never records exemplars, so counts are exact.
    for (i, json) in dumps.iter().enumerate() {
        assert!(
            json.starts_with("{\"flightrec\":true"),
            "librarian {i}: dump header: {json}"
        );
        assert!(
            json.contains(&format!("\"recorded\":{queries}")),
            "librarian {i}: {queries} traced requests recorded: {json}"
        );
        assert!(json.contains("\"span\":\"serve\""), "librarian {i}: {json}");
    }

    for server in servers {
        server.shutdown();
    }
}

#[test]
fn tcp_traffic_is_counted() {
    let docs = [TrecDoc {
        docno: "X-1".into(),
        text: "a single document".into(),
    }];
    let server = TcpServer::spawn(
        Librarian::build("X", Analyzer::default(), &docs),
        "127.0.0.1:0",
    )
    .unwrap();
    let transport = MuxTransport::connect(server.addr()).unwrap();
    let mut r = Receptionist::new(vec![transport], Analyzer::default());
    r.query(Methodology::CentralNothing, "document", 5).unwrap();
    let traffic = r.traffic();
    assert_eq!(traffic.round_trips, 1);
    assert!(traffic.bytes_sent > 0 && traffic.bytes_received > 0);
    server.shutdown();
}
