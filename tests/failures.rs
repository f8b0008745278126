//! Failure injection: the receptionist must surface librarian and
//! transport failures as typed errors or degraded (but still correct)
//! rankings — never as silently wrong answers, and never as hangs.
//!
//! All faults are injected through the deterministic
//! `teraphim::net::FaultPlan` harness, so every failing schedule here is
//! replayable: rebuilding the same wrappers around the same plans
//! reproduces the same exchanges byte for byte.

use std::time::{Duration, Instant};

use teraphim::compress::bytes::Reader;
use teraphim::core::{CiParams, Librarian, Methodology, Receptionist};
use teraphim::index::IndexBuilder;
use teraphim::net::{
    FaultPlan, FaultyTransport, InProcTransport, Message, NetError, ReplicaGroup, RetryPolicy,
    Service, Transport,
};
use teraphim::text::Analyzer;

/// Four librarians with overlapping vocabulary: every subcollection can
/// answer a "cats" query, so every librarian participates in every
/// methodology's fan-out.
fn four_librarians() -> Vec<Librarian> {
    vec![
        Librarian::from_texts("A", &[("A-1", "cats and dogs"), ("A-2", "just cats")]),
        Librarian::from_texts("B", &[("B-1", "dogs alone"), ("B-2", "cats dogs birds")]),
        Librarian::from_texts("C", &[("C-1", "cats chasing birds"), ("C-2", "quiet cats")]),
        Librarian::from_texts("D", &[("D-1", "birds and cats"), ("D-2", "sleeping dogs")]),
    ]
}

/// Wraps the transport to each librarian in a `FaultyTransport` driven
/// by its plan. The fault counter advances once per request the
/// receptionist *sends* that librarian, so setup traffic (`enable_cv` =
/// 1 request, `enable_ci` = 1 request) shifts the indices query traffic
/// sees.
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

fn healthy_plans() -> Vec<FaultPlan> {
    vec![FaultPlan::new(); 4]
}

fn plans_with(lib: usize, plan: FaultPlan) -> Vec<FaultPlan> {
    let mut plans = healthy_plans();
    plans[lib] = plan;
    plans
}

/// `(librarian, doc, score bits)` — bitwise identity, not approximate.
fn fingerprint(hits: &[teraphim::core::GlobalHit]) -> Vec<(usize, u32, u64)> {
    hits.iter()
        .map(|h| (h.librarian, h.doc, h.score.to_bits()))
        .collect()
}

#[test]
fn healthy_baseline_works() {
    let mut r = faulty_receptionist(healthy_plans());
    let hits = r.query(Methodology::CentralNothing, "cats", 8).unwrap();
    assert!(!hits.is_empty());
}

#[test]
fn rank_failure_at_one_librarian_fails_the_strict_query() {
    // The strict `query` path keeps its all-or-nothing contract: one
    // injected failure aborts the query with the librarian's error.
    let mut r = faulty_receptionist(plans_with(1, FaultPlan::new().fail_from(0)));
    let err = r.query(Methodology::CentralNothing, "cats", 8).unwrap_err();
    let message = format!("{err}");
    assert!(
        message.contains("injected fault"),
        "unexpected error: {message}"
    );
}

#[test]
fn fetch_failure_surfaces_after_successful_ranking() {
    // Request 0 at librarian 0 is the rank exchange (succeeds); request
    // 1 is the fetch (fails).
    let mut r = faulty_receptionist(plans_with(0, FaultPlan::new().fail_from(1)));
    let hits = r.query(Methodology::CentralNothing, "cats", 8).unwrap();
    assert!(hits.iter().any(|h| h.librarian == 0));
    let err = r.fetch(&hits, true).unwrap_err();
    assert!(format!("{err}").contains("injected fault"));
}

#[test]
fn garbled_query_ids_are_rejected() {
    let mut r = faulty_receptionist(plans_with(0, FaultPlan::new().garble_nth(0)));
    let err = r.query(Methodology::CentralNothing, "cats", 8).unwrap_err();
    assert!(format!("{err}").contains("unexpected"));
}

#[test]
fn cv_setup_failure_leaves_receptionist_usable_for_cn() {
    // Librarian 3 rejects its StatsRequest: enable_cv fails, but CN
    // still works (its defining property — no setup needed). The failed
    // setup consumed fault index 0, so the CN rank request (index 1)
    // is healthy again.
    let mut r = faulty_receptionist(plans_with(3, FaultPlan::new().fail_nth(0)));
    assert!(r.enable_cv().is_err());
    assert!(!r.has_cv());
    let hits = r.query(Methodology::CentralNothing, "cats", 8).unwrap();
    assert!(hits.iter().any(|h| h.librarian == 3));
}

#[test]
fn corrupt_index_bytes_fail_ci_setup() {
    // Payload corruption is outside FaultPlan's protocol-level faults,
    // so this keeps a bespoke service.
    struct BadIndex(Librarian, Vec<u8>);
    impl Service for BadIndex {
        fn handle(&mut self, request: Message) -> Message {
            match request {
                Message::IndexRequest => Message::IndexResponse {
                    index_bytes: self.1.clone(),
                },
                other => self.0.handle(other),
            }
        }
    }
    // Garbage; a well-formed index of one document whose posting names
    // document 9 (its group would be the ninth of a one-group part); and
    // 24 bytes whose stats section claims u32::MAX terms (a reservation
    // of 32 GiB that aborted the receptionist).
    for (index_bytes, group_size) in [
        (vec![0xDE, 0xAD, 0xBE, 0xEF], CiParams::default().group_size),
        (posting_past_its_documents(), 1),
        (
            stats_claiming_u32_max_terms(),
            CiParams::default().group_size,
        ),
    ] {
        let transports = vec![InProcTransport::new(BadIndex(
            Librarian::from_texts("A", &[("A-1", "cats")]),
            index_bytes,
        ))];
        let mut r = Receptionist::new(transports, Analyzer::default());
        let err = r
            .enable_ci(CiParams {
                group_size,
                ..Default::default()
            })
            .unwrap_err();
        assert!(format!("{err}").contains("index") || format!("{err}").contains("corrupt"));
    }
}

/// An empty vocabulary section, then a 12-byte stats section of no
/// documents and `u32::MAX` terms, and nothing after it.
fn stats_claiming_u32_max_terms() -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&4u32.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(&12u32.to_le_bytes());
    bytes.extend_from_slice(&0u64.to_le_bytes());
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(bytes.len(), 24);
    bytes
}

/// The bytes of a one-document index whose only posting is at document
/// 9: the header (vocabulary, statistics, weights, document lengths) of
/// a one-document index followed by the postings of a ten-document index
/// in which only the last document holds the term.
fn posting_past_its_documents() -> Vec<u8> {
    let index = |docs: usize| {
        let mut builder = IndexBuilder::new();
        for doc in 0..docs {
            let terms: &[&str] = if doc + 1 == docs { &["cats"] } else { &[] };
            builder.add_document(terms);
        }
        builder.build().to_bytes()
    };
    // `to_bytes` writes three length-prefixed sections, then a counted
    // run of u32 document lengths, then the postings.
    let postings_at = |bytes: &[u8]| {
        let mut r = Reader::new(bytes, "index");
        for _ in 0..3 {
            r.section().unwrap();
        }
        let docs = r.u32().unwrap();
        r.take(4 * u64::from(docs)).unwrap();
        bytes.len() - r.rest().len()
    };
    let (one, ten) = (index(1), index(10));
    [&one[..postings_at(&one)], &ten[postings_at(&ten)..]].concat()
}

#[test]
fn timeout_then_retry_succeeds() {
    // The librarian is slow on its first request, past the transport
    // deadline, and times out; a retrying one-replica group classifies
    // Timeout as transient and the second attempt succeeds.
    let mut lib = Librarian::from_texts("A", &[("A-1", "cats and dogs")]);
    let mut first = true;
    let slow_once = move |request: Message| {
        if std::mem::take(&mut first) {
            std::thread::sleep(Duration::from_millis(120));
        }
        lib.handle(request)
    };
    let transport = InProcTransport::new(slow_once).with_deadline(Duration::from_millis(30));
    let mut t = ReplicaGroup::new(0, vec![(0, transport)]).with_retries(RetryPolicy {
        max_retries: 2,
        backoff: Duration::from_millis(1),
    });
    let response = t
        .request(&Message::RankRequest {
            query_id: 1,
            k: 4,
            terms: vec![("cats".into(), 1)].into(),
        })
        .unwrap();
    assert!(matches!(response, Message::RankResponse { .. }));
    assert_eq!(t.retries_used(), 1);
}

#[test]
fn retries_exhausted_surfaces_the_final_error() {
    let lib = Librarian::from_texts("A", &[("A-1", "cats")]);
    let faulty = FaultyTransport::new(InProcTransport::new(lib), FaultPlan::new().fail_from(0));
    let mut t = ReplicaGroup::new(0, vec![(0, faulty)]).with_retries(RetryPolicy {
        max_retries: 2,
        backoff: Duration::from_millis(1),
    });
    let err = t.request(&Message::StatsRequest).unwrap_err();
    assert!(matches!(err, NetError::Unavailable(_)));
    assert_eq!(t.retries_used(), 2);
    // max_retries + 1 total attempts, all consumed by the plan.
    assert_eq!(t.with_preferred(|replica| replica.attempts()), Some(3));
}

#[test]
fn one_dead_librarian_degrades_cn() {
    let mut r = faulty_receptionist(plans_with(2, FaultPlan::new().fail_from(0)));
    let answer = r
        .query_with_coverage(Methodology::CentralNothing, "cats", 8)
        .unwrap();
    assert_eq!(answer.coverage.answered, vec![0, 1, 3]);
    assert_eq!(answer.coverage.failed, vec![2]);
    assert!(answer.coverage.is_degraded());
    assert!(!answer.hits.is_empty());
    assert!(answer.hits.iter().all(|h| h.librarian != 2));
    // Degraded merge == the ranking over only the survivors.
    let subset = r
        .query_subset(Methodology::CentralNothing, "cats", 8, &[0, 1, 3])
        .unwrap();
    assert_eq!(fingerprint(&answer.hits), fingerprint(&subset));
}

#[test]
fn one_dead_librarian_degrades_cv() {
    // enable_cv consumes fault index 0 at every librarian; killing from
    // index 1 lets preprocessing finish and fails query traffic only.
    let mut r = faulty_receptionist(plans_with(2, FaultPlan::new().fail_from(1)));
    r.enable_cv().unwrap();
    let answer = r
        .query_with_coverage(Methodology::CentralVocabulary, "cats", 8)
        .unwrap();
    assert_eq!(answer.coverage.answered, vec![0, 1, 3]);
    assert_eq!(answer.coverage.failed, vec![2]);
    // CV state knows per-librarian sizes: each librarian holds 2 of 8.
    assert_eq!(answer.coverage.docs_fraction, Some(0.75));
    let subset = r
        .query_subset(Methodology::CentralVocabulary, "cats", 8, &[0, 1, 3])
        .unwrap();
    assert_eq!(fingerprint(&answer.hits), fingerprint(&subset));
}

#[test]
fn one_dead_librarian_degrades_ci() {
    // Small groups and a generous k' make every document a candidate,
    // so all four librarians receive a ScoreCandidatesRequest (fault
    // index 1, after enable_ci's IndexRequest at index 0).
    let mut r = faulty_receptionist(plans_with(2, FaultPlan::new().fail_from(1)));
    r.enable_ci(CiParams {
        group_size: 2,
        k_prime: 8,
    })
    .unwrap();
    let answer = r
        .query_with_coverage(Methodology::CentralIndex, "cats", 8)
        .unwrap();
    assert_eq!(answer.coverage.answered, vec![0, 1, 3]);
    assert_eq!(answer.coverage.failed, vec![2]);
    // No CV state, so the coverage fraction is unknown.
    assert_eq!(answer.coverage.docs_fraction, None);
    assert!(!answer.hits.is_empty());
    assert!(answer.hits.iter().all(|h| h.librarian != 2));
}

/// The acceptance scenario: four librarians, one killed mid-stream
/// (after CV preprocessing), behind transports with a deadline. CN and
/// CV queries must return ranked results with coverage metadata — no
/// error, no hang — and replaying the same `FaultPlan` schedule on a
/// fresh receptionist must reproduce the exact same merged rankings.
#[test]
fn killed_mid_stream_degrades_and_replays_deterministically() {
    let deadline = Duration::from_secs(2);
    let run = |plans: Vec<FaultPlan>| {
        let transports: Vec<_> = four_librarians()
            .into_iter()
            .zip(plans)
            .map(|(lib, plan)| {
                FaultyTransport::new(InProcTransport::new(lib).with_deadline(deadline), plan)
            })
            .collect();
        let mut r = Receptionist::new(transports, Analyzer::default());
        r.enable_cv().unwrap();
        let started = Instant::now();
        let cn = r
            .query_with_coverage(Methodology::CentralNothing, "cats dogs", 8)
            .unwrap();
        let cv = r
            .query_with_coverage(Methodology::CentralVocabulary, "cats dogs", 8)
            .unwrap();
        assert!(
            started.elapsed() < deadline,
            "degraded queries exceeded the deadline"
        );
        for answer in [&cn, &cv] {
            assert!(!answer.hits.is_empty());
            assert_eq!(answer.coverage.answered, vec![0, 1, 3]);
            assert_eq!(answer.coverage.failed, vec![2]);
            assert_eq!(answer.coverage.docs_fraction, Some(0.75));
        }
        (fingerprint(&cn.hits), fingerprint(&cv.hits))
    };
    // Librarian 2 dies after its CV setup exchange (fault index 0).
    let plans = plans_with(2, FaultPlan::new().fail_from(1));
    let first = run(plans.clone());
    let second = run(plans);
    assert_eq!(first, second, "FaultPlan replay diverged");
}

/// Regression: the merged tie order must match `ScoredDoc::ranking_cmp`
/// extended by the librarian index — (score desc, doc asc, librarian
/// asc) — even when the surviving librarian ids have gaps. Every
/// librarian holds byte-identical documents, so all scores tie and only
/// the pinned tie-break determines the order.
#[test]
fn tie_order_is_stable_under_librarian_id_gaps() {
    let texts: &[(&str, &str)] = &[("X-1", "identical cats"), ("X-2", "identical cats")];
    let transports: Vec<_> = (0..4)
        .map(|i| {
            let plan = if i == 1 {
                FaultPlan::new().fail_from(0)
            } else {
                FaultPlan::new()
            };
            FaultyTransport::new(
                InProcTransport::new(Librarian::from_texts("T", texts)),
                plan,
            )
        })
        .collect();
    let mut r = Receptionist::new(transports, Analyzer::default());
    let answer = r
        .query_with_coverage(Methodology::CentralNothing, "cats", 10)
        .unwrap();
    assert_eq!(answer.coverage.failed, vec![1]);
    let order: Vec<(u32, usize)> = answer.hits.iter().map(|h| (h.doc, h.librarian)).collect();
    // All six surviving (doc, librarian) pairs at one tied score:
    // doc ascending, then librarian ascending across the 0/2/3 gap.
    assert_eq!(order, vec![(0, 0), (0, 2), (0, 3), (1, 0), (1, 2), (1, 3)]);
    // And all scores really were tied, so the order above was decided
    // entirely by the tie-break.
    let first = answer.hits[0].score;
    assert!(answer.hits.iter().all(|h| h.score == first));
}

mod degraded_equivalence {
    //! Property: for ANY corpus and ANY single dead librarian, the
    //! degraded CN/CV ranking is byte-identical to the ranking computed
    //! over only the surviving subcollections — no phantom documents,
    //! no score drift.

    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    const POOL: &[&str] = &[
        "alpha", "bravo", "carbon", "delta", "echo", "foxtrot", "golf", "hotel", "india", "jazz",
        "kilo", "lima",
    ];

    /// `libs[i]` is librarian `i`'s documents; each document is a list
    /// of word-pool indices.
    fn build_librarians(libs: &[Vec<Vec<usize>>]) -> Vec<Librarian> {
        libs.iter()
            .enumerate()
            .map(|(i, docs)| {
                let texts: Vec<(String, String)> = docs
                    .iter()
                    .enumerate()
                    .map(|(d, words)| {
                        let text: Vec<&str> = words.iter().map(|&w| POOL[w]).collect();
                        (format!("L{i}-{d}"), text.join(" "))
                    })
                    .collect();
                let borrowed: Vec<(&str, &str)> = texts
                    .iter()
                    .map(|(n, t)| (n.as_str(), t.as_str()))
                    .collect();
                Librarian::from_texts(&format!("L{i}"), &borrowed)
            })
            .collect()
    }

    proptest! {
        fn degraded_merge_equals_surviving_subset(
            corpus in vec(vec(vec(0usize..12, 1..6), 1..4), 2..5),
            dead_raw in 0usize..16,
            query_words in vec(0usize..12, 1..4),
        ) {
            let dead = dead_raw % corpus.len();
            let survivors: Vec<usize> =
                (0..corpus.len()).filter(|&i| i != dead).collect();
            let query: Vec<&str> =
                query_words.iter().map(|&w| POOL[w]).collect();
            let query = query.join(" ");

            // Faulty receptionist: `dead` answers its CV setup request
            // (fault index 0) and then fails forever.
            let transports: Vec<_> = build_librarians(&corpus)
                .into_iter()
                .enumerate()
                .map(|(i, lib)| {
                    let plan = if i == dead {
                        FaultPlan::new().fail_from(1)
                    } else {
                        FaultPlan::new()
                    };
                    FaultyTransport::new(InProcTransport::new(lib), plan)
                })
                .collect();
            let mut faulty = Receptionist::new(transports, Analyzer::default());
            faulty.enable_cv().unwrap();

            // Healthy reference over the same corpus.
            let transports: Vec<_> = build_librarians(&corpus)
                .into_iter()
                .map(InProcTransport::new)
                .collect();
            let mut reference = Receptionist::new(transports, Analyzer::default());
            reference.enable_cv().unwrap();

            for methodology in [
                Methodology::CentralNothing,
                Methodology::CentralVocabulary,
            ] {
                let answer = faulty
                    .query_with_coverage(methodology, &query, 20)
                    .unwrap();
                prop_assert_eq!(&answer.coverage.failed, &vec![dead]);
                prop_assert!(
                    answer.hits.iter().all(|h| h.librarian != dead),
                    "phantom document from the dead librarian"
                );
                let subset = reference
                    .query_subset(methodology, &query, 20, &survivors)
                    .unwrap();
                prop_assert_eq!(
                    fingerprint(&answer.hits),
                    fingerprint(&subset)
                );
            }
        }
    }
}

#[test]
fn transport_disconnect_is_an_error_not_a_hang() {
    // A TCP transport whose server dies mid-session.
    use teraphim::net::tcp::TcpServer;
    use teraphim::net::MuxTransport;
    let server = TcpServer::spawn(
        Librarian::from_texts("A", &[("A-1", "cats")]),
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.addr();
    let mut transport = MuxTransport::connect(addr).unwrap();
    // First request succeeds.
    let ok = transport.request(&Message::StatsRequest);
    assert!(ok.is_ok());
    // Kill the server, then the next request must error.
    server.shutdown();
    std::thread::sleep(std::time::Duration::from_millis(100));
    let result = transport.request(&Message::StatsRequest);
    match result {
        Err(NetError::Io(_)) | Err(NetError::Disconnected) => {}
        other => {
            // Depending on socket timing the first write can still be
            // buffered; a second request must then fail.
            if other.is_ok() {
                let second = transport.request(&Message::StatsRequest);
                assert!(second.is_err(), "request after shutdown succeeded twice");
            }
        }
    }
}
