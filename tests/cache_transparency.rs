//! Cache transparency: a receptionist with its caches enabled must be
//! observationally identical to a cache-free one — byte-identical
//! merged rankings (scores compared as f64 bits, not approximately),
//! identical `Coverage` metadata, identical fetched documents — over
//! random corpora and random query streams with duplicates, for all
//! four methodologies (MS as CN over one merged librarian, CN, CV, CI),
//! under permanent `FaultPlan` failures, and across mid-stream index
//! epoch bumps.
//!
//! The caches are *only* allowed to change how many messages cross the
//! wire, never what the caller sees. Faults in these properties are
//! permanent (`fail_from`): a cache hit suppresses a fan-out, which
//! shifts every later fault index at that librarian, so any
//! *transient* schedule observes different faults with and without a
//! cache — transparency is only defined against fault schedules that
//! answer the same way no matter when they are probed.

use std::sync::{Arc, Mutex};

use proptest::collection::vec;
use proptest::prelude::*;
use teraphim::core::{
    CacheConfig, CiParams, Coverage, GlobalHit, Librarian, Methodology, Receptionist,
};
use teraphim::net::{
    FaultPlan, FaultyTransport, InProcTransport, Message, ReplicaGroup, RoutingTable, Service,
};
use teraphim::text::Analyzer;

const POOL: &[&str] = &[
    "alpha", "bravo", "carbon", "delta", "echo", "foxtrot", "golf", "hotel", "india", "jazz",
    "kilo", "lima",
];

/// `libs[i]` is librarian `i`'s documents; each document is a list of
/// word-pool indices.
fn librarian_texts(libs: &[Vec<Vec<usize>>]) -> Vec<Vec<(String, String)>> {
    libs.iter()
        .enumerate()
        .map(|(i, docs)| {
            docs.iter()
                .enumerate()
                .map(|(d, words)| {
                    let text: Vec<&str> = words.iter().map(|&w| POOL[w]).collect();
                    (format!("L{i}-{d}"), text.join(" "))
                })
                .collect()
        })
        .collect()
}

fn build_librarian(name: &str, texts: &[(String, String)]) -> Librarian {
    let borrowed: Vec<(&str, &str)> = texts
        .iter()
        .map(|(n, t)| (n.as_str(), t.as_str()))
        .collect();
    Librarian::from_texts(name, &borrowed)
}

fn build_librarians(libs: &[Vec<Vec<usize>>]) -> Vec<Librarian> {
    librarian_texts(libs)
        .iter()
        .enumerate()
        .map(|(i, texts)| build_librarian(&format!("L{i}"), texts))
        .collect()
}

/// MS: every document in one merged librarian (with S = 1, Central
/// Nothing *is* the mono-server methodology).
fn merged_librarian(libs: &[Vec<Vec<usize>>]) -> Librarian {
    let merged: Vec<(String, String)> = librarian_texts(libs).into_iter().flatten().collect();
    build_librarian("MS", &merged)
}

fn receptionist(libs: Vec<Librarian>) -> Receptionist<InProcTransport<Librarian>> {
    Receptionist::new(
        libs.into_iter().map(InProcTransport::new).collect(),
        Analyzer::default(),
    )
}

/// `(librarian, doc, score bits)` — bitwise identity, not approximate.
fn fingerprint(hits: &[GlobalHit]) -> Vec<(usize, u32, u64)> {
    hits.iter()
        .map(|h| (h.librarian, h.doc, h.score.to_bits()))
        .collect()
}

/// Renders a stream of query-pool indices into query strings. Indexing
/// the pool modulo its length guarantees duplicates for any stream
/// longer than the pool.
fn render_stream(pool: &[Vec<usize>], stream: &[usize]) -> Vec<String> {
    stream
        .iter()
        .map(|&i| {
            pool[i % pool.len()]
                .iter()
                .map(|&w| POOL[w])
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

/// A deliberately tiny configuration: every structure is small enough
/// that the random streams force evictions, exercising the eviction
/// paths' transparency, not just the steady-state hit path.
fn tiny_config() -> CacheConfig {
    CacheConfig {
        result_entries: 2,
        term_entries: 2,
        doc_bytes: 96,
    }
}

const CI: CiParams = CiParams {
    group_size: 2,
    k_prime: 8,
};
const K: usize = 8;

fn enable(r: &mut Receptionist<impl teraphim::net::Transport>, methodology: Methodology) {
    match methodology {
        Methodology::CentralNothing => {}
        Methodology::CentralVocabulary => r.enable_cv().expect("CV preprocessing"),
        Methodology::CentralIndex => r.enable_ci(CI).expect("CI preprocessing"),
    }
}

proptest! {
    /// Healthy fleet, all four methodologies, both the default and a
    /// tiny (eviction-heavy) cache configuration: `query` and `fetch`
    /// results are byte-identical with and without the caches.
    fn cached_rankings_and_fetches_are_byte_identical(
        corpus in vec(vec(vec(0usize..12, 1..6), 1..4), 2..5),
        query_pool in vec(vec(0usize..12, 1..4), 2..5),
        stream in vec(0usize..64, 6..14),
        tiny in proptest::bool::ANY,
    ) {
        let queries = render_stream(&query_pool, &stream);
        let config = if tiny { tiny_config() } else { CacheConfig::default() };
        for methodology in [
            Methodology::CentralNothing, // over the merged corpus: MS
            Methodology::CentralNothing,
            Methodology::CentralVocabulary,
            Methodology::CentralIndex,
        ]
        .into_iter()
        .enumerate()
        {
            let (i, methodology) = methodology;
            let build = || {
                if i == 0 {
                    vec![merged_librarian(&corpus)]
                } else {
                    build_librarians(&corpus)
                }
            };
            let mut cached = receptionist(build());
            let mut plain = receptionist(build());
            cached.enable_cache(config);
            enable(&mut cached, methodology);
            enable(&mut plain, methodology);
            for query in &queries {
                let a = cached.query(methodology, query, K).unwrap();
                let b = plain.query(methodology, query, K).unwrap();
                prop_assert_eq!(fingerprint(&a), fingerprint(&b));
                // Fetch through the answer-document cache as well:
                // compressed bodies first (what TERAPHIM prefers), then
                // plain — distinct doc-cache keys, identical results.
                for plain_mode in [false, true] {
                    let fa = cached.fetch(&a, plain_mode).unwrap();
                    let fb = plain.fetch(&b, plain_mode).unwrap();
                    prop_assert_eq!(&fa, &fb);
                }
            }
            // The stream had duplicates; a default-config run that never
            // hit would mean the cache is inert, making this test
            // vacuous. (The tiny config may legitimately thrash.)
            let stats = cached.cache_stats().unwrap();
            if !tiny && stream.len() > stream.iter().map(|i| i % query_pool.len()).collect::<std::collections::HashSet<_>>().len() {
                prop_assert!(
                    stats.results.hits > 0,
                    "duplicate queries produced no result-cache hits: {:?}",
                    stats
                );
            }
        }
    }

    /// One librarian dead under a *permanent* fault plan: degraded
    /// rankings and `Coverage` metadata are identical with and without
    /// the caches, for CN, CV and CI — including repeats of the same
    /// query, which the cached side answers from flagged degraded
    /// entries for as long as the fleet stays degraded.
    fn cached_coverage_is_identical_under_permanent_faults(
        corpus in vec(vec(vec(0usize..12, 1..6), 1..4), 2..5),
        query_pool in vec(vec(0usize..12, 1..4), 2..4),
        stream in vec(0usize..64, 4..10),
        dead_raw in 0usize..16,
    ) {
        let dead = dead_raw % corpus.len();
        let queries = render_stream(&query_pool, &stream);
        for methodology in [
            Methodology::CentralNothing,
            Methodology::CentralVocabulary,
            Methodology::CentralIndex,
        ] {
            // The dead librarian answers its one setup exchange
            // (enable_cv's StatsRequest / enable_ci's IndexRequest at
            // fault index 0) and then fails forever; CN has no setup,
            // so its plan fails from the very first request.
            let build = |dead: usize| {
                let transports: Vec<_> = build_librarians(&corpus)
                    .into_iter()
                    .enumerate()
                    .map(|(i, lib)| {
                        let plan = if i == dead {
                            FaultPlan::new().fail_from(if methodology == Methodology::CentralNothing { 0 } else { 1 })
                        } else {
                            FaultPlan::new()
                        };
                        FaultyTransport::new(InProcTransport::new(lib), plan)
                    })
                    .collect();
                Receptionist::new(transports, Analyzer::default())
            };
            let mut cached = build(dead);
            let mut plain = build(dead);
            cached.enable_cache(CacheConfig::default());
            enable(&mut cached, methodology);
            enable(&mut plain, methodology);
            let mut coverages: Vec<Coverage> = Vec::new();
            for query in &queries {
                let a = cached.query_with_coverage(methodology, query, K);
                let b = plain.query_with_coverage(methodology, query, K);
                match (a, b) {
                    (Ok(a), Ok(b)) => {
                        prop_assert_eq!(fingerprint(&a.hits), fingerprint(&b.hits));
                        prop_assert_eq!(&a.coverage, &b.coverage);
                        prop_assert!(a.hits.iter().all(|h| h.librarian != dead));
                        coverages.push(a.coverage);
                    }
                    // A CI fan-out whose only candidates live at the
                    // dead librarian fails coverage on both sides —
                    // identically.
                    (Err(a), Err(b)) => prop_assert_eq!(format!("{a}"), format!("{b}")),
                    (a, b) => prop_assert!(
                        false,
                        "cache changed the outcome: cached ok = {}, plain ok = {}",
                        a.is_ok(),
                        b.is_ok()
                    ),
                }
            }
            // Every fan-out that touched the dead librarian reported it;
            // CI fan-outs that skip it (no candidates there) report a
            // complete answer.
            prop_assert!(coverages
                .iter()
                .all(|c| c.failed == vec![dead] || c.failed.is_empty()));
        }
    }

    /// Mid-stream epoch bumps: librarians re-index at a random point in
    /// the stream (contents unchanged, epoch moved). The cached
    /// receptionist must invalidate — and keep returning exactly what
    /// the cache-free receptionist returns before, across, and after
    /// the bump.
    fn epoch_bumps_mid_stream_preserve_transparency(
        corpus in vec(vec(vec(0usize..12, 1..6), 1..4), 2..4),
        query_pool in vec(vec(0usize..12, 1..4), 2..4),
        stream in vec(0usize..64, 6..12),
        bump_at_raw in 0usize..16,
        bump_lib_raw in 0usize..16,
    ) {
        let queries = render_stream(&query_pool, &stream);
        let bump_at = bump_at_raw % queries.len();
        let bump_lib = bump_lib_raw % corpus.len();

        // Closure services over shared librarians, so the test keeps a
        // handle it can bump mid-stream.
        let build = || {
            let libs: Vec<Arc<Mutex<Librarian>>> = build_librarians(&corpus)
                .into_iter()
                .map(|l| Arc::new(Mutex::new(l)))
                .collect();
            let transports: Vec<_> = libs
                .iter()
                .map(|lib| {
                    let lib = Arc::clone(lib);
                    InProcTransport::new(move |m: Message| lib.lock().unwrap().handle(m))
                })
                .collect();
            (libs, Receptionist::new(transports, Analyzer::default()))
        };
        let (cached_libs, mut cached) = build();
        let (plain_libs, mut plain) = build();
        cached.enable_cache(CacheConfig::default());
        cached.enable_cv().unwrap();
        plain.enable_cv().unwrap();

        let generation_before = cached.cache_stats().unwrap().generation;
        for (i, query) in queries.iter().enumerate() {
            if i == bump_at {
                // Both fleets re-index so the corpora stay twins; only
                // the cached side has state to invalidate. The health
                // poll is how a receptionist notices a bump without
                // waiting for the next fan-out's reply epochs.
                cached_libs[bump_lib].lock().unwrap().bump_epoch();
                plain_libs[bump_lib].lock().unwrap().bump_epoch();
                cached.fleet_health();
                plain.fleet_health();
            }
            let a = cached.query(Methodology::CentralVocabulary, query, K).unwrap();
            let b = plain.query(Methodology::CentralVocabulary, query, K).unwrap();
            prop_assert_eq!(fingerprint(&a), fingerprint(&b));
        }
        let stats = cached.cache_stats().unwrap();
        prop_assert!(
            stats.generation > generation_before,
            "health poll observed a moved epoch but the generation never advanced: {:?}",
            stats
        );
    }
}

/// The deterministic core of the epoch story, stated as plain
/// assertions: hit before the bump, stale miss after, identical
/// rankings throughout.
#[test]
fn epoch_bump_turns_hits_into_stale_misses() {
    let lib = || {
        Arc::new(Mutex::new(Librarian::from_texts(
            "A",
            &[("A-1", "cats and dogs"), ("A-2", "just cats")],
        )))
    };
    let a = lib();
    let service = {
        let a = Arc::clone(&a);
        move |m: Message| a.lock().unwrap().handle(m)
    };
    let mut r = Receptionist::new(vec![InProcTransport::new(service)], Analyzer::default());
    r.enable_cv().unwrap();
    r.enable_cache(CacheConfig::default());

    let first = r.query(Methodology::CentralVocabulary, "cats", 4).unwrap();
    let second = r.query(Methodology::CentralVocabulary, "cats", 4).unwrap();
    assert_eq!(fingerprint(&first), fingerprint(&second));
    let stats = r.cache_stats().unwrap();
    assert_eq!((stats.results.hits, stats.results.misses), (1, 1));
    assert_eq!(stats.results.stale, 0);

    a.lock().unwrap().bump_epoch();
    let report = r.fleet_health();
    assert!(report.all_up());
    let after = r.cache_stats().unwrap();
    assert!(
        after.generation > stats.generation,
        "epoch bump must advance the generation"
    );

    let third = r.query(Methodology::CentralVocabulary, "cats", 4).unwrap();
    assert_eq!(fingerprint(&first), fingerprint(&third));
    let stats = r.cache_stats().unwrap();
    assert_eq!(
        stats.results.stale, 1,
        "the pre-bump entry must read as stale"
    );
    assert_eq!(stats.results.hits, 1, "a stale entry is not a hit");

    // And the re-inserted entry serves again at the new generation.
    let fourth = r.query(Methodology::CentralVocabulary, "cats", 4).unwrap();
    assert_eq!(fingerprint(&first), fingerprint(&fourth));
    assert_eq!(r.cache_stats().unwrap().results.hits, 2);
}

/// A cache hit must not consume fault-plan indices: with a permanent
/// plan this is invisible, so pin the contract directly — the second
/// (cached) query sends nothing, which is the entire point of the
/// result cache.
#[test]
fn hits_suppress_fan_out_traffic() {
    let lib = Librarian::from_texts("A", &[("A-1", "cats and dogs")]);
    // Fail every request after the first two (CV setup + one rank
    // exchange): only a receptionist that answers repeats from cache
    // can survive the stream below.
    let faulty = FaultyTransport::new(InProcTransport::new(lib), FaultPlan::new().fail_from(2));
    let mut r = Receptionist::new(vec![faulty], Analyzer::default());
    r.enable_cv().unwrap();
    r.enable_cache(CacheConfig::default());
    let first = r.query(Methodology::CentralVocabulary, "cats", 4).unwrap();
    for _ in 0..5 {
        let again = r.query(Methodology::CentralVocabulary, "cats", 4).unwrap();
        assert_eq!(fingerprint(&first), fingerprint(&again));
    }
    assert_eq!(r.cache_stats().unwrap().results.hits, 5);
}

/// A membership move mid-query-stream — a replica joining, being
/// promoted, and the old primary leaving, published through the fleet
/// [`RoutingTable`] — must bump the cache generation on the next query,
/// so no result or CV term-statistics entry cached under the old
/// routing is ever served again: the pre-move entries read as stale
/// misses, and rankings stay byte-identical to a cache-free twin
/// before, across, and after the move.
#[test]
fn membership_move_mid_stream_invalidates_result_and_term_caches() {
    let shard_docs: [&[(&str, &str)]; 2] = [
        &[("A-1", "cats and dogs"), ("A-2", "just cats")],
        &[("B-1", "dogs fetch sticks"), ("B-2", "cats nap")],
    ];
    let librarian =
        |shard: usize| Librarian::from_texts(if shard == 0 { "A" } else { "B" }, shard_docs[shard]);
    let table = RoutingTable::new();
    let groups: Vec<ReplicaGroup<InProcTransport<Librarian>>> = (0..2)
        .map(|s| {
            ReplicaGroup::new(
                s as u32,
                vec![(s as u32, InProcTransport::new(librarian(s)))],
            )
            .with_table(table.clone())
        })
        .collect();
    let mut cached = Receptionist::new(groups.clone(), Analyzer::default());
    cached.set_routing_table(table.clone());
    cached.enable_cv().unwrap();
    cached.enable_cache(CacheConfig::default());
    let mut plain = Receptionist::new(groups.clone(), Analyzer::default());
    plain.enable_cv().unwrap();

    let battery = |cached: &mut Receptionist<_>, plain: &mut Receptionist<_>| {
        for query in ["cats", "cats dogs"] {
            let a = cached
                .query(Methodology::CentralVocabulary, query, 4)
                .unwrap();
            let b = plain
                .query(Methodology::CentralVocabulary, query, 4)
                .unwrap();
            assert_eq!(fingerprint(&a), fingerprint(&b), "query {query:?}");
        }
    };
    battery(&mut cached, &mut plain);
    battery(&mut cached, &mut plain); // repeats: hits on both caches
    let before = cached.cache_stats().unwrap();
    assert_eq!(before.results.hits, 2, "both repeats hit the result cache");
    assert!(
        before.terms.hits > 0,
        "the shared term \"cats\" hit the term cache: {before:?}"
    );
    assert_eq!((before.results.stale, before.terms.stale), (0, 0));

    // The move: shard 1 gains a content-identical replica, promotes it,
    // and retires the old primary. Replicas hold the same index by
    // contract, so the caller-visible results must not move — but every
    // cached entry predates the routing change and may no longer be
    // addressed to the replica that produced it, so none may be served.
    let version = table.version();
    groups[1].add_replica(2, InProcTransport::new(librarian(1)));
    assert!(groups[1].promote(2));
    assert!(groups[1].remove_replica(1));
    assert_eq!(table.version(), version + 3, "every move published");

    battery(&mut cached, &mut plain);
    let after = cached.cache_stats().unwrap();
    assert!(
        after.generation > before.generation,
        "the routing-version delta must advance the cache generation"
    );
    assert_eq!(
        after.results.hits, before.results.hits,
        "no pre-move result entry may be served after the move"
    );
    assert!(
        after.results.stale >= 2,
        "pre-move result entries read as stale: {after:?}"
    );
    assert!(
        after.terms.stale > 0,
        "pre-move term-statistics entries read as stale: {after:?}"
    );

    // Steady state resumes at the new generation and stays transparent.
    battery(&mut cached, &mut plain);
    assert!(cached.cache_stats().unwrap().results.hits > after.results.hits);
}
