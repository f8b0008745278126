//! Golden Prometheus exposition.
//!
//! One registry is fed a fixed event script that lights every metric
//! family: all four methodologies; all three caches with hit, miss,
//! stale and evict; sent, reply, timeout, retry, fault and lib_failed on
//! two librarians; scored, merge, a degraded coverage, failover, join,
//! leave and migrate; phase brackets and server phases. Its rendering
//! must equal `tests/fixtures/metrics/exposition.prom` byte for byte —
//! family order, labels, help text, values, and which counts are *not*
//! exported. Regenerate with
//! `UPDATE_METRICS_GOLDEN=1 cargo test --test metrics_exposition`.

use std::path::PathBuf;
use std::sync::Arc;
use teraphim::obs::{lint_prometheus, EventKind, MetricsRegistry, Phase, TraceSink, SERVER_PHASES};

/// Records `events` as one operation after `at`, seven microseconds
/// apart, so every latency in the exposition is fixed.
fn operation(
    sink: &TraceSink,
    at: &mut u64,
    op: &'static str,
    methodology: Option<&'static str>,
    events: Vec<EventKind>,
) {
    let begin = EventKind::Begin {
        op,
        methodology,
        query_id: 0,
        k: 10,
    };
    for kind in std::iter::once(begin)
        .chain(events)
        .chain(std::iter::once(EventKind::End))
    {
        *at += 7;
        sink.record_at(*at, kind);
    }
}

fn sent(librarian: u32, bytes: u64) -> EventKind {
    EventKind::Sent {
        librarian,
        bytes,
        message: "RankRequest",
    }
}

fn reply(librarian: u32, bytes: u64) -> Vec<EventKind> {
    let mut events = vec![EventKind::Reply {
        librarian,
        bytes,
        message: "RankResponse",
    }];
    for (i, phase) in SERVER_PHASES.iter().enumerate() {
        events.push(EventKind::ServerPhase {
            librarian,
            phase,
            micros: 10 * (i as u64 + 1) + u64::from(librarian),
        });
    }
    events
}

fn phase(phase: Phase, inner: Vec<EventKind>) -> Vec<EventKind> {
    let mut events = vec![EventKind::PhaseStart { phase }];
    events.extend(inner);
    events.push(EventKind::PhaseEnd { phase });
    events
}

/// The fixed script: every family gets at least one nonzero sample.
fn script(sink: &TraceSink) {
    let mut at = 0;
    operation(
        sink,
        &mut at,
        "enable_cv",
        None,
        phase(
            Phase::VocabExchange,
            [vec![sent(0, 5), sent(1, 5)], reply(0, 900), reply(1, 700)].concat(),
        ),
    );
    for (i, methodology) in ["MS", "CN", "CV", "CI"].into_iter().enumerate() {
        let i = i as u64;
        let mut fanout = vec![sent(0, 40 + i), sent(1, 44 + i)];
        fanout.extend(reply(1, 310 + i));
        fanout.extend(reply(0, 290 + i));
        if methodology == "CI" {
            for librarian in 0..2 {
                fanout.push(EventKind::Scored {
                    librarian,
                    candidates: 12 + librarian,
                    postings: 345 + u64::from(librarian),
                });
            }
        }
        fanout.push(EventKind::Merge {
            entries: 20 + i,
            k: 10,
        });
        let mut events = Vec::new();
        if methodology == "CI" {
            events.extend(phase(Phase::GroupRank, Vec::new()));
        }
        events.extend(phase(Phase::RankFanout, fanout));
        events.extend(phase(
            Phase::HeaderFetch,
            [vec![sent(0, 9)], reply(0, 120)].concat(),
        ));
        operation(sink, &mut at, "query", Some(methodology), events);
    }
    // Faults on both librarians: 0 recovers after a retry, 1 drops out.
    let mut faulted = vec![
        sent(0, 50),
        EventKind::Fault {
            librarian: 0,
            action: "delay",
        },
        EventKind::Timeout { librarian: 0 },
        EventKind::Retry {
            librarian: 0,
            attempt: 1,
            error: "timeout",
        },
        sent(0, 50),
    ];
    faulted.extend(reply(0, 333));
    faulted.extend([
        sent(1, 51),
        EventKind::Fault {
            librarian: 1,
            action: "fail",
        },
        EventKind::Retry {
            librarian: 1,
            attempt: 1,
            error: "unavailable",
        },
        EventKind::Timeout { librarian: 1 },
        EventKind::LibFailed {
            librarian: 1,
            error: "timeout",
        },
        EventKind::Merge { entries: 7, k: 10 },
        EventKind::Coverage {
            answered: vec![0],
            failed: vec![1],
            docs_permille: Some(480),
        },
    ]);
    operation(
        sink,
        &mut at,
        "query_with_coverage",
        Some("CN"),
        phase(Phase::RankFanout, faulted),
    );
    // Every cache kind: a miss, a stale miss, a hit and an eviction.
    let mut cached = Vec::new();
    for (n, cache) in ["results", "stats", "docs"].into_iter().enumerate() {
        cached.extend([
            EventKind::CacheMiss {
                cache,
                stale: false,
            },
            EventKind::CacheMiss { cache, stale: true },
            EventKind::CacheHit { cache },
            EventKind::CacheEvict {
                cache,
                entries: 1 + n as u32,
            },
        ]);
    }
    cached.extend(phase(
        Phase::DocFetch,
        [vec![sent(1, 8)], reply(1, 4096)].concat(),
    ));
    operation(sink, &mut at, "query", Some("CV"), cached);
    operation(
        sink,
        &mut at,
        "boolean",
        None,
        phase(Phase::Boolean, [vec![sent(0, 6)], reply(0, 60)].concat()),
    );
    // Membership and routing changes arrive outside any operation.
    for kind in [
        EventKind::Failover {
            librarian: 0,
            from: 0,
            to: 1,
            error: "unavailable",
        },
        EventKind::Join {
            librarian: 1,
            replica: 2,
            version: 3,
        },
        EventKind::Leave {
            librarian: 1,
            replica: 0,
            version: 4,
        },
        EventKind::Migrate {
            librarian: 1,
            docs: 99,
            epoch: 5,
        },
    ] {
        at += 7;
        sink.record_at(at, kind);
    }
    operation(
        sink,
        &mut at,
        "enable_ci",
        None,
        phase(
            Phase::IndexExchange,
            [vec![sent(1, 5)], reply(1, 8000)].concat(),
        ),
    );
}

#[test]
fn exposition_matches_the_golden_fixture() {
    let registry = Arc::new(MetricsRegistry::new());
    let sink = TraceSink::metrics_only(Arc::clone(&registry));
    script(&sink);
    let actual = registry.snapshot().render_prometheus();
    lint_prometheus(&actual).unwrap();

    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/metrics/exposition.prom");
    if std::env::var("UPDATE_METRICS_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run UPDATE_METRICS_GOLDEN=1 cargo test --test metrics_exposition",
            path.display()
        )
    });
    if actual != expected {
        let first = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
        panic!(
            "exposition diverged from {} at line {}:\nexpected {:?}\nactual   {:?}",
            path.display(),
            first + 1,
            expected.lines().nth(first),
            actual.lines().nth(first)
        );
    }
}
