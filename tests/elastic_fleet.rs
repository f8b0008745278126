//! Elastic fleet end to end: replica groups under a live receptionist,
//! failover on transient `FaultPlan` errors, membership churn (join /
//! leave / promote) against a never-failed oracle, and plan-level
//! differential coverage across MS/CN/CV/CI on all three scenario
//! backends.
//!
//! The invariant under test everywhere: replicas are content-identical,
//! so *which* replica serves — and whether the primary died before,
//! during, or after any particular exchange — must be invisible in
//! rankings, to the score bit, and must never surface as degraded
//! coverage as long as one replica per shard survives.

use std::path::PathBuf;

use proptest::prelude::*;

use teraphim::core::{CiParams, Librarian, Methodology, Receptionist};
use teraphim::corpus::{CorpusSpec, SyntheticCorpus};
use teraphim::net::tcp::TcpServer;
use teraphim::net::{
    DispatchMode, FaultPlan, FaultyTransport, InProcTransport, MuxTransport, ReplicaGroup,
    RoutingTable,
};
use teraphim::obs::{diff_json, EventKind, QueryTrace, SpanTree, TraceSink};
use teraphim::scenario::{
    differential, doublecheck, generate_plan, Backend, GenOptions, InProcBackend, Plan, RunMode,
    SimBackend, Step, TcpBackend,
};
use teraphim::text::Analyzer;

/// Four tiny shards with overlapping vocabulary, the `tests/failures.rs`
/// fixture shape. Rebuilt from scratch for every replica: replicas must
/// be content-identical, not shared.
const SHARDS: [(&str, [(&str, &str); 2]); 4] = [
    ("A", [("A-1", "cats and dogs"), ("A-2", "just cats")]),
    ("B", [("B-1", "dogs alone"), ("B-2", "cats dogs birds")]),
    ("C", [("C-1", "cats chasing birds"), ("C-2", "quiet cats")]),
    ("D", [("D-1", "birds and cats"), ("D-2", "sleeping dogs")]),
];

const CI_PARAMS: CiParams = CiParams {
    group_size: 2,
    k_prime: 8,
};

fn build_librarian(shard: usize) -> Librarian {
    let (name, docs) = SHARDS[shard];
    Librarian::from_texts(name, &docs)
}

type Flaky = FaultyTransport<InProcTransport<Librarian>>;

/// A replica for `shard` with its own fault schedule. Replica ids follow
/// the scenario convention: the primary of shard `s` is id `s`, extras
/// get ids from a global counter starting at the shard count.
fn replica(shard: usize, plan: FaultPlan) -> Flaky {
    FaultyTransport::new(InProcTransport::new(build_librarian(shard)), plan)
}

/// A 2-replica-per-shard fleet; `faulty_shard`'s primary runs under
/// `primary_plan`, every other transport is healthy. Returns the groups
/// (shared handles — membership changes are visible to the
/// receptionist) alongside the receptionist.
fn elastic_fleet(
    faulty_shard: usize,
    primary_plan: FaultPlan,
) -> (Vec<ReplicaGroup<Flaky>>, Receptionist<ReplicaGroup<Flaky>>) {
    let n = SHARDS.len();
    let groups: Vec<ReplicaGroup<Flaky>> = (0..n)
        .map(|s| {
            let plan = if s == faulty_shard {
                primary_plan.clone()
            } else {
                FaultPlan::new()
            };
            ReplicaGroup::new(
                s as u32,
                vec![
                    (s as u32, replica(s, plan)),
                    ((n + s) as u32, replica(s, FaultPlan::new())),
                ],
            )
        })
        .collect();
    let receptionist = Receptionist::new(groups.clone(), Analyzer::default());
    (groups, receptionist)
}

/// The never-failed single-replica oracle.
fn oracle_fleet() -> Receptionist<InProcTransport<Librarian>> {
    let transports = (0..SHARDS.len())
        .map(|s| InProcTransport::new(build_librarian(s)))
        .collect();
    Receptionist::new(transports, Analyzer::default())
}

/// Runs the full query battery — every methodology, several queries and
/// k values — and flattens the answers to score-bit granularity.
/// Panics if any query degrades: with one live replica per shard,
/// coverage loss is a failover bug, not an acceptable answer.
fn battery<T: teraphim::net::Transport>(r: &mut Receptionist<T>) -> Vec<(usize, u32, u64)> {
    let mut flat = Vec::new();
    for methodology in [
        Methodology::CentralNothing,
        Methodology::CentralVocabulary,
        Methodology::CentralIndex,
    ] {
        for query in ["cats", "dogs birds", "quiet cats", "sleeping"] {
            for k in [3usize, 8] {
                let answer = r
                    .query_with_coverage(methodology, query, k)
                    .expect("a fleet with a live replica per shard answers");
                assert!(
                    answer.coverage.failed.is_empty(),
                    "failover must be invisible: {:?} {query:?} k={k} reported \
                     casualties {:?}",
                    methodology,
                    answer.coverage.failed
                );
                for hit in answer.hits {
                    flat.push((hit.librarian, hit.doc, hit.score.to_bits()));
                }
            }
        }
    }
    flat
}

proptest! {
    /// The tentpole invariant: one shard's primary dies — transiently
    /// erroring or dropping connections — after an arbitrary number of
    /// served requests (possibly zero: mid-preprocessing), and every
    /// ranking across CN/CV/CI stays byte-identical to the oracle's
    /// with full coverage. Healing the shard (a fresh replica joins,
    /// is promoted, the corpse leaves) keeps the answers identical.
    fn primary_death_is_invisible_at_any_point(
        shard in 0usize..4,
        drop_instead in proptest::bool::ANY,
        dies_after in 0u64..48,
    ) {
        let plan = if drop_instead {
            FaultPlan::new().drop_from(dies_after)
        } else {
            FaultPlan::new().fail_from(dies_after)
        };
        let mut oracle = oracle_fleet();
        oracle.enable_cv().unwrap();
        oracle.enable_ci(CI_PARAMS).unwrap();
        let expected = battery(&mut oracle);

        let (groups, mut elastic) = elastic_fleet(shard, plan);
        elastic.enable_cv().unwrap();
        elastic.enable_ci(CI_PARAMS).unwrap();
        prop_assert_eq!(&battery(&mut elastic), &expected);

        // Heal: a fresh replica joins the wounded shard, takes over as
        // preferred, and the dead primary leaves the group.
        let joined = (2 * SHARDS.len() + shard) as u32;
        groups[shard].add_replica(joined, replica(shard, FaultPlan::new()));
        prop_assert!(groups[shard].promote(joined));
        prop_assert!(groups[shard].remove_replica(shard as u32));
        prop_assert_eq!(groups[shard].preferred_id(), Some(joined));
        prop_assert_eq!(&battery(&mut elastic), &expected);
    }
}

/// A primary dead from the first exchange: the group records `Failover`
/// events naming the shard, the corpse, and the replica that took over,
/// and the shared routing table versions every membership change it is
/// told about.
#[test]
fn failover_traces_and_routing_versions() {
    let table = RoutingTable::new();
    let (groups, mut elastic) = elastic_fleet(1, FaultPlan::new().fail_from(0));
    let groups: Vec<ReplicaGroup<Flaky>> = groups
        .into_iter()
        .map(|g| g.with_table(table.clone()))
        .collect();
    let sink = elastic.enable_tracing();
    for group in &groups {
        let _ = group.clone().with_trace(sink.clone());
    }
    elastic.set_routing_table(table.clone());
    let version_after_publish = table.version();

    let mut oracle = oracle_fleet();
    let expected = oracle
        .query_with_coverage(Methodology::CentralNothing, "cats", 8)
        .unwrap();
    let answer = elastic
        .query_with_coverage(Methodology::CentralNothing, "cats", 8)
        .unwrap();
    assert_eq!(answer.hits, expected.hits, "failover preserved the ranking");
    assert!(answer.coverage.failed.is_empty());

    let failovers: Vec<(u32, u32, u32)> = sink
        .take_traces()
        .iter()
        .flat_map(|t| t.events.clone())
        .filter_map(|e| match e.kind {
            EventKind::Failover {
                librarian,
                from,
                to,
                ..
            } => Some((librarian, from, to)),
            _ => None,
        })
        .collect();
    assert!(
        failovers.contains(&(1, 1, 5)),
        "expected a shard-1 failover from replica 1 to replica 5, got {failovers:?}"
    );

    // Membership changes bump the shared routing table monotonically
    // and the published snapshot tracks the live set.
    let v1 = groups[1].add_replica(9, replica(1, FaultPlan::new()));
    assert!(v1 > version_after_publish);
    assert!(groups[1].promote(9));
    assert!(groups[1].remove_replica(1));
    let (replicas, preferred) = table.shard(1).expect("shard 1 is published");
    assert_eq!(preferred, 9);
    assert!(replicas.contains(&9) && !replicas.contains(&1));
    assert!(table.version() > v1);
}

fn load_fixture(name: &str) -> Plan {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/plans")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    Plan::from_json(&text).unwrap_or_else(|e| panic!("fixture {name} malformed: {e}"))
}

/// The committed ddmin-shrunk reproducer from the 500-step elastic
/// gate: draining a shard to zero replicas right after it received the
/// only copies of fresh documents, then asking the central index for
/// them. Historically this diverged — the real receptionist punished
/// the *only contacted* librarian being down with an
/// `insufficient_coverage` error while the simulator answered empty
/// with degraded coverage. The coverage policy now counts librarians
/// the central index answers for authoritatively, so all three
/// backends agree.
#[test]
fn committed_elastic_drain_reproducer_replays() {
    let plan = load_fixture("elastic_drain_min.json");
    assert_eq!(plan.replicas, 2);
    assert_eq!(
        plan.steps
            .iter()
            .filter(|s| matches!(s, Step::RemoveLib { .. }))
            .count(),
        2,
        "the fixture drains one shard's primary and then its last replica"
    );
    let report = differential(&plan).unwrap_or_else(|f| panic!("fixture diverged: {f}"));
    // The drained shard really was a casualty of the final CI query.
    let last = report.inproc.outcomes.last().expect("the CI query ran");
    assert_eq!(last.failed, vec![1], "shard 1 had zero live replicas");
    assert!(last.error.is_none(), "a drained shard degrades, not errors");
    doublecheck(&plan, SimBackend::new).expect("sim doublecheck");
    doublecheck(&plan, InProcBackend::new).expect("inproc doublecheck");
    doublecheck(&plan, TcpBackend::new).expect("tcp doublecheck");
}

/// Plan-level elastic differentials over fresh seeds: generated
/// workloads with 2–3 replicas per shard mix all four methodologies
/// (MS included — served mono-server, so membership churn must be
/// invisible there too), fault windows, and join/leave/promote churn;
/// sim, in-process and TCP must agree everywhere.
#[test]
fn elastic_differential_over_seeds() {
    for (seed, replicas) in [(11u64, 2u64), (24, 3)] {
        let plan = generate_plan(
            &format!("elastic-{seed}"),
            seed,
            GenOptions {
                steps: 90,
                clients: 2,
                allow_kills: false,
                replicas,
                crashes: false,
            },
        );
        assert!(
            plan.steps.iter().any(|s| matches!(
                s,
                Step::AddLib { .. } | Step::RemoveLib { .. } | Step::PromoteReplica { .. }
            )),
            "seed {seed}: membership churn present"
        );
        for mode in RunMode::ALL {
            assert!(
                plan.steps
                    .iter()
                    .any(|s| matches!(s, Step::Query { mode: m, .. } if *m == mode)),
                "seed {seed}: {} missing from the workload",
                mode.code()
            );
        }
        differential(&plan).unwrap_or_else(|f| panic!("seed {seed} diverged: {f}"));
    }
}

// ---------------------------------------------------------------------
// Golden normalized traces: a failover and a migration, committed under
// tests/fixtures/traces/ like the PR 3 methodology goldens. Regenerate
// with `UPDATE_TRACE_GOLDENS=1 cargo test --test elastic_fleet`.
// ---------------------------------------------------------------------

fn trace_fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/traces")
        .join(format!("{name}.json"))
}

/// Asserts `trace` (normalized) matches the committed golden fixture —
/// the `tests/traces.rs` machinery, shared by copy because integration
/// tests are separate binaries.
fn assert_matches_golden(name: &str, trace: &QueryTrace) {
    let actual = trace.normalized().to_json() + "\n";
    let path = trace_fixture_path(name);
    if std::env::var("UPDATE_TRACE_GOLDENS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run UPDATE_TRACE_GOLDENS=1 cargo test --test elastic_fleet",
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

/// The span-tree variant of the golden assertion, same protocol.
fn assert_span_golden(name: &str, tree: &SpanTree) {
    let actual = tree.to_json();
    let path = trace_fixture_path(name);
    if std::env::var("UPDATE_TRACE_GOLDENS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run UPDATE_TRACE_GOLDENS=1 cargo test --test elastic_fleet",
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

fn trace_corpus() -> SyntheticCorpus {
    SyntheticCorpus::generate(&CorpusSpec::small(33))
}

fn corpus_librarian(corpus: &SyntheticCorpus, shard: usize) -> Librarian {
    let sub = &corpus.subcollections()[shard];
    Librarian::build(&sub.name, Analyzer::default(), &sub.docs)
}

/// One traced CN query against a 2-replica fleet whose shard-1 primary
/// is dead from the first exchange — the failover is on the record
/// between that shard's fan-out events.
fn failover_trace<T: teraphim::net::Transport>(
    groups: Vec<ReplicaGroup<T>>,
    query: &str,
) -> QueryTrace {
    let mut r = Receptionist::new(groups.clone(), Analyzer::default());
    r.set_dispatch_mode(DispatchMode::Sequential);
    let sink = TraceSink::new();
    r.set_trace_sink(sink.clone());
    for group in &groups {
        let _ = group.clone().with_trace(sink.clone());
    }
    r.query(Methodology::CentralNothing, query, 10)
        .expect("the fleet answers through the surviving replica");
    let mut traces = sink.take_traces();
    assert_eq!(traces.len(), 1, "one traced query, one trace");
    traces.remove(0)
}

/// The failover golden: the in-process and TCP stacks must emit the
/// byte-identical normalized trace — same fan-out, same `failover`
/// event naming the corpse and the replacement, same byte accounting.
/// (The simulator models whole-shard availability, not per-replica
/// faults, so it never emits `failover`; its membership schema is
/// pinned by the migrate golden below.)
#[test]
fn golden_failover_trace_shared_by_inproc_and_tcp() {
    let corpus = trace_corpus();
    let n = corpus.subcollections().len();
    let query = corpus.short_queries()[0].text.clone();

    let inproc_groups: Vec<ReplicaGroup<FaultyTransport<InProcTransport<Librarian>>>> = (0..n)
        .map(|s| {
            let dead = |r: usize| s == 1 && r == 0;
            ReplicaGroup::new(
                s as u32,
                (0..2)
                    .map(|r| {
                        let id = if r == 0 { s as u32 } else { (n + s) as u32 };
                        let plan = if dead(r) {
                            FaultPlan::new().fail_from(0)
                        } else {
                            FaultPlan::new()
                        };
                        (
                            id,
                            FaultyTransport::new(
                                InProcTransport::new(corpus_librarian(&corpus, s)),
                                plan,
                            ),
                        )
                    })
                    .collect(),
            )
        })
        .collect();
    let inproc = failover_trace(inproc_groups, &query);
    assert!(
        inproc.events.iter().any(|e| matches!(
            e.kind,
            EventKind::Failover {
                librarian: 1,
                from: 1,
                ..
            }
        )),
        "the shard-1 failover is on the record"
    );
    assert_matches_golden("failover", &inproc);

    // The same fleet over real sockets: one TCP server per replica, the
    // client's handle to the shard-1 primary refusing every request.
    let servers: Vec<Vec<TcpServer>> = (0..n)
        .map(|s| {
            (0..2)
                .map(|_| {
                    TcpServer::spawn(corpus_librarian(&corpus, s), "127.0.0.1:0")
                        .expect("loopback server spawns")
                })
                .collect()
        })
        .collect();
    let tcp_groups: Vec<ReplicaGroup<FaultyTransport<MuxTransport>>> = servers
        .iter()
        .enumerate()
        .map(|(s, replicas)| {
            ReplicaGroup::new(
                s as u32,
                replicas
                    .iter()
                    .enumerate()
                    .map(|(r, server)| {
                        let id = if r == 0 { s as u32 } else { (n + s) as u32 };
                        let plan = if s == 1 && r == 0 {
                            FaultPlan::new().fail_from(0)
                        } else {
                            FaultPlan::new()
                        };
                        let mux = MuxTransport::connect(server.addr()).expect("loopback connects");
                        (id, FaultyTransport::new(mux, plan))
                    })
                    .collect(),
            )
        })
        .collect();
    let tcp = failover_trace(tcp_groups, &query);
    assert_eq!(
        tcp.normalized(),
        inproc.normalized(),
        "TCP and in-process failover traces must be byte-identical after \
         normalization"
    );

    // And the stitched form: the failover surfaces as a zero-duration
    // annotation inside shard 1's librarian span, identically on both
    // stacks, pinned as a span-tree golden next to the methodology ones.
    let inproc_tree = SpanTree::from_trace(&inproc.normalized());
    let tcp_tree = SpanTree::from_trace(&tcp.normalized());
    assert_eq!(
        inproc_tree.to_json(),
        tcp_tree.to_json(),
        "TCP and in-process failover span trees must be byte-identical"
    );
    assert_span_golden("span_failover", &inproc_tree);
}

/// The migration golden: an `add_lib` index handoff produces a
/// `migrate` trace — `Migrate` (docs and epoch handed over) then `Join`
/// (the new replica's id and the routing version it published) — and
/// all three scenario backends emit it byte-identically: the simulator
/// mirrors the real backends' replica-id and routing-version counters.
#[test]
fn golden_migrate_trace_shared_by_sim_inproc_and_tcp() {
    let mut plan = Plan::named("migrate-golden", 5);
    plan.replicas = 2;
    // One client session: the TCP backend records one `Join` per
    // session group, so a single session matches the other drivers.
    plan.clients = 1;

    let mut sim = SimBackend::new(&plan);
    sim.take_traces(); // discard construction-time preprocessing
    sim.add_lib(1);
    let sim_migrate = extract_migrate(sim.take_traces());

    let mut inproc = InProcBackend::new(&plan);
    inproc.take_traces();
    inproc.add_lib(1);
    let inproc_migrate = extract_migrate(inproc.take_traces());

    let mut tcp = TcpBackend::new(&plan);
    tcp.take_traces();
    tcp.add_lib(1);
    let tcp_migrate = extract_migrate(tcp.take_traces());

    assert_eq!(
        inproc_migrate.normalized(),
        sim_migrate.normalized(),
        "sim and in-process migrate traces must be byte-identical"
    );
    assert_eq!(
        tcp_migrate.normalized(),
        sim_migrate.normalized(),
        "sim and TCP migrate traces must be byte-identical"
    );
    assert_matches_golden("migrate", &sim_migrate);
}

fn extract_migrate(traces: Vec<QueryTrace>) -> QueryTrace {
    let mut migrates: Vec<QueryTrace> = traces.into_iter().filter(|t| t.op == "migrate").collect();
    assert_eq!(migrates.len(), 1, "one handoff, one migrate trace");
    let trace = migrates.remove(0);
    assert!(trace.complete, "the migrate trace closed cleanly");
    trace
}
