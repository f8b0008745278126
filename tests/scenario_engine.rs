//! The scenario engine end-to-end: seeded generation, doublecheck and
//! differential modes across all three backends, the mutation check
//! (an injected ranking bug must be caught and shrunk to a tiny
//! committed reproducer), fixture replay, and the mux poison-on-EOF
//! regression.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use teraphim::core::{Librarian, Receptionist};
use teraphim::net::mux::MuxTransport;
use teraphim::net::tcp::TcpServer;
use teraphim::net::{DispatchMode, ServerOptions};
use teraphim::scenario::{
    compare_reports, differential, doublecheck, generate_plan, run_plan, shrink_plan,
    write_bugbase, Backend, FaultSpec, Fixture, GenOptions, InProcBackend, Plan, QueryOutcome,
    RunMode, SimBackend, Step, TcpBackend,
};
use teraphim::text::sgml::TrecDoc;
use teraphim::text::Analyzer;

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/plans")
}

fn load_fixture(name: &str) -> Plan {
    let path = fixtures_dir().join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    Plan::from_json(&text).unwrap_or_else(|e| panic!("fixture {name} malformed: {e}"))
}

#[test]
fn doublecheck_sim_and_inproc_backends() {
    let plan = generate_plan(
        "dc-40",
        42,
        GenOptions {
            steps: 40,
            clients: 2,
            allow_kills: false,
            replicas: 1,
            crashes: false,
        },
    );
    doublecheck(&plan, SimBackend::new).expect("sim must repeat itself");
    doublecheck(&plan, InProcBackend::new).expect("inproc must repeat itself");
}

#[test]
fn doublecheck_tcp_backend() {
    let plan = generate_plan(
        "dc-tcp-24",
        42,
        GenOptions {
            steps: 24,
            clients: 2,
            allow_kills: false,
            replicas: 1,
            crashes: false,
        },
    );
    doublecheck(&plan, TcpBackend::new).expect("tcp must repeat itself");
}

#[test]
fn differential_generated_plan() {
    let plan = generate_plan(
        "diff-60",
        42,
        GenOptions {
            steps: 60,
            clients: 2,
            allow_kills: false,
            replicas: 1,
            crashes: false,
        },
    );
    assert!(plan.query_steps() > 20, "workload is query-dominated");
    let report = differential(&plan).unwrap_or_else(|f| panic!("differential failed: {f}"));
    assert_eq!(report.sim.outcomes.len(), report.tcp.outcomes.len());
}

/// The acceptance-gate run: a seeded 500-step *elastic* plan — two
/// replicas per shard, membership churn mixed into the workload, with
/// a `remove_lib` of a primary and a later healing `add_lib` — must
/// survive doublecheck and the three-way differential.
#[test]
fn five_hundred_step_plan_doublechecks_and_differentials() {
    let plan = generate_plan(
        "gate-500",
        42,
        GenOptions {
            steps: 500,
            clients: 3,
            allow_kills: false,
            replicas: 2,
            crashes: false,
        },
    );
    assert_eq!(plan.steps.len(), 500);
    doublecheck(&plan, SimBackend::new).expect("sim doublecheck");
    let report = differential(&plan).unwrap_or_else(|f| panic!("differential failed: {f}"));
    // The plan actually exercised faults, churn and membership — not
    // just queries.
    assert!(
        plan.steps
            .iter()
            .any(|s| matches!(s, Step::SetFault { .. })),
        "fault windows present"
    );
    assert!(
        plan.steps.iter().any(|s| matches!(s, Step::AddDocs { .. })),
        "churn present"
    );
    let first_remove = plan
        .steps
        .iter()
        .position(|s| matches!(s, Step::RemoveLib { .. }))
        .expect("a primary leaves mid-plan");
    assert!(
        plan.steps[first_remove..]
            .iter()
            .any(|s| matches!(s, Step::AddLib { .. })),
        "a later add_lib joins a replica back"
    );
    assert!(
        report
            .sim
            .outcomes
            .iter()
            .any(|o: &QueryOutcome| !o.failed.is_empty()),
        "at least one degraded query observed"
    );
}

/// Crash-churn gate: a generated plan that crashes shards mid-workload
/// (volatile state genuinely lost on the real backends) and reopens
/// them from their persistent stores must stay differential — the
/// simulator, which never loses state, is the recovery oracle.
#[test]
fn crash_churn_plan_differentials_and_recovers() {
    let plan = generate_plan(
        "crash-120",
        42,
        GenOptions {
            steps: 120,
            clients: 2,
            allow_kills: false,
            replicas: 1,
            crashes: true,
        },
    );
    assert!(
        plan.steps
            .iter()
            .any(|s| matches!(s, Step::CrashLib { .. })),
        "crashes present in the generated workload"
    );
    assert!(
        plan.steps
            .iter()
            .any(|s| matches!(s, Step::ReopenLib { .. })),
        "reopens present too"
    );
    assert!(
        plan.steps.iter().any(|s| matches!(s, Step::AddDocs { .. })),
        "churn present, so recovery must replay WAL batches"
    );
    doublecheck(&plan, SimBackend::new).expect("sim doublecheck under crash churn");
    let report = differential(&plan).unwrap_or_else(|f| panic!("crash differential failed: {f}"));
    assert!(
        report
            .sim
            .outcomes
            .iter()
            .any(|o: &QueryOutcome| !o.failed.is_empty()),
        "some query observed a crashed shard"
    );
}

/// Nightly-style deeper sweep: several seeds, longer plans. Run with
/// `cargo test -- --ignored`.
#[test]
#[ignore = "long sweep; run explicitly or nightly"]
fn long_seed_sweep() {
    for seed in [7, 1009, 90210] {
        let plan = generate_plan(
            &format!("sweep-{seed}"),
            seed,
            GenOptions {
                steps: 300,
                clients: 3,
                allow_kills: false,
                replicas: 1,
                crashes: false,
            },
        );
        doublecheck(&plan, SimBackend::new)
            .unwrap_or_else(|f| panic!("seed {seed} doublecheck: {f}"));
        differential(&plan).unwrap_or_else(|f| panic!("seed {seed} differential: {f}"));
    }
}

/// An intentionally buggy backend: after the first reindexing cycle it
/// truncates every Central Vocabulary ranking to a single hit —
/// modeling a stale-derived-state bug where churn corrupts one
/// methodology's merge.
struct MutantBackend {
    inner: SimBackend,
    churned: bool,
}

impl MutantBackend {
    fn new(plan: &Plan) -> MutantBackend {
        MutantBackend {
            inner: SimBackend::new(plan),
            churned: false,
        }
    }
}

impl Backend for MutantBackend {
    fn name(&self) -> &'static str {
        "mutant"
    }
    fn num_libs(&self) -> usize {
        self.inner.num_libs()
    }
    fn query(&mut self, client: u64, mode: RunMode, query: &str, k: usize) -> QueryOutcome {
        let mut outcome = self.inner.query(client, mode, query, k);
        if self.churned && mode == RunMode::Cv {
            outcome.hits.truncate(1);
        }
        outcome
    }
    fn add_docs(&mut self, lib: usize, docs: &[TrecDoc]) -> Result<(), String> {
        self.churned = true;
        self.inner.add_docs(lib, docs)
    }
    fn apply_fault(&mut self, lib: usize, fault: Option<FaultSpec>) {
        self.inner.apply_fault(lib, fault);
    }
    fn kill(&mut self, lib: usize) {
        self.inner.kill(lib);
    }
    fn add_lib(&mut self, lib: usize) {
        self.inner.add_lib(lib);
    }
    fn remove_lib(&mut self, lib: usize) {
        self.inner.remove_lib(lib);
    }
    fn promote_replica(&mut self, lib: usize) {
        self.inner.promote_replica(lib);
    }
    fn crash(&mut self, lib: usize) {
        self.inner.crash(lib);
    }
    fn reopen(&mut self, lib: usize) {
        self.inner.reopen(lib);
    }
    fn set_cache(&mut self, spec: Option<teraphim::scenario::CacheSpec>) {
        self.inner.set_cache(spec);
    }
    fn set_dispatch(&mut self, mode: DispatchMode) {
        self.inner.set_dispatch(mode);
    }
    fn health_poll(&mut self) {
        self.inner.health_poll();
    }
    fn accounting(&mut self) -> teraphim::scenario::Accounting {
        self.inner.accounting()
    }
}

fn check_mutant(plan: &Plan) -> Option<teraphim::scenario::Failure> {
    let reference = run_plan(plan, &mut SimBackend::new(plan));
    let mutant = run_plan(plan, &mut MutantBackend::new(plan));
    compare_reports("sim", &reference, "mutant", &mutant, false).err()
}

#[test]
fn mutation_check_catches_and_shrinks_the_injected_bug() {
    let plan = generate_plan(
        "mutant-ranking",
        42,
        GenOptions {
            steps: 60,
            clients: 2,
            allow_kills: false,
            replicas: 1,
            crashes: false,
        },
    );
    let failure = check_mutant(&plan).expect("the injected CV bug must be caught");
    assert_eq!(failure.property, "diff:sim~mutant:ranking");

    let result = shrink_plan(&plan, &failure, check_mutant, 5_000);
    assert!(
        result.plan.steps.len() <= 10,
        "shrunk to {} steps, want <= 10: {:?}",
        result.plan.steps.len(),
        result.plan.steps
    );
    assert!(result.failure.same_property(&failure));
    // The minimal reproducer needs churn (arms the bug) and a CV query
    // wide enough to observe the truncation.
    assert!(result
        .plan
        .steps
        .iter()
        .any(|s| matches!(s, Step::AddDocs { .. })));
    assert!(result
        .plan
        .steps
        .iter()
        .any(|s| matches!(s, Step::Query { mode, .. } if *mode == RunMode::Cv)));
}

#[test]
fn committed_mutant_fixture_still_reproduces() {
    let plan = load_fixture("mutant_ranking_min.json");
    assert!(
        plan.steps.len() <= 10,
        "the committed reproducer is minimal"
    );
    let failure = check_mutant(&plan).expect("fixture must still trip the mutant");
    assert_eq!(failure.property, "diff:sim~mutant:ranking");
    // And the real system passes the very same plan: the fixture
    // documents the bug shape, not a real divergence.
    differential(&plan).unwrap_or_else(|f| panic!("real backends diverged: {f}"));
}

/// Satellite: the hand-written sim-vs-real fault differential migrated
/// onto the engine as a committed fixture plan.
#[test]
fn committed_fault_differential_fixture_replays() {
    let plan = load_fixture("fault_differential.json");
    assert!(
        plan.steps.iter().any(|s| matches!(
            s,
            Step::SetFault {
                fault: FaultSpec::Down,
                ..
            }
        )),
        "the fixture exercises a fault window"
    );
    let report = differential(&plan).unwrap_or_else(|f| panic!("fixture diverged: {f}"));
    // The fault window actually degraded queries on every backend.
    assert!(
        report.sim.outcomes.iter().any(|o| !o.failed.is_empty()),
        "degraded coverage observed"
    );
    // Doublecheck all three backends on the same fixture.
    doublecheck(&plan, SimBackend::new).expect("sim doublecheck");
    doublecheck(&plan, InProcBackend::new).expect("inproc doublecheck");
    doublecheck(&plan, TcpBackend::new).expect("tcp doublecheck");
}

/// Satellite: the committed crash-recovery regression plan — churn a
/// shard, crash it (memory lost), reopen from the persistent store,
/// and prove by differential that the recovered shard answers exactly
/// like the sim backend that never crashed.
#[test]
fn committed_persist_recover_fixture_replays() {
    let plan = load_fixture("persist_recover_min.json");
    assert!(
        plan.steps
            .iter()
            .any(|s| matches!(s, Step::CrashLib { .. })),
        "the fixture crashes a shard"
    );
    assert!(
        plan.steps
            .iter()
            .any(|s| matches!(s, Step::ReopenLib { .. })),
        "and recovers it"
    );
    assert!(
        plan.steps.iter().any(|s| matches!(s, Step::AddDocs { .. })),
        "with churn logged to the WAL before the crash"
    );
    let report = differential(&plan).unwrap_or_else(|f| panic!("recovery fixture diverged: {f}"));
    // The crash window degraded at least one query...
    assert!(
        report.sim.outcomes.iter().any(|o| !o.failed.is_empty()),
        "a query observed the crashed shard"
    );
    // ...and the post-reopen queries recovered full coverage.
    assert!(
        report.sim.outcomes.last().unwrap().failed.is_empty(),
        "full coverage after recovery"
    );
    doublecheck(&plan, InProcBackend::new).expect("inproc doublecheck");
    doublecheck(&plan, TcpBackend::new).expect("tcp doublecheck");
}

/// Regenerates the committed fixture plans. Run explicitly after
/// changing the plan schema or generator:
/// `cargo test --test scenario_engine -- --ignored regenerate`
#[test]
#[ignore = "writes tests/fixtures/plans; run explicitly to regenerate"]
fn regenerate_fixture_plans() {
    // 1. The migrated fault differential: healthy baseline across all
    //    four systems, a Down window on librarian 1, degraded queries,
    //    recovery, and a post-recovery re-check.
    let mut plan = Plan::named("fault_differential", 7);
    let fixture = Fixture::for_plan(&plan);
    let queries: Vec<String> = fixture
        .corpus()
        .short_queries()
        .iter()
        .take(3)
        .map(|q| q.text.clone())
        .collect();
    let all_modes = [RunMode::Ms, RunMode::Cn, RunMode::Cv, RunMode::Ci];
    for mode in all_modes {
        plan.steps.push(Step::Query {
            client: 0,
            mode,
            query: queries[0].clone(),
            k: 10,
        });
    }
    plan.steps.push(Step::SetFault {
        lib: 1,
        fault: FaultSpec::Down,
    });
    for mode in [RunMode::Cn, RunMode::Cv, RunMode::Ci] {
        plan.steps.push(Step::Query {
            client: 1,
            mode,
            query: queries[1].clone(),
            k: 10,
        });
    }
    plan.steps.push(Step::ClearFaults);
    for mode in [RunMode::Cn, RunMode::Cv] {
        plan.steps.push(Step::Query {
            client: 0,
            mode,
            query: queries[2].clone(),
            k: 10,
        });
    }
    let path = write_bugbase(&fixtures_dir(), &plan).unwrap();
    println!("wrote {}", path.display());

    // 2. The shrunken mutant reproducer.
    let generated = generate_plan(
        "mutant_ranking_min",
        42,
        GenOptions {
            steps: 60,
            clients: 2,
            allow_kills: false,
            replicas: 1,
            crashes: false,
        },
    );
    let failure = check_mutant(&generated).expect("mutant must fail the generated plan");
    let shrunk = shrink_plan(&generated, &failure, check_mutant, 5_000);
    assert!(shrunk.plan.steps.len() <= 10);
    let path = write_bugbase(&fixtures_dir(), &shrunk.plan).unwrap();
    println!(
        "wrote {} ({} steps)",
        path.display(),
        shrunk.plan.steps.len()
    );

    // 3. The crash-recovery regression plan: baseline, churn into the
    //    WAL, probe the churned docs, crash the shard (degraded
    //    coverage), reopen from the store, re-probe — recovery must
    //    reproduce the pre-crash answers exactly. Generated-then-shrunk
    //    plans from the crash sweep found no real divergence, so this
    //    hand-shaped minimal plan documents the contract instead.
    let mut plan = Plan::named("persist_recover_min", 13);
    let fixture = Fixture::for_plan(&plan);
    let q: Vec<String> = fixture
        .corpus()
        .short_queries()
        .iter()
        .take(2)
        .map(|s| s.text.clone())
        .collect();
    let cv_query = |client: u64, query: &str| Step::Query {
        client,
        mode: RunMode::Cv,
        query: query.to_string(),
        k: 10,
    };
    plan.steps = vec![
        cv_query(0, &q[0]),
        Step::AddDocs {
            lib: 1,
            count: 2,
            batch: 0,
        },
        cv_query(0, "churn"),
        Step::CrashLib { lib: 1 },
        cv_query(1, &q[0]),
        Step::ReopenLib { lib: 1 },
        cv_query(0, "churn"),
        cv_query(1, &q[1]),
    ];
    let path = write_bugbase(&fixtures_dir(), &plan).unwrap();
    println!("wrote {}", path.display());
}

/// Satellite regression: a connection killed mid-pipelined-batch must
/// surface as degraded coverage via the mux reader's poison-on-EOF
/// path — never as a hang and never as a wrong answer.
#[test]
fn killed_connection_mid_pipelined_batch_degrades_not_hangs() {
    let libs: Vec<(&str, Vec<(&str, &str)>)> = vec![
        ("A", vec![("A-1", "cats and dogs"), ("A-2", "just cats")]),
        ("B", vec![("B-1", "dogs alone"), ("B-2", "cats dogs birds")]),
        (
            "C",
            vec![("C-1", "cats chasing birds"), ("C-2", "quiet cats")],
        ),
        (
            "D",
            vec![("D-1", "birds and cats"), ("D-2", "sleeping dogs")],
        ),
    ];
    let servers: Vec<TcpServer> = libs
        .iter()
        .map(|(name, docs)| {
            TcpServer::spawn_with(
                vec![Librarian::from_texts(name, docs)],
                "127.0.0.1:0",
                ServerOptions {
                    workers: 1,
                    queue_depth: 16,
                },
            )
            .unwrap()
        })
        .collect();

    // Preprocess CV over the healthy fleet.
    let mut prototype = Receptionist::new(
        servers
            .iter()
            .map(|s| MuxTransport::connect(s.addr()).unwrap())
            .collect::<Vec<_>>(),
        Analyzer::default(),
    );
    prototype.enable_cv().unwrap();

    // A saboteur stands in for librarian 1's server: it accepts the
    // mux connection, waits for the first request bytes of the
    // pipelined batch, then closes the socket without replying — the
    // client's connection reader hits EOF with a ticket in flight.
    let saboteur = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let saboteur_addr = saboteur.local_addr().unwrap();
    let accepted = Arc::new(AtomicBool::new(false));
    let accepted_flag = Arc::clone(&accepted);
    let saboteur_thread = std::thread::spawn(move || {
        if let Ok((mut stream, _)) = saboteur.accept() {
            accepted_flag.store(true, Ordering::SeqCst);
            let mut first = [0u8; 1];
            use std::io::Read;
            let _ = stream.read(&mut first); // a batch request arrived
                                             // Dropping the stream here closes the connection with the
                                             // request unanswered.
        }
    });

    let deadline = Duration::from_secs(5);
    let transports: Vec<MuxTransport> = servers
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let addr = if i == 1 { saboteur_addr } else { s.addr() };
            MuxTransport::connect_with_deadline(addr, deadline).unwrap()
        })
        .collect();
    let mut session = prototype.fork(transports);

    // Watchdog: the query must finish well before the 30s hang budget.
    let (tx, rx) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || {
        let answer =
            session.query_with_coverage(teraphim::core::Methodology::CentralVocabulary, "cats", 8);
        tx.send(answer).unwrap();
    });
    let answer = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("poison-on-EOF must not hang the pipelined batch")
        .expect("three healthy librarians satisfy the degrade policy");
    runner.join().unwrap();
    assert!(accepted.load(Ordering::SeqCst), "saboteur saw the batch");

    assert_eq!(answer.coverage.failed, vec![1], "only librarian 1 dropped");
    assert_eq!(answer.coverage.answered, vec![0, 2, 3]);
    assert!(
        answer.hits.iter().any(|h| h.librarian != 1),
        "survivors' hits present"
    );
    assert!(
        answer.hits.iter().all(|h| h.librarian != 1),
        "no partial results from the dead librarian"
    );
    saboteur_thread.join().unwrap();
}

/// A plan-level variant of the same regression: `kill_lib` inside a
/// pipelined-dispatch plan degrades coverage identically on every
/// backend instead of hanging any of them.
#[test]
fn plan_level_kill_under_pipelined_dispatch_stays_differential() {
    let mut plan = Plan::named("kill-pipelined", 11);
    let fixture = Fixture::for_plan(&plan);
    let query = fixture.corpus().short_queries()[0].text.clone();
    plan.steps = vec![
        Step::Dispatch {
            mode: DispatchMode::Pipelined,
        },
        Step::Query {
            client: 0,
            mode: RunMode::Cv,
            query: query.clone(),
            k: 10,
        },
        Step::KillLib { lib: 1 },
        Step::Query {
            client: 0,
            mode: RunMode::Cv,
            query: query.clone(),
            k: 10,
        },
        Step::Query {
            client: 1,
            mode: RunMode::Cn,
            query,
            k: 10,
        },
    ];
    let report = differential(&plan).unwrap_or_else(|f| panic!("kill plan diverged: {f}"));
    assert_eq!(report.tcp.outcomes[1].failed, vec![1]);
    assert_eq!(report.tcp.outcomes[2].failed, vec![1]);
}

/// Three `Delay{20}` windows under pipelined dispatch cost one delay per
/// query, not three, on both real backends — the simulator charges the
/// maximum too — and change no answer.
#[test]
fn delay_windows_on_several_shards_overlap() {
    let plan = Plan::named("delay-overlap", 7);
    let queries: Vec<String> = Fixture::for_plan(&plan).corpus().short_queries()[..5]
        .iter()
        .map(|q| q.text.clone())
        .collect();
    let delay = Duration::from_millis(20);
    // Each query's outcome and how long it took.
    type Timed = Vec<(QueryOutcome, Duration)>;
    let run = |backend: &mut dyn Backend, windows: bool| -> Timed {
        backend.set_dispatch(DispatchMode::Pipelined);
        if windows {
            for lib in 0..3 {
                let ms = delay.as_millis() as u64;
                backend.apply_fault(lib, Some(FaultSpec::Delay { ms }));
            }
        }
        queries
            .iter()
            .map(|query| {
                let started = Instant::now();
                let outcome = backend.query(0, RunMode::Cn, query, 10);
                (outcome, started.elapsed())
            })
            .collect()
    };
    let placement = |outcomes: &Timed| -> Vec<Vec<(u64, u32)>> {
        outcomes
            .iter()
            .map(|(o, _)| o.hits.iter().map(|h| (h.lib, h.doc)).collect())
            .collect()
    };
    let sim = run(&mut SimBackend::new(&plan), true);
    assert!(sim.iter().all(|(o, _)| !o.hits.is_empty()));
    let check = |name: &str, healthy: Timed, delayed: Timed| {
        for (i, ((slow, took), (fast, _))) in delayed.iter().zip(&healthy).enumerate() {
            assert_eq!(slow, fast, "{name} query {i}: a delay changed the answer");
            assert!(
                *took >= delay && *took < delay * 2,
                "{name} query {i}: three {delay:?} windows took {took:?}"
            );
        }
        assert_eq!(placement(&delayed), placement(&sim), "{name} vs sim");
    };
    check(
        "inproc",
        run(&mut InProcBackend::new(&plan), false),
        run(&mut InProcBackend::new(&plan), true),
    );
    check(
        "tcp",
        run(&mut TcpBackend::new(&plan), false),
        run(&mut TcpBackend::new(&plan), true),
    );
}
