//! Failover-latency benchmark for the elastic fleet: what does a query
//! pay when a shard's primary replica is dead and every fan-out reroutes
//! to the surviving replica, compared against a healthy fleet, a healed
//! fleet (the corpse removed, the survivor promoted), and the degraded
//! no-replica fallback (degraded-coverage loss)?
//!
//! Four fleet states per methodology (CN/CV/CI), in-process and TCP:
//!
//! * **healthy** — two live replicas per shard, primary answers;
//! * **failover** — shard 0's primary refuses every request
//!   (`fail_from(0)`), so each query pays one failed attempt plus the
//!   reroute to the second replica — the steady-state cost of routing
//!   *around* a corpse that nobody has removed yet;
//! * **healed** — the corpse removed and the survivor promoted: the
//!   fleet is single-replica but clean, so this should read like
//!   healthy (the reroute tax is gone);
//! * **degraded** — one replica per shard and shard 0's only replica
//!   dead: the group is empty-handed and the receptionist degrades to
//!   partial coverage — the world the elastic layer exists to avoid.
//!
//! ```sh
//! cargo run --release -p teraphim-bench --bin bench_failover \
//!     [-- --small] [--seed N] [--out FILE] [--check]
//! ```
//!
//! `--check` exits nonzero if any cell completed zero queries or if a
//! healed fleet's p50 exceeds 2x the healthy fleet's — the sanity
//! gate, loose enough for any host.

use std::time::Instant;

use teraphim_bench::{corpus_parts, HarnessOptions, TextTable};
use teraphim_core::{CiParams, Librarian, Methodology, Receptionist};
use teraphim_net::tcp::TcpServer;
use teraphim_net::{
    FaultPlan, FaultyTransport, InProcTransport, MuxTransport, ReplicaGroup, Transport,
};
use teraphim_obs::json::push_escaped;
use teraphim_text::sgml::TrecDoc;
use teraphim_text::Analyzer;

const K: usize = 10;
const CI_PARAMS: CiParams = CiParams {
    group_size: 10,
    k_prime: 100,
};

/// The four fleet states measured.
#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    Healthy,
    Failover,
    Healed,
    Degraded,
}

impl State {
    const ALL: [State; 4] = [
        State::Healthy,
        State::Failover,
        State::Healed,
        State::Degraded,
    ];

    fn name(self) -> &'static str {
        match self {
            State::Healthy => "healthy",
            State::Failover => "failover",
            State::Healed => "healed",
            State::Degraded => "degraded",
        }
    }
}

struct Cell {
    completed: usize,
    /// Sorted per-query latencies, microseconds.
    latencies: Vec<u64>,
}

impl Cell {
    fn percentile(&self, p: f64) -> u64 {
        if self.latencies.is_empty() {
            return 0;
        }
        let idx = ((self.latencies.len() - 1) as f64 * p).round() as usize;
        self.latencies[idx]
    }
}

/// Builds one shard's replica group for `state` over transports from
/// `make` (`make(shard, replica, dead)`). Replica ids follow the fleet
/// convention: primary of shard `s` is id `s`, seconds are `n + s`.
fn build_group<T: Transport>(
    state: State,
    shard: usize,
    n: usize,
    make: &mut dyn FnMut(usize, usize, bool) -> T,
) -> ReplicaGroup<T> {
    let primary_dead = shard == 0 && matches!(state, State::Failover | State::Degraded);
    let mut members = vec![(shard as u32, make(shard, 0, primary_dead))];
    if state != State::Degraded {
        members.push(((n + shard) as u32, make(shard, 1, false)));
    }
    let group = ReplicaGroup::new(shard as u32, members);
    if state == State::Healed {
        // The operator's failover cleanup: corpse out, survivor first.
        assert!(group.promote((n + shard) as u32));
        assert!(group.remove_replica(shard as u32));
    }
    group
}

fn measure<T: Transport>(
    state: State,
    methodology: Methodology,
    groups: Vec<ReplicaGroup<T>>,
    queries: &[String],
    rounds: usize,
) -> Cell {
    let mut r = Receptionist::new(groups, Analyzer::default());
    match methodology {
        Methodology::CentralNothing => {}
        Methodology::CentralVocabulary => r.enable_cv().expect("CV preprocessing"),
        Methodology::CentralIndex => r.enable_ci(CI_PARAMS).expect("CI preprocessing"),
    }
    let mut latencies = Vec::with_capacity(queries.len() * rounds);
    // Round 0 is warmup (cold caches, lazy allocations) and is not
    // recorded; the table reports steady state.
    for round in 0..=rounds {
        for query in queries {
            let start = Instant::now();
            let outcome = r.query_with_coverage(methodology, query, K);
            let micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
            match (state, outcome) {
                // Degraded CI fan-outs whose only candidates lived on
                // the dead shard legitimately fail coverage; every
                // other combination must answer.
                (State::Degraded, Err(_)) if methodology == Methodology::CentralIndex => {}
                (State::Degraded, Ok(o)) => {
                    assert!(o.coverage.failed == vec![0] || o.coverage.failed.is_empty());
                    if round > 0 {
                        latencies.push(micros);
                    }
                }
                (_, Ok(o)) => {
                    assert!(
                        o.coverage.failed.is_empty(),
                        "{}: replica must absorb the fault",
                        state.name()
                    );
                    if round > 0 {
                        latencies.push(micros);
                    }
                }
                (_, Err(e)) => panic!("{} {query:?}: {e}", state.name()),
            }
        }
    }
    latencies.sort_unstable();
    Cell {
        completed: latencies.len(),
        latencies,
    }
}

/// The dead replica's fault plan: it answers its one preprocessing
/// exchange (CV's stats poll / CI's index upload) and fails forever
/// after — the "primary died after enable" scenario, and the only one
/// where the degraded single-replica fleet can preprocess at all.
fn dead_plan(methodology: Methodology) -> FaultPlan {
    FaultPlan::new().fail_from(match methodology {
        Methodology::CentralNothing => 0,
        _ => 1,
    })
}

fn inproc_cell(
    state: State,
    methodology: Methodology,
    parts: &[(&str, &[TrecDoc])],
    queries: &[String],
    rounds: usize,
) -> Cell {
    let n = parts.len();
    let mut make = |shard: usize, _replica: usize, dead: bool| {
        let plan = if dead {
            dead_plan(methodology)
        } else {
            FaultPlan::new()
        };
        FaultyTransport::new(
            InProcTransport::new(Librarian::build(
                parts[shard].0,
                Analyzer::default(),
                parts[shard].1,
            )),
            plan,
        )
    };
    let groups = (0..n)
        .map(|s| build_group(state, s, n, &mut make))
        .collect();
    measure(state, methodology, groups, queries, rounds)
}

fn tcp_cell(
    state: State,
    methodology: Methodology,
    parts: &[(&str, &[TrecDoc])],
    queries: &[String],
    rounds: usize,
) -> Cell {
    let n = parts.len();
    let mut servers = Vec::new();
    // A dead replica is refused at the client, like its in-process twin.
    let mut make = |shard: usize, _replica: usize, dead: bool| {
        let plan = if dead {
            dead_plan(methodology)
        } else {
            FaultPlan::new()
        };
        let librarian = Librarian::build(parts[shard].0, Analyzer::default(), parts[shard].1);
        let server = TcpServer::spawn(librarian, "127.0.0.1:0").expect("loopback server");
        let transport = MuxTransport::connect(server.addr()).expect("loopback connect");
        servers.push(server);
        FaultyTransport::new(transport, plan)
    };
    let groups = (0..n)
        .map(|s| build_group(state, s, n, &mut make))
        .collect();
    measure(state, methodology, groups, queries, rounds)
}

fn main() {
    let opts = HarnessOptions::from_args();
    let out_path = opts
        .rest
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| opts.rest.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_failover.json".to_owned());
    let check = opts.has_flag("--check");
    let rounds = if opts.small { 4 } else { 8 };

    let corpus = opts.corpus();
    let parts = corpus_parts(&corpus);
    let queries: Vec<String> = corpus
        .long_queries()
        .iter()
        .chain(corpus.short_queries())
        .map(|q| q.text.clone())
        .collect();

    println!(
        "Failover latency — {} corpus, seed {}, k = {K}, {} shards x 2 replicas, {} queries x {rounds} rounds\n",
        if opts.small { "small" } else { "trec-like" },
        opts.seed,
        parts.len(),
        queries.len()
    );

    let mut table = TextTable::new([
        "Driver",
        "Mode",
        "State",
        "queries",
        "p50 us",
        "p99 us",
        "vs healthy",
    ]);
    let mut json_rows = Vec::new();
    let mut failures = Vec::new();
    for methodology in [
        Methodology::CentralNothing,
        Methodology::CentralVocabulary,
        Methodology::CentralIndex,
    ] {
        let mode = match methodology {
            Methodology::CentralNothing => "CN",
            Methodology::CentralVocabulary => "CV",
            Methodology::CentralIndex => "CI",
        };
        for driver in ["inproc", "tcp"] {
            let mut healthy_p50 = 0u64;
            let mut by_state: Vec<(State, Cell)> = Vec::new();
            for state in State::ALL {
                let cell = if driver == "inproc" {
                    inproc_cell(state, methodology, &parts, &queries, rounds)
                } else {
                    tcp_cell(state, methodology, &parts, &queries, rounds)
                };
                if state == State::Healthy {
                    healthy_p50 = cell.percentile(0.5);
                }
                by_state.push((state, cell));
            }
            for (state, cell) in &by_state {
                let p50 = cell.percentile(0.5);
                let p99 = cell.percentile(0.99);
                let ratio = if healthy_p50 > 0 {
                    p50 as f64 / healthy_p50 as f64
                } else {
                    0.0
                };
                table.row([
                    driver.to_owned(),
                    mode.to_owned(),
                    state.name().to_owned(),
                    cell.completed.to_string(),
                    p50.to_string(),
                    p99.to_string(),
                    format!("{ratio:.2}x"),
                ]);
                let mut row = String::from("    {");
                for (key, value) in [("driver", driver), ("mode", mode), ("state", state.name())] {
                    push_escaped(&mut row, key);
                    row.push_str(": ");
                    push_escaped(&mut row, value);
                    row.push_str(", ");
                }
                row.push_str(&format!(
                    "\"completed\": {}, \"p50_us\": {p50}, \"p99_us\": {p99}}}",
                    cell.completed
                ));
                json_rows.push(row);
                if check && cell.completed == 0 {
                    failures.push(format!("{driver}/{mode}/{}: zero queries", state.name()));
                }
            }
            if check {
                // The reroute itself costs microseconds, so comparing
                // failover against healed is under the noise floor on a
                // busy host. The robust invariant: a healed fleet reads
                // like a healthy one (no lingering failover tax).
                let p50_of = |want: State| {
                    by_state
                        .iter()
                        .find(|(s, _)| *s == want)
                        .map_or(0, |(_, c)| c.percentile(0.5))
                };
                if p50_of(State::Healed) > p50_of(State::Healthy) * 2 {
                    failures.push(format!(
                        "{driver}/{mode}: healed p50 {} is over 2x healthy p50 {}",
                        p50_of(State::Healed),
                        p50_of(State::Healthy)
                    ));
                }
            }
        }
    }

    println!("{}", table.render());

    let json = format!(
        "{{\n  \"bench\": \"failover\",\n  \"corpus\": \"{}\",\n  \"seed\": {},\n  \"k\": {K},\n  \"rounds\": {rounds},\n  \"cells\": [\n{}\n  ]\n}}\n",
        if opts.small { "small" } else { "trec-like" },
        opts.seed,
        json_rows.join(",\n")
    );
    std::fs::write(&out_path, json).expect("write bench json");
    println!("wrote {out_path}");

    if check && !failures.is_empty() {
        for failure in &failures {
            eprintln!("CHECK FAILED: {failure}");
        }
        std::process::exit(1);
    }
}
