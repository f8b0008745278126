//! Serving-core load benchmark: closed-loop and open-loop load
//! generation against a real TCP fleet, writing `BENCH_load.json` — the
//! latency/throughput trajectory future PRs regress against.
//!
//! Two serving paths are compared per methodology (MS/CN/CV/CI), both
//! under the default dispatch — over multiplexed handles every fan-out
//! is issued and collected on the calling thread, no spawns:
//!
//! * **baseline** — one unforked receptionist with a connection of its
//!   own to each librarian, one query at a time (a single-user
//!   deployment): each query waits out its slowest librarian while the
//!   rest of the fleet idles;
//! * **multiplexed** — a [`ServePool`] of forked sessions over shared
//!   [`MuxPool`]s: hundreds of in-flight queries pipeline onto a
//!   handful of persistent connections, served by the bounded worker
//!   pool in [`TcpServer`], so one query's wait is another's service.
//!
//! The closed-loop sweep drives N workers back-to-back at each
//! concurrency level (throughput under saturation); the open-loop
//! sweep paces arrivals at fixed offered rates against the pool's
//! admission control, counting shed queries and measuring latency from
//! the *scheduled* arrival instant so queueing delay past the knee is
//! visible (no coordinated omission).
//!
//! ```sh
//! cargo run --release -p teraphim-bench --bin bench_load \
//!     [-- --small] [--seed N] [--out FILE] [--check] [--min-speedup X]
//! ```
//!
//! `--check` exits nonzero if any cell recorded zero completed queries,
//! if accounting disagrees between the client pools and the servers, or
//! if the multiplexed path's throughput at the highest concurrency is
//! below `--min-speedup` (default 1.2) times the baseline's — the CI
//! regression gate. The committed `BENCH_load.json` records the full
//! sweep on the reference machine.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use teraphim_bench::{corpus_parts, HarnessOptions, TextTable};
use teraphim_core::{CiParams, Librarian, Methodology, Receptionist, ServePool};
use teraphim_net::mux::{MuxPool, MuxTransport};
use teraphim_net::tcp::{ServerOptions, TcpServer};
use teraphim_net::TcpOptions;
use teraphim_text::sgml::TrecDoc;
use teraphim_text::Analyzer;

/// Fleet shape shared by every mode.
const SERVER_WORKERS: usize = 2;
const SERVER_QUEUE_DEPTH: usize = 512;
const MUX_CONNECTIONS: usize = 2;
const CONCURRENCY_SWEEP: [usize; 4] = [1, 16, 64, 256];
/// Offered rates as fractions of the measured closed-loop throughput
/// at the second-highest concurrency — the last point sits past the
/// knee so the open-loop table shows saturation.
const OFFERED_FRACTIONS: [f64; 4] = [0.3, 0.6, 0.9, 1.2];
const K: usize = 10;

struct Sizing {
    baseline_queries: usize,
    closed_queries: usize,
    open_seconds: f64,
}

impl Sizing {
    fn for_opts(opts: &HarnessOptions) -> Sizing {
        if opts.small {
            Sizing {
                baseline_queries: 200,
                closed_queries: 400,
                open_seconds: 1.0,
            }
        } else {
            Sizing {
                baseline_queries: 400,
                closed_queries: 1200,
                open_seconds: 2.0,
            }
        }
    }
}

#[derive(Clone, Default)]
struct Cell {
    completed: usize,
    elapsed: Duration,
    /// Sorted latencies in microseconds.
    latencies: Vec<u64>,
}

impl Cell {
    fn throughput(&self) -> f64 {
        if self.elapsed.as_secs_f64() > 0.0 {
            self.completed as f64 / self.elapsed.as_secs_f64()
        } else {
            0.0
        }
    }

    fn percentile(&self, p: f64) -> u64 {
        if self.latencies.is_empty() {
            return 0;
        }
        let idx = ((self.latencies.len() - 1) as f64 * p).round() as usize;
        self.latencies[idx]
    }
}

struct OpenCell {
    offered_qps: f64,
    shed: usize,
    cell: Cell,
}

struct ModeReport {
    code: &'static str,
    librarians: usize,
    baseline: Cell,
    closed: Vec<(usize, Cell)>,
    open: Vec<OpenCell>,
    client_round_trips: u64,
    server_round_trips: u64,
}

impl ModeReport {
    /// Throughput ratio at the highest concurrency level.
    fn speedup_top(&self) -> f64 {
        let base = self.baseline.throughput();
        let top = self
            .closed
            .last()
            .map(|(_, c)| c.throughput())
            .unwrap_or(0.0);
        if base > 0.0 {
            top / base
        } else {
            0.0
        }
    }

    /// Throughput ratio at the best closed-loop cell. The `--check`
    /// gate uses this: on a heavily shared single-CPU host any one
    /// cell's throughput jitters with scheduler noise, and a regression
    /// gate keyed to one cell would flake; a real serving-core
    /// regression depresses every cell, including the peak.
    fn speedup_peak(&self) -> f64 {
        let base = self.baseline.throughput();
        let peak = self
            .closed
            .iter()
            .map(|(_, c)| c.throughput())
            .fold(0.0f64, f64::max);
        if base > 0.0 {
            peak / base
        } else {
            0.0
        }
    }
}

/// Spins one TCP server per subcollection and returns them: each shard
/// is indexed once and every worker ranks against that one copy.
fn spawn_fleet(parts: &[(&str, &[TrecDoc])]) -> Vec<TcpServer> {
    parts
        .iter()
        .map(|(name, docs)| {
            let librarian = Librarian::build(name, Analyzer::default(), docs);
            TcpServer::spawn_with(
                (0..SERVER_WORKERS).map(|_| librarian.share()).collect(),
                "127.0.0.1:0",
                ServerOptions {
                    workers: SERVER_WORKERS,
                    queue_depth: SERVER_QUEUE_DEPTH,
                },
            )
            .expect("bind load-bench server")
        })
        .collect()
}

fn preprocess(receptionist: &mut Receptionist<MuxTransport>, methodology: Methodology) {
    match methodology {
        Methodology::CentralNothing => {}
        Methodology::CentralVocabulary => {
            receptionist.enable_cv().expect("CV preprocessing");
        }
        Methodology::CentralIndex => receptionist
            .enable_ci(CiParams {
                group_size: 10,
                k_prime: 100,
            })
            .expect("CI preprocessing"),
    }
}

/// One query at a time through the unforked receptionist.
fn run_baseline(
    receptionist: &mut Receptionist<MuxTransport>,
    methodology: Methodology,
    queries: &[String],
    n: usize,
) -> Cell {
    // Unmeasured warmup: connections, page cache and allocator reach
    // steady state before the clock starts, as in the closed loop.
    for i in 0..20 {
        receptionist
            .query(methodology, &queries[i % queries.len()], K)
            .expect("baseline warmup");
    }
    let mut latencies = Vec::with_capacity(n);
    let start = Instant::now();
    for i in 0..n {
        let text = &queries[i % queries.len()];
        let t0 = Instant::now();
        receptionist
            .query(methodology, text, K)
            .expect("baseline query");
        latencies.push(t0.elapsed().as_micros() as u64);
    }
    let elapsed = start.elapsed();
    latencies.sort_unstable();
    Cell {
        completed: n,
        elapsed,
        latencies,
    }
}

/// `concurrency` workers pull sessions and issue queries back-to-back
/// until `total` queries complete. Workers spawn, run one unmeasured
/// warmup query each, and rendezvous on a barrier before the clock
/// starts, so the cell measures steady state rather than thread
/// creation (at 256 workers on a small cell, spawn cost would otherwise
/// dominate).
fn run_closed_loop(
    pool: &ServePool<MuxTransport>,
    methodology: Methodology,
    queries: &[String],
    concurrency: usize,
    base_total: usize,
) -> Cell {
    let total = base_total.max(concurrency * 20);
    let issued = AtomicUsize::new(0);
    // Workers + the coordinating thread, which owns the clock.
    let barrier = std::sync::Barrier::new(concurrency + 1);
    let (elapsed, latencies) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..concurrency)
            .map(|w| {
                let issued = &issued;
                let barrier = &barrier;
                let pool = pool.clone();
                scope.spawn(move || {
                    {
                        let mut session = pool.session();
                        session
                            .query(methodology, &queries[w % queries.len()], K)
                            .expect("warmup query");
                    }
                    barrier.wait();
                    let mut local = Vec::new();
                    loop {
                        let i = issued.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        let text = &queries[i % queries.len()];
                        let mut session = pool.session();
                        let t0 = Instant::now();
                        session
                            .query(methodology, text, K)
                            .expect("closed-loop query");
                        local.push(t0.elapsed().as_micros() as u64);
                    }
                    local
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let mut all = Vec::with_capacity(total);
        for h in handles {
            all.extend(h.join().expect("closed-loop worker"));
        }
        (start.elapsed(), all)
    });
    let mut latencies = latencies;
    latencies.sort_unstable();
    Cell {
        completed: latencies.len(),
        elapsed,
        latencies,
    }
}

struct OpenJob {
    scheduled: Instant,
    query_index: usize,
}

/// Shared work queue for the open-loop workers. A `Mutex<Receiver>`
/// would serialize the pool — the lock holder blocks inside `recv`
/// while every other worker waits on the mutex — so jobs go through a
/// deque the workers pop with the lock held only momentarily.
/// A job plus the session (already checked out of the `ServePool` by
/// the submitter) that will run it.
type QueuedJob = (OpenJob, teraphim_core::QuerySession<MuxTransport>);

struct OpenQueue {
    /// The pending jobs and a "closed" flag set once the generator ends.
    state: Mutex<(std::collections::VecDeque<QueuedJob>, bool)>,
    ready: std::sync::Condvar,
}

impl OpenQueue {
    fn new() -> Self {
        OpenQueue {
            state: Mutex::new((std::collections::VecDeque::new(), false)),
            ready: std::sync::Condvar::new(),
        }
    }

    fn push(&self, job: OpenJob, session: teraphim_core::QuerySession<MuxTransport>) {
        self.state.lock().unwrap().0.push_back((job, session));
        self.ready.notify_one();
    }

    fn close(&self) {
        self.state.lock().unwrap().1 = true;
        self.ready.notify_all();
    }

    fn pop(&self) -> Option<QueuedJob> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(entry) = state.0.pop_front() {
                return Some(entry);
            }
            if state.1 {
                return None;
            }
            state = self.ready.wait(state).unwrap();
        }
    }
}

/// Paced arrivals at `offered_qps`; admission via `try_session` (a
/// saturated pool sheds instead of queueing). Latency is measured from
/// the scheduled arrival instant.
fn run_open_loop(
    pool: &ServePool<MuxTransport>,
    methodology: Methodology,
    queries: &[String],
    offered_qps: f64,
    seconds: f64,
) -> OpenCell {
    let total = (offered_qps * seconds).ceil() as usize;
    let interval = Duration::from_secs_f64(1.0 / offered_qps);
    let queue = OpenQueue::new();
    let shed = AtomicUsize::new(0);

    let start = Instant::now();
    let (latencies, shed) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..pool.capacity().min(total.max(1)))
            .map(|_| {
                let queue = &queue;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    while let Some((job, mut session)) = queue.pop() {
                        let text = &queries[job.query_index % queries.len()];
                        session
                            .query(methodology, text, K)
                            .expect("open-loop query");
                        local.push(job.scheduled.elapsed().as_micros() as u64);
                    }
                    local
                })
            })
            .collect();

        for i in 0..total {
            let scheduled = start + interval.mul_f64(i as f64);
            let now = Instant::now();
            if scheduled > now {
                std::thread::sleep(scheduled - now);
            }
            match pool.try_session() {
                Some(session) => queue.push(
                    OpenJob {
                        scheduled,
                        query_index: i,
                    },
                    session,
                ),
                None => {
                    shed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        queue.close();
        let mut all = Vec::new();
        for w in workers {
            all.extend(w.join().expect("open-loop worker"));
        }
        (all, shed.load(Ordering::Relaxed))
    });
    let elapsed = start.elapsed();
    let mut latencies = latencies;
    latencies.sort_unstable();
    OpenCell {
        offered_qps,
        shed,
        cell: Cell {
            completed: latencies.len(),
            elapsed,
            latencies,
        },
    }
}

fn run_mode(
    code: &'static str,
    methodology: Methodology,
    parts: &[(&str, &[TrecDoc])],
    queries: &[String],
    sizing: &Sizing,
) -> ModeReport {
    let servers = spawn_fleet(parts);

    // Baseline: one receptionist on its own connections, one query at
    // a time. CV/CI preprocessing runs on this receptionist; the forked
    // sessions below share its global state by construction.
    let baseline_transports: Vec<MuxTransport> = servers
        .iter()
        .map(|s| MuxTransport::connect(s.addr()).expect("baseline connect"))
        .collect();
    let mut prototype = Receptionist::new(baseline_transports, Analyzer::default());
    preprocess(&mut prototype, methodology);
    let baseline = run_baseline(
        &mut prototype,
        methodology,
        queries,
        sizing.baseline_queries,
    );

    // Multiplexed: a few persistent connections per librarian, shared
    // by every session; sessions pipeline their fan-out.
    let pools: Vec<Arc<MuxPool>> = servers
        .iter()
        .map(|s| {
            MuxPool::connect(s.addr(), MUX_CONNECTIONS, TcpOptions::default()).expect("mux connect")
        })
        .collect();
    let capacity = *CONCURRENCY_SWEEP.iter().max().unwrap();
    let sessions: Vec<Receptionist<MuxTransport>> = (0..capacity)
        .map(|_| {
            let transports = pools
                .iter()
                .map(|p| MuxTransport::new(Arc::clone(p)))
                .collect();
            prototype.fork(transports)
        })
        .collect();
    let pool = ServePool::new(sessions);

    let closed: Vec<(usize, Cell)> = CONCURRENCY_SWEEP
        .iter()
        .map(|&c| {
            (
                c,
                run_closed_loop(&pool, methodology, queries, c, sizing.closed_queries),
            )
        })
        .collect();

    // Anchor offered rates to the measured knee region.
    let anchor = closed[CONCURRENCY_SWEEP.len() - 2].1.throughput().max(1.0);
    let open: Vec<OpenCell> = OFFERED_FRACTIONS
        .iter()
        .map(|f| run_open_loop(&pool, methodology, queries, anchor * f, sizing.open_seconds))
        .collect();

    let client_round_trips = pools.iter().map(|p| p.traffic().round_trips).sum::<u64>()
        + prototype.traffic().round_trips;
    let server_round_trips = servers.iter().map(|s| s.traffic().round_trips).sum();
    for server in servers {
        server.shutdown();
    }
    ModeReport {
        code,
        librarians: parts.len(),
        baseline,
        closed,
        open,
        client_round_trips,
        server_round_trips,
    }
}

fn push_latency_json(out: &mut String, cell: &Cell) {
    out.push_str(&format!(
        "{{\"p50\": {}, \"p95\": {}, \"p99\": {}}}",
        cell.percentile(0.50),
        cell.percentile(0.95),
        cell.percentile(0.99)
    ));
}

fn render_json(opts: &HarnessOptions, n_queries: usize, modes: &[ModeReport]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"corpus\": \"{}\",\n  \"seed\": {},\n  \"distinct_queries\": {n_queries},\n  \"k\": {K},\n",
        if opts.small { "small" } else { "trec-like" },
        opts.seed
    ));
    out.push_str(&format!(
        "  \"fleet\": {{\"server_workers\": {SERVER_WORKERS}, \"queue_depth\": {SERVER_QUEUE_DEPTH}, \"mux_connections\": {MUX_CONNECTIONS}}},\n"
    ));
    out.push_str("  \"methodologies\": [\n");
    for (i, mode) in modes.iter().enumerate() {
        out.push_str(&format!(
            "    {{\n      \"code\": \"{}\",\n      \"librarians\": {},\n",
            mode.code, mode.librarians
        ));
        out.push_str(&format!(
            "      \"baseline\": {{\"queries\": {}, \"throughput_qps\": {:.1}, \"latency_micros\": ",
            mode.baseline.completed,
            mode.baseline.throughput()
        ));
        push_latency_json(&mut out, &mode.baseline);
        out.push_str("},\n      \"closed_loop\": [\n");
        for (j, (c, cell)) in mode.closed.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"concurrency\": {c}, \"queries\": {}, \"throughput_qps\": {:.1}, \"latency_micros\": ",
                cell.completed,
                cell.throughput()
            ));
            push_latency_json(&mut out, cell);
            out.push_str(if j + 1 == mode.closed.len() {
                "}\n"
            } else {
                "},\n"
            });
        }
        out.push_str("      ],\n      \"open_loop\": [\n");
        for (j, o) in mode.open.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"offered_qps\": {:.1}, \"completed\": {}, \"shed\": {}, \"achieved_qps\": {:.1}, \"latency_micros\": ",
                o.offered_qps,
                o.cell.completed,
                o.shed,
                o.cell.throughput()
            ));
            push_latency_json(&mut out, &o.cell);
            out.push_str(if j + 1 == mode.open.len() {
                "}\n"
            } else {
                "},\n"
            });
        }
        out.push_str(&format!(
            "      ],\n      \"speedup_at_{}\": {:.2},\n      \"speedup_peak\": {:.2}\n",
            CONCURRENCY_SWEEP[CONCURRENCY_SWEEP.len() - 1],
            mode.speedup_top(),
            mode.speedup_peak()
        ));
        out.push_str(if i + 1 == modes.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// The `--check` gate: every cell completed work, client and server
/// accounting agree, and the multiplexed path beats the baseline by at
/// least `min_speedup` at its best closed-loop cell.
fn check(modes: &[ModeReport], min_speedup: f64) -> Result<(), String> {
    for mode in modes {
        let code = mode.code;
        if mode.baseline.completed == 0 {
            return Err(format!("{code}: baseline completed zero queries"));
        }
        for (c, cell) in &mode.closed {
            if cell.completed == 0 {
                return Err(format!("{code}: closed loop at {c} completed zero queries"));
            }
            if cell.percentile(0.99) == 0 {
                return Err(format!(
                    "{code}: closed loop at {c} recorded zero latencies"
                ));
            }
        }
        if mode.open.iter().all(|o| o.cell.completed == 0) {
            return Err(format!("{code}: open loop completed zero queries"));
        }
        // Every exchange the clients counted must have been counted by
        // a server — the pipelined path may not lose or invent work.
        if mode.client_round_trips != mode.server_round_trips {
            return Err(format!(
                "{code}: client round trips {} != server round trips {}",
                mode.client_round_trips, mode.server_round_trips
            ));
        }
        // The speedup floor applies to the multi-librarian modes: the
        // multiplexed core's win is keeping every librarian busy with
        // some session's subquery while another session waits on its
        // slowest one, and a single-librarian mono-server (MS) has no
        // such idle fleet to fill.
        if mode.librarians < 2 {
            continue;
        }
        let speedup = mode.speedup_peak();
        if speedup < min_speedup {
            return Err(format!(
                "{code}: multiplexed peak speedup {speedup:.2}x below the {min_speedup:.2}x \
                 floor (baseline {:.1} qps, best cell {:.1} qps)",
                mode.baseline.throughput(),
                mode.closed
                    .iter()
                    .map(|(_, c)| c.throughput())
                    .fold(0.0f64, f64::max)
            ));
        }
    }
    Ok(())
}

fn arg_value(rest: &[String], name: &str) -> Option<String> {
    rest.iter()
        .position(|a| a == name)
        .and_then(|i| rest.get(i + 1).cloned())
}

fn main() {
    let opts = HarnessOptions::from_args();
    let out_path = arg_value(&opts.rest, "--out").unwrap_or_else(|| "BENCH_load.json".to_owned());
    let min_speedup: f64 = arg_value(&opts.rest, "--min-speedup")
        .map(|v| v.parse().expect("--min-speedup requires a number"))
        // The default floor is set for a single-CPU worst case: with no
        // parallelism available, the multiplexed core's entire win is
        // per-query overhead it no longer pays (fan-out thread spawns),
        // measured at 1.4-1.7x here. On multi-core
        // hardware pipelining overlaps librarian evaluation and the
        // ratio grows with cores; raise the floor accordingly when
        // regenerating the committed trajectory on such a machine.
        .unwrap_or(1.2);
    let sizing = Sizing::for_opts(&opts);

    let corpus = opts.corpus();
    let parts = corpus_parts(&corpus);
    let queries: Vec<String> = corpus
        .long_queries()
        .iter()
        .chain(corpus.short_queries())
        .map(|q| q.text.clone())
        .collect();

    let merged: Vec<TrecDoc> = parts
        .iter()
        .flat_map(|(_, docs)| docs.iter().cloned())
        .collect();
    let ms_parts: Vec<(&str, &[TrecDoc])> = vec![("MS", merged.as_slice())];

    println!(
        "Serving-core load sweep — {} corpus, seed {}, k = {K}, {} librarians, concurrency {:?}\n",
        if opts.small { "small" } else { "trec-like" },
        opts.seed,
        parts.len(),
        CONCURRENCY_SWEEP
    );

    let modes = vec![
        run_mode(
            "MS",
            Methodology::CentralNothing,
            &ms_parts,
            &queries,
            &sizing,
        ),
        run_mode("CN", Methodology::CentralNothing, &parts, &queries, &sizing),
        run_mode(
            "CV",
            Methodology::CentralVocabulary,
            &parts,
            &queries,
            &sizing,
        ),
        run_mode("CI", Methodology::CentralIndex, &parts, &queries, &sizing),
    ];

    let mut table = TextTable::new([
        "Mode",
        "base qps",
        "base p99(us)",
        "mux@256 qps",
        "mux@256 p99(us)",
        "speedup@256",
        "peak",
    ]);
    for mode in &modes {
        let top = &mode.closed[mode.closed.len() - 1].1;
        table.row([
            mode.code.to_string(),
            format!("{:.0}", mode.baseline.throughput()),
            mode.baseline.percentile(0.99).to_string(),
            format!("{:.0}", top.throughput()),
            top.percentile(0.99).to_string(),
            format!("{:.2}x", mode.speedup_top()),
            format!("{:.2}x", mode.speedup_peak()),
        ]);
    }
    println!("{}", table.render());

    let json = render_json(&opts, queries.len(), &modes);
    std::fs::write(&out_path, &json).expect("write report");
    println!("wrote {out_path}");

    if opts.has_flag("--check") {
        if let Err(e) = check(&modes, min_speedup) {
            eprintln!("check failed: {e}");
            std::process::exit(1);
        }
        println!(
            "check passed: all cells completed, accounting agrees, speedup >= {min_speedup:.2}x"
        );
    }
}
