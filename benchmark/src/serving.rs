//! The three serving workloads: set-up, the single-client replay that
//! yields the exact metrics, and the timed closed or open loop.
//!
//! Order of one untraced run: set the fleet up `SETUP_REPS` times
//! (keeping the last), build the monolithic oracle and drop the raw
//! corpus, replay the first operations of the seeded sequence on one
//! client (warm-up, reference replies, `wire_bytes_per_query`,
//! `p_at_20`, `ms_overlap_at_20`), then offer load for `--seconds`, cut
//! into one-second windows with a probe (a cold attach, a small index
//! build) after each. Every set-up and every window with its probe lies
//! between two reference samples ([`crate::hostspeed`]) and its
//! durations are stated in seconds of the nominal host: the sandbox's
//! cores slow down by a quarter for seconds to minutes at a time, and
//! samples taken in a row all see the same stretch.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

use teraphim_core::{CacheStats, GlobalHit, Librarian, QuerySession, ServePool};
use teraphim_net::{TrafficStats, Transport};
use teraphim_text::sgml::TrecDoc;
use teraphim_text::Analyzer;

use crate::catalog::{self, frozen};
use crate::checks::{check_fetch, check_hits};
use crate::env;
use crate::fleet::{attach, Fleet, FleetShape, FleetTimings, Instrument, Plain};
use crate::hostspeed;
use crate::openloop::{self, Step};
use crate::report::RunResult;
use crate::spans::Recorder;
use crate::stats::{median, tail};
use crate::workload::{generate, Loop, Plan, Truth};
use crate::RunOptions;

/// A fleet ready for load, with what its set-ups cost.
pub struct Prepared<I: Instrument> {
    pub plan: Plan,
    pub truth: Truth,
    pub fleet: Fleet<I>,
    pub setup: SetupReport,
    /// The documents a probe builds a librarian from.
    pub probe_docs: Vec<TrecDoc>,
}

/// One value per set-up repetition.
#[derive(Debug, Clone, Default)]
pub struct SetupReport {
    /// In seconds of the nominal host; the rest is as the clock read.
    pub setup_s: Vec<f64>,
    pub generate_s: Vec<f64>,
    pub build_docs_per_s: Vec<f64>,
    pub last: FleetTimings,
    pub stored_bytes: u64,
}

/// Sets the fleet up `reps` times and keeps the last one. `setup_s` is
/// corpus generation plus every stage of [`Fleet::start`], scaled by
/// the host's speed over the reference samples taken before the first
/// set-up and after each: one factor for all of them, because two
/// samples are a noisy measure of a two-second stretch and the median
/// of three set-ups does not average that away.
pub fn prepare<I: Instrument>(
    make: impl Fn(usize) -> I,
    workload: &str,
    seed: u64,
    smoke: bool,
    reps: usize,
) -> (I, Prepared<I>) {
    let mut setup = SetupReport::default();
    let mut kept = None;
    let mut host = vec![hostspeed::settled()];
    for rep in 0..reps.max(1) {
        let last = rep + 1 == reps.max(1);
        let started = Instant::now();
        let corpus = generate(smoke);
        let plan = Plan::serving(workload, seed, &corpus).expect("a serving workload");
        let parts = plan.parts(&corpus);
        let generate_s = started.elapsed().as_secs_f64();
        let instrument = make(plan.shards);
        let fleet = Fleet::start(&instrument, &parts, shape_of(&plan), last);
        host.push(hostspeed::sample());
        setup.generate_s.push(generate_s);
        setup.setup_s.push(generate_s + fleet.timings.total_s());
        setup
            .build_docs_per_s
            .push(fleet.docs as f64 / fleet.timings.build_s.max(1e-9));
        if last {
            setup.last = fleet.timings;
            setup.stored_bytes = fleet.stored_bytes.unwrap_or(0);
            let truth = Truth::build(&corpus, &parts, &plan.distinct);
            let probe_docs = parts
                .iter()
                .flat_map(|p| &p.docs)
                .take(frozen::PROBE_BUILD_DOCS)
                .cloned()
                .collect();
            kept = Some((instrument, plan, truth, fleet, probe_docs));
        }
    }
    let (instrument, plan, truth, fleet, probe_docs) = kept.expect("at least one set-up");
    let host = host.iter().sum::<f64>() / host.len() as f64;
    for s in &mut setup.setup_s {
        *s *= host;
    }
    (
        instrument,
        Prepared {
            plan,
            truth,
            fleet,
            setup,
            probe_docs,
        },
    )
}

fn shape_of(plan: &Plan) -> FleetShape {
    FleetShape {
        methodology: plan.methodology,
        sessions: env::nproc(),
        cache: plan.cache,
    }
}

/// What the probes between load windows measured, one value each, and
/// the host's speed over each window and its probe.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    pub cold_open_s: Vec<f64>,
    pub build_docs_per_s: Vec<f64>,
    pub host: Vec<f64>,
    /// The sample that opened the stretch now running.
    opened: f64,
}

impl Probes {
    /// Closes the stretch that began at the last reference sample: the
    /// window just offered and the probe values from `from` on. Takes
    /// the next sample and states all of them in the nominal host's
    /// seconds. That sample opens the next stretch, unless it finds the
    /// host starved: then the next stretch waits.
    fn close_stretch(&mut self, window: &mut Window, from: (usize, usize)) {
        let after = hostspeed::sample();
        let host = hostspeed::between(self.opened, after);
        self.host.push(host);
        self.opened = if after < frozen::HOST_FLOOR {
            hostspeed::settled()
        } else {
            after
        };
        window.restate(host);
        for s in &mut self.cold_open_s[from.0..] {
            *s *= host;
        }
        for rate in &mut self.build_docs_per_s[from.1..] {
            *rate /= host;
        }
    }
}

/// One probe. A new receptionist attaches to the running servers
/// (connect, preprocess, fork) and answers its first query: a sample of
/// `cold_open_s`. A librarian is built from the probe documents: a
/// sample of `ingest_docs_per_s`. Both are short events, so a probe
/// takes a few samples of each and there is a probe after every load
/// window rather than one long row of samples at the start.
fn probe(prepared: &Prepared<Plain>, into: &mut Probes) {
    let Prepared {
        plan,
        fleet,
        probe_docs,
        ..
    } = prepared;
    for _ in 0..frozen::PROBE_ATTACHES {
        let started = Instant::now();
        let attached = attach(
            &Plain,
            &fleet.addrs,
            shape_of(plan),
            &mut FleetTimings::default(),
        );
        attached
            .pool
            .session()
            .query(
                plan.methodology,
                &plan.distinct[plan.query_of(0)].text,
                frozen::K,
            )
            .expect("first query after attaching");
        into.cold_open_s.push(started.elapsed().as_secs_f64());
    }
    for _ in 0..frozen::PROBE_BUILDS {
        let started = Instant::now();
        let built = Librarian::build("PROBE", Analyzer::default(), probe_docs);
        into.build_docs_per_s
            .push(built.num_docs() as f64 / started.elapsed().as_secs_f64().max(1e-9));
    }
}

/// Why an operation did not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum OpError {
    /// The open loop found no idle session and dropped the operation.
    Shed,
    /// A transport error or a reply that failed an output check.
    Failed(String),
}

/// Everything an operation needs besides a session.
pub struct Ctx<'a> {
    pub plan: &'a Plan,
    pub truth: &'a Truth,
    /// First reply seen for each distinct query; with the cache off or
    /// on, every later reply to the same query must equal it.
    reference: Vec<OnceLock<Vec<GlobalHit>>>,
    pub recorder: Option<&'a Recorder>,
    first_error: Mutex<Option<String>>,
}

impl<'a> Ctx<'a> {
    pub fn new(plan: &'a Plan, truth: &'a Truth, recorder: Option<&'a Recorder>) -> Self {
        Ctx {
            plan,
            truth,
            reference: (0..plan.distinct.len()).map(|_| OnceLock::new()).collect(),
            recorder,
            first_error: Mutex::new(None),
        }
    }

    fn span(&self, name: &'static str) -> Option<crate::spans::ClientSpan<'_>> {
        self.recorder.and_then(|r| r.enter(name))
    }

    fn note(&self, op: usize, error: String) {
        let mut first = self.first_error.lock().expect("first-error lock");
        if first.is_none() {
            *first = Some(format!("operation {op}: {error}"));
        }
    }

    pub fn first_error(&self) -> Option<String> {
        self.first_error.lock().expect("first-error lock").clone()
    }

    /// Runs operation `op` on `session`: the query, the output checks,
    /// the comparison with the reference reply, and the fetch of the
    /// top documents where the workload has one.
    pub fn run_on<T: Transport>(
        &self,
        session: &mut QuerySession<T>,
        op: usize,
    ) -> Result<Vec<GlobalHit>, String> {
        let plan = self.plan;
        let q = plan.query_of(op);
        let hits = {
            let _span = self.span("core.query");
            session
                .query(plan.methodology, &plan.distinct[q].text, frozen::K)
                .map_err(|e| e.to_string())?
        };
        check_hits(&hits, frozen::K, plan.shards)?;
        if self.reference[q].get_or_init(|| hits.clone()) != &hits {
            return Err(format!(
                "reply to query {} differs from its first reply",
                plan.distinct[q].id
            ));
        }
        if plan.fetch_top > 0 {
            let top = &hits[..plan.fetch_top.min(hits.len())];
            let bodies = {
                let _span = self.span("core.fetch");
                session.fetch(top, false).map_err(|e| e.to_string())?
            };
            check_fetch(top, &bodies, &self.truth.docnos)?;
        }
        Ok(hits)
    }

    /// Checks a session out (blocking, or shedding when `shed` is set
    /// and none is idle) and runs operation `op` on it.
    pub fn run<T: Transport>(
        &self,
        pool: &ServePool<T>,
        op: usize,
        shed: bool,
    ) -> Result<Vec<GlobalHit>, OpError> {
        if let Some(r) = self.recorder {
            r.next_op();
        }
        let _root = self.span("client.op");
        let session = {
            let _span = self.span("core.session");
            if shed {
                pool.try_session()
            } else {
                Some(pool.session())
            }
        };
        let Some(mut session) = session else {
            self.note(op, "shed: no idle session".to_owned());
            return Err(OpError::Shed);
        };
        self.run_on(&mut session, op).map_err(|e| {
            self.note(op, e.clone());
            OpError::Failed(e)
        })
    }
}

/// Holds every session of the pool at once, so per-session state can be
/// read or reset while nothing is in flight.
pub fn with_all_sessions<T: Transport, R>(
    pool: &ServePool<T>,
    f: impl FnOnce(&mut [QuerySession<T>]) -> R,
) -> R {
    let mut all: Vec<QuerySession<T>> = (0..pool.capacity()).map(|_| pool.session()).collect();
    f(&mut all)
}

pub fn pool_traffic<T: Transport>(pool: &ServePool<T>) -> TrafficStats {
    with_all_sessions(pool, |sessions| {
        let mut total = TrafficStats::default();
        for s in sessions.iter() {
            total.absorb(&s.traffic());
        }
        total
    })
}

/// Cache counters summed over the sessions (each has its own cache).
pub fn pool_cache<T: Transport>(pool: &ServePool<T>) -> Option<CacheStats> {
    with_all_sessions(pool, |sessions| {
        let mut total: Option<CacheStats> = None;
        for s in sessions.iter() {
            if let Some(c) = s.cache_stats() {
                let t = total.get_or_insert_with(CacheStats::default);
                for (into, from) in [
                    (&mut t.results, c.results),
                    (&mut t.terms, c.terms),
                    (&mut t.docs, c.docs),
                ] {
                    into.hits += from.hits;
                    into.misses += from.misses;
                    into.stale += from.stale;
                    into.evictions += from.evictions;
                }
            }
        }
        total
    })
}

/// What the single-client replay measured.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    pub ops: usize,
    pub failed: usize,
    pub wall_s: f64,
    pub traffic: TrafficStats,
    pub precision_sum: f64,
    pub overlap_sum: f64,
    /// Per-operation latency in nanoseconds, in operation order.
    pub latencies_ns: Vec<u64>,
}

impl Replay {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s.max(1e-9)
    }
}

/// Replays operations `0..ops` of the sequence on one client. Counts
/// and bytes here depend only on the seed: one session, one operation
/// at a time, so even cache behaviour repeats.
pub fn replay<T: Transport>(pool: &ServePool<T>, ctx: &Ctx<'_>, ops: usize) -> Replay {
    let before = pool_traffic(pool);
    let mut out = Replay {
        ops,
        ..Replay::default()
    };
    let started = Instant::now();
    for op in 0..ops {
        let t0 = Instant::now();
        match ctx.run(pool, op, false) {
            Ok(hits) => {
                out.latencies_ns.push(nanos(t0.elapsed()));
                let q = ctx.plan.query_of(op);
                let pairs: Vec<(usize, u32)> = hits.iter().map(|h| (h.librarian, h.doc)).collect();
                out.precision_sum += ctx.truth.precision(&ctx.plan.distinct[q], &pairs);
                out.overlap_sum += ctx.truth.overlap(q, &pairs);
            }
            Err(_) => out.failed += 1,
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    let after = pool_traffic(pool);
    out.traffic = TrafficStats {
        round_trips: after.round_trips - before.round_trips,
        bytes_sent: after.bytes_sent - before.bytes_sent,
        bytes_received: after.bytes_received - before.bytes_received,
    };
    out
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One stretch of a load phase.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// The open-loop step it belongs to (0 on a closed loop).
    pub step: usize,
    pub attempted: usize,
    pub failed: usize,
    pub shed: usize,
    /// As the clock read: an open loop's rates are the schedule's.
    pub elapsed_s: f64,
    /// `elapsed_s` in seconds of the nominal host.
    pub nominal_s: f64,
    /// Latencies of successful operations, ascending, in nanoseconds
    /// of the nominal host once [`Window::restate`] has run.
    /// Closed loop: send to reply. Open loop: from due time.
    pub latencies_ns: Vec<u64>,
    /// Open loop only: how late the generator started each operation,
    /// ascending, and the backlog at the window's scheduled end (it is
    /// empty at the start).
    pub lags_ns: Vec<u64>,
    pub backlog_growth: i64,
}

impl Window {
    pub fn completed(&self) -> usize {
        self.attempted - self.failed
    }

    /// States the window's durations in seconds of the nominal host,
    /// given the host's relative speed while it ran.
    pub fn restate(&mut self, host: f64) {
        self.nominal_s = self.elapsed_s * host;
        for ns in self.latencies_ns.iter_mut().chain(&mut self.lags_ns) {
            *ns = (*ns as f64 * host).round() as u64;
        }
    }

    /// Completed operations per nominal second: a closed loop's rate.
    fn qps(&self) -> f64 {
        self.completed() as f64 / self.nominal_s.max(1e-9)
    }

    fn percentile_ms(&self, want: f64) -> f64 {
        tail(&self.latencies_ns, want) as f64 / 1e6
    }

    /// Operations that came back within `limit_ms`.
    fn within(&self, limit_ms: f64) -> usize {
        self.latencies_ns
            .partition_point(|&ns| ns as f64 / 1e6 <= limit_ms)
    }
}

/// What a timed load phase measured: its windows, in order.
#[derive(Debug, Clone, Default)]
pub struct Load {
    pub windows: Vec<Window>,
    /// Offered rate of each step (open loop only).
    pub rates: Vec<f64>,
}

impl Load {
    pub fn attempted(&self) -> usize {
        self.windows.iter().map(|w| w.attempted).sum()
    }

    pub fn failed(&self) -> usize {
        self.windows.iter().map(|w| w.failed).sum()
    }

    fn samples(&self) -> usize {
        self.windows.iter().map(|w| w.latencies_ns.len()).sum()
    }

    fn step(&self, step: usize) -> impl Iterator<Item = &Window> {
        self.windows.iter().filter(move |w| w.step == step)
    }

    /// The typical window of `step`: the median over its windows of
    /// each figure a window gives. A stall of the host that ruins one
    /// window in six would own the p95 of the six pooled; it does not
    /// move their median.
    fn typical(&self, step: usize, limit_ms: f64) -> Typical {
        let over = |f: &dyn Fn(&Window) -> f64| median(&self.step(step).map(f).collect::<Vec<_>>());
        Typical {
            qps: over(&Window::qps),
            p50_ms: over(&|w| w.percentile_ms(0.50)),
            p95_ms: over(&|w| w.percentile_ms(0.95)),
            within_per_nominal_s: over(&|w| w.within(limit_ms) as f64 / w.nominal_s.max(1e-9)),
            within_per_s: over(&|w| w.within(limit_ms) as f64 / w.elapsed_s.max(1e-9)),
            backlog_growth: over(&|w| w.backlog_growth as f64),
            failed: self.step(step).map(|w| w.failed).sum(),
            samples: self.step(step).map(|w| w.latencies_ns.len()).sum(),
        }
    }
}

/// The median window of a step (see [`Load::typical`]). Rates per
/// nominal second are a closed loop's; an open loop's are by the clock.
struct Typical {
    qps: f64,
    p50_ms: f64,
    p95_ms: f64,
    within_per_nominal_s: f64,
    within_per_s: f64,
    backlog_growth: f64,
    /// Over all of the step's windows: a failure is never typical.
    failed: usize,
    samples: usize,
}

/// `clients` threads, each sending its next operation as soon as the
/// previous one completed, until `seconds` have passed. `next` is the
/// next operation of the sequence, shared with the windows before and
/// after.
pub fn closed_window<T: Transport>(
    pool: &ServePool<T>,
    ctx: &Ctx<'_>,
    clients: usize,
    seconds: f64,
    next: &AtomicUsize,
) -> Window {
    let barrier = Barrier::new(clients + 1);
    let (elapsed_s, per_client) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut ok = Vec::new();
                    let mut failed = 0usize;
                    barrier.wait();
                    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
                    while Instant::now() < deadline {
                        let op = next.fetch_add(1, Ordering::Relaxed);
                        let t0 = Instant::now();
                        match ctx.run(pool, op, false) {
                            Ok(_) => ok.push(nanos(t0.elapsed())),
                            Err(_) => failed += 1,
                        }
                    }
                    (ok, failed)
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let per_client: Vec<(Vec<u64>, usize)> = handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect();
        (started.elapsed().as_secs_f64(), per_client)
    });
    let mut window = Window {
        elapsed_s,
        nominal_s: elapsed_s,
        ..Window::default()
    };
    for (ok, failed) in per_client {
        window.attempted += ok.len() + failed;
        window.failed += failed;
        window.latencies_ns.extend(ok);
    }
    window.latencies_ns.sort_unstable();
    window
}

/// `seconds` of operations due at `rate_per_s`, starting with operation
/// `first_op`; a session that is not idle when an operation starts
/// sheds it. The window ends when the last operation has.
pub fn open_window<T: Transport>(
    pool: &ServePool<T>,
    ctx: &Ctx<'_>,
    step: Step,
    workers: usize,
    first_op: usize,
) -> Window {
    let shed = AtomicUsize::new(0);
    let started = Instant::now();
    let outcomes = openloop::run(&[step], workers, |i| {
        match ctx.run(pool, first_op + i, true) {
            Ok(_) => true,
            Err(e) => {
                if e == OpError::Shed {
                    shed.fetch_add(1, Ordering::Relaxed);
                }
                false
            }
        }
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    let [report] = <[openloop::StepReport; 1]>::try_from(openloop::report(&[step], &outcomes))
        .expect("one step, one report");
    Window {
        step: 0,
        attempted: report.attempted,
        failed: report.failed,
        shed: shed.load(Ordering::Relaxed),
        elapsed_s,
        nominal_s: elapsed_s,
        latencies_ns: report.latencies_ns,
        lags_ns: report.lags_ns,
        backlog_growth: report.backlog_growth,
    }
}

/// Offers the plan's load for `seconds`, cut into windows of about a
/// second each, and hands every window to `between` when it is over. An
/// open loop gives its three rates a fixed share of the windows each,
/// in rising order.
pub fn offer<T: Transport>(
    pool: &ServePool<T>,
    ctx: &Ctx<'_>,
    seconds: f64,
    first_op: usize,
    mut between: impl FnMut(&mut Window),
) -> Load {
    let windows = (seconds.round() as usize).max(3);
    let each = seconds / windows as f64;
    let mut load = Load::default();
    match ctx.plan.load {
        Loop::Closed => {
            let next = AtomicUsize::new(first_op);
            for _ in 0..windows {
                let mut window = closed_window(pool, ctx, env::nproc(), each, &next);
                between(&mut window);
                load.windows.push(window);
            }
        }
        Loop::Open(rates) => {
            load.rates = rates.to_vec();
            let mut next = first_op;
            let per_step = frozen::open_step_windows(windows);
            for (step, (&rate_per_s, &count)) in rates.iter().zip(&per_step).enumerate() {
                for _ in 0..count {
                    let shape = Step {
                        rate_per_s,
                        seconds: each,
                    };
                    let mut window = open_window(pool, ctx, shape, env::nproc(), next);
                    next += window.attempted;
                    window.step = step;
                    between(&mut window);
                    load.windows.push(window);
                }
            }
        }
    }
    load
}

/// The highest step whose typical window met `limit_ms` at its p95 and
/// left no backlog, with no failure in any window: the rate at which it
/// answered within the limit, by the clock (the schedule sets an open loop's rates, not
/// the host). 0 if no step did.
pub fn slo_rate(load: &Load, limit_ms: f64) -> f64 {
    (0..load.rates.len())
        .rev()
        .map(|s| load.typical(s, limit_ms))
        .find(|step| {
            step.failed == 0
                // One operation may straddle a window's edge.
                && step.backlog_growth <= 1.0
                && step.p95_ms <= limit_ms
        })
        .map_or(0.0, |step| step.within_per_s)
}

/// The end-to-end metrics derived from a load phase: those of its
/// typical window. A closed loop has no offered rate to step through, so its
/// `slo_rate_qps` is the rate of operations that came back within the
/// limit, and both its rates are per second of the nominal host; an
/// open loop reports latency at its middle step and, as throughput,
/// what it completed over all three by the clock.
pub fn put_load_metrics(out: &mut RunResult, workload: &str, load: &Load) {
    let limit_ms = frozen::p95_limit_ms(workload);
    let completed = load.attempted() - load.failed();
    let step = load.typical(load.rates.len() / 2, limit_ms);
    let n = step.samples;
    let (throughput, slo) = if load.rates.is_empty() {
        (step.qps, step.within_per_nominal_s)
    } else {
        let elapsed: f64 = load.windows.iter().map(|w| w.elapsed_s).sum();
        (
            completed as f64 / elapsed.max(1e-9),
            slo_rate(load, limit_ms),
        )
    };
    out.put_timed("throughput_qps", throughput, completed);
    out.put_timed("latency_p50_ms", step.p50_ms, n);
    out.put_timed("latency_p95_ms", step.p95_ms, n);
    out.put_timed("slo_rate_qps", slo, load.samples());
}

/// The untraced run of one serving workload.
pub fn run_e2e(workload: &str, options: RunOptions) -> RunResult {
    let RunOptions {
        seed,
        seconds,
        smoke,
        calibrate,
    } = options;
    let mut out = RunResult::default();
    let (_, mut prepared) = prepare(|_| Plain, workload, seed, smoke, frozen::SETUP_REPS);
    if calibrate {
        prepared.plan.load = Loop::Closed;
    }
    let Prepared {
        plan,
        truth,
        fleet,
        setup,
        ..
    } = &prepared;
    let ctx = Ctx::new(plan, truth, None);

    let replayed = replay(&fleet.pool, &ctx, plan.replay_ops.min(plan.sequence.len()));
    let mut probes = Probes {
        opened: hostspeed::settled(),
        ..Probes::default()
    };
    let load = offer(&fleet.pool, &ctx, seconds, replayed.ops, |window| {
        let from = (probes.cold_open_s.len(), probes.build_docs_per_s.len());
        probe(&prepared, &mut probes);
        probes.close_stretch(window, from);
    });
    let rss = env::rss_mb();

    out.attempted = (replayed.ops + load.attempted()) as u64;
    out.failed = (replayed.failed + load.failed()) as u64;
    out.put_timed("setup_s", median(&setup.setup_s), setup.setup_s.len());
    put_load_metrics(&mut out, plan.workload, &load);
    let answered = (replayed.ops - replayed.failed).max(1) as f64;
    out.put(
        "wire_bytes_per_query",
        replayed.traffic.total_bytes() as f64 / replayed.ops.max(1) as f64,
    );
    out.put("p_at_20", replayed.precision_sum / answered);
    out.put("ms_overlap_at_20", replayed.overlap_sum / answered);
    out.put(
        "ok_share",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.put("rss_steady_mb", rss);
    out.put_timed(
        "ingest_docs_per_s",
        median(&probes.build_docs_per_s),
        probes.build_docs_per_s.len(),
    );
    out.put_timed(
        "cold_open_s",
        median(&probes.cold_open_s),
        probes.cold_open_s.len(),
    );
    out.put(
        "store_bytes_per_text_byte",
        setup.stored_bytes as f64 / truth.text_bytes.max(1) as f64,
    );

    out.notes.push(format!(
        "{} shards, {:?}, {} distinct queries, {} ops replayed by one client, then {} for {seconds} s in {} windows with a probe after each",
        plan.shards,
        plan.methodology,
        plan.distinct.len(),
        replayed.ops,
        match plan.load {
            Loop::Closed => format!("closed loop with {} clients", env::nproc()),
            Loop::Open(r) => format!("open loop at {r:?} ops/s"),
        },
        load.windows.len()
    ));
    out.notes.push(format!(
        "set-ups: setup_s {:.3?}; by the clock: generate {:.3?}, full build docs/s {:.0?}",
        setup.setup_s, setup.generate_s, setup.build_docs_per_s
    ));
    out.notes.push(format!(
        "host speed over each window and its probe (1 = nominal): {:.2?}; waited {:.1} s for the host",
        probes.host,
        hostspeed::waited_s()
    ));
    out.notes.push(format!(
        "windows: ops per nominal s {:.0?}, p50 ms {:.3?}, p95 ms {:.3?}",
        load.windows.iter().map(Window::qps).collect::<Vec<_>>(),
        load.windows
            .iter()
            .map(|w| w.percentile_ms(0.50))
            .collect::<Vec<_>>(),
        load.windows
            .iter()
            .map(|w| w.percentile_ms(0.95))
            .collect::<Vec<_>>()
    ));
    out.notes.push(format!(
        "probes: cold_open_s {:.4?}; build docs/s {:.0?}",
        probes.cold_open_s, probes.build_docs_per_s
    ));
    put_client_diagnostics(&mut out, &load);
    if let Some(cache) = pool_cache(&fleet.pool) {
        out.notes.push(format!(
            "caches since set-up: results {}/{} hits, terms {}/{}, docs {}/{}; {} result evictions",
            cache.results.hits,
            cache.results.hits + cache.results.misses,
            cache.terms.hits,
            cache.terms.hits + cache.terms.misses,
            cache.docs.hits,
            cache.docs.hits + cache.docs.misses,
            cache.results.evictions
        ));
    }
    if let Some(e) = ctx.first_error() {
        out.violation(e);
    }
    // CV ships global weights, so its merged ranking is the mono-server
    // ranking: the paper's invariant, and this workload's hard check.
    if plan.workload == catalog::SHORT_CV && out.get("ms_overlap_at_20") != Some(1.0) {
        out.violation(format!(
            "ms_overlap_at_20 is {:?} on {}, CV must equal the mono-server ranking",
            out.get("ms_overlap_at_20"),
            plan.workload
        ));
    }
    out
}

/// Diagnostics of the load generator itself (the `client.` metrics):
/// the tail over every window, and each step's typical p95.
pub fn put_client_diagnostics(out: &mut RunResult, load: &Load) {
    let merged = |f: fn(&Window) -> &Vec<u64>| {
        let mut all: Vec<u64> = load.windows.iter().flat_map(|w| f(w)).copied().collect();
        all.sort_unstable();
        all
    };
    let latencies = merged(|w| &w.latencies_ns);
    let n = latencies.len();
    out.put("client.samples", n as f64);
    out.put_timed(
        "client.latency_p99_ms",
        tail(&latencies, 0.99) as f64 / 1e6,
        n,
    );
    out.put_timed(
        "client.latency_max_ms",
        latencies.last().copied().unwrap_or(0) as f64 / 1e6,
        n,
    );
    let attempted = load.attempted().max(1) as f64;
    out.put("client.error_share", load.failed() as f64 / attempted);
    out.put(
        "core.shed_share",
        load.windows.iter().map(|w| w.shed).sum::<usize>() as f64 / attempted,
    );
    let steps = load.rates.len();
    for (i, name) in [
        "client.step1_p95_ms",
        "client.step2_p95_ms",
        "client.step3_p95_ms",
    ]
    .into_iter()
    .enumerate()
    {
        let (p95, samples) = if i < steps {
            let step = load.typical(i, f64::INFINITY);
            (step.p95_ms, step.samples)
        } else {
            (0.0, 0)
        };
        out.put_timed(name, p95, samples);
    }
    let lags = merged(|w| &w.lags_ns);
    out.put_timed(
        "client.generator_lag_ms_p95",
        tail(&lags, 0.95) as f64 / 1e6,
        lags.len(),
    );
    out.put(
        "client.backlog_growth",
        (0..steps)
            .map(|s| load.typical(s, f64::INFINITY).backlog_growth)
            .fold(0.0, f64::max),
    );
}
