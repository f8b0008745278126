//! Execution backends and the uniform plan runner.
//!
//! A [`Backend`] turns plan steps into effects against one embodiment
//! of the system: the virtual-time [`SimBackend`] here, or the real
//! in-process and TCP backends in [`crate::real`]. The runner
//! ([`run_plan`]) owns every rule that keeps a plan's meaning identical
//! across backends and stable under shrinking — librarian clamping,
//! never downing the whole fleet, clearing fault windows around
//! reindexing — so backends stay thin translation layers.

use teraphim_core::sim::{derive_seed, SimDriver, SimMode};
use teraphim_core::{CiParams, TeraphimError};
use teraphim_net::DispatchMode;
use teraphim_obs::{Count, Counts, EventKind, TraceSink};
use teraphim_simnet::{CostModel, Topology};
use teraphim_text::sgml::TrecDoc;
use teraphim_text::Analyzer;

use crate::fixture::{churn_docs, Fixture};
use crate::plan::{fault_plan, CacheSpec, FaultSpec, Plan, RunMode, Step, MAX_REPLICAS};

/// CI preprocessing parameters every backend shares (the values the
/// repo's sim-vs-real differential suite is proven under).
pub const CI: CiParams = CiParams {
    group_size: 10,
    k_prime: 100,
};

/// One result entry, comparable across backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hit {
    /// Owning librarian (0 for the mono baseline).
    pub lib: u64,
    /// Document id within that librarian.
    pub doc: u32,
    /// Exact score bits — `None` on the simulator, which ranks
    /// identically but does not expose merged scores.
    pub score_bits: Option<u64>,
}

/// The observable outcome of one `query` step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Index of the step in the plan.
    pub step: usize,
    /// Ranked hits, best first.
    pub hits: Vec<Hit>,
    /// Librarians that dropped out of the merge, ascending.
    pub failed: Vec<u64>,
    /// Normalized error kind when the query failed outright.
    pub error: Option<String>,
}

/// One side's traffic ledger: `(round trips, bytes sent, bytes
/// received)`.
pub type TrafficTriple = (u64, u64, u64);

/// End-of-run resource accounting, checked by
/// [`crate::check::verify_accounting`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Transport-level counters (absent on the simulator).
    pub transport: Option<TrafficTriple>,
    /// Trace-event sums from the shared sink.
    pub trace: TrafficTriple,
    /// Metrics-registry totals (absent on the simulator).
    pub registry: Option<TrafficTriple>,
    /// Simulator-only: total payload bytes that crossed links,
    /// including the untraced fetch phase — an upper bound on the
    /// traced bytes.
    pub wire_cap: Option<u64>,
    /// True when any step blocked sends (a `Down` window or a kill):
    /// trace-side sends may then exceed wire-side sends, because the
    /// fan-out records a send before the transport refuses it.
    pub sends_blocked: bool,
    /// Health polls executed; polling is deliberately untraced, so
    /// wire-side counters may then exceed trace-side ones.
    pub health_polls: u64,
}

/// Everything one backend produced for one plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Outcomes of the query steps, in plan order.
    pub outcomes: Vec<QueryOutcome>,
    /// The closing resource ledger.
    pub accounting: Accounting,
}

/// Collapses a [`TeraphimError`] to a backend-independent kind, so
/// "this query must fail the same way everywhere" is checkable without
/// comparing transport-specific message strings.
pub fn normalize_error(error: &TeraphimError) -> String {
    match error {
        TeraphimError::Net(_) => "net",
        TeraphimError::Engine(_) => "engine",
        TeraphimError::Index(_) => "index",
        TeraphimError::Store(_) => "store",
        TeraphimError::MissingGlobalState(_) => "missing_global_state",
        TeraphimError::BadParameters(_) => "bad_parameters",
        TeraphimError::InsufficientCoverage { .. } => "insufficient_coverage",
    }
    .to_string()
}

/// One embodiment of the system under test.
///
/// Backends translate runner calls into effects; they do not interpret
/// plans. All methods take pre-clamped librarian indices.
pub trait Backend {
    /// Label for failure messages (`"sim"`, `"inproc"`, `"tcp"`).
    fn name(&self) -> &'static str;

    /// Fleet size.
    fn num_libs(&self) -> usize;

    /// Runs one ranked query for `client` and reports the outcome
    /// (`step` is filled in by the runner).
    fn query(&mut self, client: u64, mode: RunMode, query: &str, k: usize) -> QueryOutcome;

    /// Appends `docs` to librarian `lib`, bumps its epoch, and re-runs
    /// whatever derived state (mono index, CV vocabulary, CI index) the
    /// backend maintains. Called with all fault windows cleared.
    fn add_docs(&mut self, lib: usize, docs: &[TrecDoc]) -> Result<(), String>;

    /// Opens (`Some`) or closes (`None`) a fault window on `lib`.
    fn apply_fault(&mut self, lib: usize, fault: Option<FaultSpec>);

    /// Permanently removes `lib` from service.
    fn kill(&mut self, lib: usize);

    /// Joins a fresh replica to shard `lib`'s group, migrating the
    /// subcollection index (and its epoch) onto it. Heals a shard whose
    /// last replica left. The runner guarantees the group is below
    /// [`MAX_REPLICAS`] and the shard is not killed.
    fn add_lib(&mut self, lib: usize);

    /// Removes shard `lib`'s preferred replica from its group. When the
    /// last replica leaves, the shard answers nothing until a later
    /// `add_lib` heals it. The runner guarantees at least one replica is
    /// live and the shard is not killed.
    fn remove_lib(&mut self, lib: usize);

    /// Rotates shard `lib`'s preferred replica to the next live one —
    /// ranking-transparent, since replicas are content-identical. The
    /// runner guarantees at least two replicas are live.
    fn promote_replica(&mut self, lib: usize);

    /// Crashes shard `lib`: the shard loses all volatile state and
    /// refuses queries until [`Backend::reopen`] recovers it from
    /// durable storage. Backends without real persistence model a crash
    /// as a `Down` window — query-visibly identical, which is exactly
    /// what the differential check exploits: the sim backend "recovers"
    /// by never having lost anything, so a store-backed backend that
    /// diverges after reopen has lost durable data.
    fn crash(&mut self, lib: usize) {
        self.apply_fault(lib, Some(FaultSpec::Down));
    }

    /// Recovers a crashed shard from its durable store (WAL replay into
    /// the last committed manifest). The runner guarantees the shard is
    /// crashed and not killed.
    fn reopen(&mut self, lib: usize) {
        self.apply_fault(lib, None);
    }

    /// Enables (`Some`) or disables (`None`) result caching.
    fn set_cache(&mut self, spec: Option<CacheSpec>);

    /// Switches the fan-out dispatch mode.
    fn set_dispatch(&mut self, mode: DispatchMode);

    /// Polls fleet health (feeds cache invalidation).
    fn health_poll(&mut self);

    /// The closing ledger. Called once, after the last step.
    fn accounting(&mut self) -> Accounting;
}

/// Runs `plan` against `backend` and collects the report.
///
/// Runner rules (identical for every backend, so they hold for any
/// shrunken subset of steps too):
///
/// - librarian indices are taken modulo the fleet size;
/// - a `Down`/`kill`/`remove_lib` that would leave no answerable
///   librarian is skipped — a fleet with zero answerable librarians
///   fails every query, which hides real divergences behind a wall of
///   identical errors; a shard whose replica group emptied counts as
///   unanswerable here;
/// - `add_docs` runs with fault windows closed (CV/CI resync fans out
///   to every librarian and must see a healthy fleet) and re-opens them
///   afterwards; it is skipped entirely once any librarian is killed or
///   any shard has zero live replicas, because neither can resync;
/// - membership steps keep shards within `1..=MAX_REPLICAS` live
///   replicas: `add_lib` at the cap, `remove_lib` on an empty shard and
///   `promote_replica` with fewer than two replicas are all skipped, as
///   is any membership step on a killed shard;
/// - `crash_lib` behaves like a `Down` window that also loses volatile
///   state: it clears the shard's fault window (the "process" holding
///   it died), is skipped on killed/already-crashed shards or when it
///   would down the whole fleet, and blocks every other mutation of the
///   shard (faults, kills, membership) until `reopen_lib`; `add_docs`
///   is skipped fleet-wide while any shard is crashed, since resync
///   cannot reach it — so recovery must reproduce exactly the documents
///   the fleet held at crash time;
/// - fault and membership transitions drop cached results on caching
///   backends (the runner's stand-in for coverage-aware invalidation),
///   keeping cached and cache-less backends answer-identical.
pub fn run_plan(plan: &Plan, backend: &mut dyn Backend) -> RunReport {
    let n = backend.num_libs();
    assert!(n > 0, "backend has no librarians");
    let mut active: Vec<Option<FaultSpec>> = vec![None; n];
    let mut killed = vec![false; n];
    let mut crashed = vec![false; n];
    let mut live: Vec<u64> = vec![plan.replicas.clamp(1, MAX_REPLICAS); n];
    let mut sends_blocked = false;
    let mut health_polls = 0u64;
    let mut outcomes = Vec::new();

    let down_count =
        |active: &[Option<FaultSpec>], killed: &[bool], crashed: &[bool], live: &[u64]| {
            (0..active.len())
                .filter(|&l| {
                    killed[l]
                        || crashed[l]
                        || live[l] == 0
                        || matches!(active[l], Some(FaultSpec::Down))
                })
                .count()
        };

    for (index, step) in plan.steps.iter().enumerate() {
        match step {
            Step::Query {
                client,
                mode,
                query,
                k,
            } => {
                let mut outcome =
                    backend.query(*client, *mode, query, (*k).clamp(1, 1000) as usize);
                outcome.step = index;
                outcomes.push(outcome);
            }
            Step::AddDocs { lib, count, batch } => {
                if killed.iter().any(|&k| k) || crashed.iter().any(|&c| c) || live.contains(&0) {
                    continue;
                }
                let lib = (*lib as usize) % n;
                let docs = churn_docs(
                    plan.seed,
                    lib as u64,
                    *batch,
                    (*count).clamp(1, 16),
                    n as u64,
                );
                for (l, fault) in active.iter().enumerate() {
                    if fault.is_some() {
                        backend.apply_fault(l, None);
                    }
                }
                backend
                    .add_docs(lib, &docs)
                    .unwrap_or_else(|e| panic!("add_docs on {}: {e}", backend.name()));
                for (l, fault) in active.iter().enumerate() {
                    if let Some(f) = fault {
                        backend.apply_fault(l, Some(*f));
                    }
                }
            }
            Step::SetFault { lib, fault } => {
                let lib = (*lib as usize) % n;
                if killed[lib] || crashed[lib] {
                    continue;
                }
                if matches!(fault, FaultSpec::Down) {
                    let mut would = active.clone();
                    would[lib] = Some(FaultSpec::Down);
                    if down_count(&would, &killed, &crashed, &live) >= n {
                        continue;
                    }
                    sends_blocked = true;
                }
                active[lib] = Some(*fault);
                backend.apply_fault(lib, Some(*fault));
            }
            Step::ClearFaults => {
                for l in 0..n {
                    if active[l].is_some() && !killed[l] {
                        backend.apply_fault(l, None);
                    }
                    active[l] = None;
                }
            }
            Step::KillLib { lib } => {
                let lib = (*lib as usize) % n;
                if killed[lib] || crashed[lib] {
                    continue;
                }
                let mut would_killed = killed.clone();
                would_killed[lib] = true;
                if down_count(&active, &would_killed, &crashed, &live) >= n {
                    continue;
                }
                killed[lib] = true;
                active[lib] = None;
                sends_blocked = true;
                backend.kill(lib);
            }
            Step::AddLib { lib } => {
                let lib = (*lib as usize) % n;
                if killed[lib] || crashed[lib] || live[lib] >= MAX_REPLICAS {
                    continue;
                }
                live[lib] += 1;
                backend.add_lib(lib);
            }
            Step::RemoveLib { lib } => {
                let lib = (*lib as usize) % n;
                if killed[lib] || crashed[lib] || live[lib] == 0 {
                    continue;
                }
                if live[lib] == 1 {
                    let mut would = live.clone();
                    would[lib] = 0;
                    if down_count(&active, &killed, &crashed, &would) >= n {
                        continue;
                    }
                    // An emptied shard refuses after the fan-out already
                    // recorded the send, exactly like a Down window.
                    sends_blocked = true;
                }
                live[lib] -= 1;
                backend.remove_lib(lib);
            }
            Step::PromoteReplica { lib } => {
                let lib = (*lib as usize) % n;
                if killed[lib] || crashed[lib] || live[lib] < 2 {
                    continue;
                }
                backend.promote_replica(lib);
            }
            Step::CrashLib { lib } => {
                let lib = (*lib as usize) % n;
                if killed[lib] || crashed[lib] {
                    continue;
                }
                let mut would = crashed.clone();
                would[lib] = true;
                if down_count(&active, &killed, &would, &live) >= n {
                    continue;
                }
                // The process holding the fault window died with it.
                active[lib] = None;
                crashed[lib] = true;
                sends_blocked = true;
                backend.crash(lib);
            }
            Step::ReopenLib { lib } => {
                let lib = (*lib as usize) % n;
                if !crashed[lib] {
                    continue;
                }
                crashed[lib] = false;
                backend.reopen(lib);
            }
            Step::CacheOn { spec } => backend.set_cache(Some(*spec)),
            Step::CacheOff => backend.set_cache(None),
            Step::Dispatch { mode } => backend.set_dispatch(*mode),
            Step::HealthPoll => {
                backend.health_poll();
                health_polls += 1;
            }
        }
    }

    let mut accounting = backend.accounting();
    accounting.sends_blocked = sends_blocked;
    accounting.health_polls = health_polls;
    RunReport {
        outcomes,
        accounting,
    }
}

/// The virtual-time backend: every step becomes a [`SimDriver`] call,
/// no threads, no sockets, microsecond-deterministic.
pub struct SimBackend {
    driver: SimDriver,
    topo: Topology,
    cost: CostModel,
    sink: TraceSink,
    wire_bytes: u64,
    /// Live replica count per shard. The simulator has no physical
    /// replicas — replicas are content-identical, so which one serves
    /// is unobservable in rankings — but an *empty* group is: a 0-live
    /// shard answers nothing, modeled as a permanent fault window that
    /// shadows whatever fault the plan has open.
    live: Vec<u64>,
    /// The plan-level fault window per shard, kept so membership
    /// transitions can recompute the effective fault plan.
    faults: Vec<Option<FaultSpec>>,
    /// Per-shard document counts and reindex epochs, mirroring the real
    /// backends' shard ledgers so `migrate` traces carry identical
    /// values.
    docs: Vec<u64>,
    epochs: Vec<u64>,
    /// Mirror of the real backends' replica-id counter (first replica
    /// of shard `s` is id `s`; joins take ids from here).
    next_id: u32,
    /// Mirror of the real backends' routing-table version: one bump per
    /// group published at startup, one per membership change.
    version: u64,
}

impl SimBackend {
    /// Builds the backend over the plan's corpus fixture.
    pub fn new(plan: &Plan) -> SimBackend {
        let fixture = Fixture::for_plan(plan);
        let parts: Vec<(&str, &[TrecDoc])> = fixture
            .parts()
            .iter()
            .map(|s| (s.name.as_str(), s.docs.as_slice()))
            .collect();
        let mut driver = SimDriver::new(&parts, Analyzer::default(), CI)
            .expect("fixture corpus must build a sim driver");
        driver.set_seed(derive_seed(plan.seed, 0x53494d)); // "SIM"
        let sink = driver.enable_tracing();
        let n = driver.num_parts();
        let docs = fixture
            .parts()
            .iter()
            .map(|s| s.docs.len() as u64)
            .collect();
        SimBackend {
            driver,
            topo: Topology::multi_disk(4),
            cost: CostModel::default(),
            sink,
            wire_bytes: 0,
            live: vec![plan.replicas.clamp(1, MAX_REPLICAS); n],
            faults: vec![None; n],
            docs,
            epochs: vec![0; n],
            // The real backends hand the first replica of shard `s` the
            // id `s` and draw every extra startup replica from a counter
            // starting at `n` — so after construction the counter sits
            // at one id per startup replica.
            next_id: (n as u64 * plan.replicas.clamp(1, MAX_REPLICAS)) as u32,
            version: n as u64,
        }
    }

    /// Drains the backend's buffered traces — for golden-trace tests.
    /// Calling this mid-run steals traffic from the accounting summary;
    /// use on dedicated instances.
    pub fn take_traces(&self) -> Vec<teraphim_obs::QueryTrace> {
        self.sink.take_traces()
    }

    /// The driver, for post-run inspection in tests.
    pub fn driver(&self) -> &SimDriver {
        &self.driver
    }

    /// Reinstalls shard `lib`'s effective fault plan: a 0-live shard is
    /// down no matter what the plan's fault window says, so membership
    /// and fault transitions compose instead of clobbering each other.
    fn reapply(&mut self, lib: usize) {
        let fault = if self.live[lib] == 0 {
            Some(FaultSpec::Down)
        } else {
            self.faults[lib]
        };
        self.driver.set_fault_plan(lib, fault_plan(fault));
    }
}

impl Backend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn num_libs(&self) -> usize {
        self.driver.num_parts()
    }

    fn query(&mut self, _client: u64, mode: RunMode, query: &str, k: usize) -> QueryOutcome {
        let sim_mode = match mode.methodology() {
            None => SimMode::MonoServer,
            Some(m) => SimMode::Distributed(m),
        };
        match self
            .driver
            .time_query(&self.topo, &self.cost, sim_mode, query, k)
        {
            Ok(cost) => {
                self.wire_bytes += cost.bytes_on_wire;
                QueryOutcome {
                    step: 0,
                    hits: cost
                        .hits
                        .iter()
                        .map(|&(lib, doc)| Hit {
                            lib: lib as u64,
                            doc,
                            score_bits: None,
                        })
                        .collect(),
                    failed: cost.failed.iter().map(|&l| l as u64).collect(),
                    error: None,
                }
            }
            Err(e) => QueryOutcome {
                step: 0,
                hits: Vec::new(),
                failed: Vec::new(),
                error: Some(normalize_error(&e)),
            },
        }
    }

    fn add_docs(&mut self, lib: usize, docs: &[TrecDoc]) -> Result<(), String> {
        self.docs[lib] += docs.len() as u64;
        self.epochs[lib] += 1;
        self.driver
            .append_documents(lib, docs)
            .map_err(|e| format!("{e}"))
    }

    fn apply_fault(&mut self, lib: usize, fault: Option<FaultSpec>) {
        self.faults[lib] = fault;
        self.reapply(lib);
    }

    fn kill(&mut self, lib: usize) {
        // Permanent: the runner never clears faults on a killed shard,
        // so this plan is final regardless of `faults`/`live`.
        self.driver
            .set_fault_plan(lib, fault_plan(Some(FaultSpec::Down)));
    }

    fn add_lib(&mut self, lib: usize) {
        self.live[lib] += 1;
        // Emit the same `migrate` trace the real backends record for an
        // index handoff, with mirrored replica id / routing version /
        // shard-ledger values — sim and real traces stay byte-identical
        // after normalization.
        let id = self.next_id;
        self.next_id += 1;
        self.version += 1;
        self.sink.record(EventKind::Begin {
            op: "migrate",
            methodology: None,
            query_id: 0,
            k: 0,
        });
        self.sink.record(EventKind::Migrate {
            librarian: lib as u32,
            docs: self.docs[lib],
            epoch: self.epochs[lib],
        });
        self.sink.record(EventKind::Join {
            librarian: lib as u32,
            replica: id,
            version: self.version,
        });
        self.sink.record(EventKind::End);
        self.reapply(lib);
    }

    fn remove_lib(&mut self, lib: usize) {
        self.live[lib] = self.live[lib].saturating_sub(1);
        // A leave publishes a new routing version on the real backends.
        self.version += 1;
        self.reapply(lib);
    }

    fn promote_replica(&mut self, lib: usize) {
        // Replicas are content-identical; which one is preferred is
        // unobservable in the simulator's ranking model — but the
        // preference change publishes a routing version, so the mirror
        // counter moves.
        let _ = lib;
        self.version += 1;
    }

    fn set_cache(&mut self, _spec: Option<CacheSpec>) {
        // The simulator has no receptionist cache; cache steps are
        // answer-neutral by construction, so a no-op keeps the
        // differential meaningful.
    }

    fn set_dispatch(&mut self, mode: DispatchMode) {
        self.driver.dispatch = mode;
    }

    fn health_poll(&mut self) {
        // No admin protocol in the simulator.
    }

    fn accounting(&mut self) -> Accounting {
        let traces = self.sink.take_traces();
        let sums: Counts = traces
            .iter()
            .flat_map(|t| &t.events)
            .map(|e| &e.kind)
            .collect();
        Accounting {
            transport: None,
            trace: (
                sums.get(Count::SENT),
                sums.get(Count::BYTES_SENT),
                sums.get(Count::BYTES_RECEIVED),
            ),
            registry: None,
            wire_cap: Some(self.wire_bytes),
            sends_blocked: false,
            health_polls: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query_step(mode: RunMode, query: &str) -> Step {
        Step::Query {
            client: 0,
            mode,
            query: query.to_string(),
            k: 10,
        }
    }

    #[test]
    fn sim_backend_runs_a_mixed_plan() {
        let mut plan = Plan::named("sim-mixed", 5);
        plan.steps = vec![
            query_step(RunMode::Ms, "cats"),
            query_step(RunMode::Cn, "cats"),
            Step::SetFault {
                lib: 1,
                fault: FaultSpec::Down,
            },
            query_step(RunMode::Cv, "cats"),
            Step::ClearFaults,
            Step::AddDocs {
                lib: 2,
                count: 2,
                batch: 0,
            },
            query_step(RunMode::Ci, "churn"),
        ];
        let mut backend = SimBackend::new(&plan);
        let report = run_plan(&plan, &mut backend);
        assert_eq!(report.outcomes.len(), 4);
        // The CV query under the fault window reports librarian 1 failed.
        assert_eq!(report.outcomes[2].failed, vec![1]);
        assert!(report.outcomes[2].error.is_none(), "degraded, not failed");
        // The churn probe finds the appended documents after the batch.
        assert!(
            report.outcomes[3].hits.iter().any(|h| h.lib == 2),
            "churn docs live at librarian 2: {:?}",
            report.outcomes[3]
        );
        assert!(report.accounting.wire_cap.unwrap() > 0);
        assert!(report.accounting.sends_blocked);
    }

    #[test]
    fn runner_never_downs_the_whole_fleet() {
        let mut plan = Plan::named("all-down", 5);
        plan.steps = (0..8)
            .map(|lib| Step::SetFault {
                lib,
                fault: FaultSpec::Down,
            })
            .chain([query_step(RunMode::Cn, "cats")])
            .collect();
        let mut backend = SimBackend::new(&plan);
        let report = run_plan(&plan, &mut backend);
        let outcome = &report.outcomes[0];
        assert!(outcome.error.is_none(), "some librarian must survive");
        assert!(
            outcome.failed.len() < backend.num_libs(),
            "at least one librarian answered"
        );
    }
}
