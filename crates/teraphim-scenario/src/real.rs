//! The real execution backend, [`RealBackend`], and its two embodiments:
//! [`InProcBackend`] (one receptionist, in-process transports) and
//! [`TcpBackend`] (TCP servers, multiplexed pools, a session per client).
//!
//! Every plan step is implemented once, over the elastic fleet: each
//! librarian slot (shard) is a [`ReplicaGroup`] of 1..R content-identical
//! replicas, wrapped in a [`FaultyTransport`] whose [`SharedPlan`] the
//! fault steps swap, so the plan's fault windows inject the same
//! `FaultPlan` the simulator runs, where it injects it — between the
//! receptionist's fan-out and the shard. Joins rebuild the subcollection
//! from the per-shard document ledger (adopting the shard's index epoch,
//! so epoch-keyed caches cannot tell replicas apart), leaves retire the
//! preferred replica first, and every change is published to a shared
//! [`RoutingTable`] whose version feeds the sessions' cache generation.
//! A private mono-server collection gives `MS` query steps a baseline.

use std::sync::{Arc, Mutex};

use teraphim_core::{CacheConfig, Librarian, QuerySession, Receptionist, ServePool};
use teraphim_engine::Collection;
use teraphim_net::{
    DispatchMode, FaultyTransport, Message, ReplicaGroup, RoutingTable, Service, SharedPlan,
};
use teraphim_obs::{Count, Counts, EventKind, MetricsRegistry, TraceSink};
use teraphim_store::{IndexStore, TempDir};
use teraphim_text::sgml::TrecDoc;
use teraphim_text::Analyzer;

use crate::backend::{normalize_error, Accounting, Backend, Hit, QueryOutcome, CI};
use crate::fixture::Fixture;
use crate::plan::{fault_plan, CacheSpec, FaultSpec, Plan, RunMode, MAX_REPLICAS};

/// A librarian service that can be shared between a server (or
/// transport) and the harness, so churn steps can append documents to
/// the live fleet.
#[derive(Clone)]
pub struct SharedLibrarian {
    lib: Arc<Mutex<Librarian>>,
}

impl SharedLibrarian {
    fn new(lib: Librarian) -> SharedLibrarian {
        SharedLibrarian {
            lib: Arc::new(Mutex::new(lib)),
        }
    }

    fn append(&self, docs: &[TrecDoc]) -> Result<(), String> {
        let mut guard = self.lib.lock().unwrap();
        guard
            .collection_mut()
            .append_documents(docs)
            .map_err(|e| format!("{e}"))?;
        guard.bump_epoch();
        Ok(())
    }

    /// Swaps the librarian behind every clone of this handle — the
    /// crash/reopen steps' "process replacement": servers and transports
    /// keep their connections, the service behind them is a new process
    /// image.
    fn replace(&self, lib: Librarian) {
        *self.lib.lock().unwrap() = lib;
    }
}

impl Service for SharedLibrarian {
    fn handle(&mut self, request: Message) -> Message {
        self.lib.lock().unwrap().handle(request)
    }
}

/// One shard's authoritative document ledger: the subcollection's full
/// document set and the index epoch that set corresponds to. Joining
/// replicas are rebuilt from it — the same bytes, the same build, the
/// same epoch, so a rebuilt replica is indistinguishable on the wire
/// from one that lived through every churn batch.
struct ShardState {
    name: String,
    docs: Vec<TrecDoc>,
    epoch: u64,
}

impl ShardState {
    fn from_fixture(fixture: &Fixture) -> Vec<ShardState> {
        fixture
            .parts()
            .iter()
            .map(|s| ShardState {
                name: s.name.clone(),
                docs: s.docs.clone(),
                epoch: 0,
            })
            .collect()
    }

    /// The migration handoff: build a fresh librarian over the ledger
    /// and stamp it with the shard's epoch.
    fn build_replica(&self) -> SharedLibrarian {
        let mut lib = Librarian::build(&self.name, Analyzer::default(), &self.docs);
        lib.set_epoch(self.epoch);
        SharedLibrarian::new(lib)
    }
}

/// The durable side of one real backend: one [`IndexStore`] per shard
/// under a run-scoped temporary directory. Every churn batch is logged
/// to the shard's WAL *before* any replica sees it, so the store is
/// always at least as new as memory. A `crash_lib` step drops the store
/// handle (the "process" died holding it); `reopen_lib` recovers the
/// shard from disk alone — WAL replay into the last durable manifest —
/// and the differential check against the never-crashing sim backend
/// proves the recovered rankings and epoch are exactly what was lost.
struct FleetStores {
    root: TempDir,
    stores: Vec<Option<IndexStore>>,
}

impl FleetStores {
    fn create(label: &str, shards: &[ShardState]) -> FleetStores {
        let root = TempDir::new(label).expect("scenario store root");
        let stores = shards
            .iter()
            .enumerate()
            .map(|(s, shard)| {
                let dir = root.path().join(format!("shard-{s:03}"));
                let (store, _) =
                    IndexStore::create(&dir, &shard.name, &Analyzer::default(), &shard.docs)
                        .expect("fresh shard store creates");
                Some(store)
            })
            .collect();
        FleetStores { root, stores }
    }

    /// Durably appends a churn batch to shard `lib`'s WAL. The runner
    /// never churns while any shard is crashed, so the handle is live.
    fn log_batch(&mut self, lib: usize, docs: &[TrecDoc]) -> Result<(), String> {
        self.stores[lib]
            .as_mut()
            .expect("store alive during add_docs")
            .log_batch(docs)
            .map(|_| ())
            .map_err(|e| format!("{e}"))
    }

    fn crash(&mut self, lib: usize) {
        self.stores[lib] = None;
    }

    /// Reopens shard `lib` from disk, returning the recovered
    /// collection's bytes and durable epoch. Serializing once and
    /// deserializing per replica keeps every rebuilt replica
    /// bit-identical to the recovery image.
    fn reopen(&mut self, lib: usize) -> (Vec<u8>, u64) {
        let dir = self.root.path().join(format!("shard-{lib:03}"));
        let (store, collection) = IndexStore::open(&dir).expect("crashed shard store reopens");
        let epoch = store.epoch();
        let bytes = collection.to_bytes();
        self.stores[lib] = Some(store);
        (bytes, epoch)
    }
}

/// The librarian a crashed shard answers with if recovery were ever
/// skipped: a one-document placeholder whose rankings cannot match any
/// real shard, so a missed reopen fails the differential loudly instead
/// of silently serving stale memory.
fn crashed_librarian(name: &str) -> Librarian {
    let docs = vec![TrecDoc {
        docno: "CRASHED-0".to_string(),
        text: "volatile state lost in crash".to_string(),
    }];
    Librarian::build(name, Analyzer::default(), &docs)
}

/// Rebuilds one replica's librarian from a recovered collection image.
fn recovered_librarian(bytes: &[u8], epoch: u64) -> Librarian {
    let collection = Collection::from_bytes(bytes).expect("recovered collection deserializes");
    let mut lib = Librarian::from_collection(collection);
    lib.set_epoch(epoch);
    lib
}

/// How a real backend embodies the fleet — the one thing that differs
/// between [`InProcBackend`] and [`TcpBackend`]. The items are public
/// only so the aliases can name them; the module is private.
mod embodiment {
    use super::{Plan, SharedLibrarian};
    use std::sync::Arc;
    use teraphim_net::mux::{MuxPool, MuxTransport};
    use teraphim_net::tcp::TcpServer;
    use teraphim_net::{InProcTransport, ServerOptions, TcpOptions, Transport};

    pub trait Embodiment {
        /// The backend's report name.
        const NAME: &'static str;
        /// `false`: each session preprocesses CV/CI in place, traced,
        /// through its own fault-decorated groups. `true`: preprocessing
        /// runs once on an untraced prototype over plain transports and
        /// every session is a pipelined fork of it.
        const FORKED: bool;
        /// The client side of one replica.
        type Transport: Transport;
        /// What keeps a replica served while it is a member.
        type Served;
        /// Puts `lib` into service.
        fn serve(lib: &SharedLibrarian) -> Self::Served;
        /// A fresh client-side handle onto a served replica.
        fn connect(lib: &SharedLibrarian, served: &Self::Served) -> Self::Transport;
        /// How many receptionist sessions the plan is replayed on.
        fn sessions(plan: &Plan) -> usize;
    }

    /// Same process, same thread: a replica is served by being alive,
    /// and one receptionist replays every client's steps.
    pub struct InProc;

    impl Embodiment for InProc {
        const NAME: &'static str = "inproc";
        const FORKED: bool = false;
        type Transport = InProcTransport<SharedLibrarian>;
        type Served = ();

        fn serve(_lib: &SharedLibrarian) {}

        fn connect(lib: &SharedLibrarian, _served: &()) -> Self::Transport {
            InProcTransport::new(lib.clone())
        }

        fn sessions(_plan: &Plan) -> usize {
            1
        }
    }

    /// The full stack: one TCP server per replica behind a multiplexed
    /// connection pool every session's transport rides on, and one
    /// `ServePool` session per plan client (PR 6's serving architecture
    /// under scripted load).
    pub struct Tcp;

    impl Embodiment for Tcp {
        const NAME: &'static str = "tcp";
        const FORKED: bool = true;
        type Transport = MuxTransport;
        type Served = (TcpServer, Arc<MuxPool>);

        fn serve(lib: &SharedLibrarian) -> Self::Served {
            let server = TcpServer::spawn_with(
                vec![lib.clone()],
                "127.0.0.1:0",
                ServerOptions {
                    workers: 2,
                    queue_depth: 64,
                },
            )
            .expect("loopback server spawns");
            let pool = MuxPool::connect(server.addr(), 2, TcpOptions::default())
                .expect("loopback connects");
            (server, pool)
        }

        fn connect(_lib: &SharedLibrarian, (_, pool): &Self::Served) -> MuxTransport {
            MuxTransport::new(Arc::clone(pool))
        }

        fn sessions(plan: &Plan) -> usize {
            plan.clients.max(1) as usize
        }
    }
}
use embodiment::{Embodiment, InProc, Tcp};

/// One live replica: its shared service and whatever serves it.
struct Replica<E: Embodiment> {
    id: u32,
    lib: SharedLibrarian,
    served: E::Served,
}

impl<E: Embodiment> Replica<E> {
    fn spawn(id: u32, shard: &ShardState) -> Self {
        let lib = shard.build_replica();
        let served = E::serve(&lib);
        Replica { id, lib, served }
    }

    fn connect(&self) -> E::Transport {
        E::connect(&self.lib, &self.served)
    }
}

type Session<E> = QuerySession<FaultyTransport<ReplicaGroup<<E as Embodiment>::Transport>>>;

/// A real execution backend: receptionist sessions over fault-decorated
/// replica groups, embodied as `E` says. Each session owns its
/// transports, so membership changes are applied to every session's
/// group for the same shard in lockstep; fleet-wide steps (churn, cache,
/// dispatch) are applied to every session.
pub struct RealBackend<E: Embodiment> {
    replicas: Vec<Vec<Replica<E>>>,
    sessions: Vec<Session<E>>,
    session_groups: Vec<Vec<ReplicaGroup<E::Transport>>>,
    shards: Vec<ShardState>,
    stores: FleetStores,
    /// One plan per shard, shared by every session's transport to it.
    faults: Vec<SharedPlan>,
    next_id: u32,
    mono: Collection,
    sink: TraceSink,
    registry: Arc<MetricsRegistry>,
    cache_spec: Option<CacheSpec>,
}

/// The in-process backend: one receptionist over fault-decorated replica
/// groups of in-process transports, same process, same thread.
pub type InProcBackend = RealBackend<InProc>;

/// The full-stack backend: TCP servers, multiplexed connections and a
/// pool of forked sessions, one per plan client.
pub type TcpBackend = RealBackend<Tcp>;

impl<E: Embodiment> RealBackend<E> {
    /// Builds the fleet (with `plan.replicas` replicas per shard),
    /// preprocesses CV and CI state, and checks the plan's sessions out
    /// of their pool.
    pub fn new(plan: &Plan) -> Self {
        let fixture = Fixture::for_plan(plan);
        let shards = ShardState::from_fixture(&fixture);
        let all_docs: Vec<TrecDoc> = shards.iter().flat_map(|s| s.docs.clone()).collect();
        let stores = FleetStores::create(&format!("scen-{}", E::NAME), &shards);
        let routing = RoutingTable::new();
        let n = shards.len();
        let per_shard = plan.replicas.clamp(1, MAX_REPLICAS) as u32;
        // The first replica keeps the shard's own index as its id, so a
        // one-replica fleet reads like the pre-elastic fixed fleet; the
        // others take fresh ids, shard by shard.
        let mut next_id = n as u32;
        let replicas: Vec<Vec<Replica<E>>> = shards
            .iter()
            .enumerate()
            .map(|(s, shard)| {
                let fresh = next_id..next_id + per_shard - 1;
                next_id = fresh.end;
                std::iter::once(s as u32)
                    .chain(fresh)
                    .map(|id| Replica::spawn(id, shard))
                    .collect()
            })
            .collect();
        let faults: Vec<SharedPlan> = (0..n).map(|_| SharedPlan::default()).collect();

        // Every session is a fork of one prototype over plain transports
        // to each shard's first replica; a forked embodiment preprocesses
        // there, once and untraced.
        let mut prototype = Receptionist::new(
            replicas.iter().map(|shard| shard[0].connect()).collect(),
            Analyzer::default(),
        );
        if E::FORKED {
            prototype.enable_cv().expect("healthy fleet preprocesses");
            prototype.enable_ci(CI).expect("healthy fleet preprocesses");
        }

        let sink = TraceSink::new();
        let registry = Arc::new(MetricsRegistry::new());
        sink.tee_metrics(Arc::clone(&registry));

        let clients = E::sessions(plan);
        let mut session_groups: Vec<Vec<ReplicaGroup<E::Transport>>> = Vec::new();
        let pool = ServePool::new(
            (0..clients)
                .map(|client| {
                    let groups: Vec<ReplicaGroup<E::Transport>> = replicas
                        .iter()
                        .enumerate()
                        .map(|(s, shard_replicas)| {
                            let group = ReplicaGroup::new(
                                s as u32,
                                shard_replicas.iter().map(|r| (r.id, r.connect())).collect(),
                            )
                            .with_trace(sink.clone());
                            if client == 0 {
                                // One session publishes membership; the
                                // others mirror it, so the table version
                                // moves once per fleet-wide change.
                                group.with_table(routing.clone())
                            } else {
                                group
                            }
                        })
                        .collect();
                    let transports: Vec<_> = groups
                        .iter()
                        .zip(&faults)
                        .map(|(group, plan)| FaultyTransport::new(group.clone(), plan.clone()))
                        .collect();
                    let mut session = prototype.fork(transports);
                    session.set_trace_sink(sink.clone());
                    session.set_routing_table(routing.clone());
                    if !E::FORKED {
                        session.enable_cv().expect("healthy fleet preprocesses");
                        session.enable_ci(CI).expect("healthy fleet preprocesses");
                    }
                    session_groups.push(groups);
                    session
                })
                .collect(),
        );
        let sessions: Vec<Session<E>> = (0..clients).map(|_| pool.session()).collect();

        RealBackend {
            replicas,
            sessions,
            session_groups,
            mono: Collection::build("MS", Analyzer::default(), &all_docs),
            shards,
            stores,
            faults,
            next_id,
            sink,
            registry,
            cache_spec: None,
        }
    }

    /// Drains the backend's buffered traces (queries, preprocessing,
    /// migrations) — for golden-trace tests. Calling this mid-run steals
    /// traffic from the accounting summary; use on dedicated instances.
    pub fn take_traces(&self) -> Vec<teraphim_obs::QueryTrace> {
        self.sink.take_traces()
    }

    /// Drops cached results (coverage changed) without changing whether
    /// caching is on.
    fn flush_cache(&mut self) {
        if self.cache_spec.is_some() {
            self.set_cache(self.cache_spec);
        }
    }
}

impl<E: Embodiment> Backend for RealBackend<E> {
    fn name(&self) -> &'static str {
        E::NAME
    }

    fn num_libs(&self) -> usize {
        self.replicas.len()
    }

    fn query(&mut self, client: u64, mode: RunMode, query: &str, k: usize) -> QueryOutcome {
        let hit = |lib: usize, doc, score: f64| Hit {
            lib: lib as u64,
            doc,
            score_bits: Some(score.to_bits()),
        };
        let mut outcome = QueryOutcome {
            step: 0,
            hits: Vec::new(),
            failed: Vec::new(),
            error: None,
        };
        match mode.methodology() {
            // MS: the private mono-server baseline, no fleet involved.
            None => {
                let ranked = self.mono.ranked_query(query, k);
                outcome.hits = ranked.iter().map(|s| hit(0, s.doc, s.score)).collect();
            }
            Some(methodology) => {
                let session = client as usize % self.sessions.len();
                match self.sessions[session].query_with_coverage(methodology, query, k) {
                    Ok(answer) => {
                        let failed = &answer.coverage.failed;
                        outcome.failed = failed.iter().map(|&l| l as u64).collect();
                        outcome.hits = answer
                            .hits
                            .iter()
                            .map(|h| hit(h.librarian, h.doc, h.score))
                            .collect();
                    }
                    Err(e) => outcome.error = Some(normalize_error(&e)),
                }
            }
        }
        outcome
    }

    fn add_docs(&mut self, lib: usize, docs: &[TrecDoc]) -> Result<(), String> {
        // Write-ahead: the WAL records the batch before any replica
        // applies it, so a later crash can only lose what the fleet
        // never acknowledged.
        self.stores.log_batch(lib, docs)?;
        self.shards[lib].docs.extend_from_slice(docs);
        self.shards[lib].epoch += 1;
        for replica in &self.replicas[lib] {
            replica.lib.append(docs)?;
        }
        self.mono
            .append_documents(docs)
            .map_err(|e| format!("{e}"))?;
        // Sessions keep their own Arc'd CV/CI state: each one must
        // re-run preprocessing to observe the new epoch.
        for session in &mut self.sessions {
            session.enable_cv().map_err(|e| format!("{e}"))?;
            session.enable_ci(CI).map_err(|e| format!("{e}"))?;
        }
        Ok(())
    }

    fn apply_fault(&mut self, lib: usize, fault: Option<FaultSpec>) {
        self.faults[lib].set(fault_plan(fault));
        self.flush_cache();
    }

    fn kill(&mut self, lib: usize) {
        // The shard's plan is the kill switch: every session's transport
        // to this librarian refuses from now on and the runner never
        // clears it. Whatever serves the replicas stays alive, so
        // in-flight reader threads shut down cleanly with the backend.
        self.apply_fault(lib, Some(FaultSpec::Down));
    }

    fn add_lib(&mut self, lib: usize) {
        let id = self.next_id;
        self.next_id += 1;
        let replica = Replica::<E>::spawn(id, &self.shards[lib]);
        // The handoff is a traced operation of its own: a `migrate`
        // trace carrying the index transfer (`Migrate`) and the
        // membership change (one `Join` per session group, recorded by
        // the groups).
        self.sink.record(EventKind::Begin {
            op: "migrate",
            methodology: None,
            query_id: 0,
            k: 0,
        });
        self.sink.record(EventKind::Migrate {
            librarian: lib as u32,
            docs: self.shards[lib].docs.len() as u64,
            epoch: self.shards[lib].epoch,
        });
        for groups in &self.session_groups {
            groups[lib].add_replica(id, replica.connect());
        }
        self.sink.record(EventKind::End);
        self.replicas[lib].push(replica);
        self.flush_cache();
    }

    fn remove_lib(&mut self, lib: usize) {
        if let Some(id) = self.session_groups[0][lib].preferred_id() {
            for groups in &self.session_groups {
                groups[lib].remove_replica(id);
            }
            // Dropping the replica takes whatever served it down (the
            // groups just dropped the last transports riding it).
            self.replicas[lib].retain(|r| r.id != id);
        }
        self.flush_cache();
    }

    fn promote_replica(&mut self, lib: usize) {
        // Rotate to the next live replica after the preferred one, in
        // membership order.
        let group = &self.session_groups[0][lib];
        let ids = group.replica_ids();
        let preferred = group.preferred_id();
        if let Some(pos) = ids.iter().position(|&id| Some(id) == preferred) {
            for groups in &self.session_groups {
                groups[lib].promote(ids[(pos + 1) % ids.len()]);
            }
        }
        self.flush_cache();
    }

    fn crash(&mut self, lib: usize) {
        // The "process" dies: the store handle goes with it and every
        // replica's memory is genuinely lost (what serves the replicas
        // stays up — the harness is one OS process — but the service
        // behind it is a placeholder), so a reopen that did not actually
        // recover from disk cannot pass the differential.
        self.stores.crash(lib);
        for replica in &self.replicas[lib] {
            let image = crashed_librarian(&self.shards[lib].name);
            replica.lib.replace(image);
        }
        self.apply_fault(lib, Some(FaultSpec::Down));
    }

    fn reopen(&mut self, lib: usize) {
        let (bytes, epoch) = self.stores.reopen(lib);
        assert_eq!(
            epoch, self.shards[lib].epoch,
            "recovered epoch must match the shard ledger"
        );
        for replica in &self.replicas[lib] {
            let image = recovered_librarian(&bytes, epoch);
            replica.lib.replace(image);
        }
        self.apply_fault(lib, None);
    }

    fn set_cache(&mut self, spec: Option<CacheSpec>) {
        self.cache_spec = spec;
        let config = spec.map(|spec| CacheConfig {
            result_entries: spec.results as usize,
            term_entries: spec.terms as usize,
            doc_bytes: spec.doc_bytes as usize,
        });
        for session in &mut self.sessions {
            match config {
                Some(config) => session.enable_cache(config),
                None => session.disable_cache(),
            }
        }
    }

    fn set_dispatch(&mut self, mode: DispatchMode) {
        for session in &mut self.sessions {
            session.set_dispatch_mode(mode);
        }
    }

    fn health_poll(&mut self) {
        let _ = self.sessions[0].fleet_health();
    }

    fn accounting(&mut self) -> Accounting {
        let traces = self.sink.take_traces();
        let sums: Counts = traces
            .iter()
            .flat_map(|t| &t.events)
            .map(|e| &e.kind)
            .collect();
        let totals = self.registry.snapshot().counts;
        let mut wire = teraphim_net::TrafficStats::default();
        for session in &self.sessions {
            wire.absorb(&session.traffic());
        }
        Accounting {
            transport: Some((wire.round_trips, wire.bytes_sent, wire.bytes_received)),
            trace: (
                sums.get(Count::SENT),
                sums.get(Count::BYTES_SENT),
                sums.get(Count::BYTES_RECEIVED),
            ),
            registry: Some((
                totals.get(Count::SENT),
                totals.get(Count::BYTES_SENT),
                totals.get(Count::BYTES_RECEIVED),
            )),
            ..Accounting::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each session's result-cache `(hits, misses)`.
    fn result_cache_counters<E: Embodiment>(backend: &RealBackend<E>) -> Vec<(u64, u64)> {
        let counters = |session: &Session<E>| {
            let stats = session
                .cache_stats()
                .expect("set_cache reaches every session");
            (stats.results.hits, stats.results.misses)
        };
        backend.sessions.iter().map(counters).collect()
    }

    /// The one intended difference between the aliases: the in-process
    /// embodiment replays every client on one session, the TCP one gives
    /// each plan client its own — and its own cache.
    #[test]
    fn embodiments_differ_in_their_sessions_and_nothing_else() {
        let mut plan = Plan::named("sessions", 7);
        plan.clients = 3;
        let mut inproc = InProcBackend::new(&plan);
        let mut tcp = TcpBackend::new(&plan);
        assert_eq!(
            inproc.sessions.len(),
            1,
            "one session whatever the plan says"
        );
        assert_eq!(tcp.sessions.len(), 3, "one session per plan client");
        assert_eq!(inproc.session_groups.len(), 1);
        assert_eq!(tcp.session_groups.len(), 3);
        assert_eq!((inproc.name(), tcp.name()), ("inproc", "tcp"));
        assert_eq!(inproc.num_libs(), tcp.num_libs());

        // The same two steps on both: client 0 asks, then client 1 asks
        // the same thing.
        let query = Fixture::for_plan(&plan).corpus().short_queries()[0]
            .text
            .clone();
        inproc.set_cache(Some(CacheSpec::small()));
        tcp.set_cache(Some(CacheSpec::small()));
        let mut answers = Vec::new();
        for client in [0, 1] {
            let a = inproc.query(client, RunMode::Cv, &query, 10);
            let b = tcp.query(client, RunMode::Cv, &query, 10);
            assert_eq!(a, b, "client {client}: same answer, to the score bit");
            answers.push(a);
        }
        assert!(!answers[0].hits.is_empty());
        assert_eq!(answers[0], answers[1]);
        // In process client 1 finds client 0's entry; over TCP it misses
        // in a cache of its own, and the third session is untouched.
        assert_eq!(result_cache_counters(&inproc), [(1, 1)]);
        let mut per_session = result_cache_counters(&tcp);
        per_session.sort_unstable();
        assert_eq!(per_session, [(0, 0), (0, 1), (0, 1)]);
    }
}
