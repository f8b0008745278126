//! Real execution backends: the in-process receptionist and the
//! multiplexed TCP serving pool.
//!
//! Both embody the elastic fleet the same way: every librarian slot
//! (shard) is a [`ReplicaGroup`] of 1..R content-identical replicas,
//! wrapped in a [`ChaosTransport`] so the plan's fault windows inject at
//! the same architectural point the simulator injects its fault plans —
//! between the receptionist's fan-out and the shard. Membership steps
//! mutate the groups at run time: joins rebuild the subcollection from
//! the backend's per-shard document ledger (the migration handoff,
//! adopting the shard's index epoch so epoch-keyed caches cannot tell
//! replicas apart), leaves retire the preferred replica first. Every
//! change is published to a shared [`RoutingTable`] whose version feeds
//! the receptionists' cache-generation path. Both backends also keep a
//! private mono-server collection so `MS` query steps have a baseline.

use std::sync::{Arc, Mutex};

use teraphim_core::{CacheConfig, Librarian, QuerySession, Receptionist, ServePool};
use teraphim_engine::Collection;
use teraphim_net::mux::{MuxPool, MuxTransport};
use teraphim_net::tcp::TcpServer;
use teraphim_net::{
    DispatchMode, InProcTransport, Message, ReplicaGroup, RoutingTable, ServerOptions, Service,
    Transport,
};
use teraphim_obs::{trace_traffic_sums, EventKind, MetricsRegistry, TraceSink};
use teraphim_store::{IndexStore, TempDir};
use teraphim_text::sgml::TrecDoc;
use teraphim_text::Analyzer;

use crate::backend::{Accounting, Backend, Hit, QueryOutcome, TrafficTriple, CI};
use crate::chaos::{ChaosCell, ChaosState, ChaosTransport};
use crate::fixture::Fixture;
use crate::plan::{CacheSpec, DispatchChoice, FaultSpec, Plan, RunMode, MAX_REPLICAS};

fn to_chaos(fault: Option<FaultSpec>) -> ChaosState {
    match fault {
        None => ChaosState::Healthy,
        Some(FaultSpec::Down) => ChaosState::Down,
        Some(FaultSpec::Delay { ms }) => ChaosState::Delay(std::time::Duration::from_millis(ms)),
    }
}

fn to_dispatch(mode: DispatchChoice) -> DispatchMode {
    match mode {
        DispatchChoice::Sequential => DispatchMode::Sequential,
        DispatchChoice::Concurrent => DispatchMode::Concurrent,
        DispatchChoice::Pipelined => DispatchMode::Pipelined,
    }
}

fn to_cache_config(spec: CacheSpec) -> CacheConfig {
    CacheConfig {
        result_entries: spec.results as usize,
        result_shards: (spec.shards as usize).max(1),
        term_entries: spec.terms as usize,
        doc_bytes: spec.doc_bytes as usize,
    }
}

fn mono_collection(fixture: &Fixture) -> Collection {
    let all_docs: Vec<TrecDoc> = fixture
        .parts()
        .iter()
        .flat_map(|s| s.docs.iter().cloned())
        .collect();
    Collection::build("MS", Analyzer::default(), &all_docs)
}

fn mono_outcome(mono: &Collection, query: &str, k: usize) -> QueryOutcome {
    QueryOutcome {
        step: 0,
        hits: mono
            .ranked_query(query, k)
            .iter()
            .map(|s| Hit {
                lib: 0,
                doc: s.doc,
                score_bits: Some(s.score.to_bits()),
            })
            .collect(),
        failed: Vec::new(),
        error: None,
    }
}

fn coverage_outcome<T: Transport>(
    receptionist: &mut Receptionist<T>,
    mode: RunMode,
    query: &str,
    k: usize,
) -> QueryOutcome {
    let methodology = mode
        .methodology()
        .expect("MS is handled by the mono baseline");
    match receptionist.query_with_coverage(methodology, query, k) {
        Ok(answer) => QueryOutcome {
            step: 0,
            hits: answer
                .hits
                .iter()
                .map(|h| Hit {
                    lib: h.librarian as u64,
                    doc: h.doc,
                    score_bits: Some(h.score.to_bits()),
                })
                .collect(),
            failed: answer.coverage.failed.iter().map(|&l| l as u64).collect(),
            error: None,
        },
        Err(e) => QueryOutcome {
            step: 0,
            hits: Vec::new(),
            failed: Vec::new(),
            error: Some(crate::backend::normalize_error(&e)),
        },
    }
}

fn triple(stats: teraphim_net::TrafficStats) -> TrafficTriple {
    (stats.round_trips, stats.bytes_sent, stats.bytes_received)
}

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
    /// and stamp it with the shard's epoch and the fleet routing table.
    fn build_replica(&self, routing: &RoutingTable) -> SharedLibrarian {
        let mut lib = Librarian::build(&self.name, Analyzer::default(), &self.docs);
        lib.set_epoch(self.epoch);
        lib.set_routing_table(routing.clone());
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
fn crashed_librarian(name: &str, routing: &RoutingTable) -> Librarian {
    let docs = vec![TrecDoc {
        docno: "CRASHED-0".to_string(),
        text: "volatile state lost in crash".to_string(),
    }];
    let mut lib = Librarian::build(name, Analyzer::default(), &docs);
    lib.set_routing_table(routing.clone());
    lib
}

/// Rebuilds one replica's librarian from a recovered collection image.
fn recovered_librarian(bytes: &[u8], epoch: u64, routing: &RoutingTable) -> Librarian {
    let collection = Collection::from_bytes(bytes).expect("recovered collection deserializes");
    let mut lib = Librarian::from_collection(collection);
    lib.set_epoch(epoch);
    lib.set_routing_table(routing.clone());
    lib
}

/// Rotates `group`'s preference to the next live replica after the
/// current preferred one, in membership order. Returns the promoted id.
fn next_preferred<T: Transport>(group: &ReplicaGroup<T>) -> Option<u32> {
    let ids = group.replica_ids();
    let current = group.preferred_id()?;
    let pos = ids.iter().position(|&id| id == current)?;
    Some(ids[(pos + 1) % ids.len()])
}

/// The in-process backend: one receptionist over chaos-wrapped replica
/// groups of in-process transports, same process, same thread.
pub struct InProcBackend {
    receptionist: Receptionist<ChaosTransport<ReplicaGroup<InProcTransport<SharedLibrarian>>>>,
    shards: Vec<ShardState>,
    stores: FleetStores,
    members: Vec<Vec<(u32, SharedLibrarian)>>,
    groups: Vec<ReplicaGroup<InProcTransport<SharedLibrarian>>>,
    cells: Vec<ChaosCell>,
    routing: RoutingTable,
    next_id: u32,
    mono: Collection,
    sink: TraceSink,
    registry: Arc<MetricsRegistry>,
    cache_spec: Option<CacheSpec>,
}

impl InProcBackend {
    /// Builds the fleet (with `plan.replicas` replicas per shard) and
    /// preprocesses CV and CI state.
    pub fn new(plan: &Plan) -> InProcBackend {
        let fixture = Fixture::for_plan(plan);
        let shards = ShardState::from_fixture(&fixture);
        let stores = FleetStores::create("scen-inproc", &shards);
        let routing = RoutingTable::new();
        let n = shards.len();
        let per_shard = plan.replicas.clamp(1, MAX_REPLICAS) as usize;
        let mut next_id = n as u32;
        let members: Vec<Vec<(u32, SharedLibrarian)>> = shards
            .iter()
            .enumerate()
            .map(|(s, shard)| {
                (0..per_shard)
                    .map(|r| {
                        // The first replica keeps the shard's own index
                        // as its id, so a one-replica fleet reads like
                        // the pre-elastic fixed fleet.
                        let id = if r == 0 {
                            s as u32
                        } else {
                            next_id += 1;
                            next_id - 1
                        };
                        (id, shard.build_replica(&routing))
                    })
                    .collect()
            })
            .collect();
        let cells: Vec<ChaosCell> = (0..n).map(|_| ChaosCell::healthy()).collect();
        let groups: Vec<ReplicaGroup<InProcTransport<SharedLibrarian>>> = members
            .iter()
            .enumerate()
            .map(|(s, replicas)| {
                ReplicaGroup::new(
                    s as u32,
                    replicas
                        .iter()
                        .map(|(id, lib)| (*id, InProcTransport::new(lib.clone())))
                        .collect(),
                )
                .with_table(routing.clone())
            })
            .collect();
        let transports = groups
            .iter()
            .zip(&cells)
            .map(|(group, cell)| ChaosTransport::new(group.clone(), cell.clone()))
            .collect();
        let mut receptionist = Receptionist::new(transports, Analyzer::default());
        let sink = receptionist.enable_tracing();
        let registry = receptionist.enable_metrics();
        for group in &groups {
            let _ = group.clone().with_trace(sink.clone());
        }
        receptionist.set_routing_table(routing.clone());
        receptionist
            .enable_cv()
            .expect("healthy fleet preprocesses");
        receptionist
            .enable_ci(CI)
            .expect("healthy fleet preprocesses");
        InProcBackend {
            receptionist,
            mono: mono_collection(&fixture),
            shards,
            stores,
            members,
            groups,
            cells,
            routing,
            next_id,
            sink,
            registry,
            cache_spec: None,
        }
    }

    /// The fleet's routing table (for post-run inspection in tests).
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
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
        if let Some(spec) = self.cache_spec {
            self.receptionist.disable_cache();
            self.receptionist.enable_cache(to_cache_config(spec));
        }
    }
}

impl Backend for InProcBackend {
    fn name(&self) -> &'static str {
        "inproc"
    }

    fn num_libs(&self) -> usize {
        self.groups.len()
    }

    fn query(&mut self, _client: u64, mode: RunMode, query: &str, k: usize) -> QueryOutcome {
        match mode {
            RunMode::Ms => mono_outcome(&self.mono, query, k),
            _ => coverage_outcome(&mut self.receptionist, mode, query, k),
        }
    }

    fn add_docs(&mut self, lib: usize, docs: &[TrecDoc]) -> Result<(), String> {
        // Write-ahead: the WAL records the batch before any replica
        // applies it, so a later crash can only lose what the fleet
        // never acknowledged.
        self.stores.log_batch(lib, docs)?;
        self.shards[lib].docs.extend_from_slice(docs);
        self.shards[lib].epoch += 1;
        for (_, replica) in &self.members[lib] {
            replica.append(docs)?;
        }
        self.mono
            .append_documents(docs)
            .map_err(|e| format!("{e}"))?;
        self.receptionist.enable_cv().map_err(|e| format!("{e}"))?;
        self.receptionist
            .enable_ci(CI)
            .map_err(|e| format!("{e}"))?;
        Ok(())
    }

    fn apply_fault(&mut self, lib: usize, fault: Option<FaultSpec>) {
        self.cells[lib].set(to_chaos(fault));
        self.flush_cache();
    }

    fn kill(&mut self, lib: usize) {
        self.cells[lib].set(ChaosState::Down);
        self.flush_cache();
    }

    fn add_lib(&mut self, lib: usize) {
        let id = self.next_id;
        self.next_id += 1;
        let replica = self.shards[lib].build_replica(&self.routing);
        // The handoff is a traced operation of its own: a `migrate`
        // trace carrying the index transfer (`Migrate`) and the
        // membership change (`Join`, recorded by the group).
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
        self.groups[lib].add_replica(id, InProcTransport::new(replica.clone()));
        self.sink.record(EventKind::End);
        self.members[lib].push((id, replica));
        self.flush_cache();
    }

    fn remove_lib(&mut self, lib: usize) {
        if let Some(id) = self.groups[lib].preferred_id() {
            self.groups[lib].remove_replica(id);
            self.members[lib].retain(|(rid, _)| *rid != id);
        }
        self.flush_cache();
    }

    fn promote_replica(&mut self, lib: usize) {
        if let Some(next) = next_preferred(&self.groups[lib]) {
            self.groups[lib].promote(next);
        }
        self.flush_cache();
    }

    fn crash(&mut self, lib: usize) {
        // The "process" dies: the store handle goes with it and every
        // replica's memory is genuinely lost, so a reopen that did not
        // actually recover from disk cannot pass the differential.
        self.stores.crash(lib);
        for (_, replica) in &self.members[lib] {
            replica.replace(crashed_librarian(&self.shards[lib].name, &self.routing));
        }
        self.apply_fault(lib, Some(FaultSpec::Down));
    }

    fn reopen(&mut self, lib: usize) {
        let (bytes, epoch) = self.stores.reopen(lib);
        assert_eq!(
            epoch, self.shards[lib].epoch,
            "recovered epoch must match the shard ledger"
        );
        for (_, replica) in &self.members[lib] {
            replica.replace(recovered_librarian(&bytes, epoch, &self.routing));
        }
        self.apply_fault(lib, None);
    }

    fn set_cache(&mut self, spec: Option<CacheSpec>) {
        self.cache_spec = spec;
        match spec {
            Some(s) => self.receptionist.enable_cache(to_cache_config(s)),
            None => self.receptionist.disable_cache(),
        }
    }

    fn set_dispatch(&mut self, mode: DispatchChoice) {
        self.receptionist.set_dispatch_mode(to_dispatch(mode));
    }

    fn health_poll(&mut self) {
        let _ = self.receptionist.fleet_health();
    }

    fn accounting(&mut self) -> Accounting {
        let sums = trace_traffic_sums(&self.sink.take_traces());
        let totals = self.registry.snapshot().traffic_totals();
        Accounting {
            transport: Some(triple(self.receptionist.traffic())),
            trace: (sums.messages_sent, sums.bytes_sent, sums.bytes_received),
            registry: Some((totals.round_trips, totals.bytes_sent, totals.bytes_received)),
            wire_cap: None,
            sends_blocked: false,
            health_polls: 0,
        }
    }
}

/// One live TCP replica: its shared service, its server, and the
/// multiplexed connection pool every session's transport rides on.
struct TcpReplica {
    id: u32,
    lib: SharedLibrarian,
    server: TcpServer,
    pool: Arc<MuxPool>,
}

fn spawn_replica(id: u32, shard: &ShardState, routing: &RoutingTable) -> TcpReplica {
    let lib = shard.build_replica(routing);
    let server = TcpServer::spawn_with(
        vec![lib.clone(), lib.clone()],
        "127.0.0.1:0",
        ServerOptions {
            workers: 2,
            queue_depth: 64,
        },
    )
    .expect("loopback server spawns");
    let pool = MuxPool::connect(server.addr(), 2, teraphim_net::TcpOptions::default())
        .expect("loopback connects");
    TcpReplica {
        id,
        lib,
        server,
        pool,
    }
}

/// The full-stack backend: one TCP server per replica, multiplexed
/// connections bundled into per-shard replica groups, and a
/// [`ServePool`] of forked sessions — one checked out per plan client
/// for the duration of the run (PR 6's serving architecture under
/// scripted load).
pub struct TcpBackend {
    replicas: Vec<Vec<TcpReplica>>,
    sessions: Vec<QuerySession<ChaosTransport<ReplicaGroup<MuxTransport>>>>,
    /// Each session owns its transports, so membership changes are
    /// applied to every session's group for the same shard in lockstep.
    session_groups: Vec<Vec<ReplicaGroup<MuxTransport>>>,
    shards: Vec<ShardState>,
    stores: FleetStores,
    cells: Vec<ChaosCell>,
    routing: RoutingTable,
    next_id: u32,
    mono: Collection,
    sink: TraceSink,
    registry: Arc<MetricsRegistry>,
    cache_spec: Option<CacheSpec>,
}

impl TcpBackend {
    /// Spawns the fleet (with `plan.replicas` servers per shard),
    /// preprocesses once on a prototype, and checks one pipelined
    /// session out of the pool per plan client.
    pub fn new(plan: &Plan) -> TcpBackend {
        let fixture = Fixture::for_plan(plan);
        let shards = ShardState::from_fixture(&fixture);
        let stores = FleetStores::create("scen-tcp", &shards);
        let routing = RoutingTable::new();
        let n = shards.len();
        let per_shard = plan.replicas.clamp(1, MAX_REPLICAS) as usize;
        let mut next_id = n as u32;
        let replicas: Vec<Vec<TcpReplica>> = shards
            .iter()
            .enumerate()
            .map(|(s, shard)| {
                (0..per_shard)
                    .map(|r| {
                        let id = if r == 0 {
                            s as u32
                        } else {
                            next_id += 1;
                            next_id - 1
                        };
                        spawn_replica(id, shard, &routing)
                    })
                    .collect()
            })
            .collect();
        let cells: Vec<ChaosCell> = (0..n).map(|_| ChaosCell::healthy()).collect();

        let mut prototype = Receptionist::new(
            replicas
                .iter()
                .map(|group| MuxTransport::new(Arc::clone(&group[0].pool)))
                .collect::<Vec<_>>(),
            Analyzer::default(),
        );
        prototype.enable_cv().expect("healthy fleet preprocesses");
        prototype.enable_ci(CI).expect("healthy fleet preprocesses");

        let sink = TraceSink::new();
        let registry = Arc::new(MetricsRegistry::new());
        sink.tee_metrics(Arc::clone(&registry));

        let clients = plan.clients.max(1) as usize;
        let mut session_groups: Vec<Vec<ReplicaGroup<MuxTransport>>> = Vec::new();
        let pool = ServePool::new(
            (0..clients)
                .map(|client| {
                    let groups: Vec<ReplicaGroup<MuxTransport>> = replicas
                        .iter()
                        .enumerate()
                        .map(|(s, shard_replicas)| {
                            let group = ReplicaGroup::new(
                                s as u32,
                                shard_replicas
                                    .iter()
                                    .map(|r| (r.id, MuxTransport::new(Arc::clone(&r.pool))))
                                    .collect(),
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
                    let mut session = prototype.fork(
                        groups
                            .iter()
                            .zip(&cells)
                            .map(|(group, cell)| ChaosTransport::new(group.clone(), cell.clone()))
                            .collect::<Vec<_>>(),
                    );
                    session.set_dispatch_mode(DispatchMode::Pipelined);
                    session.set_trace_sink(sink.clone());
                    session.set_routing_table(routing.clone());
                    session_groups.push(groups);
                    session
                })
                .collect(),
        );
        let sessions: Vec<QuerySession<ChaosTransport<ReplicaGroup<MuxTransport>>>> =
            (0..clients).map(|_| pool.session()).collect();

        TcpBackend {
            replicas,
            sessions,
            session_groups,
            mono: mono_collection(&fixture),
            shards,
            stores,
            cells,
            routing,
            next_id,
            sink,
            registry,
            cache_spec: None,
        }
    }

    fn flush_cache(&mut self) {
        if let Some(spec) = self.cache_spec {
            for session in &mut self.sessions {
                session.disable_cache();
                session.enable_cache(to_cache_config(spec));
            }
        }
    }

    /// The fleet's routing table (for post-run inspection in tests).
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// Drains the backend's buffered traces (queries, preprocessing,
    /// migrations) — for golden-trace tests. Calling this mid-run steals
    /// traffic from the accounting summary; use on dedicated instances.
    pub fn take_traces(&self) -> Vec<teraphim_obs::QueryTrace> {
        self.sink.take_traces()
    }

    /// Server-side traffic counters, summed over the fleet (includes
    /// prototype preprocessing; useful for inspecting runs in tests).
    pub fn server_traffic(&self) -> teraphim_net::TrafficStats {
        let mut total = teraphim_net::TrafficStats::default();
        for shard in &self.replicas {
            for replica in shard {
                total.absorb(&replica.server.traffic());
            }
        }
        total
    }
}

impl Backend for TcpBackend {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn num_libs(&self) -> usize {
        self.replicas.len()
    }

    fn query(&mut self, client: u64, mode: RunMode, query: &str, k: usize) -> QueryOutcome {
        match mode {
            RunMode::Ms => mono_outcome(&self.mono, query, k),
            _ => {
                let session = (client as usize) % self.sessions.len();
                coverage_outcome(&mut self.sessions[session], mode, query, k)
            }
        }
    }

    fn add_docs(&mut self, lib: usize, docs: &[TrecDoc]) -> Result<(), String> {
        // Write-ahead, as in the in-process backend: durable first.
        self.stores.log_batch(lib, docs)?;
        self.shards[lib].docs.extend_from_slice(docs);
        self.shards[lib].epoch += 1;
        for replica in &self.replicas[lib] {
            replica.lib.append(docs)?;
        }
        self.mono
            .append_documents(docs)
            .map_err(|e| format!("{e}"))?;
        // Forked sessions keep their own Arc'd CV/CI state: each one
        // must re-run preprocessing to observe the new epoch.
        for session in &mut self.sessions {
            session.enable_cv().map_err(|e| format!("{e}"))?;
            session.enable_ci(CI).map_err(|e| format!("{e}"))?;
        }
        Ok(())
    }

    fn apply_fault(&mut self, lib: usize, fault: Option<FaultSpec>) {
        self.cells[lib].set(to_chaos(fault));
        self.flush_cache();
    }

    fn kill(&mut self, lib: usize) {
        // The chaos cell is the kill switch: every session's transport
        // to this librarian refuses from now on and the runner never
        // clears it. The server objects stay alive so in-flight reader
        // threads shut down cleanly with the backend.
        self.cells[lib].set(ChaosState::Down);
        self.flush_cache();
    }

    fn add_lib(&mut self, lib: usize) {
        let id = self.next_id;
        self.next_id += 1;
        let replica = spawn_replica(id, &self.shards[lib], &self.routing);
        // Same `migrate` trace schema as the in-process backend; one
        // `Join` per session group (each session's membership moves).
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
            groups[lib].add_replica(id, MuxTransport::new(Arc::clone(&replica.pool)));
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
            // Dropping the TcpReplica closes its mux pool (the groups
            // just dropped the last transports riding it) and shuts the
            // server down.
            self.replicas[lib].retain(|r| r.id != id);
        }
        self.flush_cache();
    }

    fn promote_replica(&mut self, lib: usize) {
        if let Some(next) = next_preferred(&self.session_groups[0][lib]) {
            for groups in &self.session_groups {
                groups[lib].promote(next);
            }
        }
        self.flush_cache();
    }

    fn crash(&mut self, lib: usize) {
        // Servers and mux pools stay up (the harness is one OS
        // process), but the service behind every connection is swapped
        // for a placeholder: the shard's memory is gone and only the
        // on-disk store can bring it back.
        self.stores.crash(lib);
        for replica in &self.replicas[lib] {
            replica
                .lib
                .replace(crashed_librarian(&self.shards[lib].name, &self.routing));
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
            replica
                .lib
                .replace(recovered_librarian(&bytes, epoch, &self.routing));
        }
        self.apply_fault(lib, None);
    }

    fn set_cache(&mut self, spec: Option<CacheSpec>) {
        self.cache_spec = spec;
        for session in &mut self.sessions {
            match spec {
                Some(s) => session.enable_cache(to_cache_config(s)),
                None => session.disable_cache(),
            }
        }
    }

    fn set_dispatch(&mut self, mode: DispatchChoice) {
        for session in &mut self.sessions {
            session.set_dispatch_mode(to_dispatch(mode));
        }
    }

    fn health_poll(&mut self) {
        let _ = self.sessions[0].fleet_health();
    }

    fn accounting(&mut self) -> Accounting {
        let sums = trace_traffic_sums(&self.sink.take_traces());
        let totals = self.registry.snapshot().traffic_totals();
        let mut transport = teraphim_net::TrafficStats::default();
        for session in &self.sessions {
            transport.absorb(&session.traffic());
        }
        Accounting {
            transport: Some(triple(transport)),
            trace: (sums.messages_sent, sums.bytes_sent, sums.bytes_received),
            registry: Some((totals.round_trips, totals.bytes_sent, totals.bytes_received)),
            wire_cap: None,
            sends_blocked: false,
            health_polls: 0,
        }
    }
}
