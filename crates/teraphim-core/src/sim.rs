//! The simulation driver: replaying real query plans against the
//! virtual-time resource model.
//!
//! For Tables 3 and 4 the paper measures per-query elapsed time on four
//! hardware configurations. This driver executes the *actual* methodology
//! logic — real rankings, real message encodings, real compressed list
//! and document sizes — and charges every step to a
//! [`teraphim_simnet::SimNetwork`]:
//!
//! * each protocol message costs its true encoded size on the sending
//!   link;
//! * each librarian's index work costs one disk pass over the compressed
//!   inverted lists it touches (seek per list + transfer) plus CPU
//!   proportional to postings actually decoded;
//! * merging costs receptionist CPU proportional to entries merged;
//! * document fetches cost disk + wire transfer of the real compressed
//!   document bytes, per-document for CN/CV (as in the paper's
//!   implementation) and bundled per librarian for CI (whose candidates
//!   arrive as ranges — see DESIGN.md).
//!
//! What the simulator shares with the real path is the arithmetic: the
//! ranking kernels, `merge_rankings`, `global_weights` and the message
//! encodings. What it deliberately keeps its own is the execution: one
//! virtual-time fan-out (`SimDriver::fan_out`, which alone applies the
//! fault plans), its failure semantics and the merge orchestration. That
//! independence is what `tests/sim_vs_real.rs` and the scenario engine's
//! differential test: two executions, written separately, must agree.

use crate::methodology::{CiParams, Methodology};
use crate::receptionist::{global_weights, global_weights_from_grouped};
use crate::TeraphimError;
use std::collections::BTreeMap;

use teraphim_engine::ranking::{self, ScoredDoc, WeightedTerm};
use teraphim_engine::{candidates, Collection, RankScratch};
use teraphim_index::stats::merge_stats;
use teraphim_index::{CollectionStats, DocId, GroupedIndex, Vocabulary};
use teraphim_net::{DispatchMode, FaultAction, FaultPlan, Message};
use teraphim_obs::{EventKind, LibCandidates, Phase, TraceSink};
use teraphim_simnet::{CostModel, SimNetwork, SimTime, Topology};
use teraphim_text::sgml::TrecDoc;
use teraphim_text::Analyzer;

/// What system the simulation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimMode {
    /// The mono-server baseline: one engine over the whole collection,
    /// no receptionist traffic.
    MonoServer,
    /// A distributed system under the given methodology.
    Distributed(Methodology),
}

impl std::fmt::Display for SimMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimMode::MonoServer => write!(f, "MS"),
            SimMode::Distributed(m) => write!(f, "{m}"),
        }
    }
}

/// The simulated cost of one query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryCost {
    /// Elapsed seconds for steps 1–3 (index processing; Table 3).
    pub index_time: SimTime,
    /// Elapsed seconds for steps 1–4 (including document fetch;
    /// Table 4).
    pub total_time: SimTime,
    /// Total message payload bytes that crossed links.
    pub bytes_on_wire: u64,
    /// Postings decoded across all machines.
    pub postings_decoded: u64,
    /// Total CPU service seconds consumed across all machines — the
    /// paper's resource-use axis, distinct from response time.
    pub cpu_busy: f64,
    /// Total disk service seconds consumed across all disks.
    pub disk_busy: f64,
    /// Total link serialization seconds consumed.
    pub link_busy: f64,
    /// The final ranking `(librarian, doc)` (librarian 0 for MS), for
    /// cross-checking against the real driver.
    pub hits: Vec<(usize, DocId)>,
    /// Librarians whose subquery failed under an injected
    /// [`FaultPlan`], in index order — the virtual-time mirror of
    /// `Coverage::failed` on the real driver. Empty on healthy runs.
    pub failed: Vec<usize>,
}

/// Fetch strategies for step 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FetchPlan {
    /// One request/response round trip *per document* (the paper's
    /// implementation; its analysis notes documents "should be bundled").
    PerDocument,
    /// One round trip per librarian carrying all its documents.
    Bundled,
}

/// The simulation driver. Owns librarian-side collections plus the
/// receptionist's global state, mirroring a full deployment.
#[derive(Debug)]
pub struct SimDriver {
    analyzer: Analyzer,
    parts: Vec<Collection>,
    mono: Collection,
    global_vocab: Vocabulary,
    global_stats: CollectionStats,
    grouped: GroupedIndex,
    ci_params: CiParams,
    /// Use self-indexing skips for CI candidate scoring. The paper's
    /// experiments ran *without* skipping; the `skipping` bench flips
    /// this.
    pub skipping: bool,
    /// Bundle CN/CV document fetches too (ablation; default false).
    pub bundle_all_fetches: bool,
    /// How the librarian fan-out is scheduled (steps 1–3) in virtual
    /// time: the *maximum* of the librarians' times under `Pipelined`
    /// (the paper's parallel-machines model), their *sum* under
    /// `Sequential`. Rankings are identical either way.
    pub dispatch: DispatchMode,
    /// Per-librarian fault plans (same [`FaultPlan`] type the real
    /// transports use), consulted once per subquery a librarian
    /// receives.
    fault_plans: Vec<Option<FaultPlan>>,
    /// Subqueries sent to each librarian so far — the request sequence
    /// numbers the fault plans are evaluated at. Persists across
    /// queries, like a real transport's request counter.
    fault_requests: Vec<u64>,
    /// Master scenario seed ([`SimDriver::set_seed`]); every stochastic
    /// consumer derives its stream from this via [`derive_seed`].
    seed: u64,
    /// Structured trace sink (disabled by default). Simulated queries
    /// emit the same event schema as the real receptionist, stamped
    /// with *virtual* microseconds instead of wall-clock ones.
    trace: TraceSink,
}

/// Virtual seconds → whole trace microseconds.
fn micros(t: SimTime) -> u64 {
    (t * 1e6).round() as u64
}

/// Derives a decorrelated sub-seed from one master seed: the splitmix64
/// finalizer over `master + stream`, so a scenario stamps *one* seed
/// and every consumer — plan generation, per-librarian fault schedules,
/// churn document synthesis — draws an independent stream from it
/// instead of hand-rolling its own constants.
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    let mut z = master
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-exchange observability data captured while jobs are built,
/// recorded once the schedule assigns virtual times.
struct ExchangeTrace {
    lib: u32,
    req_bytes: u64,
    req_msg: &'static str,
    /// `(bytes, message)` when a reply crosses the wire back.
    reply: Option<(u64, &'static str)>,
    /// `(candidates, postings)` for CI scoring replies.
    scored: Option<(u32, u64)>,
    /// Injected fault that fired on this exchange.
    fault: Option<&'static str>,
    /// Error kind when the librarian drops out of the merge — the same
    /// kind the real transports surface for the same fault.
    failed: Option<&'static str>,
}

/// Records one fan-out's worth of exchange events at their scheduled
/// virtual times. Event order per librarian (`sent` → `reply` →
/// `scored` → `lib_failed`) mirrors the real dispatch path.
fn record_fanout(
    trace: &TraceSink,
    exchanges: &[ExchangeTrace],
    send_at: &[SimTime],
    back_at: &[SimTime],
) {
    if !trace.is_enabled() {
        return;
    }
    for (i, ex) in exchanges.iter().enumerate() {
        let send = micros(send_at[i]);
        let back = micros(back_at[i]);
        trace.record_at(
            send,
            EventKind::Sent {
                librarian: ex.lib,
                bytes: ex.req_bytes,
                message: ex.req_msg,
            },
        );
        if let Some(action) = ex.fault {
            trace.record_at(
                send,
                EventKind::Fault {
                    librarian: ex.lib,
                    action,
                },
            );
        }
        if let Some((bytes, message)) = ex.reply {
            trace.record_at(
                back,
                EventKind::Reply {
                    librarian: ex.lib,
                    bytes,
                    message,
                },
            );
            // Rule A: every reply is followed by the four server-phase
            // events. The simulator has no server-side clock, so the
            // durations are zero — the structure still matches the real
            // transports byte-for-byte after normalization.
            for (phase, _) in teraphim_obs::ServerTimings::default().as_pairs() {
                trace.record_at(
                    back,
                    EventKind::ServerPhase {
                        librarian: ex.lib,
                        phase,
                        micros: 0,
                    },
                );
            }
        }
        if let Some((candidates, postings)) = ex.scored {
            trace.record_at(
                back,
                EventKind::Scored {
                    librarian: ex.lib,
                    candidates,
                    postings,
                },
            );
        }
        if let Some(error) = ex.failed {
            trace.record_at(
                back,
                EventKind::LibFailed {
                    librarian: ex.lib,
                    error,
                },
            );
        }
    }
}

impl SimDriver {
    /// Builds the driver: one collection per part, the merged mono-server
    /// collection, the CV global statistics, and the CI grouped index.
    ///
    /// # Errors
    ///
    /// Propagates index-construction failures.
    pub fn new(
        parts: &[(&str, &[TrecDoc])],
        analyzer: Analyzer,
        ci_params: CiParams,
    ) -> Result<Self, TeraphimError> {
        let collections: Vec<Collection> = parts
            .iter()
            .map(|(name, docs)| Collection::build(name, analyzer.clone(), docs))
            .collect();
        let all_docs: Vec<TrecDoc> = parts
            .iter()
            .flat_map(|(_, docs)| docs.iter().cloned())
            .collect();
        let mono = Collection::build("MS", analyzer.clone(), &all_docs);
        let stat_parts: Vec<(&Vocabulary, &CollectionStats)> = collections
            .iter()
            .map(|c| (c.index().vocab(), c.index().stats()))
            .collect();
        let (global_vocab, global_stats, _) = merge_stats(&stat_parts);
        let indexes: Vec<&teraphim_index::InvertedIndex> =
            collections.iter().map(Collection::index).collect();
        let grouped = GroupedIndex::build(&indexes, ci_params.group_size)?;
        let num_parts = collections.len();
        Ok(SimDriver {
            analyzer,
            parts: collections,
            mono,
            global_vocab,
            global_stats,
            grouped,
            ci_params,
            skipping: false,
            bundle_all_fetches: false,
            dispatch: DispatchMode::default(),
            fault_plans: vec![None; num_parts],
            fault_requests: vec![0; num_parts],
            seed: 0,
            trace: TraceSink::disabled(),
        })
    }

    /// Stamps the master seed all derived randomness flows from. The
    /// driver itself is deterministic; the seed exists so that plan
    /// generators and seeded fault schedules built *around* the driver
    /// share one root instead of each hand-rolling constants.
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    /// The master seed last stamped with [`SimDriver::set_seed`]
    /// (0 until then).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A decorrelated sub-seed for `stream`, derived from the master
    /// seed — the handle plan generation and fault schedules draw from.
    pub fn stream_seed(&self, stream: u64) -> u64 {
        derive_seed(self.seed, stream)
    }

    /// Installs a seeded random-failure plan for `lib` whose seed is
    /// derived from the master seed (stream = librarian index), so
    /// "librarian `lib` fails ~`permille`/1000 of its subqueries" needs
    /// no per-call seed bookkeeping.
    ///
    /// # Panics
    ///
    /// Panics if `lib` is out of range.
    pub fn seeded_fault_plan(&mut self, lib: usize, permille: u16) {
        let seed = self.stream_seed(lib as u64);
        self.set_fault_plan(lib, FaultPlan::new().seeded_failures(seed, permille));
    }

    /// Attaches a trace sink; pass [`TraceSink::disabled`] to stop
    /// tracing.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// The sink simulated queries currently record into.
    pub fn trace_sink(&self) -> &TraceSink {
        &self.trace
    }

    /// Creates a fresh enabled sink labelled `"sim"`, attaches it, and
    /// returns it.
    pub fn enable_tracing(&mut self) -> TraceSink {
        let sink = TraceSink::for_driver("sim");
        self.trace = sink.clone();
        sink
    }

    /// Number of librarians.
    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }

    /// Injects a fault plan for one simulated librarian — the *same*
    /// deterministic `FaultPlan` the real transports accept, so a
    /// scenario exercised against real librarians can be replayed in
    /// virtual time. Plans are evaluated per subquery (rank/score
    /// exchange); a failed librarian drops out of the merge and is
    /// reported in [`QueryCost::failed`], while [`FaultAction::Delay`]
    /// slows its reply without excluding it.
    ///
    /// # Panics
    ///
    /// Panics if `lib` is out of range.
    pub fn set_fault_plan(&mut self, lib: usize, plan: FaultPlan) {
        self.fault_plans[lib] = Some(plan);
    }

    /// Removes all fault plans and resets the per-librarian request
    /// counters, restoring a healthy fleet.
    pub fn clear_fault_plans(&mut self) {
        self.fault_plans = vec![None; self.parts.len()];
        self.fault_requests = vec![0; self.parts.len()];
    }

    /// The fault (if any) striking librarian `lib`'s next subquery, and
    /// advances its request counter.
    fn next_fault(&mut self, lib: usize) -> Option<FaultAction> {
        let n = self.fault_requests[lib];
        self.fault_requests[lib] += 1;
        self.fault_plans[lib]
            .as_ref()
            .and_then(|plan| plan.action_for(n))
            .copied()
    }

    /// Appends documents to one simulated librarian and rebuilds every
    /// derived product the same way a real deployment's reindexing
    /// cycle would: the librarian's own index (incremental merge, as
    /// `Librarian::collection_mut().append_documents` does), the
    /// mono-server baseline, the CV global vocabulary/statistics, and
    /// the CI grouped index. This is the plan-execution hook that lets
    /// a scenario's index-churn steps replay identically in virtual
    /// time and against live librarians.
    ///
    /// # Panics
    ///
    /// Panics if `lib` is out of range.
    ///
    /// # Errors
    ///
    /// Propagates index merge/rebuild failures.
    pub fn append_documents(&mut self, lib: usize, docs: &[TrecDoc]) -> Result<(), TeraphimError> {
        self.parts[lib].append_documents(docs)?;
        self.mono.append_documents(docs)?;
        let stat_parts: Vec<(&Vocabulary, &CollectionStats)> = self
            .parts
            .iter()
            .map(|c| (c.index().vocab(), c.index().stats()))
            .collect();
        let (global_vocab, global_stats, _) = merge_stats(&stat_parts);
        self.global_vocab = global_vocab;
        self.global_stats = global_stats;
        let indexes: Vec<&teraphim_index::InvertedIndex> =
            self.parts.iter().map(Collection::index).collect();
        self.grouped = GroupedIndex::build(&indexes, self.ci_params.group_size)?;
        Ok(())
    }

    /// The grouped central index (for size reports).
    pub fn grouped(&self) -> &GroupedIndex {
        &self.grouped
    }

    /// The merged mono-server collection.
    pub fn mono(&self) -> &Collection {
        &self.mono
    }

    /// Simulates one query on a fresh (idle) resource model, as the
    /// paper measured response time on idle machines.
    ///
    /// # Errors
    ///
    /// Returns [`TeraphimError::BadParameters`] for invalid CI
    /// configurations, and index failures otherwise.
    pub fn time_query(
        &mut self,
        topo: &Topology,
        cost: &CostModel,
        mode: SimMode,
        query: &str,
        k: usize,
    ) -> Result<QueryCost, TeraphimError> {
        let mut net = SimNetwork::new(topo, cost.clone());
        let methodology = match mode {
            SimMode::MonoServer => "MS",
            SimMode::Distributed(m) => m.code(),
        };
        self.trace.record_at(
            0,
            EventKind::Begin {
                op: "query",
                methodology: Some(methodology),
                query_id: 0,
                k: k as u32,
            },
        );
        let outcome = match mode {
            SimMode::MonoServer => self.run_mono(&mut net, query, k),
            SimMode::Distributed(Methodology::CentralNothing) => {
                self.run_cn_cv(&mut net, query, k, false)
            }
            SimMode::Distributed(Methodology::CentralVocabulary) => {
                self.run_cn_cv(&mut net, query, k, true)
            }
            SimMode::Distributed(Methodology::CentralIndex) => self.run_ci(&mut net, query, k),
        };
        let end_at = outcome.as_ref().map_or(0, |c| micros(c.total_time));
        self.trace.record_at(end_at, EventKind::End);
        let mut result = outcome?;
        result.cpu_busy = net.total_cpu_busy();
        result.disk_busy = net.total_disk_busy();
        result.link_busy = net.total_link_busy();
        Ok(result)
    }

    /// Averages [`SimDriver::time_query`] over a query set.
    ///
    /// # Errors
    ///
    /// Propagates the first query failure.
    pub fn time_query_set(
        &mut self,
        topo: &Topology,
        cost: &CostModel,
        mode: SimMode,
        queries: &[&str],
        k: usize,
    ) -> Result<(f64, f64), TeraphimError> {
        let mut index_sum = 0.0;
        let mut total_sum = 0.0;
        for q in queries {
            let c = self.time_query(topo, cost, mode, q, k)?;
            index_sum += c.index_time;
            total_sum += c.total_time;
        }
        let n = queries.len().max(1) as f64;
        Ok((index_sum / n, total_sum / n))
    }

    /// Reserves a batch of transfers in *ready-time order*, which is what
    /// keeps shared resources (the LAN's ethernet cable) causally
    /// consistent: a message that is ready earlier must be offered the
    /// medium earlier, regardless of the order the driver happens to
    /// enumerate librarians. Returns completion times in input order.
    fn transfer_batch(
        net: &mut SimNetwork,
        items: &[(usize, SimTime, usize)],
        to_librarian: bool,
    ) -> Vec<SimTime> {
        let mut order: Vec<usize> = (0..items.len()).collect();
        order.sort_by(|&a, &b| {
            items[a]
                .1
                .partial_cmp(&items[b].1)
                .expect("finite times")
                .then(items[a].0.cmp(&items[b].0))
        });
        let mut out = vec![0.0; items.len()];
        for idx in order {
            let (lib, ready, bytes) = items[idx];
            out[idx] = if to_librarian {
                net.send_to_librarian(lib, ready, bytes)
            } else {
                net.send_to_receptionist(lib, ready, bytes)
            };
        }
        out
    }

    /// Charges the fan-out schedule for `jobs` — one `(librarian,
    /// request bytes, job)` per contacted librarian — under the current
    /// [`DispatchMode`]. Returns the time the last reply (or observed
    /// reset) is in, plus each job's request-departure time and
    /// reply-arrival (or reset-observed) time.
    fn schedule_fanout(
        &self,
        net: &mut SimNetwork,
        start: SimTime,
        jobs: &[(usize, usize, SimJob)],
    ) -> (SimTime, Vec<SimTime>, Vec<SimTime>) {
        match self.dispatch {
            DispatchMode::Pipelined => {
                // All requests leave the receptionist together; the
                // fan-out completes with the slowest librarian.
                let req_items: Vec<(usize, SimTime, usize)> = jobs
                    .iter()
                    .map(|&(lib, req_len, _)| (lib, start, req_len))
                    .collect();
                let arrivals = Self::transfer_batch(net, &req_items, true);
                let send_at = vec![start; jobs.len()];
                let mut back_at = vec![start; jobs.len()];
                let mut done = start;
                let mut resp_items: Vec<(usize, SimTime, usize)> = Vec::with_capacity(jobs.len());
                let mut resp_idx: Vec<usize> = Vec::with_capacity(jobs.len());
                for (i, (lib, _, job)) in jobs.iter().enumerate() {
                    let t_done = charge_librarian(net, *lib, arrivals[i], job);
                    if job.resp_len > 0 {
                        resp_items.push((*lib, t_done, job.resp_len));
                        resp_idx.push(i);
                    } else {
                        // Dropped connection: the receptionist observes
                        // the reset when it happens, with no reply leg.
                        back_at[i] = t_done;
                        done = done.max(t_done);
                    }
                }
                let backs = Self::transfer_batch(net, &resp_items, false);
                for (j, &i) in resp_idx.iter().enumerate() {
                    back_at[i] = backs[j];
                }
                let ready = backs.iter().cloned().fold(done, f64::max);
                (ready, send_at, back_at)
            }
            DispatchMode::Sequential => {
                // Each exchange completes before the next begins.
                let mut t = start;
                let mut send_at = Vec::with_capacity(jobs.len());
                let mut back_at = Vec::with_capacity(jobs.len());
                for (lib, req_len, job) in jobs {
                    send_at.push(t);
                    let t_arrive = net.send_to_librarian(*lib, t, *req_len);
                    let t_done = charge_librarian(net, *lib, t_arrive, job);
                    t = if job.resp_len > 0 {
                        net.send_to_receptionist(*lib, t_done, job.resp_len)
                    } else {
                        t_done
                    };
                    back_at.push(t);
                }
                (t, send_at, back_at)
            }
        }
    }

    /// Records a phase opening at virtual time `at`.
    fn phase_start(&self, at: SimTime, phase: Phase) {
        self.trace
            .record_at(micros(at), EventKind::PhaseStart { phase });
    }

    /// Records a phase closing at virtual time `at`.
    fn phase_end(&self, at: SimTime, phase: Phase) {
        self.trace
            .record_at(micros(at), EventKind::PhaseEnd { phase });
    }

    fn term_counts(&self, query: &str) -> Vec<(String, u32)> {
        let mut counts: BTreeMap<String, u32> = BTreeMap::new();
        for term in self.analyzer.analyze(query) {
            *counts.entry(term).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    // ------------------------------------------------------------------
    // Mono-server baseline
    // ------------------------------------------------------------------

    fn run_mono(
        &mut self,
        net: &mut SimNetwork,
        query: &str,
        k: usize,
    ) -> Result<QueryCost, TeraphimError> {
        let terms = self.term_counts(query);
        let pairs: Vec<(teraphim_index::TermId, u32)> = terms
            .iter()
            .filter_map(|(t, f)| self.mono.index().vocab().term_id(t).map(|id| (id, *f)))
            .collect();
        let weighted = ranking::local_weights(self.mono.index(), &pairs);
        let work = index_work_on(self.mono.index(), &weighted);
        let hits = ranking::rank(self.mono.index(), &weighted, k);

        // Disk pass over the touched lists, then CPU, on the single
        // machine (librarian slot 0 is co-located in the MS topology).
        let t_parse = net.receptionist_cpu(0.0, net.cost().cpu_query_overhead);
        self.phase_start(t_parse, Phase::RankFanout);
        let t_disk = net.receptionist_disk_read(t_parse, work.list_bytes, work.seeks);
        let cost = net.cost().clone();
        let t_cpu = net.receptionist_cpu(
            t_disk,
            work.postings as f64 * cost.cpu_per_posting + cost.merge_cpu(work.postings),
        );
        let index_time = t_cpu;
        self.trace.record_at(
            micros(index_time),
            EventKind::Merge {
                entries: hits.len() as u64,
                k: k as u32,
            },
        );
        self.phase_end(index_time, Phase::RankFanout);
        self.phase_start(index_time, Phase::DocFetch);

        // Fetch: per-document disk reads, no network.
        let mut t_fetch = index_time;
        let mut plain_bytes = 0usize;
        for h in &hits {
            let body = self
                .mono
                .store()
                .compressed_bytes(h.doc)
                .map_err(TeraphimError::Engine)?
                .len();
            plain_bytes += self.mono.fetch(h.doc).map_err(TeraphimError::Engine)?.len();
            t_fetch = net.receptionist_disk_read(t_fetch, body, 1);
        }
        let total_time = net.receptionist_cpu(t_fetch, cost.decompress_cpu(plain_bytes));
        self.phase_end(total_time, Phase::DocFetch);

        Ok(QueryCost {
            index_time,
            total_time,
            bytes_on_wire: 0,
            postings_decoded: work.postings,
            cpu_busy: 0.0,
            disk_busy: 0.0,
            link_busy: 0.0,
            hits: hits.into_iter().map(|h| (0usize, h.doc)).collect(),
            failed: Vec::new(),
        })
    }

    // ------------------------------------------------------------------
    // The virtual-time fan-out (steps 2–3 up to the last reply) and the
    // merge-and-fetch tail every distributed methodology shares
    // ------------------------------------------------------------------

    /// Sends each librarian its sub-query (`None` = not contacted) and
    /// charges the exchange schedule from `start`. `answer` says what a
    /// healthy librarian does with a request at its collection; this
    /// function alone decides what the fault plans let through: `Fail`
    /// answers a small `Unavailable` without doing the work, `Drop`
    /// resets the connection (request leg only), `Garble` does the work
    /// but its reply cannot be trusted, `Delay` answers normally, late.
    /// All but `Delay` drop the librarian out of the merge.
    fn fan_out(
        &mut self,
        net: &mut SimNetwork,
        start: SimTime,
        requests: &[Option<Message>],
        answer: impl Fn(&Collection, &Message) -> Result<Answer, TeraphimError>,
    ) -> Result<FanOut, TeraphimError> {
        // Evaluate every contacted librarian first (pure computation,
        // one fault-plan consultation per sub-query actually sent);
        // virtual time is charged below, under the chosen schedule.
        let mut out = FanOut {
            ready: start,
            lists: Vec::new(),
            failed: Vec::new(),
            bytes_on_wire: 0,
            postings: 0,
        };
        let mut jobs: Vec<(usize, usize, SimJob)> = Vec::new();
        let mut exchanges: Vec<ExchangeTrace> = Vec::new();
        for (lib, request) in requests.iter().enumerate() {
            let Some(request) = request else { continue };
            let fault = self.next_fault(lib);
            let req_len = request.wire_len();
            let mut job = SimJob::default();
            let mut exchange = ExchangeTrace {
                lib: lib as u32,
                req_bytes: req_len as u64,
                req_msg: request.variant_name(),
                reply: None,
                scored: None,
                fault: fault.map(|f| f.name()),
                failed: None,
            };
            match fault {
                Some(FaultAction::Fail) => {
                    let reply = Message::Unavailable {
                        message: "injected fault".into(),
                    };
                    job.resp_len = reply.wire_len();
                    exchange.failed = Some("unavailable");
                }
                Some(FaultAction::Drop) => exchange.failed = Some("disconnected"),
                Some(FaultAction::Garble | FaultAction::Delay(_)) | None => {
                    let Answer { reply, work, cpu } = answer(&self.parts[lib], request)?;
                    job = SimJob {
                        work,
                        cpu,
                        resp_len: reply.wire_len(),
                        delay: match fault {
                            Some(FaultAction::Delay(d)) => d.as_secs_f64(),
                            _ => 0.0,
                        },
                    };
                    exchange.reply = Some((job.resp_len as u64, reply.variant_name()));
                    let (ranking, scored) = reply_ranking(reply);
                    exchange.scored = scored;
                    out.postings += scored.map_or(work.postings, |(_, decoded)| decoded);
                    if matches!(fault, Some(FaultAction::Garble)) {
                        exchange.failed = Some("remote");
                    } else {
                        out.lists
                            .push(ranking.into_iter().map(|s| (s, lib)).collect());
                    }
                }
            }
            out.bytes_on_wire += (req_len + job.resp_len) as u64;
            if exchange.failed.is_some() {
                out.failed.push(lib);
            }
            jobs.push((lib, req_len, job));
            exchanges.push(exchange);
        }

        self.phase_start(start, Phase::RankFanout);
        let (ready, send_at, back_at) = self.schedule_fanout(net, start, &jobs);
        record_fanout(&self.trace, &exchanges, &send_at, &back_at);
        out.ready = ready;
        Ok(out)
    }

    /// Step 3 onward: the receptionist merges once every reply is in,
    /// then fetches the answer documents under `plan`.
    fn merge_and_fetch(
        &self,
        net: &mut SimNetwork,
        fan: FanOut,
        k: usize,
        plan: FetchPlan,
    ) -> Result<QueryCost, TeraphimError> {
        let entries: u64 = fan.lists.iter().map(|l| l.len() as u64).sum();
        let merge_cpu = net.cost().merge_cpu(entries);
        let index_time = net.receptionist_cpu(fan.ready, merge_cpu);
        self.trace.record_at(
            micros(index_time),
            EventKind::Merge {
                entries,
                k: k as u32,
            },
        );
        self.phase_end(index_time, Phase::RankFanout);
        let merged = ranking::merge_rankings(&fan.lists, k);
        let hits: Vec<(usize, DocId)> = merged.iter().map(|(s, lib)| (*lib, s.doc)).collect();

        self.phase_start(index_time, Phase::DocFetch);
        let (total_time, fetch_bytes) = self.fetch_phase(net, index_time, &hits, plan)?;
        self.phase_end(total_time, Phase::DocFetch);

        Ok(QueryCost {
            index_time,
            total_time,
            bytes_on_wire: fan.bytes_on_wire + fetch_bytes,
            postings_decoded: fan.postings,
            cpu_busy: 0.0,
            disk_busy: 0.0,
            link_busy: 0.0,
            hits,
            failed: fan.failed,
        })
    }

    // ------------------------------------------------------------------
    // CN and CV (identical plan; weights differ)
    // ------------------------------------------------------------------

    fn run_cn_cv(
        &mut self,
        net: &mut SimNetwork,
        query: &str,
        k: usize,
        cv: bool,
    ) -> Result<QueryCost, TeraphimError> {
        let terms = self.term_counts(query);
        let cost = net.cost().clone();

        // Step 1: the receptionist parses the query and sends everyone
        // the same request. Under CV it carries the global weights, and
        // the query norm covers the full list (terms a librarian lacks
        // still belong in its denominator).
        let global = cv.then(|| {
            let weights = global_weights(&self.global_vocab, &self.global_stats, &terms);
            let norm = similarity_norm(&weights);
            (weights, norm)
        });
        let request = match &global {
            Some((weights, _)) => Message::RankWeightedRequest {
                query_id: 0,
                k: k as u32,
                terms: weights.clone(),
            },
            None => Message::RankRequest {
                query_id: 0,
                k: k as u32,
                terms: terms.clone(),
            },
        };
        let t_parse = net.receptionist_cpu(0.0, cost.cpu_query_overhead);

        // Step 2: each librarian ranks. Its CPU covers decode +
        // accumulator/heap maintenance, as the MS baseline is charged —
        // the cost repeated at every librarian.
        let requests = vec![Some(request); self.parts.len()];
        let fan = self.fan_out(net, t_parse, &requests, |col, _| {
            let (weighted, qnorm) = match &global {
                Some((weights, norm)) => (resolve_weights(col, weights), *norm),
                None => {
                    let pairs: Vec<(teraphim_index::TermId, u32)> = terms
                        .iter()
                        .filter_map(|(t, f)| col.index().vocab().term_id(t).map(|id| (id, *f)))
                        .collect();
                    let local = ranking::local_weights(col.index(), &pairs);
                    let norm = teraphim_index::similarity::query_norm(
                        &local.iter().map(|t| t.w_qt).collect::<Vec<_>>(),
                    );
                    (local, norm)
                }
            };
            let work = index_work_on(col.index(), &weighted);
            let hits =
                ranking::rank_with_norm(col.index(), &weighted, qnorm, k, &mut RankScratch::new());
            Ok(Answer {
                reply: Message::RankResponse {
                    query_id: 0,
                    epoch: 0,
                    entries: hits.iter().map(|h| (h.doc, h.score)).collect(),
                },
                work,
                cpu: cost.postings_cpu(work.postings) + cost.merge_cpu(work.postings),
            })
        })?;

        // Steps 3–4: merge, then fetch per document (the paper's
        // implementation) unless the bundling ablation is on.
        let plan = if self.bundle_all_fetches {
            FetchPlan::Bundled
        } else {
            FetchPlan::PerDocument
        };
        self.merge_and_fetch(net, fan, k, plan)
    }

    // ------------------------------------------------------------------
    // CI
    // ------------------------------------------------------------------

    fn run_ci(
        &mut self,
        net: &mut SimNetwork,
        query: &str,
        k: usize,
    ) -> Result<QueryCost, TeraphimError> {
        if !self.ci_params.valid_for(k) {
            return Err(TeraphimError::BadParameters(format!(
                "k' = {} with G = {} cannot produce k = {k} documents",
                self.ci_params.k_prime, self.ci_params.group_size
            )));
        }
        let terms = self.term_counts(query);
        let cost = net.cost().clone();

        // Step 1-2 (receptionist side): rank groups on the central
        // grouped index — sequential disk + CPU on the receptionist's
        // machine (the paper: "elapsed times were greater because of the
        // sequential processing of the central index").
        let group_index = self.grouped.group_index();
        let group_pairs: Vec<(teraphim_index::TermId, u32)> = terms
            .iter()
            .filter_map(|(t, f)| self.grouped.vocab().term_id(t).map(|id| (id, *f)))
            .collect();
        let group_weighted = ranking::local_weights(group_index, &group_pairs);
        let group_work = index_work_on(group_index, &group_weighted);
        let top_groups = ranking::rank(group_index, &group_weighted, self.ci_params.k_prime);
        let group_ids: Vec<u32> = top_groups.iter().map(|g| g.doc).collect();
        let expanded = self.grouped.expand_groups(&group_ids);

        let t_parse = net.receptionist_cpu(0.0, cost.cpu_query_overhead);
        self.phase_start(t_parse, Phase::GroupRank);
        let t_gdisk = net.receptionist_disk_read(t_parse, group_work.list_bytes, group_work.seeks);
        let t_grank = net.receptionist_cpu(
            t_gdisk,
            cost.postings_cpu(group_work.postings) + cost.merge_cpu(self.ci_params.k_prime as u64),
        );
        if self.trace.is_enabled() {
            let mut candidates: Vec<LibCandidates> = expanded
                .iter()
                .map(|(part, docs)| LibCandidates {
                    librarian: *part,
                    docs: docs.clone(),
                })
                .collect();
            candidates.sort_by_key(|c| c.librarian);
            self.trace.record_at(
                micros(t_grank),
                EventKind::Expansion {
                    k_prime: self.ci_params.k_prime as u32,
                    group_size: self.ci_params.group_size,
                    groups: group_ids.clone(),
                    candidates,
                },
            );
        }
        self.phase_end(t_grank, Phase::GroupRank);

        // Candidate scoring at the owning librarians only — the group
        // ranking happened locally, so nobody else is contacted (or has
        // its fault plan consulted).
        let doc_weights = global_weights_from_grouped(&self.grouped, &terms);
        let qnorm = similarity_norm(&doc_weights);
        let mut requests: Vec<Option<Message>> = vec![None; self.parts.len()];
        for (part, candidates) in expanded {
            requests[part as usize] = Some(Message::ScoreCandidatesRequest {
                query_id: 0,
                terms: doc_weights.clone(),
                candidates,
            });
        }
        // Disk: the librarian still reads the touched lists once;
        // skipping reduces decode CPU, not the sequential transfer.
        // CPU: candidate scoring maintains one accumulator per candidate.
        let skipping = self.skipping;
        let mut fan = self.fan_out(net, t_grank, &requests, |col, request| {
            let Message::ScoreCandidatesRequest { candidates, .. } = request else {
                unreachable!("step 1 above builds scoring requests only");
            };
            let weighted = resolve_weights(col, &doc_weights);
            let (scores, decoded) = if skipping {
                let scratch = &mut RankScratch::new();
                candidates::score_candidates(col.index(), &weighted, qnorm, candidates, scratch)
            } else {
                candidates::score_candidates_full_scan(col.index(), &weighted, qnorm, candidates)
            }
            .map_err(TeraphimError::Engine)?;
            Ok(Answer {
                reply: Message::ScoreResponse {
                    query_id: 0,
                    epoch: 0,
                    entries: scores.iter().map(|s| (s.doc, s.score)).collect(),
                    postings_decoded: decoded,
                },
                work: index_work_on(col.index(), &weighted),
                cpu: cost.postings_cpu(decoded) + cost.merge_cpu(candidates.len() as u64),
            })
        })?;
        fan.postings += group_work.postings;

        // Steps 3–4: the receptionist sorts the k'·G similarity values,
        // then fetches bundled, since CI candidates arrive as ranges.
        self.merge_and_fetch(net, fan, k, FetchPlan::Bundled)
    }

    // ------------------------------------------------------------------
    // Step 4: document fetch
    // ------------------------------------------------------------------

    /// Fetches `hits` in rounds: every librarian with documents left
    /// serves its next chunk — one document under
    /// [`FetchPlan::PerDocument`], all of them under
    /// [`FetchPlan::Bundled`] — as one round trip. Rounds across
    /// librarians proceed in parallel, so each round is a batch of
    /// causally ordered transfers.
    fn fetch_phase(
        &self,
        net: &mut SimNetwork,
        start: SimTime,
        hits: &[(usize, DocId)],
        plan: FetchPlan,
    ) -> Result<(SimTime, u64), TeraphimError> {
        let mut per_lib: BTreeMap<usize, Vec<DocId>> = BTreeMap::new();
        for &(lib, doc) in hits {
            per_lib.entry(lib).or_default().push(doc);
        }
        let mut rounds: Vec<(usize, std::slice::Chunks<'_, DocId>)> = per_lib
            .iter()
            .map(|(&lib, docs)| {
                let chunk = match plan {
                    FetchPlan::PerDocument => 1,
                    FetchPlan::Bundled => docs.len(),
                };
                (lib, docs.chunks(chunk))
            })
            .collect();
        let mut ready: BTreeMap<usize, SimTime> = per_lib.keys().map(|&lib| (lib, start)).collect();
        let mut bytes_on_wire = 0u64;
        let mut plain_bytes_total = 0usize;
        loop {
            let mut participants = Vec::new();
            let mut req_items = Vec::new();
            for (lib, chunks) in &mut rounds {
                let Some(docs) = chunks.next() else { continue };
                let req_len = Message::FetchDocsRequest {
                    query_id: 0,
                    docs: docs.to_vec(),
                    plain: false,
                }
                .wire_len();
                req_items.push((*lib, ready[lib], req_len));
                participants.push((*lib, docs, req_len));
            }
            if participants.is_empty() {
                break;
            }
            let arrivals = Self::transfer_batch(net, &req_items, true);
            let mut resp_items = Vec::with_capacity(participants.len());
            for (i, &(lib, docs, req_len)) in participants.iter().enumerate() {
                let col = &self.parts[lib];
                let mut bundle = Vec::with_capacity(docs.len());
                let mut disk_bytes = 0usize;
                for &doc in docs {
                    let body = col
                        .store()
                        .compressed_bytes(doc)
                        .map_err(TeraphimError::Engine)?;
                    plain_bytes_total += col.fetch(doc).map_err(TeraphimError::Engine)?.len();
                    disk_bytes += body.len();
                    bundle.push((doc, col.docno(doc).to_owned(), body.to_vec()));
                }
                let resp_len = Message::DocsResponse {
                    query_id: 0,
                    docs: bundle,
                }
                .wire_len();
                bytes_on_wire += (req_len + resp_len) as u64;
                let t_disk = net.disk_read(lib, arrivals[i], disk_bytes, docs.len() as u32);
                resp_items.push((lib, t_disk, resp_len));
            }
            let backs = Self::transfer_batch(net, &resp_items, false);
            for (&(lib, _, _), back) in participants.iter().zip(backs) {
                ready.insert(lib, back);
            }
        }
        let arrived = ready.into_values().fold(start, f64::max);
        let decompress_cpu = net.cost().decompress_cpu(plain_bytes_total);
        let done = net.receptionist_cpu(arrived, decompress_cpu);
        Ok((done, bytes_on_wire))
    }
}

/// What a healthy librarian makes of one sub-query: the reply it sends
/// and the disk pass and CPU seconds producing it cost.
struct Answer {
    reply: Message,
    work: IndexWork,
    cpu: f64,
}

/// What one fan-out leaves the receptionist holding.
struct FanOut {
    /// When the last reply (or observed reset) is in.
    ready: SimTime,
    /// The rankings of the librarians whose reply can be used, in
    /// librarian order, tagged as [`ranking::merge_rankings`] wants them.
    lists: Vec<Vec<(ScoredDoc, usize)>>,
    /// Librarians that dropped out, in index order.
    failed: Vec<usize>,
    bytes_on_wire: u64,
    postings: u64,
}

/// The ranking a reply carries, plus the `(candidates, postings)` a
/// candidate-scoring reply reports about itself.
fn reply_ranking(reply: Message) -> (Vec<ScoredDoc>, Option<(u32, u64)>) {
    let scored = |entries: Vec<(DocId, f64)>| {
        entries
            .into_iter()
            .map(|(doc, score)| ScoredDoc { doc, score })
            .collect::<Vec<_>>()
    };
    match reply {
        Message::RankResponse { entries, .. } => (scored(entries), None),
        Message::ScoreResponse {
            entries,
            postings_decoded,
            ..
        } => {
            let counts = (entries.len() as u32, postings_decoded);
            (scored(entries), Some(counts))
        }
        _ => (Vec::new(), None),
    }
}

/// Disk/CPU work a ranking pass performs at one collection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct IndexWork {
    list_bytes: usize,
    seeks: u32,
    postings: u64,
}

/// One librarian's share of a simulated fan-out after fault injection:
/// the disk pass, the CPU seconds, the reply size (0 = connection
/// dropped, no reply leg) and any injected extra latency. The default is
/// a librarian that failed before touching its index.
#[derive(Debug, Clone, Copy, Default)]
struct SimJob {
    work: IndexWork,
    cpu: f64,
    resp_len: usize,
    delay: SimTime,
}

/// Charges one librarian's disk and CPU for `job`, returning when its
/// reply is ready to leave (injected delay included).
fn charge_librarian(net: &mut SimNetwork, lib: usize, arrive: SimTime, job: &SimJob) -> SimTime {
    let mut t = arrive;
    if job.work.seeks > 0 {
        t = net.disk_read(lib, t, job.work.list_bytes, job.work.seeks);
    }
    if job.cpu > 0.0 {
        t = net.cpu(lib, t, job.cpu);
    }
    t + job.delay
}

fn index_work_on(index: &teraphim_index::InvertedIndex, weighted: &[WeightedTerm]) -> IndexWork {
    let mut list_bytes = 0usize;
    let mut seeks = 1u32; // vocabulary access
    let mut postings = 0u64;
    for wt in weighted {
        let list = index.postings(wt.term);
        if !list.is_empty() {
            list_bytes += list.byte_len();
            seeks += 1;
            postings += u64::from(list.len());
        }
    }
    IndexWork {
        list_bytes,
        seeks,
        postings,
    }
}

/// Query norm over a full (string, weight) list.
fn similarity_norm(weights: &[(String, f64)]) -> f64 {
    teraphim_index::similarity::query_norm(&weights.iter().map(|(_, w)| *w).collect::<Vec<_>>())
}

/// Maps globally weighted term strings onto one collection's term ids.
fn resolve_weights(col: &Collection, weights: &[(String, f64)]) -> Vec<WeightedTerm> {
    weights
        .iter()
        .filter_map(|(term, w_qt)| {
            col.index().vocab().term_id(term).map(|id| WeightedTerm {
                term: id,
                w_qt: *w_qt,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn driver() -> SimDriver {
        let a: Vec<TrecDoc> = (0..40)
            .map(|i| TrecDoc {
                docno: format!("A-{i}"),
                text: format!("alpha bravo document number {i} about cats and retrieval"),
            })
            .collect();
        let b: Vec<TrecDoc> = (0..30)
            .map(|i| TrecDoc {
                docno: format!("B-{i}"),
                text: format!("bravo charlie item {i} about dogs and compression"),
            })
            .collect();
        let c: Vec<TrecDoc> = (0..20)
            .map(|i| TrecDoc {
                docno: format!("C-{i}"),
                text: format!("delta echo piece {i} about birds"),
            })
            .collect();
        let d: Vec<TrecDoc> = (0..25)
            .map(|i| TrecDoc {
                docno: format!("D-{i}"),
                text: format!("foxtrot golf entry {i} about fish and networks"),
            })
            .collect();
        SimDriver::new(
            &[("A", &a), ("B", &b), ("C", &c), ("D", &d)],
            Analyzer::default(),
            CiParams {
                group_size: 5,
                k_prime: 8,
            },
        )
        .unwrap()
    }

    #[test]
    fn all_modes_produce_times() {
        let mut d = driver();
        let cost = CostModel::default();
        for mode in [
            SimMode::MonoServer,
            SimMode::Distributed(Methodology::CentralNothing),
            SimMode::Distributed(Methodology::CentralVocabulary),
            SimMode::Distributed(Methodology::CentralIndex),
        ] {
            let topo = Topology::multi_disk(4);
            let c = d
                .time_query(&topo, &cost, mode, "cats dogs retrieval", 5)
                .unwrap();
            assert!(c.index_time > 0.0, "{mode}");
            assert!(c.total_time >= c.index_time, "{mode}");
            assert!(!c.hits.is_empty(), "{mode}");
        }
    }

    /// The fan-out's contract, for every methodology under every fault
    /// and both schedules: who drops out, what each librarian's
    /// exchange looks like in the trace, that a replay is exact, and
    /// that the schedule moves nothing but the two times.
    #[test]
    fn sim_fanout_contract() {
        const STRUCK: usize = 1;
        let cost = CostModel::default();
        let topo = Topology::multi_disk(4);
        let q = "cats dogs retrieval compression";
        let delay = std::time::Duration::from_millis(250);
        let faults: [(&str, Option<FaultPlan>); 5] = [
            ("none", None),
            ("fail", Some(FaultPlan::new().fail_from(0))),
            ("drop", Some(FaultPlan::new().drop_from(0))),
            ("garble", Some(FaultPlan::new().garble_nth(0))),
            ("delay", Some(FaultPlan::new().delay_all(delay))),
        ];
        let run = |mode: SimMode, plan: &Option<FaultPlan>, dispatch: DispatchMode| {
            let mut d = driver();
            d.dispatch = dispatch;
            let sink = d.enable_tracing();
            if let Some(plan) = plan {
                d.set_fault_plan(STRUCK, plan.clone());
            }
            let c = d.time_query(&topo, &cost, mode, q, 10).unwrap();
            // Clearing the plans restores the healthy fleet (and resets
            // the request counters the plans are evaluated at).
            d.clear_fault_plans();
            let healed = d.time_query(&topo, &cost, mode, q, 10).unwrap();
            (c, healed, sink.take_traces().swap_remove(0))
        };
        let timeless = |c: &QueryCost| QueryCost {
            index_time: 0.0,
            total_time: 0.0,
            ..c.clone()
        };
        for methodology in [
            Methodology::CentralNothing,
            Methodology::CentralVocabulary,
            Methodology::CentralIndex,
        ] {
            let mode = SimMode::Distributed(methodology);
            let (healthy, ..) = run(mode, &None, DispatchMode::Pipelined);
            assert!(
                healthy.hits.iter().any(|&(lib, _)| lib == STRUCK),
                "{mode}: the struck librarian must matter to the healthy answer"
            );
            for (name, plan) in &faults {
                let case = format!("{mode} under {name}");
                let (par, healed, trace) = run(mode, plan, DispatchMode::Pipelined);
                let (seq, ..) = run(mode, plan, DispatchMode::Sequential);

                // Who drops out: exactly the struck librarian, unless
                // the fault only slows it down.
                let drops_out = !matches!(*name, "none" | "delay");
                let expected_failed = if drops_out { vec![STRUCK] } else { Vec::new() };
                assert_eq!(par.failed, expected_failed, "{case}");
                if drops_out {
                    assert!(par.hits.iter().all(|&(lib, _)| lib != STRUCK), "{case}");
                    assert!(!par.hits.is_empty(), "{case}: the others still answer");
                } else {
                    assert_eq!(timeless(&par), timeless(&healthy), "{case}");
                }
                if *name == "delay" {
                    assert!(
                        par.index_time >= healthy.index_time + 0.2,
                        "{case}: {} vs healthy {}",
                        par.index_time,
                        healthy.index_time
                    );
                }
                assert_eq!(healed, healthy, "{case}: clearing the plans heals");

                // Each contacted librarian's exchange, in trace order.
                let scored = methodology == Methodology::CentralIndex;
                let contacted: Vec<u32> = trace
                    .events
                    .iter()
                    .filter(|e| e.kind.tag() == "sent")
                    .filter_map(|e| e.kind.librarian())
                    .collect();
                assert!(contacted.contains(&(STRUCK as u32)), "{case}");
                for lib in contacted {
                    let struck = lib as usize == STRUCK && plan.is_some();
                    let replied = !(struck && matches!(*name, "fail" | "drop"));
                    let mut expected = vec!["sent"];
                    expected.extend(struck.then_some("fault"));
                    if replied {
                        expected.push("reply");
                        expected.extend(["server_phase"; 4]);
                        expected.extend(scored.then_some("scored"));
                    }
                    expected.extend((struck && drops_out).then_some("lib_failed"));
                    let got: Vec<&str> = trace
                        .events
                        .iter()
                        .filter(|e| e.kind.librarian() == Some(lib))
                        .map(|e| e.kind.tag())
                        .collect();
                    assert_eq!(got, expected, "{case}: librarian {lib}");
                }

                // A fresh driver replays the case exactly.
                assert_eq!(run(mode, plan, DispatchMode::Pipelined).0, par, "{case}");

                // The schedule changes the two times and nothing else.
                assert_eq!(timeless(&seq), timeless(&par), "{case}");
                assert!(
                    seq.index_time > par.index_time,
                    "{case}: sequential {} should exceed parallel {}",
                    seq.index_time,
                    par.index_time
                );
                assert!(seq.total_time > par.total_time, "{case}");
            }
        }
    }

    #[test]
    fn wan_is_slower_than_lan_is_not_faster_than_multidisk() {
        let mut d = driver();
        let cost = CostModel::default();
        let q = "cats compression networks";
        let mode = SimMode::Distributed(Methodology::CentralVocabulary);
        let multi = d
            .time_query(&Topology::multi_disk(4), &cost, mode, q, 5)
            .unwrap();
        let wan = d.time_query(&Topology::wan(), &cost, mode, q, 5).unwrap();
        assert!(
            wan.index_time > multi.index_time + 0.1,
            "wan {} vs multi {}",
            wan.index_time,
            multi.index_time
        );
        assert!(wan.total_time > multi.total_time);
    }

    #[test]
    fn wan_fetch_dominates_for_per_document_transfers() {
        let mut d = driver();
        let cost = CostModel::default();
        let cn = SimMode::Distributed(Methodology::CentralNothing);
        let c = d
            .time_query(&Topology::wan(), &cost, cn, "cats dogs birds fish", 20)
            .unwrap();
        // Per-document fetch over the WAN must add far more than the
        // index phase (the paper's Table 4 effect).
        assert!(
            c.total_time > 2.0 * c.index_time,
            "total {} vs index {}",
            c.total_time,
            c.index_time
        );
    }

    #[test]
    fn ci_bundling_beats_cn_fetch_on_wan() {
        let mut d = driver();
        let cost = CostModel::default();
        let q = "cats dogs birds fish";
        let cn = d
            .time_query(
                &Topology::wan(),
                &cost,
                SimMode::Distributed(Methodology::CentralNothing),
                q,
                20,
            )
            .unwrap();
        let ci = d
            .time_query(
                &Topology::wan(),
                &cost,
                SimMode::Distributed(Methodology::CentralIndex),
                q,
                20,
            )
            .unwrap();
        let cn_fetch = cn.total_time - cn.index_time;
        let ci_fetch = ci.total_time - ci.index_time;
        assert!(
            ci_fetch < cn_fetch,
            "CI fetch {ci_fetch} vs CN fetch {cn_fetch}"
        );
    }

    #[test]
    fn bundle_ablation_reduces_cn_fetch_cost() {
        let mut d = driver();
        let cost = CostModel::default();
        let cn = SimMode::Distributed(Methodology::CentralNothing);
        let q = "cats dogs birds fish";
        let per_doc = d.time_query(&Topology::wan(), &cost, cn, q, 20).unwrap();
        d.bundle_all_fetches = true;
        let bundled = d.time_query(&Topology::wan(), &cost, cn, q, 20).unwrap();
        assert!(bundled.total_time < per_doc.total_time);
        assert_eq!(bundled.hits, per_doc.hits);
    }

    #[test]
    fn skipping_reduces_ci_postings() {
        let mut d = driver();
        let cost = CostModel::default();
        let ci = SimMode::Distributed(Methodology::CentralIndex);
        let q = "cats dogs";
        let full = d
            .time_query(&Topology::multi_disk(4), &cost, ci, q, 5)
            .unwrap();
        d.skipping = true;
        let skipped = d
            .time_query(&Topology::multi_disk(4), &cost, ci, q, 5)
            .unwrap();
        assert!(skipped.postings_decoded <= full.postings_decoded);
        assert_eq!(skipped.hits, full.hits, "skipping must not change results");
    }

    #[test]
    fn sim_fault_plans_replay_deterministically() {
        let cost = CostModel::default();
        let topo = Topology::multi_disk(4);
        let q = "cats dogs compression";
        let mode = SimMode::Distributed(Methodology::CentralNothing);
        // One master seed; the per-librarian schedule derives from it,
        // so the same seed reproduces the same virtual history.
        let run = || {
            let mut d = driver();
            d.set_seed(9);
            d.set_fault_plan(0, FaultPlan::new().drop_nth(0));
            d.seeded_fault_plan(3, 500);
            let first = d.time_query(&topo, &cost, mode, q, 8).unwrap();
            let second = d.time_query(&topo, &cost, mode, q, 8).unwrap();
            let lib3_seed = d.stream_seed(3);
            (first, second, lib3_seed)
        };
        let (a1, a2, lib3_seed) = run();
        let (b1, b2, _) = run();
        assert_eq!(a1, b1, "same seed, same virtual history");
        assert_eq!(a2, b2);
        assert_eq!(
            a1.failed,
            [0].iter()
                .chain(
                    // librarian 3 fails query 0 iff the seeded rule matches n=0
                    FaultPlan::new()
                        .seeded_failures(lib3_seed, 500)
                        .action_for(0)
                        .map(|_| &3usize)
                )
                .copied()
                .collect::<Vec<_>>()
        );
        // The drop plan only covers request 0: librarian 0 answers the
        // second query.
        assert!(!a2.failed.contains(&0));
    }

    #[test]
    fn derived_seeds_are_stable_and_decorrelated() {
        let mut d = driver();
        d.set_seed(42);
        assert_eq!(d.seed(), 42);
        assert_eq!(d.stream_seed(0), derive_seed(42, 0));
        assert_ne!(d.stream_seed(0), d.stream_seed(1));
        // A different master seed moves every stream.
        assert_ne!(derive_seed(42, 0), derive_seed(43, 0));
    }

    #[test]
    fn appended_documents_reach_every_derived_product() {
        let cost = CostModel::default();
        let topo = Topology::multi_disk(4);
        let q = "walrus tusks";
        let mut d = driver();
        let before_docs = d.mono().num_docs();
        for mode in [
            SimMode::MonoServer,
            SimMode::Distributed(Methodology::CentralNothing),
            SimMode::Distributed(Methodology::CentralVocabulary),
            SimMode::Distributed(Methodology::CentralIndex),
        ] {
            let c = d.time_query(&topo, &cost, mode, q, 5).unwrap();
            assert!(c.hits.is_empty(), "{mode}: no walrus before churn");
        }
        let doc = TrecDoc {
            docno: "NEW-1".into(),
            text: "walrus tusks and walrus whiskers".into(),
        };
        d.append_documents(2, std::slice::from_ref(&doc)).unwrap();
        assert_eq!(d.mono().num_docs(), before_docs + 1);
        for mode in [
            SimMode::MonoServer,
            SimMode::Distributed(Methodology::CentralNothing),
            SimMode::Distributed(Methodology::CentralVocabulary),
            SimMode::Distributed(Methodology::CentralIndex),
        ] {
            let c = d.time_query(&topo, &cost, mode, q, 5).unwrap();
            assert_eq!(c.hits.len(), 1, "{mode}: churned doc must rank");
            if let SimMode::Distributed(_) = mode {
                assert_eq!(c.hits[0].0, 2, "{mode}: owned by librarian 2");
            }
        }
    }

    #[test]
    fn ms_uses_no_network() {
        let mut d = driver();
        let cost = CostModel::default();
        let c = d
            .time_query(
                &Topology::mono_disk(4),
                &cost,
                SimMode::MonoServer,
                "cats",
                5,
            )
            .unwrap();
        assert_eq!(c.bytes_on_wire, 0);
    }

    #[test]
    fn invalid_ci_parameters_error() {
        let mut d = driver();
        let cost = CostModel::default();
        let err = d
            .time_query(
                &Topology::multi_disk(4),
                &cost,
                SimMode::Distributed(Methodology::CentralIndex),
                "cats",
                1000,
            )
            .unwrap_err();
        assert!(matches!(err, TeraphimError::BadParameters(_)));
    }

    #[test]
    fn query_set_averaging() {
        let mut d = driver();
        let cost = CostModel::default();
        let (index_avg, total_avg) = d
            .time_query_set(
                &Topology::multi_disk(4),
                &cost,
                SimMode::Distributed(Methodology::CentralVocabulary),
                &["cats", "dogs compression"],
                5,
            )
            .unwrap();
        assert!(index_avg > 0.0);
        assert!(total_avg >= index_avg);
    }
}
