//! `ingest_reopen`: the only workload that writes.
//!
//! One store-backed librarian (`Librarian::create_store`, default
//! `StoreOptions`, every batch synced before it is acknowledged) behind
//! an in-process transport, one client, and fixed work instead of fixed
//! time. The unit of work is one life of a store: open a copy of the
//! base store, append a fixed number of `add_documents` batches with a
//! fixed number of searches (a short query and its top ten documents
//! fetched as plain text) after each, `compact`, drop, `Librarian::open`
//! plus a first query (a few times), a reopen that must rank as the
//! dropped librarian did.
//! A run lives that life several times over, each time from a fresh
//! copy of the same base with the same documents and queries, so every
//! life does the same work and its operation counts, bytes and segment
//! counts must come out the same (a difference fails the run). A single
//! long ingest gets slower as its index grows, so no stretch of it can
//! stand for another; equal lives give as many samples of every timing
//! as there are lives. A life's ingest phase and its reopens each lie
//! between two reference samples ([`crate::hostspeed`]) and are stated
//! in seconds of the nominal host. The run ends with one `collection_at`
//! of the last life's middle epoch. The number of lives is sized to take
//! about `RUN_SECONDS` on the seed commit; other `--seconds` scale it.
//!
//! Flush policy: the program's own. `log_batch` calls `sync_data` on
//! the WAL before the epoch advances, segment and manifest writes are
//! synced before rename; the benchmark neither adds nor removes a
//! flush. Reads after a reopen come from the operating system's page
//! cache, so `cold_open_s` is this sandbox's, not a disk's.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use teraphim_core::{GlobalHit, Librarian, Methodology, Receptionist};
use teraphim_corpus::{Subcollection, SyntheticCorpus};
use teraphim_engine::Collection;
use teraphim_net::{DispatchMode, InProcTransport, Transport};
use teraphim_obs::TraceSink;
use teraphim_text::sgml::TrecDoc;
use teraphim_text::Analyzer;

use crate::catalog::{self, frozen};
use crate::checks::{check_fetch, check_hits};
use crate::dirsnap::DirSnapshot;
use crate::env;
use crate::fleet::Traced;
use crate::hostspeed;
use crate::layers;
use crate::report::RunResult;
use crate::serving::{put_client_diagnostics, put_load_metrics, Load, Window};
use crate::spans::{self, Recorder};
use crate::stats::{median, percentile, tail};
use crate::workload::{generate, shuffled, QuerySpec, Truth};
use crate::RunOptions;

const NAME: &str = "INGEST";
const WAL_FILE: &str = "wal.log";

/// How much work a run does.
#[derive(Debug, Clone, Copy)]
struct Sizing {
    base_docs: usize,
    batch_docs: usize,
    /// Batches in one life of the store.
    batches: usize,
    searches_per_batch: usize,
    probes: usize,
    /// Opens of the compacted store at the end of each life.
    reopens: usize,
    lives: usize,
}

impl Sizing {
    fn new(seconds: f64, smoke: bool) -> Sizing {
        if smoke {
            return Sizing {
                base_docs: 120,
                batch_docs: 20,
                batches: 10,
                searches_per_batch: 4,
                probes: 8,
                reopens: 2,
                lives: 2,
            };
        }
        let scale = seconds / frozen::RUN_SECONDS as f64;
        Sizing {
            base_docs: frozen::INGEST_BASE_DOCS,
            batch_docs: frozen::INGEST_BATCH_DOCS,
            batches: frozen::INGEST_BATCHES,
            searches_per_batch: frozen::INGEST_SEARCHES_PER_BATCH,
            probes: frozen::INGEST_PROBES,
            reopens: frozen::INGEST_REOPENS,
            lives: ((frozen::INGEST_LIVES as f64 * scale).round() as usize).max(1),
        }
    }

    fn total_docs(&self) -> usize {
        self.base_docs + self.batches * self.batch_docs
    }
}

/// The document stream: the four subcollections dealt round-robin, then
/// shuffled by the seed, so every batch mixes sources the way a live
/// feed would and every seed ingests different documents.
fn stream(corpus: &SyntheticCorpus, seed: u64) -> Vec<TrecDoc> {
    let subs = corpus.subcollections();
    let longest = subs.iter().map(|s| s.docs.len()).max().unwrap_or(0);
    let dealt: Vec<&TrecDoc> = (0..longest)
        .flat_map(|i| subs.iter().filter_map(move |s| s.docs.get(i)))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6665_6564);
    shuffled(dealt.len(), &mut rng)
        .into_iter()
        .map(|i| dealt[i as usize].clone())
        .collect()
}

/// How the traced pass and the untraced run differ: what wraps the
/// librarian, and whether writes are decomposed into their two steps.
trait Harness {
    type T: Transport;
    fn connect(&self, librarian: Librarian) -> (Arc<Mutex<Librarian>>, Receptionist<Self::T>);
    fn recorder(&self) -> Option<&Recorder>;
}

/// A receptionist over the one librarian, with the same zero-spawn
/// dispatch the serving fleets use.
fn receptionist<T: Transport>(transport: T) -> Receptionist<T> {
    let mut receptionist = Receptionist::new(vec![transport], Analyzer::default());
    receptionist.set_dispatch_mode(DispatchMode::Pipelined);
    receptionist
}

struct PlainHarness;

impl Harness for PlainHarness {
    type T = InProcTransport<Librarian>;

    fn connect(&self, librarian: Librarian) -> (Arc<Mutex<Librarian>>, Receptionist<Self::T>) {
        let shared = Arc::new(Mutex::new(librarian));
        let transport = InProcTransport::from_shared(Arc::clone(&shared));
        (shared, receptionist(transport))
    }

    fn recorder(&self) -> Option<&Recorder> {
        None
    }
}

impl Harness for Traced {
    type T = crate::fleet::SpanTransport<
        InProcTransport<crate::fleet::SpanService<crate::fleet::Shared<Librarian>>>,
    >;

    fn connect(&self, librarian: Librarian) -> (Arc<Mutex<Librarian>>, Receptionist<Self::T>) {
        use crate::fleet::Instrument;
        let service = self.service(librarian, 0);
        let transport = self.wrap_transport(InProcTransport::new(service), 0);
        (self.last_librarian(), receptionist(transport))
    }

    fn recorder(&self) -> Option<&Recorder> {
        Some(&self.recorder)
    }
}

/// What one life of the store must count the same as every other.
#[derive(Debug, Clone, Default, PartialEq)]
struct Counts {
    round_trips: u64,
    bytes_sent: u64,
    bytes_received: u64,
    precision_sum: f64,
    overlap_sum: f64,
    disk_bytes_written: u64,
    wal_bytes_peak: u64,
    store_bytes: u64,
    segments_final: usize,
    /// Batches during which the store checkpointed / compacted itself.
    auto_checkpoints: usize,
    auto_compactions: usize,
}

/// One life of the store, as the end-to-end metrics see it: durations
/// in seconds of the nominal host.
#[derive(Debug, Clone, Default)]
struct Life {
    /// Seconds inside `add_documents`, summed over the batches.
    add_s: f64,
    /// Latency of each search, in nanoseconds.
    searches: Vec<u64>,
    search_failures: usize,
    /// Wall time of the batches and searches.
    elapsed_s: f64,
    /// `Librarian::open` of the compacted store plus a first query
    /// answered, once per reopen.
    cold_open_s: Vec<f64>,
    /// The host's speed during the ingest phase and during the reopens.
    host: [f64; 2],
    /// VmRSS after the probes, the store compacted and still open.
    rss_mb: f64,
    counts: Counts,
}

impl Life {
    /// States the ingest phase's durations in the nominal host's seconds.
    fn restate_ingest(&mut self, host: f64) {
        self.host[0] = host;
        self.add_s *= host;
        self.elapsed_s *= host;
        for ns in &mut self.searches {
            *ns = (*ns as f64 * host).round() as u64;
        }
    }
}

/// Everything the fixed work measured. The flat vectors hold one entry
/// per batch, reopen or life, over all lives, as the clock read, for
/// the traced pass.
#[derive(Default)]
struct Outcome {
    /// In seconds of the nominal host.
    setup_s: Vec<f64>,
    generate_s: Vec<f64>,
    /// `create_store` of the base.
    build_s: Vec<f64>,
    text_bytes: usize,
    lives: Vec<Life>,
    add_ns: Vec<u64>,
    log_ns: Vec<u64>,
    append_ns: Vec<u64>,
    checkpointed: Vec<bool>,
    compact_ns: Vec<u64>,
    /// `Librarian::open` of the compacted store.
    open_ns: Vec<u64>,
    collection_at_ns: u64,
    from_bytes_ns: u64,
    violations: Vec<String>,
    final_librarian: Option<Arc<Mutex<Librarian>>>,
    query_texts: Vec<String>,
    /// The program's own traces of the interleaved queries (traced
    /// pass only).
    traces: Vec<teraphim_obs::QueryTrace>,
    sizing: Option<Sizing>,
}

impl Outcome {
    fn searches(&self) -> usize {
        self.lives.iter().map(|l| l.searches.len()).sum()
    }

    fn elapsed_s(&self) -> f64 {
        self.lives.iter().map(|l| l.elapsed_s).sum()
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn pairs(hits: &[GlobalHit]) -> Vec<(usize, u32)> {
    hits.iter().map(|h| (h.librarian, h.doc)).collect()
}

fn run_query<T: Transport>(
    receptionist: &mut Receptionist<T>,
    recorder: Option<&Recorder>,
    text: &str,
) -> Result<Vec<GlobalHit>, String> {
    let _span = recorder.and_then(|r| r.enter("core.query"));
    let hits = receptionist
        .query(Methodology::CentralNothing, text, frozen::K)
        .map_err(|e| e.to_string())?;
    check_hits(&hits, frozen::K, 1)?;
    Ok(hits)
}

/// One search: a query, then its top documents fetched as plain text.
fn run_search<T: Transport>(
    receptionist: &mut Receptionist<T>,
    recorder: Option<&Recorder>,
    text: &str,
    docnos: &[Vec<String>],
) -> Result<Vec<GlobalHit>, String> {
    if let Some(r) = recorder {
        r.next_op();
    }
    let _root = recorder.and_then(|r| r.enter("client.op"));
    let hits = run_query(receptionist, recorder, text)?;
    let top = &hits[..frozen::INGEST_FETCH_TOP.min(hits.len())];
    let bodies = {
        let _span = recorder.and_then(|r| r.enter("core.fetch"));
        receptionist.fetch(top, true).map_err(|e| e.to_string())?
    };
    check_fetch(top, &bodies, docnos)?;
    Ok(hits)
}

/// Copies the regular files of a store directory (it has no
/// subdirectories) into a fresh scratch directory.
fn copy_store(from: &Path) -> Result<PathBuf, String> {
    let to = env::scratch_dir("store").map_err(|e| format!("scratch directory: {e}"))?;
    let io = |e: std::io::Error| format!("copying {}: {e}", from.display());
    for entry in std::fs::read_dir(from).map_err(io)? {
        let entry = entry.map_err(io)?;
        if entry.metadata().map_err(io)?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(io)?;
        }
    }
    Ok(to)
}

/// Appends one batch. Untraced: `Librarian::add_documents`, as shipped.
/// Traced: the same two steps through the public store and collection
/// handles, so the WAL append and the index merge get a span each.
fn add_batch(
    librarian: &Arc<Mutex<Librarian>>,
    recorder: Option<&Recorder>,
    docs: &[TrecDoc],
    out: &mut Outcome,
) -> Result<u64, String> {
    let mut librarian = librarian.lock().expect("librarian lock");
    let started = Instant::now();
    match recorder {
        None => {
            librarian.add_documents(docs).map_err(|e| e.to_string())?;
        }
        Some(recorder) => {
            recorder.next_op();
            let _root = recorder.enter("client.op");
            let log_started = Instant::now();
            let epoch = {
                let _span = recorder.enter("store.log_batch");
                librarian
                    .store_mut()
                    .expect("a store-backed librarian")
                    .log_batch(docs)
                    .map_err(|e| e.to_string())?
            };
            out.log_ns.push(elapsed_ns(log_started));
            let append_started = Instant::now();
            {
                let _span = recorder.enter("engine.append");
                librarian
                    .collection_mut()
                    .append_documents(docs)
                    .map_err(|e| e.to_string())?;
            }
            out.append_ns.push(elapsed_ns(append_started));
            librarian.set_epoch(epoch);
        }
    }
    let took = elapsed_ns(started);
    out.add_ns.push(took);
    Ok(took)
}

/// What every life of the store is given.
struct Inputs<'a> {
    sizing: Sizing,
    /// The pristine base store every life starts from a copy of.
    base: &'a Path,
    /// Base documents first, then the batches.
    docs: &'a [TrecDoc],
    /// The searches' queries, in the seed's order; the first few are
    /// also the probes.
    queries: &'a [QuerySpec],
    truth: &'a Truth,
    sink: Option<&'a TraceSink>,
}

/// One life of the store: open a copy of the base, batches with
/// searches after each, compact, probe, drop, reopen.
fn live<H: Harness>(
    harness: &H,
    inputs: &Inputs<'_>,
    last: bool,
    out: &mut Outcome,
) -> Result<Life, String> {
    let Inputs {
        sizing,
        docs,
        queries,
        truth,
        ..
    } = *inputs;
    let recorder = harness.recorder();
    let probes = &queries[..sizing.probes.min(queries.len())];
    let mut life = Life::default();

    let dir = copy_store(inputs.base)?;
    let mut snapshot = DirSnapshot::take(&dir).map_err(|e| e.to_string())?;
    let opened = Librarian::open(&dir).map_err(|e| e.to_string())?;
    let (librarian, mut receptionist) = harness.connect(opened);
    let mut note_write = |life: &mut Life| -> Result<(), String> {
        let now = DirSnapshot::take(&dir).map_err(|e| e.to_string())?;
        life.counts.disk_bytes_written += snapshot.written_until(&now);
        life.counts.wal_bytes_peak = life.counts.wal_bytes_peak.max(now.size_of(WAL_FILE));
        snapshot = now;
        Ok(())
    };

    // Batches, each followed by searches.
    if let (Some(recorder), Some(sink)) = (recorder, inputs.sink) {
        receptionist.set_trace_sink(sink.clone());
        recorder.set_enabled(true);
    }
    let traffic_before = receptionist.traffic();
    let host_before = hostspeed::settled();
    let origin = Instant::now();
    let mut next_query = 0usize;
    for b in 0..sizing.batches {
        let from = sizing.base_docs + b * sizing.batch_docs;
        let state = || {
            let l = librarian.lock().expect("librarian lock");
            let store = l.store().expect("a store-backed librarian");
            (store.num_segments(), store.pending_batches())
        };
        let (segments_before, pending_before) = state();
        life.add_s += add_batch(
            &librarian,
            recorder,
            &docs[from..from + sizing.batch_docs],
            out,
        )? as f64
            / 1e9;
        let (segments_after, pending_after) = state();
        // A checkpoint empties the WAL's pending list; a compaction
        // leaves fewer segments than the checkpoint alone would have.
        let checkpointed = pending_after <= pending_before;
        out.checkpointed.push(checkpointed);
        if checkpointed {
            life.counts.auto_checkpoints += 1;
            if segments_after < segments_before + pending_before + 1 {
                life.counts.auto_compactions += 1;
            }
        }
        note_write(&mut life)?;
        // The timed unit is a search: one query and its top documents
        // fetched as plain text. A bare in-process query is almost pure
        // ranking time, which differs a lot from query to query; the
        // fetch is what a user does next anyway, and the only place
        // the benchmark has the engine decompress documents.
        for _ in 0..sizing.searches_per_batch {
            let q = &queries[next_query % queries.len()];
            next_query += 1;
            let started = Instant::now();
            match run_search(&mut receptionist, recorder, &q.text, &truth.docnos) {
                Ok(hits) => {
                    life.searches.push(elapsed_ns(started));
                    life.counts.precision_sum += truth.precision(q, &pairs(&hits));
                }
                Err(e) => {
                    life.search_failures += 1;
                    if out.violations.is_empty() {
                        out.violations.push(format!("query {}: {e}", q.id));
                    }
                }
            }
            if last {
                out.query_texts.push(q.text.clone());
            }
        }
    }
    life.elapsed_s = origin.elapsed().as_secs_f64();
    life.restate_ingest(hostspeed::between(host_before, hostspeed::sample()));
    let traffic = receptionist.traffic();
    life.counts.round_trips = traffic.round_trips - traffic_before.round_trips;
    life.counts.bytes_sent = traffic.bytes_sent - traffic_before.bytes_sent;
    life.counts.bytes_received = traffic.bytes_received - traffic_before.bytes_received;

    // Compact, measure what is on disk, probe the live librarian.
    let started = Instant::now();
    {
        if let Some(r) = recorder {
            r.next_op();
        }
        let _span = recorder.and_then(|r| r.enter("store.compact"));
        librarian
            .lock()
            .expect("librarian lock")
            .store_mut()
            .expect("a store-backed librarian")
            .compact()
            .map_err(|e| e.to_string())?;
    }
    out.compact_ns.push(elapsed_ns(started));
    note_write(&mut life)?;
    life.counts.store_bytes = snapshot.total_bytes();
    let (mid_epoch, expected_mid_docs) = {
        let l = librarian.lock().expect("librarian lock");
        life.counts.segments_final = l.store().expect("a store-backed librarian").num_segments();
        let mid = l.epoch() / 2;
        (mid, sizing.base_docs + mid as usize * sizing.batch_docs)
    };
    if let Some(recorder) = recorder {
        recorder.set_enabled(false);
    }
    let mut before_drop = Vec::with_capacity(probes.len());
    for (i, q) in probes.iter().enumerate() {
        let hits = run_query(&mut receptionist, None, &q.text)?;
        life.counts.overlap_sum += truth.overlap(i, &pairs(&hits));
        before_drop.push(hits);
    }
    life.rss_mb = env::rss_mb();
    if last && recorder.is_some() {
        // Kept only by the traced pass, for its direct calls.
        let l = librarian.lock().expect("librarian lock");
        let bytes = l.collection().to_bytes();
        let started = Instant::now();
        let copy = Collection::from_bytes(&bytes).map_err(|e| e.to_string())?;
        out.from_bytes_ns = elapsed_ns(started);
        drop(copy);
    }
    drop(receptionist);
    drop(librarian);

    // Cold reopen, a few times; the last one also re-runs the probes
    // and, in the run's last life, replays the middle epoch.
    let reopens = sizing.reopens.max(1);
    let host_before = hostspeed::settled();
    for round in 0..reopens {
        let started = Instant::now();
        let reopened = Librarian::open(&dir).map_err(|e| e.to_string())?;
        out.open_ns.push(elapsed_ns(started));
        let (shared, mut receptionist) = harness.connect(reopened);
        let first = run_query(&mut receptionist, None, &probes[0].text)?;
        life.cold_open_s.push(started.elapsed().as_secs_f64());
        if round + 1 < reopens {
            continue;
        }
        life.host[1] = hostspeed::between(host_before, hostspeed::sample());
        for s in &mut life.cold_open_s {
            *s *= life.host[1];
        }
        let mut after = vec![first];
        for q in &probes[1..] {
            after.push(run_query(&mut receptionist, None, &q.text)?);
        }
        if after != before_drop {
            out.violations.push(
                "the reopened store ranks the probe queries differently from the librarian that was dropped"
                    .to_owned(),
            );
        }
        if !last {
            continue;
        }
        let started = Instant::now();
        let as_of = shared
            .lock()
            .expect("librarian lock")
            .store()
            .expect("a store-backed librarian")
            .collection_at(mid_epoch)
            .map_err(|e| e.to_string())?;
        out.collection_at_ns = elapsed_ns(started);
        if as_of.num_docs() as usize != expected_mid_docs {
            out.violations.push(format!(
                "collection_at({mid_epoch}) holds {} documents, epoch {mid_epoch} had {expected_mid_docs}",
                as_of.num_docs()
            ));
        }
        out.final_librarian = Some(shared);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(life)
}

fn fixed_work<H: Harness>(
    harness: &H,
    options: RunOptions,
    reps: usize,
) -> Result<Outcome, String> {
    let sizing = Sizing::new(options.seconds, options.smoke);
    let mut out = Outcome {
        sizing: Some(sizing),
        ..Outcome::default()
    };

    // Set-up, `reps` times: generate, then build the base into a fresh
    // store. The last one is kept as the base every life copies.
    let mut kept = None;
    let mut host = vec![hostspeed::settled()];
    for rep in 0..reps.max(1) {
        let started = Instant::now();
        let corpus = generate(options.smoke);
        let docs = stream(&corpus, options.seed);
        if docs.len() < sizing.total_docs() {
            return Err(format!(
                "the corpus has {} documents, the work needs {}",
                docs.len(),
                sizing.total_docs()
            ));
        }
        let generate_s = started.elapsed().as_secs_f64();
        let dir = env::scratch_dir("store").map_err(|e| format!("scratch directory: {e}"))?;
        let librarian =
            Librarian::create_store(&dir, NAME, &Analyzer::default(), &docs[..sizing.base_docs])
                .map_err(|e| e.to_string())?;
        let setup_s = started.elapsed().as_secs_f64();
        host.push(hostspeed::sample());
        out.generate_s.push(generate_s);
        out.build_s.push(setup_s - generate_s);
        out.setup_s.push(setup_s);
        drop(librarian);
        if rep + 1 == reps.max(1) {
            kept = Some((corpus, docs, dir));
        } else {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let (corpus, mut docs, base) = kept.expect("at least one set-up");
    // One factor for every set-up: see `serving::prepare`.
    let host = host.iter().sum::<f64>() / host.len() as f64;
    for s in &mut out.setup_s {
        *s *= host;
    }
    docs.truncate(sizing.total_docs());
    out.text_bytes = docs.iter().map(|d| d.text.len()).sum();

    // Ground truth: judgments, and a monolithic build over everything a
    // life will have ingested, for the probes at its end. The one
    // librarian is shard 0 and assigns ids in stream order.
    let mut rng = StdRng::seed_from_u64(options.seed ^ 0x706c_616e);
    let short = corpus.short_queries();
    let queries: Vec<QuerySpec> = shuffled(short.len(), &mut rng)
        .into_iter()
        .map(|i| QuerySpec::from(&short[i as usize]))
        .collect();
    let stream = [Subcollection {
        name: NAME.to_owned(),
        docs,
    }];
    let truth = Truth::build(
        &corpus,
        &stream,
        &queries[..sizing.probes.min(queries.len())],
    );
    let [Subcollection { docs, .. }] = stream;
    drop(corpus);

    let sink = harness.recorder().map(|_| TraceSink::new());
    let inputs = Inputs {
        sizing,
        base: &base,
        docs: &docs,
        queries: &queries,
        truth: &truth,
        sink: sink.as_ref(),
    };
    for n in 0..sizing.lives {
        let life = live(harness, &inputs, n + 1 == sizing.lives, &mut out)?;
        if let Some(first) = out.lives.first() {
            if life.counts != first.counts {
                out.violations.push(format!(
                    "life {n} of the store counted {:?}, the first {:?}",
                    life.counts, first.counts
                ));
            }
        }
        out.lives.push(life);
    }
    if let Some(sink) = sink {
        out.traces = sink.take_traces();
    }
    let _ = std::fs::remove_dir_all(&base);
    Ok(out)
}

/// The load-phase view of the fixed work: one window per life, whose
/// operations are batches plus searches and whose latencies are the
/// searches'.
fn as_load(outcome: &Outcome) -> Load {
    let batches = outcome.sizing.map_or(0, |s| s.batches);
    Load {
        windows: outcome
            .lives
            .iter()
            .map(|life| {
                let mut latencies_ns = life.searches.clone();
                latencies_ns.sort_unstable();
                Window {
                    attempted: batches + life.searches.len() + life.search_failures,
                    failed: life.search_failures,
                    elapsed_s: life.elapsed_s,
                    nominal_s: life.elapsed_s,
                    latencies_ns,
                    ..Window::default()
                }
            })
            .collect(),
        rates: Vec::new(),
    }
}

fn put_end_to_end(out: &mut RunResult, outcome: &Outcome) {
    let load = as_load(outcome);
    let sizing = outcome.sizing.expect("the work's sizing");
    let counts = &outcome.lives[0].counts;
    let searches = (sizing.batches * sizing.searches_per_batch).max(1) as f64;
    out.attempted = load.attempted() as u64;
    out.failed = load.failed() as u64;
    out.put_timed("setup_s", median(&outcome.setup_s), outcome.setup_s.len());
    put_load_metrics(out, catalog::INGEST, &load);
    out.put(
        "wire_bytes_per_query",
        (counts.bytes_sent + counts.bytes_received) as f64 / searches,
    );
    out.put("p_at_20", counts.precision_sum / searches);
    out.put(
        "ms_overlap_at_20",
        counts.overlap_sum / sizing.probes.max(1) as f64,
    );
    out.put(
        "ok_share",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    // The first life's: later lives end 5 MB below it or 5 MB above,
    // whole runs at a time, depending on what the allocator gave back
    // of the librarians dropped before them.
    let rss: Vec<f64> = outcome.lives.iter().map(|l| l.rss_mb).collect();
    out.put("rss_steady_mb", rss[0]);
    let docs = (sizing.batches * sizing.batch_docs) as f64;
    let rates: Vec<f64> = outcome
        .lives
        .iter()
        .map(|l| docs / l.add_s.max(1e-9))
        .collect();
    out.put_timed("ingest_docs_per_s", median(&rates), outcome.add_ns.len());
    let cold: Vec<f64> = outcome
        .lives
        .iter()
        .flat_map(|l| &l.cold_open_s)
        .copied()
        .collect();
    out.put_timed("cold_open_s", median(&cold), cold.len());
    out.put(
        "store_bytes_per_text_byte",
        counts.store_bytes as f64 / outcome.text_bytes.max(1) as f64,
    );
    put_client_diagnostics(out, &load);
    out.notes.push(format!(
        "lives: docs/s {:.0?}, ops/s {:.0?}; cold_open_s {:.4?}; host speed while ingesting and reopening (1 = nominal) {:.2?}",
        rates,
        outcome
            .lives
            .iter()
            .map(|l| (sizing.batches + l.searches.len()) as f64 / l.elapsed_s.max(1e-9))
            .collect::<Vec<_>>(),
        cold,
        outcome.lives.iter().map(|l| l.host).collect::<Vec<_>>()
    ));
    out.notes.push(format!(
        "waited {:.1} s for the host",
        hostspeed::waited_s()
    ));
    out.notes
        .push(format!("rss at the end of each life, MB: {rss:.1?}"));
    out.violations.extend(outcome.violations.iter().cloned());
}

pub fn run_e2e(options: RunOptions) -> Result<RunResult, String> {
    let outcome = fixed_work(&PlainHarness, options, frozen::SETUP_REPS)?;
    let mut out = RunResult::default();
    put_end_to_end(&mut out, &outcome);
    let sizing = outcome.sizing.expect("the work's sizing");
    let counts = &outcome.lives[0].counts;
    out.notes.push(format!(
        "{} lives of a store of {} base documents: {} batches of {} with {} searches after each, compact, {} reopens, one as-of replay; per life {} auto checkpoints, {} auto compactions, {} segments at the end",
        sizing.lives,
        sizing.base_docs,
        sizing.batches,
        sizing.batch_docs,
        sizing.searches_per_batch,
        sizing.reopens,
        counts.auto_checkpoints,
        counts.auto_compactions,
        counts.segments_final
    ));
    Ok(out)
}

/// The traced pass: half as many lives twice, untraced and traced, so
/// the two can be compared; then the store and engine numbers from the
/// traced half and direct calls.
pub fn run_traced(options: RunOptions) -> Result<RunResult, String> {
    let half = RunOptions {
        seconds: options.seconds / 2.0,
        ..options
    };
    let plain = fixed_work(&PlainHarness, half, 1)?;
    let traced = Traced::new(1);
    let outcome = fixed_work(&traced, half, 1)?;
    let traces = &outcome.traces;
    let spans = traced.recorder.spans();
    let ops = outcome.add_ns.len() + outcome.searches();
    let counts = &outcome.lives[0].counts;
    let lives = outcome.lives.len().max(1) as f64;

    let mut out = RunResult {
        attempted: (as_load(&plain).attempted() + as_load(&outcome).attempted()) as u64,
        failed: (as_load(&plain).failed() + as_load(&outcome).failed()) as u64,
        ..RunResult::default()
    };
    layers::put_zeroes(&mut out);
    out.notes.push(format!(
        "{lives} lives of the store untraced ({:.2} s), then as many traced ({:.2} s)",
        plain.elapsed_s(),
        outcome.elapsed_s()
    ));
    put_client_diagnostics(&mut out, &as_load(&plain));
    let host: Vec<f64> = outcome.lives.iter().map(|l| l.host[0]).collect();
    out.put_timed("client.host_speed", median(&host), host.len());
    out.put(
        "obs.tracing_overhead_pct",
        100.0 * (outcome.elapsed_s() - plain.elapsed_s()) / plain.elapsed_s().max(1e-9),
    );
    out.put("corpus.generate_s", outcome.generate_s[0]);
    out.put(
        "index.build_docs_per_s",
        outcome.sizing.expect("the work's sizing").base_docs as f64 / outcome.build_s[0].max(1e-9),
    );

    let ms = |ns: u64| ns as f64 / 1e6;
    let mut log = outcome.log_ns.clone();
    log.sort_unstable();
    out.put_timed(
        "store.log_batch_ms_p50",
        ms(percentile(&log, 0.5)),
        log.len(),
    );
    out.put_timed("store.log_batch_ms_p95", ms(tail(&log, 0.95)), log.len());
    let mut folds: Vec<u64> = outcome
        .log_ns
        .iter()
        .zip(&outcome.checkpointed)
        .filter(|(_, &c)| c)
        .map(|(&ns, _)| ns)
        .collect();
    folds.sort_unstable();
    out.put_timed(
        "store.checkpoint_ms_p50",
        ms(percentile(&folds, 0.5)),
        folds.len(),
    );
    // Counts are one life's; every life's are the same.
    out.put("store.auto_checkpoints", counts.auto_checkpoints as f64);
    out.put("store.auto_compactions", counts.auto_compactions as f64);
    out.put(
        "store.disk_bytes_written_per_text_byte",
        counts.disk_bytes_written as f64 / outcome.text_bytes.max(1) as f64,
    );
    let mut compacts = outcome.compact_ns.clone();
    compacts.sort_unstable();
    out.put_timed(
        "store.compact_ms",
        ms(percentile(&compacts, 0.5)),
        compacts.len(),
    );
    out.put("store.segments_final", counts.segments_final as f64);
    out.put("store.wal_bytes_peak", counts.wal_bytes_peak as f64);
    let mut opens = outcome.open_ns.clone();
    opens.sort_unstable();
    out.put_timed("store.open_ms", ms(percentile(&opens, 0.5)), opens.len());
    out.put("store.collection_at_ms", ms(outcome.collection_at_ns));
    let mut appends = outcome.append_ns.clone();
    appends.sort_unstable();
    out.put_timed(
        "engine.append_ms_p50",
        ms(percentile(&appends, 0.5)),
        appends.len(),
    );
    out.put_timed(
        "index.merge_ms_per_batch",
        ms(appends.iter().sum::<u64>()) / appends.len().max(1) as f64,
        appends.len(),
    );
    out.put("engine.from_bytes_ms", ms(outcome.from_bytes_ns));

    let queries = (outcome.searches() as f64 / lives).max(1.0);
    out.put(
        "net.round_trips_per_query",
        counts.round_trips as f64 / queries,
    );
    out.put(
        "net.bytes_sent_per_query",
        counts.bytes_sent as f64 / queries,
    );
    out.put(
        "net.bytes_received_per_query",
        counts.bytes_received as f64 / queries,
    );
    layers::from_spans(&mut out, &spans, ops);
    layers::from_traces(&mut out, traces);
    layers::codec(
        &mut out,
        &traced.messages.lock().expect("message sample lock"),
    );
    let librarian = outcome
        .final_librarian
        .clone()
        .expect("the last reopened librarian");
    // There is no socket on this workload: the ping crosses the codec
    // and the in-process transport only.
    let mut admin = InProcTransport::from_shared(Arc::clone(&librarian));
    layers::ping(&mut out, &mut admin);
    // The reopened librarian's phase ledger starts empty, so the busy
    // share comes from the phases the traced replies echoed.
    let server_us: u64 = traces
        .iter()
        .flat_map(|t| &t.events)
        .filter_map(|e| match e.kind {
            teraphim_obs::EventKind::ServerPhase { micros, .. } => Some(micros),
            _ => None,
        })
        .sum();
    out.put(
        "net.server_busy_share",
        server_us as f64 / (outcome.elapsed_s() * 1e6).max(1.0),
    );
    let texts: Vec<&str> = outcome
        .query_texts
        .iter()
        .take(200)
        .map(String::as_str)
        .collect();
    let touched = layers::direct(&mut out, &[librarian], &texts);
    let rank_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "engine.rank")
        .map(spans::SpanRec::duration_ns)
        .sum();
    // The index grew while the queries ran; postings are counted on the
    // final index, so this is a floor on the cost per posting.
    let scanned = touched as f64 * outcome.searches() as f64 / texts.len().max(1) as f64;
    out.put(
        "engine.rank_ns_per_posting",
        rank_ns as f64 / scanned.max(1.0),
    );

    out.notes.push(format!(
        "design: store calls: {}; cache hits: none",
        if spans.iter().any(|s| s.layer() == "store") {
            "some"
        } else {
            "NONE"
        }
    ));
    let path = env::spans_path(catalog::INGEST).map_err(|e| format!("scratch directory: {e}"))?;
    spans::write_jsonl(&spans, &path).map_err(|e| format!("{}: {e}", path.display()))?;
    out.notes.push(format!(
        "{} spans written to {}",
        spans.len(),
        path.display()
    ));
    out.violations.extend(plain.violations.iter().cloned());
    out.violations.extend(outcome.violations.iter().cloned());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_keeps_every_document_and_the_seed_orders_it() {
        let corpus = generate(true);
        let docs = stream(&corpus, 3);
        let total: usize = corpus.subcollections().iter().map(|s| s.docs.len()).sum();
        assert_eq!(docs.len(), total);
        let mut docnos: Vec<&str> = docs.iter().map(|d| d.docno.as_str()).collect();
        let order = docnos.clone();
        docnos.sort_unstable();
        docnos.dedup();
        assert_eq!(docnos.len(), total, "no document twice");
        let again: Vec<String> = stream(&corpus, 3).into_iter().map(|d| d.docno).collect();
        assert_eq!(again, order);
        let other: Vec<String> = stream(&corpus, 4).into_iter().map(|d| d.docno).collect();
        assert_ne!(other, order);
    }

    #[test]
    fn smoke_sized_fixed_work_repeats_exactly() {
        let options = RunOptions {
            seed: 5,
            seconds: 1.0,
            smoke: true,
            calibrate: false,
        };
        let a = fixed_work(&PlainHarness, options, 1).unwrap();
        let b = fixed_work(&PlainHarness, options, 1).unwrap();
        // Every life of one run counted the same (else a violation),
        // and so did the two runs.
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.lives.len(), 2);
        let (a, b) = (&a.lives[0].counts, &b.lives[0].counts);
        assert_eq!(a, b);
        assert_eq!(
            a.overlap_sum, 8.0,
            "one librarian is the mono-server on all 8 probes"
        );
        assert!(
            a.disk_bytes_written + 1 >= a.store_bytes / 2,
            "a life wrote its batches at least once"
        );
    }
}
