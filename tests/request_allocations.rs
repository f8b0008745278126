//! What a served ranking request costs in heap allocations, counted on
//! both sides of real loopback TCP: N `TcpServer`s, one multiplexed
//! connection each, and one receptionist fanning out pipelined. Once
//! the buffers have grown (a first pass over the queries), a query may
//! allocate a constant for itself — analysis, its one term list, the
//! hits it returns — plus at most [`PER_SHARD`] blocks for each shard
//! it asks: the request the server decodes, the ranking it returns,
//! the reply the client decodes.
//!
//! The same counter checks the decoders against hostile counts: a
//! message of a few bytes that claims a million elements, a document
//! store, a WAL batch or a manifest that claims four billion entries,
//! may not make the decoder reserve more than a small multiple of its
//! own length.
//!
//! A test binary of its own with a counting global allocator, so that
//! no other test allocates while it counts. The counter is process-wide,
//! as it must be (server threads allocate too), so the binary has no
//! test harness: `main` runs the cases one after another on its own
//! thread, with no harness thread beside them, and reports them the
//! way the standard harness does. Arguments that are not flags filter
//! the cases by name (`--exact` for whole names); `--list` lists them.
//!
//! ```sh
//! cargo test --release --test request_allocations [-- NAME]
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use teraphim::compress::checksum::crc32;
use teraphim::core::{Librarian, Methodology, Receptionist};
use teraphim::corpus::splits::split_into;
use teraphim::corpus::{CorpusSpec, SyntheticCorpus};
use teraphim::engine::DocStore;
use teraphim::net::tcp::TcpServer;
use teraphim::net::wire::put_uint;
use teraphim::net::{Message, MuxTransport};
use teraphim::store::{wal, Manifest, SegmentEntry, StoreError};
use teraphim::text::Analyzer;

struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are only bookkeeping.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocation calls and bytes requested so far, all threads.
fn counters() -> (u64, u64) {
    (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

/// Allocations a served query may make for each shard it asks.
const PER_SHARD: f64 = 4.0;
/// Allocations a query may make for itself, whatever the fleet's size.
const PER_QUERY: f64 = 64.0;

/// Steady-state allocations per query over an `n`-way split of the
/// small corpus under `methodology`, every server and client thread
/// counted.
fn allocations_per_query(corpus: &SyntheticCorpus, n: usize, methodology: Methodology) -> f64 {
    let servers: Vec<TcpServer> = split_into(corpus, n)
        .iter()
        .map(|part| {
            let librarian = Librarian::build(&part.name, Analyzer::default(), &part.docs);
            TcpServer::spawn(librarian, "127.0.0.1:0").unwrap()
        })
        .collect();
    let transports: Vec<MuxTransport> = servers
        .iter()
        .map(|server| MuxTransport::connect(server.addr()).unwrap())
        .collect();
    let mut receptionist = Receptionist::new(transports, Analyzer::default());
    if methodology == Methodology::CentralVocabulary {
        receptionist.enable_cv().unwrap();
    }
    let queries = corpus.short_queries();
    let mut pass = || {
        for query in queries {
            assert!(receptionist.query(methodology, &query.text, 20).is_ok());
        }
    };
    pass();
    let (before, _) = counters();
    pass();
    let (after, _) = counters();
    drop(receptionist);
    for server in servers {
        server.shutdown();
    }
    (after - before) as f64 / queries.len() as f64
}

fn a_served_query_allocates_a_constant_plus_a_few_blocks_per_shard() {
    let corpus = SyntheticCorpus::generate(&CorpusSpec::small(42));
    for methodology in [Methodology::CentralNothing, Methodology::CentralVocabulary] {
        let per_query: Vec<(usize, f64)> = [4, 16]
            .into_iter()
            .map(|n| (n, allocations_per_query(&corpus, n, methodology)))
            .collect();
        println!("{methodology}: allocations a query at N shards: {per_query:?}");
        for &(n, allocations) in &per_query {
            assert!(
                allocations <= PER_QUERY + PER_SHARD * n as f64,
                "{methodology} over {n} shards: {allocations:.1} allocations a query, \
                 more than {PER_QUERY} + {PER_SHARD} x {n}"
            );
        }
        let [(n0, a0), (n1, a1)] = per_query[..] else {
            unreachable!("two fleet sizes")
        };
        let slope = (a1 - a0) / (n1 - n0) as f64;
        assert!(
            slope <= PER_SHARD,
            "{methodology}: {slope:.2} allocations a query for each shard added"
        );
    }
}

/// Bytes requested from the allocator while `f` runs.
fn bytes_requested(f: impl FnOnce()) -> u64 {
    let (_, before) = counters();
    f();
    let (_, after) = counters();
    after - before
}

/// A message of the variant `tag` whose fields `fields` precede a count
/// that claims a million elements that are not there.
fn claiming_a_million(tag: u8, fields: &[u64]) -> Vec<u8> {
    let mut frame = vec![tag];
    for &field in fields {
        put_uint(&mut frame, field);
    }
    put_uint(&mut frame, 1 << 20);
    frame
}

/// Wire messages and a document store that claim far more elements
/// than their bytes hold.
fn a_hostile_count_buys_no_reservation() {
    // Each variant that carries a list, with the fields before its
    // count: `(tag, fields)`, tags as `Message::encode` writes them.
    let frames = [
        claiming_a_million(2, &[7]),                          // StatsResponse
        claiming_a_million(5, &[1, 20]),                      // RankRequest
        claiming_a_million(6, &[1, 20]),                      // RankWeightedRequest
        claiming_a_million(7, &[1, 0]),                       // RankResponse
        claiming_a_million(8, &[1]),                          // ScoreCandidatesRequest terms
        claiming_a_million(8, &[1, 0]),                       // ScoreCandidatesRequest candidates
        claiming_a_million(9, &[1, 0, 5]),                    // ScoreResponse
        claiming_a_million(11, &[1]),                         // DocsResponse
        claiming_a_million(13, &[1]),                         // FetchHeadersRequest
        claiming_a_million(14, &[1]),                         // HeadersResponse
        claiming_a_million(16, &[1]),                         // BooleanResponse
        claiming_a_million(19, &[0, 1, 2, 3, 4, 5, 6, 7]),    // StatsReply latency
        claiming_a_million(19, &[0, 1, 2, 3, 4, 5, 6, 7, 0]), // StatsReply phases
    ];
    let mut fetch = vec![10];
    put_uint(&mut fetch, 1);
    fetch.push(0);
    put_uint(&mut fetch, 1 << 20);
    for frame in frames.iter().chain([&fetch]) {
        let requested = bytes_requested(|| assert!(Message::decode(frame).is_err()));
        assert!(
            requested <= 32 * frame.len() as u64,
            "tag {}: {requested} bytes reserved for a {}-byte message",
            frame[0],
            frame.len()
        );
    }

    // A document store with no documents that claims u32::MAX of them.
    let mut store = DocStore::build(&[]).to_bytes();
    let count = store.len() - 4;
    store[count..].copy_from_slice(&u32::MAX.to_le_bytes());
    let requested = bytes_requested(|| assert!(DocStore::from_bytes(&store).is_err()));
    let empty = DocStore::build(&[]).to_bytes();
    let model = bytes_requested(|| drop(DocStore::from_bytes(&empty).unwrap()));
    assert!(
        requested <= model + 32 * store.len() as u64,
        "{requested} bytes reserved for a {}-byte document store ({model} for its model)",
        store.len()
    );
}

/// The store's own files: a WAL batch and a manifest that claim four
/// billion entries.
fn a_hostile_wal_or_manifest_count_buys_no_reservation() {
    // A WAL batch that claims u32::MAX documents and holds 8 192 empty
    // ones: each takes its two lengths, 8 bytes, and 48 as a `TrecDoc`.
    let batch = [&u32::MAX.to_le_bytes()[..], &[0; 1 << 16]].concat();
    let requested = bytes_requested(|| assert!(wal::decode_batch(&batch).is_err()));
    assert!(
        requested <= 8 * batch.len() as u64,
        "{requested} bytes reserved for a {}-byte WAL batch",
        batch.len()
    );

    // A manifest, its checksum made good, whose long name is followed by
    // a batch count of u32::MAX and no batches.
    let manifest = Manifest {
        name: "N".repeat(1 << 16),
        stopping: true,
        stemming: true,
        epoch: 0,
        next_segment_id: 1,
        segment: SegmentEntry {
            file: "seg-000000.seg".into(),
            batches: Vec::new(),
        },
    };
    let mut bytes = manifest.encode();
    let body = bytes.len() - 4;
    bytes[body - 4..body].copy_from_slice(&u32::MAX.to_le_bytes());
    let crc = crc32(&bytes[..body]).to_le_bytes();
    bytes[body..].copy_from_slice(&crc);
    let requested = bytes_requested(|| {
        assert!(matches!(
            Manifest::decode(&bytes),
            Err(StoreError::Corrupt {
                what: "manifest truncated"
            })
        ));
    });
    assert!(
        requested <= 2 * bytes.len() as u64,
        "{requested} bytes reserved for a {}-byte manifest",
        bytes.len()
    );
}

/// The cases, in the order they run.
const CASES: [(&str, fn()); 3] = [
    (
        "a_served_query_allocates_a_constant_plus_a_few_blocks_per_shard",
        a_served_query_allocates_a_constant_plus_a_few_blocks_per_shard,
    ),
    (
        "a_hostile_count_buys_no_reservation",
        a_hostile_count_buys_no_reservation,
    ),
    (
        "a_hostile_wal_or_manifest_count_buys_no_reservation",
        a_hostile_wal_or_manifest_count_buys_no_reservation,
    ),
];

/// Flags of the standard harness that take a value as the next
/// argument; the value is not a filter.
const FLAGS_WITH_VALUES: [&str; 6] = [
    "--test-threads",
    "--format",
    "--color",
    "--logfile",
    "--skip",
    "-Z",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut filters, mut skips) = (Vec::new(), Vec::new());
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--skip" => skips.extend(iter.next()),
            flag if FLAGS_WITH_VALUES.contains(&flag) => {
                iter.next();
            }
            flag if flag.starts_with('-') => {}
            filter => filters.push(filter),
        }
    }
    let exact = args.iter().any(|a| a == "--exact");
    let matches = |name: &str, pattern: &str| match exact {
        true => name == pattern,
        false => name.contains(pattern),
    };
    let selected: Vec<&(&str, fn())> = CASES
        .iter()
        .filter(|(name, _)| filters.is_empty() || filters.iter().any(|f| matches(name, f)))
        .filter(|(name, _)| !skips.iter().any(|s| matches(name, s)))
        .collect();
    if args.iter().any(|a| a == "--list") {
        for (name, _) in &selected {
            println!("{name}: test");
        }
        return;
    }
    let started = Instant::now();
    println!("\nrunning {} tests", selected.len());
    let mut failed = Vec::new();
    for (name, case) in &selected {
        let ok = std::panic::catch_unwind(case).is_ok();
        println!("test {name} ... {}", if ok { "ok" } else { "FAILED" });
        if !ok {
            failed.push(*name);
        }
    }
    if !failed.is_empty() {
        println!("\nfailures:");
        for name in &failed {
            println!("    {name}");
        }
    }
    println!(
        "\ntest result: {}. {} passed; {} failed; 0 ignored; 0 measured; {} filtered out; \
         finished in {:.2}s\n",
        if failed.is_empty() { "ok" } else { "FAILED" },
        selected.len() - failed.len(),
        failed.len(),
        CASES.len() - selected.len(),
        started.elapsed().as_secs_f64()
    );
    if !failed.is_empty() {
        std::process::exit(101);
    }
}
