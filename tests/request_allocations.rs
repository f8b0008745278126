//! What a served ranking request costs in heap allocations, counted on
//! both sides of real loopback TCP: N `TcpServer`s, one multiplexed
//! connection each, and one receptionist fanning out pipelined. Once
//! the buffers have grown (a first pass over the queries), a query may
//! allocate a constant for itself — analysis, its one term list, the
//! hits it returns — plus at most [`PER_SHARD`] blocks for each shard
//! it asks: the request the server decodes, the ranking it returns,
//! the reply the client decodes. A Central Index query, on the 4-way
//! split, may allocate no more than it did when its bound was set.
//!
//! It also checks that building a collection, or appending to one,
//! allocates for each distinct word, not for each token or document: a
//! build reads each word once, and compresses every document into one
//! arena. Loading a collection allocates a handful, not a few a
//! document.
//!
//! The same counter checks every decoder against hostile counts: a
//! message of a few bytes that claims a million elements, and a document
//! store, text model, index part, WAL batch or record, manifest or
//! segment that claims four billion entries, may not make the decoder
//! reserve more than a small multiple of its own length.
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
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use teraphim::compress::bytes::Reader;
use teraphim::compress::checksum::crc32;
use teraphim::compress::textcomp::TextModel;
use teraphim::core::{CiParams, Librarian, Methodology, Receptionist};
use teraphim::corpus::splits::split_into;
use teraphim::corpus::{CorpusSpec, SyntheticCorpus};
use teraphim::engine::{Collection, DocStore};
use teraphim::index::{DocWeights, IndexBuilder, InvertedIndex};
use teraphim::net::tcp::TcpServer;
use teraphim::net::wire::put_uint;
use teraphim::net::{Message, MuxTransport};
use teraphim::store::{wal, Manifest, Segment, SegmentBatch, SegmentEntry, StoreError};
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
    match methodology {
        Methodology::CentralVocabulary => receptionist.enable_cv().unwrap(),
        Methodology::CentralIndex => receptionist.enable_ci(CiParams::default()).unwrap(),
        Methodology::CentralNothing => {}
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

/// Allocations a served Central Index query may make on the 4-way split:
/// its group ranking at the receptionist, the candidate lists it sends
/// the librarians owning its top groups, their scoring and the replies.
/// Pinned a little above the count measured when it was set (75.7).
const CI_PER_QUERY: f64 = 80.0;

fn a_served_ci_query_allocates_no_more_than_it_did() {
    let corpus = SyntheticCorpus::generate(&CorpusSpec::small(42));
    let allocations = allocations_per_query(&corpus, 4, Methodology::CentralIndex);
    println!("CI: allocations a query over 4 shards: {allocations:.1}");
    assert!(
        allocations <= CI_PER_QUERY,
        "CI over 4 shards: {allocations:.1} allocations a query, more than {CI_PER_QUERY}"
    );
}

/// Allocations a build may make for each document it indexes and
/// stores: the growth of the arenas that hold them ...
const BUILD_PER_DOC: f64 = 1.0;
/// ... and for each distinct word. Pinned a little above the counts
/// measured when they were set: 218 to 224 allocations a subcollection
/// of 60 to 120 documents and 1 173 to 1 528 distinct words, all of it
/// the growth of the build's arenas. A stem in a `String` of its own
/// made it about 1.4 a distinct word, and a store compressed from a
/// second scan of the text about 15 more a document (a token buffer and
/// a growing bit writer for each compressed text, and a docno
/// `String`).
const BUILD_PER_WORD: f64 = 0.15;

fn a_build_allocates_per_document_and_distinct_word_not_per_token() {
    let corpus = SyntheticCorpus::generate(&CorpusSpec::small(42));
    for sub in corpus.subcollections() {
        let (mut tokens, mut words) = (0, HashSet::new());
        for doc in &sub.docs {
            let folded = Analyzer::raw().analyze(&doc.text);
            tokens += folded.len();
            words.extend(folded);
        }
        let (before, _) = counters();
        let collection = Collection::build(&sub.name, Analyzer::default(), &sub.docs);
        let (after, _) = counters();
        drop(collection);
        let allocations = (after - before) as f64;
        let (docs, words) = (sub.docs.len() as f64, words.len() as f64);
        let bound = BUILD_PER_DOC * docs + BUILD_PER_WORD * words;
        println!(
            "{}: {allocations} allocations to build {docs} documents, {words} distinct words, \
             {tokens} tokens ({:.2} a token; bound {bound})",
            sub.name,
            allocations / tokens as f64
        );
        assert!(
            allocations <= bound,
            "{}: {allocations} allocations, more than {BUILD_PER_DOC} x {docs} documents \
             + {BUILD_PER_WORD} x {words} distinct words",
            sub.name
        );
    }
}

/// Allocations an append may make for each document it indexes and
/// stores, into the arenas the collection already holds ...
const APPEND_PER_DOC: f64 = 0.5;
/// ... and for each distinct word of the batch. Pinned a little above
/// the counts measured when they were set: 156 to 164 allocations a
/// batch of 60 to 100 documents and 1 173 to 1 453 distinct words
/// (0.11 to 0.14 a word), all of it the growth of the scan's, the
/// delta's and the store's arenas. Analyzing a word into a `String` of
/// its own (its stem) made about 1.1 a word, and a scan that did so for
/// every surface form of a word (`The`, `the`) 1.34.
const APPEND_PER_WORD: f64 = 0.125;

fn an_append_allocates_per_document_and_distinct_word_not_per_token() {
    let corpus = SyntheticCorpus::generate(&CorpusSpec::small(42));
    let subs = corpus.subcollections();
    for (base, batch) in subs.iter().zip(subs.iter().cycle().skip(1)) {
        let batch = &batch.docs[..batch.docs.len().min(100)];
        let words: HashSet<String> = batch
            .iter()
            .flat_map(|doc| Analyzer::raw().analyze(&doc.text))
            .collect();
        let mut collection = Collection::build(&base.name, Analyzer::default(), &base.docs);
        let (before, _) = counters();
        collection.append_documents(batch).expect("appends");
        let (after, _) = counters();
        drop(collection);
        let allocations = (after - before) as f64;
        let (docs, words) = (batch.len() as f64, words.len() as f64);
        let bound = APPEND_PER_DOC * docs + APPEND_PER_WORD * words;
        println!(
            "{}: {allocations} allocations to append {docs} documents, {words} distinct words \
             ({:.2} a word; bound {bound})",
            base.name,
            allocations / words
        );
        assert!(
            allocations <= bound,
            "{}: {allocations} allocations, more than {APPEND_PER_DOC} x {docs} documents \
             + {APPEND_PER_WORD} x {words} distinct words",
            base.name
        );
    }
}

/// Allocations `Collection::from_bytes` may make for any of the small
/// corpus's subcollections, 60 to 120 documents: its index and document
/// store are each a handful of arenas. Pinned a little above the 50 to
/// 51 measured when it was set; a docno `String` and a text `Vec` a
/// document made it 2 a document more.
const LOAD_ALLOCATIONS: f64 = 64.0;

fn a_load_allocates_a_handful_not_per_document() {
    let corpus = SyntheticCorpus::generate(&CorpusSpec::small(42));
    for sub in corpus.subcollections() {
        let bytes = Collection::build(&sub.name, Analyzer::default(), &sub.docs).to_bytes();
        let (before, _) = counters();
        let collection = Collection::from_bytes(&bytes).expect("loads");
        let (after, _) = counters();
        drop(collection);
        let allocations = (after - before) as f64;
        println!(
            "{}: {allocations} allocations to load {} documents (bound {LOAD_ALLOCATIONS})",
            sub.name,
            sub.docs.len()
        );
        assert!(
            allocations <= LOAD_ALLOCATIONS,
            "{}: {allocations} allocations to load {} documents, more than {LOAD_ALLOCATIONS}",
            sub.name,
            sub.docs.len()
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

/// Asserts that `decode` refuses `bytes` and reserves no more than 32
/// bytes for each of theirs on the way.
fn refused_for_little<T, E>(what: &str, bytes: &[u8], decode: impl FnOnce(&[u8]) -> Result<T, E>) {
    let requested = bytes_requested(|| assert!(decode(bytes).is_err(), "{what} decoded"));
    assert!(
        requested <= 32 * bytes.len() as u64,
        "{what}: {requested} bytes reserved for a {}-byte input",
        bytes.len()
    );
}

/// Four bytes claiming `u32::MAX` elements, then 4 KiB of zeros.
fn claiming_four_billion() -> Vec<u8> {
    [&u32::MAX.to_le_bytes()[..], &[0; 1 << 12]].concat()
}

/// `section` with its `u32` length in front, as an index writes it.
fn prefixed(section: &[u8]) -> Vec<u8> {
    [&(section.len() as u32).to_le_bytes()[..], section].concat()
}

/// Wire messages, a document store, a text model and each counted part
/// of an index that claim far more elements than their bytes hold.
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
    let empty = Collection::build("C", Analyzer::default(), &[])
        .store()
        .to_bytes();
    let mut store = empty.clone();
    let count = store.len() - 4;
    store[count..].copy_from_slice(&u32::MAX.to_le_bytes());
    let requested = bytes_requested(|| assert!(DocStore::from_bytes(&store).is_err()));
    let model = bytes_requested(|| drop(DocStore::from_bytes(&empty).unwrap()));
    assert!(
        requested <= model + 32 * store.len() as u64,
        "{requested} bytes reserved for a {}-byte document store ({model} for its model)",
        store.len()
    );

    let hostile = claiming_four_billion();
    refused_for_little("text model classes", &hostile, TextModel::from_bytes);
    refused_for_little("weights", &hostile, DocWeights::from_bytes);
    // An index's vocabulary section; then, behind empty sections, its
    // document lengths.
    let vocabulary = [prefixed(&hostile), prefixed(&[0; 12]), prefixed(&[0; 4])].concat();
    refused_for_little("vocabulary", &vocabulary, InvertedIndex::from_bytes);
    let empty = [prefixed(&[0; 4]), prefixed(&[0; 12]), prefixed(&[0; 4])].concat();
    let lengths = [empty, hostile].concat();
    refused_for_little("document lengths", &lengths, InvertedIndex::from_bytes);
    // An index of 4 096 terms cut after its list count: 4 096 lists of
    // at least 12 bytes each claimed, none there.
    let mut builder = IndexBuilder::new();
    let terms: Vec<String> = (0..1 << 12).map(|t| format!("t{t}")).collect();
    builder.add_document(&terms);
    let index = builder.build().to_bytes();
    let mut r = Reader::new(&index, "index");
    for _ in 0..3 {
        r.section().unwrap();
    }
    let docs = r.u32().unwrap();
    r.take(4 * u64::from(docs)).unwrap();
    r.u32().unwrap();
    let lists = &index[..index.len() - r.rest().len()];
    refused_for_little("lists", lists, InvertedIndex::from_bytes);
}

/// The store's own files: a WAL batch, a WAL record, a manifest and a
/// segment that claim four billion entries, each checksum made good.
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

    // A WAL record around a batch claiming u32::MAX documents: its CRC
    // covers the epoch, the length and the payload.
    let payload = claiming_four_billion();
    let head = [
        1u64.to_le_bytes(),
        u64::from(payload.len() as u32).to_le_bytes(),
    ];
    let crc = crc32(&[&head[0][..], &head[1][..4], &payload].concat());
    let record = [
        &wal::RECORD_MAGIC[..],
        &head[0],
        &head[1][..4],
        &crc.to_le_bytes(),
        &payload,
    ]
    .concat();
    refused_for_little("WAL record", &record, wal::scan);

    // A segment whose batch list claims u32::MAX batches: its CRC covers
    // everything between the head magic and the CRC itself.
    let segment = Segment {
        collection: vec![0; 1 << 12].into(),
        batches: vec![SegmentBatch { epoch: 0, docs: 1 }],
    };
    let mut bytes = Vec::new();
    segment.write_to(&mut bytes).unwrap();
    let (meta, crc_at) = (4 + (1 << 12), bytes.len() - 8);
    bytes[meta..meta + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let crc = crc32(&bytes[4..crc_at]).to_le_bytes();
    bytes[crc_at..crc_at + 4].copy_from_slice(&crc);
    refused_for_little("segment batch list", &bytes, |b| {
        Segment::decode(b).map(drop)
    });
}

/// The cases, in the order they run.
const CASES: [(&str, fn()); 7] = [
    (
        "a_served_query_allocates_a_constant_plus_a_few_blocks_per_shard",
        a_served_query_allocates_a_constant_plus_a_few_blocks_per_shard,
    ),
    (
        "a_served_ci_query_allocates_no_more_than_it_did",
        a_served_ci_query_allocates_no_more_than_it_did,
    ),
    (
        "a_build_allocates_per_document_and_distinct_word_not_per_token",
        a_build_allocates_per_document_and_distinct_word_not_per_token,
    ),
    (
        "an_append_allocates_per_document_and_distinct_word_not_per_token",
        an_append_allocates_per_document_and_distinct_word_not_per_token,
    ),
    (
        "a_load_allocates_a_handful_not_per_document",
        a_load_allocates_a_handful_not_per_document,
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
