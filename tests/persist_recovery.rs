//! Crash-recovery properties of the persistent index store (tentpole
//! satellite suite):
//!
//! * the crash-point sweep — a simulated process death at *every* byte
//!   offset of a WAL commit, in both torn-write and garbled-sector
//!   modes, must always reopen onto a durable epoch whose rankings are
//!   byte-identical to an in-memory oracle at that epoch;
//! * codec round-trips — arbitrary documents through the WAL batch
//!   codec and the segment codec come back identical;
//! * corruption anywhere but the WAL tail fails `open` with a typed
//!   [`StoreError`] — no panic, no partially-applied state;
//! * as-of queries replay any durable epoch deterministically, and the
//!   store-backed [`Librarian`] recovers epoch and rankings end-to-end;
//! * the fold (checkpoint) survives a death in either of its two crash
//!   windows, and a fold that fails does not fail the batch that
//!   triggered it.

use std::collections::BTreeMap;
use std::path::Path;

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

use teraphim::core::{Librarian, TeraphimError};
use teraphim::engine::Collection;
use teraphim::store::{
    wal, CrashMode, CrashPoint, IndexStore, StoreError, TempDir, CHECKPOINT_BATCHES,
};
use teraphim::text::sgml::TrecDoc;
use teraphim::text::Analyzer;

/// Probe queries for ranking fingerprints: overlapping vocabulary so
/// churn batches actually move scores.
const QUERIES: &[&str] = &[
    "cat dog",
    "penguin colony",
    "tides rising",
    "batch volume cat",
    "mat yard dog",
];

/// Exact ranking fingerprint: every `(doc, score-bit)` pair over the
/// probe queries. Two collections with equal fingerprints rank
/// identically to the last bit of every score.
fn fingerprint(c: &Collection) -> Vec<(u32, u64)> {
    QUERIES
        .iter()
        .flat_map(|q| {
            c.ranked_query(q, 10)
                .into_iter()
                .map(|h| (h.doc, h.score.to_bits()))
        })
        .collect()
}

const VOCAB: &[&str] = &[
    "cat",
    "dog",
    "mat",
    "yard",
    "penguin",
    "colony",
    "tides",
    "rising",
    "batch",
    "volume",
    "compression",
    "inverted",
    "files",
    "sat",
    "ran",
];

fn doc(tag: &str, i: usize, words: &[usize]) -> TrecDoc {
    TrecDoc {
        docno: format!("{tag}-{i}"),
        text: words
            .iter()
            .map(|&w| VOCAB[w % VOCAB.len()])
            .collect::<Vec<_>>()
            .join(" "),
    }
}

fn base_docs() -> Vec<TrecDoc> {
    (0..4)
        .map(|i| doc("BASE", i, &[i, i + 1, i + 5, 2]))
        .collect()
}

/// One arbitrary document batch: 1..=3 docs of 1..=6 vocabulary words.
struct ArbBatch {
    tag: &'static str,
}

impl Strategy for ArbBatch {
    type Value = Vec<TrecDoc>;

    fn generate(&self, rng: &mut TestRng) -> Vec<TrecDoc> {
        let n = 1 + rng.index(3);
        (0..n)
            .map(|i| {
                let len = 1 + rng.index(6);
                let words: Vec<usize> = (0..len).map(|_| rng.index(VOCAB.len())).collect();
                doc(self.tag, i, &words)
            })
            .collect()
    }
}

/// A store-backed librarian, the store's one writer, with `batches`
/// committed. Callers commit fewer than [`CHECKPOINT_BATCHES`], so
/// every batch is still pending in the WAL and the crash sweeps
/// exercise replay of the full log.
fn store_with_batches(dir: &TempDir, batches: &[Vec<TrecDoc>]) -> Librarian {
    assert!(batches.len() < CHECKPOINT_BATCHES);
    let mut librarian =
        Librarian::create_store(dir.path(), "CRASH", &Analyzer::default(), &base_docs())
            .expect("fresh store creates");
    for batch in batches {
        librarian.add_documents(batch).expect("batch commits");
    }
    librarian
}

/// The store-backed librarian's fold, by name.
fn compact(librarian: &mut Librarian) -> Result<(), StoreError> {
    librarian
        .store_mut()
        .expect("a store-backed librarian")
        .compact()
}

/// The oracle collection at `epoch`: base plus the first `epoch`
/// batches, applied exactly like the live path applies them.
fn oracle_at(batches: &[&[TrecDoc]], epoch: u64) -> Collection {
    let mut c = Collection::build("CRASH", Analyzer::default(), &base_docs());
    for batch in batches.iter().take(epoch as usize) {
        c.append_documents(batch).expect("oracle appends");
    }
    c
}

/// Runs one crash case: `committed` batches are durable, then a crash
/// strikes at byte `offset` of the record carrying `next`. Asserts the
/// reopened store lands on exactly the expected durable epoch with
/// oracle-identical rankings.
fn run_crash_case(committed: &[Vec<TrecDoc>], next: &[TrecDoc], offset: u64, mode: CrashMode) {
    let dir = TempDir::new("crash-case").expect("tempdir");
    let mut librarian = store_with_batches(&dir, committed);
    let k = committed.len() as u64;
    let record_len = wal::encode_record(k + 1, next).len() as u64;

    librarian
        .store_mut()
        .expect("a store-backed librarian")
        .inject_crash(CrashPoint { offset, mode });
    let err = librarian
        .add_documents(next)
        .expect_err("armed crash point fires");
    assert!(matches!(err, TeraphimError::Store(StoreError::Crashed)));
    // The "process" is dead: every further operation is refused.
    let err = librarian
        .add_documents(next)
        .expect_err("a dead store refuses");
    assert!(matches!(err, TeraphimError::Store(StoreError::Poisoned)));
    assert_eq!(
        librarian.epoch(),
        k,
        "the epoch never runs ahead of the WAL"
    );
    drop(librarian);

    // The record survives only if every one of its bytes did.
    let expected = if offset >= record_len { k + 1 } else { k };
    let (reopened, collection) = IndexStore::open(dir.path())
        .unwrap_or_else(|e| panic!("reopen after crash at {offset}/{record_len} {mode:?}: {e}"));
    assert_eq!(
        reopened.epoch(),
        expected,
        "durable epoch after crash at {offset}/{record_len} {mode:?}"
    );
    reopened.verify().expect("recovered store verifies");

    let mut all: Vec<&[TrecDoc]> = committed.iter().map(Vec::as_slice).collect();
    all.push(next);
    let oracle = oracle_at(&all, expected);
    assert_eq!(
        fingerprint(&collection),
        fingerprint(&oracle),
        "rankings at epoch {expected} after crash at {offset}/{record_len} {mode:?}"
    );
}

/// Deterministic exhaustive sweep: every byte offset of one commit, in
/// both crash modes, on a store that already has two durable batches.
#[test]
fn every_crash_offset_recovers_to_a_durable_epoch() {
    let committed = vec![
        vec![doc("B1", 0, &[0, 1, 8]), doc("B1", 1, &[4, 5])],
        vec![doc("B2", 0, &[6, 7, 0])],
    ];
    let next = vec![doc("B3", 0, &[2, 3, 9]), doc("B3", 1, &[10, 11, 12])];
    let record_len = wal::encode_record(3, &next).len() as u64;
    for mode in [CrashMode::Truncate, CrashMode::Garble] {
        // `record_len + 1` also covers the fully-durable "crashed just
        // after the sync" case.
        for offset in 0..=record_len {
            run_crash_case(&committed, &next, offset, mode);
        }
    }
}

proptest! {
    /// The same property under arbitrary batches and crash points —
    /// run with `PROPTEST_CASES=64` (or more) in CI.
    fn crash_points_always_recover(
        committed in vec(ArbBatch { tag: "C" }, 0..=3),
        next in ArbBatch { tag: "N" },
        offset_pick in 0u64..4096,
        mode_pick in 0u64..2,
    ) {
        let mode = if mode_pick == 0 { CrashMode::Truncate } else { CrashMode::Garble };
        let record_len = wal::encode_record(committed.len() as u64 + 1, &next).len() as u64;
        let offset = offset_pick % (record_len + 2);
        run_crash_case(&committed, &next, offset, mode);
    }

    /// WAL batch codec: arbitrary documents encode and decode to the
    /// identical batch, and the encoding has no slack bytes.
    fn wal_batch_codec_round_trips(docs in vec(ArbBatch { tag: "W" }, 1..=1)) {
        let docs = docs.into_iter().next().unwrap();
        let bytes = wal::encode_batch(&docs);
        let back = wal::decode_batch(&bytes).expect("decode");
        prop_assert_eq!(back, docs);
        // Truncating by one byte must be detected, never mis-decoded.
        let truncated = wal::decode_batch(&bytes[..bytes.len() - 1]);
        prop_assert!(truncated.is_err());
    }

    /// Full WAL records round-trip through the scanner.
    fn wal_record_codec_round_trips(
        batches in vec(ArbBatch { tag: "R" }, 1..=4),
    ) {
        let mut log = Vec::new();
        for (i, batch) in batches.iter().enumerate() {
            log.extend_from_slice(&wal::encode_record(i as u64 + 1, batch));
        }
        let scan = wal::scan(&log).expect("clean log scans");
        prop_assert_eq!(scan.records.len(), batches.len());
        prop_assert_eq!(scan.valid_len as usize, log.len());
        for (i, (record, batch)) in scan.records.iter().zip(&batches).enumerate() {
            prop_assert_eq!(record.epoch, i as u64 + 1);
            prop_assert_eq!(&record.docs, batch);
        }
    }

    /// Segment codec: an arbitrary collection survives the segment
    /// file format with rankings and stored documents intact.
    fn segment_codec_round_trips(batch in ArbBatch { tag: "S" }) {
        let collection = Collection::build("SEG", Analyzer::default(), &batch);
        let segment = teraphim::store::Segment {
            collection: collection.to_bytes().into(),
            batches: vec![teraphim::store::SegmentBatch {
                epoch: 0,
                docs: batch.len() as u64,
            }],
        };
        let mut encoded = Vec::new();
        segment.write_to(&mut encoded).expect("a Vec takes every write");
        let back = teraphim::store::Segment::decode(&encoded).expect("segment decodes");
        prop_assert_eq!(&back, &segment);
        let reloaded = Collection::from_bytes(&back.collection).expect("collection decodes");
        prop_assert_eq!(fingerprint(&reloaded), fingerprint(&collection));
        prop_assert_eq!(reloaded.export_docs(usize::MAX).expect("docs"), batch);
    }
}

/// Corruption *behind* the WAL tail — a segment file, the manifest, or
/// a mid-log record — is damage no crash can explain, and open must
/// refuse with a typed error instead of serving partial data.
#[test]
fn corruption_beyond_the_tail_is_a_typed_open_failure() {
    // Segment corruption: flip one byte in the middle of the segment.
    let dir = TempDir::new("corrupt-seg").expect("tempdir");
    let mut librarian = store_with_batches(&dir, &[vec![doc("B", 0, &[0, 1])]]);
    compact(&mut librarian).expect("fold");
    drop(librarian);
    let seg_path = std::fs::read_dir(dir.path())
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "seg"))
        .expect("a segment file exists");
    let mut bytes = std::fs::read(&seg_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xA5;
    std::fs::write(&seg_path, &bytes).unwrap();
    match IndexStore::open(dir.path()) {
        Err(StoreError::Corrupt { .. }) => {}
        other => panic!("corrupt segment must fail typed, got {other:?}"),
    }

    // Manifest corruption: same treatment for the root pointer.
    let dir = TempDir::new("corrupt-man").expect("tempdir");
    drop(store_with_batches(&dir, &[]));
    let man_path = dir.path().join("MANIFEST");
    let mut bytes = std::fs::read(&man_path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xA5;
    std::fs::write(&man_path, &bytes).unwrap();
    match IndexStore::open(dir.path()) {
        Err(StoreError::Corrupt { .. }) => {}
        other => panic!("corrupt manifest must fail typed, got {other:?}"),
    }

    // Mid-log garbling: two records, first one damaged. A crash cannot
    // produce this (each record is synced before the next is written),
    // so recovery must refuse rather than silently drop epoch 1.
    let dir = TempDir::new("corrupt-wal").expect("tempdir");
    let mut librarian = store_with_batches(&dir, &[]);
    librarian.add_documents(&[doc("B1", 0, &[0])]).unwrap();
    librarian.add_documents(&[doc("B2", 0, &[1])]).unwrap();
    drop(librarian);
    let wal_path = dir.path().join("wal.log");
    let mut bytes = std::fs::read(&wal_path).unwrap();
    bytes[8] ^= 0xA5; // inside the first record's header
    std::fs::write(&wal_path, &bytes).unwrap();
    match IndexStore::open(dir.path()) {
        Err(StoreError::Corrupt { .. }) => {}
        other => panic!("mid-log corruption must fail typed, got {other:?}"),
    }

    // And a missing manifest is `Missing`, not a panic or a fresh store.
    let dir = TempDir::new("no-store").expect("tempdir");
    assert_eq!(
        IndexStore::open(dir.path()).map(|_| ()),
        Err(StoreError::Missing)
    );
}

/// As-of queries: every durable epoch replays to oracle-identical
/// rankings, before and after the fold moves the batches from the WAL
/// into the segment, and after a second fold that finds nothing
/// pending; asking beyond the durable epoch is typed.
#[test]
fn as_of_replay_matches_the_oracle_at_every_epoch() {
    let batches = vec![
        vec![doc("B1", 0, &[0, 1, 8]), doc("B1", 1, &[4, 5])],
        vec![doc("B2", 0, &[6, 7, 0])],
        vec![doc("B3", 0, &[2, 3, 9])],
    ];
    let dir = TempDir::new("asof").expect("tempdir");
    let mut librarian = store_with_batches(&dir, &batches);
    let refs: Vec<&[TrecDoc]> = batches.iter().map(Vec::as_slice).collect();

    for phase in ["pending", "compacted", "compacted twice"] {
        let store = librarian.store().expect("a store-backed librarian");
        for epoch in 0..=batches.len() as u64 {
            let as_of = store
                .collection_at(epoch)
                .unwrap_or_else(|e| panic!("{phase}: as-of {epoch}: {e}"));
            assert_eq!(
                fingerprint(&as_of),
                fingerprint(&oracle_at(&refs, epoch)),
                "{phase}: rankings pinned to epoch {epoch}"
            );
        }
        assert_eq!(
            store
                .collection_at(batches.len() as u64 + 1)
                .map(|_| ())
                .unwrap_err(),
            StoreError::NoSuchEpoch {
                requested: batches.len() as u64 + 1,
                durable: batches.len() as u64,
            },
            "{phase}: beyond-durable epoch is typed"
        );
        compact(&mut librarian).expect("compact");
    }
    let store = librarian.store().expect("a store-backed librarian");
    assert_eq!(store.pending_batches(), 0, "the fold emptied the WAL");
    assert_eq!(store.num_segments(), 1, "compaction left one segment");
}

/// End-to-end: a store-backed librarian adds documents durably,
/// "dies", and a fresh librarian opened from the directory answers
/// with the same epoch and bit-identical rankings.
#[test]
fn librarian_reopens_with_identical_rankings() {
    let dir = TempDir::new("librarian").expect("tempdir");
    let mut librarian =
        Librarian::create_store(dir.path(), "LIB", &Analyzer::default(), &base_docs())
            .expect("store-backed librarian");
    let epoch = librarian
        .add_documents(&[doc("B1", 0, &[0, 1, 2]), doc("B1", 1, &[8, 9])])
        .expect("durable add");
    assert_eq!(epoch, 1);
    let before = fingerprint(librarian.collection());
    drop(librarian);

    let recovered = Librarian::open(dir.path()).expect("reopen");
    assert_eq!(recovered.epoch(), 1, "epoch recovered from the manifest");
    assert_eq!(
        fingerprint(recovered.collection()),
        before,
        "recovered rankings are bit-identical"
    );
}

/// Every regular file of a store directory, by name.
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap())
        .filter(|entry| entry.file_type().unwrap().is_file())
        .map(|entry| {
            let name = entry.file_name().into_string().unwrap();
            (name, std::fs::read(entry.path()).unwrap())
        })
        .collect()
}

/// The fold has two crash windows: after the new segment is written but
/// before the manifest is renamed over the old one, and after the
/// rename but before the WAL is truncated. Both directory states are
/// assembled from snapshots taken before (A) and after (B) a real fold;
/// each must reopen at the same durable epoch with oracle-identical
/// rankings, keep working, and fold down to the three files every fold
/// ends with.
#[test]
fn a_crash_in_either_window_of_the_fold_recovers() {
    let batches = vec![
        vec![doc("B1", 0, &[0, 1, 8]), doc("B1", 1, &[4, 5])],
        vec![doc("B2", 0, &[6, 7, 0])],
        vec![doc("B3", 0, &[2, 3, 9])],
    ];
    let extra = vec![doc("B4", 0, &[10, 0, 5])];
    let dir = TempDir::new("fold-windows").expect("tempdir");
    let mut librarian = store_with_batches(&dir, &batches);
    let a = snapshot(dir.path());
    compact(&mut librarian).expect("fold");
    let b = snapshot(dir.path());
    drop(librarian);
    let refs: Vec<&[TrecDoc]> = batches.iter().map(Vec::as_slice).collect();
    let before = fingerprint(&oracle_at(&refs, batches.len() as u64));
    let mut oracle = oracle_at(&refs, batches.len() as u64);
    oracle.append_documents(&extra).expect("oracle appends");

    let (new_segment, new_segment_bytes) = b
        .iter()
        .find(|(name, _)| name.ends_with(".seg") && !a.contains_key(*name))
        .expect("the fold wrote a new segment");
    let mut died_before_rename = a.clone();
    died_before_rename.insert(new_segment.clone(), new_segment_bytes.clone());
    died_before_rename.insert("MANIFEST.tmp".to_owned(), b["MANIFEST"].clone());
    let mut died_before_truncation = b.clone();
    died_before_truncation.insert("wal.log".to_owned(), a["wal.log"].clone());

    for (window, files, pending) in [
        ("before the rename", died_before_rename, batches.len()),
        ("before the truncation", died_before_truncation, 0),
    ] {
        let dir = TempDir::new("fold-window").expect("tempdir");
        for (name, bytes) in &files {
            std::fs::write(dir.path().join(name), bytes).unwrap();
        }
        let mut librarian =
            Librarian::open(dir.path()).unwrap_or_else(|e| panic!("died {window}: reopen: {e}"));
        let store = librarian.store().expect("a store-backed librarian");
        assert_eq!(store.epoch(), batches.len() as u64, "died {window}");
        assert_eq!(store.pending_batches(), pending, "died {window}");
        assert_eq!(fingerprint(librarian.collection()), before, "died {window}");
        store.verify().expect("recovered store verifies");

        let epoch = librarian
            .add_documents(&extra)
            .expect("a further batch commits");
        assert_eq!(epoch, batches.len() as u64 + 1, "died {window}");
        compact(&mut librarian).expect("a further fold");
        let store = librarian.store().expect("a store-backed librarian");
        assert_eq!(store.pending_batches(), 0, "died {window}");
        drop(librarian);
        let left = snapshot(dir.path());
        let names: Vec<&str> = left.keys().map(String::as_str).collect();
        assert!(
            matches!(names[..], ["MANIFEST", seg, "wal.log"] if seg.ends_with(".seg")),
            "died {window}: the directory holds {names:?}"
        );
        assert!(left["wal.log"].is_empty(), "died {window}: WAL not emptied");
        let (_, collection) = IndexStore::open(dir.path()).expect("reopen after the fold");
        assert_eq!(
            fingerprint(&collection),
            fingerprint(&oracle),
            "died {window}: rankings after a further batch and fold"
        );
    }
}

/// A batch whose WAL record is synced has committed, whatever then
/// happens to the fold that comes before it (the batch that finds
/// `CHECKPOINT_BATCHES` pending folds them first). The fold is made to
/// fail by a directory sitting where its segment file would go.
#[test]
fn a_failed_automatic_fold_does_not_fail_the_committed_batch() {
    let dir = TempDir::new("blocked-fold").expect("tempdir");
    let mut librarian =
        Librarian::create_store(dir.path(), "CRASH", &Analyzer::default(), &base_docs())
            .expect("store-backed librarian");
    let mut oracle = Collection::build("CRASH", Analyzer::default(), &base_docs());
    // The base build is segment 0, so the first fold writes segment 1.
    let blocker = dir.path().join("seg-000001.seg");
    std::fs::create_dir(&blocker).unwrap();

    let batches = CHECKPOINT_BATCHES + 1;
    for n in 1..=batches {
        let batch = vec![doc("B", n, &[n, n + 3, 2])];
        let epoch = librarian
            .add_documents(&batch)
            .unwrap_or_else(|e| panic!("batch {n} is durable, yet: {e}"));
        assert_eq!(epoch, n as u64);
        oracle.append_documents(&batch).expect("oracle appends");
    }
    assert_eq!(librarian.collection().num_docs(), oracle.num_docs());
    assert_eq!(fingerprint(librarian.collection()), fingerprint(&oracle));

    // The batches stay pending, and asking for the fold by name still
    // reports why it cannot be done.
    let pending = |l: &Librarian| {
        l.store()
            .expect("a store-backed librarian")
            .pending_batches()
    };
    assert_eq!(pending(&librarian), batches);
    assert!(matches!(
        compact(&mut librarian),
        Err(StoreError::Io { .. })
    ));
    assert_eq!(pending(&librarian), batches);
    drop(librarian);

    let mut reopened = Librarian::open(dir.path()).expect("reopen");
    assert_eq!(reopened.epoch(), batches as u64);
    assert_eq!(fingerprint(reopened.collection()), fingerprint(&oracle));

    // With the obstacle gone the retry goes through.
    std::fs::remove_dir(&blocker).unwrap();
    compact(&mut reopened).expect("unblocked fold");
    assert_eq!(pending(&reopened), 0);
}
