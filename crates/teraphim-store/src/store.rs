//! The durable, versioned index store.
//!
//! See the crate docs for the durability contract. In short: a store
//! directory holds exactly one immutable segment, an append-only WAL
//! and an atomically replaced manifest. Epoch `0` is the base build;
//! every synced WAL record commits exactly one further epoch. The one
//! write path besides the WAL append is the *fold*
//! ([`IndexStore::checkpoint`]): the segment plus the pending batches
//! become the next segment and the WAL is emptied.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use teraphim_engine::Collection;
use teraphim_text::sgml::TrecDoc;
use teraphim_text::Analyzer;

use crate::fail::{CrashPoint, FailingFile};
use crate::manifest::{Manifest, SegmentEntry};
use crate::segment::{Segment, SegmentBatch};
use crate::wal::{self, WalTail};
use crate::{io_err, Result, StoreError};

/// File name of the manifest.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// File name of the write-ahead log.
pub const WAL_FILE: &str = "wal.log";
/// What the manifest is written as before it is renamed into place.
const MANIFEST_TMP_FILE: &str = "MANIFEST.tmp";

/// [`IndexStore::log_batch`] folds the WAL into the segment once this
/// many batches are pending.
pub const CHECKPOINT_BATCHES: usize = 8;

/// Summary returned by [`IndexStore::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStatus {
    /// Newest durable epoch.
    pub epoch: u64,
    /// Batches sitting in the WAL, not yet checkpointed.
    pub pending_batches: usize,
    /// Total documents across all durable batches.
    pub num_docs: u64,
}

/// A durable, versioned store for one collection.
///
/// The store does not own the live in-memory collection — callers (a
/// `Librarian`, the CLI) keep it and follow the write-ahead discipline:
/// call [`IndexStore::log_batch`] first, and only on success apply the
/// same batch in memory with `Collection::append_documents`.
#[derive(Debug)]
pub struct IndexStore {
    dir: PathBuf,
    manifest: Manifest,
    wal: File,
    pending: Vec<(u64, Vec<TrecDoc>)>,
    epoch: u64,
    crash: Option<CrashPoint>,
    poisoned: bool,
}

impl IndexStore {
    /// Creates a new store in `dir` (made if absent), building epoch 0
    /// from `docs`, and returns the store plus the live collection.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Exists`] if `dir` already holds a manifest,
    /// or [`StoreError::Io`] on filesystem failure.
    pub fn create(
        dir: &Path,
        name: &str,
        analyzer: &Analyzer,
        docs: &[TrecDoc],
    ) -> Result<(IndexStore, Collection)> {
        std::fs::create_dir_all(dir).map_err(io_err("create store dir"))?;
        if dir.join(MANIFEST_FILE).exists() {
            return Err(StoreError::Exists);
        }
        let analyzer = Analyzer::new()
            .with_stopping(analyzer.stopping())
            .with_stemming(analyzer.stemming());
        let stopping = analyzer.stopping();
        let stemming = analyzer.stemming();
        let collection = Collection::build(name, analyzer, docs);
        let base = Segment {
            collection: collection.to_bytes(),
            batches: vec![SegmentBatch {
                epoch: 0,
                docs: docs.len() as u64,
            }],
        };
        let file = segment_file_name(0);
        write_file_synced(&dir.join(&file), &base.encode())?;
        let manifest = Manifest {
            name: name.to_owned(),
            stopping,
            stemming,
            epoch: 0,
            next_segment_id: 1,
            segment: SegmentEntry {
                file,
                batches: base.batches,
            },
        };
        write_manifest_atomic(dir, &manifest)?;
        let wal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(dir.join(WAL_FILE))
            .map_err(io_err("create wal"))?;
        Ok((
            IndexStore {
                dir: dir.to_path_buf(),
                manifest,
                wal,
                pending: Vec::new(),
                epoch: 0,
                crash: None,
                poisoned: false,
            },
            collection,
        ))
    }

    /// Opens an existing store, recovering to the last durable epoch:
    /// the segment is loaded and the WAL's valid prefix is replayed on
    /// top. A torn WAL tail (the only crash damage possible) is
    /// truncated away; corruption anywhere else is a typed error. What a
    /// crash in the middle of a fold left behind — `MANIFEST.tmp`, a
    /// segment file the manifest does not name — is deleted.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Missing`] if `dir` has no manifest, and
    /// [`StoreError::Corrupt`]/[`StoreError::BadVersion`] for damaged
    /// stores.
    pub fn open(dir: &Path) -> Result<(IndexStore, Collection)> {
        let manifest_bytes = match std::fs::read(dir.join(MANIFEST_FILE)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(StoreError::Missing),
            Err(e) => return Err(io_err("read manifest")(e)),
        };
        let manifest = Manifest::decode(&manifest_bytes)?;

        let scanned = wal::scan(&read_wal(dir)?)?;
        let mut pending = Vec::new();
        let mut epoch = manifest.epoch;
        for record in scanned.records {
            if record.epoch <= manifest.epoch {
                // Stale record from a crash between manifest replacement
                // and WAL truncation; the batch is already in the segment.
                continue;
            }
            if record.epoch != epoch + 1 {
                return Err(StoreError::Corrupt {
                    what: "wal epoch out of order",
                });
            }
            epoch = record.epoch;
            pending.push((record.epoch, record.docs));
        }
        let collection = replay(dir, &manifest, &pending)?;

        let mut wal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join(WAL_FILE))
            .map_err(io_err("open wal"))?;
        if !matches!(scanned.tail, WalTail::Clean) {
            wal.set_len(scanned.valid_len)
                .map_err(io_err("truncate torn wal tail"))?;
            wal.sync_data().map_err(io_err("sync wal"))?;
        }
        wal.seek(SeekFrom::End(0)).map_err(io_err("seek wal"))?;
        remove_fold_debris(dir, &manifest.segment.file);

        Ok((
            IndexStore {
                dir: dir.to_path_buf(),
                manifest,
                wal,
                pending,
                epoch,
                crash: None,
                poisoned: false,
            },
            collection,
        ))
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The collection name recorded in the manifest.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.manifest.name
    }

    /// The newest durable epoch. Epoch 0 is the base build; each synced
    /// WAL record adds one.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of live segment files: a store has exactly one.
    #[must_use]
    pub fn num_segments(&self) -> usize {
        1
    }

    /// Number of batches pending in the WAL (not yet checkpointed).
    #[must_use]
    pub fn pending_batches(&self) -> usize {
        self.pending.len()
    }

    /// Total documents across all durable batches.
    #[must_use]
    pub fn num_docs(&self) -> u64 {
        self.manifest.segment.num_docs()
            + self
                .pending
                .iter()
                .map(|(_, d)| d.len() as u64)
                .sum::<u64>()
    }

    /// Reconstructs the analyzer recorded in the manifest.
    #[must_use]
    pub fn analyzer(&self) -> Analyzer {
        Analyzer::new()
            .with_stopping(self.manifest.stopping)
            .with_stemming(self.manifest.stemming)
    }

    /// Arms a [`CrashPoint`] that will fire during the next
    /// [`IndexStore::log_batch`] (test harness). The simulated process
    /// dies: the call returns [`StoreError::Crashed`], the store is
    /// poisoned, and only a fresh [`IndexStore::open`] can continue.
    pub fn inject_crash(&mut self, point: CrashPoint) {
        self.crash = Some(point);
    }

    /// Durably commits one document batch: the WAL record is appended
    /// and synced, and only then does the epoch advance. The caller must
    /// mirror the batch into its in-memory collection afterwards.
    ///
    /// Once [`CHECKPOINT_BATCHES`] batches are pending the WAL is folded
    /// into the segment ([`IndexStore::checkpoint`]). The batch is
    /// committed by then, so a fold that fails does not fail this call:
    /// the batches stay pending and the next call tries again.
    ///
    /// Returns the new epoch.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on write failure (the epoch does not
    /// advance), [`StoreError::Crashed`] if an injected crash point
    /// fired, or [`StoreError::Poisoned`] after one did.
    pub fn log_batch(&mut self, docs: &[TrecDoc]) -> Result<u64> {
        if self.poisoned {
            return Err(StoreError::Poisoned);
        }
        let next = self.epoch + 1;
        let record = wal::encode_record(next, docs);
        if let Some(point) = self.crash.take() {
            let mut failing = FailingFile::new(&mut self.wal, point);
            let _ = failing.write_all(&record);
            let _ = self.wal.sync_data();
            self.poisoned = true;
            return Err(StoreError::Crashed);
        }
        self.wal.write_all(&record).map_err(io_err("wal append"))?;
        self.wal.sync_data().map_err(io_err("wal sync"))?;
        self.epoch = next;
        self.pending.push((next, docs.to_vec()));
        if self.pending.len() >= CHECKPOINT_BATCHES {
            let _ = self.checkpoint();
        }
        Ok(next)
    }

    /// The fold: loads the segment, applies the pending batches one at a
    /// time, writes the result as the next segment, replaces the
    /// manifest atomically, truncates the WAL and deletes the old
    /// segment. Afterwards the directory is the manifest, an empty WAL
    /// and one segment. With nothing pending it does nothing.
    ///
    /// Both crash windows are idempotent: a crash after the segment
    /// write but before the manifest rename leaves a file the manifest
    /// does not name, which the next [`IndexStore::open`] deletes; a
    /// crash after the rename but before the WAL truncation leaves stale
    /// records that replay skips. An error leaves the store usable and
    /// its state equal to what a reopen would recover, so the fold can
    /// simply be called again.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure, or
    /// [`StoreError::Corrupt`] if the segment fails to load.
    pub fn checkpoint(&mut self) -> Result<()> {
        if self.poisoned {
            return Err(StoreError::Poisoned);
        }
        if self.pending.is_empty() {
            return Ok(());
        }
        let collection = replay(&self.dir, &self.manifest, &self.pending)?;
        let mut batches = self.manifest.segment.batches.clone();
        batches.extend(self.pending.iter().map(|(epoch, docs)| SegmentBatch {
            epoch: *epoch,
            docs: docs.len() as u64,
        }));
        let segment = Segment {
            collection: collection.to_bytes(),
            batches,
        };
        let file = segment_file_name(self.manifest.next_segment_id);
        write_file_synced(&self.dir.join(&file), &segment.encode())?;
        let manifest = Manifest {
            epoch: self.epoch,
            next_segment_id: self.manifest.next_segment_id + 1,
            segment: SegmentEntry {
                file,
                batches: segment.batches,
            },
            ..self.manifest.clone()
        };
        write_manifest_atomic(&self.dir, &manifest)?;
        // The rename committed the fold: the pending batches are in the
        // segment whatever happens to the WAL below.
        let old = std::mem::replace(&mut self.manifest, manifest);
        self.pending.clear();
        let _ = std::fs::remove_file(self.dir.join(old.segment.file));
        self.wal.set_len(0).map_err(io_err("truncate wal"))?;
        self.wal
            .seek(SeekFrom::Start(0))
            .map_err(io_err("seek wal"))?;
        self.wal.sync_data().map_err(io_err("sync wal"))?;
        Ok(())
    }

    /// [`IndexStore::checkpoint`] under the name the CLI and the
    /// benchmark call: with one segment per store, folding the WAL in
    /// is all the compaction there is.
    ///
    /// # Errors
    ///
    /// As [`IndexStore::checkpoint`].
    pub fn compact(&mut self) -> Result<()> {
        self.checkpoint()
    }

    /// Deterministically replays the store up to `epoch`, yielding a
    /// collection byte-identical to an in-memory oracle that built the
    /// base and appended every batch `1..=epoch` in order ("as-of"
    /// search).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NoSuchEpoch`] if `epoch` is beyond the
    /// durable one, or [`StoreError::Corrupt`]/[`StoreError::Io`] if the
    /// store cannot be read.
    pub fn collection_at(&self, epoch: u64) -> Result<Collection> {
        if epoch > self.epoch {
            return Err(StoreError::NoSuchEpoch {
                requested: epoch,
                durable: self.epoch,
            });
        }
        let segment = read_segment(&self.dir, &self.manifest.segment)?;
        let docs = Collection::from_bytes(&segment.collection)?.export_docs()?;
        // The segment's documents, cut back into the batches they were
        // committed as; the manifest guarantees epoch 0 comes first.
        let mut rest = docs.as_slice();
        let mut batches = segment
            .batches
            .iter()
            .map(|batch| {
                let (docs, tail) = rest.split_at(batch.docs as usize);
                rest = tail;
                (batch.epoch, docs)
            })
            .chain(self.pending.iter().map(|(e, docs)| (*e, docs.as_slice())))
            .take_while(|(e, _)| *e <= epoch);
        let (_, base) = batches.next().ok_or(StoreError::Corrupt {
            what: "store has no base batch",
        })?;
        let mut collection = Collection::build(&self.manifest.name, self.analyzer(), base);
        for (_, docs) in batches {
            collection.append_documents(docs)?;
        }
        Ok(collection)
    }

    /// Full integrity scan: the segment decodes and matches the
    /// manifest, and the WAL parses cleanly up to its valid prefix.
    ///
    /// # Errors
    ///
    /// Returns the first [`StoreError`] encountered.
    pub fn verify(&self) -> Result<StoreStatus> {
        self.manifest.validate()?;
        read_segment(&self.dir, &self.manifest.segment)?;
        wal::scan(&read_wal(&self.dir)?)?;
        Ok(StoreStatus {
            epoch: self.epoch,
            pending_batches: self.pending.len(),
            num_docs: self.num_docs(),
        })
    }
}

fn segment_file_name(id: u64) -> String {
    format!("seg-{id:06}.seg")
}

/// Whether `name` is one [`segment_file_name`] could have produced.
fn is_segment_file_name(name: &str) -> bool {
    name.strip_prefix("seg-")
        .and_then(|rest| rest.strip_suffix(".seg"))
        .is_some_and(|id| id.len() >= 6 && id.bytes().all(|b| b.is_ascii_digit()))
}

/// The collection a store holds: its segment with `pending` applied on
/// top. Each batch goes through `Collection::append_documents` on its
/// own — the call the live writer made for it — because a document's
/// weight is a floating-point sum taken in the term-id order of the
/// delta index it was built in, and a delta over several batches at
/// once numbers its terms differently. Recovery and the fold both come
/// through here, which is why what the fold writes ranks bit for bit
/// like what was serving.
fn replay(dir: &Path, manifest: &Manifest, pending: &[(u64, Vec<TrecDoc>)]) -> Result<Collection> {
    let segment = read_segment(dir, &manifest.segment)?;
    let mut collection = Collection::from_bytes(&segment.collection)?;
    for (_, docs) in pending {
        collection.append_documents(docs)?;
    }
    Ok(collection)
}

/// Reads and validates the segment, cross-checking the manifest entry's
/// batch list against the segment's own meta.
fn read_segment(dir: &Path, entry: &SegmentEntry) -> Result<Segment> {
    let bytes = std::fs::read(dir.join(&entry.file)).map_err(io_err("read segment"))?;
    let segment = Segment::decode(&bytes)?;
    if segment.batches != entry.batches {
        return Err(StoreError::Corrupt {
            what: "segment batches disagree with manifest",
        });
    }
    Ok(segment)
}

/// The WAL's bytes; a missing file is an empty log.
fn read_wal(dir: &Path) -> Result<Vec<u8>> {
    match std::fs::read(dir.join(WAL_FILE)) {
        Ok(bytes) => Ok(bytes),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(io_err("read wal")(e)),
    }
}

/// Deletes, best-effort, what a crash between a fold's segment write
/// and its manifest rename leaves behind: the temporary manifest and
/// any segment file other than `live`. Only names this module gives
/// its own files are touched.
fn remove_fold_debris(dir: &Path, live: &str) {
    let _ = std::fs::remove_file(dir.join(MANIFEST_TMP_FILE));
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        if name
            .to_str()
            .is_some_and(|n| n != live && is_segment_file_name(n))
        {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// Writes `bytes` to `path` and syncs before returning.
fn write_file_synced(path: &Path, bytes: &[u8]) -> Result<()> {
    let mut file = File::create(path).map_err(io_err("create file"))?;
    file.write_all(bytes).map_err(io_err("write file"))?;
    file.sync_all().map_err(io_err("sync file"))?;
    Ok(())
}

/// Atomically replaces the manifest: write `MANIFEST.tmp`, sync, rename.
fn write_manifest_atomic(dir: &Path, manifest: &Manifest) -> Result<()> {
    let tmp = dir.join(MANIFEST_TMP_FILE);
    write_file_synced(&tmp, &manifest.encode())?;
    std::fs::rename(&tmp, dir.join(MANIFEST_FILE)).map_err(io_err("rename manifest"))?;
    // Durability of the rename itself needs a directory sync where the
    // platform supports opening directories; best-effort elsewhere.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fail::CrashMode;
    use crate::tempdir::TempDir;

    fn doc(docno: &str, text: &str) -> TrecDoc {
        TrecDoc {
            docno: docno.into(),
            text: text.into(),
        }
    }

    fn base_docs() -> Vec<TrecDoc> {
        vec![
            doc("D1", "the cat sat on the mat"),
            doc("D2", "the dog chased the cat across the yard"),
            doc("D3", "penguins are aquatic flightless birds"),
        ]
    }

    fn batch(n: u64) -> Vec<TrecDoc> {
        vec![
            doc(
                &format!("B{n}-1"),
                &format!("batch {n} speaks of cats and tides"),
            ),
            doc(&format!("B{n}-2"), &format!("volume {n} covers dogs")),
        ]
    }

    /// Rankings for a spread of queries, as raw bits for exact compare.
    fn fingerprint(c: &Collection) -> Vec<(u32, u64)> {
        ["cat dog", "penguins", "tides", "batch volume", "mat yard"]
            .iter()
            .flat_map(|q| {
                c.ranked_query(q, 10)
                    .into_iter()
                    .map(|h| (h.doc, h.score.to_bits()))
            })
            .collect()
    }

    /// A fresh store over the base documents, with its oracle.
    fn demo_store(dir: &TempDir) -> (IndexStore, Collection) {
        IndexStore::create(dir.path(), "demo", &Analyzer::default(), &base_docs()).unwrap()
    }

    fn file_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    /// What every successful fold leaves: the manifest, an empty WAL and
    /// the one segment the manifest names.
    fn assert_folded(store: &IndexStore) {
        let mut want = vec![
            MANIFEST_FILE.to_owned(),
            store.manifest.segment.file.clone(),
            WAL_FILE.to_owned(),
        ];
        want.sort();
        assert_eq!(file_names(store.dir()), want);
        let wal = std::fs::metadata(store.dir().join(WAL_FILE)).unwrap();
        assert_eq!(wal.len(), 0, "the fold empties the WAL");
    }

    #[test]
    fn create_open_roundtrip() {
        let dir = TempDir::new("roundtrip").unwrap();
        let (store, built) =
            IndexStore::create(dir.path(), "demo", &Analyzer::default(), &base_docs()).unwrap();
        assert_eq!(store.epoch(), 0);
        drop(store);
        let (store, opened) = IndexStore::open(dir.path()).unwrap();
        assert_eq!(store.epoch(), 0);
        assert_eq!(store.name(), "demo");
        assert_eq!(fingerprint(&opened), fingerprint(&built));
    }

    #[test]
    fn create_refuses_existing_store() {
        let dir = TempDir::new("exists").unwrap();
        IndexStore::create(dir.path(), "demo", &Analyzer::default(), &[]).unwrap();
        assert_eq!(
            IndexStore::create(dir.path(), "demo", &Analyzer::default(), &[])
                .err()
                .unwrap(),
            StoreError::Exists
        );
    }

    #[test]
    fn open_missing_directory_is_typed() {
        let dir = TempDir::new("missing").unwrap();
        assert!(matches!(
            IndexStore::open(&dir.path().join("nope")),
            Err(StoreError::Missing)
        ));
    }

    #[test]
    fn wal_replay_matches_oracle_exactly() {
        let dir = TempDir::new("replay").unwrap();
        let (mut store, mut oracle) = demo_store(&dir);
        for n in 1..=4u64 {
            let docs = batch(n);
            assert_eq!(store.log_batch(&docs).unwrap(), n);
            oracle.append_documents(&docs).unwrap();
        }
        assert_eq!(store.epoch(), 4);
        drop(store);
        let (store, recovered) = IndexStore::open(dir.path()).unwrap();
        assert_eq!(store.epoch(), 4);
        assert_eq!(store.pending_batches(), 4);
        assert_eq!(fingerprint(&recovered), fingerprint(&oracle));
    }

    /// Pending batches, a fold, a reopen: by an explicit `checkpoint`,
    /// by `compact`, and by `log_batch` itself (twice, so the second
    /// fold starts from a segment that already holds several batches).
    #[test]
    fn fold_leaves_one_segment_and_preserves_rankings() {
        type Fold = fn(&mut IndexStore) -> Result<()>;
        let cases: [(&str, usize, Option<Fold>); 3] = [
            ("checkpoint", 3, Some(IndexStore::checkpoint)),
            ("compact", 2, Some(IndexStore::compact)),
            ("automatic", 2 * CHECKPOINT_BATCHES, None),
        ];
        for (case, batches, fold) in cases {
            let dir = TempDir::new("fold").unwrap();
            let (mut store, mut oracle) = demo_store(&dir);
            for n in 1..=batches {
                assert_eq!(store.log_batch(&batch(n as u64)).unwrap(), n as u64);
                oracle.append_documents(&batch(n as u64)).unwrap();
                let pending = match fold {
                    Some(_) => n,
                    None => n % CHECKPOINT_BATCHES,
                };
                assert_eq!(store.pending_batches(), pending, "{case}: batch {n}");
                if pending == 0 {
                    assert_folded(&store);
                }
            }
            if let Some(fold) = fold {
                fold(&mut store).unwrap();
            }
            assert_eq!(store.epoch(), batches as u64, "{case}");
            assert_eq!(store.pending_batches(), 0, "{case}");
            assert_folded(&store);
            let segment = store.manifest.segment.file.clone();

            // With nothing pending a fold does nothing at all.
            store.checkpoint().unwrap();
            store.compact().unwrap();
            assert_eq!(store.manifest.segment.file, segment, "{case}");
            assert_folded(&store);
            drop(store);

            let (reopened, recovered) = IndexStore::open(dir.path()).unwrap();
            assert_eq!(reopened.epoch(), batches as u64, "{case}");
            assert_eq!(reopened.pending_batches(), 0, "{case}");
            assert_eq!(reopened.num_docs(), oracle.num_docs(), "{case}");
            assert_eq!(fingerprint(&recovered), fingerprint(&oracle), "{case}");
            reopened.verify().unwrap();
        }
    }

    /// A crash between a fold's segment write and its manifest rename
    /// leaves files no manifest names; `open` deletes them, and nothing
    /// that merely looks similar.
    #[test]
    fn open_removes_fold_debris_and_nothing_else() {
        let dir = TempDir::new("debris").unwrap();
        let (mut store, _) = demo_store(&dir);
        store.log_batch(&batch(1)).unwrap();
        drop(store);
        let before = file_names(dir.path());
        let bystanders = [
            "notes.txt",
            "seg-backup.seg",
            "seg-12.seg",
            "seg-000001.seg.bak",
        ];
        for name in ["MANIFEST.tmp", "seg-000001.seg", "seg-1234567.seg"]
            .iter()
            .chain(&bystanders)
        {
            std::fs::write(dir.path().join(name), b"torn").unwrap();
        }
        let (store, _) = IndexStore::open(dir.path()).unwrap();
        assert_eq!((store.epoch(), store.pending_batches()), (1, 1));
        let mut want = before;
        want.extend(bystanders.iter().map(|n| (*n).to_owned()));
        want.sort();
        assert_eq!(file_names(dir.path()), want);
    }

    #[test]
    fn collection_at_replays_every_epoch() {
        let dir = TempDir::new("asof").unwrap();
        let (mut store, _) = demo_store(&dir);
        let mut oracles = vec![Collection::build("demo", Analyzer::default(), &base_docs())];
        for n in 1..=3u64 {
            store.log_batch(&batch(n)).unwrap();
            let mut next = Collection::build("demo", Analyzer::default(), &base_docs());
            for m in 1..=n {
                next.append_documents(&batch(m)).unwrap();
            }
            oracles.push(next);
        }
        // Replays must be exact both before and after checkpointing.
        for round in 0..2 {
            for (e, oracle) in oracles.iter().enumerate() {
                let as_of = store.collection_at(e as u64).unwrap();
                assert_eq!(
                    fingerprint(&as_of),
                    fingerprint(oracle),
                    "epoch {e} round {round}"
                );
            }
            store.checkpoint().unwrap();
        }
        assert!(matches!(
            store.collection_at(99),
            Err(StoreError::NoSuchEpoch {
                requested: 99,
                durable: 3
            })
        ));
    }

    #[test]
    fn injected_crash_poisons_store_and_reopen_recovers() {
        let dir = TempDir::new("poison").unwrap();
        let (mut store, _) = demo_store(&dir);
        store.log_batch(&batch(1)).unwrap();
        store.inject_crash(CrashPoint {
            offset: 7,
            mode: CrashMode::Truncate,
        });
        assert_eq!(store.log_batch(&batch(2)), Err(StoreError::Crashed));
        assert_eq!(store.log_batch(&batch(3)), Err(StoreError::Poisoned));
        assert_eq!(store.checkpoint(), Err(StoreError::Poisoned));
        drop(store);
        let (store, _) = IndexStore::open(dir.path()).unwrap();
        assert_eq!(store.epoch(), 1);
        store.verify().unwrap();
    }

    #[test]
    fn verify_reports_status() {
        let dir = TempDir::new("verify").unwrap();
        let (mut store, _) = demo_store(&dir);
        store.log_batch(&batch(1)).unwrap();
        let status = store.verify().unwrap();
        assert_eq!(
            status,
            StoreStatus {
                epoch: 1,
                pending_batches: 1,
                num_docs: 5,
            }
        );
    }

    #[test]
    fn corrupted_segment_is_a_typed_open_failure() {
        let dir = TempDir::new("corrupt-seg").unwrap();
        IndexStore::create(dir.path(), "demo", &Analyzer::default(), &base_docs()).unwrap();
        let seg = dir.path().join(segment_file_name(0));
        let mut bytes = std::fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&seg, &bytes).unwrap();
        assert!(matches!(
            IndexStore::open(dir.path()),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn corrupted_manifest_is_a_typed_open_failure() {
        let dir = TempDir::new("corrupt-man").unwrap();
        IndexStore::create(dir.path(), "demo", &Analyzer::default(), &base_docs()).unwrap();
        let path = dir.path().join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            IndexStore::open(dir.path()),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn analyzer_flags_survive_reopen() {
        let dir = TempDir::new("flags").unwrap();
        let analyzer = Analyzer::new().with_stopping(false).with_stemming(false);
        let (store, _) = IndexStore::create(dir.path(), "raw", &analyzer, &base_docs()).unwrap();
        drop(store);
        let (store, _) = IndexStore::open(dir.path()).unwrap();
        assert!(!store.analyzer().stopping());
        assert!(!store.analyzer().stemming());
    }
}
