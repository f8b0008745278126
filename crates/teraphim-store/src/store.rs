//! The durable, versioned index store.
//!
//! See the crate docs for the durability contract. In short: a store
//! directory holds exactly one immutable segment, an append-only WAL
//! and an atomically replaced manifest. Epoch `0` is the base build;
//! every synced WAL record commits exactly one further epoch. A store
//! is written only through a [`StoreWriter`] bound to the live
//! collection: the WAL append, and the *fold*, which writes that
//! collection as the next segment and empties the WAL.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use teraphim_engine::Collection;
use teraphim_text::sgml::TrecDoc;
use teraphim_text::Analyzer;

use crate::fail::CrashPoint;
use crate::manifest::{Manifest, SegmentEntry};
use crate::segment::{Segment, SegmentBatch};
use crate::wal::{self, WalScan, WalTail};
use crate::{io_err, Result, StoreError};

/// File name of the manifest.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// File name of the write-ahead log.
pub const WAL_FILE: &str = "wal.log";
/// What the manifest is written as before it is renamed into place.
const MANIFEST_TMP_FILE: &str = "MANIFEST.tmp";

/// [`StoreWriter::log_batch`] folds the WAL into the segment before
/// committing a batch once this many batches are pending.
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
/// The store keeps the files; the live in-memory collection belongs to
/// whoever holds the store (a `Librarian`), and the store is written
/// only through [`IndexStore::writer`] bound to that collection, in
/// write-ahead order: [`StoreWriter::log_batch`] first, and only on
/// success the same batch in memory with
/// `Collection::append_documents`. A pending batch's documents are in
/// the WAL only.
#[derive(Debug)]
pub struct IndexStore {
    dir: PathBuf,
    manifest: Manifest,
    wal: File,
    /// The batches committed to the WAL after the segment.
    pending: Vec<SegmentBatch>,
    crash: Option<CrashPoint>,
    poisoned: bool,
}

/// The one way to write a store: the store borrowed together with the
/// live collection, which holds the segment's documents and every
/// pending batch, and which the fold writes as the next segment.
#[derive(Debug)]
pub struct StoreWriter<'a> {
    store: &'a mut IndexStore,
    live: &'a Collection,
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
            collection: collection.to_bytes().into(),
            batches: vec![SegmentBatch {
                epoch: 0,
                docs: docs.len() as u64,
            }],
        };
        let file = segment_file_name(0);
        write_file_synced(&dir.join(&file), |f| base.write_to(f))?;
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
                crash: None,
                poisoned: false,
            },
            collection,
        ))
    }

    /// Opens an existing store, recovering to the last durable epoch:
    /// the segment is loaded and the WAL's valid prefix is replayed on
    /// top, one `Collection::append_documents` per batch in effect (by
    /// one `append_batches`), which is what the live writer did. A torn
    /// WAL tail (the only crash damage possible) is truncated away;
    /// corruption anywhere else is a typed error. What a crash in the
    /// middle of a fold left behind — `MANIFEST.tmp`, a segment file the
    /// manifest does not name — is deleted.
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
        let scanned = scan_pending(dir, &manifest)?;
        let mut collection = load_segment(dir, &manifest.segment)?;
        let batches: Vec<&[TrecDoc]> = scanned.records.iter().map(|r| &r.docs[..]).collect();
        collection.append_batches(&batches)?;

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
        let pending = scanned
            .records
            .iter()
            .map(|r| SegmentBatch {
                epoch: r.epoch,
                docs: r.docs.len() as u64,
            })
            .collect();

        Ok((
            IndexStore {
                dir: dir.to_path_buf(),
                manifest,
                wal,
                pending,
                crash: None,
                poisoned: false,
            },
            collection,
        ))
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
        self.pending.last().map_or(self.manifest.epoch, |b| b.epoch)
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
        self.manifest.segment.num_docs() + self.pending.iter().map(|b| b.docs).sum::<u64>()
    }

    /// Reconstructs the analyzer recorded in the manifest.
    #[must_use]
    pub fn analyzer(&self) -> Analyzer {
        Analyzer::new()
            .with_stopping(self.manifest.stopping)
            .with_stemming(self.manifest.stemming)
    }

    /// The store's writer, bound to `live`: the collection this store's
    /// batches built, with every committed batch applied.
    pub fn writer<'a>(&'a mut self, live: &'a Collection) -> StoreWriter<'a> {
        StoreWriter { store: self, live }
    }

    /// Appends and syncs the WAL record of one batch: the commit point.
    fn append(&mut self, docs: &[TrecDoc]) -> Result<u64> {
        if self.poisoned {
            return Err(StoreError::Poisoned);
        }
        let next = self.epoch() + 1;
        let record = wal::encode_record(next, docs);
        if let Some(point) = self.crash.take() {
            let _ = self.wal.write_all(&point.landed(&record));
            let _ = self.wal.sync_data();
            self.poisoned = true;
            return Err(StoreError::Crashed);
        }
        self.wal.write_all(&record).map_err(io_err("wal append"))?;
        self.wal.sync_data().map_err(io_err("wal sync"))?;
        self.pending.push(SegmentBatch {
            epoch: next,
            docs: docs.len() as u64,
        });
        Ok(next)
    }

    /// The fold: writes `live` — the segment with every pending batch
    /// applied — as the next segment, replaces the manifest atomically,
    /// truncates the WAL and deletes the old segment. Afterwards the
    /// directory is the manifest, an empty WAL and one segment. With
    /// nothing pending it does nothing.
    ///
    /// Both crash windows are idempotent: a crash after the segment
    /// write but before the manifest rename leaves a file the manifest
    /// does not name, which the next [`IndexStore::open`] deletes; a
    /// crash after the rename but before the WAL truncation leaves stale
    /// records that replay skips. An error leaves the store usable and
    /// its state equal to what a reopen would recover, so the fold can
    /// simply be called again.
    fn fold(&mut self, live: &Collection) -> Result<()> {
        if self.poisoned {
            return Err(StoreError::Poisoned);
        }
        if self.pending.is_empty() {
            return Ok(());
        }
        if live.num_docs() != self.num_docs() {
            return Err(StoreError::WrongCollection {
                store: self.num_docs(),
                live: live.num_docs(),
            });
        }
        let mut batches = self.manifest.segment.batches.clone();
        batches.extend_from_slice(&self.pending);
        let segment = Segment {
            collection: live.to_bytes().into(),
            batches,
        };
        let file = segment_file_name(self.manifest.next_segment_id);
        write_file_synced(&self.dir.join(&file), |f| segment.write_to(f))?;
        let manifest = Manifest {
            epoch: self.epoch(),
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

    /// Deterministically replays the store up to `epoch`, yielding a
    /// collection byte-identical to an in-memory oracle that built the
    /// base and appended every batch `1..=epoch` in order ("as-of"
    /// search). The batches after the segment are read from the WAL.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NoSuchEpoch`] if `epoch` is beyond the
    /// durable one, or [`StoreError::Corrupt`]/[`StoreError::Io`] if the
    /// store cannot be read.
    pub fn collection_at(&self, epoch: u64) -> Result<Collection> {
        if epoch > self.epoch() {
            return Err(StoreError::NoSuchEpoch {
                requested: epoch,
                durable: self.epoch(),
            });
        }
        // The segment's batches up to `epoch`; only their documents are
        // decompressed.
        let held = self
            .manifest
            .segment
            .batches
            .iter()
            .take_while(|batch| batch.epoch <= epoch);
        let count: u64 = held.clone().map(|batch| batch.docs).sum();
        let docs = load_segment(&self.dir, &self.manifest.segment)?.export_docs(count as usize)?;
        if docs.len() as u64 != count {
            return Err(StoreError::Corrupt {
                what: "segment holds fewer documents than its batches",
            });
        }
        let pending = scan_pending(&self.dir, &self.manifest)?.records;
        // Those documents, cut back into the batches they were committed
        // as, then the WAL's; the manifest guarantees epoch 0 comes
        // first.
        let mut rest = docs.as_slice();
        let history: Vec<(u64, &[TrecDoc])> = held
            .map(|batch| {
                let (docs, tail) = rest.split_at(batch.docs as usize);
                rest = tail;
                (batch.epoch, docs)
            })
            .chain(pending.iter().map(|r| (r.epoch, &r.docs[..])))
            .take_while(|(e, _)| *e <= epoch)
            .collect();
        let Some(((_, base), batches)) = history.split_first() else {
            return Err(StoreError::Corrupt {
                what: "store has no base batch",
            });
        };
        if history.last().map(|(e, _)| *e) != Some(epoch) {
            return Err(StoreError::Corrupt {
                what: "wal lacks a committed batch",
            });
        }
        let mut collection = Collection::build(&self.manifest.name, self.analyzer(), base);
        let batches: Vec<&[TrecDoc]> = batches.iter().map(|(_, docs)| *docs).collect();
        collection.append_batches(&batches)?;
        Ok(collection)
    }

    /// Full integrity scan: the segment decodes, matches the manifest
    /// and holds as many documents as its batches, and the WAL parses
    /// cleanly up to its valid prefix.
    ///
    /// # Errors
    ///
    /// Returns the first [`StoreError`] encountered.
    pub fn verify(&self) -> Result<StoreStatus> {
        self.manifest.validate()?;
        load_segment(&self.dir, &self.manifest.segment)?;
        scan_pending(&self.dir, &self.manifest)?;
        Ok(StoreStatus {
            epoch: self.epoch(),
            pending_batches: self.pending.len(),
            num_docs: self.num_docs(),
        })
    }
}

impl StoreWriter<'_> {
    /// Durably commits one document batch and returns its epoch: the
    /// WAL record is appended and synced, and only then does the epoch
    /// advance. The caller applies the batch to the live collection
    /// afterwards.
    ///
    /// With [`CHECKPOINT_BATCHES`] batches pending it first folds them
    /// into the segment: the live collection holds exactly those then.
    /// A fold that fails leaves them pending for the next call, and does
    /// not fail this one.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on write failure (the epoch does not
    /// advance), [`StoreError::Crashed`] if an injected crash point
    /// fired, or [`StoreError::Poisoned`] after one did.
    pub fn log_batch(&mut self, docs: &[TrecDoc]) -> Result<u64> {
        if self.store.pending.len() >= CHECKPOINT_BATCHES {
            let _ = self.store.fold(self.live);
        }
        self.store.append(docs)
    }

    /// Folds the pending batches into the segment now, by writing the
    /// live collection as the next segment.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::WrongCollection`], writing nothing, if the
    /// live collection's document count is not the store's,
    /// [`StoreError::Io`] on filesystem failure, and
    /// [`StoreError::Poisoned`] after an injected crash.
    pub fn compact(&mut self) -> Result<()> {
        self.store.fold(self.live)
    }

    /// Arms a [`CrashPoint`] that fires during the next
    /// [`StoreWriter::log_batch`] (test harness). The simulated process
    /// dies: the call returns [`StoreError::Crashed`], the store is
    /// poisoned, and only a fresh [`IndexStore::open`] can continue.
    pub fn inject_crash(&mut self, point: CrashPoint) {
        self.store.crash = Some(point);
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

/// Loads the collection of the segment file `entry` names, checking the
/// segment's batch list against the entry and its document counts
/// against the collection.
fn load_segment(dir: &Path, entry: &SegmentEntry) -> Result<Collection> {
    let bytes = std::fs::read(dir.join(&entry.file)).map_err(io_err("read segment"))?;
    let segment = Segment::decode(&bytes)?;
    if segment.batches != entry.batches {
        return Err(StoreError::Corrupt {
            what: "segment batches disagree with manifest",
        });
    }
    let collection = Collection::from_bytes(&segment.collection)?;
    if collection.num_docs() != entry.num_docs() {
        return Err(StoreError::Corrupt {
            what: "segment batches disagree with its collection",
        });
    }
    Ok(collection)
}

/// Scans the WAL and keeps the records past the segment `manifest`
/// names, which must run on from its epoch one at a time. Records at or
/// below it are stale, left by a crash between a fold's manifest rename
/// and its WAL truncation: the segment holds their batches.
fn scan_pending(dir: &Path, manifest: &Manifest) -> Result<WalScan> {
    let bytes = match std::fs::read(dir.join(WAL_FILE)) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io_err("read wal")(e)),
    };
    let mut scanned = wal::scan(&bytes)?;
    scanned.records.retain(|r| r.epoch > manifest.epoch);
    if (manifest.epoch + 1..)
        .zip(&scanned.records)
        .any(|(epoch, r)| r.epoch != epoch)
    {
        return Err(StoreError::Corrupt {
            what: "wal epoch out of order",
        });
    }
    Ok(scanned)
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

/// Creates `path`, fills it with `write` and syncs before returning.
fn write_file_synced(
    path: &Path,
    write: impl FnOnce(&mut File) -> std::io::Result<()>,
) -> Result<()> {
    let mut file = File::create(path).map_err(io_err("create file"))?;
    write(&mut file).map_err(io_err("write file"))?;
    file.sync_all().map_err(io_err("sync file"))?;
    Ok(())
}

/// Atomically replaces the manifest: write `MANIFEST.tmp`, sync, rename.
fn write_manifest_atomic(dir: &Path, manifest: &Manifest) -> Result<()> {
    let tmp = dir.join(MANIFEST_TMP_FILE);
    write_file_synced(&tmp, |f| f.write_all(&manifest.encode()))?;
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

    /// The base built afresh and one `append_documents` per batch
    /// `1..=epoch`: what every fold and every as-of replay must equal.
    fn chain(epoch: u64) -> Collection {
        let mut c = Collection::build("demo", Analyzer::default(), &base_docs());
        for n in 1..=epoch {
            c.append_documents(&batch(n)).unwrap();
        }
        c
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

    /// A fresh store over the base documents, with its live collection.
    fn demo_store(dir: &TempDir) -> (IndexStore, Collection) {
        IndexStore::create(dir.path(), "demo", &Analyzer::default(), &base_docs()).unwrap()
    }

    /// Commits batch `n` the way the owner does: the writer bound to
    /// the live collection first, then the append.
    fn commit(store: &mut IndexStore, live: &mut Collection, n: u64) -> u64 {
        let epoch = store.writer(live).log_batch(&batch(n)).unwrap();
        live.append_documents(&batch(n)).unwrap();
        epoch
    }

    fn file_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    /// Every file of the store directory, by name.
    fn snapshot(dir: &Path) -> Vec<(String, Vec<u8>)> {
        file_names(dir)
            .into_iter()
            .map(|n| (n.clone(), std::fs::read(dir.join(n)).unwrap()))
            .collect()
    }

    /// The serialized collection of the store's segment.
    fn segment_collection(store: &IndexStore) -> Vec<u8> {
        let bytes = std::fs::read(store.dir.join(&store.manifest.segment.file)).unwrap();
        Segment::decode(&bytes).unwrap().collection.into_owned()
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
        assert_eq!(file_names(&store.dir), want);
        let wal = std::fs::metadata(store.dir.join(WAL_FILE)).unwrap();
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
        let (mut store, mut live) = demo_store(&dir);
        for n in 1..=4u64 {
            assert_eq!(commit(&mut store, &mut live, n), n);
        }
        assert_eq!(store.epoch(), 4);
        drop(store);
        let (store, recovered) = IndexStore::open(dir.path()).unwrap();
        assert_eq!(store.epoch(), 4);
        assert_eq!(store.pending_batches(), 4);
        assert!(recovered.to_bytes() == chain(4).to_bytes());
    }

    /// Pending batches, folds, a reopen: by `compact`, and by
    /// `log_batch` itself (over two folds and one batch more, so the
    /// second fold starts from a segment that already holds several
    /// batches and the last batch is still in the WAL). The live
    /// collection is reopened from the store halfway, so folds write
    /// both a built and a loaded collection. Every fold's segment is, to
    /// the byte, a fresh build with one `append_documents` per batch, and
    /// the segment before it with the pending batches replayed on top.
    #[test]
    fn fold_leaves_one_segment_and_preserves_rankings() {
        for (case, batches, compact) in [
            ("compact", 3u64, true),
            ("automatic", 2 * CHECKPOINT_BATCHES as u64 + 1, false),
        ] {
            let dir = TempDir::new("fold").unwrap();
            let (mut store, mut live) = demo_store(&dir);
            let mut folded = 0;
            let mut fold = |store: &mut IndexStore, live: &mut Collection, n: u64| {
                let before = segment_collection(store);
                if n > batches {
                    store.writer(live).compact().unwrap();
                } else {
                    assert_eq!(commit(store, live, n), n, "{case}");
                }
                if store.manifest.epoch == folded {
                    return;
                }
                let mut replayed = Collection::from_bytes(&before).unwrap();
                let pending: Vec<Vec<TrecDoc>> =
                    (folded + 1..=store.manifest.epoch).map(batch).collect();
                let pending: Vec<&[TrecDoc]> = pending.iter().map(Vec::as_slice).collect();
                replayed.append_batches(&pending).unwrap();
                folded = store.manifest.epoch;
                let written = segment_collection(store);
                assert!(
                    written == chain(folded).to_bytes(),
                    "{case}: fold to {folded}"
                );
                assert!(written == replayed.to_bytes(), "{case}: fold to {folded}");
            };
            for n in 1..=batches {
                if n == batches / 2 {
                    drop(store);
                    (store, live) = IndexStore::open(dir.path()).unwrap();
                }
                fold(&mut store, &mut live, n);
                let pending = match compact {
                    true => n,
                    false => (n - 1) % CHECKPOINT_BATCHES as u64 + 1,
                };
                assert_eq!(store.pending_batches() as u64, pending, "{case}: batch {n}");
            }
            for e in 0..=batches {
                assert!(
                    store.collection_at(e).unwrap().to_bytes() == chain(e).to_bytes(),
                    "{case}: collection_at({e}) is not the chain cut there"
                );
            }
            fold(&mut store, &mut live, batches + 1);
            assert_eq!(folded, batches, "{case}");
            assert_eq!(store.epoch(), batches, "{case}");
            assert_eq!(store.pending_batches(), 0, "{case}");
            assert_folded(&store);
            for e in 0..=batches {
                assert!(
                    store.collection_at(e).unwrap().to_bytes() == chain(e).to_bytes(),
                    "{case}: collection_at({e}) after the fold"
                );
            }

            // With nothing pending a fold does nothing at all.
            let segment = store.manifest.segment.file.clone();
            store.writer(&live).compact().unwrap();
            assert_eq!(store.manifest.segment.file, segment, "{case}");
            assert_folded(&store);
            drop(store);

            let (reopened, recovered) = IndexStore::open(dir.path()).unwrap();
            assert_eq!(reopened.epoch(), batches, "{case}");
            assert_eq!(reopened.pending_batches(), 0, "{case}");
            assert_eq!(reopened.num_docs(), live.num_docs(), "{case}");
            assert_eq!(fingerprint(&recovered), fingerprint(&live), "{case}");
            reopened.verify().unwrap();
        }
    }

    /// A writer over a collection that is not the one the store's
    /// batches built is refused before it writes a byte, whether asked
    /// to fold by name or by the batch that finds the WAL full.
    #[test]
    fn a_writer_over_the_wrong_collection_writes_nothing() {
        let dir = TempDir::new("wrong-live").unwrap();
        let (mut store, mut live) = demo_store(&dir);
        for n in 1..=CHECKPOINT_BATCHES as u64 {
            commit(&mut store, &mut live, n);
        }
        let stale = chain(2);
        let before = snapshot(dir.path());
        assert_eq!(
            store.writer(&stale).compact(),
            Err(StoreError::WrongCollection {
                store: live.num_docs(),
                live: stale.num_docs(),
            })
        );
        assert_eq!(
            snapshot(dir.path()),
            before,
            "a refused fold writes nothing"
        );
        // The batch still commits; only its fold is refused.
        let epoch = store.writer(&stale).log_batch(&batch(9)).unwrap();
        assert_eq!(epoch, CHECKPOINT_BATCHES as u64 + 1);
        assert_eq!(store.pending_batches(), CHECKPOINT_BATCHES + 1);
        drop(store);
        let (store, _) = IndexStore::open(dir.path()).unwrap();
        assert_eq!(store.epoch(), CHECKPOINT_BATCHES as u64 + 1);
        assert_eq!(store.pending_batches(), CHECKPOINT_BATCHES + 1);
        assert_eq!(store.manifest.segment.file, segment_file_name(0));
    }

    /// A segment whose batch list sums to more documents than its
    /// collection holds, both checksums good, is corrupt at `open` and
    /// at `verify`, not a panic in a later as-of cut.
    #[test]
    fn segment_batch_counts_must_match_its_collection() {
        let dir = TempDir::new("miscount").unwrap();
        let two = &base_docs()[..2];
        let (store, _) = IndexStore::create(dir.path(), "demo", &Analyzer::default(), two).unwrap();
        let wrong = |docs: u64, collection: &Collection| {
            let batches = vec![SegmentBatch { epoch: 0, docs }];
            let segment = Segment {
                collection: collection.to_bytes().into(),
                batches: batches.clone(),
            };
            write_file_synced(&dir.path().join(segment_file_name(0)), |f| {
                segment.write_to(f)
            })
            .unwrap();
            batches
        };
        let built = Collection::build("demo", Analyzer::default(), two);
        // As the store in memory knows it, over a collection of three.
        wrong(
            2,
            &Collection::build("demo", Analyzer::default(), &base_docs()),
        );
        assert_eq!(
            store.verify(),
            Err(StoreError::Corrupt {
                what: "segment batches disagree with its collection"
            })
        );
        // Ten documents claimed over two, the manifest agreeing.
        let batches = wrong(10, &built);
        let manifest = Manifest {
            segment: SegmentEntry {
                file: segment_file_name(0),
                batches,
            },
            ..store.manifest.clone()
        };
        write_manifest_atomic(dir.path(), &manifest).unwrap();
        drop(store);
        assert_eq!(
            IndexStore::open(dir.path()).map(|_| ()),
            Err(StoreError::Corrupt {
                what: "segment batches disagree with its collection"
            })
        );
    }

    /// A crash between a fold's segment write and its manifest rename
    /// leaves files no manifest names; `open` deletes them, and nothing
    /// that merely looks similar.
    #[test]
    fn open_removes_fold_debris_and_nothing_else() {
        let dir = TempDir::new("debris").unwrap();
        let (mut store, mut live) = demo_store(&dir);
        commit(&mut store, &mut live, 1);
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
        let (mut store, mut live) = demo_store(&dir);
        for n in 1..=3u64 {
            commit(&mut store, &mut live, n);
        }
        // Replays must be exact both before and after checkpointing.
        for round in 0..2 {
            for e in 0..=3 {
                let as_of = store.collection_at(e).unwrap();
                assert_eq!(
                    fingerprint(&as_of),
                    fingerprint(&chain(e)),
                    "epoch {e} round {round}"
                );
            }
            store.writer(&live).compact().unwrap();
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
        let (mut store, mut live) = demo_store(&dir);
        commit(&mut store, &mut live, 1);
        let mut writer = store.writer(&live);
        writer.inject_crash(CrashPoint {
            offset: 7,
            mode: CrashMode::Truncate,
        });
        assert_eq!(writer.log_batch(&batch(2)), Err(StoreError::Crashed));
        assert_eq!(writer.log_batch(&batch(3)), Err(StoreError::Poisoned));
        assert_eq!(writer.compact(), Err(StoreError::Poisoned));
        drop(store);
        let (store, _) = IndexStore::open(dir.path()).unwrap();
        assert_eq!(store.epoch(), 1);
        store.verify().unwrap();
    }

    #[test]
    fn verify_reports_status() {
        let dir = TempDir::new("verify").unwrap();
        let (mut store, mut live) = demo_store(&dir);
        commit(&mut store, &mut live, 1);
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
