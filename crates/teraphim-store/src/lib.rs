//! Persistent versioned index store.
//!
//! Every librarian in the paper's distributed configurations owns a
//! collection; until this crate existed that collection lived only in
//! memory and the "index epoch" used by the cache-invalidation plumbing
//! was an ephemeral counter. [`IndexStore`] makes both durable. A store
//! directory is exactly one segment, the WAL and the manifest:
//!
//! * **The segment** ([`segment`]) — an immutable on-disk file holding a
//!   serialized [`teraphim_engine::Collection`] (compressed postings,
//!   document weights, compressed document store) plus the list of
//!   committed batches it covers, sealed with a CRC-32 footer
//!   ([`teraphim_compress::checksum`]).
//! * **Write-ahead log** ([`wal`]) — incremental `add_docs` batches are
//!   appended to `wal.log` as checksummed records *before* the in-memory
//!   index is touched. A synced WAL record is the commit point: each one
//!   advances the durable epoch by exactly one.
//! * **Manifest** ([`manifest`]) — the store's root pointer, updated
//!   atomically (write-temp + rename), naming the live segment and the
//!   last checkpointed epoch.
//! * **The fold** — [`IndexStore::checkpoint`] (also reachable as
//!   [`IndexStore::compact`], and run by [`IndexStore::log_batch`] once
//!   [`CHECKPOINT_BATCHES`] batches are pending) is the one write path
//!   besides the WAL append: the segment with the pending batches
//!   applied becomes the next segment, the manifest is swapped, the WAL
//!   truncated and the old segment deleted. A crash before the swap
//!   leaves a file no manifest names; a crash after it leaves WAL
//!   records the segment already covers. Recovery handles both.
//! * **Crash recovery** — [`IndexStore::open`] loads the segment and
//!   replays the WAL's valid prefix, skipping records at or below the
//!   manifest's epoch and deleting what an interrupted fold left
//!   behind. A torn tail (truncated or garbled final record, the only
//!   damage a crash can inflict) is dropped silently; corruption
//!   anywhere else fails with a typed [`StoreError`] rather than
//!   panicking or serving partial data.
//! * **As-of queries** — [`IndexStore::collection_at`] deterministically
//!   replays the store up to any durable epoch, yielding a collection
//!   whose rankings are byte-identical to an in-memory oracle that
//!   applied the same batches in the same order.
//!
//! The byte-identity guarantee rests on two facts: collection
//! serialization round-trips exactly (document weights travel as raw
//! `f64` bits), and every batch the store applies — on open, in the
//! fold, in an as-of replay — goes through
//! [`Collection::append_documents`](teraphim_engine::Collection::append_documents)
//! on its own, in commit order, which is the call the live writer made
//! for it. Batches are never concatenated into one call: a document's
//! weight is a floating-point sum taken in the term-id order of the
//! delta index its batch is built in, so indexing it together with other
//! batches can change the last bit. Cold-open, WAL replay, the fold and
//! as-of replay therefore all walk the same construction path as the
//! oracle.
//!
//! [`fail`] supplies the crash-point injection harness ([`FailingFile`])
//! used by the recovery test-suite, and [`tempdir`] a dependency-free
//! scratch-directory helper shared by tests and benches.
//!
//! # Examples
//!
//! ```
//! use teraphim_store::{IndexStore, tempdir::TempDir};
//! use teraphim_text::{sgml::TrecDoc, Analyzer};
//!
//! # fn main() -> Result<(), teraphim_store::StoreError> {
//! let dir = TempDir::new("doc-example")?;
//! let base = vec![TrecDoc { docno: "D1".into(), text: "the cat sat".into() }];
//! let (mut store, mut collection) =
//!     IndexStore::create(dir.path(), "demo", &Analyzer::default(), &base)?;
//! assert_eq!(store.epoch(), 0);
//!
//! // Durable append: WAL first, then the in-memory index.
//! let batch = vec![TrecDoc { docno: "D2".into(), text: "the dog ran".into() }];
//! store.log_batch(&batch)?;
//! collection.append_documents(&batch).expect("merge");
//! assert_eq!(store.epoch(), 1);
//!
//! // Reopen recovers the same epoch and identical rankings.
//! drop(store);
//! let (store, reopened) = IndexStore::open(dir.path())?;
//! assert_eq!(store.epoch(), 1);
//! assert_eq!(reopened.num_docs(), collection.num_docs());
//!
//! // Pin a query to an earlier epoch.
//! let as_of = store.collection_at(0)?;
//! assert_eq!(as_of.num_docs(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod fail;
pub mod manifest;
pub mod segment;
pub mod store;
pub mod tempdir;
pub mod wal;

pub use fail::{CrashMode, CrashPoint, FailingFile};
pub use manifest::{Manifest, SegmentEntry};
pub use segment::{Segment, SegmentBatch};
pub use store::{IndexStore, StoreStatus, CHECKPOINT_BATCHES};
pub use tempdir::TempDir;

use std::error::Error;
use std::fmt;

/// Errors surfaced by the persistent store.
///
/// All decode paths return typed errors — corruption is never reported by
/// panicking, and a store that fails to open leaves no partially-applied
/// state behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io {
        /// Which store operation was in flight.
        op: &'static str,
        /// The operating-system error message.
        message: String,
    },
    /// An on-disk artefact (segment, WAL record, manifest) failed
    /// structural or checksum validation.
    Corrupt {
        /// What was found to be corrupt.
        what: &'static str,
    },
    /// The manifest was written by an incompatible format version.
    BadVersion {
        /// The version number found on disk.
        found: u32,
    },
    /// An as-of query asked for an epoch beyond the durable one.
    NoSuchEpoch {
        /// The epoch requested.
        requested: u64,
        /// The newest durable epoch.
        durable: u64,
    },
    /// `create` was called on a directory that already holds a store.
    Exists,
    /// `open` was called on a directory with no manifest.
    Missing,
    /// A collection-level operation (decode, merge) failed.
    Engine(String),
    /// An injected [`CrashPoint`] fired during a WAL append (test
    /// harness only — the simulated process is now "dead").
    Crashed,
    /// The store was used after an injected crash; reopen it instead.
    Poisoned,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, message } => write!(f, "store i/o failure during {op}: {message}"),
            StoreError::Corrupt { what } => write!(f, "corrupt store: {what}"),
            StoreError::BadVersion { found } => {
                write!(f, "unsupported store format version {found}")
            }
            StoreError::NoSuchEpoch { requested, durable } => {
                write!(f, "epoch {requested} is not durable (newest is {durable})")
            }
            StoreError::Exists => write!(f, "store directory already contains a manifest"),
            StoreError::Missing => write!(f, "no store manifest in directory"),
            StoreError::Engine(msg) => write!(f, "collection failure: {msg}"),
            StoreError::Crashed => write!(f, "injected crash point fired during wal append"),
            StoreError::Poisoned => write!(f, "store unusable after injected crash; reopen it"),
        }
    }
}

impl Error for StoreError {}

impl From<teraphim_engine::EngineError> for StoreError {
    fn from(e: teraphim_engine::EngineError) -> Self {
        match e {
            teraphim_engine::EngineError::Corrupt(what) => StoreError::Corrupt { what },
            other => StoreError::Engine(other.to_string()),
        }
    }
}

/// Convenience alias for store results.
pub type Result<T> = std::result::Result<T, StoreError>;

pub(crate) fn io_err(op: &'static str) -> impl Fn(std::io::Error) -> StoreError {
    move |e| StoreError::Io {
        op,
        message: e.to_string(),
    }
}
