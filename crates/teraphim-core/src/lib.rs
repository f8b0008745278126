//! TERAPHIM: the distributed text-retrieval system of de Kretser,
//! Moffat, Shimmin & Zobel (ICDCS 1998), in Rust.
//!
//! The architecture follows §3 of the paper:
//!
//! * a [`Librarian`] is an independent mono-server engine managing one
//!   subcollection — it indexes, evaluates queries, and fetches
//!   documents; it answers the wire protocol of `teraphim-net`;
//! * a [`Receptionist`] brokers user queries to a set of librarians over
//!   any transport, merges their rankings, and requests the answer
//!   documents;
//! * [`Methodology`] selects how much global information the
//!   receptionist holds: **Central Nothing** (a librarian list),
//!   **Central Vocabulary** (merged vocabularies and statistics) or
//!   **Central Index** (a grouped central index, expanded via the
//!   `k'`-group candidate mechanism).
//!
//! Two drivers execute queries:
//!
//! * the *real* driver ([`Receptionist`]) over in-process or TCP
//!   transports — used for effectiveness experiments (Table 1) and real
//!   deployments;
//! * the *simulation* driver ([`sim::SimDriver`]) which runs the same
//!   methodology logic while charging every message, disk access and CPU
//!   step to a `teraphim-simnet` resource model — used for the response
//!   time experiments (Tables 3 and 4).
//!
//! # Examples
//!
//! ```
//! use teraphim_core::{DistributedCollection, Methodology};
//!
//! # fn main() -> Result<(), teraphim_core::TeraphimError> {
//! let system = DistributedCollection::from_texts(&[
//!     ("ALPHA", &[("A-1", "the cat sat on the mat"), ("A-2", "dogs chase cats")]),
//!     ("BETA", &[("B-1", "compression of inverted files")]),
//! ])?;
//! let hits = system.query(Methodology::CentralVocabulary, "cat compression", 3)?;
//! assert!(!hits.is_empty());
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod distributed;
pub mod health;
pub mod librarian;
pub mod methodology;
pub mod receptionist;
pub mod selection;
pub mod serving;
pub mod sim;

pub use cache::{CacheConfig, CacheCounters, CacheStats};
pub use distributed::DistributedCollection;
pub use health::{HealthPolicy, HealthReport, HealthState, LibrarianHealth};
pub use librarian::Librarian;
pub use methodology::{CiParams, Methodology};
pub use receptionist::{Coverage, FetchedDoc, GlobalHit, RankedAnswer, Receptionist};
pub use serving::{QuerySession, ServePool};

use std::error::Error;
use std::fmt;

/// Errors surfaced by TERAPHIM operations.
#[derive(Debug)]
pub enum TeraphimError {
    /// A transport or protocol failure.
    Net(teraphim_net::NetError),
    /// An engine-level failure at a librarian.
    Engine(teraphim_engine::EngineError),
    /// An index failure (e.g. while building the central index).
    Index(teraphim_index::IndexError),
    /// A persistent-store failure (durable append, open, recovery).
    Store(teraphim_store::StoreError),
    /// The receptionist lacks the global state the methodology needs.
    MissingGlobalState(&'static str),
    /// Invalid parameters (e.g. `k' < k / G`).
    BadParameters(String),
    /// Every librarian failed a degraded query: it produced no usable
    /// (even partial) ranking.
    InsufficientCoverage {
        /// Librarians that answered successfully.
        answered: usize,
        /// Librarians that failed permanently (after retries).
        failed: usize,
    },
}

impl fmt::Display for TeraphimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TeraphimError::Net(e) => write!(f, "network: {e}"),
            TeraphimError::Engine(e) => write!(f, "engine: {e}"),
            TeraphimError::Index(e) => write!(f, "index: {e}"),
            TeraphimError::Store(e) => write!(f, "store: {e}"),
            TeraphimError::MissingGlobalState(what) => {
                write!(f, "receptionist lacks global state: {what}")
            }
            TeraphimError::BadParameters(msg) => write!(f, "bad parameters: {msg}"),
            TeraphimError::InsufficientCoverage { answered, failed } => write!(
                f,
                "insufficient coverage: {answered} librarian(s) answered, {failed} failed"
            ),
        }
    }
}

impl Error for TeraphimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TeraphimError::Net(e) => Some(e),
            TeraphimError::Engine(e) => Some(e),
            TeraphimError::Index(e) => Some(e),
            TeraphimError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<teraphim_net::NetError> for TeraphimError {
    fn from(e: teraphim_net::NetError) -> Self {
        TeraphimError::Net(e)
    }
}

impl From<teraphim_engine::EngineError> for TeraphimError {
    fn from(e: teraphim_engine::EngineError) -> Self {
        TeraphimError::Engine(e)
    }
}

impl From<teraphim_store::StoreError> for TeraphimError {
    fn from(e: teraphim_store::StoreError) -> Self {
        TeraphimError::Store(e)
    }
}

impl From<teraphim_index::IndexError> for TeraphimError {
    fn from(e: teraphim_index::IndexError) -> Self {
        TeraphimError::Index(e)
    }
}
