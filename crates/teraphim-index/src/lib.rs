//! Compressed inverted indexes for TERAPHIM.
//!
//! This crate implements the two structures §2 of the paper identifies as
//! the basis of efficient ranked retrieval:
//!
//! 1. an **inverted file** storing, for each term `t`, the list of
//!    documents containing `t` together with the in-document frequency
//!    `f_dt`, held compressed (Elias-γ coded d-gaps and frequencies, ≈10%
//!    of the text size), and
//! 2. a **table of document weights** `W_d = sqrt(Σ_t w_dt²)`
//!    precomputed at build time.
//!
//! On top of these it provides the paper's two index refinements:
//!
//! * **self-indexing skips** ([`skips`]) — periodic synchronisation
//!   points inside each inverted list so that similarity values for a
//!   *candidate set* of documents can be computed without decoding lists
//!   in full (Moffat & Zobel 1996; used by the Central Index method), and
//! * **grouped indexes** ([`grouped`]) — indexing fixed-size *groups* of
//!   consecutive documents as if they were single documents, roughly
//!   halving index size at `G = 10` (Moffat & Zobel 1994; the structure a
//!   Central Index receptionist holds).
//!
//! # Examples
//!
//! ```
//! use teraphim_index::builder::IndexBuilder;
//! use teraphim_text::Analyzer;
//!
//! let analyzer = Analyzer::default();
//! let mut builder = IndexBuilder::new();
//! builder.add_document(&analyzer.analyze("distributed retrieval of documents"));
//! builder.add_document(&analyzer.analyze("document compression"));
//! let index = builder.build();
//! assert_eq!(index.num_docs(), 2);
//! let term = index.vocab().term_id("document").unwrap();
//! assert_eq!(index.stats().doc_freq(term), 2);
//! ```

pub mod builder;
pub mod grouped;
pub mod merge;
pub mod postings;
pub mod pruning;
pub mod skips;
pub mod stats;
pub mod vocab;
pub mod weights;

use std::error::Error;
use std::fmt;

pub use builder::{IndexBuilder, InvertedIndex};
pub use grouped::GroupedIndex;
pub use postings::{Posting, PostingsList};
pub use stats::CollectionStats;
pub use vocab::{TermId, Vocabulary};
pub use weights::DocWeights;

/// A document identifier local to one collection (assigned densely from
/// zero in indexing order).
pub type DocId = u32;

/// Error type for index deserialization and integrity checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// The serialized form is truncated or structurally invalid.
    Corrupt(&'static str),
    /// An identifier referred to a term or document that does not exist.
    OutOfRange(&'static str),
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Corrupt(what) => write!(f, "corrupt index: {what}"),
            IndexError::OutOfRange(what) => write!(f, "identifier out of range: {what}"),
        }
    }
}

impl Error for IndexError {}

impl From<teraphim_compress::bytes::Corrupt> for IndexError {
    fn from(e: teraphim_compress::bytes::Corrupt) -> Self {
        IndexError::Corrupt(e.0)
    }
}

impl From<teraphim_compress::CodeError> for IndexError {
    fn from(_: teraphim_compress::CodeError) -> Self {
        IndexError::Corrupt("compressed stream decode failure")
    }
}

/// The cosine similarity formulation of §2 of the paper, shared by every
/// component (librarian, receptionist, grouped index) so that scores are
/// comparable across the system.
pub mod similarity {
    /// In-document weight `w_dt = log(f_dt + 1)` (natural log, as in MG).
    pub fn w_dt(f_dt: u64) -> f64 {
        ((f_dt + 1) as f64).ln()
    }

    /// Query-term weight `w_qt = log(f_qt + 1) · log(N/f_t + 1)`.
    ///
    /// `n_docs` is the (possibly global) collection size, `f_t` the
    /// (possibly global) document frequency. Returns 0 when `f_t == 0`.
    pub fn w_qt(f_qt: u64, n_docs: u64, f_t: u64) -> f64 {
        if f_t == 0 {
            return 0.0;
        }
        ((f_qt + 1) as f64).ln() * (n_docs as f64 / f_t as f64 + 1.0).ln()
    }

    /// Query norm `sqrt(Σ w_qt²)` for a list of query weights, summed
    /// in the order given.
    pub fn query_norm(weights: impl IntoIterator<Item = f64>) -> f64 {
        weights.into_iter().map(|w| w * w).sum::<f64>().sqrt()
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn w_dt_is_log_f_plus_one() {
            assert!((w_dt(0) - 0.0f64.ln_1p()).abs() < 1e-12);
            assert!((w_dt(1) - 2f64.ln()).abs() < 1e-12);
            assert!((w_dt(9) - 10f64.ln()).abs() < 1e-12);
        }

        #[test]
        fn w_qt_zero_for_absent_terms() {
            assert_eq!(w_qt(3, 100, 0), 0.0);
        }

        #[test]
        fn w_qt_increases_with_rarity() {
            let common = w_qt(1, 1000, 900);
            let rare = w_qt(1, 1000, 3);
            assert!(rare > common);
        }

        #[test]
        fn query_norm_hand_computed() {
            assert!((query_norm([3.0, 4.0]) - 5.0).abs() < 1e-12);
            assert_eq!(query_norm([]), 0.0);
        }
    }
}
