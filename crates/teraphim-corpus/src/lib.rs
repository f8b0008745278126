//! Deterministic synthetic TREC-like corpus generation.
//!
//! The paper evaluates on TREC disk 2 — one gigabyte of AP, FR, WSJ and
//! ZIFF documents with NIST topics 51–200 (long) and 202–250 (short) and
//! human relevance judgments. That data is licensed and unavailable here,
//! so this crate substitutes a *generative* equivalent whose ground truth
//! is known by construction:
//!
//! * a Zipf-distributed background vocabulary ([`zipf`]);
//! * a set of **topics**, each a skewed distribution over a small term
//!   subset ([`topics`]);
//! * documents drawn from a topic/background mixture, assembled into
//!   TREC SGML with realistic sentence structure ([`generator`]);
//! * four named subcollections with different sizes and *different topic
//!   affinities* — the cross-collection statistics skew is exactly what
//!   separates Central Nothing from Central Vocabulary;
//! * long (~90-term) and short (~10-term) query sets derived from
//!   topics, and relevance judgments derived from each document's actual
//!   generative topic fraction ([`queries`]);
//! * the 43-way alternative split of §4 ([`splits`]).
//!
//! Everything is seeded: the same [`CorpusSpec`] always yields the same
//! corpus, queries and judgments.
//!
//! # Examples
//!
//! ```
//! use teraphim_corpus::{CorpusSpec, SyntheticCorpus};
//!
//! let corpus = SyntheticCorpus::generate(&CorpusSpec::small(7));
//! assert_eq!(corpus.subcollections().len(), 4);
//! assert!(!corpus.short_queries().is_empty());
//! // Same seed, same corpus.
//! let again = SyntheticCorpus::generate(&CorpusSpec::small(7));
//! assert_eq!(
//!     corpus.subcollections()[0].docs[0].text,
//!     again.subcollections()[0].docs[0].text
//! );
//! ```

pub mod generator;
pub mod queries;
pub mod splits;
pub mod topics;
pub mod words;
pub mod zipf;

pub use generator::{CorpusSpec, SubSpec, SyntheticCorpus};
pub use queries::Query;

use teraphim_text::sgml::TrecDoc;

/// One named subcollection (what a librarian manages).
#[derive(Debug, Clone)]
pub struct Subcollection {
    /// Collection name ("AP", "FR", ...).
    pub name: String,
    /// The documents, in indexing order.
    pub docs: Vec<TrecDoc>,
}

impl Subcollection {
    /// Total uncompressed text bytes.
    pub fn text_bytes(&self) -> usize {
        self.docs.iter().map(|d| d.text.len()).sum()
    }
}
