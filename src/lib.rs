//! # TERAPHIM-RS
//!
//! A from-scratch Rust reproduction of *"Methodologies for Distributed
//! Information Retrieval"* (de Kretser, Moffat, Shimmin & Zobel, ICDCS
//! 1998): a distributed text-retrieval system in which independent
//! *librarians* manage subcollections and *receptionists* broker ranked
//! queries, comparing the **Central Nothing**, **Central Vocabulary** and
//! **Central Index** methodologies against a monolithic baseline.
//!
//! This facade crate re-exports the workspace crates:
//!
//! * [`compress`] — integer codes and word-based text compression.
//! * [`text`] — tokenization, stopping, stemming, TREC SGML parsing.
//! * [`index`] — compressed inverted indexes, skips, grouped indexes.
//! * [`engine`] — the MG-style mono-server query engine.
//! * [`corpus`] — synthetic TREC-like corpus/query/qrels generation.
//! * [`eval`] — retrieval-effectiveness metrics.
//! * [`net`] — wire protocol and transports.
//! * [`obs`] — structured query traces and per-phase metrics.
//! * [`simnet`] — discrete-event disk/CPU/network simulator.
//! * [`store`] — persistent versioned index: one segment, WAL, epochs.
//! * [`core`] — the TERAPHIM librarian/receptionist system itself.
//!
//! # Quick start
//!
//! ```
//! use teraphim::core::{DistributedCollection, Methodology};
//! use teraphim::corpus::{CorpusSpec, SyntheticCorpus};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Generate a small deterministic corpus split into four subcollections.
//! let corpus = SyntheticCorpus::generate(&CorpusSpec::small(42));
//! // Stand up librarians (one per subcollection) and a receptionist.
//! let parts: Vec<(&str, &[teraphim::text::sgml::TrecDoc])> = corpus
//!     .subcollections()
//!     .iter()
//!     .map(|s| (s.name.as_str(), s.docs.as_slice()))
//!     .collect();
//! let system = DistributedCollection::build(&parts)?;
//! // Ask for the top 10 documents under Central Vocabulary.
//! let query = &corpus.short_queries()[0].text;
//! let ranking = system.query(Methodology::CentralVocabulary, query, 10)?;
//! assert!(!ranking.is_empty() && ranking.len() <= 10);
//! # Ok(())
//! # }
//! ```

pub use teraphim_compress as compress;
pub use teraphim_core as core;
pub use teraphim_corpus as corpus;
pub use teraphim_engine as engine;
pub use teraphim_eval as eval;
pub use teraphim_index as index;
pub use teraphim_net as net;
pub use teraphim_obs as obs;
pub use teraphim_scenario as scenario;
pub use teraphim_simnet as simnet;
pub use teraphim_store as store;
pub use teraphim_text as text;
