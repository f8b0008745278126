//! A batteries-included distributed collection.
//!
//! [`DistributedCollection`] stands up one in-process librarian per
//! subcollection, runs the CV and CI preprocessing steps, and exposes all
//! three methodologies behind a `&self` API (the receptionist sits behind
//! a mutex). This is the entry point examples and quick experiments use;
//! fine-grained control (custom transports, TCP deployment, traffic
//! inspection) goes through [`crate::Receptionist`] directly.

use crate::librarian::Librarian;
use crate::methodology::{CiParams, Methodology};
use crate::receptionist::{FetchedDoc, GlobalHit, Receptionist};
use crate::TeraphimError;
use std::sync::{Mutex, MutexGuard, PoisonError};
use teraphim_net::InProcTransport;
use teraphim_text::sgml::TrecDoc;
use teraphim_text::Analyzer;

/// A ready-to-query distributed collection over in-process librarians.
#[derive(Debug)]
pub struct DistributedCollection {
    receptionist: Mutex<Receptionist<InProcTransport<Librarian>>>,
    num_librarians: usize,
}

impl DistributedCollection {
    /// Builds librarians over parsed TREC documents, then enables the
    /// Central Vocabulary and Central Index (G = 10, k' = 100) states.
    ///
    /// # Errors
    ///
    /// Propagates preprocessing failures.
    pub fn build(parts: &[(&str, &[TrecDoc])]) -> Result<Self, TeraphimError> {
        Self::build_with(parts, Analyzer::default(), CiParams::default())
    }

    /// Builds with a custom analyzer and CI parameters.
    ///
    /// # Errors
    ///
    /// Propagates preprocessing failures.
    pub fn build_with(
        parts: &[(&str, &[TrecDoc])],
        analyzer: Analyzer,
        ci: CiParams,
    ) -> Result<Self, TeraphimError> {
        let transports: Vec<InProcTransport<Librarian>> = parts
            .iter()
            .map(|(name, docs)| {
                InProcTransport::new(Librarian::build(name, analyzer.clone(), docs))
            })
            .collect();
        let num_librarians = transports.len();
        let mut receptionist = Receptionist::new(transports, analyzer);
        receptionist.enable_cv()?;
        receptionist.enable_ci(ci)?;
        Ok(DistributedCollection {
            receptionist: Mutex::new(receptionist),
            num_librarians,
        })
    }

    /// Builds from `(name, [(docno, text)])` pairs.
    ///
    /// # Errors
    ///
    /// Propagates preprocessing failures.
    pub fn from_texts(parts: &[(&str, &[(&str, &str)])]) -> Result<Self, TeraphimError> {
        let owned: Vec<(String, Vec<TrecDoc>)> = parts
            .iter()
            .map(|(name, docs)| {
                (
                    (*name).to_owned(),
                    docs.iter()
                        .map(|(docno, text)| TrecDoc {
                            docno: (*docno).to_owned(),
                            text: (*text).to_owned(),
                        })
                        .collect(),
                )
            })
            .collect();
        let refs: Vec<(&str, &[TrecDoc])> = owned
            .iter()
            .map(|(name, docs)| (name.as_str(), docs.as_slice()))
            .collect();
        Self::build(&refs)
    }

    /// Number of librarians.
    pub fn num_librarians(&self) -> usize {
        self.num_librarians
    }

    fn lock(&self) -> MutexGuard<'_, Receptionist<InProcTransport<Librarian>>> {
        self.receptionist
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Evaluates a ranked query, returning the global top `k`.
    ///
    /// # Errors
    ///
    /// Propagates receptionist failures.
    pub fn query(
        &self,
        methodology: Methodology,
        query: &str,
        k: usize,
    ) -> Result<Vec<GlobalHit>, TeraphimError> {
        self.lock().query(methodology, query, k)
    }

    /// Queries and resolves external document identifiers.
    ///
    /// # Errors
    ///
    /// Propagates receptionist failures.
    pub fn ranked_docnos(
        &self,
        methodology: Methodology,
        query: &str,
        k: usize,
    ) -> Result<Vec<String>, TeraphimError> {
        self.lock().ranked_docnos(methodology, query, k)
    }

    /// Fetches the documents of a ranking (step 4 of the model).
    ///
    /// # Errors
    ///
    /// Propagates receptionist failures.
    pub fn fetch(&self, hits: &[GlobalHit], plain: bool) -> Result<Vec<FetchedDoc>, TeraphimError> {
        self.lock().fetch(hits, plain)
    }

    /// Central-vocabulary size in bytes.
    pub fn cv_vocabulary_bytes(&self) -> usize {
        self.lock()
            .cv_vocabulary_bytes()
            .expect("CV enabled at build time")
    }

    /// Central-index size in bytes.
    pub fn ci_index_bytes(&self) -> usize {
        self.lock()
            .ci_index_bytes()
            .expect("CI enabled at build time")
    }

    /// Aggregate wire traffic so far.
    pub fn traffic(&self) -> teraphim_net::TrafficStats {
        self.lock().traffic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> DistributedCollection {
        DistributedCollection::from_texts(&[
            (
                "A",
                &[
                    ("A-1", "the cat sat on the mat"),
                    ("A-2", "cats herd poorly"),
                ][..],
            ),
            (
                "B",
                &[
                    ("B-1", "inverted file compression"),
                    ("B-2", "the dog ate the inverted file"),
                ][..],
            ),
        ])
        .unwrap()
    }

    #[test]
    fn all_methodologies_answer() {
        let s = system();
        for m in Methodology::ALL {
            let hits = s.query(m, "cat file", 3).unwrap();
            assert!(!hits.is_empty(), "{m}");
            assert!(hits.len() <= 3, "{m}");
        }
    }

    #[test]
    fn query_through_shared_reference() {
        let s = system();
        let r1 = s
            .ranked_docnos(Methodology::CentralVocabulary, "cat", 2)
            .unwrap();
        let r2 = s
            .ranked_docnos(Methodology::CentralVocabulary, "cat", 2)
            .unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn fetch_returns_documents_in_rank_order() {
        let s = system();
        let hits = s
            .query(Methodology::CentralVocabulary, "inverted file", 2)
            .unwrap();
        let docs = s.fetch(&hits, true).unwrap();
        assert_eq!(docs.len(), hits.len());
        for (d, h) in docs.iter().zip(&hits) {
            assert_eq!(d.doc, h.doc);
            assert!(d.text.is_some());
        }
    }

    #[test]
    fn sizes_are_reported() {
        let s = system();
        assert!(s.cv_vocabulary_bytes() > 0);
        assert!(s.ci_index_bytes() > 0);
        assert_eq!(s.num_librarians(), 2);
    }

    #[test]
    fn empty_parts_build() {
        let s = DistributedCollection::from_texts(&[("EMPTY", &[][..])]).unwrap();
        let hits = s.query(Methodology::CentralNothing, "anything", 5).unwrap();
        assert!(hits.is_empty());
    }
}
