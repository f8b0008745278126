//! The MG-style mono-server text query engine.
//!
//! A [`Collection`] bundles everything one *librarian* (or the
//! mono-server baseline) owns: the analyzer, the compressed inverted
//! index, the document-weights table and the compressed document store.
//! On top of it this crate implements the paper's query machinery:
//!
//! * [`ranking`] — accumulator-based ranked evaluation of the cosine
//!   measure, with either locally computed or externally supplied
//!   (global) query-term weights. The latter is what the Central
//!   Vocabulary receptionist ships to librarians.
//! * [`candidates`] — candidate-restricted scoring using self-indexing
//!   skips: compute similarity values for a given set of documents
//!   "without processing the index lists in full" (the Central Index
//!   librarian operation).
//! * [`boolean`] — conjunctive/disjunctive Boolean evaluation, the
//!   paper's other query form.
//! * [`docstore`] — compressed document storage and (batched) fetching.
//!
//! # Examples
//!
//! ```
//! use teraphim_engine::Collection;
//!
//! let collection = Collection::from_texts(
//!     "demo",
//!     &[
//!         ("D1", "the cat sat on the mat"),
//!         ("D2", "the dog chased the cat"),
//!         ("D3", "penguins are aquatic birds"),
//!     ],
//! );
//! let hits = collection.ranked_query("cat on a mat", 2);
//! assert_eq!(hits.len(), 2);
//! assert_eq!(collection.docno(hits[0].doc), "D1");
//! ```

pub mod boolean;
pub mod candidates;
pub mod docstore;
pub mod ranking;
pub mod thresholding;

use std::error::Error;
use std::fmt;

use teraphim_index::{DocId, IndexBuilder, InvertedIndex, TermId};
use teraphim_text::sgml::TrecDoc;
use teraphim_text::Analyzer;

pub use docstore::DocStore;
pub use ranking::{RankScratch, ScoredDoc, WeightedTerm};

/// Errors surfaced by engine operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A document id was out of range for this collection.
    UnknownDocument(DocId),
    /// The underlying index or document store is corrupt.
    Corrupt(&'static str),
    /// A Boolean query failed to parse.
    QuerySyntax(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownDocument(d) => write!(f, "unknown document id {d}"),
            EngineError::Corrupt(what) => write!(f, "corrupt collection: {what}"),
            EngineError::QuerySyntax(msg) => write!(f, "boolean query syntax error: {msg}"),
        }
    }
}

impl Error for EngineError {}

impl From<teraphim_index::IndexError> for EngineError {
    fn from(_: teraphim_index::IndexError) -> Self {
        EngineError::Corrupt("index decode failure")
    }
}

impl From<teraphim_compress::CodeError> for EngineError {
    fn from(_: teraphim_compress::CodeError) -> Self {
        EngineError::Corrupt("compressed stream decode failure")
    }
}

/// A complete searchable collection: what one librarian manages.
///
/// Every query reads it through `&self`; only
/// [`Collection::append_documents`] changes it. `Clone` is the
/// copy-on-write step of a librarian whose collection is shared.
#[derive(Debug, Clone)]
pub struct Collection {
    name: String,
    analyzer: Analyzer,
    index: InvertedIndex,
    store: DocStore,
}

impl Collection {
    /// Builds a collection from `(docno, text)` pairs using the default
    /// analyzer.
    pub fn from_texts(name: &str, docs: &[(&str, &str)]) -> Self {
        let trec: Vec<TrecDoc> = docs
            .iter()
            .map(|(docno, text)| TrecDoc {
                docno: (*docno).to_owned(),
                text: (*text).to_owned(),
            })
            .collect();
        Self::build(name, Analyzer::default(), &trec)
    }

    /// Builds a collection from parsed TREC documents.
    pub fn build(name: &str, analyzer: Analyzer, docs: &[TrecDoc]) -> Self {
        let mut builder = IndexBuilder::new();
        for doc in docs {
            builder.add_document(&analyzer.analyze(&doc.text));
        }
        let index = builder.build();
        let store = DocStore::build(docs);
        Collection {
            name: name.to_owned(),
            analyzer,
            index,
            store,
        }
    }

    /// The collection's name (e.g. "AP", "WSJ").
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of documents.
    pub fn num_docs(&self) -> u64 {
        self.index.num_docs()
    }

    /// The text analyzer used at indexing time.
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// The underlying inverted index.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// The compressed document store.
    pub fn store(&self) -> &DocStore {
        &self.store
    }

    /// The external identifier of `doc`.
    ///
    /// # Panics
    ///
    /// Panics if `doc` is out of range.
    pub fn docno(&self, doc: DocId) -> &str {
        self.store.docno(doc)
    }

    /// Analyzes query text into `(term id, f_qt)` pairs, dropping terms
    /// absent from this collection's vocabulary.
    pub fn analyze_query(&self, query: &str) -> Vec<(TermId, u32)> {
        let mut counts: std::collections::HashMap<TermId, u32> = std::collections::HashMap::new();
        for term in self.analyzer.analyze(query) {
            if let Some(id) = self.index.vocab().term_id(&term) {
                *counts.entry(id).or_insert(0) += 1;
            }
        }
        let mut entries: Vec<(TermId, u32)> = counts.into_iter().collect();
        entries.sort_unstable_by_key(|&(t, _)| t);
        entries
    }

    /// Evaluates a ranked query with *local* statistics, returning the
    /// top `k` documents (the mono-server / Central Nothing librarian
    /// operation).
    pub fn ranked_query(&self, query: &str, k: usize) -> Vec<ScoredDoc> {
        let terms = self.analyze_query(query);
        let weighted = ranking::local_weights(&self.index, &terms);
        ranking::rank(&self.index, &weighted, k)
    }

    /// Evaluates a ranked query with externally supplied term weights
    /// (the Central Vocabulary librarian operation). Terms are given as
    /// strings because the weights come from the *global* vocabulary.
    ///
    /// The cosine query norm covers *all* supplied weights, including
    /// terms this collection has never seen — that is what makes scores
    /// from different librarians directly comparable (and identical to a
    /// mono-server evaluation).
    ///
    /// `scratch` is the caller's, reused across a librarian's query
    /// stream.
    pub fn ranked_query_weighted(
        &self,
        terms: &[(String, f64)],
        k: usize,
        scratch: &mut RankScratch,
    ) -> Vec<ScoredDoc> {
        let qnorm = full_query_norm(terms);
        let weighted = self.resolve_weighted(terms);
        ranking::rank_with_norm(&self.index, &weighted, qnorm, k, scratch)
    }

    /// Scores exactly the given candidate documents with externally
    /// supplied weights (the Central Index librarian operation). Returns
    /// one score per candidate plus the number of postings decoded.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Corrupt`] if the index fails to decode.
    pub fn score_candidates(
        &self,
        terms: &[(String, f64)],
        candidates: &[DocId],
        scratch: &mut RankScratch,
    ) -> Result<(Vec<ScoredDoc>, u64), EngineError> {
        let qnorm = full_query_norm(terms);
        let weighted = self.resolve_weighted(terms);
        candidates::score_candidates(&self.index, &weighted, qnorm, candidates, scratch)
    }

    /// Evaluates a Boolean query.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::QuerySyntax`] for malformed expressions.
    pub fn boolean_query(&self, query: &str) -> Result<Vec<DocId>, EngineError> {
        let expr = boolean::parse(query)?;
        boolean::evaluate(&expr, &self.index, &self.analyzer)
    }

    /// Fetches and decompresses one document's text.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownDocument`] for out-of-range ids.
    pub fn fetch(&self, doc: DocId) -> Result<String, EngineError> {
        self.store.fetch(doc)
    }

    /// Appends documents to the collection: the update path the paper's
    /// introduction motivates ("distributed ... to simplify update").
    /// New documents are indexed into a delta and merged
    /// ([`teraphim_index::merge`]); the result ranks identically to a
    /// from-scratch build over the concatenated documents.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Corrupt`] if the existing index fails to
    /// decode during the merge.
    pub fn append_documents(&mut self, docs: &[TrecDoc]) -> Result<(), EngineError> {
        let mut delta = IndexBuilder::new();
        for doc in docs {
            delta.add_document(&self.analyzer.analyze(&doc.text));
        }
        self.index = teraphim_index::merge::merge(&self.index, &delta.build())?;
        self.store.append(docs);
        Ok(())
    }

    /// Extracts every document as a [`TrecDoc`], in document-id order.
    ///
    /// This is the inverse of indexing at the text level: the compressed
    /// document store round-trips text exactly, so the returned batch can
    /// rebuild an identical collection. The persistent store uses it to
    /// slice segment contents back into the batches they were committed
    /// as (for "as-of" epoch replay).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Corrupt`] if the document store fails to
    /// decode.
    pub fn export_docs(&self) -> Result<Vec<TrecDoc>, EngineError> {
        (0..self.num_docs() as DocId)
            .map(|d| {
                Ok(TrecDoc {
                    docno: self.docno(d).to_owned(),
                    text: self.fetch(d)?,
                })
            })
            .collect()
    }

    /// Serializes the whole collection (analyzer configuration, index,
    /// document store) for on-disk storage.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let name = self.name.as_bytes();
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name);
        out.push(u8::from(self.analyzer.stopping()));
        out.push(u8::from(self.analyzer.stemming()));
        let index = self.index.to_bytes();
        out.extend_from_slice(&(index.len() as u64).to_le_bytes());
        out.extend_from_slice(&index);
        let store = self.store.to_bytes();
        out.extend_from_slice(&(store.len() as u64).to_le_bytes());
        out.extend_from_slice(&store);
        out
    }

    /// Reconstructs a collection serialized by [`Collection::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Corrupt`] on truncation or corruption.
    pub fn from_bytes(bytes: &[u8]) -> Result<Collection, EngineError> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], EngineError> {
            let slice = bytes
                .get(*pos..*pos + n)
                .ok_or(EngineError::Corrupt("collection truncated"))?;
            *pos += n;
            Ok(slice)
        };
        let name_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
        let name = std::str::from_utf8(take(&mut pos, name_len)?)
            .map_err(|_| EngineError::Corrupt("collection name is not UTF-8"))?
            .to_owned();
        let stop = *take(&mut pos, 1)?.first().expect("one byte") != 0;
        let stem = *take(&mut pos, 1)?.first().expect("one byte") != 0;
        let index_len =
            u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes")) as usize;
        let index = InvertedIndex::from_bytes(take(&mut pos, index_len)?)?;
        let store_len =
            u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes")) as usize;
        let store = DocStore::from_bytes(take(&mut pos, store_len)?)?;
        if pos != bytes.len() {
            return Err(EngineError::Corrupt("trailing bytes after collection"));
        }
        Ok(Collection {
            name,
            analyzer: Analyzer::new().with_stopping(stop).with_stemming(stem),
            index,
            store,
        })
    }

    /// Writes the collection to a file: to a sibling `<path>.tmp`,
    /// synced, then renamed over `path`, so a save that does not
    /// complete (a crash, a full disk) leaves the previous file intact
    /// instead of a truncated one.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Corrupt`] wrapping any I/O failure message.
    pub fn save(&self, path: &std::path::Path) -> Result<(), EngineError> {
        use std::io::Write as _;
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::File::create(&tmp)
            .and_then(|mut file| {
                file.write_all(&self.to_bytes())?;
                file.sync_all()
            })
            .and_then(|()| std::fs::rename(&tmp, path))
            .map_err(|_| {
                let _ = std::fs::remove_file(&tmp);
                EngineError::Corrupt("failed to write collection file")
            })
    }

    /// Reads a collection written by [`Collection::save`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Corrupt`] if the file cannot be read or
    /// decoded.
    pub fn load(path: &std::path::Path) -> Result<Collection, EngineError> {
        let bytes = std::fs::read(path)
            .map_err(|_| EngineError::Corrupt("failed to read collection file"))?;
        Collection::from_bytes(&bytes)
    }

    /// Maps weighted term strings onto this collection's term ids,
    /// dropping unknown terms (they cannot contribute to accumulators;
    /// their weights still belong in the query norm — see
    /// [`Collection::ranked_query_weighted`]).
    fn resolve_weighted(&self, terms: &[(String, f64)]) -> Vec<WeightedTerm> {
        terms
            .iter()
            .filter_map(|(term, w_qt)| {
                self.index.vocab().term_id(term).map(|id| WeightedTerm {
                    term: id,
                    w_qt: *w_qt,
                })
            })
            .collect()
    }
}

/// Query norm over a full weighted term list (strings not yet resolved
/// against any particular vocabulary).
fn full_query_norm(terms: &[(String, f64)]) -> f64 {
    teraphim_index::similarity::query_norm(&terms.iter().map(|(_, w)| *w).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Collection {
        Collection::from_texts(
            "demo",
            &[
                ("D1", "the cat sat on the mat"),
                ("D2", "the dog chased the cat across the yard"),
                ("D3", "penguins are aquatic flightless birds"),
                ("D4", "a cat and a dog and a bird"),
            ],
        )
    }

    #[test]
    fn ranked_query_prefers_matching_docs() {
        let c = demo();
        let hits = c.ranked_query("cat mat", 4);
        assert!(!hits.is_empty());
        assert_eq!(c.docno(hits[0].doc), "D1");
        // D3 shares no terms and must not appear.
        assert!(hits.iter().all(|h| c.docno(h.doc) != "D3"));
    }

    #[test]
    fn ranked_query_k_limits_results() {
        let c = demo();
        assert_eq!(c.ranked_query("cat", 1).len(), 1);
        assert!(c.ranked_query("cat", 10).len() <= 4);
    }

    #[test]
    fn query_with_no_known_terms_is_empty() {
        let c = demo();
        assert!(c.ranked_query("zyzzyva qwerty", 5).is_empty());
        assert!(c.analyze_query("zyzzyva").is_empty());
    }

    #[test]
    fn a_save_that_cannot_complete_leaves_the_previous_file_loadable() {
        let dir = std::env::temp_dir().join(format!("teraphim-engine-save-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("demo.tcol");
        let first = demo();
        first.save(&path).unwrap();
        assert_eq!(
            Collection::load(&path).unwrap().num_docs(),
            first.num_docs()
        );
        assert!(
            !dir.join("demo.tcol.tmp").exists(),
            "temporary renamed away"
        );

        // Something in the way of the temporary: the save fails before
        // the live file is touched.
        std::fs::create_dir(dir.join("demo.tcol.tmp")).unwrap();
        let mut grown = demo();
        grown
            .append_documents(&[TrecDoc {
                docno: "D9".into(),
                text: "one more cat".into(),
            }])
            .unwrap();
        assert!(grown.save(&path).is_err());
        assert_eq!(
            Collection::load(&path).unwrap().num_docs(),
            first.num_docs()
        );

        std::fs::remove_dir(dir.join("demo.tcol.tmp")).unwrap();
        grown.save(&path).unwrap();
        assert_eq!(
            Collection::load(&path).unwrap().num_docs(),
            grown.num_docs()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn analyze_query_counts_repeats() {
        let c = demo();
        let terms = c.analyze_query("cat cat dog");
        let cat = c.index().vocab().term_id("cat").unwrap();
        let dog = c.index().vocab().term_id("dog").unwrap();
        assert!(terms.contains(&(cat, 2)));
        assert!(terms.contains(&(dog, 1)));
    }

    #[test]
    fn fetch_roundtrips_document_text() {
        let c = demo();
        let text = c.fetch(0).unwrap();
        assert_eq!(text, "the cat sat on the mat");
        assert!(matches!(c.fetch(99), Err(EngineError::UnknownDocument(99))));
    }

    #[test]
    fn weighted_query_respects_supplied_weights() {
        let c = demo();
        // Give "bird" an overwhelming weight: D4 must win over D1 for
        // "cat bird".
        let hits = c.ranked_query_weighted(
            &[("cat".into(), 0.1), ("bird".into(), 100.0)],
            4,
            &mut RankScratch::new(),
        );
        assert_eq!(c.docno(hits[0].doc), "D4");
    }

    #[test]
    fn weighted_query_ignores_unknown_terms() {
        let c = demo();
        let hits =
            c.ranked_query_weighted(&[("unknownterm".into(), 5.0)], 4, &mut RankScratch::new());
        assert!(hits.is_empty());
    }

    #[test]
    fn score_candidates_matches_full_ranking_scores() {
        let c = demo();
        let terms = c.analyze_query("cat dog");
        let weighted = ranking::local_weights(c.index(), &terms);
        let full = ranking::rank(c.index(), &weighted, 10);
        let weighted_str: Vec<(String, f64)> = weighted
            .iter()
            .map(|w| (c.index().vocab().term(w.term).to_owned(), w.w_qt))
            .collect();
        let candidates: Vec<DocId> = (0..4).collect();
        let (scored, _decoded) = c
            .score_candidates(&weighted_str, &candidates, &mut RankScratch::new())
            .unwrap();
        for s in &scored {
            let full_score = full
                .iter()
                .find(|f| f.doc == s.doc)
                .map_or(0.0, |f| f.score);
            assert!(
                (s.score - full_score).abs() < 1e-12,
                "doc {} candidate {} vs full {}",
                s.doc,
                s.score,
                full_score
            );
        }
    }

    #[test]
    fn append_ranks_identically_to_scratch_build() {
        let first = [
            ("D1", "the cat sat on the mat"),
            ("D2", "the dog chased the cat across the yard"),
        ];
        let second = [
            ("D3", "penguins are aquatic flightless birds"),
            ("D4", "a cat and a dog and a bird"),
        ];
        let mut incremental = Collection::from_texts("demo", &first);
        let delta: Vec<teraphim_text::sgml::TrecDoc> = second
            .iter()
            .map(|(docno, text)| teraphim_text::sgml::TrecDoc {
                docno: (*docno).to_owned(),
                text: (*text).to_owned(),
            })
            .collect();
        incremental.append_documents(&delta).unwrap();

        let all: Vec<(&str, &str)> = first.iter().chain(second.iter()).copied().collect();
        let scratch = Collection::from_texts("demo", &all);

        assert_eq!(incremental.num_docs(), 4);
        for query in ["cat dog", "bird", "penguins aquatic", "mat"] {
            let a = incremental.ranked_query(query, 10);
            let b = scratch.ranked_query(query, 10);
            assert_eq!(a.len(), b.len(), "query {query}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.doc, y.doc, "query {query}");
                assert!((x.score - y.score).abs() < 1e-12, "query {query}");
            }
        }
        // Appended documents fetch correctly (compressed with the old
        // model via escapes).
        assert_eq!(
            incremental.fetch(2).unwrap(),
            "penguins are aquatic flightless birds"
        );
        assert_eq!(incremental.docno(3), "D4");
    }

    /// An append replaces the index, and with it every skip table: the
    /// next candidate query rebuilds tables for the lists it touches —
    /// through `&Collection`, from several threads at once — and for no
    /// others.
    #[test]
    fn candidate_scoring_after_an_append_builds_only_the_queried_tables() {
        let mut c = demo();
        c.append_documents(&[TrecDoc {
            docno: "D5".into(),
            text: "a walrus chased the cat".into(),
        }])
        .unwrap();
        let shared = &c;
        let queried = c.analyzer().analyze("cat walrus");
        let terms: Vec<(String, f64)> = queried.iter().cloned().zip([1.5, 0.5]).collect();
        assert_eq!(shared.resolve_weighted(&terms).len(), 2);
        let candidates: Vec<DocId> = (0..5).collect();
        let qnorm = full_query_norm(&terms);
        let expected = candidates::score_candidates_full_scan(
            shared.index(),
            &shared.resolve_weighted(&terms),
            qnorm,
            &candidates,
        )
        .unwrap()
        .0;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let (scored, _) = shared
                        .score_candidates(&terms, &candidates, &mut RankScratch::new())
                        .unwrap();
                    assert_eq!(
                        ranking::oracle::bits(&scored),
                        ranking::oracle::bits(&expected)
                    );
                });
            }
        });
        for (term, name) in c.index().vocab().iter() {
            let queried = queried.iter().any(|q| q == name);
            assert_eq!(c.index().has_skips(term), queried, "{name}");
        }
    }

    #[test]
    fn export_docs_roundtrips_exactly() {
        let c = demo();
        let docs = c.export_docs().unwrap();
        assert_eq!(docs.len(), 4);
        assert_eq!(docs[0].docno, "D1");
        assert_eq!(docs[0].text, "the cat sat on the mat");
        assert_eq!(docs[3].docno, "D4");
        let rebuilt = Collection::build("demo", Analyzer::default(), &docs);
        for query in ["cat dog", "penguins"] {
            let a = c.ranked_query(query, 10);
            let b = rebuilt.ranked_query(query, 10);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!((x.doc, x.score.to_bits()), (y.doc, y.score.to_bits()));
            }
        }
    }

    #[test]
    fn append_to_empty_collection() {
        let mut c = Collection::from_texts("empty", &[]);
        c.append_documents(&[teraphim_text::sgml::TrecDoc {
            docno: "N-1".into(),
            text: "fresh start".into(),
        }])
        .unwrap();
        assert_eq!(c.num_docs(), 1);
        assert_eq!(c.ranked_query("fresh", 5).len(), 1);
    }

    #[test]
    fn collection_serialization_roundtrips_queries() {
        let c = demo();
        let restored = Collection::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(restored.name(), c.name());
        assert_eq!(restored.num_docs(), c.num_docs());
        let a = c.ranked_query("cat dog mat", 4);
        let b = restored.ranked_query("cat dog mat", 4);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.doc, y.doc);
            assert!((x.score - y.score).abs() < 1e-12);
        }
        assert_eq!(restored.fetch(0).unwrap(), c.fetch(0).unwrap());
    }

    #[test]
    fn collection_deserialization_rejects_truncation() {
        let bytes = demo().to_bytes();
        for cut in [0, 2, bytes.len() / 3, bytes.len() - 1] {
            assert!(Collection::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn empty_collection_is_harmless() {
        let c = Collection::from_texts("empty", &[]);
        assert_eq!(c.num_docs(), 0);
        assert!(c.ranked_query("anything", 5).is_empty());
    }
}
