//! Index construction and the complete inverted index.

use crate::postings::{Lists, ListsWriter, Posting, PostingsList};
use crate::skips::{SkipTable, DEFAULT_SKIP_EVERY};
use crate::stats::{self, IndexStats};
use crate::vocab::{self, Vocabulary};
use crate::weights::DocWeights;
use crate::{DocId, IndexError, TermId};
use std::sync::OnceLock;
use teraphim_compress::bytes::Reader;
use teraphim_text::{tokenize, Analyzer};

/// An in-memory index under construction.
///
/// Documents are added as the tokens of a text model's scan
/// ([`IndexBuilder::add_scanned`]) or as term sequences (the output of
/// `teraphim_text::Analyzer::analyze`); ids are assigned densely in
/// insertion order, which is also what keeps *grouping* meaningful —
/// the paper's groups are runs of `G` consecutive document numbers.
///
/// # Examples
///
/// ```
/// use teraphim_index::builder::IndexBuilder;
///
/// let mut builder = IndexBuilder::new();
/// let d0 = builder.add_document(&["cat", "sat", "cat"]);
/// assert_eq!(d0, 0);
/// let index = builder.build();
/// let cat = index.vocab().term_id("cat").unwrap();
/// let mut postings = Vec::new();
/// index.postings(cat).scan(|p| postings.push((p.doc, p.f_dt))).unwrap();
/// assert_eq!(postings, [(0, 2)]);
/// ```
#[derive(Debug, Default)]
pub struct IndexBuilder {
    vocab: Vocabulary,
    /// Every posting so far with its term, in document order and, within
    /// a document, in term order.
    postings: Vec<(TermId, Posting)>,
    weights: DocWeights,
    doc_lengths: Vec<u32>,
    /// The term ids of the document being added (kept for its capacity).
    ids: Vec<TermId>,
    /// What each scanned word [`IndexBuilder::add_scanned`] has met
    /// stands for.
    memo: Memo,
}

/// Word id → term, for the texts one analyzer feeds a builder: each
/// distinct word of the scan is filtered, stopped and stemmed once,
/// however often it occurs.
#[derive(Debug, Default)]
struct Memo {
    /// The analyzer the entries were made with; another one clears them.
    analyzer: Option<Analyzer>,
    /// Per word id of the text model's scan, its term's id, [`DROPPED`],
    /// or [`UNSEEN`] until the word stands alone in a text.
    words: Vec<TermId>,
    /// Scratch for tokens that are not slices of their text.
    fold: String,
    /// Scratch for a token's stem.
    stem: String,
}

impl Memo {
    /// The memo for `analyzer`: this one, or a new one if it was made
    /// with another.
    fn for_analyzer(&mut self, analyzer: &Analyzer) -> &mut Memo {
        if self.analyzer.as_ref() != Some(analyzer) {
            *self = Memo {
                analyzer: Some(analyzer.clone()),
                ..Memo::default()
            };
        }
        self
    }
}

/// A memo entry for a token that stands for no term (a stop word, or a
/// length out of range). No vocabulary reaches `u32::MAX` terms.
const DROPPED: TermId = TermId::MAX;

/// A memo entry for a scanned word not yet analyzed.
const UNSEEN: TermId = TermId::MAX - 1;

impl IndexBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a document given its analyzed term sequence; returns its id.
    pub fn add_document<S: AsRef<str>>(&mut self, terms: &[S]) -> DocId {
        let mut ids = std::mem::take(&mut self.ids);
        ids.clear();
        ids.extend(terms.iter().map(|term| self.vocab.intern(term.as_ref())));
        self.push_ids(ids)
    }

    /// Adds a document given the tokens and token ids that
    /// `teraphim_compress::textcomp::TextScan::add` returned for its
    /// text, analyzed by `analyzer`; returns its id. Every call on a
    /// builder takes its ids from one scan. The index is the same, to the
    /// byte, as `add_document(&analyzer.analyze(text))` builds, but
    /// nothing is split or hashed again: the analyzer's words are the
    /// scan's ([`tokenize::words`]), and a word is folded and analyzed
    /// when it first stands alone, its term then found by its id. A word
    /// joined across apostrophes is folded and analyzed where it occurs.
    pub fn add_scanned(&mut self, analyzer: &Analyzer, tokens: &[&str], ids: &[u32]) -> DocId {
        let memo = self.memo.for_analyzer(analyzer);
        let vocab = &mut self.vocab;
        let mut term_of = |pieces: &[&str], memo: &mut Memo| {
            let token = tokenize::fold(pieces, &mut memo.fold);
            analyzer
                .term(token, &mut memo.stem)
                .map_or(DROPPED, |term| vocab.intern(term))
        };
        let mut terms = std::mem::take(&mut self.ids);
        terms.clear();
        for word in tokenize::words(tokens.iter().copied()) {
            let pieces = &tokens[word.first..=word.last];
            let term = if word.first < word.last {
                term_of(pieces, memo)
            } else {
                let id = ids[word.first] as usize;
                if id >= memo.words.len() {
                    memo.words.resize(id + 1, UNSEEN);
                }
                if memo.words[id] == UNSEEN {
                    memo.words[id] = term_of(pieces, memo);
                }
                memo.words[id]
            };
            if term != DROPPED {
                terms.push(term);
            }
        }
        self.push_ids(terms)
    }

    /// Files the next document given the term id of each of its terms,
    /// in any order; returns its id. `ids` is kept for its capacity.
    fn push_ids(&mut self, mut ids: Vec<TermId>) -> DocId {
        let length = ids.len() as u32;
        ids.sort_unstable();
        let doc = self.push_document(
            ids.chunk_by(|a, b| a == b)
                .map(|run| (run[0], run.len() as u32)),
            length,
        );
        self.ids = ids;
        doc
    }

    /// Files the next document's `(term, f_dt)` pairs, in term order, its
    /// weight and its length; returns its id.
    fn push_document(
        &mut self,
        entries: impl Iterator<Item = (TermId, u32)>,
        length: u32,
    ) -> DocId {
        let doc = self.doc_lengths.len() as DocId;
        let first = self.postings.len();
        self.postings
            .extend(entries.map(|(term, f_dt)| (term, Posting { doc, f_dt })));
        self.weights.push(DocWeights::weight_from_freqs(
            self.postings[first..]
                .iter()
                .map(|(_, p)| u64::from(p.f_dt)),
        ));
        self.doc_lengths.push(length);
        doc
    }

    /// Finalizes the index, compressing all lists into one arena.
    pub fn build(self) -> InvertedIndex {
        // A stable counting sort by term keeps each term's postings in
        // document order.
        let terms = self.vocab.len();
        let mut starts = vec![0usize; terms + 1];
        for &(term, _) in &self.postings {
            starts[term as usize + 1] += 1;
        }
        for t in 0..terms {
            starts[t + 1] += starts[t];
        }
        let mut next = starts.clone();
        let mut sorted = vec![Posting { doc: 0, f_dt: 0 }; self.postings.len()];
        for &(term, posting) in &self.postings {
            sorted[next[term as usize]] = posting;
            next[term as usize] += 1;
        }
        drop(self.postings);
        // A γ-coded posting takes about a byte.
        let mut lists = ListsWriter::with_capacity(terms, sorted.len());
        for run in starts.windows(2) {
            for &posting in &sorted[run[0]..run[1]] {
                lists.put(posting);
            }
            lists.close();
        }
        InvertedIndex::from_merge_parts(self.vocab, lists.finish(), self.weights, self.doc_lengths)
    }
}

/// A complete compressed inverted index over one (sub)collection: the
/// structure a *librarian* owns.
///
/// It holds the vocabulary, every term's list in one arena of bytes with
/// a 12-byte head per term, the document weights and lengths: a handful
/// of allocations however many terms. A term's `f_t` is its list's
/// length, stored once.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    vocab: Vocabulary,
    lists: Lists,
    weights: DocWeights,
    doc_lengths: Vec<u32>,
    /// One slot per list, filled on the list's first `skip_cursor`; the
    /// slots are allocated on the index's first, so an index that only
    /// ever ranks pays nothing for them.
    skip_tables: OnceLock<Vec<OnceLock<SkipTable>>>,
}

impl InvertedIndex {
    /// Number of documents indexed.
    pub fn num_docs(&self) -> u64 {
        self.doc_lengths.len() as u64
    }

    /// The term dictionary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Collection statistics (`N`, per-term `f_t`), read from the lists.
    pub fn stats(&self) -> IndexStats<'_> {
        IndexStats {
            num_docs: self.num_docs(),
            lists: &self.lists,
        }
    }

    /// The document-weights table.
    pub fn weights(&self) -> &DocWeights {
        &self.weights
    }

    /// Term count of `doc` as indexed.
    pub fn doc_length(&self, doc: DocId) -> u32 {
        self.doc_lengths.get(doc as usize).copied().unwrap_or(0)
    }

    /// The compressed postings list of `term`.
    ///
    /// # Panics
    ///
    /// Panics if `term` is out of range.
    pub fn postings(&self, term: TermId) -> PostingsList<'_> {
        self.lists.get(term as usize).expect("term id out of range")
    }

    /// Assembles an index from its parts (used by the builder, by
    /// [`crate::merge`] and by the derived indexes, [`crate::grouped`]
    /// and [`crate::pruning`]).
    ///
    /// # Panics
    ///
    /// Panics if section lengths disagree.
    pub(crate) fn from_merge_parts(
        vocab: Vocabulary,
        lists: Lists,
        weights: DocWeights,
        doc_lengths: Vec<u32>,
    ) -> InvertedIndex {
        assert_eq!(vocab.len(), lists.len(), "vocab/postings mismatch");
        assert_eq!(
            weights.len(),
            doc_lengths.len(),
            "weights/doc-count mismatch"
        );
        InvertedIndex {
            vocab,
            lists,
            weights,
            doc_lengths,
            skip_tables: OnceLock::new(),
        }
    }

    /// A seeking cursor over `term`'s list. The list's skip table is
    /// built on its first cursor and kept; that needs only `&self`, so
    /// queries sharing one index may both build a table (one copy is
    /// kept) but never wait for each other.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::Corrupt`] if the list fails to decode while
    /// its table is built.
    pub fn skip_cursor(&self, term: TermId) -> Result<crate::skips::SkipCursor<'_>, IndexError> {
        let list = self.postings(term);
        let slots = self
            .skip_tables
            .get_or_init(|| (0..self.lists.len()).map(|_| OnceLock::new()).collect());
        let slot = &slots[term as usize];
        let table = match slot.get() {
            Some(table) => table,
            None => {
                let built = SkipTable::build(list, DEFAULT_SKIP_EVERY)?;
                slot.get_or_init(|| built)
            }
        };
        Ok(table.cursor(list))
    }

    /// True if `term`'s skip table has been built.
    pub fn has_skips(&self, term: TermId) -> bool {
        let slots = self.skip_tables.get();
        slots.is_some_and(|s| s[term as usize].get().is_some())
    }

    /// Total compressed postings size in bytes.
    pub fn postings_bytes(&self) -> usize {
        self.lists.byte_len()
    }

    /// Total index size in bytes: postings + vocabulary + weights (+ skip
    /// tables if built). This is the figure compared against the paper's
    /// "around 40 Mb" central index for a gigabyte of text.
    pub fn index_bytes(&self) -> usize {
        self.postings_bytes()
            + vocab::serialized_len(&self.vocab)
            + self.weights.serialized_len()
            + self.skip_tables.get().map_or(0, |slots| {
                slots
                    .iter()
                    .flat_map(OnceLock::get)
                    .map(SkipTable::byte_len)
                    .sum()
            })
    }

    /// The length of [`InvertedIndex::to_bytes`], by arithmetic: three
    /// length-prefixed sections (vocabulary, stats, weights), the
    /// document lengths and each list's 12-byte head and bytes.
    pub fn serialized_len(&self) -> usize {
        (4 + 4 + vocab::serialized_len(&self.vocab))
            + (4 + 12 + 8 * self.lists.len())
            + (4 + self.weights.serialized_len())
            + (4 + 4 * self.doc_lengths.len())
            + (4 + 12 * self.lists.len() + self.postings_bytes())
    }

    /// Serializes the full index (without skip tables, which are
    /// rebuilt): length-prefixed vocabulary, stats and weights sections,
    /// the document lengths, then each term's list head and bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut vocab = Vec::with_capacity(4 + vocab::serialized_len(&self.vocab));
        vocab::write(&self.vocab, &mut vocab);
        let mut stats = Vec::with_capacity(12 + 8 * self.lists.len());
        let doc_freqs = self.lists.iter().map(|list| u64::from(list.len()));
        stats::write(self.num_docs(), doc_freqs, &mut stats);
        let weights = self.weights.to_bytes();
        let mut out = Vec::with_capacity(self.serialized_len());
        for section in [&vocab, &stats, &weights] {
            out.extend_from_slice(&(section.len() as u32).to_le_bytes());
            out.extend_from_slice(section);
        }
        out.extend_from_slice(&(self.doc_lengths.len() as u32).to_le_bytes());
        for &len in &self.doc_lengths {
            out.extend_from_slice(&len.to_le_bytes());
        }
        out.extend_from_slice(&(self.lists.len() as u32).to_le_bytes());
        for list in self.lists.iter() {
            out.extend_from_slice(&list.len().to_le_bytes());
            out.extend_from_slice(&list.last_doc().to_le_bytes());
            out.extend_from_slice(&(list.byte_len() as u32).to_le_bytes());
            out.extend_from_slice(list.as_bytes());
        }
        out
    }

    /// Deserializes the form produced by [`InvertedIndex::to_bytes`], to
    /// its last byte.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::Corrupt`] on truncation, trailing bytes or
    /// inconsistency: among others, a count larger than the bytes left
    /// could hold, or a stats section whose `N`, term count or any `f_t`
    /// disagrees with the document lengths and the lists.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, IndexError> {
        let mut r = Reader::new(bytes, "index section truncated");
        let vocab = vocab::read(r.section()?)?;
        let stats = r.section()?;
        let weights = DocWeights::from_bytes(r.section()?)?;
        r.reading("document lengths truncated");
        let doc_count = r.u32()?;
        let doc_count = r.count(doc_count.into(), 4)?;
        let mut doc_lengths = Vec::with_capacity(doc_count);
        for _ in 0..doc_count {
            doc_lengths.push(r.u32()?);
        }
        if weights.len() != doc_count {
            return Err(IndexError::Corrupt("weights/document count mismatch"));
        }
        r.reading("postings truncated");
        let term_count = r.u32()?;
        if term_count as usize != vocab.len() {
            return Err(IndexError::Corrupt("postings/vocabulary length mismatch"));
        }
        // Each list takes at least its 12-byte head.
        let term_count = r.count(term_count.into(), 12)?;
        let mut lists = Lists::with_capacity(term_count, r.rest().len() - 12 * term_count);
        for _ in 0..term_count {
            let count = r.u32()?;
            let last_doc = r.u32()?;
            let byte_len = r.u32()?;
            lists.push_raw(r.take(byte_len.into())?, count, last_doc)?;
        }
        r.finish()?;
        stats::check(stats, doc_count, &lists)?;
        Ok(InvertedIndex::from_merge_parts(
            vocab,
            lists,
            weights,
            doc_lengths,
        ))
    }
}

#[cfg(test)]
impl InvertedIndex {
    /// This index with `weights` put in for its own.
    pub(crate) fn with_weights(mut self, weights: DocWeights) -> Self {
        assert_eq!(weights.len(), self.weights.len());
        self.weights = weights;
        self
    }
}

/// How the derived indexes (grouped, pruned) were built before they were
/// written list by list: through a builder whose vocabulary is `terms`,
/// interned first in that order, fed each document as `(term, f_dt)`
/// pairs that it interns again and sorts. Kept as their oracle.
#[cfg(test)]
pub(crate) fn built_from_freqs<'a>(
    terms: impl IntoIterator<Item = &'a str>,
    docs: &[Vec<(&str, u32)>],
) -> InvertedIndex {
    let mut b = IndexBuilder::new();
    for term in terms {
        b.vocab.intern(term);
    }
    for freqs in docs {
        let mut entries: Vec<(TermId, u32)> = Vec::with_capacity(freqs.len());
        let mut total = 0u64;
        for &(term, f) in freqs {
            assert!(f > 0, "frequencies must be positive");
            entries.push((b.vocab.intern(term), f));
            total += u64::from(f);
        }
        entries.sort_unstable_by_key(|&(t, _)| t);
        b.push_document(
            entries
                .chunk_by(|x, y| x.0 == y.0)
                .map(|run| (run[0].0, run.iter().map(|&(_, f)| f).sum())),
            total as u32,
        );
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(terms: &[&str]) -> Vec<String> {
        terms.iter().map(|s| (*s).to_owned()).collect()
    }

    fn small_index() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add_document(&doc(&["cat", "sat", "cat"]));
        b.add_document(&doc(&["dog", "sat"]));
        b.add_document(&doc(&["cat", "dog", "bird"]));
        b.build()
    }

    #[test]
    fn builder_assigns_sequential_ids() {
        let mut b = IndexBuilder::new();
        assert_eq!(b.add_document(&doc(&["a"])), 0);
        assert_eq!(b.add_document(&doc(&["b"])), 1);
        assert_eq!(b.doc_lengths.len(), 2);
    }

    #[test]
    fn postings_record_frequencies() {
        let index = small_index();
        let cat = index.vocab().term_id("cat").unwrap();
        let list = index.postings(cat);
        assert_eq!(list.len(), 2);
        assert_eq!(list.get(0), Some(2));
        assert_eq!(list.get(2), Some(1));
        assert_eq!(list.get(1), None);
    }

    #[test]
    fn stats_match_postings() {
        let index = small_index();
        assert_eq!(index.num_docs(), 3);
        for (term, _) in index.vocab().iter() {
            assert_eq!(
                index.stats().doc_freq(term),
                u64::from(index.postings(term).len()),
                "term {term}"
            );
        }
    }

    #[test]
    fn doc_weights_match_formula() {
        let index = small_index();
        // Doc 0: cat f=2, sat f=1 -> sqrt(ln(3)^2 + ln(2)^2).
        let expected = (3f64.ln().powi(2) + 2f64.ln().powi(2)).sqrt();
        assert!((index.weights().weight(0) - expected).abs() < 1e-12);
    }

    #[test]
    fn doc_lengths_are_recorded() {
        let index = small_index();
        assert_eq!(index.doc_length(0), 3);
        assert_eq!(index.doc_length(1), 2);
        assert_eq!(index.doc_length(99), 0);
    }

    #[test]
    fn empty_document_is_allowed() {
        let mut b = IndexBuilder::new();
        b.add_document(&doc(&[]));
        b.add_document(&doc(&["x"]));
        let index = b.build();
        assert_eq!(index.num_docs(), 2);
        assert_eq!(index.weights().weight(0), 0.0);
    }

    #[test]
    fn empty_index_builds() {
        let index = IndexBuilder::new().build();
        assert_eq!(index.num_docs(), 0);
        // Only fixed headers (e.g. the weights table's count field).
        assert!(index.index_bytes() <= 8, "got {}", index.index_bytes());
        let rt = InvertedIndex::from_bytes(&index.to_bytes()).unwrap();
        assert_eq!(rt.num_docs(), 0);
    }

    /// The arithmetic length is the serialized length, for a built, a
    /// merged, a loaded and an empty index.
    #[test]
    fn serialized_len_is_the_length_of_to_bytes() {
        let built = small_index();
        let mut b = IndexBuilder::new();
        b.add_document(&doc(&["cat", "newt", "newt"]));
        b.add_document(&doc(&[]));
        let merged = crate::merge::merge(&built, &[b.build()]).unwrap();
        let loaded = InvertedIndex::from_bytes(&merged.to_bytes()).unwrap();
        let empty = IndexBuilder::new().build();
        for (case, index) in [
            ("built", built),
            ("merged", merged),
            ("loaded", loaded),
            ("empty", empty),
        ] {
            assert_eq!(index.serialized_len(), index.to_bytes().len(), "{case}");
        }
    }

    #[test]
    fn serialization_roundtrips() {
        let index = small_index();
        let bytes = index.to_bytes();
        let rt = InvertedIndex::from_bytes(&bytes).unwrap();
        assert_eq!(rt.num_docs(), index.num_docs());
        assert_eq!(rt.vocab().len(), index.vocab().len());
        for (term, name) in index.vocab().iter() {
            let rt_term = rt.vocab().term_id(name).unwrap();
            assert_eq!(
                rt.postings(rt_term).decode().unwrap(),
                index.postings(term).decode().unwrap()
            );
            assert_eq!(rt.stats().doc_freq(rt_term), index.stats().doc_freq(term));
        }
        for d in 0..index.num_docs() as DocId {
            assert_eq!(rt.weights().weight(d), index.weights().weight(d));
            assert_eq!(rt.doc_length(d), index.doc_length(d));
        }
    }

    #[test]
    fn deserialization_rejects_truncation() {
        let bytes = small_index().to_bytes();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                InvertedIndex::from_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    /// The serialized index of no documents and no terms, up to the
    /// document-length count: empty vocabulary, stats and weights.
    fn empty_sections() -> Vec<u8> {
        let mut bytes = Vec::new();
        for section in [&0u32.to_le_bytes()[..], &[0; 12], &0u32.to_le_bytes()] {
            bytes.extend_from_slice(&(section.len() as u32).to_le_bytes());
            bytes.extend_from_slice(section);
        }
        bytes
    }

    #[test]
    fn a_document_count_beyond_the_bytes_is_corrupt_not_an_abort() {
        // 36 bytes claiming u32::MAX document lengths.
        let mut bytes = empty_sections();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(bytes.len(), 36);
        assert_eq!(
            InvertedIndex::from_bytes(&bytes).err(),
            Some(IndexError::Corrupt("document lengths truncated"))
        );
    }

    #[test]
    fn a_stats_term_count_beyond_the_bytes_is_corrupt_not_an_abort() {
        // An empty vocabulary, then a 12-byte stats section claiming
        // u32::MAX terms, and nothing after it.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&12u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(bytes.len(), 24);
        assert!(InvertedIndex::from_bytes(&bytes).is_err());
        // The same section in front of well-formed empty weights and
        // lengths reaches the stats check itself.
        let mut bytes = empty_sections();
        bytes[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0; 8]);
        assert_eq!(
            InvertedIndex::from_bytes(&bytes).err(),
            Some(IndexError::Corrupt("stats term count disagrees"))
        );
    }

    #[test]
    fn a_weights_count_beyond_the_bytes_is_corrupt_not_an_abort() {
        let mut bytes = empty_sections();
        let weights = bytes.len() - 4;
        bytes[weights..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            InvertedIndex::from_bytes(&bytes).err(),
            Some(IndexError::Corrupt("weights truncated"))
        );
    }

    #[test]
    fn a_section_holding_a_byte_past_its_contents_is_corrupt() {
        let bytes = small_index().to_bytes();
        let mut r = Reader::new(&bytes, "index");
        // The vocabulary, stats and weights sections, each at its length.
        for _ in 0..3 {
            let at = bytes.len() - r.rest().len();
            let len = r.section().unwrap().len();
            let mut edited = bytes.clone();
            edited.insert(at + 4 + len, 0);
            edited[at..at + 4].copy_from_slice(&(len as u32 + 1).to_le_bytes());
            assert_eq!(
                InvertedIndex::from_bytes(&edited).err(),
                Some(IndexError::Corrupt("trailing bytes")),
                "section at {at}"
            );
        }
    }

    #[test]
    fn stats_that_disagree_with_the_lists_are_corrupt() {
        let index = small_index();
        let bytes = index.to_bytes();
        // The stats section follows the vocabulary section: its length,
        // N, the term count, then one f_t per term.
        let vocab_len = Reader::new(&bytes, "index").u32().unwrap() as usize;
        let stats = 4 + vocab_len + 4;
        let first_f_t = stats + 12;
        let cat = index.vocab().term_id("cat").unwrap() as usize;
        let at = first_f_t + 8 * cat;
        assert_eq!(bytes[at..at + 8], 2u64.to_le_bytes());
        let mut edited = bytes.clone();
        edited[at] = 3;
        assert_eq!(
            InvertedIndex::from_bytes(&edited).err(),
            Some(IndexError::Corrupt("f_t disagrees with its list"))
        );
        let mut edited = bytes.clone();
        edited[stats] = 4;
        assert_eq!(
            InvertedIndex::from_bytes(&edited).err(),
            Some(IndexError::Corrupt("stats document count disagrees"))
        );
        let mut edited = bytes;
        edited[stats + 8] += 1;
        assert_eq!(
            InvertedIndex::from_bytes(&edited).err(),
            Some(IndexError::Corrupt("stats term count disagrees"))
        );
    }

    #[test]
    fn skip_cursor_agrees_with_postings() {
        let index = small_index();
        let sat = index.vocab().term_id("sat").unwrap();
        let expected = index.postings(sat).decode().unwrap();
        assert!(!index.has_skips(sat));
        let mut cursor = index.skip_cursor(sat).unwrap();
        for p in expected {
            assert_eq!(cursor.frequency_of(p.doc).unwrap(), Some(p.f_dt));
        }
        // Only the list that was sought in has a table.
        for (term, _) in index.vocab().iter() {
            assert_eq!(index.has_skips(term), term == sat, "term {term}");
        }
    }

    #[test]
    fn index_bytes_counts_all_sections() {
        let index = small_index();
        let without_skips = index.index_bytes();
        assert!(without_skips > 0);
        let sat = index.vocab().term_id("sat").unwrap();
        index.skip_cursor(sat).unwrap();
        assert!(index.index_bytes() > without_skips);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        fn build_then_serialize_roundtrips(
            docs in proptest::collection::vec(
                proptest::collection::vec("[a-e]{1,3}", 0..20),
                0..30,
            ),
        ) {
            let mut b = IndexBuilder::new();
            for terms in &docs {
                b.add_document(terms);
            }
            let index = b.build();
            prop_assert_eq!(index.num_docs(), docs.len() as u64);
            let rt = InvertedIndex::from_bytes(&index.to_bytes()).unwrap();
            prop_assert_eq!(rt.num_docs(), index.num_docs());
            for (term, name) in index.vocab().iter() {
                let rt_term = rt.vocab().term_id(name).unwrap();
                prop_assert_eq!(
                    rt.postings(rt_term).decode().unwrap(),
                    index.postings(term).decode().unwrap()
                );
            }
        }

        fn doc_freq_equals_distinct_docs_containing_term(
            docs in proptest::collection::vec(
                proptest::collection::vec("[a-c]{1,2}", 0..10),
                1..20,
            ),
        ) {
            let mut b = IndexBuilder::new();
            for terms in &docs {
                b.add_document(terms);
            }
            let index = b.build();
            for (term, name) in index.vocab().iter() {
                let expected = docs
                    .iter()
                    .filter(|d| d.iter().any(|t| t == name))
                    .count() as u64;
                prop_assert_eq!(index.stats().doc_freq(term), expected);
            }
        }
    }
}
