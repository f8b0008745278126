//! Collection-wide statistics.
//!
//! The similarity heuristic needs two collection-dependent parameters:
//! the number of documents `N` and, per term, the number of documents
//! `f_t` containing it. The distributed methodologies differ precisely in
//! *which* collection these are measured over:
//!
//! * **CN** — each librarian uses its own local `N` and `f_t`
//!   ([`IndexStats`], read from its index: a term's `f_t` is its
//!   list's length);
//! * **CV** — the receptionist merges per-subcollection statistics with
//!   [`merge_stats`] and ships global query weights;
//! * **CI** — the receptionist's grouped central index carries the global
//!   statistics directly.

use crate::postings::Lists;
use crate::vocab::Vocabulary;
use crate::{IndexError, InvertedIndex, TermId};
use teraphim_compress::bytes::Reader;

/// `N` and per-term `f_t` of one index, read from its lists: a term's
/// `f_t` is its list's length, stored once. Returned by
/// [`InvertedIndex::stats`].
#[derive(Debug, Clone, Copy)]
pub struct IndexStats<'a> {
    pub(crate) num_docs: u64,
    pub(crate) lists: &'a Lists,
}

impl IndexStats<'_> {
    /// Number of documents `N`.
    pub fn num_docs(&self) -> u64 {
        self.num_docs
    }

    /// Document frequency `f_t` of `term` (0 if unknown).
    pub fn doc_freq(&self, term: TermId) -> u64 {
        self.lists
            .get(term as usize)
            .map_or(0, |list| u64::from(list.len()))
    }
}

/// Document count and per-term document frequencies merged over
/// collections (or received from them).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CollectionStats {
    num_docs: u64,
    /// Indexed by [`TermId`]; `doc_freq[t]` = `f_t`.
    doc_freq: Vec<u64>,
}

impl CollectionStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of documents `N`.
    pub fn num_docs(&self) -> u64 {
        self.num_docs
    }

    /// Sets the document count.
    pub fn set_num_docs(&mut self, n: u64) {
        self.num_docs = n;
    }

    /// Document frequency `f_t` of `term` (0 if unknown).
    pub fn doc_freq(&self, term: TermId) -> u64 {
        self.doc_freq.get(term as usize).copied().unwrap_or(0)
    }

    /// Adds `count` to `f_t` for `term`, growing the table as needed.
    pub fn add_doc_freq(&mut self, term: TermId, count: u64) {
        let idx = term as usize;
        if idx >= self.doc_freq.len() {
            self.doc_freq.resize(idx + 1, 0);
        }
        self.doc_freq[idx] += count;
    }

    /// Serializes to bytes: `N` as a `u64`, a `u32` term count, then
    /// each `f_t` as a `u64` — the stats section of a serialized index
    /// (the vocabulary is serialized separately).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.doc_freq.len() * 8);
        write(self.num_docs, self.doc_freq.iter().copied(), &mut out);
        out
    }
}

/// Appends a stats section: `num_docs`, then the count and values of
/// `doc_freqs`.
pub(crate) fn write(
    num_docs: u64,
    doc_freqs: impl ExactSizeIterator<Item = u64>,
    out: &mut Vec<u8>,
) {
    out.extend_from_slice(&num_docs.to_le_bytes());
    out.extend_from_slice(&(doc_freqs.len() as u32).to_le_bytes());
    for f in doc_freqs {
        out.extend_from_slice(&f.to_le_bytes());
    }
}

/// Checks a serialized index's stats section, to its last byte, against
/// what it describes: `num_docs` documents and `lists`, whose lengths are
/// the `f_t`.
///
/// # Errors
///
/// Returns [`IndexError::Corrupt`] if the section is truncated, has
/// trailing bytes, or its `N`, term count or any `f_t` disagrees.
pub(crate) fn check(section: &[u8], num_docs: usize, lists: &Lists) -> Result<(), IndexError> {
    let mut r = Reader::new(section, "stats truncated");
    if r.u64()? != num_docs as u64 {
        return Err(IndexError::Corrupt("stats document count disagrees"));
    }
    if r.u32()? as usize != lists.len() {
        return Err(IndexError::Corrupt("stats term count disagrees"));
    }
    for list in lists.iter() {
        if r.u64()? != u64::from(list.len()) {
            return Err(IndexError::Corrupt("f_t disagrees with its list"));
        }
    }
    Ok(r.finish()?)
}

/// Merges per-subcollection vocabularies and statistics into a global
/// vocabulary and global statistics — the preprocessing step of the
/// Central Vocabulary methodology.
///
/// Returns the merged vocabulary and, for each input part, a mapping from
/// its local term ids to global term ids.
pub fn merge_stats(parts: &[&InvertedIndex]) -> (Vocabulary, CollectionStats, Vec<Vec<TermId>>) {
    let mut global_vocab = Vocabulary::new();
    let mut global = CollectionStats::new();
    let mut mappings = Vec::with_capacity(parts.len());
    let mut total_docs = 0u64;
    for part in parts {
        let (vocab, stats) = (part.vocab(), part.stats());
        total_docs += stats.num_docs();
        let mut mapping = Vec::with_capacity(vocab.len());
        for (local_id, term) in vocab.iter() {
            let global_id = global_vocab.intern(term);
            mapping.push(global_id);
            global.add_doc_freq(global_id, stats.doc_freq(local_id));
        }
        mappings.push(mapping);
    }
    global.set_num_docs(total_docs);
    (global_vocab, global, mappings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexBuilder;

    fn index_of(docs: &[&[&str]]) -> InvertedIndex {
        let mut b = IndexBuilder::new();
        for d in docs {
            b.add_document(d);
        }
        b.build()
    }

    #[test]
    fn add_and_query() {
        let mut s = CollectionStats::new();
        s.add_doc_freq(3, 2);
        s.add_doc_freq(0, 1);
        s.add_doc_freq(3, 1);
        assert_eq!(s.doc_freq(3), 3);
        assert_eq!(s.doc_freq(0), 1);
        assert_eq!(s.doc_freq(1), 0);
        assert_eq!(s.doc_freq(99), 0);
    }

    #[test]
    fn serialized_layout() {
        let mut s = CollectionStats::new();
        s.set_num_docs(43);
        s.add_doc_freq(0, 1);
        s.add_doc_freq(2, 7);
        let mut expected = 43u64.to_le_bytes().to_vec();
        expected.extend_from_slice(&3u32.to_le_bytes());
        for f in [1u64, 0, 7] {
            expected.extend_from_slice(&f.to_le_bytes());
        }
        assert_eq!(s.to_bytes(), expected);
    }

    #[test]
    fn index_stats_read_the_lists() {
        let ix = index_of(&[&["a", "b"], &["a"], &["c", "a"]]);
        let stats = ix.stats();
        assert_eq!(stats.num_docs(), 3);
        for (term, f_t) in [("a", 3), ("b", 1), ("c", 1)] {
            assert_eq!(stats.doc_freq(ix.vocab().term_id(term).unwrap()), f_t);
        }
        assert_eq!(stats.doc_freq(99), 0);
    }

    #[test]
    fn merge_combines_frequencies_of_shared_terms() {
        let a = index_of(&[
            &["alpha", "beta"],
            &["alpha"],
            &["alpha", "beta"],
            &["alpha"],
        ]);
        let b = index_of(&[&["beta", "gamma"], &["beta"], &["beta"]]);

        let (gv, gs, mappings) = merge_stats(&[&a, &b]);
        assert_eq!(gs.num_docs(), 7);
        assert_eq!(gv.len(), 3);
        let beta = gv.term_id("beta").unwrap();
        assert_eq!(gs.doc_freq(beta), 5);
        let alpha = gv.term_id("alpha").unwrap();
        assert_eq!(gs.doc_freq(alpha), 4);
        let gamma = gv.term_id("gamma").unwrap();
        assert_eq!(gs.doc_freq(gamma), 1);
        // Mappings translate local ids to global ids.
        assert_eq!(
            mappings[0][a.vocab().term_id("beta").unwrap() as usize],
            beta
        );
        assert_eq!(
            mappings[1][b.vocab().term_id("beta").unwrap() as usize],
            beta
        );
    }

    #[test]
    fn merge_of_nothing_is_empty() {
        let (gv, gs, mappings) = merge_stats(&[]);
        assert!(gv.is_empty());
        assert_eq!(gs.num_docs(), 0);
        assert!(mappings.is_empty());
    }

    #[test]
    fn merge_single_part_is_identity() {
        let ix = index_of(&[&["x", "y"], &["z", "y"], &["z"]]);
        let (gv, gs, mappings) = merge_stats(&[&ix]);
        assert_eq!(gv.len(), 3);
        assert_eq!(gs.num_docs(), 3);
        for (id, term) in ix.vocab().iter() {
            let global = mappings[0][id as usize];
            assert_eq!(gs.doc_freq(global), ix.stats().doc_freq(id));
            assert_eq!(gv.term(global), term);
        }
    }
}
