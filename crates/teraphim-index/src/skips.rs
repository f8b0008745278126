//! Self-indexing inverted lists (Moffat & Zobel, TOIS 1996).
//!
//! A *self-indexing* list embeds periodic synchronisation points: every
//! `skip_every` postings we record where the list's decoder stands — the
//! bit offset of the next posting, how many postings are left and the
//! smallest document id the next may carry. A cursor can then answer "what is
//! `f_dt` for document `d`?" by putting the decoder back at the sync
//! point whose block could contain `d` and decoding at most `skip_every`
//! postings, instead of decoding the whole list. Every posting is read by
//! [`crate::postings::Iter`], the decoder full-list ranking uses, so a
//! skipped list is checked as a scanned one is.
//!
//! This is what makes the Central Index methodology cheap at the
//! librarians: the receptionist sends a small *candidate set* of
//! documents (the expanded groups) and each librarian scores exactly
//! those, skipping the rest of its lists. The paper's analysis predicts
//! a ≥2× CPU reduction for small `k'`; the `skipping` table binary counts
//! the postings decoded and the `rank_kernel` example times them.
//!
//! A list's table is built on its first cursor and kept beside the index
//! ([`crate::InvertedIndex::skip_cursor`]); one skip arena per index,
//! built with its postings, is still to come.

use crate::postings::{Iter, Position, Posting, PostingsList};
use crate::{DocId, IndexError};

/// Default skip interval; MG uses intervals in this range for TREC-scale
/// lists.
pub const DEFAULT_SKIP_EVERY: u32 = 32;

/// A skip table over a [`PostingsList`], enabling sub-linear candidate
/// lookup: the decoder's position at the start of every block.
///
/// The table is built from (and stored alongside) the unmodified
/// compressed list, so a collection can serve both full-scan ranking and
/// candidate-restricted scoring from one structure.
#[derive(Debug, Clone)]
pub struct SkipTable {
    skips: Vec<Position>,
}

impl SkipTable {
    /// Builds a skip table with sync points every `skip_every` postings.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::Corrupt`] if the list fails to decode.
    ///
    /// # Panics
    ///
    /// Panics if `skip_every == 0`.
    pub fn build(list: PostingsList<'_>, skip_every: u32) -> Result<Self, IndexError> {
        assert!(skip_every > 0, "skip interval must be positive");
        let mut postings = list.iter();
        let mut skips = Vec::new();
        for i in 0..list.len() {
            if i % skip_every == 0 {
                // A posting follows, and none can follow id `u32::MAX`.
                let at = postings.position();
                skips.push(at.ok_or(IndexError::Corrupt("document id overflows"))?);
            }
            if let Some(Err(corrupt)) = postings.next() {
                return Err(corrupt);
            }
        }
        Ok(SkipTable { skips })
    }

    /// Approximate size of the table in bytes (for index-size
    /// accounting).
    pub fn byte_len(&self) -> usize {
        // smallest next document (4) + bit offset (stored compressed in
        // practice; we charge 4) + postings left (4)
        self.skips.len() * 12
    }

    /// Creates a seeking cursor over `list` (which must be the list the
    /// table was built from).
    pub fn cursor<'a>(&'a self, list: PostingsList<'a>) -> SkipCursor<'a> {
        SkipCursor {
            table: self,
            postings: list.iter(),
            current: None,
            decoded: 0,
        }
    }
}

/// A forward-only seeking cursor over a skipped postings list.
///
/// `seek(d)` positions the cursor at the first posting with `doc ≥ d`
/// using the skip table, decoding only inside the relevant block.
/// Candidates must be probed in increasing document order.
#[derive(Debug, Clone)]
pub struct SkipCursor<'a> {
    table: &'a SkipTable,
    postings: Iter<'a>,
    /// The most recently decoded posting, if it has not been surpassed.
    current: Option<Posting>,
    /// Number of postings decoded so far (instrumentation for the CPU
    /// cost model and the skipping experiment).
    decoded: u64,
}

impl SkipCursor<'_> {
    /// Number of postings decoded so far.
    pub fn decoded(&self) -> u64 {
        self.decoded
    }

    /// Advances to the first posting with `doc ≥ target` and returns it,
    /// or `None` if the list is exhausted below `target`.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::Corrupt`] on a malformed stream.
    pub fn seek(&mut self, target: DocId) -> Result<Option<Posting>, IndexError> {
        // If the cursor already sits at or beyond the target, the current
        // posting is the answer (targets are probed in non-decreasing
        // order, so anything the cursor passed can no longer be asked
        // for).
        if let Some(cur) = self.current {
            if cur.doc >= target {
                return Ok(Some(cur));
            }
        }
        // Jump to the last sync point whose block may start at or below
        // the target, if it is ahead of the cursor.
        let blocks = self.table.skips.partition_point(|at| at.next_min <= target);
        if let Some(&at) = blocks.checked_sub(1).map(|last| &self.table.skips[last]) {
            if (at.remaining as usize) < self.postings.len() {
                self.postings.restore(at)?;
                self.current = None;
            }
        }
        // Linear decode within the block.
        for posting in &mut self.postings {
            let posting = posting?;
            self.decoded += 1;
            if posting.doc >= target {
                self.current = Some(posting);
                return Ok(Some(posting));
            }
        }
        self.current = None;
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postings::Lists;

    impl SkipCursor<'_> {
        /// The frequency of exactly `target`, if present.
        pub(crate) fn frequency_of(&mut self, target: DocId) -> Result<Option<u32>, IndexError> {
            Ok(self
                .seek(target)?
                .and_then(|p| (p.doc == target).then_some(p.f_dt)))
        }
    }

    fn make_list(docs: &[(DocId, u32)]) -> Lists {
        let postings: Vec<Posting> = docs
            .iter()
            .map(|&(doc, f_dt)| Posting { doc, f_dt })
            .collect();
        Lists::of(&postings)
    }

    #[test]
    fn a_sync_point_takes_16_bytes() {
        assert_eq!(std::mem::size_of::<Position>(), 16);
    }

    #[test]
    fn seek_finds_every_posting() {
        let docs: Vec<(DocId, u32)> = (0..200).map(|i| (i * 3, i % 5 + 1)).collect();
        let lists = make_list(&docs);
        let list = lists.get(0).unwrap();
        let table = SkipTable::build(list, 16).unwrap();
        let mut cursor = table.cursor(list);
        for &(doc, f_dt) in &docs {
            assert_eq!(cursor.frequency_of(doc).unwrap(), Some(f_dt), "doc {doc}");
        }
    }

    #[test]
    fn seek_misses_absent_docs() {
        let lists = make_list(&[(10, 1), (20, 2), (30, 3)]);
        let list = lists.get(0).unwrap();
        let table = SkipTable::build(list, 2).unwrap();
        let mut cursor = table.cursor(list);
        assert_eq!(cursor.frequency_of(5).unwrap(), None);
        assert_eq!(cursor.frequency_of(15).unwrap(), None);
        assert_eq!(cursor.frequency_of(20).unwrap(), Some(2));
        assert_eq!(cursor.frequency_of(99).unwrap(), None);
    }

    #[test]
    fn seek_beyond_end_returns_none() {
        let lists = make_list(&[(1, 1)]);
        let list = lists.get(0).unwrap();
        let table = SkipTable::build(list, 4).unwrap();
        let mut cursor = table.cursor(list);
        assert_eq!(cursor.seek(50).unwrap(), None);
        // Subsequent seeks stay at None.
        assert_eq!(cursor.seek(60).unwrap(), None);
    }

    #[test]
    fn empty_list_cursor() {
        let lists = make_list(&[]);
        let list = lists.get(0).unwrap();
        let table = SkipTable::build(list, 4).unwrap();
        assert!(table.skips.is_empty());
        let mut cursor = table.cursor(list);
        assert_eq!(cursor.seek(0).unwrap(), None);
    }

    #[test]
    fn skipping_decodes_fewer_postings_than_full_scan() {
        let docs: Vec<(DocId, u32)> = (0..10_000).map(|i| (i, 1)).collect();
        let lists = make_list(&docs);
        let list = lists.get(0).unwrap();
        let table = SkipTable::build(list, 64).unwrap();
        let mut cursor = table.cursor(list);
        // Probe 10 widely spaced candidates.
        for target in (0..10).map(|i| i * 1000) {
            cursor.frequency_of(target).unwrap();
        }
        assert!(
            cursor.decoded() < 10 * 64 + 64,
            "decoded {} postings",
            cursor.decoded()
        );
        assert!(cursor.decoded() < 10_000 / 4, "should beat full scan");
    }

    #[test]
    fn skip_table_size_scales_with_interval() {
        let docs: Vec<(DocId, u32)> = (0..1000).map(|i| (i, 1)).collect();
        let lists = make_list(&docs);
        let list = lists.get(0).unwrap();
        let fine = SkipTable::build(list, 8).unwrap();
        let coarse = SkipTable::build(list, 128).unwrap();
        assert!(fine.skips.len() > coarse.skips.len());
        assert_eq!(fine.skips.len(), 125);
        assert_eq!(coarse.skips.len(), 8);
        assert!(fine.byte_len() > coarse.byte_len());
    }

    #[test]
    fn seek_same_target_twice_is_stable() {
        let lists = make_list(&[(5, 2), (10, 3)]);
        let list = lists.get(0).unwrap();
        let table = SkipTable::build(list, 1).unwrap();
        let mut cursor = table.cursor(list);
        assert_eq!(cursor.seek(7).unwrap(), Some(Posting { doc: 10, f_dt: 3 }));
        assert_eq!(cursor.seek(7).unwrap(), Some(Posting { doc: 10, f_dt: 3 }));
        assert_eq!(cursor.seek(10).unwrap(), Some(Posting { doc: 10, f_dt: 3 }));
    }

    #[test]
    fn doc_zero_is_seekable() {
        let lists = make_list(&[(0, 4), (9, 1)]);
        let list = lists.get(0).unwrap();
        let table = SkipTable::build(list, 2).unwrap();
        let mut cursor = table.cursor(list);
        assert_eq!(cursor.frequency_of(0).unwrap(), Some(4));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::postings::Lists;
    use proptest::prelude::*;

    /// The postings a cursor decodes, stated over the list's documents:
    /// a sync point every `skip_every` postings keyed by the document
    /// before it (0 for the first), a jump to the last one below the
    /// target when it lies ahead, then a posting at a time.
    struct BlockModel {
        next: usize,
        current: Option<usize>,
        decoded: u64,
    }

    impl BlockModel {
        fn seek(&mut self, docs: &[DocId], skip_every: usize, target: DocId) {
            if self.current.is_some_and(|c| docs[c] >= target) {
                return;
            }
            let before = |block: usize| {
                if block == 0 {
                    0
                } else {
                    docs[block * skip_every - 1]
                }
            };
            let blocks = (0..docs.len().div_ceil(skip_every)).take_while(|&b| before(b) < target);
            if let Some(block) = blocks.last() {
                self.next = self.next.max(block * skip_every);
            }
            self.current = None;
            while self.next < docs.len() {
                self.decoded += 1;
                self.next += 1;
                if docs[self.next - 1] >= target {
                    self.current = Some(self.next - 1);
                    return;
                }
            }
        }
    }

    proptest! {
        #[test]
        fn cursor_agrees_with_full_decode(
            raw in proptest::collection::vec((0u32..100_000, 1u32..100), 1..200),
            probes in proptest::collection::vec(0u32..100_000, 1..50),
            // Probes next to postings: one before, at and one after.
            near in proptest::collection::vec((0usize..1000, 0u32..3), 0..50),
            skip_every in 1u32..64,
        ) {
            let mut docs: Vec<(DocId, u32)> = raw;
            docs.sort_by_key(|&(d, _)| d);
            docs.dedup_by_key(|&mut (d, _)| d);
            let postings: Vec<Posting> =
                docs.iter().map(|&(doc, f_dt)| Posting { doc, f_dt }).collect();
            let lists = Lists::of(&postings);
            let list = lists.get(0).unwrap();
            let table = SkipTable::build(list, skip_every).unwrap();
            let mut cursor = table.cursor(list);
            let ids: Vec<DocId> = postings.iter().map(|p| p.doc).collect();
            let mut model = BlockModel { next: 0, current: None, decoded: 0 };
            let mut sorted_probes = probes;
            sorted_probes.extend(near.iter().map(|&(i, off)| (ids[i % ids.len()] + off).saturating_sub(1)));
            sorted_probes.sort_unstable();
            for probe in sorted_probes {
                let expected = postings.iter().find(|p| p.doc == probe).map(|p| p.f_dt);
                prop_assert_eq!(cursor.frequency_of(probe).unwrap(), expected);
                model.seek(&ids, skip_every as usize, probe);
                prop_assert_eq!(cursor.decoded(), model.decoded, "probe {}", probe);
            }
        }
    }
}
