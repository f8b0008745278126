//! Self-indexing inverted lists (Moffat & Zobel, TOIS 1996).
//!
//! A *self-indexing* list embeds periodic synchronisation points — every
//! `skip_every` postings we record the absolute document id of the
//! preceding posting and the bit offset of the next one. A cursor can
//! then answer "what is `f_dt` for document `d`?" by jumping to the
//! sync point whose block could contain `d` and decoding at most
//! `skip_every` postings, instead of decoding the whole list.
//!
//! This is what makes the Central Index methodology cheap at the
//! librarians: the receptionist sends a small *candidate set* of
//! documents (the expanded groups) and each librarian scores exactly
//! those, skipping the rest of its lists. The paper's analysis predicts
//! a ≥2× CPU reduction for small `k'`; the `skipping` bench measures it.

use crate::postings::{Posting, PostingsList};
use crate::{DocId, IndexError};
use teraphim_compress::bitio::BitReader;
use teraphim_compress::codes::read_gamma;

/// Default skip interval; MG uses intervals in this range for TREC-scale
/// lists.
pub const DEFAULT_SKIP_EVERY: u32 = 32;

/// One synchronisation point in a skipped list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SkipEntry {
    /// Document id of the last posting *before* this block (the d-gap
    /// base for the block's first posting).
    prev_doc: DocId,
    /// Bit offset of the block's first posting in the compressed stream.
    bit_offset: u64,
    /// Index of the block's first posting.
    posting_index: u32,
}

/// A skip table over a [`PostingsList`], enabling sub-linear candidate
/// lookup.
///
/// The table is built from (and stored alongside) the unmodified
/// compressed list, so a collection can serve both full-scan ranking and
/// candidate-restricted scoring from one structure.
#[derive(Debug, Clone)]
pub struct SkipTable {
    skips: Vec<SkipEntry>,
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
        let bytes = list.as_bytes();
        let mut reader = BitReader::new(bytes);
        let mut skips = Vec::new();
        let mut prev_doc: DocId = 0;
        let mut first = true;
        for i in 0..list.len() {
            if i % skip_every == 0 {
                skips.push(SkipEntry {
                    prev_doc: if first { 0 } else { prev_doc },
                    bit_offset: reader.bit_pos(),
                    posting_index: i,
                });
            }
            let gap = read_gamma(&mut reader)?;
            let _f_dt = read_gamma(&mut reader)?;
            prev_doc = if first {
                first = false;
                (gap - 1) as DocId
            } else {
                prev_doc + gap as DocId
            };
        }
        Ok(SkipTable { skips })
    }

    /// Approximate size of the table in bytes (for index-size
    /// accounting).
    pub fn byte_len(&self) -> usize {
        // doc id (4) + bit offset (stored compressed in practice; we
        // charge 4) + index (4)
        self.skips.len() * 12
    }

    /// Creates a seeking cursor over `list` (which must be the list the
    /// table was built from).
    pub fn cursor<'a>(&'a self, list: PostingsList<'a>) -> SkipCursor<'a> {
        SkipCursor {
            table: self,
            list,
            reader: BitReader::new(list.as_bytes()),
            next_index: 0,
            prev_doc: 0,
            first: true,
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
    list: PostingsList<'a>,
    reader: BitReader<'a>,
    /// Index of the next posting to decode.
    next_index: u32,
    prev_doc: DocId,
    first: bool,
    /// The most recently decoded posting, if it has not been surpassed.
    current: Option<Posting>,
    /// Number of postings decoded so far (instrumentation for the CPU
    /// cost model and the skipping experiment).
    decoded: u64,
}

impl<'a> SkipCursor<'a> {
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
    ///
    /// # Panics
    ///
    /// Panics in debug builds if targets are probed in decreasing order.
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
        // Jump via the skip table: find the last sync point whose
        // prev_doc < target and which is ahead of our position.
        let candidate_blocks = self
            .table
            .skips
            .partition_point(|entry| entry.prev_doc < target);
        if candidate_blocks > 0 {
            let entry = self.table.skips[candidate_blocks - 1];
            if entry.posting_index > self.next_index {
                self.reader
                    .seek_to_bit(entry.bit_offset)
                    .map_err(|_| IndexError::Corrupt("skip offset out of range"))?;
                self.next_index = entry.posting_index;
                self.prev_doc = entry.prev_doc;
                self.first = entry.posting_index == 0;
                self.current = None;
            }
        }
        // Linear decode within the block.
        loop {
            if self.next_index >= self.list.len() {
                self.current = None;
                return Ok(None);
            }
            let gap = read_gamma(&mut self.reader)?;
            let f_dt = read_gamma(&mut self.reader)?;
            self.decoded += 1;
            let doc = if self.first {
                self.first = false;
                (gap.checked_sub(1))
                    .and_then(|d| u32::try_from(d).ok())
                    .ok_or(IndexError::Corrupt("first document id overflows"))?
            } else {
                u64::from(self.prev_doc)
                    .checked_add(gap)
                    .and_then(|d| u32::try_from(d).ok())
                    .ok_or(IndexError::Corrupt("document id overflows"))?
            };
            self.prev_doc = doc;
            self.next_index += 1;
            if doc >= target {
                let posting = Posting {
                    doc,
                    f_dt: u32::try_from(f_dt)
                        .map_err(|_| IndexError::Corrupt("frequency overflows u32"))?,
                };
                self.current = Some(posting);
                return Ok(Some(posting));
            }
        }
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

    proptest! {
        #[test]
        fn cursor_agrees_with_full_decode(
            raw in proptest::collection::vec((0u32..100_000, 1u32..100), 1..200),
            probes in proptest::collection::vec(0u32..100_000, 1..50),
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
            let mut sorted_probes = probes;
            sorted_probes.sort_unstable();
            for probe in sorted_probes {
                let expected = postings.iter().find(|p| p.doc == probe).map(|p| p.f_dt);
                prop_assert_eq!(cursor.frequency_of(probe).unwrap(), expected);
            }
        }
    }
}
