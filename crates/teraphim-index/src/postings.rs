//! Compressed postings lists.
//!
//! Each inverted list stores `(d-gap, f_dt)` pairs, both Elias-γ coded.
//! D-gaps are differences between consecutive document numbers (always
//! ≥ 1 because lists are strictly increasing); `f_dt ≥ 1` by definition.
//! With γ coding, common terms (small gaps) and rare terms (few entries)
//! both compress well, giving the "10% or less of the volume of the
//! text" the paper quotes for modern compressed indexes.

use crate::{DocId, IndexError};
use teraphim_compress::bitio::{BitReader, BitWriter};
use teraphim_compress::codes::{read_gamma_pair, write_gamma};

/// One inverted-list entry: a document and the in-document frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Posting {
    /// Document containing the term.
    pub doc: DocId,
    /// Number of occurrences of the term in the document (`f_dt ≥ 1`).
    pub f_dt: u32,
}

/// An immutable compressed postings list.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PostingsList {
    bytes: Vec<u8>,
    count: u32,
    last_doc: DocId,
}

impl PostingsList {
    /// Builds a compressed list from strictly increasing postings.
    ///
    /// # Panics
    ///
    /// Panics if documents are not strictly increasing or an `f_dt` is
    /// zero (these are structural invariants of an inverted file, not
    /// recoverable input errors).
    pub fn from_postings(postings: &[Posting]) -> Self {
        let mut w = BitWriter::with_capacity_bits(postings.len() * 8);
        let mut prev: Option<DocId> = None;
        for p in postings {
            assert!(p.f_dt >= 1, "f_dt must be >= 1");
            let gap = match prev {
                None => u64::from(p.doc) + 1,
                Some(q) => {
                    assert!(p.doc > q, "postings must be strictly increasing");
                    u64::from(p.doc - q)
                }
            };
            write_gamma(&mut w, gap);
            write_gamma(&mut w, u64::from(p.f_dt));
            prev = Some(p.doc);
        }
        PostingsList {
            bytes: w.into_bytes(),
            count: postings.len() as u32,
            last_doc: prev.unwrap_or(0),
        }
    }

    /// Number of postings in the list (the term's document frequency
    /// `f_t` within this collection).
    pub fn len(&self) -> u32 {
        self.count
    }

    /// True if the list has no postings.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The largest document id in the list (0 for an empty list).
    pub fn last_doc(&self) -> DocId {
        self.last_doc
    }

    /// Compressed size in bytes.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Raw compressed bytes (for serialization and wire transfer).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Reconstructs a list from its raw parts (inverse of
    /// [`PostingsList::as_bytes`] plus metadata).
    pub fn from_raw_parts(bytes: Vec<u8>, count: u32, last_doc: DocId) -> Self {
        PostingsList {
            bytes,
            count,
            last_doc,
        }
    }

    /// Iterates over the postings, decoding incrementally. The iterator
    /// is fused: a malformed posting yields one `Err` and then `None`.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            reader: BitReader::new(&self.bytes),
            remaining: self.count,
            next_min: 0,
        }
    }

    /// Decodes the list front to back, handing each posting to `visit`.
    ///
    /// This is [`PostingsList::iter`] without an `Option<Result<..>>` per
    /// posting, for loops that walk whole lists: it stops at the first
    /// malformed posting and reports it once, after `visit` has seen
    /// every posting before it.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::Corrupt`] if the compressed stream is
    /// malformed.
    #[inline]
    pub fn scan(&self, mut visit: impl FnMut(Posting)) -> Result<(), IndexError> {
        let mut iter = self.iter();
        for _ in 0..self.count {
            visit(iter.step()?);
        }
        Ok(())
    }

    /// Decodes the whole list into a vector.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::Corrupt`] if the compressed stream is
    /// malformed.
    pub fn decode(&self) -> Result<Vec<Posting>, IndexError> {
        // A posting is at least two bits, which bounds what a corrupt
        // count may reserve.
        let mut postings = Vec::with_capacity((self.count as usize).min(self.bytes.len() * 4));
        self.scan(|p| postings.push(p))?;
        Ok(postings)
    }

    /// Looks up the frequency of `doc` by linear scan (used by tests and
    /// small lists; candidate scoring uses [`crate::skips`]).
    pub fn get(&self, doc: DocId) -> Option<u32> {
        for p in self.iter().flatten() {
            if p.doc == doc {
                return Some(p.f_dt);
            }
            if p.doc > doc {
                return None;
            }
        }
        None
    }
}

/// Decoding iterator over a [`PostingsList`]. Produced by
/// [`PostingsList::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    reader: BitReader<'a>,
    remaining: u32,
    /// The smallest document id the next posting may carry: one past the
    /// previous posting's, zero before the first. The first gap is coded
    /// as `doc + 1` so that document 0 is representable, which makes
    /// every posting's id `next_min + gap - 1`.
    next_min: u64,
}

impl Iter<'_> {
    /// Decodes the next posting; the caller keeps count. Always inlined:
    /// out of line, the reader's window lives in memory instead of in
    /// the registers of the loop that calls this.
    #[inline(always)]
    fn step(&mut self) -> Result<Posting, IndexError> {
        let (gap, f_dt) = read_gamma_pair(&mut self.reader)
            .map_err(|_| IndexError::Corrupt("postings gap or frequency"))?;
        // γ codes values >= 1, so `gap - 1` cannot underflow.
        let doc = u32::try_from(self.next_min.saturating_add(gap - 1)).map_err(|_| {
            IndexError::Corrupt(if self.next_min == 0 {
                "first document id overflows"
            } else {
                "document id overflows"
            })
        })?;
        self.next_min = u64::from(doc) + 1;
        let f_dt =
            u32::try_from(f_dt).map_err(|_| IndexError::Corrupt("frequency overflows u32"))?;
        Ok(Posting { doc, f_dt })
    }
}

impl Iterator for Iter<'_> {
    type Item = Result<Posting, IndexError>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        let posting = self.step();
        // What follows a malformed posting is misaligned garbage.
        self.remaining = if posting.is_ok() {
            self.remaining - 1
        } else {
            0
        };
        Some(posting)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(doc: DocId, f_dt: u32) -> Posting {
        Posting { doc, f_dt }
    }

    #[test]
    fn roundtrip_simple_list() {
        let postings = vec![p(0, 1), p(3, 2), p(4, 7), p(100, 1)];
        let list = PostingsList::from_postings(&postings);
        assert_eq!(list.len(), 4);
        assert_eq!(list.last_doc(), 100);
        assert_eq!(list.decode().unwrap(), postings);
    }

    #[test]
    fn empty_list() {
        let list = PostingsList::from_postings(&[]);
        assert!(list.is_empty());
        assert_eq!(list.decode().unwrap(), vec![]);
        assert_eq!(list.byte_len(), 0);
    }

    #[test]
    fn doc_zero_is_representable() {
        let list = PostingsList::from_postings(&[p(0, 5)]);
        assert_eq!(list.decode().unwrap(), vec![p(0, 5)]);
    }

    #[test]
    fn single_posting_large_doc() {
        let list = PostingsList::from_postings(&[p(u32::MAX - 1, 3)]);
        assert_eq!(list.decode().unwrap(), vec![p(u32::MAX - 1, 3)]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_increasing_docs_panic() {
        PostingsList::from_postings(&[p(5, 1), p(5, 1)]);
    }

    #[test]
    #[should_panic(expected = "f_dt must be >= 1")]
    fn zero_frequency_panics() {
        PostingsList::from_postings(&[p(1, 0)]);
    }

    #[test]
    fn get_finds_present_and_absent() {
        let list = PostingsList::from_postings(&[p(2, 1), p(7, 3), p(9, 2)]);
        assert_eq!(list.get(7), Some(3));
        assert_eq!(list.get(2), Some(1));
        assert_eq!(list.get(8), None);
        assert_eq!(list.get(100), None);
    }

    #[test]
    fn dense_list_compresses_below_fixed_width() {
        // 1000 consecutive docs with f_dt = 1: gaps of 1 are one bit, f=1
        // one bit -> ~250 bytes versus 8000 fixed.
        let postings: Vec<Posting> = (0..1000).map(|d| p(d, 1)).collect();
        let list = PostingsList::from_postings(&postings);
        assert!(list.byte_len() < 300, "got {}", list.byte_len());
        assert_eq!(list.decode().unwrap(), postings);
    }

    #[test]
    fn raw_parts_roundtrip() {
        let postings = vec![p(1, 2), p(9, 1)];
        let list = PostingsList::from_postings(&postings);
        let rebuilt =
            PostingsList::from_raw_parts(list.as_bytes().to_vec(), list.len(), list.last_doc());
        assert_eq!(rebuilt.decode().unwrap(), postings);
    }

    #[test]
    fn corrupt_stream_yields_error_not_panic() {
        let postings = vec![p(1, 2), p(9, 1), p(10_000, 4)];
        let list = PostingsList::from_postings(&postings);
        let bytes = list.as_bytes();
        let truncated = PostingsList::from_raw_parts(bytes[..bytes.len() - 1].to_vec(), 3, 10_000);
        assert!(truncated.decode().is_err());
    }

    /// Checks that `iter` yields nothing after its first error and that
    /// `scan` and `decode` stop where it does; returns the postings
    /// before the error and whether there was one.
    fn decoded_prefix(list: &PostingsList) -> (Vec<Posting>, bool) {
        let items: Vec<_> = list.iter().collect();
        let good: Vec<Posting> = items.iter().map_while(|r| r.clone().ok()).collect();
        let failed = good.len() < items.len();
        assert_eq!(
            items.len(),
            good.len() + usize::from(failed),
            "iterator went on after an error: {items:?}"
        );
        let mut scanned = Vec::new();
        let outcome = list.scan(|p| scanned.push(p));
        assert_eq!(scanned, good);
        assert_eq!(outcome.is_err(), failed);
        assert_eq!(outcome.err(), items.last().and_then(|r| r.clone().err()));
        assert_eq!(list.decode().is_err(), failed);
        (good, failed)
    }

    #[test]
    fn truncated_list_stops_at_the_first_error() {
        let postings: Vec<Posting> = (0..40).map(|i| p(i * 37 + i % 3, i % 5 + 1)).collect();
        let list = PostingsList::from_postings(&postings);
        assert_eq!(decoded_prefix(&list), (postings.clone(), false));
        for cut in 0..list.byte_len() {
            let truncated =
                PostingsList::from_raw_parts(list.as_bytes()[..cut].to_vec(), 40, list.last_doc());
            let (good, failed) = decoded_prefix(&truncated);
            assert!(failed, "cut {cut}");
            assert_eq!(good, postings[..good.len()], "cut {cut}");
        }
    }

    #[test]
    fn bit_flipped_list_stops_at_the_first_error() {
        // Document ids near the top of the range: a flipped bit that
        // lengthens a gap overflows the id in the middle of the list.
        let postings: Vec<Posting> = (0..40)
            .map(|i| p(u32::MAX - 4000 + i * 97, i % 7 + 1))
            .collect();
        let list = PostingsList::from_postings(&postings);
        let mut failed_midway = 0;
        for bit in 0..list.byte_len() * 8 {
            let mut bytes = list.as_bytes().to_vec();
            bytes[bit / 8] ^= 0x80 >> (bit % 8);
            let flipped = PostingsList::from_raw_parts(bytes, 40, list.last_doc());
            let (good, failed) = decoded_prefix(&flipped);
            if failed && good.len() + 1 < postings.len() {
                failed_midway += 1;
            }
        }
        assert!(failed_midway > 0, "no flip failed before the last posting");
    }

    #[test]
    fn iterator_size_hint_is_exact() {
        let list = PostingsList::from_postings(&[p(1, 1), p(2, 1), p(3, 1)]);
        let it = list.iter();
        assert_eq!(it.size_hint(), (3, Some(3)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arbitrary_postings() -> impl Strategy<Value = Vec<Posting>> {
        proptest::collection::vec((0u32..1_000_000, 1u32..10_000), 0..300).prop_map(|mut raw| {
            raw.sort_by_key(|&(d, _)| d);
            raw.dedup_by_key(|&mut (d, _)| d);
            raw.into_iter()
                .map(|(doc, f_dt)| Posting { doc, f_dt })
                .collect()
        })
    }

    proptest! {
        #[test]
        fn roundtrips(postings in arbitrary_postings()) {
            let list = PostingsList::from_postings(&postings);
            prop_assert_eq!(list.decode().unwrap(), postings);
        }

        #[test]
        fn get_agrees_with_decode(postings in arbitrary_postings(), probe in 0u32..1_000_000) {
            let list = PostingsList::from_postings(&postings);
            let expected = postings.iter().find(|p| p.doc == probe).map(|p| p.f_dt);
            prop_assert_eq!(list.get(probe), expected);
        }
    }
}
