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

/// A borrowed view of one compressed postings list: its bytes in its
/// index's arena (see [`crate::InvertedIndex::postings`]), its length and
/// its last document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostingsList<'a> {
    bytes: &'a [u8],
    count: u32,
    last_doc: DocId,
}

impl<'a> PostingsList<'a> {
    /// Views `bytes` as a list of `count` postings ending at `last_doc`
    /// (the parts [`PostingsList::as_bytes`], [`PostingsList::len`] and
    /// [`PostingsList::last_doc`] give back). Nothing is checked until
    /// the list is decoded.
    pub fn from_raw_parts(bytes: &'a [u8], count: u32, last_doc: DocId) -> Self {
        PostingsList {
            bytes,
            count,
            last_doc,
        }
    }

    /// The compressed bytes of a list of strictly increasing postings.
    ///
    /// # Panics
    ///
    /// Panics if documents are not strictly increasing or an `f_dt` is
    /// zero (these are structural invariants of an inverted file, not
    /// recoverable input errors).
    pub fn encode(postings: &[Posting]) -> Vec<u8> {
        Lists::of(postings).bytes
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
    pub fn as_bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Iterates over the postings, decoding incrementally. The iterator
    /// is fused: a malformed posting yields one `Err` and then `None`.
    pub fn iter(&self) -> Iter<'a> {
        Iter {
            reader: BitReader::new(self.bytes),
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

    /// Where the iterator stands, for [`Iter::restore`]; `None` after a
    /// posting with id `u32::MAX`, where no posting can follow.
    pub(crate) fn position(&self) -> Option<Position> {
        Some(Position {
            bit: self.reader.bit_pos(),
            remaining: self.remaining,
            next_min: u32::try_from(self.next_min).ok()?,
        })
    }

    /// Moves the iterator to `at`, a [`Iter::position`] of an iterator
    /// over the same list.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::Corrupt`] if `at` lies past the list's bytes.
    pub(crate) fn restore(&mut self, at: Position) -> Result<(), IndexError> {
        self.reader
            .seek_to_bit(at.bit)
            .map_err(|_| IndexError::Corrupt("list position out of range"))?;
        self.remaining = at.remaining;
        self.next_min = u64::from(at.next_min);
        Ok(())
    }
}

/// The state of an [`Iter`] between two postings, in 16 bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Position {
    /// Bit offset of the next posting.
    bit: u64,
    /// Postings from this point to the end of the list.
    pub(crate) remaining: u32,
    /// The smallest document id the next posting may carry.
    pub(crate) next_min: u32,
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

impl ExactSizeIterator for Iter<'_> {}

/// Every inverted list of one index: the lists' bytes back to back in
/// one arena, each starting on a byte boundary, and one 12-byte head per
/// term. A term's list ends where the next one's starts.
#[derive(Debug, Clone, Default)]
pub(crate) struct Lists {
    bytes: Vec<u8>,
    heads: Vec<Head>,
}

#[derive(Debug, Clone, Copy)]
struct Head {
    offset: u32,
    count: u32,
    last_doc: DocId,
}

impl Lists {
    /// Room for `terms` lists of `bytes` bytes in all.
    pub(crate) fn with_capacity(terms: usize, bytes: usize) -> Self {
        Lists {
            bytes: Vec::with_capacity(bytes),
            heads: Vec::with_capacity(terms),
        }
    }

    /// An arena holding one list, of `postings` (about a byte each).
    pub(crate) fn of(postings: &[Posting]) -> Lists {
        let mut w = ListsWriter::with_capacity(1, postings.len());
        for &p in postings {
            w.put(p);
        }
        w.close();
        w.finish()
    }

    /// Number of lists (one per term).
    pub(crate) fn len(&self) -> usize {
        self.heads.len()
    }

    /// Total compressed size of every list.
    pub(crate) fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// The list of `term`, if there is one.
    pub(crate) fn get(&self, term: usize) -> Option<PostingsList<'_>> {
        let head = self.heads.get(term)?;
        let end = self
            .heads
            .get(term + 1)
            .map_or(self.bytes.len(), |next| next.offset as usize);
        Some(PostingsList {
            bytes: &self.bytes[head.offset as usize..end],
            count: head.count,
            last_doc: head.last_doc,
        })
    }

    /// Every list, in term order.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = PostingsList<'_>> {
        (0..self.len()).map(|term| self.get(term).expect("in range"))
    }

    /// Appends a list as stored: `count` postings ending at `last_doc`,
    /// compressed in `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::Corrupt`] if the arena would pass 4 GiB.
    pub(crate) fn push_raw(
        &mut self,
        bytes: &[u8],
        count: u32,
        last_doc: DocId,
    ) -> Result<(), IndexError> {
        let offset = u32::try_from(self.bytes.len())
            .map_err(|_| IndexError::Corrupt("postings exceed 4 GiB"))?;
        self.heads.push(Head {
            offset,
            count,
            last_doc,
        });
        self.bytes.extend_from_slice(bytes);
        Ok(())
    }
}

/// Encodes lists one after another straight into a [`Lists`] arena:
/// [`ListsWriter::put`] the postings of a term, in strictly increasing
/// document order, then [`ListsWriter::close`] its list, once per term.
pub(crate) struct ListsWriter {
    writer: BitWriter,
    heads: Vec<Head>,
    /// The open list's head; its offset is where its first byte goes.
    open: Head,
}

impl ListsWriter {
    /// Room for `terms` lists of `bytes` bytes in all.
    pub(crate) fn with_capacity(terms: usize, bytes: usize) -> Self {
        ListsWriter {
            writer: BitWriter::from(Vec::with_capacity(bytes + 1)),
            heads: Vec::with_capacity(terms),
            open: Head {
                offset: 0,
                count: 0,
                last_doc: 0,
            },
        }
    }

    /// Opens the next list with `list`'s coded postings, copied up to
    /// the last bit of the last one (γ codes are canonical, so these are
    /// the bits `put`ting them would write); `put` continues from there.
    /// The list is decoded once, to find that bit and to check it.
    /// Returns its last document, if it has postings.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::Corrupt`] if the list fails to decode.
    ///
    /// # Panics
    ///
    /// Panics if the open list already has postings.
    pub(crate) fn put_list(&mut self, list: PostingsList<'_>) -> Result<Option<DocId>, IndexError> {
        assert_eq!(self.open.count, 0, "a copied list opens its list");
        let mut iter = list.iter();
        let mut last = None;
        for _ in 0..list.count {
            last = Some(iter.step()?.doc);
        }
        self.writer.copy_bits(list.bytes, iter.reader.bit_pos());
        self.open.count = list.count;
        self.open.last_doc = last.unwrap_or(0);
        Ok(last)
    }

    /// Appends `p` to the open list.
    ///
    /// # Panics
    ///
    /// Panics if `p` does not follow the list's last document or its
    /// `f_dt` is zero.
    #[inline]
    pub(crate) fn put(&mut self, p: Posting) {
        assert!(p.f_dt >= 1, "f_dt must be >= 1");
        let gap = if self.open.count == 0 {
            u64::from(p.doc) + 1
        } else {
            assert!(
                p.doc > self.open.last_doc,
                "postings must be strictly increasing"
            );
            u64::from(p.doc - self.open.last_doc)
        };
        write_gamma(&mut self.writer, gap);
        write_gamma(&mut self.writer, u64::from(p.f_dt));
        self.open.count += 1;
        self.open.last_doc = p.doc;
    }

    /// Closes the open list (empty if nothing was put) and opens the
    /// next term's on the next byte boundary.
    ///
    /// # Panics
    ///
    /// Panics if the arena passes 4 GiB.
    pub(crate) fn close(&mut self) {
        self.writer.align_to_byte();
        self.heads.push(self.open);
        let offset = u32::try_from(self.writer.as_bytes().len()).expect("postings exceed 4 GiB");
        self.open = Head {
            offset,
            count: 0,
            last_doc: 0,
        };
    }

    /// The closed lists.
    pub(crate) fn finish(self) -> Lists {
        let mut bytes = self.writer.into_bytes();
        bytes.shrink_to_fit();
        Lists {
            bytes,
            heads: self.heads,
        }
    }
}

#[cfg(test)]
impl PostingsList<'_> {
    /// Decodes the whole list into a vector.
    pub(crate) fn decode(&self) -> Result<Vec<Posting>, IndexError> {
        let mut postings = Vec::new();
        self.scan(|p| postings.push(p))?;
        Ok(postings)
    }

    /// The frequency of `doc`, by linear scan.
    pub(crate) fn get(&self, doc: DocId) -> Option<u32> {
        self.iter()
            .map_while(Result::ok)
            .find(|p| p.doc >= doc)
            .filter(|p| p.doc == doc)
            .map(|p| p.f_dt)
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
        let lists = Lists::of(&postings);
        let list = lists.get(0).unwrap();
        assert_eq!(list.len(), 4);
        assert_eq!(list.last_doc(), 100);
        assert_eq!(list.decode().unwrap(), postings);
    }

    #[test]
    fn empty_list() {
        let lists = Lists::of(&[]);
        let list = lists.get(0).unwrap();
        assert!(list.is_empty());
        assert_eq!(list.decode().unwrap(), vec![]);
        assert_eq!(list.byte_len(), 0);
    }

    #[test]
    fn doc_zero_is_representable() {
        let lists = Lists::of(&[p(0, 5)]);
        let list = lists.get(0).unwrap();
        assert_eq!(list.decode().unwrap(), vec![p(0, 5)]);
    }

    #[test]
    fn single_posting_large_doc() {
        let lists = Lists::of(&[p(u32::MAX - 1, 3)]);
        let list = lists.get(0).unwrap();
        assert_eq!(list.decode().unwrap(), vec![p(u32::MAX - 1, 3)]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_increasing_docs_panic() {
        PostingsList::encode(&[p(5, 1), p(5, 1)]);
    }

    #[test]
    #[should_panic(expected = "f_dt must be >= 1")]
    fn zero_frequency_panics() {
        PostingsList::encode(&[p(1, 0)]);
    }

    #[test]
    fn get_finds_present_and_absent() {
        let lists = Lists::of(&[p(2, 1), p(7, 3), p(9, 2)]);
        let list = lists.get(0).unwrap();
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
        let lists = Lists::of(&postings);
        let list = lists.get(0).unwrap();
        assert!(list.byte_len() < 300, "got {}", list.byte_len());
        assert_eq!(list.decode().unwrap(), postings);
    }

    #[test]
    fn raw_parts_roundtrip() {
        let postings = vec![p(1, 2), p(9, 1)];
        let lists = Lists::of(&postings);
        let list = lists.get(0).unwrap();
        let bytes = PostingsList::encode(&postings);
        assert_eq!(bytes, list.as_bytes());
        let rebuilt = PostingsList::from_raw_parts(&bytes, list.len(), list.last_doc());
        assert_eq!(rebuilt.decode().unwrap(), postings);
    }

    #[test]
    fn corrupt_stream_yields_error_not_panic() {
        let postings = vec![p(1, 2), p(9, 1), p(10_000, 4)];
        let lists = Lists::of(&postings);
        let list = lists.get(0).unwrap();
        let bytes = list.as_bytes();
        let truncated = PostingsList::from_raw_parts(&bytes[..bytes.len() - 1], 3, 10_000);
        assert!(truncated.decode().is_err());
    }

    /// Checks that `iter` yields nothing after its first error and that
    /// `scan` and `decode` stop where it does; returns the postings
    /// before the error and whether there was one.
    fn decoded_prefix(list: &PostingsList<'_>) -> (Vec<Posting>, bool) {
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
        let lists = Lists::of(&postings);
        let list = lists.get(0).unwrap();
        assert_eq!(decoded_prefix(&list), (postings.clone(), false));
        for cut in 0..list.byte_len() {
            let truncated =
                PostingsList::from_raw_parts(&list.as_bytes()[..cut], 40, list.last_doc());
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
        let lists = Lists::of(&postings);
        let list = lists.get(0).unwrap();
        let mut failed_midway = 0;
        for bit in 0..list.byte_len() * 8 {
            let mut bytes = list.as_bytes().to_vec();
            bytes[bit / 8] ^= 0x80 >> (bit % 8);
            let flipped = PostingsList::from_raw_parts(&bytes, 40, list.last_doc());
            let (good, failed) = decoded_prefix(&flipped);
            if failed && good.len() + 1 < postings.len() {
                failed_midway += 1;
            }
        }
        assert!(failed_midway > 0, "no flip failed before the last posting");
    }

    #[test]
    fn lists_share_one_arena_and_keep_their_bounds() {
        let terms = [
            vec![p(0, 1), p(3, 2)],
            vec![],
            vec![p(7, 9)],
            (0..50).map(|d| p(d * 2, d % 3 + 1)).collect(),
            vec![],
        ];
        let mut w = ListsWriter::with_capacity(terms.len(), 0);
        for postings in &terms {
            for &posting in postings {
                w.put(posting);
            }
            w.close();
        }
        let lists = w.finish();
        assert_eq!(lists.len(), terms.len());
        let mut total = 0;
        for (t, postings) in terms.iter().enumerate() {
            let list = lists.get(t).unwrap();
            assert_eq!(list.decode().unwrap(), *postings, "term {t}");
            assert_eq!(list.as_bytes(), PostingsList::encode(postings), "term {t}");
            total += list.byte_len();
        }
        assert_eq!(lists.byte_len(), total);
        assert_eq!(lists.get(terms.len()), None);
    }

    #[test]
    fn iterator_size_hint_is_exact() {
        let lists = Lists::of(&[p(1, 1), p(2, 1), p(3, 1)]);
        let list = lists.get(0).unwrap();
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
        fn roundtrips(postings in arbitrary_postings()) {
            let lists = Lists::of(&postings);
        let list = lists.get(0).unwrap();
            prop_assert_eq!(list.decode().unwrap(), postings);
        }

        fn get_agrees_with_decode(postings in arbitrary_postings(), probe in 0u32..1_000_000) {
            let lists = Lists::of(&postings);
        let list = lists.get(0).unwrap();
            let expected = postings.iter().find(|p| p.doc == probe).map(|p| p.f_dt);
            prop_assert_eq!(list.get(probe), expected);
        }
    }
}
