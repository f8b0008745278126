//! The vocabulary: a bidirectional mapping between term strings and dense
//! term identifiers.
//!
//! A Central Vocabulary receptionist holds the *merged* vocabularies of
//! all subcollections (see [`crate::stats::merge_stats`]); the
//! serialized form here is what gets measured against the paper's
//! "less than 10 Mb for the gigabyte of text".

use crate::IndexError;
use teraphim_compress::bytes::Reader;
use teraphim_compress::dict::Dictionary;

/// Dense term identifier within one vocabulary.
pub type TermId = u32;

/// A term dictionary assigning dense ids in first-seen order: the term
/// bytes in one arena and an id table, three allocations however many
/// terms (see [`teraphim_compress::dict`]).
pub type Vocabulary = Dictionary;

/// Serialized size in bytes (length-prefixed UTF-8 strings), used for
/// the paper's central-vocabulary storage accounting.
pub fn serialized_len(vocab: &Vocabulary) -> usize {
    vocab.iter().map(|(_, t)| t.len() + 2).sum()
}

/// Appends the serialized vocabulary: a `u32` term count, then each
/// term in id order as a `u16` length and its UTF-8 bytes.
pub(crate) fn write(vocab: &Vocabulary, out: &mut Vec<u8>) {
    out.extend_from_slice(&(vocab.len() as u32).to_le_bytes());
    for (_, term) in vocab.iter() {
        out.extend_from_slice(&(term.len() as u16).to_le_bytes());
        out.extend_from_slice(term.as_bytes());
    }
}

/// Reads the form [`write`] produces, to its last byte.
///
/// # Errors
///
/// Returns [`IndexError::Corrupt`] on truncation, invalid UTF-8, a
/// term stored twice or trailing bytes.
pub(crate) fn read(bytes: &[u8]) -> Result<Vocabulary, IndexError> {
    let mut r = Reader::new(bytes, "vocabulary truncated");
    // Each term takes at least its two length bytes.
    let count = r.u32()?;
    let count = r.count(count.into(), 2)?;
    let mut vocab = Vocabulary::with_capacity(count, r.rest().len() - 2 * count);
    for id in 0..count {
        let len = r.u16()?;
        if vocab.intern(r.str(len.into())?) as usize != id {
            return Err(IndexError::Corrupt("vocabulary term stored twice"));
        }
    }
    r.finish()?;
    Ok(vocab)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_bytes(v: &Vocabulary) -> Vec<u8> {
        let mut out = Vec::new();
        write(v, &mut out);
        out
    }

    #[test]
    fn intern_assigns_dense_ids_in_order() {
        let mut v = Vocabulary::new();
        assert_eq!(v.intern("alpha"), 0);
        assert_eq!(v.intern("beta"), 1);
        assert_eq!(v.intern("alpha"), 0);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn term_id_and_term_are_inverses() {
        let mut v = Vocabulary::new();
        for t in ["a", "b", "c"] {
            v.intern(t);
        }
        for (id, term) in v.iter() {
            assert_eq!(v.term_id(term), Some(id));
            assert_eq!(v.term(id), term);
        }
        assert_eq!(v.term_id("missing"), None);
    }

    #[test]
    fn empty_vocabulary() {
        let v = Vocabulary::new();
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        let rt = read(&to_bytes(&v)).unwrap();
        assert!(rt.is_empty());
    }

    #[test]
    fn serialization_roundtrips() {
        let mut v = Vocabulary::new();
        for t in ["retrieval", "distributed", "naïve", "x"] {
            v.intern(t);
        }
        let rt = read(&to_bytes(&v)).unwrap();
        assert_eq!(rt.len(), v.len());
        for (id, term) in v.iter() {
            assert_eq!(rt.term(id), term);
        }
    }

    #[test]
    fn truncated_bytes_error() {
        let mut v = Vocabulary::new();
        v.intern("hello");
        let bytes = to_bytes(&v);
        for cut in 0..bytes.len() {
            assert!(read(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn a_count_beyond_the_bytes_is_corrupt_not_an_abort() {
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[1, 0, b'a']);
        assert_eq!(
            read(&bytes).err(),
            Some(IndexError::Corrupt("vocabulary truncated"))
        );
    }

    #[test]
    fn a_term_stored_twice_is_corrupt() {
        let mut v = Vocabulary::new();
        v.intern("twice");
        let mut bytes = to_bytes(&v);
        bytes[0] = 2;
        bytes.extend_from_within(4..);
        assert_eq!(
            read(&bytes).err(),
            Some(IndexError::Corrupt("vocabulary term stored twice"))
        );
    }

    #[test]
    fn serialized_len_approximates_to_bytes() {
        let mut v = Vocabulary::new();
        for t in ["one", "two", "three"] {
            v.intern(t);
        }
        assert_eq!(to_bytes(&v).len(), serialized_len(&v) + 4);
    }
}
