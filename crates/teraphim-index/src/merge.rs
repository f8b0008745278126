//! Index merging — the update path.
//!
//! §1 motivates distribution partly by update: "it may be useful for
//! document collections to be distributed over several machines, to
//! simplify update", and §4 lists "faster update" among distribution's
//! management benefits. The mechanism behind both is cheap *append*: new
//! documents are indexed into a small delta index, which is then merged
//! with the existing one — no global rebuild. The similarity formulation
//! cooperates: document weights are collection-independent (§2), so
//! merging never re-scores existing documents.

use crate::builder::InvertedIndex;
use crate::postings::{ListsWriter, Posting};
use crate::{DocId, IndexError, TermId};

/// Merges `base` with a `delta` index of newly added documents.
///
/// Delta document `d` becomes document `base.num_docs() + d`; the merged
/// vocabulary preserves `base`'s term ids and appends `delta`'s new
/// terms. Weights, lengths and statistics carry over unchanged — the
/// merged index is equivalent to one built over the concatenated
/// document stream, to the byte.
///
/// Allocations are per index, not per term: the base vocabulary is
/// copied whole, and each merged list is decoded and re-encoded straight
/// into the new arena.
///
/// # Errors
///
/// Returns [`IndexError::Corrupt`] if either index fails to decode, or
/// holds a posting beyond its own documents.
pub fn merge(base: &InvertedIndex, delta: &InvertedIndex) -> Result<InvertedIndex, IndexError> {
    let offset = base.num_docs() as DocId;

    // Union vocabulary: base ids stable, delta terms appended; for each
    // merged term, the delta term feeding it, if any.
    const NONE: TermId = TermId::MAX;
    let mut vocab = base.vocab().clone();
    let mut from_delta = vec![NONE; base.vocab().len() + delta.vocab().len()];
    for (term, name) in delta.vocab().iter() {
        from_delta[vocab.intern(name) as usize] = term;
    }

    // Merged lists: each base list, then its delta list shifted.
    let bytes = base.postings_bytes() + delta.postings_bytes();
    let mut lists = ListsWriter::with_capacity(vocab.len(), bytes);
    // A loaded list may name a document its index does not have; that
    // would put the shifted delta postings out of order.
    let beyond = IndexError::Corrupt("posting beyond its index's documents");
    for (term, &fed_by) in from_delta[..vocab.len()].iter().enumerate() {
        let mut past = false;
        if term < base.vocab().len() {
            base.postings(term as TermId).scan(|p| {
                past |= p.doc >= offset;
                lists.put(p);
            })?;
        }
        if fed_by != NONE && !past {
            delta.postings(fed_by).scan(|p| {
                past |= u64::from(p.doc) >= delta.num_docs();
                if !past {
                    lists.put(Posting {
                        doc: offset + p.doc,
                        f_dt: p.f_dt,
                    });
                }
            })?;
        }
        if past {
            return Err(beyond);
        }
        lists.close();
    }

    let mut weights = base.weights().clone();
    let mut doc_lengths = Vec::with_capacity((base.num_docs() + delta.num_docs()) as usize);
    for d in 0..base.num_docs() as DocId {
        doc_lengths.push(base.doc_length(d));
    }
    for d in 0..delta.num_docs() as DocId {
        weights.push(delta.weights().weight(d));
        doc_lengths.push(delta.doc_length(d));
    }

    Ok(InvertedIndex::from_merge_parts(
        vocab,
        lists.finish(),
        weights,
        doc_lengths,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;

    fn index_of(docs: &[&[&str]]) -> InvertedIndex {
        let mut b = IndexBuilder::new();
        for d in docs {
            let terms: Vec<String> = d.iter().map(|s| (*s).to_owned()).collect();
            b.add_document(&terms);
        }
        b.build()
    }

    const FIRST: &[&[&str]] = &[&["cat", "sat"], &["dog", "cat", "cat"], &["bird"]];
    const SECOND: &[&[&str]] = &[&["cat", "emu"], &["dog"], &["emu", "emu", "sat"]];

    fn merged() -> InvertedIndex {
        merge(&index_of(FIRST), &index_of(SECOND)).unwrap()
    }

    fn from_scratch() -> InvertedIndex {
        let all: Vec<&[&str]> = FIRST.iter().chain(SECOND.iter()).copied().collect();
        index_of(&all)
    }

    #[test]
    fn merge_equals_scratch_build_per_term() {
        let m = merged();
        let s = from_scratch();
        assert!(m.to_bytes() == s.to_bytes(), "merged bytes differ");
        assert_eq!(m.num_docs(), s.num_docs());
        assert_eq!(m.vocab().len(), s.vocab().len());
        for (term, name) in s.vocab().iter() {
            let m_term = m.vocab().term_id(name).expect("term present");
            assert_eq!(
                m.postings(m_term).decode().unwrap(),
                s.postings(term).decode().unwrap(),
                "term {name}"
            );
            assert_eq!(m.stats().doc_freq(m_term), s.stats().doc_freq(term));
        }
    }

    #[test]
    fn merge_preserves_weights_and_lengths() {
        let m = merged();
        let s = from_scratch();
        for d in 0..s.num_docs() as DocId {
            assert!((m.weights().weight(d) - s.weights().weight(d)).abs() < 1e-12);
            assert_eq!(m.doc_length(d), s.doc_length(d));
        }
    }

    #[test]
    fn base_term_ids_are_stable() {
        let base = index_of(FIRST);
        let m = merged();
        for (term, name) in base.vocab().iter() {
            assert_eq!(m.vocab().term(term), name);
        }
    }

    #[test]
    fn merge_with_empty_delta_is_identity() {
        let base = index_of(FIRST);
        let empty = IndexBuilder::new().build();
        let m = merge(&base, &empty).unwrap();
        assert_eq!(m.num_docs(), base.num_docs());
        for (term, name) in base.vocab().iter() {
            let mt = m.vocab().term_id(name).unwrap();
            assert_eq!(
                m.postings(mt).decode().unwrap(),
                base.postings(term).decode().unwrap()
            );
        }
    }

    #[test]
    fn merge_into_empty_base_shifts_nothing() {
        let empty = IndexBuilder::new().build();
        let delta = index_of(SECOND);
        let m = merge(&empty, &delta).unwrap();
        assert_eq!(m.num_docs(), delta.num_docs());
        let emu = m.vocab().term_id("emu").unwrap();
        assert_eq!(m.postings(emu).get(0), Some(1));
        assert_eq!(m.postings(emu).get(2), Some(2));
    }

    #[test]
    fn a_posting_beyond_its_documents_is_corrupt_not_a_panic() {
        // The header of a one-document index over the postings of a
        // three-document one whose only posting is at document 2.
        let bytes = |docs: &[&[&str]]| index_of(docs).to_bytes();
        let (one, three) = (bytes(&[&["cat"]]), bytes(&[&[], &[], &["cat"]]));
        let postings_at = |b: &[u8]| {
            let u32_at = |pos: usize| u32::from_le_bytes(b[pos..pos + 4].try_into().unwrap());
            let mut pos = 0;
            for _ in 0..3 {
                pos += 4 + u32_at(pos) as usize;
            }
            pos + 4 + 4 * u32_at(pos) as usize
        };
        let spliced = [&one[..postings_at(&one)], &three[postings_at(&three)..]].concat();
        let corrupt = InvertedIndex::from_bytes(&spliced).unwrap();
        let delta = index_of(&[&["cat"]]);
        let beyond = Err(IndexError::Corrupt("posting beyond its index's documents"));
        assert_eq!(merge(&corrupt, &delta).map(|_| ()), beyond);
        assert_eq!(merge(&delta, &corrupt).map(|_| ()), beyond);
    }

    #[test]
    fn repeated_merges_accumulate() {
        let a = index_of(&[&["x"]]);
        let b = index_of(&[&["x", "y"]]);
        let c = index_of(&[&["y", "z"]]);
        let m = merge(&merge(&a, &b).unwrap(), &c).unwrap();
        assert_eq!(m.num_docs(), 3);
        let x = m.vocab().term_id("x").unwrap();
        let y = m.vocab().term_id("y").unwrap();
        assert_eq!(m.stats().doc_freq(x), 2);
        assert_eq!(m.stats().doc_freq(y), 2);
        assert_eq!(m.postings(y).get(1), Some(1));
        assert_eq!(m.postings(y).get(2), Some(1));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::builder::IndexBuilder;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn merge_always_equals_scratch_build(
            first in proptest::collection::vec(
                proptest::collection::vec("[a-d]", 0..6), 0..15),
            second in proptest::collection::vec(
                proptest::collection::vec("[a-e]", 0..6), 0..15),
        ) {
            let build = |docs: &[Vec<String>]| {
                let mut b = IndexBuilder::new();
                for d in docs {
                    b.add_document(d);
                }
                b.build()
            };
            let merged = merge(&build(&first), &build(&second)).unwrap();
            let all: Vec<Vec<String>> =
                first.iter().chain(second.iter()).cloned().collect();
            let scratch = build(&all);
            prop_assert_eq!(merged.num_docs(), scratch.num_docs());
            for (term, name) in scratch.vocab().iter() {
                let mt = merged.vocab().term_id(name).expect("term present");
                prop_assert_eq!(
                    merged.postings(mt).decode().unwrap(),
                    scratch.postings(term).decode().unwrap()
                );
            }
        }
    }
}
