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
use crate::postings::{Posting, PostingsList};
use crate::stats::CollectionStats;
use crate::vocab::Vocabulary;
use crate::weights::DocWeights;
use crate::{DocId, IndexError, TermId};

/// Merges `base` with a `delta` index of newly added documents.
///
/// Delta document `d` becomes document `base.num_docs() + d`; the merged
/// vocabulary preserves `base`'s term ids and appends `delta`'s new
/// terms. Weights, lengths and statistics carry over unchanged — the
/// merged index is equivalent to one built over the concatenated
/// document stream.
///
/// # Errors
///
/// Returns [`IndexError::Corrupt`] if either index fails to decode.
pub fn merge(base: &InvertedIndex, delta: &InvertedIndex) -> Result<InvertedIndex, IndexError> {
    let offset = base.num_docs() as DocId;

    // Union vocabulary: base ids stable, delta terms mapped.
    let mut vocab = Vocabulary::new();
    for (_, term) in base.vocab().iter() {
        vocab.intern(term);
    }
    let delta_map: Vec<TermId> = delta
        .vocab()
        .iter()
        .map(|(_, term)| vocab.intern(term))
        .collect();

    // Merged postings: base list then shifted delta list per term.
    let mut merged_postings: Vec<Vec<Posting>> = vec![Vec::new(); vocab.len()];
    for (term, _) in base.vocab().iter() {
        let list = base.postings(term);
        let target = &mut merged_postings[term as usize];
        target.reserve(list.len() as usize);
        list.scan(|posting| target.push(posting))?;
    }
    for (term, _) in delta.vocab().iter() {
        let mapped = delta_map[term as usize] as usize;
        let list = delta.postings(term);
        let target = &mut merged_postings[mapped];
        target.reserve(list.len() as usize);
        list.scan(|posting| {
            target.push(Posting {
                doc: offset + posting.doc,
                f_dt: posting.f_dt,
            });
        })?;
    }

    let mut stats = CollectionStats::new();
    stats.set_num_docs(base.num_docs() + delta.num_docs());
    let mut lists = Vec::with_capacity(vocab.len());
    for (term_idx, postings) in merged_postings.iter().enumerate() {
        stats.add_doc_freq(term_idx as TermId, postings.len() as u64);
        lists.push(PostingsList::from_postings(postings));
    }

    let mut weights = DocWeights::new();
    let mut doc_lengths = Vec::with_capacity(stats.num_docs() as usize);
    for d in 0..base.num_docs() as DocId {
        weights.push(base.weights().weight(d));
        doc_lengths.push(base.doc_length(d));
    }
    for d in 0..delta.num_docs() as DocId {
        weights.push(delta.weights().weight(d));
        doc_lengths.push(delta.doc_length(d));
    }

    Ok(InvertedIndex::from_merge_parts(
        vocab,
        lists,
        stats,
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
