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

/// Merges `base` with `deltas`, indexes of newly added documents, in
/// order.
///
/// Delta `i`'s document `d` becomes document `d` plus the documents of
/// `base` and of the deltas before it; the merged vocabulary preserves
/// `base`'s term ids and appends each delta's new terms in turn. Weights,
/// lengths and statistics carry over unchanged — the merged index is
/// equivalent to one built over the concatenated document stream, and
/// to the byte what merging the deltas one at a time gives.
///
/// A merge costs its deltas, not its base: each base list's coded bytes
/// are copied into the new arena and the shifted delta postings coded on
/// after them. Every base list is still decoded once, to check it.
/// Allocations are per index, not per term.
///
/// # Errors
///
/// Returns [`IndexError::Corrupt`] if any index fails to decode, or
/// holds a posting beyond its own documents.
pub fn merge(base: &InvertedIndex, deltas: &[InvertedIndex]) -> Result<InvertedIndex, IndexError> {
    // Union vocabulary: base ids stable, each delta's new terms appended
    // in turn; for each merged term, the `(delta, delta term)` pairs
    // feeding it, in delta order (the sort is stable). Each delta's
    // documents follow those before it.
    let mut vocab = base.vocab().clone();
    let mut feeds = Vec::with_capacity(deltas.iter().map(|d| d.vocab().len()).sum());
    let mut offsets = Vec::with_capacity(deltas.len());
    let mut docs = base.num_docs();
    let mut bytes = base.postings_bytes();
    for (i, delta) in deltas.iter().enumerate() {
        for (term, name) in delta.vocab().iter() {
            feeds.push((vocab.intern(name), i, term));
        }
        offsets.push(docs as DocId);
        docs += delta.num_docs();
        bytes += delta.postings_bytes();
    }
    feeds.sort_by_key(|&(merged, _, _)| merged);
    let mut feeds = feeds.into_iter().peekable();

    // Merged lists: each base list copied, then its delta lists shifted.
    let mut lists = ListsWriter::with_capacity(vocab.len(), bytes);
    // A loaded list may name a document its index does not have; that
    // would put the shifted postings after it out of order.
    let beyond = IndexError::Corrupt("posting beyond its index's documents");
    for term in 0..vocab.len() as TermId {
        if (term as usize) < base.vocab().len() {
            let last = lists.put_list(base.postings(term))?;
            if last.is_some_and(|doc| u64::from(doc) >= base.num_docs()) {
                return Err(beyond);
            }
        }
        while let Some((_, i, fed_by)) = feeds.next_if(|&(merged, _, _)| merged == term) {
            let (delta, offset) = (&deltas[i], offsets[i]);
            let mut past = false;
            delta.postings(fed_by).scan(|p| {
                past |= u64::from(p.doc) >= delta.num_docs();
                if !past {
                    lists.put(Posting {
                        doc: offset + p.doc,
                        f_dt: p.f_dt,
                    });
                }
            })?;
            if past {
                return Err(beyond);
            }
        }
        lists.close();
    }

    let mut weights = base.weights().clone();
    let mut doc_lengths = Vec::with_capacity(docs as usize);
    for d in 0..base.num_docs() as DocId {
        doc_lengths.push(base.doc_length(d));
    }
    for delta in deltas {
        for d in 0..delta.num_docs() as DocId {
            weights.push(delta.weights().weight(d));
            doc_lengths.push(delta.doc_length(d));
        }
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
    use std::slice::from_ref;
    use teraphim_compress::bytes::Reader;

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
        merge(&index_of(FIRST), &[index_of(SECOND)]).unwrap()
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
        for deltas in [vec![], vec![IndexBuilder::new().build()]] {
            let m = merge(&base, &deltas).unwrap();
            assert_eq!(m.to_bytes(), base.to_bytes(), "{} deltas", deltas.len());
        }
    }

    #[test]
    fn merge_into_empty_base_shifts_nothing() {
        let empty = IndexBuilder::new().build();
        let delta = index_of(SECOND);
        let m = merge(&empty, from_ref(&delta)).unwrap();
        assert_eq!(m.num_docs(), delta.num_docs());
        let emu = m.vocab().term_id("emu").unwrap();
        assert_eq!(m.postings(emu).get(0), Some(1));
        assert_eq!(m.postings(emu).get(2), Some(2));
    }

    /// `index`'s bytes with the header of `header`'s: its vocabulary,
    /// statistics, weights and document lengths over `index`'s lists.
    fn spliced(header: &InvertedIndex, index: &InvertedIndex) -> InvertedIndex {
        // Past the three sections and the counted document lengths.
        let postings_at = |b: &[u8]| {
            let mut r = Reader::new(b, "index");
            for _ in 0..3 {
                r.section().unwrap();
            }
            let docs = r.u32().unwrap();
            r.take(4 * u64::from(docs)).unwrap();
            b.len() - r.rest().len()
        };
        let (header, index) = (header.to_bytes(), index.to_bytes());
        let bytes = [
            &header[..postings_at(&header)],
            &index[postings_at(&index)..],
        ]
        .concat();
        InvertedIndex::from_bytes(&bytes).unwrap()
    }

    #[test]
    fn a_posting_beyond_its_documents_is_corrupt_not_a_panic() {
        // A one-document index over the postings of a three-document one
        // whose lists are at document 2.
        let corrupt = spliced(
            &index_of(&[&["cat", "dog"]]),
            &index_of(&[&[], &[], &["cat", "dog"]]),
        );
        let beyond = Err(IndexError::Corrupt("posting beyond its index's documents"));
        let (cat, bird) = (index_of(&[&["cat"]]), index_of(&[&["bird"]]));
        assert_eq!(merge(&corrupt, from_ref(&cat)).map(|_| ()), beyond);
        assert_eq!(merge(&cat, from_ref(&corrupt)).map(|_| ()), beyond);
        // The delta touches no list of the corrupt base: the copy still
        // decodes, and finds, what the delta does not feed.
        assert_eq!(merge(&corrupt, from_ref(&bird)).map(|_| ()), beyond);
        assert_eq!(merge(&corrupt, &[]).map(|_| ()), beyond);
        // A corrupt second delta, after a good one.
        assert_eq!(
            merge(&cat, &[bird.clone(), corrupt.clone()]).map(|_| ()),
            beyond
        );
        assert_eq!(merge(&bird, &[cat, corrupt]).map(|_| ()), beyond);
    }

    #[test]
    fn a_malformed_list_no_delta_touches_is_corrupt() {
        // The last list of `base` ("dog", one posting, one byte) cut to
        // no bytes: its head still claims the posting.
        let base = index_of(&[&["cat"], &["dog"]]).to_bytes();
        let cut = [&base[..base.len() - 5], &[0; 4]].concat();
        let base = InvertedIndex::from_bytes(&cut).unwrap();
        let malformed = Err(IndexError::Corrupt("postings gap or frequency"));
        assert_eq!(
            merge(&base, &[index_of(&[&["cat"]])]).map(|_| ()),
            malformed
        );
        assert_eq!(merge(&base, &[]).map(|_| ()), malformed);
        let good = index_of(&[&["emu"]]);
        assert_eq!(merge(&good, &[good.clone(), base]).map(|_| ()), malformed);
    }

    #[test]
    fn repeated_merges_accumulate() {
        let a = index_of(&[&["x"]]);
        let b = index_of(&[&["x", "y"]]);
        let c = index_of(&[&["y", "z"]]);
        let m = merge(&merge(&a, from_ref(&b)).unwrap(), from_ref(&c)).unwrap();
        assert_eq!(m.to_bytes(), merge(&a, &[b, c]).unwrap().to_bytes());
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

    fn build(docs: &[Vec<String>]) -> InvertedIndex {
        let mut b = IndexBuilder::new();
        for d in docs {
            b.add_document(d);
        }
        b.build()
    }

    fn docs(letters: &'static str) -> impl Strategy<Value = Vec<Vec<String>>> {
        proptest::collection::vec(proptest::collection::vec(letters, 0..6), 0..15)
    }

    /// The oracle for the copying merge: every base list decoded and
    /// coded again, one delta at a time.
    fn recoding_merge(
        base: &InvertedIndex,
        delta: &InvertedIndex,
    ) -> Result<InvertedIndex, IndexError> {
        let offset = base.num_docs() as DocId;
        let mut vocab = base.vocab().clone();
        let mut from_delta = vec![None; base.vocab().len() + delta.vocab().len()];
        for (term, name) in delta.vocab().iter() {
            from_delta[vocab.intern(name) as usize] = Some(term);
        }
        let mut lists = ListsWriter::with_capacity(vocab.len(), 0);
        let beyond = IndexError::Corrupt("posting beyond its index's documents");
        for (term, fed_by) in from_delta[..vocab.len()].iter().enumerate() {
            let mut past = false;
            if term < base.vocab().len() {
                base.postings(term as TermId).scan(|p| {
                    past |= p.doc >= offset;
                    lists.put(p);
                })?;
            }
            if let (Some(fed_by), false) = (fed_by, past) {
                delta.postings(*fed_by).scan(|p| {
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
        let mut doc_lengths: Vec<u32> = (0..offset).map(|d| base.doc_length(d)).collect();
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

    proptest! {
        fn merge_always_equals_scratch_build(first in docs("[a-d]"), second in docs("[a-e]")) {
            let merged = merge(&build(&first), &[build(&second)]).unwrap();
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

        /// One merge of `n` deltas writes the bytes of `n` two-way
        /// merges, and of a scratch build over every document. A delta's
        /// `W_d` is summed in its own term order, which can differ from a
        /// scratch build's in the last bit, so the scratch build is
        /// compared with the merge's weights put in.
        fn one_merge_of_many_deltas_equals_a_chain_and_a_scratch_build(
            first in docs("[a-d]"),
            rest in proptest::collection::vec(docs("[a-g]"), 0..=4),
        ) {
            let base = build(&first);
            let deltas: Vec<InvertedIndex> = rest.iter().map(|d| build(d)).collect();
            let merged = merge(&base, &deltas).unwrap();
            let chain = deltas.iter().fold(base.clone(), |m, delta| {
                merge(&m, std::slice::from_ref(delta)).unwrap()
            });
            prop_assert!(merged.to_bytes() == chain.to_bytes(), "chain differs");
            let all: Vec<Vec<String>> = rest.iter().fold(first.clone(), |mut all, d| {
                all.extend_from_slice(d);
                all
            });
            let scratch = build(&all);
            for d in 0..scratch.num_docs() as DocId {
                let (m, s) = (merged.weights().weight(d), scratch.weights().weight(d));
                prop_assert!((m - s).abs() <= 1e-12 * s, "W_{} {} vs {}", d, m, s);
            }
            let scratch = scratch.with_weights(merged.weights().clone());
            prop_assert!(merged.to_bytes() == scratch.to_bytes(), "scratch differs");
        }

        /// Whatever one flipped byte does to a base that still loads,
        /// the copying merge accepts and rejects what the recoding one
        /// did, and writes the same bytes.
        fn a_damaged_base_merges_as_the_recoding_merge_did(
            first in docs("[a-d]"),
            second in docs("[a-e]"),
            back in any::<u64>(),
            flip in 1u8..=255,
        ) {
            // The lists, and their heads, are the last bytes.
            let mut bytes = build(&first).to_bytes();
            let at = bytes.len() - 1 - (back % bytes.len().min(64) as u64) as usize;
            bytes[at] ^= flip;
            let Ok(base) = InvertedIndex::from_bytes(&bytes) else {
                return Ok(());
            };
            let delta = build(&second);
            let copied = merge(&base, std::slice::from_ref(&delta)).map(|m| m.to_bytes());
            let recoded = recoding_merge(&base, &delta).map(|m| m.to_bytes());
            prop_assert!(copied == recoded, "byte {}: {:?} vs {:?}", at,
                copied.as_ref().err(), recoded.as_ref().err());
        }
    }
}
