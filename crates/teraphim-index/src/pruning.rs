//! Static index pruning by in-document frequency.
//!
//! §5 of the paper considers reducing index size by dropping posting
//! entries whose contribution to similarity is small — "for term
//! occurrences that can only make a small contribution ... because both
//! `f_dt` and `w_t` are small" — and reports that "in preliminary
//! experiments, applying thresholds that only reduced index size by a
//! third severely degraded effectiveness". This module implements that
//! pruning so the `thresholding` bench can reproduce the observation.
//!
//! A posting `(d, f_dt)` of term `t` is dropped when `f_dt` is below a
//! threshold **and** the term is common (its `f_t` exceeds a cutoff, so
//! `w_t = ln(N/f_t + 1)` is small). Rare terms are never pruned — their
//! postings carry most of the similarity signal.

use crate::builder::InvertedIndex;
use crate::postings::ListsWriter;
use crate::{IndexError, TermId};

/// Pruning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruneParams {
    /// Drop postings with `f_dt` strictly below this value...
    pub min_f_dt: u32,
    /// ...but only for terms appearing in more than this many documents
    /// (common terms, whose query weight is small anyway).
    pub common_df_cutoff: u64,
}

impl Default for PruneParams {
    fn default() -> Self {
        PruneParams {
            min_f_dt: 2,
            common_df_cutoff: 16,
        }
    }
}

/// Statistics of a pruning pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PruneReport {
    /// Postings in the original index.
    pub postings_before: u64,
    /// Postings surviving the prune.
    pub postings_after: u64,
    /// Compressed postings bytes before.
    pub bytes_before: usize,
    /// Compressed postings bytes after.
    pub bytes_after: usize,
}

impl PruneReport {
    /// Fraction of compressed postings bytes retained.
    pub fn size_ratio(&self) -> f64 {
        if self.bytes_before == 0 {
            return 1.0;
        }
        self.bytes_after as f64 / self.bytes_before as f64
    }
}

/// Builds a pruned copy of `index`.
///
/// The pruned index keeps the original vocabulary (term ids are
/// preserved), document count and document weights — pruning is an
/// *index* approximation, not a re-weighting; this matches how a system
/// would deploy it (the weights file is untouched).
///
/// # Errors
///
/// Returns [`IndexError::Corrupt`] if the source index fails to decode.
pub fn prune(
    index: &InvertedIndex,
    params: PruneParams,
) -> Result<(InvertedIndex, PruneReport), IndexError> {
    let mut report = PruneReport {
        bytes_before: index.postings_bytes(),
        ..PruneReport::default()
    };
    // Each list filtered in turn; a document's length becomes the sum of
    // its surviving frequencies.
    let terms = index.vocab().len();
    let mut lists = ListsWriter::with_capacity(terms, index.postings_bytes());
    let mut lengths = vec![0u64; index.num_docs() as usize];
    for term in 0..terms as TermId {
        let list = index.postings(term);
        let is_common = u64::from(list.len()) > params.common_df_cutoff;
        for posting in list.iter() {
            let posting = posting?;
            report.postings_before += 1;
            if is_common && posting.f_dt < params.min_f_dt {
                continue;
            }
            report.postings_after += 1;
            *lengths
                .get_mut(posting.doc as usize)
                .ok_or(IndexError::Corrupt("posting beyond the index's documents"))? +=
                u64::from(posting.f_dt);
            lists.put(posting);
        }
        lists.close();
    }
    let pruned = InvertedIndex::from_merge_parts(
        index.vocab().clone(),
        lists.finish(),
        // Similarity normalization must not silently change.
        index.weights().clone(),
        lengths.into_iter().map(|length| length as u32).collect(),
    );
    report.bytes_after = pruned.postings_bytes();
    Ok((pruned, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;

    fn sample() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        // "common" appears in every doc with varying f_dt; "rare" in one.
        b.add_document(&["common", "rare", "common"]);
        b.add_document(&["common"]);
        b.add_document(&["common", "common", "common"]);
        b.add_document(&["common", "other"]);
        b.build()
    }

    #[test]
    fn prunes_low_frequency_postings_of_common_terms() {
        let ix = sample();
        let (pruned, report) = prune(
            &ix,
            PruneParams {
                min_f_dt: 2,
                common_df_cutoff: 3,
            },
        )
        .unwrap();
        let common = pruned.vocab().term_id("common").unwrap();
        // Docs 1 and 3 had f_dt = 1 and are dropped; docs 0 and 2 stay.
        assert_eq!(pruned.postings(common).len(), 2);
        assert_eq!(pruned.postings(common).get(0), Some(2));
        assert_eq!(pruned.postings(common).get(2), Some(3));
        assert!(report.postings_after < report.postings_before);
    }

    #[test]
    fn rare_terms_are_never_pruned() {
        let ix = sample();
        let (pruned, _) = prune(
            &ix,
            PruneParams {
                min_f_dt: 100,
                common_df_cutoff: 3,
            },
        )
        .unwrap();
        let rare = pruned.vocab().term_id("rare").unwrap();
        assert_eq!(pruned.postings(rare).len(), 1);
        let other = pruned.vocab().term_id("other").unwrap();
        assert_eq!(pruned.postings(other).len(), 1);
    }

    #[test]
    fn vocabulary_and_ids_are_preserved() {
        let ix = sample();
        let (pruned, _) = prune(&ix, PruneParams::default()).unwrap();
        assert_eq!(pruned.vocab().len(), ix.vocab().len());
        for (id, term) in ix.vocab().iter() {
            assert_eq!(pruned.vocab().term(id), term);
        }
        assert_eq!(pruned.num_docs(), ix.num_docs());
    }

    #[test]
    fn document_weights_are_untouched() {
        let ix = sample();
        let (pruned, _) = prune(
            &ix,
            PruneParams {
                min_f_dt: 2,
                common_df_cutoff: 1,
            },
        )
        .unwrap();
        for d in 0..ix.num_docs() as crate::DocId {
            assert_eq!(pruned.weights().weight(d), ix.weights().weight(d));
        }
    }

    #[test]
    fn noop_prune_is_identity_in_size() {
        let ix = sample();
        let (pruned, report) = prune(
            &ix,
            PruneParams {
                min_f_dt: 0,
                common_df_cutoff: 0,
            },
        )
        .unwrap();
        assert_eq!(report.postings_before, report.postings_after);
        assert_eq!(pruned.postings_bytes(), ix.postings_bytes());
        assert!((report.size_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn size_ratio_of_empty_index_is_one() {
        let ix = IndexBuilder::new().build();
        let (_, report) = prune(&ix, PruneParams::default()).unwrap();
        assert_eq!(report.size_ratio(), 1.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::builder::IndexBuilder;
    use proptest::prelude::*;

    /// `prune` as it was: per-document `(term, f_dt)` survivors fed to a
    /// builder, the original weights put back.
    fn prune_oracle(index: &InvertedIndex, params: PruneParams) -> InvertedIndex {
        let mut per_doc: Vec<Vec<(&str, u32)>> = vec![Vec::new(); index.num_docs() as usize];
        for (term_id, term) in index.vocab().iter() {
            let list = index.postings(term_id);
            let is_common = u64::from(list.len()) > params.common_df_cutoff;
            for posting in list.iter() {
                let posting = posting.unwrap();
                if !(is_common && posting.f_dt < params.min_f_dt) {
                    per_doc[posting.doc as usize].push((term, posting.f_dt));
                }
            }
        }
        crate::builder::built_from_freqs(index.vocab().iter().map(|(_, t)| t), &per_doc)
            .with_weights(index.weights().clone())
    }

    proptest! {
        /// The pruned index is the one the builder made, to the byte,
        /// documents left with no terms included.
        fn pruned_bytes_equal_the_builders(
            docs in proptest::collection::vec(proptest::collection::vec("[a-f]", 0..8), 0..40),
            min_f_dt in 0u32..4,
            common_df_cutoff in 0u64..12,
        ) {
            let mut b = IndexBuilder::new();
            for d in &docs {
                b.add_document(d);
            }
            let index = b.build();
            let params = PruneParams { min_f_dt, common_df_cutoff };
            let (pruned, report) = prune(&index, params).unwrap();
            let oracle = prune_oracle(&index, params);
            prop_assert!(pruned.to_bytes() == oracle.to_bytes());
            let postings = |ix: &InvertedIndex| -> u64 {
                ix.vocab().iter().map(|(t, _)| ix.stats().doc_freq(t)).sum()
            };
            prop_assert_eq!(report.postings_before, postings(&index));
            prop_assert_eq!(report.postings_after, postings(&oracle));
            prop_assert_eq!(report.bytes_after, oracle.postings_bytes());
        }
    }
}
