//! Query-time thresholding: accumulator-limited evaluation.
//!
//! §5 of the paper cites Persin, Zobel & Sacks-Davis (JASIS 1996):
//! per-query thresholding can cut "the volume of index information
//! processed ... by a factor of five without reducing effectiveness".
//! This module implements the classic *quit/continue* accumulator
//! discipline of that line of work:
//!
//! * query terms are processed in **decreasing weight** order (rarest —
//!   most informative — first);
//! * once the accumulator table reaches its budget, **continue** mode
//!   stops *creating* accumulators but keeps updating existing ones,
//!   while **quit** mode stops processing lists entirely.
//!
//! The `thresholding` bench binary measures the processed-postings
//! reduction against the effectiveness cost, alongside the *static*
//! pruning of `teraphim_index::pruning` whose effectiveness the paper
//! found "severely degraded".

use crate::ranking::{accumulate, drain_scores, RankScratch, ScoredDoc, WeightedTerm};
use std::cmp::Ordering;
use teraphim_index::similarity::query_norm;
use teraphim_index::InvertedIndex;

/// What to do when the accumulator budget is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimitMode {
    /// Stop creating new accumulators; keep updating existing ones.
    Continue,
    /// Stop processing inverted lists entirely.
    Quit,
}

/// Result of an accumulator-limited evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct LimitedRanking {
    /// The top-`k` ranking.
    pub hits: Vec<ScoredDoc>,
    /// Postings actually decoded and applied.
    pub postings_processed: u64,
    /// Accumulators allocated.
    pub accumulators_used: usize,
}

/// Evaluates the cosine measure with at most `max_accumulators`
/// candidate documents.
///
/// Terms are processed rarest-first; ties in final scores break by
/// document id, as in unlimited ranking, so `max_accumulators = usize::MAX`
/// reproduces `ranking::rank` exactly.
pub fn rank_limited(
    index: &InvertedIndex,
    terms: &[WeightedTerm],
    k: usize,
    max_accumulators: usize,
    mode: LimitMode,
) -> LimitedRanking {
    // Rarest (highest-weight) terms first.
    let mut ordered: Vec<WeightedTerm> = terms.to_vec();
    ordered.sort_by(|a, b| {
        b.w_qt
            .partial_cmp(&a.w_qt)
            .unwrap_or(Ordering::Equal)
            .then(a.term.cmp(&b.term))
    });

    let mut scratch = RankScratch::new();
    let (postings_processed, _) = accumulate(
        index,
        &ordered,
        &mut scratch,
        max_accumulators,
        mode == LimitMode::Quit,
    );

    let qnorm = query_norm(terms.iter().map(|t| t.w_qt));
    let mut hits: Vec<ScoredDoc> = Vec::new();
    drain_scores(index, &mut scratch, qnorm, |scored| hits.push(scored));
    hits.sort_by(ScoredDoc::ranking_cmp);
    let accumulators_used = hits.len();
    hits.truncate(k);
    LimitedRanking {
        hits,
        postings_processed,
        accumulators_used,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::{local_weights, rank};
    use std::collections::HashMap;
    use teraphim_index::{DocId, IndexBuilder};

    fn index_of(docs: &[&[&str]]) -> InvertedIndex {
        let mut b = IndexBuilder::new();
        for d in docs {
            let terms: Vec<String> = d.iter().map(|s| (*s).to_owned()).collect();
            b.add_document(&terms);
        }
        b.build()
    }

    fn weights(ix: &InvertedIndex) -> Vec<WeightedTerm> {
        let terms: Vec<(teraphim_index::TermId, u32)> =
            ix.vocab().iter().map(|(id, _)| (id, 1u32)).collect();
        local_weights(ix, &terms)
    }

    #[test]
    fn unlimited_matches_exact_ranking() {
        let ix = index_of(&[
            &["a", "b"],
            &["b", "c"],
            &["a", "a", "c"],
            &["d"],
            &["a", "d", "d"],
        ]);
        let w = weights(&ix);
        let exact = rank(&ix, &w, usize::MAX);
        let exact_scores: HashMap<DocId, f64> = exact.iter().map(|h| (h.doc, h.score)).collect();
        for mode in [LimitMode::Continue, LimitMode::Quit] {
            let limited = rank_limited(&ix, &w, usize::MAX, usize::MAX, mode);
            assert_eq!(limited.hits.len(), exact.len());
            for h in &limited.hits {
                let expected = exact_scores[&h.doc];
                assert!((h.score - expected).abs() < 1e-9, "doc {}", h.doc);
            }
        }
    }

    #[test]
    fn budget_caps_accumulators() {
        let docs: Vec<Vec<String>> = (0..50).map(|i| vec![format!("t{}", i % 5)]).collect();
        let refs: Vec<&[String]> = docs.iter().map(Vec::as_slice).collect();
        let mut b = IndexBuilder::new();
        for d in refs {
            b.add_document(d);
        }
        let ix = b.build();
        let w = weights(&ix);
        let limited = rank_limited(&ix, &w, 100, 7, LimitMode::Continue);
        assert!(limited.accumulators_used <= 7);
    }

    #[test]
    fn quit_processes_fewer_postings_than_continue() {
        // Many docs sharing common terms: quit stops early.
        let docs: Vec<Vec<String>> = (0..100)
            .map(|i| vec!["common".to_owned(), format!("rare{i}")])
            .collect();
        let refs: Vec<&[String]> = docs.iter().map(Vec::as_slice).collect();
        let mut b = IndexBuilder::new();
        for d in refs {
            b.add_document(d);
        }
        let ix = b.build();
        let w = weights(&ix);
        let quit = rank_limited(&ix, &w, 10, 5, LimitMode::Quit);
        let cont = rank_limited(&ix, &w, 10, 5, LimitMode::Continue);
        assert!(quit.postings_processed < cont.postings_processed);
    }

    #[test]
    fn rare_terms_are_processed_first() {
        // One rare term in doc 9, one common term everywhere. With a
        // budget of 1, the single accumulator must belong to the rare
        // term's document.
        let docs: Vec<Vec<String>> = (0..10)
            .map(|i| {
                if i == 9 {
                    vec!["common".to_owned(), "rare".to_owned()]
                } else {
                    vec!["common".to_owned()]
                }
            })
            .collect();
        let refs: Vec<&[String]> = docs.iter().map(Vec::as_slice).collect();
        let mut b = IndexBuilder::new();
        for d in refs {
            b.add_document(d);
        }
        let ix = b.build();
        let w = weights(&ix);
        let limited = rank_limited(&ix, &w, 10, 1, LimitMode::Continue);
        assert_eq!(limited.hits.len(), 1);
        assert_eq!(limited.hits[0].doc, 9);
    }

    #[test]
    fn top_ranks_survive_moderate_budgets() {
        let docs: Vec<Vec<String>> = (0..60)
            .map(|i| {
                let mut d = vec![format!("w{}", i % 6)];
                if i % 10 == 0 {
                    d.push("signal".to_owned());
                    d.push("signal".to_owned());
                }
                d
            })
            .collect();
        let refs: Vec<&[String]> = docs.iter().map(Vec::as_slice).collect();
        let mut b = IndexBuilder::new();
        for d in refs {
            b.add_document(d);
        }
        let ix = b.build();
        let w = weights(&ix);
        let exact = rank(&ix, &w, usize::MAX);
        let limited = rank_limited(&ix, &w, 3, 15, LimitMode::Continue);
        // The top-3 of the exact ranking must survive a 15-accumulator
        // budget (rare "signal" term processed first).
        let exact_top: Vec<DocId> = exact.iter().take(3).map(|h| h.doc).collect();
        let limited_top: Vec<DocId> = limited.hits.iter().map(|h| h.doc).collect();
        assert_eq!(exact_top, limited_top);
    }

    #[test]
    fn empty_query_is_empty() {
        let ix = index_of(&[&["a"]]);
        let limited = rank_limited(&ix, &[], 5, 10, LimitMode::Continue);
        assert!(limited.hits.is_empty());
        assert_eq!(limited.postings_processed, 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ranking::oracle::{self, bits, index_from_lists, list_of};
    use crate::ranking::{local_weights, rank};
    use proptest::prelude::*;
    use std::collections::hash_map::Entry;
    use std::collections::HashMap;
    use teraphim_index::similarity::w_dt;
    use teraphim_index::{DocId, IndexBuilder};

    /// `rank_limited` as it was over a `HashMap`: the oracle.
    fn rank_limited_oracle(
        index: &InvertedIndex,
        terms: &[WeightedTerm],
        k: usize,
        max_accumulators: usize,
        mode: LimitMode,
    ) -> LimitedRanking {
        let mut ordered: Vec<WeightedTerm> = terms.to_vec();
        ordered.sort_by(|a, b| {
            b.w_qt
                .partial_cmp(&a.w_qt)
                .unwrap_or(Ordering::Equal)
                .then(a.term.cmp(&b.term))
        });
        let mut acc: HashMap<DocId, f64> = HashMap::new();
        let mut postings_processed = 0u64;
        let mut full = false;
        for wt in &ordered {
            if wt.w_qt == 0.0 {
                continue;
            }
            if full && mode == LimitMode::Quit {
                break;
            }
            for posting in index.postings(wt.term).iter().flatten() {
                postings_processed += 1;
                let contribution = wt.w_qt * w_dt(u64::from(posting.f_dt));
                let len = acc.len();
                match acc.entry(posting.doc) {
                    Entry::Occupied(mut e) => *e.get_mut() += contribution,
                    Entry::Vacant(e) => {
                        if len < max_accumulators {
                            e.insert(contribution);
                        }
                    }
                }
                if acc.len() >= max_accumulators {
                    full = true;
                }
            }
        }
        let qnorm = query_norm(terms.iter().map(|t| t.w_qt));
        let mut hits = oracle::ranking(index, acc, qnorm);
        let accumulators_used = hits.len();
        hits.truncate(k);
        LimitedRanking {
            hits,
            postings_processed,
            accumulators_used,
        }
    }

    proptest! {
        /// Accumulator-limited evaluation over the dense kernel against
        /// the `HashMap` oracle: same hits to the bit, same postings
        /// processed, same accumulators used, for every budget (zero and
        /// unlimited included) in both modes, with negative weights and
        /// duplicate terms.
        fn limited_kernel_matches_the_hashmap_oracle(
            doc_weights in proptest::collection::vec((0u8..8, 0.1f64..9.0), 1..50),
            lists in proptest::collection::vec(
                proptest::collection::vec((0u32..50, 1u32..600), 0..40),
                1..6,
            ),
            terms in proptest::collection::vec((0usize..6, -3.0f64..3.0, 0u8..6), 0..8),
            budgets in proptest::collection::vec(0usize..40, 1..4),
            k in 0usize..30,
        ) {
            let n = doc_weights.len() as u32;
            let doc_weights: Vec<f64> = doc_weights
                .into_iter()
                .map(|(kind, w)| if kind == 0 { 0.0 } else { w })
                .collect();
            // Every posting names a document the index has: one beyond
            // the weights table took an accumulator in the map, and takes
            // none in the dense table.
            let lists: Vec<_> = lists
                .into_iter()
                .map(|l| list_of(l.into_iter().map(|(d, f)| (d % n, f)).collect()))
                .collect();
            let views: Vec<_> = lists.iter().map(|l| l.view()).collect();
            let index = index_from_lists(&doc_weights, &views);
            let terms: Vec<WeightedTerm> = terms
                .into_iter()
                .map(|(t, w, kind)| WeightedTerm {
                    term: (t % lists.len()) as teraphim_index::TermId,
                    w_qt: if kind == 0 { 0.0 } else { w },
                })
                .collect();
            for budget in budgets.into_iter().chain([usize::MAX]) {
                for mode in [LimitMode::Continue, LimitMode::Quit] {
                    let got = rank_limited(&index, &terms, k, budget, mode);
                    let want = rank_limited_oracle(&index, &terms, k, budget, mode);
                    prop_assert_eq!(bits(&got.hits), bits(&want.hits), "budget {}", budget);
                    prop_assert_eq!(got.postings_processed, want.postings_processed);
                    prop_assert_eq!(got.accumulators_used, want.accumulators_used);
                }
            }
        }

        fn unlimited_budget_equals_exact(
            docs in proptest::collection::vec(
                proptest::collection::vec("[a-d]", 1..6),
                1..40,
            ),
        ) {
            let mut b = IndexBuilder::new();
            for d in &docs {
                b.add_document(d);
            }
            let ix = b.build();
            let terms: Vec<(teraphim_index::TermId, u32)> =
                ix.vocab().iter().map(|(id, _)| (id, 1u32)).collect();
            let w = local_weights(&ix, &terms);
            let exact = rank(&ix, &w, usize::MAX);
            let limited = rank_limited(&ix, &w, usize::MAX, usize::MAX, LimitMode::Quit);
            prop_assert_eq!(limited.hits.len(), exact.len());
            // Terms are processed in a different order (rarest first), so
            // floating-point sums — and hence near-tie orderings — can
            // differ; compare per-document scores instead.
            let exact_scores: std::collections::HashMap<DocId, f64> =
                exact.iter().map(|h| (h.doc, h.score)).collect();
            for h in &limited.hits {
                let expected = exact_scores.get(&h.doc).copied().unwrap_or(f64::NAN);
                prop_assert!((h.score - expected).abs() < 1e-9, "doc {}", h.doc);
            }
        }

        fn budget_is_respected(
            docs in proptest::collection::vec(
                proptest::collection::vec("[a-c]", 1..4),
                1..40,
            ),
            budget in 1usize..20,
        ) {
            let mut b = IndexBuilder::new();
            for d in &docs {
                b.add_document(d);
            }
            let ix = b.build();
            let terms: Vec<(teraphim_index::TermId, u32)> =
                ix.vocab().iter().map(|(id, _)| (id, 1u32)).collect();
            let w = local_weights(&ix, &terms);
            for mode in [LimitMode::Continue, LimitMode::Quit] {
                let limited = rank_limited(&ix, &w, 100, budget, mode);
                prop_assert!(limited.accumulators_used <= budget);
            }
        }
    }
}
