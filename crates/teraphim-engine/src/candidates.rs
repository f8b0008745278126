//! Candidate-restricted scoring for the Central Index methodology.
//!
//! A CI librarian receives a list of candidate documents (the expanded
//! groups) plus global query weights, and must "consult its local index
//! to determine a similarity value for that document". Using the
//! self-indexing skip cursors from `teraphim-index`, only the blocks of
//! each inverted list that could contain a candidate are decoded — the
//! mechanism the paper credits with cutting librarian CPU cost "by a
//! factor of two or more" at small `k'`.

use crate::ranking::{w_dt_lookup, RankScratch, ScoredDoc, WeightedTerm};
use crate::EngineError;
use teraphim_index::{DocId, InvertedIndex};

/// Scores exactly `candidates` (any order, duplicates tolerated) against
/// the weighted query, seeking through each list's skip table (built on
/// the list's first use; the index is only read). `qnorm` is explicit
/// for the reason `ranking::rank_with_norm` gives: in distributed
/// scoring it covers terms this index has never seen.
///
/// Returns `(scores, postings_decoded)`. The score vector has one entry
/// per *distinct* candidate, in increasing document order; documents
/// containing none of the query terms score 0.0. Each score is the one
/// full-list ranking gives the document, to the bit: the same `w_dt`
/// table, summed in the same term order. `postings_decoded` counts index
/// postings actually decompressed, the unit of the CPU cost model.
/// `scratch` lends the sorted-candidate and partial-sum vectors.
///
/// # Errors
///
/// Returns [`EngineError::Corrupt`] if an inverted list fails to decode.
pub fn score_candidates(
    index: &InvertedIndex,
    terms: &[WeightedTerm],
    qnorm: f64,
    candidates: &[DocId],
    scratch: &mut RankScratch,
) -> Result<(Vec<ScoredDoc>, u64), EngineError> {
    let sorted = &mut scratch.candidates;
    sorted.clear();
    sorted.extend_from_slice(candidates);
    sorted.sort_unstable();
    sorted.dedup();

    let sums = &mut scratch.sums;
    sums.clear();
    sums.resize(sorted.len(), 0.0);
    let w_dt_of = w_dt_lookup();
    let mut decoded = 0u64;
    for wt in terms {
        if wt.w_qt == 0.0 {
            continue;
        }
        let mut cursor = index.skip_cursor(wt.term)?;
        for (i, &doc) in sorted.iter().enumerate() {
            match cursor.seek(doc)? {
                Some(p) if p.doc == doc => sums[i] += wt.w_qt * w_dt_of(p.f_dt),
                Some(_) => {}
                None => break,
            }
        }
        decoded += cursor.decoded();
    }
    let weights = index.weights();
    let scores = sorted.iter().zip(sums.iter()).map(|(&doc, &sum)| {
        let wd = weights.weight(doc);
        let score = if wd > 0.0 && qnorm > 0.0 {
            sum / (wd * qnorm)
        } else {
            0.0
        };
        ScoredDoc { doc, score }
    });
    Ok((scores.collect(), decoded))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::{local_weights, rank};
    use teraphim_index::IndexBuilder;

    fn index_of(docs: &[&[&str]]) -> InvertedIndex {
        let mut b = IndexBuilder::new();
        for d in docs {
            let terms: Vec<String> = d.iter().map(|s| (*s).to_owned()).collect();
            b.add_document(&terms);
        }
        b.build()
    }

    type Scored = Result<(Vec<ScoredDoc>, u64), EngineError>;

    /// The scorer, and the full-list scorer it replaced (the oracle),
    /// under the query's own norm.
    pub(super) fn skipping(ix: &InvertedIndex, w: &[WeightedTerm], candidates: &[DocId]) -> Scored {
        score_candidates(ix, w, norm(w), candidates, &mut RankScratch::new())
    }

    pub(super) fn full_scan(
        ix: &InvertedIndex,
        w: &[WeightedTerm],
        candidates: &[DocId],
    ) -> Scored {
        crate::ranking::oracle::score_candidates(ix, w, norm(w), candidates)
    }

    fn norm(w: &[WeightedTerm]) -> f64 {
        teraphim_index::similarity::query_norm(w.iter().map(|t| t.w_qt))
    }

    fn weights_for(ix: &InvertedIndex, terms: &[&str]) -> Vec<WeightedTerm> {
        let pairs: Vec<(teraphim_index::TermId, u32)> = terms
            .iter()
            .filter_map(|t| ix.vocab().term_id(t).map(|id| (id, 1u32)))
            .collect();
        local_weights(ix, &pairs)
    }

    #[test]
    fn candidate_scores_equal_full_ranking_scores() {
        let ix = index_of(&[
            &["cat", "dog"],
            &["cat"],
            &["dog", "dog", "bird"],
            &["emu"],
            &["cat", "bird"],
        ]);
        let w = weights_for(&ix, &["cat", "bird"]);
        let full = rank(&ix, &w, usize::MAX);
        let (scored, _) = skipping(&ix, &w, &[0, 1, 2, 3, 4]).unwrap();
        for s in &scored {
            let expected = full
                .iter()
                .find(|f| f.doc == s.doc)
                .map_or(0.0, |f| f.score);
            assert!((s.score - expected).abs() < 1e-12, "doc {}", s.doc);
        }
    }

    #[test]
    fn skipped_and_full_scan_agree() {
        let docs: Vec<Vec<String>> = (0..500)
            .map(|i| {
                let mut d = vec![format!("w{}", i % 7)];
                if i % 3 == 0 {
                    d.push("triple".to_owned());
                }
                d
            })
            .collect();
        let mut b = IndexBuilder::new();
        for d in &docs {
            b.add_document(d);
        }
        let ix = b.build();
        let w = weights_for(&ix, &["triple", "w3"]);
        let candidates: Vec<DocId> = (0..500).step_by(17).collect();
        let (skipped, dec_skip) = skipping(&ix, &w, &candidates).unwrap();
        let (full, dec_full) = full_scan(&ix, &w, &candidates).unwrap();
        assert_eq!(skipped.len(), full.len());
        for (a, b) in skipped.iter().zip(&full) {
            assert_eq!(a.doc, b.doc);
            assert!((a.score - b.score).abs() < 1e-12);
        }
        assert!(
            dec_skip < dec_full,
            "skipping decoded {dec_skip} vs full {dec_full}"
        );
    }

    #[test]
    fn duplicates_and_order_are_normalized() {
        let ix = index_of(&[&["a"], &["a", "b"]]);
        let w = weights_for(&ix, &["a"]);
        let (scored, _) = skipping(&ix, &w, &[1, 0, 1, 0]).unwrap();
        assert_eq!(scored.len(), 2);
        assert_eq!(scored[0].doc, 0);
        assert_eq!(scored[1].doc, 1);
    }

    #[test]
    fn nonmatching_candidates_score_zero() {
        let ix = index_of(&[&["a"], &["b"], &["c"]]);
        let w = weights_for(&ix, &["a"]);
        let (scored, _) = skipping(&ix, &w, &[1, 2]).unwrap();
        assert!(scored.iter().all(|s| s.score == 0.0));
    }

    /// A list whose second document id passes `u32::MAX`: building its
    /// skip table reports it, and the query fails, in a debug build and
    /// in release alike.
    #[test]
    fn a_document_id_past_u32_is_corrupt_not_a_panic() {
        use crate::ranking::oracle::index_from_lists;
        use teraphim_compress::bitio::BitWriter;
        use teraphim_compress::codes::write_gamma;
        use teraphim_index::{IndexError, PostingsList};
        // Document u32::MAX - 1 (its gap is coded as doc + 1), then a
        // gap of 2.
        let mut writer = BitWriter::new();
        for code in [u64::from(u32::MAX), 1, 2, 1] {
            write_gamma(&mut writer, code);
        }
        let bytes = writer.into_bytes();
        let list = PostingsList::from_raw_parts(&bytes, 2, u32::MAX);
        let index = index_from_lists(&[1.0; 4], &[list]);
        assert!(matches!(
            index.skip_cursor(0),
            Err(IndexError::Corrupt("document id overflows"))
        ));
        let terms = [WeightedTerm { term: 0, w_qt: 1.0 }];
        assert!(matches!(
            skipping(&index, &terms, &[0, 3]),
            Err(EngineError::Corrupt(_))
        ));
    }

    /// A loaded index may hold a list that does not decode. Building its
    /// skip table used to panic the worker; now the query fails.
    #[test]
    fn skipping_reports_a_malformed_list_instead_of_panicking() {
        use crate::ranking::oracle::{index_from_lists, list_of};
        use teraphim_index::PostingsList;
        let good = list_of((0..100).map(|d| (d, d % 3 + 1)).collect());
        let good = good.view();
        let cut = PostingsList::from_raw_parts(
            &good.as_bytes()[..good.byte_len() - 2],
            good.len(),
            good.last_doc(),
        );
        let terms = [WeightedTerm { term: 1, w_qt: 1.0 }];
        let corrupt = index_from_lists(&[1.0; 100], &[good, cut]);
        assert!(matches!(
            skipping(&corrupt, &terms, &[3, 4]),
            Err(EngineError::Corrupt(_))
        ));
        // The healthy list beside it still scores, and only it has a table.
        let healthy = [WeightedTerm { term: 0, w_qt: 1.0 }];
        assert!(skipping(&corrupt, &healthy, &[3, 4]).is_ok());
        assert!(corrupt.has_skips(0) && !corrupt.has_skips(1));
    }

    #[test]
    fn empty_candidates_give_empty_scores() {
        let ix = index_of(&[&["a"]]);
        let w = weights_for(&ix, &["a"]);
        let (scored, decoded) = skipping(&ix, &w, &[]).unwrap();
        assert!(scored.is_empty());
        assert_eq!(decoded, 0);
    }

    #[test]
    fn empty_query_scores_all_zero() {
        let ix = index_of(&[&["a"], &["b"]]);
        let (scored, _) = skipping(&ix, &[], &[0, 1]).unwrap();
        assert_eq!(scored.len(), 2);
        assert!(scored.iter().all(|s| s.score == 0.0));
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{full_scan, skipping};
    use super::*;
    use crate::ranking::{local_weights, oracle};
    use proptest::prelude::*;
    use teraphim_index::IndexBuilder;

    proptest! {
        fn skip_and_full_scan_always_agree(
            docs in proptest::collection::vec(
                proptest::collection::vec("[a-e]", 1..6),
                1..60,
            ),
            candidate_seed in proptest::collection::vec(0u32..60, 0..20),
        ) {
            let mut b = IndexBuilder::new();
            for d in &docs {
                b.add_document(d);
            }
            let ix = b.build();
            let n = docs.len() as u32;
            let candidates: Vec<DocId> =
                candidate_seed.into_iter().map(|c| c % n.max(1)).collect();
            let terms: Vec<(teraphim_index::TermId, u32)> =
                ix.vocab().iter().map(|(id, _)| (id, 1u32)).collect();
            let w = local_weights(&ix, &terms);
            // Bit for bit, and a full scan decodes every posting of the
            // query's lists: what the simulator charges it.
            let (skipped, _) = skipping(&ix, &w, &candidates).unwrap();
            let (full, scanned) = full_scan(&ix, &w, &candidates).unwrap();
            prop_assert_eq!(oracle::bits(&skipped), oracle::bits(&full));
            let lengths: u64 = w.iter().map(|t| u64::from(ix.postings(t.term).len())).sum();
            prop_assert_eq!(scanned, lengths);
        }
    }
}
