//! Collection selection (server ranking).
//!
//! The paper's conclusion: "Net savings are possible only if, given a
//! query, it can be reliably determined that many of the subcollections
//! can be neglected" — and §3 notes "there is evidence that the
//! vocabularies of the subcollections can be used to guide the search"
//! (GlOSS, Yuwono & Lee, Zobel's lexicon inspection).
//!
//! This module implements a GlOSS-style *goodness* score from exactly
//! the state a Central Vocabulary receptionist already holds — the
//! per-librarian document frequencies gathered during CV preprocessing:
//!
//! ```text
//! goodness(L, q) = Σ_{t ∈ q} w_qt(global) · ln(1 + f_t,L · N̄ / N_L)
//! ```
//!
//! where `f_t,L` is term `t`'s document frequency at librarian `L`,
//! `N_L` its collection size and `N̄` the mean collection size (the
//! ratio normalizes away raw collection size, so a big librarian is not
//! selected merely for being big). Librarians are ranked by goodness and
//! only the top `n` receive the query.

use teraphim_index::similarity;
use teraphim_index::{CollectionStats, TermId, Vocabulary};

/// Per-librarian statistics the selector consults: collected once during
/// CV preprocessing.
#[derive(Debug, Clone, Default)]
pub struct SelectionState {
    /// Per-librarian document frequencies, indexed by *global* term id.
    per_librarian: Vec<CollectionStats>,
}

impl SelectionState {
    /// Creates an empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one librarian's statistics (aligned to the global
    /// vocabulary) in registration order.
    pub fn push_librarian(&mut self, stats: CollectionStats) {
        self.per_librarian.push(stats);
    }

    /// Per-librarian collection sizes in registration order — what the
    /// degradation path needs to report the fraction of the global
    /// collection a partial answer covers.
    pub fn librarian_num_docs(&self) -> Vec<u64> {
        self.per_librarian.iter().map(|s| s.num_docs()).collect()
    }

    /// Ranks librarians by goodness for a query given the global
    /// vocabulary and statistics; best first, ties broken by index.
    ///
    /// Query terms are `(term string, f_qt)` pairs as produced by
    /// `teraphim_text::Analyzer::term_counts`.
    pub fn rank_librarians(
        &self,
        global_vocab: &Vocabulary,
        global_stats: &CollectionStats,
        terms: &[(String, u32)],
    ) -> Vec<(usize, f64)> {
        let mean_docs = if self.per_librarian.is_empty() {
            0.0
        } else {
            self.per_librarian
                .iter()
                .map(|s| s.num_docs() as f64)
                .sum::<f64>()
                / self.per_librarian.len() as f64
        };
        let resolved: Vec<(TermId, f64)> = terms
            .iter()
            .filter_map(|(term, f_qt)| {
                let id = global_vocab.term_id(term)?;
                let w = similarity::w_qt(
                    u64::from(*f_qt),
                    global_stats.num_docs(),
                    global_stats.doc_freq(id),
                );
                (w > 0.0).then_some((id, w))
            })
            .collect();
        let mut ranked: Vec<(usize, f64)> = self
            .per_librarian
            .iter()
            .enumerate()
            .map(|(lib, stats)| {
                let n_l = stats.num_docs() as f64;
                let goodness = if n_l == 0.0 {
                    0.0
                } else {
                    resolved
                        .iter()
                        .map(|&(id, w)| {
                            let f_tl = stats.doc_freq(id) as f64;
                            w * (1.0 + f_tl * mean_docs / n_l).ln()
                        })
                        .sum()
                };
                (lib, goodness)
            })
            .collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        ranked
    }

    /// The `n` best librarians for a query (indices, best first).
    pub fn select(
        &self,
        global_vocab: &Vocabulary,
        global_stats: &CollectionStats,
        terms: &[(String, u32)],
        n: usize,
    ) -> Vec<usize> {
        self.rank_librarians(global_vocab, global_stats, terms)
            .into_iter()
            .take(n)
            .map(|(lib, _)| lib)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a global vocabulary over `terms` and a selection state with
    /// given per-librarian (num_docs, [(term, f_t)]) data.
    fn setup(
        terms: &[&str],
        libs: &[(u64, &[(&str, u64)])],
    ) -> (Vocabulary, CollectionStats, SelectionState) {
        let mut vocab = Vocabulary::new();
        for t in terms {
            vocab.intern(t);
        }
        let mut global = CollectionStats::new();
        let mut state = SelectionState::new();
        let mut total = 0;
        for (num_docs, freqs) in libs {
            total += num_docs;
            let mut stats = CollectionStats::new();
            stats.set_num_docs(*num_docs);
            for (term, f) in *freqs {
                let id = vocab.term_id(term).expect("term interned");
                stats.add_doc_freq(id, *f);
                global.add_doc_freq(id, *f);
            }
            state.push_librarian(stats);
        }
        global.set_num_docs(total);
        (vocab, global, state)
    }

    fn q(terms: &[(&str, u32)]) -> Vec<(String, u32)> {
        terms.iter().map(|(t, f)| ((*t).to_owned(), *f)).collect()
    }

    #[test]
    fn librarian_with_the_term_density_wins() {
        let (vocab, global, state) = setup(
            &["alpha", "beta"],
            &[
                (100, &[("alpha", 40), ("beta", 1)]),
                (100, &[("alpha", 2), ("beta", 30)]),
            ],
        );
        let ranked = state.rank_librarians(&vocab, &global, &q(&[("alpha", 1)]));
        assert_eq!(ranked[0].0, 0);
        assert!(ranked[0].1 > ranked[1].1);
        let ranked = state.rank_librarians(&vocab, &global, &q(&[("beta", 1)]));
        assert_eq!(ranked[0].0, 1);
    }

    #[test]
    fn size_normalization_prefers_density_over_bulk() {
        // Librarian 0 is huge with a trace of the term; librarian 1 is
        // small but dense in it.
        let (vocab, global, state) = setup(
            &["alpha"],
            &[(10_000, &[("alpha", 20)]), (100, &[("alpha", 15)])],
        );
        let ranked = state.rank_librarians(&vocab, &global, &q(&[("alpha", 1)]));
        assert_eq!(ranked[0].0, 1, "dense small collection should win");
    }

    #[test]
    fn unknown_terms_rank_everyone_zero() {
        let (vocab, global, state) = setup(&["alpha"], &[(10, &[("alpha", 5)]), (10, &[])]);
        let ranked = state.rank_librarians(&vocab, &global, &q(&[("missing", 1)]));
        assert!(ranked.iter().all(|&(_, g)| g == 0.0));
        // Deterministic tie-break by index.
        assert_eq!(ranked[0].0, 0);
        assert_eq!(ranked[1].0, 1);
    }

    #[test]
    fn select_takes_the_top_n() {
        let (vocab, global, state) = setup(
            &["alpha"],
            &[
                (100, &[("alpha", 1)]),
                (100, &[("alpha", 50)]),
                (100, &[("alpha", 10)]),
            ],
        );
        let picked = state.select(&vocab, &global, &q(&[("alpha", 1)]), 2);
        assert_eq!(picked, vec![1, 2]);
        let all = state.select(&vocab, &global, &q(&[("alpha", 1)]), 10);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn empty_librarian_scores_zero() {
        let (vocab, global, state) = setup(&["alpha"], &[(0, &[]), (10, &[("alpha", 3)])]);
        let ranked = state.rank_librarians(&vocab, &global, &q(&[("alpha", 2)]));
        assert_eq!(ranked[0].0, 1);
        assert_eq!(ranked[1].1, 0.0);
    }

    #[test]
    fn multi_term_goodness_accumulates() {
        let (vocab, global, state) = setup(
            &["alpha", "beta"],
            &[
                (100, &[("alpha", 20)]),
                (100, &[("beta", 20)]),
                (100, &[("alpha", 12), ("beta", 12)]),
            ],
        );
        // A query about both terms should prefer the librarian covering
        // both.
        let ranked = state.rank_librarians(&vocab, &global, &q(&[("alpha", 1), ("beta", 1)]));
        assert_eq!(ranked[0].0, 2);
    }
}
