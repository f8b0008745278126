//! Retrieval-effectiveness evaluation.
//!
//! Implements the two measures the paper reports (§2):
//!
//! * **11-point average recall-precision** over the top 1000 retrieved
//!   documents — interpolated precision averaged at recall levels
//!   0.0, 0.1, …, 1.0, then macro-averaged over queries.
//! * **Relevant documents in the top 20** — precision-at-20 scaled to a
//!   count, "an important way of quantifying retrieval effectiveness
//!   \[when\] one screen of titles contains 20 lines".
//!
//! Plus the standard companions (precision@k, average precision / MAP)
//! used by the extended experiments.
//!
//! # Examples
//!
//! ```
//! use teraphim_eval::{Judgments, QueryEval};
//!
//! let mut judgments = Judgments::new();
//! judgments.add_relevant(1, "doc-a");
//! judgments.add_relevant(1, "doc-c");
//! let ranking = vec!["doc-a".to_string(), "doc-b".to_string(), "doc-c".to_string()];
//! let eval = QueryEval::evaluate(&judgments, 1, &ranking);
//! assert_eq!(eval.relevant_retrieved, 2);
//! assert!((eval.precision_at(1) - 1.0).abs() < 1e-12);
//! ```

use std::collections::{HashMap, HashSet};
use std::fmt;

/// A query identifier (TREC topic number).
pub type QueryId = u32;

/// Relevance judgments ("qrels"): for each query, the set of documents a
/// human assessor marked relevant.
#[derive(Debug, Clone, Default)]
pub struct Judgments {
    by_query: HashMap<QueryId, HashSet<String>>,
}

impl Judgments {
    /// Creates an empty judgment set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks `docno` relevant for `query`.
    pub fn add_relevant(&mut self, query: QueryId, docno: &str) {
        self.by_query
            .entry(query)
            .or_default()
            .insert(docno.to_owned());
    }

    /// Number of relevant documents for `query`.
    pub fn relevant_count(&self, query: QueryId) -> usize {
        self.by_query.get(&query).map_or(0, HashSet::len)
    }

    /// True if `docno` is judged relevant for `query`.
    pub fn is_relevant(&self, query: QueryId, docno: &str) -> bool {
        self.by_query
            .get(&query)
            .is_some_and(|set| set.contains(docno))
    }

    /// Parses TREC qrels format: `topic 0 docno judgment` per line.
    ///
    /// Lines with judgment `0` are ignored; malformed lines are skipped.
    pub fn from_qrels(text: &str) -> Self {
        let mut j = Judgments::new();
        for line in text.lines() {
            let mut fields = line.split_whitespace();
            let (Some(topic), Some(_iter), Some(docno), Some(rel)) =
                (fields.next(), fields.next(), fields.next(), fields.next())
            else {
                continue;
            };
            let (Ok(topic), Ok(rel)) = (topic.parse::<u32>(), rel.parse::<i32>()) else {
                continue;
            };
            if rel > 0 {
                j.add_relevant(topic, docno);
            }
        }
        j
    }
}

/// Per-query effectiveness figures for one ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryEval {
    /// The query evaluated.
    pub query: QueryId,
    /// Total relevant documents for the query (from the judgments).
    pub relevant_total: usize,
    /// Relevant documents that appeared anywhere in the ranking.
    pub relevant_retrieved: usize,
    /// relevance flags of the ranking, in rank order.
    relevance: Vec<bool>,
}

impl QueryEval {
    /// Evaluates `ranking` (best first) against the judgments for
    /// `query`.
    pub fn evaluate<S: AsRef<str>>(judgments: &Judgments, query: QueryId, ranking: &[S]) -> Self {
        let relevance: Vec<bool> = ranking
            .iter()
            .map(|d| judgments.is_relevant(query, d.as_ref()))
            .collect();
        QueryEval {
            query,
            relevant_total: judgments.relevant_count(query),
            relevant_retrieved: relevance.iter().filter(|&&r| r).count(),
            relevance,
        }
    }

    /// Precision after `k` documents (0.0 when `k == 0`).
    pub fn precision_at(&self, k: usize) -> f64 {
        if k == 0 {
            return 0.0;
        }
        let hits = self.relevance.iter().take(k).filter(|&&r| r).count();
        hits as f64 / k as f64
    }

    /// Number of relevant documents in the top `k` (the paper's
    /// "relevant docs in top 20" when `k = 20`).
    pub fn relevant_in_top(&self, k: usize) -> usize {
        self.relevance.iter().take(k).filter(|&&r| r).count()
    }

    /// Non-interpolated average precision (the MAP contribution).
    pub fn average_precision(&self) -> f64 {
        if self.relevant_total == 0 {
            return 0.0;
        }
        let mut hits = 0usize;
        let mut sum = 0.0;
        for (i, &rel) in self.relevance.iter().enumerate() {
            if rel {
                hits += 1;
                sum += hits as f64 / (i + 1) as f64;
            }
        }
        sum / self.relevant_total as f64
    }

    /// Interpolated precision at the given recall level in `[0, 1]`:
    /// the maximum precision at any rank with recall ≥ `level`.
    pub fn interpolated_precision(&self, level: f64) -> f64 {
        if self.relevant_total == 0 {
            return 0.0;
        }
        let mut best: f64 = 0.0;
        let mut hits = 0usize;
        for (i, &rel) in self.relevance.iter().enumerate() {
            if rel {
                hits += 1;
                let recall = hits as f64 / self.relevant_total as f64;
                if recall + 1e-12 >= level {
                    let precision = hits as f64 / (i + 1) as f64;
                    best = best.max(precision);
                }
            }
        }
        best
    }

    /// The TREC 11-point average: mean interpolated precision at recall
    /// 0.0, 0.1, …, 1.0.
    pub fn eleven_point_average(&self) -> f64 {
        let sum: f64 = (0..=10)
            .map(|i| self.interpolated_precision(i as f64 / 10.0))
            .sum();
        sum / 11.0
    }
}

/// Macro-averaged effectiveness over a query set, as reported in the
/// paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SetEval {
    /// Mean 11-point average recall-precision, as a percentage.
    pub eleven_point_pct: f64,
    /// Mean number of relevant documents in the top 20.
    pub relevant_in_top_20: f64,
    /// Mean average precision (not in the paper's table; reported for
    /// completeness).
    pub map: f64,
    /// Number of queries averaged.
    pub queries: usize,
}

impl fmt::Display for SetEval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "11-pt avg {:.2}%  rel@20 {:.1}  MAP {:.4}  ({} queries)",
            self.eleven_point_pct, self.relevant_in_top_20, self.map, self.queries
        )
    }
}

impl SetEval {
    /// Averages per-query evaluations. Queries with no relevant documents
    /// are excluded, following TREC practice.
    pub fn from_evals<'a, I>(evals: I) -> SetEval
    where
        I: IntoIterator<Item = &'a QueryEval>,
    {
        let mut eleven = 0.0;
        let mut top20 = 0.0;
        let mut map = 0.0;
        let mut n = 0usize;
        for eval in evals {
            if eval.relevant_total == 0 {
                continue;
            }
            eleven += eval.eleven_point_average();
            top20 += eval.relevant_in_top(20) as f64;
            map += eval.average_precision();
            n += 1;
        }
        if n == 0 {
            return SetEval::default();
        }
        SetEval {
            eleven_point_pct: 100.0 * eleven / n as f64,
            relevant_in_top_20: top20 / n as f64,
            map: map / n as f64,
            queries: n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn judgments_one_query(relevant: &[&str]) -> Judgments {
        let mut j = Judgments::new();
        for d in relevant {
            j.add_relevant(1, d);
        }
        j
    }

    fn eval(relevant: &[&str], ranking: &[&str]) -> QueryEval {
        let j = judgments_one_query(relevant);
        QueryEval::evaluate(&j, 1, ranking)
    }

    #[test]
    fn perfect_ranking_has_perfect_metrics() {
        let e = eval(&["a", "b"], &["a", "b", "c", "d"]);
        assert!((e.eleven_point_average() - 1.0).abs() < 1e-12);
        assert!((e.average_precision() - 1.0).abs() < 1e-12);
        assert_eq!(e.relevant_in_top(20), 2);
    }

    #[test]
    fn empty_ranking_scores_zero() {
        let e = eval(&["a"], &[]);
        assert_eq!(e.eleven_point_average(), 0.0);
        assert_eq!(e.average_precision(), 0.0);
        assert_eq!(e.relevant_in_top(20), 0);
    }

    #[test]
    fn no_relevant_documents_scores_zero_not_nan() {
        let e = eval(&[], &["a", "b"]);
        assert_eq!(e.eleven_point_average(), 0.0);
        assert_eq!(e.average_precision(), 0.0);
    }

    #[test]
    fn precision_at_k_hand_computed() {
        // relevant: a, c. ranking: a x c x
        let e = eval(&["a", "c"], &["a", "x", "c", "y"]);
        assert!((e.precision_at(1) - 1.0).abs() < 1e-12);
        assert!((e.precision_at(2) - 0.5).abs() < 1e-12);
        assert!((e.precision_at(3) - 2.0 / 3.0).abs() < 1e-12);
        assert!((e.precision_at(4) - 0.5).abs() < 1e-12);
        assert_eq!(e.precision_at(0), 0.0);
    }

    #[test]
    fn average_precision_hand_computed() {
        // Relevant at ranks 1 and 3 of 2 total: AP = (1/1 + 2/3)/2 = 5/6.
        let e = eval(&["a", "c"], &["a", "x", "c"]);
        assert!((e.average_precision() - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn average_precision_penalizes_unretrieved_relevant() {
        // Only 1 of 2 relevant retrieved, at rank 1: AP = (1/1)/2 = 0.5.
        let e = eval(&["a", "zz"], &["a", "x"]);
        assert!((e.average_precision() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn interpolated_precision_is_monotone_nonincreasing() {
        let e = eval(&["a", "c", "e"], &["a", "b", "c", "d", "e", "f"]);
        let mut prev = f64::INFINITY;
        for i in 0..=10 {
            let p = e.interpolated_precision(i as f64 / 10.0);
            assert!(p <= prev + 1e-12, "level {i}");
            prev = p;
        }
    }

    #[test]
    fn eleven_point_hand_computed() {
        // 1 relevant doc at rank 2: interpolated precision is 0.5 at every
        // level (recall jumps 0 -> 1 at rank 2).
        let e = eval(&["b"], &["x", "b"]);
        assert!((e.eleven_point_average() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn set_eval_macro_averages() {
        let mut j = Judgments::new();
        j.add_relevant(1, "a");
        j.add_relevant(2, "b");
        let e1 = QueryEval::evaluate(&j, 1, &["a"]); // perfect
        let e2 = QueryEval::evaluate(&j, 2, &["x", "b"]); // 0.5
        let set = SetEval::from_evals([&e1, &e2]);
        assert_eq!(set.queries, 2);
        assert!((set.eleven_point_pct - 75.0).abs() < 1e-9);
        assert!((set.relevant_in_top_20 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn set_eval_skips_queries_without_judgments() {
        let mut j = Judgments::new();
        j.add_relevant(1, "a");
        let e1 = QueryEval::evaluate(&j, 1, &["a"]);
        let e2 = QueryEval::evaluate(&j, 99, &["x"]);
        let set = SetEval::from_evals([&e1, &e2]);
        assert_eq!(set.queries, 1);
        assert!((set.eleven_point_pct - 100.0).abs() < 1e-9);
    }

    #[test]
    fn set_eval_empty_is_zero() {
        let set = SetEval::from_evals([]);
        assert_eq!(set.queries, 0);
        assert_eq!(set.eleven_point_pct, 0.0);
    }

    #[test]
    fn qrels_parsing() {
        let text = "51 0 AP-1 1\n51 0 AP-2 0\n52 0 WSJ-9 1\nbad line\n52 0 FR-3 2\n";
        let j = Judgments::from_qrels(text);
        assert!(j.is_relevant(51, "AP-1"));
        assert!(!j.is_relevant(51, "AP-2"));
        assert!(j.is_relevant(52, "WSJ-9"));
        assert!(j.is_relevant(52, "FR-3"));
        assert_eq!(j.relevant_count(51), 1);
        assert_eq!(j.relevant_count(52), 2);
    }

    #[test]
    fn display_formats() {
        let set = SetEval {
            eleven_point_pct: 23.07,
            relevant_in_top_20: 8.2,
            map: 0.2,
            queries: 150,
        };
        let s = format!("{set}");
        assert!(s.contains("23.07"));
        assert!(s.contains("8.2"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arbitrary_eval() -> impl Strategy<Value = QueryEval> {
        (
            proptest::collection::vec(proptest::bool::ANY, 0..100),
            0usize..20,
        )
            .prop_map(|(relevance, extra_unretrieved)| {
                let retrieved_rel = relevance.iter().filter(|&&r| r).count();
                QueryEval {
                    query: 1,
                    relevant_total: retrieved_rel + extra_unretrieved,
                    relevant_retrieved: retrieved_rel,
                    relevance,
                }
            })
    }

    proptest! {
        fn metrics_are_bounded(e in arbitrary_eval()) {
            prop_assert!((0.0..=1.0).contains(&e.eleven_point_average()));
            prop_assert!((0.0..=1.0).contains(&e.average_precision()));
            for k in [1, 5, 20, 1000] {
                prop_assert!((0.0..=1.0).contains(&e.precision_at(k)));
            }
        }

        fn interpolated_precision_nonincreasing(e in arbitrary_eval()) {
            let mut prev = f64::INFINITY;
            for i in 0..=10 {
                let p = e.interpolated_precision(i as f64 / 10.0);
                prop_assert!(p <= prev + 1e-12);
                prev = p;
            }
        }
    }
}
