//! What each serving workload sends: the corpus, the distinct queries,
//! the seeded operation sequence, and the ground truth replies are
//! judged against.
//!
//! The corpus is one frozen draw of the generator; `--seed` decides how
//! it is used: the order of the queries, every Zipf draw, which
//! documents `ingest_reopen` builds its base from and which it appends.
//! A corpus per seed was tried first. The generator hands a topic its
//! terms at random, a topic that draws a few very common words makes
//! its query several times dearer to rank, and so the same code ranked
//! 2440 queries a second on one seed's corpus and 3440 on another's:
//! ten seeds spread by a tenth before the machine added anything. The
//! program sees only the generated documents and query strings.

use std::borrow::Cow;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use teraphim_core::{CacheConfig, Methodology};
use teraphim_corpus::splits::split_into;
use teraphim_corpus::zipf::Zipf;
use teraphim_corpus::{CorpusSpec, Query, Subcollection, SyntheticCorpus};
use teraphim_engine::Collection;
use teraphim_eval::{Judgments, QueryEval};
use teraphim_text::sgml::TrecDoc;
use teraphim_text::Analyzer;

use crate::catalog::{self, frozen};

/// Operations in a precomputed sequence; longer runs wrap around.
const SEQUENCE_LEN: usize = 1 << 16;

/// The corpus every workload draws from: `trec_like(CORPUS_SEED)`
/// scaled by the frozen factor, with one short query per topic.
pub fn corpus_spec(smoke: bool) -> CorpusSpec {
    if smoke {
        return CorpusSpec::small(frozen::CORPUS_SEED);
    }
    let mut spec = CorpusSpec::trec_like(frozen::CORPUS_SEED);
    for sub in &mut spec.subcollections {
        sub.num_docs *= frozen::CORPUS_FACTOR;
    }
    spec.num_short_queries = frozen::SHORT_QUERIES;
    spec
}

pub fn generate(smoke: bool) -> SyntheticCorpus {
    SyntheticCorpus::generate(&corpus_spec(smoke))
}

/// One distinct query: its judged id and its text.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub id: u32,
    pub text: String,
}

impl From<&Query> for QuerySpec {
    fn from(q: &Query) -> Self {
        QuerySpec {
            id: q.id,
            text: q.text.clone(),
        }
    }
}

/// How load is offered.
#[derive(Debug, Clone, PartialEq)]
pub enum Loop {
    /// `nproc` clients, each sending its next operation when the last
    /// one completed.
    Closed,
    /// Three consecutive fixed-rate steps.
    Open([f64; 3]),
}

/// A serving workload, fully determined by its name and the seed.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: &'static str,
    pub methodology: Methodology,
    /// 4 (the generator's subcollections) or 43 (`split_into`).
    pub shards: usize,
    pub distinct: Vec<QuerySpec>,
    /// Operation `i` sends `distinct[sequence[i % len]]`.
    pub sequence: Vec<u32>,
    /// Documents fetched after each query (0 = none).
    pub fetch_top: usize,
    pub cache: Option<CacheConfig>,
    pub load: Loop,
    /// Operations replayed by one client before timing starts.
    pub replay_ops: usize,
}

pub fn shuffled(n: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

impl Plan {
    /// The plan of a serving workload; `None` for `ingest_reopen`,
    /// which is not one.
    pub fn serving(workload: &str, seed: u64, corpus: &SyntheticCorpus) -> Option<Plan> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x706c_616e);
        let short: Vec<QuerySpec> = corpus.short_queries().iter().map(QuerySpec::from).collect();
        // Cycled workloads visit every distinct query once per lap, in
        // a seeded order.
        let cycled = |queries: Vec<QuerySpec>, rng: &mut StdRng| {
            let sequence = shuffled(queries.len(), rng);
            (queries, sequence)
        };
        let plan = match workload {
            catalog::SHORT_CV => {
                let (distinct, sequence) = cycled(short, &mut rng);
                Plan {
                    workload: catalog::SHORT_CV,
                    methodology: Methodology::CentralVocabulary,
                    shards: 4,
                    replay_ops: frozen::REPLAY_OPS_CYCLED.min(distinct.len()),
                    distinct,
                    sequence,
                    fetch_top: 0,
                    cache: None,
                    load: Loop::Closed,
                }
            }
            catalog::FANOUT43 => {
                let (distinct, sequence) = cycled(short, &mut rng);
                Plan {
                    workload: catalog::FANOUT43,
                    methodology: Methodology::CentralNothing,
                    shards: frozen::FANOUT_SHARDS,
                    replay_ops: frozen::REPLAY_OPS_CYCLED.min(distinct.len()),
                    distinct,
                    sequence,
                    fetch_top: 0,
                    cache: None,
                    load: Loop::Closed,
                }
            }
            catalog::MIXED => {
                // Popularity follows topic order, which is also the
                // generator's order of topic popularity in the corpus:
                // the subjects most written about are the ones most
                // asked about. Each draw is short with the frozen
                // probability, then Zipf within its set; the seed picks
                // the draws.
                let short_zipf = Zipf::new(short.len(), frozen::ZIPF_EXPONENT);
                let long: Vec<QuerySpec> =
                    corpus.long_queries().iter().map(QuerySpec::from).collect();
                let long_zipf = Zipf::new(long.len(), frozen::ZIPF_EXPONENT);
                let sequence = (0..SEQUENCE_LEN)
                    .map(|_| {
                        if rng.gen_bool(frozen::MIXED_SHORT_SHARE) {
                            short_zipf.sample(&mut rng) as u32
                        } else {
                            (short.len() + long_zipf.sample(&mut rng)) as u32
                        }
                    })
                    .collect();
                let distinct = short.into_iter().chain(long).collect();
                Plan {
                    workload: catalog::MIXED,
                    methodology: Methodology::CentralVocabulary,
                    shards: 4,
                    distinct,
                    sequence,
                    fetch_top: frozen::MIXED_FETCH_TOP,
                    cache: Some(CacheConfig {
                        result_entries: frozen::MIXED_RESULT_CACHE,
                        ..CacheConfig::default()
                    }),
                    load: Loop::Open(frozen::OPEN_RATES_QPS),
                    replay_ops: frozen::REPLAY_OPS_ZIPF,
                }
            }
            _ => return None,
        };
        Some(plan)
    }

    /// The distinct query operation `i` sends.
    pub fn query_of(&self, op: usize) -> usize {
        self.sequence[op % self.sequence.len()] as usize
    }

    /// The fleet's shards: the generator's four subcollections, or the
    /// 43-way split of the same documents.
    pub fn parts<'a>(&self, corpus: &'a SyntheticCorpus) -> Cow<'a, [Subcollection]> {
        if self.shards == corpus.subcollections().len() {
            Cow::Borrowed(corpus.subcollections())
        } else {
            Cow::Owned(split_into(corpus, self.shards))
        }
    }
}

/// What replies are judged against, kept after the raw corpus is
/// dropped: document numbers, relevance judgments, and the monolithic
/// oracle's top `K` per distinct query.
pub struct Truth {
    /// `docnos[shard][local doc id]`.
    pub docnos: Vec<Vec<String>>,
    pub judgments: Judgments,
    /// Per distinct query, the `(shard, doc)` pairs of the top `K` of a
    /// single in-process `Collection` over every document.
    pub oracle: Vec<Vec<(usize, u32)>>,
    pub text_bytes: usize,
}

impl Truth {
    pub fn build(
        corpus: &SyntheticCorpus,
        parts: &[Subcollection],
        queries: &[QuerySpec],
    ) -> Truth {
        let all: Vec<TrecDoc> = parts.iter().flat_map(|p| p.docs.iter().cloned()).collect();
        let mono = Collection::build("MS", Analyzer::default(), &all);
        drop(all);
        // Monolithic ids run through the shards in order.
        let mut starts = Vec::with_capacity(parts.len());
        let mut next = 0u32;
        for part in parts {
            starts.push(next);
            next += part.docs.len() as u32;
        }
        let locate = |doc: u32| {
            let shard = starts.partition_point(|&s| s <= doc) - 1;
            (shard, doc - starts[shard])
        };
        let oracle = queries
            .iter()
            .map(|q| {
                mono.ranked_query(&q.text, frozen::K)
                    .into_iter()
                    .map(|hit| locate(hit.doc))
                    .collect()
            })
            .collect();
        Truth {
            docnos: parts
                .iter()
                .map(|p| p.docs.iter().map(|d| d.docno.clone()).collect())
                .collect(),
            judgments: Judgments::from_qrels(&corpus.qrels()),
            oracle,
            text_bytes: corpus.text_bytes(),
        }
    }

    /// Fraction of the top `K` judged relevant.
    pub fn precision(&self, query: &QuerySpec, hits: &[(usize, u32)]) -> f64 {
        let ranking: Vec<&str> = hits
            .iter()
            .map(|&(shard, doc)| self.docnos[shard][doc as usize].as_str())
            .collect();
        QueryEval::evaluate(&self.judgments, query.id, &ranking).precision_at(frozen::K)
    }

    /// Share of the oracle's top `K` that `hits` also holds (1.0 when
    /// the oracle found nothing).
    pub fn overlap(&self, query: usize, hits: &[(usize, u32)]) -> f64 {
        let oracle = &self.oracle[query];
        if oracle.is_empty() {
            return 1.0;
        }
        let shared = oracle.iter().filter(|pair| hits.contains(pair)).count();
        shared as f64 / oracle.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_repeat_for_a_seed_and_differ_between_seeds() {
        let corpus = generate(true);
        for w in [catalog::SHORT_CV, catalog::FANOUT43, catalog::MIXED] {
            let a = Plan::serving(w, 7, &corpus).unwrap();
            let b = Plan::serving(w, 7, &corpus).unwrap();
            let c = Plan::serving(w, 8, &corpus).unwrap();
            assert_eq!(a.sequence, b.sequence, "{w}");
            assert_ne!(a.sequence, c.sequence, "{w}");
            assert!(a.sequence.iter().all(|&q| (q as usize) < a.distinct.len()));
        }
        assert!(Plan::serving(catalog::INGEST, 7, &corpus).is_none());
    }

    #[test]
    fn the_mixed_plan_is_skewed_and_mostly_short() {
        let corpus = generate(true);
        let plan = Plan::serving(catalog::MIXED, 7, &corpus).unwrap();
        let shorts = corpus.short_queries().len();
        let short_share = plan
            .sequence
            .iter()
            .filter(|&&q| (q as usize) < shorts)
            .count() as f64
            / plan.sequence.len() as f64;
        assert!(
            (short_share - frozen::MIXED_SHORT_SHARE).abs() < 0.02,
            "{short_share}"
        );
        let mut counts = vec![0usize; plan.distinct.len()];
        for &q in &plan.sequence {
            counts[q as usize] += 1;
        }
        counts.sort_unstable();
        let top = counts[counts.len() - 1];
        let median = counts[counts.len() / 2];
        assert!(top > 3 * median.max(1), "top {top}, median {median}");
    }

    #[test]
    fn the_oracle_maps_monolithic_ids_back_to_shards() {
        let corpus = generate(true);
        let plan = Plan::serving(catalog::FANOUT43, 7, &corpus).unwrap();
        let parts = plan.parts(&corpus);
        assert_eq!(parts.len(), frozen::FANOUT_SHARDS);
        let truth = Truth::build(&corpus, &parts, &plan.distinct);
        assert_eq!(truth.oracle.len(), plan.distinct.len());
        for pairs in &truth.oracle {
            for &(shard, doc) in pairs {
                assert!((doc as usize) < truth.docnos[shard].len());
            }
        }
        // An answer identical to the oracle overlaps fully and is
        // judged like any other ranking.
        let first = &truth.oracle[0];
        assert_eq!(truth.overlap(0, first), 1.0);
        assert_eq!(truth.overlap(0, &[]), 0.0);
        let p = truth.precision(&plan.distinct[0], first);
        assert!((0.0..=1.0).contains(&p));
    }
}
