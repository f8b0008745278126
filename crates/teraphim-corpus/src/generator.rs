//! Corpus generation: specs, presets, and the generator itself.

use crate::queries::{self, Query};
use crate::topics::TopicSet;
use crate::words::word_for;
use crate::zipf::Zipf;
use crate::Subcollection;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use teraphim_text::sgml::TrecDoc;

/// Specification of one subcollection.
#[derive(Debug, Clone)]
pub struct SubSpec {
    /// Collection name ("AP", "FR", ...).
    pub name: String,
    /// Number of documents to generate.
    pub num_docs: usize,
    /// Mean document length in tokens.
    pub mean_doc_len: usize,
    /// Probability that a document is topical (vs pure background).
    pub topical_fraction: f64,
    /// How uneven the collection's topic affinities are: 0.0 covers all
    /// topics uniformly; larger values concentrate on a few topics.
    pub topic_concentration: f64,
}

impl SubSpec {
    /// Convenience constructor.
    pub fn new(
        name: &str,
        num_docs: usize,
        mean_doc_len: usize,
        topical_fraction: f64,
        topic_concentration: f64,
    ) -> Self {
        SubSpec {
            name: name.to_owned(),
            num_docs,
            mean_doc_len,
            topical_fraction,
            topic_concentration,
        }
    }
}

/// Full corpus specification. Identical specs generate identical corpora.
#[derive(Debug, Clone)]
pub struct CorpusSpec {
    /// Master seed; all randomness derives from it.
    pub seed: u64,
    /// Vocabulary size (distinct terms).
    pub vocab_size: usize,
    /// Number of topics (and therefore of distinct query subjects).
    pub num_topics: usize,
    /// Terms in each topic's core.
    pub terms_per_topic: usize,
    /// Within-topic Zipf exponent; lower = flatter topic signature =
    /// harder retrieval (see `TopicSet::generate_full`).
    pub topic_exponent: f64,
    /// Terms shared between consecutive topics (lexical confusability;
    /// zero would let topical queries separate relevant documents
    /// perfectly).
    pub topic_overlap: usize,
    /// Zipf exponent of topic *popularity*: how unevenly documents are
    /// spread over topics (0.0 = uniform). Real TREC topics vary from a
    /// handful to hundreds of relevant documents; popular topics are
    /// what exposes the Central Index method's recall cap at small k'.
    pub topic_popularity: f64,
    /// Probability that a topical document's token is drawn from a
    /// *neighbouring* topic instead of its own — real documents about one
    /// subject borrow the vocabulary of adjacent subjects, which is what
    /// keeps retrieval from being a perfect separator.
    pub neighbor_mix: f64,
    /// λ: expected fraction of a topical document's tokens drawn from its
    /// topic rather than the background.
    pub topic_mix: f64,
    /// A document is judged relevant to its topic's queries iff its
    /// *actual* topical token fraction reaches this threshold.
    pub relevance_threshold: f64,
    /// The subcollections, in canonical order.
    pub subcollections: Vec<SubSpec>,
    /// Long query set size (paper: TREC topics 51–200, avg 90.4 terms).
    pub num_long_queries: usize,
    /// Short query set size (paper: topics 202–250, avg 9.6 terms).
    pub num_short_queries: usize,
    /// Target long query length in terms.
    pub long_query_len: usize,
    /// Target short query length in terms.
    pub short_query_len: usize,
}

impl CorpusSpec {
    /// A small, fast corpus for tests and examples: four subcollections,
    /// a few hundred documents.
    pub fn small(seed: u64) -> CorpusSpec {
        CorpusSpec {
            seed,
            vocab_size: 3_000,
            num_topics: 12,
            terms_per_topic: 40,
            topic_exponent: 1.0,
            topic_overlap: 18,
            topic_popularity: 0.0,
            neighbor_mix: 0.18,
            topic_mix: 0.35,
            relevance_threshold: 0.12,
            subcollections: vec![
                SubSpec::new("AP", 120, 110, 0.75, 0.0),
                SubSpec::new("FR", 60, 160, 0.55, 3.0),
                SubSpec::new("WSJ", 100, 120, 0.75, 0.0),
                SubSpec::new("ZIFF", 80, 90, 0.55, 3.0),
            ],
            num_long_queries: 12,
            num_short_queries: 12,
            long_query_len: 90,
            short_query_len: 10,
        }
    }

    /// The TREC-disk-2-shaped corpus used by the table reproductions:
    /// AP and WSJ large and topically broad (the paper notes "most of the
    /// relevant documents were in AP and \[WSJ\]"), FR long-document and
    /// narrow, ZIFF mid-sized and narrow.
    pub fn trec_like(seed: u64) -> CorpusSpec {
        CorpusSpec {
            seed,
            vocab_size: 20_000,
            // 150 topics, mirroring TREC topics 51-200; topics 0..49 also
            // serve as the short query set (202-250 analogue). More
            // topics means fewer relevant documents per query, keeping
            // precision@20 away from saturation.
            num_topics: 150,
            terms_per_topic: 120,
            topic_exponent: 0.55,
            topic_overlap: 40,
            topic_popularity: 0.9,
            neighbor_mix: 0.25,
            topic_mix: 0.32,
            relevance_threshold: 0.15,
            subcollections: vec![
                SubSpec::new("AP", 2_400, 190, 0.80, 0.0),
                SubSpec::new("FR", 1_100, 360, 0.50, 3.5),
                SubSpec::new("WSJ", 2_000, 220, 0.80, 0.0),
                SubSpec::new("ZIFF", 1_500, 150, 0.50, 3.5),
            ],
            num_long_queries: 150,
            num_short_queries: 49,
            long_query_len: 90,
            short_query_len: 10,
        }
    }

    /// Total documents across all subcollections.
    pub fn total_docs(&self) -> usize {
        self.subcollections.iter().map(|s| s.num_docs).sum()
    }
}

/// Per-document generative ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct DocMeta {
    /// External identifier.
    pub docno: String,
    /// Index of the owning subcollection in the spec.
    pub sub: usize,
    /// The topic the document was drawn from, if topical.
    pub topic: Option<usize>,
    /// The realized fraction of tokens drawn from the topic.
    pub topical_fraction: f64,
}

/// A generated corpus: documents, queries and ground-truth judgments.
#[derive(Debug, Clone)]
pub struct SyntheticCorpus {
    spec: CorpusSpec,
    subcollections: Vec<Subcollection>,
    metas: Vec<DocMeta>,
    long_queries: Vec<Query>,
    short_queries: Vec<Query>,
}

impl SyntheticCorpus {
    /// Generates the corpus described by `spec`. Deterministic in
    /// `spec.seed`.
    pub fn generate(spec: &CorpusSpec) -> SyntheticCorpus {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let background = Zipf::new(spec.vocab_size, 1.05);
        let topics = TopicSet::generate_full(
            spec.num_topics,
            spec.terms_per_topic,
            spec.topic_overlap,
            spec.topic_exponent,
            spec.vocab_size,
        );

        // Per-subcollection topic affinity weights, scaled by global
        // topic popularity (Zipfian over topic ids).
        let affinities: Vec<Vec<f64>> = spec
            .subcollections
            .iter()
            .map(|sub| {
                (0..spec.num_topics)
                    .map(|t| {
                        let popularity = 1.0 / ((t + 1) as f64).powf(spec.topic_popularity);
                        popularity * (sub.topic_concentration * rng.gen_range(-1.0..1.0f64)).exp()
                    })
                    .collect()
            })
            .collect();

        let mut subcollections = Vec::with_capacity(spec.subcollections.len());
        let mut metas = Vec::new();
        for (s, sub) in spec.subcollections.iter().enumerate() {
            let mut docs = Vec::with_capacity(sub.num_docs);
            for i in 0..sub.num_docs {
                let docno = format!("{}-{:06}", sub.name, i);
                let topic = if rng.gen_bool(sub.topical_fraction) {
                    Some(sample_weighted(&mut rng, &affinities[s]))
                } else {
                    None
                };
                // Topical documents borrow vocabulary from one adjacent
                // topic (the next one, cyclically).
                let neighbor = topic.map(|t| (t + 1) % spec.num_topics);
                let len = doc_length(&mut rng, sub.mean_doc_len);
                let (text, topical_tokens) = generate_text(
                    &mut rng,
                    len,
                    topic.map(|t| topics.topic(t)),
                    neighbor.map(|t| topics.topic(t)),
                    spec,
                    &background,
                );
                metas.push(DocMeta {
                    docno: docno.clone(),
                    sub: s,
                    topic,
                    topical_fraction: topical_tokens as f64 / len.max(1) as f64,
                });
                docs.push(TrecDoc { docno, text });
            }
            subcollections.push(Subcollection {
                name: sub.name.clone(),
                docs,
            });
        }

        let long_queries = queries::generate_queries(
            &mut rng,
            &topics,
            spec.num_long_queries,
            spec.long_query_len,
            queries::LONG_QUERY_BASE_ID,
        );
        let short_queries = queries::generate_queries(
            &mut rng,
            &topics,
            spec.num_short_queries,
            spec.short_query_len,
            queries::SHORT_QUERY_BASE_ID,
        );

        SyntheticCorpus {
            spec: spec.clone(),
            subcollections,
            metas,
            long_queries,
            short_queries,
        }
    }

    /// The generating specification.
    pub fn spec(&self) -> &CorpusSpec {
        &self.spec
    }

    /// The generated subcollections, in spec order.
    pub fn subcollections(&self) -> &[Subcollection] {
        &self.subcollections
    }

    /// The long query set (ids from
    /// [`queries::LONG_QUERY_BASE_ID`]).
    pub fn long_queries(&self) -> &[Query] {
        &self.long_queries
    }

    /// The short query set (ids from
    /// [`queries::SHORT_QUERY_BASE_ID`]).
    pub fn short_queries(&self) -> &[Query] {
        &self.short_queries
    }

    /// Documents relevant to `topic`: those drawn from it whose realized
    /// topical fraction reaches the spec threshold.
    pub fn relevant_docnos(&self, topic: usize) -> Vec<&str> {
        self.metas
            .iter()
            .filter(|m| {
                m.topic == Some(topic) && m.topical_fraction >= self.spec.relevance_threshold
            })
            .map(|m| m.docno.as_str())
            .collect()
    }

    /// Renders the full judgment set in TREC qrels format
    /// (`query-id 0 docno 1`), covering both query sets.
    pub fn qrels(&self) -> String {
        let mut out = String::new();
        for q in self.long_queries.iter().chain(&self.short_queries) {
            for docno in self.relevant_docnos(q.topic) {
                out.push_str(&format!("{} 0 {} 1\n", q.id, docno));
            }
        }
        out
    }

    /// Total uncompressed text bytes across all subcollections.
    pub fn text_bytes(&self) -> usize {
        self.subcollections
            .iter()
            .map(Subcollection::text_bytes)
            .sum()
    }
}

/// Samples an index proportional to `weights`.
fn sample_weighted<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    let mut u = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if u < w {
            return i;
        }
        u -= w;
    }
    weights.len() - 1
}

/// Document length: mean scaled by a uniform factor in [0.4, 1.6], with a
/// floor of 8 tokens.
fn doc_length<R: Rng + ?Sized>(rng: &mut R, mean: usize) -> usize {
    let factor = rng.gen_range(0.4..1.6);
    ((mean as f64 * factor) as usize).max(8)
}

/// Generates document text of `len` tokens; returns the text and how many
/// tokens came from the topic.
fn generate_text<R: Rng + ?Sized>(
    rng: &mut R,
    len: usize,
    topic: Option<&crate::topics::Topic>,
    neighbor: Option<&crate::topics::Topic>,
    spec: &CorpusSpec,
    background: &Zipf,
) -> (String, usize) {
    let mut text = String::with_capacity(len * 8);
    let mut topical = 0usize;
    let mut sentence_left = rng.gen_range(6..18);
    let mut sentence_start = true;
    for i in 0..len {
        let term = match (topic, neighbor) {
            (Some(t), _) if rng.gen_bool(spec.topic_mix) => {
                topical += 1;
                t.sample(rng)
            }
            (Some(_), Some(n)) if rng.gen_bool(spec.neighbor_mix) => n.sample(rng),
            _ => background.sample(rng),
        };
        let word = word_for(term);
        if sentence_start {
            // Capitalize sentence-initial words (exercises case folding).
            let mut chars = word.chars();
            if let Some(first) = chars.next() {
                text.extend(first.to_uppercase());
                text.push_str(chars.as_str());
            }
            sentence_start = false;
        } else {
            text.push(' ');
            text.push_str(&word);
        }
        sentence_left -= 1;
        if sentence_left == 0 && i + 1 < len {
            text.push('.');
            if rng.gen_bool(0.2) {
                text.push('\n');
            } else {
                text.push(' ');
            }
            sentence_left = rng.gen_range(6..18);
            sentence_start = true;
        }
    }
    text.push_str(".\n");
    (text, topical)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SyntheticCorpus {
        SyntheticCorpus::generate(&CorpusSpec::small(11))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(
            a.subcollections()[2].docs[5].text,
            b.subcollections()[2].docs[5].text
        );
        assert_eq!(a.qrels(), b.qrels());
        let c = SyntheticCorpus::generate(&CorpusSpec::small(12));
        assert_ne!(
            a.subcollections()[0].docs[0].text,
            c.subcollections()[0].docs[0].text
        );
    }

    #[test]
    fn spec_counts_are_honoured() {
        let corpus = small();
        let spec = CorpusSpec::small(11);
        assert_eq!(corpus.subcollections().len(), 4);
        for (sub, spec_sub) in corpus.subcollections().iter().zip(&spec.subcollections) {
            assert_eq!(sub.docs.len(), spec_sub.num_docs);
            assert_eq!(sub.name, spec_sub.name);
        }
        assert_eq!(corpus.metas.len(), spec.total_docs());
        assert_eq!(corpus.long_queries().len(), spec.num_long_queries);
        assert_eq!(corpus.short_queries().len(), spec.num_short_queries);
    }

    #[test]
    fn docnos_are_unique_and_prefixed() {
        let corpus = small();
        let mut seen = std::collections::HashSet::new();
        for sub in corpus.subcollections() {
            for d in &sub.docs {
                assert!(d.docno.starts_with(&sub.name));
                assert!(seen.insert(d.docno.clone()), "duplicate {}", d.docno);
            }
        }
    }

    #[test]
    fn every_topic_has_relevant_documents() {
        let corpus = small();
        let mut covered = 0;
        for t in 0..corpus.spec().num_topics {
            if !corpus.relevant_docnos(t).is_empty() {
                covered += 1;
            }
        }
        // With hundreds of topical docs over 12 topics, nearly all topics
        // should be covered.
        assert!(covered >= 10, "only {covered}/12 topics have relevant docs");
    }

    #[test]
    fn relevance_respects_the_threshold() {
        let corpus = small();
        let threshold = corpus.spec().relevance_threshold;
        for t in 0..corpus.spec().num_topics {
            for docno in corpus.relevant_docnos(t) {
                let meta = corpus.metas.iter().find(|m| m.docno == docno).unwrap();
                assert_eq!(meta.topic, Some(t));
                assert!(meta.topical_fraction >= threshold);
            }
        }
    }

    #[test]
    fn broad_collections_cover_more_topics_than_narrow_ones() {
        let corpus = SyntheticCorpus::generate(&CorpusSpec::small(5));
        let topics_in = |sub: usize| -> std::collections::HashSet<usize> {
            corpus
                .metas
                .iter()
                .filter(|m| m.sub == sub)
                .filter_map(|m| m.topic)
                .collect()
        };
        // AP (sub 0, concentration 0) vs FR (sub 1, concentration 3):
        // FR's topical mass concentrates, so its per-topic doc counts are
        // uneven; measure via max share.
        let share = |sub: usize| {
            let counts = corpus
                .metas
                .iter()
                .filter(|m| m.sub == sub)
                .filter_map(|m| m.topic)
                .fold(vec![0usize; 12], |mut acc, t| {
                    acc[t] += 1;
                    acc
                });
            let total: usize = counts.iter().sum();
            counts.into_iter().max().unwrap() as f64 / total.max(1) as f64
        };
        assert!(topics_in(0).len() >= topics_in(1).len());
        assert!(
            share(1) > share(0),
            "FR {:.3} vs AP {:.3}",
            share(1),
            share(0)
        );
    }

    #[test]
    fn documents_look_like_text() {
        let corpus = small();
        let text = &corpus.subcollections()[0].docs[0].text;
        assert!(text.contains('.'));
        assert!(text.chars().next().unwrap().is_uppercase());
        assert!(text.split_whitespace().count() >= 8);
    }

    #[test]
    fn qrels_parse_back() {
        let corpus = small();
        let qrels = corpus.qrels();
        assert!(!qrels.is_empty());
        for line in qrels.lines().take(20) {
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(fields.len(), 4);
            assert!(fields[0].parse::<u32>().is_ok());
            assert_eq!(fields[3], "1");
        }
    }

    #[test]
    fn text_bytes_is_sum_of_docs() {
        let corpus = small();
        let manual: usize = corpus
            .subcollections()
            .iter()
            .flat_map(|s| &s.docs)
            .map(|d| d.text.len())
            .sum();
        assert_eq!(corpus.text_bytes(), manual);
    }

    #[test]
    fn weighted_sampling_is_proportional() {
        let mut rng = StdRng::seed_from_u64(0);
        let weights = [1.0, 3.0];
        let hits = (0..10_000)
            .filter(|_| sample_weighted(&mut rng, &weights) == 1)
            .count();
        assert!((6_500..8_500).contains(&hits), "hits {hits}");
    }

    #[test]
    fn doc_length_has_floor() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            assert!(doc_length(&mut rng, 1) >= 8);
        }
    }
}
