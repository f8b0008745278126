//! Query generation.
//!
//! The paper splits the TREC queries into a long set (topics 51–200,
//! average 90.4 terms after stopping) and a short set (topics 202–250,
//! average 9.6 terms), and runs its experiments "primarily with the
//! second group". The generator mirrors that: short queries are a topic's
//! most characteristic terms; long queries add the deeper topical
//! vocabulary with repetition, plus background noise words — the way real
//! TREC topic statements repeat and pad their key concepts.

use crate::topics::TopicSet;
use crate::words::word_for;
use crate::zipf::Zipf;
use rand::Rng;

/// First id of the long query set (mirrors TREC topics 51–200).
pub const LONG_QUERY_BASE_ID: u32 = 51;
/// First id of the short query set (mirrors TREC topics 202–250).
pub const SHORT_QUERY_BASE_ID: u32 = 202;

/// One generated query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Query identifier (TREC-style topic number).
    pub id: u32,
    /// The generating topic.
    pub topic: usize,
    /// Query text (space-separated terms).
    pub text: String,
}

/// Generates `count` queries of roughly `target_len` terms, one per topic
/// `0..count`, with ids starting at `base_id`.
///
/// # Panics
///
/// Panics if `count` exceeds the number of topics.
pub fn generate_queries<R: Rng + ?Sized>(
    rng: &mut R,
    topics: &TopicSet,
    count: usize,
    target_len: usize,
    base_id: u32,
) -> Vec<Query> {
    assert!(
        count <= topics.len(),
        "cannot generate {count} queries from {} topics",
        topics.len()
    );
    let noise = Zipf::new(topics.vocab_size(), 1.05);
    (0..count)
        .map(|t| {
            let topic = topics.topic(t);
            let mut terms: Vec<String> = Vec::with_capacity(target_len);
            // Query terms are *sampled* from the topic distribution (with
            // ~15% background noise), not taken from its most probable
            // terms: a real TREC topic asks about one aspect of a
            // subject, and most relevant documents do not contain the
            // topic statement's exact words. Sampling reproduces that —
            // short queries cover a narrow slice of the topic (modest
            // recall), long queries cover it broadly (better recall,
            // as the paper's long-query rows show).
            while terms.len() < target_len {
                let term = if rng.gen_bool(0.15) {
                    noise.sample(rng)
                } else {
                    topic.sample(rng)
                };
                terms.push(word_for(term));
            }
            Query {
                id: base_id + t as u32,
                topic: t,
                text: terms.join(" "),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn topics() -> TopicSet {
        TopicSet::generate_full(8, 40, 0, 1.0, 2000)
    }

    #[test]
    fn ids_and_topics_are_sequential() {
        let mut rng = StdRng::seed_from_u64(0);
        let qs = generate_queries(&mut rng, &topics(), 8, 10, 202);
        for (i, q) in qs.iter().enumerate() {
            assert_eq!(q.id, 202 + i as u32);
            assert_eq!(q.topic, i);
        }
    }

    #[test]
    fn short_queries_hit_target_length() {
        let mut rng = StdRng::seed_from_u64(1);
        let qs = generate_queries(&mut rng, &topics(), 8, 10, 202);
        for q in &qs {
            let n = q.text.split_whitespace().count();
            assert_eq!(n, 10, "query {}: {n} terms", q.id);
        }
    }

    #[test]
    fn long_queries_are_long_and_topic_heavy() {
        let mut rng = StdRng::seed_from_u64(2);
        let set = topics();
        let qs = generate_queries(&mut rng, &set, 4, 90, 51);
        for q in &qs {
            assert_eq!(q.text.split_whitespace().count(), 90);
            // Most terms should come from the topic.
            let members: std::collections::HashSet<String> = set
                .topic(q.topic)
                .terms
                .iter()
                .map(|&t| word_for(t))
                .collect();
            let topical = q
                .text
                .split_whitespace()
                .filter(|w| members.contains(*w))
                .count();
            assert!(topical >= 60, "query {} only {topical}/90 topical", q.id);
        }
    }

    #[test]
    fn different_topics_give_different_queries() {
        let mut rng = StdRng::seed_from_u64(3);
        let qs = generate_queries(&mut rng, &topics(), 8, 10, 202);
        for pair in qs.windows(2) {
            assert_ne!(pair[0].text, pair[1].text);
        }
    }

    #[test]
    #[should_panic(expected = "cannot generate")]
    fn too_many_queries_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        generate_queries(&mut rng, &topics(), 9, 10, 202);
    }
}
