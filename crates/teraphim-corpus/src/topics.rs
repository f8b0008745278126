//! The generative topic model.
//!
//! Each topic is a skewed distribution over a small subset of the
//! vocabulary (its *topical terms*), disjoint from other topics' cores so
//! that relevance has sharp ground truth. Documents mix one topic with
//! the Zipf background; queries sample a topic's highest-probability
//! terms. Because the topical terms of topic `t` are rare in collections
//! that rarely discuss `t`, local `f_t` statistics across subcollections
//! diverge — the exact phenomenon the Central Nothing methodology is
//! exposed to.

use crate::zipf::Zipf;
use rand::Rng;

/// One topic: a distribution over its term subset.
#[derive(Debug, Clone)]
pub struct Topic {
    /// The topic's term ids, most probable first.
    pub(crate) terms: Vec<usize>,
    /// Sampler over positions in `terms` (Zipfian within the topic).
    dist: Zipf,
}

impl Topic {
    /// Draws one term id from the topic distribution.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.terms[self.dist.sample(rng)]
    }
}

/// A full topic set over a vocabulary.
#[derive(Debug, Clone)]
pub struct TopicSet {
    topics: Vec<Topic>,
    vocab_size: usize,
}

impl TopicSet {
    /// Generates `num_topics` topics of `terms_per_topic` terms each,
    /// where consecutive topics share `overlap` terms and terms within a
    /// topic follow a Zipf law of the given `exponent`.
    ///
    /// Topic cores are taken from the *mid-frequency* band of the
    /// vocabulary (ids after the first 5%), mirroring how topical
    /// vocabulary behaves in real text: not stop-word-common, not
    /// hapax-rare. Overlap makes neighbouring topics lexically
    /// confusable — without it, a topical query separates relevant
    /// documents perfectly and every methodology saturates at 100%
    /// effectiveness, which real collections never do.
    ///
    /// Lower exponents flatten the topic signature: documents and
    /// queries then sample *different* slices of the topic vocabulary,
    /// which is what makes retrieval realistically imperfect (a steep
    /// exponent concentrates every sample on the same few head terms and
    /// effectiveness saturates).
    ///
    /// # Panics
    ///
    /// Panics if `overlap >= terms_per_topic` or the vocabulary cannot
    /// accommodate the requested topics.
    pub fn generate_full(
        num_topics: usize,
        terms_per_topic: usize,
        overlap: usize,
        exponent: f64,
        vocab_size: usize,
    ) -> TopicSet {
        assert!(
            overlap < terms_per_topic,
            "overlap must be smaller than the topic size"
        );
        let stride = terms_per_topic - overlap;
        let reserved = vocab_size / 20; // head of the Zipf curve stays background-only
        let needed = reserved + (num_topics.saturating_sub(1)) * stride + terms_per_topic;
        assert!(
            needed <= vocab_size,
            "vocabulary too small: need {needed} terms, have {vocab_size}"
        );
        let topics = (0..num_topics)
            .map(|t| {
                let start = reserved + t * stride;
                // Interleave so that a topic's *most probable* terms are
                // its private ones and shared terms sit mid-distribution:
                // rank within the window by distance from the window
                // centre's private region.
                let terms: Vec<usize> = (start..start + terms_per_topic).collect();
                Topic {
                    dist: Zipf::new(terms.len(), exponent),
                    terms,
                }
            })
            .collect();
        TopicSet { topics, vocab_size }
    }

    /// Number of topics.
    pub fn len(&self) -> usize {
        self.topics.len()
    }

    /// True if there are no topics.
    pub fn is_empty(&self) -> bool {
        self.topics.is_empty()
    }

    /// The vocabulary size the set was generated for.
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// The `t`-th topic.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn topic(&self, t: usize) -> &Topic {
        &self.topics[t]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn topic_cores_are_disjoint() {
        let set = TopicSet::generate_full(20, 50, 0, 1.0, 5000);
        let mut seen = HashSet::new();
        for topic in set.topics.iter() {
            for &term in &topic.terms {
                assert!(seen.insert(term), "term {term} in two topics");
            }
        }
    }

    #[test]
    fn topics_avoid_the_zipf_head() {
        let set = TopicSet::generate_full(10, 30, 0, 1.0, 2000);
        let reserved = 2000 / 20;
        for topic in set.topics.iter() {
            assert!(topic.terms.iter().all(|&t| t >= reserved));
        }
    }

    #[test]
    fn samples_come_from_the_topic() {
        let set = TopicSet::generate_full(5, 40, 0, 1.0, 1000);
        let mut rng = StdRng::seed_from_u64(3);
        for t in 0..5 {
            let topic = set.topic(t);
            let members: HashSet<usize> = topic.terms.iter().copied().collect();
            for _ in 0..200 {
                assert!(members.contains(&topic.sample(&mut rng)));
            }
        }
    }

    #[test]
    fn sampling_is_skewed_towards_top_terms() {
        let set = TopicSet::generate_full(1, 100, 0, 1.0, 1000);
        let topic = set.topic(0);
        let mut rng = StdRng::seed_from_u64(9);
        let first = topic.terms[0];
        let hits = (0..5000)
            .filter(|_| topic.sample(&mut rng) == first)
            .count();
        // Zipf s=1 over 100 terms: P(rank 0) ≈ 0.19.
        assert!(hits > 500, "top term sampled only {hits}/5000 times");
    }

    #[test]
    #[should_panic(expected = "vocabulary too small")]
    fn oversubscribed_vocabulary_panics() {
        TopicSet::generate_full(100, 100, 0, 1.0, 1000);
    }
}
