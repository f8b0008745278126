//! Zipf-distributed sampling over a finite vocabulary.
//!
//! Term frequencies in natural-language text famously follow Zipf's law:
//! the `r`-th most frequent term has probability proportional to
//! `1 / r^s` with `s ≈ 1`. The background (non-topical) portion of every
//! synthetic document is drawn from this distribution, which is what
//! gives the generated collections realistic vocabulary growth, inverted
//! list length skew, and compression behaviour.

use rand::Rng;

/// A precomputed Zipf sampler over ranks `0..n`.
///
/// Sampling is by binary search over the cumulative distribution:
/// `O(log n)` per draw, fully deterministic given the RNG.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Cumulative probabilities; `cdf[r]` = P(rank ≤ r).
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a sampler over `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is not finite and positive.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs a non-empty support");
        assert!(s.is_finite() && s > 0.0, "zipf exponent must be positive");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += 1.0 / (r as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Probability of rank `r`.
    pub fn probability(&self, r: usize) -> f64 {
        if r >= self.cdf.len() {
            return 0.0;
        }
        if r == 0 {
            self.cdf[0]
        } else {
            self.cdf[r] - self.cdf[r - 1]
        }
    }

    /// Draws one rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        // partition_point returns the first index with cdf[i] >= u.
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cdf_ends_at_one() {
        for n in [1usize, 2, 10, 1000] {
            let z = Zipf::new(n, 1.0);
            assert!((z.cdf.last().unwrap() - 1.0).abs() < 1e-12, "n={n}");
        }
    }

    #[test]
    fn probabilities_decrease_with_rank() {
        let z = Zipf::new(100, 1.0);
        for r in 1..100 {
            assert!(z.probability(r) <= z.probability(r - 1) + 1e-15, "rank {r}");
        }
        assert_eq!(z.probability(100), 0.0);
    }

    #[test]
    fn rank_zero_is_most_likely_empirically() {
        let z = Zipf::new(50, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0u32; 50];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        let max = counts.iter().copied().max().unwrap();
        assert_eq!(counts[0], max);
        // Head mass: P(rank 0) at s=1, n=50 is ~0.22.
        assert!(counts[0] > 3_000, "head count {}", counts[0]);
        // The tail is still reachable.
        assert!(counts[40..].iter().any(|&c| c > 0));
    }

    #[test]
    fn empirical_frequencies_match_theory() {
        let z = Zipf::new(10, 1.0);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 100_000;
        let mut counts = [0u32; 10];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (r, &count) in counts.iter().enumerate() {
            let expected = z.probability(r) * n as f64;
            let got = f64::from(count);
            assert!(
                (got - expected).abs() < 5.0 * expected.sqrt() + 5.0,
                "rank {r}: got {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn single_rank_support() {
        let z = Zipf::new(1, 1.0);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    fn higher_exponent_concentrates_mass() {
        let flat = Zipf::new(100, 0.5);
        let steep = Zipf::new(100, 2.0);
        assert!(steep.probability(0) > flat.probability(0));
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let z = Zipf::new(1000, 1.1);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..20).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    #[should_panic(expected = "non-empty support")]
    fn empty_support_panics() {
        Zipf::new(0, 1.0);
    }
}
