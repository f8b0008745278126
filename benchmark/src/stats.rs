//! Order statistics: percentiles, the highest percentile a sample
//! supports, and the quartile rule the driver applies to result sets.

/// Candidate tail percentiles, lowest first.
const TAILS: [f64; 5] = [0.50, 0.90, 0.95, 0.99, 0.999];

/// Nearest-rank percentile of an ascending slice; 0 for an empty one.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest candidate percentile with at least ten samples beyond
/// it, capped at `want`. A p95 over 60 samples would rest on three
/// values; this falls back to the p50 instead and says so.
pub fn supported_percentile(samples: usize, want: f64) -> f64 {
    TAILS
        .iter()
        .copied()
        .filter(|p| *p <= want && samples as f64 * (1.0 - p) >= 10.0 - 1e-6)
        .fold(TAILS[0], f64::max)
}

/// `percentile` at the highest supported percentile not above `want`.
pub fn tail<T: Copy + Default>(sorted: &[T], want: f64) -> T {
    percentile(sorted, supported_percentile(sorted.len(), want))
}

/// Sorts and returns the slice (ascending, NaN-free input).
fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    values
}

/// Median with the usual midpoint rule; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them,
/// which is the rule the driver applies. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values.to_vec());
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median (0 when the median
/// is 0 or there are fewer than two values).
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile::<u64>(&[], 0.5), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 199 samples: 5 % of them is 9.95, short of ten.
        assert_eq!(supported_percentile(199, 0.99), 0.90);
        assert_eq!(supported_percentile(200, 0.99), 0.95);
        assert_eq!(supported_percentile(1000, 0.99), 0.99);
        assert_eq!(supported_percentile(999, 0.99), 0.95);
        assert_eq!(supported_percentile(10_000, 0.999), 0.999);
        // `want` caps the answer even when the sample supports more.
        assert_eq!(supported_percentile(10_000, 0.95), 0.95);
        // Tiny samples fall back to the median.
        assert_eq!(supported_percentile(12, 0.95), 0.50);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(tail(&v, 0.95), 90);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q1, q3), (1.0, 3.0));
        assert!(quartiles(&[1.0]).is_none());
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
