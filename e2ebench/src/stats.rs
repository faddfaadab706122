//! Order statistics for timing samples.
//!
//! A latency is reported as its median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, together with the
//! sample count, so a "p99" is never read off a handful of points.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a tail is chosen from, highest last.
const TAIL_CANDIDATES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Median of `values` (mean of the two middle values for even counts).
/// Returns NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of already sorted samples:
/// the smallest sample with at least `p`% of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Nearest-rank percentile `p` of unsorted samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(values), p)
}

/// 1-based nearest rank of percentile `p` among `n` samples (the small
/// tolerance keeps e.g. 99.9% of 10 000 at rank 9990 despite rounding).
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// A tail percentile chosen by the [`MIN_BEYOND`] rule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported, e.g. 99.0.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Number of samples it was read from.
    pub samples: usize,
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the median does not qualify.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let sorted = sorted(values);
    let n = sorted.len();
    let percentile = TAIL_CANDIDATES
        .iter()
        .copied()
        .rev()
        .find(|&p| n > 0 && samples_beyond(n, p) >= MIN_BEYOND)?;
    Some(Tail {
        percentile,
        value: percentile_sorted(&sorted, percentile),
        samples: n,
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(samples_beyond(100, 99.0), 1);
        assert_eq!(samples_beyond(1000, 99.0), 10);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples leave exactly 10 beyond p99, 1 beyond p99.9.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).expect("qualifies");
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.samples, 1000);

        // 999 samples leave only 9 beyond p99: fall back to p90.
        let t = tail(&v[..999]).expect("qualifies");
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 999);

        // 10 000 samples reach p99.9.
        let big: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&big).expect("qualifies").percentile, 99.9);
    }

    #[test]
    fn tail_of_too_few_samples_is_none() {
        assert_eq!(tail(&[]), None);
        let few: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(tail(&few), None, "19 samples leave 9 beyond the median");
        let enough: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail(&enough).expect("qualifies").percentile, 50.0);
    }
}
