//! Order statistics with an explicit sample-support rule.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! strictly beyond the selected one; otherwise the run does not support it
//! and the caller treats the run as invalid.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of quantile `q` in a sorted sample of length `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Quantile `q` of `sorted` by nearest rank, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn supported_quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let index = rank(sorted.len(), q);
    (sorted.len() - 1 - index >= MIN_BEYOND).then(|| sorted[index])
}

/// Quantile `q` of `sorted` by nearest rank, `0.0` for an empty sample.
/// For diagnostics that carry no support requirement.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        sorted[rank(sorted.len(), q)]
    }
}

/// Sorts a sample in place (total order; NaN is never produced here).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of an unsorted sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Mean of a sample, `0.0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supported_quantile_leaves_ten_samples_beyond() {
        for n in [1usize, 100, 1009, 1010, 1011, 5000] {
            let s: Vec<f64> = (0..n).map(|i| i as f64).collect();
            match supported_quantile(&s, 0.99) {
                Some(v) => {
                    let beyond = s.iter().filter(|&&x| x > v).count();
                    assert!(beyond >= MIN_BEYOND, "n={n}: only {beyond} beyond");
                }
                None => assert!(n < 1011, "n={n} should support p99"),
            }
        }
        // 1011 samples: rank 1001 leaves exactly ten beyond.
        let s: Vec<f64> = (0..1011).map(|i| i as f64).collect();
        assert_eq!(supported_quantile(&s, 0.99), Some(1000.0));
        // p95 needs 200 samples for ten beyond.
        let s: Vec<f64> = (0..199).map(|i| i as f64).collect();
        assert_eq!(supported_quantile(&s, 0.95), None);
        let s: Vec<f64> = (0..200).map(|i| i as f64).collect();
        assert_eq!(supported_quantile(&s, 0.95), Some(189.0));
    }

    #[test]
    fn median_and_quantile_basics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&sorted(vec![5.0, 1.0, 3.0]), 0.5), 3.0);
    }
}
