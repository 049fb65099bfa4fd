//! End-to-end metric names and order statistics.

/// Name and unit of each end-to-end metric, as the result reports them.
/// Their directions and bounds are kept in `BENCHMARK.json` only.
pub const END_TO_END: [(&str, &str); 5] =
    [("tput", "txn/s"), ("p50_us", "us"), ("p99_us", "us"), ("cpu_us_per_txn", "us"), ("setup_s", "s")];

/// One run's end-to-end values, in the order of [`END_TO_END`].
pub type EndToEnd = [f64; 5];

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Mean of the middle half of a non-empty sample: the mean of what lies
/// between its quartiles. Unlike the median it does not jump between the
/// modes of a two-mode sample, and unlike the mean it ignores outliers.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quarter = sorted.len() / 4;
    let middle = &sorted[quarter..sorted.len() - quarter];
    assert!(!middle.is_empty(), "interquartile mean of an empty sample");
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Nearest-rank quantile of an ascending, non-empty sample.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_means_and_nearest_rank_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(interquartile_mean(&[9.0, 1.0, 2.0, 3.0, 100.0, 4.0, 0.0, 5.0]), 3.5);
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&sorted, 0.5), 50);
        assert_eq!(quantile_sorted(&sorted, 0.99), 99);
        assert_eq!(quantile_sorted(&sorted, 1.0), 100);
        assert_eq!(quantile_sorted(&[7], 0.99), 7);
    }
}
