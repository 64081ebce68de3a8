//! Order statistics for the end-to-end latency metrics.

/// Percentiles the tail metric may report, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The `p`-th percentile of `sorted` (nearest rank, `p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// The tail: the highest percentile in the ladder with at least ten
/// samples beyond it. Returns `(percentile, value)`; with fewer than 20
/// samples it falls back to the median.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let p = TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    (p, percentile(&v, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), (95.0, 190.0));
        let v: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(tail(&v).0, 90.0);
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (50.0, 2.0));
    }

    #[test]
    fn median_of_unsorted() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }
}
