//! Sample statistics: medians and tail percentiles.

/// Median of `values` (mean of the middle two for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest whole percentile, at most 99, that has at least ten
/// samples beyond it among `n` samples (nearest-rank definition), or
/// `None` when `n` is too small for any percentile above the median.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (51..=99u32)
        .rev()
        .find(|&p| n.saturating_sub(rank(p, n)) >= 10)
}

/// Nearest rank (1-based) of percentile `p` among `n` samples.
fn rank(p: u32, n: usize) -> usize {
    ((p as usize * n).div_ceil(100)).max(1)
}

/// Nearest-rank percentile `p` of `values`.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(p, v.len()) - 1]
}

/// The tail of `values`: its [`tail_percentile`], or the median when
/// there are too few samples. Returns `(value, percentile used)`.
pub fn tail(values: &[f64]) -> (f64, u32) {
    match tail_percentile(values.len()) {
        Some(p) => (percentile(values, p), p),
        None => (median(values), 50),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_selection_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(5000), Some(99));
        assert_eq!(tail_percentile(999), Some(98));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(28), Some(64));
        assert_eq!(tail_percentile(20), None);
        assert_eq!(tail_percentile(0), None);
        for n in 21..3000 {
            let p = tail_percentile(n).expect("enough samples");
            assert!(n - rank(p, n) >= 10, "n={n} p={p}");
            if p < 99 {
                assert!(n - rank(p + 1, n) < 10, "n={n}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn percentiles_and_medians() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95), 190.0);
        assert_eq!(tail(&v), (190.0, 95));
        assert_eq!(median(&v), 100.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(tail(&[1.0, 2.0, 3.0]), (2.0, 50));
        assert_eq!(median(&[]), 0.0);
    }
}
