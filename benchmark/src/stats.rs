//! Order statistics over timing samples.

/// Median of `values` (mean of the two middle ones for an even count);
/// 0 for an empty slice, which the callers print as "not exercised".
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest value; 0 for an empty slice.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// First, second and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// so `compare` and the driver agree on what a spread is. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the median.
pub fn iqr_frac(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending-sorted slice.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile that still has at least ten samples beyond it:
/// `(percentile, value)`. With fewer than eleven samples there is none.
pub fn pmax_sorted(sorted: &[u64]) -> Option<(f64, u64)> {
    let n = sorted.len();
    if n < 11 {
        return None;
    }
    Some((100.0 * (n - 10) as f64 / n as f64, sorted[n - 11]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some([1.0, 2.0, 4.0]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_frac(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 500);
        assert_eq!(percentile_sorted(&v, 99.0), 990);
        assert_eq!(percentile_sorted(&v, 100.0), 1000);
        assert_eq!(percentile_sorted(&[], 50.0), 0);
    }

    #[test]
    fn pmax_keeps_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        let (p, x) = pmax_sorted(&v).unwrap();
        assert_eq!(x, 990);
        assert!((p - 99.0).abs() < 1e-12);
        assert_eq!(v.iter().filter(|&&s| s > x).count(), 10);
        assert!(pmax_sorted(&v[..10]).is_none());
        assert_eq!(pmax_sorted(&v[..11]).unwrap().1, 1);
    }
}
