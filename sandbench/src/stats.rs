//! Order statistics for the benchmark's own numbers.
//!
//! Timings are reported as a median and the highest percentile that still
//! has [`MIN_BEYOND`] samples beyond it; repeatability is judged by the
//! distance between the first and third quartile as a share of the median.
//! The quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the "exclusive" method), because that is what the acceptance driver
//! computes from the same runs.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Sorted copy of `values` (NaN-free input; NaN would sort last).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    v
}

/// Median of `values` (mean of the two middle values when even).
/// Returns 0 for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `p` of the samples at or below it.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `p`.
#[must_use]
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p.clamp(0.0, 1.0) * n as f64).ceil() as usize).min(n)
}

/// Whether percentile `p` may be reported from `n` samples.
#[must_use]
pub fn percentile_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them. Needs two values;
/// fewer yield the single value (or 0) three times.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Run-to-run spread as a share of the median (0 when the median is 0):
/// the distance between the quartiles, or, with fewer than four values,
/// between the extremes — the exclusive method extrapolates past the
/// data there (two values 10 and 20 get quartiles 7.5 and 22.5).
#[must_use]
pub fn rel_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        return 0.0;
    }
    if values.len() < 4 {
        let v = sorted(values);
        return (v[v.len() - 1] - v[0]) / q2.abs();
    }
    (q3 - q1) / q2.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((rel_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(rel_spread(&[5.0, 5.0, 5.0]), 0.0);
        // Fewer than four values: the range, not extrapolated quartiles.
        assert!((rel_spread(&[10.0, 20.0]) - 10.0 / 15.0).abs() < 1e-12);
        assert!((rel_spread(&[10.0, 12.0, 20.0]) - 10.0 / 12.0).abs() < 1e-12);
        assert_eq!(rel_spread(&[7.0]), 0.0);
        assert_eq!(rel_spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1000 samples leaves exactly 10 beyond it; 999 leaves 9.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(percentile_supported(1000, 0.99));
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert!(!percentile_supported(999, 0.99));
        // The issue's sizing: 2000 batches leave 20 beyond p99.
        assert_eq!(samples_beyond(2000, 0.99), 20);
        assert!(percentile_supported(20, 0.5));
        assert!(!percentile_supported(19, 0.5));
    }
}
