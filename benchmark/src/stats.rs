//! Order statistics: medians, Python-compatible quartiles, and the
//! percentile rule ("the highest percentile that has at least ten
//! samples beyond it").

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Median of unsorted values; 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// gives them — the driver computes spreads with that function.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(xs.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, med, q3) = quartiles(xs)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// The `p`-th percentile (nearest rank) of ascending `sorted`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND || p <= 0.5).then(|| sorted[rank - 1])
}

/// The percentile to report as "p95": `p95` itself when the sample
/// supports it, else the highest lower percentile that does (quick runs
/// have few samples; measured runs are sized to always support p95).
pub fn tail_percentile(sorted: &[f64]) -> f64 {
    [0.95, 0.9, 0.75, 0.5]
        .into_iter()
        .find_map(|p| percentile(sorted, p))
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        // rank 190 of 200: exactly ten samples beyond.
        assert_eq!(percentile(&xs, 0.95), Some(190.0));
        let short: Vec<f64> = (1..=199).map(f64::from).collect();
        // rank 190 of 199: nine beyond — refused.
        assert_eq!(percentile(&short, 0.95), None);
        assert_eq!(percentile(&short, 0.5), Some(100.0));
        // ...and the tail falls back to the highest supported percentile.
        assert_eq!(tail_percentile(&short), 180.0);
        assert_eq!(tail_percentile(&xs), 190.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&xs).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
