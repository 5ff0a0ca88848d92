//! Order statistics the report is built from: medians over laps,
//! quartiles as Python's `statistics.quantiles(n=4)` computes them (the
//! driver's spread check uses that function, so the README tables and the
//! driver agree), and tail percentiles that refuse to speak without enough
//! samples beyond them.

/// Samples that must lie beyond a tail percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median with the usual mean-of-middle-pair rule; 0.0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method (`(n + 1) * p`
/// positions, linear interpolation), clamped to the sample range exactly
/// as `statistics.quantiles` does. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |quarter: usize| {
        // Position quarter/4 of the way through n + 1 gaps, 1-based.
        let j = (quarter * (n + 1) / 4).clamp(1, n - 1);
        let delta = (quarter * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond that rank:
/// a p99 over 300 samples is three samples' opinion, not a percentile.
pub fn tail_percentile(ascending: &[u64], p: f64) -> Option<u64> {
    let n = ascending.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    (p <= 50.0 || n - rank >= MIN_BEYOND).then(|| ascending[rank - 1])
}

/// The value a run reports for a per-lap timing: the median over the
/// measured laps, the first lap being the warm-up and never counted.
pub fn lap_median(per_lap: &[f64]) -> f64 {
    median(per_lap.get(1..).unwrap_or(&[]))
}

/// Relative gap between two values of one metric, against their mean.
pub fn relative_gap(a: f64, b: f64) -> f64 {
    let mean = (a.abs() + b.abs()) / 2.0;
    if mean > 0.0 {
        (a - b).abs() / mean
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_percentile(&v, 99.0), Some(990));
        assert_eq!(tail_percentile(&v, 50.0), Some(500));
        // 999 samples leave only nine beyond the 99th-percentile rank.
        assert_eq!(tail_percentile(&v[..999], 99.0), None);
        assert_eq!(tail_percentile(&v[..999], 98.0), Some(980));
        // The median never needs a tail.
        assert_eq!(tail_percentile(&[7], 50.0), Some(7));
        assert_eq!(tail_percentile(&[], 50.0), None);
    }

    #[test]
    fn lap_median_drops_the_warm_up_lap() {
        // The warm-up lap is the outlier; it must not move the median.
        assert_eq!(lap_median(&[100.0, 1.0, 2.0, 3.0]), 2.0);
        assert_eq!(lap_median(&[100.0, 4.0]), 4.0);
        assert_eq!(lap_median(&[100.0]), 0.0);
    }

    #[test]
    fn relative_gap_is_symmetric() {
        assert!((relative_gap(90.0, 110.0) - 0.2).abs() < 1e-12);
        assert_eq!(relative_gap(110.0, 90.0), relative_gap(90.0, 110.0));
        assert_eq!(relative_gap(0.0, 0.0), 0.0);
    }
}
