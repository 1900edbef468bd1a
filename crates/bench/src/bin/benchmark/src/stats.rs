//! Order statistics behind every reported number.

/// Sorts a sample ascending (total order, so a NaN cannot scramble it).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least a share `p` (in `(0, 1]`) of the sample at or below it. Exact
/// for every sample size, including those below 100.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    // `p * n` can land a hair above an integer (0.9 * 10 = 9.000000000000002);
    // shave it so an exact rank is not pushed to the next element.
    let rank = (p * sorted.len() as f64 * (1.0 - 1e-12)).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the two middle values when the
/// count is even).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let s = sorted(v.to_vec());
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Splits `(t, value)` samples with `t` in `[0, span)` into `windows` equal
/// time windows and returns each non-empty window's values, ascending.
/// Reporting the median of per-window statistics lets a host stall spoil
/// one window instead of a whole phase.
pub fn windows(samples: &[(f64, f64)], span: f64, windows: usize) -> Vec<Vec<f64>> {
    let mut buckets = vec![Vec::new(); windows];
    for &(t, v) in samples {
        let w = ((t / span) * windows as f64) as usize;
        buckets[w.min(windows - 1)].push(v);
    }
    buckets
        .into_iter()
        .filter(|b| !b.is_empty())
        .map(sorted)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_percentile_on_small_samples() {
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.5), 5.0);
        // 0.9 * 10 is 9.000000000000002 in floating point: still rank 9.
        assert_eq!(percentile(&ten, 0.9), 9.0);
        assert_eq!(percentile(&ten, 0.91), 10.0);
        assert_eq!(percentile(&ten, 1.0), 10.0);
        let seven: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(percentile(&seven, 0.5), 4.0);
        assert_eq!(percentile(&seven, 0.99), 7.0);
        assert_eq!(percentile(&seven, 0.01), 1.0);
    }

    #[test]
    fn rank_percentile_on_a_hundred_and_more() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.5), 50.0);
        assert_eq!(percentile(&hundred, 0.9), 90.0);
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 0.999), 999.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn median_of_windows_ignores_one_stalled_window() {
        // Five windows of latency 1.0, one of which also holds a stall.
        let mut samples: Vec<(f64, f64)> = (0..500).map(|i| (i as f64 / 100.0, 1.0)).collect();
        samples.extend((0..50).map(|i| (0.5 + i as f64 / 1000.0, 40.0)));
        let per_window: Vec<f64> = windows(&samples, 5.0, 5)
            .iter()
            .map(|w| percentile(w, 0.9))
            .collect();
        assert_eq!(per_window, vec![40.0, 1.0, 1.0, 1.0, 1.0]);
        assert_eq!(median(&per_window), 1.0);
        // Empty windows are skipped, and a sample at the span's end stays
        // in the last window.
        assert_eq!(windows(&[(0.1, 3.0), (5.0, 2.0)], 5.0, 5).len(), 2);
    }
}
