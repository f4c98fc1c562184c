//! Order statistics used by every workload and by `compare`.

/// The minimum number of samples that must lie beyond a reported tail
/// percentile for it to mean anything.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of quantile `q` among `n` sorted samples:
/// the smallest rank whose share of samples at or below it is at least `q`.
pub fn rank(n: usize, q: f64) -> usize {
    ((n as f64 * q).ceil() as usize).clamp(1, n.max(1))
}

/// How many of `n` samples lie strictly beyond the `q` percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// The fewest samples whose `q` percentile has at least [`MIN_BEYOND`]
/// samples beyond it.
pub fn samples_for(q: f64) -> usize {
    let mut n = (MIN_BEYOND as f64 / (1.0 - q)).floor() as usize;
    while beyond(n, q) < MIN_BEYOND {
        n += 1;
    }
    n
}

/// The nearest-rank `q` percentile of `samples` (unsorted); 0 for none.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q) - 1]
}

/// The `q` percentile of `samples` (unsorted) by linear interpolation
/// between the two nearest ranks; 0 for none. For a few values of very
/// different sizes, where a nearest rank would jump from one to the next.
pub fn interpolated(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// The median, averaging the middle pair of an even count; 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(samples, n=4)` (the default `exclusive`
/// method), so spreads read the same as the tools that check them.
/// A single sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => return (0.0, 0.0),
        1 => return (data[0], data[0]),
        _ => {}
    }
    let m = ld + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The interquartile distance as a share of the median.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    let med = median(samples);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_is_nearest_rank() {
        assert_eq!(rank(100, 0.5), 50);
        assert_eq!(rank(100, 0.99), 99);
        assert_eq!(rank(101, 0.99), 100);
        assert_eq!(rank(1, 0.99), 1);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
    }

    #[test]
    fn interpolated_percentiles_run_between_ranks() {
        let xs = [10.0, 40.0, 20.0, 30.0];
        assert_eq!(interpolated(&xs, 0.0), 10.0);
        assert_eq!(interpolated(&xs, 0.5), 25.0);
        assert_eq!(interpolated(&xs, 0.9), 37.0);
        assert_eq!(interpolated(&xs, 1.0), 40.0);
        assert_eq!(interpolated(&[5.0], 0.9), 5.0);
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        // p99 of 1,000 samples has exactly 10 beyond it; of 999, only 9.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(samples_for(0.99), 1000);
        assert_eq!(samples_for(0.9), 100);
        assert_eq!(samples_for(0.5), 20);
        for q in [0.5, 0.75, 0.9, 0.95, 0.99, 0.999] {
            let n = samples_for(q);
            assert!(
                beyond(n, q) >= MIN_BEYOND && beyond(n - 1, q) < MIN_BEYOND,
                "q = {q}"
            );
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&xs), 5.5);
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }
}
