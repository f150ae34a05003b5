//! Summary statistics with the benchmark's tail rule: a tail percentile
//! is reported only where at least ten samples lie beyond it.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Arithmetic mean; `0.0` for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Nearest-rank quantile of unsorted samples; `0.0` for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q)]
}

/// Median of unsorted samples.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Sorted-sample index of the highest quantile, at most `cap`, with
/// [`TAIL_BEYOND`] samples beyond it among `n`; `None` when `n` is too
/// small for any tail.
pub fn tail_index(n: usize, cap: f64) -> Option<usize> {
    if n <= TAIL_BEYOND {
        return None;
    }
    Some(rank(n, cap).min(n - TAIL_BEYOND - 1))
}

/// A tail percentile under the ten-beyond rule: the value and the quantile
/// it is taken at. `None` when too few samples support any tail.
pub fn tail(xs: &[f64], cap: f64) -> Option<(f64, f64)> {
    let idx = tail_index(xs.len(), cap)?;
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some((sorted[idx], (idx + 1) as f64 / xs.len() as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 2000 samples: p99 is index 1979, 20 beyond.
        assert_eq!(tail_index(2000, 0.99), Some(1979));
        // 1000 samples: p99 is index 989, exactly 10 beyond.
        assert_eq!(tail_index(1000, 0.99), Some(989));
        // 500 samples: p99 would leave 5; fall back to index 489 (p98).
        assert_eq!(tail_index(500, 0.99), Some(489));
        assert_eq!(tail_index(10, 0.99), None);
        assert_eq!(tail_index(11, 0.99), Some(0));
    }

    #[test]
    fn tail_values_leave_exactly_the_promised_samples_beyond() {
        for n in [11usize, 57, 300, 999, 1000, 1001, 5000] {
            let xs: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
            let (value, q) = tail(&xs, 0.99).expect("enough samples");
            let beyond = xs.iter().filter(|&&x| x > value).count();
            assert!(beyond >= TAIL_BEYOND, "n={n} q={q} beyond={beyond}");
            // Where the sample supports p99, it is p99 and not lower.
            if n >= 1000 {
                assert!(beyond <= n / 100 + 1, "n={n} beyond={beyond}");
            }
        }
    }

    #[test]
    fn nearest_rank_quantiles() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(mean(&xs), 3.0);
        assert_eq!(median(&[]), 0.0);
    }
}
