//! Order statistics used for every reported number.

/// Nearest-rank percentile of an ascending slice (`permille` 500 = median,
/// 990 = p99). Rank rounds up, so a tail over a small sample reads the
/// maximum and never silently drops it. Empty input reads 0.
pub fn percentile(sorted: &[u64], permille: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() * permille).div_ceil(1000);
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Median of unsorted values (mean of the middle two when even); 0 if empty.
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

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method), which
/// is what the driver judges the benchmark's spread by. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The quartile of per-round values on the good side: the third for a rate,
/// the first for a latency. A single round is its own quartile; 0 if empty.
pub fn better_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    match quartiles(values) {
        Some([q1, _, q3]) => {
            if higher_is_better {
                q3
            } else {
                q1
            }
        }
        None => values.first().copied().unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 500), 50);
        assert_eq!(percentile(&v, 990), 99);
        assert_eq!(percentile(&v, 1000), 100);
        assert_eq!(percentile(&[7], 990), 7);
        assert_eq!(percentile(&[], 990), 0);
        // A small sample's p99 is its maximum.
        assert_eq!(percentile(&[1, 2, 3, 40], 990), 40);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn better_quartile_takes_the_good_side() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(better_quartile(&v, true), 8.25);
        assert_eq!(better_quartile(&v, false), 2.75);
        assert_eq!(better_quartile(&[4.0], false), 4.0);
        assert_eq!(better_quartile(&[], true), 0.0);
    }
}
