//! Order statistics over measured samples.

/// The `p`-th percentile (0 ≤ p ≤ 100) by the nearest-rank rule: the
/// smallest sample with at least `p`% of the samples at or below it.
/// Returns 0 for an empty slice, the value every per-layer metric reports
/// when its layer did no work on a workload.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let mut work = samples.to_vec();
    let (_, v, _) = work.select_nth_unstable_by(rank.min(n) - 1, f64::total_cmp);
    *v
}

/// The median by the nearest-rank rule.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Whether a percentile `p` of `n` samples leaves at least ten samples
/// above it, the condition for reporting it.
pub fn resolves(n: usize, p: f64) -> bool {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n >= rank + 10
}

#[cfg(test)]
mod tests {
    use super::*;
    use cludistream_rng::{check, Rng};

    #[test]
    fn percentile_matches_a_sorted_oracle() {
        check::cases("percentile_oracle", 200, |rng| {
            let n = rng.gen_range(1..300usize);
            let samples: Vec<f64> = (0..n).map(|_| rng.gen_range(-1e3..1e3)).collect();
            let mut sorted = samples.clone();
            sorted.sort_by(f64::total_cmp);
            for p in [0.0, 1.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0] {
                // Nearest rank: the k-th smallest with k = ceil(p·n/100), k ≥ 1.
                let k = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
                assert_eq!(percentile(&samples, p), sorted[k - 1], "p{p} of {n}");
            }
        });
    }

    #[test]
    fn percentile_of_small_sets() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 100.0), 4.0);
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert!(!resolves(199, 95.0));
        assert!(resolves(200, 95.0));
        assert!(resolves(20, 50.0));
    }
}
