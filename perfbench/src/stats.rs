//! Sample statistics: medians and the percentile rule.
//!
//! A tail percentile is only reported where the sample supports it: at
//! least [`MIN_BEYOND`] samples must lie beyond the reported rank. With
//! fewer samples than p99 needs, the highest supported percentile is
//! reported instead, and below that the median.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of percentile `pct` in `n` samples.
fn rank(n: usize, pct: usize) -> usize {
    (pct * n).div_ceil(100).clamp(1, n)
}

/// Nearest-rank position (1-based) reported as the tail of `n` samples
/// when p99 is the target: p99's rank when at least [`MIN_BEYOND`]
/// samples lie beyond it, else the highest rank that still leaves that
/// many beyond, and never below the median's rank.
pub fn tail_rank(n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let p99 = rank(n, 99);
    if n - p99 >= MIN_BEYOND {
        return p99;
    }
    n.saturating_sub(MIN_BEYOND).max(rank(n, 50))
}

/// Value at nearest-rank percentile `pct` of ascending `sorted`.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(sorted: &[f64], pct: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), pct) - 1]
}

/// A latency population: median and supported tail, with its size.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The percentile `tail` was taken at (see [`tail_rank`]).
    pub tail_p: f64,
    pub tail: f64,
}

/// Summarizes `samples`, targeting p99 for the tail.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let k = tail_rank(s.len());
    Summary {
        n: s.len(),
        p50: percentile(&s, 50),
        tail_p: 100.0 * k as f64 / s.len() as f64,
        tail: s[k - 1],
    }
}

/// Median (mean of the middle two for an even count); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: p99's rank 990 leaves exactly 10 beyond.
        assert_eq!(tail_rank(1000), 990);
        // 999 samples: rank 990 would leave 9, so the tail drops to 989.
        assert_eq!(tail_rank(999), 989);
    }

    #[test]
    fn small_samples_fall_back_to_the_median() {
        assert_eq!(tail_rank(30), 20);
        assert_eq!(tail_rank(15), rank(15, 50));
        assert_eq!(tail_rank(1), 1);
    }

    #[test]
    fn every_reported_tail_leaves_ten_beyond_or_is_the_median() {
        for n in 1..3000 {
            let k = tail_rank(n);
            let med = rank(n, 50);
            assert!(n - k >= MIN_BEYOND || k == med, "n={n} k={k}");
            assert!(k >= med && k <= rank(n, 99), "n={n} k={k}");
        }
    }

    #[test]
    fn summary_reads_ranks() {
        let xs: Vec<f64> = (1..=2000).rev().map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!((s.n, s.p50, s.tail_p, s.tail), (2000, 1000.0, 99.0, 1980.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
