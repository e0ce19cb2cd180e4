//! Order statistics used by every workload.
//!
//! Percentiles are nearest-rank: the `p`-th percentile of `n` sorted
//! samples is the sample at index `ceil(p/100 · n) − 1`. A percentile is
//! *supported* when at least [`MIN_BEYOND`] samples lie beyond it, so a
//! reported tail value is never one or two outliers in disguise.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles considered when picking the highest supported one.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Index of the nearest-rank `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps products like 99.9 % of 10,000 from rounding up
    // past an exact integer rank.
    let r = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples strictly beyond the `p`-th percentile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, p)
}

/// Whether `n` samples support reporting the `p`-th percentile.
pub fn supported(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// The highest percentile on the ladder (99.9, 99, 95, 90, 75, 50) that
/// `n` samples support, if any.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| supported(n, p))
}

/// Nearest-rank percentile of already sorted samples (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p)]
}

/// Sorts samples ascending (total order; the benchmark never produces
/// NaN).
pub fn sort(v: &mut [f64]) {
    v.sort_by(f64::total_cmp);
}

/// Median with the usual midpoint for an even count (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    sort(&mut s);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Arithmetic mean (0 when empty).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// A latency distribution reported as p50 plus a tail percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Median.
    pub p50: f64,
    /// The requested tail percentile if supported, else the highest
    /// supported one.
    pub tail: f64,
    /// Which percentile `tail` is.
    pub tail_pct: f64,
    /// Sample count.
    pub n: usize,
}

/// Summarises `samples` as p50 plus the `want`-th percentile, falling
/// back to the highest supported percentile when `want` is not
/// supported (and to the maximum when nothing is).
pub fn tail(samples: &[f64], want: f64) -> Tail {
    let mut s = samples.to_vec();
    sort(&mut s);
    let n = s.len();
    let tail_pct = if supported(n, want) {
        want
    } else {
        highest_supported(n).unwrap_or(100.0)
    };
    Tail {
        p50: percentile(&s, 50.0),
        tail: percentile(&s, tail_pct),
        tail_pct,
        n,
    }
}

/// Samples per block in [`blocked`]: the smallest block that supports
/// a 99th percentile.
pub const BLOCK: usize = 1_000;

/// Summarises `samples` block by block: consecutive runs of `block`
/// samples (the last block takes the remainder, so no block is smaller
/// than `block` unless there is only one), each reduced to its p50 and
/// `want`-th percentile as [`tail`] does, and the medians of those
/// reported. A few seconds of contention from outside the process then
/// shift a block or two, not the result.
pub fn blocked(samples: &[f64], block: usize, want: f64) -> Tail {
    let k = (samples.len() / block.max(1)).max(1);
    let per: Vec<Tail> = (0..k)
        .map(|b| {
            let end = if b + 1 == k {
                samples.len()
            } else {
                (b + 1) * block
            };
            tail(&samples[b * block..end], want)
        })
        .collect();
    Tail {
        p50: median(&per.iter().map(|t| t.p50).collect::<Vec<_>>()),
        tail: median(&per.iter().map(|t| t.tail).collect::<Vec<_>>()),
        tail_pct: per.iter().map(|t| t.tail_pct).fold(f64::INFINITY, f64::min),
        n: samples.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(!supported(999, 99.0));
        assert!(supported(1000, 99.0));
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
    }

    #[test]
    fn highest_supported_walks_down_the_ladder() {
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(1_000), Some(99.0));
        assert_eq!(highest_supported(999), Some(95.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(40), Some(75.0));
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_falls_back_when_unsupported() {
        let v: Vec<f64> = (1..=500).map(f64::from).collect();
        let t = tail(&v, 99.0);
        assert_eq!(t.tail_pct, 95.0);
        assert_eq!(t.tail, 475.0);
        assert_eq!(t.p50, 250.0);
        let few = tail(&[3.0, 1.0, 2.0], 99.0);
        assert_eq!(few.tail_pct, 100.0);
        assert_eq!(few.tail, 3.0);
    }

    #[test]
    fn blocks_are_summarised_then_medianed() {
        let mut v = vec![1.0; 1_000];
        v.extend(std::iter::repeat_n(2.0, 1_000));
        v.extend(std::iter::repeat_n(50.0, 500));
        // Two blocks: 1,000 ones, then 1,500 samples taking the remainder.
        let t = blocked(&v, 1_000, 99.0);
        assert_eq!((t.p50, t.tail, t.tail_pct, t.n), (1.5, 25.5, 99.0, 2_500));
        // Fewer samples than a block: one block, same as `tail`.
        let few: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(blocked(&few, 1_000, 99.0), tail(&few, 99.0));
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
