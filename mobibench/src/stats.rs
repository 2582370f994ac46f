//! Order statistics for the benchmark's summaries.

/// The `p`-quantile of `sorted` (ascending, non-empty) by the exclusive
/// method Python's `statistics.quantiles` uses by default: 1-based
/// position `p·(n+1)`, linearly interpolated, clamped to the sample range.
///
/// # Panics
/// Panics if `sorted` is empty.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let n = sorted.len();
    let h = (p * (n + 1) as f64).clamp(1.0, n as f64);
    let lo = h.floor() as usize;
    if lo >= n {
        return sorted[n - 1];
    }
    sorted[lo - 1] + (h - lo as f64) * (sorted[lo] - sorted[lo - 1])
}

/// Median, quartiles and range of one metric over the ops of a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Middle value.
    pub median: f64,
    /// First quartile.
    pub p25: f64,
    /// Third quartile.
    pub p75: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `samples` (any order, non-empty).
    ///
    /// # Panics
    /// Panics if `samples` is empty or holds a NaN.
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
        Summary {
            median: quantile(&s, 0.5),
            p25: quantile(&s, 0.25),
            p75: quantile(&s, 0.75),
            min: s[0],
            max: s[s.len() - 1],
            n: s.len(),
        }
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first; the median is the fallback.
const TAIL_LADDER: [f64; 5] = [0.9999, 0.999, 0.99, 0.9, 0.5];

/// A tail percentile of a latency distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Which percentile, as a fraction (0.99 = p99).
    pub p: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples in the distribution.
    pub n: usize,
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// The nearest-rank `p`-percentile of `sorted` (ascending, non-empty):
/// always one of the samples.
///
/// # Panics
/// Panics if `sorted` is empty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()) - 1]
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`MIN_BEYOND`] samples strictly beyond its nearest-rank position, so
/// the reported tail rests on real samples rather than on the maximum.
/// Falls back to the median when no percentile qualifies.
///
/// # Panics
/// Panics if `sorted` is empty.
pub fn tail(sorted: &[f64]) -> Tail {
    assert!(!sorted.is_empty(), "tail of no samples");
    let n = sorted.len();
    let p = TAIL_LADDER
        .into_iter()
        .find(|&p| n - rank(p, n) >= MIN_BEYOND)
        .unwrap_or(0.5);
    Tail {
        p,
        value: nearest_rank(sorted, p),
        n,
    }
}
