//! Online statistics accumulators.
//!
//! The simulator reports throughput, per-query uplink cost, latency
//! percentiles and channel utilisation; these accumulators collect them in
//! one pass with O(1) memory (except the histogram, which is fixed-size).

/// Welford single-pass mean/variance accumulator.
#[derive(Clone, Debug, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Smallest observation, or `+inf` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation, or `-inf` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A named monotone counter.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counter {
    value: f64,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter { value: 0.0 }
    }

    /// Adds `amount` (must be non-negative).
    pub fn add(&mut self, amount: f64) {
        debug_assert!(amount >= 0.0, "counter decrement: {amount}");
        self.value += amount;
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        self.value
    }
}

/// Fixed-bucket histogram over `[lo, hi)` with overflow/underflow buckets.
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    width: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// A histogram with `n` equal buckets over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `n == 0` or the interval is empty.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n > 0, "zero buckets");
        assert!(hi > lo, "empty histogram range");
        Histogram {
            lo,
            width: (hi - lo) / n as f64,
            buckets: vec![0; n],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Records an observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        let idx = ((x - self.lo) / self.width) as usize;
        if idx >= self.buckets.len() {
            self.overflow += 1;
        } else {
            self.buckets[idx] += 1;
        }
    }

    /// Total observations (including under/overflow).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the top of the range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Approximate quantile (`q ∈ [0, 1]`) by linear walk over buckets;
    /// returns the lower edge of the bucket containing the quantile.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return f64::NAN;
        }
        let target = (q * self.count as f64).ceil() as u64;
        let mut acc = self.underflow;
        if acc >= target {
            return self.lo;
        }
        for (i, &b) in self.buckets.iter().enumerate() {
            acc += b;
            if acc >= target {
                return self.lo + i as f64 * self.width;
            }
        }
        self.lo + self.buckets.len() as f64 * self.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_closed_form() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        data.iter().for_each(|&x| whole.record(x));
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        data[..37].iter().for_each(|&x| a.record(x));
        data[37..].iter().for_each(|&x| b.record(x));
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        let mut a = OnlineStats::new();
        a.merge(&s);
        assert_eq!(a.count(), 0);
    }

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.add(1.0);
        c.add(2.5);
        assert_eq!(c.get(), 3.5);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..100 {
            h.record(i as f64 / 10.0); // 0.0 .. 9.9 uniformly
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
        assert!(h.buckets().iter().all(|&b| b == 10));
        assert!((h.quantile(0.5) - 4.0).abs() <= 1.0);
        h.record(-1.0);
        h.record(99.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
    }
}
