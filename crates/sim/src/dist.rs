//! The distributions used by the simulation model (§4 of the paper).
//!
//! * [`Exp`] — exponential inter-arrival/think/disconnection times.
//! * [`Poisson`] — number of items touched by an update transaction or
//!   referenced by a query ("mean data items updated by a transaction = 5").
//! * [`UniformRange`] — uniform item selection inside a database region.
//! * [`Zipf`] — an extension used by the skewed-access ablation.
//!
//! All samplers draw from [`SimRng`] and are plain value types, so a
//! workload generator can own one per process stream.

use crate::rng::SimRng;

/// Exponential distribution with a given mean (not rate).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exp {
    mean: f64,
}

impl Exp {
    /// An exponential with mean `mean` seconds.
    ///
    /// # Panics
    /// Panics unless `mean` is finite and positive.
    pub fn with_mean(mean: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be positive and finite, got {mean}"
        );
        Exp { mean }
    }

    /// Draws a sample via inverse-transform: `-mean * ln(U)`, `U ∈ (0, 1]`.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        -self.mean * rng.next_f64_open0().ln()
    }
}

/// Poisson distribution (Knuth's multiplication method).
///
/// Only small means appear in the model (5 items per update transaction,
/// 10 items per query), where Knuth's method is both exact and fast.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Poisson {
    exp_neg_mean: f64,
}

impl Poisson {
    /// A Poisson with the given mean.
    ///
    /// # Panics
    /// Panics unless `mean` is positive and small enough for Knuth's method
    /// (`exp(-mean)` must not underflow; we cap at 700).
    pub fn with_mean(mean: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0 && mean < 700.0,
            "Poisson mean must be in (0, 700), got {mean}"
        );
        Poisson {
            exp_neg_mean: (-mean).exp(),
        }
    }

    /// Draws a sample.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let mut k = 0u64;
        let mut p = 1.0f64;
        loop {
            p *= rng.next_f64_open0();
            if p <= self.exp_neg_mean {
                return k;
            }
            k += 1;
        }
    }

    /// Draws a sample clamped below at 1 — a transaction that updates zero
    /// items or a query that reads zero items is meaningless in the model.
    #[inline]
    pub fn sample_at_least_one(&self, rng: &mut SimRng) -> u64 {
        self.sample(rng).max(1)
    }
}

/// Uniform integer distribution over the inclusive range `[lo, hi]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UniformRange {
    lo: u64,
    hi: u64,
}

impl UniformRange {
    /// A uniform over `[lo, hi]` (inclusive).
    ///
    /// # Panics
    /// Panics if the range is empty.
    pub fn new_inclusive(lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "empty uniform range [{lo}, {hi}]");
        UniformRange { lo, hi }
    }

    /// Draws a sample.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        rng.next_range_inclusive(self.lo, self.hi)
    }
}

/// Zipf distribution over ranks `1..=n` with exponent `theta`.
///
/// Not part of the paper's Table 2 (which uses hot/cold regions), but a
/// natural extension for skewed-access ablations. Sampling is by inverted
/// CDF over precomputed cumulative weights (O(log n) per sample).
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A Zipf over `1..=n` with skew `theta > 0` (`theta → 0` approaches
    /// uniform; `theta = 1` is the classic harmonic profile).
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta` is not finite and positive.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "Zipf over empty support");
        assert!(
            theta.is_finite() && theta > 0.0,
            "Zipf exponent must be positive, got {theta}"
        );
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for w in &mut cdf {
            *w /= total;
        }
        // Guard against floating-point round-off at the top end.
        *cdf.last_mut().expect("non-empty") = 1.0;
        Zipf { cdf }
    }

    /// Support size.
    pub fn n(&self) -> u64 {
        self.cdf.len() as u64
    }

    /// Draws a rank in `1..=n` (rank 1 is the most popular).
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.next_f64();
        let idx = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        idx as u64 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(0x00DE_C0DE)
    }

    #[test]
    fn exp_mean_matches() {
        let d = Exp::with_mean(100.0);
        let mut r = rng();
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() < 1.5, "mean {mean}");
    }

    #[test]
    fn exp_samples_nonnegative() {
        let d = Exp::with_mean(0.001);
        let mut r = rng();
        assert!((0..10_000).all(|_| d.sample(&mut r) >= 0.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exp_rejects_nonpositive_mean() {
        Exp::with_mean(0.0);
    }

    #[test]
    fn poisson_mean_and_variance() {
        let d = Poisson::with_mean(5.0);
        let mut r = rng();
        let n = 100_000usize;
        let samples: Vec<u64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let mean = samples.iter().sum::<u64>() as f64 / n as f64;
        let var = samples
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var - 5.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn poisson_at_least_one_floor() {
        let d = Poisson::with_mean(0.1);
        let mut r = rng();
        assert!((0..10_000).all(|_| d.sample_at_least_one(&mut r) >= 1));
    }

    #[test]
    fn uniform_range_bounds() {
        let d = UniformRange::new_inclusive(10, 19);
        let mut r = rng();
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = d.sample(&mut r);
            assert!((10..=19).contains(&v));
            seen[(v - 10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "every value of the range drawn");
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let d = Zipf::new(1000, 1.0);
        let mut r = rng();
        let n = 100_000;
        let ones = (0..n).filter(|_| d.sample(&mut r) == 1).count() as f64 / n as f64;
        // For n=1000, theta=1: P(1) = 1/H_1000 ≈ 0.1336.
        assert!((ones - 0.1336).abs() < 0.01, "P(rank 1) {ones}");
    }

    #[test]
    fn zipf_stays_in_support() {
        let d = Zipf::new(7, 0.8);
        let mut r = rng();
        for _ in 0..10_000 {
            let v = d.sample(&mut r);
            assert!((1..=7).contains(&v));
        }
    }
}
