//! Simulation clock type.
//!
//! Simulated time is a non-negative, finite `f64` measured in **seconds**
//! (the paper's natural unit: broadcast period 20 s, think time 100 s,
//! simulation horizon 100 000 s). [`SimTime`] wraps the raw float to give it
//! a total order (NaN is rejected at construction) so it can live in ordered
//! collections such as the future event list and the server's
//! recency-ordered update index.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in seconds since the start of the run.
///
/// Invariant: the inner value is finite (or `+inf` for [`SimTime::INFINITY`])
/// and never NaN, which makes the `Ord` implementation a genuine total order.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0.0);
    /// A time later than every event; useful as a sentinel.
    pub const INFINITY: SimTime = SimTime(f64::INFINITY);

    /// Wraps a raw number of seconds.
    ///
    /// # Panics
    /// Panics if `secs` is NaN (a NaN clock would silently corrupt the
    /// event-list ordering, so we fail fast instead).
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(!secs.is_nan(), "SimTime cannot be NaN");
        SimTime(secs)
    }

    /// The raw number of seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Saturating difference `self - earlier`, clamped at zero.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> f64 {
        (self.0 - earlier.0).max(0.0)
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Safe: construction forbids NaN.
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, secs: f64) -> SimTime {
        SimTime::from_secs(self.0 + secs)
    }
}

impl AddAssign<f64> for SimTime {
    #[inline]
    fn add_assign(&mut self, secs: f64) {
        *self = *self + secs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = f64;
    #[inline]
    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total_and_sane() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert!(a < SimTime::INFINITY);
        assert_eq!(SimTime::ZERO.as_secs(), 0.0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10.0) + 5.0;
        assert_eq!(t.as_secs(), 15.0);
        assert_eq!(t - SimTime::from_secs(4.0), 11.0);
        let mut u = SimTime::ZERO;
        u += 3.5;
        assert_eq!(u.as_secs(), 3.5);
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_secs(5.0);
        let late = SimTime::from_secs(9.0);
        assert_eq!(late.saturating_since(early), 4.0);
        assert_eq!(early.saturating_since(late), 0.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    fn infinity_sentinel() {
        assert_eq!(SimTime::INFINITY.as_secs(), f64::INFINITY);
        assert!(SimTime::from_secs(1e12) < SimTime::INFINITY);
    }
}
