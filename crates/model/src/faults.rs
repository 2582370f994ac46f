//! Fault-injection plan: bursty downlink loss, uplink loss, client
//! retry/backoff policy, and scheduled server crashes.
//!
//! The paper's premise is that mobile clients operate under failure —
//! dozing, power-off, missed invalidation reports — and that every
//! scheme must recover from *any* missed state. [`FaultPlan`] makes that
//! claim testable: it describes, declaratively and deterministically,
//! which faults a run injects.
//!
//! ## The Gilbert–Elliott downlink channel
//!
//! Downlink broadcast loss is modelled per client as a two-state
//! Gilbert–Elliott chain. Each broadcast interval the client's channel is
//! either **good** or **bad** (in a loss burst):
//!
//! ```text
//!            p_enter_burst
//!      good ───────────────▶ bad
//!       ▲                     │
//!       └─────────────────────┘
//!          1 / mean_burst_intervals
//! ```
//!
//! In the good state a broadcast is lost with [`p_loss_good`]
//! (independent, usually small); in a burst it is lost with
//! [`p_loss_bad`] (usually near 1). `p_loss_good > 0` with
//! `p_enter_burst = 0` degenerates to the legacy i.i.d.
//! `p_report_loss` model, which is exactly how the back-compat shim maps
//! the old knob onto this one.
//!
//! ## Determinism contract
//!
//! Every fault coin is drawn from a **dedicated per-client RNG stream**
//! (`SimRng::stream(seed, 0xFA17… + client)`) in client-index order —
//! the phase-0 delivery pass for downlink coins, each client's actions
//! for uplink coins. A client's report handler never touches fault
//! state, so golden digests are bit-identical with faults on or off.
//! When the plan is inactive no fault stream is ever advanced, so
//! `faults = off` reproduces historical digests bit-for-bit.
//!
//! [`p_loss_good`]: ChannelFaults::p_loss_good
//! [`p_loss_bad`]: ChannelFaults::p_loss_bad

use crate::error::ConfigError;

/// Per-client Gilbert–Elliott burst-loss process for downlink broadcasts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChannelFaults {
    /// Probability, per broadcast interval, of a good channel entering a
    /// loss burst.
    pub p_enter_burst: f64,
    /// Mean burst length in broadcast intervals (the chain leaves the
    /// bad state with probability `1 / mean_burst_intervals`). Must be
    /// at least 1: a "burst" shorter than one interval is not a burst.
    pub mean_burst_intervals: f64,
    /// Per-broadcast loss probability while the channel is good.
    pub p_loss_good: f64,
    /// Per-broadcast loss probability while the channel is in a burst.
    pub p_loss_bad: f64,
}

impl ChannelFaults {
    /// A fault-free downlink: never enters a burst, never loses.
    pub fn none() -> Self {
        ChannelFaults {
            p_enter_burst: 0.0,
            mean_burst_intervals: 1.0,
            p_loss_good: 0.0,
            p_loss_bad: 0.0,
        }
    }

    /// Probability of leaving the bad state each interval.
    pub fn p_exit_burst(&self) -> f64 {
        1.0 / self.mean_burst_intervals
    }

    /// Folds an independent per-broadcast loss source (the legacy
    /// `p_report_loss` knob) into both chain states:
    /// `p_eff = 1 − (1 − p_state)(1 − p_extra)`. With an inactive chain
    /// this degenerates to the old i.i.d. loss model exactly.
    #[must_use]
    pub fn with_independent_loss(mut self, p_extra: f64) -> Self {
        if p_extra > 0.0 {
            self.p_loss_good = 1.0 - (1.0 - self.p_loss_good) * (1.0 - p_extra);
            self.p_loss_bad = 1.0 - (1.0 - self.p_loss_bad) * (1.0 - p_extra);
        }
        self
    }

    /// `true` if this process can ever lose a broadcast.
    pub fn is_active(&self) -> bool {
        self.p_loss_good > 0.0 || (self.p_enter_burst > 0.0 && self.p_loss_bad > 0.0)
    }
}

impl Default for ChannelFaults {
    fn default() -> Self {
        ChannelFaults::none()
    }
}

/// Client retry schedule for lost uplinks (`Tlb`, validity checks, data
/// requests).
///
/// A client that uplinked a request and saw no qualifying report within
/// `timeout_intervals` broadcast intervals re-uplinks; each retry doubles
/// the timeout (capped at `backoff_cap_intervals`). After `max_retries`
/// re-sends the client falls back to the paper-faithful graceful
/// degradation: drop the whole cache and start cold.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Broadcast intervals to wait before the first retry. Must be ≥ 1.
    pub timeout_intervals: u32,
    /// Re-sends before giving up and dropping the cache.
    pub max_retries: u32,
    /// Ceiling, in broadcast intervals, on the doubled timeout. Must be
    /// ≥ 1.
    pub backoff_cap_intervals: u32,
}

impl Default for RetryPolicy {
    /// First retry after 2 intervals (the legacy grace window), then 4,
    /// then 8, capped there; give up after 4 re-sends.
    fn default() -> Self {
        RetryPolicy {
            timeout_intervals: 2,
            max_retries: 4,
            backoff_cap_intervals: 8,
        }
    }
}

impl RetryPolicy {
    /// Timeout, in broadcast intervals, for attempt number `retries`
    /// (0 = the original send): `timeout · 2^retries`, capped.
    pub fn timeout_intervals_for(&self, retries: u32) -> u32 {
        let doubled = self
            .timeout_intervals
            .saturating_mul(1u32.checked_shl(retries).unwrap_or(u32::MAX));
        doubled.min(self.backoff_cap_intervals).max(1)
    }
}

/// Declarative fault schedule for one run.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    /// Downlink burst-loss process (per client).
    pub downlink: ChannelFaults,
    /// Independent per-message uplink loss probability.
    pub p_uplink_loss: f64,
    /// Client retry/timeout/backoff policy, armed whenever the plan is
    /// active.
    pub retry: RetryPolicy,
    /// Server crash times, in seconds. Each crash wipes the server's
    /// volatile state; the server is down until `recovery_secs` later.
    pub crashes: Vec<f64>,
    /// How long a crashed server stays down before rebuilding from the
    /// durable update log.
    pub recovery_secs: f64,
}

impl FaultPlan {
    /// The empty plan: no losses, no crashes. Runs with this plan are
    /// bit-identical to runs before the fault layer existed.
    pub fn none() -> Self {
        FaultPlan {
            downlink: ChannelFaults::none(),
            p_uplink_loss: 0.0,
            retry: RetryPolicy::default(),
            crashes: Vec::new(),
            recovery_secs: 0.0,
        }
    }

    /// `true` if this plan can inject any fault at all. Inactive plans
    /// draw zero fault coins and leave client retry logic disarmed.
    pub fn is_active(&self) -> bool {
        self.downlink.is_active() || self.p_uplink_loss > 0.0 || !self.crashes.is_empty()
    }

    /// Validates every fault parameter; called from
    /// [`SimConfig::validate`](crate::SimConfig::validate).
    pub fn validate(&self) -> Result<(), ConfigError> {
        prob("faults.downlink.p_enter_burst", self.downlink.p_enter_burst)?;
        prob("faults.downlink.p_loss_good", self.downlink.p_loss_good)?;
        prob("faults.downlink.p_loss_bad", self.downlink.p_loss_bad)?;
        prob("faults.p_uplink_loss", self.p_uplink_loss)?;
        if !(self.downlink.mean_burst_intervals.is_finite()
            && self.downlink.mean_burst_intervals >= 1.0)
        {
            return Err(ConfigError::OutOfRange {
                field: "faults.downlink.mean_burst_intervals",
                value: self.downlink.mean_burst_intervals,
                bounds: "[1, inf)",
            });
        }
        if self.retry.timeout_intervals == 0 {
            return Err(ConfigError::ZeroCount {
                field: "faults.retry.timeout_intervals",
            });
        }
        if self.retry.backoff_cap_intervals == 0 {
            return Err(ConfigError::ZeroCount {
                field: "faults.retry.backoff_cap_intervals",
            });
        }
        if !(self.recovery_secs.is_finite() && self.recovery_secs >= 0.0) {
            return Err(ConfigError::Negative {
                field: "faults.recovery_secs",
                value: self.recovery_secs,
            });
        }
        for &t in &self.crashes {
            if !(t.is_finite() && t >= 0.0) {
                return Err(ConfigError::Negative {
                    field: "faults.crashes[..]",
                    value: t,
                });
            }
        }
        Ok(())
    }
}

fn prob(field: &'static str, value: f64) -> Result<(), ConfigError> {
    if value.is_finite() && (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(ConfigError::OutOfRange {
            field,
            value,
            bounds: "[0, 1]",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inactive_and_valid() {
        let p = FaultPlan::none();
        assert!(!p.is_active());
        assert_eq!(p, FaultPlan::default());
        p.validate().unwrap();
    }

    #[test]
    fn activity_requires_a_reachable_loss() {
        let mut p = FaultPlan::none();
        // A bad-state loss probability with no way to enter the bad
        // state can never lose anything.
        p.downlink.p_loss_bad = 0.9;
        assert!(!p.is_active());
        p.downlink.p_enter_burst = 0.1;
        assert!(p.is_active());

        assert!(FaultPlan {
            p_uplink_loss: 0.01,
            ..FaultPlan::none()
        }
        .is_active());
        assert!(FaultPlan {
            crashes: vec![100.0],
            ..FaultPlan::none()
        }
        .is_active());
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let bad_prob = FaultPlan {
            p_uplink_loss: 1.5,
            ..FaultPlan::none()
        };
        assert_eq!(
            bad_prob.validate(),
            Err(ConfigError::OutOfRange {
                field: "faults.p_uplink_loss",
                value: 1.5,
                bounds: "[0, 1]",
            })
        );

        let mut zero_burst = FaultPlan::none();
        zero_burst.downlink.mean_burst_intervals = 0.0;
        assert_eq!(
            zero_burst.validate(),
            Err(ConfigError::OutOfRange {
                field: "faults.downlink.mean_burst_intervals",
                value: 0.0,
                bounds: "[1, inf)",
            })
        );

        let neg_recovery = FaultPlan {
            recovery_secs: -1.0,
            ..FaultPlan::none()
        };
        assert_eq!(
            neg_recovery.validate(),
            Err(ConfigError::Negative {
                field: "faults.recovery_secs",
                value: -1.0,
            })
        );

        let neg_crash = FaultPlan {
            crashes: vec![50.0, -2.0],
            ..FaultPlan::none()
        };
        assert_eq!(
            neg_crash.validate(),
            Err(ConfigError::Negative {
                field: "faults.crashes[..]",
                value: -2.0,
            })
        );

        let mut zero_timeout = FaultPlan::none();
        zero_timeout.retry.timeout_intervals = 0;
        assert_eq!(
            zero_timeout.validate(),
            Err(ConfigError::ZeroCount {
                field: "faults.retry.timeout_intervals",
            })
        );
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let r = RetryPolicy {
            timeout_intervals: 2,
            max_retries: 5,
            backoff_cap_intervals: 8,
        };
        assert_eq!(r.timeout_intervals_for(0), 2);
        assert_eq!(r.timeout_intervals_for(1), 4);
        assert_eq!(r.timeout_intervals_for(2), 8);
        assert_eq!(r.timeout_intervals_for(3), 8); // capped
        assert_eq!(r.timeout_intervals_for(40), 8); // shift overflow capped
    }

    #[test]
    fn exit_probability_is_reciprocal_burst_length() {
        let mut c = ChannelFaults::none();
        c.mean_burst_intervals = 4.0;
        assert!((c.p_exit_burst() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn independent_loss_folds_into_both_states() {
        let c = ChannelFaults {
            p_enter_burst: 0.1,
            mean_burst_intervals: 4.0,
            p_loss_good: 0.2,
            p_loss_bad: 0.5,
        }
        .with_independent_loss(0.5);
        assert!((c.p_loss_good - 0.6).abs() < 1e-12);
        assert!((c.p_loss_bad - 0.75).abs() < 1e-12);
        // The degenerate case reproduces the legacy i.i.d. model.
        let legacy = ChannelFaults::none().with_independent_loss(0.15);
        assert!((legacy.p_loss_good - 0.15).abs() < 1e-12);
        assert!((legacy.p_loss_bad - 0.15).abs() < 1e-12);
        assert_eq!(legacy.p_enter_burst, 0.0);
        // Folding zero is the identity.
        assert_eq!(
            ChannelFaults::none().with_independent_loss(0.0),
            ChannelFaults::none()
        );
    }
}
