//! Typed channel over the preemptive-priority facility.

use mobicache_model::msg::NUM_CLASSES;
use mobicache_model::units::Bits;
use mobicache_sim::{Completion, Facility, FacilityConfig, Job, SimTime};

/// A completed transmission handed back to the driver.
#[derive(Clone, Debug, PartialEq)]
pub struct Delivered<M> {
    /// The transported message.
    pub msg: M,
    /// Its size in bits (as charged to the channel).
    pub bits: Bits,
    /// Completion of the next transmission the channel started, if any.
    pub next: Option<Completion>,
}

/// Channel traffic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ChannelStats {
    /// Bits fully transmitted per priority class.
    pub bits_by_class: [f64; NUM_CLASSES],
    /// Messages fully transmitted per priority class.
    pub msgs_by_class: [u64; NUM_CLASSES],
    /// Number of preemptions (reports interrupting data).
    pub preemptions: u64,
    /// Server busy fraction at the time of sampling.
    pub utilization: f64,
}

/// One simplex wireless channel carrying typed messages.
pub struct Channel<M> {
    facility: Facility<M>,
}

impl<M> Channel<M> {
    /// A channel of `rate_bps` with the paper's three priority classes,
    /// class 0 (reports) preemptive.
    pub fn new(rate_bps: f64) -> Self {
        Channel {
            facility: Facility::new(FacilityConfig {
                rate_bps,
                classes: NUM_CLASSES,
                preemptive_classes: 1,
            }),
        }
    }

    /// Channel bandwidth in bits per second.
    pub fn rate_bps(&self) -> f64 {
        self.facility.rate_bps()
    }

    /// Submits `msg` of `bits` bits in priority class `class`.
    ///
    /// Returns a [`Completion`] when the channel (re)started service; the
    /// caller must schedule a completion event for it (and must also do so
    /// for completions embedded in [`Delivered::next`]).
    pub fn send(&mut self, now: SimTime, bits: Bits, class: usize, msg: M) -> Option<Completion> {
        self.facility.submit(now, Job { bits, class, msg })
    }

    /// Handles a completion event. Returns `None` for stale tokens
    /// (preempted service — drop the event), otherwise the delivered
    /// message and, if the channel moved on to another queued message,
    /// the completion to schedule for it.
    pub fn complete(&mut self, now: SimTime, token: u64) -> Option<Delivered<M>> {
        let (job, next) = self.facility.on_complete(now, token)?;
        Some(Delivered {
            msg: job.msg,
            bits: job.bits,
            next,
        })
    }

    /// Number of messages waiting (not in service).
    pub fn backlog(&self) -> usize {
        self.facility.backlog()
    }

    /// `true` while a transmission is in progress.
    pub fn is_busy(&self) -> bool {
        self.facility.is_busy()
    }

    /// Snapshot of traffic counters at `now`.
    pub fn stats(&self, now: SimTime) -> ChannelStats {
        let mut s = ChannelStats {
            preemptions: self.facility.preemptions(),
            utilization: self.facility.utilization(now),
            ..ChannelStats::default()
        };
        for class in 0..NUM_CLASSES {
            s.bits_by_class[class] = self.facility.bits_served(class);
            s.msgs_by_class[class] = self.facility.jobs_served(class);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobicache_model::msg::{CLASS_CHECK, CLASS_DATA, CLASS_REPORT};

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn send_and_deliver_roundtrip() {
        let mut ch: Channel<&str> = Channel::new(1000.0);
        let c = ch
            .send(t(0.0), 500.0, CLASS_DATA, "hello")
            .expect("idle start");
        let d = ch.complete(c.at, c.token).expect("valid completion");
        assert_eq!(d.msg, "hello");
        assert_eq!(d.bits, 500.0);
        assert!(d.next.is_none());
        assert!(!ch.is_busy());
    }

    #[test]
    fn report_preempts_data_item() {
        let mut ch: Channel<&str> = Channel::new(10_000.0);
        let c_data = ch.send(t(0.0), 65_536.0, CLASS_DATA, "data").unwrap();
        // Broadcast tick at t=2 preempts the 6.55 s data transmission.
        let c_ir = ch.send(t(2.0), 1000.0, CLASS_REPORT, "report").unwrap();
        assert!((c_ir.at.as_secs() - 2.1).abs() < 1e-9);
        // Stale data completion is dropped.
        assert!(ch.complete(c_data.at, c_data.token).is_none());
        let d = ch.complete(c_ir.at, c_ir.token).unwrap();
        assert_eq!(d.msg, "report");
        // Data resumes and finishes 65536/10000 s of total service time.
        let resumed = d.next.expect("data resumes");
        assert!((resumed.at.as_secs() - (2.1 + 4.5536)).abs() < 1e-6);
        let d2 = ch.complete(resumed.at, resumed.token).unwrap();
        assert_eq!(d2.msg, "data");
        assert_eq!(ch.stats(resumed.at).preemptions, 1);
    }

    #[test]
    fn stats_track_classes_separately() {
        let mut ch: Channel<u32> = Channel::new(1000.0);
        let c1 = ch.send(t(0.0), 100.0, CLASS_CHECK, 1).unwrap();
        let d1 = ch.complete(c1.at, c1.token).unwrap();
        assert!(d1.next.is_none());
        let c2 = ch.send(t(1.0), 300.0, CLASS_DATA, 2).unwrap();
        ch.complete(c2.at, c2.token).unwrap();
        let s = ch.stats(t(10.0));
        assert_eq!(s.bits_by_class[CLASS_CHECK], 100.0);
        assert_eq!(s.bits_by_class[CLASS_DATA], 300.0);
        assert_eq!(s.msgs_by_class[CLASS_CHECK], 1);
        assert_eq!(s.msgs_by_class[CLASS_DATA], 1);
        assert!((s.utilization - 0.04).abs() < 1e-9);
    }

    #[test]
    fn lost_broadcast_still_charges_the_channel() {
        // Fault injection drops reports in the *receivers*, never in the
        // ether: a broadcast nobody hears still occupies the channel for
        // its full service time and is charged like any other message.
        let mut ch: Channel<(&str, bool)> = Channel::new(1000.0);
        let c = ch
            .send(t(0.0), 400.0, CLASS_REPORT, ("report", true))
            .expect("idle start");
        let d = ch.complete(c.at, c.token).expect("valid completion");
        assert!(d.msg.1, "loss rides the payload; the channel cannot tell");
        assert!((c.at.as_secs() - 0.4).abs() < 1e-9);
        let s = ch.stats(t(10.0));
        assert_eq!(s.bits_by_class[CLASS_REPORT], 400.0);
        assert_eq!(s.msgs_by_class[CLASS_REPORT], 1);
        assert!((s.utilization - 0.04).abs() < 1e-9);
    }

    #[test]
    fn lost_report_still_preempts_and_is_fully_charged() {
        // Preemption and loss interplay: a report destined to be dropped
        // by every receiver still preempts in-flight data and shows up in
        // every counter at full price.
        let mut ch: Channel<(u32, bool)> = Channel::new(10_000.0);
        let c_data = ch.send(t(0.0), 65_536.0, CLASS_DATA, (1, false)).unwrap();
        let c_ir = ch.send(t(2.0), 1_000.0, CLASS_REPORT, (2, true)).unwrap();
        assert!((c_ir.at.as_secs() - 2.1).abs() < 1e-9);
        assert!(ch.complete(c_data.at, c_data.token).is_none());
        let d = ch.complete(c_ir.at, c_ir.token).unwrap();
        assert!(d.msg.1, "the dropped report was still transmitted");
        let resumed = d.next.expect("preempted data resumes");
        assert!((resumed.at.as_secs() - 6.6536).abs() < 1e-6);
        ch.complete(resumed.at, resumed.token).unwrap();
        let s = ch.stats(t(10.0));
        assert_eq!(s.bits_by_class[CLASS_REPORT], 1_000.0);
        assert_eq!(s.bits_by_class[CLASS_DATA], 65_536.0);
        assert_eq!(s.msgs_by_class[CLASS_REPORT], 1);
        assert_eq!(s.msgs_by_class[CLASS_DATA], 1);
        assert_eq!(s.preemptions, 1);
        // 0.1 s of report plus 6.5536 s of data over 10 s of wall clock.
        assert!((s.utilization - 0.66536).abs() < 1e-9);
    }

    #[test]
    fn backlog_counts_waiting_messages() {
        let mut ch: Channel<u32> = Channel::new(1000.0);
        ch.send(t(0.0), 1000.0, CLASS_DATA, 1).unwrap();
        assert!(ch.send(t(0.1), 100.0, CLASS_DATA, 2).is_none());
        assert!(ch.send(t(0.2), 100.0, CLASS_DATA, 3).is_none());
        assert_eq!(ch.backlog(), 2);
        assert!(ch.is_busy());
    }
}
