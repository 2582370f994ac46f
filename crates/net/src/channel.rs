//! One simplex wireless channel: a single server with the paper's three
//! priority classes and preemptive-resume service.
//!
//! §4 of the paper: *"The network is modeled with invalidation reports
//! having the highest priority, checking requests and validity reports
//! coming next and followed by all the other messages which are of equal
//! priority and served on a first-come first-served basis. This strategy
//! ensures that invalidation reports will always be broadcast at the
//! exact broadcast period."*
//!
//! To keep that period exact, a report ([`CLASS_REPORT`]) preempts any
//! other class in service: a (long, 6.5 s) data item transmission is
//! suspended, the report goes out at once, and the data item resumes
//! where it left off, before anything queued behind it in its class.
//!
//! The channel is passive: it never schedules events itself.
//! [`Channel::send`] and [`Channel::complete`] hand out a [`Completion`]
//! `(time, token)` that the caller turns into an event. A completion
//! whose service was since preempted is stale: its token no longer
//! matches, and `complete` returns `None` for it. A message waits in its
//! class's queue, suspension included, and `complete` hands it back.

use mobicache_model::msg::{CLASS_REPORT, NUM_CLASSES};
use mobicache_model::units::Bits;
use mobicache_sim::{Completion, SimTime};
use std::collections::VecDeque;

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
    /// Number of preemptions (reports interrupting other traffic).
    pub preemptions: u64,
    /// Server busy fraction at the time of sampling.
    pub utilization: f64,
}

/// A message waiting for service: the queue it waits in names its class.
struct Queued<M> {
    bits: Bits,
    msg: M,
}

/// The message in service.
struct Active<M> {
    queued: Queued<M>,
    class: usize,
    remaining_bits: f64,
    resumed_at: SimTime,
    token: u64,
}

/// One simplex wireless channel carrying typed messages. See the module
/// docs for the protocol.
///
/// ```
/// use mobicache_model::msg::{CLASS_DATA, CLASS_REPORT};
/// use mobicache_net::Channel;
/// use mobicache_sim::SimTime;
///
/// let t = SimTime::from_secs;
/// let mut ch = Channel::new(1_000.0);
/// // A 10 s data transmission starts…
/// let data = ch.send(t(0.0), 10_000.0, CLASS_DATA, "data").unwrap();
/// // …and a broadcast report preempts it at t = 4.
/// let report = ch.send(t(4.0), 1_000.0, CLASS_REPORT, "report").unwrap();
/// assert_eq!(report.at, t(5.0));
/// assert!(ch.complete(t(10.0), data.token).is_none(), "stale completion");
/// let done = ch.complete(t(5.0), report.token).unwrap();
/// assert_eq!(done.msg, "report");
/// assert_eq!(done.next.unwrap().at, t(11.0)); // 6 s of data remained
/// ```
pub struct Channel<M> {
    rate_bps: f64,
    queues: [VecDeque<Queued<M>>; NUM_CLASSES],
    /// Per class, the preempted message and its remaining bits. A class
    /// holds at most one: its suspended message resumes before the class
    /// queue, so no other message of the class starts while it waits,
    /// and only the message in service is ever preempted.
    suspended: [Option<(Queued<M>, f64)>; NUM_CLASSES],
    current: Option<Active<M>>,
    next_token: u64,
    busy_time: f64,
    bits_served: [f64; NUM_CLASSES],
    preemptions: u64,
}

impl<M> Channel<M> {
    /// An idle channel of `rate_bps`.
    ///
    /// # Panics
    /// Panics on a non-positive rate.
    pub fn new(rate_bps: f64) -> Self {
        assert!(
            rate_bps.is_finite() && rate_bps > 0.0,
            "rate must be positive, got {rate_bps}"
        );
        Channel {
            rate_bps,
            queues: std::array::from_fn(|_| VecDeque::new()),
            suspended: std::array::from_fn(|_| None),
            current: None,
            next_token: 0,
            busy_time: 0.0,
            bits_served: [0.0; NUM_CLASSES],
            preemptions: 0,
        }
    }

    /// Channel bandwidth in bits per second.
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    fn start(
        &mut self,
        now: SimTime,
        queued: Queued<M>,
        class: usize,
        remaining_bits: f64,
    ) -> Completion {
        let token = self.next_token;
        self.next_token += 1;
        let at = now + remaining_bits / self.rate_bps;
        self.current = Some(Active {
            queued,
            class,
            remaining_bits,
            resumed_at: now,
            token,
        });
        Completion { at, token }
    }

    /// Submits `msg` of `bits` bits in priority class `class`.
    ///
    /// Returns a [`Completion`] when the channel (re)started service:
    /// it was idle, or the message is a report that preempted other
    /// traffic. The caller must schedule a completion event for it (and
    /// must also do so for completions embedded in [`Delivered::next`]).
    /// Returns `None` when the message was queued.
    ///
    /// # Panics
    /// Panics on non-positive `bits` or an out-of-range class.
    pub fn send(&mut self, now: SimTime, bits: Bits, class: usize, msg: M) -> Option<Completion> {
        assert!(
            bits.is_finite() && bits > 0.0,
            "message must have positive size, got {bits} bits"
        );
        assert!(class < NUM_CLASSES, "class {class} out of range");
        let queued = Queued { bits, msg };
        if self.current.is_none() {
            return Some(self.start(now, queued, class, bits));
        }
        let preempts = |a: &mut Active<M>| class == CLASS_REPORT && a.class != CLASS_REPORT;
        let Some(active) = self.current.take_if(preempts) else {
            self.queues[class].push_back(queued);
            return None;
        };
        // Suspend the message in service: bank the work done so far and
        // park it in its class's slot so it resumes before anything queued
        // behind it.
        let served = now.saturating_since(active.resumed_at) * self.rate_bps;
        let remaining = (active.remaining_bits - served).max(0.0);
        self.busy_time += now.saturating_since(active.resumed_at);
        self.preemptions += 1;
        let slot = &mut self.suspended[active.class];
        debug_assert!(slot.is_none(), "two suspended messages in one class");
        *slot = Some((active.queued, remaining));
        Some(self.start(now, queued, class, bits))
    }

    /// Handles a completion event. Returns `None` for a stale token
    /// (preempted service: drop the event), otherwise the delivered
    /// message and, if the channel moved on to another waiting message,
    /// the completion to schedule for it.
    pub fn complete(&mut self, now: SimTime, token: u64) -> Option<Delivered<M>> {
        let active = self.current.take_if(|a| a.token == token)?;
        self.busy_time += now.saturating_since(active.resumed_at);
        self.bits_served[active.class] += active.queued.bits;
        // Start the next message: the highest-priority class with work,
        // its suspended message first, then its queue's front.
        let next = (0..NUM_CLASSES).find_map(|class| {
            let (queued, remaining) = self.suspended[class].take().or_else(|| {
                let queued = self.queues[class].pop_front()?;
                let bits = queued.bits;
                Some((queued, bits))
            })?;
            Some((queued, class, remaining))
        });
        let next = next.map(|(queued, class, remaining)| {
            self.start(now, queued, class, remaining.max(f64::MIN_POSITIVE))
        });
        Some(Delivered {
            msg: active.queued.msg,
            bits: active.queued.bits,
            next,
        })
    }

    /// Number of messages waiting (not in service), suspended ones
    /// included.
    pub fn backlog(&self) -> usize {
        let suspended = self.suspended.iter().filter(|s| s.is_some()).count();
        self.queues.iter().map(VecDeque::len).sum::<usize>() + suspended
    }

    /// `true` while a transmission is in progress.
    pub fn is_busy(&self) -> bool {
        self.current.is_some()
    }

    /// Snapshot of traffic counters at `now`; utilization is the busy
    /// fraction of `[0, now]`, the service in progress included.
    pub fn stats(&self, now: SimTime) -> ChannelStats {
        let mut busy = self.busy_time;
        if let Some(active) = &self.current {
            busy += now.saturating_since(active.resumed_at);
        }
        let span = now.as_secs();
        ChannelStats {
            bits_by_class: self.bits_served,
            preemptions: self.preemptions,
            utilization: if span <= 0.0 { 0.0 } else { busy / span },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobicache_model::msg::{CLASS_CHECK, CLASS_DATA, CLASS_REPORT};

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// A waiting message costs its payload plus its 8-byte size: the
    /// queue it waits in names its class, so no tag rides along.
    #[test]
    fn a_queued_entry_is_its_payload_plus_8_bytes() {
        assert_eq!(std::mem::size_of::<Queued<u64>>(), 16);
        assert_eq!(std::mem::size_of::<Queued<[u64; 2]>>(), 24);
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
    fn single_job_service_time() {
        let mut ch: Channel<u64> = Channel::new(1000.0);
        let c = ch
            .send(t(0.0), 500.0, CLASS_DATA, 1)
            .expect("idle channel starts immediately");
        assert_eq!(c.at, t(0.5));
        let d = ch.complete(t(0.5), c.token).expect("valid token");
        assert_eq!(d.msg, 1);
        assert!(d.next.is_none());
        assert!(!ch.is_busy());
        assert_eq!(ch.stats(t(0.5)).bits_by_class[CLASS_DATA], 500.0);
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
    fn class0_preempts_and_resumes() {
        let mut ch: Channel<u64> = Channel::new(1000.0);
        // 10 s data transmission starts at t=0.
        let c_data = ch.send(t(0.0), 10_000.0, CLASS_DATA, 7).unwrap();
        assert_eq!(c_data.at, t(10.0));
        // Report arrives at t=4: preempts, serves 1 s.
        let c_ir = ch
            .send(t(4.0), 1000.0, CLASS_REPORT, 8)
            .expect("preemption returns a fresh completion");
        assert_eq!(c_ir.at, t(5.0));
        assert_eq!(ch.stats(t(4.0)).preemptions, 1);
        // The stale data completion must be rejected.
        assert!(ch.complete(t(10.0), c_data.token).is_none());
        // Report finishes; data resumes with 6 s of work left.
        let d = ch.complete(t(5.0), c_ir.token).unwrap();
        assert_eq!(d.msg, 8);
        let resumed = d.next.unwrap();
        assert_eq!(resumed.at, t(11.0)); // 4 s done, 6 s remaining from t=5
        let data = ch.complete(t(11.0), resumed.token).unwrap();
        assert_eq!(data.msg, 7);
        assert_eq!(ch.stats(t(11.0)).bits_by_class[CLASS_DATA], 10_000.0);
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
        assert!((s.utilization - 0.04).abs() < 1e-9);
    }

    #[test]
    fn utilization_accounting() {
        let mut ch: Channel<u64> = Channel::new(1000.0);
        let c = ch.send(t(0.0), 2000.0, CLASS_DATA, 1).unwrap();
        ch.complete(c.at, c.token).unwrap();
        // Busy 2 s out of 8 s; at t=0 no time has passed.
        assert!((ch.stats(t(8.0)).utilization - 0.25).abs() < 1e-12);
        assert_eq!(ch.stats(SimTime::ZERO).utilization, 0.0);
    }

    #[test]
    fn utilization_mid_service() {
        let mut ch: Channel<u32> = Channel::new(1000.0);
        ch.send(t(0.0), 4000.0, CLASS_DATA, 1).unwrap();
        assert!((ch.stats(t(2.0)).utilization - 1.0).abs() < 1e-12);
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
        // A preempted message waits too.
        ch.send(t(0.3), 100.0, CLASS_REPORT, 4).unwrap();
        assert_eq!(ch.backlog(), 3);
    }

    #[test]
    fn fifo_within_class() {
        let mut ch: Channel<u32> = Channel::new(1000.0);
        let c1 = ch.send(t(0.0), 1000.0, CLASS_DATA, 1).unwrap();
        assert!(ch.send(t(0.1), 1000.0, CLASS_DATA, 2).is_none());
        assert!(ch.send(t(0.2), 1000.0, CLASS_DATA, 3).is_none());
        let d1 = ch.complete(t(1.0), c1.token).unwrap();
        assert_eq!(d1.msg, 1);
        let c2 = d1.next.unwrap();
        assert_eq!(c2.at, t(2.0));
        let d2 = ch.complete(t(2.0), c2.token).unwrap();
        assert_eq!(d2.msg, 2);
        let d3 = ch.complete(t(3.0), d2.next.unwrap().token).unwrap();
        assert_eq!(d3.msg, 3);
        assert!(d3.next.is_none());
    }

    #[test]
    fn priority_order_across_classes() {
        let mut ch: Channel<u32> = Channel::new(1000.0);
        let c = ch.send(t(0.0), 1000.0, CLASS_DATA, 1).unwrap();
        // Queue a data message and then a check; the check goes first.
        ch.send(t(0.1), 100.0, CLASS_DATA, 2);
        ch.send(t(0.2), 100.0, CLASS_CHECK, 3);
        let next = ch.complete(t(1.0), c.token).unwrap().next.unwrap();
        let mid = ch.complete(next.at, next.token).unwrap();
        assert_eq!(mid.msg, 3, "checks beat data");
        let next = mid.next.unwrap();
        assert_eq!(ch.complete(next.at, next.token).unwrap().msg, 2);
    }

    #[test]
    fn suspended_job_resumes_before_queued_peers() {
        let mut ch: Channel<u32> = Channel::new(1000.0);
        ch.send(t(0.0), 10_000.0, CLASS_DATA, 1).unwrap();
        ch.send(t(1.0), 100.0, CLASS_DATA, 2);
        let c_ir = ch.send(t(2.0), 100.0, CLASS_REPORT, 3).unwrap();
        let next = ch.complete(c_ir.at, c_ir.token).unwrap().next.unwrap();
        // The preempted message 1 resumes ahead of the queued message 2.
        assert_eq!(ch.complete(next.at, next.token).unwrap().msg, 1);
    }

    #[test]
    fn class1_does_not_preempt() {
        let mut ch: Channel<u32> = Channel::new(1000.0);
        let c = ch.send(t(0.0), 5000.0, CLASS_DATA, 1).unwrap();
        assert!(ch.send(t(1.0), 100.0, CLASS_CHECK, 2).is_none());
        assert_eq!(ch.stats(t(1.0)).preemptions, 0);
        assert_eq!(ch.complete(c.at, c.token).unwrap().msg, 1);
    }

    #[test]
    fn class0_does_not_preempt_class0() {
        let mut ch: Channel<u32> = Channel::new(1000.0);
        ch.send(t(0.0), 5000.0, CLASS_REPORT, 1).unwrap();
        // Another report while one is in flight queues behind it.
        assert!(ch.send(t(1.0), 100.0, CLASS_REPORT, 2).is_none());
        assert_eq!(ch.stats(t(1.0)).preemptions, 0);
    }

    #[test]
    #[should_panic(expected = "positive size")]
    fn zero_bits_rejected() {
        Channel::new(1.0).send(t(0.0), 0.0, CLASS_REPORT, 0);
    }

    #[test]
    fn double_preemption_conserves_work() {
        let mut ch: Channel<u32> = Channel::new(100.0);
        // A long data message, preempted twice by reports.
        ch.send(t(0.0), 1000.0, CLASS_DATA, 1).unwrap();
        let ir1 = ch.send(t(1.0), 100.0, CLASS_REPORT, 2).unwrap();
        let r1 = ch.complete(ir1.at, ir1.token).unwrap().next.unwrap();
        let ir2 = ch.send(t(3.0), 100.0, CLASS_REPORT, 3).unwrap();
        assert!(ch.complete(r1.at, r1.token).is_none(), "stale resume");
        let r2 = ch.complete(ir2.at, ir2.token).unwrap().next.unwrap();
        // Work done on message 1: 1 s (t=0..1) + 1 s (t=2..3) = 200 bits.
        // Remaining 800 bits -> finishes 8 s after the resume at t=4.
        assert_eq!(r2.at, t(12.0));
        assert_eq!(ch.complete(r2.at, r2.token).unwrap().msg, 1);
        let total: f64 = ch.stats(r2.at).bits_by_class.iter().sum();
        assert!((total - 1200.0).abs() < 1e-9);
    }
}
