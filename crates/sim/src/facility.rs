//! Single-server queueing facility with priority classes and
//! preemptive-resume service.
//!
//! This models one wireless channel (the paper's downlink or uplink). §4 of
//! the paper: *"The network is modeled with invalidation reports having the
//! highest priority, checking requests and validity reports coming next and
//! followed by all the other messages which are of equal priority and served
//! on a first-come first-served basis. This strategy ensures that
//! invalidation reports will always be broadcast at the exact broadcast
//! period."*
//!
//! To guarantee the "exact broadcast period" property, the top priority
//! classes are **preemptive-resume**: when an invalidation report is
//! submitted while a (long, 6.5 s) data item transmission is in progress,
//! the data transmission is suspended, the report is sent immediately, and
//! the data transmission resumes where it left off.
//!
//! The facility is a passive component: it never schedules events itself.
//! Instead [`Facility::submit`] and [`Facility::on_complete`] return a
//! [`Completion`] `(time, token)` that the caller must turn into an event;
//! stale completions (whose service was preempted and later rescheduled)
//! are recognised by token mismatch and must be discarded — `on_complete`
//! returns `None` for them. Each [`Job`] carries its message through the
//! queues, suspension included, and `on_complete` hands it back.

use crate::time::SimTime;
use std::collections::VecDeque;

/// Static configuration of a facility.
#[derive(Clone, Copy, Debug)]
pub struct FacilityConfig {
    /// Service rate in bits per second.
    pub rate_bps: f64,
    /// Number of priority classes; class 0 is the highest priority.
    pub classes: usize,
    /// Classes `< preemptive_classes` preempt in-service lower-priority
    /// jobs (preemptive-resume). `0` makes the facility fully
    /// non-preemptive.
    pub preemptive_classes: usize,
}

impl FacilityConfig {
    /// Validates and returns the config.
    ///
    /// # Panics
    /// Panics on a non-positive rate or zero classes.
    pub fn validated(self) -> Self {
        assert!(
            self.rate_bps.is_finite() && self.rate_bps > 0.0,
            "rate must be positive, got {}",
            self.rate_bps
        );
        assert!(self.classes > 0, "need at least one priority class");
        assert!(
            self.preemptive_classes <= self.classes,
            "preemptive_classes exceeds classes"
        );
        self
    }
}

/// A unit of work: a message `msg` of `bits` bits in priority class
/// `class`.
///
/// The message waits in the facility's queues with its job and comes back
/// from [`Facility::on_complete`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Job<M> {
    /// Message size in bits (must be positive).
    pub bits: f64,
    /// Priority class; 0 is served first.
    pub class: usize,
    /// The message being transmitted.
    pub msg: M,
}

/// A scheduled service completion the caller must turn into an event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Completion {
    /// Absolute time at which the in-service job finishes.
    pub at: SimTime,
    /// Token to pass back to [`Facility::on_complete`]; stale tokens are
    /// rejected there.
    pub token: u64,
}

struct Active<M> {
    job: Job<M>,
    remaining_bits: f64,
    resumed_at: SimTime,
    token: u64,
}

/// The facility itself. See the module docs for the protocol.
///
/// ```
/// use mobicache_sim::{Facility, FacilityConfig, Job, SimTime};
///
/// let t = SimTime::from_secs;
/// let mut ch = Facility::new(FacilityConfig {
///     rate_bps: 1_000.0,
///     classes: 3,
///     preemptive_classes: 1,
/// });
/// // A 10 s data transmission starts…
/// let data = ch.submit(t(0.0), Job { bits: 10_000.0, class: 2, msg: "data" }).unwrap();
/// // …and a broadcast report preempts it at t = 4.
/// let report = ch.submit(t(4.0), Job { bits: 1_000.0, class: 0, msg: "report" }).unwrap();
/// assert_eq!(report.at, t(5.0));
/// assert!(ch.on_complete(t(10.0), data.token).is_none(), "stale completion");
/// let (done, resumed) = ch.on_complete(t(5.0), report.token).unwrap();
/// assert_eq!(done.msg, "report");
/// assert_eq!(resumed.unwrap().at, t(11.0)); // 6 s of data remained
/// ```
pub struct Facility<M> {
    cfg: FacilityConfig,
    queues: Vec<VecDeque<Job<M>>>,
    /// Per class, the preempted job and its remaining bits. A class holds
    /// at most one: its suspended job resumes before the class queue, so
    /// no other job of the class starts while it waits, and only the
    /// job in service is ever preempted.
    suspended: Vec<Option<(Job<M>, f64)>>,
    current: Option<Active<M>>,
    next_token: u64,
    // Statistics.
    busy_time: f64,
    bits_served: Vec<f64>,
    jobs_served: Vec<u64>,
    preemptions: u64,
}

impl<M> Facility<M> {
    /// A new, idle facility.
    pub fn new(cfg: FacilityConfig) -> Self {
        let cfg = cfg.validated();
        Facility {
            queues: (0..cfg.classes).map(|_| VecDeque::new()).collect(),
            suspended: (0..cfg.classes).map(|_| None).collect(),
            current: None,
            next_token: 0,
            busy_time: 0.0,
            bits_served: vec![0.0; cfg.classes],
            jobs_served: vec![0; cfg.classes],
            preemptions: 0,
            cfg,
        }
    }

    /// Service rate in bits per second.
    pub fn rate_bps(&self) -> f64 {
        self.cfg.rate_bps
    }

    /// `true` while a job is in service.
    pub fn is_busy(&self) -> bool {
        self.current.is_some()
    }

    /// Total jobs waiting across all classes, suspended ones included.
    pub fn backlog(&self) -> usize {
        let suspended = self.suspended.iter().filter(|s| s.is_some()).count();
        self.queues.iter().map(|q| q.len()).sum::<usize>() + suspended
    }

    /// Total busy time accumulated so far (excluding any in-progress
    /// service interval; call [`Facility::utilization`] for that).
    pub fn busy_time(&self) -> f64 {
        self.busy_time
    }

    /// Fraction of `[0, now]` the server has been busy.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let mut busy = self.busy_time;
        if let Some(active) = &self.current {
            busy += now.saturating_since(active.resumed_at);
        }
        // Include the interval before the current resume within this busy
        // period, which was already folded into busy_time on preemptions.
        let span = now.as_secs();
        if span <= 0.0 {
            0.0
        } else {
            busy / span
        }
    }

    /// Bits fully served per class so far.
    pub fn bits_served(&self, class: usize) -> f64 {
        self.bits_served[class]
    }

    /// Jobs fully served per class so far.
    pub fn jobs_served(&self, class: usize) -> u64 {
        self.jobs_served[class]
    }

    /// Number of preemptions performed.
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }

    fn start(&mut self, now: SimTime, job: Job<M>, remaining_bits: f64) -> Completion {
        let token = self.next_token;
        self.next_token += 1;
        let at = now + remaining_bits / self.cfg.rate_bps;
        self.current = Some(Active {
            job,
            remaining_bits,
            resumed_at: now,
            token,
        });
        Completion { at, token }
    }

    /// Submits a job at time `now`.
    ///
    /// Returns `Some(completion)` when the submission (re)started service —
    /// either the facility was idle, or the job preempted the in-service
    /// transmission. Returns `None` when the job was queued; its completion
    /// will be handed out later by [`Facility::on_complete`].
    ///
    /// # Panics
    /// Panics on non-positive `bits` or an out-of-range class.
    pub fn submit(&mut self, now: SimTime, job: Job<M>) -> Option<Completion> {
        assert!(
            job.bits.is_finite() && job.bits > 0.0,
            "job must have positive size, got {} bits",
            job.bits
        );
        assert!(
            job.class < self.cfg.classes,
            "class {} out of range",
            job.class
        );

        let bits = job.bits;
        match &self.current {
            None => Some(self.start(now, job, bits)),
            Some(active) => {
                let preempts =
                    job.class < self.cfg.preemptive_classes && job.class < active.job.class;
                if preempts {
                    // Suspend the in-service job: bank the work done so far
                    // and park it in its class's slot so it resumes before
                    // anything queued behind it.
                    let active = self.current.take().expect("checked above");
                    let served = now.saturating_since(active.resumed_at) * self.cfg.rate_bps;
                    let remaining = (active.remaining_bits - served).max(0.0);
                    self.busy_time += now.saturating_since(active.resumed_at);
                    self.preemptions += 1;
                    let slot = &mut self.suspended[active.job.class];
                    debug_assert!(slot.is_none(), "two suspended jobs in one class");
                    *slot = Some((active.job, remaining));
                    Some(self.start(now, job, bits))
                } else {
                    self.queues[job.class].push_back(job);
                    None
                }
            }
        }
    }

    /// Handles a completion event.
    ///
    /// Returns `None` if `token` is stale (the corresponding service was
    /// preempted and rescheduled — the caller must simply drop the event).
    /// Otherwise returns the finished job plus, if another job was waiting,
    /// the completion of the newly started service.
    pub fn on_complete(
        &mut self,
        now: SimTime,
        token: u64,
    ) -> Option<(Job<M>, Option<Completion>)> {
        let active = self.current.as_ref()?;
        if active.token != token {
            return None; // stale completion from before a preemption
        }
        let active = self.current.take().expect("checked above");
        self.busy_time += now.saturating_since(active.resumed_at);
        self.bits_served[active.job.class] += active.job.bits;
        self.jobs_served[active.job.class] += 1;

        // Start the next job: the highest-priority class with work, its
        // suspended job first, then its queue's front.
        let next = self
            .suspended
            .iter_mut()
            .zip(&mut self.queues)
            .find_map(|(slot, q)| {
                if slot.is_some() {
                    return slot.take();
                }
                let job = q.pop_front()?;
                let bits = job.bits;
                Some((job, bits))
            });
        let completion =
            next.map(|(job, remaining)| self.start(now, job, remaining.max(f64::MIN_POSITIVE)));
        Some((active.job, completion))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fac(rate: f64) -> Facility<u64> {
        Facility::new(FacilityConfig {
            rate_bps: rate,
            classes: 3,
            preemptive_classes: 1,
        })
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn single_job_service_time() {
        let mut f = fac(1000.0);
        let c = f
            .submit(
                t(0.0),
                Job {
                    bits: 500.0,
                    class: 2,
                    msg: 1,
                },
            )
            .expect("idle facility starts immediately");
        assert_eq!(c.at, t(0.5));
        let (job, next) = f.on_complete(t(0.5), c.token).expect("valid token");
        assert_eq!(job.msg, 1);
        assert!(next.is_none());
        assert!(!f.is_busy());
        assert_eq!(f.bits_served(2), 500.0);
    }

    #[test]
    fn fifo_within_class() {
        let mut f = fac(1000.0);
        let c1 = f
            .submit(
                t(0.0),
                Job {
                    bits: 1000.0,
                    class: 2,
                    msg: 1,
                },
            )
            .unwrap();
        assert!(f
            .submit(
                t(0.1),
                Job {
                    bits: 1000.0,
                    class: 2,
                    msg: 2
                }
            )
            .is_none());
        assert!(f
            .submit(
                t(0.2),
                Job {
                    bits: 1000.0,
                    class: 2,
                    msg: 3
                }
            )
            .is_none());
        let (j1, c2) = f.on_complete(t(1.0), c1.token).unwrap();
        assert_eq!(j1.msg, 1);
        let c2 = c2.unwrap();
        assert_eq!(c2.at, t(2.0));
        let (j2, c3) = f.on_complete(t(2.0), c2.token).unwrap();
        assert_eq!(j2.msg, 2);
        let (j3, none) = f.on_complete(t(3.0), c3.unwrap().token).unwrap();
        assert_eq!(j3.msg, 3);
        assert!(none.is_none());
    }

    #[test]
    fn priority_order_across_classes() {
        let mut f = fac(1000.0);
        let c = f
            .submit(
                t(0.0),
                Job {
                    bits: 1000.0,
                    class: 2,
                    msg: 1,
                },
            )
            .unwrap();
        // Queue a low-priority and then a mid-priority job; mid goes first.
        f.submit(
            t(0.1),
            Job {
                bits: 100.0,
                class: 2,
                msg: 2,
            },
        );
        f.submit(
            t(0.2),
            Job {
                bits: 100.0,
                class: 1,
                msg: 3,
            },
        );
        let (_, next) = f.on_complete(t(1.0), c.token).unwrap();
        let next = next.unwrap();
        let (mid, next2) = f.on_complete(next.at, next.token).unwrap();
        assert_eq!(mid.msg, 3, "class 1 beats class 2");
        let (low, _) = f
            .on_complete(next2.unwrap().at, next2.unwrap().token)
            .unwrap();
        assert_eq!(low.msg, 2);
    }

    #[test]
    fn class0_preempts_and_resumes() {
        let mut f = fac(1000.0);
        // 10 s data transmission starts at t=0.
        let c_data = f
            .submit(
                t(0.0),
                Job {
                    bits: 10_000.0,
                    class: 2,
                    msg: 7,
                },
            )
            .unwrap();
        assert_eq!(c_data.at, t(10.0));
        // Report (class 0) arrives at t=4: preempts, serves 1 s.
        let c_ir = f
            .submit(
                t(4.0),
                Job {
                    bits: 1000.0,
                    class: 0,
                    msg: 8,
                },
            )
            .expect("preemption returns a fresh completion");
        assert_eq!(c_ir.at, t(5.0));
        assert_eq!(f.preemptions(), 1);
        // The stale data completion must be rejected.
        assert!(f.on_complete(t(10.0), c_data.token).is_none());
        // Report finishes; data resumes with 6 s of work left.
        let (ir, resumed) = f.on_complete(t(5.0), c_ir.token).unwrap();
        assert_eq!(ir.msg, 8);
        let resumed = resumed.unwrap();
        assert_eq!(resumed.at, t(11.0)); // 4 s done, 6 s remaining from t=5
        let (data, _) = f.on_complete(t(11.0), resumed.token).unwrap();
        assert_eq!(data.msg, 7);
        assert_eq!(f.bits_served(2), 10_000.0);
    }

    #[test]
    fn suspended_job_resumes_before_queued_peers() {
        let mut f = fac(1000.0);
        let _c = f
            .submit(
                t(0.0),
                Job {
                    bits: 10_000.0,
                    class: 2,
                    msg: 1,
                },
            )
            .unwrap();
        f.submit(
            t(1.0),
            Job {
                bits: 100.0,
                class: 2,
                msg: 2,
            },
        );
        let c_ir = f
            .submit(
                t(2.0),
                Job {
                    bits: 100.0,
                    class: 0,
                    msg: 3,
                },
            )
            .unwrap();
        let (_, next) = f.on_complete(c_ir.at, c_ir.token).unwrap();
        // The preempted job 1 resumes ahead of the queued job 2.
        let next = next.unwrap();
        let (resumed, _) = f.on_complete(next.at, next.token).unwrap();
        assert_eq!(resumed.msg, 1);
    }

    #[test]
    fn class1_does_not_preempt_when_not_configured() {
        let mut f = fac(1000.0); // preemptive_classes = 1, so class 1 queues
        let c = f
            .submit(
                t(0.0),
                Job {
                    bits: 5000.0,
                    class: 2,
                    msg: 1,
                },
            )
            .unwrap();
        assert!(f
            .submit(
                t(1.0),
                Job {
                    bits: 100.0,
                    class: 1,
                    msg: 2
                }
            )
            .is_none());
        assert_eq!(f.preemptions(), 0);
        let (first, _) = f.on_complete(c.at, c.token).unwrap();
        assert_eq!(first.msg, 1);
    }

    #[test]
    fn class0_does_not_preempt_class0() {
        let mut f = fac(1000.0);
        let _c = f
            .submit(
                t(0.0),
                Job {
                    bits: 5000.0,
                    class: 0,
                    msg: 1,
                },
            )
            .unwrap();
        // Another report while one is in flight queues behind it.
        assert!(f
            .submit(
                t(1.0),
                Job {
                    bits: 100.0,
                    class: 0,
                    msg: 2
                }
            )
            .is_none());
        assert_eq!(f.preemptions(), 0);
    }

    #[test]
    fn utilization_accounting() {
        let mut f = fac(1000.0);
        let c = f
            .submit(
                t(0.0),
                Job {
                    bits: 2000.0,
                    class: 2,
                    msg: 1,
                },
            )
            .unwrap();
        f.on_complete(c.at, c.token).unwrap();
        // Busy 2 s out of 8 s.
        assert!((f.utilization(t(8.0)) - 0.25).abs() < 1e-12);
        assert!((f.busy_time() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_mid_service() {
        let mut f = fac(1000.0);
        f.submit(
            t(0.0),
            Job {
                bits: 4000.0,
                class: 2,
                msg: 1,
            },
        )
        .unwrap();
        assert!((f.utilization(t(2.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive size")]
    fn zero_bits_rejected() {
        fac(1.0).submit(
            t(0.0),
            Job {
                bits: 0.0,
                class: 0,
                msg: 0,
            },
        );
    }

    #[test]
    fn double_preemption_conserves_work() {
        let mut f = Facility::new(FacilityConfig {
            rate_bps: 100.0,
            classes: 3,
            preemptive_classes: 1,
        });
        // Long class-2 job, preempted twice by class-0 jobs.
        let _ = f
            .submit(
                t(0.0),
                Job {
                    bits: 1000.0,
                    class: 2,
                    msg: 1,
                },
            )
            .unwrap();
        let ir1 = f
            .submit(
                t(1.0),
                Job {
                    bits: 100.0,
                    class: 0,
                    msg: 2,
                },
            )
            .unwrap();
        let (_, r1) = f.on_complete(ir1.at, ir1.token).unwrap();
        let r1 = r1.unwrap();
        let ir2 = f
            .submit(
                t(3.0),
                Job {
                    bits: 100.0,
                    class: 0,
                    msg: 3,
                },
            )
            .unwrap();
        assert!(f.on_complete(r1.at, r1.token).is_none(), "stale resume");
        let (_, r2) = f.on_complete(ir2.at, ir2.token).unwrap();
        let r2 = r2.unwrap();
        // Work done on job 1: 1 s (t=0..1) + 1 s (t=2..3) = 200 bits.
        // Remaining 800 bits -> finishes 8 s after the resume at t=4.
        assert_eq!(r2.at, t(12.0));
        let (done, _) = f.on_complete(r2.at, r2.token).unwrap();
        assert_eq!(done.msg, 1);
        let total: f64 = (0..3).map(|c| f.bits_served(c)).sum();
        assert!((total - 1200.0).abs() < 1e-9);
    }
}
