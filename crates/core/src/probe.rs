//! Run observation: typed events and interval snapshots.
//!
//! The engine is deterministic and silent by default; experiments and
//! debugging want to *watch* a run without perturbing it. A [`Probe`]
//! receives structured [`ProbeEvent`]s at the model's decision points
//! (every broadcast, every adaptive choice, every disconnection gap,
//! every resolved query) plus periodic [`IntervalSnapshot`]s of the
//! cumulative counters. Probes are strictly read-only observers: they
//! never touch the RNG streams or the event list, so attaching one
//! leaves a same-seed run bit-identical.
//!
//! [`IntervalSampler`] is the built-in snapshot collector: it keeps a
//! time series of per-interval counter deltas that sums exactly to the
//! final [`Metrics`](crate::Metrics) and serializes to JSONL for the
//! `repro --trace-dir` flag.

use mobicache_model::ClientId;
use mobicache_reports::ReportPayload;
use mobicache_server::AdaptiveDecision;
use mobicache_sim::SimTime;
use std::fmt::Write;

/// The kind of invalidation report broadcast in a period.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReportKind {
    /// Plain `TS` window report.
    Window,
    /// AAW-enlarged window report (carries a dummy record).
    EnlargedWindow,
    /// Bit-sequences report.
    BitSeq,
    /// Amnesic-terminals report.
    Amnesic,
    /// Signatures report.
    Sig,
}

impl ReportKind {
    /// Classifies a report payload.
    pub fn of(payload: &ReportPayload) -> ReportKind {
        match payload {
            ReportPayload::Window(w) if w.dummy.is_some() => ReportKind::EnlargedWindow,
            ReportPayload::Window(_) => ReportKind::Window,
            ReportPayload::BitSeq(_) => ReportKind::BitSeq,
            ReportPayload::At(_) => ReportKind::Amnesic,
            ReportPayload::Sig(..) => ReportKind::Sig,
        }
    }

    /// Stable lowercase name (used in traces).
    pub fn name(self) -> &'static str {
        match self {
            ReportKind::Window => "window",
            ReportKind::EnlargedWindow => "enlarged_window",
            ReportKind::BitSeq => "bitseq",
            ReportKind::Amnesic => "amnesic",
            ReportKind::Sig => "sig",
        }
    }
}

/// A cache-population change worth observing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheEventKind {
    /// The whole cache was invalidated (report did not cover the gap).
    FullDrop,
    /// Entries were evicted to make room.
    Evictions {
        /// How many entries were evicted while processing one message.
        count: u64,
    },
}

/// One structured observation from a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProbeEvent {
    /// The server put an invalidation report on the downlink.
    ReportBroadcast {
        /// Kind of report chosen this period.
        kind: ReportKind,
        /// Full message size on the wire, bits (header included).
        bits: f64,
        /// History coverage start for window reports, seconds.
        window_start_secs: Option<f64>,
    },
    /// An AFW/AAW adaptive choice, with both candidate sizes.
    AdaptiveDecision(AdaptiveDecision),
    /// A client entered doze mode for a sampled duration.
    Disconnect {
        /// Who dozed off.
        client: ClientId,
        /// Planned doze length, seconds.
        for_secs: f64,
    },
    /// A client woke up from doze mode.
    Reconnect {
        /// Who woke up.
        client: ClientId,
        /// How long it was offline, seconds.
        offline_secs: f64,
    },
    /// A report or verdict resolved limbo entries after a reconnection.
    LimboSalvage {
        /// Whose cache.
        client: ClientId,
        /// Entries vouched for and kept.
        salvaged: u64,
        /// Entries dropped as unverifiable or stale.
        dropped: u64,
    },
    /// A client's cache population changed beyond normal fills.
    CacheEvent {
        /// Whose cache.
        client: ClientId,
        /// What happened.
        kind: CacheEventKind,
    },
    /// A query completed (all referenced items resolved).
    QueryResolved {
        /// Who asked.
        client: ClientId,
        /// Issue-to-completion latency, seconds.
        latency_secs: f64,
        /// Items answered from cache.
        hits: u32,
        /// Items fetched from the server.
        misses: u32,
    },
    /// Fault injection dropped a broadcast for one client.
    ReportLost {
        /// Whose downlink faded.
        client: ClientId,
        /// `true` if the channel was inside a Gilbert–Elliott burst.
        in_burst: bool,
    },
    /// Fault injection dropped an uplink message in flight.
    UplinkLost {
        /// Whose message.
        client: ClientId,
    },
    /// A scheduled server crash wiped the server's volatile state.
    ServerCrash {
        /// Pending `Tlb` registrations lost with the crash.
        dropped_tlbs: u64,
    },
    /// A crashed server finished rebuilding from its durable update log.
    ServerRecovered {
        /// How long the server was down, seconds.
        offline_secs: f64,
    },
    /// A mobility handoff completed: the client re-associated with
    /// `to_cell` (possibly its own cell again) and reconnected after the
    /// handoff blackout.
    Handoff {
        /// Who moved.
        client: ClientId,
        /// Cell the client left.
        from_cell: u32,
        /// Cell the client now listens to.
        to_cell: u32,
        /// Length of the handoff blackout, seconds.
        offline_secs: f64,
    },
}

/// Declares [`RunTotals`] from one field list: the struct, its
/// field-wise diff and sum, and its trace JSON all come from it, so a
/// new counter is one doc comment and one line here.
macro_rules! run_totals {
    ($( $(#[$doc:meta])* $field:ident: $ty:ty, )*) => {
        /// Cumulative run counters, sampled at snapshot boundaries.
        ///
        /// `IntervalSnapshot` stores the *delta* between two of these, so the
        /// per-interval series telescopes back to the run totals.
        #[derive(Clone, Copy, Debug, Default, PartialEq)]
        pub struct RunTotals {
            $( $(#[$doc])* pub $field: $ty, )*
        }

        impl RunTotals {
            /// Field-wise `self - prev` (counter deltas over an interval).
            pub fn delta_since(&self, prev: &RunTotals) -> RunTotals {
                RunTotals { $( $field: self.$field - prev.$field, )* }
            }

            /// Field-wise accumulation (the inverse of [`RunTotals::delta_since`]).
            pub fn accumulate(&mut self, d: &RunTotals) {
                $( self.$field += d.$field; )*
            }

            /// Appends every counter as `,"name":value`, in declaration order.
            fn write_json_fields(&self, out: &mut String) {
                $( let _ = write!(out, concat!(",\"", stringify!($field), "\":{}"), self.$field); )*
            }
        }
    };
}

run_totals! {
    /// Queries issued.
    queries_issued: u64,
    /// Queries fully answered.
    queries_answered: u64,
    /// Items answered from cache.
    item_hits: u64,
    /// Items fetched from the server.
    item_misses: u64,
    /// Invalidation reports broadcast (all kinds).
    reports_broadcast: u64,
    /// `Tlb` messages the server received.
    tlbs_received: u64,
    /// Validity checks the server processed.
    checks_processed: u64,
    /// Cache evictions across all clients.
    cache_evictions: u64,
    /// Disconnection gaps taken.
    disconnections: u64,
    /// Broadcast reports individually missed to fading.
    reports_lost: u64,
    /// Uplink messages lost to fault injection.
    uplink_losses: u64,
    /// Client re-uplinks triggered by retry timeouts.
    fault_retries: u64,
    /// Scheduled server crashes executed.
    server_crashes: u64,
    /// Mobility handoffs completed.
    handoffs: u64,
    /// Bits transmitted by client radios.
    client_tx_bits: f64,
    /// Bits received by client radios.
    client_rx_bits: f64,
    /// Events pushed onto the future event list.
    events_scheduled: u64,
    /// Events delivered by the kernel.
    events_delivered: u64,
}

/// Declares [`IntervalSnapshot`] and its trace JSON from the list of its
/// absolute fields (high-water marks and cumulative counters).
macro_rules! interval_snapshot {
    ($( $(#[$doc:meta])* $field:ident: $ty:ty, )*) => {
        /// One interval of a run: counter deltas between two snapshot points.
        #[derive(Clone, Copy, Debug, PartialEq)]
        pub struct IntervalSnapshot {
            /// Zero-based interval index.
            pub index: u32,
            /// Interval start, simulated seconds (inclusive).
            pub start_secs: f64,
            /// Interval end, simulated seconds (the snapshot instant).
            pub end_secs: f64,
            /// Counter deltas over `[start_secs, end_secs]`.
            pub delta: RunTotals,
            $( $(#[$doc])* pub $field: $ty, )*
        }

        impl IntervalSnapshot {
            /// One JSON object (single line, no trailing newline) for JSONL
            /// traces, fields in declaration order. Hand-rolled: every field
            /// is a number, and Rust's `f64` `Display` for finite values is
            /// valid JSON.
            pub fn to_json(&self) -> String {
                let mut out = format!(
                    "{{\"interval\":{},\"start_secs\":{},\"end_secs\":{}",
                    self.index, self.start_secs, self.end_secs
                );
                self.delta.write_json_fields(&mut out);
                $( let _ = write!(out, concat!(",\"", stringify!($field), "\":{}"), self.$field); )*
                out.push('}');
                out
            }
        }
    };
}

interval_snapshot! {
    /// Largest pending-event-list depth seen so far (absolute, not a
    /// delta — a high-water mark only ratchets up).
    queue_high_water: usize,
    /// Largest single timing-wheel slot occupancy seen so far (absolute
    /// high-water mark, like `queue_high_water`) — how bursty the
    /// schedule is at slot granularity.
    slot_high_water: usize,
    /// Timing-wheel overflow cascades performed so far (absolute,
    /// cumulative): coarse slots redistributed into finer levels as the
    /// clock crossed window boundaries. Structural work only — cascades
    /// never reorder deliveries.
    sched_cascades: u64,
    /// Invalidation-plan bitmap decodes performed so far (absolute,
    /// cumulative): one per broadcast report whose payload yields a
    /// plan. Decode-once/apply-many means this stays at ~1 per tick
    /// regardless of population size.
    plan_decodes: u64,
    /// Report applications served by the word-wise plan intersection so
    /// far (absolute, cumulative).
    plan_hits: u64,
    /// Report applications served per item so far (absolute,
    /// cumulative): a cache too small for the word arm to profit (one
    /// plan-bit probe per cached item), or a BS client whose `Tlb`
    /// selects a prefix off the pre-decoded bucket (a walk of that
    /// prefix against the cache's membership bitmap).
    plan_misses: u64,
    /// Zero delivery-mask words the broadcast fan-outs skipped so far
    /// (absolute, cumulative) — 64 dozing/unlucky clients apiece that
    /// cost one word load instead of 64 per-client branches.
    fanout_words_skipped: u64,
    /// Stamped deliveries so far (absolute, cumulative): report
    /// deliveries to vouched listeners, which had no open gap, nothing
    /// waiting on a report and no retry due, were at their cell's epoch
    /// under a report covering it, and cached none of the items the
    /// report marks — so the report could do nothing but set their `Tlb`
    /// and revalidate their cache. Stamped clients are not plan
    /// applications. The key keeps its older name: the trace schema is
    /// pinned.
    fanout_quiet: u64,
    /// Report deliveries walked through the client handler so far
    /// (absolute, cumulative). `fanout_quiet + fanout_walked` is the
    /// number of report deliveries.
    fanout_walked: u64,
}

/// A run observer.
///
/// All methods have no-op defaults, so a probe implements only what it
/// cares about. Probes must not mutate anything the model reads — the
/// engine guarantees they are never handed an RNG or the scheduler, so
/// attaching a probe cannot change a run's trajectory.
pub trait Probe {
    /// Called at each decision point, in simulation-time order. `now` is
    /// the simulated instant the event happened.
    fn on_event(&mut self, now: SimTime, event: &ProbeEvent) {
        let _ = (now, event);
    }

    /// Snapshot stride in broadcast periods: `Some(k)` asks the engine
    /// for an [`IntervalSnapshot`] every `k` broadcasts (plus one final
    /// partial interval at the horizon). `None` (the default) disables
    /// snapshotting.
    fn snapshot_every(&self) -> Option<u32> {
        None
    }

    /// Called with each interval snapshot when [`Probe::snapshot_every`]
    /// returns `Some`.
    fn on_snapshot(&mut self, snap: &IntervalSnapshot) {
        let _ = snap;
    }
}

/// The do-nothing probe (what an unobserved run effectively uses).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullProbe;

impl Probe for NullProbe {}

/// Built-in probe: collects an [`IntervalSnapshot`] time series every
/// `k` broadcast periods.
#[derive(Clone, Debug)]
pub struct IntervalSampler {
    every: u32,
    snapshots: Vec<IntervalSnapshot>,
    events_seen: u64,
}

impl IntervalSampler {
    /// Samples every `k` broadcast periods.
    ///
    /// # Panics
    /// Panics if `k` is zero.
    pub fn every(k: u32) -> Self {
        assert!(k > 0, "snapshot stride must be at least 1");
        IntervalSampler {
            every: k,
            snapshots: Vec::new(),
            events_seen: 0,
        }
    }

    /// The collected time series, in interval order.
    pub fn snapshots(&self) -> &[IntervalSnapshot] {
        &self.snapshots
    }

    /// Number of [`ProbeEvent`]s observed (all kinds).
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Sums the interval deltas back into run totals — by construction
    /// this telescopes to the engine's final counters.
    pub fn summed_totals(&self) -> RunTotals {
        let mut sum = RunTotals::default();
        for s in &self.snapshots {
            sum.accumulate(&s.delta);
        }
        sum
    }

    /// The whole series as JSONL (one snapshot per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.snapshots {
            out.push_str(&s.to_json());
            out.push('\n');
        }
        out
    }
}

impl Probe for IntervalSampler {
    fn on_event(&mut self, _now: SimTime, _event: &ProbeEvent) {
        self.events_seen += 1;
    }

    fn snapshot_every(&self) -> Option<u32> {
        Some(self.every)
    }

    fn on_snapshot(&mut self, snap: &IntervalSnapshot) {
        self.snapshots.push(*snap);
    }
}

/// Forwards to two probes in order (compose observers without boxing).
impl<A: Probe + ?Sized, B: Probe + ?Sized> Probe for (&mut A, &mut B) {
    fn on_event(&mut self, now: SimTime, event: &ProbeEvent) {
        self.0.on_event(now, event);
        self.1.on_event(now, event);
    }

    fn snapshot_every(&self) -> Option<u32> {
        match (self.0.snapshot_every(), self.1.snapshot_every()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn on_snapshot(&mut self, snap: &IntervalSnapshot) {
        self.0.on_snapshot(snap);
        self.1.on_snapshot(snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(index: u32, answered: u64, tx: f64) -> IntervalSnapshot {
        IntervalSnapshot {
            index,
            start_secs: f64::from(index) * 100.0,
            end_secs: f64::from(index + 1) * 100.0,
            delta: RunTotals {
                queries_answered: answered,
                client_tx_bits: tx,
                ..RunTotals::default()
            },
            queue_high_water: 7,
            slot_high_water: 5,
            sched_cascades: 2,
            plan_decodes: 4,
            plan_hits: 90,
            plan_misses: 3,
            fanout_words_skipped: 6,
            fanout_quiet: 11,
            fanout_walked: 13,
        }
    }

    #[test]
    fn deltas_telescope() {
        let a = RunTotals {
            queries_answered: 10,
            client_tx_bits: 1_000.0,
            ..RunTotals::default()
        };
        let b = RunTotals {
            queries_answered: 25,
            client_tx_bits: 2_500.0,
            ..RunTotals::default()
        };
        let d = b.delta_since(&a);
        assert_eq!(d.queries_answered, 15);
        let mut back = a;
        back.accumulate(&d);
        assert_eq!(back, b);
    }

    #[test]
    fn sampler_collects_and_sums() {
        let mut s = IntervalSampler::every(4);
        assert_eq!(s.snapshot_every(), Some(4));
        s.on_snapshot(&snap(0, 3, 10.0));
        s.on_snapshot(&snap(1, 5, 20.0));
        assert_eq!(s.snapshots().len(), 2);
        let sum = s.summed_totals();
        assert_eq!(sum.queries_answered, 8);
        assert!((sum.client_tx_bits - 30.0).abs() < 1e-12);
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let mut s = IntervalSampler::every(1);
        s.on_snapshot(&snap(0, 3, 10.0));
        s.on_snapshot(&snap(1, 5, 20.5));
        let out = s.to_jsonl();
        let lines: Vec<&str> = out.trim_end().split('\n').collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(lines[1].contains("\"queries_answered\":5"));
        assert!(lines[1].contains("\"client_tx_bits\":20.5"));
        assert!(lines[0].contains("\"queue_high_water\":7"));
        assert!(lines[0].contains("\"slot_high_water\":5"));
        assert!(lines[0].contains("\"sched_cascades\":2"));
        assert!(lines[0].contains("\"uplink_losses\":0"));
        assert!(lines[0].contains("\"fault_retries\":0"));
        assert!(lines[0].contains("\"server_crashes\":0"));
        assert!(lines[0].contains("\"handoffs\":0"));
        assert!(lines[0].contains("\"plan_decodes\":4"));
        assert!(lines[0].contains("\"plan_hits\":90"));
        assert!(lines[0].contains("\"plan_misses\":3"));
        assert!(lines[0].contains("\"fanout_words_skipped\":6"));
        assert!(lines[0].contains("\"fanout_quiet\":11"));
        assert!(lines[0].contains("\"fanout_walked\":13"));
    }

    #[test]
    fn report_kind_classification() {
        use mobicache_reports::{BitSequences, WindowReport};
        use mobicache_sim::SimTime;
        let t = SimTime::from_secs(10.0);
        let plain = ReportPayload::Window(WindowReport {
            broadcast_at: t,
            window_start: SimTime::ZERO,
            records: vec![],
            dummy: None,
        });
        assert_eq!(ReportKind::of(&plain), ReportKind::Window);
        let enlarged = ReportPayload::Window(WindowReport {
            broadcast_at: t,
            window_start: SimTime::ZERO,
            records: vec![],
            dummy: Some(SimTime::ZERO),
        });
        assert_eq!(ReportKind::of(&enlarged), ReportKind::EnlargedWindow);
        let bs = ReportPayload::BitSeq(BitSequences::from_recency(t, 16, vec![]));
        assert_eq!(ReportKind::of(&bs), ReportKind::BitSeq);
        assert_eq!(ReportKind::of(&bs).name(), "bitseq");
    }

    #[test]
    fn pair_probe_forwards_to_both() {
        let mut a = IntervalSampler::every(2);
        let mut b = IntervalSampler::every(8);
        let mut pair = (&mut a, &mut b);
        assert_eq!(Probe::snapshot_every(&pair), Some(2));
        pair.on_snapshot(&snap(0, 1, 0.0));
        pair.on_event(
            SimTime::ZERO,
            &ProbeEvent::Disconnect {
                client: mobicache_model::ClientId(0),
                for_secs: 5.0,
            },
        );
        assert_eq!(a.snapshots().len(), 1);
        assert_eq!(b.snapshots().len(), 1);
        assert_eq!(a.events_seen(), 1);
        assert_eq!(b.events_seen(), 1);
    }
}
