//! The fault layer: downlink loss (a Gilbert–Elliott chain with the
//! legacy `p_report_loss` knob folded in), uplink loss, the in-flight
//! data dedup and the server crash windows. The engine holds one only
//! when some fault can fire.

use crate::metrics::FaultMetrics;
use mobicache_client::ClientPop;
use mobicache_model::{ChannelFaults, ClientId, ItemId, SimConfig};
use mobicache_sim::bits::for_each_set_bit;
use mobicache_sim::{SimRng, SimTime, StreamId};
use std::collections::HashSet;

pub(crate) struct Faults {
    /// Per-client fault streams (Gilbert–Elliott transitions, downlink-
    /// and uplink-loss coins), so enabling faults never perturbs the
    /// workload streams.
    rng: Vec<SimRng>,
    /// Per-client Gilbert–Elliott channel state (`true` = in a burst).
    ge_bad: Vec<bool>,
    /// The downlink fault chain with the legacy `p_report_loss` knob
    /// folded in as an independent loss source.
    downlink: ChannelFaults,
    p_uplink_loss: f64,
    /// An explicit fault plan is active; the bare `p_report_loss` knob
    /// is not one.
    plan_active: bool,
    /// Data responses currently queued or in flight on the downlink,
    /// keyed by `(requester, item)`. Retry-armed clients cannot tell a
    /// lost request from queueing delay, so the server ignores a
    /// duplicate request whose answer is already on its way instead of
    /// re-sending a full item. Empty without a fault plan.
    inflight_data: HashSet<(ClientId, ItemId)>,
    /// Nesting depth of in-progress server crash windows (0 = up).
    down_depth: u32,
    /// Earliest unacknowledged crash instant — measured (and cleared)
    /// at the first successful post-recovery broadcast.
    crash_pending_since: Option<SimTime>,
    /// Sum of crash → first-post-recovery-broadcast latencies.
    recovery_latency_sum: f64,
    pub(crate) metrics: FaultMetrics,
}

impl Faults {
    pub(crate) fn new(cfg: &SimConfig) -> Option<Self> {
        let downlink = cfg.faults.downlink.with_independent_loss(cfg.p_report_loss);
        let plan_active = cfg.faults.is_active();
        (plan_active || downlink.is_active()).then(|| Faults {
            rng: (0..cfg.num_clients)
                .map(|c| SimRng::for_stream(cfg.seed, StreamId::Fault(c)))
                .collect(),
            ge_bad: vec![false; cfg.num_clients as usize],
            downlink,
            p_uplink_loss: cfg.faults.p_uplink_loss,
            plan_active,
            inflight_data: HashSet::new(),
            down_depth: 0,
            crash_pending_since: None,
            recovery_latency_sum: 0.0,
            metrics: FaultMetrics::default(),
        })
    }

    /// Clears from `mask` (the connected members of `cell`) each client
    /// that loses this broadcast, calling `lost(client, in_burst)` for
    /// it, in client-index order.
    pub(crate) fn drop_lost(
        &mut self,
        clients: &ClientPop,
        cell: u32,
        mask: &mut [u64],
        mut lost: impl FnMut(ClientId, bool),
    ) {
        let df = self.downlink;
        if !df.is_active() {
            return;
        }
        let p_exit = df.p_exit_burst();
        // Only the cell's members: another cell's broadcast does not
        // involve this client's radio path at all. Its chain evolves once
        // per tick on its OWN cell's broadcast, so the per-client draw
        // schedule stays aligned with that cell's broadcast clock.
        for_each_set_bit(clients.cell_words(cell), 0..clients.len(), |i| {
            // The Gilbert–Elliott chain evolves for every member of the
            // cell, listening or not — burstiness is a property of the
            // radio path, and a draw schedule independent of
            // connectivity keeps each client's stream aligned with the
            // broadcast clock.
            let rng = &mut self.rng[i];
            let bad = if self.ge_bad[i] {
                !rng.coin(p_exit)
            } else {
                df.p_enter_burst > 0.0 && rng.coin(df.p_enter_burst)
            };
            self.ge_bad[i] = bad;
            let bit = 1u64 << (i % 64);
            if mask[i / 64] & bit == 0 {
                return; // dozing clients miss the broadcast
            }
            let p = if bad { df.p_loss_bad } else { df.p_loss_good };
            if p > 0.0 && rng.coin(p) {
                mask[i / 64] &= !bit;
                if bad {
                    self.metrics.downlink_losses_burst += 1;
                } else {
                    self.metrics.downlink_losses_good += 1;
                }
                if clients.has_pending_query(i) {
                    // The query must now wait at least one more interval
                    // for a report.
                    self.metrics.queries_stretched += 1;
                }
                lost(ClientId(i as u32), bad);
            }
        });
    }

    pub(crate) fn uplink_lost(&mut self, i: usize) -> bool {
        let p = self.p_uplink_loss;
        let lost = p > 0.0 && self.rng[i].coin(p);
        self.metrics.uplink_losses += u64::from(lost);
        lost
    }

    /// `true` (tallied) if the answer to this data request is already
    /// queued or in flight; otherwise the request is recorded as such.
    pub(crate) fn is_duplicate_request(&mut self, from: ClientId, item: ItemId) -> bool {
        let duplicate = self.plan_active && !self.inflight_data.insert((from, item));
        self.metrics.duplicate_requests_ignored += u64::from(duplicate);
        duplicate
    }

    /// A later request for a delivered item is a fresh request.
    pub(crate) fn data_delivered(&mut self, dest: ClientId, item: ItemId) {
        self.inflight_data.remove(&(dest, item));
    }

    pub(crate) fn server_up(&self) -> bool {
        self.down_depth == 0
    }

    /// `true` (tallied) if an uplink message reaches a crashed server.
    pub(crate) fn server_drops_uplink(&mut self) -> bool {
        let down = !self.server_up();
        self.metrics.crash_dropped_uplinks += u64::from(down);
        down
    }

    pub(crate) fn crash(&mut self, now: SimTime, dropped_tlbs: u64) {
        self.down_depth += 1;
        self.metrics.server_crashes += 1;
        self.metrics.crash_dropped_tlbs += dropped_tlbs;
        self.crash_pending_since.get_or_insert(now);
    }

    /// A crash window closes; `true` if it was the last open one.
    pub(crate) fn recover(&mut self) -> bool {
        self.down_depth = self.down_depth.saturating_sub(1);
        self.server_up()
    }

    /// A report went out at `now`. Recovery completes, from the clients'
    /// point of view, with the first report built after the server came
    /// back: returns the outage that report ends, in seconds.
    pub(crate) fn broadcast_resumed(&mut self, now: SimTime) -> Option<f64> {
        let offline_secs = now - self.crash_pending_since.take()?;
        self.metrics.recoveries += 1;
        self.recovery_latency_sum += offline_secs;
        Some(offline_secs)
    }

    /// The final tallies. Duplicate `Tlb`s (`duplicate_tlbs`) also occur
    /// naturally (two clients sharing a last-report time reconnect in
    /// one interval); they only belong in the *fault* report when a
    /// fault plan could have caused them.
    pub(crate) fn finish(self, duplicate_tlbs: u64) -> FaultMetrics {
        let mut m = self.metrics;
        if self.plan_active {
            m.duplicate_tlbs_ignored = duplicate_tlbs;
        }
        if m.recoveries > 0 {
            m.mean_recovery_latency_secs = self.recovery_latency_sum / m.recoveries as f64;
        }
        m
    }
}
