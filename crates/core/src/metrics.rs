//! Run metrics.
//!
//! The paper's evaluation reports two primary quantities per
//! configuration (§5): the **number of queries answered** in the
//! simulated interval (throughput under a fully utilised network) and the
//! **uplink communication cost for validity checking, in bits per
//! answered query**. Everything else here is supporting diagnostics used
//! by the extended experiments and the tests.

use crate::probe::RunTotals;
use mobicache_client::ClientCounters;
use mobicache_server::ServerCounters;
use mobicache_sim::{Histogram, OnlineStats};
use std::fmt;

/// The engine's own run accumulators and the interval snapshot cursor.
pub(crate) struct Accounting {
    pub(crate) latency: OnlineStats,
    pub(crate) latency_hist: Histogram,
    /// The run counters the engine moves itself; the other layers keep
    /// their own. Client disconnections (dozes and handoffs).
    pub(crate) disconnections: u64,
    /// Bits transmitted by client radios. Every message size is a whole
    /// number of bits, so the counters are integers: a sum of `f64`
    /// sizes taken one message at a time is exact, and equals this
    /// count converted, while the total stays below 2^53.
    client_tx_bits: u64,
    /// Bits received by client radios.
    client_rx_bits: u64,
    /// Broadcast periods completed (snapshot stride counter).
    ticks: u64,
    /// The open snapshot interval: its index, start (simulated seconds)
    /// and the cumulative counters at its start.
    interval: (u32, f64, RunTotals),
}

impl Accounting {
    pub(crate) fn new() -> Self {
        Accounting {
            latency: OnlineStats::new(),
            latency_hist: Histogram::new(0.0, 2_000.0, 200),
            disconnections: 0,
            client_tx_bits: 0,
            client_rx_bits: 0,
            ticks: 0,
            interval: (0, 0.0, RunTotals::default()),
        }
    }

    /// Charges `listeners` receptions of a `bits`-bit message.
    pub(crate) fn charge_rx(&mut self, bits: f64, listeners: u64) {
        self.client_rx_bits += whole_bits(bits) * listeners;
    }

    /// Charges one transmission of a `bits`-bit message.
    pub(crate) fn charge_tx(&mut self, bits: f64) {
        self.client_tx_bits += whole_bits(bits);
    }

    /// Bits transmitted and received by client radios so far.
    pub(crate) fn radio_bits(&self) -> (f64, f64) {
        (self.client_tx_bits as f64, self.client_rx_bits as f64)
    }

    /// Counts one broadcast period; `true` when it closes an interval.
    pub(crate) fn tick(&mut self, stride: Option<u32>) -> bool {
        self.ticks += 1;
        stride.is_some_and(|k| self.ticks.is_multiple_of(u64::from(k.max(1))))
    }

    /// Closes the open interval at `end_secs`, where the cumulative
    /// counters read `totals`: returns its index, start and deltas.
    pub(crate) fn close_interval(
        &mut self,
        totals: RunTotals,
        end_secs: f64,
    ) -> (u32, f64, RunTotals) {
        let next = (self.interval.0 + 1, end_secs, totals);
        let (index, start_secs, prev) = std::mem::replace(&mut self.interval, next);
        (index, start_secs, totals.delta_since(&prev))
    }
}

/// A message size as a whole number of bits. `SimConfig::validate`
/// admits only whole `timestamp_bits` and `header_bits`, and every other
/// term of a size formula is a count or `⌈log₂ N⌉`.
fn whole_bits(bits: f64) -> u64 {
    debug_assert!(
        bits >= 0.0 && bits.fract() == 0.0,
        "message size {bits} is not a whole number of bits"
    );
    bits as u64
}

/// Declares [`Metrics`] and its `Debug` from one field list; the fields
/// after the `;` are rendered only while non-default.
macro_rules! metrics {
    (
        $( $(#[$doc:meta])* $field:ident: $ty:ty, )*
        ;
        $( $(#[$odoc:meta])* $opt:ident: $oty:ty, )*
    ) => {
        /// Aggregated results of one simulation run.
        ///
        /// `Debug` leaves out the [`faults`] and [`mobility`] sections
        /// while they are all-zero: the golden-digest determinism suite
        /// hashes the `Debug` rendering, and fault-free single-cell runs
        /// must reproduce historical digests byte-for-byte.
        ///
        /// [`faults`]: Metrics::faults
        /// [`mobility`]: Metrics::mobility
        #[derive(Clone, Default)]
        pub struct Metrics {
            $( $(#[$doc])* pub $field: $ty, )*
            $( $(#[$odoc])* pub $opt: $oty, )*
        }

        impl fmt::Debug for Metrics {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let mut s = f.debug_struct("Metrics");
                $( s.field(stringify!($field), &self.$field); )*
                $(
                    if self.$opt != <$oty>::default() {
                        s.field(stringify!($opt), &self.$opt);
                    }
                )*
                s.finish()
            }
        }
    };
}

metrics! {
    // ---- the paper's headline metrics ----
    /// Queries fully answered within the horizon (Figures 5, 7, 9, 11,
    /// 13, 15, 16).
    queries_answered: u64,
    /// Validity-checking uplink traffic (`Tlb` reports + check requests)
    /// divided by answered queries (Figures 6, 8, 10, 12, 14).
    uplink_validity_bits_per_query: f64,

    // ---- load and cache behaviour ----
    /// Queries issued (answered + still in flight at the horizon).
    queries_issued: u64,
    /// Referenced items answered from cache.
    item_hits: u64,
    /// Referenced items downloaded from the server.
    item_misses: u64,
    /// `item_hits / (item_hits + item_misses)`.
    hit_ratio: f64,
    /// Mean query latency (issue → last item resolved), seconds.
    mean_query_latency_secs: f64,
    /// 95th-percentile query latency, seconds (histogram estimate).
    p95_query_latency_secs: f64,

    // ---- channel accounting (bits fully transmitted) ----
    /// Total validity-checking uplink bits (class 1: `Tlb` + checks).
    uplink_validity_bits: f64,
    /// Total uplink bits of every class.
    uplink_total_bits: f64,
    /// Invalidation-report downlink bits (class 0).
    downlink_report_bits: f64,
    /// Validity-report downlink bits (class 1).
    downlink_validity_bits: f64,
    /// Data-item downlink bits (class 2).
    downlink_data_bits: f64,
    /// Downlink busy fraction over the horizon.
    downlink_utilization: f64,
    /// Uplink busy fraction over the horizon.
    uplink_utilization: f64,
    /// Data transmissions interrupted by a broadcast report.
    downlink_preemptions: u64,

    // ---- client radio energy (extension; §1 motivates power efficiency) ----
    /// Bits transmitted by client radios (uplink messages).
    client_tx_bits: f64,
    /// Bits received by client radios (reports heard + addressed
    /// downlink traffic).
    client_rx_bits: f64,
    /// Total client energy: `tx_bits·e_tx + rx_bits·e_rx` in abstract
    /// units (defaults make transmission 100× reception).
    energy_total: f64,
    /// Energy per answered query.
    energy_per_query: f64,
    /// Broadcast reports individually missed due to fading
    /// (`p_report_loss` extension).
    reports_lost: u64,

    // ---- scheme behaviour ----
    /// Server-side report/decision counters.
    server: ServerStats,
    /// Client-side counters summed over all clients.
    clients: ClientStats,
    /// Cache evictions summed over all clients.
    cache_evictions: u64,
    /// Disconnection gaps taken (count of disconnect decisions).
    disconnections: u64,
    /// Events processed by the kernel (progress/debug metric).
    events_processed: u64,
    /// Simulated horizon, seconds.
    sim_time_secs: f64,
    ;
    // ---- fault injection (robustness extension) ----
    /// Fault-injection outcomes; all-zero unless the run's
    /// [`FaultPlan`](mobicache_model::FaultPlan) injected something.
    faults: FaultMetrics,

    // ---- client mobility (multi-cell extension) ----
    /// Handoff outcomes; all-zero unless the run's
    /// [`CellTopology`](mobicache_model::CellTopology) has more than one
    /// cell.
    mobility: MobilityMetrics,
}

/// Outcomes of the mobility process over one run. All-zero in the
/// single-cell (legacy) topology, so the field never appears in the
/// golden-digest renderings of pre-mobility configurations.
///
/// There is deliberately no roam-vs-stay split: the cross-cell
/// equivalence battery compares a `p_roam = 1` run against a
/// `p_roam = 0` run bit-for-bit, and both arms of a handoff (moving or
/// staying) are the same radio event.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MobilityMetrics {
    /// Handoffs completed (the client re-associated and reconnected,
    /// whether or not the destination differs from the source cell).
    pub handoffs: u64,
    /// Handoffs postponed because the client was mid-flight (pending
    /// query, dozing, or an unresolved reconnection gap).
    pub handoffs_deferred: u64,
}

/// Outcomes of fault injection over one run. All-zero when the fault
/// plan is inactive.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultMetrics {
    /// Broadcasts lost while a client's channel was in the good state.
    pub downlink_losses_good: u64,
    /// Broadcasts lost inside a Gilbert–Elliott loss burst.
    pub downlink_losses_burst: u64,
    /// Uplink messages lost in flight.
    pub uplink_losses: u64,
    /// Uplink messages that arrived while the server was crashed and
    /// were dropped.
    pub crash_dropped_uplinks: u64,
    /// Client re-uplinks triggered by retry timeouts.
    pub retries_sent: u64,
    /// Retry episodes that exhausted `max_retries` and degraded to a
    /// full cache drop.
    pub backoff_exhaustions: u64,
    /// Scheduled server crashes executed.
    pub server_crashes: u64,
    /// Pending `Tlb` registrations wiped by crashes.
    pub crash_dropped_tlbs: u64,
    /// Duplicate `Tlb` arrivals the server ignored idempotently.
    pub duplicate_tlbs_ignored: u64,
    /// Duplicate data requests ignored because the response was already
    /// on the downlink (a retry racing queueing delay, not loss).
    pub duplicate_requests_ignored: u64,
    /// Server recoveries completed (first broadcast after rebuild).
    pub recoveries: u64,
    /// Mean crash → first-post-recovery-broadcast latency, seconds.
    pub mean_recovery_latency_secs: f64,
    /// Queries that were pending at the moment a fault hit their client
    /// (a lost broadcast) — the paper's "stretch" population.
    pub queries_stretched: u64,
}

/// Serializable mirror of [`ServerCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Plain window reports broadcast.
    pub window_reports: u64,
    /// AAW enlarged-window reports broadcast.
    pub enlarged_reports: u64,
    /// Bit-sequence reports broadcast.
    pub bs_reports: u64,
    /// Amnesic-terminals reports broadcast.
    pub at_reports: u64,
    /// Signature reports broadcast.
    pub sig_reports: u64,
    /// `Tlb` messages received.
    pub tlbs_received: u64,
    /// Check requests processed.
    pub checks_processed: u64,
    /// Update transactions applied.
    pub txns_applied: u64,
    /// Individual item updates applied.
    pub updates_applied: u64,
}

impl From<ServerCounters> for ServerStats {
    fn from(c: ServerCounters) -> Self {
        ServerStats {
            window_reports: c.window_reports,
            enlarged_reports: c.enlarged_reports,
            bs_reports: c.bs_reports,
            at_reports: c.at_reports,
            sig_reports: c.sig_reports,
            tlbs_received: c.tlbs_received,
            checks_processed: c.checks_processed,
            txns_applied: c.txns_applied,
            updates_applied: c.updates_applied,
        }
    }
}

/// Serializable copy of the population's [`ClientCounters`] totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// `Tlb` messages sent.
    pub tlbs_sent: u64,
    /// Check requests sent.
    pub checks_sent: u64,
    /// Entire-cache drops.
    pub full_drops: u64,
    /// Limbo entries salvaged.
    pub salvaged: u64,
    /// Limbo entries dropped.
    pub limbo_dropped: u64,
    /// Reconnection gaps with cache contents at stake.
    pub limbo_episodes: u64,
}

impl From<ClientCounters> for ClientStats {
    fn from(c: ClientCounters) -> Self {
        ClientStats {
            tlbs_sent: c.tlbs_sent,
            checks_sent: c.checks_sent,
            full_drops: c.full_drops,
            salvaged: c.salvaged,
            limbo_dropped: c.limbo_dropped,
            limbo_episodes: c.limbo_episodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_hides_default_faults_and_shows_real_ones() {
        let clean = Metrics {
            queries_answered: 7,
            ..Metrics::default()
        };
        let rendered = format!("{clean:?}");
        assert!(
            !rendered.contains("faults"),
            "fault-free metrics must render exactly as before the fault layer: {rendered}"
        );
        assert!(rendered.starts_with("Metrics { queries_answered: 7,"));
        assert!(rendered.ends_with("sim_time_secs: 0.0 }"));

        let mut faulty = clean.clone();
        faulty.faults.uplink_losses = 3;
        let rendered = format!("{faulty:?}");
        assert!(rendered.contains("faults: FaultMetrics"));
        assert!(rendered.contains("uplink_losses: 3"));

        // Same contract for the mobility section: invisible while
        // all-zero, appended after `faults` once a handoff happened.
        let mut mobile = clean;
        mobile.mobility.handoffs = 2;
        let rendered = format!("{mobile:?}");
        assert!(rendered.contains("mobility: MobilityMetrics"));
        assert!(rendered.contains("handoffs: 2"));
    }

    #[test]
    fn client_stats_from_counters() {
        let c = ClientCounters {
            tlbs_sent: 2,
            checks_sent: 3,
            full_drops: 1,
            salvaged: 4,
            limbo_dropped: 5,
            limbo_episodes: 6,
            ..ClientCounters::default()
        };
        assert_eq!(
            ClientStats::from(c),
            ClientStats {
                tlbs_sent: 2,
                checks_sent: 3,
                full_drops: 1,
                salvaged: 4,
                limbo_dropped: 5,
                limbo_episodes: 6,
            }
        );
    }
}
