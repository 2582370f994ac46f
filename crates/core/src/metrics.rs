//! Run metrics.
//!
//! The paper's evaluation reports two primary quantities per
//! configuration (§5): the **number of queries answered** in the
//! simulated interval (throughput under a fully utilised network) and the
//! **uplink communication cost for validity checking, in bits per
//! answered query**. Everything else here is supporting diagnostics used
//! by the extended experiments and the tests.

use mobicache_client::ClientCounters;
use mobicache_server::ServerCounters;
use std::fmt;

/// Aggregated results of one simulation run.
///
/// `Debug` is implemented by hand (not derived) so that the [`faults`]
/// section only appears when fault injection actually recorded
/// something: the golden-digest determinism suite hashes the `Debug`
/// rendering, and fault-free runs must reproduce historical digests
/// byte-for-byte.
///
/// [`faults`]: Metrics::faults
#[derive(Clone, Default)]
pub struct Metrics {
    // ---- the paper's headline metrics ----
    /// Queries fully answered within the horizon (Figures 5, 7, 9, 11,
    /// 13, 15, 16).
    pub queries_answered: u64,
    /// Validity-checking uplink traffic (`Tlb` reports + check requests)
    /// divided by answered queries (Figures 6, 8, 10, 12, 14).
    pub uplink_validity_bits_per_query: f64,

    // ---- load and cache behaviour ----
    /// Queries issued (answered + still in flight at the horizon).
    pub queries_issued: u64,
    /// Referenced items answered from cache.
    pub item_hits: u64,
    /// Referenced items downloaded from the server.
    pub item_misses: u64,
    /// `item_hits / (item_hits + item_misses)`.
    pub hit_ratio: f64,
    /// Mean query latency (issue → last item resolved), seconds.
    pub mean_query_latency_secs: f64,
    /// 95th-percentile query latency, seconds (histogram estimate).
    pub p95_query_latency_secs: f64,

    // ---- channel accounting (bits fully transmitted) ----
    /// Total validity-checking uplink bits (class 1: `Tlb` + checks).
    pub uplink_validity_bits: f64,
    /// Total uplink bits of every class.
    pub uplink_total_bits: f64,
    /// Invalidation-report downlink bits (class 0).
    pub downlink_report_bits: f64,
    /// Validity-report downlink bits (class 1).
    pub downlink_validity_bits: f64,
    /// Data-item downlink bits (class 2).
    pub downlink_data_bits: f64,
    /// Downlink busy fraction over the horizon.
    pub downlink_utilization: f64,
    /// Uplink busy fraction over the horizon.
    pub uplink_utilization: f64,
    /// Data transmissions interrupted by a broadcast report.
    pub downlink_preemptions: u64,

    // ---- client radio energy (extension; §1 motivates power efficiency) ----
    /// Bits transmitted by client radios (uplink messages).
    pub client_tx_bits: f64,
    /// Bits received by client radios (reports heard + addressed
    /// downlink traffic).
    pub client_rx_bits: f64,
    /// Total client energy: `tx_bits·e_tx + rx_bits·e_rx` in abstract
    /// units (defaults make transmission 100× reception).
    pub energy_total: f64,
    /// Energy per answered query.
    pub energy_per_query: f64,
    /// Broadcast reports individually missed due to fading
    /// (`p_report_loss` extension).
    pub reports_lost: u64,

    // ---- scheme behaviour ----
    /// Server-side report/decision counters.
    pub server: ServerStats,
    /// Client-side counters summed over all clients.
    pub clients: ClientStats,
    /// Cache evictions summed over all clients.
    pub cache_evictions: u64,
    /// Disconnection gaps taken (count of disconnect decisions).
    pub disconnections: u64,
    /// Events processed by the kernel (progress/debug metric).
    pub events_processed: u64,
    /// Simulated horizon, seconds.
    pub sim_time_secs: f64,

    // ---- fault injection (robustness extension) ----
    /// Fault-injection outcomes; all-zero unless the run's
    /// [`FaultPlan`](mobicache_model::FaultPlan) injected something.
    pub faults: FaultMetrics,

    // ---- client mobility (multi-cell extension) ----
    /// Handoff outcomes; all-zero unless the run's
    /// [`CellTopology`](mobicache_model::CellTopology) has more than one
    /// cell.
    pub mobility: MobilityMetrics,
}

impl fmt::Debug for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Mirrors the derived output field-for-field; `faults` is
        // appended only when non-default so fault-free renderings (and
        // therefore golden digests) are unchanged from before the fault
        // layer existed.
        let mut s = f.debug_struct("Metrics");
        s.field("queries_answered", &self.queries_answered)
            .field(
                "uplink_validity_bits_per_query",
                &self.uplink_validity_bits_per_query,
            )
            .field("queries_issued", &self.queries_issued)
            .field("item_hits", &self.item_hits)
            .field("item_misses", &self.item_misses)
            .field("hit_ratio", &self.hit_ratio)
            .field("mean_query_latency_secs", &self.mean_query_latency_secs)
            .field("p95_query_latency_secs", &self.p95_query_latency_secs)
            .field("uplink_validity_bits", &self.uplink_validity_bits)
            .field("uplink_total_bits", &self.uplink_total_bits)
            .field("downlink_report_bits", &self.downlink_report_bits)
            .field("downlink_validity_bits", &self.downlink_validity_bits)
            .field("downlink_data_bits", &self.downlink_data_bits)
            .field("downlink_utilization", &self.downlink_utilization)
            .field("uplink_utilization", &self.uplink_utilization)
            .field("downlink_preemptions", &self.downlink_preemptions)
            .field("client_tx_bits", &self.client_tx_bits)
            .field("client_rx_bits", &self.client_rx_bits)
            .field("energy_total", &self.energy_total)
            .field("energy_per_query", &self.energy_per_query)
            .field("reports_lost", &self.reports_lost)
            .field("server", &self.server)
            .field("clients", &self.clients)
            .field("cache_evictions", &self.cache_evictions)
            .field("disconnections", &self.disconnections)
            .field("events_processed", &self.events_processed)
            .field("sim_time_secs", &self.sim_time_secs);
        if self.faults != FaultMetrics::default() {
            s.field("faults", &self.faults);
        }
        if self.mobility != MobilityMetrics::default() {
            s.field("mobility", &self.mobility);
        }
        s.finish()
    }
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

/// Serializable sum of [`ClientCounters`] over all clients.
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

impl ClientStats {
    /// Accumulates one client's counters.
    pub fn absorb(&mut self, c: &ClientCounters) {
        self.tlbs_sent += c.tlbs_sent;
        self.checks_sent += c.checks_sent;
        self.full_drops += c.full_drops;
        self.salvaged += c.salvaged;
        self.limbo_dropped += c.limbo_dropped;
        self.limbo_episodes += c.limbo_episodes;
    }
}

impl Metrics {
    /// Throughput in queries per second of simulated time.
    pub fn throughput_per_sec(&self) -> f64 {
        if self.sim_time_secs <= 0.0 {
            0.0
        } else {
            self.queries_answered as f64 / self.sim_time_secs
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
    fn throughput_math() {
        let m = Metrics {
            queries_answered: 15_000,
            sim_time_secs: 100_000.0,
            ..Metrics::default()
        };
        assert!((m.throughput_per_sec() - 0.15).abs() < 1e-12);
        assert_eq!(Metrics::default().throughput_per_sec(), 0.0);
    }

    #[test]
    fn client_stats_absorb_sums() {
        let mut s = ClientStats::default();
        let c = ClientCounters {
            tlbs_sent: 2,
            checks_sent: 3,
            full_drops: 1,
            salvaged: 4,
            limbo_dropped: 5,
            limbo_episodes: 6,
            ..ClientCounters::default()
        };
        s.absorb(&c);
        s.absorb(&c);
        assert_eq!(s.tlbs_sent, 4);
        assert_eq!(s.limbo_episodes, 12);
    }
}
