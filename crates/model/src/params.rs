//! Simulation parameters and scheme selection.
//!
//! [`SimConfig::paper_default`] encodes the paper's **Table 1** ("System
//! Parameter Settings") and **Table 2** ("Query/Update Pattern") defaults.
//! Every figure of the evaluation is a sweep over one or two of these
//! fields; the `mobicache-experiments` crate builds those sweeps from this
//! type.
//!
//! Two parameters deserve a note (see DESIGN.md §3 for the full
//! reconciliation):
//!
//! * `items_per_query_mean` defaults to **1** (§5: "each query reads a data
//!   item"), not Table 1's 10, because the reported throughputs are only
//!   consistent with ≈ one item download per answered query on a
//!   10 000 bps downlink. The Table 1 value is available via the config.
//! * disconnection is decided per query completion (probability
//!   `p_disconnect` of a disconnection gap instead of a think gap), the
//!   only reading of §4 consistent with the reported magnitudes.

use crate::error::ConfigError;
use crate::faults::FaultPlan;
use crate::units::Bits;
use std::fmt;

/// The cache invalidation strategy run by server and clients.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Broadcasting timestamps without reconnection checking (§2.1, the
    /// `TS` scheme of Barbara & Imielinski): a client disconnected for more
    /// than `w` broadcast intervals drops its whole cache.
    TsNoCheck,
    /// Amnesic terminals (`AT`): the report lists only the items updated
    /// since the *previous* report; any missed report drops the cache.
    At,
    /// `TS` with validity checking after reconnection (§2.2, Wu/Yu/Chen) —
    /// called "simple checking" in the paper's plots. The reconnecting
    /// client uplinks cached ids + timestamps and the server answers with a
    /// validity report.
    SimpleChecking,
    /// Bit-sequences (`BS`, Jing et al., §2.3): a hierarchical bit-sequence
    /// report that can invalidate precisely after arbitrarily long
    /// disconnections, at the cost of `2N + b_T·log₂N` bits per report.
    Bs,
    /// Adaptive invalidation report with **fixed window** (§3.1, this
    /// paper): normally `IR(w)`; switches to `IR(BS)` for one period when a
    /// reconnecting client's uplinked `Tlb` requires deeper history.
    Afw,
    /// Adaptive invalidation report with **adjusting window** (§3.2, this
    /// paper): like AFW but may instead enlarge the `TS` window back to the
    /// oldest pending `Tlb` (tagged with a dummy record), choosing
    /// whichever report is smaller.
    Aaw,
    /// Signature scheme (`SIG`, Barbara & Imielinski): combined signatures
    /// broadcast instead of update lists. Included for library
    /// completeness; not part of the paper's simulation plots.
    Sig,
    /// GCORE-inspired grouped checking (after Wu/Yu/Chen, simplified):
    /// like simple checking, but the reconnecting client uplinks one
    /// `(group, Tlb)` record per cached *group* instead of one record per
    /// cached item, and the server answers with the stale items of those
    /// groups. Bounded by a retention window `W` — reconnections older
    /// than `W·L` drop the cache, the limitation §1 of the paper calls
    /// out. Extension; not part of the paper's simulation plots.
    Gcore,
}

impl Scheme {
    /// The four schemes compared in the paper's simulation study (§5).
    pub const PAPER_SET: [Scheme; 4] =
        [Scheme::Aaw, Scheme::Afw, Scheme::SimpleChecking, Scheme::Bs];

    /// All implemented schemes.
    pub const ALL: [Scheme; 8] = [
        Scheme::TsNoCheck,
        Scheme::At,
        Scheme::SimpleChecking,
        Scheme::Bs,
        Scheme::Afw,
        Scheme::Aaw,
        Scheme::Sig,
        Scheme::Gcore,
    ];

    /// The label used in the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::TsNoCheck => "broadcasting timestamps",
            Scheme::At => "amnesic terminals",
            Scheme::SimpleChecking => "simple checking",
            Scheme::Bs => "bit sequences",
            Scheme::Afw => "adaptive with fixed window",
            Scheme::Aaw => "adaptive with adjusting window",
            Scheme::Sig => "signatures",
            Scheme::Gcore => "grouped checking (GCORE-like)",
        }
    }

    /// A short identifier for CSV columns and bench names.
    pub fn short(self) -> &'static str {
        match self {
            Scheme::TsNoCheck => "ts",
            Scheme::At => "at",
            Scheme::SimpleChecking => "sc",
            Scheme::Bs => "bs",
            Scheme::Afw => "afw",
            Scheme::Aaw => "aaw",
            Scheme::Sig => "sig",
            Scheme::Gcore => "gcore",
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What the simple-checking client sends uplink after a long disconnection
/// (see DESIGN.md §3: §2.2 of the paper is ambiguous about the message
/// contents, so both readings are implemented).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CheckingMode {
    /// "the ids of all the cached data items and their corresponding
    /// timestamps" (§2.2 verbatim) — large, grows with cache size.
    FullCache,
    /// Only the cached items referenced by the pending query — small,
    /// closer to the magnitudes plotted in Figures 6/8.
    QueriedItems,
}

/// An access pattern over the database (Table 2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pattern {
    /// Every access uniform over the whole database.
    Uniform,
    /// Hot/cold regions: with probability `hot_prob` the access falls
    /// uniformly in items `[hot_lo, hot_hi]` (inclusive, zero-based);
    /// otherwise uniformly in the remainder of the database.
    HotCold {
        /// First item of the hot region (zero-based, inclusive).
        hot_lo: u32,
        /// Last item of the hot region (zero-based, inclusive).
        hot_hi: u32,
        /// Probability an access is hot.
        hot_prob: f64,
    },
    /// Zipf-distributed item popularity with exponent `theta`
    /// (extension; not in Table 2).
    Zipf {
        /// Skew exponent (`1.0` = classic Zipf).
        theta: f64,
    },
}

impl Pattern {
    /// The paper's HOTCOLD query pattern: items 1–100 hot with
    /// probability 0.8 (§5). Zero-based here: items `0..=99`.
    pub fn paper_hotcold() -> Pattern {
        Pattern::HotCold {
            hot_lo: 0,
            hot_hi: 99,
            hot_prob: 0.8,
        }
    }
}

/// Query and update patterns for a run (one row of Table 2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Workload {
    /// Pattern used by client queries.
    pub query: Pattern,
    /// Pattern used by server update transactions.
    pub update: Pattern,
}

impl Workload {
    /// Table 2, UNIFORM column: queries and updates uniform over the DB.
    pub fn uniform() -> Workload {
        Workload {
            query: Pattern::Uniform,
            update: Pattern::Uniform,
        }
    }

    /// Table 2, HOTCOLD column: hot query region 1–100 with probability
    /// 0.8; updates uniform over the whole DB.
    pub fn hotcold() -> Workload {
        Workload {
            query: Pattern::paper_hotcold(),
            update: Pattern::Uniform,
        }
    }
}

/// Full configuration of one simulation run.
///
/// Construct with [`SimConfig::paper_default`] and adjust via the
/// `with_*` builders; call [`SimConfig::validate`] (the simulator does
/// this on entry) to catch inconsistent combinations early.
///
/// ```
/// use mobicache_model::{Scheme, SimConfig, Workload};
///
/// let cfg = SimConfig::paper_default()          // Table 1
///     .with_scheme(Scheme::Aaw)
///     .with_workload(Workload::hotcold())       // Table 2
///     .with_db_size(20_000);
/// assert!(cfg.validate().is_ok());
/// assert_eq!(cfg.cache_capacity_items(), 400);  // 2 % of N
/// assert_eq!(cfg.window_secs(), 200.0);         // w·L
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Invalidation scheme under test.
    pub scheme: Scheme,
    /// Query/update patterns.
    pub workload: Workload,
    /// Simulated horizon in seconds (Table 1: 100 000).
    pub sim_time_secs: f64,
    /// Number of mobile clients (Table 1: 100; the
    /// struct-of-arrays client core scales to millions).
    pub num_clients: u32,
    /// Database size `N` in items (Table 1: 1 000 – 80 000).
    pub db_size: u32,
    /// Size of one data item in bytes (Table 1: 8192).
    pub item_bytes: u64,
    /// Client buffer pool as a fraction of the database size
    /// (Table 1: 1 % or 2 %).
    pub cache_fraction: f64,
    /// Broadcast period `L` in seconds (Table 1: 20).
    pub broadcast_period_secs: f64,
    /// Downlink bandwidth in bits/second (Table 1: 10 000).
    pub downlink_bps: f64,
    /// Uplink bandwidth in bits/second (Table 1: 1 % – 100 % of downlink).
    pub uplink_bps: f64,
    /// Control message size in bytes, charged for uplink query requests
    /// (Table 1: 512).
    pub control_bytes: u64,
    /// Mean think time between queries, seconds (Table 1: 100).
    pub mean_think_secs: f64,
    /// Mean number of items referenced by a query (see module docs;
    /// default 1, Table 1 lists 10).
    pub items_per_query_mean: f64,
    /// Mean number of items updated by one transaction (Table 1: 5).
    pub items_per_update_mean: f64,
    /// Mean update transaction inter-arrival time, seconds (Table 1: 100).
    pub mean_update_interarrival_secs: f64,
    /// Mean disconnection duration, seconds (Table 1: 200 – 8 000).
    pub mean_disconnect_secs: f64,
    /// Probability that the gap after a query is a disconnection rather
    /// than a think period (Table 1: 0.1 – 0.8).
    pub p_disconnect: f64,
    /// Invalidation broadcast window `w` in broadcast intervals
    /// (Table 1: 10).
    pub window_intervals: u32,
    /// Timestamp width `b_T` in bits used in report-size formulas.
    pub timestamp_bits: f64,
    /// Fixed per-message link/framing overhead in bits.
    pub header_bits: f64,
    /// Contents of the simple-checking uplink message.
    pub checking_mode: CheckingMode,
    /// Downlink channel organisation (§6's future-work extension; the
    /// paper itself uses [`DownlinkTopology::Shared`]).
    pub downlink_topology: DownlinkTopology,
    /// Probability that an individual connected client fails to receive a
    /// given broadcast report (fading). 0 in the paper's model; the
    /// robustness extension sweeps it.
    pub p_report_loss: f64,
    /// Client energy model: cost of transmitting one bit, in abstract
    /// energy units. §1 of the paper: *"uplink transmission requires much
    /// higher power from clients than downlink reception does"* — the
    /// default makes transmission 100× reception.
    pub energy_tx_per_bit: f64,
    /// Client energy cost of receiving one bit.
    pub energy_rx_per_bit: f64,
    /// Number of item groups for the GCORE-inspired grouped-checking
    /// scheme (items are partitioned round-robin into this many groups).
    pub gcore_groups: u32,
    /// Retention window `W` (in broadcast intervals) for grouped
    /// checking: reconnections older than `W·L` cannot be served and the
    /// client drops its cache — GCORE's documented limitation.
    pub gcore_retention_intervals: u32,
    /// Broadcast snooping (extension): the downlink is a broadcast
    /// medium, so every connected client overhears data items addressed
    /// to others; with snooping on, clients opportunistically cache them.
    /// Off in the paper's model.
    pub snoop_broadcasts: bool,
    /// Worker threads for the embarrassingly-parallel tick phases
    /// (report fan-out, data snooping, the wake-up burst and the oracle
    /// scan). `1` (the default) runs fully serial; `0` means auto (one
    /// per available core). The value sets how many chunks the clients
    /// are split into; the engine's own pool never spawns more lanes
    /// than the host has cores. Any value yields **bit-identical**
    /// results: clients are sharded into contiguous index ranges and
    /// shard outputs are merged in client-index order before the
    /// scheduler or any RNG stream is touched.
    pub threads: u32,
    /// Fault-injection plan: bursty downlink loss (generalising
    /// [`SimConfig::p_report_loss`]), uplink loss with client
    /// retry/backoff, and scheduled server crashes. The default
    /// ([`FaultPlan::none`]) injects nothing and reproduces pre-fault
    /// results bit-for-bit.
    pub faults: FaultPlan,
    /// Cell topology and client mobility. The default
    /// ([`CellTopology::single`]) is one base station with no mobility
    /// and reproduces pre-mobility results bit-for-bit.
    pub cells: CellTopology,
    /// Master RNG seed; every stochastic process derives its own stream.
    pub seed: u64,
}

/// Cell topology and client-mobility process.
///
/// The paper simulates a single base station; real deployments trigger
/// the same long-disconnection recovery paths (AFW/AAW `Tlb` uplinks,
/// BS precise invalidation) by *roaming*: a client hops to a new cell
/// whose server never saw its `Tlb`. `CellTopology` models `cells`
/// servers, each broadcasting its own invalidation report on its own
/// downlink, with clients assigned round-robin and migrating on a
/// deterministic per-client mobility process (exponential cell
/// residency, dedicated `StreamId::Mobility` RNG streams).
///
/// A handoff departs the old cell (the client goes offline for
/// `handoff_secs`, exactly like a doze) and arrives at the destination
/// cell, where the carried `Tlb` is meaningless — the destination
/// server treats the roamer as a long-disconnected client.
///
/// [`CellTopology::single`] (the default) is **fully inert**: one cell,
/// zero mobility events, zero RNG draws, bit-identical to the legacy
/// single-BS path regardless of the other knob values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellTopology {
    /// Number of cells (base stations). `1` disables mobility entirely.
    pub cells: u32,
    /// Mean cell residency time, seconds (exponentially distributed
    /// interval between successive handoff attempts per client).
    pub mean_residency_secs: f64,
    /// Offline blackout per handoff, seconds: the radio gap between
    /// departing the old cell and arriving at the new one.
    pub handoff_secs: f64,
    /// Probability a handoff attempt actually roams to a *different*
    /// cell (otherwise the client re-associates with its current cell —
    /// an offline gap with no cell change). `1.0` always roams.
    pub p_roam: f64,
}

impl CellTopology {
    /// The legacy single-base-station topology (no mobility).
    pub fn single() -> CellTopology {
        CellTopology {
            cells: 1,
            mean_residency_secs: 2_000.0,
            handoff_secs: 10.0,
            p_roam: 1.0,
        }
    }

    /// `true` when the mobility process is active (more than one cell).
    pub fn is_multi(&self) -> bool {
        self.cells > 1
    }

    /// Checks parameter consistency (called from
    /// [`SimConfig::validate`]).
    ///
    /// # Errors
    /// Returns the first violated constraint as a [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cells == 0 {
            return Err(ConfigError::ZeroCount { field: "cells" });
        }
        if !self.is_multi() {
            // Single-cell is inert: the remaining knobs are never read.
            return Ok(());
        }
        if !(self.mean_residency_secs.is_finite() && self.mean_residency_secs > 0.0) {
            return Err(ConfigError::NotPositive {
                field: "mean_residency_secs",
                value: self.mean_residency_secs,
            });
        }
        if !(self.handoff_secs.is_finite() && self.handoff_secs >= 0.0) {
            return Err(ConfigError::Negative {
                field: "handoff_secs",
                value: self.handoff_secs,
            });
        }
        if !(0.0..=1.0).contains(&self.p_roam) {
            return Err(ConfigError::OutOfRange {
                field: "p_roam",
                value: self.p_roam,
                bounds: "[0, 1]",
            });
        }
        Ok(())
    }
}

/// Downlink channel organisation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DownlinkTopology {
    /// One shared channel for reports, validity reports and data (the
    /// paper's model; reports preempt).
    Shared,
    /// §6's future work: a dedicated broadcast channel carrying the
    /// invalidation reports, with the remaining bandwidth serving
    /// point-to-point traffic (data items and validity reports).
    /// `broadcast_share` ∈ (0, 1) is the fraction of the total downlink
    /// bandwidth assigned to the broadcast channel.
    Dedicated {
        /// Fraction of `downlink_bps` reserved for the broadcast channel.
        broadcast_share: f64,
    },
}

impl SimConfig {
    /// Table 1 defaults with the UNIFORM workload and the AAW scheme.
    pub fn paper_default() -> SimConfig {
        SimConfig {
            scheme: Scheme::Aaw,
            workload: Workload::uniform(),
            sim_time_secs: 100_000.0,
            num_clients: 100,
            db_size: 10_000,
            item_bytes: 8192,
            cache_fraction: 0.02,
            broadcast_period_secs: 20.0,
            downlink_bps: 10_000.0,
            uplink_bps: 10_000.0,
            control_bytes: 512,
            mean_think_secs: 100.0,
            items_per_query_mean: 1.0,
            items_per_update_mean: 5.0,
            mean_update_interarrival_secs: 100.0,
            mean_disconnect_secs: 4_000.0,
            p_disconnect: 0.1,
            window_intervals: 10,
            timestamp_bits: 48.0,
            header_bits: 64.0,
            checking_mode: CheckingMode::FullCache,
            downlink_topology: DownlinkTopology::Shared,
            p_report_loss: 0.0,
            energy_tx_per_bit: 100.0,
            energy_rx_per_bit: 1.0,
            gcore_groups: 64,
            gcore_retention_intervals: 100,
            snoop_broadcasts: false,
            threads: 1,
            faults: FaultPlan::none(),
            cells: CellTopology::single(),
            seed: 0x1997_AD07,
        }
    }

    /// Builder-style scheme override.
    pub fn with_scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Builder-style workload override.
    pub fn with_workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style simulated-horizon override (seconds).
    pub fn with_sim_time(mut self, sim_time_secs: f64) -> Self {
        self.sim_time_secs = sim_time_secs;
        self
    }

    /// Builder-style database-size override (items).
    pub fn with_db_size(mut self, db_size: u32) -> Self {
        self.db_size = db_size;
        self
    }

    /// Builder-style client-population override.
    pub fn with_num_clients(mut self, num_clients: u32) -> Self {
        self.num_clients = num_clients;
        self
    }

    /// Builder-style worker-thread override (`0` = one per core). The
    /// result is bit-identical for every value; this knob only trades
    /// wall time.
    pub fn with_threads(mut self, threads: u32) -> Self {
        self.threads = threads;
        self
    }

    /// Builder-style fault-plan override.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Builder-style cell-topology override.
    pub fn with_cells(mut self, cells: CellTopology) -> Self {
        self.cells = cells;
        self
    }

    /// Client cache capacity in items (at least 1).
    pub fn cache_capacity_items(&self) -> u32 {
        (((self.db_size as f64) * self.cache_fraction).round() as u32).max(1)
    }

    /// Window length `w · L` in seconds.
    pub fn window_secs(&self) -> f64 {
        self.window_intervals as f64 * self.broadcast_period_secs
    }

    /// One data item's transmission size in bits (payload only).
    pub fn item_bits(&self) -> Bits {
        (self.item_bytes * 8) as f64
    }

    /// Checks parameter consistency.
    ///
    /// # Errors
    /// Returns the first violated constraint as a [`ConfigError`]; its
    /// `Display` names the field, the rejected value, and the bound.
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn pos(field: &'static str, value: f64) -> Result<(), ConfigError> {
            if value.is_finite() && value > 0.0 {
                Ok(())
            } else {
                Err(ConfigError::NotPositive { field, value })
            }
        }
        fn count(field: &'static str, value: u64) -> Result<(), ConfigError> {
            if value > 0 {
                Ok(())
            } else {
                Err(ConfigError::ZeroCount { field })
            }
        }
        pos("sim_time_secs", self.sim_time_secs)?;
        pos("broadcast_period_secs", self.broadcast_period_secs)?;
        pos("downlink_bps", self.downlink_bps)?;
        pos("uplink_bps", self.uplink_bps)?;
        pos("mean_think_secs", self.mean_think_secs)?;
        pos("items_per_query_mean", self.items_per_query_mean)?;
        pos("items_per_update_mean", self.items_per_update_mean)?;
        pos(
            "mean_update_interarrival_secs",
            self.mean_update_interarrival_secs,
        )?;
        pos("mean_disconnect_secs", self.mean_disconnect_secs)?;
        pos("timestamp_bits", self.timestamp_bits)?;
        if self.header_bits < 0.0 || !self.header_bits.is_finite() {
            return Err(ConfigError::Negative {
                field: "header_bits",
                value: self.header_bits,
            });
        }
        count("num_clients", u64::from(self.num_clients))?;
        count("db_size", self.db_size as u64)?;
        count("item_bytes", self.item_bytes)?;
        if !(0.0..=1.0).contains(&self.p_disconnect) {
            return Err(ConfigError::OutOfRange {
                field: "p_disconnect",
                value: self.p_disconnect,
                bounds: "[0, 1]",
            });
        }
        if !(self.cache_fraction > 0.0 && self.cache_fraction <= 1.0) {
            return Err(ConfigError::OutOfRange {
                field: "cache_fraction",
                value: self.cache_fraction,
                bounds: "(0, 1]",
            });
        }
        count("window_intervals", self.window_intervals as u64)?;
        if !(0.0..=1.0).contains(&self.p_report_loss) {
            return Err(ConfigError::OutOfRange {
                field: "p_report_loss",
                value: self.p_report_loss,
                bounds: "[0, 1]",
            });
        }
        self.faults.validate()?;
        self.cells.validate()?;
        if let DownlinkTopology::Dedicated { broadcast_share } = self.downlink_topology {
            if !(broadcast_share > 0.0 && broadcast_share < 1.0) {
                return Err(ConfigError::OutOfRange {
                    field: "broadcast_share",
                    value: broadcast_share,
                    bounds: "(0, 1)",
                });
            }
        }
        if self.energy_tx_per_bit < 0.0 {
            return Err(ConfigError::Negative {
                field: "energy_tx_per_bit",
                value: self.energy_tx_per_bit,
            });
        }
        if self.energy_rx_per_bit < 0.0 {
            return Err(ConfigError::Negative {
                field: "energy_rx_per_bit",
                value: self.energy_rx_per_bit,
            });
        }
        count("gcore_groups", self.gcore_groups as u64)?;
        count(
            "gcore_retention_intervals",
            self.gcore_retention_intervals as u64,
        )?;
        if let Pattern::HotCold {
            hot_lo,
            hot_hi,
            hot_prob,
        } = self.workload.query
        {
            if hot_lo > hot_hi {
                return Err(ConfigError::EmptyHotRegion { hot_lo, hot_hi });
            }
            if hot_hi >= self.db_size {
                return Err(ConfigError::HotRegionOutOfBounds {
                    hot_hi,
                    db_size: self.db_size,
                });
            }
            if !(0.0..=1.0).contains(&hot_prob) {
                return Err(ConfigError::OutOfRange {
                    field: "hot_prob",
                    value: hot_prob,
                    bounds: "[0, 1]",
                });
            }
        }
        if let Pattern::Zipf { theta } = self.workload.query {
            pos("zipf theta", theta)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        let cfg = SimConfig::paper_default();
        cfg.validate().expect("Table 1 defaults must validate");
        assert_eq!(cfg.num_clients, 100);
        assert_eq!(cfg.db_size, 10_000);
        assert_eq!(cfg.cache_capacity_items(), 200);
        assert_eq!(cfg.window_secs(), 200.0);
        assert_eq!(cfg.item_bits(), 65_536.0);
    }

    #[test]
    fn builder_overrides() {
        let cfg = SimConfig::paper_default()
            .with_scheme(Scheme::Bs)
            .with_workload(Workload::hotcold())
            .with_seed(7)
            .with_sim_time(5_000.0)
            .with_db_size(2_000)
            .with_num_clients(25)
            .with_threads(4);
        assert_eq!(cfg.scheme, Scheme::Bs);
        assert_eq!(cfg.threads, 4);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.workload.query, Pattern::paper_hotcold());
        assert_eq!(cfg.sim_time_secs, 5_000.0);
        assert_eq!(cfg.db_size, 2_000);
        assert_eq!(cfg.num_clients, 25);
    }

    #[test]
    fn validation_errors_are_typed() {
        let mut c = SimConfig::paper_default();
        c.p_disconnect = 1.5;
        assert_eq!(
            c.validate(),
            Err(ConfigError::OutOfRange {
                field: "p_disconnect",
                value: 1.5,
                bounds: "[0, 1]",
            })
        );

        let mut c = SimConfig::paper_default();
        c.db_size = 0;
        assert_eq!(
            c.validate(),
            Err(ConfigError::ZeroCount { field: "db_size" })
        );

        let c = SimConfig::paper_default()
            .with_db_size(50)
            .with_workload(Workload::hotcold());
        assert_eq!(
            c.validate(),
            Err(ConfigError::HotRegionOutOfBounds {
                hot_hi: 99,
                db_size: 50
            })
        );
    }

    #[test]
    fn hotcold_pattern_matches_paper() {
        match Pattern::paper_hotcold() {
            Pattern::HotCold {
                hot_lo,
                hot_hi,
                hot_prob,
            } => {
                assert_eq!((hot_lo, hot_hi), (0, 99));
                assert_eq!(hot_prob, 0.8);
            }
            other => panic!("unexpected pattern {other:?}"),
        }
    }

    #[test]
    fn validation_catches_bad_configs() {
        let base = SimConfig::paper_default;
        let mut c = base();
        c.p_disconnect = 1.5;
        assert!(c.validate().is_err());

        let mut c = base();
        c.cache_fraction = 0.0;
        assert!(c.validate().is_err());

        let mut c = base();
        c.db_size = 0;
        assert!(c.validate().is_err());

        let mut c = base();
        c.downlink_bps = -1.0;
        assert!(c.validate().is_err());

        let mut c = base();
        c.workload.query = Pattern::HotCold {
            hot_lo: 50,
            hot_hi: 10,
            hot_prob: 0.8,
        };
        assert!(c.validate().is_err());

        let mut c = base();
        c.p_report_loss = 1.5;
        assert!(c.validate().is_err());

        let mut c = base();
        c.faults.p_uplink_loss = -0.1;
        assert!(c.validate().is_err());

        let mut c = base();
        c.faults.downlink.mean_burst_intervals = 0.5;
        assert!(c.validate().is_err());

        let mut c = base();
        c.faults.recovery_secs = f64::NAN;
        assert!(c.validate().is_err());

        let mut c = base();
        c.downlink_topology = DownlinkTopology::Dedicated {
            broadcast_share: 1.0,
        };
        assert!(c.validate().is_err());

        let mut c = base();
        c.downlink_topology = DownlinkTopology::Dedicated {
            broadcast_share: 0.2,
        };
        assert!(c.validate().is_ok());

        let mut c = base();
        c.gcore_groups = 0;
        assert!(c.validate().is_err());

        let mut c = base();
        c.db_size = 50;
        c.workload.query = Pattern::paper_hotcold();
        assert!(c.validate().is_err(), "hot region must fit in the DB");
    }

    #[test]
    fn cell_topology_validation() {
        let single = CellTopology::single();
        assert!(!single.is_multi());
        assert!(single.validate().is_ok());

        // Single-cell topologies are inert: bogus mobility knobs are
        // never read, so they must not fail validation.
        let inert = CellTopology {
            cells: 1,
            mean_residency_secs: -5.0,
            handoff_secs: f64::NAN,
            p_roam: 9.0,
        };
        assert!(inert.validate().is_ok());

        let mut c = CellTopology::single();
        c.cells = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroCount { field: "cells" }));

        let mut c = CellTopology::single();
        c.cells = 4;
        assert!(c.is_multi());
        assert!(c.validate().is_ok());

        c.mean_residency_secs = 0.0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::NotPositive {
                field: "mean_residency_secs",
                ..
            })
        ));

        let mut c = CellTopology::single();
        c.cells = 2;
        c.handoff_secs = -1.0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::Negative {
                field: "handoff_secs",
                ..
            })
        ));

        let mut c = CellTopology::single();
        c.cells = 2;
        c.handoff_secs = 0.0; // zero blackout is allowed
        c.p_roam = 0.0; // never roaming is allowed
        assert!(c.validate().is_ok());
        c.p_roam = 1.5;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::OutOfRange {
                field: "p_roam",
                ..
            })
        ));

        // SimConfig::validate reaches through to the topology.
        let mut cfg = SimConfig::paper_default();
        assert_eq!(cfg.cells, CellTopology::single());
        cfg.cells.cells = 3;
        cfg.cells.mean_residency_secs = -1.0;
        assert!(cfg.validate().is_err());
        cfg = SimConfig::paper_default().with_cells(CellTopology {
            cells: 3,
            ..CellTopology::single()
        });
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn cache_capacity_never_zero() {
        let mut c = SimConfig::paper_default();
        c.db_size = 10;
        c.cache_fraction = 0.01;
        assert_eq!(c.cache_capacity_items(), 1);
    }

    #[test]
    fn scheme_labels_match_figures() {
        assert_eq!(Scheme::Aaw.label(), "adaptive with adjusting window");
        assert_eq!(Scheme::Afw.label(), "adaptive with fixed window");
        assert_eq!(Scheme::SimpleChecking.label(), "simple checking");
        assert_eq!(Scheme::Bs.label(), "bit sequences");
        assert_eq!(Scheme::PAPER_SET.len(), 4);
        // short names unique
        let mut shorts: Vec<_> = Scheme::ALL.iter().map(|s| s.short()).collect();
        shorts.sort_unstable();
        shorts.dedup();
        assert_eq!(shorts.len(), Scheme::ALL.len());
    }
}
