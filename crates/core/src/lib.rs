//! # mobicache — adaptive cache invalidation in mobile environments
//!
//! A full reproduction of *Qinglong Hu and Dik Lun Lee, "Adaptive Cache
//! Invalidation Methods in Mobile Environments", HPDC 1997*: a
//! discrete-event simulation of mobile clients caching data items from a
//! stateless broadcast server, under seven invalidation schemes —
//! broadcasting timestamps (`TS`), amnesic terminals (`AT`), signatures
//! (`SIG`), `TS` with validity checking ("simple checking"),
//! bit-sequences (`BS`), and the paper's two adaptive contributions
//! **AFW** (adaptive with fixed window) and **AAW** (adaptive with
//! adjusting window).
//!
//! ## Quickstart
//!
//! ```
//! use mobicache::{run, RunOptions};
//! use mobicache_model::{Scheme, SimConfig, Workload};
//!
//! let cfg = SimConfig::paper_default()
//!     .with_scheme(Scheme::Aaw)
//!     .with_workload(Workload::hotcold())
//!     .with_sim_time(5_000.0); // short demo horizon
//! let result = run(&cfg, RunOptions::default()).expect("valid config");
//! println!(
//!     "answered {} queries, {:.1} validity bits/query",
//!     result.metrics.queries_answered,
//!     result.metrics.uplink_validity_bits_per_query
//! );
//! ```
//!
//! The crate graph mirrors the system inventory in `DESIGN.md`: the
//! simulation kernel lives in `mobicache-sim`, the report algorithms in
//! `mobicache-reports`, the channel model in `mobicache-net`, server and
//! client state machines in their own crates, and this crate wires them
//! into a runnable [`Simulation`] with [`Metrics`] collection and an
//! optional ground-truth consistency [`oracle`](RunOptions::check_consistency).

mod broadcast;
mod engine;
mod faults;
mod metrics;
mod mobility;
pub mod oracle;
pub mod probe;

pub use engine::{run, RunOptions, RunResult, Simulation};
pub use metrics::{FaultMetrics, Metrics, MobilityMetrics};
pub use probe::{
    CacheEventKind, IntervalSampler, IntervalSnapshot, NullProbe, Probe, ProbeEvent, ReportKind,
    RunTotals,
};

// The struct-of-arrays client population and its mutable view are the
// public way to reach per-client state (e.g. from probes): `ClientPop`'s
// per-client getters read one client, and `counters` the population's
// summed counters.
pub use mobicache_client::{ClientMut, ClientPop};
// Re-export the configuration vocabulary so downstream users need only
// this crate plus `mobicache-model`.
pub use mobicache_model::{
    CellTopology, ChannelFaults, CheckingMode, ConfigError, DownlinkTopology, FaultPlan, Pattern,
    RetryPolicy, Scheme, SimConfig, Workload,
};
// Adaptive decisions surface in probe events; re-export so observers
// can match on them without depending on `mobicache-server`.
pub use mobicache_server::AdaptiveDecision;
// Probe callbacks are timestamped in simulated time; re-export so
// implementors need not depend on `mobicache-sim`.
pub use mobicache_sim::SimTime;
