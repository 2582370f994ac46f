//! The four named workloads, their seeds and their pinned output digests.
//!
//! Every workload is a fixed-size batch of simulations built from the
//! seed alone, so the same seed always yields the same inputs and — the
//! simulator being deterministic at any thread count — the same
//! `Metrics`.

use mobicache::Metrics;
use mobicache_model::{
    CellTopology, ChannelFaults, FaultPlan, Scheme, SimConfig, Workload as Patterns,
};

/// The seed every workload runs at unless told otherwise (the paper
/// configuration's own seed). Its outputs are pinned in
/// [`Workload::pinned_digests`].
pub const DEFAULT_SEED: u64 = 0x1997_AD07;

/// A seed kept out of tuning: a claimed gain must also hold here.
pub const HELD_OUT_SEED: u64 = 0x5EED_0011;

/// One named set of simulations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// All eight schemes × {UNIFORM, HOTCOLD} at the paper's Table 1.
    Paper,
    /// A large, write-heavy database: report building dominates.
    Bigdb,
    /// A large client population on a small database: the fan-out,
    /// the client columns, set-up and memory dominate.
    Population,
    /// Four cells with roaming, dozing, bursty loss and server crashes.
    MobileFaults,
}

/// One simulation of a workload, with a stable label for output lines.
#[derive(Clone, Debug)]
pub struct Sim {
    /// `scheme` or `scheme/pattern`, unique within the workload.
    pub label: String,
    /// The full configuration.
    pub cfg: SimConfig,
}

impl Workload {
    /// Every workload, in the order the benchmark runs them.
    pub const ALL: [Workload; 4] = [
        Workload::Paper,
        Workload::Bigdb,
        Workload::Population,
        Workload::MobileFaults,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Bigdb => "bigdb",
            Workload::Population => "population",
            Workload::MobileFaults => "mobile-faults",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: which layers it loads and which it leaves
    /// idle.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Paper => {
                "the figures' configuration: many cheap events, tiny reports, 100 clients; \
                 scheduler, clients, channels and caches dominate"
            }
            Workload::Bigdb => {
                "write-heavy 40k-item database with 800-item caches; server report \
                 builds and BS indexing dominate"
            }
            Workload::Population => {
                "20k clients on a 1k-item database; broadcast fan-out, client columns, \
                 set-up and memory dominate, and the worker pool has work to split"
            }
            Workload::MobileFaults => {
                "4 roaming cells, dozing clients, bursty loss and crashes; the fault, \
                 retry and handoff paths the others leave off"
            }
        }
    }

    /// The workload's simulations at `seed`, each with `threads` engine
    /// worker threads (results do not depend on `threads`).
    pub fn sims(self, seed: u64, threads: u32) -> Vec<Sim> {
        let base = |scheme: Scheme| {
            SimConfig::paper_default()
                .with_scheme(scheme)
                .with_seed(seed)
                .with_threads(threads)
        };
        match self {
            Workload::Paper => {
                let mut sims = Vec::new();
                for scheme in Scheme::ALL {
                    for (pattern, patterns) in [
                        ("uniform", Patterns::uniform()),
                        ("hotcold", Patterns::hotcold()),
                    ] {
                        sims.push(Sim {
                            label: format!("{}/{pattern}", scheme.short()),
                            cfg: base(scheme).with_workload(patterns),
                        });
                    }
                }
                sims
            }
            Workload::Bigdb => [Scheme::Bs, Scheme::Aaw, Scheme::SimpleChecking]
                .into_iter()
                .map(|scheme| {
                    let mut cfg = base(scheme).with_sim_time(50_000.0).with_db_size(40_000);
                    cfg.num_clients = 200;
                    cfg.mean_update_interarrival_secs = 5.0;
                    labelled(cfg)
                })
                .collect(),
            Workload::Population => vec![labelled(
                base(Scheme::Aaw)
                    .with_sim_time(6_000.0)
                    .with_db_size(1_000)
                    .with_num_clients(20_000),
            )],
            Workload::MobileFaults => [Scheme::Aaw, Scheme::Afw, Scheme::Bs]
                .into_iter()
                .map(|scheme| {
                    let horizon = 20_000.0;
                    let mut cfg = base(scheme)
                        .with_sim_time(horizon)
                        .with_num_clients(2_000)
                        .with_cells(CellTopology {
                            cells: 4,
                            mean_residency_secs: 250.0,
                            handoff_secs: 12.0,
                            p_roam: 0.8,
                        })
                        .with_faults(FaultPlan {
                            downlink: ChannelFaults {
                                p_enter_burst: 0.05,
                                mean_burst_intervals: 4.0,
                                p_loss_good: 0.01,
                                p_loss_bad: 0.9,
                            },
                            p_uplink_loss: 0.05,
                            crashes: vec![0.3 * horizon, 0.7 * horizon],
                            recovery_secs: 90.0,
                            ..FaultPlan::none()
                        });
                    cfg.mean_update_interarrival_secs = 20.0;
                    cfg.p_disconnect = 0.2;
                    cfg.mean_disconnect_secs = 1_000.0;
                    labelled(cfg)
                })
                .collect(),
        }
    }

    /// The digest of each simulation's outputs at [`DEFAULT_SEED`], in
    /// [`Workload::sims`] order. A change that moves one changed what the
    /// simulator computes, not just how fast.
    pub fn pinned_digests(self) -> &'static [u64] {
        match self {
            Workload::Paper => &[
                0x4e7b_53f1_250e_0aec, // ts/uniform
                0x5170_9b8d_6f5e_a2c2, // ts/hotcold
                0x7a9f_942c_a690_443e, // at/uniform
                0x1ad2_ace3_736e_e132, // at/hotcold
                0xfc7e_e0a0_32de_f3e1, // sc/uniform
                0x3647_f915_2665_66d6, // sc/hotcold
                0x96bd_c3ae_c62d_cfca, // bs/uniform
                0x6166_8eb9_6b36_af0e, // bs/hotcold
                0x093b_8f83_d36d_8008, // afw/uniform
                0x14ec_52b8_0b7d_54e9, // afw/hotcold
                0xfe4b_b51a_ea2e_9b5c, // aaw/uniform
                0x2db9_8b12_1e6b_ebfa, // aaw/hotcold
                0xaa02_0a6d_6b55_ed84, // sig/uniform
                0xb80b_ba53_2a30_266d, // sig/hotcold
                0x1433_219f_2fdc_6224, // gcore/uniform
                0x42d0_52d9_87c9_e516, // gcore/hotcold
            ],
            Workload::Bigdb => &[
                0x6d0a_87fb_6b68_df48, // bs
                0xe79c_81aa_0f96_cedb, // aaw
                0xf209_3364_23ea_ff8f, // sc
            ],
            Workload::Population => &[0xc21c_8323_0ab4_37b5],
            Workload::MobileFaults => &[
                0x12d6_8014_4bfb_27b1, // aaw
                0xdd16_00f0_2963_8538, // afw
                0x1d4c_fc02_d2de_d73b, // bs
            ],
        }
    }
}

fn labelled(cfg: SimConfig) -> Sim {
    Sim {
        label: cfg.scheme.short().to_string(),
        cfg,
    }
}

/// FNV-1a, 64-bit, as the repository's golden-digest tests use it.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// The digest of one run: FNV-1a over its `{metrics:?}` rendering.
pub fn metrics_digest(metrics: &Metrics) -> u64 {
    fnv1a(format!("{metrics:?}").as_bytes())
}
