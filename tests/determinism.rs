//! Golden-digest determinism pin: every scheme's full `Metrics` must be
//! bit-identical run-to-run *and* across refactors of the report
//! pipeline.
//!
//! `Metrics` is a plain scalar struct with a derived `Debug`
//! implementation, so the `Debug` rendering is a faithful, stable
//! serialization of every counter and statistic a run produces. We hash
//! that rendering with FNV-1a and compare against digests captured at
//! the commit that introduced this test. Any change to simulation
//! behaviour — event ordering, RNG consumption, report contents, cache
//! decisions — shows up here as a digest mismatch.
//!
//! If a digest changes *intentionally* (a new metric field, a modelling
//! fix), rerun with `--nocapture`, copy the printed table, and justify
//! the change in the commit message. Perf-only refactors must NOT move
//! these digests: that is the point of the test.

use mobicache::{run, RunOptions};
use mobicache_model::{
    CellTopology, ChannelFaults, DownlinkTopology, FaultPlan, Scheme, SimConfig, Workload,
};
use proptest::prelude::*;

/// FNV-1a, 64-bit: tiny, dependency-free and stable across platforms.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

fn short_cfg(scheme: Scheme) -> SimConfig {
    let mut cfg = SimConfig::paper_default().with_scheme(scheme);
    cfg.sim_time_secs = 4_000.0;
    cfg.db_size = 1_000;
    cfg.num_clients = 20;
    cfg
}

fn digest_for(scheme: Scheme) -> u64 {
    let result = run(&short_cfg(scheme), RunOptions::default()).expect("valid config");
    fnv1a(format!("{:?}", result.metrics).as_bytes())
}

fn digest_with_threads(scheme: Scheme, threads: u32) -> u64 {
    let cfg = short_cfg(scheme).with_threads(threads);
    let result = run(&cfg, RunOptions::default()).expect("valid config");
    fnv1a(format!("{:?}", result.metrics).as_bytes())
}

/// Digests of `{metrics:?}` per scheme at the pinned config
/// (seed = paper default, 4 000 s horizon, N = 1 000, 20 clients).
const GOLDEN: &[(Scheme, u64)] = &[
    (Scheme::TsNoCheck, 0xf018_ec90_613a_4b2c),
    (Scheme::SimpleChecking, 0x9069_7022_7c90_e968),
    (Scheme::Gcore, 0xa20f_2dd2_9208_1c34),
    (Scheme::At, 0xdf87_7c3f_e68d_664a),
    (Scheme::Bs, 0xeb8c_88d5_afb8_3795),
    (Scheme::Sig, 0xc2e5_3299_c959_f0cb),
    (Scheme::Afw, 0xaee1_0c7b_cbc7_9e9f),
    (Scheme::Aaw, 0x2043_4e6a_3754_e199),
];

#[test]
fn golden_digest_per_scheme() {
    let mut mismatches = Vec::new();
    for &(scheme, expected) in GOLDEN {
        let got = digest_for(scheme);
        println!("    (Scheme::{scheme:?}, {got:#018x}),");
        if got != expected {
            mismatches.push((scheme, expected, got));
        }
    }
    assert!(
        mismatches.is_empty(),
        "metrics digests moved (behaviour changed): {mismatches:#x?}"
    );
}

#[test]
fn golden_table_covers_every_scheme() {
    for scheme in Scheme::ALL {
        assert!(
            GOLDEN.iter().any(|&(s, _)| s == scheme),
            "{scheme:?} missing from GOLDEN"
        );
    }
    assert_eq!(GOLDEN.len(), Scheme::ALL.len());
}

/// The digest itself must be reproducible: two runs, one digest.
#[test]
fn digest_is_stable_across_runs() {
    assert_eq!(digest_for(Scheme::Aaw), digest_for(Scheme::Aaw));
}

/// `SimConfig::threads` is accepted and ignored: every scheme hits its
/// GOLDEN digest at every value the knob used to take — serial, counts
/// that do not divide the 20-client population (3, 7), auto (0), and
/// more threads than clients (33).
#[test]
fn golden_digest_across_thread_matrix() {
    let mut mismatches = Vec::new();
    for &(scheme, expected) in GOLDEN {
        for threads in [1u32, 2, 3, 7, 0, 33] {
            let got = digest_with_threads(scheme, threads);
            if got != expected {
                mismatches.push((scheme, threads, expected, got));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "digests moved with `threads` (scheme, threads, expected, got): {mismatches:#x?}"
    );
}

/// Bursty downlink loss, uplink loss and two crash windows: the fault
/// plan every pinned faulty run below uses.
fn high_fault_plan() -> FaultPlan {
    FaultPlan {
        downlink: ChannelFaults {
            p_enter_burst: 0.15,
            mean_burst_intervals: 4.0,
            p_loss_good: 0.05,
            p_loss_bad: 0.9,
        },
        p_uplink_loss: 0.3,
        crashes: vec![800.0, 2_200.0],
        recovery_secs: 90.0,
        ..FaultPlan::none()
    }
}

/// One cell under [`high_fault_plan`], with disconnections frequent
/// enough to exercise the retry and reconnection paths.
fn high_fault_cfg(scheme: Scheme) -> SimConfig {
    let mut cfg = short_cfg(scheme);
    cfg.faults = high_fault_plan();
    cfg.p_disconnect = 0.3;
    cfg
}

/// The single-cell arms of the broadcast, loss and downlink paths, by
/// name: every scheme under [`high_fault_plan`], the bare legacy
/// `p_report_loss` knob (a loss chain without a fault plan, so no
/// retries), snooping (the second fan-out) and the dedicated broadcast
/// channel (two downlinks per cell).
fn fault_path_cases() -> Vec<(String, SimConfig)> {
    let mut cases: Vec<(String, SimConfig)> = Scheme::ALL
        .iter()
        .map(|&scheme| (format!("{scheme:?} high-fault"), high_fault_cfg(scheme)))
        .collect();
    let mut loss = short_cfg(Scheme::Aaw);
    loss.p_report_loss = 0.1;
    cases.push(("Aaw report-loss".into(), loss));
    let mut snoop = short_cfg(Scheme::Aaw).with_workload(Workload::hotcold());
    snoop.snoop_broadcasts = true;
    cases.push(("Aaw hotcold snoop".into(), snoop));
    let mut dedicated = short_cfg(Scheme::Bs);
    dedicated.downlink_topology = DownlinkTopology::Dedicated {
        broadcast_share: 0.3,
    };
    cases.push(("Bs dedicated".into(), dedicated));
    cases
}

/// Digests of `{metrics:?}` for [`fault_path_cases`], in case order.
/// Captured at the commit before the engine's fault, mobility and
/// broadcast state moved into their own sub-states, so they pin that
/// the move changed no behaviour.
const FAULT_PATH_GOLDEN: &[(&str, u64)] = &[
    ("TsNoCheck high-fault", 0x2bc8_79b6_f113_e451),
    ("At high-fault", 0xfb74_ab6a_249e_cca9),
    ("SimpleChecking high-fault", 0x248e_7013_ccdd_28fd),
    ("Bs high-fault", 0x3226_1c71_4bb0_afc7),
    ("Afw high-fault", 0xade4_8591_5453_5218),
    ("Aaw high-fault", 0xc126_c753_6b15_fa5b),
    ("Sig high-fault", 0x07f0_b6c0_9040_24f0),
    ("Gcore high-fault", 0xef83_b07f_a075_00ac),
    ("Aaw report-loss", 0x7f7c_c4af_46db_fc55),
    ("Aaw hotcold snoop", 0x946c_46aa_7448_2a1e),
    ("Bs dedicated", 0xe163_8f51_288c_e140),
];

/// Each single-cell fault, loss, snoop and dedicated-channel arm hits
/// its pinned digest. `fault` in the name puts this test in the fault
/// leg of `scripts/ci.sh`, which runs it in release.
#[test]
fn fault_path_golden_digests() {
    let cases = fault_path_cases();
    assert_eq!(cases.len(), FAULT_PATH_GOLDEN.len());
    let mut mismatches = Vec::new();
    for ((name, cfg), &(pinned_name, expected)) in cases.iter().zip(FAULT_PATH_GOLDEN) {
        assert_eq!(name, pinned_name, "case order moved");
        let result = run(cfg, RunOptions::default()).expect("valid config");
        let got = fnv1a(format!("{:?}", result.metrics).as_bytes());
        println!("    (\"{name}\", {got:#018x}),");
        if got != expected {
            mismatches.push((name.clone(), expected, got));
        }
    }
    assert!(
        mismatches.is_empty(),
        "fault-path digests moved (case, expected, got): {mismatches:#x?}"
    );
}

/// A high-fault run ignores `threads` too: fault coins ride per-client
/// streams whatever the knob says.
#[test]
fn fault_injection_digests_are_thread_invariant() {
    for scheme in Scheme::ALL {
        let cfg = high_fault_cfg(scheme);
        let digest_at = |threads: u32| {
            let result = run(&cfg.clone().with_threads(threads), RunOptions::default())
                .expect("valid config");
            fnv1a(format!("{:?}", result.metrics).as_bytes())
        };
        let serial = digest_at(1);
        for threads in [2, 4, 0] {
            assert_eq!(
                serial,
                digest_at(threads),
                "{scheme:?} fault digests diverged between threads=1 and threads={threads}"
            );
        }
    }
}

/// The determinism contract at population scale: a 100 000-client run on
/// the struct-of-arrays client core reproduces itself, and ignores
/// `threads`.
///
/// Almost every client is vouched on almost every tick (at its cell's
/// epoch, caching none of the report's items), so the fan-out stamps
/// them and walks only the rest: the run is cheap enough for the debug
/// suite. `scripts/ci.sh` also runs it in release.
#[test]
fn hundred_k_clients_digest_is_thread_invariant() {
    let mut cfg = SimConfig::paper_default().with_scheme(Scheme::Aaw);
    cfg.sim_time_secs = 400.0;
    cfg.db_size = 1_000;
    cfg.num_clients = 100_000;
    let digest_at = |threads: u32| {
        let result =
            run(&cfg.clone().with_threads(threads), RunOptions::default()).expect("valid config");
        fnv1a(format!("{:?}", result.metrics).as_bytes())
    };
    let serial = digest_at(1);
    assert_eq!(
        serial,
        digest_at(4),
        "100k-client AAW digest diverged between threads=1 and threads=4"
    );
}

/// The pinned multi-cell mobility topology behind the digests below:
/// handoffs every ~300 s against a 20 s broadcast period, a 12 s
/// blackout, and a roam coin that stays in place one time in five.
fn mobile_cfg(scheme: Scheme, cells: u32, faults: bool) -> SimConfig {
    let mut cfg = short_cfg(scheme).with_cells(CellTopology {
        cells,
        mean_residency_secs: 300.0,
        handoff_secs: 12.0,
        p_roam: 0.8,
    });
    cfg.p_disconnect = 0.2;
    if faults {
        cfg.faults = high_fault_plan();
    }
    cfg
}

/// Digests of `{metrics:?}` for the multi-cell topology:
/// (scheme, cells, faults active, digest). Pinned the same way as
/// GOLDEN — any move is a behaviour change and needs justifying.
const MULTI_CELL_GOLDEN: &[(Scheme, u32, bool, u64)] = &[
    (Scheme::Aaw, 2, false, 0x05b3_14ff_eaff_63b0),
    (Scheme::Aaw, 2, true, 0x0871_6ec8_4d1a_df72),
    (Scheme::Aaw, 5, false, 0xe238_1de7_71fe_49fd),
    (Scheme::Aaw, 5, true, 0x8248_c594_5fb4_5c74),
    (Scheme::Bs, 2, false, 0xe72c_aa9f_f6ed_c537),
    (Scheme::Bs, 2, true, 0x1a28_7192_c3cb_4b27),
    (Scheme::Bs, 5, false, 0x9997_f3e4_93df_2bdd),
    (Scheme::Bs, 5, true, 0xae74_ebee_04e7_593b),
];

/// The determinism contract extended to the cell topology: the pinned
/// {2, 5}-cell runs — faults off and on — hit their golden digests at
/// every `threads` value (1, 4, auto), which the engine ignores.
#[test]
fn multi_cell_golden_digest_across_thread_matrix() {
    let mut mismatches = Vec::new();
    for &(scheme, cells, faults, expected) in MULTI_CELL_GOLDEN {
        let cfg = mobile_cfg(scheme, cells, faults);
        for threads in [1u32, 4, 0] {
            let result = run(&cfg.clone().with_threads(threads), RunOptions::default())
                .expect("valid config");
            let got = fnv1a(format!("{:?}", result.metrics).as_bytes());
            if got != expected {
                println!("    (Scheme::{scheme:?}, {cells}, {faults}, {got:#018x}),");
                mismatches.push((scheme, cells, faults, threads, expected, got));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "multi-cell digests moved (scheme, cells, faults, threads, expected, got): \
         {mismatches:#x?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Random mobility plans ignore `threads`, mirroring the random
    /// fault-plan pin in `tests/faults.rs`.
    #[test]
    fn random_mobility_plans_are_thread_invariant(
        cells in 2u32..7,
        mean_residency_secs in 80.0f64..2_000.0,
        handoff_secs in 1.0f64..90.0,
        p_roam in 0.0f64..1.0,
        p_disconnect in 0.0f64..0.4,
        threads in 2u32..8,
    ) {
        let mut cfg = short_cfg(Scheme::Aaw).with_threads(1).with_cells(CellTopology {
            cells,
            mean_residency_secs,
            handoff_secs,
            p_roam,
        });
        cfg.p_disconnect = p_disconnect;
        let serial = run(&cfg, RunOptions::default()).unwrap();
        let threaded = run(&cfg.clone().with_threads(threads), RunOptions::default()).unwrap();
        prop_assert_eq!(
            format!("{:?}", serial.metrics),
            format!("{:?}", threaded.metrics),
            "mobility coins diverged at threads={} cells={}", threads, cells
        );
    }
}
