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
use mobicache_model::{CellTopology, Scheme, SimConfig};
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

/// Worker threads for the pinned runs, from `MOBICACHE_THREADS`
/// (default 1). CI runs this suite twice — threads=1 and threads=4 —
/// and the GOLDEN table must hold for both: the sharded fan-out is
/// bit-identical by contract, so the digests do not depend on it.
fn configured_threads() -> u32 {
    std::env::var("MOBICACHE_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

fn short_cfg(scheme: Scheme) -> SimConfig {
    let mut cfg = SimConfig::paper_default().with_scheme(scheme);
    cfg.sim_time_secs = 4_000.0;
    cfg.db_size = 1_000;
    cfg.num_clients = 20;
    cfg.threads = configured_threads();
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

/// The multi-threading contract, pinned per scheme: sharding the tick
/// fan-out across the maximum sensible worker count produces the exact
/// digest of the fully serial engine.
#[test]
fn sharded_digest_equals_serial_digest_per_scheme() {
    let max = std::thread::available_parallelism()
        .map_or(4, |n| n.get() as u32)
        .max(4);
    for scheme in Scheme::ALL {
        assert_eq!(
            digest_with_threads(scheme, 1),
            digest_with_threads(scheme, max),
            "{scheme:?} diverged between threads=1 and threads={max}"
        );
    }
}

/// The full thread-count matrix against the GOLDEN table: every scheme,
/// at every thread count worth worrying about — serial, even and odd
/// shard geometries, counts that do not divide the 20-client population
/// (3, 7), auto (0), and more threads than clients (33, a degenerate
/// single-client-per-shard split). The persistent pool must hit the
/// pinned digest at every point.
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
        "digests moved under sharding (scheme, threads, expected, got): {mismatches:#x?}"
    );
}

/// Fault injection draws every coin in the serial tick phases on
/// per-client streams, so a high-fault run must be bit-identical across
/// thread counts too — CI runs this leg at `MOBICACHE_THREADS` 1 and 4.
#[test]
fn fault_injection_digests_are_thread_invariant() {
    use mobicache_model::{ChannelFaults, FaultPlan};
    let plan = FaultPlan {
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
    };
    for scheme in Scheme::ALL {
        let mut cfg = short_cfg(scheme);
        cfg.faults = plan.clone();
        cfg.p_disconnect = 0.3;
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
/// the struct-of-arrays client core must produce bit-identical metrics
/// whether the column scans run serial or sharded across the pool.
///
/// `#[ignore]`d because it needs a release build to finish promptly;
/// `scripts/ci.sh` runs it explicitly (release, under `timeout`) as the
/// population-scale smoke leg.
#[test]
#[ignore = "population-scale leg: run in release via scripts/ci.sh"]
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
        use mobicache_model::{ChannelFaults, FaultPlan};
        cfg.faults = FaultPlan {
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
        };
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
/// every thread count (serial, 4 workers, auto). Mobility draws ride
/// dedicated per-client streams and handoffs are scheduled through the
/// wheel, so migration must not introduce any thread sensitivity.
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

    /// Random mobility plans are thread-invariant, mirroring the random
    /// fault-plan pin in `tests/faults.rs`: whatever the topology and
    /// residency process do to the event schedule, sharding the fan-out
    /// only trades wall time.
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
        let sharded = run(&cfg.clone().with_threads(threads), RunOptions::default()).unwrap();
        prop_assert_eq!(
            format!("{:?}", serial.metrics),
            format!("{:?}", sharded.metrics),
            "mobility coins diverged at threads={} cells={}", threads, cells
        );
    }
}
