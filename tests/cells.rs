//! The cross-cell equivalence battery: the multi-cell topology must be
//! a strict *extension* of the single-cell simulator, pinned three ways.
//!
//! 1. **Inertness** — `CellTopology { cells: 1, .. }` is the legacy
//!    engine, bit for bit, whatever the (inert) mobility knobs say.
//! 2. **Handoff ≡ disconnection** — with zero cross-cell update skew, a
//!    roamer that arrives in a new cell is observationally a client
//!    that dozed in place for the same blackout: the paired runs
//!    `p_roam = 1` vs `p_roam = 0` must agree on every metric (both
//!    arms of the roam coin consume the same draws by construction).
//! 3. **Thread invariance** — migration runs ignore `threads`, which the
//!    engine accepts and ignores, and never produce a stale read.

use mobicache::{run, CellTopology, RunOptions, Scheme, SimConfig};
use proptest::prelude::*;

fn short_cfg(scheme: Scheme) -> SimConfig {
    SimConfig::paper_default()
        .with_scheme(scheme)
        .with_sim_time(4_000.0)
        .with_db_size(1_000)
        .with_num_clients(20)
}

fn metrics_debug(cfg: &SimConfig) -> String {
    let result = run(cfg, RunOptions::default()).expect("valid config");
    format!("{:?}", result.metrics)
}

/// A single-cell topology is the legacy simulator, bit for bit — the
/// mobility knobs are inert at one cell (no RNG streams are created, no
/// handoff is ever scheduled), so even nonsensical values must not move
/// a single byte of the `Metrics` rendering.
#[test]
fn one_cell_is_bit_identical_to_legacy_for_every_scheme() {
    let inert = CellTopology {
        cells: 1,
        mean_residency_secs: -3.0, // never validated, never sampled
        handoff_secs: 0.0,
        p_roam: 42.0,
    };
    for scheme in Scheme::ALL {
        let legacy = short_cfg(scheme);
        let one_cell = short_cfg(scheme).with_cells(inert);
        assert_eq!(
            metrics_debug(&legacy),
            metrics_debug(&one_cell),
            "{scheme:?}: cells=1 diverged from the legacy path"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The inertness pin, randomized: any knob values at `cells: 1`,
    /// any thread count — still the legacy run, bit for bit.
    #[test]
    fn one_cell_inertness_over_random_knobs_and_threads(
        mean_residency_secs in -10.0f64..10_000.0,
        handoff_secs in -1.0f64..500.0,
        p_roam in -1.0f64..2.0,
        threads in 0u32..6,
    ) {
        let cfg = short_cfg(Scheme::Aaw).with_threads(threads);
        let one_cell = cfg.clone().with_cells(CellTopology {
            cells: 1,
            mean_residency_secs,
            handoff_secs,
            p_roam,
        });
        prop_assert_eq!(metrics_debug(&cfg), metrics_debug(&one_cell));
    }
}

/// The handoff ≡ disconnection pin. One client, two cells, zero
/// cross-cell update skew (the only update model there is: a single
/// transaction stream applied to every server at the same instant).
/// Two runs differ in exactly one knob: `p_roam = 1` (every handoff
/// roams to the other cell) vs `p_roam = 0` (every handoff re-associates
/// in place — a pure disconnection of the same blackout). Both arms of
/// the roam coin consume one draw and the two-cell destination needs no
/// extra draw, so the RNG schedules are identical; everything the client
/// and the (summed) servers can observe must then agree — per scheme,
/// including the AFW/AAW long-disconnection recovery the roamer's
/// meaningless `Tlb` exercises.
#[test]
fn handoff_equals_same_length_disconnection_under_zero_skew() {
    for scheme in Scheme::ALL {
        let mut base = SimConfig::paper_default()
            .with_scheme(scheme)
            .with_sim_time(4_000.0)
            .with_db_size(1_000)
            .with_num_clients(1);
        base.p_disconnect = 0.0; // mobility is the only offline source
        let topo = |p_roam: f64| CellTopology {
            cells: 2,
            mean_residency_secs: 400.0,
            handoff_secs: 30.0,
            p_roam,
        };
        let mut roam = run(&base.clone().with_cells(topo(1.0)), RunOptions::default())
            .expect("valid config")
            .metrics;
        let mut stay = run(&base.clone().with_cells(topo(0.0)), RunOptions::default())
            .expect("valid config")
            .metrics;
        assert!(
            roam.mobility.handoffs > 0,
            "{scheme:?}: config must exercise handoffs"
        );
        // The one place where the channel *partition* (not the traffic)
        // leaks into a metric: busy time accumulates per channel, and
        // the roamer splits the same transmissions across two downlink
        // groups where the stayer concentrates them on one. The sums
        // agree to an ulp — everything else must agree to the bit.
        let ulps = 1e-12 * (1.0 + stay.downlink_utilization);
        assert!(
            (roam.downlink_utilization - stay.downlink_utilization).abs() <= ulps,
            "{scheme:?}: utilization beyond rounding: {} vs {}",
            roam.downlink_utilization,
            stay.downlink_utilization
        );
        roam.downlink_utilization = 0.0;
        stay.downlink_utilization = 0.0;
        assert_eq!(
            format!("{roam:?}"),
            format!("{stay:?}"),
            "{scheme:?}: a roam diverged from a stay-in-place blackout"
        );
    }
}

/// The roamer's recovery runs through the real machinery: AFW/AAW
/// clients re-announce themselves with a `Tlb` uplink on every arrival,
/// and a blackout longer than the report window forces the full
/// long-disconnection path (BS trigger / enlarged report fallback).
#[test]
fn roamers_reannounce_and_recover_via_the_adaptive_paths() {
    for scheme in [Scheme::Afw, Scheme::Aaw] {
        let mut cfg = SimConfig::paper_default()
            .with_scheme(scheme)
            .with_sim_time(4_000.0)
            .with_db_size(1_000)
            .with_num_clients(10);
        cfg.p_disconnect = 0.0;
        // Longer than the w·L window: every arrival is a long
        // disconnection from the destination cell's point of view.
        let long_blackout = cfg.window_secs() + 3.0 * cfg.broadcast_period_secs;
        cfg = cfg.with_cells(CellTopology {
            cells: 3,
            mean_residency_secs: 300.0,
            handoff_secs: long_blackout,
            p_roam: 1.0,
        });
        let m = run(&cfg, RunOptions::new().check_consistency(true))
            .expect("valid config")
            .metrics;
        assert!(m.mobility.handoffs > 0, "{scheme:?}: no handoffs");
        assert!(
            m.server.tlbs_received > 0,
            "{scheme:?}: roamers must re-announce with a Tlb"
        );
        assert!(
            m.queries_answered > 0,
            "{scheme:?}: roamers starved after handoff"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Migration runs ignore `threads` (`Scheme::Bs` is always in the
    /// sample). The ground-truth oracle rides along on the first run:
    /// cell membership moving between ticks must never produce a stale
    /// read.
    #[test]
    fn sharded_equals_serial_under_migration(
        cells in 2u32..6,
        mean_residency_secs in 60.0f64..1_500.0,
        handoff_secs in 1.0f64..120.0,
        p_roam in 0.1f64..1.0,
        p_disconnect in 0.0f64..0.4,
        threads in 2u32..8,
        scheme_pick in 0usize..Scheme::ALL.len(),
    ) {
        let topo = CellTopology { cells, mean_residency_secs, handoff_secs, p_roam };
        for scheme in [Scheme::Bs, Scheme::ALL[scheme_pick]] {
            let mut cfg = short_cfg(scheme).with_cells(topo);
            cfg.p_disconnect = p_disconnect;
            let serial = run(&cfg, RunOptions::new().check_consistency(true))
                .unwrap_or_else(|e| panic!("{scheme:?}: {e}"));
            let threaded = run(&cfg.clone().with_threads(threads), RunOptions::default())
                .unwrap_or_else(|e| panic!("{scheme:?}: {e}"));
            prop_assert_eq!(
                format!("{:?}", serial.metrics),
                format!("{:?}", threaded.metrics),
                "{:?} diverged at threads={} cells={}", scheme, threads, cells
            );
        }
    }
}

/// Handoff bookkeeping coheres: every counted handoff put one blackout
/// on the books, deferrals happen exactly when traffic is in flight,
/// and a multi-cell run still answers queries under the oracle.
#[test]
fn handoff_counters_cohere_under_load() {
    let mut cfg = short_cfg(Scheme::Aaw).with_cells(CellTopology {
        cells: 4,
        mean_residency_secs: 250.0,
        handoff_secs: 15.0,
        p_roam: 0.7,
    });
    cfg.p_disconnect = 0.3;
    let m = run(&cfg, RunOptions::new().check_consistency(true))
        .expect("valid config")
        .metrics;
    assert!(m.mobility.handoffs > 0, "no handoffs at 250 s residency");
    assert!(
        m.mobility.handoffs_deferred > 0,
        "a 0.3 doze probability must collide with some residency expiry"
    );
    assert!(m.queries_answered > 0);
}
