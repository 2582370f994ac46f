//! The any-fault-schedule safety net: randomized fault plans — bursty
//! downlink loss, uplink loss, server crash schedules, arbitrary retry
//! policies — run against every scheme with the ground-truth oracle
//! asserting after every client-visible message that no valid cache
//! entry is stale. Whatever the faults do to liveness, they must never
//! touch safety.

use mobicache::{
    run, CellTopology, ChannelFaults, FaultPlan, IntervalSampler, RetryPolicy, RunOptions, Scheme,
    SimConfig,
};
use proptest::prelude::*;

fn faulty_cfg(scheme: Scheme, plan: &FaultPlan) -> SimConfig {
    let mut cfg = SimConfig::paper_default().with_scheme(scheme);
    cfg.sim_time_secs = 4_000.0;
    cfg.db_size = 1_000;
    cfg.num_clients = 20;
    cfg.faults = plan.clone();
    cfg
}

/// An aggressive but fixed plan for the deterministic sweeps.
fn hostile_plan() -> FaultPlan {
    FaultPlan {
        downlink: ChannelFaults {
            p_enter_burst: 0.15,
            mean_burst_intervals: 4.0,
            p_loss_good: 0.05,
            p_loss_bad: 0.9,
        },
        p_uplink_loss: 0.3,
        retry: RetryPolicy::default(),
        crashes: vec![800.0, 2_200.0],
        recovery_secs: 90.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary fault schedules, every scheme: the run completes, the
    /// oracle stays silent, and the fault tallies cohere with the
    /// run-level counters.
    #[test]
    fn no_stale_reads_under_arbitrary_fault_schedules(
        (p_enter, mean_burst, p_loss_good, p_loss_bad)
            in (0.0f64..0.3, 1.0f64..12.0, 0.0f64..0.25, 0.4f64..1.0),
        p_uplink_loss in prop_oneof![2 => 0.0f64..0.4, 1 => Just(0.0)],
        crash_secs in prop::collection::vec(100u32..3_800, 0..3),
        recovery_secs in 5.0f64..250.0,
        (timeout, max_retries, cap) in (1u32..4, 0u32..5, 1u32..16),
    ) {
        let plan = FaultPlan {
            downlink: ChannelFaults {
                p_enter_burst: p_enter,
                mean_burst_intervals: mean_burst,
                p_loss_good,
                p_loss_bad,
            },
            p_uplink_loss,
            retry: RetryPolicy {
                timeout_intervals: timeout,
                max_retries,
                backoff_cap_intervals: cap.max(timeout),
            },
            crashes: crash_secs.iter().map(|&s| f64::from(s)).collect(),
            recovery_secs,
        };
        for scheme in Scheme::ALL {
            let cfg = faulty_cfg(scheme, &plan);
            // The oracle panics on any stale read; reaching the horizon
            // at all is also the retry-termination proof.
            let result = run(&cfg, RunOptions::new().check_consistency(true))
                .unwrap_or_else(|e| panic!("{scheme:?}: {e}"));
            let m = &result.metrics;
            let f = m.faults;
            prop_assert!(m.queries_issued > 0, "{:?}: workload starved", scheme);
            // Loss classification covers every lost report exactly.
            prop_assert_eq!(
                f.downlink_losses_good + f.downlink_losses_burst,
                m.reports_lost,
                "{:?}", scheme
            );
            // Every scheduled crash lands inside the horizon.
            prop_assert_eq!(f.server_crashes as usize, crash_secs.len(), "{:?}", scheme);
            // Outages merge (nesting) and the last may outlive the run,
            // so recoveries can only undercount crashes.
            prop_assert!(f.recoveries <= f.server_crashes, "{:?}", scheme);
            if f.recoveries > 0 {
                prop_assert!(f.mean_recovery_latency_secs > 0.0, "{:?}", scheme);
            } else {
                prop_assert_eq!(f.mean_recovery_latency_secs, 0.0, "{:?}", scheme);
            }
            if !plan.is_active() {
                prop_assert_eq!(f, mobicache::FaultMetrics::default(), "{:?}", scheme);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Any random plan produces bit-identical metrics at any `threads`
    /// value, which the engine ignores.
    #[test]
    fn random_fault_plans_are_thread_invariant(
        (p_enter, p_loss_bad, p_uplink_loss) in (0.0f64..0.3, 0.4f64..1.0, 0.0f64..0.4),
        crash_secs in prop::collection::vec(100u32..3_800, 0..3),
        threads in 2u32..8,
    ) {
        let plan = FaultPlan {
            downlink: ChannelFaults {
                p_enter_burst: p_enter,
                mean_burst_intervals: 5.0,
                p_loss_good: 0.03,
                p_loss_bad,
            },
            p_uplink_loss,
            crashes: crash_secs.iter().map(|&s| f64::from(s)).collect(),
            recovery_secs: 60.0,
            retry: RetryPolicy::default(),
        };
        let cfg = faulty_cfg(Scheme::Aaw, &plan);
        let serial = run(&cfg, RunOptions::default()).unwrap();
        let threaded = run(&cfg.clone().with_threads(threads), RunOptions::default()).unwrap();
        prop_assert_eq!(
            format!("{:?}", serial.metrics),
            format!("{:?}", threaded.metrics),
            "fault coins diverged at threads={}", threads
        );
    }
}

/// Every scheme survives the fixed hostile plan with the oracle armed —
/// the deterministic anchor behind the randomized sweep above.
#[test]
fn all_schemes_stay_consistent_under_hostile_plan() {
    let plan = hostile_plan();
    for scheme in Scheme::ALL {
        let result = run(
            &faulty_cfg(scheme, &plan),
            RunOptions::new().check_consistency(true),
        )
        .unwrap_or_else(|e| panic!("{scheme:?}: {e}"));
        let m = &result.metrics;
        assert!(m.queries_answered > 0, "{scheme:?} starved under faults");
        assert!(m.faults.downlink_losses_burst > 0, "{scheme:?}");
        assert_eq!(m.faults.server_crashes, 2, "{scheme:?}");
    }
}

/// Graceful degradation: when the backoff budget runs out the client
/// drops its whole cache (the paper's reconnection fallback) instead of
/// retrying forever — and that, too, is consistent.
#[test]
fn exhausted_backoff_degrades_to_full_drop() {
    let mut plan = hostile_plan();
    plan.p_uplink_loss = 0.6;
    plan.retry = RetryPolicy {
        timeout_intervals: 1,
        max_retries: 1,
        backoff_cap_intervals: 2,
    };
    let mut cfg = faulty_cfg(Scheme::Afw, &plan);
    cfg.p_disconnect = 0.4;
    let result = run(&cfg, RunOptions::new().check_consistency(true)).expect("valid config");
    let f = result.metrics.faults;
    assert!(f.retries_sent > 0, "lost Tlbs must be retried first");
    assert!(
        f.backoff_exhaustions > 0,
        "a 60% lossy uplink must exhaust a 1-retry budget somewhere"
    );
    assert!(result.metrics.clients.full_drops > 0);
}

/// The empty plan is the identity: explicitly attaching `FaultPlan::none()`
/// must reproduce the no-plan run bit for bit.
#[test]
fn empty_plan_is_bit_identical_to_no_plan() {
    let base = SimConfig::paper_default()
        .with_scheme(Scheme::Aaw)
        .with_sim_time(4_000.0)
        .with_db_size(1_000)
        .with_num_clients(20);
    let mut with_plan = base.clone();
    with_plan.faults = FaultPlan::none();
    let a = run(&base, RunOptions::default()).unwrap();
    let b = run(&with_plan, RunOptions::default()).unwrap();
    assert_eq!(format!("{:?}", a.metrics), format!("{:?}", b.metrics));
}

/// A roaming, lossy fault run with the retry policy armed keeps its
/// report fan-out stamp-bound: a client whose data request is out is
/// stamped until the request's backoff deadline, so most deliveries are
/// stamps, not walks. A smaller copy of the `mobile-faults` benchmark
/// shape (four cells, dozing clients, bursty loss, crashes).
#[test]
fn retry_armed_fault_run_stamps_most_deliveries() {
    let horizon = 4_000.0;
    let mut cfg = SimConfig::paper_default()
        .with_scheme(Scheme::Aaw)
        .with_sim_time(horizon)
        .with_num_clients(400)
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
    let mut sampler = IntervalSampler::every(10);
    let m = run(&cfg, RunOptions::new().probe(&mut sampler))
        .expect("valid config")
        .metrics;
    assert!(m.faults.retries_sent > 0, "the retry policy never fired");
    let s = sampler.snapshots().last().expect("non-empty series");
    let share = s.fanout_quiet as f64 / (s.fanout_quiet + s.fanout_walked) as f64;
    // 0.78 at the default seed; 0.10 when every armed client was walked.
    assert!(share > 0.5, "stamped share {share}: {s:?}");
}
