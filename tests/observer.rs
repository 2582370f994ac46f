//! The run-observer subsystem, end to end: event ordering, interval
//! snapshot conservation, and the bit-identical-run guarantee.

use mobicache::{
    run, AdaptiveDecision, CellTopology, ChannelFaults, FaultPlan, IntervalSampler,
    IntervalSnapshot, Probe, ProbeEvent, RunOptions, Scheme, SimConfig, SimTime, Workload,
};

fn short_cfg(scheme: Scheme) -> SimConfig {
    SimConfig::paper_default()
        .with_scheme(scheme)
        .with_sim_time(4_000.0)
        .with_db_size(1_000)
        .with_num_clients(20)
}

/// Records every event, asserting the stream is in simulation-time
/// order, and tallies the kinds seen.
#[derive(Default)]
struct OrderProbe {
    last_secs: f64,
    reports: u64,
    decisions: u64,
    disconnects: u64,
    reconnects: u64,
    salvages: u64,
    cache_events: u64,
    queries: u64,
}

impl Probe for OrderProbe {
    fn on_event(&mut self, now: SimTime, event: &ProbeEvent) {
        let t = now.as_secs();
        assert!(
            t >= self.last_secs,
            "event stream went backwards: {t} after {}",
            self.last_secs
        );
        self.last_secs = t;
        match event {
            ProbeEvent::ReportBroadcast { bits, .. } => {
                assert!(*bits > 0.0, "report with no bits on the wire");
                self.reports += 1;
            }
            ProbeEvent::AdaptiveDecision(d) => {
                match d {
                    AdaptiveDecision::AfwBsTrigger { eligible, .. } => assert!(*eligible > 0),
                    AdaptiveDecision::AawEnlarge {
                        enlarged_bits,
                        bs_bits,
                        ..
                    } => {
                        assert!(enlarged_bits <= bs_bits, "enlarge chosen but bigger");
                    }
                    AdaptiveDecision::AawBsFallback {
                        enlarged_bits,
                        bs_bits,
                        ..
                    } => {
                        assert!(
                            enlarged_bits > bs_bits,
                            "fallback chosen but enlarge smaller"
                        );
                    }
                }
                self.decisions += 1;
            }
            ProbeEvent::Disconnect { for_secs, .. } => {
                assert!(*for_secs > 0.0);
                self.disconnects += 1;
            }
            ProbeEvent::Reconnect { offline_secs, .. } => {
                assert!(*offline_secs > 0.0);
                self.reconnects += 1;
            }
            ProbeEvent::LimboSalvage {
                salvaged, dropped, ..
            } => {
                assert!(salvaged + dropped > 0);
                self.salvages += 1;
            }
            ProbeEvent::CacheEvent { .. } => self.cache_events += 1,
            ProbeEvent::QueryResolved {
                latency_secs,
                hits,
                misses,
                ..
            } => {
                assert!(*latency_secs >= 0.0);
                assert!(hits + misses > 0);
                self.queries += 1;
            }
            // No fault plan and one cell in these runs: fault and
            // mobility events must never fire.
            ProbeEvent::ReportLost { .. }
            | ProbeEvent::UplinkLost { .. }
            | ProbeEvent::ServerCrash { .. }
            | ProbeEvent::ServerRecovered { .. }
            | ProbeEvent::Handoff { .. } => {
                panic!("fault/mobility event without a plan: {event:?}")
            }
        }
    }
}

#[test]
fn events_arrive_in_time_order_and_cover_the_decision_points() {
    for scheme in [Scheme::Afw, Scheme::Aaw] {
        let mut probe = OrderProbe::default();
        let m = run(&short_cfg(scheme), RunOptions::new().probe(&mut probe))
            .expect("valid config")
            .metrics;
        assert!(probe.reports > 0, "{scheme:?}: no report broadcasts seen");
        assert!(
            probe.decisions > 0,
            "{scheme:?}: no adaptive decisions seen"
        );
        assert!(probe.queries > 0, "{scheme:?}: no resolved queries seen");
        assert!(probe.disconnects > 0, "{scheme:?}: no disconnections seen");
        // Every observed completion is one the metrics counted too.
        assert_eq!(probe.queries, m.queries_answered, "{scheme:?}");
        assert_eq!(probe.disconnects, m.disconnections, "{scheme:?}");
        // A reconnection follows every disconnection except any still
        // dozing at the horizon.
        assert!(probe.reconnects <= probe.disconnects, "{scheme:?}");
        assert!(probe.disconnects - probe.reconnects <= 20, "{scheme:?}");
    }
}

#[test]
fn limbo_salvage_events_match_client_counters() {
    let mut probe = OrderProbe::default();
    let mut cfg = short_cfg(Scheme::Aaw).with_workload(Workload::hotcold());
    cfg.p_disconnect = 0.4;
    let m = run(&cfg, RunOptions::new().probe(&mut probe))
        .expect("valid config")
        .metrics;
    assert!(m.clients.limbo_episodes > 0, "config must exercise limbo");
    assert!(
        probe.salvages > 0,
        "limbo resolutions must surface as events"
    );
}

/// Two roaming cells under bursty loss, uplink loss and a crash: a run
/// that moves every fault and mobility counter.
fn faulty_two_cell_cfg() -> SimConfig {
    let mut cfg = short_cfg(Scheme::Aaw).with_cells(CellTopology {
        cells: 2,
        mean_residency_secs: 300.0,
        handoff_secs: 12.0,
        p_roam: 0.8,
    });
    cfg.p_disconnect = 0.2;
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
    cfg
}

/// Hashes every event's `(now, event)` `Debug` line with 64-bit FNV-1a,
/// in arrival order.
struct StreamDigest {
    hash: u64,
    events: u64,
}

impl Probe for StreamDigest {
    fn on_event(&mut self, now: SimTime, event: &ProbeEvent) {
        for &b in format!("{now:?} {event:?}\n").as_bytes() {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x1_0000_01b3);
        }
        self.events += 1;
    }
}

/// The probe-event stream of the faulty two-cell AAW run at 100
/// clients, in order. The metrics digests see counts, not sequence:
/// this pin is what fails when a client's observations (limbo salvage,
/// cache events) move relative to its actions (queries resolved,
/// disconnections, uplink losses) or to another client's. At the
/// config's own 20 clients no client emits both on one message, so
/// that swap would not show.
#[test]
fn probe_event_stream_is_pinned() {
    let mut probe = StreamDigest {
        hash: 0xcbf2_9ce4_8422_2325,
        events: 0,
    };
    let cfg = faulty_two_cell_cfg().with_num_clients(100);
    run(&cfg, RunOptions::new().probe(&mut probe)).expect("valid config");
    assert_eq!(
        (probe.events, probe.hash),
        (4_499, 0x517c_c90c_52e0_cc36),
        "probe-event stream moved"
    );
}

#[test]
fn interval_snapshot_deltas_sum_to_final_metrics() {
    let cases = [
        ("Afw", short_cfg(Scheme::Afw)),
        ("SimpleChecking", short_cfg(Scheme::SimpleChecking)),
        ("Aaw faulty 2-cell", faulty_two_cell_cfg()),
    ];
    for (name, cfg) in cases {
        let mut sampler = IntervalSampler::every(5);
        let m = run(&cfg, RunOptions::new().probe(&mut sampler))
            .expect("valid config")
            .metrics;
        let snaps = sampler.snapshots();
        assert!(snaps.len() > 2, "{name}: expected a time series");
        // Boundaries are contiguous and ordered.
        let mut prev_end = 0.0;
        for (i, s) in snaps.iter().enumerate() {
            assert_eq!(s.index as usize, i);
            assert_eq!(s.start_secs, prev_end, "{name}: gap between intervals");
            assert!(s.end_secs >= s.start_secs);
            prev_end = s.end_secs;
        }
        assert_eq!(
            prev_end, m.sim_time_secs,
            "{name}: last interval ends at horizon"
        );
        // Integer counters telescope exactly to the run totals.
        let sum = sampler.summed_totals();
        assert_eq!(sum.queries_issued, m.queries_issued, "{name}");
        assert_eq!(sum.queries_answered, m.queries_answered, "{name}");
        assert_eq!(sum.item_hits, m.item_hits, "{name}");
        assert_eq!(sum.item_misses, m.item_misses, "{name}");
        assert_eq!(sum.cache_evictions, m.cache_evictions, "{name}");
        assert_eq!(sum.disconnections, m.disconnections, "{name}");
        assert_eq!(sum.reports_lost, m.reports_lost, "{name}");
        assert_eq!(sum.events_delivered, m.events_processed, "{name}");
        let server_reports = m.server.window_reports
            + m.server.enlarged_reports
            + m.server.bs_reports
            + m.server.at_reports
            + m.server.sig_reports;
        assert_eq!(sum.reports_broadcast, server_reports, "{name}");
        assert_eq!(sum.tlbs_received, m.server.tlbs_received, "{name}");
        assert_eq!(sum.checks_processed, m.server.checks_processed, "{name}");
        assert_eq!(sum.uplink_losses, m.faults.uplink_losses, "{name}");
        assert_eq!(sum.server_crashes, m.faults.server_crashes, "{name}");
        assert_eq!(sum.fault_retries, m.faults.retries_sent, "{name}");
        assert_eq!(sum.handoffs, m.mobility.handoffs, "{name}");
        if cfg.cells.is_multi() {
            // The faulty case must actually move the counters it pins.
            assert!(sum.uplink_losses > 0, "{name}");
            assert!(sum.server_crashes > 0, "{name}");
            assert!(sum.fault_retries > 0, "{name}");
            assert!(sum.handoffs > 0, "{name}");
        }
        // Float accumulators telescope up to rounding.
        assert!((sum.client_tx_bits - m.client_tx_bits).abs() < 1e-6 * (1.0 + m.client_tx_bits));
        assert!((sum.client_rx_bits - m.client_rx_bits).abs() < 1e-6 * (1.0 + m.client_rx_bits));
    }
}

/// One complete trace line of a fixed short AAW run, captured before
/// the counter list moved into one declaration: key names, key order
/// and number formatting are the trace schema, so any change to them
/// shows up here. The fan-out counters (`plan_hits`, `plan_misses`,
/// `fanout_quiet`, `fanout_walked`) were re-pinned when the vouched
/// stamp stopped walking clients whose cache a report leaves alone;
/// the deliveries `fanout_quiet + fanout_walked` and every other field
/// are as captured.
#[test]
fn snapshot_jsonl_line_is_pinned() {
    let mut sampler = IntervalSampler::every(10);
    run(
        &short_cfg(Scheme::Aaw),
        RunOptions::new().probe(&mut sampler),
    )
    .expect("valid config");
    let jsonl = sampler.to_jsonl();
    let line = jsonl.lines().nth(2).expect("at least three intervals");
    assert_eq!(
        line,
        concat!(
            "{\"interval\":2,\"start_secs\":400,\"end_secs\":600,",
            "\"queries_issued\":29,\"queries_answered\":28,\"item_hits\":0,",
            "\"item_misses\":28,\"reports_broadcast\":10,\"tlbs_received\":0,",
            "\"checks_processed\":0,\"cache_evictions\":0,\"disconnections\":4,",
            "\"reports_lost\":0,\"uplink_losses\":0,\"fault_retries\":0,",
            "\"server_crashes\":0,\"handoffs\":0,\"client_tx_bits\":108160,",
            "\"client_rx_bits\":1989480,\"events_scheduled\":114,",
            "\"events_delivered\":111,\"queue_high_water\":26,",
            "\"slot_high_water\":11,\"sched_cascades\":9,\"plan_decodes\":29,",
            "\"plan_hits\":78,\"plan_misses\":5,\"fanout_words_skipped\":0,",
            "\"fanout_quiet\":440,\"fanout_walked\":83}",
        )
    );
}

#[test]
fn snapshot_jsonl_round_trips_the_series() {
    let mut sampler = IntervalSampler::every(10);
    run(
        &short_cfg(Scheme::Aaw),
        RunOptions::new().probe(&mut sampler),
    )
    .expect("valid config");
    let jsonl = sampler.to_jsonl();
    let lines: Vec<&str> = jsonl.trim_end().split('\n').collect();
    assert_eq!(lines.len(), sampler.snapshots().len());
    for (line, snap) in lines.iter().zip(sampler.snapshots()) {
        assert_eq!(*line, snap.to_json());
        assert!(line.contains(&format!("\"interval\":{}", snap.index)));
    }
}

#[test]
fn attaching_a_probe_leaves_same_seed_metrics_bit_identical() {
    for scheme in [Scheme::Afw, Scheme::Aaw, Scheme::SimpleChecking, Scheme::Bs] {
        let cfg = short_cfg(scheme).with_workload(Workload::hotcold());
        let plain = run(&cfg, RunOptions::default())
            .expect("valid config")
            .metrics;
        let mut order = OrderProbe::default();
        let mut sampler = IntervalSampler::every(3);
        let mut pair = (&mut order, &mut sampler);
        let probed = run(&cfg, RunOptions::new().probe(&mut pair))
            .expect("valid config")
            .metrics;
        assert_eq!(plain.queries_issued, probed.queries_issued, "{scheme:?}");
        assert_eq!(
            plain.queries_answered, probed.queries_answered,
            "{scheme:?}"
        );
        assert_eq!(plain.item_hits, probed.item_hits, "{scheme:?}");
        assert_eq!(plain.item_misses, probed.item_misses, "{scheme:?}");
        assert_eq!(
            plain.events_processed, probed.events_processed,
            "{scheme:?}"
        );
        assert_eq!(plain.disconnections, probed.disconnections, "{scheme:?}");
        // f64 accumulators must match to the bit, not approximately.
        assert_eq!(
            plain.client_tx_bits.to_bits(),
            probed.client_tx_bits.to_bits(),
            "{scheme:?}"
        );
        assert_eq!(
            plain.client_rx_bits.to_bits(),
            probed.client_rx_bits.to_bits(),
            "{scheme:?}"
        );
        assert_eq!(
            plain.uplink_validity_bits.to_bits(),
            probed.uplink_validity_bits.to_bits(),
            "{scheme:?}"
        );
        assert_eq!(
            plain.mean_query_latency_secs.to_bits(),
            probed.mean_query_latency_secs.to_bits(),
            "{scheme:?}"
        );
    }
}

#[test]
fn sampler_final_interval_is_partial_when_horizon_misses_the_stride() {
    // 4000 s at L = 20 s is 200 broadcasts; stride 7 leaves a remainder,
    // so the horizon closes a short final interval.
    let mut sampler = IntervalSampler::every(7);
    run(
        &short_cfg(Scheme::Bs),
        RunOptions::new().probe(&mut sampler),
    )
    .expect("valid config");
    let snaps: &[IntervalSnapshot] = sampler.snapshots();
    let last = snaps.last().expect("non-empty series");
    let body_span = snaps[1].end_secs - snaps[1].start_secs;
    assert!(last.end_secs - last.start_secs < body_span);
}

/// The fan-out counters split the report deliveries: a vouched client
/// is stamped, every other one walked. On a population-shaped AAW run
/// (many clients, a small database) almost every delivery is stamped,
/// and the plan arms tally walked clients only.
#[test]
fn fanout_counters_split_report_deliveries() {
    let population = |p_disconnect: f64| {
        let mut cfg = SimConfig::paper_default()
            .with_scheme(Scheme::Aaw)
            .with_sim_time(2_000.0)
            .with_db_size(1_000)
            .with_num_clients(2_000);
        cfg.p_disconnect = p_disconnect;
        let mut sampler = IntervalSampler::every(10);
        let m = run(&cfg, RunOptions::new().probe(&mut sampler))
            .expect("valid config")
            .metrics;
        let reports = m.server.window_reports + m.server.enlarged_reports + m.server.bs_reports;
        let last = *sampler.snapshots().last().expect("non-empty series");
        (last, reports)
    };
    for p_disconnect in [0.0, 0.1] {
        let (s, reports) = population(p_disconnect);
        let delivered = s.fanout_quiet + s.fanout_walked;
        assert!(delivered <= 2_000 * reports, "{s:?}");
        if p_disconnect == 0.0 {
            // Nobody dozes, so every report reaches every client, and
            // nobody falls behind a window, so every report is a window
            // report and decodes one plan on delivery.
            assert_eq!(delivered, 2_000 * s.plan_decodes);
        }
        let share = s.fanout_quiet as f64 / delivered as f64;
        assert!(
            share >= 0.9,
            "stamped share {share} at p_disconnect {p_disconnect}"
        );
        assert!(s.plan_hits + s.plan_misses <= s.fanout_walked, "{s:?}");
    }

    // SIG stamps the listeners of a report whose signatures match its
    // cell's epoch report and walks those of a changed one, through no
    // plan: both happen in a run that updates.
    let mut sampler = IntervalSampler::every(10);
    run(
        &short_cfg(Scheme::Sig),
        RunOptions::new().probe(&mut sampler),
    )
    .expect("valid config");
    let s = sampler.snapshots().last().expect("non-empty series");
    assert!(s.fanout_quiet > 0 && s.fanout_walked > 0, "{s:?}");
    assert_eq!(s.plan_hits + s.plan_misses, 0, "{s:?}");
}

/// A three-cell roaming population that dozes and loses nothing: every
/// report reaches every listener of its cell.
fn roaming_three_cell_cfg(scheme: Scheme) -> SimConfig {
    let mut cfg = short_cfg(scheme).with_cells(CellTopology {
        cells: 3,
        mean_residency_secs: 300.0,
        handoff_secs: 12.0,
        p_roam: 0.8,
    });
    cfg.p_disconnect = 0.2;
    cfg
}

/// A run's final `(fanout_quiet, fanout_walked, plan_hits,
/// plan_misses)`.
type Fanout = (u64, u64, u64, u64);

/// The final snapshot's fan-out counters of a run.
fn fanout_of(cfg: &SimConfig) -> Fanout {
    let mut sampler = IntervalSampler::every(10);
    run(cfg, RunOptions::new().probe(&mut sampler)).expect("valid config");
    let s = sampler.snapshots().last().expect("non-empty series");
    (s.fanout_quiet, s.fanout_walked, s.plan_hits, s.plan_misses)
}

/// Which deliveries a run that loses no report stamps and which it
/// walks, and which plan arm served each walked client:
/// `(scheme, short_cfg, roaming_three_cell_cfg)`. A client the fan-out
/// walks where it used to stamp shows up here, though no digest moves.
const FANOUT_PIN: &[(Scheme, Fanout, Fanout)] = &[
    (Scheme::TsNoCheck, (1231, 247, 238, 9), (672, 216, 190, 26)),
    (Scheme::At, (1237, 241, 216, 12), (671, 216, 128, 44)),
    (
        Scheme::SimpleChecking,
        (1227, 250, 245, 5),
        (671, 217, 210, 7),
    ),
    (Scheme::Bs, (1234, 245, 47, 10), (670, 218, 31, 26)),
    (Scheme::Afw, (1219, 258, 237, 13), (662, 226, 199, 21)),
    (Scheme::Aaw, (1218, 259, 245, 11), (662, 226, 203, 20)),
    (Scheme::Sig, (1015, 464, 0, 0), (540, 348, 0, 0)),
    (Scheme::Gcore, (1230, 248, 241, 7), (671, 217, 201, 16)),
];

#[test]
fn fanout_of_lossless_runs_is_pinned() {
    assert_eq!(FANOUT_PIN.len(), Scheme::ALL.len());
    for &(scheme, single, roaming) in FANOUT_PIN {
        assert_eq!(fanout_of(&short_cfg(scheme)), single, "{scheme:?}");
        assert_eq!(
            fanout_of(&roaming_three_cell_cfg(scheme)),
            roaming,
            "{scheme:?} roaming"
        );
    }
}
