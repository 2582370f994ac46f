//! Property tests for the preemptive-priority facility: under any workload,
//! work is conserved, the busy time matches the bits served, and priority
//! scheduling never inverts across classes at dispatch instants.

use mobicache_sim::{Facility, FacilityConfig, Job, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A tiny driver: replays arrivals against the facility with a private
/// event list of pending completions, returning the finished jobs in
/// finish order. Each job carries a `String` naming its arrival (see
/// [`name`]), so a payload that comes back from the wrong job shows.
fn drive(
    rate: f64,
    preemptive: usize,
    arrivals: &[(f64, f64, usize)],
) -> (Facility<String>, Vec<Job<String>>) {
    let mut f = Facility::new(FacilityConfig {
        rate_bps: rate,
        classes: 3,
        preemptive_classes: preemptive,
    });
    // (time, token) of the single outstanding completion candidate set.
    let mut pending: BTreeMap<u64, SimTime> = BTreeMap::new();
    let mut finished = Vec::new();
    let mut order: Vec<usize> = (0..arrivals.len()).collect();
    order.sort_by(|&a, &b| arrivals[a].0.partial_cmp(&arrivals[b].0).unwrap());

    let mut i = 0;
    let mut now = SimTime::ZERO;
    loop {
        let next_arrival = order.get(i).map(|&k| SimTime::from_secs(arrivals[k].0));
        let next_completion = pending.iter().map(|(&tok, &at)| (at, tok)).min();
        match (next_arrival, next_completion) {
            (None, None) => break,
            (Some(ta), Some((tc, tok))) if tc <= ta => {
                now = tc;
                if let Some((job, next)) = f.on_complete(now, tok) {
                    finished.push(job);
                    if let Some(c) = next {
                        pending.insert(c.token, c.at);
                    }
                }
                pending.remove(&tok);
            }
            (Some(ta), _) => {
                now = ta;
                let k = order[i];
                let (_, bits, class) = arrivals[k];
                i += 1;
                let msg = name(k, class);
                if let Some(c) = f.submit(now, Job { bits, class, msg }) {
                    pending.insert(c.token, c.at);
                }
            }
            (None, Some((tc, tok))) => {
                now = tc;
                if let Some((job, next)) = f.on_complete(now, tok) {
                    finished.push(job);
                    if let Some(c) = next {
                        pending.insert(c.token, c.at);
                    }
                }
                pending.remove(&tok);
            }
        }
    }
    let _ = now;
    (f, finished)
}

/// The payload of arrival `index` in priority class `class`.
fn name(index: usize, class: usize) -> String {
    format!("arrival {index} class {class}")
}

fn arrival_strategy() -> impl Strategy<Value = Vec<(f64, f64, usize)>> {
    prop::collection::vec((0.0f64..1000.0, 1.0f64..10_000.0, 0usize..3), 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Every submitted job eventually completes exactly once with its own
    /// payload intact, through any preemption and resume, and the bits
    /// served per class equal the bits submitted per class.
    #[test]
    fn work_is_conserved(arrivals in arrival_strategy(), preemptive in 0usize..2) {
        let (f, finished) = drive(1000.0, preemptive, &arrivals);
        prop_assert_eq!(finished.len(), arrivals.len());
        let names: Vec<String> = arrivals.iter().enumerate().map(|(k, a)| name(k, a.2)).collect();
        let mut seen = vec![false; arrivals.len()];
        for job in &finished {
            let k = names
                .iter()
                .position(|n| *n == job.msg)
                .ok_or_else(|| TestCaseError::fail(format!("unknown payload {:?}", job.msg)))?;
            prop_assert_eq!(job.class, arrivals[k].2, "payload {} on another class's job", &job.msg);
            prop_assert_eq!(job.bits, arrivals[k].1, "payload {} on another job's bits", &job.msg);
            prop_assert!(!seen[k], "payload {} completed twice", &job.msg);
            seen[k] = true;
        }
        for class in 0..3 {
            let submitted: f64 = arrivals
                .iter()
                .filter(|&&(_, _, c)| c == class)
                .map(|&(_, b, _)| b)
                .sum();
            prop_assert!((f.bits_served(class) - submitted).abs() < 1e-6,
                "class {} bits: served {} vs submitted {}", class, f.bits_served(class), submitted);
        }
        prop_assert_eq!(f.backlog(), 0);
        prop_assert!(!f.is_busy());
    }

    /// Busy time equals total work divided by the rate.
    #[test]
    fn busy_time_matches_bits(arrivals in arrival_strategy()) {
        let rate = 1000.0;
        let (f, _) = drive(rate, 1, &arrivals);
        let total_bits: f64 = arrivals.iter().map(|&(_, b, _)| b).sum();
        prop_assert!((f.busy_time() - total_bits / rate).abs() < 1e-6,
            "busy {} vs {}", f.busy_time(), total_bits / rate);
    }

    /// With preemption enabled, a class-0 job submitted while lower-priority
    /// work is in service always finishes exactly bits/rate later.
    #[test]
    fn class0_latency_is_transmission_time_only(
        data_bits in 100.0f64..50_000.0,
        ir_bits in 1.0f64..5_000.0,
        gap in 0.001f64..0.05,
    ) {
        let rate = 1000.0;
        let mut f = Facility::new(FacilityConfig { rate_bps: rate, classes: 3, preemptive_classes: 1 });
        let _ = f.submit(SimTime::ZERO, Job { bits: data_bits, class: 2, msg: "data" }).unwrap();
        let at = SimTime::from_secs(gap);
        let c = f.submit(at, Job { bits: ir_bits, class: 0, msg: "report" })
            .expect("class 0 must start immediately via preemption");
        prop_assert!((c.at - at - ir_bits / rate).abs() < 1e-9);
    }
}
