//! Property tests for the preemptive-priority channel: under any workload,
//! work is conserved, the busy time matches the bits served, the backlog
//! is what the driver put in and did not get back, and a report starts
//! the instant it is sent.

use mobicache_model::msg::{CLASS_DATA, CLASS_REPORT, NUM_CLASSES};
use mobicache_net::{Channel, Delivered};
use mobicache_sim::SimTime;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The channel after a [`drive`], its deliveries and the last step's time.
type Run = (Channel<String>, Vec<Delivered<String>>, SimTime);

/// A tiny driver: replays arrivals `(time, bits, class)` against the
/// channel with a private event list of pending completions. Returns the
/// channel, the delivered messages in finish order and the time of the
/// last step. Each message is a `String` naming its arrival (see
/// [`name`]), so a payload that comes back from the wrong message shows.
///
/// After every step it checks the channel against its own count of
/// messages sent and not yet delivered: the channel is busy exactly when
/// that count is positive, and every other such message waits.
fn drive(rate: f64, arrivals: &[(f64, f64, usize)]) -> Result<Run, TestCaseError> {
    let mut ch = Channel::new(rate);
    let mut pending: BTreeMap<u64, SimTime> = BTreeMap::new();
    let mut finished = Vec::new();
    let mut order: Vec<usize> = (0..arrivals.len()).collect();
    order.sort_by(|&a, &b| arrivals[a].0.partial_cmp(&arrivals[b].0).unwrap());

    let mut i = 0;
    let mut now = SimTime::ZERO;
    let mut in_system = 0usize;
    loop {
        let next_arrival = order.get(i).map(|&k| SimTime::from_secs(arrivals[k].0));
        let next_completion = pending.iter().map(|(&tok, &at)| (at, tok)).min();
        let arrival_first = match (next_arrival, next_completion) {
            (None, None) => break,
            (Some(ta), Some((tc, _))) => ta < tc,
            (arrival, _) => arrival.is_some(),
        };
        if arrival_first {
            let k = order[i];
            let (at, bits, class) = arrivals[k];
            i += 1;
            now = SimTime::from_secs(at);
            in_system += 1;
            if let Some(c) = ch.send(now, bits, class, name(k, class)) {
                pending.insert(c.token, c.at);
            }
        } else if let Some((tc, tok)) = next_completion {
            now = tc;
            pending.remove(&tok);
            if let Some(d) = ch.complete(now, tok) {
                in_system -= 1;
                if let Some(c) = d.next {
                    pending.insert(c.token, c.at);
                }
                finished.push(d);
            }
        }
        prop_assert_eq!(ch.is_busy(), in_system > 0, "busy at {:?}", now);
        prop_assert_eq!(
            ch.backlog(),
            in_system.saturating_sub(1),
            "backlog at {:?}",
            now
        );
    }
    Ok((ch, finished, now))
}

/// The payload of arrival `index` in priority class `class`.
fn name(index: usize, class: usize) -> String {
    format!("arrival {index} class {class}")
}

fn arrival_strategy() -> impl Strategy<Value = Vec<(f64, f64, usize)>> {
    prop::collection::vec(
        (0.0f64..1000.0, 1.0f64..10_000.0, 0usize..NUM_CLASSES),
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Every sent message is delivered exactly once with its own payload
    /// and bits, through any preemption and resume, and the bits served
    /// per class equal the bits sent per class.
    #[test]
    fn work_is_conserved(arrivals in arrival_strategy()) {
        let (ch, finished, now) = drive(1000.0, &arrivals)?;
        prop_assert_eq!(finished.len(), arrivals.len());
        let names: Vec<String> = arrivals.iter().enumerate().map(|(k, a)| name(k, a.2)).collect();
        let mut seen = vec![false; arrivals.len()];
        for d in &finished {
            let k = names
                .iter()
                .position(|n| *n == d.msg)
                .ok_or_else(|| TestCaseError::fail(format!("unknown payload {:?}", d.msg)))?;
            prop_assert_eq!(d.bits, arrivals[k].1, "payload {} on another message's bits", &d.msg);
            prop_assert!(!seen[k], "payload {} delivered twice", &d.msg);
            seen[k] = true;
        }
        let served = ch.stats(now).bits_by_class;
        for (class, &served) in served.iter().enumerate() {
            let sent: f64 = arrivals
                .iter()
                .filter(|&&(_, _, c)| c == class)
                .map(|&(_, b, _)| b)
                .sum();
            prop_assert!((served - sent).abs() < 1e-6,
                "class {} bits: served {} vs sent {}", class, served, sent);
        }
    }

    /// Busy time equals total work divided by the rate.
    #[test]
    fn busy_time_matches_bits(arrivals in arrival_strategy()) {
        let rate = 1000.0;
        let (ch, _, now) = drive(rate, &arrivals)?;
        let busy = ch.stats(now).utilization * now.as_secs();
        let total_bits: f64 = arrivals.iter().map(|&(_, b, _)| b).sum();
        prop_assert!((busy - total_bits / rate).abs() < 1e-6,
            "busy {} vs {}", busy, total_bits / rate);
    }

    /// A report sent while other traffic is in service always finishes
    /// exactly bits/rate later.
    #[test]
    fn class0_latency_is_transmission_time_only(
        data_bits in 100.0f64..50_000.0,
        ir_bits in 1.0f64..5_000.0,
        gap in 0.001f64..0.05,
    ) {
        let rate = 1000.0;
        let mut ch = Channel::new(rate);
        let _ = ch.send(SimTime::ZERO, data_bits, CLASS_DATA, "data").unwrap();
        let at = SimTime::from_secs(gap);
        let c = ch.send(at, ir_bits, CLASS_REPORT, "report")
            .expect("a report must start immediately via preemption");
        prop_assert!((c.at - at - ir_bits / rate).abs() < 1e-9);
    }
}
