//! Property tests for the invalidation algorithms against a ground-truth
//! update history.
//!
//! The central safety property of any invalidation scheme: after a client
//! applies a *covering* report, **no stale entry survives** — every cached
//! item the client keeps reflects the database state as of the report.
//! `TS` window reports are additionally *exact* (they drop nothing valid);
//! bit-sequences are conservative (they may drop fresh copies, never keep
//! stale ones).

use mobicache_model::ItemId;
use mobicache_reports::{BitSequences, BsDecision, WindowDecision, WindowReport};
use mobicache_sim::SimTime;
use proptest::prelude::*;
use std::collections::HashMap;

const HORIZON: f64 = 1000.0;

fn t(s: f64) -> SimTime {
    SimTime::from_secs(s)
}

/// A random update history: (timestamp, item) pairs over `[0, HORIZON)`.
fn history_strategy(db: u32) -> impl Strategy<Value = Vec<(f64, u32)>> {
    prop::collection::vec((0.0..HORIZON, 0..db), 0..120)
}

/// Ground truth: each item's last update time, if any.
fn last_updates(history: &[(f64, u32)]) -> HashMap<u32, f64> {
    let mut last: HashMap<u32, f64> = HashMap::new();
    for &(ts, item) in history {
        let e = last.entry(item).or_insert(ts);
        if ts > *e {
            *e = ts;
        }
    }
    last
}

/// The version a correct client holds for `item` having observed all
/// updates up to and including `asof`: the item's last update ≤ `asof`
/// (or 0 — the initial version — if none).
fn version_asof(last: &HashMap<u32, f64>, history: &[(f64, u32)], item: u32, asof: f64) -> f64 {
    let _ = last;
    history
        .iter()
        .filter(|&&(ts, i)| i == item && ts <= asof)
        .map(|&(ts, _)| ts)
        .fold(0.0, f64::max)
}

/// Builds the `TS` window report the server would broadcast at `HORIZON`
/// with the given window start.
fn window_report(history: &[(f64, u32)], window_start: f64) -> WindowReport {
    let mut latest_in_window: HashMap<u32, f64> = HashMap::new();
    for &(ts, item) in history {
        if ts > window_start {
            let e = latest_in_window.entry(item).or_insert(ts);
            if ts > *e {
                *e = ts;
            }
        }
    }
    WindowReport {
        broadcast_at: t(HORIZON),
        window_start: t(window_start),
        records: latest_in_window
            .into_iter()
            .map(|(i, ts)| (ItemId(i), t(ts)))
            .collect(),
        dummy: None,
    }
}

/// Builds the bit-sequences report the server would broadcast at
/// `HORIZON`.
fn bs_report(history: &[(f64, u32)], db: u32) -> BitSequences {
    let last = last_updates(history);
    let mut recency: Vec<(ItemId, SimTime)> =
        last.iter().map(|(&i, &ts)| (ItemId(i), t(ts))).collect();
    recency.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    BitSequences::from_recency(t(HORIZON), db, recency)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A covered TS client invalidates exactly the truly-stale entries.
    #[test]
    fn window_invalidation_is_exact(
        history in history_strategy(64),
        window_start in 0.0..HORIZON,
        tlb_off in 0.0..1.0f64,
        cached_items in prop::collection::hash_set(0u32..64, 0..20),
    ) {
        let tlb = window_start + tlb_off * (HORIZON - window_start);
        let last = last_updates(&history);
        let cache: Vec<(ItemId, SimTime)> = cached_items
            .iter()
            .map(|&i| (ItemId(i), t(version_asof(&last, &history, i, tlb))))
            .collect();
        let report = window_report(&history, window_start);
        prop_assert!(report.covers(t(tlb)));
        let WindowDecision::Invalidate(stale) = report.decide(t(tlb), cache.clone()) else {
            return Err(TestCaseError::fail("covered client got NotCovered"));
        };
        for &(item, version) in &cache {
            let truth = last.get(&item.0).copied().unwrap_or(0.0);
            let is_stale = truth > version.as_secs();
            prop_assert_eq!(
                stale.contains(&item),
                is_stale,
                "item {:?}: version {} truth {}",
                item, version.as_secs(), truth
            );
        }
    }

    /// Uncovered TS clients are told so — never silently given a partial
    /// answer.
    #[test]
    fn window_refuses_uncovered_clients(
        history in history_strategy(64),
        window_start in 1.0..HORIZON,
    ) {
        let report = window_report(&history, window_start);
        let tlb = window_start - 0.5;
        prop_assert_eq!(
            report.decide(t(tlb), vec![(ItemId(1), t(0.0))]),
            WindowDecision::NotCovered
        );
    }

    /// BS soundness: whatever the decision, no stale entry survives.
    #[test]
    fn bitseq_never_keeps_a_stale_entry(
        history in history_strategy(64),
        tlb in 0.0..HORIZON,
        cached_items in prop::collection::hash_set(0u32..64, 0..32),
    ) {
        let db = 64;
        let last = last_updates(&history);
        let report = bs_report(&history, db);
        let cache: Vec<ItemId> = cached_items.iter().copied().map(ItemId).collect();
        let survivors: Vec<ItemId> = match report.decide(t(tlb), cache.clone()) {
            BsDecision::Clean => cache.clone(),
            BsDecision::DropAll => vec![],
            BsDecision::Invalidate(stale) => {
                cache.iter().copied().filter(|i| !stale.contains(i)).collect()
            }
        };
        for item in survivors {
            let version = version_asof(&last, &history, item.0, tlb);
            let truth = last.get(&item.0).copied().unwrap_or(0.0);
            prop_assert!(
                truth <= version,
                "stale survivor {:?}: version-asof-tlb {} but truth {}",
                item, version, truth
            );
        }
    }

    /// BS conservativeness bounds: Clean only when genuinely clean;
    /// DropAll only when more than half the database changed after Tlb;
    /// Invalidate drops only cached items.
    #[test]
    fn bitseq_decisions_are_justified(
        history in history_strategy(64),
        tlb in 0.0..HORIZON,
        cached_items in prop::collection::hash_set(0u32..64, 0..32),
    ) {
        let db: u32 = 64;
        let last = last_updates(&history);
        let report = bs_report(&history, db);
        let cache: Vec<ItemId> = cached_items.iter().copied().map(ItemId).collect();
        let changed_after_tlb = last.values().filter(|&&ts| ts > tlb).count();
        match report.decide(t(tlb), cache.clone()) {
            BsDecision::Clean => {
                prop_assert_eq!(changed_after_tlb, 0, "Clean but {} items changed", changed_after_tlb);
            }
            BsDecision::DropAll => {
                prop_assert!(
                    changed_after_tlb > (db / 2) as usize,
                    "DropAll with only {} changed items",
                    changed_after_tlb
                );
            }
            BsDecision::Invalidate(stale) => {
                for item in &stale {
                    prop_assert!(cache.contains(item), "invalidated uncached {:?}", item);
                }
            }
        }
    }

    /// The BS report size formula from the paper dominates the exact wire
    /// encoding's bitmap portion for power-of-two databases.
    #[test]
    fn bitseq_wire_size_is_bounded_by_formula(history in history_strategy(64)) {
        let p = mobicache_model::msg::SizeParams {
            db_size: 64,
            group_count: 64,
            timestamp_bits: 48.0,
            header_bits: 0.0,
            control_bytes: 512,
            item_bytes: 8192,
        };
        let report = bs_report(&history, 64);
        let wire_bits = report.encode_wire().len() as f64 * 8.0;
        // Padding adds at most 7 bits per level plus one per timestamp
        // widened to 64 bits; allow that slack.
        let levels = BitSequences::level_lengths(64).len() as f64;
        prop_assert!(
            report.exact_size_bits(&p) <= wire_bits + levels * 7.0,
            "exact {} wire {}",
            report.exact_size_bits(&p),
            wire_bits
        );
        prop_assert!(report.size_bits(&p) >= report.exact_size_bits(&p) - (levels + 1.0) * 48.0);
    }
}
