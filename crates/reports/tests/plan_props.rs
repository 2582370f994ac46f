//! Property tests pinning the `plan ≡ decide` equivalence: the bitmap
//! invalidation plan ([`PlanCache`]), read through either of its arms —
//! the word-wise intersection with a cache-membership bitmap or one bit
//! probe per cached item — must produce exactly the stale **set** the
//! linear `decide` of each report kind produces. The engine relies on
//! this to evaluate every report through the plan without moving the
//! golden digests.

use mobicache_model::ItemId;
use mobicache_reports::{
    AtDecision, AtReport, BitSequences, BsDecision, BsSelect, PlanCache, ReportPayload,
    WindowDecision, WindowReport,
};
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

/// Builds the `TS` window report the server would broadcast at `HORIZON`.
fn window_report(history: &[(f64, u32)], window_start: f64) -> WindowReport {
    WindowReport {
        broadcast_at: t(HORIZON),
        window_start: t(window_start),
        records: last_updates(history)
            .into_iter()
            .filter(|&(_, ts)| ts > window_start)
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

/// Membership bitmap over the given ids, exactly as `LruCache` keeps it.
fn member_of(ids: impl IntoIterator<Item = u32>, db: u32) -> Vec<u64> {
    let mut words = vec![0u64; (db as usize).div_ceil(64)];
    for id in ids {
        words[id as usize / 64] |= 1 << (id % 64);
    }
    words
}

/// The plan's stale set through both arms, which must agree; sorted.
/// `stale(item)` is the per-item test for an item whose plan bit is set.
fn both_arms(
    plan: &PlanCache,
    cached: impl IntoIterator<Item = u32> + Clone,
    db: u32,
    stale: impl Fn(ItemId) -> bool,
) -> Vec<ItemId> {
    let mut words = Vec::new();
    plan.intersect_into(&member_of(cached.clone(), db), &mut words, &stale);
    let mut probed: Vec<ItemId> = cached
        .into_iter()
        .map(ItemId)
        .filter(|&i| plan.contains(i) && stale(i))
        .collect();
    probed.sort_unstable();
    assert_eq!(words, probed, "word and per-item arms disagree");
    words
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Window plan ≡ `WindowReport::decide`: for a covered client, both
    /// arms filtered by the listed-timestamp check yield exactly the
    /// linear stale set — for *arbitrary* cached versions, not just
    /// histories a well-behaved client could hold.
    #[test]
    fn window_plan_matches_decide(
        history in history_strategy(128),
        window_start in 0.0..HORIZON,
        tlb in 0.0..HORIZON,
        cached in prop::collection::hash_map(0u32..128, 0.0..HORIZON, 0..40),
    ) {
        let report = window_report(&history, window_start);
        let mut plan = PlanCache::new();
        // The window decode is Tlb-independent: key with an arbitrary
        // bucket and apply to a client with a different `tlb`.
        plan.decode_for_tick(&ReportPayload::Window(report.clone()), t(0.0), 128);
        prop_assert!(plan.window_active());

        let entries: Vec<(ItemId, SimTime)> =
            cached.iter().map(|(&i, &v)| (ItemId(i), t(v))).collect();
        let planned = both_arms(&plan, cached.keys().copied(), 128, |item| {
            plan.window_stale(item, t(cached[&item.0]))
        });
        match report.decide(t(tlb), entries) {
            WindowDecision::NotCovered => {
                // The client drops (or limbos) its cache whatever the
                // plan says; nothing to compare.
                prop_assert!(!report.covers(t(tlb)));
            }
            WindowDecision::Invalidate(mut stale) => {
                stale.sort_unstable();
                prop_assert_eq!(stale, planned);
            }
        }
    }

    /// BS plan ≡ `BitSequences::decide`: whenever the client's selected
    /// prefix bucket matches the plan's decoded bucket, both arms yield
    /// exactly the marked cached set. (Off-bucket clients walk their own
    /// prefix; the client-level proptest covers them.)
    #[test]
    fn bs_plan_matches_decide(
        history in history_strategy(128),
        dominant in 0.0..HORIZON,
        tlb in 0.0..HORIZON,
        cached_items in prop::collection::hash_set(0u32..128, 0..48),
    ) {
        let report = bs_report(&history, 128);
        let mut plan = PlanCache::new();
        plan.decode_for_tick(&ReportPayload::BitSeq(report.clone()), t(dominant), 128);
        // The plan holds a prefix exactly when the dominant bucket
        // resolves to one.
        match report.select(t(dominant)) {
            BsSelect::Prefix(p) => prop_assert_eq!(plan.bs_prefix(), Some(p)),
            _ => prop_assert_eq!(plan.bs_prefix(), None),
        }

        let reference = report.decide(t(tlb), cached_items.iter().copied().map(ItemId));
        let (BsDecision::Invalidate(mut stale), BsSelect::Prefix(p)) =
            (reference, report.select(t(tlb)))
        else {
            return Ok(()); // Clean/DropAll: O(1) verdicts, no plan read.
        };
        if plan.bs_prefix() != Some(p) {
            return Ok(()); // off the decoded bucket.
        }
        let planned = both_arms(&plan, cached_items.iter().copied(), 128, |_| true);
        stale.sort_unstable();
        prop_assert_eq!(stale, planned);
    }

    /// AT plan ≡ `AtReport::decide`: for a covered client both arms of
    /// the listed bitmap yield exactly the linear membership set.
    #[test]
    fn at_plan_matches_decide(
        history in history_strategy(128),
        prev in 0.0..HORIZON,
        tlb in 0.0..HORIZON,
        cached_items in prop::collection::hash_set(0u32..128, 0..48),
    ) {
        let items: Vec<ItemId> = last_updates(&history)
            .iter()
            .filter(|&(_, &ts)| ts > prev)
            .map(|(&i, _)| ItemId(i))
            .collect();
        let report = AtReport {
            broadcast_at: t(HORIZON),
            prev_broadcast: t(prev),
            items,
        };
        let mut plan = PlanCache::new();
        plan.decode_for_tick(&ReportPayload::At(report.clone()), t(0.0), 128);
        prop_assert!(plan.at_active());

        let AtDecision::Invalidate(mut stale) =
            report.decide(t(tlb), cached_items.iter().copied().map(ItemId))
        else {
            // Uncovered AT clients drop the whole cache; the plan is
            // never consulted.
            return Ok(());
        };
        let planned = both_arms(&plan, cached_items.iter().copied(), 128, |_| true);
        stale.sort_unstable();
        prop_assert_eq!(stale, planned);
    }
}
