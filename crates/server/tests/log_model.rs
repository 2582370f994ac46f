//! Model test for the dense [`UpdateLog`]: the sorted-vec + tombstone
//! representation must behave exactly like the obvious reference model —
//! a `BTreeMap<ItemId, SimTime>` of latest versions plus a
//! `BTreeSet<(SimTime, ItemId)>` recency index — under arbitrary
//! time-monotone update sequences and arbitrary query points, also while
//! handles to its index are shared out and updates wait to be folded in.

use mobicache_model::ItemId;
use mobicache_reports::RecencyIndex;
use mobicache_server::UpdateLog;
use mobicache_sim::SimTime;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const DB: u32 = 48;

fn t(s: f64) -> SimTime {
    SimTime::from_secs(s)
}

/// A recency list, newest first.
type Recency = Vec<(ItemId, SimTime)>;

/// The reference model the dense log must agree with.
#[derive(Default)]
struct Model {
    latest: BTreeMap<ItemId, SimTime>,
    recency: BTreeSet<(SimTime, ItemId)>,
    total: u64,
}

impl Model {
    fn apply(&mut self, now: SimTime, item: ItemId) -> SimTime {
        let prev = self.latest.insert(item, now).unwrap_or(SimTime::ZERO);
        if prev != SimTime::ZERO || self.recency.contains(&(prev, item)) {
            self.recency.remove(&(prev, item));
        }
        self.recency.insert((now, item));
        self.total += 1;
        prev
    }

    fn updates_since(&self, since: SimTime) -> Vec<(ItemId, SimTime)> {
        self.recency
            .iter()
            .filter(|&&(ts, _)| ts > since)
            .map(|&(ts, item)| (item, ts))
            .collect()
    }

    fn recency_desc(&self) -> Vec<(ItemId, SimTime)> {
        self.recency
            .iter()
            .rev()
            .map(|&(ts, item)| (item, ts))
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dense log ≡ tree-map model over random monotone histories:
    /// versions, strict-after windows, recency order, counts, capped
    /// counts and the latest-update watermark all agree at every
    /// intermediate state.
    #[test]
    fn dense_log_matches_btree_model(
        // (time-delta in ticks, item): deltas of zero exercise equal-time
        // re-updates and timestamp ties across distinct items.
        steps in prop::collection::vec((0u16..40, 0u32..DB), 1..200),
        probes in prop::collection::vec(0u16..4_000, 1..12),
    ) {
        let mut log = UpdateLog::new(DB);
        let mut model = Model::default();
        let mut now = 0.0;
        for &(delta, item) in &steps {
            now += delta as f64;
            let ts = t(now);
            let got = log.apply_update(ts, ItemId(item));
            let want = model.apply(ts, ItemId(item));
            prop_assert_eq!(got, want, "prev version diverged");

            // Aggregate state agrees after every single update.
            prop_assert_eq!(log.total_updates(), model.total);
            prop_assert_eq!(log.distinct_updated(), model.latest.len());
            prop_assert_eq!(
                log.latest_update(),
                model.recency.iter().next_back().map(|&(ts, _)| ts)
            );
        }

        // Per-item versions.
        for i in 0..DB {
            let want = model.latest.get(&ItemId(i)).copied().unwrap_or(SimTime::ZERO);
            prop_assert_eq!(log.version(ItemId(i)), want);
            prop_assert!(log.is_valid(ItemId(i), want));
            if want != SimTime::ZERO {
                prop_assert!(!log.is_valid(ItemId(i), SimTime::ZERO));
            }
        }

        // Windowed queries at arbitrary probe points (before, inside and
        // after the history), plus the exact boundary timestamps where
        // the strict "after" contract bites.
        let mut cuts: Vec<SimTime> = probes.iter().map(|&p| t(p as f64)).collect();
        cuts.push(SimTime::ZERO);
        cuts.extend(model.recency.iter().map(|&(ts, _)| ts));
        for since in cuts {
            let want = model.updates_since(since);
            let got: Vec<_> = log.updates_since_iter(since).collect();
            prop_assert_eq!(&got, &want, "updates_since({:?})", since);
            prop_assert_eq!(log.count_since(since), want.len());
            for cap in [0, 1, want.len() / 2, want.len(), want.len() + 3] {
                // Contract: min(count, cap + 1), walking at most cap + 1.
                prop_assert_eq!(log.count_since_capped(since, cap), want.len().min(cap + 1));
            }
        }

        // Full recency walk, newest first.
        let desc: Vec<_> = log.recency_desc().collect();
        prop_assert_eq!(desc, model.recency_desc());
    }

    /// Updates applied while the index is shared wait, then fold in:
    /// after `settle` the log matches the model exactly as an unshared
    /// one does, every handle still shows the history it was shared at,
    /// and the index is copied only when a fold finds a handle to the
    /// current index still held.
    #[test]
    fn shared_log_matches_btree_model(
        // (time-delta, item, action): 0 = update only, 1 = share and hold
        // a handle, 2 = drop the oldest held handle, 3 = settle.
        steps in prop::collection::vec((0u16..20, 0u32..DB, 0u8..4), 1..200),
    ) {
        let mut log = UpdateLog::new(DB);
        let mut model = Model::default();
        // Each handle with its snapshot and the index generation it
        // shares; a copy starts a new generation.
        let mut held: Vec<(Arc<RecencyIndex>, Recency, u64)> = Vec::new();
        let mut generation = 0;
        let mut pending = false;
        let mut now = 0.0;
        for &(delta, item, action) in &steps {
            now += delta as f64;
            let got = log.apply_update(t(now), ItemId(item));
            prop_assert_eq!(got, model.apply(t(now), ItemId(item)));
            prop_assert_eq!(log.version(ItemId(item)), t(now));
            let shared = held.iter().any(|h| h.2 == generation);
            // An update waits while the index is shared; one applied
            // while it is not folds everything waiting in place.
            pending = shared;
            if action == 1 || action == 3 {
                if pending && shared {
                    generation += 1;
                }
                pending = false;
                if action == 1 {
                    held.push((log.share(), model.recency_desc(), generation));
                } else {
                    log.settle();
                    prop_assert_eq!(log.recency_desc().collect::<Vec<_>>(), model.recency_desc());
                }
            } else if action == 2 && !held.is_empty() {
                held.remove(0);
            }
            for (index, snapshot, _) in &held {
                prop_assert_eq!(&index.desc().collect::<Vec<_>>(), snapshot);
            }
        }
        if pending && held.iter().any(|h| h.2 == generation) {
            generation += 1;
        }
        log.settle();
        prop_assert_eq!(log.recency_copies(), generation);
        prop_assert_eq!(log.total_updates(), model.total);
        prop_assert_eq!(log.distinct_updated(), model.latest.len());
        for since in [0.0, now / 3.0, now / 2.0, now] {
            let got: Vec<_> = log.updates_since_iter(t(since)).collect();
            prop_assert_eq!(got, model.updates_since(t(since)));
        }
        prop_assert_eq!(log.recency_desc().collect::<Vec<_>>(), model.recency_desc());
    }
}
