//! Model test for the [`RecencyIndex`]'s slot-liveness bitmap and the
//! order statistics read from it. Random time-monotone inserts — with
//! zero time steps, so equal-timestamp tail runs shift, and a small
//! database, so re-updates pile up tombstones and force compactions —
//! run against a `BTreeSet<(SimTime, ItemId)>` model, while snapshots
//! held behind an `Arc` make later inserts copy on write. After every
//! step the live index and every held snapshot must agree with their
//! model: the bitmap's set bits are exactly the live slots, the
//! popcount count matches the model's count after every probe time,
//! and each level's cut separates exactly the `p` newest items.

use mobicache_model::ItemId;
use mobicache_reports::RecencyIndex;
use mobicache_sim::SimTime;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

const DB: u32 = 24;

/// The reference: live `(last update, item)` pairs, ascending.
type Model = BTreeSet<(SimTime, ItemId)>;

fn check(index: &RecencyIndex, model: &Model) -> Result<(), TestCaseError> {
    // The bitmap's set bits are the live slots: one per live item, each
    // at that item's slot, and no others.
    let words = index.live_words();
    let ones: usize = words.iter().map(|w| w.count_ones() as usize).sum();
    prop_assert_eq!(ones, index.live_len());
    prop_assert_eq!(index.live_len(), model.len());
    for &(_, item) in model {
        let s = index.slot(item);
        prop_assert!(
            s.is_some_and(|s| words[s / 64] >> (s % 64) & 1 != 0),
            "live slot {:?} of {:?} has no bit",
            s,
            item
        );
    }
    let desc: Vec<(ItemId, SimTime)> = model.iter().rev().map(|&(ts, i)| (i, ts)).collect();
    prop_assert_eq!(index.desc().collect::<Vec<_>>(), desc.clone());

    // The popcount count equals the model's, at every update time (where
    // "strictly after" bites), just before it, and before all history.
    let mut probes = vec![SimTime::ZERO];
    for &(ts, _) in model {
        probes.push(ts);
        probes.push(SimTime::from_secs(ts.as_secs() - 0.5));
    }
    for since in probes {
        let want = model.iter().filter(|&&(ts, _)| ts > since).count();
        prop_assert_eq!(index.count_since(since), want, "count_since({:?})", since);
    }

    // cut(p) is the p-th newest item's slot, and a live slot at or past
    // it marks exactly the p newest items.
    for p in 0..=(DB / 2 + 1) as usize {
        let cut = index.cut(p);
        let want = match p {
            0 => Some(index.slots()),
            p if p > desc.len() => Some(0),
            p => index.slot(desc[p - 1].0),
        };
        prop_assert_eq!(Some(cut), want, "cut({})", p);
        for i in 0..DB {
            let item = ItemId(i);
            let marked = index.slot(item).is_some_and(|s| s >= cut);
            let newest = desc.iter().take(p).any(|&(it, _)| it == item);
            prop_assert_eq!(marked, newest, "item {} at p = {} (cut {})", i, p, cut);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn liveness_bitmap_matches_the_model(
        // (time step, item, action): a zero step extends the tail's
        // equal-timestamp run; action 1 holds a snapshot, 2 releases the
        // oldest held one, anything else only inserts.
        steps in prop::collection::vec((0u8..3, 0u32..DB, 0u8..8), 1..160),
    ) {
        let mut index = Arc::new(RecencyIndex::new(DB));
        let mut model = Model::new();
        let mut held: Vec<(Arc<RecencyIndex>, Model)> = Vec::new();
        let mut now = 1.0;
        for &(step, item, action) in &steps {
            now += f64::from(step);
            let (ts, item) = (SimTime::from_secs(now), ItemId(item));
            // Copy on write while a snapshot holds the index.
            Arc::make_mut(&mut index).insert(ts, item);
            model.retain(|&(_, i)| i != item);
            model.insert((ts, item));
            prop_assert!(index.slots() <= 2 * DB as usize + 1, "compaction bound");
            if action == 1 {
                held.push((Arc::clone(&index), model.clone()));
            }
            // At most four held at once keeps the checks cheap.
            if (action == 2 && !held.is_empty()) || held.len() > 4 {
                held.remove(0);
            }
            check(&index, &model)?;
            for (snapshot, at_hold) in &held {
                check(snapshot, at_hold)?;
            }
        }
    }
}
