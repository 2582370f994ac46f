//! The server's update history.
//!
//! Three access paths, all cheap:
//!
//! * **point lookup** — the current version (last update time) of an item,
//!   for data delivery and validity checking: `O(1)`;
//! * **window extraction** — every item updated after a timestamp, for
//!   `TS` window reports (plain, enlarged, and `AT`): `O(log U + k)` via
//!   the shared [`RecencyIndex`] (`U` = items ever updated, `k` = result
//!   size);
//! * **count** — how many items were updated after a timestamp, for
//!   pricing reports and the adaptive schemes' `N/2` test: a popcount
//!   over the index's liveness bitmap, `O(log U + s/64)` for the `s`
//!   index slots after it, whatever the count.
//!
//! A bit-sequences report is not extracted at all: it holds a second
//! handle to the same index ([`UpdateLog::share`]). An update folds into
//! the index in place whenever the log holds the only handle. While a
//! report still holds one, the update waits in a short pending list, and
//! [`UpdateLog::settle`] folds the pending updates in before the next
//! read — copying the index only if a report is *still* held then. Either
//! way a held report never sees an update applied after it was built.

use mobicache_model::ItemId;
use mobicache_reports::RecencyIndex;
use mobicache_sim::SimTime;
use std::sync::Arc;

/// Per-item last-update times with a shared recency index.
pub struct UpdateLog {
    db_size: u32,
    /// Last update time per item; `None` until first updated. Initial
    /// versions are [`SimTime::ZERO`] — matching clients, which treat a
    /// never-updated item's version as zero.
    last_update: Vec<Option<SimTime>>,
    /// The recency index, shared with every live BS report built from it.
    index: Arc<RecencyIndex>,
    /// Updates applied while a report held the index, oldest first; not
    /// yet in `index`.
    pending: Vec<(SimTime, ItemId)>,
    /// Index copies forced by folding into a still-shared index.
    copies: u64,
    total_updates: u64,
}

impl UpdateLog {
    /// An empty log over `db_size` items.
    pub fn new(db_size: u32) -> Self {
        assert!(db_size > 0, "empty database");
        UpdateLog {
            db_size,
            last_update: vec![None; db_size as usize],
            index: Arc::new(RecencyIndex::new(db_size)),
            pending: Vec::new(),
            copies: 0,
            total_updates: 0,
        }
    }

    /// Database size `N`.
    pub fn db_size(&self) -> u32 {
        self.db_size
    }

    /// Total update events applied (not distinct items).
    pub fn total_updates(&self) -> u64 {
        self.total_updates
    }

    /// Times a fold had to copy the index because a report still held it
    /// (observability only).
    pub fn recency_copies(&self) -> u64 {
        self.copies
    }

    /// Records an update of `item` at time `now`. Returns the item's
    /// previous version (`SimTime::ZERO` if never updated).
    ///
    /// The index takes the update at once when no report shares it;
    /// otherwise the update is queued for [`UpdateLog::settle`].
    ///
    /// # Panics
    /// Panics if `item` is out of range or time goes backwards for the
    /// item.
    pub fn apply_update(&mut self, now: SimTime, item: ItemId) -> SimTime {
        let slot = &mut self.last_update[item.index()];
        let prev = match *slot {
            Some(prev) => {
                assert!(prev <= now, "update time went backwards for {item:?}");
                prev
            }
            None => SimTime::ZERO,
        };
        *slot = Some(now);
        self.total_updates += 1;
        match Arc::get_mut(&mut self.index) {
            Some(index) => {
                for (ts, queued) in self.pending.drain(..) {
                    index.insert(ts, queued);
                }
                index.insert(now, item);
            }
            None => self.pending.push((now, item)),
        }
        prev
    }

    /// Folds the pending updates into the index, copying it first if a
    /// report still shares it. `O(k)` for `k` pending updates when
    /// nothing is shared. Index reads (window extraction, counts, the
    /// recency walk) panic on an unsettled log; versions never wait.
    pub fn settle(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        if Arc::get_mut(&mut self.index).is_none() {
            self.copies += 1;
        }
        let index = Arc::make_mut(&mut self.index);
        for (ts, item) in self.pending.drain(..) {
            index.insert(ts, item);
        }
    }

    /// A handle to the settled index, for a report to hold: `O(k)` for
    /// `k` pending updates, plus an index copy if an older report still
    /// holds it.
    pub fn share(&mut self) -> Arc<RecencyIndex> {
        self.settle();
        Arc::clone(&self.index)
    }

    /// The index, which must be settled.
    #[inline]
    fn settled(&self) -> &RecencyIndex {
        assert!(
            self.pending.is_empty(),
            "UpdateLog index read with unsettled updates; call settle() first"
        );
        &self.index
    }

    /// Number of items updated at least once.
    pub fn distinct_updated(&self) -> usize {
        self.settled().live_len()
    }

    /// The item's current version: its last update time, or
    /// [`SimTime::ZERO`] if never updated.
    #[inline]
    pub fn version(&self, item: ItemId) -> SimTime {
        self.last_update[item.index()].unwrap_or(SimTime::ZERO)
    }

    /// `true` when the cached copy `version` of `item` is still current.
    #[inline]
    pub fn is_valid(&self, item: ItemId, version: SimTime) -> bool {
        self.version(item) <= version
    }

    /// Time of the most recent update anywhere, if any (`TS(B_0)`).
    pub fn latest_update(&self) -> Option<SimTime> {
        self.settled().latest()
    }

    /// Every item updated strictly after `since`, as `(item, ts)` pairs
    /// (ascending timestamp, item-ascending within ties), without
    /// allocating: `O(log U + k)` for `k` results plus skipped
    /// tombstones.
    pub fn updates_since_iter(
        &self,
        since: SimTime,
    ) -> impl Iterator<Item = (ItemId, SimTime)> + '_ {
        self.settled().since(since)
    }

    /// Number of items updated strictly after `since`: a popcount over
    /// the index's liveness bitmap, `O(log s + s/64)` for the `s` index
    /// slots after `since` — no walk of the updates themselves.
    pub fn count_since(&self, since: SimTime) -> usize {
        self.settled().count_since(since)
    }

    /// Items ordered most recently updated first.
    pub fn recency_desc(&self) -> impl Iterator<Item = (ItemId, SimTime)> + '_ {
        self.settled().desc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn versions_start_at_zero() {
        let log = UpdateLog::new(10);
        assert_eq!(log.version(ItemId(3)), SimTime::ZERO);
        assert!(log.is_valid(ItemId(3), SimTime::ZERO));
        assert_eq!(log.latest_update(), None);
    }

    #[test]
    fn apply_and_lookup() {
        let mut log = UpdateLog::new(10);
        let prev = log.apply_update(t(5.0), ItemId(2));
        assert_eq!(prev, SimTime::ZERO);
        assert_eq!(log.version(ItemId(2)), t(5.0));
        assert!(!log.is_valid(ItemId(2), t(4.0)));
        assert!(log.is_valid(ItemId(2), t(5.0)));
        let prev = log.apply_update(t(9.0), ItemId(2));
        assert_eq!(prev, t(5.0));
        assert_eq!(log.total_updates(), 2);
        assert_eq!(log.distinct_updated(), 1);
    }

    #[test]
    fn updates_since_is_strict() {
        let mut log = UpdateLog::new(10);
        log.apply_update(t(1.0), ItemId(1));
        log.apply_update(t(2.0), ItemId(2));
        log.apply_update(t(3.0), ItemId(3));
        let got: Vec<_> = log.updates_since_iter(t(2.0)).collect();
        assert_eq!(got, vec![(ItemId(3), t(3.0))]);
        assert_eq!(log.count_since(t(0.0)), 3);
        assert_eq!(log.count_since(t(3.0)), 0);
    }

    #[test]
    fn reupdate_moves_item_in_recency() {
        let mut log = UpdateLog::new(10);
        log.apply_update(t(1.0), ItemId(1));
        log.apply_update(t(2.0), ItemId(2));
        log.apply_update(t(3.0), ItemId(1));
        let order: Vec<ItemId> = log.recency_desc().map(|(i, _)| i).collect();
        assert_eq!(order, vec![ItemId(1), ItemId(2)]);
        // The stale (1.0, item1) entry must be dead.
        assert_eq!(log.count_since(t(0.0)), 2);
        assert_eq!(log.latest_update(), Some(t(3.0)));
    }

    #[test]
    fn recency_breaks_timestamp_ties_deterministically() {
        let mut log = UpdateLog::new(10);
        log.apply_update(t(1.0), ItemId(5));
        log.apply_update(t(1.0), ItemId(3));
        let order: Vec<ItemId> = log.recency_desc().map(|(i, _)| i).collect();
        assert_eq!(order, vec![ItemId(5), ItemId(3)]);
    }

    #[test]
    fn count_matches_the_updates_since() {
        let mut log = UpdateLog::new(100);
        for i in 0..20u32 {
            log.apply_update(t(1.0 + f64::from(i)), ItemId(i));
        }
        // Re-updates leave tombstones the popcount must skip.
        for i in 0..5u32 {
            log.apply_update(t(30.0), ItemId(i));
        }
        for since in [0.0, 1.0, 10.0, 20.0, 25.0, 30.0] {
            let walked = log.updates_since_iter(t(since)).count();
            assert_eq!(log.count_since(t(since)), walked, "since={since}");
        }
        assert_eq!(log.count_since(t(0.0)), 20);
        assert_eq!(log.count_since(t(20.0)), 5);
    }

    #[test]
    fn tombstones_are_skipped_and_compacted() {
        let mut log = UpdateLog::new(4);
        // Hammer two items so re-updates pile up tombstones and force
        // compactions; the views must never show a dead entry.
        for k in 0..50u32 {
            log.apply_update(t(1.0 + f64::from(k)), ItemId(k % 2));
            assert_eq!(log.distinct_updated(), 1 + (k > 0) as usize);
            let desc: Vec<ItemId> = log.recency_desc().map(|(i, _)| i).collect();
            assert_eq!(desc.len(), log.distinct_updated());
            assert_eq!(desc[0], ItemId(k % 2), "newest first");
        }
        assert_eq!(log.total_updates(), 50);
        assert_eq!(log.count_since(SimTime::ZERO), 2);
        // Compaction kept the index smaller than the update count.
        assert!(log.index.slots() <= 4, "tombstones never compacted");
    }

    #[test]
    fn a_shared_index_defers_updates_until_settled() {
        let mut log = UpdateLog::new(8);
        log.apply_update(t(1.0), ItemId(1));
        let held = log.share();
        // Versions move at once; the index waits.
        assert_eq!(log.apply_update(t(2.0), ItemId(2)), SimTime::ZERO);
        assert_eq!(log.version(ItemId(2)), t(2.0));
        assert_eq!(log.pending.len(), 1);
        // Settling while the report is held copies; the held snapshot
        // keeps saying what it said.
        log.settle();
        assert_eq!(log.recency_copies(), 1);
        assert_eq!(held.desc().collect::<Vec<_>>(), vec![(ItemId(1), t(1.0))]);
        assert_eq!(log.count_since(SimTime::ZERO), 2);
        // Released before the next update: it folds in place.
        let held = log.share();
        drop(held);
        log.apply_update(t(3.0), ItemId(3));
        assert!(log.pending.is_empty());
        log.settle();
        assert_eq!(log.recency_copies(), 1);
    }

    #[test]
    #[should_panic(expected = "unsettled")]
    fn reading_an_unsettled_log_panics() {
        let mut log = UpdateLog::new(8);
        let _held = log.share();
        log.apply_update(t(1.0), ItemId(1));
        log.count_since(SimTime::ZERO);
    }

    #[test]
    fn equal_time_reupdate_stays_live() {
        let mut log = UpdateLog::new(4);
        log.apply_update(t(1.0), ItemId(1));
        log.apply_update(t(1.0), ItemId(1)); // prev == now is allowed
        assert_eq!(log.distinct_updated(), 1);
        assert_eq!(log.latest_update(), Some(t(1.0)));
        assert_eq!(
            log.updates_since_iter(SimTime::ZERO).collect::<Vec<_>>(),
            vec![(ItemId(1), t(1.0))]
        );
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn time_travel_rejected() {
        let mut log = UpdateLog::new(10);
        log.apply_update(t(5.0), ItemId(1));
        log.apply_update(t(4.0), ItemId(1));
    }
}
