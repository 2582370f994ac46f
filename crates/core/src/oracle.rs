//! Ground-truth consistency oracle.
//!
//! When enabled ([`RunOptions::check_consistency`](crate::RunOptions)),
//! the oracle records the full update history and, after every message a
//! client processes, asserts the cache-consistency invariant that every
//! invalidation scheme must uphold:
//!
//! > for every **valid** cached entry `(item, version, validated_at)`
//! > there is no server update `u` with `version < u ≤ validated_at`.
//!
//! In words: if the scheme vouched for an entry at `validated_at`, the
//! cached copy really was current at that moment. A violation means a
//! stale read is possible — the one bug class an invalidation protocol
//! exists to prevent. (Entries in limbo are exempt: they are barred from
//! answering queries precisely because nothing has vouched for them.)

use mobicache_cache::{CacheEntry, EntryState};
use mobicache_model::{ClientId, ItemId};
use mobicache_sim::SimTime;

/// Full update history for ground-truth checks.
#[derive(Default)]
pub struct Oracle {
    /// Per-item update timestamps, in order, indexed by `ItemId`.
    history: Vec<Vec<SimTime>>,
    checks: u64,
}

impl Oracle {
    /// An empty oracle.
    pub fn new() -> Self {
        Oracle::default()
    }

    /// Records an update.
    pub fn record_update(&mut self, now: SimTime, item: ItemId) {
        let idx = item.0 as usize;
        if idx >= self.history.len() {
            self.history.resize_with(idx + 1, Vec::new);
        }
        let h = &mut self.history[idx];
        debug_assert!(h.last().is_none_or(|&last| last <= now));
        h.push(now);
    }

    /// The item's update timestamps, in order (empty if never updated).
    fn updates(&self, item: ItemId) -> &[SimTime] {
        self.history.get(item.0 as usize).map_or(&[], Vec::as_slice)
    }

    /// The item's version as of `asof`: its last update at or before that
    /// time (zero if none).
    pub fn version_asof(&self, item: ItemId, asof: SimTime) -> SimTime {
        let h = self.updates(item);
        let idx = h.partition_point(|&ts| ts <= asof);
        idx.checked_sub(1).map_or(SimTime::ZERO, |i| h[i])
    }

    /// Number of invariant evaluations performed.
    pub fn checks_performed(&self) -> u64 {
        self.checks
    }

    /// Asserts the consistency invariant over one client's cache
    /// entries, with their effective state, one evaluation per valid
    /// entry.
    ///
    /// # Panics
    /// Panics with a diagnostic at the first valid entry, in cache-entry
    /// order, that misses an update it should have seen.
    pub fn assert_cache_consistent(
        &mut self,
        client: ClientId,
        entries: impl IntoIterator<Item = (ItemId, CacheEntry)>,
    ) {
        for (item, entry) in entries {
            if entry.state != EntryState::Valid {
                continue;
            }
            self.checks += 1;
            // No update after the cached version: nothing to miss.
            if self
                .updates(item)
                .last()
                .is_none_or(|&last| last <= entry.version)
            {
                continue;
            }
            let truth = self.version_asof(item, entry.validated_at);
            if truth > entry.version {
                panic!(
                    "consistency violation at {client:?}: {item:?} cached version {} but an \
                     update at {} predates its validation time {}",
                    entry.version.as_secs(),
                    truth.as_secs(),
                    entry.validated_at.as_secs(),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobicache_cache::LruCache;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn version_asof_tracks_history() {
        let mut o = Oracle::new();
        o.record_update(t(10.0), ItemId(1));
        o.record_update(t(20.0), ItemId(1));
        assert_eq!(o.version_asof(ItemId(1), t(5.0)), SimTime::ZERO);
        assert_eq!(o.version_asof(ItemId(1), t(10.0)), t(10.0));
        assert_eq!(o.version_asof(ItemId(1), t(15.0)), t(10.0));
        assert_eq!(o.version_asof(ItemId(1), t(99.0)), t(20.0));
        assert_eq!(o.version_asof(ItemId(2), t(99.0)), SimTime::ZERO);
    }

    #[test]
    fn consistent_cache_passes() {
        let mut o = Oracle::new();
        o.record_update(t(10.0), ItemId(1));
        let mut cache = LruCache::new(4);
        cache.insert(ItemId(1), t(10.0), t(12.0)); // fresh copy
        o.assert_cache_consistent(ClientId(0), cache.entries_iter());
        assert_eq!(o.checks_performed(), 1);
    }

    #[test]
    #[should_panic(expected = "consistency violation")]
    fn stale_valid_entry_is_caught() {
        let mut o = Oracle::new();
        o.record_update(t(10.0), ItemId(1));
        let mut cache = LruCache::new(4);
        // Claims validity at t=12 with a pre-update version.
        cache.insert(ItemId(1), SimTime::ZERO, t(12.0));
        o.assert_cache_consistent(ClientId(0), cache.entries_iter());
    }

    #[test]
    fn checks_count_entries_the_fast_path_skips() {
        let mut o = Oracle::new();
        o.record_update(t(10.0), ItemId(1));
        let mut cache = LruCache::new(4);
        cache.insert(ItemId(1), t(10.0), t(12.0)); // last update ≤ version
        cache.insert(ItemId(2), SimTime::ZERO, t(12.0)); // never updated
        cache.insert(ItemId(9), SimTime::ZERO, t(5.0)); // past the history
        o.assert_cache_consistent(ClientId(0), cache.entries_iter());
        assert_eq!(o.checks_performed(), 3);
    }

    #[test]
    #[should_panic(
        expected = "consistency violation at client#3: item#2 cached version 10 but an \
                    update at 20 predates its validation time 25"
    )]
    fn first_stale_entry_in_cache_order_panics() {
        let mut o = Oracle::new();
        for (at, item) in [(10.0, 1), (10.0, 2), (20.0, 2), (30.0, 1)] {
            o.record_update(t(at), ItemId(item));
        }
        let mut cache = LruCache::new(4);
        // Updated again after its validation time: not stale.
        cache.insert(ItemId(1), t(10.0), t(25.0));
        cache.insert(ItemId(2), t(10.0), t(25.0));
        o.assert_cache_consistent(ClientId(3), cache.entries_iter());
    }

    #[test]
    fn limbo_entries_are_exempt() {
        let mut o = Oracle::new();
        o.record_update(t(10.0), ItemId(1));
        let mut cache = LruCache::new(4);
        cache.insert(ItemId(1), SimTime::ZERO, t(12.0));
        cache.mark_all_limbo();
        o.assert_cache_consistent(ClientId(0), cache.entries_iter());
        assert_eq!(o.checks_performed(), 0);
    }
}
