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

use mobicache_cache::{EntryState, LruCache};
use mobicache_model::{ClientId, ItemId};
use mobicache_sim::pool::{for_each_set_bit, WorkerPool};
use mobicache_sim::SimTime;
use std::collections::HashMap;
use std::fmt;

/// One breach of the consistency invariant: a valid cached entry whose
/// version misses an update that happened at or before its validation
/// time. `Display` renders the exact diagnostic the engine panics with.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    pub client: ClientId,
    pub item: ItemId,
    /// The version the cache holds.
    pub version: SimTime,
    /// The true version as of `validated_at` (a later update than
    /// `version`, or the invariant would hold).
    pub truth: SimTime,
    /// When the scheme last vouched for the entry.
    pub validated_at: SimTime,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "consistency violation at {:?}: {:?} cached version {} but an update at {} predates \
             its validation time {}",
            self.client,
            self.item,
            self.version.as_secs(),
            self.truth.as_secs(),
            self.validated_at.as_secs(),
        )
    }
}

/// Full update history for ground-truth checks.
#[derive(Default)]
pub struct Oracle {
    /// Per-item update timestamps, in order.
    history: HashMap<ItemId, Vec<SimTime>>,
    checks: u64,
}

impl Oracle {
    /// An empty oracle.
    pub fn new() -> Self {
        Oracle::default()
    }

    /// Records an update.
    pub fn record_update(&mut self, now: SimTime, item: ItemId) {
        let h = self.history.entry(item).or_default();
        debug_assert!(h.last().is_none_or(|&last| last <= now));
        h.push(now);
    }

    /// The item's version as of `asof`: its last update at or before that
    /// time (zero if none).
    pub fn version_asof(&self, item: ItemId, asof: SimTime) -> SimTime {
        match self.history.get(&item) {
            None => SimTime::ZERO,
            Some(h) => {
                let idx = h.partition_point(|&ts| ts <= asof);
                if idx == 0 {
                    SimTime::ZERO
                } else {
                    h[idx - 1]
                }
            }
        }
    }

    /// Number of invariant evaluations performed.
    pub fn checks_performed(&self) -> u64 {
        self.checks
    }

    /// Read-only invariant scan over one client's cache: violations are
    /// appended to `out` in cache-entry order, and the number of
    /// invariant evaluations is returned (fold it back in with
    /// [`Oracle::note_checks`]). Taking `&self` is what lets the tick
    /// scan shard across the worker pool.
    pub fn collect_violations(
        &self,
        client: ClientId,
        cache: &LruCache,
        out: &mut Vec<Violation>,
    ) -> u64 {
        let mut checks = 0;
        for (item, entry) in cache.entries_iter() {
            if entry.state != EntryState::Valid {
                continue;
            }
            checks += 1;
            let truth = self.version_asof(item, entry.validated_at);
            if truth > entry.version {
                out.push(Violation {
                    client,
                    item,
                    version: entry.version,
                    truth,
                    validated_at: entry.validated_at,
                });
            }
        }
        checks
    }

    /// Folds externally collected invariant evaluations into
    /// [`Oracle::checks_performed`].
    pub fn note_checks(&mut self, n: u64) {
        self.checks += n;
    }

    /// Scans every cache of a column whose bit is set in `deliver` (bit
    /// `i` of word `i / 64` is client `i`), sharded over `pool` in at
    /// most `shards` contiguous index chunks. The column index *is* the
    /// client id, so no `(ClientId, &cache)` pair list is ever built —
    /// the struct-of-arrays engine calls this straight on its cache
    /// column with its delivery words every broadcast tick. Returns the
    /// total evaluation count and every violation in column-index (then
    /// cache-entry) order, byte-identical to a serial pass whatever the
    /// shard geometry: each chunk appends to its own slot, and slots are
    /// concatenated in chunk order.
    pub fn scan_cols(
        &self,
        caches: &[LruCache],
        deliver: &[u64],
        pool: &WorkerPool,
        shards: usize,
    ) -> (u64, Vec<Violation>) {
        let mut parts: Vec<(u64, Vec<Violation>)> = (0..shards).map(|_| (0, Vec::new())).collect();
        pool.for_each_chunk(caches.len(), &mut parts, |range, (checks, out)| {
            for_each_set_bit(deliver, range, |i| {
                *checks += self.collect_violations(ClientId(i as u32), &caches[i], out);
            });
        });
        let mut checks = 0;
        let mut out = Vec::new();
        for (c, mut v) in parts {
            checks += c;
            out.append(&mut v);
        }
        (checks, out)
    }

    /// Asserts the consistency invariant over one client's cache.
    ///
    /// # Panics
    /// Panics with a diagnostic if a valid entry misses an update it
    /// should have seen.
    pub fn assert_cache_consistent(&mut self, client: ClientId, cache: &LruCache) {
        let mut out = Vec::new();
        self.checks += self.collect_violations(client, cache, &mut out);
        if let Some(v) = out.first() {
            panic!("{v}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        o.assert_cache_consistent(ClientId(0), &cache);
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
        o.assert_cache_consistent(ClientId(0), &cache);
    }

    #[test]
    fn sharded_scan_matches_serial_order_and_count() {
        let mut o = Oracle::new();
        for k in 0..8u32 {
            o.record_update(t(10.0 + k as f64), ItemId(k));
        }
        // 150 caches, so 2 and 3 shards really split (chunks are
        // 64-aligned); every seventh client holds a stale-valid entry.
        let n: usize = 150;
        let caches: Vec<LruCache> = (0..n)
            .map(|c| {
                let mut cache = LruCache::new(4);
                let version = if c % 7 == 1 { SimTime::ZERO } else { t(50.0) };
                cache.insert(ItemId(c as u32 % 8), version, t(40.0));
                cache
            })
            .collect();
        // The reference: a plain serial loop over the masked clients.
        let serial = |mask: &dyn Fn(usize) -> bool| {
            let mut out = Vec::new();
            let mut checks = 0;
            for (i, cache) in caches.iter().enumerate().filter(|&(i, _)| mask(i)) {
                checks += o.collect_violations(ClientId(i as u32), cache, &mut out);
            }
            (checks, out)
        };
        let words = |mask: &dyn Fn(usize) -> bool| {
            let mut w = vec![0u64; n.div_ceil(64)];
            for i in (0..n).filter(|&i| mask(i)) {
                w[i / 64] |= 1 << (i % 64);
            }
            w
        };
        let pool = WorkerPool::new(3);
        let all = serial(&|_| true);
        assert_eq!(all.0, n as u64);
        assert_eq!(all.1.len(), (0..n).filter(|c| c % 7 == 1).count());
        // Hide client 1 and everything in 64..100 from the mask.
        let partial: &dyn Fn(usize) -> bool = &|i| i != 1 && !(64..100).contains(&i);
        let masked = serial(partial);
        assert_eq!(masked.1.first().map(|v| v.client), Some(ClientId(8)));
        for shards in [1usize, 2, 3, 5, 16] {
            assert_eq!(
                o.scan_cols(&caches, &words(&|_| true), &pool, shards),
                all,
                "shards={shards}"
            );
            assert_eq!(
                o.scan_cols(&caches, &words(partial), &pool, shards),
                masked,
                "masked, shards={shards}"
            );
        }
    }

    #[test]
    fn note_checks_folds_into_counter() {
        let mut o = Oracle::new();
        o.note_checks(5);
        o.note_checks(2);
        assert_eq!(o.checks_performed(), 7);
    }

    #[test]
    fn limbo_entries_are_exempt() {
        let mut o = Oracle::new();
        o.record_update(t(10.0), ItemId(1));
        let mut cache = LruCache::new(4);
        cache.insert(ItemId(1), SimTime::ZERO, t(12.0));
        cache.mark_all_limbo();
        o.assert_cache_consistent(ClientId(0), &cache);
        assert_eq!(o.checks_performed(), 0);
    }
}
