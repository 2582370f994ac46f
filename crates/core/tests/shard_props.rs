//! Property tests for the sharded tick phases: whatever the randomized
//! state and shard geometry, the pool-sharded implementations must
//! report exactly what their serial counterparts report, in the same
//! order.
//!
//! The consistency oracle's full-cache scan ([`Oracle::scan`]) carries
//! real reduction logic — violations concatenated in client-index order
//! across chunks — and gets pinned here.
//!
//! The report fan-out itself is pinned end-to-end by the golden-digest
//! thread matrix in `tests/determinism.rs`.

use mobicache::oracle::Oracle;
use mobicache::WorkerPool;
use mobicache_cache::LruCache;
use mobicache_model::{ClientId, ItemId};
use mobicache_sim::SimTime;
use proptest::prelude::*;

fn t(s: f64) -> SimTime {
    SimTime::from_secs(s)
}

/// A randomized cache population: per client, a list of
/// `(item, version_secs, validated_secs)` entries plus a limbo flag.
/// Violations arise naturally whenever the update history contains an
/// update in `(version, validated]` for a valid entry.
type CacheSpec = Vec<(Vec<(u32, u16, u16)>, bool)>;

fn build_caches(specs: &CacheSpec) -> Vec<LruCache> {
    specs
        .iter()
        .map(|(entries, limbo)| {
            let mut cache = LruCache::new(entries.len().max(1));
            for &(item, version, validated) in entries {
                cache.insert(ItemId(item), t(version as f64), t(validated as f64));
            }
            if *limbo {
                cache.mark_all_limbo();
            }
            cache
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sharded oracle scan ≡ serial scan: same evaluation count, same
    /// violations, same order — over random update histories, random
    /// cache contents (including limbo-exempt clients) and every shard
    /// geometry from serial to more shards than clients.
    #[test]
    fn sharded_oracle_scan_matches_serial(
        updates in prop::collection::vec((0u32..48, 0u16..500), 1..120),
        specs in prop::collection::vec(
            (prop::collection::vec((0u32..48, 0u16..500, 0u16..500), 0..16), any::<bool>()),
            1..24,
        ),
        max_shards in 1usize..9,
        min_per_shard in 1usize..6,
    ) {
        let mut oracle = Oracle::new();
        let mut history = updates.clone();
        history.sort_by_key(|&(_, ts)| ts);
        for &(item, ts) in &history {
            oracle.record_update(t(ts as f64), ItemId(item));
        }
        let caches = build_caches(&specs);
        let refs: Vec<(ClientId, &LruCache)> = caches
            .iter()
            .enumerate()
            .map(|(i, cache)| (ClientId(i as u32), cache))
            .collect();
        let pool = WorkerPool::new(3);
        let serial = oracle.scan(&refs, &pool, 1, 1);
        let sharded = oracle.scan(&refs, &pool, max_shards, min_per_shard);
        prop_assert_eq!(&serial.0, &sharded.0, "check counts diverged");
        prop_assert_eq!(&serial.1, &sharded.1, "violation lists diverged");
        // The columnar mask scan (the struct-of-arrays engine's path)
        // must agree with the pair-list scan: all-true mask equals the
        // unmasked scan, and a partial mask equals the masked serial
        // reference, at every geometry.
        let all = vec![true; caches.len()];
        let cols = oracle.scan_cols(&caches, &all, &pool, max_shards, min_per_shard);
        prop_assert_eq!(&serial, &cols, "columnar all-true scan diverged");
        let mask: Vec<bool> = (0..caches.len()).map(|i| i % 2 == 0).collect();
        let mut masked_out = Vec::new();
        let mut masked_checks = 0;
        for (i, cache) in caches.iter().enumerate() {
            if mask[i] {
                masked_checks += oracle.collect_violations(ClientId(i as u32), cache, &mut masked_out);
            }
        }
        let masked = oracle.scan_cols(&caches, &mask, &pool, max_shards, min_per_shard);
        prop_assert_eq!((masked_checks, masked_out), masked, "masked columnar scan diverged");
        // And the serial scan must agree with the panicking per-client
        // API about whether the state is consistent at all.
        let clean = serial.1.is_empty();
        let per_client = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for &(client, cache) in &refs {
                oracle.assert_cache_consistent(client, cache);
            }
        }));
        prop_assert_eq!(clean, per_client.is_ok());
    }
}
