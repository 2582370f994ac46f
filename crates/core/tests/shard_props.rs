//! Property test for the consistency oracle's masked column scan
//! ([`Oracle::scan_cols`]): whatever the randomized state and delivery
//! mask, it must report exactly what a plain loop over
//! [`Oracle::collect_violations`] reports, in the same order.
//!
//! The report fan-out itself is pinned end-to-end by the golden digests
//! in `tests/determinism.rs`.

use mobicache::oracle::Oracle;
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

    /// Masked oracle scan ≡ per-client loop: same evaluation count, same
    /// violations, same order — over random update histories, random
    /// cache contents (including limbo-exempt clients) and random
    /// delivery masks.
    #[test]
    fn sharded_oracle_scan_matches_serial(
        updates in prop::collection::vec((0u32..48, 0u16..500), 1..120),
        specs in prop::collection::vec(
            (prop::collection::vec((0u32..48, 0u16..500, 0u16..500), 0..6), any::<bool>()),
            1..300,
        ),
        mask_seed in any::<u64>(),
    ) {
        let mut oracle = Oracle::new();
        let mut history = updates.clone();
        history.sort_by_key(|&(_, ts)| ts);
        for &(item, ts) in &history {
            oracle.record_update(t(ts as f64), ItemId(item));
        }
        let caches = build_caches(&specs);
        let n = caches.len();
        // The reference: a plain loop over the masked clients.
        let serial = |mask: &[u64]| {
            let mut out = Vec::new();
            let mut checks = 0;
            for (i, cache) in caches.iter().enumerate() {
                if mask[i / 64] & (1 << (i % 64)) != 0 {
                    checks += oracle.collect_violations(ClientId(i as u32), cache, &mut out);
                }
            }
            (checks, out)
        };
        // An all-ones mask (stray bits past the population included, as
        // the engine's full-population check passes) and a random one.
        let all = vec![!0u64; n.div_ceil(64)];
        let mut state = mask_seed | 1;
        let random: Vec<u64> = all
            .iter()
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect();
        for mask in [&all, &random] {
            let reference = serial(mask);
            let scanned = oracle.scan_cols(&caches, mask);
            prop_assert_eq!(&reference.0, &scanned.0, "check counts diverged");
            prop_assert_eq!(&reference.1, &scanned.1, "violation lists diverged");
        }
        // And the full scan must agree with the panicking per-client
        // API about whether the state is consistent at all.
        let clean = serial(&all).1.is_empty();
        let per_client = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for (i, cache) in caches.iter().enumerate() {
                oracle.assert_cache_consistent(ClientId(i as u32), cache);
            }
        }));
        prop_assert_eq!(clean, per_client.is_ok());
    }
}
