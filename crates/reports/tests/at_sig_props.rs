//! Property tests for the `AT` and `SIG` report algorithms. The `SIG`
//! mask decode the clients run is checked against the hash-per-item
//! reference, `SigReport::decide`.

use mobicache_model::ItemId;
use mobicache_reports::{AtDecision, AtReport, SigDecision, SigReport, Signer};
use mobicache_sim::SimTime;
use proptest::prelude::*;
use std::collections::HashMap;

fn t(s: f64) -> SimTime {
    SimTime::from_secs(s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// AT soundness: a covered client never keeps an item listed in the
    /// report, and never drops an unlisted one.
    #[test]
    fn at_invalidation_is_exact_for_covered_clients(
        listed in prop::collection::hash_set(0u32..64, 0..20),
        cached in prop::collection::hash_set(0u32..64, 0..20),
    ) {
        let report = AtReport {
            broadcast_at: t(100.0),
            prev_broadcast: t(80.0),
            items: listed.iter().copied().map(ItemId).collect(),
        };
        match report.decide(t(80.0), cached.iter().copied().map(ItemId)) {
            AtDecision::Invalidate(stale) => {
                for item in &cached {
                    let should_drop = listed.contains(item);
                    prop_assert_eq!(stale.contains(&ItemId(*item)), should_drop);
                }
            }
            other => return Err(TestCaseError::fail(format!("covered client got {other:?}"))),
        }
    }

    /// AT refuses any client that missed even part of the last interval.
    #[test]
    fn at_refuses_stale_clients(tlb in 0.0..79.99f64) {
        let report = AtReport {
            broadcast_at: t(100.0),
            prev_broadcast: t(80.0),
            items: vec![],
        };
        prop_assert_eq!(report.decide(t(tlb), vec![ItemId(0)]), AtDecision::NotCovered);
    }

    /// SIG has no false negatives: every genuinely updated cached item is
    /// flagged (XOR cancellation across 32x32-bit signatures is
    /// negligible at these sizes, and the seed is fixed).
    #[test]
    fn sig_flags_every_updated_cached_item(
        updates in prop::collection::hash_map(0u32..128, 1.0f64..100.0, 1..10),
        cached in prop::collection::hash_set(0u32..128, 0..40),
    ) {
        let signer = Signer::new(32, 32, 42, 128);
        let n = 128usize;
        let base_versions = vec![SimTime::ZERO; n];
        let baseline = signer.combine(&base_versions);
        let mut versions = base_versions;
        for (&item, &ts) in &updates {
            versions[item as usize] = t(ts);
        }
        let report = SigReport { broadcast_at: t(200.0), combined: signer.combine(&versions) };
        match report.decide(&signer, Some(&baseline), cached.iter().copied().map(ItemId)) {
            SigDecision::Invalidate(flagged) => {
                for item in cached.iter().filter(|i| updates.contains_key(i)) {
                    prop_assert!(
                        flagged.contains(&ItemId(*item)),
                        "updated item {} not flagged", item
                    );
                }
            }
            other => return Err(TestCaseError::fail(format!("{other:?}"))),
        }
    }

    /// SIG with an unchanged database flags nothing.
    #[test]
    fn sig_unchanged_database_flags_nothing(
        cached in prop::collection::hash_set(0u32..128, 0..40),
        seed in 0u64..1000,
    ) {
        let signer = Signer::new(32, 32, seed, 128);
        let versions = vec![SimTime::ZERO; 128];
        let baseline = signer.combine(&versions);
        let report = SigReport { broadcast_at: t(10.0), combined: signer.combine(&versions) };
        match report.decide(&signer, Some(&baseline), cached.into_iter().map(ItemId)) {
            SigDecision::Invalidate(flagged) => prop_assert!(flagged.is_empty()),
            other => return Err(TestCaseError::fail(format!("{other:?}"))),
        }
    }

    /// The incremental XOR maintenance used by the server equals batch
    /// recomputation for any update sequence.
    #[test]
    fn sig_incremental_equals_batch(
        updates in prop::collection::vec((0u32..64, 1.0f64..1000.0), 0..50),
    ) {
        let signer = Signer::new(16, 24, 9, 64);
        let n = 64usize;
        let mut versions = vec![SimTime::ZERO; n];
        let mut combined = signer.combine(&versions).to_vec();
        let mut latest: HashMap<u32, f64> = HashMap::new();
        // Apply updates in increasing-time order, as the server would.
        let mut ordered = updates.clone();
        ordered.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        for (item, ts) in ordered {
            let prev = latest.insert(item, ts).map_or(SimTime::ZERO, t);
            let delta = signer.item_signature(ItemId(item), prev)
                ^ signer.item_signature(ItemId(item), t(ts));
            for (j, sig) in combined.iter_mut().enumerate() {
                if signer.is_member(j as u32, ItemId(item)) {
                    *sig ^= delta;
                }
            }
            versions[item as usize] = t(ts);
        }
        prop_assert_eq!(combined, signer.combine(&versions).to_vec());
    }

    /// The mask decode flags exactly what the hash-per-item reference
    /// flags, in cache order, for any signature count up to the mask
    /// width: against a baseline whose signatures differ from the
    /// report's sparsely, densely, all or not at all, and for any cache.
    #[test]
    fn sig_mask_decode_equals_the_hashed_reference(
        (num_sigs, seed) in (1u32..65, any::<u64>()),
        updates in prop::collection::hash_map(0u32..256, 1.0f64..100.0, 0..8),
        (density, a, b, c) in (0u32..5, any::<u64>(), any::<u64>(), any::<u64>()),
        cached in prop::collection::vec(0u32..256, 0..80),
    ) {
        let signer = Signer::new(num_sigs, 32, seed, 256);
        let mut versions = vec![SimTime::ZERO; 256];
        for (&item, &ts) in &updates {
            versions[item as usize] = t(ts);
        }
        let report = SigReport { broadcast_at: t(200.0), combined: signer.combine(&versions) };
        let flips = match density {
            0 => 0,
            1 => a & b,
            2 => a,
            3 => a | b | c,
            _ => u64::MAX,
        };
        let baseline: Vec<u64> = report
            .combined
            .iter()
            .enumerate()
            .map(|(j, &s)| s ^ (((flips >> j) & 1) * (c | 1)))
            .collect();
        let cached: Vec<ItemId> = cached.into_iter().map(ItemId).collect();
        let mut decoded = Vec::new();
        report.stale_into(&signer, &baseline, cached.iter().copied(), &mut decoded);
        let reference = report.decide(&signer, Some(&baseline), cached.iter().copied());
        prop_assert_eq!(SigDecision::Invalidate(decoded), reference);
    }
}
