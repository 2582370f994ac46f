//! Property tests for the workload generators.

use mobicache_model::Pattern;
use mobicache_sim::SimRng;
use mobicache_workload::{GapKind, GapProcess, ItemSampler, QueryGen, UpdateGen};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Samples always land inside the database, for every pattern shape.
    #[test]
    fn samples_stay_in_range(
        db in 1u32..5_000,
        seed in any::<u64>(),
        hot_frac in 0.01f64..1.0,
        hot_prob in 0.0f64..1.0,
    ) {
        let hot_hi = ((db as f64 * hot_frac) as u32).clamp(0, db - 1);
        let patterns = [
            Pattern::Uniform,
            Pattern::HotCold { hot_lo: 0, hot_hi, hot_prob },
            Pattern::Zipf { theta: 0.8 },
        ];
        let mut rng = SimRng::new(seed);
        for pattern in patterns {
            let sampler = ItemSampler::new(pattern, db);
            for _ in 0..200 {
                let item = sampler.sample(&mut rng);
                prop_assert!(item.0 < db, "{pattern:?} produced {item:?} for db {db}");
            }
        }
    }

    /// The hot/cold coin respects its probability within statistical
    /// tolerance, and cold samples never land in the hot region.
    #[test]
    fn hotcold_partition_is_respected(
        seed in any::<u64>(),
        hot_prob in 0.1f64..0.9,
    ) {
        let db = 10_000u32;
        let sampler = ItemSampler::new(
            Pattern::HotCold { hot_lo: 100, hot_hi: 199, hot_prob },
            db,
        );
        let mut rng = SimRng::new(seed);
        let n = 20_000;
        let mut hot = 0u32;
        for _ in 0..n {
            let item = sampler.sample(&mut rng);
            if (100..200).contains(&item.0) {
                hot += 1;
            }
        }
        let measured = hot as f64 / n as f64;
        // Cold samples hit the 100-item hot region with probability ~1 %,
        // so the measured hot fraction ≈ hot_prob + small correction.
        prop_assert!(
            (measured - hot_prob).abs() < 0.03,
            "hot fraction {measured} vs p {hot_prob}"
        );
    }

    /// Update transactions produce distinct in-range items and respect
    /// the minimum of one.
    #[test]
    fn update_txns_are_wellformed(
        db in 10u32..2_000,
        seed in any::<u64>(),
        mean_items in 1.0f64..8.0,
    ) {
        let g = UpdateGen::new(Pattern::Uniform, db, 100.0, mean_items);
        let mut rng = SimRng::new(seed);
        for _ in 0..50 {
            let items = g.next_txn_items(&mut rng);
            prop_assert!(!items.is_empty());
            let mut d = items.clone();
            d.sort_unstable();
            d.dedup();
            prop_assert_eq!(d.len(), items.len(), "duplicate items in txn");
            prop_assert!(items.iter().all(|i| i.0 < db));
            prop_assert!(g.next_interarrival(&mut rng) >= 0.0);
        }
    }

    /// Query reference sets respect the single-item fast path and the
    /// distinctness guarantee.
    #[test]
    fn queries_are_wellformed(db in 10u32..2_000, seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        let single = QueryGen::new(Pattern::Uniform, db, 1.0);
        let mut items = Vec::new();
        for _ in 0..50 {
            single.next_query_items(&mut rng, &mut items);
            prop_assert_eq!(items.len(), 1);
        }
        let multi = QueryGen::new(Pattern::Uniform, db, 4.0);
        for _ in 0..50 {
            multi.next_query_items(&mut rng, &mut items);
            prop_assert!(!items.is_empty());
            let mut d = items.clone();
            d.sort_unstable();
            d.dedup();
            prop_assert_eq!(d.len(), items.len());
        }
    }

    /// Gap durations are non-negative and the disconnect fraction tracks p.
    #[test]
    fn gaps_are_wellformed(seed in any::<u64>(), p in 0.0f64..1.0) {
        let g = GapProcess::new(p, 100.0, 400.0);
        let mut rng = SimRng::new(seed);
        let n = 5_000;
        let mut disc = 0u32;
        for _ in 0..n {
            let gap = g.sample(&mut rng);
            prop_assert!(gap.duration_secs >= 0.0);
            if gap.kind == GapKind::Disconnect {
                disc += 1;
            }
        }
        let measured = disc as f64 / n as f64;
        prop_assert!((measured - p).abs() < 0.05, "disc fraction {measured} vs p {p}");
    }
}
