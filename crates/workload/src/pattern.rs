//! Item selection according to an access pattern (Table 2).

use mobicache_model::{ItemId, Pattern};
use mobicache_sim::{SimRng, UniformRange, Zipf};

/// Samples item ids according to a [`Pattern`] over a database of fixed
/// size.
#[derive(Clone, Debug)]
pub enum ItemSampler {
    /// Uniform over the whole database.
    Uniform(UniformRange),
    /// Hot/cold regions: a coin picks the region, then uniform within it.
    HotCold {
        /// Probability the access is hot.
        hot_prob: f64,
        /// Uniform over the hot region `[hot_lo, hot_hi]`.
        hot: UniformRange,
        /// First hot item (for cold-region index mapping).
        hot_lo: u32,
        /// Hot region length.
        hot_len: u32,
        /// Number of cold items.
        cold_len: u32,
    },
    /// Zipf-by-rank, rank `r` mapping to item `r − 1`.
    Zipf(Zipf),
}

impl ItemSampler {
    /// Builds a sampler for `pattern` over `db_size` items.
    ///
    /// # Panics
    /// Panics if the pattern is inconsistent with the database size
    /// (callers validate via `SimConfig::validate`, so this is a
    /// programming-error guard).
    pub fn new(pattern: Pattern, db_size: u32) -> Self {
        assert!(db_size > 0, "empty database");
        match pattern {
            Pattern::Uniform => {
                ItemSampler::Uniform(UniformRange::new_inclusive(0, db_size as u64 - 1))
            }
            Pattern::HotCold {
                hot_lo,
                hot_hi,
                hot_prob,
            } => {
                assert!(
                    hot_lo <= hot_hi && hot_hi < db_size,
                    "hot region out of range"
                );
                let hot_len = hot_hi - hot_lo + 1;
                // A hot region spanning the whole database leaves no cold
                // items; every access is then hot regardless of `hot_prob`
                // (`sample` short-circuits on `cold_len == 0`).
                let cold_len = db_size - hot_len;
                ItemSampler::HotCold {
                    hot_prob,
                    hot: UniformRange::new_inclusive(hot_lo as u64, hot_hi as u64),
                    hot_lo,
                    hot_len,
                    cold_len,
                }
            }
            Pattern::Zipf { theta } => ItemSampler::Zipf(Zipf::new(db_size as u64, theta)),
        }
    }

    /// Draws one item.
    pub fn sample(&self, rng: &mut SimRng) -> ItemId {
        match self {
            ItemSampler::Uniform(u) => ItemId(u.sample(rng) as u32),
            ItemSampler::HotCold {
                hot_prob,
                hot,
                hot_lo,
                hot_len,
                cold_len,
            } => {
                if *cold_len == 0 || rng.coin(*hot_prob) {
                    ItemId(hot.sample(rng) as u32)
                } else {
                    // Uniform over the cold region: indices 0..cold_len
                    // mapped around the hot block.
                    let k = rng.next_below(*cold_len as u64) as u32;
                    if k < *hot_lo {
                        ItemId(k)
                    } else {
                        ItemId(k + hot_len)
                    }
                }
            }
            ItemSampler::Zipf(z) => ItemId((z.sample(rng) - 1) as u32),
        }
    }

    /// Draws `count` **distinct** items (by rejection; `count` is clamped
    /// to the database size) into `out`, replacing its contents.
    pub fn sample_distinct(
        &self,
        rng: &mut SimRng,
        count: usize,
        db_size: u32,
        out: &mut Vec<ItemId>,
    ) {
        let count = count.min(db_size as usize);
        out.clear();
        out.reserve(count);
        // Rejection is fine: the model draws ≤ 10 items from databases of
        // ≥ 1000, so collisions are rare.
        let mut guard = 0u32;
        while out.len() < count {
            let item = self.sample(rng);
            if !out.contains(&item) {
                out.push(item);
            }
            guard += 1;
            if guard > 64 * count as u32 + 1024 {
                // Extremely skewed pattern on a tiny database: fall back
                // to a deterministic sweep for the remainder.
                for raw in 0..db_size {
                    let item = ItemId(raw);
                    if out.len() == count {
                        break;
                    }
                    if !out.contains(&item) {
                        out.push(item);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(0xFEED)
    }

    #[test]
    fn uniform_covers_whole_database() {
        let s = ItemSampler::new(Pattern::Uniform, 10);
        let mut r = rng();
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[s.sample(&mut r).index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn hotcold_respects_probability() {
        let s = ItemSampler::new(
            Pattern::HotCold {
                hot_lo: 0,
                hot_hi: 99,
                hot_prob: 0.8,
            },
            10_000,
        );
        let mut r = rng();
        let n = 100_000;
        let hot = (0..n).filter(|_| s.sample(&mut r).0 < 100).count() as f64 / n as f64;
        assert!((hot - 0.8).abs() < 0.01, "hot fraction {hot}");
    }

    #[test]
    fn hotcold_cold_region_skips_hot_block() {
        // Hot region in the middle: cold samples must never land in it.
        let s = ItemSampler::new(
            Pattern::HotCold {
                hot_lo: 4,
                hot_hi: 6,
                hot_prob: 0.0,
            },
            10,
        );
        let mut r = rng();
        let mut seen = [false; 10];
        for _ in 0..2000 {
            let item = s.sample(&mut r);
            assert!(!(4..=6).contains(&item.0), "cold sample hit hot region");
            seen[item.index()] = true;
        }
        for (i, &b) in seen.iter().enumerate() {
            if (4..=6).contains(&(i as u32)) {
                assert!(!b);
            } else {
                assert!(b, "cold item {i} never sampled");
            }
        }
    }

    #[test]
    fn hotcold_all_hot() {
        let s = ItemSampler::new(
            Pattern::HotCold {
                hot_lo: 0,
                hot_hi: 9,
                hot_prob: 1.0,
            },
            10,
        );
        let mut r = rng();
        for _ in 0..100 {
            assert!(s.sample(&mut r).0 < 10);
        }
    }

    #[test]
    fn zipf_maps_rank_to_item() {
        let s = ItemSampler::new(Pattern::Zipf { theta: 1.0 }, 100);
        let mut r = rng();
        let mut counts = [0u32; 100];
        for _ in 0..100_000 {
            counts[s.sample(&mut r).index()] += 1;
        }
        assert!(counts[0] > counts[50], "item 0 must dominate");
    }

    #[test]
    fn distinct_sampling_has_no_duplicates() {
        let s = ItemSampler::new(Pattern::Uniform, 1000);
        let mut r = rng();
        let mut items = Vec::new();
        for _ in 0..100 {
            s.sample_distinct(&mut r, 10, 1000, &mut items);
            let mut dedup = items.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), items.len());
            assert_eq!(items.len(), 10);
        }
    }

    #[test]
    fn distinct_sampling_clamps_to_db() {
        let s = ItemSampler::new(Pattern::Uniform, 3);
        let mut r = rng();
        // Whatever `out` held is replaced.
        let mut items = vec![ItemId(7)];
        s.sample_distinct(&mut r, 10, 3, &mut items);
        assert_eq!(items.len(), 3);
        assert!(items.iter().all(|i| i.0 < 3));
    }

    #[test]
    fn distinct_sampling_on_tiny_hot_region() {
        // hot_prob 1.0 with a 2-item hot region: rejection alone could
        // spin; the fallback sweep must complete the request.
        let s = ItemSampler::new(
            Pattern::HotCold {
                hot_lo: 0,
                hot_hi: 1,
                hot_prob: 1.0,
            },
            100,
        );
        let mut r = rng();
        let mut items = Vec::new();
        s.sample_distinct(&mut r, 5, 100, &mut items);
        assert_eq!(items.len(), 5);
    }
}
