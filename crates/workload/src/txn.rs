//! Update transactions and query reference sets.

use crate::pattern::ItemSampler;
use mobicache_model::{ItemId, Pattern};
use mobicache_sim::{Exp, Poisson, SimRng};

/// Generates the server's update process: exponentially distributed
/// transaction inter-arrival times, each transaction updating a
/// Poisson-distributed (≥ 1) number of distinct items drawn from the
/// update pattern.
#[derive(Clone, Debug)]
pub struct UpdateGen {
    interarrival: Exp,
    txn_size: Poisson,
    sampler: ItemSampler,
    db_size: u32,
}

impl UpdateGen {
    /// A generator with Table-1 semantics.
    pub fn new(
        pattern: Pattern,
        db_size: u32,
        mean_interarrival_secs: f64,
        mean_items_per_txn: f64,
    ) -> Self {
        UpdateGen {
            interarrival: Exp::with_mean(mean_interarrival_secs),
            txn_size: Poisson::with_mean(mean_items_per_txn),
            sampler: ItemSampler::new(pattern, db_size),
            db_size,
        }
    }

    /// Time until the next update transaction.
    pub fn next_interarrival(&self, rng: &mut SimRng) -> f64 {
        self.interarrival.sample(rng)
    }

    /// The distinct items touched by one transaction.
    pub fn next_txn_items(&self, rng: &mut SimRng) -> Vec<ItemId> {
        let count = self.txn_size.sample_at_least_one(rng) as usize;
        let mut items = Vec::new();
        self.sampler
            .sample_distinct(rng, count, self.db_size, &mut items);
        items
    }
}

/// Generates a client's query reference sets: a Poisson-distributed (≥ 1)
/// number of distinct items drawn from the client's query pattern.
///
/// With `items_per_query_mean = 1.0` the common case degenerates to a
/// single item per query (see DESIGN.md §3 on the Table 1 / §5
/// reconciliation) — the count sampler is bypassed entirely so that the
/// "1 item" configuration is deterministic, not "Poisson averaging 1".
#[derive(Clone, Debug)]
pub struct QueryGen {
    count: Option<Poisson>,
    sampler: ItemSampler,
    db_size: u32,
}

impl QueryGen {
    /// A generator for a client with the given query pattern.
    pub fn new(pattern: Pattern, db_size: u32, items_per_query_mean: f64) -> Self {
        let count = if items_per_query_mean == 1.0 {
            None
        } else {
            Some(Poisson::with_mean(items_per_query_mean))
        };
        QueryGen {
            count,
            sampler: ItemSampler::new(pattern, db_size),
            db_size,
        }
    }

    /// The distinct items referenced by one query, replacing the
    /// contents of `items`: a caller that keeps one buffer across
    /// queries allocates only when a query outgrows it.
    pub fn next_query_items(&self, rng: &mut SimRng, items: &mut Vec<ItemId>) {
        match &self.count {
            None => {
                items.clear();
                items.push(self.sampler.sample(rng));
            }
            Some(p) => {
                let count = p.sample_at_least_one(rng) as usize;
                self.sampler
                    .sample_distinct(rng, count, self.db_size, items);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(0xBEEF)
    }

    #[test]
    fn update_interarrival_mean() {
        let g = UpdateGen::new(Pattern::Uniform, 1000, 100.0, 5.0);
        let mut r = rng();
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| g.next_interarrival(&mut r)).sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() < 2.0, "mean {mean}");
    }

    #[test]
    fn txn_sizes_average_five() {
        let g = UpdateGen::new(Pattern::Uniform, 1000, 100.0, 5.0);
        let mut r = rng();
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| g.next_txn_items(&mut r).len())
            .sum::<usize>() as f64
            / n as f64;
        // Poisson(5) clamped at 1 has mean slightly above 5.
        assert!((mean - 5.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn txn_items_are_distinct_and_in_range() {
        let g = UpdateGen::new(Pattern::Uniform, 50, 100.0, 5.0);
        let mut r = rng();
        for _ in 0..500 {
            let items = g.next_txn_items(&mut r);
            assert!(!items.is_empty());
            let mut d = items.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), items.len());
            assert!(items.iter().all(|i| i.0 < 50));
        }
    }

    #[test]
    fn single_item_queries_are_exact() {
        let g = QueryGen::new(Pattern::Uniform, 1000, 1.0);
        let mut r = rng();
        let mut items = Vec::new();
        for _ in 0..200 {
            g.next_query_items(&mut r, &mut items);
            assert_eq!(items.len(), 1);
        }
    }

    #[test]
    fn multi_item_queries_average_out() {
        let g = QueryGen::new(Pattern::Uniform, 10_000, 10.0);
        let mut r = rng();
        let n = 10_000;
        let mut items = Vec::new();
        let mean: f64 = (0..n)
            .map(|_| {
                g.next_query_items(&mut r, &mut items);
                items.len()
            })
            .sum::<usize>() as f64
            / n as f64;
        assert!((mean - 10.0).abs() < 0.3, "mean {mean}");
    }

    #[test]
    fn hotcold_queries_prefer_hot_region() {
        let g = QueryGen::new(Pattern::paper_hotcold(), 10_000, 1.0);
        let mut r = rng();
        let n = 20_000;
        let mut items = Vec::new();
        let hot = (0..n)
            .filter(|_| {
                g.next_query_items(&mut r, &mut items);
                items[0].0 < 100
            })
            .count() as f64
            / n as f64;
        assert!((hot - 0.8).abs() < 0.02, "hot fraction {hot}");
    }
}
