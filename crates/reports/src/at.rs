//! The `AT` (amnesic terminals) invalidation report of Barbara &
//! Imielinski.
//!
//! The server is amnesic: the report broadcast at `T_i` lists only the
//! items updated since the *previous* report at `T_i − L` — ids only, no
//! per-item timestamps. A client that heard the previous report
//! invalidates exactly the listed items; a client that missed even one
//! report cannot reconstruct the gap and must drop its entire cache.
//! (This is why the paper excludes `AT` from the long-disconnection
//! plots; it is implemented here for library completeness and the window
//! ablation.)

use mobicache_model::msg::SizeParams;
use mobicache_model::units::Bits;
use mobicache_model::ItemId;
use mobicache_sim::SimTime;

/// An amnesic-terminals report.
#[derive(Clone, Debug, PartialEq)]
pub struct AtReport {
    /// Broadcast timestamp `T_i`.
    pub broadcast_at: SimTime,
    /// Timestamp of the previous report (`T_i − L`); the report covers
    /// exactly the interval `(prev_broadcast, broadcast_at]`.
    pub prev_broadcast: SimTime,
    /// Items updated in the covered interval (ids only).
    pub items: Vec<ItemId>,
}

/// What a client should do with its cache after receiving an
/// [`AtReport`].
#[derive(Clone, Debug, PartialEq)]
pub enum AtDecision {
    /// The client missed at least one report; nothing can be salvaged.
    NotCovered,
    /// Drop exactly the listed items.
    Invalidate(Vec<ItemId>),
}

impl AtReport {
    /// `true` when a client whose last report was at `tlb` can use this
    /// report (it heard the immediately preceding one).
    pub fn covers(&self, tlb: SimTime) -> bool {
        tlb >= self.prev_broadcast
    }

    /// Client algorithm: drop the listed items if covered, else signal a
    /// full drop.
    pub fn decide<I>(&self, tlb: SimTime, cached: I) -> AtDecision
    where
        I: IntoIterator<Item = ItemId>,
    {
        if !self.covers(tlb) {
            return AtDecision::NotCovered;
        }
        let listed: std::collections::HashSet<ItemId> = self.items.iter().copied().collect();
        AtDecision::Invalidate(
            cached
                .into_iter()
                .filter(|item| listed.contains(item))
                .collect(),
        )
    }

    /// Report body size: the current timestamp plus one id per listed
    /// item (no per-item timestamps — that is the whole point of `AT`).
    pub fn size_bits(&self, p: &SizeParams) -> Bits {
        p.timestamp_bits + self.items.len() as f64 * p.id_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn report() -> AtReport {
        AtReport {
            broadcast_at: t(100.0),
            prev_broadcast: t(80.0),
            items: vec![ItemId(2), ItemId(5)],
        }
    }

    #[test]
    fn connected_client_invalidates_listed() {
        let r = report();
        assert_eq!(
            r.decide(t(80.0), vec![ItemId(1), ItemId(2), ItemId(9)]),
            AtDecision::Invalidate(vec![ItemId(2)])
        );
    }

    #[test]
    fn one_missed_report_means_drop() {
        let r = report();
        assert_eq!(r.decide(t(79.9), vec![ItemId(1)]), AtDecision::NotCovered);
    }

    #[test]
    fn size_counts_ids_only() {
        let p = SizeParams {
            db_size: 1024,
            group_count: 64,
            timestamp_bits: 48.0,
            header_bits: 64.0,
            control_bytes: 512,
            item_bytes: 8192,
        };
        assert_eq!(report().size_bits(&p), 48.0 + 2.0 * 10.0);
    }

    #[test]
    fn empty_report_keeps_everything() {
        let r = AtReport {
            broadcast_at: t(100.0),
            prev_broadcast: t(80.0),
            items: vec![],
        };
        assert_eq!(
            r.decide(t(90.0), vec![ItemId(1)]),
            AtDecision::Invalidate(vec![])
        );
    }
}
