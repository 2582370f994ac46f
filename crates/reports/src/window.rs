//! The `TS` (broadcasting timestamps) window report — §2.1 of the paper —
//! and the AAW enlarged-window variant (§3.2).
//!
//! The report broadcast at time `T` carries the current timestamp and the
//! list of `(oid, t_oid)` pairs for every item updated in the covered
//! window `[window_start, T]`; in the plain scheme `window_start = T − w·L`.
//! AAW may *enlarge* the window back to the oldest pending client `Tlb`;
//! the enlargement is signalled in-band with a single **dummy record**
//! `(dummy_id, Tlb)` (the window size itself is deliberately not carried —
//! §3.2: "to keep the invalidation report size small, we do not explicitly
//! include in each report the window size").
//!
//! Client algorithm (Figure 1 of the paper):
//!
//! ```text
//! if Tlb < Ti − L·w:            drop the entire cache
//! else: for every cached oj:
//!     if oj ∈ IR and tc_j < t_j: throw oj out of the cache
//!     else:                      tc_j ← Ti        (revalidate)
//! ```

use mobicache_model::msg::SizeParams;
use mobicache_model::units::Bits;
use mobicache_model::ItemId;
use mobicache_sim::SimTime;

/// A `TS` window invalidation report.
///
/// ```
/// use mobicache_model::ItemId;
/// use mobicache_reports::{WindowDecision, WindowReport};
/// use mobicache_sim::SimTime;
///
/// let t = SimTime::from_secs;
/// let report = WindowReport {
///     broadcast_at: t(1000.0),
///     window_start: t(800.0), // w·L = 200 s of history
///     records: vec![(ItemId(4), t(950.0))],
///     dummy: None,
/// };
/// // In-window client: drop exactly the stale entry.
/// assert_eq!(
///     report.decide(t(900.0), vec![(ItemId(4), t(100.0)), (ItemId(9), t(100.0))]),
///     WindowDecision::Invalidate(vec![ItemId(4)])
/// );
/// // A client that slept past the window cannot be served.
/// assert_eq!(
///     report.decide(t(700.0), vec![(ItemId(9), t(100.0))]),
///     WindowDecision::NotCovered
/// );
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct WindowReport {
    /// Broadcast timestamp `T_i`.
    pub broadcast_at: SimTime,
    /// Start of the covered window: every update with timestamp
    /// `> window_start` is listed in `records`.
    pub window_start: SimTime,
    /// `(oid, latest update timestamp)` for every item updated in the
    /// window — at most one record per item.
    pub records: Vec<(ItemId, SimTime)>,
    /// AAW enlargement marker: `Some(tlb)` means this report's window was
    /// enlarged back to `tlb` and carries the dummy record
    /// `(dummy_id, tlb)`. `None` for a plain `TS` report.
    pub dummy: Option<SimTime>,
}

/// What a client should do with its cache after receiving a
/// [`WindowReport`].
#[derive(Clone, Debug, PartialEq)]
pub enum WindowDecision {
    /// The report does not reach back to the client's `Tlb`; nothing can
    /// be salvaged through this report alone. (A plain-`TS` client drops
    /// its cache; an adaptive client uplinks its `Tlb` instead.)
    NotCovered,
    /// The report covers the client's `Tlb`: drop exactly the listed
    /// items, keep and revalidate the rest.
    Invalidate(Vec<ItemId>),
}

impl WindowReport {
    /// `true` when this report's history reaches back to `tlb`, i.e. every
    /// update that happened after `tlb` is listed.
    ///
    /// Coverage comes from either the window itself (`tlb ≥ window_start`)
    /// or, for an enlarged report, the dummy record (`dummy ≤ tlb`). The
    /// dummy path is exactly the client check in Figure 4 of the paper.
    pub fn covers(&self, tlb: SimTime) -> bool {
        if tlb >= self.window_start {
            return true;
        }
        match self.dummy {
            Some(dummy_tlb) => dummy_tlb <= tlb,
            None => false,
        }
    }

    /// Runs the Figure-1 client algorithm for a client whose last report
    /// was at `tlb`, over a cache view of `(item, version)` pairs, where
    /// `version` is the timestamp of the last update the cached copy
    /// reflects.
    ///
    /// Returns [`WindowDecision::NotCovered`] when the report cannot
    /// vouch for the missed period; the caller decides between dropping
    /// (plain `TS`) and uplinking `Tlb` (adaptive schemes).
    ///
    /// The obviously-correct linear form — a `records` scan per cached
    /// item, `O(|cache| · |records|)` — and the test oracle for the
    /// simulator's invalidation plan (`crate::PlanCache`).
    pub fn decide<I>(&self, tlb: SimTime, cached: I) -> WindowDecision
    where
        I: IntoIterator<Item = (ItemId, SimTime)>,
    {
        if !self.covers(tlb) {
            return WindowDecision::NotCovered;
        }
        let mut stale = Vec::new();
        for (item, version) in cached {
            if let Some(&(_, updated_at)) = self.records.iter().find(|(id, _)| *id == item) {
                if version < updated_at {
                    stale.push(item);
                }
            }
        }
        WindowDecision::Invalidate(stale)
    }

    /// Report body size in bits: `n_w · (log₂N + b_T)` (§3.1) plus the
    /// current timestamp, plus one more record if the dummy is present.
    pub fn size_bits(&self, p: &SizeParams) -> Bits {
        Self::size_bits_of(self.records.len() + usize::from(self.dummy.is_some()), p)
    }

    /// The size [`WindowReport::size_bits`] charges a report of
    /// `records` records (the AAW dummy counting as one), so a server can
    /// price a candidate window without building it.
    pub fn size_bits_of(records: usize, p: &SizeParams) -> Bits {
        p.timestamp_bits + records as f64 * p.record_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::ReportPayload;
    use crate::plan::PlanCache;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn report(records: Vec<(u32, f64)>) -> WindowReport {
        WindowReport {
            broadcast_at: t(1000.0),
            window_start: t(800.0),
            records: records
                .into_iter()
                .map(|(id, ts)| (ItemId(id), t(ts)))
                .collect(),
            dummy: None,
        }
    }

    #[test]
    fn covered_client_invalidates_exactly_the_stale_items() {
        let r = report(vec![(1, 950.0), (2, 900.0)]);
        // Cached: item 1 fetched before its update (stale), item 2 fetched
        // after (fresh), item 3 never updated.
        let cache = vec![
            (ItemId(1), t(850.0)),
            (ItemId(2), t(920.0)),
            (ItemId(3), t(100.0)),
        ];
        match r.decide(t(900.0), cache) {
            WindowDecision::Invalidate(stale) => assert_eq!(stale, vec![ItemId(1)]),
            other => panic!("expected Invalidate, got {other:?}"),
        }
    }

    #[test]
    fn out_of_window_client_is_not_covered() {
        let r = report(vec![(1, 950.0)]);
        assert_eq!(
            r.decide(t(700.0), vec![(ItemId(1), t(650.0))]),
            WindowDecision::NotCovered
        );
    }

    #[test]
    fn window_boundary_is_inclusive() {
        let r = report(vec![]);
        assert!(r.covers(t(800.0)));
        assert!(!r.covers(t(799.999)));
    }

    #[test]
    fn dummy_record_extends_coverage() {
        let mut r = report(vec![(4, 700.0)]);
        r.dummy = Some(t(600.0));
        // Client with Tlb=650: outside the window but after the dummy.
        assert!(r.covers(t(650.0)));
        match r.decide(t(650.0), vec![(ItemId(4), t(640.0))]) {
            WindowDecision::Invalidate(stale) => assert_eq!(stale, vec![ItemId(4)]),
            other => panic!("{other:?}"),
        }
        // Client with Tlb=500: before even the dummy — still uncovered.
        assert!(!r.covers(t(500.0)));
    }

    #[test]
    fn equal_version_and_update_is_fresh() {
        // A copy fetched at exactly the update instant reflects it.
        let r = report(vec![(9, 900.0)]);
        match r.decide(t(900.0), vec![(ItemId(9), t(900.0))]) {
            WindowDecision::Invalidate(stale) => assert!(stale.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    /// The report's decoded plan yields the linear reference's stale set
    /// through both of its arms: per-item probes and the word-wise
    /// intersection with a membership bitmap.
    #[test]
    fn indexed_matches_reference() {
        let r = report(vec![(5, 990.0), (1, 950.0), (3, 810.0)]);
        let cache = vec![
            (ItemId(0), t(100.0)),
            (ItemId(1), t(960.0)),
            (ItemId(3), t(500.0)),
            (ItemId(5), t(985.0)),
        ];
        let reference = r.decide(t(900.0), cache.clone());
        assert_eq!(
            reference,
            WindowDecision::Invalidate(vec![ItemId(3), ItemId(5)])
        );
        let plan = PlanCache::for_report(&ReportPayload::Window(r), t(900.0));
        let probed: Vec<ItemId> = cache
            .iter()
            .filter(|&&(item, version)| plan.window_stale(item, version))
            .map(|&(item, _)| item)
            .collect();
        assert_eq!(WindowDecision::Invalidate(probed), reference);
        let member = [cache.iter().fold(0u64, |w, &(item, _)| w | 1 << item.0)];
        let mut intersected = Vec::new();
        plan.intersect_into(&member, &mut intersected, |item| {
            cache
                .iter()
                .any(|&(i, version)| i == item && plan.window_stale(item, version))
        });
        assert_eq!(WindowDecision::Invalidate(intersected), reference);
    }

    /// One decoded plan serves every client of a broadcast: each cache
    /// probes the same bitmap, and coverage stays a per-client check.
    #[test]
    fn shared_index_reuses_across_clients() {
        let r = report(vec![(5, 990.0), (1, 950.0), (3, 810.0)]);
        let mut plan = PlanCache::new();
        plan.decode_for_tick(&ReportPayload::Window(r.clone()), SimTime::ZERO, 64);
        assert_eq!(plan.listed_ts(ItemId(5)), t(990.0));
        assert!(!plan.contains(ItemId(4)));
        assert!(
            !plan.window_stale(ItemId(1), t(950.0)),
            "equal version is fresh"
        );
        let clients = [
            (900.0, vec![(ItemId(1), t(940.0))]),
            (850.0, vec![(ItemId(3), t(900.0)), (ItemId(5), t(100.0))]),
            (700.0, vec![(ItemId(5), t(100.0))]),
        ];
        for (tlb, cache) in clients {
            let probed: Vec<ItemId> = cache
                .iter()
                .filter(|&&(item, version)| plan.window_stale(item, version))
                .map(|&(item, _)| item)
                .collect();
            match r.decide(t(tlb), cache) {
                WindowDecision::Invalidate(reference) => assert_eq!(probed, reference),
                WindowDecision::NotCovered => assert!(!r.covers(t(tlb)), "tlb {tlb}"),
            }
        }
    }

    #[test]
    fn size_formula() {
        let p = SizeParams {
            db_size: 1024,
            group_count: 64,
            timestamp_bits: 48.0,
            header_bits: 64.0,
            control_bytes: 512,
            item_bytes: 8192,
        };
        let mut r = report(vec![(1, 900.0), (2, 910.0), (3, 920.0)]);
        // 3 records * (10 + 48) + 48.
        assert_eq!(r.size_bits(&p), 3.0 * 58.0 + 48.0);
        r.dummy = Some(t(100.0));
        assert_eq!(r.size_bits(&p), 4.0 * 58.0 + 48.0);
    }

    #[test]
    fn empty_report_still_covers_its_window() {
        let r = report(vec![]);
        match r.decide(t(900.0), vec![(ItemId(7), t(10.0))]) {
            WindowDecision::Invalidate(stale) => assert!(stale.is_empty()),
            other => panic!("{other:?}"),
        }
    }
}
