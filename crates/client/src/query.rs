//! Pending query bookkeeping.
//!
//! A query in progress is two columns of the client population: the
//! per-query scalars in a small Copy [`QueryHeader`], and per-item
//! progress in the client's [`PendingItems`], whose length is the
//! active query's. The header's methods take that item slice as a
//! parameter. A one-item query, the common case, keeps its item inline;
//! a longer one spills to a heap `Vec` that keeps its capacity from
//! query to query, so after warm-up a query allocates nothing.

use mobicache_model::{ItemId, RetryPolicy};
use mobicache_sim::SimTime;
use std::ops::{Deref, DerefMut};

/// How one referenced item is currently being resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PendingState {
    /// Waiting for the next invalidation report (every query starts
    /// here — §2: "to answer a query, the client … will listen to the
    /// next invalidation report").
    WaitReport,
    /// A validity check for this (cached but limbo) item is in flight.
    WaitValidity,
    /// A data request for this item is in flight.
    WaitData,
    /// Answered (from cache or by download).
    Done,
}

/// One item referenced by the pending query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PendingItem {
    /// The referenced item.
    pub item: ItemId,
    /// Resolution progress.
    pub state: PendingState,
    /// When the in-flight data/validity request went up (fault-injection
    /// retry timer; `None` while waiting passively on reports).
    pub requested_at: Option<SimTime>,
    /// Re-sends of the in-flight request so far (capped backoff).
    pub retries: u32,
}

impl PendingItem {
    /// A fresh wait-for-report entry for `item`.
    #[inline]
    pub fn fresh(item: ItemId) -> Self {
        PendingItem {
            item,
            state: PendingState::WaitReport,
            requested_at: None,
            retries: 0,
        }
    }

    /// When `policy` re-sends this item's in-flight data or validity
    /// request, in seconds: `period` times the backoff's wait for its
    /// re-sends so far, after the request went up. A request is due at
    /// a report delivered at `now` unless `now < deadline`. `None` for an
    /// item with no request in flight, which no retry touches.
    #[inline]
    pub fn retry_deadline(&self, policy: RetryPolicy, period: f64) -> Option<f64> {
        match self.state {
            PendingState::WaitData | PendingState::WaitValidity => {
                let at = self.requested_at?;
                Some(at.as_secs() + f64::from(policy.timeout_intervals_for(self.retries)) * period)
            }
            PendingState::WaitReport | PendingState::Done => None,
        }
    }
}

/// The items of a client's query in flight, read and advanced as a
/// slice: empty when there is none, one item inline, or more in a heap
/// `Vec`. A client keeps its `Vec` once a multi-item query spilled it,
/// so later queries of any length reuse its capacity.
#[derive(Clone, Debug, Default)]
pub struct PendingItems(Slots);

#[derive(Clone, Debug, Default)]
enum Slots {
    #[default]
    Empty,
    One(PendingItem),
    Many(Vec<PendingItem>),
}

impl PendingItems {
    /// Replaces the contents with fresh wait-for-report entries for
    /// `items`.
    fn start(&mut self, items: &[ItemId]) {
        let fresh = items.iter().map(|&item| PendingItem::fresh(item));
        match (&mut self.0, items) {
            (Slots::Many(v), _) => {
                v.clear();
                v.extend(fresh);
            }
            (slots, &[item]) => *slots = Slots::One(PendingItem::fresh(item)),
            (slots, _) => *slots = Slots::Many(fresh.collect()),
        }
    }

    /// Empties the list, keeping a spilled `Vec`'s capacity.
    pub fn clear(&mut self) {
        match &mut self.0 {
            Slots::Many(v) => v.clear(),
            slots => *slots = Slots::Empty,
        }
    }

    /// How many items the list holds without allocating: one inline, or
    /// the capacity of the `Vec` it spilled to.
    pub fn capacity(&self) -> usize {
        match &self.0 {
            Slots::Many(v) => v.capacity(),
            Slots::Empty | Slots::One(_) => 1,
        }
    }
}

impl Deref for PendingItems {
    type Target = [PendingItem];

    #[inline]
    fn deref(&self) -> &[PendingItem] {
        match &self.0 {
            Slots::Empty => &[],
            Slots::One(p) => std::slice::from_ref(p),
            Slots::Many(v) => v,
        }
    }
}

impl DerefMut for PendingItems {
    #[inline]
    fn deref_mut(&mut self) -> &mut [PendingItem] {
        match &mut self.0 {
            Slots::Empty => &mut [],
            Slots::One(p) => std::slice::from_mut(p),
            Slots::Many(v) => v,
        }
    }
}

/// Summary of a completed query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryOutcome {
    /// When the query was issued.
    pub issued_at: SimTime,
    /// When the last referenced item was resolved.
    pub completed_at: SimTime,
    /// Items answered from the cache.
    pub hits: u32,
    /// Items downloaded from the server.
    pub misses: u32,
}

/// The per-query scalars of a query in progress.
///
/// The referenced items themselves live in the owning population's
/// pending column. Every method that inspects or advances per-item state
/// takes the client's item slice as a parameter.
#[derive(Clone, Copy, Debug)]
pub struct QueryHeader {
    /// When the query was issued.
    pub issued_at: SimTime,
    /// Cache hits so far.
    pub hits: u32,
    /// Downloads so far.
    pub misses: u32,
}

impl QueryHeader {
    /// A fresh header for a query over `items`, whose wait-for-report
    /// entries replace the contents of `pending`.
    ///
    /// # Panics
    /// Panics if `items` is empty.
    pub fn new(issued_at: SimTime, items: &[ItemId], pending: &mut PendingItems) -> Self {
        assert!(
            !items.is_empty(),
            "a query must reference at least one item"
        );
        pending.start(items);
        QueryHeader {
            issued_at,
            hits: 0,
            misses: 0,
        }
    }

    /// `true` when every referenced item is resolved.
    pub fn is_complete(&self, items: &[PendingItem]) -> bool {
        items.iter().all(|p| p.state == PendingState::Done)
    }

    /// Marks `item` done as a hit or miss. Returns `false` if the item is
    /// not pending in the expected state.
    pub fn resolve(
        &mut self,
        items: &mut [PendingItem],
        item: ItemId,
        from: PendingState,
        hit: bool,
    ) -> bool {
        for p in items {
            if p.item == item && p.state == from {
                p.state = PendingState::Done;
                if hit {
                    self.hits += 1;
                } else {
                    self.misses += 1;
                }
                return true;
            }
        }
        false
    }

    /// Moves `item` from one pending state to another, stamping its
    /// request timestamp (and resetting its retry count) — the transition
    /// puts a request on the uplink, so the fault-injection retry timer
    /// knows when it went up. Returns `false` if the item is not in the
    /// expected state.
    pub fn transition_at(
        &mut self,
        items: &mut [PendingItem],
        item: ItemId,
        from: PendingState,
        to: PendingState,
        now: SimTime,
    ) -> bool {
        for p in items {
            if p.item == item && p.state == from {
                p.state = to;
                p.requested_at = Some(now);
                p.retries = 0;
                return true;
            }
        }
        false
    }

    /// Finishes the query into an outcome summary.
    pub fn outcome(&self, items: &[PendingItem], completed_at: SimTime) -> QueryOutcome {
        debug_assert!(self.is_complete(items));
        QueryOutcome {
            issued_at: self.issued_at,
            completed_at,
            hits: self.hits,
            misses: self.misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn query(issued_at: SimTime, ids: &[u32]) -> (QueryHeader, PendingItems) {
        let ids: Vec<ItemId> = ids.iter().map(|&i| ItemId(i)).collect();
        let mut items = PendingItems::default();
        (QueryHeader::new(issued_at, &ids, &mut items), items)
    }

    #[test]
    fn lifecycle_single_item_hit() {
        let (mut q, mut items) = query(t(1.0), &[4]);
        assert!(!q.is_complete(&items));
        assert!(q.resolve(&mut items, ItemId(4), PendingState::WaitReport, true));
        assert!(q.is_complete(&items));
        let o = q.outcome(&items, t(5.0));
        assert_eq!((o.hits, o.misses), (1, 0));
        assert_eq!(o.issued_at, t(1.0));
        assert_eq!(o.completed_at, t(5.0));
    }

    #[test]
    fn lifecycle_multi_item_mixed() {
        let (mut q, mut items) = query(t(0.0), &[1, 2, 3]);
        assert!(q.resolve(&mut items, ItemId(1), PendingState::WaitReport, true));
        assert!(q.transition_at(
            &mut items,
            ItemId(2),
            PendingState::WaitReport,
            PendingState::WaitData,
            t(1.0)
        ));
        assert!(q.transition_at(
            &mut items,
            ItemId(3),
            PendingState::WaitReport,
            PendingState::WaitValidity,
            t(1.0)
        ));
        assert!(!q.is_complete(&items));
        assert!(q.resolve(&mut items, ItemId(2), PendingState::WaitData, false));
        assert!(q.resolve(&mut items, ItemId(3), PendingState::WaitValidity, true));
        assert!(q.is_complete(&items));
        let o = q.outcome(&items, t(9.0));
        assert_eq!((o.hits, o.misses), (2, 1));
    }

    #[test]
    fn resolve_rejects_wrong_state() {
        let (mut q, mut items) = query(t(0.0), &[1]);
        assert!(!q.resolve(&mut items, ItemId(1), PendingState::WaitData, false));
        assert!(!q.resolve(&mut items, ItemId(9), PendingState::WaitReport, false));
    }

    #[test]
    fn transition_at_stamps_retry_timer() {
        let (mut q, mut items) = query(t(0.0), &[1]);
        assert!(q.transition_at(
            &mut items,
            ItemId(1),
            PendingState::WaitReport,
            PendingState::WaitData,
            t(3.0)
        ));
        assert_eq!(items[0].requested_at, Some(t(3.0)));
        assert_eq!(items[0].retries, 0);
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn empty_query_rejected() {
        QueryHeader::new(t(0.0), &[], &mut PendingItems::default());
    }

    /// A one-item query keeps its item inline, in no more room than the
    /// item itself; a longer one spills to a `Vec` that every later
    /// query, one-item ones included, reuses.
    #[test]
    fn one_item_queries_stay_inline() {
        assert_eq!(
            std::mem::size_of::<PendingItems>(),
            std::mem::size_of::<PendingItem>()
        );
        let (_, mut items) = query(t(0.0), &[4]);
        assert!(matches!(items.0, Slots::One(_)));
        assert_eq!(items[0], PendingItem::fresh(ItemId(4)));
        items.clear();
        assert!(items.is_empty() && matches!(items.0, Slots::Empty));
        QueryHeader::new(t(1.0), &[ItemId(1), ItemId(2), ItemId(3)], &mut items);
        assert!(matches!(&items.0, Slots::Many(v) if v.capacity() == 3));
        items.clear();
        QueryHeader::new(t(2.0), &[ItemId(7)], &mut items);
        assert!(matches!(&items.0, Slots::Many(v) if v.capacity() == 3));
        assert_eq!(&*items, &[PendingItem::fresh(ItemId(7))]);
    }
}
