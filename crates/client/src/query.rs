//! Pending query bookkeeping.
//!
//! A query in progress is the client's [`PendingItems`]: one entry per
//! referenced item, with how far it has got. The list is non-empty
//! exactly while a query is in flight, and a query's hits and misses
//! are read from its items' final states, so the list is the whole
//! query apart from its issue time, which the population keeps in a
//! column of its own. A one-item query, the common case, keeps its item
//! inline; a longer one spills to a heap `Vec` that keeps its capacity
//! from query to query, so after warm-up a query allocates nothing.

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
    /// Answered: from the cache (`hit`) or by download.
    Done {
        /// Whether the cache answered it.
        hit: bool,
    },
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
            PendingState::WaitReport | PendingState::Done { .. } => None,
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
    /// Starts a query over `items`: replaces the contents with fresh
    /// wait-for-report entries.
    ///
    /// # Panics
    /// Panics if `items` is empty.
    pub(crate) fn start(&mut self, items: &[ItemId]) {
        assert!(
            !items.is_empty(),
            "a query must reference at least one item"
        );
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

    /// Marks `item` done as a hit or miss. Returns `false` if the item is
    /// not pending in the expected state.
    pub(crate) fn resolve(&mut self, item: ItemId, from: PendingState, hit: bool) -> bool {
        self.transition(item, from, PendingState::Done { hit })
            .is_some()
    }

    /// Moves `item` from one pending state to another, stamping its
    /// request timestamp (and resetting its retry count) — the transition
    /// puts a request on the uplink, so the fault-injection retry timer
    /// knows when it went up. Returns `false` if the item is not in the
    /// expected state.
    pub(crate) fn transition_at(
        &mut self,
        item: ItemId,
        from: PendingState,
        to: PendingState,
        now: SimTime,
    ) -> bool {
        let Some(p) = self.transition(item, from, to) else {
            return false;
        };
        p.requested_at = Some(now);
        p.retries = 0;
        true
    }

    /// Moves the first entry for `item` in state `from` to `to`.
    fn transition(
        &mut self,
        item: ItemId,
        from: PendingState,
        to: PendingState,
    ) -> Option<&mut PendingItem> {
        let p = self
            .iter_mut()
            .find(|p| p.item == item && p.state == from)?;
        p.state = to;
        Some(p)
    }

    /// Closes the query once every item is answered: empties the list and
    /// returns the outcome, its hits and misses counted from the items'
    /// final states. `None`, leaving the list alone, while an item is
    /// unresolved or when no query is in flight.
    pub(crate) fn finish(
        &mut self,
        issued_at: SimTime,
        completed_at: SimTime,
    ) -> Option<QueryOutcome> {
        if self.is_empty() {
            return None;
        }
        let (mut hits, mut misses) = (0, 0);
        for p in self.iter() {
            match p.state {
                PendingState::Done { hit: true } => hits += 1,
                PendingState::Done { hit: false } => misses += 1,
                _ => return None,
            }
        }
        self.clear();
        Some(QueryOutcome {
            issued_at,
            completed_at,
            hits,
            misses,
        })
    }

    /// Empties the list, keeping a spilled `Vec`'s capacity.
    fn clear(&mut self) {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn query(ids: &[u32]) -> PendingItems {
        let ids: Vec<ItemId> = ids.iter().map(|&i| ItemId(i)).collect();
        let mut items = PendingItems::default();
        items.start(&ids);
        items
    }

    #[test]
    fn lifecycle_single_item_hit() {
        let mut items = query(&[4]);
        assert_eq!(items.finish(t(1.0), t(2.0)), None);
        assert!(items.resolve(ItemId(4), PendingState::WaitReport, true));
        assert_eq!(items[0].state, PendingState::Done { hit: true });
        let o = items.finish(t(1.0), t(5.0)).expect("complete");
        assert_eq!((o.hits, o.misses), (1, 0));
        assert_eq!(o.issued_at, t(1.0));
        assert_eq!(o.completed_at, t(5.0));
        assert!(items.is_empty(), "a finished query leaves no items");
        assert_eq!(items.finish(t(1.0), t(6.0)), None, "finished once");
    }

    #[test]
    fn lifecycle_multi_item_mixed() {
        let mut items = query(&[1, 2, 3]);
        assert!(items.resolve(ItemId(1), PendingState::WaitReport, true));
        assert!(items.transition_at(
            ItemId(2),
            PendingState::WaitReport,
            PendingState::WaitData,
            t(1.0)
        ));
        assert!(items.transition_at(
            ItemId(3),
            PendingState::WaitReport,
            PendingState::WaitValidity,
            t(1.0)
        ));
        assert_eq!(items.finish(t(0.0), t(2.0)), None);
        assert!(items.resolve(ItemId(2), PendingState::WaitData, false));
        assert!(items.resolve(ItemId(3), PendingState::WaitValidity, true));
        let o = items.finish(t(0.0), t(9.0)).expect("complete");
        assert_eq!((o.hits, o.misses), (2, 1));
    }

    #[test]
    fn resolve_rejects_wrong_state() {
        let mut items = query(&[1]);
        assert!(!items.resolve(ItemId(1), PendingState::WaitData, false));
        assert!(!items.resolve(ItemId(9), PendingState::WaitReport, false));
        assert_eq!(items[0], PendingItem::fresh(ItemId(1)));
    }

    #[test]
    fn transition_at_stamps_retry_timer() {
        let mut items = query(&[1]);
        assert!(items.transition_at(
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
        PendingItems::default().start(&[]);
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
        let mut items = query(&[4]);
        assert!(matches!(items.0, Slots::One(_)));
        assert_eq!(items[0], PendingItem::fresh(ItemId(4)));
        items.clear();
        assert!(items.is_empty() && matches!(items.0, Slots::Empty));
        items.start(&[ItemId(1), ItemId(2), ItemId(3)]);
        assert!(matches!(&items.0, Slots::Many(v) if v.capacity() == 3));
        items.clear();
        items.start(&[ItemId(7)]);
        assert!(matches!(&items.0, Slots::Many(v) if v.capacity() == 3));
        assert_eq!(&*items, &[PendingItem::fresh(ItemId(7))]);
    }
}
