//! The recency index: every updated item ordered by its last update
//! time — the one structure both the server's update log and the
//! bit-sequences report read.
//!
//! It is a dense sorted `Vec<(SimTime, ItemId)>` rather than a tree:
//! simulation time only moves forward, so every new entry lands in (or
//! just inside) the tail, and a re-updated item's old entry becomes a
//! *tombstone* — it keeps its slot and its sort key, but the per-item
//! position table no longer points at it. Scans skip dead entries; when
//! more than half the index is dead it is compacted in place. A window
//! extraction is a galloping search back from the tail plus a contiguous
//! forward walk, and the whole history for a large database sits in two
//! flat arrays.
//!
//! The server's `UpdateLog` owns the index behind an `Arc` and a BS
//! report holds a second handle to it, so a report is built without
//! copying; see the log for when an update may fold in place.

use mobicache_model::ItemId;
use mobicache_sim::SimTime;

/// Sentinel for "item has no live recency entry".
const NIL: u32 = u32::MAX;

/// Updated items in ascending `(last update, item)` order, with
/// tombstones.
#[derive(Clone, Debug, Default)]
pub struct RecencyIndex {
    /// `(last_update, item)` ascending, including tombstones (entries
    /// `pos` no longer points at). The log's inserts break ties
    /// item-ascending.
    entries: Vec<(SimTime, ItemId)>,
    /// Per-item position of the live entry (`NIL` if none).
    pos: Vec<u32>,
    /// Tombstone count in `entries`.
    dead: usize,
}

impl RecencyIndex {
    /// An empty index over items `0..db_size`.
    pub fn new(db_size: u32) -> Self {
        RecencyIndex {
            entries: Vec::new(),
            pos: vec![NIL; db_size as usize],
            dead: 0,
        }
    }

    /// An index holding the first `cap` entries of a **recency-descending**
    /// list of distinct items below `db_size`, in the given order (ties
    /// keep the caller's order).
    ///
    /// # Panics
    /// Panics on an item beyond `db_size`; debug-panics if the input is
    /// not sorted by descending timestamp.
    pub fn from_desc<I>(db_size: u32, cap: usize, iter: I) -> Self
    where
        I: IntoIterator<Item = (ItemId, SimTime)>,
    {
        let mut entries: Vec<(SimTime, ItemId)> = iter
            .into_iter()
            .take(cap)
            .map(|(item, ts)| (ts, item))
            .collect();
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 >= w[1].0),
            "recency input must be sorted by descending timestamp"
        );
        entries.reverse();
        let mut pos = vec![NIL; db_size as usize];
        for (j, &(_, item)) in entries.iter().enumerate() {
            debug_assert_eq!(pos[item.index()], NIL, "recency input repeats {item:?}");
            pos[item.index()] = j as u32;
        }
        RecencyIndex {
            entries,
            pos,
            dead: 0,
        }
    }

    /// `true` when the entry at `j` is the live one for its item.
    #[inline]
    fn live(&self, j: usize) -> bool {
        self.pos[self.entries[j].1.index()] == j as u32
    }

    /// Number of items with a live entry.
    pub fn live_len(&self) -> usize {
        self.entries.len() - self.dead
    }

    /// Slots held, tombstones included.
    pub fn slots(&self) -> usize {
        self.entries.len()
    }

    /// Drops every tombstone, keeping live entries in order.
    fn compact(&mut self) {
        let mut w = 0usize;
        for j in 0..self.entries.len() {
            if self.live(j) {
                let e = self.entries[j];
                self.entries[w] = e;
                self.pos[e.1.index()] = w as u32;
                w += 1;
            }
        }
        self.entries.truncate(w);
        self.dead = 0;
    }

    /// Makes `(now, item)` the item's live entry; its previous entry, if
    /// any, becomes a tombstone. `now` must not precede any entry's
    /// timestamp by more than the tail's equal-timestamp run — simulation
    /// time is monotone, so inserts land in the tail.
    pub fn insert(&mut self, now: SimTime, item: ItemId) {
        if self.pos[item.index()] != NIL {
            // The old entry keeps its slot and key (so the vec stays
            // sorted) but stops being the item's position.
            self.dead += 1;
        }
        // Time is globally monotone, so the insertion point is in the
        // tail's equal-timestamp run; ties order item-ascending. Only
        // that run shifts, so only its items' positions need bumping.
        let key = (now, item);
        let at = self.tail_partition(|e| *e < key);
        for j in at..self.entries.len() {
            let it = self.entries[j].1.index();
            if self.pos[it] == j as u32 {
                self.pos[it] = (j + 1) as u32;
            }
        }
        self.entries.insert(at, key);
        self.pos[item.index()] = at as u32;
        if self.dead * 2 > self.entries.len() {
            self.compact();
        }
    }

    /// Time of the most recent update, if any (`TS(B_0)`).
    pub fn latest(&self) -> Option<SimTime> {
        // The newest entry is always live (tombstones are strictly older
        // re-updates of the same item, and an equal-time re-update
        // inserts the live entry at or after the dead one), but walk
        // defensively anyway — the scan stops at the first live slot.
        self.desc().next().map(|(_, ts)| ts)
    }

    /// `entries.partition_point(before)`, galloping back from the tail:
    /// `O(log s)` for the `s` slots past the partition point. Inserts and
    /// every read ask about the recent past, which sits in the
    /// (cache-hot) tail.
    fn tail_partition(&self, before: impl Fn(&(SimTime, ItemId)) -> bool) -> usize {
        let n = self.entries.len();
        // Invariant: no slot from `n - known` on is `before`.
        let mut known = 0;
        let mut step = 1;
        while step <= n && !before(&self.entries[n - step]) {
            known = step;
            step *= 2;
        }
        let lo = n.saturating_sub(step);
        lo + self.entries[lo..n - known].partition_point(before)
    }

    /// Position of the first slot updated strictly after `since`.
    #[inline]
    fn start_after(&self, since: SimTime) -> usize {
        self.tail_partition(|&(ts, _)| ts <= since)
    }

    /// Every item updated strictly after `since`, as `(item, ts)` pairs
    /// in ascending order, without allocating: one galloping search plus
    /// a contiguous forward walk — `O(log k + k)` for `k` results plus
    /// skipped tombstones.
    pub fn since(&self, since: SimTime) -> impl Iterator<Item = (ItemId, SimTime)> + '_ {
        let start = self.start_after(since);
        self.entries[start..]
            .iter()
            .enumerate()
            .filter_map(move |(k, &(ts, item))| {
                (self.pos[item.index()] == (start + k) as u32).then_some((item, ts))
            })
    }

    /// `min(number of items updated after since, cap + 1)`, walking at
    /// most `cap + 1` live entries: `O(log k + min(k, cap + 1))` plus
    /// skipped tombstones. When the slots after `since` outnumber the
    /// tombstones by more than `cap`, the answer is `cap + 1` without a
    /// walk.
    pub fn count_since_capped(&self, since: SimTime, cap: usize) -> usize {
        let start = self.start_after(since);
        if (self.entries.len() - start).saturating_sub(self.dead) > cap {
            return cap + 1;
        }
        self.entries[start..]
            .iter()
            .enumerate()
            .filter(|&(k, &(_, item))| self.pos[item.index()] == (start + k) as u32)
            .take(cap + 1)
            .count()
    }

    /// Items ordered most recently updated first.
    pub fn desc(&self) -> impl Iterator<Item = (ItemId, SimTime)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .rev()
            .filter_map(|(j, &(ts, item))| {
                (self.pos[item.index()] == j as u32).then_some((item, ts))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn from_desc_keeps_the_callers_order_and_cap() {
        let idx = RecencyIndex::from_desc(
            16,
            2,
            [
                (ItemId(9), t(3.0)),
                (ItemId(1), t(3.0)),
                (ItemId(2), t(1.0)),
            ],
        );
        let desc: Vec<ItemId> = idx.desc().map(|(i, _)| i).collect();
        assert_eq!(desc, vec![ItemId(9), ItemId(1)]);
        assert_eq!(idx.latest(), Some(t(3.0)));
        assert_eq!(idx.count_since_capped(t(2.0), 5), 2);
    }
}
