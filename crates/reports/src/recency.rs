//! The recency index: every updated item ordered by its last update
//! time — the one structure both the server's update log and the
//! bit-sequences report read.
//!
//! It is a dense sorted `Vec<(SimTime, ItemId)>` rather than a tree:
//! simulation time only moves forward, so every new entry lands in (or
//! just inside) the tail, and a re-updated item's old entry becomes a
//! *tombstone* — it keeps its slot and its sort key, but the per-item
//! position table no longer points at it. A slot-liveness bitmap marks
//! the live slots, so scans test liveness sequentially, and the two
//! order statistics a bit-sequences client needs are popcounts: how many
//! items changed after a time ([`RecencyIndex::count_since`]) and where
//! the `p` newest begin ([`RecencyIndex::cut`]). When more than half the
//! index is dead it is compacted in place. A window extraction is a
//! galloping search back from the tail plus a contiguous forward walk,
//! and the whole history for a large database sits in three flat arrays.
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
#[derive(Clone, Debug)]
pub struct RecencyIndex {
    /// `(last_update, item)` ascending, including tombstones (entries
    /// `pos` no longer points at). The log's inserts break ties
    /// item-ascending.
    entries: Vec<(SimTime, ItemId)>,
    /// Per-item position of the live entry (`NIL` if none).
    pos: Vec<u32>,
    /// Slot-liveness bitmap: bit `j` set iff `entries[j]` is its item's
    /// live entry; bits from `entries.len()` on are clear. Its length is
    /// fixed at creation: live entries are at most `N` and tombstones at
    /// most as many, so an insert reaches at most `2N + 1` slots before
    /// it compacts.
    live: Box<[u64]>,
    /// Tombstone count in `entries`.
    dead: usize,
}

/// The liveness bitmap's length for a database of `db_size` items.
fn bitmap_words(db_size: u32) -> usize {
    (2 * db_size as usize + 2).div_ceil(64)
}

impl RecencyIndex {
    /// An empty index over items `0..db_size`.
    pub fn new(db_size: u32) -> Self {
        // Slots never exceed `2N + 1`, so the history is reserved once and
        // never reallocates while it grows (a copy-on-write clone starts
        // from its length). Only the pages it reaches become resident.
        Self::with_entries(db_size, Vec::with_capacity(2 * db_size as usize + 1))
    }

    /// An index over tombstone-free `entries` (ascending, distinct items
    /// below `db_size`).
    fn with_entries(db_size: u32, entries: Vec<(SimTime, ItemId)>) -> Self {
        let mut pos = vec![NIL; db_size as usize];
        for (j, &(_, item)) in entries.iter().enumerate() {
            debug_assert_eq!(pos[item.index()], NIL, "recency input repeats {item:?}");
            pos[item.index()] = j as u32;
        }
        let mut idx = RecencyIndex {
            entries,
            pos,
            live: vec![0; bitmap_words(db_size)].into_boxed_slice(),
            dead: 0,
        };
        idx.rebuild_live();
        idx
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
        Self::with_entries(db_size, entries)
    }

    /// `true` when the entry at `j` is the live one for its item.
    #[inline]
    fn is_live(&self, j: usize) -> bool {
        self.live[j / 64] >> (j % 64) & 1 != 0
    }

    /// Sets slot `j`'s liveness bit to `on`.
    #[inline]
    fn set_live(&mut self, j: usize, on: bool) {
        let bit = 1u64 << (j % 64);
        if on {
            self.live[j / 64] |= bit;
        } else {
            self.live[j / 64] &= !bit;
        }
    }

    /// Re-derives the bitmap for a tombstone-free index: the first
    /// `entries.len()` bits set, the rest clear.
    fn rebuild_live(&mut self) {
        let (full, rest) = (self.entries.len() / 64, self.entries.len() % 64);
        self.live.fill(0);
        self.live[..full].fill(u64::MAX);
        if rest > 0 {
            self.live[full] = (1u64 << rest) - 1;
        }
    }

    /// Number of items with a live entry.
    pub fn live_len(&self) -> usize {
        self.entries.len() - self.dead
    }

    /// Slots held, tombstones included.
    pub fn slots(&self) -> usize {
        self.entries.len()
    }

    /// The slot of `item`'s live entry, if it has one. Slots ascend with
    /// recency: `item` is among the `p` newest iff its slot is at least
    /// [`RecencyIndex::cut`]`(p)`.
    #[inline]
    pub fn slot(&self, item: ItemId) -> Option<usize> {
        match self.pos[item.index()] {
            NIL => None,
            j => Some(j as usize),
        }
    }

    /// The slot-liveness bitmap: bit `j` set iff slot `j` holds its
    /// item's live entry. Its length is fixed by the database size.
    pub fn live_words(&self) -> &[u64] {
        &self.live
    }

    /// Drops every tombstone, keeping live entries in order.
    fn compact(&mut self) {
        let mut w = 0usize;
        for j in 0..self.entries.len() {
            if self.is_live(j) {
                let e = self.entries[j];
                self.entries[w] = e;
                self.pos[e.1.index()] = w as u32;
                w += 1;
            }
        }
        self.entries.truncate(w);
        self.dead = 0;
        self.rebuild_live();
    }

    /// Makes `(now, item)` the item's live entry; its previous entry, if
    /// any, becomes a tombstone. `now` must not precede any entry's
    /// timestamp by more than the tail's equal-timestamp run — simulation
    /// time is monotone, so inserts land in the tail.
    pub fn insert(&mut self, now: SimTime, item: ItemId) {
        if let Some(old) = self.slot(item) {
            // The old entry keeps its slot and key (so the vec stays
            // sorted) but stops being the item's position.
            self.dead += 1;
            self.set_live(old, false);
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
        // The shifted run's liveness bits move with it: re-derive them.
        for j in at..self.entries.len() {
            let on = self.pos[self.entries[j].1.index()] == j as u32;
            self.set_live(j, on);
        }
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
            .filter_map(move |(k, &(ts, item))| self.is_live(start + k).then_some((item, ts)))
    }

    /// Number of items updated strictly after `since`: one galloping
    /// search plus a popcount of the liveness words after it —
    /// `O(log k + s/64)` for the `s` slots after `since`.
    pub fn count_since(&self, since: SimTime) -> usize {
        let start = self.start_after(since);
        if start == self.entries.len() {
            return 0;
        }
        let (w, b) = (start / 64, start % 64);
        let last = (self.entries.len() - 1) / 64;
        let head = (self.live[w] >> b).count_ones() as usize;
        head + self.live[w + 1..=last]
            .iter()
            .map(|x| x.count_ones() as usize)
            .sum::<usize>()
    }

    /// The slot of the `p`-th newest live entry: a live slot is at least
    /// this iff its item is among the `p` newest. `0` when `p` reaches
    /// past every live entry, `slots()` when `p == 0`. A popcount walk
    /// back from the tail plus one in-word select: `O(s/64 + 64)` for
    /// the `s` slots from the cut on.
    pub fn cut(&self, p: usize) -> usize {
        if p == 0 {
            return self.entries.len();
        }
        let mut left = p;
        let top = self.entries.len().div_ceil(64);
        for w in (0..top).rev() {
            let mut word = self.live[w];
            let ones = word.count_ones() as usize;
            if ones >= left {
                // The `left`-th highest set bit is the `(ones - left)`-th
                // lowest: clear the lower ones first.
                for _ in 0..ones - left {
                    word &= word - 1;
                }
                return w * 64 + word.trailing_zeros() as usize;
            }
            left -= ones;
        }
        0
    }

    /// Items ordered most recently updated first.
    pub fn desc(&self) -> impl Iterator<Item = (ItemId, SimTime)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .rev()
            .filter_map(|(j, &(ts, item))| self.is_live(j).then_some((item, ts)))
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
        assert_eq!(idx.count_since(t(2.0)), 2);
        assert_eq!(idx.cut(1), 1);
        assert_eq!(idx.cut(3), 0);
        let ones: u32 = idx.live_words().iter().map(|w| w.count_ones()).sum();
        assert_eq!(ones, 2);
    }
}
