//! LRU cache with per-entry validity state.
//!
//! Every covering report ends with the Figure-1 step `tc_j ← T_i`: every
//! remaining entry becomes valid as of the report. The cache does that
//! in O(1) with a **vouch epoch**. Each slot records the epoch of its
//! last write (`insert`, `mark_all_limbo`, a salvage);
//! [`LruCache::revalidate_all`] bumps the cache's epoch and records the
//! report's time as `vouched_at`. A slot from an older epoch reads as
//! `Valid` with `validated_at = vouched_at`; a slot of the current epoch
//! reads as stored. The newer of the two writes wins, exactly as if
//! `revalidate_all` had rewritten every slot — including when it runs
//! at an earlier time than an insert it follows (data can land while a
//! report is on the air).

use mobicache_model::ItemId;
use mobicache_sim::SimTime;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Validity of a cached entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntryState {
    /// Known valid as of the entry's `validated_at`.
    Valid,
    /// Unknown validity after a long disconnection; must not answer
    /// queries until salvaged by a covering report.
    Limbo,
}

/// One cached item.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CacheEntry {
    /// Timestamp of the last server update this copy reflects (the "data
    /// version"). Used by timestamp-carrying reports to decide staleness.
    pub version: SimTime,
    /// Last time a report (or fetch) vouched for this entry.
    pub validated_at: SimTime,
    /// Validity state.
    pub state: EntryState,
}

/// Sentinel slot index for list ends.
const NIL: u32 = u32::MAX;

/// One resident entry plus its intrusive recency links (slab indices).
struct Slot {
    item: ItemId,
    /// The entry as last written; read it through [`LruCache::entry`].
    entry: CacheEntry,
    /// Towards the MRU end (`NIL` at the head).
    prev: u32,
    /// Towards the LRU end (`NIL` at the tail).
    next: u32,
    /// The cache's vouch epoch at this slot's last write.
    epoch: u32,
}

/// Deterministic multiply-mix hasher for the compact item table. Item ids
/// are dense small integers, so one multiply-xor round spreads them fine;
/// a fixed hasher also keeps the table's behaviour identical run to run.
#[derive(Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        let mut z = self.0 ^ v;
        z = z.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = z ^ (z >> 29);
    }
}

type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A fixed-capacity LRU cache of data items.
///
/// Entries live in a dense slab (`Vec<Slot>`, never longer than the
/// capacity) threaded by an intrusive doubly-linked recency list, with a
/// compact item table mapping ids to slab positions. Touch, insert,
/// evict and invalidate are all `O(1)` with zero allocation after the
/// first fill, and so is [`LruCache::revalidate_all`]: it bumps a vouch
/// epoch instead of rewriting every slot, so a report costs a cache only
/// the entries it drops. Between a `revalidate_all` and a slot write the
/// later call wins, whatever their times (see the module docs).
///
/// ```
/// use mobicache_cache::LruCache;
/// use mobicache_model::ItemId;
/// use mobicache_sim::SimTime;
///
/// let t = SimTime::from_secs;
/// let mut cache = LruCache::new(2);
/// cache.insert(ItemId(1), t(5.0), t(10.0));
/// cache.insert(ItemId(2), t(6.0), t(11.0));
/// cache.get_valid(ItemId(1));                 // touch 1; 2 is now LRU
/// cache.insert(ItemId(3), t(7.0), t(12.0));   // evicts 2
/// assert!(cache.peek(ItemId(2)).is_none());
/// // After a long disconnection the whole cache goes limbo and stops
/// // answering queries until a covering report salvages it.
/// cache.mark_all_limbo();
/// assert!(cache.get_valid(ItemId(1)).is_none());
/// cache.salvage_limbo(t(20.0), |_| true);
/// assert!(cache.get_valid(ItemId(1)).is_some());
/// // A covering report vouches for every entry as of its broadcast
/// // time; a fetch that lands afterwards is the later write.
/// cache.revalidate_all(t(24.0));
/// cache.insert(ItemId(3), t(23.0), t(25.0));
/// assert_eq!(cache.peek(ItemId(1)).unwrap().validated_at, t(24.0));
/// assert_eq!(cache.peek(ItemId(3)).unwrap().validated_at, t(25.0));
/// ```
pub struct LruCache {
    capacity: usize,
    slots: Vec<Slot>,
    /// Compact item table: id → slab position.
    index: HashMap<ItemId, u32, IdBuildHasher>,
    /// Most recently used slot (`NIL` when empty).
    head: u32,
    /// Least recently used slot (`NIL` when empty).
    tail: u32,
    /// Membership bitmap: bit `item.0` is set iff the item is resident
    /// (any state). Grown lazily to the highest word ever touched, so a
    /// cold cache costs nothing; invalidation plans AND this against a
    /// report's stale bitmap word-wise instead of walking the slab.
    member: Vec<u64>,
    /// The vouch epoch: a slot whose `epoch` is older reads as `Valid`
    /// as of `vouched_at`.
    epoch: u32,
    /// When the latest `revalidate_all` vouched for every entry.
    vouched_at: SimTime,
}

impl LruCache {
    /// A cache holding at most `capacity` items.
    ///
    /// Allocation is lazy: a fresh cache owns no slab and no table until
    /// the first insert, so a cold cache costs only its header (112 B on
    /// x86-64), not `capacity` slots.
    /// The eviction gate compares against `len()`, never the allocated
    /// capacity, so laziness is invisible to behaviour.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be at least 1");
        LruCache {
            capacity,
            slots: Vec::new(),
            index: HashMap::with_hasher(IdBuildHasher::default()),
            head: NIL,
            tail: NIL,
            member: Vec::new(),
            epoch: 0,
            vouched_at: SimTime::ZERO,
        }
    }

    /// Slot `i`'s effective entry: as stored when written in the current
    /// epoch, otherwise vouched valid by the latest `revalidate_all`.
    #[inline]
    fn entry(&self, i: usize) -> CacheEntry {
        let slot = &self.slots[i];
        if slot.epoch == self.epoch {
            slot.entry
        } else {
            CacheEntry {
                validated_at: self.vouched_at,
                state: EntryState::Valid,
                ..slot.entry
            }
        }
    }

    /// The effective state of slot `i` (see [`LruCache::entry`]).
    #[inline]
    fn is_limbo(&self, i: usize) -> bool {
        let slot = &self.slots[i];
        slot.epoch == self.epoch && slot.entry.state == EntryState::Limbo
    }

    /// Writes `entry` into slot `i` in the current epoch.
    #[inline]
    fn write(&mut self, i: usize, entry: CacheEntry) {
        let slot = &mut self.slots[i];
        slot.entry = entry;
        slot.epoch = self.epoch;
    }

    /// Makes limbo slot `i` valid as of `now`.
    fn salvage(&mut self, i: usize, now: SimTime) {
        let entry = CacheEntry {
            validated_at: now,
            state: EntryState::Valid,
            ..self.slots[i].entry
        };
        self.write(i, entry);
    }

    /// Sets `item`'s membership bit, growing the bitmap to reach it.
    #[inline]
    fn member_set(&mut self, item: ItemId) {
        let w = item.0 as usize / 64;
        if w >= self.member.len() {
            self.member.resize(w + 1, 0);
        }
        self.member[w] |= 1u64 << (item.0 % 64);
    }

    /// Clears `item`'s membership bit (always within the grown range).
    #[inline]
    fn member_clear(&mut self, item: ItemId) {
        self.member[item.0 as usize / 64] &= !(1u64 << (item.0 % 64));
    }

    /// The membership bitmap words (bit `i` = `ItemId(i)` resident). May
    /// be shorter than `db_size.div_ceil(64)` — absent words mean no
    /// residents in that id range.
    pub fn member_words(&self) -> &[u64] {
        &self.member
    }

    /// `true` when `item` is resident (any state): one membership-bitmap
    /// bit test, no item-table lookup.
    #[inline]
    pub fn is_resident(&self, item: ItemId) -> bool {
        let i = item.0 as usize;
        self.member
            .get(i / 64)
            .is_some_and(|w| w >> (i % 64) & 1 != 0)
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries (valid + limbo).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Detaches slot `i` from the recency list (the slot stays in the
    /// slab).
    #[inline]
    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let s = &self.slots[i as usize];
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Links slot `i` at the MRU end.
    #[inline]
    fn push_front(&mut self, i: u32) {
        let old_head = self.head;
        {
            let s = &mut self.slots[i as usize];
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head as usize].prev = i;
        } else {
            self.tail = i;
        }
        self.head = i;
    }

    /// Moves slot `i` to the MRU end — the O(1) touch.
    #[inline]
    fn touch(&mut self, i: u32) {
        if self.head == i {
            return;
        }
        self.unlink(i);
        self.push_front(i);
    }

    /// Removes slot `i` entirely: unlink, drop from the item table, and
    /// keep the slab dense by swapping the last slot into the hole (its
    /// links and table entry are rewired).
    fn remove_slot(&mut self, i: u32) {
        self.unlink(i);
        let gone = self.slots[i as usize].item;
        self.member_clear(gone);
        self.index.remove(&gone);
        let last = (self.slots.len() - 1) as u32;
        self.slots.swap_remove(i as usize);
        if i != last {
            let (item, prev, next) = {
                let s = &self.slots[i as usize];
                (s.item, s.prev, s.next)
            };
            *self.index.get_mut(&item).expect("moved slot indexed") = i;
            if prev != NIL {
                self.slots[prev as usize].next = i;
            } else {
                self.head = i;
            }
            if next != NIL {
                self.slots[next as usize].prev = i;
            } else {
                self.tail = i;
            }
        }
    }

    /// Looks up a **valid** entry, refreshing its recency. Limbo entries
    /// and absent items both return `None` (a limbo hit is
    /// indistinguishable from a miss to the query path — the copy must
    /// not be used).
    pub fn get_valid(&mut self, item: ItemId) -> Option<CacheEntry> {
        let i = *self.index.get(&item)?;
        let entry = self.entry(i as usize);
        if entry.state != EntryState::Valid {
            return None;
        }
        self.touch(i);
        Some(entry)
    }

    /// Peeks at an entry (any state) without touching recency.
    pub fn peek(&self, item: ItemId) -> Option<CacheEntry> {
        let i = *self.index.get(&item)?;
        Some(self.entry(i as usize))
    }

    /// Inserts (or replaces) an item just fetched from the server,
    /// evicting the least recently used entry if the cache is full.
    /// The new entry is `Valid` with the given version. Returns the
    /// evicted item, if any.
    pub fn insert(&mut self, item: ItemId, version: SimTime, now: SimTime) -> Option<ItemId> {
        let entry = CacheEntry {
            version,
            validated_at: now,
            state: EntryState::Valid,
        };
        if let Some(&i) = self.index.get(&item) {
            self.write(i as usize, entry);
            self.touch(i);
            return None;
        }
        let mut evicted = None;
        if self.slots.len() == self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "cache full but list empty");
            evicted = Some(self.slots[victim as usize].item);
            self.remove_slot(victim);
        }
        let i = self.slots.len() as u32;
        self.slots.push(Slot {
            item,
            entry,
            prev: NIL,
            next: NIL,
            epoch: self.epoch,
        });
        self.push_front(i);
        self.index.insert(item, i);
        self.member_set(item);
        evicted
    }

    /// Drops a single entry (invalidation). Returns `true` if it was
    /// present.
    pub fn invalidate(&mut self, item: ItemId) -> bool {
        match self.index.get(&item) {
            Some(&i) => {
                self.remove_slot(i);
                true
            }
            None => false,
        }
    }

    /// Drops every listed entry; returns how many were present.
    pub fn invalidate_many<I>(&mut self, items: I) -> usize
    where
        I: IntoIterator<Item = ItemId>,
    {
        items.into_iter().filter(|&i| self.invalidate(i)).count()
    }

    /// Drops the entire cache (the `TS` no-checking path after a long
    /// disconnection).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.index.clear();
        self.head = NIL;
        self.tail = NIL;
        self.member.fill(0);
    }

    /// Marks every entry limbo (validity unknown after reconnection),
    /// keeping each entry's effective `validated_at`.
    pub fn mark_all_limbo(&mut self) {
        for i in 0..self.slots.len() {
            let entry = CacheEntry {
                state: EntryState::Limbo,
                ..self.entry(i)
            };
            self.write(i, entry);
        }
    }

    /// Revalidates every remaining entry as of `now` (after the stale
    /// ones were dropped by a covering report) — the `tc_j ← T_i` step of
    /// the Figure-1 client algorithm. Limbo entries become valid again.
    /// O(1): a new vouch epoch (see the module docs). Once in `u32::MAX`
    /// calls the epoch is rebased, which writes every slot once.
    pub fn revalidate_all(&mut self, now: SimTime) {
        if self.epoch == u32::MAX {
            self.rebase_epoch();
        }
        self.epoch += 1;
        self.vouched_at = now;
    }

    /// Writes every slot's effective entry back in epoch 0 and restarts
    /// the epoch there.
    fn rebase_epoch(&mut self) {
        for i in 0..self.slots.len() {
            let entry = self.entry(i);
            self.slots[i].entry = entry;
            self.slots[i].epoch = 0;
        }
        self.epoch = 0;
    }

    /// Salvages limbo entries given a validity verdict per item: entries
    /// for which `is_valid` returns `false` are dropped, the rest become
    /// valid as of `now`. Valid entries are untouched. Allocation-free:
    /// a single forward walk over the slab (removals swap the unvisited
    /// last slot into the hole). Returns `(salvaged, dropped)` counts.
    pub fn salvage_limbo<F>(&mut self, now: SimTime, mut is_valid: F) -> (usize, usize)
    where
        F: FnMut(ItemId) -> bool,
    {
        let mut salvaged = 0;
        let mut dropped = 0;
        let mut i = 0;
        while i < self.slots.len() {
            if !self.is_limbo(i) {
                i += 1;
                continue;
            }
            if is_valid(self.slots[i].item) {
                self.salvage(i, now);
                salvaged += 1;
                i += 1;
            } else {
                self.remove_slot(i as u32);
                dropped += 1;
                // The swapped-in slot (if any) is unvisited; stay at `i`.
            }
        }
        (salvaged, dropped)
    }

    /// Salvages (or drops) a **single** limbo entry given its validity
    /// verdict — the lazy-checking path, where only the queried items are
    /// verified. Valid entries and absent items are untouched. Returns
    /// `true` if the entry was limbo and got processed.
    pub fn salvage_item(&mut self, item: ItemId, valid: bool, now: SimTime) -> bool {
        let Some(&i) = self.index.get(&item) else {
            return false;
        };
        if !self.is_limbo(i as usize) {
            return false;
        }
        if valid {
            self.salvage(i as usize, now);
        } else {
            self.remove_slot(i);
        }
        true
    }

    /// Drops every limbo entry (the adaptive give-up path), returning how
    /// many went. Allocation-free slab walk.
    pub fn drop_limbo(&mut self) -> usize {
        let mut dropped = 0;
        let mut i = 0;
        while i < self.slots.len() {
            if self.is_limbo(i) {
                self.remove_slot(i as u32);
                dropped += 1;
            } else {
                i += 1;
            }
        }
        dropped
    }

    /// All entries as `(item, version)` pairs, without allocating — the
    /// view the pure report algorithms consume. Iterates in slab order
    /// (an implementation detail; callers must not rely on it).
    pub fn items_iter(&self) -> impl Iterator<Item = (ItemId, SimTime)> + '_ {
        self.slots.iter().map(|s| (s.item, s.entry.version))
    }

    /// All entries with their full effective state, without allocating
    /// (the consistency oracle's view).
    pub fn entries_iter(&self) -> impl Iterator<Item = (ItemId, CacheEntry)> + '_ {
        (0..self.slots.len()).map(|i| (self.slots[i].item, self.entry(i)))
    }

    /// Items currently in limbo, without allocating.
    pub fn limbo_iter(&self) -> impl Iterator<Item = ItemId> + '_ {
        (0..self.slots.len())
            .filter(|&i| self.is_limbo(i))
            .map(|i| self.slots[i].item)
    }

    /// `true` when any entry is in limbo.
    pub fn has_limbo(&self) -> bool {
        (0..self.slots.len()).any(|i| self.is_limbo(i))
    }

    /// Internal-consistency check used by tests and debug assertions.
    ///
    /// # Panics
    /// Panics if the slab, the item table and the recency list disagree.
    pub fn check_invariants(&self) {
        assert!(self.slots.len() <= self.capacity, "over capacity");
        assert_eq!(self.slots.len(), self.index.len(), "index out of sync");
        for (&item, &i) in &self.index {
            assert_eq!(
                self.slots[i as usize].item, item,
                "table points {item:?} at a slot holding another item"
            );
        }
        // Walk the recency list head→tail: every slot exactly once, with
        // mutually consistent links.
        let mut seen = 0usize;
        let mut prev = NIL;
        let mut cur = self.head;
        while cur != NIL {
            let s = &self.slots[cur as usize];
            assert_eq!(s.prev, prev, "broken back-link at slot {cur}");
            assert!(seen <= self.slots.len(), "recency list cycles");
            prev = cur;
            cur = s.next;
            seen += 1;
        }
        assert_eq!(prev, self.tail, "tail out of sync");
        assert_eq!(seen, self.slots.len(), "recency list misses slots");
        // Membership bitmap ≡ slab: every resident item's bit is set, and
        // the total popcount matches, so no stray bits survive removals.
        for slot in &self.slots {
            let (w, b) = (slot.item.0 as usize / 64, slot.item.0 % 64);
            assert!(
                self.member.get(w).is_some_and(|word| word & (1 << b) != 0),
                "membership bit missing for {:?}",
                slot.item
            );
        }
        let pop: u32 = self.member.iter().map(|w| w.count_ones()).sum();
        assert_eq!(pop as usize, self.slots.len(), "stray membership bits");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut c = LruCache::new(4);
        c.insert(ItemId(1), t(5.0), t(10.0));
        let e = c.get_valid(ItemId(1)).expect("present");
        assert_eq!(e.version, t(5.0));
        assert_eq!(e.validated_at, t(10.0));
        assert_eq!(e.state, EntryState::Valid);
        assert!(c.get_valid(ItemId(2)).is_none());
        c.check_invariants();
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(3);
        c.insert(ItemId(1), t(1.0), t(1.0));
        c.insert(ItemId(2), t(1.0), t(2.0));
        c.insert(ItemId(3), t(1.0), t(3.0));
        // Touch 1 so 2 becomes the LRU victim.
        c.get_valid(ItemId(1));
        assert_eq!(c.insert(ItemId(4), t(1.0), t(4.0)), Some(ItemId(2)));
        assert!(c.peek(ItemId(2)).is_none(), "LRU entry evicted");
        assert!(c.peek(ItemId(1)).is_some());
        assert_eq!(c.len(), 3);
        c.check_invariants();
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c = LruCache::new(2);
        c.insert(ItemId(1), t(1.0), t(1.0));
        assert_eq!(c.insert(ItemId(1), t(9.0), t(9.0)), None, "nothing evicted");
        assert_eq!(c.len(), 1);
        assert_eq!(c.get_valid(ItemId(1)).unwrap().version, t(9.0));
        c.check_invariants();
    }

    #[test]
    fn reinsert_refreshes_recency() {
        let mut c = LruCache::new(2);
        c.insert(ItemId(1), t(1.0), t(1.0));
        c.insert(ItemId(2), t(1.0), t(2.0));
        // Re-inserting 1 makes 2 the LRU victim.
        c.insert(ItemId(1), t(3.0), t(3.0));
        c.insert(ItemId(3), t(4.0), t(4.0));
        assert!(c.peek(ItemId(2)).is_none(), "LRU entry evicted");
        assert!(c.peek(ItemId(1)).is_some());
        c.check_invariants();
    }

    #[test]
    fn limbo_entries_do_not_answer_queries() {
        let mut c = LruCache::new(2);
        c.insert(ItemId(1), t(1.0), t(1.0));
        c.mark_all_limbo();
        assert!(c.get_valid(ItemId(1)).is_none());
        assert!(c.has_limbo());
        assert_eq!(c.limbo_iter().collect::<Vec<_>>(), vec![ItemId(1)]);
        assert_eq!(c.len(), 1, "limbo keeps its slot");
    }

    #[test]
    fn salvage_keeps_valid_and_drops_invalid() {
        let mut c = LruCache::new(4);
        c.insert(ItemId(1), t(1.0), t(1.0));
        c.insert(ItemId(2), t(1.0), t(1.0));
        c.insert(ItemId(3), t(1.0), t(1.0));
        c.mark_all_limbo();
        let (salvaged, dropped) = c.salvage_limbo(t(50.0), |i| i != ItemId(2));
        assert_eq!((salvaged, dropped), (2, 1));
        assert!(c.get_valid(ItemId(1)).is_some());
        assert!(c.peek(ItemId(2)).is_none());
        assert_eq!(c.get_valid(ItemId(3)).unwrap().validated_at, t(50.0));
        assert!(!c.has_limbo());
        c.check_invariants();
    }

    #[test]
    fn salvage_does_not_touch_valid_entries() {
        let mut c = LruCache::new(4);
        c.insert(ItemId(1), t(1.0), t(1.0));
        let (salvaged, dropped) = c.salvage_limbo(t(50.0), |_| false);
        assert_eq!((salvaged, dropped), (0, 0));
        assert_eq!(c.get_valid(ItemId(1)).unwrap().validated_at, t(1.0));
    }

    #[test]
    fn revalidate_all_restores_limbo() {
        let mut c = LruCache::new(2);
        c.insert(ItemId(1), t(1.0), t(1.0));
        c.mark_all_limbo();
        c.revalidate_all(t(20.0));
        let e = c.get_valid(ItemId(1)).expect("valid again");
        assert_eq!(e.validated_at, t(20.0));
        assert_eq!(e.version, t(1.0), "version untouched");
    }

    #[test]
    fn invalidate_many_counts_hits() {
        let mut c = LruCache::new(4);
        c.insert(ItemId(1), t(1.0), t(1.0));
        c.insert(ItemId(2), t(1.0), t(1.0));
        let n = c.invalidate_many(vec![ItemId(1), ItemId(7)]);
        assert_eq!(n, 1);
        assert_eq!(c.len(), 1);
        c.check_invariants();
    }

    #[test]
    fn drop_limbo_removes_exactly_the_limbo_entries() {
        let mut c = LruCache::new(4);
        c.insert(ItemId(1), t(1.0), t(1.0));
        c.insert(ItemId(2), t(1.0), t(1.0));
        c.mark_all_limbo();
        c.insert(ItemId(3), t(2.0), t(2.0)); // fresh, valid
        assert_eq!(c.drop_limbo(), 2);
        assert_eq!(c.len(), 1);
        assert!(c.peek(ItemId(3)).is_some());
        assert!(!c.has_limbo());
        c.check_invariants();
    }

    #[test]
    fn clear_empties_everything() {
        let mut c = LruCache::new(4);
        c.insert(ItemId(1), t(1.0), t(1.0));
        c.insert(ItemId(2), t(1.0), t(1.0));
        c.clear();
        assert!(c.is_empty());
        c.check_invariants();
    }

    #[test]
    fn limbo_entry_replaced_by_fresh_fetch() {
        let mut c = LruCache::new(2);
        c.insert(ItemId(1), t(1.0), t(1.0));
        c.mark_all_limbo();
        c.insert(ItemId(1), t(30.0), t(30.0));
        let e = c.get_valid(ItemId(1)).expect("fresh copy valid");
        assert_eq!(e.version, t(30.0));
    }

    #[test]
    fn eviction_order_survives_interior_removals() {
        // Exercise the swap_remove rewiring: delete from the middle, then
        // check the LRU victim order is still oldest-first.
        let mut c = LruCache::new(4);
        for i in 1..=4 {
            c.insert(ItemId(i), t(f64::from(i)), t(f64::from(i)));
        }
        c.invalidate(ItemId(2)); // interior removal swaps slot 3 into 1
        c.check_invariants();
        c.get_valid(ItemId(1)); // 1 touched; LRU order now 3, 4, 1
        assert_eq!(c.insert(ItemId(5), t(9.0), t(9.0)), None);
        assert_eq!(c.insert(ItemId(6), t(9.5), t(9.5)), Some(ItemId(3)));
        assert!(c.peek(ItemId(3)).is_none(), "oldest untouched entry went");
        assert!(c.peek(ItemId(4)).is_some());
        assert!(c.peek(ItemId(1)).is_some());
        c.check_invariants();
    }

    #[test]
    fn slot_stays_forty_bytes() {
        // The epoch lives in padding the slot already had.
        assert_eq!(std::mem::size_of::<Slot>(), 40);
    }

    #[test]
    fn last_write_wins_between_insert_and_revalidate() {
        let mut c = LruCache::new(4);
        c.insert(ItemId(1), t(1.0), t(10.0));
        // A report broadcast at 8 s arrives after data landed at 10 s:
        // the report's vouch is the later write.
        c.revalidate_all(t(8.0));
        assert_eq!(c.peek(ItemId(1)).unwrap().validated_at, t(8.0));
        c.insert(ItemId(2), t(2.0), t(12.0));
        assert_eq!(c.peek(ItemId(2)).unwrap().validated_at, t(12.0));
        c.mark_all_limbo();
        let e1 = c.peek(ItemId(1)).unwrap();
        assert_eq!((e1.state, e1.validated_at), (EntryState::Limbo, t(8.0)));
        c.revalidate_all(t(20.0));
        for (_, e) in c.entries_iter() {
            assert_eq!((e.state, e.validated_at), (EntryState::Valid, t(20.0)));
        }
        assert!(!c.has_limbo());
    }

    #[test]
    fn epoch_rebases_at_u32_max() {
        let mut c = LruCache::new(4);
        c.epoch = u32::MAX - 2;
        c.insert(ItemId(1), t(1.0), t(1.0));
        c.revalidate_all(t(5.0)); // epoch MAX - 1
        c.insert(ItemId(2), t(2.0), t(6.0));
        c.revalidate_all(t(7.0)); // epoch MAX
        c.insert(ItemId(3), t(3.0), t(8.0));
        c.mark_all_limbo();
        c.salvage_item(ItemId(3), true, t(9.0));
        c.insert(ItemId(4), t(4.0), t(10.0));
        let before: Vec<_> = c.entries_iter().collect();
        assert_eq!(c.epoch, u32::MAX);
        // Rebase, then the bump: every slot was written back in epoch 0,
        // so all of them now read as vouched at 11 s.
        c.revalidate_all(t(11.0));
        assert_eq!(c.epoch, 1);
        assert!(c.slots.iter().all(|s| s.epoch == 0));
        for ((item, old), (same, new)) in before.into_iter().zip(c.entries_iter()) {
            assert_eq!(item, same);
            assert_eq!(new.version, old.version);
            assert_eq!((new.state, new.validated_at), (EntryState::Valid, t(11.0)));
        }
        c.insert(ItemId(5), t(5.0), t(12.0));
        c.mark_all_limbo();
        assert_eq!(c.limbo_iter().count(), 4);
        let e5 = c.peek(ItemId(5)).unwrap();
        assert_eq!((e5.state, e5.validated_at), (EntryState::Limbo, t(12.0)));
        let e2 = c.peek(ItemId(2)).unwrap();
        assert_eq!((e2.state, e2.validated_at), (EntryState::Limbo, t(11.0)));
        c.check_invariants();
    }

    #[test]
    fn rebase_keeps_current_epoch_writes() {
        let mut c = LruCache::new(4);
        c.epoch = u32::MAX - 1;
        c.insert(ItemId(1), t(1.0), t(1.0));
        c.revalidate_all(t(3.0)); // epoch MAX
        c.insert(ItemId(2), t(2.0), t(4.0));
        c.mark_all_limbo();
        c.rebase_epoch();
        assert_eq!(c.epoch, 0);
        let e1 = c.peek(ItemId(1)).unwrap();
        assert_eq!((e1.state, e1.validated_at), (EntryState::Limbo, t(3.0)));
        let e2 = c.peek(ItemId(2)).unwrap();
        assert_eq!((e2.state, e2.validated_at), (EntryState::Limbo, t(4.0)));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_rejected() {
        LruCache::new(0);
    }
}
