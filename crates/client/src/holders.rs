//! The item → holders index: for every item, the clients whose cache
//! holds it (in any state). A report can change a vouched client's cache
//! only through the items it marks, so the fan-out walks the holders of
//! those items and stamps the rest (see [`ClientPop::stamp`]).
//!
//! The index is a singly linked list per item through one node arena:
//! a `u32` head per item and an 8-byte `(client, next)` node per cached
//! entry. Freed nodes go on a free list that the next insert reuses, so
//! the arena never outgrows the peak number of cached entries. Removal
//! walks the item's list, which is as long as the item has holders.
//!
//! [`HeldCache`] is the only way a client's handlers reach its cache
//! mutably. Its methods are exactly the calls that make an item resident
//! or drop one — insert, evict, invalidate, clear, and the limbo drops —
//! and each keeps the index in step, so no path can forget it. The
//! index updates and the whole-cache drops are kept out of line: inlined
//! into the report walk, they cost every walked client a few
//! nanoseconds on a fault run that walks 400 clients a report.
//!
//! [`ClientPop::stamp`]: crate::ClientPop::stamp

use crate::machine::ClientCounters;
use mobicache_cache::{CacheEntry, LruCache};
use mobicache_model::ItemId;
use mobicache_sim::SimTime;
use std::ops::Deref;

/// The end of a list.
const NIL: u32 = u32::MAX;

/// One holder of an item, and the next node of that item's list.
#[derive(Clone, Copy)]
struct Node {
    client: u32,
    next: u32,
}

/// The item → holders index of a population.
pub(crate) struct Holders {
    /// `head[item]`: the first node of the item's list (`NIL`: no
    /// holder). Grown to the highest item id ever cached.
    head: Vec<u32>,
    /// The node arena; free nodes are threaded through `next` from
    /// `free`.
    nodes: Vec<Node>,
    free: u32,
}

impl Holders {
    /// An index with no holders.
    pub(crate) fn new() -> Self {
        Holders {
            head: Vec::new(),
            nodes: Vec::new(),
            free: NIL,
        }
    }

    /// Records that `client` now holds `item`.
    #[inline(never)]
    fn add(&mut self, item: ItemId, client: u32) {
        let i = item.0 as usize;
        if i >= self.head.len() {
            self.head.resize(i + 1, NIL);
        }
        let node = Node {
            client,
            next: self.head[i],
        };
        let n = if self.free == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        };
        self.head[i] = n;
    }

    /// Records that `client` no longer holds `item`.
    #[inline(never)]
    fn remove(&mut self, item: ItemId, client: u32) {
        let i = item.0 as usize;
        let (mut prev, mut cur) = (NIL, self.head[i]);
        while cur != NIL && self.nodes[cur as usize].client != client {
            prev = cur;
            cur = self.nodes[cur as usize].next;
        }
        debug_assert_ne!(cur, NIL, "client {client} does not hold {item:?}");
        if cur == NIL {
            return;
        }
        let next = self.nodes[cur as usize].next;
        if prev == NIL {
            self.head[i] = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        self.nodes[cur as usize].next = self.free;
        self.free = cur;
    }

    /// Calls `f(client)` for every holder of `item`, most recent first.
    pub(crate) fn for_each(&self, item: ItemId, mut f: impl FnMut(usize)) {
        let mut cur = self.head.get(item.0 as usize).copied().unwrap_or(NIL);
        while cur != NIL {
            let node = self.nodes[cur as usize];
            f(node.client as usize);
            cur = node.next;
        }
    }

    /// Nodes in the arena, live and free.
    pub(crate) fn arena_len(&self) -> usize {
        self.nodes.len()
    }
}

/// Client `client`'s cache with its part of the holders index: a
/// read-only [`LruCache`] through `Deref`, and every call that changes
/// which items are resident updates the index as well.
///
/// A client that has never cached an item has no body of its own and
/// reads the population's shared empty body, which nothing writes:
/// every mutator but [`HeldCache::insert`] leaves such a client alone
/// (an empty cache has nothing to drop, and its vouch time cannot be
/// observed), and its first insert gives it a body from the arena,
/// which it keeps.
pub(crate) struct HeldCache<'a> {
    /// The client's body, or the shared empty one while it has none.
    cache: &'a mut LruCache,
    /// While the client has no body: its handle and the arena its first
    /// insert takes a body from.
    cold: Option<(&'a mut u32, &'a mut Vec<LruCache>)>,
    holders: &'a mut Holders,
    client: u32,
}

impl Deref for HeldCache<'_> {
    type Target = LruCache;

    #[inline]
    fn deref(&self) -> &LruCache {
        self.cache
    }
}

impl<'a> HeldCache<'a> {
    /// The view of client `client`, whose handle is `handle`: 0 while it
    /// has no body and reads `empty`, else `h` for `bodies[h - 1]`.
    #[inline(always)]
    pub(crate) fn new(
        handle: &'a mut u32,
        bodies: &'a mut Vec<LruCache>,
        empty: &'a mut LruCache,
        holders: &'a mut Holders,
        client: usize,
    ) -> Self {
        let (cache, cold) = match *handle {
            0 => (empty, Some((handle, bodies))),
            h => (&mut bodies[h as usize - 1], None),
        };
        HeldCache {
            cache,
            cold,
            holders,
            client: client as u32,
        }
    }

    /// The client's own body, the index and the client, or `None` while
    /// it has no body.
    #[inline]
    fn body(&mut self) -> Option<(&mut LruCache, &mut Holders, u32)> {
        match self.cold {
            Some(_) => None,
            None => Some((&mut *self.cache, &mut *self.holders, self.client)),
        }
    }

    /// [`LruCache::insert`]: a new item gains this client as a holder,
    /// an evicted one loses it and counts in `counters`. A client with
    /// no body takes one from the arena first.
    pub(crate) fn insert(
        &mut self,
        item: ItemId,
        version: SimTime,
        now: SimTime,
        counters: &mut ClientCounters,
    ) {
        if let Some((handle, bodies)) = self.cold.take() {
            bodies.push(LruCache::new(self.cache.capacity()));
            *handle = bodies.len() as u32;
            self.cache = &mut bodies[*handle as usize - 1];
        }
        let fresh = !self.cache.is_resident(item);
        if let Some(gone) = self.cache.insert(item, version, now) {
            self.holders.remove(gone, self.client);
            counters.evictions += 1;
        }
        if fresh {
            self.holders.add(item, self.client);
        }
    }

    /// [`LruCache::invalidate_many`].
    pub(crate) fn invalidate_many(&mut self, items: impl IntoIterator<Item = ItemId>) {
        let Some((cache, holders, client)) = self.body() else {
            return;
        };
        for item in items {
            if cache.invalidate(item) {
                holders.remove(item, client);
            }
        }
    }

    /// [`LruCache::clear`].
    #[inline(never)]
    pub(crate) fn clear(&mut self) {
        let Some((cache, holders, client)) = self.body() else {
            return;
        };
        for (item, _) in cache.items_iter() {
            holders.remove(item, client);
        }
        cache.clear();
    }

    /// [`LruCache::salvage_limbo`]: a limbo entry judged invalid goes.
    #[inline(never)]
    pub(crate) fn salvage_limbo(
        &mut self,
        now: SimTime,
        mut is_valid: impl FnMut(ItemId) -> bool,
    ) -> (usize, usize) {
        let Some((cache, holders, client)) = self.body() else {
            return (0, 0);
        };
        cache.salvage_limbo(now, |item| {
            let valid = is_valid(item);
            if !valid {
                holders.remove(item, client);
            }
            valid
        })
    }

    /// [`LruCache::salvage_item`]: a limbo entry judged invalid goes.
    #[inline(never)]
    pub(crate) fn salvage_item(&mut self, item: ItemId, valid: bool, now: SimTime) -> bool {
        let Some((cache, holders, client)) = self.body() else {
            return false;
        };
        let done = cache.salvage_item(item, valid, now);
        if done && !valid {
            holders.remove(item, client);
        }
        done
    }

    /// [`LruCache::drop_limbo`].
    #[inline(never)]
    pub(crate) fn drop_limbo(&mut self) -> usize {
        let Some((cache, holders, client)) = self.body() else {
            return 0;
        };
        for item in cache.limbo_iter() {
            holders.remove(item, client);
        }
        cache.drop_limbo()
    }

    /// [`LruCache::get_valid`] (refreshes recency only).
    pub(crate) fn get_valid(&mut self, item: ItemId) -> Option<CacheEntry> {
        self.body()?.0.get_valid(item)
    }

    /// [`LruCache::mark_all_limbo`] (every entry stays resident).
    pub(crate) fn mark_all_limbo(&mut self) {
        if let Some((cache, ..)) = self.body() {
            cache.mark_all_limbo();
        }
    }

    /// [`LruCache::revalidate_all`] (every entry stays resident).
    pub(crate) fn revalidate_all(&mut self, now: SimTime) {
        if let Some((cache, ..)) = self.body() {
            cache.revalidate_all(now);
        }
    }
}
