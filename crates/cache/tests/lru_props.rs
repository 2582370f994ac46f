//! Property tests: the LRU cache against two reference models — a
//! trivially-correct Vec ordered by recency, and a faithful
//! reimplementation of the pre-slab `HashMap` + `BTreeMap`
//! implementation (the design the dense-slab rewrite replaced), which
//! additionally pins down the eviction counter and the wider API
//! surface (`salvage_item`, `drop_limbo`, `invalidate_many`).
//!
//! Both models also track each entry's `validated_at`. Time advances
//! every step, and `revalidate_all` sometimes vouches as of a time
//! earlier than a preceding insert (a report still on the air when the
//! data landed): the later *write* wins, not the later time, which is
//! what the cache's O(1) vouch epoch must reproduce.

use mobicache_cache::{EntryState, LruCache};
use mobicache_model::ItemId;
use mobicache_sim::SimTime;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

/// Step `step`'s clock: one second per step.
fn now_at(step: usize) -> SimTime {
    SimTime::from_secs(10.0 + step as f64)
}

/// A `revalidate_all` time `lag` half-seconds before the step's clock,
/// so a vouch can predate the inserts of the last steps.
fn vouch_at(step: usize, lag: u8) -> SimTime {
    SimTime::from_secs(10.0 + step as f64 - 0.5 * f64::from(lag))
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u32),
    Get(u32),
    Invalidate(u32),
    MarkAllLimbo,
    /// Revalidate as of `lag` half-seconds before the step's clock.
    RevalidateAll(u8),
    SalvageEven,
    Clear,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u32..32).prop_map(Op::Insert),
        4 => (0u32..32).prop_map(Op::Get),
        1 => (0u32..32).prop_map(Op::Invalidate),
        1 => Just(Op::MarkAllLimbo),
        2 => (0u8..5).prop_map(Op::RevalidateAll),
        1 => Just(Op::SalvageEven),
        1 => Just(Op::Clear),
    ]
}

/// Reference model: most-recently-used last; `(id, state, validated_at)`.
#[derive(Default)]
struct Model {
    entries: Vec<(u32, EntryState, SimTime)>,
    capacity: usize,
}

impl Model {
    fn touch(&mut self, id: u32) {
        if let Some(pos) = self.entries.iter().position(|&(i, ..)| i == id) {
            let e = self.entries.remove(pos);
            self.entries.push(e);
        }
    }

    fn apply(&mut self, op: &Op, step: usize) {
        let now = now_at(step);
        match *op {
            Op::Insert(id) => {
                if let Some(pos) = self.entries.iter().position(|&(i, ..)| i == id) {
                    self.entries.remove(pos);
                } else if self.entries.len() == self.capacity {
                    self.entries.remove(0);
                }
                self.entries.push((id, EntryState::Valid, now));
            }
            Op::Get(id) => {
                let valid = self
                    .entries
                    .iter()
                    .any(|&(i, s, _)| i == id && s == EntryState::Valid);
                if valid {
                    self.touch(id);
                }
            }
            Op::Invalidate(id) => self.entries.retain(|&(i, ..)| i != id),
            Op::MarkAllLimbo => {
                for e in &mut self.entries {
                    e.1 = EntryState::Limbo;
                }
            }
            Op::RevalidateAll(lag) => {
                for e in &mut self.entries {
                    e.1 = EntryState::Valid;
                    e.2 = vouch_at(step, lag);
                }
            }
            Op::SalvageEven => {
                self.entries
                    .retain(|&(i, s, _)| s == EntryState::Valid || i % 2 == 0);
                for e in &mut self.entries {
                    if e.1 == EntryState::Limbo {
                        *e = (e.0, EntryState::Valid, now);
                    }
                }
            }
            Op::Clear => self.entries.clear(),
        }
    }
}

/// The previous `LruCache` design, reimplemented as a reference model:
/// entries in a `HashMap<ItemId, (state, seq)>`, recency tracked by a
/// `BTreeMap<seq, ItemId>` keyed by a monotonically increasing sequence
/// number (smallest = least recently used). Every observable behaviour
/// of the slab — membership, states, `validated_at`, get results,
/// return values, and each evicted victim — must match this model
/// exactly. Entries are `(state, seq, validated_at)`.
struct MapLru {
    capacity: usize,
    map: HashMap<ItemId, (EntryState, u64, SimTime)>,
    recency: BTreeMap<u64, ItemId>,
    next_seq: u64,
    evictions: u64,
}

impl MapLru {
    fn new(capacity: usize) -> Self {
        MapLru {
            capacity,
            map: HashMap::new(),
            recency: BTreeMap::new(),
            next_seq: 0,
            evictions: 0,
        }
    }

    fn touch(&mut self, item: ItemId) {
        if let Some((_, seq, _)) = self.map.get_mut(&item) {
            self.recency.remove(seq);
            *seq = self.next_seq;
            self.next_seq += 1;
            self.recency.insert(*seq, item);
        }
    }

    /// Inserts `item`, returning the least recently used entry it
    /// evicted, if any.
    fn insert(&mut self, item: ItemId, now: SimTime) -> Option<ItemId> {
        if let Some((state, _, at)) = self.map.get_mut(&item) {
            *state = EntryState::Valid;
            *at = now;
            self.touch(item);
            return None;
        }
        let mut evicted = None;
        if self.map.len() == self.capacity {
            let (&seq, &victim) = self.recency.iter().next().expect("full but untracked");
            self.recency.remove(&seq);
            self.map.remove(&victim);
            self.evictions += 1;
            evicted = Some(victim);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.map.insert(item, (EntryState::Valid, seq, now));
        self.recency.insert(seq, item);
        evicted
    }

    fn get_valid(&mut self, item: ItemId) -> bool {
        match self.map.get(&item) {
            Some(&(EntryState::Valid, ..)) => {
                self.touch(item);
                true
            }
            _ => false,
        }
    }

    fn invalidate(&mut self, item: ItemId) -> bool {
        match self.map.remove(&item) {
            Some((_, seq, _)) => {
                self.recency.remove(&seq);
                true
            }
            None => false,
        }
    }

    fn mark_all_limbo(&mut self) {
        for (state, ..) in self.map.values_mut() {
            *state = EntryState::Limbo;
        }
    }

    fn revalidate_all(&mut self, now: SimTime) {
        for (state, _, at) in self.map.values_mut() {
            *state = EntryState::Valid;
            *at = now;
        }
    }

    fn limbo_items(&self) -> Vec<ItemId> {
        self.map
            .iter()
            .filter(|(_, &(s, ..))| s == EntryState::Limbo)
            .map(|(&i, _)| i)
            .collect()
    }

    fn salvage_limbo<F: FnMut(ItemId) -> bool>(
        &mut self,
        now: SimTime,
        mut is_valid: F,
    ) -> (usize, usize) {
        let (mut salvaged, mut dropped) = (0, 0);
        for item in self.limbo_items() {
            if is_valid(item) {
                let entry = self.map.get_mut(&item).expect("limbo entry");
                (entry.0, entry.2) = (EntryState::Valid, now);
                salvaged += 1;
            } else {
                self.invalidate(item);
                dropped += 1;
            }
        }
        (salvaged, dropped)
    }

    fn salvage_item(&mut self, item: ItemId, valid: bool, now: SimTime) -> bool {
        match self.map.get_mut(&item) {
            Some((state, _, at)) if *state == EntryState::Limbo => {
                if valid {
                    (*state, *at) = (EntryState::Valid, now);
                } else {
                    self.invalidate(item);
                }
                true
            }
            _ => false,
        }
    }

    fn drop_limbo(&mut self) -> usize {
        let limbo = self.limbo_items();
        for &item in &limbo {
            self.invalidate(item);
        }
        limbo.len()
    }

    fn clear(&mut self) {
        self.map.clear();
        self.recency.clear();
    }
}

/// Ops for the slab-vs-old-implementation test: the full public
/// mutation surface.
#[derive(Debug, Clone)]
enum SlabOp {
    Insert(u32),
    Get(u32),
    Invalidate(u32),
    InvalidateMany(Vec<u32>),
    MarkAllLimbo,
    /// Revalidate as of `lag` half-seconds before the step's clock.
    RevalidateAll(u8),
    SalvageOdd,
    SalvageItem(u32, bool),
    DropLimbo,
    Clear,
}

fn slab_op_strategy() -> impl Strategy<Value = SlabOp> {
    prop_oneof![
        5 => (0u32..24).prop_map(SlabOp::Insert),
        4 => (0u32..24).prop_map(SlabOp::Get),
        2 => (0u32..24).prop_map(SlabOp::Invalidate),
        1 => prop::collection::vec(0u32..24, 0..6).prop_map(SlabOp::InvalidateMany),
        1 => Just(SlabOp::MarkAllLimbo),
        2 => (0u8..5).prop_map(SlabOp::RevalidateAll),
        1 => Just(SlabOp::SalvageOdd),
        2 => ((0u32..24), any::<bool>()).prop_map(|(i, v)| SlabOp::SalvageItem(i, v)),
        1 => Just(SlabOp::DropLimbo),
        1 => Just(SlabOp::Clear),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cache_matches_reference_model(
        capacity in 1usize..8,
        ops in prop::collection::vec(op_strategy(), 0..80),
    ) {
        let mut cache = LruCache::new(capacity);
        let mut model = Model { capacity, ..Model::default() };
        for (step, op) in ops.iter().enumerate() {
            let now = now_at(step);
            match *op {
                Op::Insert(id) => { cache.insert(ItemId(id), now, now); }
                Op::Get(id) => {
                    let got = cache.get_valid(ItemId(id)).is_some();
                    let expect = model
                        .entries
                        .iter()
                        .any(|&(i, s, _)| i == id && s == EntryState::Valid);
                    prop_assert_eq!(got, expect, "get mismatch at step {}", step);
                }
                Op::Invalidate(id) => { cache.invalidate(ItemId(id)); }
                Op::MarkAllLimbo => cache.mark_all_limbo(),
                Op::RevalidateAll(lag) => cache.revalidate_all(vouch_at(step, lag)),
                Op::SalvageEven => { cache.salvage_limbo(now, |i| i.0 % 2 == 0); }
                Op::Clear => cache.clear(),
            }
            model.apply(op, step);
            cache.check_invariants();
            prop_assert_eq!(cache.len(), model.entries.len(), "len mismatch at step {}", step);
            // Same membership, states and vouch times, through both
            // read paths.
            for &(id, state, at) in &model.entries {
                let entry = cache.peek(ItemId(id));
                prop_assert!(entry.is_some(), "missing {} at step {}", id, step);
                let entry = entry.unwrap();
                prop_assert_eq!(entry.state, state, "state of {} at step {}", id, step);
                prop_assert_eq!(entry.validated_at, at, "validated_at of {} at step {}", id, step);
            }
            for (item, entry) in cache.entries_iter() {
                prop_assert_eq!(Some(entry), cache.peek(item), "entries_iter at step {}", step);
            }
        }
    }

    /// The dense slab must be observation-equivalent to the old
    /// `HashMap` + `BTreeMap` implementation it replaced — including
    /// return values and the victim of every insert, which the first
    /// model does not track.
    #[test]
    fn slab_matches_old_map_btreemap_model(
        capacity in 1usize..8,
        ops in prop::collection::vec(slab_op_strategy(), 0..120),
    ) {
        let mut cache = LruCache::new(capacity);
        let mut old = MapLru::new(capacity);
        // The cache keeps no eviction count: the victims `insert`
        // returned are its count.
        let mut evicted = 0u64;
        for (step, op) in ops.iter().enumerate() {
            let now = now_at(step);
            match op {
                SlabOp::Insert(id) => {
                    let got = cache.insert(ItemId(*id), now, now);
                    let expect = old.insert(ItemId(*id), now);
                    prop_assert_eq!(got, expect, "evicted victim at step {}", step);
                    evicted += u64::from(got.is_some());
                }
                SlabOp::Get(id) => {
                    let got = cache.get_valid(ItemId(*id)).is_some();
                    let expect = old.get_valid(ItemId(*id));
                    prop_assert_eq!(got, expect, "get mismatch at step {}", step);
                }
                SlabOp::Invalidate(id) => {
                    let got = cache.invalidate(ItemId(*id));
                    let expect = old.invalidate(ItemId(*id));
                    prop_assert_eq!(got, expect, "invalidate mismatch at step {}", step);
                }
                SlabOp::InvalidateMany(ids) => {
                    let got = cache.invalidate_many(ids.iter().map(|&i| ItemId(i)));
                    let expect = ids.iter().filter(|&&i| old.invalidate(ItemId(i))).count();
                    prop_assert_eq!(got, expect, "invalidate_many mismatch at step {}", step);
                }
                SlabOp::MarkAllLimbo => {
                    cache.mark_all_limbo();
                    old.mark_all_limbo();
                }
                SlabOp::RevalidateAll(lag) => {
                    cache.revalidate_all(vouch_at(step, *lag));
                    old.revalidate_all(vouch_at(step, *lag));
                }
                SlabOp::SalvageOdd => {
                    let got = cache.salvage_limbo(now, |i| i.0 % 2 == 1);
                    let expect = old.salvage_limbo(now, |i| i.0 % 2 == 1);
                    prop_assert_eq!(got, expect, "salvage counts mismatch at step {}", step);
                }
                SlabOp::SalvageItem(id, valid) => {
                    let got = cache.salvage_item(ItemId(*id), *valid, now);
                    let expect = old.salvage_item(ItemId(*id), *valid, now);
                    prop_assert_eq!(got, expect, "salvage_item mismatch at step {}", step);
                }
                SlabOp::DropLimbo => {
                    let got = cache.drop_limbo();
                    let expect = old.drop_limbo();
                    prop_assert_eq!(got, expect, "drop_limbo mismatch at step {}", step);
                }
                SlabOp::Clear => {
                    cache.clear();
                    old.clear();
                }
            }
            cache.check_invariants();
            prop_assert_eq!(cache.len(), old.map.len(), "len mismatch at step {}", step);
            prop_assert_eq!(evicted, old.evictions, "eviction count at step {}", step);
            for (&item, &(state, _, at)) in &old.map {
                let entry = cache.peek(item);
                prop_assert!(entry.is_some(), "missing {:?} at step {}", item, step);
                let entry = entry.unwrap();
                prop_assert_eq!(entry.state, state, "state of {:?} at step {}", item, step);
                prop_assert_eq!(
                    entry.validated_at, at,
                    "validated_at of {:?} at step {}", item, step
                );
            }
            prop_assert_eq!(
                cache.has_limbo(),
                old.map.values().any(|&(s, ..)| s == EntryState::Limbo),
                "has_limbo mismatch at step {}", step
            );
            let mut limbo: Vec<ItemId> = cache.limbo_iter().collect();
            let mut expect_limbo = old.limbo_items();
            limbo.sort_unstable();
            expect_limbo.sort_unstable();
            prop_assert_eq!(limbo, expect_limbo, "limbo_iter mismatch at step {}", step);
        }
    }

    /// The membership bitmap must equal the slab exactly — same ids, no
    /// stray bits — after every mutation the public API can express
    /// (insert/evict, invalidate, invalidate_many, clear, limbo marking,
    /// both salvage paths and drop_limbo). This is the invariant the
    /// invalidation-plan fast path relies on: `plan & member` must see
    /// exactly the resident items.
    #[test]
    fn membership_bitmap_matches_items_iter(
        capacity in 1usize..8,
        ops in prop::collection::vec(slab_op_strategy(), 0..120),
    ) {
        let mut cache = LruCache::new(capacity);
        let now = SimTime::from_secs(1.0);
        for (step, op) in ops.iter().enumerate() {
            match op {
                SlabOp::Insert(id) => { cache.insert(ItemId(*id), now, now); }
                SlabOp::Get(id) => { cache.get_valid(ItemId(*id)); }
                SlabOp::Invalidate(id) => { cache.invalidate(ItemId(*id)); }
                SlabOp::InvalidateMany(ids) => {
                    cache.invalidate_many(ids.iter().map(|&i| ItemId(i)));
                }
                SlabOp::MarkAllLimbo => cache.mark_all_limbo(),
                SlabOp::RevalidateAll(_) => cache.revalidate_all(now),
                SlabOp::SalvageOdd => { cache.salvage_limbo(now, |i| i.0 % 2 == 1); }
                SlabOp::SalvageItem(id, valid) => {
                    cache.salvage_item(ItemId(*id), *valid, now);
                }
                SlabOp::DropLimbo => { cache.drop_limbo(); }
                SlabOp::Clear => cache.clear(),
            }
            // Rebuild the expected bitmap from the slab's own view.
            let mut expect = vec![0u64; cache.member_words().len()];
            for (item, _) in cache.items_iter() {
                expect[item.0 as usize / 64] |= 1 << (item.0 % 64);
            }
            prop_assert_eq!(
                cache.member_words(), expect.as_slice(),
                "bitmap diverged from slab at step {} ({:?})", step, op
            );
            // Ids past the bitmap's grown words read as absent.
            for id in 0..100 {
                prop_assert_eq!(
                    cache.is_resident(ItemId(id)),
                    cache.peek(ItemId(id)).is_some()
                );
            }
            cache.check_invariants();
        }
    }
}
