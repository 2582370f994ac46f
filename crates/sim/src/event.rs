//! The future event list.
//!
//! A hierarchical timing wheel: the model's delays are bounded and
//! periodic (broadcasts every `L` seconds, think/disconnect times drawn
//! from bounded distributions), which is exactly the workload shape a
//! wheel serves with O(1) schedule/pop where a binary heap pays
//! O(log n) comparisons against cold cache lines.
//!
//! Layout: `LEVELS` = 4 levels of `SLOTS` = 256 slots each. The leaf
//! level has fixed resolution (0.25 s by default — a power of two, so
//! `at / resolution` is an exact float scaling); each coarser level's
//! slot spans `SLOTS` slots of the level below. With the defaults the
//! leaf window covers 64 s, level 1 covers ~4.6 h, level 2 ~48 days and
//! level 3 ~34 years of simulated time; anything beyond the top window
//! (including the [`SimTime::INFINITY`] sentinel) waits in a small
//! overflow heap. Advancing past a window boundary *cascades* the next
//! coarser slot down into finer slots — a deterministic, purely
//! structural move that never reorders deliveries.
//!
//! Ordering contract (unchanged from the heap implementation): events
//! pop in `(at, seq)` order, where `seq` is a monotonically increasing
//! tie-breaker, so same-instant events are delivered in FIFO
//! (insertion) order. Slots hold their entries unsorted until the clock
//! reaches them; a slot is sorted once on activation (descending, so
//! the earliest entry pops from the back in O(1)), and a late schedule
//! into the live slot does a sorted insert. Deterministic tie-breaking
//! matters: the mobile-caching model schedules a broadcast tick and
//! many client wake-ups at the same instant, and reproducibility from a
//! seed requires a stable service order.
//!
//! Memory: a slot's vector grows to its own burst and is released
//! (capacity above `SLOT_KEEP_CAPACITY`, 32 entries) as soon as it
//! drains, so the million-client wake-up burst no longer pins its peak
//! footprint for the rest of the run the way the old heap's retained
//! capacity did.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// log2 of the slot count per level.
const LEVEL_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Wheel levels (leaf + three coarser overflow levels).
const LEVELS: u32 = 4;
/// Mask extracting a slot index from a leaf-slot number.
const LEVEL_MASK: u64 = (SLOTS as u64) - 1;
/// Occupancy-bitmap words per level.
const WORDS: usize = SLOTS / 64;
/// Default leaf-slot width in seconds. A power of two, so scaling a
/// timestamp to a slot number is exact (no rounding near boundaries;
/// correctness only needs monotonicity, but exactness keeps slot
/// occupancy predictable).
const DEFAULT_RESOLUTION_SECS: f64 = 0.25;
/// A drained slot keeps at most this much capacity; anything larger is
/// released. Bounds the post-burst footprint: the 1M-client wake-up
/// burst parks ~thousands of entries per slot, which would otherwise be
/// retained as empty capacity for the whole run.
const SLOT_KEEP_CAPACITY: usize = 32;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// The delivery-order key: time, then insertion order.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// Overflow-heap wrapper: reversed `Ord` so `BinaryHeap`'s max-heap
/// yields the earliest `(at, seq)` first.
struct OverflowEntry<E>(Entry<E>);

impl<E> PartialEq for OverflowEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl<E> Eq for OverflowEntry<E> {}
impl<E> PartialOrd for OverflowEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for OverflowEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.key().cmp(&self.0.key())
    }
}

/// One wheel level: slot buckets plus an occupancy bitmap for O(1)
/// next-slot scans.
struct Level<E> {
    buckets: Vec<Vec<Entry<E>>>,
    bits: [u64; WORDS],
}

impl<E> Level<E> {
    fn new() -> Self {
        Level {
            buckets: (0..SLOTS).map(|_| Vec::new()).collect(),
            bits: [0; WORDS],
        }
    }

    #[inline]
    fn set_bit(&mut self, slot: usize) {
        self.bits[slot / 64] |= 1 << (slot % 64);
    }

    #[inline]
    fn clear_bit(&mut self, slot: usize) {
        self.bits[slot / 64] &= !(1 << (slot % 64));
    }

    /// First occupied slot at index `from` or later, if any.
    fn next_set_from(&self, from: usize) -> Option<usize> {
        if from >= SLOTS {
            return None;
        }
        let mut w = from / 64;
        let mut word = self.bits[w] & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w += 1;
            if w == WORDS {
                return None;
            }
            word = self.bits[w];
        }
    }
}

/// A service completion a passive component (a channel) hands back for
/// its caller to turn into an event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Completion {
    /// Absolute time at which the service finishes.
    pub at: SimTime,
    /// Token to pass back with the event; the component rejects a stale
    /// one (a service it has since preempted).
    pub token: u64,
}

/// A future event list over an application-defined event type `E`.
///
/// The scheduler owns the simulation clock: [`Scheduler::pop`] advances
/// `now()` to the popped event's timestamp. Scheduling an event in the past
/// panics — that is always a model bug.
pub struct Scheduler<E> {
    /// Wheel levels, finest first.
    levels: Vec<Level<E>>,
    /// Events beyond the top-level window (and the `INFINITY` sentinel).
    overflow: BinaryHeap<OverflowEntry<E>>,
    /// `1 / leaf slot width` — timestamps scale to leaf-slot numbers.
    resolution_inv: f64,
    /// Leaf-slot number of the current position. Equal to the last
    /// popped event's slot after every pop, so `schedule`'s
    /// not-in-the-past assert also guarantees no event lands behind it.
    cur: u64,
    /// `true` when the slot at `cur` is sorted (descending) and live.
    active: bool,
    now: SimTime,
    seq: u64,
    popped: u64,
    pending: usize,
    high_water: usize,
    slot_high_water: usize,
    cascades: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// An empty scheduler with the clock at zero and the default leaf
    /// resolution (0.25 s).
    pub fn new() -> Self {
        Self::with_resolution(DEFAULT_RESOLUTION_SECS)
    }

    /// An empty scheduler with a custom leaf-slot width in seconds.
    /// Resolution is a performance knob only — delivery order is
    /// identical at any setting. Powers of two keep the slot math
    /// exact.
    ///
    /// # Panics
    /// Panics unless `resolution_secs` is finite and positive.
    pub fn with_resolution(resolution_secs: f64) -> Self {
        assert!(
            resolution_secs.is_finite() && resolution_secs > 0.0,
            "slot resolution must be finite and positive, got {resolution_secs}"
        );
        Scheduler {
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            overflow: BinaryHeap::new(),
            resolution_inv: resolution_secs.recip(),
            cur: 0,
            active: false,
            now: SimTime::ZERO,
            seq: 0,
            popped: 0,
            pending: 0,
            high_water: 0,
            slot_high_water: 0,
            cascades: 0,
        }
    }

    /// The current simulated time (timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events currently pending.
    #[inline]
    pub fn len(&self) -> usize {
        self.pending
    }

    /// `true` when no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Total number of events delivered so far (a cheap progress metric).
    #[inline]
    pub fn events_delivered(&self) -> u64 {
        self.popped
    }

    /// Total number of events ever scheduled (delivered or still pending).
    #[inline]
    pub fn events_scheduled(&self) -> u64 {
        self.seq
    }

    /// Largest number of simultaneously pending events seen so far — a
    /// cheap proxy for the model's fan-out that observers fold into
    /// interval snapshots.
    #[inline]
    pub fn queue_high_water(&self) -> usize {
        self.high_water
    }

    /// Largest number of entries any single wheel slot has held — how
    /// bursty the schedule is at slot granularity (the initial wake-up
    /// burst dominates in the mobile-caching model).
    #[inline]
    pub fn slot_high_water(&self) -> usize {
        self.slot_high_water
    }

    /// Overflow cascades performed: coarse slots redistributed into
    /// finer levels as the clock crossed their window boundaries. Purely
    /// structural work — cascades never reorder deliveries.
    #[inline]
    pub fn cascades(&self) -> u64 {
        self.cascades
    }

    /// Total entry capacity currently retained across all wheel slots —
    /// a diagnostic for the post-burst shrink policy (drained slots are
    /// bounded to a small keep-capacity).
    pub fn slot_capacity(&self) -> usize {
        self.levels
            .iter()
            .flat_map(|l| l.buckets.iter())
            .map(Vec::capacity)
            .sum()
    }

    /// The absolute leaf-slot number of `at`. Saturates for times beyond
    /// `u64` range (including the `INFINITY` sentinel), which routes
    /// them to the overflow heap. Monotone in `at`, which is all the
    /// ordering proof needs.
    #[inline]
    fn leaf_slot(&self, at: SimTime) -> u64 {
        (at.as_secs() * self.resolution_inv) as u64
    }

    /// Files an entry at the finest level whose current window covers
    /// it, or the overflow heap. The caller maintains `pending` and the
    /// instrumentation counters.
    fn place(&mut self, e: Entry<E>) {
        let li = self.leaf_slot(e.at);
        for k in 0..LEVELS {
            let window_shift = LEVEL_BITS * (k + 1);
            if li >> window_shift != self.cur >> window_shift {
                continue; // beyond this level's current window
            }
            let slot = ((li >> (LEVEL_BITS * k)) & LEVEL_MASK) as usize;
            let live = k == 0 && self.active && li == self.cur;
            self.levels[k as usize].set_bit(slot);
            let bucket = &mut self.levels[k as usize].buckets[slot];
            if live {
                // The slot is already sorted (descending) and being
                // drained: insert in order. The new entry holds the
                // largest `seq`, so ties resolve behind equal times.
                let key = e.key();
                let pos = bucket.partition_point(|x| x.key() > key);
                bucket.insert(pos, e);
            } else {
                bucket.push(e);
            }
            self.slot_high_water = self.slot_high_water.max(bucket.len());
            return;
        }
        self.overflow.push(OverflowEntry(e));
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduled event in the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.place(Entry { at, seq, event });
        self.pending += 1;
        self.high_water = self.high_water.max(self.pending);
    }

    /// Schedules `event` after a relative delay in seconds.
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        assert!(delay >= 0.0, "negative delay {delay}");
        let at = self.now + delay;
        self.schedule(at, event);
    }

    /// Schedules a burst of events in iteration order, preserving the
    /// FIFO tie-break contract (the `n`-th item gets the `n`-th sequence
    /// number, exactly as `n` individual [`Scheduler::schedule`] calls
    /// would). Slot vectors size themselves to the burst's exact
    /// per-slot share as it lands, whatever the iterator's size hint
    /// claims — the old heap's lower-bound reserve (zero for adapters
    /// that cannot guess) and its retained peak capacity are both gone.
    ///
    /// # Panics
    /// Panics if any timestamp is earlier than the current clock.
    pub fn schedule_batch<I>(&mut self, events: I)
    where
        I: IntoIterator<Item = (SimTime, E)>,
    {
        for (at, event) in events {
            self.schedule(at, event);
        }
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.pending == 0 {
            return None;
        }
        let cur_slot = (self.cur & LEVEL_MASK) as usize;
        if let Some(slot) = self.levels[0].next_set_from(cur_slot) {
            let bucket = &self.levels[0].buckets[slot];
            let at = if self.active && slot == cur_slot {
                bucket.last().expect("occupied slot has entries").at
            } else {
                // Unsorted slot: the earliest time is a linear scan.
                bucket
                    .iter()
                    .map(|e| e.at)
                    .min()
                    .expect("occupied slot has entries")
            };
            return Some(at);
        }
        for k in 1..LEVELS {
            let shift = LEVEL_BITS * k;
            let cb = ((self.cur >> shift) & LEVEL_MASK) as usize;
            if let Some(slot) = self.levels[k as usize].next_set_from(cb + 1) {
                return self.levels[k as usize].buckets[slot]
                    .iter()
                    .map(|e| e.at)
                    .min();
            }
        }
        self.overflow.peek().map(|e| e.0.at)
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the event list is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.pending == 0 {
            return None;
        }
        loop {
            let cur_slot = (self.cur & LEVEL_MASK) as usize;
            if self.active {
                let bucket = &mut self.levels[0].buckets[cur_slot];
                // Sorted descending: the back is the earliest (at, seq).
                let entry = bucket.pop().expect("live slot is never empty");
                if bucket.is_empty() {
                    if bucket.capacity() > SLOT_KEEP_CAPACITY {
                        // Release burst capacity as soon as it drains.
                        *bucket = Vec::new();
                    }
                    self.levels[0].clear_bit(cur_slot);
                    self.active = false;
                }
                self.pending -= 1;
                self.popped += 1;
                debug_assert!(entry.at >= self.now, "event list went backwards");
                self.now = entry.at;
                return Some((entry.at, entry.event));
            }
            // Hunt: the earliest occupied leaf slot at or after `cur`.
            if let Some(slot) = self.levels[0].next_set_from(cur_slot) {
                self.cur = (self.cur & !LEVEL_MASK) | slot as u64;
                self.levels[0].buckets[slot].sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
                self.active = true;
                continue;
            }
            // Leaf window exhausted: cascade the next occupied coarse
            // slot down. Slot numbers at level k share their high bits
            // with `cur`, so the slot at the current position's own
            // index is always empty (its contents live at finer levels)
            // and the scan starts one past it.
            let mut cascaded = false;
            for k in 1..LEVELS {
                let shift = LEVEL_BITS * k;
                let cb = ((self.cur >> shift) & LEVEL_MASK) as usize;
                let Some(slot) = self.levels[k as usize].next_set_from(cb + 1) else {
                    continue;
                };
                let high = self.cur >> (shift + LEVEL_BITS);
                self.cur = ((high << LEVEL_BITS) | slot as u64) << shift;
                let entries = std::mem::take(&mut self.levels[k as usize].buckets[slot]);
                self.levels[k as usize].clear_bit(slot);
                self.cascades += 1;
                for e in entries {
                    self.place(e);
                }
                cascaded = true;
                break;
            }
            if cascaded {
                continue;
            }
            // Every wheel level is empty: jump to the overflow's
            // earliest event and re-home everything that now falls
            // inside the top-level window.
            let earliest = self
                .overflow
                .peek()
                .expect("pending events exist beyond the wheels")
                .0
                .at;
            self.cur = self.leaf_slot(earliest);
            while let Some(top) = self.overflow.peek() {
                let li = self.leaf_slot(top.0.at);
                if li >> (LEVEL_BITS * LEVELS) != self.cur >> (LEVEL_BITS * LEVELS) {
                    break;
                }
                let OverflowEntry(e) = self.overflow.pop().expect("just peeked");
                self.place(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule(SimTime::from_secs(5.0), "c");
        s.schedule(SimTime::from_secs(1.0), "a");
        s.schedule(SimTime::from_secs(3.0), "b");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_broken_by_insertion_order() {
        let mut s: Scheduler<u32> = Scheduler::new();
        for i in 0..100 {
            s.schedule(SimTime::from_secs(7.0), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_to_popped_event() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.schedule(SimTime::from_secs(2.5), ());
        assert_eq!(s.now(), SimTime::ZERO);
        s.pop();
        assert_eq!(s.now(), SimTime::from_secs(2.5));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut s: Scheduler<u8> = Scheduler::new();
        s.schedule(SimTime::from_secs(4.0), 1);
        s.pop();
        s.schedule_in(6.0, 2);
        let (at, _) = s.pop().unwrap();
        assert_eq!(at, SimTime::from_secs(10.0));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn past_scheduling_panics() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.schedule(SimTime::from_secs(10.0), ());
        s.pop();
        s.schedule(SimTime::from_secs(1.0), ());
    }

    #[test]
    fn counters() {
        let mut s: Scheduler<u8> = Scheduler::new();
        assert!(s.is_empty());
        s.schedule_in(1.0, 0);
        s.schedule_in(2.0, 1);
        assert_eq!(s.len(), 2);
        s.pop();
        assert_eq!(s.events_delivered(), 1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn schedule_batch_preserves_fifo_tie_break() {
        // A batch interleaved with individual calls must deliver
        // same-instant events in overall insertion order — the contract
        // the simulation's reproducibility rests on.
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule(SimTime::from_secs(7.0), 0);
        s.schedule_batch((1..50).map(|i| (SimTime::from_secs(7.0), i)));
        s.schedule(SimTime::from_secs(7.0), 50);
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..=50).collect::<Vec<_>>());
        assert_eq!(s.events_scheduled(), 51);
    }

    #[test]
    fn chained_shard_batches_equal_one_serial_batch() {
        // Batches chain: replaying one burst as contiguous pieces, one
        // `schedule_batch` per piece (in order), must hand out exactly
        // the sequence numbers — hence exactly the pop order — of a
        // single batch, for any chunking, including chunk sizes that do
        // not divide the burst.
        let burst: Vec<(SimTime, u32)> = (0..40)
            .map(|i| (SimTime::from_secs(if i % 3 == 0 { 5.0 } else { 9.0 }), i))
            .collect();
        let mut serial: Scheduler<u32> = Scheduler::new();
        serial.schedule_batch(burst.iter().copied());
        let want: Vec<_> = std::iter::from_fn(|| serial.pop()).collect();
        for chunk in [1usize, 7, 13, 40, 64] {
            let mut chained: Scheduler<u32> = Scheduler::new();
            for piece in burst.chunks(chunk) {
                chained.schedule_batch(piece.iter().copied());
            }
            let got: Vec<_> = std::iter::from_fn(|| chained.pop()).collect();
            assert_eq!(got, want, "chunk size {chunk}");
        }
    }

    #[test]
    fn instrumentation_counters_track_scheduling() {
        let mut s: Scheduler<u8> = Scheduler::new();
        assert_eq!(s.events_scheduled(), 0);
        assert_eq!(s.queue_high_water(), 0);
        s.schedule_in(1.0, 0);
        s.schedule_in(2.0, 1);
        s.schedule_in(3.0, 2);
        assert_eq!(s.events_scheduled(), 3);
        assert_eq!(s.queue_high_water(), 3);
        s.pop();
        s.pop();
        // High water is a max, not the current depth.
        assert_eq!(s.queue_high_water(), 3);
        s.schedule_in(1.0, 3);
        assert_eq!(s.events_scheduled(), 4);
        assert_eq!(s.queue_high_water(), 3);
    }

    #[test]
    fn far_horizons_cross_cascade_boundaries_in_order() {
        // Times spanning the leaf window (64 s), level-1 (~16 384 s) and
        // level-2 (~4.2 M s) windows, interleaved, pop in (at, seq)
        // order with at least one cascade performed along the way.
        let times = [
            0.1, 63.9, 64.0, 100.0, 16_383.0, 16_384.5, 99_999.9, 4.3e6, 7.0e6, 1.0e8,
        ];
        let mut s: Scheduler<usize> = Scheduler::new();
        // Insertion order deliberately scrambled.
        for (i, &t) in times.iter().enumerate().rev() {
            s.schedule(SimTime::from_secs(t), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..times.len()).collect::<Vec<_>>());
        assert!(s.cascades() > 0, "far horizons must cascade");
    }

    #[test]
    fn overflow_events_beyond_top_window_still_order() {
        // 1e12 s is beyond the top-level window at the default
        // resolution; such events (and the INFINITY sentinel) wait in
        // the overflow heap and surface in order once the wheels drain.
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule(SimTime::INFINITY, "inf");
        s.schedule(SimTime::from_secs(1.0e12), "far");
        s.schedule(SimTime::from_secs(5.0), "near");
        s.schedule(SimTime::from_secs(1.0e12), "far2");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["near", "far", "far2", "inf"]);
    }

    #[test]
    fn schedule_into_live_slot_keeps_order() {
        // Pop into the middle of a slot, then schedule more events that
        // land in the same (already sorted and draining) slot: sorted
        // insert must keep the (at, seq) order, including FIFO ties.
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule(SimTime::from_secs(10.01), 0);
        s.schedule(SimTime::from_secs(10.05), 2);
        s.schedule(SimTime::from_secs(10.05), 3);
        assert_eq!(s.pop().unwrap().1, 0); // slot 10.0..10.25 is now live
        s.schedule(SimTime::from_secs(10.02), 1);
        s.schedule(SimTime::from_secs(10.05), 4); // FIFO behind 2 and 3
        s.schedule(SimTime::from_secs(10.20), 5);
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn drained_slots_release_burst_capacity() {
        // A wake-up-burst-shaped load: many events in few slots. After
        // the burst drains, retained slot capacity must be bounded, not
        // proportional to the burst.
        let mut s: Scheduler<u32> = Scheduler::new();
        for i in 0..100_000u32 {
            s.schedule(SimTime::from_secs(f64::from(i % 16) * 0.25), i);
        }
        let peak = s.slot_capacity();
        assert!(peak >= 100_000, "burst capacity expected, got {peak}");
        while s.pop().is_some() {}
        let after = s.slot_capacity();
        assert!(
            after <= SLOT_KEEP_CAPACITY * SLOTS * LEVELS as usize,
            "drained wheel retains {after} entry capacity"
        );
        assert!(s.slot_high_water() >= 100_000 / 16);
    }

    #[test]
    fn peek_matches_pop_everywhere() {
        let times = [
            0.0, 0.1, 0.1, 3.0, 63.99, 64.0, 1_000.0, 20_000.0, 5.0e6, 2.0e12,
        ];
        let mut s: Scheduler<usize> = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            s.schedule(SimTime::from_secs(t), i);
        }
        loop {
            let peeked = s.peek_time();
            let popped = s.pop();
            assert_eq!(peeked, popped.map(|(at, _)| at));
            if popped.is_none() {
                break;
            }
        }
    }

    #[test]
    fn custom_resolution_is_order_invariant() {
        let times = [0.3, 0.1, 17.0, 17.0, 1_000.0, 2.5, 40_000.0];
        let mut want: Vec<(SimTime, usize)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (SimTime::from_secs(t), i))
            .collect();
        want.sort_by_key(|&(at, i)| (at, i));
        for res in [0.015_625, 0.25, 4.0, 1_024.0] {
            let mut s: Scheduler<usize> = Scheduler::with_resolution(res);
            for (i, &t) in times.iter().enumerate() {
                s.schedule(SimTime::from_secs(t), i);
            }
            let got: Vec<_> = std::iter::from_fn(|| s.pop()).collect();
            assert_eq!(got, want, "resolution {res}");
        }
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_resolution_rejected() {
        let _: Scheduler<()> = Scheduler::with_resolution(0.0);
    }
}
