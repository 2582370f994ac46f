//! Property tests for the timing-wheel scheduler: whatever the op
//! interleaving, delay distribution or slot resolution, the wheel must
//! be observationally identical to the retired `BinaryHeap` scheduler —
//! same pop sequence (including same-instant FIFO ties), same peeks,
//! same clock, same counters. The golden-digest suite pins this
//! end-to-end through the engine; these tests pin it at the scheduler's
//! own API against an in-test heap reference model.

use mobicache_sim::{Scheduler, SimTime};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The pre-wheel scheduler, reduced to its observable core: a binary
/// heap ordered by `(at, seq)` with a monotone insertion counter.
struct HeapModel {
    heap: BinaryHeap<Rev>,
    now: SimTime,
    seq: u64,
    popped: u64,
    high_water: usize,
}

struct Rev {
    at: SimTime,
    seq: u64,
    tag: u32,
}

impl PartialEq for Rev {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Rev {}
impl PartialOrd for Rev {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Rev {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl HeapModel {
    fn new() -> Self {
        HeapModel {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            popped: 0,
            high_water: 0,
        }
    }
    fn schedule(&mut self, at: SimTime, tag: u32) {
        assert!(at >= self.now);
        self.heap.push(Rev {
            at,
            seq: self.seq,
            tag,
        });
        self.seq += 1;
        self.high_water = self.high_water.max(self.heap.len());
    }
    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }
    fn pop(&mut self) -> Option<(SimTime, u32)> {
        let e = self.heap.pop()?;
        self.now = e.at;
        self.popped += 1;
        Some((e.at, e.tag))
    }
}

/// Decodes a `(raw, range selector)` pair into a delay. The ranges are
/// chosen to exercise every placement path at the default 0.25 s
/// resolution: exact ties, sub-slot offsets, the leaf window, level-1/2
/// cascade crossings, and the overflow heap beyond the top window.
fn delay(raw: u32, sel: u8) -> f64 {
    match sel {
        0 => 0.0,
        1 => f64::from(raw) * 0.001,
        2 => f64::from(raw) * 0.1,
        3 => f64::from(raw) * 1_000.0,
        _ => 1.0e9 + f64::from(raw) * 1.0e8,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random interleavings of `schedule`/`schedule_in`/`schedule_batch`
    /// and `pop` across every delay range, at several resolutions: pops,
    /// peeks, clock and all counters must match the heap reference at
    /// every step, and the final drain must agree event for event.
    #[test]
    fn wheel_matches_heap_reference(
        ops in prop::collection::vec((0u8..8, 0u32..1_000, 0u8..5), 1..300),
        res_sel in 0u8..3,
    ) {
        let resolution = [0.25, 1.0, 16.0][res_sel as usize];
        let mut wheel: Scheduler<u32> = Scheduler::with_resolution(resolution);
        let mut model = HeapModel::new();
        let mut tag = 0u32;
        for &(op, raw, sel) in &ops {
            match op {
                0..=3 => {
                    let at = model.now + delay(raw, sel);
                    wheel.schedule(at, tag);
                    model.schedule(at, tag);
                    tag += 1;
                }
                4 => {
                    let d = delay(raw, sel);
                    wheel.schedule_in(d, tag);
                    model.schedule(model.now + d, tag);
                    tag += 1;
                }
                5 => {
                    // A burst with intra-batch ties and spread.
                    let n = (raw % 7) as usize;
                    let evs: Vec<(SimTime, u32)> = (0..n)
                        .map(|k| {
                            (
                                model.now + delay(raw, sel) + (k / 2) as f64 * 0.01,
                                tag + k as u32,
                            )
                        })
                        .collect();
                    wheel.schedule_batch(evs.iter().copied());
                    for &(at, v) in &evs {
                        model.schedule(at, v);
                    }
                    tag += n as u32;
                }
                _ => {
                    prop_assert_eq!(wheel.peek_time(), model.peek_time());
                    prop_assert_eq!(wheel.pop(), model.pop());
                    prop_assert_eq!(wheel.now(), model.now);
                }
            }
            prop_assert_eq!(wheel.len(), model.heap.len());
            prop_assert_eq!(wheel.events_scheduled(), model.seq);
            prop_assert_eq!(wheel.queue_high_water(), model.high_water);
        }
        loop {
            prop_assert_eq!(wheel.peek_time(), model.peek_time());
            let (a, b) = (wheel.pop(), model.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(wheel.events_delivered(), model.popped);
        prop_assert_eq!(wheel.now(), model.now);
    }

    /// Same-instant FIFO under pressure: every event lands on one of a
    /// handful of instants, so nearly everything is a tie and the only
    /// thing separating pops is insertion order.
    #[test]
    fn same_instant_ties_pop_in_insertion_order(
        ops in prop::collection::vec((0u8..4, 0u8..3), 1..200),
    ) {
        let mut wheel: Scheduler<u32> = Scheduler::new();
        let mut model = HeapModel::new();
        let mut tag = 0u32;
        for &(op, slot) in &ops {
            if op == 0 {
                prop_assert_eq!(wheel.pop(), model.pop());
            } else {
                // Three fixed instants per current window; `slot` picks one.
                let at = model.now + f64::from(slot) * 0.25;
                wheel.schedule(at, tag);
                model.schedule(at, tag);
                tag += 1;
            }
        }
        loop {
            let (a, b) = (wheel.pop(), model.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Far-horizon placement: schedules drawn mostly from the coarse
    /// ranges force level-1/2/3 residence and overflow-heap spills, and
    /// draining pops everything through repeated cascades in exact
    /// `(at, seq)` order.
    #[test]
    fn far_horizon_drain_crosses_cascades_in_order(
        events in prop::collection::vec((0u32..1_000, 2u8..5), 1..150),
    ) {
        let mut wheel: Scheduler<u32> = Scheduler::new();
        let mut model = HeapModel::new();
        for (i, &(raw, sel)) in events.iter().enumerate() {
            let at = SimTime::from_secs(delay(raw, sel));
            wheel.schedule(at, i as u32);
            model.schedule(at, i as u32);
        }
        loop {
            let (a, b) = (wheel.pop(), model.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        // Far horizons must actually exercise the cascade machinery for
        // spreads beyond the leaf window.
        if events.iter().any(|&(raw, sel)| delay(raw, sel) >= 16_384.0) {
            prop_assert!(wheel.cascades() > 0);
        }
    }

    /// Burst-slot capacity release under interleaved multi-producer
    /// bursts: two event kinds — think broadcast ticks and client
    /// wake-ups — land in the *same* leaf slots, scheduled in
    /// interleaved chunks (singles for one kind, `schedule_batch` for
    /// the other, alternating). The shared slot must report the
    /// co-resident peak through `slot_high_water()`, and draining the
    /// wheel must release the burst capacity: what the wheel retains
    /// afterwards is bounded by its keep-capacity policy (32 entries a
    /// slot across 4 levels × 256 slots), not by the burst size.
    #[test]
    fn interleaved_producer_bursts_share_slots_and_release_capacity(
        burst_a in 200usize..1_500,
        burst_b in 200usize..1_500,
        slots in 1usize..8,
        chunk in 1usize..64,
        drain_mid in 0usize..200,
    ) {
        // Mirrors the wheel's private geometry; breaks loudly if the
        // keep policy or geometry is ever loosened.
        const KEEP_BOUND: usize = 32 * 256 * 4;
        let mut wheel: Scheduler<u32> = Scheduler::new();
        let slot_time = |k: usize| SimTime::from_secs((k % slots) as f64 * 0.25);
        // Interleave the producers chunk by chunk so both kinds are
        // in flight while slots fill.
        let (mut a, mut b, mut tag) = (0usize, 0usize, 0u32);
        while a < burst_a || b < burst_b {
            let take_a = chunk.min(burst_a - a);
            for k in 0..take_a {
                wheel.schedule(slot_time(a + k), tag);
                tag += 1;
            }
            a += take_a;
            let take_b = chunk.min(burst_b - b);
            let batch: Vec<(SimTime, u32)> = (0..take_b)
                .map(|k| (slot_time(b + k), tag + k as u32))
                .collect();
            wheel.schedule_batch(batch.iter().copied());
            tag += take_b as u32;
            b += take_b;
        }
        // Both kinds landed in the same leaf slots: the fullest slot
        // holds at least an even share of the *combined* burst.
        let total = burst_a + burst_b;
        prop_assert!(
            wheel.slot_high_water() >= total / slots,
            "co-resident peak {} below combined fill {}/{}",
            wheel.slot_high_water(), total, slots
        );
        let peak_capacity = wheel.slot_capacity();
        prop_assert!(peak_capacity >= total, "burst must be resident");
        // Partial drain, then more same-slot traffic, then full drain:
        // release must hold however pops interleave with production.
        for _ in 0..drain_mid.min(total) {
            wheel.pop();
        }
        let refill: Vec<(SimTime, u32)> = (0..chunk)
            .map(|k| (wheel.now() + (k % slots) as f64 * 0.25, tag + k as u32))
            .collect();
        wheel.schedule_batch(refill.iter().copied());
        while wheel.pop().is_some() {}
        let retained = wheel.slot_capacity();
        prop_assert!(
            retained <= KEEP_BOUND,
            "drained wheel retains {} entry capacity (bound {})",
            retained, KEEP_BOUND
        );
        // And the release is real: a burst bigger than the whole keep
        // bound cannot still be resident.
        if peak_capacity > KEEP_BOUND {
            prop_assert!(retained < peak_capacity);
        }
    }

    /// Batches chain: a burst split into contiguous chunks and replayed
    /// with one
    /// `schedule_batch` per chunk (in order) hands out exactly the
    /// sequence numbers — hence exactly the pop order — of one serial
    /// batch, for any chunk size.
    #[test]
    fn chained_shard_batches_equal_one_serial_batch(
        burst in prop::collection::vec((0u32..1_000, 0u8..4), 1..200),
        chunk in 1usize..64,
    ) {
        let events: Vec<(SimTime, u32)> = burst
            .iter()
            .enumerate()
            .map(|(i, &(raw, sel))| (SimTime::from_secs(delay(raw, sel)), i as u32))
            .collect();
        let mut serial: Scheduler<u32> = Scheduler::new();
        serial.schedule_batch(events.iter().copied());
        let mut chained: Scheduler<u32> = Scheduler::new();
        for piece in events.chunks(chunk) {
            chained.schedule_batch(piece.iter().copied());
        }
        prop_assert_eq!(serial.events_scheduled(), chained.events_scheduled());
        loop {
            let (a, b) = (serial.pop(), chained.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
