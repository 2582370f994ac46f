//! Property tests for the pool's chunk primitive, the one place every
//! sharded phase gets its chunk geometry and per-chunk slot from: over
//! random range lengths (below, at and off multiples of the 64-bit
//! delivery word) and slot counts, the chunks must partition the range
//! into word-aligned pieces, and slot `i` must see chunk `i` alone.

use mobicache_sim::pool::{for_each_set_bit, CHUNK_ALIGN};
use mobicache_sim::WorkerPool;
use proptest::prelude::*;
use std::ops::Range;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn chunks_partition_the_range_one_per_slot(
        len in prop_oneof![0usize..64, 0usize..2_000],
        slot_count in 1usize..40,
    ) {
        let pool = WorkerPool::new(3);
        let mut slots: Vec<Vec<Range<usize>>> = vec![Vec::new(); slot_count];
        pool.for_each_chunk(len, &mut slots, |range, slot| slot.push(range));
        let mut next = 0;
        let mut done = false;
        for (i, got) in slots.iter().enumerate() {
            match got.as_slice() {
                [] => done = true,
                [r] => {
                    prop_assert!(!done, "slot {} ran after an idle slot", i);
                    prop_assert_eq!(r.start, next, "slot {} leaves a gap or overlap", i);
                    prop_assert!(r.start < r.end, "slot {} got an empty chunk", i);
                    prop_assert_eq!(r.start % CHUNK_ALIGN, 0, "slot {} start unaligned", i);
                    next = r.end;
                }
                more => prop_assert!(false, "slot {} ran {} chunks", i, more.len()),
            }
        }
        prop_assert_eq!(next, len, "chunks do not cover 0..{}", len);
    }

    #[test]
    fn set_bit_walk_matches_a_per_bit_scan(
        words in prop::collection::vec(any::<u64>(), 1..8),
        a in 0usize..512,
        b in 0usize..512,
    ) {
        let bits = words.len() * 64;
        let (start, end) = (a.min(b) % (bits + 1), a.max(b) % (bits + 1));
        let (start, end) = (start.min(end), start.max(end));
        let mut got = Vec::new();
        for_each_set_bit(&words, start..end, |i| got.push(i));
        let want: Vec<usize> = (start..end)
            .filter(|&i| words[i / 64] & (1 << (i % 64)) != 0)
            .collect();
        prop_assert_eq!(got, want);
    }
}
