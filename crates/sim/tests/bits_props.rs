//! Property test for the bitmap walk every masked client pass goes
//! through: over random words and sub-ranges (below, at and off
//! multiples of the 64-bit word), it must visit exactly the set bits in
//! range, in ascending order.

use mobicache_sim::bits::for_each_set_bit;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

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
