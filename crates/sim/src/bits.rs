//! Bitmap walks over `u64` words (bit `i` lives in word `i / 64`), the
//! shape of every per-client mask the engine keeps: delivery masks,
//! cell membership and invalidation-plan summaries.

use std::ops::Range;

/// Calls `f(i)` for every set bit `i` of the bitmap `words` with `i` in
/// `range`, in ascending order. A zero word costs one load instead of
/// 64 branches, which is what makes a walk over a mostly-silent
/// population cheap.
///
/// # Panics
/// Panics if `words` holds fewer than `range.end.div_ceil(64)` words.
#[inline]
pub fn for_each_set_bit(words: &[u64], range: Range<usize>, mut f: impl FnMut(usize)) {
    let (start, end) = (range.start, range.end);
    let first = start / 64;
    for (k, &word) in words[first..end.div_ceil(64)].iter().enumerate() {
        let base = (first + k) * 64;
        let mut w = word;
        if base < start {
            w &= !0u64 << (start - base);
        }
        if base + 64 > end {
            w &= (1u64 << (end - base)) - 1;
        }
        while w != 0 {
            f(base + w.trailing_zeros() as usize);
            w &= w - 1;
        }
    }
}
