//! The bit-sequences (`BS`) invalidation report — §2.3 of the paper,
//! after Jing et al.
//!
//! The report is a hierarchy of bit sequences `B_n, B_{n-1}, …, B_1` plus a
//! dummy `B_0`. `B_n` has `N` bits (one per database item) of which up to
//! `N/2` are set, marking the `N/2` most recently updated items;
//! `TS(B_n)` is the time after which exactly those items were updated.
//! Each subsequent sequence `B_k` has half the bits — its `k`-th bit
//! corresponds to the `k`-th "1" in `B_{k+1}` — and marks the half of
//! *those* items updated after the (more recent) `TS(B_k)`. `TS(B_0)` is
//! the time of the most recent update (nothing changed after it).
//!
//! Observation used throughout this implementation: the entire structure
//! is equivalent to the **recency-ordered list** of updated items with
//! cut timestamps at halving prefix lengths. The "1"s of `B_k` are
//! exactly the `|B_k|/2` most recently updated items, and a level of
//! `len` marks covers a client's `Tlb` iff at most `len` items were
//! updated after `Tlb`. So the report needs nothing but the server's
//! recency index ([`RecencyIndex`]), which it shares rather than copies:
//! building a report is `O(1)`, and [`BitSequences::select`] resolves a
//! `Tlb` with one capped rank count. The bit-level wire encoding (for
//! size verification) is produced by [`BitSequences::encode_wire`].
//!
//! Client algorithm (Figure 2 of the paper):
//!
//! ```text
//! if TS(B_0) ≤ Tlb:                 nothing to invalidate
//! if Tlb < TS(B_n):                 drop the entire cache
//! else: locate B_j with TS(B_j) ≤ Tlb < TS(B_{j-1});
//!       invalidate every item marked in B_j
//! ```

use crate::recency::RecencyIndex;
use mobicache_model::msg::SizeParams;
use mobicache_model::units::{bits_per_id, Bits};
use mobicache_model::ItemId;
use mobicache_sim::SimTime;
use std::sync::Arc;

/// A bit-sequences invalidation report.
///
/// ```
/// use mobicache_model::ItemId;
/// use mobicache_reports::{BitSequences, BsDecision};
/// use mobicache_sim::SimTime;
///
/// let t = SimTime::from_secs;
/// // Items 7 and 3 were updated (most recent first) in a 16-item DB.
/// let bs = BitSequences::from_recency(
///     t(100.0),
///     16,
///     vec![(ItemId(7), t(90.0)), (ItemId(3), t(40.0))],
/// );
/// // A client last synced at t=50 caching items 3 and 7: only item 7
/// // changed afterwards, and the hierarchy pinpoints it.
/// assert_eq!(
///     bs.decide(t(50.0), vec![ItemId(3), ItemId(7)]),
///     BsDecision::Invalidate(vec![ItemId(7)])
/// );
/// // A fully current client is told its cache is clean.
/// assert_eq!(bs.decide(t(95.0), vec![ItemId(3)]), BsDecision::Clean);
/// ```
#[derive(Clone, Debug)]
pub struct BitSequences {
    /// Broadcast timestamp `T_i`.
    pub broadcast_at: SimTime,
    /// Database size `N` (determines the level geometry and wire size).
    pub db_size: u32,
    /// The updated items, most recent first: the server's index as of
    /// the build, shared and never mutated while this handle lives.
    index: Arc<RecencyIndex>,
}

/// Two reports are equal when they say the same thing: same broadcast
/// time and geometry, and the same `N/2 + 1` newest updates (which fix
/// every mark and every cut).
impl PartialEq for BitSequences {
    fn eq(&self, other: &Self) -> bool {
        let top = self.top() + 1;
        self.broadcast_at == other.broadcast_at
            && self.db_size == other.db_size
            && self.index.desc().take(top).eq(other.index.desc().take(top))
    }
}

/// What a client should do with its cache after receiving a
/// [`BitSequences`] report.
#[derive(Clone, Debug, PartialEq)]
pub enum BsDecision {
    /// `TS(B_0) ≤ Tlb`: no update since the client's last report; the
    /// whole cache is valid.
    Clean,
    /// `Tlb < TS(B_n)`: more than half the database may have changed; the
    /// entire cache must be dropped.
    DropAll,
    /// Invalidate exactly the listed items (the marked prefix of the
    /// smallest covering level); everything else is revalidated.
    Invalidate(Vec<ItemId>),
}

/// The cache-independent part of the Figure-2 algorithm: which level (if
/// any) covers a given `Tlb`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BsSelect {
    /// No update since `Tlb`; the whole cache is valid.
    Clean,
    /// Even `B_n` is too recent; drop everything.
    DropAll,
    /// The smallest covering level marks this many most-recent items:
    /// a cached item is stale iff its recency rank is below this.
    Prefix(usize),
}

impl BitSequences {
    /// The halving level geometry for a database of `n` items: prefix
    /// lengths `1, 2, …` doubling up to `n/2` (ordered smallest first).
    ///
    /// For `n < 2` there are no levels — the dummy `B_0` alone decides.
    pub fn level_lengths(n: u32) -> Vec<u32> {
        let mut lens = Vec::new();
        let top = n / 2;
        let mut len = 1u32;
        while len < top {
            lens.push(len);
            len *= 2;
        }
        if top >= 1 {
            lens.push(top);
        }
        lens
    }

    /// A report over the server's recency index, sharing it: `O(1)`.
    /// The caller must not mutate the index while this report lives —
    /// the server's update log enforces that by copy-on-write.
    pub fn shared(broadcast_at: SimTime, db_size: u32, index: Arc<RecencyIndex>) -> Self {
        BitSequences {
            broadcast_at,
            db_size,
            index,
        }
    }

    /// Builds the structure from a **recency-descending** iterator of
    /// `(item, last update time)`, copying the `N/2 + 1` newest entries
    /// (the largest level plus the one that fixes its cut); the rest are
    /// ignored. The from-scratch reference for [`BitSequences::shared`].
    ///
    /// # Panics
    /// Debug-panics if the input is not sorted by descending timestamp.
    pub fn from_recency<I>(broadcast_at: SimTime, db_size: u32, iter: I) -> Self
    where
        I: IntoIterator<Item = (ItemId, SimTime)>,
    {
        let cap = (db_size / 2) as usize + 1;
        let index = RecencyIndex::from_desc(db_size, cap, iter);
        Self::shared(broadcast_at, db_size, Arc::new(index))
    }

    /// `N/2`: the number of items the largest level marks.
    #[inline]
    fn top(&self) -> usize {
        (self.db_size / 2) as usize
    }

    /// `TS(B_0)`: time of the most recent update; `None` when no item has
    /// ever been updated.
    pub fn latest_update(&self) -> Option<SimTime> {
        self.index.latest()
    }

    /// The `p` most recently updated items (capped at `N/2`, the marks
    /// of `B_n`), newest first: the items marked by a level of length
    /// `p`.
    pub fn marked(&self, p: usize) -> impl Iterator<Item = ItemId> + '_ {
        self.index
            .desc()
            .take(p.min(self.top()))
            .map(|(item, _)| item)
    }

    /// Runs the Figure-2 client algorithm for a client whose last report
    /// was at `tlb`.
    ///
    /// Faithful to the paper, the invalidation is *bit-level*: every
    /// cached item marked in the selected sequence is dropped, even if the
    /// cached copy happens to be fresh (the bits carry no per-item
    /// timestamps).
    pub fn decide<I>(&self, tlb: SimTime, cached: I) -> BsDecision
    where
        I: IntoIterator<Item = ItemId>,
    {
        let prefix = match self.select(tlb) {
            BsSelect::Clean => return BsDecision::Clean,
            BsSelect::DropAll => return BsDecision::DropAll,
            BsSelect::Prefix(p) => p,
        };
        // O(cache + prefix): membership set over the (possibly large)
        // cache, then one scan of the marked prefix. Keeps the common
        // connected-client case (tiny prefix) cheap and the long-reconnect
        // case (prefix up to N/2) linear.
        let cached_set: std::collections::HashSet<ItemId> = cached.into_iter().collect();
        let stale: Vec<ItemId> = self
            .marked(prefix)
            .filter(|id| cached_set.contains(id))
            .collect();
        BsDecision::Invalidate(stale)
    }

    /// The cache-independent half of [`BitSequences::decide`]: resolves
    /// `Tlb` to Clean / DropAll / the smallest covering level's prefix
    /// length. Shared across the whole fan-out — each client then only
    /// tests its own cached items against the prefix, through the
    /// invalidation plan (`crate::PlanCache`).
    ///
    /// A level of `len` marks covers `Tlb` iff at most `len` items were
    /// updated after it, so the smallest covering level is the count of
    /// those items rounded up to the next level length, and no level
    /// covers once the count exceeds `N/2`. The count stops at `N/2 + 1`:
    /// `O(log U + min(k, N/2))` for `k` updates after `Tlb`.
    pub fn select(&self, tlb: SimTime) -> BsSelect {
        match self.latest_update() {
            None => return BsSelect::Clean,
            Some(latest) if latest <= tlb => return BsSelect::Clean,
            _ => {}
        }
        let top = self.top();
        match self.index.count_since_capped(tlb, top) {
            k if k > top => BsSelect::DropAll,
            k => BsSelect::Prefix(k.next_power_of_two().min(top)),
        }
    }

    /// Report body size per the paper's formula: `2N + b_T · log₂N` bits
    /// (§3.1). This is what the simulator charges the downlink.
    pub fn size_bits(&self, p: &SizeParams) -> Bits {
        Self::size_bits_of(self.db_size, p)
    }

    /// The size [`BitSequences::size_bits`] charges a report over a
    /// `db_size`-item database, so a server can price BS without
    /// building it.
    pub fn size_bits_of(db_size: u32, p: &SizeParams) -> Bits {
        2.0 * db_size as f64 + p.timestamp_bits * bits_per_id(db_size as u64)
    }

    /// Exact size of the wire encoding produced by
    /// [`BitSequences::encode_wire`], in bits: `Σ |B_k|` bitmap bits plus
    /// one timestamp per level plus `TS(B_0)`.
    pub fn exact_size_bits(&self, p: &SizeParams) -> Bits {
        // The bitmap of each level is one bit per "1" of the level above:
        // the top level (`B_n`) spans the whole database; level `i` spans
        // `lens[i+1]` bits.
        let lens = Self::level_lengths(self.db_size);
        let bitmap_bits: u64 = (0..lens.len())
            .map(|i| lens.get(i + 1).map_or(self.db_size, |&l| l) as u64)
            .sum();
        bitmap_bits as f64 + (lens.len() as f64 + 1.0) * p.timestamp_bits
    }

    /// Produces the literal bit-sequence encoding: for each level from
    /// `B_n` down to `B_1`, its bitmap (`B_n` over item ids ascending;
    /// deeper levels over the "1" positions of the level above, in the
    /// same order), each preceded by its 64-bit cut timestamp `TS(B_k)`
    /// (negative infinity when the level reaches back to the beginning of
    /// time); then `TS(B_0)`. Used by tests to validate the size formulas
    /// and the hierarchy's self-consistency; the simulator itself only
    /// charges sizes.
    pub fn encode_wire(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let encode_ts = |out: &mut Vec<u8>, ts: Option<SimTime>| {
            out.extend_from_slice(&ts.map_or(f64::NEG_INFINITY, SimTime::as_secs).to_be_bytes());
        };
        // The newest N/2 + 1 updates fix every mark and every cut: level
        // `len`'s cut is the timestamp of the (len + 1)-th newest.
        let newest: Vec<(ItemId, SimTime)> = self.index.desc().take(self.top() + 1).collect();
        // Current members, ordered by item id, of the level above;
        // starts as the whole database for B_n.
        let mut above: Vec<ItemId> = (0..self.db_size).map(ItemId).collect();
        for &len in Self::level_lengths(self.db_size).iter().rev() {
            let prefix = len as usize;
            encode_ts(&mut out, newest.get(prefix).map(|&(_, ts)| ts));
            let mut marked: Vec<ItemId> = newest[..prefix.min(newest.len())]
                .iter()
                .map(|&(id, _)| id)
                .collect();
            marked.sort_unstable();
            // Bitmap over `above`, one bit per member.
            let mut byte = 0u8;
            let mut nbits = 0;
            let mut next_above = Vec::with_capacity(marked.len());
            for &id in &above {
                let bit = marked.binary_search(&id).is_ok();
                byte = (byte << 1) | bit as u8;
                nbits += 1;
                if nbits == 8 {
                    out.push(byte);
                    byte = 0;
                    nbits = 0;
                }
                if bit {
                    next_above.push(id);
                }
            }
            if nbits > 0 {
                out.push(byte << (8 - nbits));
            }
            above = next_above;
        }
        encode_ts(&mut out, self.latest_update());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Recency list: item k updated at time 1000 - k*10 (item 0 most
    /// recent).
    fn recency(n: usize) -> Vec<(ItemId, SimTime)> {
        (0..n)
            .map(|k| (ItemId(k as u32), t(1000.0 - k as f64 * 10.0)))
            .collect()
    }

    #[test]
    fn level_geometry_power_of_two() {
        assert_eq!(BitSequences::level_lengths(16), vec![1, 2, 4, 8]);
        assert_eq!(BitSequences::level_lengths(2), vec![1]);
        assert_eq!(BitSequences::level_lengths(1), Vec::<u32>::new());
    }

    #[test]
    fn level_geometry_general() {
        assert_eq!(BitSequences::level_lengths(10), vec![1, 2, 4, 5]);
        assert_eq!(
            BitSequences::level_lengths(1000),
            vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 500]
        );
    }

    #[test]
    fn clean_when_no_updates_since_tlb() {
        let bs = BitSequences::from_recency(t(2000.0), 16, recency(5));
        assert_eq!(bs.decide(t(1000.0), vec![ItemId(3)]), BsDecision::Clean);
        assert_eq!(bs.decide(t(1500.0), vec![ItemId(3)]), BsDecision::Clean);
    }

    #[test]
    fn clean_on_virgin_database() {
        let bs = BitSequences::from_recency(t(100.0), 16, vec![]);
        assert_eq!(bs.latest_update(), None);
        assert_eq!(bs.decide(t(0.0), vec![ItemId(1)]), BsDecision::Clean);
    }

    #[test]
    fn selects_smallest_covering_level() {
        // 8 updated items in a DB of 16; levels 1,2,4,8.
        let bs = BitSequences::from_recency(t(2000.0), 16, recency(9));
        // Tlb = 995: only item 0 (ts 1000) updated after; level 1 covers
        // because cut(level 1) = ts of item 1 = 990 ≤ 995.
        match bs.decide(t(995.0), vec![ItemId(0), ItemId(1), ItemId(5)]) {
            BsDecision::Invalidate(stale) => assert_eq!(stale, vec![ItemId(0)]),
            other => panic!("{other:?}"),
        }
        // Tlb = 975: items 0,1,2 updated after; level 2's cut = ts of item
        // 2 = 980 > 975, so level 4 (cut = ts of item 4 = 960 ≤ 975).
        match bs.decide(t(975.0), vec![ItemId(0), ItemId(3), ItemId(5)]) {
            BsDecision::Invalidate(stale) => assert_eq!(stale, vec![ItemId(0), ItemId(3)]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn drop_all_when_even_largest_level_is_too_recent() {
        // 9 updates, DB 16: top level 8 marks items 0..8, cut = ts of item
        // 8 = 920. A client with Tlb = 900 < 920 cannot be salvaged.
        let bs = BitSequences::from_recency(t(2000.0), 16, recency(9));
        assert_eq!(bs.decide(t(900.0), vec![ItemId(1)]), BsDecision::DropAll);
    }

    #[test]
    fn sparse_history_covers_everything() {
        // Only 3 items ever updated in a DB of 16: level 4 (and 8) reach
        // back to the beginning of time.
        let bs = BitSequences::from_recency(t(2000.0), 16, recency(3));
        match bs.decide(t(0.0), vec![ItemId(0), ItemId(2), ItemId(9)]) {
            BsDecision::Invalidate(stale) => {
                assert_eq!(stale, vec![ItemId(0), ItemId(2)]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bit_level_invalidation_is_conservative() {
        // Item 1 is marked at the selected level even though this client's
        // copy might be fresh — the paper's BS drops it regardless.
        let bs = BitSequences::from_recency(t(2000.0), 16, recency(9));
        match bs.decide(t(955.0), vec![ItemId(4)]) {
            // Tlb=955: level 8 is the smallest covering (cut level4 = ts
            // item 4 = 960 > 955; cut level8 = ts item 8 = 920 ≤ 955).
            BsDecision::Invalidate(stale) => assert_eq!(stale, vec![ItemId(4)]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn paper_size_formula() {
        let p = SizeParams {
            db_size: 10_000,
            group_count: 64,
            timestamp_bits: 48.0,
            header_bits: 64.0,
            control_bytes: 512,
            item_bytes: 8192,
        };
        let bs = BitSequences::from_recency(t(10.0), 10_000, vec![]);
        // 2N + bT * log2 N = 20 000 + 48 * 14.
        assert_eq!(bs.size_bits(&p), 20_000.0 + 48.0 * 14.0);
    }

    #[test]
    fn wire_encoding_matches_exact_size() {
        let p = SizeParams {
            db_size: 64,
            group_count: 64,
            timestamp_bits: 64.0,
            header_bits: 0.0,
            control_bytes: 512,
            item_bytes: 8192,
        };
        let bs = BitSequences::from_recency(t(2000.0), 64, recency(40));
        let wire = bs.encode_wire();
        // Bitmap bits: levels 1,2,4,8,16,32 -> |B_k| = 2,4,8,16,32,64 =
        // 126 bits -> padded to bytes per level: 1+1+1+2+4+8 = 17 bytes.
        // Timestamps: 7 * 8 bytes.
        assert_eq!(wire.len(), 17 + 56);
        let exact = bs.exact_size_bits(&p);
        assert_eq!(exact, 126.0 + 7.0 * 64.0);
        // The paper's closed form upper-bounds the bitmap portion.
        assert!(bs.size_bits(&p) >= exact - 7.0 * 64.0);
    }

    #[test]
    fn exactly_filled_top_level_with_overflow() {
        // DB 16, 20 updates: recency truncated to 8, cut of level 8 = ts
        // of the 9th most recent.
        let bs = BitSequences::from_recency(t(2000.0), 16, recency(20));
        assert_eq!(bs.marked(usize::MAX).count(), 8);
        // B_n covers a Tlb at its cut, not one just before it.
        let cut = t(1000.0 - 8.0 * 10.0);
        assert_eq!(bs.select(cut), BsSelect::Prefix(8));
        assert_eq!(bs.select(t(1000.0 - 8.5 * 10.0)), BsSelect::DropAll);
    }

    /// A plan decoded for a client's `Tlb` bucket marks exactly what the
    /// Figure-2 `decide` invalidates, and decodes nothing for the Clean
    /// and DropAll verdicts.
    #[test]
    fn indexed_fanout_matches_decide() {
        let bs = BitSequences::from_recency(t(2000.0), 16, recency(9));
        let payload = crate::ReportPayload::BitSeq(bs.clone());
        let caches: [&[u32]; 4] = [&[0, 1, 5], &[0, 3, 5], &[4], &[9, 12]];
        for (tlb, cached) in [(995.0, 0), (975.0, 1), (955.0, 2), (1500.0, 3), (900.0, 0)]
            .map(|(tlb, ci)| (tlb, caches[ci]))
        {
            let items: Vec<ItemId> = cached.iter().map(|&i| ItemId(i)).collect();
            let plan = crate::PlanCache::for_report(&payload, t(tlb));
            match bs.decide(t(tlb), items.iter().copied()) {
                BsDecision::Clean | BsDecision::DropAll => assert_eq!(plan.bs_prefix(), None),
                BsDecision::Invalidate(mut stale) => {
                    assert!(plan.bs_prefix().is_some());
                    let mut marked: Vec<ItemId> =
                        items.into_iter().filter(|&i| plan.contains(i)).collect();
                    stale.sort_unstable();
                    marked.sort_unstable();
                    assert_eq!(marked, stale, "tlb {tlb}");
                }
            }
        }
    }

    #[test]
    fn boundary_tlb_equal_to_cut_is_covered() {
        let bs = BitSequences::from_recency(t(2000.0), 16, recency(9));
        // cut of level 1 = 990; Tlb = 990 exactly: items updated after 990
        // are a subset of the level-1 prefix, so it must cover.
        match bs.decide(t(990.0), vec![ItemId(0), ItemId(1)]) {
            BsDecision::Invalidate(stale) => assert_eq!(stale, vec![ItemId(0)]),
            other => panic!("{other:?}"),
        }
    }
}
