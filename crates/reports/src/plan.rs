//! Per-tick invalidation **plans**: one report decoded once into a dense
//! stale bitmap over `ItemId` — the only decoded form of a report.
//!
//! Almost every connected client holds the same effective `Tlb` (the
//! previous report's timestamp) and therefore computes the *same* stale
//! set, so a [`PlanCache`] decodes the report into `db_size` bits once
//! per tick, memoized by the `Tlb` bucket the decode depends on. Each
//! client then reads the plan through one of two arms, whichever its
//! cache size makes cheaper:
//!
//! * the word arm — [`PlanCache::intersect_into`] ANDs the plan with the
//!   cache's membership bitmap, visiting only non-zero words;
//! * the per-item arm — one O(1) [`PlanCache::contains`] bit probe per
//!   cached item (plus [`PlanCache::window_stale`]'s version test under
//!   a window plan).
//!
//! Per report kind the `Tlb` bucket degenerates differently:
//!
//! * **Window** — the provably-stale set (`version < t_listed`) is
//!   `Tlb`-independent: the listed-item bitmap plus a dense timestamp
//!   table serve *every* client; coverage (`covers(tlb)`) stays a cheap
//!   per-client scalar check.
//! * **Bit-sequences** — staleness is pure prefix membership, a function
//!   of `select(tlb)` alone, so the bucket key is the selected prefix
//!   length. The engine pre-decodes the dominant bucket (the previous
//!   report's broadcast time — every client that heard it lands there)
//!   and memoizes its selection, so such a client resolves its `Tlb`
//!   with no rank count ([`PlanCache::bs_select`]); a client in another
//!   bucket selects for itself and walks its own marked prefix of the
//!   report against its cache-membership bitmap instead.
//! * **AT** — the listed-item bitmap is `Tlb`-independent; coverage is a
//!   scalar check, an uncovered client drops its whole cache anyway.
//! * **SIG** — no plan: the verdict depends on each client's stored
//!   signature baseline, which is per-client by construction.
//!
//! The plan is an *evaluation strategy*, never a behavioural change:
//! either arm yields exactly the stale **set** the linear `decide` of
//! each report kind yields (pinned by the `plan ≡ decide` proptests),
//! and the engine golden digests stay bit-identical.

use crate::bitseq::{BitSequences, BsSelect};
use crate::payload::ReportPayload;
use mobicache_model::ItemId;
use mobicache_sim::SimTime;

/// Which decode the plan currently holds (one report kind per tick).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum PlanKind {
    /// No plan decoded for this tick (SIG report, or a BS report whose
    /// dominant bucket resolved to Clean/DropAll).
    #[default]
    None,
    /// Window report: bitmap of listed items + dense update timestamps.
    Window,
    /// AT report: bitmap of listed items.
    At,
    /// BS report: the dominant bucket's `Tlb` and its selection; for a
    /// `Prefix(p)` selection the bitmap holds the `p` marked items.
    Bs(SimTime, BsSelect),
}

/// Per-client plan-application tallies, accumulated shard-locally by the
/// engine fan-out and merged serially (sums are order-free, so the
/// counters are thread-invariant).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Report applications served by the word-wise plan intersection.
    pub hits: u64,
    /// Applications served per item: a cache too small for the word arm
    /// to profit (one plan-bit probe per cached item), or a BS client
    /// whose selected prefix is off the plan's bucket (a walk of that
    /// prefix against the cache's membership bitmap).
    pub misses: u64,
}

/// A reusable per-tick invalidation-plan cache.
///
/// `decode_for_tick` turns one [`ReportPayload`] into a dense stale
/// bitmap (`db_size.div_ceil(64)` words of `u64`); `intersect_into`
/// applies it to one cache's membership bitmap and `contains` probes it
/// one item at a time. The buffers persist across ticks, so steady state
/// allocates nothing.
///
/// Shared immutably across the engine's fan-out shards: after the serial
/// phase-0 decode every read is lock-free (`&PlanCache` is `Sync` — the
/// struct is plain `Vec`s).
#[derive(Debug, Default)]
pub struct PlanCache {
    kind: PlanKind,
    /// The stale bitmap, bit `i` = `ItemId(i)`.
    bits: Vec<u64>,
    /// Window plans only: `ts[i]` is the listed update timestamp of
    /// `ItemId(i)`. Only slots whose `bits` bit is set are meaningful
    /// (stale slots from earlier ticks are never read).
    ts: Vec<SimTime>,
    /// Bitmap decodes performed over the cache's lifetime.
    decodes: u64,
}

impl PlanCache {
    /// An empty plan cache; buffers grow on first decode.
    pub fn new() -> Self {
        Self::default()
    }

    /// A one-off plan for a single client whose effective `Tlb` is
    /// `tlb`, for callers outside a tick fan-out. They do not know the
    /// database size, so a window or AT plan spans the report's highest
    /// listed item id (a cached item beyond it is unlisted); a BS report
    /// carries its own.
    pub fn for_report(payload: &ReportPayload, tlb: SimTime) -> Self {
        let span = match payload {
            ReportPayload::Window(w) => w.records.iter().map(|&(item, _)| item.0 + 1).max(),
            ReportPayload::At(at) => at.items.iter().map(|item| item.0 + 1).max(),
            ReportPayload::BitSeq(bs) => Some(bs.db_size),
            ReportPayload::Sig(..) => None,
        };
        let mut plan = Self::new();
        plan.decode_for_tick(payload, tlb, span.unwrap_or(0));
        plan
    }

    /// Zeroes the bitmap at `words` words, keeping the allocation.
    fn reset_bits(&mut self, words: usize) {
        self.bits.clear();
        self.bits.resize(words, 0);
    }

    #[inline]
    fn set(&mut self, item: ItemId) {
        let i = item.0 as usize;
        debug_assert!(i / 64 < self.bits.len(), "item id beyond db_size");
        self.bits[i / 64] |= 1u64 << (i % 64);
    }

    /// Decodes `payload` into this tick's plan. Serial phase-0 only —
    /// shards read the result immutably.
    ///
    /// `dominant_tlb` keys the BS prefix bucket: pass the previous
    /// report's broadcast time (every client that heard it selects this
    /// bucket), whose BS selection is memoized for
    /// [`PlanCache::bs_select`]. Window and AT decodes are
    /// `Tlb`-independent. A SIG payload, or a BS dominant bucket
    /// resolving to Clean/DropAll, leaves the bitmap empty (a client
    /// with another prefix walks it itself).
    pub fn decode_for_tick(
        &mut self,
        payload: &ReportPayload,
        dominant_tlb: SimTime,
        db_size: u32,
    ) {
        self.kind = PlanKind::None;
        let words = (db_size as usize).div_ceil(64);
        match payload {
            ReportPayload::Window(w) => {
                self.reset_bits(words);
                if self.ts.len() < db_size as usize {
                    self.ts.resize(db_size as usize, SimTime::ZERO);
                }
                for &(item, t) in &w.records {
                    self.set(item);
                    self.ts[item.0 as usize] = t;
                }
                self.kind = PlanKind::Window;
                self.decodes += 1;
            }
            ReportPayload::At(at) => {
                self.reset_bits(words);
                for &item in &at.items {
                    self.set(item);
                }
                self.kind = PlanKind::At;
                self.decodes += 1;
            }
            ReportPayload::BitSeq(bs) => {
                let sel = bs.select(dominant_tlb);
                if let BsSelect::Prefix(p) = sel {
                    self.reset_bits(words);
                    for item in bs.marked(p) {
                        self.set(item);
                    }
                    self.decodes += 1;
                }
                self.kind = PlanKind::Bs(dominant_tlb, sel);
            }
            ReportPayload::Sig(..) => {}
        }
    }

    /// Bitmap decodes performed so far (cumulative).
    pub fn decodes(&self) -> u64 {
        self.decodes
    }

    /// `true` when a window plan is loaded (listed bitmap + timestamps).
    pub fn window_active(&self) -> bool {
        self.kind == PlanKind::Window
    }

    /// `true` when an AT plan is loaded (listed bitmap).
    pub fn at_active(&self) -> bool {
        self.kind == PlanKind::At
    }

    /// The decoded BS prefix bucket, when one is loaded.
    pub fn bs_prefix(&self) -> Option<usize> {
        match self.kind {
            PlanKind::Bs(_, BsSelect::Prefix(p)) => Some(p),
            _ => None,
        }
    }

    /// `bs.select(tlb)`, answered from the memo when `tlb` is the
    /// dominant `Tlb` this plan was decoded for. `bs` must be the report
    /// the plan was decoded from.
    #[inline]
    pub fn bs_select(&self, bs: &BitSequences, tlb: SimTime) -> BsSelect {
        match self.kind {
            PlanKind::Bs(dominant, sel) if dominant == tlb => sel,
            _ => bs.select(tlb),
        }
    }

    /// The plan bitmap words (bit `i` = `ItemId(i)`).
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// `true` when the plan's bit for `item` is set: listed by a window
    /// or AT report, or inside the decoded BS prefix. Items beyond the
    /// decoded span are unset.
    #[inline]
    pub fn contains(&self, item: ItemId) -> bool {
        let i = item.0 as usize;
        self.bits
            .get(i / 64)
            .is_some_and(|w| w >> (i % 64) & 1 != 0)
    }

    /// The listed update timestamp of `item` under a window plan.
    /// Meaningful only for items whose plan bit is set.
    #[inline]
    pub fn listed_ts(&self, item: ItemId) -> SimTime {
        self.ts[item.0 as usize]
    }

    /// Figure 1's per-item test under a window plan: the report lists
    /// `item` with an update newer than the cached `version`.
    #[inline]
    pub fn window_stale(&self, item: ItemId, version: SimTime) -> bool {
        self.contains(item) && version < self.listed_ts(item)
    }

    /// Word-wise `plan & member` intersection: for every set bit of the
    /// AND (ascending item id, extracted via `trailing_zeros`), pushes
    /// the item onto `out` if `keep` accepts it. Only non-zero words do
    /// per-bit work; `member` is each cache's membership bitmap, grown
    /// lazily, so the loop runs `min(|member|, |plan|)` words.
    pub fn intersect_into(
        &self,
        member: &[u64],
        out: &mut Vec<ItemId>,
        mut keep: impl FnMut(ItemId) -> bool,
    ) {
        let n = member.len().min(self.bits.len());
        for (wi, (&m, &p)) in member[..n].iter().zip(&self.bits[..n]).enumerate() {
            let mut w = m & p;
            while w != 0 {
                let item = ItemId((wi * 64) as u32 + w.trailing_zeros());
                w &= w - 1;
                if keep(item) {
                    out.push(item);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::at::AtReport;
    use crate::window::WindowReport;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// A little member bitmap over the given ids.
    fn member_of(ids: &[u32], db: u32) -> Vec<u64> {
        let mut words = vec![0u64; (db as usize).div_ceil(64)];
        for &id in ids {
            words[id as usize / 64] |= 1 << (id % 64);
        }
        words
    }

    fn window(records: Vec<(u32, f64)>) -> ReportPayload {
        ReportPayload::Window(WindowReport {
            broadcast_at: t(1000.0),
            window_start: t(800.0),
            records: records
                .into_iter()
                .map(|(i, ts)| (ItemId(i), t(ts)))
                .collect(),
            dummy: None,
        })
    }

    #[test]
    fn window_plan_intersects_listed_and_cached() {
        let mut plan = PlanCache::new();
        plan.decode_for_tick(&window(vec![(3, 950.0), (70, 920.0)]), t(0.0), 128);
        assert!(plan.window_active());
        assert_eq!(plan.decodes(), 1);
        let member = member_of(&[3, 5, 70], 128);
        let mut out = Vec::new();
        plan.intersect_into(&member, &mut out, |_| true);
        assert_eq!(out, vec![ItemId(3), ItemId(70)]);
        assert_eq!(plan.listed_ts(ItemId(3)), t(950.0));
        assert_eq!(plan.listed_ts(ItemId(70)), t(920.0));
    }

    #[test]
    fn keep_filter_prunes_fresh_versions() {
        let mut plan = PlanCache::new();
        plan.decode_for_tick(&window(vec![(3, 950.0), (7, 920.0)]), t(0.0), 64);
        let member = member_of(&[3, 7], 64);
        let mut out = Vec::new();
        // Pretend item 3's cached version is fresh (≥ listed ts).
        plan.intersect_into(&member, &mut out, |i| {
            t(930.0) < plan.listed_ts(i) // only 3 (950) qualifies
        });
        assert_eq!(out, vec![ItemId(3)]);
    }

    #[test]
    fn per_item_probes_agree_with_the_bitmap() {
        let mut plan = PlanCache::new();
        plan.decode_for_tick(&window(vec![(3, 950.0), (70, 920.0)]), t(0.0), 128);
        assert!(plan.contains(ItemId(3)) && plan.contains(ItemId(70)));
        assert!(!plan.contains(ItemId(5)));
        // Past the decoded span: unset, not a panic.
        assert!(!plan.contains(ItemId(4_000)));
        assert!(plan.window_stale(ItemId(3), t(940.0)));
        assert!(
            !plan.window_stale(ItemId(3), t(950.0)),
            "equal version is fresh"
        );
        assert!(
            !plan.window_stale(ItemId(5), t(0.0)),
            "unlisted is never stale"
        );
    }

    #[test]
    fn one_off_plan_spans_the_highest_listed_item() {
        let plan = PlanCache::for_report(&window(vec![(3, 950.0), (70, 920.0)]), t(900.0));
        assert!(plan.window_active());
        assert_eq!(plan.words().len(), 2, "ids up to 70 fit in two words");
        assert!(plan.contains(ItemId(70)));
        let empty = PlanCache::for_report(&window(vec![]), t(900.0));
        assert!(empty.window_active() && empty.words().is_empty());
        assert!(!empty.contains(ItemId(0)));
    }

    #[test]
    fn at_plan_marks_listed_items() {
        let mut plan = PlanCache::new();
        let at = ReportPayload::At(AtReport {
            broadcast_at: t(200.0),
            prev_broadcast: t(100.0),
            items: vec![ItemId(1), ItemId(65)],
        });
        plan.decode_for_tick(&at, t(100.0), 128);
        assert!(plan.at_active());
        let mut out = Vec::new();
        plan.intersect_into(&member_of(&[0, 1, 64, 65], 128), &mut out, |_| true);
        assert_eq!(out, vec![ItemId(1), ItemId(65)]);
    }

    #[test]
    fn bs_plan_keys_off_dominant_prefix() {
        // Recency-descending updates: 9 @ 95, 4 @ 85, 2 @ 75.
        let bs = BitSequences::from_recency(
            t(100.0),
            64,
            vec![
                (ItemId(9), t(95.0)),
                (ItemId(4), t(85.0)),
                (ItemId(2), t(75.0)),
            ],
        );
        let sel = bs.select(t(90.0));
        let BsSelect::Prefix(p) = sel else {
            panic!("expected a prefix selection, got {sel:?}");
        };
        let payload = ReportPayload::BitSeq(bs);
        let mut plan = PlanCache::new();
        plan.decode_for_tick(&payload, t(90.0), 64);
        assert_eq!(plan.bs_prefix(), Some(p));
        let mut out = Vec::new();
        plan.intersect_into(&member_of(&[2, 4, 9], 64), &mut out, |_| true);
        // The plan marks exactly the prefix items; a Tlb of 90 must at
        // least invalidate the newest update (9 @ 95).
        assert!(out.contains(&ItemId(9)));
        let ReportPayload::BitSeq(bs) = &payload else {
            unreachable!()
        };
        let marked: Vec<ItemId> = bs.marked(p).collect();
        assert_eq!(plan.bs_select(bs, t(90.0)), sel, "memoized bucket");
        for i in &out {
            assert!(marked.contains(i));
        }
    }

    #[test]
    fn clean_select_and_sig_leave_no_plan() {
        let bs = BitSequences::from_recency(t(100.0), 64, vec![(ItemId(9), t(50.0))]);
        let mut plan = PlanCache::new();
        // Tlb newer than every update: Clean — nothing to decode.
        plan.decode_for_tick(&ReportPayload::BitSeq(bs), t(60.0), 64);
        assert!(!plan.window_active() && !plan.at_active());
        assert_eq!(plan.bs_prefix(), None);
        assert_eq!(plan.decodes(), 0);
    }

    #[test]
    fn redecoding_clears_the_previous_tick() {
        let mut plan = PlanCache::new();
        plan.decode_for_tick(&window(vec![(3, 950.0)]), t(0.0), 64);
        plan.decode_for_tick(&window(vec![(5, 960.0)]), t(0.0), 64);
        let mut out = Vec::new();
        plan.intersect_into(&member_of(&[3, 5], 64), &mut out, |_| true);
        assert_eq!(out, vec![ItemId(5)], "stale bit from tick 1 must be gone");
        assert_eq!(plan.decodes(), 2);
    }
}
