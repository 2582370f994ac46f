//! Property tests pinning the `plan ≡ decide` equivalence: the bitmap
//! invalidation plan ([`PlanCache`]), read through either of its arms —
//! the word-wise intersection with a cache-membership bitmap or one bit
//! probe per cached item — must produce exactly the stale **set** the
//! linear `decide` of each report kind produces. The engine relies on
//! this to evaluate every report through the plan without moving the
//! golden digests.

use mobicache_model::ItemId;
use mobicache_reports::{
    AtDecision, AtReport, BitSequences, BsDecision, BsSelect, PlanCache, ReportPayload,
    WindowDecision, WindowReport,
};
use mobicache_sim::SimTime;
use proptest::prelude::*;
use std::collections::HashMap;

const HORIZON: f64 = 1000.0;

fn t(s: f64) -> SimTime {
    SimTime::from_secs(s)
}

/// A random update history: (timestamp, item) pairs over `[0, HORIZON)`.
fn history_strategy(db: u32) -> impl Strategy<Value = Vec<(f64, u32)>> {
    prop::collection::vec((0.0..HORIZON, 0..db), 0..120)
}

/// Ground truth: each item's last update time, if any.
fn last_updates(history: &[(f64, u32)]) -> HashMap<u32, f64> {
    let mut last: HashMap<u32, f64> = HashMap::new();
    for &(ts, item) in history {
        let e = last.entry(item).or_insert(ts);
        if ts > *e {
            *e = ts;
        }
    }
    last
}

/// Builds the `TS` window report the server would broadcast at `HORIZON`.
fn window_report(history: &[(f64, u32)], window_start: f64) -> WindowReport {
    WindowReport {
        broadcast_at: t(HORIZON),
        window_start: t(window_start),
        records: last_updates(history)
            .into_iter()
            .filter(|&(_, ts)| ts > window_start)
            .map(|(i, ts)| (ItemId(i), t(ts)))
            .collect(),
        dummy: None,
    }
}

/// Builds the bit-sequences report the server would broadcast at
/// `HORIZON`.
fn bs_report(history: &[(f64, u32)], db: u32) -> BitSequences {
    let last = last_updates(history);
    let mut recency: Vec<(ItemId, SimTime)> =
        last.iter().map(|(&i, &ts)| (ItemId(i), t(ts))).collect();
    recency.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    BitSequences::from_recency(t(HORIZON), db, recency)
}

/// Membership bitmap over the given ids, exactly as `LruCache` keeps it.
fn member_of(ids: impl IntoIterator<Item = u32>, db: u32) -> Vec<u64> {
    let mut words = vec![0u64; (db as usize).div_ceil(64)];
    for id in ids {
        words[id as usize / 64] |= 1 << (id % 64);
    }
    words
}

/// The plan's stale set through both arms, which must agree; sorted.
/// `stale(item)` is the per-item test for an item whose plan bit is set.
fn both_arms(
    plan: &PlanCache,
    cached: impl IntoIterator<Item = u32> + Clone,
    db: u32,
    stale: impl Fn(ItemId) -> bool,
) -> Vec<ItemId> {
    let mut words = Vec::new();
    plan.intersect_into(&member_of(cached.clone(), db), &mut words, &stale);
    let mut probed: Vec<ItemId> = cached
        .into_iter()
        .map(ItemId)
        .filter(|&i| plan.contains(i) && stale(i))
        .collect();
    probed.sort_unstable();
    assert_eq!(words, probed, "word and per-item arms disagree");
    words
}

/// One decode of a reused plan: `kind` 0 = window, 1 = AT, 2 = BS,
/// 3 = an empty window; `big` picks the larger database; `at` is the
/// window start, AT previous broadcast or BS dominant `Tlb`.
#[derive(Clone, Debug)]
struct Decode {
    kind: u8,
    big: bool,
    history: Vec<(f64, u32)>,
    at: f64,
}

/// The two database sizes a reused plan alternates between: the larger
/// needs two summary words, the smaller five plan words, so each size
/// change resizes both levels.
const SMALL_DB: u32 = 300;
const BIG_DB: u32 = 5_000;

fn decode_strategy() -> impl Strategy<Value = Decode> {
    (
        0u8..4,
        any::<bool>(),
        prop::collection::vec((0.0..HORIZON, 0..BIG_DB), 0..60),
        0.0..HORIZON,
    )
        .prop_map(|(kind, big, history, at)| Decode {
            kind,
            big,
            history,
            at,
        })
}

impl Decode {
    fn db(&self) -> u32 {
        if self.big {
            BIG_DB
        } else {
            SMALL_DB
        }
    }

    fn payload(&self) -> ReportPayload {
        let db = self.db();
        let history: Vec<(f64, u32)> = self.history.iter().map(|&(ts, i)| (ts, i % db)).collect();
        match self.kind {
            0 => ReportPayload::Window(window_report(&history, self.at)),
            1 => ReportPayload::At(AtReport {
                broadcast_at: t(HORIZON),
                prev_broadcast: t(self.at),
                items: last_updates(&history)
                    .iter()
                    .filter(|&(_, &ts)| ts > self.at)
                    .map(|(&i, _)| ItemId(i))
                    .collect(),
            }),
            2 => ReportPayload::BitSeq(bs_report(&history, db)),
            _ => ReportPayload::Window(window_report(&[], self.at)),
        }
    }
}

/// `true` for a window or AT report listing nothing.
fn payload_is_empty(payload: &ReportPayload) -> bool {
    match payload {
        ReportPayload::Window(w) => w.records.is_empty(),
        ReportPayload::At(at) => at.items.is_empty(),
        _ => false,
    }
}

/// The dense reference of `intersect_into`: every word of
/// `member & plan`, ascending.
fn dense_intersect(plan: &[u64], member: &[u64], keep: impl Fn(ItemId) -> bool) -> Vec<ItemId> {
    let mut out = Vec::new();
    for (k, (&m, &p)) in member.iter().zip(plan).enumerate() {
        for b in 0..64 {
            let item = ItemId((k * 64 + b) as u32);
            if (m & p) >> b & 1 != 0 && keep(item) {
                out.push(item);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One plan reused across window, AT and BS decodes over two
    /// database sizes holds after every decode exactly what a fresh
    /// plan would: the same words, and an `intersect_into` equal to the
    /// dense `member & plan` walk, in order, for members shorter than,
    /// as long as and longer than the plan (a summary that dropped a
    /// non-zero word would lose its items here).
    #[test]
    fn reused_plan_matches_fresh_decodes(
        decodes in prop::collection::vec(decode_strategy(), 1..12),
        member in prop::collection::vec(any::<u64>(), 90..91),
        sparse in prop::collection::vec(any::<u64>(), 90..91),
    ) {
        let mut plan = PlanCache::new();
        for (step, d) in decodes.iter().enumerate() {
            let payload = d.payload();
            let before = plan.decodes();
            plan.decode_for_tick(&payload, t(d.at), d.db());
            let mut fresh = PlanCache::new();
            fresh.decode_for_tick(&payload, t(d.at), d.db());
            prop_assert_eq!(plan.window_active(), fresh.window_active());
            prop_assert_eq!(plan.at_active(), fresh.at_active());
            prop_assert_eq!(plan.bs_prefix(), fresh.bs_prefix());
            if plan.decodes() > before {
                prop_assert_eq!(plan.words(), fresh.words(), "words at step {}", step);
            }
            let words = plan.words();
            // Dense random members, and sparse ones (one bit in four).
            let sparse: Vec<u64> = member.iter().zip(&sparse).map(|(a, b)| a & b & (a >> 1)).collect();
            let n = words.len();
            for len in [0, n / 2, n, n + 3] {
                for m in [&member[..len], &sparse[..len]] {
                    let keep = |item: ItemId| !item.0.is_multiple_of(3);
                    let mut out = Vec::new();
                    plan.intersect_into(m, &mut out, keep);
                    prop_assert_eq!(&out, &dense_intersect(words, m, keep), "len {} at step {}", len, step);
                }
            }
            if payload_is_empty(&payload) {
                let mut out = Vec::new();
                plan.intersect_into(&member, &mut out, |_| true);
                prop_assert!(out.is_empty(), "empty plan intersected at step {}", step);
            }
        }
    }

    /// Window plan ≡ `WindowReport::decide`: for a covered client, both
    /// arms filtered by the listed-timestamp check yield exactly the
    /// linear stale set — for *arbitrary* cached versions, not just
    /// histories a well-behaved client could hold.
    #[test]
    fn window_plan_matches_decide(
        history in history_strategy(128),
        window_start in 0.0..HORIZON,
        tlb in 0.0..HORIZON,
        cached in prop::collection::hash_map(0u32..128, 0.0..HORIZON, 0..40),
    ) {
        let report = window_report(&history, window_start);
        let mut plan = PlanCache::new();
        // The window decode is Tlb-independent: key with an arbitrary
        // bucket and apply to a client with a different `tlb`.
        plan.decode_for_tick(&ReportPayload::Window(report.clone()), t(0.0), 128);
        prop_assert!(plan.window_active());

        let entries: Vec<(ItemId, SimTime)> =
            cached.iter().map(|(&i, &v)| (ItemId(i), t(v))).collect();
        let planned = both_arms(&plan, cached.keys().copied(), 128, |item| {
            plan.window_stale(item, t(cached[&item.0]))
        });
        match report.decide(t(tlb), entries) {
            WindowDecision::NotCovered => {
                // The client drops (or limbos) its cache whatever the
                // plan says; nothing to compare.
                prop_assert!(!report.covers(t(tlb)));
            }
            WindowDecision::Invalidate(mut stale) => {
                stale.sort_unstable();
                prop_assert_eq!(stale, planned);
            }
        }
    }

    /// BS plan ≡ `BitSequences::decide`: whenever the client's selected
    /// prefix bucket matches the plan's decoded bucket, both arms yield
    /// exactly the marked cached set. (Off-bucket clients walk their own
    /// prefix; the client-level proptest covers them.)
    #[test]
    fn bs_plan_matches_decide(
        history in history_strategy(128),
        dominant in 0.0..HORIZON,
        tlb in 0.0..HORIZON,
        cached_items in prop::collection::hash_set(0u32..128, 0..48),
    ) {
        let report = bs_report(&history, 128);
        let mut plan = PlanCache::new();
        plan.decode_for_tick(&ReportPayload::BitSeq(report.clone()), t(dominant), 128);
        // The plan holds a prefix exactly when the dominant bucket
        // resolves to one.
        match report.select(t(dominant)) {
            BsSelect::Prefix(p) => prop_assert_eq!(plan.bs_prefix(), Some(p)),
            _ => prop_assert_eq!(plan.bs_prefix(), None),
        }

        let reference = report.decide(t(tlb), cached_items.iter().copied().map(ItemId));
        let (BsDecision::Invalidate(mut stale), BsSelect::Prefix(p)) =
            (reference, report.select(t(tlb)))
        else {
            return Ok(()); // Clean/DropAll: O(1) verdicts, no plan read.
        };
        if plan.bs_prefix() != Some(p) {
            return Ok(()); // off the decoded bucket.
        }
        let planned = both_arms(&plan, cached_items.iter().copied(), 128, |_| true);
        stale.sort_unstable();
        prop_assert_eq!(stale, planned);
    }

    /// AT plan ≡ `AtReport::decide`: for a covered client both arms of
    /// the listed bitmap yield exactly the linear membership set.
    #[test]
    fn at_plan_matches_decide(
        history in history_strategy(128),
        prev in 0.0..HORIZON,
        tlb in 0.0..HORIZON,
        cached_items in prop::collection::hash_set(0u32..128, 0..48),
    ) {
        let items: Vec<ItemId> = last_updates(&history)
            .iter()
            .filter(|&(_, &ts)| ts > prev)
            .map(|(&i, _)| ItemId(i))
            .collect();
        let report = AtReport {
            broadcast_at: t(HORIZON),
            prev_broadcast: t(prev),
            items,
        };
        let mut plan = PlanCache::new();
        plan.decode_for_tick(&ReportPayload::At(report.clone()), t(0.0), 128);
        prop_assert!(plan.at_active());

        let AtDecision::Invalidate(mut stale) =
            report.decide(t(tlb), cached_items.iter().copied().map(ItemId))
        else {
            // Uncovered AT clients drop the whole cache; the plan is
            // never consulted.
            return Ok(());
        };
        let planned = both_arms(&plan, cached_items.iter().copied(), 128, |_| true);
        stale.sort_unstable();
        prop_assert_eq!(stale, planned);
    }
}
