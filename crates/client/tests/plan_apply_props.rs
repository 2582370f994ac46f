//! The client's plan application against the linear oracle: whatever
//! the report (Window, BS or AT), the dominant `Tlb` the tick's plan was
//! decoded for, the client's own `Tlb`, and the cache size — on either
//! side of the word-arm/per-item-arm selection — the cache after
//! `on_report_planned` holds exactly what applying the linear `decide`
//! verdict leaves. A BS client whose `Tlb` selects a prefix other than
//! the decoded bucket takes the off-bucket prefix walk, which no
//! report-level property reaches; one on the bucket takes the plan's
//! memoized selection. BS reports come both from a plain recency list
//! and from a `Server`, whose reports share its update log's index
//! while later updates wait to be folded in.

use mobicache_client::{ClientConfig, ClientPop};
use mobicache_model::msg::SizeParams;
use mobicache_model::{CheckingMode, ItemId, Scheme};
use mobicache_reports::{
    AtDecision, AtReport, BitSequences, BsDecision, PlanCache, PlanStats, ReportPayload,
    WindowDecision, WindowReport,
};
use mobicache_server::Server;
use mobicache_sim::SimTime;
use proptest::prelude::*;
use std::collections::BTreeMap;

const HORIZON: f64 = 1000.0;

fn t(s: f64) -> SimTime {
    SimTime::from_secs(s)
}

/// The report of `kind` (0 = window, 1 = BS, 2 = AT, 3 = BS built by a
/// `Server`) broadcast at `HORIZON` over a `db`-item database with the
/// given last-update times. `since` is the window start (window) or the
/// previous broadcast (AT).
fn report(kind: u32, last: &BTreeMap<u32, f64>, db: u32, since: f64) -> ReportPayload {
    let listed = last.iter().filter(|&(_, &ts)| ts > since);
    match kind {
        0 => ReportPayload::Window(WindowReport {
            broadcast_at: t(HORIZON),
            window_start: t(since),
            records: listed.map(|(&i, &ts)| (ItemId(i), t(ts))).collect(),
            dummy: None,
        }),
        1 => {
            let mut recency: Vec<(ItemId, SimTime)> =
                last.iter().map(|(&i, &ts)| (ItemId(i), t(ts))).collect();
            recency.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            ReportPayload::BitSeq(BitSequences::from_recency(t(HORIZON), db, recency))
        }
        2 => ReportPayload::At(AtReport {
            broadcast_at: t(HORIZON),
            prev_broadcast: t(since),
            items: listed.map(|(&i, _)| ItemId(i)).collect(),
        }),
        _ => server_bs(last, db),
    }
}

/// A BS report built by a `Server` that applied `last` in time order.
/// A report built halfway through is held across the second half, so
/// those updates wait and the final build folds them into a copy; the
/// final report is then held across two more updates, which it must
/// never show.
fn server_bs(last: &BTreeMap<u32, f64>, db: u32) -> ReportPayload {
    let params = SizeParams {
        db_size: u64::from(db),
        group_count: 64,
        timestamp_bits: 48.0,
        header_bits: 64.0,
        control_bytes: 512,
        item_bytes: 8192,
    };
    let mut server = Server::new(Scheme::Bs, db, 200.0, params);
    let mut history: Vec<(f64, u32)> = last.iter().map(|(&i, &ts)| (ts, i)).collect();
    history.sort_by(|a, b| a.0.total_cmp(&b.0));
    let half = history.len() / 2;
    let mut held = None;
    for (k, &(ts, item)) in history.iter().enumerate() {
        if k == half {
            held = Some(server.build_report_shared(t(ts)).0);
        }
        server.apply_txn(t(ts), &[ItemId(item)]);
    }
    let (report, _) = server.build_report_shared(t(HORIZON));
    drop(held);
    server.apply_txn(t(HORIZON), &[ItemId(0), ItemId(db - 1)]);
    server.apply_txn(t(HORIZON + 1.0), &[ItemId(db / 2)]);
    (*report).clone()
}

/// A cache's `(item, version)` entries.
type Entries = Vec<(ItemId, SimTime)>;

/// Applies `payload` through a plan decoded for `dominant` to one client
/// that last heard a report at `tlb` and caches `cached` (item →
/// version). Returns the cache before and after, and the arm tallies.
fn apply(
    payload: &ReportPayload,
    db: u32,
    dominant: f64,
    tlb: f64,
    cached: &BTreeMap<u32, f64>,
) -> (Entries, Entries, PlanStats) {
    let scheme = match payload {
        ReportPayload::Window(_) => Scheme::TsNoCheck,
        ReportPayload::BitSeq(_) => Scheme::Bs,
        _ => Scheme::At,
    };
    let cfg = ClientConfig {
        scheme,
        checking_mode: CheckingMode::FullCache,
        cache_capacity: cached.len().max(1),
        broadcast_period_secs: 20.0,
        gcore_groups: 4,
        retry: None,
    };
    let mut pop = ClientPop::new(cfg, 1);
    let mut client = pop.client_mut(0);
    let mut actions = Vec::new();
    // An empty AT report reaching back to time zero sets `Tlb` and
    // leaves the (still empty) cache alone.
    let warmup = ReportPayload::At(AtReport {
        broadcast_at: t(tlb),
        prev_broadcast: SimTime::ZERO,
        items: vec![],
    });
    client.on_report_into(t(tlb), &warmup, &mut actions);
    for (&item, &version) in cached {
        client.on_data_into(t(tlb), ItemId(item), t(version), &mut actions);
    }
    let before: Vec<(ItemId, SimTime)> = client.cache().items_iter().collect();

    let mut plan = PlanCache::new();
    plan.decode_for_tick(payload, t(dominant), db);
    if let ReportPayload::BitSeq(bs) = payload {
        // The memoized dominant bucket and a lazily computed selection
        // agree.
        assert_eq!(plan.bs_select(bs, t(dominant)), bs.select(t(dominant)));
        assert_eq!(plan.bs_select(bs, t(tlb)), bs.select(t(tlb)));
    }
    let mut stats = PlanStats::default();
    client.on_report_planned(t(HORIZON), payload, &plan, &mut actions, &mut stats);
    let mut after: Vec<(ItemId, SimTime)> = client.cache().items_iter().collect();
    after.sort_unstable();
    (before, after, stats)
}

/// The cache the linear `decide` verdict leaves, sorted.
fn expected(
    payload: &ReportPayload,
    tlb: f64,
    before: &[(ItemId, SimTime)],
) -> Vec<(ItemId, SimTime)> {
    let items = before.iter().map(|&(i, _)| i);
    let stale = match payload {
        ReportPayload::Window(w) => match w.decide(t(tlb), before.iter().copied()) {
            WindowDecision::NotCovered => return Vec::new(),
            WindowDecision::Invalidate(stale) => stale,
        },
        ReportPayload::BitSeq(bs) => match bs.decide(t(tlb), items) {
            BsDecision::Clean => Vec::new(),
            BsDecision::DropAll => return Vec::new(),
            BsDecision::Invalidate(stale) => stale,
        },
        ReportPayload::At(at) => match at.decide(t(tlb), items) {
            AtDecision::NotCovered => return Vec::new(),
            AtDecision::Invalidate(stale) => stale,
        },
        ReportPayload::Sig(..) => unreachable!("SIG reports carry no plan"),
    };
    let mut kept: Vec<(ItemId, SimTime)> = before
        .iter()
        .copied()
        .filter(|(i, _)| !stale.contains(i))
        .collect();
    kept.sort_unstable();
    kept
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn planned_application_matches_linear_decide(
        kind in 0u32..4,
        db in 64u32..4_096,
        updates in prop::collection::vec((0.0..HORIZON, 0.0..1.0f64), 0..160),
        since in 0.0..HORIZON,
        dominant in 0.0..HORIZON,
        (same_bucket, tlb) in (any::<bool>(), 0.0..HORIZON),
        cached in prop::collection::vec((0.0..1.0f64, 0.0..HORIZON, any::<bool>()), 0..24),
    ) {
        // Ids are drawn as fractions of `db` so one strategy serves every
        // database size: small caches over a large database sit on the
        // per-item side of the selection, the rest on the word side.
        let id = |frac: f64| ((frac * f64::from(db)) as u32).min(db - 1);
        let mut last = BTreeMap::new();
        for &(ts, frac) in &updates {
            let e = last.entry(id(frac)).or_insert(ts);
            *e = e.max(ts);
        }
        // Half the cached ids are updated items, so reports list cached
        // entries often enough to reach every prefix boundary.
        let cached: BTreeMap<u32, f64> = cached
            .iter()
            .map(|&(frac, v, updated)| {
                let pick = (frac * updates.len() as f64) as usize;
                match updates.get(pick) {
                    Some(&(_, u)) if updated => (id(u), v),
                    _ => (id(frac), v),
                }
            })
            .collect();
        let payload = report(kind, &last, db, since);
        let tlb = if same_bucket { dominant } else { tlb };

        let (before, after, stats) = apply(&payload, db, dominant, tlb, &cached);
        prop_assert_eq!(before.len(), cached.len());
        prop_assert!(stats.hits + stats.misses <= 1);
        prop_assert_eq!(after, expected(&payload, tlb, &before));
    }
}

/// The selection really splits the cases: a few cached items over a
/// large database take the per-item arm, a cache spanning few words
/// takes the word arm, and a BS client off the decoded bucket takes the
/// prefix walk (also tallied per item).
#[test]
fn every_arm_is_exercised() {
    let last: BTreeMap<u32, f64> = (0..40).map(|i| (i * 97, 500.0 + f64::from(i))).collect();
    let window = report(0, &last, 4_096, 200.0);

    let sparse = BTreeMap::from([(3_880, 100.0)]);
    let (_, _, stats) = apply(&window, 4_096, 900.0, 900.0, &sparse);
    assert_eq!((stats.hits, stats.misses), (0, 1), "per-item arm");

    let dense: BTreeMap<u32, f64> = (0..20).map(|i| (i * 97, 100.0)).collect();
    let (before, after, stats) = apply(&window, 4_096, 900.0, 900.0, &dense);
    assert_eq!((stats.hits, stats.misses), (1, 0), "word arm");
    assert_eq!(after, expected(&window, 900.0, &before));

    let bs = report(1, &last, 4_096, 0.0);
    // Dominant bucket: a Tlb after every update but the newest; the
    // client's older Tlb selects a longer prefix.
    let (before, after, stats) = apply(&bs, 4_096, 538.5, 510.0, &dense);
    assert_eq!((stats.hits, stats.misses), (0, 1), "off-bucket prefix walk");
    assert!(after.len() < before.len(), "the walk invalidates");
    assert_eq!(after, expected(&bs, 510.0, &before));

    // A server-built report: a client on the dominant bucket reads the
    // plan through the memoized selection, one off it walks its prefix.
    let bs = report(3, &last, 4_096, 0.0);
    let (before, after, stats) = apply(&bs, 4_096, 538.5, 538.5, &dense);
    assert_eq!(
        (stats.hits, stats.misses),
        (1, 0),
        "memoized bucket, word arm"
    );
    assert_eq!(after, expected(&bs, 538.5, &before));
    let (before, after, stats) = apply(&bs, 4_096, 538.5, 510.0, &dense);
    assert_eq!((stats.hits, stats.misses), (0, 1), "off-bucket prefix walk");
    assert_eq!(after, expected(&bs, 510.0, &before));
}
