//! Property tests for the server's adaptive report decision (§3,
//! Figures 3 and 4 of the paper).

use mobicache_model::msg::SizeParams;
use mobicache_model::{ItemId, Scheme};
use mobicache_reports::ReportPayload;
use mobicache_server::Server;
use mobicache_sim::SimTime;
use proptest::prelude::*;

const WINDOW_SECS: f64 = 200.0;
const DB: u32 = 256;

fn t(s: f64) -> SimTime {
    SimTime::from_secs(s)
}

fn params() -> SizeParams {
    SizeParams {
        db_size: DB as u64,
        group_count: 64,
        timestamp_bits: 48.0,
        header_bits: 64.0,
        control_bytes: 512,
        item_bytes: 8192,
    }
}

/// Replays a random update history and Tlb arrivals, then checks the
/// decision invariants at the report build.
fn build(
    scheme: Scheme,
    updates: &[(f64, u32)],
    tlbs: &[f64],
    now: f64,
) -> (Server, ReportPayload) {
    let mut server = Server::new(scheme, DB, WINDOW_SECS, params());
    let mut ordered = updates.to_vec();
    ordered.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    for &(ts, item) in &ordered {
        server.apply_txn(t(ts), &[ItemId(item % DB)]);
    }
    for &tlb in tlbs {
        server.receive_tlb(t(tlb));
    }
    let report = (*server.build_report_shared(t(now)).0).clone();
    (server, report)
}

fn updates_strategy() -> impl Strategy<Value = Vec<(f64, u32)>> {
    prop::collection::vec((0.0..1000.0f64, 0u32..DB), 0..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Figure 3 invariant: AFW broadcasts BS **iff** some pending Tlb is
    /// outside the window yet within BS reach.
    #[test]
    fn afw_broadcasts_bs_iff_some_tlb_is_eligible(
        updates in updates_strategy(),
        tlbs in prop::collection::vec(0.0..1000.0f64, 0..5),
    ) {
        let now = 1000.0;
        let wstart = now - WINDOW_SECS;
        // Ground truth eligibility.
        let mut latest: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
        for &(ts, item) in &updates {
            let e = latest.entry(item % DB).or_insert(ts);
            if ts > *e { *e = ts; }
        }
        let eligible = tlbs.iter().any(|&tlb| {
            let changed_after = latest.values().filter(|&&ts| ts > tlb).count();
            tlb < wstart && changed_after <= (DB / 2) as usize
        });
        let (_, report) = build(Scheme::Afw, &updates, &tlbs, now);
        prop_assert_eq!(report.is_bitseq(), eligible);
    }

    /// Figure 4 invariant: when AAW reacts to an eligible Tlb it picks
    /// the smaller of the enlarged window and BS, and an enlarged window
    /// always covers the oldest eligible Tlb.
    #[test]
    fn aaw_picks_the_smaller_covering_report(
        updates in updates_strategy(),
        tlb in 0.0..700.0f64,
    ) {
        let now = 1000.0;
        let p = params();
        let (_, report) = build(Scheme::Aaw, &updates, &[tlb], now);
        // Ground truth: is this Tlb eligible?
        let mut latest: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
        for &(ts, item) in &updates {
            let e = latest.entry(item % DB).or_insert(ts);
            if ts > *e { *e = ts; }
        }
        let changed_after = latest.values().filter(|&&ts| ts > tlb).count();
        let eligible = tlb < now - WINDOW_SECS && changed_after <= (DB / 2) as usize;
        match &report {
            ReportPayload::Window(w) if w.dummy.is_some() => {
                prop_assert!(eligible);
                prop_assert!(w.covers(t(tlb)), "enlarged window must cover the Tlb");
                // The enlarged window was chosen, so it is no bigger than BS.
                let bs_bits = 2.0 * DB as f64 + 48.0 * 8.0;
                prop_assert!(w.size_bits(&p) <= bs_bits + 1.0,
                    "enlarged {} > bs {}", w.size_bits(&p), bs_bits);
            }
            ReportPayload::BitSeq(_) => {
                prop_assert!(eligible);
                // BS was chosen, so the enlarged window would be bigger.
                let enlarged_bits = 48.0 + (changed_after as f64 + 1.0) * p.record_bits();
                let bs_bits = 2.0 * DB as f64 + 48.0 * 8.0;
                prop_assert!(enlarged_bits > bs_bits,
                    "BS chosen although enlarged would be {} <= {}", enlarged_bits, bs_bits);
            }
            ReportPayload::Window(_) => prop_assert!(!eligible),
            other => return Err(TestCaseError::fail(format!("{other:?}"))),
        }
    }

    /// Window reports list exactly the items updated in the covered
    /// history, each with its latest timestamp.
    #[test]
    fn window_report_is_complete_and_deduplicated(updates in updates_strategy()) {
        let now = 1000.0;
        let (_, report) = build(Scheme::SimpleChecking, &updates, &[], now);
        let ReportPayload::Window(w) = report else {
            return Err(TestCaseError::fail("expected a window report"));
        };
        let wstart = now - WINDOW_SECS;
        let mut latest: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
        for &(ts, item) in &updates {
            let e = latest.entry(item % DB).or_insert(ts);
            if ts > *e { *e = ts; }
        }
        let expected: std::collections::HashMap<ItemId, f64> = latest
            .iter()
            .filter(|&(_, &ts)| ts > wstart)
            .map(|(&i, &ts)| (ItemId(i), ts))
            .collect();
        prop_assert_eq!(w.records.len(), expected.len(), "dedup or completeness broken");
        for (item, ts) in &w.records {
            prop_assert_eq!(expected.get(item).copied(), Some(ts.as_secs()));
        }
    }

    /// Validity verdicts agree with the ground-truth history.
    #[test]
    fn validity_verdicts_match_history(
        updates in updates_strategy(),
        checks in prop::collection::hash_map(0u32..DB, 0.0..1000.0f64, 0..20),
    ) {
        let mut server = Server::new(Scheme::SimpleChecking, DB, WINDOW_SECS, params());
        let mut ordered = updates.clone();
        ordered.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for &(ts, item) in &ordered {
            server.apply_txn(t(ts), &[ItemId(item % DB)]);
        }
        let entries: Vec<(ItemId, SimTime)> =
            checks.iter().map(|(&i, &v)| (ItemId(i), t(v))).collect();
        let verdict = server.process_check(t(2000.0), &entries);
        let mut latest: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
        for &(ts, item) in &updates {
            let e = latest.entry(item % DB).or_insert(ts);
            if ts > *e { *e = ts; }
        }
        for &(item, version) in &entries {
            let truth = latest.get(&item.0).copied().unwrap_or(0.0);
            let valid = truth <= version.as_secs();
            prop_assert_eq!(verdict.valid.contains(&item), valid,
                "item {:?} version {} truth {}", item, version.as_secs(), truth);
        }
    }
}
