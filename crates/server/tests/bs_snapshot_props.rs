//! Snapshot properties of the bit-sequences report: a report shares the
//! update log's recency index instead of copying it, so these tests pin
//! that sharing changes nothing a report says.
//!
//! A `Server` (BS, AFW, AAW) runs random interleavings of update
//! transactions (multi-item, equal-timestamp, re-updates of a few hot
//! items that force compactions), report builds (some held alive across
//! later updates, some dropped at once), `Tlb` uplinks and
//! crash/recover, on databases from 1 item up. Every BS report, at every
//! later step, must select and mark exactly what an eager model captured
//! at its build time says: the plain sorted recency list with the cut
//! timestamp of each level computed up front, as the report was built
//! before it shared the index.

use mobicache_model::msg::SizeParams;
use mobicache_model::{ItemId, Scheme};
use mobicache_reports::{BitSequences, BsSelect, ReportPayload};
use mobicache_server::Server;
use mobicache_sim::SimTime;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const WINDOW_SECS: f64 = 40.0;

fn t(s: f64) -> SimTime {
    SimTime::from_secs(s)
}

fn params(db: u32) -> SizeParams {
    SizeParams {
        db_size: u64::from(db),
        group_count: 64,
        timestamp_bits: 48.0,
        header_bits: 64.0,
        control_bytes: 512,
        item_bytes: 8192,
    }
}

/// The eager report: the `N/2` newest updates and one cut per level,
/// computed at build time from a plain recency-descending list.
struct Eager {
    latest: Option<SimTime>,
    /// Newest first, truncated to `N/2`.
    recency: Vec<(ItemId, SimTime)>,
    /// `(marks, cut)` per level, smallest first; a `None` cut reaches
    /// back to the beginning of time.
    levels: Vec<(usize, Option<SimTime>)>,
}

/// The last-update map in the log's recency order: newest first, ties
/// item-descending.
fn recency_desc(last: &BTreeMap<ItemId, SimTime>) -> Vec<(ItemId, SimTime)> {
    let mut desc: Vec<(ItemId, SimTime)> = last.iter().map(|(&i, &ts)| (i, ts)).collect();
    desc.sort_by_key(|&(item, ts)| std::cmp::Reverse((ts, item)));
    desc
}

impl Eager {
    /// The model of a report built over the last-update map `last`.
    fn capture(db: u32, last: &BTreeMap<ItemId, SimTime>) -> Eager {
        let mut desc = recency_desc(last);
        let lens = BitSequences::level_lengths(db);
        let top = lens.last().copied().unwrap_or(0) as usize;
        let latest = desc.first().map(|&(_, ts)| ts);
        let overflow = desc.get(top).map(|&(_, ts)| ts);
        desc.truncate(top);
        let levels = lens
            .iter()
            .map(|&len| {
                let len = len as usize;
                let cut = if len < desc.len() {
                    Some(desc[len].1)
                } else if len == desc.len() && len == top {
                    overflow
                } else {
                    None
                };
                (len, cut)
            })
            .collect();
        Eager {
            latest,
            recency: desc,
            levels,
        }
    }

    fn select(&self, tlb: SimTime) -> BsSelect {
        match self.latest {
            None => return BsSelect::Clean,
            Some(latest) if latest <= tlb => return BsSelect::Clean,
            _ => {}
        }
        self.levels
            .iter()
            .find(|&&(_, cut)| cut.is_none_or(|cut| cut <= tlb))
            .map_or(BsSelect::DropAll, |&(len, _)| BsSelect::Prefix(len))
    }

    fn marked(&self, p: usize) -> Vec<ItemId> {
        self.recency[..p.min(self.recency.len())]
            .iter()
            .map(|&(item, _)| item)
            .collect()
    }
}

/// A held report and the model captured when it was built.
struct Held {
    report: Arc<ReportPayload>,
    model: Eager,
}

/// Checks one BS report against its model at `tlbs` and every level's
/// mark count.
fn check(held: &Held, db: u32, tlbs: &[SimTime]) {
    let ReportPayload::BitSeq(bs) = &*held.report else {
        return;
    };
    prop_assert_eq!(bs.latest_update(), held.model.latest);
    for &tlb in tlbs {
        prop_assert_eq!(bs.select(tlb), held.model.select(tlb), "select({:?})", tlb);
    }
    let top = (db / 2) as usize;
    for p in [0, 1, 2, 3, top.saturating_sub(1), top, top + 1, usize::MAX] {
        let got: Vec<ItemId> = bs.marked(p).collect();
        prop_assert_eq!(got, held.model.marked(p), "marked({})", p);
    }
}

/// Probe `Tlb`s: every timestamp ever written, each just before and just
/// after, time zero and far past the end.
fn probe_tlbs(stamps: &[f64], now: f64) -> Vec<SimTime> {
    let mut tlbs = vec![SimTime::ZERO, t(now + 100.0)];
    for &s in stamps {
        tlbs.extend([t(s), t((s - 0.5).max(0.0)), t(s + 0.5)]);
    }
    tlbs
}

/// Runs `ops` against a server of `scheme` over `db` items, checking
/// every held BS report after every step. Returns the number of BS
/// reports built.
fn drive(scheme: Scheme, db: u32, ops: &[(u8, u8, u32, u32)]) -> u64 {
    let mut server = Server::new(scheme, db, WINDOW_SECS, params(db));
    let mut last: BTreeMap<ItemId, SimTime> = BTreeMap::new();
    let mut stamps: Vec<f64> = Vec::new();
    let mut held: Vec<Held> = Vec::new();
    let mut now = 0.0;
    let mut bs_built = 0;
    for &(op, delta, a, b) in ops {
        now += f64::from(delta % 8);
        match op % 8 {
            // A transaction of 1–8 items at one timestamp: with zero
            // deltas its ties often straddle a level boundary.
            0..=2 => {
                let n = 1 + b % 8;
                let items: Vec<ItemId> = (0..n).map(|k| ItemId((a + k * 7) % db)).collect();
                server.apply_txn(t(now), &items);
                for &item in &items {
                    last.insert(item, t(now));
                }
                stamps.push(now);
            }
            // Re-updates of a few hot items: tombstones pile up and force
            // compactions.
            3 => {
                for k in 0..=(b % 4) {
                    let item = ItemId((a + k) % db.min(3));
                    server.apply_txn(t(now), &[item]);
                    last.insert(item, t(now));
                }
                stamps.push(now);
            }
            // A build, held alive or dropped at once.
            4 | 5 => {
                let (report, _) = server.build_report_shared(t(now));
                if report.is_bitseq() {
                    bs_built += 1;
                }
                let h = Held {
                    report,
                    model: Eager::capture(db, &last),
                };
                check(&h, db, &probe_tlbs(&stamps, now));
                if op % 8 == 4 {
                    held.push(h);
                }
                // The settled log itself matches the model too.
                let desc: Vec<_> = server.log().recency_desc().collect();
                prop_assert_eq!(desc, recency_desc(&last));
            }
            // A reconnecting client's Tlb (deep enough to fall outside
            // the window, so AFW/AAW may answer with BS).
            6 => {
                let back = WINDOW_SECS + f64::from(a % 200);
                server.receive_tlb(t((now - back).max(0.0)));
                if b % 3 == 0 && !held.is_empty() {
                    held.remove((a as usize) % held.len());
                }
            }
            // Crash and recover: the cached report goes, the log stays.
            _ => {
                server.crash();
                server.recover();
            }
        }
        let tlbs = probe_tlbs(&stamps, now);
        for h in &held {
            check(h, db, &tlbs);
        }
    }
    bs_built
}

fn ops_strategy() -> impl Strategy<Value = Vec<(u8, u8, u32, u32)>> {
    prop::collection::vec((0u8..8, 0u8..8, 0u32..10_000, 0u32..10_000), 1..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every BS report a server builds — under BS, AFW or AAW, over
    /// databases of 1 to 64 items — says exactly what the eager model
    /// captured at its build time, at every later step.
    #[test]
    fn shared_reports_match_the_eager_model_captured_at_build(
        scheme_pick in 0u32..3,
        tiny in any::<bool>(),
        db_pick in 1u32..65,
        ops in ops_strategy(),
    ) {
        let scheme = [Scheme::Bs, Scheme::Afw, Scheme::Aaw][scheme_pick as usize];
        let db = if tiny { 1 + db_pick % 3 } else { db_pick };
        drive(scheme, db, &ops);
    }
}

/// The proptest reaches what it claims: BS reports from every scheme,
/// on tiny databases too.
#[test]
fn adaptive_and_tiny_runs_build_bs_reports() {
    // Eight one-item txns at t = 1..8, quiet builds up to t = 113, then
    // Tlbs at 0, 4, 7 and 50 (73 - a), each followed by a held build.
    let mut ops: Vec<(u8, u8, u32, u32)> = (0..8).map(|k| (0, 1, k * 5, 0)).collect();
    ops.extend((0..15).map(|_| (5, 7, 0, 0)));
    for a in [73, 69, 66, 23] {
        ops.extend([(6, 0, a, 1), (4, 0, 0, 0)]);
    }
    for scheme in [Scheme::Bs, Scheme::Afw, Scheme::Aaw] {
        for db in [1, 2, 3, 40] {
            let bs_built = drive(scheme, db, &ops);
            assert!(bs_built > 0, "{scheme:?} db {db} built no BS report");
        }
    }
}
