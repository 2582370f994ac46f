//! The broadcast server: report construction and the adaptive decision.

use crate::log::UpdateLog;
use mobicache_model::msg::SizeParams;
use mobicache_model::{ItemId, Scheme};
use mobicache_reports::{AtReport, BitSequences, ReportPayload, SigReport, Signer, WindowReport};
use mobicache_sim::SimTime;
use std::sync::Arc;

/// Counters describing the server's behaviour over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Plain `IR(w)` window reports broadcast.
    pub window_reports: u64,
    /// AAW enlarged-window reports broadcast.
    pub enlarged_reports: u64,
    /// Bit-sequence reports broadcast.
    pub bs_reports: u64,
    /// Amnesic-terminals reports broadcast.
    pub at_reports: u64,
    /// Signature reports broadcast.
    pub sig_reports: u64,
    /// `Tlb` messages received from clients.
    pub tlbs_received: u64,
    /// Duplicate `Tlb` arrivals ignored idempotently (a retrying client
    /// whose original uplink did arrive re-sends the same `Tlb`).
    pub duplicate_tlbs: u64,
    /// Validity-check requests processed.
    pub checks_processed: u64,
    /// Update transactions applied.
    pub txns_applied: u64,
    /// Individual item updates applied.
    pub updates_applied: u64,
}

impl ServerCounters {
    /// Field-wise accumulation: multi-cell runs sum the per-cell
    /// servers' counters into one run-wide total (cell order, so the
    /// result is deterministic and, at one cell, the identity).
    pub fn absorb(&mut self, other: &ServerCounters) {
        self.window_reports += other.window_reports;
        self.enlarged_reports += other.enlarged_reports;
        self.bs_reports += other.bs_reports;
        self.at_reports += other.at_reports;
        self.sig_reports += other.sig_reports;
        self.tlbs_received += other.tlbs_received;
        self.duplicate_tlbs += other.duplicate_tlbs;
        self.checks_processed += other.checks_processed;
        self.txns_applied += other.txns_applied;
        self.updates_applied += other.updates_applied;
    }
}

/// The adaptive schemes' per-period report choice (§3, Figures 3 and 4),
/// surfaced so observers can trace *why* a period broadcast what it did.
///
/// `None` periods (no pending eligible `Tlb`, or a non-adaptive scheme)
/// produce no decision record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AdaptiveDecision {
    /// AFW (Figure 3): an eligible `Tlb` forced an `IR(BS)` broadcast
    /// this period instead of the usual `IR(w)`.
    AfwBsTrigger {
        /// Number of eligible `Tlb`s pending at the broadcast.
        eligible: usize,
        /// The oldest eligible `Tlb`, seconds.
        oldest_tlb_secs: f64,
        /// Size of the BS report body actually broadcast, bits.
        bs_bits: f64,
        /// Size the plain window report would have had, bits.
        window_bits: f64,
    },
    /// AAW (Figure 4): the window was enlarged back to the oldest
    /// eligible `Tlb` because that was cheaper than BS.
    AawEnlarge {
        /// The `Tlb` the enlarged window reaches back to, seconds.
        tlb_secs: f64,
        /// Size of the enlarged-window report (the chosen one), bits.
        enlarged_bits: f64,
        /// Size a BS report would have had, bits.
        bs_bits: f64,
    },
    /// AAW (Figure 4): BS was broadcast because the enlarged window
    /// would have been bigger.
    AawBsFallback {
        /// The oldest eligible `Tlb` that demanded the deep history.
        tlb_secs: f64,
        /// Size the enlarged-window report would have had, bits.
        enlarged_bits: f64,
        /// Size of the BS report actually broadcast, bits.
        bs_bits: f64,
    },
}

/// Answer to a validity-check request.
#[derive(Clone, Debug, PartialEq)]
pub struct ValidityVerdict {
    /// Server time the verdict is valid as of.
    pub asof: SimTime,
    /// The checked items that are still valid, in ascending order.
    pub valid: Vec<ItemId>,
    /// Number of items checked (sizes the downlink validity report).
    pub checked: u32,
}

/// Answer to a grouped-checking request (GCORE-like extension).
#[derive(Clone, Debug, PartialEq)]
pub struct GroupVerdict {
    /// Server time the verdict is valid as of.
    pub asof: SimTime,
    /// `false` when some group's `Tlb` predates the retention window —
    /// the client must drop its cache.
    pub covered: bool,
    /// Items of the checked groups updated since their `Tlb`s.
    pub stale: Vec<ItemId>,
}

/// The stateless broadcast server.
pub struct Server {
    scheme: Scheme,
    params: SizeParams,
    window_secs: f64,
    log: UpdateLog,
    /// `Tlb`s uplinked since the last report build (cleared each period —
    /// the only per-period client feedback the adaptive schemes keep).
    pending_tlbs: Vec<SimTime>,
    prev_broadcast: SimTime,
    /// Signature state, `Some` only under `SIG`: the signer, which
    /// hashes each item's membership once per run, and the combined
    /// signatures it maintains incrementally, shared with the reports
    /// until an update copies them. A crash wipes the signatures
    /// (`None`) until [`Server::recover`] rebuilds them.
    sig: Option<(Signer, Option<Arc<[u64]>>)>,
    /// Grouped-checking parameters: `(group count, retention seconds)`.
    gcore: (u32, f64),
    counters: ServerCounters,
}

impl Server {
    /// A server for `scheme` over a database of `db_size` items, with the
    /// invalidation window `w · L` in seconds.
    pub fn new(scheme: Scheme, db_size: u32, window_secs: f64, params: SizeParams) -> Self {
        let sig = Server::fresh_sig(scheme, db_size);
        Server::with_sig(scheme, db_size, window_secs, params, sig)
    }

    /// The signature state a fresh `scheme` server over `db_size` items
    /// starts from, `Some` only under [`Scheme::Sig`]: the signer and
    /// the combined signatures of the database at version zero. Both
    /// are protocol constants, and a clone shares their buffers, so the
    /// servers of every cell can start from one.
    pub fn fresh_sig(scheme: Scheme, db_size: u32) -> Option<(Signer, Arc<[u64]>)> {
        (scheme == Scheme::Sig).then(|| {
            let signer = Signer::new(32, 32, 0x5161_5161, db_size);
            let combined = signer.combine(&vec![SimTime::ZERO; db_size as usize]);
            (signer, combined)
        })
    }

    /// [`Server::new`] starting from `sig`, which must be
    /// [`Server::fresh_sig`]`(scheme, db_size)` or a clone of it.
    pub fn with_sig(
        scheme: Scheme,
        db_size: u32,
        window_secs: f64,
        params: SizeParams,
        sig: Option<(Signer, Arc<[u64]>)>,
    ) -> Self {
        debug_assert_eq!(
            sig.is_some(),
            scheme == Scheme::Sig,
            "SIG state for {scheme:?}"
        );
        let sig = sig.map(|(signer, combined)| (signer, Some(combined)));
        Server {
            scheme,
            params,
            window_secs,
            log: UpdateLog::new(db_size),
            pending_tlbs: Vec::new(),
            prev_broadcast: SimTime::ZERO,
            sig,
            gcore: (64, 100.0 * window_secs),
            counters: ServerCounters::default(),
        }
    }

    /// The signer, `Some` only under [`Scheme::Sig`].
    pub fn signer(&self) -> Option<&Signer> {
        self.sig.as_ref().map(|(signer, _)| signer)
    }

    /// Sets the grouped-checking parameters (group count and retention
    /// window in seconds). Only meaningful under [`Scheme::Gcore`].
    pub fn configure_gcore(&mut self, groups: u32, retention_secs: f64) {
        assert!(groups > 0, "need at least one group");
        assert!(retention_secs > 0.0, "retention must be positive");
        self.gcore = (groups, retention_secs);
    }

    /// The group an item belongs to (round-robin partition).
    #[inline]
    pub fn group_of(item: ItemId, groups: u32) -> u32 {
        item.0 % groups
    }

    /// Answers a grouped-checking request: for each `(group, Tlb)` pair,
    /// the items of that group updated since the `Tlb` — unless any
    /// `Tlb` predates the retention window, in which case the verdict is
    /// uncovered and the client drops its cache.
    pub fn process_group_check(&mut self, now: SimTime, groups: &[(u32, SimTime)]) -> GroupVerdict {
        self.counters.checks_processed += 1;
        let (group_count, retention_secs) = self.gcore;
        let horizon = SimTime::from_secs(now.as_secs() - retention_secs);
        if groups.iter().any(|&(_, tlb)| tlb < horizon) {
            return GroupVerdict {
                asof: now,
                covered: false,
                stale: Vec::new(),
            };
        }
        self.log.settle();
        let mut stale = Vec::new();
        for &(group, tlb) in groups {
            for (item, _) in self.log.updates_since_iter(tlb) {
                if Self::group_of(item, group_count) == group {
                    stale.push(item);
                }
            }
        }
        stale.sort_unstable();
        stale.dedup();
        GroupVerdict {
            asof: now,
            covered: true,
            stale,
        }
    }

    /// Read access to the update history (the simulation oracle uses
    /// this as ground truth). Its index reads need a settled log, which
    /// every report build leaves behind.
    pub fn log(&self) -> &UpdateLog {
        &self.log
    }

    /// Behaviour counters.
    pub fn counters(&self) -> ServerCounters {
        self.counters
    }

    /// Times the update log copied its recency index because a BS report
    /// still held it when updates had to be folded in (see
    /// [`UpdateLog::settle`]). Observability only — not part of
    /// [`ServerCounters`] or any run metric.
    pub fn recency_copies(&self) -> u64 {
        self.log.recency_copies()
    }

    /// Applies one update transaction touching `items` at time `now`.
    pub fn apply_txn(&mut self, now: SimTime, items: &[ItemId]) {
        self.counters.txns_applied += 1;
        for &item in items {
            let prev = self.log.apply_update(now, item);
            self.counters.updates_applied += 1;
            if let Some((signer, Some(combined))) = &mut self.sig {
                // Incremental signature maintenance: swap the item's old
                // signature for the new one in every subset containing it.
                let delta = signer.item_signature(item, prev) ^ signer.item_signature(item, now);
                signer.xor_member(Arc::make_mut(combined), item, delta);
            }
        }
    }

    /// The current version of an item (for data delivery).
    #[inline]
    pub fn version(&self, item: ItemId) -> SimTime {
        self.log.version(item)
    }

    /// Records a `Tlb` uplinked by a reconnecting adaptive-scheme client.
    ///
    /// Idempotent under duplicates: a retrying client may re-send a `Tlb`
    /// whose original did arrive (the *report* was what it missed), and
    /// uplink reordering can deliver both copies in one period.
    /// Registering the timestamp once is enough — the adaptive decision
    /// depends only on the set of pending `Tlb`s, so dropping the
    /// duplicate changes nothing while keeping the pending list from
    /// growing with the retry rate.
    pub fn receive_tlb(&mut self, tlb: SimTime) {
        self.counters.tlbs_received += 1;
        if self.pending_tlbs.contains(&tlb) {
            self.counters.duplicate_tlbs += 1;
        } else {
            self.pending_tlbs.push(tlb);
        }
    }

    /// Simulates a server crash: every piece of **volatile** state is
    /// wiped — the pending-`Tlb` list, the incremental signature index,
    /// and the previous-broadcast watermark.
    /// The update log survives (it is the durable store the paper's
    /// stateless-server argument rests on). Returns the number of pending
    /// `Tlb` registrations lost.
    pub fn crash(&mut self) -> u64 {
        let dropped = self.pending_tlbs.len() as u64;
        self.pending_tlbs.clear();
        if let Some((_, combined)) = &mut self.sig {
            *combined = None;
        }
        // Forgetting the last broadcast makes the next AT report cover
        // the whole history — conservative (clients invalidate more than
        // strictly needed) but never lets a stale entry through.
        self.prev_broadcast = SimTime::ZERO;
        dropped
    }

    /// Rebuilds the volatile state wiped by [`Server::crash`] from the
    /// durable update log. Only the `SIG` combined-signature index needs
    /// a rebuild (it is maintained incrementally in steady state); every
    /// report is built from the log anyway.
    pub fn recover(&mut self) {
        if let Some((signer, combined)) = &mut self.sig {
            let versions: Vec<SimTime> = (0..self.log.db_size())
                .map(|i| self.log.version(ItemId(i)))
                .collect();
            *combined = Some(signer.combine(&versions));
        }
    }

    /// Answers a simple-checking validity request: which of the client's
    /// `(item, version)` pairs are still current, listed in ascending
    /// order so the client can binary-search them.
    pub fn process_check(
        &mut self,
        now: SimTime,
        entries: &[(ItemId, SimTime)],
    ) -> ValidityVerdict {
        self.counters.checks_processed += 1;
        let mut valid: Vec<ItemId> = entries
            .iter()
            .filter(|&&(item, version)| self.log.is_valid(item, version))
            .map(|&(item, _)| item)
            .collect();
        valid.sort_unstable();
        ValidityVerdict {
            asof: now,
            valid,
            checked: entries.len() as u32,
        }
    }

    /// Start of the default window for a report broadcast at `now`
    /// (`T − w·L`; may be negative early in the run, which simply means
    /// the report covers the whole history so far).
    fn window_start(&self, now: SimTime) -> SimTime {
        SimTime::from_secs(now.as_secs() - self.window_secs)
    }

    /// A window report for the broadcast at `now`: every update since
    /// `history_since`, `O(k)` for `k` records.
    fn window_report(
        &self,
        now: SimTime,
        history_since: SimTime,
        dummy: Option<SimTime>,
    ) -> Arc<ReportPayload> {
        Arc::new(ReportPayload::Window(WindowReport {
            broadcast_at: now,
            window_start: self.window_start(now),
            records: self.log.updates_since_iter(history_since).collect(),
            dummy,
        }))
    }

    /// A bit-sequences report for the broadcast at `now`: it shares the
    /// log's settled index, `O(1)`.
    fn bs_report(&mut self, now: SimTime) -> Arc<ReportPayload> {
        let bs = BitSequences::shared(now, self.log.db_size(), self.log.share());
        Arc::new(ReportPayload::BitSeq(bs))
    }

    /// A signatures report for the broadcast at `now`: it shares the
    /// combined signatures, which updates maintain, `O(1)`.
    fn sig_report(&self, now: SimTime) -> Arc<ReportPayload> {
        let (signer, combined) = self
            .sig
            .as_ref()
            .and_then(|(signer, combined)| Some((signer, combined.as_ref()?)))
            .expect("SIG state maintained");
        Arc::new(ReportPayload::Sig(
            SigReport {
                broadcast_at: now,
                combined: Arc::clone(combined),
            },
            signer.clone(),
        ))
    }

    /// A pending `Tlb` is *eligible* for bit-sequence salvage when it
    /// falls outside the default window but within BS reach
    /// (`TS(B_n) ≤ Tlb ≤ T − w·L`, Figure 3). `TS(B_n) ≤ Tlb` is
    /// equivalent to "at most `N/2` items updated after `Tlb`". Returns
    /// `(eligible count, oldest eligible Tlb)` without allocating; each
    /// membership test is one popcount over the recency index's
    /// liveness bitmap ([`UpdateLog::count_since`]), whatever the `Tlb`'s
    /// age.
    fn eligible_tlb_stats(&self, now: SimTime) -> (usize, Option<SimTime>) {
        let wstart = self.window_start(now);
        let half = (self.log.db_size() / 2) as usize;
        let mut count = 0;
        let mut oldest = None;
        for &tlb in &self.pending_tlbs {
            if tlb < wstart && self.log.count_since(tlb) <= half {
                count += 1;
                if oldest.is_none_or(|o| tlb < o) {
                    oldest = Some(tlb);
                }
            }
        }
        (count, oldest)
    }

    /// Builds the invalidation report for the broadcast at `now` behind a
    /// shared handle, consuming the period's pending `Tlb`s, and reports
    /// the adaptive decision taken this period (AFW BS-trigger, AAW
    /// enlargement or fallback), if any, for observers.
    ///
    /// Every report is built from the update log. The returned [`Arc`]
    /// is delivered to the whole broadcast fan-out without copying.
    pub fn build_report_shared(
        &mut self,
        now: SimTime,
    ) -> (Arc<ReportPayload>, Option<AdaptiveDecision>) {
        self.log.settle();
        let mut decision = None;
        let report = match self.scheme {
            Scheme::TsNoCheck | Scheme::SimpleChecking | Scheme::Gcore => {
                self.counters.window_reports += 1;
                self.window_report(now, self.window_start(now), None)
            }
            Scheme::At => {
                self.counters.at_reports += 1;
                let items = self
                    .log
                    .updates_since_iter(self.prev_broadcast)
                    .map(|(item, _)| item)
                    .collect();
                Arc::new(ReportPayload::At(AtReport {
                    broadcast_at: now,
                    prev_broadcast: self.prev_broadcast,
                    items,
                }))
            }
            Scheme::Bs => {
                self.counters.bs_reports += 1;
                self.bs_report(now)
            }
            Scheme::Sig => {
                self.counters.sig_reports += 1;
                self.sig_report(now)
            }
            Scheme::Afw => {
                // Figure 3: broadcast BS iff some pending Tlb needs (and
                // can use) more history than the window provides.
                let (eligible, oldest) = self.eligible_tlb_stats(now);
                match oldest {
                    Some(oldest) => {
                        self.counters.bs_reports += 1;
                        // The window report is priced without being built:
                        // its size is a pure function of its record count.
                        let window_records = self.log.count_since(self.window_start(now));
                        decision = Some(AdaptiveDecision::AfwBsTrigger {
                            eligible,
                            oldest_tlb_secs: oldest.as_secs(),
                            bs_bits: BitSequences::size_bits_of(self.log.db_size(), &self.params),
                            window_bits: WindowReport::size_bits_of(window_records, &self.params),
                        });
                        self.bs_report(now)
                    }
                    None => {
                        self.counters.window_reports += 1;
                        self.window_report(now, self.window_start(now), None)
                    }
                }
            }
            Scheme::Aaw => {
                // Figure 4: between BS and the enlarged window, pick the
                // smaller report.
                match self.eligible_tlb_stats(now).1 {
                    None => {
                        self.counters.window_reports += 1;
                        self.window_report(now, self.window_start(now), None)
                    }
                    Some(min_tlb) => {
                        // The enlarged window lists every update since the
                        // Tlb plus the dummy record.
                        let enlarged_bits = WindowReport::size_bits_of(
                            self.log.count_since(min_tlb) + 1,
                            &self.params,
                        );
                        let bs_bits = BitSequences::size_bits_of(self.log.db_size(), &self.params);
                        if enlarged_bits <= bs_bits {
                            self.counters.enlarged_reports += 1;
                            decision = Some(AdaptiveDecision::AawEnlarge {
                                tlb_secs: min_tlb.as_secs(),
                                enlarged_bits,
                                bs_bits,
                            });
                            self.window_report(now, min_tlb, Some(min_tlb))
                        } else {
                            self.counters.bs_reports += 1;
                            decision = Some(AdaptiveDecision::AawBsFallback {
                                tlb_secs: min_tlb.as_secs(),
                                enlarged_bits,
                                bs_bits,
                            });
                            self.bs_report(now)
                        }
                    }
                }
            }
        };
        self.pending_tlbs.clear();
        self.prev_broadcast = now;
        (report, decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobicache_reports::BsDecision;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn params(db: u64) -> SizeParams {
        SizeParams {
            db_size: db,
            group_count: 64,
            timestamp_bits: 48.0,
            header_bits: 64.0,
            control_bytes: 512,
            item_bytes: 8192,
        }
    }

    fn server(scheme: Scheme, db: u32) -> Server {
        Server::new(scheme, db, 200.0, params(db as u64))
    }

    #[test]
    fn window_report_covers_default_window() {
        let mut s = server(Scheme::SimpleChecking, 100);
        s.apply_txn(t(100.0), &[ItemId(1)]);
        s.apply_txn(t(900.0), &[ItemId(2)]);
        let (r, _) = s.build_report_shared(t(1000.0));
        match &*r {
            ReportPayload::Window(w) => {
                assert_eq!(w.window_start, t(800.0));
                assert_eq!(w.records, vec![(ItemId(2), t(900.0))]);
                assert_eq!(w.dummy, None);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(s.counters().window_reports, 1);
    }

    #[test]
    fn afw_broadcasts_window_without_pending_tlbs() {
        let mut s = server(Scheme::Afw, 100);
        assert!(matches!(
            *s.build_report_shared(t(1000.0)).0,
            ReportPayload::Window(_)
        ));
    }

    #[test]
    fn afw_switches_to_bs_for_eligible_tlb() {
        let mut s = server(Scheme::Afw, 100);
        s.apply_txn(t(500.0), &[ItemId(1)]);
        // Tlb = 300 < window start (800) and only 1 item updated since.
        s.receive_tlb(t(300.0));
        let (r, _) = s.build_report_shared(t(1000.0));
        assert!(r.is_bitseq(), "eligible Tlb must trigger BS, got {r:?}");
        // The pending Tlb is consumed: next period reverts to the window.
        assert!(matches!(
            *s.build_report_shared(t(1020.0)).0,
            ReportPayload::Window(_)
        ));
        assert_eq!(s.counters().bs_reports, 1);
        assert_eq!(s.counters().window_reports, 1);
    }

    #[test]
    fn afw_ignores_tlb_within_window() {
        let mut s = server(Scheme::Afw, 100);
        s.receive_tlb(t(900.0)); // inside [800, 1000]
        assert!(matches!(
            *s.build_report_shared(t(1000.0)).0,
            ReportPayload::Window(_)
        ));
    }

    #[test]
    fn afw_ignores_tlb_below_bs_reach() {
        // More than half the database updated after the Tlb: BS cannot
        // salvage that client, so don't waste a BS broadcast (Figure 3).
        let mut s = server(Scheme::Afw, 10);
        for i in 0..6u32 {
            s.apply_txn(t(500.0 + i as f64), &[ItemId(i)]);
        }
        s.receive_tlb(t(100.0));
        assert!(matches!(
            *s.build_report_shared(t(1000.0)).0,
            ReportPayload::Window(_)
        ));
    }

    #[test]
    fn aaw_prefers_small_enlarged_window() {
        let mut s = server(Scheme::Aaw, 10_000);
        s.apply_txn(t(500.0), &[ItemId(1), ItemId(2)]);
        s.receive_tlb(t(300.0));
        let (r, _) = s.build_report_shared(t(1000.0));
        match &*r {
            ReportPayload::Window(w) => {
                assert_eq!(w.dummy, Some(t(300.0)));
                // Enlarged history reaches back to the Tlb.
                assert_eq!(w.records.len(), 2);
                assert!(w.covers(t(300.0)));
            }
            other => panic!("expected enlarged window, got {other:?}"),
        }
        assert_eq!(s.counters().enlarged_reports, 1);
    }

    #[test]
    fn aaw_falls_back_to_bs_when_enlarged_window_is_bigger() {
        // Tiny database, lots of distinct updates since the Tlb: the
        // enlarged window would list them all and exceed 2N + bT·log N.
        let mut s = server(Scheme::Aaw, 16);
        for i in 0..8u32 {
            s.apply_txn(t(500.0 + i as f64), &[ItemId(i)]);
        }
        s.receive_tlb(t(100.0));
        let (r, _) = s.build_report_shared(t(1000.0));
        assert!(r.is_bitseq(), "expected BS, got {r:?}");
    }

    #[test]
    fn aaw_enlarged_report_salvages_the_requesting_client() {
        let mut s = server(Scheme::Aaw, 10_000);
        s.apply_txn(t(500.0), &[ItemId(7)]);
        s.receive_tlb(t(300.0));
        let (r, _) = s.build_report_shared(t(1000.0));
        let ReportPayload::Window(w) = &*r else {
            panic!("expected window")
        };
        // A client at Tlb=300 caching item 7 (version 0) and item 9.
        match w.decide(
            t(300.0),
            vec![(ItemId(7), SimTime::ZERO), (ItemId(9), SimTime::ZERO)],
        ) {
            mobicache_reports::WindowDecision::Invalidate(stale) => {
                assert_eq!(stale, vec![ItemId(7)]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn observed_report_surfaces_adaptive_decisions() {
        // Plain window period under AFW: no decision to report.
        let mut s = server(Scheme::Afw, 100);
        let (r, d) = s.build_report_shared(t(1000.0));
        assert!(matches!(*r, ReportPayload::Window(_)));
        assert_eq!(d, None);

        // Eligible Tlb under AFW: the BS trigger records the candidate
        // sizes it weighed, each the size the channel would charge.
        s.apply_txn(t(1100.0), &[ItemId(1)]);
        s.apply_txn(t(1900.0), &[ItemId(2)]);
        s.receive_tlb(t(1050.0));
        let (r, d) = s.build_report_shared(t(2000.0));
        assert!(r.is_bitseq());
        // The same history without the Tlb broadcasts the plain window.
        let mut plain = server(Scheme::Afw, 100);
        plain.apply_txn(t(1100.0), &[ItemId(1)]);
        plain.apply_txn(t(1900.0), &[ItemId(2)]);
        let (w, _) = plain.build_report_shared(t(2000.0));
        assert!(matches!(*w, ReportPayload::Window(_)));
        match d {
            Some(AdaptiveDecision::AfwBsTrigger {
                eligible,
                oldest_tlb_secs,
                bs_bits,
                window_bits,
            }) => {
                assert_eq!(eligible, 1);
                assert_eq!(oldest_tlb_secs, 1050.0);
                assert_eq!(bs_bits, r.size_bits(&s.params));
                assert!(window_bits > 0.0);
                assert_eq!(window_bits, w.size_bits(&s.params));
            }
            other => panic!("{other:?}"),
        }

        // AAW enlargement: the chosen window really was the smaller option.
        let mut s = server(Scheme::Aaw, 10_000);
        s.apply_txn(t(500.0), &[ItemId(1)]);
        s.receive_tlb(t(300.0));
        let (r, d) = s.build_report_shared(t(1000.0));
        match d {
            Some(AdaptiveDecision::AawEnlarge {
                tlb_secs,
                enlarged_bits,
                bs_bits,
            }) => {
                assert_eq!(tlb_secs, 300.0);
                assert!(enlarged_bits <= bs_bits);
                assert!(matches!(*r, ReportPayload::Window(_)));
                assert_eq!(enlarged_bits, r.size_bits(&s.params));
            }
            other => panic!("{other:?}"),
        }

        // AAW fallback: enlarged window priced out, BS chosen instead.
        let mut s = server(Scheme::Aaw, 16);
        for i in 0..8u32 {
            s.apply_txn(t(500.0 + f64::from(i)), &[ItemId(i)]);
        }
        s.receive_tlb(t(100.0));
        let (r, d) = s.build_report_shared(t(1000.0));
        assert!(r.is_bitseq());
        match d {
            Some(AdaptiveDecision::AawBsFallback {
                enlarged_bits,
                bs_bits,
                ..
            }) => {
                assert!(enlarged_bits > bs_bits);
                assert_eq!(bs_bits, r.size_bits(&s.params));
            }
            other => panic!("{other:?}"),
        }

        // Non-adaptive schemes never report a decision.
        let mut s = server(Scheme::Bs, 64);
        s.receive_tlb(t(5.0));
        let (_, d) = s.build_report_shared(t(20.0));
        assert_eq!(d, None);
    }

    #[test]
    fn bs_scheme_always_broadcasts_bs() {
        let mut s = server(Scheme::Bs, 64);
        s.apply_txn(t(10.0), &[ItemId(3)]);
        let (r, _) = s.build_report_shared(t(20.0));
        let ReportPayload::BitSeq(bs) = &*r else {
            panic!("expected BS")
        };
        assert_eq!(bs.decide(t(10.0), vec![ItemId(3)]), BsDecision::Clean);
        match bs.decide(t(5.0), vec![ItemId(3)]) {
            BsDecision::Invalidate(stale) => assert_eq!(stale, vec![ItemId(3)]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn at_report_lists_only_last_interval() {
        let mut s = server(Scheme::At, 100);
        s.apply_txn(t(5.0), &[ItemId(1)]);
        s.build_report_shared(t(20.0));
        s.apply_txn(t(25.0), &[ItemId(2)]);
        let (r, _) = s.build_report_shared(t(40.0));
        let ReportPayload::At(at) = &*r else {
            panic!("expected AT")
        };
        assert_eq!(at.items, vec![ItemId(2)]);
        assert_eq!(at.prev_broadcast, t(20.0));
    }

    #[test]
    fn validity_check_verdicts() {
        let mut s = server(Scheme::SimpleChecking, 100);
        s.apply_txn(t(50.0), &[ItemId(1)]);
        let verdict = s.process_check(
            t(60.0),
            &[
                (ItemId(1), SimTime::ZERO), // stale
                (ItemId(1), t(50.0)),       // current
                (ItemId(2), SimTime::ZERO), // never updated
                (ItemId(0), SimTime::ZERO), // listed first: ascending
            ],
        );
        assert_eq!(verdict.asof, t(60.0));
        assert_eq!(verdict.checked, 4);
        assert_eq!(verdict.valid, vec![ItemId(0), ItemId(1), ItemId(2)]);
        assert_eq!(s.counters().checks_processed, 1);
    }

    #[test]
    fn group_check_lists_stale_items_per_group() {
        let mut s = server(Scheme::Gcore, 100);
        s.configure_gcore(10, 10_000.0);
        // Items 3 and 13 share group 3; item 4 is group 4.
        s.apply_txn(t(500.0), &[ItemId(3), ItemId(13), ItemId(4)]);
        let verdict = s.process_group_check(t(1000.0), &[(3, t(100.0))]);
        assert!(verdict.covered);
        assert_eq!(verdict.stale, vec![ItemId(3), ItemId(13)]);
        assert_eq!(verdict.asof, t(1000.0));
        // A fresher Tlb sees no stale items.
        let verdict = s.process_group_check(t(1000.0), &[(3, t(600.0))]);
        assert!(verdict.stale.is_empty());
    }

    #[test]
    fn group_check_refuses_beyond_retention() {
        let mut s = server(Scheme::Gcore, 100);
        s.configure_gcore(10, 300.0);
        let verdict = s.process_group_check(t(1000.0), &[(0, t(500.0)), (1, t(650.0))]);
        assert!(!verdict.covered, "Tlb 500 < horizon 700 must refuse");
        let verdict = s.process_group_check(t(1000.0), &[(1, t(800.0))]);
        assert!(verdict.covered);
    }

    #[test]
    fn group_check_dedupes_across_groups() {
        let mut s = server(Scheme::Gcore, 100);
        s.configure_gcore(10, 10_000.0);
        s.apply_txn(t(500.0), &[ItemId(7)]);
        s.apply_txn(t(600.0), &[ItemId(7)]);
        let verdict = s.process_group_check(t(1000.0), &[(7, t(100.0))]);
        assert_eq!(
            verdict.stale,
            vec![ItemId(7)],
            "one entry despite two updates"
        );
    }

    #[test]
    fn gcore_scheme_broadcasts_plain_windows() {
        let mut s = server(Scheme::Gcore, 100);
        assert!(matches!(
            *s.build_report_shared(t(1000.0)).0,
            ReportPayload::Window(_)
        ));
    }

    #[test]
    fn sig_state_matches_batch_recomputation() {
        let mut s = server(Scheme::Sig, 50);
        s.apply_txn(t(5.0), &[ItemId(1), ItemId(30)]);
        s.apply_txn(t(9.0), &[ItemId(1)]);
        let (r, _) = s.build_report_shared(t(20.0));
        let ReportPayload::Sig(sig, signer) = &*r else {
            panic!("expected SIG")
        };
        let mut versions = vec![SimTime::ZERO; 50];
        versions[1] = t(9.0);
        versions[30] = t(5.0);
        assert_eq!(sig.combined, signer.combine(&versions));
    }

    /// Across a quiet period (no update between two broadcasts, the
    /// record still inside the window) the window report lists the same
    /// records; only its timestamps move. (The name is the retired
    /// report cache's; every report is now built from the log.)
    #[test]
    fn quiet_period_reuses_cached_window() {
        let mut s = server(Scheme::SimpleChecking, 100);
        s.apply_txn(t(900.0), &[ItemId(2)]);
        let (first, _) = s.build_report_shared(t(1000.0));
        let (second, _) = s.build_report_shared(t(1020.0));
        let (ReportPayload::Window(a), ReportPayload::Window(b)) = (&*first, &*second) else {
            panic!("expected windows");
        };
        assert_eq!(a.records, vec![(ItemId(2), t(900.0))]);
        assert_eq!(a.records, b.records, "content must be byte-identical");
        assert_eq!(b.broadcast_at, t(1020.0));
        assert_eq!(b.window_start, t(820.0));
        assert_eq!(s.counters().window_reports, 2);
    }

    /// An update between two broadcasts shows up in the second report.
    #[test]
    fn update_between_periods_invalidates_cached_window() {
        let mut s = server(Scheme::SimpleChecking, 100);
        s.apply_txn(t(900.0), &[ItemId(2)]);
        s.build_report_shared(t(1000.0));
        s.apply_txn(t(1010.0), &[ItemId(5)]);
        let (r, _) = s.build_report_shared(t(1020.0));
        let ReportPayload::Window(w) = &*r else {
            panic!("expected window")
        };
        let mut records = w.records.clone();
        records.sort_unstable();
        assert_eq!(
            records,
            vec![(ItemId(2), t(900.0)), (ItemId(5), t(1010.0))],
            "fresh update must appear"
        );
    }

    /// A record older than the window drops out of the next report,
    /// with no update in between.
    #[test]
    fn record_falling_out_of_window_rebuilds() {
        let mut s = server(Scheme::SimpleChecking, 100);
        s.apply_txn(t(900.0), &[ItemId(2)]);
        s.build_report_shared(t(1000.0)); // window [800, 1000] holds the record
        let (r, _) = s.build_report_shared(t(1150.0)); // window [950, 1150] does not
        let ReportPayload::Window(w) = &*r else {
            panic!("expected window")
        };
        assert!(w.records.is_empty(), "expired record must drop out");
        let (r, _) = s.build_report_shared(t(1170.0));
        let ReportPayload::Window(w) = &*r else {
            panic!("expected window")
        };
        assert!(w.records.is_empty());
        assert_eq!(w.broadcast_at, t(1170.0));
    }

    /// Across a quiet period a BS report marks the same items; only its
    /// broadcast time moves. (The name is the retired report cache's.)
    #[test]
    fn quiet_period_reuses_cached_bs() {
        let mut s = server(Scheme::Bs, 64);
        s.apply_txn(t(10.0), &[ItemId(3)]);
        let (first, _) = s.build_report_shared(t(20.0));
        let (second, _) = s.build_report_shared(t(40.0));
        let (ReportPayload::BitSeq(a), ReportPayload::BitSeq(b)) = (&*first, &*second) else {
            panic!("expected BS");
        };
        assert!(a.marked(usize::MAX).eq(b.marked(usize::MAX)));
        assert_eq!(b.broadcast_at, t(40.0));
        // The later report still invalidates the stale client.
        match b.decide(t(5.0), vec![ItemId(3)]) {
            BsDecision::Invalidate(stale) => assert_eq!(stale, vec![ItemId(3)]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bs_reports_share_the_log_index_without_copying() {
        // The bigdb shape: 40 000 items, a 5-item txn every 5 s, a BS
        // report every 20 s, each report dropped before the next tick.
        let db = 40_000;
        let mut s = server(Scheme::Bs, db);
        let mut rng = mobicache_sim::SimRng::new(7);
        for tick in 1..=500u32 {
            for k in 0..4u32 {
                let at = t(f64::from(tick * 20 - 15 + k * 5));
                let items: Vec<ItemId> = (0..5)
                    .map(|_| ItemId(rng.next_below(u64::from(db)) as u32))
                    .collect();
                s.apply_txn(at, &items);
            }
            let (report, _) = s.build_report_shared(t(f64::from(tick * 20)));
            assert!(report.is_bitseq());
        }
        assert_eq!(
            s.recency_copies(),
            0,
            "a dropped report must not force a copy"
        );

        // A report held across an update and the next build: exactly
        // one copy, and the held report keeps its content.
        let (held, _) = s.build_report_shared(t(10_020.0));
        s.apply_txn(t(10_025.0), &[ItemId(3)]);
        let (next, _) = s.build_report_shared(t(10_040.0));
        assert_eq!(s.recency_copies(), 1);
        let (ReportPayload::BitSeq(a), ReportPayload::BitSeq(b)) = (&*held, &*next) else {
            panic!("expected BS");
        };
        assert_eq!(
            a.marked(1).next(),
            b.marked(2).nth(1),
            "item 3 is new to `next` only"
        );
        assert_eq!(b.marked(1).next(), Some(ItemId(3)));
        // Released again: updates fold in place.
        drop((held, next));
        s.apply_txn(t(10_045.0), &[ItemId(4)]);
        s.build_report_shared(t(10_060.0));
        assert_eq!(s.recency_copies(), 1);
    }

    /// AFW switches report kind with the pending `Tlb`s, window to BS
    /// and back, over quiet periods, and each report lists the history
    /// its kind covers.
    #[test]
    fn adaptive_kind_change_invalidates_cache() {
        let mut s = server(Scheme::Afw, 100);
        s.apply_txn(t(500.0), &[ItemId(1)]);
        let (r, _) = s.build_report_shared(t(1000.0)); // plain window [800, 1000]
        let ReportPayload::Window(w) = &*r else {
            panic!("expected window")
        };
        assert!(w.records.is_empty());
        s.receive_tlb(t(300.0)); // eligible: next period switches to BS
        let (r, _) = s.build_report_shared(t(1020.0));
        let ReportPayload::BitSeq(bs) = &*r else {
            panic!("expected BS")
        };
        assert_eq!(bs.marked(1).collect::<Vec<_>>(), vec![ItemId(1)]);
        let (r, _) = s.build_report_shared(t(1040.0));
        let ReportPayload::Window(w) = &*r else {
            panic!("expected window")
        };
        assert!(w.records.is_empty());
        assert_eq!(w.window_start, t(840.0));
    }

    /// An AAW enlarged window reaches back to the `Tlb` and carries the
    /// dummy record; the quiet plain-window period after it lists the
    /// same records without the dummy.
    #[test]
    fn aaw_enlargement_needs_deeper_history_than_cache() {
        let mut s = server(Scheme::Aaw, 10_000);
        s.apply_txn(t(900.0), &[ItemId(1), ItemId(2)]);
        s.build_report_shared(t(1000.0)); // plain window [800, 1000]
        s.receive_tlb(t(300.0));
        let (r, _) = s.build_report_shared(t(1020.0));
        let ReportPayload::Window(w) = &*r else {
            panic!("expected enlarged window")
        };
        assert_eq!(w.dummy, Some(t(300.0)));
        assert_eq!(w.window_start, t(820.0));
        assert_eq!(w.records.len(), 2, "history back to the Tlb");
        // The following quiet plain-window period: records at t=900 stay
        // inside the new window [840, 1040], with the AAW dummy stripped.
        let (r, _) = s.build_report_shared(t(1040.0));
        let ReportPayload::Window(w) = &*r else {
            panic!("expected plain window")
        };
        assert_eq!(w.dummy, None, "plain period must not inherit the AAW dummy");
        assert_eq!(w.records.len(), 2);
    }

    /// Across a quiet period a SIG report shares the previous one's
    /// combined signatures, and an update moves them. (The name is the
    /// retired report cache's.)
    #[test]
    fn quiet_period_reuses_cached_sig() {
        let mut s = server(Scheme::Sig, 50);
        s.apply_txn(t(5.0), &[ItemId(1)]);
        let (first, _) = s.build_report_shared(t(20.0));
        let (second, _) = s.build_report_shared(t(40.0));
        let (ReportPayload::Sig(a, _), ReportPayload::Sig(b, _)) = (&*first, &*second) else {
            panic!("expected SIG");
        };
        assert!(Arc::ptr_eq(&a.combined, &b.combined), "one shared buffer");
        assert_eq!(b.broadcast_at, t(40.0));
        // An update: the combined signatures must move.
        s.apply_txn(t(45.0), &[ItemId(1)]);
        let (third, _) = s.build_report_shared(t(60.0));
        let ReportPayload::Sig(c, _) = &*third else {
            panic!("expected SIG")
        };
        assert_ne!(b.combined, c.combined);
    }

    #[test]
    fn tlb_buffer_cleared_every_period() {
        let mut s = server(Scheme::Afw, 100);
        s.apply_txn(t(500.0), &[ItemId(1)]);
        s.receive_tlb(t(300.0));
        assert!(s.build_report_shared(t(1000.0)).0.is_bitseq());
        // Same Tlb not re-broadcast: buffer is per-period.
        assert!(!s.build_report_shared(t(1020.0)).0.is_bitseq());
        assert_eq!(s.counters().tlbs_received, 1);
    }

    #[test]
    fn duplicate_tlb_in_one_interval_is_idempotent() {
        // A retrying client re-sends the same Tlb; both copies land in
        // one period. The server must register it once: same adaptive
        // choice, same report, one pending entry.
        for scheme in [Scheme::Afw, Scheme::Aaw] {
            let mut s = server(scheme, 100);
            s.apply_txn(t(500.0), &[ItemId(1)]);
            s.receive_tlb(t(300.0));
            s.receive_tlb(t(300.0));
            assert_eq!(s.counters().tlbs_received, 2, "{scheme:?}");
            assert_eq!(s.counters().duplicate_tlbs, 1, "{scheme:?}");
            assert_eq!(s.pending_tlbs, vec![t(300.0)], "{scheme:?}");
            let (r, d) = s.build_report_shared(t(1000.0));
            match scheme {
                Scheme::Afw => {
                    assert!(r.is_bitseq(), "{scheme:?}: one BS trigger, not two");
                    let Some(AdaptiveDecision::AfwBsTrigger { eligible, .. }) = d else {
                        panic!("{scheme:?}: expected BS trigger, got {d:?}");
                    };
                    assert_eq!(eligible, 1, "duplicate must not inflate eligibility");
                }
                _ => {
                    let ReportPayload::Window(w) = &*r else {
                        panic!("{scheme:?}: expected enlarged window, got {r:?}");
                    };
                    assert_eq!(w.dummy, Some(t(300.0)));
                }
            }
            // Consumed as usual: next period reverts to the plain window.
            assert!(matches!(
                *s.build_report_shared(t(1020.0)).0,
                ReportPayload::Window(_)
            ));
        }
    }

    #[test]
    fn distinct_tlbs_are_not_deduplicated() {
        let mut s = server(Scheme::Afw, 100);
        s.receive_tlb(t(300.0));
        s.receive_tlb(t(310.0));
        assert_eq!(s.counters().duplicate_tlbs, 0);
        assert_eq!(s.pending_tlbs.len(), 2);
    }

    #[test]
    fn crash_wipes_volatile_state_only() {
        let mut s = server(Scheme::Afw, 100);
        s.apply_txn(t(500.0), &[ItemId(1)]);
        s.receive_tlb(t(300.0));
        s.build_report_shared(t(1000.0)); // BS
        s.receive_tlb(t(310.0));
        assert_eq!(s.crash(), 1, "one pending Tlb lost");
        // Volatile: the pending Tlbs are gone — the next broadcast is a
        // plain window.
        let (r, _) = s.build_report_shared(t(1020.0));
        assert!(matches!(&*r, ReportPayload::Window(_)));
        // Durable: the update log survives the crash.
        assert_eq!(s.version(ItemId(1)), t(500.0));
        assert_eq!(s.log().total_updates(), 1);
    }

    #[test]
    fn counters_absorb_is_field_wise_and_identity_on_default() {
        let mut s = server(Scheme::Afw, 100);
        s.apply_txn(t(500.0), &[ItemId(1), ItemId(2)]);
        s.receive_tlb(t(300.0));
        s.build_report_shared(t(1000.0));
        let base = s.counters();
        let mut sum = base;
        sum.absorb(&ServerCounters::default());
        assert_eq!(sum, base, "absorbing a default is the identity");
        sum.absorb(&base);
        assert_eq!(sum.txns_applied, 2 * base.txns_applied);
        assert_eq!(sum.updates_applied, 2 * base.updates_applied);
        assert_eq!(sum.tlbs_received, 2 * base.tlbs_received);
        assert_eq!(sum.bs_reports, 2 * base.bs_reports);
    }

    #[test]
    fn sig_recovery_rebuilds_combined_from_the_log() {
        let mut s = server(Scheme::Sig, 50);
        s.apply_txn(t(5.0), &[ItemId(1), ItemId(30)]);
        s.apply_txn(t(9.0), &[ItemId(1)]);
        s.crash();
        s.recover();
        let (r, _) = s.build_report_shared(t(20.0));
        let ReportPayload::Sig(sig, signer) = &*r else {
            panic!("expected SIG")
        };
        // The rebuilt index matches a batch recomputation over the
        // durable versions — the incremental state was fully recovered.
        let mut versions = vec![SimTime::ZERO; 50];
        versions[1] = t(9.0);
        versions[30] = t(5.0);
        assert_eq!(sig.combined, signer.combine(&versions));
    }
}
