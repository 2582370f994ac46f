//! The client's vocabulary: its static configuration, the actions it
//! asks of the outside world, and its behaviour counters. The scheme
//! logic itself lives in [`crate::pop`], written once against the
//! [`ClientMut`] accessor view.
//!
//! [`ClientMut`]: crate::pop::ClientMut

use crate::query::QueryOutcome;
use mobicache_model::{CheckingMode, RetryPolicy, Scheme, UplinkKind};

/// Static client configuration.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Invalidation scheme.
    pub scheme: Scheme,
    /// Simple-checking uplink contents.
    pub checking_mode: CheckingMode,
    /// Cache capacity in items.
    pub cache_capacity: usize,
    /// Broadcast period `L` (drives the adaptive give-up grace window).
    pub broadcast_period_secs: f64,
    /// Number of item groups for grouped checking (round-robin
    /// partition; only used under [`Scheme::Gcore`]).
    pub gcore_groups: u32,
    /// Uplink retry/backoff policy under fault injection. `None` keeps
    /// the legacy paper behaviour: a fixed two-period lost-reply grace
    /// and no re-sends of lost requests.
    pub retry: Option<RetryPolicy>,
}

/// Something the client wants the outside world to do.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientAction {
    /// Send this message on the uplink channel.
    Uplink(UplinkKind),
    /// A query finished; account it.
    QueryDone(QueryOutcome),
}

/// Client behaviour counters. A population keeps one set, the sum over
/// its clients (see [`ClientPop::counters`]).
///
/// [`ClientPop::counters`]: crate::ClientPop::counters
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientCounters {
    /// Queries issued.
    pub queries_issued: u64,
    /// Queries fully answered.
    pub queries_answered: u64,
    /// Referenced items answered from cache.
    pub item_hits: u64,
    /// Referenced items downloaded.
    pub item_misses: u64,
    /// `Tlb` messages sent (adaptive schemes).
    pub tlbs_sent: u64,
    /// Validity-check requests sent (simple checking).
    pub checks_sent: u64,
    /// Entire-cache drops.
    pub full_drops: u64,
    /// Limbo entries salvaged back to valid.
    pub salvaged: u64,
    /// Limbo entries dropped (given up or verdicted invalid).
    pub limbo_dropped: u64,
    /// Reconnection gaps entered (cache went limbo).
    pub limbo_episodes: u64,
    /// Requests re-sent by the fault-injection retry timer.
    pub retries_sent: u64,
    /// Times the retry budget ran out and the client degraded to a
    /// whole-cache drop.
    pub backoff_exhaustions: u64,
    /// Cache entries evicted by capacity pressure.
    pub evictions: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pop::{ClientMut, ClientPop};
    use mobicache_cache::LruCache;
    use mobicache_model::ItemId;
    use mobicache_reports::{ReportPayload, WindowReport};
    use mobicache_sim::SimTime;

    /// One client: a population of one, driven through
    /// `ClientPop::client_mut(0)`, whose handlers return their actions.
    struct Solo(ClientPop);

    impl Solo {
        fn new(cfg: ClientConfig) -> Self {
            Solo(ClientPop::new(cfg, 1))
        }

        fn cache(&self) -> &LruCache {
            self.0.cache(0)
        }

        fn counters(&self) -> ClientCounters {
            self.0.counters()
        }

        fn has_pending_query(&self) -> bool {
            self.0.has_pending_query(0)
        }

        fn disconnect(&mut self, now: SimTime) {
            self.0.disconnect(0, now);
        }

        fn reconnect(&mut self, now: SimTime) -> f64 {
            self.0.reconnect(0, now)
        }

        fn start_query(&mut self, now: SimTime, items: Vec<ItemId>) {
            self.0.start_query(0, now, &items);
        }

        fn act(
            &mut self,
            f: impl FnOnce(ClientMut<'_>, &mut Vec<ClientAction>),
        ) -> Vec<ClientAction> {
            let mut actions = Vec::new();
            f(self.0.client_mut(0), &mut actions);
            actions
        }

        fn on_report(&mut self, now: SimTime, payload: &ReportPayload) -> Vec<ClientAction> {
            self.act(|mut c, a| c.on_report_into(now, payload, a))
        }

        fn on_data(&mut self, now: SimTime, item: ItemId, version: SimTime) -> Vec<ClientAction> {
            self.act(|mut c, a| c.on_data_into(now, item, version, a))
        }

        fn on_snooped_data(&mut self, now: SimTime, item: ItemId, version: SimTime) {
            self.0.client_mut(0).on_snooped_data(now, item, version);
        }

        fn on_validity(
            &mut self,
            now: SimTime,
            asof: SimTime,
            valid: &[ItemId],
        ) -> Vec<ClientAction> {
            self.act(|mut c, a| c.on_validity_into(now, asof, valid, a))
        }

        fn on_group_validity(
            &mut self,
            now: SimTime,
            asof: SimTime,
            covered: bool,
            stale: &[ItemId],
        ) -> Vec<ClientAction> {
            self.act(|mut c, a| c.on_group_validity_into(now, asof, covered, stale, a))
        }
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn cfg(scheme: Scheme) -> ClientConfig {
        ClientConfig {
            scheme,
            checking_mode: CheckingMode::FullCache,
            cache_capacity: 8,
            broadcast_period_secs: 20.0,
            gcore_groups: 4,
            retry: None,
        }
    }

    fn window(at: f64, wstart: f64, records: Vec<(u32, f64)>) -> ReportPayload {
        ReportPayload::Window(WindowReport {
            broadcast_at: t(at),
            window_start: t(wstart),
            records: records
                .into_iter()
                .map(|(i, ts)| (ItemId(i), t(ts)))
                .collect(),
            dummy: None,
        })
    }

    /// Warm a client: fetch `item` so it is cached valid.
    fn warm(c: &mut Solo, at: f64, item: u32) {
        c.start_query(t(at), vec![ItemId(item)]);
        let acts = c.on_report(t(at) + 1.0, &window(at + 1.0, at - 199.0, vec![]));
        assert!(matches!(
            &acts[0],
            ClientAction::Uplink(UplinkKind::QueryRequest { .. })
        ));
        let acts = c.on_data(t(at) + 2.0, ItemId(item), SimTime::ZERO);
        assert!(matches!(&acts[0], ClientAction::QueryDone(_)));
    }

    #[test]
    fn cold_query_goes_uplink_then_completes_on_data() {
        let mut c = Solo::new(cfg(Scheme::SimpleChecking));
        c.start_query(t(5.0), vec![ItemId(3)]);
        assert!(c.has_pending_query());
        let acts = c.on_report(t(20.0), &window(20.0, -180.0, vec![]));
        assert_eq!(
            acts,
            vec![ClientAction::Uplink(UplinkKind::QueryRequest {
                item: ItemId(3)
            })]
        );
        let acts = c.on_data(t(27.0), ItemId(3), SimTime::ZERO);
        match &acts[0] {
            ClientAction::QueryDone(o) => {
                assert_eq!((o.hits, o.misses), (0, 1));
                assert_eq!(o.issued_at, t(5.0));
                assert_eq!(o.completed_at, t(27.0));
            }
            other => panic!("{other:?}"),
        }
        assert!(!c.has_pending_query());
        assert_eq!(c.counters().item_misses, 1);
    }

    #[test]
    fn warm_query_hits_cache_at_next_report() {
        let mut c = Solo::new(cfg(Scheme::SimpleChecking));
        warm(&mut c, 20.0, 3);
        c.start_query(t(30.0), vec![ItemId(3)]);
        let acts = c.on_report(t(40.0), &window(40.0, -160.0, vec![]));
        match &acts[0] {
            ClientAction::QueryDone(o) => assert_eq!((o.hits, o.misses), (1, 0)),
            other => panic!("{other:?}"),
        }
        assert_eq!(c.counters().item_hits, 1);
    }

    #[test]
    fn report_invalidates_updated_item() {
        let mut c = Solo::new(cfg(Scheme::SimpleChecking));
        warm(&mut c, 20.0, 3); // version ZERO
                               // Item 3 updated at t=30; next report lists it.
        c.start_query(t(35.0), vec![ItemId(3)]);
        let acts = c.on_report(t(40.0), &window(40.0, -160.0, vec![(3, 30.0)]));
        assert_eq!(
            acts,
            vec![ClientAction::Uplink(UplinkKind::QueryRequest {
                item: ItemId(3)
            })],
            "stale copy must be refetched"
        );
    }

    #[test]
    fn ts_no_check_drops_cache_after_long_disconnection() {
        let mut c = Solo::new(cfg(Scheme::TsNoCheck));
        warm(&mut c, 20.0, 3);
        c.disconnect(t(30.0));
        c.reconnect(t(800.0));
        // Report at 800 with window starting at 600 — tlb = 22 is older.
        let acts = c.on_report(t(800.0), &window(800.0, 600.0, vec![]));
        assert!(acts.is_empty());
        assert!(c.cache().is_empty(), "no-checking client drops everything");
        assert_eq!(c.counters().full_drops, 1);
    }

    #[test]
    fn simple_checking_sends_full_cache_check_and_salvages() {
        let mut c = Solo::new(cfg(Scheme::SimpleChecking));
        warm(&mut c, 20.0, 3);
        warm(&mut c, 40.0, 4);
        c.disconnect(t(50.0));
        c.reconnect(t(800.0));
        let acts = c.on_report(t(800.0), &window(800.0, 600.0, vec![]));
        match &acts[0] {
            ClientAction::Uplink(UplinkKind::CheckRequest { entries }) => {
                assert_eq!(entries.len(), 2);
            }
            other => panic!("{other:?}"),
        }
        assert!(c.cache().has_limbo());
        // Server says item 3 valid, item 4 stale.
        let acts = c.on_validity(t(802.0), t(801.0), &[ItemId(3)]);
        assert!(acts.is_empty());
        assert!(!c.cache().has_limbo());
        assert!(c.cache().peek(ItemId(3)).is_some());
        assert!(c.cache().peek(ItemId(4)).is_none());
        assert_eq!(c.counters().salvaged, 1);
        assert_eq!(c.counters().limbo_dropped, 1);
        assert_eq!(c.counters().checks_sent, 1);
    }

    #[test]
    fn limbo_entry_does_not_answer_query_before_verdict() {
        let mut c = Solo::new(cfg(Scheme::SimpleChecking));
        warm(&mut c, 20.0, 3);
        c.disconnect(t(30.0));
        c.reconnect(t(800.0));
        c.start_query(t(800.0), vec![ItemId(3)]);
        let acts = c.on_report(t(800.0), &window(800.0, 600.0, vec![]));
        // Check goes up; the query waits for the verdict, not for data.
        assert_eq!(acts.len(), 1);
        assert!(matches!(
            &acts[0],
            ClientAction::Uplink(UplinkKind::CheckRequest { .. })
        ));
        assert!(c.has_pending_query());
        // Verdict: valid — the query completes as a hit.
        let acts = c.on_validity(t(802.0), t(801.0), &[ItemId(3)]);
        match &acts[0] {
            ClientAction::QueryDone(o) => assert_eq!((o.hits, o.misses), (1, 0)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn queried_items_mode_checks_lazily() {
        let mut c = Solo::new(ClientConfig {
            checking_mode: CheckingMode::QueriedItems,
            ..cfg(Scheme::SimpleChecking)
        });
        warm(&mut c, 20.0, 3);
        warm(&mut c, 40.0, 4);
        c.disconnect(t(50.0));
        c.reconnect(t(800.0));
        // No proactive check on the uncovering report.
        let acts = c.on_report(t(800.0), &window(800.0, 600.0, vec![]));
        assert!(
            acts.is_empty(),
            "lazy mode sends nothing proactively: {acts:?}"
        );
        assert!(c.cache().has_limbo());
        // Query on item 3: targeted check for just that entry.
        c.start_query(t(810.0), vec![ItemId(3)]);
        let acts = c.on_report(t(820.0), &window(820.0, 620.0, vec![]));
        match &acts[0] {
            ClientAction::Uplink(UplinkKind::CheckRequest { entries }) => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].0, ItemId(3));
            }
            other => panic!("{other:?}"),
        }
        // Invalid verdict: refetch.
        let acts = c.on_validity(t(822.0), t(821.0), &[]);
        assert!(matches!(
            &acts[0],
            ClientAction::Uplink(UplinkKind::QueryRequest { item }) if *item == ItemId(3)
        ));
        // Item 4 remains limbo (never queried).
        assert!(c.cache().has_limbo());
    }

    #[test]
    fn adaptive_client_sends_tlb_once_and_salvages_from_bs() {
        let mut c = Solo::new(cfg(Scheme::Afw));
        warm(&mut c, 20.0, 3);
        c.disconnect(t(30.0));
        c.reconnect(t(800.0));
        let acts = c.on_report(t(800.0), &window(800.0, 600.0, vec![]));
        match &acts[0] {
            ClientAction::Uplink(UplinkKind::TlbReport { tlb_secs }) => {
                assert_eq!(*tlb_secs, 21.0, "Tlb = last report before the gap");
            }
            other => panic!("{other:?}"),
        }
        assert!(c.cache().has_limbo());
        assert_eq!(c.counters().tlbs_sent, 1);
        // Next period: the server answers with BS; item 3 not updated.
        let bs = mobicache_reports::BitSequences::from_recency(
            t(820.0),
            64,
            vec![(ItemId(9), t(700.0))],
        );
        let acts = c.on_report(t(820.0), &ReportPayload::BitSeq(bs));
        assert!(acts.is_empty());
        assert!(!c.cache().has_limbo(), "BS salvaged the cache");
        assert!(c.cache().peek(ItemId(3)).is_some());
        assert_eq!(c.counters().salvaged, 1);
    }

    #[test]
    fn adaptive_client_gives_up_after_grace() {
        let mut c = Solo::new(cfg(Scheme::Afw));
        warm(&mut c, 20.0, 3);
        c.disconnect(t(30.0));
        c.reconnect(t(800.0));
        c.on_report(t(800.0), &window(800.0, 600.0, vec![]));
        // Two more uncovering windows; the second is past the grace.
        let acts = c.on_report(t(820.0), &window(820.0, 620.0, vec![]));
        assert!(acts.is_empty(), "still within grace");
        assert!(c.cache().has_limbo());
        let acts = c.on_report(t(840.0), &window(840.0, 640.0, vec![]));
        assert!(acts.is_empty());
        assert!(!c.cache().has_limbo(), "gave up after grace");
        assert!(c.cache().is_empty());
        assert_eq!(c.counters().limbo_dropped, 1);
        assert_eq!(c.counters().tlbs_sent, 1, "Tlb sent only once");
    }

    #[test]
    fn aaw_enlarged_window_salvages_without_bs() {
        let mut c = Solo::new(cfg(Scheme::Aaw));
        warm(&mut c, 20.0, 3);
        warm(&mut c, 40.0, 5);
        c.disconnect(t(50.0));
        c.reconnect(t(800.0));
        c.on_report(t(800.0), &window(800.0, 600.0, vec![]));
        assert!(c.cache().has_limbo());
        // Enlarged window with dummy ≤ our gap start, listing item 5 as
        // updated at t=300.
        let enlarged = ReportPayload::Window(WindowReport {
            broadcast_at: t(820.0),
            window_start: t(620.0),
            records: vec![(ItemId(5), t(300.0))],
            dummy: Some(t(10.0)),
        });
        let acts = c.on_report(t(820.0), &enlarged);
        assert!(acts.is_empty());
        assert!(!c.cache().has_limbo());
        assert!(
            c.cache().peek(ItemId(3)).is_some(),
            "unlisted entry salvaged"
        );
        assert!(
            c.cache().peek(ItemId(5)).is_none(),
            "listed stale entry dropped"
        );
    }

    #[test]
    fn bs_client_never_goes_limbo() {
        let mut c = Solo::new(cfg(Scheme::Bs));
        // Warm via BS reports.
        c.start_query(t(5.0), vec![ItemId(3)]);
        let empty_bs = |at: f64| {
            ReportPayload::BitSeq(mobicache_reports::BitSequences::from_recency(
                t(at),
                64,
                vec![],
            ))
        };
        let acts = c.on_report(t(20.0), &empty_bs(20.0));
        assert!(matches!(
            &acts[0],
            ClientAction::Uplink(UplinkKind::QueryRequest { .. })
        ));
        c.on_data(t(22.0), ItemId(3), SimTime::ZERO);
        c.disconnect(t(30.0));
        c.reconnect(t(2000.0));
        let acts = c.on_report(t(2000.0), &empty_bs(2000.0));
        assert!(acts.is_empty());
        assert!(!c.cache().has_limbo());
        assert!(
            c.cache().peek(ItemId(3)).is_some(),
            "salvaged across a 2000 s gap"
        );
    }

    #[test]
    fn bs_drop_all_clears_cache() {
        let mut c = Solo::new(cfg(Scheme::Bs));
        c.start_query(t(5.0), vec![ItemId(3)]);
        let bs0 = ReportPayload::BitSeq(mobicache_reports::BitSequences::from_recency(
            t(20.0),
            4,
            vec![],
        ));
        c.on_report(t(20.0), &bs0);
        c.on_data(t(22.0), ItemId(3), SimTime::ZERO);
        c.disconnect(t(30.0));
        c.reconnect(t(900.0));
        // More than half of the 4-item DB updated after tlb=20.
        let bs = ReportPayload::BitSeq(mobicache_reports::BitSequences::from_recency(
            t(900.0),
            4,
            vec![
                (ItemId(0), t(500.0)),
                (ItemId(1), t(400.0)),
                (ItemId(2), t(300.0)),
            ],
        ));
        c.on_report(t(900.0), &bs);
        assert!(c.cache().is_empty());
        assert_eq!(c.counters().full_drops, 1);
    }

    #[test]
    fn multi_item_query_mixes_hits_and_misses() {
        let mut c = Solo::new(cfg(Scheme::SimpleChecking));
        warm(&mut c, 20.0, 3);
        c.start_query(t(30.0), vec![ItemId(3), ItemId(7)]);
        let acts = c.on_report(t(40.0), &window(40.0, -160.0, vec![]));
        assert_eq!(
            acts,
            vec![ClientAction::Uplink(UplinkKind::QueryRequest {
                item: ItemId(7)
            })]
        );
        let acts = c.on_data(t(47.0), ItemId(7), SimTime::ZERO);
        match &acts[0] {
            ClientAction::QueryDone(o) => assert_eq!((o.hits, o.misses), (1, 1)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn gcore_client_checks_groups_not_items() {
        let mut c = Solo::new(cfg(Scheme::Gcore));
        // Items 1 and 5 share group 1 (mod 4); item 2 is group 2.
        warm(&mut c, 20.0, 1);
        warm(&mut c, 40.0, 5);
        warm(&mut c, 60.0, 2);
        c.disconnect(t(70.0));
        c.reconnect(t(790.0));
        let acts = c.on_report(t(800.0), &window(800.0, 600.0, vec![]));
        match &acts[0] {
            ClientAction::Uplink(UplinkKind::GroupCheckRequest { groups }) => {
                assert_eq!(groups.len(), 2, "two groups despite three items");
                assert_eq!(groups[0].0, 1);
                assert_eq!(groups[1].0, 2);
                assert_eq!(groups[0].1, 61.0, "Tlb = last report before the gap");
            }
            other => panic!("{other:?}"),
        }
        assert!(c.cache().has_limbo());
        // Verdict: item 5 was updated; everything else survives.
        let acts = c.on_group_validity(t(802.0), t(801.0), true, &[ItemId(5)]);
        assert!(acts.is_empty());
        assert!(c.cache().peek(ItemId(5)).is_none());
        assert!(c.cache().peek(ItemId(1)).is_some());
        assert!(c.cache().peek(ItemId(2)).is_some());
        assert!(!c.cache().has_limbo());
    }

    #[test]
    fn gcore_uncovered_verdict_drops_cache() {
        let mut c = Solo::new(cfg(Scheme::Gcore));
        warm(&mut c, 20.0, 1);
        c.disconnect(t(30.0));
        c.reconnect(t(790.0));
        c.on_report(t(800.0), &window(800.0, 600.0, vec![]));
        let acts = c.on_group_validity(t(802.0), t(801.0), false, &[]);
        assert!(acts.is_empty());
        assert!(c.cache().is_empty());
        assert_eq!(c.counters().full_drops, 1);
    }

    #[test]
    fn gcore_query_on_limbo_item_waits_for_group_verdict() {
        let mut c = Solo::new(cfg(Scheme::Gcore));
        warm(&mut c, 20.0, 1);
        c.disconnect(t(30.0));
        c.reconnect(t(790.0));
        c.start_query(t(795.0), vec![ItemId(1)]);
        let acts = c.on_report(t(800.0), &window(800.0, 600.0, vec![]));
        assert_eq!(acts.len(), 1, "only the group check goes up: {acts:?}");
        assert!(matches!(
            &acts[0],
            ClientAction::Uplink(UplinkKind::GroupCheckRequest { .. })
        ));
        // Clean verdict: the query completes as a hit.
        let acts = c.on_group_validity(t(802.0), t(801.0), true, &[]);
        match &acts[0] {
            ClientAction::QueryDone(o) => assert_eq!((o.hits, o.misses), (1, 0)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn second_disconnection_re_limboes_entries_fetched_during_gap() {
        // Regression: an entry fetched while a gap is open is vouched only
        // up to the last report heard; a second disconnection must put it
        // back into limbo, or it can sail past updates broadcast while the
        // client dozed.
        let mut c = Solo::new(cfg(Scheme::Afw));
        warm(&mut c, 20.0, 3);
        c.disconnect(t(30.0));
        c.reconnect(t(790.0));
        // First report after reconnect: uncovered -> gap opens, Tlb sent.
        let acts = c.on_report(t(800.0), &window(800.0, 600.0, vec![]));
        assert!(matches!(
            &acts[0],
            ClientAction::Uplink(UplinkKind::TlbReport { .. })
        ));
        // Fetch item 9 during the gap; it is valid.
        c.start_query(t(802.0), vec![ItemId(9)]);
        c.on_report(t(805.0), &window(805.0, 605.0, vec![]));
        c.on_data(t(807.0), ItemId(9), t(400.0));
        assert!(c.cache().peek(ItemId(9)).unwrap().state == mobicache_cache::EntryState::Valid);
        // Second disconnection; item 9 is updated at t=900 and the
        // listing reports (900..1100) are all missed.
        c.disconnect(t(810.0));
        c.reconnect(t(1_190.0));
        // First report after the second reconnect does not cover tlb=805:
        // everything must fall back into limbo and the Tlb be re-armed.
        let acts = c.on_report(t(1_200.0), &window(1_200.0, 1_000.0, vec![]));
        assert!(
            matches!(&acts[0], ClientAction::Uplink(UplinkKind::TlbReport { .. })),
            "salvage must be re-requested: {acts:?}"
        );
        let e9 = c.cache().peek(ItemId(9)).expect("still cached");
        assert_eq!(e9.state, mobicache_cache::EntryState::Limbo);
        // A BS report covering the whole gap drops the stale item 9 and
        // salvages item 3.
        let bs = mobicache_reports::BitSequences::from_recency(
            t(1_220.0),
            64,
            vec![(ItemId(9), t(900.0))],
        );
        c.on_report(t(1_220.0), &ReportPayload::BitSeq(bs));
        assert!(c.cache().peek(ItemId(9)).is_none(), "stale entry dropped");
        assert!(c.cache().peek(ItemId(3)).is_some(), "fresh entry salvaged");
        assert!(!c.cache().has_limbo());
    }

    #[test]
    fn short_second_disconnection_keeps_valid_entries() {
        // If the first report after the second reconnection covers tlb,
        // the valid entries stay valid (the report's stale list is
        // sufficient) and only the original limbo persists.
        let mut c = Solo::new(cfg(Scheme::Afw));
        warm(&mut c, 20.0, 3);
        c.disconnect(t(30.0));
        c.reconnect(t(790.0));
        c.on_report(t(800.0), &window(800.0, 600.0, vec![]));
        c.start_query(t(802.0), vec![ItemId(9)]);
        c.on_report(t(805.0), &window(805.0, 605.0, vec![]));
        c.on_data(t(807.0), ItemId(9), t(400.0));
        // Short nap within the give-up grace; the next window covers tlb.
        c.disconnect(t(810.0));
        c.reconnect(t(815.0));
        c.on_report(t(820.0), &window(820.0, 620.0, vec![]));
        assert_eq!(
            c.cache().peek(ItemId(9)).unwrap().state,
            mobicache_cache::EntryState::Valid,
            "covered entries must not be re-limboed"
        );
        assert_eq!(
            c.cache().peek(ItemId(3)).unwrap().state,
            mobicache_cache::EntryState::Limbo,
            "the original gap persists"
        );
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlapping_queries_rejected() {
        let mut c = Solo::new(cfg(Scheme::Bs));
        c.start_query(t(1.0), vec![ItemId(1)]);
        c.start_query(t(2.0), vec![ItemId(2)]);
    }

    #[test]
    fn at_client_invalidates_listed_and_drops_on_missed_report() {
        let mut c = Solo::new(cfg(Scheme::At));
        let at = |at: f64, prev: f64, items: Vec<u32>| {
            ReportPayload::At(mobicache_reports::AtReport {
                broadcast_at: t(at),
                prev_broadcast: t(prev),
                items: items.into_iter().map(ItemId).collect(),
            })
        };
        // Warm item 3 via AT reports.
        c.start_query(t(5.0), vec![ItemId(3)]);
        let acts = c.on_report(t(20.0), &at(20.0, 0.0, vec![]));
        assert!(matches!(
            &acts[0],
            ClientAction::Uplink(UplinkKind::QueryRequest { .. })
        ));
        c.on_data(t(22.0), ItemId(3), SimTime::ZERO);
        // Connected client: listed update drops exactly item 3.
        c.on_report(t(40.0), &at(40.0, 20.0, vec![3]));
        assert!(c.cache().is_empty());
        // Re-warm, then miss one report: amnesic drop.
        c.start_query(t(45.0), vec![ItemId(5)]);
        c.on_report(t(60.0), &at(60.0, 40.0, vec![]));
        c.on_data(t(62.0), ItemId(5), SimTime::ZERO);
        c.disconnect(t(65.0));
        c.reconnect(t(95.0)); // missed the report at 80
        c.on_report(t(100.0), &at(100.0, 80.0, vec![]));
        assert!(c.cache().is_empty(), "amnesic terminals drop after any gap");
        assert_eq!(c.counters().full_drops, 1);
    }

    #[test]
    fn ts_no_check_invalidates_normally_within_window() {
        let mut c = Solo::new(cfg(Scheme::TsNoCheck));
        warm(&mut c, 20.0, 3);
        warm(&mut c, 40.0, 4);
        // Short disconnection, still inside the window: normal TS logic,
        // no full drop.
        c.disconnect(t(50.0));
        c.reconnect(t(90.0));
        c.on_report(t(100.0), &window(100.0, -100.0, vec![(3, 70.0)]));
        assert!(c.cache().peek(ItemId(3)).is_none(), "stale entry dropped");
        assert!(c.cache().peek(ItemId(4)).is_some(), "fresh entry kept");
        assert_eq!(c.counters().full_drops, 0);
    }

    #[test]
    fn evicted_wait_validity_item_falls_back_to_fetch() {
        // A queried limbo entry can be evicted (by fetches for other
        // items) before its verdict arrives; the verdict must then route
        // the query to a fresh fetch rather than a phantom hit.
        let mut c = Solo::new(ClientConfig {
            cache_capacity: 1,
            ..cfg(Scheme::SimpleChecking)
        });
        warm(&mut c, 20.0, 3);
        c.disconnect(t(30.0));
        c.reconnect(t(790.0));
        c.start_query(t(795.0), vec![ItemId(3)]);
        let acts = c.on_report(t(800.0), &window(800.0, 600.0, vec![]));
        assert!(matches!(
            &acts[0],
            ClientAction::Uplink(UplinkKind::CheckRequest { .. })
        ));
        // Eviction: a snooped item lands in the 1-slot cache.
        c.on_snooped_data(t(801.0), ItemId(9), t(500.0));
        assert!(c.cache().peek(ItemId(3)).is_none(), "limbo entry evicted");
        // Verdict says item 3 was valid — but the copy is gone; refetch.
        let acts = c.on_validity(t(802.0), t(801.5), &[ItemId(3)]);
        assert!(
            matches!(&acts[0], ClientAction::Uplink(UplinkKind::QueryRequest { item }) if *item == ItemId(3)),
            "{acts:?}"
        );
        let acts = c.on_data(t(803.0), ItemId(3), t(700.0));
        assert!(matches!(&acts[0], ClientAction::QueryDone(_)));
    }

    #[test]
    fn snooped_data_does_not_preempt_inflight_fetch() {
        let mut c = Solo::new(cfg(Scheme::SimpleChecking));
        c.start_query(t(5.0), vec![ItemId(3)]);
        let acts = c.on_report(t(20.0), &window(20.0, -180.0, vec![]));
        assert!(matches!(
            &acts[0],
            ClientAction::Uplink(UplinkKind::QueryRequest { .. })
        ));
        // A snooped copy of the same item arrives mid-fetch: ignored so
        // the addressed delivery resolves the query.
        c.on_snooped_data(t(21.0), ItemId(3), t(10.0));
        assert!(c.cache().peek(ItemId(3)).is_none());
        let acts = c.on_data(t(27.0), ItemId(3), t(10.0));
        assert!(matches!(&acts[0], ClientAction::QueryDone(_)));
        // Snooping an unrelated item, though, caches it.
        c.on_snooped_data(t(28.0), ItemId(8), t(12.0));
        assert!(c.cache().peek(ItemId(8)).is_some());
    }

    #[test]
    fn sig_client_uses_baseline() {
        let mut c = Solo::new(cfg(Scheme::Sig));
        let signer = mobicache_reports::Signer::new(16, 32, 1, 32);
        let versions = vec![SimTime::ZERO; 32];
        let sig0 = ReportPayload::Sig(
            mobicache_reports::SigReport {
                broadcast_at: t(20.0),
                combined: signer.combine(&versions),
            },
            signer.clone(),
        );
        // First report: no baseline yet, cache empty, fine.
        c.start_query(t(5.0), vec![ItemId(3)]);
        let acts = c.on_report(t(20.0), &sig0);
        assert!(matches!(
            &acts[0],
            ClientAction::Uplink(UplinkKind::QueryRequest { .. })
        ));
        c.on_data(t(22.0), ItemId(3), SimTime::ZERO);
        // Second report: item 3 unchanged — cache keeps it.
        let sig1 = ReportPayload::Sig(
            mobicache_reports::SigReport {
                broadcast_at: t(40.0),
                combined: signer.combine(&versions),
            },
            signer.clone(),
        );
        c.on_report(t(40.0), &sig1);
        assert!(c.cache().peek(ItemId(3)).is_some());
        // Third report: item 3 changed — flagged and dropped.
        let mut v2 = versions.clone();
        v2[3] = t(50.0);
        let sig2 = ReportPayload::Sig(
            mobicache_reports::SigReport {
                broadcast_at: t(60.0),
                combined: signer.combine(&v2),
            },
            signer,
        );
        c.on_report(t(60.0), &sig2);
        assert!(c.cache().peek(ItemId(3)).is_none());
    }

    // --- fault-injection retry/backoff ---------------------------------

    fn cfg_retry(scheme: Scheme, timeout_intervals: u32, max_retries: u32) -> ClientConfig {
        ClientConfig {
            retry: Some(RetryPolicy {
                timeout_intervals,
                max_retries,
                backoff_cap_intervals: 8,
            }),
            ..cfg(scheme)
        }
    }

    fn tlb_reports(acts: &[ClientAction]) -> usize {
        acts.iter()
            .filter(|a| matches!(a, ClientAction::Uplink(UplinkKind::TlbReport { .. })))
            .count()
    }

    #[test]
    fn adaptive_client_retries_tlb_with_backoff_then_degrades() {
        let mut c = Solo::new(cfg_retry(Scheme::Afw, 1, 2));
        warm(&mut c, 20.0, 3);
        c.disconnect(t(30.0));
        c.reconnect(t(800.0));
        // Initial Tlb goes up on the first uncovering report.
        let acts = c.on_report(t(800.0), &window(800.0, 600.0, vec![]));
        assert_eq!(tlb_reports(&acts), 1);
        // One interval without coverage: first retry.
        let acts = c.on_report(t(820.0), &window(820.0, 620.0, vec![]));
        assert_eq!(tlb_reports(&acts), 1, "first retry after one interval");
        assert_eq!(c.counters().retries_sent, 1);
        // Backoff doubled to two intervals: nothing at +1, retry at +2.
        let acts = c.on_report(t(840.0), &window(840.0, 640.0, vec![]));
        assert_eq!(tlb_reports(&acts), 0, "still inside doubled backoff");
        let acts = c.on_report(t(860.0), &window(860.0, 660.0, vec![]));
        assert_eq!(tlb_reports(&acts), 1, "second retry after two intervals");
        assert_eq!(c.counters().retries_sent, 2);
        assert_eq!(c.counters().tlbs_sent, 3);
        // Budget spent (max_retries = 2): after four more silent
        // intervals the client degrades to a whole-cache drop.
        for at in [880.0, 900.0, 920.0] {
            let acts = c.on_report(t(at), &window(at, at - 200.0, vec![]));
            assert!(acts.is_empty(), "waiting out the capped backoff at {at}");
        }
        let acts = c.on_report(t(940.0), &window(940.0, 740.0, vec![]));
        assert!(acts.is_empty());
        assert!(c.cache().is_empty(), "graceful degradation drops the cache");
        assert_eq!(c.counters().backoff_exhaustions, 1);
        assert_eq!(c.counters().full_drops, 1);
        assert!(!c.cache().has_limbo());
    }

    #[test]
    fn checking_client_retries_check_then_degrades() {
        let mut c = Solo::new(cfg_retry(Scheme::SimpleChecking, 1, 1));
        warm(&mut c, 20.0, 3);
        c.disconnect(t(30.0));
        c.reconnect(t(800.0));
        c.on_report(t(800.0), &window(800.0, 600.0, vec![]));
        assert_eq!(c.counters().checks_sent, 1);
        // Lost reply: the check is re-sent after one interval.
        let acts = c.on_report(t(820.0), &window(820.0, 620.0, vec![]));
        assert!(acts
            .iter()
            .any(|a| matches!(a, ClientAction::Uplink(UplinkKind::CheckRequest { .. }))));
        assert_eq!(c.counters().checks_sent, 2);
        assert_eq!(c.counters().retries_sent, 1);
        // max_retries = 1: after the doubled wait, degrade.
        c.on_report(t(840.0), &window(840.0, 640.0, vec![]));
        assert!(c.cache().has_limbo(), "inside doubled backoff");
        c.on_report(t(860.0), &window(860.0, 660.0, vec![]));
        assert!(c.cache().is_empty());
        assert_eq!(c.counters().backoff_exhaustions, 1);
    }

    #[test]
    fn lost_data_request_is_retried_until_answered() {
        let mut c = Solo::new(cfg_retry(Scheme::Afw, 1, 2));
        c.start_query(t(5.0), vec![ItemId(7)]);
        let acts = c.on_report(t(21.0), &window(21.0, -179.0, vec![]));
        assert!(matches!(
            &acts[0],
            ClientAction::Uplink(UplinkKind::QueryRequest { .. })
        ));
        // The request (or its reply) was lost: re-sent after one
        // interval, then after two (capped exponential backoff).
        let acts = c.on_report(t(41.0), &window(41.0, -159.0, vec![]));
        assert!(
            matches!(
                &acts[..],
                [ClientAction::Uplink(UplinkKind::QueryRequest { item })] if *item == ItemId(7)
            ),
            "retry after one interval: {acts:?}"
        );
        let acts = c.on_report(t(61.0), &window(61.0, -139.0, vec![]));
        assert!(acts.is_empty(), "inside doubled backoff");
        let acts = c.on_report(t(81.0), &window(81.0, -119.0, vec![]));
        assert_eq!(acts.len(), 1, "second retry");
        assert_eq!(c.counters().retries_sent, 2);
        // Data finally lands: the query completes normally.
        let acts = c.on_data(t(85.0), ItemId(7), SimTime::ZERO);
        assert!(matches!(&acts[0], ClientAction::QueryDone(_)));
        assert_eq!(c.counters().queries_answered, 1);
    }

    #[test]
    fn stuck_validity_wait_falls_back_to_data_fetch() {
        let mut c = Solo::new(ClientConfig {
            checking_mode: CheckingMode::QueriedItems,
            ..cfg_retry(Scheme::SimpleChecking, 1, 2)
        });
        warm(&mut c, 20.0, 3);
        c.disconnect(t(30.0));
        c.reconnect(t(800.0));
        c.on_report(t(800.0), &window(800.0, 600.0, vec![]));
        assert!(c.cache().has_limbo());
        // Query the limbo item: a targeted check goes up.
        c.start_query(t(805.0), vec![ItemId(3)]);
        let acts = c.on_report(t(820.0), &window(820.0, 620.0, vec![]));
        assert!(acts
            .iter()
            .any(|a| matches!(a, ClientAction::Uplink(UplinkKind::CheckRequest { .. }))));
        // The verdict never arrives: fall back to fetching fresh data.
        let acts = c.on_report(t(840.0), &window(840.0, 640.0, vec![]));
        assert!(
            acts.iter().any(|a| matches!(
                a,
                ClientAction::Uplink(UplinkKind::QueryRequest { item }) if *item == ItemId(3)
            )),
            "fallback fetch: {acts:?}"
        );
        assert_eq!(c.counters().retries_sent, 1);
        let acts = c.on_data(t(845.0), ItemId(3), t(841.0));
        assert!(matches!(&acts[0], ClientAction::QueryDone(_)));
    }
}
