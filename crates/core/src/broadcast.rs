//! The broadcast fan-out: who hears a transmission, and which of a
//! report's listeners take it as a stamp. The engine walks the rest in
//! client-index order, one client's report, actions and observations
//! at a time, through [`Broadcast::apply_planned`].

use mobicache_client::{ClientAction, ClientMut, ClientPop};
use mobicache_reports::{PlanCache, PlanStats, ReportPayload};
use mobicache_sim::SimTime;

/// Fan-out state of one run. The counters are cumulative; see
/// [`IntervalSnapshot`](crate::IntervalSnapshot) for their meaning.
#[derive(Default)]
pub(crate) struct Broadcast {
    db_size: u32,
    /// The per-tick invalidation-plan caches, one per cell: each cell's
    /// report is decoded once into a dense stale bitmap, then read by
    /// every walked client (see `mobicache_reports::plan`).
    plans: Vec<PlanCache>,
    /// Delivery mask of the current transmission, as bitmap words
    /// (bit `i` = client `i` hears it).
    deliver_words: Vec<u64>,
    /// A report's walk mask: the delivery mask minus the vouched
    /// clients, whose report is a stamp.
    walk_words: Vec<u64>,
    pub(crate) plan_stats: PlanStats,
    pub(crate) fanout_words_skipped: u64,
    pub(crate) fanout_quiet: u64,
    pub(crate) fanout_walked: u64,
}

impl Broadcast {
    pub(crate) fn new(db_size: u32, cells: usize) -> Self {
        Broadcast {
            db_size,
            plans: (0..cells).map(|_| PlanCache::new()).collect(),
            ..Broadcast::default()
        }
    }

    /// Sets the delivery mask to `cell`'s connected members and returns
    /// it for the caller to thin.
    pub(crate) fn listeners(&mut self, clients: &ClientPop, cell: u32) -> &mut [u64] {
        self.deliver_words.clear();
        self.deliver_words.extend(
            clients
                .connected_words()
                .iter()
                .zip(clients.cell_words(cell))
                .map(|(&c, &m)| c & m),
        );
        &mut self.deliver_words
    }

    /// The delivery mask.
    pub(crate) fn mask(&self) -> &[u64] {
        &self.deliver_words
    }

    /// Tallies the delivery mask's zero words and returns how many
    /// clients it holds.
    pub(crate) fn count_listeners(&mut self) -> u64 {
        let mask = &self.deliver_words;
        self.fanout_words_skipped += mask.iter().filter(|&&w| w == 0).count() as u64;
        mask.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Decodes `cell`'s plan for `report` and stamps the delivery
    /// mask's vouched clients; the rest make up the walk mask
    /// ([`Broadcast::walk`]). The delivery mask is left as it was.
    pub(crate) fn stamp(
        &mut self,
        clients: &mut ClientPop,
        cell: usize,
        report: &ReportPayload,
        now: SimTime,
    ) {
        // Decode this tick's invalidation plan once, keyed by the
        // dominant Tlb bucket: the cell's broadcast epoch, which every
        // client that heard the previous report holds.
        let plan = &mut self.plans[cell];
        plan.decode_for_tick(report, clients.epoch(cell as u32), self.db_size);
        // Stamp: a vouched client (no gap, nothing waiting on a report,
        // and, at the epoch of a report that covers it, none of the
        // items the plan marks and no retry due at `now`) can only take
        // the new `Tlb` and a cache revalidation, so it gets exactly
        // that — the cell's new epoch, one word operation per 64
        // clients — and is not walked. The holders index names the
        // clients a plan marks.
        let walk = &mut self.walk_words;
        walk.clone_from(&self.deliver_words);
        self.fanout_quiet += clients.stamp(cell as u32, walk, report, plan, now);
        self.fanout_walked += walk.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
    }

    /// The last report's walk mask: its listeners that were not stamped.
    pub(crate) fn walk(&self) -> &[u64] {
        &self.walk_words
    }

    /// Applies `cell`'s report, `now`, to one walked client through the
    /// tick's plan, appending its actions to `actions`.
    #[inline]
    pub(crate) fn apply_planned(
        &mut self,
        client: &mut ClientMut<'_>,
        cell: usize,
        report: &ReportPayload,
        now: SimTime,
        actions: &mut Vec<ClientAction>,
    ) {
        client.on_report_planned(
            now,
            report,
            &self.plans[cell],
            actions,
            &mut self.plan_stats,
        );
    }

    pub(crate) fn plan_decodes(&self) -> u64 {
        self.plans.iter().map(PlanCache::decodes).sum()
    }
}
