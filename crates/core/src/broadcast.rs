//! The broadcast fan-out: who hears a transmission, and the walk that
//! applies a report to its listeners. The merge of their actions stays
//! in the engine.

use mobicache_client::{ClientAction, ClientCounters, ClientMut, ClientPop};
use mobicache_model::ClientId;
use mobicache_reports::{PlanCache, PlanStats, ReportPayload};
use mobicache_sim::SimTime;

/// A client's counters and cache evictions from just before it
/// processed a message; the probe events are the difference.
pub(crate) type Before = (ClientCounters, u64);

/// The records of one report walk, lent to the engine by
/// [`Broadcast::apply_report`] for the merge (which may then borrow the
/// whole engine) and handed back by [`Broadcast::end_merge`], so steady
/// state allocates nothing. The walk touches only its clients and these
/// buffers — no scheduler, channel, RNG or stats — and the merge replays
/// them in client-index order, the order the digests pin.
#[derive(Default)]
pub(crate) struct Merge {
    /// Actions appended by the walked clients, in client-index order.
    actions: Vec<ClientAction>,
    /// `(client, actions appended)`: one record per walked client that
    /// appended actions — per walked client when a probe is attached. A
    /// client with neither is a no-op in the merge, so it leaves no
    /// record.
    outcomes: Vec<(u32, u32)>,
    /// Probe only: each recorded client's counters and cache evictions
    /// captured just before it processed the message, parallel to
    /// `outcomes`, so the merge emits exactly the probe events a
    /// per-client loop would.
    before: Vec<Before>,
}

impl Merge {
    /// Drains the records in client-index order: `client` gets each
    /// recorded client's actions and, probe only, its counters and
    /// cache evictions from before the report.
    pub(crate) fn drain(
        &mut self,
        mut client: impl FnMut(ClientId, &mut dyn Iterator<Item = ClientAction>, Option<Before>),
    ) {
        let mut actions = self.actions.drain(..);
        let mut before = self.before.drain(..);
        for (c, n) in self.outcomes.drain(..) {
            let mut own = actions.by_ref().take(n as usize);
            client(ClientId(c), &mut own, before.next());
        }
    }
}

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
    /// The walk's records, reused across ticks.
    merge: Merge,
    pub(crate) plan_hits: u64,
    pub(crate) plan_misses: u64,
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

    /// Applies `cell`'s `report` to the delivery mask's clients and
    /// returns their actions for the engine's merge. The vouched clients
    /// are stamped; the rest are walked. The delivery mask is left as
    /// it was.
    pub(crate) fn apply_report(
        &mut self,
        clients: &mut ClientPop,
        cell: usize,
        report: &ReportPayload,
        now: SimTime,
        probing: bool,
    ) -> Merge {
        // Decode this tick's invalidation plan once, keyed by the
        // dominant Tlb bucket: the cell's broadcast epoch, which every
        // client that heard the previous report holds.
        let plan = &mut self.plans[cell];
        plan.decode_for_tick(report, clients.epoch(cell as u32), self.db_size);
        // Stamp: a vouched client (no gap, nothing waiting on a report,
        // and an empty cache or, at the epoch of a report that covers
        // it, none of the items the plan marks and no retry due at
        // `now`) can only take the new `Tlb` and a cache revalidation,
        // so it gets exactly that — the cell's new epoch, one word
        // operation per 64 clients — and is not walked. The holders
        // index names the clients a plan marks.
        let walk = &mut self.walk_words;
        walk.clone_from(&self.deliver_words);
        self.fanout_quiet += clients.stamp(cell as u32, walk, report, plan, now);
        self.fanout_walked += walk.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
        // Walk: each remaining client applies the report, touching only
        // its own columns and the merge records.
        let plan = &*plan;
        let m = &mut self.merge;
        let mut stats = PlanStats::default();
        clients.for_each_delivered(walk, |i, mut client| {
            if probing {
                m.before
                    .push((client.counters(), client.cache().evictions()));
            }
            let a0 = m.actions.len();
            client.on_report_planned(now, report, plan, &mut m.actions, &mut stats);
            let actions = (m.actions.len() - a0) as u32;
            if actions > 0 || probing {
                m.outcomes.push((i as u32, actions));
            }
        });
        self.plan_hits += stats.hits;
        self.plan_misses += stats.misses;
        std::mem::take(&mut self.merge)
    }

    /// Lets every delivery-mask client overhear a data item; snooping
    /// produces no actions, so there is nothing to merge.
    pub(crate) fn apply_snoop(
        &mut self,
        clients: &mut ClientPop,
        mut snoop: impl FnMut(ClientMut<'_>),
    ) {
        clients.for_each_delivered(&self.deliver_words, |_, c| snoop(c));
    }

    /// Takes the drained records back for the next tick.
    pub(crate) fn end_merge(&mut self, merge: Merge) {
        self.merge = merge;
    }

    pub(crate) fn plan_decodes(&self) -> u64 {
        self.plans.iter().map(PlanCache::decodes).sum()
    }
}
