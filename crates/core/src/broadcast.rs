//! The broadcast fan-out: who hears a transmission, and the sharded
//! application of a report to its listeners. The serial merge of their
//! actions stays in the engine.

use mobicache_client::{ClientAction, ClientCounters, ClientMut, ClientPop};
use mobicache_model::ClientId;
use mobicache_reports::{PlanCache, PlanStats, ReportPayload};
use mobicache_sim::pool::WorkerPool;
use mobicache_sim::SimTime;

/// Shard-local scratch for the report fan-out, one slot per chunk of
/// [`ClientPop::for_each_delivered`]. A chunk's clients append here and
/// nowhere else — no scheduler, channel, RNG or stats access — and the
/// engine replays the contents serially in client-index order, which is
/// what keeps the merged result bit-identical to the serial engine.
#[derive(Default)]
struct ShardScratch {
    /// Actions appended by this shard's clients, in client-index order.
    actions: Vec<ClientAction>,
    /// `(client, actions appended)`: one record per walked client that
    /// appended actions — per walked client when a probe is attached. A
    /// client with neither is a no-op in the merge, so it leaves no
    /// record.
    outcomes: Vec<(u32, u32)>,
    /// Probe only: each recorded client's counters and cache evictions
    /// captured just before it processed the message, parallel to
    /// `outcomes`, so the serial merge emits exactly the probe events
    /// the serial loop would.
    before: Vec<Before>,
    plan: PlanStats,
}

/// A client's counters and cache evictions from just before it
/// processed a message; the probe events are the difference.
pub(crate) type Before = (ClientCounters, u64);

/// The shard records of one report fan-out, lent to the engine by
/// [`Broadcast::apply_report`] for the serial merge (which may then
/// borrow the whole engine) and handed back by [`Broadcast::end_merge`].
pub(crate) struct Merge(Vec<ShardScratch>);

impl Merge {
    /// Drains the records in client-index order: `client` gets each
    /// recorded client's actions and, probe only, its counters and
    /// cache evictions from before the report.
    pub(crate) fn drain(
        &mut self,
        mut client: impl FnMut(ClientId, &mut dyn Iterator<Item = ClientAction>, Option<Before>),
    ) {
        for shard in &mut self.0 {
            let mut actions = shard.actions.drain(..);
            let mut before = shard.before.drain(..);
            for (c, n) in shard.outcomes.drain(..) {
                let mut own = actions.by_ref().take(n as usize);
                client(ClientId(c), &mut own, before.next());
            }
        }
    }
}

/// Fan-out state of one run. The counters are cumulative; see
/// [`IntervalSnapshot`](crate::IntervalSnapshot) for their meaning.
#[derive(Default)]
pub(crate) struct Broadcast {
    db_size: u32,
    /// The per-tick invalidation-plan caches, one per cell: each cell's
    /// report is decoded once into a dense stale bitmap in the serial
    /// phase, then shared immutably across the fan-out shards (see
    /// `mobicache_reports::plan`).
    plans: Vec<PlanCache>,
    /// Broadcast time of the last report each cell handed to the
    /// fan-out — the dominant `Tlb` bucket for that cell's next plan
    /// decode (every client that heard it holds exactly this `Tlb`).
    prev_report_at: Vec<SimTime>,
    /// Delivery mask of the current transmission, as bitmap words
    /// (bit `i` = client `i` hears it). A report fan-out thins it to its
    /// walk mask: the quiet clients, whose report is a `Tlb` stamp,
    /// leave it.
    deliver_words: Vec<u64>,
    /// One scratch per chunk (`shards.len()` is the resolved thread
    /// count); reused across ticks so steady state allocates nothing.
    shards: Vec<ShardScratch>,
    pub(crate) plan_hits: u64,
    pub(crate) plan_misses: u64,
    pub(crate) fanout_words_skipped: u64,
    pub(crate) fanout_quiet: u64,
    pub(crate) fanout_walked: u64,
}

impl Broadcast {
    pub(crate) fn new(db_size: u32, cells: usize, chunks: usize) -> Self {
        Broadcast {
            db_size,
            plans: (0..cells).map(|_| PlanCache::new()).collect(),
            prev_report_at: vec![SimTime::ZERO; cells],
            shards: (0..chunks).map(|_| ShardScratch::default()).collect(),
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

    /// Sets the delivery mask to all `n` clients.
    pub(crate) fn all_listeners(&mut self, n: usize) {
        self.deliver_words.clear();
        self.deliver_words.resize(n.div_ceil(64), !0);
    }

    /// The delivery mask and the chunk count of a walk over it.
    pub(crate) fn mask(&self) -> (&[u64], usize) {
        (&self.deliver_words, self.shards.len())
    }

    /// Tallies the delivery mask's zero words and returns how many
    /// clients it holds.
    pub(crate) fn count_listeners(&mut self) -> u64 {
        let mask = &self.deliver_words;
        self.fanout_words_skipped += mask.iter().filter(|&&w| w == 0).count() as u64;
        mask.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Applies `cell`'s `report` to the delivery mask's clients and
    /// returns their actions for the engine's serial merge. The quiet
    /// clients are stamped and leave the mask, so afterwards it holds
    /// the walked clients only.
    pub(crate) fn apply_report(
        &mut self,
        clients: &mut ClientPop,
        pool: &WorkerPool,
        cell: usize,
        report: &ReportPayload,
        now: SimTime,
        probing: bool,
    ) -> Merge {
        // Decode this tick's invalidation plan once (serial), keyed by
        // the dominant Tlb bucket: every client that heard the previous
        // report holds exactly its broadcast time. Shards then read the
        // plan lock-free.
        let plan = &mut self.plans[cell];
        plan.decode_for_tick(report, self.prev_report_at[cell], self.db_size);
        self.prev_report_at[cell] = report.broadcast_at();
        // Serial stamp: a quiet client (empty cache, no gap, nothing
        // waiting on a report) can only take the new `Tlb`, so it gets
        // exactly that and leaves the walk.
        let walk = &mut self.deliver_words;
        self.fanout_quiet += clients.stamp_quiet(walk, report.broadcast_at());
        self.fanout_walked += walk.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
        // Parallel: each shard applies the report to the rest of its
        // contiguous client range, touching only its own clients and
        // scratch.
        for sh in &mut self.shards {
            sh.actions.clear();
            sh.outcomes.clear();
            sh.before.clear();
            sh.plan = PlanStats::default();
        }
        let plan = &*plan;
        clients.for_each_delivered(pool, walk, &mut self.shards, |i, mut client, sh| {
            if probing {
                sh.before
                    .push((client.counters(), client.cache().evictions()));
            }
            let a0 = sh.actions.len();
            client.on_report_planned(now, report, plan, &mut sh.actions, &mut sh.plan);
            let actions = (sh.actions.len() - a0) as u32;
            if actions > 0 || probing {
                sh.outcomes.push((i as u32, actions));
            }
        });
        // u64 sums are order-free, so the totals are thread-invariant.
        for sh in &self.shards {
            self.plan_hits += sh.plan.hits;
            self.plan_misses += sh.plan.misses;
        }
        Merge(std::mem::take(&mut self.shards))
    }

    /// Lets every delivery-mask client overhear a data item; snooping
    /// produces no actions, so there is nothing to merge.
    pub(crate) fn apply_snoop(
        &mut self,
        clients: &mut ClientPop,
        pool: &WorkerPool,
        snoop: impl Fn(ClientMut<'_>) + Sync,
    ) {
        clients.for_each_delivered(pool, &self.deliver_words, &mut self.shards, |_, c, _| {
            snoop(c)
        });
    }

    /// Takes the drained scratch back for the next tick.
    pub(crate) fn end_merge(&mut self, merge: Merge) {
        self.shards = merge.0;
    }

    pub(crate) fn plan_decodes(&self) -> u64 {
        self.plans.iter().map(PlanCache::decodes).sum()
    }
}
