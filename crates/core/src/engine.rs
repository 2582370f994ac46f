//! The simulation driver: wires server, clients, channels and workload
//! generators into one event loop (§4 of the paper).
//!
//! Beyond the paper's model, the driver supports three extensions, all
//! off by default (see `DESIGN.md` §4):
//!
//! * **downlink topology** — §6's future work: a dedicated broadcast
//!   channel for invalidation reports with the remaining bandwidth
//!   serving point-to-point traffic ([`DownlinkTopology::Dedicated`]);
//! * **report loss** — per-client fading: each connected client misses a
//!   given broadcast independently with probability `p_report_loss`;
//! * **client energy accounting** — §1 motivates the schemes with power
//!   efficiency ("the power needed for transmission is proportional to
//!   the fourth power of the distance"); the driver charges every client
//!   transmission and reception against the configured per-bit costs.

use crate::metrics::{ClientStats, FaultMetrics, Metrics, MobilityMetrics};
use crate::oracle::Oracle;
use crate::probe::{CacheEventKind, IntervalSnapshot, Probe, ProbeEvent, ReportKind, RunTotals};
use mobicache_client::{ClientAction, ClientConfig, ClientCounters, ClientPop};
use mobicache_model::msg::{DownlinkKind, SizeParams, UplinkKind, CLASS_CHECK, CLASS_REPORT};
use mobicache_model::{ChannelFaults, ClientId, ConfigError, DownlinkTopology, ItemId, SimConfig};
use mobicache_net::Channel;
use mobicache_reports::{PlanCache, PlanStats, ReportPayload};
use mobicache_server::{Server, ServerCounters};
use mobicache_sim::pool::WorkerPool;
use mobicache_sim::{Exp, Histogram, OnlineStats, Scheduler, SimRng, SimTime, StreamId};
use mobicache_workload::{GapKind, GapProcess, QueryGen, UpdateGen};
use std::sync::Arc;

/// Options orthogonal to the modelled system, built fluently:
///
/// ```
/// use mobicache::{IntervalSampler, RunOptions};
///
/// let mut sampler = IntervalSampler::every(10);
/// let opts = RunOptions::new()
///     .check_consistency(true)
///     .probe(&mut sampler);
/// # let _ = opts;
/// ```
#[derive(Default)]
pub struct RunOptions<'p> {
    /// Record the full update history and assert the cache-consistency
    /// invariant after every message each client processes. Roughly
    /// doubles runtime; intended for tests.
    check_consistency: bool,
    /// Observer receiving typed run events and interval snapshots.
    probe: Option<&'p mut dyn Probe>,
    /// Externally owned worker pool to execute the sharded tick phases
    /// on, instead of spawning one per simulation.
    worker_pool: Option<Arc<WorkerPool>>,
}

impl<'p> RunOptions<'p> {
    /// Defaults: no consistency oracle, no probe.
    pub fn new() -> Self {
        RunOptions::default()
    }

    /// Enables (or disables) the ground-truth consistency oracle.
    #[must_use]
    pub fn check_consistency(mut self, enabled: bool) -> Self {
        self.check_consistency = enabled;
        self
    }

    /// Attaches a run observer. Probes are read-only: they never touch
    /// the RNG streams or the event list, so a probed run stays
    /// bit-identical to an unprobed one with the same seed.
    #[must_use]
    pub fn probe(mut self, probe: &'p mut dyn Probe) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Runs the sharded tick phases on an existing pool instead of
    /// spawning one per simulation — for drivers that create many
    /// short-lived engines. Chunk geometry still follows
    /// [`SimConfig::threads`], so sharing a pool (of any size) never
    /// changes results; the pool only supplies execution lanes and
    /// carries no per-run state.
    #[must_use]
    pub fn worker_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.worker_pool = Some(pool);
        self
    }
}

impl std::fmt::Debug for RunOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOptions")
            .field("check_consistency", &self.check_consistency)
            .field("probe", &self.probe.is_some())
            .field("worker_pool", &self.worker_pool.is_some())
            .finish()
    }
}

/// Everything a run produces.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The configuration that produced these metrics.
    pub config: SimConfig,
    /// Aggregated measurements.
    pub metrics: Metrics,
}

/// Simulation events.
enum Ev {
    /// Periodic broadcast (every `L` seconds).
    Tick,
    /// Next server update transaction.
    UpdateArrival,
    /// A client's next query is issued.
    QueryArrival(ClientId),
    /// A dozing client wakes up.
    Reconnect(ClientId),
    /// A downlink transmission finished (channel index, facility token).
    DownlinkDone(usize, u64),
    /// An uplink transmission finished (facility token).
    UplinkDone(u64),
    /// A scheduled server crash wipes the volatile server state.
    ServerCrash,
    /// The crashed server finishes rebuilding from its durable log.
    ServerRecover,
    /// The client's cell residency expired: begin a handoff (or defer
    /// it while the client is mid-flight). Multi-cell topologies only.
    Handoff(ClientId),
    /// The client finishes its handoff blackout and re-associates with
    /// the destination cell. Multi-cell topologies only.
    HandoffArrive(ClientId, u32),
}

/// Downlink message payloads.
enum DownPayload {
    /// Broadcast invalidation report, shared with the server's report
    /// cache (never copied per delivery).
    Report(Arc<ReportPayload>),
    /// A data item for one client.
    Data { item: ItemId, dest: ClientId },
    /// A validity verdict for one client.
    Validity {
        dest: ClientId,
        asof: SimTime,
        valid: Vec<ItemId>,
    },
    /// A grouped-checking verdict for one client.
    GroupVerdict {
        dest: ClientId,
        asof: SimTime,
        covered: bool,
        stale: Vec<ItemId>,
    },
}

/// An uplink message in flight: who sent it, what it is, and whether a
/// fault coin already doomed it. A doomed message still charges the
/// sender's radio and occupies the channel — the transmission happens;
/// the receiver just never hears it.
struct UpMsg {
    from: ClientId,
    kind: UplinkKind,
    lost: bool,
}

/// Shard-local scratch for the report fan-out, one slot per chunk of
/// [`ClientPop::for_each_delivered`]. A chunk's clients append here and
/// nowhere else — no scheduler, channel, RNG or stats access — and the
/// engine replays the contents serially in client-index order, which is
/// what keeps the merged result bit-identical to the serial engine.
#[derive(Default)]
struct ShardScratch {
    /// Actions appended by this shard's clients, in client-index order.
    actions: Vec<ClientAction>,
    /// One record per client that processed the message.
    outcomes: Vec<ShardOutcome>,
    /// Plan-application tallies for this shard's clients; summed into
    /// the engine counters during the serial merge (u64 sums are
    /// order-free, so the totals are thread-invariant).
    plan: PlanStats,
}

/// What one client's parallel report application produced: how many
/// actions it appended to its shard's buffer, plus (when a probe is
/// attached) the counter state captured just before, so the serial
/// merge emits exactly the probe events the serial loop would.
struct ShardOutcome {
    client: usize,
    actions: u32,
    before: Option<(ClientCounters, u64)>,
}

/// A fully wired simulation, ready to run.
pub struct Simulation<'p> {
    cfg: SimConfig,
    opts: RunOptions<'p>,
    sp: SizeParams,
    horizon: SimTime,
    sched: Scheduler<Ev>,
    /// One server per cell, indexed by cell id. Every update transaction
    /// is applied to all of them (zero cross-cell skew), so the servers
    /// differ only in the `Tlb`s their own clients registered. The
    /// single-cell topology has exactly one.
    servers: Vec<Server>,
    clients: ClientPop,
    /// Downlink channels, cell-major: cell `c` owns indices
    /// `[c·per_cell, (c+1)·per_cell)`, with `per_cell` = 1 under
    /// [`DownlinkTopology::Shared`] or 2 (broadcast + point-to-point)
    /// under [`DownlinkTopology::Dedicated`]. The single-cell topology
    /// degenerates to the legacy one- or two-channel layout.
    downlinks: Vec<Channel<DownPayload>>,
    /// Downlink channels per cell (see [`Simulation::downlinks`]).
    per_cell_downlinks: usize,
    uplink: Channel<UpMsg>,
    update_gen: UpdateGen,
    query_gen: QueryGen,
    gap_proc: GapProcess,
    rng_update: SimRng,
    rng_clients: Vec<SimRng>,
    /// Per-client fault streams (Gilbert–Elliott transitions, downlink-
    /// and uplink-loss coins), advanced only in the serial phases so
    /// enabling faults never perturbs the workload streams and the coin
    /// schedule is thread-invariant. Untouched while no fault is active.
    rng_faults: Vec<SimRng>,
    /// Per-client Gilbert–Elliott channel state (`true` = in a burst).
    ge_bad: Vec<bool>,
    /// Per-client mobility streams (cell residency, roam choice) —
    /// empty in the single-cell topology, so legacy runs derive no
    /// mobility stream and stay bit-identical.
    rng_mobility: Vec<SimRng>,
    /// Cell-residency distribution; `None` in the single-cell topology
    /// (whose residency knobs are inert and unvalidated).
    residency: Option<Exp>,
    /// Clients whose think-scheduled query arrival landed inside their
    /// own handoff blackout; the query is re-issued at handoff arrival.
    /// Empty in the single-cell topology (a legacy doze always delivers
    /// `Reconnect` before the same-instant `QueryArrival`).
    query_after_handoff: Vec<bool>,
    /// Mobility tallies accumulated during the run.
    mobility: MobilityMetrics,
    /// The downlink fault chain with the legacy `p_report_loss` knob
    /// folded in as an independent loss source.
    eff_downlink: ChannelFaults,
    /// Nesting depth of in-progress server crash windows (0 = up).
    down_depth: u32,
    /// Earliest unacknowledged crash instant — measured (and cleared)
    /// at the first successful post-recovery broadcast.
    crash_pending_since: Option<SimTime>,
    /// Sum of crash → first-post-recovery-broadcast latencies.
    recovery_latency_sum: f64,
    /// Data responses currently queued or in flight on the downlink,
    /// keyed by `(requester, item)`. Retry-armed clients cannot tell a
    /// lost request from queueing delay, so the server ignores a
    /// duplicate request whose answer is already on its way instead of
    /// re-sending a full item. Empty while no fault is active.
    inflight_data: std::collections::HashSet<(ClientId, ItemId)>,
    /// Fault tallies accumulated during the run.
    faults: FaultMetrics,
    latency: OnlineStats,
    latency_hist: Histogram,
    oracle: Option<Oracle>,
    disconnections: u64,
    reports_lost: u64,
    /// Client-radio energy accounting (bits).
    tx_bits: f64,
    rx_bits: f64,
    /// Broadcast periods completed (snapshot stride counter).
    ticks: u64,
    /// Cumulative counters at the last interval snapshot.
    snap_prev: RunTotals,
    /// Simulated second of the last interval snapshot.
    snap_prev_secs: f64,
    /// Next interval snapshot index.
    snap_index: u32,
    /// Reusable client-action buffer, threaded through every message
    /// delivery so the hot paths never allocate an action list.
    action_scratch: Vec<ClientAction>,
    /// Reusable per-client delivery mask for the broadcast phases, as
    /// bitmap words (bit `i` = client `i` hears this transmission).
    deliver_words: Vec<u64>,
    /// The per-tick invalidation-plan caches, one per cell: each cell's
    /// report is decoded once into a dense stale bitmap in serial
    /// phase 0, then shared immutably across the fan-out shards (see
    /// `mobicache_reports::plan`).
    plans: Vec<PlanCache>,
    /// Broadcast time of the last report each cell handed to the
    /// fan-out — the dominant `Tlb` bucket for that cell's next plan
    /// decode (every client that heard it holds exactly this `Tlb`).
    prev_report_at: Vec<SimTime>,
    /// Report applications served by the word-wise plan intersection
    /// (cumulative).
    plan_hits: u64,
    /// Report applications served per item: small caches, or an
    /// off-bucket BS prefix (cumulative).
    plan_misses: u64,
    /// Zero delivery-mask words skipped by the broadcast fan-outs —
    /// 64 clients apiece that cost one word load instead of 64 branches.
    fanout_words_skipped: u64,
    /// One scratch per worker thread (`shards.len()` is the resolved
    /// thread count); reused across ticks so steady state allocates
    /// nothing.
    shards: Vec<ShardScratch>,
    /// Persistent worker pool for the sharded tick phases: spawned once
    /// per simulation (or shared via [`RunOptions::worker_pool`]) and
    /// reused every tick, so no phase ever pays a thread spawn. Joined
    /// on drop.
    pool: Arc<WorkerPool>,
}

/// Builds and runs a simulation in one call.
///
/// # Errors
/// Returns the typed validation error for an inconsistent
/// configuration.
pub fn run(cfg: &SimConfig, opts: RunOptions<'_>) -> Result<RunResult, ConfigError> {
    Ok(Simulation::new(cfg, opts)?.run_to_completion())
}

impl<'p> Simulation<'p> {
    /// Wires up a simulation for `cfg`.
    ///
    /// # Errors
    /// Returns the typed validation error for an inconsistent
    /// configuration.
    pub fn new(cfg: &SimConfig, opts: RunOptions<'p>) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let sp = SizeParams {
            db_size: cfg.db_size as u64,
            group_count: cfg.gcore_groups as u64,
            timestamp_bits: cfg.timestamp_bits,
            header_bits: cfg.header_bits,
            control_bytes: cfg.control_bytes,
            item_bytes: cfg.item_bytes,
        };
        let client_cfg = ClientConfig {
            scheme: cfg.scheme,
            checking_mode: cfg.checking_mode,
            cache_capacity: cfg.cache_capacity_items() as usize,
            broadcast_period_secs: cfg.broadcast_period_secs,
            gcore_groups: cfg.gcore_groups,
            // Retry/backoff only arms under an explicit fault plan; the
            // bare legacy `p_report_loss` knob keeps the historical
            // fixed-grace behaviour (and its golden digests).
            retry: cfg.faults.is_active().then_some(cfg.faults.retry),
        };
        let mut sched = Scheduler::new();

        // First broadcast at t = L; first update per the update process;
        // each client's first query after an initial think period.
        sched.schedule(SimTime::from_secs(cfg.broadcast_period_secs), Ev::Tick);
        let update_gen = UpdateGen::new(
            cfg.workload.update,
            cfg.db_size,
            cfg.mean_update_interarrival_secs,
            cfg.items_per_update_mean,
        );
        let mut rng_update = SimRng::for_stream(cfg.seed, StreamId::Update);
        sched.schedule(
            SimTime::from_secs(update_gen.next_interarrival(&mut rng_update)),
            Ev::UpdateArrival,
        );
        // Scheduled server crashes: the crash lands first, the recovery
        // `recovery_secs` later (FIFO keeps that order when both fall on
        // the same instant). An empty schedule adds no events at all.
        for &at in &cfg.faults.crashes {
            sched.schedule(SimTime::from_secs(at), Ev::ServerCrash);
            sched.schedule(
                SimTime::from_secs(at + cfg.faults.recovery_secs),
                Ev::ServerRecover,
            );
        }
        // Asked only when needed: on Linux the answer reads cgroup files
        // (tens of microseconds), a visible share of a small engine's
        // set-up.
        let cores = || std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = match cfg.threads {
            0 => cores(),
            n => n as usize,
        }
        .min(cfg.num_clients as usize)
        .max(1);
        // `threads` fixes the chunk geometry (and with it nothing but
        // wall time); the pool only lends execution lanes, so it never
        // needs more than the host has — which also keeps a large
        // validated `threads` from exhausting the process's thread limit.
        let pool = match &opts.worker_pool {
            Some(pool) => Arc::clone(pool),
            None if threads == 1 => Arc::new(WorkerPool::new(1)),
            None => Arc::new(WorkerPool::new(threads.min(cores()))),
        };

        // One wake-up per client: every client seeds its own RNG stream
        // and samples its first think period from it, so the burst
        // shards across the pool. Each chunk slot holds its clients'
        // streams and `(time, client)` wake-ups; concatenated in chunk
        // order they give the client-index order `schedule_batch` needs
        // to hand out the same sequence numbers `num_clients` individual
        // calls would (the FIFO tie-break contract).
        let think = mobicache_sim::Exp::with_mean(cfg.mean_think_secs);
        let n = cfg.num_clients as usize;
        let mut wake = vec![(Vec::new(), Vec::new()); threads];
        pool.for_each_chunk(n, &mut wake, |range, (rngs, times)| {
            rngs.reserve_exact(range.len());
            times.reserve_exact(range.len());
            for c in range {
                let mut rng = SimRng::for_stream(cfg.seed, StreamId::Client(c as u32));
                times.push((SimTime::from_secs(think.sample(&mut rng)), c as u32));
                rngs.push(rng);
            }
        });
        // The first chunk's streams become the column itself, so a
        // one-chunk burst copies nothing.
        let mut rng_clients: Vec<SimRng> = Vec::new();
        sched.reserve(n);
        for (mut rngs, times) in wake {
            if rng_clients.is_empty() {
                rng_clients = rngs;
            } else {
                rng_clients.append(&mut rngs);
            }
            sched.schedule_batch(
                times
                    .into_iter()
                    .map(|(at, c)| (at, Ev::QueryArrival(ClientId(c)))),
            );
        }

        // Mobility: each client's residency clock starts at t = 0 and
        // runs on its own dedicated stream, so enabling more cells (or
        // more clients) never perturbs the workload or fault streams.
        // Single-cell topologies derive no stream and schedule nothing.
        let cells = cfg.cells.cells as usize;
        let mut rng_mobility: Vec<SimRng> = if cfg.cells.is_multi() {
            (0..cfg.num_clients)
                .map(|c| SimRng::for_stream(cfg.seed, StreamId::Mobility(c)))
                .collect()
        } else {
            Vec::new()
        };
        let residency = cfg
            .cells
            .is_multi()
            .then(|| Exp::with_mean(cfg.cells.mean_residency_secs));
        if let Some(res) = &residency {
            sched.schedule_batch((0..cfg.num_clients).map(|c| {
                let first = res.sample(&mut rng_mobility[c as usize]);
                (SimTime::from_secs(first), Ev::Handoff(ClientId(c)))
            }));
        }

        // Cell-major downlink layout: each cell broadcasts on its own
        // channel(s); one cell reproduces the legacy layout exactly.
        let mut downlinks = Vec::with_capacity(cells * 2);
        for _ in 0..cells {
            match cfg.downlink_topology {
                DownlinkTopology::Shared => downlinks.push(Channel::new(cfg.downlink_bps)),
                DownlinkTopology::Dedicated { broadcast_share } => {
                    downlinks.push(Channel::new(cfg.downlink_bps * broadcast_share));
                    downlinks.push(Channel::new(cfg.downlink_bps * (1.0 - broadcast_share)));
                }
            }
        }
        let per_cell_downlinks = downlinks.len() / cells;

        let servers: Vec<Server> = (0..cells)
            .map(|_| {
                let mut server = Server::new(cfg.scheme, cfg.db_size, cfg.window_secs(), sp);
                server.configure_gcore(
                    cfg.gcore_groups,
                    cfg.gcore_retention_intervals as f64 * cfg.broadcast_period_secs,
                );
                server
            })
            .collect();

        Ok(Simulation {
            sp,
            horizon: SimTime::from_secs(cfg.sim_time_secs),
            servers,
            clients: ClientPop::with_cells(client_cfg, cfg.num_clients as usize, cfg.cells.cells),
            downlinks,
            per_cell_downlinks,
            uplink: Channel::new(cfg.uplink_bps),
            update_gen,
            query_gen: QueryGen::new(cfg.workload.query, cfg.db_size, cfg.items_per_query_mean),
            gap_proc: GapProcess::new(
                cfg.p_disconnect,
                cfg.mean_think_secs,
                cfg.mean_disconnect_secs,
            ),
            rng_update,
            rng_clients,
            rng_faults: (0..cfg.num_clients)
                .map(|c| SimRng::for_stream(cfg.seed, StreamId::Fault(c)))
                .collect(),
            ge_bad: vec![false; cfg.num_clients as usize],
            rng_mobility,
            residency,
            query_after_handoff: vec![
                false;
                if cfg.cells.is_multi() {
                    cfg.num_clients as usize
                } else {
                    0
                }
            ],
            mobility: MobilityMetrics::default(),
            eff_downlink: cfg.faults.downlink.with_independent_loss(cfg.p_report_loss),
            down_depth: 0,
            crash_pending_since: None,
            recovery_latency_sum: 0.0,
            inflight_data: std::collections::HashSet::new(),
            faults: FaultMetrics::default(),
            latency: OnlineStats::new(),
            latency_hist: Histogram::new(0.0, 2_000.0, 200),
            oracle: opts.check_consistency.then(Oracle::new),
            disconnections: 0,
            reports_lost: 0,
            tx_bits: 0.0,
            rx_bits: 0.0,
            ticks: 0,
            snap_prev: RunTotals::default(),
            snap_prev_secs: 0.0,
            snap_index: 0,
            action_scratch: Vec::new(),
            deliver_words: Vec::new(),
            plans: (0..cells).map(|_| PlanCache::new()).collect(),
            prev_report_at: vec![SimTime::ZERO; cells],
            plan_hits: 0,
            plan_misses: 0,
            fanout_words_skipped: 0,
            shards: (0..threads).map(|_| ShardScratch::default()).collect(),
            pool,
            sched,
            cfg: cfg.clone(),
            opts,
        })
    }

    /// The downlink channel a message of `class` travels on within
    /// `cell`'s channel group.
    fn downlink_index(&self, cell: usize, class: usize) -> usize {
        let base = cell * self.per_cell_downlinks;
        if self.per_cell_downlinks == 1 || class == CLASS_REPORT {
            base
        } else {
            base + 1
        }
    }

    /// The cell that owns downlink channel `idx`.
    fn cell_of_downlink(&self, idx: usize) -> usize {
        idx / self.per_cell_downlinks
    }

    fn send_downlink(
        &mut self,
        now: SimTime,
        kind_bits: f64,
        class: usize,
        cell: usize,
        payload: DownPayload,
    ) {
        let idx = self.downlink_index(cell, class);
        if let Some(c) = self.downlinks[idx].send(now, kind_bits, class, payload) {
            self.sched.schedule(c.at, Ev::DownlinkDone(idx, c.token));
        }
    }

    /// The cell `client` is currently associated with (where its uplink
    /// traffic lands and its downlink responses originate).
    fn cell_of(&self, client: ClientId) -> usize {
        self.clients.cell_of(client.index()) as usize
    }

    /// Runs the event loop to the horizon and collects metrics.
    pub fn run_to_completion(mut self) -> RunResult {
        while let Some((now, ev)) = self.sched.pop() {
            if now > self.horizon {
                break;
            }
            match ev {
                Ev::Tick => self.on_tick(now),
                Ev::UpdateArrival => self.on_update(now),
                Ev::QueryArrival(c) => self.on_query_arrival(now, c),
                Ev::Reconnect(c) => {
                    let offline_secs = self.clients.reconnect(c.index(), now);
                    self.emit(
                        now,
                        ProbeEvent::Reconnect {
                            client: c,
                            offline_secs,
                        },
                    );
                }
                Ev::DownlinkDone(idx, token) => self.on_downlink_done(now, idx, token),
                Ev::UplinkDone(token) => self.on_uplink_done(now, token),
                Ev::ServerCrash => self.on_server_crash(now),
                Ev::ServerRecover => self.on_server_recover(now),
                Ev::Handoff(c) => self.on_handoff(now, c),
                Ev::HandoffArrive(c, dest) => self.on_handoff_arrive(now, c, dest),
            }
        }
        self.finish()
    }

    fn on_tick(&mut self, now: SimTime) {
        // A crashed server skips the broadcast — the clock keeps ticking
        // (and the snapshot stride with it); clients experience the
        // silent interval exactly like a lost report and fall back on
        // their gap/retry machinery.
        if self.down_depth == 0 {
            // Every cell's server broadcasts its own report on its own
            // downlink, in cell order (one cell = the legacy sequence).
            for cell in 0..self.servers.len() {
                let (report, decision) = self.servers[cell].build_report_shared(now);
                let kind = DownlinkKind::InvalidationReport {
                    content_bits: report.size_bits(&self.sp),
                };
                let bits = kind.size_bits(&self.sp);
                if self.opts.probe.is_some() {
                    let report_kind = ReportKind::of(&report);
                    let window_start_secs = match &*report {
                        ReportPayload::Window(w) => Some(w.window_start.as_secs()),
                        _ => None,
                    };
                    self.emit(
                        now,
                        ProbeEvent::ReportBroadcast {
                            kind: report_kind,
                            bits,
                            window_start_secs,
                        },
                    );
                    if let Some(d) = decision {
                        self.emit(now, ProbeEvent::AdaptiveDecision(d));
                    }
                }
                self.send_downlink(now, bits, kind.class(), cell, DownPayload::Report(report));
            }
            if let Some(since) = self.crash_pending_since.take() {
                // Recovery completes, from the clients' point of view,
                // with the first report built after the server came back.
                let offline_secs = now - since;
                self.faults.recoveries += 1;
                self.recovery_latency_sum += offline_secs;
                self.emit(now, ProbeEvent::ServerRecovered { offline_secs });
            }
        }
        self.sched
            .schedule_in(self.cfg.broadcast_period_secs, Ev::Tick);
        self.ticks += 1;
        let stride = self.opts.probe.as_ref().and_then(|p| p.snapshot_every());
        if let Some(k) = stride {
            if self.ticks.is_multiple_of(u64::from(k.max(1))) {
                self.take_snapshot(now.as_secs());
            }
        }
    }

    /// A scheduled crash wipes the server's volatile state (pending
    /// `Tlb`s, cached report payloads, shared signature state); the
    /// durable update log survives. Overlapping crash windows nest.
    fn on_server_crash(&mut self, now: SimTime) {
        // Crashes are global: the paper's single base station is the
        // whole fixed network here, so every cell's server goes down
        // together (and the tick loop stays silent while any is down).
        let dropped = self.servers.iter_mut().map(Server::crash).sum::<u64>();
        self.down_depth += 1;
        self.faults.server_crashes += 1;
        self.faults.crash_dropped_tlbs += dropped;
        if self.crash_pending_since.is_none() {
            self.crash_pending_since = Some(now);
        }
        self.emit(
            now,
            ProbeEvent::ServerCrash {
                dropped_tlbs: dropped,
            },
        );
        // Nothing a crash does may ever invalidate a client cache entry
        // the oracle would object to — prove it at the boundary.
        self.check_all_consistency();
    }

    /// The crashed server finishes replaying its durable update log and
    /// comes back online (broadcasts resume at the next tick).
    fn on_server_recover(&mut self, _now: SimTime) {
        self.down_depth = self.down_depth.saturating_sub(1);
        if self.down_depth == 0 {
            for server in &mut self.servers {
                server.recover();
            }
        }
        self.check_all_consistency();
    }

    /// Full-population oracle scan (crash/recovery boundaries), over an
    /// all-ones mask in the reusable delivery-word buffer.
    fn check_all_consistency(&mut self) {
        if self.oracle.is_none() {
            return;
        }
        let mut all = std::mem::take(&mut self.deliver_words);
        all.clear();
        all.resize(self.clients.len().div_ceil(64), !0);
        self.check_consistency_sharded(&all);
        self.deliver_words = all;
    }

    /// Forwards a typed event to the attached probe, if any.
    fn emit(&mut self, now: SimTime, event: ProbeEvent) {
        if let Some(p) = self.opts.probe.as_mut() {
            p.on_event(now, &event);
        }
    }

    /// Sums the per-cell server counters into one population-wide view.
    /// With one cell this is `ServerCounters::default().absorb(s)`, i.e.
    /// exactly the legacy single-server counters.
    fn server_counters(&self) -> ServerCounters {
        let mut sc = ServerCounters::default();
        for server in &self.servers {
            sc.absorb(&server.counters());
        }
        sc
    }

    /// Current cumulative counters (the snapshot basis — the same sums
    /// [`Simulation::finish`] folds into [`Metrics`]).
    fn current_totals(&self) -> RunTotals {
        let sc = self.server_counters();
        let mut t = RunTotals {
            reports_broadcast: sc.window_reports
                + sc.enlarged_reports
                + sc.bs_reports
                + sc.at_reports
                + sc.sig_reports,
            tlbs_received: sc.tlbs_received,
            checks_processed: sc.checks_processed,
            disconnections: self.disconnections,
            reports_lost: self.reports_lost,
            uplink_losses: self.faults.uplink_losses,
            server_crashes: self.faults.server_crashes,
            handoffs: self.mobility.handoffs,
            client_tx_bits: self.tx_bits,
            client_rx_bits: self.rx_bits,
            events_scheduled: self.sched.events_scheduled(),
            events_delivered: self.sched.events_delivered(),
            ..RunTotals::default()
        };
        // Dense column scan: two contiguous slices, no per-client view
        // construction and no cloning — cheap enough to sample every
        // interval at a million clients.
        for (c, cache) in self
            .clients
            .counters_col()
            .iter()
            .zip(self.clients.caches_col())
        {
            t.queries_issued += c.queries_issued;
            t.queries_answered += c.queries_answered;
            t.item_hits += c.item_hits;
            t.item_misses += c.item_misses;
            t.fault_retries += c.retries_sent;
            t.cache_evictions += cache.evictions();
        }
        t
    }

    /// Closes the current snapshot interval at `end_secs` and hands the
    /// delta to the probe.
    fn take_snapshot(&mut self, end_secs: f64) {
        let totals = self.current_totals();
        let snap = IntervalSnapshot {
            index: self.snap_index,
            start_secs: self.snap_prev_secs,
            end_secs,
            delta: totals.delta_since(&self.snap_prev),
            queue_high_water: self.sched.queue_high_water(),
            slot_high_water: self.sched.slot_high_water(),
            sched_cascades: self.sched.cascades(),
            plan_decodes: self.plans.iter().map(PlanCache::decodes).sum(),
            plan_hits: self.plan_hits,
            plan_misses: self.plan_misses,
            fanout_words_skipped: self.fanout_words_skipped,
        };
        if let Some(p) = self.opts.probe.as_mut() {
            p.on_snapshot(&snap);
        }
        self.snap_prev = totals;
        self.snap_prev_secs = end_secs;
        self.snap_index += 1;
    }

    fn on_update(&mut self, now: SimTime) {
        let items = self.update_gen.next_txn_items(&mut self.rng_update);
        // Zero cross-cell update skew: one transaction stream, applied
        // to every cell's server at the same instant — so a handoff is
        // observationally a disconnection of the same duration (the
        // cross-cell equivalence battery pins exactly this).
        for server in &mut self.servers {
            server.apply_txn(now, &items);
        }
        if let Some(oracle) = &mut self.oracle {
            for &item in &items {
                oracle.record_update(now, item);
            }
        }
        let next = self.update_gen.next_interarrival(&mut self.rng_update);
        self.sched.schedule_in(next, Ev::UpdateArrival);
    }

    fn on_query_arrival(&mut self, now: SimTime, c: ClientId) {
        if !self.clients.is_connected(c.index()) {
            // Only a handoff blackout can strand a think-scheduled
            // arrival on a disconnected client (a legacy doze delivers
            // `Reconnect` before the same-instant `QueryArrival`); park
            // it and re-issue when the client reaches its new cell.
            self.query_after_handoff[c.index()] = true;
            return;
        }
        let items = self
            .query_gen
            .next_query_items(&mut self.rng_clients[c.index()]);
        self.clients.start_query(c.index(), now, &items);
        // The query waits for the next broadcast report (§2).
    }

    /// A client's cell residency expired. If the client is mid-flight —
    /// resolving a query, dozing, or holding an unresolved reconnection
    /// gap — the handoff is deferred by a fresh residency period so no
    /// in-flight traffic or salvage state crosses a cell boundary.
    /// Otherwise the roam coin picks a destination (possibly the same
    /// cell: a stay is a zero-distance handoff), the radio goes dark for
    /// the handoff blackout, and arrival is scheduled. Both arms of the
    /// coin draw and disconnect identically, which is what lets the
    /// equivalence battery compare `p_roam = 1` against `p_roam = 0`
    /// runs bit-for-bit.
    fn on_handoff(&mut self, now: SimTime, c: ClientId) {
        let i = c.index();
        if self.clients.has_pending_query(i)
            || !self.clients.is_connected(i)
            || self.clients.has_open_gap(i)
        {
            self.mobility.handoffs_deferred += 1;
            let res = self.residency.as_ref().expect("mobility event armed");
            let next = res.sample(&mut self.rng_mobility[i]);
            self.sched.schedule_in(next, Ev::Handoff(c));
            return;
        }
        let topo = self.cfg.cells;
        let rng = &mut self.rng_mobility[i];
        let roam = rng.coin(topo.p_roam);
        let from_cell = self.clients.cell_of(i);
        let dest = if !roam {
            from_cell
        } else if topo.cells == 2 {
            1 - from_cell
        } else {
            // Uniform over the other cells: draw in [0, cells-1) and
            // skip past the current cell.
            let r = rng.next_below(u64::from(topo.cells) - 1) as u32;
            if r >= from_cell {
                r + 1
            } else {
                r
            }
        };
        let next_residency = self
            .residency
            .as_ref()
            .expect("mobility event armed")
            .sample(&mut self.rng_mobility[i]);
        self.clients.disconnect(i, now);
        self.sched
            .schedule_in(topo.handoff_secs, Ev::HandoffArrive(c, dest));
        // The next residency clock starts at arrival.
        self.sched
            .schedule_in(topo.handoff_secs + next_residency, Ev::Handoff(c));
    }

    /// The handoff blackout ended: re-associate with the destination
    /// cell and reconnect. A roamer's `Tlb` now refers to another cell's
    /// broadcast history; under zero cross-cell skew the destination
    /// server's reports vouch for the same updates, so the regular
    /// reconnection-gap machinery (window coverage, `Tlb` uplinks, the
    /// AFW/AAW long-disconnection recovery) takes it from here exactly
    /// as if the client had dozed in place.
    fn on_handoff_arrive(&mut self, now: SimTime, c: ClientId, dest: u32) {
        let i = c.index();
        let from_cell = self.clients.cell_of(i);
        self.clients.handoff(i, dest);
        let offline_secs = self.clients.reconnect(i, now);
        self.mobility.handoffs += 1;
        self.emit(
            now,
            ProbeEvent::Handoff {
                client: c,
                from_cell,
                to_cell: dest,
                offline_secs,
            },
        );
        if std::mem::take(&mut self.query_after_handoff[i]) {
            // The think period expired mid-blackout: the parked query
            // is issued now, at the new cell.
            self.on_query_arrival(now, c);
        }
    }

    fn on_downlink_done(&mut self, now: SimTime, idx: usize, token: u64) {
        let Some(delivered) = self.downlinks[idx].complete(now, token) else {
            return; // stale completion (preempted transmission)
        };
        if let Some(c) = delivered.next {
            self.sched.schedule(c.at, Ev::DownlinkDone(idx, c.token));
        }
        match delivered.msg {
            DownPayload::Report(report) => {
                // The broadcasting cell is encoded by the channel index
                // (downlinks are laid out cell-major), so the payload
                // needs no cell tag.
                let cell = self.cell_of_downlink(idx);
                // Phase 0 (serial): decide who hears this broadcast,
                // building the delivery mask as bitmap words. Fault
                // coins and the rx-bits accumulation stay in
                // client-index order on dedicated per-client streams, so
                // the coin schedule and the float addition order match
                // the serial engine bit for bit at any thread count.
                let mut deliver = std::mem::take(&mut self.deliver_words);
                deliver.clear();
                deliver.resize(self.clients.len().div_ceil(64), 0);
                if !self.eff_downlink.is_active() {
                    // Every connected member of the broadcasting cell
                    // hears it: the mask is the word-wise intersection
                    // of the connected bitmap and the cell-membership
                    // bitmap (all-ones at one cell, so this is exactly
                    // the legacy connected copy). rx-bits accumulates
                    // the same constant once per set bit — the identical
                    // sequence of additions the per-client loop
                    // performed.
                    for ((d, &cw), &mw) in deliver
                        .iter_mut()
                        .zip(self.clients.connected_words())
                        .zip(self.clients.cell_words(cell as u32))
                    {
                        *d = cw & mw;
                    }
                    for &w in &deliver {
                        for _ in 0..w.count_ones() {
                            self.rx_bits += delivered.bits;
                        }
                    }
                } else {
                    let df = self.eff_downlink;
                    let p_exit = df.p_exit_burst();
                    for i in 0..self.clients.len() {
                        if self.clients.cell_of(i) != cell as u32 {
                            // Another cell's broadcast: this client's
                            // radio path is not involved at all. Its
                            // chain evolves once per tick on its OWN
                            // cell's broadcast, so the per-client draw
                            // schedule stays aligned with that cell's
                            // broadcast clock (and is untouched at one
                            // cell, where this arm never fires).
                            continue;
                        }
                        // The Gilbert–Elliott chain evolves for every
                        // member of the cell, listening or not —
                        // burstiness is a property of the radio path,
                        // and a draw schedule independent of
                        // connectivity keeps each client's stream
                        // aligned with the broadcast clock.
                        let bad = if self.ge_bad[i] {
                            !self.rng_faults[i].coin(p_exit)
                        } else {
                            df.p_enter_burst > 0.0 && self.rng_faults[i].coin(df.p_enter_burst)
                        };
                        self.ge_bad[i] = bad;
                        if !self.clients.is_connected(i) {
                            continue; // dozing clients miss the broadcast
                        }
                        let p = if bad { df.p_loss_bad } else { df.p_loss_good };
                        if p > 0.0 && self.rng_faults[i].coin(p) {
                            self.reports_lost += 1;
                            if bad {
                                self.faults.downlink_losses_burst += 1;
                            } else {
                                self.faults.downlink_losses_good += 1;
                            }
                            if self.clients.has_pending_query(i) {
                                // The query must now wait at least one
                                // more interval for a report.
                                self.faults.queries_stretched += 1;
                            }
                            self.emit(
                                now,
                                ProbeEvent::ReportLost {
                                    client: ClientId(i as u32),
                                    in_burst: bad,
                                },
                            );
                            continue;
                        }
                        self.rx_bits += delivered.bits;
                        deliver[i / 64] |= 1u64 << (i % 64);
                    }
                }
                self.fanout_words_skipped += deliver.iter().filter(|&&w| w == 0).count() as u64;
                // Decode this tick's invalidation plan once (serial),
                // keyed by the dominant Tlb bucket: every client that
                // heard the previous report holds exactly its broadcast
                // time. Shards then read the plan lock-free.
                let mut plan = std::mem::take(&mut self.plans[cell]);
                plan.decode_for_tick(&report, self.prev_report_at[cell], self.cfg.db_size);
                // Phase 1 (parallel): each shard applies the report to
                // its contiguous client range, touching only its own
                // clients and scratch.
                let probing = self.opts.probe.is_some();
                let mut shards = std::mem::take(&mut self.shards);
                for sh in &mut shards {
                    sh.actions.clear();
                    sh.outcomes.clear();
                    sh.plan = PlanStats::default();
                }
                self.clients.for_each_delivered(
                    &self.pool,
                    &deliver,
                    &mut shards,
                    |i, mut client, sh| {
                        let before =
                            probing.then(|| (client.counters(), client.cache().evictions()));
                        let a0 = sh.actions.len();
                        client.on_report_planned(
                            now,
                            &report,
                            &plan,
                            &mut sh.actions,
                            &mut sh.plan,
                        );
                        sh.outcomes.push(ShardOutcome {
                            client: i,
                            actions: (sh.actions.len() - a0) as u32,
                            before,
                        });
                    },
                );
                self.plans[cell] = plan;
                self.prev_report_at[cell] = report.broadcast_at();
                // Phase 2 (serial merge, client-index order): replay
                // each client's actions and observations exactly as the
                // serial loop interleaved them — the scheduler, the
                // channels, the stats and the per-client RNG streams
                // are only touched here.
                for shard in &mut shards {
                    self.plan_hits += shard.plan.hits;
                    self.plan_misses += shard.plan.misses;
                    let ShardScratch {
                        actions, outcomes, ..
                    } = shard;
                    let mut acts = actions.drain(..);
                    for o in outcomes.drain(..) {
                        let c = ClientId(o.client as u32);
                        for _ in 0..o.actions {
                            let action = acts.next().expect("shard recorded action count");
                            self.apply_action(now, c, action);
                        }
                        self.post_observe(now, c, o.before);
                    }
                }
                self.shards = shards;
                // Oracle pass after the merge (actions never touch a
                // cache, so checking here sees exactly the state the
                // per-client serial check saw), sharded over the pool.
                self.check_consistency_sharded(&deliver);
                self.deliver_words = deliver;
            }
            DownPayload::Data { item, dest } => {
                // The response left the downlink: a later re-request for
                // this item is a fresh request, not a duplicate.
                self.inflight_data.remove(&(dest, item));
                // Delivered copies reflect the version current at delivery
                // (see DESIGN.md §3: this removes the report/fetch race a
                // bit-level model would have to resolve with torn reads).
                // The serving cell is the channel's cell; under zero
                // cross-cell skew every server holds the same version.
                let version = self.servers[self.cell_of_downlink(idx)].version(item);
                self.rx_bits += delivered.bits;
                let before = self.pre_observe(dest.index());
                let mut actions = std::mem::take(&mut self.action_scratch);
                self.clients.client_mut(dest.index()).on_data_into(
                    now,
                    item,
                    version,
                    &mut actions,
                );
                self.process_actions(now, dest, &mut actions);
                self.action_scratch = actions;
                self.post_observe(now, dest, before);
                self.check_consistency(dest.index());
                // Snooping extension: the downlink is a broadcast medium,
                // so every other connected client overhears the item.
                // Same three-phase split as the report fan-out, minus
                // the merge: snooped items produce no actions.
                if self.cfg.snoop_broadcasts {
                    // Connected members of the serving cell minus the
                    // addressed client (a downlink only covers its own
                    // cell); the rx-bits additions are the same sequence
                    // the per-client loop performed (one constant per
                    // set bit, ascending index).
                    let cell = self.cell_of_downlink(idx);
                    let mut deliver = std::mem::take(&mut self.deliver_words);
                    deliver.clear();
                    deliver.extend_from_slice(self.clients.connected_words());
                    for (d, &mw) in deliver.iter_mut().zip(self.clients.cell_words(cell as u32)) {
                        *d &= mw;
                    }
                    let d = dest.index();
                    deliver[d / 64] &= !(1u64 << (d % 64));
                    for &w in &deliver {
                        for _ in 0..w.count_ones() {
                            self.rx_bits += delivered.bits;
                        }
                    }
                    self.fanout_words_skipped += deliver.iter().filter(|&&w| w == 0).count() as u64;
                    self.clients.for_each_delivered(
                        &self.pool,
                        &deliver,
                        &mut self.shards,
                        |_, mut client, _| client.on_snooped_data(now, item, version),
                    );
                    self.check_consistency_sharded(&deliver);
                    self.deliver_words = deliver;
                }
            }
            DownPayload::Validity { dest, asof, valid } => {
                if !self.clients.is_connected(dest.index()) {
                    return; // verdict lost; the client will re-check
                }
                self.rx_bits += delivered.bits;
                let before = self.pre_observe(dest.index());
                let mut actions = std::mem::take(&mut self.action_scratch);
                self.clients.client_mut(dest.index()).on_validity_into(
                    now,
                    asof,
                    &valid,
                    &mut actions,
                );
                self.process_actions(now, dest, &mut actions);
                self.action_scratch = actions;
                self.post_observe(now, dest, before);
                self.check_consistency(dest.index());
            }
            DownPayload::GroupVerdict {
                dest,
                asof,
                covered,
                stale,
            } => {
                if !self.clients.is_connected(dest.index()) {
                    return; // verdict lost; the client will re-check
                }
                self.rx_bits += delivered.bits;
                let before = self.pre_observe(dest.index());
                let mut actions = std::mem::take(&mut self.action_scratch);
                self.clients
                    .client_mut(dest.index())
                    .on_group_validity_into(now, asof, covered, &stale, &mut actions);
                self.process_actions(now, dest, &mut actions);
                self.action_scratch = actions;
                self.post_observe(now, dest, before);
                self.check_consistency(dest.index());
            }
        }
    }

    fn on_uplink_done(&mut self, now: SimTime, token: u64) {
        let Some(delivered) = self.uplink.complete(now, token) else {
            return;
        };
        if let Some(c) = delivered.next {
            self.sched.schedule(c.at, Ev::UplinkDone(c.token));
        }
        let UpMsg { from, kind, lost } = delivered.msg;
        if lost {
            return; // the fault coin fell at send time; tallied there
        }
        if self.down_depth > 0 {
            // The request reaches a crashed server: dead air. The
            // client's retry machinery (or graceful degradation) takes
            // it from here.
            self.faults.crash_dropped_uplinks += 1;
            return;
        }
        // Uplink traffic is routed at delivery to the sender's CURRENT
        // cell: that server answers, on that cell's downlink group. (A
        // client with in-flight traffic defers its handoff, so the cell
        // cannot change between send and delivery.)
        let cell = self.cell_of(from);
        match kind {
            UplinkKind::QueryRequest { item } => {
                // Retry-armed clients cannot distinguish a lost request
                // from downlink queueing delay, so duplicates of a
                // request whose answer is already queued are expected;
                // answering each would flood the saturated downlink
                // with repeated full items. The set stays empty (and
                // this path untouched) while no fault is active.
                if self.cfg.faults.is_active() && !self.inflight_data.insert((from, item)) {
                    self.faults.duplicate_requests_ignored += 1;
                    return;
                }
                let dk = DownlinkKind::DataItem { item };
                let bits = dk.size_bits(&self.sp);
                self.send_downlink(
                    now,
                    bits,
                    dk.class(),
                    cell,
                    DownPayload::Data { item, dest: from },
                );
            }
            UplinkKind::TlbReport { tlb_secs } => {
                self.servers[cell].receive_tlb(SimTime::from_secs(tlb_secs));
            }
            UplinkKind::CheckRequest { entries } => {
                let typed: Vec<(ItemId, SimTime)> = entries
                    .iter()
                    .map(|&(item, secs)| (item, SimTime::from_secs(secs)))
                    .collect();
                let verdict = self.servers[cell].process_check(now, &typed);
                let dk = DownlinkKind::ValidityReport {
                    checked: verdict.checked,
                    valid: verdict.valid.clone(),
                    asof_secs: verdict.asof.as_secs(),
                };
                let bits = dk.size_bits(&self.sp);
                self.send_downlink(
                    now,
                    bits,
                    dk.class(),
                    cell,
                    DownPayload::Validity {
                        dest: from,
                        asof: verdict.asof,
                        valid: verdict.valid,
                    },
                );
            }
            UplinkKind::GroupCheckRequest { groups } => {
                let typed: Vec<(u32, SimTime)> = groups
                    .iter()
                    .map(|&(g, secs)| (g, SimTime::from_secs(secs)))
                    .collect();
                let verdict = self.servers[cell].process_group_check(now, &typed);
                let dk = DownlinkKind::GroupValidity {
                    stale: verdict.stale.clone(),
                    covered: verdict.covered,
                    asof_secs: verdict.asof.as_secs(),
                };
                let bits = dk.size_bits(&self.sp);
                self.send_downlink(
                    now,
                    bits,
                    dk.class(),
                    cell,
                    DownPayload::GroupVerdict {
                        dest: from,
                        asof: verdict.asof,
                        covered: verdict.covered,
                        stale: verdict.stale,
                    },
                );
            }
        }
    }

    /// Applies (and drains) a client's pending actions; `actions` is
    /// always left empty, ready for the next delivery.
    fn process_actions(&mut self, now: SimTime, c: ClientId, actions: &mut Vec<ClientAction>) {
        for action in actions.drain(..) {
            self.apply_action(now, c, action);
        }
    }

    /// Applies one client action to the shared simulation state. Every
    /// scheduler, channel, stats and RNG touch a client triggers funnels
    /// through here, in client-index order — the serial half of the
    /// sharded fan-out's determinism argument.
    fn apply_action(&mut self, now: SimTime, c: ClientId, action: ClientAction) {
        match action {
            ClientAction::Uplink(kind) => {
                let bits = kind.size_bits(&self.sp);
                let class = kind.class();
                self.tx_bits += bits;
                // Uplink-fault coin, drawn from the sender's dedicated
                // stream — `apply_action` only ever runs in the serial
                // phases, so the schedule is thread-invariant. A lost
                // message still charges the radio and the channel.
                let p = self.cfg.faults.p_uplink_loss;
                let lost = p > 0.0 && self.rng_faults[c.index()].coin(p);
                if lost {
                    self.faults.uplink_losses += 1;
                    self.emit(now, ProbeEvent::UplinkLost { client: c });
                }
                let completion = self.uplink.send(
                    now,
                    bits,
                    class,
                    UpMsg {
                        from: c,
                        kind,
                        lost,
                    },
                );
                if let Some(comp) = completion {
                    self.sched.schedule(comp.at, Ev::UplinkDone(comp.token));
                }
            }
            ClientAction::QueryDone(outcome) => {
                let latency = outcome.completed_at - outcome.issued_at;
                self.latency.record(latency);
                self.latency_hist.record(latency);
                self.emit(
                    now,
                    ProbeEvent::QueryResolved {
                        client: c,
                        latency_secs: latency,
                        hits: outcome.hits,
                        misses: outcome.misses,
                    },
                );
                // §4: the gap after a completion is a think period or,
                // with probability p, a disconnection.
                let gap = self.gap_proc.sample(&mut self.rng_clients[c.index()]);
                match gap.kind {
                    GapKind::Think => {
                        self.sched
                            .schedule_in(gap.duration_secs, Ev::QueryArrival(c));
                    }
                    GapKind::Disconnect => {
                        self.disconnections += 1;
                        self.clients.disconnect(c.index(), now);
                        self.emit(
                            now,
                            ProbeEvent::Disconnect {
                                client: c,
                                for_secs: gap.duration_secs,
                            },
                        );
                        // Reconnect is scheduled before the query at
                        // the same instant; FIFO tie-breaking delivers
                        // it first.
                        self.sched.schedule_in(gap.duration_secs, Ev::Reconnect(c));
                        self.sched
                            .schedule_in(gap.duration_secs, Ev::QueryArrival(c));
                    }
                }
            }
        }
    }

    /// Counter state captured before a client processes a message, so
    /// limbo salvage and cache-population changes surface as probe
    /// events without threading observers through the client crate.
    /// `None` (no probe attached) makes the pre/post pair free.
    fn pre_observe(&self, idx: usize) -> Option<(ClientCounters, u64)> {
        self.opts.probe.as_ref()?;
        Some((
            self.clients.counters(idx),
            self.clients.cache(idx).evictions(),
        ))
    }

    /// Emits events for whatever the paired [`Simulation::pre_observe`]
    /// saw change.
    fn post_observe(&mut self, now: SimTime, c: ClientId, before: Option<(ClientCounters, u64)>) {
        let Some((before, ev_before)) = before else {
            return;
        };
        let after = self.clients.counters(c.index());
        let ev_after = self.clients.cache(c.index()).evictions();
        let salvaged = after.salvaged - before.salvaged;
        let dropped = after.limbo_dropped - before.limbo_dropped;
        if salvaged + dropped > 0 {
            self.emit(
                now,
                ProbeEvent::LimboSalvage {
                    client: c,
                    salvaged,
                    dropped,
                },
            );
        }
        if after.full_drops > before.full_drops {
            self.emit(
                now,
                ProbeEvent::CacheEvent {
                    client: c,
                    kind: CacheEventKind::FullDrop,
                },
            );
        }
        if ev_after > ev_before {
            self.emit(
                now,
                ProbeEvent::CacheEvent {
                    client: c,
                    kind: CacheEventKind::Evictions {
                        count: ev_after - ev_before,
                    },
                },
            );
        }
    }

    fn check_consistency(&mut self, idx: usize) {
        if let Some(oracle) = &mut self.oracle {
            oracle.assert_cache_consistent(ClientId(idx as u32), self.clients.cache(idx));
        }
    }

    /// Oracle pass over every client marked in `deliver` — the
    /// read-only full-cache scans of a broadcast tick, sharded over the
    /// pool. Violations come back in client-index order (whatever the
    /// shard geometry), so the first one re-raised here is the same
    /// panic, with the same message, the per-client serial check
    /// produced.
    fn check_consistency_sharded(&mut self, deliver: &[u64]) {
        let Some(oracle) = self.oracle.as_ref() else {
            return;
        };
        // Columnar scan: no per-call `(ClientId, &cache)` list — the
        // oracle walks the cache column directly, masked by `deliver`.
        let (checks, violations) = oracle.scan_cols(
            self.clients.caches_col(),
            deliver,
            &self.pool,
            self.shards.len(),
        );
        self.oracle
            .as_mut()
            .expect("checked above")
            .note_checks(checks);
        if let Some(v) = violations.first() {
            panic!("{v}");
        }
    }

    fn finish(mut self) -> RunResult {
        // Close the last (possibly partial) interval so snapshot deltas
        // telescope exactly to the final metrics.
        let wants_snapshots = self
            .opts
            .probe
            .as_ref()
            .and_then(|p| p.snapshot_every())
            .is_some();
        if wants_snapshots {
            self.take_snapshot(self.horizon.as_secs());
        }
        let horizon = self.horizon;
        let up = self.uplink.stats(horizon);
        let totals = self.current_totals();
        let mut clients = ClientStats::default();
        let mut faults = self.faults;
        faults.retries_sent = totals.fault_retries;
        for c in self.clients.counters_col() {
            clients.absorb(c);
            faults.backoff_exhaustions += c.backoff_exhaustions;
        }
        if self.cfg.faults.is_active() {
            // Duplicate Tlbs also occur naturally (two clients sharing a
            // last-report time reconnect in one interval); they only
            // belong in the *fault* report when a fault plan could have
            // caused them — and recording them unconditionally would
            // surface a `faults` field in fault-free legacy renderings.
            faults.duplicate_tlbs_ignored = self.server_counters().duplicate_tlbs;
        }
        faults.mean_recovery_latency_secs = if faults.recoveries == 0 {
            0.0
        } else {
            self.recovery_latency_sum / faults.recoveries as f64
        };
        // Aggregate downlink accounting across channels; utilization is
        // bandwidth-weighted so a Shared run and a Dedicated run report
        // comparable figures.
        let mut down_bits = [0.0f64; 3];
        let mut down_util_weighted = 0.0;
        let mut total_bw = 0.0;
        let mut preemptions = 0u64;
        for ch in &self.downlinks {
            let s = ch.stats(horizon);
            for (acc, bits) in down_bits.iter_mut().zip(s.bits_by_class) {
                *acc += bits;
            }
            down_util_weighted += s.utilization * ch.rate_bps();
            total_bw += ch.rate_bps();
            preemptions += s.preemptions;
        }
        let validity_bits = up.bits_by_class[CLASS_CHECK];
        let energy_total =
            self.tx_bits * self.cfg.energy_tx_per_bit + self.rx_bits * self.cfg.energy_rx_per_bit;
        let (answered, hits, misses) = (
            totals.queries_answered,
            totals.item_hits,
            totals.item_misses,
        );
        let metrics = Metrics {
            queries_answered: answered,
            uplink_validity_bits_per_query: if answered == 0 {
                0.0
            } else {
                validity_bits / answered as f64
            },
            queries_issued: totals.queries_issued,
            item_hits: hits,
            item_misses: misses,
            hit_ratio: if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
            mean_query_latency_secs: self.latency.mean(),
            p95_query_latency_secs: self.latency_hist.quantile(0.95),
            uplink_validity_bits: validity_bits,
            uplink_total_bits: up.bits_by_class.iter().sum(),
            downlink_report_bits: down_bits[0],
            downlink_validity_bits: down_bits[1],
            downlink_data_bits: down_bits[2],
            downlink_utilization: down_util_weighted / total_bw,
            uplink_utilization: up.utilization,
            downlink_preemptions: preemptions,
            client_tx_bits: self.tx_bits,
            client_rx_bits: self.rx_bits,
            energy_total,
            energy_per_query: if answered == 0 {
                0.0
            } else {
                energy_total / answered as f64
            },
            reports_lost: self.reports_lost,
            server: self.server_counters().into(),
            clients,
            cache_evictions: totals.cache_evictions,
            disconnections: self.disconnections,
            events_processed: self.sched.events_delivered(),
            sim_time_secs: self.cfg.sim_time_secs,
            faults,
            mobility: self.mobility,
        };
        RunResult {
            config: self.cfg,
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobicache_model::{Scheme, Workload};

    fn short_cfg(scheme: Scheme) -> SimConfig {
        let mut cfg = SimConfig::paper_default().with_scheme(scheme);
        cfg.sim_time_secs = 4_000.0;
        cfg.db_size = 1_000;
        cfg.num_clients = 20;
        cfg
    }

    #[test]
    fn every_scheme_runs_and_answers_queries() {
        for scheme in Scheme::ALL {
            let cfg = short_cfg(scheme);
            let result = run(&cfg, RunOptions::new().check_consistency(true))
                .unwrap_or_else(|e| panic!("{scheme:?}: {e}"));
            let m = &result.metrics;
            assert!(m.queries_answered > 0, "{scheme:?} answered none");
            assert!(
                m.queries_answered <= m.queries_issued,
                "{scheme:?} answered more than issued"
            );
            assert!(m.item_hits + m.item_misses > 0, "{scheme:?}");
            assert!(m.downlink_report_bits > 0.0, "{scheme:?} sent no reports");
        }
    }

    #[test]
    fn sharded_fanout_is_bit_identical_for_every_scheme() {
        // The tentpole contract: threads only trade wall time. The full
        // Debug rendering of the metrics (every counter and every float)
        // must match the serial run exactly.
        for scheme in Scheme::ALL {
            let cfg = short_cfg(scheme);
            let serial = run(&cfg, RunOptions::default()).unwrap();
            for threads in [2, 4, 0] {
                let sharded =
                    run(&cfg.clone().with_threads(threads), RunOptions::default()).unwrap();
                assert_eq!(
                    format!("{:?}", serial.metrics),
                    format!("{:?}", sharded.metrics),
                    "{scheme:?} diverged at threads={threads}"
                );
            }
        }
    }

    #[test]
    fn sharding_is_bit_identical_under_loss_and_snooping() {
        // Report loss draws serial coins; snooping parallelises a second
        // phase; the oracle checks every delivery. All three must
        // survive sharding unchanged.
        let mut cfg = short_cfg(Scheme::Aaw);
        cfg.p_report_loss = 0.2;
        cfg.snoop_broadcasts = true;
        let serial = run(&cfg, RunOptions::new().check_consistency(true)).unwrap();
        let sharded = run(
            &cfg.clone().with_threads(4),
            RunOptions::new().check_consistency(true),
        )
        .unwrap();
        assert!(serial.metrics.reports_lost > 0);
        assert_eq!(
            format!("{:?}", serial.metrics),
            format!("{:?}", sharded.metrics)
        );
    }

    #[test]
    fn more_threads_than_clients_is_fine() {
        let mut cfg = short_cfg(Scheme::Bs);
        cfg.num_clients = 3;
        let serial = run(&cfg, RunOptions::default()).unwrap();
        let sharded = run(&cfg.clone().with_threads(64), RunOptions::default()).unwrap();
        assert_eq!(
            format!("{:?}", serial.metrics),
            format!("{:?}", sharded.metrics)
        );
    }

    #[test]
    fn pool_lanes_are_capped_by_the_host() {
        // 64 requested threads split 500 clients into 8 chunks of 64,
        // but the engine's own pool spawns no more lanes than the host
        // has cores — so a large validated `threads` cannot exhaust the
        // process's thread limit — and the digest is the serial one.
        let mut cfg = short_cfg(Scheme::Aaw);
        cfg.num_clients = 500;
        cfg.sim_time_secs = 1_000.0;
        let serial = run(&cfg, RunOptions::new().check_consistency(true)).unwrap();
        let sim = Simulation::new(
            &cfg.clone().with_threads(64),
            RunOptions::new().check_consistency(true),
        )
        .unwrap();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!(sim.pool.threads() <= cores, "{} lanes", sim.pool.threads());
        assert_eq!(sim.shards.len(), 64);
        assert_eq!(
            format!("{:?}", serial.metrics),
            format!("{:?}", sim.run_to_completion().metrics)
        );
    }

    #[test]
    fn same_seed_same_metrics() {
        let cfg = short_cfg(Scheme::Aaw).with_workload(Workload::hotcold());
        let a = run(&cfg, RunOptions::default()).unwrap();
        let b = run(&cfg, RunOptions::default()).unwrap();
        assert_eq!(a.metrics.queries_answered, b.metrics.queries_answered);
        assert_eq!(a.metrics.item_hits, b.metrics.item_hits);
        assert_eq!(
            a.metrics.uplink_validity_bits,
            b.metrics.uplink_validity_bits
        );
        assert_eq!(a.metrics.events_processed, b.metrics.events_processed);
    }

    #[test]
    fn different_seed_different_trace() {
        let cfg = short_cfg(Scheme::Bs);
        let a = run(&cfg, RunOptions::default()).unwrap();
        let b = run(&cfg.clone().with_seed(999), RunOptions::default()).unwrap();
        assert_ne!(a.metrics.events_processed, b.metrics.events_processed);
    }

    #[test]
    fn bs_scheme_has_zero_validity_uplink() {
        let result = run(&short_cfg(Scheme::Bs), RunOptions::default()).unwrap();
        assert_eq!(result.metrics.uplink_validity_bits, 0.0);
        assert_eq!(result.metrics.clients.tlbs_sent, 0);
        assert_eq!(result.metrics.clients.checks_sent, 0);
    }

    #[test]
    fn adaptive_scheme_uses_tlbs_not_checks() {
        let result = run(&short_cfg(Scheme::Afw), RunOptions::default()).unwrap();
        assert!(
            result.metrics.clients.tlbs_sent > 0,
            "long disconnects must trigger Tlbs"
        );
        assert_eq!(result.metrics.clients.checks_sent, 0);
        assert!(
            result.metrics.server.bs_reports > 0,
            "Tlbs must trigger BS broadcasts"
        );
        assert!(result.metrics.server.window_reports > 0, "but not always");
    }

    #[test]
    fn checking_scheme_uses_checks_not_tlbs() {
        let result = run(&short_cfg(Scheme::SimpleChecking), RunOptions::default()).unwrap();
        assert!(result.metrics.clients.checks_sent > 0);
        assert_eq!(result.metrics.clients.tlbs_sent, 0);
        assert!(result.metrics.server.checks_processed > 0);
        assert_eq!(result.metrics.server.bs_reports, 0);
    }

    #[test]
    fn gcore_scheme_sends_group_checks() {
        let result = run(
            &short_cfg(Scheme::Gcore),
            RunOptions::new().check_consistency(true),
        )
        .unwrap();
        assert!(result.metrics.clients.checks_sent > 0);
        assert!(result.metrics.server.checks_processed > 0);
        assert_eq!(result.metrics.clients.tlbs_sent, 0);
        assert!(result.metrics.uplink_validity_bits > 0.0);
    }

    #[test]
    fn gcore_uplinks_less_than_full_cache_checking() {
        let mut base = short_cfg(Scheme::Gcore).with_workload(Workload::hotcold());
        base.sim_time_secs = 8_000.0;
        base.p_disconnect = 0.3;
        let gcore = run(&base, RunOptions::default()).unwrap();
        let sc = run(
            &base.clone().with_scheme(Scheme::SimpleChecking),
            RunOptions::default(),
        )
        .unwrap();
        assert!(
            gcore.metrics.uplink_validity_bits < sc.metrics.uplink_validity_bits,
            "grouping must reduce checking uplink: {} vs {}",
            gcore.metrics.uplink_validity_bits,
            sc.metrics.uplink_validity_bits
        );
    }

    #[test]
    fn hotcold_hits_more_than_uniform() {
        let mut uni = short_cfg(Scheme::SimpleChecking);
        uni.sim_time_secs = 8_000.0;
        let mut hot = uni.clone().with_workload(Workload::hotcold());
        hot.db_size = 1_000; // cache 2 % = 20 items << 100 hot items, still far better locality
        let u = run(&uni, RunOptions::default()).unwrap();
        let h = run(&hot, RunOptions::default()).unwrap();
        assert!(
            h.metrics.hit_ratio > u.metrics.hit_ratio + 0.05,
            "hotcold {} vs uniform {}",
            h.metrics.hit_ratio,
            u.metrics.hit_ratio
        );
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = short_cfg(Scheme::Bs);
        cfg.downlink_bps = 0.0;
        assert!(run(&cfg, RunOptions::default()).is_err());
    }

    #[test]
    fn report_overhead_shows_up_for_bs() {
        // BS reports are ~2N bits every period; TS windows are tiny.
        let bs = run(&short_cfg(Scheme::Bs), RunOptions::default()).unwrap();
        let sc = run(&short_cfg(Scheme::SimpleChecking), RunOptions::default()).unwrap();
        assert!(
            bs.metrics.downlink_report_bits > 3.0 * sc.metrics.downlink_report_bits,
            "bs {} vs sc {}",
            bs.metrics.downlink_report_bits,
            sc.metrics.downlink_report_bits
        );
    }

    #[test]
    fn dedicated_broadcast_channel_runs_consistently() {
        for scheme in [Scheme::Bs, Scheme::Aaw, Scheme::SimpleChecking] {
            let mut cfg = short_cfg(scheme);
            cfg.downlink_topology = DownlinkTopology::Dedicated {
                broadcast_share: 0.3,
            };
            let result = run(&cfg, RunOptions::new().check_consistency(true))
                .unwrap_or_else(|e| panic!("{scheme:?}: {e}"));
            assert!(result.metrics.queries_answered > 0, "{scheme:?}");
            // Reports never preempt data on a dedicated channel.
            assert_eq!(result.metrics.downlink_preemptions, 0, "{scheme:?}");
        }
    }

    #[test]
    fn dedicated_channel_rescues_bs_at_scale() {
        // Figure 5 showed BS collapsing because its 2N-bit report starves
        // the shared downlink. §6's future work — a dedicated broadcast
        // channel — removes exactly that contention.
        let mut shared = short_cfg(Scheme::Bs);
        shared.db_size = 20_000;
        shared.sim_time_secs = 8_000.0;
        shared.num_clients = 100; // saturate the downlink so topology matters
        let mut dedicated = shared.clone();
        dedicated.downlink_topology = DownlinkTopology::Dedicated {
            broadcast_share: 0.25,
        };
        // Give both the same point-to-point bandwidth for a fair fight:
        // the dedicated variant gets extra broadcast bandwidth on top.
        dedicated.downlink_bps = shared.downlink_bps / 0.75;
        let s = run(&shared, RunOptions::default()).unwrap();
        let d = run(&dedicated, RunOptions::default()).unwrap();
        assert!(
            d.metrics.queries_answered as f64 > 1.1 * s.metrics.queries_answered as f64,
            "dedicated {} vs shared {}",
            d.metrics.queries_answered,
            s.metrics.queries_answered
        );
    }

    #[test]
    fn report_loss_is_survivable_and_counted() {
        for scheme in [
            Scheme::Bs,
            Scheme::Aaw,
            Scheme::SimpleChecking,
            Scheme::TsNoCheck,
        ] {
            let mut cfg = short_cfg(scheme);
            cfg.p_report_loss = 0.2;
            let result = run(&cfg, RunOptions::new().check_consistency(true))
                .unwrap_or_else(|e| panic!("{scheme:?}: {e}"));
            assert!(result.metrics.reports_lost > 0, "{scheme:?}");
            assert!(result.metrics.queries_answered > 0, "{scheme:?}");
            // The legacy knob rides the fault layer as a degenerate
            // (burst-free) chain: every loss is a good-state loss.
            let f = result.metrics.faults;
            assert_eq!(f.downlink_losses_good, result.metrics.reports_lost);
            assert_eq!(f.downlink_losses_burst, 0, "{scheme:?}");
            // No fault *plan*: the legacy knob must not arm retries.
            assert_eq!(f.retries_sent, 0, "{scheme:?}");
        }
    }

    #[test]
    fn zero_loss_keeps_baseline_metrics() {
        // Enabling the loss machinery with p = 0 must not perturb runs.
        let cfg = short_cfg(Scheme::Aaw);
        let a = run(&cfg, RunOptions::default()).unwrap();
        assert_eq!(a.metrics.reports_lost, 0);
    }

    #[test]
    fn fault_free_runs_report_no_fault_metrics() {
        // The guard behind the golden digests: without faults no fault
        // stream is touched, every tally is zero, and the Debug
        // rendering (the digest input) does not mention faults at all.
        let result = run(&short_cfg(Scheme::Aaw), RunOptions::default()).unwrap();
        assert_eq!(
            result.metrics.faults,
            crate::metrics::FaultMetrics::default()
        );
        assert!(!format!("{:?}", result.metrics).contains("faults"));
    }

    fn faulty_cfg(scheme: Scheme) -> SimConfig {
        use mobicache_model::FaultPlan;
        let mut cfg = short_cfg(scheme);
        cfg.faults = FaultPlan {
            downlink: ChannelFaults {
                p_enter_burst: 0.1,
                mean_burst_intervals: 4.0,
                p_loss_good: 0.02,
                p_loss_bad: 0.9,
            },
            p_uplink_loss: 0.2,
            crashes: vec![1_000.0, 2_500.0],
            recovery_secs: 60.0,
            ..FaultPlan::none()
        };
        cfg
    }

    #[test]
    fn bursty_loss_uplink_loss_and_crashes_are_survivable() {
        for scheme in [Scheme::Aaw, Scheme::Afw, Scheme::SimpleChecking, Scheme::Bs] {
            let result = run(
                &faulty_cfg(scheme),
                RunOptions::new().check_consistency(true),
            )
            .unwrap_or_else(|e| panic!("{scheme:?}: {e}"));
            let m = &result.metrics;
            let f = m.faults;
            assert!(m.queries_answered > 0, "{scheme:?} starved under faults");
            assert!(
                f.downlink_losses_burst > 0,
                "{scheme:?} never lost in a burst"
            );
            assert!(f.downlink_losses_good > 0, "{scheme:?}");
            assert_eq!(
                f.downlink_losses_good + f.downlink_losses_burst,
                m.reports_lost,
                "{scheme:?}: loss classification must cover every loss"
            );
            assert!(f.uplink_losses > 0, "{scheme:?}");
            assert_eq!(f.server_crashes, 2, "{scheme:?}");
            assert_eq!(f.recoveries, 2, "{scheme:?}");
            // Clients measure recovery to the first post-recovery
            // broadcast, so it can never undercut the outage itself.
            assert!(
                f.mean_recovery_latency_secs >= 60.0,
                "{scheme:?}: {}",
                f.mean_recovery_latency_secs
            );
            assert!(f.queries_stretched > 0, "{scheme:?}");
        }
    }

    #[test]
    fn uplink_loss_arms_the_retry_machinery() {
        let mut cfg = faulty_cfg(Scheme::Afw);
        cfg.p_disconnect = 0.3; // plenty of gaps → plenty of Tlb uplinks
        let result = run(&cfg, RunOptions::new().check_consistency(true)).unwrap();
        let f = result.metrics.faults;
        assert!(f.retries_sent > 0, "lost uplinks must trigger re-sends");
        assert!(
            result.metrics.clients.tlbs_sent > 0,
            "adaptive clients still report Tlbs under faults"
        );
    }

    #[test]
    fn duplicate_requests_are_deduped_not_reanswered() {
        // The downlink is saturated by design, so data responses take
        // longer than any aggressive retry timeout: the retries must be
        // absorbed by the in-flight dedup instead of re-sending full
        // items (which collapses goodput — this pins the fix).
        use mobicache_model::RetryPolicy;
        let mut cfg = faulty_cfg(Scheme::Aaw);
        cfg.faults.retry = RetryPolicy {
            timeout_intervals: 1,
            max_retries: 2,
            backoff_cap_intervals: 1,
        };
        let result = run(&cfg, RunOptions::new().check_consistency(true)).unwrap();
        let f = result.metrics.faults;
        assert!(f.retries_sent > 0);
        assert!(
            f.duplicate_requests_ignored > 0,
            "1-interval retries against a saturated downlink must hit the dedup"
        );
        // Goodput survives the retry storm: most issued queries answer.
        let m = &result.metrics;
        assert!(
            m.queries_answered * 2 > m.queries_issued,
            "answered {} of {} issued",
            m.queries_answered,
            m.queries_issued
        );
    }

    #[test]
    fn fault_injection_is_bit_identical_across_thread_counts() {
        for scheme in [Scheme::Aaw, Scheme::Afw, Scheme::SimpleChecking, Scheme::Bs] {
            let mut cfg = faulty_cfg(scheme);
            cfg.p_disconnect = 0.3;
            let serial = run(&cfg, RunOptions::default()).unwrap();
            for threads in [2, 4, 0] {
                let sharded =
                    run(&cfg.clone().with_threads(threads), RunOptions::default()).unwrap();
                assert_eq!(
                    format!("{:?}", serial.metrics),
                    format!("{:?}", sharded.metrics),
                    "{scheme:?} fault coins diverged at threads={threads}"
                );
            }
        }
    }

    #[test]
    fn crash_during_recovery_window_nests() {
        // Overlapping crash windows: the second crash lands while the
        // first is still recovering; the server must stay down until the
        // *last* recovery completes and the run must stay consistent.
        let mut cfg = short_cfg(Scheme::Aaw);
        cfg.faults.crashes = vec![1_000.0, 1_050.0];
        cfg.faults.recovery_secs = 200.0;
        let result = run(&cfg, RunOptions::new().check_consistency(true)).unwrap();
        let f = result.metrics.faults;
        assert_eq!(f.server_crashes, 2);
        // One outage from the clients' point of view.
        assert_eq!(f.recoveries, 1);
        assert!(f.mean_recovery_latency_secs >= 250.0, "{f:?}");
        assert!(result.metrics.queries_answered > 0);
    }

    #[test]
    fn snooping_raises_hotcold_hit_ratio_and_stays_consistent() {
        let mut base = short_cfg(Scheme::Aaw).with_workload(Workload::hotcold());
        base.sim_time_secs = 8_000.0;
        base.db_size = 5_000; // cache (2 %) exactly fits the 100-item hot set
        let plain = run(&base, RunOptions::new().check_consistency(true)).unwrap();
        let mut snoop_cfg = base.clone();
        snoop_cfg.snoop_broadcasts = true;
        let snoop = run(&snoop_cfg, RunOptions::new().check_consistency(true)).unwrap();
        assert!(
            snoop.metrics.hit_ratio > plain.metrics.hit_ratio + 0.05,
            "snooping should share the hot set: {} vs {}",
            snoop.metrics.hit_ratio,
            plain.metrics.hit_ratio
        );
        assert!(snoop.metrics.queries_answered >= plain.metrics.queries_answered);
    }

    #[test]
    fn energy_accounting_favors_adaptive_over_checking_tx() {
        let mut base = short_cfg(Scheme::Aaw);
        base.p_disconnect = 0.4;
        base.sim_time_secs = 8_000.0;
        let aaw = run(&base, RunOptions::default()).unwrap();
        let sc = run(
            &base.clone().with_scheme(Scheme::SimpleChecking),
            RunOptions::default(),
        )
        .unwrap();
        assert!(aaw.metrics.energy_per_query > 0.0);
        // Checking pays for its big uplink checks at 100x the rx rate.
        assert!(
            sc.metrics.client_tx_bits > aaw.metrics.client_tx_bits,
            "sc tx {} vs aaw tx {}",
            sc.metrics.client_tx_bits,
            aaw.metrics.client_tx_bits
        );
    }

    #[test]
    fn bs_pays_energy_in_rx_not_tx() {
        let base = short_cfg(Scheme::Bs);
        let bs = run(&base, RunOptions::default()).unwrap();
        let sc = run(
            &base.clone().with_scheme(Scheme::SimpleChecking),
            RunOptions::default(),
        )
        .unwrap();
        assert!(
            bs.metrics.client_rx_bits > sc.metrics.client_rx_bits,
            "bs rx {} vs sc rx {}",
            bs.metrics.client_rx_bits,
            sc.metrics.client_rx_bits
        );
    }
}
