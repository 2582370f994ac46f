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
//!
//! [`Simulation`] keeps one owned sub-state per concern: `Broadcast`
//! (the fan-out), `Accounting` (run accumulators) and the `Faults` and
//! `Mobility` layers, which are `None` — no state, no question asked —
//! when their concern is off.
//!
//! Every message a client handles, addressed or broadcast, takes one
//! path: the handler runs on the client's view, then its actions are
//! applied and its probe events emitted, before any other client is
//! touched. A report first stamps its vouched listeners (`Broadcast`),
//! then walks the rest down that path in client-index order.

use crate::broadcast::Broadcast;
use crate::faults::Faults;
use crate::metrics::{Accounting, FaultMetrics, Metrics};
use crate::mobility::Mobility;
use crate::oracle::Oracle;
use crate::probe::{CacheEventKind, IntervalSnapshot, Probe, ProbeEvent, ReportKind, RunTotals};
use mobicache_client::{ClientAction, ClientConfig, ClientCounters, ClientMut, ClientPop};
use mobicache_model::msg::{DownlinkKind, SizeParams, UplinkKind, CLASS_CHECK, CLASS_REPORT};
use mobicache_model::{ClientId, ConfigError, DownlinkTopology, ItemId, SimConfig};
use mobicache_net::Channel;
use mobicache_reports::ReportPayload;
use mobicache_server::{GroupVerdict, Server, ServerCounters, ValidityVerdict};
use mobicache_sim::bits::for_each_set_bit;
use mobicache_sim::{Scheduler, SimRng, SimTime, StreamId};
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

    /// Forwards a typed event to the attached probe, if any.
    fn emit(&mut self, now: SimTime, event: ProbeEvent) {
        if let Some(p) = self.probe.as_mut() {
            p.on_event(now, &event);
        }
    }

    /// The attached probe's snapshot stride, if it wants snapshots.
    fn snapshot_every(&self) -> Option<u32> {
        self.probe.as_ref()?.snapshot_every()
    }
}

impl std::fmt::Debug for RunOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOptions")
            .field("check_consistency", &self.check_consistency)
            .field("probe", &self.probe.is_some())
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
    /// A dozing client wakes up; it went offline at the given instant.
    Reconnect(ClientId, SimTime),
    /// A downlink transmission finished (channel index, completion token).
    DownlinkDone(usize, u64),
    /// An uplink transmission finished (completion token).
    UplinkDone(u64),
    /// A scheduled server crash wipes the volatile server state.
    ServerCrash,
    /// The crashed server finishes rebuilding from its durable log.
    ServerRecover,
    /// The client's cell residency expired: begin a handoff (or defer
    /// it while the client is mid-flight). Multi-cell topologies only.
    Handoff(ClientId),
    /// The client finishes its handoff blackout and re-associates with
    /// the destination cell; the blackout began at the given instant.
    /// Multi-cell topologies only.
    HandoffArrive(ClientId, u32, SimTime),
}

/// Downlink message payloads.
///
/// A channel queues one per waiting message, so the payload is held to
/// 16 bytes: the two verdicts, rare and each already owning a heap
/// `Vec`, are boxed rather than widening every queued report and item.
enum DownPayload {
    /// Broadcast invalidation report, shared by every listener (never
    /// copied per delivery).
    Report(Arc<ReportPayload>),
    /// A data item for one client.
    Data { item: ItemId, dest: ClientId },
    /// A validity verdict for one client.
    Validity(ClientId, Box<ValidityVerdict>),
    /// A grouped-checking verdict for one client.
    GroupVerdict(ClientId, Box<GroupVerdict>),
}

/// An uplink message in flight: who sent it, what it is, and whether a
/// fault coin already doomed it. A doomed message still charges the
/// sender's radio and occupies the channel — the transmission happens;
/// the receiver just never hears it.
///
/// The uplink queues one per waiting request (a fault run's retry flood
/// leaves ~10⁵ queued), so the message is held to 16 bytes: the hot
/// query request and the `Tlb` report travel inline, and only the two
/// check requests, rare and each already owning a heap `Vec`, are boxed.
enum UpMsg {
    Query {
        from: ClientId,
        item: ItemId,
        lost: bool,
    },
    Tlb {
        from: ClientId,
        tlb_secs: f64,
        lost: bool,
    },
    /// A [`UplinkKind::CheckRequest`] or [`UplinkKind::GroupCheckRequest`].
    Check(Box<(ClientId, UplinkKind, bool)>),
}

impl UpMsg {
    fn new(from: ClientId, kind: UplinkKind, lost: bool) -> Self {
        match kind {
            UplinkKind::QueryRequest { item } => UpMsg::Query { from, item, lost },
            UplinkKind::TlbReport { tlb_secs } => UpMsg::Tlb {
                from,
                tlb_secs,
                lost,
            },
            check => UpMsg::Check(Box::new((from, check, lost))),
        }
    }

    /// The sender, the message and whether it was lost, as sent.
    fn into_parts(self) -> (ClientId, UplinkKind, bool) {
        match self {
            UpMsg::Query { from, item, lost } => (from, UplinkKind::QueryRequest { item }, lost),
            UpMsg::Tlb {
                from,
                tlb_secs,
                lost,
            } => (from, UplinkKind::TlbReport { tlb_secs }, lost),
            UpMsg::Check(check) => *check,
        }
    }
}

/// `(key, seconds)` pairs off the wire as `(key, SimTime)`.
fn timed<K: Copy>(pairs: &[(K, f64)]) -> Vec<(K, SimTime)> {
    pairs
        .iter()
        .map(|&(k, secs)| (k, SimTime::from_secs(secs)))
        .collect()
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
    uplink: Channel<UpMsg>,
    update_gen: UpdateGen,
    query_gen: QueryGen,
    gap_proc: GapProcess,
    rng_update: SimRng,
    rng_clients: Vec<SimRng>,
    /// The fault layer; `None` when no fault can fire.
    faults: Option<Faults>,
    /// The mobility layer; `None` in the single-cell topology.
    mobility: Option<Mobility>,
    broadcast: Broadcast,
    acct: Accounting,
    oracle: Option<Oracle>,
    /// Reusable client-action buffer, threaded through every addressed
    /// delivery so the hot paths never allocate an action list.
    action_scratch: Vec<ClientAction>,
    /// Reusable query reference set, refilled at every query arrival.
    query_scratch: Vec<ItemId>,
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
        // One wake-up per client: every client seeds its own RNG stream
        // and samples its first think period from it. One batch in
        // client-index order hands out the sequence numbers
        // `num_clients` individual calls would (the FIFO tie-break
        // contract).
        let think = mobicache_sim::Exp::with_mean(cfg.mean_think_secs);
        let n = cfg.num_clients as usize;
        let (rng_clients, wake): (Vec<SimRng>, Vec<_>) = (0..cfg.num_clients)
            .map(|c| {
                let mut rng = SimRng::for_stream(cfg.seed, StreamId::Client(c));
                let at = SimTime::from_secs(think.sample(&mut rng));
                (rng, (at, Ev::QueryArrival(ClientId(c))))
            })
            .unzip();
        sched.schedule_batch(wake);

        // Each client's residency clock starts at t = 0.
        let mut mobility = Mobility::new(cfg);
        if let Some(m) = &mut mobility {
            sched.schedule_batch(
                m.first_expiries()
                    .enumerate()
                    .map(|(c, secs)| (SimTime::from_secs(secs), Ev::Handoff(ClientId(c as u32)))),
            );
        }

        // Cell-major downlink layout: each cell broadcasts on its own
        // channel(s); one cell reproduces the legacy layout exactly.
        let cells = cfg.cells.cells as usize;
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

        // One signature state for every cell: hashing it is most of a
        // `SIG` server's set-up.
        let sig = Server::fresh_sig(cfg.scheme, cfg.db_size);
        let servers: Vec<Server> = (0..cells)
            .map(|_| {
                let mut server =
                    Server::with_sig(cfg.scheme, cfg.db_size, cfg.window_secs(), sp, sig.clone());
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
            clients: ClientPop::with_cells(client_cfg, n, cfg.cells.cells),
            downlinks,
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
            faults: Faults::new(cfg),
            mobility,
            broadcast: Broadcast::new(cfg.db_size, cells),
            acct: Accounting::new(),
            oracle: opts.check_consistency.then(Oracle::new),
            action_scratch: Vec::new(),
            query_scratch: Vec::new(),
            sched,
            cfg: cfg.clone(),
            opts,
        })
    }

    /// Puts a `kind` message carrying `payload` on `cell`'s downlink: a
    /// report on the cell's first channel, anything else on its last.
    fn send_downlink(
        &mut self,
        now: SimTime,
        kind: &DownlinkKind,
        cell: usize,
        payload: DownPayload,
    ) {
        let class = kind.class();
        let per_cell = self.downlinks.len() / self.servers.len();
        let idx = cell * per_cell + (per_cell - 1) * usize::from(class != CLASS_REPORT);
        let bits = kind.size_bits(&self.sp);
        if let Some(c) = self.downlinks[idx].send(now, bits, class, payload) {
            self.sched.schedule(c.at, Ev::DownlinkDone(idx, c.token));
        }
    }

    /// Runs the event loop to the horizon and collects metrics.
    pub fn run_to_completion(mut self) -> RunResult {
        self.run_events();
        self.finish()
    }

    /// Delivers every event up to the horizon.
    fn run_events(&mut self) {
        while let Some((now, ev)) = self.sched.pop() {
            if now > self.horizon {
                break;
            }
            self.dispatch(now, ev);
        }
    }

    /// Delivers one event.
    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Tick => self.on_tick(now),
            Ev::UpdateArrival => self.on_update(now),
            Ev::QueryArrival(c) => self.on_query_arrival(now, c),
            Ev::Reconnect(c, since) => {
                self.clients.reconnect(c.index());
                self.opts.emit(
                    now,
                    ProbeEvent::Reconnect {
                        client: c,
                        offline_secs: now - since,
                    },
                );
            }
            Ev::DownlinkDone(idx, token) => self.on_downlink_done(now, idx, token),
            Ev::UplinkDone(token) => self.on_uplink_done(now, token),
            Ev::ServerCrash => self.on_server_crash(now),
            Ev::ServerRecover => self.on_server_recover(now),
            Ev::Handoff(c) => self.on_handoff(now, c),
            Ev::HandoffArrive(c, dest, since) => self.on_handoff_arrive(now, c, dest, since),
        }
    }

    fn on_tick(&mut self, now: SimTime) {
        // A crashed server skips the broadcast — the clock keeps ticking
        // (and the snapshot stride with it); clients experience the
        // silent interval exactly like a lost report and fall back on
        // their gap/retry machinery.
        if self.faults.as_ref().is_none_or(Faults::server_up) {
            // Every cell's server broadcasts its own report on its own
            // downlink, in cell order (one cell = the legacy sequence).
            for cell in 0..self.servers.len() {
                let (report, decision) = self.servers[cell].build_report_shared(now);
                let kind = DownlinkKind::InvalidationReport {
                    content_bits: report.size_bits(&self.sp),
                };
                if self.opts.probe.is_some() {
                    let window_start_secs = match &*report {
                        ReportPayload::Window(w) => Some(w.window_start.as_secs()),
                        _ => None,
                    };
                    self.opts.emit(
                        now,
                        ProbeEvent::ReportBroadcast {
                            kind: ReportKind::of(&report),
                            bits: kind.size_bits(&self.sp),
                            window_start_secs,
                        },
                    );
                    if let Some(d) = decision {
                        self.opts.emit(now, ProbeEvent::AdaptiveDecision(d));
                    }
                }
                self.send_downlink(now, &kind, cell, DownPayload::Report(report));
            }
            if let Some(offline_secs) = self.faults.as_mut().and_then(|f| f.broadcast_resumed(now))
            {
                self.opts
                    .emit(now, ProbeEvent::ServerRecovered { offline_secs });
            }
        }
        self.sched
            .schedule_in(self.cfg.broadcast_period_secs, Ev::Tick);
        if self.acct.tick(self.opts.snapshot_every()) {
            self.take_snapshot(now.as_secs());
        }
    }

    /// A scheduled crash wipes the server's volatile state (pending
    /// `Tlb`s, shared signature state); the durable update log
    /// survives. Overlapping crash windows nest.
    fn on_server_crash(&mut self, now: SimTime) {
        // Crashes are global: the paper's single base station is the
        // whole fixed network here, so every cell's server goes down
        // together (and the tick loop stays silent while any is down).
        let dropped = self.servers.iter_mut().map(Server::crash).sum::<u64>();
        // Crash events come only from a fault plan, so the layer is
        // present.
        if let Some(faults) = &mut self.faults {
            faults.crash(now, dropped);
        }
        self.opts.emit(
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
        if self.faults.as_mut().is_some_and(Faults::recover) {
            for server in &mut self.servers {
                server.recover();
            }
        }
        self.check_all_consistency();
    }

    /// Full-population oracle scan (crash/recovery boundaries).
    fn check_all_consistency(&mut self) {
        if let Some(oracle) = &mut self.oracle {
            for i in 0..self.clients.len() {
                oracle.assert_cache_consistent(ClientId(i as u32), self.clients.entries(i));
            }
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
        let faults = self.faults.as_ref().map(|f| f.metrics).unwrap_or_default();
        let (client_tx_bits, client_rx_bits) = self.acct.radio_bits();
        let c = self.clients.counters();
        RunTotals {
            reports_broadcast: sc.window_reports
                + sc.enlarged_reports
                + sc.bs_reports
                + sc.at_reports
                + sc.sig_reports,
            tlbs_received: sc.tlbs_received,
            checks_processed: sc.checks_processed,
            reports_lost: faults.downlink_losses_good + faults.downlink_losses_burst,
            uplink_losses: faults.uplink_losses,
            server_crashes: faults.server_crashes,
            handoffs: self.mobility.as_ref().map_or(0, |m| m.metrics.handoffs),
            events_scheduled: self.sched.events_scheduled(),
            events_delivered: self.sched.events_delivered(),
            disconnections: self.acct.disconnections,
            client_tx_bits,
            client_rx_bits,
            queries_issued: c.queries_issued,
            queries_answered: c.queries_answered,
            item_hits: c.item_hits,
            item_misses: c.item_misses,
            fault_retries: c.retries_sent,
            cache_evictions: c.evictions,
        }
    }

    /// Closes the current snapshot interval at `end_secs` and hands the
    /// delta to the probe.
    fn take_snapshot(&mut self, end_secs: f64) {
        let totals = self.current_totals();
        let (index, start_secs, delta) = self.acct.close_interval(totals, end_secs);
        let b = &self.broadcast;
        let snap = IntervalSnapshot {
            index,
            start_secs,
            end_secs,
            delta,
            queue_high_water: self.sched.queue_high_water(),
            slot_high_water: self.sched.slot_high_water(),
            sched_cascades: self.sched.cascades(),
            plan_decodes: b.plan_decodes(),
            plan_hits: b.plan_stats.hits,
            plan_misses: b.plan_stats.misses,
            fanout_words_skipped: b.fanout_words_skipped,
            fanout_quiet: b.fanout_quiet,
            fanout_walked: b.fanout_walked,
        };
        if let Some(p) = self.opts.probe.as_mut() {
            p.on_snapshot(&snap);
        }
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
            // it and re-issue when the client reaches its new cell. A
            // single-cell run never gets here; should it, the debug
            // assert below fires, and in release `ClientPop::start_query`
            // panics with "query while disconnected".
            debug_assert!(
                self.mobility.is_some(),
                "query arrival on dozing {c:?} in a single-cell run"
            );
            if let Some(mobility) = &mut self.mobility {
                mobility.park_query(c.index());
                return;
            }
        }
        self.query_gen
            .next_query_items(&mut self.rng_clients[c.index()], &mut self.query_scratch);
        self.clients
            .start_query(c.index(), now, &self.query_scratch);
        // The query waits for the next broadcast report (§2).
    }

    /// A client's cell residency expired (see [`Mobility::on_expiry`]).
    fn on_handoff(&mut self, now: SimTime, c: ClientId) {
        // Handoff events come only from the mobility layer.
        let Some(mobility) = &mut self.mobility else {
            return;
        };
        let i = c.index();
        let busy = self.clients.has_pending_query(i)
            || !self.clients.is_connected(i)
            || self.clients.has_open_gap(i);
        let (dest, mut next_secs) = mobility.on_expiry(i, self.clients.cell_of(i), busy);
        if let Some(dest) = dest {
            let blackout_secs = self.cfg.cells.handoff_secs;
            self.clients.disconnect(i);
            self.sched
                .schedule_in(blackout_secs, Ev::HandoffArrive(c, dest, now));
            // The next residency clock starts at arrival.
            next_secs += blackout_secs;
        }
        self.sched.schedule_in(next_secs, Ev::Handoff(c));
    }

    /// The handoff blackout ended: re-associate with the destination
    /// cell and reconnect, offline since `since`. A roamer's `Tlb` now refers to another cell's
    /// broadcast history; under zero cross-cell skew the destination
    /// server's reports vouch for the same updates, so the regular
    /// reconnection-gap machinery (window coverage, `Tlb` uplinks, the
    /// AFW/AAW long-disconnection recovery) takes it from here exactly
    /// as if the client had dozed in place.
    fn on_handoff_arrive(&mut self, now: SimTime, c: ClientId, dest: u32, since: SimTime) {
        let i = c.index();
        let from_cell = self.clients.cell_of(i);
        self.clients.handoff(i, dest);
        self.clients.reconnect(i);
        let parked_query = self.mobility.as_mut().is_some_and(|m| m.arrive(i));
        self.opts.emit(
            now,
            ProbeEvent::Handoff {
                client: c,
                from_cell,
                to_cell: dest,
                offline_secs: now - since,
            },
        );
        if parked_query {
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
        // Downlinks are laid out cell-major, so the channel index names
        // the transmitting cell and payloads need no cell tag.
        let cell = idx * self.servers.len() / self.downlinks.len();
        match delivered.msg {
            DownPayload::Report(report) => {
                // Phase 0 (mask): the cell's connected members hear it,
                // minus the fault layer's losses, whose coins fall in
                // client-index order on per-client streams.
                let mask = self.broadcast.listeners(&self.clients, cell as u32);
                if let Some(faults) = &mut self.faults {
                    let opts = &mut self.opts;
                    faults.drop_lost(&self.clients, cell as u32, mask, |client, in_burst| {
                        opts.emit(now, ProbeEvent::ReportLost { client, in_burst });
                    });
                }
                self.acct
                    .charge_rx(delivered.bits, self.broadcast.count_listeners());
                // Phase 1 (stamp): plan decode, and the vouched
                // listeners take the report as the cell's new epoch.
                self.broadcast.stamp(&mut self.clients, cell, &report, now);
                // Phase 2 (walk, client-index order): each other
                // listener applies the report, then its actions and
                // observations go through before the next client's.
                for k in 0..self.broadcast.walk().len() {
                    let mut word = self.broadcast.walk()[k];
                    while word != 0 {
                        let c = ClientId((k * 64) as u32 + word.trailing_zeros());
                        word &= word - 1;
                        self.handle(now, c, |mut client, fanout, actions| {
                            fanout.apply_planned(&mut client, cell, &report, now, actions);
                        });
                    }
                }
                // Oracle pass after the walk (actions never touch a
                // cache, so checking here sees exactly the state a
                // per-client check would see), over every listener,
                // stamped or walked.
                self.check_delivered();
            }
            DownPayload::Data { item, dest } => {
                if let Some(faults) = &mut self.faults {
                    faults.data_delivered(dest, item);
                }
                // Delivered copies reflect the version current at delivery
                // (see DESIGN.md §3: this removes the report/fetch race a
                // bit-level model would have to resolve with torn reads).
                // Under zero cross-cell skew every server holds the same
                // version.
                let version = self.servers[cell].version(item);
                self.deliver_to(now, dest, delivered.bits, |mut client, _, actions| {
                    client.on_data_into(now, item, version, actions);
                });
                // Snooping extension: the downlink is a broadcast medium,
                // so every other connected member of the serving cell
                // overhears the item. Snooped items produce no actions,
                // so the walk is one `client_mut` per listener.
                if self.cfg.snoop_broadcasts {
                    let mask = self.broadcast.listeners(&self.clients, cell as u32);
                    let d = dest.index();
                    mask[d / 64] &= !(1u64 << (d % 64));
                    self.acct
                        .charge_rx(delivered.bits, self.broadcast.count_listeners());
                    let clients = &mut self.clients;
                    for_each_set_bit(self.broadcast.mask(), 0..clients.len(), |i| {
                        clients.client_mut(i).on_snooped_data(now, item, version);
                    });
                    self.check_delivered();
                }
            }
            DownPayload::Validity(dest, v) if self.clients.is_connected(dest.index()) => {
                self.deliver_to(now, dest, delivered.bits, |mut client, _, actions| {
                    client.on_validity_into(now, v.asof, &v.valid, actions);
                });
            }
            DownPayload::GroupVerdict(dest, v) if self.clients.is_connected(dest.index()) => {
                self.deliver_to(now, dest, delivered.bits, |mut client, _, actions| {
                    client.on_group_validity_into(now, v.asof, v.covered, &v.stale, actions);
                });
            }
            // A verdict for a dozing client is lost; it will re-check.
            DownPayload::Validity(..) | DownPayload::GroupVerdict(..) => {}
        }
    }

    /// Delivers an addressed `bits`-bit message to `dest` through the
    /// client handler `handle`, then checks its cache.
    fn deliver_to(
        &mut self,
        now: SimTime,
        dest: ClientId,
        bits: f64,
        handle: impl FnOnce(ClientMut<'_>, &mut Broadcast, &mut Vec<ClientAction>),
    ) {
        self.acct.charge_rx(bits, 1);
        self.handle(now, dest, handle);
        if let Some(oracle) = &mut self.oracle {
            oracle.assert_cache_consistent(dest, self.clients.entries(dest.index()));
        }
    }

    /// Runs `handle` on client `c`'s view (with the fan-out state, for a
    /// report's plan), then applies the actions it appended and emits
    /// the probe events for whatever else changed in the client, before
    /// any other client is touched: the steps of every message a client
    /// handles, addressed or broadcast.
    ///
    /// A handler must touch only `c`'s columns and the fan-out's plan
    /// counters, and an action only the shared state and `c`'s columns:
    /// what one walked client does then cannot change what the report
    /// does to the next (DESIGN.md §8.2).
    fn handle(
        &mut self,
        now: SimTime,
        c: ClientId,
        handle: impl FnOnce(ClientMut<'_>, &mut Broadcast, &mut Vec<ClientAction>),
    ) {
        let before = self.opts.probe.is_some().then(|| self.clients.counters());
        let mut actions = std::mem::take(&mut self.action_scratch);
        handle(
            self.clients.client_mut(c.index()),
            &mut self.broadcast,
            &mut actions,
        );
        for action in actions.drain(..) {
            self.apply_action(now, c, action);
        }
        self.action_scratch = actions;
        self.post_observe(now, c, before);
    }

    fn on_uplink_done(&mut self, now: SimTime, token: u64) {
        let Some(delivered) = self.uplink.complete(now, token) else {
            return;
        };
        if let Some(c) = delivered.next {
            self.sched.schedule(c.at, Ev::UplinkDone(c.token));
        }
        let (from, kind, lost) = delivered.msg.into_parts();
        // A message the fault coin doomed at send time (tallied there),
        // or one reaching a crashed server, goes unanswered.
        if lost
            || self
                .faults
                .as_mut()
                .is_some_and(Faults::server_drops_uplink)
        {
            return;
        }
        // Uplink traffic is routed at delivery to the sender's CURRENT
        // cell: that server answers, on that cell's downlink group. (A
        // client with in-flight traffic defers its handoff, so the cell
        // cannot change between send and delivery.)
        let cell = self.clients.cell_of(from.index()) as usize;
        match kind {
            UplinkKind::QueryRequest { item } => {
                // Duplicates of a request whose answer is already queued
                // are ignored: answering each would flood the saturated
                // downlink with repeated full items.
                if self
                    .faults
                    .as_mut()
                    .is_some_and(|f| f.is_duplicate_request(from, item))
                {
                    return;
                }
                let dk = DownlinkKind::DataItem { item };
                self.send_downlink(now, &dk, cell, DownPayload::Data { item, dest: from });
            }
            UplinkKind::TlbReport { tlb_secs } => {
                self.servers[cell].receive_tlb(SimTime::from_secs(tlb_secs));
            }
            UplinkKind::CheckRequest { entries } => {
                let verdict = Box::new(self.servers[cell].process_check(now, &timed(&entries)));
                let dk = DownlinkKind::ValidityReport {
                    checked: verdict.checked,
                };
                self.send_downlink(now, &dk, cell, DownPayload::Validity(from, verdict));
            }
            UplinkKind::GroupCheckRequest { groups } => {
                let verdict =
                    Box::new(self.servers[cell].process_group_check(now, &timed(&groups)));
                let dk = DownlinkKind::GroupValidity {
                    stale: verdict.stale.len() as u32,
                };
                self.send_downlink(now, &dk, cell, DownPayload::GroupVerdict(from, verdict));
            }
        }
    }

    /// Applies one client action to the shared simulation state. Every
    /// scheduler, channel, stats and RNG touch a client triggers funnels
    /// through here, in client-index order within a broadcast.
    fn apply_action(&mut self, now: SimTime, c: ClientId, action: ClientAction) {
        match action {
            ClientAction::Uplink(kind) => {
                let bits = kind.size_bits(&self.sp);
                let class = kind.class();
                self.acct.charge_tx(bits);
                let lost = self
                    .faults
                    .as_mut()
                    .is_some_and(|f| f.uplink_lost(c.index()));
                if lost {
                    self.opts.emit(now, ProbeEvent::UplinkLost { client: c });
                }
                let completion = self
                    .uplink
                    .send(now, bits, class, UpMsg::new(c, kind, lost));
                if let Some(comp) = completion {
                    self.sched.schedule(comp.at, Ev::UplinkDone(comp.token));
                }
            }
            ClientAction::QueryDone(outcome) => {
                let latency = outcome.completed_at - outcome.issued_at;
                self.acct.latency.record(latency);
                self.acct.latency_hist.record(latency);
                self.opts.emit(
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
                        self.acct.disconnections += 1;
                        self.clients.disconnect(c.index());
                        self.opts.emit(
                            now,
                            ProbeEvent::Disconnect {
                                client: c,
                                for_secs: gap.duration_secs,
                            },
                        );
                        // Reconnect is scheduled before the query at
                        // the same instant; FIFO tie-breaking delivers
                        // it first.
                        self.sched
                            .schedule_in(gap.duration_secs, Ev::Reconnect(c, now));
                        self.sched
                            .schedule_in(gap.duration_secs, Ev::QueryArrival(c));
                    }
                }
            }
        }
    }

    /// Emits events for whatever changed in a client since `before`: the
    /// population's counters captured before it processed a message, so
    /// limbo salvage and cache-population changes surface as probe
    /// events without threading observers through the client crate.
    /// Only `c` ran in between, and its actions count nothing, so the
    /// change is `c`'s. `None` (no probe attached) makes the pair free.
    fn post_observe(&mut self, now: SimTime, c: ClientId, before: Option<ClientCounters>) {
        let Some(before) = before else {
            return;
        };
        let after = self.clients.counters();
        let salvaged = after.salvaged - before.salvaged;
        let dropped = after.limbo_dropped - before.limbo_dropped;
        let evicted = after.evictions - before.evictions;
        if salvaged + dropped > 0 {
            self.opts.emit(
                now,
                ProbeEvent::LimboSalvage {
                    client: c,
                    salvaged,
                    dropped,
                },
            );
        }
        let kinds = [
            (after.full_drops > before.full_drops).then_some(CacheEventKind::FullDrop),
            (evicted > 0).then_some(CacheEventKind::Evictions { count: evicted }),
        ];
        for kind in kinds.into_iter().flatten() {
            self.opts
                .emit(now, ProbeEvent::CacheEvent { client: c, kind });
        }
    }

    /// Oracle pass over every client in the delivery mask, in
    /// client-index order — the read-only full-cache scans of a
    /// broadcast tick. A stamped client's entries read as vouched at its
    /// cell's epoch.
    fn check_delivered(&mut self) {
        let Some(oracle) = self.oracle.as_mut() else {
            return;
        };
        let clients = &self.clients;
        for_each_set_bit(self.broadcast.mask(), 0..clients.len(), |i| {
            oracle.assert_cache_consistent(ClientId(i as u32), clients.entries(i));
        });
    }

    fn finish(mut self) -> RunResult {
        // Close the last (possibly partial) interval so snapshot deltas
        // telescope exactly to the final metrics.
        if self.opts.snapshot_every().is_some() {
            self.take_snapshot(self.horizon.as_secs());
        }
        let horizon = self.horizon;
        let up = self.uplink.stats(horizon);
        let totals = self.current_totals();
        let sc = self.server_counters();
        let c = self.clients.counters();
        let mut faults = self
            .faults
            .map_or_else(FaultMetrics::default, |f| f.finish(sc.duplicate_tlbs));
        faults.retries_sent = c.retries_sent;
        faults.backoff_exhaustions = c.backoff_exhaustions;
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
        let energy_total = totals.client_tx_bits * self.cfg.energy_tx_per_bit
            + totals.client_rx_bits * self.cfg.energy_rx_per_bit;
        // A ratio over a count, zero when nothing was counted.
        let per = |x: f64, n: u64| if n == 0 { 0.0 } else { x / n as f64 };
        let metrics = Metrics {
            queries_answered: totals.queries_answered,
            uplink_validity_bits_per_query: per(validity_bits, totals.queries_answered),
            queries_issued: totals.queries_issued,
            item_hits: totals.item_hits,
            item_misses: totals.item_misses,
            hit_ratio: per(
                totals.item_hits as f64,
                totals.item_hits + totals.item_misses,
            ),
            mean_query_latency_secs: self.acct.latency.mean(),
            p95_query_latency_secs: self.acct.latency_hist.quantile(0.95),
            uplink_validity_bits: validity_bits,
            uplink_total_bits: up.bits_by_class.iter().sum(),
            downlink_report_bits: down_bits[0],
            downlink_validity_bits: down_bits[1],
            downlink_data_bits: down_bits[2],
            downlink_utilization: down_util_weighted / total_bw,
            uplink_utilization: up.utilization,
            downlink_preemptions: preemptions,
            client_tx_bits: totals.client_tx_bits,
            client_rx_bits: totals.client_rx_bits,
            energy_total,
            energy_per_query: per(energy_total, totals.queries_answered),
            reports_lost: totals.reports_lost,
            server: sc.into(),
            clients: c.into(),
            cache_evictions: totals.cache_evictions,
            disconnections: totals.disconnections,
            events_processed: self.sched.events_delivered(),
            sim_time_secs: self.cfg.sim_time_secs,
            faults,
            mobility: self.mobility.map(|m| m.metrics).unwrap_or_default(),
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
    use mobicache_model::{CellTopology, ChannelFaults, Scheme, Workload};

    fn short_cfg(scheme: Scheme) -> SimConfig {
        let mut cfg = SimConfig::paper_default().with_scheme(scheme);
        cfg.sim_time_secs = 4_000.0;
        cfg.db_size = 1_000;
        cfg.num_clients = 20;
        cfg
    }

    /// The scheduler's wheel stores one `Ev` per pending event, so every
    /// byte added to the largest variant is paid per queued event. The
    /// offline instant `Reconnect` and `HandoffArrive` carry fits beside
    /// the client and cell ids.
    #[test]
    fn an_event_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Ev>(), 24);
    }

    /// A channel stores one payload per waiting message (a fault run's
    /// uplink holds ~10⁵), so every byte here is paid per queued message.
    #[test]
    fn wire_payloads_are_16_bytes() {
        assert_eq!(std::mem::size_of::<UpMsg>(), 16);
        assert_eq!(std::mem::size_of::<DownPayload>(), 16);
    }

    #[test]
    fn every_uplink_kind_comes_off_the_channel_as_sent() {
        use mobicache_model::msg::CLASS_DATA;
        let kinds = [
            UplinkKind::QueryRequest { item: ItemId(7) },
            UplinkKind::TlbReport { tlb_secs: 1_234.5 },
            UplinkKind::CheckRequest {
                entries: vec![(ItemId(1), 2.0), (ItemId(9), 3.5)],
            },
            UplinkKind::GroupCheckRequest {
                groups: vec![(4, 10.0), (6, 20.25)],
            },
        ];
        let mut uplink = Channel::new(1_000.0);
        let mut now = SimTime::ZERO;
        for (k, kind) in kinds.iter().enumerate() {
            for lost in [false, true] {
                let from = ClientId(40 + k as u32);
                let msg = UpMsg::new(from, kind.clone(), lost);
                let c = uplink.send(now, 100.0, CLASS_DATA, msg).unwrap();
                now = c.at;
                let delivered = uplink.complete(now, c.token).unwrap();
                assert_eq!(delivered.msg.into_parts(), (from, kind.clone(), lost));
            }
        }
    }

    /// Delivering a boxed verdict through the downlink leaves its client
    /// exactly where handing the same verdict to the handler directly
    /// does: the box hands the handler the verdict the server made.
    #[test]
    fn boxed_verdicts_reach_the_client_unchanged() {
        for scheme in [Scheme::SimpleChecking, Scheme::Gcore] {
            let mut cfg = short_cfg(scheme);
            cfg.p_disconnect = 0.5;
            // Twin runs, stepped to the first connected client whose
            // cache awaits a verdict.
            let awaiting = |sim: &Simulation<'_>| {
                (0..sim.clients.len())
                    .find(|&i| sim.clients.is_connected(i) && sim.clients.cache(i).has_limbo())
            };
            let twin = || {
                let mut sim = Simulation::new(&cfg, RunOptions::default()).unwrap();
                while awaiting(&sim).is_none() {
                    let (now, ev) = sim.sched.pop().unwrap();
                    sim.dispatch(now, ev);
                }
                sim
            };
            let (mut a, mut b) = (twin(), twin());
            let i = awaiting(&a).unwrap();
            let dest = ClientId(i as u32);
            let asof = a.sched.now();
            // Every other limbo entry is stale.
            let mut limbo: Vec<ItemId> = a.clients.cache(i).limbo_iter().collect();
            limbo.sort_unstable();
            let kept: Vec<ItemId> = limbo.iter().copied().step_by(2).collect();
            let stale: Vec<ItemId> = limbo.iter().copied().skip(1).step_by(2).collect();
            let (kind, payload) = match scheme {
                Scheme::SimpleChecking => {
                    let v = ValidityVerdict {
                        asof,
                        valid: kept.clone(),
                        checked: limbo.len() as u32,
                    };
                    let dk = DownlinkKind::ValidityReport { checked: v.checked };
                    (dk, DownPayload::Validity(dest, Box::new(v)))
                }
                _ => {
                    let v = GroupVerdict {
                        asof,
                        covered: true,
                        stale: stale.clone(),
                    };
                    let dk = DownlinkKind::GroupValidity {
                        stale: v.stale.len() as u32,
                    };
                    (dk, DownPayload::GroupVerdict(dest, Box::new(v)))
                }
            };
            let bits = kind.size_bits(&a.sp);
            let before = b.clients.counters();
            // Twin `a` takes the verdict off an idle downlink…
            a.downlinks[0] = Channel::new(cfg.downlink_bps);
            let c = a.downlinks[0]
                .send(asof, bits, kind.class(), payload)
                .unwrap();
            a.on_downlink_done(c.at, 0, c.token);
            // …twin `b` hands it to the handler directly.
            let at = c.at;
            match scheme {
                Scheme::SimpleChecking => {
                    b.deliver_to(at, dest, bits, |mut client, _, actions| {
                        client.on_validity_into(at, asof, &kept, actions);
                    });
                }
                _ => {
                    b.deliver_to(at, dest, bits, |mut client, _, actions| {
                        client.on_group_validity_into(at, asof, true, &stale, actions);
                    });
                }
            }
            assert_ne!(
                b.clients.counters(),
                before,
                "{scheme:?}: the verdict did nothing"
            );
            assert_eq!(a.clients.counters(), b.clients.counters(), "{scheme:?}");
            assert!(
                a.clients.entries(i).eq(b.clients.entries(i)),
                "{scheme:?}: client {i}'s cache"
            );
            assert_eq!(a.current_totals(), b.current_totals(), "{scheme:?}");
            assert_eq!(a.uplink.backlog(), b.uplink.backlog(), "{scheme:?}");
        }
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
    fn lossy_snooping_run_passes_the_oracle() {
        // Report loss draws coins, snooping walks a second mask, and
        // the oracle checks every delivery of both.
        let mut cfg = short_cfg(Scheme::Aaw);
        cfg.p_report_loss = 0.2;
        cfg.snoop_broadcasts = true;
        let result = run(&cfg, RunOptions::new().check_consistency(true)).unwrap();
        assert!(result.metrics.reports_lost > 0);
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

    /// A multi-cell `SIG` run hashes its mask table once: every cell's
    /// server signs with the same table.
    #[test]
    fn sig_cells_share_one_mask_table() {
        let cfg = short_cfg(Scheme::Sig).with_cells(CellTopology {
            cells: 4,
            ..CellTopology::single()
        });
        let sim = Simulation::new(&cfg, RunOptions::default()).unwrap();
        let signers: Vec<_> = sim.servers.iter().filter_map(Server::signer).collect();
        assert_eq!(signers.len(), 4);
        assert!(signers.iter().all(|s| s.shares_masks(signers[0])));
    }

    #[test]
    fn fault_and_mobility_layers_are_absent_when_off() {
        let sim = |cfg: &SimConfig| Simulation::new(cfg, RunOptions::default()).unwrap();
        let plain = sim(&short_cfg(Scheme::Aaw));
        assert!(plain.faults.is_none());
        assert!(plain.mobility.is_none());
        // The bare legacy loss knob is a loss chain without a fault plan.
        let mut lossy = short_cfg(Scheme::Aaw);
        lossy.p_report_loss = 0.1;
        assert!(sim(&lossy).faults.is_some());
        assert!(sim(&faulty_cfg(Scheme::Aaw)).faults.is_some());
        let multi = short_cfg(Scheme::Aaw).with_cells(CellTopology {
            cells: 2,
            ..CellTopology::single()
        });
        let multi = sim(&multi);
        assert!(multi.mobility.is_some());
        assert!(multi.faults.is_none());
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
    fn oracle_checks_match_a_delivery_mask_scan() {
        // The report's oracle pass scans every listener, a stamped one
        // through its vouched entries, so the stamp hides no client from
        // it. The pinned counts are those of a scan over every listener
        // walked eagerly, over roaming cells with faults (crash and
        // recovery scans included) and under snooping (its own
        // delivery-mask scan).
        let checks = |cfg: &SimConfig| {
            let mut sim = Simulation::new(cfg, RunOptions::new().check_consistency(true)).unwrap();
            sim.run_events();
            sim.oracle.as_ref().map(Oracle::checks_performed)
        };
        let cells = faulty_cfg(Scheme::Aaw).with_cells(CellTopology {
            cells: 3,
            ..CellTopology::single()
        });
        let mut snoop = short_cfg(Scheme::Aaw);
        snoop.snoop_broadcasts = true;
        assert_eq!(checks(&cells), Some(8_729));
        assert_eq!(checks(&snoop), Some(72_296));
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
