//! The traced op: spans around every set-up, run and tick, counters read
//! off a read-only probe, and timed replays of each layer's public calls,
//! turned into the per-layer metrics.
//!
//! Everything here measures the simulator from outside: the spans wrap
//! calls into public functions, the probe only listens, and the replays
//! drive public APIs with the workload's own inputs.

use crate::op::{sim_output, OpOutput, OpRequest};
use crate::stats::{nearest_rank, quantile, tail};
use crate::workload::Sim;
use mobicache::{IntervalSnapshot, Probe, ProbeEvent, ReportKind, RunOptions, Simulation};
use mobicache_cache::LruCache;
use mobicache_model::msg::{SizeParams, CLASS_DATA, CLASS_REPORT};
use mobicache_model::{ItemId, Scheme, SimConfig};
use mobicache_net::Channel;
use mobicache_reports::{PlanCache, ReportPayload};
use mobicache_server::Server;
use mobicache_sim::{Completion, Scheduler, SimRng, SimTime, StreamId};
use mobicache_workload::UpdateGen;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Each replay micro-benchmark repeats until it has run this long (and
/// at least three times), then reports its median pass.
const MIN_REPLAY: Duration = Duration::from_millis(30);

/// What the probe saw of one simulation.
#[derive(Default)]
struct SimTrace {
    /// Host instant of the first report broadcast of each simulated
    /// tick (a multi-cell tick broadcasts once per cell).
    tick_stamps: Vec<Instant>,
    last_tick: Option<SimTime>,
    broadcasts: u64,
    report_bits: f64,
    bs_broadcasts: u64,
    salvaged: u64,
    limbo_dropped: u64,
    final_snapshot: Option<IntervalSnapshot>,
}

impl Probe for SimTrace {
    fn on_event(&mut self, now: SimTime, event: &ProbeEvent) {
        match *event {
            ProbeEvent::ReportBroadcast { kind, bits, .. } => {
                if self.last_tick != Some(now) {
                    self.tick_stamps.push(Instant::now());
                    self.last_tick = Some(now);
                }
                self.broadcasts += 1;
                self.report_bits += bits;
                self.bs_broadcasts += u64::from(kind == ReportKind::BitSeq);
            }
            ProbeEvent::LimboSalvage {
                salvaged, dropped, ..
            } => {
                self.salvaged += salvaged;
                self.limbo_dropped += dropped;
            }
            _ => {}
        }
    }

    /// A stride no run reaches: the only snapshot is the one the engine
    /// closes at the horizon, whose cumulative fields (high-water marks,
    /// plan counters) are what the layers need.
    fn snapshot_every(&self) -> Option<u32> {
        Some(u32::MAX)
    }

    fn on_snapshot(&mut self, snap: &IntervalSnapshot) {
        self.final_snapshot = Some(*snap);
    }
}

/// Every timed call of one kind: how many, and their summed duration.
#[derive(Default)]
struct CallTimes {
    calls: u64,
    busy: Duration,
    first: Option<Instant>,
    last: Option<Instant>,
}

impl CallTimes {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.calls += 1;
        self.busy += end - start;
        self.first.get_or_insert(start);
        self.last = Some(end);
        out
    }

    fn absorb(&mut self, other: &CallTimes) {
        self.calls += other.calls;
        self.busy += other.busy;
    }

    /// Mean seconds per call (0 without calls).
    fn mean_s(&self) -> f64 {
        ratio(self.busy.as_secs_f64(), self.calls as f64)
    }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One recorded span; times are host instants.
struct Span {
    parent: Option<usize>,
    name: &'static str,
    sim: Option<usize>,
    start: Instant,
    end: Instant,
    /// Replay spans only: the timed calls the span aggregates.
    calls: Option<(u64, Duration)>,
}

/// Spans kept in memory and written out when the op ends.
#[derive(Default)]
struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        sim: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            parent,
            name,
            sim,
            start,
            end,
            calls: None,
        });
        self.spans.len() - 1
    }

    /// A span covering every timed call of one kind, from the first
    /// call's start to the last call's end.
    fn push_calls(&mut self, name: &'static str, parent: usize, sim: Option<usize>, t: &CallTimes) {
        if let (Some(start), Some(end)) = (t.first, t.last) {
            let id = self.push(name, Some(parent), sim, start, end);
            self.spans[id].calls = Some((t.calls, t.busy));
        }
    }

    fn to_jsonl(&self, op: &str, origin: Instant, sims: &[Sim]) -> String {
        let us = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e6;
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(out, "{{\"op\":\"{op}\",\"id\":{id},\"name\":\"{}\"", s.name);
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(k) = s.sim {
                let _ = write!(out, ",\"sim\":\"{}\"", sims[k].label);
            }
            let _ = write!(
                out,
                ",\"start_us\":{},\"end_us\":{}",
                us(s.start),
                us(s.end)
            );
            if let Some((calls, busy)) = s.calls {
                let _ = write!(
                    out,
                    ",\"calls\":{calls},\"busy_us\":{}",
                    busy.as_secs_f64() * 1e6
                );
            }
            out.push_str("}\n");
        }
        out
    }
}

/// The per-call costs of the server and report layers, measured by
/// replaying one simulation's update stream.
#[derive(Default)]
struct ServerReplay {
    apply: CallTimes,
    build: CallTimes,
    prepare: CallTimes,
    decode: CallTimes,
    /// The last window report built — the plan-intersection fixture.
    window: Option<Arc<ReportPayload>>,
}

/// Replays `cfg`'s update stream — its own `StreamId::Update` RNG, drawn
/// in the engine's order — through a fresh `Server`, and at every
/// broadcast tick builds, prepares and plan-decodes the report as the
/// engine does. Clients' `Tlb`s exist only in the full run, so the
/// adaptive schemes replay as plain windows.
fn replay_server(cfg: &SimConfig) -> ServerReplay {
    let sp = SizeParams {
        db_size: u64::from(cfg.db_size),
        group_count: u64::from(cfg.gcore_groups),
        timestamp_bits: cfg.timestamp_bits,
        header_bits: cfg.header_bits,
        control_bytes: cfg.control_bytes,
        item_bytes: cfg.item_bytes,
    };
    let mut server = Server::new(cfg.scheme, cfg.db_size, cfg.window_secs(), sp);
    server.configure_gcore(
        cfg.gcore_groups,
        f64::from(cfg.gcore_retention_intervals) * cfg.broadcast_period_secs,
    );
    let updates = UpdateGen::new(
        cfg.workload.update,
        cfg.db_size,
        cfg.mean_update_interarrival_secs,
        cfg.items_per_update_mean,
    );
    let mut rng = SimRng::for_stream(cfg.seed, StreamId::Update);
    let horizon = SimTime::from_secs(cfg.sim_time_secs);
    let mut next_update = SimTime::from_secs(updates.next_interarrival(&mut rng));
    let mut next_tick = SimTime::from_secs(cfg.broadcast_period_secs);
    let mut plan = PlanCache::new();
    let mut prev_report_at = SimTime::ZERO;
    let mut r = ServerReplay::default();
    loop {
        let now = next_update.min(next_tick);
        if now > horizon {
            break;
        }
        if next_update < next_tick {
            let items = updates.next_txn_items(&mut rng);
            r.apply.time(|| server.apply_txn(now, &items));
            next_update = now + updates.next_interarrival(&mut rng);
        } else {
            let (report, _) = r.build.time(|| server.build_report_shared(now));
            r.prepare.time(|| drop(black_box(report.prepare())));
            r.decode
                .time(|| plan.decode_for_tick(&report, prev_report_at, cfg.db_size));
            prev_report_at = report.broadcast_at();
            if matches!(*report, ReportPayload::Window(_)) {
                r.window = Some(report);
            }
            next_tick = now + cfg.broadcast_period_secs;
        }
    }
    r
}

/// Runs `pass` until [`MIN_REPLAY`] has elapsed (at least three times)
/// and returns the median of the per-pass values it reports.
fn median_of_passes(mut pass: impl FnMut() -> f64) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || (started.elapsed() < MIN_REPLAY && samples.len() < 10_000) {
        samples.push(pass());
    }
    samples.sort_by(f64::total_cmp);
    quantile(&samples, 0.5)
}

/// Nanoseconds per push or pop of the timing wheel on the simulator's
/// pattern — fill `pending` events over 10 000 s, churn each once by a
/// bounded delay, drain — at the run's own pending depth.
fn sched_ns_per_op(pending: usize, seed: u64) -> f64 {
    let n = pending.max(1);
    median_of_passes(|| {
        let mut rng = SimRng::new(seed);
        let mut s: Scheduler<u64> = Scheduler::new();
        let started = Instant::now();
        for i in 0..n {
            s.schedule(SimTime::from_secs(rng.next_f64() * 10_000.0), i as u64);
        }
        for i in 0..n {
            let (at, v) = s.pop().expect("the list holds n events");
            black_box(v);
            s.schedule(at + (1.0 + rng.next_f64() * 99.0), (n + i) as u64);
        }
        while let Some((_, v)) = s.pop() {
            black_box(v);
        }
        started.elapsed().as_nanos() as f64 / (4 * n) as f64
    })
}

/// Nanoseconds per `LruCache` call on a reference stream whose uniform
/// key space makes the cache hit at `hit_ratio`: each reference peeks,
/// looks up, and inserts on a miss.
fn lru_ns_per_op(capacity: usize, hit_ratio: f64, seed: u64) -> f64 {
    let universe = if hit_ratio > 0.0 {
        ((capacity as f64 / hit_ratio) as usize).clamp(capacity, capacity * 1_000)
    } else {
        capacity * 1_000
    };
    let mut rng = SimRng::new(seed);
    let refs: Vec<ItemId> = (0..100_000)
        .map(|_| ItemId(rng.next_below(universe as u64) as u32))
        .collect();
    let mut cache = LruCache::new(capacity);
    let mut clock = 0.0;
    let mut pass = |cache: &mut LruCache| {
        let mut calls = 0u64;
        for &item in &refs {
            clock += 1.0;
            let now = SimTime::from_secs(clock);
            black_box(cache.peek(item));
            calls += 2;
            if cache.get_valid(item).is_none() {
                cache.insert(item, now, now);
                calls += 1;
            }
        }
        calls
    };
    pass(&mut cache); // warm: the timed passes see a full cache
    median_of_passes(|| {
        let started = Instant::now();
        let calls = pass(&mut cache);
        started.elapsed().as_nanos() as f64 / calls as f64
    })
}

/// Nanoseconds per message through a downlink `Channel` (`send` plus its
/// `complete`): data items with a report preempting every eighth.
fn channel_ns_per_msg(rate_bps: f64, report_bits: f64, item_bits: f64) -> f64 {
    median_of_passes(|| {
        let mut ch: Channel<u64> = Channel::new(rate_bps);
        let mut due: Vec<Completion> = Vec::new();
        let mut now = SimTime::ZERO;
        let mut sent = 0u64;
        let started = Instant::now();
        for i in 0..20_000u64 {
            due.extend(ch.send(now, item_bits, CLASS_DATA, i));
            sent += 1;
            if i % 8 == 0 {
                due.extend(ch.send(now, report_bits.max(1.0), CLASS_REPORT, i));
                sent += 1;
            }
            while let Some(k) = (0..due.len()).min_by_key(|&k| due[k].at) {
                let c = due.swap_remove(k);
                now = c.at;
                if let Some(d) = ch.complete(now, c.token) {
                    black_box(d.msg);
                    due.extend(d.next);
                }
            }
        }
        started.elapsed().as_nanos() as f64 / sent as f64
    })
}

/// Nanoseconds per client of the plan-bitmap fan-out: `report` decoded
/// once, then intersected with `clients` caches of `cache_len` items
/// (half older than the window, half newer), peeking every candidate.
fn plan_intersect_ns_per_client(
    report: &ReportPayload,
    db_size: u32,
    cache_len: usize,
    clients: usize,
    seed: u64,
) -> f64 {
    let ReportPayload::Window(w) = report else {
        return 0.0;
    };
    let mut plan = PlanCache::new();
    plan.decode_for_tick(report, SimTime::ZERO, db_size);
    let mut rng = SimRng::new(seed);
    let caches: Vec<LruCache> = (0..clients)
        .map(|_| {
            let mut c = LruCache::new(cache_len);
            while c.len() < cache_len {
                let item = ItemId(rng.next_below(u64::from(db_size)) as u32);
                let v = if rng.coin(0.5) {
                    w.window_start
                } else {
                    w.broadcast_at
                };
                c.insert(item, v, v);
            }
            c
        })
        .collect();
    let mut stale = Vec::new();
    median_of_passes(|| {
        let started = Instant::now();
        for c in &caches {
            stale.clear();
            plan.intersect_into(c.member_words(), &mut stale, |item| {
                c.peek(item)
                    .is_some_and(|e| e.version < plan.listed_ts(item))
            });
            black_box(stale.len());
        }
        started.elapsed().as_nanos() as f64 / clients as f64
    })
}

/// One simulation of the traced op, as observed.
struct Observed {
    trace: SimTrace,
    metrics: mobicache::Metrics,
    run: Duration,
    tick_ms: Vec<f64>,
}

/// Runs the workload with spans and the probe attached, replays every
/// layer, and reports the per-layer metrics. Panics (a failed op) if a
/// replay does not reproduce the run's own update stream.
pub fn traced_op(req: &OpRequest, sims: &[Sim]) -> OpOutput {
    let origin = Instant::now();
    let mut log = SpanLog::default();
    let op = log.push("op", None, None, origin, origin);
    let mut out = OpOutput::default();
    let mut runs = Vec::with_capacity(sims.len());
    for (k, sim) in sims.iter().enumerate() {
        let mut trace = SimTrace::default();
        let t0 = Instant::now();
        let engine =
            Simulation::new(&sim.cfg, RunOptions::new().probe(&mut trace)).unwrap_or_else(|e| {
                panic!("{} {}: invalid config: {e}", req.workload.name(), sim.label)
            });
        let t1 = Instant::now();
        let result = engine.run_to_completion();
        let t2 = Instant::now();
        log.push("setup", Some(op), Some(k), t0, t1);
        let run = log.push("run", Some(op), Some(k), t1, t2);
        let mut tick_ms = Vec::with_capacity(trace.tick_stamps.len());
        for (i, &start) in trace.tick_stamps.iter().enumerate() {
            let end = trace.tick_stamps.get(i + 1).copied().unwrap_or(t2);
            log.push("tick", Some(run), Some(k), start, end);
            tick_ms.push((end - start).as_secs_f64() * 1e3);
        }
        out.setup_s += (t1 - t0).as_secs_f64();
        out.run_s += (t2 - t1).as_secs_f64();
        out.events += result.metrics.events_processed;
        out.sims.push(sim_output(&sim.label, &result.metrics));
        runs.push(Observed {
            trace,
            metrics: result.metrics,
            run: t2 - t1,
            tick_ms,
        });
    }

    let replays: Vec<ServerReplay> = sims
        .iter()
        .enumerate()
        .map(|(k, sim)| {
            let r = replay_server(&sim.cfg);
            assert_eq!(
                r.apply.calls * u64::from(sim.cfg.cells.cells),
                runs[k].metrics.server.txns_applied,
                "{}: the replayed update stream diverged from the run's",
                sim.label
            );
            log.push_calls("replay.server.apply_txn", op, Some(k), &r.apply);
            log.push_calls("replay.server.build_report", op, Some(k), &r.build);
            log.push_calls("replay.reports.prepare", op, Some(k), &r.prepare);
            log.push_calls("replay.reports.plan_decode", op, Some(k), &r.decode);
            r
        })
        .collect();

    let cfg = &sims[0].cfg;
    let snap = |o: &Observed| {
        o.trace
            .final_snapshot
            .expect("the engine snapshots at the horizon")
    };
    let sum = |f: &dyn Fn(&Observed) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let broadcasts = sum(&|o| o.trace.broadcasts);
    let hits = sum(&|o| o.metrics.item_hits);
    let misses = sum(&|o| o.metrics.item_misses);
    let plan_hits = sum(&|o| snap(o).plan_hits);
    let plan_misses = sum(&|o| snap(o).plan_misses);
    let report_bits_mean = ratio(runs.iter().map(|o| o.trace.report_bits).sum(), broadcasts);
    let adaptive: Vec<&Observed> = runs
        .iter()
        .zip(sims)
        .filter(|(_, s)| matches!(s.cfg.scheme, Scheme::Afw | Scheme::Aaw))
        .map(|(o, _)| o)
        .collect();
    let adaptive_bs_share = ratio(
        adaptive.iter().map(|o| o.trace.bs_broadcasts).sum::<u64>() as f64,
        adaptive.iter().map(|o| o.trace.broadcasts).sum::<u64>() as f64,
    );
    let salvaged = sum(&|o| o.trace.salvaged);
    let limbo_dropped = sum(&|o| o.trace.limbo_dropped);
    let hit_ratio = ratio(hits, hits + misses);

    let (mut apply, mut build, mut prepare, mut decode) = (
        CallTimes::default(),
        CallTimes::default(),
        CallTimes::default(),
        CallTimes::default(),
    );
    for r in &replays {
        apply.absorb(&r.apply);
        build.absorb(&r.build);
        prepare.absorb(&r.prepare);
        decode.absorb(&r.decode);
    }

    let pending = runs
        .iter()
        .map(|o| snap(o).queue_high_water)
        .max()
        .unwrap_or(1);
    let t = Instant::now();
    let sched_ns = sched_ns_per_op(pending, req.seed);
    log.push("replay.sim.scheduler", Some(op), None, t, Instant::now());
    let capacity = cfg.cache_capacity_items() as usize;
    let t = Instant::now();
    let lru_ns = lru_ns_per_op(capacity, hit_ratio, req.seed);
    log.push("replay.cache.lru", Some(op), None, t, Instant::now());
    let t = Instant::now();
    let item_bits = cfg.item_bits() + cfg.header_bits;
    let channel_ns = channel_ns_per_msg(cfg.downlink_bps, report_bits_mean, item_bits);
    log.push("replay.net.channel", Some(op), None, t, Instant::now());
    let clients = sims
        .iter()
        .map(|s| s.cfg.num_clients as usize)
        .max()
        .unwrap_or(1);
    let t = Instant::now();
    let intersect_ns = replays
        .iter()
        .rev()
        .find_map(|r| r.window.as_deref())
        .map_or(0.0, |report| {
            plan_intersect_ns_per_client(report, cfg.db_size, capacity, clients, req.seed)
        });
    log.push(
        "replay.reports.plan_intersect",
        Some(op),
        None,
        t,
        Instant::now(),
    );

    // Each layer's replayed per-call cost times its exact in-vivo call
    // count, against the run's wall time. The server and report builds
    // run serially in vivo; the plan intersection is the sharded fan-out,
    // credited with an ideal split over the engine's threads.
    let mut explained = 0.0;
    let mut server_reports = 0.0;
    for ((o, r), sim) in runs.iter().zip(&replays).zip(sims) {
        let m = &o.metrics;
        let calls = o.trace.broadcasts as f64;
        let sr = r.apply.mean_s() * m.server.txns_applied as f64
            + (r.build.mean_s() + r.prepare.mean_s() + r.decode.mean_s()) * calls;
        let messages = calls
            + 2.0 * m.item_misses as f64
            + m.server.tlbs_received as f64
            + 2.0 * m.server.checks_processed as f64;
        let rest = 1e-9
            * (intersect_ns * snap(o).plan_hits as f64 / f64::from(sim.cfg.threads.max(1))
                + sched_ns * 2.0 * m.events_processed as f64
                + lru_ns * (m.item_hits + 2 * m.item_misses) as f64
                + channel_ns * messages);
        let run = o.run.as_secs_f64();
        out.notes.push(format!(
            "replay {}: server+reports {:.3} of its {run:.3} s run, all replayed layers {:.3}",
            sim.label,
            sr / run,
            (sr + rest) / run
        ));
        server_reports += sr;
        explained += sr + rest;
    }

    let run_s: f64 = runs.iter().map(|o| o.run.as_secs_f64()).sum();
    let mut ticks: Vec<f64> = runs
        .iter()
        .flat_map(|o| o.tick_ms.iter().copied())
        .collect();
    ticks.sort_by(f64::total_cmp);
    let tick_covered: f64 = ticks.iter().sum::<f64>() / 1e3;
    let (tick_p50, tick_tail) = if ticks.is_empty() {
        (0.0, None)
    } else {
        (nearest_rank(&ticks, 0.5), Some(tail(&ticks)))
    };
    if let Some(t) = tick_tail {
        out.notes.push(format!(
            "core.tick_ms.tail is p{} of n={} ticks",
            t.p * 100.0,
            t.n
        ));
    }
    out.notes.push(format!(
        "tick spans cover {:.4} of run spans ({:.4} s uncovered: before the first broadcast)",
        ratio(tick_covered, run_s),
        run_s - tick_covered
    ));

    let layers: [(&str, f64); 30] = [
        ("sim.sched_ns_per_op", sched_ns),
        ("sim.events_delivered", out.events as f64),
        ("sim.queue_high_water", pending as f64),
        (
            "sim.slot_high_water",
            runs.iter()
                .map(|o| snap(o).slot_high_water)
                .max()
                .unwrap_or(0) as f64,
        ),
        ("sim.cascades", sum(&|o| snap(o).sched_cascades)),
        ("server.apply_txn_us", apply.mean_s() * 1e6),
        ("server.build_report_us", build.mean_s() * 1e6),
        ("server.report_bits_mean", report_bits_mean),
        ("server.adaptive_bs_share", adaptive_bs_share),
        ("reports.prepare_us", prepare.mean_s() * 1e6),
        ("reports.plan_decode_us", decode.mean_s() * 1e6),
        ("reports.plan_intersect_ns_per_client", intersect_ns),
        (
            "reports.plan_hit_ratio",
            ratio(plan_hits, plan_hits + plan_misses),
        ),
        (
            "reports.fanout_words_skipped",
            sum(&|o| snap(o).fanout_words_skipped),
        ),
        ("core.tick_ms.p50", tick_p50),
        ("core.tick_ms.tail", tick_tail.map_or(0.0, |t| t.value)),
        ("core.tick_coverage", ratio(tick_covered, run_s)),
        (
            "client.limbo_salvage_ratio",
            ratio(salvaged, salvaged + limbo_dropped),
        ),
        ("client.full_drops", sum(&|o| o.metrics.clients.full_drops)),
        ("cache.lru_ns_per_op", lru_ns),
        ("cache.hit_ratio", hit_ratio),
        ("cache.evictions", sum(&|o| o.metrics.cache_evictions)),
        ("net.channel_ns_per_msg", channel_ns),
        (
            "net.downlink_utilization",
            runs.iter()
                .map(|o| o.metrics.downlink_utilization)
                .sum::<f64>()
                / runs.len() as f64,
        ),
        ("net.preemptions", sum(&|o| o.metrics.downlink_preemptions)),
        ("faults.reports_lost", sum(&|o| o.metrics.reports_lost)),
        ("faults.retries", sum(&|o| o.metrics.faults.retries_sent)),
        ("mobility.handoffs", sum(&|o| o.metrics.mobility.handoffs)),
        ("replay.explained_share", ratio(explained, run_s)),
        ("replay.server_reports_share", ratio(server_reports, run_s)),
    ];
    out.layers = layers
        .into_iter()
        .map(|(name, v)| (name.to_string(), v))
        .collect();

    log.spans[op].end = Instant::now();
    if let Some(path) = &req.trace_out {
        let op_name = format!("{}@{:#x}", req.workload.name(), req.seed);
        let body = log.to_jsonl(&op_name, origin, sims);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create the trace directory");
        }
        std::fs::write(path, body).expect("write the span trace");
        out.notes.push(format!(
            "{} spans written to {}",
            log.spans.len(),
            path.display()
        ));
    }
    out.peak_rss_kib = crate::op::peak_rss_kib();
    out
}
