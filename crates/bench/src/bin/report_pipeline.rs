//! End-to-end report-pipeline benchmark: the numbers behind
//! `BENCH_report_pipeline.json`.
//!
//! Sections:
//!
//! * **e2e** — the `fig05` sweep (one scheme per run, single worker
//!   thread, smoke horizon) for BS, AAW and simple checking: wall
//!   seconds and simulator events/second per scheme, best of several
//!   repetitions.
//! * **stress** — one heavy configuration per scheme (large database,
//!   200 clients, fast updates) where report construction and fan-out
//!   dominate wall time; this is where pipeline regressions are loudest.
//! * **handoff** — the stress shape spread over a 4-cell topology with
//!   migrating clients: per-cell report fan-out, per-cell update replay
//!   and the handoff machinery (blackouts, Tlb re-announcement, parked
//!   queries) all at once, for BS and AAW.
//! * **scaling** — the sharded-engine sweep: clients × worker threads
//!   for the full simulation, measuring the persistent worker pool's
//!   overhead and scaling. Workers are spawned once per engine and fed
//!   per-tick work descriptors, so the per-tick cost is a wake/claim
//!   handshake rather than thread creation. `host_cores` is recorded
//!   alongside: with a single hardware core, threads > 1 exercise
//!   concurrency (the determinism contract) without parallel speedup.
//! * **popscale** — the struct-of-arrays population sweep: one AAW run
//!   at 10 k, 100 k and 1 M clients (shortening the horizon as the
//!   population grows), pinning events/second *and* peak RSS per
//!   population. Runs first and in ascending order because the RSS
//!   figure is `VmHWM` — the process high-water mark, which only ever
//!   rises.
//! * **sched** — the future-event-list micro-benchmark: the retired
//!   `BinaryHeap` scheduler (kept here as a local baseline) vs the live
//!   hierarchical timing wheel on a deterministic fill/churn/drain
//!   workload at 10 k, 100 k and 1 M pending events, in ns per push/pop
//!   operation.
//! * **invplan** — the invalidation-plan micro-benchmark: one AAW-shaped
//!   window report applied to 10 k / 100 k / 1 M real `LruCache`s,
//!   comparing the two arms a client selects between — one plan-bit
//!   probe per cached item vs the word-wise `PlanCache` intersection —
//!   in ns per client; plus a short probed AAW run recording the
//!   plan-cache hit rate and the number of all-zero fan-out words
//!   skipped.
//!
//! Run via `scripts/bench.sh`, which writes the JSON to the repo root.
//! `--quick` shrinks every section for the CI smoke step; `--out PATH`
//! writes the JSON file (otherwise stdout); `--threads N` gives the
//! stress, handoff, popscale and probe runs `N` engine worker threads.
//!
//! CI regression gates each run one section and exit non-zero on a
//! miss. `--smoke-popscale CLIENTS`, `--smoke-stress`, `--smoke-handoff`
//! and `--smoke-e2e` need at least 90 % (e2e: 80 %, its wall times being
//! tens of milliseconds) of the matching row's events/second in the
//! committed JSON named by `--check-against PATH`; `--smoke-sched`,
//! `--smoke-invplan` and `--smoke-bsbuild` compare two paths timed in
//! one process, so they hold on any host.

use mobicache::{run, IntervalSampler, RunOptions};
use mobicache_cache::LruCache;
use mobicache_experiments::figures::fig05;
use mobicache_experiments::{run_figure_with, CoreSplitPolicy, RunReporting, RunScale};
use mobicache_model::msg::SizeParams;
use mobicache_model::{CellTopology, ItemId, Scheme, SimConfig};
use mobicache_reports::{BitSequences, PlanCache, ReportPayload, WindowReport};
use mobicache_server::Server;
use mobicache_sim::{Scheduler, SimRng, SimTime};
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Wall numbers measured at the commit *before* the shared-index /
/// report-cache refactor landed, same machine, non-quick settings.
/// Kept in the JSON so a single file shows before vs after.
const BASELINE_BEFORE: &str = r#"  "baseline_before": {
    "note": "pre-refactor (per-client linear scans, report rebuilt every tick)",
    "e2e": [
      { "scheme": "Bs", "wall_secs": 0.033, "events": 17640, "events_per_sec": 537612 },
      { "scheme": "Aaw", "wall_secs": 0.049, "events": 22467, "events_per_sec": 461185 },
      { "scheme": "SimpleChecking", "wall_secs": 0.041, "events": 22721, "events_per_sec": 552418 }
    ],
    "stress": [
      { "scheme": "Bs", "wall_secs": 0.049, "events": 5304, "events_per_sec": 108823 },
      { "scheme": "Aaw", "wall_secs": 0.173, "events": 6472, "events_per_sec": 37412 },
      { "scheme": "SimpleChecking", "wall_secs": 0.134, "events": 6638, "events_per_sec": 49701 }
    ]
  },
"#;

/// Wall seconds of one call to `f`, and its result (dropped outside
/// the measurement).
fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64(), out)
}

/// Best-of-`reps` wall seconds of `job`, which runs the measured work
/// once and returns its event count; also returns the last run's events.
fn best_of(reps: usize, mut job: impl FnMut() -> u64) -> (f64, u64) {
    let mut best = (f64::INFINITY, 0);
    for _ in 0..reps {
        let (wall, events) = timed(&mut job);
        best = (best.0.min(wall), events);
    }
    best
}

/// Runs one simulation and returns its event count. A multi-cell
/// configuration that never hands a client off would time the
/// single-cell path under a multi-cell name, so that fails loudly.
fn sim_events(cfg: &SimConfig) -> u64 {
    let metrics = run(cfg, RunOptions::default())
        .expect("bench config validates")
        .metrics;
    assert!(
        cfg.cells.cells == 1 || metrics.mobility.handoffs > 0,
        "a multi-cell bench must actually hand off"
    );
    metrics.events_processed
}

/// One row of a JSON section, formatted as one object.
trait JsonRow: Sized {
    fn json(&self) -> String;

    /// Logs the row to stderr under `section` as it is measured.
    fn logged(self, section: &str) -> Self {
        eprintln!("{section}: {}", self.json());
        self
    }
}

/// Declares a JSON row type once: each field with the format of its
/// JSON column, in column order.
macro_rules! json_row {
    ($(#[$doc:meta])* $name:ident { $($field:ident: $ty:ty => $fmt:literal,)* }) => {
        $(#[$doc])*
        struct $name {
            $($field: $ty,)*
        }

        impl JsonRow for $name {
            fn json(&self) -> String {
                let columns = [$(
                    format!(concat!("\"", stringify!($field), "\": ", $fmt), self.$field),
                )*];
                format!("{{ {} }}", columns.join(", "))
            }
        }
    };
}

json_row! {
    /// One scheme's row of the `e2e`, `stress` and `handoff` sections.
    E2eRow {
        scheme: Scheme => "\"{:?}\"",
        points: usize => "{}",
        wall_secs: f64 => "{:.3}",
        events: u64 => "{}",
        events_per_sec: f64 => "{:.0}",
    }
}

impl E2eRow {
    /// The row for one `best_of` result, logged to stderr.
    fn from_best(section: &str, scheme: Scheme, points: usize, best: (f64, u64)) -> Self {
        let (wall_secs, events) = best;
        E2eRow {
            scheme,
            points,
            wall_secs,
            events,
            events_per_sec: events as f64 / wall_secs,
        }
        .logged(section)
    }
}

/// The `fig05` sweep's scale: serial engines, as every committed e2e
/// number was measured.
fn e2e_scale(quick: bool) -> RunScale {
    RunScale {
        time_factor: if quick { 0.01 } else { 0.05 },
        max_threads: Some(1),
        replications: 1,
        split: CoreSplitPolicy::PointsOnly,
    }
}

/// Best-of-`reps` wall time for each scheme's `fig05` sweep.
fn bench_e2e(schemes: &[Scheme], quick: bool, reps: usize) -> Vec<E2eRow> {
    let scale = e2e_scale(quick);
    schemes
        .iter()
        .map(|&scheme| {
            let mut spec = fig05::spec();
            spec.schemes = vec![scheme];
            if quick {
                spec.points.truncate(2);
            }
            let best = best_of(reps, || {
                run_figure_with(&spec, scale, RunReporting::default())
                    .expect("fig05 spec validates")
                    .series
                    .iter()
                    .flat_map(|s| &s.points)
                    .map(|p| p.metrics.events_processed)
                    .sum()
            });
            E2eRow::from_best("e2e", scheme, spec.points.len(), best)
        })
        .collect()
}

/// One heavy point per scheme: big database (large caches and BS
/// reports), 200 clients (wide fan-out), updates every 5 s (full
/// windows). Report building and application dominate here.
fn stress_cfg(scheme: Scheme, quick: bool) -> SimConfig {
    let mut cfg = SimConfig::paper_default().with_scheme(scheme);
    cfg.sim_time_secs = if quick { 1_000.0 } else { 8_000.0 };
    cfg.db_size = 40_000;
    cfg.num_clients = 200;
    cfg.mean_update_interarrival_secs = 5.0;
    cfg
}

/// The multi-cell mobility stress point: the heavy stress shape spread
/// over 4 cells, residency expiring every ~250 s against the 20 s
/// broadcast period, a 12 s blackout per handoff and a dozing
/// population — the per-cell report fan-out, the per-cell `UpdateLog`
/// replay (4× the txn application work) and the handoff machinery all
/// on the clock at once.
fn handoff_cfg(scheme: Scheme, quick: bool) -> SimConfig {
    let mut cfg = stress_cfg(scheme, quick).with_cells(CellTopology {
        cells: 4,
        mean_residency_secs: 250.0,
        handoff_secs: 12.0,
        p_roam: 0.8,
    });
    cfg.p_disconnect = 0.2;
    cfg
}

/// A single-configuration section (`stress`, `handoff`): best of `reps`
/// runs of each scheme's configuration.
fn bench_single(section: &str, cfgs: &[SimConfig], reps: usize) -> Vec<E2eRow> {
    cfgs.iter()
        .map(|cfg| E2eRow::from_best(section, cfg.scheme, 1, best_of(reps, || sim_events(cfg))))
        .collect()
}

json_row! {
    ScalingRow {
        clients: u32 => "{}",
        threads: u32 => "{}",
        wall_secs: f64 => "{:.3}",
        events: u64 => "{}",
        events_per_sec: f64 => "{:.0}",
        speedup_vs_1t: f64 => "{:.2}",
    }
}

/// The sharded engine under a fan-out-dominated load (AAW, frequent
/// updates): every broadcast tick applies a report to every connected
/// client, which is exactly the phase the worker shards parallelise.
/// Sweeps the client population × thread count and reports each cell's
/// speedup against its own threads=1 row.
fn bench_scaling(quick: bool) -> Vec<ScalingRow> {
    let client_counts: &[u32] = if quick {
        &[100, 1_000]
    } else {
        &[100, 1_000, 10_000]
    };
    let thread_counts: &[u32] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let reps = if quick { 1 } else { 2 };
    let mut rows = Vec::new();
    for &clients in client_counts {
        let mut base_wall = f64::NAN;
        for &threads in thread_counts {
            let mut cfg = SimConfig::paper_default()
                .with_scheme(Scheme::Aaw)
                .with_threads(threads);
            cfg.sim_time_secs = if quick { 250.0 } else { 1_000.0 };
            cfg.db_size = 10_000;
            cfg.num_clients = clients;
            cfg.mean_update_interarrival_secs = 5.0;
            let (wall_secs, events) = best_of(reps, || sim_events(&cfg));
            if threads == 1 {
                base_wall = wall_secs;
            }
            let row = ScalingRow {
                clients,
                threads,
                wall_secs,
                events,
                events_per_sec: events as f64 / wall_secs,
                speedup_vs_1t: base_wall / wall_secs,
            };
            rows.push(row.logged("scaling"));
        }
    }
    rows
}

json_row! {
    PopRow {
        clients: u32 => "{}",
        threads: u32 => "{}",
        wall_secs: f64 => "{:.3}",
        events: u64 => "{}",
        events_per_sec: f64 => "{:.0}",
        peak_rss_mb: f64 => "{:.0}",
    }
}

/// The process peak resident set (`VmHWM`) in KiB. Monotone over the
/// process lifetime — callers that want per-phase peaks must order
/// phases by expected footprint.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The pinned popscale configuration for one population size. The
/// horizon shrinks as the population grows so every row costs seconds,
/// not minutes, while still spanning many broadcast periods.
fn popscale_cfg(clients: u32, threads: u32) -> SimConfig {
    let mut cfg = SimConfig::paper_default()
        .with_scheme(Scheme::Aaw)
        .with_threads(threads);
    cfg.db_size = 1_000;
    cfg.num_clients = clients;
    cfg.sim_time_secs = match clients {
        c if c >= 1_000_000 => 60.0,
        c if c >= 100_000 => 200.0,
        _ => 600.0,
    };
    cfg
}

fn run_popscale_once(clients: u32, threads: u32) -> PopRow {
    let cfg = popscale_cfg(clients, threads);
    let (wall_secs, events) = best_of(1, || sim_events(&cfg));
    PopRow {
        clients,
        threads,
        wall_secs,
        events,
        events_per_sec: events as f64 / wall_secs,
        peak_rss_mb: peak_rss_kb().map_or(f64::NAN, |kb| kb as f64 / 1024.0),
    }
    .logged("popscale")
}

/// Ascending populations so each row's `VmHWM` reading is its own peak;
/// this section must run before the others for the same reason.
fn bench_popscale(quick: bool, threads: u32) -> Vec<PopRow> {
    let pops: &[u32] = if quick {
        &[10_000, 100_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    pops.iter()
        .map(|&clients| run_popscale_once(clients, threads))
        .collect()
}

/// The pre-wheel future-event list, verbatim: a `BinaryHeap` with the
/// `(at, seq)` comparator reversed for min-first pops. Kept here as the
/// `sched` section's baseline now that the live scheduler is a timing
/// wheel.
#[derive(Default)]
struct HeapSched {
    heap: BinaryHeap<HeapEntry>,
    now: SimTime,
    seq: u64,
}

struct HeapEntry {
    at: SimTime,
    seq: u64,
    value: u64,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The push/pop surface the `sched` section drives — implemented by the
/// heap baseline and the live timing wheel.
trait EventList {
    fn push(&mut self, at: SimTime, value: u64);
    fn pop(&mut self) -> Option<(SimTime, u64)>;
}

impl EventList for HeapSched {
    fn push(&mut self, at: SimTime, value: u64) {
        assert!(at >= self.now);
        self.heap.push(HeapEntry {
            at,
            seq: self.seq,
            value,
        });
        self.seq += 1;
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let e = self.heap.pop()?;
        self.now = e.at;
        Some((e.at, e.value))
    }
}

impl EventList for Scheduler<u64> {
    fn push(&mut self, at: SimTime, value: u64) {
        self.schedule(at, value);
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        Scheduler::pop(self)
    }
}

/// The simulator-shaped scheduler workload: fill `n` events over a
/// 10 000 s horizon, then `n` pop → re-push churn steps (the steady
/// state: every delivery schedules a successor a bounded delay out),
/// then drain. 4·n push/pop operations total.
fn drive_event_list(s: &mut impl EventList, n: usize) {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut unit = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for i in 0..n {
        s.push(SimTime::from_secs(unit() * 10_000.0), i as u64);
    }
    for i in 0..n {
        let (at, v) = s.pop().expect("list is full");
        black_box(v);
        s.push(at + (1.0 + unit() * 99.0), (n + i) as u64);
    }
    while let Some((_, v)) = s.pop() {
        black_box(v);
    }
}

json_row! {
    SchedRow {
        pending: usize => "{}",
        heap_ns_per_op: f64 => "{:.1}",
        wheel_ns_per_op: f64 => "{:.1}",
        speedup: f64 => "{:.2}",
    }
}

/// Scheduler micro-benchmark: the heap baseline vs the timing wheel on
/// the same deterministic workload, at several steady-state sizes. Best
/// of `reps` full passes; ns amortized over all 4·n operations.
fn bench_sched(quick: bool) -> Vec<SchedRow> {
    let sizes: &[usize] = if quick {
        &[10_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let reps = if quick { 2 } else { 3 };
    let rows = sizes.iter().map(|&n| {
        let ops = (4 * n) as f64;
        let mut heap_ns = f64::INFINITY;
        let mut wheel_ns = f64::INFINITY;
        for _ in 0..reps {
            let mut heap = HeapSched::default();
            heap_ns = heap_ns.min(timed(|| drive_event_list(&mut heap, n)).0 * 1e9);
            let mut wheel: Scheduler<u64> = Scheduler::new();
            wheel_ns = wheel_ns.min(timed(|| drive_event_list(&mut wheel, n)).0 * 1e9);
        }
        SchedRow {
            pending: n,
            heap_ns_per_op: heap_ns / ops,
            wheel_ns_per_op: wheel_ns / ops,
            speedup: heap_ns / wheel_ns,
        }
        .logged("sched")
    });
    rows.collect()
}

json_row! {
    InvplanRow {
        clients: u32 => "{}",
        cache_len: u32 => "{}",
        per_item_ns_per_client: f64 => "{:.1}",
        plan_ns_per_client: f64 => "{:.1}",
        speedup: f64 => "{:.2}",
    }
}

json_row! {
    /// Plan-cache effectiveness observed by a probed short AAW run.
    InvplanProbe {
        clients: u32 => "{}",
        sim_secs: f64 => "{:.0}",
        plan_decodes: u64 => "{}",
        plan_hits: u64 => "{}",
        plan_misses: u64 => "{}",
        hit_rate: f64 => "{:.4}",
        fanout_words_skipped: u64 => "{}",
    }
}

/// The AAW stress shape (`stress_cfg`: db 40 000, paper cache fraction →
/// 800-item caches, updates every 5 s → a 200 s window lists ~40 items)
/// frozen at one tick. Caches are real `LruCache`s so both arms pay
/// their true costs — the per-item arm its ~25 KB slab iteration + one
/// plan-bit probe per entry, the word arm its 5 KB membership-bitmap AND
/// + `peek` per surviving candidate.
fn invplan_fixture(clients: u32, records: u32, db: u32) -> (WindowReport, Vec<LruCache>) {
    let cache_len = (db as f64 * 0.02) as u32;
    let report = WindowReport {
        broadcast_at: SimTime::from_secs(1_000.0),
        window_start: SimTime::from_secs(800.0),
        records: (0..records)
            .map(|k| {
                (
                    ItemId(k * (db / records)),
                    SimTime::from_secs(810.0 + f64::from(k) * 0.01),
                )
            })
            .collect(),
        dummy: None,
    };
    // A prime stride coprime to `db` makes each cache's ids distinct
    // and spreads record overlap evenly across clients; the client
    // offset rotates each footprint across the database.
    let stride = 53u32;
    assert!(
        !db.is_multiple_of(stride) && cache_len < db,
        "ids must stay distinct"
    );
    let caches: Vec<LruCache> = (0..clients)
        .map(|cl| {
            let mut c = LruCache::new(cache_len as usize);
            for i in 0..cache_len {
                // Half the entries predate the window (stale if listed),
                // half postdate every record (fresh either way).
                let version = if (cl + i) % 2 == 0 { 805.0 } else { 999.0 };
                c.insert(
                    ItemId((cl.wrapping_mul(4099) + i * stride) % db),
                    SimTime::from_secs(version),
                    SimTime::from_secs(version),
                );
            }
            c
        })
        .collect();
    (report, caches)
}

/// One timed invplan cell: full fan-out passes over every cache, best of
/// `reps`, both arms decoding the plan once per pass and producing the
/// identical stale set per client.
fn run_invplan_once(clients: u32, reps: usize) -> InvplanRow {
    let db = 40_000u32;
    let (report, caches) = invplan_fixture(clients, 40, db);
    let mut plan = PlanCache::new();
    let payload = ReportPayload::Window(report);

    let mut per_item_ns = f64::INFINITY;
    let mut stale = Vec::new();
    for _ in 0..reps {
        let started = Instant::now();
        plan.decode_for_tick(&payload, SimTime::ZERO, db);
        for cache in &caches {
            stale.clear();
            stale.extend(
                cache
                    .items_iter()
                    .filter(|&(item, version)| plan.window_stale(item, version))
                    .map(|(item, _)| item),
            );
            black_box(stale.len());
        }
        per_item_ns = per_item_ns.min(started.elapsed().as_nanos() as f64);
    }

    let mut plan_ns = f64::INFINITY;
    for _ in 0..reps {
        let started = Instant::now();
        plan.decode_for_tick(&payload, SimTime::ZERO, db);
        for cache in &caches {
            stale.clear();
            plan.intersect_into(cache.member_words(), &mut stale, |item| {
                cache
                    .peek(item)
                    .is_some_and(|e| e.version < plan.listed_ts(item))
            });
            black_box(stale.len());
        }
        plan_ns = plan_ns.min(started.elapsed().as_nanos() as f64);
    }

    let n = f64::from(clients);
    InvplanRow {
        clients,
        cache_len: (db as f64 * 0.02) as u32,
        per_item_ns_per_client: per_item_ns / n,
        plan_ns_per_client: plan_ns / n,
        speedup: per_item_ns / plan_ns,
    }
    .logged("invplan")
}

/// The plan hit rate in vivo: a probed AAW run at the popscale shape,
/// reading the cumulative plan counters off the last interval snapshot.
fn invplan_probe(quick: bool, threads: u32) -> InvplanProbe {
    let clients = 10_000u32;
    let mut cfg = popscale_cfg(clients, threads);
    cfg.sim_time_secs = if quick { 100.0 } else { 600.0 };
    let mut sampler = IntervalSampler::every(5);
    run(&cfg, RunOptions::new().probe(&mut sampler)).expect("invplan probe config validates");
    let last = sampler
        .snapshots()
        .last()
        .expect("probed run emits snapshots");
    InvplanProbe {
        clients,
        sim_secs: cfg.sim_time_secs,
        plan_decodes: last.plan_decodes,
        plan_hits: last.plan_hits,
        plan_misses: last.plan_misses,
        hit_rate: last.plan_hits as f64 / (last.plan_hits + last.plan_misses).max(1) as f64,
        fanout_words_skipped: last.fanout_words_skipped,
    }
    .logged("invplan probe")
}

fn bench_invplan(quick: bool) -> Vec<InvplanRow> {
    let pops: &[u32] = if quick {
        &[10_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let reps = if quick { 3 } else { 5 };
    pops.iter()
        .map(|&clients| run_invplan_once(clients, reps))
        .collect()
}

/// The committed events/second of the `section` row that opens with
/// `row` (e.g. `"clients": 100000` or `"scheme": "Aaw"`) in the JSON at
/// `path`. Reads the *last* `section` key, skipping `baseline_before`'s
/// `"e2e"` and `"stress"`, up to its closing `]`. A hand-rolled scan —
/// the repo vendors no JSON parser and the bench file's shape is ours.
fn committed_rate(path: &str, section: &str, row: &str) -> Option<f64> {
    let body = std::fs::read_to_string(path).ok()?;
    let section = &body[body.rfind(&format!("\"{section}\":"))?..];
    let section = &section[..section.find(']')?];
    let row = &section[section.find(&format!("{{ {row},"))?..];
    let row = &row[..row.find('}')?];
    let key = "\"events_per_sec\":";
    row[row.find(key)? + key.len()..]
        .split(',')
        .next()?
        .trim()
        .parse()
        .ok()
}

/// A committed-number CI gate: `rate` passes at or above `floor` times
/// the `committed` events/second. Returns the process exit code.
fn floor_gate(name: &str, rate: f64, committed: Option<f64>, floor: f64) -> i32 {
    let Some(committed) = committed else {
        eprintln!("{name}: no committed row to check against");
        return 1;
    };
    let min = committed * floor;
    let line = format!("{rate:.0} ev/s vs committed {committed:.0} ev/s (floor {min:.0})");
    verdict(name, rate >= min, &line)
}

/// Prints a CI gate's `ok` or `REGRESSION` line and returns the process
/// exit code.
fn verdict(name: &str, pass: bool, line: &str) -> i32 {
    eprintln!(
        "{name}: {} — {line}",
        if pass { "ok" } else { "REGRESSION" }
    );
    i32::from(!pass)
}

/// The invalidation-plan CI smoke: at the stress shape's 800-item
/// caches the client selection picks the word arm, so the word arm must
/// beat the per-item arm timed in the same process. 10 k clients (about
/// half a GiB of caches) already overflow the CPU caches as a larger
/// population would.
fn smoke_invplan() -> i32 {
    let row = run_invplan_once(10_000, 3);
    let line = format!(
        "word arm {:.0} ns/client vs per-item arm {:.0} ns/client ({:.2}x)",
        row.plan_ns_per_client, row.per_item_ns_per_client, row.speedup
    );
    verdict("smoke-invplan", row.speedup > 1.0, &line)
}

/// One replay of the stress shape's update stream (its database, txn
/// size and rate, broadcast period and horizon; fixed interarrivals,
/// uniform items) through a BS server. Returns the host seconds spent
/// in the per-tick `build_report_shared` and in a from-scratch
/// `BitSequences::from_recency` of the same log state.
fn bsbuild_once(seed: u64) -> (f64, f64) {
    let cfg = stress_cfg(Scheme::Bs, false);
    let params = SizeParams {
        db_size: u64::from(cfg.db_size),
        group_count: u64::from(cfg.gcore_groups),
        timestamp_bits: cfg.timestamp_bits,
        header_bits: cfg.header_bits,
        control_bytes: cfg.control_bytes,
        item_bytes: cfg.item_bytes,
    };
    let mut server = Server::new(Scheme::Bs, cfg.db_size, cfg.window_secs(), params);
    let mut rng = SimRng::new(seed);
    let txn_items = cfg.items_per_update_mean.round() as usize;
    let mut next_update = cfg.mean_update_interarrival_secs;
    let (mut shared, mut scratch) = (0.0, 0.0);
    let mut now = cfg.broadcast_period_secs;
    while now <= cfg.sim_time_secs {
        while next_update < now {
            let items: Vec<ItemId> = (0..txn_items)
                .map(|_| ItemId(rng.next_below(u64::from(cfg.db_size)) as u32))
                .collect();
            server.apply_txn(SimTime::from_secs(next_update), &items);
            next_update += cfg.mean_update_interarrival_secs;
        }
        let at = SimTime::from_secs(now);
        let (secs, report) = timed(|| server.build_report_shared(at));
        shared += secs;
        drop(black_box(report));
        let (secs, rebuilt) =
            timed(|| BitSequences::from_recency(at, cfg.db_size, server.log().recency_desc()));
        scratch += secs;
        drop(black_box(rebuilt));
        now += cfg.broadcast_period_secs;
    }
    (shared, scratch)
}

/// The BS build CI smoke: the shared-index build must beat the
/// from-scratch build by at least 10× (best of three replays per side,
/// timed in one process, so no committed numbers are needed).
fn smoke_bsbuild() -> i32 {
    let (mut shared, mut scratch) = (f64::INFINITY, f64::INFINITY);
    for seed in 0..3 {
        let (a, b) = bsbuild_once(seed);
        shared = shared.min(a);
        scratch = scratch.min(b);
    }
    let ratio = scratch / shared;
    let line = format!(
        "shared build {:.2} ms vs from-scratch build {:.2} ms per replay ({ratio:.1}x)",
        shared * 1e3,
        scratch * 1e3
    );
    verdict("smoke-bsbuild", ratio >= 10.0, &line)
}

/// The scheduler CI smoke: the 10k-pending `sched` row must show the
/// wheel at least matching the heap baseline (the committed full run
/// pins the ≥2x margin at 1M pending; this leg catches a wheel that
/// regressed to worse-than-heap without burning CI minutes).
fn smoke_sched() -> i32 {
    let row = &bench_sched(true)[0];
    let line = format!(
        "wheel {:.1} ns/op vs heap {:.1} ns/op ({:.2}x)",
        row.wheel_ns_per_op, row.heap_ns_per_op, row.speedup
    );
    verdict("smoke-sched", row.speedup >= 1.0, &line)
}

/// `rows` one per line at `indent`, comma-separated.
fn json_lines(rows: &[impl JsonRow], indent: &str) -> String {
    let lines: Vec<String> = rows
        .iter()
        .map(|r| format!("{indent}{}", r.json()))
        .collect();
    lines.join(",\n")
}

/// An array section of scheme rows: `"name": [ … ]`.
fn rows_section(name: &str, rows: &[E2eRow]) -> String {
    format!("  \"{name}\": [\n{}\n  ]", json_lines(rows, "    "))
}

/// A section with a note: `"name": { "note": …, <head>"rows": [ … ]<tail> }`.
fn note_section(name: &str, note: &str, head: &str, rows: &[impl JsonRow], tail: &str) -> String {
    let rows = json_lines(rows, "      ");
    format!("  \"{name}\": {{\n    \"note\": \"{note}\",\n{head}    \"rows\": [\n{rows}\n    ]{tail}\n  }}")
}

/// The AAW row of a scheme-keyed section, as `committed_rate` finds it.
const AAW_ROW: &str = "\"scheme\": \"Aaw\"";
/// The `"scheme"` line of the all-AAW sections.
const AAW_HEAD: &str = "    \"scheme\": \"Aaw\",\n";

const POPSCALE_NOTE: &str = "struct-of-arrays population sweep: one AAW run per \
    population (horizon shrinks as clients grow), pinning throughput and \
    peak RSS. Runs first, populations ascending, because peak_rss_mb is \
    VmHWM — the process-lifetime high-water mark.";

const SCHED_NOTE: &str = "future-event-list micro-benchmark: the retired \
    BinaryHeap scheduler vs the live hierarchical timing wheel on the \
    same deterministic fill/churn/drain workload (4n ops at n pending, \
    10000 s horizon). ns amortized per push/pop op, best-of-reps.";

const INVPLAN_NOTE: &str = "invalidation-plan micro-benchmark: one AAW-shaped window \
    report at the stress shape (db 40000, 40 records, 800-item caches) \
    applied to N real LruCaches through the two arms a client selects \
    between: one plan-bit probe per cached item (per_item) vs the \
    word-wise PlanCache bitmap intersection (plan), each decoding the \
    plan once per pass, ns per client best-of-reps. hit_rate_probe is a \
    probed AAW run at the popscale shape reading the cumulative plan \
    counters off the last interval snapshot.";

/// Runs every section in file order — popscale first and ascending,
/// because its peak-RSS column reads `VmHWM` — and returns the JSON.
fn bench_all(quick: bool, threads: u32) -> String {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let all = [Scheme::Bs, Scheme::Aaw, Scheme::SimpleChecking];
    let reps = if quick { 1 } else { 3 };
    let stress = |scheme| stress_cfg(scheme, quick).with_threads(threads);
    let handoff = |scheme| handoff_cfg(scheme, quick).with_threads(threads);
    let scaling_note = format!(
        "full AAW simulation, clients x engine worker threads; \
         speedup_vs_1t compares against the same population single-threaded. \
         Workers persist across ticks (spawned once per engine), so per-tick \
         overhead is a wake/claim handshake, not thread creation. Measured \
         with host_cores = {host_cores}; rows with more threads than cores \
         verify overhead, not speedup."
    );
    let sections = [
        note_section(
            "popscale",
            POPSCALE_NOTE,
            AAW_HEAD,
            &bench_popscale(quick, threads),
            "",
        ),
        note_section("sched", SCHED_NOTE, "", &bench_sched(quick), ""),
        rows_section("e2e", &bench_e2e(&all, quick, reps)),
        rows_section("stress", &bench_single("stress", &all.map(stress), reps)),
        rows_section(
            "handoff",
            &bench_single("handoff", &[Scheme::Bs, Scheme::Aaw].map(handoff), reps),
        ),
        note_section(
            "invplan",
            INVPLAN_NOTE,
            "",
            &bench_invplan(quick),
            &format!(
                ",\n    \"hit_rate_probe\": {}",
                invplan_probe(quick, threads).json()
            ),
        ),
        note_section(
            "scaling",
            &scaling_note,
            AAW_HEAD,
            &bench_scaling(quick),
            "",
        ),
    ];
    format!(
        "{{\n  \"bench\": \"report_pipeline\",\n  \"quick\": {quick},\n  \
         \"host_cores\": {host_cores},\n  \"engine_threads\": {threads},\n  \
         \"scale\": {{ \"figure\": \"fig05\", \"time_factor\": {}, \"threads\": 1 }},\n\
         {BASELINE_BEFORE}{}\n}}\n",
        e2e_scale(quick).time_factor,
        sections.join(",\n")
    )
}

/// The value after flag `name` on the command line, parsed; `None` when
/// the flag is absent.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    let i = args.iter().position(|a| a == name)?;
    let value = args.get(i + 1).and_then(|v| v.parse().ok());
    Some(value.unwrap_or_else(|| panic!("{name} takes a valid value")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |name: &str| args.iter().any(|a| a == name);
    let threads = flag(&args, "--threads").unwrap_or(1);
    let gate = |section: &str, row: &str, rate: f64, floor: f64| {
        let path: String =
            flag(&args, "--check-against").expect("this gate needs --check-against PATH");
        let committed = committed_rate(&path, section, row);
        floor_gate(&format!("smoke-{section}"), rate, committed, floor)
    };

    let code = if let Some(clients) = flag(&args, "--smoke-popscale") {
        let rate = run_popscale_once(clients, threads).events_per_sec;
        gate("popscale", &format!("\"clients\": {clients}"), rate, 0.9)
    } else if has("--smoke-stress") {
        let cfg = stress_cfg(Scheme::Aaw, false).with_threads(threads);
        let rows = bench_single("stress", &[cfg], 2);
        gate("stress", AAW_ROW, rows[0].events_per_sec, 0.9)
    } else if has("--smoke-handoff") {
        let cfg = handoff_cfg(Scheme::Aaw, false).with_threads(threads);
        let rows = bench_single("handoff", &[cfg], 2);
        gate("handoff", AAW_ROW, rows[0].events_per_sec, 0.9)
    } else if has("--smoke-sched") {
        smoke_sched()
    } else if has("--smoke-invplan") {
        smoke_invplan()
    } else if has("--smoke-bsbuild") {
        smoke_bsbuild()
    } else if has("--smoke-e2e") {
        let rows = bench_e2e(&[Scheme::Aaw], false, 2);
        gate("e2e", AAW_ROW, rows[0].events_per_sec, 0.8)
    } else {
        let body = bench_all(has("--quick"), threads);
        match flag::<String>(&args, "--out") {
            Some(path) => {
                std::fs::write(&path, &body).expect("write bench json");
                eprintln!("wrote {path}");
            }
            None => print!("{body}"),
        }
        return;
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_report_pipeline.json"
    );

    #[test]
    fn committed_rate_reads_the_gated_rows() {
        let rate = |section, row| committed_rate(COMMITTED, section, row);
        assert_eq!(rate("popscale", "\"clients\": 100000"), Some(228_451.0));
        // The top-level rows, not `baseline_before`'s 37 412 and 461 185.
        assert_eq!(rate("stress", AAW_ROW), Some(577_672.0));
        assert_eq!(rate("e2e", AAW_ROW), Some(1_379_102.0));
        assert_eq!(rate("handoff", AAW_ROW), Some(465_404.0));
    }

    #[test]
    fn committed_rate_is_none_for_a_missing_row_section_or_file() {
        let rate = |section, row| committed_rate(COMMITTED, section, row);
        assert_eq!(rate("handoff", "\"scheme\": \"SimpleChecking\""), None);
        // A prefix of the 10 000 row, and a row only `scaling` has.
        assert_eq!(rate("popscale", "\"clients\": 1000"), None);
        assert_eq!(rate("nosuch", AAW_ROW), None);
        assert_eq!(committed_rate("no/such/file.json", "e2e", AAW_ROW), None);
    }

    #[test]
    fn floor_gate_passes_at_the_floor_and_fails_just_below() {
        let committed = Some(577_672.0);
        let at_floor = 577_672.0 * 0.9;
        assert_eq!(floor_gate("smoke-test", at_floor, committed, 0.9), 0);
        // The next float below the floor.
        let below = f64::from_bits(at_floor.to_bits() - 1);
        assert_eq!(floor_gate("smoke-test", below, committed, 0.9), 1);
        assert_eq!(floor_gate("smoke-test", f64::INFINITY, None, 0.9), 1);
    }
}
