//! Report-pipeline benchmark: the numbers behind
//! `BENCH_report_pipeline.json`.
//!
//! Whole-simulation throughput is `mobibench`'s question (kernel-scaled,
//! repeated and digest-checked); this harness times what no `mobibench`
//! workload reaches or isolates.
//!
//! Sections:
//!
//! * **popscale** — the struct-of-arrays population sweep: one AAW run
//!   at 10 k, 100 k and 1 M clients (each over at least ten broadcast
//!   periods), pinning events/second *and* peak RSS per
//!   population. Runs first and in ascending order because the RSS
//!   figure is `VmHWM` — the process high-water mark, which only ever
//!   rises.
//! * **invplan** — the invalidation-plan micro-benchmark: one AAW-shaped
//!   window report applied to 10 k real `LruCache`s, comparing the two
//!   arms a client selects between — one plan-bit probe per cached item
//!   vs the word-wise `PlanCache` intersection — in ns per client; plus
//!   a short probed AAW run recording the plan-cache hit rate and the
//!   number of all-zero fan-out words skipped.
//!
//! Run via `scripts/bench.sh`, which writes the JSON to the repo root.
//! `--quick` shrinks every section for the CI smoke step; `--out PATH`
//! writes the JSON file (otherwise stdout).
//!
//! CI smokes each run one section. `--smoke-invplan` compares two
//! paths timed in one process and exits non-zero on a miss, so it holds
//! on any host. `--smoke-popscale CLIENTS` runs one popscale row and
//! prints it; it gates nothing.

use mobicache::{run, IntervalSampler, RunOptions};
use mobicache_cache::LruCache;
use mobicache_model::{ItemId, Scheme, SimConfig};
use mobicache_reports::{PlanCache, ReportPayload, WindowReport};
use mobicache_sim::SimTime;
use std::hint::black_box;
use std::time::Instant;

/// Wall seconds of one call to `f`, and its result (dropped outside
/// the measurement).
fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64(), out)
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
    PopRow {
        clients: u32 => "{}",
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

/// The pinned popscale configuration for one population size. Every
/// row spans at least ten 20 s broadcast periods, so its time goes to
/// ticks rather than set-up, and costs seconds, not minutes.
fn popscale_cfg(clients: u32) -> SimConfig {
    let mut cfg = SimConfig::paper_default().with_scheme(Scheme::Aaw);
    cfg.db_size = 1_000;
    cfg.num_clients = clients;
    cfg.sim_time_secs = match clients {
        c if c >= 1_000_000 => 600.0,
        c if c >= 100_000 => 200.0,
        _ => 600.0,
    };
    cfg
}

fn run_popscale_once(clients: u32) -> PopRow {
    let cfg = popscale_cfg(clients);
    let (wall_secs, events) = timed(|| {
        run(&cfg, RunOptions::default())
            .expect("popscale config validates")
            .metrics
            .events_processed
    });
    PopRow {
        clients,
        wall_secs,
        events,
        events_per_sec: events as f64 / wall_secs,
        peak_rss_mb: peak_rss_kb().map_or(f64::NAN, |kb| kb as f64 / 1024.0),
    }
    .logged("popscale")
}

/// Ascending populations so each row's `VmHWM` reading is its own peak;
/// this section must run before the others for the same reason.
fn bench_popscale(quick: bool) -> Vec<PopRow> {
    let pops: &[u32] = if quick {
        &[10_000, 100_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    pops.iter()
        .map(|&clients| run_popscale_once(clients))
        .collect()
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

/// The AAW stress shape (db 40 000, paper cache fraction → 800-item
/// caches, updates every 5 s → a 200 s window lists ~40 items) frozen at
/// one tick. Caches are real `LruCache`s so both arms pay
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

/// The invplan population. 10 k clients hold about half a GiB of
/// caches, which already overflows the CPU caches as a larger population
/// would; 100 k would need about 5 GiB and 1 M about 50 GiB.
const INVPLAN_CLIENTS: u32 = 10_000;

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
fn invplan_probe(quick: bool) -> InvplanProbe {
    let clients = 10_000u32;
    let mut cfg = popscale_cfg(clients);
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

/// The invalidation-plan CI smoke: at the stress shape's 800-item
/// caches the client selection picks the word arm, so the word arm must
/// beat the per-item arm timed in the same process. Prints `ok` or
/// `REGRESSION` and returns the process exit code.
fn smoke_invplan() -> i32 {
    let row = run_invplan_once(INVPLAN_CLIENTS, 3);
    let pass = row.speedup > 1.0;
    eprintln!(
        "smoke-invplan: {} — word arm {:.0} ns/client vs per-item arm {:.0} ns/client ({:.2}x)",
        if pass { "ok" } else { "REGRESSION" },
        row.plan_ns_per_client,
        row.per_item_ns_per_client,
        row.speedup
    );
    i32::from(!pass)
}

/// `rows` one per line at `indent`, comma-separated.
fn json_lines(rows: &[impl JsonRow], indent: &str) -> String {
    let lines: Vec<String> = rows
        .iter()
        .map(|r| format!("{indent}{}", r.json()))
        .collect();
    lines.join(",\n")
}

/// A section with a note: `"name": { "note": …, <head>"rows": [ … ]<tail> }`.
fn note_section(name: &str, note: &str, head: &str, rows: &[impl JsonRow], tail: &str) -> String {
    let rows = json_lines(rows, "      ");
    format!("  \"{name}\": {{\n    \"note\": \"{note}\",\n{head}    \"rows\": [\n{rows}\n    ]{tail}\n  }}")
}

/// The `"scheme"` line of the all-AAW popscale section.
const AAW_HEAD: &str = "    \"scheme\": \"Aaw\",\n";

const POPSCALE_NOTE: &str = "struct-of-arrays population sweep: one AAW run per \
    population (each over at least ten broadcast periods), pinning throughput and \
    peak RSS. Runs first, populations ascending, because peak_rss_mb is \
    VmHWM — the process-lifetime high-water mark.";

const INVPLAN_NOTE: &str = "invalidation-plan micro-benchmark: one AAW-shaped window \
    report at the stress shape (db 40000, 40 records, 800-item caches) \
    applied to 10000 real LruCaches through the two arms a client selects \
    between: one plan-bit probe per cached item (per_item) vs the \
    word-wise PlanCache bitmap intersection (plan), each decoding the \
    plan once per pass, ns per client best-of-reps. hit_rate_probe is a \
    probed AAW run at the popscale shape reading the cumulative plan \
    counters off the last interval snapshot.";

/// The CPU model `/proc/cpuinfo` reports, for the host fingerprint.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs every section in file order — popscale first and ascending,
/// because its peak-RSS column reads `VmHWM` — and returns the JSON,
/// headed by the host fingerprint (cores and CPU model).
fn bench_all(quick: bool) -> String {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sections = [
        note_section(
            "popscale",
            POPSCALE_NOTE,
            AAW_HEAD,
            &bench_popscale(quick),
            "",
        ),
        note_section(
            "invplan",
            INVPLAN_NOTE,
            "",
            &[run_invplan_once(INVPLAN_CLIENTS, if quick { 3 } else { 5 })],
            &format!(",\n    \"hit_rate_probe\": {}", invplan_probe(quick).json()),
        ),
    ];
    format!(
        "{{\n  \"bench\": \"report_pipeline\",\n  \"quick\": {quick},\n  \
         \"host_cores\": {host_cores},\n  \"cpu_model\": {:?},\n{}\n}}\n",
        cpu_model(),
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

    if let Some(clients) = flag(&args, "--smoke-popscale") {
        run_popscale_once(clients);
    } else if has("--smoke-invplan") {
        std::process::exit(smoke_invplan());
    } else {
        let body = bench_all(has("--quick"));
        match flag::<String>(&args, "--out") {
            Some(path) => {
                std::fs::write(&path, &body).expect("write bench json");
                eprintln!("wrote {path}");
            }
            None => print!("{body}"),
        }
    }
}
