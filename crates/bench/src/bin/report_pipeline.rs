//! Report-pipeline benchmark: the numbers behind
//! `BENCH_report_pipeline.json`.
//!
//! Whole-simulation throughput is `mobibench`'s question (kernel-scaled,
//! repeated and digest-checked); this harness times what no `mobibench`
//! workload reaches.
//!
//! Its one section, **popscale**, is the struct-of-arrays population
//! sweep: one AAW run at 10 k, 100 k and 1 M clients (each over at least
//! ten broadcast periods), pinning events/second *and* peak RSS per
//! population, in ascending order because the RSS figure is `VmHWM` —
//! the process high-water mark, which only ever rises.
//!
//! Run via `scripts/bench.sh`, which writes the JSON to the repo root.
//! `--quick` drops the 1 M row for the CI smoke step; `--out PATH`
//! writes the JSON file (otherwise stdout). `--smoke-popscale CLIENTS`
//! runs one popscale row and prints it; it gates nothing.

use mobicache::{run, RunOptions};
use mobicache_model::{Scheme, SimConfig};
use std::time::Instant;

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

/// Times one popscale run and returns its row as one JSON object,
/// logged to stderr as it is measured.
fn run_popscale_once(clients: u32) -> String {
    let cfg = popscale_cfg(clients);
    let started = Instant::now();
    let events = run(&cfg, RunOptions::default())
        .expect("popscale config validates")
        .metrics
        .events_processed;
    let wall_secs = started.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_kb().map_or(f64::NAN, |kb| kb as f64 / 1024.0);
    let row = format!(
        "{{ \"clients\": {clients}, \"wall_secs\": {wall_secs:.3}, \"events\": {events}, \
         \"events_per_sec\": {:.0}, \"peak_rss_mb\": {peak_rss_mb:.0} }}",
        events as f64 / wall_secs
    );
    eprintln!("popscale: {row}");
    row
}

const POPSCALE_NOTE: &str = "struct-of-arrays population sweep: one AAW run per \
    population (each over at least ten broadcast periods), pinning throughput and \
    peak RSS. Runs first, populations ascending, because peak_rss_mb is \
    VmHWM — the process-lifetime high-water mark.";

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

/// Runs the popscale section, populations ascending so each row's
/// `VmHWM` reading is its own peak, and returns the JSON, headed by the
/// host fingerprint (cores and CPU model).
fn bench_all(quick: bool) -> String {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pops: &[u32] = if quick {
        &[10_000, 100_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let rows: Vec<String> = pops
        .iter()
        .map(|&clients| format!("      {}", run_popscale_once(clients)))
        .collect();
    format!(
        "{{\n  \"bench\": \"report_pipeline\",\n  \"quick\": {quick},\n  \
         \"host_cores\": {host_cores},\n  \"cpu_model\": {:?},\n  \"popscale\": {{\n    \
         \"note\": \"{POPSCALE_NOTE}\",\n    \"scheme\": \"Aaw\",\n    \
         \"rows\": [\n{}\n    ]\n  }}\n}}\n",
        cpu_model(),
        rows.join(",\n")
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

    if let Some(clients) = flag(&args, "--smoke-popscale") {
        run_popscale_once(clients);
    } else {
        let body = bench_all(args.iter().any(|a| a == "--quick"));
        match flag::<String>(&args, "--out") {
            Some(path) => {
                std::fs::write(&path, &body).expect("write bench json");
                eprintln!("wrote {path}");
            }
            None => print!("{body}"),
        }
    }
}
