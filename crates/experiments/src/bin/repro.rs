//! `repro` — regenerate the paper's figures.
//!
//! ```text
//! repro --list              list every experiment id
//! repro --tables            print Tables 1 and 2 (the input parameters)
//! repro --all               run all 12 paper figures + ablations
//! repro fig05 fig06         run specific experiments
//! repro --smoke fig05       run at 1/20 horizon (quick sanity pass)
//! repro --scale 0.2 fig05   custom horizon scale
//! repro --out results fig05 CSV output directory (default: results)
//! repro --threads 2 --all  run at most 2 figure points at once
//!                           (default: one per core)
//! repro --progress fig05    live per-job progress lines on stderr
//! repro --trace-dir results/trace fig05
//!                           write per-job interval-snapshot JSONL traces
//! ```

use mobicache_experiments::figures;
use mobicache_experiments::{chart, csvout, run_figure_with, Progress, RunReporting, RunScale};
use mobicache_model::{Scheme, SimConfig, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        print_usage();
        return ExitCode::FAILURE;
    }

    let mut scale = RunScale::default();
    let mut out_dir = PathBuf::from("results");
    let mut ids: Vec<String> = Vec::new();
    let mut run_all = false;
    let mut progress = false;
    let mut trace_dir: Option<PathBuf> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--list" => {
                for spec in figures::all_figures() {
                    println!("{:<12} {:<28} {}", spec.id, spec.paper_ref, spec.title);
                }
                return ExitCode::SUCCESS;
            }
            "--tables" => {
                print_tables();
                return ExitCode::SUCCESS;
            }
            "--all" => run_all = true,
            "--smoke" => scale.time_factor = 0.05,
            "--scale" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|s| s.parse::<f64>().ok()) else {
                    eprintln!("--scale needs a positive number");
                    return ExitCode::FAILURE;
                };
                scale.time_factor = v;
            }
            "--reps" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|s| s.parse::<u32>().ok()) else {
                    eprintln!("--reps needs a positive integer");
                    return ExitCode::FAILURE;
                };
                if v == 0 {
                    eprintln!("--reps needs a positive integer");
                    return ExitCode::FAILURE;
                }
                scale.replications = v;
            }
            "--threads" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|s| s.parse::<usize>().ok()) else {
                    eprintln!("--threads needs a positive integer");
                    return ExitCode::FAILURE;
                };
                scale.max_threads = Some(v);
            }
            "--out" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    eprintln!("--out needs a directory");
                    return ExitCode::FAILURE;
                };
                out_dir = PathBuf::from(v);
            }
            "--progress" => progress = true,
            "--trace-dir" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    eprintln!("--trace-dir needs a directory");
                    return ExitCode::FAILURE;
                };
                trace_dir = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}");
                print_usage();
                return ExitCode::FAILURE;
            }
            id => ids.push(id.to_string()),
        }
        i += 1;
    }

    let specs: Vec<_> = if run_all {
        figures::all_figures()
    } else {
        let mut specs = Vec::new();
        for id in &ids {
            match figures::by_id(id) {
                Some(s) => specs.push(s),
                None => {
                    eprintln!("unknown experiment id: {id} (try --list)");
                    return ExitCode::FAILURE;
                }
            }
        }
        specs
    };
    if specs.is_empty() {
        eprintln!("nothing to run (use --all or name experiments; see --list)");
        return ExitCode::FAILURE;
    }

    let show_progress = |p: Progress| {
        let eta = if p.eta_secs >= 60.0 {
            format!(
                "{:.0}m{:02.0}s",
                (p.eta_secs / 60.0).floor(),
                p.eta_secs % 60.0
            )
        } else {
            format!("{:.0}s", p.eta_secs)
        };
        eprintln!(
            "   [{:>3}/{:<3}] {:?} x={} done in {:.1}s (elapsed {:.1}s, eta {eta})",
            p.done, p.total, p.scheme, p.x, p.job_wall_secs, p.elapsed_secs
        );
    };

    for spec in specs {
        eprintln!(
            ">> running {} [{} schemes x {} points, horizon x{}]",
            spec.id,
            spec.schemes.len(),
            spec.points.len(),
            scale.time_factor
        );
        let reporting = RunReporting {
            on_progress: progress.then_some(&show_progress as &(dyn Fn(Progress) + Sync)),
            trace_dir: trace_dir.as_deref(),
            ..RunReporting::default()
        };
        let result = match run_figure_with(&spec, scale, reporting) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {}: invalid configuration: {e}", spec.id);
                return ExitCode::FAILURE;
            }
        };
        println!("{}", chart::render(&result));
        println!("{}", chart::render_table(&result));
        println!("expected shape: {}\n", spec.expected_shape);
        match csvout::write_csv(&result, &out_dir) {
            Ok(path) => eprintln!(
                "   {} done in {:.1}s -> {}",
                result.id,
                result.wall_secs,
                path.display()
            ),
            Err(e) => eprintln!("   warning: could not write CSV: {e}"),
        }
    }
    ExitCode::SUCCESS
}

fn print_usage() {
    eprintln!(
        "usage: repro [--smoke|--scale F] [--reps N] [--threads N] [--out DIR] \
          [--progress] [--trace-dir DIR] (--all | --list | --tables | IDS...)"
    );
}

/// Prints the paper's input tables as encoded in the defaults.
fn print_tables() {
    let cfg = SimConfig::paper_default();
    println!("Table 1. System Parameter Settings (SimConfig::paper_default)");
    println!("  {:<38} {} seconds", "Simulation Time", cfg.sim_time_secs);
    println!("  {:<38} {}", "Number of Clients", cfg.num_clients);
    println!(
        "  {:<38} 1000 to 80000 data items (default 10000)",
        "Database Size"
    );
    println!("  {:<38} {} bytes", "Data Item Size", cfg.item_bytes);
    println!("  {:<38} 1 % or 2 % of database size", "Client Buffer Size");
    println!(
        "  {:<38} {} seconds",
        "Broadcast Period", cfg.broadcast_period_secs
    );
    println!(
        "  {:<38} {} bits per second",
        "Network Downlink Bandwidth", cfg.downlink_bps
    );
    println!(
        "  {:<38} 1 % to 100 % of downlink",
        "Network Uplink Bandwidth"
    );
    println!(
        "  {:<38} {} bytes",
        "Control Message Size", cfg.control_bytes
    );
    println!(
        "  {:<38} {} seconds",
        "Mean Think Time", cfg.mean_think_secs
    );
    println!(
        "  {:<38} {} (Table 1 lists 10; see DESIGN.md on the Section 5 reconciliation)",
        "Mean Data Items Ref. by a Query", cfg.items_per_query_mean
    );
    println!(
        "  {:<38} {}",
        "Mean Data Items Updated by a Txn", cfg.items_per_update_mean
    );
    println!(
        "  {:<38} {} seconds",
        "Mean Update Arrival Time", cfg.mean_update_interarrival_secs
    );
    println!("  {:<38} 200 to 8000 seconds", "Mean Disconnect Time");
    println!("  {:<38} 0.1 to 0.8", "Prob. of Client Disc. per Interval");
    println!(
        "  {:<38} {} intervals",
        "Window for Broadcast Invalidation", cfg.window_intervals
    );
    println!();
    println!("Table 2. Query/Update Pattern (Workload::uniform / Workload::hotcold)");
    let u = Workload::uniform();
    let h = Workload::hotcold();
    println!("  UNIFORM: query = {:?}, update = {:?}", u.query, u.update);
    println!("  HOTCOLD: query = {:?}, update = {:?}", h.query, h.update);
    println!();
    println!(
        "Schemes compared in the paper's plots: {}",
        Scheme::PAPER_SET
            .iter()
            .map(|s| s.label())
            .collect::<Vec<_>>()
            .join(", ")
    );
}
