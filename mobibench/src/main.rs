//! `mobibench` — runs the benchmark's workloads and prints every metric
//! by name with its unit, then one JSON result line. See `README.md`.

use mobibench::host::{cpu_model, host_cores, KERNEL_REFERENCE_S};
use mobibench::op::{parse_seed, run_op, OpOutput, OpRequest, SimOutput};
use mobibench::output::{MetricSpec, ResultLine, END_TO_END, PER_LAYER};
use mobibench::stats::Summary;
use mobibench::workload::{Workload, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: mobibench [--workload NAME|all] [--seed N] \
                     [--reps N | --seconds S] [--trace [0|1]]";

/// When a measuring loop stops.
#[derive(Clone, Copy, Debug)]
enum Stop {
    /// After this many rounds.
    Reps(usize),
    /// At the end of the round during which this much time passed.
    Seconds(Duration),
}

impl Stop {
    fn done(self, rounds: usize, elapsed: Duration) -> bool {
        match self {
            Stop::Reps(n) => rounds >= n,
            Stop::Seconds(s) => elapsed >= s,
        }
    }
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    stop: Stop,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workloads = Workload::ALL.to_vec();
    let mut seed = DEFAULT_SEED;
    let mut stop = None;
    let mut trace = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workloads = if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?]
                };
            }
            "--seed" => seed = parse_seed(value()?)?,
            "--reps" => {
                let n: usize = value()?.parse().map_err(|e| format!("--reps: {e}"))?;
                if n == 0 {
                    return Err("--reps must be at least 1".to_string());
                }
                stop = Some(Stop::Reps(n));
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                stop = Some(Stop::Seconds(Duration::from_secs_f64(s)));
            }
            "--trace" => {
                // `--trace 0|1`, or a bare `--trace` for on.
                trace = it
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1");
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    // Ten rounds give meaningful quartiles; a traced pair costs several
    // rounds, so three suffice there.
    let stop = stop.unwrap_or(Stop::Reps(if trace { 3 } else { 10 }));
    Ok(Args {
        workloads,
        seed,
        stop,
        trace,
    })
}

/// One pass over every simulation of a workload, each simulation an op
/// in its own child process.
#[derive(Default)]
struct Round {
    /// Per simulation, in workload order.
    ops: Vec<OpOutput>,
}

impl Round {
    /// Σ over the ops of `secs`, each scaled to the reference host by its
    /// own kernel time: `secs · KERNEL_REFERENCE_S / kernel_s`.
    fn scaled(&self, secs: impl Fn(&OpOutput) -> f64) -> f64 {
        self.ops
            .iter()
            .map(|o| secs(o) * KERNEL_REFERENCE_S / o.kernel_s)
            .sum()
    }

    fn events(&self) -> f64 {
        self.ops.iter().map(|o| o.events).sum::<u64>() as f64
    }

    fn run_s(&self) -> f64 {
        self.ops.iter().map(|o| o.run_s).sum()
    }

    fn events_per_s(&self) -> f64 {
        self.events() / self.scaled(|o| o.run_s)
    }

    fn setup_s(&self) -> f64 {
        self.scaled(|o| o.setup_s)
    }

    /// The largest single-simulation peak.
    fn peak_rss_mib(&self) -> f64 {
        self.ops.iter().map(|o| o.peak_rss_kib).max().unwrap_or(0) as f64 / 1024.0
    }
}

/// Launches ops as child processes, one at a time, and counts them.
struct Launcher {
    exe: PathBuf,
    attempted: u64,
    failed: u64,
}

impl Launcher {
    /// Runs one op to completion. `None` (a failed op) when the child
    /// panicked, crashed or printed something unparsable.
    fn run(&mut self, req: &OpRequest) -> Option<OpOutput> {
        self.attempted += 1;
        let result = Command::new(&self.exe)
            .args(req.to_args())
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let parsed = match result {
            Ok(out) if out.status.success() => {
                OpOutput::parse(&String::from_utf8_lossy(&out.stdout))
            }
            Ok(out) => Err(format!("exited with {}", out.status)),
            Err(e) => Err(format!("could not start: {e}")),
        };
        parsed
            .inspect_err(|e| {
                eprintln!("mobibench: op {:?} FAILED: {e}", req.to_args().join(" "));
                self.failed += 1;
            })
            .ok()
    }

    /// Runs every simulation of `w` once, each as its own op. `None` when
    /// one of them failed.
    fn round(&mut self, w: Workload, seed: u64, threads: u32) -> Option<Round> {
        let mut round = Round::default();
        for k in 0..w.sims(seed, threads).len() {
            round.ops.push(self.run(&OpRequest {
                sim: Some(k),
                ..request(w, seed, threads, false)
            })?);
        }
        Some(round)
    }

    /// Checks the digest of every simulation every op produced against
    /// the reference — the pins at the default seed, otherwise the
    /// oracle-checked op's own outputs (the same seed must give the same
    /// outputs in every process, at every thread count, traced or not).
    /// An op with any mismatching digest counts as failed.
    fn verify(&mut self, w: Workload, seed: u64, ops: &[&OpOutput], oracle: Option<&OpOutput>) {
        let labels = w.sims(seed, 1).into_iter().map(|s| s.label);
        let reference: Vec<(String, u64)> = if seed == DEFAULT_SEED {
            labels.zip(w.pinned_digests().iter().copied()).collect()
        } else {
            match oracle {
                Some(o) => o.sims.iter().map(|s| (s.label.clone(), s.digest)).collect(),
                None => Vec::new(),
            }
        };
        let matches = |s: &SimOutput| reference.contains(&(s.label.clone(), s.digest));
        let all: Vec<&OpOutput> = ops.iter().copied().chain(oracle).collect();
        let bad = all.iter().filter(|o| !o.sims.iter().all(matches)).count();
        self.failed += bad as u64;
        println!(
            "  digests ({}): {}/{} ops match",
            if seed == DEFAULT_SEED {
                "pinned"
            } else {
                "oracle op"
            },
            all.len() - bad,
            all.len()
        );
        for s in oracle.map_or(&[][..], |o| &o.sims) {
            println!(
                "  sim {:<14} queries_answered {:>6}  uplink_validity_bits_per_query {:>9.3}  digest {:#018x}",
                s.label, s.queries_answered, s.uplink_validity_bits_per_query, s.digest
            );
        }
    }
}

fn request(workload: Workload, seed: u64, threads: u32, traced: bool) -> OpRequest {
    OpRequest {
        workload,
        seed,
        threads,
        sim: None,
        oracle: false,
        traced,
        trace_out: None,
    }
}

fn median(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    let v: Vec<f64> = values.into_iter().collect();
    (!v.is_empty()).then(|| Summary::of(&v).median)
}

/// The e2e measurement: rounds round-robin across `workloads` until
/// `stop`, then one untimed oracle-checked op per workload. Each metric
/// is the median over rounds; the two times are scaled to the reference
/// host by the kernel timed next to each op. Timed ops run one engine
/// thread: on a small shared host a second worker adds more scheduling
/// noise than speed-up, so the traced run reports the two-thread
/// speed-up as a layer metric instead.
fn run_e2e(args: &Args, launcher: &mut Launcher) -> Vec<(Workload, &'static MetricSpec, f64)> {
    let mut rounds: Vec<Vec<Round>> = args.workloads.iter().map(|_| Vec::new()).collect();
    let started = Instant::now();
    let mut passes = 0;
    while !args.stop.done(passes, started.elapsed()) {
        for (&w, done) in args.workloads.iter().zip(&mut rounds) {
            done.extend(launcher.round(w, args.seed, 1));
        }
        passes += 1;
    }
    let mut metrics = Vec::new();
    for (&w, done) in args.workloads.iter().zip(&rounds) {
        let oracle = launcher.run(&OpRequest {
            oracle: true,
            ..request(w, args.seed, 1, false)
        });
        println!(
            "workload {} ({} simulations, {} rounds): {}",
            w.name(),
            w.sims(args.seed, 1).len(),
            done.len(),
            w.why()
        );
        let ops: Vec<&OpOutput> = done.iter().flat_map(|r| &r.ops).collect();
        launcher.verify(w, args.seed, &ops, oracle.as_ref());
        if done.is_empty() {
            continue;
        }
        let unscaled = Summary::of(
            &done
                .iter()
                .map(|r| r.events() / r.run_s())
                .collect::<Vec<_>>(),
        );
        let kernel = Summary::of(&ops.iter().map(|o| o.kernel_s * 1e3).collect::<Vec<_>>());
        println!(
            "  unscaled events/s median {:.6}; kernel ms median {:.4} min {:.4} max {:.4} (reference {})",
            unscaled.median,
            kernel.median,
            kernel.min,
            kernel.max,
            KERNEL_REFERENCE_S * 1e3
        );
        for spec in &END_TO_END {
            let per_round: Vec<f64> = done
                .iter()
                .map(|r| match spec.name {
                    "events_per_s" => r.events_per_s(),
                    "setup_s" => r.setup_s(),
                    _ => r.peak_rss_mib(),
                })
                .collect();
            let s = Summary::of(&per_round);
            println!(
                "  {:<13} {:>9}  median {:<14} p25 {:<14.8} p75 {:<14.8} min {:<14.8} max {:<14.8} n {}",
                spec.name, spec.unit, s.median, s.p25, s.p75, s.min, s.max, s.n
            );
            metrics.push((w, spec, s.median));
        }
    }
    metrics
}

/// The traced measurement of one workload: untraced rounds alternating
/// with traced ops until `stop`, one round at the other thread count, and
/// one oracle op.
fn run_traced(
    args: &Args,
    w: Workload,
    launcher: &mut Launcher,
) -> Vec<(Workload, &'static MetricSpec, f64)> {
    let trace_out = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("mobibench")
        .join(format!("trace-{}.jsonl", w.name()));
    let mut untraced = Vec::new();
    let mut traced: Vec<OpOutput> = Vec::new();
    let started = Instant::now();
    let mut passes = 0;
    while !args.stop.done(passes, started.elapsed()) {
        untraced.extend(launcher.round(w, args.seed, 1));
        traced.extend(launcher.run(&OpRequest {
            trace_out: traced.is_empty().then(|| trace_out.clone()),
            ..request(w, args.seed, 1, true)
        }));
        passes += 1;
    }
    // Engine threads are a wall-time knob only: a round at two threads
    // gives the pool's speed-up and checks that no digest moves with it.
    let two = launcher.round(w, args.seed, host_cores().min(2));
    let oracle = launcher.run(&OpRequest {
        oracle: true,
        ..request(w, args.seed, 1, false)
    });
    println!(
        "workload {} traced ({} untraced rounds, {} traced ops): {}",
        w.name(),
        untraced.len(),
        traced.len(),
        w.why()
    );
    let ops: Vec<&OpOutput> = untraced
        .iter()
        .chain(&two)
        .flat_map(|r| &r.ops)
        .chain(&traced)
        .collect();
    launcher.verify(w, args.seed, &ops, oracle.as_ref());
    if let Some(first) = traced.first() {
        for note in &first.notes {
            println!("  {note}");
        }
    }
    let run_untraced = median(untraced.iter().map(Round::run_s));
    let run_traced = median(traced.iter().map(|o| o.run_s));
    let clients = w
        .sims(args.seed, 1)
        .iter()
        .map(|s| f64::from(s.cfg.num_clients))
        .fold(1.0, f64::max);
    let mut metrics = Vec::new();
    for spec in &PER_LAYER {
        let value = match spec.name {
            "core.trace_overhead" => run_traced.zip(run_untraced).map(|(t, u)| t / u - 1.0),
            "oracle.overhead" => oracle
                .as_ref()
                .zip(run_untraced)
                .map(|(o, u)| o.run_s / u - 1.0),
            "sim.pool_speedup_2t" => two.as_ref().zip(run_untraced).map(|(t, u)| u / t.run_s()),
            "client.bytes_per_client" => median(
                untraced
                    .iter()
                    .map(|r| r.peak_rss_mib() * 1_048_576.0 / clients),
            ),
            name => median(
                traced
                    .iter()
                    .filter_map(|o| o.layers.iter().find(|(n, _)| n == name).map(|&(_, v)| v)),
            ),
        };
        if let Some(v) = value {
            println!("  {:<38} {:>6}  {v}", spec.name, spec.unit);
            metrics.push((w, spec, v));
        }
    }
    metrics
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--op") {
        return match OpRequest::from_args(&raw) {
            Ok(req) => {
                print!("{}", run_op(&req).render());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("mobibench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mobibench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("mobibench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "mobibench seed {:#x}, host: {} core(s), {}",
        args.seed,
        host_cores(),
        cpu_model()
    );
    let mut launcher = Launcher {
        exe,
        attempted: 0,
        failed: 0,
    };
    let metrics = if args.trace {
        args.workloads
            .iter()
            .flat_map(|&w| run_traced(&args, w, &mut launcher))
            .collect()
    } else {
        run_e2e(&args, &mut launcher)
    };
    println!(
        "failed_ops/ops = {}/{}",
        launcher.failed, launcher.attempted
    );
    let prefix = args.workloads.len() > 1;
    let line = ResultLine {
        correct: launcher.failed == 0,
        attempted: launcher.attempted,
        failed: launcher.failed,
        metrics: metrics
            .into_iter()
            .map(|(w, spec, v)| {
                let name = if prefix {
                    format!("{}.{}", w.name(), spec.name)
                } else {
                    spec.name.to_string()
                };
                (name, spec.unit, v)
            })
            .collect(),
    };
    println!("{}", line.to_json());
    if line.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
