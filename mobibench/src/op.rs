//! One op: one simulation of a workload (or all of them), run in a child
//! process, and the line format it reports back in.
//!
//! The `mobibench` process re-executes its own binary with `--op`, so every op starts
//! from a fresh process: no allocator state, warm cache or high-water
//! mark leaks from one op into the next, and `VmHWM` is the op's own peak.
//! Timed ops run one simulation each: running a workload's simulations
//! back to back in one process makes its peak depend on how the previous
//! run's heap happened to fragment.

use crate::host::kernel_s;
use crate::layers;
use crate::workload::{metrics_digest, Workload};
use mobicache::{RunOptions, Simulation};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// What one op runs.
#[derive(Clone, Debug, PartialEq)]
pub struct OpRequest {
    /// The workload.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// Engine worker threads.
    pub threads: u32,
    /// Run only this simulation of the workload (by index), or all.
    pub sim: Option<usize>,
    /// Run the ground-truth consistency oracle (untimed verification).
    pub oracle: bool,
    /// Attach the span probe and replay the layers afterwards.
    pub traced: bool,
    /// Where a traced op writes its spans, one JSON object per line.
    pub trace_out: Option<PathBuf>,
}

impl OpRequest {
    /// The request as command-line arguments for the child process.
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "--op".to_string(),
            self.workload.name().to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--threads".to_string(),
            self.threads.to_string(),
        ];
        if let Some(k) = self.sim {
            args.push("--sim".to_string());
            args.push(k.to_string());
        }
        if self.oracle {
            args.push("--oracle".to_string());
        }
        if self.traced {
            args.push("--traced".to_string());
        }
        if let Some(path) = &self.trace_out {
            args.push("--trace-out".to_string());
            args.push(path.display().to_string());
        }
        args
    }

    /// Parses [`OpRequest::to_args`] output (without the program name).
    ///
    /// # Errors
    /// Names the first argument that does not fit.
    pub fn from_args(args: &[String]) -> Result<OpRequest, String> {
        let mut req = OpRequest {
            workload: Workload::Paper,
            seed: 0,
            threads: 1,
            sim: None,
            oracle: false,
            traced: false,
            trace_out: None,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
            match arg.as_str() {
                "--op" => {
                    let name = value()?;
                    req.workload = Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?;
                }
                "--seed" => req.seed = parse_seed(value()?)?,
                "--threads" => {
                    req.threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?;
                }
                "--sim" => {
                    req.sim = Some(value()?.parse().map_err(|e| format!("--sim: {e}"))?);
                }
                "--oracle" => req.oracle = true,
                "--traced" => req.traced = true,
                "--trace-out" => req.trace_out = Some(value()?.into()),
                other => return Err(format!("unknown op argument {other:?}")),
            }
        }
        Ok(req)
    }
}

/// Parses a seed written in decimal or as `0x`-prefixed hex.
///
/// # Errors
/// Describes the malformed seed.
pub fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16),
        None => s.parse(),
    };
    parsed.map_err(|e| format!("bad seed {s:?}: {e}"))
}

/// The outputs of one simulation inside an op.
#[derive(Clone, Debug, PartialEq)]
pub struct SimOutput {
    /// The simulation's label within its workload.
    pub label: String,
    /// Digest of its `Metrics`.
    pub digest: u64,
    /// The paper's first metric: queries answered in the horizon.
    pub queries_answered: u64,
    /// The paper's second metric: validity uplink bits per answered query.
    pub uplink_validity_bits_per_query: f64,
}

/// What one op measured and produced.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct OpOutput {
    /// Host seconds in `Simulation::new`, summed over the op's runs.
    pub setup_s: f64,
    /// Host seconds in `run_to_completion`, summed over the op's runs.
    pub run_s: f64,
    /// Events the kernel delivered, summed over the op's runs.
    pub events: u64,
    /// The op's peak resident set (`VmHWM`), KiB.
    pub peak_rss_kib: u64,
    /// Mean seconds of the host-speed kernel ([`crate::host::kernel_s`]),
    /// timed just before and just after each simulation; 0 when the op
    /// did not time it (traced ops).
    pub kernel_s: f64,
    /// Per-simulation outputs, in workload order.
    pub sims: Vec<SimOutput>,
    /// Per-layer metrics of a traced op, by name.
    pub layers: Vec<(String, f64)>,
    /// Free-form lines a traced op wants printed.
    pub notes: Vec<String>,
}

impl OpOutput {
    /// Serialises to the child's stdout format: one `key value…` per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "setup_s {}", self.setup_s);
        let _ = writeln!(out, "run_s {}", self.run_s);
        let _ = writeln!(out, "events {}", self.events);
        let _ = writeln!(out, "peak_rss_kib {}", self.peak_rss_kib);
        let _ = writeln!(out, "kernel_s {}", self.kernel_s);
        for s in &self.sims {
            let _ = writeln!(
                out,
                "sim {} {:#018x} {} {}",
                s.label, s.digest, s.queries_answered, s.uplink_validity_bits_per_query
            );
        }
        for (name, value) in &self.layers {
            let _ = writeln!(out, "layer {name} {value}");
        }
        for note in &self.notes {
            let _ = writeln!(out, "note {note}");
        }
        out
    }

    /// Parses [`OpOutput::render`] output.
    ///
    /// # Errors
    /// Names the first line that does not parse.
    pub fn parse(text: &str) -> Result<OpOutput, String> {
        fn num<T: std::str::FromStr>(v: Option<&str>, line: &str) -> Result<T, String> {
            v.and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("bad op output line {line:?}"))
        }
        fn hex(v: Option<&str>, line: &str) -> Result<u64, String> {
            v.and_then(|v| u64::from_str_radix(v.trim_start_matches("0x"), 16).ok())
                .ok_or_else(|| format!("bad digest in op output line {line:?}"))
        }
        let mut out = OpOutput::default();
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let mut f = rest.split(' ');
            match key {
                "setup_s" => out.setup_s = num(f.next(), line)?,
                "run_s" => out.run_s = num(f.next(), line)?,
                "events" => out.events = num(f.next(), line)?,
                "peak_rss_kib" => out.peak_rss_kib = num(f.next(), line)?,
                "kernel_s" => out.kernel_s = num(f.next(), line)?,
                "sim" => out.sims.push(SimOutput {
                    label: f.next().unwrap_or_default().to_string(),
                    digest: hex(f.next(), line)?,
                    queries_answered: num(f.next(), line)?,
                    uplink_validity_bits_per_query: num(f.next(), line)?,
                }),
                "layer" => {
                    let name = f.next().unwrap_or_default().to_string();
                    out.layers.push((name, num(f.next(), line)?));
                }
                "note" => out.notes.push(rest.to_string()),
                _ => return Err(format!("unexpected op output line {line:?}")),
            }
        }
        if out.sims.is_empty() {
            return Err("op output names no simulation".to_string());
        }
        Ok(out)
    }
}

/// Runs one op in this process. Panics — a failed op — on an invalid
/// configuration or an oracle violation.
pub fn run_op(req: &OpRequest) -> OpOutput {
    let mut sims = req.workload.sims(req.seed, req.threads);
    if let Some(k) = req.sim {
        assert!(
            k < sims.len(),
            "{} has no simulation {k}",
            req.workload.name()
        );
        sims = vec![sims.swap_remove(k)];
    }
    if req.traced {
        return layers::traced_op(req, &sims);
    }
    let mut out = OpOutput::default();
    for sim in &sims {
        let kernel_before = kernel_s();
        let started = Instant::now();
        let engine = Simulation::new(&sim.cfg, RunOptions::new().check_consistency(req.oracle))
            .unwrap_or_else(|e| {
                panic!("{} {}: invalid config: {e}", req.workload.name(), sim.label)
            });
        let built = Instant::now();
        let result = engine.run_to_completion();
        out.setup_s += (built - started).as_secs_f64();
        out.run_s += built.elapsed().as_secs_f64();
        out.events += result.metrics.events_processed;
        out.sims.push(sim_output(&sim.label, &result.metrics));
        // Read before the next kernel pass allocates its table.
        out.peak_rss_kib = peak_rss_kib();
        out.kernel_s += (kernel_before + kernel_s()) / 2.0;
    }
    out.kernel_s /= sims.len() as f64;
    out
}

/// The reported outputs of one finished simulation.
pub(crate) fn sim_output(label: &str, m: &mobicache::Metrics) -> SimOutput {
    SimOutput {
        label: label.to_string(),
        digest: metrics_digest(m),
        queries_answered: m.queries_answered,
        uplink_validity_bits_per_query: m.uplink_validity_bits_per_query,
    }
}

/// This process's peak resident set (`VmHWM`), KiB.
///
/// # Panics
/// Panics where `/proc/self/status` has no `VmHWM` line (not Linux).
pub fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .expect("VmHWM in /proc/self/status")
}
