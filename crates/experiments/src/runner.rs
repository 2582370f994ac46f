//! Sweep execution.
//!
//! Runs every `(scheme, point)` job of a figure, fanning out over the
//! available cores with scoped threads pulling from an atomic job
//! counter. Each job is an independent simulation (common random
//! numbers: the same master seed, so streams match across schemes), so
//! the fan-out is embarrassingly parallel; results are reassembled in
//! spec order.
//!
//! The core budget is split between the two parallelism axes by
//! [`CoreSplitPolicy`]: many jobs → point-parallel with serial engines;
//! few huge jobs → every point in flight plus leftover cores handed to
//! the engines as worker threads (one persistent [`WorkerPool`] per
//! point worker, shared across all jobs it claims). Engine results are
//! bit-identical at any thread count, so the split never changes
//! figures — only wall clock.
//!
//! [`RunReporting`] adds live progress (jobs done/total, per-job wall
//! time, ETA) and per-job interval-snapshot traces written as JSONL —
//! the `repro` binary's `--progress` and `--trace-dir` flags.

use crate::spec::{FigureResult, FigureSpec, PointResult, SeriesResult};
use mobicache::{run, IntervalSampler, RunOptions, WorkerPool};
use mobicache_model::{ConfigError, Scheme};
use std::num::NonZeroUsize;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How [`run_figure_with`] divides its core budget between concurrent
/// figure points and engine worker threads inside each point.
///
/// Results are identical either way — the engine is bit-deterministic
/// at any thread count — so this is purely a wall-clock shape knob.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CoreSplitPolicy {
    /// Decide from the job list: with at least as many jobs as cores,
    /// run point-parallel with serial engines (maximum throughput);
    /// with fewer jobs than cores, keep every point in flight and hand
    /// the leftover cores to the engines as worker threads, so a few
    /// huge points still use the whole budget.
    #[default]
    Auto,
    /// The historical shape: one core per concurrent point, engines
    /// strictly serial, leftover cores idle.
    PointsOnly,
}

/// Engine threads only pay off on populations big enough to shard: the
/// engine splits clients into 64-client-aligned chunks, and a small
/// population's tick phases are too short to repay the pool's wake-up
/// and barrier, so splitting would idle cores that concurrent points
/// could use.
const ENGINE_SPLIT_MIN_CLIENTS: u32 = 2_048;

/// Divides a core budget of `budget` across up to `jobs` concurrent
/// point workers. Returns one entry per spawned worker: the engine
/// thread count that worker runs its jobs with. The entries sum to
/// `budget` whenever the split engages (Auto with fewer jobs than
/// cores), spreading the remainder over the earliest workers.
pub fn split_core_budget(
    policy: CoreSplitPolicy,
    budget: usize,
    jobs: usize,
    max_clients: u32,
) -> Vec<u32> {
    let budget = budget.max(1);
    let jobs = jobs.max(1);
    match policy {
        CoreSplitPolicy::PointsOnly => vec![1; budget.min(jobs)],
        CoreSplitPolicy::Auto => {
            if jobs >= budget || max_clients < ENGINE_SPLIT_MIN_CLIENTS {
                return vec![1; budget.min(jobs)];
            }
            let base = (budget / jobs) as u32;
            let rem = budget % jobs;
            (0..jobs).map(|w| base + u32::from(w < rem)).collect()
        }
    }
}

/// Scales a spec for quick smoke runs and benches.
#[derive(Clone, Copy, Debug)]
pub struct RunScale {
    /// Multiplier on the simulated horizon (1.0 = the paper's 100 000 s).
    pub time_factor: f64,
    /// Core budget: concurrent point workers × their engine threads
    /// (`None` = all available cores).
    pub max_threads: Option<usize>,
    /// Independent replications per point (different derived seeds);
    /// curves report the mean and standard error. The paper plots single
    /// runs, so the default is 1.
    pub replications: u32,
    /// How the core budget is divided between concurrent points and
    /// engine worker threads.
    pub split: CoreSplitPolicy,
}

impl Default for RunScale {
    fn default() -> Self {
        RunScale {
            time_factor: 1.0,
            max_threads: None,
            replications: 1,
            split: CoreSplitPolicy::default(),
        }
    }
}

impl RunScale {
    /// A reduced-horizon scale for smoke tests and benches.
    pub fn smoke() -> Self {
        RunScale {
            time_factor: 0.05,
            ..RunScale::default()
        }
    }

    /// Builder-style replication count override.
    pub fn with_replications(mut self, replications: u32) -> Self {
        assert!(replications > 0, "need at least one replication");
        self.replications = replications;
        self
    }

    /// Builder-style core-split policy override.
    pub fn with_split(mut self, split: CoreSplitPolicy) -> Self {
        self.split = split;
        self
    }
}

/// A finished job, as reported to the progress callback.
#[derive(Clone, Copy, Debug)]
pub struct Progress {
    /// Jobs finished so far (including this one).
    pub done: usize,
    /// Total jobs in the figure.
    pub total: usize,
    /// The finished job's scheme.
    pub scheme: Scheme,
    /// The finished job's X value.
    pub x: f64,
    /// Wall-clock seconds the job took (all replications).
    pub job_wall_secs: f64,
    /// Engine worker threads the job ran with (the core-budget split's
    /// allocation for its worker; 1 = serial engine).
    pub engine_threads: u32,
    /// Wall-clock seconds since the figure started.
    pub elapsed_secs: f64,
    /// Estimated seconds remaining, from the mean job rate so far.
    pub eta_secs: f64,
}

/// Observation options for a figure run: live progress and JSONL
/// interval-snapshot traces.
#[derive(Clone, Copy)]
pub struct RunReporting<'a> {
    /// Called after every finished job. Invoked from worker threads, so
    /// it must be `Sync`; calls are serialized by the runner.
    pub on_progress: Option<&'a (dyn Fn(Progress) + Sync)>,
    /// Directory receiving one `<figure>-<scheme>-p<point>.jsonl` trace
    /// per job (interval snapshots of the first replication). Created if
    /// missing; write failures are reported to stderr, not fatal.
    pub trace_dir: Option<&'a Path>,
    /// Snapshot stride for traces, in broadcast periods.
    pub trace_every: u32,
}

impl Default for RunReporting<'_> {
    fn default() -> Self {
        RunReporting {
            on_progress: None,
            trace_dir: None,
            trace_every: 10,
        }
    }
}

impl std::fmt::Debug for RunReporting<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunReporting")
            .field("on_progress", &self.on_progress.is_some())
            .field("trace_dir", &self.trace_dir)
            .field("trace_every", &self.trace_every)
            .finish()
    }
}

/// Executes every point of `spec` and reassembles the curves.
///
/// # Errors
/// Returns the typed validation error if any job's configuration is
/// inconsistent (checked up front, before any simulation runs).
pub fn run_figure(spec: &FigureSpec, scale: RunScale) -> Result<FigureResult, ConfigError> {
    run_figure_with(spec, scale, RunReporting::default())
}

/// [`run_figure`] with live progress and trace output.
///
/// # Errors
/// Returns the typed validation error if any job's configuration is
/// inconsistent (checked up front, before any simulation runs).
pub fn run_figure_with(
    spec: &FigureSpec,
    scale: RunScale,
    reporting: RunReporting<'_>,
) -> Result<FigureResult, ConfigError> {
    let started = Instant::now();
    // Job list: (series index, point index, config).
    let mut jobs = Vec::new();
    for (si, &scheme) in spec.schemes.iter().enumerate() {
        for (pi, (_, base)) in spec.points.iter().enumerate() {
            let mut cfg = base.clone().with_scheme(scheme);
            cfg.sim_time_secs = (cfg.sim_time_secs * scale.time_factor).max(
                // Never shrink below a few broadcast periods.
                10.0 * cfg.broadcast_period_secs,
            );
            cfg.validate()?; // fail fast, before spawning workers
            jobs.push((si, pi, cfg));
        }
    }
    let total = jobs.len();

    if let Some(dir) = reporting.trace_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create trace dir {}: {e}", dir.display());
        }
    }

    // Core budget → (point workers, engine threads per worker). The
    // engine is bit-deterministic at any thread count, so the split
    // shapes wall clock only, never results.
    let budget = scale.max_threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    });
    let max_clients = jobs
        .iter()
        .map(|(_, _, cfg)| cfg.num_clients)
        .max()
        .unwrap_or(0);
    let alloc = split_core_budget(scale.split, budget, total, max_clients);
    let point_workers = alloc.len();

    let results: Mutex<Vec<(usize, usize, PointResult)>> = Mutex::new(Vec::with_capacity(total));
    let next_job = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    // Serializes progress callbacks so lines never interleave.
    let progress_gate = Mutex::new(());

    std::thread::scope(|scope| {
        for &engine_threads in &alloc {
            let jobs = &jobs;
            let next_job = &next_job;
            let done = &done;
            let progress_gate = &progress_gate;
            let results = &results;
            let spec = &spec;
            let reporting = &reporting;
            scope.spawn(move || {
                // One pool per worker, shared across every job it claims
                // (engines reset all shared state between runs, so pool
                // reuse is free — see `RunOptions::worker_pool`).
                let pool = (engine_threads > 1)
                    .then(|| Arc::new(WorkerPool::new(engine_threads as usize)));
                loop {
                    let idx = next_job.fetch_add(1, Ordering::Relaxed);
                    let Some(&(si, pi, ref cfg)) = jobs.get(idx) else {
                        break;
                    };
                    let job_started = Instant::now();
                    // Replications vary the seed only; everything else is
                    // common random numbers across schemes and points.
                    let mut ys = mobicache_sim::OnlineStats::new();
                    let mut first_metrics = None;
                    // Snapshot trace of the first replication only (the
                    // probe does not perturb it — see `mobicache::probe`).
                    let mut sampler = reporting
                        .trace_dir
                        .map(|_| IntervalSampler::every(reporting.trace_every.max(1)));
                    for rep in 0..scale.replications {
                        let mut rep_cfg = cfg
                            .clone()
                            .with_seed(cfg.seed.wrapping_add(rep as u64 * 0x9E37_79B9));
                        if engine_threads > 1 {
                            rep_cfg = rep_cfg.with_threads(engine_threads);
                        }
                        let mut opts = match (rep, sampler.as_mut()) {
                            (0, Some(s)) => RunOptions::new().probe(s),
                            _ => RunOptions::default(),
                        };
                        if let Some(p) = &pool {
                            opts = opts.worker_pool(Arc::clone(p));
                        }
                        // Validated above; a rejection here is a bug.
                        let outcome = run(&rep_cfg, opts)
                            .unwrap_or_else(|e| panic!("{}: invalid config: {e}", spec.id));
                        ys.record(spec.metric.extract(&outcome.metrics));
                        if first_metrics.is_none() {
                            first_metrics = Some(outcome.metrics);
                        }
                    }
                    let scheme = spec.schemes[si];
                    if let (Some(dir), Some(s)) = (reporting.trace_dir, sampler.as_ref()) {
                        let name = format!("{}-{:?}-p{pi}.jsonl", spec.id, scheme).to_lowercase();
                        let path = dir.join(&name);
                        // Leading meta line records where the core budget
                        // went for this job; snapshots follow, one per line.
                        let mut body = format!(
                            "{{\"job\":\"{}\",\"engine_threads\":{engine_threads},\"point_workers\":{point_workers}}}\n",
                            name.trim_end_matches(".jsonl"),
                        );
                        body.push_str(&s.to_jsonl());
                        if let Err(e) = std::fs::write(&path, body) {
                            eprintln!("warning: cannot write trace {}: {e}", path.display());
                        }
                    }
                    let job_wall_secs = job_started.elapsed().as_secs_f64();
                    let n = ys.count() as f64;
                    let stderr = if n > 1.0 {
                        // Sample std dev over sqrt(n).
                        (ys.variance() * n / (n - 1.0)).sqrt() / n.sqrt()
                    } else {
                        0.0
                    };
                    let x = spec.points[pi].0;
                    results.lock().unwrap().push((
                        si,
                        pi,
                        PointResult {
                            x,
                            y: ys.mean(),
                            y_stderr: stderr,
                            replications: scale.replications,
                            wall_secs: job_wall_secs,
                            engine_threads,
                            metrics: first_metrics.expect("at least one replication"),
                        },
                    ));
                    let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                    if let Some(cb) = reporting.on_progress {
                        let elapsed_secs = started.elapsed().as_secs_f64();
                        let remaining = total.saturating_sub(finished) as f64;
                        let eta_secs = elapsed_secs / finished as f64 * remaining;
                        let _gate = progress_gate.lock().unwrap();
                        cb(Progress {
                            done: finished,
                            total,
                            scheme,
                            x,
                            job_wall_secs,
                            engine_threads,
                            elapsed_secs,
                            eta_secs,
                        });
                    }
                }
            });
        }
    });

    let mut collected = results.into_inner().expect("no worker panicked");
    collected.sort_by_key(|&(si, pi, _)| (si, pi));
    let mut series: Vec<SeriesResult> = spec
        .schemes
        .iter()
        .map(|&scheme| SeriesResult {
            scheme,
            points: Vec::with_capacity(spec.points.len()),
        })
        .collect();
    for (si, _, point) in collected {
        series[si].points.push(point);
    }

    Ok(FigureResult {
        id: spec.id.to_string(),
        paper_ref: spec.paper_ref.to_string(),
        title: spec.title.to_string(),
        x_label: spec.x_label.to_string(),
        y_label: spec.metric.label().to_string(),
        series,
        wall_secs: started.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MetricKind;
    use mobicache_model::{ConfigError, Scheme, SimConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tiny_spec() -> FigureSpec {
        let base = SimConfig::paper_default()
            .with_sim_time(2_000.0)
            .with_db_size(500)
            .with_num_clients(10);
        FigureSpec {
            id: "test",
            paper_ref: "none",
            title: "test",
            x_label: "x",
            metric: MetricKind::QueriesAnswered,
            schemes: vec![Scheme::Bs, Scheme::Aaw],
            points: vec![(1.0, base.clone()), (2.0, base)],
            expected_shape: "n/a",
        }
    }

    #[test]
    fn runner_preserves_order_and_shape() {
        let result = run_figure(&tiny_spec(), RunScale::default()).expect("valid spec");
        assert_eq!(result.series.len(), 2);
        assert_eq!(result.series[0].scheme, Scheme::Bs);
        assert_eq!(result.series[1].scheme, Scheme::Aaw);
        for s in &result.series {
            assert_eq!(s.points.len(), 2);
            assert_eq!(s.points[0].x, 1.0);
            assert_eq!(s.points[1].x, 2.0);
            assert!(s.points.iter().all(|p| p.y > 0.0));
            assert!(s.points.iter().all(|p| p.wall_secs > 0.0));
        }
        assert!(result.wall_secs > 0.0);
    }

    #[test]
    fn invalid_point_config_is_a_typed_error() {
        let mut spec = tiny_spec();
        spec.points[1].1.db_size = 0;
        match run_figure(&spec, RunScale::default()) {
            Err(ConfigError::ZeroCount { field }) => assert_eq!(field, "db_size"),
            other => panic!("expected ZeroCount, got {other:?}"),
        }
    }

    #[test]
    fn progress_callback_sees_every_job() {
        let spec = tiny_spec();
        let calls = AtomicUsize::new(0);
        let max_done = AtomicUsize::new(0);
        let reporting = RunReporting {
            on_progress: Some(&|p: Progress| {
                calls.fetch_add(1, Ordering::Relaxed);
                max_done.fetch_max(p.done, Ordering::Relaxed);
                assert_eq!(p.total, 4);
                assert!(p.done >= 1 && p.done <= 4);
                assert!(p.job_wall_secs > 0.0);
                assert!(p.eta_secs >= 0.0);
            }),
            ..RunReporting::default()
        };
        run_figure_with(&spec, RunScale::default(), reporting).expect("valid spec");
        assert_eq!(calls.load(Ordering::Relaxed), 4);
        assert_eq!(max_done.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn trace_dir_receives_one_jsonl_per_job() {
        let spec = tiny_spec();
        let dir = std::env::temp_dir().join(format!("mobicache-trace-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let reporting = RunReporting {
            trace_dir: Some(&dir),
            trace_every: 5,
            ..RunReporting::default()
        };
        run_figure_with(&spec, RunScale::default(), reporting).expect("valid spec");
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .expect("trace dir created")
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec![
                "test-aaw-p0.jsonl",
                "test-aaw-p1.jsonl",
                "test-bs-p0.jsonl",
                "test-bs-p1.jsonl"
            ]
        );
        let body = std::fs::read_to_string(dir.join("test-bs-p0.jsonl")).unwrap();
        assert!(body.lines().count() > 2, "expected a snapshot series");
        assert!(body.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        // First line is the allocation meta record.
        let meta = body.lines().next().unwrap();
        assert!(meta.contains("\"job\":\"test-bs-p0\""), "{meta}");
        assert!(meta.contains("\"engine_threads\":1"), "{meta}");
        assert!(meta.contains("\"point_workers\":"), "{meta}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn split_points_only_never_allocates_engine_threads() {
        assert_eq!(
            split_core_budget(CoreSplitPolicy::PointsOnly, 8, 3, 1_000_000),
            vec![1, 1, 1]
        );
        assert_eq!(
            split_core_budget(CoreSplitPolicy::PointsOnly, 2, 5, 1_000_000),
            vec![1, 1]
        );
    }

    #[test]
    fn split_auto_stays_point_parallel_when_jobs_cover_budget() {
        assert_eq!(
            split_core_budget(CoreSplitPolicy::Auto, 4, 4, 1_000_000),
            vec![1, 1, 1, 1]
        );
        assert_eq!(
            split_core_budget(CoreSplitPolicy::Auto, 4, 40, 1_000_000),
            vec![1, 1, 1, 1]
        );
    }

    #[test]
    fn split_auto_hands_leftover_cores_to_engines() {
        // 8 cores over 3 big jobs: remainder goes to the earliest
        // workers, and the allocation sums to the whole budget.
        let alloc = split_core_budget(CoreSplitPolicy::Auto, 8, 3, 1_000_000);
        assert_eq!(alloc, vec![3, 3, 2]);
        assert_eq!(alloc.iter().sum::<u32>(), 8);
        assert_eq!(
            split_core_budget(CoreSplitPolicy::Auto, 6, 2, 1_000_000),
            vec![3, 3]
        );
    }

    #[test]
    fn split_auto_keeps_small_populations_serial() {
        // Tiny engines cannot shard profitably, so leftover cores stay
        // idle rather than being burned on pool overhead.
        assert_eq!(
            split_core_budget(CoreSplitPolicy::Auto, 8, 3, 10),
            vec![1, 1, 1]
        );
    }

    #[test]
    fn split_degenerate_inputs_yield_one_serial_worker() {
        assert_eq!(split_core_budget(CoreSplitPolicy::Auto, 0, 0, 0), vec![1]);
        assert_eq!(
            split_core_budget(CoreSplitPolicy::PointsOnly, 0, 0, 0),
            vec![1]
        );
    }

    #[test]
    fn auto_split_matches_points_only_results() {
        // The split is a wall-clock knob only: a population big enough
        // to engage engine threading must produce bit-identical curves
        // under both policies (the engine's determinism contract).
        let base = SimConfig::paper_default()
            .with_sim_time(400.0)
            .with_db_size(500)
            .with_num_clients(2_500);
        let spec = FigureSpec {
            id: "split",
            paper_ref: "none",
            title: "split",
            x_label: "x",
            metric: MetricKind::QueriesAnswered,
            schemes: vec![Scheme::Aaw],
            points: vec![(1.0, base)],
            expected_shape: "n/a",
        };
        let budget = Some(3); // 1 job < 3 cores → Auto allocates [3]
        let auto = run_figure(
            &spec,
            RunScale {
                max_threads: budget,
                split: CoreSplitPolicy::Auto,
                ..RunScale::default()
            },
        )
        .expect("valid spec");
        let serial = run_figure(
            &spec,
            RunScale {
                max_threads: budget,
                split: CoreSplitPolicy::PointsOnly,
                ..RunScale::default()
            },
        )
        .expect("valid spec");
        let (a, s) = (&auto.series[0].points[0], &serial.series[0].points[0]);
        assert_eq!(a.engine_threads, 3, "Auto hands the whole budget over");
        assert_eq!(s.engine_threads, 1, "PointsOnly keeps engines serial");
        assert_eq!(a.y, s.y);
        // Full-metrics digest equality — the same pin the golden
        // determinism suite uses.
        assert_eq!(format!("{:?}", a.metrics), format!("{:?}", s.metrics));
    }

    #[test]
    fn scale_shrinks_horizon_but_not_below_floor() {
        let spec = tiny_spec();
        let one = Some(1);
        let full = run_figure(
            &spec,
            RunScale {
                time_factor: 1.0,
                max_threads: one,
                ..RunScale::default()
            },
        )
        .expect("valid spec");
        let small = run_figure(
            &spec,
            RunScale {
                time_factor: 0.1,
                max_threads: one,
                ..RunScale::default()
            },
        )
        .expect("valid spec");
        let yf = full.curve(Scheme::Bs)[0];
        let ys = small.curve(Scheme::Bs)[0];
        assert!(
            ys < yf,
            "shorter horizon answers fewer queries ({ys} !< {yf})"
        );
    }

    #[test]
    fn replications_produce_error_bars() {
        let spec = tiny_spec();
        let result =
            run_figure(&spec, RunScale::default().with_replications(3)).expect("valid spec");
        for s in &result.series {
            for p in &s.points {
                assert_eq!(p.replications, 3);
                assert!(p.y > 0.0);
                // Different seeds give slightly different throughput, so
                // the spread is positive (run-length quantisation could in
                // principle collapse it, but not at these sizes).
                assert!(p.y_stderr > 0.0, "expected spread, got {}", p.y_stderr);
            }
        }
    }

    #[test]
    fn single_replication_has_zero_stderr() {
        let spec = tiny_spec();
        let result = run_figure(&spec, RunScale::default()).expect("valid spec");
        assert!(result
            .series
            .iter()
            .flat_map(|s| &s.points)
            .all(|p| p.y_stderr == 0.0 && p.replications == 1));
    }
}
