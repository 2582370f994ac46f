//! One benchmark per paper figure / ablation: the figure's full
//! scheme × point sweep at 1 % of the paper's horizon (1000 simulated
//! seconds — 50 broadcast periods), single-threaded for stable numbers.
//!
//! Full-scale regeneration of the figures (the paper's actual tables of
//! numbers) is done by `cargo run --release -p mobicache-experiments
//! --bin repro -- --all`; see EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, Criterion};
use mobicache_experiments::figures;
use mobicache_experiments::{run_figure, RunScale};
use std::hint::black_box;
use std::time::Duration;

fn bench_figures(c: &mut Criterion) {
    let scale = RunScale {
        time_factor: 0.01,
        max_threads: Some(1),
        replications: 1,
    };
    let mut group = c.benchmark_group("figures");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(5));
    for spec in figures::all_figures() {
        group.bench_function(spec.id, |b| {
            b.iter(|| black_box(run_figure(black_box(&spec), scale)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
