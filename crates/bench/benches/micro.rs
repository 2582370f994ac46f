//! Micro-benchmarks of the simulator's hot paths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mobicache_model::msg::SizeParams;
use mobicache_model::{ItemId, Scheme};
use mobicache_reports::{BitSequences, SigReport, Signer, WindowReport};
use mobicache_server::Server;
use mobicache_sim::{Facility, FacilityConfig, Job, SimRng, SimTime};
use std::hint::black_box;
use std::time::Duration;

fn t(s: f64) -> SimTime {
    SimTime::from_secs(s)
}

fn size_params(db: u64) -> SizeParams {
    SizeParams {
        db_size: db,
        group_count: 64,
        timestamp_bits: 48.0,
        header_bits: 64.0,
        control_bytes: 512,
        item_bytes: 8192,
    }
}

/// A synthetic recency history of `n` updated items.
fn recency(n: u32) -> Vec<(ItemId, SimTime)> {
    (0..n)
        .map(|k| (ItemId(k), t(100_000.0 - k as f64)))
        .collect()
}

fn bench_bitseq(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitseq");
    group.warm_up_time(Duration::from_millis(300));
    for &db in &[1_000u32, 10_000, 80_000] {
        let hist = recency(db / 2 + 1);
        // The per-tick build as the server runs it: k = 5 updates since
        // the previous report (dropped, as the engine drops it once
        // delivered), then a report sharing the log's index.
        let mut server = Server::new(Scheme::Bs, db, 200.0, size_params(u64::from(db)));
        for &(item, ts) in hist.iter().rev() {
            server.apply_txn(ts, &[item]);
        }
        let mut now = 100_000.0;
        let mut next = 0u32;
        group.bench_with_input(BenchmarkId::new("build", db), &db, |b, &db| {
            b.iter(|| {
                now += 20.0;
                let items: Vec<ItemId> = (0..5)
                    .map(|_| {
                        next = next.wrapping_mul(2_654_435_761).wrapping_add(1) % db;
                        ItemId(next)
                    })
                    .collect();
                server.apply_txn(t(now - 10.0), &items);
                black_box(server.build_report_shared(t(now)))
            });
        });
        // The from-scratch reference: copying the N/2 + 1 newest updates.
        group.bench_with_input(BenchmarkId::new("build_from_scratch", db), &db, |b, &db| {
            b.iter(|| {
                black_box(BitSequences::from_recency(
                    t(200_000.0),
                    db,
                    hist.iter().copied(),
                ))
            });
        });
        let bs = BitSequences::from_recency(t(200_000.0), db, hist.iter().copied());
        let cache: Vec<ItemId> = (0..200).map(|i| ItemId(i * 7 % db)).collect();
        group.bench_with_input(BenchmarkId::new("decide_deep", db), &db, |b, _| {
            // Tlb far in the past: the largest level is selected.
            b.iter(|| black_box(bs.decide(t(0.0), cache.iter().copied())));
        });
        group.bench_with_input(BenchmarkId::new("decide_recent", db), &db, |b, _| {
            // Tlb one period back: the common connected-client case.
            b.iter(|| black_box(bs.decide(t(199_999.5), cache.iter().copied())));
        });
        group.bench_with_input(BenchmarkId::new("encode_wire", db), &db, |b, _| {
            b.iter(|| black_box(bs.encode_wire()));
        });
    }
    group.finish();
}

fn bench_window(c: &mut Criterion) {
    let mut group = c.benchmark_group("window");
    let p = size_params(10_000);
    for &records in &[10usize, 100, 1_000] {
        let report = WindowReport {
            broadcast_at: t(1_000.0),
            window_start: t(800.0),
            records: (0..records)
                .map(|k| (ItemId(k as u32), t(810.0 + k as f64 * 0.01)))
                .collect(),
            dummy: None,
        };
        let cache: Vec<(ItemId, SimTime)> = (0..200)
            .map(|i| (ItemId(i * 31 % 10_000), t(805.0)))
            .collect();
        group.bench_with_input(BenchmarkId::new("decide", records), &records, |b, _| {
            b.iter(|| black_box(report.decide(t(900.0), cache.iter().copied())));
        });
        group.bench_with_input(BenchmarkId::new("size_bits", records), &records, |b, _| {
            b.iter(|| black_box(report.size_bits(&p)));
        });
    }
    group.finish();
}

/// The tick fan-out through the linear reference: ONE report applied by
/// MANY clients, each rescanning the record list per cached item. (The
/// simulator's plan arms are timed by `report_pipeline`'s `invplan`
/// section.)
fn bench_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("fanout");
    group.warm_up_time(Duration::from_millis(300));
    let db = 10_000u32;
    for &records in &[1_000usize, 4_000] {
        let report = WindowReport {
            broadcast_at: t(1_000.0),
            window_start: t(800.0),
            records: (0..records)
                .map(|k| (ItemId(k as u32), t(810.0 + k as f64 * 0.01)))
                .collect(),
            dummy: None,
        };
        // 200 clients, 200 cached items each, caches pairwise distinct.
        let caches: Vec<Vec<(ItemId, SimTime)>> = (0..200u32)
            .map(|cl| {
                (0..200u32)
                    .map(|i| (ItemId((cl * 97 + i * 31) % db), t(805.0)))
                    .collect()
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::new("window_linear_200c", records),
            &records,
            |b, _| {
                b.iter(|| {
                    for cache in &caches {
                        black_box(report.decide(t(900.0), cache.iter().copied()));
                    }
                });
            },
        );
    }
    group.finish();
}

fn bench_sig(c: &mut Criterion) {
    let mut group = c.benchmark_group("sig");
    group.warm_up_time(Duration::from_millis(300));
    let signer = Signer::new(32, 32, 7);
    for &db in &[1_000usize, 10_000] {
        let versions = vec![SimTime::ZERO; db];
        group.bench_with_input(BenchmarkId::new("combine", db), &db, |b, _| {
            b.iter(|| black_box(signer.combine(&versions)));
        });
        let base = signer.combine(&versions);
        let mut v2 = versions.clone();
        v2[3] = t(5.0);
        let report = SigReport {
            broadcast_at: t(10.0),
            combined: signer.combine(&v2),
        };
        let cache: Vec<ItemId> = (0..200).map(|i| ItemId((i * 13 % db) as u32)).collect();
        group.bench_with_input(BenchmarkId::new("decide", db), &db, |b, _| {
            b.iter(|| black_box(report.decide(&signer, Some(&base), cache.iter().copied())));
        });
    }
    group.finish();
}

fn bench_cache(c: &mut Criterion) {
    use mobicache_cache::LruCache;
    let mut group = c.benchmark_group("lru");
    group.bench_function("insert_evict_1600", |b| {
        b.iter(|| {
            let mut cache = LruCache::new(1_600);
            for i in 0..4_000u32 {
                cache.insert(ItemId(i % 2_400), t(1.0), t(1.0));
            }
            black_box(cache.len())
        });
    });
    group.bench_function("hit_path", |b| {
        let mut cache = LruCache::new(1_600);
        for i in 0..1_600u32 {
            cache.insert(ItemId(i), t(1.0), t(1.0));
        }
        let mut k = 0u32;
        b.iter(|| {
            k = (k + 7) % 1_600;
            black_box(cache.get_valid(ItemId(k)))
        });
    });
    group.finish();
}

fn bench_facility(c: &mut Criterion) {
    let mut group = c.benchmark_group("facility");
    group.bench_function("submit_complete_cycle", |b| {
        b.iter(|| {
            let mut f = Facility::new(FacilityConfig {
                rate_bps: 10_000.0,
                classes: 3,
                preemptive_classes: 1,
            });
            let mut now = SimTime::ZERO;
            let mut pending = Vec::new();
            for i in 0..100u64 {
                if let Some(done) = f.submit(
                    now,
                    Job {
                        bits: 1_000.0,
                        class: (i % 3) as usize,
                        msg: i,
                    },
                ) {
                    pending.push(done);
                }
                while let Some(compl) = pending.pop() {
                    now = now.max(compl.at);
                    if let Some((_, Some(n))) = f.on_complete(now, compl.token) {
                        pending.push(n);
                    }
                }
            }
            black_box(f.jobs_served(0) + f.jobs_served(1) + f.jobs_served(2))
        });
    });
    group.finish();
}

fn bench_rng(c: &mut Criterion) {
    let mut group = c.benchmark_group("rng");
    group.bench_function("next_u64", |b| {
        let mut rng = SimRng::new(1);
        b.iter(|| black_box(rng.next_u64()));
    });
    group.bench_function("exp_sample", |b| {
        let mut rng = SimRng::new(1);
        let d = mobicache_sim::Exp::with_mean(100.0);
        b.iter(|| black_box(d.sample(&mut rng)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_bitseq,
    bench_window,
    bench_fanout,
    bench_sig,
    bench_cache,
    bench_facility,
    bench_rng
);
criterion_main!(benches);
