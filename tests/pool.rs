//! Lifecycle tests for the persistent worker pool behind the engine's
//! sharded tick phases.
//!
//! Three contracts, each of which would otherwise only fail as a hang
//! or a heisenbug:
//!
//! * a panicking chunk surfaces as an ordinary test-visible panic on
//!   the calling thread — never a wedged barrier (CI runs this file
//!   under `timeout` so a deadlock fails fast);
//! * dropping a `Simulation` joins every worker it spawned;
//! * the pool carries **no hidden per-tick state**: an engine driven
//!   `2×N` ticks and a pair of engines driven `N` ticks each — all
//!   through one shared pool — produce identical metrics.

use mobicache::{run, RunOptions, Simulation, WorkerPool};
use mobicache_model::{Scheme, SimConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn cfg(scheme: Scheme, sim_time_secs: f64) -> SimConfig {
    let mut cfg = SimConfig::paper_default().with_scheme(scheme);
    cfg.sim_time_secs = sim_time_secs;
    cfg.db_size = 1_000;
    // 200 clients over 4 threads is 4 word-aligned chunks (64, 64, 64
    // and 8 clients), so every sharded phase really splits.
    cfg.num_clients = 200;
    cfg.threads = 4;
    cfg
}

#[test]
fn panicking_worker_task_propagates_without_hang() {
    let pool = WorkerPool::new(4);
    let survivors = AtomicU64::new(0);
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.run(16, &|i| {
            if i % 5 == 2 {
                panic!("poisoned chunk {i}");
            }
            survivors.fetch_add(1, Ordering::Relaxed);
        });
    }));
    let payload = result.expect_err("chunk panic must reach the caller");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("poisoned chunk"), "unexpected payload: {msg}");
    // The barrier completed before unwinding: all 13 healthy chunks ran.
    assert_eq!(survivors.load(Ordering::Relaxed), 13);
    // The pool survives a panicked epoch and keeps serving.
    let total = AtomicU64::new(0);
    pool.run(8, &|i| {
        total.fetch_add(i as u64, Ordering::Relaxed);
    });
    assert_eq!(total.into_inner(), 28);

    // The same contract through the chunk primitive every sharded phase
    // uses: 1 000 items in 16 slots is 16 chunks of 64 (the last 40).
    let mut slots = vec![0u64; 16];
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.for_each_chunk(1_000, &mut slots, |range, slot| {
            if range.start == 320 {
                panic!("poisoned range {range:?}");
            }
            *slot = range.len() as u64;
        });
    }));
    let payload = result.expect_err("chunk panic must reach the caller");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        msg.contains("poisoned range 320..384"),
        "unexpected payload: {msg}"
    );
    // Every healthy chunk wrote its own slot before the re-raise.
    assert_eq!(slots[5], 0);
    assert_eq!(slots.iter().sum::<u64>(), 1_000 - 64);
    // And the pool keeps serving the primitive afterwards.
    pool.for_each_chunk(1_000, &mut slots, |range, slot| *slot = range.start as u64);
    assert_eq!(slots[15], 960);
}

#[test]
fn engine_drop_joins_all_workers() {
    // Each Simulation spawns up to threads-1 = 3 workers (one per core
    // beyond the caller's, so fewer on small hosts); leaking them across
    // 40 create/drop cycles would blow well past any sane thread count
    // and hang process exit. Completion of this loop (plus a run to
    // prove the pool works right up to the drop) is the assertion.
    for round in 0..40u64 {
        let c = cfg(Scheme::Aaw, 100.0).with_seed(round);
        let sim = Simulation::new(&c, RunOptions::new()).expect("valid config");
        if round % 4 == 0 {
            let result = sim.run_to_completion();
            assert!(result.metrics.events_processed > 0);
        }
        // Non-multiple rounds drop the wired simulation untouched: the
        // pool must join cleanly from the never-ran state too.
    }
}

#[test]
fn shared_pool_carries_no_state_across_engines() {
    // One pool, many engines — recreated engines must see a pool
    // indistinguishable from a fresh one. Drive scheme A, then scheme
    // B, then A again through the same pool and compare every run
    // against a pool-per-engine control run.
    let pool = Arc::new(WorkerPool::new(4));
    for scheme in [Scheme::Aaw, Scheme::Bs, Scheme::Aaw, Scheme::Gcore] {
        let c = cfg(scheme, 2_000.0);
        let control = run(&c, RunOptions::new().check_consistency(true)).unwrap();
        let shared = run(
            &c,
            RunOptions::new()
                .check_consistency(true)
                .worker_pool(Arc::clone(&pool)),
        )
        .unwrap();
        assert_eq!(
            format!("{:?}", control.metrics),
            format!("{:?}", shared.metrics),
            "{scheme:?} diverged on the shared pool"
        );
    }
}

#[test]
fn cross_tick_reuse_matches_recreated_engines() {
    // The ISSUE's pinning test, strengthened: one engine driven 2×N
    // ticks (4 000 s = 200 ticks at L = 20 s) must match itself whether
    // its pool is private or shared, and engines re-created every N
    // ticks on one shared pool must each match their fresh-pool control
    // — so no per-tick information (chunk counters, panic slots, epoch
    // bookkeeping) can leak from run to run.
    let pool = Arc::new(WorkerPool::new(4));
    let long = cfg(Scheme::Aaw, 4_000.0);
    let long_control = run(&long, RunOptions::new()).unwrap();
    let long_shared = run(&long, RunOptions::new().worker_pool(Arc::clone(&pool))).unwrap();
    assert_eq!(
        format!("{:?}", long_control.metrics),
        format!("{:?}", long_shared.metrics),
        "2N-tick run diverged on the shared pool"
    );
    // Now re-create an engine every N ticks (half the horizon) on the
    // already-used pool; each segment must match a fresh-pool control.
    for seed in [1u64, 2] {
        let half = cfg(Scheme::Aaw, 2_000.0).with_seed(seed);
        let control = run(&half, RunOptions::new()).unwrap();
        let shared = run(&half, RunOptions::new().worker_pool(Arc::clone(&pool))).unwrap();
        assert_eq!(
            format!("{:?}", control.metrics),
            format!("{:?}", shared.metrics),
            "N-tick segment (seed {seed}) diverged on the reused pool"
        );
    }
}
