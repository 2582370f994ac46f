//! # mobicache-bench
//!
//! Benchmark targets (no library code). Whole-simulation throughput and
//! every per-layer timing are measured by `mobibench` (its own package
//! in `mobibench/`); this crate keeps what no `mobibench` workload
//! reaches:
//!
//! * `src/bin/report_pipeline.rs` — the `BENCH_report_pipeline.json`
//!   harness: the population sweep up to 1 M clients, and its CI
//!   smoke.
