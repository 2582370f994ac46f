//! # mobicache-bench
//!
//! Benchmark targets (no library code). Whole-simulation throughput is
//! measured by `mobibench` (its own package in `mobibench/`); this crate
//! keeps what no whole run isolates:
//!
//! * `benches/micro.rs` — criterion micro-benchmarks of the hot
//!   algorithmic pieces: bit-sequence construction and application,
//!   window-report decisions, LRU operations, signature combination, the
//!   channel facility and the RNG.
//! * `src/bin/report_pipeline.rs` — the `BENCH_report_pipeline.json`
//!   harness: the population sweep up to 1 M clients, the scheduler and
//!   invalidation-plan micro-benchmarks, and the same-process CI smokes.
