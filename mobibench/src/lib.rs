//! # mobibench
//!
//! The benchmark of the `mobicache` simulator: how fast and how small it
//! produces the paper's numbers, and whether it produces them bit-exactly.
//!
//! * [`workload`] — the four named workloads (`paper`, `bigdb`,
//!   `population`, `mobile-faults`), built from a seed, with the digests
//!   their outputs are pinned to.
//! * [`host`] — the host's cores and CPU model, and the fixed kernel
//!   timed next to every timed simulation to divide the host's momentary
//!   slowdown out of its times.
//! * [`op`] — one op: one simulation of a workload (all of them, for the
//!   oracle and traced ops) in a fresh child process, timed in host
//!   seconds, and the line format it reports back in.
//! * [`layers`] — the traced op: spans around every set-up, run and tick,
//!   a read-only probe, and replays of each layer's public calls.
//! * [`output`] — the metric list and the JSON result line.
//! * [`stats`] — medians, quartiles and the tail-percentile rule.
//!
//! The `mobibench` binary drives ops round-robin across workloads and
//! prints every metric with its unit; see `README.md` in this directory.

pub mod host;
pub mod layers;
pub mod op;
pub mod output;
pub mod stats;
pub mod workload;
