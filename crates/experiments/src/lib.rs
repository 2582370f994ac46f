//! # mobicache-experiments — the reproduction harness
//!
//! One [`FigureSpec`] per figure of the paper's evaluation (§5, Figures
//! 5–16) plus the ablations listed in DESIGN.md. Each spec is a parameter
//! sweep over [`SimConfig`](mobicache_model::SimConfig); the
//! [`runner`] executes the sweep (in parallel when cores allow) and the
//! [`chart`]/[`csvout`] modules render the same rows/series the paper
//! plots.
//!
//! Regenerate everything with the `repro` binary:
//!
//! ```text
//! cargo run --release -p mobicache-experiments --bin repro -- --all
//! cargo run --release -p mobicache-experiments --bin repro -- fig05 fig06
//! cargo run --release -p mobicache-experiments --bin repro -- --list
//! cargo run --release -p mobicache-experiments --bin repro -- --tables
//! ```

pub mod chart;
pub mod csvout;
pub mod figures;
pub mod runner;
pub mod spec;

pub use runner::{run_figure, run_figure_with, Progress, RunReporting, RunScale};
pub use spec::{FigureResult, FigureSpec, MetricKind, PointResult, SeriesResult};
