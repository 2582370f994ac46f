//! # mobicache-sim — discrete-event simulation substrate
//!
//! The original paper ran its evaluation on the proprietary CSIM 17 process
//! simulation package. This crate is the from-scratch replacement: a small,
//! deterministic discrete-event kernel with the pieces the mobile-caching
//! simulator needs.
//!
//! * [`time`] — the simulation clock type ([`SimTime`]) and durations.
//! * [`event`] — a stable-ordered future event list ([`Scheduler`]), and
//!   the [`Completion`] a passive component hands its caller to schedule.
//! * [`rng`] — a deterministic, splittable pseudo-random generator
//!   (xoshiro256++ seeded via SplitMix64), so every run is reproducible from
//!   a single `u64` seed and every stochastic process gets an independent
//!   stream.
//! * [`dist`] — the distributions the model uses (exponential think/update
//!   times, Poisson transaction sizes, bounded uniforms, and a Zipf
//!   extension; coins are [`SimRng::coin`]).
//! * [`stats`] — online statistics accumulators (Welford mean/variance,
//!   histograms).
//! * [`bits`] — ascending set-bit walks over `u64` bitmaps, the shape of
//!   the engine's per-client masks.
//!
//! The kernel is deliberately *event-callback* shaped rather than
//! process-oriented: the driving loop lives in the `mobicache` core crate
//! and dispatches on an application event enum. All components here are
//! passive data structures, which keeps them unit-testable in isolation.
//! The paper's wireless channel, a preemptive-priority server, is one of
//! them and lives in `mobicache-net`.

pub mod bits;
pub mod dist;
pub mod event;
pub mod rng;
pub mod stats;
pub mod time;

pub use dist::{Exp, Poisson, UniformRange, Zipf};
pub use event::{Completion, Scheduler};
pub use rng::{SimRng, StreamId};
pub use stats::{Histogram, OnlineStats};
pub use time::SimTime;
