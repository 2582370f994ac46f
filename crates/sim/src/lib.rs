//! # mobicache-sim — discrete-event simulation substrate
//!
//! The original paper ran its evaluation on the proprietary CSIM 17 process
//! simulation package. This crate is the from-scratch replacement: a small,
//! deterministic discrete-event kernel with the pieces the mobile-caching
//! simulator needs.
//!
//! * [`time`] — the simulation clock type ([`SimTime`]) and durations.
//! * [`event`] — a stable-ordered future event list ([`Scheduler`]).
//! * [`rng`] — a deterministic, splittable pseudo-random generator
//!   (xoshiro256++ seeded via SplitMix64), so every run is reproducible from
//!   a single `u64` seed and every stochastic process gets an independent
//!   stream.
//! * [`dist`] — the distributions the model uses (exponential think/update
//!   times, Poisson transaction sizes, bounded uniforms, and a Zipf
//!   extension; coins are [`SimRng::coin`]).
//! * [`stats`] — online statistics accumulators (Welford mean/variance,
//!   histograms).
//! * [`facility`] — a single-server queueing facility with priority classes
//!   and preemptive-resume service, modelling a wireless channel whose
//!   invalidation reports must go out exactly on the broadcast period.
//! * [`bits`] — ascending set-bit walks over `u64` bitmaps, the shape of
//!   the engine's per-client masks.
//!
//! The kernel is deliberately *event-callback* shaped rather than
//! process-oriented: the driving loop lives in the `mobicache` core crate
//! and dispatches on an application event enum. All components here are
//! passive data structures, which keeps them unit-testable in isolation.

pub mod bits;
pub mod dist;
pub mod event;
pub mod facility;
pub mod rng;
pub mod stats;
pub mod time;

pub use dist::{Exp, Poisson, UniformRange, Zipf};
pub use event::Scheduler;
pub use facility::{Completion, Facility, FacilityConfig, Job};
pub use rng::{SimRng, StreamId};
pub use stats::{Histogram, OnlineStats};
pub use time::SimTime;
