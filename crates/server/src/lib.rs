//! # mobicache-server — the stateless broadcast server
//!
//! §2 of the paper: *"The server is stateless, since it is not aware of
//! the state of the client's cache and the client itself… The server
//! simply periodically broadcasts an invalidation report containing the
//! data items that have been updated recently."*
//!
//! * [`log`] — the update history: per-item last-update timestamps plus
//!   the recency index, supporting window extraction (`IR(w)`) and
//!   validity checking; every bit-sequences report shares the index
//!   instead of copying it.
//! * [`server`] — the server itself: applies update transactions, builds
//!   the per-scheme invalidation report each broadcast period (including
//!   the AFW/AAW adaptive choice driven by client-uplinked `Tlb`s),
//!   answers data requests, and processes validity checks.
//!
//! The server is "stateless" in the paper's protocol sense — it tracks no
//! per-client cache contents — but the adaptive schemes do buffer the
//! `Tlb` timestamps uplinked since the last report; that buffer is cleared
//! every period (§3.1).

pub mod log;
pub mod server;

pub use log::UpdateLog;
pub use server::{AdaptiveDecision, GroupVerdict, Server, ServerCounters, ValidityVerdict};
