//! # mobicache-net — the wireless channel model
//!
//! One asymmetric pair of channels (§1: *"the uplink capacity from clients
//! back to servers is much smaller than the downlink capacity from servers
//! to clients"*):
//!
//! * the **downlink** (server → clients) carries invalidation reports
//!   (broadcast, highest priority, preemptive so they start exactly on the
//!   broadcast period), validity reports, and data items;
//! * the **uplink** (clients → server) carries query requests, `Tlb`
//!   reports and checking requests.
//!
//! A [`Channel`] is a single server with the paper's three priority
//! classes, reports preemptive: callers submit a typed message with its
//! bit size and priority class, receive a `(time, token)` completion to
//! schedule, and get the message back on completion (it waits in its
//! class's queue in between). Stale completions (preempted service)
//! return `None` and must be dropped.

mod channel;

pub use channel::{Channel, ChannelStats, Delivered};
