//! # mobicache-client — the mobile host state machine
//!
//! A [`ClientPop`] holds every mobile host of a cell. Each client is a
//! pure state machine: the simulation core feeds it events (a broadcast
//! report arrived, a data item arrived, a validity report arrived, a
//! query was issued, connect/disconnect transitions) and it returns
//! [`ClientAction`]s (uplink messages to send, completed queries to
//! account). This keeps every scheme's client protocol — the trickiest
//! logic in the paper — unit-testable without channels or an event loop.
//!
//! ## The reconnection problem
//!
//! §2–3 of the paper revolve around one scenario: a client wakes up after
//! missing reports and must decide what its cache is worth. The schemes
//! differ exactly here:
//!
//! | scheme | on an uncovering report after reconnection |
//! |--------|--------------------------------------------|
//! | `TS` (no-check) | drop the whole cache |
//! | `AT` | drop the whole cache (any missed report) |
//! | simple checking | mark entries *limbo*, uplink a validity check, salvage on the reply |
//! | `BS` | never happens — every BS report gives a verdict |
//! | `AFW`/`AAW` | mark entries *limbo*, uplink only `Tlb`, salvage from next period's BS / enlarged-window report |
//!
//! While entries are limbo they never answer queries; queries on limbo or
//! absent items go uplink (checking lazily first under
//! [`CheckingMode::QueriedItems`](mobicache_model::CheckingMode)).
//!
//! ## Scaling: the struct-of-arrays population
//!
//! The per-client layer is columnar: a [`ClientPop`] stores the whole
//! cell's client state as parallel columns — the pending query's items
//! included, inline for a one-item query, and the cache as a 4-byte
//! handle to a body that only a client that caches gets — and the
//! scheme handlers run against [`ClientMut`] accessor views.
//! [`ClientPop::client_mut`] views one client; the engine's
//! report fan-out stamps the vouched listeners
//! ([`ClientPop::stamp`]) and views each other one in turn. A single
//! client is a population of one.

mod holders;
mod machine;
mod pop;
mod query;

pub use machine::{ClientAction, ClientConfig, ClientCounters};
pub use pop::{ClientMut, ClientPop};
pub use query::{PendingItem, PendingItems, PendingState, QueryOutcome};
