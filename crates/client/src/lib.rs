//! # mobicache-client — the mobile host state machine
//!
//! One [`Client`] per mobile host. The client is written as a pure state
//! machine: the simulation core feeds it events (a broadcast report
//! arrived, a data item arrived, a validity report arrived, a query was
//! issued, connect/disconnect transitions) and it returns
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
//! cell's client state as parallel columns plus one shared
//! [`PendingArena`] of pending-query nodes, and the scheme handlers run
//! against [`ClientMut`] accessor views (or read-only [`ClientRef`]s).
//! The engine's sharded phases walk contiguous column ranges through
//! [`ClientPop::for_each_delivered`], which keeps the raw column
//! pointers it shards with private to the population. [`Client`]
//! remains as a single-client facade over a population of one.
//!
//! Migration note: the owning `QueryState` type was removed with this
//! redesign — per-item progress lives in the arena and the per-query
//! scalars in the Copy [`QueryHeader`]. Snapshot-style accessors that
//! cloned per-client vectors are gone with it; iterate the columns
//! (`caches_col`, `counters_col`) or use the view types instead.

mod machine;
mod pop;
mod query;

pub use machine::{Client, ClientAction, ClientConfig, ClientCounters};
pub use pop::{ClientMut, ClientPop, ClientRef, PendingArena};
pub use query::{PendingItem, PendingState, QueryHeader, QueryOutcome};
