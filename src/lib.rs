//! Top-level reproduction package: re-exports the public API so the
//! examples and cross-crate integration tests in this repository have a
//! single import root. Library users should depend on the `mobicache`
//! crate directly.
//!
//! Per-client state is exposed through the columnar [`ClientPop`]
//! population and its [`ClientMut`] accessor view (re-exported here).

pub use mobicache::*;
pub use mobicache_experiments as experiments;
