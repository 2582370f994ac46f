//! # mobicache-reports — invalidation report structures and algorithms
//!
//! Everything a stateless server broadcasts and a mobile client evaluates:
//!
//! * [`window`] — the `TS` *broadcasting timestamps* report (§2.1 of the
//!   paper): the update history of the last `w` broadcast intervals, plus
//!   the AAW *enlarged window* variant carrying a dummy record.
//! * [`at`] — the *amnesic terminals* report: only the items updated since
//!   the previous report.
//! * [`bitseq`] — the *bit-sequences* structure of Jing et al. (§2.3): a
//!   hierarchy of bit sequences `B_n … B_1` plus the dummy `B_0`, able to
//!   salvage a cache after arbitrarily long disconnections. A report
//!   shares the server's [`recency`] index instead of copying it.
//! * [`recency`] — the [`RecencyIndex`]: updated items in last-update
//!   order, the one structure behind the server's update log and every
//!   BS report.
//! * [`sig`] — the *signatures* scheme of Barbara & Imielinski: combined
//!   signatures over pseudo-random item subsets (group testing).
//! * [`payload`] — the [`ReportPayload`] sum type the simulator broadcasts.
//! * [`plan`] — the [`PlanCache`]: a report decoded once per broadcast
//!   into a dense stale bitmap, the simulator's only way of applying it.
//!   Each kind's linear `decide` is the plan's test oracle.
//!
//! All client-side logic here is **pure**: a report plus the client's
//! last-report timestamp (`Tlb`) and a view of its cache produce a
//! decision describing which entries to drop. The `mobicache-client` crate
//! applies decisions to the actual cache; keeping the algorithms pure makes
//! them property-testable against a ground-truth update history (see
//! `tests/` in this crate).

pub mod at;
pub mod bitseq;
pub mod payload;
pub mod plan;
pub mod recency;
pub mod sig;
pub mod window;

pub use at::{AtDecision, AtReport};
pub use bitseq::{BitSequences, BsDecision, BsSelect};
pub use payload::ReportPayload;
pub use plan::{PlanCache, PlanStats};
pub use recency::RecencyIndex;
pub use sig::{SigDecision, SigReport, Signer};
pub use window::{WindowDecision, WindowReport};
