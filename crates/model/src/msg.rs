//! Message taxonomy and bit-level size accounting.
//!
//! Every transmission in the model is charged to a channel by its size in
//! bits, and the evaluation's second metric is precisely "uplink
//! communication cost per query (bits/query)", so sizes are part of the
//! domain model rather than the simulator.
//!
//! Priority classes follow §4 of the paper: invalidation reports have the
//! highest priority (class 0, preemptive so reports go out exactly on the
//! period), checking requests and validity reports come next (class 1),
//! and everything else (query requests, data items) is served
//! first-come-first-served in class 2.

use crate::ids::ItemId;
use crate::units::{bits_of_bytes, bits_per_id, Bits};

/// Priority class of invalidation reports.
pub const CLASS_REPORT: usize = 0;
/// Priority class of checking requests and validity reports.
pub const CLASS_CHECK: usize = 1;
/// Priority class of query requests and data items.
pub const CLASS_DATA: usize = 2;
/// Total number of priority classes.
pub const NUM_CLASSES: usize = 3;

/// Parameters entering message-size formulas.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SizeParams {
    /// Database size `N` (determines id width `log₂N`).
    pub db_size: u64,
    /// Number of item groups for grouped checking (determines the group
    /// id width `log₂G`).
    pub group_count: u64,
    /// Timestamp width `b_T` in bits.
    pub timestamp_bits: f64,
    /// Fixed per-message framing overhead in bits.
    pub header_bits: f64,
    /// Control message size in bytes (Table 1: 512), charged for uplink
    /// query requests.
    pub control_bytes: u64,
    /// Data item payload in bytes (Table 1: 8192).
    pub item_bytes: u64,
}

impl SizeParams {
    /// Width of one item id in bits.
    #[inline]
    pub fn id_bits(&self) -> Bits {
        bits_per_id(self.db_size)
    }

    /// Size of one `(oid, timestamp)` record in bits.
    #[inline]
    pub fn record_bits(&self) -> Bits {
        self.id_bits() + self.timestamp_bits
    }

    /// Width of one group id in bits.
    #[inline]
    pub fn group_id_bits(&self) -> Bits {
        bits_per_id(self.group_count)
    }
}

/// A message sent on the uplink channel (client → server).
#[derive(Clone, Debug, PartialEq)]
pub enum UplinkKind {
    /// Request for a data item missing from (or invalid in) the cache.
    /// Charged at the Table 1 control-message size.
    QueryRequest {
        /// The requested item.
        item: ItemId,
    },
    /// An adaptive-scheme client reporting the timestamp of the last
    /// invalidation report it received (`Tlb`) — the whole point of
    /// AFW/AAW is that this is the *only* uplink cost of salvaging a cache.
    TlbReport {
        /// The client's `Tlb` in seconds.
        tlb_secs: f64,
    },
    /// A simple-checking client asking the server which of its cached
    /// items are still valid; carries one `(oid, version)` record per
    /// entry (versions as raw seconds to keep this crate sim-agnostic).
    CheckRequest {
        /// The `(oid, version)` records.
        entries: Vec<(ItemId, f64)>,
    },
    /// A grouped-checking client asking for the update history of the
    /// groups it caches: one `(group, Tlb)` record per group — the
    /// GCORE-style uplink reduction (extension).
    GroupCheckRequest {
        /// The `(group id, Tlb)` records.
        groups: Vec<(u32, f64)>,
    },
}

impl UplinkKind {
    /// Size of this message in bits under `p`.
    pub fn size_bits(&self, p: &SizeParams) -> Bits {
        match self {
            UplinkKind::QueryRequest { .. } => p.header_bits + bits_of_bytes(p.control_bytes),
            UplinkKind::TlbReport { .. } => p.header_bits + p.timestamp_bits,
            UplinkKind::CheckRequest { entries } => {
                p.header_bits + entries.len() as f64 * p.record_bits()
            }
            UplinkKind::GroupCheckRequest { groups } => {
                p.header_bits + groups.len() as f64 * (p.group_id_bits() + p.timestamp_bits)
            }
        }
    }

    /// The channel priority class of this message (§4).
    pub fn class(&self) -> usize {
        match self {
            UplinkKind::QueryRequest { .. } => CLASS_DATA,
            UplinkKind::TlbReport { .. }
            | UplinkKind::CheckRequest { .. }
            | UplinkKind::GroupCheckRequest { .. } => CLASS_CHECK,
        }
    }
}

/// A message sent on the downlink channel (server → clients).
#[derive(Clone, Debug, PartialEq)]
pub enum DownlinkKind {
    /// A periodic invalidation report, broadcast to every connected
    /// client. `content_bits` is computed by the report builder from the
    /// paper's formulas; the header is added here.
    InvalidationReport {
        /// Size of the report body in bits.
        content_bits: Bits,
    },
    /// A data item sent in response to a query request.
    DataItem {
        /// The item being delivered.
        item: ItemId,
    },
    /// A validity report answering a simple-checking request: one bit per
    /// checked item plus the server timestamp it is valid as of.
    ValidityReport {
        /// Number of items checked (one bit each on the wire).
        checked: u32,
    },
    /// Answer to a grouped-checking request: the stale items of the
    /// checked groups (extension), a covered flag and the server
    /// timestamp the verdict holds as of.
    GroupValidity {
        /// Number of stale items listed (one id each on the wire).
        stale: u32,
    },
}

impl DownlinkKind {
    /// Size of this message in bits under `p`.
    pub fn size_bits(&self, p: &SizeParams) -> Bits {
        match self {
            DownlinkKind::InvalidationReport { content_bits } => p.header_bits + content_bits,
            DownlinkKind::DataItem { .. } => p.header_bits + bits_of_bytes(p.item_bytes),
            DownlinkKind::ValidityReport { checked } => {
                p.header_bits + *checked as f64 + p.timestamp_bits
            }
            DownlinkKind::GroupValidity { stale } => {
                p.header_bits + 1.0 + p.timestamp_bits + *stale as f64 * p.id_bits()
            }
        }
    }

    /// The channel priority class of this message (§4).
    pub fn class(&self) -> usize {
        match self {
            DownlinkKind::InvalidationReport { .. } => CLASS_REPORT,
            DownlinkKind::ValidityReport { .. } | DownlinkKind::GroupValidity { .. } => CLASS_CHECK,
            DownlinkKind::DataItem { .. } => CLASS_DATA,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SizeParams {
        SizeParams {
            db_size: 10_000,
            group_count: 64,
            timestamp_bits: 48.0,
            header_bits: 64.0,
            control_bytes: 512,
            item_bytes: 8192,
        }
    }

    #[test]
    fn id_and_record_width() {
        let p = params();
        assert_eq!(p.id_bits(), 14.0); // ceil(log2 10000)
        assert_eq!(p.record_bits(), 62.0);
    }

    #[test]
    fn query_request_is_a_control_message() {
        let p = params();
        let m = UplinkKind::QueryRequest { item: ItemId(3) };
        assert_eq!(m.size_bits(&p), 64.0 + 4096.0);
        assert_eq!(m.class(), CLASS_DATA);
    }

    #[test]
    fn tlb_report_is_tiny() {
        let p = params();
        let m = UplinkKind::TlbReport { tlb_secs: 123.0 };
        assert_eq!(m.size_bits(&p), 64.0 + 48.0);
        assert_eq!(m.class(), CLASS_CHECK);
    }

    #[test]
    fn check_request_scales_with_items() {
        let p = params();
        let entries: Vec<(ItemId, f64)> = (0..200).map(|i| (ItemId(i), 0.0)).collect();
        let m = UplinkKind::CheckRequest { entries };
        assert_eq!(m.size_bits(&p), 64.0 + 200.0 * 62.0);
        assert_eq!(m.class(), CLASS_CHECK);
        let empty = UplinkKind::CheckRequest { entries: vec![] };
        assert_eq!(empty.size_bits(&p), 64.0);
    }

    #[test]
    fn data_item_dominates_downlink() {
        let p = params();
        let m = DownlinkKind::DataItem { item: ItemId(1) };
        assert_eq!(m.size_bits(&p), 64.0 + 65_536.0);
        assert_eq!(m.class(), CLASS_DATA);
    }

    #[test]
    fn report_priority_is_highest() {
        let p = params();
        let m = DownlinkKind::InvalidationReport {
            content_bits: 1000.0,
        };
        assert_eq!(m.size_bits(&p), 1064.0);
        assert_eq!(m.class(), CLASS_REPORT);
    }

    #[test]
    fn group_check_request_counts_groups_not_items() {
        let p = params();
        let m = UplinkKind::GroupCheckRequest {
            groups: vec![(0, 10.0), (5, 10.0), (63, 12.0)],
        };
        // 3 * (6 + 48) + header — far below 3 cached items' worth of
        // full-cache checking once caches grow.
        assert_eq!(m.size_bits(&p), 64.0 + 3.0 * 54.0);
        assert_eq!(m.class(), CLASS_CHECK);
    }

    #[test]
    fn group_validity_sizes_by_stale_items() {
        let p = params();
        let m = DownlinkKind::GroupValidity { stale: 2 };
        assert_eq!(m.size_bits(&p), 64.0 + 1.0 + 48.0 + 2.0 * 14.0);
        assert_eq!(m.class(), CLASS_CHECK);
    }

    #[test]
    fn validity_report_is_bitmap_sized() {
        let p = params();
        let m = DownlinkKind::ValidityReport { checked: 200 };
        assert_eq!(m.size_bits(&p), 64.0 + 200.0 + 48.0);
        assert_eq!(m.class(), CLASS_CHECK);
    }
}
