//! The report payload broadcast by the server each period.
//!
//! The adaptive schemes choose among report kinds period by period (§3),
//! so the downlink carries a sum type. Size dispatch lives here so the
//! simulator charges every kind through one call.

use crate::at::AtReport;
use crate::bitseq::BitSequences;
use crate::sig::{SigReport, Signer};
use crate::window::WindowReport;
use mobicache_model::msg::SizeParams;
use mobicache_model::units::Bits;
use mobicache_sim::SimTime;

/// One invalidation report, of whichever kind the scheme broadcast.
#[derive(Clone, Debug, PartialEq)]
pub enum ReportPayload {
    /// A `TS` window report (plain or AAW-enlarged — distinguished by the
    /// dummy record inside).
    Window(WindowReport),
    /// A bit-sequences report.
    BitSeq(BitSequences),
    /// An amnesic-terminals report.
    At(AtReport),
    /// A signatures report (carries its signer parameters for size
    /// accounting).
    Sig(SigReport, Signer),
}

impl ReportPayload {
    /// Broadcast timestamp of the report.
    pub fn broadcast_at(&self) -> SimTime {
        match self {
            ReportPayload::Window(r) => r.broadcast_at,
            ReportPayload::BitSeq(r) => r.broadcast_at,
            ReportPayload::At(r) => r.broadcast_at,
            ReportPayload::Sig(r, _) => r.broadcast_at,
        }
    }

    /// Body size in bits (header added by the message layer).
    pub fn size_bits(&self, p: &SizeParams) -> Bits {
        match self {
            ReportPayload::Window(r) => r.size_bits(p),
            ReportPayload::BitSeq(r) => r.size_bits(p),
            ReportPayload::At(r) => r.size_bits(p),
            ReportPayload::Sig(r, signer) => r.size_bits(signer, p),
        }
    }

    /// `true` for a bit-sequences report (the adaptive-decision metric
    /// "how often did the server fall back to BS" keys off this).
    pub fn is_bitseq(&self) -> bool {
        matches!(self, ReportPayload::BitSeq(_))
    }

    /// `true` for an AAW-enlarged window report.
    pub fn is_enlarged_window(&self) -> bool {
        matches!(self, ReportPayload::Window(w) if w.dummy.is_some())
    }

    /// Does nothing: a report is no longer pre-indexed, its only decoded
    /// form is the invalidation plan (`crate::PlanCache`). Kept only
    /// because the `mobibench` harness still times this call
    /// (`mobibench/src/layers.rs`); it goes when that call goes.
    #[doc(hidden)]
    pub fn prepare(&self) -> Unprepared {
        Unprepared
    }
}

/// What [`ReportPayload::prepare`] returns. Not `Copy`, so the harness's
/// `drop(black_box(report.prepare()))` still builds warning-free.
#[doc(hidden)]
pub struct Unprepared;

#[cfg(test)]
mod tests {
    use super::*;
    use mobicache_model::ItemId;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn p() -> SizeParams {
        SizeParams {
            db_size: 1024,
            group_count: 64,
            timestamp_bits: 48.0,
            header_bits: 64.0,
            control_bytes: 512,
            item_bytes: 8192,
        }
    }

    #[test]
    fn dispatch_matches_inner_types() {
        let w = WindowReport {
            broadcast_at: t(100.0),
            window_start: t(0.0),
            records: vec![(ItemId(1), t(50.0))],
            dummy: None,
        };
        let payload = ReportPayload::Window(w.clone());
        assert_eq!(payload.broadcast_at(), t(100.0));
        assert_eq!(payload.size_bits(&p()), w.size_bits(&p()));
        assert!(!payload.is_bitseq());
        assert!(!payload.is_enlarged_window());
    }

    #[test]
    fn enlarged_window_detection() {
        let w = WindowReport {
            broadcast_at: t(100.0),
            window_start: t(0.0),
            records: vec![],
            dummy: Some(t(10.0)),
        };
        assert!(ReportPayload::Window(w).is_enlarged_window());
    }

    #[test]
    fn bitseq_detection() {
        let bs = BitSequences::from_recency(t(100.0), 16, vec![]);
        let payload = ReportPayload::BitSeq(bs);
        assert!(payload.is_bitseq());
        assert_eq!(payload.broadcast_at(), t(100.0));
    }
}
