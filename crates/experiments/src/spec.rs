//! Experiment specifications and results.

use mobicache::Metrics;
use mobicache_model::{Scheme, SimConfig};

/// Which metric a figure plots on its Y axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// "No. of Queries Answered" (Figures 5, 7, 9, 11, 13, 15, 16).
    QueriesAnswered,
    /// "Uplink Communication Cost Per Query (bits/query)"
    /// (Figures 6, 8, 10, 12, 14).
    ValidityBitsPerQuery,
    /// Cache hit ratio (ablations).
    HitRatio,
    /// Mean query latency in seconds (ablations).
    MeanLatencySecs,
    /// Invalidation-report downlink bits (ablations).
    ReportDownlinkBits,
    /// Client energy per answered query (extension; §1's power-efficiency
    /// motivation).
    EnergyPerQuery,
    /// Total uplink traffic in bits — every client transmission: queries,
    /// Tlbs, validity checks and retries (extension; the handoff sweep's
    /// cost axis, where roamer re-announcements dominate).
    UplinkTotalBits,
}

impl MetricKind {
    /// Pulls the metric out of a run's results.
    pub fn extract(self, m: &Metrics) -> f64 {
        match self {
            MetricKind::QueriesAnswered => m.queries_answered as f64,
            MetricKind::ValidityBitsPerQuery => m.uplink_validity_bits_per_query,
            MetricKind::HitRatio => m.hit_ratio,
            MetricKind::MeanLatencySecs => m.mean_query_latency_secs,
            MetricKind::ReportDownlinkBits => m.downlink_report_bits,
            MetricKind::EnergyPerQuery => m.energy_per_query,
            MetricKind::UplinkTotalBits => m.uplink_total_bits,
        }
    }

    /// Axis label as it appears in the paper.
    pub fn label(self) -> &'static str {
        match self {
            MetricKind::QueriesAnswered => "No. of Queries Answered",
            MetricKind::ValidityBitsPerQuery => "Uplink Communication Cost Per Query (bits/query)",
            MetricKind::HitRatio => "Cache Hit Ratio",
            MetricKind::MeanLatencySecs => "Mean Query Latency (s)",
            MetricKind::ReportDownlinkBits => "Invalidation Report Downlink (bits)",
            MetricKind::EnergyPerQuery => "Client Energy Per Query (units)",
            MetricKind::UplinkTotalBits => "Total Uplink Traffic (bits)",
        }
    }
}

/// A declarative experiment: sweep `points`, one series per scheme.
#[derive(Clone, Debug)]
pub struct FigureSpec {
    /// Short id (`fig05`, `abl-window`, …) used for CSV filenames and
    /// bench names.
    pub id: &'static str,
    /// The paper artefact this reproduces (`Figure 5`) or `extension`.
    pub paper_ref: &'static str,
    /// Human title.
    pub title: &'static str,
    /// X-axis label.
    pub x_label: &'static str,
    /// Y-axis metric.
    pub metric: MetricKind,
    /// One series per scheme, in legend order.
    pub schemes: Vec<Scheme>,
    /// `(x value, base config)` — the runner stamps each scheme into the
    /// config.
    pub points: Vec<(f64, SimConfig)>,
    /// The qualitative shape the paper shows (recorded in
    /// EXPERIMENTS.md next to our measurements).
    pub expected_shape: &'static str,
}

/// One simulated point of one series.
#[derive(Clone, Debug)]
pub struct PointResult {
    /// X value.
    pub x: f64,
    /// Extracted Y value — the mean over replications when
    /// [`RunScale::replications`](crate::RunScale) > 1.
    pub y: f64,
    /// Standard error of `y` over replications (0 for a single run).
    pub y_stderr: f64,
    /// Number of replications aggregated.
    pub replications: u32,
    /// Wall-clock seconds this job took (all replications).
    pub wall_secs: f64,
    /// The full metrics of the first replication.
    pub metrics: Metrics,
}

/// One scheme's curve.
#[derive(Clone, Debug)]
pub struct SeriesResult {
    /// The scheme.
    pub scheme: Scheme,
    /// Points in X order.
    pub points: Vec<PointResult>,
}

/// A fully executed figure.
#[derive(Clone, Debug)]
pub struct FigureResult {
    /// Spec id.
    pub id: String,
    /// Paper reference.
    pub paper_ref: String,
    /// Title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// One curve per scheme.
    pub series: Vec<SeriesResult>,
    /// Wall-clock seconds spent simulating.
    pub wall_secs: f64,
}

impl FigureResult {
    /// The series for `scheme`, if present.
    pub fn series_for(&self, scheme: Scheme) -> Option<&SeriesResult> {
        self.series.iter().find(|s| s.scheme == scheme)
    }

    /// Y values of a scheme's curve, in X order.
    pub fn curve(&self, scheme: Scheme) -> Vec<f64> {
        self.series_for(scheme)
            .map(|s| s.points.iter().map(|p| p.y).collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_extraction() {
        let m = Metrics {
            queries_answered: 42,
            uplink_validity_bits_per_query: 7.5,
            hit_ratio: 0.25,
            mean_query_latency_secs: 3.0,
            downlink_report_bits: 99.0,
            uplink_total_bits: 123.0,
            ..Metrics::default()
        };
        assert_eq!(MetricKind::QueriesAnswered.extract(&m), 42.0);
        assert_eq!(MetricKind::ValidityBitsPerQuery.extract(&m), 7.5);
        assert_eq!(MetricKind::HitRatio.extract(&m), 0.25);
        assert_eq!(MetricKind::MeanLatencySecs.extract(&m), 3.0);
        assert_eq!(MetricKind::ReportDownlinkBits.extract(&m), 99.0);
        assert_eq!(MetricKind::UplinkTotalBits.extract(&m), 123.0);
    }

    #[test]
    fn labels_match_paper_axes() {
        assert_eq!(
            MetricKind::QueriesAnswered.label(),
            "No. of Queries Answered"
        );
        assert!(MetricKind::ValidityBitsPerQuery
            .label()
            .contains("bits/query"));
    }
}
