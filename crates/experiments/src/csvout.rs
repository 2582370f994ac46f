//! CSV serialization of figure results (hand-rolled; the offline crate
//! set has no `csv`, and the format is trivial).

use crate::spec::FigureResult;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// One row per `(scheme, point)` with the headline metrics unpacked —
/// stable columns for downstream plotting.
pub fn to_csv(fig: &FigureResult) -> String {
    let mut out = String::from(
        "figure,scheme,x,y,y_stderr,replications,queries_answered,\
         uplink_validity_bits_per_query,hit_ratio,\
         mean_latency_secs,downlink_utilization,uplink_utilization,downlink_report_bits,\
         bs_reports,enlarged_reports,tlbs_sent,checks_sent,full_drops,salvaged\n",
    );
    for s in &fig.series {
        for p in &s.points {
            let m = &p.metrics;
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                fig.id,
                s.scheme.short(),
                p.x,
                p.y,
                p.y_stderr,
                p.replications,
                m.queries_answered,
                m.uplink_validity_bits_per_query,
                m.hit_ratio,
                m.mean_query_latency_secs,
                m.downlink_utilization,
                m.uplink_utilization,
                m.downlink_report_bits,
                m.server.bs_reports,
                m.server.enlarged_reports,
                m.clients.tlbs_sent,
                m.clients.checks_sent,
                m.clients.full_drops,
                m.clients.salvaged,
            );
        }
    }
    out
}

/// Writes the figure's CSV into `dir/<figure id>.csv`.
///
/// # Errors
/// Propagates filesystem errors.
pub fn write_csv(fig: &FigureResult, dir: &Path) -> io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.csv", fig.id));
    std::fs::write(&path, to_csv(fig))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PointResult, SeriesResult};
    use mobicache::Metrics;
    use mobicache_model::Scheme;

    fn fig() -> FigureResult {
        FigureResult {
            id: "figtest".into(),
            paper_ref: "Figure 0".into(),
            title: "t".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![SeriesResult {
                scheme: Scheme::Afw,
                points: vec![PointResult {
                    x: 3.0,
                    y: 4.0,
                    y_stderr: 0.5,
                    replications: 2,
                    wall_secs: 0.0,
                    metrics: Metrics {
                        queries_answered: 7,
                        ..Metrics::default()
                    },
                }],
            }],
            wall_secs: 0.0,
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = to_csv(&fig());
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("figure,scheme,x,y,"));
        let row = lines.next().unwrap();
        assert!(row.starts_with("figtest,afw,3,4,0.5,2,7,"));
        assert_eq!(
            header.split(',').count(),
            row.split(',').count(),
            "column count mismatch"
        );
    }

    #[test]
    fn csv_roundtrips_to_disk() {
        let dir = std::env::temp_dir().join("mobicache-csv-test");
        let path = write_csv(&fig(), &dir).expect("writable temp dir");
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, to_csv(&fig()));
        let _ = std::fs::remove_file(path);
    }
}
