//! ASCII chart rendering for figure results.
//!
//! Renders each figure as the paper renders it — one curve per scheme —
//! in a fixed-size terminal grid, plus a tabular view with the exact
//! numbers (the paper's gnuplot figures become our tables + charts).

use crate::spec::FigureResult;
use std::fmt::Write as _;

const WIDTH: usize = 72;
const HEIGHT: usize = 20;
const GLYPHS: [char; 7] = ['*', '+', 'x', 'o', '#', '@', '%'];

/// Renders the figure as an ASCII chart with a legend.
pub fn render(fig: &FigureResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} ({}) ==", fig.title, fig.paper_ref);

    let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut ymin, mut ymax) = (f64::INFINITY, f64::NEG_INFINITY);
    for s in &fig.series {
        for p in &s.points {
            xmin = xmin.min(p.x);
            xmax = xmax.max(p.x);
            ymin = ymin.min(p.y);
            ymax = ymax.max(p.y);
        }
    }
    if !xmin.is_finite() || !ymin.is_finite() {
        let _ = writeln!(out, "(no data)");
        return out;
    }
    // Give the Y axis a little headroom and keep zero visible when close.
    if ymin > 0.0 && ymin < 0.25 * ymax {
        ymin = 0.0;
    }
    if (ymax - ymin).abs() < f64::EPSILON {
        ymax = ymin + 1.0;
    }
    if (xmax - xmin).abs() < f64::EPSILON {
        xmax = xmin + 1.0;
    }

    let mut grid = vec![vec![' '; WIDTH]; HEIGHT];
    for (si, s) in fig.series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for p in &s.points {
            let cx = ((p.x - xmin) / (xmax - xmin) * (WIDTH - 1) as f64).round() as usize;
            let cy = ((p.y - ymin) / (ymax - ymin) * (HEIGHT - 1) as f64).round() as usize;
            let row = HEIGHT - 1 - cy.min(HEIGHT - 1);
            let col = cx.min(WIDTH - 1);
            // Later series overwrite — acceptable for a terminal sketch.
            grid[row][col] = glyph;
        }
    }

    let _ = writeln!(out, "{:>12} |", format_val(ymax));
    for (i, row) in grid.iter().enumerate() {
        let label = if i == HEIGHT - 1 {
            format_val(ymin)
        } else {
            String::new()
        };
        let line: String = row.iter().collect();
        let _ = writeln!(out, "{label:>12} |{line}");
    }
    let _ = writeln!(out, "{:>13}{}", "+", "-".repeat(WIDTH));
    let _ = writeln!(
        out,
        "{:>13}{:<36}{:>36}",
        "",
        format_val(xmin),
        format_val(xmax)
    );
    let _ = writeln!(out, "{:>14}x: {}   y: {}", "", fig.x_label, fig.y_label);
    for (si, s) in fig.series.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>14}{} = {}",
            "",
            GLYPHS[si % GLYPHS.len()],
            s.scheme.label()
        );
    }
    out
}

/// Renders the figure as an aligned data table (x in rows, one column
/// per scheme) — the numbers behind the chart.
pub fn render_table(fig: &FigureResult) -> String {
    let mut out = String::new();
    let _ = write!(out, "{:>14}", fig.x_label_short());
    for s in &fig.series {
        let _ = write!(out, "{:>14}", s.scheme.short());
    }
    let _ = writeln!(out);
    let n = fig.series.first().map_or(0, |s| s.points.len());
    for i in 0..n {
        let x = fig.series[0].points[i].x;
        let _ = write!(out, "{:>14}", format_val(x));
        for s in &fig.series {
            let _ = write!(out, "{:>14}", format_val(s.points[i].y));
        }
        let _ = writeln!(out);
    }
    out
}

impl FigureResult {
    fn x_label_short(&self) -> String {
        let mut label: String = self.x_label.chars().take(13).collect();
        if label.len() < self.x_label.len() {
            label.push('…');
        }
        label
    }
}

fn format_val(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 10_000.0 {
        format!("{:.0}", v)
    } else if v.abs() >= 10.0 {
        format!("{:.1}", v)
    } else {
        format!("{:.3}", v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PointResult, SeriesResult};
    use mobicache::Metrics;
    use mobicache_model::Scheme;

    fn fig() -> FigureResult {
        let mk = |x: f64, y: f64| PointResult {
            x,
            y,
            y_stderr: 0.0,
            replications: 1,
            wall_secs: 0.0,
            metrics: Metrics::default(),
        };
        FigureResult {
            id: "t".into(),
            paper_ref: "Figure 0".into(),
            title: "test figure".into(),
            x_label: "X".into(),
            y_label: "Y".into(),
            series: vec![
                SeriesResult {
                    scheme: Scheme::Aaw,
                    points: vec![mk(1.0, 10.0), mk(2.0, 20.0)],
                },
                SeriesResult {
                    scheme: Scheme::Bs,
                    points: vec![mk(1.0, 5.0), mk(2.0, 2.0)],
                },
            ],
            wall_secs: 0.1,
        }
    }

    #[test]
    fn chart_contains_legend_and_axes() {
        let s = render(&fig());
        assert!(s.contains("test figure"));
        assert!(s.contains("adaptive with adjusting window"));
        assert!(s.contains("bit sequences"));
        assert!(s.contains("x: X"));
    }

    #[test]
    fn table_lists_every_point() {
        let t = render_table(&fig());
        assert!(t.contains("aaw"));
        assert!(t.contains("bs"));
        assert!(t.contains("10.0"));
        assert!(t.contains("2.000"));
        assert_eq!(t.lines().count(), 3); // header + 2 rows
    }

    #[test]
    fn empty_figure_does_not_panic() {
        let empty = FigureResult {
            series: vec![],
            ..fig()
        };
        assert!(render(&empty).contains("no data"));
    }
}
