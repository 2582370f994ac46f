//! The metrics the benchmark reports and the result line that carries
//! them. `BENCHMARK.json` at the repository root lists the same names,
//! units and directions; the harness tests hold the two in step.

use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricSpec {
    /// Name in the result line.
    pub name: &'static str,
    /// Unit of its value.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by
    /// which a change may worsen it before it counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the simulator sees: host time and memory at a fixed
/// input size, each the median over the run's rounds. The two times are
/// scaled to the reference host by the kernel of [`crate::host`].
pub const END_TO_END: [MetricSpec; 3] = [
    e2e("events_per_s", "events/s", Higher, 0.2),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.1),
];

/// The traced run's per-layer metrics (see the README's glossary).
pub const PER_LAYER: [MetricSpec; 34] = [
    layer("sim.sched_ns_per_op", "ns", Lower),
    layer("sim.events_delivered", "count", Lower),
    layer("sim.queue_high_water", "count", Lower),
    layer("sim.slot_high_water", "count", Lower),
    layer("sim.cascades", "count", Lower),
    layer("sim.pool_speedup_2t", "ratio", Higher),
    layer("server.apply_txn_us", "us", Lower),
    layer("server.build_report_us", "us", Lower),
    layer("server.report_bits_mean", "bits", Lower),
    layer("server.adaptive_bs_share", "ratio", Lower),
    layer("reports.prepare_us", "us", Lower),
    layer("reports.plan_decode_us", "us", Lower),
    layer("reports.plan_intersect_ns_per_client", "ns", Lower),
    layer("reports.plan_hit_ratio", "ratio", Higher),
    layer("reports.fanout_words_skipped", "count", Higher),
    layer("core.tick_ms.p50", "ms", Lower),
    layer("core.tick_ms.tail", "ms", Lower),
    layer("core.tick_coverage", "ratio", Higher),
    layer("core.trace_overhead", "ratio", Lower),
    layer("client.bytes_per_client", "bytes", Lower),
    layer("client.limbo_salvage_ratio", "ratio", Higher),
    layer("client.full_drops", "count", Lower),
    layer("cache.lru_ns_per_op", "ns", Lower),
    layer("cache.hit_ratio", "ratio", Higher),
    layer("cache.evictions", "count", Lower),
    layer("net.channel_ns_per_msg", "ns", Lower),
    layer("net.downlink_utilization", "ratio", Lower),
    layer("net.preemptions", "count", Lower),
    layer("faults.reports_lost", "count", Lower),
    layer("faults.retries", "count", Lower),
    layer("mobility.handoffs", "count", Lower),
    layer("oracle.overhead", "ratio", Lower),
    layer("replay.explained_share", "ratio", Higher),
    layer("replay.server_reports_share", "ratio", Lower),
];

/// The benchmark's verdict: the last line it prints.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultLine {
    /// Every op succeeded and matched its reference digest.
    pub correct: bool,
    /// Ops launched.
    pub attempted: u64,
    /// Ops that panicked, crashed or produced a wrong digest.
    pub failed: u64,
    /// `(name, unit, value)` in print order.
    pub metrics: Vec<(String, &'static str, f64)>,
}

impl ResultLine {
    /// One-line JSON. Values print with every digit `f64` `Display`
    /// gives; a non-finite value (which the harness never produces)
    /// would print as `null`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}
