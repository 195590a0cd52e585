//! The metric catalogue and the one-line JSON result.
//!
//! Every run prints every metric of its kind (end-to-end for untraced
//! runs, per-layer for traced runs) so each workload reports the same
//! keys.  A per-layer metric of a layer a workload never calls reads 0.

use std::collections::BTreeMap;

use crate::stats::{median, spread};

/// End-to-end metrics: `(name, unit)`.  `req_*` is the workload's timed
/// request (one solve on solve-*, one admitted churn batch timed from
/// its due time on serve-churn); `work_per_s` is input nodes solved per
/// second of solve time on solve-* and reader requests answered per
/// second without a write in flight on serve-churn.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
    ("backbone_cost", "cost"),
    ("req_ms_p50", "ms"),
    ("req_ms_p90", "ms"),
    ("work_per_s", "1/s"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.  Layer times are
/// means per traced request (solve-*) or per replayed churn event
/// (serve-churn).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("udg.build_ms", "ms"),
    ("udg.edges", "count"),
    ("mis.ms", "ms"),
    ("mis.dominators", "count"),
    ("connect.ms", "ms"),
    ("connect.connectors", "count"),
    ("prune.ms", "ms"),
    ("prune.input_nodes", "count"),
    ("prune.removed", "count"),
    ("prune.removed_ratio", "ratio"),
    ("verify.ms", "ms"),
    ("fault.phase1_ms", "ms"),
    ("fault.phase2_ms", "ms"),
    ("fault.augment_ms", "ms"),
    ("fault.prune_ms", "ms"),
    ("fault.dominators", "count"),
    ("fault.connectors", "count"),
    ("fault.augment_added", "count"),
    ("fault.prune_removed", "count"),
    ("maintain.apply_ms_p50", "ms"),
    ("maintain.apply_ms_p95", "ms"),
    ("maintain.events", "count"),
    ("maintain.repaired", "count"),
    ("maintain.recomputed", "count"),
    ("maintain.repair_ratio", "ratio"),
    ("maintain.touched_mean", "count"),
    ("serve.read_us_p50", "us"),
    ("serve.read_us_p99", "us"),
    ("serve.read_per_s", "1/s"),
    ("serve.read_us_p50_idle", "us"),
    ("serve.read_us_p50_busy", "us"),
    ("serve.churn_ms_p95", "ms"),
    ("serve.write_overhead_ms_p50", "ms"),
    ("serve.ticks", "count"),
    ("serve.admitted", "count"),
    ("serve.rejected", "count"),
    ("loadgen.late_ms_p95", "ms"),
    ("loadgen.writes", "count"),
    ("loadgen.reads", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("samples", "count"),
];

/// The outcome of one run: counts, failure messages and metric values.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failures: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records one attempted operation and, if it failed, why.
    pub fn attempt(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failures.push(msg);
        }
    }

    /// Records a failure that is not tied to one operation (for
    /// example a final-state mismatch).
    pub fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    /// Sets a metric; the name must be in one of the catalogues.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Share of attempted operations that succeeded.
    pub fn ok_frac(&self) -> f64 {
        1.0 - self.failures.len() as f64 / self.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.attempted > 0
    }

    /// The result line: every metric of `catalogue` in catalogue order.
    pub fn json(&self, catalogue: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = self.values.get(name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#)
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct(),
            self.attempted.max(1),
            self.failures.len(),
            metrics.join(",")
        )
    }
}

/// `setup_s` from one run's set-up times: their median.  Their spread
/// goes to stderr, to show how steady set-up was within the run.
pub fn setup_s(times: &[f64]) -> f64 {
    let med = median(times).expect("at least one set-up");
    let spread = spread(times).unwrap_or(0.0);
    eprintln!(
        "{} set-ups: median {med:.4} s, (q3 - q1) / median {spread:.3}",
        times.len()
    );
    med
}

/// Peak resident set size of process `pid` (`"self"` for this one) in
/// MiB, from `VmHWM` in `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_serve::json::Value;

    #[test]
    fn result_line_lists_every_metric_of_the_catalogue() {
        let mut r = Report::default();
        r.attempt(Ok(()));
        r.set("setup_s", 0.25);
        let doc = Value::parse(&r.json(END_TO_END)).expect("valid JSON");
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(doc.get("failed").and_then(Value::as_u64), Some(0));
        let metrics = doc.get("metrics").expect("metrics");
        for &(name, unit) in END_TO_END {
            let m = metrics.get(name).expect(name);
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit));
        }
        let setup = metrics.get("setup_s").and_then(|m| m.get("value"));
        assert_eq!(setup.and_then(Value::as_f64), Some(0.25));
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.attempt(Ok(()));
        r.attempt(Err("bad".into()));
        let doc = Value::parse(&r.json(PER_LAYER)).expect("valid JSON");
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(false));
        assert_eq!(doc.get("attempted").and_then(Value::as_u64), Some(2));
        assert_eq!(doc.get("failed").and_then(Value::as_u64), Some(1));
    }

    /// The catalogues and the repository's BENCHMARK.json must agree on
    /// names, units and order.
    #[test]
    fn catalogues_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Value::parse(text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Value::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = catalogue
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
    }
}
