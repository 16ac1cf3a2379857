//! What one run reports: correctness counts, metrics with units, and the
//! human-readable lines printed before the final JSON object.

use std::fmt::Write as _;
use std::time::Duration;

use crate::summary::{scale, Summary};

/// End-to-end metrics (`--trace 0`), in `BENCHMARK.json` order. Every
/// workload reports each of them; `README.md` maps each to the operation it
/// times on each workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("primary_p50_ms", "ms"),
    ("primary_tail_ms", "ms"),
    ("secondary_p50_ms", "ms"),
    ("secondary_tail_ms", "ms"),
];

/// Correctness counts, metrics and narrative of one run.
#[derive(Default)]
pub struct Report {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    failures: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    lines: Vec<String>,
}

impl Report {
    /// Counts one attempted operation or check; a failure also records the
    /// message (the first few are printed).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Records a metric value.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Adds a human-readable line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Prints the narrative line of a timing, under its workload-specific
    /// name, and returns its summary.
    pub fn timing(&mut self, name: &str, unit: &str, samples: &[Duration]) -> Option<Summary> {
        let summary = Summary::of(samples);
        match &summary {
            Some(s) => self.line(format!("{name:<24} {}", s.describe(unit))),
            None => self.line(format!("{name:<24} no samples")),
        }
        summary
    }

    /// Records the contract metrics `<role>_p50_ms` and `<role>_tail_ms`
    /// from a summary, naming the workload metric they stand for.
    /// `reference` says whether its samples are reference times (see
    /// `calib`) or raw ones; it only labels the narrative line.
    pub fn role(&mut self, role: &str, alias: &str, summary: Option<Summary>, reference: bool) {
        let (p50, tail) = match summary {
            Some(s) => (scale(s.p50, "ms"), s.tail.map_or(f64::NAN, |(_, v)| scale(v, "ms"))),
            None => (f64::NAN, f64::NAN),
        };
        let unit = if reference { "reference ms" } else { "ms" };
        self.metric(format!("{role}_p50_ms"), p50, "ms");
        self.metric(format!("{role}_tail_ms"), tail, "ms");
        let tail_at =
            summary.and_then(|s| s.tail).map_or(String::new(), |(p, _)| format!(" (p{p})"));
        self.line(format!(
            "  {role}_p50_ms {p50:.4}, {role}_tail_ms{tail_at} {tail:.4} {unit}: {alias}"
        ));
    }

    /// Value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }

    /// `true` when no check failed and every required metric is a finite
    /// number (a missing tail or an empty sample is a failed run).
    pub fn finish(&mut self, required: &[(&str, &str)]) {
        for (name, _) in required {
            let ok = self.get(name).is_some_and(f64::is_finite);
            self.check(ok, || format!("metric {name} is missing or not a number"));
        }
    }

    /// Human-readable block followed by the final one-line JSON result
    /// carrying exactly the `required` metrics.
    pub fn render(&self, required: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for line in &self.lines {
            let _ = writeln!(out, "{line}");
        }
        for failure in &self.failures {
            let _ = writeln!(out, "FAILED: {failure}");
        }
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "error_rate {rate} ({} failed / {} attempted)",
            self.failed, self.attempted
        );
        let metrics: Vec<String> = required
            .iter()
            .map(|(name, unit)| {
                let value = self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
