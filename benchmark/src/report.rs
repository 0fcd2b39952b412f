//! The result line every run ends with, assembled (and, for the suite
//! driver, read back) by hand — the workspace has no JSON crate.

use crate::metrics::{Better, END_TO_END, PER_LAYER};

/// What one run of one workload reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every job's result matched its independent reference and repeated
    /// bit-identically, no job failed, and (traced) the snapshot validated.
    pub correct: bool,
    /// Jobs submitted (warm-up and measured).
    pub attempted: u64,
    /// Jobs refused, errored, cancelled or panicked.
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    /// The one-line JSON object the driver reads from the last stdout line.
    pub fn to_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                // `{}` prints the shortest digits that round-trip the f64.
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Read a line [`RunResult::to_line`] wrote.  Only that exact shape is
    /// understood; anything else is `None`.
    pub fn parse_line(line: &str) -> Option<RunResult> {
        let field = |key: &str| -> Option<&str> {
            let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
            Some(&rest[..rest.find([',', '}'])?])
        };
        let correct = field("correct")?.parse().ok()?;
        let attempted = field("attempted")?.parse().ok()?;
        let failed = field("failed")?.parse().ok()?;
        let body = &line[line.find("\"metrics\": {")? + 12..];
        let mut metrics = Vec::new();
        for entry in body.split("\"}").filter(|e| e.contains("{\"value\": ")) {
            let entry = entry.trim_start_matches([',', ' ']);
            let name = entry.strip_prefix('"')?.split('"').next()?;
            let value = entry.split("\"value\": ").nth(1)?.split(',').next()?.parse().ok()?;
            let unit = entry.split("\"unit\": \"").nth(1)?;
            metrics.push((name.to_string(), value, unit.to_string()));
        }
        Some(RunResult { correct, attempted, failed, metrics })
    }

    /// The value reported under `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Collects metric values by name and emits them in table order, refusing to
/// finish while a metric of the table is missing or an unknown one was set.
#[derive(Debug, Default)]
pub struct MetricSet(Vec<(&'static str, f64)>);

impl MetricSet {
    /// Record `value` under `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(!self.0.iter().any(|m| m.0 == name), "metric {name} set twice");
        self.0.push((name, value));
    }

    fn take(&self, name: &str) -> f64 {
        self.0.iter().find(|m| m.0 == name).unwrap_or_else(|| panic!("metric {name} not set")).1
    }

    fn ordered<'a>(
        &self,
        table: impl Iterator<Item = (&'a str, &'a str)>,
    ) -> Vec<(String, f64, String)> {
        let rows: Vec<_> = table
            .map(|(name, unit)| (name.to_string(), self.take(name), unit.to_string()))
            .collect();
        assert_eq!(rows.len(), self.0.len(), "a metric outside the table was set");
        rows
    }

    /// Every end-to-end metric, in table order.
    pub fn end_to_end(&self) -> Vec<(String, f64, String)> {
        self.ordered(END_TO_END.iter().map(|m| (m.0, m.1)))
    }

    /// Every per-layer metric, in table order.
    pub fn per_layer(&self) -> Vec<(String, f64, String)> {
        self.ordered(PER_LAYER.iter().map(|m| (m.0, m.1)))
    }
}

/// By what share of `first` the reading `second` is worse (negative when it
/// is better) for a metric improving in direction `better`.
pub fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let result = RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                ("job_latency_p50_ms".into(), 1.2034, "ms".into()),
                ("updates_per_s".into(), 1.5e7, "1/s".into()),
                ("obs.trace_overhead_pct".into(), -0.25, "%".into()),
            ],
        };
        let line = result.to_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "));
        assert!(line.contains("\"job_latency_p50_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}"));
        assert_eq!(RunResult::parse_line(&line), Some(result));
        assert_eq!(RunResult::parse_line("cargo: finished"), None);
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Higher, 10.0, 12.0) < 0.0);
    }
}
