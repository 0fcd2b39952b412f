//! Order statistics and span arithmetic.

/// The `p`-th percentile (`0 < p <= 100`) of `samples` by the nearest-rank
/// rule: the smallest sample with at least `p`% of the samples at or below
/// it.  Panics on an empty slice — a run without samples has no percentile.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median: the mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// The distance between the first and third quartile as a share of the
/// median — the spread the acceptance rule compares with a metric's bound.
/// Quartiles follow Python's `statistics.quantiles(values, n=4)` (exclusive
/// method), which is what the driver computes.
pub fn iqr_share(samples: &[f64]) -> f64 {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    let quantile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    (quantile(3) - quantile(1)) / median(&sorted)
}

/// One recorded interval.  Spans of one job share `trace`; `parent` is the
/// id of the span that caused this one (0 for a root).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the run (1-based).
    pub id: u64,
    /// Id of the causing span, 0 for a root.
    pub parent: u64,
    /// The job (or ledger replay) this span belongs to.
    pub trace: u64,
    /// Layer-qualified name, e.g. `service.execute`.
    pub name: &'static str,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// One JSON-lines record.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            self.id, self.parent, self.trace, self.name, self.start_ns, self.end_ns
        )
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// direct children cover (overlapping children are not counted twice).
pub fn self_time_ns(spans: &[Span], id: u64) -> u64 {
    let Some(span) = spans.iter().find(|s| s.id == id) else { return 0 };
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == id)
        .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
        .filter(|(start, end)| end > start)
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.start_ns;
    for (start, end) in children {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    span.duration_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[3.0], 50.0), 3.0);
        // Order of the input does not matter.
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 50.0), 5.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn iqr_share_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, trace: 1, name: "t", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),  // overlaps span 2 on 20..30
            span(4, 1, 90, 120), // sticks out of the parent: clipped to 90..100
            span(5, 2, 10, 30),  // grandchild: not subtracted from span 1
        ];
        assert_eq!(self_time_ns(&spans, 1), 100 - (20 + 20 + 10));
        assert_eq!(self_time_ns(&spans, 2), 0);
        assert_eq!(self_time_ns(&spans, 3), 30);
        assert_eq!(self_time_ns(&spans, 99), 0);
    }
}
