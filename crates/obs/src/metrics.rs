//! Metrics: lock-free counters and fixed-bucket histograms.
//!
//! The [`Metrics`] registry unifies the stack's previously isolated stat
//! islands under one roof: queue-wait / resolve / execute latency histograms
//! (the p50/p99 SLO metrics), job outcome counters, worker-pool busy time,
//! and cluster liveness counters.
//!
//! Histograms use 65 fixed power-of-two buckets (value `v` lands in bucket
//! `⌈log2(v+1)⌉`), so recording is an atomic increment with no allocation and
//! quantiles are conservative upper-bound estimates — exactly what an SLO
//! check needs.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

const BUCKETS: usize = 65;

fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros()) as usize
    }
}

fn bucket_upper(index: usize) -> u64 {
    match index {
        0 => 0,
        64 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// Fixed-bucket log2 histogram of `u64` samples (typically nanoseconds).
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample (exact).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Conservative quantile estimate: the upper bound of the bucket holding
    /// the `q`-th sample (`0.0 < q <= 1.0`).  Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_upper(i).min(self.max());
            }
        }
        self.max()
    }

    /// A point-in-time copy of the distribution's summary statistics.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            p50: self.quantile(0.50),
            p99: self.quantile(0.99),
            max: self.max(),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Summary statistics of a [`Histogram`] at one point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Median (bucket upper-bound estimate).
    pub p50: u64,
    /// 99th percentile (bucket upper-bound estimate).
    pub p99: u64,
    /// Exact maximum sample.
    pub max: u64,
}

/// The unified metrics registry installed once per [`crate::ObsHub`].
#[derive(Debug, Default)]
pub struct Metrics {
    /// Jobs that produced a successful report.
    pub jobs_completed: Counter,
    /// Jobs that produced an error report.
    pub jobs_failed: Counter,
    /// Admission-queue wait per job (dequeue time − admit time), nanoseconds.
    pub queue_wait_ns: Histogram,
    /// Plan-resolution phase (cache hit / compile) per job.
    pub resolve_ns: Histogram,
    /// Execute phase per job.
    pub execute_ns: Histogram,
    /// Total nanoseconds workers spent running jobs (utilization numerator).
    pub worker_busy_ns: Counter,
    /// Failure-detector transitions recorded (a rank suspected or declared
    /// dead by some node's membership view).
    pub suspicions: Counter,
    /// Checkpoint-replay failovers: jobs orphaned by a dead node and
    /// re-submitted onto a survivor.
    pub failovers: Counter,
    /// Incarnation-arbitrated revivals: restarted ranks rejoining the mesh
    /// plus suspected-but-alive ranks refuting an accusation.
    pub rejoins: Counter,
    /// Scripted link events (directional cuts and heals) from the fault
    /// harness.
    pub partitions: Counter,
    /// Tapes that qualified for a monomorphic super-instruction kernel at
    /// compile/cache-insert time (`Kernel::specialize`, `ok` = 1).
    pub specializations: Counter,
}

impl Metrics {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_adds() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn quantiles_are_upper_bounds() {
        let h = Histogram::new();
        for v in [10u64, 20, 30, 40, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1100);
        assert_eq!(h.max(), 1000);
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        // Upper-bound property: the estimate is >= the true quantile and
        // within its power-of-two bucket.
        assert!((20..=31).contains(&p50), "p50 estimate {p50}");
        assert!((1000..=1023).contains(&p99), "p99 estimate {p99}");
        assert!(p50 <= p99);
        assert!(p99 <= h.max().next_power_of_two());
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn single_sample_quantiles_clamp_to_max() {
        let h = Histogram::new();
        h.record(7);
        // max() caps the bucket upper bound, so a lone sample reports itself.
        assert_eq!(h.quantile(0.50), 7);
        assert_eq!(h.quantile(0.99), 7);
    }
}
