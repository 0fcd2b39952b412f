//! `ObsSnapshot`: one coherent, validated view across every stat island.
//!
//! The service layers each keep their own counters (`PlanCacheStats`,
//! `CommStats`, admission gauges, job metrics).  [`ObsSnapshot`] mirrors them
//! in plain observability-side types so the obs crate stays decoupled from
//! service internals, and [`ObsSnapshot::validate`] cross-checks the
//! invariants that previously had no single place to live — most importantly
//! the plan-cache ledger `misses == compiles` and the cluster-wide
//! comm send/receive balance.

use crate::metrics::HistogramSnapshot;
use std::fmt;

/// Plan-cache counters (mirror of the service's `PlanCacheStats`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Resolutions served from a resident plan.
    pub hits: u64,
    /// Resolutions that had to compile.
    pub misses: u64,
    /// Plans compiled locally.
    pub compiles: u64,
    /// Plans evicted.
    pub evictions: u64,
    /// Fingerprint collisions detected.
    pub collisions: u64,
    /// Per-family (hits, misses) lanes, in family-id order.
    pub lanes: Vec<(u64, u64)>,
}

/// Communication-plane counters (mirror of the runtime's `CommStats`,
/// aggregated cluster-wide so send/receive balance holds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommCounters {
    /// Messages sent across all endpoints.
    pub messages_sent: u64,
    /// Messages received across all endpoints.
    pub messages_received: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
    /// Control frames sent.
    pub control_sent: u64,
    /// Control frames received.
    pub control_received: u64,
}

/// Admission-queue state and latency distribution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionCounters {
    /// Submitters currently parked on backpressure.
    pub waiting: u64,
    /// Jobs currently queued.
    pub queued: u64,
    /// Queue capacity.
    pub queue_limit: u64,
    /// Queue-wait latency distribution (nanoseconds).
    pub queue_wait: HistogramSnapshot,
}

/// Job-outcome counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobCounters {
    /// Jobs that completed with a successful report.
    pub completed: u64,
    /// Jobs that completed with an error report.
    pub failed: u64,
    /// Total worker-busy nanoseconds.
    pub worker_busy_ns: u64,
}

/// A unified, point-in-time view across cache, comm, admission, and job
/// counters, plus the recorder's retention state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsSnapshot {
    /// Plan-cache counters, when a cache is attached.
    pub cache: Option<CacheCounters>,
    /// Cluster-aggregated comm counters, when a fabric is attached.
    pub comm: Option<CommCounters>,
    /// Admission counters.
    pub admission: AdmissionCounters,
    /// Job counters.
    pub jobs: JobCounters,
    /// Spans currently retained by the recorder.
    pub retained_spans: u64,
    /// Spans dropped by ring-buffer overflow.
    pub dropped_spans: u64,
}

impl ObsSnapshot {
    /// Cross-check every inter-counter invariant; returns one human-readable
    /// violation per broken invariant (empty = consistent).
    ///
    /// Intended to be asserted empty at quiescence (no in-flight jobs).
    pub fn validate(&self) -> Vec<String> {
        let mut violations = Vec::new();
        if let Some(cache) = &self.cache {
            if cache.misses != cache.compiles {
                violations.push(format!(
                    "cache ledger broken: misses {} != compiles {}",
                    cache.misses, cache.compiles
                ));
            }
            let lane_hits: u64 = cache.lanes.iter().map(|(h, _)| h).sum();
            let lane_misses: u64 = cache.lanes.iter().map(|(_, m)| m).sum();
            if !cache.lanes.is_empty() && lane_hits != cache.hits {
                violations.push(format!(
                    "family lanes lost hits: lanes {} != global {}",
                    lane_hits, cache.hits
                ));
            }
            if !cache.lanes.is_empty() && lane_misses != cache.misses {
                violations.push(format!(
                    "family lanes lost misses: lanes {} != global {}",
                    lane_misses, cache.misses
                ));
            }
        }
        if let Some(comm) = &self.comm {
            if comm.messages_sent != comm.messages_received {
                violations.push(format!(
                    "comm message imbalance: sent {} != received {}",
                    comm.messages_sent, comm.messages_received
                ));
            }
            if comm.bytes_sent != comm.bytes_received {
                violations.push(format!(
                    "comm byte imbalance: sent {} != received {}",
                    comm.bytes_sent, comm.bytes_received
                ));
            }
            if comm.control_sent != comm.control_received {
                violations.push(format!(
                    "control frame imbalance: sent {} != received {}",
                    comm.control_sent, comm.control_received
                ));
            }
        }
        let qw = &self.admission.queue_wait;
        if qw.p50 > qw.p99 {
            violations.push(format!("queue-wait p50 {} > p99 {}", qw.p50, qw.p99));
        }
        if qw.p99 > qw.max.next_power_of_two() {
            violations.push(format!("queue-wait p99 {} above max bucket of {}", qw.p99, qw.max));
        }
        if qw.count > 0 && qw.max > qw.sum {
            violations.push(format!("queue-wait max {} exceeds sum {}", qw.max, qw.sum));
        }
        let finished = self.jobs.completed + self.jobs.failed;
        if qw.count != finished {
            violations.push(format!(
                "queue-wait samples {} != finished jobs {} (completed {} + failed {})",
                qw.count, finished, self.jobs.completed, self.jobs.failed
            ));
        }
        violations
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl fmt::Display for ObsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "obs snapshot:")?;
        writeln!(
            f,
            "  jobs: {} completed, {} failed, worker busy {:.3} ms",
            self.jobs.completed,
            self.jobs.failed,
            ms(self.jobs.worker_busy_ns)
        )?;
        let qw = &self.admission.queue_wait;
        writeln!(
            f,
            "  admission: {}/{} queued, {} waiting; queue wait p50 {:.3} ms p99 {:.3} ms (n={})",
            self.admission.queued,
            self.admission.queue_limit,
            self.admission.waiting,
            ms(qw.p50),
            ms(qw.p99),
            qw.count
        )?;
        if let Some(cache) = &self.cache {
            writeln!(
                f,
                "  plan cache: {} hits, {} misses ({} compiles), {} evictions",
                cache.hits, cache.misses, cache.compiles, cache.evictions
            )?;
        }
        if let Some(comm) = &self.comm {
            writeln!(
                f,
                "  comm: {} msgs / {} bytes sent, {} control frames",
                comm.messages_sent, comm.bytes_sent, comm.control_sent
            )?;
        }
        writeln!(
            f,
            "  recorder: {} spans retained, {} dropped",
            self.retained_spans, self.dropped_spans
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn consistent() -> ObsSnapshot {
        ObsSnapshot {
            cache: Some(CacheCounters {
                hits: 5,
                misses: 3,
                compiles: 3,
                evictions: 0,
                collisions: 0,
                lanes: vec![(5, 2), (0, 1), (0, 0)],
            }),
            comm: Some(CommCounters {
                messages_sent: 10,
                messages_received: 10,
                bytes_sent: 400,
                bytes_received: 400,
                control_sent: 4,
                control_received: 4,
            }),
            admission: AdmissionCounters {
                waiting: 0,
                queued: 0,
                queue_limit: 8,
                queue_wait: HistogramSnapshot { count: 8, sum: 800, p50: 63, p99: 255, max: 200 },
            },
            jobs: JobCounters { completed: 7, failed: 1, worker_busy_ns: 12345 },
            retained_spans: 42,
            dropped_spans: 0,
        }
    }

    #[test]
    fn consistent_snapshot_validates_clean() {
        let snap = consistent();
        assert_eq!(snap.validate(), Vec::<String>::new());
        let text = snap.to_string();
        assert!(text.contains("plan cache"));
        assert!(text.contains("7 completed"));
    }

    #[test]
    fn broken_cache_ledger_is_reported() {
        let mut snap = consistent();
        snap.cache.as_mut().unwrap().compiles = 2;
        let violations = snap.validate();
        assert_eq!(violations.len(), 1, "only the ledger breaks: {violations:?}");
        assert!(violations[0].contains("cache ledger broken"));
        // Dropping a lane's misses additionally breaks the lane sum.
        snap.cache.as_mut().unwrap().lanes[1].1 = 0;
        let violations = snap.validate();
        assert_eq!(violations.len(), 2, "ledger + lane mismatch: {violations:?}");
        assert!(violations[1].contains("family lanes lost misses"));
    }

    #[test]
    fn comm_imbalance_is_reported() {
        let mut snap = consistent();
        snap.comm.as_mut().unwrap().messages_received = 9;
        assert!(snap.validate().iter().any(|v| v.contains("message imbalance")));
    }

    #[test]
    fn queue_wait_sample_count_must_match_finished_jobs() {
        let mut snap = consistent();
        snap.jobs.completed = 99;
        assert!(snap.validate().iter().any(|v| v.contains("queue-wait samples")));
    }
}
