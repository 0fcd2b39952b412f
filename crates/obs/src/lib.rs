//! `aohpc-obs`: aspect-woven tracing, metrics, and flight recorder.
//!
//! The paper's pitch is that cross-cutting concerns are *woven* around HPC
//! kernels instead of hand-inserted; this crate applies that to
//! observability.  Nothing in the kernel or runtime calls a tracing API —
//! instead two aspect modules ([`ObsServiceAspect`], [`ObsRunAspect`])
//! register advice at the platform's canonical join points
//! (`Service::execute_spec`, `PlanCache::resolve`, `Kernel::execute_block`,
//! the `Cluster::*` liveness and failover points,
//! `Annotation::Initialize`/`KernelStep`/`Finalize`), and the service weaves
//! them in only when an [`ObsHub`] is installed.  With no hub the weave binds
//! no advice to these join points, so each dispatch finds no chain and runs
//! its body (and a task's block join point is a plain call); `bench_obs`
//! measures what observing costs on top.
//!
//! One [`ObsHub`] bundles the three pillars:
//!
//! - [`TraceRecorder`] — sharded, bounded ring buffers of [`SpanRecord`]s
//!   whose parent edges form job → initialize / superstep → block /
//!   finalize / cache / comm trees; timestamps come from a [`Clock`] so
//!   `FakeClock` tests are deterministic, and the record path is
//!   allocation-free after warmup.
//! - [`Metrics`] — counters plus fixed-bucket [`Histogram`]s for the SLO
//!   surface: queue-wait p50/p99, resolve/execute latency and worker
//!   utilization.
//! - Exporters — [`chrome_trace_json`] (loadable in `chrome://tracing` /
//!   Perfetto), [`json_lines`], and the human-readable, cross-validated
//!   [`ObsSnapshot`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aspect;
pub mod clock;
pub mod export;
pub mod metrics;
pub mod snapshot;
pub mod trace;

pub use aspect::{ObsRunAspect, ObsServiceAspect, OBS_PRECEDENCE};
pub use clock::{Clock, WallClock};
pub use export::{chrome_trace_json, json_lines};
pub use metrics::{Counter, Histogram, HistogramSnapshot, Metrics};
pub use snapshot::{AdmissionCounters, CacheCounters, CommCounters, JobCounters, ObsSnapshot};
pub use trace::{
    current_context, push_context, ContextGuard, OpenSpan, SpanRecord, TraceRecorder,
    DEFAULT_SHARD_CAPACITY,
};

use std::sync::Arc;

/// The installable observability hub: recorder + metrics + clock.
///
/// Create one (usually via [`ObsHub::new`]) and hand it to
/// `KernelService::with_observer` / `ClusterService::with_observer`; every
/// node of a cluster shares the same hub so every node's spans land in one
/// flight recorder.
pub struct ObsHub {
    recorder: TraceRecorder,
    metrics: Metrics,
    clock: Arc<dyn Clock>,
}

impl ObsHub {
    /// Hub on wall time with the default recorder capacity.
    pub fn new() -> Arc<Self> {
        Self::with_clock(Arc::new(WallClock::new()))
    }

    /// Hub on an explicit clock (e.g. a `FakeClock` for deterministic
    /// traces).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Arc<Self> {
        Self::with_clock_and_capacity(clock, DEFAULT_SHARD_CAPACITY)
    }

    /// Hub with an explicit clock and per-shard recorder capacity.
    pub fn with_clock_and_capacity(clock: Arc<dyn Clock>, shard_capacity: usize) -> Arc<Self> {
        Arc::new(ObsHub {
            recorder: TraceRecorder::with_capacity(Arc::clone(&clock), shard_capacity),
            metrics: Metrics::new(),
            clock,
        })
    }

    /// The flight recorder.
    pub fn recorder(&self) -> &TraceRecorder {
        &self.recorder
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The hub's time source.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Current time in nanoseconds.
    pub fn now_nanos(&self) -> u64 {
        self.clock.now_nanos()
    }
}

impl std::fmt::Debug for ObsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsHub").field("recorder", &self.recorder).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aohpc_testalloc::sync::FakeClock;
    use std::time::Duration;

    #[test]
    fn hub_bundles_recorder_metrics_and_clock() {
        let clock = FakeClock::new();
        let hub = ObsHub::with_clock(clock.clone());
        clock.advance(Duration::from_nanos(42));
        assert_eq!(hub.now_nanos(), 42);
        let open = hub.recorder().start("X::y", 1, 0);
        hub.recorder().end(open);
        hub.metrics().jobs_completed.inc();
        assert_eq!(hub.recorder().len(), 1);
        assert_eq!(hub.metrics().jobs_completed.get(), 1);
    }
}
