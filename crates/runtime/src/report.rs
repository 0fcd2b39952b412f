//! Reports produced by a run.
//!
//! Every task contributes a [`TaskReport`] (access counters, MMAT size,
//! steps, retries); every rank contributes a [`RankReport`] (communication
//! volume).  The driver assembles them, together with Env/pool statistics,
//! wall-clock time and weaver statistics, into a [`RunReport`] — the single
//! artefact the evaluation harnesses consume.

use crate::comm::CommStats;
use crate::task::{TaskSlot, Topology};
use aohpc_env::{AccessCounters, EnvStats};
use aohpc_mem::PoolStats;
use std::time::Duration;

/// Per-task outcome.
#[derive(Debug, Clone)]
pub struct TaskReport {
    /// Which task this is.
    pub slot: TaskSlot,
    /// Memory-access counters accumulated over the whole run.
    pub counters: AccessCounters,
    /// Number of entries in the MMAT memo at the end of the run.
    pub mmat_entries: usize,
    /// MMAT lookup hits.
    pub mmat_hits: u64,
    /// Completed steps.
    pub steps: u64,
    /// Steps that had to be re-executed because `refresh` failed.
    pub retries: u64,
    /// Approximate working-memory footprint of the task-local access state
    /// (MMAT + missing-page bookkeeping), in bytes.
    pub state_bytes: usize,
}

impl TaskReport {
    /// An empty report for a slot (used by tests and as a building block).
    pub fn empty(slot: TaskSlot) -> Self {
        TaskReport {
            slot,
            counters: AccessCounters::default(),
            mmat_entries: 0,
            mmat_hits: 0,
            steps: 0,
            retries: 0,
            state_bytes: 0,
        }
    }
}

/// Per-rank outcome (communication side).
#[derive(Debug, Clone)]
pub struct RankReport {
    /// Rank index.
    pub rank: usize,
    /// Communication counters.
    pub comm: CommStats,
}

/// A compact, owner-free digest of a [`RunReport`].
///
/// The service layer attaches one of these to every job result: shipping the
/// full `RunReport` (per-task counter vectors, runtime event log) per job
/// would dominate the result queue, while the summary carries exactly the
/// figures the metering, admission and cost paths consume.
///
/// `reads` and `writes` are those of the kernel sweeps the run made
/// (`Initialize` and `Finalize` run on the rank's data-manager context,
/// which files no task report), and `dispatches` grows by three a sweep and
/// task: `steps` + `retries` sweeps on one rank, one more — the warm-up — on
/// several (see [`HpcApp::processing`](crate::HpcApp::processing)).
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Tasks that executed.
    pub tasks: usize,
    /// Ranks that executed.
    pub ranks: usize,
    /// Completed steps of the task that got furthest (the maximum over
    /// tasks; a run is only as done as the minimum).
    pub steps: u64,
    /// Re-executed steps over all tasks.
    pub retries: u64,
    /// Platform reads over all tasks.
    pub reads: u64,
    /// Platform writes over all tasks.
    pub writes: u64,
    /// Pages shipped between ranks.
    pub pages_sent: u64,
    /// Payload bytes shipped between ranks.
    pub bytes_sent: u64,
    /// Join-point dispatches performed.
    pub dispatches: u64,
    /// Wall-clock time of the run.
    pub wall_time: Duration,
}

/// The complete outcome of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Topology the run used.
    pub topology: Topology,
    /// One report per task.
    pub tasks: Vec<TaskReport>,
    /// One report per rank.
    pub ranks: Vec<RankReport>,
    /// Env statistics of rank 0 (per-rank Envs are structurally identical).
    pub env_stats: EnvStats,
    /// Memory-pool statistics of rank 0.
    pub pool_stats: PoolStats,
    /// Wall-clock time of the run.
    pub wall_time: Duration,
    /// Join-point dispatches performed.
    pub dispatches: u64,
    /// Dispatches that had at least one matching advice.
    pub advised_dispatches: u64,
    /// Runtime-control events logged by AspectType I advice (e.g. `mpi:init`,
    /// `omp:spawn`), in order.
    pub runtime_events: Vec<String>,
}

impl RunReport {
    /// An empty report for a topology.
    pub fn empty(topology: Topology) -> Self {
        RunReport {
            topology,
            tasks: Vec::new(),
            ranks: Vec::new(),
            env_stats: EnvStats::default(),
            pool_stats: PoolStats::default(),
            wall_time: Duration::ZERO,
            dispatches: 0,
            advised_dispatches: 0,
            runtime_events: Vec::new(),
        }
    }

    /// Digest the report into a [`RunSummary`].
    pub fn summary(&self) -> RunSummary {
        let counters = self.total_counters();
        RunSummary {
            tasks: self.tasks.len(),
            ranks: self.ranks.len(),
            steps: self.tasks.iter().map(|t| t.steps).max().unwrap_or(0),
            retries: self.total_retries(),
            reads: counters.reads,
            writes: counters.writes,
            pages_sent: self.total_pages_sent(),
            bytes_sent: self.total_bytes_sent(),
            dispatches: self.dispatches,
            wall_time: self.wall_time,
        }
    }

    /// Aggregate access counters over all tasks.
    pub fn total_counters(&self) -> AccessCounters {
        let mut agg = AccessCounters::default();
        for t in &self.tasks {
            agg.merge(&t.counters);
        }
        agg
    }

    /// Total pages shipped between ranks.
    pub fn total_pages_sent(&self) -> u64 {
        self.ranks.iter().map(|r| r.comm.pages_sent).sum()
    }

    /// Total bytes shipped between ranks.
    pub fn total_bytes_sent(&self) -> u64 {
        self.ranks.iter().map(|r| r.comm.bytes_sent).sum()
    }

    /// Total retries (re-executed steps) over all tasks.
    pub fn total_retries(&self) -> u64 {
        self.tasks.iter().map(|t| t.retries).sum()
    }

    /// Working-memory estimate: Env overhead + per-task access state.
    pub fn working_memory_bytes(&self) -> usize {
        self.env_stats.working_bytes + self.tasks.iter().map(|t| t.state_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_helpers() {
        let topo = Topology::hybrid(2, 1);
        let mut report = RunReport::empty(topo.clone());
        let mut t0 = TaskReport::empty(topo.slot(0, 0));
        t0.counters.reads = 10;
        t0.retries = 1;
        t0.state_bytes = 100;
        let mut t1 = TaskReport::empty(topo.slot(1, 0));
        t1.counters.reads = 5;
        t1.counters.writes = 7;
        t1.state_bytes = 50;
        report.tasks = vec![t0, t1];
        report.ranks = vec![
            RankReport {
                rank: 0,
                comm: CommStats { pages_sent: 3, bytes_sent: 24, ..Default::default() },
            },
            RankReport {
                rank: 1,
                comm: CommStats { pages_sent: 2, bytes_sent: 16, ..Default::default() },
            },
        ];
        assert_eq!(report.total_counters().reads, 15);
        assert_eq!(report.total_counters().writes, 7);
        assert_eq!(report.total_pages_sent(), 5);
        assert_eq!(report.total_bytes_sent(), 40);
        assert_eq!(report.total_retries(), 1);
        assert_eq!(report.working_memory_bytes(), 150);
    }

    #[test]
    fn summary_digests_the_report() {
        let topo = Topology::hybrid(2, 1);
        let mut report = RunReport::empty(topo.clone());
        let mut t0 = TaskReport::empty(topo.slot(0, 0));
        t0.counters.reads = 10;
        t0.counters.writes = 4;
        t0.steps = 3;
        let mut t1 = TaskReport::empty(topo.slot(1, 0));
        t1.counters.reads = 6;
        t1.steps = 5;
        t1.retries = 2;
        report.tasks = vec![t0, t1];
        report.ranks = vec![
            RankReport {
                rank: 0,
                comm: CommStats { pages_sent: 3, bytes_sent: 24, ..Default::default() },
            },
            RankReport { rank: 1, comm: CommStats::default() },
        ];
        report.dispatches = 9;
        let s = report.summary();
        assert_eq!(s.tasks, 2);
        assert_eq!(s.ranks, 2);
        assert_eq!(s.steps, 5, "the maximum over tasks of their completed steps");
        assert_eq!(s.retries, 2);
        assert_eq!(s.reads, 16);
        assert_eq!(s.writes, 4);
        assert_eq!(s.pages_sent, 3);
        assert_eq!(s.bytes_sent, 24);
        assert_eq!(s.dispatches, 9);
        assert_eq!(RunReport::empty(Topology::serial()).summary().steps, 0);
    }

    #[test]
    fn empty_report_defaults() {
        let topo = Topology::serial();
        let report = RunReport::empty(topo);
        assert_eq!(report.tasks.len(), 0);
        assert_eq!(report.total_retries(), 0);
        assert_eq!(report.working_memory_bytes(), 0);
        assert_eq!(report.wall_time, Duration::ZERO);
    }
}
