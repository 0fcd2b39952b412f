//! Deterministic cost model.
//!
//! The paper's scaling experiments (Figs. 7–11) ran on 16 nodes of
//! Oakbridge-CX; this reproduction runs on a single core, so wall-clock time
//! cannot exhibit parallel speed-up.  Instead, the runtime meters every
//! mechanism the paper credits for its results — cell updates, Env searches,
//! MMAT hits, out-of-block accesses, page transfers — during a *functional*
//! run, and this module converts the meters into a simulated execution time:
//!
//! ```text
//! T(run) = max over ranks r of
//!            [ max over tasks t of rank r of  compute(t) * contention(threads)
//!              + comm(r) ]
//! ```
//!
//! The search terms (`t_search_node` × `search_nodes_visited`) charge the
//! searches that *ran*, not the reads that could have needed one, and
//! searches are counted when a plan is resolved, never when it is read (the
//! rule is stated at `Env::resolve_run`).  A halo run (`TaskCtx::get_run`,
//! what a product block routine fills its ring with) is charged its plan's
//! searches once, when the block's first sweep resolves it, and the per-read
//! out-of-block penalty for every cell on every sweep; a Listing-1 kernel
//! (one search per out-of-block `GetD`, unless MMAT memorised it) is charged
//! a search a read.
//!
//! The default parameters are calibrated to the same order of magnitude as
//! the paper's hardware (a ~3 GHz Xeon, a 12.5 GB/s interconnect); only
//! *relative* numbers are reported, exactly as in the paper.

use crate::comm::CommStats;
use crate::report::RunReport;
use aohpc_env::AccessCounters;

/// Unit costs used by the model (seconds).
#[derive(Debug, Clone, Copy)]
pub struct CostParams {
    /// An in-block read through the platform's access path (lock + index).
    pub t_read_in_block: f64,
    /// A read satisfied via the skip-search flag (`GetDD`).
    pub t_read_skip: f64,
    /// A write through the platform's access path.
    pub t_write: f64,
    /// Visiting one node of the Env tree during a search.
    pub t_search_node: f64,
    /// One MMAT memo lookup.
    pub t_mmat_lookup: f64,
    /// Reading an Arithmetic / Static / Reference block.
    pub t_boundary_read: f64,
    /// Extra cost of an out-of-block (remote block) read over an in-block one
    /// (cache locality proxy).
    pub t_out_of_block_penalty: f64,
    /// Latency per message of the distributed layer.
    pub comm_latency: f64,
    /// Transfer cost per byte of the distributed layer (1 / bandwidth).
    pub comm_per_byte: f64,
    /// Fractional slowdown added per extra thread sharing a memory bus
    /// (applied to the memory-access part of the compute time); models the
    /// cache/bandwidth contention behind Fig. 9's CaseR and Fig. 10.
    pub shared_contention_per_thread: f64,
    /// Baseline per-cell arithmetic cost of the handwritten kernels (used to
    /// compare "Handwritten" against the platform in simulated time).
    pub t_cell_arithmetic: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            t_read_in_block: 4.0e-9,
            t_read_skip: 1.5e-9,
            t_write: 4.0e-9,
            t_search_node: 2.5e-8,
            t_mmat_lookup: 6.0e-9,
            t_boundary_read: 8.0e-9,
            t_out_of_block_penalty: 1.2e-8,
            comm_latency: 2.0e-6,
            comm_per_byte: 8.0e-11, // 12.5 GB/s
            shared_contention_per_thread: 0.035,
            t_cell_arithmetic: 1.0e-9,
        }
    }
}

/// The cost model: parameters plus evaluation helpers.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostModel {
    /// Unit costs.
    pub params: CostParams,
}

impl CostModel {
    /// A model with the given parameters.
    pub fn new(params: CostParams) -> Self {
        CostModel { params }
    }

    /// Compute-side cost of one task from its access counters.
    ///
    /// `threads_sharing` is the number of tasks sharing this task's memory
    /// (the shared-memory layer's parallelism): memory-access costs are
    /// inflated by the contention factor.
    pub fn task_compute_seconds(&self, c: &AccessCounters, threads_sharing: usize) -> f64 {
        let p = &self.params;
        let memory = c.in_block_hits as f64 * p.t_read_in_block
            + c.skip_search_hits as f64 * p.t_read_skip
            + c.writes as f64 * p.t_write
            + c.search_nodes_visited as f64 * p.t_search_node
            + (c.mmat_hits + c.mmat_misses) as f64 * p.t_mmat_lookup
            + (c.arithmetic_reads + c.static_reads + c.reference_reads) as f64 * p.t_boundary_read
            + c.out_of_block_reads as f64 * p.t_out_of_block_penalty;
        let arithmetic = c.writes as f64 * p.t_cell_arithmetic;
        let contention =
            1.0 + p.shared_contention_per_thread * (threads_sharing.saturating_sub(1)) as f64;
        memory * contention + arithmetic
    }

    /// Communication-side cost of one rank.
    pub fn rank_comm_seconds(&self, s: &CommStats) -> f64 {
        s.messages_sent as f64 * self.params.comm_latency
            + s.bytes_sent as f64 * self.params.comm_per_byte
    }

    /// Simulated execution time of a whole run: the slowest rank, where a
    /// rank's time is its slowest task plus its communication time.
    pub fn makespan_seconds(&self, report: &RunReport) -> f64 {
        let threads = report.topology.threads_per_rank();
        let mut worst_rank = 0.0f64;
        for rank in &report.ranks {
            let compute = report
                .tasks
                .iter()
                .filter(|t| t.slot.rank == rank.rank)
                .map(|t| self.task_compute_seconds(&t.counters, threads))
                .fold(0.0, f64::max);
            let comm = self.rank_comm_seconds(&rank.comm);
            worst_rank = worst_rank.max(compute + comm);
        }
        worst_rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{RankReport, TaskReport};
    use crate::task::{TaskSlot, Topology};

    fn counters(in_block: u64, searches_nodes: u64, writes: u64) -> AccessCounters {
        AccessCounters {
            reads: in_block,
            in_block_hits: in_block,
            search_nodes_visited: searches_nodes,
            writes,
            ..Default::default()
        }
    }

    #[test]
    fn more_work_costs_more() {
        let m = CostModel::default();
        let small = m.task_compute_seconds(&counters(100, 0, 100), 1);
        let large = m.task_compute_seconds(&counters(1000, 0, 1000), 1);
        assert!(large > small * 5.0);
    }

    #[test]
    fn searches_dominate_when_present() {
        let m = CostModel::default();
        let no_search = m.task_compute_seconds(&counters(1000, 0, 0), 1);
        let with_search = m.task_compute_seconds(&counters(1000, 5000, 0), 1);
        assert!(with_search > no_search * 2.0, "Env searches are the dominant overhead");
    }

    #[test]
    fn contention_inflates_shared_memory_cost() {
        let m = CostModel::default();
        let c = counters(1000, 0, 1000);
        let t1 = m.task_compute_seconds(&c, 1);
        let t16 = m.task_compute_seconds(&c, 16);
        assert!(t16 > t1);
        assert!(t16 < t1 * 2.0, "contention is a moderate effect, not a serialisation");
    }

    #[test]
    fn comm_cost_includes_latency_and_bandwidth() {
        let m = CostModel::default();
        let few_big = CommStats { messages_sent: 2, bytes_sent: 1_000_000, ..Default::default() };
        let many_small = CommStats { messages_sent: 2000, bytes_sent: 1_000, ..Default::default() };
        assert!(m.rank_comm_seconds(&few_big) > 0.0);
        assert!(
            m.rank_comm_seconds(&many_small) > m.rank_comm_seconds(&CommStats::default()),
            "latency term counts messages"
        );
    }

    #[test]
    fn makespan_is_slowest_rank() {
        let m = CostModel::default();
        let topology = Topology::hybrid(2, 1);
        let mk_task = |rank: usize, work: u64| TaskReport {
            slot: TaskSlot { task_id: rank, rank, thread: 0 },
            counters: counters(work, 0, work),
            ..TaskReport::empty(TaskSlot { task_id: rank, rank, thread: 0 })
        };
        let report = RunReport {
            topology: topology.clone(),
            tasks: vec![mk_task(0, 100), mk_task(1, 10_000)],
            ranks: vec![
                RankReport { rank: 0, comm: CommStats::default() },
                RankReport { rank: 1, comm: CommStats::default() },
            ],
            ..RunReport::empty(topology)
        };
        let makespan = m.makespan_seconds(&report);
        let slow = m.task_compute_seconds(&counters(10_000, 0, 10_000), 1);
        assert!((makespan - slow).abs() < 1e-12);
    }
}
