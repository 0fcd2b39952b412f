//! The platform facade: pick an execution mode, weave the matching aspect
//! modules, run an application, and get back a uniform report.

use aohpc_aop::{WeaveReport, Weaver, WovenProgram};
use aohpc_dsl::DslSystem;
use aohpc_env::{Cell, Env};
use aohpc_runtime::{
    execute, CostModel, HpcApp, LayerSpec, MpiAspect, OmpAspect, RunConfig, RunReport, TaskSlot,
    Topology, WeaveMode,
};
use std::sync::Arc;

/// The build/run configurations evaluated in the paper's Fig. 6 and beyond.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// "Platform": the application linked against the platform libraries and
    /// compiled directly (no weaving at all).
    PlatformDirect,
    /// "Platform NOP": transcompiled through the weaver with no aspect
    /// modules — measures the pure dispatch overhead.
    PlatformNop,
    /// "Platform OMP": woven with the shared-memory (OpenMP-like) module.
    PlatformOmp {
        /// Number of shared-memory tasks.
        threads: usize,
    },
    /// "Platform MPI": woven with the distributed-memory (MPI-like) module.
    PlatformMpi {
        /// Number of ranks.
        ranks: usize,
    },
    /// "Platform MPI+OMP": both modules woven together.
    PlatformHybrid {
        /// Number of ranks.
        ranks: usize,
        /// Shared-memory tasks per rank.
        threads: usize,
    },
}

impl ExecutionMode {
    /// The topology implied by the mode.
    pub fn topology(&self) -> Topology {
        match *self {
            ExecutionMode::PlatformDirect | ExecutionMode::PlatformNop => Topology::serial(),
            ExecutionMode::PlatformOmp { threads } => {
                Topology::new(vec![LayerSpec::shared(threads)])
            }
            ExecutionMode::PlatformMpi { ranks } => {
                Topology::new(vec![LayerSpec::distributed(ranks)])
            }
            ExecutionMode::PlatformHybrid { ranks, threads } => Topology::hybrid(ranks, threads),
        }
    }

    /// Whether join points are dispatched through the weaver.
    pub fn weave_mode(&self) -> WeaveMode {
        match self {
            ExecutionMode::PlatformDirect => WeaveMode::Direct,
            _ => WeaveMode::Woven,
        }
    }

    /// Build the woven program for this mode (which aspect modules are
    /// "selected for the target system", §III-B4).
    pub fn weave<C: Cell>(&self) -> WovenProgram {
        let mut weaver = Weaver::new();
        match self {
            ExecutionMode::PlatformDirect | ExecutionMode::PlatformNop => {}
            ExecutionMode::PlatformOmp { .. } => {
                weaver.add_aspect(Box::new(OmpAspect::<C>::new()));
            }
            ExecutionMode::PlatformMpi { .. } => {
                weaver.add_aspect(Box::new(MpiAspect::<C>::new()));
            }
            ExecutionMode::PlatformHybrid { .. } => {
                weaver.add_aspect(Box::new(MpiAspect::<C>::new()));
                weaver.add_aspect(Box::new(OmpAspect::<C>::new()));
            }
        }
        weaver.weave()
    }

    /// The label used in the paper's figures.
    pub fn label(&self) -> String {
        match self {
            ExecutionMode::PlatformDirect => "Platform".to_string(),
            ExecutionMode::PlatformNop => "Platform NOP".to_string(),
            ExecutionMode::PlatformOmp { .. } => "Platform OMP".to_string(),
            ExecutionMode::PlatformMpi { .. } => "Platform MPI".to_string(),
            ExecutionMode::PlatformHybrid { .. } => "Platform MPI+OMP".to_string(),
        }
    }

    /// Total number of tasks the mode creates.
    pub fn total_tasks(&self) -> usize {
        self.topology().total_tasks()
    }
}

/// Outcome of a platform run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The runtime's detailed report (per-task counters, communication,
    /// memory, wall time).
    pub report: RunReport,
    /// Simulated execution time from the cost model (what the scaling
    /// figures print: ranks are threads of one process here, so wall time
    /// would not show the modelled interconnect).
    pub simulated_seconds: f64,
    /// Which aspects advised which join points.
    pub weave: WeaveReport,
    /// The mode that produced this outcome.
    pub mode: ExecutionMode,
    /// Whether MMAT was enabled.
    pub mmat: bool,
}

/// The platform facade.
#[derive(Debug, Clone)]
pub struct Platform {
    mode: ExecutionMode,
    mmat: bool,
    dry_run: bool,
    cost: CostModel,
}

impl Platform {
    /// A platform for the given execution mode with the default cost model,
    /// MMAT disabled and Dry-run enabled (the paper's defaults).
    pub fn new(mode: ExecutionMode) -> Self {
        Platform { mode, mmat: false, dry_run: true, cost: CostModel::default() }
    }

    /// Enable or disable MMAT (Memorization of Memory Access Type).
    pub fn with_mmat(mut self, mmat: bool) -> Self {
        self.mmat = mmat;
        self
    }

    /// Enable or disable the Dry-run prefetch of the distributed layer.  Only
    /// a mode with more than one rank reads it — and only such a mode makes
    /// the warm-up (dry-run) kernel pass at all; a single-rank mode sweeps
    /// `steps` times, so its counters and simulated time are one sweep short
    /// of a multi-rank run's.
    pub fn with_dry_run(mut self, dry_run: bool) -> Self {
        self.dry_run = dry_run;
        self
    }

    /// The execution mode.
    pub fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Run an application given explicit Env and app factories (the Env
    /// factory is handed the app's frame, see `runtime::execute`).
    pub fn run<C, A>(
        &self,
        env_factory: Arc<dyn Fn(usize) -> Env<C> + Send + Sync>,
        app_factory: Arc<dyn Fn(TaskSlot) -> A + Send + Sync>,
    ) -> RunOutcome
    where
        C: Cell,
        A: HpcApp<C> + 'static,
    {
        let woven = self.mode.weave::<C>();
        let weave = woven.report();
        let config = RunConfig::serial()
            .with_topology(self.mode.topology())
            .with_mmat(self.mmat)
            .with_dry_run(self.dry_run)
            .with_weave_mode(self.mode.weave_mode());
        let report = execute(&config, woven, env_factory, app_factory);
        let simulated_seconds = self.cost.makespan_seconds(&report);
        RunOutcome { report, simulated_seconds, weave, mode: self.mode, mmat: self.mmat }
    }

    /// Run an application on a DSL processing system.
    pub fn run_system<S, A>(
        &self,
        system: Arc<S>,
        app_factory: Arc<dyn Fn(TaskSlot) -> A + Send + Sync>,
    ) -> RunOutcome
    where
        S: DslSystem + 'static,
        A: HpcApp<S::Cell> + 'static,
    {
        self.run(system.env_factory(), app_factory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aohpc_dsl::{SGridJacobiApp, SGridSystem};
    use aohpc_workloads::RegionSize;

    fn small_system() -> (Arc<SGridSystem>, SGridJacobiApp) {
        let system = Arc::new(SGridSystem::with_block_size(RegionSize::square(32), 8));
        let app = SGridJacobiApp::new(3, 8);
        (system, app)
    }

    #[test]
    fn mode_metadata() {
        assert_eq!(ExecutionMode::PlatformDirect.label(), "Platform");
        assert_eq!(ExecutionMode::PlatformNop.label(), "Platform NOP");
        assert_eq!(ExecutionMode::PlatformMpi { ranks: 4 }.total_tasks(), 4);
        assert_eq!(ExecutionMode::PlatformHybrid { ranks: 2, threads: 8 }.total_tasks(), 16);
        assert_eq!(ExecutionMode::PlatformDirect.weave_mode(), WeaveMode::Direct);
        assert_eq!(ExecutionMode::PlatformNop.weave_mode(), WeaveMode::Woven);
        assert_eq!(ExecutionMode::PlatformOmp { threads: 2 }.topology().threads_per_rank(), 2);
    }

    #[test]
    fn nop_weave_has_no_advice_but_dispatches() {
        let (system, app) = small_system();
        let outcome = Platform::new(ExecutionMode::PlatformNop).run_system(system, app.factory());
        assert!(outcome.report.dispatches > 0);
        assert_eq!(outcome.report.advised_dispatches, 0);
        assert!(outcome.weave.lines.is_empty());
    }

    #[test]
    fn direct_mode_never_touches_the_weaver() {
        let (system, app) = small_system();
        let outcome =
            Platform::new(ExecutionMode::PlatformDirect).run_system(system, app.factory());
        assert_eq!(outcome.report.dispatches, 0);
        assert_eq!(outcome.report.tasks.len(), 1);
    }

    #[test]
    fn every_parallel_mode_completes_all_steps() {
        for mode in [
            ExecutionMode::PlatformOmp { threads: 2 },
            ExecutionMode::PlatformMpi { ranks: 2 },
            ExecutionMode::PlatformHybrid { ranks: 2, threads: 2 },
        ] {
            let (system, app) = small_system();
            let outcome = Platform::new(mode).with_mmat(true).run_system(system, app.factory());
            assert_eq!(outcome.report.tasks.len(), mode.total_tasks(), "{}", mode.label());
            assert!(outcome.report.tasks.iter().all(|t| t.steps == 3));
            assert!(outcome.simulated_seconds > 0.0);
            assert!(!outcome.weave.lines.is_empty());
        }
    }

    #[test]
    fn mpi_mode_communicates_pages() {
        let (system, app) = small_system();
        let outcome = Platform::new(ExecutionMode::PlatformMpi { ranks: 4 })
            .run_system(system, app.factory());
        assert!(outcome.report.total_pages_sent() > 0);
        assert_eq!(outcome.report.ranks.len(), 4);
    }

    #[test]
    fn simulated_time_shrinks_with_more_ranks() {
        let (system1, app1) = small_system();
        let one = Platform::new(ExecutionMode::PlatformMpi { ranks: 1 })
            .run_system(system1, app1.factory());
        let (system4, app4) = small_system();
        let four = Platform::new(ExecutionMode::PlatformMpi { ranks: 4 })
            .run_system(system4, app4.factory());
        assert!(
            four.simulated_seconds < one.simulated_seconds,
            "strong scaling: {} !< {}",
            four.simulated_seconds,
            one.simulated_seconds
        );
    }
}
