//! Canonical join-point names exposed by the platform.
//!
//! These are the names AspectC++ would see for the platform's annotation and
//! memory libraries.  DSL parts and end-user code never introduce new join
//! points (the paper deliberately defines pointcuts only against the platform
//! libraries to avoid accidental matches from generic patterns), so this
//! module is the complete vocabulary that aspect modules can advise.

/// Entry point of the program (`main` of a C++ program in the paper).
///
/// AspectType I advice of the distributed layer (MPI module) brackets this
/// join point with runtime initialisation / finalisation and rank spawning.
pub const MAIN: &str = "Program::main";

/// Execution of the annotation library's `Initialize` virtual function.
pub const INITIALIZE: &str = "Annotation::Initialize";

/// Execution of the annotation library's `Processing` virtual function.
///
/// AspectType I advice of the shared-memory layer (OpenMP module) starts its
/// worker tasks around this join point.
pub const PROCESSING: &str = "Annotation::Processing";

/// Execution of the annotation library's `Finalize` virtual function.
pub const FINALIZE: &str = "Annotation::Finalize";

/// Execution of one kernel step (one sweep over the task's blocks).
///
/// Not advised by the paper's two prototype modules, but exposed so that
/// instrumentation aspects (tracing, cost accounting) can hook it.
pub const KERNEL_STEP: &str = "Annotation::KernelStep";

/// Call of the memory library's `get_blocks` (Env block enumeration).
///
/// AspectType II advice intercepts this to divide the blocks allocated by the
/// upper layer among the tasks of the advising layer.
pub const GET_BLOCKS: &str = "Memory::get_blocks";

/// Call of the memory library's `refresh` (buffer switch + validation).
///
/// AspectType III advice intercepts this to fetch pages recorded as
/// non-existent from the tasks holding the latest data, and to run the
/// Dry-run prefetch plan.
pub const REFRESH: &str = "Memory::refresh";

/// Warm-up invocation (the `WarmUp(Kernel)` macro of Listing 1): the marker
/// ahead of the dry-run kernel pass.
///
/// Dispatched once per task, before step 0, on runs with a distributed layer
/// (more than one rank) — the AspectType III advice at [`REFRESH`] is the
/// dry run's only reader.  A single-rank run has no warm-up pass and never
/// dispatches it, nor a [`KERNEL_STEP`] with the `warmup` attribute set.
pub const WARM_UP: &str = "Annotation::WarmUp";

/// Execution of one job through the service front door (`execute_spec`).
///
/// Advised by the observability layer (`aohpc-obs`) to open a per-job span
/// and meter end-to-end execution time.  Attrs: `trace`, `parent`, `job`,
/// `family`.
pub const SERVICE_EXECUTE: &str = "Service::execute_spec";

/// Execution of one block of kernel work inside a task sweep.
///
/// Dispatched by `TaskCtx::run_block` only when at least one advice matches
/// (so unadvised runs pay nothing).  Attrs: `task_id`, `step`, `block`,
/// `cells`.
pub const KERNEL_BLOCK: &str = "Kernel::execute_block";

/// Call of the kernel compiler's shape-specialization matcher: a freshly
/// lowered tape either qualified for a monomorphic super-instruction kernel
/// or stayed on the generic interpreter.
///
/// Dispatched at compile/cache-insert time (not per block), so it is cheap
/// enough to observe unconditionally.  Attrs: `family`, `ok` (1 = a
/// specialized kernel was instantiated, 0 = generic).
pub const KERNEL_SPECIALIZE: &str = "Kernel::specialize";

/// Call of the plan cache's `resolve` (hit / cluster-fetch / compile chain).
///
/// The body publishes the resolution origin back through the `origin` attr so
/// around advice can record which lane served the plan.  Attrs: `trace`,
/// `parent`, `family`, `origin` (set by the body).
pub const CACHE_RESOLVE: &str = "PlanCache::resolve";

/// Call of a cross-node plan fetch (`PLAN_REQ` round-trip, requester side).
///
/// Attrs: `trace`, `parent`, `node`, `ok` (set by the body: 1 = plan
/// received, 0 = declined / timed out).
pub const CLUSTER_PLAN_REQ: &str = "Cluster::plan_req";

/// Execution of a plan-request service (`PLAN_REP` production, owner side).
///
/// Attrs: `node`, `ok`.
pub const CLUSTER_PLAN_REP: &str = "Cluster::plan_rep";

/// Call of a failure-detector state transition: a rank was suspected or
/// declared dead by the local membership view.
///
/// Attrs: `node` (the subject rank), `ok` (1 = suspect, 0 = dead), `rank`
/// (the detecting rank).
pub const CLUSTER_SUSPECT: &str = "Cluster::suspect";

/// Execution of a checkpoint-replay failover: a job orphaned by a dead node
/// re-submitted onto a survivor.
///
/// Attrs: `node` (the replay target rank), `job` (the orphaned job id),
/// `ok` (set after the replay resolves: 1 = report, 0 = error).
pub const CLUSTER_FAILOVER: &str = "Cluster::failover";

/// Call of an incarnation-arbitrated revival: a restarted rank rejoining
/// the mesh under a fresh incarnation, or a suspected-but-alive rank
/// refuting an accusation by bumping its own incarnation.
///
/// Attrs: `node` (the reviving rank), `step` (the new incarnation),
/// `ok` (1 = restart rejoin, 0 = refutation).
pub const CLUSTER_REJOIN: &str = "Cluster::rejoin";

/// Call of a scripted link event from the fault harness: one direction of
/// one mesh link cut or healed.
///
/// Attrs: `node` (the sending side of the direction), `rank` (the receiving
/// side), `ok` (1 = heal, 0 = cut).
pub const CLUSTER_PARTITION: &str = "Cluster::partition";

/// All names, useful for exhaustiveness checks in tests and for the weave
/// report.
pub const ALL_JOIN_POINTS: &[&str] = &[
    MAIN,
    INITIALIZE,
    PROCESSING,
    FINALIZE,
    KERNEL_STEP,
    GET_BLOCKS,
    REFRESH,
    WARM_UP,
    SERVICE_EXECUTE,
    KERNEL_BLOCK,
    KERNEL_SPECIALIZE,
    CACHE_RESOLVE,
    CLUSTER_PLAN_REQ,
    CLUSTER_PLAN_REP,
    CLUSTER_SUSPECT,
    CLUSTER_FAILOVER,
    CLUSTER_REJOIN,
    CLUSTER_PARTITION,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_names_unique_and_namespaced() {
        let mut seen = std::collections::HashSet::new();
        for n in ALL_JOIN_POINTS {
            assert!(n.contains("::"), "join point {n} must be namespaced");
            assert!(seen.insert(*n), "duplicate join point name {n}");
        }
        assert_eq!(ALL_JOIN_POINTS.len(), 18);
    }
}
