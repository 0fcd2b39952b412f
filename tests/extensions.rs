//! Cross-crate integration tests of the platform extensions built on top of
//! the paper's prototype:
//!
//! * locality joints in the Env tree (§III-B3) under parallel execution;
//! * the subkernel IR with its access-resolution cache and heterogeneous
//!   backends (future-work §VI) woven with the MPI/OpenMP aspect modules;
//! * particle migration between buckets (the prototype limitation lifted)
//!   under every execution mode;
//! * interactions between the extensions and the paper's own mechanisms
//!   (MMAT, Dry-run, page communication).

use aohpc::prelude::*;
use aohpc_kernel::prelude::*;
use aohpc_kernel::{load, param, Processor};
use std::sync::Arc;

const ALL_MODES: [ExecutionMode; 5] = [
    ExecutionMode::PlatformDirect,
    ExecutionMode::PlatformNop,
    ExecutionMode::PlatformOmp { threads: 2 },
    ExecutionMode::PlatformMpi { ranks: 2 },
    ExecutionMode::PlatformHybrid { ranks: 2, threads: 2 },
];

const TOPOLOGIES: [TreeTopology; 3] = [
    TreeTopology::Flat,
    TreeTopology::MortonGroups { blocks_per_joint: 4 },
    TreeTopology::Quadtree { max_leaf_blocks: 1 },
];

fn sgrid_checksum(mode: ExecutionMode, tree: TreeTopology, mmat: bool) -> f64 {
    let region = RegionSize::square(48);
    let system = Arc::new(SGridSystem::with_block_size(region, 16).with_topology(tree));
    let sink = new_field_sink();
    let app = SGridJacobiApp::new(4, 16).with_sink(sink.clone());
    let outcome = Platform::new(mode).with_mmat(mmat).run_system(system, app.factory());
    assert!(outcome.report.tasks.iter().all(|t| t.steps == 4), "{} {}", mode.label(), tree.name());
    let sum = checksum(sink.lock().iter().map(|(_, v)| *v));
    sum
}

#[test]
fn locality_topologies_are_mode_invariant() {
    // The tree shape is a pure search optimisation: every (mode, topology,
    // MMAT) combination must produce the same field.
    let reference = sgrid_checksum(ExecutionMode::PlatformDirect, TreeTopology::Flat, false);
    for mode in ALL_MODES {
        for tree in TOPOLOGIES {
            for mmat in [false, true] {
                let got = sgrid_checksum(mode, tree, mmat);
                assert!(
                    (got - reference).abs() < 1e-9,
                    "{} / {} / mmat={mmat}: {got} != {reference}",
                    mode.label(),
                    tree.name()
                );
            }
        }
    }
}

#[test]
fn locality_joints_cut_search_work_under_mpi_too() {
    // The quadtree's pruning must survive the per-rank Env replication of the
    // distributed layer (Buffer-only blocks keep their joints).
    let region = RegionSize::square(64);
    let visited = |tree: TreeTopology| {
        let system = UsGridSystem::with_block_size(region, 8, GridLayout::CaseR { seed: 9 })
            .with_topology(tree);
        let app = UsGridJacobiApp::new(system.clone(), 2);
        Platform::new(ExecutionMode::PlatformMpi { ranks: 2 })
            .run_system(Arc::new(system), app.factory())
            .report
            .total_counters()
            .search_nodes_visited
    };
    let flat = visited(TreeTopology::Flat);
    let quad = visited(TreeTopology::Quadtree { max_leaf_blocks: 1 });
    assert!(quad * 2 < flat, "quadtree joints must prune under MPI too: {quad} vs {flat}");
}

#[test]
fn ir_kernel_matches_the_classic_kernel_in_every_mode_and_backend() {
    let region = RegionSize::square(48);
    let block = 16;
    let loops = 3;

    // Reference: the classic Listing-1-style kernel on the serial platform.
    let system = Arc::new(SGridSystem::with_block_size(region, block));
    let sink = new_field_sink();
    let app = SGridJacobiApp::new(loops, block).with_sink(sink.clone());
    Platform::new(ExecutionMode::PlatformDirect).run_system(system, app.factory());
    let reference = checksum(sink.lock().iter().map(|(_, v)| *v));

    for mode in ALL_MODES {
        for processor in [Processor::Scalar, Processor::Simd] {
            let system = Arc::new(SGridSystem::with_block_size(region, block));
            let sink = new_stencil_field_sink();
            let app = IrStencilApp::new(StencilProgram::jacobi_5pt(), vec![0.5, 0.125], loops)
                .with_processor(processor)
                .with_field_sink(sink.clone());
            let outcome = Platform::new(mode).run_system(system, app.factory());
            assert!(outcome.report.tasks.iter().all(|t| t.steps == loops as u64));
            let got = checksum(sink.lock().iter().map(|(_, v)| *v));
            assert!(
                (got - reference).abs() < 1e-9,
                "{} / {}: {got} != {reference}",
                mode.label(),
                processor.name()
            );
        }
    }
}

#[test]
fn ir_kernel_still_exercises_page_communication_and_dry_run() {
    // The IR app's halo fetches go through the same refresh/communication
    // join points as a hand-written kernel, so the distributed aspect must
    // ship pages and the Dry-run prefetch must remove re-executions.
    let region = RegionSize::square(48);
    let run = |dry_run: bool| {
        let system = Arc::new(SGridSystem::with_block_size(region, 8));
        let app = IrStencilApp::new(StencilProgram::jacobi_5pt(), vec![0.5, 0.125], 3);
        Platform::new(ExecutionMode::PlatformMpi { ranks: 2 })
            .with_dry_run(dry_run)
            .run_system(system, app.factory())
            .report
    };
    let with = run(true);
    assert!(with.total_pages_sent() > 0, "halo fetches must cross ranks");
    assert_eq!(with.total_retries(), 0, "Dry-run must prefetch the IR app's halo too");
    let without = run(false);
    assert!(without.total_retries() > 0, "without Dry-run the first step of each rank re-executes");
}

#[test]
fn custom_ir_program_runs_heterogeneously_under_hybrid_weave() {
    // A anisotropic diffusion-like program written directly as IR, scheduled
    // over both backends, under MPI+OpenMP: the run must complete every
    // step and use every backend.
    let expr = param(0) * load(0, 0)
        + param(1) * (load(1, 0) + load(-1, 0))
        + param(2) * (load(0, 1) + load(0, -1));
    let program = StencilProgram::new("anisotropic", expr, 3).unwrap();
    let stats_sink = new_stats_sink();
    let system = Arc::new(SGridSystem::with_block_size(RegionSize::square(64), 16));
    let app = IrStencilApp::new(program, vec![0.4, 0.2, 0.1], 3)
        .with_dispatcher(HeteroDispatcher::new(SchedulePolicy::RoundRobin(vec![
            Processor::Simd,
            Processor::Simd,
            Processor::Scalar,
        ])))
        .with_stats_sink(stats_sink.clone());
    let outcome = Platform::new(ExecutionMode::PlatformHybrid { ranks: 2, threads: 2 })
        .run_system(system, app.factory());
    assert_eq!(outcome.report.tasks.len(), 4);
    assert!(outcome.report.tasks.iter().all(|t| t.steps == 3));
    let stats = stats_sink.lock();
    for processor in [Processor::Scalar, Processor::Simd] {
        assert!(
            stats.get(processor).is_some(),
            "backend {} never executed a block",
            processor.name()
        );
    }
    assert_eq!(stats.total().cells, outcome.report.total_counters().writes);
}

#[test]
fn particle_migration_is_mode_invariant_and_conservative() {
    let run = |mode: ExecutionMode| {
        // 64 buckets at a quarter of the capacity (4 per bucket) = 256
        // particles; low density keeps wall pile-up below the bucket capacity.
        let mut system = ParticleSystem::paper(ParticleSize::new(256));
        system.fill_per_bucket = 4;
        let count_sink = new_field_sink();
        let app = ParticleApp::new(system.clone(), 4)
            .with_migration(true)
            .with_dt(0.2)
            .with_initial_velocity([2.0, 0.0, 0.0])
            .with_count_sink(count_sink.clone());
        let outcome = Platform::new(mode).run_system(Arc::new(system), app.factory());
        assert!(outcome.report.tasks.iter().all(|t| t.steps == 4), "{}", mode.label());
        let mut counts: Vec<((i64, i64), f64)> =
            count_sink.lock().iter().map(|(a, c)| ((a.x, a.y), *c)).collect();
        counts.sort_by_key(|&(key, _)| key);
        counts
    };
    let reference = run(ExecutionMode::PlatformDirect);
    let total: f64 = reference.iter().map(|(_, c)| c).sum();
    assert_eq!(total, 256.0, "no particle may be lost by migration");
    for mode in [
        ExecutionMode::PlatformOmp { threads: 2 },
        ExecutionMode::PlatformMpi { ranks: 2 },
        ExecutionMode::PlatformHybrid { ranks: 2, threads: 2 },
    ] {
        let got = run(mode);
        assert_eq!(got.len(), reference.len());
        for ((ka, ca), (kb, cb)) in got.iter().zip(&reference) {
            assert_eq!(ka, kb);
            assert_eq!(ca, cb, "{}: bucket {ka:?} occupancy differs", mode.label());
        }
    }
}

#[test]
fn extensions_compose_ir_kernel_on_a_quadtree_env() {
    // The subkernel IR and the locality joints are independent extensions;
    // combining them must not change results and must keep the halo fetch
    // count identical (the plan decides *what* leaves the block, the tree
    // only decides *how fast* the search finds it).
    let region = RegionSize::square(48);
    let run = |tree: TreeTopology| {
        let system = Arc::new(SGridSystem::with_block_size(region, 8).with_topology(tree));
        let sink = new_stencil_field_sink();
        let app = IrStencilApp::new(StencilProgram::smooth_9pt(), vec![0.6, 0.05], 3)
            .with_processor(Processor::Simd)
            .with_field_sink(sink.clone());
        let outcome = Platform::new(ExecutionMode::PlatformOmp { threads: 2 })
            .run_system(system, app.factory());
        let counters = outcome.report.total_counters();
        let sum = checksum(sink.lock().iter().map(|(_, v)| *v));
        (sum, counters.out_of_block_reads, counters.search_nodes_visited)
    };
    let (flat_sum, flat_out, flat_visited) = run(TreeTopology::Flat);
    let (quad_sum, quad_out, quad_visited) = run(TreeTopology::Quadtree { max_leaf_blocks: 1 });
    assert!((flat_sum - quad_sum).abs() < 1e-9);
    assert_eq!(flat_out, quad_out, "the access plan fixes the out-of-block reads");
    assert!(quad_visited < flat_visited, "the quadtree must still shorten each search");
}
