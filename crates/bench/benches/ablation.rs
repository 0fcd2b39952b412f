//! Ablation benchmarks for the platform's design choices:
//! MMAT on/off (the paper's own ablation), the Dry-run prefetch on/off in the
//! distributed layer, the skip-search flag on/off for in-block accesses, and
//! the data-branch tree topology (flat vs locality joints, §III-B3).

use aohpc::prelude::*;
use aohpc_bench::{run_platform, Workload};
use aohpc_env::{AccessState, EnvBuilder, Extent};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn bench_mmat_ablation(c: &mut Criterion) {
    let scale = Scale::Smoke;
    let workload =
        Workload::UsGrid { region: RegionSize::square(48), layout: GridLayout::CaseR { seed: 7 } };
    let mut group = c.benchmark_group("ablation_mmat_usgrid_caser");
    group.sample_size(10);
    for (name, mmat) in [("without_mmat", false), ("with_mmat", true)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    run_platform(workload, ExecutionMode::PlatformDirect, mmat, true, scale)
                        .report
                        .total_counters()
                        .env_searches,
                )
            })
        });
    }
    group.finish();
}

fn bench_dry_run_ablation(c: &mut Criterion) {
    let scale = Scale::Smoke;
    let workload = Workload::SGrid { region: RegionSize::square(48) };
    let mut group = c.benchmark_group("ablation_dry_run_mpi2");
    group.sample_size(10);
    for (name, dry_run) in [("with_dry_run", true), ("without_dry_run", false)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    run_platform(
                        workload,
                        ExecutionMode::PlatformMpi { ranks: 2 },
                        false,
                        dry_run,
                        scale,
                    )
                    .report
                    .total_retries(),
                )
            })
        });
    }
    group.finish();
}

fn bench_skip_search_ablation(c: &mut Criterion) {
    // Direct Env-level measurement: the same in-block access with and without
    // the caller-supplied in-block assertion.
    let mut builder = EnvBuilder::<f64>::new(PoolHandle::unbounded(), 64);
    let root = builder.add_empty(None);
    builder.add_arithmetic(root, Arc::new(|_| 0.0), true);
    let joint = builder.add_empty(Some(root));
    let block =
        builder.add_data(joint, GlobalAddress::new2d(0, 0), Extent::new2d(64, 64), 0).unwrap();
    let env = builder.build();
    let mut group = c.benchmark_group("ablation_skip_search");
    group.bench_function("get_with_hint", |b| {
        let mut state = AccessState::new();
        b.iter(|| black_box(env.read(block, GlobalAddress::new2d(10, 10), true, &mut state)))
    });
    group.bench_function("get_without_hint", |b| {
        let mut state = AccessState::new();
        b.iter(|| black_box(env.read(block, GlobalAddress::new2d(10, 10), false, &mut state)))
    });
    group.bench_function("get_without_hint_mmat", |b| {
        let mut state = AccessState::with_mmat();
        b.iter(|| black_box(env.read(block, GlobalAddress::new2d(10, 10), false, &mut state)))
    });
    group.finish();
}

fn bench_tree_topology_ablation(c: &mut Criterion) {
    // §III-B3 locality joints: the same USGrid CaseR run (no MMAT, so every
    // out-of-block access pays an Env search) with the flat default tree and
    // with grouped/quadtree joints.
    let region = RegionSize::square(64);
    let layout = GridLayout::CaseR { seed: 7 };
    let mut group = c.benchmark_group("ablation_tree_topology_usgrid_caser");
    group.sample_size(10);
    for (name, tree) in [
        ("flat", TreeTopology::Flat),
        ("morton_groups_4", TreeTopology::MortonGroups { blocks_per_joint: 4 }),
        ("quadtree_leaf1", TreeTopology::Quadtree { max_leaf_blocks: 1 }),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let system = UsGridSystem::with_block_size(region, 8, layout).with_topology(tree);
                let app = UsGridJacobiApp::new(system.clone(), 1);
                let outcome = Platform::new(ExecutionMode::PlatformDirect)
                    .run_system(Arc::new(system), app.factory());
                black_box(outcome.report.total_counters().search_nodes_visited)
            })
        });
    }
    group.finish();
}

fn bench_page_size_ablation(c: &mut Criterion) {
    // Communication granularity: the page is the unit shipped between ranks
    // (§III-B6), so smaller pages ship less surplus data per halo access but
    // pay more per-message latency.  The benchmark runs SGrid under 2 ranks
    // with different page sizes; the measured value is the full run.
    let region = RegionSize::square(64);
    let block = 16usize;
    let mut group = c.benchmark_group("ablation_page_size_mpi2");
    group.sample_size(10);
    for cells_per_page in [16usize, 64, 256] {
        group.bench_function(format!("{cells_per_page}_cells_per_page"), |b| {
            b.iter(|| {
                let mut system = SGridSystem::with_block_size(region, block);
                system.cells_per_page = cells_per_page;
                let app = SGridJacobiApp::new(2, block);
                let outcome = Platform::new(ExecutionMode::PlatformMpi { ranks: 2 })
                    .run_system(Arc::new(system), app.factory());
                black_box((outcome.report.total_pages_sent(), outcome.report.total_bytes_sent()))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_mmat_ablation,
    bench_dry_run_ablation,
    bench_skip_search_ablation,
    bench_tree_topology_ablation,
    bench_page_size_ablation
);
criterion_main!(benches);
