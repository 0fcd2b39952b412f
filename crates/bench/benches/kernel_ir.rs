//! Benchmarks of the subkernel IR pipeline (the paper's future-work §VI,
//! implemented in `aohpc-kernel`):
//!
//! * interpreter vs compiled plan vs lane (SIMD) execution of the same
//!   program on a dense block — the "generate kernels for multiple types of
//!   processors" axis;
//! * optimizer on/off — what constant folding / CSE / identity removal buys;
//! * classic hand-written platform kernel vs the IR app with the
//!   access-resolution cache — what reusing address resolution buys on the
//!   platform's access path.

use aohpc::prelude::*;
use aohpc_kernel::prelude::*;
use aohpc_kernel::{DenseField, Processor};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn init(x: i64, y: i64) -> f64 {
    ((x * 13 + y * 7) % 97) as f64 / 97.0
}

fn bench_backends_on_a_block(c: &mut Criterion) {
    let program = StencilProgram::jacobi_5pt();
    let n = 128usize;
    let params = [0.5, 0.125];
    let cells: Vec<f64> = (0..n * n).map(|k| init((k % n) as i64, (k / n) as i64)).collect();
    let compiled = CompiledKernel::compile(&program, Extent::new2d(n, n), OptLevel::Full);

    let mut group = c.benchmark_group("kernel_ir_backends_128x128");
    group.bench_function("interpreter", |b| {
        b.iter(|| {
            let mut field = DenseField::new(n, n, init, |_, _| 0.0);
            field.run_interpreted(&program, &params, 1);
            black_box(field.values()[0])
        })
    });
    for proc in [Processor::Scalar, Processor::Simd] {
        group.bench_function(proc.name(), |b| {
            let mut out = vec![0.0; n * n];
            let mut scratch = ExecScratch::new();
            b.iter(|| {
                let mut stats = ExecStats::default();
                compiled.execute_block(
                    &cells,
                    &params,
                    &mut |_, _| 0.0,
                    &mut out,
                    proc,
                    &mut stats,
                    &mut scratch,
                );
                black_box(out[n + 1])
            })
        });
    }
    group.finish();
}

fn bench_optimizer_ablation(c: &mut Criterion) {
    // A deliberately redundant expression: the optimizer folds the constants,
    // removes the identities and CSEs the repeated loads.
    let redundant = (param(0) * load(0, 0) + lit(0.0)) * lit(1.0)
        + param(1) * (load(0, -1) + load(-1, 0) + load(1, 0) + load(0, 1))
        + (load(0, 0) - load(0, 0)) * lit(3.0);
    let program = StencilProgram::new("redundant-jacobi", redundant, 2).unwrap();
    let n = 128usize;
    let params = [0.5, 0.125];
    let cells: Vec<f64> = (0..n * n).map(|k| init((k % n) as i64, (k / n) as i64)).collect();

    let mut group = c.benchmark_group("kernel_ir_optimizer_128x128");
    for (name, level) in [("unoptimized", OptLevel::None), ("optimized", OptLevel::Full)] {
        let compiled = CompiledKernel::compile(&program, Extent::new2d(n, n), level);
        group.bench_function(name, |b| {
            let mut out = vec![0.0; n * n];
            let mut scratch = ExecScratch::new();
            b.iter(|| {
                let mut stats = ExecStats::default();
                compiled.execute_block(
                    &cells,
                    &params,
                    &mut |_, _| 0.0,
                    &mut out,
                    Processor::Scalar,
                    &mut stats,
                    &mut scratch,
                );
                black_box(out[n + 1])
            })
        });
    }
    group.finish();
}

fn bench_resolution_cache_on_platform(c: &mut Criterion) {
    // The classic Listing-1-style kernel issues five platform accesses per
    // cell; the IR app gathers each cell once and fetches only the halo.
    let region = RegionSize::square(96);
    let block = 16;
    let loops = 2;
    let mut group = c.benchmark_group("kernel_ir_platform_access_path");
    group.sample_size(10);
    group.bench_function("classic_sgrid_app", |b| {
        b.iter(|| {
            let system = Arc::new(SGridSystem::with_block_size(region, block));
            let app = SGridJacobiApp::new(loops, block);
            black_box(
                Platform::new(ExecutionMode::PlatformDirect)
                    .run_system(system, app.factory())
                    .report
                    .total_counters()
                    .reads,
            )
        })
    });
    group.bench_function("ir_app_with_resolution_cache", |b| {
        b.iter(|| {
            let system = Arc::new(SGridSystem::with_block_size(region, block));
            let app = IrStencilApp::new(StencilProgram::jacobi_5pt(), vec![0.5, 0.125], loops);
            black_box(
                Platform::new(ExecutionMode::PlatformDirect)
                    .run_system(system, app.factory())
                    .report
                    .total_counters()
                    .reads,
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_backends_on_a_block,
    bench_optimizer_ablation,
    bench_resolution_cache_on_platform
);
criterion_main!(benches);
