//! Cross-crate integration tests: the platform's three sample DSLs must
//! reproduce the handwritten baselines' results in every execution mode, and
//! the mechanisms the paper credits (MMAT, Dry-run, page communication) must
//! be observable in the run reports.

use aohpc::prelude::*;
use aohpc_baselines::{HandwrittenSGrid, HandwrittenUsGrid};
use std::sync::Arc;

fn init(x: i64, y: i64) -> f64 {
    SGridJacobiApp::initial_value(GlobalAddress::new2d(x, y))
}

const ALL_MODES: [ExecutionMode; 6] = [
    ExecutionMode::PlatformDirect,
    ExecutionMode::PlatformNop,
    ExecutionMode::PlatformOmp { threads: 2 },
    ExecutionMode::PlatformMpi { ranks: 2 },
    ExecutionMode::PlatformMpi { ranks: 4 },
    ExecutionMode::PlatformHybrid { ranks: 2, threads: 2 },
];

#[test]
fn sgrid_matches_handwritten_in_every_mode() {
    let region = RegionSize::square(48);
    let block = 16;
    let loops = 5;
    let (grid, _) = HandwrittenSGrid::new(region, loops, init).run();
    let expected = checksum(grid.field().iter().copied());

    for mode in ALL_MODES {
        let system = Arc::new(SGridSystem::with_block_size(region, block));
        let sink = new_field_sink();
        let app = SGridJacobiApp::new(loops, block).with_sink(sink.clone());
        let outcome = Platform::new(mode).with_mmat(true).run_system(system, app.factory());
        assert!(outcome.report.tasks.iter().all(|t| t.steps == loops as u64), "{}", mode.label());
        let got = checksum(sink.lock().iter().map(|(_, v)| *v));
        assert!(
            (got - expected).abs() < 1e-9,
            "{}: checksum {got} != handwritten {expected}",
            mode.label()
        );
    }
}

#[test]
fn usgrid_caser_matches_handwritten_under_mpi() {
    let region = RegionSize::square(32);
    let loops = 3;
    let layout = GridLayout::CaseR { seed: 123 };
    let (expected_field, _) = HandwrittenUsGrid::new(region, layout, loops, init).run();
    let expected = checksum(expected_field.iter().copied());

    let system = UsGridSystem::with_block_size(region, 8, layout);
    let sink = new_field_sink();
    let app = UsGridJacobiApp::new(system.clone(), loops).with_sink(sink.clone());
    let outcome = Platform::new(ExecutionMode::PlatformMpi { ranks: 4 })
        .with_mmat(true)
        .run_system(Arc::new(system), app.factory());
    // The sink is keyed by storage position; the checksum is order-insensitive
    // and layout is a bijection, so it can be compared directly.
    let got = checksum(sink.lock().iter().map(|(_, v)| *v));
    assert!((got - expected).abs() < 1e-9, "checksum {got} != {expected}");
    assert!(outcome.report.total_pages_sent() > 0, "CaseR must communicate pages across ranks");
}

/// The paper's claim for MMAT, where MMAT is the only memo: Listing 1's
/// per-cell kernel reads each halo cell with an un-hinted `GetD`, and without
/// MMAT every such read searches the Env again, sweep after sweep.
#[test]
fn mmat_eliminates_repeated_env_searches() {
    let region = RegionSize::square(32);
    let run = |mmat: bool| {
        let system = Arc::new(SGridSystem::with_block_size(region, 8));
        Platform::new(ExecutionMode::PlatformDirect)
            .with_mmat(mmat)
            .run_system(system, SGridJacobiApp::new(6, 8).factory())
            .report
            .total_counters()
    };
    let without = run(false);
    let with = run(true);
    assert!(
        with.env_searches * 3 < without.env_searches,
        "MMAT must remove most searches: {} vs {}",
        with.env_searches,
        without.env_searches
    );
    assert!(with.mmat_hits > 0);
    assert!(
        Platform::new(ExecutionMode::PlatformDirect).cost_model().task_compute_seconds(&with, 1)
            < Platform::new(ExecutionMode::PlatformDirect)
                .cost_model()
                .task_compute_seconds(&without, 1),
        "the cost model must reward MMAT"
    );
}

/// A gather app's plan is itself a memo of where its off-block reads land,
/// resolved once a block: with MMAT off it searches once a job, as MMAT-on
/// does — one search for each off-block entry of its plans, whatever the
/// step count.  CaseC 32² in blocks of 8: 16 blocks × 4 edges × 8 points =
/// 512 N/W/E/S neighbours off their block.  MMAT memorises per (block,
/// address) and so searches 60 fewer: a point past the domain's side reads
/// the static slot at the end of the row below the domain, so a side block's
/// 8 neighbours off that side are one address (8 × 7 repeats), and a corner
/// block's neighbour past the top or bottom there is that address again (4).
#[test]
fn a_gather_app_searches_its_plans_off_block_entries_once_a_job() {
    let region = RegionSize::square(32);
    for (mmat, searches) in [(false, 512), (true, 512 - 8 * 7 - 4)] {
        for steps in [1, 3, 6] {
            let system = UsGridSystem::with_block_size(region, 8, GridLayout::CaseC);
            let app = UsGridJacobiApp::new(system.clone(), steps);
            let counters = Platform::new(ExecutionMode::PlatformDirect)
                .with_mmat(mmat)
                .run_system(Arc::new(system), app.factory())
                .report
                .total_counters();
            assert_eq!(counters.env_searches, searches, "mmat={mmat} steps={steps}");
            assert_eq!(counters.out_of_block_reads, 512 * steps as u64, "mmat={mmat}");
        }
    }
}

#[test]
fn dry_run_avoids_recomputation_under_mpi() {
    let region = RegionSize::square(32);
    let run = |dry_run: bool| {
        let system = Arc::new(SGridSystem::with_block_size(region, 8));
        let app = SGridJacobiApp::new(4, 8);
        Platform::new(ExecutionMode::PlatformMpi { ranks: 2 })
            .with_dry_run(dry_run)
            .run_system(system, app.factory())
            .report
    };
    let with = run(true);
    let without = run(false);
    assert_eq!(with.total_retries(), 0, "Dry-run prefetch removes all re-executions");
    assert!(without.total_retries() > 0, "without Dry-run, failed steps must be recomputed");
}

#[test]
fn weave_report_documents_the_modules() {
    let system = Arc::new(SGridSystem::with_block_size(RegionSize::square(16), 8));
    let app = SGridJacobiApp::new(1, 8);
    let outcome = Platform::new(ExecutionMode::PlatformHybrid { ranks: 2, threads: 2 })
        .run_system(system, app.factory());
    let aspects = outcome.weave.active_aspects();
    assert_eq!(aspects.len(), 2);
    assert!(aspects.iter().any(|a| a.contains("distributed")));
    assert!(aspects.iter().any(|a| a.contains("shared")));
    assert!(outcome.report.runtime_events.iter().any(|e| e.starts_with("mpi:init")));
    assert!(outcome.report.runtime_events.iter().any(|e| e.starts_with("omp:spawn")));
}

/// The specialization tier's contract with the paper's pitch: the platform's
/// jacobi kernel — DSL expression → DAG → tape → matched super-instruction
/// loop — must land within a pinned factor of the loop a human would write,
/// and produce the *same bits*.  The factor is deliberately loose (debug
/// builds deflate both sides unevenly; `BENCH_kernel.json` records the real
/// release-mode ratio, ~1.2x) — this test pins the order of magnitude so an
/// accidental fall-off the fast path (e.g. a tape change that stops
/// matching) fails loudly.
#[test]
fn specialized_jacobi_stays_within_pinned_factor_of_handwritten() {
    use aohpc_kernel::{
        CompiledKernel, ExecScratch, ExecStats, OptLevel, Processor, SpecializationId,
        StencilProgram,
    };
    use std::time::Instant;

    const PINNED_FACTOR: f64 = 6.0;
    let n = 128usize;
    let program = StencilProgram::jacobi_5pt();
    let compiled = CompiledKernel::compile(
        &program,
        aohpc_kernel::prelude::Extent::new2d(n, n),
        OptLevel::Full,
    );
    assert_ne!(
        compiled.specialization(),
        SpecializationId::Generic,
        "jacobi-5pt must qualify for the weighted-sum specialization"
    );

    let cells: Vec<f64> = (0..n * n).map(|k| init((k % n) as i64, (k / n) as i64)).collect();
    let params = [0.5, 0.125];

    // The loop a human would write: halo reads 0.0, neighbour fold in the
    // tape's load order (N, W, E, S) so the results are bit-identical.
    let at = |x: i64, y: i64| -> f64 {
        if x >= 0 && (x as usize) < n && y >= 0 && (y as usize) < n {
            cells[y as usize * n + x as usize]
        } else {
            0.0
        }
    };
    let mut by_hand = vec![0.0f64; n * n];
    let handwritten = |out: &mut [f64]| {
        for y in 0..n as i64 {
            for x in 0..n as i64 {
                let s = at(x, y - 1) + at(x - 1, y) + at(x + 1, y) + at(x, y + 1);
                out[y as usize * n + x as usize] = params[0] * at(x, y) + params[1] * s;
            }
        }
    };

    let mut by_platform = vec![0.0f64; n * n];
    let mut scratch = ExecScratch::new();
    let mut platform = |out: &mut [f64]| {
        let mut stats = ExecStats::default();
        compiled.execute_block(
            &cells,
            &params,
            &mut |_, _| 0.0,
            out,
            Processor::Scalar,
            &mut stats,
            &mut scratch,
        );
    };

    // Correctness first: same block, same bits, every cell.
    handwritten(&mut by_hand);
    platform(&mut by_platform);
    for (i, (h, p)) in by_hand.iter().zip(&by_platform).enumerate() {
        assert_eq!(h.to_bits(), p.to_bits(), "cell {i}: handwritten {h} != specialized {p}");
    }

    // Throughput: best-of-5 blocks each, to shrug off scheduler noise.
    let reps = 20u32;
    let best = |step: &mut dyn FnMut(&mut [f64]), out: &mut [f64]| -> f64 {
        (0..5)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..reps {
                    step(out);
                }
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let hand_secs = best(&mut { handwritten }, &mut by_hand);
    let spec_secs = best(&mut { platform }, &mut by_platform);
    assert!(
        spec_secs <= hand_secs * PINNED_FACTOR,
        "specialized jacobi fell outside {PINNED_FACTOR}x of the handwritten loop: \
         {spec_secs:.4}s vs {hand_secs:.4}s ({:.2}x)",
        spec_secs / hand_secs
    );
}

#[test]
fn more_parallelism_reduces_simulated_time_for_all_dsls() {
    // Strong-scaling sanity across all three DSLs (the shape behind Figs. 7/9).
    // The problem must be large enough that per-step communication latency
    // does not dominate (the paper's strong-scaling runs use 4096² cells).
    let scale_modes = |mode1: ExecutionMode, mode4: ExecutionMode| -> Vec<(f64, f64)> {
        let region = RegionSize::square(160);
        let mut pairs = Vec::new();
        // SGrid
        let t = |mode: ExecutionMode| {
            let system = Arc::new(SGridSystem::with_block_size(region, 16));
            Platform::new(mode)
                .run_system(system, SGridJacobiApp::new(3, 16).factory())
                .simulated_seconds
        };
        pairs.push((t(mode1), t(mode4)));
        // USGrid CaseC
        let t = |mode: ExecutionMode| {
            let system = UsGridSystem::with_block_size(region, 16, GridLayout::CaseC);
            let app = UsGridJacobiApp::new(system.clone(), 3);
            Platform::new(mode)
                .with_mmat(true)
                .run_system(Arc::new(system), app.factory())
                .simulated_seconds
        };
        pairs.push((t(mode1), t(mode4)));
        // Particle
        let t = |mode: ExecutionMode| {
            let system = ParticleSystem::paper(ParticleSize::new(4096));
            let app = ParticleApp::new(system.clone(), 3);
            Platform::new(mode).run_system(Arc::new(system), app.factory()).simulated_seconds
        };
        pairs.push((t(mode1), t(mode4)));
        pairs
    };

    for (one, four) in scale_modes(
        ExecutionMode::PlatformMpi { ranks: 1 },
        ExecutionMode::PlatformMpi { ranks: 4 },
    ) {
        assert!(four < one, "4 ranks must beat 1 rank ({four} !< {one})");
    }
    for (one, four) in scale_modes(
        ExecutionMode::PlatformOmp { threads: 1 },
        ExecutionMode::PlatformOmp { threads: 4 },
    ) {
        assert!(four < one, "4 threads must beat 1 thread ({four} !< {one})");
    }
}
