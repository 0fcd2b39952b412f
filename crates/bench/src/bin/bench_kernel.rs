//! Kernel microbench: the generic tape, the specialized loop and a
//! hand-written loop on the Fig. 6 SGrid workload (5-point Jacobi), cold vs
//! warm scratch, with allocation counting.
//!
//! Writes machine-readable `BENCH_kernel.json` (cells/sec, ops/sec,
//! allocs/block per variant) to the current directory so CI can track the
//! perf trajectory, and prints a human-readable table.  Problem size follows
//! `AOHPC_SCALE=smoke|default|paper`.

use aohpc_kernel::{
    CompiledKernel, ExecScratch, ExecStats, OptLevel, Processor, SpecializationId, StencilProgram,
};
use aohpc_workloads::Scale;
use std::time::Instant;

// Thread-scoped counting allocator shared with the kernel crate's no_alloc
// regression test (the tape's warm path must report 0 allocs/block).
#[global_allocator]
static GLOBAL: aohpc_testalloc::CountingAlloc = aohpc_testalloc::CountingAlloc;

fn init(x: i64, y: i64) -> f64 {
    ((x * 13 + y * 7) % 97) as f64 / 97.0
}

/// The loop a human would write for one jacobi-5pt block: out-of-block
/// neighbours read 0.0 (the bench's halo), the neighbour sum folds left in
/// the tape's load order (N, W, E, S), so the result is bit-identical to
/// every platform variant.
fn handwritten_jacobi(cells: &[f64], params: &[f64], n: usize, out: &mut [f64]) {
    let at = |x: i64, y: i64| -> f64 {
        if x >= 0 && (x as usize) < n && y >= 0 && (y as usize) < n {
            cells[y as usize * n + x as usize]
        } else {
            0.0
        }
    };
    for y in 0..n as i64 {
        for x in 0..n as i64 {
            let s = at(x, y - 1) + at(x - 1, y) + at(x + 1, y) + at(x, y + 1);
            out[y as usize * n + x as usize] = params[0] * at(x, y) + params[1] * s;
        }
    }
}

/// One measured variant.
struct Outcome {
    name: &'static str,
    cells_per_sec: f64,
    ops_per_sec: f64,
    allocs_per_block: f64,
    checksum: f64,
}

/// Time `reps` executions of one block-step variant.
fn measure(
    name: &'static str,
    n: usize,
    reps: u32,
    ops_per_cell: u64,
    mut step: impl FnMut(&mut Vec<f64>),
) -> Outcome {
    let mut out = vec![0.0f64; n * n];
    // Warm-up (grows any lazily-sized buffer the variant owns).
    step(&mut out);
    let start = Instant::now();
    let (_, allocations) = aohpc_testalloc::count_in(|| {
        for _ in 0..reps {
            step(&mut out);
        }
    });
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    let cells = (n * n) as f64 * reps as f64;
    Outcome {
        name,
        cells_per_sec: cells / secs,
        ops_per_sec: cells * ops_per_cell as f64 / secs,
        allocs_per_block: allocations as f64 / reps as f64,
        checksum: out[n + 1],
    }
}

fn main() {
    let scale = Scale::from_env();
    // The Fig. 6 SGrid workload's kernel, on one block of the scale's figure
    // region (the figure's smallest region; one block isolates the per-cell
    // executor from the platform access path).
    let n = scale.fig6_regions()[0].nx;
    let reps: u32 = match scale {
        Scale::Smoke => 200,
        Scale::Default => 50,
        Scale::Paper => 5,
    };
    let program = StencilProgram::jacobi_5pt();
    let params = [0.5, 0.125];
    let compiled = CompiledKernel::compile(
        &program,
        aohpc_kernel::prelude::Extent::new2d(n, n),
        OptLevel::Full,
    );
    let cells: Vec<f64> = (0..n * n).map(|k| init((k % n) as i64, (k / n) as i64)).collect();
    let tape_stats = compiled.tape().stats();

    println!("# bench_kernel — execution tiers, {n}x{n} jacobi-5pt block, scale = {scale}");
    println!(
        "tape: {} dag nodes -> {} body instrs ({} fused loads, {} mul-adds), {} regs (max live {})",
        tape_stats.dag_nodes,
        tape_stats.body_len,
        tape_stats.fused_loads,
        tape_stats.fused_muladds,
        tape_stats.registers,
        tape_stats.max_live,
    );

    let ops = compiled.op_count();
    let mut outcomes: Vec<Outcome> = Vec::new();

    // Warm generic tape: one scratch reused across blocks, specialized fast
    // path disabled — the interpreter baseline every later tier compares to.
    for (name, proc) in
        [("tape_scalar_warm", Processor::Scalar), ("tape_simd_warm", Processor::Simd)]
    {
        let mut scratch = ExecScratch::new();
        outcomes.push(measure(name, n, reps, ops, |out| {
            let mut stats = ExecStats::default();
            compiled.execute_block_unspecialized(
                &cells,
                &params,
                &mut |_, _| 0.0,
                out,
                proc,
                &mut stats,
                &mut scratch,
            );
        }));
    }

    // Specialized tape: the monomorphic super-instruction loop the compiler
    // matched for this tape shape (the production `execute_block` path).
    assert_ne!(
        compiled.specialization(),
        SpecializationId::Generic,
        "jacobi-5pt must match a specialized kernel"
    );
    for (name, proc) in
        [("tape_spec_scalar_warm", Processor::Scalar), ("tape_spec_simd_warm", Processor::Simd)]
    {
        let mut scratch = ExecScratch::new();
        outcomes.push(measure(name, n, reps, ops, |out| {
            let mut stats = ExecStats::default();
            compiled.execute_block(
                &cells,
                &params,
                &mut |_, _| 0.0,
                out,
                proc,
                &mut stats,
                &mut scratch,
            );
        }));
    }

    // Cold tape: a fresh scratch per block (what a pool-less host would pay).
    outcomes.push(measure("tape_scalar_cold", n, reps, ops, |out| {
        let mut scratch = ExecScratch::new();
        let mut stats = ExecStats::default();
        compiled.execute_block_unspecialized(
            &cells,
            &params,
            &mut |_, _| 0.0,
            out,
            Processor::Scalar,
            &mut stats,
            &mut scratch,
        );
    }));

    // Cold but prepared: a fresh scratch per block, pre-sized at
    // "plan-resolve time" via `prepare_scratch` — block zero is already
    // allocation-free inside `execute_block` (the sizing cost moved out of
    // the counted region, where the plan cache pays it once per resolve).
    outcomes.push(measure("tape_spec_scalar_cold_prep", n, reps, ops, |out| {
        let mut scratch = ExecScratch::new();
        compiled.prepare_scratch(&mut scratch, Processor::Scalar);
        let mut stats = ExecStats::default();
        let (_, execute_allocs) = aohpc_testalloc::count_in(|| {
            compiled.execute_block(
                &cells,
                &params,
                &mut |_, _| 0.0,
                out,
                Processor::Scalar,
                &mut stats,
                &mut scratch,
            );
        });
        assert_eq!(execute_allocs, 0, "prepared cold execute_block must not allocate");
    }));

    // Hand-written jacobi: the straight-line loop a human would write for
    // this block (halo reads 0.0, neighbour fold in the tape's load order).
    // The ceiling the specialized tier is measured against.
    outcomes.push(measure("handwritten_scalar", n, reps, ops, |out| {
        handwritten_jacobi(&cells, &params, n, out);
    }));

    println!("{:<18} {:>14} {:>14} {:>13}", "variant", "cells/sec", "ops/sec", "allocs/block");
    for o in &outcomes {
        println!(
            "{:<18} {:>14.3e} {:>14.3e} {:>13.1}",
            o.name, o.cells_per_sec, o.ops_per_sec, o.allocs_per_block
        );
    }

    let get = |name: &str| {
        outcomes
            .iter()
            .find(|o| o.name == name)
            .unwrap_or_else(|| panic!("variant {name} measured"))
    };
    let speedup_spec_scalar =
        get("tape_spec_scalar_warm").cells_per_sec / get("tape_scalar_warm").cells_per_sec;
    let speedup_spec_simd =
        get("tape_spec_simd_warm").cells_per_sec / get("tape_simd_warm").cells_per_sec;
    println!(
        "speedup (specialized/generic tape): scalar {speedup_spec_scalar:.2}x, simd {speedup_spec_simd:.2}x"
    );
    // The remaining gap to hand-written code (≥ 1.0 means the platform won).
    let spec_vs_handwritten =
        get("tape_spec_scalar_warm").cells_per_sec / get("handwritten_scalar").cells_per_sec;
    println!("specialized vs handwritten loop (scalar): {spec_vs_handwritten:.2}x");

    // Every variant computes the same field bit-for-bit.
    let reference = outcomes[0].checksum;
    for o in &outcomes {
        assert_eq!(
            o.checksum.to_bits(),
            reference.to_bits(),
            "{} diverged from {}",
            o.name,
            outcomes[0].name
        );
    }
    assert_eq!(
        get("tape_scalar_warm").allocs_per_block,
        0.0,
        "warm tape execution must be allocation-free"
    );
    assert_eq!(
        get("tape_spec_scalar_warm").allocs_per_block,
        0.0,
        "warm specialized execution must be allocation-free"
    );

    // Machine-readable trajectory record (no external JSON dependency in the
    // offline workspace, so the document is assembled by hand).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"kernel_tape\",\n");
    json.push_str(&format!("  \"scale\": \"{scale}\",\n"));
    json.push_str("  \"workload\": \"fig06_sgrid_jacobi_5pt\",\n");
    json.push_str(&format!("  \"block\": {n},\n"));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str(&format!(
        "  \"tape\": {{\"dag_nodes\": {}, \"prelude_len\": {}, \"body_len\": {}, \"fused_loads\": {}, \"fused_muladds\": {}, \"registers\": {}, \"max_live\": {}}},\n",
        tape_stats.dag_nodes,
        tape_stats.prelude_len,
        tape_stats.body_len,
        tape_stats.fused_loads,
        tape_stats.fused_muladds,
        tape_stats.registers,
        tape_stats.max_live,
    ));
    json.push_str("  \"variants\": {\n");
    for (i, o) in outcomes.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{\"cells_per_sec\": {:.1}, \"ops_per_sec\": {:.1}, \"allocs_per_block\": {:.2}}}{}\n",
            o.name,
            o.cells_per_sec,
            o.ops_per_sec,
            o.allocs_per_block,
            if i + 1 < outcomes.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!("  \"speedup_spec_scalar\": {speedup_spec_scalar:.3},\n"));
    json.push_str(&format!("  \"speedup_spec_simd\": {speedup_spec_simd:.3},\n"));
    json.push_str(&format!("  \"spec_vs_handwritten\": {spec_vs_handwritten:.3}\n"));
    json.push_str("}\n");
    std::fs::write("BENCH_kernel.json", &json).expect("write BENCH_kernel.json");
    println!("wrote BENCH_kernel.json");
}
