//! Property tests for the plan-cache key contract: fingerprint equality must
//! imply bit-identical compiled output (on every backend), and structural
//! changes must change the fingerprint.

use aohpc_env::Extent;
use aohpc_kernel::{
    lit, load, param, CompiledKernel, ExecScratch, ExecStats, KernelExpr, OptLevel, Processor,
    StencilProgram,
};
use proptest::collection;
use proptest::prelude::*;

/// Random subkernel expressions: small-offset loads, constants and params at
/// the leaves; arithmetic, min/max and negation above (radius stays ≤ 2, well
/// under the validation bound).
fn arb_expr() -> BoxedStrategy<KernelExpr> {
    let leaf = prop_oneof![
        ((-2i64..=2), (-2i64..=2)).prop_map(|(dx, dy)| load(dx, dy)),
        (-2.0f64..2.0).prop_map(lit),
        (0usize..2).prop_map(param),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a * b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.min(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.max(b)),
            inner.prop_map(|a| -a),
        ]
    })
    .boxed()
}

/// Wrap a random expression into a valid program (guaranteeing ≥ 1 load).
fn program(name: &str, expr: KernelExpr, num_params: usize) -> StencilProgram {
    StencilProgram::new(name, load(0, 0) + expr, num_params).expect("generated program is valid")
}

fn halo(x: i64, y: i64) -> f64 {
    ((x * 5 + y * 3) % 17) as f64 * 0.25
}

/// Execute one block step and return the output bits.
fn run_bits(kernel: &CompiledKernel, cells: &[f64], params: &[f64], proc: Processor) -> Vec<u64> {
    let mut out = vec![0.0f64; cells.len()];
    let mut stats = ExecStats::default();
    let mut scratch = ExecScratch::new();
    kernel.execute_block(cells, params, &mut halo, &mut out, proc, &mut stats, &mut scratch);
    out.into_iter().map(f64::to_bits).collect()
}

proptest! {
    /// Fingerprint equality ⇒ bit-identical compiled output on both
    /// backends (and the backends agree with each other), for random
    /// programs, shapes and parameters.
    #[test]
    fn equal_fingerprints_imply_bit_identical_output(
        expr in arb_expr(),
        nx in 2usize..12,
        ny in 2usize..8,
        params in collection::vec(-1.0f64..1.0, 2..=2),
    ) {
        // Two independently constructed, differently named programs with the
        // same structure: the cache treats them as one plan.
        let a = program("lhs", expr.clone(), 2);
        let b = program("rhs", expr.clone(), 2);
        prop_assert_eq!(a.fingerprint(), b.fingerprint());

        let extent = Extent::new2d(nx, ny);
        let cells: Vec<f64> =
            (0..nx * ny).map(|k| ((k * 31 + 7) % 101) as f64 / 101.0 + 0.05).collect();
        let ka = CompiledKernel::compile(&a, extent, OptLevel::Full);
        let kb = CompiledKernel::compile(&b, extent, OptLevel::Full);

        let mut reference: Option<Vec<u64>> = None;
        for proc in [Processor::Scalar, Processor::Simd] {
            let oa = run_bits(&ka, &cells, &params, proc);
            let ob = run_bits(&kb, &cells, &params, proc);
            prop_assert_eq!(&oa, &ob, "same fingerprint, different bits on {:?}", proc);
            match &reference {
                Some(bits) => prop_assert_eq!(bits, &oa, "{:?} diverged from Scalar", proc),
                None => reference = Some(oa),
            }
        }
    }

    /// Structural mutations — an extra node, a different load target, a
    /// different declared parameter count — always change the fingerprint.
    #[test]
    fn distinct_programs_get_distinct_fingerprints(
        expr in arb_expr(),
        dx in -2i64..=2,
        dy in -2i64..=2,
    ) {
        let base = program("p", expr.clone(), 2);
        let extended = program("p", expr.clone() + lit(0.123), 2);
        prop_assert_ne!(base.fingerprint(), extended.fingerprint());
        let wrapped = StencilProgram::new("p", load(dx, dy) + (load(0, 0) + expr.clone()), 2)
            .expect("valid");
        prop_assert_ne!(base.fingerprint(), wrapped.fingerprint());
        let more_params = program("p", expr.clone(), 3);
        prop_assert_ne!(base.fingerprint(), more_params.fingerprint());
    }
}
