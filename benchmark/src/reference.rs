//! Independent references: what every job's checksum is compared with, and
//! (the hand-written ones) the base of `platform_overhead_x`.
//!
//! Nothing here goes through `env`, `runtime` or `service`.  The stock
//! programs run as the paper's hand-written serial codes
//! (`aohpc_baselines::Handwritten*`); any other stencil (smooth-9pt, the
//! cold pool) runs as a dense double-buffered loop over
//! `StencilProgram::eval`, with out-of-region reads 0.0.

use crate::workloads::Kind;
use aohpc_baselines::{HandwrittenParticle, HandwrittenSGrid, HandwrittenUsGrid};
use aohpc_dsl::UsGridJacobiApp;
use aohpc_env::GlobalAddress;
use aohpc_kernel::{default_initial_value, FamilyProgram, StencilProgram};
use aohpc_workloads::{checksum, GridLayout, ParticleSize, RegionSize};

fn stencil_init(x: i64, y: i64) -> f64 {
    default_initial_value(GlobalAddress::new2d(x, y))
}

/// Dense double-buffered sweep of any stencil program.
fn dense_eval(program: &StencilProgram, params: &[f64], region: RegionSize, steps: usize) -> f64 {
    let (nx, ny) = (region.nx as i64, region.ny as i64);
    let mut read: Vec<f64> =
        (0..ny).flat_map(|y| (0..nx).map(move |x| stencil_init(x, y))).collect();
    let mut write = vec![0.0; read.len()];
    for _ in 0..steps {
        for y in 0..ny {
            for x in 0..nx {
                let mut at = |dx: i64, dy: i64| {
                    let (px, py) = (x + dx, y + dy);
                    if px < 0 || py < 0 || px >= nx || py >= ny {
                        0.0
                    } else {
                        read[(py * nx + px) as usize]
                    }
                };
                write[(y * nx + x) as usize] = program.eval(&mut at, params);
            }
        }
        std::mem::swap(&mut read, &mut write);
    }
    checksum(read)
}

/// Whether `kind`'s reference is one of the paper's hand-written codes, and
/// so a base for `platform_overhead_x`.  The dense loop is not: it evaluates
/// the platform's own expression tree, so its speed moves with `crates/kernel`.
pub fn is_handwritten(kind: &Kind) -> bool {
    match &kind.spec.program {
        FamilyProgram::Stencil(program) => program.same_structure(&StencilProgram::jacobi_5pt()),
        FamilyProgram::UsGrid(_) | FamilyProgram::Particle(_) => true,
    }
}

/// Run the reference of `kind` once; returns the checksum of its final
/// field, folded like the platform folds it.
pub fn run_once(kind: &Kind) -> f64 {
    let spec = &kind.spec;
    match &spec.program {
        FamilyProgram::Stencil(_) if is_handwritten(kind) => {
            let mut code = HandwrittenSGrid::new(spec.region, spec.steps, stencil_init);
            (code.alpha, code.beta) = (spec.params[0], spec.params[1]);
            checksum(code.run().0.field().iter().copied())
        }
        FamilyProgram::Stencil(program) => {
            dense_eval(program, &spec.params, spec.region, spec.steps)
        }
        FamilyProgram::UsGrid(_) => {
            let mut code = HandwrittenUsGrid::new(
                spec.region,
                GridLayout::CaseC,
                spec.steps,
                UsGridJacobiApp::initial_value,
            );
            (code.alpha, code.beta) = (spec.params[0], spec.params[1]);
            checksum(code.run().0)
        }
        FamilyProgram::Particle(_) => {
            let count = spec.particles.expect("particle kinds carry their count");
            let mut code = HandwrittenParticle::new(ParticleSize::new(count), spec.steps);
            (code.radius, code.dt) = (spec.params[0], spec.params[1]);
            checksum(code.run().0)
        }
    }
}

/// Whether `got` is within 1e-9 relative of `want`.
pub fn agrees(got: f64, want: f64) -> bool {
    got.is_finite() && (got - want).abs() <= 1e-9 * want.abs().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Plan, WorkloadId};

    #[test]
    fn dense_eval_agrees_with_the_handwritten_jacobi() {
        let plan = Plan::build(WorkloadId::SgridJacobi, 4, true);
        let kind = &plan.kinds[0];
        let by_hand = run_once(kind);
        let dense = dense_eval(
            &StencilProgram::jacobi_5pt(),
            &kind.spec.params,
            kind.spec.region,
            kind.spec.steps,
        );
        assert!(agrees(dense, by_hand), "{dense} vs {by_hand}");
    }

    #[test]
    fn agreement_is_relative() {
        assert!(agrees(1e6 + 1e-4, 1e6));
        assert!(!agrees(1e6 + 1.0, 1e6));
        assert!(!agrees(f64::NAN, 1.0));
    }
}
