//! # aohpc-bench — the evaluation harness
//!
//! One binary per table/figure of the paper's evaluation section (run with
//! `cargo run -p aohpc-bench --release --bin fig06_overhead`, etc.).  Each
//! harness prints the same rows/series the paper reports; problem sizes
//! follow [`aohpc_workloads::Scale`] (`AOHPC_SCALE=smoke|default|paper`).
//! Wall-clock questions go to the layer ledger (`benchmark/`), not here.
//!
//! This crate's library holds the pieces the harnesses share: workload
//! descriptions, runners for every execution mode, and the normalisation
//! helpers (the paper reports everything relative to either the handwritten
//! baseline or the single-task run).

#![forbid(unsafe_code)]

use aohpc::prelude::*;
use aohpc_baselines::{BaselineWork, HandwrittenParticle, HandwrittenSGrid, HandwrittenUsGrid};
use std::sync::Arc;

/// The three benchmark applications of the evaluation.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// Structured grid, 5-point Jacobi.
    SGrid {
        /// Region size.
        region: RegionSize,
    },
    /// Unstructured grid, 5-point Jacobi through neighbour indirection.
    UsGrid {
        /// Region size.
        region: RegionSize,
        /// CaseC or CaseR.
        layout: GridLayout,
    },
    /// Bucketed particle method.
    Particle {
        /// Number of particles.
        count: ParticleSize,
    },
}

impl Workload {
    /// The label used in the paper's figures (e.g. "SGrid 4096").
    pub fn label(&self) -> String {
        match self {
            Workload::SGrid { region } => format!("SGrid {}", region.nx),
            Workload::UsGrid { region, layout } => {
                format!("USGrid {} {}", layout.name(), region.nx)
            }
            Workload::Particle { count } => format!("Particle {count}"),
        }
    }
}

/// Shared initial condition of the grid workloads.
pub fn grid_init(x: i64, y: i64) -> f64 {
    SGridJacobiApp::initial_value(GlobalAddress::new2d(x, y))
}

/// Run a workload on the platform in the given mode and return the outcome.
pub fn run_platform(
    workload: Workload,
    mode: ExecutionMode,
    mmat: bool,
    dry_run: bool,
    scale: Scale,
) -> RunOutcome {
    let loops = scale.loop_count();
    let block = scale.grid_block_size();
    let platform = Platform::new(mode).with_mmat(mmat).with_dry_run(dry_run);
    match workload {
        Workload::SGrid { region } => {
            let system = Arc::new(SGridSystem::with_block_size(region, block));
            let app = SGridJacobiApp::new(loops, block);
            platform.run_system(system, app.factory())
        }
        Workload::UsGrid { region, layout } => {
            let system = UsGridSystem::with_block_size(region, block, layout);
            let app = UsGridJacobiApp::new(system.clone(), loops);
            platform.run_system(Arc::new(system), app.factory())
        }
        Workload::Particle { count } => {
            let system = ParticleSystem::paper(count);
            let app = ParticleApp::new(system.clone(), loops);
            platform.run_system(Arc::new(system), app.factory())
        }
    }
}

/// Run the handwritten baseline of a workload; returns its work summary.
pub fn run_handwritten(workload: Workload, scale: Scale) -> BaselineWork {
    let loops = scale.loop_count();
    match workload {
        Workload::SGrid { region } => HandwrittenSGrid::new(region, loops, grid_init).run().1,
        Workload::UsGrid { region, layout } => {
            HandwrittenUsGrid::new(region, layout, loops, grid_init).run().1
        }
        Workload::Particle { count } => HandwrittenParticle::new(count, loops).run().1,
    }
}

/// Simulated time of a handwritten baseline on the shared cost model, so the
/// Fig. 6 normalisation uses one time axis for every configuration.
pub fn baseline_seconds(work: &BaselineWork, cost: &CostModel) -> f64 {
    let p = cost.params;
    work.reads as f64 * p.t_read_skip + work.updates as f64 * (p.t_write + p.t_cell_arithmetic)
}

/// Format a value as a percentage of a reference (the paper's relative
/// execution time).
pub fn relative(value: f64, reference: f64) -> f64 {
    100.0 * value / reference
}

/// The Fig. 6 workload list for a scale: SGrid at two sizes, USGrid CaseC and
/// CaseR at two sizes, Particle at two counts.
pub fn fig6_workloads(scale: Scale) -> Vec<Workload> {
    let mut out = Vec::new();
    for region in scale.fig6_regions() {
        out.push(Workload::SGrid { region });
    }
    for layout in [GridLayout::CaseC, GridLayout::CaseR { seed: 42 }] {
        for region in scale.fig6_regions() {
            out.push(Workload::UsGrid { region, layout });
        }
    }
    for count in scale.fig6_particles() {
        out.push(Workload::Particle { count });
    }
    out
}

/// The four workloads used by every scaling figure (Figs. 7–11).
/// One weak-scaling table row: label, per-task workload builder, MMAT flag.
pub type WeakCase = (&'static str, Box<dyn Fn(usize) -> Workload>, bool);

pub fn scaling_workloads(
    scale: Scale,
    region: RegionSize,
    particles: ParticleSize,
) -> Vec<(Workload, bool)> {
    let _ = scale;
    vec![
        (Workload::SGrid { region }, false),
        (Workload::UsGrid { region, layout: GridLayout::CaseC }, true),
        (Workload::UsGrid { region, layout: GridLayout::CaseR { seed: 42 } }, true),
        (Workload::Particle { count: particles }, false),
    ]
}

/// Count the non-blank, non-comment lines of every `.rs` file under a
/// directory (Table II's metric).
pub fn count_loc(dir: &std::path::Path) -> usize {
    let mut total = 0usize;
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            total += count_loc(&path);
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(text) = std::fs::read_to_string(&path) {
                total += text
                    .lines()
                    .map(str::trim)
                    .filter(|l| {
                        !l.is_empty()
                            && !l.starts_with("//")
                            && !l.starts_with("//!")
                            && !l.starts_with("///")
                    })
                    .count();
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_workload_list_matches_paper_structure() {
        let w = fig6_workloads(Scale::Default);
        // 2 SGrid sizes + 2 layouts x 2 sizes + 2 particle counts = 8 columns.
        assert_eq!(w.len(), 8);
        assert!(w[0].label().starts_with("SGrid"));
        assert!(w[2].label().contains("CaseC"));
        assert!(w[4].label().contains("CaseR"));
        assert!(w[6].label().starts_with("Particle"));
    }

    #[test]
    fn relative_normalisation() {
        assert!((relative(2.0, 1.0) - 200.0).abs() < 1e-12);
        assert!((relative(0.5, 1.0) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn smoke_platform_and_baseline_run() {
        let scale = Scale::Smoke;
        for w in fig6_workloads(scale) {
            // The paper runs only USGrid with MMAT (SGrid and Particle decide
            // in-block membership arithmetically).
            let mmat = matches!(w, Workload::UsGrid { .. });
            let outcome = run_platform(w, ExecutionMode::PlatformDirect, mmat, true, scale);
            assert!(outcome.simulated_seconds > 0.0, "{}", w.label());
            let work = run_handwritten(w, scale);
            assert!(baseline_seconds(&work, &CostModel::default()) > 0.0);
        }
    }

    #[test]
    fn loc_counter_ignores_comments_and_blanks() {
        let dir = std::env::temp_dir().join("aohpc_loc_test");
        let _ = std::fs::create_dir_all(&dir);
        std::fs::write(dir.join("x.rs"), "// comment\n\nfn main() {\n}\n/// doc\n").unwrap();
        assert_eq!(count_loc(&dir), 2);
    }
}
