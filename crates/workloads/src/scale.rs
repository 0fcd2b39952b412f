//! Problem-size classes for the evaluation harnesses.
//!
//! Every figure of the paper fixes a region size (structured / unstructured
//! grid) or a particle count.  Reproducing those sizes verbatim (4096² cells,
//! 2¹⁸ particles, 64 ranks) on a single-core container would take hours per
//! figure, so each harness accepts a [`Scale`]:
//!
//! * `Paper` — the sizes printed in the paper;
//! * `Default` — every dimension divided so a figure regenerates in roughly a
//!   minute, preserving the block-to-task and halo-to-interior ratios that
//!   drive the reported effects;
//! * `Smoke` — minimal sizes for CI and unit tests.
//!
//! Harnesses select the scale from the `AOHPC_SCALE` environment variable
//! (`paper`, `default`, `smoke`) or a `--scale` flag.

use std::fmt;

/// Size class of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Minimal sizes for tests.
    Smoke,
    /// Container-friendly sizes (default).
    #[default]
    Default,
    /// The paper's sizes.
    Paper,
}

/// Error returned by [`Scale::parse`] for an unrecognised size class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleParseError {
    /// The rejected input.
    pub value: String,
}

impl fmt::Display for ScaleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown scale {:?} (expected one of: smoke, ci, default, paper, full)",
            self.value
        )
    }
}

impl std::error::Error for ScaleParseError {}

impl Scale {
    /// Parse from a string (case-insensitive).
    ///
    /// Unknown values are an error — they used to fall back to `Default`
    /// silently, which turned a typo in `AOHPC_SCALE=paper` into a quietly
    /// wrong (400× smaller) experiment.
    pub fn parse(s: &str) -> Result<Scale, ScaleParseError> {
        match s.to_ascii_lowercase().as_str() {
            "smoke" | "ci" => Ok(Scale::Smoke),
            "default" => Ok(Scale::Default),
            "paper" | "full" => Ok(Scale::Paper),
            _ => Err(ScaleParseError { value: s.to_string() }),
        }
    }

    /// Read the scale from the `AOHPC_SCALE` environment variable.
    ///
    /// An unset variable means `Default`; a set-but-unrecognised value also
    /// falls back to `Default` but prints a warning to stderr (the harness
    /// binaries have no other channel, and aborting a long sweep over a typo
    /// in an auxiliary knob would be worse).
    pub fn from_env() -> Scale {
        match std::env::var("AOHPC_SCALE") {
            Err(_) => Scale::Default,
            Ok(raw) => Scale::parse(&raw).unwrap_or_else(|e| {
                eprintln!("warning: AOHPC_SCALE: {e}; using the default scale");
                Scale::Default
            }),
        }
    }

    /// The region sizes of the single-task overhead experiment (Fig. 6):
    /// the paper uses 2048² and 4096².
    pub fn fig6_regions(&self) -> Vec<RegionSize> {
        match self {
            Scale::Smoke => vec![RegionSize::square(32)],
            Scale::Default => vec![RegionSize::square(128), RegionSize::square(256)],
            Scale::Paper => vec![RegionSize::square(2048), RegionSize::square(4096)],
        }
    }

    /// The particle counts of Fig. 6 (paper: 2¹⁶ and 2¹⁸).
    pub fn fig6_particles(&self) -> Vec<ParticleSize> {
        match self {
            Scale::Smoke => vec![ParticleSize::new(1 << 8)],
            Scale::Default => vec![ParticleSize::new(1 << 10), ParticleSize::new(1 << 12)],
            Scale::Paper => vec![ParticleSize::new(1 << 16), ParticleSize::new(1 << 18)],
        }
    }

    /// Region size used by the scaling experiments (paper: 4096²).
    pub fn scaling_region(&self) -> RegionSize {
        match self {
            Scale::Smoke => RegionSize::square(32),
            Scale::Default => RegionSize::square(256),
            Scale::Paper => RegionSize::square(4096),
        }
    }

    /// Per-task region size used by the weak-scaling experiments
    /// (paper: 2048² per task).
    pub fn weak_scaling_region_per_task(&self) -> RegionSize {
        match self {
            Scale::Smoke => RegionSize::square(16),
            Scale::Default => RegionSize::square(128),
            Scale::Paper => RegionSize::square(2048),
        }
    }

    /// Particle count used by the strong-scaling experiments (paper: 2¹⁸).
    pub fn scaling_particles(&self) -> ParticleSize {
        match self {
            Scale::Smoke => ParticleSize::new(1 << 8),
            Scale::Default => ParticleSize::new(1 << 12),
            Scale::Paper => ParticleSize::new(1 << 18),
        }
    }

    /// Per-task particle count for weak scaling (paper: 2¹⁶ per task).
    pub fn weak_scaling_particles_per_task(&self) -> ParticleSize {
        match self {
            Scale::Smoke => ParticleSize::new(1 << 7),
            Scale::Default => ParticleSize::new(1 << 10),
            Scale::Paper => ParticleSize::new(1 << 16),
        }
    }

    /// Region size of the memory-usage experiment (Fig. 12; paper: 512²).
    pub fn fig12_region(&self) -> RegionSize {
        match self {
            Scale::Smoke => RegionSize::square(32),
            Scale::Default => RegionSize::square(128),
            Scale::Paper => RegionSize::square(512),
        }
    }

    /// Particle count of the memory-usage experiment (paper: 2¹⁴).
    pub fn fig12_particles(&self) -> ParticleSize {
        match self {
            Scale::Smoke => ParticleSize::new(1 << 7),
            Scale::Default => ParticleSize::new(1 << 9),
            Scale::Paper => ParticleSize::new(1 << 14),
        }
    }

    /// Memory-pool size of the Fig. 12 experiment (paper: 300 MB).
    pub fn fig12_pool_bytes(&self) -> u64 {
        match self {
            Scale::Smoke => 8 << 20,
            Scale::Default => 32 << 20,
            Scale::Paper => 300 << 20,
        }
    }

    /// Block size (cells per side) of the grid DSLs (paper: 256).
    pub fn grid_block_size(&self) -> usize {
        match self {
            Scale::Smoke => 8,
            Scale::Default => 32,
            Scale::Paper => 256,
        }
    }

    /// Number of main-loop iterations for the timed benchmarks.
    pub fn loop_count(&self) -> usize {
        match self {
            Scale::Smoke => 3,
            Scale::Default => 8,
            Scale::Paper => 50,
        }
    }

    /// MPI process counts of the strong-scaling experiment (Fig. 7).
    pub fn strong_scaling_processes(&self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![1, 2],
            _ => vec![1, 2, 4, 8, 16],
        }
    }

    /// MPI process counts of the weak-scaling experiment (Fig. 8).
    pub fn weak_scaling_processes(&self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![1, 4],
            Scale::Default => vec![1, 4, 16],
            Scale::Paper => vec![1, 4, 16, 64],
        }
    }

    /// OpenMP thread counts of the OpenMP scaling experiments (Figs. 9–10).
    pub fn omp_thread_counts(&self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![1, 2],
            _ => vec![1, 2, 4, 8, 16],
        }
    }

    /// The (processes × threads) combinations of Fig. 11.
    pub fn hybrid_combinations(&self) -> Vec<(usize, usize)> {
        match self {
            Scale::Smoke => vec![(1, 4), (2, 2), (4, 1)],
            _ => vec![(1, 16), (2, 8), (4, 4), (8, 2), (16, 1)],
        }
    }

    // --- kernel-execution service workloads -------------------------------

    /// Number of concurrent tenants the service harnesses simulate.
    pub fn service_tenants(&self) -> usize {
        match self {
            Scale::Smoke => 4,
            Scale::Default => 6,
            Scale::Paper => 16,
        }
    }

    /// Jobs each tenant submits per round.
    pub fn service_jobs_per_tenant(&self) -> usize {
        match self {
            Scale::Smoke => 2,
            Scale::Default => 4,
            Scale::Paper => 16,
        }
    }

    /// Region size of one service job (small relative to the figure harnesses
    /// — a service run executes many jobs).
    pub fn service_region(&self) -> RegionSize {
        match self {
            Scale::Smoke => RegionSize::square(24),
            Scale::Default => RegionSize::square(64),
            Scale::Paper => RegionSize::square(256),
        }
    }

    /// Block size (cells per side) of a service job.
    pub fn service_block_size(&self) -> usize {
        match self {
            Scale::Smoke => 8,
            Scale::Default => 16,
            Scale::Paper => 64,
        }
    }

    /// Time steps of one service job.
    pub fn service_steps(&self) -> usize {
        match self {
            Scale::Smoke => 2,
            Scale::Default => 4,
            Scale::Paper => 16,
        }
    }

    /// Worker-pool size of the service harnesses.
    pub fn service_workers(&self) -> usize {
        match self {
            Scale::Smoke => 4,
            Scale::Default => 4,
            Scale::Paper => 8,
        }
    }
}

impl fmt::Display for Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scale::Smoke => write!(f, "smoke"),
            Scale::Default => write!(f, "default"),
            Scale::Paper => write!(f, "paper"),
        }
    }
}

/// Size of a square (or rectangular) grid region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionSize {
    /// Cells along X.
    pub nx: usize,
    /// Cells along Y.
    pub ny: usize,
}

impl RegionSize {
    /// A square region of side `n`.
    pub const fn square(n: usize) -> Self {
        RegionSize { nx: n, ny: n }
    }

    /// Total cell count.
    pub fn cells(&self) -> usize {
        self.nx * self.ny
    }
}

impl fmt::Display for RegionSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.nx, self.ny)
    }
}

/// Particle-count workload size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParticleSize {
    /// Number of movable particles.
    pub count: usize,
}

impl ParticleSize {
    /// A workload of `count` particles.
    pub const fn new(count: usize) -> Self {
        ParticleSize { count }
    }
}

impl fmt::Display for ParticleSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count.is_power_of_two() {
            write!(f, "2^{}", self.count.trailing_zeros())
        } else {
            write!(f, "{}", self.count)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        assert_eq!(Scale::parse("paper"), Ok(Scale::Paper));
        assert_eq!(Scale::parse("SMOKE"), Ok(Scale::Smoke));
        assert_eq!(Scale::parse("ci"), Ok(Scale::Smoke));
        assert_eq!(Scale::parse("default"), Ok(Scale::Default));
        assert_eq!(Scale::parse("full"), Ok(Scale::Paper));
        assert_eq!(Scale::Paper.to_string(), "paper");
        assert_eq!(Scale::default(), Scale::Default);
    }

    #[test]
    fn unknown_scales_are_an_error_not_a_silent_default() {
        let err = Scale::parse("anything").unwrap_err();
        assert_eq!(err.value, "anything");
        assert!(err.to_string().contains("anything"));
        assert!(err.to_string().contains("smoke"), "the message lists the accepted values");
        assert!(Scale::parse("").is_err());
    }

    #[test]
    fn service_dimensions_shrink_with_scale() {
        for (small, big) in [(Scale::Smoke, Scale::Default), (Scale::Default, Scale::Paper)] {
            assert!(small.service_region().cells() <= big.service_region().cells());
            assert!(small.service_tenants() <= big.service_tenants());
            assert!(small.service_jobs_per_tenant() <= big.service_jobs_per_tenant());
            assert!(small.service_steps() <= big.service_steps());
        }
        // Regions divide evenly into blocks at every scale, so a service run
        // exercises exactly one block shape (one plan-cache entry per
        // program).
        for s in [Scale::Smoke, Scale::Default, Scale::Paper] {
            assert_eq!(s.service_region().nx % s.service_block_size(), 0);
            assert_eq!(s.service_region().ny % s.service_block_size(), 0);
            assert!(s.service_workers() >= 1);
        }
    }

    #[test]
    fn paper_scale_matches_published_parameters() {
        let s = Scale::Paper;
        assert_eq!(s.fig6_regions(), vec![RegionSize::square(2048), RegionSize::square(4096)]);
        assert_eq!(s.fig6_particles()[0].count, 1 << 16);
        assert_eq!(s.fig6_particles()[1].count, 1 << 18);
        assert_eq!(s.scaling_region(), RegionSize::square(4096));
        assert_eq!(s.weak_scaling_region_per_task(), RegionSize::square(2048));
        assert_eq!(s.fig12_region(), RegionSize::square(512));
        assert_eq!(s.fig12_pool_bytes(), 300 << 20);
        assert_eq!(s.grid_block_size(), 256);
        assert_eq!(s.strong_scaling_processes(), vec![1, 2, 4, 8, 16]);
        assert_eq!(s.weak_scaling_processes(), vec![1, 4, 16, 64]);
        assert_eq!(s.hybrid_combinations().len(), 5);
        assert_eq!(s.hybrid_combinations()[0], (1, 16));
    }

    #[test]
    fn smaller_scales_shrink_every_dimension() {
        for (small, big) in [(Scale::Smoke, Scale::Default), (Scale::Default, Scale::Paper)] {
            assert!(small.scaling_region().cells() < big.scaling_region().cells());
            assert!(small.scaling_particles().count <= big.scaling_particles().count);
            assert!(small.grid_block_size() <= big.grid_block_size());
            assert!(small.loop_count() <= big.loop_count());
        }
    }

    #[test]
    fn region_and_particle_display() {
        assert_eq!(RegionSize::square(2048).to_string(), "2048x2048");
        assert_eq!(ParticleSize::new(1 << 16).to_string(), "2^16");
        assert_eq!(ParticleSize::new(1000).to_string(), "1000");
        assert_eq!(RegionSize::square(8).cells(), 64);
    }
}
