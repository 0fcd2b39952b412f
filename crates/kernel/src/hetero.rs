//! Heterogeneous block-to-processor scheduling.
//!
//! The paper's execution model assigns Blocks to *tasks*; its future work
//! adds a second dimension — "the subkernel and processor are not necessarily
//! homogeneous".  This module decides, per Block, which [`Processor`] backend
//! executes its compiled subkernel, and aggregates per-processor execution
//! statistics so the harnesses can report how work was split.

use crate::backend::{ExecStats, Processor};
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;

/// Why a [`SchedulePolicy`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum ScheduleError {
    /// A round-robin or weighted policy listed no processors.
    EmptyProcessorList,
    /// A weight is NaN or infinite.
    NonFiniteWeight {
        /// Index of the offending `(processor, weight)` entry.
        index: usize,
    },
    /// A weight is negative.
    NegativeWeight {
        /// Index of the offending `(processor, weight)` entry.
        index: usize,
    },
    /// Every weight is zero, so no processor would receive any block.
    ZeroTotalWeight,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::EmptyProcessorList => {
                write!(f, "scheduling needs at least one processor")
            }
            ScheduleError::NonFiniteWeight { index } => {
                write!(f, "weight at index {index} is NaN or infinite")
            }
            ScheduleError::NegativeWeight { index } => {
                write!(f, "weight at index {index} is negative")
            }
            ScheduleError::ZeroTotalWeight => write!(f, "weights must not all be zero"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// How blocks are mapped onto processor backends.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum SchedulePolicy {
    /// Every block on the same backend (homogeneous execution).
    Single(Processor),
    /// Blocks alternate over a processor list in Z-order.
    RoundRobin(Vec<Processor>),
    /// Contiguous Z-order shares proportional to the given weights (e.g. the
    /// lane backend takes 3/4 of the blocks, the scalar cores the rest).
    Weighted(Vec<(Processor, f64)>),
}

impl Default for SchedulePolicy {
    fn default() -> Self {
        SchedulePolicy::Single(Processor::Scalar)
    }
}

/// Assigns processors to blocks according to a [`SchedulePolicy`].
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct HeteroDispatcher {
    policy: SchedulePolicy,
}

impl HeteroDispatcher {
    /// Validate a policy into a dispatcher.
    ///
    /// Round-robin and weighted policies must list at least one processor;
    /// weights must be finite and non-negative.  One normalization rule is
    /// applied (and documented here): **zero-weight entries are dropped** —
    /// a zero share means "this processor receives no blocks", so the entry
    /// is removed rather than kept in the cumulative-share walk.  If every
    /// entry is dropped the policy is rejected with
    /// [`ScheduleError::ZeroTotalWeight`].
    pub fn try_new(policy: SchedulePolicy) -> Result<Self, ScheduleError> {
        let policy = match policy {
            SchedulePolicy::RoundRobin(list) => {
                if list.is_empty() {
                    return Err(ScheduleError::EmptyProcessorList);
                }
                SchedulePolicy::RoundRobin(list)
            }
            SchedulePolicy::Weighted(list) => {
                if list.is_empty() {
                    return Err(ScheduleError::EmptyProcessorList);
                }
                for (index, (_, w)) in list.iter().enumerate() {
                    if !w.is_finite() {
                        return Err(ScheduleError::NonFiniteWeight { index });
                    }
                    if *w < 0.0 {
                        return Err(ScheduleError::NegativeWeight { index });
                    }
                }
                let kept: Vec<(Processor, f64)> =
                    list.into_iter().filter(|(_, w)| *w > 0.0).collect();
                if kept.is_empty() {
                    return Err(ScheduleError::ZeroTotalWeight);
                }
                SchedulePolicy::Weighted(kept)
            }
            single => single,
        };
        Ok(HeteroDispatcher { policy })
    }

    /// [`HeteroDispatcher::try_new`], panicking on an invalid policy.
    pub fn new(policy: SchedulePolicy) -> Self {
        Self::try_new(policy).unwrap_or_else(|e| panic!("invalid schedule policy: {e}"))
    }

    /// Homogeneous execution on one backend.
    pub fn single(processor: Processor) -> Self {
        Self::new(SchedulePolicy::Single(processor))
    }

    /// The policy in use.
    pub fn policy(&self) -> &SchedulePolicy {
        &self.policy
    }

    /// The processor for the `index`-th of `total` blocks (blocks are indexed
    /// in the Z-order the platform assigns them in).
    pub fn processor_for(&self, index: usize, total: usize) -> Processor {
        match &self.policy {
            SchedulePolicy::Single(p) => *p,
            SchedulePolicy::RoundRobin(list) => list[index % list.len()],
            SchedulePolicy::Weighted(list) => {
                let total = total.max(1);
                let sum: f64 = list.iter().map(|(_, w)| *w).sum();
                // Walk the cumulative share until the index falls inside it.
                let mut boundary = 0.0;
                for (p, w) in list {
                    boundary += w / sum * total as f64;
                    if (index as f64) < boundary.round() {
                        return *p;
                    }
                }
                list.last().expect("validated non-empty").0
            }
        }
    }

    /// Assign every block of a task, returning `(block, processor)` pairs.
    pub fn assign<B: Copy>(&self, blocks: &[B]) -> Vec<(B, Processor)> {
        blocks.iter().enumerate().map(|(i, &b)| (b, self.processor_for(i, blocks.len()))).collect()
    }
}

/// Execution statistics broken down by processor backend.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct PerProcessorStats {
    by_processor: BTreeMap<&'static str, ExecStats>,
}

impl PerProcessorStats {
    /// Record the statistics of one block execution.
    pub fn record(&mut self, processor: Processor, stats: &ExecStats) {
        self.by_processor.entry(processor.name()).or_default().merge(stats);
    }

    /// Merge another record into this one.
    pub fn merge(&mut self, other: &PerProcessorStats) {
        for (name, stats) in &other.by_processor {
            self.by_processor.entry(name).or_default().merge(stats);
        }
    }

    /// The stats of one backend, if it executed anything.
    pub fn get(&self, processor: Processor) -> Option<&ExecStats> {
        self.by_processor.get(processor.name())
    }

    /// Iterate over `(backend name, stats)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &ExecStats)> {
        self.by_processor.iter().map(|(k, v)| (*k, v))
    }

    /// Aggregate over all backends.
    pub fn total(&self) -> ExecStats {
        let mut out = ExecStats::default();
        for stats in self.by_processor.values() {
            out.merge(stats);
        }
        out
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.by_processor.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_policy_is_uniform() {
        let d = HeteroDispatcher::single(Processor::Simd);
        for i in 0..10 {
            assert_eq!(d.processor_for(i, 10), Processor::Simd);
        }
    }

    #[test]
    fn round_robin_alternates() {
        let d = HeteroDispatcher::new(SchedulePolicy::RoundRobin(vec![
            Processor::Scalar,
            Processor::Simd,
            Processor::Simd,
        ]));
        let assigned = d.assign(&[10usize, 11, 12, 13, 14, 15]);
        assert_eq!(assigned[0].1, Processor::Scalar);
        assert_eq!(assigned[1].1, Processor::Simd);
        assert_eq!(assigned[2].1, Processor::Simd);
        assert_eq!(assigned[3].1, Processor::Scalar);
        assert_eq!(assigned.len(), 6);
    }

    #[test]
    fn weighted_split_respects_proportions() {
        let d = HeteroDispatcher::new(SchedulePolicy::Weighted(vec![
            (Processor::Simd, 3.0),
            (Processor::Scalar, 1.0),
        ]));
        let blocks: Vec<usize> = (0..16).collect();
        let assigned = d.assign(&blocks);
        let simd = assigned.iter().filter(|(_, p)| *p == Processor::Simd).count();
        let scalar = assigned.iter().filter(|(_, p)| *p == Processor::Scalar).count();
        assert_eq!(simd, 12);
        assert_eq!(scalar, 4);
        // The first entry takes the first (Z-order-contiguous) share.
        assert!(assigned[..12].iter().all(|(_, p)| *p == Processor::Simd));
    }

    #[test]
    fn weighted_covers_every_block_even_with_rounding() {
        let d = HeteroDispatcher::new(SchedulePolicy::Weighted(vec![
            (Processor::Simd, 1.0),
            (Processor::Scalar, 1.0),
            (Processor::Simd, 1.0),
        ]));
        for total in 1..20usize {
            let blocks: Vec<usize> = (0..total).collect();
            let assigned = d.assign(&blocks);
            assert_eq!(assigned.len(), total);
        }
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn empty_round_robin_is_rejected() {
        HeteroDispatcher::new(SchedulePolicy::RoundRobin(vec![]));
    }

    #[test]
    fn degenerate_weighted_policies_are_rejected() {
        assert_eq!(
            HeteroDispatcher::try_new(SchedulePolicy::Weighted(vec![])),
            Err(ScheduleError::EmptyProcessorList)
        );
        assert_eq!(
            HeteroDispatcher::try_new(SchedulePolicy::Weighted(vec![
                (Processor::Scalar, 1.0),
                (Processor::Simd, f64::NAN),
            ])),
            Err(ScheduleError::NonFiniteWeight { index: 1 })
        );
        assert_eq!(
            HeteroDispatcher::try_new(SchedulePolicy::Weighted(vec![(
                Processor::Scalar,
                f64::INFINITY
            )])),
            Err(ScheduleError::NonFiniteWeight { index: 0 })
        );
        assert_eq!(
            HeteroDispatcher::try_new(SchedulePolicy::Weighted(vec![
                (Processor::Scalar, -0.5),
                (Processor::Simd, 1.0),
            ])),
            Err(ScheduleError::NegativeWeight { index: 0 })
        );
        assert_eq!(
            HeteroDispatcher::try_new(SchedulePolicy::Weighted(vec![
                (Processor::Scalar, 0.0),
                (Processor::Simd, 0.0),
            ])),
            Err(ScheduleError::ZeroTotalWeight)
        );
        assert_eq!(
            HeteroDispatcher::try_new(SchedulePolicy::RoundRobin(vec![])),
            Err(ScheduleError::EmptyProcessorList)
        );
        // Error values render a reason.
        assert!(ScheduleError::ZeroTotalWeight.to_string().contains("zero"));
        assert!(ScheduleError::EmptyProcessorList.to_string().contains("at least one"));
    }

    #[test]
    fn zero_weight_entries_are_normalized_out() {
        let d = HeteroDispatcher::try_new(SchedulePolicy::Weighted(vec![
            (Processor::Simd, 0.0),
            (Processor::Scalar, 2.0),
        ]))
        .unwrap();
        // The documented rule: a zero share means "no blocks", so the entry
        // disappears from the stored policy and every block goes elsewhere.
        assert_eq!(d.policy(), &SchedulePolicy::Weighted(vec![(Processor::Scalar, 2.0)]));
        for i in 0..8 {
            assert_eq!(d.processor_for(i, 8), Processor::Scalar);
        }
    }

    #[test]
    fn valid_policies_pass_try_new() {
        assert!(HeteroDispatcher::try_new(SchedulePolicy::Single(Processor::Simd)).is_ok());
        assert!(
            HeteroDispatcher::try_new(SchedulePolicy::RoundRobin(vec![Processor::Scalar])).is_ok()
        );
        let d = HeteroDispatcher::try_new(SchedulePolicy::Weighted(vec![
            (Processor::Simd, 3.0),
            (Processor::Scalar, 1.0),
        ]))
        .unwrap();
        assert_eq!(d.processor_for(0, 16), Processor::Simd);
    }

    #[test]
    fn per_processor_stats_aggregate() {
        let mut stats = PerProcessorStats::default();
        stats.record(Processor::Scalar, &ExecStats { cells: 10, blocks: 1, ..Default::default() });
        stats.record(
            Processor::Simd,
            &ExecStats { cells: 30, blocks: 2, vector_ops: 9, ..Default::default() },
        );
        stats.record(Processor::Scalar, &ExecStats { cells: 5, blocks: 1, ..Default::default() });
        assert_eq!(stats.get(Processor::Scalar).unwrap().cells, 15);
        assert_eq!(stats.get(Processor::Simd).unwrap().vector_ops, 9);
        assert_eq!(stats.total().cells, 45);
        assert_eq!(stats.total().blocks, 4);
        assert_eq!(stats.iter().count(), 2);

        let mut merged = PerProcessorStats::default();
        merged.merge(&stats);
        merged.merge(&stats);
        assert_eq!(merged.total().cells, 90);
        assert!(!merged.is_empty());
        assert!(PerProcessorStats::default().is_empty());
    }

    #[test]
    fn default_policy_is_scalar() {
        assert_eq!(SchedulePolicy::default(), SchedulePolicy::Single(Processor::Scalar));
        assert_eq!(HeteroDispatcher::default().processor_for(0, 1), Processor::Scalar);
    }
}
