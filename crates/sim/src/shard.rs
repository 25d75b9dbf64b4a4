//! Partitioning one layer's simulation across workers.
//!
//! The column scheduler ([`crate::sched`]) already organizes a layer's
//! CTA grid into tile columns drained one [`crate::stages::CtaBatch`] at
//! a time, and all state a batch mutates is either per-batch
//! ([`crate::stages::BatchStats`]) or per-column (cache residency warms
//! up within a column and the steady state is extrapolated per column).
//! That makes the tile column the natural ownership unit for intra-layer
//! parallelism, and it matches the analytical model, in which every
//! tile column refetches the IFmap (paper Eq. 10). A [`ShardPlan`]
//! assigns each worker a disjoint, contiguous range of columns, every
//! worker replays its columns' batches against its own
//! [`crate::hierarchy::MemoryHierarchy`], and the per-shard results
//! merge through [`crate::hierarchy::HierarchyStats::merge`].
//!
//! Because each column is simulated from identical initial state no
//! matter which worker owns it, and the merge walks columns in ascending
//! index order no matter how they were grouped, the merged
//! [`crate::Measurement`] is bitwise identical for every worker count —
//! `shards=4` reproduces `shards=1` exactly, only faster.
//!
//! The column is the only unit: a layer with fewer columns than workers
//! keeps `min(workers, columns)` of them busy and leaves the rest with
//! empty shards. Narrow layers (Co ≤ 128 ⇒ 1–2 tile columns) therefore
//! do not speed up past their column count, and their answer is the
//! one-worker answer by construction.

use std::ops::Range;

/// A balanced, disjoint, exhaustive assignment of a layer's tile columns
/// to `n_workers` shards.
///
/// Shard `i` owns the contiguous column range `[i·C/N, (i+1)·C/N)`
/// (integer arithmetic), so shard sizes differ by at most one column and
/// concatenating the shards in order re-yields `0..C`. When
/// `n_workers > columns` the surplus shards are empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    columns: u64,
    shards: Vec<Range<u64>>,
}

impl ShardPlan {
    /// Partitions `columns` tile columns over `n_workers` workers
    /// (`n_workers = 0` is clamped to 1).
    pub fn partition(columns: u64, n_workers: u32) -> ShardPlan {
        let n = u64::from(n_workers.max(1));
        let shards = (0..n)
            .map(|i| (i * columns / n)..((i + 1) * columns / n))
            .collect();
        ShardPlan { columns, shards }
    }

    /// Number of columns partitioned.
    pub fn columns(&self) -> u64 {
        self.columns
    }

    /// Number of shards (= workers), including empty ones.
    pub fn n_workers(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard column ranges, in ascending order.
    pub fn shards(&self) -> &[Range<u64>] {
        &self.shards
    }

    /// The shard owning `col`.
    ///
    /// # Panics
    ///
    /// Panics when `col` is outside the partitioned range.
    pub fn shard_of(&self, col: u64) -> usize {
        assert!(col < self.columns, "column {col} beyond {}", self.columns);
        self.shards
            .iter()
            .position(|r| r.contains(&col))
            .expect("contiguous ranges cover 0..columns")
    }

    /// Largest shard size in columns (the parallel critical path).
    pub fn max_shard_len(&self) -> u64 {
        self.shards
            .iter()
            .map(|r| r.end - r.start)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cover(plan: &ShardPlan) -> Vec<u64> {
        plan.shards().iter().flat_map(|r| r.clone()).collect()
    }

    #[test]
    fn partition_is_disjoint_and_exhaustive() {
        for (cols, workers) in [(1, 1), (7, 3), (16, 4), (5, 8), (100, 7), (3, 64)] {
            let plan = ShardPlan::partition(cols, workers);
            assert_eq!(plan.n_workers(), workers as usize);
            let seen = cover(&plan);
            assert_eq!(
                seen,
                (0..cols).collect::<Vec<_>>(),
                "cols={cols} workers={workers}: shards must concatenate to 0..C in order"
            );
        }
    }

    #[test]
    fn partition_is_balanced() {
        let plan = ShardPlan::partition(10, 4);
        let sizes: Vec<u64> = plan.shards().iter().map(|r| r.end - r.start).collect();
        assert_eq!(sizes.iter().sum::<u64>(), 10);
        assert!(sizes.iter().all(|s| (2..=3).contains(s)), "{sizes:?}");
        assert_eq!(plan.max_shard_len(), 3);
    }

    #[test]
    fn more_workers_than_columns_leaves_empty_shards() {
        let plan = ShardPlan::partition(2, 6);
        assert_eq!(plan.n_workers(), 6);
        assert_eq!(cover(&plan), vec![0, 1]);
        let empties = plan.shards().iter().filter(|r| r.is_empty()).count();
        assert_eq!(empties, 4);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let plan = ShardPlan::partition(5, 0);
        assert_eq!(plan.n_workers(), 1);
        assert_eq!(plan.shards()[0], 0..5);
        assert_eq!(plan.max_shard_len(), 5);
    }

    #[test]
    fn shard_of_locates_owner() {
        let plan = ShardPlan::partition(9, 3);
        for col in 0..9 {
            let s = plan.shard_of(col);
            assert!(plan.shards()[s].contains(&col));
        }
        assert_eq!(plan.shard_of(0), 0);
        assert_eq!(plan.shard_of(8), 2);
    }

    #[test]
    fn column_axis_segments_are_whole_columns() {
        // The tile column is the only shard unit: a shard owns whole
        // columns, never a part of one.
        let plan = ShardPlan::partition(4, 2);
        assert_eq!(plan.shards()[1], 2..4);
        assert_eq!(plan.shard_of(2), 1);
        assert_eq!(plan.shard_of(3), 1);
        assert_eq!(plan.max_shard_len(), 2);
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn shard_of_rejects_out_of_range() {
        ShardPlan::partition(4, 2).shard_of(4);
    }
}
