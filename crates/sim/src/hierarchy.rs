//! The simulated memory hierarchy: per-SM L1 caches, a shared L2, and
//! DRAM counters.
//!
//! Traffic accounting matches the profiler quantities the paper reports:
//!
//! * **L1 traffic** = L1 requests × request size (coalesced warp
//!   transactions, 128 B on Pascal / 32 B on Volta);
//! * **L2 traffic** = L1 sector misses × 32 B;
//! * **DRAM traffic** = L2 sector misses × 32 B (reads) plus streamed
//!   OFmap writes.

use crate::cache::{sector_count, CacheStats, SectoredCache};
use crate::coalesce::{self, Transaction};
use delta_model::{GpuSpec, SECTOR_BYTES};
use serde::{Deserialize, Serialize};

/// Byte counters for one batch of accesses (used by the timing engine).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficDelta {
    /// Bytes through the L1 request path.
    pub l1_bytes: u64,
    /// Bytes requested from L2 (L1 miss fills).
    pub l2_bytes: u64,
    /// Bytes read from DRAM (L2 miss fills).
    pub dram_bytes: u64,
}

impl TrafficDelta {
    /// Element-wise accumulation.
    pub fn add(&mut self, other: TrafficDelta) {
        self.l1_bytes += other.l1_bytes;
        self.l2_bytes += other.l2_bytes;
        self.dram_bytes += other.dram_bytes;
    }
}

/// Associatively mergeable summary of one hierarchy's activity: every
/// counter a [`crate::sim::Measurement`] needs, with none of the
/// residency state (tags, LRU stamps) that cannot be combined across
/// independent walkers.
///
/// This is the merge unit behind sharded simulation: each shard runs its
/// own [`MemoryHierarchy`] over a disjoint column set, snapshots it, and
/// the per-shard snapshots [`merge`](HierarchyStats::merge) into exactly
/// the totals a single worker replaying the same accesses would have
/// counted — all fields are plain `u64` sums.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyStats {
    /// Cumulative read-traffic byte totals (L1/L2/DRAM).
    pub reads: TrafficDelta,
    /// Aggregated L1 hit/miss statistics across all SMs.
    pub l1: CacheStats,
    /// L2 hit/miss statistics.
    pub l2: CacheStats,
    /// Write bytes through L2 (epilogue stores).
    pub l2_write_bytes: u64,
    /// Write bytes drained to DRAM (epilogue stores).
    pub dram_write_bytes: u64,
    /// Unique bytes streamed through the L2 by [`MemoryHierarchy::age_l2`]
    /// on behalf of extrapolated (unsimulated) batches and loops — the
    /// steady-state aging pressure, carried so merged shards account for
    /// the same eviction volume the unsharded walker applied.
    pub aged_l2_bytes: u64,
}

impl HierarchyStats {
    /// Accumulates `other` into `self`. Associative and commutative:
    /// every field is an unsigned sum, so any merge tree over the same
    /// shard set yields identical totals.
    pub fn merge(&mut self, other: &HierarchyStats) {
        self.reads.add(other.reads);
        self.l1.merge(other.l1);
        self.l2.merge(other.l2);
        self.l2_write_bytes += other.l2_write_bytes;
        self.dram_write_bytes += other.dram_write_bytes;
        self.aged_l2_bytes += other.aged_l2_bytes;
    }
}

/// A memory hierarchy whose measured statistics can be extracted as an
/// associatively mergeable snapshot — the contract sharded (and, later,
/// multi-GPU) simulation builds on: run N independent hierarchies over
/// disjoint work partitions, then combine their [`HierarchyStats`]
/// exactly.
pub trait MergeableHierarchy {
    /// The mergeable summary of everything this hierarchy has counted.
    fn snapshot(&self) -> HierarchyStats;
}

/// The simulated L1s + L2 + DRAM counters for one device.
#[derive(Debug)]
pub struct MemoryHierarchy {
    l1s: Vec<SectoredCache>,
    l2: SectoredCache,
    l1_request_bytes: u32,
    totals: TrafficDelta,
    dram_write_bytes: u64,
    l2_write_bytes: u64,
    aging_cursor: u64,
    aged_l2_bytes: u64,
}

impl MemoryHierarchy {
    /// Builds the hierarchy described by `gpu` (L1 4-way per SM, L2
    /// 16-way shared).
    pub fn new(gpu: &GpuSpec) -> MemoryHierarchy {
        MemoryHierarchy {
            l1s: (0..gpu.num_sm())
                .map(|_| SectoredCache::new(gpu.l1_bytes_per_sm(), 4))
                .collect(),
            l2: SectoredCache::new(gpu.l2_bytes(), 16),
            l1_request_bytes: gpu.l1_request_bytes(),
            totals: TrafficDelta::default(),
            dram_write_bytes: 0,
            l2_write_bytes: 0,
            aging_cursor: 0,
            aged_l2_bytes: 0,
        }
    }

    /// Issues one warp's coalesced transactions from SM `sm`; returns the
    /// per-level byte deltas of this access.
    pub fn warp_load(&mut self, sm: usize, transactions: &[Transaction]) -> TrafficDelta {
        let mut delta = TrafficDelta {
            l1_bytes: coalesce::request_bytes(transactions, self.l1_request_bytes),
            ..TrafficDelta::default()
        };
        debug_assert!(sm < self.l1s.len(), "SM {sm} of {}", self.l1s.len());
        let l1 = &mut self.l1s[sm];
        for t in transactions {
            let missed = l1.access(t.line, t.sector_mask);
            if missed != 0 {
                delta.l2_bytes += sector_count(missed) * SECTOR_BYTES;
                let dram_mask = self.l2.access(t.line, missed);
                delta.dram_bytes += sector_count(dram_mask) * SECTOR_BYTES;
            }
        }
        self.totals.add(delta);
        delta
    }

    /// Records `bytes` of epilogue OFmap stores. GPU global stores write
    /// through to L2 and drain to DRAM; they do not allocate in L1 and —
    /// for the streaming OFmap pattern — do not benefit from L2
    /// residency, so both levels count the full sector volume and no
    /// cache state changes.
    pub fn count_stores(&mut self, bytes: u64) {
        self.l2_write_bytes += bytes;
        self.dram_write_bytes += bytes;
    }

    /// Emulates `bytes` of *unique* traffic streaming through the L2 —
    /// the eviction pressure of CTA batches / main loops the sampling
    /// simulator extrapolated instead of tracing. Does not touch
    /// statistics; only ages residency.
    ///
    /// The run is `bytes / 128` distinct pollution lines (the aging
    /// cursor only grows, and its lines sit far above any real tensor
    /// address), so every one of them misses. Consecutive lines map to
    /// consecutive sets, so any `sets × ways` consecutive lines put
    /// exactly `ways` lines into each set, and each of those misses
    /// evicts the set's least recently stamped way, which is never one
    /// of the run's newer lines. Once a run reaches the L2's
    /// `sets × ways` lines, each set therefore holds exactly its last
    /// `ways` pollution lines, all sectors valid, with distinct stamps:
    /// a state that does not depend on anything before the run.
    ///
    /// So a longer run only advances the aging cursor and the L2's LRU
    /// clock past its first `lines − sets × ways` lines, then writes the
    /// state the final `sets × ways` leave straight into each set
    /// (`SectoredCache::fill_consecutive`). Tags, valid masks and
    /// stamps come out identical to polluting every line. Only the order
    /// of ways inside a set may differ, and neither lookup nor victim
    /// choice can observe it (see [`SectoredCache`]). This bounds the
    /// cost of one call by the L2's capacity instead of the extrapolated
    /// volume. A shorter run pollutes line by line.
    pub fn age_l2(&mut self, bytes: u64) {
        self.count_aged_l2(bytes);
        let lines = bytes / delta_model::LINE_BYTES;
        let capacity = self.l2.capacity_lines() as u64;
        let skipped = lines.saturating_sub(capacity);
        self.aging_cursor += skipped;
        self.l2.advance_clock(skipped);
        // Distinct lines far above any real tensor address.
        let first = (1 << 40) + self.aging_cursor + 1;
        if lines >= capacity {
            self.l2.fill_consecutive(first);
        } else {
            for line in first..first + lines {
                self.l2.pollute(line, 0b1111);
            }
        }
        self.aging_cursor += lines - skipped;
    }

    /// Records `bytes` of aged-L2 volume in the mergeable statistics
    /// *without* touching residency. For walkers that discard the
    /// hierarchy right after (a sharded column's end-of-column
    /// extrapolation), the [`MemoryHierarchy::age_l2`] pollution would be
    /// pure wasted work — nothing ever observes the evictions.
    pub fn count_aged_l2(&mut self, bytes: u64) {
        self.aged_l2_bytes += bytes;
    }

    /// Cumulative read-traffic totals.
    pub fn totals(&self) -> TrafficDelta {
        self.totals
    }

    /// Cumulative DRAM write bytes (epilogue stores).
    pub fn dram_write_bytes(&self) -> u64 {
        self.dram_write_bytes
    }

    /// Cumulative L2 write bytes.
    pub fn l2_write_bytes(&self) -> u64 {
        self.l2_write_bytes
    }

    /// Aggregated L1 statistics across all SMs.
    pub fn l1_stats(&self) -> CacheStats {
        let mut s = CacheStats::default();
        for c in &self.l1s {
            s.merge(c.stats());
        }
        s
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Number of modeled SMs (L1 instances).
    pub fn num_sm(&self) -> usize {
        self.l1s.len()
    }
}

impl MergeableHierarchy for MemoryHierarchy {
    fn snapshot(&self) -> HierarchyStats {
        HierarchyStats {
            reads: self.totals,
            l1: self.l1_stats(),
            l2: self.l2_stats(),
            l2_write_bytes: self.l2_write_bytes,
            dram_write_bytes: self.dram_write_bytes,
            aged_l2_bytes: self.aged_l2_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::coalesce_warp;

    fn warp(addrs: &[u64]) -> Vec<Transaction> {
        let opt: Vec<Option<u64>> = addrs.iter().copied().map(Some).collect();
        let mut out = Vec::new();
        coalesce_warp(&opt, &mut out);
        out
    }

    #[test]
    fn cold_access_reaches_dram() {
        let mut h = MemoryHierarchy::new(&GpuSpec::titan_xp());
        let t = warp(&(0..32).map(|i| i * 4).collect::<Vec<_>>());
        let d = h.warp_load(0, &t);
        assert_eq!(d.l1_bytes, 128);
        assert_eq!(d.l2_bytes, 128);
        assert_eq!(d.dram_bytes, 128);
    }

    #[test]
    fn repeat_access_hits_l1() {
        let mut h = MemoryHierarchy::new(&GpuSpec::titan_xp());
        let t = warp(&(0..32).map(|i| i * 4).collect::<Vec<_>>());
        h.warp_load(0, &t);
        let d = h.warp_load(0, &t);
        assert_eq!(d.l1_bytes, 128, "requests still issued");
        assert_eq!(d.l2_bytes, 0);
        assert_eq!(d.dram_bytes, 0);
    }

    #[test]
    fn cross_sm_reuse_hits_shared_l2() {
        let mut h = MemoryHierarchy::new(&GpuSpec::titan_xp());
        let t = warp(&(0..32).map(|i| i * 4).collect::<Vec<_>>());
        h.warp_load(0, &t);
        // Different SM: private L1 misses, shared L2 hits.
        let d = h.warp_load(1, &t);
        assert_eq!(d.l2_bytes, 128);
        assert_eq!(d.dram_bytes, 0, "L2 is shared across SMs");
    }

    #[test]
    fn volta_granularity_counts_sectors() {
        let mut h = MemoryHierarchy::new(&GpuSpec::v100());
        // One 32 B sector referenced: Pascal would bill a 128 B request,
        // Volta bills 32 B.
        let t = warp(&[0, 4, 8]);
        let d = h.warp_load(0, &t);
        assert_eq!(d.l1_bytes, 32);
    }

    #[test]
    fn stores_stream_to_dram() {
        let mut h = MemoryHierarchy::new(&GpuSpec::titan_xp());
        h.count_stores(128);
        assert_eq!(h.dram_write_bytes(), 128);
        assert_eq!(h.l2_write_bytes(), 128);
        assert_eq!(h.totals(), TrafficDelta::default(), "reads unaffected");
    }

    #[test]
    fn sharded_snapshots_merge_to_single_walker_totals() {
        // The same access stream walked by one hierarchy vs. split across
        // two independent hierarchies (disjoint address halves, as
        // disjoint-column shards produce): merged snapshots must equal
        // the single walker's snapshot exactly.
        let gpu = GpuSpec::titan_xp();
        let streams: [Vec<Vec<Transaction>>; 2] = [
            (0..64)
                .map(|i| warp(&[i * 128, i * 128 + 64]))
                .collect::<Vec<_>>(),
            (1000..1064)
                .map(|i| warp(&[i * 128, i * 128 + 32]))
                .collect::<Vec<_>>(),
        ];
        let mut single = MemoryHierarchy::new(&gpu);
        for s in &streams {
            for t in s {
                single.warp_load(0, t);
            }
            single.count_stores(64);
            single.age_l2(4096);
        }
        let mut merged = HierarchyStats::default();
        for s in &streams {
            let mut h = MemoryHierarchy::new(&gpu);
            for t in s {
                h.warp_load(0, t);
            }
            h.count_stores(64);
            h.age_l2(4096);
            merged.merge(&h.snapshot());
        }
        // The two halves touch disjoint lines and each fits in cache, so
        // partitioning does not change hit/miss outcomes.
        assert_eq!(merged, single.snapshot());
        assert_eq!(merged.aged_l2_bytes, 8192);
        assert_eq!(merged.dram_write_bytes, 2 * 64);
    }

    /// The aging [`MemoryHierarchy::age_l2`] bounds: one pollution per
    /// line, however long the run.
    fn age_l2_line_by_line(h: &mut MemoryHierarchy, bytes: u64) {
        h.count_aged_l2(bytes);
        for _ in 0..bytes / delta_model::LINE_BYTES {
            h.aging_cursor += 1;
            h.l2.pollute((1 << 40) + h.aging_cursor, 0b1111);
        }
    }

    fn load_line(h: &mut MemoryHierarchy, sm: usize, line: u64, sector_mask: u8) {
        h.warp_load(sm, &[Transaction { line, sector_mask }]);
    }

    /// Every direct L2 access's miss mask, the snapshot and the L2
    /// residency after an [`aged_run`].
    type AgedRun = (Vec<u8>, HierarchyStats, Vec<Vec<(u64, u8, u64)>>);

    /// Real traffic, aging of `lines`, more traffic that revisits the
    /// first and evicts aged lines, a second (over-capacity) aging, and a
    /// last revisit.
    fn aged_run(gpu: &GpuSpec, lines: u64, age: fn(&mut MemoryHierarchy, u64)) -> AgedRun {
        let mut h = MemoryHierarchy::new(gpu);
        let cap = h.l2.capacity_lines() as u64;
        let real: Vec<u64> = (0..2048u64).map(|i| i * 37 % (4 * cap)).collect();
        let mask = |i: u64| 1u8 << (i % 4) | 0b0001;
        for (i, &line) in real.iter().enumerate() {
            let i = i as u64;
            load_line(&mut h, (i % 4) as usize, line, mask(i));
        }
        age(&mut h, lines * delta_model::LINE_BYTES);
        let mut misses = Vec::new();
        let revisit = |h: &mut MemoryHierarchy, misses: &mut Vec<u8>| {
            for (i, &line) in real.iter().enumerate() {
                let i = i as u64;
                misses.push(h.l2.access(line, 0b1111));
                misses.push(h.l2.access(4 * cap + i * 101, mask(i)));
                load_line(h, 7, line + 1, mask(i + 1));
            }
        };
        revisit(&mut h, &mut misses);
        age(&mut h, (cap + 5) * delta_model::LINE_BYTES);
        revisit(&mut h, &mut misses);
        (misses, h.snapshot(), h.l2.residency())
    }

    #[test]
    fn capped_aging_equals_line_by_line_pollution() {
        for gpu in [GpuSpec::titan_xp(), GpuSpec::v100(), GpuSpec::a100()] {
            let cap = MemoryHierarchy::new(&gpu).l2.capacity_lines() as u64;
            for lines in [cap - 1, cap, cap + 1, 7 * cap + 3] {
                let capped = aged_run(&gpu, lines, MemoryHierarchy::age_l2);
                let reference = aged_run(&gpu, lines, age_l2_line_by_line);
                let what = format!("{} L2, {lines} aged lines (capacity {cap})", gpu.name());
                assert_eq!(capped.0, reference.0, "per-access miss masks, {what}");
                assert_eq!(capped.1, reference.1, "snapshot, {what}");
                assert!(capped.2 == reference.2, "L2 residency, {what}");
            }
        }
    }

    /// The fastmod set index must be `line % sets` on every preset's L1
    /// and L2 geometry, on both sides of its 32-bit fast-path limit, and
    /// for a one-set cache, whose multiplier wraps to 0.
    #[test]
    fn set_index_equals_line_mod_sets() {
        let gpus = [
            GpuSpec::titan_xp(),
            GpuSpec::p100(),
            GpuSpec::v100(),
            GpuSpec::v100_tensor(),
            GpuSpec::a100(),
        ];
        let mut caches: Vec<SectoredCache> = gpus
            .iter()
            .flat_map(|gpu| {
                let h = MemoryHierarchy::new(gpu);
                [h.l1s[0].clone(), h.l2]
            })
            .collect();
        caches.push(SectoredCache::new(4 * delta_model::LINE_BYTES, 4));
        assert_eq!(caches.last().unwrap().sets(), 1);
        let u32_max = u64::from(u32::MAX);
        let mut lines = vec![0, 1, u32_max - 1, u32_max, u32_max + 1, u64::MAX];
        lines.extend((0..64).map(|k| (1 << 40) + k));
        let mut rng = proptest::TestRng::new(7);
        lines.extend((0..4096).map(|_| rng.below(u32_max + 1)));
        lines.extend((0..1024).map(|_| u32_max + 1 + rng.below(1 << 40)));
        lines.extend((0..1024).map(|_| rng.next_u64()));
        for c in &caches {
            for &line in &lines {
                let sets = c.sets() as u64;
                assert_eq!(
                    c.set_of(line) as u64,
                    line % sets,
                    "line {line}, {sets} sets"
                );
            }
        }
    }

    #[test]
    fn conservation_l2_accesses_equal_l1_misses() {
        let mut h = MemoryHierarchy::new(&GpuSpec::titan_xp());
        // A spread of accesses from several SMs.
        for sm in 0..4usize {
            for i in 0..64u64 {
                let t = warp(&[(i * 128) + sm as u64 * 4, (i * 128) + 64]);
                h.warp_load(sm, &t);
            }
        }
        let l1 = h.l1_stats();
        let l2 = h.l2_stats();
        assert_eq!(
            l1.sector_misses,
            l2.sector_hits + l2.sector_misses,
            "every L1 sector miss becomes exactly one L2 sector request"
        );
        assert_eq!(h.totals().l2_bytes, l1.miss_bytes());
        assert_eq!(h.totals().dram_bytes, l2.miss_bytes());
    }
}
