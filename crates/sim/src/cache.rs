//! Sectored set-associative cache model.
//!
//! GPU L1/L2 caches use 128 B lines split into four 32 B sectors: a miss
//! allocates the line but fills only the referenced sectors (§IV: "The
//! minimum memory transaction granularity is 32 B, which corresponds to a
//! single sector of one 128 B cache line"). Replacement is LRU within a
//! set.

use delta_model::{LINE_BYTES, SECTOR_BYTES};
use serde::{Deserialize, Serialize};

/// Running hit/miss statistics, in sector units.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Line-granularity lookups.
    pub accesses: u64,
    /// Sectors found resident.
    pub sector_hits: u64,
    /// Sectors that had to be filled from the next level.
    pub sector_misses: u64,
    /// Lines evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Sector miss rate (`misses / (hits + misses)`); 0 when idle.
    pub fn miss_rate(&self) -> f64 {
        let total = self.sector_hits + self.sector_misses;
        if total == 0 {
            0.0
        } else {
            self.sector_misses as f64 / total as f64
        }
    }

    /// Bytes requested from the next level (`misses × 32 B`).
    pub fn miss_bytes(&self) -> u64 {
        self.sector_misses * SECTOR_BYTES
    }

    /// Accumulates `other` into `self`. All four counters are plain
    /// sums, so merging is associative and commutative — per-shard
    /// statistics combine into exactly the totals a single walker over
    /// the same accesses would have counted.
    pub fn merge(&mut self, other: CacheStats) {
        self.accesses += other.accesses;
        self.sector_hits += other.sector_hits;
        self.sector_misses += other.sector_misses;
        self.evictions += other.evictions;
    }
}

/// A sectored, set-associative, LRU cache.
///
/// Each access stamps its way with a fresh tick of the cache's LRU clock,
/// and the victim of a miss is the way with the smallest stamp. Once
/// every way of a set has been stamped, the stamps in it are distinct,
/// so lookup and victim choice depend only on each way's (tag, sectors,
/// stamp), never on the way's position within its set. Aging relies on
/// this: a stream of distinct [`SectoredCache::pollute`] lines longer
/// than [`SectoredCache::capacity_lines`] is replayed from its last
/// `capacity_lines()` lines alone, after advancing the clock past the
/// rest (see [`crate::hierarchy::MemoryHierarchy::age_l2`]).
#[derive(Debug, Clone)]
pub struct SectoredCache {
    sets: usize,
    /// Lemire's fastmod multiplier for `sets` (see [`SectoredCache::set_of`]).
    set_magic: u64,
    ways: usize,
    /// Line tag per (set, way); `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// Valid-sector bitmask per (set, way).
    sector_valid: Vec<u8>,
    /// LRU timestamp per (set, way).
    stamp: Vec<u64>,
    tick: u64,
    stats: CacheStats,
}

impl SectoredCache {
    /// Creates a cache of `capacity_bytes` with `ways`-way associativity.
    ///
    /// # Panics
    ///
    /// Panics if the capacity doesn't hold at least one full set of 128 B
    /// lines.
    pub fn new(capacity_bytes: u64, ways: usize) -> SectoredCache {
        let lines = (capacity_bytes / LINE_BYTES) as usize;
        assert!(
            lines >= ways && ways > 0,
            "cache of {capacity_bytes} B cannot hold a {ways}-way set"
        );
        let sets = (lines / ways).max(1);
        assert!(
            u32::try_from(sets).is_ok(),
            "cache of {capacity_bytes} B has more than 2^32 sets"
        );
        SectoredCache {
            sets,
            // ⌊(2^64 − 1) / sets⌋ + 1, which wraps to 0 for one set (and
            // then every line maps to set 0, as it must).
            set_magic: (u64::MAX / sets as u64).wrapping_add(1),
            ways,
            tags: vec![u64::MAX; sets * ways],
            sector_valid: vec![0; sets * ways],
            stamp: vec![0; sets * ways],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Lines the cache holds (`sets × ways`).
    pub fn capacity_lines(&self) -> usize {
        self.sets * self.ways
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The set `line` maps to: `line % sets`.
    ///
    /// Every real tensor line fits in 32 bits, and for those the 64-bit
    /// division is replaced by Lemire's fastmod (exact for a 32-bit
    /// dividend and divisor): two multiplications by the precomputed
    /// `set_magic`. Larger lines, i.e. the L2 aging's pollution lines
    /// at 2^40 and up, take the plain `%`.
    #[inline]
    pub(crate) fn set_of(&self, line: u64) -> usize {
        if line <= u64::from(u32::MAX) {
            let low = self.set_magic.wrapping_mul(line);
            ((u128::from(low) * self.sets as u128) >> 64) as usize
        } else {
            (line % self.sets as u64) as usize
        }
    }

    /// Resets contents and statistics.
    pub fn reset(&mut self) {
        self.tags.fill(u64::MAX);
        self.sector_valid.fill(0);
        self.stamp.fill(0);
        self.tick = 0;
        self.stats = CacheStats::default();
    }

    /// Accesses `line` with the given sector mask; returns the mask of
    /// sectors that missed (to be requested from the next level). Missing
    /// sectors are filled; on a line miss the LRU way is evicted.
    pub fn access(&mut self, line: u64, sector_mask: u8) -> u8 {
        debug_assert!(sector_mask != 0, "empty access");
        self.tick += 1;
        self.stats.accesses += 1;
        let base = self.set_of(line) * self.ways;

        // Hit path: line resident, fill any missing sectors.
        for w in 0..self.ways {
            let i = base + w;
            if self.tags[i] == line {
                let missed = sector_mask & !self.sector_valid[i];
                self.sector_valid[i] |= sector_mask;
                self.stamp[i] = self.tick;
                self.stats.sector_hits += u64::from((sector_mask & !missed).count_ones());
                self.stats.sector_misses += u64::from(missed.count_ones());
                return missed;
            }
        }

        // Miss path: evict LRU way.
        let mut victim = base;
        for w in 1..self.ways {
            if self.stamp[base + w] < self.stamp[victim] {
                victim = base + w;
            }
        }
        if self.tags[victim] != u64::MAX {
            self.stats.evictions += 1;
        }
        self.tags[victim] = line;
        self.sector_valid[victim] = sector_mask;
        self.stamp[victim] = self.tick;
        self.stats.sector_misses += u64::from(sector_mask.count_ones());
        sector_mask
    }

    /// Fills `line` without recording statistics — used to emulate the
    /// eviction pressure of traffic the sampling simulator skipped
    /// (unsimulated CTA batches/loops would have streamed unique data
    /// through this cache).
    pub fn pollute(&mut self, line: u64, sector_mask: u8) {
        self.tick += 1;
        let base = self.set_of(line) * self.ways;
        let mut victim = base;
        for w in 0..self.ways {
            let i = base + w;
            if self.tags[i] == line {
                self.sector_valid[i] |= sector_mask;
                self.stamp[i] = self.tick;
                return;
            }
            if self.stamp[i] < self.stamp[victim] {
                victim = i;
            }
        }
        self.tags[victim] = line;
        self.sector_valid[victim] = sector_mask;
        self.stamp[victim] = self.tick;
    }

    /// Advances the LRU clock by `ticks` without touching any way: the
    /// stamps the next accesses receive are those they would get after
    /// `ticks` skipped accesses. Only exact when the skipped accesses'
    /// effect on residency is fully overwritten afterwards, as when
    /// [`crate::hierarchy::MemoryHierarchy::age_l2`] skips all but the
    /// last `capacity_lines()` lines of a distinct-line stream.
    pub(crate) fn advance_clock(&mut self, ticks: u64) {
        self.tick += ticks;
    }

    /// Each set's ways as sorted `(tag, valid sectors, stamp)` triples:
    /// the residency state with the way order inside a set, which no
    /// lookup can observe, factored out.
    #[cfg(test)]
    pub(crate) fn residency(&self) -> Vec<Vec<(u64, u8, u64)>> {
        (0..self.sets)
            .map(|set| {
                let ways = set * self.ways..(set + 1) * self.ways;
                let mut v: Vec<_> = ways
                    .map(|i| (self.tags[i], self.sector_valid[i], self.stamp[i]))
                    .collect();
                v.sort_unstable();
                v
            })
            .collect()
    }

    /// Whether `line` is resident with all of `sector_mask` valid
    /// (read-only probe; no statistics or LRU update).
    pub fn probe(&self, line: u64, sector_mask: u8) -> bool {
        let base = self.set_of(line) * self.ways;
        (0..self.ways).any(|w| {
            self.tags[base + w] == line
                && (self.sector_valid[base + w] & sector_mask) == sector_mask
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = SectoredCache::new(4 * 1024, 4);
        assert_eq!(c.access(7, 0b0011), 0b0011, "cold: both sectors miss");
        assert_eq!(c.access(7, 0b0011), 0, "warm: full hit");
        let s = c.stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.sector_misses, 2);
        assert_eq!(s.sector_hits, 2);
        assert!((s.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sector_granularity_fills() {
        let mut c = SectoredCache::new(4 * 1024, 4);
        c.access(3, 0b0001);
        // Same line, new sector: line hit but sector miss.
        assert_eq!(c.access(3, 0b0010), 0b0010);
        assert_eq!(c.access(3, 0b0011), 0, "both sectors now valid");
        assert_eq!(c.stats().miss_bytes(), 2 * 32);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2 sets x 2 ways; lines 0,2,4 map to set 0.
        let mut c = SectoredCache::new(4 * LINE_BYTES, 2);
        assert_eq!(c.sets(), 2);
        c.access(0, 1);
        c.access(2, 1);
        c.access(0, 1); // refresh line 0
        c.access(4, 1); // evicts line 2 (LRU)
        assert!(c.probe(0, 1));
        assert!(!c.probe(2, 1));
        assert!(c.probe(4, 1));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn capacity_thrashing_produces_misses() {
        // Working set of 2x capacity, streamed twice: second pass still
        // misses (LRU worst case).
        let mut c = SectoredCache::new(64 * LINE_BYTES, 4);
        let lines: Vec<u64> = (0..128).collect();
        for &l in &lines {
            c.access(l, 0b1111);
        }
        let cold_misses = c.stats().sector_misses;
        for &l in &lines {
            c.access(l, 0b1111);
        }
        assert_eq!(
            c.stats().sector_misses,
            2 * cold_misses,
            "streaming 2x capacity through LRU re-misses everything"
        );
    }

    #[test]
    fn working_set_within_capacity_fully_hits() {
        let mut c = SectoredCache::new(64 * LINE_BYTES, 4);
        for l in 0..32u64 {
            c.access(l, 0b1111);
        }
        let misses_after_warm = c.stats().sector_misses;
        for l in 0..32u64 {
            assert_eq!(c.access(l, 0b1111), 0);
        }
        assert_eq!(c.stats().sector_misses, misses_after_warm);
    }

    #[test]
    fn reset_clears_state() {
        let mut c = SectoredCache::new(4 * 1024, 4);
        c.access(1, 1);
        c.reset();
        assert_eq!(c.stats(), CacheStats::default());
        assert!(!c.probe(1, 1));
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn zero_capacity_panics() {
        let _ = SectoredCache::new(64, 4);
    }

    #[test]
    fn stats_merge_is_associative() {
        let mk = |a, h, m, e| CacheStats {
            accesses: a,
            sector_hits: h,
            sector_misses: m,
            evictions: e,
        };
        let parts = [mk(1, 2, 3, 4), mk(10, 20, 30, 40), mk(5, 0, 7, 0)];
        let mut left = parts[0];
        left.merge(parts[1]);
        left.merge(parts[2]);
        let mut right = parts[1];
        right.merge(parts[2]);
        let mut first = parts[0];
        first.merge(right);
        assert_eq!(left, first);
        assert_eq!(left.accesses, 16);
        assert_eq!(left.sector_misses, 40);
    }
}
