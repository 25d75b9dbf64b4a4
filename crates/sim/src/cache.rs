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

/// Sectors set in each 4-bit sector mask. A table lookup, because the
/// baseline x86-64 target has no `popcnt` instruction.
const SECTORS_IN_MASK: [u8; 16] = [0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4];

/// Number of sectors in `mask` (its low four bits).
#[inline]
pub(crate) fn sector_count(mask: u8) -> u64 {
    u64::from(SECTORS_IN_MASK[usize::from(mask & 0xF)])
}

/// Bits of a way's meta word below its LRU stamp: the valid-sector mask.
const MASK_BITS: u32 = 4;

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
///
/// The ways are two parallel arrays, tags and meta words, each meta
/// holding `stamp << 4 | valid sectors`. One pass over a set's slice of
/// both finds either the hit or the least recently stamped way.
#[derive(Debug, Clone)]
pub struct SectoredCache {
    sets: usize,
    /// Lemire's fastmod multiplier for `sets` (see [`SectoredCache::set_of`]).
    set_magic: u64,
    ways: usize,
    /// Line tag per (set, way); `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// `LRU stamp << 4 | valid-sector mask` per (set, way).
    metas: Vec<u64>,
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
            metas: vec![0; sets * ways],
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
        self.metas.fill(0);
        self.tick = 0;
        self.stats = CacheStats::default();
    }

    /// Advances the clock by one access and returns the meta word that
    /// access stamps with `sector_mask`.
    #[inline]
    fn stamp(&mut self, sector_mask: u8) -> u64 {
        self.tick += 1;
        debug_assert!(self.tick < 1 << (64 - MASK_BITS), "LRU clock overflow");
        self.tick << MASK_BITS | u64::from(sector_mask)
    }

    /// One pass over `line`'s set: `Ok(i)` if way `i` holds `line`,
    /// else `Err(i)` for the way with the smallest stamp (the first such
    /// way on a tie, which only unstamped ways can be in).
    #[inline]
    fn lookup(&self, line: u64) -> Result<usize, usize> {
        let base = self.set_of(line) * self.ways;
        let tags = &self.tags[base..base + self.ways];
        let metas = &self.metas[base..base + self.ways];
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (w, (&tag, &meta)) in tags.iter().zip(metas).enumerate() {
            if tag == line {
                return Ok(base + w);
            }
            let stamp = meta >> MASK_BITS;
            if stamp < oldest {
                oldest = stamp;
                victim = w;
            }
        }
        Err(base + victim)
    }

    /// Accesses `line` with the given sector mask; returns the mask of
    /// sectors that missed (to be requested from the next level). Missing
    /// sectors are filled; on a line miss the LRU way is evicted.
    pub fn access(&mut self, line: u64, sector_mask: u8) -> u8 {
        debug_assert!(sector_mask != 0, "empty access");
        let stamped = self.stamp(sector_mask);
        self.stats.accesses += 1;
        match self.lookup(line) {
            // Hit path: line resident, fill any missing sectors.
            Ok(i) => {
                let valid = self.metas[i] as u8 & 0xF;
                let missed = sector_mask & !valid;
                self.metas[i] = stamped | u64::from(valid);
                self.stats.sector_hits += sector_count(sector_mask & valid);
                self.stats.sector_misses += sector_count(missed);
                missed
            }
            // Miss path: evict the LRU way.
            Err(victim) => {
                if self.tags[victim] != u64::MAX {
                    self.stats.evictions += 1;
                }
                self.tags[victim] = line;
                self.metas[victim] = stamped;
                self.stats.sector_misses += sector_count(sector_mask);
                sector_mask
            }
        }
    }

    /// Fills `line` without recording statistics — used to emulate the
    /// eviction pressure of traffic the sampling simulator skipped
    /// (unsimulated CTA batches/loops would have streamed unique data
    /// through this cache).
    pub fn pollute(&mut self, line: u64, sector_mask: u8) {
        let stamped = self.stamp(sector_mask);
        match self.lookup(line) {
            Ok(i) => self.metas[i] = stamped | (self.metas[i] & 0xF),
            Err(victim) => {
                self.tags[victim] = line;
                self.metas[victim] = stamped;
            }
        }
    }

    /// Leaves the cache as polluting the `capacity_lines()` consecutive
    /// lines from `first` on, all sectors, one after another would. Any
    /// `sets × ways` consecutive lines put exactly `ways` lines into each
    /// set, and each of them evicts the set's least recently stamped way,
    /// never a newer line of the run; so after the run each set holds
    /// exactly its own lines of it. They are written here set by set:
    /// the `w`-th line of a set is `w × sets` lines after its first,
    /// stamped that many ticks later.
    pub(crate) fn fill_consecutive(&mut self, first: u64) {
        let tick0 = self.tick + 1;
        let first_set = self.set_of(first);
        for set in 0..self.sets {
            let offset = ((set + self.sets - first_set) % self.sets) as u64;
            let ways = set * self.ways..(set + 1) * self.ways;
            for (w, (tag, meta)) in self.tags[ways.clone()]
                .iter_mut()
                .zip(&mut self.metas[ways])
                .enumerate()
            {
                let j = w as u64 * self.sets as u64 + offset;
                *tag = first + j;
                *meta = (tick0 + j) << MASK_BITS | 0b1111;
            }
        }
        self.tick += self.capacity_lines() as u64;
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
                    .map(|i| {
                        let meta = self.metas[i];
                        (self.tags[i], meta as u8 & 0xF, meta >> MASK_BITS)
                    })
                    .collect();
                v.sort_unstable();
                v
            })
            .collect()
    }

    /// Whether `line` is resident with all of `sector_mask` valid
    /// (read-only probe; no statistics or LRU update).
    pub fn probe(&self, line: u64, sector_mask: u8) -> bool {
        self.lookup(line)
            .is_ok_and(|i| self.metas[i] as u8 & sector_mask == sector_mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    /// The three-array LRU cache [`SectoredCache`] replaced, kept as the
    /// reference its one-pass lookup must equal: a hit scan over the
    /// set's tags, then a separate scan of the stamps for the victim.
    struct ThreeArrayCache {
        sets: usize,
        ways: usize,
        tags: Vec<u64>,
        sector_valid: Vec<u8>,
        stamp: Vec<u64>,
        tick: u64,
        stats: CacheStats,
    }

    impl ThreeArrayCache {
        fn new(capacity_bytes: u64, ways: usize) -> ThreeArrayCache {
            let sets = ((capacity_bytes / LINE_BYTES) as usize / ways).max(1);
            ThreeArrayCache {
                sets,
                ways,
                tags: vec![u64::MAX; sets * ways],
                sector_valid: vec![0; sets * ways],
                stamp: vec![0; sets * ways],
                tick: 0,
                stats: CacheStats::default(),
            }
        }

        fn access(&mut self, line: u64, sector_mask: u8) -> u8 {
            self.tick += 1;
            self.stats.accesses += 1;
            let base = (line % self.sets as u64) as usize * self.ways;
            for i in base..base + self.ways {
                if self.tags[i] == line {
                    let missed = sector_mask & !self.sector_valid[i];
                    self.sector_valid[i] |= sector_mask;
                    self.stamp[i] = self.tick;
                    self.stats.sector_hits += u64::from((sector_mask & !missed).count_ones());
                    self.stats.sector_misses += u64::from(missed.count_ones());
                    return missed;
                }
            }
            let mut victim = base;
            for i in base + 1..base + self.ways {
                if self.stamp[i] < self.stamp[victim] {
                    victim = i;
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

        fn pollute(&mut self, line: u64, sector_mask: u8) {
            self.tick += 1;
            let base = (line % self.sets as u64) as usize * self.ways;
            let mut victim = base;
            for i in base..base + self.ways {
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

        fn residency(&self) -> Vec<Vec<(u64, u8, u64)>> {
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
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random streams of accesses, pollutions, clock advances and
        /// full-capacity fills over a few hot lines, a wider pool and
        /// 32-bit-plus lines, on small geometries (one set included).
        #[test]
        fn one_pass_cache_equals_the_three_array_reference(
            (sets, ways, seed) in (prop_oneof![Just(1usize), 1usize..9], 1usize..9, 0u64..u64::MAX)
        ) {
            let capacity = (sets * ways) as u64 * LINE_BYTES;
            let mut fast = SectoredCache::new(capacity, ways);
            let mut reference = ThreeArrayCache::new(capacity, ways);
            let mut rng = TestRng::new(seed);
            let mut fill_cursor = 1u64 << 40;
            let mut misses = (Vec::new(), Vec::new());
            for _ in 0..600 {
                let line = match rng.below(4) {
                    0 => rng.below(4),
                    1 => rng.below(4 * (sets * ways) as u64),
                    2 => u64::from(u32::MAX) - 2 + rng.below(5),
                    _ => rng.below(1 << 20),
                };
                let mask = 1 + rng.below(15) as u8;
                match rng.below(20) {
                    0..=13 => {
                        misses.0.push(fast.access(line, mask));
                        misses.1.push(reference.access(line, mask));
                    }
                    14..=16 => {
                        fast.pollute(line, mask);
                        reference.pollute(line, mask);
                    }
                    17..=18 => {
                        let ticks = rng.below(50);
                        fast.advance_clock(ticks);
                        reference.tick += ticks;
                    }
                    _ => {
                        fast.fill_consecutive(fill_cursor);
                        for j in 0..(sets * ways) as u64 {
                            reference.pollute(fill_cursor + j, 0b1111);
                        }
                        fill_cursor += (sets * ways) as u64 + rng.below(3);
                    }
                }
            }
            prop_assert_eq!(misses.0, misses.1);
            prop_assert_eq!(fast.stats(), reference.stats);
            prop_assert!(fast.residency() == reference.residency());
        }
    }

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
