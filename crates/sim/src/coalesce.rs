//! Warp-level memory coalescing (paper §IV-A).
//!
//! The load/store unit merges a warp's 32 thread references into the
//! minimum set of L1 requests at the device's coalescing granularity:
//! whole 128 B lines on Pascal, individual 32 B sectors on Volta. The
//! number of requests — not the number of useful bytes — is what consumes
//! L1 bandwidth, which is exactly the inefficiency DeLTA's MLI models.

use delta_model::{LINE_BYTES, SECTOR_BYTES};

/// One coalesced L1 transaction: a 128 B-aligned line with the 32 B
/// sectors the warp actually touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transaction {
    /// Line index (`byte address / 128`).
    pub line: u64,
    /// Bitmask over the line's four 32 B sectors.
    pub sector_mask: u8,
}

impl Transaction {
    /// Number of sectors this transaction touches.
    pub fn sectors(&self) -> u32 {
        crate::cache::sector_count(self.sector_mask) as u32
    }
}

/// Slots in [`coalesce_warp`]'s line → output-index table. A power of
/// two above the 32 lanes of a warp, so a warp's distinct lines rarely
/// share a slot.
const LINE_SLOTS: usize = 64;

/// Marks an unused slot.
const EMPTY_SLOT: u8 = u8::MAX;

/// Coalesces one warp's (optional) byte addresses into line transactions.
///
/// `None` entries are predicated-off lanes (padding); they produce no
/// traffic. The output is ordered by first touch and deduplicated per
/// line; `out` is cleared first and reused to avoid allocation in the hot
/// loop.
///
/// This runs once per traced warp, so each lane must find its line in
/// constant time: a linear search over `out` costs up to 32 compares per
/// lane on scattered (filter-gather) warps. Consecutive lanes usually
/// share a line, so `out.last()` is tried first. Otherwise a 64-slot
/// direct-mapped table on the stack maps `line % 64` to the index of
/// the first line seen in that slot. An empty slot proves the line is
/// new. Only when the slot holds a different line (two lines collide
/// modulo 64) does the lane fall back to scanning `out`, so the output
/// order and sector masks are exactly those of a plain first-touch scan.
pub fn coalesce_warp(addrs: &[Option<u64>], out: &mut Vec<Transaction>) {
    out.clear();
    let mut slots = [EMPTY_SLOT; LINE_SLOTS];
    for addr in addrs.iter().flatten() {
        let line = addr / LINE_BYTES;
        let bit = 1u8 << ((addr % LINE_BYTES) / SECTOR_BYTES);
        if let Some(t) = out.last_mut().filter(|t| t.line == line) {
            t.sector_mask |= bit;
            continue;
        }
        let slot = &mut slots[(line % LINE_SLOTS as u64) as usize];
        let found = if *slot == EMPTY_SLOT {
            None
        } else if out[usize::from(*slot)].line == line {
            Some(usize::from(*slot))
        } else {
            out.iter().position(|t| t.line == line)
        };
        match found {
            Some(i) => out[i].sector_mask |= bit,
            None => {
                if *slot == EMPTY_SLOT {
                    // Past 255 lines (never within one warp) the index
                    // saturates; a mismatching slot only costs a scan.
                    *slot = out.len().min(usize::from(EMPTY_SLOT) - 1) as u8;
                }
                out.push(Transaction {
                    line,
                    sector_mask: bit,
                });
            }
        }
    }
}

/// Number of L1 *requests* a coalesced warp access costs at request
/// granularity `l1_request_bytes` (128 → one request per line, 32 → one
/// per sector), matching how the profiler quantities in the paper count
/// transactions.
pub fn request_count(transactions: &[Transaction], l1_request_bytes: u32) -> u64 {
    if u64::from(l1_request_bytes) >= LINE_BYTES {
        transactions.len() as u64
    } else {
        transactions.iter().map(|t| u64::from(t.sectors())).sum()
    }
}

/// Bytes of L1 traffic the transactions represent at the given request
/// granularity.
pub fn request_bytes(transactions: &[Transaction], l1_request_bytes: u32) -> u64 {
    request_count(transactions, l1_request_bytes) * u64::from(l1_request_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    /// The linear-scan coalescer [`coalesce_warp`] replaced, kept as the
    /// reference its output must equal.
    fn coalesce_warp_by_scan(addrs: &[Option<u64>], out: &mut Vec<Transaction>) {
        out.clear();
        for addr in addrs.iter().flatten() {
            let line = addr / LINE_BYTES;
            let bit = 1u8 << ((addr % LINE_BYTES) / SECTOR_BYTES);
            match out.iter_mut().find(|t| t.line == line) {
                Some(t) => t.sector_mask |= bit,
                None => out.push(Transaction {
                    line,
                    sector_mask: bit,
                }),
            }
        }
    }

    /// One 32-lane warp of the given `shape`, drawn from `seed`, with
    /// lanes predicated off at `off_pct` percent.
    fn arb_warp(shape: u8, seed: u64, off_pct: u64) -> Vec<Option<u64>> {
        let mut rng = TestRng::new(seed);
        let base = rng.below(1 << 30);
        let stride = [2u64, 4, 8, 12, 32, 128, 136, 4096][rng.below(8) as usize];
        let lines: Vec<u64> = (0..1 + rng.below(6)).map(|_| rng.below(1 << 20)).collect();
        (0..32u64)
            .map(|lane| {
                let addr = match shape {
                    // Contiguous or strided im2col/filter rows.
                    0 => base + lane * 4,
                    1 => base + lane * stride,
                    // 32 distinct lines: the filter-gather pattern.
                    2 => (base / LINE_BYTES + lane * 7919) * LINE_BYTES + rng.below(LINE_BYTES),
                    // Few lines that all collide modulo 64.
                    3 => {
                        let k = rng.below(6);
                        (base / LINE_BYTES + k * LINE_SLOTS as u64) * LINE_BYTES
                            + rng.below(LINE_BYTES)
                    }
                    // Random lanes over a small pool of lines.
                    _ => {
                        lines[rng.below(lines.len() as u64) as usize] * LINE_BYTES
                            + rng.below(LINE_BYTES)
                    }
                };
                (rng.below(100) >= off_pct).then_some(addr)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn table_coalescer_equals_the_linear_scan(
            (shape, seed, off_pct) in (0u8..5, 0u64..u64::MAX, prop_oneof![Just(0u64), 0u64..=100])
        ) {
            let warp = arb_warp(shape, seed, off_pct);
            let (mut fast, mut scan) = (Vec::new(), Vec::new());
            coalesce_warp(&warp, &mut fast);
            coalesce_warp_by_scan(&warp, &mut scan);
            prop_assert_eq!(fast, scan);
        }
    }

    #[test]
    fn more_lines_than_table_indices_still_dedup() {
        // 300 distinct lines, then the same lines in reverse order:
        // indices past 254 saturate in the table, yet the output must
        // still match the scan.
        let mut addrs: Vec<Option<u64>> = (0..300u64).map(|l| Some(l * 4096)).collect();
        addrs.extend((0..300u64).rev().map(|l| Some(l * 4096 + 96)));
        let (mut fast, mut scan) = (Vec::new(), Vec::new());
        coalesce_warp(&addrs, &mut fast);
        coalesce_warp_by_scan(&addrs, &mut scan);
        assert_eq!(fast.len(), 300);
        assert_eq!(fast, scan);
    }

    fn seq(addrs: &[u64]) -> Vec<Transaction> {
        let opt: Vec<Option<u64>> = addrs.iter().copied().map(Some).collect();
        let mut out = Vec::new();
        coalesce_warp(&opt, &mut out);
        out
    }

    #[test]
    fn contiguous_warp_is_one_line() {
        // 32 consecutive 4 B elements starting line-aligned: one line, all
        // four sectors.
        let addrs: Vec<u64> = (0..32).map(|i| i * 4).collect();
        let t = seq(&addrs);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].sector_mask, 0b1111);
        assert_eq!(request_count(&t, 128), 1);
        assert_eq!(request_count(&t, 32), 4);
        assert_eq!(request_bytes(&t, 128), 128);
        assert_eq!(request_bytes(&t, 32), 128);
    }

    #[test]
    fn misaligned_warp_spills_into_second_line() {
        // Same 128 B but starting 64 B into a line: two transactions.
        let addrs: Vec<u64> = (0..32).map(|i| 64 + i * 4).collect();
        let t = seq(&addrs);
        assert_eq!(t.len(), 2);
        assert_eq!(request_count(&t, 128), 2);
        // Sector-granular Volta counting sees exactly the 4 touched
        // sectors — no misalignment penalty.
        assert_eq!(request_count(&t, 32), 4);
    }

    #[test]
    fn strided_access_wastes_sectors() {
        // Stride-2 elements: 32 threads span 256 B = 2 lines, half the
        // sectors' data used but all sectors touched.
        let addrs: Vec<u64> = (0..32).map(|i| i * 8).collect();
        let t = seq(&addrs);
        assert_eq!(t.len(), 2);
        assert_eq!(request_count(&t, 128), 2);
        assert_eq!(request_count(&t, 32), 8);
    }

    #[test]
    fn gather_from_distant_lines() {
        // Each thread hits its own line (the filter-matrix pattern of
        // Fig. 5b): every reference is a separate transaction.
        let addrs: Vec<u64> = (0..4).map(|i| i * 4096).collect();
        let t = seq(&addrs);
        assert_eq!(t.len(), 4);
        assert!(t.iter().all(|x| x.sector_mask == 0b0001));
    }

    #[test]
    fn predicated_lanes_produce_no_traffic() {
        let addrs = vec![None, Some(0), None, Some(4)];
        let mut out = Vec::new();
        coalesce_warp(&addrs, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].sector_mask, 0b0001);

        let empty: Vec<Option<u64>> = vec![None; 32];
        coalesce_warp(&empty, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn duplicate_addresses_coalesce() {
        // Broadcast: all threads read the same word -> one transaction.
        let addrs: Vec<u64> = vec![100; 32];
        let t = seq(&addrs);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].sectors(), 1);
    }
}
