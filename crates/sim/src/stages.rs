//! Composable simulation stages: one CTA batch as a self-contained unit
//! of work.
//!
//! The simulator pipeline is four stages, each previously inlined in one
//! monolithic `Simulator::run` loop and now explicit:
//!
//! 1. **trace** — [`CtaTrace`] generates the loads each CTA's warps
//!    issue in a main-loop iteration (paper Fig. 5 im2col layout);
//! 2. **coalesce** — each warp's 32 references become device-granularity
//!    transactions. IFmap warps come out of the trace already coalesced:
//!    [`CtaTrace::for_each_ifmap_warp`] builds their transactions from
//!    runs of lanes whose addresses step evenly, equal to
//!    [`coalesce::coalesce_warp`] over the lane addresses. Filter warps
//!    are traced lane by lane and coalesced by `coalesce_warp`;
//! 3. **hierarchy** — [`MemoryHierarchy::warp_load`] runs the
//!    transactions through the sectored L1/L2 models and counts
//!    per-level bytes;
//! 4. **timing** — [`TimingEngine::charge_loop`] converts the measured
//!    per-loop traffic into cycles through the paper's Fig. 10 cases.
//!
//! Only the work that differs between CTAs is repeated per CTA. A batch's
//! CTAs share one tile column and run their main loops in lockstep
//! (§IV-C), so each loop's filter warps are traced and coalesced once per
//! batch, then issued after every CTA's own IFmap warps: the hierarchy
//! sees exactly the per-CTA access sequence. The epilogue touches no
//! cache state, so its store bytes are counted in closed form, one O(1)
//! term per store warp ([`CtaBatch::epilogue_bytes`]).
//!
//! [`CtaBatch`] owns one scheduled batch's trip through all four stages
//! (including steady-state loop extrapolation and the epilogue store
//! stage), so the orchestrator in [`crate::sim`] only sequences batches,
//! columns, and cross-batch extrapolation. The memory hierarchy and the
//! timing engine remain shared *inputs* — cache residency deliberately
//! persists across batches (that is the physics being simulated) — but
//! all per-batch state lives here.

use crate::coalesce::{self, Transaction};
use crate::hierarchy::{MemoryHierarchy, TrafficDelta};
use crate::sched::ScheduledCta;
use crate::tensor::TensorMap;
use crate::timing::TimingEngine;
use crate::trace::CtaTrace;
use delta_model::tiling::CtaTile;
use delta_model::{BYTES_PER_ELEMENT, SECTOR_BYTES, WARP_SIZE};
use serde::{Deserialize, Serialize};

/// Measured quantities of one simulated CTA batch.
///
/// Serializable because batch stats ride inside the fleet wire types
/// (`ColumnReplay`): every field is an integer, a flag, or an f64 that
/// the vendored JSON writer round-trips bitwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BatchStats {
    /// Per-level read-traffic bytes of the batch's main loops.
    pub traffic: TrafficDelta,
    /// Epilogue OFmap store bytes.
    pub store_bytes: u64,
    /// Cycles charged for the batch (loops + epilogue).
    pub cycles: f64,
    /// Whether main-loop sampling/extrapolation was used.
    pub loop_extrapolated: bool,
}

/// Per-batch simulation controls (the batch-relevant slice of
/// `SimConfig`).
#[derive(Debug, Clone, Copy)]
pub struct BatchLimits {
    /// Simulate at most this many main-loop iterations, extrapolating
    /// the rest from the steady-state tail.
    pub max_loops: Option<u64>,
    /// Generate and issue the epilogue's OFmap stores.
    pub simulate_stores: bool,
}

/// One scheduled CTA batch, ready to run through the
/// trace → coalesce → hierarchy → timing pipeline.
#[derive(Debug)]
pub struct CtaBatch<'a> {
    map: &'a TensorMap,
    tile: CtaTile,
    ctas: Vec<ScheduledCta>,
    main_loops: u64,
    active_ctas: u32,
}

impl<'a> CtaBatch<'a> {
    /// Binds a scheduled batch to its layer context. Every CTA must
    /// belong to one tile column (as `ColumnScheduler::batch` returns):
    /// the batch traces the column's filter warps once for all of them.
    pub fn new(
        map: &'a TensorMap,
        tile: CtaTile,
        ctas: Vec<ScheduledCta>,
        main_loops: u64,
        active_ctas: u32,
    ) -> CtaBatch<'a> {
        debug_assert!(
            ctas.iter().all(|c| c.col == ctas[0].col),
            "a CTA batch spans one tile column"
        );
        CtaBatch {
            map,
            tile,
            ctas,
            main_loops,
            active_ctas,
        }
    }

    /// Number of CTAs in the batch.
    pub fn len(&self) -> u64 {
        self.ctas.len() as u64
    }

    /// Whether the batch holds no CTAs.
    pub fn is_empty(&self) -> bool {
        self.ctas.is_empty()
    }

    /// Stage 1: builds each CTA's address tracer.
    fn traces(&self) -> Vec<(CtaTrace, u32)> {
        self.ctas
            .iter()
            .map(|c| (CtaTrace::new(self.map, self.tile, c.row, c.col), c.sm))
            .collect()
    }

    /// Runs the batch through all stages, mutating the shared hierarchy
    /// and timing state, and returns the batch's measured stats.
    ///
    /// `tx_buf` is a caller-provided scratch buffer so the per-warp
    /// transaction vector is allocated once per layer, not per warp.
    pub fn simulate(
        &self,
        hier: &mut MemoryHierarchy,
        timing: &mut TimingEngine,
        limits: BatchLimits,
        tx_buf: &mut Vec<Transaction>,
    ) -> BatchStats {
        let mut stats = BatchStats::default();
        let mut traces = self.traces();
        let sim_loops = limits
            .max_loops
            .map_or(self.main_loops, |m| self.main_loops.min(m.max(2)));
        let mut tail = TailAverager::default();
        let mut filter_warps = CoalescedWarps::default();

        for loop_idx in 0..sim_loops {
            // Stages 1+2 for the filter tile, shared by the whole batch.
            filter_warps.clear();
            if let Some((trace, _)) = traces.first_mut() {
                trace.for_each_filter_warp(loop_idx, |warp| filter_warps.push(warp, tx_buf));
            }
            // Stages 1-3: charge the hierarchy with each CTA's IFmap
            // warps, traced as transactions, then with the shared filter
            // warps.
            let mut loop_delta = TrafficDelta::default();
            for (trace, sm) in &mut traces {
                let sm = *sm as usize;
                trace.for_each_ifmap_warp(loop_idx, tx_buf, |warp| {
                    loop_delta.add(hier.warp_load(sm, warp));
                });
                for warp in filter_warps.iter() {
                    loop_delta.add(hier.warp_load(sm, warp));
                }
            }
            // Stage 4: convert this loop's measured traffic to cycles.
            let t = timing.charge_loop(loop_delta, self.len(), self.active_ctas);
            stats.cycles += t;
            stats.traffic.add(loop_delta);
            if loop_idx >= sim_loops / 2 {
                tail.push(loop_delta, t);
            }
        }

        if sim_loops < self.main_loops {
            let (avg_delta, avg_t) = tail.average();
            let rem = (self.main_loops - sim_loops) as f64;
            stats.traffic.l1_bytes += (avg_delta.0 * rem) as u64;
            stats.traffic.l2_bytes += (avg_delta.1 * rem) as u64;
            stats.traffic.dram_bytes += (avg_delta.2 * rem) as u64;
            stats.cycles += avg_t * rem;
            timing.add_cycles(avg_t * rem);
            // The skipped loops would have streamed this much unique data
            // through L2; age it so later batches and columns see
            // realistic residency.
            hier.age_l2((avg_delta.1 * rem) as u64);
            stats.loop_extrapolated = true;
        }

        if limits.simulate_stores {
            stats.store_bytes = self.epilogue_bytes();
            hier.count_stores(stats.store_bytes);
            stats.cycles += timing.charge_epilogue(stats.store_bytes);
        }
        stats
    }

    /// Epilogue stage: the byte volume of the batch's OFmap stores. Each
    /// CTA stores its tile row by row, one warp per 32 output channels;
    /// rows past the GEMM edge and channel chunks past `Co` issue no
    /// store.
    pub fn epilogue_bytes(&self) -> u64 {
        let blk_m = u64::from(self.tile.blk_m());
        let blk_n = u64::from(self.tile.blk_n());
        let (gemm_m, gemm_n) = (self.map.gemm_m(), self.map.gemm_n());
        let mut bytes = 0u64;
        for cta in &self.ctas {
            let m0 = cta.row * blk_m;
            let n0 = cta.col * blk_n;
            let n_end = (n0 + blk_n).min(gemm_n);
            for m in m0..(m0 + blk_m).min(gemm_m) {
                for lo in (n0..n_end).step_by(WARP_SIZE as usize) {
                    bytes += store_warp_bytes(self.map, m, lo);
                }
            }
        }
        bytes
    }
}

/// Bytes one epilogue warp stores: the warp writes OFmap row `m`,
/// columns `lo..min(lo + 32, Co)`, which is the contiguous byte range
/// `[a, b)` of the row-major OFmap. Its coalesced transactions cover
/// every 32 B sector from `a / 32` to `(b − 1) / 32` and no other (the
/// tensors are placed at element-aligned bases, so no 4 B element
/// straddles a sector), so the volume is their count × 32 B. Requires
/// `m < M` and `lo < Co`.
fn store_warp_bytes(map: &TensorMap, m: u64, lo: u64) -> u64 {
    let co = map.gemm_n();
    let hi = (lo + WARP_SIZE).min(co);
    let a = map.ofmap_base() + (m * co + lo) * BYTES_PER_ELEMENT;
    let b = map.ofmap_base() + (m * co + hi) * BYTES_PER_ELEMENT;
    ((b - 1) / SECTOR_BYTES - a / SECTOR_BYTES + 1) * SECTOR_BYTES
}

/// Coalesced warps stored back to back: one flat transaction list plus
/// each warp's end offset, reused from loop to loop. An all-predicated
/// warp keeps its (empty) slot, so replaying the list issues exactly the
/// warps that were traced.
#[derive(Debug, Default)]
struct CoalescedWarps {
    transactions: Vec<Transaction>,
    ends: Vec<usize>,
}

impl CoalescedWarps {
    fn clear(&mut self) {
        self.transactions.clear();
        self.ends.clear();
    }

    /// Coalesces `warp` (through the scratch `tx_buf`) and appends it.
    fn push(&mut self, warp: &[Option<u64>], tx_buf: &mut Vec<Transaction>) {
        coalesce::coalesce_warp(warp, tx_buf);
        self.transactions.extend_from_slice(tx_buf);
        self.ends.push(self.transactions.len());
    }

    /// The stored warps' transactions, in push order.
    fn iter(&self) -> impl Iterator<Item = &[Transaction]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.transactions[start..end])
    }
}

/// Running average of the steady-state tail of a batch's loops.
#[derive(Debug, Default)]
struct TailAverager {
    n: f64,
    l1: f64,
    l2: f64,
    dram: f64,
    cycles: f64,
}

impl TailAverager {
    fn push(&mut self, d: TrafficDelta, t: f64) {
        self.n += 1.0;
        self.l1 += d.l1_bytes as f64;
        self.l2 += d.l2_bytes as f64;
        self.dram += d.dram_bytes as f64;
        self.cycles += t;
    }

    fn average(&self) -> ((f64, f64, f64), f64) {
        let n = self.n.max(1.0);
        ((self.l1 / n, self.l2 / n, self.dram / n), self.cycles / n)
    }
}

/// Steady-state summary of a column's simulated batches: the per-batch
/// mean past warm-up, used to extrapolate unsimulated batches and to age
/// the L2 by the traffic they would have streamed.
#[derive(Debug, Clone, Copy, Default)]
pub struct SteadyState {
    /// Mean L1 bytes per steady batch.
    pub l1_bytes: f64,
    /// Mean L2 bytes per steady batch.
    pub l2_bytes: f64,
    /// Mean DRAM read bytes per steady batch.
    pub dram_bytes: f64,
    /// Mean store bytes per steady batch.
    pub store_bytes: f64,
    /// Mean cycles per steady batch.
    pub cycles: f64,
}

impl SteadyState {
    /// Computes the steady state of `simulated`, skipping the first
    /// (cold) batch when more are available.
    pub fn of(simulated: &[BatchStats]) -> SteadyState {
        if simulated.is_empty() {
            return SteadyState::default();
        }
        let steady = if simulated.len() > 1 {
            &simulated[1..]
        } else {
            simulated
        };
        // Average over the batches actually summed — not `simulated`'s
        // full length, which silently shrank the mean by (n-1)/n.
        let n = steady.len() as f64;
        SteadyState {
            l1_bytes: steady
                .iter()
                .map(|b| b.traffic.l1_bytes as f64)
                .sum::<f64>()
                / n,
            l2_bytes: steady
                .iter()
                .map(|b| b.traffic.l2_bytes as f64)
                .sum::<f64>()
                / n,
            dram_bytes: steady
                .iter()
                .map(|b| b.traffic.dram_bytes as f64)
                .sum::<f64>()
                / n,
            store_bytes: steady.iter().map(|b| b.store_bytes as f64).sum::<f64>() / n,
            cycles: steady.iter().map(|b| b.cycles).sum::<f64>() / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::ColumnScheduler;
    use crate::tensor::TensorMap;
    use delta_model::tiling::LayerTiling;
    use delta_model::{ConvLayer, GpuSpec};
    use proptest::prelude::*;

    fn layer() -> ConvLayer {
        ConvLayer::builder("stage_test")
            .batch(2)
            .input(16, 14, 14)
            .output_channels(32)
            .filter(3, 3)
            .pad(1)
            .build()
            .unwrap()
    }

    #[test]
    fn batch_unit_produces_traffic_and_cycles() {
        let l = layer();
        let gpu = GpuSpec::titan_xp();
        let tiling = LayerTiling::new(&l);
        let map = TensorMap::new(&l);
        let sched = ColumnScheduler::new(&tiling, &gpu, 1);
        let mut hier = MemoryHierarchy::new(&gpu);
        let mut timing = TimingEngine::new(&gpu, tiling.tile());
        let mut buf = Vec::new();
        let batch = CtaBatch::new(
            &map,
            tiling.tile(),
            sched.batch(0, 0),
            tiling.main_loops(),
            1,
        );
        assert!(!batch.is_empty());
        let stats = batch.simulate(
            &mut hier,
            &mut timing,
            BatchLimits {
                max_loops: None,
                simulate_stores: true,
            },
            &mut buf,
        );
        assert!(stats.traffic.l1_bytes > 0);
        assert!(stats.traffic.l1_bytes >= stats.traffic.l2_bytes);
        assert!(stats.cycles > 0.0);
        assert!(stats.store_bytes > 0);
        assert!(!stats.loop_extrapolated);
    }

    /// The per-lane epilogue the closed form replaced: every store warp's
    /// 32 lane addresses, coalesced, with the touched sectors summed.
    fn epilogue_bytes_by_lanes(batch: &CtaBatch<'_>) -> u64 {
        let mut warp = vec![None; WARP_SIZE as usize];
        let mut tx = Vec::new();
        let mut bytes = 0u64;
        for cta in &batch.ctas {
            let m0 = cta.row * u64::from(batch.tile.blk_m());
            let n0 = cta.col * u64::from(batch.tile.blk_n());
            for mi in 0..u64::from(batch.tile.blk_m()) {
                for n_chunk in (0..u64::from(batch.tile.blk_n())).step_by(WARP_SIZE as usize) {
                    for lane in 0..WARP_SIZE {
                        warp[lane as usize] = batch.map.ofmap_addr(m0 + mi, n0 + n_chunk + lane);
                    }
                    coalesce::coalesce_warp(&warp, &mut tx);
                    bytes += tx
                        .iter()
                        .map(|t| u64::from(t.sectors()) * SECTOR_BYTES)
                        .sum::<u64>();
                }
            }
        }
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// Ragged tiles on every axis: a partial last CTA row (M is rarely
        /// a multiple of 128), `Co` below 32, below `blkN`, or not a
        /// multiple of 32, batches above 1, and scaled tiles.
        #[test]
        fn closed_form_epilogue_equals_the_per_lane_reference(
            (batch, ci, hw, co, scale) in (1u32..5, 1u32..9, 1u32..19, 1u32..300, 0u32..3)
        ) {
            let l = ConvLayer::builder("epilogue")
                .batch(batch)
                .input(ci, hw, hw)
                .output_channels(co)
                .filter(3, 3)
                .pad(1)
                .build()
                .unwrap();
            let gpu = GpuSpec::titan_xp();
            let tiling = LayerTiling::with_scale(&l, Some(1 << scale));
            let map = TensorMap::new(&l);
            let sched = ColumnScheduler::new(&tiling, &gpu, 1);
            for col in 0..sched.columns() {
                for b in 0..sched.batches_per_column() {
                    let batch = CtaBatch::new(&map, tiling.tile(), sched.batch(col, b), 1, 1);
                    prop_assert_eq!(batch.epilogue_bytes(), epilogue_bytes_by_lanes(&batch));
                }
            }
        }
    }

    #[test]
    fn steady_state_skips_cold_batch_and_divides_by_tail_len() {
        let mk = |l2: u64| BatchStats {
            traffic: TrafficDelta {
                l1_bytes: 2 * l2,
                l2_bytes: l2,
                dram_bytes: l2 / 2,
            },
            store_bytes: 10,
            cycles: 100.0,
            loop_extrapolated: false,
        };
        // Cold batch at 1000, steady batches at 100.
        let stats = [mk(1000), mk(100), mk(100), mk(100)];
        let s = SteadyState::of(&stats);
        assert_eq!(s.l2_bytes, 100.0, "cold batch excluded, mean over 3");
        assert_eq!(s.cycles, 100.0);
        // Single batch: it is the steady state.
        let s1 = SteadyState::of(&stats[..1]);
        assert_eq!(s1.l2_bytes, 1000.0);
        // Empty: all zeros.
        assert_eq!(SteadyState::of(&[]).l2_bytes, 0.0);
    }
}
