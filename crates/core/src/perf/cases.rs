//! Multi-CTA interleaving and the four bottleneck cases (paper §V,
//! Fig. 10, Eqs. 14–18).
//!
//! With `NumACT` CTAs resident per SM, the per-loop stream times combine
//! into three per-SM execution-time candidates:
//!
//! * **Eq. 16** (cases 1 & 3): throughput-bound — every active CTA's
//!   `max(t_CS, t_SAS)` serializes on the SM's compute/SMEM pipelines.
//! * **Eq. 17** (case 2): latency-bound — too few CTAs to hide `t_GLS`, so
//!   each *batch* of `NumACT` CTAs takes a full `t_GLS` per loop.
//! * **Eq. 18** (case 4): memory-bandwidth-bound — a saturated level's
//!   transfer time alone sets the loop time.
//!
//! The largest candidate is the per-SM execution time and identifies the
//! bottleneck; the busiest SM (most CTAs) sets the layer time.

use crate::gpu::GpuSpec;
use crate::perf::streams::StreamTimes;
use crate::perf::{Bottleneck, PerfEstimate};
use crate::tiling::LayerTiling;
use crate::traffic::TrafficEstimate;
use crate::BYTES_PER_ELEMENT;

/// Eq. 14 — GEMM prologue: the first CTA's input tiles travel
/// DRAM → registers → SMEM before the first main loop can start (later
/// CTAs' prologues are hidden by interleaving).
///
/// The printed equation's first volume reads `blkM × blkN`, which is the
/// size of the *output* tile; the prologue loads the *input* tiles,
/// `(blkM + blkN) × blkK`, which is what we use.
pub fn t_prologue(tiling: &LayerTiling, streams: &StreamTimes, gpu: &GpuSpec) -> f64 {
    let tile = tiling.tile();
    let input_bytes =
        f64::from(tile.blk_m() + tile.blk_n()) * f64::from(tile.blk_k()) * BYTES_PER_ELEMENT as f64;
    let dram_share = gpu.dram_bytes_per_clk() / f64::from(gpu.num_sm());
    (gpu.lat_dram_clks() + input_bytes / dram_share)
        + (gpu.lat_smem_clks() + input_bytes / gpu.smem_st_bytes_per_clk())
        + streams.smem_load_bytes / gpu.smem_ld_bytes_per_clk()
}

/// Eq. 15 — GEMM epilogue: each CTA writes its `blkM × blkN` accumulated
/// outputs to DRAM (not negligible when the main loop is short).
pub fn t_epilogue(tiling: &LayerTiling, gpu: &GpuSpec) -> f64 {
    let tile = tiling.tile();
    let out_bytes = f64::from(tile.blk_m()) * f64::from(tile.blk_n()) * BYTES_PER_ELEMENT as f64;
    out_bytes / gpu.dram_bytes_per_clk()
}

/// Eq. 15 (bandwidth-bottlenecked variant) — epilogue writes drain through
/// the saturated level's per-SM bandwidth share.
pub fn t_epilogue_bottleneck(tiling: &LayerTiling, streams: &StreamTimes, gpu: &GpuSpec) -> f64 {
    let tile = tiling.tile();
    let out_bytes = f64::from(tile.blk_m()) * f64::from(tile.blk_n()) * BYTES_PER_ELEMENT as f64;
    let num_sm = f64::from(gpu.num_sm());
    let share = if streams.t_l1_bw >= streams.t_l2_bw && streams.t_l1_bw >= streams.t_dram_bw {
        gpu.l1_bytes_per_clk()
    } else if streams.t_l2_bw >= streams.t_dram_bw {
        gpu.l2_bytes_per_clk() / num_sm
    } else {
        gpu.dram_bytes_per_clk() / num_sm
    };
    out_bytes / share
}

/// Runs the full §V performance model for one layer.
///
/// `active_ctas_override` substitutes for "hardware profiled information"
/// (§V Multi-CTA Interleaving) when the occupancy of the real kernel is
/// known; `None` computes occupancy from the RF/SMEM budgets.
pub fn estimate(
    tiling: &LayerTiling,
    traffic: &TrafficEstimate,
    gpu: &GpuSpec,
    active_ctas_override: Option<u32>,
) -> PerfEstimate {
    let streams = StreamTimes::compute(tiling, traffic, gpu);
    let active = active_ctas_override
        .unwrap_or_else(|| tiling.tile().active_ctas_per_sm(gpu))
        .max(1);
    let loops = tiling.main_loops() as f64;
    let ctas_per_sm = tiling.ctas_on_busiest_sm(gpu);
    let per_sm = ctas_per_sm as f64;

    let prologue = t_prologue(tiling, &streams, gpu);
    let epilogue = t_epilogue(tiling, gpu);
    let epilogue_bn = t_epilogue_bottleneck(tiling, &streams, gpu);

    // Eq. 16 — cases 1 & 3 (throughput bound).
    let t_mac_sm = prologue + (streams.t_throughput() * loops + epilogue) * per_sm;

    // Eq. 17 — case 2 (latency bound): batches of `active` CTAs each pay
    // a full t_GLS per loop.
    let batches = (ctas_per_sm as f64 / f64::from(active)).ceil();
    let t_lat_sm = prologue + (streams.t_gls * loops + epilogue) * batches;

    // Eq. 18 — case 4 (memory bandwidth bound).
    let t_bw_sm = prologue + (streams.t_bw_max() * loops + epilogue_bn) * per_sm;

    let cycles = t_mac_sm.max(t_lat_sm).max(t_bw_sm);

    let bottleneck = if cycles == t_bw_sm && t_bw_sm > t_mac_sm && t_bw_sm > t_lat_sm {
        if streams.t_l1_bw >= streams.t_l2_bw && streams.t_l1_bw >= streams.t_dram_bw {
            Bottleneck::L1Bw
        } else if streams.t_l2_bw >= streams.t_dram_bw {
            Bottleneck::L2Bw
        } else {
            Bottleneck::DramBw
        }
    } else if cycles == t_lat_sm && t_lat_sm > t_mac_sm {
        Bottleneck::DramLat
    } else if streams.t_cs >= streams.t_sas {
        Bottleneck::MacBw
    } else {
        Bottleneck::SmemBw
    };

    PerfEstimate {
        cycles,
        seconds: gpu.clks_to_seconds(cycles),
        bottleneck,
        streams,
        t_prologue: prologue,
        t_epilogue: epilogue,
        t_mac_sm,
        t_lat_sm,
        t_bw_sm,
        active_ctas: active,
        ctas_per_sm,
        num_ctas: tiling.num_ctas(),
        main_loops: tiling.main_loops(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::ConvLayer;
    use crate::traffic::{self, l1::MliMode};

    fn run(layer: &ConvLayer, gpu: &GpuSpec) -> PerfEstimate {
        let tiling = LayerTiling::new(layer);
        let tr = traffic::estimate(layer, &tiling, gpu, MliMode::PaperProfiled);
        estimate(&tiling, &tr, gpu, None)
    }

    fn layer(ci: u32, hw: u32, co: u32, f: u32, s: u32, p: u32) -> ConvLayer {
        ConvLayer::builder("t")
            .batch(256)
            .input(ci, hw, hw)
            .output_channels(co)
            .filter(f, f)
            .stride(s)
            .pad(p)
            .build()
            .unwrap()
    }

    #[test]
    fn reuse_heavy_layer_is_mac_bound() {
        // VGG-style 3x3 512-channel layer: massive data reuse -> compute
        // bound on Titan Xp (the paper finds ~90% of layers MAC-bound).
        let l = layer(512, 14, 512, 3, 1, 1);
        let e = run(&l, &GpuSpec::titan_xp());
        assert_eq!(e.bottleneck, Bottleneck::MacBw, "{e}");
    }

    #[test]
    fn time_lower_bounded_by_compute_roofline() {
        let l = layer(256, 28, 256, 3, 1, 1);
        let gpu = GpuSpec::titan_xp();
        let e = run(&l, &gpu);
        let roofline = l.macs() as f64 / (gpu.mac_gflops() / 2.0 * 1e9);
        assert!(e.seconds >= roofline * 0.9, "{} < {roofline}", e.seconds);
    }

    #[test]
    fn more_mac_throughput_never_slows_a_layer() {
        let l = layer(96, 28, 128, 3, 1, 1);
        let base = run(&l, &GpuSpec::titan_xp());
        let boosted = GpuSpec::titan_xp()
            .to_builder()
            .mac_gflops(2.0 * 12134.0)
            .build()
            .unwrap();
        let fast = run(&l, &boosted);
        assert!(fast.seconds <= base.seconds * 1.0001);
    }

    #[test]
    fn candidates_cover_final_time() {
        let l = layer(256, 13, 128, 3, 1, 1);
        let e = run(&l, &GpuSpec::titan_xp());
        let max = e.t_mac_sm.max(e.t_lat_sm).max(e.t_bw_sm);
        assert!((e.cycles - max).abs() < 1e-9);
    }

    #[test]
    fn prologue_and_epilogue_positive() {
        let l = layer(64, 56, 64, 1, 1, 0);
        let gpu = GpuSpec::titan_xp();
        let tiling = LayerTiling::new(&l);
        let tr = traffic::estimate(&l, &tiling, &gpu, MliMode::PaperProfiled);
        let s = StreamTimes::compute(&tiling, &tr, &gpu);
        assert!(t_prologue(&tiling, &s, &gpu) > gpu.lat_dram_clks());
        assert!(t_epilogue(&tiling, &gpu) > 0.0);
        assert!(t_epilogue_bottleneck(&tiling, &s, &gpu) >= t_epilogue(&tiling, &gpu) * 0.99);
    }

    #[test]
    fn occupancy_override_changes_latency_candidate_only() {
        let l = layer(832, 7, 32, 1, 1, 0); // tiny features, few CTAs
        let gpu = GpuSpec::titan_xp();
        let tiling = LayerTiling::new(&l);
        let tr = traffic::estimate(&l, &tiling, &gpu, MliMode::PaperProfiled);
        let one = estimate(&tiling, &tr, &gpu, Some(1));
        let many = estimate(&tiling, &tr, &gpu, Some(16));
        assert!(one.t_lat_sm >= many.t_lat_sm);
        assert!((one.t_mac_sm - many.t_mac_sm).abs() < 1e-9);
    }

    #[test]
    fn starved_gpu_becomes_memory_bound() {
        // Strangle DRAM bandwidth: a 1x1 layer (little reuse) must flip to
        // a DRAM bottleneck.
        let l = layer(256, 14, 256, 1, 1, 0);
        let weak = GpuSpec::titan_xp()
            .to_builder()
            .dram_bw_gbps(20.0)
            .build()
            .unwrap();
        let e = run(&l, &weak);
        assert!(
            matches!(e.bottleneck, Bottleneck::DramBw | Bottleneck::DramLat),
            "{e}"
        );
        assert!(e.t_bw_sm.max(e.t_lat_sm) > e.t_mac_sm);
    }

    #[test]
    fn v100_is_faster_than_titan_xp_on_compute_bound_layer() {
        let l = layer(512, 14, 512, 3, 1, 1);
        let xp = run(&l, &GpuSpec::titan_xp());
        let v = run(&l, &GpuSpec::v100());
        assert!(v.seconds < xp.seconds);
    }
}
