//! Tensor-core datapath selection and MMA-tile compute timing.
//!
//! The paper's simulator charges each CTA main loop a compute time
//! `t_CS = blkM·blkN·blkK / FFMA-MACs-per-clk` (Eq. 13 structure). GEMM
//! and attention layers ([`LayerKind`]) on tensor-core devices execute
//! the same loop on MMA units instead: the CTA tile's `blkM × blkN ×
//! blkK` product is quantized to whole MMA instruction tiles
//! ([`MmaShape`], e.g. 16×16×16 Volta HMMA or 16×8×16 Ampere) and
//! charged at the device's tensor-core MAC rate.
//!
//! Everything *outside* the compute term is unchanged — addresses,
//! coalescing, cache replay, the CTA-tile column [`ShardPlan`]
//! contract, and the exact-merge guarantees all operate on the layer's
//! conv-shaped embedding. The datapath is a pure function of
//! `(GpuSpec, LayerKind)`, so every worker, shard, and fleet executor
//! selects the same one independently and sharded/fleet results stay
//! bitwise identical for every worker count.
//!
//! [`ShardPlan`]: crate::shard::ShardPlan

use delta_model::tiling::CtaTile;
use delta_model::{GpuSpec, LayerKind, MmaShape};

/// Which arithmetic units execute a layer's main-loop MACs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Datapath {
    /// The FP32 FFMA pipeline the paper models — always used for conv
    /// layers, and for every layer on devices without tensor cores.
    Ffma,
    /// The tensor-core (MMA) pipeline, with the device's instruction
    /// tile shape.
    TensorCore(MmaShape),
}

impl Datapath {
    /// Selects the datapath for `kind` on `gpu`: tensor cores iff the
    /// layer is a GEMM/attention workload *and* the device has them.
    /// Conv layers always use FFMA — the paper's CNN results are
    /// untouched by this subsystem.
    pub fn select(gpu: &GpuSpec, kind: LayerKind) -> Datapath {
        match gpu.mma_shape() {
            Some(mma) if !kind.is_conv() && gpu.has_tensor_cores() => Datapath::TensorCore(mma),
            _ => Datapath::Ffma,
        }
    }

    /// Short name for spans and reports (`ffma` / `tensorcore`).
    pub fn label(&self) -> &'static str {
        match self {
            Datapath::Ffma => "ffma",
            Datapath::TensorCore(_) => "tensorcore",
        }
    }

    /// Whether this is the tensor-core pipeline.
    pub fn is_tensor_core(&self) -> bool {
        matches!(self, Datapath::TensorCore(_))
    }

    /// Compute clocks for one CTA main-loop iteration of `tile` on this
    /// datapath — the `t_CS` term of the timing engine.
    ///
    /// FFMA: `blkM·blkN·blkK / MACs-per-clk` (the paper's Eq. 13 term).
    /// Tensor cores: the loop issues `ceil(blkM/m)·ceil(blkN/n)·
    /// ceil(blkK/k)` MMA instructions, each worth `m·n·k` MACs, at the
    /// tensor-core MAC rate — partial tiles pay for a full MMA, so
    /// ragged CTA tiles lose efficiency exactly as real kernels do.
    pub fn loop_compute_clks(&self, gpu: &GpuSpec, tile: CtaTile) -> f64 {
        match *self {
            Datapath::Ffma => {
                let macs =
                    f64::from(tile.blk_m()) * f64::from(tile.blk_n()) * f64::from(tile.blk_k());
                macs / gpu.macs_per_clk_per_sm()
            }
            Datapath::TensorCore(mma) => {
                let tiles = f64::from(tile.blk_m().div_ceil(mma.m))
                    * f64::from(tile.blk_n().div_ceil(mma.n))
                    * f64::from(tile.blk_k().div_ceil(mma.k));
                let macs_per_mma = f64::from(mma.m) * f64::from(mma.n) * f64::from(mma.k);
                tiles * macs_per_mma / gpu.tc_macs_per_clk_per_sm()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_model::ConvLayer;

    #[test]
    fn conv_layers_always_select_ffma() {
        let conv = LayerKind::Conv;
        assert_eq!(Datapath::select(&GpuSpec::titan_xp(), conv), Datapath::Ffma);
        assert_eq!(
            Datapath::select(&GpuSpec::v100_tensor(), conv),
            Datapath::Ffma,
            "conv stays on FFMA even with tensor cores present"
        );
    }

    #[test]
    fn gemm_selects_tensor_cores_only_on_capable_devices() {
        let gemm = ConvLayer::gemm("g", 128, 128, 64).unwrap().kind();
        assert_eq!(Datapath::select(&GpuSpec::v100(), gemm), Datapath::Ffma);
        let dp = Datapath::select(&GpuSpec::v100_tensor(), gemm);
        assert!(dp.is_tensor_core());
        assert_eq!(dp.label(), "tensorcore");
        let attn = ConvLayer::attention("a", 2, 64, 4, 32).unwrap().kind();
        assert!(Datapath::select(&GpuSpec::a100(), attn).is_tensor_core());
    }

    #[test]
    fn tensor_core_loop_is_faster_and_quantized() {
        let gpu = GpuSpec::v100_tensor();
        let tile = CtaTile::LARGE; // 128x128x8
        let ffma = Datapath::Ffma.loop_compute_clks(&gpu, tile);
        let mma = Datapath::select(&gpu, LayerKind::Gemm { m: 1, n: 1, k: 1 });
        let tc = mma.loop_compute_clks(&gpu, tile);
        assert!(tc < ffma, "tensor cores must beat FFMA: {tc} vs {ffma}");
        // blk_k = 8 < mma k = 16: the partial reduction tile is padded to
        // a whole MMA, so the charged MAC count exceeds the tile's MACs.
        let charged = tc * gpu.tc_macs_per_clk_per_sm();
        let actual = 128.0 * 128.0 * 8.0;
        assert!(charged > actual, "ragged tiles pay full MMAs: {charged}");
    }

    #[test]
    fn selection_is_deterministic_across_calls() {
        // The merge contract depends on every worker choosing the same
        // datapath from (gpu, kind) alone.
        let gpu = GpuSpec::a100();
        let kind = LayerKind::Attention {
            seq: 128,
            heads: 8,
            head_dim: 64,
        };
        let a = Datapath::select(&gpu, kind);
        let b = Datapath::select(&gpu, kind);
        assert_eq!(a, b);
        assert_eq!(
            a.loop_compute_clks(&gpu, CtaTile::MEDIUM),
            b.loop_compute_clks(&gpu, CtaTile::MEDIUM)
        );
    }
}
