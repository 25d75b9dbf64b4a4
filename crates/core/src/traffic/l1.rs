//! L1 cache traffic model (paper §IV-A, Eqs. 2–4, Fig. 5).
//!
//! im2col rearranges the IFmap so adjacent elements of an IFmap-matrix
//! column are *not* contiguous in memory: every
//! `Wi + 2·Pad − Wf + 1` elements, `Wf − 1` elements are skipped (and with
//! stride > 1 elements are skipped between every pair). A warp's 128 B of
//! references therefore spans more than 128 B of address space and needs
//! more than one L1 request. The ratio of requests made to requests needed
//! with perfect layout is the *memory-load inefficiency* (MLI).

use crate::gpu::GpuSpec;
use crate::layer::ConvLayer;
use crate::tiling::LayerTiling;
use crate::{BYTES_PER_ELEMENT, SECTOR_BYTES, WARP_SIZE};
use serde::{Deserialize, Serialize};

/// Bytes referenced by one warp load: 32 threads × 4 B.
const BYTES_PER_WARP: f64 = (WARP_SIZE * BYTES_PER_ELEMENT) as f64;

/// How the filter-matrix MLI constant is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum MliMode {
    /// Use the constants the paper profiles on Pascal: 2.0 for `blkK = 8`,
    /// 2.75 for `blkK = 4` (§IV-A). Falls back to [`MliMode::Derived`] for
    /// other configurations (e.g. Volta's 32 B requests).
    #[default]
    PaperProfiled,
    /// Use the alignment-averaged analytical derivation
    /// ([`mli_filter_derived`]); yields 1.875 / 2.75 for `blkK` 8 / 4.
    Derived,
    /// Count filter requests at full line granularity
    /// ([`mli_filter_physical`]): each of the warp's `32/blkK` distant
    /// columns costs whole 128 B requests. This is what a
    /// transaction-counting profiler (and this repository's simulator)
    /// observes; yields ≈4.9 / 8.8 for `blkK` 8 / 4. The `ablation`
    /// experiment scores all three modes against the simulator.
    Physical,
}

/// Eq. 2 — elements requested per element used within one IFmap-matrix
/// column:
///
/// ```text
/// (Wi + 2·Pad) × Strd / (Wi + 2·Pad − Wf + 1)
/// ```
///
/// Equals 1.0 for a dense 1×1 stride-1 layer and grows with filter width,
/// stride, and shrinking feature maps.
pub fn element_request_ratio(layer: &ConvLayer) -> f64 {
    let wp = f64::from(layer.padded_width());
    let wf = f64::from(layer.filter_width());
    let s = f64::from(layer.stride());
    (wp * s) / (wp - wf + 1.0)
}

/// Eq. 3 — IFmap memory-load inefficiency per warp.
///
/// The coalesced references of one warp are rounded up to whole L1 requests
/// (`l1_request_bytes`: 128 B on Pascal, 32 B on Volta) and normalized to
/// the request count under perfect layout and alignment.
pub fn mli_ifmap(layer: &ConvLayer, l1_request_bytes: u32) -> f64 {
    let ratio = element_request_ratio(layer);
    let req = f64::from(l1_request_bytes);
    let ideal_requests = BYTES_PER_WARP / req;
    (ratio * ideal_requests).ceil() / ideal_requests
}

/// Alignment-averaged filter MLI derivation (§IV-A discussion).
///
/// With `blkK` of 4 or 8, a warp's 32 threads cover `32/blkK` filter-matrix
/// columns whose addresses are mutually distant; each column contributes a
/// contiguous run of `blkK × 4` bytes. Averaged over all 4 B-granular
/// placements of a run within 32 B sectors, the sector traffic per warp,
/// normalized to the 128 B of useful data, gives the MLI. Produces exactly
/// 2.75 for `blkK = 4` and 1.875 for `blkK = 8` (the paper rounds the
/// latter to 2.0).
pub fn mli_filter_derived(blk_k: u32) -> f64 {
    let blk_k = u64::from(blk_k.max(1)).min(WARP_SIZE);
    let columns = WARP_SIZE / blk_k;
    let run_bytes = blk_k * BYTES_PER_ELEMENT;
    let offsets = SECTOR_BYTES / BYTES_PER_ELEMENT;
    let mut total_sectors = 0u64;
    for e in 0..offsets {
        let start = e * BYTES_PER_ELEMENT;
        // 32 B sectors touched by [start, start + run_bytes).
        total_sectors += (start + run_bytes - 1) / SECTOR_BYTES + 1;
    }
    let avg_sectors = total_sectors as f64 / offsets as f64;
    columns as f64 * avg_sectors * SECTOR_BYTES as f64 / BYTES_PER_WARP
}

/// Line-granularity filter MLI: what a transaction-counting profiler
/// sees.
///
/// Each of a warp's `32/blkK` filter columns lives on a distant line, so
/// every column run costs at least one whole `l1_request_bytes` request;
/// runs that straddle a request boundary (uniform 4 B alignment) cost
/// two. The paper's sector-granularity constants (2.0 / 2.75) undercount
/// this by roughly the line/run ratio; the `ablation` experiment's
/// filter-MLI table measures the gap against the simulator.
pub fn mli_filter_physical(blk_k: u32, l1_request_bytes: u32) -> f64 {
    let blk_k = u64::from(blk_k.max(1)).min(WARP_SIZE);
    let req = u64::from(l1_request_bytes).max(SECTOR_BYTES);
    let columns = WARP_SIZE / blk_k;
    let run_bytes = blk_k * BYTES_PER_ELEMENT;
    let offsets = req / BYTES_PER_ELEMENT;
    let mut total_requests = 0u64;
    for e in 0..offsets {
        let start = e * BYTES_PER_ELEMENT;
        total_requests += (start + run_bytes - 1) / req + 1;
    }
    let avg_requests = total_requests as f64 / offsets as f64;
    // Normalize to the ideal request count for 128 B of useful data.
    columns as f64 * avg_requests * req as f64 / BYTES_PER_WARP
}

/// Filter memory-load inefficiency per warp.
///
/// In [`MliMode::PaperProfiled`] the Pascal-profiled constants are used
/// where the paper states them (128 B requests, `blkK` ∈ {4, 8});
/// [`MliMode::Derived`] uses the sector-granularity derivation and
/// [`MliMode::Physical`] the line-granularity one.
pub fn mli_filter(blk_k: u32, l1_request_bytes: u32, mode: MliMode) -> f64 {
    match (mode, l1_request_bytes, blk_k) {
        (MliMode::Physical, _, _) => mli_filter_physical(blk_k, l1_request_bytes),
        (MliMode::PaperProfiled, 128, 8) => 2.0,
        (MliMode::PaperProfiled, 128, 4) => 2.75,
        _ => mli_filter_derived(blk_k),
    }
}

/// Total L1 traffic in bytes with *per-CTA* accounting:
///
/// ```text
/// T_L1 = [ (M × K) × cols × MLI_IFmap + (N × K) × rows × MLI_Filter ] × 4 B
/// ```
///
/// Every CTA loads its own `blkM × blkK` IFmap tile and `blkN × blkK`
/// filter tile each main loop, so the IFmap matrix flows through L1 once
/// per CTA-tile *column* and the filter matrix once per CTA-tile *row*.
/// The paper's printed Eq. 4 omits the two grid multiplicities
/// ([`l1_traffic_bytes_paper_eq4`]), but its own measured L1 volumes
/// (Fig. 20a) include them — a profiler counts every transaction the SMs
/// issue — so this physically consistent form is the default.
pub fn l1_traffic_bytes(
    layer: &ConvLayer,
    tiling: &LayerTiling,
    gpu: &GpuSpec,
    mode: MliMode,
) -> f64 {
    let m = layer.gemm_m() as f64;
    let n = layer.gemm_n() as f64;
    let k = layer.gemm_k() as f64;
    let mli_if = mli_ifmap(layer, gpu.l1_request_bytes());
    let mli_fil = mli_filter(tiling.tile().blk_k(), gpu.l1_request_bytes(), mode);
    let cols = tiling.cta_columns() as f64;
    let rows = tiling.cta_rows() as f64;
    ((m * k) * cols * mli_if + (n * k) * rows * mli_fil) * BYTES_PER_ELEMENT as f64
}

/// Eq. 4 exactly as printed in the paper:
///
/// ```text
/// T_L1 = [ (M × K) × MLI_IFmap + (N × K) × MLI_Filter ] × 4 B
/// ```
///
/// Counts each GEMM input element once regardless of how many CTAs load
/// it. Kept for auditability against the paper text; see
/// [`l1_traffic_bytes`] for the default accounting.
pub fn l1_traffic_bytes_paper_eq4(
    layer: &ConvLayer,
    tiling: &LayerTiling,
    gpu: &GpuSpec,
    mode: MliMode,
) -> f64 {
    let m = layer.gemm_m() as f64;
    let n = layer.gemm_n() as f64;
    let k = layer.gemm_k() as f64;
    let mli_if = mli_ifmap(layer, gpu.l1_request_bytes());
    let mli_fil = mli_filter(tiling.tile().blk_k(), gpu.l1_request_bytes(), mode);
    ((m * k) * mli_if + (n * k) * mli_fil) * BYTES_PER_ELEMENT as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiling::LayerTiling;

    fn layer(wi: u32, wf: u32, s: u32, p: u32) -> ConvLayer {
        ConvLayer::builder("t")
            .batch(1)
            .input(16, wi, wi)
            .output_channels(128)
            .filter(wf, wf)
            .stride(s)
            .pad(p)
            .build()
            .unwrap()
    }

    #[test]
    fn eq2_paper_example() {
        // Fig. 5a: 4x4 IFmap, pad 1 (padded 6x6), 3x3 filter, stride 1:
        // requested/used = 6*1 / (6-3+1) = 1.5.
        let l = layer(4, 3, 1, 1);
        assert!((element_request_ratio(&l) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn eq2_degenerates_to_one_for_dense_pointwise() {
        let l = layer(14, 1, 1, 0);
        assert!((element_request_ratio(&l) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eq2_scales_with_stride() {
        let l = layer(28, 1, 2, 0);
        assert!((element_request_ratio(&l) - 2.0).abs() < 1e-12);
        let l = layer(27, 3, 2, 1); // (27+2)*2/(29-3+1) = 58/27
        assert!((element_request_ratio(&l) - 58.0 / 27.0).abs() < 1e-12);
    }

    #[test]
    fn mli_ifmap_is_ceiling_of_ratio_on_pascal() {
        // Pascal: one ideal 128 B request per warp, so MLI = ceil(ratio).
        let l = layer(4, 3, 1, 1); // ratio 1.5
        assert!((mli_ifmap(&l, 128) - 2.0).abs() < 1e-12);
        let dense = layer(14, 1, 1, 0);
        assert!((mli_ifmap(&dense, 128) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mli_ifmap_finer_granularity_on_volta() {
        // 32 B requests quantize in quarters: ceil(1.5*4)/4 = 1.5.
        let l = layer(4, 3, 1, 1);
        assert!((mli_ifmap(&l, 32) - 1.5).abs() < 1e-12);
        // Volta never exceeds Pascal's inefficiency.
        for (wi, wf, s, p) in [(13, 3, 1, 1), (27, 5, 1, 2), (224, 7, 2, 3), (7, 3, 1, 1)] {
            let l = layer(wi, wf, s, p);
            assert!(mli_ifmap(&l, 32) <= mli_ifmap(&l, 128) + 1e-12);
        }
    }

    #[test]
    fn mli_ifmap_at_least_one() {
        for (wi, wf, s, p) in [(4, 3, 1, 1), (7, 7, 1, 0), (224, 7, 2, 3), (13, 13, 13, 0)] {
            let l = layer(wi.max(wf), wf, s, p);
            assert!(mli_ifmap(&l, 128) >= 1.0);
            assert!(mli_ifmap(&l, 32) >= 1.0);
        }
    }

    #[test]
    fn mli_filter_paper_constants() {
        assert!((mli_filter(8, 128, MliMode::PaperProfiled) - 2.0).abs() < 1e-12);
        assert!((mli_filter(4, 128, MliMode::PaperProfiled) - 2.75).abs() < 1e-12);
    }

    #[test]
    fn mli_filter_derivation_matches_paper_within_rounding() {
        // blkK=4 derives exactly; blkK=8 derives 1.875 which the paper
        // reports as 2.0.
        assert!((mli_filter_derived(4) - 2.75).abs() < 1e-12);
        assert!((mli_filter_derived(8) - 1.875).abs() < 1e-12);
        assert!((mli_filter_derived(8) - 2.0).abs() < 0.15);
    }

    #[test]
    fn mli_filter_physical_counts_whole_lines() {
        // blkK=8 on Pascal: 4 distant columns, each one 128 B request
        // (plus boundary crossings) vs the ideal single request.
        let m8 = mli_filter_physical(8, 128);
        assert!((4.0..5.0).contains(&m8), "{m8}");
        let m4 = mli_filter_physical(4, 128);
        assert!((8.0..9.0).contains(&m4), "{m4}");
        // Volta's 32 B requests collapse physical onto the sector-level
        // derivation.
        assert!((mli_filter_physical(8, 32) - mli_filter_derived(8)).abs() < 1e-12);
        assert!(mli_filter(8, 128, MliMode::Physical) > mli_filter(8, 128, MliMode::PaperProfiled));
    }

    #[test]
    fn mli_filter_derived_decreases_with_blk_k() {
        // Longer contiguous runs per column waste fewer sectors.
        assert!(mli_filter_derived(8) < mli_filter_derived(4));
        assert!(mli_filter_derived(32) <= mli_filter_derived(8));
    }

    #[test]
    fn per_cta_accounting_includes_grid_multiplicities() {
        let l = ConvLayer::builder("t")
            .batch(64)
            .input(96, 28, 28)
            .output_channels(128)
            .filter(3, 3)
            .pad(1)
            .build()
            .unwrap();
        let t = LayerTiling::new(&l);
        let gpu = GpuSpec::titan_xp();
        let total = l1_traffic_bytes(&l, &t, &gpu, MliMode::PaperProfiled);
        let eq4 = l1_traffic_bytes_paper_eq4(&l, &t, &gpu, MliMode::PaperProfiled);
        // Co=128 -> one CTA column, so the IFmap side matches Eq. 4; the
        // filter side is multiplied by the (large) CTA row count.
        assert!(total > eq4);
        let ifmap_side = (l.gemm_m() * l.gemm_k()) as f64 * mli_ifmap(&l, 128) * 4.0;
        let filter_side = (l.gemm_n() * l.gemm_k() * t.cta_rows()) as f64 * 2.0 * 4.0;
        assert!((total - ifmap_side - filter_side).abs() / total < 1e-12);
    }

    #[test]
    fn l1_traffic_equals_per_loop_tile_volume() {
        // Per CTA per loop the kernel moves blkM*blkK*MLI_if +
        // blkN*blkK*MLI_fil elements through L1; the total must factor that
        // way (up to edge-tile rounding).
        let l = ConvLayer::builder("t")
            .batch(32)
            .input(256, 14, 14)
            .output_channels(256)
            .filter(3, 3)
            .pad(1)
            .build()
            .unwrap();
        let t = LayerTiling::new(&l);
        let gpu = GpuSpec::titan_xp();
        let total = l1_traffic_bytes(&l, &t, &gpu, MliMode::PaperProfiled);
        let per_loop = (128.0 * 8.0 * mli_ifmap(&l, 128) + 128.0 * 8.0 * 2.0) * 4.0;
        let factored = per_loop * t.num_ctas() as f64 * t.main_loops() as f64;
        // Edge tiles make the exact total slightly smaller.
        assert!(total <= factored * 1.001);
        assert!(total >= factored * 0.9);
    }
}
