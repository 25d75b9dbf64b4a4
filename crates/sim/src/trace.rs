//! Implicit-GEMM address-trace generation (paper Figs. 3 & 5).
//!
//! Each CTA's main-loop iteration loads:
//!
//! * its `blkM × blkK` IFmap-matrix tile — one warp covers 32 consecutive
//!   rows of a single im2col column (Fig. 5a), so consecutive threads read
//!   consecutive *output positions* for one filter element;
//! * its `blkN × blkK` filter-matrix tile — one warp covers `blkK` rows ×
//!   `32/blkK` columns (Fig. 5b/c), so threads within a `blkK` group read
//!   contiguous weights of one output channel while groups jump between
//!   distant channels.
//!
//! Row coordinates are precomputed per CTA so the per-element cost in the
//! hot loop is a handful of integer operations.

use crate::tensor::TensorMap;
use delta_model::tiling::CtaTile;
use delta_model::{BYTES_PER_ELEMENT, WARP_SIZE};

/// Precomputed coordinates of one GEMM row within a CTA tile.
#[derive(Debug, Clone, Copy)]
struct RowCoord {
    /// Element index of the sample's first IFmap element
    /// (`b × Ci × Hi × Wi`).
    sample_base: u64,
    /// Top-left input y of the filter window (`oy × stride − pad`).
    y0: i64,
    /// Top-left input x of the filter window (`ox × stride − pad`).
    x0: i64,
    /// False for rows past the GEMM edge (partial tiles).
    valid: bool,
}

/// Address-trace generator for one CTA.
#[derive(Debug)]
pub struct CtaTrace {
    tile: CtaTile,
    /// First GEMM row/column of this CTA's tile.
    col0: u64,
    rows: Vec<RowCoord>,
    hi: u64,
    wi: u64,
    hf: u32,
    wf: u32,
    gemm_k: u64,
    gemm_n: u64,
    filter_base: u64,
    warp_buf: Vec<Option<u64>>,
}

impl CtaTrace {
    /// Prepares the trace generator for the CTA at tile coordinates
    /// (`cta_row`, `cta_col`) of the grid.
    pub fn new(map: &TensorMap, tile: CtaTile, cta_row: u64, cta_col: u64) -> CtaTrace {
        let row0 = cta_row * u64::from(tile.blk_m());
        let m = map.gemm_m();
        let layer_dims = map.layer_dims();
        let rows = (0..u64::from(tile.blk_m()))
            .map(|r| {
                let gm = row0 + r;
                if gm >= m {
                    return RowCoord {
                        sample_base: 0,
                        y0: 0,
                        x0: 0,
                        valid: false,
                    };
                }
                let (b, oy, ox) = map.decode_row(gm);
                RowCoord {
                    sample_base: u64::from(b) * layer_dims.ci_hw,
                    y0: i64::from(oy) * layer_dims.stride - layer_dims.pad,
                    x0: i64::from(ox) * layer_dims.stride - layer_dims.pad,
                    valid: true,
                }
            })
            .collect();
        CtaTrace {
            tile,
            col0: cta_col * u64::from(tile.blk_n()),
            rows,
            hi: layer_dims.hi,
            wi: layer_dims.wi,
            hf: layer_dims.hf,
            wf: layer_dims.wf,
            gemm_k: map.gemm_k(),
            gemm_n: map.gemm_n(),
            filter_base: map.filter_base(),
            warp_buf: vec![None; WARP_SIZE as usize],
        }
    }

    /// Calls `visit` once per global-load warp of main-loop `loop_idx`,
    /// passing the warp's 32 (optional) byte addresses. IFmap warps come
    /// first, then filter warps, matching the kernel's load order.
    pub fn for_each_warp(&mut self, loop_idx: u64, mut visit: impl FnMut(&[Option<u64>])) {
        self.for_each_ifmap_warp(loop_idx, &mut visit);
        self.for_each_filter_warp(loop_idx, visit);
    }

    /// The IFmap half of [`CtaTrace::for_each_warp`]: one warp is 32
    /// consecutive rows of one im2col column.
    pub fn for_each_ifmap_warp(&mut self, loop_idx: u64, mut visit: impl FnMut(&[Option<u64>])) {
        let blk_k = u64::from(self.tile.blk_k());
        let k0 = loop_idx * blk_k;
        let k_end = (k0 + blk_k).min(self.gemm_k);
        for k in k0..k_end {
            let c = k / (u64::from(self.hf) * u64::from(self.wf));
            let rem = k % (u64::from(self.hf) * u64::from(self.wf));
            let fy = (rem / u64::from(self.wf)) as i64;
            let fx = (rem % u64::from(self.wf)) as i64;
            let chan_base = c * self.hi * self.wi;
            for chunk in self.rows.chunks(WARP_SIZE as usize) {
                for (lane, rc) in chunk.iter().enumerate() {
                    self.warp_buf[lane] = if rc.valid {
                        let iy = rc.y0 + fy;
                        let ix = rc.x0 + fx;
                        if iy >= 0 && ix >= 0 && (iy as u64) < self.hi && (ix as u64) < self.wi {
                            Some(
                                (rc.sample_base + chan_base + iy as u64 * self.wi + ix as u64)
                                    * BYTES_PER_ELEMENT,
                            )
                        } else {
                            None
                        }
                    } else {
                        None
                    };
                }
                for lane in chunk.len()..WARP_SIZE as usize {
                    self.warp_buf[lane] = None;
                }
                visit(&self.warp_buf);
            }
        }
    }

    /// The filter half of [`CtaTrace::for_each_warp`]: one warp is
    /// `blkK` rows × `32/blkK` columns. It depends only on the CTA's tile
    /// column, never on its row, so every CTA of a batch (which shares
    /// one column) yields the same filter warps.
    pub fn for_each_filter_warp(&mut self, loop_idx: u64, mut visit: impl FnMut(&[Option<u64>])) {
        let k_span = u64::from(self.tile.blk_k());
        let k0 = loop_idx * k_span;
        let cols_per_warp = WARP_SIZE / k_span.max(1);
        let filter_warps = (u64::from(self.tile.blk_n()) * k_span).div_ceil(WARP_SIZE);
        for w in 0..filter_warps {
            for t in 0..WARP_SIZE {
                let col_in_warp = t / k_span;
                let k_off = t % k_span;
                let n = self.col0 + w * cols_per_warp + col_in_warp;
                let k = k0 + k_off;
                self.warp_buf[t as usize] = if n < self.gemm_n && k < self.gemm_k {
                    Some(self.filter_base + (n * self.gemm_k + k) * BYTES_PER_ELEMENT)
                } else {
                    None
                };
            }
            visit(&self.warp_buf);
        }
    }

    /// The tile this trace covers.
    pub fn tile(&self) -> CtaTile {
        self.tile
    }
}

/// Cached scalar dimensions extracted from the [`TensorMap`]'s layer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LayerDims {
    pub(crate) hi: u64,
    pub(crate) wi: u64,
    /// Per-sample element count `Ci × Hi × Wi`.
    pub(crate) ci_hw: u64,
    pub(crate) hf: u32,
    pub(crate) wf: u32,
    pub(crate) stride: i64,
    pub(crate) pad: i64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_model::ConvLayer;

    fn trace_for(layer: &ConvLayer, cta_row: u64, cta_col: u64) -> (TensorMap, CtaTrace) {
        let map = TensorMap::new(layer);
        let tile = CtaTile::select(layer.out_channels());
        let t = CtaTrace::new(&map, tile, cta_row, cta_col);
        (map, t)
    }

    fn collect_addrs(trace: &mut CtaTrace, loop_idx: u64) -> Vec<Option<u64>> {
        let mut all = Vec::new();
        trace.for_each_warp(loop_idx, |w| all.extend_from_slice(w));
        all
    }

    #[test]
    fn warp_count_matches_tile_volume() {
        let l = ConvLayer::builder("t")
            .batch(2)
            .input(16, 14, 14)
            .output_channels(128)
            .filter(3, 3)
            .pad(1)
            .build()
            .unwrap();
        let (_, mut tr) = trace_for(&l, 0, 0);
        let mut warps = 0;
        tr.for_each_warp(0, |_| warps += 1);
        // IFmap: blkK columns x blkM/32 warps; filter: blkN*blkK/32 warps.
        assert_eq!(warps, 8 * (128 / 32) + (128 * 8) / 32);
    }

    #[test]
    fn trace_agrees_with_tensor_map_oracle() {
        // Every generated IFmap address must equal the (slow) per-cell
        // oracle TensorMap::im2col_addr.
        let l = ConvLayer::builder("t")
            .batch(2)
            .input(3, 6, 6)
            .output_channels(40)
            .filter(3, 3)
            .stride(2)
            .pad(1)
            .build()
            .unwrap();
        let map = TensorMap::new(&l);
        let tile = CtaTile::select(l.out_channels());
        let mut tr = CtaTrace::new(&map, tile, 0, 0);
        let blk_m = u64::from(tile.blk_m());
        let blk_k = u64::from(tile.blk_k());
        let warps_per_col = blk_m / 32;

        let mut warp_idx = 0u64;
        tr.for_each_warp(0, |w| {
            let is_ifmap = warp_idx < blk_k.min(map.gemm_k()) * warps_per_col;
            if is_ifmap {
                let k = warp_idx / warps_per_col;
                let row_base = (warp_idx % warps_per_col) * 32;
                for (lane, addr) in w.iter().enumerate() {
                    let m = row_base + lane as u64;
                    let expect = if m < map.gemm_m() {
                        map.im2col_addr(m, k)
                    } else {
                        None
                    };
                    assert_eq!(*addr, expect, "m={m} k={k}");
                }
            }
            warp_idx += 1;
        });
    }

    #[test]
    fn filter_warps_match_fig5b_layout() {
        let l = ConvLayer::builder("t")
            .batch(1)
            .input(16, 14, 14)
            .output_channels(128)
            .filter(3, 3)
            .pad(1)
            .build()
            .unwrap();
        let map = TensorMap::new(&l);
        let tile = CtaTile::select(128);
        assert_eq!(tile.blk_k(), 8);
        let mut tr = CtaTrace::new(&map, tile, 0, 0);
        let ifmap_warps = 8 * (128 / 32);
        let mut idx = 0;
        tr.for_each_warp(0, |w| {
            if idx == ifmap_warps {
                // First filter warp: threads 0..8 walk k of column 0
                // contiguously; thread 8 jumps to column 1.
                let k_bytes = map.gemm_k() * 4;
                let a0 = w[0].unwrap();
                assert_eq!(w[1].unwrap(), a0 + 4);
                assert_eq!(w[7].unwrap(), a0 + 28);
                assert_eq!(w[8].unwrap(), a0 + k_bytes);
                assert_eq!(w[31].unwrap(), a0 + 3 * k_bytes + 28);
            }
            idx += 1;
        });
    }

    #[test]
    fn partial_edge_tiles_predicate_out_of_range() {
        // M = 36 -> rows 36..128 of the tile are invalid; N = 40 < blkN.
        let l = ConvLayer::builder("t")
            .batch(1)
            .input(4, 6, 6)
            .output_channels(40)
            .filter(1, 1)
            .build()
            .unwrap();
        let (map, mut tr) = trace_for(&l, 0, 0);
        assert_eq!(map.gemm_m(), 36);
        let addrs = collect_addrs(&mut tr, 0);
        let live = addrs.iter().flatten().count();
        assert!(live > 0);
        // IFmap live lanes: 36 rows x blkK(4) columns; filter live:
        // 40 cols x 4 rows.
        assert_eq!(live, 36 * 4 + 40 * 4);
    }

    #[test]
    fn padded_border_lanes_are_none() {
        let l = ConvLayer::builder("t")
            .batch(1)
            .input(1, 4, 4)
            .output_channels(32)
            .filter(3, 3)
            .pad(1)
            .build()
            .unwrap();
        let (_, mut tr) = trace_for(&l, 0, 0);
        // k=0 (filter top-left): output (0,0) reads padding.
        let addrs = collect_addrs(&mut tr, 0);
        assert_eq!(addrs[0], None);
        // Some lane of the k=0 column is live (interior outputs).
        assert!(addrs[..16].iter().any(Option::is_some));
    }

    /// A batch issues one shared filter trace for all its CTAs: that is
    /// exact only if the filter warps never depend on the CTA's row.
    #[test]
    fn filter_warps_depend_on_the_column_only() {
        // (Co, Ci): N % blkN != 0 and K = 9·Ci % blkK != 0 for each tile.
        for (co, ci) in [(20u32, 3u32), (40, 5), (200, 7)] {
            let l = ConvLayer::builder("t")
                .batch(2)
                .input(ci, 15, 15)
                .output_channels(co)
                .filter(3, 3)
                .pad(1)
                .build()
                .unwrap();
            let map = TensorMap::new(&l);
            let tile = CtaTile::select(co);
            assert_ne!(map.gemm_n() % u64::from(tile.blk_n()), 0);
            assert_ne!(map.gemm_k() % u64::from(tile.blk_k()), 0);
            let rows = map.gemm_m().div_ceil(u64::from(tile.blk_m()));
            let cols = map.gemm_n().div_ceil(u64::from(tile.blk_n()));
            let loops = map.gemm_k().div_ceil(u64::from(tile.blk_k()));
            let filter_addrs = |tr: &mut CtaTrace, loop_idx| {
                let mut all = Vec::new();
                tr.for_each_filter_warp(loop_idx, |w| all.extend_from_slice(w));
                all
            };
            for col in 0..cols {
                let mut row0 = CtaTrace::new(&map, tile, 0, col);
                for row in 0..rows {
                    let mut tr = CtaTrace::new(&map, tile, row, col);
                    for loop_idx in 0..loops {
                        let filter = filter_addrs(&mut tr, loop_idx);
                        assert_eq!(
                            filter,
                            filter_addrs(&mut row0, loop_idx),
                            "co={co} row={row}"
                        );
                        let mut split = Vec::new();
                        tr.for_each_ifmap_warp(loop_idx, |w| split.extend_from_slice(w));
                        split.extend(filter);
                        assert_eq!(collect_addrs(&mut tr, loop_idx), split, "co={co} row={row}");
                    }
                }
            }
        }
    }

    #[test]
    fn second_loop_advances_k() {
        let l = ConvLayer::builder("t")
            .batch(1)
            .input(16, 8, 8)
            .output_channels(64)
            .filter(3, 3)
            .pad(1)
            .build()
            .unwrap();
        let (map, mut tr) = trace_for(&l, 0, 0);
        let a0 = collect_addrs(&mut tr, 0);
        let a1 = collect_addrs(&mut tr, 1);
        assert_ne!(a0, a1);
        // Loop 1's first ifmap column is k = blkK.
        let blk_k = u64::from(tr.tile().blk_k());
        assert_eq!(a1[5], map.im2col_addr(5, blk_k));
    }
}
