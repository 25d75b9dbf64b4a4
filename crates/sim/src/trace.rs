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
//! Row coordinates are precomputed per CTA. An IFmap warp's lanes split
//! into runs whose addresses form one arithmetic sequence for every
//! filter element (lanes of one output row step by the stride, lanes of
//! an FC-shaped layer by one sample), so the IFmap warps come out as
//! coalesced transactions straight from the runs, with no per-lane
//! address. Filter warps are traced lane by lane and coalesced by
//! [`crate::coalesce::coalesce_warp`].

use crate::coalesce::Transaction;
use crate::tensor::TensorMap;
use delta_model::tiling::CtaTile;
use delta_model::{BYTES_PER_ELEMENT, LINE_BYTES, SECTOR_BYTES, WARP_SIZE};

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

/// Consecutive valid lanes of one IFmap warp whose filter windows step
/// evenly: lane `j` of the run reads the window of sample base
/// `sample_base + j × d_sample` with top-left `(y0, x0 + j × dx)`. For
/// any filter element the lanes' addresses then step by
/// `dx + d_sample` elements, and a border clips a run to a contiguous
/// lane range.
#[derive(Debug, Clone, Copy)]
struct RowRun {
    sample_base: u64,
    y0: i64,
    x0: i64,
    len: i64,
    /// Window step per lane along x: the stride for lanes of one output
    /// row, else 0.
    dx: i64,
    /// Sample step per lane: `Ci × Hi × Wi` for lanes of consecutive
    /// samples (an FC-shaped layer, one output position per sample),
    /// else 0.
    d_sample: u64,
}

impl RowRun {
    fn new(rc: &RowCoord) -> RowRun {
        RowRun {
            sample_base: rc.sample_base,
            y0: rc.y0,
            x0: rc.x0,
            len: 1,
            dx: 0,
            d_sample: 0,
        }
    }

    /// Appends the row `rc` if it continues the run's sequence; a
    /// one-lane run takes its step from its second row.
    fn extend(&mut self, rc: &RowCoord, stride: i64, ci_hw: u64) -> bool {
        if rc.y0 != self.y0 {
            return false;
        }
        if self.len == 1 {
            if rc.sample_base == self.sample_base && rc.x0 == self.x0 + stride {
                self.dx = stride;
            } else if rc.sample_base == self.sample_base + ci_hw && rc.x0 == self.x0 {
                self.d_sample = ci_hw;
            } else {
                return false;
            }
        } else if rc.sample_base != self.sample_base + self.len as u64 * self.d_sample
            || rc.x0 != self.x0 + self.len * self.dx
        {
            return false;
        }
        self.len += 1;
        true
    }

    /// The run's in-bounds lanes for filter offset `(fy, fx)` of the
    /// channel at element `chan_base`: the first lane's element index and
    /// the lane count, or `None` if padding predicates every lane off.
    #[inline]
    fn clip(&self, chan_base: u64, fy: i64, fx: i64, hi: u64, wi: u64) -> Option<(u64, u64)> {
        let iy = self.y0 + fy;
        if iy < 0 || iy as u64 >= hi {
            return None;
        }
        let (x, wi) = (self.x0 + fx, wi as i64);
        let (lo, end) = if self.dx == 0 {
            if x < 0 || x >= wi {
                return None;
            }
            (0, self.len)
        } else {
            // Lane j is in bounds iff 0 <= x + j·dx < wi; divide only at
            // a border.
            let ceil_div = |a: i64| (a.max(0) as u64).div_ceil(self.dx as u64) as i64;
            let lo = if x >= 0 { 0 } else { ceil_div(-x) };
            let end = if x + (self.len - 1) * self.dx < wi {
                self.len
            } else {
                ceil_div(wi - x)
            };
            (lo, end)
        };
        (lo < end).then(|| {
            let first = self.sample_base
                + lo as u64 * self.d_sample
                + chan_base
                + iy as u64 * wi as u64
                + (x + lo * self.dx) as u64;
            (first, (end - lo) as u64)
        })
    }
}

/// Address-trace generator for one CTA.
#[derive(Debug)]
pub struct CtaTrace {
    tile: CtaTile,
    /// First GEMM row/column of this CTA's tile.
    col0: u64,
    /// The IFmap warps' row runs, warp by warp.
    runs: Vec<RowRun>,
    /// End of each IFmap warp's runs in `runs`.
    warp_ends: Vec<usize>,
    #[cfg(test)]
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
        let rows: Vec<RowCoord> = (0..u64::from(tile.blk_m()))
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
        let mut runs: Vec<RowRun> = Vec::new();
        let mut warp_ends = Vec::new();
        for chunk in rows.chunks(WARP_SIZE as usize) {
            let warp_start = runs.len();
            for rc in chunk.iter().filter(|rc| rc.valid) {
                let extended = runs.len() > warp_start
                    && runs
                        .last_mut()
                        .is_some_and(|run| run.extend(rc, layer_dims.stride, layer_dims.ci_hw));
                if !extended {
                    runs.push(RowRun::new(rc));
                }
            }
            warp_ends.push(runs.len());
        }
        CtaTrace {
            tile,
            col0: cta_col * u64::from(tile.blk_n()),
            runs,
            warp_ends,
            #[cfg(test)]
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

    /// The channel base and filter offsets of GEMM reduction index `k`.
    #[inline]
    fn decode_k(&self, k: u64) -> (u64, i64, i64) {
        let filter_elems = u64::from(self.hf) * u64::from(self.wf);
        let (c, rem) = (k / filter_elems, k % filter_elems);
        let fy = (rem / u64::from(self.wf)) as i64;
        let fx = (rem % u64::from(self.wf)) as i64;
        (c * self.hi * self.wi, fy, fx)
    }

    /// Calls `visit` once per IFmap load warp of main-loop `loop_idx`
    /// (one warp is 32 consecutive rows of one im2col column), passing
    /// the warp's coalesced transactions, built in `out`. They are
    /// exactly [`crate::coalesce::coalesce_warp`] of the warp's 32 lane
    /// addresses: each run's in-bounds lanes read ascending addresses,
    /// so their lines come out in first-touch order, and a line only
    /// needs a search of the warp's earlier lines when it is not above
    /// every line seen so far.
    pub fn for_each_ifmap_warp(
        &self,
        loop_idx: u64,
        out: &mut Vec<Transaction>,
        mut visit: impl FnMut(&[Transaction]),
    ) {
        let blk_k = u64::from(self.tile.blk_k());
        let k0 = loop_idx * blk_k;
        let k_end = (k0 + blk_k).min(self.gemm_k);
        for k in k0..k_end {
            let (chan_base, fy, fx) = self.decode_k(k);
            let mut start = 0;
            for &end in &self.warp_ends {
                out.clear();
                let mut max_line = 0;
                for run in &self.runs[start..end] {
                    if let Some((first, lanes)) = run.clip(chan_base, fy, fx, self.hi, self.wi) {
                        let step = (run.dx as u64 + run.d_sample) * BYTES_PER_ELEMENT;
                        push_lanes(out, &mut max_line, first * BYTES_PER_ELEMENT, step, lanes);
                    }
                }
                start = end;
                visit(out);
            }
        }
    }

    /// The filter half of a main loop's loads: one warp is `blkK` rows ×
    /// `32/blkK` columns. It depends only on the CTA's tile column,
    /// never on its row, so every CTA of a batch (which shares one
    /// column) yields the same filter warps.
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

    /// Calls `visit` once per global-load warp of main-loop `loop_idx`,
    /// passing the warp's 32 (optional) byte addresses. IFmap warps come
    /// first, then filter warps, matching the kernel's load order.
    #[cfg(test)]
    pub(crate) fn for_each_warp(&mut self, loop_idx: u64, mut visit: impl FnMut(&[Option<u64>])) {
        self.for_each_ifmap_lane_warp(loop_idx, &mut visit);
        self.for_each_filter_warp(loop_idx, visit);
    }

    /// The lane-by-lane IFmap trace [`CtaTrace::for_each_ifmap_warp`]
    /// replaced, kept as its reference: each warp's 32 lane addresses,
    /// `None` for padding and rows past the GEMM edge.
    #[cfg(test)]
    pub(crate) fn for_each_ifmap_lane_warp(
        &mut self,
        loop_idx: u64,
        mut visit: impl FnMut(&[Option<u64>]),
    ) {
        let blk_k = u64::from(self.tile.blk_k());
        let k0 = loop_idx * blk_k;
        let k_end = (k0 + blk_k).min(self.gemm_k);
        for k in k0..k_end {
            let (chan_base, fy, fx) = self.decode_k(k);
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
}

/// Appends to the warp `out` the transactions of `lanes` lanes reading
/// ascending byte addresses `first + j × step`, merging each line into
/// the warp's first-touch order. `max_line` is the highest line in
/// `out` (ignored while `out` is empty).
#[inline]
fn push_lanes(out: &mut Vec<Transaction>, max_line: &mut u64, first: u64, step: u64, lanes: u64) {
    let sectors_per_line = LINE_BYTES / SECTOR_BYTES;
    if step <= SECTOR_BYTES {
        // No step skips a sector: the lanes touch every sector from the
        // first address's to the last's.
        let s_first = first / SECTOR_BYTES;
        let s_last = (first + (lanes - 1) * step) / SECTOR_BYTES;
        let (l_first, l_last) = (s_first / sectors_per_line, s_last / sectors_per_line);
        for line in l_first..=l_last {
            let lo = if line == l_first {
                s_first % sectors_per_line
            } else {
                0
            };
            let hi = if line == l_last {
                s_last % sectors_per_line
            } else {
                sectors_per_line - 1
            };
            merge_line(out, max_line, line, (0xF << lo) & (0xF >> (3 - hi)));
        }
    } else {
        let mut addr = first;
        let mut line = addr / LINE_BYTES;
        let mut mask = 0u8;
        for _ in 0..lanes {
            if addr / LINE_BYTES != line {
                merge_line(out, max_line, line, mask);
                line = addr / LINE_BYTES;
                mask = 0;
            }
            mask |= 1 << (addr % LINE_BYTES / SECTOR_BYTES);
            addr += step;
        }
        merge_line(out, max_line, line, mask);
    }
}

/// Adds sectors `mask` of `line` to the warp `out` as a first-touch
/// coalescer would: a line above every line so far is new; any other is
/// merged into its earlier transaction, if one exists.
#[inline]
fn merge_line(out: &mut Vec<Transaction>, max_line: &mut u64, line: u64, mask: u8) {
    if out.is_empty() || line > *max_line {
        *max_line = line;
    } else if let Some(t) = out.iter_mut().rev().find(|t| t.line == line) {
        t.sector_mask |= mask;
        return;
    }
    out.push(Transaction {
        line,
        sector_mask: mask,
    });
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
    use crate::coalesce::coalesce_warp;
    use delta_model::tiling::LayerTiling;
    use delta_model::{training, ConvLayer};
    use proptest::prelude::*;

    /// Every IFmap warp of every CTA row and main loop of `layer` (tiles
    /// scaled by `2^scale`), from the row runs and from the per-lane
    /// reference trace coalesced.
    fn ifmap_warps_both_ways(
        layer: &ConvLayer,
        scale: u32,
    ) -> (Vec<Vec<Transaction>>, Vec<Vec<Transaction>>) {
        let map = TensorMap::new(layer);
        let tiling = LayerTiling::with_scale(layer, Some(1 << scale));
        let tile = tiling.tile();
        let rows = map.gemm_m().div_ceil(u64::from(tile.blk_m()));
        let (mut runs, mut lanes) = (Vec::new(), Vec::new());
        let mut out = Vec::new();
        for row in 0..rows {
            let mut tr = CtaTrace::new(&map, tile, row, 0);
            for loop_idx in 0..tiling.main_loops() {
                tr.for_each_ifmap_warp(loop_idx, &mut out, |w| runs.push(w.to_vec()));
                tr.for_each_ifmap_lane_warp(loop_idx, |w| {
                    coalesce_warp(w, &mut out);
                    lanes.push(out.clone());
                });
            }
        }
        (runs, lanes)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Strides 1, 2 and 4, padding, maps narrower and wider than a
        /// warp, ragged M, and the dgrad and wgrad (FC-shaped, any K)
        /// transforms of each layer.
        #[test]
        fn run_transactions_equal_the_coalesced_lane_trace(
            ((batch, ci, hw, co), (filter, stride, pad, pass, scale)) in (
                (1u32..4, 1u32..6, 1u32..36, 1u32..80),
                (
                    prop_oneof![Just(1u32), Just(3), Just(5), Just(7)],
                    prop_oneof![Just(1u32), Just(2), Just(4)],
                    0u32..4,
                    0u8..3,
                    0u32..2,
                ),
            )
        ) {
            let base = ConvLayer::builder("runs")
                .batch(batch)
                .input(ci, hw + filter - 1, hw + filter + 2)
                .output_channels(co)
                .filter(filter, filter)
                .stride(stride)
                .pad(pad.min(filter - 1))
                .build()
                .unwrap();
            let layer = match pass {
                0 => base,
                1 => training::dgrad_layer(&base).unwrap(),
                _ => training::wgrad_layer(&base).unwrap(),
            };
            let (runs, lanes) = ifmap_warps_both_ways(&layer, scale);
            prop_assert_eq!(runs, lanes);
        }
    }

    /// The shapes the runs are built for, and their borders, one by one:
    /// both stride-2 borders of a 7×7 map, a 1×1 stride-2 projection, a
    /// 1×3 map whose second warp starts on a sample's last lane (the
    /// next lane is the next sample, but not one sample step away), and
    /// a wgrad GEMM whose K = 49 leaves a one-column last loop.
    #[test]
    fn run_transactions_cover_the_named_shapes() {
        let conv = |ci, hw, f, stride, pad| {
            ConvLayer::builder("named")
                .batch(12)
                .input(ci, hw, hw)
                .output_channels(40)
                .filter(f, f)
                .stride(stride)
                .pad(pad)
                .build()
                .unwrap()
        };
        let k49 = ConvLayer::builder("k49")
            .batch(1)
            .input(16, 7, 7)
            .output_channels(32)
            .filter(3, 3)
            .pad(1)
            .build()
            .unwrap();
        let wgrad = training::wgrad_layer(&k49).unwrap();
        assert_eq!(wgrad.gemm_k(), 49);
        let row_map = ConvLayer::builder("1x3")
            .batch(12)
            .input(4, 1, 3)
            .output_channels(40)
            .filter(1, 1)
            .build()
            .unwrap();
        for layer in [
            row_map,
            conv(8, 7, 3, 1, 1),
            conv(8, 7, 3, 2, 1),
            conv(16, 14, 1, 2, 0),
            conv(3, 35, 7, 4, 3),
            training::dgrad_layer(&conv(8, 7, 3, 2, 1)).unwrap(),
            wgrad,
        ] {
            let (runs, lanes) = ifmap_warps_both_ways(&layer, 0);
            assert!(runs.iter().any(|w| !w.is_empty()), "{}", layer.label());
            assert_eq!(runs, lanes, "{}", layer.label());
        }
    }

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
                        tr.for_each_ifmap_lane_warp(loop_idx, |w| split.extend_from_slice(w));
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
