//! The DeLTA model facade: one entry point that runs the traffic model
//! (§IV) and the performance model (§V) for a layer on a GPU.

use crate::error::Error;
use crate::gpu::GpuSpec;
use crate::layer::ConvLayer;
use crate::perf::{self, PerfEstimate};
use crate::report::LayerReport;
use crate::tiling::LayerTiling;
use crate::traffic::{self, TrafficEstimate};
use serde::{Deserialize, Serialize};

pub use crate::traffic::l1::MliMode;

/// Model knobs that are not part of the GPU or layer description.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DeltaOptions {
    /// Filter-MLI source (paper-profiled constants vs analytical
    /// derivation).
    pub mli_mode: MliMode,
    /// Overrides the computed active-CTAs-per-SM occupancy with a profiled
    /// value (§V "we use the hardware profiled information").
    pub active_ctas_override: Option<u32>,
    /// Multiplies the CTA tile height/width by this power-of-two factor
    /// (the Fig. 16a options 7–9 use 2 for 256-wide tiles). `None`/1 keeps
    /// the Fig. 6 lookup.
    pub tile_scale: Option<u32>,
}

/// The DeLTA analytical model bound to one GPU description.
///
/// ```rust
/// use delta_model::{ConvLayer, Delta, GpuSpec};
///
/// # fn main() -> Result<(), delta_model::Error> {
/// let delta = Delta::new(GpuSpec::v100());
/// let layer = ConvLayer::builder("5a_3x3")
///     .batch(256).input(160, 7, 7).output_channels(320)
///     .filter(3, 3).pad(1).build()?;
/// let report = delta.analyze(&layer)?;
/// assert!(report.perf.seconds > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Delta {
    gpu: GpuSpec,
    options: DeltaOptions,
}

impl Delta {
    /// Creates a model for `gpu` with default options.
    pub fn new(gpu: GpuSpec) -> Delta {
        Delta {
            gpu,
            options: DeltaOptions::default(),
        }
    }

    /// Creates a model with explicit options.
    pub fn with_options(gpu: GpuSpec, options: DeltaOptions) -> Delta {
        Delta { gpu, options }
    }

    /// The GPU this model evaluates on.
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// The active options.
    pub fn options(&self) -> DeltaOptions {
        self.options
    }

    /// The CTA tiling the model will use for `layer` (Fig. 6 lookup plus
    /// any configured tile scaling).
    pub fn tiling(&self, layer: &ConvLayer) -> LayerTiling {
        LayerTiling::with_scale(layer, self.options.tile_scale)
    }

    /// Runs the §IV memory-traffic model.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidGpu`] if the GPU spec fails validation.
    pub fn estimate_traffic(&self, layer: &ConvLayer) -> Result<TrafficEstimate, Error> {
        self.gpu.validate()?;
        let tiling = self.tiling(layer);
        Ok(traffic::estimate(
            layer,
            &tiling,
            &self.gpu,
            self.options.mli_mode,
        ))
    }

    /// Runs the §V performance model (which internally runs the traffic
    /// model).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidGpu`] if the GPU spec fails validation.
    pub fn estimate_performance(&self, layer: &ConvLayer) -> Result<PerfEstimate, Error> {
        self.gpu.validate()?;
        let tiling = self.tiling(layer);
        let traffic = traffic::estimate(layer, &tiling, &self.gpu, self.options.mli_mode);
        Ok(perf::estimate(
            &tiling,
            &traffic,
            &self.gpu,
            self.options.active_ctas_override,
        ))
    }

    /// Full analysis: traffic + performance + the tiling used, bundled as
    /// a [`LayerReport`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidGpu`] if the GPU spec fails validation.
    pub fn analyze(&self, layer: &ConvLayer) -> Result<LayerReport, Error> {
        self.gpu.validate()?;
        let tiling = self.tiling(layer);
        let traffic = traffic::estimate(layer, &tiling, &self.gpu, self.options.mli_mode);
        let perf = perf::estimate(
            &tiling,
            &traffic,
            &self.gpu,
            self.options.active_ctas_override,
        );
        Ok(LayerReport::new(
            layer.clone(),
            self.gpu.name(),
            tiling,
            traffic,
            perf,
        ))
    }

    /// Analyzes every layer of a network, in order.
    ///
    /// # Errors
    ///
    /// Propagates the first analysis failure.
    pub fn analyze_network<'a, I>(&self, layers: I) -> Result<Vec<LayerReport>, Error>
    where
        I: IntoIterator<Item = &'a ConvLayer>,
    {
        layers.into_iter().map(|l| self.analyze(l)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::Bottleneck;

    fn alexnet_conv1() -> ConvLayer {
        ConvLayer::builder("alexnet_conv1")
            .batch(256)
            .input(3, 227, 227)
            .output_channels(96)
            .filter(11, 11)
            .stride(4)
            .build()
            .unwrap()
    }

    #[test]
    fn analyze_bundles_consistent_pieces() {
        let delta = Delta::new(GpuSpec::titan_xp());
        let r = delta.analyze(&alexnet_conv1()).unwrap();
        let t = delta.estimate_traffic(&alexnet_conv1()).unwrap();
        let p = delta.estimate_performance(&alexnet_conv1()).unwrap();
        assert_eq!(r.traffic, t);
        assert_eq!(r.perf, p);
        assert_eq!(r.gpu_name, "TITAN Xp");
    }

    #[test]
    fn alexnet_conv1_has_worst_l1_pressure_of_alexnet() {
        // §VII-B: "L1 BW restricts the first conv layer of AlexNet on
        // TITAN Xp due to its poor L1 transaction efficiency." With the
        // Table I effective bandwidths our reproduction keeps conv1
        // MAC-bound, but the *shape* claim — conv1 has by far the worst
        // L1 pressure (t_L1_BW / t_CS) of AlexNet — must hold.
        let delta = Delta::new(GpuSpec::titan_xp());
        let conv1 = alexnet_conv1();
        let conv3 = ConvLayer::builder("alexnet_conv3")
            .batch(256)
            .input(256, 13, 13)
            .output_channels(384)
            .filter(3, 3)
            .pad(1)
            .build()
            .unwrap();
        let p1 = delta.estimate_performance(&conv1).unwrap();
        let p3 = delta.estimate_performance(&conv3).unwrap();
        let pressure = |p: &crate::PerfEstimate| p.streams.t_l1_bw / p.streams.t_cs;
        assert!(
            pressure(&p1) > 1.5 * pressure(&p3),
            "conv1 {} vs conv3 {}",
            pressure(&p1),
            pressure(&p3)
        );
        // conv1's large MLI drives that pressure.
        let t1 = delta.estimate_traffic(&conv1).unwrap();
        assert!(
            t1.mli_ifmap >= 5.0,
            "stride-4 11x11 im2col: {}",
            t1.mli_ifmap
        );
        assert!(
            matches!(p1.bottleneck, Bottleneck::L1Bw | Bottleneck::MacBw),
            "{p1}"
        );
    }

    #[test]
    fn tile_scale_option_grows_tiles() {
        let opts = DeltaOptions {
            tile_scale: Some(2),
            ..Default::default()
        };
        let delta = Delta::with_options(GpuSpec::titan_xp(), opts);
        let l = alexnet_conv1();
        assert_eq!(delta.tiling(&l).tile().blk_m(), 256);
        let plain = Delta::new(GpuSpec::titan_xp());
        assert_eq!(plain.tiling(&l).tile().blk_m(), 128);
    }

    #[test]
    fn analyze_network_preserves_order() {
        let delta = Delta::new(GpuSpec::p100());
        let l1 = alexnet_conv1();
        let l2 = ConvLayer::builder("alexnet_conv2")
            .batch(256)
            .input(96, 27, 27)
            .output_channels(256)
            .filter(5, 5)
            .pad(2)
            .build()
            .unwrap();
        let reports = delta.analyze_network([&l1, &l2]).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].layer.label(), "alexnet_conv1");
        assert_eq!(reports[1].layer.label(), "alexnet_conv2");
    }

    #[test]
    fn mli_mode_changes_filter_traffic_only_slightly() {
        let l = alexnet_conv1();
        let profiled = Delta::new(GpuSpec::titan_xp());
        let derived = Delta::with_options(
            GpuSpec::titan_xp(),
            DeltaOptions {
                mli_mode: MliMode::Derived,
                ..Default::default()
            },
        );
        let tp = profiled.estimate_traffic(&l).unwrap();
        let td = derived.estimate_traffic(&l).unwrap();
        // Filter side is small relative to IFmap side: totals within 5%.
        assert!((tp.l1_bytes - td.l1_bytes).abs() / tp.l1_bytes < 0.05);
        assert!(tp.mli_filter != td.mli_filter);
    }
}
