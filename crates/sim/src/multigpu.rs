//! Multi-GPU simulation: device-level partitioning on top of the
//! mergeable-hierarchy contract.
//!
//! PR 2's shard layer established the invariant this module builds on:
//! every tile column replays from identical cold state no matter who
//! owns it, and per-owner [`HierarchyStats`](crate::HierarchyStats)
//! snapshots merge exactly when walked in ascending column order. A
//! *device* is just a shard with a price tag: a `G`-device run is the
//! [`ShardPlan`](crate::ShardPlan) at `G` workers, each device owning
//! one contiguous column range replayed against private hierarchies,
//! so the merged measurement is **bitwise identical to the
//! single-device sharded run** — by construction, for every device
//! count. Devices beyond the column count idle.
//!
//! What makes G devices different from G worker threads is the
//! [`Interconnect`]: non-owner
//! devices refetch the layer's IFmap over links (the halo flow), and a
//! data-parallel training step all-reduces weight gradients once per
//! layer. Under the `ideal` preset both flows cost zero bytes and zero
//! seconds, so the interconnect model is the *only* source of multi-GPU
//! divergence and can be validated in isolation — the same
//! testing-by-identity trick the shard layer used.

use crate::interconnect::{Interconnect, InterconnectKind};
use crate::sim::{Measurement, Simulator};
use crate::topology::TopologyKind;
use delta_model::backend::LayerEstimate;
use delta_model::{ConvLayer, GpuSpec};

/// One layer's multi-GPU simulation outcome: the merged measurement
/// (identical to the single-device sharded run), the per-device critical
/// paths, and the interconnect charges.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiGpuMeasurement {
    /// The merged per-device measurements — bitwise identical to
    /// [`Simulator::run_sharded`]`(layer, 1)` for every device count and
    /// interconnect.
    pub merged: Measurement,
    /// Cycles each device spends on its own columns (prologue included;
    /// 0 for idle devices), in device order.
    pub per_device_cycles: Vec<f64>,
    /// Bytes crossing the interconnect (halo IFmap refetches; topology
    /// factor applied). 0 under the `ideal` preset and for single-device
    /// runs.
    pub link_bytes: f64,
    /// Seconds spent in interconnect transfers.
    pub link_seconds: f64,
    /// Devices the plan spanned.
    pub devices: u32,
    /// Devices that own at least one tile column and so performed
    /// replay work: `min(devices, columns)`.
    pub active_devices: u32,
}

impl MultiGpuMeasurement {
    /// The busiest device's cycles — the on-device critical path of the
    /// multi-GPU execution.
    pub fn max_device_cycles(&self) -> f64 {
        self.per_device_cycles.iter().copied().fold(0.0, f64::max)
    }

    /// Wall-clock seconds of the multi-GPU step: the busiest device plus
    /// the interconnect transfers (devices compute concurrently; link
    /// traffic serializes behind the slowest one).
    pub fn step_seconds(&self, gpu: &GpuSpec) -> f64 {
        gpu.clks_to_seconds(self.max_device_cycles()) + self.link_seconds
    }

    /// Converts to the backend-neutral estimate.
    ///
    /// Traffic and time are the merged single-device-equivalent totals
    /// (so the `ideal` interconnect yields a byte-identical estimate for
    /// every device count) with the interconnect charges added on top:
    /// `link_bytes` carries the cross-device traffic and `seconds` /
    /// `cycles` grow by the transfer time. Per-device speedup questions
    /// go through [`MultiGpuMeasurement::step_seconds`] instead.
    pub fn to_estimate(&self, gpu: &GpuSpec) -> LayerEstimate {
        let mut est = self.merged.to_estimate(gpu);
        est.link_bytes = self.link_bytes;
        est.seconds += self.link_seconds;
        est.cycles += gpu.seconds_to_clks(self.link_seconds);
        est
    }
}

impl Simulator {
    /// Runs `layer` partitioned across `devices` GPUs (the shard plan at
    /// `devices` workers), each replaying its tile-column range against
    /// private hierarchies, and charges cross-device halo traffic
    /// through the named fabric —
    /// the primitive behind query-driven evaluation, where
    /// [`Parallelism::Multi`](delta_model::query::Parallelism) carries
    /// the interconnect and topology.
    ///
    /// The merged measurement inherits the shard layer's contract: it is
    /// **bitwise identical for every device count** (and equal to
    /// [`Simulator::run_sharded`] at any worker count). Only
    /// `link_bytes`/`link_seconds` and the per-device critical paths
    /// vary with `devices` — and under the `ideal` interconnect the link
    /// charges are exactly zero.
    pub fn run_multi(
        &self,
        layer: &ConvLayer,
        devices: u32,
        interconnect: InterconnectKind,
        topology: Option<TopologyKind>,
    ) -> MultiGpuMeasurement {
        let g = devices.max(1);
        let run = self.run_local(layer, Some(g));
        self.multi_from_run(layer, run, g, interconnect, topology)
    }

    /// Prices an already-merged G-shard [`ShardedRun`](crate::sim::ShardedRun)
    /// as a `devices`-wide multi-GPU measurement — the fabric half of
    /// every multi-device replay, whichever source ran its columns.
    pub(crate) fn multi_from_run(
        &self,
        layer: &ConvLayer,
        run: crate::sim::ShardedRun,
        devices: u32,
        interconnect: InterconnectKind,
        topology: Option<TopologyKind>,
    ) -> MultiGpuMeasurement {
        // Scalar preset, or topology-derived parameters when a graph is
        // named.
        let ic: Interconnect = crate::sim::fabric_of(interconnect, topology, devices);
        // Devices that actually replayed work (each owns at least one
        // column); every one beyond the first refetches the IFmap halo.
        let active = run.per_shard_cycles.iter().filter(|c| **c > 0.0).count() as u32;
        let ifmap = layer.ifmap_bytes() as f64;
        MultiGpuMeasurement {
            merged: run.measurement,
            per_device_cycles: run.per_shard_cycles,
            link_bytes: ic.halo_bytes(ifmap, active),
            link_seconds: ic.halo_seconds(ifmap, active),
            devices,
            active_devices: active,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;

    fn wide_layer() -> ConvLayer {
        // Co = 512 -> LARGE tile -> 4 tile columns.
        ConvLayer::builder("wide")
            .batch(2)
            .input(16, 14, 14)
            .output_channels(512)
            .filter(3, 3)
            .pad(1)
            .build()
            .unwrap()
    }

    fn sim() -> Simulator {
        Simulator::new(GpuSpec::titan_xp(), SimConfig::default())
    }

    #[test]
    fn ideal_multi_gpu_is_bitwise_identical_to_sharded() {
        let l = wide_layer();
        let s = sim();
        let reference = s.run_sharded(&l, 1);
        for g in [1, 2, 4, 8] {
            let m = s.run_multi(&l, g, InterconnectKind::Ideal, None);
            assert_eq!(m.merged, reference, "devices={g}");
            assert_eq!(m.link_bytes, 0.0, "devices={g}");
            assert_eq!(m.link_seconds, 0.0, "devices={g}");
            assert_eq!(m.per_device_cycles.len(), g.max(1) as usize);
        }
    }

    #[test]
    fn per_device_cycles_shrink_with_more_devices() {
        let l = wide_layer();
        let s = sim();
        let one = s.run_multi(&l, 1, InterconnectKind::Ideal, None);
        let four = s.run_multi(&l, 4, InterconnectKind::Ideal, None);
        assert!(four.max_device_cycles() < one.max_device_cycles());
        // Total column work is conserved (each device re-charges only
        // the prologue).
        assert!(four.step_seconds(s.gpu()) < one.step_seconds(s.gpu()));
        // Idle devices report zero cycles.
        let eight = s.run_multi(&l, 8, InterconnectKind::Ideal, None);
        assert_eq!(eight.active_devices, 4);
        assert_eq!(
            eight
                .per_device_cycles
                .iter()
                .filter(|c| **c == 0.0)
                .count(),
            4
        );
    }

    #[test]
    fn narrow_layer_spreads_over_more_devices_than_columns() {
        // Co = 128 -> at most 2 tile columns, however tall: devices
        // beyond the column count idle, charge no halo, and the answer
        // is the one-device answer.
        let l = ConvLayer::builder("narrow")
            .batch(64)
            .input(64, 14, 14)
            .output_channels(128)
            .filter(3, 3)
            .pad(1)
            .build()
            .unwrap();
        let s = sim();
        let cols = s.tiling(&l).cta_columns();
        assert!(cols <= 2);
        let one = s.run_multi(&l, 1, InterconnectKind::NvLink, None);
        let eight = s.run_multi(&l, 8, InterconnectKind::NvLink, None);
        assert_eq!(eight.merged, s.run_sharded(&l, 1));
        assert_eq!(eight.active_devices, cols as u32);
        assert_eq!(
            eight.per_device_cycles.iter().filter(|c| **c > 0.0).count() as u32,
            eight.active_devices
        );
        // The busy devices run exactly the per-column replays the
        // matching column-count run does.
        let busy = s.run_multi(&l, cols as u32, InterconnectKind::NvLink, None);
        assert_eq!(eight.link_bytes, busy.link_bytes);
        assert_eq!(eight.max_device_cycles(), busy.max_device_cycles());
        if cols == 1 {
            assert_eq!(eight.link_bytes, 0.0);
            assert_eq!(eight.max_device_cycles(), one.max_device_cycles());
        }
    }

    #[test]
    fn nonideal_interconnect_charges_halo_traffic() {
        let l = wide_layer();
        let ideal = sim().run_multi(&l, 4, InterconnectKind::Ideal, None);
        for kind in [InterconnectKind::NvLink, InterconnectKind::Pcie] {
            let m = sim().run_multi(&l, 4, kind, None);
            assert_eq!(m.merged, ideal.merged, "{kind}: merge must not change");
            assert!(m.link_bytes > 0.0, "{kind}");
            assert!(m.link_seconds > 0.0, "{kind}");
            // Expected volume: (active-1) x IFmap x topology factor.
            let expected = kind.params().effective_bytes(3.0 * l.ifmap_bytes() as f64);
            assert!((m.link_bytes - expected).abs() < 1e-9, "{kind}");
            // Single device: nothing crosses links even on slow fabrics.
            let single = sim().run_multi(&l, 1, kind, None);
            assert_eq!(single.link_bytes, 0.0, "{kind}");
            assert_eq!(single.link_seconds, 0.0, "{kind}");
        }
    }

    #[test]
    fn estimate_folds_link_charges_on_top_of_merged() {
        let l = wide_layer();
        let gpu = GpuSpec::titan_xp();
        let ideal = sim().run_multi(&l, 4, InterconnectKind::Ideal, None);
        let ideal_est = ideal.to_estimate(&gpu);
        assert_eq!(ideal_est.link_bytes, 0.0);
        assert_eq!(ideal_est, ideal.merged.to_estimate(&gpu), "zero-cost");

        let nv = sim().run_multi(&l, 4, InterconnectKind::NvLink, None);
        let nv_est = nv.to_estimate(&gpu);
        assert_eq!(nv_est.link_bytes, nv.link_bytes);
        assert!(nv_est.seconds > ideal_est.seconds);
        assert!(nv_est.cycles > ideal_est.cycles);
        assert!(nv_est.dram_and_link_bytes() > ideal_est.dram_and_link_bytes());
        // On-chip and DRAM traffic are untouched by the interconnect.
        assert_eq!(nv_est.l1_bytes, ideal_est.l1_bytes);
        assert_eq!(nv_est.dram_read_bytes, ideal_est.dram_read_bytes);
    }
}
