//! Shared model-vs-measurement runner: evaluates the DeLTA model and the
//! simulator on the same layers at the same configuration, which is what
//! every normalized validation figure consumes.
//!
//! The simulator side — the expensive one — runs through the parallel
//! cached evaluation engine (`delta_model::engine`), so a figure that
//! sweeps all four networks fans the trace simulations across cores and
//! never re-simulates a repeated layer shape.

use crate::ctx::Ctx;
use delta_model::engine::Engine;
use delta_model::model::MliMode;
use delta_model::{
    ConvLayer, Delta, DeltaOptions, GpuSpec, LayerEstimate, LayerReport, Parallelism,
};
use delta_networks::Network;
use delta_sim::Simulator;

/// One layer's model estimate and simulator measurement, plus the
/// network it came from.
#[derive(Debug, Clone)]
pub struct LayerComparison {
    /// Network name (e.g. `"GoogLeNet"`).
    pub network: String,
    /// Layer label (paper naming).
    pub label: String,
    /// DeLTA's analysis.
    pub model: LayerReport,
    /// L1 traffic with the line-granularity (`MliMode::Physical`) filter
    /// MLI, for the profiler-consistent comparison (see
    /// `MliMode::Physical`).
    pub model_l1_physical: f64,
    /// Simulator measurement (through the `Backend` interface).
    pub measured: LayerEstimate,
    /// True when the layer's whole input footprint fits in L2 at this
    /// batch size, so the model's per-column IFmap refetch (Eq. 10)
    /// cannot appear in the measurement — the analogue of the paper's
    /// "anomalous measurements" that its DRAM GMAE excludes.
    pub dram_capacity_anomaly: bool,
}

impl LayerComparison {
    /// Model/measured L1-traffic ratio.
    pub fn l1_ratio(&self) -> f64 {
        self.model.traffic.l1_bytes / self.measured.l1_bytes
    }

    /// Model/measured L1-traffic ratio with the physical filter MLI.
    pub fn l1_ratio_physical(&self) -> f64 {
        self.model_l1_physical / self.measured.l1_bytes
    }

    /// Model/measured L2-traffic ratio.
    pub fn l2_ratio(&self) -> f64 {
        self.model.traffic.l2_bytes / self.measured.l2_bytes
    }

    /// Model/measured DRAM-read-traffic ratio.
    pub fn dram_ratio(&self) -> f64 {
        self.model.traffic.dram_bytes / self.measured.dram_read_bytes
    }

    /// Model/measured execution-cycle ratio.
    pub fn cycle_ratio(&self) -> f64 {
        self.model.perf.cycles / self.measured.cycles
    }
}

/// The engine-backed comparison core shared by [`compare_network`] and
/// [`compare_paper_networks`]: one simulator engine may be reused across
/// networks so repeated shapes (common between ResNet variants) are
/// simulated once.
fn compare_with_engine(
    engine: &Engine<Simulator>,
    gpu: &GpuSpec,
    network: &Network,
    ctx: &Ctx,
) -> Result<Vec<LayerComparison>, delta_model::Error> {
    let net = network.with_batch(ctx.sim_batch)?;
    let delta = Delta::new(gpu.clone());
    let physical = Delta::with_options(
        gpu.clone(),
        DeltaOptions {
            mli_mode: MliMode::Physical,
            ..Default::default()
        },
    );
    // Fan the expensive trace simulations across cores first…
    let measured: Vec<LayerEstimate> = engine
        .evaluate_network(net.layers(), &Parallelism::Single)?
        .into_estimates();
    // …then attach the (instant) model analyses layer by layer.
    net.layers()
        .iter()
        .zip(measured)
        .map(|(layer, measured)| {
            let model = delta.analyze(layer)?;
            let model_l1_physical = physical.estimate_traffic(layer)?.l1_bytes;
            // The per-column refetch of Eq. 10 assumes the IFmap cannot
            // survive in L2 from one tile column to the next; when it
            // can (reduced-batch working sets), the measurement reads it
            // once and the model's refetch multiplier over-predicts.
            let dram_capacity_anomaly =
                model.tiling.cta_columns() > 1 && layer.ifmap_bytes() <= gpu.l2_bytes();
            Ok(LayerComparison {
                network: network.name().to_string(),
                label: layer.label().to_string(),
                model,
                model_l1_physical,
                measured,
                dram_capacity_anomaly,
            })
        })
        .collect()
}

/// Runs the model and the simulator over every layer of `network` on
/// `gpu`, at the context's batch size.
///
/// # Errors
///
/// Propagates layer/GPU validation failures.
pub fn compare_network(
    gpu: &GpuSpec,
    network: &Network,
    ctx: &Ctx,
) -> Result<Vec<LayerComparison>, delta_model::Error> {
    let engine = Engine::new(Simulator::new(gpu.clone(), ctx.sim_config));
    compare_with_engine(&engine, gpu, network, ctx)
}

/// Runs [`compare_network`] over all four paper networks, sharing one
/// simulator engine (and therefore one shape cache) across them.
///
/// # Errors
///
/// Propagates layer/GPU validation failures.
pub fn compare_paper_networks(
    gpu: &GpuSpec,
    ctx: &Ctx,
) -> Result<Vec<LayerComparison>, delta_model::Error> {
    let engine = Engine::new(Simulator::new(gpu.clone(), ctx.sim_config));
    let mut out = Vec::new();
    for net in delta_networks::paper_networks(ctx.sim_batch)? {
        out.extend(compare_with_engine(&engine, gpu, &net, ctx)?);
    }
    Ok(out)
}

/// Model-only analysis of one layer at the context's batch.
///
/// # Errors
///
/// Propagates layer/GPU validation failures.
pub fn model_only(
    gpu: &GpuSpec,
    layer: &ConvLayer,
    ctx: &Ctx,
) -> Result<LayerReport, delta_model::Error> {
    Delta::new(gpu.clone()).analyze(&layer.with_batch(ctx.sim_batch)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_ratios_are_near_unity_for_alexnet_tail() {
        let ctx = Ctx::smoke();
        let net = delta_networks::alexnet(ctx.sim_batch).unwrap();
        let rows = compare_network(&GpuSpec::titan_xp(), &net, &ctx).unwrap();
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(
                r.l1_ratio() > 0.1 && r.l1_ratio() < 10.0,
                "{}: {}",
                r.label,
                r.l1_ratio()
            );
            assert!(r.cycle_ratio() > 0.0, "{}", r.label);
        }
    }

    #[test]
    fn ctx_batch_is_applied_to_both_sides() {
        let ctx = Ctx::smoke();
        let net = delta_networks::alexnet(256).unwrap();
        let rows = compare_network(&GpuSpec::titan_xp(), &net, &ctx).unwrap();
        // Model was evaluated at the smoke batch, not 256.
        assert_eq!(rows[0].model.layer.batch(), ctx.sim_batch);
    }

    #[test]
    fn engine_measurement_matches_direct_simulation() {
        let ctx = Ctx::smoke();
        let gpu = GpuSpec::titan_xp();
        let net = delta_networks::alexnet(ctx.sim_batch).unwrap();
        let rows = compare_network(&gpu, &net, &ctx).unwrap();
        let sim = Simulator::new(gpu.clone(), ctx.sim_config);
        let direct = sim.run(net.layers().first().unwrap()).to_estimate(&gpu);
        assert_eq!(rows[0].measured, direct);
    }
}
