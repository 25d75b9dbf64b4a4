//! shard_scaling — wall-clock speedup of intra-layer sharded simulation
//! (`Simulator::run_sharded`) versus worker count, on the paper's big
//! conv layers.
//!
//! The engine's layer-level fan-out cannot help a *single* large layer;
//! this experiment measures the seam built for exactly that case: the
//! layer's tile columns are partitioned over workers ([`delta_sim::
//! ShardPlan`]) and the per-shard hierarchies merge exactly. Besides the
//! timing, every row records whether the sharded measurement is bitwise
//! identical to the one-worker run — the correctness contract
//! `tests/integration_sharded_sim.rs` pins.
//!
//! Speedups are bounded by `min(workers, columns, cores)`; the table
//! title records the host's core count so CI artifacts from different
//! runners stay interpretable.

use crate::ctx::Ctx;
use crate::table::{f3, Table};
use delta_model::{ConvLayer, Error, GpuSpec};
use delta_sim::{Measurement, Simulator};
use std::time::Instant;

/// Worker counts swept by the experiment.
pub const WORKER_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// The paper networks' late, wide conv layers — the ones whose GEMMs
/// have enough tile columns (Co/blkN ≥ 4) to shard.
///
/// # Errors
///
/// Propagates layer validation failures.
pub fn big_layers(batch: u32) -> Result<Vec<ConvLayer>, Error> {
    Ok(vec![
        // ResNet152 conv5 bottleneck 3x3: 512 -> 512 @ 7x7 (4 columns).
        ConvLayer::builder("resnet152_conv5_3x3")
            .batch(batch)
            .input(512, 7, 7)
            .output_channels(512)
            .filter(3, 3)
            .pad(1)
            .build()?,
        // ResNet152 conv5 expansion 1x1: 512 -> 2048 @ 7x7 (16 columns).
        ConvLayer::builder("resnet152_conv5_1x1")
            .batch(batch)
            .input(512, 7, 7)
            .output_channels(2048)
            .filter(1, 1)
            .build()?,
        // VGG16 conv5: 512 -> 512 @ 14x14 (4 columns).
        ConvLayer::builder("vgg16_conv5")
            .batch(batch)
            .input(512, 14, 14)
            .output_channels(512)
            .filter(3, 3)
            .pad(1)
            .build()?,
    ])
}

/// The sweep layer with the most tile columns — the one the CI perf gate,
/// the fleet sweep and the criterion shard bench time, selected structurally so editing
/// [`big_layers`] cannot silently change what CI measures.
///
/// # Errors
///
/// Propagates layer validation failures.
pub fn widest_layer(batch: u32) -> Result<ConvLayer, Error> {
    Ok(big_layers(batch)?
        .into_iter()
        .max_by_key(|l| delta_model::tiling::LayerTiling::new(l).cta_columns())
        .expect("big_layers is non-empty"))
}

/// Runs `layer` sharded over `workers` workers `reps` times; returns the
/// measurement and the best (minimum) wall-clock seconds.
pub fn time_sharded(
    sim: &Simulator,
    layer: &ConvLayer,
    workers: u32,
    reps: u32,
) -> (Measurement, f64) {
    let mut best = f64::INFINITY;
    let mut measurement = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let m = sim.run_sharded(layer, workers);
        best = best.min(t0.elapsed().as_secs_f64());
        measurement = Some(m);
    }
    (measurement.expect("reps >= 1"), best)
}

/// Runs the shard-scaling sweep.
///
/// # Errors
///
/// Propagates layer validation failures.
pub fn run(ctx: &Ctx) -> Result<Vec<Table>, Error> {
    let gpu = GpuSpec::titan_xp();
    let sim = Simulator::new(gpu, ctx.sim_config);
    let reps = if ctx.sim_batch <= 4 { 1 } else { 2 };
    let mut t = Table::new(
        format!(
            "shard_scaling — single-layer sharded simulation, B={} ({} cores available)",
            ctx.sim_batch,
            rayon::current_num_threads()
        ),
        &[
            "layer",
            "columns",
            "workers",
            "seconds",
            "speedup",
            "identical",
        ],
    );
    for layer in big_layers(ctx.sim_batch)? {
        let columns = sim.tiling(&layer).cta_columns();
        let (reference, t1) = time_sharded(&sim, &layer, 1, reps);
        for workers in WORKER_COUNTS {
            let (m, secs) = if workers == 1 {
                (reference, t1)
            } else {
                time_sharded(&sim, &layer, workers, reps)
            };
            t.push(vec![
                layer.label().to_string(),
                columns.to_string(),
                workers.to_string(),
                format!("{secs:.4}"),
                f3(t1 / secs),
                (m == reference).to_string(),
            ]);
        }
    }
    Ok(vec![t])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_full_sweep_and_identical_results() {
        let tables = run(&Ctx::smoke()).unwrap();
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        assert_eq!(t.len(), 3 * WORKER_COUNTS.len());
        // Every sharded run must reproduce the one-worker measurement
        // bitwise.
        let id_col = t.column("identical").unwrap();
        assert!(t.rows().iter().all(|r| r[id_col] == "true"), "{t}");
        // Speedups are finite and positive (actual magnitude is
        // host-dependent; the CI gate enforces thresholds).
        assert!(t
            .column_f64("speedup")
            .iter()
            .all(|s| s.is_finite() && *s > 0.0));
    }

    #[test]
    fn big_layers_are_multi_column() {
        let sim = Simulator::new(GpuSpec::titan_xp(), Ctx::smoke().sim_config);
        for l in big_layers(4).unwrap() {
            assert!(
                sim.tiling(&l).cta_columns() >= 4,
                "{}: needs >= 4 columns to shard over 4 workers",
                l.label()
            );
        }
    }

    #[test]
    fn widest_layer_is_the_16_column_expansion() {
        let l = widest_layer(4).unwrap();
        let sim = Simulator::new(GpuSpec::titan_xp(), Ctx::smoke().sim_config);
        assert_eq!(sim.tiling(&l).cta_columns(), 16);
        assert_eq!(l.label(), "resnet152_conv5_1x1");
    }
}
