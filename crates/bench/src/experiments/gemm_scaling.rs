//! gemm_scaling — shard and executor scaling of the tensor-core
//! datapath, on the layers of one GPT2-S transformer block.
//!
//! Two sweeps over the same workload (the five layers of a GPT2-S
//! block: the QKV/projection/MLP GEMMs plus the attention score+context
//! layer, all simulated on the A100's MMA datapath):
//!
//! 1. **shards** — `Simulator::run_sharded` at 1/2/4/8 workers per
//!    layer, exactly the conv sweep in `shard_scaling` but on GEMM and
//!    attention workloads, where the replay runs tensor-core compute
//!    timing instead of FFMA;
//! 2. **executors** — the widest GEMM's 4-way sharded query fanned over
//!    1/2/4 socket-connected executor processes through the fleet
//!    coordinator.
//!
//! Besides the timing, every row records whether the result is
//! **bitwise identical** to its reference (the 1-worker measurement,
//! resp. the in-process evaluation). That is the contract the
//! tensor-core datapath must not break — datapath selection is a pure
//! function of (GPU, layer kind), so every worker and every executor
//! charges the same MMA cycles. The shard half of that contract is
//! pinned in `tests/integration_sharded_sim.rs`, for [`block_layers`]
//! at 1/2/4/7 workers; this table reports it per row.
//!
//! Speedups are informational only (bounded by `min(workers, columns,
//! cores)`, and socket framing dominates the executor rows); nothing
//! here gates on wall-clock.

use crate::ctx::Ctx;
use crate::table::{f3, Table};
use delta_model::query::{EvalQuery, Parallelism};
use delta_model::{Backend, ConvLayer, Error, GpuSpec};
use delta_sim::Simulator;
use std::time::Instant;

use super::fleet_scaling;
use super::shard_scaling::{time_sharded, WORKER_COUNTS};

/// Executor-process counts swept by the distributed half.
pub const EXECUTOR_COUNTS: [u32; 3] = [1, 2, 4];

/// The five layers of one GPT2-S transformer block (QKV, attention,
/// projection, fc1, fc2) at mini-batch `batch` — the repeating unit all
/// twelve blocks share, so one block is the whole unique-shape set.
///
/// # Errors
///
/// Propagates layer validation failures (e.g. a `batch` whose token
/// count overflows).
pub fn block_layers(batch: u32) -> Result<Vec<ConvLayer>, Error> {
    Ok(delta_networks::gpt2s(batch)?.layers()[..5].to_vec())
}

/// The block layer with the most tile columns — the one the executor
/// sweep shards, selected structurally so editing the zoo cannot
/// silently change what CI measures.
///
/// # Errors
///
/// Propagates layer validation failures.
pub fn widest_block_layer(batch: u32) -> Result<ConvLayer, Error> {
    Ok(block_layers(batch)?
        .into_iter()
        .max_by_key(|l| delta_model::tiling::LayerTiling::new(l).cta_columns())
        .expect("block_layers is non-empty"))
}

/// Runs the transformer shard/executor scaling sweep.
///
/// # Errors
///
/// Propagates layer validation, handshake, and dispatch failures.
pub fn run(ctx: &Ctx) -> Result<Vec<Table>, Error> {
    let gpu = GpuSpec::a100();
    let sim = Simulator::new(gpu, ctx.sim_config);
    let reps = if ctx.sim_batch <= 4 { 1 } else { 2 };

    // Sweep 1: intra-layer sharding, per block layer.
    let mut shards = Table::new(
        format!(
            "gemm_scaling — GPT2-S block sharded on the A100 MMA datapath, B={} \
             ({} cores available)",
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
    for layer in block_layers(ctx.sim_batch)? {
        let columns = sim.tiling(&layer).cta_columns();
        let (reference, t1) = time_sharded(&sim, &layer, 1, reps);
        for workers in WORKER_COUNTS {
            let (m, secs) = if workers == 1 {
                (reference, t1)
            } else {
                time_sharded(&sim, &layer, workers, reps)
            };
            shards.push(vec![
                layer.label().to_string(),
                columns.to_string(),
                workers.to_string(),
                format!("{secs:.4}"),
                f3(t1 / secs),
                (m == reference).to_string(),
            ]);
        }
    }

    // Sweep 2: the widest GEMM's 4-way sharded query, distributed over
    // executor processes. The merged estimate must reproduce the
    // in-process bytes — tensor-core replays shipped over sockets merge
    // exactly like conv replays do.
    let layer = widest_block_layer(ctx.sim_batch)?;
    let query = EvalQuery::forward(&layer, Parallelism::Sharded { workers: 4 });
    let mut executors_table = Table::new(
        format!(
            "gemm_scaling — {} (4-way sharded) over executor fleets, B={}",
            layer.label(),
            ctx.sim_batch
        ),
        &["layer", "executors", "seconds", "speedup", "identical"],
    );
    let t0 = Instant::now();
    let reference = sim.evaluate(&query)?;
    let t_local = t0.elapsed().as_secs_f64();
    let reference_json = serde_json::to_string(&reference).expect("serializable estimate");
    executors_table.push(vec![
        layer.label().to_string(),
        "0".into(),
        format!("{t_local:.4}"),
        f3(1.0),
        "true".into(),
    ]);
    for count in EXECUTOR_COUNTS {
        let executors = delta_fleet::spawn_local_executors(&sim, count).map_err(spawn_error)?;
        let coordinator = fleet_scaling::coordinator_for(&sim, &executors)?;
        let t0 = Instant::now();
        let estimate = coordinator.evaluate(&query)?;
        let secs = t0.elapsed().as_secs_f64();
        let identical =
            serde_json::to_string(&estimate).expect("serializable estimate") == reference_json;
        executors_table.push(vec![
            layer.label().to_string(),
            count.to_string(),
            format!("{secs:.4}"),
            f3(t_local / secs),
            identical.to_string(),
        ]);
    }

    Ok(vec![shards, executors_table])
}

/// Maps an executor-spawn socket failure into the domain error type.
fn spawn_error(e: std::io::Error) -> Error {
    Error::Fleet {
        context: "spawn".into(),
        reason: format!("cannot spawn local executor: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_both_sweeps_and_identical_results() {
        let tables = run(&Ctx::smoke()).unwrap();
        assert_eq!(tables.len(), 2);
        let shards = &tables[0];
        assert_eq!(shards.len(), 5 * WORKER_COUNTS.len());
        let executors = &tables[1];
        assert_eq!(executors.len(), 1 + EXECUTOR_COUNTS.len());
        for t in &tables {
            let id_col = t.column("identical").unwrap();
            assert!(t.rows().iter().all(|r| r[id_col] == "true"), "{t}");
        }
    }

    #[test]
    fn block_layers_are_all_tensor_core_workloads() {
        for l in block_layers(2).unwrap() {
            assert!(
                !l.kind().is_conv(),
                "{}: a transformer block layer must select the MMA datapath",
                l.label()
            );
        }
    }

    #[test]
    fn widest_block_layer_is_the_mlp_expansion() {
        let l = widest_block_layer(2).unwrap();
        assert_eq!(l.label(), "blk0_fc1");
        let sim = Simulator::new(GpuSpec::a100(), Ctx::smoke().sim_config);
        assert!(
            sim.tiling(&l).cta_columns() >= 4,
            "needs >= 4 columns so 4 workers all get real work"
        );
    }
}
