//! fleet_scaling — wall-clock behaviour of the distributed executor
//! fleet (`delta_fleet`) versus executor count, on the sweep's widest
//! conv layer.
//!
//! Each row answers the same `Sharded { workers: 4 }` query three ways:
//! in-process (the baseline), through a coordinator fanning jobs over
//! 1/2/4 socket-connected executor processes, and through a 2-executor
//! fleet where one executor is killed mid-run (`FaultPlan::
//! die_after_jobs`), forcing a straggler re-dispatch. Besides the
//! timing, every row records whether the distributed estimate is
//! **bitwise identical** (JSON byte equality) to the local evaluation —
//! the fleet's core contract, pinned in `tests/integration_fleet.rs`.
//!
//! Speedups are informational only: socket framing dominates on these
//! sub-second replays and CI runners may have a single core, so nothing
//! here gates on wall-clock — only on identity.

use crate::ctx::Ctx;
use crate::table::{f3, Table};
use delta_fleet::executor::spawn;
use delta_fleet::{
    spawn_local_executors, Coordinator, ExecutorConfig, ExecutorHandle, FaultPlan, FleetConfig,
};
use delta_model::query::{EvalQuery, Parallelism};
use delta_model::{Backend, Error, GpuSpec};
use delta_sim::Simulator;
use std::time::{Duration, Instant};

use super::shard_scaling;

/// Executor-process counts swept by the experiment.
pub const EXECUTOR_COUNTS: [u32; 3] = [1, 2, 4];

/// Connects a coordinator to the given live executors.
///
/// # Errors
///
/// Propagates handshake failures.
pub fn coordinator_for(
    sim: &Simulator,
    executors: &[ExecutorHandle],
) -> Result<Coordinator, Error> {
    let addrs = executors.iter().map(|e| e.addr().to_string()).collect();
    let mut config = FleetConfig::new(addrs);
    config.job_timeout = Duration::from_secs(10);
    config.retry_budget = 5;
    Coordinator::connect(sim.clone(), config)
}

/// Best-of-`reps` wall-clock seconds for `f`, plus its last answer.
fn time_eval<F: FnMut() -> Result<delta_model::LayerEstimate, Error>>(
    reps: u32,
    mut f: F,
) -> Result<(delta_model::LayerEstimate, f64), Error> {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let e = f()?;
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(e);
    }
    Ok((last.expect("reps >= 1"), best))
}

/// Runs the fleet-scaling sweep.
///
/// # Errors
///
/// Propagates layer validation, handshake, and dispatch failures.
pub fn run(ctx: &Ctx) -> Result<Vec<Table>, Error> {
    let gpu = GpuSpec::titan_xp();
    let sim = Simulator::new(gpu, ctx.sim_config);
    let reps = if ctx.sim_batch <= 4 { 1 } else { 2 };
    let layer = shard_scaling::widest_layer(ctx.sim_batch)?;
    let query = EvalQuery::forward(&layer, Parallelism::Sharded { workers: 4 });

    let mut t = Table::new(
        format!(
            "fleet_scaling — distributed replay of a 4-way sharded query, B={} \
             ({} cores available)",
            ctx.sim_batch,
            rayon::current_num_threads()
        ),
        &[
            "fleet",
            "executors",
            "seconds",
            "speedup",
            "identical",
            "redispatched",
            "lost",
        ],
    );

    // Baseline: the same query answered entirely in-process.
    let (reference, t_local) = time_eval(reps, || sim.evaluate(&query))?;
    let reference_json = serde_json::to_string(&reference).expect("serializable estimate");
    t.push(vec![
        "local".into(),
        "0".into(),
        format!("{t_local:.4}"),
        f3(1.0),
        "true".into(),
        "0".into(),
        "0".into(),
    ]);

    // Socket fleets of 1, 2, and 4 executors.
    for count in EXECUTOR_COUNTS {
        let executors = spawn_local_executors(&sim, count).map_err(spawn_error)?;
        let coordinator = coordinator_for(&sim, &executors)?;
        let (estimate, secs) = time_eval(reps, || coordinator.evaluate(&query))?;
        let stats = coordinator.stats();
        let identical =
            serde_json::to_string(&estimate).expect("serializable estimate") == reference_json;
        t.push(vec![
            "fleet".into(),
            count.to_string(),
            format!("{secs:.4}"),
            f3(t_local / secs),
            identical.to_string(),
            stats.redispatches.to_string(),
            stats.executors_lost.to_string(),
        ]);
    }

    // Recovery: a 2-executor fleet where one dies after its first job.
    // The coordinator must detect the loss, re-queue the orphaned jobs
    // onto the survivor, and still answer bitwise identically.
    let mut faulty_config = ExecutorConfig::new("127.0.0.1:0");
    faulty_config.fault = FaultPlan {
        die_after_jobs: Some(1),
        ..FaultPlan::default()
    };
    let executors = vec![
        spawn(sim.clone(), faulty_config).map_err(spawn_error)?,
        spawn(sim.clone(), ExecutorConfig::new("127.0.0.1:0")).map_err(spawn_error)?,
    ];
    let coordinator = coordinator_for(&sim, &executors)?;
    let t0 = Instant::now();
    let estimate = coordinator.evaluate(&query)?;
    let secs = t0.elapsed().as_secs_f64();
    let stats = coordinator.stats();
    let identical =
        serde_json::to_string(&estimate).expect("serializable estimate") == reference_json;
    t.push(vec![
        "fleet+kill".into(),
        "2".into(),
        format!("{secs:.4}"),
        f3(t_local / secs),
        identical.to_string(),
        stats.redispatches.to_string(),
        stats.executors_lost.to_string(),
    ]);

    Ok(vec![t])
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
    fn smoke_run_is_bitwise_identical_and_recovers_from_a_kill() {
        let tables = run(&Ctx::smoke()).unwrap();
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        // local + one row per executor count + the kill-recovery row.
        assert_eq!(t.len(), 1 + EXECUTOR_COUNTS.len() + 1);
        let id_col = t.column("identical").unwrap();
        assert!(t.rows().iter().all(|r| r[id_col] == "true"), "{t}");
        // The kill row must actually have exercised the re-dispatch
        // path: at least one job re-queued and one executor lost.
        let kill = t.rows().last().unwrap();
        let redis_col = t.column("redispatched").unwrap();
        let lost_col = t.column("lost").unwrap();
        assert!(kill[redis_col].parse::<u64>().unwrap() >= 1, "{t}");
        assert!(kill[lost_col].parse::<u64>().unwrap() >= 1, "{t}");
    }
}
