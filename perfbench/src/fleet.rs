//! W4 `fleet_resnet152`: ResNet152's forward pass at batch 8 on
//! TITAN Xp under `Sharded { workers: 2 }`, answered by a `Coordinator`
//! over two local executors. Set-up is executor spawn plus handshake
//! (the mean of [`SETUPS`] of them);
//! the job is one network query, whose answer must be bitwise the
//! in-process simulator's.

use crate::fidelity;
use crate::measure::{run_rounds, Cpu, Round, Tally};
use crate::{Ctx, Outcome};
use delta_fleet::{spawn_local_executors, Coordinator, FleetConfig};
use delta_model::engine::{Engine, LayerRow};
use delta_model::{Delta, EvalQuery, GpuSpec, Parallelism, Pass};
use delta_obs::span;
use delta_sim::{SimConfig, Simulator};
use std::time::Instant;

const EXECUTORS: u32 = 2;
const BATCH: u32 = 8;

/// Fleets started per round. The handshake waits for each executor's
/// 10 ms accept poll, so one set-up takes either ~10 or ~20 ms,
/// depending on where the second executor's poll falls; the mean of
/// three varies far less from round to round than one.
const SETUPS: usize = 3;

pub fn run(ctx: &Ctx) -> Outcome {
    let gpu = GpuSpec::titan_xp();
    let net = delta_networks::resnet152(BATCH).expect("resnet152 builds");
    let par = Parallelism::Sharded { workers: EXECUTORS };
    let new_sim = || Simulator::new(gpu.clone(), SimConfig::default());
    let reference = Engine::new(new_sim())
        .evaluate_network(net.layers(), &par)
        .expect("in-process simulator answers resnet152")
        .rows;
    let expected = rows_json(&reference);

    let connect = || {
        let _s = span!("bench.connect");
        let sim = new_sim();
        spawn_local_executors(&sim, EXECUTORS).and_then(|handles| {
            let addrs = handles.iter().map(|h| h.addr().to_string()).collect();
            Coordinator::connect(sim, FleetConfig::new(addrs))
                .map(|c| (handles, c))
                .map_err(std::io::Error::other)
        })
    };

    let (plain, traced) = run_rounds(ctx.seconds, 3, ctx.trace, |traced| {
        let mut r = Round::default();
        // The set-up runs SETUPS times; the round counts the mean and
        // answers on the last fleet, after shutting the others down
        // outside the clock.
        let mut timed_connect = || {
            let t = Instant::now();
            let fleet = connect();
            r.setup_s += t.elapsed().as_secs_f64() / SETUPS as f64;
            fleet
        };
        let mut fleet = timed_connect();
        for _ in 1..SETUPS {
            if let Ok((mut handles, coordinator)) = fleet {
                drop(coordinator);
                for h in &mut handles {
                    h.shutdown();
                }
            }
            fleet = timed_connect();
        }
        r.layer("fleet.connect_s", r.setup_s);
        let (mut handles, coordinator) = match fleet {
            Ok(f) => f,
            Err(e) => {
                eprintln!("verify: fleet set-up failed: {e}");
                r.tally.record(false);
                return r;
            }
        };
        let engine = Engine::new(coordinator);
        let cpu = Cpu::now();
        let t = Instant::now();
        let answer = {
            let _s = span!("bench.evaluate_network");
            engine.evaluate_network(net.layers(), &par)
        };
        r.wall_s = t.elapsed().as_secs_f64();
        r.cpu = Cpu::since(cpu);
        r.busy_s = r.wall_s;
        r.answers = 1;
        r.latencies_ms.push(r.wall_s * 1e3);
        verify(&answer.map(|a| a.rows), &expected, &mut r.tally);

        let stats = engine.backend().stats();
        let cache = engine.cache_stats();
        r.layer("fleet.redispatches", stats.redispatches as f64);
        r.layer("fleet.duplicates_dropped", stats.duplicates_dropped as f64);
        r.layer("engine.hits", cache.hits as f64);
        r.layer("engine.misses", cache.misses as f64);
        r.layer(
            "sim.replays",
            engine.backend().simulator().replay_count() as f64,
        );
        drop(engine);
        for h in &mut handles {
            h.shutdown();
        }
        if traced {
            crate::finish_traced(r, delta_obs::trace::drain())
        } else {
            r
        }
    });

    let model = Delta::new(gpu.clone());
    let answered = fidelity::dedup(
        net.layers()
            .iter()
            .zip(&reference)
            .map(|(l, row)| (EvalQuery::forward(l, par.clone()), row.estimate.clone()))
            .collect(),
    );
    let queries: Vec<_> = answered.iter().map(|(q, _)| q.clone()).collect();
    let pinned: Vec<_> = ["conv2_1_b", "conv5_1_a"]
        .iter()
        .map(|l| {
            (
                net.layer(l).expect("pinned layer exists").clone(),
                Pass::Fwd,
            )
        })
        .collect();
    let mut outcome = Outcome::new(plain, traced);
    outcome.gmae = fidelity::model_vs_sim(&model, &answered);
    outcome.sample_err = fidelity::sampling_error(&gpu, &pinned);
    outcome.layer("model.eval_us", fidelity::model_eval_us(&model, &queries));
    outcome.executors = EXECUTORS;
    outcome
}

fn rows_json(rows: &[LayerRow]) -> Option<String> {
    serde_json::to_string(rows).ok()
}

/// The fleet's rows must serialize byte-for-byte like the in-process
/// simulator's (every `f64` bit included).
fn verify(
    answer: &Result<Vec<LayerRow>, delta_model::Error>,
    expected: &Option<String>,
    tally: &mut Tally,
) {
    let ok = match answer {
        Ok(rows) => expected.is_some() && rows_json(rows) == *expected,
        Err(e) => {
            eprintln!("verify: fleet query failed: {e}");
            false
        }
    };
    if !ok {
        eprintln!("verify: fleet answer differs from the in-process simulator");
    }
    tally.record(ok);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tampered_answer_lowers_ok_ratio() {
        let net = delta_networks::alexnet(1).expect("alexnet builds");
        let rows = Engine::new(Delta::new(GpuSpec::titan_xp()))
            .evaluate_network(net.layers(), &Parallelism::Single)
            .expect("model answers alexnet")
            .rows;
        let expected = rows_json(&rows);
        let mut tally = Tally::default();
        verify(&Ok(rows.clone()), &expected, &mut tally);
        assert_eq!(tally.ok_ratio(), 1.0);
        let mut tampered = rows;
        tampered[0].estimate.cycles = f64::from_bits(tampered[0].estimate.cycles.to_bits() + 1);
        verify(&Ok(tampered), &expected, &mut tally);
        assert_eq!(tally.ok_ratio(), 0.5);
    }
}
