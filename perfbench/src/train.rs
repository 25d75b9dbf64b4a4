//! W1 `cnn_train` and W2 `gpt2s_train`: the `delta train <net>
//! --backend sim --cache-file F` cycle, run twice per network. The cold
//! pass answers in a fresh engine and saves the cache file; the warm
//! pass loads it into another fresh engine and must answer
//! byte-identically with zero replays.

use crate::fidelity;
use crate::measure::{median, run_rounds, Cpu, Digest, Round, Tally};
use crate::{digests, Ctx, Outcome};
use delta_model::engine::Engine;
use delta_model::query::{Parallelism, Pass, StepEvaluation, StepQuery};
use delta_model::{Delta, GpuSpec, InterconnectKind, TopologyKind};
use delta_obs::span;
use delta_sim::{SimConfig, Simulator};
use std::path::Path;
use std::time::Instant;

/// Fresh engines that load each cache file per round. A single load
/// of W1's files takes 10–150 ms and spreads ±20 % from round to round;
/// the round's set-up counts the median of these loads.
const LOADS: usize = 3;

/// One network's training-step question.
struct Case {
    name: &'static str,
    query: StepQuery,
}

/// A training workload: the GPU, its step questions, and the layer
/// passes pinned for the sampling-error figure (chosen among the
/// workload's own layers for an error the exhaustive replay can show
/// at a cost of about a second).
pub struct TrainWorkload {
    gpu: GpuSpec,
    cases: Vec<Case>,
    pinned: Vec<(delta_model::ConvLayer, Pass)>,
}

/// W1: the paper's four CNNs on TITAN Xp, one device, batch 1 (the
/// sequential replay stages and the layer and step caches).
pub fn cnn_train() -> TrainWorkload {
    let nets = delta_networks::paper_networks(1).expect("zoo networks build");
    let pinned = [
        ("alexnet", "conv2", Pass::Wgrad),
        ("googlenet", "3a_5x5", Pass::Fwd),
    ]
    .iter()
    .map(|&(net, label, pass)| {
        let net = nets
            .iter()
            .find(|n| n.name().eq_ignore_ascii_case(net))
            .expect("zoo net");
        (net.layer(label).expect("pinned layer exists").clone(), pass)
    })
    .collect();
    TrainWorkload {
        gpu: GpuSpec::titan_xp(),
        cases: nets
            .iter()
            .map(|n| Case {
                name: zoo_name(n.name()),
                query: StepQuery::new(n.layers(), Parallelism::Single),
            })
            .collect(),
        pinned,
    }
}

/// W2: gpt2s as a 4-device data-parallel step on A100 (tensor-core
/// datapath, NVLink ring, bucketed all-reduce overlapped with backward),
/// the query `delta train gpt2s --gpu a100 --gpus 4 --topology ring
/// --overlap on --batch 1` asks.
pub fn gpt2s_train() -> TrainWorkload {
    let net = delta_networks::gpt2s(1).expect("gpt2s builds");
    let gpu = GpuSpec::a100();
    let pinned = ["blk0_fc2", "blk0_attn"]
        .iter()
        .map(|l| {
            (
                net.layer(l).expect("pinned layer exists").clone(),
                Pass::Fwd,
            )
        })
        .collect();
    let query = StepQuery {
        layers: net.layers().to_vec(),
        parallelism: Parallelism::Multi {
            devices: vec![gpu.clone(); 4],
            interconnect: InterconnectKind::NvLink,
            topology: Some(TopologyKind::Ring),
        },
        bucket_mb: 25,
        overlap: true,
    };
    TrainWorkload {
        gpu,
        cases: vec![Case {
            name: "gpt2s",
            query,
        }],
        pinned,
    }
}

fn zoo_name(name: &str) -> &'static str {
    ["alexnet", "vgg16", "googlenet", "resnet152"]
        .into_iter()
        .find(|n| n.eq_ignore_ascii_case(name))
        .expect("paper network")
}

/// Digest of a step answer's simulated statistics: per row and pass,
/// L1/L2/DRAM bytes, cycles and link bytes.
fn step_digest(eval: &StepEvaluation) -> u64 {
    let mut d = Digest::new();
    for row in &eval.table.rows {
        for e in [Some(&row.forward), row.dgrad.as_ref(), Some(&row.wgrad)]
            .into_iter()
            .flatten()
        {
            for v in [
                e.l1_bytes,
                e.l2_bytes,
                e.dram_read_bytes,
                e.dram_write_bytes,
                e.cycles,
                e.link_bytes,
            ] {
                d.f64(v);
            }
        }
    }
    d.finish()
}

/// Checks a cold/warm answer pair: the cold answer matches the
/// `recorded` digest, the warm answer is byte-identical to the cold
/// one, and the warm pass replayed nothing.
fn verify_cycle(
    name: &str,
    recorded: Option<u64>,
    cold: &StepEvaluation,
    warm: &StepEvaluation,
    warm_replays: u64,
    tally: &mut Tally,
) {
    let digest = step_digest(cold);
    if recorded != Some(digest) {
        eprintln!("verify: {name} cold answer digest {digest:#018x}, recorded {recorded:x?}");
    }
    tally.record(recorded == Some(digest));
    let same = serde_json::to_string(cold).ok() == serde_json::to_string(warm).ok();
    if !same || warm_replays != 0 {
        eprintln!("verify: {name} warm answer differs or replayed ({warm_replays} replays)");
    }
    tally.record(same && warm_replays == 0);
}

impl TrainWorkload {
    /// Runs the workload and returns what it measured.
    pub fn run(&self, ctx: &Ctx) -> Outcome {
        let mut cold_answers: Vec<Option<StepEvaluation>> = vec![None; self.cases.len()];
        let (plain, traced) = run_rounds(ctx.seconds, 3, ctx.trace, |traced| {
            let r = self.round(ctx, &mut cold_answers);
            if traced {
                crate::finish_traced(r, delta_obs::trace::drain())
            } else {
                r
            }
        });
        let model = Delta::new(self.gpu.clone());
        let mut answered = Vec::new();
        let mut file_kb = 0.0;
        for (case, cold) in self.cases.iter().zip(&cold_answers) {
            let cold = cold.as_ref().expect("every case answered in round one");
            answered.extend(pass_answers(&case.query, cold));
            file_kb += std::fs::metadata(cache_path(ctx, case.name))
                .map_or(0.0, |m| m.len() as f64 / 1024.0);
        }
        let answered = fidelity::dedup(answered);
        let queries: Vec<_> = answered.iter().map(|(q, _)| q.clone()).collect();
        let mut outcome = Outcome::new(plain, traced);
        outcome.gmae = fidelity::model_vs_sim(&model, &answered);
        outcome.sample_err = fidelity::sampling_error(&self.gpu, &self.pinned);
        outcome.layer("engine.cache_file_kb", file_kb);
        outcome.layer("model.eval_us", fidelity::model_eval_us(&model, &queries));
        outcome
    }

    /// One round: the cold → save → warm cycle for every network.
    fn round(&self, ctx: &Ctx, cold_answers: &mut [Option<StepEvaluation>]) -> Round {
        let mut r = Round::default();
        for (i, (case, first)) in self.cases.iter().zip(cold_answers.iter_mut()).enumerate() {
            // Between networks nothing of the program runs: a point at
            // which to time the host (see `calib`).
            if i > 0 {
                r.calibrate();
            }
            let path = cache_path(ctx, case.name);
            let _ = std::fs::remove_file(&path);

            let t = Instant::now();
            let cold_engine = Engine::new(Simulator::new(self.gpu.clone(), SimConfig::default()));
            r.setup_s += t.elapsed().as_secs_f64();
            let cold = timed(&mut r, || {
                let cold = {
                    let _s = span!("bench.cold_step");
                    cold_engine.evaluate_step(&case.query)
                };
                save(&cold_engine, &path);
                cold
            });

            // The warm set-up runs LOADS times, each in a fresh engine;
            // the round counts the median and answers with the last.
            let mut loads = Vec::with_capacity(LOADS);
            let (mut warm_engine, mut loaded) = (None, Ok(0));
            for _ in 0..LOADS {
                let t = Instant::now();
                let engine = Engine::new(Simulator::new(self.gpu.clone(), SimConfig::default()));
                loaded = engine.load_cache(&path);
                loads.push(t.elapsed().as_secs_f64());
                warm_engine = Some(engine);
            }
            let load_s = median(&loads);
            r.setup_s += load_s;
            r.layer("engine.load_cache_s", load_s);
            let warm_engine = warm_engine.expect("LOADS is at least one");
            let warm = timed(&mut r, || {
                let warm = {
                    let _s = span!("bench.warm_step");
                    warm_engine.evaluate_step(&case.query)
                };
                save(&warm_engine, &path);
                warm
            });

            let warm_replays = warm_engine.backend().replay_count();
            match (cold, warm, loaded) {
                (Ok(cold), Ok(warm), Ok(_)) => {
                    verify_cycle(
                        case.name,
                        digests::recorded(case.name),
                        &cold,
                        &warm,
                        warm_replays,
                        &mut r.tally,
                    );
                    first.get_or_insert(cold);
                }
                (cold, warm, loaded) => {
                    eprintln!(
                        "verify: {} failed: cold {:?} warm {:?} load {:?}",
                        case.name,
                        cold.err(),
                        warm.err(),
                        loaded.err()
                    );
                    r.tally.record(false);
                    r.tally.record(false);
                }
            }
            r.answers += 2;
            for engine in [&cold_engine, &warm_engine] {
                let stats = engine.cache_stats();
                r.layer("engine.hits", stats.hits as f64);
                r.layer("engine.misses", stats.misses as f64);
                r.layer("engine.step_hits", stats.step_hits as f64);
            }
            r.layer("sim.replays", cold_engine.backend().replay_count() as f64);
        }
        r.latencies_ms.push(r.wall_s * 1e3);
        r.busy_s = r.wall_s;
        r
    }
}

/// Runs one query phase, adding its wall and CPU time to the round.
fn timed<T>(r: &mut Round, f: impl FnOnce() -> T) -> T {
    let cpu = Cpu::now();
    let t = Instant::now();
    let out = f();
    r.wall_s += t.elapsed().as_secs_f64();
    r.cpu.add(Cpu::since(cpu));
    out
}

fn save(engine: &Engine<Simulator>, path: &Path) {
    let _s = span!("bench.save_cache");
    if let Err(e) = engine.save_cache(path) {
        eprintln!("save_cache {}: {e}", path.display());
    }
}

fn cache_path(ctx: &Ctx, name: &str) -> std::path::PathBuf {
    ctx.work.join(format!("{name}.cache.json"))
}

/// Every `(pass query, simulator estimate)` pair of a step answer.
fn pass_answers(
    query: &StepQuery,
    eval: &StepEvaluation,
) -> Vec<(delta_model::EvalQuery, delta_model::LayerEstimate)> {
    let mut out = Vec::new();
    for (layer, row) in query.layers.iter().zip(&eval.table.rows) {
        out.push((query.pass_query(layer, Pass::Fwd), row.forward.clone()));
        if let Some(d) = &row.dgrad {
            out.push((query.pass_query(layer, Pass::Dgrad), d.clone()));
        }
        out.push((query.pass_query(layer, Pass::Wgrad), row.wgrad.clone()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A real step answer, from the analytical model so the test runs
    /// in a debug build in well under a second.
    fn step_answer() -> StepEvaluation {
        let net = delta_networks::alexnet(1).expect("alexnet builds");
        Engine::new(Delta::new(GpuSpec::titan_xp()))
            .evaluate_step(&StepQuery::new(net.layers(), Parallelism::Single))
            .expect("model answers alexnet")
    }

    #[test]
    fn a_tampered_answer_lowers_ok_ratio() {
        let cold = step_answer();
        let digest = Some(step_digest(&cold));
        let mut tally = Tally::default();
        verify_cycle("alexnet", digest, &cold, &cold.clone(), 0, &mut tally);
        assert_eq!(tally.ok_ratio(), 1.0);

        let mut warm = cold.clone();
        warm.table.rows[1].forward.l2_bytes += 1.0;
        verify_cycle("alexnet", digest, &cold, &warm, 0, &mut tally);
        assert_eq!((tally.attempted, tally.failed()), (4, 1));

        // A warm pass that replayed, and a cold answer off its digest,
        // fail too.
        verify_cycle("alexnet", digest, &cold, &cold.clone(), 1, &mut tally);
        verify_cycle("alexnet", digest, &warm, &warm.clone(), 0, &mut tally);
        assert_eq!((tally.attempted, tally.failed()), (8, 3));
        assert!(tally.ok_ratio() < 1.0);
    }

    #[test]
    fn digests_cover_every_training_case() {
        for w in [cnn_train(), gpt2s_train()] {
            for case in &w.cases {
                assert!(digests::recorded(case.name).is_some(), "{}", case.name);
            }
        }
    }
}
