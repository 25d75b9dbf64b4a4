//! The repository's benchmark: four fixed workloads driven through the
//! public APIs of `delta_model::engine`, `delta_sim`, `delta_serve` and
//! `delta_fleet`. Every answer is verified; the last line of standard
//! output is one JSON object with the run's metrics. See README.md for
//! why each workload and metric was chosen.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cnn_train --seed 1 --seconds 15 --trace 0
//! ```

mod calib;
mod digests;
mod fidelity;
mod fleet;
mod measure;
mod serve;
mod spans;
mod train;

use fidelity::Levels;
use measure::{median, peak_rss_mb, quantile, Metric, Round, Tally};
use spans::SpanTimes;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Worker threads of the engine's parallel fan-out in every workload.
/// Parallel host time on a small shared machine is too unsteady to
/// gate: every workload runs on one CPU (`measure::pin_to_one_cpu`),
/// and only W4 runs two concurrent workers (its executors), which take
/// turns on it.
const WORKER_THREADS: &str = "1";

const WORKLOADS: [&str; 4] = ["cnn_train", "gpt2s_train", "serve_mix", "fleet_resnet152"];

/// The workload `BENCHMARK.json` leaves out, and why. It still runs on
/// request.
const DROPPED: &str = "gpt2s_train (W2) is left out of BENCHMARK.json as unsteady within the \
                       run budget: its ~8.5 s rounds allow 4 per run, too few to average the \
                       CPU-speed swings of a shared 2-vCPU host (up to 35 % over minutes)";

/// The per-layer metrics of a traced run, printed for every workload
/// (0 where the workload does not exercise the layer).
const PER_LAYER: [(&str, &str); 32] = [
    ("engine.load_cache_s", "s"),
    ("engine.save_cache_s", "s"),
    ("engine.cache_file_kb", "KiB"),
    ("engine.cold_step_s", "s"),
    ("engine.hits", "count"),
    ("engine.misses", "count"),
    ("engine.step_hits", "count"),
    ("engine.step_schedule_s", "s"),
    ("sim.replays", "count"),
    ("sim.replay_s", "s"),
    ("sim.ms_per_replay", "ms"),
    ("sim.unit_replay_s", "s"),
    ("sim.merge_s", "s"),
    ("proc.sys_s", "s"),
    ("model.eval_us", "us"),
    ("serve.spawn_s", "s"),
    ("serve.accept_wait_ms", "ms"),
    ("serve.parse_s", "s"),
    ("serve.dedup_s", "s"),
    ("serve.evaluate_s", "s"),
    ("serve.serialize_s", "s"),
    ("serve.body_hit_ratio", "ratio"),
    ("serve.deduped", "count"),
    ("fleet.connect_s", "s"),
    ("fleet.dispatch_s", "s"),
    ("fleet.execute_s", "s"),
    ("fleet.wait_s", "s"),
    ("fleet.merge_s", "s"),
    ("fleet.redispatches", "count"),
    ("fleet.duplicates_dropped", "count"),
    ("obs.tracing_overhead", "ratio"),
    ("obs.layer_share", "ratio"),
];

/// One invocation's settings.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Working directory for cache files, removed at exit.
    pub work: PathBuf,
}

/// Everything a workload measured.
pub struct Outcome {
    pub plain: Vec<Round>,
    pub traced: Vec<Round>,
    pub gmae: Levels,
    pub sample_err: Levels,
    /// Per-layer readings taken once per invocation.
    pub layers: BTreeMap<&'static str, f64>,
    pub executors: u32,
    pub connections: u32,
    /// Whether tracing overhead compares throughput (a served
    /// workload) instead of wall time.
    pub overhead_by_qps: bool,
}

impl Outcome {
    pub fn new(plain: Vec<Round>, traced: Vec<Round>) -> Outcome {
        Outcome {
            plain,
            traced,
            gmae: Levels::default(),
            sample_err: Levels::default(),
            layers: BTreeMap::new(),
            executors: 0,
            connections: 0,
            overhead_by_qps: false,
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for r in self.plain.iter().chain(&self.traced) {
            t.add(r.tally);
        }
        t
    }
}

/// Spans of every traced round, written out as one Chrome trace.
static TRACE: std::sync::Mutex<Vec<delta_obs::SpanEvent>> = std::sync::Mutex::new(Vec::new());

/// Ends a traced round: drains the spans it recorded into its per-layer
/// readings and keeps them for the trace file.
pub fn finish_traced(mut r: Round, events: Vec<delta_obs::SpanEvent>) -> Round {
    record_spans(&mut r, &SpanTimes::from_events(&events));
    r.layer("fleet.wait_s", spans::fleet_wait_s(&events));
    TRACE.lock().expect("trace buffer").extend(events);
    r
}

fn record_spans(r: &mut Round, t: &SpanTimes) {
    r.layer("engine.save_cache_s", t.total_s("bench.save_cache"));
    r.layer("engine.cold_step_s", t.total_s("bench.cold_step"));
    r.layer("engine.step_schedule_s", t.own_s("engine.step_schedule"));
    r.layer("sim.replay_s", t.own_s("sim.replay"));
    r.layer(
        "sim.unit_replay_s",
        t.own_s("sim.replay_column") + t.own_s("sim.replay_segment"),
    );
    r.layer("sim.merge_s", t.own_s("sim.merge"));
    r.layer("serve.parse_s", t.own_s("serve.parse"));
    r.layer("serve.dedup_s", t.own_s("serve.dedup"));
    r.layer("serve.evaluate_s", t.own_s("serve.evaluate"));
    r.layer("serve.serialize_s", t.own_s("serve.serialize"));
    r.layer("fleet.dispatch_s", t.total_s("fleet.dispatch"));
    r.layer("fleet.execute_s", t.total_s("fleet.execute"));
    r.layer("fleet.merge_s", t.own_s("fleet.merge"));
}

/// The per-layer self times that `obs.layer_share` adds up: leaf work
/// of each layer, excluding spans that only wait on their children.
const SELF_TIMES: [&str; 11] = [
    "engine.save_cache_s",
    "engine.step_schedule_s",
    "sim.replay_s",
    "sim.unit_replay_s",
    "sim.merge_s",
    "serve.parse_s",
    "serve.dedup_s",
    "serve.evaluate_s",
    "serve.serialize_s",
    "fleet.wait_s",
    "fleet.merge_s",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or(format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(15.0),
        trace: trace.unwrap_or(false),
    })
}

/// The commit under test, when the benchmark runs inside a git
/// checkout of its own (the search stops at the working directory).
fn commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().map(PathBuf::from).unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // Set before any thread starts; the engine's fan-out reads it, and
    // every thread inherits the CPU.
    std::env::set_var("RAYON_NUM_THREADS", WORKER_THREADS);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = measure::pin_to_one_cpu();
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work,
    };
    let outcome = match ctx.workload.as_str() {
        "cnn_train" => train::cnn_train().run(&ctx),
        "gpt2s_train" => train::gpt2s_train().run(&ctx),
        "serve_mix" => serve::run(&ctx),
        _ => fleet::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let correct = report(&ctx, &outcome, nproc, cpu);
    std::process::exit(if correct { 0 } else { 1 });
}

/// Prints the run facts, the tables, and the result line; returns
/// whether every answer was verified.
fn report(ctx: &Ctx, o: &Outcome, nproc: usize, cpu: Option<usize>) -> bool {
    let tally = o.tally();
    let correct = tally.attempted > 0 && tally.failed() == 0;
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let cpu = cpu.map_or("unpinned".to_string(), |c| c.to_string());
    println!(
        "facts: workload={} seed={} seconds={} trace={} nproc={nproc} cpu={cpu} \
         worker_threads={WORKER_THREADS} executors={} client_connections={} profile={profile} \
         commit={}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        o.executors,
        o.connections,
        commit()
    );
    println!("dropped: {DROPPED}");
    let samples: usize = o.plain.iter().map(|r| r.latencies_ms.len()).sum();
    let per_round = o.plain.first().map_or(0, |r| r.latencies_ms.len());
    println!(
        "rounds: {} untraced, {} traced; {samples} latency samples (p99_ms is the median \
         round's {:.1}th percentile); {} of {} answers verified",
        o.plain.len(),
        o.traced.len(),
        tail_quantile(per_round) * 100.0,
        tally.verified,
        tally.attempted
    );
    let latencies: Vec<f64> = o
        .plain
        .iter()
        .flat_map(|r| r.latencies_ms.clone())
        .collect();
    if latencies.len() >= 100 {
        let q: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
            .iter()
            .map(|&p| format!("p{}={:.3}", p * 100.0, quantile(&latencies, p)))
            .collect();
        let slow = latencies.iter().filter(|&&l| l >= 1.0).count() as f64 / latencies.len() as f64;
        println!(
            "latency ms: {} ({:.1}% at or above 1 ms)",
            q.join(" "),
            slow * 100.0
        );
    }
    for (i, r) in o.plain.iter().enumerate() {
        println!(
            "round {i}: cpu slowdown {:.3} steal {:.1}%; raw setup_s {:.4} wall_s {:.4} \
             cpu_s {:.2}; reference setup_s {:.4} wall_s {:.4}; answers {}",
            r.slowdown(),
            r.steal_share() * 100.0,
            r.setup_s,
            r.wall_s,
            r.cpu.total_s(),
            r.corrected(r.setup_s),
            r.corrected(r.wall_s),
            r.answers
        );
    }
    let metrics = if ctx.trace {
        println!("per-layer metrics (median over traced rounds):");
        per_layer(o)
    } else {
        println!(
            "end-to-end metrics (gmae_* and sample_err_*: {}):",
            fidelity::NOTE
        );
        end_to_end(o, tally)
    };
    for m in &metrics {
        println!("  {:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if ctx.trace {
        let path = PathBuf::from(".bench_work").join(format!("trace-{}.json", ctx.workload));
        let events = TRACE.lock().expect("trace buffer");
        match std::fs::write(&path, delta_obs::trace::chrome_trace_json(&events)) {
            Ok(()) => println!("trace: {} ({} spans)", path.display(), events.len()),
            Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
        }
    }
    measure::print_result(correct, tally, &metrics);
    correct
}

/// The highest percentile, up to the 99th, that has at least ten of a
/// round's samples beyond it; the median when a round has too few
/// samples for any tail (the batch workloads, whose one sample is the
/// round).
fn tail_quantile(samples: usize) -> f64 {
    let q = 1.0 - 10.0 / samples as f64;
    if q > 0.5 {
        q.min(0.99)
    } else {
        0.5
    }
}

fn end_to_end(o: &Outcome, tally: Tally) -> Vec<Metric> {
    let rounds = &o.plain;
    let per = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let mean = |f: fn(&Round) -> f64| rounds.iter().map(f).sum::<f64>() / rounds.len() as f64;
    // Host times are in reference seconds (`calib`). Latency
    // percentiles are taken per round, then the median over rounds, so
    // a burst of host contention in a few rounds does not move them.
    let percentile = |q: fn(usize) -> f64| {
        median(
            &rounds
                .iter()
                .map(|r| r.corrected(quantile(&r.latencies_ms, q(r.latencies_ms.len()))))
                .collect::<Vec<_>>(),
        )
    };
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("setup_s", per(|r| r.corrected(r.setup_s)), "s"),
        m("wall_s", per(|r| r.corrected(r.wall_s)), "s"),
        // Mean, not median: /proc CPU times come in 10 ms ticks, which
        // only averaging over rounds resolves.
        m("cpu_s", mean(|r| r.corrected_cpu_s()), "s"),
        m(
            "qps",
            per(|r| r.answers as f64 / r.corrected(r.busy_s)),
            "1/s",
        ),
        m("p50_ms", percentile(|_| 0.5), "ms"),
        m("p99_ms", percentile(tail_quantile), "ms"),
        m("peak_rss_mb", peak_rss_mb(), "MiB"),
        m("ok_ratio", tally.ok_ratio(), "ratio"),
        m("gmae_l1", o.gmae.l1, "ratio"),
        m("gmae_l2", o.gmae.l2, "ratio"),
        m("gmae_dram", o.gmae.dram, "ratio"),
        m("gmae_time", o.gmae.time, "ratio"),
        m("sample_err_dram", o.sample_err.dram, "ratio"),
        m("sample_err_time", o.sample_err.time, "ratio"),
    ]
}

fn per_layer(o: &Outcome) -> Vec<Metric> {
    let traced = |name: &str| {
        median(
            &o.traced
                .iter()
                .map(|r| r.layers.get(name).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    let wall = |rs: &[Round]| median(&rs.iter().map(|r| r.corrected(r.wall_s)).collect::<Vec<_>>());
    let qps = |rs: &[Round]| {
        median(
            &rs.iter()
                .map(|r| r.answers as f64 / r.corrected(r.busy_s))
                .collect::<Vec<_>>(),
        )
    };
    let overhead = if o.overhead_by_qps {
        qps(&o.plain) / qps(&o.traced)
    } else {
        wall(&o.traced) / wall(&o.plain)
    };
    let replays = traced("sim.replays");
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "sim.ms_per_replay" if replays > 0.0 => traced("sim.replay_s") * 1e3 / replays,
                "proc.sys_s" => {
                    o.plain.iter().map(|r| r.cpu.sys_s).sum::<f64>() / o.plain.len() as f64
                }
                "obs.tracing_overhead" => overhead,
                "obs.layer_share" => median(
                    &o.traced
                        .iter()
                        .map(|r| {
                            let covered: f64 =
                                SELF_TIMES.iter().filter_map(|n| r.layers.get(n)).sum();
                            covered / r.wall_s
                        })
                        .collect::<Vec<_>>(),
                ),
                _ => o.layers.get(name).copied().unwrap_or_else(|| traced(name)),
            };
            Metric { name, value, unit }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metrics a run prints, by name and unit, are the ones
    /// `BENCHMARK.json` lists, in its order.
    #[test]
    fn printed_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(serde::Value::Seq(metrics)) = doc.get(key) else {
                panic!("BENCHMARK.json has no {key} list");
            };
            let field = |m: &serde::Value, f: &str| match m.get(f) {
                Some(serde::Value::Str(s)) => s.clone(),
                other => panic!("{key} entry has {f} {other:?}"),
            };
            metrics
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect()
        };
        let printed = |metrics: Vec<Metric>| -> Vec<(String, String)> {
            metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect()
        };
        let o = Outcome::new(vec![Round::default()], vec![Round::default()]);
        assert_eq!(
            printed(end_to_end(&o, Tally::default())),
            listed("end_to_end")
        );
        assert_eq!(printed(per_layer(&o)), listed("per_layer"));
    }
}
