//! CI perf-regression gate for the hot paths the evaluation engine
//! architecture depends on:
//!
//! 1. **cached engine** — full-ResNet152 simulation through the parallel,
//!    query-cached engine vs. the hand-rolled sequential per-layer loop;
//! 2. **sharded sim** — one big ResNet152 conv layer through a
//!    `Sharded { workers }` query at 4 workers vs. 1 worker;
//! 3. **warm step cache** — a multi-GPU training-step evaluation
//!    answered from a persisted v3 cache file vs. simulated cold;
//! 4. **tracing overhead** — the sharded evaluation seam with span
//!    recording armed vs. off, the one ratio gated against a *ceiling*
//!    (`baseline × (1 + tolerance)`) instead of a floor.
//!
//! All are measured as **ratios**, not absolute times, so the
//! gate is portable across CI machines of different raw speed. Usage:
//!
//! ```text
//! perf_gate [--check BENCH_BASELINE.json] [--out results/perf_gate.json] [--reps N]
//! ```
//!
//! With `--check`, each measured ratio must stay above
//! `baseline × (1 − tolerance)` or the process exits non-zero. The
//! shard-speedup check is skipped (with a notice) on hosts with fewer
//! than 4 cores, where the 4-worker floor is physically unattainable
//! (speedup ≤ min(workers, work units, cores)); the warm-step-cache
//! check runs everywhere because a warm hit simulates nothing and so
//! does not depend on the core count.
//!
//! The gate checks no answer: each bitwise identity these paths rely
//! on has one home in a tier-1 test under `tests/`. The ratios stay
//! here because `perfbench/` pins each run to one CPU.

use delta_bench::experiments::shard_scaling;
use delta_model::engine::{Engine, EngineOptions};
use delta_model::query::{EvalQuery, Parallelism, StepQuery};
use delta_model::GpuSpec;
use delta_sim::{InterconnectKind, SimConfig, Simulator};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::Instant;

/// Measured ratios, written as the bench artifact.
#[derive(Debug, Serialize, Deserialize)]
struct GateReport {
    /// Worker threads available to the host.
    cores: usize,
    /// Cached parallel engine speedup over the sequential per-layer loop
    /// (full ResNet152 simulation).
    engine_cached_speedup: f64,
    /// 4-worker over 1-worker sharded-query speedup on a 16-column
    /// ResNet152 conv layer.
    shard_speedup_4w: f64,
    /// Warm over cold multi-GPU step-evaluation speedup, where the warm
    /// engine answers from a persisted v3 cache file.
    warm_step_cache_speedup: f64,
    /// Tracing-on over tracing-off wall time on the sharded evaluation
    /// seam — the one ratio gated against a **ceiling**, not a floor.
    tracing_overhead: f64,
}

/// The checked-in expectations (`BENCH_BASELINE.json`).
#[derive(Debug, Serialize, Deserialize)]
struct Baseline {
    /// Allowed fractional regression before the gate fails (0.2 = 20%).
    tolerance: f64,
    /// Expected cached-engine speedup.
    engine_cached_speedup: f64,
    /// Expected 4-worker shard speedup.
    shard_speedup_4w: f64,
    /// Expected warm-over-cold step-cache speedup.
    warm_step_cache_speedup: f64,
    /// Expected tracing-on over tracing-off wall-time ratio; the gate
    /// fails when the measured ratio *exceeds*
    /// `baseline × (1 + tolerance)`.
    tracing_overhead: f64,
}

fn best_of<F: FnMut() -> f64>(reps: u32, mut run: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        std::hint::black_box(run());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn measure(reps: u32) -> GateReport {
    let gpu = GpuSpec::titan_xp();
    let config = SimConfig::default();

    // Path 1: the cached parallel engine on the whole ResNet152 forward
    // pass (151 convs, ~17 unique shapes).
    let net = delta_networks::resnet152_full(2).expect("builtin network");
    let sim = Simulator::new(gpu.clone(), config);
    let t_loop = best_of(reps, || {
        net.layers().iter().map(|l| sim.run(l).cycles).sum::<f64>()
    });
    // A fresh engine per rep keeps the cache cold and the comparison
    // honest.
    let fresh_engine = || Engine::new(Simulator::new(gpu.clone(), config));
    let t_engine = best_of(reps, || {
        fresh_engine()
            .evaluate_network(net.layers(), &Parallelism::Single)
            .expect("simulable network")
            .total_seconds()
    });

    // Path 2: one big layer, sharded — the sweep's widest (most tile
    // columns), so 4 workers all get real work. Driven through
    // `Engine::evaluate` with a `Sharded` query so the gate times the
    // production seam (Engine → Backend → run_sharded), not a shortcut;
    // the cache is disabled so every timed rep re-runs the replay.
    let layer = shard_scaling::widest_layer(16).expect("valid layer");
    let engine = Engine::with_options(
        Simulator::new(gpu.clone(), config),
        EngineOptions {
            parallel: true,
            cache: false,
        },
    );
    let sharded = |workers: u32| {
        let query = EvalQuery::forward(&layer, Parallelism::Sharded { workers });
        engine.evaluate(&query).expect("simulable layer").cycles
    };
    let t1 = best_of(reps, || sharded(1));
    let t4 = best_of(reps, || sharded(4));

    // Path 3: the warm step-cache path. A cold engine simulates a
    // multi-GPU AlexNet training step and persists the v3 cache file; a
    // warm engine loads the file and answers the same step — much
    // faster, even on a single core, because nothing is simulated.
    let net_small = delta_networks::alexnet(2).expect("builtin network");
    let step_query = StepQuery {
        layers: net_small.layers().to_vec(),
        parallelism: Parallelism::multi(&gpu, 4, InterconnectKind::NvLink),
        bucket_mb: 4,
        overlap: true,
    };
    let cache_file = std::env::temp_dir().join(format!(
        "delta_perf_gate_step_cache_{}.json",
        std::process::id()
    ));
    let step_seconds = |engine: &Engine<Simulator>| {
        let eval = engine.evaluate_step(&step_query);
        eval.expect("schedulable network").timeline.step_seconds
    };
    let cold_engine = fresh_engine();
    step_seconds(&cold_engine);
    cold_engine.save_cache(&cache_file).expect("writable tmp");
    let t_cold = best_of(reps, || step_seconds(&fresh_engine()));
    let t_warm = best_of(reps, || {
        let warm_engine = fresh_engine();
        warm_engine.load_cache(&cache_file).expect("readable tmp");
        step_seconds(&warm_engine)
    });
    let _ = std::fs::remove_file(&cache_file);

    // Path 4: span recording on the sharded seam. Measured last so the
    // enabled flag cannot leak into the other timed paths.
    let t_trace_off = best_of(reps, || sharded(1));
    delta_obs::trace::set_enabled(true);
    let t_trace_on = best_of(reps, || sharded(1));
    delta_obs::trace::set_enabled(false);

    GateReport {
        cores: rayon::current_num_threads(),
        engine_cached_speedup: t_loop / t_engine,
        shard_speedup_4w: t1 / t4,
        warm_step_cache_speedup: t_cold / t_warm,
        tracing_overhead: t_trace_on / t_trace_off,
    }
}

/// Prints `msg` and exits 2 — a gate binary must never fail open by
/// silently dropping a malformed flag or an unreadable baseline.
fn die(msg: String) -> ! {
    eprintln!("perf_gate: {msg}");
    std::process::exit(2);
}

fn parse_args() -> (Option<PathBuf>, PathBuf, u32) {
    let mut args = std::env::args().skip(1);
    let mut check = None;
    let mut out = PathBuf::from("results/perf_gate.json");
    let mut reps = 2u32;
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| die(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--check" => check = Some(PathBuf::from(value())),
            "--out" => out = PathBuf::from(value()),
            "--reps" => {
                let v = value();
                reps = v
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| die(format!("--reps expects a count >= 1, got `{v}`")));
            }
            _ => die(format!("unknown flag `{flag}`")),
        }
    }
    (check, out, reps)
}

fn main() {
    let (check, out, reps) = parse_args();
    let report = measure(reps);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    println!("perf_gate (best of {reps}):\n{json}");

    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| die(format!("cannot create {}: {e}", dir.display())));
    }
    std::fs::write(&out, json)
        .unwrap_or_else(|e| die(format!("cannot write {}: {e}", out.display())));
    println!("wrote {}", out.display());

    let mut failures: Vec<String> = Vec::new();
    if let Some(path) = check {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| die(format!("cannot read baseline {}: {e}", path.display())));
        let base: Baseline = serde_json::from_str(&text)
            .unwrap_or_else(|e| die(format!("malformed baseline {}: {e:?}", path.display())));
        let mut gate = |name: &str, measured: f64, expected: f64| {
            let floor = expected * (1.0 - base.tolerance);
            println!(
                "check {name}: measured {measured:.2}x, baseline {expected:.2}x, floor {floor:.2}x"
            );
            if measured < floor {
                failures.push(format!(
                    "{name} regressed: {measured:.2}x < {floor:.2}x (baseline {expected:.2}x − {:.0}%)",
                    base.tolerance * 100.0
                ));
            }
        };
        gate(
            "engine_cached_speedup",
            report.engine_cached_speedup,
            base.engine_cached_speedup,
        );
        // The warm path simulates nothing, so its speedup does not
        // depend on the core count: gate it everywhere.
        gate(
            "warm_step_cache_speedup",
            report.warm_step_cache_speedup,
            base.warm_step_cache_speedup,
        );
        // The 4-worker floor is only attainable with 4 cores: speedup
        // is bounded by min(workers, columns, cores), so on 2–3 core
        // hosts the check would fail with no real regression.
        if report.cores >= 4 {
            gate(
                "shard_speedup_4w",
                report.shard_speedup_4w,
                base.shard_speedup_4w,
            );
        } else {
            println!(
                "check shard_speedup_4w: skipped ({} cores; the 4-worker floor needs >= 4)",
                report.cores
            );
        }
        // The tracing ratio is a *ceiling*: span recording measured
        // slower than baseline × (1 + tolerance) means the
        // instrumentation got expensive, the inverse of a speedup
        // regression. It does not depend on the core count.
        let ceiling = base.tracing_overhead * (1.0 + base.tolerance);
        println!(
            "check tracing_overhead: measured {:.2}x, baseline {:.2}x, ceiling {ceiling:.2}x",
            report.tracing_overhead, base.tracing_overhead
        );
        if report.tracing_overhead > ceiling {
            failures.push(format!(
                "tracing_overhead regressed: {:.2}x > {ceiling:.2}x (baseline {:.2}x + {:.0}%)",
                report.tracing_overhead,
                base.tracing_overhead,
                base.tolerance * 100.0
            ));
        }
    }

    if failures.is_empty() {
        println!("perf_gate: OK");
    } else {
        for f in &failures {
            eprintln!("perf_gate FAILURE: {f}");
        }
        std::process::exit(1);
    }
}
