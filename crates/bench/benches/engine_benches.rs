//! Criterion benchmarks for the network-evaluation engine: the
//! parallel, shape-cached engine against a hand-rolled sequential
//! per-layer loop on full-network simulations, plus a parallel loop
//! straight over the backend that separates the engine's two mechanisms
//! (multi-core fan-out alone vs fan-out plus shape reuse).
//!
//! Every engine iteration constructs a fresh engine, so the cache starts
//! cold and the comparison is honest: the win measured here is
//! within-one-network shape reuse plus multi-core fan-out, not warm-cache
//! residue from a previous iteration.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use delta_model::backend::Backend;
use delta_model::engine::Engine;
use delta_model::query::{EvalQuery, Parallelism, StepQuery};
use delta_model::{Delta, GpuSpec};
use delta_sim::{SimConfig, Simulator};
use rayon::prelude::*;
use std::hint::black_box;

/// ResNet152's unique-layer subset at a reduced batch: the repeated
/// residual-block shapes are exactly the workload the cache targets.
fn workload() -> delta_networks::Network {
    delta_networks::resnet152(4).expect("builtin network")
}

fn bench_full_network_sim(c: &mut Criterion) {
    let gpu = GpuSpec::titan_xp();
    let config = SimConfig::default();
    let net = workload();
    let mut group = c.benchmark_group("engine/resnet152_sim");
    group.sample_size(10);

    // The pre-engine baseline: a hand-rolled sequential per-layer loop.
    group.bench_function("sequential_loop", |b| {
        let sim = Simulator::new(gpu.clone(), config);
        b.iter(|| {
            net.layers()
                .iter()
                .map(|l| sim.run(black_box(l)).cycles)
                .sum::<f64>()
        })
    });

    // Fan-out alone: every layer's forward query straight to the
    // backend across cores, repeated shapes replayed again.
    group.bench_function("parallel_loop", |b| {
        let sim = Simulator::new(gpu.clone(), config);
        b.iter(|| {
            net.layers()
                .par_iter()
                .map(|l| {
                    sim.evaluate(&EvalQuery::forward(black_box(l), Parallelism::Single))
                        .expect("simulable layer")
                        .seconds
                })
                .collect::<Vec<f64>>()
                .iter()
                .sum::<f64>()
        })
    });
    group.bench_function("engine_parallel_cached", |b| {
        b.iter_batched(
            || Engine::new(Simulator::new(gpu.clone(), config)),
            |engine| {
                engine
                    .evaluate_network(black_box(net.layers()), &Parallelism::Single)
                    .expect("simulable network")
                    .total_seconds()
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_whole_resnet_sim(c: &mut Criterion) {
    // The headline acceptance workload: the *entire* ResNet152 forward
    // pass (151 convs, ~17 unique shapes) through the simulator. The
    // sequential loop pays for every repeated residual-block shape;
    // the engine simulates each unique shape once (in parallel on
    // multi-core hosts) and serves the repeats from the cache.
    let gpu = GpuSpec::titan_xp();
    let config = SimConfig::default();
    let net = delta_networks::resnet152_full(2).expect("builtin network");
    let mut group = c.benchmark_group("engine/resnet152_full_sim");
    group.sample_size(10);

    group.bench_function("sequential_loop", |b| {
        let sim = Simulator::new(gpu.clone(), config);
        b.iter(|| {
            net.layers()
                .iter()
                .map(|l| sim.run(black_box(l)).cycles)
                .sum::<f64>()
        })
    });
    group.bench_function("engine_parallel_cached", |b| {
        b.iter_batched(
            || Engine::new(Simulator::new(gpu.clone(), config)),
            |engine| {
                engine
                    .evaluate_network(black_box(net.layers()), &Parallelism::Single)
                    .expect("simulable network")
                    .total_seconds()
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_full_network_model(c: &mut Criterion) {
    // Same comparison on the instant model backend: the engine's fixed
    // overhead must stay negligible even when per-layer work is tiny.
    let gpu = GpuSpec::titan_xp();
    let net = delta_networks::resnet152_full(256).expect("builtin network");
    let mut group = c.benchmark_group("engine/resnet152_full_model");
    group.sample_size(20);

    group.bench_function("sequential_loop", |b| {
        let delta = Delta::new(gpu.clone());
        b.iter(|| {
            net.layers()
                .iter()
                .map(|l| {
                    delta
                        .analyze(black_box(l))
                        .expect("analyzable")
                        .perf
                        .seconds
                })
                .sum::<f64>()
        })
    });
    group.bench_function("engine_parallel_cached", |b| {
        b.iter_batched(
            || Engine::new(Delta::new(gpu.clone())),
            |engine| {
                engine
                    .evaluate_network(black_box(net.layers()), &Parallelism::Single)
                    .expect("analyzable network")
                    .total_seconds()
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_training_step(c: &mut Criterion) {
    let gpu = GpuSpec::titan_xp();
    let net = delta_networks::vgg16(64).expect("builtin network");
    let mut group = c.benchmark_group("engine/vgg16_training_model");
    group.sample_size(20);
    group.bench_function("engine_training_step", |b| {
        b.iter_batched(
            || Engine::new(Delta::new(gpu.clone())),
            |engine| {
                engine
                    .evaluate_step(black_box(&StepQuery::new(
                        net.layers(),
                        Parallelism::Single,
                    )))
                    .expect("estimable step")
                    .table
                    .total_seconds()
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_full_network_sim, bench_whole_resnet_sim, bench_full_network_model,
        bench_training_step
);
criterion_main!(benches);
