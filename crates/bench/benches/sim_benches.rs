//! Criterion benchmarks of the measurement substrate: trace generation,
//! coalescing, cache access, L2 aging, one CTA batch through every
//! stage, the epilogue, and end-to-end layer simulation throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use delta_model::tiling::CtaTile;
use delta_model::{training, ConvLayer, GpuSpec};
use delta_sim::cache::SectoredCache;
use delta_sim::coalesce::{self, Transaction};
use delta_sim::sched::ColumnScheduler;
use delta_sim::stages::{BatchLimits, CtaBatch};
use delta_sim::tensor::TensorMap;
use delta_sim::timing::TimingEngine;
use delta_sim::trace::CtaTrace;
use delta_sim::{MemoryHierarchy, SimConfig, Simulator};
use std::hint::black_box;

fn small_layer() -> ConvLayer {
    ConvLayer::builder("sim-bench")
        .batch(2)
        .input(32, 14, 14)
        .output_channels(64)
        .filter(3, 3)
        .pad(1)
        .build()
        .expect("valid layer")
}

fn bench_trace_generation(c: &mut Criterion) {
    let layer = small_layer();
    let map = TensorMap::new(&layer);
    let tile = CtaTile::select(layer.out_channels());
    let mut group = c.benchmark_group("sim/trace");
    // Lanes per loop: ifmap blkM*blkK + filter blkN*blkK.
    let lanes = u64::from(tile.blk_m() + tile.blk_n()) * u64::from(tile.blk_k());
    group.throughput(Throughput::Elements(lanes));
    // The IFmap warps as transactions from their row runs, then the
    // filter warps lane by lane.
    group.bench_function("one_main_loop", |b| {
        let mut trace = CtaTrace::new(&map, tile, 0, 0);
        let mut tx_buf = Vec::with_capacity(64);
        b.iter(|| {
            let mut live = 0u64;
            trace.for_each_ifmap_warp(black_box(0), &mut tx_buf, |w| live += w.len() as u64);
            trace.for_each_filter_warp(black_box(0), |w| {
                live += w.iter().flatten().count() as u64;
            });
            live
        })
    });
    group.finish();
}

fn bench_coalescer(c: &mut Criterion) {
    // A strided warp (the L1-hostile im2col pattern) and a scattered one
    // whose 32 lanes each touch a distinct line (the filter gather: one
    // 3x3x64 fp32 filter row, 2304 B, per lane).
    let strided: Vec<Option<u64>> = (0..32u64).map(|i| Some(i * 8)).collect();
    let scattered: Vec<Option<u64>> = (0..32u64).map(|i| Some(i * 2304)).collect();
    let mut out: Vec<Transaction> = Vec::with_capacity(32);
    for (name, addrs) in [
        ("sim/coalesce_strided_warp", &strided),
        ("sim/coalesce_scattered_warp", &scattered),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                coalesce::coalesce_warp(black_box(addrs), &mut out);
                out.len()
            })
        });
    }
}

fn bench_cache(c: &mut Criterion) {
    let mut cache = SectoredCache::new(3 * 1024 * 1024, 16);
    let mut line = 0u64;
    c.bench_function("sim/l2_cache_access", |b| {
        b.iter(|| {
            line = (line + 97) % 100_000;
            cache.access(black_box(line), 0b1111)
        })
    });
}

fn bench_l2_aging(c: &mut Criterion) {
    // Aging by 10x the L2's capacity, as loop/batch extrapolation asks
    // for on large layers.
    let gpu = GpuSpec::titan_xp();
    let mut hier = MemoryHierarchy::new(&gpu);
    let mut group = c.benchmark_group("sim/age_l2");
    group.throughput(Throughput::Bytes(10 * gpu.l2_bytes()));
    group.bench_function("ten_l2_capacities", |b| {
        b.iter(|| hier.age_l2(black_box(10 * gpu.l2_bytes())))
    });
    group.finish();
}

/// A layer whose first tile column is one nearly full TITAN Xp batch:
/// M = 6272 rows make 49 CTAs (the batch holds 60), N = 128 one column.
fn batch_layer() -> ConvLayer {
    ConvLayer::builder("sim-bench-batch")
        .batch(8)
        .input(64, 28, 28)
        .output_channels(128)
        .filter(3, 3)
        .pad(1)
        .build()
        .expect("valid layer")
}

fn bench_cta_batch(c: &mut Criterion) {
    let gpu = GpuSpec::titan_xp();
    let sim = Simulator::new(gpu.clone(), SimConfig::default());
    let mut group = c.benchmark_group("sim/cta_batch");
    group.sample_size(10);
    // Eight main loops through trace, coalesce, hierarchy and timing,
    // then the loop extrapolation and the epilogue, on a warm hierarchy:
    // for the conv, and for its FC-shaped wgrad GEMM, whose IFmap lanes
    // each read a different sample.
    let wgrad = training::wgrad_layer(&batch_layer()).expect("valid layer");
    for (name, layer) in [
        ("simulate_8_loops", batch_layer()),
        ("wgrad_8_loops", wgrad),
    ] {
        let tiling = sim.tiling(&layer);
        let map = TensorMap::new(&layer);
        let active = tiling.tile().active_ctas_per_sm(&gpu);
        let sched = ColumnScheduler::new(&tiling, &gpu, active);
        let batch = CtaBatch::new(
            &map,
            tiling.tile(),
            sched.batch(0, 0),
            tiling.main_loops(),
            active,
        );
        group.throughput(Throughput::Elements(batch.len()));
        group.bench_function(name, |b| {
            let mut hier = MemoryHierarchy::new(&gpu);
            let mut timing = TimingEngine::new(&gpu, tiling.tile());
            let mut tx_buf = Vec::with_capacity(64);
            let limits = BatchLimits {
                max_loops: Some(8),
                simulate_stores: true,
            };
            b.iter(|| batch.simulate(&mut hier, &mut timing, limits, &mut tx_buf))
        });
        if name == "simulate_8_loops" {
            group.bench_function("epilogue", |b| {
                b.iter(|| black_box(&batch).epilogue_bytes())
            });
        }
    }
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let layer = small_layer();
    let mut group = c.benchmark_group("sim/end_to_end");
    group.sample_size(10);
    group.throughput(Throughput::Elements(layer.macs()));
    group.bench_function("small_layer_default_sampling", |b| {
        let sim = Simulator::new(GpuSpec::titan_xp(), SimConfig::default());
        b.iter(|| sim.run(black_box(&layer)))
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_trace_generation, bench_coalescer, bench_cache, bench_l2_aging,
        bench_cta_batch, bench_end_to_end
);
criterion_main!(benches);
