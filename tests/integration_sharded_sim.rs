//! Cross-crate integration of the intra-layer sharding seam: the
//! `Parallelism::Sharded { workers }` query from the CLI's `--shards N`
//! through `Backend` and `Engine` must produce bitwise-identical
//! estimates for every worker count — the acceptance contract the CI
//! perf gate also enforces.

use delta_model::engine::{Engine, LayerShape};
use delta_model::query::{EvalQuery, Parallelism};
use delta_model::{Backend, ConvLayer, GpuSpec};
use delta_sim::{SimConfig, Simulator};
use rayon::prelude::*;
use std::collections::HashSet;

fn sim() -> Simulator {
    Simulator::new(GpuSpec::titan_xp(), SimConfig::default())
}

fn sharded(l: &ConvLayer, workers: u32) -> EvalQuery {
    EvalQuery::forward(l, Parallelism::Sharded { workers })
}

/// A 16-column ResNet152-style conv layer — wide enough that 4 workers
/// all get columns.
fn wide_layer() -> ConvLayer {
    ConvLayer::builder("conv5_1x1")
        .batch(4)
        .input(512, 7, 7)
        .output_channels(2048)
        .filter(1, 1)
        .build()
        .unwrap()
}

#[test]
fn network_estimates_identical_for_shards_1_2_4() {
    // The end-to-end `delta network --backend sim --shards N` path: a
    // whole network through the engine with sharded queries.
    let net = delta_networks::alexnet(2).expect("builtin network");
    let reference = Engine::new(sim())
        .evaluate_network(net.layers(), &Parallelism::Sharded { workers: 1 })
        .expect("simulable network");
    assert_eq!(reference.rows.len(), net.len());
    for n in [2, 4] {
        let eval = Engine::new(sim())
            .evaluate_network(net.layers(), &Parallelism::Sharded { workers: n })
            .expect("simulable network");
        // LayerEstimate is PartialEq over raw f64 fields: bitwise equal
        // values (the labels — and only the labels — match too).
        for (a, b) in eval.rows.iter().zip(&reference.rows) {
            assert_eq!(a.estimate, b.estimate, "shards={n} layer {}", a.label);
        }
    }
}

#[test]
fn alexnet_conv1_batch8_is_identical_for_every_worker_count() {
    // One tile column, tall enough at batch 8 that default sampling
    // extrapolates the column: more workers than columns must still
    // answer exactly as one worker does.
    let net = delta_networks::alexnet(8).expect("builtin network");
    let conv1 = &net.layers()[0];
    let s = sim();
    assert_eq!(s.tiling(conv1).cta_columns(), 1);
    let one = s.run_sharded(conv1, 1);
    assert!(one.sampled);
    for n in [2, 4, 8] {
        assert_eq!(s.run_sharded(conv1, n), one, "conv1 n_workers={n}");
    }
}

#[test]
fn narrow_layers_are_identical_for_every_worker_count() {
    let s = sim();
    // The 1-column ResNet152 conv2 bottleneck 3x3 (64 -> 64 @ 56x56) at
    // batch 16: tall columns, many CTA batches.
    let conv2 = ConvLayer::builder("resnet152_conv2_3x3")
        .batch(16)
        .input(64, 56, 56)
        .output_channels(64)
        .filter(3, 3)
        .pad(1)
        .build()
        .unwrap();
    let one = s.run_sharded(&conv2, 1);
    for n in [2, 4, 8] {
        assert_eq!(s.run_sharded(&conv2, n), one, "conv2 n_workers={n}");
    }
    // Every zoo layer with fewer tile columns than workers at batch 8,
    // and a pinned batch-32 sample (AlexNet and ResNet152; the whole
    // zoo at batch 32 costs ~40 s here), each unique shape once, fanned
    // over the cores.
    let zoo = |batch| -> Vec<delta_networks::Network> {
        let mut nets = delta_networks::paper_networks(batch).expect("builtin networks");
        nets.push(delta_networks::gpt2s(batch).expect("builtin network"));
        nets
    };
    let sample = vec![
        delta_networks::alexnet(32).expect("builtin network"),
        delta_networks::resnet152(32).expect("builtin network"),
    ];
    let mut seen = HashSet::new();
    let mut narrow = Vec::new();
    for net in zoo(8).into_iter().chain(sample) {
        for l in net.layers() {
            if s.tiling(l).cta_columns() < 8 && seen.insert(LayerShape::of(l)) {
                let name = format!("{} {} batch {}", net.name(), l.label(), l.batch());
                narrow.push((name, l.clone()));
            }
        }
    }
    assert!(narrow.len() > 40, "{} narrow shapes", narrow.len());
    let identical: Vec<bool> = narrow
        .par_iter()
        .map(|(_, l)| s.run_sharded(l, 8) == s.run_sharded(l, 1))
        .collect();
    let mismatched: Vec<&String> = narrow
        .iter()
        .zip(identical)
        .filter(|(_, same)| !same)
        .map(|((name, _), _)| name)
        .collect();
    assert!(mismatched.is_empty(), "8 workers changed {mismatched:?}");
}

#[test]
fn wide_layer_identical_across_worker_counts_via_backend() {
    let s = sim();
    let l = wide_layer();
    let one = s.evaluate(&sharded(&l, 1)).unwrap();
    for n in [2, 4, 16, 32] {
        assert_eq!(s.evaluate(&sharded(&l, n)).unwrap(), one, "n_workers={n}");
    }
}

#[test]
fn engine_sharded_queries_match_backend_and_run_sharded() {
    let l = wide_layer();
    let engine = Engine::new(sim());
    let via_engine = engine.evaluate(&sharded(&l, 4)).unwrap();
    let direct = engine.backend().evaluate(&sharded(&l, 4)).unwrap();
    assert_eq!(via_engine, direct);
    // And the direct `Simulator::run_sharded` call agrees with the query.
    let explicit = sim().run_sharded(&l, 4);
    assert_eq!(explicit.cycles, direct.cycles);
    assert_eq!(explicit.l1_bytes, direct.l1_bytes);
    assert_eq!(explicit.dram_write_bytes, direct.dram_write_bytes);
}

#[test]
fn sharded_and_single_queries_cache_apart() {
    // The simulator's sharded replay isolates tile columns, so it is a
    // *different quantity* from the sequential replay of the same shape.
    // The query fingerprint keys them apart: both cache, neither ever
    // answers the other.
    let l = wide_layer();
    let engine = Engine::new(sim());

    let sequential = engine
        .evaluate(&EvalQuery::forward(&l, Parallelism::Single))
        .unwrap();
    assert_eq!(engine.cache_stats().misses, 1);

    let shd = engine.evaluate(&sharded(&l, 4)).unwrap();
    // Distinct quantities on this multi-column layer (the sharded replay
    // refetches the IFmap per column).
    assert!(
        shd.dram_read_bytes > sequential.dram_read_bytes,
        "sharded {} vs sequential {}",
        shd.dram_read_bytes,
        sequential.dram_read_bytes
    );
    // The sharded query ran the backend under its own key.
    assert_eq!(engine.cache_stats().misses, 2);
    assert_eq!(engine.cache_stats().hits, 0);

    // The single-device entry is untouched: the next single query is a
    // hit that still returns the sequential numbers.
    let again = engine
        .evaluate(&EvalQuery::forward(&l, Parallelism::Single))
        .unwrap();
    assert_eq!(again, sequential, "cache polluted by the sharded result");
    assert_eq!(engine.cache_stats().misses, 2);
    assert_eq!(engine.cache_stats().hits, 1);

    // And the sharded entry now hits too — equal queries always hit.
    assert_eq!(engine.evaluate(&sharded(&l, 4)).unwrap(), shd);
    assert_eq!(engine.cache_stats().misses, 2);
    assert_eq!(engine.cache_stats().hits, 2);
    // A different worker count is a different key (evaluated afresh,
    // identical value by the shard-identity contract).
    assert_eq!(engine.evaluate(&sharded(&l, 2)).unwrap(), shd);
    assert_eq!(engine.cache_stats().misses, 3);
}

#[test]
fn sharded_estimates_stay_in_band_of_sequential_sim() {
    // Sharding isolates tile columns (no cross-column L2 residency), a
    // deliberate semantic difference from the sequential replay that
    // matches the model's per-column refetch assumption (paper Eq. 10).
    // On a layer whose *simulated* working set overflows the L2, the
    // sequential replay already refetches per column, so sharding must
    // be a small effect. A 1x1 conv keeps K = 256 (all 32 main loops
    // simulated, nothing loop-extrapolated) while the 6.4 MB IFmap
    // streams through the 3 MB L2 every column.
    let l = ConvLayer::builder("pointwise_b32")
        .batch(32)
        .input(256, 14, 14)
        .output_channels(512)
        .filter(1, 1)
        .build()
        .unwrap();
    let s = sim();
    let seq = s
        .evaluate(&EvalQuery::forward(&l, Parallelism::Single))
        .unwrap();
    let shd = s.evaluate(&sharded(&l, 4)).unwrap();
    for (a, b, what) in [
        (shd.l1_bytes, seq.l1_bytes, "l1"),
        (shd.l2_bytes, seq.l2_bytes, "l2"),
        (shd.dram_read_bytes, seq.dram_read_bytes, "dram"),
        (shd.cycles, seq.cycles, "cycles"),
    ] {
        let err = (a - b).abs() / b;
        assert!(
            err < 0.25,
            "{what}: sharded {a} vs sequential {b} ({err:.3})"
        );
    }
}

#[test]
fn sharded_dram_excess_is_bounded_by_per_column_refetch() {
    // The capacity-anomaly regime: the wide layer's IFmap *fits* in L2,
    // so the sequential replay reads it from DRAM once while the sharded
    // replay refetches it per column. The excess is physically bounded
    // by (columns − 1) × IFmap bytes — never more.
    let l = wide_layer();
    let s = sim();
    let columns = s.tiling(&l).cta_columns();
    assert!(columns >= 4);
    let seq = s
        .evaluate(&EvalQuery::forward(&l, Parallelism::Single))
        .unwrap();
    let shd = s.evaluate(&sharded(&l, 4)).unwrap();
    assert!(
        shd.dram_read_bytes >= seq.dram_read_bytes * 0.99,
        "losing residency cannot reduce DRAM traffic: {} < {}",
        shd.dram_read_bytes,
        seq.dram_read_bytes
    );
    let refetch_cap = (columns - 1) as f64 * l.ifmap_bytes() as f64;
    assert!(
        shd.dram_read_bytes <= seq.dram_read_bytes + refetch_cap * 1.1,
        "excess beyond per-column IFmap refetch: sharded {} vs sequential {} + cap {}",
        shd.dram_read_bytes,
        seq.dram_read_bytes,
        refetch_cap
    );
    // L1 traffic (requests) is residency-independent: identical streams.
    assert!((shd.l1_bytes - seq.l1_bytes).abs() / seq.l1_bytes < 0.05);
}
