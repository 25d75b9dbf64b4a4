//! Property-based tests (proptest) over randomly drawn convolution
//! configurations: model invariants that must hold for *every* valid
//! layer, and simulator conservation laws on small instances.

use delta_model::tiling::LayerTiling;
use delta_model::traffic::{self, l1::MliMode};
use delta_model::{ConvLayer, Delta, GpuSpec};
use delta_sim::sched::ColumnScheduler;
use delta_sim::{ShardPlan, SimConfig, Simulator};
use proptest::prelude::*;

/// A random but valid conv layer within model-scale bounds.
fn arb_layer() -> impl Strategy<Value = ConvLayer> {
    (
        1u32..=8,   // batch
        1u32..=256, // ci
        3u32..=64,  // hw
        1u32..=256, // co
        prop_oneof![Just(1u32), Just(3), Just(5), Just(7), Just(11)],
        1u32..=4, // stride
        0u32..=3, // pad
    )
        .prop_filter_map(
            "filter must fit padded input",
            |(b, ci, hw, co, f, s, p)| {
                ConvLayer::builder("prop")
                    .batch(b)
                    .input(ci, hw, hw)
                    .output_channels(co)
                    .filter(f, f)
                    .stride(s)
                    .pad(p)
                    .build()
                    .ok()
            },
        )
}

/// A *small* random layer the full trace simulation can afford.
fn arb_small_layer() -> impl Strategy<Value = ConvLayer> {
    (
        1u32..=2,
        1u32..=16,
        4u32..=16,
        1u32..=48,
        prop_oneof![Just(1u32), Just(3), Just(5)],
        1u32..=2,
        0u32..=2,
    )
        .prop_filter_map(
            "filter must fit padded input",
            |(b, ci, hw, co, f, s, p)| {
                ConvLayer::builder("prop-small")
                    .batch(b)
                    .input(ci, hw, hw)
                    .output_channels(co)
                    .filter(f, f)
                    .stride(s)
                    .pad(p)
                    .build()
                    .ok()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mli_is_at_least_one(layer in arb_layer()) {
        for req in [32u32, 128] {
            prop_assert!(traffic::l1::mli_ifmap(&layer, req) >= 1.0);
        }
    }

    #[test]
    fn traffic_estimates_are_positive_and_finite(layer in arb_layer()) {
        let gpu = GpuSpec::titan_xp();
        let t = traffic::estimate(&layer, &LayerTiling::new(&layer), &gpu, MliMode::PaperProfiled);
        for v in [t.l1_bytes, t.l2_bytes, t.dram_bytes] {
            prop_assert!(v.is_finite() && v > 0.0, "{t:?}");
        }
        // The model's implied miss rates are probabilities.
        prop_assert!(t.l1_miss_rate() <= 1.0 + 1e-9);
        prop_assert!(t.l2_miss_rate() <= 1.0 + 1e-9);
    }

    #[test]
    fn model_l1_at_least_l2(layer in arb_layer()) {
        // Distance-based L2 estimation can marginally exceed the
        // request-based L1 volume on degenerate sub-tile layers (the
        // Eq. 8 sample-boundary correction over-counts); allow 20%.
        let gpu = GpuSpec::titan_xp();
        let t = traffic::estimate(&layer, &LayerTiling::new(&layer), &gpu, MliMode::PaperProfiled);
        prop_assert!(t.l1_bytes >= t.l2_bytes * 0.8,
            "L1 {} < L2 {} for {layer}", t.l1_bytes, t.l2_bytes);
    }

    #[test]
    fn perf_estimate_is_positive_and_bottleneck_consistent(layer in arb_layer()) {
        let delta = Delta::new(GpuSpec::titan_xp());
        let p = delta.estimate_performance(&layer).unwrap();
        prop_assert!(p.cycles > 0.0 && p.cycles.is_finite());
        prop_assert!(p.seconds > 0.0);
        let max = p.t_mac_sm.max(p.t_lat_sm).max(p.t_bw_sm);
        prop_assert!((p.cycles - max).abs() < 1e-6 * max);
    }

    #[test]
    fn doubling_batch_scales_compute_linearly(layer in arb_layer()) {
        prop_assume!(layer.batch() <= 4);
        let doubled = layer.with_batch(layer.batch() * 2).unwrap();
        prop_assert_eq!(doubled.macs(), 2 * layer.macs());
        // GEMM K and N are batch-invariant.
        prop_assert_eq!(doubled.gemm_k(), layer.gemm_k());
        prop_assert_eq!(doubled.gemm_n(), layer.gemm_n());
    }

    #[test]
    fn tile_selection_is_total_and_covers_gemm(layer in arb_layer()) {
        let t = LayerTiling::new(&layer);
        prop_assert!(t.num_ctas() >= 1);
        prop_assert!(t.main_loops() >= 1);
        prop_assert!(t.num_ctas() * u64::from(t.tile().blk_m()) * u64::from(t.tile().blk_n())
            >= layer.gemm_m() * layer.gemm_n());
        prop_assert!(t.main_loops() * u64::from(t.tile().blk_k()) >= layer.gemm_k());
    }

    #[test]
    fn faster_gpu_never_predicts_slower(layer in arb_layer()) {
        let base = GpuSpec::titan_xp();
        let boosted = base
            .to_builder()
            .mac_gflops(base.mac_gflops() * 2.0)
            .l2_bw_gbps(base.l2_bw_gbps() * 2.0)
            .dram_bw_gbps(base.dram_bw_gbps() * 2.0)
            .l1_bw_gbps_per_sm(base.l1_bw_gbps_per_sm() * 2.0)
            .smem_ld_bytes_per_clk(base.smem_ld_bytes_per_clk() * 2.0)
            .smem_st_bytes_per_clk(base.smem_st_bytes_per_clk() * 2.0)
            .build()
            .unwrap();
        let t_base = Delta::new(base).estimate_performance(&layer).unwrap().cycles;
        let t_fast = Delta::new(boosted).estimate_performance(&layer).unwrap().cycles;
        prop_assert!(t_fast <= t_base * 1.0001, "{t_fast} > {t_base}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn simulator_conservation_laws(layer in arb_small_layer()) {
        let sim = Simulator::new(GpuSpec::titan_xp(), SimConfig::exhaustive());
        let m = sim.run(&layer);
        // Funnel invariant.
        prop_assert!(m.l1_bytes >= m.l2_bytes);
        prop_assert!(m.l2_bytes >= m.dram_read_bytes);
        // Compulsory floor: every distinct useful byte must come from
        // DRAM at least once (sector granularity can only add).
        let touched = delta_sim::tensor::TensorMap::new(&layer);
        prop_assert!(m.dram_read_bytes as u64 + 4096 >= layer.filter_bytes(),
            "filter bytes unread: {} < {} ({})", m.dram_read_bytes, layer.filter_bytes(), touched.end());
        // Determinism.
        let again = sim.run(&layer);
        prop_assert_eq!(m, again);
    }

    #[test]
    fn simulator_miss_rates_are_probabilities(layer in arb_small_layer()) {
        let m = Simulator::new(GpuSpec::v100(), SimConfig::default()).run(&layer);
        prop_assert!((0.0..=1.0).contains(&m.l1_miss_rate));
        prop_assert!((0.0..=1.0).contains(&m.l2_miss_rate));
        prop_assert!(m.cycles.is_finite() && m.cycles > 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The gradient bucketizer is an ordered, disjoint, exhaustive
    /// partition of the per-layer |∇W| byte list — for arbitrary layer
    /// mixes (three random conv shapes, each repeated 0..=5 times) and
    /// bucket sizes from 0 (one bucket per gradient) through 1 TiB
    /// (larger than any model, collapsing to a single bucket).
    #[test]
    fn bucketizer_partitions_wgrad_bytes_exactly(
        (a, b, c, na, nb, nc, bucket_pow) in
            (arb_layer(), arb_layer(), arb_layer(),
             0u32..=5, 0u32..=5, 0u32..=5, 0u32..=40)
    ) {
        // The gradient list a data-parallel step would all-reduce, in
        // backward (ready) order: each layer contributes its filter
        // footprint.
        let mut grads: Vec<u64> = Vec::new();
        for (layer, n) in [(&a, na), (&b, nb), (&c, nc)] {
            grads.extend(std::iter::repeat_n(layer.filter_bytes(), n as usize));
        }
        let bucket_bytes = match bucket_pow {
            0 => 0,
            p => 1u64 << p, // 2 B ..= 1 TiB
        };
        let buckets = delta_model::schedule::bucketize(&grads, bucket_bytes);
        // Ordered + disjoint + exhaustive: concatenating the buckets'
        // items re-yields 0..len exactly.
        let flat: Vec<usize> = buckets.iter().flat_map(|bk| bk.items.iter().copied()).collect();
        prop_assert_eq!(flat, (0..grads.len()).collect::<Vec<_>>());
        // Byte conservation, per bucket and in total; no empty buckets.
        for bk in &buckets {
            prop_assert!(!bk.items.is_empty());
            let sum: u64 = bk.items.iter().map(|&i| grads[i]).sum();
            prop_assert_eq!(bk.bytes, sum);
        }
        let total: u64 = buckets.iter().map(|bk| bk.bytes).sum();
        prop_assert_eq!(total, grads.iter().sum::<u64>());
        // Greedy closure: every bucket but the last reaches the
        // threshold (the tail may stay short).
        for bk in buckets.iter().rev().skip(1) {
            prop_assert!(bk.bytes >= bucket_bytes);
        }
        // A bucket larger than the whole model yields a single bucket.
        if !grads.is_empty() && bucket_bytes > total {
            prop_assert_eq!(buckets.len(), 1);
        }
    }

    /// Shard partitions are a disjoint, exhaustive cover of the
    /// scheduler's batch list: replaying every batch of every
    /// shard-owned column visits exactly the CTA list the unsharded
    /// schedule visits, in the same order — for arbitrary CTA grids,
    /// occupancies, and worker counts, including `n_workers` far above
    /// the number of columns (surplus shards are empty, never wrong, and
    /// exactly `min(workers, columns)` workers are busy).
    #[test]
    fn shard_plan_covers_the_batch_list_exactly_once(
        (rows, co, active, workers) in (1u32..=64, 1u32..=512, 1u32..=3, 1u32..=40)
    ) {
        // A 1x1 conv over 8x16 features makes the CTA grid exactly
        // `rows` tall (M = rows x 128) and `ceil(co/blkN)` wide.
        let layer = ConvLayer::builder("shard-prop")
            .batch(rows)
            .input(8, 8, 16)
            .output_channels(co)
            .filter(1, 1)
            .build()
            .unwrap();
        let tiling = LayerTiling::new(&layer);
        let sched = ColumnScheduler::new(&tiling, &GpuSpec::titan_xp(), active);
        let plan = ShardPlan::partition(sched.columns(), workers);
        prop_assert_eq!(plan.n_workers(), workers as usize);

        let enumerate = |cols: &mut dyn Iterator<Item = u64>| -> Vec<(u64, u64, u32)> {
            let mut out = Vec::new();
            for col in cols {
                for b in 0..sched.batches_per_column() {
                    for cta in sched.batch(col, b) {
                        out.push((cta.col, cta.row, cta.sm));
                    }
                }
            }
            out
        };
        let sharded = enumerate(&mut plan.shards().iter().flat_map(|r| r.clone()));
        let unsharded = enumerate(&mut (0..sched.columns()));
        prop_assert_eq!(sharded.len() as u64, sched.total_ctas());
        prop_assert_eq!(sharded, unsharded);
        // Every column has exactly one owning shard.
        for col in 0..sched.columns() {
            let owner = plan.shard_of(col);
            prop_assert!(plan.shards()[owner].contains(&col));
        }
        // Busy workers saturate at the column count.
        let busy = plan.shards().iter().filter(|r| !r.is_empty()).count() as u64;
        prop_assert_eq!(busy, u64::from(workers).min(sched.columns()));
    }

    /// The column partition covers the unit grid (tile columns x CTA
    /// batch rows) exactly once, in column-major order, for every worker
    /// count including workers far above the column count: a shard owns
    /// whole columns with all their rows, and busy workers saturate at
    /// the column count.
    #[test]
    fn row_plan_covers_the_unit_grid_exactly_once(
        (columns, batches, workers) in (1u64..=24, 1u64..=24, 1u32..=64)
    ) {
        let plan = ShardPlan::partition(columns, workers);
        let mut units = Vec::new();
        for shard in plan.shards() {
            for col in shard.clone() {
                prop_assert!(col < columns);
                for b in 0..batches {
                    units.push(col * batches + b);
                }
            }
        }
        let expected: Vec<u64> = (0..columns * batches).collect();
        prop_assert_eq!(units, expected);
        let busy = plan.shards().iter().filter(|r| !r.is_empty()).count() as u64;
        prop_assert_eq!(busy, u64::from(workers).min(columns));
    }
}

// ---------------------------------------------------------------------
// Query-fingerprint invariants (the evaluation API's cache contract)
// ---------------------------------------------------------------------

/// A random layer across every [`delta_model::LayerKind`]: the conv
/// layers above, plus GEMM and attention workloads whose fingerprints
/// must separate from conv layers with identical embedded dimensions.
fn arb_kinded_layer() -> impl Strategy<Value = ConvLayer> {
    prop_oneof![
        arb_layer(),
        (1u32..=4096, 1u32..=4096, 1u32..=4096).prop_map(|(m, n, k)| {
            ConvLayer::gemm("prop-gemm", m, n, k).expect("positive dims build")
        }),
        (1u32..=8, 1u32..=256, 1u32..=16, 1u32..=128).prop_map(|(b, seq, heads, dh)| {
            ConvLayer::attention("prop-attn", b, seq, heads, dh).expect("small dims build")
        }),
    ]
}

/// A random execution configuration spanning every query axis: pass,
/// shard workers, device count, device spec, interconnect, topology.
fn arb_parallelism() -> impl Strategy<Value = delta_model::Parallelism> {
    use delta_model::{GpuSpec, InterconnectKind, Parallelism, TopologyKind};
    let gpu = prop_oneof![
        Just(GpuSpec::titan_xp()),
        Just(GpuSpec::p100()),
        Just(GpuSpec::v100()),
        Just(GpuSpec::v100_tensor()),
        Just(GpuSpec::a100()),
    ];
    let interconnect = prop_oneof![
        Just(InterconnectKind::Ideal),
        Just(InterconnectKind::NvLink),
        Just(InterconnectKind::Pcie),
    ];
    let topology = prop_oneof![
        Just(None),
        Just(Some(TopologyKind::Ring)),
        Just(Some(TopologyKind::Switch)),
        Just(Some(TopologyKind::Mesh)),
        Just(Some(TopologyKind::Hierarchical)),
    ];
    prop_oneof![
        Just(Parallelism::Single),
        (1u32..=64).prop_map(|workers| Parallelism::Sharded { workers }),
        (1u32..=8, gpu, interconnect, topology).prop_map(|(g, gpu, ic, topo)| {
            Parallelism::Multi {
                devices: vec![gpu; g as usize],
                interconnect: ic,
                topology: topo,
            }
        }),
    ]
}

fn arb_pass() -> impl Strategy<Value = delta_model::Pass> {
    use delta_model::Pass;
    prop_oneof![Just(Pass::Fwd), Just(Pass::Dgrad), Just(Pass::Wgrad)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn query_fingerprints_are_injective_and_equal_queries_hit_the_cache(
        (layer_a, layer_b, pass_a, pass_b, par_a, par_b) in (
            arb_kinded_layer(), arb_kinded_layer(), arb_pass(), arb_pass(),
            arb_parallelism(), arb_parallelism(),
        )
    ) {
        use delta_model::{Engine, EvalQuery};
        let a = EvalQuery::new(&layer_a, pass_a, par_a);
        let b = EvalQuery::new(&layer_b, pass_b, par_b);
        // Injective: fingerprints collide iff the queries are equal —
        // across shape, pass, worker count, device list (count AND
        // spec), interconnect, and topology.
        prop_assert_eq!(a == b, a.fingerprint() == b.fingerprint());
        // The fingerprint is a pure function of the query.
        prop_assert_eq!(a.fingerprint(), a.clone().fingerprint());

        // Equal queries always hit: evaluating the same query twice runs
        // the backend once (the model backend answers any parallelism).
        // Queries whose pass workload cannot be constructed (dgrad of a
        // pad >= filter layer) error both times and are never cached.
        let engine = Engine::new(Delta::new(GpuSpec::titan_xp()));
        match engine.evaluate(&a) {
            Ok(first) => {
                let second = engine.evaluate(&a.clone()).unwrap();
                prop_assert_eq!(first, second);
                prop_assert_eq!(engine.cache_stats().misses, 1);
                prop_assert_eq!(engine.cache_stats().hits, 1);
            }
            Err(_) => {
                prop_assert!(engine.evaluate(&a.clone()).is_err());
                prop_assert_eq!(engine.cache_stats().hits, 0);
            }
        }
    }

    #[test]
    fn layer_kind_separates_fingerprints_of_equal_embeddings(
        (m, n, k, pass, par) in (
            1u32..=1024, 1u32..=1024, 1u32..=1024, arb_pass(), arb_parallelism(),
        )
    ) {
        use delta_model::EvalQuery;
        // A GEMM and the FC conv embedding it lowers to share every
        // geometric field; only `kind` separates them — so the cache
        // can never serve a tensor-core result for an FFMA query.
        let gemm = ConvLayer::gemm("prop", m, n, k).unwrap();
        let fc = ConvLayer::fully_connected("prop", m, k, n).unwrap();
        prop_assert_eq!(gemm.macs(), fc.macs());
        let a = EvalQuery::new(&gemm, pass, par.clone());
        let b = EvalQuery::new(&fc, pass, par);
        prop_assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn step_fingerprints_separate_schedule_knobs(
        (layer, par, bucket_a, bucket_b, overlap_a, overlap_b) in (
            arb_layer(), arb_parallelism(), 1u32..=1024, 1u32..=1024,
            prop_oneof![Just(false), Just(true)],
            prop_oneof![Just(false), Just(true)],
        )
    ) {
        use delta_model::StepQuery;
        let net = [layer.clone(), layer];
        let mk = |bucket_mb: u32, overlap: bool| StepQuery {
            layers: net.to_vec(),
            parallelism: par.clone(),
            bucket_mb,
            overlap,
        };
        let a = mk(bucket_a, overlap_a);
        let b = mk(bucket_b, overlap_b);
        let equal = bucket_a == bucket_b && overlap_a == overlap_b;
        prop_assert_eq!(equal, a.fingerprint() == b.fingerprint());
    }
}
