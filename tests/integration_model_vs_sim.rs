//! Cross-crate validation: the analytical model (delta-model) against the
//! trace-driven simulator (delta-sim) — the repository's equivalent of
//! the paper's model-vs-hardware validation (Figs. 11, 19, 20).

use delta_model::{ConvLayer, Delta, GpuSpec};
use delta_sim::{SimConfig, Simulator};

fn layer(ci: u32, hw: u32, co: u32, f: u32, s: u32, p: u32, b: u32) -> ConvLayer {
    ConvLayer::builder(format!("l{ci}_{hw}_{co}_{f}"))
        .batch(b)
        .input(ci, hw, hw)
        .output_channels(co)
        .filter(f, f)
        .stride(s)
        .pad(p)
        .build()
        .unwrap()
}

/// A representative mix: 3x3 mid-size, 1x1 pointwise, 5x5 wide-filter,
/// strided downsampler.
fn mix() -> Vec<ConvLayer> {
    vec![
        layer(64, 28, 128, 3, 1, 1, 8),
        layer(128, 14, 128, 1, 1, 0, 8),
        layer(32, 28, 64, 5, 1, 2, 8),
        layer(64, 56, 128, 1, 2, 0, 8),
    ]
}

#[test]
fn dram_model_tracks_simulator_within_2x() {
    // DRAM is the model's most accurate level in the paper (GMAE 2.8% on
    // Titan Xp); with small simulated batches we allow a 2x band.
    let gpu = GpuSpec::titan_xp();
    let delta = Delta::new(gpu.clone());
    let sim = Simulator::new(gpu, SimConfig::exhaustive());
    for l in mix() {
        let est = delta.estimate_traffic(&l).unwrap();
        let meas = sim.run(&l);
        let ratio = est.dram_bytes / meas.dram_read_bytes;
        assert!(
            (0.5..=2.5).contains(&ratio),
            "{}: model {:.3e} vs measured {:.3e} (ratio {ratio:.2})",
            l.label(),
            est.dram_bytes,
            meas.dram_read_bytes
        );
    }
}

#[test]
fn l1_model_tracks_simulator_on_ifmap_dominated_layers() {
    // The L1 model's known gap is the paper's filter-MLI constant
    // (2.0 vs the physical ~4.0, see `mli_filter_physical`); layers whose
    // traffic is IFmap-dominated sidestep it, so the band is tight.
    let gpu = GpuSpec::titan_xp();
    let delta = Delta::new(gpu.clone());
    let sim = Simulator::new(gpu, SimConfig::exhaustive());
    // Wide M, narrow N: IFmap side dominates.
    let l = layer(16, 56, 32, 3, 1, 1, 8);
    let est = delta.estimate_traffic(&l).unwrap();
    let meas = sim.run(&l);
    let ratio = est.l1_bytes / meas.l1_bytes;
    assert!(
        (0.6..=1.6).contains(&ratio),
        "ratio {ratio:.3} ({:.3e} vs {:.3e})",
        est.l1_bytes,
        meas.l1_bytes
    );
}

#[test]
fn l2_model_tracks_simulator_within_band() {
    let gpu = GpuSpec::titan_xp();
    let delta = Delta::new(gpu.clone());
    let sim = Simulator::new(gpu, SimConfig::exhaustive());
    for l in mix() {
        let est = delta.estimate_traffic(&l).unwrap();
        let meas = sim.run(&l);
        let ratio = est.l2_bytes / meas.l2_bytes;
        assert!(
            (0.3..=3.5).contains(&ratio),
            "{}: L2 ratio {ratio:.2}",
            l.label()
        );
    }
}

#[test]
fn model_and_sim_agree_on_relative_layer_cost() {
    // Even where absolute cycles drift, the model must order layers by
    // cost the same way the simulator does (what an architect actually
    // uses the model for).
    let gpu = GpuSpec::titan_xp();
    let delta = Delta::new(gpu.clone());
    let sim = Simulator::new(gpu, SimConfig::default());
    let heavy = layer(256, 28, 256, 3, 1, 1, 8);
    let light = layer(64, 14, 64, 1, 1, 0, 8);
    let m_heavy = delta.estimate_performance(&heavy).unwrap().cycles;
    let m_light = delta.estimate_performance(&light).unwrap().cycles;
    let s_heavy = sim.run(&heavy).cycles;
    let s_light = sim.run(&light).cycles;
    assert!(m_heavy > 10.0 * m_light);
    assert!(s_heavy > 10.0 * s_light);
}

#[test]
fn volta_l1_granularity_reduces_measured_l1_traffic() {
    // §VII-A: Volta's 32B requests waste fewer bytes on scattered
    // accesses. A strided layer shows the gap in both model and sim.
    let l = layer(32, 27, 64, 5, 2, 2, 4);
    let xp_sim = Simulator::new(GpuSpec::titan_xp(), SimConfig::exhaustive()).run(&l);
    let v_sim = Simulator::new(GpuSpec::v100(), SimConfig::exhaustive()).run(&l);
    assert!(
        v_sim.l1_bytes < xp_sim.l1_bytes,
        "volta {} vs pascal {}",
        v_sim.l1_bytes,
        xp_sim.l1_bytes
    );
    let xp_model = Delta::new(GpuSpec::titan_xp())
        .estimate_traffic(&l)
        .unwrap();
    let v_model = Delta::new(GpuSpec::v100()).estimate_traffic(&l).unwrap();
    assert!(v_model.mli_ifmap <= xp_model.mli_ifmap);
}

#[test]
fn measured_miss_rates_vary_like_fig4() {
    // The motivation figure: different layer shapes produce widely
    // different miss rates on the same hardware.
    let gpu = GpuSpec::titan_xp();
    let sim = Simulator::new(gpu, SimConfig::exhaustive());
    let rates: Vec<f64> = mix().iter().map(|l| sim.run(l).l1_miss_rate).collect();
    let min = rates.iter().cloned().fold(f64::MAX, f64::min);
    let max = rates.iter().cloned().fold(f64::MIN, f64::max);
    assert!(max - min > 0.1, "spread {min}..{max} too narrow");
}

#[test]
fn reduced_batch_preserves_normalized_ratio() {
    // The harness simulates at a reduced batch (`Ctx::sim_batch`, 16
    // against the paper's 256): the model/measured DRAM ratio at B=4
    // matches the ratio at B=12 within a modest band, so normalized
    // figures are batch-stable.
    let gpu = GpuSpec::titan_xp();
    let delta = Delta::new(gpu.clone());
    let sim = Simulator::new(gpu, SimConfig::exhaustive());
    let ratio_at = |b: u32| {
        let l = layer(64, 28, 128, 3, 1, 1, b);
        let est = delta.estimate_traffic(&l).unwrap();
        let meas = sim.run(&l);
        est.dram_bytes / meas.dram_read_bytes
    };
    let r4 = ratio_at(4);
    let r12 = ratio_at(12);
    assert!(
        (r4 / r12 - 1.0).abs() < 0.35,
        "batch instability: {r4:.3} vs {r12:.3}"
    );
}

/// Per-level GMAE of the analytical model (physical filter MLI) against
/// the simulator (default sampling), in `[L1, L2, DRAM read, time]`
/// order: forward pass, batch 8, `Parallelism::Single`, over the unique
/// layer shapes of `paper_networks` in first-seen order.
fn fidelity(gpu: GpuSpec) -> [f64; 4] {
    use delta_bench::stats::gmae;
    use delta_model::engine::Engine;
    use delta_model::model::MliMode;
    use delta_model::query::LayerShape;
    use delta_model::{DeltaOptions, LayerEstimate, Parallelism};
    use std::collections::HashSet;

    let mut seen = HashSet::new();
    let layers: Vec<ConvLayer> = delta_networks::paper_networks(8)
        .unwrap()
        .iter()
        .flat_map(|net| net.layers().to_vec())
        .filter(|l| seen.insert(LayerShape::of(l)))
        .collect();
    assert_eq!(layers.len(), 51, "the pinned layer set");
    let model = Delta::with_options(
        gpu.clone(),
        DeltaOptions {
            mli_mode: MliMode::Physical,
            ..Default::default()
        },
    );
    let sim = Simulator::new(gpu, SimConfig::default());
    let m = Engine::new(model)
        .evaluate_network(&layers, &Parallelism::Single)
        .unwrap()
        .into_estimates();
    let s = Engine::new(sim)
        .evaluate_network(&layers, &Parallelism::Single)
        .unwrap()
        .into_estimates();
    let level = |f: fn(&LayerEstimate) -> f64| {
        gmae(
            &m.iter()
                .zip(&s)
                .map(|(m, s)| f(m) / f(s))
                .collect::<Vec<_>>(),
        )
    };
    [
        level(|e| e.l1_bytes),
        level(|e| e.l2_bytes),
        level(|e| e.dram_read_bytes),
        level(|e| e.seconds),
    ]
}

/// Asserts each measured GMAE equals its pinned value to a relative
/// 1e-9. A pinned value moves only by a deliberate, documented edit.
fn assert_pinned(got: [f64; 4], pinned: [f64; 4]) {
    for (level, (g, p)) in ["L1", "L2", "DRAM", "time"]
        .iter()
        .zip(got.iter().zip(&pinned))
    {
        assert!(
            ((g - p) / p).abs() < 1e-9,
            "{level} GMAE moved: measured {g:?}, pinned {p:?} (all measured: {got:?})"
        );
    }
}

#[test]
fn fidelity_gate_titan_xp() {
    assert_pinned(
        fidelity(GpuSpec::titan_xp()),
        [
            0.1236374198599497,
            0.15762857527656693,
            0.2703230186821808,
            0.536896072395018,
        ],
    );
}

/// The V100 row of the fidelity gate; it runs in CI's `exactness` job
/// (`cargo test --release -p delta-bench --test integration_model_vs_sim
/// -- --ignored`).
#[test]
#[ignore = "V100 fidelity row: run with --ignored (CI exactness job)"]
fn fidelity_gate_v100() {
    assert_pinned(
        fidelity(GpuSpec::v100()),
        [
            0.3031932116293097,
            0.20534087459624506,
            0.3148669145149874,
            0.6281733350481793,
        ],
    );
}
