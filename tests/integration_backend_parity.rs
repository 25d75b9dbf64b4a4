//! Backend-parity validation: the analytical model and the trace-driven
//! simulator, driven through the *same* `Backend` trait, must agree
//! within the paper's reported error character on every AlexNet layer —
//! the repository's equivalent of the paper's §VII-A per-network
//! validation, now expressed against the unified interface.
//!
//! Band rationale (Titan Xp, §VII-A/§VII-B):
//! * **L1** — the paper reports 13.5% GMAE using its profiled filter-MLI
//!   constants; a transaction-counting observer (this repo's simulator,
//!   like nvprof) needs `MliMode::Physical` for an apples-to-apples
//!   count, after which per-layer ratios sit near unity (±45% band).
//! * **L2** — paper GMAE 17.8%; per-layer band ±70%.
//! * **DRAM** — paper GMAE 2.8% *excluding capacity anomalies*; at the
//!   reduced test batch the anomaly analog (whole IFmap resident in L2)
//!   inflates individual layers, so the per-layer band is 2x and the
//!   aggregate GMAE must stay under 50%.
//! * **cycles** — the paper's exec-time validation (Fig. 13) shows
//!   per-layer deviations to ~35%; our loop-accurate timing runs within
//!   a 2x per-layer band (conv5's short loops are the worst case).

use delta_model::model::MliMode;
use delta_model::query::{EvalQuery, Parallelism};
use delta_model::{Backend, Delta, DeltaOptions, Engine, GpuSpec, LayerEstimate};
use delta_sim::{SimConfig, Simulator};

const BATCH: u32 = 8;

fn gmae(ratios: &[f64]) -> f64 {
    let mean_abs_log: f64 = ratios.iter().map(|r| r.ln().abs()).sum::<f64>() / ratios.len() as f64;
    mean_abs_log.exp() - 1.0
}

/// Evaluates every AlexNet layer through a `&dyn Backend` — the point of
/// the trait is that this function cannot know which estimator it holds.
fn alexnet_estimates(backend: &dyn Backend) -> Vec<(String, LayerEstimate)> {
    let net = delta_networks::alexnet(BATCH).unwrap();
    net.layers()
        .iter()
        .map(|l| {
            (
                l.label().to_string(),
                backend
                    .evaluate(&EvalQuery::forward(l, Parallelism::Single))
                    .expect("estimable layer"),
            )
        })
        .collect()
}

#[test]
fn model_and_sim_agree_within_paper_error_bands_on_alexnet() {
    let gpu = GpuSpec::titan_xp();
    // Physical filter-MLI so the model counts the same L1 transactions a
    // transaction-counting measurement does.
    let model = Delta::with_options(
        gpu.clone(),
        DeltaOptions {
            mli_mode: MliMode::Physical,
            ..Default::default()
        },
    );
    let sim = Simulator::new(gpu, SimConfig::exhaustive());

    let model_rows = alexnet_estimates(&model);
    let sim_rows = alexnet_estimates(&sim);
    assert_eq!(model_rows.len(), 5, "AlexNet has 5 unique conv layers");

    let mut dram_ratios = Vec::new();
    for ((label, m), (_, s)) in model_rows.iter().zip(&sim_rows) {
        let l1 = m.l1_bytes / s.l1_bytes;
        let l2 = m.l2_bytes / s.l2_bytes;
        let dram = m.dram_read_bytes / s.dram_read_bytes;
        let cyc = m.cycles / s.cycles;
        assert!((0.55..=1.45).contains(&l1), "{label}: L1 ratio {l1:.3}");
        assert!((0.3..=1.7).contains(&l2), "{label}: L2 ratio {l2:.3}");
        assert!((0.5..=2.0).contains(&dram), "{label}: DRAM ratio {dram:.3}");
        assert!((0.3..=2.0).contains(&cyc), "{label}: cycle ratio {cyc:.3}");
        dram_ratios.push(dram);
    }
    assert!(
        gmae(&dram_ratios) < 0.5,
        "DRAM GMAE {:.3} exceeds band",
        gmae(&dram_ratios)
    );
}

#[test]
fn engine_results_equal_direct_backend_calls_for_both_backends() {
    // The engine (parallel, cached) is a pure driver: fanning a backend
    // across cores must not change a single bit of any estimate.
    let gpu = GpuSpec::titan_xp();
    let net = delta_networks::alexnet(BATCH).unwrap();

    let model = Delta::new(gpu.clone());
    let engine_rows = Engine::new(model.clone())
        .evaluate_network(net.layers(), &Parallelism::Single)
        .unwrap();
    for (row, layer) in engine_rows.rows.iter().zip(net.layers()) {
        assert_eq!(
            row.estimate,
            model
                .evaluate(&EvalQuery::forward(layer, Parallelism::Single))
                .unwrap(),
            "{}",
            layer.label()
        );
    }

    let sim = Simulator::new(gpu, SimConfig::default());
    let engine_rows = Engine::new(sim.clone())
        .evaluate_network(net.layers(), &Parallelism::Single)
        .unwrap();
    for (row, layer) in engine_rows.rows.iter().zip(net.layers()) {
        assert_eq!(
            row.estimate,
            sim.evaluate(&EvalQuery::forward(layer, Parallelism::Single))
                .unwrap(),
            "{}",
            layer.label()
        );
    }
}

#[test]
fn backends_report_their_identity_through_the_trait() {
    let gpu = GpuSpec::titan_xp();
    let backends: Vec<Box<dyn Backend>> = vec![
        Box::new(Delta::new(gpu.clone())),
        Box::new(Simulator::new(gpu, SimConfig::default())),
    ];
    let names: Vec<&str> = backends.iter().map(|b| b.name()).collect();
    assert_eq!(names, ["model", "sim"]);
    for b in &backends {
        assert_eq!(b.gpu().name(), "TITAN Xp");
    }
}

#[test]
fn both_backends_order_layers_identically_by_cost() {
    // What an architect uses the model for: even where absolute numbers
    // drift, the two estimators must rank AlexNet's layers the same way.
    let gpu = GpuSpec::titan_xp();
    let model_rows = alexnet_estimates(&Delta::new(gpu.clone()));
    let sim_rows = alexnet_estimates(&Simulator::new(gpu, SimConfig::default()));
    let rank = |rows: &[(String, LayerEstimate)]| -> Vec<String> {
        let mut v: Vec<(String, f64)> = rows.iter().map(|(l, e)| (l.clone(), e.cycles)).collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v.into_iter().map(|(l, _)| l).collect()
    };
    let (m, s) = (rank(&model_rows), rank(&sim_rows));
    // The lightest layer must match exactly; the heaviest may swap with
    // a near-tie, so each ranking's top layer must sit in the other's
    // top two.
    assert_eq!(
        m.last(),
        s.last(),
        "lightest layer disagrees: {m:?} vs {s:?}"
    );
    assert!(
        s[..2].contains(&m[0]) && m[..2].contains(&s[0]),
        "heaviest layers diverge beyond a near-tie: {m:?} vs {s:?}"
    );
}

#[test]
fn engine_and_backend_steps_agree_bitwise_under_every_parallelism() {
    // Each step answer is assembled in two places: the engine (per-pass
    // queries through its cache under `Single`/`Sharded`, the backend's
    // own step plus a cache fold under `Multi`) and the backend's
    // `evaluate_step` (the simulator's one-replay-per-shape assembler,
    // the model's default serial one). Every pair must agree bitwise.
    use delta_model::{InterconnectKind, StepQuery};
    use delta_sim::TopologyKind;

    let gpu = GpuSpec::titan_xp();
    let net = delta_networks::alexnet(2).unwrap();
    let sim = Simulator::new(gpu.clone(), SimConfig::default());
    let delta = Delta::new(gpu.clone());
    for parallelism in [
        Parallelism::Single,
        Parallelism::Sharded { workers: 2 },
        Parallelism::Multi {
            devices: vec![gpu.clone(); 2],
            interconnect: InterconnectKind::NvLink,
            topology: Some(TopologyKind::Ring),
        },
    ] {
        let query = StepQuery::new(net.layers(), parallelism.clone());
        assert_eq!(
            Engine::new(sim.clone()).evaluate_step(&query).unwrap(),
            sim.evaluate_step(&query).unwrap(),
            "sim, {parallelism:?}"
        );
        assert_eq!(
            Engine::new(delta.clone()).evaluate_step(&query).unwrap(),
            Backend::evaluate_step(&delta, &query).unwrap(),
            "model, {parallelism:?}"
        );
    }
}
