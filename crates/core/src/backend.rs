//! The [`Backend`] abstraction: one query-answering interface over the
//! repository's two estimators of the same physical quantities.
//!
//! DeLTA is two things at once — a closed-form analytical model
//! ([`Delta`], §IV–§V of the paper) and, in this reproduction, a
//! trace-driven simulator (`delta_sim::Simulator`) that measures the same
//! traffic and time at the address level. Earlier revisions grew one
//! trait method per execution-configuration axis (`estimate_layer`,
//! `estimate_layer_sharded`, `estimate_layer_multi`, `estimate_wgrad`,
//! `estimate_wgrad_multi`, `estimate_training_step_scheduled`); the
//! method family is now gone. A backend answers exactly two requests:
//!
//! * [`Backend::evaluate`] — one layer-pass [`EvalQuery`] (shape + pass
//!   + [`Parallelism`](crate::query::Parallelism)) → [`LayerEstimate`];
//! * [`Backend::evaluate_step`] — one training-step [`StepQuery`]
//!   (layer list + schedule knobs) → [`StepEvaluation`], bundling the
//!   per-layer table *and* the scheduled timeline derived from one
//!   evaluation pass.
//!
//! Every consumer ([`crate::engine`], the CLI, the experiments) builds
//! queries instead of picking methods, so new configuration axes extend
//! the query vocabulary without touching this trait.

use crate::error::Error;
use crate::gpu::GpuSpec;
use crate::model::Delta;
use crate::perf::Bottleneck;
use crate::query::{EvalQuery, Pass, StepEvaluation, StepQuery};
use crate::report::LayerReport;
use crate::training;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which kind of estimator produced a [`LayerEstimate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EstimateSource {
    /// The closed-form analytical model (instant, §IV–§V equations).
    Model,
    /// The trace-driven simulator (address-level measurement).
    Simulation,
}

impl fmt::Display for EstimateSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EstimateSource::Model => "model",
            EstimateSource::Simulation => "sim",
        })
    }
}

/// One layer's estimated traffic and execution time, in the units the
/// paper's figures use — the common denominator of the analytical
/// model's (`TrafficEstimate` + `PerfEstimate`) and the simulator's
/// `Measurement`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerEstimate {
    /// L1 traffic in bytes (requests × request size).
    pub l1_bytes: f64,
    /// L2 traffic in bytes (L1 misses × sector size).
    pub l2_bytes: f64,
    /// DRAM read traffic in bytes (L2 misses × sector size).
    pub dram_read_bytes: f64,
    /// DRAM write traffic in bytes (OFmap stores).
    pub dram_write_bytes: f64,
    /// L1 sector miss rate in `[0, 1]`.
    pub l1_miss_rate: f64,
    /// L2 sector miss rate in `[0, 1]`.
    pub l2_miss_rate: f64,
    /// Execution time in core clocks (busiest SM).
    pub cycles: f64,
    /// Execution time in seconds at the device clock.
    pub seconds: f64,
    /// Cross-device interconnect traffic in bytes — halo IFmap refetches
    /// and gradient all-reduce volume charged by a multi-GPU estimate.
    /// Zero for single-device estimates and for the zero-cost `ideal`
    /// interconnect.
    #[serde(default = "default_link_bytes")]
    pub link_bytes: f64,
    /// The limiting resource — `None` for backends (like the simulator)
    /// that measure time without attributing it to one resource.
    pub bottleneck: Option<Bottleneck>,
    /// Which estimator produced this estimate.
    pub source: EstimateSource,
}

fn default_link_bytes() -> f64 {
    0.0
}

impl LayerEstimate {
    /// Execution time in milliseconds.
    pub fn millis(&self) -> f64 {
        self.seconds * 1e3
    }

    /// Total DRAM traffic, reads plus writes.
    pub fn dram_total_bytes(&self) -> f64 {
        self.dram_read_bytes + self.dram_write_bytes
    }

    /// Total off-chip traffic: DRAM reads + writes + cross-device
    /// interconnect bytes. The quantity a multi-GPU configuration can
    /// only increase — the interconnect model adds link traffic and never
    /// removes DRAM traffic.
    pub fn dram_and_link_bytes(&self) -> f64 {
        self.dram_total_bytes() + self.link_bytes
    }

    /// Builds the estimate equivalent of a model [`LayerReport`].
    pub fn from_report(report: &LayerReport) -> LayerEstimate {
        LayerEstimate {
            l1_bytes: report.traffic.l1_bytes,
            l2_bytes: report.traffic.l2_bytes,
            dram_read_bytes: report.traffic.dram_bytes,
            // The model does not carry a store model; the compulsory
            // write-once OFmap volume is its analog of the simulator's
            // streamed epilogue stores.
            dram_write_bytes: report.layer.ofmap_bytes() as f64,
            l1_miss_rate: report.traffic.l1_miss_rate(),
            l2_miss_rate: report.traffic.l2_miss_rate(),
            cycles: report.perf.cycles,
            seconds: report.perf.seconds,
            link_bytes: 0.0,
            bottleneck: Some(report.perf.bottleneck),
            source: EstimateSource::Model,
        }
    }
}

impl fmt::Display for LayerEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] L1 {:.3} GB, L2 {:.3} GB, DRAM {:.3}+{:.3} GB, {:.3} ms",
            self.source,
            self.l1_bytes / 1e9,
            self.l2_bytes / 1e9,
            self.dram_read_bytes / 1e9,
            self.dram_write_bytes / 1e9,
            self.millis()
        )?;
        if self.link_bytes > 0.0 {
            write!(f, ", link {:.3} GB", self.link_bytes / 1e9)?;
        }
        if let Some(b) = self.bottleneck {
            write!(f, " ({b})")?;
        }
        Ok(())
    }
}

/// The identity triple a [`Backend`]'s answers depend on: backend name,
/// GPU name, and the opaque [`Backend::config_fingerprint`]. Two
/// backends with equal fingerprints answer every query identically, so
/// the triple is the compatibility check shared by the persistent
/// cache header guard ([`crate::engine::Engine::load_cache`]), the
/// fleet coordinator/executor handshake, and `delta serve`'s
/// `GET /healthz` probe.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackendFingerprint {
    /// [`Backend::name`] — `"model"`, `"sim"`.
    pub backend: String,
    /// [`crate::gpu::GpuSpec::name`] of the device evaluated on.
    pub gpu: String,
    /// [`Backend::config_fingerprint`] — every knob beyond the name,
    /// the GPU, and the axes a query itself carries.
    pub config: String,
}

/// How two [`BackendFingerprint`]s disagree, ordered by severity:
/// identity (wrong backend or device) before configuration (same
/// estimator, different knobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FingerprintMismatch {
    /// Backend name or GPU name differ — results measure a different
    /// estimator or device entirely.
    Identity,
    /// Same backend and GPU, but the configuration fingerprint (e.g.
    /// sampling limits) differs.
    Config,
}

impl BackendFingerprint {
    /// Captures the fingerprint of a live backend.
    pub fn of<B: Backend + ?Sized>(backend: &B) -> BackendFingerprint {
        BackendFingerprint {
            backend: backend.name().to_string(),
            gpu: backend.gpu().name().to_string(),
            config: backend.config_fingerprint(),
        }
    }

    /// Compares against another fingerprint: `None` when compatible
    /// (results interchange bitwise), otherwise the most severe
    /// disagreement.
    pub fn mismatch(&self, other: &BackendFingerprint) -> Option<FingerprintMismatch> {
        if self.backend != other.backend || self.gpu != other.gpu {
            Some(FingerprintMismatch::Identity)
        } else if self.config != other.config {
            Some(FingerprintMismatch::Config)
        } else {
            None
        }
    }
}

impl fmt::Display for BackendFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "backend `{}` on `{}` (config `{}`)",
            self.backend, self.gpu, self.config
        )
    }
}

/// A query-answering estimator bound to one GPU description: the common
/// interface of the analytical model and the trace-driven simulator.
///
/// `Send + Sync` is a supertrait so any backend can be fanned across
/// threads by [`crate::engine::Engine`]; implementations keep all
/// per-evaluation state on the stack of `evaluate`.
pub trait Backend: Send + Sync {
    /// Short stable identifier (`"model"`, `"sim"`) used in CLI flags and
    /// report headers.
    fn name(&self) -> &'static str;

    /// The device this backend evaluates on.
    fn gpu(&self) -> &GpuSpec;

    /// An opaque fingerprint of every configuration knob (beyond the
    /// backend name, the GPU, and the axes a query itself carries) that
    /// changes this backend's answers — e.g. the simulator's sampling
    /// limits. The engine's persistent cache
    /// ([`crate::engine::Engine::save_cache`]) stores it and refuses to
    /// load results produced under a different fingerprint; axes encoded
    /// in the query key (pass, shards, devices, interconnect, topology)
    /// need no guard, because a mismatched configuration simply never
    /// matches the key. The default (empty string) is for backends with
    /// no such knobs.
    fn config_fingerprint(&self) -> String {
        String::new()
    }

    /// Cumulative count of full-layer replays this backend has run, for
    /// backends that measure by replaying (the trace-driven simulator).
    /// `None` for backends with no replay machinery (the analytical
    /// model); the serve daemon's `/stats` and `/metrics` report it as
    /// the engine replay counter.
    fn replays(&self) -> Option<u64> {
        None
    }

    /// Answers one layer-pass evaluation request.
    ///
    /// Backends without a model for the query's
    /// [`Parallelism`](crate::query::Parallelism) axis answer the
    /// single-device estimate (the analytical model has no intra-layer
    /// partition and no fabric); callers that must not silently accept
    /// that fallback — the CLI rejecting `--gpus` on the model backend —
    /// validate before querying.
    ///
    /// # Errors
    ///
    /// Propagates layer/GPU validation and pass-construction failures.
    fn evaluate(&self, query: &EvalQuery) -> Result<LayerEstimate, Error>;

    /// Answers one whole-training-step request: the per-layer
    /// forward/dgrad/wgrad table *and* the scheduled
    /// [`StepTimeline`](crate::schedule::StepTimeline), both derived
    /// from one evaluation pass over the step's unique layer shapes.
    ///
    /// The default evaluates [`StepQuery::pass_queries`] in order, one
    /// [`Backend::evaluate`] call each, and assembles the answer with
    /// [`StepEvaluation::serial`]: the table plus a **serial** timeline
    /// (every pass back-to-back, no communication stream,
    /// `step == serial`) — what a backend without a collective
    /// scheduler can say. The trace-driven simulator overrides it to
    /// replay each unique pass shape once and, under `Multi`, to
    /// schedule the bucketed all-reduce; every override must keep
    /// [`StepTimeline::bounds_hold`](crate::schedule::StepTimeline::bounds_hold)
    /// true and must derive table and timeline from the *same*
    /// measurements.
    ///
    /// # Errors
    ///
    /// Propagates pass-construction and estimation failures.
    fn evaluate_step(&self, query: &StepQuery) -> Result<StepEvaluation, Error> {
        let estimates = query
            .pass_queries()
            .iter()
            .map(|q| self.evaluate(q))
            .collect::<Result<_, _>>()?;
        Ok(StepEvaluation::serial(
            self.name(),
            self.gpu().name(),
            query,
            estimates,
        ))
    }
}

impl Backend for Delta {
    fn name(&self) -> &'static str {
        "model"
    }

    fn gpu(&self) -> &GpuSpec {
        Delta::gpu(self)
    }

    fn config_fingerprint(&self) -> String {
        serde_json::to_string(&self.options()).unwrap_or_default()
    }

    /// The analytical model answers every parallelism the same way — it
    /// has no intra-layer partition and no fabric — so only the shape
    /// and the pass matter. Wgrad routes through the split-K tiling
    /// (cuDNN runs wgrad as a split-K kernel), dgrad through the
    /// transposed-convolution transform.
    fn evaluate(&self, query: &EvalQuery) -> Result<LayerEstimate, Error> {
        let layer = query.layer()?;
        let report = match query.pass {
            Pass::Fwd => self.analyze(&layer)?,
            Pass::Dgrad => self.analyze(&training::dgrad_layer(&layer)?)?,
            Pass::Wgrad => training::analyze_wgrad(self, &layer)?,
        };
        Ok(LayerEstimate::from_report(&report))
    }
}

impl<B: Backend + ?Sized> Backend for &B {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn gpu(&self) -> &GpuSpec {
        (**self).gpu()
    }

    fn config_fingerprint(&self) -> String {
        (**self).config_fingerprint()
    }

    fn evaluate(&self, query: &EvalQuery) -> Result<LayerEstimate, Error> {
        (**self).evaluate(query)
    }

    fn evaluate_step(&self, query: &StepQuery) -> Result<StepEvaluation, Error> {
        (**self).evaluate_step(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::ConvLayer;
    use crate::query::Parallelism;

    fn layer() -> ConvLayer {
        ConvLayer::builder("backend_test")
            .batch(32)
            .input(64, 28, 28)
            .output_channels(128)
            .filter(3, 3)
            .pad(1)
            .build()
            .unwrap()
    }

    fn fwd(l: &ConvLayer) -> EvalQuery {
        EvalQuery::forward(l, Parallelism::Single)
    }

    #[test]
    fn model_backend_matches_analyze() {
        let delta = Delta::new(GpuSpec::titan_xp());
        let report = delta.analyze(&layer()).unwrap();
        let est = delta.evaluate(&fwd(&layer())).unwrap();
        assert_eq!(est.l1_bytes, report.traffic.l1_bytes);
        assert_eq!(est.l2_bytes, report.traffic.l2_bytes);
        assert_eq!(est.dram_read_bytes, report.traffic.dram_bytes);
        assert_eq!(est.cycles, report.perf.cycles);
        assert_eq!(est.seconds, report.perf.seconds);
        assert_eq!(est.bottleneck, Some(report.perf.bottleneck));
        assert_eq!(est.source, EstimateSource::Model);
        assert_eq!(Backend::name(&delta), "model");
        assert_eq!(Backend::gpu(&delta).name(), "TITAN Xp");
    }

    #[test]
    fn model_wgrad_uses_split_k_path() {
        let delta = Delta::new(GpuSpec::titan_xp());
        let via_query = delta
            .evaluate(&EvalQuery::new(&layer(), Pass::Wgrad, Parallelism::Single))
            .unwrap();
        let via_training = training::analyze_wgrad(&delta, &layer()).unwrap();
        assert_eq!(via_query.cycles, via_training.perf.cycles);
        // The split-K tiling must beat the naive single-CTA-column path.
        let naive = delta
            .evaluate(&fwd(&training::wgrad_layer(&layer()).unwrap()))
            .unwrap();
        assert!(via_query.seconds <= naive.seconds * 1.001);
    }

    #[test]
    fn model_dgrad_matches_transposed_forward() {
        let delta = Delta::new(GpuSpec::titan_xp());
        let via_query = delta
            .evaluate(&EvalQuery::new(&layer(), Pass::Dgrad, Parallelism::Single))
            .unwrap();
        let transformed = training::dgrad_layer(&layer()).unwrap();
        let direct = delta.evaluate(&fwd(&transformed)).unwrap();
        assert_eq!(via_query, direct);
    }

    #[test]
    fn reference_backends_delegate() {
        let delta = Delta::new(GpuSpec::v100());
        let by_ref: &dyn Backend = &&delta;
        assert_eq!(by_ref.name(), "model");
        assert!(by_ref.evaluate(&fwd(&layer())).is_ok());
        let net = [layer()];
        let step = StepQuery::new(&net, Parallelism::Single);
        assert_eq!(
            by_ref.evaluate_step(&step).unwrap(),
            Backend::evaluate_step(&delta, &step).unwrap()
        );
    }

    #[test]
    fn model_answers_every_parallelism_identically() {
        // Backends without an intra-layer partition or a fabric treat
        // the parallelism as a hint and answer the single-device
        // estimate, with no link traffic.
        let delta = Delta::new(GpuSpec::titan_xp());
        let plain = delta.evaluate(&fwd(&layer())).unwrap();
        assert_eq!(plain.link_bytes, 0.0);
        assert_eq!(plain.dram_and_link_bytes(), plain.dram_total_bytes());
        for par in [
            Parallelism::Sharded { workers: 0 },
            Parallelism::Sharded { workers: 4 },
            Parallelism::Sharded { workers: 64 },
            Parallelism::multi(
                Backend::gpu(&delta),
                2,
                crate::interconnect::InterconnectKind::NvLink,
            ),
            Parallelism::multi(
                Backend::gpu(&delta),
                8,
                crate::interconnect::InterconnectKind::Pcie,
            ),
        ] {
            let est = delta
                .evaluate(&EvalQuery::forward(&layer(), par.clone()))
                .unwrap();
            assert_eq!(est, plain, "{par:?}");
        }
    }

    #[test]
    fn default_step_is_the_serial_fallback() {
        // Backends without a collective scheduler answer the serial
        // step: forward spans in order, backward in reverse order, no
        // communication, step == serial, bounds hold.
        let delta = Delta::new(GpuSpec::titan_xp());
        let net = [layer(), layer().with_label("second")];
        let eval = Backend::evaluate_step(
            &delta,
            &StepQuery::new(
                &net,
                Parallelism::multi(
                    Backend::gpu(&delta),
                    4,
                    crate::interconnect::InterconnectKind::NvLink,
                ),
            ),
        )
        .unwrap();
        let t = &eval.timeline;
        assert_eq!(t.backend, "model");
        assert_eq!(t.devices, 4);
        assert!(!t.overlap);
        assert_eq!(t.comm_seconds, 0.0);
        assert_eq!(t.step_seconds, t.serial_seconds);
        assert!(t.bounds_hold());
        // 2 forward + 1 dgrad (first layer skips it) + 2 wgrad.
        let dev = &t.per_device[0];
        assert_eq!(dev.compute.len(), 5);
        assert!(dev.comm.is_empty());
        // The timeline total matches the table it was derived from.
        let table_total: f64 = eval
            .table
            .rows
            .iter()
            .map(crate::engine::TrainingRow::seconds)
            .sum();
        assert!((t.step_seconds - table_total).abs() < 1e-12 * table_total);
        // And the table matches the per-pass estimators.
        let f = delta.evaluate(&fwd(&layer())).unwrap();
        assert_eq!(eval.table.rows[0].forward, f);
        assert!(eval.table.rows[0].dgrad.is_none());
        assert!(eval.table.rows[1].dgrad.is_some());
    }

    #[test]
    fn estimate_json_without_link_bytes_still_parses() {
        // link_bytes was added with a serde default so archived estimates
        // keep deserializing.
        let delta = Delta::new(GpuSpec::titan_xp());
        let est = delta.evaluate(&fwd(&layer())).unwrap();
        let mut json = serde_json::to_string(&est).unwrap();
        assert!(json.contains("\"link_bytes\""));
        json = json.replace("\"link_bytes\":0,", "");
        json = json.replace("\"link_bytes\":0.0,", "");
        assert!(!json.contains("link_bytes"), "{json}");
        let back: LayerEstimate = serde_json::from_str(&json).unwrap();
        assert_eq!(back.link_bytes, 0.0);
        assert_eq!(back, est);
    }

    #[test]
    fn estimate_display_and_serde_round_trip() {
        let delta = Delta::new(GpuSpec::titan_xp());
        let est = delta.evaluate(&fwd(&layer())).unwrap();
        let s = est.to_string();
        assert!(s.contains("[model]") && s.contains("ms"));
        let json = serde_json::to_string(&est).unwrap();
        let back: LayerEstimate = serde_json::from_str(&json).unwrap();
        assert_eq!(est, back);
    }

    #[test]
    fn fingerprint_captures_the_identity_triple() {
        let delta = Delta::new(GpuSpec::titan_xp());
        let fp = BackendFingerprint::of(&delta);
        assert_eq!(fp.backend, "model");
        assert_eq!(fp.gpu, "TITAN Xp");
        assert_eq!(fp.config, delta.config_fingerprint());
        assert_eq!(fp.mismatch(&fp), None);
        let s = fp.to_string();
        assert!(
            s.contains("backend `model`") && s.contains("`TITAN Xp`"),
            "{s}"
        );
        // Serde round trip — the handshake and /healthz ship it as JSON.
        let json = serde_json::to_string(&fp).unwrap();
        let back: BackendFingerprint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, fp);
    }

    #[test]
    fn fingerprint_mismatch_ranks_identity_over_config() {
        let a = BackendFingerprint {
            backend: "sim".into(),
            gpu: "TITAN Xp".into(),
            config: "{}".into(),
        };
        let mut other_backend = a.clone();
        other_backend.backend = "model".into();
        let mut other_gpu = a.clone();
        other_gpu.gpu = "V100".into();
        let mut other_config = a.clone();
        other_config.config = "{\"shards\":2}".into();
        assert_eq!(
            a.mismatch(&other_backend),
            Some(FingerprintMismatch::Identity)
        );
        assert_eq!(a.mismatch(&other_gpu), Some(FingerprintMismatch::Identity));
        assert_eq!(a.mismatch(&other_config), Some(FingerprintMismatch::Config));
        // Identity wins even when the config also differs.
        let mut both = other_backend.clone();
        both.config = other_config.config.clone();
        assert_eq!(a.mismatch(&both), Some(FingerprintMismatch::Identity));
    }

    #[test]
    fn miss_rates_and_funnel_are_consistent() {
        let delta = Delta::new(GpuSpec::titan_xp());
        let est = delta.evaluate(&fwd(&layer())).unwrap();
        assert!(est.l1_bytes >= est.l2_bytes);
        assert!(est.l2_bytes >= est.dram_read_bytes);
        assert!((0.0..=1.0).contains(&est.l1_miss_rate));
        assert!((0.0..=1.0).contains(&est.l2_miss_rate));
        assert!(est.dram_write_bytes > 0.0);
    }
}
