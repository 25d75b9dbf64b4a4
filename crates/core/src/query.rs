//! The evaluation-request vocabulary: every question this repository can
//! ask an estimator, expressed as data.
//!
//! Four PRs of growth encoded each new execution-configuration axis as a
//! new `Backend`/`Engine` method pair (`estimate_layer`,
//! `estimate_layer_sharded`, `estimate_layer_multi`, `estimate_wgrad`,
//! `estimate_wgrad_multi`, `estimate_training_step_scheduled`, each with
//! an engine twin and its own caching rules). The paper's deliverable is
//! one question asked many ways — *what traffic/time does this layer (or
//! step) cost under this execution configuration?* — so this module
//! turns the configuration into a value instead of a method name:
//!
//! * [`EvalQuery`] — one layer-pass evaluation: a [`LayerShape`], a
//!   [`Pass`] (`Fwd | Dgrad | Wgrad`), and a [`Parallelism`];
//! * [`StepQuery`] — one whole training step: the ordered layer list,
//!   the same [`Parallelism`], and the collective-scheduler knobs;
//! * [`Parallelism`] — `Single`, `Sharded { workers }`, or
//!   `Multi { devices, interconnect, topology }`. `Multi` carries one
//!   [`GpuSpec`] *per device* rather than a count, so heterogeneous
//!   fleets extend the data, not the API;
//! * [`StepEvaluation`] — a step query's answer: the per-layer table
//!   *and* the scheduled [`StepTimeline`], derived by the backend from
//!   **one** set of per-layer measurements (PR 4's `--overlap on` ran
//!   the replay twice, once per view).
//!
//! Queries are serializable, and [`EvalQuery::fingerprint`] is an
//! **injective** canonical encoding: two queries collide iff they are
//! equal. The engine's result cache and the persistent cache files are
//! keyed on it, so stale-configuration refusal falls out of key
//! inequality instead of bespoke guard fields.

use crate::backend::LayerEstimate;
use crate::engine::{TrainingRow, TrainingStepEvaluation};
use crate::error::Error;
use crate::gpu::GpuSpec;
use crate::interconnect::InterconnectKind;
use crate::layer::{ConvLayer, LayerKind};
use crate::schedule::{SpanKind, StepTimeline};
use crate::topology::TopologyKind;
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

/// The cache-relevant dimensions of a layer: a [`ConvLayer`] minus its
/// label. Two layers with equal shapes are the same workload to every
/// backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerShape {
    /// Mini-batch size.
    pub batch: u32,
    /// Input channels.
    pub in_channels: u32,
    /// Input height.
    pub in_height: u32,
    /// Input width.
    pub in_width: u32,
    /// Output channels.
    pub out_channels: u32,
    /// Filter height.
    pub filter_height: u32,
    /// Filter width.
    pub filter_width: u32,
    /// Stride.
    pub stride: u32,
    /// Padding.
    pub pad: u32,
    /// Workload kind ([`LayerKind::Conv`] for every CNN layer). The
    /// conv-shaped embedding above stays authoritative for all math; the
    /// kind selects the datapath and separates fingerprints.
    pub kind: LayerKind,
}

// Hand-written for the same reason as `ConvLayer`'s serde: `Conv` shapes
// keep their exact pre-LayerKind nine-key encoding (fingerprints, cache
// keys, and wire bytes unchanged); non-conv shapes append a trailing
// `kind` map.
impl Serialize for LayerShape {
    fn to_value(&self) -> Value {
        let mut entries = vec![
            ("batch".to_string(), self.batch.to_value()),
            ("in_channels".to_string(), self.in_channels.to_value()),
            ("in_height".to_string(), self.in_height.to_value()),
            ("in_width".to_string(), self.in_width.to_value()),
            ("out_channels".to_string(), self.out_channels.to_value()),
            ("filter_height".to_string(), self.filter_height.to_value()),
            ("filter_width".to_string(), self.filter_width.to_value()),
            ("stride".to_string(), self.stride.to_value()),
            ("pad".to_string(), self.pad.to_value()),
        ];
        if !self.kind.is_conv() {
            entries.push(("kind".to_string(), self.kind.to_value()));
        }
        Value::Map(entries)
    }
}

impl Deserialize for LayerShape {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let field = |name: &str| -> Result<u32, DeError> {
            match v.get(name) {
                Some(fv) => u32::from_value(fv),
                None => Err(DeError(format!("LayerShape: missing field `{name}`"))),
            }
        };
        let kind = match v.get("kind") {
            Some(kv) => LayerKind::from_value(kv)?,
            None => LayerKind::Conv,
        };
        Ok(LayerShape {
            batch: field("batch")?,
            in_channels: field("in_channels")?,
            in_height: field("in_height")?,
            in_width: field("in_width")?,
            out_channels: field("out_channels")?,
            filter_height: field("filter_height")?,
            filter_width: field("filter_width")?,
            stride: field("stride")?,
            pad: field("pad")?,
            kind,
        })
    }
}

impl LayerShape {
    /// Extracts the shape of `layer`.
    pub fn of(layer: &ConvLayer) -> LayerShape {
        LayerShape {
            batch: layer.batch(),
            in_channels: layer.in_channels(),
            in_height: layer.in_height(),
            in_width: layer.in_width(),
            out_channels: layer.out_channels(),
            filter_height: layer.filter_height(),
            filter_width: layer.filter_width(),
            stride: layer.stride(),
            pad: layer.pad(),
            kind: layer.kind(),
        }
    }

    /// Rebuilds a concrete (synthetically labeled) layer of this shape —
    /// the workload a backend actually evaluates. Shape extraction and
    /// reconstruction are inverse up to the label.
    ///
    /// # Errors
    ///
    /// Propagates layer validation failures (a shape deserialized from an
    /// untrusted cache file may be geometrically impossible).
    pub fn to_layer(&self) -> Result<ConvLayer, Error> {
        ConvLayer::builder("query")
            .batch(self.batch)
            .input(self.in_channels, self.in_height, self.in_width)
            .output_channels(self.out_channels)
            .filter(self.filter_height, self.filter_width)
            .stride(self.stride)
            .pad(self.pad)
            .kind(self.kind)
            .build()
    }
}

/// Which pass of the layer the query asks about. Forward, data-gradient,
/// and weight-gradient passes of the same source shape are distinct
/// quantities (dgrad transposes the convolution, wgrad may use a split-K
/// tiling), so the pass is part of every cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Pass {
    /// The forward convolution.
    Fwd,
    /// The data-gradient (input-gradient) pass.
    Dgrad,
    /// The weight-gradient pass.
    Wgrad,
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Pass::Fwd => "fwd",
            Pass::Dgrad => "dgrad",
            Pass::Wgrad => "wgrad",
        })
    }
}

/// How the evaluated work is partitioned across execution resources —
/// the axis that used to be a method name.
#[derive(Debug, Clone, PartialEq)]
pub enum Parallelism {
    /// One device, sequential replay: cache residency persists across
    /// tile columns (the paper's baseline execution).
    Single,
    /// One device, the layer's tile columns partitioned over parallel
    /// workers. Results are bitwise identical for every worker count on
    /// backends with a sharded path; backends without one answer the
    /// single-device estimate.
    Sharded {
        /// Worker count (0 is clamped to 1 by backends).
        workers: u32,
    },
    /// The layer partitioned across several devices, cross-device
    /// traffic priced by an interconnect (and optionally an explicit
    /// topology graph).
    Multi {
        /// One specification per device. Carrying specs instead of a
        /// count is what lets heterogeneous fleets land behind this same
        /// signature; today's backends assume a homogeneous fleet and
        /// read only the length.
        devices: Vec<GpuSpec>,
        /// The fabric preset pricing halo and all-reduce flows.
        interconnect: InterconnectKind,
        /// Explicit device graph deriving the pricing; `None` keeps the
        /// preset's scalar topology factor.
        topology: Option<TopologyKind>,
    },
}

impl Parallelism {
    /// A homogeneous multi-device configuration: `count` copies of
    /// `gpu`.
    pub fn multi(gpu: &GpuSpec, count: u32, interconnect: InterconnectKind) -> Parallelism {
        Parallelism::Multi {
            devices: vec![gpu.clone(); count.max(1) as usize],
            interconnect,
            topology: None,
        }
    }

    /// Number of devices this configuration spans (1 for `Single` and
    /// `Sharded`; never 0).
    pub fn device_count(&self) -> u32 {
        match self {
            Parallelism::Single | Parallelism::Sharded { .. } => 1,
            Parallelism::Multi { devices, .. } => (devices.len() as u32).max(1),
        }
    }
}

// The vendored serde derive handles named-field structs and unit enums
// only, so the data-carrying `Parallelism` (and the query types built on
// it) implement the value-tree conversions by hand. The encoding is a
// tagged object — `{"mode": "single" | "sharded" | "multi", ...}` — with
// a fixed field order, which keeps the fingerprint canonical.
impl Serialize for Parallelism {
    fn to_value(&self) -> Value {
        match self {
            Parallelism::Single => Value::Map(vec![("mode".into(), Value::Str("single".into()))]),
            Parallelism::Sharded { workers } => Value::Map(vec![
                ("mode".into(), Value::Str("sharded".into())),
                ("workers".into(), workers.to_value()),
            ]),
            Parallelism::Multi {
                devices,
                interconnect,
                topology,
            } => Value::Map(vec![
                ("mode".into(), Value::Str("multi".into())),
                ("devices".into(), devices.to_value()),
                ("interconnect".into(), interconnect.to_value()),
                ("topology".into(), topology.to_value()),
            ]),
        }
    }
}

impl Deserialize for Parallelism {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let mode = match v.get("mode") {
            Some(Value::Str(s)) => s.as_str(),
            _ => return Err(DeError::expected("object with a `mode` tag", v)),
        };
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| DeError(format!("missing field `{name}` in Parallelism::{mode}")))
        };
        match mode {
            "single" => Ok(Parallelism::Single),
            "sharded" => Ok(Parallelism::Sharded {
                workers: Deserialize::from_value(field("workers")?)?,
            }),
            "multi" => Ok(Parallelism::Multi {
                devices: Deserialize::from_value(field("devices")?)?,
                interconnect: Deserialize::from_value(field("interconnect")?)?,
                topology: Deserialize::from_value(field("topology")?)?,
            }),
            other => Err(DeError(format!("unknown Parallelism mode `{other}`"))),
        }
    }
}

/// One layer-pass evaluation request: the single entry point every
/// estimator answers ([`crate::backend::Backend::evaluate`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalQuery {
    /// The layer's shape (label-free: equal shapes are equal workloads).
    pub shape: LayerShape,
    /// Which pass of the layer.
    pub pass: Pass,
    /// How the work is partitioned.
    pub parallelism: Parallelism,
}

impl EvalQuery {
    /// Builds a query for one pass of `layer` under `parallelism`.
    ///
    /// # Examples
    ///
    /// ```
    /// use delta_model::{ConvLayer, EvalQuery, GpuSpec, InterconnectKind, Parallelism, Pass};
    ///
    /// let layer = ConvLayer::builder("conv1")
    ///     .batch(8)
    ///     .input(64, 28, 28)
    ///     .output_channels(64)
    ///     .filter(3, 3)
    ///     .pad(1)
    ///     .build()?;
    /// // The same layer-pass question under three execution configurations —
    /// // only the data changes, never the call:
    /// let single = EvalQuery::new(&layer, Pass::Fwd, Parallelism::Single);
    /// let sharded = EvalQuery::new(&layer, Pass::Fwd, Parallelism::Sharded { workers: 4 });
    /// let multi = EvalQuery::new(
    ///     &layer,
    ///     Pass::Wgrad,
    ///     Parallelism::multi(&GpuSpec::titan_xp(), 4, InterconnectKind::NvLink),
    /// );
    /// // Fingerprints are injective: distinct configurations never collide.
    /// assert_ne!(single.fingerprint(), sharded.fingerprint());
    /// assert_ne!(sharded.fingerprint(), multi.fingerprint());
    /// # Ok::<(), delta_model::Error>(())
    /// ```
    pub fn new(layer: &ConvLayer, pass: Pass, parallelism: Parallelism) -> EvalQuery {
        EvalQuery {
            shape: LayerShape::of(layer),
            pass,
            parallelism,
        }
    }

    /// Convenience: the forward pass of `layer`.
    pub fn forward(layer: &ConvLayer, parallelism: Parallelism) -> EvalQuery {
        EvalQuery::new(layer, Pass::Fwd, parallelism)
    }

    /// Rebuilds the concrete forward-shaped layer this query is about
    /// (backends derive the dgrad/wgrad workload from it according to
    /// [`EvalQuery::pass`]).
    ///
    /// # Errors
    ///
    /// Propagates layer validation failures.
    pub fn layer(&self) -> Result<ConvLayer, Error> {
        self.shape.to_layer()
    }

    /// The canonical cache key: a deterministic JSON encoding of the
    /// whole query. **Injective** — two queries produce the same
    /// fingerprint iff they are equal (every field, including each
    /// device's full [`GpuSpec`], the interconnect, and the topology, is
    /// encoded with a fixed field order) — so one flat map keyed on it
    /// can cache every configuration without collisions. Queries JSON
    /// cannot encode (a non-finite float in a hand-built device spec)
    /// fall back to the derived `Debug` encoding, which still covers
    /// every field — never to a shared degenerate key.
    pub fn fingerprint(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|_| format!("debug:{self:?}"))
    }
}

/// One whole-training-step evaluation request: layer list plus schedule
/// knobs, answered by [`crate::backend::Backend::evaluate_step`].
///
/// Serializes as a named-field object (`layers`, `parallelism`,
/// `bucket_mb`, `overlap`) — the wire shape `delta serve`'s `POST /step`
/// accepts (see `docs/PROTOCOL.md`). Unlike [`StepQuery::fingerprint`],
/// the serialized form keeps the layer labels: they name the response's
/// rows and timeline spans.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepQuery {
    /// The network's layers, in execution order (labels are kept — they
    /// name the rows and timeline spans).
    pub layers: Vec<ConvLayer>,
    /// How each pass's work is partitioned.
    pub parallelism: Parallelism,
    /// Gradient bucket size in MiB for the collective scheduler.
    pub bucket_mb: u32,
    /// Overlap each gradient bucket's all-reduce with the remaining
    /// backward compute (`false` = serial schedule: all communication
    /// after all compute).
    pub overlap: bool,
}

impl StepQuery {
    /// Builds a step query with the default schedule knobs (25 MiB
    /// buckets, overlap off — DDP-style framework defaults).
    ///
    /// # Examples
    ///
    /// ```
    /// use delta_model::{ConvLayer, GpuSpec, InterconnectKind, Parallelism, StepQuery};
    ///
    /// let layers = vec![
    ///     ConvLayer::builder("conv1")
    ///         .batch(4)
    ///         .input(3, 32, 32)
    ///         .output_channels(16)
    ///         .filter(3, 3)
    ///         .pad(1)
    ///         .build()?,
    /// ];
    /// let mut step = StepQuery::new(
    ///     &layers,
    ///     Parallelism::multi(&GpuSpec::titan_xp(), 4, InterconnectKind::NvLink),
    /// );
    /// assert_eq!(step.bucket_mb, 25);
    /// assert!(!step.overlap);
    /// // Schedule knobs are plain fields — and part of the fingerprint:
    /// let serial = step.fingerprint();
    /// step.bucket_mb = 4;
    /// step.overlap = true;
    /// assert_ne!(step.fingerprint(), serial);
    /// # Ok::<(), delta_model::Error>(())
    /// ```
    pub fn new(layers: &[ConvLayer], parallelism: Parallelism) -> StepQuery {
        StepQuery {
            layers: layers.to_vec(),
            parallelism,
            bucket_mb: 25,
            overlap: false,
        }
    }

    /// The per-pass [`EvalQuery`] for layer `layer` under this step's
    /// parallelism.
    pub fn pass_query(&self, layer: &ConvLayer, pass: Pass) -> EvalQuery {
        EvalQuery::new(layer, pass, self.parallelism.clone())
    }

    /// The step's pass queries in canonical order: per layer, in network
    /// order, forward, data gradient (except for the first layer, which
    /// needs no input gradient) and weight gradient. Every step
    /// assembler reads its estimates in this order
    /// ([`StepEvaluation::serial`]).
    pub fn pass_queries(&self) -> Vec<EvalQuery> {
        let mut queries = Vec::with_capacity(3 * self.layers.len());
        for (i, l) in self.layers.iter().enumerate() {
            queries.push(self.pass_query(l, Pass::Fwd));
            if i > 0 {
                queries.push(self.pass_query(l, Pass::Dgrad));
            }
            queries.push(self.pass_query(l, Pass::Wgrad));
        }
        queries
    }

    /// A canonical, injective encoding of the step configuration
    /// (ordered layer shapes, parallelism, bucket size, overlap flag) —
    /// the step-level analog of [`EvalQuery::fingerprint`]. Labels are
    /// excluded: they decorate output, they do not change the answer.
    pub fn fingerprint(&self) -> String {
        let shapes: Vec<LayerShape> = self.layers.iter().map(LayerShape::of).collect();
        let v = Value::Map(vec![
            ("shapes".into(), shapes.to_value()),
            ("parallelism".into(), self.parallelism.to_value()),
            ("bucket_mb".into(), self.bucket_mb.to_value()),
            ("overlap".into(), self.overlap.to_value()),
        ]);
        // Same non-finite-float fallback as [`EvalQuery::fingerprint`]:
        // unencodable configurations keep distinct keys via `Debug`.
        serde_json::to_string(&v).unwrap_or_else(|_| {
            format!(
                "debug:{:?}",
                (&shapes, &self.parallelism, self.bucket_mb, self.overlap)
            )
        })
    }
}

/// A step query's answer: the per-layer pass table *and* the scheduled
/// timeline, both derived from one evaluation pass over the unique layer
/// shapes. Bundling them is what kills PR 4's `--overlap on` double
/// replay — the table and the timeline can no longer be computed from
/// two different sets of measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepEvaluation {
    /// Per-layer forward/dgrad/wgrad estimates, in network order.
    pub table: TrainingStepEvaluation,
    /// The scheduled step: compute and communication spans per device,
    /// with overlapped/serial/exposed totals. For `Single`/`Sharded`
    /// parallelism this is the serial compute timeline (no
    /// communication stream).
    pub timeline: StepTimeline,
}

impl StepEvaluation {
    /// The serial step of `backend` on `gpu`: what a backend without a
    /// collective scheduler answers. `estimates` are the step's pass
    /// estimates in [`StepQuery::pass_queries`] order; they become the
    /// per-layer rows, and the timeline runs every pass back-to-back
    /// with no communication stream (`step == serial`).
    ///
    /// # Panics
    ///
    /// Panics if `estimates` holds fewer entries than the step has pass
    /// queries.
    pub fn serial(
        backend: &str,
        gpu: &str,
        query: &StepQuery,
        estimates: Vec<LayerEstimate>,
    ) -> StepEvaluation {
        let mut estimates = estimates.into_iter();
        let mut next = || estimates.next().expect("one estimate per pass query");
        let mut rows = Vec::with_capacity(query.layers.len());
        for (i, l) in query.layers.iter().enumerate() {
            let forward = next();
            let dgrad = (i > 0).then(&mut next);
            rows.push(TrainingRow {
                label: l.label().to_string(),
                forward,
                dgrad,
                wgrad: next(),
            });
        }
        let timeline = StepTimeline::serial_compute(
            backend,
            gpu,
            query.parallelism.device_count(),
            serial_spans(&rows),
        );
        StepEvaluation {
            table: TrainingStepEvaluation {
                backend: backend.to_string(),
                gpu: gpu.to_string(),
                rows,
            },
            timeline,
        }
    }
}

/// The serial compute spans of a step's rows: forward spans in network
/// order, then dgrad/wgrad pairs in reverse layer order (the first layer
/// has no dgrad).
fn serial_spans(rows: &[TrainingRow]) -> Vec<(String, SpanKind, f64)> {
    let mut spans = Vec::with_capacity(3 * rows.len());
    for r in rows {
        spans.push((r.label.clone(), SpanKind::Forward, r.forward.seconds));
    }
    for r in rows.iter().rev() {
        if let Some(d) = &r.dgrad {
            spans.push((r.label.clone(), SpanKind::Dgrad, d.seconds));
        }
        spans.push((r.label.clone(), SpanKind::Wgrad, r.wgrad.seconds));
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> ConvLayer {
        ConvLayer::builder("q")
            .batch(8)
            .input(16, 14, 14)
            .output_channels(32)
            .filter(3, 3)
            .stride(1)
            .pad(1)
            .build()
            .unwrap()
    }

    #[test]
    fn shape_round_trips_through_to_layer() {
        let l = layer();
        let shape = LayerShape::of(&l);
        let back = shape.to_layer().unwrap();
        assert_eq!(LayerShape::of(&back), shape);
        // The label is synthetic, everything else is preserved.
        assert_eq!(back.batch(), l.batch());
        assert_eq!(back.stride(), l.stride());
        assert_eq!(back.pad(), l.pad());
    }

    #[test]
    fn shape_round_trips_preserve_kind() {
        let g = ConvLayer::gemm("g", 256, 1024, 768).unwrap();
        let a = ConvLayer::attention("a", 4, 128, 8, 64).unwrap();
        for l in [&g, &a] {
            let shape = LayerShape::of(l);
            assert_eq!(shape.kind, l.kind());
            let back = shape.to_layer().unwrap();
            assert_eq!(back.kind(), l.kind());
            assert_eq!(LayerShape::of(&back), shape);
            // Serde round trip keeps the kind too.
            let json = serde_json::to_string(&shape).unwrap();
            let de: LayerShape = serde_json::from_str(&json).unwrap();
            assert_eq!(de, shape);
        }
    }

    #[test]
    fn conv_shape_bytes_have_no_kind_key() {
        let json = serde_json::to_string(&LayerShape::of(&layer())).unwrap();
        assert!(
            !json.contains("kind"),
            "conv shape leaked a kind key: {json}"
        );
    }

    #[test]
    fn fingerprints_separate_the_kind_axis() {
        // A gemm and the fully-connected layer it embeds as share every
        // embedding dimension; only the kind distinguishes them — and the
        // fingerprint must too, or the engine would serve the FFMA result
        // for the tensor-core workload (and vice versa).
        let g = ConvLayer::gemm("x", 64, 32, 16).unwrap();
        let fc = ConvLayer::fully_connected("x", 64, 16, 32).unwrap();
        let qg = EvalQuery::forward(&g, Parallelism::Single);
        let qfc = EvalQuery::forward(&fc, Parallelism::Single);
        assert_ne!(qg.fingerprint(), qfc.fingerprint());
        // Distinct attention factorizations with equal embeddings also
        // separate: (seq=8, heads=4) vs (seq=8, heads=4) with swapped
        // head_dim/heads roles would alias only if the kind were dropped.
        let a1 = ConvLayer::attention("x", 8, 8, 4, 16).unwrap();
        let a2 = ConvLayer::attention("x", 4, 8, 8, 16).unwrap();
        assert_eq!(LayerShape::of(&a1).batch, LayerShape::of(&a2).batch);
        assert_ne!(
            EvalQuery::forward(&a1, Parallelism::Single).fingerprint(),
            EvalQuery::forward(&a2, Parallelism::Single).fingerprint()
        );
    }

    #[test]
    fn parallelism_serde_round_trips() {
        let cases = [
            Parallelism::Single,
            Parallelism::Sharded { workers: 4 },
            Parallelism::multi(&GpuSpec::titan_xp(), 3, InterconnectKind::NvLink),
            Parallelism::Multi {
                devices: vec![GpuSpec::v100(); 2],
                interconnect: InterconnectKind::Pcie,
                topology: Some(TopologyKind::Ring),
            },
        ];
        for p in &cases {
            let v = p.to_value();
            let back = Parallelism::from_value(&v).unwrap();
            assert_eq!(&back, p);
        }
        assert!(Parallelism::from_value(&Value::Str("single".into())).is_err());
        assert!(Parallelism::from_value(&Value::Map(vec![(
            "mode".into(),
            Value::Str("quantum".into())
        )]))
        .is_err());
    }

    #[test]
    fn eval_query_serde_round_trips() {
        let q = EvalQuery::new(
            &layer(),
            Pass::Wgrad,
            Parallelism::multi(&GpuSpec::titan_xp(), 4, InterconnectKind::NvLink),
        );
        let json = serde_json::to_string(&q).unwrap();
        let back: EvalQuery = serde_json::from_str(&json).unwrap();
        assert_eq!(back, q);
        assert_eq!(back.fingerprint(), q.fingerprint());
    }

    #[test]
    fn fingerprints_separate_every_axis() {
        let l = layer();
        let gpu = GpuSpec::titan_xp();
        let queries = [
            EvalQuery::forward(&l, Parallelism::Single),
            EvalQuery::new(&l, Pass::Dgrad, Parallelism::Single),
            EvalQuery::new(&l, Pass::Wgrad, Parallelism::Single),
            EvalQuery::forward(&l, Parallelism::Sharded { workers: 1 }),
            EvalQuery::forward(&l, Parallelism::Sharded { workers: 2 }),
            EvalQuery::forward(&l, Parallelism::multi(&gpu, 1, InterconnectKind::Ideal)),
            EvalQuery::forward(&l, Parallelism::multi(&gpu, 2, InterconnectKind::Ideal)),
            EvalQuery::forward(&l, Parallelism::multi(&gpu, 2, InterconnectKind::NvLink)),
            EvalQuery::forward(
                &l,
                Parallelism::Multi {
                    devices: vec![gpu.clone(); 2],
                    interconnect: InterconnectKind::NvLink,
                    topology: Some(TopologyKind::Ring),
                },
            ),
            EvalQuery::forward(
                &l,
                Parallelism::multi(&GpuSpec::v100(), 2, InterconnectKind::NvLink),
            ),
        ];
        for (i, a) in queries.iter().enumerate() {
            for (j, b) in queries.iter().enumerate() {
                if i != j {
                    assert_ne!(a.fingerprint(), b.fingerprint(), "{i} vs {j}");
                }
            }
        }
        // Equal queries agree.
        assert_eq!(
            queries[0].fingerprint(),
            EvalQuery::forward(&layer(), Parallelism::Single).fingerprint()
        );
    }

    #[test]
    fn step_query_serde_round_trips_with_labels() {
        let q = StepQuery {
            layers: vec![layer(), layer().with_label("b")],
            parallelism: Parallelism::Multi {
                devices: vec![GpuSpec::v100(); 2],
                interconnect: InterconnectKind::Pcie,
                topology: Some(TopologyKind::Switch),
            },
            bucket_mb: 4,
            overlap: true,
        };
        let json = serde_json::to_string(&q).unwrap();
        let back: StepQuery = serde_json::from_str(&json).unwrap();
        assert_eq!(back, q);
        // The wire form keeps labels (they name output rows)…
        assert_eq!(back.layers[1].label(), "b");
        // …while the fingerprint stays label-free.
        assert_eq!(back.fingerprint(), q.fingerprint());
    }

    #[test]
    fn step_fingerprint_covers_schedule_knobs_and_order() {
        let net = [layer(), layer().with_label("b")];
        let base = StepQuery::new(&net, Parallelism::Single);
        assert_eq!(base.bucket_mb, 25);
        assert!(!base.overlap);
        let mut bucket = base.clone();
        bucket.bucket_mb = 4;
        let mut overlap = base.clone();
        overlap.overlap = true;
        let reversed = StepQuery::new(&[layer().with_label("b"), layer()], Parallelism::Single);
        // Labels don't matter; shapes here are equal, so reversal of
        // equal shapes is the same step.
        assert_eq!(base.fingerprint(), reversed.fingerprint());
        assert_ne!(base.fingerprint(), bucket.fingerprint());
        assert_ne!(base.fingerprint(), overlap.fingerprint());
        let multi = StepQuery::new(
            &net,
            Parallelism::multi(&GpuSpec::titan_xp(), 4, InterconnectKind::NvLink),
        );
        assert_ne!(base.fingerprint(), multi.fingerprint());
    }

    #[test]
    fn unencodable_specs_still_get_distinct_fingerprints() {
        // JSON cannot encode non-finite floats; a hand-built spec with a
        // NaN bandwidth must not collapse every such query onto one
        // shared key (which would serve layer A's estimate for layer B).
        // NaN slips past validation's sign checks (`NaN <= 0.0` is
        // false), so such specs are reachable through the public
        // builder.
        let nan_gpu = GpuSpec::titan_xp()
            .to_builder()
            .dram_bw_gbps(f64::NAN)
            .build()
            .expect("NaN passes the sign-only validation");
        let par = Parallelism::Multi {
            devices: vec![nan_gpu],
            interconnect: InterconnectKind::NvLink,
            topology: None,
        };
        let a = EvalQuery::forward(&layer(), par.clone());
        let b = EvalQuery::forward(&layer().with_batch(16).unwrap(), par);
        assert!(a.fingerprint().starts_with("debug:"), "{}", a.fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert!(!a.fingerprint().is_empty());
    }

    #[test]
    fn device_count_clamps_and_counts() {
        assert_eq!(Parallelism::Single.device_count(), 1);
        assert_eq!(Parallelism::Sharded { workers: 8 }.device_count(), 1);
        let m = Parallelism::multi(&GpuSpec::titan_xp(), 0, InterconnectKind::Ideal);
        assert_eq!(m.device_count(), 1, "multi(0) clamps to one device");
        assert_eq!(
            Parallelism::multi(&GpuSpec::titan_xp(), 4, InterconnectKind::Ideal).device_count(),
            4
        );
    }
}
