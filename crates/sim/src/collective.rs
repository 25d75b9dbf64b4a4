//! The collective scheduler: gradient bucketing and compute/communication
//! overlap for data-parallel training steps.
//!
//! PR 3 charged the gradient all-reduce *serially* — every layer's
//! exchange added to its wgrad estimate, as if the fabric only ran after
//! the math. Real frameworks (DDP-style) instead pack gradients into
//! fixed-size **buckets** in the order backward produces them (last
//! layer first) and launch each bucket's all-reduce as soon as its last
//! gradient materializes, so most of the exchange hides behind the
//! remaining backward compute. This module implements exactly that:
//!
//! * [`bucketize`] — a pure, ordered, disjoint, exhaustive partition of
//!   the per-layer gradient byte counts into `bucket_bytes`-sized
//!   buckets (a single oversized gradient keeps its own bucket; a bucket
//!   larger than the whole model yields one bucket);
//! * [`schedule_step`] — the event-driven schedule: a serial compute
//!   stream (forward in layer order, then dgrad/wgrad in reverse) and a
//!   serial communication channel that processes buckets in ready order,
//!   each bucket starting at `max(ready, previous bucket end)` (or after
//!   all compute, when overlap is off);
//! * the simulator's step evaluation
//!   ([`Backend::evaluate_step`](delta_model::backend::Backend::evaluate_step)
//!   for `Simulator`) — the trace-driven instantiation: per-pass compute
//!   times from the multi-GPU replay's per-device critical path,
//!   all-reduce durations from the query's interconnect/topology, bucket
//!   size and overlap from the [`StepQuery`]. The per-layer table and
//!   the timeline come from **one** replay per unique shape;
//! * the replay seam: the simulator splits the replayed layers into
//!   [`ReplayUnit`]s, a [`ReplaySource`] runs them (in-process,
//!   [`LocalReplays`], or on a fleet) and the simulator folds the
//!   parts back into each layer's measurement.
//!
//! The resulting [`StepTimeline`] satisfies
//! `max(compute, comm) <= step <= serial` *exactly in floating point*
//! (the serial total is accumulated in the same order as the overlap-off
//! communication chain), which is what lets the tests assert the bound
//! bitwise.

use crate::sim::{
    all_reduce_on, all_reduce_pricing_of, charge_all_reduce, ColumnReplay, Simulator,
};
use crate::topology::Topology;
use delta_model::backend::LayerEstimate;
use delta_model::engine::{LayerShape, TrainingRow, TrainingStepEvaluation};
use delta_model::query::{EvalQuery, Parallelism, Pass, StepEvaluation, StepQuery};
use delta_model::schedule::{
    bucket_label, bucketize, DeviceTimeline, Span, SpanKind, StepTimeline,
};
use delta_model::{training, ConvLayer, Error};
use rayon::prelude::*;
use std::collections::HashMap;
use std::ops::Range;

/// One layer's pass durations and gradient payload — the compute-side
/// input to [`schedule_step`].
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPasses {
    /// The layer's label (used for span labels).
    pub label: String,
    /// Forward-pass seconds.
    pub forward_seconds: f64,
    /// Data-gradient seconds; `None` for the network's first layer.
    pub dgrad_seconds: Option<f64>,
    /// Weight-gradient seconds.
    pub wgrad_seconds: f64,
    /// Weight-gradient payload to all-reduce, in bytes.
    pub grad_bytes: u64,
}

/// Builds the step timeline for `passes` (in network order) across
/// `devices` data-parallel replicas.
///
/// Compute runs serially per device: forward `0..L`, then for each layer
/// in reverse order dgrad followed by wgrad. Layer `i`'s gradient is
/// ready when its wgrad span ends; gradients bucket up in that order
/// ([`bucketize`] over the reverse-layer payload list), and the
/// communication channel runs buckets back-to-back, each starting at its
/// ready time at the earliest — or only after *all* compute when
/// `overlap` is off. `all_reduce_seconds` prices one bucket's exchange
/// from its byte count (typically a closure over
/// [`crate::topology::Topology::all_reduce_seconds`] or the scalar
/// [`crate::Interconnect`] formula).
pub fn schedule_step(
    backend: &str,
    gpu: &str,
    devices: u32,
    passes: &[LayerPasses],
    bucket_bytes: u64,
    overlap: bool,
    all_reduce_seconds: impl Fn(f64) -> f64,
) -> StepTimeline {
    let g = devices.max(1);
    let mut compute = Vec::with_capacity(3 * passes.len());
    let mut t = 0.0f64;
    let span = |label: &str, kind: SpanKind, dur: f64, t: &mut f64| {
        let start = *t;
        *t += dur;
        Span {
            label: label.to_string(),
            kind,
            start_seconds: start,
            end_seconds: *t,
        }
    };
    for p in passes {
        compute.push(span(&p.label, SpanKind::Forward, p.forward_seconds, &mut t));
    }
    // Backward in reverse layer order; record each gradient's ready time.
    let mut ready = Vec::with_capacity(passes.len());
    for p in passes.iter().rev() {
        if let Some(d) = p.dgrad_seconds {
            compute.push(span(&p.label, SpanKind::Dgrad, d, &mut t));
        }
        compute.push(span(&p.label, SpanKind::Wgrad, p.wgrad_seconds, &mut t));
        ready.push(t);
    }
    let compute_end = t;

    // Buckets over the ready-ordered (reverse-layer) gradient list.
    let grads: Vec<u64> = passes.iter().rev().map(|p| p.grad_bytes).collect();
    let labels: Vec<&str> = passes.iter().rev().map(|p| p.label.as_str()).collect();
    let buckets = bucketize(&grads, bucket_bytes);

    // The serial communication channel. `comm_seconds` and the serial
    // chain accumulate in the same order as the overlap-off schedule, so
    // the `step <= serial` bound is exact in floating point.
    let mut comm = Vec::with_capacity(buckets.len());
    let mut chan_end = 0.0f64;
    let mut comm_seconds = 0.0f64;
    let mut serial_end = compute_end;
    for (k, b) in buckets.iter().enumerate() {
        let dur = all_reduce_seconds(b.bytes as f64);
        let bucket_ready = b.items.iter().map(|&i| ready[i]).fold(0.0f64, f64::max);
        let earliest = if overlap { bucket_ready } else { compute_end };
        let start = earliest.max(chan_end);
        chan_end = start + dur;
        comm_seconds += dur;
        serial_end += dur;
        comm.push(Span {
            label: bucket_label(k, b, &labels),
            kind: SpanKind::AllReduce,
            start_seconds: start,
            end_seconds: chan_end,
        });
    }

    let step_seconds = compute_end.max(chan_end);
    let exposed = (chan_end - compute_end).max(0.0);
    StepTimeline {
        backend: backend.to_string(),
        gpu: gpu.to_string(),
        devices: g,
        overlap,
        bucket_bytes,
        per_device: (0..g)
            .map(|device| DeviceTimeline {
                device,
                compute: compute.clone(),
                comm: comm.clone(),
                exposed_comm_seconds: exposed,
            })
            .collect(),
        compute_seconds: compute_end,
        comm_seconds,
        exposed_comm_seconds: exposed,
        step_seconds,
        // Accumulated in the same order as the overlap-off channel
        // chain, so overlap-off yields step == serial bitwise.
        serial_seconds: serial_end,
    }
}

/// One layer's three pass workloads plus its gradient payload — the
/// per-layer unit a step evaluation expands into.
#[derive(Debug)]
struct PassWorkloads {
    label: String,
    fwd: ConvLayer,
    dgrad: Option<ConvLayer>,
    wgrad: ConvLayer,
    grad_bytes: u64,
}

/// One unit of replay work: what a [`ReplaySource`] runs and what one
/// [`ReplayPart`] answers. [`Simulator`] alone decides how a query's
/// layers split into units and how their parts fold back.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayUnit<'a> {
    /// A whole layer, its tile columns drained in order through one
    /// shared hierarchy: the `Parallelism::Single` unit (the fleet's
    /// `Sequential` job).
    Layer(&'a ConvLayer),
    /// One [`ShardPlan`](crate::ShardPlan) shard's run of tile columns,
    /// each replayed on a cold private hierarchy: the unit of every
    /// sharded and multi-device replay (the fleet sends one `Column` job
    /// per column).
    Columns(&'a ConvLayer, Range<u64>),
}

impl ReplayUnit<'_> {
    /// The layer the unit replays.
    pub fn layer(&self) -> &ConvLayer {
        match self {
            ReplayUnit::Layer(l) | ReplayUnit::Columns(l, _) => l,
        }
    }
}

/// One unit's result, shaped like its [`ReplayUnit`].
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayPart {
    /// A `Layer` unit's measurement.
    Layer(crate::Measurement),
    /// A `Columns` unit's merge parts, one per column in ascending
    /// order.
    Columns(Vec<ColumnReplay>),
}

/// Where an evaluation's replays run. The query assembly
/// ([`Simulator::evaluate_with`] for one layer;
/// [`Simulator::evaluate_step_with`] for pass expansion, shape dedup
/// and the bucketed schedule), the split into units and the fold of
/// the parts are identical whether the units run in-process or on a
/// fleet of executor processes; only this source differs.
pub trait ReplaySource {
    /// Replays `units`, returning one part per unit, in input order. A
    /// conforming source returns exactly what
    /// [`Simulator::replay_unit`] returns for each unit, so every
    /// folded answer is bitwise the in-process one.
    ///
    /// # Errors
    ///
    /// Propagates replay failures (a fleet source adds dispatch
    /// failures).
    fn replay(&self, units: &[ReplayUnit<'_>]) -> Result<Vec<ReplayPart>, Error>;
}

/// The in-process [`ReplaySource`] behind [`Simulator`]'s
/// [`Backend`](delta_model::backend::Backend) answers: layers fan
/// across this process's cores via rayon, and a layer's shards (its
/// adjacent units) run as parallel lanes only outside another parallel
/// region.
#[derive(Debug, Clone, Copy)]
pub struct LocalReplays<'a>(pub &'a Simulator);

impl ReplaySource for LocalReplays<'_> {
    fn replay(&self, units: &[ReplayUnit<'_>]) -> Result<Vec<ReplayPart>, Error> {
        let layers: Vec<&[ReplayUnit<'_>]> = units
            .chunk_by(|a, b| std::ptr::eq(a.layer(), b.layer()))
            .collect();
        let lanes = |shards: &&[ReplayUnit<'_>]| -> Vec<Result<ReplayPart, Error>> {
            // Inside another parallel region (the engine's layer fan-out
            // already saturates the cores), spawning a second tier of
            // workers only oversubscribes the machine: walk the shards
            // on this thread instead. Parts are identical either way.
            if rayon::current_thread_index().is_some() {
                shards.iter().map(|u| self.0.replay_unit(u)).collect()
            } else {
                shards.par_iter().map(|u| self.0.replay_unit(u)).collect()
            }
        };
        let parts: Vec<Vec<_>> = layers.par_iter().map(lanes).collect();
        parts.into_iter().flatten().collect()
    }
}

/// One replayed layer, as the query assembly reads it.
#[derive(Debug)]
pub(crate) struct LayerRun {
    /// The layer's estimate, link charges included.
    estimate: LayerEstimate,
    /// Wall seconds of its critical path: the busiest device plus halo
    /// transfers under `Multi`.
    step_seconds: f64,
}

impl Simulator {
    /// The one replay path behind every query: `Single` replays each
    /// layer whole, `Sharded { n }` merges its columns at `n` workers,
    /// and `Multi { g }` merges them at `g` and prices the fabric.
    ///
    /// # Errors
    ///
    /// Rejects a heterogeneous `Multi` fleet; propagates source and
    /// merge failures.
    pub(crate) fn replay_layers(
        &self,
        layers: &[&ConvLayer],
        parallelism: &Parallelism,
        source: &impl ReplaySource,
    ) -> Result<Vec<LayerRun>, Error> {
        let workers = match parallelism {
            Parallelism::Single => None,
            Parallelism::Sharded { workers } => Some((*workers).max(1)),
            Parallelism::Multi { devices, .. } => {
                self.require_homogeneous(devices)?;
                Some((devices.len() as u32).max(1))
            }
        };
        let runs = self.replay_runs(layers, workers, source)?;
        Ok(layers
            .iter()
            .zip(runs)
            .map(|(l, run)| match parallelism {
                Parallelism::Multi {
                    interconnect,
                    topology,
                    ..
                } => {
                    let g = workers.unwrap_or(1);
                    let m = self.multi_from_run(l, run, g, *interconnect, *topology);
                    LayerRun {
                        estimate: m.to_estimate(self.gpu()),
                        step_seconds: m.step_seconds(self.gpu()),
                    }
                }
                _ => LayerRun {
                    estimate: run.measurement.to_estimate(self.gpu()),
                    step_seconds: run.measurement.seconds(self.gpu()),
                },
            })
            .collect())
    }

    /// Answers one [`EvalQuery`] with the replay source made explicit:
    /// validation, the pass transform, the homogeneity check and the
    /// wgrad all-reduce surcharge run here, and `replays` runs the
    /// units of the one replayed layer — in-process ([`LocalReplays`],
    /// behind [`Backend::evaluate`](delta_model::backend::Backend::evaluate))
    /// or distributed across a fleet. A conforming source returns the
    /// local parts bitwise, so the estimate is bitwise identical too.
    ///
    /// # Errors
    ///
    /// Propagates GPU validation, pass transform, homogeneity, and
    /// replay-source failures.
    pub fn evaluate_with(
        &self,
        query: &EvalQuery,
        replays: &impl ReplaySource,
    ) -> Result<LayerEstimate, Error> {
        self.gpu().validate()?;
        let layer = query.layer()?;
        // Executors see only the transformed shape; the pass is applied
        // here.
        let replayed = match query.pass {
            Pass::Fwd => layer.clone(),
            Pass::Dgrad => training::dgrad_layer(&layer)?,
            Pass::Wgrad => training::wgrad_layer(&layer)?,
        };
        let mut runs = self.replay_layers(&[&replayed], &query.parallelism, replays)?;
        let mut est = runs.remove(0).estimate;
        if let Parallelism::Multi {
            devices,
            interconnect,
            topology,
        } = &query.parallelism
        {
            if query.pass == Pass::Wgrad {
                // On top of the wgrad GEMM replay, a data-parallel step
                // all-reduces the original layer's weight gradients once
                // across the devices.
                let g = (devices.len() as u32).max(1);
                let filter_bytes = layer.filter_bytes() as f64;
                let priced = all_reduce_pricing_of(*interconnect, *topology, filter_bytes, g);
                charge_all_reduce(&mut est, self.gpu(), priced);
            }
        }
        Ok(est)
    }

    /// The step evaluation with the replay source made explicit: the
    /// step assembly (pass expansion, shape dedup, all-reduce pricing,
    /// bucketed schedule) runs here, and `replays` runs the units of
    /// the unique replayed shapes — in-process ([`LocalReplays`]) or
    /// distributed across a fleet. Because a conforming source returns
    /// parts bitwise identical to the local ones, the assembled table
    /// and timeline are bitwise identical too.
    ///
    /// Under [`Parallelism::Multi`], per-pass compute times are the
    /// multi-GPU replay's per-device critical path
    /// ([`step_seconds`](crate::MultiGpuMeasurement::step_seconds):
    /// busiest device plus halo transfers); gradient payloads are the
    /// layers' filter footprints; all-reduce durations come from the
    /// query's interconnect/topology, with the topology graph built
    /// once for the whole step. The returned timeline always satisfies
    /// [`StepTimeline::bounds_hold`]. Under `Single`/`Sharded`, the
    /// pass estimates come from the corresponding on-device replay and
    /// [`StepEvaluation::serial`] assembles the table and the serial
    /// compute schedule (no communication stream).
    ///
    /// # Errors
    ///
    /// Propagates GPU validation, backward-pass construction, and
    /// replay-source failures.
    pub fn evaluate_step_with(
        &self,
        query: &StepQuery,
        replays: &impl ReplaySource,
    ) -> Result<StepEvaluation, Error> {
        self.gpu().validate()?;

        // Expand each layer into its pass workloads (pure shape
        // transforms), then dedup the transformed shapes: a deep
        // ResNet-style step collapses to a handful of unique replays,
        // shared across passes when their transforms coincide.
        let passes: Vec<PassWorkloads> = query
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                Ok(PassWorkloads {
                    label: l.label().to_string(),
                    fwd: l.clone(),
                    dgrad: if i == 0 {
                        None
                    } else {
                        Some(training::dgrad_layer(l)?)
                    },
                    wgrad: training::wgrad_layer(l)?,
                    grad_bytes: l.filter_bytes(),
                })
            })
            .collect::<Result<_, Error>>()?;
        let mut unique: Vec<&ConvLayer> = Vec::new();
        let mut index: HashMap<LayerShape, usize> = HashMap::new();
        for p in &passes {
            for l in [Some(&p.fwd), p.dgrad.as_ref(), Some(&p.wgrad)]
                .into_iter()
                .flatten()
            {
                index.entry(LayerShape::of(l)).or_insert_with(|| {
                    unique.push(l);
                    unique.len() - 1
                });
            }
        }

        // One replay per unique shape — the single source both views
        // below are derived from.
        let runs = self.replay_layers(&unique, &query.parallelism, replays)?;
        let of = |l: &ConvLayer| &runs[index[&LayerShape::of(l)]];
        let Parallelism::Multi {
            devices,
            interconnect,
            topology,
        } = &query.parallelism
        else {
            // `passes` lists each layer's workloads in
            // `StepQuery::pass_queries` order.
            let estimates = passes
                .iter()
                .flat_map(|p| [Some(&p.fwd), p.dgrad.as_ref(), Some(&p.wgrad)])
                .flatten()
                .map(|l| of(l).estimate.clone())
                .collect();
            return Ok(StepEvaluation::serial(
                "sim",
                self.gpu().name(),
                query,
                estimates,
            ));
        };
        let mut rows: Vec<TrainingRow> = passes
            .iter()
            .map(|p| TrainingRow {
                label: p.label.clone(),
                forward: of(&p.fwd).estimate.clone(),
                dgrad: p.dgrad.as_ref().map(|d| of(d).estimate.clone()),
                wgrad: of(&p.wgrad).estimate.clone(),
            })
            .collect();
        let g = (devices.len() as u32).max(1);
        // The graph is a function of (kind, devices) only: build it once
        // for the whole step and share it between the per-row all-reduce
        // charges and the scheduler, instead of rebuilding per layer or
        // per bucket.
        let base = interconnect.params();
        let topo = topology.map(|kind| Topology::build(kind, g));
        let all_reduce = |payload: f64| all_reduce_on(&base, topo.as_ref(), payload, g);
        for (row, p) in rows.iter_mut().zip(&passes) {
            charge_all_reduce(&mut row.wgrad, self.gpu(), all_reduce(p.grad_bytes as f64));
        }
        let layer_passes: Vec<LayerPasses> = passes
            .iter()
            .map(|p| LayerPasses {
                label: p.label.clone(),
                forward_seconds: of(&p.fwd).step_seconds,
                dgrad_seconds: p.dgrad.as_ref().map(|d| of(d).step_seconds),
                wgrad_seconds: of(&p.wgrad).step_seconds,
                grad_bytes: p.grad_bytes,
            })
            .collect();
        let timeline = schedule_step(
            "sim",
            self.gpu().name(),
            g,
            &layer_passes,
            u64::from(query.bucket_mb) << 20,
            query.overlap,
            |bytes| all_reduce(bytes).1,
        );
        Ok(StepEvaluation {
            table: TrainingStepEvaluation {
                backend: "sim".to_string(),
                gpu: self.gpu().name().to_string(),
                rows,
            },
            timeline,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InterconnectKind, SimConfig, TopologyKind};
    use delta_model::GpuSpec;
    use serde::{Deserialize, Serialize};

    /// A source shaped like the fleet wire: it replays the units in
    /// reverse order, sends every part through JSON, and answers in
    /// input order.
    struct WireLike<'a>(&'a Simulator);

    fn json<T: Serialize>(v: &T) -> String {
        serde_json::to_string(v).unwrap()
    }

    fn round_trip<T: Serialize + Deserialize>(v: &T) -> T {
        serde_json::from_str(&json(v)).unwrap()
    }

    impl ReplaySource for WireLike<'_> {
        fn replay(&self, units: &[ReplayUnit<'_>]) -> Result<Vec<ReplayPart>, Error> {
            let mut parts = units
                .iter()
                .rev()
                .map(|u| {
                    Ok(match self.0.replay_unit(u)? {
                        ReplayPart::Layer(m) => ReplayPart::Layer(round_trip(&m)),
                        ReplayPart::Columns(c) => {
                            ReplayPart::Columns(c.iter().map(round_trip).collect())
                        }
                    })
                })
                .collect::<Result<Vec<_>, Error>>()?;
            parts.reverse();
            Ok(parts)
        }
    }

    #[test]
    fn the_fold_over_a_wire_like_source_is_bitwise_the_local_answer() {
        // Co = 512 -> 4 tile columns; Co = 64 -> 1 tile column.
        let layer = |label: &str, co: u32| {
            ConvLayer::builder(label)
                .batch(2)
                .input(16, 14, 14)
                .output_channels(co)
                .filter(3, 3)
                .pad(1)
                .build()
                .unwrap()
        };
        let layers = [layer("four_col", 512), layer("one_col", 64)];
        let wire = Simulator::new(GpuSpec::titan_xp(), SimConfig::default());
        let local = Simulator::new(GpuSpec::titan_xp(), SimConfig::default());
        assert_eq!(wire.tiling(&layers[0]).cta_columns(), 4);
        assert_eq!(wire.tiling(&layers[1]).cta_columns(), 1);
        let mut parallelisms = vec![Parallelism::Single];
        for workers in [1, 3, 8] {
            parallelisms.push(Parallelism::Sharded { workers });
        }
        parallelisms.push(Parallelism::Multi {
            devices: vec![GpuSpec::titan_xp(); 2],
            interconnect: InterconnectKind::NvLink,
            topology: Some(TopologyKind::Ring),
        });
        for p in &parallelisms {
            for l in &layers {
                for pass in [Pass::Fwd, Pass::Wgrad] {
                    let q = EvalQuery::new(l, pass, p.clone());
                    let got = wire.evaluate_with(&q, &WireLike(&wire)).unwrap();
                    let want = local.evaluate_with(&q, &LocalReplays(&local)).unwrap();
                    assert_eq!(json(&got), json(&want), "{p:?} {} {pass}", l.label());
                }
            }
            let q = StepQuery::new(&layers, p.clone());
            let got = wire.evaluate_step_with(&q, &WireLike(&wire)).unwrap();
            let want = local.evaluate_step_with(&q, &LocalReplays(&local)).unwrap();
            assert_eq!(json(&got), json(&want), "step {p:?}");
        }
        // The fold counts one replay per layer, whatever the source.
        assert_eq!(wire.replay_count(), local.replay_count());
    }

    #[test]
    fn bucketizer_partitions_exactly() {
        let grads = [10u64, 20, 5, 40, 1];
        let buckets = bucketize(&grads, 25);
        // 10+20 >= 25 | 5+40 >= 25 | 1 (tail).
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0].items, vec![0, 1]);
        assert_eq!(buckets[0].bytes, 30);
        assert_eq!(buckets[1].items, vec![2, 3]);
        assert_eq!(buckets[1].bytes, 45);
        assert_eq!(buckets[2].items, vec![4]);
        assert_eq!(buckets[2].bytes, 1);
        // Exhaustive and ordered.
        let all: Vec<usize> = buckets.iter().flat_map(|b| b.items.clone()).collect();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
        let total: u64 = buckets.iter().map(|b| b.bytes).sum();
        assert_eq!(total, grads.iter().sum::<u64>());
    }

    #[test]
    fn bucketizer_edge_cases() {
        // Bucket larger than the whole model: one bucket.
        let b = bucketize(&[1, 2, 3], 1 << 30);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].bytes, 6);
        // Zero threshold: one bucket per gradient.
        let b = bucketize(&[1, 2, 3], 0);
        assert_eq!(b.len(), 3);
        // Empty input: no buckets.
        assert!(bucketize(&[], 25).is_empty());
        // A single oversized gradient keeps its own bucket.
        let b = bucketize(&[100, 1, 1], 10);
        assert_eq!(b[0].items, vec![0]);
        assert_eq!(b[0].bytes, 100);
    }

    fn synthetic_passes() -> Vec<LayerPasses> {
        (0..4)
            .map(|i| LayerPasses {
                label: format!("l{i}"),
                forward_seconds: 1.0,
                dgrad_seconds: (i > 0).then_some(1.5),
                wgrad_seconds: 1.0,
                grad_bytes: 8 << 20,
            })
            .collect()
    }

    #[test]
    fn overlap_hides_comm_behind_backward_compute() {
        let passes = synthetic_passes();
        // 1 ms per bucket all-reduce, one 8 MiB gradient per bucket.
        let comm = |_bytes: f64| 1e-3;
        let overlapped = schedule_step("sim", "g", 4, &passes, 8 << 20, true, comm);
        let serial = schedule_step("sim", "g", 4, &passes, 8 << 20, false, comm);
        assert_eq!(overlapped.per_device.len(), 4);
        assert_eq!(overlapped.per_device[0].comm.len(), 4, "4 buckets");
        // Compute: 4 fwd + 3 dgrad + 4 wgrad = 12.5 s; comm 4 ms.
        assert_eq!(overlapped.compute_seconds, 12.5);
        assert_eq!(overlapped.comm_seconds, serial.comm_seconds);
        // The first three buckets finish before compute does; only the
        // tail bucket can stay exposed.
        assert!(overlapped.exposed_comm_seconds <= 1e-3 + 1e-12);
        assert!(overlapped.step_seconds < serial.step_seconds);
        // Serial mode: step == serial exactly (same accumulation order)
        // and everything is exposed (up to fp re-association of the
        // chained channel against the plain duration sum).
        assert_eq!(serial.step_seconds, serial.serial_seconds);
        assert!(
            (serial.exposed_comm_seconds - serial.comm_seconds).abs() < 1e-12,
            "{} vs {}",
            serial.exposed_comm_seconds,
            serial.comm_seconds
        );
        assert!(serial.exposed_fraction() > 0.99);
        // Bounds hold on both.
        assert!(overlapped.bounds_hold());
        assert!(serial.bounds_hold());
        // The serial totals agree across modes.
        assert!((overlapped.serial_seconds - serial.serial_seconds).abs() < 1e-12);
    }

    #[test]
    fn comm_bound_step_is_floored_by_the_channel() {
        // Make communication dominate: the step time must be >= total
        // comm and the exposed fraction close to 1.
        let passes = synthetic_passes();
        let comm = |_bytes: f64| 10.0;
        let t = schedule_step("sim", "g", 2, &passes, 8 << 20, true, comm);
        assert_eq!(t.comm_seconds, 40.0);
        assert!(t.step_seconds >= 40.0);
        assert!(t.bounds_hold());
        assert!(t.exposed_fraction() > 0.5);
        assert!(t.speedup_over_serial() >= 1.0);
    }

    #[test]
    fn comm_spans_are_ready_ordered_and_non_overlapping() {
        let passes = synthetic_passes();
        let t = schedule_step("sim", "g", 2, &passes, 8 << 20, true, |b| b / 1e12);
        let comm = &t.per_device[0].comm;
        for w in comm.windows(2) {
            assert!(w[0].end_seconds <= w[1].start_seconds + 1e-15);
        }
        // Bucket 0 covers the *last* layer (first gradient ready).
        assert!(comm[0].label.contains("l3"), "{}", comm[0].label);
        assert!(comm[3].label.contains("l0"), "{}", comm[3].label);
        // Compute spans run forward l0..l3 then backward l3..l0.
        let c = &t.per_device[0].compute;
        assert_eq!(c[0].label, "l0");
        assert_eq!(c[0].kind, SpanKind::Forward);
        assert_eq!(c[4].label, "l3");
        assert_eq!(c[4].kind, SpanKind::Dgrad);
        assert_eq!(c.last().unwrap().label, "l0");
        assert_eq!(c.last().unwrap().kind, SpanKind::Wgrad);
    }

    #[test]
    fn empty_network_schedules_to_zero() {
        let t = schedule_step("sim", "g", 2, &[], 25 << 20, true, |_| 1.0);
        assert_eq!(t.step_seconds, 0.0);
        assert_eq!(t.comm_seconds, 0.0);
        assert!(t.bounds_hold());
        assert!(t.per_device[0].compute.is_empty());
        assert!(t.per_device[0].comm.is_empty());
    }
}
