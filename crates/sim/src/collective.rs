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
//!   the timeline come from **one** replay per unique shape.
//!
//! The resulting [`StepTimeline`] satisfies
//! `max(compute, comm) <= step <= serial` *exactly in floating point*
//! (the serial total is accumulated in the same order as the overlap-off
//! communication chain), which is what lets the CI perf gate assert the
//! bound bitwise.

use crate::multigpu::MultiGpuMeasurement;
use crate::sim::{add_wgrad_all_reduce, Simulator};
use crate::topology::Topology;
use delta_model::backend::{serial_step_spans, LayerEstimate};
use delta_model::engine::{LayerShape, TrainingRow, TrainingStepEvaluation};
use delta_model::query::{EvalQuery, Parallelism, Pass, StepEvaluation, StepQuery};
use delta_model::schedule::{bucket_label, DeviceTimeline, Span, SpanKind, StepTimeline};
use delta_model::{training, ConvLayer, Error};
use rayon::prelude::*;
use std::collections::HashMap;

// The bucketizer moved into the core crate (cache v3's step-cache
// relabeling needs it to rebuild all-reduce span labels on a hit);
// re-exported here so existing `collective::bucketize` callers keep
// compiling unchanged.
pub use delta_model::schedule::{bucketize, GradBucket};

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

/// Where an evaluation's per-layer replays come from. The query
/// assembly ([`Simulator::evaluate_with`] for one layer;
/// [`Simulator::evaluate_step_with`] for pass expansion, shape dedup
/// and the bucketed schedule) is identical whether the replays run
/// in-process or on a fleet of executor processes; only this source
/// differs. Implementations must
/// return one result per input layer, in input order, and produce
/// measurements bitwise identical to the local
/// [`Simulator::run_sharded`]/[`Simulator::run_multi`] paths — the fleet's
/// merge contract.
pub trait ReplaySource {
    /// Measures every layer under `Single`/`Sharded` parallelism.
    ///
    /// # Errors
    ///
    /// Propagates replay failures (a fleet source adds dispatch and
    /// merge failures).
    fn measure_all(
        &self,
        layers: &[&ConvLayer],
        parallelism: &Parallelism,
    ) -> Result<Vec<crate::Measurement>, Error>;

    /// Measures every layer as a `devices`-wide multi-GPU replay under
    /// the given fabric.
    ///
    /// # Errors
    ///
    /// Propagates replay failures (a fleet source adds dispatch and
    /// merge failures).
    fn multi_all(
        &self,
        layers: &[&ConvLayer],
        devices: u32,
        interconnect: crate::interconnect::InterconnectKind,
        topology: Option<crate::topology::TopologyKind>,
    ) -> Result<Vec<MultiGpuMeasurement>, Error>;
}

/// The in-process [`ReplaySource`]: replays fan across this process's
/// cores via rayon — the default behind
/// [`Backend::evaluate_step`](delta_model::backend::Backend::evaluate_step)
/// for [`Simulator`].
#[derive(Debug, Clone, Copy)]
pub struct LocalReplays<'a>(pub &'a Simulator);

impl ReplaySource for LocalReplays<'_> {
    fn measure_all(
        &self,
        layers: &[&ConvLayer],
        parallelism: &Parallelism,
    ) -> Result<Vec<crate::Measurement>, Error> {
        let run_one = |l: &ConvLayer| match parallelism {
            Parallelism::Sharded { workers } => self.0.run_sharded(l, (*workers).max(1)),
            _ => self.0.run(l),
        };
        Ok(layers.par_iter().map(|l| run_one(l)).collect())
    }

    fn multi_all(
        &self,
        layers: &[&ConvLayer],
        devices: u32,
        interconnect: crate::interconnect::InterconnectKind,
        topology: Option<crate::topology::TopologyKind>,
    ) -> Result<Vec<MultiGpuMeasurement>, Error> {
        Ok(layers
            .par_iter()
            .map(|l| self.0.run_multi(l, devices, interconnect, topology))
            .collect())
    }
}

impl Simulator {
    /// Answers one [`StepQuery`]: the per-layer forward/dgrad/wgrad
    /// table *and* the scheduled timeline, both derived from **one**
    /// replay per unique transformed layer shape (the memoized map PR 4
    /// kept private to the timeline now feeds the table too, which is
    /// what halves `--overlap on`'s cost).
    ///
    /// Under [`Parallelism::Multi`], per-pass compute times are the
    /// multi-GPU replay's per-device critical path
    /// ([`MultiGpuMeasurement::step_seconds`]: busiest device plus halo
    /// transfers); gradient payloads are the layers' filter footprints;
    /// all-reduce durations come from the query's
    /// interconnect/topology, with the topology graph built once for
    /// the whole step. The returned timeline always satisfies
    /// [`StepTimeline::bounds_hold`]. Under `Single`/`Sharded`, the
    /// rows come from the corresponding on-device replay and the
    /// timeline is the serial compute schedule (no communication
    /// stream).
    ///
    /// # Errors
    ///
    /// Propagates GPU validation and backward-pass construction
    /// failures.
    pub(crate) fn evaluate_step_query(&self, query: &StepQuery) -> Result<StepEvaluation, Error> {
        self.evaluate_step_with(query, &LocalReplays(self))
    }

    /// Answers one [`EvalQuery`] with the replay source made explicit:
    /// validation, the pass transform, the homogeneity check and the
    /// wgrad all-reduce surcharge run here, and `replays` supplies the
    /// one measurement — in-process ([`LocalReplays`], behind
    /// [`Backend::evaluate`](delta_model::backend::Backend::evaluate))
    /// or distributed across a fleet. A conforming source returns the
    /// local measurement bitwise, so the estimate is bitwise identical
    /// too.
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
        let replayed = Simulator::pass_workload(&layer, query.pass)?;
        let Parallelism::Multi {
            devices,
            interconnect,
            topology,
        } = &query.parallelism
        else {
            let mut m = replays.measure_all(&[&replayed], &query.parallelism)?;
            return Ok(m.remove(0).to_estimate(self.gpu()));
        };
        self.require_homogeneous(devices)?;
        let g = (devices.len() as u32).max(1);
        let mut m = replays.multi_all(&[&replayed], g, *interconnect, *topology)?;
        let mut est = m.remove(0).to_estimate(self.gpu());
        if query.pass == Pass::Wgrad {
            // On top of the wgrad GEMM replay, a data-parallel step
            // all-reduces the original layer's weight gradients once
            // across the devices.
            add_wgrad_all_reduce(
                &mut est,
                self.gpu(),
                *interconnect,
                *topology,
                layer.filter_bytes() as f64,
                g,
            );
        }
        Ok(est)
    }

    /// The step evaluation with the replay source made
    /// explicit: the step assembly (pass expansion, shape dedup,
    /// all-reduce pricing, bucketed schedule) runs here, and `replays`
    /// supplies the per-layer measurements — in-process
    /// ([`LocalReplays`]) or distributed across a fleet. Because a
    /// conforming source returns measurements bitwise identical to the
    /// local ones, the assembled table and timeline are bitwise
    /// identical too.
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

        let table = |rows: Vec<TrainingRow>| TrainingStepEvaluation {
            backend: "sim".to_string(),
            gpu: self.gpu().name().to_string(),
            rows,
        };

        match &query.parallelism {
            Parallelism::Multi {
                devices,
                interconnect,
                topology,
            } => {
                self.require_homogeneous(devices)?;
                let g = (devices.len() as u32).max(1);
                // One replay per unique shape — the single source both
                // views below are derived from.
                let runs: Vec<MultiGpuMeasurement> =
                    replays.multi_all(&unique, g, *interconnect, *topology)?;
                let of = |l: &ConvLayer| &runs[index[&LayerShape::of(l)]];

                // The graph is a function of (kind, devices) only: build
                // it once for the whole step and share it between the
                // per-row all-reduce charges and the scheduler, instead
                // of rebuilding per layer or per bucket.
                let base = interconnect.params();
                let topo = topology.map(|kind| Topology::build(kind, g));
                let all_reduce = |payload: f64| match &topo {
                    None => (
                        base.all_reduce_bytes(payload, g),
                        base.all_reduce_seconds(payload, g),
                    ),
                    Some(t) => (
                        t.all_reduce_bytes(&base, payload),
                        t.all_reduce_seconds(&base, payload),
                    ),
                };

                let rows: Vec<TrainingRow> = passes
                    .iter()
                    .map(|p| TrainingRow {
                        label: p.label.clone(),
                        forward: of(&p.fwd).to_estimate(self.gpu()),
                        dgrad: p.dgrad.as_ref().map(|d| of(d).to_estimate(self.gpu())),
                        wgrad: {
                            let mut est = of(&p.wgrad).to_estimate(self.gpu());
                            let (ar_bytes, ar_seconds) = all_reduce(p.grad_bytes as f64);
                            est.link_bytes += ar_bytes;
                            est.seconds += ar_seconds;
                            est.cycles += self.gpu().seconds_to_clks(ar_seconds);
                            est
                        },
                    })
                    .collect();

                let layer_passes: Vec<LayerPasses> = passes
                    .iter()
                    .map(|p| LayerPasses {
                        label: p.label.clone(),
                        forward_seconds: of(&p.fwd).step_seconds(self.gpu()),
                        dgrad_seconds: p.dgrad.as_ref().map(|d| of(d).step_seconds(self.gpu())),
                        wgrad_seconds: of(&p.wgrad).step_seconds(self.gpu()),
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
                    table: table(rows),
                    timeline,
                })
            }
            Parallelism::Single | Parallelism::Sharded { .. } => {
                let runs: Vec<crate::Measurement> =
                    replays.measure_all(&unique, &query.parallelism)?;
                let of = |l: &ConvLayer| runs[index[&LayerShape::of(l)]].to_estimate(self.gpu());
                let rows: Vec<TrainingRow> = passes
                    .iter()
                    .map(|p| TrainingRow {
                        label: p.label.clone(),
                        forward: of(&p.fwd),
                        dgrad: p.dgrad.as_ref().map(&of),
                        wgrad: of(&p.wgrad),
                    })
                    .collect();
                let timeline = StepTimeline::serial_compute(
                    "sim",
                    self.gpu().name(),
                    1,
                    serial_step_spans(&query.layers, &rows),
                );
                Ok(StepEvaluation {
                    table: table(rows),
                    timeline,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
