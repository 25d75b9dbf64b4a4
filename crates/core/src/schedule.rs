//! Scheduled training-step timelines: the timeline half of a
//! [`StepEvaluation`](crate::query::StepEvaluation), produced by
//! [`crate::backend::Backend::evaluate_step`].
//!
//! A data-parallel training step is two interleaved resource streams per
//! device: *compute* (forward, then dgrad+wgrad in reverse layer order)
//! and *communication* (the gradient all-reduce). Serializing them — all
//! compute, then all exchange — is what the PR-3 multi-GPU layer priced;
//! real frameworks instead bucket gradients and launch each bucket's
//! all-reduce as soon as its last gradient is produced, hiding most of
//! the exchange behind the remaining backward compute. [`StepTimeline`]
//! records both streams as explicit spans plus the derived totals, so a
//! caller can read off the overlapped step time, the serial step time,
//! and how much communication stayed *exposed* (unhidden past the end of
//! compute).
//!
//! Two bounds hold for every valid timeline, by construction and in
//! floating point ([`StepTimeline::bounds_hold`]):
//!
//! ```text
//! max(compute, comm) <= step <= serial
//! ```
//!
//! `tests/integration_overlap.rs` checks them on every topology preset,
//! device count and bucket size.

use serde::{Deserialize, Serialize};
use std::fmt;

/// What a timeline span spends its time on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpanKind {
    /// Forward convolution of one layer.
    Forward,
    /// Data-gradient pass of one layer.
    Dgrad,
    /// Weight-gradient pass of one layer.
    Wgrad,
    /// All-reduce of one gradient bucket.
    AllReduce,
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SpanKind::Forward => "forward",
            SpanKind::Dgrad => "dgrad",
            SpanKind::Wgrad => "wgrad",
            SpanKind::AllReduce => "allreduce",
        })
    }
}

/// One contiguous interval of work on a device's compute or
/// communication stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// What the interval does (layer label, or bucket description for
    /// all-reduce spans).
    pub label: String,
    /// Which kind of work it is.
    pub kind: SpanKind,
    /// Interval start, seconds from the step's start.
    pub start_seconds: f64,
    /// Interval end, seconds from the step's start.
    pub end_seconds: f64,
}

impl Span {
    /// The interval's duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_seconds - self.start_seconds
    }
}

/// One device's view of the step: its compute stream and its
/// communication stream. Homogeneous data-parallel replicas execute the
/// same schedule, so today every device's timeline is identical; the
/// per-device shape is the seam heterogeneous fleets will fill in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceTimeline {
    /// Device index.
    pub device: u32,
    /// Compute spans in execution order (forward 0..L, then backward
    /// L−1..0 as dgrad/wgrad pairs).
    pub compute: Vec<Span>,
    /// Communication spans in launch order (one per gradient bucket;
    /// empty for single-device or zero-communication runs).
    pub comm: Vec<Span>,
    /// Communication that ran past the end of this device's compute.
    pub exposed_comm_seconds: f64,
}

/// A whole training step's schedule across `devices` data-parallel
/// replicas: per-device span streams plus the derived totals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepTimeline {
    /// Which backend produced the schedule (`"model"` / `"sim"`).
    pub backend: String,
    /// Device name.
    pub gpu: String,
    /// Number of data-parallel devices.
    pub devices: u32,
    /// Whether bucket all-reduces were overlapped with backward compute
    /// (`false` = the serial schedule: all communication after compute).
    pub overlap: bool,
    /// Gradient bucket size in bytes (0 when the backend has no
    /// bucketing, e.g. the serial fallback).
    pub bucket_bytes: u64,
    /// Per-device timelines, in device order.
    pub per_device: Vec<DeviceTimeline>,
    /// End of the busiest device's compute stream, seconds.
    pub compute_seconds: f64,
    /// Total all-reduce time (sum of bucket durations), seconds.
    pub comm_seconds: f64,
    /// Communication left exposed past the end of compute, seconds.
    pub exposed_comm_seconds: f64,
    /// The scheduled step time: `max(compute end, last comm end)`.
    pub step_seconds: f64,
    /// The serial step time: compute followed by every bucket
    /// back-to-back. Equal to `step_seconds` when `overlap` is off.
    pub serial_seconds: f64,
}

impl StepTimeline {
    /// Communication hidden behind backward compute, seconds.
    pub fn hidden_comm_seconds(&self) -> f64 {
        self.comm_seconds - self.exposed_comm_seconds
    }

    /// Fraction of communication left exposed (`0` when there is no
    /// communication at all).
    pub fn exposed_fraction(&self) -> f64 {
        if self.comm_seconds == 0.0 {
            0.0
        } else {
            self.exposed_comm_seconds / self.comm_seconds
        }
    }

    /// Speedup of the scheduled step over the serial step (`>= 1`).
    pub fn speedup_over_serial(&self) -> f64 {
        if self.step_seconds == 0.0 {
            1.0
        } else {
            self.serial_seconds / self.step_seconds
        }
    }

    /// The scheduling bounds every valid timeline satisfies:
    /// `max(compute, comm) <= step <= serial`. Exact in floating point
    /// for schedules built by this crate's constructors (a tiny relative
    /// slack absorbs backends that assemble totals in another order).
    pub fn bounds_hold(&self) -> bool {
        let eps = 1e-12 * self.serial_seconds.abs().max(1e-30);
        let floor = self.compute_seconds.max(self.comm_seconds);
        floor <= self.step_seconds + eps && self.step_seconds <= self.serial_seconds + eps
    }

    /// Builds the **serial fallback** timeline: the given compute spans
    /// back-to-back on every device, no communication. This is what
    /// backends without a collective scheduler (the analytical model)
    /// bundle into [`crate::backend::Backend::evaluate_step`]'s answer —
    /// step and serial time coincide and the bounds hold trivially.
    pub fn serial_compute(
        backend: &str,
        gpu: &str,
        devices: u32,
        spans: Vec<(String, SpanKind, f64)>,
    ) -> StepTimeline {
        let mut t = 0.0f64;
        let compute: Vec<Span> = spans
            .into_iter()
            .map(|(label, kind, seconds)| {
                let start = t;
                t += seconds;
                Span {
                    label,
                    kind,
                    start_seconds: start,
                    end_seconds: t,
                }
            })
            .collect();
        let g = devices.max(1);
        StepTimeline {
            backend: backend.to_string(),
            gpu: gpu.to_string(),
            devices: g,
            overlap: false,
            bucket_bytes: 0,
            per_device: (0..g)
                .map(|device| DeviceTimeline {
                    device,
                    compute: compute.clone(),
                    comm: Vec::new(),
                    exposed_comm_seconds: 0.0,
                })
                .collect(),
            compute_seconds: t,
            comm_seconds: 0.0,
            exposed_comm_seconds: 0.0,
            step_seconds: t,
            serial_seconds: t,
        }
    }
}

impl fmt::Display for StepTimeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "training-step timeline ({} on {}, {} device(s), overlap {})",
            self.backend,
            self.gpu,
            self.devices,
            if self.overlap { "on" } else { "off" }
        )?;
        writeln!(
            f,
            "  compute {:.3} ms | comm {:.3} ms | exposed {:.3} ms ({:.0}% hidden)",
            self.compute_seconds * 1e3,
            self.comm_seconds * 1e3,
            self.exposed_comm_seconds * 1e3,
            ((1.0 - self.exposed_fraction()) * 100.0).max(0.0)
        )?;
        writeln!(
            f,
            "  step {:.3} ms | serial {:.3} ms | {:.2}x over serial",
            self.step_seconds * 1e3,
            self.serial_seconds * 1e3,
            self.speedup_over_serial()
        )?;
        // All devices execute the same schedule; render device 0.
        if let Some(dev) = self.per_device.first() {
            writeln!(f, "  device {} compute:", dev.device)?;
            for s in &dev.compute {
                writeln!(
                    f,
                    "    [{:>10.4} ..{:>10.4}] {:<9} {}",
                    s.start_seconds * 1e3,
                    s.end_seconds * 1e3,
                    s.kind,
                    s.label
                )?;
            }
            if !dev.comm.is_empty() {
                writeln!(f, "  device {} comm:", dev.device)?;
                for s in &dev.comm {
                    writeln!(
                        f,
                        "    [{:>10.4} ..{:>10.4}] {:<9} {}",
                        s.start_seconds * 1e3,
                        s.end_seconds * 1e3,
                        s.kind,
                        s.label
                    )?;
                }
            }
        }
        Ok(())
    }
}

/// One gradient bucket: the positions (into the ready-ordered gradient
/// list handed to [`bucketize`]) it covers, and their total bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GradBucket {
    /// Indices into the bucketized slice, in ready order.
    pub items: Vec<usize>,
    /// Sum of the covered gradients' bytes.
    pub bytes: u64,
}

/// Partitions `grad_bytes` (per-gradient byte counts, already in
/// all-reduce-ready order — i.e. reverse layer order for backprop) into
/// buckets of at least `bucket_bytes` each, closing a bucket as soon as
/// it reaches the threshold.
///
/// The partition is **ordered, disjoint, and exhaustive**: concatenating
/// the buckets' `items` re-yields `0..grad_bytes.len()` exactly, and the
/// buckets' `bytes` sum to the input's total. Gradients are never split
/// across buckets (a single gradient larger than `bucket_bytes` gets a
/// bucket of its own size); `bucket_bytes` larger than the whole model
/// yields a single bucket, and `bucket_bytes == 0` degenerates to one
/// bucket per gradient.
pub fn bucketize(grad_bytes: &[u64], bucket_bytes: u64) -> Vec<GradBucket> {
    let mut buckets = Vec::new();
    let mut items = Vec::new();
    let mut bytes = 0u64;
    for (i, &b) in grad_bytes.iter().enumerate() {
        items.push(i);
        bytes += b;
        if bytes >= bucket_bytes {
            buckets.push(GradBucket {
                items: std::mem::take(&mut items),
                bytes,
            });
            bytes = 0;
        }
    }
    if !items.is_empty() {
        buckets.push(GradBucket { items, bytes });
    }
    buckets
}

/// The canonical all-reduce span label for bucket `k`: its size in MiB
/// and the range of (ready-ordered) gradient labels it covers. Shared
/// by the collective scheduler and the engine's step-cache relabeling,
/// so a warm step-cache hit reproduces a fresh schedule's span labels
/// bitwise.
pub fn bucket_label(k: usize, bucket: &GradBucket, ready_labels: &[&str]) -> String {
    let first = ready_labels[*bucket.items.first().expect("buckets are non-empty")];
    let last = ready_labels[*bucket.items.last().expect("buckets are non-empty")];
    let mib = bucket.bytes as f64 / (1 << 20) as f64;
    if first == last {
        format!("bucket {k} ({mib:.2} MiB: {first})")
    } else {
        format!("bucket {k} ({mib:.2} MiB: {first}..{last})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans() -> Vec<(String, SpanKind, f64)> {
        vec![
            ("a".to_string(), SpanKind::Forward, 1.0),
            ("b".to_string(), SpanKind::Forward, 2.0),
            ("b".to_string(), SpanKind::Dgrad, 2.5),
            ("b".to_string(), SpanKind::Wgrad, 1.5),
            ("a".to_string(), SpanKind::Wgrad, 1.0),
        ]
    }

    #[test]
    fn serial_compute_chains_spans_and_has_no_comm() {
        let t = StepTimeline::serial_compute("model", "TITAN Xp", 4, spans());
        assert_eq!(t.devices, 4);
        assert_eq!(t.per_device.len(), 4);
        assert_eq!(t.compute_seconds, 8.0);
        assert_eq!(t.step_seconds, 8.0);
        assert_eq!(t.serial_seconds, 8.0);
        assert_eq!(t.comm_seconds, 0.0);
        assert_eq!(t.exposed_fraction(), 0.0);
        assert_eq!(t.speedup_over_serial(), 1.0);
        assert!(t.bounds_hold());
        let dev = &t.per_device[0];
        assert_eq!(dev.compute.len(), 5);
        // Spans are contiguous and ordered.
        for w in dev.compute.windows(2) {
            assert_eq!(w[0].end_seconds, w[1].start_seconds);
        }
        assert_eq!(dev.compute[0].start_seconds, 0.0);
        assert_eq!(dev.compute[4].end_seconds, 8.0);
        assert!(dev.comm.is_empty());
        // Zero devices clamps to one.
        let one = StepTimeline::serial_compute("model", "g", 0, Vec::new());
        assert_eq!(one.devices, 1);
        assert_eq!(one.step_seconds, 0.0);
        assert!(one.bounds_hold());
    }

    #[test]
    fn bounds_reject_inverted_totals() {
        let mut t = StepTimeline::serial_compute("model", "g", 1, spans());
        assert!(t.bounds_hold());
        t.step_seconds = t.serial_seconds + 1.0;
        assert!(!t.bounds_hold(), "step above serial must fail");
        t.step_seconds = t.compute_seconds.max(t.comm_seconds) - 1.0;
        assert!(!t.bounds_hold(), "step below the floor must fail");
    }

    #[test]
    fn display_and_serde_round_trip() {
        let t = StepTimeline::serial_compute("sim", "V100", 2, spans());
        let s = t.to_string();
        assert!(s.contains("overlap off") && s.contains("device 0 compute"));
        assert!(s.contains("wgrad"));
        let json = serde_json::to_string(&t).unwrap();
        let back: StepTimeline = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn bucket_labels_render_single_and_ranged_buckets() {
        let buckets = bucketize(&[8 << 20, 8 << 20, 4 << 20], 16 << 20);
        assert_eq!(buckets.len(), 2);
        let labels = ["l2", "l1", "l0"];
        assert_eq!(
            bucket_label(0, &buckets[0], &labels),
            "bucket 0 (16.00 MiB: l2..l1)"
        );
        assert_eq!(
            bucket_label(1, &buckets[1], &labels),
            "bucket 1 (4.00 MiB: l0)"
        );
    }

    #[test]
    fn span_seconds_and_kind_display() {
        let s = Span {
            label: "x".into(),
            kind: SpanKind::AllReduce,
            start_seconds: 1.0,
            end_seconds: 3.5,
        };
        assert_eq!(s.seconds(), 2.5);
        assert_eq!(SpanKind::AllReduce.to_string(), "allreduce");
        assert_eq!(SpanKind::Forward.to_string(), "forward");
    }
}
