//! # delta-model — the DeLTA analytical GPU model for CNN layers
//!
//! This crate reproduces the analytical model of *DeLTA: GPU Performance
//! Model for Deep Learning Applications with In-depth Memory System Traffic
//! Analysis* (Lym et al., ISPASS 2019). Given a convolution-layer
//! configuration ([`ConvLayer`]) and a GPU hardware description
//! ([`GpuSpec`]), DeLTA predicts:
//!
//! * the memory traffic at **every level of the GPU memory hierarchy**
//!   (L1 cache, L2 cache, DRAM) for the im2col / implicit-GEMM convolution
//!   algorithm used by cuDNN (paper §IV, Eqs. 2–10), and
//! * the layer **execution time** and the **hardware resource that
//!   bottlenecks** it (paper §V, Eqs. 11–18).
//!
//! The model is a pure computation: no GPU is required.
//!
//! ## Quick start
//!
//! ```rust
//! use delta_model::{ConvLayer, Delta, GpuSpec};
//!
//! # fn main() -> Result<(), delta_model::Error> {
//! // AlexNet conv2 with a mini-batch of 256.
//! let layer = ConvLayer::builder("alexnet_conv2")
//!     .batch(256)
//!     .input(96, 27, 27)
//!     .output_channels(256)
//!     .filter(5, 5)
//!     .stride(1)
//!     .pad(2)
//!     .build()?;
//!
//! let delta = Delta::new(GpuSpec::titan_xp());
//! let report = delta.analyze(&layer)?;
//!
//! println!("L1 traffic : {:.2} GB", report.traffic.l1_bytes / 1e9);
//! println!("L2 traffic : {:.2} GB", report.traffic.l2_bytes / 1e9);
//! println!("DRAM       : {:.2} GB", report.traffic.dram_bytes / 1e9);
//! println!("time       : {:.3} ms ({})", report.perf.millis(), report.perf.bottleneck);
//! # Ok(())
//! # }
//! ```
//!
//! ## Module map
//!
//! | module | paper section |
//! |---|---|
//! | [`layer`] | §II-B conv-layer workload and im2col GEMM dimensions |
//! | [`gpu`] | §VI Table I device specifications |
//! | [`tiling`] | §IV-B CTA tile selection (Fig. 6) and occupancy |
//! | [`traffic`] | §IV memory-traffic model (Eqs. 2–10) |
//! | [`perf`] | §V performance model (Eqs. 11–18, Fig. 10 cases) |
//! | [`scaling`] | §VII-C GPU design-space scaling study (Fig. 16) |
//! | [`sweep`] | Appendix A sensitivity-study sweeps (Fig. 17) |
//! | [`query`] | — the evaluation-request vocabulary (`EvalQuery`, `StepQuery`) |
//! | [`backend`] | — unified query-answering estimator interface (model & simulator) |
//! | [`engine`] | — parallel, fingerprint-cached query driver |
//! | [`interconnect`] | — cross-device fabric presets and pricing |
//! | [`topology`] | — explicit device-graph pricing (ring/switch/mesh/hierarchical) |

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod engine;
pub mod error;
pub mod gpu;
pub mod interconnect;
pub mod layer;
pub mod model;
pub mod perf;
pub mod query;
pub mod report;
pub mod scaling;
pub mod schedule;
pub mod sweep;
pub mod tiling;
pub mod topology;
pub mod traffic;
pub mod training;

pub use backend::{
    Backend, BackendFingerprint, EstimateSource, FingerprintMismatch, LayerEstimate,
};
pub use engine::{Engine, NetworkEvaluation};
pub use error::Error;
pub use gpu::{GpuSpec, MmaShape};
pub use interconnect::{Interconnect, InterconnectKind};
pub use layer::{ConvLayer, LayerKind};
pub use model::{Delta, DeltaOptions, MliMode};
pub use perf::{Bottleneck, PerfEstimate};
pub use query::{EvalQuery, LayerShape, Parallelism, Pass, StepEvaluation, StepQuery};
pub use report::LayerReport;
pub use scaling::DesignOption;
pub use schedule::StepTimeline;
pub use tiling::CtaTile;
pub use topology::{Topology, TopologyKind};
pub use traffic::TrafficEstimate;

/// Bytes per FP32 element (the paper models 32-bit floating-point training,
/// §IV).
pub const BYTES_PER_ELEMENT: u64 = 4;

/// Threads per warp on all modeled GPUs.
pub const WARP_SIZE: u64 = 32;

/// Minimum memory-transaction granularity: one 32 B sector of a 128 B cache
/// line (§IV).
pub const SECTOR_BYTES: u64 = 32;

/// L1/L2 cache-line size on the modeled GPUs.
pub const LINE_BYTES: u64 = 128;
