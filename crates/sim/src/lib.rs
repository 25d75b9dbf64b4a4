//! # delta-sim — trace-driven GPU memory-hierarchy simulator
//!
//! The DeLTA paper validates its analytical model against nvprof
//! measurements of real GPUs. This crate is the reproduction's measurement
//! substrate in their place, since the reproduction runs without a GPU
//! or its profiler: it *executes* the implicit-GEMM convolution at
//! the address level and measures what the memory system actually does,
//! independently of the closed-form DeLTA equations:
//!
//! 1. [`trace`] generates the exact addresses a cuDNN-style
//!    implicit-precomp-GEMM kernel touches — BCHW tensors, per-warp im2col
//!    column loads, filter tile loads, padding predication (paper Fig. 5);
//! 2. [`coalesce`] merges each warp's 32 references into L1 transactions
//!    at the device's request granularity (128 B Pascal / 32 B Volta);
//! 3. [`cache`] runs them through sectored, set-associative, LRU L1 (per
//!    SM) and L2 (shared) models via [`hierarchy`];
//! 4. [`sched`] replays CTAs in the column-wise, loop-lockstep order the
//!    paper assumes for concurrent CTA batches (paper §IV-C);
//! 5. [`timing`] accounts cycles for the software-pipelined main loop from
//!    the *measured per-loop traffic* (which, unlike the model's uniform
//!    average, varies across loops — the effect the paper cites as its
//!    main source of underestimation, §VII-B);
//! 6. [`dram`] provides the latency-vs-bandwidth queueing model behind the
//!    paper's Fig. 18 microbenchmark.
//!
//! The stages compose through [`stages::CtaBatch`] — one CTA batch is a
//! self-contained unit of work — and [`Simulator`] sequences batches and
//! columns. A single large layer can additionally be **sharded**: a
//! [`shard::ShardPlan`] partitions the tile columns over parallel
//! workers, each replaying its disjoint column set against a private
//! hierarchy, and the per-shard counters merge exactly through
//! [`hierarchy::HierarchyStats`] ([`hierarchy::MergeableHierarchy`]).
//! The same contract scales past one device: [`multigpu`] partitions
//! columns (and the minibatch) across per-device GPUs via
//! [`multigpu::DevicePlan`] and charges cross-device halo and
//! gradient-all-reduce traffic through an [`interconnect`] model —
//! under the zero-cost `ideal` preset a G-device run is bitwise
//! identical to the single-device sharded run. The fabric can be priced
//! two ways: the legacy scalar presets, or an explicit [`topology`]
//! graph (ring/switch/mesh/hierarchical) whose hop counts and link
//! contention *derive* the effective byte multiplier; on top of either,
//! the [`collective`] scheduler buckets weight gradients and overlaps
//! each bucket's all-reduce with the remaining backward compute,
//! emitting a per-device step timeline.
//! The simulator also implements `delta_model::Backend`, so the
//! parallel evaluation engine (`delta_model::engine`) can drive it over
//! whole networks interchangeably with the analytical model.
//!
//! The entry point is [`Simulator`]:
//!
//! ```rust
//! use delta_model::{ConvLayer, GpuSpec};
//! use delta_sim::{SimConfig, Simulator};
//!
//! # fn main() -> Result<(), delta_model::Error> {
//! let layer = ConvLayer::builder("demo")
//!     .batch(2).input(16, 14, 14).output_channels(32)
//!     .filter(3, 3).pad(1).build()?;
//! let sim = Simulator::new(GpuSpec::titan_xp(), SimConfig::default());
//! let m = sim.run(&layer);
//! assert!(m.l1_bytes >= m.l2_bytes);
//! assert!(m.l2_bytes >= m.dram_read_bytes);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod coalesce;
pub mod collective;
pub mod dram;
pub mod hierarchy;
pub mod multigpu;
pub mod sched;
pub mod shard;
pub mod sim;
pub mod stages;
pub mod tensor;
pub mod tensorcore;
pub mod timing;
pub mod trace;

// The interconnect and topology pricing moved into `delta_model` when
// the query API landed (the query's `Parallelism::Multi` carries their
// kinds); the familiar `delta_sim` paths keep working via re-export.
pub use delta_model::interconnect;
pub use delta_model::topology;

pub use collective::{bucketize, GradBucket, LayerPasses, LocalReplays, ReplaySource};
pub use dram::DramChannelModel;
pub use hierarchy::{HierarchyStats, MemoryHierarchy, MergeableHierarchy};
pub use interconnect::{Interconnect, InterconnectKind};
pub use multigpu::{DevicePlan, MultiGpuMeasurement};
pub use shard::ShardPlan;
pub use sim::{ColumnReplay, Measurement, ShardedRun, SimConfig, Simulator, Totals};
pub use stages::BatchStats;
pub use tensorcore::Datapath;
pub use topology::{Topology, TopologyKind};
