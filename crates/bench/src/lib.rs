//! # delta-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation (§VI–§VII and
//! the appendix); each regenerates the artifact's rows from the model
//! ([`delta_model`]), the measurement substrate ([`delta_sim`]), the
//! network zoo ([`delta_networks`]), and the prior-work baselines
//! ([`delta_baselines`]).
//!
//! Every experiment is runnable three ways:
//!
//! * a binary: `cargo run --release -p delta-bench --bin experiment -- fig11`
//!   (or `-- all` for every entry of [`experiments::ALL`])
//! * programmatically: [`experiments::fig11::run`]
//! * as a Criterion bench group (`cargo bench`)
//!
//! Output goes to stdout as an aligned table and to `results/<id>.csv`.
//!
//! The default [`Ctx`] runs the simulator at a reduced mini-batch with
//! batch/loop sampling so the full suite completes in minutes on one core;
//! the harness compares model and measurement as normalized ratios, which
//! stay stable across batch sizes (see [`Ctx::sim_batch`]).
//! `Ctx::full()` reproduces the paper's batch-256 configuration.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ctx;
pub mod experiments;
pub mod measure;
pub mod serve_client;
pub mod stats;
pub mod table;

pub use ctx::Ctx;
pub use table::Table;
