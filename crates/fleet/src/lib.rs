//! `delta_fleet`: distribute one query's simulation replays across
//! worker *processes* with a bitwise-exact merge.
//!
//! The trace-driven simulator's sharded replay is built on an
//! associative merge contract: every tile column replays against
//! private state, and the per-column results merge in pinned
//! ascending-column order into a result **bitwise identical for every
//! worker count** (PRs 2 and 6). That contract is exactly what makes
//! scale-past-one-process fan-out safe, and this crate is its service
//! form, mirroring the coordinator/executor shape of the lloom
//! exemplar:
//!
//! * [`executor`] — a long-running daemon (`delta executor --addr`)
//!   that owns one [`Simulator`](delta_sim::Simulator) and answers
//!   unit-replay jobs over TCP;
//! * [`coordinator`] — a [`ReplaySource`](delta_sim::ReplaySource)
//!   over the executors: the simulator answering an
//!   [`EvalQuery`](delta_model::query::EvalQuery) /
//!   [`StepQuery`](delta_model::query::StepQuery) splits it into replay
//!   units, the coordinator fans their jobs over the executors and
//!   returns the parts, and the simulator folds them exactly as it
//!   folds in-process parts — so the distributed answer is bitwise
//!   identical to the single-process one;
//! * [`protocol`] — the length-prefixed JSON wire format (vendored
//!   serde_json over `std::net`, no external dependencies): handshake,
//!   job, and result schemas, documented in `docs/FLEET.md`.
//!
//! Determinism makes robustness cheap, so it is built in rather than
//! bolted on: per-job timeouts with straggler re-dispatch, executor
//! death detection with job re-queue, idempotent duplicate-result
//! handling (the first result per unit wins; units are disjoint and
//! deterministic, so any duplicate is bitwise-equal anyway), and a
//! bounded retry budget that surfaces a clean
//! [`Error::Fleet`](delta_model::Error) on exhaustion.
//!
//! The handshake refuses mismatched backend/GPU/sampling fingerprints
//! using the same [`BackendFingerprint`](delta_model::BackendFingerprint)
//! comparison as the engine's persistent-cache header guard and
//! `delta serve`'s `GET /healthz` — a fleet whose members would answer
//! differently never gets to answer at all.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod coordinator;
pub mod executor;
pub mod protocol;

pub use coordinator::{Coordinator, FleetConfig, FleetStatsSnapshot};
pub use executor::{spawn_local_executors, ExecutorConfig, ExecutorHandle, FaultPlan};
pub use protocol::PROTOCOL_VERSION;
