//! The coordinator: runs a query's replay units on executor processes.
//! It hands the simulator a fleet-backed [`ReplaySource`]; the simulator
//! splits the query into units, and the coordinator turns each unit
//! into jobs, fans them over executor connections, and returns one part
//! per unit.
//!
//! # Why the distributed answer is bitwise identical
//!
//! The coordinator never invents a decomposition and never merges.
//! [`Simulator::evaluate_with`] and [`Simulator::evaluate_step_with`]
//! build the units (a whole layer, or one shard's run of tile columns)
//! exactly as the in-process path does, and fold the returned parts
//! through the same merge. The coordinator only maps a unit to jobs (one
//! `Sequential` job per whole layer, one `Column` job per tile column)
//! and the replies back to parts, and executors run the same unit body
//! ([`Simulator::replay_unit`]) as a local worker thread. Which executor
//! computed which job, in which order, and how many times is therefore
//! invisible to the result.
//!
//! # Robustness
//!
//! Each worker thread owns one executor connection and drains a shared
//! job board. A job that times out ([`FleetConfig::job_timeout`]) or
//! whose connection drops is re-queued for any worker to claim
//! (straggler re-dispatch / death recovery); replies carrying an
//! already-recorded job id are dropped (duplicate delivery is
//! idempotent — units are deterministic, so a duplicate is bitwise
//! equal anyway); a job re-claimed more than
//! [`FleetConfig::retry_budget`] times, or a fleet with no live
//! executors left, surfaces a clean [`Error::Fleet`] instead of a hang
//! or a partial result.

use crate::protocol::{
    read_frame, write_frame, Hello, HelloReply, JobKind, JobMsg, JobReply, PROTOCOL_VERSION,
};
use delta_model::{
    Backend, BackendFingerprint, Error, EvalQuery, GpuSpec, LayerEstimate, LayerShape,
    StepEvaluation, StepQuery,
};
use delta_obs::{span, CorrelationGuard, Counter, Registry, SpanEvent};
use delta_sim::{ReplayPart, ReplaySource, ReplayUnit, Simulator};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io;
use std::net::TcpStream;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Installs a fresh correlation id for one distributed query when
/// tracing is on: spans recorded on this thread, on the worker threads
/// dispatching the query's jobs, and on every executor that runs them
/// then stitch together under one id. `None` (no id minted, no
/// thread-local written) when tracing is off.
fn trace_query() -> Option<CorrelationGuard> {
    delta_obs::trace::enabled()
        .then(|| delta_obs::trace::with_correlation(delta_obs::trace::next_correlation_id()))
}

/// Fleet configuration: where the executors are and how patient the
/// coordinator is with them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetConfig {
    /// Executor addresses (`host:port`), one worker connection each.
    pub executors: Vec<String>,
    /// Per-job reply deadline. A job unanswered past it is re-queued
    /// for another executor and the slow connection is dropped.
    pub job_timeout: Duration,
    /// Maximum dispatch attempts per job. Exhausting it fails the whole
    /// run with [`Error::Fleet`] — deterministic jobs that keep timing
    /// out signal a sick fleet, not bad luck.
    pub retry_budget: u32,
}

impl FleetConfig {
    /// A config for `executors` with the default patience (30 s
    /// per-job timeout, 3 attempts per job).
    pub fn new(executors: Vec<String>) -> FleetConfig {
        FleetConfig {
            executors,
            job_timeout: Duration::from_secs(30),
            retry_budget: 3,
        }
    }
}

/// Run counters, updated across all of a coordinator's distributed
/// runs. [`delta_obs::Counter`]s (cheap shared atomics), so the same
/// values behind [`Coordinator::stats`] can be registered for scraping
/// via [`Coordinator::register_metrics`].
#[derive(Debug, Default)]
struct FleetStats {
    dispatched: Counter,
    completed: Counter,
    redispatches: Counter,
    duplicates_dropped: Counter,
    executors_lost: Counter,
}

/// A point-in-time copy of the coordinator's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetStatsSnapshot {
    /// Jobs written to an executor connection (re-dispatches included).
    pub dispatched: u64,
    /// Unit results recorded on the board.
    pub completed: u64,
    /// Jobs re-queued after a timeout or a dropped connection.
    pub redispatches: u64,
    /// Replies discarded because their job id was already recorded.
    pub duplicates_dropped: u64,
    /// Executor connections given up on (reconnect refused).
    pub executors_lost: u64,
}

/// The distributed [`Backend`]: answers the same queries as the
/// in-process [`Simulator`] — bitwise — by fanning unit replays over a
/// fleet of executor processes.
///
/// The embedded simulator never replays anything itself; it splits
/// queries into units, folds the returned parts and assembles steps,
/// and must be configured identically to the executors' simulators —
/// the handshake enforces exactly that. Its replay counter counts one
/// replay per folded layer, as an in-process simulator's does.
#[derive(Debug)]
pub struct Coordinator {
    sim: Simulator,
    config: FleetConfig,
    fingerprint: BackendFingerprint,
    stats: FleetStats,
}

/// The shared job board one distributed run drains.
struct Board {
    /// Indices into the run's job list, ready to claim.
    pending: VecDeque<usize>,
    /// Dispatch attempts per job (first dispatch counts as 1).
    attempts: Vec<u32>,
    /// Recorded replies, indexed by job. First write wins.
    done: Vec<Option<JobReply>>,
    /// How many `done` slots are filled.
    completed: usize,
    /// First fatal error; ends the run for every worker.
    fatal: Option<Error>,
}

impl Coordinator {
    /// Builds a coordinator over `config.executors`, eagerly
    /// handshaking every executor so a misconfigured fleet is refused
    /// at connection time, not replay time.
    ///
    /// # Errors
    ///
    /// [`Error::Fleet`] if the fleet is empty, an executor is
    /// unreachable, or an executor's backend fingerprint differs from
    /// the planning simulator's (the refusal names both fingerprints).
    pub fn connect(sim: Simulator, config: FleetConfig) -> Result<Coordinator, Error> {
        if config.executors.is_empty() {
            return Err(Error::Fleet {
                context: "handshake".into(),
                reason: "no executors configured".into(),
            });
        }
        let fingerprint = BackendFingerprint::of(&sim);
        let coordinator = Coordinator {
            sim,
            config,
            fingerprint,
            stats: FleetStats::default(),
        };
        for addr in &coordinator.config.executors {
            coordinator.dial(addr).map_err(|e| Error::Fleet {
                context: "handshake".into(),
                reason: format!("executor {addr}: {e}"),
            })?;
        }
        Ok(coordinator)
    }

    /// The planning simulator (same GPU and sampling configuration as
    /// every executor in the fleet).
    pub fn simulator(&self) -> &Simulator {
        &self.sim
    }

    /// A snapshot of the run counters accumulated so far.
    pub fn stats(&self) -> FleetStatsSnapshot {
        FleetStatsSnapshot {
            dispatched: self.stats.dispatched.get(),
            completed: self.stats.completed.get(),
            redispatches: self.stats.redispatches.get(),
            duplicates_dropped: self.stats.duplicates_dropped.get(),
            executors_lost: self.stats.executors_lost.get(),
        }
    }

    /// Registers the fleet counters (the same atomics behind
    /// [`Self::stats`]) under `delta_fleet_*` names, plus the planning
    /// simulator's replay counter as `delta_sim_replays_total`.
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_counter(
            "delta_fleet_jobs_dispatched_total",
            "Jobs written to an executor connection (re-dispatches included)",
            &[],
            &self.stats.dispatched,
        );
        registry.register_counter(
            "delta_fleet_jobs_completed_total",
            "Unit results recorded on the job board",
            &[],
            &self.stats.completed,
        );
        registry.register_counter(
            "delta_fleet_redispatches_total",
            "Jobs re-queued after a timeout or dropped connection",
            &[],
            &self.stats.redispatches,
        );
        registry.register_counter(
            "delta_fleet_duplicates_dropped_total",
            "Replies discarded because their job id was already recorded",
            &[],
            &self.stats.duplicates_dropped,
        );
        registry.register_counter(
            "delta_fleet_executors_lost_total",
            "Executor connections given up on (reconnect refused)",
            &[],
            &self.stats.executors_lost,
        );
        registry.register_counter(
            "delta_sim_replays_total",
            "Full-layer replays folded from executor parts",
            &[],
            &self.sim.replay_counter(),
        );
    }

    /// Opens a connection to `addr` and handshakes it: protocol
    /// revision and [`BackendFingerprint`] must match, checked on both
    /// sides (the executor refuses our mismatch; we independently
    /// refuse its echoed fingerprint).
    fn dial(&self, addr: &str) -> io::Result<TcpStream> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(self.config.job_timeout))?;
        write_frame(
            &mut stream,
            &Hello {
                protocol: PROTOCOL_VERSION,
                fingerprint: self.fingerprint.clone(),
                version: env!("CARGO_PKG_VERSION").to_string(),
            },
        )?;
        let reply: HelloReply = read_frame(&mut stream)?;
        if !reply.ok {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                reply
                    .error
                    .unwrap_or_else(|| "handshake refused without a reason".into()),
            ));
        }
        if self.fingerprint.mismatch(&reply.fingerprint).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "fingerprint mismatch: coordinator expects {}, executor runs {}; \
                     results would not be interchangeable",
                    self.fingerprint, reply.fingerprint
                ),
            ));
        }
        Ok(stream)
    }

    /// Fans `jobs` over the fleet and returns one reply per job, in job
    /// order. Job ids are the indices into `jobs`, so replies land in
    /// the pinned unit order the simulator's merge validates.
    ///
    /// # Errors
    ///
    /// [`Error::Fleet`] when a job fails on an executor, a job's retry
    /// budget is exhausted, or every executor is lost with work left.
    fn run_jobs(&self, mut jobs: Vec<JobMsg>) -> Result<Vec<JobReply>, Error> {
        let total = jobs.len();
        if total == 0 {
            return Ok(Vec::new());
        }
        let trace = delta_obs::trace::enabled();
        let corr = delta_obs::trace::current_correlation();
        for (i, j) in jobs.iter_mut().enumerate() {
            j.id = i as u64;
            j.corr = corr;
            j.trace = trace;
        }
        let board = Mutex::new(Board {
            pending: (0..total).collect(),
            attempts: vec![0; total],
            done: vec![None; total],
            completed: 0,
            fatal: None,
        });
        let work_left = Condvar::new();
        let jobs = &jobs;
        let board = &board;
        let work_left = &work_left;
        std::thread::scope(|scope| {
            for addr in &self.config.executors {
                scope.spawn(move || self.worker(addr, jobs, board, work_left));
            }
        });
        let board = board.lock().unwrap();
        if let Some(e) = &board.fatal {
            return Err(e.clone());
        }
        if board.completed < total {
            return Err(Error::Fleet {
                context: "dispatch".into(),
                reason: format!(
                    "all {} executors lost with {} of {total} jobs incomplete",
                    self.config.executors.len(),
                    total - board.completed
                ),
            });
        }
        Ok(board
            .done
            .iter()
            .map(|r| r.clone().expect("completed board has every slot filled"))
            .collect())
    }

    /// One worker: a connection to `addr`, claiming jobs off the board
    /// until the run completes, turns fatal, or the executor is lost.
    fn worker(&self, addr: &str, jobs: &[JobMsg], board: &Mutex<Board>, work_left: &Condvar) {
        let mut conn = match self.dial(addr) {
            Ok(c) => c,
            Err(_) => {
                self.stats.executors_lost.inc();
                return;
            }
        };
        while let Some(idx) = self.claim(jobs.len(), board, work_left) {
            match self.dispatch(&mut conn, &jobs[idx], board, work_left) {
                Outcome::Resolved => {}
                Outcome::Retry => {
                    // The connection is suspect (timed out, dropped, or
                    // desynchronized): re-queue the unit for anyone and
                    // replace the connection. An executor that refuses
                    // the redial is lost; the remaining workers drain
                    // the board.
                    self.requeue(idx, board, work_left);
                    match self.dial(addr) {
                        Ok(c) => conn = c,
                        Err(_) => {
                            self.stats.executors_lost.inc();
                            return;
                        }
                    }
                }
                Outcome::Fatal(e) => {
                    let mut b = board.lock().unwrap();
                    if b.fatal.is_none() {
                        b.fatal = Some(e);
                    }
                    work_left.notify_all();
                    return;
                }
            }
        }
    }

    /// Claims the next pending job, blocking while the board is empty
    /// but the run unfinished. Returns `None` when the run is over
    /// (complete or fatal); turns fatal itself when a claimed job's
    /// retry budget is exhausted.
    fn claim(&self, total: usize, board: &Mutex<Board>, work_left: &Condvar) -> Option<usize> {
        let mut b = board.lock().unwrap();
        loop {
            if b.fatal.is_some() || b.completed == total {
                return None;
            }
            if let Some(idx) = b.pending.pop_front() {
                if b.done[idx].is_some() {
                    // Recorded while queued (duplicate delivery beat a
                    // re-dispatch): nothing to do.
                    continue;
                }
                b.attempts[idx] += 1;
                if b.attempts[idx] > self.config.retry_budget {
                    b.fatal = Some(Error::Fleet {
                        context: "dispatch".into(),
                        reason: format!(
                            "retry budget of {} dispatches exhausted for job {} \
                             ({} of {} jobs completed)",
                            self.config.retry_budget, idx, b.completed, total
                        ),
                    });
                    work_left.notify_all();
                    return None;
                }
                return Some(idx);
            }
            b = work_left.wait(b).unwrap();
        }
    }

    /// Re-queues a job whose dispatch did not resolve.
    fn requeue(&self, idx: usize, board: &Mutex<Board>, work_left: &Condvar) {
        self.stats.redispatches.inc();
        let mut b = board.lock().unwrap();
        if b.done[idx].is_none() {
            b.pending.push_back(idx);
        }
        work_left.notify_all();
    }

    /// Sends one job and reads until its reply arrives (recording any
    /// stale replies encountered on the way — first result per id
    /// wins, duplicates are dropped).
    fn dispatch(
        &self,
        conn: &mut TcpStream,
        job: &JobMsg,
        board: &Mutex<Board>,
        work_left: &Condvar,
    ) -> Outcome {
        // Worker threads have no correlation of their own: adopt the
        // job's, so the dispatch span stitches with the query it
        // belongs to.
        let _corr = (job.corr != 0).then(|| delta_obs::trace::with_correlation(job.corr));
        let _span = span!("fleet.dispatch", job = job.id);
        self.stats.dispatched.inc();
        if write_frame(conn, job).is_err() {
            return Outcome::Retry;
        }
        loop {
            let mut reply: JobReply = match read_frame(conn) {
                Ok(r) => r,
                // Timeouts and dropped connections alike: the straggler
                // re-dispatch path.
                Err(_) => return Outcome::Retry,
            };
            if !reply.ok {
                return Outcome::Fatal(Error::Fleet {
                    context: "replay".into(),
                    reason: reply
                        .error
                        .unwrap_or_else(|| format!("job {} failed without a reason", reply.id)),
                });
            }
            let id = reply.id as usize;
            let mine = reply.id == job.id;
            // Executor spans ride in the reply but do not belong on the
            // board: lift them out and re-record them locally, only for
            // the reply that wins the slot (a duplicate's spans would
            // double every executor-side event in the trace).
            let spans: Vec<SpanEvent> = std::mem::take(&mut reply.spans)
                .into_iter()
                .map(SpanEvent::from)
                .collect();
            {
                let mut b = board.lock().unwrap();
                if id >= b.done.len() {
                    // An id we never issued: the stream is corrupt.
                    return Outcome::Retry;
                }
                if b.done[id].is_some() {
                    self.stats.duplicates_dropped.inc();
                } else {
                    b.done[id] = Some(reply);
                    b.completed += 1;
                    self.stats.completed.inc();
                    work_left.notify_all();
                    delta_obs::trace::record_foreign(spans);
                }
            }
            if mine {
                return Outcome::Resolved;
            }
        }
    }
}

/// How one dispatch ended.
enum Outcome {
    /// The job's reply was recorded (by this read loop or a duplicate).
    Resolved,
    /// The connection is unusable; re-queue the job and redial.
    Retry,
    /// The run cannot succeed (executor reported a replay failure).
    Fatal(Error),
}

/// The fleet-backed [`ReplaySource`]: every unit's jobs go into **one**
/// board drain, so a whole step's replays interleave across the fleet
/// instead of running layer-by-layer. A `Layer` unit is one
/// `Sequential` job; a `Columns` unit is one `Column` job per column.
#[derive(Debug, Clone, Copy)]
struct FleetReplays<'a>(&'a Coordinator);

impl ReplaySource for FleetReplays<'_> {
    fn replay(&self, units: &[ReplayUnit<'_>]) -> Result<Vec<ReplayPart>, Error> {
        // Ids, correlation and tracing are filled in by `run_jobs`.
        let job = |u: &ReplayUnit<'_>, kind, col| JobMsg {
            id: 0,
            shape: LayerShape::of(u.layer()),
            kind,
            col,
            corr: 0,
            trace: false,
        };
        let jobs: Vec<JobMsg> = units
            .iter()
            .flat_map(|u| match u {
                ReplayUnit::Layer(_) => vec![job(u, JobKind::Sequential, 0)],
                ReplayUnit::Columns(_, cols) => cols
                    .clone()
                    .map(|col| job(u, JobKind::Column, col))
                    .collect(),
            })
            .collect();
        let mut replies = self.0.run_jobs(jobs)?.into_iter();
        units
            .iter()
            .map(|u| match u {
                ReplayUnit::Layer(_) => replies
                    .next()
                    .and_then(|r| r.sequential)
                    .map(ReplayPart::Layer)
                    .ok_or_else(|| missing_part("sequential")),
                ReplayUnit::Columns(_, cols) => replies
                    .by_ref()
                    .take((cols.end - cols.start) as usize)
                    .map(|r| r.column.ok_or_else(|| missing_part("column")))
                    .collect::<Result<_, _>>()
                    .map(ReplayPart::Columns),
            })
            .collect()
    }
}

/// The error for a success reply that lacks the payload its job kind
/// promises.
fn missing_part(what: &str) -> Error {
    Error::Fleet {
        context: "merge".into(),
        reason: format!("executor answered a {what} job without a {what} part"),
    }
}

impl Backend for Coordinator {
    /// `"sim"`, deliberately: the fleet answers the simulator's
    /// questions with the simulator's exact numbers, so its cache files
    /// and report headers interchange with the in-process backend.
    fn name(&self) -> &'static str {
        "sim"
    }

    fn gpu(&self) -> &GpuSpec {
        self.sim.gpu()
    }

    fn config_fingerprint(&self) -> String {
        self.sim.config_fingerprint()
    }

    fn evaluate(&self, query: &EvalQuery) -> Result<LayerEstimate, Error> {
        let _corr = trace_query();
        let _span = span!("fleet.query", kind = "eval");
        self.sim.evaluate_with(query, &FleetReplays(self))
    }

    fn evaluate_step(&self, query: &StepQuery) -> Result<StepEvaluation, Error> {
        let _corr = trace_query();
        let _span = span!("fleet.query", kind = "step", layers = query.layers.len());
        self.sim.evaluate_step_with(query, &FleetReplays(self))
    }

    fn replays(&self) -> Option<u64> {
        self.sim.replays()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_refuses_an_empty_fleet() {
        let sim = Simulator::new(GpuSpec::titan_xp(), delta_sim::SimConfig::default());
        let err = Coordinator::connect(sim, FleetConfig::new(Vec::new())).unwrap_err();
        assert!(matches!(err, Error::Fleet { .. }));
        assert!(err.to_string().contains("no executors"));
    }

    #[test]
    fn connect_refuses_an_unreachable_executor() {
        let sim = Simulator::new(GpuSpec::titan_xp(), delta_sim::SimConfig::default());
        // A port nothing listens on: bind-then-drop guarantees it was
        // free a moment ago.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let err = Coordinator::connect(sim, FleetConfig::new(vec![addr.clone()])).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("handshake") && msg.contains(&addr), "{msg}");
    }
}
