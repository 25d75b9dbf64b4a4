//! The executor daemon: one process, one [`Simulator`], answering
//! unit-replay jobs over TCP.
//!
//! An executor is deliberately dumb: it holds no plan, no query, and no
//! cross-job state. It handshakes (refusing any coordinator whose
//! [`BackendFingerprint`] differs from its own), then answers each
//! [`JobMsg`] with the corresponding unit replay — `Sequential` or
//! `Column` — computed by the same unit body
//! ([`Simulator::replay_unit`]) the in-process replay runs. Partitioning
//! and merging live in the coordinator's simulator, retries in the
//! [`coordinator`](crate::coordinator); executors can therefore be
//! killed, restarted, and duplicated freely without affecting the
//! merged result.
//!
//! For tests and the `fleet_scaling` experiment, a [`FaultPlan`] can
//! make an executor die after N jobs, stall without replying, or send
//! every reply twice — the fault injection behind the failure-path
//! coverage this PR ships.

use crate::protocol::PROTOCOL_VERSION;
use crate::protocol::{
    read_frame, write_frame, Hello, HelloReply, JobKind, JobMsg, JobReply, WireSpan,
};
use delta_model::BackendFingerprint;
use delta_obs::span;
use delta_sim::{ReplayPart, ReplayUnit, Simulator};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How often the nonblocking accept loop polls for connections and for
/// shutdown.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Fault injection for tests and the recovery experiment. The default
/// plan injects nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Die abruptly (close every connection, stop accepting, no
    /// replies) once this many jobs have been *received* across all
    /// connections — the "executor killed mid-job" scenario.
    pub die_after_jobs: Option<u64>,
    /// Stop replying (read jobs, never answer) once this many jobs
    /// have been received — the straggler/timeout scenario.
    pub stall_after_jobs: Option<u64>,
    /// Send every successful reply twice — the duplicate-delivery
    /// scenario the coordinator must absorb idempotently.
    pub duplicate_replies: bool,
}

/// Executor configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutorConfig {
    /// Listen address, e.g. `127.0.0.1:7979` (`:0` picks a free port;
    /// read the actual one from [`ExecutorHandle::addr`]).
    pub addr: String,
    /// Fault injection (default: none).
    pub fault: FaultPlan,
}

impl ExecutorConfig {
    /// A fault-free configuration listening on `addr`.
    pub fn new(addr: impl Into<String>) -> ExecutorConfig {
        ExecutorConfig {
            addr: addr.into(),
            fault: FaultPlan::default(),
        }
    }
}

/// Handle to a spawned executor: its bound address and a shutdown
/// switch. Dropping the handle shuts the executor down.
#[derive(Debug)]
pub struct ExecutorHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ExecutorHandle {
    /// The address the executor actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown and waits for the accept loop to exit.
    /// In-flight connections notice on their next read.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ExecutorHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Per-executor shared state: the simulator, the fault plan, and the
/// global received-job counter the plan's thresholds compare against.
#[derive(Debug)]
struct ExecutorState {
    sim: Simulator,
    fingerprint: BackendFingerprint,
    fault: FaultPlan,
    jobs_received: AtomicU64,
    shutdown: Arc<AtomicBool>,
    /// Set when `die_after_jobs` fires: stops the accept loop too, so
    /// the executor is dead to redial attempts, not just to the
    /// connection that tripped the threshold.
    dead: Arc<AtomicBool>,
}

/// Spawns an executor for `sim` in background threads of this process
/// and returns its handle. This is what the integration tests and the
/// `fleet_scaling` experiment use; the `delta executor` daemon wraps
/// it via [`run`].
///
/// # Errors
///
/// Propagates bind failures.
pub fn spawn(sim: Simulator, config: ExecutorConfig) -> io::Result<ExecutorHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let fingerprint = BackendFingerprint::of(&sim);
    let state = Arc::new(ExecutorState {
        sim,
        fingerprint,
        fault: config.fault,
        jobs_received: AtomicU64::new(0),
        shutdown: Arc::clone(&shutdown),
        dead: Arc::new(AtomicBool::new(false)),
    });
    let accept_state = Arc::clone(&state);
    let accept_thread = std::thread::spawn(move || accept_loop(&listener, &accept_state));
    Ok(ExecutorHandle {
        addr,
        shutdown,
        accept_thread: Some(accept_thread),
    })
}

/// Spawns `n` fault-free executors on loopback ports picked by the OS —
/// the single-machine convenience behind `delta fleet-run
/// --local-executors`. Each executor gets a clone of `sim` (same GPU
/// and configuration, hence the same fingerprint). Returns the handles;
/// collect addresses via [`ExecutorHandle::addr`].
///
/// # Errors
///
/// Propagates bind failures.
pub fn spawn_local_executors(sim: &Simulator, n: u32) -> io::Result<Vec<ExecutorHandle>> {
    (0..n.max(1))
        .map(|_| spawn(sim.clone(), ExecutorConfig::new("127.0.0.1:0")))
        .collect()
}

/// Runs an executor in the foreground until SIGINT/SIGTERM — the
/// `delta executor` daemon body.
///
/// # Errors
///
/// Propagates bind failures.
pub fn run(sim: Simulator, config: ExecutorConfig) -> io::Result<()> {
    install_signal_handlers();
    let mut handle = spawn(sim, config)?;
    eprintln!("executor: listening on {}", handle.addr());
    while !SIGNALED.load(Ordering::SeqCst) {
        std::thread::sleep(ACCEPT_POLL);
    }
    eprintln!("executor: shutting down");
    handle.shutdown();
    Ok(())
}

/// Set by the signal handler; polled by [`run`].
static SIGNALED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    SIGNALED.store(true, Ordering::SeqCst);
}

/// Installs SIGINT/SIGTERM handlers via `signal(2)` straight from the C
/// runtime Rust already links — the environment has no `libc` crate to
/// lean on (same approach as `delta_serve`).
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// Poll-accept until shutdown or injected death; one thread per
/// connection (a coordinator opens one connection per distributed run,
/// so the thread count stays at the fleet's coordinator count).
fn accept_loop(listener: &TcpListener, state: &Arc<ExecutorState>) {
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !state.shutdown.load(Ordering::SeqCst) && !state.dead.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_state = Arc::clone(state);
                workers.push(std::thread::spawn(move || {
                    // Connection errors mean the peer went away
                    // mid-exchange; there is nobody left to tell.
                    let _ = handle_connection(stream, &conn_state);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    for w in workers {
        let _ = w.join();
    }
}

/// One connection: handshake, then a job/reply loop until the peer
/// closes, shutdown is requested, or a fault fires.
fn handle_connection(mut stream: TcpStream, state: &Arc<ExecutorState>) -> io::Result<()> {
    // Reads poll at a short timeout so shutdown/death are noticed even
    // on an idle connection.
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    stream.set_nodelay(true).ok();

    // Handshake.
    let hello: Hello = read_until_ready(&mut stream, state)?;
    let reply = handshake_reply(&hello, &state.fingerprint);
    let accepted = reply.ok;
    write_frame(&mut stream, &reply)?;
    if !accepted {
        return Ok(());
    }

    loop {
        let job: JobMsg = match read_until_ready(&mut stream, state) {
            Ok(j) => j,
            // Peer closed or executor shutting down: done.
            Err(_) => return Ok(()),
        };
        let received = state.jobs_received.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(n) = state.fault.die_after_jobs {
            if received > n {
                // Die abruptly: no reply, no more accepts. The
                // coordinator sees a closed socket and re-dispatches.
                state.dead.store(true, Ordering::SeqCst);
                return Ok(());
            }
        }
        if let Some(n) = state.fault.stall_after_jobs {
            if received > n {
                // Stall: hold the job forever (until shutdown). The
                // coordinator's per-job timeout fires and re-dispatches.
                while !state.shutdown.load(Ordering::SeqCst) {
                    std::thread::sleep(ACCEPT_POLL);
                }
                return Ok(());
            }
        }
        let reply = traced_answer(&state.sim, &job);
        write_frame(&mut stream, &reply)?;
        if state.fault.duplicate_replies && reply.ok {
            write_frame(&mut stream, &reply)?;
        }
    }
}

/// Reads one frame, retrying through read-timeout polls until a frame
/// arrives, the peer closes, or shutdown/death is requested.
fn read_until_ready<T: serde::Deserialize>(
    stream: &mut TcpStream,
    state: &Arc<ExecutorState>,
) -> io::Result<T> {
    loop {
        match read_frame(stream) {
            Ok(v) => return Ok(v),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if state.shutdown.load(Ordering::SeqCst) || state.dead.load(Ordering::SeqCst) {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "executor shutting down",
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Builds the handshake verdict: protocol revision first, then the
/// fingerprint comparison shared with the engine's cache-header guard
/// ([`BackendFingerprint::mismatch`]). A refusal names both
/// fingerprints so the operator can see exactly which knob disagrees.
fn handshake_reply(hello: &Hello, ours: &BackendFingerprint) -> HelloReply {
    let error = if hello.protocol != PROTOCOL_VERSION {
        Some(format!(
            "protocol revision mismatch: coordinator speaks v{}, executor speaks \
             v{PROTOCOL_VERSION}",
            hello.protocol
        ))
    } else {
        hello.fingerprint.mismatch(ours).map(|_| {
            format!(
                "fingerprint mismatch: coordinator expects {}, executor runs {ours}; \
                 results would not be interchangeable",
                hello.fingerprint
            )
        })
    };
    HelloReply {
        ok: error.is_none(),
        error,
        fingerprint: ours.clone(),
        version: env!("CARGO_PKG_VERSION").to_string(),
    }
}

/// Runs one job, capturing executor-side spans when the coordinator
/// asked for them ([`JobMsg::trace`]): recording is switched on, the
/// job's correlation id is installed for the duration, and the spans
/// this connection thread recorded are attached to the reply. One job
/// runs at a time per connection thread and span buffers are
/// per-thread, so `drain_thread` returns exactly this job's spans.
fn traced_answer(sim: &Simulator, job: &JobMsg) -> JobReply {
    if !job.trace {
        return answer(sim, job);
    }
    delta_obs::trace::set_enabled(true);
    // Anything left from earlier untraced work on this thread would
    // misattribute to this job: discard it first.
    let _ = delta_obs::trace::drain_thread();
    let mut reply = {
        let _corr = delta_obs::trace::with_correlation(job.corr);
        let kind = match job.kind {
            JobKind::Sequential => "sequential",
            JobKind::Column => "column",
        };
        let _span = span!("fleet.execute", job = job.id, kind = kind);
        answer(sim, job)
    };
    reply.spans = delta_obs::trace::drain_thread()
        .into_iter()
        .map(WireSpan::from)
        .collect();
    reply
}

/// Runs one job through the simulator's unit body
/// ([`Simulator::replay_unit`], which counts no replay: the
/// coordinator's fold counts each layer once).
fn answer(sim: &Simulator, job: &JobMsg) -> JobReply {
    let layer = match job.shape.to_layer() {
        Ok(l) => l,
        Err(e) => return JobReply::failure(job.id, format!("invalid job shape: {e}")),
    };
    let unit = match job.kind {
        JobKind::Sequential => ReplayUnit::Layer(&layer),
        JobKind::Column => ReplayUnit::Columns(&layer, job.col..job.col.saturating_add(1)),
    };
    let mut reply = JobReply::success(job.id);
    match sim.replay_unit(&unit) {
        Ok(ReplayPart::Layer(m)) => reply.sequential = Some(m),
        Ok(ReplayPart::Columns(mut parts)) => reply.column = parts.pop(),
        Err(e) => return JobReply::failure(job.id, e.to_string()),
    }
    reply
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_model::GpuSpec;
    use delta_sim::SimConfig;

    #[test]
    fn handshake_refuses_mismatches_naming_both_sides() {
        let ours = BackendFingerprint {
            backend: "sim".into(),
            gpu: "TITAN Xp".into(),
            config: "{\"a\":1}".into(),
        };
        let mut theirs = ours.clone();
        theirs.gpu = "V100".into();
        let reply = handshake_reply(
            &Hello {
                protocol: PROTOCOL_VERSION,
                fingerprint: theirs,
                version: String::new(),
            },
            &ours,
        );
        assert!(!reply.ok);
        let msg = reply.error.unwrap();
        assert!(msg.contains("V100") && msg.contains("TITAN Xp"), "{msg}");
        assert_eq!(reply.fingerprint, ours);

        let reply = handshake_reply(
            &Hello {
                protocol: PROTOCOL_VERSION + 1,
                fingerprint: ours.clone(),
                version: String::new(),
            },
            &ours,
        );
        assert!(!reply.ok);
        assert!(reply.error.unwrap().contains("protocol revision"));

        // A revision-1 coordinator is refused with a message naming
        // both revisions.
        let reply = handshake_reply(
            &Hello {
                protocol: 1,
                fingerprint: ours.clone(),
                version: String::new(),
            },
            &ours,
        );
        assert!(!reply.ok);
        let msg = reply.error.unwrap();
        assert!(msg.contains("v1") && msg.contains("v2"), "{msg}");

        let reply = handshake_reply(
            &Hello {
                protocol: PROTOCOL_VERSION,
                fingerprint: ours.clone(),
                version: String::new(),
            },
            &ours,
        );
        assert!(reply.ok && reply.error.is_none());
    }

    #[test]
    fn spawned_executor_binds_and_shuts_down() {
        let sim = Simulator::new(GpuSpec::titan_xp(), SimConfig::default());
        let mut h = spawn(sim, ExecutorConfig::new("127.0.0.1:0")).unwrap();
        assert_ne!(h.addr().port(), 0);
        h.shutdown();
    }
}
