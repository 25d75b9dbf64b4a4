//! W3 `serve_mix`: `delta_serve::spawn` on the analytical model
//! (TITAN Xp) with a warm store, driven by two closed-loop client
//! connections. Each round starts a server on a fresh copy of the warm
//! store (set-up ends at the first `/healthz` 200), sends the seeded
//! mixes below one after another, reads `/stats`, and shuts the server
//! down, which saves the store the cold mix dirtied.
//!
//! The traffic is that of the `serve_throughput` experiment
//! (`crates/bench/src/bin/serve_throughput.rs`): its cold, warm and
//! duplicate mixes of 256 requests each, over a shared work queue.
//! Two mixes add the paths that experiment leaves out: the warm store
//! (`docs/PROTOCOL.md`, "Caching, idempotency, and the warm store") and
//! `/sweep`.

use crate::fidelity;
use crate::measure::{median, quantile, run_rounds, Cpu, Round};
use crate::{Ctx, Outcome};
use delta_model::engine::Engine;
use delta_model::{
    Backend, ConvLayer, Delta, EvalQuery, GpuSpec, InterconnectKind, Parallelism, Pass, StepQuery,
    TopologyKind,
};
use delta_obs::span;
use delta_serve::{spawn, ServeConfig};
use std::collections::{HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Client connections of the closed loop; each waits for its reply
/// before sending the next request.
const CONNECTIONS: usize = 2;

/// Requests per mix: `serve_throughput`'s default `--requests`.
const MIX_LEN: usize = 256;

/// The sweep: layer passes of the paper's CNNs, the same in every round
/// and seed, so W3's fidelity figures cover a fixed set. The first two
/// are pinned for the sampling-error figure (each has an error the
/// exhaustive replay shows).
const SWEEP: [(&str, &str, Pass); 8] = [
    ("googlenet", "4b_5x5", Pass::Fwd),
    ("alexnet", "conv1", Pass::Wgrad),
    ("alexnet", "conv2", Pass::Fwd),
    ("alexnet", "conv4", Pass::Dgrad),
    ("vgg16", "conv5", Pass::Fwd),
    ("googlenet", "3a_3x3", Pass::Fwd),
    ("resnet152", "conv2_1_b", Pass::Fwd),
    ("resnet152", "conv3_1_a", Pass::Wgrad),
];

/// One scripted request and the body a correct server answers with.
#[derive(Clone)]
struct Request {
    path: &'static str,
    body: String,
    expect: Expect,
}

#[derive(Clone)]
enum Expect {
    Body(String),
    /// `/sweep` streams NDJSON lines in completion order: compared as a
    /// sorted set.
    Lines(Vec<String>),
}

/// The requests of one mix, sent over the shared work queue before the
/// next mix starts.
struct Mix {
    name: &'static str,
    requests: Vec<Request>,
}

/// splitmix64: the request script is a pure function of the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[(self.next() % items.len() as u64) as usize]
    }
}

/// A random small convolution; `n` keeps labels distinct.
fn random_layer(rng: &mut Rng, n: usize) -> ConvLayer {
    let filter = rng.pick(&[1, 3, 5]);
    let hw = rng.pick(&[7, 14, 28]);
    ConvLayer::builder(format!("q{n}"))
        .batch(rng.pick(&[1, 2, 4, 8]))
        .input(rng.pick(&[16, 32, 64, 128, 256]), hw, hw)
        .output_channels(rng.pick(&[16, 32, 64, 128, 256]))
        .filter(filter, filter)
        .pad(filter / 2)
        .build()
        .expect("generated shapes are valid")
}

/// The queries of one seeded script.
struct Script {
    /// Distinct `/eval` queries the warm store holds.
    stored: Vec<EvalQuery>,
    /// Distinct `/eval` queries in no store, none equal to a stored one.
    fresh: Vec<EvalQuery>,
    /// `serve_throughput`'s duplicate step: two seeded layers on four
    /// NVLink-ring TITAN Xps, 4 MiB buckets, overlap on.
    step: StepQuery,
    sweep: Vec<EvalQuery>,
    /// The sweep's first two layer passes.
    anchors: Vec<(ConvLayer, Pass)>,
}

impl Script {
    fn new(seed: u64) -> Script {
        let mut rng = Rng(seed);
        let zoo = delta_networks::paper_networks(1).expect("zoo networks build");
        let swept: Vec<(ConvLayer, Pass)> = SWEEP
            .iter()
            .map(|&(net, label, pass)| {
                let layer = zoo
                    .iter()
                    .find(|n| n.name().eq_ignore_ascii_case(net))
                    .and_then(|n| n.layer(label))
                    .expect("swept layer exists");
                (layer.clone(), pass)
            })
            .collect();
        let passes = [Pass::Fwd, Pass::Dgrad, Pass::Wgrad];
        let mut seen = HashSet::new();
        let mut counter = 0;
        let mut distinct = |rng: &mut Rng| -> Vec<EvalQuery> {
            let mut out = Vec::with_capacity(MIX_LEN);
            while out.len() < MIX_LEN {
                counter += 1;
                let layer = random_layer(rng, counter);
                let q = EvalQuery::new(&layer, rng.pick(&passes), Parallelism::Single);
                if seen.insert(q.fingerprint()) {
                    out.push(q);
                }
            }
            out
        };
        let stored = distinct(&mut rng);
        let fresh = distinct(&mut rng);
        let step = StepQuery {
            layers: vec![random_layer(&mut rng, 0), random_layer(&mut rng, 1)],
            parallelism: Parallelism::Multi {
                devices: vec![GpuSpec::titan_xp(); 4],
                interconnect: InterconnectKind::NvLink,
                topology: Some(TopologyKind::Ring),
            },
            bucket_mb: 4,
            overlap: true,
        };
        Script {
            stored,
            fresh,
            step,
            sweep: swept
                .iter()
                .map(|(l, pass)| EvalQuery::new(l, *pass, Parallelism::Single))
                .collect(),
            anchors: swept[..2].to_vec(),
        }
    }

    /// The round's mixes in order, each request with its expected answer
    /// from the in-process engine.
    fn mixes(&self, engine: &Engine<Delta>) -> Vec<Mix> {
        let eval = |q: &EvalQuery| {
            let answer = engine.evaluate(q).expect("model answers the script");
            Request {
                path: "/eval",
                body: serde_json::to_string(q).expect("queries serialize"),
                expect: Expect::Body(serde_json::to_string(&answer).expect("answers serialize")),
            }
        };
        let cold: Vec<Request> = self.fresh.iter().map(eval).collect();
        let step_answer = engine
            .evaluate_step(&self.step)
            .expect("model answers the step");
        let step = Request {
            path: "/step",
            body: serde_json::to_string(&self.step).expect("queries serialize"),
            expect: Expect::Body(serde_json::to_string(&step_answer).expect("answers serialize")),
        };
        let (bodies, mut lines): (Vec<String>, Vec<String>) = self
            .sweep
            .iter()
            .map(eval)
            .enumerate()
            .map(|(i, r)| match r.expect {
                Expect::Body(answer) => (r.body, format!("{{\"index\":{i},\"result\":{answer}}}")),
                Expect::Lines(_) => unreachable!("eval requests expect one body"),
            })
            .unzip();
        lines.sort();
        let sweep = Request {
            path: "/sweep",
            body: format!("[{}]", bodies.join(",")),
            expect: Expect::Lines(lines),
        };
        vec![
            // Engine hits from the warm store, body-cache misses.
            Mix {
                name: "stored",
                requests: self.stored.iter().map(eval).collect(),
            },
            // Engine misses: evaluations and inserts that dirty the store.
            Mix {
                name: "cold",
                requests: cold.clone(),
            },
            // The same bodies again: body-cache hits.
            Mix {
                name: "warm",
                requests: cold,
            },
            // One unseen step from every client: single-flight, then
            // body-cache hits.
            Mix {
                name: "duplicate",
                requests: vec![step; MIX_LEN],
            },
            Mix {
                name: "sweep",
                requests: vec![sweep],
            },
        ]
    }
}

/// Writes one HTTP request on `stream`.
fn send(stream: &mut TcpStream, method: &str, path: &str, body: &str) -> std::io::Result<()> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())
}

/// Reads the response to the request sent on `stream` (the server
/// closes every connection after one response) as `(status, body)`.
/// A read timeout fails a stalled request instead of hanging the run.
fn receive(mut stream: TcpStream) -> std::io::Result<(u16, String)> {
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("response has no header block"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| std::io::Error::other("malformed status line"))?;
    Ok((status, body.to_string()))
}

/// One request over a fresh connection.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    send(&mut stream, method, path, body)?;
    receive(stream)
}

/// Whether a response is a 200 carrying exactly the expected answer.
fn verify(req: &Request, response: &std::io::Result<(u16, String)>) -> bool {
    let Ok((200, body)) = response else {
        return false;
    };
    match &req.expect {
        Expect::Body(expect) => body == expect,
        Expect::Lines(expect) => {
            let mut lines: Vec<&str> = body.lines().filter(|l| !l.is_empty()).collect();
            lines.sort_unstable();
            lines.len() == expect.len() && lines.iter().zip(expect).all(|(a, b)| a == b)
        }
    }
}

/// One answered request: which mix and request it was, its latency,
/// and the response.
struct Answer {
    mix: usize,
    index: usize,
    ms: f64,
    response: std::io::Result<(u16, String)>,
}

/// Connections each client keeps open ahead of its current request.
/// The server closes every connection after one response and its idle
/// workers poll `accept` every 5 ms (`ACCEPT_POLL` in
/// `crates/serve/src/server.rs`). Two connections ahead per client make
/// six for the server's four workers, so no worker idles and every
/// request is sent on a connection a worker has already accepted, or
/// will accept as soon as it finishes its current request: latency is
/// the server's work, not its accept poll.
const AHEAD: usize = 2;

/// How long the clients' first connections are given to be accepted
/// before the clock starts: more than one accept poll.
const SETTLE: Duration = Duration::from_millis(10);

/// One closed-loop client: opens its first connections, waits at
/// `start` twice (ready, then go), then takes requests off each mix's
/// shared queue until it is empty and waits at `mix_done` for the other
/// clients before the next mix. Like a pooling HTTP client, it opens
/// its next connection while a request is in flight.
fn client(
    addr: SocketAddr,
    mixes: &[Mix],
    queues: &[AtomicUsize],
    start: &Barrier,
    mix_done: &Barrier,
) -> Vec<Answer> {
    let mut answers = Vec::new();
    let mut ahead: VecDeque<std::io::Result<TcpStream>> =
        (0..AHEAD).map(|_| TcpStream::connect(addr)).collect();
    start.wait();
    start.wait();
    for (m, mix) in mixes.iter().enumerate() {
        loop {
            let index = queues[m].fetch_add(1, Ordering::Relaxed);
            let Some(req) = mix.requests.get(index) else {
                break;
            };
            let t = Instant::now();
            let sent = ahead
                .pop_front()
                .expect("connections are kept ahead")
                .and_then(|mut s| send(&mut s, "POST", req.path, &req.body).map(|()| s));
            ahead.push_back(TcpStream::connect(addr));
            let response = sent.and_then(receive);
            answers.push(Answer {
                mix: m,
                index,
                ms: t.elapsed().as_secs_f64() * 1e3,
                response,
            });
        }
        mix_done.wait();
    }
    answers
}

/// Sends every mix over the closed loop. Returns each request's answer,
/// mix by mix, with the wall and CPU time from the first request to the
/// last answer.
fn drive(addr: SocketAddr, mixes: &[Mix]) -> (Vec<Answer>, f64, Cpu) {
    let queues: Vec<AtomicUsize> = mixes.iter().map(|_| AtomicUsize::new(0)).collect();
    let start = Barrier::new(CONNECTIONS + 1);
    let mix_done = Barrier::new(CONNECTIONS);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|_| scope.spawn(|| client(addr, mixes, &queues, &start, &mix_done)))
            .collect();
        start.wait();
        std::thread::sleep(SETTLE);
        let cpu = Cpu::now();
        let t = Instant::now();
        start.wait();
        let mut answers: Vec<Answer> = clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect();
        let busy_s = t.elapsed().as_secs_f64();
        let cpu = Cpu::since(cpu);
        answers.sort_by_key(|a| (a.mix, a.index));
        (answers, busy_s, cpu)
    })
}

/// Reads one counter object of the `/stats` document.
fn stat(stats: &serde::Value, section: &str, field: &str) -> f64 {
    match stats.get(section).and_then(|s| s.get(field)) {
        Some(serde::Value::U64(v)) => *v as f64,
        _ => 0.0,
    }
}

fn round(ctx: &Ctx, warm_base: &Path, mixes: &[Mix], traced: bool) -> Round {
    let mut r = Round::default();
    let store = ctx.work.join("store.json");
    if let Err(e) = std::fs::copy(warm_base, &store) {
        eprintln!("verify: cannot copy the warm store: {e}");
        r.tally.record(false);
        return r;
    }
    if traced {
        // The load inside `spawn` is not timed on its own; time the same
        // load standalone.
        let t = Instant::now();
        let _ = Engine::new(Delta::new(GpuSpec::titan_xp())).load_cache(&store);
        r.layer("engine.load_cache_s", t.elapsed().as_secs_f64());
    }
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        cache_file: Some(store.clone()),
        ..ServeConfig::default()
    };
    let t = Instant::now();
    let server = {
        let _s = span!("bench.spawn");
        spawn(Delta::new(GpuSpec::titan_xp()), config).and_then(|s| {
            let (status, _) = request(s.addr(), "GET", "/healthz", "")?;
            if status == 200 {
                Ok(s)
            } else {
                Err(std::io::Error::other(format!("/healthz answered {status}")))
            }
        })
    };
    r.setup_s = t.elapsed().as_secs_f64();
    r.layer("serve.spawn_s", r.setup_s);
    let server = match server {
        Ok(s) => s,
        Err(e) => {
            eprintln!("verify: server start failed: {e}");
            r.tally.record(false);
            return r;
        }
    };
    let addr = server.addr();
    let (answers, busy_s, cpu_busy) = drive(addr, mixes);
    r.busy_s = busy_s;
    r.answers = answers.len() as u64;

    match request(addr, "GET", "/stats", "").map(|(_, b)| serde_json::from_str::<serde::Value>(&b))
    {
        Ok(Ok(stats)) => {
            let (hits, misses) = (
                stat(&stats, "cache", "hits"),
                stat(&stats, "cache", "misses"),
            );
            r.layer("serve.body_hit_ratio", hits / (hits + misses).max(1.0));
            r.layer("serve.deduped", stat(&stats, "cache", "deduped"));
            r.layer("engine.hits", stat(&stats, "engine", "hits"));
            r.layer("engine.misses", stat(&stats, "engine", "misses"));
            r.layer("engine.step_hits", stat(&stats, "engine", "step_hits"));
            r.layer("sim.replays", stat(&stats, "engine", "replays"));
        }
        _ => eprintln!("serve: /stats unreadable"),
    }

    let cpu = Cpu::now();
    let t = Instant::now();
    {
        let _s = span!("bench.shutdown");
        server.shutdown();
    }
    r.wall_s = r.busy_s + t.elapsed().as_secs_f64();
    r.cpu = cpu_busy;
    r.cpu.add(Cpu::since(cpu));

    // Verification runs after the clock stops, so the timed loop holds
    // only the exchange itself.
    for a in &answers {
        let req = &mixes[a.mix].requests[a.index];
        let ok = verify(req, &a.response);
        if !ok {
            eprintln!(
                "verify: {} answer differs: {:?}",
                req.path,
                a.response.as_ref().err()
            );
        }
        r.tally.record(ok);
    }
    let saved = std::fs::metadata(&store).map_or(0, |m| m.len());
    let base = std::fs::metadata(warm_base).map_or(0, |m| m.len());
    if saved <= base {
        eprintln!("verify: shutdown did not save the fresh answers ({saved} <= {base} bytes)");
    }
    r.tally.record(saved > base);
    r.latencies_ms = answers.iter().map(|a| a.ms).collect();

    if traced {
        let events = delta_obs::trace::drain();
        let served: Vec<f64> = events
            .iter()
            .filter(|e| e.name == "serve.request")
            .map(|e| e.dur_us as f64 * 1e-3)
            .collect();
        r.layer(
            "serve.accept_wait_ms",
            median(&r.latencies_ms) - median(&served),
        );
        crate::finish_traced(r, events)
    } else {
        r
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let script = Script::new(ctx.seed);
    let model = Delta::new(GpuSpec::titan_xp());
    // The warm store: what an earlier server run that answered the
    // stored queries left behind.
    let warm_base = ctx.work.join("warm.json");
    let warm = Engine::new(model.clone());
    for q in &script.stored {
        warm.evaluate(q).expect("model answers the stored queries");
    }
    warm.save_cache(&warm_base).expect("warm store saves");
    let mixes = script.mixes(&Engine::new(model.clone()));

    let (plain, traced) = run_rounds(ctx.seconds, 3, ctx.trace, |traced| {
        round(ctx, &warm_base, &mixes, traced)
    });
    // A round's latencies come mix by mix, in script order.
    let mix_of: Vec<usize> = mixes
        .iter()
        .enumerate()
        .flat_map(|(m, mix)| std::iter::repeat_n(m, mix.requests.len()))
        .collect();
    for (m, mix) in mixes.iter().enumerate() {
        let ms: Vec<f64> = plain
            .iter()
            .flat_map(|r| r.latencies_ms.iter().zip(&mix_of))
            .filter(|(_, &of)| of == m)
            .map(|(ms, _)| *ms)
            .collect();
        println!(
            "latency {} ({}): {} requests, p50 {:.3} ms, p90 {:.3} ms, max {:.3} ms",
            mix.name,
            mix.requests[0].path,
            ms.len(),
            median(&ms),
            quantile(&ms, 0.9),
            quantile(&ms, 1.0)
        );
    }

    let simulator = delta_sim::Simulator::new(GpuSpec::titan_xp(), delta_sim::SimConfig::default());
    let answered: Vec<_> = script
        .sweep
        .iter()
        .map(|q| {
            (
                q.clone(),
                simulator.evaluate(q).expect("simulator answers the sweep"),
            )
        })
        .collect();
    let mut outcome = Outcome::new(plain, traced);
    outcome.gmae = fidelity::model_vs_sim(&model, &answered);
    outcome.sample_err = fidelity::sampling_error(&GpuSpec::titan_xp(), &script.anchors);
    outcome.layer(
        "engine.cache_file_kb",
        std::fs::metadata(&warm_base).map_or(0.0, |m| m.len() as f64 / 1024.0),
    );
    let queries: Vec<EvalQuery> = script.stored.iter().chain(&script.fresh).cloned().collect();
    outcome.layer("model.eval_us", fidelity::model_eval_us(&model, &queries));
    outcome.connections = CONNECTIONS as u32;
    outcome.overhead_by_qps = true;
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Tally;

    #[test]
    fn a_tampered_answer_lowers_ok_ratio() {
        let eval = Request {
            path: "/eval",
            body: String::new(),
            expect: Expect::Body("{\"cycles\":1.0}".into()),
        };
        let sweep = Request {
            path: "/sweep",
            body: String::new(),
            expect: Expect::Lines(vec!["{\"index\":0}".into(), "{\"index\":1}".into()]),
        };
        let answer = |status, body: &str| Ok((status, body.to_string()));
        let mut tally = Tally::default();
        tally.record(verify(&eval, &answer(200, "{\"cycles\":1.0}")));
        // Completion order does not matter for a sweep.
        tally.record(verify(
            &sweep,
            &answer(200, "{\"index\":1}\n{\"index\":0}\n"),
        ));
        assert_eq!(tally.ok_ratio(), 1.0);
        tally.record(verify(&eval, &answer(200, "{\"cycles\":1.5}")));
        tally.record(verify(&eval, &answer(503, "{\"cycles\":1.0}")));
        tally.record(verify(&sweep, &answer(200, "{\"index\":1}\n")));
        tally.record(verify(&eval, &Err(std::io::Error::other("refused"))));
        assert_eq!((tally.attempted, tally.failed()), (6, 4));
    }

    #[test]
    fn the_script_is_a_function_of_the_seed() {
        let engine = Engine::new(Delta::new(GpuSpec::titan_xp()));
        let bodies = |seed| -> Vec<String> {
            Script::new(seed)
                .mixes(&engine)
                .iter()
                .flat_map(|m| m.requests.iter().map(|r| r.body.clone()))
                .collect()
        };
        let a = bodies(7);
        assert_eq!(a.len(), 4 * MIX_LEN + 1);
        assert_eq!(a, bodies(7));
        assert_ne!(a, bodies(8));
    }

    #[test]
    fn stored_and_fresh_queries_are_distinct() {
        let script = Script::new(3);
        let all: HashSet<String> = script
            .stored
            .iter()
            .chain(&script.fresh)
            .map(EvalQuery::fingerprint)
            .collect();
        assert_eq!(all.len(), 2 * MIX_LEN);
    }
}
