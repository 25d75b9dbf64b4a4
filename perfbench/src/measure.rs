//! Measurement plumbing shared by every workload: the CPU pin, the
//! round loop, process CPU and memory readings, order statistics,
//! answer digests, and the result line the benchmark prints last.

use crate::calib;
use std::collections::BTreeMap;
use std::time::Instant;

/// Linux reports `/proc/self/stat` CPU times in USER_HZ ticks, which
/// the kernel fixes at 100 per second for user space.
const TICKS_PER_SECOND: f64 = 100.0;

/// Process CPU time split into user and kernel seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    pub user_s: f64,
    pub sys_s: f64,
}

impl Cpu {
    /// Reads this process's cumulative CPU time (all threads, live and
    /// exited).
    pub fn now() -> Cpu {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line, 12 and 13 after it.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| {
            fields
                .get(i)
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(0.0)
                / TICKS_PER_SECOND
        };
        Cpu {
            user_s: tick(11),
            sys_s: tick(12),
        }
    }

    /// CPU spent since `earlier`.
    pub fn since(earlier: Cpu) -> Cpu {
        let now = Cpu::now();
        Cpu {
            user_s: now.user_s - earlier.user_s,
            sys_s: now.sys_s - earlier.sys_s,
        }
    }

    pub fn total_s(self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn add(&mut self, other: Cpu) {
        self.user_s += other.user_s;
        self.sys_s += other.sys_s;
    }
}

/// Restricts the calling thread, and every thread it starts afterwards,
/// to the first CPU it may run on; returns that CPU. On a shared
/// virtual machine a thread that wakes another on a second, idle vCPU
/// waits for the host to run that vCPU, and under host contention that
/// wait reaches milliseconds. Spread over two vCPUs, W3's `p99_ms`
/// moved between 0.8 and 7.3 ms from run to run, and W4's `wall_s`
/// between 0.95 and 1.59 s; on one CPU the threads hand over without
/// waking another vCPU.
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t`: 1024 CPUs, one bit each.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: pid 0 names the calling thread, and each call reads or
    // writes exactly `size` bytes of a mask that lives across the call.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().position(|&w| w != 0)?;
    let bit = mask[word].trailing_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: as above.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(word * 64 + bit)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `q`-quantile of `values` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// FNV-1a over a stream of 64-bit words: the digest of an answer's
/// simulated statistics, stable across platforms and builds.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn f64(&mut self, v: f64) {
        for b in v.to_bits().to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Verified answers against attempted ones: the basis of `ok_ratio`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub verified: u64,
}

impl Tally {
    /// Counts one attempted answer, verified when `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.verified += u64::from(ok);
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.verified += other.verified;
    }

    pub fn failed(&self) -> u64 {
        self.attempted - self.verified
    }

    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.verified as f64 / self.attempted as f64
        }
    }
}

/// What one round of a workload measured. A round is one set-up
/// followed by one job; its `wall_s` starts at the first query.
#[derive(Debug, Clone, Default)]
pub struct Round {
    pub setup_s: f64,
    pub wall_s: f64,
    /// Seconds of the request phase alone (the base of `qps`).
    pub busy_s: f64,
    pub cpu: Cpu,
    /// Queries answered.
    pub answers: u64,
    /// Client-side latency of each answer, in milliseconds.
    pub latencies_ms: Vec<f64>,
    pub tally: Tally,
    /// Per-layer readings of this round (traced rounds fill the span
    /// ones; every round fills the counters).
    pub layers: BTreeMap<&'static str, f64>,
    /// Calibration samples taken at the round's start and end and
    /// wherever the workload calls [`Round::calibrate`].
    pub marks: Vec<Mark>,
}

impl Round {
    pub fn layer(&mut self, name: &'static str, value: f64) {
        *self.layers.entry(name).or_insert(0.0) += value;
    }

    /// Times the reference kernel now. Call it only where none of the
    /// program's threads is busy.
    pub fn calibrate(&mut self) {
        self.marks.push(Mark::take());
    }

    /// How much slower than the reference host's CPU the round's CPU
    /// ran: the mean of the calibration samples on either side of each
    /// stretch of the round, weighted by the stretch's length (1 for a
    /// round without stretches).
    pub fn slowdown(&self) -> f64 {
        let (mut weighted, mut total) = (0.0, 0.0);
        for pair in self.marks.windows(2) {
            let span = pair[0].gap_to(&pair[1]);
            weighted += span * calib::slowdown((pair[0].sample + pair[1].sample) / 2.0);
            total += span;
        }
        if total > 0.0 {
            weighted / total
        } else {
            1.0
        }
    }

    /// The share of the round's time the host kept its CPU from the
    /// guest (steal), outside the calibration samples.
    pub fn steal_share(&self) -> f64 {
        let (mut stolen, mut total) = (0.0, 0.0);
        for pair in self.marks.windows(2) {
            stolen += pair[1].steal_before - pair[0].steal_after;
            total += pair[0].gap_to(&pair[1]);
        }
        if total > 0.0 {
            (stolen / total).clamp(0.0, 0.9)
        } else {
            0.0
        }
    }

    /// A wall-clock time of this round in reference seconds: steal
    /// taken out in proportion, then scaled to the reference CPU speed.
    pub fn corrected(&self, seconds: f64) -> f64 {
        seconds * (1.0 - self.steal_share()) / self.slowdown()
    }

    /// The round's CPU time in reference CPU seconds.
    pub fn corrected_cpu_s(&self) -> f64 {
        self.cpu.total_s() / self.slowdown()
    }
}

/// One calibration sample, when it was taken, and the host's steal
/// time on this CPU on either side of it.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    start: Instant,
    end: Instant,
    steal_before: f64,
    steal_after: f64,
    /// CPU seconds per kernel call.
    sample: f64,
}

impl Mark {
    pub fn take() -> Mark {
        let (start, steal_before) = (Instant::now(), steal_s());
        let sample = calib::sample();
        Mark {
            start,
            end: Instant::now(),
            steal_before,
            steal_after: steal_s(),
            sample,
        }
    }

    /// Seconds from the end of this sample to the start of `later`.
    fn gap_to(&self, later: &Mark) -> f64 {
        later
            .start
            .saturating_duration_since(self.end)
            .as_secs_f64()
    }
}

/// Seconds the host has kept this CPU from running the guest since
/// boot: the steal column of this CPU's line in `/proc/stat`.
fn steal_s() -> f64 {
    extern "C" {
        fn sched_getcpu() -> i32;
    }
    // SAFETY: no arguments; returns the calling thread's CPU or -1.
    let cpu = unsafe { sched_getcpu() };
    let prefix = format!("cpu{cpu} ");
    std::fs::read_to_string("/proc/stat")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .and_then(|rest| rest.split_whitespace().nth(7))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / TICKS_PER_SECOND)
}

/// Runs `round` for about `seconds`: a round starts only if it should
/// end within the budget (judged by the median round so far), and at
/// least `min_rounds` run regardless. The calibration kernel runs
/// between rounds; each round keeps the samples on either side of it. With `trace_mode` the rounds
/// alternate untraced and traced (at least `min_rounds` of each), so
/// both halves of `obs.tracing_overhead` see the same machine
/// conditions. Returns the untraced and the traced rounds.
pub fn run_rounds(
    seconds: f64,
    min_rounds: usize,
    trace_mode: bool,
    mut round: impl FnMut(bool) -> Round,
) -> (Vec<Round>, Vec<Round>) {
    let started = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut durations = Vec::new();
    let mut boundary = Mark::take();
    loop {
        let minimum_met = plain.len() >= min_rounds && (!trace_mode || traced.len() >= min_rounds);
        let elapsed = started.elapsed().as_secs_f64();
        if minimum_met && elapsed + median(&durations) > seconds {
            break;
        }
        let trace_this = trace_mode && durations.len() % 2 == 1;
        let t = Instant::now();
        delta_obs::trace::set_enabled(trace_this);
        let mut r = round(trace_this);
        delta_obs::trace::set_enabled(false);
        r.marks.insert(0, boundary);
        boundary = Mark::take();
        r.marks.push(boundary);
        durations.push(t.elapsed().as_secs_f64());
        if trace_this {
            traced.push(r);
        } else {
            plain.push(r);
        }
    }
    (plain, traced)
}

/// One metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Prints the result line: the last line of standard output, read by
/// whoever drives the benchmark.
pub fn print_result(correct: bool, tally: Tally, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // `{:?}` prints every digit of the f64 (shortest round trip).
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed(),
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false);
        assert_eq!((t.attempted, t.failed()), (2, 1));
        assert_eq!(t.ok_ratio(), 0.5);
    }

    /// Host time corrected for a round of two stretches: 3 s while the
    /// CPU ran at the reference speed, 1 s while it ran at half of it,
    /// with 0.4 s of steal in the second stretch.
    #[test]
    fn corrections_weight_each_stretch_by_its_length() {
        let t0 = Instant::now();
        let at = |s: f64| t0 + std::time::Duration::from_secs_f64(s);
        let mark = |start: f64, steal: f64, sample: f64| Mark {
            start: at(start),
            end: at(start),
            steal_before: steal,
            steal_after: steal,
            sample,
        };
        let r = Round {
            wall_s: 4.0,
            marks: vec![
                mark(0.0, 0.0, calib::REFERENCE_S),
                mark(3.0, 0.0, calib::REFERENCE_S),
                mark(4.0, 0.4, 3.0 * calib::REFERENCE_S),
            ],
            ..Round::default()
        };
        // Stretch means 1 and 2, weighted 3:1.
        assert!((r.slowdown() - 1.25).abs() < 1e-9);
        assert!((r.steal_share() - 0.1).abs() < 1e-9);
        assert!((r.corrected(r.wall_s) - 4.0 * 0.9 / 1.25).abs() < 1e-9);
        assert_eq!(Round::default().slowdown(), 1.0);
    }

    #[test]
    fn cpu_and_memory_readings_are_live() {
        assert!(peak_rss_mb() > 0.0);
        let before = Cpu::now();
        let mut x = 0u64;
        let t = Instant::now();
        while t.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(Cpu::since(before).total_s() > 0.0);
    }
}
