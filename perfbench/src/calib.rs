//! Host-speed correction. A shared virtual machine does not give the
//! benchmark the same machine from minute to minute, in two ways:
//!
//! - **Steal.** The host keeps the guest's CPU for other guests. Under
//!   load this took 5–15 % of W4's rounds, varying from run to run; the
//!   process's wall time minus its CPU time matched the steal column of
//!   its CPU in `/proc/stat`. The kernel leaves steal out of CPU time
//!   and counts it exactly, so the benchmark reads it (`measure`).
//! - **CPU speed.** A busy neighbour on the host core, or on the shared
//!   cache and memory, slows every instruction, in CPU time as well as
//!   in wall time. One call of the kernel below took 14 ms in some
//!   phases and 26 ms in others, seconds apart. Phases like these moved
//!   the CPU time of identical runs by 28 % for minutes at a time.
//!
//! So the benchmark times a fixed reference kernel, in the thread's CPU
//! time, between the program's calls, when none of the program's
//! threads is busy. Host times are then stated in reference seconds:
//! the measured time with the round's steal share taken out, scaled by
//! how much slower than [`REFERENCE_S`] the kernel ran around it. The
//! kernel is the benchmark's own code, so a change to the program
//! cannot speed it up or slow it down, and a slower program shows in
//! full. Each round's raw times are printed beside the corrected ones.

use std::cell::RefCell;

/// CPU seconds one [`kernel`] call takes on the reference host: about
/// the median of 300 calls on a 2-vCPU KVM guest (Intel Xeon family 6
/// model 207, release build, pinned to one CPU), whose calls took
/// 14–31 ms as the host's phases came and went. Scaling by it keeps
/// corrected times in seconds; any constant would do, since a bound
/// compares a metric only with itself.
pub const REFERENCE_S: f64 = 0.024;

const LINE: u64 = 128;
const SECTOR: u64 = 32;

/// A set-associative, sectored LRU cache of 128 B lines.
struct Cache {
    ways: usize,
    sets: u64,
    tags: Vec<u64>,
    valid: Vec<u8>,
    stamp: Vec<u32>,
    tick: u32,
}

impl Cache {
    fn new(bytes: u64, ways: usize) -> Cache {
        let lines = (bytes / LINE) as usize;
        Cache {
            ways,
            sets: (lines / ways) as u64,
            tags: vec![u64::MAX; lines],
            valid: vec![0; lines],
            stamp: vec![0; lines],
            tick: 0,
        }
    }

    fn reset(&mut self) {
        self.tags.fill(u64::MAX);
        self.valid.fill(0);
        self.stamp.fill(0);
        self.tick = 0;
    }

    /// Returns the sectors of `mask` that missed, and fills them.
    fn access(&mut self, line: u64, mask: u8) -> u8 {
        self.tick += 1;
        let base = (line % self.sets) as usize * self.ways;
        let set = base..base + self.ways;
        if let Some(i) = set.clone().find(|&i| self.tags[i] == line) {
            let missed = mask & !self.valid[i];
            self.valid[i] |= mask;
            self.stamp[i] = self.tick;
            return missed;
        }
        let victim = set.min_by_key(|&i| self.stamp[i]).unwrap_or(base);
        self.tags[victim] = line;
        self.valid[victim] = mask;
        self.stamp[victim] = self.tick;
        mask
    }
}

/// Tiles of the reference address stream per kernel call.
const TILES: u64 = 640;

/// The reference work: warps of strided loads from seeded tiles,
/// coalesced into line accesses and run through a two-level cache, with
/// every tile's counts formatted and parsed back as text. This is the
/// mix of the program's own hot paths (trace, coalesce, hierarchy, JSON)
/// written independently of it. Returns a checksum that is the same on
/// every call.
pub fn kernel() -> u64 {
    thread_local! {
        static CACHES: RefCell<(Cache, Cache)> =
            RefCell::new((Cache::new(48 << 10, 4), Cache::new(3 << 20, 16)));
    }
    CACHES.with_borrow_mut(|(l1, l2)| {
        l1.reset();
        l2.reset();
        run(l1, l2)
    })
}

fn run(l1: &mut Cache, l2: &mut Cache) -> u64 {
    let (mut l1_misses, mut l2_misses, mut parsed) = (0u64, 0u64, 0u64);
    let mut lines: Vec<(u64, u8)> = Vec::with_capacity(32);
    let mut text = String::new();
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    for tile in 0..TILES {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let base = (state % (256 << 20)) & !(LINE - 1);
        let stride = 4 * (1 + tile % 4);
        for row in 0..32u64 {
            for warp in 0..4u64 {
                lines.clear();
                for lane in 0..32u64 {
                    let addr = base + row * 4096 + (warp * 32 + lane) * stride;
                    let (line, bit) = (addr / LINE, 1u8 << ((addr % LINE) / SECTOR));
                    match lines.iter_mut().find(|(l, _)| *l == line) {
                        Some((_, m)) => *m |= bit,
                        None => lines.push((line, bit)),
                    }
                }
                for &(line, mask) in &lines {
                    let missed = l1.access(line, mask);
                    if missed != 0 {
                        l1_misses += 1;
                        l2_misses += u64::from(l2.access(line, missed) != 0);
                    }
                }
            }
        }
        text.clear();
        use std::fmt::Write;
        let _ = write!(
            text,
            "{{\"tile\":{tile},\"l1\":{},\"l2\":{},\"ratio\":{:?}}}",
            l1_misses,
            l2_misses,
            l2_misses as f64 / (l1_misses.max(1)) as f64
        );
        parsed += text
            .split(|c: char| !c.is_ascii_digit())
            .filter_map(|d| d.parse::<u64>().ok())
            .fold(0u64, u64::wrapping_add);
    }
    l1_misses ^ (l2_misses << 20) ^ parsed.rotate_left(40)
}

/// Kernel calls per calibration sample. One call is short enough to
/// land inside a host phase or straddle two; the mean of several
/// follows the program's speed closely (log-log correlation 0.84 with
/// the simulator's time on the next network for three calls, against
/// 0.79 for one).
const CALLS: usize = 4;

/// Times [`CALLS`] kernel calls; returns the mean CPU seconds per call
/// of the calling thread. CPU time leaves out the time the host kept
/// the CPU from the guest (steal), which the benchmark reads exactly
/// from `/proc/stat` instead; what remains is how fast the CPU ran.
pub fn sample() -> f64 {
    let cpu = thread_cpu_s();
    for _ in 0..CALLS {
        std::hint::black_box(kernel());
    }
    (thread_cpu_s() - cpu) / CALLS as f64
}

/// The calling thread's CPU time in seconds, to the nanosecond.
fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live `struct timespec` the call writes.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return 0.0;
    }
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// How much slower than the reference host a [`sample`] ran.
pub fn slowdown(sample: f64) -> f64 {
    sample / REFERENCE_S
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn the_kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn a_sample_reads_the_thread_clock() {
        let t = Instant::now();
        let s = sample();
        assert!(s > 0.0 && s * CALLS as f64 <= t.elapsed().as_secs_f64() * 1.01);
    }
}
