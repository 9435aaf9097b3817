//! The host-speed gauge. The benchmark runs on a few vCPUs of a shared
//! host whose speed drifts: for stretches of a fraction of a second to
//! several minutes, the same compile takes up to ~1.8× longer, with no
//! steal time the guest can see (thread CPU time slows as much as wall
//! time). A timing taken during a slow stretch says more about the host
//! than about the program.
//!
//! So every timed operation is bracketed by readings of a fixed
//! reference kernel, built from this file alone, and its duration is
//! divided by the host's slowdown: the mean of the two readings over
//! [`REFERENCE_NS`]. Timings are therefore reported in seconds of the
//! reference host at full speed. The kernel is the kind of work a
//! compiler front end does — short strings formatted into fresh
//! allocations, hashed, counted, sorted — and on the reference host it
//! slows as the compiler does: over eight runs during which raw compile
//! times drifted by up to 1.6×, the gauged sum of per-program medians
//! varied by 1.5%. (A register-only loop or a pointer chase through a
//! few MiB barely slows at all, so they cannot stand in.) The program
//! under test never runs the kernel, so a change to the program moves
//! only the numerator.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time, in ns, on the reference host at full speed (a
/// 2-vCPU Intel Xeon container, release build): its lowest reading
/// over eight 20-second runs.
pub const REFERENCE_NS: f64 = 74_000.0;

/// Kernel runs per reading; a reading is their fastest, so an
/// interrupt during one run does not move it.
const RUNS: usize = 3;

/// One run of the reference kernel: count the words of a fixed
/// pseudo-random text in a hash map, then sort the counts.
fn kernel() -> u64 {
    let mut counts: HashMap<String, u32, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..500 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *counts.entry(format!("w{}", x % 256)).or_default() += 1;
    }
    let mut sorted: Vec<(u32, String)> = counts.into_iter().map(|(w, c)| (c, w)).collect();
    sorted.sort_unstable();
    sorted
        .iter()
        .map(|(c, w)| u64::from(*c) * w.len() as u64)
        .sum()
}

/// One reading: the kernel's fastest of [`RUNS`] runs over
/// [`REFERENCE_NS`].
fn reading() -> f64 {
    let mut best = Duration::MAX;
    for _ in 0..RUNS {
        let t = Instant::now();
        black_box(kernel());
        best = best.min(t.elapsed());
    }
    best.as_nanos() as f64 / REFERENCE_NS
}

/// Readings of the host's slowdown between timed operations.
#[derive(Debug)]
pub struct Gauge {
    last: f64,
}

impl Gauge {
    /// Takes a first reading.
    pub fn new() -> Gauge {
        Gauge { last: reading() }
    }

    /// Takes a reading and returns the host's slowdown over the interval
    /// since the previous one: the mean of the two readings.
    pub fn bracket(&mut self) -> f64 {
        let now = reading();
        let slowdown = (self.last + now) / 2.0;
        self.last = now;
        slowdown
    }
}
