//! Mergeable log-linear histograms.
//!
//! The recorder of the serving layer's latency statistics. Values
//! (nanoseconds, bytes — any `u64`) are counted into buckets whose
//! width grows geometrically: each power-of-two octave is split into
//! [`SUBBUCKETS`] linear sub-buckets, so a recorded value lands in a
//! bucket whose width is at most 1/16 of its magnitude. That yields
//!
//! * **exact counts over the full run** — nothing is sampled or
//!   windowed; `count` and `sum` are exact, and a percentile's rank is
//!   exact (only the reported *value* is quantized to its bucket, a
//!   ≤ ~3.2% relative error);
//! * **bounded memory** — [`BUCKETS`] `u64` slots (< 8 KiB) regardless
//!   of how many samples are recorded;
//! * **associative merging** — bucket counts add, so per-run snapshots
//!   combine into one distribution in any order.
//!
//! [`Histogram`] is the plain single-writer form (benches, snapshots);
//! [`AtomicHistogram`] is the shared form, whose atomic buckets any
//! number of threads record into with no lock.

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per power-of-two octave (16 → bucket width ≤ 1/16
/// of the value's magnitude).
pub const SUBBUCKETS: u64 = 1 << SUB_BITS;
const SUB_BITS: u32 = 4;

/// Total bucket count: values `0..SUBBUCKETS` get exact unit buckets,
/// then 16 sub-buckets per octave up to `u64::MAX`.
pub const BUCKETS: usize = ((64 - SUB_BITS) as usize + 1) * SUBBUCKETS as usize;

/// The bucket index a value is counted under (monotone in `v`).
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUBBUCKETS {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let sub = (v >> (exp - SUB_BITS)) - SUBBUCKETS;
    ((exp - SUB_BITS + 1) as usize * SUBBUCKETS as usize) + sub as usize
}

/// The smallest value that maps to bucket `i` (inverse of [`bucket_of`]
/// on bucket lower bounds).
#[inline]
fn bucket_low(i: usize) -> u64 {
    let i = i as u64;
    if i < SUBBUCKETS {
        return i;
    }
    let exp = i / SUBBUCKETS - 1 + SUB_BITS as u64;
    let sub = i % SUBBUCKETS;
    (SUBBUCKETS + sub) << (exp - SUB_BITS as u64)
}

/// A representative value for bucket `i`: its midpoint (exact for the
/// unit buckets). This is what percentile queries report.
#[inline]
fn bucket_mid(i: usize) -> u64 {
    let low = bucket_low(i);
    if (i as u64) < SUBBUCKETS {
        return low;
    }
    let width = bucket_low(i + 1).saturating_sub(low).max(1);
    low + (width - 1) / 2
}

/// A single-writer log-linear histogram. See the module docs for the
/// bucketing scheme.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0u64; BUCKETS]
                .into_boxed_slice()
                .try_into()
                .expect("BUCKETS length"),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Counts one value.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Adds every count of `other` into `self` (associative and
    /// commutative: any merge order yields the same histogram).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values (exact).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (exact, saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value, 0 when empty (exact).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Smallest recorded value, 0 when empty (exact).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Arithmetic mean, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The nearest-rank percentile: the representative value of the
    /// bucket holding the smallest recorded value with at least `pct`
    /// percent of samples at or below it. `pct` may be fractional
    /// (`99.9` for p999); 0 on an empty histogram. The rank is exact;
    /// the value is bucket-quantized (≤ ~3.2% relative error), and
    /// clamped into the exact observed `[min, max]` range.
    pub fn percentile(&self, pct: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let pct = pct.clamp(0.0, 100.0);
        // Nearest rank: ceil(pct/100 * count), at least 1.
        let rank = ((pct / 100.0 * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(i).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// A histogram of atomic buckets shared by every recording thread.
/// Recording is a handful of relaxed atomic adds — no mutex, no
/// allocation. Snapshots are racy but monotone (counts never go
/// backwards), which is all statistics need.
pub struct AtomicHistogram {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> AtomicHistogram {
        AtomicHistogram::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> AtomicHistogram {
        AtomicHistogram {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Counts one value.
    pub fn record(&self, v: u64) {
        self.counts[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy as a plain [`Histogram`]. Concurrent
    /// recording keeps going.
    pub fn snapshot(&self) -> Histogram {
        let mut out = Histogram::new();
        for (a, b) in out.counts.iter_mut().zip(self.counts.iter()) {
            *a = b.load(Ordering::Relaxed);
        }
        out.count = self.count.load(Ordering::Relaxed);
        out.sum = self.sum.load(Ordering::Relaxed);
        out.min = self.min.load(Ordering::Relaxed);
        out.max = self.max.load(Ordering::Relaxed);
        out
    }
}

impl std::fmt::Debug for AtomicHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicHistogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_self_inverse() {
        let mut last = 0usize;
        for v in [0u64, 1, 15, 16, 17, 31, 32, 100, 1000, 1 << 20, u64::MAX] {
            let b = bucket_of(v);
            assert!(b >= last, "bucket_of must be monotone at {v}");
            assert!(bucket_low(b) <= v, "low({b}) > {v}");
            if b + 1 < BUCKETS {
                assert!(bucket_low(b + 1) > v, "v {v} beyond bucket {b}");
            }
            last = b;
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), 7);
        assert_eq!(h.percentile(100.0), 15);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        assert_eq!(h.count(), 16);
        assert_eq!(h.sum(), 120);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.percentile(99.9), 0);
        assert_eq!((h.count(), h.sum(), h.min(), h.max()), (0, 0, 0, 0));
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn percentiles_stay_within_relative_error() {
        let mut h = Histogram::new();
        let values: Vec<u64> = (1..=10_000u64).map(|k| k * 997).collect();
        for &v in &values {
            h.record(v);
        }
        for pct in [50.0, 95.0, 99.0, 99.9] {
            let rank = ((pct / 100.0 * values.len() as f64).ceil() as usize).max(1);
            let oracle = values[rank - 1];
            let est = h.percentile(pct);
            let err = (est as f64 - oracle as f64).abs() / oracle as f64;
            assert!(err <= 0.035, "p{pct}: est {est} oracle {oracle} err {err}");
        }
    }

    #[test]
    fn merge_is_associative() {
        let chunks: [&[u64]; 3] = [&[1, 5, 500], &[2, 1 << 30, 77], &[0, 0, 12_345]];
        let hist_of = |values: &[&[u64]]| {
            let mut h = Histogram::new();
            for chunk in values {
                for &v in *chunk {
                    h.record(v);
                }
            }
            h
        };
        let all = hist_of(&chunks);
        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c) == recording everything into one.
        let mut left = hist_of(&[chunks[0]]);
        left.merge(&hist_of(&[chunks[1]]));
        left.merge(&hist_of(&[chunks[2]]));
        let mut right = hist_of(&[chunks[1]]);
        right.merge(&hist_of(&[chunks[2]]));
        let mut a = hist_of(&[chunks[0]]);
        a.merge(&right);
        assert!(left == all && a == all);
    }

    #[test]
    fn shared_recording_counts_every_thread() {
        let h = AtomicHistogram::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = &h;
                s.spawn(move || {
                    for k in 0..1000u64 {
                        h.record(t * 1000 + k);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count(), 4000);
        assert_eq!(snap.min(), 0);
        assert_eq!(snap.max(), 3999);
    }
}
