//! Lock-free log-linear histograms (HdrHistogram-style bucketing).
//!
//! Values are `u64`s (nanoseconds, bytes, embedding counts — the unit is
//! the caller's). Each power-of-two octave `[2^m, 2^(m+1))` splits into
//! `2^SUB_BITS = 8` equal sub-buckets, so any recorded value lands in a
//! bucket whose width is at most 1/8 of the value: every reported
//! quantile is within **12.5% relative error** of the exact
//! sorted-sample oracle (the property tests in `check` pin this).
//!
//! [`Histogram::record`] is lock-free and allocation-free: two relaxed
//! atomic adds (bucket, sum) plus extrema updates that in steady state
//! degrade to plain loads — so recorders on the service submit/finalize
//! path never contend. Reads take a [`Histogram::snapshot`], and
//! snapshots [`HistSnapshot::merge`] across workers, services and
//! shards: bucket counts add, which is exactly how the underlying
//! samples would combine.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: 2^3 = 8 linear buckets per octave.
const SUB_BITS: u32 = 3;
const SUB_COUNT: u64 = 1 << SUB_BITS;

/// Buckets 0..8 are exact (values 0..8); each of the 61 octaves
/// `m = 3..=63` contributes 8 sub-buckets: 8 + 61×8 = 496.
pub const NUM_BUCKETS: usize = (SUB_COUNT + (64 - SUB_BITS as u64) * SUB_COUNT) as usize;

/// Bucket index of a value. Values below `2^SUB_BITS` map exactly;
/// larger values map by (octave, sub-bucket).
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros(); // >= SUB_BITS
        let sub = (v >> (msb - SUB_BITS)) & (SUB_COUNT - 1);
        ((msb - SUB_BITS + 1) as u64 * SUB_COUNT + sub) as usize
    }
}

/// Lowest value mapping to `index` (inverse of [`bucket_index`]).
pub(crate) fn bucket_low(index: usize) -> u64 {
    let i = index as u64;
    if i < SUB_COUNT {
        i
    } else {
        let octave = i / SUB_COUNT - 1 + SUB_BITS as u64;
        let sub = i % SUB_COUNT;
        (SUB_COUNT + sub) << (octave - SUB_BITS as u64)
    }
}

/// Highest value mapping to `index`. Summed before the width is added
/// so the final bucket's edge reaches `u64::MAX` without overflow.
pub(crate) fn bucket_high(index: usize) -> u64 {
    let i = index as u64;
    if i < SUB_COUNT {
        i
    } else {
        let octave = i / SUB_COUNT - 1 + SUB_BITS as u64;
        let width = 1u64 << (octave - SUB_BITS as u64);
        bucket_low(index) + (width - 1)
    }
}

/// A mergeable, lock-free log-linear histogram. ~4 KiB of atomics.
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value: two relaxed atomic adds, plus a min/max RMW
    /// only when `v` is a fresh extreme — after warm-up the guards fail
    /// and the extrema cost two plain loads. (The total count is not a
    /// separate atomic; snapshots derive it from the bucket sums.)
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        if v < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(v, Ordering::Relaxed);
        }
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// A coherent-enough copy for reporting. Concurrent recorders may
    /// land between the field reads; the snapshot clamps so quantiles
    /// stay inside `[min, max]` regardless.
    pub fn snapshot(&self) -> HistSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        HistSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// An owned copy of a [`Histogram`]'s state: quantile queries, merging
/// across workers/shards, and rendering happen here, off the hot path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Vec<u64>,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot::empty()
    }
}

impl HistSnapshot {
    /// A snapshot of zero recorded values.
    pub fn empty() -> Self {
        HistSnapshot {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![0; NUM_BUCKETS],
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of the recorded values, within
    /// one bucket's relative error (≤ 12.5%) of the exact sorted-sample
    /// answer. Returns 0 when empty.
    ///
    /// The reported value is the upper edge of the bucket holding the
    /// rank-`⌈q·count⌉` sample, clamped into the observed `[min, max]` —
    /// so `quantile(0.0) == min()` and `quantile(1.0) == max()` exactly.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_high(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merge another snapshot into this one — equivalent to having
    /// recorded both sample sets into one histogram.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_low_values_are_exact() {
        for v in 0..8u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_low(v as usize), v);
            assert_eq!(bucket_high(v as usize), v);
        }
    }

    #[test]
    fn bucket_edges_invert_index() {
        for i in 0..NUM_BUCKETS {
            let lo = bucket_low(i);
            assert_eq!(bucket_index(lo), i, "low edge of bucket {i}");
            let hi = bucket_high(i);
            assert_eq!(bucket_index(hi), i, "high edge of bucket {i}");
            if i + 1 < NUM_BUCKETS && hi < u64::MAX {
                assert_eq!(bucket_index(hi + 1), i + 1, "bucket {i} is contiguous");
            }
        }
    }

    #[test]
    fn bucket_width_bounds_relative_error() {
        for v in [8u64, 100, 1_000, 123_456, u64::MAX / 2] {
            let i = bucket_index(v);
            let width = bucket_high(i) - bucket_low(i);
            assert!(
                width <= bucket_low(i) / 8 + 1,
                "bucket of {v} too wide: [{}, {}]",
                bucket_low(i),
                bucket_high(i)
            );
        }
    }

    #[test]
    fn quantiles_match_small_exact_samples() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 4, 5] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.sum(), 15);
        assert_eq!(s.min(), 1);
        assert_eq!(s.max(), 5);
        assert_eq!(s.quantile(0.0), 1);
        assert_eq!(s.quantile(0.5), 3);
        assert_eq!(s.quantile(1.0), 5);
    }

    #[test]
    fn empty_snapshot_is_inert() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s, HistSnapshot::empty());
    }

    #[test]
    fn merge_equals_combined_recording() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in 0..1000u64 {
            if v % 2 == 0 { &a } else { &b }.record(v * 17);
            all.record(v * 17);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m, all.snapshot());
    }

    #[test]
    fn quantile_clamps_to_observed_extremes() {
        let h = Histogram::new();
        h.record(1_000_003);
        let s = h.snapshot();
        // Single sample: every quantile is that sample, exactly.
        assert_eq!(s.quantile(0.0), 1_000_003);
        assert_eq!(s.quantile(0.5), 1_000_003);
        assert_eq!(s.quantile(0.999), 1_000_003);
    }
}
