//! Exact log-linear histograms (HDR-style) over `u64` values in microseconds.
//!
//! The bucket layout is fixed at compile time: values below
//! [`LINEAR_CUTOFF`] get one bucket each (exact), every octave above is
//! split into 32 sub-buckets, so the relative quantile error is bounded by
//! `1/32` (~3.1%) everywhere. Values at or above 2³⁶ µs (~19 hours)
//! saturate into the top bucket; the exact maximum is tracked separately.
//!
//! Unlike a sampling reservoir, every recorded value lands in its bucket —
//! the histogram is *exact* up to bucket granularity, so tail quantiles
//! (p99, p999) do not degrade as the record count grows. Recording is one
//! relaxed `fetch_add` per counter: lock-free, wait-free, and safe to hammer
//! from any number of threads ([`Histogram`] is `Sync`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of buckets in the fixed layout (32 linear + 31 octaves × 32).
pub const BUCKETS: usize = 1024;

/// Values below this get one exact bucket each.
pub(crate) const LINEAR_CUTOFF: u64 = 32;

/// Sub-buckets per octave above the linear range (2^5).
const SUB_BITS: u32 = 5;

/// The bucket a value lands in. Total order: `v <= w` implies
/// `bucket_index(v) <= bucket_index(w)`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < LINEAR_CUTOFF {
        return value as usize;
    }
    let octave = 63 - u64::from(value.leading_zeros()); // >= SUB_BITS
    let group = (octave - u64::from(SUB_BITS) + 1) as usize;
    if group > 31 {
        return BUCKETS - 1; // saturate: value >= 2^36
    }
    let sub = ((value >> (octave - u64::from(SUB_BITS))) & 31) as usize;
    group * 32 + sub
}

/// The smallest value that maps to bucket `index`.
///
/// # Panics
///
/// Panics if `index >= BUCKETS`.
#[inline]
pub fn bucket_lower(index: usize) -> u64 {
    assert!(index < BUCKETS);
    if index < LINEAR_CUTOFF as usize {
        return index as u64;
    }
    let group = index / 32;
    let sub = (index % 32) as u64;
    (32 + sub) << (group - 1)
}

/// A fixed-layout log-linear histogram with lock-free atomic counters.
///
/// All mutation is through `&self`; share it behind an `Arc` (or plain
/// reference) across threads and record concurrently. Totals (`count`,
/// `sum`, `max`) are exact; per-bucket counts are exact; only the *position
/// within a bucket* is quantized.
#[derive(Debug)]
pub struct Histogram {
    counts: Vec<AtomicU64>,
    /// Most recent non-zero exemplar (a raw trace id) per bucket; `0` means
    /// the bucket has no exemplar yet. Written only by
    /// [`record_with_exemplar`](Histogram::record_with_exemplar).
    exemplars: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            exemplars: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value (microseconds by convention).
    #[inline]
    pub fn record(&self, value: u64) {
        // lint: ordering-ok(independent monotonic counters; snapshot() documents the off-by-in-flight race)
        self.counts[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        // lint: ordering-ok(independent monotonic counters; snapshot() documents the off-by-in-flight race)
        self.count.fetch_add(1, Ordering::Relaxed);
        // lint: ordering-ok(independent monotonic counters; snapshot() documents the off-by-in-flight race)
        self.sum.fetch_add(value, Ordering::Relaxed);
        // lint: ordering-ok(fetch_max is commutative and monotonic; ordering cannot change the final max)
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration as saturating whole microseconds.
    #[inline]
    pub fn record_duration(&self, duration: Duration) {
        self.record(duration.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one value and, when `exemplar` is non-zero, stamps it as the
    /// bucket's most recent exemplar (a raw trace id) — the link from a
    /// tail-latency bucket to the retained trace that landed there.
    #[inline]
    pub fn record_with_exemplar(&self, value: u64, exemplar: u64) {
        self.record(value);
        if exemplar != 0 {
            // lint: ordering-ok(last-writer-wins diagnostic stamp; any recent exemplar is acceptable)
            self.exemplars[bucket_index(value)].store(exemplar, Ordering::Relaxed);
        }
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        // lint: ordering-ok(statistics read; exact only once writers quiesce, as documented)
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the counters.
    ///
    /// Buckets are read one by one without a global lock, so a snapshot
    /// racing concurrent `record`s may be off by the in-flight records —
    /// never torn within a counter, and exact once writers quiesce.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .counts
                .iter()
                // lint: ordering-ok(per-bucket reads; the doc above states snapshots race in-flight records)
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            exemplars: self
                .exemplars
                .iter()
                // lint: ordering-ok(per-bucket reads; the doc above states snapshots race in-flight records)
                .map(|e| e.load(Ordering::Relaxed))
                .collect(),
            // lint: ordering-ok(per-counter reads; the doc above states snapshots race in-flight records)
            count: self.count.load(Ordering::Relaxed),
            // lint: ordering-ok(per-counter reads; the doc above states snapshots race in-flight records)
            sum: self.sum.load(Ordering::Relaxed),
            // lint: ordering-ok(per-counter reads; the doc above states snapshots race in-flight records)
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An owned, mergeable copy of a [`Histogram`]'s counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    exemplars: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no recorded values.
    pub fn empty() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            exemplars: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum recorded value (`0` when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact arithmetic mean (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The per-bucket counts (length [`BUCKETS`]).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// The per-bucket exemplars — the raw trace id most recently recorded
    /// into each bucket, `0` where none (length [`BUCKETS`]).
    pub fn bucket_exemplars(&self) -> &[u64] {
        &self.exemplars
    }

    /// Nearest-rank quantile, reported as the lower bound of the bucket the
    /// rank-`⌈q·n⌉` value landed in (`q` in `0.0..=1.0`; `0` when empty).
    ///
    /// Because the bucket order respects the value order, this is the lower
    /// bound of the bucket containing the true nearest-rank value — an
    /// underestimate by at most one bucket width, i.e. a relative error of
    /// at most `1/32` (and exact below the linear cutoff of 32).
    ///
    /// The rank is taken against the bucket total, not [`count`](Self::count):
    /// a snapshot racing concurrent records reads `count` after the buckets,
    /// so `count` may run ahead of them, and ranking against it would walk
    /// past the last recorded bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut cumulative = 0u64;
        for (index, &bucket) in self.counts.iter().enumerate() {
            cumulative += bucket;
            if cumulative >= target {
                return bucket_lower(index);
            }
        }
        bucket_lower(BUCKETS - 1)
    }

    /// Adds every counter of `other` into `self`. Merging snapshots of two
    /// histograms is bucket-for-bucket identical to recording both value
    /// streams into one histogram. `other`'s non-zero exemplars win (it is
    /// the later window when merging consecutive
    /// [`delta_since`](Self::delta_since) results).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        for (mine, &theirs) in self.exemplars.iter_mut().zip(&other.exemplars) {
            if theirs != 0 {
                *mine = theirs;
            }
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The bucket-wise difference `self - earlier` between two cumulative
    /// snapshots of the *same* histogram, `earlier` taken first.
    ///
    /// Counts, count and sum subtract exactly. The maximum is not
    /// subtractive: the delta reports `self`'s max when anything was
    /// recorded in the window and `0` otherwise — a cumulative max is
    /// monotone and unchanged across an empty window, which keeps
    /// delta-then-merge associative (the `histogram_props` proptests pin
    /// merged consecutive deltas against the first-to-last delta).
    /// Exemplars carry `self`'s stamps (cumulative exemplars never reset,
    /// so the later snapshot's stamps are the window's freshest links).
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let count = self.count.saturating_sub(earlier.count);
        HistogramSnapshot {
            counts: self
                .counts
                .iter()
                .zip(&earlier.counts)
                .map(|(later, first)| later.saturating_sub(*first))
                .collect(),
            exemplars: self.exemplars.clone(),
            count,
            sum: self.sum.saturating_sub(earlier.sum),
            max: if count > 0 { self.max } else { 0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_range_is_exact() {
        for v in 0..LINEAR_CUTOFF {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower(v as usize), v);
        }
    }

    #[test]
    fn bucket_boundaries_are_contiguous_and_monotone() {
        // Every bucket's lower bound maps back to that bucket, and lower
        // bounds strictly increase.
        for index in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_lower(index)), index, "index {index}");
            if index > 0 {
                assert!(bucket_lower(index) > bucket_lower(index - 1));
            }
        }
        // The value just below each bucket's lower bound lands in the bucket
        // before it.
        for index in 1..BUCKETS {
            assert_eq!(bucket_index(bucket_lower(index) - 1), index - 1);
        }
    }

    #[test]
    fn saturation_lands_in_the_top_bucket() {
        assert_eq!(bucket_index(1 << 36), BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_index((1 << 36) - 1), BUCKETS - 1);
        let h = Histogram::new();
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.quantile(1.0), bucket_lower(BUCKETS - 1));
        assert_eq!(s.max(), u64::MAX);
    }

    #[test]
    fn relative_error_is_bounded_by_one_thirty_second() {
        for index in 32..BUCKETS - 1 {
            let lower = bucket_lower(index);
            let width = bucket_lower(index + 1) - lower;
            assert!(
                width * 32 <= lower,
                "bucket {index}: width {width} lower {lower}"
            );
        }
    }

    #[test]
    fn quantiles_match_reference_on_a_ramp() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 10_000);
        assert_eq!(s.sum(), 10_000 * 10_001 / 2);
        assert_eq!(s.max(), 10_000);
        for (q, expected) in [(0.5, 5_000u64), (0.9, 9_000), (0.99, 9_900)] {
            let got = s.quantile(q);
            assert_eq!(got, bucket_lower(bucket_index(expected)), "q={q}");
            assert!(got <= expected && expected - got <= expected / 32 + 1);
        }
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s, HistogramSnapshot::empty());
    }

    #[test]
    fn exemplars_keep_the_most_recent_stamp_per_bucket() {
        let h = Histogram::new();
        h.record_with_exemplar(10, 0xaa);
        h.record_with_exemplar(10, 0xbb);
        h.record_with_exemplar(10, 0); // zero never overwrites
        h.record_with_exemplar(5_000, 0xcc);
        let s = h.snapshot();
        assert_eq!(s.bucket_exemplars()[bucket_index(10)], 0xbb);
        assert_eq!(s.bucket_exemplars()[bucket_index(5_000)], 0xcc);
        assert_eq!(s.count(), 4);
    }

    #[test]
    fn quantiles_rank_against_the_bucket_total_when_count_runs_ahead() {
        let h = Histogram::new();
        for v in [10u64, 20, 5_000] {
            h.record(v);
        }
        // A snapshot racing a record can read `count` after that record's
        // bucket increment was missed.
        let mut s = h.snapshot();
        s.count += 1;
        let top = bucket_lower(bucket_index(5_000));
        assert_eq!(s.quantile(1.0), top);
        assert_eq!(s.quantile(0.99), top);
        assert_eq!(s.quantile(0.5), 20);

        let mut empty = HistogramSnapshot::empty();
        empty.count = 1;
        assert_eq!(empty.quantile(1.0), 0);
    }

    #[test]
    fn delta_since_recovers_exactly_whats_recorded_in_the_window() {
        let h = Histogram::new();
        h.record(10);
        h.record(500);
        let earlier = h.snapshot();
        h.record_with_exemplar(500, 7);
        h.record(9_000);
        let later = h.snapshot();
        let delta = later.delta_since(&earlier);
        assert_eq!(delta.count(), 2);
        assert_eq!(delta.sum(), 500 + 9_000);
        assert_eq!(delta.max(), later.max());
        assert_eq!(delta.bucket_counts()[bucket_index(10)], 0);
        assert_eq!(delta.bucket_counts()[bucket_index(500)], 1);
        assert_eq!(delta.bucket_counts()[bucket_index(9_000)], 1);
        assert_eq!(delta.bucket_exemplars()[bucket_index(500)], 7);

        // An empty window reports a zero max and zero counts.
        let idle = later.delta_since(&later);
        assert_eq!(idle.count(), 0);
        assert_eq!(idle.max(), 0);

        // delta + earlier merges back to the later cumulative totals.
        let mut rebuilt = earlier.clone();
        rebuilt.merge(&delta);
        assert_eq!(rebuilt.count(), later.count());
        assert_eq!(rebuilt.sum(), later.sum());
        assert_eq!(rebuilt.bucket_counts(), later.bucket_counts());
    }
}
