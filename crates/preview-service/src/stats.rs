//! Service-level statistics: request counters, latency percentiles and
//! throughput, combined with the cache counters into one snapshot.
//!
//! Latency comes from one exact [`preview_obs::Histogram`]: every completed
//! request lands in a bucket, so p50/p99 resolve the tail at any request
//! count (relative error ≤ 1/32 from bucket granularity, nothing from
//! sampling), and the histogram's exact sum and maximum give the mean and
//! the worst case. Per-request trace exemplars live on the recorder's
//! `request` stage, not here.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use preview_obs::Histogram;

use crate::cache::CacheStats;

/// Shared mutable statistics the workers write into.
#[derive(Debug)]
pub(crate) struct StatsRecorder {
    /// Service start time, for uptime / throughput reporting only.
    // lint: allow(wall-clock, uptime and throughput are reporting-only; no decision depends on it)
    started: Instant,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    publishes: AtomicU64,
    cache_carried_forward: AtomicU64,
    cache_invalidated: AtomicU64,
    /// Total (queue wait + compute) latency of completed requests, µs:
    /// lock-free, every completion counted.
    latency_hist: Histogram,
}

impl StatsRecorder {
    pub(crate) fn new() -> Self {
        Self {
            // lint: allow(wall-clock, uptime anchor for reporting-only throughput)
            started: Instant::now(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
            cache_carried_forward: AtomicU64::new(0),
            cache_invalidated: AtomicU64::new(0),
            latency_hist: Histogram::new(),
        }
    }

    /// Records one version-bumping delta publish and its cache maintenance
    /// outcome: superseded-version entries re-keyed onto the new version vs
    /// entries that went cold because the delta affected their scores.
    pub(crate) fn record_publish(&self, carried_forward: u64, invalidated: u64) {
        // lint: ordering-ok(independent monotonic counter; snapshot tolerates skew)
        self.publishes.fetch_add(1, Ordering::Relaxed);
        self.cache_carried_forward
            // lint: ordering-ok(independent monotonic counter; snapshot tolerates skew)
            .fetch_add(carried_forward, Ordering::Relaxed);
        self.cache_invalidated
            // lint: ordering-ok(independent monotonic counter; snapshot tolerates skew)
            .fetch_add(invalidated, Ordering::Relaxed);
    }

    pub(crate) fn record_submitted(&self) {
        // lint: ordering-ok(independent monotonic counter; snapshot tolerates skew)
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one successful completion and its total latency.
    pub(crate) fn record_completed(&self, latency: Duration) {
        // lint: ordering-ok(independent monotonic counter; snapshot tolerates skew)
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.latency_hist.record_duration(latency);
    }

    pub(crate) fn record_failed(&self) {
        // lint: ordering-ok(independent monotonic counter; snapshot tolerates skew)
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self, cache: CacheStats, queue_depth: usize) -> ServiceStats {
        let hist = self.latency_hist.snapshot();
        let elapsed = self.started.elapsed();
        // lint: ordering-ok(statistical snapshot; counters may be mutually skewed)
        let completed = self.completed.load(Ordering::Relaxed);
        ServiceStats {
            elapsed,
            // lint: ordering-ok(statistical snapshot; counters may be mutually skewed)
            submitted: self.submitted.load(Ordering::Relaxed),
            completed,
            // lint: ordering-ok(statistical snapshot; counters may be mutually skewed)
            failed: self.failed.load(Ordering::Relaxed),
            queue_depth,
            throughput_rps: if elapsed.as_secs_f64() > 0.0 {
                completed as f64 / elapsed.as_secs_f64()
            } else {
                0.0
            },
            latency_mean_us: hist.mean(),
            latency_p50_us: hist.quantile(0.50),
            latency_p99_us: hist.quantile(0.99),
            latency_max_us: hist.max(),
            // lint: ordering-ok(statistical snapshot; counters may be mutually skewed)
            publishes: self.publishes.load(Ordering::Relaxed),
            // lint: ordering-ok(statistical snapshot; counters may be mutually skewed)
            cache_carried_forward: self.cache_carried_forward.load(Ordering::Relaxed),
            // lint: ordering-ok(statistical snapshot; counters may be mutually skewed)
            cache_invalidated: self.cache_invalidated.load(Ordering::Relaxed),
            cache,
        }
    }
}

/// A point-in-time snapshot of the service's behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Time since the service started.
    pub elapsed: Duration,
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests that ended in an error.
    pub failed: u64,
    /// Requests currently waiting in the queue.
    pub queue_depth: usize,
    /// Completed requests per second of service uptime.
    pub throughput_rps: f64,
    /// Mean total latency (queue wait + compute), microseconds (exact).
    pub latency_mean_us: f64,
    /// Median total latency, microseconds: the lower bound of the exact
    /// histogram bucket holding the nearest-rank value (relative error
    /// ≤ 1/32, no sampling error at any request count).
    pub latency_p50_us: u64,
    /// 99th-percentile total latency, microseconds (same bounds as p50).
    pub latency_p99_us: u64,
    /// Worst observed total latency, microseconds.
    pub latency_max_us: u64,
    /// Version-bumping delta publishes served by this service.
    pub publishes: u64,
    /// Cache entries carried forward across version bumps because the delta
    /// provably did not affect their scores (re-keyed to the new version).
    pub cache_carried_forward: u64,
    /// Cache entries invalidated by version bumps: entries of a superseded
    /// version whose scoring configuration the delta affected, counted once
    /// at the bump that made them cold for latest traffic.
    pub cache_invalidated: u64,
    /// Result-cache counters.
    pub cache: CacheStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nearest-rank percentile over an ascending-sorted sample (`p` in
    /// 0..=100) — the exact reference the histogram quantiles are pinned
    /// against.
    fn percentile(sorted_us: &[u64], p: f64) -> u64 {
        if sorted_us.is_empty() {
            return 0;
        }
        let rank = ((p / 100.0) * sorted_us.len() as f64).ceil() as usize;
        sorted_us[rank.clamp(1, sorted_us.len()) - 1]
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sample, 50.0), 50);
        assert_eq!(percentile(&sample, 99.0), 99);
        assert_eq!(percentile(&sample, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn snapshot_aggregates_counters() {
        let recorder = StatsRecorder::new();
        recorder.record_submitted();
        recorder.record_submitted();
        recorder.record_completed(Duration::from_micros(100));
        recorder.record_completed(Duration::from_micros(300));
        recorder.record_failed();
        let stats = recorder.snapshot(CacheStats::default(), 3);
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.queue_depth, 3);
        // Histogram quantiles report bucket lower bounds: 100 µs sits on an
        // exact bucket boundary; 300 µs lands in the [296, 304) bucket.
        assert_eq!(stats.latency_p50_us, 100);
        assert_eq!(stats.latency_p99_us, 296);
        // Max and mean stay exact (the histogram's sum and max are not
        // bucketed).
        assert_eq!(stats.latency_max_us, 300);
        assert!((stats.latency_mean_us - 200.0).abs() < 1e-9);
        assert!(stats.throughput_rps > 0.0);
    }

    /// Pins the histogram-vs-reference quantile error bound the exact
    /// histogram replaces the sampling reservoir under: every reported
    /// quantile is the lower bound of the bucket holding the true
    /// nearest-rank value — within 1/32 relative error, at any volume.
    ///
    /// The old 512-sample-style reservoir could only promise a *sampled*
    /// tail; at 1000+ requests its p99 rode on ~10 samples. The histogram's
    /// error here is structural (bucket width), not statistical, so the
    /// bound below is deterministic and holds for every load size tested.
    #[test]
    fn histogram_quantiles_track_the_exact_reference_within_one_bucket() {
        for n in [100u64, 1_000, 50_000] {
            let recorder = StatsRecorder::new();
            // Deterministic skewed workload: a long tail like service
            // latencies (quadratic ramp spreads mass across octaves).
            let mut all: Vec<u64> = (1..=n).map(|i| 50 + i * i % 9_973 + i / 3).collect();
            for &us in &all {
                recorder.record_completed(Duration::from_micros(us));
            }
            all.sort_unstable();
            let stats = recorder.snapshot(CacheStats::default(), 0);
            for (got, p) in [(stats.latency_p50_us, 50.0), (stats.latency_p99_us, 99.0)] {
                let reference = percentile(&all, p);
                assert!(
                    got <= reference,
                    "n={n} p{p}: histogram {got} above reference {reference}"
                );
                assert!(
                    reference - got <= reference / 32 + 1,
                    "n={n} p{p}: histogram {got} more than one bucket below {reference}"
                );
            }
            // Mean and max stay exact.
            let exact_mean = all.iter().sum::<u64>() as f64 / n as f64;
            assert!((stats.latency_mean_us - exact_mean).abs() < 1e-6);
            assert_eq!(stats.latency_max_us, *all.last().unwrap());
        }
    }
}
