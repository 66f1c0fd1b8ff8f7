//! Property tests for the exact log-linear histogram: record/merge
//! round-trips, `delta_since` composed with `merge`, quantiles tracking a
//! sorted-vector reference within one bucket, and top-bucket saturation.
//!
//! The vendored proptest supports integer-range strategies only, so value
//! vectors are derived from a proptest-chosen seed via `ChaCha8Rng` (the
//! same pattern as `entity-graph`'s CSR property tests).

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use preview_obs::{bucket_index, bucket_lower, Histogram, HistogramSnapshot, BUCKETS};

/// Values spanning every non-saturating octave of the layout (the exact
/// linear range through 2³⁵; at/above 2³⁶ buckets saturate and the 1/32
/// error bound intentionally no longer applies — covered separately below).
fn random_values(seed: u64, len: usize) -> Vec<u64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let exp = rng.gen_range(0u32..36);
            rng.gen_range(0..=(1u64 << exp))
        })
        .collect()
}

fn record_all(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Splitting a value stream across two histograms and merging their
    /// snapshots is bucket-for-bucket identical to recording everything
    /// into one histogram — and totals (count, sum, max) stay exact.
    #[test]
    fn record_then_merge_round_trips(
        seed in 0u64..10_000,
        len in 1usize..2_000,
        split_num in 0u64..=100,
    ) {
        let values = random_values(seed, len);
        let split = (len as u64 * split_num / 100) as usize;
        let whole = record_all(&values);

        let mut merged = record_all(&values[..split]);
        merged.merge(&record_all(&values[split..]));
        prop_assert_eq!(&merged, &whole);
        prop_assert_eq!(merged.count(), len as u64);
        prop_assert_eq!(merged.sum(), values.iter().sum::<u64>());
        prop_assert_eq!(merged.max(), values.iter().copied().max().unwrap_or(0));

        // Merging an empty snapshot is the identity.
        let mut padded = whole.clone();
        padded.merge(&HistogramSnapshot::empty());
        prop_assert_eq!(&padded, &whole);
    }

    /// Snapshots taken between random batches recorded into one histogram:
    /// merging the consecutive `delta_since`s reproduces the first-to-last
    /// `delta_since` exactly (bucket counts, count, sum, max and exemplars),
    /// and so does joining the merged deltas on either side of every split
    /// point. Per-layer bench numbers are `delta_since` results, so this
    /// pins that windows of a cumulative histogram add up.
    #[test]
    fn consecutive_deltas_merge_to_the_first_to_last_delta(
        seed in 0u64..10_000,
        batches in 1usize..40,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let h = Histogram::new();
        let mut snapshots = vec![h.snapshot()];
        for _ in 0..batches {
            for _ in 0..rng.gen_range(0usize..20) {
                let exp = rng.gen_range(0u32..36);
                let value = rng.gen_range(0..=(1u64 << exp));
                h.record_with_exemplar(value, rng.gen_range(1u64..999));
            }
            snapshots.push(h.snapshot());
        }
        let first = &snapshots[0];
        let last = &snapshots[batches];
        let deltas: Vec<HistogramSnapshot> = snapshots
            .windows(2)
            .map(|pair| pair[1].delta_since(&pair[0]))
            .collect();

        // prefixes[m] merges deltas[..m]; suffixes[m] merges deltas[m..].
        let mut prefixes = vec![HistogramSnapshot::empty()];
        for delta in &deltas {
            let mut next = prefixes[prefixes.len() - 1].clone();
            next.merge(delta);
            prefixes.push(next);
        }
        let mut suffixes = vec![HistogramSnapshot::empty()];
        for delta in deltas.iter().rev() {
            let mut next = delta.clone();
            next.merge(&suffixes[suffixes.len() - 1]);
            suffixes.push(next);
        }
        suffixes.reverse();

        let direct = last.delta_since(first);
        prop_assert_eq!(&prefixes[batches], &direct);
        prop_assert_eq!(direct.count(), h.count());
        for mid in 0..=batches {
            prop_assert_eq!(&prefixes[mid], &snapshots[mid].delta_since(first));
            let mut joined = prefixes[mid].clone();
            joined.merge(&suffixes[mid]);
            prop_assert_eq!(&joined, &direct);
        }
    }

    /// Every quantile equals the lower bound of the bucket holding the true
    /// nearest-rank value from a sorted-vector reference: an underestimate
    /// by at most one bucket width (relative error ≤ 1/32, exact below the
    /// linear cutoff).
    #[test]
    fn quantiles_track_the_sorted_reference_within_one_bucket(
        seed in 0u64..10_000,
        len in 1usize..2_000,
    ) {
        let values = random_values(seed, len);
        let snapshot = record_all(&values);
        let mut sorted = values;
        sorted.sort_unstable();

        for q in [0.0, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0] {
            let target = ((q * sorted.len() as f64).ceil() as usize)
                .clamp(1, sorted.len());
            let reference = sorted[target - 1];
            let got = snapshot.quantile(q);
            prop_assert_eq!(got, bucket_lower(bucket_index(reference)));
            prop_assert!(got <= reference);
            prop_assert!(
                reference - got <= reference / 32,
                "q={}: got {} vs reference {}", q, got, reference
            );
        }
    }

    /// Values at or above 2³⁶ all saturate into the top bucket; the exact
    /// maximum survives saturation.
    #[test]
    fn huge_values_saturate_into_the_top_bucket(
        seed in 0u64..10_000,
        len in 1usize..200,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let h = Histogram::new();
        let mut max = 0u64;
        for _ in 0..len {
            let v = rng.gen_range(1u64 << 36..=u64::MAX);
            prop_assert_eq!(bucket_index(v), BUCKETS - 1);
            h.record(v);
            max = max.max(v);
        }
        let snapshot = h.snapshot();
        prop_assert_eq!(snapshot.bucket_counts()[BUCKETS - 1], len as u64);
        prop_assert_eq!(snapshot.quantile(0.5), bucket_lower(BUCKETS - 1));
        prop_assert_eq!(snapshot.max(), max);
    }
}
