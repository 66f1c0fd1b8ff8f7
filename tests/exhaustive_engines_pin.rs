//! Pins the exhaustive engines' answers: brute force (Alg. 1) and Apriori
//! (Alg. 3).
//!
//! Both engines score subsets with a walk that reuses the state of a shared
//! prefix. A slip in that state (a depth not recomputed, an extras merge
//! that breaks a tie the other way) can still return a near-optimal preview,
//! so this test compares the exact winners with values recorded before the
//! walk reused prefixes. It runs over the serving benchmark's cold-read graph
//! (film at scale 1e-3, seed 2016) under both scoring configurations, with
//! `k <= 3` and `n <= k + 3`: brute force on concise, tight and diverse
//! spaces with `d` in `{2, 3, 4}`, Apriori on the tight and diverse ones.
//! Each winner contributes its key type ids, its per-table non-key counts
//! and the score bits [`best_preview_for_subset`] reports for its keys.

use preview_tables::core::{
    best_preview_for_subset, AprioriDiscovery, BruteForceDiscovery, KeyScoring, NonKeyScoring,
    Preview, PreviewDiscovery, PreviewSpace, ScoredSchema, ScoringConfig,
};
use preview_tables::datagen::{FreebaseDomain, SyntheticGenerator};

/// FNV-1a over the bytes of each value.
fn fnv1a(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for value in values {
        for byte in value.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// The values one engine run adds to the hash: a marker for an empty space,
/// else the winner's keys, non-key counts and re-walked score bits.
fn winner_values(
    scored: &ScoredSchema,
    space: &PreviewSpace,
    preview: Option<Preview>,
) -> Vec<u64> {
    let Some(preview) = preview else {
        return vec![u64::MAX];
    };
    let keys: Vec<_> = preview.tables().iter().map(|t| t.key()).collect();
    let (_, score) = best_preview_for_subset(scored, &keys, space).expect("winner re-walks");
    let mut values: Vec<u64> = keys.iter().map(|ty| ty.index() as u64).collect();
    values.extend(preview.tables().iter().map(|t| t.non_keys().len() as u64));
    values.push(score.to_bits());
    values
}

#[test]
fn brute_force_and_apriori_winners_match_the_recorded_sweep() {
    let graph = SyntheticGenerator::new(2016).generate(&FreebaseDomain::Film.spec(1e-3));
    let mut brute = (0usize, 0usize, Vec::new());
    let mut apriori = (0usize, 0usize, Vec::new());
    for config in [
        ScoringConfig::coverage(),
        ScoringConfig::new(KeyScoring::Coverage, NonKeyScoring::Entropy),
    ] {
        let scored = ScoredSchema::build(&graph, &config).unwrap();
        for k in 1..=3usize {
            for n in k..=k + 3 {
                let mut spaces = vec![PreviewSpace::concise(k, n).unwrap()];
                for d in [2u32, 3, 4] {
                    spaces.push(PreviewSpace::tight(k, n, d).unwrap());
                    spaces.push(PreviewSpace::diverse(k, n, d).unwrap());
                }
                for space in spaces {
                    let mut engines: Vec<(&dyn PreviewDiscovery, _)> =
                        vec![(&BruteForceDiscovery, &mut brute)];
                    if space.distance().is_some() {
                        engines.push((&AprioriDiscovery, &mut apriori));
                    }
                    for (engine, (runs, empty, values)) in engines {
                        let preview = engine.discover(&scored, &space).unwrap();
                        *runs += 1;
                        *empty += usize::from(preview.is_none());
                        values.extend(winner_values(&scored, &space, preview));
                    }
                }
            }
        }
    }
    let (brute_runs, brute_empty, brute_values) = brute;
    let (apriori_runs, apriori_empty, apriori_values) = apriori;
    assert_eq!((brute_runs, apriori_runs), (168, 144));
    assert_eq!((brute_empty, apriori_empty), (0, 0));
    assert_eq!(fnv1a(brute_values), 0xc79e_fb44_4115_5997, "brute force");
    assert_eq!(fnv1a(apriori_values), 0x9654_7dd3_3cd9_d3a5, "apriori");
}
