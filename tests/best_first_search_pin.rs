//! Pins best-first's search effort, not just its answers.
//!
//! A bound that is admissible but looser than it was passes every
//! correctness test (the answers stay exact) and still slows the search,
//! because fewer subtrees are cut. This test runs the engine over the
//! serving benchmark's cold-read graph (film at scale 1e-3, seed 2016) and
//! compares the totals of the four [`SearchStats`] counters and a hash of
//! the score bits with values recorded before the bound moved to bitsets.
//! The sweep covers concise, tight and diverse spaces with `k <= 4`,
//! `n <= k + 3` and `d` in `{2, 3, 4}`, under both scoring configurations:
//! 224 space/config pairs.

use preview_tables::core::{
    AnytimeBudget, BestFirstDiscovery, KeyScoring, NonKeyScoring, PreviewSpace, ScoredSchema,
    ScoringConfig, SearchStats,
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

#[test]
fn best_first_search_effort_and_scores_match_the_recorded_sweep() {
    let graph = SyntheticGenerator::new(2016).generate(&FreebaseDomain::Film.spec(1e-3));
    let mut total = SearchStats::default();
    let mut score_bits = Vec::new();
    for config in [
        ScoringConfig::coverage(),
        ScoringConfig::new(KeyScoring::Coverage, NonKeyScoring::Entropy),
    ] {
        let scored = ScoredSchema::build(&graph, &config).unwrap();
        for k in 1..=4usize {
            for n in k..=k + 3 {
                let mut spaces = vec![PreviewSpace::concise(k, n).unwrap()];
                for d in [2u32, 3, 4] {
                    spaces.push(PreviewSpace::tight(k, n, d).unwrap());
                    spaces.push(PreviewSpace::diverse(k, n, d).unwrap());
                }
                for space in spaces {
                    let outcome = BestFirstDiscovery::new()
                        .discover_anytime(&scored, &space, AnytimeBudget::UNLIMITED)
                        .unwrap();
                    assert!(outcome.exact, "{space:?}");
                    total.nodes_expanded += outcome.stats.nodes_expanded;
                    total.nodes_pruned += outcome.stats.nodes_pruned;
                    total.bound_cutoffs += outcome.stats.bound_cutoffs;
                    total.subsets_evaluated += outcome.stats.subsets_evaluated;
                    score_bits.push(outcome.score.to_bits());
                }
            }
        }
    }
    assert_eq!(score_bits.len(), 224);
    let hash = fnv1a(score_bits);
    assert_eq!(
        total,
        SearchStats {
            nodes_expanded: 563,
            nodes_pruned: 17_344,
            bound_cutoffs: 16_059,
            subsets_evaluated: 9_876,
        }
    );
    assert_eq!(hash, 0x6acd_d95e_ae5a_6e15);
}
