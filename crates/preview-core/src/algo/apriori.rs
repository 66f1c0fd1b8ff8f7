//! Apriori-style optimal *tight/diverse* preview discovery (Alg. 3).
//!
//! Finding the key attributes of a tight (diverse) preview is the problem of
//! finding a `k`-clique in the graph whose vertices are entity types and whose
//! edges connect types within (beyond) distance `d`. The algorithm grows
//! candidate subsets level-wise, Apriori style: two `(i−1)`-subsets that share
//! their first `i−2` elements are joined if their last elements also satisfy
//! the distance constraint. Every `k`-subset that survives is scored via
//! Theorem 3 without building its preview, and only the best one is
//! assembled.

use crate::algo::bound::set_members;
use crate::algo::common::{eligible_views, preview_at, space_is_empty, walk_subset};
use crate::algo::PreviewDiscovery;
use crate::constraint::{DistanceConstraint, PreviewSpace};
use crate::error::{Error, Result};
use crate::preview::Preview;
use crate::scoring::ScoredSchema;

/// The Apriori-style algorithm (Alg. 3) for tight and diverse previews.
#[derive(Debug, Clone, Copy, Default)]
pub struct AprioriDiscovery;

impl AprioriDiscovery {
    /// Creates the algorithm.
    pub fn new() -> Self {
        Self
    }
}

impl PreviewDiscovery for AprioriDiscovery {
    fn name(&self) -> &'static str {
        "apriori"
    }

    fn discover(&self, scored: &ScoredSchema, space: &PreviewSpace) -> Result<Option<Preview>> {
        let constraint = match space.distance() {
            Some(c) => c,
            None => {
                return Err(Error::InvalidConstraint {
                    message: "the Apriori-style algorithm requires a distance constraint; \
                              use the dynamic-programming algorithm for concise previews"
                        .to_string(),
                })
            }
        };
        let size = space.size();
        if space_is_empty(scored, size) {
            return Ok(None);
        }
        let k = size.tables;
        let extras = size.non_keys - k;
        let views = eligible_views(scored);
        let subsets = candidate_subsets(scored, constraint, k);
        // Keep the earliest strict maximum in subset order.
        let mut taken = Vec::with_capacity(k);
        let mut best: Option<(f64, &[u32])> = None;
        for subset in subsets.chunks_exact(k) {
            let table = |pos: usize| views[subset[pos] as usize];
            if let Some(score) = walk_subset(k, table, extras, &mut taken) {
                if best.is_none_or(|(top, _)| score > top) {
                    best = Some((score, subset));
                }
            }
        }
        Ok(best
            .and_then(|(_, subset)| preview_at(scored, subset.iter().map(|&i| i as usize), size)))
    }
}

/// Level-wise generation of the `k`-subsets of eligible-type *indices* whose
/// pairwise distances satisfy the constraint (Alg. 3, lines 1–14), as one
/// flat vector with stride `k`.
///
/// Every level is flat the same way, in lexicographic order with the level's
/// subset size as its stride.
fn candidate_subsets(scored: &ScoredSchema, constraint: DistanceConstraint, k: usize) -> Vec<u32> {
    let count = scored.eligible_types().len() as u32;
    if k == 1 {
        return (0..count).collect();
    }
    let rows = scored.pair_rows(Some(constraint));

    // L2: all ordered pairs (i < j) satisfying the constraint.
    let mut level: Vec<u32> = Vec::new();
    for i in 0..count {
        for j in set_members(rows.row(i)) {
            level.extend([i, j]);
        }
    }

    let mut size = 2;
    while size < k && !level.is_empty() {
        // Join pairs of subsets sharing all but their last element. The level
        // is in lexicographic order, so subsets with a common prefix are
        // adjacent.
        let subsets: Vec<&[u32]> = level.chunks_exact(size).collect();
        let mut joined = Vec::new();
        for group in subsets.chunk_by(|a, b| a[..size - 1] == b[..size - 1]) {
            for (a, first) in group.iter().enumerate() {
                for second in &group[a + 1..] {
                    let last = second[size - 1];
                    if rows.pair_ok(first[size - 1], last) {
                        joined.extend_from_slice(first);
                        joined.push(last);
                    }
                }
            }
        }
        level = joined;
        size += 1;
    }

    if size == k {
        level
    } else {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::brute_force::BruteForceDiscovery;
    use crate::constraint::PreviewSpace;
    use crate::scoring::{KeyScoring, NonKeyScoring, ScoredSchema, ScoringConfig};
    use entity_graph::fixtures::{self, types};

    fn scored(config: ScoringConfig) -> ScoredSchema {
        let g = fixtures::figure1_graph();
        ScoredSchema::build(&g, &config).unwrap()
    }

    #[test]
    fn diverse_running_example_matches_paper() {
        let scored = scored(ScoringConfig::coverage());
        let space = PreviewSpace::diverse(2, 6, 2).unwrap();
        let preview = AprioriDiscovery::new()
            .discover(&scored, &space)
            .unwrap()
            .unwrap();
        let schema = scored.schema();
        assert!(preview.has_key(schema.type_by_name(types::FILM).unwrap()));
        assert!(preview.has_key(schema.type_by_name(types::AWARD).unwrap()));
        assert!((scored.preview_score(&preview) - 78.0).abs() < 1e-9);
        assert!(space.contains(&preview, scored.distances()));
    }

    #[test]
    fn matches_brute_force_for_tight_and_diverse() {
        let configs = [
            ScoringConfig::coverage(),
            ScoringConfig::new(KeyScoring::RandomWalk, NonKeyScoring::Entropy),
        ];
        for config in configs {
            let scored = scored(config);
            for k in 1..=4usize {
                for d in 1..=4u32 {
                    for space in [
                        PreviewSpace::tight(k, k + 4, d).unwrap(),
                        PreviewSpace::diverse(k, k + 4, d).unwrap(),
                    ] {
                        let ap = AprioriDiscovery::new().discover(&scored, &space).unwrap();
                        let bf = BruteForceDiscovery::new()
                            .discover(&scored, &space)
                            .unwrap();
                        match (ap, bf) {
                            (Some(ap), Some(bf)) => {
                                let a = scored.preview_score(&ap);
                                let b = scored.preview_score(&bf);
                                assert!(
                                    (a - b).abs() < 1e-9 * (1.0 + b.abs()),
                                    "k={k} d={d} space={space:?}: apriori={a} bf={b}"
                                );
                                assert!(space.contains(&ap, scored.distances()));
                            }
                            (None, None) => {}
                            (ap, bf) => panic!(
                                "k={k} d={d} space={space:?}: apriori={:?} bf={:?}",
                                ap.is_some(),
                                bf.is_some()
                            ),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_concise_space() {
        let scored = scored(ScoringConfig::coverage());
        let space = PreviewSpace::concise(2, 6).unwrap();
        assert!(AprioriDiscovery::new().discover(&scored, &space).is_err());
    }

    #[test]
    fn infeasible_constraint_returns_none() {
        let scored = scored(ScoringConfig::coverage());
        // Pairwise distance of at least 5 between 3 tables is impossible on
        // the Fig. 1 schema graph (diameter 2).
        let space = PreviewSpace::diverse(3, 6, 5).unwrap();
        assert!(AprioriDiscovery::new()
            .discover(&scored, &space)
            .unwrap()
            .is_none());
    }

    #[test]
    fn k_equals_one_ignores_distance() {
        let scored = scored(ScoringConfig::coverage());
        let space = PreviewSpace::tight(1, 3, 1).unwrap();
        let preview = AprioriDiscovery::new()
            .discover(&scored, &space)
            .unwrap()
            .unwrap();
        assert_eq!(preview.tables().len(), 1);
        // Same single-table optimum as the brute force.
        let bf = BruteForceDiscovery::new()
            .discover(&scored, &space)
            .unwrap()
            .unwrap();
        assert!((scored.preview_score(&preview) - scored.preview_score(&bf)).abs() < 1e-9);
    }

    #[test]
    fn large_d_tight_equals_concise_optimum() {
        // With d larger than the schema diameter every pair qualifies, so the
        // tight optimum coincides with the concise optimum.
        let scored = scored(ScoringConfig::coverage());
        let tight = PreviewSpace::tight(2, 6, 10).unwrap();
        let concise = PreviewSpace::concise(2, 6).unwrap();
        let ap = AprioriDiscovery::new()
            .discover(&scored, &tight)
            .unwrap()
            .unwrap();
        let bf = BruteForceDiscovery::new()
            .discover(&scored, &concise)
            .unwrap()
            .unwrap();
        assert!((scored.preview_score(&ap) - scored.preview_score(&bf)).abs() < 1e-9);
    }
}
