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
//!
//! Both the level-wise join (independent per prefix group) and the final
//! per-subset scoring are embarrassingly parallel; they fan out
//! across the fork-join pool with index-ordered merges, so the result is
//! byte-identical to the sequential scan at any thread count.

use crate::algo::common::{earliest_max, eligible_views, preview_at, space_is_empty, walk_subset};
use crate::algo::PreviewDiscovery;
use crate::constraint::{DistanceConstraint, PreviewSpace};
use crate::error::{Error, Result};
use crate::par::FjPool;
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

    fn discover_with_threads(
        &self,
        scored: &ScoredSchema,
        space: &PreviewSpace,
        threads: usize,
    ) -> Result<Option<Preview>> {
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
        let subsets = candidate_subsets(scored, constraint, k, threads);
        // Score the surviving subsets in contiguous chunks, keeping each
        // chunk's earliest strict maximum by subset index; merged in chunk
        // order, that equals the sequential scan.
        let winner = FjPool::global()
            .map_chunked(threads, subsets.len() / k, |range| {
                let mut taken = Vec::with_capacity(k);
                let mut best: Option<(f64, usize)> = None;
                let chunk = subsets[range.start * k..range.end * k].chunks_exact(k);
                for (index, subset) in range.zip(chunk) {
                    let table = |pos: usize| views[subset[pos] as usize];
                    if let Some(score) = walk_subset(k, table, extras, &mut taken) {
                        if best.is_none_or(|(top, _)| score > top) {
                            best = Some((score, index));
                        }
                    }
                }
                best
            })
            .into_iter()
            .flatten()
            .reduce(earliest_max);
        Ok(winner.and_then(|(_, index)| {
            let subset = &subsets[index * k..(index + 1) * k];
            preview_at(scored, subset.iter().map(|&i| i as usize), size)
        }))
    }
}

/// Level-wise generation of the `k`-subsets of eligible-type *indices* whose
/// pairwise distances satisfy the constraint (Alg. 3, lines 1–14), as one
/// flat vector with stride `k`.
///
/// Every level is flat the same way, in lexicographic order with the level's
/// subset size as its stride: L2 is generated per first index, later
/// levels per shared-prefix group — both fan out across the fork-join pool
/// and concatenate their per-group output in group order, so the generated
/// candidate list is identical to the sequential join at any thread count.
fn candidate_subsets(
    scored: &ScoredSchema,
    constraint: DistanceConstraint,
    k: usize,
    threads: usize,
) -> Vec<u32> {
    let eligible = scored.eligible_types();
    let distances = scored.distances();
    let pair_ok = |a: u32, b: u32| -> bool {
        constraint.pair_ok(distances.distance(eligible[a as usize], eligible[b as usize]))
    };
    let pool = FjPool::global();
    let count = eligible.len() as u32;

    if k == 1 {
        return (0..count).collect();
    }

    // L2: all ordered pairs (i < j) satisfying the constraint, grouped (and
    // parallelized) by their first index.
    let firsts: Vec<u32> = (0..count).collect();
    let mut level: Vec<u32> = pool
        .map(threads, &firsts, |_, &i| {
            ((i + 1)..count)
                .filter(|&j| pair_ok(i, j))
                .flat_map(|j| [i, j])
                .collect::<Vec<_>>()
        })
        .concat();

    let mut size = 2;
    while size < k && !level.is_empty() {
        // Join pairs of subsets sharing all but their last element. The level
        // is in lexicographic order, so subsets with a common prefix are
        // adjacent: one scan finds the groups, then every group joins
        // independently.
        let subsets: Vec<&[u32]> = level.chunks_exact(size).collect();
        let groups: Vec<&[&[u32]]> = subsets
            .chunk_by(|a, b| a[..size - 1] == b[..size - 1])
            .collect();
        level = pool
            .map(threads, &groups, |_, group| {
                let mut joined = Vec::new();
                for (a, first) in group.iter().enumerate() {
                    for second in &group[a + 1..] {
                        let last = second[size - 1];
                        if pair_ok(first[size - 1], last) {
                            joined.extend_from_slice(first);
                            joined.push(last);
                        }
                    }
                }
                joined
            })
            .concat();
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
    fn parallel_discovery_is_byte_identical_to_sequential() {
        let scored = scored(ScoringConfig::coverage());
        for space in [
            PreviewSpace::tight(2, 6, 2).unwrap(),
            PreviewSpace::tight(3, 6, 10).unwrap(),
            PreviewSpace::diverse(2, 6, 2).unwrap(),
        ] {
            let sequential = AprioriDiscovery::new()
                .discover_with_threads(&scored, &space, 1)
                .unwrap();
            for threads in [0, 2, 4, 16] {
                let parallel = AprioriDiscovery::new()
                    .discover_with_threads(&scored, &space, threads)
                    .unwrap();
                assert_eq!(parallel, sequential, "threads={threads} {space:?}");
            }
        }
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
