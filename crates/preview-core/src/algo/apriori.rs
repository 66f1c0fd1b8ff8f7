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
//! Levels `2..k−1` are stored, but the last one is scored as the join
//! produces it: for each group of `(k−1)`-subsets sharing their first `k−2`
//! elements, the group's last elements form a bitset, and ANDing it with a
//! member's pair row gives the members it joins with, in order. The
//! member's elements are a prefix of every subset that join produces, so the
//! scoring walk ([`PrefixWalk`]) recomputes its depths only from the lowest
//! position where the member differs from the one before it, and scores each
//! joined subset in `O(n − k + 1)`. The largest level is never stored.

use crate::algo::bound::{set_members, set_words, PairRows};
use crate::algo::common::{eligible_views, space_is_empty, PrefixWalk, Winner};
use crate::algo::PreviewDiscovery;
use crate::constraint::PreviewSpace;
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
        let views = eligible_views(scored);
        let mut walk = PrefixWalk::new(k, size.non_keys - k);
        // Keep the earliest strict maximum in subset order.
        let mut winner = Winner::new(k);
        if k == 1 {
            winner.offer_lasts(&walk, &views, &[], 0..views.len() as u32);
            return Ok(winner.preview(scored, size));
        }
        let rows = scored.pair_rows(Some(constraint));
        let level = frequent_subsets(rows, views.len(), k - 1);
        let members: Vec<&[u32]> = level.chunks_exact(k - 1).collect();
        let words = set_words(views.len());
        let (mut lasts, mut joined) = (vec![0; words], vec![0; words]);
        // The member whose elements the walk's depths hold.
        let mut pushed: &[u32] = &[];
        for group in members.chunk_by(|a, b| a[..k - 2] == b[..k - 2]) {
            for member in group {
                let last = member[k - 2];
                lasts[last as usize / 64] |= 1 << (last % 64);
            }
            for &member in group {
                // The group's later members whose last element pairs with
                // this member's: the join partners, in the join's order.
                rows.intersect(&lasts, member[k - 2], &mut joined);
                if joined.iter().all(|&word| word == 0) {
                    continue;
                }
                let from = member
                    .iter()
                    .zip(pushed)
                    .take_while(|(a, b)| a == b)
                    .count();
                for (pos, &i) in member.iter().enumerate().skip(from) {
                    // Eligible types have candidates, so the push succeeds.
                    let ok = walk.push(pos, views[i as usize]);
                    debug_assert!(ok, "eligible type {i} has no candidate");
                }
                pushed = member;
                winner.offer_lasts(&walk, &views, member, set_members(&joined));
            }
            lasts.fill(0);
        }
        Ok(winner.preview(scored, size))
    }
}

/// Level-wise generation of the `size`-subsets of eligible-type *indices*
/// whose pairwise distances satisfy the constraint (Alg. 3, lines 1–14), as
/// one flat vector with stride `size`.
///
/// Every level is flat the same way, in lexicographic order with the level's
/// subset size as its stride.
fn frequent_subsets(rows: &PairRows, count: usize, size: usize) -> Vec<u32> {
    let count = count as u32;
    if size == 1 {
        return (0..count).collect();
    }

    // L2: all ordered pairs (i < j) satisfying the constraint.
    let mut level: Vec<u32> = Vec::new();
    for i in 0..count {
        for j in set_members(rows.row(i)) {
            level.extend([i, j]);
        }
    }

    let mut width = 2;
    while width < size && !level.is_empty() {
        // Join pairs of subsets sharing all but their last element. The level
        // is in lexicographic order, so subsets with a common prefix are
        // adjacent.
        let subsets: Vec<&[u32]> = level.chunks_exact(width).collect();
        let mut joined = Vec::new();
        for group in subsets.chunk_by(|a, b| a[..width - 1] == b[..width - 1]) {
            for (a, first) in group.iter().enumerate() {
                for second in &group[a + 1..] {
                    let last = second[width - 1];
                    if rows.pair_ok(first[width - 1], last) {
                        joined.extend_from_slice(first);
                        joined.push(last);
                    }
                }
            }
        }
        level = joined;
        width += 1;
    }

    if width == size {
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
