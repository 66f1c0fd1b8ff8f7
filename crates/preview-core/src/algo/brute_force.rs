//! Brute-force optimal preview discovery (Alg. 1).
//!
//! Enumerates every `k`-subset of eligible entity types in lexicographic
//! order, scores the best preview for each subset via Theorem 3 without
//! building it, keeps the highest-scoring subset, and assembles only the
//! winner's preview. With a distance constraint, subsets whose key
//! attributes violate the pairwise bound are discarded before scoring.
//!
//! Subsets next to each other in that order share all but their last few
//! elements, so the enumeration steps the first `k − 1` elements and runs the
//! last one as an inner loop. Per prefix depth it keeps the scoring walk's
//! state ([`PrefixWalk`]) and the AND of the prefix members' pair rows, and
//! recomputes both only from the lowest position a step changed. A subset's
//! feasibility is then one bit of the last depth's set, and its score one
//! `O(n − k + 1)` step of the walk. The worst-case cost is
//! `O(K·N·logN + C(K,k)·(n − k + 1))`, exponential in `k`: the paper uses this
//! algorithm as the baseline that the DP and Apriori algorithms beat by orders
//! of magnitude (Figs. 8–9).

use crate::algo::bound::{set_full, set_has, set_members, set_words};
use crate::algo::common::{eligible_views, space_is_empty, step_subset, PrefixWalk, Winner};
use crate::algo::PreviewDiscovery;
use crate::constraint::PreviewSpace;
use crate::error::Result;
use crate::preview::Preview;
use crate::scoring::ScoredSchema;

/// The brute-force algorithm (Alg. 1). Supports all three preview spaces.
#[derive(Debug, Clone, Copy, Default)]
pub struct BruteForceDiscovery;

impl BruteForceDiscovery {
    /// Creates the algorithm.
    pub fn new() -> Self {
        Self
    }
}

impl PreviewDiscovery for BruteForceDiscovery {
    fn name(&self) -> &'static str {
        "brute-force"
    }

    fn discover(&self, scored: &ScoredSchema, space: &PreviewSpace) -> Result<Option<Preview>> {
        let size = space.size();
        if space_is_empty(scored, size) {
            return Ok(None);
        }
        let rows = scored.pair_rows(space.distance());
        let views = eligible_views(scored);
        let k = size.tables;
        let words = set_words(views.len());
        let mut walk = PrefixWalk::new(k, size.non_keys - k);
        // The first `k − 1` elements: a subset of `0..len − 1`, leaving room
        // for the last one.
        let mut prefix: Vec<u32> = (0..k as u32 - 1).collect();
        // Per depth `d`: the indices after `prefix[d − 1]` that pair with all
        // of `prefix[..d]`, or none if those already hold a bad pair. A
        // subset's feasibility is then one bit of the last depth's set.
        let mut sets = set_full(views.len()).repeat(k);
        // The lowest position the last step changed, and how many prefix
        // positions the walk's depths hold.
        let (mut from, mut walked) = (0, 0);
        let mut winner = Winner::new(k);
        loop {
            for (pos, &i) in prefix.iter().enumerate().skip(from) {
                let (done, rest) = sets.split_at_mut((pos + 1) * words);
                let (set, next) = (&done[pos * words..], &mut rest[..words]);
                if set_has(set, i) {
                    rows.intersect(set, i, next);
                } else {
                    next.fill(0);
                }
            }
            let lasts = &sets[(k - 1) * words..];
            // Walk the prefix only when it has a feasible subset. Eligible
            // types have candidates, so every push succeeds.
            if lasts.iter().any(|&word| word != 0) {
                while walked < k - 1 && walk.push(walked, views[prefix[walked] as usize]) {
                    walked += 1;
                }
                if walked == k - 1 {
                    winner.offer_lasts(&walk, &views, &prefix, set_members(lasts));
                }
            }
            match step_subset(&mut prefix, views.len() - 1) {
                Some(pos) => (from, walked) = (pos, walked.min(pos)),
                None => break,
            }
        }
        Ok(winner.preview(scored, size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::PreviewSpace;
    use crate::scoring::{ScoredSchema, ScoringConfig};
    use entity_graph::fixtures::{self, types};

    fn scored() -> ScoredSchema {
        let g = fixtures::figure1_graph();
        ScoredSchema::build(&g, &ScoringConfig::coverage()).unwrap()
    }

    #[test]
    fn concise_running_example_scores_84() {
        // Sec. 4's optimal concise preview for k=2, n=6 (coverage/coverage).
        let scored = scored();
        let space = PreviewSpace::concise(2, 6).unwrap();
        let preview = BruteForceDiscovery::new()
            .discover(&scored, &space)
            .unwrap()
            .unwrap();
        assert!((scored.preview_score(&preview) - 84.0).abs() < 1e-9);
        let schema = scored.schema();
        let film = schema.type_by_name(types::FILM).unwrap();
        let actor = schema.type_by_name(types::FILM_ACTOR).unwrap();
        assert!(preview.has_key(film));
        assert!(preview.has_key(actor));
    }

    #[test]
    fn diverse_running_example_picks_award() {
        // Sec. 4: k=2, n=6, d=2 diverse preview keys are FILM and AWARD.
        let scored = scored();
        let space = PreviewSpace::diverse(2, 6, 2).unwrap();
        let preview = BruteForceDiscovery::new()
            .discover(&scored, &space)
            .unwrap()
            .unwrap();
        let schema = scored.schema();
        assert!(preview.has_key(schema.type_by_name(types::FILM).unwrap()));
        assert!(preview.has_key(schema.type_by_name(types::AWARD).unwrap()));
        // FILM keeps all its five candidates, AWARD takes one: score
        // 4 * 18 + 3 * 2 = 78.
        assert!((scored.preview_score(&preview) - 78.0).abs() < 1e-9);
    }

    #[test]
    fn tight_constraint_is_enforced() {
        let scored = scored();
        let space = PreviewSpace::tight(3, 6, 2).unwrap();
        let preview = BruteForceDiscovery::new()
            .discover(&scored, &space)
            .unwrap()
            .unwrap();
        assert!(space.contains(&preview, scored.distances()));
        // No three types of the Fig. 1 schema graph are pairwise adjacent, so
        // a tight preview with d = 1 and k = 3 does not exist.
        let infeasible = PreviewSpace::tight(3, 6, 1).unwrap();
        assert!(BruteForceDiscovery::new()
            .discover(&scored, &infeasible)
            .unwrap()
            .is_none());
    }

    #[test]
    fn too_many_tables_returns_none() {
        let scored = scored();
        let space = PreviewSpace::concise(10, 20).unwrap();
        assert!(BruteForceDiscovery::new()
            .discover(&scored, &space)
            .unwrap()
            .is_none());
    }

    #[test]
    fn infeasible_distance_returns_none() {
        // The Fig. 1 schema graph has diameter 2; requiring pairwise distance
        // of at least 5 between three tables is infeasible.
        let scored = scored();
        let space = PreviewSpace::diverse(3, 6, 5).unwrap();
        assert!(BruteForceDiscovery::new()
            .discover(&scored, &space)
            .unwrap()
            .is_none());
    }

    #[test]
    fn k_equals_one_picks_best_single_table() {
        let scored = scored();
        let space = PreviewSpace::concise(1, 3).unwrap();
        let preview = BruteForceDiscovery::new()
            .discover(&scored, &space)
            .unwrap()
            .unwrap();
        // FILM with its top three candidates: 4 * (6 + 5 + 4) = 60.
        assert!((scored.preview_score(&preview) - 60.0).abs() < 1e-9);
        assert_eq!(preview.tables().len(), 1);
    }
}
