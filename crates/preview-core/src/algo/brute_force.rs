//! Brute-force optimal preview discovery (Alg. 1).
//!
//! Enumerates every `k`-subset of eligible entity types, scores the best
//! preview for each subset via Theorem 3 without building it, keeps the
//! highest-scoring subset, and assembles only the winner's preview.
//! With a distance constraint, subsets whose key attributes violate the
//! pairwise bound are discarded before scoring. The worst-case cost is
//! `O(K·N·logN + C(K,k)·k·n)`, exponential in `k` — the paper uses this
//! algorithm as the baseline that the DP and Apriori algorithms beat by orders
//! of magnitude (Figs. 8–9).

use crate::algo::common::{
    eligible_views, next_combination, preview_at, space_is_empty, walk_subset,
};
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
        let rows = space.distance().map(|c| scored.pair_rows(Some(c)));
        let views = eligible_views(scored);
        let k = size.tables;
        let extras = size.non_keys - k;
        let mut subset: Vec<usize> = (0..k).collect();
        let mut best: Option<f64> = None;
        let mut best_subset = subset.clone();
        let mut taken = Vec::with_capacity(k);
        loop {
            let feasible = rows.is_none_or(|rows| {
                subset.iter().enumerate().all(|(i, &a)| {
                    subset[i + 1..]
                        .iter()
                        .all(|&b| rows.pair_ok(a as u32, b as u32))
                })
            });
            if feasible {
                let table = |pos: usize| views[subset[pos]];
                if let Some(score) = walk_subset(k, table, extras, &mut taken) {
                    // A later subset must score strictly higher to win.
                    if best.is_none_or(|top| score > top) {
                        best = Some(score);
                        best_subset.copy_from_slice(&subset);
                    }
                }
            }
            if !next_combination(&mut subset, views.len()) {
                break;
            }
        }
        Ok(best.and_then(|_| preview_at(scored, best_subset, size)))
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
