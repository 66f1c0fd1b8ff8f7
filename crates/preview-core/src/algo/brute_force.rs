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
//!
//! The enumeration is decomposed by the subset's first (smallest) eligible
//! index: each first index scans its lexicographic suffix combinations
//! independently, so the groups fan out across the fork-join pool while the
//! index-ordered merge keeps the winner — and thus the output — byte-identical
//! to the one-loop sequential scan.

use crate::algo::common::{
    earliest_max, eligible_views, next_combination, preview_at, space_is_empty, walk_subset,
};
use crate::algo::PreviewDiscovery;
use crate::constraint::PreviewSpace;
use crate::error::Result;
use crate::par::FjPool;
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

    fn discover_with_threads(
        &self,
        scored: &ScoredSchema,
        space: &PreviewSpace,
        threads: usize,
    ) -> Result<Option<Preview>> {
        let size = space.size();
        if space_is_empty(scored, size) {
            return Ok(None);
        }
        let distance_constraint = space.distance();
        let distances = scored.distances();
        let eligible = scored.eligible_types();
        let views = eligible_views(scored);
        let k = size.tables;
        let extras = size.non_keys - k;
        // One work unit per first (smallest) subset index; together they
        // enumerate exactly the lexicographic order of the one-loop scan.
        let firsts: Vec<usize> = (0..=eligible.len() - k).collect();
        let per_first = FjPool::global().map(threads, &firsts, |_, &first| {
            let mut subset: Vec<usize> = (first..first + k).collect();
            let mut best: Option<f64> = None;
            let mut best_subset = subset.clone();
            let mut taken = Vec::with_capacity(k);
            loop {
                let feasible = distance_constraint.is_none_or(|constraint| {
                    subset.iter().enumerate().all(|(i, &a)| {
                        subset[i + 1..].iter().all(|&b| {
                            constraint.pair_ok(distances.distance(eligible[a], eligible[b]))
                        })
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
                if !next_combination(&mut subset[1..], eligible.len()) {
                    break;
                }
            }
            best.map(|score| (score, best_subset))
        });
        // Per-first winners merged in first-index order keep the
        // earliest-strict-argmax of the sequential scan.
        let winner = per_first.into_iter().flatten().reduce(earliest_max);
        Ok(winner.and_then(|(_, subset)| preview_at(scored, subset, size)))
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
    fn parallel_discovery_is_byte_identical_to_sequential() {
        let scored = scored();
        for space in [
            PreviewSpace::concise(2, 6).unwrap(),
            PreviewSpace::tight(3, 6, 2).unwrap(),
            PreviewSpace::diverse(2, 6, 2).unwrap(),
        ] {
            let sequential = BruteForceDiscovery::new()
                .discover_with_threads(&scored, &space, 1)
                .unwrap();
            for threads in [0, 2, 4, 16] {
                let parallel = BruteForceDiscovery::new()
                    .discover_with_threads(&scored, &space, threads)
                    .unwrap();
                assert_eq!(parallel, sequential, "threads={threads} {space:?}");
            }
        }
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
