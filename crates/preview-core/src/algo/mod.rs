//! Optimal preview discovery algorithms (Sec. 5 of the paper).
//!
//! Four algorithms implement the common [`PreviewDiscovery`] trait:
//!
//! | Algorithm | Paper | Supported spaces | Complexity |
//! |---|---|---|---|
//! | [`BruteForceDiscovery`] | Alg. 1 | concise, tight, diverse | exponential in `k` |
//! | [`DynamicProgrammingDiscovery`] | Alg. 2 | concise | `O(K·N·logN + K·k·n²)` |
//! | [`AprioriDiscovery`] | Alg. 3 | tight, diverse | exponential worst case, fast in practice |
//! | [`BestFirstDiscovery`] | — (this work) | concise, tight, diverse | best-first branch-and-bound: exact with admissible-bound pruning, anytime under a budget |
//!
//! All algorithms consume a pre-computed [`ScoredSchema`]
//! and return an optimal [`Preview`] (or `None` when the
//! constraint is infeasible, e.g. more tables requested than eligible entity
//! types, or no `k` types satisfy the distance constraint).
//!
//! # Score-first evaluation
//!
//! Brute force, Apriori and best-first evaluate many key subsets and keep
//! one. They score each subset without building its preview, with one
//! scoring walk that sums the Theorem-3 score — the `k` top-1 terms in
//! subset order, then the best `n − k` extras, largest first. The engines
//! track only `(score, subset index)` under their tie-breaks (earliest
//! strict maximum in lexicographic order) and assemble the winner's preview
//! once, at the end, with [`best_preview_for_subset`]'s assembly, which runs
//! on the same walk and so reports the same score bits.
//!
//! The walk keeps its state per depth `d`: the left-to-right sum of the
//! first `d` top-1 terms, and the best `n − k` weighted extras of the first
//! `d` tables in summation order, a stable merge of depth `d − 1`'s extras
//! with table `d`'s candidate list that takes the new entry only when it is
//! strictly greater. The merge relies on one invariant: every candidate list
//! is sorted by descending score and every key score is ≥ 0. Each type's
//! weighted extras `S(τ)·Sτ(γⱼ)` then form a descending run (rounding is
//! monotone), and merging the runs — ties to the lower table position, then
//! the lower candidate rank — reproduces exactly the order of sorting the
//! whole extras pool, so the summed score bits match that sort's. The walk
//! `debug_assert!`s non-negative key scores, as [`bound`] relies on the same
//! fact.
//!
//! Subsets next to each other in lexicographic order share all but their
//! last few elements. Brute force steps the first `k − 1` and runs the last
//! one as an inner loop; Apriori scores its last level group by group as its
//! join produces it. Both recompute the walk's depths only from the lowest
//! position that changed and score each subset off the depth before its
//! last element, so a subset costs `O(n − k + 1)` instead of `O(k·n)`.
//! Best-first's complete subsets are the children of one node, so it walks
//! the node's prefix once and scores each child off it the same way.

pub(crate) mod common;

pub mod bound;

mod apriori;
mod best_first;
mod brute_force;
mod dynamic_programming;

pub use apriori::AprioriDiscovery;
pub use best_first::{AnytimeBudget, AnytimeOutcome, BestFirstDiscovery, SearchStats};
pub use brute_force::BruteForceDiscovery;
pub use dynamic_programming::DynamicProgrammingDiscovery;

use crate::constraint::PreviewSpace;
use crate::error::Result;
use crate::preview::Preview;
use crate::scoring::ScoredSchema;

/// Common interface of the optimal preview discovery algorithms.
pub trait PreviewDiscovery {
    /// A short, stable identifier (used in benchmark and experiment output).
    fn name(&self) -> &'static str;

    /// Finds an optimal preview in the given space.
    ///
    /// Returns `Ok(None)` when the space is empty (no preview satisfies the
    /// constraints) and an error when the algorithm does not support the
    /// requested space (e.g. dynamic programming with a distance constraint).
    fn discover(&self, scored: &ScoredSchema, space: &PreviewSpace) -> Result<Option<Preview>>;

    /// [`discover`](Self::discover). `threads` is accepted and ignored:
    /// every engine runs sequentially.
    fn discover_with_threads(
        &self,
        scored: &ScoredSchema,
        space: &PreviewSpace,
        _threads: usize,
    ) -> Result<Option<Preview>> {
        self.discover(scored, space)
    }
}

/// Number of `k`-subsets the brute-force algorithm would enumerate for a
/// schema with `eligible_types` candidate key attributes — useful for deciding
/// whether a brute-force run is feasible (the experiment harness extrapolates
/// instead of running the brute force when this is too large).
pub fn brute_force_subset_count(eligible_types: usize, k: usize) -> u128 {
    common::binomial(eligible_types, k)
}

/// Assembles the best preview whose key attributes are exactly `subset`,
/// together with its score, following Theorem 3 — the `ComputePreview`
/// routine every algorithm shares.
///
/// Returns `None` when any type in `subset` has no candidate non-key
/// attribute, or when the subset size does not match `space`'s table count.
/// Exposed so out-of-crate harnesses (the bound-admissibility property test,
/// `anytime-bench`) can score explicit subsets against algorithm output.
pub fn best_preview_for_subset(
    scored: &ScoredSchema,
    subset: &[entity_graph::TypeId],
    space: &PreviewSpace,
) -> Option<(Preview, f64)> {
    let size = space.size();
    if subset.len() != size.tables {
        return None;
    }
    common::compute_preview(scored, subset, size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoring::{ScoredSchema, ScoringConfig};
    use entity_graph::fixtures;

    #[test]
    fn algorithms_expose_stable_names() {
        assert_eq!(BruteForceDiscovery::new().name(), "brute-force");
        assert_eq!(
            DynamicProgrammingDiscovery::new().name(),
            "dynamic-programming"
        );
        assert_eq!(AprioriDiscovery::new().name(), "apriori");
        assert_eq!(BestFirstDiscovery::new().name(), "best-first");
    }

    #[test]
    fn trait_objects_are_usable() {
        let g = fixtures::figure1_graph();
        let scored = ScoredSchema::build(&g, &ScoringConfig::coverage()).unwrap();
        let space = PreviewSpace::concise(2, 6).unwrap();
        let algorithms: Vec<Box<dyn PreviewDiscovery>> = vec![
            Box::new(BruteForceDiscovery::new()),
            Box::new(DynamicProgrammingDiscovery::new()),
            Box::new(BestFirstDiscovery::new()),
        ];
        for algo in &algorithms {
            let preview = algo.discover(&scored, &space).unwrap().unwrap();
            assert!((scored.preview_score(&preview) - 84.0).abs() < 1e-9);
        }
    }

    #[test]
    fn subset_count_helper() {
        assert_eq!(brute_force_subset_count(69, 6), 119_877_472);
        assert_eq!(brute_force_subset_count(6, 5), 6);
    }
}
