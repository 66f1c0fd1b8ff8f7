//! Admissible upper bounds over the Apriori prefix lattice, used by the
//! best-first branch-and-bound algorithm ([`crate::algo::BestFirstDiscovery`]).
//!
//! A search node is a *prefix*: a strictly increasing sequence of eligible-type
//! indices that may grow into a full `k`-subset of key attributes. The bound
//! computed here never underestimates the preview score (Eq. 1) of **any**
//! feasible completion of the prefix, which is what lets the search discard a
//! whole subtree the moment its bound falls below the incumbent without ever
//! cutting off an optimum.
//!
//! # The bound
//!
//! For a fixed key-attribute subset `S` (|S| = k, budget `n`), Theorem 3 gives
//! the optimal preview score as
//!
//! ```text
//! score(S) = Σ_{τ∈S} S(τ)·Sτ(γ₁)  +  top-(n−k) of { S(τ)·Sτ(γⱼ) : τ∈S, j≥2 }
//! ```
//!
//! — every table takes its best candidate, and the remaining `n−k` slots take
//! the globally best *extra* candidates. For a prefix `P` (|P| = m) with
//! feasible extension set `R` (indices after `P`'s last element that satisfy
//! the distance constraint against every member of `P`), the bound is
//!
//! ```text
//! ub(P) = Σ_{τ∈P} S(τ)·Sτ(γ₁)                      (chosen per-slot maxima)
//!       + top-(k−m) of { S(τ)·Sτ(γ₁) : τ∈R }       (remaining per-slot maxima)
//!       + top-(n−k) of { S(τ)·Sτ(γⱼ) : τ∈P∪R, j≥2 } (optimistic extras pool)
//! ```
//!
//! Admissibility: any feasible completion `S = P ∪ C` has `C ⊆ R` with
//! `|C| = k−m`, so its per-slot maxima are dominated term-wise by the top
//! `k−m` maxima over all of `R`, and its extras pool is a subset of the
//! `P ∪ R` pool, so its top-(n−k) sum is dominated as well. When `|R| < k−m`
//! the prefix has no completion at all and the bound is `None`.
//!
//! The returned bound is additionally inflated by [`BOUND_SAFETY`] so that
//! floating-point rounding in the (differently ordered) summations can never
//! push a mathematically admissible bound below the true score of a
//! completion; the bound-admissibility property test asserts strict
//! domination, inflation included.

use entity_graph::DistanceMatrix;

use crate::algo::common::{eligible_views, KeyView};
use crate::constraint::{DistanceConstraint, PreviewSpace};
use crate::scoring::ScoredSchema;

/// Relative safety factor applied to every bound: large enough to dominate
/// the worst-case relative rounding error of the few-hundred-term sums
/// involved (≈ `len · ε ≈ 1e-13`), small enough to cost essentially no
/// pruning power on real score distributions.
pub const BOUND_SAFETY: f64 = 1.0 + 1e-9;

/// Precomputed per-space state for bounding prefix subtrees.
///
/// Indices handed to [`feasible_extensions`](Self::feasible_extensions) and
/// [`upper_bound`](Self::upper_bound) are positions into
/// [`ScoredSchema::eligible_types`], exactly the index space the Apriori
/// join and the best-first search operate in.
#[derive(Debug, Clone)]
pub struct BoundContext<'a> {
    scored: &'a ScoredSchema,
    distances: &'a DistanceMatrix,
    constraint: Option<DistanceConstraint>,
    /// `k`: number of preview tables.
    tables: usize,
    /// `n − k`: non-key slots beyond the one mandatory slot per table.
    extra_slots: usize,
    /// Per eligible index: the per-slot maximum `S(τ)·Sτ(γ₁)` (the
    /// [`ScoredSchema::weighted_top_score`] of the type).
    slot_max: Vec<f64>,
    /// Per eligible index: the type's key score (≥ 0) and candidate list,
    /// sorted by descending score, so the weighted extras
    /// `key · cands[j≥1].score` are sorted too.
    views: Vec<KeyView<'a>>,
}

impl<'a> BoundContext<'a> {
    /// Builds the bound state for one `(scored, space)` pair.
    pub fn new(scored: &'a ScoredSchema, space: &PreviewSpace) -> Self {
        let size = space.size();
        let eligible = scored.eligible_types();
        let slot_max = eligible
            .iter()
            .map(|&ty| scored.weighted_top_score(ty))
            .collect();
        Self {
            scored,
            distances: scored.distances(),
            constraint: space.distance(),
            tables: size.tables,
            extra_slots: size.non_keys.saturating_sub(size.tables),
            slot_max,
            views: eligible_views(scored),
        }
    }

    /// The [`KeyView`] of every eligible index, for scoring complete subsets
    /// with [`walk_subset`](crate::algo::common::walk_subset).
    pub(crate) fn views(&self) -> &[KeyView<'a>] {
        &self.views
    }

    /// Whether the eligible types at indices `a` and `b` may coexist in one
    /// preview under the space's distance constraint (always true for
    /// concise spaces).
    #[inline]
    pub fn pair_ok(&self, a: u32, b: u32) -> bool {
        match self.constraint {
            None => true,
            Some(constraint) => {
                let eligible = self.scored.eligible_types();
                constraint.pair_ok(
                    self.distances
                        .distance(eligible[a as usize], eligible[b as usize]),
                )
            }
        }
    }

    /// The feasible extension set of `prefix`: every eligible index after the
    /// prefix's last element that satisfies the distance constraint against
    /// **all** prefix members. (Pairwise feasibility *among* the extensions
    /// is deliberately not required — the bound stays admissible without it,
    /// and the search re-checks pairs as it extends.)
    pub fn feasible_extensions(&self, prefix: &[u32]) -> Vec<u32> {
        let start = prefix.last().map_or(0, |&last| last + 1);
        (start..self.slot_max.len() as u32)
            .filter(|&r| prefix.iter().all(|&p| self.pair_ok(p, r)))
            .collect()
    }

    /// The admissible upper bound on the preview score of any feasible
    /// completion of `prefix`, or `None` when no completion exists
    /// (`feasible` has fewer elements than the prefix still needs).
    ///
    /// `feasible` must be the prefix's feasible extension set (see
    /// [`feasible_extensions`](Self::feasible_extensions)); the search
    /// maintains it incrementally instead of recomputing it per node.
    pub fn upper_bound(&self, prefix: &[u32], feasible: &[u32]) -> Option<f64> {
        self.upper_bound_with(prefix, feasible, &mut Vec::new())
    }

    /// [`upper_bound`](Self::upper_bound) with a caller-owned scratch buffer,
    /// so the per-node hot path allocates nothing.
    pub(crate) fn upper_bound_with(
        &self,
        prefix: &[u32],
        feasible: &[u32],
        scratch: &mut Vec<f64>,
    ) -> Option<f64> {
        let need = self.tables.checked_sub(prefix.len())?;
        if feasible.len() < need {
            return None;
        }
        // Chosen per-slot maxima.
        let mut bound: f64 = prefix.iter().map(|&i| self.slot_max[i as usize]).sum();
        // Top `k − m` remaining per-slot maxima over the feasible extensions.
        if need > 0 {
            top_reset(scratch, need);
            for &r in feasible {
                top_offer(scratch, need, self.slot_max[r as usize]);
            }
            bound += scratch.iter().sum::<f64>();
        }
        // Optimistic extras pool: top `n − k` weighted non-mandatory
        // candidates over the chosen types and every feasible extension.
        // A complete prefix takes no extensions, so its pool is exact.
        if self.extra_slots > 0 {
            let extensions: &[u32] = if need > 0 { feasible } else { &[] };
            top_reset(scratch, self.extra_slots);
            for &i in prefix.iter().chain(extensions) {
                let (key, cands) = self.views[i as usize];
                for cand in &cands[1..] {
                    // Extras of one type descend, so once one fails to enter
                    // the top buffer the rest of the list cannot either.
                    if !top_offer(scratch, self.extra_slots, key * cand.score) {
                        break;
                    }
                }
            }
            bound += scratch.iter().sum::<f64>();
        }
        Some(bound * BOUND_SAFETY)
    }
}

/// Clears `buffer` for a fresh top-`limit` selection.
fn top_reset(buffer: &mut Vec<f64>, limit: usize) {
    buffer.clear();
    buffer.reserve(limit);
}

/// Offers `value` to an ascending-sorted top-`limit` buffer. Returns whether
/// the value entered (or the buffer still has room): a `false` return means
/// every smaller value would be rejected too.
fn top_offer(buffer: &mut Vec<f64>, limit: usize, value: f64) -> bool {
    if buffer.len() < limit {
        let at = buffer.partition_point(|&v| v < value);
        buffer.insert(at, value);
        true
    } else if value > buffer[0] {
        buffer.remove(0);
        let at = buffer.partition_point(|&v| v < value);
        buffer.insert(at, value);
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::common::compute_preview;
    use crate::scoring::ScoringConfig;
    use entity_graph::fixtures;

    fn scored() -> ScoredSchema {
        ScoredSchema::build(&fixtures::figure1_graph(), &ScoringConfig::coverage()).unwrap()
    }

    #[test]
    fn top_offer_keeps_the_largest_values() {
        let mut buffer = Vec::new();
        top_reset(&mut buffer, 3);
        for v in [5.0, 1.0, 9.0, 2.0, 7.0] {
            top_offer(&mut buffer, 3, v);
        }
        assert_eq!(buffer, vec![5.0, 7.0, 9.0]);
        assert!(!top_offer(&mut buffer, 3, 4.0));
        assert!(top_offer(&mut buffer, 3, 6.0));
        assert_eq!(buffer, vec![6.0, 7.0, 9.0]);
    }

    #[test]
    fn empty_prefix_bound_dominates_the_optimum() {
        let scored = scored();
        let space = PreviewSpace::concise(2, 6).unwrap();
        let ctx = BoundContext::new(&scored, &space);
        let feasible = ctx.feasible_extensions(&[]);
        let bound = ctx.upper_bound(&[], &feasible).unwrap();
        // The concise optimum of the running example scores 84.
        assert!(bound >= 84.0, "bound {bound} below the optimum");
    }

    #[test]
    fn complete_prefix_bound_matches_its_exact_score() {
        let scored = scored();
        let space = PreviewSpace::concise(2, 6).unwrap();
        let ctx = BoundContext::new(&scored, &space);
        let eligible = scored.eligible_types();
        let size = space.size();
        for a in 0..eligible.len() as u32 {
            for b in (a + 1)..eligible.len() as u32 {
                let prefix = [a, b];
                let feasible = ctx.feasible_extensions(&prefix);
                let bound = ctx.upper_bound(&prefix, &feasible).unwrap();
                let subset = [eligible[a as usize], eligible[b as usize]];
                let (_, score) = compute_preview(&scored, &subset, size).unwrap();
                assert!(bound >= score, "bound {bound} < exact score {score}");
                assert!(
                    bound <= score * BOUND_SAFETY * BOUND_SAFETY + 1e-12,
                    "complete-prefix bound {bound} is not tight against {score}"
                );
            }
        }
    }

    #[test]
    fn short_feasible_set_means_no_completion() {
        let scored = scored();
        let space = PreviewSpace::concise(3, 6).unwrap();
        let ctx = BoundContext::new(&scored, &space);
        assert!(ctx.upper_bound(&[0], &[1]).is_none());
        assert!(ctx.upper_bound(&[0], &[1, 2]).is_some());
    }

    #[test]
    fn diverse_constraint_restricts_feasible_extensions() {
        let scored = scored();
        let concise = PreviewSpace::concise(2, 6).unwrap();
        let diverse = PreviewSpace::diverse(2, 6, 2).unwrap();
        let all = BoundContext::new(&scored, &concise).feasible_extensions(&[0]);
        let far = BoundContext::new(&scored, &diverse).feasible_extensions(&[0]);
        assert!(far.len() < all.len());
        for &r in &far {
            assert!(BoundContext::new(&scored, &diverse).pair_ok(0, r));
        }
    }
}
