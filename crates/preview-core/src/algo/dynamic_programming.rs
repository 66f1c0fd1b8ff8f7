//! Dynamic-programming optimal *concise* preview discovery (Alg. 2).
//!
//! `Popt(i, j, x)` — the optimal preview with `i` tables and at most `j`
//! non-key attributes among the first `x` entity types — either ignores the
//! `x`-th type or extends `Popt(i−1, j−m, x−1)` with a table on the `x`-th
//! type carrying its top-`m` candidate non-key attributes (Theorem 3). The
//! complexity is `O(K·N·logN + K·k·n²)`, polynomial where the brute force is
//! exponential. The optimal substructure breaks down under a distance
//! constraint, so this algorithm only serves the concise space; asking it for
//! a tight or diverse preview is an error.

use crate::algo::common::space_is_empty;
use crate::algo::PreviewDiscovery;
use crate::constraint::PreviewSpace;
use crate::error::{Error, Result};
use crate::preview::{NonKeyAttr, Preview, PreviewTable};
use crate::scoring::ScoredSchema;

/// The dynamic-programming algorithm (Alg. 2) for concise previews.
#[derive(Debug, Clone, Copy, Default)]
pub struct DynamicProgrammingDiscovery;

impl DynamicProgrammingDiscovery {
    /// Creates the algorithm.
    pub fn new() -> Self {
        Self
    }
}

impl PreviewDiscovery for DynamicProgrammingDiscovery {
    fn name(&self) -> &'static str {
        "dynamic-programming"
    }

    /// The DP recurrence is inherently sequential in its outer dimension
    /// (`Popt(·, ·, x)` depends on `Popt(·, ·, x − 1)`), so `threads` is
    /// accepted for interface uniformity but does not fan work out. The
    /// algorithm is polynomial — parallelism pays off on the exponential
    /// enumeration algorithms, not here.
    fn discover_with_threads(
        &self,
        scored: &ScoredSchema,
        space: &PreviewSpace,
        _threads: usize,
    ) -> Result<Option<Preview>> {
        let size = match space {
            PreviewSpace::Concise(size) => *size,
            PreviewSpace::Tight(..) | PreviewSpace::Diverse(..) => {
                return Err(Error::InvalidConstraint {
                    message: "the dynamic-programming algorithm only supports concise previews; \
                              use the Apriori-style algorithm for tight/diverse previews"
                        .to_string(),
                })
            }
        };
        if space_is_empty(scored, size) {
            return Ok(None);
        }
        let eligible = scored.eligible_types();
        let types_total = eligible.len();
        let k = size.tables;
        let n = size.non_keys;

        const NEG: f64 = f64::NEG_INFINITY;
        // dp[at(x, i, j)]: best score using a subset of the first x eligible
        // types with exactly i tables and at most j non-key attributes.
        // choice[at(x, i, j)]: how many candidates the x-th type contributes
        // at that optimum (0 = the x-th type is skipped).
        let at = |x: usize, i: usize, j: usize| (x * (k + 1) + i) * (n + 1) + j;
        let cells = at(types_total + 1, 0, 0);
        let mut dp = vec![NEG; cells];
        let mut choice = vec![0u16; cells];
        dp[at(0, 0, 0)..at(0, 1, 0)].fill(0.0);

        for x in 1..=types_total {
            let ty = eligible[x - 1];
            let key_score = scored.key_score(ty);
            let available = scored.candidates(ty).len();
            for i in 0..=k {
                for j in 0..=n {
                    // Option 1: skip type x.
                    let mut best = dp[at(x - 1, i, j)];
                    let mut best_m = 0u16;
                    // Option 2: build a table on type x with its top-m candidates.
                    if i >= 1 && j >= i {
                        // Each of the other i-1 tables needs at least one
                        // non-key attribute, so at most j-(i-1) go to type x.
                        let max_m = available.min(j - (i - 1));
                        for m in 1..=max_m {
                            let prev = dp[at(x - 1, i - 1, j - m)];
                            if prev == NEG {
                                continue;
                            }
                            let score = prev + key_score * scored.top_m_score_sum(ty, m);
                            if score > best {
                                best = score;
                                best_m = m as u16;
                            }
                        }
                    }
                    dp[at(x, i, j)] = best;
                    choice[at(x, i, j)] = best_m;
                }
            }
        }

        if dp[at(types_total, k, n)] == NEG {
            return Ok(None);
        }

        // Reconstruct one optimal preview by replaying the recorded choices.
        let mut tables = Vec::with_capacity(k);
        let mut i = k;
        let mut j = n;
        for x in (1..=types_total).rev() {
            if i == 0 {
                break;
            }
            let m = choice[at(x, i, j)] as usize;
            if m == 0 {
                continue;
            }
            let ty = eligible[x - 1];
            let non_keys = scored.candidates(ty)[..m]
                .iter()
                .map(|c| NonKeyAttr::new(c.edge, c.direction))
                .collect();
            tables.push(PreviewTable::new(ty, non_keys));
            i -= 1;
            j -= m;
        }
        debug_assert_eq!(tables.len(), k, "DP reconstruction must recover k tables");
        tables.reverse();
        Ok(Some(Preview::new(tables)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::brute_force::BruteForceDiscovery;
    use crate::constraint::PreviewSpace;
    use crate::scoring::{KeyScoring, NonKeyScoring, ScoredSchema, ScoringConfig};
    use entity_graph::fixtures;

    fn scored(config: ScoringConfig) -> ScoredSchema {
        let g = fixtures::figure1_graph();
        ScoredSchema::build(&g, &config).unwrap()
    }

    #[test]
    fn matches_brute_force_on_running_example() {
        let scored = scored(ScoringConfig::coverage());
        let space = PreviewSpace::concise(2, 6).unwrap();
        let dp = DynamicProgrammingDiscovery::new()
            .discover(&scored, &space)
            .unwrap()
            .unwrap();
        let bf = BruteForceDiscovery::new()
            .discover(&scored, &space)
            .unwrap()
            .unwrap();
        assert!((scored.preview_score(&dp) - scored.preview_score(&bf)).abs() < 1e-9);
        assert!((scored.preview_score(&dp) - 84.0).abs() < 1e-9);
        assert!(space.contains(&dp, scored.distances()));
    }

    #[test]
    fn matches_brute_force_across_sizes_and_scorings() {
        let configs = [
            ScoringConfig::coverage(),
            ScoringConfig::new(KeyScoring::RandomWalk, NonKeyScoring::Coverage),
            ScoringConfig::new(KeyScoring::Coverage, NonKeyScoring::Entropy),
            ScoringConfig::new(KeyScoring::RandomWalk, NonKeyScoring::Entropy),
        ];
        for config in configs {
            let scored = scored(config);
            for k in 1..=4usize {
                for n in k..=(k + 4) {
                    let space = PreviewSpace::concise(k, n).unwrap();
                    let dp = DynamicProgrammingDiscovery::new()
                        .discover(&scored, &space)
                        .unwrap();
                    let bf = BruteForceDiscovery::new()
                        .discover(&scored, &space)
                        .unwrap();
                    match (dp, bf) {
                        (Some(dp), Some(bf)) => {
                            let ds = scored.preview_score(&dp);
                            let bs = scored.preview_score(&bf);
                            assert!(
                                (ds - bs).abs() < 1e-9 * (1.0 + bs.abs()),
                                "k={k} n={n}: dp={ds} bf={bs}"
                            );
                            assert!(space.contains(&dp, scored.distances()));
                        }
                        (None, None) => {}
                        (dp, bf) => {
                            panic!("k={k} n={n}: dp={:?} bf={:?}", dp.is_some(), bf.is_some())
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_distance_constrained_spaces() {
        let scored = scored(ScoringConfig::coverage());
        let tight = PreviewSpace::tight(2, 6, 2).unwrap();
        let diverse = PreviewSpace::diverse(2, 6, 2).unwrap();
        assert!(DynamicProgrammingDiscovery::new()
            .discover(&scored, &tight)
            .is_err());
        assert!(DynamicProgrammingDiscovery::new()
            .discover(&scored, &diverse)
            .is_err());
    }

    #[test]
    fn returns_none_when_not_enough_types() {
        let scored = scored(ScoringConfig::coverage());
        let space = PreviewSpace::concise(7, 14).unwrap();
        assert!(DynamicProgrammingDiscovery::new()
            .discover(&scored, &space)
            .unwrap()
            .is_none());
    }

    #[test]
    fn exact_table_count_even_when_budget_is_tight() {
        let scored = scored(ScoringConfig::coverage());
        // n == k: one non-key attribute per table.
        let space = PreviewSpace::concise(3, 3).unwrap();
        let dp = DynamicProgrammingDiscovery::new()
            .discover(&scored, &space)
            .unwrap()
            .unwrap();
        assert_eq!(dp.tables().len(), 3);
        assert_eq!(dp.non_key_count(), 3);
        let bf = BruteForceDiscovery::new()
            .discover(&scored, &space)
            .unwrap()
            .unwrap();
        assert!((scored.preview_score(&dp) - scored.preview_score(&bf)).abs() < 1e-9);
    }

    #[test]
    fn uses_all_types_when_k_equals_type_count() {
        let scored = scored(ScoringConfig::coverage());
        let k = scored.eligible_types().len();
        let space = PreviewSpace::concise(k, k + 6).unwrap();
        let dp = DynamicProgrammingDiscovery::new()
            .discover(&scored, &space)
            .unwrap()
            .unwrap();
        assert_eq!(dp.tables().len(), k);
        // Every eligible type is a key attribute.
        for &ty in scored.eligible_types() {
            assert!(dp.has_key(ty));
        }
    }
}
