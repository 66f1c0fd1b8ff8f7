//! Shared machinery of the discovery algorithms: the Theorem-3 scoring walk
//! for a fixed set of key attributes, preview assembly on top of it, and
//! in-place k-subset stepping.

use entity_graph::TypeId;

use crate::candidates::Candidate;
use crate::constraint::SizeConstraint;
use crate::preview::{NonKeyAttr, Preview, PreviewTable};
use crate::scoring::ScoredSchema;

/// One key attribute as the scoring walk reads it: the key score `S(τ)` and
/// the candidate list, sorted by descending score.
pub(crate) type KeyView<'a> = (f64, &'a [Candidate]);

/// The [`KeyView`] of every eligible type, indexed like
/// [`ScoredSchema::eligible_types`] — the index space the enumerating
/// algorithms work in.
pub(crate) fn eligible_views(scored: &ScoredSchema) -> Vec<KeyView<'_>> {
    scored
        .eligible_types()
        .iter()
        .map(|&ty| (scored.key_score(ty), scored.candidates(ty)))
        .collect()
}

/// Whether the preview space is trivially empty for `scored`, so every
/// algorithm must return `Ok(None)` without running.
///
/// Covers the degenerate corners the three algorithms historically disagreed
/// on: `k == 0` (a preview is non-empty by Def. 1; `SizeConstraint::new`
/// rejects it, but the fields are public and hand-built constraints reach the
/// algorithms), `n < k` (every table needs one non-key attribute, so no
/// preview fits the budget), and fewer eligible entity types than requested
/// tables.
pub(crate) fn space_is_empty(scored: &ScoredSchema, size: SizeConstraint) -> bool {
    size.tables == 0 || size.non_keys < size.tables || scored.eligible_types().len() < size.tables
}

/// Merges two scored winners found in index order, keeping the earlier
/// unless the later scores *strictly* higher — the tie-break of the
/// sequential enumeration (earliest-strict-argmax). It is associative, so
/// per-chunk winners merged in chunk order equal the full sequential scan.
pub(crate) fn earliest_max<T>(earlier: (f64, T), later: (f64, T)) -> (f64, T) {
    if later.0 > earlier.0 {
        later
    } else {
        earlier
    }
}

/// Whether a freshly evaluated subset replaces the current incumbent under
/// the sequential enumeration's tie-break, for algorithms that do **not**
/// visit subsets in lexicographic order (best-first search pops by bound).
///
/// The sequential scan keeps the *first* subset in lexicographic order that
/// attains the maximum score ([`earliest_max`]). Out of visit order, the same
/// winner is the lexicographically smallest max-scoring subset, so a
/// candidate replaces the incumbent iff it scores strictly higher, or ties
/// the score with a lexicographically smaller index subset.
pub(crate) fn replaces_incumbent(
    candidate_score: f64,
    candidate_subset: &[u32],
    incumbent_score: f64,
    incumbent_subset: &[u32],
) -> bool {
    candidate_score > incumbent_score
        || (candidate_score == incumbent_score && candidate_subset < incumbent_subset)
}

/// Scores the best preview keyed on the `k` tables `table(0..k)` without
/// building it (Alg. 1, lines 5–14; the `ComputePreview` routine of Alg. 3).
///
/// Following Theorem 3, every table takes its top candidate, and the `extras`
/// remaining slots go to the globally best remaining candidates weighted by
/// `S(τ) × Sτ(γ)`. The score is summed in exactly this order: the `k` top-1
/// terms in table order, then the extras largest first, ties to the lower
/// table position and then the lower candidate rank. The extras come from a
/// k-way merge over the per-table candidate lists, which already are the
/// sorted runs of that order: a list's weighted extras never increase because
/// its candidates are sorted by descending score and its key score is ≥ 0
/// (and rounding is monotone). So the merge yields the order a full sort of
/// the pooled extras would, and the same score bits, without the pool.
///
/// On `Some`, `taken[pos]` is how many candidates table `pos` takes — always
/// its top ones. `taken` is caller-owned scratch, so the walk allocates
/// nothing once it has grown to `k`. Returns `None` if any table has no
/// candidate (such a table would violate Def. 1).
pub(crate) fn walk_subset<'a>(
    k: usize,
    table: impl Fn(usize) -> KeyView<'a>,
    extras: usize,
    taken: &mut Vec<usize>,
) -> Option<f64> {
    taken.clear();
    let mut score = 0.0;
    for pos in 0..k {
        let (key, cands) = table(pos);
        debug_assert!(
            key >= 0.0,
            "the extras merge needs key scores >= 0, got {key}"
        );
        score += key * cands.first()?.score;
        taken.push(1);
    }
    for _ in 0..extras {
        let mut best: Option<(usize, f64)> = None;
        for (pos, &next) in taken.iter().enumerate() {
            let (key, cands) = table(pos);
            if let Some(cand) = cands.get(next) {
                let weighted = key * cand.score;
                debug_assert!(!weighted.is_nan(), "scores must not be NaN");
                if best.is_none_or(|(_, top)| weighted > top) {
                    best = Some((pos, weighted));
                }
            }
        }
        let Some((pos, weighted)) = best else { break };
        taken[pos] += 1;
        score += weighted;
    }
    Some(score)
}

/// Assembles the best preview whose key attributes are exactly `subset`,
/// with its score: the preview [`walk_subset`] scores, so both report the
/// same score bits. Returns `None` if any key attribute has no candidate
/// non-key attribute.
pub(crate) fn compute_preview(
    scored: &ScoredSchema,
    subset: &[TypeId],
    size: SizeConstraint,
) -> Option<(Preview, f64)> {
    debug_assert_eq!(subset.len(), size.tables);
    let k = subset.len();
    let mut taken = Vec::with_capacity(k);
    let table = |pos: usize| {
        (
            scored.key_score(subset[pos]),
            scored.candidates(subset[pos]),
        )
    };
    let score = walk_subset(k, table, size.non_keys.saturating_sub(k), &mut taken)?;
    let tables = subset
        .iter()
        .zip(&taken)
        .map(|(&ty, &m)| {
            let non_keys = scored.candidates(ty)[..m]
                .iter()
                .map(|c| NonKeyAttr::new(c.edge, c.direction))
                .collect();
            PreviewTable::new(ty, non_keys)
        })
        .collect();
    Some((Preview::new(tables), score))
}

/// Builds the preview of a score-only search's winner, given as positions
/// into [`ScoredSchema::eligible_types`].
pub(crate) fn preview_at(
    scored: &ScoredSchema,
    indices: impl IntoIterator<Item = usize>,
    size: SizeConstraint,
) -> Option<Preview> {
    let eligible = scored.eligible_types();
    let subset: Vec<TypeId> = indices.into_iter().map(|i| eligible[i]).collect();
    compute_preview(scored, &subset, size).map(|(preview, _)| preview)
}

/// Steps `indices`, a strictly increasing subset of `0..n`, to its
/// lexicographic successor in place (Alg. 1, line 4). Returns `false`, and
/// leaves `indices` as it was, when it already is the last one.
pub(crate) fn next_combination(indices: &mut [usize], n: usize) -> bool {
    let k = indices.len();
    debug_assert!(k <= n);
    for i in (0..k).rev() {
        if indices[i] != i + n - k {
            indices[i] += 1;
            for j in i + 1..k {
                indices[j] = indices[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

/// Number of `k`-subsets of an `n`-set, saturating at `u128::MAX`.
pub(crate) fn binomial(n: usize, k: usize) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut result: u128 = 1;
    for i in 0..k {
        result = result.saturating_mul((n - i) as u128) / (i as u128 + 1);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoring::{KeyScoring, NonKeyScoring, ScoringConfig};
    use entity_graph::fixtures::{self, types};

    /// Every `k`-subset of `0..n` in the order [`next_combination`] visits.
    fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
        if k > n {
            return Vec::new();
        }
        let mut indices: Vec<usize> = (0..k).collect();
        let mut all = vec![indices.clone()];
        while next_combination(&mut indices, n) {
            all.push(indices.clone());
        }
        all
    }

    #[test]
    fn combinations_enumerate_all_subsets() {
        assert_eq!(
            combinations(4, 2),
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3],
            ]
        );
        // Stepping a suffix that starts above zero, as the brute force does
        // behind a fixed first index.
        let mut suffix = [3, 4];
        assert!(next_combination(&mut suffix, 6));
        assert_eq!(suffix, [3, 5]);
        assert!(next_combination(&mut suffix, 6));
        assert_eq!(suffix, [4, 5]);
        assert!(!next_combination(&mut suffix, 6));
    }

    #[test]
    fn combinations_edge_cases() {
        assert_eq!(combinations(3, 0).len(), 1);
        assert_eq!(combinations(3, 3).len(), 1);
        assert_eq!(combinations(3, 4).len(), 0);
        assert_eq!(combinations(0, 0).len(), 1);
        assert_eq!(combinations(6, 3).len(), 20);
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(4, 2), 6);
        assert_eq!(binomial(69, 6), 119_877_472);
        assert_eq!(binomial(3, 5), 0);
        assert_eq!(binomial(10, 0), 1);
    }

    /// The assembly the walk replaced: pool every extra of the subset, sort
    /// the pool by weighted score (ties by table position, then candidate
    /// rank), and add the top ones after the top-1 terms.
    fn pool_sort_score(scored: &ScoredSchema, subset: &[TypeId], extras: usize) -> Option<f64> {
        let mut score = 0.0;
        for &ty in subset {
            score += scored.key_score(ty) * scored.candidates(ty).first()?.score;
        }
        let mut pool: Vec<(f64, usize, usize)> = Vec::new();
        for (pos, &ty) in subset.iter().enumerate() {
            let key = scored.key_score(ty);
            for (rank, cand) in scored.candidates(ty).iter().enumerate().skip(1) {
                pool.push((key * cand.score, pos, rank));
            }
        }
        pool.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap()
                .then_with(|| a.1.cmp(&b.1))
                .then_with(|| a.2.cmp(&b.2))
        });
        for &(weighted, _, _) in pool.iter().take(extras) {
            score += weighted;
        }
        Some(score)
    }

    #[test]
    fn walk_scores_every_fig1_subset_with_compute_preview_bits() {
        let g = fixtures::figure1_graph();
        for config in [
            ScoringConfig::coverage(),
            ScoringConfig::new(KeyScoring::RandomWalk, NonKeyScoring::Entropy),
        ] {
            let scored = ScoredSchema::build(&g, &config).unwrap();
            let types: Vec<TypeId> = scored.schema().types().collect();
            let mut taken = Vec::new();
            for k in 1..=types.len() {
                for n in k..=k + 6 {
                    let size = SizeConstraint {
                        tables: k,
                        non_keys: n,
                    };
                    for combo in combinations(types.len(), k) {
                        let subset: Vec<TypeId> = combo.iter().map(|&i| types[i]).collect();
                        let table = |pos: usize| {
                            (
                                scored.key_score(subset[pos]),
                                scored.candidates(subset[pos]),
                            )
                        };
                        let walked = walk_subset(k, table, n - k, &mut taken);
                        let assembled = compute_preview(&scored, &subset, size);
                        assert_eq!(
                            walked.map(f64::to_bits),
                            assembled.as_ref().map(|(_, score)| score.to_bits()),
                            "{subset:?} n={n}"
                        );
                        assert_eq!(
                            walked.map(f64::to_bits),
                            pool_sort_score(&scored, &subset, n - k).map(f64::to_bits),
                            "{subset:?} n={n}"
                        );
                        if let Some((preview, score)) = assembled {
                            assert_eq!(preview.non_key_count(), taken.iter().sum::<usize>());
                            assert!((scored.preview_score(&preview) - score).abs() < 1e-9);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn compute_preview_reproduces_running_example() {
        // Sec. 4: coverage/coverage, k=2, n=6 with key attributes FILM and
        // FILM ACTOR yields score 84.
        let g = fixtures::figure1_graph();
        let scored = ScoredSchema::build(&g, &ScoringConfig::coverage()).unwrap();
        let schema = scored.schema();
        let film = schema.type_by_name(types::FILM).unwrap();
        let actor = schema.type_by_name(types::FILM_ACTOR).unwrap();
        let size = SizeConstraint::new(2, 6).unwrap();
        let (preview, score) = compute_preview(&scored, &[film, actor], size).unwrap();
        assert!((score - 84.0).abs() < 1e-9);
        assert_eq!(preview.tables().len(), 2);
        assert_eq!(preview.non_key_count(), 6);
        assert!((scored.preview_score(&preview) - score).abs() < 1e-9);
    }

    #[test]
    fn compute_preview_caps_at_available_candidates() {
        let g = fixtures::figure1_graph();
        let scored = ScoredSchema::build(&g, &ScoringConfig::coverage()).unwrap();
        let schema = scored.schema();
        let award = schema.type_by_name(types::AWARD).unwrap();
        let size = SizeConstraint::new(1, 10).unwrap();
        let (preview, _) = compute_preview(&scored, &[award], size).unwrap();
        // AWARD only has two incident relationship types.
        assert_eq!(preview.non_key_count(), 2);
    }

    #[test]
    fn compute_preview_rejects_type_without_candidates() {
        use entity_graph::EntityGraphBuilder;
        let mut b = EntityGraphBuilder::new();
        let a = b.entity_type("A");
        let iso = b.entity_type("ISOLATED");
        let c = b.entity_type("B");
        let r = b.relationship_type("r", a, c);
        let x = b.entity("x", &[a]);
        let y = b.entity("y", &[c]);
        let _z = b.entity("z", &[iso]);
        b.edge(x, r, y).unwrap();
        let g = b.build();
        let scored = ScoredSchema::build(&g, &ScoringConfig::coverage()).unwrap();
        let iso_ty = scored.schema().type_by_name("ISOLATED").unwrap();
        let size = SizeConstraint::new(1, 2).unwrap();
        assert!(compute_preview(&scored, &[iso_ty], size).is_none());
    }
}
