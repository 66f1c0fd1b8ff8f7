//! Shared machinery of the discovery algorithms: the Theorem-3 scoring walk,
//! which reuses the state of a shared prefix of key attributes, preview
//! assembly on top of it, and in-place k-subset stepping.

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

/// Whether a freshly evaluated subset replaces the current incumbent under
/// the sequential enumeration's tie-break, for algorithms that do **not**
/// visit subsets in lexicographic order (best-first search pops by bound).
///
/// The lexicographic scan keeps the *first* subset that attains the maximum
/// score: a later subset wins only by scoring strictly higher. Out of visit
/// order, the same winner is the lexicographically smallest max-scoring
/// subset, so a candidate replaces the incumbent iff it scores strictly
/// higher, or ties the score with a lexicographically smaller index subset.
pub(crate) fn replaces_incumbent(
    candidate_score: f64,
    candidate_subset: &[u32],
    incumbent_score: f64,
    incumbent_subset: &[u32],
) -> bool {
    candidate_score > incumbent_score
        || (candidate_score == incumbent_score && candidate_subset < incumbent_subset)
}

/// The Theorem-3 scoring walk over a `k`-table subset, kept per depth so
/// that subsets sharing a prefix share its work (Alg. 1, lines 5–14; the
/// `ComputePreview` routine of Alg. 3).
///
/// Following Theorem 3, every table takes its top candidate, and the `extras`
/// remaining slots go to the globally best remaining candidates weighted by
/// `S(τ) × Sτ(γ)`. The score is summed in exactly this order: the `k` top-1
/// terms in table order, then the extras largest first, ties to the lower
/// table position and then the lower candidate rank.
///
/// For each depth `d`, the walk keeps the left-to-right sum of the first `d`
/// top-1 terms and the best `extras` weighted extras of the first `d` tables
/// in that order. Depth `d + 1`'s extras are a stable merge of depth `d`'s
/// with table `d`'s candidate list, which already is a sorted run of the
/// order: a list's weighted extras never increase because its candidates are
/// sorted by descending score and its key score is ≥ 0 (and rounding is
/// monotone). The merge takes the new table's entry only when it is strictly
/// greater, so ties stay with the lower position, and it stops after
/// `extras` entries, which are all the deeper depths can use. So a subset's
/// score is depth `k`'s sum plus its extras in order: the additions a full
/// sort of the pooled extras would make, with the same bits.
///
/// Subsets next to each other in lexicographic order share all but their
/// last few tables. An engine that steps through them [`push`](Self::push)es
/// only the depths from the lowest position a step changed, and scores each
/// subset's last table straight off the depth before it
/// ([`score_last`](Self::score_last)), so a subset costs `O(n − k + 1)`.
/// Once grown, the walk allocates nothing.
#[derive(Debug)]
pub(crate) struct PrefixWalk {
    /// `n − k`: the slots beyond each table's top candidate.
    extras: usize,
    /// Per depth `d`: the top-1 terms of tables `0..d`, added left to right.
    sums: Vec<f64>,
    /// Per depth `d`: the best `extras` weighted extras of tables `0..d`, in
    /// summation order, each with its table position.
    lists: Vec<Vec<(f64, u32)>>,
}

impl PrefixWalk {
    /// A walk over subsets of `k` tables with `extras` slots beyond their
    /// top candidates.
    pub(crate) fn new(k: usize, extras: usize) -> Self {
        Self {
            extras,
            sums: vec![0.0; k + 1],
            lists: vec![Vec::new(); k + 1],
        }
    }

    /// Sets table `pos` of the subset to `table`: computes depth `pos + 1`
    /// from depth `pos`, which must hold the subset's current tables
    /// `0..pos`. Returns `false`, and leaves depth `pos + 1` as it was, if
    /// the table has no candidate (such a table would violate Def. 1).
    pub(crate) fn push(&mut self, pos: usize, table: KeyView<'_>) -> bool {
        let Some(top) = table.1.first() else {
            return false;
        };
        self.sums[pos + 1] = self.sums[pos] + table.0 * top.score;
        let (done, rest) = self.lists.split_at_mut(pos + 1);
        let next = &mut rest[0];
        next.clear();
        merge_extras(&done[pos], pos, table, self.extras, |entry| {
            next.push(entry)
        });
        true
    }

    /// The score of the subset whose tables `0..pos` are the walk's depth
    /// `pos` and whose last table, at `pos`, is `table`, without storing it
    /// as a depth. Returns `None` if the table has no candidate.
    #[inline]
    pub(crate) fn score_last(&self, pos: usize, table: KeyView<'_>) -> Option<f64> {
        let mut score = self.sums[pos] + table.0 * table.1.first()?.score;
        merge_extras(
            &self.lists[pos],
            pos,
            table,
            self.extras,
            |(weighted, _)| score += weighted,
        );
        Some(score)
    }
}

/// Hands `emit` the first `limit` entries of the stable merge of `prev`,
/// the best extras of the tables before `pos` in summation order, with the
/// weighted extras `key × Sτ(γⱼ)` (`j ≥ 2`) of `table`, at position `pos`.
/// The new table's entry goes first only when it is strictly greater.
#[inline]
fn merge_extras(
    prev: &[(f64, u32)],
    pos: usize,
    (key, cands): KeyView<'_>,
    limit: usize,
    mut emit: impl FnMut((f64, u32)),
) {
    debug_assert!(
        key >= 0.0,
        "the extras merge needs key scores >= 0, got {key}"
    );
    let (mut old, mut new) = (0, 1);
    for _ in 0..limit {
        let fresh = cands.get(new).map(|cand| key * cand.score);
        debug_assert!(fresh.is_none_or(|w| !w.is_nan()), "scores must not be NaN");
        let entry = match (prev.get(old), fresh) {
            (Some(&(kept, _)), Some(weighted)) if weighted > kept => {
                new += 1;
                (weighted, pos as u32)
            }
            (Some(&entry), _) => {
                old += 1;
                entry
            }
            (None, Some(weighted)) => {
                new += 1;
                (weighted, pos as u32)
            }
            (None, None) => break,
        };
        emit(entry);
    }
}

/// The winner of an engine that scores subsets in lexicographic order: the
/// first subset that attains the maximum score, as positions into
/// [`ScoredSchema::eligible_types`].
#[derive(Debug)]
pub(crate) struct Winner {
    score: Option<f64>,
    subset: Vec<u32>,
}

impl Winner {
    /// No winner yet among `k`-subsets.
    pub(crate) fn new(k: usize) -> Self {
        Self {
            score: None,
            subset: vec![0; k],
        }
    }

    /// Scores the subsets `prefix + [j]` for each `j` of `lasts`, in the
    /// order given, off `walk`'s depth `prefix.len()`, which must hold
    /// `prefix`. A later subset must score strictly higher to win.
    #[inline]
    pub(crate) fn offer_lasts(
        &mut self,
        walk: &PrefixWalk,
        views: &[KeyView<'_>],
        prefix: &[u32],
        lasts: impl IntoIterator<Item = u32>,
    ) {
        let pos = prefix.len();
        for j in lasts {
            if let Some(score) = walk.score_last(pos, views[j as usize]) {
                if self.score.is_none_or(|top| score > top) {
                    self.score = Some(score);
                    self.subset[..pos].copy_from_slice(prefix);
                    self.subset[pos] = j;
                }
            }
        }
    }

    /// The winner's preview, or `None` if no subset was scored.
    pub(crate) fn preview(&self, scored: &ScoredSchema, size: SizeConstraint) -> Option<Preview> {
        self.score?;
        preview_at(scored, self.subset.iter().map(|&i| i as usize), size)
    }
}

/// Scores the `k` tables `table(0..k)` with `walk`, a walk over `k`-table
/// subsets: the walk's `k`-step case, which pushes the first `k − 1` tables
/// and scores the last off them. Returns `None` if any table has no
/// candidate.
pub(crate) fn walk_subset<'a>(
    walk: &mut PrefixWalk,
    table: impl Fn(usize) -> KeyView<'a>,
) -> Option<f64> {
    let Some(last) = walk.sums.len().checked_sub(2) else {
        return Some(0.0); // No tables.
    };
    (0..last)
        .all(|pos| walk.push(pos, table(pos)))
        .then(|| walk.score_last(last, table(last)))
        .flatten()
}

/// Assembles the best preview whose key attributes are exactly `subset`,
/// with its score: the preview [`walk_subset`] scores, so both report the
/// same score bits. Each table takes its top candidate plus the extras the
/// walk's last depth holds for its position. Returns `None` if any key
/// attribute has no candidate non-key attribute.
pub(crate) fn compute_preview(
    scored: &ScoredSchema,
    subset: &[TypeId],
    size: SizeConstraint,
) -> Option<(Preview, f64)> {
    debug_assert_eq!(subset.len(), size.tables);
    let k = subset.len();
    let mut walk = PrefixWalk::new(k, size.non_keys.saturating_sub(k));
    let table = |pos: usize| {
        (
            scored.key_score(subset[pos]),
            scored.candidates(subset[pos]),
        )
    };
    let score = walk_subset(&mut walk, table)?;
    // Depth `k` holds the extras the score added, with their positions.
    if let Some(last) = k.checked_sub(1) {
        walk.push(last, table(last));
    }
    let mut taken = vec![1; k];
    for &(_, pos) in &walk.lists[k] {
        taken[pos as usize] += 1;
    }
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
/// lexicographic successor in place (Alg. 1, line 4), and returns the lowest
/// position the step changed: the depth a [`PrefixWalk`] over the subset
/// must recompute from. Returns `None`, and leaves `indices` as it was, when
/// it already is the last one.
pub(crate) fn step_subset(indices: &mut [u32], n: usize) -> Option<usize> {
    let k = indices.len();
    debug_assert!(k <= n);
    let pos = (0..k).rev().find(|&i| indices[i] as usize != i + n - k)?;
    indices[pos] += 1;
    for i in pos + 1..k {
        indices[i] = indices[i - 1] + 1;
    }
    Some(pos)
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

    /// Every `k`-subset of `0..n` in the order [`step_subset`] visits.
    fn combinations(n: usize, k: usize) -> Vec<Vec<u32>> {
        if k > n {
            return Vec::new();
        }
        let mut indices: Vec<u32> = (0..k as u32).collect();
        let mut all = vec![indices.clone()];
        while step_subset(&mut indices, n).is_some() {
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
        // Stepping from a subset that does not start at the first one; each
        // step reports the lowest position it changed.
        let mut subset = [3, 4];
        assert_eq!(step_subset(&mut subset, 6), Some(1));
        assert_eq!(subset, [3, 5]);
        assert_eq!(step_subset(&mut subset, 6), Some(0));
        assert_eq!(subset, [4, 5]);
        assert_eq!(step_subset(&mut subset, 6), None);
        assert_eq!(subset, [4, 5]);
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
    /// rank), and add the top ones after the top-1 terms. Returns the score
    /// and how many candidates each table takes.
    fn pool_sort(
        scored: &ScoredSchema,
        subset: &[TypeId],
        extras: usize,
    ) -> Option<(f64, Vec<usize>)> {
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
        let mut taken = vec![1; subset.len()];
        for &(weighted, pos, _) in pool.iter().take(extras) {
            score += weighted;
            taken[pos] += 1;
        }
        Some((score, taken))
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
            let view = |i: u32| {
                let ty = types[i as usize];
                (scored.key_score(ty), scored.candidates(ty))
            };
            for k in 1..=types.len() {
                for n in k..=k + 6 {
                    let size = SizeConstraint {
                        tables: k,
                        non_keys: n,
                    };
                    // `stepped` goes through every k-subset in lexicographic
                    // order and recomputes only the depths from the lowest
                    // position each step changed; `whole` walks every subset
                    // from scratch.
                    let mut stepped = PrefixWalk::new(k, n - k);
                    let mut whole = PrefixWalk::new(k, n - k);
                    let mut combo: Vec<u32> = (0..k as u32).collect();
                    // Depths `0..=depth` of `stepped` hold `combo`'s tables.
                    let (mut depth, mut from) = (0, 0);
                    loop {
                        depth = depth.min(from);
                        while depth < k - 1 && stepped.push(depth, view(combo[depth])) {
                            depth += 1;
                        }
                        let reused = (depth == k - 1)
                            .then(|| stepped.score_last(k - 1, view(combo[k - 1])))
                            .flatten();
                        let subset: Vec<TypeId> =
                            combo.iter().map(|&i| types[i as usize]).collect();
                        let walked = walk_subset(&mut whole, |pos| view(combo[pos]));
                        let assembled = compute_preview(&scored, &subset, size);
                        assert_eq!(
                            walked.map(f64::to_bits),
                            assembled.as_ref().map(|(_, score)| score.to_bits()),
                            "{subset:?} n={n}"
                        );
                        let pooled = pool_sort(&scored, &subset, n - k);
                        assert_eq!(
                            walked.map(f64::to_bits),
                            pooled.as_ref().map(|(score, _)| score.to_bits()),
                            "{subset:?} n={n}"
                        );
                        assert_eq!(
                            reused.map(f64::to_bits),
                            walked.map(f64::to_bits),
                            "{subset:?} n={n}"
                        );
                        if let (Some((preview, score)), Some((_, taken))) = (assembled, pooled) {
                            assert_eq!(preview.non_key_count(), taken.iter().sum::<usize>());
                            assert!((scored.preview_score(&preview) - score).abs() < 1e-9);
                            // Tied extras go to the lower table position.
                            let per_table: Vec<usize> = preview
                                .tables()
                                .iter()
                                .map(|t| t.non_keys().len())
                                .collect();
                            assert_eq!(per_table, taken, "{subset:?} n={n}");
                        }
                        match step_subset(&mut combo, types.len()) {
                            Some(pos) => from = pos,
                            None => break,
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
