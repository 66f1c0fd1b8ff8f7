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
//!
//! # Bitset feasible sets
//!
//! The search keeps `R` as a bitset over the eligible indices, in as many
//! `u64` words as the schema needs. Each eligible index `i` has a *row*: the
//! indices after `i` that may share a preview with it under the space's
//! distance constraint. The set of the root is every eligible index, and a
//! child `P + [j]` gets its parent's set ANDed with row `j`: the members
//! after `j` that pair with `j` and, by induction, with all of `P`.
//!
//! The rows, the per-slot maxima, the eligible indices in descending
//! per-slot-maximum order and every weighted extra in one descending list
//! form a `BoundIndex`, built once per [`ScoredSchema`] by the first
//! discovery call that needs it; rows are built per distance constraint on
//! first use. Apriori and brute force read the same rows, so the
//! distance-to-pair decision is made in one place.
//!
//! The bound takes the top `k − m` per-slot maxima by scanning the ordered
//! indices and skipping those outside `R`, and the top `n − k` extras by
//! scanning the extras list and skipping owners outside `P ∪ R`. For a small
//! set it is cheaper to offer each member to a small sorted buffer instead,
//! and the bound picks by the set's size. Either way it selects the largest
//! values of the same multisets as the formula above, so it stays
//! admissible by the same argument. It sums them in ascending order, the
//! order the buffer holds them in, so the bound keeps the same bits on both
//! paths, and the search expands the same nodes in the same order.

use std::sync::OnceLock;

use entity_graph::UNREACHABLE;

use crate::algo::common::{eligible_views, KeyView};
use crate::constraint::{DistanceConstraint, PreviewSpace};
use crate::scoring::ScoredSchema;

/// Relative safety factor applied to every bound: large enough to dominate
/// the worst-case relative rounding error of the few-hundred-term sums
/// involved (≈ `len · ε ≈ 1e-13`), small enough to cost essentially no
/// pruning power on real score distributions.
pub const BOUND_SAFETY: f64 = 1.0 + 1e-9;

/// Number of `u64` words in a bitset over `len` indices.
pub(crate) fn set_words(len: usize) -> usize {
    len.div_ceil(64)
}

/// The bitset of every index below `len`.
pub(crate) fn set_full(len: usize) -> Vec<u64> {
    let mut set = vec![u64::MAX; set_words(len)];
    if let Some(last) = set.last_mut() {
        *last >>= (64 - len % 64) % 64;
    }
    set
}

/// Whether bitset `set` holds index `i`.
#[inline]
pub(crate) fn set_has(set: &[u64], i: u32) -> bool {
    set[i as usize / 64] >> (i % 64) & 1 == 1
}

/// The indices in bitset `set`, ascending.
pub(crate) fn set_members(set: &[u64]) -> impl Iterator<Item = u32> + '_ {
    set.iter().enumerate().flat_map(|(at, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            let bit = rest.trailing_zeros();
            rest &= rest.checked_sub(1)?;
            Some(at as u32 * 64 + bit)
        })
    })
}

/// Which eligible pairs may share a preview under one distance constraint:
/// one bitset row per eligible index, holding the *later* indices it may
/// pair with. This is the one place the distance-to-pair decision is made
/// for discovery; every engine reads these rows.
#[derive(Debug, Clone)]
pub(crate) struct PairRows {
    words: usize,
    bits: Vec<u64>,
}

impl PairRows {
    fn build(scored: &ScoredSchema, constraint: Option<DistanceConstraint>) -> Self {
        let eligible = scored.eligible_types();
        let distances = scored.distances();
        let words = set_words(eligible.len());
        let mut bits = vec![0; eligible.len() * words];
        for i in 0..eligible.len() {
            let row = &mut bits[i * words..(i + 1) * words];
            for j in i + 1..eligible.len() {
                let ok = constraint
                    .is_none_or(|c| c.pair_ok(distances.distance(eligible[i], eligible[j])));
                row[j / 64] |= u64::from(ok) << (j % 64);
            }
        }
        Self { words, bits }
    }

    /// The row of eligible index `i`: the indices after `i` it may pair with.
    pub(crate) fn row(&self, i: u32) -> &[u64] {
        let at = i as usize * self.words;
        &self.bits[at..at + self.words]
    }

    /// Writes to `out` the members of bitset `set` that index `i` may pair
    /// with: `set` ANDed with `i`'s row, so only members after `i`.
    #[inline]
    pub(crate) fn intersect(&self, set: &[u64], i: u32, out: &mut [u64]) {
        for ((out, &s), &r) in out.iter_mut().zip(set).zip(self.row(i)) {
            *out = s & r;
        }
    }

    /// Whether the distinct eligible indices `a` and `b`, in either order,
    /// may share a preview.
    #[inline]
    pub(crate) fn pair_ok(&self, a: u32, b: u32) -> bool {
        let (low, high) = if a < b { (a, b) } else { (b, a) };
        let word = self.bits[low as usize * self.words + high as usize / 64];
        low != high && word >> (high % 64) & 1 == 1
    }
}

/// The per-schema state the bound reads, built once per [`ScoredSchema`] on
/// first use (see [`ScoredSchema::bound_index`]).
#[derive(Debug, Clone)]
pub(crate) struct BoundIndex {
    /// Per eligible index: the per-slot maximum `S(τ)·Sτ(γ₁)` (the
    /// [`ScoredSchema::weighted_top_score`] of the type).
    slot_max: Vec<f64>,
    /// The eligible indices by descending per-slot maximum.
    by_slot_max: Vec<u32>,
    /// Every weighted extra `S(τ)·Sτ(γⱼ)` (`j ≥ 2`) of every eligible type,
    /// with the type's eligible index, by descending value.
    extras: Vec<(f64, u32)>,
    /// The largest finite distance in the schema graph.
    diameter: u32,
    /// Pair rows per distance constraint, filled on first use; see
    /// [`row_slot`].
    rows: Box<[OnceLock<PairRows>]>,
}

impl BoundIndex {
    pub(crate) fn build(scored: &ScoredSchema) -> Self {
        let eligible = scored.eligible_types();
        let slot_max: Vec<f64> = eligible
            .iter()
            .map(|&ty| scored.weighted_top_score(ty))
            .collect();
        let mut by_slot_max: Vec<u32> = (0..eligible.len() as u32).collect();
        by_slot_max.sort_by(|&a, &b| slot_max[b as usize].total_cmp(&slot_max[a as usize]));
        let mut extras: Vec<(f64, u32)> = eligible_views(scored)
            .into_iter()
            .enumerate()
            .flat_map(|(i, (key, cands))| cands[1..].iter().map(move |c| (key * c.score, i as u32)))
            .collect();
        extras.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let diameter = scored.distances().diameter().unwrap_or(0);
        Self {
            slot_max,
            by_slot_max,
            extras,
            diameter,
            rows: (0..2 * diameter as usize + 5)
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    /// The pair rows of `constraint`, built on first use.
    pub(crate) fn pair_rows(
        &self,
        scored: &ScoredSchema,
        constraint: Option<DistanceConstraint>,
    ) -> &PairRows {
        let (slot, canonical) = row_slot(constraint, self.diameter);
        self.rows[slot].get_or_init(|| PairRows::build(scored, canonical))
    }
}

/// The cache slot of `constraint`'s rows, and the constraint the slot's rows
/// are built from. Distinct types lie between 1 and `diameter` apart or are
/// unreachable, so every `d` above `diameter` admits the same pairs as one
/// just past it. Clamping `d` keeps the cache at `2·diameter + 5` slots
/// whatever `d` requests carry.
fn row_slot(
    constraint: Option<DistanceConstraint>,
    diameter: u32,
) -> (usize, Option<DistanceConstraint>) {
    use DistanceConstraint::{AtLeast, AtMost};
    let top = diameter as usize;
    match constraint {
        None => (0, None),
        // Admits unreachable pairs, unlike every smaller `d`.
        Some(AtMost(UNREACHABLE)) => (1, constraint),
        Some(AtMost(d)) => {
            let d = d.min(diameter);
            (2 + d as usize, Some(AtMost(d)))
        }
        Some(AtLeast(d)) => {
            let d = d.min(diameter + 1);
            (3 + top + d as usize, Some(AtLeast(d)))
        }
    }
}

/// Whether scanning a descending list for the top `limit` entries owned by a
/// `members`-strong set beats offering every member to a sorted buffer. A
/// scan passes about `universe / members` entries per hit, so it pays when
/// `limit · universe ≤ members²`; small sets are cheaper to walk member by
/// member. On the film schema either path alone was slower than this
/// switch: scans on small sets, offers on large sets with many extra slots.
fn scan_pays(limit: usize, members: usize, universe: usize) -> bool {
    limit * universe <= members * members
}

/// Precomputed per-space state for bounding prefix subtrees.
///
/// Indices handed to [`feasible_extensions`](Self::feasible_extensions) and
/// [`upper_bound`](Self::upper_bound) are positions into
/// [`ScoredSchema::eligible_types`], exactly the index space the Apriori
/// join and the best-first search operate in.
#[derive(Debug, Clone)]
pub struct BoundContext<'a> {
    index: &'a BoundIndex,
    rows: &'a PairRows,
    /// `k`: number of preview tables.
    tables: usize,
    /// `n − k`: non-key slots beyond the one mandatory slot per table.
    extra_slots: usize,
    /// Per eligible index: the type's key score (≥ 0) and candidate list,
    /// sorted by descending score, so the weighted extras
    /// `key · cands[j≥1].score` are sorted too.
    views: Vec<KeyView<'a>>,
}

impl<'a> BoundContext<'a> {
    /// Builds the bound state for one `(scored, space)` pair.
    pub fn new(scored: &'a ScoredSchema, space: &PreviewSpace) -> Self {
        let size = space.size();
        Self {
            index: scored.bound_index(),
            rows: scored.pair_rows(space.distance()),
            tables: size.tables,
            extra_slots: size.non_keys.saturating_sub(size.tables),
            views: eligible_views(scored),
        }
    }

    /// The [`KeyView`] of every eligible index, for scoring complete subsets
    /// with a [`PrefixWalk`](crate::algo::common::PrefixWalk).
    pub(crate) fn views(&self) -> &[KeyView<'a>] {
        &self.views
    }

    /// The feasible set of the empty prefix: every eligible index.
    pub(crate) fn root_set(&self) -> Vec<u64> {
        set_full(self.views.len())
    }

    /// Writes the feasible set of `prefix + [j]` to `child`, given the set
    /// `parent` of `prefix`, which holds `j`: the members of `parent` after
    /// `j` that may pair with it.
    #[inline]
    pub(crate) fn child_set(&self, parent: &[u64], j: u32, child: &mut [u64]) {
        self.rows.intersect(parent, j, child);
    }

    /// Whether the eligible types at indices `a` and `b` may coexist in one
    /// preview under the space's distance constraint (always true for
    /// distinct types of a concise space).
    #[inline]
    pub fn pair_ok(&self, a: u32, b: u32) -> bool {
        self.rows.pair_ok(a, b)
    }

    /// The feasible extension set of `prefix`, a strictly increasing index
    /// sequence: every eligible index after the prefix's last element that
    /// satisfies the distance constraint against **all** prefix members.
    /// (Pairwise feasibility *among* the extensions is deliberately not
    /// required — the bound stays admissible without it, and the search
    /// re-checks pairs as it extends.)
    pub fn feasible_extensions(&self, prefix: &[u32]) -> Vec<u32> {
        let mut set = self.root_set();
        let mut child = set.clone();
        for &p in prefix {
            self.child_set(&set, p, &mut child);
            std::mem::swap(&mut set, &mut child);
        }
        set_members(&set).collect()
    }

    /// The admissible upper bound on the preview score of any feasible
    /// completion of `prefix`, or `None` when no completion exists
    /// (`feasible` has fewer elements than the prefix still needs).
    ///
    /// `feasible` must be the prefix's feasible extension set (see
    /// [`feasible_extensions`](Self::feasible_extensions)); the search keeps
    /// it as a bitset and calls the same bound on that.
    pub fn upper_bound(&self, prefix: &[u32], feasible: &[u32]) -> Option<f64> {
        let mut set = vec![0; set_words(self.views.len())];
        for &r in feasible {
            set[r as usize / 64] |= 1 << (r % 64);
        }
        self.bound(prefix, &set, &mut Vec::new())
    }

    /// [`upper_bound`](Self::upper_bound) over the bitset `set` of feasible
    /// extensions, with a caller-owned scratch buffer, so the per-node hot
    /// path allocates nothing.
    pub(crate) fn bound(&self, prefix: &[u32], set: &[u64], scratch: &mut Vec<f64>) -> Option<f64> {
        let need = self.tables.checked_sub(prefix.len())?;
        let size: usize = set.iter().map(|w| w.count_ones() as usize).sum();
        if size < need {
            return None;
        }
        let index = self.index;
        let universe = self.views.len();
        // Chosen per-slot maxima.
        let mut bound: f64 = prefix.iter().map(|&i| index.slot_max[i as usize]).sum();
        // Top `k − m` remaining per-slot maxima over the feasible extensions.
        if need > 0 {
            scratch.clear();
            if scan_pays(need, size, universe) {
                let picked = index.by_slot_max.iter().filter(|&&i| set_has(set, i));
                scratch.extend(picked.take(need).map(|&i| index.slot_max[i as usize]));
                scratch.reverse();
            } else {
                for r in set_members(set) {
                    top_offer(scratch, need, index.slot_max[r as usize]);
                }
            }
            bound += scratch.iter().sum::<f64>();
        }
        // Optimistic extras pool: top `n − k` weighted non-mandatory
        // candidates over the chosen types and every feasible extension.
        // A complete prefix takes no extensions, so its pool is exact.
        if self.extra_slots > 0 {
            let limit = self.extra_slots;
            let extensions = if need > 0 { size } else { 0 };
            scratch.clear();
            if scan_pays(limit, prefix.len() + extensions, universe) {
                let owned = |i: u32| (need > 0 && set_has(set, i)) || prefix.contains(&i);
                let picked = index.extras.iter().filter(|&&(_, i)| owned(i));
                scratch.extend(picked.take(limit).map(|&(extra, _)| extra));
                scratch.reverse();
            } else {
                let extensions = set_members(if need > 0 { set } else { &[] });
                for i in prefix.iter().copied().chain(extensions) {
                    let (key, cands) = self.views[i as usize];
                    for cand in &cands[1..] {
                        // Extras of one type descend, so once one fails to
                        // enter the top buffer the rest of the list cannot
                        // either.
                        if !top_offer(scratch, limit, key * cand.score) {
                            break;
                        }
                    }
                }
            }
            bound += scratch.iter().sum::<f64>();
        }
        Some(bound * BOUND_SAFETY)
    }
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
    fn root_sets_span_every_word_and_nothing_past_the_last_index() {
        for len in [0usize, 1, 63, 64, 65, 128, 130] {
            let set = set_full(len);
            let members: Vec<u32> = set_members(&set).collect();
            assert_eq!(members, (0..len as u32).collect::<Vec<_>>(), "len {len}");
            assert!(members.iter().all(|&i| set_has(&set, i)));
        }
    }

    #[test]
    fn constraints_admitting_the_same_pairs_share_a_row_slot() {
        use DistanceConstraint::{AtLeast, AtMost};
        let diameter = 4;
        let slot = |c| row_slot(Some(c), diameter);
        // Past the diameter, tight admits every reachable pair and diverse
        // only unreachable ones, whatever `d` is.
        assert_eq!(slot(AtMost(9)), slot(AtMost(4)));
        assert_eq!(slot(AtMost(9)).1, Some(AtMost(4)));
        assert_eq!(slot(AtLeast(9)), slot(AtLeast(5)));
        assert_eq!(slot(AtLeast(9)).1, Some(AtLeast(5)));
        // An unbounded tight constraint also admits unreachable pairs.
        assert_ne!(slot(AtMost(UNREACHABLE)).0, slot(AtMost(4)).0);
        let mut slots: Vec<usize> = (0..=6)
            .flat_map(|d| [slot(AtMost(d)).0, slot(AtLeast(d)).0])
            .chain([slot(AtMost(UNREACHABLE)).0, row_slot(None, diameter).0])
            .collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots, (0..2 * diameter as usize + 5).collect::<Vec<_>>());
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
