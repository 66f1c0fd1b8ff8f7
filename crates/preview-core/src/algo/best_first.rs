//! Best-first branch-and-bound discovery with an anytime mode.
//!
//! [`BestFirstDiscovery`] explores the Apriori prefix lattice in order of the
//! admissible upper bound computed by [`super::bound`]: a max-heap of prefix
//! nodes keyed by the bound, expanding the most promising subtree first.
//! Because the bound never underestimates the score of any feasible
//! completion, the first moment the best remaining bound falls below the
//! incumbent the incumbent is *provably* optimal and the search stops —
//! typically after expanding a small fraction of the subsets the brute force
//! would enumerate (`anytime-bench` enforces a ≤ 25% ceiling on its
//! benchmark space).
//!
//! Nodes carry their feasible extension set as a bitset, so a child's set is
//! its parent's ANDed with one pair row, and the frontier keeps every node
//! in flat arrays: expanding a node allocates nothing.
//!
//! The same machinery powers an **anytime** mode:
//! [`discover_anytime`](BestFirstDiscovery::discover_anytime) accepts an
//! [`AnytimeBudget`] and, when the budget expires before the proof closes,
//! returns the best incumbent found so far together with the tightest known
//! upper bound on the optimum — so callers get a usable preview immediately
//! plus an [`optimality_gap`](AnytimeOutcome::optimality_gap) quantifying
//! what a longer search could still gain.

use std::cmp::Ordering;
use std::time::Instant;

use preview_obs::{Counter, Stage};

use super::bound::{set_members, BoundContext};
use super::common::{preview_at, replaces_incumbent, space_is_empty, PrefixWalk};
use super::PreviewDiscovery;
use crate::constraint::PreviewSpace;
use crate::error::Result;
use crate::preview::Preview;
use crate::scoring::ScoredSchema;

/// Best-first branch-and-bound discovery (exact, with optional anytime
/// budgets). Supports every preview space; results are bitwise identical to
/// [`BruteForceDiscovery`](super::BruteForceDiscovery) on the exact path.
#[derive(Debug, Clone, Copy, Default)]
pub struct BestFirstDiscovery;

impl BestFirstDiscovery {
    /// Creates the algorithm.
    pub fn new() -> Self {
        Self
    }

    /// Runs the search under `budget`, returning the best incumbent, the
    /// tightest known upper bound on the optimal score, and search
    /// statistics.
    ///
    /// With [`AnytimeBudget::UNLIMITED`] the search always runs to proof and
    /// the outcome is [`exact`](AnytimeOutcome::exact) — equivalent to
    /// [`discover`](PreviewDiscovery::discover), plus statistics. The node
    /// budget is deterministic: a larger `max_nodes` expands a superset of
    /// the nodes of a smaller one, so incumbent quality is monotone
    /// non-decreasing in the budget (wall-clock budgets trade that guarantee
    /// for a hard latency cap).
    ///
    /// Always returns `Ok`; the `Result` mirrors the
    /// [`PreviewDiscovery`] contract so budgeted and exact call sites
    /// compose uniformly.
    pub fn discover_anytime(
        &self,
        scored: &ScoredSchema,
        space: &PreviewSpace,
        budget: AnytimeBudget,
    ) -> Result<AnytimeOutcome> {
        let mut span = preview_obs::span!(Stage::BestFirstSearch);
        let outcome = search(scored, space, budget);
        span.set_attr(outcome.stats.nodes_expanded);
        // One batched report: a single enabled-check and thread-local
        // lookup instead of one per counter.
        preview_obs::counter_add_many(&[
            (Counter::NodesExpanded, outcome.stats.nodes_expanded),
            (Counter::NodesPruned, outcome.stats.nodes_pruned),
            (Counter::BoundCutoffs, outcome.stats.bound_cutoffs),
        ]);
        Ok(outcome)
    }
}

impl PreviewDiscovery for BestFirstDiscovery {
    fn name(&self) -> &'static str {
        "best-first"
    }

    fn discover(&self, scored: &ScoredSchema, space: &PreviewSpace) -> Result<Option<Preview>> {
        let outcome = self.discover_anytime(scored, space, AnytimeBudget::UNLIMITED)?;
        debug_assert!(outcome.exact);
        Ok(outcome.preview)
    }
}

/// Expansion budget for [`BestFirstDiscovery::discover_anytime`]. The search
/// stops early once **any** set limit is hit; `UNLIMITED` always runs to the
/// optimality proof.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct AnytimeBudget {
    /// Maximum number of nodes to expand (`None` = unlimited). Node budgets
    /// are fully deterministic across runs and hosts.
    pub max_nodes: Option<u64>,
    /// Wall-clock limit in milliseconds (`None` = unlimited). Wall-clock
    /// budgets cap latency but make the stopping point host-dependent.
    pub max_millis: Option<u64>,
}

impl AnytimeBudget {
    /// No limits: the search runs until the incumbent is provably optimal.
    pub const UNLIMITED: Self = Self {
        max_nodes: None,
        max_millis: None,
    };

    /// A deterministic node-expansion budget.
    pub fn nodes(max_nodes: u64) -> Self {
        Self {
            max_nodes: Some(max_nodes),
            max_millis: None,
        }
    }

    /// A wall-clock budget in milliseconds.
    pub fn millis(max_millis: u64) -> Self {
        Self {
            max_nodes: None,
            max_millis: Some(max_millis),
        }
    }

    /// Whether the budget is spent after `nodes` expansions since `start`.
    // lint: allow(wall-clock, anytime-mode budgets are wall-clock by definition; the exact path never consults them)
    fn exhausted(&self, nodes: u64, start: Instant) -> bool {
        if self.max_nodes.is_some_and(|max| nodes >= max) {
            return true;
        }
        self.max_millis
            .is_some_and(|max| start.elapsed().as_millis() as u64 >= max)
    }
}

/// Search statistics of one best-first run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Prefix nodes popped from the frontier and expanded into children.
    pub nodes_expanded: u64,
    /// Nodes discarded without expansion, for any reason: infeasible
    /// children, bound cutoffs, and the frontier remainder when the
    /// optimality proof closes.
    pub nodes_pruned: u64,
    /// The subset of [`nodes_pruned`](Self::nodes_pruned) discarded because
    /// the admissible bound could not beat the incumbent.
    pub bound_cutoffs: u64,
    /// Complete `k`-subsets scored via preview assembly — the direct analogue
    /// of the brute force's enumeration count.
    pub subsets_evaluated: u64,
}

/// Result of a (possibly budgeted) best-first search.
#[derive(Debug, Clone)]
pub struct AnytimeOutcome {
    /// Best preview found (`None` when the space is empty, or when the
    /// budget expired before any complete subset was evaluated).
    pub preview: Option<Preview>,
    /// Score of [`preview`](Self::preview) (`0.0` when `preview` is `None`).
    pub score: f64,
    /// Tightest known upper bound on the optimal score: equal to
    /// [`score`](Self::score) when [`exact`](Self::exact), otherwise the
    /// largest bound left on the frontier.
    pub upper_bound: f64,
    /// Whether the search ran to the optimality proof. When `true`, the
    /// preview is bitwise identical to the brute-force result; when `false`,
    /// the budget expired and the incumbent may be sub-optimal by at most
    /// [`optimality_gap`](Self::optimality_gap).
    pub exact: bool,
    /// Node-level statistics of the run.
    pub stats: SearchStats,
}

impl AnytimeOutcome {
    /// How far the incumbent may be from optimal: `upper_bound − score`,
    /// clamped at zero. `0.0` means the incumbent is provably optimal (the
    /// bound's float-safety inflation can leave a tiny positive gap even on
    /// proofs closed by equality, so exactness is reported by
    /// [`exact`](Self::exact), not by a zero gap).
    pub fn optimality_gap(&self) -> f64 {
        (self.upper_bound - self.score).max(0.0)
    }
}

/// The search frontier. A node is a feasible prefix of eligible-type
/// indices, its admissible bound and its feasible extension set as a bitset
/// (see [`super::bound`]). Every queued node lives in flat arrays indexed by
/// its slot, so queueing a node allocates nothing once the arrays have grown,
/// and an expanded node's slot is reused. `heap` is a binary max-heap of
/// slots under [`before`](Self::before).
struct Frontier {
    /// Prefix capacity per slot: `k`.
    depth: usize,
    /// `u64` words per feasible set.
    words: usize,
    bounds: Vec<f64>,
    lens: Vec<usize>,
    prefixes: Vec<u32>,
    sets: Vec<u64>,
    free: Vec<usize>,
    heap: Vec<usize>,
}

impl Frontier {
    fn new(depth: usize, words: usize) -> Self {
        Self {
            depth,
            words,
            bounds: Vec::new(),
            lens: Vec::new(),
            prefixes: Vec::new(),
            sets: Vec::new(),
            free: Vec::new(),
            heap: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn bound(&self, node: usize) -> f64 {
        self.bounds[node]
    }

    fn prefix(&self, node: usize) -> &[u32] {
        let at = node * self.depth;
        &self.prefixes[at..at + self.lens[node]]
    }

    fn set(&self, node: usize) -> &[u64] {
        let at = node * self.words;
        &self.sets[at..at + self.words]
    }

    /// Max-heap priority: larger bound first; at equal bounds the
    /// lexicographically smaller prefix first, so the eventual winner (the
    /// lex-first max scorer) is established as early as possible. Queued
    /// prefixes are distinct, so this is a strict total order and the pop
    /// sequence does not depend on the heap's layout.
    fn before(&self, a: usize, b: usize) -> bool {
        match self.bounds[a]
            .partial_cmp(&self.bounds[b])
            .expect("bounds must not be NaN")
        {
            Ordering::Equal => self.prefix(a) < self.prefix(b),
            order => order == Ordering::Greater,
        }
    }

    /// Queues a node, copying its prefix and set into a free slot.
    fn push(&mut self, bound: f64, prefix: &[u32], set: &[u64]) {
        let node = self.free.pop().unwrap_or_else(|| {
            self.bounds.push(0.0);
            self.lens.push(0);
            self.prefixes.resize(self.prefixes.len() + self.depth, 0);
            self.sets.resize(self.sets.len() + self.words, 0);
            self.bounds.len() - 1
        });
        self.bounds[node] = bound;
        self.lens[node] = prefix.len();
        let at = node * self.depth;
        self.prefixes[at..at + prefix.len()].copy_from_slice(prefix);
        let at = node * self.words;
        self.sets[at..at + self.words].copy_from_slice(set);
        let mut pos = self.heap.len();
        self.heap.push(node);
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if !self.before(self.heap[pos], self.heap[parent]) {
                break;
            }
            self.heap.swap(pos, parent);
            pos = parent;
        }
    }

    /// Removes the first node in heap order. Its slot stays readable until
    /// [`release`](Self::release).
    fn pop(&mut self) -> Option<usize> {
        let last = self.heap.len().checked_sub(1)?;
        self.heap.swap(0, last);
        let top = self.heap.pop();
        let mut pos = 0;
        loop {
            let mut first = pos;
            for child in [2 * pos + 1, 2 * pos + 2] {
                if child < self.heap.len() && self.before(self.heap[child], self.heap[first]) {
                    first = child;
                }
            }
            if first == pos {
                break;
            }
            self.heap.swap(pos, first);
            pos = first;
        }
        top
    }

    /// Frees a popped node's slot for reuse.
    fn release(&mut self, node: usize) {
        self.free.push(node);
    }
}

/// Best incumbent so far: its score and index subset (needed for the
/// lexicographic tie-break). Only the final incumbent's preview is built.
struct Incumbent {
    score: f64,
    subset: Vec<u32>,
}

/// Whether the subtree rooted at `prefix` can contain a complete subset
/// lexicographically smaller than `incumbent` — if not, an equal-bound
/// subtree cannot displace the incumbent under the tie-break and is safe to
/// prune.
///
/// Every subset in the subtree starts with `prefix`, so compare element-wise:
/// the first position where the incumbent is smaller puts the whole subtree
/// lexicographically after it; the first position where the incumbent is
/// larger puts the whole subtree before it. When `prefix` is a prefix of the
/// incumbent subset the subtree contains the incumbent itself along with
/// lexicographically earlier completions, so it must be kept.
fn may_contain_lex_smaller(prefix: &[u32], incumbent: &[u32]) -> bool {
    for (p, i) in prefix.iter().zip(incumbent) {
        if i < p {
            return false;
        }
        if i > p {
            return true;
        }
    }
    true
}

/// The best-first search loop. See the module docs for the invariants; in
/// short, the heap is ordered by the admissible bound, so the first pop whose
/// bound cannot beat the incumbent proves the incumbent optimal.
fn search(scored: &ScoredSchema, space: &PreviewSpace, budget: AnytimeBudget) -> AnytimeOutcome {
    let size = space.size();
    let mut stats = SearchStats::default();
    if space_is_empty(scored, size) {
        return AnytimeOutcome {
            preview: None,
            score: 0.0,
            upper_bound: 0.0,
            exact: true,
            stats,
        };
    }
    // lint: allow(wall-clock, anytime budget epoch; result content stays deterministic, only the stop point varies)
    let start = Instant::now();
    let ctx = BoundContext::new(scored, space);
    let views = ctx.views();
    let k = size.tables;
    let mut scratch: Vec<f64> = Vec::new();
    // The expanded node's prefix and set, and the child set being bounded.
    let mut prefix: Vec<u32> = Vec::with_capacity(k);
    let mut set = ctx.root_set();
    let mut child = set.clone();
    let mut frontier = Frontier::new(k, set.len());
    if let Some(root_bound) = ctx.bound(&prefix, &set, &mut scratch) {
        frontier.push(root_bound, &prefix, &set);
    }

    let mut incumbent: Option<Incumbent> = None;
    let mut walk = PrefixWalk::new(k, size.non_keys - k);
    // The bound of the node the budget stopped at, the largest left.
    let mut truncated: Option<f64> = None;
    while let Some(node) = frontier.pop() {
        let bound = frontier.bound(node);
        if let Some(inc) = &incumbent {
            if bound < inc.score {
                // The heap is bound-ordered: nothing left can beat the
                // incumbent, so the whole frontier is pruned and the
                // incumbent is optimal.
                stats.bound_cutoffs += 1 + frontier.len() as u64;
                stats.nodes_pruned += 1 + frontier.len() as u64;
                break;
            }
            if bound == inc.score && !may_contain_lex_smaller(frontier.prefix(node), &inc.subset) {
                // An exactly-tying subtree can only displace the incumbent
                // with a lexicographically smaller subset; this one cannot
                // contain any.
                stats.bound_cutoffs += 1;
                stats.nodes_pruned += 1;
                frontier.release(node);
                continue;
            }
        }
        if budget.exhausted(stats.nodes_expanded, start) {
            // The popped node holds the tightest remaining bound, for the
            // optimality-gap report.
            truncated = Some(bound);
            break;
        }
        stats.nodes_expanded += 1;
        prefix.clear();
        prefix.extend_from_slice(frontier.prefix(node));
        set.copy_from_slice(frontier.set(node));
        frontier.release(node);
        if prefix.len() + 1 == k {
            // Children are complete subsets: score them now instead of
            // re-queueing (their bound equals their score up to rounding).
            // They share the node's prefix, so the walk takes it once.
            let walked = prefix
                .iter()
                .enumerate()
                .all(|(pos, &i)| walk.push(pos, views[i as usize]));
            for j in set_members(&set) {
                prefix.push(j);
                stats.subsets_evaluated += 1;
                let score = walked.then(|| walk.score_last(k - 1, views[j as usize]));
                if let Some(score) = score.flatten() {
                    match &mut incumbent {
                        None => {
                            incumbent = Some(Incumbent {
                                score,
                                subset: prefix.clone(),
                            })
                        }
                        Some(inc) if replaces_incumbent(score, &prefix, inc.score, &inc.subset) => {
                            inc.score = score;
                            inc.subset.clone_from(&prefix);
                        }
                        Some(_) => {}
                    }
                }
                prefix.pop();
            }
        } else {
            for j in set_members(&set) {
                ctx.child_set(&set, j, &mut child);
                prefix.push(j);
                match ctx.bound(&prefix, &child, &mut scratch) {
                    None => stats.nodes_pruned += 1,
                    Some(bound) => {
                        let cut = incumbent.as_ref().is_some_and(|inc| {
                            bound < inc.score
                                || (bound == inc.score
                                    && !may_contain_lex_smaller(&prefix, &inc.subset))
                        });
                        if cut {
                            stats.bound_cutoffs += 1;
                            stats.nodes_pruned += 1;
                        } else {
                            frontier.push(bound, &prefix, &child);
                        }
                    }
                }
                prefix.pop();
            }
        }
    }

    let score = incumbent.as_ref().map_or(0.0, |inc| inc.score);
    let upper_bound = truncated.map_or(score, |bound| bound.max(score));
    AnytimeOutcome {
        preview: incumbent
            .and_then(|inc| preview_at(scored, inc.subset.iter().map(|&i| i as usize), size)),
        score,
        upper_bound,
        exact: truncated.is_none(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::BruteForceDiscovery;
    use crate::constraint::SizeConstraint;
    use crate::scoring::{KeyScoring, NonKeyScoring, ScoringConfig};
    use entity_graph::fixtures::{self, types};

    fn scored(config: ScoringConfig) -> ScoredSchema {
        ScoredSchema::build(&fixtures::figure1_graph(), &config).unwrap()
    }

    #[test]
    fn finds_concise_running_example() {
        let s = scored(ScoringConfig::coverage());
        let space = PreviewSpace::concise(2, 6).unwrap();
        let preview = BestFirstDiscovery::new().discover(&s, &space).unwrap();
        let preview = preview.unwrap();
        assert!((s.preview_score(&preview) - 84.0).abs() < 1e-9);
        let names: Vec<&str> = preview
            .tables()
            .iter()
            .map(|t| s.schema().type_name(t.key()))
            .collect();
        assert_eq!(names, vec![types::FILM, types::FILM_ACTOR]);
    }

    #[test]
    fn matches_brute_force_bitwise_across_spaces() {
        for config in [
            ScoringConfig::coverage(),
            ScoringConfig::new(KeyScoring::RandomWalk, NonKeyScoring::Entropy),
        ] {
            let s = scored(config);
            for k in 1..=4 {
                for n in k..=k + 3 {
                    let mut spaces = vec![PreviewSpace::concise(k, n).unwrap()];
                    for d in 1..=4 {
                        spaces.push(PreviewSpace::tight(k, n, d).unwrap());
                        spaces.push(PreviewSpace::diverse(k, n, d).unwrap());
                    }
                    for space in spaces {
                        let bf = BruteForceDiscovery::new().discover(&s, &space).unwrap();
                        let best = BestFirstDiscovery::new().discover(&s, &space).unwrap();
                        match (bf, best) {
                            (None, None) => {}
                            (Some(a), Some(b)) => {
                                assert_eq!(a, b, "previews diverge in {space:?}");
                                assert_eq!(
                                    s.preview_score(&a).to_bits(),
                                    s.preview_score(&b).to_bits()
                                );
                            }
                            (a, b) => panic!("feasibility diverges in {space:?}: {a:?} vs {b:?}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn prunes_against_enumeration() {
        let s = scored(ScoringConfig::coverage());
        let space = PreviewSpace::concise(3, 8).unwrap();
        let outcome = BestFirstDiscovery::new()
            .discover_anytime(&s, &space, AnytimeBudget::UNLIMITED)
            .unwrap();
        assert!(outcome.exact);
        let enumerated = crate::algo::brute_force_subset_count(s.eligible_types().len(), 3);
        assert!(
            u128::from(outcome.stats.subsets_evaluated) < enumerated,
            "evaluated {} of {enumerated} subsets",
            outcome.stats.subsets_evaluated
        );
        assert!(outcome.stats.nodes_pruned > 0);
    }

    #[test]
    fn degenerate_spaces_are_empty() {
        let s = scored(ScoringConfig::coverage());
        let algo = BestFirstDiscovery::new();
        // k == 0 and n < k, reachable via the public constraint fields.
        for size in [
            SizeConstraint {
                tables: 0,
                non_keys: 0,
            },
            SizeConstraint {
                tables: 3,
                non_keys: 2,
            },
        ] {
            let space = PreviewSpace::Concise(size);
            assert!(algo.discover(&s, &space).unwrap().is_none());
        }
        // More tables than eligible types.
        let space = PreviewSpace::concise(100, 200).unwrap();
        assert!(algo.discover(&s, &space).unwrap().is_none());
        let outcome = algo
            .discover_anytime(&s, &space, AnytimeBudget::UNLIMITED)
            .unwrap();
        assert!(outcome.exact && outcome.preview.is_none());
        assert_eq!(outcome.optimality_gap(), 0.0);
    }

    #[test]
    fn infeasible_distance_returns_none() {
        let s = scored(ScoringConfig::coverage());
        // No two types in the running example are 9+ apart.
        let space = PreviewSpace::diverse(2, 6, 9).unwrap();
        assert!(BestFirstDiscovery::new()
            .discover(&s, &space)
            .unwrap()
            .is_none());
    }

    #[test]
    fn zero_node_budget_reports_root_bound() {
        let s = scored(ScoringConfig::coverage());
        let space = PreviewSpace::concise(2, 6).unwrap();
        let outcome = BestFirstDiscovery::new()
            .discover_anytime(&s, &space, AnytimeBudget::nodes(0))
            .unwrap();
        assert!(!outcome.exact);
        assert!(outcome.preview.is_none());
        assert_eq!(outcome.score, 0.0);
        assert!(outcome.upper_bound >= 84.0);
        assert!(outcome.optimality_gap() >= 84.0);
    }

    #[test]
    fn node_budget_is_monotone_and_converges() {
        let s = scored(ScoringConfig::new(
            KeyScoring::Coverage,
            NonKeyScoring::Entropy,
        ));
        let space = PreviewSpace::diverse(3, 8, 2).unwrap();
        let exact = BestFirstDiscovery::new()
            .discover_anytime(&s, &space, AnytimeBudget::UNLIMITED)
            .unwrap();
        assert!(exact.exact);
        let mut last_score = -1.0;
        for nodes in [1, 2, 4, 8, 1 << 20] {
            let out = BestFirstDiscovery::new()
                .discover_anytime(&s, &space, AnytimeBudget::nodes(nodes))
                .unwrap();
            let score = out.score;
            assert!(
                score >= last_score,
                "incumbent regressed at budget {nodes}: {score} < {last_score}"
            );
            assert!(out.upper_bound >= score);
            assert!(out.upper_bound * (1.0 + 1e-6) >= exact.score);
            last_score = score;
        }
        // A generous budget reaches the proof and the exact result.
        let big = BestFirstDiscovery::new()
            .discover_anytime(&s, &space, AnytimeBudget::nodes(1 << 20))
            .unwrap();
        assert!(big.exact);
        assert_eq!(big.preview, exact.preview);
        assert_eq!(big.score.to_bits(), exact.score.to_bits());
    }

    #[test]
    fn thread_budget_is_ignored_but_identical() {
        let s = scored(ScoringConfig::coverage());
        let space = PreviewSpace::diverse(2, 6, 2).unwrap();
        let algo = BestFirstDiscovery::new();
        let sequential = algo.discover_with_threads(&s, &space, 1).unwrap();
        let parallel = algo.discover_with_threads(&s, &space, 4).unwrap();
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn lex_subtree_probe() {
        assert!(may_contain_lex_smaller(&[0], &[1, 2, 3]));
        assert!(!may_contain_lex_smaller(&[2], &[1, 2, 3]));
        assert!(may_contain_lex_smaller(&[1, 2], &[1, 2, 3]));
        assert!(may_contain_lex_smaller(&[], &[1, 2, 3]));
        assert!(!may_contain_lex_smaller(&[1, 3], &[1, 2, 3]));
    }
}
