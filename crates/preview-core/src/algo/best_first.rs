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
//! The same machinery powers an **anytime** mode:
//! [`discover_anytime`](BestFirstDiscovery::discover_anytime) accepts an
//! [`AnytimeBudget`] and, when the budget expires before the proof closes,
//! returns the best incumbent found so far together with the tightest known
//! upper bound on the optimum — so callers get a usable preview immediately
//! plus an [`optimality_gap`](AnytimeOutcome::optimality_gap) quantifying
//! what a longer search could still gain.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

use preview_obs::{Counter, Stage};

use super::bound::BoundContext;
use super::common::{preview_at, replaces_incumbent, space_is_empty, walk_subset};
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

    /// The search is inherently sequential — every expansion decision depends
    /// on the incumbent produced by earlier ones — so the thread budget is
    /// accepted for interface parity and ignored: the result is trivially
    /// byte-identical across all `threads` values. The speedup over
    /// enumeration comes from bound pruning, not cores.
    fn discover_with_threads(
        &self,
        scored: &ScoredSchema,
        space: &PreviewSpace,
        _threads: usize,
    ) -> Result<Option<Preview>> {
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

/// A frontier node: a feasible prefix of eligible-type indices plus its
/// admissible bound and feasible extension set.
#[derive(Debug)]
struct Node {
    bound: f64,
    prefix: Vec<u32>,
    feasible: Vec<u32>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Node {}

impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Node {
    /// Max-heap priority: larger bound first; at equal bounds the
    /// lexicographically smaller prefix first, so the eventual winner (the
    /// lex-first max scorer) is established as early as possible.
    fn cmp(&self, other: &Self) -> Ordering {
        self.bound
            .partial_cmp(&other.bound)
            .expect("bounds must not be NaN")
            .then_with(|| other.prefix.cmp(&self.prefix))
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
    let extras = size.non_keys - k;
    let mut scratch: Vec<f64> = Vec::new();
    let mut heap: BinaryHeap<Node> = BinaryHeap::new();
    let all: Vec<u32> = (0..views.len() as u32).collect();
    if let Some(root_bound) = ctx.upper_bound_with(&[], &all, &mut scratch) {
        heap.push(Node {
            bound: root_bound,
            prefix: Vec::new(),
            feasible: all,
        });
    }

    let mut incumbent: Option<Incumbent> = None;
    let mut leaf: Vec<u32> = Vec::with_capacity(k);
    let mut taken = Vec::with_capacity(k);
    let mut truncated = false;
    while let Some(node) = heap.pop() {
        if let Some(inc) = &incumbent {
            if node.bound < inc.score {
                // The heap is bound-ordered: nothing left can beat the
                // incumbent, so the whole frontier is pruned and the
                // incumbent is optimal.
                stats.bound_cutoffs += 1 + heap.len() as u64;
                stats.nodes_pruned += 1 + heap.len() as u64;
                heap.clear();
                break;
            }
            if node.bound == inc.score && !may_contain_lex_smaller(&node.prefix, &inc.subset) {
                // An exactly-tying subtree can only displace the incumbent
                // with a lexicographically smaller subset; this one cannot
                // contain any.
                stats.bound_cutoffs += 1;
                stats.nodes_pruned += 1;
                continue;
            }
        }
        if budget.exhausted(stats.nodes_expanded, start) {
            // Re-file the popped node so the frontier retains the tightest
            // remaining bound for the optimality-gap report.
            heap.push(node);
            truncated = true;
            break;
        }
        stats.nodes_expanded += 1;
        if node.prefix.len() + 1 == k {
            // Children are complete subsets: score them now instead of
            // re-queueing (their bound equals their score up to rounding).
            for &j in &node.feasible {
                leaf.clear();
                leaf.extend_from_slice(&node.prefix);
                leaf.push(j);
                stats.subsets_evaluated += 1;
                let table = |pos: usize| views[leaf[pos] as usize];
                let Some(score) = walk_subset(k, table, extras, &mut taken) else {
                    continue;
                };
                let replaces = incumbent
                    .as_ref()
                    .is_none_or(|inc| replaces_incumbent(score, &leaf, inc.score, &inc.subset));
                if replaces {
                    incumbent = Some(Incumbent {
                        score,
                        subset: leaf.clone(),
                    });
                }
            }
        } else {
            for (pos, &j) in node.feasible.iter().enumerate() {
                let mut child_prefix = Vec::with_capacity(node.prefix.len() + 1);
                child_prefix.extend_from_slice(&node.prefix);
                child_prefix.push(j);
                let child_feasible: Vec<u32> = node.feasible[pos + 1..]
                    .iter()
                    .copied()
                    .filter(|&r| ctx.pair_ok(j, r))
                    .collect();
                match ctx.upper_bound_with(&child_prefix, &child_feasible, &mut scratch) {
                    None => stats.nodes_pruned += 1,
                    Some(bound) => {
                        let cut = incumbent.as_ref().is_some_and(|inc| {
                            bound < inc.score
                                || (bound == inc.score
                                    && !may_contain_lex_smaller(&child_prefix, &inc.subset))
                        });
                        if cut {
                            stats.bound_cutoffs += 1;
                            stats.nodes_pruned += 1;
                        } else {
                            heap.push(Node {
                                bound,
                                prefix: child_prefix,
                                feasible: child_feasible,
                            });
                        }
                    }
                }
            }
        }
    }

    let score = incumbent.as_ref().map_or(0.0, |inc| inc.score);
    let upper_bound = if truncated {
        heap.peek().map_or(score, |node| node.bound.max(score))
    } else {
        score
    };
    AnytimeOutcome {
        preview: incumbent
            .and_then(|inc| preview_at(scored, inc.subset.iter().map(|&i| i as usize), size)),
        score,
        upper_bound,
        exact: !truncated,
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
