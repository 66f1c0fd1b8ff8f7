//! Scoring configuration and the pre-computed [`ScoredSchema`].

use std::collections::HashMap;
use std::sync::OnceLock;

use entity_graph::{
    DeltaSummary, Direction, DistanceMatrix, EntityGraph, RelTypeId, SchemaGraph, TypeId,
};
use serde::{Deserialize, Serialize};

use crate::algo::bound::{BoundIndex, PairRows};
use crate::candidates::{self, Candidate};
use crate::constraint::DistanceConstraint;
use crate::error::Result;
use crate::preview::{Preview, PreviewTable};
use crate::scoring::key::{self, RandomWalkConfig};
use crate::scoring::nonkey;

/// Which key-attribute scoring measure to use (Sec. 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KeyScoring {
    /// `Scov(τ)`: number of entities of type `τ`.
    Coverage,
    /// `Swalk(τ)`: stationary probability of a random walk over the weighted,
    /// undirected schema graph.
    RandomWalk,
}

impl KeyScoring {
    /// Short label used in experiment output (matches the paper's tables).
    pub fn label(self) -> &'static str {
        match self {
            KeyScoring::Coverage => "Coverage",
            KeyScoring::RandomWalk => "Random Walk",
        }
    }
}

/// Which non-key attribute scoring measure to use (Sec. 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NonKeyScoring {
    /// `Sτcov(γ)`: number of edges of relationship type `γ`.
    Coverage,
    /// `Sτent(γ)`: entropy of the attribute's value distribution.
    Entropy,
}

impl NonKeyScoring {
    /// Short label used in experiment output (matches the paper's tables).
    pub fn label(self) -> &'static str {
        match self {
            NonKeyScoring::Coverage => "Coverage",
            NonKeyScoring::Entropy => "Entropy",
        }
    }
}

/// Complete scoring configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScoringConfig {
    /// Key-attribute measure.
    pub key: KeyScoring,
    /// Non-key attribute measure.
    pub non_key: NonKeyScoring,
    /// Parameters of the random-walk measure (ignored for coverage).
    pub random_walk: RandomWalkConfig,
    /// Accepted and ignored: scoring and discovery run sequentially. Kept so
    /// existing callers and serialized configs still work; it is *not* part
    /// of result-cache or memoization keys.
    ///
    /// Configs serialized before this field existed deserialize to `1`.
    #[serde(default = "default_threads")]
    pub threads: usize,
}

/// Serde default for [`ScoringConfig::threads`]: `1`. The vendored
/// serde stand-in ignores field attributes (hence the `dead_code` allow);
/// the real `serde_derive` calls this when the field is absent.
#[allow(dead_code)]
fn default_threads() -> usize {
    1
}

impl Default for ScoringConfig {
    fn default() -> Self {
        Self {
            key: KeyScoring::Coverage,
            non_key: NonKeyScoring::Coverage,
            random_walk: RandomWalkConfig::default(),
            threads: 1,
        }
    }
}

impl ScoringConfig {
    /// Coverage/Coverage configuration (the paper's default running example).
    pub fn coverage() -> Self {
        Self::default()
    }

    /// Convenience constructor.
    pub fn new(key: KeyScoring, non_key: NonKeyScoring) -> Self {
        Self {
            key,
            non_key,
            random_walk: RandomWalkConfig::default(),
            threads: 1,
        }
    }

    /// Sets [`ScoringConfig::threads`], which is ignored.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Pre-computed scores over a schema graph: everything the discovery
/// algorithms need (Sec. 5 assumes schema graph and scores are computed before
/// discovery and reused across constraint settings).
#[derive(Debug, Clone)]
pub struct ScoredSchema {
    schema: SchemaGraph,
    distances: DistanceMatrix,
    config: ScoringConfig,
    key_scores: Vec<f64>,
    nonkey_outgoing: Vec<f64>,
    nonkey_incoming: Vec<f64>,
    candidates: Vec<Vec<Candidate>>,
    prefix_sums: Vec<Vec<f64>>,
    eligible: Vec<TypeId>,
    /// Best-first's bound index and every engine's pair rows, built by the
    /// first discovery call that needs them rather than on the publish path.
    bound_index: OnceLock<BoundIndex>,
}

impl ScoredSchema {
    /// Derives the schema graph from `graph` and pre-computes key scores,
    /// non-key scores, sorted candidate lists, prefix sums and the all-pairs
    /// distance matrix.
    pub fn build(graph: &EntityGraph, config: &ScoringConfig) -> Result<Self> {
        let schema = graph.schema_graph().clone();
        Self::build_with_schema(graph, schema, config)
    }

    /// Like [`build`](Self::build) but reads entity-population scores from
    /// **sharded** storage: entropy non-key scores run through the
    /// cross-shard aggregation in [`crate::sharded`] (bitwise identical to
    /// the unsharded scorer — the serving layer relies on this to register
    /// sharded graphs transparently); everything else is schema-sized and
    /// reads the logical graph.
    ///
    /// # Errors
    ///
    /// Exactly those of [`build`](Self::build).
    pub fn build_sharded(
        sharded: &entity_graph::ShardedGraph,
        config: &ScoringConfig,
    ) -> Result<Self> {
        let schema = sharded.graph().schema_graph().clone();
        let key_scores = match config.key {
            KeyScoring::Coverage => key::coverage_scores(&schema),
            KeyScoring::RandomWalk => key::random_walk_scores(&schema, &config.random_walk)?,
        };
        let (nonkey_outgoing, nonkey_incoming) = match config.non_key {
            NonKeyScoring::Coverage => {
                let cov = nonkey::coverage_scores(&schema);
                (cov.clone(), cov)
            }
            NonKeyScoring::Entropy => {
                let _span = preview_obs::enter_with(
                    preview_obs::Stage::EntropyScoring,
                    schema.edges().len() as u64,
                );
                crate::sharded::sharded_entropy_scores(sharded, &schema)
            }
        };
        let _span = preview_obs::enter_with(
            preview_obs::Stage::CandidateGen,
            schema.edges().len() as u64,
        );
        let candidates = candidates::candidate_lists(&schema, &nonkey_outgoing, &nonkey_incoming);
        let prefix_sums = candidates::prefix_sums(&candidates);
        let eligible = candidates::eligible_types(&candidates);
        let distances = schema.distance_matrix();
        Ok(Self {
            schema,
            distances,
            config: *config,
            key_scores,
            nonkey_outgoing,
            nonkey_incoming,
            candidates,
            prefix_sums,
            eligible,
            bound_index: OnceLock::new(),
        })
    }

    /// Like [`build`](Self::build) but reuses an already-derived schema graph.
    pub fn build_with_schema(
        graph: &EntityGraph,
        schema: SchemaGraph,
        config: &ScoringConfig,
    ) -> Result<Self> {
        let key_scores = match config.key {
            KeyScoring::Coverage => key::coverage_scores(&schema),
            KeyScoring::RandomWalk => key::random_walk_scores(&schema, &config.random_walk)?,
        };
        let (nonkey_outgoing, nonkey_incoming) = match config.non_key {
            NonKeyScoring::Coverage => {
                let cov = nonkey::coverage_scores(&schema);
                (cov.clone(), cov)
            }
            NonKeyScoring::Entropy => {
                let _span = preview_obs::enter_with(
                    preview_obs::Stage::EntropyScoring,
                    schema.edges().len() as u64,
                );
                nonkey::entropy_scores(graph, &schema)
            }
        };
        let _span = preview_obs::enter_with(
            preview_obs::Stage::CandidateGen,
            schema.edges().len() as u64,
        );
        let candidates = candidates::candidate_lists(&schema, &nonkey_outgoing, &nonkey_incoming);
        let prefix_sums = candidates::prefix_sums(&candidates);
        let eligible = candidates::eligible_types(&candidates);
        let distances = schema.distance_matrix();
        Ok(Self {
            schema,
            distances,
            config: *config,
            key_scores,
            nonkey_outgoing,
            nonkey_incoming,
            candidates,
            prefix_sums,
            eligible,
            bound_index: OnceLock::new(),
        })
    }

    /// Re-scores after a graph delta, recomputing only what the delta
    /// touched and reusing every untouched score **bitwise**.
    ///
    /// `graph` must be the new version produced by
    /// [`EntityGraph::apply_delta`] and `summary` the [`DeltaSummary`] that
    /// came with it. The result is guaranteed bit-identical to a full
    /// [`ScoredSchema::build`] on the new graph (the determinism guard and
    /// `update-bench` enforce this), but the expensive part — entropy
    /// scoring, which walks the entity population of every candidate
    /// attribute — runs only for schema edges whose relationship type is in
    /// [`DeltaSummary::touched_rels`]:
    ///
    /// * **entropy non-key scores**: an untouched relationship type has a
    ///   bit-identical value distribution in the new version (edits to other
    ///   rel types cannot change which neighbor sets its tuples hold, and
    ///   entity additions/removals without incident edges of the type only
    ///   add/remove empty-valued tuples, which the measure excludes), so its
    ///   two orientation scores are copied from this instance verbatim;
    /// * **coverage scores** (key and non-key) are plain counts read off the
    ///   new schema graph — recomputing them is already cheaper than
    ///   tracking them incrementally;
    /// * **random-walk key scores** are a global stationary distribution:
    ///   any edit can shift every component, so they are recomputed in full
    ///   (still schema-sized, not entity-sized);
    /// * candidate lists, prefix sums, eligibility and the distance matrix
    ///   are schema-sized derivations and are rebuilt from the (possibly
    ///   reused) scores; the bound index starts empty, and the first
    ///   discovery call on the new version builds it.
    ///
    /// # Errors
    ///
    /// Propagates random-walk convergence failures, exactly like
    /// [`build`](Self::build).
    pub fn rescore_delta(&self, graph: &EntityGraph, summary: &DeltaSummary) -> Result<Self> {
        let _span = preview_obs::span!(
            preview_obs::Stage::Rescore,
            touched_rels = summary.touched_rels.len()
        );
        let schema = graph.schema_graph().clone();
        let key_scores = match self.config.key {
            KeyScoring::Coverage => key::coverage_scores(&schema),
            KeyScoring::RandomWalk => key::random_walk_scores(&schema, &self.config.random_walk)?,
        };
        let (nonkey_outgoing, nonkey_incoming) = match self.config.non_key {
            NonKeyScoring::Coverage => {
                let cov = nonkey::coverage_scores(&schema);
                (cov.clone(), cov)
            }
            NonKeyScoring::Entropy => {
                // Schema-edge positions shift when rel types gain their
                // first or lose their last edge; reuse is keyed by the
                // stable relationship-type id instead.
                let old_slot: HashMap<RelTypeId, usize> = self
                    .schema
                    .edges()
                    .iter()
                    .enumerate()
                    .map(|(slot, edge)| (edge.rel, slot))
                    .collect();
                let mut outgoing = Vec::with_capacity(schema.edges().len());
                let mut incoming = Vec::with_capacity(schema.edges().len());
                for edge in schema.edges() {
                    let reusable = (!summary.rel_touched(edge.rel))
                        .then(|| old_slot.get(&edge.rel))
                        .flatten();
                    match reusable {
                        Some(&slot) => {
                            outgoing.push(self.nonkey_outgoing[slot]);
                            incoming.push(self.nonkey_incoming[slot]);
                        }
                        None => {
                            let (out, inc) = nonkey::entropy_scores_for_edge(graph, &schema, edge);
                            outgoing.push(out);
                            incoming.push(inc);
                        }
                    }
                }
                (outgoing, incoming)
            }
        };
        let candidates = candidates::candidate_lists(&schema, &nonkey_outgoing, &nonkey_incoming);
        let prefix_sums = candidates::prefix_sums(&candidates);
        let eligible = candidates::eligible_types(&candidates);
        let distances = schema.distance_matrix();
        Ok(Self {
            schema,
            distances,
            config: self.config,
            key_scores,
            nonkey_outgoing,
            nonkey_incoming,
            candidates,
            prefix_sums,
            eligible,
            bound_index: OnceLock::new(),
        })
    }

    /// Whether `other` would drive every discovery algorithm to the same
    /// result as `self`, bit for bit.
    ///
    /// True iff the schema shape (type count and the relationship-type
    /// sequence of the edge list — type and rel ids are stable across
    /// deltas) and all score vectors match bitwise. Discovery reads nothing
    /// else: candidate lists, prefix sums, eligibility, distances and the
    /// bound index with its pair rows are pure functions of shape + scores,
    /// so the comparison skips the index. The serving layer uses this to
    /// prove cached previews unaffected by a published delta and carry them
    /// forward across the version bump.
    pub fn scores_identical(&self, other: &Self) -> bool {
        fn bits(v: &[f64]) -> impl Iterator<Item = u64> + '_ {
            v.iter().map(|f| f.to_bits())
        }
        self.schema.type_count() == other.schema.type_count()
            && self.schema.edges().len() == other.schema.edges().len()
            && self
                .schema
                .edges()
                .iter()
                .zip(other.schema.edges())
                .all(|(a, b)| a.rel == b.rel && a.src == b.src && a.dst == b.dst)
            && bits(&self.key_scores).eq(bits(&other.key_scores))
            && bits(&self.nonkey_outgoing).eq(bits(&other.nonkey_outgoing))
            && bits(&self.nonkey_incoming).eq(bits(&other.nonkey_incoming))
    }

    /// The underlying schema graph.
    pub fn schema(&self) -> &SchemaGraph {
        &self.schema
    }

    /// The all-pairs undirected distance matrix over entity types.
    pub fn distances(&self) -> &DistanceMatrix {
        &self.distances
    }

    /// The scoring configuration used to build this instance.
    pub fn config(&self) -> &ScoringConfig {
        &self.config
    }

    /// The key-attribute score `S(τ)`.
    pub fn key_score(&self, ty: TypeId) -> f64 {
        self.key_scores[ty.index()]
    }

    /// All key-attribute scores, indexed by [`TypeId`].
    pub fn key_scores(&self) -> &[f64] {
        &self.key_scores
    }

    /// Entity types ranked by descending key score (ties broken by type id),
    /// as used in the scoring-accuracy experiments (Figs. 5–7).
    pub fn ranked_key_attributes(&self) -> Vec<TypeId> {
        let mut order: Vec<TypeId> = self.schema.types().collect();
        order.sort_by(|a, b| {
            self.key_scores[b.index()]
                .partial_cmp(&self.key_scores[a.index()])
                .expect("key scores must not be NaN")
                .then_with(|| a.cmp(b))
        });
        order
    }

    /// The non-key attribute score `Sτ(γ)` of a schema edge in the given
    /// orientation (outgoing = the key attribute is the edge's source type).
    pub fn non_key_score(&self, edge: usize, direction: Direction) -> f64 {
        match direction {
            Direction::Outgoing => self.nonkey_outgoing[edge],
            Direction::Incoming => self.nonkey_incoming[edge],
        }
    }

    /// The candidate non-key attributes of type `ty`, sorted by descending
    /// score (Theorem 3).
    pub fn candidates(&self, ty: TypeId) -> &[Candidate] {
        &self.candidates[ty.index()]
    }

    /// Sum of the top-`m` candidate non-key scores of type `ty`
    /// (`m` is clamped to the number of candidates).
    pub fn top_m_score_sum(&self, ty: TypeId, m: usize) -> f64 {
        let sums = &self.prefix_sums[ty.index()];
        let m = m.min(sums.len() - 1);
        sums[m]
    }

    /// Entity types eligible to be key attributes (at least one candidate).
    pub fn eligible_types(&self) -> &[TypeId] {
        &self.eligible
    }

    /// The largest single-slot contribution of a table keyed on `ty`:
    /// `S(τ) × Sτ(γ₁)` for its best candidate, or `0.0` when `ty` has no
    /// candidates. The bound index of
    /// [`BestFirstDiscovery`](crate::algo::BestFirstDiscovery) keeps it per
    /// eligible type.
    pub fn weighted_top_score(&self, ty: TypeId) -> f64 {
        self.candidates(ty)
            .first()
            .map_or(0.0, |c| self.key_score(ty) * c.score)
    }

    /// The bound index of best-first search ([`crate::algo::bound`]),
    /// built on first use.
    pub(crate) fn bound_index(&self) -> &BoundIndex {
        self.bound_index.get_or_init(|| BoundIndex::build(self))
    }

    /// Which pairs of eligible types may share a preview under
    /// `constraint` (every pair for `None`), built on first use.
    pub(crate) fn pair_rows(&self, constraint: Option<DistanceConstraint>) -> &PairRows {
        self.bound_index().pair_rows(self, constraint)
    }

    /// The score of a preview table (Eq. 2): `S(τ) × Σ_{γ} Sτ(γ)`.
    pub fn table_score(&self, table: &PreviewTable) -> f64 {
        let non_key_sum: f64 = table
            .non_keys()
            .iter()
            .map(|a| self.non_key_score(a.edge, a.direction))
            .sum();
        self.key_score(table.key()) * non_key_sum
    }

    /// The score of a preview (Eq. 1): the sum of its tables' scores.
    pub fn preview_score(&self, preview: &Preview) -> f64 {
        preview.tables().iter().map(|t| self.table_score(t)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preview::NonKeyAttr;
    use entity_graph::fixtures::{self, types};

    fn scored(config: ScoringConfig) -> ScoredSchema {
        let g = fixtures::figure1_graph();
        ScoredSchema::build(&g, &config).unwrap()
    }

    #[test]
    fn coverage_key_scores_match_entity_counts() {
        let s = scored(ScoringConfig::coverage());
        let film = s.schema().type_by_name(types::FILM).unwrap();
        assert_eq!(s.key_score(film), 4.0);
    }

    #[test]
    fn random_walk_scores_sum_to_one() {
        let s = scored(ScoringConfig::new(
            KeyScoring::RandomWalk,
            NonKeyScoring::Coverage,
        ));
        let total: f64 = s.key_scores().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ranked_key_attributes_puts_film_first_under_coverage() {
        let s = scored(ScoringConfig::coverage());
        let ranked = s.ranked_key_attributes();
        assert_eq!(s.schema().type_name(ranked[0]), types::FILM);
        assert_eq!(ranked.len(), s.schema().type_count());
    }

    #[test]
    fn table_and_preview_scores_follow_eq1_and_eq2() {
        // Running example of Sec. 4: coverage/coverage, the FILM table with
        // Actor, Genres, Director, Producer scores 4 * (6+5+4+2) = 68 and the
        // FILM ACTOR table with Actor, Award Winners scores 2 * (6+2) = 16.
        let s = scored(ScoringConfig::coverage());
        let schema = s.schema();
        let film = schema.type_by_name(types::FILM).unwrap();
        let actor = schema.type_by_name(types::FILM_ACTOR).unwrap();
        let film_cands = s.candidates(film);
        let film_table = PreviewTable::new(
            film,
            film_cands[..4]
                .iter()
                .map(|c| NonKeyAttr::new(c.edge, c.direction))
                .collect(),
        );
        assert!((s.table_score(&film_table) - 68.0).abs() < 1e-9);
        let actor_cands = s.candidates(actor);
        let actor_table = PreviewTable::new(
            actor,
            actor_cands[..2]
                .iter()
                .map(|c| NonKeyAttr::new(c.edge, c.direction))
                .collect(),
        );
        assert!((s.table_score(&actor_table) - 16.0).abs() < 1e-9);
        let preview = Preview::new(vec![film_table, actor_table]);
        assert!((s.preview_score(&preview) - 84.0).abs() < 1e-9);
    }

    #[test]
    fn top_m_score_sum_clamps() {
        let s = scored(ScoringConfig::coverage());
        let film = s.schema().type_by_name(types::FILM).unwrap();
        assert_eq!(s.top_m_score_sum(film, 0), 0.0);
        assert_eq!(s.top_m_score_sum(film, 1), 6.0);
        assert_eq!(s.top_m_score_sum(film, 100), 18.0);
    }

    #[test]
    fn entropy_configuration_builds() {
        let s = scored(ScoringConfig::new(
            KeyScoring::Coverage,
            NonKeyScoring::Entropy,
        ));
        // All entropy scores are finite and non-negative.
        for ty in s.schema().types() {
            for c in s.candidates(ty) {
                assert!(c.score.is_finite() && c.score >= 0.0);
            }
        }
    }

    #[test]
    fn rescore_delta_matches_full_build_bitwise() {
        use entity_graph::GraphDelta;
        let graph = fixtures::figure1_graph();
        let mut delta = GraphDelta::new();
        delta
            .add_entity("Bad Boys", &[types::FILM])
            .add_edge(
                "Will Smith",
                "Actor",
                "Bad Boys",
                types::FILM_ACTOR,
                types::FILM,
            )
            .remove_edge(
                "Men in Black",
                "Genres",
                "Action Film",
                types::FILM,
                types::FILM_GENRE,
            );
        let applied = graph.apply_delta(&delta).unwrap();
        for config in [
            ScoringConfig::coverage(),
            ScoringConfig::new(KeyScoring::Coverage, NonKeyScoring::Entropy),
            ScoringConfig::new(KeyScoring::RandomWalk, NonKeyScoring::Entropy),
        ] {
            let old = ScoredSchema::build(&graph, &config).unwrap();
            let rescored = old.rescore_delta(&applied.graph, &applied.summary).unwrap();
            let full = ScoredSchema::build(&applied.graph, &config).unwrap();
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&rescored.key_scores), bits(&full.key_scores));
            assert_eq!(bits(&rescored.nonkey_outgoing), bits(&full.nonkey_outgoing));
            assert_eq!(bits(&rescored.nonkey_incoming), bits(&full.nonkey_incoming));
            assert!(rescored.scores_identical(&full));
            assert_eq!(rescored.eligible_types(), full.eligible_types());
        }
    }

    #[test]
    fn rescore_delta_reuses_untouched_entropy_slots() {
        use entity_graph::GraphDelta;
        let graph = fixtures::figure1_graph();
        // Touch only the Genres relationship; Director must be reused.
        let mut delta = GraphDelta::new();
        delta.remove_edge(
            "Men in Black",
            "Genres",
            "Action Film",
            types::FILM,
            types::FILM_GENRE,
        );
        let applied = graph.apply_delta(&delta).unwrap();
        let config = ScoringConfig::new(KeyScoring::Coverage, NonKeyScoring::Entropy);
        let old = ScoredSchema::build(&graph, &config).unwrap();
        let rescored = old.rescore_delta(&applied.graph, &applied.summary).unwrap();
        let schema = rescored.schema();
        let director = schema
            .edges()
            .iter()
            .position(|e| e.name == "Director")
            .unwrap();
        let genres = schema
            .edges()
            .iter()
            .position(|e| e.name == "Genres")
            .unwrap();
        // Untouched slot: copied bitwise from the old instance.
        assert_eq!(
            rescored.nonkey_incoming[director].to_bits(),
            old.nonkey_incoming[director].to_bits()
        );
        // Touched slot: the distribution changed, and so did the score.
        assert_ne!(
            rescored.nonkey_outgoing[genres].to_bits(),
            old.nonkey_outgoing[genres].to_bits()
        );
    }

    #[test]
    fn scores_identical_detects_unaffected_deltas() {
        use entity_graph::GraphDelta;
        let graph = fixtures::figure1_graph();
        let entropy = ScoringConfig::new(KeyScoring::Coverage, NonKeyScoring::Entropy);
        let old = ScoredSchema::build(&graph, &entropy).unwrap();

        // A duplicate parallel edge: neighbors de-duplicate, so the entropy
        // distribution — and the coverage key scores — are untouched, even
        // though the graph itself changed.
        let mut dup = GraphDelta::new();
        dup.add_edge(
            "Will Smith",
            "Actor",
            "Men in Black",
            types::FILM_ACTOR,
            types::FILM,
        );
        let applied = graph.apply_delta(&dup).unwrap();
        let rescored = old.rescore_delta(&applied.graph, &applied.summary).unwrap();
        assert!(old.scores_identical(&rescored));

        // Under coverage/coverage the same delta changes an edge count, so
        // the scores are provably affected.
        let coverage = ScoringConfig::coverage();
        let old_cov = ScoredSchema::build(&graph, &coverage).unwrap();
        let rescored_cov = old_cov
            .rescore_delta(&applied.graph, &applied.summary)
            .unwrap();
        assert!(!old_cov.scores_identical(&rescored_cov));
    }

    #[test]
    fn build_sharded_matches_unsharded_build_bitwise() {
        use entity_graph::{ShardedGraph, ShardingStrategy};
        use std::sync::Arc;
        let graph = Arc::new(fixtures::figure1_graph());
        for config in [
            ScoringConfig::coverage(),
            ScoringConfig::new(KeyScoring::Coverage, NonKeyScoring::Entropy),
            ScoringConfig::new(KeyScoring::RandomWalk, NonKeyScoring::Entropy),
        ] {
            let unsharded = ScoredSchema::build(&graph, &config).unwrap();
            for strategy in [
                ShardingStrategy::ByEntityType { shards: 3 },
                ShardingStrategy::ByIdHash { shards: 5 },
            ] {
                let sharded = ShardedGraph::from_graph(Arc::clone(&graph), strategy);
                let scored = ScoredSchema::build_sharded(&sharded, &config).unwrap();
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&scored.key_scores), bits(&unsharded.key_scores));
                assert_eq!(
                    bits(&scored.nonkey_outgoing),
                    bits(&unsharded.nonkey_outgoing)
                );
                assert_eq!(
                    bits(&scored.nonkey_incoming),
                    bits(&unsharded.nonkey_incoming)
                );
                assert!(scored.scores_identical(&unsharded));
                assert_eq!(scored.eligible_types(), unsharded.eligible_types());
            }
        }
    }

    #[test]
    fn weighted_top_score_is_key_times_best_candidate() {
        let s = scored(ScoringConfig::coverage());
        for ty in s.schema().types() {
            let expected = s
                .candidates(ty)
                .first()
                .map_or(0.0, |c| s.key_score(ty) * c.score);
            assert_eq!(s.weighted_top_score(ty).to_bits(), expected.to_bits());
        }
        // Running example: FILM's best candidate (Actor, 6) at key score 4.
        let film = s.schema().type_by_name(types::FILM).unwrap();
        assert_eq!(s.weighted_top_score(film), 24.0);
    }

    #[test]
    fn labels_match_paper_terms() {
        assert_eq!(KeyScoring::Coverage.label(), "Coverage");
        assert_eq!(KeyScoring::RandomWalk.label(), "Random Walk");
        assert_eq!(NonKeyScoring::Entropy.label(), "Entropy");
        assert_eq!(NonKeyScoring::Coverage.label(), "Coverage");
    }

    #[test]
    fn builds_parent_their_stage_spans_to_the_open_span() {
        use entity_graph::{ShardedGraph, ShardingStrategy};
        use preview_obs::{ObsConfig, Recorder, Stage, TraceId, TraceOutcome};
        use std::sync::Arc;
        use std::time::{Duration, Instant};

        let graph = Arc::new(fixtures::figure1_graph());
        let sharded =
            ShardedGraph::from_graph(Arc::clone(&graph), ShardingStrategy::ByIdHash { shards: 3 });
        let config = ScoringConfig::new(KeyScoring::Coverage, NonKeyScoring::Entropy);
        let builds: [&dyn Fn() -> ScoredSchema; 2] =
            [&|| ScoredSchema::build(&graph, &config).unwrap(), &|| {
                ScoredSchema::build_sharded(&sharded, &config).unwrap()
            }];
        for (seq, build) in builds.into_iter().enumerate() {
            let recorder = Arc::new(Recorder::new(ObsConfig::default().with_sample_every(1)));
            recorder.enable();
            let _attach = recorder.attach();
            let trace = recorder.begin_trace(TraceId::from_seq(seq as u64), Instant::now());
            {
                let _discovery = preview_obs::span!(Stage::Discovery);
                build();
            }
            trace.finish(Duration::ZERO, TraceOutcome::Ok, "");
            recorder.disable();

            let trees = recorder.traces().trees();
            assert_eq!(trees.len(), 1, "build {seq}");
            let spans = &trees[0].spans;
            let of = |stage: Stage| spans.iter().filter(move |s| s.stage == stage);
            let discovery = of(Stage::Discovery).next().expect("discovery span");
            for stage in [Stage::EntropyScoring, Stage::CandidateGen] {
                let recorded: Vec<_> = of(stage).collect();
                assert_eq!(recorded.len(), 1, "build {seq}: {}", stage.name());
                assert_eq!(
                    recorded[0].parent_id,
                    discovery.span_id,
                    "build {seq}: {}",
                    stage.name()
                );
            }
        }
    }
}
