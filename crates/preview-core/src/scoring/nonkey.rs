//! Non-key attribute scoring measures (Sec. 3.3): coverage and entropy.

use std::collections::HashMap;

use entity_graph::{Direction, EntityGraph, EntityId, SchemaEdge, SchemaGraph};

/// Coverage-based non-key attribute scores: `Sτcov(γ)` is the number of
/// entity-graph edges of relationship type `γ`.
///
/// Coverage is symmetric in the orientation of the attribute, so a single
/// score per schema edge suffices; it applies to both the outgoing and the
/// incoming orientation.
pub fn coverage_scores(schema: &SchemaGraph) -> Vec<f64> {
    schema.edges().iter().map(|e| e.edge_count as f64).collect()
}

/// Entropy-based non-key attribute scores for both orientations of every
/// schema edge.
///
/// For a preview table keyed on `τ` and a non-key attribute `γ(τ, τ')` (or
/// `γ(τ', τ)`), the score is the entropy of the attribute's value
/// distribution over the tuples with a non-empty value:
///
/// `Sτent(γ) = Σ_j (n_j / N) · log10(N / n_j)`
///
/// where tuples are grouped by their (set-valued) attribute value — two
/// multi-valued cells are equal iff they contain the same set of entities —
/// `n_j` is the size of the j-th group and `N` the number of tuples with a
/// non-empty value. The measure is asymmetric: the entropy seen from `τ`
/// generally differs from the entropy seen from `τ'`.
///
/// Returns `(outgoing, incoming)` vectors indexed by schema-edge position:
/// `outgoing[e]` is the score when the key attribute is the edge's source
/// type, `incoming[e]` when it is the destination type.
pub fn entropy_scores(graph: &EntityGraph, schema: &SchemaGraph) -> (Vec<f64>, Vec<f64>) {
    schema
        .edges()
        .iter()
        .map(|edge| entropy_scores_for_edge(graph, schema, edge))
        .unzip()
}

/// Entropy scores of a single schema edge: `(outgoing, incoming)`.
///
/// Bit-identical to the corresponding entries of [`entropy_scores`] — the
/// per-edge computation is independent of every other edge, which is what
/// incremental rescoring
/// ([`ScoredSchema::rescore_delta`](crate::ScoredSchema::rescore_delta))
/// builds on: a delta recomputes only the touched edges through this function
/// and reuses every untouched score bitwise.
pub fn entropy_scores_for_edge(
    graph: &EntityGraph,
    schema: &SchemaGraph,
    edge: &SchemaEdge,
) -> (f64, f64) {
    let outgoing = orientation_entropy(
        graph,
        schema,
        edge.name.as_str(),
        edge.src,
        edge.dst,
        Direction::Outgoing,
    );
    let incoming = orientation_entropy(
        graph,
        schema,
        edge.name.as_str(),
        edge.src,
        edge.dst,
        Direction::Incoming,
    );
    (outgoing, incoming)
}

fn orientation_entropy(
    graph: &EntityGraph,
    schema: &SchemaGraph,
    rel_name: &str,
    src: entity_graph::TypeId,
    dst: entity_graph::TypeId,
    direction: Direction,
) -> f64 {
    // Resolve the relationship type and key type in the entity graph by name,
    // so schema graphs from a different builder run still line up.
    let (src_in_graph, dst_in_graph) = match (
        graph.type_by_name(schema.type_name(src)),
        graph.type_by_name(schema.type_name(dst)),
    ) {
        (Some(s), Some(d)) => (s, d),
        _ => return 0.0,
    };
    let rel = match graph.rel_type_by_key(rel_name, src_in_graph, dst_in_graph) {
        Some(r) => r,
        None => return 0.0,
    };
    let key_type = match direction {
        Direction::Outgoing => src_in_graph,
        Direction::Incoming => dst_in_graph,
    };
    // `neighbors_via` borrows pre-grouped, sorted neighbor sets straight from
    // the graph's CSR index, so grouping tuples by attribute value needs no
    // allocation per tuple: the borrowed slices themselves are the map keys.
    let mut groups: HashMap<&[EntityId], u64> = HashMap::new();
    let mut non_empty = 0u64;
    for &entity in graph.entities_of_type(key_type) {
        let value = graph.neighbors_via(entity, rel, direction);
        if value.is_empty() {
            continue;
        }
        non_empty += 1;
        *groups.entry(value).or_insert(0) += 1;
    }
    if non_empty == 0 {
        return 0.0;
    }
    entropy_from_counts(groups.into_values().collect(), non_empty)
}

/// The entropy sum shared by the unsharded and sharded scoring paths: both
/// group tuples by attribute value (borrowed neighbor slices there, canonical
/// encoded bytes here — a bijection, since the encoding is canonical) and
/// hand the group sizes to this function, so equal count multisets produce
/// bitwise-equal scores.
///
/// Group terms are summed in sorted-count order: float addition is not
/// associative, and `HashMap` iteration order is randomized per process, so
/// an unsorted sum drifts by ulps run to run — enough to break the
/// byte-identical serving guarantee the service layer tests.
pub(crate) fn entropy_from_counts(mut counts: Vec<u64>, non_empty: u64) -> f64 {
    counts.sort_unstable();
    let total = non_empty as f64;
    counts
        .into_iter()
        .map(|n| {
            let p = n as f64 / total;
            p * (total / n as f64).log10()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use entity_graph::fixtures::{self, types};

    fn edge_index(schema: &SchemaGraph, name: &str, src: &str, dst: &str) -> usize {
        schema
            .edges()
            .iter()
            .position(|e| {
                e.name == name && schema.type_name(e.src) == src && schema.type_name(e.dst) == dst
            })
            .unwrap_or_else(|| panic!("edge {name} {src}->{dst} not found"))
    }

    #[test]
    fn coverage_matches_paper_example() {
        // Scov^FILM(Director) = 4 and Scov^FILM(Genres) = 5 (Sec. 3.3).
        let g = fixtures::figure1_graph();
        let s = g.schema_graph();
        let scores = coverage_scores(s);
        let director = edge_index(s, "Director", types::FILM_DIRECTOR, types::FILM);
        let genres = edge_index(s, "Genres", types::FILM, types::FILM_GENRE);
        assert_eq!(scores[director], 4.0);
        assert_eq!(scores[genres], 5.0);
    }

    #[test]
    fn entropy_matches_paper_example() {
        // Sent^FILM(Director) = (2/4)log(4/2) + (1/4)log(4) + (1/4)log(4) ≈ 0.45
        // Sent^FILM(Genres)   = (2/3)log(3/2) + (1/3)log(3)               ≈ 0.28
        // (log base 10, Sec. 3.3).
        let g = fixtures::figure1_graph();
        let s = g.schema_graph();
        let (out, inc) = entropy_scores(&g, s);
        let director = edge_index(s, "Director", types::FILM_DIRECTOR, types::FILM);
        let genres = edge_index(s, "Genres", types::FILM, types::FILM_GENRE);
        // FILM is the *destination* of Director and the *source* of Genres.
        let director_from_film = inc[director];
        let genres_from_film = out[genres];
        let expected_director = 0.5 * 2f64.log10() + 2.0 * 0.25 * 4f64.log10();
        let expected_genres = (2.0 / 3.0) * (1.5f64).log10() + (1.0 / 3.0) * 3f64.log10();
        assert!((director_from_film - expected_director).abs() < 1e-9);
        assert!((genres_from_film - expected_genres).abs() < 1e-9);
        assert!((director_from_film - 0.45).abs() < 0.01);
        assert!((genres_from_film - 0.28).abs() < 0.01);
    }

    #[test]
    fn entropy_is_asymmetric() {
        let g = fixtures::figure1_graph();
        let s = g.schema_graph();
        let (out, inc) = entropy_scores(&g, s);
        let director = edge_index(s, "Director", types::FILM_DIRECTOR, types::FILM);
        // Seen from FILM DIRECTOR (outgoing): Barry -> {MIB, MIB II}, Berg -> {Hancock},
        // Proyas -> {I, Robot}: three distinct value sets over 3 tuples -> log10(3).
        assert!((out[director] - 3f64.log10()).abs() < 1e-9);
        assert_ne!(out[director], inc[director]);
    }

    #[test]
    fn single_valued_attribute_with_identical_values_has_zero_entropy() {
        use entity_graph::EntityGraphBuilder;
        let mut b = EntityGraphBuilder::new();
        let film = b.entity_type("FILM");
        let studio = b.entity_type("STUDIO");
        let made_by = b.relationship_type("Made By", film, studio);
        let s1 = b.entity("Studio X", &[studio]);
        for name in ["f1", "f2", "f3"] {
            let f = b.entity(name, &[film]);
            b.edge(f, made_by, s1).unwrap();
        }
        let g = b.build();
        let schema = g.schema_graph();
        let (out, _inc) = entropy_scores(&g, schema);
        // Every film points at the same studio: zero information.
        assert_eq!(out[0], 0.0);
    }

    #[test]
    fn entropy_of_unrelated_direction_is_zero_when_no_edges() {
        // A relationship type with zero participating entities of the key type
        // (cannot happen for derived schema graphs, but entropy must not panic
        // or return NaN for empty groups).
        let g = fixtures::figure1_graph();
        let s = g.schema_graph();
        let (out, inc) = entropy_scores(&g, s);
        assert!(out
            .iter()
            .chain(inc.iter())
            .all(|v| v.is_finite() && *v >= 0.0));
    }

    #[test]
    fn entropy_bounded_by_log_of_tuple_count() {
        let g = fixtures::figure1_graph();
        let s = g.schema_graph();
        let (out, inc) = entropy_scores(&g, s);
        let bound = (g.entity_count() as f64).log10();
        assert!(out.iter().chain(inc.iter()).all(|&v| v <= bound + 1e-9));
    }
}
