//! Entropy scoring from sharded storage, plus [`build_sharded`] and
//! [`apply_delta_parallel`], which forward to [`ShardedGraph`] for existing
//! callers.
//!
//! Everything here is **bitwise identical** to the unsharded path: entropy
//! scoring groups tuples by their *canonical encoded* neighbor bytes instead
//! of borrowed neighbor slices — a bijection on value sets — then merges the
//! per-shard groups into one global count multiset and sums it through the
//! same sorted-order kernel as the unsharded scorer, so every score matches
//! [`nonkey::entropy_scores`] bit for bit (the determinism guard enforces
//! this).

use std::collections::HashMap;
use std::sync::Arc;

use entity_graph::{
    AppliedShardedDelta, Direction, EntityGraph, GraphDelta, SchemaEdge, SchemaGraph, ShardedGraph,
    ShardingStrategy, TypeId,
};

use crate::scoring::nonkey;

/// [`ShardedGraph::from_graph`], which builds the shards in parallel.
/// `threads` is accepted and ignored.
pub fn build_sharded(
    graph: Arc<EntityGraph>,
    strategy: ShardingStrategy,
    _threads: usize,
) -> ShardedGraph {
    ShardedGraph::from_graph(graph, strategy)
}

/// [`ShardedGraph::apply_delta`], which re-splices the shards in parallel.
/// `threads` is accepted and ignored.
///
/// # Errors
///
/// Exactly those of [`entity_graph::EntityGraph::apply_delta`]; a failed
/// batch leaves `sharded` untouched.
pub fn apply_delta_parallel(
    sharded: &ShardedGraph,
    delta: &GraphDelta,
    _threads: usize,
) -> entity_graph::Result<AppliedShardedDelta> {
    sharded.apply_delta(delta)
}

/// Entropy-based non-key scores for both orientations of every schema edge,
/// computed from sharded storage with cross-shard aggregation.
///
/// Bitwise identical to [`nonkey::entropy_scores`] on the logical graph:
/// tuples group equal iff their canonical encoded neighbor bytes are equal,
/// merging per-shard groups preserves the global count multiset (an entity
/// lives in exactly one shard), and the final sum runs over sorted counts in
/// both paths.
pub fn sharded_entropy_scores(
    sharded: &ShardedGraph,
    schema: &SchemaGraph,
) -> (Vec<f64>, Vec<f64>) {
    schema
        .edges()
        .iter()
        .map(|edge| sharded_entropy_scores_for_edge(sharded, schema, edge))
        .unzip()
}

/// Entropy scores of a single schema edge from sharded storage:
/// `(outgoing, incoming)`. Bitwise identical to
/// [`nonkey::entropy_scores_for_edge`].
pub fn sharded_entropy_scores_for_edge(
    sharded: &ShardedGraph,
    schema: &SchemaGraph,
    edge: &SchemaEdge,
) -> (f64, f64) {
    let outgoing = sharded_orientation_entropy(
        sharded,
        schema,
        edge.name.as_str(),
        edge.src,
        edge.dst,
        Direction::Outgoing,
    );
    let incoming = sharded_orientation_entropy(
        sharded,
        schema,
        edge.name.as_str(),
        edge.src,
        edge.dst,
        Direction::Incoming,
    );
    (outgoing, incoming)
}

fn sharded_orientation_entropy(
    sharded: &ShardedGraph,
    schema: &SchemaGraph,
    rel_name: &str,
    src: TypeId,
    dst: TypeId,
    direction: Direction,
) -> f64 {
    let graph = sharded.graph();
    // Same name-based resolution as the unsharded scorer, so schema graphs
    // from a different builder run still line up.
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
    // Cross-shard aggregation: every shard contributes its members' encoded
    // value bytes to one global group map. The encoding is canonical —
    // identical neighbor sets encode to identical bytes and vice versa — so
    // the groups are exactly the unsharded scorer's slice-keyed groups, just
    // discovered shard by shard.
    let mut groups: HashMap<&[u8], u64> = HashMap::new();
    let mut non_empty = 0u64;
    for shard in sharded.shards() {
        for &local in shard.locals_of_type(key_type) {
            if let Some(bytes) = shard.encoded(local as usize, rel, direction) {
                non_empty += 1;
                *groups.entry(bytes).or_insert(0) += 1;
            }
        }
    }
    if non_empty == 0 {
        return 0.0;
    }
    nonkey::entropy_from_counts(groups.into_values().collect(), non_empty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use entity_graph::fixtures;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    fn strategies() -> [ShardingStrategy; 3] {
        [
            ShardingStrategy::ByEntityType { shards: 1 },
            ShardingStrategy::ByEntityType { shards: 4 },
            ShardingStrategy::ByIdHash { shards: 3 },
        ]
    }

    #[test]
    fn sharded_entropy_is_bitwise_identical_to_unsharded() {
        let graph = Arc::new(fixtures::figure1_graph());
        let schema = graph.schema_graph().clone();
        let (expected_out, expected_inc) = nonkey::entropy_scores(&graph, &schema);
        for strategy in strategies() {
            let sharded = ShardedGraph::from_graph(Arc::clone(&graph), strategy);
            let (out, inc) = sharded_entropy_scores(&sharded, &schema);
            assert_eq!(bits(&out), bits(&expected_out), "{strategy:?}");
            assert_eq!(bits(&inc), bits(&expected_inc), "{strategy:?}");
        }
    }

    #[test]
    fn parallel_delta_apply_matches_reshard_from_scratch() {
        let graph = Arc::new(fixtures::figure1_graph());
        let mut delta = GraphDelta::new();
        delta
            .add_entity("Bad Boys", &["FILM"])
            .add_edge("Will Smith", "Actor", "Bad Boys", "FILM ACTOR", "FILM")
            .remove_edge(
                "Men in Black",
                "Genres",
                "Action Film",
                "FILM",
                "FILM GENRE",
            );
        for strategy in strategies() {
            let sharded = ShardedGraph::from_graph(Arc::clone(&graph), strategy);
            let applied = apply_delta_parallel(&sharded, &delta, 0).unwrap();
            let reference = ShardedGraph::from_graph(Arc::clone(applied.sharded.graph()), strategy);
            assert_eq!(applied.sharded, reference, "{strategy:?}");
            // Entropy over the new version stays bitwise identical too.
            let schema = applied.sharded.graph().schema_graph().clone();
            let (expected_out, expected_inc) =
                nonkey::entropy_scores(applied.sharded.graph(), &schema);
            let (out, inc) = sharded_entropy_scores(&applied.sharded, &schema);
            assert_eq!(bits(&out), bits(&expected_out));
            assert_eq!(bits(&inc), bits(&expected_inc));
        }
    }
}
