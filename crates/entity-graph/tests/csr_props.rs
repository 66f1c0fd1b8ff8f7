//! Property tests for the CSR graph core: on randomly generated multigraphs
//! the flat `neighbors_via` / `out_edges` / `in_edges` / `entities_of_type` /
//! `edges_of_rel_type` indexes must agree with a naive reference
//! implementation that scans the raw edge list, and round-tripping through
//! the triple text format — the workspace's on-disk representation — must
//! preserve the entire adjacency structure.

use std::collections::HashMap;

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use entity_graph::{
    triples, Direction, EntityGraph, EntityGraphBuilder, EntityId, RelTypeId, TypeId,
};

/// A naive adjacency model built straight from the raw edge list, mirroring
/// the pre-CSR `Vec<Vec<_>>` implementation: scan, filter, sort, dedup.
struct NaiveReference {
    /// (src, dst, rel) per edge, in insertion order.
    edges: Vec<(EntityId, EntityId, RelTypeId)>,
}

impl NaiveReference {
    fn of(graph: &EntityGraph) -> Self {
        Self {
            edges: graph.edges().map(|(_, e)| (e.src, e.dst, e.rel)).collect(),
        }
    }

    fn neighbors_via(
        &self,
        entity: EntityId,
        rel: RelTypeId,
        direction: Direction,
    ) -> Vec<EntityId> {
        let mut out: Vec<EntityId> = self
            .edges
            .iter()
            .filter_map(|&(src, dst, r)| {
                if r != rel {
                    return None;
                }
                match direction {
                    Direction::Outgoing => (src == entity).then_some(dst),
                    Direction::Incoming => (dst == entity).then_some(src),
                }
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    fn out_degree(&self, entity: EntityId) -> usize {
        self.edges
            .iter()
            .filter(|&&(src, _, _)| src == entity)
            .count()
    }

    fn in_degree(&self, entity: EntityId) -> usize {
        self.edges
            .iter()
            .filter(|&&(_, dst, _)| dst == entity)
            .count()
    }
}

/// Generates a random multigraph (parallel edges, self-referencing types,
/// entities with several types) deterministically from a seed.
fn random_graph(seed: u64, types: usize, rel_types: usize, edges: usize) -> EntityGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut builder = EntityGraphBuilder::new();
    let type_ids: Vec<TypeId> = (0..types)
        .map(|i| builder.entity_type(&format!("T{i}")))
        .collect();
    let entities: Vec<Vec<EntityId>> = type_ids
        .iter()
        .enumerate()
        .map(|(i, &ty)| {
            (0..rng.gen_range(1..6))
                .map(|j| {
                    // Some entities carry a second type.
                    let mut tys = vec![ty];
                    if rng.gen_bool(0.2) {
                        tys.push(type_ids[rng.gen_range(0..types)]);
                    }
                    builder.entity(&format!("e{i}-{j}"), &tys)
                })
                .collect()
        })
        .collect();
    // Reuse a few surface names so relationship types share names (the
    // paper's `Award Winners` case) and the interned key must disambiguate.
    let rels: Vec<(RelTypeId, usize, usize)> = (0..rel_types)
        .map(|i| {
            let src = rng.gen_range(0..types);
            let dst = rng.gen_range(0..types);
            let name = format!("r{}", i % 3);
            (
                builder.relationship_type(&name, type_ids[src], type_ids[dst]),
                src,
                dst,
            )
        })
        .collect();
    for _ in 0..edges {
        let &(rel, src, dst) = &rels[rng.gen_range(0..rels.len())];
        let s = entities[src][rng.gen_range(0..entities[src].len())];
        let d = entities[dst][rng.gen_range(0..entities[dst].len())];
        builder
            .edge(s, rel, d)
            .expect("endpoints carry the right types");
    }
    builder.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The CSR `neighbors_via` slice equals the naive scan-filter-sort-dedup
    /// result for every (entity, relationship type, direction) triple.
    #[test]
    fn neighbors_via_matches_naive_reference(
        seed in 0u64..100_000,
        types in 2usize..5,
        rel_types in 1usize..6,
        edges in 0usize..60,
    ) {
        let graph = random_graph(seed, types, rel_types, edges);
        let reference = NaiveReference::of(&graph);
        for (entity, _) in graph.entities() {
            for (rel, _) in graph.rel_types() {
                for direction in [Direction::Outgoing, Direction::Incoming] {
                    let csr = graph.neighbors_via(entity, rel, direction);
                    let naive = reference.neighbors_via(entity, rel, direction);
                    prop_assert_eq!(csr, naive.as_slice());
                }
            }
        }
    }

    /// Per-entity edge lists and per-group CSR indexes partition the edge set
    /// exactly: degrees match a naive count and every edge id appears in the
    /// right group.
    #[test]
    fn edge_indexes_match_naive_reference(
        seed in 0u64..100_000,
        types in 2usize..5,
        rel_types in 1usize..6,
        edges in 0usize..60,
    ) {
        let graph = random_graph(seed, types, rel_types, edges);
        let reference = NaiveReference::of(&graph);
        let mut out_total = 0;
        let mut in_total = 0;
        for (entity, _) in graph.entities() {
            let out = graph.out_edges(entity);
            let inc = graph.in_edges(entity);
            prop_assert_eq!(out.len(), reference.out_degree(entity));
            prop_assert_eq!(inc.len(), reference.in_degree(entity));
            for &eid in out {
                prop_assert_eq!(graph.edge(eid).src, entity);
            }
            for &eid in inc {
                prop_assert_eq!(graph.edge(eid).dst, entity);
            }
            out_total += out.len();
            in_total += inc.len();
        }
        prop_assert_eq!(out_total, graph.edge_count());
        prop_assert_eq!(in_total, graph.edge_count());

        let mut by_rel_total = 0;
        for (rel, _) in graph.rel_types() {
            for &eid in graph.edges_of_rel_type(rel) {
                prop_assert_eq!(graph.edge(eid).rel, rel);
            }
            by_rel_total += graph.edges_of_rel_type(rel).len();
        }
        prop_assert_eq!(by_rel_total, graph.edge_count());

        let mut by_type_total = 0;
        for (ty, _) in graph.types() {
            for &entity in graph.entities_of_type(ty) {
                prop_assert!(graph.entity(entity).has_type(ty));
            }
            by_type_total += graph.entities_of_type(ty).len();
        }
        let type_memberships: usize =
            graph.entities().map(|(_, e)| e.types.len()).sum();
        prop_assert_eq!(by_type_total, type_memberships);
    }

    /// `rel_type_by_key` resolves every relationship type through the interned
    /// borrowed key, including shared surface names, and misses cleanly.
    #[test]
    fn rel_type_lookup_is_total_and_exact(
        seed in 0u64..100_000,
        types in 2usize..5,
        rel_types in 1usize..6,
    ) {
        let graph = random_graph(seed, types, rel_types, 10);
        for (id, rel) in graph.rel_types() {
            prop_assert_eq!(
                graph.rel_type_by_key(&rel.name, rel.src_type, rel.dst_type),
                Some(id)
            );
        }
        prop_assert_eq!(graph.rel_type_by_key("no such rel", TypeId::new(0), TypeId::new(0)), None);
    }

    /// Round-tripping through the triple text format — the workspace's
    /// serialized graph representation — rebuilds an equivalent CSR graph:
    /// same counts, same per-type groups, same neighbor sets (entities are
    /// re-interned, so equivalence is checked by name).
    #[test]
    fn triple_roundtrip_preserves_csr_adjacency(
        seed in 0u64..100_000,
        types in 2usize..4,
        rel_types in 1usize..5,
        edges in 1usize..40,
    ) {
        let graph = random_graph(seed, types, rel_types, edges);
        let reparsed = triples::parse_str(&triples::to_string(&graph)).expect("round-trip parses");
        prop_assert_eq!(graph.entity_count(), reparsed.entity_count());
        prop_assert_eq!(graph.edge_count(), reparsed.edge_count());
        prop_assert_eq!(graph.type_count(), reparsed.type_count());
        prop_assert_eq!(graph.relationship_type_count(), reparsed.relationship_type_count());

        let names_of = |g: &EntityGraph, ids: &[EntityId]| -> Vec<String> {
            let mut names: Vec<String> =
                ids.iter().map(|&n| g.entity(n).name.clone()).collect();
            names.sort_unstable();
            names
        };
        let reparsed_ids: HashMap<String, EntityId> = reparsed
            .entities()
            .map(|(id, e)| (e.name.clone(), id))
            .collect();
        for (entity, record) in graph.entities() {
            let twin = reparsed_ids[&record.name];
            for (rel, rel_record) in graph.rel_types() {
                let twin_rel = reparsed
                    .rel_type_by_key(
                        &rel_record.name,
                        reparsed.type_by_name(graph.type_name(rel_record.src_type)).unwrap(),
                        reparsed.type_by_name(graph.type_name(rel_record.dst_type)).unwrap(),
                    )
                    .expect("relationship type survives the round trip");
                for direction in [Direction::Outgoing, Direction::Incoming] {
                    prop_assert_eq!(
                        names_of(&graph, graph.neighbors_via(entity, rel, direction)),
                        names_of(&reparsed, reparsed.neighbors_via(twin, twin_rel, direction))
                    );
                }
            }
        }
    }
}
