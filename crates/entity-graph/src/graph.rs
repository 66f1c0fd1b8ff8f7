//! The entity graph: a directed multigraph of typed, named entities, stored
//! in a compact CSR (compressed-sparse-row) columnar layout.

use std::collections::HashMap;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::csr::{Csr, RelGroupedNeighbors};
use crate::delta::{self, AppliedDelta, GraphDelta};
use crate::entity::{Edge, Entity, RelType};
use crate::error::{Error, Result};
use crate::id::{EdgeId, EntityId, RelTypeId, TypeId};
use crate::interner::Interner;
use crate::schema::{SchemaEdge, SchemaGraph};
use crate::stats::GraphStats;

/// Direction of traversal relative to an entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Follow edges leaving the entity (`e(v, ·)`).
    Outgoing,
    /// Follow edges arriving at the entity (`e(·, v)`).
    Incoming,
}

/// An immutable entity graph `Gd(Vd, Ed)` (Sec. 2 of the paper).
///
/// Construct one with [`EntityGraphBuilder`](crate::EntityGraphBuilder) or by
/// parsing the [`triples`](crate::triples) format. The graph owns all strings
/// and pre-computes the adjacency indexes needed by scoring and tuple
/// materialisation.
///
/// # Storage layout
///
/// All adjacency lives in flat CSR arrays ([`Csr`], [`RelGroupedNeighbors`])
/// built once at [`build`](crate::EntityGraphBuilder::build) time:
///
/// * entities grouped by entity type,
/// * edges grouped by relationship type,
/// * per-entity outgoing / incoming edge lists,
/// * per-entity neighbor sets, pre-grouped by relationship type, sorted and
///   de-duplicated — so the hot [`neighbors_via`](Self::neighbors_via) path
///   returns a borrowed slice without scanning, sorting or allocating.
///
/// Relationship-type lookup keys intern their surface name in an
/// [`Interner`], so [`rel_type_by_key`](Self::rel_type_by_key) never
/// allocates. The derived [`SchemaGraph`] is memoized behind a `OnceLock`.
///
/// # Immutability contract
///
/// Once built, a graph never changes: every index, every borrowed slice and
/// the memoized schema graph stay valid for the graph's lifetime, which is
/// what lets the serving layer share one graph across worker threads behind
/// an `Arc` without locks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EntityGraph {
    pub(crate) entities: Vec<Entity>,
    pub(crate) entity_by_name: HashMap<String, EntityId>,
    pub(crate) type_names: Vec<String>,
    pub(crate) type_by_name: HashMap<String, TypeId>,
    pub(crate) rel_types: Vec<RelType>,
    /// Interned relationship-type surface names; `rel_by_key` keys reference
    /// these indices so lookups borrow instead of building an owned key.
    pub(crate) rel_names: Interner,
    pub(crate) rel_by_key: HashMap<(u32, TypeId, TypeId), RelTypeId>,
    pub(crate) edges: Vec<Edge>,
    // CSR indexes (derived in `build`).
    pub(crate) entities_by_type: Csr<EntityId>,
    pub(crate) edges_by_rel: Csr<EdgeId>,
    pub(crate) out_edges: Csr<EdgeId>,
    pub(crate) in_edges: Csr<EdgeId>,
    pub(crate) out_neighbors: RelGroupedNeighbors,
    pub(crate) in_neighbors: RelGroupedNeighbors,
    /// Memoized schema-graph derivation; cloned graphs keep the cached value.
    #[serde(skip)]
    pub(crate) schema_cache: OnceLock<SchemaGraph>,
}

impl EntityGraph {
    /// Number of entities `|Vd|`.
    #[inline]
    pub fn entity_count(&self) -> usize {
        self.entities.len()
    }

    /// Number of relationship instances `|Ed|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of entity types `|Vs|`.
    #[inline]
    pub fn type_count(&self) -> usize {
        self.type_names.len()
    }

    /// Number of relationship types `|Es|`.
    #[inline]
    pub fn relationship_type_count(&self) -> usize {
        self.rel_types.len()
    }

    /// Looks up an entity record.
    pub fn entity(&self, id: EntityId) -> &Entity {
        &self.entities[id.index()]
    }

    /// Looks up an entity by display name.
    pub fn entity_by_name(&self, name: &str) -> Option<EntityId> {
        self.entity_by_name.get(name).copied()
    }

    /// Name of an entity type.
    pub fn type_name(&self, ty: TypeId) -> &str {
        &self.type_names[ty.index()]
    }

    /// Looks up an entity type by name.
    pub fn type_by_name(&self, name: &str) -> Option<TypeId> {
        self.type_by_name.get(name).copied()
    }

    /// Looks up a relationship type record.
    pub fn rel_type(&self, rel: RelTypeId) -> &RelType {
        &self.rel_types[rel.index()]
    }

    /// Looks up a relationship type by surface name and endpoint types.
    ///
    /// Allocation-free: the surface name resolves through the graph's
    /// interner (a borrowed `&str` lookup) and the composite key is three
    /// plain integers.
    pub fn rel_type_by_key(&self, name: &str, src: TypeId, dst: TypeId) -> Option<RelTypeId> {
        let name_id = self.rel_names.get(name)?;
        self.rel_by_key.get(&(name_id, src, dst)).copied()
    }

    /// The edge record for an edge id.
    pub fn edge(&self, id: EdgeId) -> Edge {
        self.edges[id.index()]
    }

    /// All entities of the given type, i.e. `T.τ` in the paper's notation.
    pub fn entities_of_type(&self, ty: TypeId) -> &[EntityId] {
        self.entities_by_type.slice(ty.index())
    }

    /// All edges belonging to the given relationship type.
    pub fn edges_of_rel_type(&self, rel: RelTypeId) -> &[EdgeId] {
        self.edges_by_rel.slice(rel.index())
    }

    /// Outgoing edges of an entity.
    pub fn out_edges(&self, entity: EntityId) -> &[EdgeId] {
        self.out_edges.slice(entity.index())
    }

    /// Incoming edges of an entity.
    pub fn in_edges(&self, entity: EntityId) -> &[EdgeId] {
        self.in_edges.slice(entity.index())
    }

    /// Iterates over `(EntityId, &Entity)` pairs.
    pub fn entities(&self) -> impl Iterator<Item = (EntityId, &Entity)> {
        self.entities
            .iter()
            .enumerate()
            .map(|(i, e)| (EntityId::from_usize(i), e))
    }

    /// Iterates over `(EdgeId, Edge)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId::from_usize(i), *e))
    }

    /// Iterates over `(TypeId, &str)` pairs.
    pub fn types(&self) -> impl Iterator<Item = (TypeId, &str)> {
        self.type_names
            .iter()
            .enumerate()
            .map(|(i, n)| (TypeId::from_usize(i), n.as_str()))
    }

    /// Iterates over `(RelTypeId, &RelType)` pairs.
    pub fn rel_types(&self) -> impl Iterator<Item = (RelTypeId, &RelType)> {
        self.rel_types
            .iter()
            .enumerate()
            .map(|(i, r)| (RelTypeId::from_usize(i), r))
    }

    /// The entities adjacent to `entity` through edges of relationship type
    /// `rel`, following the given direction — i.e. the value `t.γ` of a tuple
    /// on a non-key attribute (Def. 1).
    ///
    /// The result is sorted and de-duplicated (attribute values are sets) and
    /// borrows directly from the pre-grouped CSR index: the hot path of
    /// entropy scoring and tuple materialisation performs no allocation, no
    /// edge scan and no sort.
    #[inline]
    pub fn neighbors_via(
        &self,
        entity: EntityId,
        rel: RelTypeId,
        direction: Direction,
    ) -> &[EntityId] {
        match direction {
            Direction::Outgoing => self.out_neighbors.neighbors(entity.index(), rel),
            Direction::Incoming => self.in_neighbors.neighbors(entity.index(), rel),
        }
    }

    /// Iterates an entity's neighbor segments in relationship-type order,
    /// yielding each relationship type together with its sorted,
    /// de-duplicated neighbor slice — the bulk counterpart of
    /// [`neighbors_via`](Self::neighbors_via), used by the sharding layer to
    /// encode an entity's whole adjacency in one directory pass.
    pub fn neighbor_segments(
        &self,
        entity: EntityId,
        direction: Direction,
    ) -> impl Iterator<Item = (RelTypeId, &[EntityId])> {
        match direction {
            Direction::Outgoing => self.out_neighbors.segments(entity.index()),
            Direction::Incoming => self.in_neighbors.segments(entity.index()),
        }
    }

    /// Heap bytes of the two pre-grouped neighbor indexes, split as
    /// `(payload_bytes, total_bytes)` summed over both directions — the
    /// unsharded baseline a [`MemoryReport`](crate::MemoryReport) compares
    /// sharded storage against.
    pub fn neighbor_index_bytes(&self) -> (u64, u64) {
        let (out_payload, out_total) = self.out_neighbors.heap_bytes();
        let (in_payload, in_total) = self.in_neighbors.heap_bytes();
        (out_payload + in_payload, out_total + in_total)
    }

    /// Validates that an entity id is in range.
    pub fn check_entity(&self, id: EntityId) -> Result<()> {
        if id.index() < self.entities.len() {
            Ok(())
        } else {
            Err(Error::UnknownId {
                kind: "entity",
                index: id.raw(),
            })
        }
    }

    /// The schema graph `Gs(Vs, Es)` of this entity graph (Sec. 2), derived
    /// once and memoized for the graph's lifetime.
    ///
    /// Scoring, baselines and the serving layer all consult the schema graph
    /// repeatedly; the memoized borrow means none of them re-clones every
    /// type name. Call [`derive_schema_graph`](Self::derive_schema_graph) to
    /// force an uncached derivation (benches, equivalence tests).
    pub fn schema_graph(&self) -> &SchemaGraph {
        self.schema_cache.get_or_init(|| self.derive_schema_graph())
    }

    /// Derives the schema graph from scratch, bypassing the memo.
    ///
    /// Each entity type becomes a vertex annotated with the number of entities
    /// bearing that type; each relationship type with at least one edge
    /// becomes a schema edge annotated with its edge count.
    pub fn derive_schema_graph(&self) -> SchemaGraph {
        let entity_counts: Vec<u64> = (0..self.type_count())
            .map(|i| self.entities_by_type.slice(i).len() as u64)
            .collect();
        let mut schema_edges = Vec::new();
        for (idx, rel) in self.rel_types.iter().enumerate() {
            let count = self.edges_by_rel.slice(idx).len() as u64;
            if count == 0 {
                continue;
            }
            schema_edges.push(SchemaEdge {
                rel: RelTypeId::from_usize(idx),
                name: rel.name.clone(),
                src: rel.src_type,
                dst: rel.dst_type,
                edge_count: count,
            });
        }
        SchemaGraph::new(self.type_names.clone(), entity_counts, schema_edges)
    }

    /// Aggregate statistics (Table 2 of the paper).
    pub fn stats(&self) -> GraphStats {
        GraphStats {
            entities: self.entity_count(),
            edges: self.edge_count(),
            entity_types: self.type_count(),
            relationship_types: self.relationship_type_count(),
        }
    }

    /// Applies a batch of edits, producing the next frozen graph version by
    /// splicing the delta into this graph's CSR arrays — byte-identical to a
    /// from-scratch rebuild of the updated content, without re-running the
    /// full build. This graph is never modified; a failed batch (typed
    /// error) leaves everything as it was.
    ///
    /// See the [`delta`](crate::delta) module docs for batch semantics, the
    /// splice contract, and an example.
    ///
    /// # Errors
    ///
    /// Returns the first op that fails validation: [`Error::DuplicateEntity`],
    /// [`Error::EntityInUse`], [`Error::NoSuchEdge`], [`Error::UnknownName`]
    /// or [`Error::TypeMismatch`].
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<AppliedDelta> {
        let _span = preview_obs::span!(preview_obs::Stage::DeltaApply, ops = delta.ops().len());
        delta::apply(self, delta)
    }
}

/// Structural equality over the full storage: entities, name indexes, type
/// and relationship-type tables, the interner, the edge list and **every CSR
/// offset/payload array**. Two equal graphs are indistinguishable to any
/// reader — this is the equality the delta splice contract (spliced ==
/// rebuilt, see [`delta`](crate::delta)) is stated in. The memoized schema
/// cache is deliberately excluded: it is derived state.
impl PartialEq for EntityGraph {
    fn eq(&self, other: &Self) -> bool {
        self.entities == other.entities
            && self.entity_by_name == other.entity_by_name
            && self.type_names == other.type_names
            && self.type_by_name == other.type_by_name
            && self.rel_types == other.rel_types
            && self.rel_names == other.rel_names
            && self.rel_by_key == other.rel_by_key
            && self.edges == other.edges
            && self.entities_by_type == other.entities_by_type
            && self.edges_by_rel == other.edges_by_rel
            && self.out_edges == other.out_edges
            && self.in_edges == other.in_edges
            && self.out_neighbors == other.out_neighbors
            && self.in_neighbors == other.in_neighbors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EntityGraphBuilder;

    fn tiny() -> EntityGraph {
        let mut b = EntityGraphBuilder::new();
        let film = b.entity_type("FILM");
        let actor = b.entity_type("FILM ACTOR");
        let acted = b.relationship_type("Actor", actor, film);
        let mib = b.entity("Men in Black", &[film]);
        let hancock = b.entity("Hancock", &[film]);
        let smith = b.entity("Will Smith", &[actor]);
        b.edge(smith, acted, mib).unwrap();
        b.edge(smith, acted, hancock).unwrap();
        b.build()
    }

    #[test]
    fn counts() {
        let g = tiny();
        assert_eq!(g.entity_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.type_count(), 2);
        assert_eq!(g.relationship_type_count(), 1);
    }

    #[test]
    fn lookups_by_name() {
        let g = tiny();
        let film = g.type_by_name("FILM").unwrap();
        assert_eq!(g.type_name(film), "FILM");
        let smith = g.entity_by_name("Will Smith").unwrap();
        assert_eq!(g.entity(smith).name, "Will Smith");
        assert!(g.entity_by_name("Nobody").is_none());
        assert!(g.type_by_name("NOPE").is_none());
    }

    #[test]
    fn rel_type_lookup_borrows_and_misses_cleanly() {
        let g = tiny();
        let film = g.type_by_name("FILM").unwrap();
        let actor = g.type_by_name("FILM ACTOR").unwrap();
        assert!(g.rel_type_by_key("Actor", actor, film).is_some());
        // Unknown surface name, and known name with wrong endpoints.
        assert!(g.rel_type_by_key("Director", actor, film).is_none());
        assert!(g.rel_type_by_key("Actor", film, actor).is_none());
    }

    #[test]
    fn entities_of_type_groups_correctly() {
        let g = tiny();
        let film = g.type_by_name("FILM").unwrap();
        let actor = g.type_by_name("FILM ACTOR").unwrap();
        assert_eq!(g.entities_of_type(film).len(), 2);
        assert_eq!(g.entities_of_type(actor).len(), 1);
    }

    #[test]
    fn neighbors_via_follows_direction() {
        let g = tiny();
        let film = g.type_by_name("FILM").unwrap();
        let actor = g.type_by_name("FILM ACTOR").unwrap();
        let acted = g.rel_type_by_key("Actor", actor, film).unwrap();
        let smith = g.entity_by_name("Will Smith").unwrap();
        let mib = g.entity_by_name("Men in Black").unwrap();

        let films = g.neighbors_via(smith, acted, Direction::Outgoing);
        assert_eq!(films.len(), 2);
        let actors = g.neighbors_via(mib, acted, Direction::Incoming);
        assert_eq!(actors, &[smith]);
        // No outgoing "Actor" edges from a film.
        assert!(g.neighbors_via(mib, acted, Direction::Outgoing).is_empty());
    }

    #[test]
    fn neighbors_via_dedups_parallel_edges() {
        let mut b = EntityGraphBuilder::new();
        let film = b.entity_type("FILM");
        let actor = b.entity_type("FILM ACTOR");
        let acted = b.relationship_type("Actor", actor, film);
        let mib = b.entity("Men in Black", &[film]);
        let smith = b.entity("Will Smith", &[actor]);
        b.edge(smith, acted, mib).unwrap();
        b.edge(smith, acted, mib).unwrap();
        let g = b.build();
        assert_eq!(g.out_edges(smith).len(), 2);
        assert_eq!(g.neighbors_via(smith, acted, Direction::Outgoing), &[mib]);
    }

    #[test]
    fn schema_graph_derivation() {
        let g = tiny();
        let s = g.schema_graph();
        assert_eq!(s.type_count(), 2);
        assert_eq!(s.relationship_type_count(), 1);
        let film = g.type_by_name("FILM").unwrap();
        assert_eq!(s.entity_count_of(film), 2);
        assert_eq!(s.edges()[0].edge_count, 2);
    }

    #[test]
    fn schema_graph_is_memoized() {
        let g = tiny();
        let a: *const SchemaGraph = g.schema_graph();
        let b: *const SchemaGraph = g.schema_graph();
        assert_eq!(a, b, "repeated calls return the same memoized instance");
        // The uncached derivation produces an equivalent graph.
        let fresh = g.derive_schema_graph();
        assert_eq!(fresh.type_count(), g.schema_graph().type_count());
        assert_eq!(
            fresh.relationship_type_count(),
            g.schema_graph().relationship_type_count()
        );
    }

    #[test]
    fn check_entity_bounds() {
        let g = tiny();
        assert!(g.check_entity(EntityId::new(0)).is_ok());
        assert!(g.check_entity(EntityId::new(99)).is_err());
    }

    #[test]
    fn stats_match_counts() {
        let g = tiny();
        let s = g.stats();
        assert_eq!(s.entities, 3);
        assert_eq!(s.edges, 2);
        assert_eq!(s.entity_types, 2);
        assert_eq!(s.relationship_types, 1);
    }
}
