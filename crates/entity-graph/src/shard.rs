//! Sharded CSR graph storage: one logical [`EntityGraph`] partitioned across
//! N per-shard indexes for million-entity scale.
//!
//! The monolithic graph keeps every adjacency index in single flat arrays —
//! ideal for cache-friendly scans, but one allocation must hold the whole
//! payload, builds are single-threaded over one array set, and delta splices
//! rewrite the full index even when an edit touches one entity. A
//! [`ShardedGraph`] keeps the logical graph (names, types, edge list, delta
//! validation) intact and re-homes the **hot neighbor storage**:
//!
//! * a [`ShardingStrategy`] assigns every entity to one of N shards — by its
//!   (first) entity type, so same-type entities scan together, or by a
//!   deterministic hash of its id, for uniform balance;
//! * a **shard directory** maps `EntityId → (shard, local id)` in one flat
//!   `Vec` lookup;
//! * each [`GraphShard`] stores its members' neighbor segments
//!   varint/delta-encoded ([`crate::encoding`]) plus a per-type member index,
//!   so per-shard scans need no directory chasing;
//! * [`MemoryReport`] accounts the bytes of every shard and the total,
//!   against the unsharded index footprint.
//!
//! Shards are fully independent after planning, so builds and delta
//! re-splices run one shard per task on a few scoped threads, and all derived
//! results — decoded neighbor sets, entropy scores, delta outcomes — are
//! **bitwise identical** to the unsharded path, because the encoding is
//! canonical and shard membership is deterministic.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;

use crate::csr::Csr;
use crate::delta::{DeltaOp, DeltaSummary, GraphDelta};
use crate::encoding::{EncodedNeighbors, EncodedNeighborsBuilder};
use crate::error::Result;
use crate::graph::{Direction, EntityGraph};
use crate::id::{EntityId, RelTypeId, TypeId};

/// How a [`ShardedGraph`] assigns entities to shards.
///
/// Both strategies are deterministic functions of stable identifiers (type
/// ids and entity construction order), so the same graph always shards the
/// same way — a requirement for the byte-identical delta contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardingStrategy {
    /// Shard by the entity's first (lowest) entity type id, modulo the shard
    /// count. Entities of one type land in one shard, so type-driven scans
    /// (entropy scoring walks `T.τ`) touch few shards; shard sizes follow the
    /// type-size distribution.
    ByEntityType {
        /// Number of shards (clamped to ≥ 1).
        shards: usize,
    },
    /// Shard by a multiplicative hash of the raw entity id, modulo the shard
    /// count. Near-uniform shard sizes regardless of the type distribution.
    ByIdHash {
        /// Number of shards (clamped to ≥ 1).
        shards: usize,
    },
}

impl ShardingStrategy {
    /// The number of shards this strategy produces (≥ 1).
    pub fn shard_count(&self) -> usize {
        let shards = match *self {
            ShardingStrategy::ByEntityType { shards } | ShardingStrategy::ByIdHash { shards } => {
                shards
            }
        };
        shards.clamp(1, u32::MAX as usize)
    }

    /// The shard the given entity of `graph` belongs to.
    fn shard_of(&self, graph: &EntityGraph, entity: EntityId) -> u32 {
        let count = self.shard_count() as u32;
        match *self {
            ShardingStrategy::ByEntityType { .. } => {
                // Entity type sets are sorted; the first entry is the lowest
                // type id. Type ids are append-only across deltas and an
                // existing entity's types never change, so the assignment is
                // stable across versions.
                let ty = graph.entity(entity).types.first().map_or(0, |ty| ty.raw());
                ty % count
            }
            ShardingStrategy::ByIdHash { .. } => {
                // Fibonacci multiplicative hash: cheap, deterministic and
                // spreads consecutive construction-order ids uniformly.
                entity.raw().wrapping_mul(0x9e37_79b9) % count
            }
        }
    }
}

/// One entry of the shard directory: where an entity lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLoc {
    /// Index of the owning shard.
    pub shard: u32,
    /// The entity's local index within that shard.
    pub local: u32,
}

/// Computes the shard directory and per-shard member lists (ascending global
/// ids) for a graph under a strategy.
fn plan(graph: &EntityGraph, strategy: ShardingStrategy) -> (Vec<ShardLoc>, Vec<Vec<EntityId>>) {
    let count = strategy.shard_count();
    let mut members: Vec<Vec<EntityId>> = vec![Vec::new(); count];
    let mut directory = Vec::with_capacity(graph.entity_count());
    for index in 0..graph.entity_count() {
        let id = EntityId::from_usize(index);
        let shard = strategy.shard_of(graph, id);
        let list = &mut members[shard as usize];
        directory.push(ShardLoc {
            shard,
            local: u32::try_from(list.len()).expect("shard members fit in u32"),
        });
        list.push(id);
    }
    (directory, members)
}

/// One CSR shard: the neighbor storage of its member entities, with
/// varint/delta-encoded payloads and a per-type member index.
///
/// Neighbor ids are **global** [`EntityId`]s (edges cross shards freely); the
/// shard only owns the storage of its members' segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphShard {
    /// The shard's member entities, ascending by global id; index = local id.
    globals: Vec<EntityId>,
    /// Local member ids grouped by (global) entity type.
    by_type: Csr<u32>,
    /// Encoded outgoing neighbor segments, indexed by local id.
    out: EncodedNeighbors,
    /// Encoded incoming neighbor segments, indexed by local id.
    inc: EncodedNeighbors,
}

impl GraphShard {
    /// Builds one shard of `graph` from its member list (ascending global
    /// ids), encoding every member's neighbor segments.
    pub fn build(graph: &EntityGraph, members: &[EntityId]) -> Self {
        Self::build_inner(graph, members, None)
    }

    /// Shared construction: encode every member fresh, or block-copy the
    /// encoded segments of provably-untouched members from a previous
    /// version (`fast` = old sharded graph, touched flags, old entity count).
    fn build_inner(
        graph: &EntityGraph,
        members: &[EntityId],
        fast: Option<(&ShardedGraph, &[bool], usize)>,
    ) -> Self {
        let globals = members.to_vec();
        let type_pairs: Vec<(usize, u32)> = globals
            .iter()
            .enumerate()
            .flat_map(|(local, &global)| {
                graph
                    .entity(global)
                    .types
                    .iter()
                    .map(move |ty| (ty.index(), local as u32))
            })
            .collect();
        let by_type = Csr::from_pairs(graph.type_count(), &type_pairs);
        let encode = |direction: Direction| {
            let mut builder = EncodedNeighborsBuilder::new(globals.len());
            for &global in &globals {
                let copied = fast.is_some_and(|(old, touched, old_count)| {
                    let index = global.index();
                    if index >= old_count || touched[index] {
                        return false;
                    }
                    let loc = old.directory[index];
                    let source = match direction {
                        Direction::Outgoing => &old.shards[loc.shard as usize].out,
                        Direction::Incoming => &old.shards[loc.shard as usize].inc,
                    };
                    builder.copy_entity_verbatim(source, loc.local as usize);
                    true
                });
                if !copied {
                    for (rel, ids) in graph.neighbor_segments(global, direction) {
                        builder.push_segment(rel, ids);
                    }
                    builder.finish_entity();
                }
            }
            builder.build()
        };
        let out = encode(Direction::Outgoing);
        let inc = encode(Direction::Incoming);
        Self {
            globals,
            by_type,
            out,
            inc,
        }
    }

    /// Number of member entities.
    #[inline]
    pub fn entity_count(&self) -> usize {
        self.globals.len()
    }

    /// The member entities, ascending by global id; position = local id.
    #[inline]
    pub fn globals(&self) -> &[EntityId] {
        &self.globals
    }

    /// The global id of a local member index.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of range.
    #[inline]
    pub fn global_of(&self, local: usize) -> EntityId {
        self.globals[local]
    }

    /// The shard's member entities bearing `ty`, as local indexes.
    #[inline]
    pub fn locals_of_type(&self, ty: TypeId) -> &[u32] {
        self.by_type.slice(ty.index())
    }

    /// The canonical encoded bytes of a member's neighbor set through `rel`
    /// in the given direction, or `None` if empty (see
    /// [`EncodedNeighbors::encoded`]).
    #[inline]
    pub fn encoded(&self, local: usize, rel: RelTypeId, direction: Direction) -> Option<&[u8]> {
        match direction {
            Direction::Outgoing => self.out.encoded(local, rel),
            Direction::Incoming => self.inc.encoded(local, rel),
        }
    }

    /// Decodes a member's neighbor set into `out` (cleared first); returns
    /// `true` if the member has neighbors through `rel`.
    pub fn decode_neighbors(
        &self,
        local: usize,
        rel: RelTypeId,
        direction: Direction,
        out: &mut Vec<EntityId>,
    ) -> bool {
        match direction {
            Direction::Outgoing => self.out.decode_neighbors(local, rel, out),
            Direction::Incoming => self.inc.decode_neighbors(local, rel, out),
        }
    }

    /// This shard's memory accounting.
    pub fn memory(&self, shard: usize) -> ShardMemoryReport {
        let encoded_payload_bytes = (self.out.payload_bytes() + self.inc.payload_bytes()) as u64;
        let total_bytes = self.out.heap_bytes()
            + self.inc.heap_bytes()
            + (self.globals.len() * std::mem::size_of::<EntityId>()) as u64
            + self.by_type.heap_bytes();
        ShardMemoryReport {
            shard,
            entities: self.globals.len(),
            segments: self.out.segment_count() + self.inc.segment_count(),
            encoded_payload_bytes,
            directory_bytes: total_bytes - encoded_payload_bytes,
            total_bytes,
        }
    }
}

/// Memory accounting of one [`GraphShard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMemoryReport {
    /// Shard index.
    pub shard: usize,
    /// Member entity count.
    pub entities: usize,
    /// Stored (entity, rel) segments, both directions combined.
    pub segments: usize,
    /// Varint/delta-encoded neighbor payload bytes, both directions.
    pub encoded_payload_bytes: u64,
    /// Bytes of segment directories, the member list and the per-type index.
    pub directory_bytes: u64,
    /// Total shard bytes (`encoded_payload_bytes + directory_bytes`).
    pub total_bytes: u64,
}

/// Memory accounting of a whole [`ShardedGraph`] — per shard and total,
/// against the unsharded index it replaces.
///
/// Read it as: the sharded neighbor storage costs
/// [`sharded_total_bytes`](Self::sharded_total_bytes) (payload plus all
/// directories, including the global entity→shard directory), versus
/// [`unsharded_total_bytes`](Self::unsharded_total_bytes) for the monolithic
/// `RelGroupedNeighbors` pair; [`payload_compression`](Self::payload_compression)
/// is the raw-`u32`-payload to encoded-payload ratio (> 1 means the varint
/// encoding is winning).
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryReport {
    /// Number of shards.
    pub shard_count: usize,
    /// Entities in the logical graph.
    pub entities: usize,
    /// Edges in the logical graph.
    pub edges: usize,
    /// Per-shard accounting, by shard index.
    pub shards: Vec<ShardMemoryReport>,
    /// Bytes of the global `EntityId → (shard, local)` directory.
    pub shard_directory_bytes: u64,
    /// Total encoded neighbor payload bytes over all shards.
    pub encoded_payload_bytes: u64,
    /// Total sharded storage: all shards plus the shard directory.
    pub sharded_total_bytes: u64,
    /// Raw `u32` neighbor payload bytes of the unsharded index (both
    /// directions).
    pub unsharded_payload_bytes: u64,
    /// Full heap bytes of the unsharded neighbor indexes (payload plus
    /// segment directories, both directions).
    pub unsharded_total_bytes: u64,
}

impl MemoryReport {
    /// Raw-payload to encoded-payload compression ratio (> 1 = smaller
    /// encoded). `1.0` for empty graphs.
    pub fn payload_compression(&self) -> f64 {
        if self.encoded_payload_bytes == 0 {
            1.0
        } else {
            self.unsharded_payload_bytes as f64 / self.encoded_payload_bytes as f64
        }
    }

    /// Whether the total sharded storage fits a byte budget.
    pub fn fits_budget(&self, budget_bytes: u64) -> bool {
        self.sharded_total_bytes <= budget_bytes
    }
}

impl fmt::Display for MemoryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "sharded storage: {} entities, {} edges across {} shard(s)",
            self.entities, self.edges, self.shard_count
        )?;
        for shard in &self.shards {
            writeln!(
                f,
                "  shard {:>3}: {:>9} entities {:>9} segments {:>12} payload B {:>12} total B",
                shard.shard,
                shard.entities,
                shard.segments,
                shard.encoded_payload_bytes,
                shard.total_bytes
            )?;
        }
        writeln!(
            f,
            "  directory: {} B  encoded payload: {} B  sharded total: {} B",
            self.shard_directory_bytes, self.encoded_payload_bytes, self.sharded_total_bytes
        )?;
        write!(
            f,
            "  unsharded payload: {} B  unsharded total: {} B  payload compression: {:.2}x",
            self.unsharded_payload_bytes,
            self.unsharded_total_bytes,
            self.payload_compression()
        )
    }
}

/// The outcome of [`ShardedGraph::apply_delta`]: the next sharded version
/// plus the same [`DeltaSummary`] the unsharded apply produces.
#[derive(Debug, Clone)]
pub struct AppliedShardedDelta {
    /// The new sharded graph.
    pub sharded: ShardedGraph,
    /// What changed relative to the input version.
    pub summary: DeltaSummary,
    /// Whether the identity splice fast path applied (no pre-existing
    /// entity removed: untouched shards were block-copied). `false` means
    /// the delta forced a full reshard.
    pub spliced: bool,
    /// Shards whose storage had to be rebuilt rather than block-copied:
    /// shards holding a delta-touched or newly added entity on the splice
    /// path, or every shard on a full reshard.
    pub touched_shards: usize,
}

/// A logical [`EntityGraph`] partitioned across N [`GraphShard`]s (see the
/// [module docs](self)).
///
/// The inner graph stays the source of truth for names, types, the edge list,
/// schema derivation and delta validation; the shards replace the monolithic
/// neighbor indexes for storage-bound workloads. Cloning is cheap on the
/// logical side (`Arc`) and deep on shard storage.
#[derive(Debug, Clone)]
pub struct ShardedGraph {
    graph: Arc<EntityGraph>,
    strategy: ShardingStrategy,
    directory: Vec<ShardLoc>,
    shards: Vec<GraphShard>,
}

impl ShardedGraph {
    /// Shards `graph` under `strategy`. The shards build in parallel, one
    /// shard per task on at most `available_parallelism` scoped threads; the
    /// result does not depend on how the tasks were scheduled.
    pub fn from_graph(graph: Arc<EntityGraph>, strategy: ShardingStrategy) -> Self {
        let mut span = preview_obs::span!(preview_obs::Stage::ShardedBuild);
        let (directory, members) = plan(&graph, strategy);
        span.set_attr(members.len() as u64);
        let shards = build_shards(members.len(), |shard| {
            GraphShard::build(&graph, &members[shard])
        });
        Self {
            graph,
            strategy,
            directory,
            shards,
        }
    }

    /// The logical graph this sharded view stores.
    pub fn graph(&self) -> &Arc<EntityGraph> {
        &self.graph
    }

    /// The strategy entities were assigned with.
    pub fn strategy(&self) -> ShardingStrategy {
        self.strategy
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, by shard index.
    pub fn shards(&self) -> &[GraphShard] {
        &self.shards
    }

    /// The shard directory: entry `i` locates entity `i`.
    pub fn directory(&self) -> &[ShardLoc] {
        &self.directory
    }

    /// Where an entity lives.
    ///
    /// # Panics
    ///
    /// Panics if `entity` is out of range.
    #[inline]
    pub fn locate(&self, entity: EntityId) -> ShardLoc {
        self.directory[entity.index()]
    }

    /// Decodes an entity's neighbor set through `rel` into `out` (cleared
    /// first) by routing through the shard directory; returns `true` if
    /// non-empty. The decoded ids equal
    /// [`EntityGraph::neighbors_via`] on the logical graph, element for
    /// element.
    pub fn neighbors_via_decoded(
        &self,
        entity: EntityId,
        rel: RelTypeId,
        direction: Direction,
        out: &mut Vec<EntityId>,
    ) -> bool {
        let loc = self.locate(entity);
        self.shards[loc.shard as usize].decode_neighbors(loc.local as usize, rel, direction, out)
    }

    /// Applies a batch of edits, producing the next sharded version —
    /// validation and the logical splice are exactly
    /// [`EntityGraph::apply_delta`]; shard storage is then re-spliced
    /// per shard, block-copying the encoded segments of every entity the
    /// delta provably did not touch.
    ///
    /// The result equals [`from_graph`](Self::from_graph) on the spliced
    /// logical graph, field for field
    /// (`encoding_props.rs::sharded_apply_delta_matches_reshard_from_scratch`
    /// enforces this under random deltas). Shards re-splice in parallel, like
    /// a build.
    ///
    /// # Errors
    ///
    /// Exactly those of [`EntityGraph::apply_delta`]; a failed batch leaves
    /// this version untouched.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<AppliedShardedDelta> {
        let applied = self.graph.apply_delta(delta)?;
        let summary = applied.summary;
        let new_graph = Arc::new(applied.graph);
        let (directory, members) = plan(&new_graph, self.strategy);
        let old_entity_count = self.graph.entity_count();
        // Fast path: when no pre-existing entity was removed, entity ids are
        // stable, so every untouched survivor's neighbor sets — and therefore
        // its canonical encoded bytes — are unchanged and can be block-copied
        // from the previous version. (The unsharded splice proves the
        // underlying neighbor slices byte-identical under the same
        // condition.)
        let identity = summary.entities_removed == 0;
        let touched = if identity {
            touched_entities(&new_graph, delta)
        } else {
            Vec::new()
        };
        // A shard is "touched" if its storage cannot be block-copied
        // wholesale: it gained a new entity or holds a delta-touched one.
        // On a full reshard every shard rebuilds.
        let touched_shards = if identity {
            members
                .iter()
                .filter(|shard_members| {
                    shard_members
                        .iter()
                        .any(|e| e.index() >= old_entity_count || touched[e.index()])
                })
                .count()
        } else {
            members.len()
        };
        let mut span = preview_obs::span!(preview_obs::Stage::ShardSplice);
        span.set_attr(touched_shards as u64);
        let shards = build_shards(members.len(), |shard| {
            if identity {
                GraphShard::build_inner(
                    &new_graph,
                    &members[shard],
                    Some((self, &touched, old_entity_count)),
                )
            } else {
                GraphShard::build(&new_graph, &members[shard])
            }
        });
        Ok(AppliedShardedDelta {
            sharded: ShardedGraph {
                graph: new_graph,
                strategy: self.strategy,
                directory,
                shards,
            },
            summary,
            spliced: identity,
            touched_shards,
        })
    }

    /// Memory accounting per shard and total (see [`MemoryReport`]).
    pub fn memory_report(&self) -> MemoryReport {
        let shards: Vec<ShardMemoryReport> = self
            .shards
            .iter()
            .enumerate()
            .map(|(index, shard)| shard.memory(index))
            .collect();
        let shard_directory_bytes = (self.directory.len() * std::mem::size_of::<ShardLoc>()) as u64;
        let encoded_payload_bytes = shards.iter().map(|s| s.encoded_payload_bytes).sum();
        let sharded_total_bytes =
            shards.iter().map(|s| s.total_bytes).sum::<u64>() + shard_directory_bytes;
        let (unsharded_payload_bytes, unsharded_total_bytes) = self.graph.neighbor_index_bytes();
        MemoryReport {
            shard_count: self.shards.len(),
            entities: self.graph.entity_count(),
            edges: self.graph.edge_count(),
            shards,
            shard_directory_bytes,
            encoded_payload_bytes,
            sharded_total_bytes,
            unsharded_payload_bytes,
            unsharded_total_bytes,
        }
    }
}

/// Structural equality over the full sharded storage **and** the logical
/// graph — the equality the sharded delta contract is stated in: a spliced
/// sharded version equals a from-scratch [`ShardedGraph::from_graph`] of the
/// spliced logical graph.
impl PartialEq for ShardedGraph {
    fn eq(&self, other: &Self) -> bool {
        self.strategy == other.strategy
            && self.directory == other.directory
            && self.shards == other.shards
            && *self.graph == *other.graph
    }
}

/// Builds shards `0..count` with `build` on `min(available_parallelism,
/// count)` scoped threads, the caller included.
///
/// Workers claim shard indices one at a time from a shared cursor, so a
/// worker that draws cheap block-copied shards takes more of them than one
/// that draws rebuilt shards. Each shard is stored at its own index, so the
/// result is `(0..count).map(build).collect()` whatever the schedule.
fn build_shards<F>(count: usize, build: F) -> Vec<GraphShard>
where
    F: Fn(usize) -> GraphShard + Sync,
{
    static PARALLELISM: OnceLock<usize> = OnceLock::new();
    let parallelism =
        *PARALLELISM.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()));
    let workers = parallelism.min(count);
    if workers <= 1 {
        return (0..count).map(build).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<OnceLock<GraphShard>> = (0..count).map(|_| OnceLock::new()).collect();
    let run = || loop {
        // lint: ordering-ok(the cursor only hands out distinct indices; the scope join publishes the shards)
        let index = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = slots.get(index) else {
            break;
        };
        let _ = slot.set(build(index));
    };
    thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(run);
        }
        run();
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("every shard index is claimed once")
        })
        .collect()
}

/// Conservative over-approximation of the **new-graph** entities whose
/// neighbor sets a delta may have changed, valid only when the delta removed
/// no pre-existing entity (ids and names of survivors are then stable).
///
/// Every add-edge/remove-edge op marks both endpoint names as resolved in
/// the new graph. This covers all actually-touched survivors: endpoints of
/// removed old edges are pre-existing entities whose names still resolve to
/// the same ids, and endpoints of surviving added edges resolve to their
/// live entities. A name that no longer resolves belonged to an entity
/// added and removed within the batch — it has no storage to preserve. A
/// name rebound within the batch can only over-mark (marking an entity
/// touched merely re-encodes it, which is always sound).
fn touched_entities(new_graph: &EntityGraph, delta: &GraphDelta) -> Vec<bool> {
    let mut touched = vec![false; new_graph.entity_count()];
    let mut mark = |name: &str| {
        if let Some(id) = new_graph.entity_by_name(name) {
            touched[id.index()] = true;
        }
    };
    for op in delta.ops() {
        match op {
            DeltaOp::AddEdge { src, dst, .. } | DeltaOp::RemoveEdge { src, dst, .. } => {
                mark(src);
                mark(dst);
            }
            DeltaOp::AddEntity { .. } | DeltaOp::RemoveEntity { .. } => {}
        }
    }
    touched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    fn strategies() -> [ShardingStrategy; 4] {
        [
            ShardingStrategy::ByEntityType { shards: 1 },
            ShardingStrategy::ByEntityType { shards: 3 },
            ShardingStrategy::ByIdHash { shards: 4 },
            ShardingStrategy::ByIdHash { shards: 64 },
        ]
    }

    /// Every neighbor set decoded from the shards equals the logical graph's
    /// borrowed slice, for every entity, rel and direction.
    fn assert_matches_graph(sharded: &ShardedGraph) {
        let graph = sharded.graph();
        let mut decoded = Vec::new();
        for (id, _) in graph.entities() {
            for (rel, _) in graph.rel_types() {
                for direction in [Direction::Outgoing, Direction::Incoming] {
                    let expected = graph.neighbors_via(id, rel, direction);
                    let found = sharded.neighbors_via_decoded(id, rel, direction, &mut decoded);
                    assert_eq!(found, !expected.is_empty());
                    assert_eq!(decoded, expected, "entity {id:?} rel {rel:?} {direction:?}");
                }
            }
        }
        // The directory and per-type indexes partition the entity set.
        let total: usize = sharded.shards().iter().map(GraphShard::entity_count).sum();
        assert_eq!(total, graph.entity_count());
        for (index, shard) in sharded.shards().iter().enumerate() {
            for (local, &global) in shard.globals().iter().enumerate() {
                assert_eq!(
                    sharded.locate(global),
                    ShardLoc {
                        shard: index as u32,
                        local: local as u32
                    }
                );
                assert_eq!(shard.global_of(local), global);
            }
            assert!(shard.globals().windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn sharded_figure1_matches_unsharded_under_all_strategies() {
        let graph = Arc::new(fixtures::figure1_graph());
        for strategy in strategies() {
            let sharded = ShardedGraph::from_graph(Arc::clone(&graph), strategy);
            assert_eq!(sharded.shard_count(), strategy.shard_count());
            assert_matches_graph(&sharded);
        }
    }

    #[test]
    fn locals_of_type_cover_entities_of_type() {
        let graph = Arc::new(fixtures::figure1_graph());
        let sharded =
            ShardedGraph::from_graph(Arc::clone(&graph), ShardingStrategy::ByIdHash { shards: 3 });
        for (ty, _) in graph.types() {
            let mut via_shards: Vec<EntityId> = sharded
                .shards()
                .iter()
                .flat_map(|shard| {
                    shard
                        .locals_of_type(ty)
                        .iter()
                        .map(|&local| shard.global_of(local as usize))
                })
                .collect();
            via_shards.sort_unstable();
            let mut expected = graph.entities_of_type(ty).to_vec();
            expected.sort_unstable();
            assert_eq!(via_shards, expected);
        }
    }

    #[test]
    fn build_shards_matches_a_sequential_build() {
        let graph = fixtures::figure1_graph();
        for shards in [1, 2, 7, 64] {
            let (_, members) = plan(&graph, ShardingStrategy::ByIdHash { shards });
            let sequential: Vec<GraphShard> = members
                .iter()
                .map(|shard_members| GraphShard::build(&graph, shard_members))
                .collect();
            let built = build_shards(members.len(), |shard| {
                GraphShard::build(&graph, &members[shard])
            });
            assert_eq!(built, sequential, "{shards} shards");
        }
    }

    #[test]
    fn apply_delta_equals_resharded_rebuild() {
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
            let applied = sharded.apply_delta(&delta).unwrap();
            let reference = ShardedGraph::from_graph(Arc::clone(applied.sharded.graph()), strategy);
            assert_eq!(applied.sharded, reference, "{strategy:?}");
            assert_matches_graph(&applied.sharded);
            assert_eq!(applied.summary.entities_added, 1);
        }
    }

    #[test]
    fn apply_delta_with_removals_reshards_correctly() {
        let graph = Arc::new(fixtures::figure1_graph());
        let mut delta = GraphDelta::new();
        delta
            .remove_edge(
                "Men in Black",
                "Genres",
                "Action Film",
                "FILM",
                "FILM GENRE",
            )
            .remove_edge(
                "Men in Black II",
                "Genres",
                "Action Film",
                "FILM",
                "FILM GENRE",
            )
            .remove_edge("I, Robot", "Genres", "Action Film", "FILM", "FILM GENRE")
            .remove_entity("Action Film");
        for strategy in strategies() {
            let sharded = ShardedGraph::from_graph(Arc::clone(&graph), strategy);
            let applied = sharded.apply_delta(&delta).unwrap();
            assert_eq!(applied.summary.entities_removed, 1);
            let reference = ShardedGraph::from_graph(Arc::clone(applied.sharded.graph()), strategy);
            assert_eq!(applied.sharded, reference, "{strategy:?}");
            assert_matches_graph(&applied.sharded);
        }
    }

    #[test]
    fn failed_delta_leaves_sharded_version_untouched() {
        let graph = Arc::new(fixtures::figure1_graph());
        let sharded =
            ShardedGraph::from_graph(Arc::clone(&graph), ShardingStrategy::ByIdHash { shards: 2 });
        let mut delta = GraphDelta::new();
        delta.remove_entity("Men in Black"); // still referenced by edges
        assert!(sharded.apply_delta(&delta).is_err());
        assert_matches_graph(&sharded);
    }

    #[test]
    fn memory_report_accounts_all_shards() {
        let graph = Arc::new(fixtures::figure1_graph());
        let sharded =
            ShardedGraph::from_graph(Arc::clone(&graph), ShardingStrategy::ByIdHash { shards: 3 });
        let report = sharded.memory_report();
        assert_eq!(report.shard_count, 3);
        assert_eq!(report.entities, graph.entity_count());
        assert_eq!(report.edges, graph.edge_count());
        assert_eq!(report.shards.len(), 3);
        assert_eq!(
            report.encoded_payload_bytes,
            report
                .shards
                .iter()
                .map(|s| s.encoded_payload_bytes)
                .sum::<u64>()
        );
        assert!(report.sharded_total_bytes > report.encoded_payload_bytes);
        assert!(report.unsharded_total_bytes >= report.unsharded_payload_bytes);
        assert!(report.payload_compression() > 0.0);
        assert!(report.fits_budget(u64::MAX));
        assert!(!report.fits_budget(0));
        let rendered = report.to_string();
        assert!(rendered.contains("shard"));
        assert!(rendered.contains("compression"));
    }

    #[test]
    fn empty_graph_shards_cleanly() {
        let graph = Arc::new(crate::builder::EntityGraphBuilder::new().build());
        let sharded = ShardedGraph::from_graph(
            Arc::clone(&graph),
            ShardingStrategy::ByEntityType { shards: 4 },
        );
        assert_eq!(sharded.shard_count(), 4);
        assert_eq!(sharded.memory_report().encoded_payload_bytes, 0);
        assert!((sharded.memory_report().payload_compression() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn strategy_shard_count_clamps_to_one() {
        assert_eq!(ShardingStrategy::ByIdHash { shards: 0 }.shard_count(), 1);
        assert_eq!(
            ShardingStrategy::ByEntityType { shards: 0 }.shard_count(),
            1
        );
        assert_eq!(ShardingStrategy::ByIdHash { shards: 7 }.shard_count(), 7);
    }
}
