//! Facade crate for the *preview-tables* workspace.
//!
//! This crate re-exports the public API of every workspace member so that a
//! downstream user can depend on `preview-tables` alone:
//!
//! * [`graph`] — the entity-graph substrate (typed directed multigraph in a
//!   compact CSR columnar layout with zero-allocation neighbor lookup,
//!   memoized schema-graph derivation, triple ingestion, distances,
//!   statistics, and the `GraphDelta` batched-update subsystem whose CSR
//!   splice is byte-identical to a from-scratch rebuild),
//! * [`core`] — the paper's contribution: preview model, scoring measures and
//!   the brute-force / dynamic-programming / Apriori discovery algorithms,
//!   plus a best-first branch-and-bound engine with admissible bounds and an
//!   anytime mode (`core::BestFirstDiscovery`),
//! * [`baseline`] — the YPS09 relational-database-summarisation baseline
//!   adapted to entity graphs,
//! * [`datagen`] — synthetic Freebase-like domain generation, gold standards
//!   and the simulated crowdsourcing / user study used in the evaluation,
//! * [`eval`] — ranking metrics, correlation, hypothesis testing and
//!   descriptive statistics used to regenerate the paper's tables and figures,
//! * [`service`] — the concurrent, cached preview-serving engine (graph
//!   registry, worker pool, sharded LRU result cache, latency statistics);
//!   see its crate docs for the register → serve → stats quick-start.
//!
//! See `examples/quickstart.rs` for a five-minute tour and
//! `examples/preview_service.rs` for the serving layer.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use baseline;
pub use datagen;
pub use entity_graph as graph;
pub use eval;
pub use preview_core as core;
pub use preview_service as service;

/// Convenience prelude re-exporting the most commonly used items.
pub mod prelude {
    pub use baseline::Yps09Summarizer;
    pub use datagen::{DomainSpec, FreebaseDomain, SyntheticGenerator};
    pub use entity_graph::{
        Direction, EntityGraph, EntityGraphBuilder, EntityId, GraphDelta, RelTypeId, SchemaGraph,
        TypeId,
    };
    pub use preview_core::{
        AnytimeBudget, AnytimeOutcome, AprioriDiscovery, BestFirstDiscovery, BruteForceDiscovery,
        DistanceConstraint, DynamicProgrammingDiscovery, KeyScoring, NonKeyScoring, Preview,
        PreviewDiscovery, PreviewSpace, ScoredSchema, ScoringConfig, SizeConstraint,
    };
    pub use preview_service::{
        Algorithm, GraphRegistry, PreviewRequest, PreviewResponse, PreviewService, ServiceConfig,
    };
}
