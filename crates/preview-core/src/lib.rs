//! Preview tables for entity graphs — the core library of this workspace.
//!
//! This crate implements the primary contribution of *Generating Preview
//! Tables for Entity Graphs* (Yan, Hasani, Asudeh, Li; SIGMOD 2016):
//!
//! * the preview data model ([`Preview`], [`PreviewTable`], [`NonKeyAttr`],
//!   Def. 1),
//! * goodness measures for key and non-key attributes ([`scoring`], Sec. 3),
//! * the concise / tight / diverse optimisation problems ([`SizeConstraint`],
//!   [`DistanceConstraint`], [`PreviewSpace`], Sec. 4),
//! * the discovery algorithms ([`BruteForceDiscovery`],
//!   [`DynamicProgrammingDiscovery`], [`AprioriDiscovery`], Sec. 5), plus a
//!   best-first branch-and-bound engine with an anytime mode
//!   ([`BestFirstDiscovery`], this work).
//!
//! # Quick start
//!
//! ```
//! use entity_graph::fixtures;
//! use preview_core::{
//!     DynamicProgrammingDiscovery, PreviewDiscovery, PreviewSpace, ScoredSchema, ScoringConfig,
//! };
//!
//! // The paper's Fig. 1 entity graph.
//! let graph = fixtures::figure1_graph();
//!
//! // Pre-compute schema graph, scores and candidate lists (coverage/coverage).
//! let scored = ScoredSchema::build(&graph, &ScoringConfig::coverage()).unwrap();
//!
//! // Find the optimal concise preview with 2 tables and 6 non-key attributes.
//! let space = PreviewSpace::concise(2, 6).unwrap();
//! let preview = DynamicProgrammingDiscovery::new()
//!     .discover(&scored, &space)
//!     .unwrap()
//!     .expect("a preview exists");
//!
//! assert_eq!(preview.tables().len(), 2);
//! assert!((scored.preview_score(&preview) - 84.0).abs() < 1e-9);
//! println!("{}", preview.describe(scored.schema()));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod algo;
pub mod candidates;
mod constraint;
mod error;
mod preview;
pub mod scoring;
pub mod sharded;

pub use algo::{
    best_preview_for_subset, brute_force_subset_count, AnytimeBudget, AnytimeOutcome,
    AprioriDiscovery, BestFirstDiscovery, BruteForceDiscovery, DynamicProgrammingDiscovery,
    PreviewDiscovery, SearchStats,
};
pub use candidates::Candidate;
pub use constraint::{DistanceConstraint, PreviewSpace, SizeConstraint};
pub use error::{Error, Result};
pub use preview::{MaterializedRow, MaterializedTable, NonKeyAttr, Preview, PreviewTable};
pub use scoring::{KeyScoring, NonKeyScoring, RandomWalkConfig, ScoredSchema, ScoringConfig};
pub use sharded::{apply_delta_parallel, build_sharded, sharded_entropy_scores};

/// Compile-time guarantees that the types a serving layer shares across
/// threads are `Send + Sync + Clone`. Discovery over a shared
/// [`ScoredSchema`] from many worker threads (see the `preview-service`
/// crate) is only sound because these bounds hold; a regression — say an
/// `Rc` or `RefCell` slipping into a scoring structure — becomes a build
/// error here instead of a runtime surprise downstream.
mod static_assertions {
    #![allow(dead_code)]

    use super::*;

    const fn assert_send_sync_clone<T: Send + Sync + Clone>() {}

    const _: () = {
        // The pre-computed scoring state shared behind `Arc` by every worker.
        assert_send_sync_clone::<ScoredSchema>();
        // Discovery inputs and outputs crossing thread boundaries.
        assert_send_sync_clone::<Preview>();
        assert_send_sync_clone::<PreviewTable>();
        assert_send_sync_clone::<NonKeyAttr>();
        assert_send_sync_clone::<Candidate>();
        assert_send_sync_clone::<PreviewSpace>();
        assert_send_sync_clone::<SizeConstraint>();
        assert_send_sync_clone::<DistanceConstraint>();
        assert_send_sync_clone::<ScoringConfig>();
        assert_send_sync_clone::<Error>();
        // The discovery algorithms themselves (stateless unit structs).
        assert_send_sync_clone::<BruteForceDiscovery>();
        assert_send_sync_clone::<DynamicProgrammingDiscovery>();
        assert_send_sync_clone::<AprioriDiscovery>();
        assert_send_sync_clone::<BestFirstDiscovery>();
        // Anytime results handed back across the serving boundary.
        assert_send_sync_clone::<AnytimeBudget>();
        assert_send_sync_clone::<AnytimeOutcome>();
        assert_send_sync_clone::<SearchStats>();
    };
}
