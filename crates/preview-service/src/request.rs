//! Typed request / response API of the preview service.

use std::fmt;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use preview_core::{
    brute_force_subset_count, AprioriDiscovery, BestFirstDiscovery, BruteForceDiscovery,
    DynamicProgrammingDiscovery, KeyScoring, NonKeyScoring, Preview, PreviewDiscovery,
    PreviewSpace, ScoringConfig,
};

/// Subset-count estimate above which [`Algorithm::Auto`] prefers the
/// best-first branch-and-bound over the Apriori join on distance-constrained
/// spaces. Below it, Apriori's level-wise growth over a lattice of a few
/// hundred subsets is cheaper than setting up a search. Above it, best-first
/// bounds its children on bitset rows and typically proves the optimum after
/// expanding `k` nodes, while Apriori still joins every feasible pair. On the
/// 63-type film schema this sends `k = 2` (C(63, 2) = 1953 subsets) to
/// best-first and keeps `k = 1` (63 subsets) on Apriori.
pub const BEST_FIRST_AUTO_THRESHOLD: u128 = 1_000;

/// Which discovery algorithm a request asks for.
///
/// [`Algorithm::Auto`] picks the asymptotically best exact algorithm for the
/// requested space: dynamic programming for concise previews (Alg. 2 is
/// polynomial but concise-only), and for tight / diverse previews either
/// Apriori (Alg. 3, small spaces) or best-first branch-and-bound (large
/// spaces — see [`BEST_FIRST_AUTO_THRESHOLD`]). Explicit choices are
/// honoured verbatim, so a request can still pin the brute force for
/// cross-checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Algorithm {
    /// Pick the best exact algorithm for the requested space.
    #[default]
    Auto,
    /// Alg. 1: exhaustive enumeration, any space.
    BruteForce,
    /// Alg. 2: dynamic programming, concise spaces only.
    DynamicProgramming,
    /// Alg. 3: Apriori-style candidate growth, tight / diverse spaces.
    Apriori,
    /// Best-first branch-and-bound with admissible bounds, any space; the
    /// only engine that honours an anytime node budget
    /// ([`PreviewRequest::node_budget`]).
    BestFirst,
}

impl Algorithm {
    /// Resolves the request-level choice to a concrete algorithm for `space`,
    /// without a schema-size estimate: `Auto` keeps its legacy mapping
    /// (dynamic programming / Apriori). The serving engine resolves through
    /// [`resolve_for`](Self::resolve_for) with the registered graph's type
    /// count instead.
    pub fn resolve(self, space: &PreviewSpace) -> ResolvedAlgorithm {
        self.resolve_for(space, 0)
    }

    /// Resolves the request-level choice to a concrete algorithm for `space`,
    /// where `type_estimate` is an upper bound on the number of eligible
    /// entity types (the serving engine passes the schema's type count —
    /// cheap, deterministic per version, and available without scoring).
    ///
    /// `Auto` on a distance-constrained space prefers best-first once the
    /// `C(type_estimate, k)` subset count exceeds
    /// [`BEST_FIRST_AUTO_THRESHOLD`]; both resolutions are exact, so the
    /// heuristic only affects latency, never results.
    pub fn resolve_for(self, space: &PreviewSpace, type_estimate: usize) -> ResolvedAlgorithm {
        match self {
            Algorithm::Auto => match space {
                PreviewSpace::Concise(_) => ResolvedAlgorithm::DynamicProgramming,
                PreviewSpace::Tight(..) | PreviewSpace::Diverse(..) => {
                    let subsets = brute_force_subset_count(type_estimate, space.size().tables);
                    if subsets > BEST_FIRST_AUTO_THRESHOLD {
                        ResolvedAlgorithm::BestFirst
                    } else {
                        ResolvedAlgorithm::Apriori
                    }
                }
            },
            Algorithm::BruteForce => ResolvedAlgorithm::BruteForce,
            Algorithm::DynamicProgramming => ResolvedAlgorithm::DynamicProgramming,
            Algorithm::Apriori => ResolvedAlgorithm::Apriori,
            Algorithm::BestFirst => ResolvedAlgorithm::BestFirst,
        }
    }
}

/// A concrete discovery algorithm after [`Algorithm::Auto`] resolution.
///
/// This is what the result cache keys on, so `Auto` and an equivalent
/// explicit choice share cache entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResolvedAlgorithm {
    /// Alg. 1.
    BruteForce,
    /// Alg. 2.
    DynamicProgramming,
    /// Alg. 3.
    Apriori,
    /// Best-first branch-and-bound (this work).
    BestFirst,
}

impl ResolvedAlgorithm {
    /// Instantiates the discovery implementation.
    pub fn discovery(self) -> Box<dyn PreviewDiscovery> {
        match self {
            ResolvedAlgorithm::BruteForce => Box::new(BruteForceDiscovery::new()),
            ResolvedAlgorithm::DynamicProgramming => Box::new(DynamicProgrammingDiscovery::new()),
            ResolvedAlgorithm::Apriori => Box::new(AprioriDiscovery::new()),
            ResolvedAlgorithm::BestFirst => Box::new(BestFirstDiscovery::new()),
        }
    }

    /// The algorithm's stable name (matches [`PreviewDiscovery::name`]).
    pub fn name(self) -> &'static str {
        match self {
            ResolvedAlgorithm::BruteForce => "brute-force",
            ResolvedAlgorithm::DynamicProgramming => "dynamic-programming",
            ResolvedAlgorithm::Apriori => "apriori",
            ResolvedAlgorithm::BestFirst => "best-first",
        }
    }
}

/// One preview request against a registered graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PreviewRequest {
    /// Name of the registered graph.
    pub graph: String,
    /// Specific version, or `None` for the latest registered version.
    pub version: Option<u32>,
    /// The constraint space (concise / tight / diverse with `(k, n)` bounds).
    pub space: PreviewSpace,
    /// Discovery algorithm choice.
    pub algorithm: Algorithm,
    /// Key / non-key scoring configuration.
    pub scoring: ScoringConfig,
    /// Anytime node budget: when set, discovery runs the best-first engine
    /// with this expansion budget (overriding [`algorithm`](Self::algorithm))
    /// and may return a sub-optimal incumbent — the response then carries
    /// [`PreviewResponse::optimality_gap`]. Budgeted requests bypass the
    /// result cache entirely, so a non-optimal incumbent is never served
    /// where an optimal preview is expected. `None` (the default) means
    /// exact discovery.
    pub node_budget: Option<u64>,
}

impl PreviewRequest {
    /// A concise request with default (coverage / coverage) scoring against
    /// the latest version of `graph`.
    pub fn new(graph: impl Into<String>, space: PreviewSpace) -> Self {
        Self {
            graph: graph.into(),
            version: None,
            space,
            algorithm: Algorithm::Auto,
            scoring: ScoringConfig::coverage(),
            node_budget: None,
        }
    }

    /// Makes this an anytime request with a best-first node budget (see
    /// [`PreviewRequest::node_budget`]).
    pub fn with_node_budget(mut self, nodes: u64) -> Self {
        self.node_budget = Some(nodes);
        self
    }

    /// Sets an explicit graph version.
    pub fn with_version(mut self, version: u32) -> Self {
        self.version = Some(version);
        self
    }

    /// Sets an explicit algorithm.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the scoring configuration.
    pub fn with_scoring(mut self, scoring: ScoringConfig) -> Self {
        self.scoring = scoring;
        self
    }
}

/// Hashable canonicalisation of a [`ScoringConfig`].
///
/// `ScoringConfig` carries `f64` random-walk parameters, so it is not `Eq` /
/// `Hash`; the key stores their bit patterns instead. When key scoring is not
/// random walk the parameters are irrelevant to the result and are zeroed so
/// configurations that differ only in unused parameters share cache entries.
/// [`ScoringConfig::threads`] is deliberately absent: it is ignored, so
/// requests that differ only in it share cache entries and memoized scoring.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScoringKey {
    key: KeyScoring,
    non_key: NonKeyScoring,
    jump_bits: u64,
    tolerance_bits: u64,
    max_iterations: usize,
}

impl From<&ScoringConfig> for ScoringKey {
    fn from(config: &ScoringConfig) -> Self {
        let (jump_bits, tolerance_bits, max_iterations) = match config.key {
            KeyScoring::RandomWalk => (
                config.random_walk.jump.to_bits(),
                config.random_walk.tolerance.to_bits(),
                config.random_walk.max_iterations,
            ),
            KeyScoring::Coverage => (0, 0, 0),
        };
        Self {
            key: config.key,
            non_key: config.non_key,
            jump_bits,
            tolerance_bits,
            max_iterations,
        }
    }
}

/// Key of the result cache: everything that determines a discovery result.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Graph name.
    pub graph: String,
    /// Concrete graph version (requests for "latest" are resolved first, so
    /// a new version naturally misses the old version's entries).
    pub version: u32,
    /// Canonicalised scoring configuration.
    pub scoring: ScoringKey,
    /// The constraint space.
    pub space: PreviewSpace,
    /// The resolved algorithm.
    pub algorithm: ResolvedAlgorithm,
}

/// An immutable discovery result as stored in the cache.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CachedPreview {
    /// The optimal preview, or `None` when the space is empty.
    pub preview: Option<Preview>,
    /// Its score under the request's scoring configuration (0.0 for `None`).
    pub score: f64,
}

/// The service's answer to one [`PreviewRequest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PreviewResponse {
    /// Graph name the request resolved to.
    pub graph: String,
    /// Concrete graph version the request resolved to.
    pub version: u32,
    /// The algorithm that was (or would have been) run.
    pub algorithm: ResolvedAlgorithm,
    /// The optimal preview, or `None` when the space is empty.
    pub preview: Option<Preview>,
    /// The preview's score (Eq. 1), `0.0` when `preview` is `None`.
    pub score: f64,
    /// Whether the result was served without running discovery on this
    /// call: an LRU cache hit, or a concurrent identical request's
    /// in-flight computation that this request shared.
    pub cache_hit: bool,
    /// Time spent waiting in the request queue (zero for inline execution).
    pub queue_wait: Duration,
    /// Time spent resolving + computing (or fetching) the result.
    pub compute: Duration,
    /// `Some(gap)` for anytime (budgeted) results: the difference between
    /// the best-first upper bound on the optimal score and the served
    /// incumbent's score. `None` for exact results. A gap of `0.0` still
    /// means "not proven optimal" — the budget expired at the moment the
    /// frontier bound met the incumbent.
    pub optimality_gap: Option<f64>,
    /// The request's trace id, when it was served through the worker pool
    /// (inline execution has no ingress sequence number and carries
    /// `None`). Joins the response to its retained trace tree and to
    /// histogram exemplars in the observability snapshot.
    pub trace: Option<preview_obs::TraceId>,
}

impl PreviewResponse {
    /// Total latency observed by the client: queue wait plus compute.
    pub fn latency(&self) -> Duration {
        self.queue_wait + self.compute
    }
}

/// Convenience alias for service results.
pub type ServiceResult<T> = std::result::Result<T, ServiceError>;

/// Errors produced by the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The requested graph name / version is not registered.
    GraphNotFound {
        /// Requested graph name.
        graph: String,
        /// Requested version (`None` = latest).
        version: Option<u32>,
    },
    /// The bounded request queue is full (backpressure signal).
    QueueFull,
    /// The service is shutting down and no longer accepts requests.
    ShuttingDown,
    /// The worker processing the request disappeared before replying.
    WorkerLost,
    /// Request handling panicked; the worker survived and the panic message
    /// is forwarded to the caller.
    Panicked {
        /// The panic payload, if it was a string.
        message: String,
    },
    /// Scoring or discovery failed (e.g. dynamic programming asked to solve
    /// a distance-constrained space).
    Discovery(preview_core::Error),
    /// A published [`GraphDelta`](entity_graph::GraphDelta) was rejected by
    /// the graph layer (duplicate entity, entity still referenced, missing
    /// edge, …); the current version is left untouched.
    Delta(entity_graph::Error),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::GraphNotFound { graph, version } => match version {
                Some(v) => write!(f, "graph {graph:?} version {v} is not registered"),
                None => write!(f, "graph {graph:?} is not registered"),
            },
            ServiceError::QueueFull => write!(f, "request queue is full"),
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::WorkerLost => write!(f, "worker terminated before replying"),
            ServiceError::Panicked { message } => {
                write!(f, "request handling panicked: {message}")
            }
            ServiceError::Discovery(e) => write!(f, "discovery failed: {e}"),
            ServiceError::Delta(e) => write!(f, "delta rejected: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Discovery(e) => Some(e),
            ServiceError::Delta(e) => Some(e),
            _ => None,
        }
    }
}

impl From<preview_core::Error> for ServiceError {
    fn from(e: preview_core::Error) -> Self {
        ServiceError::Discovery(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_resolves_per_space() {
        let concise = PreviewSpace::concise(2, 6).unwrap();
        let tight = PreviewSpace::tight(2, 6, 2).unwrap();
        let diverse = PreviewSpace::diverse(2, 6, 3).unwrap();
        assert_eq!(
            Algorithm::Auto.resolve(&concise),
            ResolvedAlgorithm::DynamicProgramming
        );
        assert_eq!(Algorithm::Auto.resolve(&tight), ResolvedAlgorithm::Apriori);
        assert_eq!(
            Algorithm::Auto.resolve(&diverse),
            ResolvedAlgorithm::Apriori
        );
        assert_eq!(
            Algorithm::BruteForce.resolve(&concise),
            ResolvedAlgorithm::BruteForce
        );
    }

    #[test]
    fn resolved_names_match_discovery_impls() {
        for algo in [
            ResolvedAlgorithm::BruteForce,
            ResolvedAlgorithm::DynamicProgramming,
            ResolvedAlgorithm::Apriori,
            ResolvedAlgorithm::BestFirst,
        ] {
            assert_eq!(algo.discovery().name(), algo.name());
        }
    }

    #[test]
    fn auto_prefers_best_first_on_large_distance_spaces() {
        let diverse = PreviewSpace::diverse(3, 6, 2).unwrap();
        let concise = PreviewSpace::concise(3, 6).unwrap();
        // C(8, 3) = 56 ≤ threshold: small schemas stay on Apriori.
        assert_eq!(
            Algorithm::Auto.resolve_for(&diverse, 8),
            ResolvedAlgorithm::Apriori
        );
        // C(63, 3) = 39711 > threshold: large schemas route to best-first.
        assert_eq!(
            Algorithm::Auto.resolve_for(&diverse, 63),
            ResolvedAlgorithm::BestFirst
        );
        // C(63, 2) = 1953 > threshold: so does k = 2 on the film schema...
        let tight_pair = PreviewSpace::tight(2, 4, 2).unwrap();
        assert_eq!(
            Algorithm::Auto.resolve_for(&tight_pair, 63),
            ResolvedAlgorithm::BestFirst
        );
        // ...while C(63, 1) = 63 ≤ threshold keeps k = 1 on Apriori.
        let tight_single = PreviewSpace::tight(1, 3, 2).unwrap();
        assert_eq!(
            Algorithm::Auto.resolve_for(&tight_single, 63),
            ResolvedAlgorithm::Apriori
        );
        // Concise spaces keep dynamic programming regardless of size.
        assert_eq!(
            Algorithm::Auto.resolve_for(&concise, 63),
            ResolvedAlgorithm::DynamicProgramming
        );
        // Explicit choices are never overridden by the estimate.
        assert_eq!(
            Algorithm::Apriori.resolve_for(&diverse, 63),
            ResolvedAlgorithm::Apriori
        );
        assert_eq!(
            Algorithm::BestFirst.resolve_for(&diverse, 8),
            ResolvedAlgorithm::BestFirst
        );
        // The estimate-free legacy form never picks best-first.
        assert_eq!(
            Algorithm::Auto.resolve(&diverse),
            ResolvedAlgorithm::Apriori
        );
    }

    #[test]
    fn request_builder_sets_node_budget() {
        let space = PreviewSpace::diverse(2, 4, 2).unwrap();
        let request = PreviewRequest::new("wiki", space);
        assert_eq!(request.node_budget, None);
        let budgeted = request.with_node_budget(500);
        assert_eq!(budgeted.node_budget, Some(500));
    }

    #[test]
    fn scoring_key_ignores_unused_random_walk_params() {
        let mut a = ScoringConfig::coverage();
        let mut b = ScoringConfig::coverage();
        b.random_walk.jump = 0.123;
        assert_eq!(ScoringKey::from(&a), ScoringKey::from(&b));

        a.key = KeyScoring::RandomWalk;
        b.key = KeyScoring::RandomWalk;
        assert_ne!(ScoringKey::from(&a), ScoringKey::from(&b));
    }

    #[test]
    fn scoring_key_ignores_the_threads_knob() {
        // `threads` is ignored, so a `threads = 4` request must share cache
        // entries and memoized scoring with a `threads = 1` one.
        let sequential = ScoringConfig::coverage();
        let parallel = ScoringConfig::coverage().with_threads(4);
        assert_ne!(sequential, parallel);
        assert_eq!(ScoringKey::from(&sequential), ScoringKey::from(&parallel));
    }

    #[test]
    fn request_builder_sets_fields() {
        let space = PreviewSpace::concise(1, 2).unwrap();
        let request = PreviewRequest::new("wiki", space)
            .with_version(3)
            .with_algorithm(Algorithm::BruteForce);
        assert_eq!(request.graph, "wiki");
        assert_eq!(request.version, Some(3));
        assert_eq!(request.algorithm, Algorithm::BruteForce);
    }

    #[test]
    fn errors_display_context() {
        let e = ServiceError::GraphNotFound {
            graph: "wiki".into(),
            version: Some(2),
        };
        assert!(e.to_string().contains("wiki"));
        assert!(e.to_string().contains('2'));
        assert!(ServiceError::QueueFull.to_string().contains("full"));
    }
}
