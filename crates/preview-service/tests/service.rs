//! Integration tests for the preview service: LRU cache properties against a
//! reference model, cached-response determinism, and concurrent serving.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use entity_graph::fixtures;
use preview_core::{
    DynamicProgrammingDiscovery, PreviewDiscovery, PreviewSpace, ScoredSchema, ScoringConfig,
};
use preview_service::{
    GraphRegistry, PreviewRequest, PreviewService, ServiceConfig, ShardedLruCache,
};

/// A straightforward reference LRU: most-recent-first key order plus values.
struct ModelLru {
    order: Vec<u32>,
    values: HashMap<u32, u32>,
    capacity: usize,
}

impl ModelLru {
    fn new(capacity: usize) -> Self {
        Self {
            order: Vec::new(),
            values: HashMap::new(),
            capacity,
        }
    }

    fn get(&mut self, key: u32) -> Option<u32> {
        let value = self.values.get(&key).copied()?;
        self.order.retain(|&k| k != key);
        self.order.insert(0, key);
        Some(value)
    }

    fn insert(&mut self, key: u32, value: u32) {
        if self.values.insert(key, value).is_some() {
            self.order.retain(|&k| k != key);
        } else if self.order.len() >= self.capacity {
            let evicted = self.order.pop().expect("full model has a tail");
            self.values.remove(&evicted);
        }
        self.order.insert(0, key);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With a single shard, the cache's recency order, length and lookup
    /// results match the reference model after any operation sequence.
    #[test]
    fn single_shard_matches_reference_model(
        seed in 0u64..10_000,
        capacity in 1usize..12,
        ops in 1usize..200,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::new(capacity, 1);
        let mut model = ModelLru::new(capacity);
        for i in 0..ops {
            let key = rng.gen_range(0u32..16);
            if rng.gen_bool(0.5) {
                let value = i as u32;
                cache.insert(key, value);
                model.insert(key, value);
            } else {
                prop_assert_eq!(cache.get(&key), model.get(key));
            }
            prop_assert_eq!(cache.keys_by_recency(), model.order.clone());
            prop_assert_eq!(cache.len(), model.order.len());
            prop_assert!(cache.len() <= capacity);
        }
    }

    /// Regardless of shard count, occupancy never exceeds total capacity and
    /// the hit/miss/insert counters stay consistent with the operation count.
    #[test]
    fn sharded_capacity_and_counters_are_bounded(
        seed in 0u64..10_000,
        capacity in 1usize..32,
        shards in 1usize..6,
        ops in 1usize..300,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::new(capacity, shards);
        let mut inserts = 0u64;
        let mut lookups = 0u64;
        for _ in 0..ops {
            let key = rng.gen_range(0u32..64);
            if rng.gen_bool(0.6) {
                cache.insert(key, key);
                inserts += 1;
            } else {
                lookups += 1;
                if let Some(value) = cache.get(&key) {
                    prop_assert_eq!(value, key);
                }
            }
            prop_assert!(cache.len() <= cache.capacity());
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.insertions, inserts);
        prop_assert_eq!(stats.hits + stats.misses, lookups);
        prop_assert!(stats.evictions <= inserts);
        prop_assert!(stats.len <= stats.capacity);
    }
}

/// A cached response must be byte-identical to a fresh discovery: same Debug
/// rendering, same table description, bit-identical score.
#[test]
fn cached_response_is_byte_identical_to_fresh_discovery() {
    let registry = Arc::new(GraphRegistry::new());
    registry.register("fig1", fixtures::figure1_graph());
    let service = PreviewService::start(ServiceConfig::default(), Arc::clone(&registry));

    let request = PreviewRequest::new("fig1", PreviewSpace::concise(2, 6).unwrap());
    let first = service.submit_wait(request.clone()).unwrap();
    let second = service.submit_wait(request).unwrap();
    assert!(!first.cache_hit);
    assert!(second.cache_hit);

    // Fresh discovery outside the service, from scratch.
    let graph = fixtures::figure1_graph();
    let scored = ScoredSchema::build(&graph, &ScoringConfig::coverage()).unwrap();
    let fresh = DynamicProgrammingDiscovery::new()
        .discover(&scored, &PreviewSpace::concise(2, 6).unwrap())
        .unwrap()
        .expect("a preview exists");

    for response in [&first, &second] {
        let served = response.preview.as_ref().expect("a preview exists");
        assert_eq!(
            format!("{served:?}").into_bytes(),
            format!("{fresh:?}").into_bytes()
        );
        assert_eq!(
            served.describe(scored.schema()).into_bytes(),
            fresh.describe(scored.schema()).into_bytes()
        );
        assert_eq!(
            response.score.to_bits(),
            scored.preview_score(&fresh).to_bits()
        );
    }
}

/// Hammer one service from several client threads: every response is correct,
/// all requests complete, and repeated keys hit the cache.
#[test]
fn concurrent_clients_get_consistent_answers() {
    let registry = Arc::new(GraphRegistry::new());
    registry.register("fig1", fixtures::figure1_graph());
    let service = Arc::new(PreviewService::start(
        ServiceConfig {
            workers: 4,
            queue_capacity: 16,
            cache_capacity: 64,
            cache_shards: 4,
        },
        registry,
    ));

    let clients: Vec<_> = (0..4)
        .map(|_| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                for _ in 0..25 {
                    let request = PreviewRequest::new("fig1", PreviewSpace::concise(2, 6).unwrap());
                    let response = service.submit_wait(request).unwrap();
                    assert!((response.score - 84.0).abs() < 1e-9);
                }
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }

    let stats = service.stats();
    assert_eq!(stats.submitted, 100);
    assert_eq!(stats.completed, 100);
    assert_eq!(stats.failed, 0);
    // All 100 requests share one key; at most a few racing first requests
    // can miss, everything else must come from the cache.
    assert!(stats.cache.hits >= 90, "hits = {}", stats.cache.hits);
    assert!(stats.latency_p99_us >= stats.latency_p50_us);
}

/// Concurrent uncached requests asking for `threads = 4` get answers
/// byte-identical to an inline `threads = 1` request — with the cache
/// disabled so every request really runs scoring + discovery.
#[test]
fn concurrent_parallel_requests_share_the_fork_join_pool_deterministically() {
    let registry = Arc::new(GraphRegistry::new());
    registry.register("fig1", fixtures::figure1_graph());
    let service = Arc::new(PreviewService::start(
        ServiceConfig {
            workers: 4,
            queue_capacity: 32,
            cache_capacity: 0, // no cache: every request runs discovery
            cache_shards: 1,
        },
        registry,
    ));

    let spaces = [
        PreviewSpace::concise(2, 6).unwrap(),
        PreviewSpace::tight(2, 6, 2).unwrap(),
        PreviewSpace::diverse(2, 6, 2).unwrap(),
    ];
    // Sequential ground truth, computed inline before the hammering starts.
    let baselines: Vec<_> = spaces
        .iter()
        .map(|&space| {
            service
                .execute_inline(&PreviewRequest::new("fig1", space))
                .unwrap()
        })
        .collect();

    let clients: Vec<_> = (0..8)
        .map(|client| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let mut responses = Vec::new();
                for round in 0..20 {
                    let space = spaces[(client + round) % spaces.len()];
                    let request = PreviewRequest::new("fig1", space)
                        .with_scoring(ScoringConfig::coverage().with_threads(4));
                    responses.push((
                        (client + round) % spaces.len(),
                        service.submit_wait(request).unwrap(),
                    ));
                }
                responses
            })
        })
        .collect();
    for client in clients {
        for (space_index, response) in client.join().unwrap() {
            let baseline = &baselines[space_index];
            assert_eq!(response.preview, baseline.preview);
            assert_eq!(response.score.to_bits(), baseline.score.to_bits());
        }
    }
    // Inline baseline executions bypass the queue and are not counted.
    let stats = service.stats();
    assert_eq!(stats.completed, 160);
    assert_eq!(stats.failed, 0);
}

/// Graph versioning: a re-registered graph serves new results while explicit
/// old-version requests still resolve against the old data.
#[test]
fn versioned_requests_resolve_independently() {
    let registry = Arc::new(GraphRegistry::new());
    registry.register("g", fixtures::figure1_graph());
    registry.register("g", fixtures::figure1_graph());
    let service = PreviewService::start(ServiceConfig::default(), registry);

    let latest = service
        .submit_wait(PreviewRequest::new(
            "g",
            PreviewSpace::concise(2, 6).unwrap(),
        ))
        .unwrap();
    assert_eq!(latest.version, 2);

    let pinned = service
        .submit_wait(PreviewRequest::new("g", PreviewSpace::concise(2, 6).unwrap()).with_version(1))
        .unwrap();
    assert_eq!(pinned.version, 1);
    // Different versions are distinct cache keys even with identical data.
    assert!(!pinned.cache_hit);
    assert_eq!(pinned.score.to_bits(), latest.score.to_bits());
}

/// Live updates: an empty delta never bumps the version; a real delta bumps
/// it, serves fresh results for latest traffic, and keeps version-pinned
/// requests answering from the superseded data.
#[test]
fn publish_delta_bumps_latest_but_not_pinned_requests() {
    let registry = Arc::new(GraphRegistry::new());
    registry.register("g", fixtures::figure1_graph());
    let service = PreviewService::start(ServiceConfig::default(), registry);
    let space = PreviewSpace::concise(2, 6).unwrap();

    let before = service
        .submit_wait(PreviewRequest::new("g", space))
        .unwrap();
    assert_eq!(before.version, 1);
    assert!((before.score - 84.0).abs() < 1e-9);

    // Empty delta: explicitly not a version bump.
    let noop = service
        .publish_delta("g", &preview_service::GraphDelta::new())
        .unwrap();
    assert!(!noop.bumped);
    assert_eq!(noop.version, 1);
    assert_eq!(service.stats().publishes, 0);

    // A real delta: one more film and one more Actor edge.
    let mut delta = preview_service::GraphDelta::new();
    delta.add_entity("Bad Boys", &["FILM"]).add_edge(
        "Will Smith",
        "Actor",
        "Bad Boys",
        "FILM ACTOR",
        "FILM",
    );
    let report = service.publish_delta("g", &delta).unwrap();
    assert!(report.bumped);
    assert_eq!(report.previous_version, 1);
    assert_eq!(report.version, 2);
    assert_eq!(report.summary.entities_added, 1);
    assert_eq!(report.summary.edges_added, 1);

    let after = service
        .submit_wait(PreviewRequest::new("g", space))
        .unwrap();
    assert_eq!(after.version, 2);
    // FILM coverage rose from 4 to 5 entities and Actor from 6 to 7 edges;
    // the optimal concise preview score moves accordingly.
    assert_ne!(after.score.to_bits(), before.score.to_bits());

    let pinned = service
        .submit_wait(PreviewRequest::new("g", space).with_version(1))
        .unwrap();
    assert_eq!(pinned.version, 1);
    assert_eq!(pinned.score.to_bits(), before.score.to_bits());
    assert_eq!(service.stats().publishes, 1);
}

/// Version-aware cache retention: entries whose scoring configuration a
/// delta provably does not affect are carried across the version bump (and
/// stay byte-identical); affected configurations go cold and recompute.
#[test]
fn unaffected_cache_entries_survive_version_bumps_bitwise() {
    use preview_core::{KeyScoring, NonKeyScoring};

    let registry = Arc::new(GraphRegistry::new());
    registry.register("g", fixtures::figure1_graph());
    let service = PreviewService::start(ServiceConfig::default(), registry);
    let space = PreviewSpace::concise(2, 6).unwrap();
    let entropy = ScoringConfig::new(KeyScoring::Coverage, NonKeyScoring::Entropy);

    // Warm the cache under both configurations on version 1.
    let warm_entropy = service
        .submit_wait(PreviewRequest::new("g", space).with_scoring(entropy))
        .unwrap();
    let warm_coverage = service
        .submit_wait(PreviewRequest::new("g", space))
        .unwrap();
    assert!(!warm_entropy.cache_hit && !warm_coverage.cache_hit);

    // A duplicate parallel Actor edge: attribute values are sets, so the
    // entropy distribution (and coverage *key* scores) cannot move — but the
    // Actor edge count does, so coverage non-key scoring is affected.
    let mut delta = preview_service::GraphDelta::new();
    delta.add_edge("Will Smith", "Actor", "Men in Black", "FILM ACTOR", "FILM");
    let report = service.publish_delta("g", &delta).unwrap();
    assert!(report.bumped);
    assert_eq!(report.rescored_configs, 2);
    assert_eq!(report.unaffected_configs, 1);
    assert!(report.cache_carried_forward >= 1);
    assert!(report.cache_invalidated >= 1);

    // The entropy entry was carried forward: a latest-version request hits
    // the cache without recomputing, byte-identical to the pre-bump answer.
    let entropy_after = service
        .submit_wait(PreviewRequest::new("g", space).with_scoring(entropy))
        .unwrap();
    assert_eq!(entropy_after.version, 2);
    assert!(entropy_after.cache_hit);
    assert_eq!(entropy_after.preview, warm_entropy.preview);
    assert_eq!(entropy_after.score.to_bits(), warm_entropy.score.to_bits());

    // The coverage entry went cold with the bump and is recomputed.
    let coverage_after = service
        .submit_wait(PreviewRequest::new("g", space))
        .unwrap();
    assert_eq!(coverage_after.version, 2);
    assert!(!coverage_after.cache_hit);

    let stats = service.stats();
    assert_eq!(stats.publishes, 1);
    assert_eq!(stats.cache_carried_forward, report.cache_carried_forward);
    assert_eq!(stats.cache_invalidated, report.cache_invalidated);
}

/// A rejected batch is atomic at the service level: typed error, no version
/// bump, no cache maintenance, and serving continues unperturbed.
#[test]
fn rejected_delta_leaves_the_service_untouched() {
    let registry = Arc::new(GraphRegistry::new());
    registry.register("g", fixtures::figure1_graph());
    let service = PreviewService::start(ServiceConfig::default(), registry);
    let space = PreviewSpace::concise(2, 6).unwrap();
    let before = service
        .submit_wait(PreviewRequest::new("g", space))
        .unwrap();

    let mut delta = preview_service::GraphDelta::new();
    delta.remove_entity("Men in Black"); // still referenced by edges
    let err = service.publish_delta("g", &delta).unwrap_err();
    assert!(matches!(err, preview_service::ServiceError::Delta(_)));

    let after = service
        .submit_wait(PreviewRequest::new("g", space))
        .unwrap();
    assert_eq!(after.version, 1);
    assert!(after.cache_hit);
    assert_eq!(after.score.to_bits(), before.score.to_bits());
    let stats = service.stats();
    assert_eq!(stats.publishes, 0);
    assert_eq!(stats.cache_carried_forward + stats.cache_invalidated, 0);
}

/// With a retention window of 1, publishing drops the superseded version —
/// pinned requests against it fail fast — while unaffected cache entries are
/// still carried onto the new version.
#[test]
fn retention_window_of_one_prunes_superseded_versions() {
    use preview_core::{KeyScoring, NonKeyScoring};

    let registry = Arc::new(GraphRegistry::with_retention(1));
    registry.register("g", fixtures::figure1_graph());
    let service = PreviewService::start(ServiceConfig::default(), registry);
    let space = PreviewSpace::concise(2, 6).unwrap();
    let entropy = ScoringConfig::new(KeyScoring::Coverage, NonKeyScoring::Entropy);
    let warm = service
        .submit_wait(PreviewRequest::new("g", space).with_scoring(entropy))
        .unwrap();

    let mut delta = preview_service::GraphDelta::new();
    delta.add_edge("Will Smith", "Actor", "Men in Black", "FILM ACTOR", "FILM");
    let report = service.publish_delta("g", &delta).unwrap();
    assert!(report.bumped);
    assert_eq!(report.versions_dropped, 1);
    assert_eq!(report.cache_carried_forward, 1);

    // Version 1 is gone.
    let err = service
        .submit_wait(PreviewRequest::new("g", space).with_version(1))
        .unwrap_err();
    assert!(matches!(
        err,
        preview_service::ServiceError::GraphNotFound { .. }
    ));
    // The carried entry still serves latest traffic, byte-identically.
    let after = service
        .submit_wait(PreviewRequest::new("g", space).with_scoring(entropy))
        .unwrap();
    assert!(after.cache_hit);
    assert_eq!(after.score.to_bits(), warm.score.to_bits());
}

/// Racing publishes against the same name must not lose edits: each batch is
/// re-applied on top of the latest version if another publish won the race,
/// so every acknowledged delta is present in the final graph.
#[test]
fn concurrent_publishes_lose_no_edits() {
    let registry = Arc::new(GraphRegistry::new());
    registry.register("g", fixtures::figure1_graph());
    let publishers: Vec<_> = (0..4)
        .map(|i| {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || {
                let mut delta = preview_service::GraphDelta::new();
                delta.add_entity(format!("Race #{i}"), &["FILM"]);
                registry.publish_delta("g", &delta).unwrap()
            })
        })
        .collect();
    for publisher in publishers {
        assert!(publisher.join().unwrap().bumped);
    }
    let latest = registry.get("g", None).unwrap();
    assert_eq!(latest.version(), 5);
    let graph = latest.graph();
    for i in 0..4 {
        assert!(
            graph.entity_by_name(&format!("Race #{i}")).is_some(),
            "edit {i} was lost by a racing publish"
        );
    }
    assert_eq!(
        graph.entity_count(),
        fixtures::figure1_graph().entity_count() + 4
    );
}
