//! Set-up: generate the graph, register it, precompute scoring and build
//! shards, then start the service. Everything here happens before any timed
//! traffic; the workload graph's steps are reported as `setup_s`.

use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use datagen::{FreebaseDomain, SyntheticGenerator};
use entity_graph::{EntityGraph, ShardingStrategy};
use preview_core::ScoringConfig;
use preview_service::{GraphRegistry, PreviewService, RegisteredGraph, ServiceConfig};

use crate::workload::{
    Workload, CACHE_SHARDS, GRAPH_NAME, GRAPH_SEED, PROBE_GRAPH, QUEUE_CAPACITY, SHARDS, WORKERS,
};

/// Seconds spent in each set-up step of the workload graph.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Graph generation (`datagen`).
    pub generate_s: f64,
    /// Registration; for a sharded workload this is the shard build.
    pub register_s: f64,
    /// Precomputing every scoring configuration the reads use.
    pub scoring_s: f64,
    /// The sum of the steps above plus the service start. The probe copy
    /// of a read-only workload is set up outside it.
    pub total_s: f64,
}

/// A running service over a freshly registered workload graph.
pub struct Served {
    /// The registry the service answers from.
    pub registry: Arc<GraphRegistry>,
    /// The service under test.
    pub service: PreviewService,
    /// Step timings of this set-up.
    pub times: SetupTimes,
}

/// The workload's dataset graph.
pub fn generate_graph(workload: &Workload) -> EntityGraph {
    SyntheticGenerator::new(GRAPH_SEED).generate(&FreebaseDomain::Film.spec(workload.scale))
}

/// The sharding strategy of sharded workloads.
pub fn strategy() -> ShardingStrategy {
    ShardingStrategy::ByIdHash { shards: SHARDS }
}

/// The service configuration of `workload`.
pub fn service_config(workload: &Workload) -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        queue_capacity: QUEUE_CAPACITY,
        cache_capacity: workload.cache_capacity,
        cache_shards: CACHE_SHARDS,
    }
}

/// The flag that makes the program time one set-up and print its seconds.
pub const SETUP_ONLY_FLAG: &str = "--setup-only";

/// Times one set-up of `workload` in a fresh process of this program. The
/// set-up starts from a fresh heap, as a user's does, and its memory never
/// counts toward the peak RSS of the measuring process.
pub fn setup_in_child(workload: &Workload) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name, SETUP_ONLY_FLAG])
        .output()
        .map_err(|e| format!("cannot start a set-up process: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "set-up process failed: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .trim()
        .parse()
        .map_err(|_| format!("set-up process printed {stdout:?}"))
}

/// Seconds `f` takes, and what it returned.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    // lint: allow(wall-clock, the benchmark times the service from outside)
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64(), value)
}

fn score_all(graph: &RegisteredGraph, configs: &[ScoringConfig]) -> Result<(), String> {
    for config in configs {
        graph
            .scored_for(config)
            .map_err(|e| format!("precomputing scoring failed: {e}"))?;
    }
    Ok(())
}

/// Sets up `workload`: generate, register (sharded when the workload is),
/// score every config in `configs`, and start the service. A read-only
/// workload also registers and scores its probe copy, untimed.
pub fn setup(workload: &Workload, configs: &[ScoringConfig]) -> Result<Served, String> {
    let (generate_s, graph) = timed(|| generate_graph(workload));

    let registry = Arc::new(GraphRegistry::new());
    if workload.publish_graph() != GRAPH_NAME {
        let probe = registry.register(PROBE_GRAPH, graph.clone());
        score_all(&probe, configs)?;
    }
    let (register_s, registered) = timed(|| {
        if workload.sharded {
            registry.register_sharded(GRAPH_NAME, graph, strategy())
        } else {
            registry.register(GRAPH_NAME, graph)
        }
    });
    let (scoring_s, scored) = timed(|| score_all(&registered, configs));
    scored?;
    let (start_s, service) =
        timed(|| PreviewService::start(service_config(workload), Arc::clone(&registry)));
    Ok(Served {
        registry,
        service,
        times: SetupTimes {
            generate_s,
            register_s,
            scoring_s,
            total_s: generate_s + register_s + scoring_s + start_s,
        },
    })
}
