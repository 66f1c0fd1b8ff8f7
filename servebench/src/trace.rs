//! The traced replay: the same generated reads and publishes, sent through
//! each layer's public functions on the benchmark's own thread, with one
//! span per call.
//!
//! A span records its name (the layer metric), start, end, parent and the
//! operation it belongs to. Spans stay in memory and are written out when
//! the replay ends. A span's self time is its duration minus its children's
//! (children are sequential calls inside the parent); the self time of an
//! operation's root span is time no layer span covers, reported as
//! `unattributed`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use preview_service::{
    CacheKey, CachedPreview, DeltaPublish, GraphRegistry, PreviewRequest, ResolvedAlgorithm,
    ScoringKey, ShardedLruCache,
};

use crate::stats::{quantile, sorted};
use crate::workload::{Inputs, Workload, CACHE_SHARDS, PROBE_PUBLISHES};

/// Root span of a replayed read.
pub const READ_OP: &str = "op.read";
/// Root span of a replayed publish.
pub const PUBLISH_OP: &str = "op.publish";
/// Most reads one replay sends (bounds the span file).
const MAX_REPLAY_READS: usize = 20_000;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer metric name, `<layer>.<call>`.
    pub name: &'static str,
    /// Start, nanoseconds from the replay origin.
    pub start_ns: u64,
    /// End, nanoseconds from the replay origin.
    pub end_ns: u64,
    /// Index of the parent span.
    pub parent: Option<usize>,
    /// The operation (read or publish) the span belongs to.
    pub op: usize,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    // lint: allow(wall-clock, the benchmark times the service from outside)
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            // lint: allow(wall-clock, the benchmark times the service from outside)
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, op: usize) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: None,
            op,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as a child span of `parent`.
    fn call<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let value = f();
        let end_ns = self.now_ns();
        let op = self.spans[parent].op;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            op,
        });
        value
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// The algorithm span of a resolved engine.
fn algo_span(algorithm: ResolvedAlgorithm) -> &'static str {
    match algorithm {
        ResolvedAlgorithm::DynamicProgramming => "algo.dp",
        ResolvedAlgorithm::Apriori => "algo.apriori",
        ResolvedAlgorithm::BestFirst => "algo.best_first",
        ResolvedAlgorithm::BruteForce => "algo.brute_force",
    }
}

/// The algorithm spans, in report order, with their metric prefixes.
pub const ALGO_SPANS: [&str; 4] = [
    "algo.dp",
    "algo.apriori",
    "algo.best_first",
    "algo.brute_force",
];

type ReplicaCache = ShardedLruCache<CacheKey, Arc<CachedPreview>>;

/// A finished replay.
pub struct Replay {
    /// Every span, in recording order.
    pub tracer: Tracer,
    /// Whether the graph is sharded (changes the publish budget).
    pub sharded: bool,
    /// Every delta the replay published, in order.
    pub deltas: Vec<entity_graph::GraphDelta>,
    /// The update stream, positioned after the replay's deltas, for later
    /// publishes (its fresh entity names must not repeat).
    pub stream: datagen::UpdateStream,
}

/// Replays `inputs` through the layers' public functions against
/// `registry`, for at most `budget`. Publishes advance `registry`.
pub fn replay(
    registry: &GraphRegistry,
    workload: &Workload,
    inputs: &Inputs,
    budget: Duration,
) -> Result<Replay, String> {
    let cache = ReplicaCache::new(workload.cache_capacity, CACHE_SHARDS);
    let graph = workload.publish_graph();
    let mut stream = inputs.update_stream();
    let mut tracer = Tracer::new();
    // lint: allow(wall-clock, the benchmark times the service from outside)
    let start = Instant::now();
    // Reads and publishes in schedule order; a read-only workload's probe
    // publishes follow its reads and keep part of the budget.
    let (read_budget, probe) = if inputs.publish_at_ns.is_empty() {
        (budget.mul_f64(0.7), PROBE_PUBLISHES)
    } else {
        (budget, 0)
    };
    let mut next_publish = 0usize;
    let mut op = 0usize;
    let mut deltas = Vec::new();
    for (request, &at) in inputs
        .reads
        .iter()
        .zip(&inputs.read_at_ns)
        .take(MAX_REPLAY_READS)
    {
        if start.elapsed() >= read_budget {
            break;
        }
        while inputs
            .publish_at_ns
            .get(next_publish)
            .is_some_and(|&p| p <= at)
        {
            deltas.push(replay_publish(
                registry,
                graph,
                inputs,
                &cache,
                &mut stream,
                &mut tracer,
                op,
            )?);
            next_publish += 1;
            op += 1;
        }
        replay_read(registry, &cache, request, &mut tracer, op)?;
        op += 1;
    }
    for _ in 0..probe {
        if start.elapsed() >= budget {
            break;
        }
        deltas.push(replay_publish(
            registry,
            graph,
            inputs,
            &cache,
            &mut stream,
            &mut tracer,
            op,
        )?);
        op += 1;
    }
    Ok(Replay {
        tracer,
        sharded: workload.sharded,
        deltas,
        stream,
    })
}

/// resolve → resolve_for → cache get → (miss: scored_for → discovery →
/// preview_score → insert), as the engine answers a request.
fn replay_read(
    registry: &GraphRegistry,
    cache: &ReplicaCache,
    request: &PreviewRequest,
    tracer: &mut Tracer,
    op: usize,
) -> Result<(), String> {
    let root = tracer.open(READ_OP, op);
    let graph = tracer
        .call("registry.resolve", root, || {
            registry.resolve(&request.graph, request.version)
        })
        .map_err(|e| format!("replay resolve: {e}"))?;
    let algorithm = tracer.call("engine.resolve_for", root, || {
        request
            .algorithm
            .resolve_for(&request.space, graph.graph().schema_graph().type_count())
    });
    let key = CacheKey {
        graph: graph.name().to_string(),
        version: graph.version(),
        scoring: ScoringKey::from(&request.scoring),
        space: request.space,
        algorithm,
    };
    if tracer
        .call("cache.lookup", root, || cache.get(&key))
        .is_none()
    {
        let scored = tracer
            .call("registry.scored_for", root, || {
                graph.scored_for(&request.scoring)
            })
            .map_err(|e| format!("replay scoring: {e}"))?;
        let preview = tracer
            .call(algo_span(algorithm), root, || {
                algorithm.discovery().discover_with_threads(
                    &scored,
                    &request.space,
                    request.scoring.threads,
                )
            })
            .map_err(|e| format!("replay discovery: {e}"))?;
        let score = tracer.call("scoring.preview_score", root, || {
            preview.as_ref().map_or(0.0, |p| scored.preview_score(p))
        });
        let cached = Arc::new(CachedPreview { preview, score });
        tracer.call("cache.insert", root, || cache.insert(key, cached));
    }
    tracer.close(root);
    Ok(())
}

/// The publish path on the same delta the publish receives: the graph
/// splice, the sharded splice, rescoring and the identity test each on
/// their own, then the registry publish itself and the result-cache
/// carry-forward.
fn replay_publish(
    registry: &GraphRegistry,
    graph: &str,
    inputs: &Inputs,
    cache: &ReplicaCache,
    stream: &mut datagen::UpdateStream,
    tracer: &mut Tracer,
    op: usize,
) -> Result<entity_graph::GraphDelta, String> {
    let latest = registry
        .resolve(graph, None)
        .map_err(|e| format!("replay resolve: {e}"))?;
    let delta = stream.next_delta(latest.graph());
    let root = tracer.open(PUBLISH_OP, op);
    let applied = tracer
        .call("graph.apply_delta", root, || {
            latest.graph().apply_delta(&delta)
        })
        .map_err(|e| format!("replay apply_delta: {e}"))?;
    if let Some(sharded) = latest.sharded() {
        tracer
            .call("sharded.apply_delta", root, || {
                preview_core::apply_delta_parallel(sharded, &delta, 0)
            })
            .map_err(|e| format!("replay apply_delta_parallel: {e}"))?;
    }
    tracer.call("graph.schema_graph", root, || {
        applied.graph.schema_graph();
    });
    for config in &inputs.configs {
        let old = latest
            .scored_for(config)
            .map_err(|e| format!("replay scoring: {e}"))?;
        let rescored = tracer
            .call("scoring.rescore_delta", root, || {
                old.rescore_delta(&applied.graph, &applied.summary)
            })
            .map_err(|e| format!("replay rescore: {e}"))?;
        tracer.call("scoring.scores_identical", root, || {
            old.scores_identical(&rescored)
        });
    }
    let publish = tracer
        .call("registry.publish_delta", root, || {
            registry.publish_delta(graph, &delta)
        })
        .map_err(|e| format!("replay publish: {e}"))?;
    tracer.call("cache.carry_forward", root, || {
        carry_forward(cache, graph, &publish, &registry.versions(graph))
    });
    tracer.close(root);
    Ok(delta)
}

/// The result-cache maintenance the engine performs after a publish:
/// purge versions outside the retention window and re-key the superseded
/// version's entries whose scoring the delta provably did not affect.
fn carry_forward(cache: &ReplicaCache, graph: &str, publish: &DeltaPublish, live: &[u32]) {
    let previous = publish.previous_version;
    let entries = cache.collect_matching(|k| k.graph == graph && k.version == previous);
    cache.extract_matching(|k| k.graph == graph && !live.contains(&k.version));
    for (mut key, value) in entries {
        if publish.unaffected_configs.contains(&key.scoring) {
            key.version = publish.registered.version();
            cache.insert(key, value);
        }
    }
}

/// Per-name durations, self times and derived budgets of a replay.
pub struct SpanStats {
    /// Durations in microseconds by span name.
    pub durations_us: BTreeMap<&'static str, Vec<f64>>,
    /// Summed self time in microseconds by span name.
    pub self_us: BTreeMap<&'static str, f64>,
    /// Replayed reads.
    pub reads: usize,
    /// Replayed publishes.
    pub publishes: usize,
    /// Mean per-read self time by layer, `unattributed` included.
    pub read_budget: Vec<(String, f64)>,
    /// Mean per-publish time by layer, `unattributed` included.
    pub publish_budget: Vec<(String, f64)>,
    /// Share of replayed operation time no layer span covers.
    pub unattributed_frac: f64,
}

impl SpanStats {
    /// Median duration of spans named `name`, microseconds (0 if none).
    pub fn p50(&self, name: &str) -> f64 {
        self.quantile(name, 0.5)
    }

    /// Quantile `q` of the durations of spans named `name`.
    pub fn quantile(&self, name: &str, q: f64) -> f64 {
        self.durations_us
            .get(name)
            .map_or(0.0, |d| quantile(&sorted(d.clone()), q))
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.durations_us.get(name).map_or(0, Vec::len)
    }

    fn total(&self, name: &str) -> f64 {
        self.durations_us.get(name).map_or(0.0, |d| d.iter().sum())
    }
}

/// The layer of a span name: the part before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Derives self times, counts and the read and publish budgets.
pub fn analyse(replay: &Replay) -> SpanStats {
    let spans = replay.tracer.spans();
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.duration_ns();
        }
    }
    let mut durations_us: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut self_us: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut read_layers: BTreeMap<String, f64> = BTreeMap::new();
    for (span, &children) in spans.iter().zip(&child_ns) {
        let own = span.duration_ns().saturating_sub(children) as f64 / 1e3;
        durations_us
            .entry(span.name)
            .or_default()
            .push(span.duration_ns() as f64 / 1e3);
        *self_us.entry(span.name).or_default() += own;
        let in_read = match span.parent {
            None => span.name == READ_OP,
            Some(parent) => spans[parent].name == READ_OP,
        };
        if in_read {
            let layer = if span.parent.is_none() {
                "unattributed"
            } else {
                layer_of(span.name)
            };
            *read_layers.entry(layer.to_string()).or_default() += own;
        }
    }
    let mut stats = SpanStats {
        reads: durations_us.get(READ_OP).map_or(0, Vec::len),
        publishes: durations_us.get(PUBLISH_OP).map_or(0, Vec::len),
        durations_us,
        self_us,
        read_budget: Vec::new(),
        publish_budget: Vec::new(),
        unattributed_frac: 0.0,
    };
    let reads = stats.reads.max(1) as f64;
    stats.read_budget = read_layers
        .into_iter()
        .map(|(layer, us)| (layer, us / reads))
        .collect();

    // Publish budget: the registry publish plus the cache carry-forward is
    // the total; the separately timed pieces attribute the registry part.
    let publishes = stats.publishes.max(1) as f64;
    let per = |name: &str| stats.total(name) / publishes;
    let graph = per("graph.apply_delta") + per("graph.schema_graph");
    let splice = if replay.sharded {
        per("sharded.apply_delta") - per("graph.apply_delta")
    } else {
        0.0
    };
    let scoring = per("scoring.rescore_delta") + per("scoring.scores_identical");
    let cache = per("cache.carry_forward");
    let total = per("registry.publish_delta") + cache;
    let unattributed = total - graph - splice - scoring - cache;
    stats.publish_budget = vec![
        ("graph".to_string(), graph),
        ("sharded".to_string(), splice),
        ("scoring".to_string(), scoring),
        ("cache".to_string(), cache),
        ("unattributed".to_string(), unattributed),
    ];
    let read_total = stats.total(READ_OP);
    let read_unattributed = stats.self_us.get(READ_OP).copied().unwrap_or(0.0);
    let publish_total = total * stats.publishes as f64;
    let publish_unattributed = unattributed * stats.publishes as f64;
    let all = read_total + publish_total;
    stats.unattributed_frac = if all > 0.0 {
        (read_unattributed + publish_unattributed) / all
    } else {
        0.0
    };
    stats
}

/// Renders a budget as text rows: layer, mean µs, share of the total.
pub fn budget_table(title: &str, rows: &[(String, f64)]) -> String {
    let total: f64 = rows.iter().map(|(_, us)| us).sum();
    let mut out = format!(
        "{title}\n  {:<14} {:>12} {:>8}\n",
        "layer", "mean_us", "share"
    );
    for (layer, us) in rows {
        let share = if total > 0.0 { us / total } else { 0.0 };
        let _ = writeln!(out, "  {layer:<14} {us:>12.3} {share:>8.4}");
    }
    let _ = writeln!(out, "  {:<14} {total:>12.3} {:>8.4}", "total", 1.0);
    out
}

/// Writes every span as one JSON object per line.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 96);
    for span in spans {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            span.op, span.name, span.start_ns, span.end_ns
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_root_self_is_unattributed() {
        let replay = Replay {
            tracer: Tracer {
                origin: Instant::now(),
                spans: vec![
                    span(READ_OP, 0, 10_000, None),
                    span("registry.resolve", 1_000, 2_000, Some(0)),
                    span("cache.lookup", 2_000, 3_000, Some(0)),
                    span("algo.dp", 3_000, 9_000, Some(0)),
                ],
            },
            sharded: false,
            deltas: Vec::new(),
            stream: Inputs::generate(&crate::workload::WORKLOADS[0], 1, 1.0).update_stream(),
        };
        let stats = analyse(&replay);
        let budget: BTreeMap<_, _> = stats.read_budget.iter().cloned().collect();
        assert_eq!(budget["registry"], 1.0);
        assert_eq!(budget["cache"], 1.0);
        assert_eq!(budget["algo"], 6.0);
        assert_eq!(budget["unattributed"], 2.0);
        assert!((stats.unattributed_frac - 0.2).abs() < 1e-12);
    }
}
