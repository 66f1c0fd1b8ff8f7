//! The serving engine: worker pool + registry + result cache + stats.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use entity_graph::{DeltaSummary, GraphDelta};
use preview_obs::{
    Counter, DumpReason, MemorySection, ObsSnapshot, Recorder, ShardMemory, Stage, TraceId,
    TraceOutcome,
};

use preview_core::{AnytimeBudget, BestFirstDiscovery};

use crate::cache::{CacheStats, ShardedLruCache};
use crate::registry::{GraphRegistry, RegisteredGraph};
use crate::request::{
    CacheKey, CachedPreview, PreviewRequest, PreviewResponse, ResolvedAlgorithm, ScoringKey,
    ServiceError, ServiceResult,
};
use crate::stats::{ServiceStats, StatsRecorder};
use crate::sync::lock_unpoisoned;
use crate::worker::{BoundedQueue, PushError};

/// Sizing knobs of a [`PreviewService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Number of worker threads (clamped to ≥ 1).
    pub workers: usize,
    /// Bounded request-queue capacity (clamped to ≥ 1).
    pub queue_capacity: usize,
    /// Total result-cache capacity; `0` disables the cache entirely.
    pub cache_capacity: usize,
    /// Number of cache shards (clamped to ≥ 1).
    pub cache_shards: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 256,
            cache_capacity: 1024,
            cache_shards: 8,
        }
    }
}

impl ServiceConfig {
    /// A configuration with `workers` threads and the remaining defaults.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers,
            ..Self::default()
        }
    }
}

/// One queued unit of work.
struct Job {
    request: PreviewRequest,
    /// Enqueue time, for queue-wait latency accounting only.
    // lint: allow(wall-clock, queue-wait measurement feeds stats only; results never depend on it)
    enqueued: Instant,
    /// Trace id minted at ingress from the request sequence number — the
    /// worker reuses it as the root of this request's span tree.
    trace: TraceId,
    reply: mpsc::Sender<ServiceResult<PreviewResponse>>,
}

/// A slot shared by every worker computing (or awaiting) the same cold key.
type InflightSlot = Arc<OnceLock<ServiceResult<Arc<CachedPreview>>>>;

/// State shared between the service handle and its workers.
struct Shared {
    registry: Arc<GraphRegistry>,
    cache: Option<ShardedLruCache<CacheKey, Arc<CachedPreview>>>,
    /// Cold keys currently being computed: concurrent identical requests
    /// share one discovery run instead of each repeating it (the same
    /// `OnceLock` pattern the registry uses for scoring). Entries are
    /// removed as soon as the computation finishes.
    inflight: Mutex<HashMap<CacheKey, InflightSlot>>,
    stats: StatsRecorder,
    /// The observability recorder every worker attaches at startup. Disabled
    /// by default: spans then cost one relaxed atomic load each.
    obs: Arc<Recorder>,
    /// Ingress sequence number; each submitted request takes the next value
    /// and derives its [`TraceId`] from it, so trace identity is a pure
    /// function of arrival order — no ambient randomness.
    seq: AtomicU64,
    /// Fault injection (see [`PreviewService::inject_panic_next`]): when
    /// set, the next computed request panics inside its span stack,
    /// exercising the panic-dump and panic-retention paths end to end.
    inject_panic: AtomicBool,
    /// Fault injection (see [`PreviewService::inject_delay_next`]): the next
    /// computed request sleeps this many microseconds inside its discovery
    /// span, exercising slow-request retention end to end.
    inject_delay_us: AtomicU64,
}

impl Shared {
    /// Resolves and answers one request; the cache is consulted first, a
    /// cold key is computed at most once across concurrent workers, and the
    /// result is published for later identical requests.
    fn execute(
        &self,
        request: &PreviewRequest,
        queue_wait: Duration,
    ) -> ServiceResult<PreviewResponse> {
        // lint: allow(wall-clock, compute-latency measurement feeds stats only)
        let start = Instant::now();
        let graph = self.registry.resolve(&request.graph, request.version)?;
        if let Some(budget) = request.node_budget {
            return self.execute_anytime(request, &graph, budget, queue_wait, start);
        }
        // Auto-resolution sizes the space by the schema's type count — an
        // upper bound on the eligible types, deterministic per version and
        // available without forcing scoring on the cache-hit path.
        let algorithm = request
            .algorithm
            .resolve_for(&request.space, graph.graph().schema_graph().type_count());
        let key = CacheKey {
            graph: graph.name().to_string(),
            version: graph.version(),
            scoring: ScoringKey::from(&request.scoring),
            space: request.space,
            algorithm,
        };
        let (cached, cache_hit) = self.lookup_or_compute(request, &graph, &key)?;
        Ok(PreviewResponse {
            graph: key.graph,
            version: key.version,
            algorithm,
            preview: cached.preview.clone(),
            score: cached.score,
            cache_hit,
            queue_wait,
            compute: start.elapsed(),
            optimality_gap: None,
            trace: None,
        })
    }

    /// Answers an anytime (budgeted) request: always the best-first engine,
    /// and always **outside** the result cache — the incumbent under a
    /// budget may be sub-optimal, and neither serving it to an exact request
    /// nor serving a cached exact result while claiming a gap would be
    /// honest, so budgeted requests are neither looked up nor inserted.
    fn execute_anytime(
        &self,
        request: &PreviewRequest,
        graph: &RegisteredGraph,
        budget: u64,
        queue_wait: Duration,
        // lint: allow(wall-clock, latency anchor threaded through for stats only)
        start: Instant,
    ) -> ServiceResult<PreviewResponse> {
        let _discovery = preview_obs::span!(Stage::Discovery);
        let scored = graph.scored_for(&request.scoring)?;
        let outcome = {
            let _algorithm =
                preview_obs::span!(Stage::Algorithm, threads = request.scoring.threads);
            BestFirstDiscovery::new().discover_anytime(
                &scored,
                &request.space,
                AnytimeBudget::nodes(budget),
            )?
        };
        Ok(PreviewResponse {
            graph: graph.name().to_string(),
            version: graph.version(),
            algorithm: ResolvedAlgorithm::BestFirst,
            preview: outcome.preview.clone(),
            score: outcome.score,
            cache_hit: false,
            queue_wait,
            compute: start.elapsed(),
            optimality_gap: Some(outcome.optimality_gap()),
            trace: None,
        })
    }

    /// Returns the result for `key` plus whether it was served without
    /// running discovery on this call (LRU hit or shared in-flight compute).
    fn lookup_or_compute(
        &self,
        request: &PreviewRequest,
        graph: &RegisteredGraph,
        key: &CacheKey,
    ) -> ServiceResult<(Arc<CachedPreview>, bool)> {
        if let Some(cache) = &self.cache {
            let _lookup = preview_obs::span!(Stage::CacheLookup);
            if let Some(cached) = cache.get(key) {
                return Ok((cached, true));
            }
        }
        let slot: InflightSlot = {
            let mut inflight = lock_unpoisoned(&self.inflight);
            Arc::clone(inflight.entry(key.clone()).or_default())
        };
        let mut computed = false;
        let outcome = slot
            .get_or_init(|| {
                computed = true;
                self.compute(request, graph, key)
            })
            .clone();
        // First finisher retires the slot so the map cannot grow; later
        // identical requests find the result in the LRU cache instead.
        if computed {
            let mut inflight = lock_unpoisoned(&self.inflight);
            if let Some(current) = inflight.get(key) {
                if Arc::ptr_eq(current, &slot) {
                    inflight.remove(key);
                }
            }
        }
        outcome.map(|cached| (cached, !computed))
    }

    /// Runs scoring + discovery on `graph` — the version `key` names, as
    /// [`execute`](Self::execute) resolved it — and publishes the result to
    /// the LRU cache. Resolving "latest" again here would let a publish that
    /// lands in between label and cache version v with v + 1's answer.
    fn compute(
        &self,
        request: &PreviewRequest,
        graph: &RegisteredGraph,
        key: &CacheKey,
    ) -> ServiceResult<Arc<CachedPreview>> {
        let _discovery = preview_obs::span!(Stage::Discovery);
        // lint: ordering-ok(one-shot fault-injection latch; SeqCst keeps arm/fire strictly ordered)
        let delay_us = self.inject_delay_us.swap(0, Ordering::SeqCst);
        if delay_us > 0 {
            thread::sleep(Duration::from_micros(delay_us));
        }
        // lint: ordering-ok(one-shot fault-injection latch; SeqCst keeps arm/fire strictly ordered)
        if self.inject_panic.swap(false, Ordering::SeqCst) {
            // lint: allow(request-path-unwrap, deliberate fault injection exercising the panic-dump path)
            panic!("injected test panic");
        }
        let scored = graph.scored_for(&request.scoring)?;
        let preview = {
            let _algorithm =
                preview_obs::span!(Stage::Algorithm, threads = request.scoring.threads);
            key.algorithm
                .discovery()
                .discover(&scored, &request.space)?
        };
        let score = preview
            .as_ref()
            .map(|p| scored.preview_score(p))
            .unwrap_or(0.0);
        let cached = Arc::new(CachedPreview { preview, score });
        if let Some(cache) = &self.cache {
            cache.insert(key.clone(), Arc::clone(&cached));
        }
        Ok(cached)
    }

    fn cache_stats(&self) -> CacheStats {
        self.cache.as_ref().map(|c| c.stats()).unwrap_or_default()
    }

    #[cfg(test)]
    fn inflight_len(&self) -> usize {
        lock_unpoisoned(&self.inflight).len()
    }
}

/// The outcome of [`PreviewService::publish_delta`]: the registry-level
/// publish plus the result-cache maintenance that came with it.
#[derive(Debug, Clone)]
pub struct PublishReport {
    /// Graph name the delta was published to.
    pub graph: String,
    /// The version that was latest before the publish.
    pub previous_version: u32,
    /// The version now serving "latest" requests.
    pub version: u32,
    /// Whether a new version was created (`false` iff the delta was empty —
    /// an empty delta never bumps the version).
    pub bumped: bool,
    /// What the delta changed.
    pub summary: DeltaSummary,
    /// Memoized scoring configurations carried forward through incremental
    /// rescoring.
    pub rescored_configs: usize,
    /// How many of those configurations were provably unaffected (bitwise
    /// identical scores).
    pub unaffected_configs: usize,
    /// Cache entries re-keyed onto the new version because their scoring
    /// configuration was provably unaffected.
    pub cache_carried_forward: u64,
    /// Cache entries of the superseded version that were not carried
    /// forward — cold for latest traffic as of this bump. Counted once per
    /// entry; later retention purges are not re-counted.
    pub cache_invalidated: u64,
    /// Superseded graph versions dropped by the retention window.
    pub versions_dropped: usize,
    /// Whether the sharded representation was updated by splicing only the
    /// touched shards (`true`) or rebuilt by a full reshard (`false`;
    /// removals invalidate shard-local indices). Always `true` for graphs
    /// without a sharded representation.
    pub spliced: bool,
    /// Shards whose payload the publish actually rewrote; `0` for unsharded
    /// graphs, every shard for a full reshard.
    pub touched_shards: usize,
}

/// A handle to an answer that is still being computed.
///
/// Returned by [`PreviewService::submit`]; [`wait`](PendingResponse::wait)
/// blocks until the worker replies.
#[derive(Debug)]
pub struct PendingResponse {
    rx: mpsc::Receiver<ServiceResult<PreviewResponse>>,
}

impl PendingResponse {
    /// Blocks until the response is ready.
    pub fn wait(self) -> ServiceResult<PreviewResponse> {
        self.rx.recv().unwrap_or(Err(ServiceError::WorkerLost))
    }

    /// Waits at most `timeout`; `None` means the response is not ready yet.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<ServiceResult<PreviewResponse>> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServiceError::WorkerLost)),
        }
    }
}

/// A concurrent, cached preview-serving engine.
///
/// See the [crate-level docs](crate) for the register → serve → stats
/// quick-start. Dropping the service closes the queue, drains outstanding
/// requests and joins every worker.
pub struct PreviewService {
    shared: Arc<Shared>,
    queue: Arc<BoundedQueue<Job>>,
    workers: Vec<JoinHandle<()>>,
    shutting_down: AtomicBool,
}

impl std::fmt::Debug for PreviewService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreviewService")
            .field("workers", &self.workers.len())
            .field("queue_depth", &self.queue.len())
            .finish()
    }
}

impl PreviewService {
    /// Spawns the worker pool over `registry` with a fresh, disabled
    /// [`Recorder`] — instrumentation stays at its near-zero cost until
    /// [`recorder()`](Self::recorder)`.enable()` is called.
    pub fn start(config: ServiceConfig, registry: Arc<GraphRegistry>) -> Self {
        Self::start_with_recorder(config, registry, Arc::new(Recorder::default()))
    }

    /// Spawns the worker pool with a caller-supplied [`Recorder`] (e.g. one
    /// with a slow-request threshold or a larger flight ring). Every worker
    /// thread attaches it for its whole lifetime.
    pub fn start_with_recorder(
        config: ServiceConfig,
        registry: Arc<GraphRegistry>,
        recorder: Arc<Recorder>,
    ) -> Self {
        let cache = (config.cache_capacity > 0)
            .then(|| ShardedLruCache::new(config.cache_capacity, config.cache_shards));
        let shared = Arc::new(Shared {
            registry,
            cache,
            inflight: Mutex::new(HashMap::new()),
            stats: StatsRecorder::new(),
            obs: recorder,
            seq: AtomicU64::new(0),
            inject_panic: AtomicBool::new(false),
            inject_delay_us: AtomicU64::new(0),
        });
        let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let queue = Arc::clone(&queue);
                thread::Builder::new()
                    .name(format!("preview-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &queue))
                    // lint: allow(request-path-unwrap, startup-only; a host that cannot spawn threads cannot serve at all)
                    .expect("spawn preview worker")
            })
            .collect();
        Self {
            shared,
            queue,
            workers,
            shutting_down: AtomicBool::new(false),
        }
    }

    /// The registry this service answers from.
    pub fn registry(&self) -> &Arc<GraphRegistry> {
        &self.shared.registry
    }

    /// The observability recorder the workers record into. Enable it to
    /// start collecting spans; counters accumulate regardless.
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.shared.obs
    }

    /// A unified observability snapshot: counters, per-stage histograms
    /// (the `request` stage, with trace-id exemplars, is the end-to-end
    /// latency), retained flight dumps and trace trees, and the memory
    /// breakdown of the latest sharded graph version (when one is
    /// registered).
    pub fn snapshot(&self) -> ObsSnapshot {
        let mut snapshot = self.shared.obs.snapshot();
        snapshot.memory = self.latest_sharded_memory();
        snapshot
    }

    /// Fault injection: the next *computed* (cache-missing) request panics
    /// inside its span stack. The worker survives; the caller receives
    /// [`ServiceError::Panicked`]. Exercises the panic-dump and
    /// panic-retention paths end to end — meant for tests and
    /// observability drills, not production traffic.
    pub fn inject_panic_next(&self) {
        // lint: ordering-ok(one-shot fault-injection latch; SeqCst keeps arm/fire strictly ordered)
        self.shared.inject_panic.store(true, Ordering::SeqCst);
    }

    /// Fault injection: the next *computed* (cache-missing) request sleeps
    /// `delay_us` microseconds inside its discovery span, exercising
    /// slow-request retention end to end. Meant for tests and
    /// observability drills, not production traffic.
    pub fn inject_delay_next(&self, delay_us: u64) {
        self.shared
            .inject_delay_us
            // lint: ordering-ok(one-shot fault-injection latch; SeqCst keeps arm/fire strictly ordered)
            .store(delay_us, Ordering::SeqCst);
    }

    /// Memory report of the first registered graph whose latest version has
    /// a sharded representation, converted into the snapshot's schema.
    fn latest_sharded_memory(&self) -> Option<MemorySection> {
        let registry = &self.shared.registry;
        registry.names().iter().find_map(|name| {
            let report = registry.get(name, None)?.sharded()?.memory_report();
            Some(MemorySection {
                shard_count: report.shard_count as u64,
                entities: report.entities as u64,
                edges: report.edges as u64,
                sharded_total_bytes: report.sharded_total_bytes,
                unsharded_total_bytes: report.unsharded_total_bytes,
                shards: report
                    .shards
                    .iter()
                    .map(|shard| ShardMemory {
                        shard: shard.shard as u64,
                        entities: shard.entities as u64,
                        segments: shard.segments as u64,
                        encoded_payload_bytes: shard.encoded_payload_bytes,
                        directory_bytes: shard.directory_bytes,
                        total_bytes: shard.total_bytes,
                    })
                    .collect(),
            })
        })
    }

    /// Enqueues a request, blocking while the queue is full (backpressure).
    pub fn submit(&self, request: PreviewRequest) -> ServiceResult<PendingResponse> {
        self.enqueue(request, true)
    }

    /// Enqueues a request without blocking; [`ServiceError::QueueFull`] when
    /// the queue is at capacity.
    pub fn try_submit(&self, request: PreviewRequest) -> ServiceResult<PendingResponse> {
        self.enqueue(request, false)
    }

    fn enqueue(&self, request: PreviewRequest, block: bool) -> ServiceResult<PendingResponse> {
        let (tx, rx) = mpsc::channel();
        let job = Job {
            request,
            // lint: allow(wall-clock, queue-wait measurement feeds stats only)
            enqueued: Instant::now(),
            // Trace identity is the ingress sequence number — deterministic
            // per arrival order, never ambient randomness.
            // lint: ordering-ok(monotonic id mint; only uniqueness matters, not ordering with other state)
            trace: TraceId::from_seq(self.shared.seq.fetch_add(1, Ordering::Relaxed)),
            reply: tx,
        };
        let pushed = if block {
            self.queue.push(job)
        } else {
            self.queue.try_push(job)
        };
        match pushed {
            Ok(()) => {
                self.shared.stats.record_submitted();
                Ok(PendingResponse { rx })
            }
            Err(PushError::Full) => Err(ServiceError::QueueFull),
            Err(PushError::Closed) => Err(ServiceError::ShuttingDown),
        }
    }

    /// Convenience: submit and block until the response arrives.
    pub fn submit_wait(&self, request: PreviewRequest) -> ServiceResult<PreviewResponse> {
        self.submit(request)?.wait()
    }

    /// Answers a request on the calling thread, bypassing the queue and the
    /// worker pool (but still using — and populating — the shared cache).
    /// Latency is not recorded in the service stats.
    pub fn execute_inline(&self, request: &PreviewRequest) -> ServiceResult<PreviewResponse> {
        self.shared.execute(request, Duration::ZERO)
    }

    /// Publishes a batch of graph edits against the latest version of
    /// `name`, with version-aware cache maintenance.
    ///
    /// The registry applies the delta by CSR splicing and carries every
    /// memoized scoring configuration forward through incremental rescoring
    /// (see [`GraphRegistry::publish_delta`]); this method then maintains
    /// the result cache:
    ///
    /// * entries keyed to graph versions that fell out of the retention
    ///   window are purged (they could never be served again — resolution
    ///   fails before the cache is consulted),
    /// * entries of the superseded latest version whose scoring
    ///   configuration the delta **provably did not affect** (bitwise
    ///   identical scores and schema shape — deterministic discovery
    ///   therefore returns the identical preview) are re-keyed onto the new
    ///   version, so latest-version traffic keeps hitting warm entries
    ///   across the bump,
    /// * superseded-version entries that are **not** carried are counted as
    ///   invalidated — exactly once, at the bump that made them cold for
    ///   latest traffic (later retention purges are cleanup, not counted
    ///   again).
    ///
    /// The retention/invalidation counts are returned and accumulated into
    /// [`ServiceStats`]. An empty delta is a no-op: no version bump, no
    /// cache maintenance.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphRegistry::publish_delta`] errors; the cache is only
    /// touched after the registry publish succeeded.
    pub fn publish_delta(&self, name: &str, delta: &GraphDelta) -> ServiceResult<PublishReport> {
        // The registry's span is the one `publish` stage record per call;
        // attaching makes it (and its sub-stages) land in this service's
        // recorder from any publishing thread, attached or not.
        let _attach = self.shared.obs.attach();
        let publish = self.shared.registry.publish_delta(name, delta)?;
        let mut carried_forward = 0u64;
        let mut invalidated = 0u64;
        if publish.bumped {
            if let Some(cache) = &self.shared.cache {
                let new_version = publish.registered.version();
                let previous = publish.previous_version;
                let live = self.shared.registry.versions(name);
                // Collect the superseded version's entries before purging:
                // with a retention window of 1 the previous version itself
                // is already unresolvable, but its unaffected entries are
                // still bit-correct for the new version.
                let previous_entries =
                    cache.collect_matching(|k| k.graph == name && k.version == previous);
                // Purge entries of versions that fell out of the retention
                // window — they can never resolve again. This is cleanup,
                // not invalidation: each entry already went cold (and was
                // counted) at the bump that superseded its version.
                cache.extract_matching(|k| k.graph == name && !live.contains(&k.version));
                for (key, value) in previous_entries {
                    if publish.unaffected_configs.contains(&key.scoring) {
                        let mut carried = key;
                        carried.version = new_version;
                        cache.insert(carried, value);
                        carried_forward += 1;
                    } else {
                        // Cold for latest traffic as of this bump — counted
                        // exactly once, here, whether or not the superseded
                        // version stays resolvable for pinned requests.
                        invalidated += 1;
                    }
                }
            }
            self.shared
                .stats
                .record_publish(carried_forward, invalidated);
            let obs = &self.shared.obs;
            obs.add_counter(Counter::Publishes, 1);
            obs.add_counter(
                if publish.spliced {
                    Counter::PublishSplices
                } else {
                    Counter::PublishFullReshards
                },
                1,
            );
            obs.add_counter(Counter::PublishTouchedShards, publish.touched_shards as u64);
            obs.add_counter(Counter::CacheCarried, carried_forward);
            obs.add_counter(Counter::CacheInvalidated, invalidated);
        }
        Ok(PublishReport {
            graph: name.to_string(),
            previous_version: publish.previous_version,
            version: publish.registered.version(),
            bumped: publish.bumped,
            summary: publish.summary,
            rescored_configs: publish.rescored_configs,
            unaffected_configs: publish.unaffected_configs.len(),
            cache_carried_forward: carried_forward,
            cache_invalidated: invalidated,
            versions_dropped: publish.versions_dropped,
            spliced: publish.spliced,
            touched_shards: publish.touched_shards,
        })
    }

    /// A point-in-time snapshot of throughput, latency and cache behaviour.
    pub fn stats(&self) -> ServiceStats {
        self.shared
            .stats
            .snapshot(self.shared.cache_stats(), self.queue.len())
    }

    /// Stops accepting requests, drains the queue, and joins the workers.
    pub fn shutdown(mut self) -> ServiceStats {
        self.shutdown_in_place();
        self.stats()
    }

    fn shutdown_in_place(&mut self) {
        // lint: ordering-ok(one-shot shutdown latch; SeqCst is the conservative choice on a cold path)
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.close();
        for worker in self.workers.drain(..) {
            // Per-request panics are caught inside the loop, so this only
            // trips on a harness-level bug; never panic here — shutdown can
            // run from Drop during an unwind, where a panic would abort.
            if worker.join().is_err() {
                // lint: allow(no-println, last-resort diagnostic during shutdown; no logger is safe to call here)
                eprintln!("preview-service: worker thread panicked outside request handling");
            }
        }
    }
}

impl Drop for PreviewService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn worker_loop(shared: &Shared, queue: &BoundedQueue<Job>) {
    // Workers record into the service's recorder for their whole lifetime.
    let _attach = shared.obs.attach();
    while let Some(job) = queue.pop() {
        let queue_wait = job.enqueued.elapsed();
        // Open the request's trace before any span fires: every span the
        // request records on this thread then parents into one tree rooted
        // at the ingress-minted trace id. Inert when the recorder is off.
        let tguard = shared.obs.begin_trace(job.trace, job.enqueued);
        // Isolate panics per request: a buggy graph/space combination must
        // not take the worker (and with it the whole pool) down — the caller
        // gets a typed error and the worker moves on to the next job. Spans
        // live *inside* the unwind boundary: an unwinding request drops its
        // guards on the way out, so its whole span trail reaches the flight
        // ring (and the trace tree) before the dump below is captured. The
        // root Request span itself is synthesized by `TraceGuard::finish`,
        // covering enqueue-to-finish rather than just the compute section.
        let mut result = catch_unwind(AssertUnwindSafe(|| {
            shared.execute(&job.request, queue_wait)
        }))
        .unwrap_or_else(|payload| {
            // `as_ref`, not `&payload`: a `&Box<dyn Any>` coerces to
            // `&dyn Any` *as the box itself*, which no downcast matches.
            Err(ServiceError::Panicked {
                message: panic_message(payload.as_ref()),
            })
        });
        let mut latency_us = 0u64;
        let (outcome, detail) = match &mut result {
            Ok(response) => {
                response.trace = Some(job.trace);
                let latency = response.latency();
                latency_us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
                shared.stats.record_completed(latency);
                (
                    TraceOutcome::Ok,
                    format!("graph={} latency_us={latency_us}", job.request.graph),
                )
            }
            Err(ServiceError::Panicked { message }) => {
                shared.stats.record_failed();
                (
                    TraceOutcome::Panic,
                    format!("graph={} panic={message}", job.request.graph),
                )
            }
            Err(other) => {
                shared.stats.record_failed();
                (
                    TraceOutcome::Error,
                    format!("graph={} error={other}", job.request.graph),
                )
            }
        };
        // Finish the trace *before* the reply is sent: once the client
        // unblocks, the retained tree / dump must already be observable.
        if tguard.is_active() {
            // Finish closes the tree (synthesizing the QueueWait child and
            // the root Request span), decides retention — slow / error /
            // panic / head-sampled — and captures at most one flight dump
            // with the joined reasons.
            tguard.finish(queue_wait, outcome, &detail);
        } else {
            // Recorder disabled (or enabled mid-request): keep the plain
            // dump paths alive so panics and slow requests are still caught.
            match outcome {
                TraceOutcome::Panic => {
                    shared.obs.capture_dump(DumpReason::Panic, &detail);
                }
                TraceOutcome::Ok if shared.obs.config().slow_threshold_us.is_some() => {
                    shared.obs.maybe_dump_slow(latency_us, &detail);
                }
                _ => {}
            }
        }
        {
            // The client may have dropped its handle; that is not an error.
            // This span fires after the trace closed, so it feeds the
            // aggregate Response histogram only — the send sits outside the
            // request's own tree by construction.
            let _response = preview_obs::span!(Stage::Response);
            let _ = job.reply.send(result);
        }
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entity_graph::fixtures;
    use preview_core::PreviewSpace;

    fn fig1_service(config: ServiceConfig) -> PreviewService {
        let registry = Arc::new(GraphRegistry::new());
        registry.register("fig1", fixtures::figure1_graph());
        PreviewService::start(config, registry)
    }

    #[test]
    fn serves_the_papers_running_example() {
        let service = fig1_service(ServiceConfig::default());
        let request = crate::PreviewRequest::new("fig1", PreviewSpace::concise(2, 6).unwrap());
        let response = service.submit_wait(request).unwrap();
        assert_eq!(response.version, 1);
        assert!(!response.cache_hit);
        assert!((response.score - 84.0).abs() < 1e-9);
        assert_eq!(response.preview.unwrap().tables().len(), 2);
    }

    #[test]
    fn second_identical_request_hits_the_cache() {
        let service = fig1_service(ServiceConfig::default());
        let request = crate::PreviewRequest::new("fig1", PreviewSpace::concise(2, 6).unwrap());
        let first = service.submit_wait(request.clone()).unwrap();
        let second = service.submit_wait(request).unwrap();
        assert!(!first.cache_hit);
        assert!(second.cache_hit);
        assert_eq!(first.preview, second.preview);
        assert_eq!(first.score, second.score);
        let stats = service.stats();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.cache.hits, 1);
    }

    #[test]
    fn unknown_graph_is_a_typed_error() {
        let service = fig1_service(ServiceConfig::default());
        let request = crate::PreviewRequest::new("nope", PreviewSpace::concise(1, 1).unwrap());
        let err = service.submit_wait(request).unwrap_err();
        assert!(matches!(err, ServiceError::GraphNotFound { .. }));
        assert_eq!(service.stats().failed, 1);
    }

    #[test]
    fn inflight_map_is_empty_after_requests_finish() {
        let service = fig1_service(ServiceConfig::default());
        for (k, n) in [(1, 2), (2, 6), (2, 4)] {
            let request = crate::PreviewRequest::new("fig1", PreviewSpace::concise(k, n).unwrap());
            service.submit_wait(request).unwrap();
        }
        assert_eq!(service.shared.inflight_len(), 0);
        assert_eq!(service.stats().cache.insertions, 3);
    }

    #[test]
    fn concurrent_identical_cold_requests_share_one_compute() {
        let service = Arc::new(fig1_service(ServiceConfig::default()));
        let clients: Vec<_> = (0..8)
            .map(|_| {
                let service = Arc::clone(&service);
                thread::spawn(move || {
                    let request =
                        crate::PreviewRequest::new("fig1", PreviewSpace::concise(2, 6).unwrap());
                    service.submit_wait(request).unwrap()
                })
            })
            .collect();
        let responses: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        for response in &responses {
            assert!((response.score - 84.0).abs() < 1e-9);
        }
        // Discovery ran at most once per worker that raced the cold key;
        // requests that shared an in-flight compute report a cache hit.
        let stats = service.stats();
        assert!(stats.cache.insertions <= 4, "{}", stats.cache.insertions);
        assert_eq!(
            responses.iter().filter(|r| !r.cache_hit).count() as u64,
            stats.cache.insertions
        );
        assert_eq!(service.shared.inflight_len(), 0);
    }

    #[test]
    fn anytime_requests_bypass_the_cache_and_report_a_gap() {
        let service = fig1_service(ServiceConfig::default());
        let space = PreviewSpace::diverse(2, 6, 2).unwrap();
        // An exact request populates the cache for this space.
        let exact = service
            .submit_wait(crate::PreviewRequest::new("fig1", space))
            .unwrap();
        assert_eq!(exact.optimality_gap, None);
        assert!(!exact.cache_hit);

        // A generous budget closes the proof: same preview, zero gap — but
        // still flagged as anytime and never served from (or into) the cache.
        let generous = service
            .submit_wait(crate::PreviewRequest::new("fig1", space).with_node_budget(1 << 20))
            .unwrap();
        assert!(!generous.cache_hit);
        assert_eq!(generous.algorithm, ResolvedAlgorithm::BestFirst);
        assert_eq!(generous.optimality_gap, Some(0.0));
        assert_eq!(generous.preview, exact.preview);
        assert_eq!(generous.score.to_bits(), exact.score.to_bits());

        // A zero budget returns no incumbent but a positive upper bound.
        let starved = service
            .submit_wait(crate::PreviewRequest::new("fig1", space).with_node_budget(0))
            .unwrap();
        assert!(!starved.cache_hit);
        assert!(starved.preview.is_none());
        assert!(starved.optimality_gap.unwrap() >= exact.score);

        // Cache insertions: only the exact request's single entry.
        assert_eq!(service.stats().cache.insertions, 1);
        // And a repeat of the anytime request still does not hit the cache.
        let repeat = service
            .submit_wait(crate::PreviewRequest::new("fig1", space).with_node_budget(1 << 20))
            .unwrap();
        assert!(!repeat.cache_hit);
        assert_eq!(service.stats().cache.insertions, 1);
    }

    #[test]
    fn anytime_discovery_records_search_counters() {
        let registry = Arc::new(GraphRegistry::new());
        registry.register("fig1", fixtures::figure1_graph());
        let recorder = Arc::new(Recorder::default());
        recorder.enable();
        let service = PreviewService::start_with_recorder(
            ServiceConfig::with_workers(1),
            registry,
            Arc::clone(&recorder),
        );
        let space = PreviewSpace::diverse(2, 6, 2).unwrap();
        let request = crate::PreviewRequest::new("fig1", space).with_node_budget(1 << 20);
        service.submit_wait(request).unwrap();
        recorder.disable();
        assert!(recorder.counter(Counter::NodesExpanded) > 0);
        assert!(recorder.counter(Counter::NodesPruned) > 0);
        assert!(recorder.stage_histogram(Stage::BestFirstSearch).count() >= 1);
    }

    #[test]
    fn explicit_best_first_shares_exact_semantics() {
        let service = fig1_service(ServiceConfig::default());
        let space = PreviewSpace::tight(2, 6, 3).unwrap();
        let apriori = service
            .submit_wait(
                crate::PreviewRequest::new("fig1", space).with_algorithm(crate::Algorithm::Apriori),
            )
            .unwrap();
        let best_first = service
            .submit_wait(
                crate::PreviewRequest::new("fig1", space)
                    .with_algorithm(crate::Algorithm::BestFirst),
            )
            .unwrap();
        assert_eq!(best_first.algorithm, ResolvedAlgorithm::BestFirst);
        assert_eq!(best_first.optimality_gap, None);
        assert_eq!(best_first.preview, apriori.preview);
        assert_eq!(best_first.score.to_bits(), apriori.score.to_bits());
        // Distinct resolved algorithms keep distinct cache keys.
        assert!(!best_first.cache_hit);
        assert_eq!(service.stats().cache.insertions, 2);
    }

    #[test]
    fn shutdown_joins_cleanly_with_no_traffic() {
        let registry = Arc::new(GraphRegistry::new());
        let service = PreviewService::start(ServiceConfig::with_workers(1), registry);
        let stats = service.shutdown();
        assert_eq!(stats.completed, 0);
    }

    /// Satellite: a panicking request must leave a flight-recorder dump
    /// containing its span trail — the unwind drops the request's guards
    /// into the ring before the dump is captured.
    #[test]
    fn panicking_request_leaves_a_flight_dump_with_its_span_trail() {
        let registry = Arc::new(GraphRegistry::new());
        registry.register("fig1", fixtures::figure1_graph());
        let recorder = Arc::new(Recorder::default());
        recorder.enable();
        let service = PreviewService::start_with_recorder(
            ServiceConfig::with_workers(1),
            registry,
            Arc::clone(&recorder),
        );

        service.inject_panic_next();
        let request = crate::PreviewRequest::new("fig1", PreviewSpace::concise(2, 6).unwrap());
        let err = service.submit_wait(request.clone()).unwrap_err();
        assert!(matches!(err, ServiceError::Panicked { .. }));
        assert_eq!(service.stats().failed, 1);

        let dumps = recorder.dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].reason, "panic");
        assert!(
            dumps[0].detail.contains("injected test panic"),
            "detail = {:?}",
            dumps[0].detail
        );
        let stages: Vec<Stage> = dumps[0].events.iter().map(|e| e.stage).collect();
        assert!(stages.contains(&Stage::Discovery), "{stages:?}");
        assert!(stages.contains(&Stage::Request), "{stages:?}");
        assert_eq!(recorder.counter(Counter::PanicDumps), 1);

        // The worker survived the panic and keeps serving.
        let response = service.submit_wait(request).unwrap();
        assert!((response.score - 84.0).abs() < 1e-9);
        recorder.disable();
    }

    #[test]
    fn slow_threshold_captures_a_slow_dump() {
        let registry = Arc::new(GraphRegistry::new());
        registry.register("fig1", fixtures::figure1_graph());
        // Threshold 0: every request is "slow".
        let recorder = Arc::new(Recorder::new(preview_obs::ObsConfig {
            slow_threshold_us: Some(0),
            ..preview_obs::ObsConfig::default()
        }));
        recorder.enable();
        let service = PreviewService::start_with_recorder(
            ServiceConfig::with_workers(1),
            registry,
            Arc::clone(&recorder),
        );
        let request = crate::PreviewRequest::new("fig1", PreviewSpace::concise(2, 6).unwrap());
        service.submit_wait(request).unwrap();
        recorder.disable();
        let dumps = recorder.dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].reason, "slow");
        assert!(dumps[0].detail.contains("graph=fig1"));
        assert_eq!(recorder.counter(Counter::SlowDumps), 1);
    }

    /// Tentpole invariant: instrumentation is output-neutral. The same
    /// request served with an enabled recorder is byte-identical to one
    /// served with instrumentation off — while the recorder actually
    /// collected per-stage spans.
    #[test]
    fn enabled_recorder_never_changes_responses() {
        let plain = fig1_service(ServiceConfig::default());
        let registry = Arc::new(GraphRegistry::new());
        registry.register("fig1", fixtures::figure1_graph());
        let recorder = Arc::new(Recorder::default());
        recorder.enable();
        let traced = PreviewService::start_with_recorder(
            ServiceConfig::default(),
            registry,
            Arc::clone(&recorder),
        );

        let request = crate::PreviewRequest::new("fig1", PreviewSpace::concise(2, 6).unwrap());
        let expected = plain.submit_wait(request.clone()).unwrap();
        let observed = traced.submit_wait(request).unwrap();
        recorder.disable();

        assert_eq!(observed.preview, expected.preview);
        assert_eq!(observed.score.to_bits(), expected.score.to_bits());
        for stage in [
            Stage::Request,
            Stage::QueueWait,
            Stage::Discovery,
            Stage::Algorithm,
        ] {
            assert_eq!(
                recorder.stage_histogram(stage).count(),
                1,
                "stage {} not recorded",
                stage.name()
            );
        }
        assert!(recorder.events_recorded() >= 4);
    }

    /// Satellite: byte-identity holds with the *full* trace pipeline on —
    /// trace trees, per-stage thresholds, and head sampling retaining every
    /// request. Results and score bits must match an uninstrumented service
    /// exactly.
    #[test]
    fn trace_trees_and_tail_sampling_never_change_responses() {
        let plain = fig1_service(ServiceConfig::default());
        let registry = Arc::new(GraphRegistry::new());
        registry.register("fig1", fixtures::figure1_graph());
        let recorder = Arc::new(Recorder::new(
            preview_obs::ObsConfig::default()
                .with_slow_threshold(0)
                .with_sample_every(1)
                .with_stage_threshold(Stage::Discovery, 0),
        ));
        recorder.enable();
        let traced = PreviewService::start_with_recorder(
            ServiceConfig::default(),
            registry,
            Arc::clone(&recorder),
        );

        for (k, n) in [(1, 2), (2, 6), (2, 4)] {
            let request = crate::PreviewRequest::new("fig1", PreviewSpace::concise(k, n).unwrap());
            let expected = plain.submit_wait(request.clone()).unwrap();
            let observed = traced.submit_wait(request).unwrap();
            assert_eq!(observed.preview, expected.preview);
            assert_eq!(observed.score.to_bits(), expected.score.to_bits());
            // Worker-served responses always carry their ingress trace id
            // (it is minted from the sequence number, not the recorder).
            assert!(observed.trace.is_some());
        }
        recorder.disable();

        // Every request was retained (threshold 0 + sample-every 1) and
        // every tree is well-formed: exactly one root, all parents resolve.
        let trees = recorder.traces().trees();
        assert_eq!(trees.len(), 3);
        for tree in &trees {
            let root = tree.root().expect("tree has a root");
            assert_eq!(root.stage, Stage::Request);
            for span in &tree.spans {
                if span.parent_id != 0 {
                    assert!(
                        tree.spans.iter().any(|s| s.span_id == span.parent_id),
                        "span {} has unresolvable parent {}",
                        span.span_id,
                        span.parent_id
                    );
                }
            }
        }
        // Trace ids are distinct and sequence-derived.
        let mut ids: Vec<u64> = trees.iter().map(|t| t.trace.as_u64()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn injected_delay_marks_the_request_slow_and_retains_its_tree() {
        let registry = Arc::new(GraphRegistry::new());
        registry.register("fig1", fixtures::figure1_graph());
        let recorder = Arc::new(Recorder::new(
            preview_obs::ObsConfig::default().with_slow_threshold(5_000),
        ));
        recorder.enable();
        let service = PreviewService::start_with_recorder(
            ServiceConfig::with_workers(1),
            registry,
            Arc::clone(&recorder),
        );
        service.inject_delay_next(20_000);
        let request = crate::PreviewRequest::new("fig1", PreviewSpace::concise(2, 6).unwrap());
        let response = service.submit_wait(request).unwrap();
        recorder.disable();
        assert!(response.latency() >= Duration::from_micros(20_000));

        let trees = recorder.traces().trees();
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].reasons, vec![preview_obs::RetainReason::Slow]);
        assert_eq!(Some(trees[0].trace), response.trace);
        // The same id is the exemplar of the request-stage bucket the
        // request landed in.
        let latency = recorder.stage_histogram(Stage::Request).snapshot();
        assert!(latency
            .bucket_exemplars()
            .iter()
            .any(|&t| t == trees[0].trace.as_u64()));
        let dumps = recorder.dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].reason, "slow");
    }

    /// A publish that lands while a cold request computes must not leak into
    /// it: `execute` keyed the request to version v, so both the reply and
    /// the cache entry for v hold v's answer, not v + 1's.
    #[test]
    fn publish_during_compute_keeps_the_resolved_version() {
        let registry = Arc::new(GraphRegistry::new());
        registry.register("fig1", fixtures::figure1_graph());
        let service = PreviewService::start(ServiceConfig::with_workers(1), Arc::clone(&registry));
        let request = crate::PreviewRequest::new("fig1", PreviewSpace::concise(2, 6).unwrap());
        let v1 = registry.resolve("fig1", None).unwrap();
        let algorithm = request
            .algorithm
            .resolve_for(&request.space, v1.graph().schema_graph().type_count());
        let scored = v1.scored_for(&request.scoring).unwrap();
        let expected = algorithm
            .discovery()
            .discover(&scored, &request.space)
            .unwrap()
            .unwrap();
        let expected_bits = scored.preview_score(&expected).to_bits();

        service.inject_delay_next(200_000);
        let pending = service.submit(request.clone()).unwrap();
        // The worker takes the delay on entering `compute`, after `execute`
        // resolved version 1 and built its cache key.
        while service.shared.inject_delay_us.load(Ordering::SeqCst) != 0 {
            thread::sleep(Duration::from_millis(1));
        }
        let mut delta = GraphDelta::new();
        delta.add_entity("Bad Boys", &["FILM"]).add_edge(
            "Will Smith",
            "Actor",
            "Bad Boys",
            "FILM ACTOR",
            "FILM",
        );
        assert_eq!(service.publish_delta("fig1", &delta).unwrap().version, 2);

        let response = pending.wait().unwrap();
        assert_eq!(response.version, 1);
        assert_eq!(response.preview.as_ref(), Some(&expected));
        assert_eq!(response.score.to_bits(), expected_bits);
        let cached = service
            .execute_inline(&request.clone().with_version(1))
            .unwrap();
        assert!(cached.cache_hit);
        assert_eq!(cached.preview.as_ref(), Some(&expected));
        assert_eq!(cached.score.to_bits(), expected_bits);
        // Version 2 answers differently, so a skew could not hide.
        let latest = service.submit_wait(request).unwrap();
        assert_eq!(latest.version, 2);
        assert_ne!(latest.score.to_bits(), expected_bits);
    }

    /// One `publish` stage record and one `publishes` count per bump, whether
    /// or not the publishing thread is attached to the service's recorder.
    #[test]
    fn publish_stage_counts_once_per_bump_from_any_thread() {
        for attached in [false, true] {
            let registry = Arc::new(GraphRegistry::new());
            registry.register("fig1", fixtures::figure1_graph());
            let recorder = Arc::new(Recorder::default());
            recorder.enable();
            let service = PreviewService::start_with_recorder(
                ServiceConfig::with_workers(1),
                registry,
                Arc::clone(&recorder),
            );
            let attachment = attached.then(|| recorder.attach());
            let mut bumps = 0;
            for film in ["Bad Boys", "Bad Boys II"] {
                let mut delta = GraphDelta::new();
                delta.add_entity(film, &["FILM"]);
                bumps += u64::from(service.publish_delta("fig1", &delta).unwrap().bumped);
            }
            drop(attachment);
            recorder.disable();
            assert_eq!(bumps, 2, "attached={attached}");
            assert_eq!(
                recorder.stage_histogram(Stage::Publish).count(),
                bumps,
                "attached={attached}"
            );
            assert_eq!(
                recorder.counter(Counter::Publishes),
                bumps,
                "attached={attached}"
            );
        }
    }

    #[test]
    fn snapshot_carries_completed_requests_and_publish_counters() {
        let registry = Arc::new(GraphRegistry::new());
        registry.register_sharded(
            "fig1",
            fixtures::figure1_graph(),
            entity_graph::ShardingStrategy::ByIdHash { shards: 2 },
        );
        let service = PreviewService::start(ServiceConfig::default(), registry);
        let request = crate::PreviewRequest::new("fig1", PreviewSpace::concise(2, 6).unwrap());
        service.submit_wait(request).unwrap();

        let mut delta = GraphDelta::new();
        delta.add_entity("Bad Boys", &["FILM"]);
        let report = service.publish_delta("fig1", &delta).unwrap();
        assert!(report.spliced);
        assert!(report.touched_shards >= 1);

        assert_eq!(service.stats().completed, 1);
        let snapshot = service.snapshot();
        let counters: std::collections::HashMap<_, _> = snapshot.counters.iter().copied().collect();
        assert_eq!(counters[&Counter::Publishes], 1);
        assert_eq!(counters[&Counter::PublishSplices], 1);
        assert_eq!(counters[&Counter::PublishFullReshards], 0);
        assert_eq!(
            counters[&Counter::PublishTouchedShards],
            report.touched_shards as u64
        );
        let memory = snapshot.memory.as_ref().expect("sharded memory section");
        assert_eq!(memory.shard_count, 2);
        assert_eq!(memory.shards.len(), 2);
        assert!(memory.sharded_total_bytes > 0);
        // The JSON document parses with the crate's own parser.
        let parsed = preview_obs::JsonValue::parse(&snapshot.to_json()).unwrap();
        assert_eq!(
            parsed
                .get("counters")
                .unwrap()
                .get("publishes")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }
}
