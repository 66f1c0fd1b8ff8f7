//! The three workloads and the seeded inputs they send.
//!
//! The graph of a workload and its key set are the dataset and stay fixed
//! ([`GRAPH_SEED`]); the `--seed` drives the traffic: arrival times, which
//! keys are drawn when, and the update stream. The service only ever sees
//! the generated requests and deltas.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use bench::service_workload::{synth_workload, WorkloadSpec};
use datagen::zipf::ZipfSampler;
use datagen::{FreebaseDomain, UpdateStream, UpdateStreamConfig};
use preview_core::{KeyScoring, NonKeyScoring, PreviewSpace, ScoringConfig};
use preview_service::{Algorithm, PreviewRequest};

/// Generator seed of every workload graph (the repository's default seed).
pub const GRAPH_SEED: u64 = 2016;
/// Name the graph is registered under.
pub const GRAPH_NAME: &str = "film";
/// A read-only workload's publishes go to a second copy of its graph under
/// this name, so they never change what the reads see.
pub const PROBE_GRAPH: &str = "film-probe";
/// The measured phases run in this many interleaved rounds, so every metric
/// samples the whole run rather than one stretch of a noisy host.
pub const ROUNDS: usize = 20;
/// Worker threads of the service (the benchmark host has two cores).
pub const WORKERS: usize = 2;
/// Bounded request-queue capacity.
pub const QUEUE_CAPACITY: usize = 64;
/// Result-cache shards.
pub const CACHE_SHARDS: usize = 8;
/// Outstanding requests in the closed-loop saturation phase (≤ the queue).
pub const SATURATION_WINDOW: usize = 16;
/// Target edits per published delta.
pub const PUBLISH_BATCH: usize = 16;
/// Publishes a read-only workload makes to its probe copy: thirty samples
/// beyond the p95, so one publish caught in a host stall barely moves it.
pub const PROBE_PUBLISHES: usize = 600;
/// Shards of the sharded (read-publish) graph.
pub const SHARDS: usize = 8;

/// How a workload draws its reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMix {
    /// Zipf(1.0) over this many templates of the service mix.
    Hot(usize),
    /// Seeded permutations, back to back, of a fixed set of distinct keys.
    Cold,
}

/// One named workload and everything fixed about it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Film-domain scale factor of the graph.
    pub scale: f64,
    /// Whether the graph is registered with sharded storage.
    pub sharded: bool,
    /// Offered read rate (Poisson arrivals), requests per second.
    pub rate_rps: f64,
    /// Read latency limit for `read_slo_frac`, microseconds.
    pub latency_limit_us: f64,
    /// Result-cache capacity.
    pub cache_capacity: usize,
    /// How reads are drawn.
    pub mix: ReadMix,
    /// Interval between publishes while reads run; `None` for read-only
    /// workloads, which publish [`PROBE_PUBLISHES`] deltas to [`PROBE_GRAPH`]
    /// between rounds of reads.
    pub publish_interval_ms: Option<f64>,
}

/// Share of the latency limit the generator's p99 send lag may reach before
/// a run is invalid.
pub const MAX_SEND_LAG_FRACTION: f64 = 0.5;

/// The benchmark's workloads; rates and limits come from `--sweep` runs
/// (see `GLOSSARY.md`).
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "hot-read",
        scale: 5e-5,
        sharded: false,
        rate_rps: 2000.0,
        latency_limit_us: 5000.0,
        cache_capacity: 512,
        mix: ReadMix::Hot(64),
        publish_interval_ms: None,
    },
    Workload {
        name: "cold-read",
        scale: 1e-3,
        sharded: false,
        rate_rps: 500.0,
        latency_limit_us: 25_000.0,
        cache_capacity: 24,
        mix: ReadMix::Cold,
        publish_interval_ms: None,
    },
    Workload {
        name: "read-publish",
        scale: 1e-2,
        sharded: true,
        rate_rps: 500.0,
        latency_limit_us: 25_000.0,
        cache_capacity: 512,
        // Each publish invalidates every cached answer; 16 templates keep
        // the hit rate well above one half, so the median read sits inside
        // the hit mode rather than on the edge between hits and misses.
        mix: ReadMix::Hot(16),
        publish_interval_ms: Some(80.0),
    },
];

impl Workload {
    /// The graph this workload publishes to.
    pub fn publish_graph(&self) -> &'static str {
        if self.publish_interval_ms.is_some() {
            GRAPH_NAME
        } else {
            PROBE_GRAPH
        }
    }
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The scoring configurations the workloads use.
pub fn entropy() -> ScoringConfig {
    ScoringConfig::new(KeyScoring::Coverage, NonKeyScoring::Entropy)
}

/// Everything a run sends, generated from the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Read requests in send order.
    pub reads: Vec<PreviewRequest>,
    /// Scheduled send time of each read, nanoseconds from the phase start.
    pub read_at_ns: Vec<u64>,
    /// Scheduled start of each publish, nanoseconds from the phase start.
    pub publish_at_ns: Vec<u64>,
    /// Every scoring configuration the reads use (precomputed at setup).
    pub configs: Vec<ScoringConfig>,
    /// The run's seed, from which the update stream is derived.
    pub seed: u64,
}

impl Inputs {
    /// Generates the inputs of `workload` for a measured phase of `seconds`.
    pub fn generate(workload: &Workload, seed: u64, seconds: f64) -> Self {
        let read_at_ns = poisson_schedule(seed, workload.rate_rps, seconds);
        let keys = key_set(workload);
        let reads = match workload.mix {
            ReadMix::Hot(_) => hot_reads(seed, &keys, read_at_ns.len()),
            ReadMix::Cold => cold_reads(seed, read_at_ns.len()),
        };
        let publish_at_ns = match workload.publish_interval_ms {
            Some(ms) => fixed_schedule(ms * 1e6, seconds),
            None => Vec::new(),
        };
        Self {
            reads,
            read_at_ns,
            publish_at_ns,
            configs: configs_of(&keys),
            seed,
        }
    }

    /// The seeded update stream the publishes draw their deltas from.
    pub fn update_stream(&self) -> UpdateStream {
        UpdateStream::new(
            self.seed ^ 0x0de1_7a5e,
            UpdateStreamConfig::with_batch_size(PUBLISH_BATCH),
        )
    }
}

/// Every key `workload` can send, whatever the seed.
pub fn key_set(workload: &Workload) -> Vec<PreviewRequest> {
    match workload.mix {
        ReadMix::Hot(count) => hot_templates(count),
        ReadMix::Cold => cold_key_set(),
    }
}

/// The distinct scoring configurations of `keys`. Set-up precomputes those
/// of the whole key set rather than of the draw, so it does the same work
/// whatever the seed.
pub fn configs_of(keys: &[PreviewRequest]) -> Vec<ScoringConfig> {
    let mut configs: Vec<ScoringConfig> = Vec::new();
    for key in keys {
        if !configs.contains(&key.scoring) {
            configs.push(key.scoring);
        }
    }
    configs
}

/// Poisson arrivals at `rate` per second over `[0, seconds)`, in nanoseconds.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<u64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5c4e_d01e);
    let horizon = seconds * 1e9;
    let mut at = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // Inverse-CDF exponential gap; `1 - u` lies in (0, 1].
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate * 1e9;
        if t >= horizon {
            return at;
        }
        at.push(t as u64);
    }
}

/// One event every `interval_ns`, the first half an interval in.
fn fixed_schedule(interval_ns: f64, seconds: f64) -> Vec<u64> {
    let count = (seconds * 1e9 / interval_ns).floor() as usize;
    (0..count)
        .map(|j| ((j as f64 + 0.5) * interval_ns) as u64)
        .collect()
}

/// Draws per template when ranking the service mix's templates.
const RANKING_DRAWS: usize = 1024;

/// The fixed hot-read key set: the `count` templates of the service mix
/// (`bench::service_workload`) generated from [`GRAPH_SEED`], most requested
/// first. The run seed never changes them, so it moves only the traffic.
pub fn hot_templates(count: usize) -> Vec<PreviewRequest> {
    let draws = synth_workload(&WorkloadSpec {
        domain: FreebaseDomain::Film,
        scale: 5e-5,
        seed: GRAPH_SEED,
        requests: count * RANKING_DRAWS,
        unique: count,
    })
    .requests;
    // (times drawn, first draw, template); equal templates merge.
    let mut ranked: Vec<(usize, usize, PreviewRequest)> = Vec::new();
    for (i, request) in draws.into_iter().enumerate() {
        match ranked.iter_mut().find(|(_, _, t)| *t == request) {
            Some(entry) => entry.0 += 1,
            None => ranked.push((1, i, request)),
        }
    }
    ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    ranked.into_iter().map(|(_, _, t)| t).collect()
}

/// `n` reads drawn Zipf(1.0) by `seed` over `templates`, rank 0 the most
/// likely.
fn hot_reads(seed: u64, templates: &[PreviewRequest], n: usize) -> Vec<PreviewRequest> {
    let sampler = ZipfSampler::new(templates.len(), 1.0);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x2a1f_d4a3);
    (0..n)
        .map(|_| templates[sampler.sample(&mut rng)].clone())
        .collect()
}

/// The cold-read key set: every engine, both scoring configurations, and a
/// small share of k=3 spaces pinned to brute force or Apriori.
///
/// Its size places `read_p99_us` inside one cost mode rather than on the
/// edge between two. The two costliest keys (Apriori over diverse k=3) are
/// 0.66% of the 304, the next two (brute force over the same space) bring
/// that to 1.32%. The top 1% therefore ends midway through the brute-force
/// pair, where a few reads more or less in a window barely move it.
pub fn cold_key_set() -> Vec<PreviewRequest> {
    let mut set = Vec::new();
    let mut push = |space: PreviewSpace, algorithm: Algorithm| {
        for scoring in [ScoringConfig::coverage(), entropy()] {
            set.push(
                PreviewRequest::new(GRAPH_NAME, space)
                    .with_algorithm(algorithm)
                    .with_scoring(scoring),
            );
        }
    };
    for k in 1..=4usize {
        for n in k..=k + 3 {
            let concise = PreviewSpace::concise(k, n).expect("n >= k >= 1");
            push(concise, Algorithm::Auto);
            if k >= 2 {
                push(concise, Algorithm::BestFirst);
            }
            if k <= 2 {
                push(concise, Algorithm::BruteForce);
            }
            for d in [2u32, 3, 4] {
                push(
                    PreviewSpace::tight(k, n, d).expect("n >= k >= 1"),
                    Algorithm::Auto,
                );
                push(
                    PreviewSpace::diverse(k, n, d).expect("n >= k >= 1"),
                    Algorithm::Auto,
                );
            }
            if k <= 2 {
                push(
                    PreviewSpace::tight(k, n, 2).expect("n >= k >= 1"),
                    Algorithm::BruteForce,
                );
                push(
                    PreviewSpace::diverse(k, n, 2).expect("n >= k >= 1"),
                    Algorithm::BruteForce,
                );
            }
        }
    }
    // The expensive tail: exhaustive and level-wise search over k=3.
    for algorithm in [Algorithm::BruteForce, Algorithm::Apriori] {
        push(
            PreviewSpace::tight(3, 3, 3).expect("valid space"),
            algorithm,
        );
        push(
            PreviewSpace::diverse(3, 3, 2).expect("valid space"),
            algorithm,
        );
    }
    set
}

/// `n` reads over [`cold_key_set`]: seeded permutations back to back, so
/// every key recurs equally often and reuse distances far exceed the cache.
fn cold_reads(seed: u64, n: usize) -> Vec<PreviewRequest> {
    let set = cold_key_set();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xc01d_4ead);
    let mut reads = Vec::with_capacity(n);
    let mut order: Vec<usize> = (0..set.len()).collect();
    while reads.len() < n {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        reads.extend(order.iter().take(n - reads.len()).map(|&i| set[i].clone()));
    }
    reads
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::SyntheticGenerator;

    #[test]
    fn same_seed_same_inputs_and_different_seeds_differ() {
        for w in WORKLOADS {
            let a = Inputs::generate(&w, 7, 2.0);
            let b = Inputs::generate(&w, 7, 2.0);
            let c = Inputs::generate(&w, 8, 2.0);
            assert_eq!(a, b, "{}", w.name);
            assert_ne!(a.read_at_ns, c.read_at_ns, "{}", w.name);
            assert_ne!(a.reads, c.reads, "{}", w.name);
        }
    }

    #[test]
    fn same_seed_same_deltas_and_different_seeds_differ() {
        let graph = SyntheticGenerator::new(GRAPH_SEED).generate(&FreebaseDomain::Film.spec(1e-3));
        let rp = workload("read-publish").expect("workload exists");
        let deltas = |seed: u64| {
            let mut stream = Inputs::generate(&rp, seed, 1.0).update_stream();
            let mut g = graph.clone();
            (0..3)
                .map(|_| {
                    let d = stream.next_delta(&g);
                    g = g.apply_delta(&d).expect("stream deltas are valid").graph;
                    format!("{:?}", d.ops())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(deltas(7), deltas(7));
        assert_ne!(deltas(7), deltas(8));
    }

    #[test]
    fn poisson_mean_rate_is_close_to_target() {
        for (seed, rate) in [(1u64, 2000.0), (2, 500.0), (3, 50_000.0)] {
            let seconds = 40_000.0 / rate;
            let at = poisson_schedule(seed, rate, seconds);
            let observed = at.len() as f64 / seconds;
            assert!(
                (observed / rate - 1.0).abs() < 0.03,
                "rate {rate}: observed {observed}"
            );
            assert!(at.windows(2).all(|p| p[0] <= p[1]));
        }
    }

    #[test]
    fn the_seed_moves_the_draw_but_not_the_key_set() {
        for w in WORKLOADS {
            let ReadMix::Hot(count) = w.mix else { continue };
            let templates = key_set(&w);
            assert!(templates.len() > count / 2, "{}", w.name);
            let a = Inputs::generate(&w, 7, 2.0);
            let b = Inputs::generate(&w, 8, 2.0);
            assert!(a
                .reads
                .iter()
                .chain(&b.reads)
                .all(|r| templates.contains(r)));
            assert_eq!(a.configs, b.configs, "{}", w.name);
            // The most requested template leads the draw.
            let top = a.reads.iter().filter(|r| **r == templates[0]).count();
            assert!(top * 6 > a.reads.len(), "{}: {top}", w.name);
        }
    }

    #[test]
    fn cold_reads_cycle_the_whole_key_set_and_exceed_the_cache() {
        let set = cold_key_set();
        let cold = workload("cold-read").expect("workload exists");
        assert!(set.len() >= 10 * cold.cache_capacity);
        let reads = cold_reads(3, set.len() * 2);
        for cycle in reads.chunks(set.len()) {
            for key in &set {
                assert_eq!(cycle.iter().filter(|r| *r == key).count(), 1);
            }
        }
    }

    #[test]
    fn publish_schedule_is_fixed_interval() {
        let at = fixed_schedule(80e6, 1.0);
        assert_eq!(
            at,
            vec![
                40_000_000,
                120_000_000,
                200_000_000,
                280_000_000,
                360_000_000,
                440_000_000,
                520_000_000,
                600_000_000,
                680_000_000,
                760_000_000,
                840_000_000,
                920_000_000
            ]
        );
    }
}
