//! Sharded-storage scale benchmark: build, score and update a synthetic
//! film graph at multiples of the smoke-bench scale, recording peak RSS
//! and throughput floors.
//!
//! The smoke benches run film at scale `1e-3` (~2k entities / ~18k edges).
//! This binary sweeps scale *factors* on top of that base — `10` for the CI
//! smoke tier, `100` and `1000` for the full sweep, where `1000` is the
//! paper's full film domain (~2M entities / ~18M edges). Per factor it
//! measures:
//!
//! * synthetic generation + builder freeze (the ingestion path),
//! * parallel sharded build ([`ShardedGraph::from_graph`]),
//! * entropy scoring from sharded storage, cross-checked **bitwise** against
//!   the unsharded scorer (enforced at every factor),
//! * a registry `publish_delta` against the sharded version, cross-checked
//!   against resharding the spliced graph from scratch (enforced at every
//!   factor),
//! * the sharded [`MemoryReport`](entity_graph::MemoryReport) and the
//!   process peak RSS.
//!
//! `--check` additionally enforces throughput floors at factor `100`
//! (deliberately conservative: single-core CI hosts must pass). Factor
//! `1000` is measured and recorded but has no throughput floor — it may be
//! memory-bound on small hosts.
//!
//! ```text
//! cargo run -p bench --release --bin scale-bench -- --factors 10 --check
//! cargo run -p bench --release --bin scale-bench -- \
//!     --factors 10,100,1000 --out BENCH_scale.json --check
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use bench::util::{json_opt_u64, parse_checked as parse, peak_rss_bytes, timed};
use datagen::{FreebaseDomain, SyntheticGenerator, UpdateStream, UpdateStreamConfig};
use entity_graph::{ShardedGraph, ShardingStrategy};
use preview_obs::Recorder;
use preview_service::GraphRegistry;

/// Throughput floors enforced with `--check` at factor 100 — set ~4x below
/// single-core measurements so load spikes don't flake CI.
const BUILD_EDGES_PER_S_FLOOR: f64 = 250_000.0;
const PUBLISH_EDITS_PER_S_FLOOR: f64 = 10.0;
/// Factor at which throughput floors apply (identity is enforced at all).
const FLOOR_FACTOR: u64 = 100;

struct Options {
    domain: FreebaseDomain,
    base_scale: f64,
    factors: Vec<u64>,
    seed: u64,
    shards: usize,
    by_type: bool,
    batch: usize,
    out: Option<String>,
    check: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            domain: FreebaseDomain::Film,
            base_scale: 1e-3,
            factors: vec![10],
            seed: 2016,
            shards: 8,
            by_type: false,
            batch: 48,
            out: None,
            check: false,
        }
    }
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value_of = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--domain" => {
                let name = value_of("--domain")?;
                options.domain = FreebaseDomain::from_name(&name)
                    .ok_or_else(|| format!("unknown domain {name:?}"))?;
            }
            "--base-scale" => {
                options.base_scale = parse(&value_of("--base-scale")?, |v: f64| {
                    v > 0.0 && v.is_finite()
                })?
            }
            "--factors" => {
                let list = value_of("--factors")?;
                options.factors = list
                    .split(',')
                    .map(|part| parse(part.trim(), |v: u64| v >= 1))
                    .collect::<Result<Vec<_>, _>>()?;
                if options.factors.is_empty() {
                    return Err("--factors requires at least one factor".into());
                }
            }
            "--seed" => options.seed = parse(&value_of("--seed")?, |_: u64| true)?,
            "--shards" => options.shards = parse(&value_of("--shards")?, |v: usize| v >= 1)?,
            "--by-type" => options.by_type = true,
            "--batch" => options.batch = parse(&value_of("--batch")?, |v: usize| v >= 1)?,
            "--out" => options.out = Some(value_of("--out")?),
            "--check" => options.check = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(options)
}

/// One measured scale tier, already rendered as a JSON object.
struct Tier {
    factor: u64,
    json: String,
    build_edges_per_s: f64,
    publish_edits_per_s: f64,
    entropy_identical: bool,
    publish_identical: bool,
}

fn run_tier(options: &Options, strategy: ShardingStrategy, factor: u64) -> Result<Tier, String> {
    let scale = options.base_scale * factor as f64;
    eprintln!(
        "[scale-bench] factor {factor}: generating {:?} at scale {scale} ...",
        options.domain.name()
    );
    let spec = options.domain.spec(scale);
    spec.validate()
        .map_err(|e| format!("factor {factor}: invalid spec: {e}"))?;

    let (graph, generate_t) = timed(|| SyntheticGenerator::new(options.seed).generate(&spec));
    let generate_s = generate_t.as_secs_f64();
    let entities = graph.entity_count();
    let edges = graph.edge_count();
    eprintln!(
        "[scale-bench] factor {factor}: {entities} entities / {edges} edges \
         (generated in {generate_s:.2}s); sharding ..."
    );

    let graph = Arc::new(graph);
    let (sharded, shard_build_t) = timed(|| ShardedGraph::from_graph(Arc::clone(&graph), strategy));
    let shard_build_s = shard_build_t.as_secs_f64();
    let build_edges_per_s = edges as f64 / shard_build_s.max(1e-9);

    let memory = sharded.memory_report();

    // Entropy from sharded storage, cross-checked bitwise at every factor.
    let schema = graph.schema_graph().clone();
    let (sharded_scores, entropy_sharded_t) =
        timed(|| preview_core::sharded_entropy_scores(&sharded, &schema));
    let (unsharded_scores, entropy_unsharded_t) =
        timed(|| preview_core::scoring::entropy_scores(&graph, &schema));
    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    let entropy_identical = bits(&sharded_scores.0) == bits(&unsharded_scores.0)
        && bits(&sharded_scores.1) == bits(&unsharded_scores.1);
    drop(sharded);

    // Registry publish against the sharded version: one Zipf-skewed delta
    // batch through the transparent sharded path.
    let registry = GraphRegistry::new();
    let name = options.domain.name();
    let graph = Arc::try_unwrap(graph)
        .map_err(|_| format!("factor {factor}: graph unexpectedly still shared"))?;
    registry.register_sharded(name, graph, strategy);
    let serving = registry
        .resolve(name, None)
        .map_err(|e| format!("factor {factor}: resolve failed: {e}"))?;
    let mut stream = UpdateStream::new(
        options.seed ^ 0x5ca1e,
        UpdateStreamConfig::with_batch_size(options.batch),
    );
    let delta = stream.next_delta(serving.graph());
    let edits = delta.len();
    let (publish, publish_t) = timed(|| registry.publish_delta(name, &delta));
    let publish = publish.map_err(|e| format!("factor {factor}: publish failed: {e}"))?;
    let publish_s = publish_t.as_secs_f64();
    let publish_edits_per_s = edits as f64 / publish_s.max(1e-9);

    // The published version must stay sharded and equal re-sharding the
    // spliced logical graph from scratch.
    let published_sharded = publish
        .registered
        .sharded()
        .ok_or_else(|| format!("factor {factor}: published version lost sharding"))?;
    let reference = ShardedGraph::from_graph(Arc::clone(publish.registered.graph()), strategy);
    let publish_identical = **published_sharded == reference;

    let json = format!(
        concat!(
            "  {{\"factor\":{},\"scale\":{},\"entities\":{},\"edges\":{},\n",
            "   \"generate_s\":{:.4},\"shard_build_s\":{:.4},\"shard_build_edges_per_s\":{:.0},\n",
            "   \"entropy\":{{\"sharded_s\":{:.4},\"unsharded_s\":{:.4},\"identical\":{}}},\n",
            "   \"publish\":{{\"edits\":{},\"seconds\":{:.4},\"edits_per_s\":{:.1},\"identical\":{}}},\n",
            "   \"memory\":{{\"shard_count\":{},\"encoded_payload_bytes\":{},\"unsharded_payload_bytes\":{},",
            "\"payload_compression\":{:.3},\"sharded_total_bytes\":{},\"directory_bytes\":{}}},\n",
            "   \"peak_rss_bytes\":{}}}"
        ),
        factor,
        scale,
        entities,
        edges,
        generate_s,
        shard_build_s,
        build_edges_per_s,
        entropy_sharded_t.as_secs_f64(),
        entropy_unsharded_t.as_secs_f64(),
        entropy_identical,
        edits,
        publish_s,
        publish_edits_per_s,
        publish_identical,
        memory.shard_count,
        memory.encoded_payload_bytes,
        memory.unsharded_payload_bytes,
        memory.payload_compression(),
        memory.sharded_total_bytes,
        memory.shard_directory_bytes,
        json_opt_u64(peak_rss_bytes()),
    );
    eprintln!(
        "[scale-bench] factor {factor}: shard build {:.2}s ({:.0} edges/s), \
         publish {} edits in {:.3}s, compression {:.3}",
        shard_build_s,
        build_edges_per_s,
        edits,
        publish_s,
        memory.payload_compression()
    );
    Ok(Tier {
        factor,
        json,
        build_edges_per_s,
        publish_edits_per_s,
        entropy_identical,
        publish_identical,
    })
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let strategy = if options.by_type {
        ShardingStrategy::ByEntityType {
            shards: options.shards,
        }
    } else {
        ShardingStrategy::ByIdHash {
            shards: options.shards,
        }
    };

    // Trace every tier: the sharded build, splice, rescore and publish
    // spans all fire on this thread, so one attached recorder sees the
    // whole sweep and its snapshot rides along in the summary.
    let recorder = Arc::new(Recorder::default());
    recorder.enable();
    let _attach = recorder.attach();

    let mut tiers = Vec::new();
    for &factor in &options.factors {
        match run_tier(&options, strategy, factor) {
            Ok(tier) => tiers.push(tier),
            Err(message) => {
                eprintln!("error: {message}");
                return ExitCode::FAILURE;
            }
        }
    }

    let strategy_name = if options.by_type {
        "by-entity-type"
    } else {
        "by-id-hash"
    };
    let tier_json: Vec<&str> = tiers.iter().map(|t| t.json.as_str()).collect();
    let json = format!(
        concat!(
            "{{\"workload\":{{\"domain\":\"{}\",\"base_scale\":{},\"seed\":{},",
            "\"strategy\":\"{}\",\"shards\":{},\"batch\":{}}},\n",
            " \"tiers\":[\n{}\n ],\n",
            " \"check\":{{\"floor_factor\":{},\"build_edges_per_s_floor\":{},\"publish_edits_per_s_floor\":{}}},\n",
            " \"peak_rss_bytes\":{},\n",
            " \"obs\":{}}}"
        ),
        options.domain.name(),
        options.base_scale,
        options.seed,
        strategy_name,
        options.shards,
        options.batch,
        tier_json.join(",\n"),
        FLOOR_FACTOR,
        BUILD_EDGES_PER_S_FLOOR,
        PUBLISH_EDITS_PER_S_FLOOR,
        json_opt_u64(peak_rss_bytes()),
        recorder.snapshot().to_json(),
    );
    println!("{json}");
    if let Some(path) = &options.out {
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("error: cannot write {path:?}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[scale-bench] summary written to {path}");
    }

    if options.check {
        let mut failures = Vec::new();
        for tier in &tiers {
            let factor = tier.factor;
            if !tier.entropy_identical {
                failures.push(format!(
                    "factor {factor}: sharded entropy differs bitwise from unsharded"
                ));
            }
            if !tier.publish_identical {
                failures.push(format!(
                    "factor {factor}: published sharded version differs from a \
                     from-scratch reshard of the spliced graph"
                ));
            }
            // Throughput floors: enforced at the floor factor only. The 1000x
            // tier is recorded but never floor-gated (may be memory-bound).
            if factor == FLOOR_FACTOR {
                if tier.build_edges_per_s < BUILD_EDGES_PER_S_FLOOR {
                    failures.push(format!(
                        "factor {factor}: sharded build {:.0} edges/s below the \
                         {BUILD_EDGES_PER_S_FLOOR} floor",
                        tier.build_edges_per_s
                    ));
                }
                if tier.publish_edits_per_s < PUBLISH_EDITS_PER_S_FLOOR {
                    failures.push(format!(
                        "factor {factor}: publish {:.1} edits/s below the \
                         {PUBLISH_EDITS_PER_S_FLOOR} floor",
                        tier.publish_edits_per_s
                    ));
                }
            }
        }
        if !failures.is_empty() {
            for failure in &failures {
                eprintln!("check failed: {failure}");
            }
            return ExitCode::FAILURE;
        }
        eprintln!(
            "[scale-bench] checks passed: {} tier(s), identity enforced on all",
            tiers.len()
        );
    }
    ExitCode::SUCCESS
}
