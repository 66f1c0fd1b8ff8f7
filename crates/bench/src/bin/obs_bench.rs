//! Observability overhead benchmark and snapshot schema gate.
//!
//! Replays the same Zipf-skewed service workload three times per round —
//! two passes with the recorder *disabled* (the production default, where
//! every `span!` is a single relaxed atomic load) and one with it *enabled*
//! (full span recording into histograms and the flight ring). A pass serves
//! the workload against fresh services as many times as it takes to last
//! about [`PASS_TARGET_S`], so timer resolution and scheduling jitter are
//! small next to it. Each round rotates the order of its three passes, so
//! no series always runs first or last. Overhead is judged on the median of
//! the paired per-round ratios, printed with their spread, and `--check`
//! enforces the floors the `preview-obs` crate promises:
//!
//! * **disabled**: the second disabled pass within 1% of the first (the
//!   two run identical code, so this gates that the disabled path has no
//!   measurable cost beyond run-to-run noise),
//! * **enabled**: within 5% of the faster disabled pass of its round.
//!
//! The enabled passes run with head sampling on, so the gated path
//! includes the full trace-tree pipeline (span parenting, retention
//! decisions), not just histogram recording.
//!
//! Independently of timing, one unmeasured enabled pass produces an
//! [`ObsSnapshot`](preview_obs::ObsSnapshot) whose JSON must parse with the crate's own parser and
//! enumerate every stage and counter, with exact request counts in the
//! request/queue-wait histograms.
//!
//! A final *trace check* scenario drives tail-based sampling end to end:
//! the Zipf workload runs under a slow-request threshold, then one
//! injected-slow request and one injected-slow-and-panicking request are
//! served from cold graphs. The scenario asserts both trace trees are
//! retained with correct parent links, the slow tree's stage spans sum to
//! its root span, the request-stage histogram's top bucket carries the slow
//! trace id as its exemplar, and the slow+panic request is dumped exactly
//! once with both reasons joined.
//!
//! ```text
//! cargo run -p bench --release --bin obs-bench
//! cargo run -p bench --release --bin obs-bench -- --out BENCH_obs.json --check
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use bench::service_workload::{synth_workload, workload_graph, ServiceWorkload, WorkloadSpec};
use bench::util::parse_checked as parse;
use datagen::FreebaseDomain;
use entity_graph::EntityGraph;
use preview_obs::{
    Counter, DumpReason, JsonValue, ObsConfig, Recorder, RetainReason, Stage, TraceTree,
};
use preview_service::{GraphRegistry, PreviewService, ServiceConfig};

/// Overhead floors enforced by `--check`.
const DISABLED_OVERHEAD_FLOOR: f64 = 0.01;
const ENABLED_OVERHEAD_FLOOR: f64 = 0.05;
/// The length one timed pass aims for, in seconds.
const PASS_TARGET_S: f64 = 0.3;

struct Options {
    spec: WorkloadSpec,
    workers: usize,
    rounds: usize,
    out: Option<String>,
    check: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            spec: WorkloadSpec {
                scale: 5e-5,
                requests: 400,
                ..WorkloadSpec::default()
            },
            workers: 2,
            rounds: 11,
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
            "--requests" => {
                options.spec.requests = parse(&value_of("--requests")?, |v: usize| v >= 1)?
            }
            "--unique" => options.spec.unique = parse(&value_of("--unique")?, |v: usize| v >= 1)?,
            "--seed" => options.spec.seed = parse(&value_of("--seed")?, |_: u64| true)?,
            "--scale" => {
                options.spec.scale =
                    parse(&value_of("--scale")?, |v: f64| v > 0.0 && v.is_finite())?
            }
            "--domain" => {
                let name = value_of("--domain")?;
                options.spec.domain = FreebaseDomain::from_name(&name)
                    .ok_or_else(|| format!("unknown domain {name:?}"))?;
            }
            "--workers" => options.workers = parse(&value_of("--workers")?, |v: usize| v >= 1)?,
            "--rounds" => options.rounds = parse(&value_of("--rounds")?, |v: usize| v >= 1)?,
            "--out" => options.out = Some(value_of("--out")?),
            "--check" => options.check = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(options)
}

/// Serves the whole workload once against a fresh service over
/// `registry`; returns the elapsed seconds (and the service, so the
/// snapshot pass can export it).
fn serve_once(
    registry: &Arc<GraphRegistry>,
    workload: &ServiceWorkload,
    options: &Options,
    recorder: Arc<Recorder>,
) -> (f64, PreviewService) {
    let service = PreviewService::start_with_recorder(
        ServiceConfig {
            workers: options.workers,
            queue_capacity: 256,
            cache_capacity: 512,
            cache_shards: 8,
        },
        Arc::clone(registry),
        recorder,
    );
    let start = Instant::now();
    let handles: Vec<_> = workload
        .requests
        .iter()
        .map(|request| service.submit(request.clone()).expect("queue accepts"))
        .collect();
    for handle in handles {
        handle.wait().expect("workload requests succeed");
    }
    (start.elapsed().as_secs_f64(), service)
}

/// The three series of a round.
#[derive(Clone, Copy)]
enum Series {
    Baseline,
    Disabled,
    Enabled,
}

/// One timed pass: the workload served `reps` times, each against a fresh
/// service so every repetition starts from a cold result cache. Returns the
/// summed serving time in seconds.
fn timed_pass(
    registry: &Arc<GraphRegistry>,
    workload: &ServiceWorkload,
    options: &Options,
    series: Series,
    reps: usize,
) -> f64 {
    let recorder = match series {
        Series::Baseline | Series::Disabled => Arc::new(Recorder::default()),
        // Head sampling on: the enabled gate covers the trace-tree pipeline
        // (per-request span parenting and retention), not just histograms.
        Series::Enabled => {
            let recorder = Arc::new(Recorder::new(ObsConfig::default().with_sample_every(8)));
            recorder.enable();
            recorder
        }
    };
    let serving_s = (0..reps)
        .map(|_| serve_once(registry, workload, options, Arc::clone(&recorder)).0)
        .sum();
    // Lower the global enabled count before the next pass, whatever still
    // holds the recorder.
    recorder.disable();
    serving_s
}

/// The minimum, quartiles and maximum of `values`, by nearest rank.
fn quartiles(values: &[f64]) -> [f64; 5] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
    [at(0.0), at(0.25), at(0.5), at(0.75), at(1.0)]
}

/// Per-series pass times and paired per-round overhead ratios.
///
/// All three passes of a round run back to back under the same machine
/// load, so their ratio cancels the slow drift (thermal throttling,
/// co-tenants) between rounds, and the median over rounds discards the
/// rounds a load spike hit.
struct Sweep {
    reps: usize,
    baseline_s: Vec<f64>,
    disabled_s: Vec<f64>,
    enabled_s: Vec<f64>,
    disabled_overhead: Vec<f64>,
    enabled_overhead: Vec<f64>,
}

/// Runs `rounds` rounds of baseline/disabled/enabled passes, rotating their
/// order from round to round.
fn sweep(registry: &Arc<GraphRegistry>, workload: &ServiceWorkload, options: &Options) -> Sweep {
    // Two untimed serves: the first warms the registry and the allocator,
    // the second sizes the passes.
    let untimed = || serve_once(registry, workload, options, Arc::new(Recorder::default())).0;
    untimed();
    let once_s = untimed();
    let reps = ((PASS_TARGET_S / once_s).ceil() as usize).max(1);
    eprintln!("[obs-bench] one serve takes {once_s:.4}s; {reps} per pass");
    let mut out = Sweep {
        reps,
        baseline_s: Vec::new(),
        disabled_s: Vec::new(),
        enabled_s: Vec::new(),
        disabled_overhead: Vec::new(),
        enabled_overhead: Vec::new(),
    };
    let order = [Series::Baseline, Series::Disabled, Series::Enabled];
    for round in 0..options.rounds {
        let mut times = [0.0; 3];
        for at in 0..order.len() {
            let series = order[(at + round) % order.len()];
            times[series as usize] = timed_pass(registry, workload, options, series, reps);
        }
        let [baseline_s, disabled_s, enabled_s] = times;
        out.baseline_s.push(baseline_s);
        out.disabled_s.push(disabled_s);
        out.enabled_s.push(enabled_s);
        out.disabled_overhead.push(disabled_s / baseline_s - 1.0);
        // The baseline and disabled passes run identical code, so either is
        // a fair denominator; the faster one is the stricter comparison the
        // round supports.
        out.enabled_overhead
            .push(enabled_s / baseline_s.min(disabled_s) - 1.0);
        eprintln!(
            "[obs-bench] round {}: baseline {baseline_s:.4}s, disabled {disabled_s:.4}s, \
             enabled {enabled_s:.4}s",
            round + 1
        );
    }
    out
}

/// Structural requirements on the enabled-pass snapshot JSON. Returns the
/// failures (empty when the document is sound).
fn snapshot_failures(json: &str, requests: u64) -> Vec<String> {
    let mut failures = Vec::new();
    let parsed = match JsonValue::parse(json) {
        Ok(parsed) => parsed,
        Err(error) => return vec![format!("snapshot JSON does not parse: {error}")],
    };
    match parsed.get("stages").and_then(|s| s.as_object()) {
        Some(stages) => {
            for stage in Stage::ALL {
                match stages.get(stage.name()) {
                    None => failures.push(format!("stage {:?} missing", stage.name())),
                    Some(entry) => {
                        if entry.get("p99_us").and_then(|v| v.as_u64()).is_none() {
                            failures.push(format!("stage {:?} lacks p99_us", stage.name()));
                        }
                    }
                }
            }
            for (stage, expected) in [(Stage::Request, requests), (Stage::QueueWait, requests)] {
                let count = stages
                    .get(stage.name())
                    .and_then(|e| e.get("count"))
                    .and_then(|c| c.as_u64());
                if count != Some(expected) {
                    failures.push(format!(
                        "stage {:?} count {count:?} != {expected}",
                        stage.name()
                    ));
                }
            }
        }
        None => failures.push("stages object missing".to_string()),
    }
    match parsed.get("counters").and_then(|c| c.as_object()) {
        Some(counters) => {
            for counter in Counter::ALL {
                if !counters.contains_key(counter.name()) {
                    failures.push(format!("counter {:?} missing", counter.name()));
                }
            }
        }
        None => failures.push("counters object missing".to_string()),
    }
    if parsed.get("enabled") != Some(&JsonValue::Bool(true)) {
        failures.push("snapshot does not report enabled=true".to_string());
    }
    if parsed
        .get("dumps")
        .and_then(|d| d.as_array())
        .map(|d| d.len())
        != Some(1)
    {
        failures.push("on-demand dump missing from snapshot".to_string());
    }
    failures
}

/// Structural checks on one retained trace tree: exactly one root (span id
/// 1, parent 0), every non-root span's parent resolves, and — when
/// `check_sum` is set — the direct children of the root account for the
/// root's duration within clock resolution.
fn tree_failures(tree: &TraceTree, label: &str, check_sum: bool) -> Vec<String> {
    let mut failures = Vec::new();
    let roots: Vec<_> = tree.spans.iter().filter(|s| s.parent_id == 0).collect();
    if roots.len() != 1 {
        failures.push(format!(
            "{label}: {} roots, expected exactly 1",
            roots.len()
        ));
        return failures;
    }
    let root = roots[0];
    if root.stage != Stage::Request {
        failures.push(format!("{label}: root stage is {:?}", root.stage.name()));
    }
    for span in &tree.spans {
        if span.parent_id != 0 && !tree.spans.iter().any(|s| s.span_id == span.parent_id) {
            failures.push(format!(
                "{label}: span {} ({}) has unresolvable parent {}",
                span.span_id,
                span.stage.name(),
                span.parent_id
            ));
        }
    }
    if check_sum {
        let child_sum: u64 = tree
            .spans
            .iter()
            .filter(|s| s.parent_id == root.span_id)
            .map(|s| s.duration_us)
            .sum();
        // Root = queue wait + compute + bookkeeping; the untracked gaps
        // (resolve, stats, clock quantization) must stay within 10% of the
        // root or 20ms, whichever is larger.
        let tolerance = (root.duration_us / 10).max(20_000);
        if child_sum > root.duration_us || root.duration_us - child_sum > tolerance {
            failures.push(format!(
                "{label}: stage spans sum to {child_sum}us vs root {}us (tolerance {tolerance}us)",
                root.duration_us
            ));
        }
    }
    failures
}

/// Outcome of the tail-sampling end-to-end scenario.
struct TraceCheck {
    retained: usize,
    failures: Vec<String>,
}

/// Drives tail-based sampling end to end: the Zipf workload under a
/// slow-request threshold, then an injected 400ms request on a cold graph
/// and an injected slow-and-panicking request on another, asserting
/// retention, parent links, span sums, exemplar linkage, and dump dedup.
fn trace_check(graph: &EntityGraph, workload: &ServiceWorkload, options: &Options) -> TraceCheck {
    const SLOW_THRESHOLD_US: u64 = 250_000;
    let mut failures = Vec::new();

    let recorder = Arc::new(Recorder::new(
        ObsConfig::default()
            .with_slow_threshold(SLOW_THRESHOLD_US)
            .with_stage_threshold(Stage::Discovery, 200_000),
    ));
    recorder.enable();
    let registry = Arc::new(GraphRegistry::new());
    registry
        .register_precomputed(&workload.graph_name, graph.clone(), &workload.configs)
        .expect("scoring the workload graph succeeds");
    // Plainly-registered cold graphs: their first request always computes,
    // so the injected delay/panic fire inside a real discovery span.
    registry.register("slowg", graph.clone());
    registry.register("panicg", graph.clone());
    let service = PreviewService::start_with_recorder(
        ServiceConfig {
            workers: options.workers,
            queue_capacity: 256,
            cache_capacity: 512,
            cache_shards: 8,
        },
        registry,
        Arc::clone(&recorder),
    );

    // Phase 1: the plain workload, submitted sequentially so queue wait
    // cannot push honest requests over the slow threshold.
    for request in &workload.requests {
        service
            .submit_wait(request.clone())
            .expect("workload requests succeed");
    }
    let before = service.snapshot();
    if !before.traces.is_empty() {
        failures.push(format!(
            "{} trees retained before any retention trigger",
            before.traces.len()
        ));
    }

    // Phase 2: one injected-slow request on a cold graph.
    service.inject_delay_next(400_000);
    let mut slow_request = workload.requests[0].clone();
    slow_request.graph = "slowg".to_string();
    let slow_response = service
        .submit_wait(slow_request)
        .expect("slow request succeeds");
    let slow_trace = slow_response.trace.expect("worker-served response traced");

    // Phase 3: one injected slow-and-panicking request on another cold
    // graph; the caller sees the typed panic error.
    service.inject_delay_next(300_000);
    service.inject_panic_next();
    let mut panic_request = workload.requests[0].clone();
    panic_request.graph = "panicg".to_string();
    if service.submit_wait(panic_request).is_ok() {
        failures.push("injected panic did not surface as an error".to_string());
    }

    let snapshot = service.snapshot();

    // Retention: exactly the two injected requests, each with the right
    // typed reasons, well-formed parent links, and the slow tree's stage
    // spans summing to its root span.
    match snapshot.traces.iter().find(|t| t.trace == slow_trace) {
        None => failures.push("injected slow request's tree not retained".to_string()),
        Some(tree) => {
            if tree.reasons != vec![RetainReason::Slow] {
                failures.push(format!("slow tree reasons {:?}", tree.reasons));
            }
            if !tree.detail.contains("graph=slowg") {
                failures.push(format!("slow tree detail {:?}", tree.detail));
            }
            failures.extend(tree_failures(tree, "slow tree", true));
        }
    }
    match snapshot
        .traces
        .iter()
        .find(|t| t.reasons.contains(&RetainReason::Panic))
    {
        None => failures.push("panicking request's tree not retained".to_string()),
        Some(tree) => {
            if tree.reasons != vec![RetainReason::Slow, RetainReason::Panic] {
                failures.push(format!("panic tree reasons {:?}", tree.reasons));
            }
            if !tree.detail.contains("graph=panicg") {
                failures.push(format!("panic tree detail {:?}", tree.detail));
            }
            failures.extend(tree_failures(tree, "panic tree", false));
        }
    }

    // Dump dedup: the slow-and-panicked request is dumped once, with both
    // reasons joined — not once per reason.
    let dumps = recorder.dumps();
    let joined = dumps.iter().filter(|d| d.reason == "slow+panic").count();
    if joined != 1 {
        failures.push(format!("{joined} slow+panic dumps, expected exactly 1"));
    }

    // Exemplar linkage: the top non-empty request-stage bucket (the
    // injected 400ms request) carries the slow trace id.
    let latency = recorder.stage_histogram(Stage::Request).snapshot();
    match latency.bucket_counts().iter().rposition(|&c| c > 0) {
        None => failures.push("request-stage histogram empty".to_string()),
        Some(bucket) => {
            let exemplar = latency.bucket_exemplars()[bucket];
            if exemplar != slow_trace.as_u64() {
                failures.push(format!(
                    "top-bucket exemplar {exemplar:#x} != slow trace {:#x}",
                    slow_trace.as_u64()
                ));
            }
        }
    }

    recorder.disable();
    TraceCheck {
        retained: snapshot.traces.len(),
        failures,
    }
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };

    eprintln!(
        "[obs-bench] generating domain {:?} at scale {} ...",
        options.spec.domain.name(),
        options.spec.scale
    );
    let graph = workload_graph(&options.spec);
    let workload = synth_workload(&options.spec);
    eprintln!(
        "[obs-bench] {} requests over {} unique keys, {} worker(s), {} round(s)",
        workload.requests.len(),
        workload.unique_keys,
        options.workers,
        options.rounds
    );

    let registry = Arc::new(GraphRegistry::new());
    registry
        .register_precomputed(&workload.graph_name, graph.clone(), &workload.configs)
        .expect("scoring the workload graph succeeds");
    let sweep = sweep(&registry, &workload, &options);
    let disabled = quartiles(&sweep.disabled_overhead);
    let enabled = quartiles(&sweep.enabled_overhead);
    for (name, [min, q1, median, q3, max]) in [("disabled", disabled), ("enabled", enabled)] {
        eprintln!(
            "[obs-bench] {name} overhead over {} rounds: median {:+.2}%, quartiles \
             {:+.2}%..{:+.2}%, range {:+.2}%..{:+.2}%",
            options.rounds,
            median * 100.0,
            q1 * 100.0,
            q3 * 100.0,
            min * 100.0,
            max * 100.0
        );
    }
    let (disabled_overhead, enabled_overhead) = (disabled[2], enabled[2]);

    // One unmeasured enabled pass drives the snapshot/schema gate: the
    // recorder is configured with a slow threshold so the slow-dump path is
    // reachable, and an on-demand dump pins the dumps array.
    let snapshot_recorder = Arc::new(Recorder::new(ObsConfig {
        slow_threshold_us: Some(10_000_000),
        ..ObsConfig::default()
    }));
    snapshot_recorder.enable();
    let (_, service) = serve_once(
        &registry,
        &workload,
        &options,
        Arc::clone(&snapshot_recorder),
    );
    snapshot_recorder.capture_dump(DumpReason::OnDemand, "obs-bench snapshot pass");
    let snapshot_json = service.snapshot().to_json();
    snapshot_recorder.disable();
    drop(service);
    let schema_failures = snapshot_failures(&snapshot_json, workload.requests.len() as u64);

    // Tail-sampling end-to-end scenario (trace retention, exemplars, dump
    // dedup).
    eprintln!("[obs-bench] running trace-retention scenario ...");
    let trace = trace_check(&graph, &workload, &options);
    for failure in &trace.failures {
        eprintln!("[obs-bench] trace check: {failure}");
    }

    let median = |values: &[f64]| quartiles(values)[2];
    let spread = |[min, q1, _, q3, max]: [f64; 5]| {
        format!("{{\"min\":{min:.6},\"q1\":{q1:.6},\"q3\":{q3:.6},\"max\":{max:.6}}}")
    };
    let json = format!(
        concat!(
            "{{\"workload\":{{\"domain\":\"{}\",\"scale\":{},\"seed\":{},",
            "\"requests\":{},\"unique_keys\":{},\"workers\":{},\"rounds\":{},",
            "\"serves_per_pass\":{}}},\n",
            " \"series\":{{\"baseline_s\":{:.6},\"disabled_s\":{:.6},\"enabled_s\":{:.6}}},\n",
            " \"overhead\":{{\"disabled\":{:.6},\"enabled\":{:.6}}},\n",
            " \"overhead_spread\":{{\"disabled\":{},\"enabled\":{}}},\n",
            " \"check\":{{\"disabled_floor\":{},\"enabled_floor\":{},\"snapshot_sound\":{}}},\n",
            " \"trace_check\":{{\"retained\":{},\"sound\":{}}},\n",
            " \"snapshot\":{}}}"
        ),
        workload.graph_name,
        options.spec.scale,
        options.spec.seed,
        workload.requests.len(),
        workload.unique_keys,
        options.workers,
        options.rounds,
        sweep.reps,
        median(&sweep.baseline_s),
        median(&sweep.disabled_s),
        median(&sweep.enabled_s),
        disabled_overhead,
        enabled_overhead,
        spread(disabled),
        spread(enabled),
        DISABLED_OVERHEAD_FLOOR,
        ENABLED_OVERHEAD_FLOOR,
        schema_failures.is_empty(),
        trace.retained,
        trace.failures.is_empty(),
        snapshot_json,
    );
    println!("{json}");
    if let Some(path) = &options.out {
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("error: cannot write {path:?}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[obs-bench] summary written to {path}");
    }

    if options.check {
        let mut failures = schema_failures;
        failures.extend(trace.failures);
        if disabled_overhead > DISABLED_OVERHEAD_FLOOR {
            failures.push(format!(
                "disabled overhead {:.2}% above the {:.0}% floor",
                disabled_overhead * 100.0,
                DISABLED_OVERHEAD_FLOOR * 100.0
            ));
        }
        if enabled_overhead > ENABLED_OVERHEAD_FLOOR {
            failures.push(format!(
                "enabled overhead {:.2}% above the {:.0}% floor",
                enabled_overhead * 100.0,
                ENABLED_OVERHEAD_FLOOR * 100.0
            ));
        }
        if !failures.is_empty() {
            for failure in &failures {
                eprintln!("check failed: {failure}");
            }
            return ExitCode::FAILURE;
        }
        eprintln!(
            "[obs-bench] checks passed: disabled {:+.2}%, enabled {:+.2}%, snapshot sound, \
             trace retention sound",
            disabled_overhead * 100.0,
            enabled_overhead * 100.0
        );
    }
    ExitCode::SUCCESS
}
