//! One benchmark invocation: the untraced run (end-to-end metrics), the
//! traced run (per-layer metrics) and the rate sweep.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use preview_service::{CacheStats, PreviewRequest, PreviewService, ScoringKey};

use crate::check::{verify, AnswerLog, CheckReport};
use crate::host::{Probe, REFERENCE_PROBE_US};
use crate::live::{
    is_refusal, open_loop, publish_probe, saturation, PublishOutcome, PublishPlan, ReadOutcome,
};
use crate::obs::{self, Outside};
use crate::setup::{generate_graph, setup, setup_in_child};
use crate::stats::{mean, median, quantile, sorted, supported_quantile};
use crate::trace::{self, SpanStats, ALGO_SPANS};
use crate::workload::{
    Inputs, Workload, GRAPH_NAME, MAX_SEND_LAG_FRACTION, PROBE_GRAPH, PROBE_PUBLISHES, ROUNDS,
    SATURATION_WINDOW,
};

/// Host-speed probes at the end of each round.
const PROBES_PER_ROUND: usize = 16;

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("read_slo_frac", "ratio"),
    ("saturation_rps", "req/s"),
    ("publish_p50_us", "us"),
    ("publish_p95_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 66] = [
    ("engine.queue_wait_p50_us", "us"),
    ("engine.queue_wait_p99_us", "us"),
    ("engine.compute_p50_us", "us"),
    ("engine.compute_p99_us", "us"),
    ("engine.reply_p50_us", "us"),
    ("engine.refused", "count"),
    ("engine.resolve_for_us", "us"),
    ("registry.resolve_us", "us"),
    ("registry.scored_for_us", "us"),
    ("cache.lookup_us", "us"),
    ("cache.insert_us", "us"),
    ("scoring.preview_score_us", "us"),
    ("cache.hit_rate", "ratio"),
    ("cache.unique_keys", "count"),
    ("cache.evictions", "count"),
    ("algo.dp.calls", "count"),
    ("algo.dp.p50_us", "us"),
    ("algo.dp.p99_us", "us"),
    ("algo.apriori.calls", "count"),
    ("algo.apriori.p50_us", "us"),
    ("algo.apriori.p99_us", "us"),
    ("algo.best_first.calls", "count"),
    ("algo.best_first.p50_us", "us"),
    ("algo.best_first.p99_us", "us"),
    ("algo.brute_force.calls", "count"),
    ("algo.brute_force.p50_us", "us"),
    ("algo.brute_force.p99_us", "us"),
    ("registry.publish_delta_us", "us"),
    ("graph.apply_delta_us", "us"),
    ("graph.schema_graph_us", "us"),
    ("sharded.apply_delta_us", "us"),
    ("scoring.rescore_delta_us", "us"),
    ("scoring.scores_identical_us", "us"),
    ("cache.carry_forward_us", "us"),
    ("sharded.touched_shards_per_publish", "count"),
    ("sharded.full_reshard_frac", "ratio"),
    ("scoring.unaffected_frac", "ratio"),
    ("cache.carried_per_publish", "count"),
    ("cache.invalidated_per_publish", "count"),
    ("datagen.generate_s", "s"),
    ("scoring.build_s", "s"),
    ("sharded.build_s", "s"),
    ("sharded.bytes_per_edge", "B/edge"),
    ("rss_unattributed_mb", "MB"),
    ("gen.send_lag_p99_us", "us"),
    ("trace.unattributed_frac", "ratio"),
    ("obs.overhead_frac", "ratio"),
    ("obs.queue_wait.count", "count"),
    ("obs.queue_wait.p50_us", "us"),
    ("obs.cache_lookup.count", "count"),
    ("obs.cache_lookup.p50_us", "us"),
    ("obs.discovery.count", "count"),
    ("obs.discovery.p50_us", "us"),
    ("obs.algorithm.count", "count"),
    ("obs.algorithm.p50_us", "us"),
    ("obs.publish.count", "count"),
    ("obs.publish.p50_us", "us"),
    ("obs.delta_apply.count", "count"),
    ("obs.delta_apply.p50_us", "us"),
    ("obs.shard_splice.count", "count"),
    ("obs.shard_splice.p50_us", "us"),
    ("obs.rescore.count", "count"),
    ("obs.rescore.p50_us", "us"),
    ("obs.count_mismatches", "count"),
    ("trace.replayed_ops", "count"),
    ("check.version_skew", "count"),
];

/// The result of one invocation.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations refused or failed.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable report.
    pub text: String,
    /// Failed output checks.
    pub failures: Vec<String>,
    /// Why the run cannot be reported as a measurement (empty when valid).
    pub invalid: Vec<String>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and the metrics of
    /// `list`, each with its unit.
    pub fn json(&self, list: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(list.len());
        for (name, unit) in list {
            let value = self
                .values
                .get(name)
                .copied()
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite"));
            }
            metrics.push(format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        ))
    }
}

/// Client-side statistics of an open-loop phase.
struct ReadStats {
    latency_us: Vec<f64>,
    send_lag_us: Vec<f64>,
    queue_wait_us: Vec<f64>,
    compute_us: Vec<f64>,
    reply_us: Vec<f64>,
    within_limit: usize,
    refused: usize,
    computed: usize,
    attempted: usize,
}

fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

fn read_stats(reads: &[ReadOutcome], limit_us: f64) -> ReadStats {
    let mut s = ReadStats {
        latency_us: Vec::new(),
        send_lag_us: Vec::new(),
        queue_wait_us: Vec::new(),
        compute_us: Vec::new(),
        reply_us: Vec::new(),
        within_limit: 0,
        refused: 0,
        computed: 0,
        attempted: reads.len(),
    };
    for read in reads {
        s.send_lag_us.push(us(read.send_lag()));
        match &read.reply {
            Ok(response) => {
                let latency = us(read.latency());
                if latency <= limit_us {
                    s.within_limit += 1;
                }
                if !response.cache_hit {
                    s.computed += 1;
                }
                s.latency_us.push(latency);
                s.queue_wait_us.push(us(response.queue_wait));
                s.compute_us.push(us(response.compute));
                s.reply_us.push(
                    latency - us(read.send_lag()) - us(response.queue_wait) - us(response.compute),
                );
            }
            Err(e) if is_refusal(e) => s.refused += 1,
            Err(_) => {}
        }
    }
    for v in [
        &mut s.latency_us,
        &mut s.send_lag_us,
        &mut s.queue_wait_us,
        &mut s.compute_us,
        &mut s.reply_us,
    ] {
        *v = sorted(std::mem::take(v));
    }
    s
}

/// Reads per latency window; the open-loop phase is split into
/// `min(10, reads / READS_PER_WINDOW)` windows of equal scheduled time.
const READS_PER_WINDOW: usize = 1500;

/// Latencies of the answered reads in each window of equal scheduled time
/// of the open-loop phase, sorted, microseconds.
fn windows(reads: &[ReadOutcome], seconds: f64) -> Vec<Vec<f64>> {
    let count = (reads.len() / READS_PER_WINDOW).clamp(1, 10);
    let mut latency = vec![Vec::new(); count];
    for read in reads {
        let w = ((read.scheduled.as_secs_f64() / seconds * count as f64) as usize).min(count - 1);
        if read.reply.is_ok() {
            latency[w].push(us(read.latency()));
        }
    }
    latency.into_iter().map(sorted).collect()
}

/// Median over `windows` of each window's quantile `q` of latency, so a
/// brief stall of the host moves one window rather than the result. `None`
/// when a window leaves fewer than ten samples beyond its quantile.
fn windowed_quantile(windows: &[Vec<f64>], q: f64) -> Option<f64> {
    let per_window = windows
        .iter()
        .map(|w| supported_quantile(w, q))
        .collect::<Option<Vec<f64>>>()?;
    (!per_window.is_empty()).then(|| median(&per_window))
}

/// Why an open-loop phase is no measurement, if its generator sent late: a
/// p99 send lag above [`MAX_SEND_LAG_FRACTION`] of the latency limit means
/// the phase measured the host rather than the service.
fn lag_check(stats: &ReadStats, workload: &Workload) -> Option<String> {
    let limit = MAX_SEND_LAG_FRACTION * workload.latency_limit_us;
    let lag = quantile(&stats.send_lag_us, 0.99);
    (lag > limit).then(|| format!("generator send lag p99 {lag:.1} us above {limit:.1} us"))
}

fn publish_plan<'a>(
    workload: &Workload,
    at_ns: &'a [u64],
    stream: &'a mut datagen::UpdateStream,
    recorder: Option<&'a std::sync::Arc<preview_obs::Recorder>>,
) -> Option<PublishPlan<'a>> {
    workload.publish_interval_ms.map(|_| PublishPlan {
        at_ns,
        stream,
        recorder,
    })
}

/// Length of the closed-loop saturation phase, over all rounds.
fn saturation_time(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds / 5.0).clamp(1.0, 4.0))
}

fn latest_version(service: &PreviewService) -> u32 {
    service
        .registry()
        .latest_version(GRAPH_NAME)
        .expect("the workload graph stays registered")
}

fn peak_rss_mb() -> f64 {
    preview_obs::peak_rss_bytes().map_or(0.0, |b| b as f64 / 1e6)
}

fn check_line(report: &CheckReport) -> String {
    let mut out = format!(
        "checks: {} ops, {} refused, {} errors, {} (version, key) references: {}\n",
        report.attempted,
        report.refused,
        report.errors,
        report.references,
        if report.correct() { "PASS" } else { "FAIL" }
    );
    if report.version_skew > 0 {
        let _ = writeln!(
            out,
            "  warning: {} answers carry the version before the one they were computed on \
             (a publish landed between key resolution and discovery)",
            report.version_skew
        );
    }
    for failure in &report.failures {
        let _ = writeln!(out, "  check failed: {failure}");
    }
    out
}

fn metric_lines(values: &BTreeMap<&'static str, f64>, list: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (name, unit) in list {
        if let Some(v) = values.get(name) {
            let _ = writeln!(out, "  {name:<36} {v:>16.4} {unit}");
        }
    }
    out
}

/// What the interleaved rounds of an untraced run measured.
#[derive(Default)]
struct Rounds {
    /// Open-loop reads, with indices and times relative to the whole run.
    reads: Vec<ReadOutcome>,
    /// Every publish, in order.
    publishes: Vec<PublishOutcome>,
    /// Completion rate of every saturation window.
    saturation_rates: Vec<f64>,
    /// Seconds of each set-up timed in a process of its own, one per round.
    setup_s: Vec<f64>,
    /// Every host-speed probe, microseconds.
    probe_us: Vec<f64>,
}

/// Runs the measured phases in [`ROUNDS`] interleaved rounds: each round
/// sends its share of the open-loop schedule (with the publisher beside it
/// on read-publish), then a share of the closed-loop saturation phase, then
/// (on a read-only workload) a share of the probe publishes, then probes the
/// host's speed while the service is idle, and last times one set-up in a
/// process of its own.
fn run_rounds(
    workload: &Workload,
    inputs: &Inputs,
    seconds: f64,
    service: &PreviewService,
    log: &mut AnswerLog,
) -> Result<Rounds, String> {
    let mut stream = inputs.update_stream();
    let probe = Probe::new();
    let mut out = Rounds::default();
    let mut cursor = 0usize;
    let round_ns = seconds * 1e9 / ROUNDS as f64;
    let saturation_share = saturation_time(seconds) / ROUNDS as u32;
    for round in 0..ROUNDS {
        let lo = (round as f64 * round_ns) as u64;
        let hi = ((round + 1) as f64 * round_ns) as u64;
        let span = |at: &[u64]| at.partition_point(|&t| t < lo)..at.partition_point(|&t| t < hi);
        let reads = span(&inputs.read_at_ns);
        let pubs = span(&inputs.publish_at_ns);
        let rebase = |at: &[u64]| at.iter().map(|t| t - lo).collect::<Vec<u64>>();
        let read_at = rebase(&inputs.read_at_ns[reads.clone()]);
        let publish_at = rebase(&inputs.publish_at_ns[pubs]);
        let live = open_loop(
            service,
            &inputs.reads[reads.clone()],
            &read_at,
            publish_plan(workload, &publish_at, &mut stream, None),
            log,
        )?;
        let offset = Duration::from_nanos(lo);
        out.reads.extend(live.reads.into_iter().map(|mut read| {
            read.index += reads.start;
            read.scheduled += offset;
            read.sent += offset;
            read.received += offset;
            read
        }));
        out.publishes.extend(live.publishes);
        out.saturation_rates.extend(saturation(
            service,
            &inputs.reads,
            &mut cursor,
            SATURATION_WINDOW,
            saturation_share,
            latest_version(service),
            log,
        )?);
        if workload.publish_interval_ms.is_none() {
            let due = PROBE_PUBLISHES * (round + 1) / ROUNDS - out.publishes.len();
            out.publishes
                .extend(publish_probe(service, PROBE_GRAPH, &mut stream, due));
        }
        out.probe_us
            .extend((0..PROBES_PER_ROUND).map(|_| probe.probe_us()));
        out.setup_s.push(setup_in_child(workload)?);
    }
    Ok(out)
}

/// The untraced run: end-to-end metrics.
pub fn untraced(workload: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let inputs = Inputs::generate(workload, seed, seconds);
    let served = setup(workload, &inputs.configs)?;
    let service = &served.service;
    let mut log = AnswerLog::default();
    let rounds = run_rounds(workload, &inputs, seconds, service, &mut log)?;
    let peak_rss_mb = peak_rss_mb();

    let stats = read_stats(&rounds.reads, workload.latency_limit_us);
    let publishes = rounds.publishes;
    let check = verify(
        generate_graph(workload),
        &[],
        service,
        log,
        &publishes,
        workload.publish_graph(),
    );

    let mut out = Outcome {
        correct: check.correct(),
        attempted: check.attempted,
        failed: check.refused + check.errors,
        failures: check.failures.clone(),
        ..Outcome::default()
    };
    out.invalid.extend(lag_check(&stats, workload));
    let windows = windows(&rounds.reads, seconds);
    let publish_us = sorted(publishes.iter().map(|p| us(p.duration)).collect());
    let mut supported = |name: &'static str, value: Option<f64>, what: &str| match value {
        Some(v) => {
            out.values.insert(name, v);
        }
        None => out
            .invalid
            .push(format!("too few {what} samples to leave ten beyond {name}")),
    };
    supported("read_p50_us", windowed_quantile(&windows, 0.5), "read");
    supported("read_p99_us", windowed_quantile(&windows, 0.99), "read");
    supported(
        "publish_p50_us",
        supported_quantile(&publish_us, 0.5),
        "publish",
    );
    supported(
        "publish_p95_us",
        supported_quantile(&publish_us, 0.95),
        "publish",
    );
    let setup_s = sorted(rounds.setup_s);
    out.values.insert("setup_s", median(&setup_s));
    out.values.insert(
        "read_slo_frac",
        stats.within_limit as f64 / stats.attempted.max(1) as f64,
    );
    out.values
        .insert("saturation_rps", median(&rounds.saturation_rates));
    out.values.insert("peak_rss_mb", peak_rss_mb);
    // Scale every time to the reference host speed (see `host`).
    let raw = out.values.clone();
    let probe_us = median(&rounds.probe_us);
    let speed = REFERENCE_PROBE_US / probe_us;
    for (name, value) in out.values.iter_mut() {
        match *name {
            "setup_s" | "read_p50_us" | "read_p99_us" | "publish_p50_us" | "publish_p95_us" => {
                *value *= speed;
            }
            "saturation_rps" => *value /= speed,
            _ => {}
        }
    }

    let lag_p99 = quantile(&stats.send_lag_us, 0.99);
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    let mut text = format!(
        "workload {} seed {seed}: {} reads at {} req/s over {seconds} s, {} publishes, limit {} us\n",
        workload.name,
        stats.attempted,
        workload.rate_rps,
        publishes.len(),
        workload.latency_limit_us
    );
    text += &metric_lines(&out.values, &END_TO_END);
    let _ = writeln!(
        text,
        "  host probe median {probe_us:.1} us over {} probes (reference {REFERENCE_PROBE_US} us); \
         times above are scaled by {speed:.4}, as measured:",
        rounds.probe_us.len()
    );
    text += &metric_lines(&raw, &END_TO_END);
    let _ = writeln!(text, "  {:<36} {error_rate:>16.4} ratio", "error_rate");
    let _ = writeln!(
        text,
        "  {:<36} {lag_p99:>16.4} us (valid up to {} us)",
        "gen.send_lag_p99_us",
        MAX_SEND_LAG_FRACTION * workload.latency_limit_us
    );
    let _ = writeln!(
        text,
        "  {} set-ups, s: min {:.4} median {:.4} max {:.4}; {} latency windows",
        setup_s.len(),
        setup_s[0],
        median(&setup_s),
        setup_s[setup_s.len() - 1],
        windows.len()
    );
    text += &check_line(&check);
    out.text = text;
    Ok(out)
}

/// Where the traced run writes its spans.
fn spans_path(workload: &Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}.spans.jsonl", workload.name))
}

/// Means of the publish reports: touched shards, full-reshard share,
/// unaffected share, carried and invalidated entries.
fn publish_report_means(publishes: &[PublishOutcome], sharded: bool) -> [f64; 5] {
    let reports: Vec<_> = publishes
        .iter()
        .filter_map(|p| p.result.as_ref().ok())
        .collect();
    let n = reports.len().max(1) as f64;
    let sum = |f: &dyn Fn(&preview_service::PublishReport) -> f64| {
        reports.iter().map(|r| f(r)).sum::<f64>()
    };
    let rescored = sum(&|r| r.rescored_configs as f64).max(1.0);
    [
        sum(&|r| r.touched_shards as f64) / n,
        if sharded {
            sum(&|r| f64::from(u8::from(!r.spliced))) / n
        } else {
            0.0
        },
        sum(&|r| r.unaffected_configs as f64) / rescored,
        sum(&|r| r.cache_carried_forward as f64) / n,
        sum(&|r| r.cache_invalidated as f64) / n,
    ]
}

fn cache_delta(before: CacheStats, after: CacheStats) -> (f64, f64) {
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    (
        hits as f64 / (hits + misses).max(1) as f64,
        (after.evictions - before.evictions) as f64,
    )
}

/// The traced run: per-layer metrics, the budget tables and the
/// observability cross-check.
pub fn traced(workload: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    // Two live phases share two thirds of the run; the replay the rest.
    let live_seconds = seconds * 2.0 / 3.0;
    let inputs = Inputs::generate(workload, seed, live_seconds);
    let served = setup(workload, &inputs.configs)?;
    let service = &served.service;

    let replay = trace::replay(
        &served.registry,
        workload,
        &inputs,
        Duration::from_secs_f64(seconds / 3.0),
    )?;
    let spans = trace::analyse(&replay);
    trace::write_spans(&spans_path(workload), replay.tracer.spans())
        .map_err(|e| format!("cannot write spans: {e}"))?;

    let half_ns = (live_seconds / 2.0 * 1e9) as u64;
    let ka = inputs.read_at_ns.partition_point(|&t| t < half_ns);
    let pa = inputs.publish_at_ns.partition_point(|&t| t < half_ns);
    let at_b: Vec<u64> = inputs.read_at_ns[ka..]
        .iter()
        .map(|t| t - half_ns)
        .collect();
    let publish_b: Vec<u64> = inputs.publish_at_ns[pa..]
        .iter()
        .map(|t| t - half_ns)
        .collect();
    let mut stream = replay.stream.clone();
    let mut log = AnswerLog::default();

    // Phase A: recorder off.
    let cache_before = service.stats().cache;
    let live_a = open_loop(
        service,
        &inputs.reads[..ka],
        &inputs.read_at_ns[..ka],
        publish_plan(workload, &inputs.publish_at_ns[..pa], &mut stream, None),
        &mut log,
    )?;
    let (hit_rate, evictions) = cache_delta(cache_before, service.stats().cache);

    // Phase B: recorder on, publisher attached to it.
    let recorder = std::sync::Arc::clone(service.recorder());
    recorder.enable();
    let before = service.snapshot();
    let mut live_b = open_loop(
        service,
        &inputs.reads[ka..],
        &at_b,
        publish_plan(workload, &publish_b, &mut stream, Some(&recorder)),
        &mut log,
    )?;
    let after = service.snapshot();
    recorder.disable();
    for read in &mut live_b.reads {
        read.index += ka;
    }

    let probe = if workload.publish_interval_ms.is_none() {
        publish_probe(service, PROBE_GRAPH, &mut stream, PROBE_PUBLISHES)
    } else {
        Vec::new()
    };
    let peak_rss_mb = peak_rss_mb();
    let memory = service
        .registry()
        .resolve(GRAPH_NAME, None)
        .ok()
        .and_then(|g| g.sharded().map(|s| s.memory_report()));

    let a = read_stats(&live_a.reads, workload.latency_limit_us);
    let b = read_stats(&live_b.reads, workload.latency_limit_us);

    let mut publishes: Vec<PublishOutcome> = Vec::new();
    let live_publishes = live_a.publishes.len();
    let b_publishes = live_b.publishes.len();
    publishes.extend(live_a.publishes);
    publishes.extend(live_b.publishes);
    publishes.extend(probe);
    let check = verify(
        generate_graph(workload),
        &replay.deltas,
        service,
        log,
        &publishes,
        workload.publish_graph(),
    );

    let mut out = Outcome {
        correct: check.correct(),
        attempted: check.attempted,
        failed: check.refused + check.errors,
        failures: check.failures.clone(),
        ..Outcome::default()
    };
    out.invalid.extend(lag_check(&a, workload));
    let v = &mut out.values;
    v.insert("engine.queue_wait_p50_us", quantile(&a.queue_wait_us, 0.5));
    v.insert("engine.queue_wait_p99_us", quantile(&a.queue_wait_us, 0.99));
    v.insert("engine.compute_p50_us", quantile(&a.compute_us, 0.5));
    v.insert("engine.compute_p99_us", quantile(&a.compute_us, 0.99));
    v.insert("engine.reply_p50_us", quantile(&a.reply_us, 0.5));
    v.insert("engine.refused", a.refused as f64);
    v.insert("gen.send_lag_p99_us", quantile(&a.send_lag_us, 0.99));
    for (metric, span) in [
        ("engine.resolve_for_us", "engine.resolve_for"),
        ("registry.resolve_us", "registry.resolve"),
        ("registry.scored_for_us", "registry.scored_for"),
        ("cache.lookup_us", "cache.lookup"),
        ("cache.insert_us", "cache.insert"),
        ("scoring.preview_score_us", "scoring.preview_score"),
        ("registry.publish_delta_us", "registry.publish_delta"),
        ("graph.apply_delta_us", "graph.apply_delta"),
        ("graph.schema_graph_us", "graph.schema_graph"),
        ("sharded.apply_delta_us", "sharded.apply_delta"),
        ("scoring.rescore_delta_us", "scoring.rescore_delta"),
        ("scoring.scores_identical_us", "scoring.scores_identical"),
        ("cache.carry_forward_us", "cache.carry_forward"),
    ] {
        v.insert(metric, spans.p50(span));
    }
    for (span, [calls, p50, p99]) in ALGO_SPANS.iter().zip([
        ["algo.dp.calls", "algo.dp.p50_us", "algo.dp.p99_us"],
        [
            "algo.apriori.calls",
            "algo.apriori.p50_us",
            "algo.apriori.p99_us",
        ],
        [
            "algo.best_first.calls",
            "algo.best_first.p50_us",
            "algo.best_first.p99_us",
        ],
        [
            "algo.brute_force.calls",
            "algo.brute_force.p50_us",
            "algo.brute_force.p99_us",
        ],
    ]) {
        v.insert(calls, spans.count(span) as f64);
        v.insert(p50, spans.p50(span));
        v.insert(p99, spans.quantile(span, 0.99));
    }
    v.insert("cache.hit_rate", hit_rate);
    v.insert("cache.evictions", evictions);
    v.insert(
        "cache.unique_keys",
        unique_keys(&live_a.reads, &inputs.reads) as f64,
    );
    let report_source = if live_publishes > 0 {
        &publishes[..live_publishes]
    } else {
        &publishes[live_publishes + b_publishes..]
    };
    let [touched, reshard, unaffected, carried, invalidated] =
        publish_report_means(report_source, workload.sharded);
    v.insert("sharded.touched_shards_per_publish", touched);
    v.insert("sharded.full_reshard_frac", reshard);
    v.insert("scoring.unaffected_frac", unaffected);
    v.insert("cache.carried_per_publish", carried);
    v.insert("cache.invalidated_per_publish", invalidated);
    v.insert("datagen.generate_s", served.times.generate_s);
    v.insert("scoring.build_s", served.times.scoring_s);
    v.insert(
        "sharded.build_s",
        if workload.sharded {
            served.times.register_s
        } else {
            0.0
        },
    );
    let (bytes_per_edge, reported_mb) = memory.as_ref().map_or((0.0, 0.0), |m| {
        (
            m.sharded_total_bytes as f64 / m.edges.max(1) as f64,
            m.sharded_total_bytes as f64 / 1e6,
        )
    });
    v.insert("sharded.bytes_per_edge", bytes_per_edge);
    v.insert("rss_unattributed_mb", peak_rss_mb - reported_mb);
    v.insert("trace.unattributed_frac", spans.unattributed_frac);
    v.insert("trace.replayed_ops", (spans.reads + spans.publishes) as f64);
    v.insert("check.version_skew", check.version_skew as f64);
    v.insert(
        "obs.overhead_frac",
        quantile(&b.latency_us, 0.5) / quantile(&a.latency_us, 0.5).max(1e-9) - 1.0,
    );

    // Cross-check against the program's own stages over phase B.
    let b_reports: Vec<_> = publishes[live_publishes..live_publishes + b_publishes]
        .iter()
        .filter_map(|p| p.result.as_ref().ok())
        .collect();
    let b_publish_us = sorted(
        publishes[live_publishes..live_publishes + b_publishes]
            .iter()
            .map(|p| us(p.duration))
            .collect(),
    );
    let accepted = (b.attempted - b.refused) as u64;
    let n_pub = b_reports.len() as u64;
    let outside = [
        Outside {
            count: accepted,
            p50_us: quantile(&b.queue_wait_us, 0.5),
        },
        Outside {
            count: accepted,
            p50_us: spans.p50("cache.lookup"),
        },
        Outside {
            count: b.computed as u64,
            p50_us: quantile(&sorted(miss_path_us(&replay)), 0.5),
        },
        Outside {
            count: b.computed as u64,
            p50_us: quantile(&sorted(algo_durations(&spans)), 0.5),
        },
        Outside {
            count: n_pub,
            p50_us: quantile(&b_publish_us, 0.5),
        },
        Outside {
            count: n_pub,
            p50_us: spans.p50("graph.apply_delta"),
        },
        Outside {
            count: if workload.sharded { n_pub } else { 0 },
            p50_us: (spans.p50("sharded.apply_delta") - spans.p50("graph.apply_delta")).max(0.0),
        },
        Outside {
            count: b_reports.iter().map(|r| r.rescored_configs as u64).sum(),
            p50_us: spans.p50("scoring.rescore_delta"),
        },
    ];
    let counters = [
        n_pub,
        b_reports.iter().filter(|r| r.spliced).count() as u64,
        b_reports.iter().filter(|r| !r.spliced).count() as u64,
        b_reports.iter().map(|r| r.cache_carried_forward).sum(),
        b_reports.iter().map(|r| r.cache_invalidated).sum(),
    ];
    let rows = obs::cross_check(&before, &after, outside, counters);
    for row in rows.iter().take(obs::STAGES.len()) {
        let (count, p50) = OBS_METRICS
            .iter()
            .find(|(stage, _, _)| *stage == row.name)
            .map(|(_, c, p)| (*c, *p))
            .expect("every compared stage has metric names");
        v.insert(count, row.program_count as f64);
        v.insert(p50, row.program_p50_us.unwrap_or(0) as f64);
    }
    v.insert(
        "obs.count_mismatches",
        rows.iter().filter(|r| r.mismatch()).count() as f64,
    );

    let mut text = format!(
        "workload {} seed {seed} (traced): replayed {} reads and {} publishes; live phases {} + {} reads, {} publishes\n",
        workload.name,
        spans.reads,
        spans.publishes,
        a.attempted,
        b.attempted,
        live_publishes + b_publishes
    );
    text += &metric_lines(&out.values, &PER_LAYER);
    text += &trace::budget_table(
        &format!(
            "read budget (replayed, mean us per read over {} reads)",
            spans.reads
        ),
        &spans.read_budget,
    );
    text += &trace::budget_table(
        &format!(
            "publish budget (replayed, mean us per publish over {} publishes)",
            spans.publishes
        ),
        &spans.publish_budget,
    );
    let _ = writeln!(
        text,
        "live read split (phase A, p50 us): send_lag {:.3} queue_wait {:.3} compute {:.3} reply {:.3} end_to_end {:.3}",
        quantile(&a.send_lag_us, 0.5),
        quantile(&a.queue_wait_us, 0.5),
        quantile(&a.compute_us, 0.5),
        quantile(&a.reply_us, 0.5),
        quantile(&a.latency_us, 0.5)
    );
    text += &obs::table(&rows);
    let live_publish_us = sorted(
        publishes[..live_publishes + b_publishes]
            .iter()
            .map(|p| us(p.duration))
            .collect(),
    );
    let (emphasis_met, emphasis_line) = emphasis(workload, &out.values, &spans, &live_publish_us);
    let _ = writeln!(
        text,
        "layer emphasis: {} ({emphasis_line})",
        if emphasis_met { "PASS" } else { "NOT MET" }
    );
    text += &check_line(&check);
    if !emphasis_met {
        // The workload no longer stresses the layers it was chosen for.
        out.correct = false;
        out.failures
            .push(format!("layer emphasis not met: {emphasis_line}"));
    }
    out.text = text;
    Ok(out)
}

/// Metric names of each cross-checked stage.
const OBS_METRICS: [(&str, &str, &str); 8] = [
    (
        "queue_wait",
        "obs.queue_wait.count",
        "obs.queue_wait.p50_us",
    ),
    (
        "cache_lookup",
        "obs.cache_lookup.count",
        "obs.cache_lookup.p50_us",
    ),
    ("discovery", "obs.discovery.count", "obs.discovery.p50_us"),
    ("algorithm", "obs.algorithm.count", "obs.algorithm.p50_us"),
    ("publish", "obs.publish.count", "obs.publish.p50_us"),
    (
        "delta_apply",
        "obs.delta_apply.count",
        "obs.delta_apply.p50_us",
    ),
    (
        "shard_splice",
        "obs.shard_splice.count",
        "obs.shard_splice.p50_us",
    ),
    ("rescore", "obs.rescore.count", "obs.rescore.p50_us"),
];

/// Distinct result-cache keys (version, space, engine, scoring) among the
/// answered reads of a phase.
fn unique_keys(reads: &[ReadOutcome], requests: &[PreviewRequest]) -> usize {
    let mut keys = std::collections::HashSet::new();
    for read in reads {
        if let Ok(r) = &read.reply {
            let request = &requests[read.index];
            keys.insert((
                r.version,
                request.space,
                r.algorithm,
                ScoringKey::from(&request.scoring),
            ));
        }
    }
    keys.len()
}

/// Every algorithm span's duration, microseconds.
fn algo_durations(spans: &SpanStats) -> Vec<f64> {
    ALGO_SPANS
        .iter()
        .flat_map(|name| spans.durations_us.get(name).cloned().unwrap_or_default())
        .collect()
}

/// Per replayed cache miss, the time from scoring lookup to cache insert
/// (what the program's `discovery` stage covers), microseconds.
fn miss_path_us(replay: &trace::Replay) -> Vec<f64> {
    let spans = replay.tracer.spans();
    let mut per_root: BTreeMap<usize, f64> = BTreeMap::new();
    for span in spans {
        let Some(parent) = span.parent else { continue };
        if spans[parent].name != trace::READ_OP {
            continue;
        }
        let in_miss_path = matches!(
            span.name,
            "registry.scored_for" | "scoring.preview_score" | "cache.insert"
        ) || span.name.starts_with("algo.");
        if in_miss_path {
            *per_root.entry(parent).or_default() += (span.end_ns - span.start_ns) as f64 / 1e3;
        }
    }
    per_root.into_values().collect()
}

/// Whether the layer emphasis each workload was chosen for holds, and what
/// was compared. `live_publish_us` holds the durations of the publishes
/// beside the live reads, sorted.
fn emphasis(
    workload: &Workload,
    values: &BTreeMap<&'static str, f64>,
    spans: &SpanStats,
    live_publish_us: &[f64],
) -> (bool, String) {
    let hit_rate = values["cache.hit_rate"];
    let total: f64 = spans.read_budget.iter().map(|(_, us)| us).sum();
    let algo = spans
        .read_budget
        .iter()
        .find(|(layer, _)| layer == "algo")
        .map_or(0.0, |(_, us)| *us);
    let largest = spans
        .read_budget
        .iter()
        .max_by(|x, y| x.1.total_cmp(&y.1))
        .map_or("", |(layer, _)| layer.as_str());
    match workload.name {
        "hot-read" => (
            hit_rate >= 0.9 && algo < 0.5 * total,
            format!(
                "cache.hit_rate {hit_rate:.4} >= 0.9, algo share of read time {:.4} < 0.5",
                algo / total.max(1e-9)
            ),
        ),
        "cold-read" => (
            hit_rate <= 0.2 && largest == "algo",
            format!("cache.hit_rate {hit_rate:.4} <= 0.2, largest read layer {largest} == algo"),
        ),
        _ => {
            let present = [
                "graph.apply_delta",
                "sharded.apply_delta",
                "scoring.rescore_delta",
                "registry.publish_delta",
            ]
            .iter()
            .all(|name| spans.count(name) > 0);
            let enough = supported_quantile(live_publish_us, 0.95).is_some();
            (
                present && enough,
                format!(
                    "graph, sharded, scoring and registry publish spans present over {} \
                     replayed publishes; {} live publishes support a p95: {enough}",
                    spans.publishes,
                    live_publish_us.len()
                ),
            )
        }
    }
}

/// Runs `workload` open loop at each of `rates` and prints latency, SLO
/// share and backlog growth per rate, plus the knee: the highest rate at
/// which it and every lower rate meet the latency limit at p99, answer 99%
/// of reads within it, refuse nothing and grow no backlog.
pub fn sweep(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    rates: &[f64],
) -> Result<String, String> {
    let mut out = format!(
        "sweep {} (limit {} us, {seconds} s per rate)\n  {:>10} {:>8} {:>12} {:>12} {:>9} {:>8} {:>9} {:>12}\n",
        workload.name,
        workload.latency_limit_us,
        "rate",
        "reads",
        "p50_us",
        "p99_us",
        "slo_frac",
        "refused",
        "backlog+",
        "lag_p99_us"
    );
    let mut knee: Option<f64> = None;
    let mut broken = false;
    let mut rows = Vec::new();
    for &rate in rates {
        let w = Workload {
            rate_rps: rate,
            ..*workload
        };
        let inputs = Inputs::generate(&w, seed, seconds);
        let served = setup(&w, &inputs.configs)?;
        let mut stream = inputs.update_stream();
        let mut log = AnswerLog::default();
        let live = open_loop(
            &served.service,
            &inputs.reads,
            &inputs.read_at_ns,
            publish_plan(&w, &inputs.publish_at_ns, &mut stream, None),
            &mut log,
        )?;
        let s = read_stats(&live.reads, w.latency_limit_us);
        let supported = supported_quantile(&s.latency_us, 0.99).is_some();
        let p99 = quantile(&s.latency_us, 0.99);
        let slo = s.within_limit as f64 / s.attempted.max(1) as f64;
        let quarter = live.in_flight.len() / 4;
        let as_f64 = |v: &[usize]| v.iter().map(|&x| x as f64).collect::<Vec<_>>();
        let growth = if quarter == 0 {
            0.0
        } else {
            mean(&as_f64(&live.in_flight[live.in_flight.len() - quarter..]))
                - mean(&as_f64(&live.in_flight[quarter..2 * quarter]))
        };
        let ok = p99 <= w.latency_limit_us && slo >= 0.99 && s.refused == 0 && growth < 1.0;
        if ok && !broken {
            knee = Some(rate);
        } else {
            broken = true;
        }
        let _ = writeln!(
            out,
            "  {rate:>10} {:>8} {:>12.3} {:>12} {slo:>9.4} {:>8} {growth:>9.3} {:>12.3}",
            s.attempted,
            quantile(&s.latency_us, 0.5),
            format!("{p99:.3}{}", if supported { "" } else { "*" }),
            s.refused,
            quantile(&s.send_lag_us, 0.99)
        );
        rows.push(format!(
            "{{\"rate\":{rate},\"p50_us\":{},\"p99_us\":{p99},\"p99_supported\":{supported},\"slo_frac\":{slo},\"refused\":{},\"backlog_growth\":{growth}}}",
            quantile(&s.latency_us, 0.5),
            s.refused
        ));
    }
    let _ = writeln!(
        out,
        "knee: {}",
        knee.map_or_else(
            || "below the lowest rate".to_string(),
            |k| format!("{k} req/s")
        )
    );
    out += &format!(
        "{{\"workload\":\"{}\",\"knee_rps\":{},\"rows\":[{}]}}",
        workload.name,
        knee.map_or_else(|| "null".to_string(), |k| k.to_string()),
        rows.join(",")
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use preview_obs::JsonValue;

    use super::*;
    use crate::workload::WORKLOADS;

    fn listed(json: &JsonValue, key: &str) -> Vec<(String, String)> {
        json.get(key)
            .and_then(JsonValue::as_array)
            .expect("list present")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(JsonValue::as_str)
                        .expect("field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_runs_report() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
        let json = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let expect = |list: &[(&str, &str)]| {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(listed(&json, "end_to_end"), expect(&END_TO_END));
        assert_eq!(listed(&json, "per_layer"), expect(&PER_LAYER));
        let names: Vec<&str> = json
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
            .collect();
        // Gated workloads are a subset: hot-read runs by hand only.
        assert!(names.iter().all(|n| WORKLOADS.iter().any(|w| w.name == *n)));
        assert_eq!(names, ["cold-read", "read-publish"]);
    }

    #[test]
    fn windowed_quantile_is_the_median_of_window_quantiles() {
        let reply = crate::live::Reply {
            version: 1,
            algorithm: preview_service::ResolvedAlgorithm::DynamicProgramming,
            cache_hit: true,
            queue_wait: Duration::ZERO,
            compute: Duration::ZERO,
        };
        // 4500 reads over 3 s make three windows: latency 100 µs in the
        // first, 300 µs in the second and 200 µs in the third.
        let reads: Vec<ReadOutcome> = (0..4500u64)
            .map(|i| ReadOutcome {
                index: i as usize,
                scheduled: Duration::from_nanos(i * 666_667),
                sent: Duration::from_nanos(i * 666_667),
                received: Duration::from_nanos(i * 666_667)
                    + Duration::from_micros([100, 300, 200][(i / 1500) as usize]),
                reply: Ok(reply),
            })
            .collect();
        let all = windows(&reads, 3.0);
        assert_eq!(all.iter().map(Vec::len).collect::<Vec<_>>(), [1500; 3]);
        let p50 = windowed_quantile(&all, 0.5).expect("supported");
        assert!((p50 - 200.0).abs() < 1e-6, "{p50}");
        // Too few reads per window leave fewer than ten beyond p99.
        let few = windows(&reads[..900], 0.6);
        assert_eq!(windowed_quantile(&few, 0.99), None);
        assert_eq!(windowed_quantile(&[], 0.5), None);
    }
}
