//! Output checks made on every run, after the timed phases.
//!
//! * Every read's (preview, score bits) equals the reference answer for its
//!   key and version, computed from scratch through the public discovery API
//!   on an independently rebuilt graph of that version; every repeat of a
//!   key at a version is byte-identical to the first.
//! * Each publish bumps the version exactly once, and every read sent after
//!   a publish returned resolves to that version or a later one.
//! * The final published graph equals `delta::rebuild` of itself and the
//!   graph obtained by replaying every delta onto the initial graph.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use entity_graph::{delta, EntityGraph, GraphDelta};
use preview_core::{Preview, PreviewSpace, ScoredSchema, ScoringConfig};
use preview_service::{
    Algorithm, PreviewRequest, PreviewResponse, PreviewService, ResolvedAlgorithm, ScoringKey,
    ServiceResult,
};

use crate::live::{is_refusal, PublishOutcome};
use crate::workload::GRAPH_NAME;

/// Operation counts and the first failed check, if any.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Reads and publishes attempted.
    pub attempted: u64,
    /// Refused reads (queue full).
    pub refused: u64,
    /// Reads and publishes that returned an error other than a refusal.
    pub errors: u64,
    /// Distinct (version, key) pairs checked against a reference.
    pub references: usize,
    /// Answers labelled with one version but equal to the reference of the
    /// next: computed on a version a concurrent publish had just made
    /// latest. Reported, not failed.
    pub version_skew: u64,
    /// Description of every failed check (empty when all passed).
    pub failures: Vec<String>,
}

impl CheckReport {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    fn fail(&mut self, message: String) {
        fail(&mut self.failures, message);
    }
}

type Key = (PreviewSpace, ResolvedAlgorithm, ScoringKey);

/// The first answer seen for a key at a version.
struct Seen {
    config: ScoringConfig,
    /// Every requested algorithm that was answered under this key.
    requested: Vec<Algorithm>,
    space: PreviewSpace,
    algorithm: ResolvedAlgorithm,
    preview: Option<Preview>,
    score_bits: u64,
}

/// Every reply seen, reduced to the first answer per (version, key); fed
/// while traffic runs so replies need not be kept.
#[derive(Default)]
pub struct AnswerLog {
    by_version: HashMap<u32, HashMap<Key, Seen>>,
    reads: u64,
    refused: u64,
    errors: u64,
    failures: Vec<String>,
}

impl AnswerLog {
    /// Records the reply to `request`, which must resolve to `min_version`
    /// or later; a repeat of a key must match its first answer bit for bit.
    pub fn record(
        &mut self,
        request: &PreviewRequest,
        min_version: u32,
        result: &ServiceResult<PreviewResponse>,
    ) {
        let i = self.reads;
        self.reads += 1;
        let response = match result {
            Ok(response) => response,
            Err(e) if is_refusal(e) => {
                self.refused += 1;
                return;
            }
            Err(e) => {
                self.errors += 1;
                fail(&mut self.failures, format!("read {i} failed: {e}"));
                return;
            }
        };
        if response.graph != GRAPH_NAME || response.version < min_version {
            fail(
                &mut self.failures,
                format!(
                    "read {i} resolved to {}@{}, expected version >= {min_version}",
                    response.graph, response.version
                ),
            );
        }
        let key = (
            request.space,
            response.algorithm,
            ScoringKey::from(&request.scoring),
        );
        let seen = self
            .by_version
            .entry(response.version)
            .or_default()
            .entry(key)
            .or_insert_with(|| Seen {
                config: request.scoring,
                requested: Vec::new(),
                space: request.space,
                algorithm: response.algorithm,
                preview: response.preview.clone(),
                score_bits: response.score.to_bits(),
            });
        if !seen.requested.contains(&request.algorithm) {
            seen.requested.push(request.algorithm);
        }
        if seen.preview != response.preview || seen.score_bits != response.score.to_bits() {
            fail(
                &mut self.failures,
                format!(
                    "read {i}: repeated key at version {} answered differently",
                    response.version
                ),
            );
        }
    }
}

fn fail(failures: &mut Vec<String>, message: String) {
    if failures.len() < 20 {
        failures.push(message);
    }
}

/// Runs the remaining checks over `log`. `initial` is a freshly generated
/// copy of the graph the service started from; `prior` holds the deltas
/// published to `publish_graph` before the logged traffic and `publishes`
/// every logged publish to it, in order. Reads follow the publishes only
/// when `publish_graph` is the graph they read.
pub fn verify(
    initial: EntityGraph,
    prior: &[GraphDelta],
    service: &PreviewService,
    log: AnswerLog,
    publishes: &[PublishOutcome],
    publish_graph: &str,
) -> CheckReport {
    let mut report = CheckReport {
        attempted: log.reads + publishes.len() as u64,
        refused: log.refused,
        errors: log.errors,
        failures: log.failures,
        ..CheckReport::default()
    };
    let mut by_version = log.by_version;
    let first_version = 1 + prior.len() as u32;

    // Publishes: one bump each, in order, each on the version it was
    // generated against.
    let mut expected_previous = first_version;
    for (j, publish) in publishes.iter().enumerate() {
        match &publish.result {
            Err(e) => {
                report.errors += 1;
                report.fail(format!("publish {j} failed: {e}"));
            }
            Ok(r) => {
                if !r.bumped
                    || r.previous_version != expected_previous
                    || r.version != expected_previous + 1
                    || publish.base_version != expected_previous
                {
                    report.fail(format!(
                        "publish {j}: version {} -> {} (bumped {}), expected {} -> {}",
                        r.previous_version,
                        r.version,
                        r.bumped,
                        expected_previous,
                        expected_previous + 1
                    ));
                }
                expected_previous = r.version;
            }
        }
    }

    // References: replay every delta onto the initial graph and answer each
    // (version, key) from scratch. A mismatch at version v is tested once
    // more against v + 1: an answer computed on the version a concurrent
    // publish had just made latest is counted as version skew, not passed.
    let reads_follow_publishes = publish_graph == GRAPH_NAME;
    let mut graph = initial;
    if !reads_follow_publishes {
        if let Some(keys) = by_version.remove(&1) {
            for (v, seen) in check_version(&graph, 1, keys, &mut HashMap::new(), &mut report) {
                report.fail(mismatch(v, &seen));
            }
        }
    }
    for (j, prior) in prior.iter().enumerate() {
        match graph.apply_delta(prior) {
            Ok(applied) => graph = applied.graph,
            Err(e) => {
                report.fail(format!("replaying prior delta {j} failed: {e}"));
                return report;
            }
        }
    }
    let mut version = first_version;
    let mut deltas = publishes
        .iter()
        .filter(|p| p.result.is_ok())
        .map(|p| &p.delta);
    let mut skew_candidates: Vec<(u32, Seen)> = Vec::new();
    loop {
        let mut scored = HashMap::new();
        for (v, seen) in std::mem::take(&mut skew_candidates) {
            match reference(&graph, &seen, &mut scored) {
                Ok(answer) if answer == (seen.preview.clone(), seen.score_bits) => {
                    report.version_skew += 1;
                }
                _ => report.fail(mismatch(v, &seen)),
            }
        }
        if reads_follow_publishes {
            if let Some(keys) = by_version.remove(&version) {
                skew_candidates = check_version(&graph, version, keys, &mut scored, &mut report);
            }
        }
        let Some(next) = deltas.next() else { break };
        match graph.apply_delta(next) {
            Ok(applied) => graph = applied.graph,
            Err(e) => {
                report.fail(format!(
                    "replaying delta onto version {version} failed: {e}"
                ));
                return report;
            }
        }
        version += 1;
    }
    for (v, seen) in skew_candidates {
        report.fail(mismatch(v, &seen));
    }
    for version in by_version.keys() {
        report.fail(format!(
            "reads resolved to version {version}, never published"
        ));
    }

    // The final published graph.
    match service.registry().resolve(publish_graph, None) {
        Ok(latest) => {
            let served = latest.graph();
            if latest.version() != version {
                report.fail(format!(
                    "latest version {} after {} publishes, expected {version}",
                    latest.version(),
                    publishes.len()
                ));
            }
            if **served != delta::rebuild(served) {
                report.fail("final graph differs from delta::rebuild of itself".into());
            }
            if **served != graph {
                report.fail("final graph differs from the replayed delta chain".into());
            }
        }
        Err(e) => report.fail(format!("final graph unresolvable: {e}")),
    }
    report
}

fn mismatch(version: u32, seen: &Seen) -> String {
    format!(
        "version {version} {:?} via {}: answer differs from the reference",
        seen.space,
        seen.algorithm.name()
    )
}

/// The reference answer for `seen` on `graph`, through the public scoring
/// and discovery API: (preview, score bits). `scored` memoizes scoring per
/// configuration for this graph.
fn reference(
    graph: &EntityGraph,
    seen: &Seen,
    scored: &mut HashMap<ScoringKey, ScoredSchema>,
) -> Result<(Option<Preview>, u64), String> {
    let schema = match scored.entry(ScoringKey::from(&seen.config)) {
        Entry::Occupied(e) => e.into_mut(),
        Entry::Vacant(e) => e.insert(
            ScoredSchema::build(graph, &seen.config)
                .map_err(|err| format!("reference scoring: {err}"))?,
        ),
    };
    let preview = seen
        .algorithm
        .discovery()
        .discover(schema, &seen.space)
        .map_err(|err| format!("reference discovery: {err}"))?;
    let bits = preview
        .as_ref()
        .map_or(0.0, |p| schema.preview_score(p))
        .to_bits();
    Ok((preview, bits))
}

/// Answers every key read at `version` from scratch; returns the answers
/// that differ from their reference.
fn check_version(
    graph: &EntityGraph,
    version: u32,
    keys: HashMap<Key, Seen>,
    scored: &mut HashMap<ScoringKey, ScoredSchema>,
    report: &mut CheckReport,
) -> Vec<(u32, Seen)> {
    let type_count = graph.schema_graph().type_count();
    let mut mismatched = Vec::new();
    for seen in keys.into_values() {
        report.references += 1;
        for requested in &seen.requested {
            if requested.resolve_for(&seen.space, type_count) != seen.algorithm {
                report.fail(format!(
                    "version {version} {:?}: {requested:?} served by {}",
                    seen.space,
                    seen.algorithm.name()
                ));
            }
        }
        match reference(graph, &seen, scored) {
            Ok(answer) if answer == (seen.preview.clone(), seen.score_bits) => {}
            Ok(_) => mismatched.push((version, seen)),
            Err(err) => report.fail(format!("version {version}: {err}")),
        }
    }
    mismatched
}
