//! Cross-check of the program's own observability against the numbers the
//! benchmark timed from outside. Mismatches are reported, never fixed here.

use std::fmt::Write as _;

use preview_obs::{Counter, HistogramSnapshot, ObsSnapshot, Stage};

/// The stages compared, in report order.
pub const STAGES: [Stage; 8] = [
    Stage::QueueWait,
    Stage::CacheLookup,
    Stage::Discovery,
    Stage::Algorithm,
    Stage::Publish,
    Stage::DeltaApply,
    Stage::ShardSplice,
    Stage::Rescore,
];

/// The counters compared, in report order.
pub const COUNTERS: [Counter; 5] = [
    Counter::Publishes,
    Counter::PublishSplices,
    Counter::PublishFullReshards,
    Counter::CacheCarried,
    Counter::CacheInvalidated,
];

/// What the benchmark observed for one stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outside {
    /// Times the stage should have run.
    pub count: u64,
    /// Median duration measured from outside, microseconds.
    pub p50_us: f64,
}

/// One compared stage or counter.
#[derive(Debug, Clone)]
pub struct Row {
    /// Stage or counter name.
    pub name: &'static str,
    /// The program's count over the traced phase.
    pub program_count: u64,
    /// The program's median, microseconds (stages only).
    pub program_p50_us: Option<u64>,
    /// The benchmark's count.
    pub outside: Outside,
}

impl Row {
    /// Whether the counts disagree.
    pub fn mismatch(&self) -> bool {
        self.program_count != self.outside.count
    }
}

fn stage(snapshot: &ObsSnapshot, stage: Stage) -> HistogramSnapshot {
    snapshot
        .stages
        .iter()
        .find(|(s, _)| *s == stage)
        .map_or_else(HistogramSnapshot::empty, |(_, h)| h.clone())
}

fn counter(snapshot: &ObsSnapshot, counter: Counter) -> u64 {
    snapshot
        .counters
        .iter()
        .find(|(c, _)| *c == counter)
        .map_or(0, |(_, v)| *v)
}

/// Compares the program's stage histograms and counters between `before`
/// and `after` with the outside observations (same order as [`STAGES`]
/// followed by [`COUNTERS`]).
pub fn cross_check(
    before: &ObsSnapshot,
    after: &ObsSnapshot,
    stages: [Outside; 8],
    counters: [u64; 5],
) -> Vec<Row> {
    let mut rows: Vec<Row> = STAGES
        .iter()
        .zip(stages)
        .map(|(&s, outside)| {
            let delta = stage(after, s).delta_since(&stage(before, s));
            Row {
                name: s.name(),
                program_count: delta.count(),
                program_p50_us: Some(delta.quantile(0.5)),
                outside,
            }
        })
        .collect();
    rows.extend(COUNTERS.iter().zip(counters).map(|(&c, count)| Row {
        name: c.name(),
        program_count: counter(after, c) - counter(before, c),
        program_p50_us: None,
        outside: Outside { count, p50_us: 0.0 },
    }));
    rows
}

/// Renders the comparison as a text table.
pub fn table(rows: &[Row]) -> String {
    let mut out = format!(
        "obs cross-check (traced phase)\n  {:<22} {:>10} {:>10} {:>12} {:>12}  flag\n",
        "stage/counter", "program_n", "outside_n", "program_p50", "outside_p50"
    );
    for row in rows {
        let program_p50 = row
            .program_p50_us
            .map_or_else(|| "-".to_string(), |p| p.to_string());
        let outside_p50 = if row.program_p50_us.is_some() {
            format!("{:.3}", row.outside.p50_us)
        } else {
            "-".to_string()
        };
        let _ = writeln!(
            out,
            "  {:<22} {:>10} {:>10} {:>12} {:>12}  {}",
            row.name,
            row.program_count,
            row.outside.count,
            program_p50,
            outside_p50,
            if row.mismatch() { "COUNT MISMATCH" } else { "" }
        );
    }
    out
}
