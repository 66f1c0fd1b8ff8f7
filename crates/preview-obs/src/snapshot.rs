//! [`ObsSnapshot`]: a unified, JSON-renderable view of everything a
//! [`Recorder`] collected, plus the memory and peak-RSS context supplied by
//! the serving layer.
//!
//! The JSON schema is stable and self-describing: every stage in
//! [`Stage::ALL`] and every counter in [`Counter::ALL`] appears under its
//! [`name`](Stage::name), so `obs-bench --check` can verify the document by
//! enumeration. All durations are microseconds.

use crate::flight::FlightDump;
use crate::histogram::{bucket_lower, HistogramSnapshot};
use crate::json::write_json_f64;
use crate::recorder::Recorder;
use crate::stage::{Counter, Stage};
use crate::trace::{TraceId, TraceTree};

/// Memory accounting for one shard, mirrored from the graph layer's
/// per-shard report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMemory {
    /// Shard index.
    pub shard: u64,
    /// Entities homed in this shard.
    pub entities: u64,
    /// Encoded adjacency segments stored.
    pub segments: u64,
    /// Bytes of encoded adjacency payload.
    pub encoded_payload_bytes: u64,
    /// Bytes of per-shard directory overhead.
    pub directory_bytes: u64,
    /// Total bytes attributed to this shard.
    pub total_bytes: u64,
}

/// Memory accounting for a sharded graph version, mirrored from the graph
/// layer's `MemoryReport`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemorySection {
    /// Number of shards.
    pub shard_count: u64,
    /// Total entities across shards.
    pub entities: u64,
    /// Total edges across shards.
    pub edges: u64,
    /// Total bytes of the sharded representation.
    pub sharded_total_bytes: u64,
    /// Total bytes the equivalent unsharded index would use.
    pub unsharded_total_bytes: u64,
    /// Per-shard breakdown.
    pub shards: Vec<ShardMemory>,
}

/// A point-in-time export of a [`Recorder`] plus serving-layer context.
///
/// Produced by [`Recorder::snapshot`]; the serving layer fills in
/// [`memory`](Self::memory) before rendering.
#[derive(Debug, Clone)]
pub struct ObsSnapshot {
    /// Whether the recorder was enabled at snapshot time.
    pub enabled: bool,
    /// Total span events ever pushed into the flight ring.
    pub events_recorded: u64,
    /// Every counter, in [`Counter::ALL`] order.
    pub counters: Vec<(Counter, u64)>,
    /// Every stage's duration histogram, in [`Stage::ALL`] order.
    pub stages: Vec<(Stage, HistogramSnapshot)>,
    /// Memory breakdown of the live graph version, when available.
    pub memory: Option<MemorySection>,
    /// Peak resident set size of the process, when the platform exposes it.
    pub peak_rss_bytes: Option<u64>,
    /// Retained flight-recorder dumps, oldest first.
    pub dumps: Vec<FlightDump>,
    /// Tail-sampled trace trees, oldest first.
    pub traces: Vec<TraceTree>,
}

impl Recorder {
    /// Exports counters, per-stage histograms, ring totals, retained dumps,
    /// and the current peak RSS. The serving layer adds
    /// [`ObsSnapshot::memory`].
    pub fn snapshot(&self) -> ObsSnapshot {
        ObsSnapshot {
            enabled: self.is_enabled(),
            events_recorded: self.events_recorded(),
            counters: Counter::ALL.iter().map(|&c| (c, self.counter(c))).collect(),
            stages: Stage::ALL
                .iter()
                .map(|&s| (s, self.stage_histogram(s).snapshot()))
                .collect(),
            memory: None,
            peak_rss_bytes: crate::peak_rss_bytes(),
            dumps: self.dumps(),
            traces: self.traces().trees(),
        }
    }
}

fn write_histogram(out: &mut String, hist: &HistogramSnapshot) {
    out.push_str(&format!(
        "{{\"count\":{},\"sum_us\":{},\"max_us\":{},\"mean_us\":",
        hist.count(),
        hist.sum(),
        hist.max()
    ));
    write_json_f64(out, hist.mean());
    out.push_str(&format!(
        ",\"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"p999_us\":{},\"exemplars\":[",
        hist.quantile(0.50),
        hist.quantile(0.90),
        hist.quantile(0.99),
        hist.quantile(0.999)
    ));
    let mut first = true;
    for (index, &exemplar) in hist.bucket_exemplars().iter().enumerate() {
        let Some(trace) = TraceId::from_raw(exemplar) else {
            continue;
        };
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"bucket_lower_us\":{},\"trace\":\"{trace}\"}}",
            bucket_lower(index)
        ));
    }
    out.push_str("]}");
}

impl ObsSnapshot {
    /// Renders the snapshot as one JSON object (see the module docs for the
    /// schema). Parseable by [`JsonValue::parse`](crate::JsonValue::parse).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str(&format!(
            "{{\"enabled\":{},\"events_recorded\":{},\"counters\":{{",
            self.enabled, self.events_recorded
        ));
        for (index, (counter, value)) in self.counters.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", counter.name(), value));
        }
        out.push_str("},\"stages\":{");
        for (index, (stage, hist)) in self.stages.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":", stage.name()));
            write_histogram(&mut out, hist);
        }
        out.push_str("},\"memory\":");
        match &self.memory {
            Some(memory) => {
                out.push_str(&format!(
                    "{{\"shard_count\":{},\"entities\":{},\"edges\":{},\
                     \"sharded_total_bytes\":{},\"unsharded_total_bytes\":{},\"shards\":[",
                    memory.shard_count,
                    memory.entities,
                    memory.edges,
                    memory.sharded_total_bytes,
                    memory.unsharded_total_bytes
                ));
                for (index, shard) in memory.shards.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "{{\"shard\":{},\"entities\":{},\"segments\":{},\
                         \"encoded_payload_bytes\":{},\"directory_bytes\":{},\"total_bytes\":{}}}",
                        shard.shard,
                        shard.entities,
                        shard.segments,
                        shard.encoded_payload_bytes,
                        shard.directory_bytes,
                        shard.total_bytes
                    ));
                }
                out.push_str("]}");
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"peak_rss_bytes\":");
        match self.peak_rss_bytes {
            Some(bytes) => out.push_str(&format!("{bytes}")),
            None => out.push_str("null"),
        }
        out.push_str(",\"dumps\":[");
        for (index, dump) in self.dumps.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str(&dump.to_json());
        }
        out.push_str("],\"traces\":[");
        for (index, tree) in self.traces.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str(&tree.to_json());
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;
    use crate::recorder::{DumpReason, ObsConfig};
    use crate::stage::STAGE_COUNT;

    #[test]
    fn snapshot_json_parses_and_contains_every_stage_and_counter() {
        let recorder = Recorder::new(ObsConfig::default());
        recorder.record_span(Stage::Discovery, 1, 10, 250, 3);
        recorder.record_span_traced(Stage::Request, 0, 0, 300, 1, 0x2a, 1, 0);
        recorder.add_counter(Counter::Publishes, 2);
        recorder.capture_dump(DumpReason::OnDemand, "manual");
        let mut snapshot = recorder.snapshot();
        snapshot.memory = Some(MemorySection {
            shard_count: 1,
            entities: 10,
            edges: 20,
            sharded_total_bytes: 4096,
            unsharded_total_bytes: 4000,
            shards: vec![ShardMemory {
                shard: 0,
                entities: 10,
                segments: 5,
                encoded_payload_bytes: 1000,
                directory_bytes: 96,
                total_bytes: 1096,
            }],
        });

        let json = snapshot.to_json();
        let parsed = JsonValue::parse(&json).expect("snapshot JSON must parse");

        let stages = parsed.get("stages").unwrap().as_object().unwrap();
        assert_eq!(stages.len(), STAGE_COUNT);
        for stage in Stage::ALL {
            let entry = stages
                .get(stage.name())
                .unwrap_or_else(|| panic!("stage '{}' missing from snapshot", stage.name()));
            assert!(entry.get("count").unwrap().as_u64().is_some());
            assert!(entry.get("p99_us").unwrap().as_u64().is_some());
        }
        assert_eq!(
            stages
                .get("discovery")
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64(),
            Some(1)
        );

        let counters = parsed.get("counters").unwrap().as_object().unwrap();
        for counter in Counter::ALL {
            assert!(counters.contains_key(counter.name()));
        }
        assert_eq!(counters.get("publishes").unwrap().as_u64(), Some(2));

        // A traced span's bucket renders its trace id as the exemplar.
        let request = stages.get("request").unwrap();
        assert_eq!(request.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(request.get("max_us").unwrap().as_u64(), Some(300));
        let exemplars = request.get("exemplars").unwrap().as_array().unwrap();
        assert_eq!(exemplars.len(), 1);
        assert_eq!(
            exemplars[0].get("trace").unwrap().as_str(),
            Some("000000000000002a")
        );

        let memory = parsed.get("memory").unwrap();
        assert_eq!(memory.get("shard_count").unwrap().as_u64(), Some(1));
        assert_eq!(
            memory.get("shards").unwrap().as_array().unwrap()[0]
                .get("total_bytes")
                .unwrap()
                .as_u64(),
            Some(1096)
        );

        let dumps = parsed.get("dumps").unwrap().as_array().unwrap();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].get("reason").unwrap().as_str(), Some("on_demand"));

        assert_eq!(parsed.get("events_recorded").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn optional_sections_render_null() {
        let snapshot = Recorder::default().snapshot();
        let parsed = JsonValue::parse(&snapshot.to_json()).unwrap();
        assert_eq!(parsed.get("memory"), Some(&JsonValue::Null));
        assert_eq!(parsed.get("enabled"), Some(&JsonValue::Bool(false)));
        assert!(parsed.get("traces").unwrap().as_array().unwrap().is_empty());
    }
}
