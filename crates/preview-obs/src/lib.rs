//! Zero-dependency observability for the preview-tables serving stack:
//! structured spans, exact log-linear histograms, a flight recorder, and a
//! unified JSON snapshot exporter.
//!
//! The crate is std-only (consistent with the workspace's vendored-deps
//! policy) and built around one invariant: **instrumentation must be
//! output-neutral and near-free when off**. Concretely:
//!
//! * [`span!`] / [`enter`] cost a single relaxed atomic load when no
//!   [`Recorder`] in the process is enabled — the production default — so
//!   hot paths keep their instrumentation compiled in at <1% overhead
//!   (`obs-bench --check` enforces the floor).
//! * Recording never takes a lock and never branches on data values, so
//!   enabling a recorder cannot perturb the deterministic outputs the
//!   golden suites pin (it only reads clocks and bumps atomics).
//! * Every collected artifact — [`Histogram`] quantiles, [`Counter`]s,
//!   [`FlightDump`]s, per-shard memory — exports through one
//!   [`ObsSnapshot::to_json`] schema shared by all bench binaries.
//!
//! The crate observes at two layers:
//!
//! 1. **Per-request trace trees** — a [`TraceId`] minted at service
//!    ingress links every span of one request into a parent-linked
//!    [`TraceTree`]; the bounded [`TraceStore`] retains trees tail-based
//!    (slow / errored / panicked / 1-in-N sampled, see [`RetainReason`])
//!    and histogram buckets carry the latest trace as an exemplar.
//! 2. **Aggregate histograms** — exact log-linear per-stage [`Histogram`]s
//!    and [`Counter`]s, cumulative since process start. A window is the
//!    [`HistogramSnapshot::delta_since`] of two snapshots.
//!
//! # Layout
//!
//! | Piece | What it is |
//! |---|---|
//! | [`Stage`] / [`Counter`] | the closed taxonomy instrumented across the stack |
//! | [`Recorder`] | per-stage [`Histogram`]s + counters + the flight ring + the [`TraceStore`] |
//! | [`span!`] / [`SpanGuard`] | RAII stage timing on the attached recorder |
//! | [`TraceGuard`] | per-request tree building |
//! | [`FlightRing`] / [`FlightDump`] | seqlock ring of recent span events; dumped on panic / slow request / demand |
//! | [`ObsSnapshot`] | the JSON export consumed by `PreviewService::snapshot()` and every bench |
//! | [`JsonValue`] | minimal parser used by `obs-bench --check` to validate the export |
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use preview_obs::{span, ObsConfig, Recorder, Stage};
//!
//! let recorder = Arc::new(Recorder::new(ObsConfig::default()));
//! recorder.enable();
//! let _attach = recorder.attach(); // this thread now records spans
//! {
//!     let _request = span!(Stage::Request);
//!     let _discovery = span!(Stage::Discovery, candidates = 12);
//! } // guards drop: durations land in histograms + the flight ring
//! recorder.disable();
//! assert_eq!(recorder.stage_histogram(Stage::Request).count(), 1);
//! let json = recorder.snapshot().to_json();
//! assert!(json.contains("\"discovery\""));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod flight;
mod histogram;
mod json;
mod recorder;
mod rss;
mod snapshot;
mod stage;
mod trace;

pub use flight::{FlightDump, FlightRing, SpanEvent};
pub use histogram::{bucket_index, bucket_lower, Histogram, HistogramSnapshot, BUCKETS};
pub use json::{write_json_f64, write_json_string, JsonValue};
pub use recorder::{
    counter_add, counter_add_many, enter, enter_with, AttachGuard, DumpReason, ObsConfig, Recorder,
    SpanGuard, TraceGuard,
};
pub use rss::peak_rss_bytes;
pub use snapshot::{MemorySection, ObsSnapshot, ShardMemory};
pub use stage::{Counter, Stage, COUNTER_COUNT, STAGE_COUNT};
pub use trace::{RetainReason, TraceId, TraceOutcome, TraceSpan, TraceStore, TraceTree};

/// Compile-time guarantees for the types that cross thread boundaries: the
/// worker pool shares one `Arc<Recorder>` across every worker and the
/// bench/driver threads, so `Recorder` (and everything a snapshot carries
/// out of it) must be `Send + Sync`.
mod static_assertions {
    #![allow(dead_code)]

    use super::*;

    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send_sync_clone<T: Send + Sync + Clone>() {}

    const _: () = {
        assert_send_sync::<Recorder>();
        assert_send_sync::<Histogram>();
        assert_send_sync::<FlightRing>();
        assert_send_sync::<TraceStore>();
        assert_send_sync_clone::<HistogramSnapshot>();
        assert_send_sync_clone::<ObsSnapshot>();
        assert_send_sync_clone::<FlightDump>();
        assert_send_sync_clone::<SpanEvent>();
        assert_send_sync_clone::<Stage>();
        assert_send_sync_clone::<Counter>();
        assert_send_sync_clone::<ObsConfig>();
        assert_send_sync_clone::<TraceId>();
        assert_send_sync_clone::<TraceTree>();
        assert_send_sync_clone::<RetainReason>();
    };
}
