//! Request-scoped trace trees and tail-based retention.
//!
//! A [`TraceId`] is minted at service ingress from the request sequence
//! number — deterministically, never from ambient randomness (preview-lint's
//! `ambient-randomness` rule guards the minting site) — and carried with the
//! job into the worker. While a worker serves the request, every span it
//! opens is linked to its parent span, so a completed request yields a
//! reconstructable [`TraceTree`]: queue-wait → cache-lookup → discovery →
//! algorithm → response, with the free-form span attributes (candidate
//! counts, best-first nodes expanded) attached to the tree nodes.
//!
//! Retention is **tail-based**: keeping every tree would cost memory
//! proportional to traffic, so the bounded [`TraceStore`] only retains trees
//! whose request was slow, errored, panicked, or explicitly sampled 1-in-N
//! ([`RetainReason`] records which — a request can qualify several ways and
//! is still retained exactly once).

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Mutex, PoisonError};

use crate::json::write_json_string;
use crate::stage::Stage;

/// The span id every trace root uses ([`TraceSpan::parent_id`] `0` marks
/// the root itself).
pub(crate) const ROOT_SPAN_ID: u32 = 1;

/// A request-scoped trace identifier.
///
/// Minted deterministically from the service's request sequence number via
/// [`TraceId::from_seq`] — the same request order always yields the same
/// ids, and `0` is reserved as "no trace" in packed span events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u64);

impl TraceId {
    /// The id for the request with sequence number `seq` (ids are `seq + 1`
    /// so that `0` never names a real trace).
    pub fn from_seq(seq: u64) -> TraceId {
        TraceId(seq.wrapping_add(1).max(1))
    }

    /// Reconstructs an id from its raw value; `None` for the reserved `0`.
    pub fn from_raw(raw: u64) -> Option<TraceId> {
        (raw != 0).then_some(TraceId(raw))
    }

    /// The raw (non-zero) id value.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// How a worker's request ended, reported when the trace is finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOutcome {
    /// The request completed successfully.
    Ok,
    /// The request ended in a typed service error.
    Error,
    /// The request panicked and was caught at the worker boundary.
    Panic,
}

/// Why a trace tree (and, for slow/panic, the matching flight dump) was
/// retained. A request can qualify for several reasons; it is retained once
/// with all of them recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RetainReason {
    /// The request (or one of its stages) exceeded a configured threshold.
    Slow,
    /// The request returned a typed error.
    Error,
    /// The request panicked.
    Panic,
    /// The request was picked by 1-in-N head sampling.
    Sampled,
}

impl RetainReason {
    /// Stable name used in snapshot JSON and joined dump reasons.
    pub const fn name(self) -> &'static str {
        match self {
            RetainReason::Slow => "slow",
            RetainReason::Error => "error",
            RetainReason::Panic => "panic",
            RetainReason::Sampled => "sampled",
        }
    }
}

/// One completed span inside a [`TraceTree`], with its parent link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpan {
    /// This span's id within its trace (the root is always `1`).
    pub span_id: u32,
    /// The parent span's id; `0` marks the root.
    pub parent_id: u32,
    /// The stage this span measured.
    pub stage: Stage,
    /// Small per-process id of the thread that ran the span.
    pub thread: u32,
    /// Span start, microseconds since the recorder's epoch.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub duration_us: u64,
    /// Free-form attribute (candidate count, nodes expanded, ...).
    pub attr: u64,
}

impl TraceSpan {
    /// Renders the span as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"span_id\":{},\"parent_id\":{},\"stage\":\"{}\",\"thread\":{},\
             \"start_us\":{},\"duration_us\":{},\"attr\":{}}}",
            self.span_id,
            self.parent_id,
            self.stage.name(),
            self.thread,
            self.start_us,
            self.duration_us,
            self.attr
        )
    }
}

/// A retained trace: every span of one request, with parent links, plus why
/// it was kept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceTree {
    /// The request's trace id.
    pub trace: TraceId,
    /// Every reason this tree qualified for retention, in [`RetainReason`]
    /// order (a slow *and* panicked request carries both, retained once).
    pub reasons: Vec<RetainReason>,
    /// Free-form context from the worker (graph name, latency, message).
    pub detail: String,
    /// All spans of the request, in completion order; the root (the whole
    /// request) is always last.
    pub spans: Vec<TraceSpan>,
}

impl TraceTree {
    /// The root span (the whole request), if the tree is well-formed.
    pub fn root(&self) -> Option<&TraceSpan> {
        self.spans.iter().find(|s| s.parent_id == 0)
    }

    /// Direct children of the span with id `parent_id`, in completion order.
    pub fn children(&self, parent_id: u32) -> Vec<&TraceSpan> {
        self.spans
            .iter()
            .filter(|s| s.parent_id == parent_id && s.parent_id != s.span_id)
            .collect()
    }

    /// Renders the tree as a JSON object (the same shape `obs-bench` and
    /// the snapshot exporter emit).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.spans.len() * 128);
        out.push_str(&format!("{{\"trace\":\"{}\",\"reasons\":[", self.trace));
        for (index, reason) in self.reasons.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\"", reason.name()));
        }
        out.push_str("],\"detail\":");
        write_json_string(&mut out, &self.detail);
        out.push_str(",\"spans\":[");
        for (index, span) in self.spans.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str(&span.to_json());
        }
        out.push_str("]}");
        out
    }
}

/// A bounded store of retained [`TraceTree`]s (tail-based sampling output).
///
/// Holding the lock only rotates a bounded deque, and poisoning is
/// recovered from — retention runs on the worker's panic-handling path,
/// where a second panic would abort the process.
#[derive(Debug)]
pub struct TraceStore {
    capacity: usize,
    trees: Mutex<VecDeque<TraceTree>>,
}

impl TraceStore {
    /// A store retaining at most `capacity` trees (clamped to ≥ 1).
    pub fn new(capacity: usize) -> TraceStore {
        TraceStore {
            capacity: capacity.max(1),
            trees: Mutex::new(VecDeque::new()),
        }
    }

    /// Maximum number of retained trees.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Retains `tree`, discarding the oldest retained tree when full.
    pub fn retain(&self, tree: TraceTree) {
        let mut trees = self.trees.lock().unwrap_or_else(PoisonError::into_inner);
        if trees.len() >= self.capacity {
            trees.pop_front();
        }
        trees.push_back(tree);
    }

    /// Retained trees, oldest first.
    pub fn trees(&self) -> Vec<TraceTree> {
        self.trees
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }

    /// Number of retained trees.
    pub fn len(&self) -> usize {
        self.trees
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether no tree has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The per-thread state of the trace currently being served: a span-id
/// allocator, the open-span stack (for parent links), and the completed
/// spans accumulated so far.
#[derive(Debug)]
pub(crate) struct ActiveTrace {
    pub(crate) trace: TraceId,
    next_id: u32,
    stack: Vec<u32>,
    pub(crate) spans: Vec<TraceSpan>,
}

impl ActiveTrace {
    pub(crate) fn new(trace: TraceId) -> ActiveTrace {
        ActiveTrace {
            trace,
            // Ids 0 (no parent) and 1 (root) are reserved.
            next_id: ROOT_SPAN_ID + 1,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Allocates a span id and resolves its parent: `explicit_parent` when
    /// given, else the innermost open span, else the root. The new span is
    /// pushed onto the open stack.
    pub(crate) fn open(&mut self, explicit_parent: Option<u32>) -> (u32, u32) {
        let id = self.next_id;
        self.next_id = self.next_id.saturating_add(1);
        let parent =
            explicit_parent.unwrap_or_else(|| self.stack.last().copied().unwrap_or(ROOT_SPAN_ID));
        self.stack.push(id);
        (id, parent)
    }

    /// Records a completed span and pops it off the open stack. Spans close
    /// LIFO on their thread, but an unwind may skip intermediate guards, so
    /// the stack is searched from the top.
    pub(crate) fn close(&mut self, span: TraceSpan) {
        if let Some(position) = self.stack.iter().rposition(|&id| id == span.span_id) {
            self.stack.truncate(position);
        }
        self.spans.push(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(span_id: u32, parent_id: u32, stage: Stage) -> TraceSpan {
        TraceSpan {
            span_id,
            parent_id,
            stage,
            thread: 0,
            start_us: 0,
            duration_us: 10,
            attr: 0,
        }
    }

    #[test]
    fn trace_ids_are_sequence_derived_and_never_zero() {
        assert_eq!(TraceId::from_seq(0).as_u64(), 1);
        assert_eq!(TraceId::from_seq(41).as_u64(), 42);
        assert_eq!(TraceId::from_seq(u64::MAX).as_u64(), 1);
        assert_eq!(TraceId::from_raw(0), None);
        assert_eq!(TraceId::from_raw(7), Some(TraceId::from_seq(6)));
        assert_eq!(format!("{}", TraceId::from_seq(30)), "000000000000001f");
    }

    #[test]
    fn active_trace_allocates_parents_from_the_open_stack() {
        let mut active = ActiveTrace::new(TraceId::from_seq(0));
        let (outer, outer_parent) = active.open(None);
        assert_eq!((outer, outer_parent), (2, ROOT_SPAN_ID));
        let (inner, inner_parent) = active.open(None);
        assert_eq!((inner, inner_parent), (3, outer));
        active.close(span(inner, inner_parent, Stage::Algorithm));
        // With the inner span closed, new spans parent to the outer one.
        let (next, next_parent) = active.open(None);
        assert_eq!(next_parent, outer);
        active.close(span(next, next_parent, Stage::CandidateGen));
        active.close(span(outer, outer_parent, Stage::Discovery));
        assert!(active.stack.is_empty());
        assert_eq!(active.spans.len(), 3);
    }

    #[test]
    fn explicit_context_parent_overrides_the_stack() {
        let mut active = ActiveTrace::new(TraceId::from_seq(0));
        let (outer, _) = active.open(None);
        let (_, parent) = active.open(Some(ROOT_SPAN_ID));
        assert_eq!(parent, ROOT_SPAN_ID, "context beats the open stack");
        let _ = outer;
    }

    #[test]
    fn tree_navigation_finds_root_and_children() {
        let tree = TraceTree {
            trace: TraceId::from_seq(4),
            reasons: vec![RetainReason::Slow, RetainReason::Panic],
            detail: "graph=g".to_string(),
            spans: vec![
                span(3, 2, Stage::Algorithm),
                span(2, 1, Stage::Discovery),
                span(4, 1, Stage::Response),
                span(1, 0, Stage::Request),
            ],
        };
        assert_eq!(tree.root().unwrap().stage, Stage::Request);
        let children: Vec<Stage> = tree.children(1).iter().map(|s| s.stage).collect();
        assert_eq!(children, vec![Stage::Discovery, Stage::Response]);
        let json = tree.to_json();
        assert!(json.contains("\"trace\":\"0000000000000005\""));
        assert!(json.contains("\"reasons\":[\"slow\",\"panic\"]"));
        assert!(json.contains("\"stage\":\"request\""));
    }

    #[test]
    fn store_is_bounded_and_keeps_the_newest_trees() {
        let store = TraceStore::new(2);
        for seq in 0..5 {
            store.retain(TraceTree {
                trace: TraceId::from_seq(seq),
                reasons: vec![RetainReason::Sampled],
                detail: String::new(),
                spans: Vec::new(),
            });
        }
        let trees = store.trees();
        assert_eq!(trees.len(), 2);
        assert_eq!(trees[0].trace, TraceId::from_seq(3));
        assert_eq!(trees[1].trace, TraceId::from_seq(4));
        assert!(!store.is_empty());
        assert_eq!(TraceStore::new(0).capacity(), 1);
    }
}
