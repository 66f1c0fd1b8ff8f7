//! `preview-lint`: a workspace-aware static-analysis pass that proves
//! the determinism and concurrency invariants the rest of the workspace
//! only tests for.
//!
//! The paper's exact-optimality guarantees (Theorems 4.1/5.1 of Yan et
//! al., SIGMOD 2016) survive in this codebase only because every engine
//! is bitwise-deterministic. The invariants that make that true — no
//! iteration-order-sensitive float accumulation, no wall-clock reads in
//! engine code, disciplined atomic orderings in the seqlock recorder and
//! the shard-build cursor — used to be enforced by after-the-fact runtime
//! goldens and comments. This crate turns them into a machine-checked CI
//! gate.
//!
//! # Design
//!
//! The tool is std-only: it lexes Rust with its own small tokenizer
//! ([`lexer`]) rather than `syn`, consistent with the workspace's
//! vendored-dependency constraint. Rules ([`rules`]) walk the token
//! stream with per-file context ([`context`]): crate classification from
//! the path, `#[cfg(test)]` / `#[test]` region detection, and
//! suppression comments. The driver ([`workspace`]) runs every rule over
//! every file, resolves suppressions, and produces a machine-readable
//! [`report::Report`] (`LINT_REPORT.json` in CI).
//!
//! # Suppression syntax
//!
//! * `// lint: allow(<rule-id>, <reason>)` — on the offending line or
//!   the line above.
//! * `// lint: ordering-ok(<reason>)` — shorthand for the
//!   `atomic-ordering-annotation` rule: annotating an atomic site with
//!   its correctness argument *is* the compliance mechanism.
//!
//! Crate-root rules (`forbid-unsafe`, `deny-missing-docs`) accept a
//! suppression anywhere in the file. Suppressions that match no finding
//! are listed in the report's `unused_suppressions` inventory.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod context;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;
pub mod workspace;

pub use report::Report;
pub use source::SourceFile;
pub use workspace::{analyze, analyze_workspace};
