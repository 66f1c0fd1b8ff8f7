//! The rule framework: typed rules, findings, and the registry.

pub mod concurrency;
pub mod determinism;
pub mod policy;

use crate::context::FileContext;

/// Rule id of the atomic-ordering annotation rule; the
/// `// lint: ordering-ok(<reason>)` shorthand maps to it.
pub const ATOMIC_ORDERING_RULE: &str = "atomic-ordering-annotation";

/// How serious an unsuppressed finding is. `--check` fails on any
/// unsuppressed finding regardless of severity; the distinction is
/// informational (errors break invariants outright, warnings are
/// hygiene).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Breaks a determinism/concurrency/policy invariant.
    Error,
    /// Hygiene issue.
    Warning,
}

impl Severity {
    /// Lower-case name used in the JSON report.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// Which invariant family a rule belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Bitwise-reproducibility invariants.
    Determinism,
    /// Atomics, locks, and tracing-in-parallel invariants.
    Concurrency,
    /// Project policy (panics, crate hygiene, stray output).
    Policy,
}

impl Family {
    /// Lower-case name used in the JSON report.
    pub fn name(self) -> &'static str {
        match self {
            Family::Determinism => "determinism",
            Family::Concurrency => "concurrency",
            Family::Policy => "policy",
        }
    }
}

/// One diagnostic produced by a rule.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Id of the rule that fired.
    pub rule: &'static str,
    /// Severity of the rule.
    pub severity: Severity,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based byte column of the offending token.
    pub col: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Human-readable explanation.
    pub message: String,
    /// File-scope findings (crate-root attribute checks) accept a
    /// suppression anywhere in the file, not just adjacent lines.
    pub file_scope: bool,
    /// Set by the driver when a suppression matched; carries the reason.
    pub suppressed: Option<String>,
}

impl Finding {
    /// Builds a finding anchored at byte `offset` of `ctx`'s file.
    pub fn at(
        ctx: &FileContext,
        rule: &'static str,
        severity: Severity,
        offset: usize,
        message: String,
    ) -> Self {
        let (line, col) = ctx.file.line_col(offset);
        Self {
            rule,
            severity,
            path: ctx.file.path.clone(),
            line,
            col,
            snippet: ctx.file.line_text(line).trim().to_string(),
            message,
            file_scope: false,
            suppressed: None,
        }
    }
}

/// A lint rule. Rules see every file once via [`Rule::check_file`];
/// rules that need whole-workspace state (the lock-order graph) emit
/// their findings from [`Rule::finish`].
pub trait Rule {
    /// Stable kebab-case identifier, used in reports and suppressions.
    fn id(&self) -> &'static str;
    /// Invariant family.
    fn family(&self) -> Family;
    /// Severity of findings.
    fn severity(&self) -> Severity;
    /// One-line description for `--list-rules` and the report.
    fn description(&self) -> &'static str;
    /// Analyses one file, appending findings.
    fn check_file(&mut self, ctx: &FileContext, out: &mut Vec<Finding>);
    /// Emits whole-workspace findings after every file has been seen.
    fn finish(&mut self, out: &mut Vec<Finding>) {
        let _ = out;
    }
}

/// Instantiates the full rule set, in stable report order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(determinism::HashIterFloatSink),
        Box::new(determinism::WallClock),
        Box::new(determinism::AmbientRandomness),
        Box::new(concurrency::AtomicOrderingAnnotation),
        Box::new(concurrency::LockOrderCycle::default()),
        Box::new(policy::RequestPathUnwrap),
        Box::new(policy::ForbidUnsafe),
        Box::new(policy::DenyMissingDocs),
        Box::new(policy::NoPrintln),
    ]
}
