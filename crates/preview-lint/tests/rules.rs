//! Per-rule fixture suite: every rule must fire on its `firing*.rs`
//! fixtures and stay silent (no unsuppressed findings) on its `clean*.rs`
//! fixtures.
//!
//! Fixtures live under `tests/fixtures/<rule-id>/` and start with a
//! `//@ path: <virtual workspace path>` directive: rules scope themselves
//! by crate and file class, so the lint sees each fixture at the path the
//! directive claims, not where the fixture file actually sits.

use std::fs;
use std::path::{Path, PathBuf};

use preview_lint::{analyze, Report, SourceFile};

/// Every rule with a fixture directory, kept in sync with `all_rules()`.
const RULES: &[&str] = &[
    "hash-iter-float-sink",
    "wall-clock",
    "ambient-randomness",
    "atomic-ordering-annotation",
    "lock-order-cycle",
    "request-path-unwrap",
    "forbid-unsafe",
    "deny-missing-docs",
    "no-println",
];

fn fixture_dir(rule: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rule)
}

/// Loads one fixture, honouring its `//@ path:` directive, and analyses
/// it in isolation.
fn analyze_fixture(path: &Path) -> Report {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    let (first, rest) = text
        .split_once('\n')
        .unwrap_or_else(|| panic!("{path:?} is empty"));
    let virtual_path = first
        .strip_prefix("//@ path:")
        .unwrap_or_else(|| panic!("{path:?} must start with a `//@ path:` directive"))
        .trim()
        .to_string();
    // Replace the directive with a blank line so fixture line numbers
    // stay 1:1 with what the analyzer reports.
    analyze(vec![SourceFile::new(virtual_path, format!("\n{rest}"))])
}

fn fixtures_matching(rule: &str, prefix: &str) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(fixture_dir(rule))
        .unwrap_or_else(|e| panic!("fixture dir for `{rule}` missing: {e}"))
        .map(|entry| entry.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(prefix) && n.ends_with(".rs"))
        })
        .collect();
    out.sort();
    out
}

#[test]
fn every_rule_has_firing_and_clean_fixtures() {
    for rule in RULES {
        assert!(
            !fixtures_matching(rule, "firing").is_empty(),
            "rule `{rule}` has no firing fixture"
        );
        assert!(
            !fixtures_matching(rule, "clean").is_empty(),
            "rule `{rule}` has no clean fixture"
        );
    }
}

#[test]
fn firing_fixtures_fire() {
    for rule in RULES {
        for fixture in fixtures_matching(rule, "firing") {
            let report = analyze_fixture(&fixture);
            let hits: Vec<_> = report.unsuppressed().filter(|f| f.rule == *rule).collect();
            assert!(
                !hits.is_empty(),
                "expected `{rule}` to fire on {fixture:?}, found: {:?}",
                report.unsuppressed().map(|f| f.rule).collect::<Vec<_>>()
            );
        }
    }
}

#[test]
fn clean_fixtures_stay_silent() {
    for rule in RULES {
        for fixture in fixtures_matching(rule, "clean") {
            let report = analyze_fixture(&fixture);
            let hits: Vec<_> = report
                .unsuppressed()
                .filter(|f| f.rule == *rule)
                .map(|f| format!("{}:{} {}", f.line, f.col, f.message))
                .collect();
            assert!(
                hits.is_empty(),
                "`{rule}` fired on clean fixture {fixture:?}: {hits:?}"
            );
        }
    }
}

/// Findings carry an exact file:line:col plus the offending source line.
#[test]
fn findings_have_accurate_spans() {
    let fixture = fixture_dir("no-println").join("firing.rs");
    let report = analyze_fixture(&fixture);
    let finding = report
        .unsuppressed()
        .find(|f| f.rule == "no-println")
        .expect("no-println fires on its firing fixture");
    assert_eq!(finding.path, "crates/entity-graph/src/loader.rs");
    assert_eq!(finding.line, 8);
    assert!(finding.col >= 1);
    assert!(
        finding.snippet.contains("println!"),
        "snippet should show the offending line: {:?}",
        finding.snippet
    );
}

/// A suppression comment turns a finding into a suppressed (non-failing)
/// one, and an unmatched suppression is inventoried as unused.
#[test]
fn suppressions_resolve_and_unused_ones_are_reported() {
    let suppressed = analyze(vec![SourceFile::new(
        "crates/entity-graph/src/x.rs".to_string(),
        "/// Doc.\npub fn f() {\n    // lint: allow(no-println, deliberate diagnostic)\n    println!(\"hi\");\n}\n"
            .to_string(),
    )]);
    assert!(suppressed.clean(), "suppressed finding must not fail");
    let finding = suppressed
        .of_rule("no-println")
        .next()
        .expect("finding still recorded");
    assert_eq!(finding.suppressed.as_deref(), Some("deliberate diagnostic"));

    let unused = analyze(vec![SourceFile::new(
        "crates/entity-graph/src/x.rs".to_string(),
        "/// Doc.\npub fn f() {\n    // lint: allow(no-println, nothing here needs it)\n    let _x = 1;\n}\n"
            .to_string(),
    )]);
    assert_eq!(unused.unused_suppressions.len(), 1);
    assert_eq!(unused.unused_suppressions[0].rule, "no-println");
}
