#!/usr/bin/env bash
# CI gate for the preview-tables workspace.
#
# Runs the formatting and lint gates, then the tier-1 verify
# (`cargo build --release && cargo test -q`) and the servebench self-tests,
# then checks that the Criterion benches still compile. Fails on the first
# broken step.

set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> RUSTDOCFLAGS=-D warnings cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> servebench self-tests"
# The committed benchmark is a workspace of its own that builds against the
# crates' public API; a change that breaks that API fails here.
cargo test --release --offline --manifest-path servebench/Cargo.toml

echo "==> cargo bench --no-run"
cargo bench --no-run

echo "==> preview-lint --check (emits LINT_REPORT.json)"
# Workspace invariant lint: determinism, concurrency, and policy rules
# over every crate. Fails on any unsuppressed finding; the JSON report
# carries per-rule counts plus the full suppression inventory.
cargo run --release -p preview-lint -- --check --out LINT_REPORT.json

echo "==> graph-bench smoke workload (emits BENCH_graph.json)"
cargo run --release -p bench --bin graph-bench -- \
    --out BENCH_graph.json --check

echo "==> preview-serve smoke workload (emits BENCH_service.json)"
cargo run --release -p bench --bin preview-serve -- \
    --requests 1000 --scale 5e-5 --out BENCH_service.json --check

echo "==> obs-bench smoke workload (emits BENCH_obs.json)"
# Observability overhead gate: the disabled recorder must cost < 1% on the
# serving path and full span recording — including the trace-tree pipeline,
# exercised via head sampling — < 5% (best paired round wins). The exported
# ObsSnapshot JSON must parse and enumerate every stage and counter with
# exact request counts. A tail-sampling scenario then injects one slow and
# one slow+panicking request and asserts: both trace trees retained with
# correct parent links, the slow tree's stage spans summing to its root,
# the request-stage histogram's top bucket carrying the slow trace id as
# its exemplar, and a single joined "slow+panic" dump.
cargo run --release -p bench --bin obs-bench -- \
    --out BENCH_obs.json --check

echo "==> anytime-bench smoke workload (emits BENCH_anytime.json)"
# Best-first branch-and-bound vs brute-force enumeration. Bitwise identity
# on the exact path is enforced on every space; the pruning gate requires
# visiting <= 25% of the subset lattice and a >= 1.5x wall-clock speedup
# (re-measured on a miss), and the anytime quality-vs-budget curve must be
# monotone and converge to the exact optimum.
cargo run --release -p bench --bin anytime-bench -- \
    --out BENCH_anytime.json --check

echo "==> update-bench smoke workload (emits BENCH_updates.json)"
# Delta splice + incremental rescore vs full rebuild + full rescore on a
# Zipf-skewed update stream. Byte-identity of the spliced graph and bitwise
# identity of the rescored schema are enforced on every measurement; the
# small-delta speedup floor (>= 3x) is re-measured on a miss before failing.
# A serving-layer phase verifies version-aware cache retention bitwise.
cargo run --release -p bench --bin update-bench -- \
    --out BENCH_updates.json --check

echo "==> scale-bench smoke tier (emits nothing; 10x scale, identity enforced)"
# Sharded build + entropy + registry publish at 10x the smoke scale.
# Bitwise identity (sharded vs unsharded entropy; published version vs
# from-scratch reshard) is always enforced. The full 100x/1000x sweep that
# produces the committed BENCH_scale.json is invoked manually:
#   cargo run --release -p bench --bin scale-bench -- \
#       --factors 10,100,1000 --out BENCH_scale.json --check
cargo run --release -p bench --bin scale-bench -- \
    --factors 10 --check

echo "CI green."
