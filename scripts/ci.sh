#!/usr/bin/env bash
# The full local CI gate: release build, test suite, lint.
#
#   ./scripts/ci.sh
#
# The workspace has no external dependency, so this runs as written on
# a machine with no registry. Any extra arguments are forwarded to
# every cargo invocation.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== dependency gate ==="
# What a seed produces, and what the tests check, must not depend on the
# build environment (DESIGN.md §5): every dependency table of every
# manifest names nc-* crates only, and the property runner is a
# dev-dependency — no product crate carries a test runner.
foreign=$(awk '
    /^\[/ {
        deps = ($0 ~ /dependencies\]$/)
        dev = ($0 == "[dev-dependencies]" || $0 == "[workspace.dependencies]")
        if ($0 ~ /dependencies\./) print FILENAME ": " $0
        next
    }
    deps && /^[^#[:space:]]/ && !/^nc-/ { print FILENAME ": " $0 }
    deps && !dev && /^nc-propcheck/ { print FILENAME ": " $0 " (outside [dev-dependencies])" }
' Cargo.toml crates/*/Cargo.toml)
if [ -n "$foreign" ]; then
    echo "a dependency table may name nc-* crates only, nc-propcheck under [dev-dependencies] only:" >&2
    echo "$foreign" >&2
    exit 1
fi

echo "=== storage gate ==="
# Storage does not depend on serving: nc-shard publishes a
# StoreSnapshot, and the caller hands it to nc-serve.
if grep -n 'nc-serve' crates/shard/Cargo.toml >&2; then
    echo "crates/shard/Cargo.toml names nc-serve" >&2
    exit 1
fi

echo "=== lock gate ==="
# A package with a `source` came from a registry or a git remote; the
# lock file names workspace crates only.
if grep -n '^source = ' Cargo.lock >&2; then
    echo "Cargo.lock names a package from outside the workspace" >&2
    exit 1
fi

echo "=== build (release) ==="
cargo build --release --workspace "$@"

echo "=== property runner self-test ==="
# Every property suite below trusts the runner to report a failing
# case's seed and to replay it; check that first.
cargo test -q -p nc-propcheck "$@"

echo "=== test ==="
cargo test -q --workspace "$@"

echo "=== property sweep ==="
# The #[ignore]d twins of the cheap properties: each reruns a tier-1
# property under its own name at 3 000 cases (the tier-1 cases first,
# since case seeds derive from the name), so a property that holds at
# 64 cases and not at 3 000 is found here rather than by hand.
# Skipped for cost: nc-core's thread-count scoring property (threads per
# case) and its three carve properties (a store built and carved per
# case).
cargo test --release -q -p nc-core -p nc-detect -p nc-docstore -p nc-pprl -p nc-query \
    -p nc-similarity -p nc-votergen "$@" -- --ignored

echo "=== shard smoke ==="
# Tiny-parameter pass through the shard benchmark: in-memory fan-out,
# WAL-backed archive ingest, publish and a clean replay — the binary
# asserts each stage and exits non-zero on any failure.
cargo run --release -q -p nc-bench --bin bench_shard "$@" -- \
    --pop 200 --snapshots 3 --shards 3 --reps 1 \
    --out target/BENCH_shard_smoke.json > /dev/null

echo "=== stream smoke ==="
# Tiny-parameter pass through the change-stream benchmark: WAL-tailing
# change stream, dirty-only incremental re-scoring (bit-identity
# asserted every repetition) and delta-aware carve-cache publishes —
# the binary exits non-zero on any drift.
cargo run --release -q -p nc-bench --bin bench_stream "$@" -- \
    --pop 300 --snapshots 2 --shards 2 --reps 1 --publishes 1 \
    --out target/BENCH_stream_smoke.json > /dev/null

echo "=== detect smoke ==="
# Tiny-parameter pass through the candidate-generation benchmark:
# indexed pipeline vs the SNM baseline on two scales — the binary
# asserts the parallel probe bit-identical to the sequential one and
# exits non-zero on any failure.
cargo run --release -q -p nc-bench --bin bench_detect "$@" -- \
    --scales 2000,4000 --pop 1000 --reps 1 \
    --out target/BENCH_detect_smoke.json > /dev/null

echo "=== fault sweep smoke ==="
# Bounded syscall-fault sweep: crash the shard engine's commit sequence
# at every 5th mutating syscall and run a handful of seeded chaos
# schedules — the binary asserts every crash point recovers to the pre-
# or post-commit state (never a third) and exits non-zero otherwise.
cargo run --release -q -p nc-bench --bin bench_faults "$@" -- \
    --pop 100 --shards 2 --stride 5 --chaos-runs 12 \
    --out target/BENCH_faults_smoke.json > /dev/null

echo "=== query smoke ==="
# Tiny-parameter pass through the carve-by-query benchmark: the binary
# asserts the selective query plans onto the size index (never a full
# scan), indexed and forced-scan executions are byte-identical, and
# warm-cache replays of the sampled carve match bit for bit.
cargo run --release -q -p nc-bench --bin bench_query "$@" -- \
    --pop 400 --snapshots 3 --reps 2 --min-records 1 --min-speedup 1 \
    --out target/BENCH_query_smoke.json > /dev/null

echo "=== pprl smoke ==="
# Tiny-parameter pass through the PPRL encoding benchmark: CLK encode
# determinism (re-encode spot check), encoded-vs-plaintext scoring
# cost, and measured encoded-space blocking completeness — the binary
# asserts each gate and exits non-zero on any failure. The tiny store
# is cleaner than the 100k archive, so the blocker's default geometry
# is relaxed to keep the completeness gate meaningful.
cargo run --release -q -p nc-bench --bin bench_pprl "$@" -- \
    --pop 400 --snapshots 3 --reps 1 --min-records 1 \
    --bands 32 --band-bits 14 --max-cand-per-record 50 \
    --out target/BENCH_pprl_smoke.json > /dev/null

echo "=== pipeline smoke ==="
# The end-to-end benchmark's suite at its smallest scale: all four
# workloads (build_cold, refresh, serve_mix, detect_carved) run once
# and check their outputs — digests, byte-equal carves, clean replay.
# The binary exits non-zero unless every workload prints correct=true.
cargo run --release -q -p nc-pipeline-bench --bin bench_pipeline "$@" -- \
    --scale tiny --seconds 1 --runs 1 \
    --out target/pipeline_smoke.jsonl > /dev/null

echo "=== experiment drift ==="
# Every committed result is byte-reproducible, so all twelve are a
# check: regenerate them at the committed scale (the binary's defaults,
# ≈ 45 s) and compare to the byte. `table1`, `table2`, `updates` and
# `figure1` are import/dedup counts — the oracle for anything that
# touches the import step — and the rest pin scoring, analysis and
# detection. A change that moves a number has to say so by recommitting
# results/ and EXPERIMENTS.md.
cargo run --release -q -p nc-bench --bin experiments "$@" -- \
    all --out target/results_check > /dev/null
for committed in results/*.json; do
    cmp "target/results_check/$(basename "$committed")" "$committed"
done

echo "=== serve smoke ==="
# End-to-end smoke of the carving service on an ephemeral port:
# /healthz, a carved page (cold + cached), and a clean shutdown —
# the example exits non-zero if any of those fail.
cargo run --release -q -p nc-suite --example serve_datasets "$@" > /dev/null

echo "=== clippy ==="
./scripts/clippy_gate.sh "$@"

echo "=== ci green ==="
