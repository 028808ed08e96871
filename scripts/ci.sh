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

echo "=== vfs gate ==="
# The crash sweeps can only crash a syscall that goes through a `Vfs`:
# the durable write paths — the one atomic replace in
# nc-docstore's persist.rs, the shard WAL, its recovery and the engine
# wipe, the stream cursor — issue no mutating syscall of their own.
# Non-test code only: each file's lines before its first `#[cfg(test)]`.
bypass=$(awk '/^#\[cfg\(test\)\]/ { nextfile } { print FILENAME ":" FNR ": " $0 }' \
        crates/shard/src/*.rs crates/stream/src/*.rs crates/docstore/src/persist.rs |
    grep -E 'fs::(remove_file|rename|write)|File::create|OpenOptions|set_len|(^|[^.])create_dir_all|sync_all' || true)
if [ -n "$bypass" ]; then
    echo "a mutating syscall outside the Vfs:" >&2
    echo "$bypass" >&2
    exit 1
fi

echo "=== lock gate ==="
# A package with a `source` came from a registry or a git remote; the
# lock file names workspace crates only.
if grep -n '^source = ' Cargo.lock >&2; then
    echo "Cargo.lock names a package from outside the workspace" >&2
    exit 1
fi

echo "=== lines per crate ==="
# Lines per crate is a tracked number (ROADMAP aim 2): DESIGN.md §3 gives
# each crate's git-tracked `*.rs` line count, tests included, and a row
# that no longer matches the code fails here.
drift=0
for dir in crates/*/; do
    name=$(basename "$dir")
    counted=$(git ls-files -z "crates/$name/*.rs" | xargs -0 -r cat | wc -l)
    listed=$(grep "^| \`crates/$name\` " DESIGN.md | awk -F'|' '{ gsub(/ /, "", $(NF-1)); print $(NF-1) }' || true)
    if [ "$listed" != "$counted" ]; then
        echo "DESIGN.md §3 lists crates/$name at '${listed}' lines; its *.rs files have $counted" >&2
        drift=1
    fi
done
if [ "$drift" -ne 0 ]; then
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
    -p nc-shard -p nc-similarity -p nc-votergen "$@" -- --ignored

echo "=== bench smokes ==="
# Every single-layer benchmark at tiny parameters: each binary checks
# its outputs (bit-identical parallel / incremental / cached / replayed
# results, clean recovery, the plans and gates its report records),
# writes its report, and exits non-zero naming any check that failed.
smoke() {
    local name=$1
    shift
    echo "--- $name"
    cargo run --release -q -p nc-bench --bin "bench_$name" ${cargo_args[@]+"${cargo_args[@]}"} -- \
        "$@" --out "target/BENCH_${name}_smoke.json" > /dev/null
}
cargo_args=("$@")
smoke scoring --pop 200 --snapshots 3 --reps 1
smoke serve --pop 200 --snapshots 3 --reps 1
smoke shard --pop 200 --snapshots 3 --shards 3 --reps 1
# The 1%-churn speedup gate is the committed run's; at 300 voters the
# scoring pass is too short for a ratio to mean anything.
smoke stream --pop 300 --snapshots 2 --shards 2 --reps 1 --publishes 1 --min-speedup 0
smoke detect --scales 2000,4000 --pop 1000
# Crash the shard engine's commit sequence at every 5th mutating syscall.
smoke faults --pop 100 --stride 5 --chaos-runs 12
smoke query --pop 400 --snapshots 3 --reps 2 --min-records 1
# The tiny store is cleaner than the 100k archive, so the blocker's
# default geometry is relaxed to keep the completeness gate meaningful.
smoke pprl --pop 400 --snapshots 3 --reps 1 --min-records 1 \
    --bands 32 --band-bits 14 --max-cand-per-record 50

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
# /healthz, a carved page (cold + cached), an `encode=clk` carve and a
# JSON query carve (each held to an in-process engine's record count),
# and a clean shutdown — the example exits non-zero if any of those fail.
cargo run --release -q -p nc-suite --example serve_datasets "$@" > /dev/null

echo "=== clippy ==="
./scripts/clippy_gate.sh "$@"

echo "=== ci green ==="
