#!/usr/bin/env bash
# Syscall-fault sweep: runs every crash/fault test (docstore save and
# shard engine syscall sweeps, the FaultVfs unit tests), then the
# bench_faults binary — a full crash-at-every-syscall sweep plus seeded
# random chaos — and writes BENCH_faults.json in the repo root. Any
# extra arguments are passed to every cargo invocation.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== shard syscall sweep ==="
cargo test -q -p nc-shard --test syscall_sweep "$@"

echo "=== docstore save syscall sweep ==="
cargo test -q -p nc-docstore --test syscall_sweep "$@"

echo "=== fault vfs unit tests ==="
cargo test -q -p nc-vfs "$@"

echo "=== crash sweep + chaos bench ==="
cargo build --release -p nc-bench --bin bench_faults "$@"
exec target/release/bench_faults --out BENCH_faults.json
