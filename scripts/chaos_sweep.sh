#!/usr/bin/env bash
# Syscall-fault sweep: runs every crash/fault test (docstore save and
# shard engine syscall sweeps, the FaultVfs unit tests), then
# `scripts/bench.sh faults` — a full crash-at-every-syscall sweep plus
# seeded random chaos at the committed report's parameters — which
# rewrites BENCH_faults.json in the repo root. Any extra arguments are
# passed to every cargo test invocation.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== shard syscall sweep ==="
cargo test -q -p nc-shard --test syscall_sweep "$@"

echo "=== docstore save syscall sweep ==="
cargo test -q -p nc-docstore --test syscall_sweep "$@"

echo "=== fault vfs unit tests ==="
cargo test -q -p nc-vfs "$@"

echo "=== crash sweep + chaos bench ==="
exec scripts/bench.sh faults
