#!/usr/bin/env bash
# Run one single-layer benchmark and write its report:
#
#   ./scripts/bench.sh NAME [ARGS...]
#
# NAME is one of detect, faults, pprl, query, scoring, serve, shard,
# stream. This builds the release binary bench_NAME and runs it with
# --out BENCH_NAME.json in the repo root, then ARGS. Each binary's
# defaults are the parameters and gates of its committed report, so a
# run without ARGS reproduces that report; ARGS override them (e.g.
# `./scripts/bench.sh shard --pop 5000 --shards 8`, or `--out FILE` to
# leave the committed report alone). The binary writes its report, then
# exits non-zero naming every gate that failed.
set -euo pipefail
cd "$(dirname "$0")/.."

name=${1:?usage: scripts/bench.sh NAME [ARGS...]}
shift
if [ ! -f "crates/bench/src/bin/bench_$name.rs" ]; then
    echo "no benchmark named '$name'; one of:" \
        $(cd crates/bench/src/bin && ls bench_*.rs | sed 's/^bench_//; s/\.rs$//') >&2
    exit 2
fi
cargo build --release -q -p nc-bench --bin "bench_$name"
exec "target/release/bench_$name" --out "BENCH_$name.json" "$@"
