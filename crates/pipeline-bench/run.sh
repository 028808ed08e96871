#!/usr/bin/env bash
# The one entry command of the end-to-end benchmark: builds
# `bench_pipeline` from source, then hands it the arguments.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1   one run (the benchmark contract)
#   run.sh [--seed N] [--runs N] [--out FILE]              the suite: every metric by name
#   run.sh --trace [...]                                   the suite plus one traced run each
#   run.sh compare A B                                     judge result set B against A
#
# Everything is read and written inside the checkout: build output and
# the benchmark's temp state go under $CARGO_TARGET_DIR (default target/).
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
cd "$root"
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-target}

# No registry is reachable from the sandbox, so the external crates the
# nc-* crates name resolve to the repo's own offline stand-ins, patched in
# by absolute path (the committed .verify/patch.toml pins /root/repo).
config=()
if [ -d .verify/stubs ]; then
    mkdir -p "$CARGO_TARGET_DIR/pipeline-bench"
    patch="$CARGO_TARGET_DIR/pipeline-bench/offline-patch.toml"
    {
        echo "[patch.crates-io]"
        for stub in .verify/stubs/*/; do
            name=$(basename "$stub")
            echo "$name = { path = \"$root/.verify/stubs/$name\" }"
        done
    } > "$patch"
    config=(--config "$patch")
fi

cargo build --offline ${config[@]+"${config[@]}"} --release -p nc-pipeline-bench --bin bench_pipeline >&2
exec "$CARGO_TARGET_DIR/release/bench_pipeline" "$@"
