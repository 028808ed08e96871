#!/usr/bin/env bash
# Build + test in the network-less container using the .verify stubs.
# Every test passes under the stubs: a non-zero exit status is a
# regression (see .verify/README.md for what each stub stands in for).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo --offline --config .verify/patch.toml build --release --workspace
cargo --offline --config .verify/patch.toml test -q --workspace --no-fail-fast
