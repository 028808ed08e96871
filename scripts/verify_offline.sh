#!/usr/bin/env bash
# Build + test in the network-less container, with the .verify stubs
# standing in for the two dev-only crates (proptest, criterion; see
# .verify/README.md). Every test passes: a non-zero exit status is a
# regression.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo --offline --config .verify/patch.toml build --release --workspace
cargo --offline --config .verify/patch.toml test -q --workspace --no-fail-fast
