#!/usr/bin/env bash
# Microbenchmark driver for the limb-parallel hot path.
#
# Builds the `bench_json` binary in release mode and runs it from the repo
# root so BENCH_ckks.json / BENCH_pim.json / BENCH_serving.json land next
# to this script's parent.
#
# Usage: scripts/bench.sh [--quick]
#   --quick   small parameters + short thread sweep (CI smoke test)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release -p anaheim-bench --bin bench_json"
cargo build --release -q -p anaheim-bench --bin bench_json

echo "==> bench_json $*"
./target/release/bench_json "$@"
