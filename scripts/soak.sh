#!/usr/bin/env bash
# Chaos-soak driver for the serving layer.
#
# Builds the `soak` binary in release mode and replays a seeded fault
# schedule over a mixed-workload trace, checking the serving invariants
# (no panics, no deadline-expired request reported Ok, typed sheds,
# bounded queue). Every scenario streams: the trace is generated lazily
# and served through the sharded fleet, responses checked and dropped as
# produced. That the outcome is the same at every ANAHEIM_THREADS value is
# checked by tests/serving_soak.rs and by scripts/check.sh, which
# byte-compares the fleet soaks' snapshots at 1 and 8 threads.
#
# Usage: scripts/soak.sh [--quick] [--requests N] [--seed S]
#                        [--stream] [--hedge] [--batch] [--ordered] [--shards N]
#                        [--snapshot-out FILE] [--trace-out FILE]
#                        [--metrics-out FILE] [--rss-budget-kb N]
#   --quick   200-request single-engine chaos soak (a one-shard fleet);
#             finishes in seconds (what scripts/check.sh runs)
#   --stream  fleet chaos soak: four shards, rendezvous-hash routing with
#             replica failover and a shard storm. --snapshot-out writes the
#             deterministic per-shard snapshot text (the artifact
#             scripts/check.sh byte-compares across ANAHEIM_THREADS);
#             --trace-out and --metrics-out record telemetry and write it
#             (without them the soak records none); --rss-budget-kb fails
#             the run if peak RSS (VmHWM) exceeds the budget. All flags
#             forward to the soak binary.
#   --hedge   (with --stream) hedge-chaos scenario: GPU stream stalls and
#             transfer bit-flips on top of the fleet storm, with
#             deadline-budget cancellation and hedged re-execution on.
#             The invariants then also require >=1 hedge launch, >=1
#             hedge win, and >=1 over-budget cancellation.
#   --batch   (with --stream) batched-fleet scenario: same-tenant batch
#             serving on a small tenant pool; composes with --hedge into
#             the batch+hedge storm.
#   --ordered (with --stream) ordered-fleet scenario: batch-aware dispatch
#             ordering forms same-tenant runs under the slack budget and
#             credits saved evk fetches back to the lanes as virtual time.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release -p serving --bin soak"
cargo build --release -q -p serving --bin soak

echo "==> soak $*"
./target/release/soak "$@"
