#!/usr/bin/env bash
# Chaos-soak driver for the serving layer.
#
# Builds the `soak` binary in release mode and replays a seeded fault
# schedule over a mixed-workload trace, checking the serving invariants
# (no panics, no deadline-expired request reported Ok, typed sheds,
# bounded queue) and — with --threads-check — that every response, the
# per-shard health snapshots and breaker transition logs, and the
# snapshot text are bit-identical across ANAHEIM_THREADS settings.
# Every scenario streams: the trace is generated lazily and served
# through the sharded fleet, responses checked and dropped as produced.
#
# Usage: scripts/soak.sh [--quick] [--requests N] [--seed S] [--threads-check]
#                        [--stream] [--hedge] [--batch] [--ordered] [--shards N]
#                        [--snapshot-out FILE] [--trace-out FILE]
#                        [--metrics-out FILE] [--rss-budget-kb N]
#   --quick   200-request single-engine chaos soak (a one-shard fleet) with
#             the determinism check; finishes in seconds (what
#             scripts/check.sh runs)
#   --stream  fleet chaos soak: four shards, rendezvous-hash routing with
#             replica failover and a shard storm. --snapshot-out writes the
#             deterministic per-shard snapshot text (the artifact
#             scripts/check.sh byte-compares across ANAHEIM_THREADS);
#             --rss-budget-kb fails the run if peak RSS (VmHWM) exceeds
#             the budget. All flags forward to the soak binary.
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

args=("$@")
for a in "${args[@]:-}"; do
  if [[ "$a" == "--quick" ]]; then
    args+=(--threads-check)
    break
  fi
done

echo "==> cargo build --release -p serving --bin soak"
cargo build --release -q -p serving --bin soak

echo "==> soak ${args[*]:-}"
./target/release/soak "${args[@]:-}"
