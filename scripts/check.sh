#!/usr/bin/env bash
# Repository quality gate: formatting, lints (deny warnings), full tests.
# Run from anywhere; operates on the workspace containing this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test"
cargo test -q --workspace

echo "==> cargo doc --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> cargo test --doc"
cargo test -q --doc --workspace

echo "==> parallel equivalence (ANAHEIM_THREADS=1)"
ANAHEIM_THREADS=1 cargo test -q --test parallel_equivalence

echo "==> parallel equivalence (ANAHEIM_THREADS=8)"
ANAHEIM_THREADS=8 cargo test -q --test parallel_equivalence

# Pin the paper rings 2^14–2^16 bit-exact across thread counts and tuner
# profiles as well (release: these rings are too slow in debug).
echo "==> parallel equivalence, paper rings (release, --ignored)"
cargo test -q --release --test parallel_equivalence -- --ignored

echo "==> trace determinism (ANAHEIM_THREADS=1)"
ANAHEIM_THREADS=1 cargo test -q --test trace_determinism

echo "==> trace determinism (ANAHEIM_THREADS=8)"
ANAHEIM_THREADS=8 cargo test -q --test trace_determinism

echo "==> bench smoke (scripts/bench.sh --quick)"
scripts/bench.sh --quick

# Small-ring no-regression gate: below the paper's operating point the
# tuner must keep multi-thread rows from losing to the single-thread
# baseline (the pre-tuner hot path was up to 2.5x slower at n=1024 with 4
# threads). For every timed CKKS op at N <= 2^12, each multi-thread row's
# p50 must stay within SMALL_RING_MAX_RATIO of the 1-thread row, plus an
# absolute slack floor (5 µs) so ops in the tens-of-microseconds range
# aren't gated below the host's timing-noise floor — the regression this
# gate exists to catch was 2.5x, two orders of magnitude above the slack:
#   SMALL_RING_MAX_RATIO=1.10 SMALL_RING_SLACK_NS=8000 scripts/check.sh
echo "==> small-ring no-regression gate (BENCH_ckks.json)"
SMALL_RING_MAX_RATIO="${SMALL_RING_MAX_RATIO:-1.05}" \
SMALL_RING_SLACK_NS="${SMALL_RING_SLACK_NS:-5000}" \
python3 - <<'EOF'
import json, os, sys

ratio = float(os.environ["SMALL_RING_MAX_RATIO"])
slack = float(os.environ["SMALL_RING_SLACK_NS"])
with open("BENCH_ckks.json") as f:
    data = json.load(f)

def ns(r):
    return r.get("ns_per_op_p50", r["ns_per_op"])

base = {}
for r in data:
    if r["op"].startswith("sched_"):
        continue  # analytic model rows, no thread sweep
    if r["n"] <= 4096 and r["threads"] == 1:
        base[(r["op"], r["n"], r["limbs"])] = ns(r)

checked = 0
for r in data:
    if r["op"].startswith("sched_") or r["n"] > 4096 or r["threads"] == 1:
        continue
    key = (r["op"], r["n"], r["limbs"])
    if key not in base:
        sys.exit(f"BENCH_ckks.json: no 1-thread baseline for {key}")
    limit = max(base[key] * ratio, base[key] + slack)
    if ns(r) > limit:
        sys.exit(
            f"BENCH_ckks.json: {r['op']} n={r['n']} at {r['threads']} threads "
            f"regressed: {ns(r):.0f} ns vs 1-thread {base[key]:.0f} ns "
            f"(limit {limit:.0f} ns)"
        )
    checked += 1
if checked == 0:
    sys.exit("BENCH_ckks.json: small-ring gate matched no rows")
print(f"  {checked} multi-thread small-ring rows within {ratio}x (+{slack:.0f} ns) — ok")
EOF

echo "==> serving chaos soak (scripts/soak.sh --quick)"
scripts/soak.sh --quick

# Streaming fleet soak: the million-request memory-boundedness and
# determinism gate. Runs the sharded streaming soak twice — once per
# ANAHEIM_THREADS setting — under a peak-RSS budget (VmHWM, enforced by
# the binary) and byte-compares the per-shard snapshot text. Override
# the request count or budget via the environment for quicker local runs:
#   STREAM_SOAK_REQUESTS=50000 STREAM_SOAK_RSS_BUDGET_KB=65536 scripts/check.sh
STREAM_SOAK_REQUESTS="${STREAM_SOAK_REQUESTS:-1000000}"
STREAM_SOAK_RSS_BUDGET_KB="${STREAM_SOAK_RSS_BUDGET_KB:-262144}"
echo "==> streaming fleet soak ($STREAM_SOAK_REQUESTS requests, RSS budget ${STREAM_SOAK_RSS_BUDGET_KB} kB)"
snap_dir="$(mktemp -d)"
trap 'rm -rf "$snap_dir"' EXIT
for threads in 1 8; do
  echo "==> streaming fleet soak (ANAHEIM_THREADS=$threads)"
  ANAHEIM_THREADS="$threads" ./target/release/soak --stream \
    --requests "$STREAM_SOAK_REQUESTS" \
    --rss-budget-kb "$STREAM_SOAK_RSS_BUDGET_KB" \
    --snapshot-out "$snap_dir/snap-t$threads.txt"
done
if cmp -s "$snap_dir/snap-t1.txt" "$snap_dir/snap-t8.txt"; then
  echo "  per-shard snapshots byte-identical across ANAHEIM_THREADS=1/8 — ok"
else
  echo "FAIL: streaming soak snapshots differ across thread counts" >&2
  diff "$snap_dir/snap-t1.txt" "$snap_dir/snap-t8.txt" | head -20 >&2
  exit 1
fi

# Hedge-chaos gate: the GPU fault domain (stream stalls + transfer
# bit-flips) with deadline-budget cancellation and hedged re-execution on.
# The soak binary's streaming invariants already enforce exactly-one
# outcome per request, >=1 hedge launch/win, and >=1 cancellation under
# this config; here we additionally byte-compare the snapshot across
# thread counts and independently grep the artifact for nonzero hedge
# wins and cancellations, so a silently-neutered scenario cannot pass.
#   HEDGE_SOAK_REQUESTS=5000 scripts/check.sh
HEDGE_SOAK_REQUESTS="${HEDGE_SOAK_REQUESTS:-20000}"
echo "==> hedge-chaos streaming soak ($HEDGE_SOAK_REQUESTS requests)"
for threads in 1 8; do
  echo "==> hedge-chaos streaming soak (ANAHEIM_THREADS=$threads)"
  ANAHEIM_THREADS="$threads" ./target/release/soak --stream --hedge \
    --requests "$HEDGE_SOAK_REQUESTS" \
    --rss-budget-kb "$STREAM_SOAK_RSS_BUDGET_KB" \
    --snapshot-out "$snap_dir/hedge-t$threads.txt"
done
if cmp -s "$snap_dir/hedge-t1.txt" "$snap_dir/hedge-t8.txt"; then
  echo "  hedge-chaos snapshots byte-identical across ANAHEIM_THREADS=1/8 — ok"
else
  echo "FAIL: hedge-chaos snapshots differ across thread counts" >&2
  diff "$snap_dir/hedge-t1.txt" "$snap_dir/hedge-t8.txt" | head -20 >&2
  exit 1
fi
if ! grep -Eq 'hedges-won=[1-9]' "$snap_dir/hedge-t1.txt"; then
  echo "FAIL: hedge-chaos soak recorded zero hedge wins" >&2
  exit 1
fi
if ! grep -Eq 'cancelled=[1-9]' "$snap_dir/hedge-t1.txt"; then
  echo "FAIL: hedge-chaos soak recorded zero over-budget cancellations" >&2
  exit 1
fi
echo "  hedge wins and over-budget cancellations present in the snapshot — ok"

echo "==> pipelined schedule gate (BENCH_ckks.json / BENCH_pim.json)"
python3 - <<'EOF'
import json, sys

def rows(path):
    with open(path) as f:
        data = json.load(f)
    out = {}
    for r in data:
        if r["op"].startswith("sched_boot_"):
            out[r["op"].removeprefix("sched_boot_")] = r
    for mode in ("serial", "pipelined"):
        if mode not in out:
            sys.exit(f"{path}: missing sched_boot_{mode} row")
    return out

for path, bytes_key in (
    ("BENCH_ckks.json", "gpu_dram_bytes"),
    ("BENCH_pim.json", "pim_dram_bytes"),
):
    r = rows(path)
    s, p = r["serial"], r["pipelined"]
    # Work conservation: pipelining reorders virtual time, never work.
    for key in (bytes_key, "transitions", "segments"):
        if s[key] != p[key]:
            sys.exit(f"{path}: {key} differs between modes ({s[key]} vs {p[key]})")
    if s["overlap_ns"] != 0:
        sys.exit(f"{path}: serial mode reported overlap {s['overlap_ns']}")
    speedup = s["ns_per_op"] / p["ns_per_op"]
    if not 1.0 < speedup <= 1.35:
        sys.exit(f"{path}: pipelined Bootstrap speedup {speedup:.4f} outside (1.0, 1.35]")
    print(f"  {path}: speedup {speedup:.4f}x, overlap {p['overlap_ns']/1e6:.3f} ms — ok")
EOF

# Batched-fleet gate: same-tenant batch serving over the two-shard fleet.
# The soak binary's streaming invariants already require >=1 amortized
# evaluation-key fetch and that the saved bytes reconcile with the
# per-shard hit bytes; here we additionally byte-compare the snapshot
# across thread counts and independently grep the artifact for a nonzero
# saving, so a silently-disabled batcher cannot pass.
#   BATCH_SOAK_REQUESTS=2000 scripts/check.sh
BATCH_SOAK_REQUESTS="${BATCH_SOAK_REQUESTS:-20000}"
echo "==> batched-fleet streaming soak ($BATCH_SOAK_REQUESTS requests)"
for threads in 1 8; do
  echo "==> batched-fleet streaming soak (ANAHEIM_THREADS=$threads)"
  ANAHEIM_THREADS="$threads" ./target/release/soak --stream --batch \
    --requests "$BATCH_SOAK_REQUESTS" \
    --rss-budget-kb "$STREAM_SOAK_RSS_BUDGET_KB" \
    --snapshot-out "$snap_dir/batch-t$threads.txt"
done
if cmp -s "$snap_dir/batch-t1.txt" "$snap_dir/batch-t8.txt"; then
  echo "  batched-fleet snapshots byte-identical across ANAHEIM_THREADS=1/8 — ok"
else
  echo "FAIL: batched-fleet snapshots differ across thread counts" >&2
  diff "$snap_dir/batch-t1.txt" "$snap_dir/batch-t8.txt" | head -20 >&2
  exit 1
fi
if ! grep -Eq 'saved-bytes=[1-9]' "$snap_dir/batch-t1.txt"; then
  echo "FAIL: batched-fleet soak amortized zero evaluation-key bytes" >&2
  exit 1
fi
echo "  evaluation-key bytes amortized in the snapshot — ok"

# Ordered-fleet gate: batch-aware dispatch ordering over the batched-fleet
# trace. The soak binary's streaming invariants already require >=1
# reorder and a nonzero lane credit; here we additionally byte-compare the
# snapshot across thread counts and grep the artifact for committed
# reorders, so a silently-disabled orderer cannot pass. The JSON gate
# below then compares the ordered-fleet row against the batched-fleet row.
#   ORDERED_SOAK_REQUESTS=2000 scripts/check.sh
ORDERED_SOAK_REQUESTS="${ORDERED_SOAK_REQUESTS:-20000}"
echo "==> ordered-fleet streaming soak ($ORDERED_SOAK_REQUESTS requests)"
for threads in 1 8; do
  echo "==> ordered-fleet streaming soak (ANAHEIM_THREADS=$threads)"
  ANAHEIM_THREADS="$threads" ./target/release/soak --stream --ordered \
    --requests "$ORDERED_SOAK_REQUESTS" \
    --rss-budget-kb "$STREAM_SOAK_RSS_BUDGET_KB" \
    --snapshot-out "$snap_dir/ordered-t$threads.txt"
done
if cmp -s "$snap_dir/ordered-t1.txt" "$snap_dir/ordered-t8.txt"; then
  echo "  ordered-fleet snapshots byte-identical across ANAHEIM_THREADS=1/8 — ok"
else
  echo "FAIL: ordered-fleet snapshots differ across thread counts" >&2
  diff "$snap_dir/ordered-t1.txt" "$snap_dir/ordered-t8.txt" | head -20 >&2
  exit 1
fi
if ! grep -Eq 'reorders=[1-9]' "$snap_dir/ordered-t1.txt"; then
  echo "FAIL: ordered-fleet soak committed zero reorders" >&2
  exit 1
fi
echo "  committed reorders present in the snapshot — ok"

# Evaluation-key traffic conservation gate (docs/KEYS.md): on every BENCH
# row carrying the evk split, cached plus missed bytes must equal the
# uncached total — the cache model reclassifies traffic, it never
# invents or loses bytes. The MinKS row must amortize something (that is
# the point of the single shared key), and the batched-fleet serving row's
# saved bytes must equal its hit bytes. The ordered-fleet row must convert
# the bytes it saves into a virtual-time win: at least as many bytes
# amortized as the plain overlay, strictly higher virtual_rps, and no new
# deadline misses.
echo "==> evaluation-key conservation gate (BENCH_ckks.json / BENCH_serving.json)"
python3 - <<'EOF'
import json, sys

with open("BENCH_ckks.json") as f:
    ckks = json.load(f)
rows = [r for r in ckks if "evk_uncached_bytes" in r]
if not any(r["op"].startswith("sched_evk_boot_") for r in rows):
    sys.exit("BENCH_ckks.json: no sched_evk_boot_* rows")
for r in rows:
    hit, miss, total = r["evk_hit_bytes"], r["evk_miss_bytes"], r["evk_uncached_bytes"]
    if hit + miss != total:
        sys.exit(
            f"BENCH_ckks.json: {r['op']}: hit {hit} + miss {miss} != uncached {total}"
        )
minks = [r for r in rows if r["op"] == "sched_evk_lintrans_minks"]
if not minks or minks[0]["evk_hit_bytes"] == 0:
    sys.exit("BENCH_ckks.json: MinKS row amortized nothing")
print(f"  {len(rows)} evk rows conserve bytes; MinKS amortized "
      f"{minks[0]['evk_hit_bytes']/1e6:.1f} MB — ok")

with open("BENCH_serving.json") as f:
    serving = json.load(f)
batched = [r for r in serving if r["scenario"] == "batched-fleet"]
if not batched:
    sys.exit("BENCH_serving.json: no batched-fleet row")
b = batched[0]
if b["evk_bytes_saved"] == 0:
    sys.exit("BENCH_serving.json: batched-fleet saved zero evk bytes")
if b["evk_bytes_saved"] != b["evk_hit_bytes"]:
    sys.exit(
        f"BENCH_serving.json: saved {b['evk_bytes_saved']} != hit {b['evk_hit_bytes']}"
    )
if b["evk_miss_bytes"] == 0:
    sys.exit("BENCH_serving.json: batch heads paid no fetches?")
print(f"  batched-fleet saved {b['evk_bytes_saved']/1e9:.1f} GB over "
      f"{b['batches']} batches, saved == hit — ok")

ordered = [r for r in serving if r["scenario"] == "ordered-fleet"]
if not ordered:
    sys.exit("BENCH_serving.json: no ordered-fleet row")
o = ordered[0]
if o["reorders"] == 0:
    sys.exit("BENCH_serving.json: ordered-fleet committed zero reorders")
if o["evk_saved_ns"] <= 0:
    sys.exit("BENCH_serving.json: ordered-fleet credited zero lane time")
if o["evk_bytes_saved"] < b["evk_bytes_saved"]:
    sys.exit(
        f"BENCH_serving.json: ordering amortized fewer bytes than the overlay "
        f"({o['evk_bytes_saved']} < {b['evk_bytes_saved']})"
    )
if o["virtual_rps"] <= b["virtual_rps"]:
    sys.exit(
        f"BENCH_serving.json: ordered-fleet virtual_rps {o['virtual_rps']} "
        f"does not beat batched-fleet {b['virtual_rps']}"
    )
if o["deadline_misses"] > b["deadline_misses"]:
    sys.exit(
        f"BENCH_serving.json: ordering minted deadline misses "
        f"({o['deadline_misses']} > {b['deadline_misses']})"
    )
print(f"  ordered-fleet: {o['reorders']} reorders ({o['reorder_denied_slack']} denied), "
      f"{o['evk_saved_ns']/1e6:.1f} ms credited, virtual_rps {o['virtual_rps']} > "
      f"{b['virtual_rps']}, misses {o['deadline_misses']} <= {b['deadline_misses']} — ok")
EOF

# Documentation integrity gate: every relative markdown link resolves, and
# every telemetry metric name declared in `core::telemetry::names` is
# documented in docs/METRICS.md — new metrics cannot land undocumented.
echo "==> documentation integrity gate (markdown links + metric names)"
python3 - <<'EOF'
import os, re, sys

docs = ["README.md", "DESIGN.md", "ROADMAP.md", "PAPER.md", "EXPERIMENTS.md"]
docs += [os.path.join("docs", f) for f in sorted(os.listdir("docs")) if f.endswith(".md")]
bad = []
checked = 0
for doc in docs:
    if not os.path.exists(doc):
        continue
    text = open(doc).read()
    # Strip fenced code blocks: links there are illustrative, not navigation.
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    for target in re.findall(r"\]\(([^)#]+?)(?:#[^)]*)?\)", text):
        if re.match(r"[a-z+]+:", target):  # http:, https:, mailto:
            continue
        path = os.path.normpath(os.path.join(os.path.dirname(doc), target))
        checked += 1
        if not os.path.exists(path):
            bad.append(f"{doc}: broken link -> {target}")
if bad:
    sys.exit("\n".join(bad))
print(f"  {checked} relative links resolve — ok")

names = set(
    re.findall(r'"(anaheim_[a-z_]+)"', open("crates/core/src/telemetry.rs").read())
)
metrics_doc = open("docs/METRICS.md").read()
missing = sorted(n for n in names if n not in metrics_doc)
if missing:
    sys.exit("docs/METRICS.md: undocumented metrics: " + ", ".join(missing))
print(f"  {len(names)} telemetry metric names documented in docs/METRICS.md — ok")
EOF

echo "All checks passed."
