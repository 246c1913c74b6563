#!/usr/bin/env python3
"""Runs the Anaheim reproduction's benchmark.

    python3 perfbench/run.py --workload <fhe-ckks|sim-paper|fleet-chaos|all>
                             --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark binary (``perfbench/Cargo.toml``, release profile,
offline) into ``$CARGO_TARGET_DIR`` (default ``.bench_build``), runs one
workload per process with the parpool width fixed to
``ANAHEIM_THREADS = min(2, nproc)``, validates its metrics against
``BENCHMARK.json``, and prints one line per metric (workload, name, value,
unit, direction, samples and quartiles) and per exact output, followed by
the result as one JSON object on the last line. Every workload reports every
metric of its mode, each for its own operation. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics and writes the spans
to ``perfbench/out/``.

Exact outputs (model outputs, counts, precision) must repeat bit for bit:
each run's are remembered per (binary, workload, seed, trace) under the
target directory, and a later run that disagrees is a failure.

Exit status: 0 when every output was correct; 1 on a wrong output, a failed
build or a result that does not match ``BENCHMARK.json``; 2 on bad usage.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["fhe-ckks", "sim-paper", "fleet-chaos"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
THREADS = min(2, os.cpu_count() or 1)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def target_dir():
    d = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Builds the binary; returns its path, or None when the build fails."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if r.returncode != 0:
        log("build failed:\n" + r.stdout[-4000:])
        return None
    return target_dir() / "release" / "anaheim-perfbench"


def declared():
    """BENCHMARK.json's metrics: name -> (unit, better, section)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {}
    for section in ("end_to_end", "per_layer"):
        for m in spec[section]:
            out[m["name"]] = (m["unit"], m["better"], section)
    return out


def registry(binary):
    """The binary's metric registry: name -> (unit, better, section)."""
    r = subprocess.run([str(binary), "--list-metrics"], stdout=subprocess.PIPE,
                       text=True, check=True, timeout=60)
    out = {}
    for line in r.stdout.splitlines():
        name, unit, better, section = line.split("\t")
        out[name] = (unit, better, section)
    return out


def check_registry(reg, decl):
    """Errors where the binary and BENCHMARK.json disagree."""
    errors = []
    for name in sorted(set(reg) | set(decl)):
        if name not in decl:
            errors.append(f"{name} is reported but not in BENCHMARK.json")
        elif name not in reg:
            errors.append(f"{name} is in BENCHMARK.json but never reported")
        elif reg[name] != decl[name]:
            errors.append(f"{name}: unit/direction/section {reg[name]} "
                          f"!= BENCHMARK.json {decl[name]}")
    return errors


def run_workload(binary, workload, args):
    env = dict(os.environ, ANAHEIM_THREADS=str(THREADS))
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(HERE / "out")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return None
    lines = r.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"{workload} {line}")
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"{workload}: exited {r.returncode} without a result")
        return None


def remember_exact(binary, workload, args, result):
    """Compares the run's exact outputs with an earlier run of the same
    binary, workload, seed and mode; returns the mismatches."""
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    store = target_dir() / "perfbench-exact"
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"{digest}-{workload}-{args.seed}-{args.trace}.json"
    exact = result["exact"]
    if not path.exists():
        path.write_text(json.dumps(exact, sort_keys=True))
        return []
    before = json.loads(path.read_text())
    return [f"{workload} {k}: {exact.get(k)!r} != earlier {v!r}"
            for k, v in sorted(before.items()) if exact.get(k) != v]


def print_metrics(workload, result):
    for name, m in result["metrics"].items():
        spread = ""
        if "samples" in m:
            spread = (f"  [n={m['samples']} q1={m['q1']:.6g} "
                      f"q3={m['q3']:.6g}]")
        print(f"{workload:<12} {name:<42} {m['value']:>14.6g} "
              f"{m['unit']:<14} {m['better']} is better{spread}")
    for name, v in result["exact"].items():
        print(f"{workload:<12} {name:<42} {v:>14.6g} (exact)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("seed must be >= 0 and seconds > 0")

    started = time.monotonic()
    binary = build()
    if binary is None:
        return 1
    log(f"built in {time.monotonic() - started:.1f} s")
    decl = declared()
    reg = registry(binary)
    errors = check_registry(reg, decl)
    if errors:
        for e in errors:
            log(e)
        return 1
    section = "per_layer" if args.trace else "end_to_end"

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    attempted = failed = 0
    correct = True
    metrics = {}
    for w in workloads:
        result = run_workload(binary, w, args)
        if result is None:
            return 1
        want = {n for n, r in reg.items() if r[2] == section}
        got = set(result["metrics"])
        problems = [f"{w}: metric {n} missing" for n in sorted(want - got)]
        problems += [f"{w}: metric {n} unexpected" for n in sorted(got - want)]
        problems += remember_exact(binary, w, args, result)
        for p in problems + result.get("errors", []):
            log(p)
        print_metrics(w, result)
        print(f"{w:<12} provenance "
              + json.dumps(result["provenance"], sort_keys=True))
        attempted += result["attempted"]
        failed += result["failed"] + len(problems)
        correct = correct and result["correct"] and not problems
        for name, m in result["metrics"].items():
            key = name if len(workloads) == 1 else f"{w}:{name}"
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
