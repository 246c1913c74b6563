"""Tests of the benchmark's declaration and of its exact outputs.

    python3 -m unittest discover -s perfbench/tests -v

The declaration tests read ``BENCHMARK.json`` and the binary's metric
registry. The reproduction tests build the binary, make shortened runs of
every workload at parpool widths 1 and 2, and require every exact output
to repeat bit for bit.
"""

import json
import os
import pathlib
import re
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

_binary = None


def binary():
    global _binary
    if _binary is None:
        _binary = run.build()
        assert _binary is not None, "the benchmark does not build"
    return _binary


def exact_outputs(workload, seed, trace, threads, seconds=0.5):
    env = dict(os.environ, ANAHEIM_THREADS=str(threads))
    r = subprocess.run(
        [str(binary()), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--out", str(run.HERE / "out")],
        env=env, stdout=subprocess.PIPE, text=True, timeout=170)
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert r.returncode == 0 and result["correct"], result.get("errors")
    return result["exact"]


class Declaration(unittest.TestCase):
    def metrics(self):
        return SPEC["end_to_end"] + SPEC["per_layer"]

    def test_names_are_valid_and_unique(self):
        names = [m["name"] for m in self.metrics()]
        names += [w["name"] for w in SPEC["workloads"]]
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_counts_fit(self):
        self.assertLessEqual(len(SPEC["end_to_end"]), 16)
        self.assertLessEqual(len(SPEC["per_layer"]), 128)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)

    def test_every_metric_declares_unit_and_direction(self):
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in self.metrics():
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))

    def test_setup_has_the_largest_bound(self):
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))

    def test_binary_registry_matches(self):
        errors = run.check_registry(run.registry(binary()), run.declared())
        self.assertEqual(errors, [])

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], run.WORKLOADS)


class ShortenedRunsReproduceExactOutputs(unittest.TestCase):
    def check(self, workload, trace, seed=5):
        one = exact_outputs(workload, seed, trace, threads=1)
        two = exact_outputs(workload, seed, trace, threads=2)
        self.assertTrue(one)
        self.assertEqual(one, two)

    def test_sim_paper(self):
        self.check("sim-paper", 0)
        self.check("sim-paper", 1)

    def test_fleet_chaos(self):
        self.check("fleet-chaos", 0)
        self.check("fleet-chaos", 1)

    def test_fhe_ckks(self):
        self.check("fhe-ckks", 1)

    def test_exact_outputs_follow_the_seed(self):
        a = exact_outputs("fleet-chaos", 5, 0, threads=2)
        b = exact_outputs("fleet-chaos", 6, 0, threads=2)
        self.assertNotEqual(a, b)


class ResultLine(unittest.TestCase):
    """The command's last line holds exactly the contract's keys and every
    metric of the mode, whichever workload ran."""

    def check(self, workload, trace):
        env = dict(os.environ, CARGO_TARGET_DIR=str(run.target_dir()))
        r = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            env=env, stdout=subprocess.PIPE, text=True, timeout=170)
        self.assertEqual(r.returncode, 0)
        result = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        section = "per_layer" if trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)

    def test_every_workload_reports_every_end_to_end_metric(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, 0)

    def test_traced_runs_report_every_per_layer_metric(self):
        for w in ("sim-paper", "fleet-chaos"):
            with self.subTest(workload=w):
                self.check(w, 1)


if __name__ == "__main__":
    unittest.main()
