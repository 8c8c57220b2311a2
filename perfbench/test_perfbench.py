#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the simulator).

    python3 perfbench/test_perfbench.py

They drive run.py on the first few jobs of each workload, so they take
well under a minute once the binary is built.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
import run as run_py  # noqa: E402


def run(*args):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                         cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, timeout=900)
    return out.returncode, out.stdout.splitlines()


def digest(lines):
    for line in lines:
        m = re.match(r"digest \S+: ([0-9a-f]+) ", line)
        if m:
            return m.group(1)
    raise AssertionError("no digest line")


class MetricsTest(unittest.TestCase):
    def check(self, trace, declared):
        rc, lines = run("--workload", "campaign-short", "--seed", "1",
                        "--seconds", "1", "--max-jobs", "6",
                        "--trace", str(trace))
        self.assertEqual(rc, 0)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            # And in the human-readable report, by name with its unit.
            self.assertTrue(any(re.match(rf"{re.escape(m['name'])}\s+\S+ "
                                         rf"{re.escape(m['unit'])}$", line)
                                for line in lines[:-1]), m["name"])

    def test_end_to_end_metrics_have_units(self):
        self.check(0, BENCH["end_to_end"])

    def test_per_layer_metrics_have_units(self):
        self.check(1, BENCH["per_layer"])

    def test_reported_metrics_have_units(self):
        _, lines = run("--workload", "fig13-sweep", "--seed", "1",
                       "--seconds", "1", "--max-jobs", "2")
        for name, unit in (("sweep_s", "s"), ("job_ms_p50", "ms"),
                           ("job_ms_p90", "ms"),
                           ("jobs_failed_ratio", "ratio"),
                           ("sim_power_norm", "ratio"),
                           ("sim_slowdown", "ratio"),
                           ("sim_edp_norm", "ratio")):
            self.assertTrue(any(re.match(rf"{name}\s+\S+ {unit}\b", line)
                                for line in lines), name)


class DigestTest(unittest.TestCase):
    ARGS = ("--workload", "fault-storm", "--seconds", "1", "--max-jobs", "4")

    def test_same_seed_same_digest(self):
        _, a = run(*self.ARGS, "--seed", "7")
        _, b = run(*self.ARGS, "--seed", "7")
        self.assertEqual(digest(a), digest(b))

    def test_digest_independent_of_worker_count(self):
        _, one = run(*self.ARGS, "--seed", "7", "--workers", "1")
        _, four = run(*self.ARGS, "--seed", "7", "--workers", "4")
        self.assertEqual(digest(one), digest(four))

    def test_seed_changes_simulated_outputs(self):
        _, a = run(*self.ARGS, "--seed", "7")
        _, b = run(*self.ARGS, "--seed", "8")
        self.assertNotEqual(digest(a), digest(b))


class LedgerAccountingTest(unittest.TestCase):
    """A ledger job that dies is a failure, and coverage is not
    computed over the jobs that survived."""

    @staticmethod
    def records():
        spans = [[name, 0, 0, 100, 10] for name in (
            "isa.engine", "isa.run_decoded", "mem.tlb", "cpu.main_core",
            "core.log", "core.checker", "core.checker_faulty",
            "core.system")]
        child = {"spans": spans, "errors": [], "digest": "d", "net": 10}
        ledger = {"jobs": [{"i": 0, "signal": 0, "exit": 0,
                            "child": child},
                           {"i": 1, "signal": 14, "exit": -1,
                            "child": None}]}
        ref = {"digest": "d", "executed": 10,
               "counts": {"main.sb_uops": 5}}
        plain = {"jobs": [{"i": i, "child": ref} for i in (0, 1)]}
        specs = {i: {"mode": "paradox", "fault_rate": 0.0,
                     "chip_seed": 0, "dvfs": False} for i in (0, 1)}
        return specs, ledger, plain

    def test_dead_ledger_job_is_a_failure(self):
        _, ledger, plain = self.records()
        self.assertEqual(run_py.ledger_problems(ledger, plain),
                         ["LEDGER FAILURE job 1 (signal 14)"])

    def test_no_coverage_over_partial_ledger(self):
        specs, ledger, plain = self.records()
        self.assertEqual(
            run_py.ledger_metrics(specs, ledger, plain)["ledger_coverage"],
            0.0)
        ledger["jobs"].pop()
        self.assertGreater(
            run_py.ledger_metrics(specs, ledger, plain)["ledger_coverage"],
            0.0)


class SpecTest(unittest.TestCase):
    def specs(self, workload, seed):
        rc, lines = run("--workload", workload, "--seed", str(seed),
                        "--list-specs")
        self.assertEqual(rc, 0)
        return [json.loads(line) for line in lines]

    def test_seed_changes_fault_specs_only(self):
        for w in BENCH["workloads"]:
            a = self.specs(w["name"], 1)
            b = self.specs(w["name"], 2)
            self.assertEqual(a, self.specs(w["name"], 1))
            self.assertNotEqual(a, b)
            self.assertEqual(len(a), len(b))
            strip = ("seed", "chip_seed")
            for x, y in zip(a, b):
                self.assertEqual({k: v for k, v in x.items()
                                  if k not in strip},
                                 {k: v for k, v in y.items()
                                  if k not in strip})

    def test_every_kernel_in_every_workload(self):
        kernels = {s["kernel"] for s in self.specs("fig13-sweep", 1)}
        self.assertEqual(len(kernels), 21)
        for w in BENCH["workloads"]:
            self.assertEqual({s["kernel"] for s in self.specs(w["name"], 1)},
                             kernels)

    def test_chip_seeds_nonzero(self):
        chips = [s["chip_seed"] for s in self.specs("fault-storm", 3)
                 if s["config"].startswith("chip")]
        self.assertEqual(len(chips), 21)
        self.assertNotIn(0, chips)


if __name__ == "__main__":
    unittest.main()
