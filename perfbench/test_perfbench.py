#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the harness (like run.py does), runs the reducer self-test, runs a
tiny-size run of every workload untraced and traced and checks that every
metric BENCHMARK.json names is printed with its unit, and checks that the
correctness gates trip on doctored results.
"""

import json
import os
import subprocess
import sys
import unittest

import run

SMALL = ["--seed", "3", "--seconds", "0", "--sessions", "300"]


def load_definition():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def bench(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--trace", str(trace)] + SMALL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=600,
        check=False)
    return done.returncode, done.stdout.decode().strip().splitlines()


def fake_run(fingerprints, **gates):
    """A harness document with one timed repeat per fingerprint."""
    reps = []
    for i, fingerprint in enumerate(fingerprints):
        rep = {"rep": i, "seed": 1, "sessions": 10, "traced": i % 2 == 1,
               "fingerprint": fingerprint, "gate.accounting": True,
               "gate.invariants": True, "gate.result_polls": True}
        rep.update(gates)
        reps.append(rep)
    return {"workload": "warm_reuse", "seed": 1, "sessions": 10,
            "reference_sessions": 10,
            "setups": [{"gate.kernel_memo": True}], "reps": reps}


class Reducer(unittest.TestCase):
    def test_selftest_binary(self):
        self.assertTrue(run.build())
        done = subprocess.run([run.SELFTEST], stdout=subprocess.PIPE,
                              check=False)
        self.assertEqual(done.returncode, 0, done.stdout.decode())


class Gates(unittest.TestCase):
    def test_clean_run_passes(self):
        self.assertEqual(run.check_gates(fake_run(["ab", "ab"]), "ab"), [])

    def test_doctored_twin_fingerprint_trips(self):
        failures = run.check_gates(fake_run(["ab", "ab"]), "cd")
        self.assertTrue(any("sim twin" in f for f in failures), failures)

    def test_traced_untraced_mismatch_trips(self):
        failures = run.check_gates(fake_run(["ab", "ac"]))
        self.assertTrue(any("fingerprint differs" in f for f in failures),
                        failures)

    def test_failed_gate_trips(self):
        failures = run.check_gates(
            fake_run(["ab"], **{"gate.invariants": False}))
        self.assertEqual(failures, ["rep 0: gate.invariants failed"])

    def test_fingerprint_of_an_earlier_run_is_binding(self):
        ledger = {}
        self.assertEqual(run.check_gates(fake_run(["ab"]), None, ledger), [])
        failures = run.check_gates(fake_run(["cd"]), None, ledger)
        self.assertTrue(any("earlier run" in f for f in failures), failures)


class EveryMetricPrinted(unittest.TestCase):
    def check(self, trace):
        definition = load_definition()
        wanted = {m["name"]: m["unit"]
                  for m in definition["per_layer" if trace else "end_to_end"]}
        for workload in (w["name"] for w in definition["workloads"]):
            with self.subTest(workload=workload, trace=trace):
                code, lines = bench(workload, trace)
                self.assertEqual(code, 0, lines)
                result = json.loads(lines[-1])
                self.assertEqual(
                    sorted(result), ["attempted", "correct", "failed",
                                     "metrics"])
                self.assertTrue(result["correct"])
                printed = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                self.assertEqual(printed, wanted)
                for metric in result["metrics"].values():
                    self.assertIsInstance(metric["value"], float)

    def test_end_to_end(self):
        self.check(0)

    def test_per_layer(self):
        self.check(1)


if __name__ == "__main__":
    unittest.main()
