#!/usr/bin/env python3
"""Tests of the fleet benchmark itself.

    python3 fleetbench/test_run.py

Builds the program (as run.py does) and runs a tiny size of every
workload, untraced and traced; the remaining tests feed the checks
records with a broken ledger or a diverging outcome.
"""

import copy
import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TINY_SECONDS = "0.2"


def tiny_run(workload, trace):
    """Run one tiny workload; returns (records, result line)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", TINY_SECONDS, "--trace", str(trace),
         "--size", "tiny"],
        cwd=HERE.parent, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, check=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line]
    return lines[:-1], lines[-1]


class TinyWorkloads(unittest.TestCase):
    """Every workload prints every named metric with its unit."""

    @classmethod
    def setUpClass(cls):
        declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        cls.declared = {
            0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
            1: {m["name"]: m["unit"] for m in declared["per_layer"]},
        }
        cls.workloads = [w["name"] for w in declared["workloads"]]
        cls.results = {(w, t): tiny_run(w, t)
                       for w in cls.workloads for t in (0, 1)}

    def test_declared_names_match_run_py(self):
        self.assertEqual(self.declared[0], run.END_TO_END)
        self.assertEqual(self.declared[1], run.PER_LAYER)
        self.assertEqual(tuple(self.workloads), run.WORKLOADS)

    def test_every_metric_is_printed_with_its_unit(self):
        for (workload, trace), (_, result) in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                printed = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                self.assertEqual(printed, self.declared[trace])
                for name, metric in result["metrics"].items():
                    self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_record_names_its_environment(self):
        for (workload, _), (records, _) in self.results.items():
            for rec in records:
                self.assertEqual(rec["workload"], workload)
                self.assertIn(rec["backend"], ("calendar", "heap"))
                self.assertGreaterEqual(rec["nproc"], rec["threads"])
                self.assertTrue(rec["compiler"])

    def test_only_the_scaling_table_uses_worker_threads(self):
        for (workload, trace), (records, _) in self.results.items():
            threads = {rec["threads"] for rec in records
                       if rec["record"] != "scaling"}
            self.assertEqual(threads, {1}, workload)
            scaling = {rec["threads"] for rec in records
                       if rec["record"] == "scaling"}
            if workload == "fleet-dense" and trace == 1:
                self.assertEqual(min(scaling), 1)
            else:
                self.assertEqual(scaling, set(), workload)

    def test_same_seed_repeats_simulated_outcome(self):
        _, first = self.results[("client-faults", 0)]
        _, again = tiny_run("client-faults", 0)
        for name in ("fidelity_mean", "origin_polls", "client_stale_rate"):
            self.assertEqual(first["metrics"][name], again["metrics"][name])


class Hygiene(unittest.TestCase):
    """The benchmark refuses to run with a scheduler override set."""

    def test_scheduler_override_is_refused(self):
        for knob in ("BROADWAY_SCHEDULER", "BROADWAY_TRACE_ATTACHMENT"):
            with self.subTest(knob=knob):
                env = dict(os.environ, **{knob: "heap"})
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload",
                     "fleet-dense", "--seed", "1", "--seconds", "1",
                     "--trace", "0", "--size", "tiny"],
                    cwd=HERE.parent, env=env, stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE, text=True)
                self.assertNotEqual(proc.returncode, 0)
                self.assertEqual(proc.stdout, "")


class Checks(unittest.TestCase):
    """The checks fail a run whose ledgers or outcome are wrong."""

    @classmethod
    def setUpClass(cls):
        cls.untraced, _ = tiny_run("client-faults", 0)
        cls.traced, _ = tiny_run("fleet-dense", 1)

    def run_record(self):
        return copy.deepcopy(
            next(r for r in self.untraced if r["record"] == "run"))

    def test_balanced_records_pass(self):
        attempted, failed, problems = run.check_runs(self.untraced)
        self.assertGreater(attempted, 0)
        self.assertEqual((failed, problems), (0, []))
        attempted, failed, problems = run.check_runs(self.traced)
        self.assertGreater(attempted, 0)
        self.assertEqual((failed, problems), (0, []))

    def test_unbalanced_ledgers_fail(self):
        for key in ("policy_polls", "relays_lost", "client_misses"):
            with self.subTest(key=key):
                rec = self.run_record()
                rec[key] += 1
                self.assertTrue(run.ledger_failures(rec))
                attempted, failed, _ = run.check_runs([rec])
                self.assertEqual((attempted, failed), (1, 1))

    def test_repetition_with_another_outcome_fails(self):
        first, second = self.run_record(), self.run_record()
        second["fidelity_mean"] *= 0.5
        self.assertEqual(run.check_runs([first, second])[:2], (2, 1))

    def test_traced_run_must_equal_its_untraced_twin(self):
        records = copy.deepcopy(self.traced)
        traced = next(r for r in records if r["record"] == "traced")
        traced["origin_polls"] += 1
        traced["policy_polls"] += 1  # ledger still balances
        attempted, failed, problems = run.check_runs(records)
        self.assertEqual(failed, 1)
        self.assertIn("traced origin_polls", problems[0])

    def test_sharded_run_must_equal_the_single_simulator(self):
        records = copy.deepcopy(self.traced)
        sharded = next(r for r in records if r["record"] == "scaling")
        sharded["relays_applied"] += 1
        _, failed, problems = run.check_runs(records)
        self.assertGreaterEqual(failed, 1)
        self.assertTrue(any("relays_applied" in p for p in problems))


if __name__ == "__main__":
    unittest.main()
