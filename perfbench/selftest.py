#!/usr/bin/env python3
"""Self-test of the benchmark: tiny runs emit every metric, and the checks can fail.

    python3 perfbench/selftest.py

Runs from any directory; writes only under the checkout's .perfbench_work.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import shutil
import subprocess
import sys
import unittest

import run

sys.path.insert(0, run.SRC)

import tracer  # noqa: E402
import workloads  # noqa: E402
from mcastmob import config, experiment, handoff, reporting, topology  # noqa: E402

SCRATCH = os.path.join(run.ROOT, workloads.WORK_DIR, "selftest")


def _benchmark_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run_benchmark(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _fresh_copy(src, name):
    dst = os.path.join(SCRATCH, name)
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    return dst


class EveryMetricIsEmitted(unittest.TestCase):
    def test_tiny_runs_of_every_workload(self):
        spec = _benchmark_spec()
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            for name in workloads.WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    proc = _run_benchmark("--workload", name, "--seed", "3", "--seconds", "0",
                                          "--trace", str(trace), "--tiny")
                    self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, wanted)
                    if trace == 0:
                        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_fails_without_the_program(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run_benchmark("--workload", "suite_report", "--seed", "1", "--seconds", "1",
                              "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class OutputChecksCanFail(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.suite = run.write_config("suite_report", 3, tiny=True)
        rep, error = run.run_child("suite_report", 0, hash_seed=1)
        assert rep is not None, error
        cls.digest = rep["digest"]

    def test_digest_gate_rejects_a_corrupted_report(self):
        copy = _fresh_copy(self.suite.out_dir, "report_copy")
        self.assertEqual(workloads.report_digest(copy), self.digest)
        table = os.path.join(SCRATCH, "digests.json")
        with open(table, "w", encoding="utf-8") as fh:
            json.dump({"suite_report": {"3": self.digest}}, fh)
        self.assertTrue(workloads.check_digest(self.suite, 3, self.digest, table)[0])

        path = os.path.join(copy, "aggregate.csv")
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        data[-2] = ord("1") if data[-2] != ord("1") else ord("2")
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        passed, note = workloads.check_digest(self.suite, 3, workloads.report_digest(copy), table)
        self.assertFalse(passed, note)

    def test_property_check_rejects_a_corrupted_report(self):
        cfg = self.suite.config(3, tiny=True)
        self.assertEqual(workloads.check_run_report(self.suite.out_dir, cfg), [])
        copy = _fresh_copy(self.suite.out_dir, "report_props")
        samples = os.path.join(copy, "runs", sorted(os.listdir(os.path.join(copy, "runs")))[0])
        with open(samples, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        step, a, b, c, added, removed = lines[2].split(",")
        lines[2] = ",".join((step, a, b, str(int(a) + int(b) + 1), added, removed))
        with open(samples, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        self.assertTrue(workloads.check_run_report(copy, cfg))

    def test_handoff_check_rejects_broken_reports(self):
        w = run.write_config("handoff_lossy", 3, tiny=True)
        result = experiment.execute_scenario(config.load(os.path.join(run.ROOT, w.config_path)))
        rows = experiment.handoff_sweep(result)
        out = os.path.join(SCRATCH, "handoff")
        os.makedirs(out, exist_ok=True)
        reporting.write_handoff(os.path.join(out, "handoff.csv"), rows)
        self.assertEqual(workloads.check_handoff_rows(out, result, rows, lossless=False), [])
        bad = dataclasses.replace(rows[0].report, packets_lost=rows[0].report.packets_lost + 1)
        broken = [dataclasses.replace(rows[0], report=bad)] + rows[1:]
        self.assertTrue(workloads.check_handoff_rows(out, result, broken, lossless=False))
        self.assertTrue(workloads.check_handoff_rows(out, result, rows[:-1], lossless=False))


class FastestIntervals(unittest.TestCase):
    def test_each_interval_counts_with_its_fastest_repetition(self):
        reps = [{"intervals": {"exec": [3.0, 1.0], "report": [0.5]}},
                {"intervals": {"exec": [2.0, 4.0], "report": [0.7]}}]
        phases, problem = run.fastest_phases(reps)
        self.assertIsNone(problem)
        self.assertEqual(phases, {"exec": 3.0, "report": 0.5})

    def test_repetitions_that_cut_the_flow_differently_fail(self):
        reps = [{"intervals": {"exec": [3.0, 1.0]}}, {"intervals": {"exec": [2.0]}}]
        phases, problem = run.fastest_phases(reps)
        self.assertIsNone(phases)
        self.assertIn("different intervals", problem)

    def test_cuts_cover_the_flow_and_are_removed(self):
        w = run.write_config("handoff_clean", 3, tiny=True)
        original = experiment.run_single
        cuts = workloads.Checkpoints()
        cuts.install()
        try:
            self.assertIsNot(experiment.run_single, original)
            flow = workloads.run_flow(w, cuts)
        finally:
            cuts.uninstall()
        self.assertEqual(set(flow.intervals), {"load", "exec", "sweep", "report"})
        self.assertGreater(len(flow.intervals["exec"]), len(flow.result.runs))
        self.assertGreater(len(flow.intervals["sweep"]), len(flow.rows))
        self.assertIs(experiment.run_single, original)


class TracerCounts(unittest.TestCase):
    def test_bfs_runs_are_counted_per_oracle_object(self):
        topo = topology.Topology.from_edges("path", 4, [(0, 1), (1, 2), (2, 3)])
        t = tracer.Tracer()
        t.install()
        try:
            for _ in range(50):  # each oracle is freed at once, so ids get reused
                oracle = topology.PathOracle(topo)
                oracle.dist(3, 0)
                oracle.dist(2, 0)
                del oracle
                gc.collect()
        finally:
            t.uninstall()
        metrics = t.metrics()
        self.assertEqual(metrics["oracle.instances"], 50)
        self.assertEqual(metrics["oracle.bfs_runs"], 50)
        self.assertEqual(metrics["oracle.cache_hits"], 50)

    def test_names_are_patched_where_they_are_looked_up(self):
        original = handoff.simulate_handoff
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIsNot(experiment.simulate_handoff, original)
            self.assertIs(experiment.simulate_handoff, handoff.simulate_handoff)
        finally:
            t.uninstall()
        self.assertIs(experiment.simulate_handoff, original)
        self.assertIs(handoff.simulate_handoff, original)


if __name__ == "__main__":
    os.makedirs(SCRATCH, exist_ok=True)
    unittest.main()
