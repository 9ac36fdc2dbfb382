"""Self-test of the benchmark on tiny inputs.

Every workload must emit each metric of BENCHMARK.json with its unit, and the
per-layer counts (``*_terms``, ``*_cache_entries``, ``suites.checks``) must
repeat exactly across two traced runs of the same seed.  Run from the
repository root:

    python3 perfbench/test_bench.py
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, cwd: Path = ROOT, env=None):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def is_count(name: str) -> bool:
    return name.endswith(("_terms", "_cache_entries")) or name == "suites.checks"


class BenchmarkSelfTest(unittest.TestCase):
    def result(self, workload: str, trace: int) -> dict:
        proc = bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertNotIn("warning:", proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)  # the tiny sizes leave out 2[1^7]
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in wanted])
        for metric in wanted:
            self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])
        return result["metrics"]

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                for name, metric in self.result(workload, 0).items():
                    self.assertGreater(metric["value"], 0, name)

    def test_layer_counts_repeat(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, second = self.result(workload, 1), self.result(workload, 1)
                counts = [name for name in first if is_count(name)]
                self.assertTrue(counts)
                for name in counts:
                    self.assertEqual(first[name]["value"], second[name]["value"], name)
                self.assertGreater(first["trace.wall_s"]["value"], 0)

    def test_refuses_summation_cap_override(self):
        proc = bench("symbolic", 0, env=dict(os.environ, ARBOZETA_MAX_N="1000"))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_fails_without_sources(self):
        bare = ROOT / "perfbench" / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench("symbolic", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
